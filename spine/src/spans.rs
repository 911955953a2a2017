//! Spans the benchmark records around each public call it makes into the
//! program: name, start, end, the span that caused it and the work item
//! it belongs to. Kept in memory, written as JSONL when the run ends.
//! Spans *inside* the program are a later change; these sit outside it.

use std::io::Write;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Work item (chunk, slot, batch or round index) the call served.
    pub item: u64,
}

/// In-memory span log. A disabled log records nothing, so the untraced
/// run shares the traced run's code path at the cost of one branch.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, item: u64) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.iter().rev().nth(1).copied(),
            item,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        if let Some(span) = self.open.pop().and_then(|i| self.spans.get_mut(i)) {
            span.end_ns = now;
        }
    }

    /// Seconds inside spans called `name`, minus the part their child
    /// spans cover: the layer's self time.
    pub fn self_time_s(&self, name: &str) -> f64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(slot) = s.parent.and_then(|p| child_ns.get_mut(p)) {
                *slot += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(*c) as f64 * 1e-9)
            .sum()
    }

    /// Spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"item\": {}}}",
                s.name, s.start_ns, s.end_ns, s.item
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_name_their_parent_and_reduce_its_self_time() {
        let mut s = Spans::new(true);
        s.enter("chunk", 3);
        s.enter("push_chunk", 3);
        s.exit();
        s.enter("service", 3);
        s.exit();
        s.exit();
        assert_eq!(s.len(), 3);
        assert_eq!(s.spans[0].parent, None);
        assert_eq!(s.spans[1].parent, Some(0));
        assert_eq!(s.spans[2].parent, Some(0));
        let total = (s.spans[0].end_ns - s.spans[0].start_ns) as f64 * 1e-9;
        let kids = s.self_time_s("push_chunk") + s.self_time_s("service");
        assert!((s.self_time_s("chunk") - (total - kids)).abs() < 1e-9);
    }

    #[test]
    fn a_disabled_log_records_nothing() {
        let mut s = Spans::new(false);
        s.enter("x", 0);
        s.exit();
        assert_eq!(s.len(), 0);
    }
}
