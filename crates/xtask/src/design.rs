//! Rule `design_names`: DESIGN.md names only code that exists.
//!
//! A backticked name in the design document — an `a::b` path (a
//! `file.rs::test` path too), a `CamelCase` type or a `SCREAMING_CASE`
//! constant — must have its last segment appear as a word in some `.rs`
//! file under `crates/` or `spine/`, or be listed in the document's one
//! "Removed" table (a table whose header row starts `| Removed |`): the
//! history a section keeps names what has left the tree on purpose, and
//! nothing else does.

use crate::rules::Violation;
use std::collections::HashSet;

/// The identifier words of one source text: every maximal run of ASCII
/// letters, digits and `_`.
pub fn words(src: &str) -> impl Iterator<Item = &str> {
    src.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
}

/// An identifier segment, or `*` (a glob such as `resample::*`).
fn is_segment(s: &str) -> bool {
    s == "*"
        || s.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_')
            && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// `a::b`, `a::b::c`, `file.rs::b` — two segments or more.
fn is_path(s: &str) -> bool {
    let mut segs = s.split("::");
    let first = segs.next().unwrap_or("");
    let file = first.strip_suffix(".rs").is_some_and(|stem| {
        !stem.is_empty()
            && stem
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
    });
    s.contains("::") && (file || is_segment(first)) && segs.all(is_segment)
}

/// `GramFit`, `StepScan`: an upper-case initial and at least one more
/// hump, lower-case letters in the first.
fn is_camel(s: &str) -> bool {
    let b = s.as_bytes();
    b.len() > 2
        && b[0].is_ascii_uppercase()
        && b[1].is_ascii_lowercase()
        && b[1..].iter().any(u8::is_ascii_uppercase)
        && b.iter().all(u8::is_ascii_alphanumeric)
}

/// `TOL_BINS`: upper case and digits in two words or more.
fn is_screaming(s: &str) -> bool {
    s.starts_with(|c: char| c.is_ascii_uppercase())
        && s.contains('_')
        && s.split('_').all(|w| {
            !w.is_empty()
                && w.chars()
                    .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit())
        })
}

/// The backticked spans of a markdown text with their byte offsets,
/// fenced code blocks left out.
fn spans(doc: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    let mut fenced = false;
    let mut open: Option<usize> = None;
    let mut at = 0;
    for line in doc.split_inclusive('\n') {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            open = None;
        } else if !fenced {
            for (i, _) in line.match_indices('`') {
                match open.take() {
                    Some(start) => out.push((start, &doc[start + 1..at + i])),
                    None => open = Some(at + i),
                }
            }
        }
        at += line.len();
    }
    out
}

/// The names the document lists as removed: the first cell of every row
/// of its `| Removed |` table, backticks stripped.
fn removed(doc: &str) -> HashSet<&str> {
    let mut out = HashSet::new();
    let mut in_table = false;
    for line in doc.lines().map(str::trim) {
        if !line.starts_with('|') {
            in_table = false;
        } else if line
            .trim_start_matches('|')
            .trim_start()
            .starts_with("Removed")
        {
            in_table = true;
        } else if in_table {
            let cell = line.trim_start_matches('|').split('|').next().unwrap_or("");
            out.insert(cell.trim().trim_matches('`'));
        }
    }
    out
}

/// Checks the design document `doc` (reported under `path`) against
/// `words`, the words of the workspace's sources.
pub fn check(path: &str, doc: &str, words: &HashSet<String>) -> Vec<Violation> {
    let removed = removed(doc);
    let mut out = Vec::new();
    for (offset, span) in spans(doc) {
        let name = span.trim();
        let name = name.strip_suffix("()").unwrap_or(name);
        if !(is_path(name) || is_camel(name) || is_screaming(name)) || removed.contains(name) {
            continue;
        }
        let last = name.rsplit("::").next().unwrap_or(name);
        if words.contains(last) {
            continue;
        }
        let before = &doc[..offset];
        let line = before.matches('\n').count() + 1;
        let col = offset - before.rfind('\n').map_or(0, |i| i + 1) + 1;
        out.push(Violation {
            path: path.to_string(),
            line,
            col,
            rule: "design_names",
            message: format!(
                "`{name}` names no code under crates/ or spine/; list it in the Removed table \
                 if it left on purpose"
            ),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(doc: &str, src: &str) -> Vec<String> {
        let words: HashSet<String> = words(src).map(str::to_string).collect();
        check("DESIGN.md", doc, &words)
            .into_iter()
            .map(|v| {
                format!(
                    "{}:{} {}",
                    v.line,
                    v.col,
                    v.message.split('`').nth(1).unwrap_or("")
                )
            })
            .collect()
    }

    #[test]
    fn names_are_paths_camel_and_screaming_case_only() {
        for name in [
            "a::b",
            "resample::*",
            "*::butterflies_from",
            "fft.rs::swap_table",
            "GramFit::eval",
        ] {
            assert!(is_path(name), "{name}");
        }
        for name in ["a", "a::", "::b", "a b::c", "x.rs", "a::b()", "a-b::c"] {
            assert!(!is_path(name), "{name}");
        }
        assert!(is_camel("StepScan") && is_camel("GramFit") && is_camel("Avx2Leaf"));
        assert!(
            !is_camel("C64") && !is_camel("Vec") && !is_camel("TOL_BINS") && !is_camel("Gram fit")
        );
        assert!(
            is_screaming("TOL_BINS") && is_screaming("CHOIR_DSP_BACKEND") && is_screaming("K2_MAX")
        );
        assert!(!is_screaming("HEAD") && !is_screaming("A__B") && !is_screaming("Tol_BINS"));
    }

    #[test]
    fn a_missing_name_is_caught_unless_removed_on_purpose() {
        let src = "pub struct GramFit; const TOL_BINS: f64 = 1e-4; fn eval() {}";
        let doc = "Uses `GramFit::eval` and `TOL_BINS`,\nnot `StepScan` or `Gone::away()` (`x + 1`, `Vec`).\n";
        assert_eq!(names(doc, src), ["2:5 StepScan", "2:19 Gone::away"]);
        let listed = format!("{doc}\n| Removed | PR |\n|---|---|\n| `StepScan` | 29 |\n");
        assert_eq!(names(&listed, src), ["2:19 Gone::away"]);
        // A fenced block is code, not prose; a span may wrap a line.
        let fenced = "```text\n`StepScan`\n```\nand `Gramless\nFit` and\n`Step\nScan`.\n";
        assert!(names(fenced, src).is_empty(), "{:?}", names(fenced, src));
    }
}
