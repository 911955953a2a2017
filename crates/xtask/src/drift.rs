//! The float-drift comparison behind `cargo xtask ci drift <base-rev>`.
//!
//! A perf change to the estimator, a kernel or the decoder may round a
//! float along another path and must change nothing else (DESIGN §13,
//! "Objective or value"). Two artefacts show which happened: the JSONL
//! of `trace_dump` (one seeded 4-user collision, every offset search and
//! SIC pass on record) and the document `figures -- all --json` prints.
//! Both are walked here as token streams, base beside head, in lockstep
//! — the workspace has no JSON parser and does not need one: a number
//! spelt with `.` or `e` is a float and may drift inside its field's
//! bound, every other token must match byte for byte.

use std::collections::BTreeMap;

/// Position fields: bins the next stage consumes.
const POSITION_FIELDS: [&str; 4] = ["coarse_bins", "refined_bins", "cancelled_bins", "pos_bins"];
/// Bound on the relative drift of a position.
const POSITION_LIMIT: f64 = 1e-12;
/// Bound on the relative drift of any other float (residuals,
/// magnitudes, every `fig.json` leaf).
const VALUE_LIMIT: f64 = 1e-9;

/// One scalar of a record: the object key it sits under (array elements
/// share their array's key) and its spelling.
#[derive(Debug, PartialEq)]
struct Leaf<'a> {
    field: &'a str,
    text: &'a str,
}

/// The scalars of a JSON text in document order. Structure (`{}[],:`)
/// is not kept: two documents with equal leaf sequences under equal keys
/// but different nesting do not come out of one serialiser.
fn leaves(json: &str) -> Vec<Leaf<'_>> {
    let bytes = json.as_bytes();
    let mut out = Vec::new();
    let mut field = "";
    let mut i = 0;
    while i < bytes.len() {
        let start = i;
        match bytes[i] {
            b'"' => {
                i += 1;
                while i < bytes.len() && bytes[i] != b'"' {
                    i += if bytes[i] == b'\\' { 2 } else { 1 };
                }
                i = (i + 1).min(bytes.len());
                let text = &json[start..i];
                let mut rest = i;
                while rest < bytes.len() && bytes[rest].is_ascii_whitespace() {
                    rest += 1;
                }
                if bytes.get(rest) == Some(&b':') {
                    field = text.trim_matches('"');
                    i = rest + 1;
                } else {
                    out.push(Leaf { field, text });
                }
            }
            b'{' | b'}' | b'[' | b']' | b',' | b':' => i += 1,
            c if c.is_ascii_whitespace() => i += 1,
            _ => {
                while i < bytes.len() && !b"{}[],: \t\r\n\"".contains(&bytes[i]) {
                    i += 1;
                }
                out.push(Leaf {
                    field,
                    text: &json[start..i],
                });
            }
        }
    }
    out
}

/// A number spelt as a float, parsed; integers, strings and literals are
/// `None` and must match exactly.
fn as_float(text: &str) -> Option<f64> {
    if text.starts_with('"') || !text.contains(['.', 'e', 'E']) {
        return None;
    }
    text.parse().ok()
}

/// What a comparison found: the worst drift per field, and every reason
/// to fail.
#[derive(Debug, Default)]
pub struct Report {
    /// `name → (floats that moved, worst relative drift, bound)`.
    pub moved: BTreeMap<String, (usize, f64, f64)>,
    /// Human-readable failures; empty means the gate passes.
    pub failures: Vec<String>,
}

impl Report {
    /// Walks two leaf sequences in lockstep under the prefix `name`.
    fn walk(&mut self, name: &str, base: &[Leaf<'_>], head: &[Leaf<'_>]) {
        if base.len() != head.len() {
            self.failures.push(format!(
                "{name}: {} scalars at the base, {} here",
                base.len(),
                head.len()
            ));
            return;
        }
        for (b, h) in base.iter().zip(head) {
            if b.field != h.field {
                self.failures
                    .push(format!("{name}: field {:?} became {:?}", b.field, h.field));
                return;
            }
            if b.text == h.text || b.field.ends_with("_ns") || b.field == "seq" {
                continue;
            }
            let key = format!("{name}.{}", b.field);
            let (Some(x), Some(y)) = (as_float(b.text), as_float(h.text)) else {
                self.failures
                    .push(format!("{key}: {} became {}", b.text, h.text));
                continue;
            };
            // Two spellings of one value are no drift; `0.0` against
            // `-0.0` is not a number and fails below.
            let drift = (x - y).abs() / x.abs().max(y.abs());
            let limit = if POSITION_FIELDS.contains(&b.field) {
                POSITION_LIMIT
            } else {
                VALUE_LIMIT
            };
            let entry = self.moved.entry(key.clone()).or_insert((0, 0.0, limit));
            entry.0 += 1;
            entry.1 = entry.1.max(drift);
            if drift.is_nan() || drift > limit {
                self.failures.push(format!(
                    "{key}: {} became {} — relative drift {drift:.1e} over {limit:.0e}",
                    b.text, h.text
                ));
            }
        }
    }

    /// Compares two `trace_dump` outputs: `span_*` records are timing
    /// and dropped from both sides, `*_ns` and `seq` (which counts the
    /// spans too) are skipped. An offset search's `refined_bins` is a
    /// solver iterate, which moves with the last bit of its objective
    /// whether its `coarse_bins` moved or not: it is held to the
    /// position bound like every other position.
    pub fn trace(&mut self, base: &str, head: &str) {
        let records = |text| -> Vec<Vec<Leaf<'_>>> {
            str::lines(text)
                .map(leaves)
                .filter(|l| !kind(l).starts_with("span_"))
                .collect()
        };
        let (base, head) = (records(base), records(head));
        if base.len() != head.len() {
            self.failures.push(format!(
                "trace: {} non-span records at the base, {} here",
                base.len(),
                head.len()
            ));
            return;
        }
        for (b, h) in base.iter().zip(&head) {
            self.walk(kind(b), b, h);
        }
    }

    /// Compares two `figures -- all --json` documents, report by report,
    /// so a report whose point count moved is named and the rest are
    /// still walked.
    pub fn figures(&mut self, base: &str, head: &str) {
        let (base, head) = (leaves(base), leaves(head));
        let (base, head) = (reports(&base), reports(&head));
        if base.len() != head.len() {
            self.failures.push(format!(
                "fig: {} reports at the base, {} here",
                base.len(),
                head.len()
            ));
            return;
        }
        for (b, h) in base.iter().zip(&head) {
            if b.len() != h.len() {
                let id = report_id(b);
                self.failures.push(format!(
                    "fig {id}: {} scalars at the base, {} here",
                    b.len(),
                    h.len()
                ));
            } else {
                self.walk("fig", b, h);
            }
        }
    }

    /// Prints the worst drift per field.
    pub fn print_moved(&self) {
        if self.moved.is_empty() {
            println!("ci: drift: no float moved");
        }
        for (name, (count, worst, limit)) in &self.moved {
            println!("ci: drift: {name}: {count} moved, worst {worst:.1e} (bound {limit:.0e})");
        }
    }

    /// Prints the per-field table; `Err` carries the failures.
    pub fn verdict(self) -> Result<(), String> {
        self.print_moved();
        if self.failures.is_empty() {
            Ok(())
        } else {
            Err(self.failures.join("\nci: FAIL: "))
        }
    }
}

/// The leaves of a `figures --json` document cut into its reports: each
/// starts at its `"id"`.
fn reports<'a, 'b>(leaves: &'b [Leaf<'a>]) -> Vec<&'b [Leaf<'a>]> {
    let mut starts: Vec<usize> = (0..leaves.len())
        .filter(|&i| leaves[i].field == "id")
        .collect();
    if starts.first() != Some(&0) {
        starts.insert(0, 0);
    }
    starts.push(leaves.len());
    starts.windows(2).map(|w| &leaves[w[0]..w[1]]).collect()
}

/// The `"id"` a report starts with, quotes kept (`""` when it has none).
fn report_id<'a>(report: &[Leaf<'a>]) -> &'a str {
    report
        .first()
        .filter(|l| l.field == "id")
        .map_or("", |l| l.text)
}

/// Figure reports no decoder decision reaches — the closed-form city
/// simulator, the station's streamed-vs-batch diff and slot accounting —
/// each with the one part of it that runs the IQ decoder on the side:
/// the city's escalation probe (a series label) and the station's
/// metrics (its `notes`, which count the users decoded).
const DECISION_FREE_REPORTS: [(&str, &str); 2] =
    [("\"city\"", "\"iq escalation\""), ("\"station\"", "notes")];

/// A report's leaves cut into those no decision reaches and those under
/// `iq` — the points of the series labelled `iq`, or every note when `iq`
/// is `notes`.
fn split_iq<'b, 'a>(report: &'b [Leaf<'a>], iq: &str) -> [Vec<&'b Leaf<'a>>; 2] {
    let mut label = "";
    let mut parts = [Vec::new(), Vec::new()];
    for leaf in report {
        if leaf.field == "label" {
            label = leaf.text;
        }
        let decoded = match leaf.field {
            "notes" => iq == "notes",
            "points" => label == iq,
            _ => false,
        };
        parts[usize::from(decoded)].push(leaf);
    }
    parts
}

/// What a declared decision change (a regenerated golden transcript) is
/// still held to, given both sides' `trace_dump` and `figures --json`
/// outputs: the traced slot delivers no fewer CRC-ok users, and the
/// reports in [`DECISION_FREE_REPORTS`] are identical but for their
/// IQ-decoded leaves, which are printed when they moved. Returns the
/// failures.
pub fn decision_change(
    trace_base: &str,
    trace_head: &str,
    fig_base: &str,
    fig_head: &str,
) -> Vec<String> {
    let mut failures = Vec::new();
    let crc_ok = |text: &str| -> u64 {
        text.lines()
            .map(leaves)
            .filter(|l| kind(l) == "slot_outcome")
            .flat_map(|l| l.into_iter().filter(|f| f.field == "crc_ok"))
            .filter_map(|f| f.text.parse::<u64>().ok())
            .sum()
    };
    let (b, h) = (crc_ok(trace_base), crc_ok(trace_head));
    println!("ci: drift: slot_outcome.crc_ok {b} at the base, {h} here");
    if h < b {
        failures.push(format!("slot_outcome.crc_ok fell from {b} to {h}"));
    }
    let (base, head) = (leaves(fig_base), leaves(fig_head));
    let (base, head) = (reports(&base), reports(&head));
    for (id, iq) in DECISION_FREE_REPORTS {
        let of = |all: &[&[Leaf<'_>]]| all.iter().position(|r| report_id(r) == id);
        let (Some(b), Some(h)) = (of(&base), of(&head)) else {
            failures.push(format!("fig {id}: report missing"));
            continue;
        };
        let ([b_held, b_iq], [h_held, h_iq]) = (split_iq(base[b], iq), split_iq(head[h], iq));
        if b_held != h_held {
            failures.push(format!(
                "fig {id}: moved outside {iq} — no decoder decision reaches it"
            ));
        }
        if b_iq.len() != h_iq.len() {
            println!(
                "ci: drift: reported: fig {id} {iq}: {} leaves at the base, {} here",
                b_iq.len(),
                h_iq.len()
            );
        }
        for (x, y) in b_iq.iter().zip(&h_iq).filter(|(x, y)| x != y) {
            println!(
                "ci: drift: reported: fig {id} {iq}: {} became {}",
                x.text, y.text
            );
        }
    }
    failures
}

/// The `"kind"` of a trace record (`""` when it has none).
fn kind<'a>(record: &[Leaf<'a>]) -> &'a str {
    record
        .iter()
        .find(|l| l.field == "kind")
        .map_or("", |l| l.text.trim_matches('"'))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEARCH: &str = r#"{"seq": 4, "thread": 0, "kind": "offset_search", "window": 1, "evals": 297, "coarse_bins": [235.904, 179.388], "refined_bins": [235.91175905600346, 179.39633736956057], "residual": 3471.862122426623}"#;
    const SPAN: &str = r#"{"seq": 2, "thread": 0, "kind": "span_exit", "stage": "dechirp", "exclusive_ns": 371330}"#;

    fn compare(base: &str, head: &str) -> Report {
        let mut r = Report::default();
        r.trace(base, head);
        r
    }

    #[test]
    fn leaves_carry_their_field_and_skip_keys() {
        let l = leaves(r#"{"a": 1, "b": [2.5, -3e-2], "c": {"d": "x:y", "e": null}}"#);
        let got: Vec<(&str, &str)> = l.iter().map(|l| (l.field, l.text)).collect();
        assert_eq!(
            got,
            [
                ("a", "1"),
                ("b", "2.5"),
                ("b", "-3e-2"),
                ("d", "\"x:y\""),
                ("e", "null")
            ]
        );
        assert_eq!(as_float("2.5"), Some(2.5));
        assert_eq!(as_float("-3e-2"), Some(-0.03));
        assert_eq!(as_float("297"), None);
        assert_eq!(as_float("\"1.5\""), None);
    }

    #[test]
    fn identical_dumps_pass_and_spans_and_timings_are_ignored() {
        let base = format!("{SPAN}\n{SEARCH}\n");
        let head = format!(
            "{SEARCH}\n{}\n{}\n",
            SPAN.replace("371330", "99"),
            SPAN.replace("\"seq\": 2", "\"seq\": 9")
        );
        let r = compare(&base, &head);
        assert!(r.failures.is_empty(), "{:?}", r.failures);
        assert!(r.moved.is_empty());
        assert!(r.verdict().is_ok());
    }

    #[test]
    fn a_residual_may_drift_inside_its_bound_only() {
        let r = compare(
            SEARCH,
            &SEARCH.replace("3471.862122426623", "3471.862122426643"),
        );
        assert!(r.failures.is_empty(), "{:?}", r.failures);
        let (count, worst, limit) = r.moved["offset_search.residual"];
        assert_eq!(count, 1);
        assert!(worst > 1e-15 && worst < 1e-14 && limit == VALUE_LIMIT);
        let r = compare(SEARCH, &SEARCH.replace("3471.862122426623", "3471.8622"));
        assert_eq!(r.failures.len(), 1, "{:?}", r.failures);
        assert!(r.failures[0].contains("offset_search.residual"));
    }

    #[test]
    fn an_integer_a_string_or_a_record_count_may_not_move() {
        let r = compare(SEARCH, &SEARCH.replace("297", "298"));
        assert!(
            r.failures[0].contains("evals: 297 became 298"),
            "{:?}",
            r.failures
        );
        let r = compare(SEARCH, &SEARCH.replace("offset_search", "sic_pass"));
        assert_eq!(r.failures.len(), 1, "{:?}", r.failures);
        let r = compare(SEARCH, &format!("{SEARCH}\n{SEARCH}"));
        assert!(
            r.failures[0].contains("1 non-span records"),
            "{:?}",
            r.failures
        );
        let r = compare(SEARCH, &SEARCH.replace("\"window\": 1, ", ""));
        assert_eq!(r.failures.len(), 1, "{:?}", r.failures);
    }

    #[test]
    fn a_refined_position_is_held_to_the_position_bound_alone() {
        // A solver iterate moves with the last bit of its objective: a
        // 1e-16 move with its coarse input unmoved is drift, not a flip.
        let nudged = SEARCH.replace("235.91175905600346", "235.91175905600349");
        let r = compare(SEARCH, &nudged);
        assert!(r.failures.is_empty(), "{:?}", r.failures);
        let (count, worst, limit) = r.moved["offset_search.refined_bins"];
        assert_eq!(count, 1);
        assert!(worst > 1e-17 && worst < 1e-15 && limit == POSITION_LIMIT);
        // A 1e-9 move fails the position bound, coarse input moved or not.
        let far = SEARCH.replace("235.91175905600346", "235.9117592");
        let r = compare(SEARCH, &far);
        assert_eq!(r.failures.len(), 1, "{:?}", r.failures);
        assert!(r.failures[0].contains("over 1e-12"), "{:?}", r.failures);
        let carried = far.replace("235.904", "235.90400000000002");
        assert_eq!(compare(SEARCH, &carried).failures.len(), 1);
    }

    #[test]
    fn a_declared_decision_change_holds_the_crc_count_and_the_decision_free_reports() {
        let outcome = |crc_ok: u32| {
            format!(
                "{SEARCH}\n{{\"seq\": 9, \"kind\": \"slot_outcome\", \"users\": 4, \"crc_ok\": {crc_ok}}}\n"
            )
        };
        let figs = |p7: f64, city: &str, station: u32| {
            format!(
                "[{{\"id\":\"fig08def\",\"series\":[{{\"label\":\"p\",\"points\":[[7,{p7}]]}}]}},\
                 {{\"id\":\"station\",\"series\":[{{\"label\":\"slots\",\"points\":[[\"shed\",{station}]]}}]}},\
                 {{\"id\":\"city\",\"notes\":[\"digest {city}\"]}}]"
            )
        };
        let base = figs(0.36, "0x44a0", 3);
        // A decoder figure and the record stream may move; the CRC count
        // may rise.
        let held = decision_change(&outcome(3), &outcome(4), &base, &figs(0.5, "0x44a0", 3));
        assert!(held.is_empty(), "{held:?}");
        let held = decision_change(&outcome(4), &outcome(3), &base, &base);
        assert_eq!(held.len(), 1, "{held:?}");
        assert!(held[0].contains("fell from 4 to 3"), "{held:?}");
        for moved in [figs(0.36, "0x44a1", 3), figs(0.36, "0x44a0", 2)] {
            let held = decision_change(&outcome(4), &outcome(4), &base, &moved);
            assert_eq!(held.len(), 1, "{held:?}");
            assert!(held[0].contains("no decoder decision"), "{held:?}");
        }
        let held = decision_change(&outcome(4), &outcome(4), &base, "[]");
        assert_eq!(held.len(), 2, "{held:?}");
    }

    #[test]
    fn a_declared_decision_change_reports_the_iq_decoded_leaves_only() {
        let figs = |fps: f64, mismatches: u32, digest: &str, decoded: u32, identical: u32| {
            format!(
                "[{{\"id\":\"city\",\"series\":[{{\"label\":\"choir fps\",\"points\":[[4,{fps}]]}},\
                 {{\"label\":\"iq escalation\",\"points\":[[\"slots escalated\",4],\
                 [\"verdict mismatches\",{mismatches}]]}}],\"notes\":[\"digest {digest}\"]}},\
                 {{\"id\":\"station\",\"series\":[{{\"label\":\"paths agree\",\
                 \"points\":[[\"identical\",{identical}]]}}],\
                 \"notes\":[\"metrics: {{\\\"users_decoded\\\": {decoded}}}\"]}}]"
            )
        };
        let outcome = "{\"kind\": \"slot_outcome\", \"crc_ok\": 4}";
        let base = figs(2676.5, 0, "0x44a0", 8, 1);
        // The escalation probe's verdicts and the station's decode counts
        // may move, together or alone.
        for head in [
            figs(2676.5, 1, "0x44a0", 7, 1),
            figs(2676.5, 1, "0x44a0", 8, 1),
            figs(2676.5, 0, "0x44a0", 7, 1),
        ] {
            let held = decision_change(outcome, outcome, &base, &head);
            assert!(held.is_empty(), "{held:?}");
        }
        // A closed-form city leaf, the city digest, the streamed-vs-batch
        // diff: each still fails, beside a moved IQ leaf too.
        for head in [
            figs(2676.0, 1, "0x44a0", 8, 1),
            figs(2676.5, 0, "0x44a1", 8, 1),
            figs(2676.5, 0, "0x44a0", 7, 0),
        ] {
            let held = decision_change(outcome, outcome, &base, &head);
            assert_eq!(held.len(), 1, "{head}: {held:?}");
            assert!(held[0].contains("no decoder decision"), "{held:?}");
        }
    }

    #[test]
    fn a_report_whose_point_count_moved_is_named_and_the_rest_still_walked() {
        let base =
            r#"[{"id":"fig07","points":[[1,0.5],[2,0.25]]},{"id":"fig12","points":[["a",0.6]]}]"#;
        let head = r#"[{"id":"fig07","points":[[1,0.5],[2,0.25],[3,0.125]]},{"id":"fig12","points":[["a",0.4]]}]"#;
        let mut r = Report::default();
        r.figures(base, head);
        assert_eq!(r.failures.len(), 2, "{:?}", r.failures);
        assert!(r.failures[0].contains("fig \"fig07\": 5 scalars at the base, 7 here"));
        assert!(r.failures[1].contains("fig.points: 0.6 became 0.4"));
        let mut r = Report::default();
        r.figures(base, r#"[{"id":"fig07","points":[[1,0.5],[2,0.25]]}]"#);
        assert_eq!(r.failures.len(), 1, "{:?}", r.failures);
        assert!(r.failures[0].contains("2 reports at the base, 1 here"));
    }

    #[test]
    fn figure_leaves_are_values() {
        let base =
            r#"{"fig04": {"residual": [0.25, 1.5e-3]}, "city": {"digest": "0x44a0", "n": 7}}"#;
        let mut r = Report::default();
        r.figures(base, base);
        assert!(r.failures.is_empty() && r.moved.is_empty());
        let mut r = Report::default();
        r.figures(base, &base.replace("1.5e-3", "1.5000000000001e-3"));
        assert!(r.failures.is_empty(), "{:?}", r.failures);
        assert_eq!(r.moved["fig.residual"].0, 1);
        for (from, to) in [("0.25", "0.2500001"), ("0x44a0", "0x44a1"), ("7", "8")] {
            let mut r = Report::default();
            r.figures(base, &base.replace(from, to));
            assert_eq!(r.failures.len(), 1, "{from}: {:?}", r.failures);
            assert!(r.verdict().is_err());
        }
    }
}
