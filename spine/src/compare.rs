//! `spine compare <a> <b>`: holds two sets of run records against the
//! bounds `BENCHMARK.json` fixes. One row per (end-to-end metric,
//! workload): better, within bound, regressed, or unresolved when the
//! run-to-run spread is wider than the bound. Exact results — the
//! delivered set, false accepts, the city digest — must be identical
//! between runs of one seed.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::{self, Value};
use crate::oracle::same_delivered_set;
use crate::stats::{median, relative_spread};

/// One end-to-end metric as `BENCHMARK.json` declares it.
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    /// Share of the baseline's median the metric may worsen by.
    pub bound: f64,
}

/// How one (metric, workload) row reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    WithinBound,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Reads the end-to-end metrics and their bounds out of `BENCHMARK.json`.
pub fn read_bounds(spec: &Path) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(spec).map_err(|e| format!("{}: {e}", spec.display()))?;
    let doc = json::parse(&text)?;
    let rows = doc
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    rows.iter()
        .map(|row| {
            let field = |k: &str| row.get(k).ok_or(format!("end_to_end entry without {k}"));
            Ok(Bound {
                name: field("name")?.as_str().unwrap_or_default().to_string(),
                lower_is_better: field("better")?.as_str() == Some("lower"),
                bound: field("bound")?.as_f64().unwrap_or(0.0),
            })
        })
        .collect()
}

/// The records of one set: `runs.jsonl` itself or the directory it is in.
pub fn read_runs(path: &Path) -> Result<Vec<Value>, String> {
    let file = if path.is_dir() {
        path.join("runs.jsonl")
    } else {
        path.to_path_buf()
    };
    let text = std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(json::parse)
        .collect()
}

fn untraced(run: &Value) -> bool {
    run.get("trace").and_then(Value::as_f64) == Some(0.0)
}

fn workload(run: &Value) -> &str {
    run.get("workload")
        .and_then(Value::as_str)
        .unwrap_or_default()
}

fn seed(run: &Value) -> i64 {
    run.get("seed").and_then(Value::as_f64).unwrap_or(-1.0) as i64
}

fn metric(run: &Value, name: &str) -> Option<f64> {
    run.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn detail<'a>(run: &'a Value, name: &str) -> Option<&'a str> {
    run.get("details")?.get(name)?.as_str()
}

/// One (metric, workload) row.
pub struct Row {
    pub median_a: f64,
    pub median_b: f64,
    /// The wider of the two sets' interquartile distances, as a share of
    /// the set's median.
    pub spread: f64,
    /// Pairs of runs of one seed that `b` won, and pairs that did not tie.
    pub pairs_won: usize,
    pub pairs_decided: usize,
    pub verdict: Verdict,
}

/// Judges one row from the two sets' `(seed, value)` runs. `b` reads
/// better only if it wins nine tenths of the pairs of one seed (every
/// cross pair, when no seed is shared) and its median is better by more
/// than the baseline's own spread.
pub fn judge(a: &[(i64, f64)], b: &[(i64, f64)], bound: &Bound) -> Option<Row> {
    let values = |set: &[(i64, f64)]| -> Vec<f64> { set.iter().map(|r| r.1).collect() };
    let (va, vb) = (values(a), values(b));
    let (median_a, median_b) = (median(&va)?, median(&vb)?);
    // Positive when `b` is worse.
    let sign = if bound.lower_is_better { 1.0 } else { -1.0 };
    let worse_by = sign * (median_b - median_a) / median_a.abs().max(f64::MIN_POSITIVE);
    let spread_a = relative_spread(&va).unwrap_or(0.0);
    let spread = spread_a.max(relative_spread(&vb).unwrap_or(0.0));

    // The k-th run of a seed in `a` pairs with the k-th in `b`.
    let mut by_seed: BTreeMap<i64, Vec<f64>> = BTreeMap::new();
    for (seed, v) in b.iter().rev() {
        by_seed.entry(*seed).or_default().push(*v);
    }
    let mut pairs: Vec<(f64, f64)> = a
        .iter()
        .filter_map(|(seed, x)| Some((*x, by_seed.get_mut(seed)?.pop()?)))
        .collect();
    if pairs.is_empty() {
        pairs = va
            .iter()
            .flat_map(|&x| vb.iter().map(move |&y| (x, y)))
            .collect();
    }
    let pairs_won = pairs.iter().filter(|(x, y)| sign * (y - x) < 0.0).count();
    let pairs_decided = pairs.iter().filter(|(x, y)| sign * (y - x) != 0.0).count();

    let wins = pairs_decided > 0 && pairs_won * 10 >= pairs_decided * 9;
    let verdict = if wins && worse_by < -spread_a {
        Verdict::Better
    } else if spread > bound.bound {
        Verdict::Unresolved
    } else if worse_by > bound.bound {
        Verdict::Regressed
    } else {
        Verdict::WithinBound
    };
    Some(Row {
        median_a,
        median_b,
        spread,
        pairs_won,
        pairs_decided,
        verdict,
    })
}

/// Frames at the end of a time-bounded run's truth list that two runs of
/// one seed need not agree on (the slots in flight when the clock ran
/// out).
const PREFIX_SLACK: usize = 4;

/// Exact results of runs sharing a (workload, seed, traced) key must be
/// identical. Returns the rows that are not.
pub fn exact_rows(a: &[Value], b: &[Value]) -> Vec<String> {
    let key = |r: &Value| (workload(r).to_string(), seed(r));
    let mut firsts: BTreeMap<(String, i64), &Value> = BTreeMap::new();
    for r in a {
        firsts.entry(key(r)).or_insert(r);
    }
    let mut differing = Vec::new();
    let mut seen = 0;
    for r in b {
        let Some(first) = firsts.get(&key(r)) else {
            continue;
        };
        seen += 1;
        let (w, seed) = key(r);
        if let (Some(x), Some(y)) = (detail(first, "city.digest"), detail(r, "city.digest")) {
            if x != y {
                differing.push(format!("{w} seed {seed}: city.digest {x} vs {y}"));
            }
        }
        if let (Some(x), Some(y)) = (detail(first, "delivered_set"), detail(r, "delivered_set")) {
            if !same_delivered_set(x, y, PREFIX_SLACK) {
                differing.push(format!("{w} seed {seed}: delivered sets differ"));
            }
        }
    }
    println!(
        "exact results: {seen} run pairs of one (workload, seed), {} differing",
        differing.len()
    );
    differing
}

/// Prints the table; `Ok(true)` when no row regressed or differs.
pub fn compare(a: &Path, b: &Path, spec: &Path) -> Result<bool, String> {
    let bounds = read_bounds(spec)?;
    let (runs_a, runs_b) = (read_runs(a)?, read_runs(b)?);
    let mut workloads: Vec<&str> = runs_a.iter().map(workload).collect();
    workloads.sort_unstable();
    workloads.dedup();
    println!(
        "{:<22} {:<11} {:>12} {:>12} {:>8} {:>7} {:>7} {:>9} verdict",
        "metric", "workload", "a median", "b median", "change", "spread", "bound", "b won"
    );
    let mut clean = true;
    for bound in &bounds {
        for w in &workloads {
            let values = |runs: &[Value]| -> Vec<(i64, f64)> {
                runs.iter()
                    .filter(|r| untraced(r) && workload(r) == *w)
                    .filter_map(|r| Some((seed(r), metric(r, &bound.name)?)))
                    .collect()
            };
            let Some(row) = judge(&values(&runs_a), &values(&runs_b), bound) else {
                continue;
            };
            clean &= row.verdict != Verdict::Regressed;
            println!(
                "{:<22} {:<11} {:>12.4} {:>12.4} {:>+7.1}% {:>6.1}% {:>6.1}% {:>4}/{:<4} {}",
                bound.name,
                w,
                row.median_a,
                row.median_b,
                100.0 * (row.median_b - row.median_a) / row.median_a.abs().max(f64::MIN_POSITIVE),
                100.0 * row.spread,
                100.0 * bound.bound,
                row.pairs_won,
                row.pairs_decided,
                row.verdict.label(),
            );
        }
    }
    let differing = exact_rows(&runs_a, &runs_b);
    for row in &differing {
        println!("DIFFERENT: {row}");
    }
    Ok(clean && differing.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound {
            name: "latency_p50_ms".to_string(),
            lower_is_better: true,
            bound,
        }
    }

    /// Runs of seeds 0, 1, 2, … with these values.
    fn runs(values: &[f64]) -> Vec<(i64, f64)> {
        (0..).zip(values.iter().copied()).collect()
    }

    fn verdict(a: &[f64], b: &[f64], bound: &Bound) -> Verdict {
        judge(&runs(a), &runs(b), bound).unwrap().verdict
    }

    #[test]
    fn rows_read_better_within_regressed_unresolved() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(verdict(&a, &a, &lower(0.1)), Verdict::WithinBound);
        let slower: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        assert_eq!(verdict(&a, &slower, &lower(0.1)), Verdict::Regressed);
        let faster: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        assert_eq!(verdict(&a, &faster, &lower(0.1)), Verdict::Better);
        let noisy = [60.0, 140.0, 100.0, 80.0, 120.0];
        assert_eq!(verdict(&noisy, &noisy, &lower(0.1)), Verdict::Unresolved);
        // Higher-is-better metrics flip the sign.
        let higher = Bound {
            name: "rtf".to_string(),
            lower_is_better: false,
            bound: 0.1,
        };
        assert_eq!(verdict(&a, &slower, &higher), Verdict::Better);
        assert_eq!(verdict(&a, &faster, &higher), Verdict::Regressed);
    }

    #[test]
    fn a_gain_must_win_nine_pairs_in_ten_of_one_seed() {
        let a = [
            100.0, 110.0, 120.0, 130.0, 140.0, 105.0, 115.0, 125.0, 135.0, 145.0,
        ];
        let all_faster: Vec<f64> = a.iter().map(|x| x * 0.5).collect();
        let row = judge(&runs(&a), &runs(&all_faster), &lower(0.25)).unwrap();
        assert_eq!((row.pairs_won, row.pairs_decided), (10, 10));
        assert_eq!(row.verdict, Verdict::Better);
        let mut mostly = all_faster.clone();
        mostly[0] = 400.0;
        mostly[1] = 400.0;
        let row = judge(&runs(&a), &runs(&mostly), &lower(0.25)).unwrap();
        assert_eq!((row.pairs_won, row.pairs_decided), (8, 10));
        assert_ne!(row.verdict, Verdict::Better);
    }

    #[test]
    fn the_spec_names_exactly_the_metrics_and_workloads_the_code_emits() {
        let spec = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(&spec).unwrap()).unwrap();
        let names = |list: &str| -> Vec<(String, String)> {
            doc.get(list)
                .and_then(Value::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), table(&crate::report::END_TO_END));
        assert_eq!(names("per_layer"), table(&crate::report::PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap().to_string())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
        assert_eq!(read_bounds(&spec).unwrap().len(), names("end_to_end").len());
    }
}
