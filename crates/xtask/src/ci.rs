//! `cargo xtask ci` — the repository's three merge gates as one tested binary.
//!
//! * `cargo xtask ci model-check` — run the schedule-exploring
//!   concurrency suites (`choir-sync` smoke plus the pool / trace /
//!   profile invariants) under `--cfg choir_model`; they compile to
//!   nothing in a plain `cargo test`, so this gate is their only executor.
//! * `cargo xtask ci perf <base-rev>` — the one judge of timing, and the
//!   only consumer of `spine/` output. Checks `<base-rev>` out into a
//!   `git worktree` under `target/perf/`, builds `spine/` in both trees
//!   with the flags `BENCHMARK.json`'s command uses, runs [`PAIRS`]
//!   untraced pairs of every [`LEGS`] entry (one seed, alternating which
//!   side goes first, [`SECONDS`] each) and reads `spine compare`'s
//!   table: a REGRESSED row or a differing city digest fails,
//!   "unresolved" passes. A differing delivered set is what a declared
//!   decision change looks like, so it is judged here, pair by pair, on
//!   the frames both runs transmitted ([`delivered_moves`]): the change
//!   must deliver at least as many as the base — or, when it carries
//!   another [`GOLDENS`] file than the base's, lose no more than McNemar's
//!   rule allows ([`DeliveryRule`]). Then a traced run of either side on two
//!   workloads: the change's must hold tracing to [`TRACE_OVERHEAD_LIMIT`]
//!   and spend no more than [`DETECT_COST_SLACK`] over the base's on
//!   detection and ingest a unit of input ([`detect_cost`]), and the pair
//!   prints as a stage table ([`stage_table`]) — read, not gated.
//! * `cargo xtask ci drift <base-rev>` — the judge of floats. The same
//!   worktree, under `target/drift/`: runs `trace_dump` and `figures --
//!   all --json` in both trees and walks each pair of outputs in lockstep
//!   ([`crate::drift`]). Anything that is not a float must match byte for
//!   byte (record kinds and order, `evals`, symbols, CRC verdicts,
//!   digests); a position may drift by 1e-12 relative, a residual, a
//!   magnitude or a figure leaf by 1e-9. A change whose tree carries
//!   another [`GOLDENS`] file than the base's has declared a decision
//!   change (DESIGN §13): all of that is then reported, not failed on,
//!   and what is held is [`crate::drift::decision_change`] — the CRC
//!   count of the traced slot not lower, the `city` and `station`
//!   figures identical but for the leaves an IQ decode reaches (the city's
//!   escalation probe, the station's metrics note), which are reported.
//!
//! Everything deterministic — bit-identity across threads and backends,
//! shed accounting, streamed ≡ batch, the city-scale rows —
//! is a `cargo test`; no gate compares against another host's numbers.

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage: cargo xtask ci <model-check | perf <base-rev> | drift <base-rev>>
  model-check      run every schedule-explored concurrency suite under --cfg choir_model
  perf <base-rev>  spine pairs of <base-rev> and this tree: no REGRESSED row, identical city
                   digests, no pair delivering fewer frames than the base's run of it (under a
                   declared decision change: none losing more than McNemar's rule allows), tracing
                   and detection inside their budgets
  drift <base-rev> trace_dump and figures --json of <base-rev> and this tree: nothing but floats
                   may differ, positions by 1e-12, values by 1e-9, and no search's output alone —
                   unless a golden transcript differs too (a declared decision change): then the
                   traced slot's CRC count may not fall and the city/station figures may not move
                   but for their IQ-decoded leaves";

/// Entry point for `cargo xtask ci <gate>`.
pub fn run(args: &[String]) -> ExitCode {
    let verdict = match args {
        [gate] if gate == "model-check" => model_check(),
        [gate, base_rev] if gate == "perf" => against_base(base_rev, "perf", measure),
        [gate, base_rev] if gate == "drift" => against_base(base_rev, "drift", drift),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match verdict {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ci: FAIL: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs `cmd` to completion on this process's stdio.
fn run_cmd(cmd: &mut Command) -> Result<(), String> {
    match cmd.status() {
        Ok(status) if status.success() => Ok(()),
        Ok(status) => Err(format!("{cmd:?} exited with {status}")),
        Err(e) => Err(format!("could not launch {cmd:?}: {e}")),
    }
}

/// The model-checked concurrency suites: (package, test target). Each
/// compiles to a no-op without `--cfg choir_model`, so they need their
/// own gate — plain `cargo test` never exercises them.
const MODEL_SUITES: [(&str, &str); 5] = [
    ("choir-sync", "model_smoke"),
    ("choir-pool", "model"),
    ("choir-trace", "model"),
    ("choir-dsp", "model"),
    ("choir-core", "model"),
];

/// Appends `--cfg choir_model` to an inherited `RUSTFLAGS` value
/// (idempotent, preserves existing flags).
fn with_model_cfg(rustflags: &str) -> String {
    if rustflags.contains("--cfg choir_model") {
        return rustflags.to_string();
    }
    let flags = format!("{rustflags} --cfg choir_model");
    flags.trim_start().to_string()
}

fn model_check() -> Result<(), String> {
    let root = crate::workspace_root();
    let rustflags = with_model_cfg(&std::env::var("RUSTFLAGS").unwrap_or_default());
    for (pkg, test) in MODEL_SUITES {
        println!("ci: model-check {pkg} --test {test}");
        let mut cargo = Command::new("cargo");
        cargo.args(["test", "-p", pkg, "--test", test]);
        run_cmd(cargo.env("RUSTFLAGS", &rustflags).current_dir(&root))?;
    }
    println!("ci: model-check gate passed — all schedule-explored suites green");
    Ok(())
}

/// (base, change) pairs per leg — the fewest that give `spine compare` a
/// median and a spread. With [`SECONDS`], ≈ 4 min of runs: CI's `spine` job
/// (two cold spine builds, tests, `run --all`, this) ends inside 15 min.
const PAIRS: usize = 3;
/// Measuring seconds of each untraced run (`dense_5u` gets ≈ 5 batch calls).
const SECONDS: &str = "5";
/// Measuring seconds of each traced run: `paced_mix` fits ≈ 14
/// off/on/on/off quads in 40 s. A single quad reads −0.09 … +0.15 at
/// today's decode speed, so `trace.overhead_frac` needs that many for its
/// median to sit inside the 0.05 limit's margin; seven did not always.
const TRACED_SECONDS: &str = "40";
/// Every run's seed. One seed, not one per pair: at these lengths the
/// draw moves `rtf` by ±10 % and the latency median by ±25 % while two
/// runs of one seed agree within 3 %, so only repeats of one seed leave
/// the spread under `BENCHMARK.json`'s bounds — and a spread over the
/// bound reads "unresolved", which passes. (424242 is held out.)
const SEED: &str = "1";

/// What is paired: (workload, `CHOIR_DSP_BACKEND`). Every `BENCHMARK.json`
/// workload on the host's backend, plus `slotted_2u` on the scalar oracle:
/// a SIMD gain may not be bought by slowing the path every other host runs.
const LEGS: [(&str, Option<&str>); 5] = [
    ("slotted_2u", None),
    ("paced_mix", None),
    ("dense_5u", None),
    ("city_1m", None),
    ("slotted_2u", Some("scalar")),
];

/// Ceiling on `trace.overhead_frac`: `Outcome`-level tracing must stay
/// cheap enough to leave on.
const TRACE_OVERHEAD_LIMIT: f64 = 0.05;
/// How much more the change's traced run may spend on detection and
/// ingest a unit of input than the base's ([`detect_cost`]): what the
/// free-running tracker and the ring may cost. Held against the input,
/// not the busy time — a share of busy time rises with every decode gain.
const DETECT_COST_SLACK: f64 = 0.10;

/// Samples a second of air: the workloads' 125 kHz channel, one sample a
/// chip.
const SAMPLES_PER_AIR_SECOND: f64 = 125e3;

/// `cargo <verb>` on `tree`'s spine with `BENCHMARK.json`'s flags.
fn spine(tree: &Path, verb: &str) -> Command {
    let mut cmd = Command::new("cargo");
    cmd.args([verb, "--release", "--offline", "--quiet"])
        .args(["--manifest-path", "spine/Cargo.toml"])
        .current_dir(tree);
    cmd
}

/// One run of `tree`'s spine, its record appended under `set`.
fn spine_run(tree: &Path, workload: &str, trace: &str, seconds: &str, set: &Path) -> Command {
    let mut cmd = spine(tree, "run");
    cmd.args(["--", "--workload", workload, "--seed", SEED])
        .args(["--seconds", seconds, "--trace", trace, "--out"])
        .arg(set);
    cmd
}

fn git_worktree(root: &Path, args: &[&str]) -> Command {
    let mut cmd = Command::new("git");
    cmd.arg("worktree").args(args).current_dir(root);
    cmd
}

/// Runs `gate(root, base, out)` with `<base-rev>` checked out as a
/// detached `git worktree` at `base = target/<dir>/base-tree` and
/// `out = target/<dir>` emptied first; the worktree is removed whatever
/// the verdict.
fn against_base(
    base_rev: &str,
    dir: &str,
    gate: fn(&Path, &Path, &Path) -> Result<(), String>,
) -> Result<(), String> {
    let root = crate::workspace_root();
    let out = root.join("target").join(dir);
    let _ = std::fs::remove_dir_all(&out);
    // A tree a killed run left behind is off the disk now; unregister it.
    run_cmd(&mut git_worktree(&root, &["prune"]))?;
    let base = out.join("base-tree");
    let mut add = git_worktree(&root, &["add", "--detach"]);
    run_cmd(add.arg(&base).arg(base_rev))?;
    let verdict = gate(&root, &base, &out);
    // `--force`: building spine there rewrote its `spine/Cargo.lock`.
    let mut remove = git_worktree(&root, &["remove", "--force"]);
    verdict.and(run_cmd(remove.arg(&base)))
}

/// A comparison of one artefact's two texts, base then head.
type Compare = fn(&mut crate::drift::Report, &str, &str);

/// The two artefacts `drift` compares: (file it is kept as under
/// `target/drift/<side>/`, testbed binary, its arguments, the walk).
const DRIFT_ARTEFACTS: [(&str, &str, &[&str], Compare); 2] = [
    (
        "trace.jsonl",
        "trace_dump",
        &[],
        crate::drift::Report::trace,
    ),
    (
        "fig.json",
        "figures",
        &["all", "--json"],
        crate::drift::Report::figures,
    ),
];

/// The golden transcripts, `cargo test`'s pins of every decoded float.
/// A change regenerates one only to declare that a decision moved.
const GOLDENS: [&str; 2] = [
    "crates/choir-core/tests/golden_seeded.txt",
    "crates/choir-station/tests/async_golden.txt",
];

/// The first of [`GOLDENS`] that differs between the base tree and this
/// one: the change has declared that a decision moved (DESIGN §13).
fn declared_change(root: &Path, base: &Path) -> Option<&'static str> {
    GOLDENS
        .into_iter()
        .find(|g| std::fs::read(base.join(g)).ok() != std::fs::read(root.join(g)).ok())
}

/// Runs each of [`DRIFT_ARTEFACTS`] in both trees (`trace_dump` checks
/// itself and exits non-zero if the decode lost its provenance) and
/// walks the two outputs side by side.
fn drift(root: &Path, base: &Path, out: &Path) -> Result<(), String> {
    let mut report = crate::drift::Report::default();
    let mut texts = Vec::new();
    for (file, bin, args, compare) in DRIFT_ARTEFACTS {
        let produce = |side: &str, tree: &Path| -> Result<String, String> {
            println!("ci: drift {side} {bin}");
            let dir = out.join(side);
            std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
            let path = dir.join(file);
            let sink = std::fs::File::create(&path).map_err(|e| e.to_string())?;
            let mut cmd = Command::new("cargo");
            cmd.args(["run", "--release", "--quiet", "-p", "choir-testbed"])
                .args(["--bin", bin, "--"])
                .args(args)
                .current_dir(tree)
                .stdout(sink);
            run_cmd(&mut cmd)?;
            std::fs::read_to_string(&path).map_err(|e| e.to_string())
        };
        let (b, h) = (produce("base", base)?, produce("head", root)?);
        compare(&mut report, &b, &h);
        texts.push((b, h));
    }
    match declared_change(root, base) {
        None => report.verdict()?,
        Some(golden) => {
            println!("ci: drift: decision change declared by {golden}");
            report.print_moved();
            for difference in &report.failures {
                println!("ci: drift: reported: {difference}");
            }
            let [(trace_b, trace_h), (fig_b, fig_h)] = &texts[..] else {
                return Err("drift: expected a trace pair and a figure pair".to_string());
            };
            let held = crate::drift::decision_change(trace_b, trace_h, fig_b, fig_h);
            if !held.is_empty() {
                return Err(held.join("\nci: FAIL: "));
            }
        }
    }
    println!("ci: drift gate passed");
    Ok(())
}

fn measure(root: &Path, base: &Path, out: &Path) -> Result<(), String> {
    let sides = [("base", base), ("head", root)];
    let rule = match declared_change(root, base) {
        Some(golden) => {
            println!("ci: perf: decision change declared by {golden}: delivered sets judged by McNemar's rule");
            DeliveryRule::McNemar
        }
        None => DeliveryRule::Count,
    };
    // Both builds first: a run is never timed on a core a compile just heated.
    for (_, tree) in sides {
        run_cmd(&mut spine(tree, "build"))?;
    }
    let set = |side, backend: Option<&str>| out.join([side, backend.unwrap_or("auto")].join("-"));
    for pair in 0..PAIRS {
        for (workload, backend) in LEGS {
            // Alternate which side runs first: drift inside a pair favours neither.
            for (side, tree) in [sides[pair % 2], sides[(pair + 1) % 2]] {
                println!("ci: perf pair {pair} {workload} {backend:?} {side}");
                let mut run = spine_run(tree, workload, "0", SECONDS, &set(side, backend));
                run_cmd(run.envs(backend.map(|name| ("CHOIR_DSP_BACKEND", name))))?;
            }
        }
    }
    let mut failures = Vec::new();
    for backend in [None, Some("scalar")] {
        println!("ci: perf compare, CHOIR_DSP_BACKEND {backend:?}");
        let mut compare = spine(root, "run");
        compare.args(["--", "compare"]);
        compare.args([set("base", backend), set("head", backend)]);
        let table = compare
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("could not launch {compare:?}: {e}"))?;
        let table = String::from_utf8_lossy(&table.stdout).into_owned();
        print!("{table}");
        failures.extend(compare_failures(&table));
        let runs = |side| {
            std::fs::read_to_string(set(side, backend).join("runs.jsonl"))
                .map_err(|e| format!("{side} runs.jsonl: {e}"))
        };
        failures.extend(delivered_failures(&runs("base")?, &runs("head")?, rule));
    }
    for (workload, per) in TRACED_LEGS {
        let mut records = Vec::new();
        for (side, tree) in sides {
            let set = out.join(format!("traced-{side}"));
            run_cmd(&mut spine_run(tree, workload, "1", TRACED_SECONDS, &set))?;
            let runs =
                std::fs::read_to_string(set.join("runs.jsonl")).map_err(|e| e.to_string())?;
            records.push(runs.lines().last().unwrap_or_default().to_string());
        }
        failures.extend(traced_failures(workload, &records[0], &records[1]));
        for row in stage_table(workload, per, &records[0], &records[1]) {
            println!("{row}");
        }
    }
    if failures.is_empty() {
        println!("ci: perf gate passed");
        Ok(())
    } else {
        Err(failures.join("\nci: FAIL: "))
    }
}

/// What of `spine compare`'s table fails the gate: a REGRESSED row, a
/// differing exact result other than the delivered set (a city digest),
/// or no table at all. "delivered sets differ" is
/// [`delivered_failures`]' to judge.
fn compare_failures(table: &str) -> Vec<String> {
    if !table.contains("exact results:") {
        return vec!["spine compare printed no verdict".to_string()];
    }
    table
        .lines()
        .filter(|l| {
            l.ends_with("REGRESSED")
                || (l.starts_with("DIFFERENT:") && !l.ends_with("delivered sets differ"))
        })
        .map(|l| l.split_whitespace().collect::<Vec<_>>().join(" "))
        .collect()
}

/// Frames at the end of the shorter of two delivered sets that are not
/// compared — `spine compare`'s own slack: the slots in flight when a
/// time-bounded run stopped are decoded from a truncated capture.
const PREFIX_SLACK: usize = 4;

/// Frames the two runs of one seed disagree on, over the frames both
/// transmitted: (delivered by the base only, by the head only).
fn delivered_moves(base: &str, head: &str) -> (usize, usize) {
    let common = base.len().min(head.len()).saturating_sub(PREFIX_SLACK);
    let pairs = base.bytes().zip(head.bytes()).take(common);
    pairs.fold((0, 0), |(lost, gained), (b, h)| {
        (
            lost + usize::from(b == b'1' && h != b'1'),
            gained + usize::from(b != b'1' && h == b'1'),
        )
    })
}

/// How a pair's frames of the common prefix are judged.
#[derive(Clone, Copy, Debug, PartialEq)]
enum DeliveryRule {
    /// No decision declared moved: the head may deliver no fewer frames
    /// than its base.
    Count,
    /// A declared decision change churns the delivered set both ways, and
    /// a count on a 5 s pair is a coin flip: McNemar's rule on the
    /// discordant frames. Under "nothing changed" each of the `lost +
    /// gained` frames falls either way with even odds, so the pair fails
    /// iff `lost − gained > 2·√(lost + gained)` — two standard deviations.
    McNemar,
}

impl DeliveryRule {
    fn fails(self, lost: usize, gained: usize) -> bool {
        match self {
            DeliveryRule::Count => gained < lost,
            DeliveryRule::McNemar => {
                lost as f64 - gained as f64 > 2.0 * ((lost + gained) as f64).sqrt()
            }
        }
    }
}

/// Pairs the two run sets' records (the `i`-th run of a workload on
/// either side is pair `i`), prints what each pair lost and gained and
/// each side's false accepts, and fails a pair whose moves on the common
/// prefix `rule` rejects — and a workload whose head runs false-accept
/// more frames, summed over its pairs, than its base runs did. (Each run
/// counts its own false accepts over however far into the stream it got,
/// so one pair says little; a pair a record of which has no count enters
/// neither sum.)
fn delivered_failures(base_runs: &str, head_runs: &str, rule: DeliveryRule) -> Vec<String> {
    let mut failures = Vec::new();
    let mut nth = std::collections::BTreeMap::new();
    let mut accepts = std::collections::BTreeMap::new();
    for head in head_runs.lines() {
        let (Some(workload), Some(set)) = (detail(head, "workload"), detail(head, "delivered_set"))
        else {
            continue;
        };
        let pair = nth.entry(workload).or_insert(0usize);
        let base_record = base_runs
            .lines()
            .filter(|r| detail(r, "workload") == Some(workload))
            .nth(*pair);
        let Some((base_record, base)) =
            base_record.and_then(|r| Some((r, detail(r, "delivered_set")?)))
        else {
            failures.push(format!(
                "{workload} pair {pair}: no base run to hold it against"
            ));
            continue;
        };
        let (lost, gained) = delivered_moves(base, set);
        println!(
            "{}",
            pair_line(workload, *pair, (lost, gained), base_record, head)
        );
        if rule.fails(lost, gained) {
            failures.push(format!(
                "{workload} pair {pair}: delivers {} fewer frames of the common prefix \
                 (lost {lost}, gained {gained}; {rule:?} rule)",
                lost - gained
            ));
        }
        if let (Some(b), Some(h)) = (false_accepts(base_record), false_accepts(head)) {
            let sums: &mut (u64, u64) = accepts.entry(workload).or_default();
            *sums = (sums.0 + b, sums.1 + h);
        }
        *pair += 1;
    }
    for (workload, (base, head)) in accepts {
        if head > base {
            failures.push(format!(
                "{workload}: the head's pairs false-accept {head} frames, the base's {base}"
            ));
        }
    }
    failures
}

/// A run record's `oracle.false_accepts` count, as its `details` spell it.
fn false_accepts(record: &str) -> Option<u64> {
    detail(record, "false_accepts")?.parse().ok()
}

/// The line a delivered pair prints: its moves on the common prefix and
/// each side's false accepts (`-` where a record has none).
fn pair_line(
    workload: &str,
    pair: usize,
    (lost, gained): (usize, usize),
    base: &str,
    head: &str,
) -> String {
    let false_accepts = |r| detail(r, "false_accepts").unwrap_or("-");
    format!(
        "ci: perf delivered {workload} pair {pair}: lost {lost}, gained {gained}, \
         false_accepts {} -> {}",
        false_accepts(base),
        false_accepts(head)
    )
}

/// A traced record's detection and ingest seconds
/// (`core.profile.detect_s + ingest_s`, billed in its traced passes) over
/// the input those passes streamed, and that input's unit. Where the
/// record states its air — `paced_mix`: `air_seconds` of the whole
/// stream once, then two traced passes over `quad_air_seconds` of its
/// head in each of `quads` quads — the cost is seconds an air second,
/// i.e. proportional to the samples ingested. A record that does not
/// (`slotted_2u`'s quads) is held against `station.slots_seen`: its slots
/// are one capture length and a fixed cycle of gaps apart.
fn detect_cost(record: &str) -> Result<(f64, &'static str), String> {
    let read = |key| metric(record, key).ok_or(format!("traced record has no {key}"));
    let seconds = read("core.profile.detect_s")? + read("core.profile.ingest_s")?;
    let number = |key| detail(record, key).and_then(|v| v.parse::<f64>().ok());
    match (
        number("air_seconds"),
        number("quads"),
        number("quad_air_seconds"),
    ) {
        (Some(air), Some(quads), Some(quad_air)) => {
            Ok((seconds / (air + 2.0 * quads * quad_air), "air second"))
        }
        _ => Ok((seconds / read("station.slots_seen")?, "slot")),
    }
}

/// The two budgets the head's traced run record of `workload` must meet:
/// [`TRACE_OVERHEAD_LIMIT`] on its own, and [`detect_cost`] within
/// [`DETECT_COST_SLACK`] of the base's.
fn traced_failures(workload: &str, base: &str, head: &str) -> Vec<String> {
    let read = || {
        let overhead = metric(head, "trace.overhead_frac")
            .ok_or("traced record has no trace.overhead_frac".to_string())?;
        Ok::<_, String>((overhead, detect_cost(base)?, detect_cost(head)?))
    };
    let (overhead, (base_cost, unit), (head_cost, _)) = match read() {
        Ok(r) => r,
        Err(e) => return vec![format!("{workload}: {e}")],
    };
    let ratio = head_cost / base_cost;
    let per_sample = |cost: f64| match unit {
        "air second" => format!(" ({:.1} ns a sample)", 1e9 * cost / SAMPLES_PER_AIR_SECOND),
        _ => String::new(),
    };
    println!(
        "ci: perf traced {workload}: trace.overhead_frac {overhead:+.4} (limit {TRACE_OVERHEAD_LIMIT}), \
         detect+ingest {:.3} ms per {unit}{} -> {:.3}{}, {:+.1} % (limit +{:.0} %)",
        1e3 * base_cost,
        per_sample(base_cost),
        1e3 * head_cost,
        per_sample(head_cost),
        100.0 * (ratio - 1.0),
        100.0 * DETECT_COST_SLACK
    );
    let mut failures = Vec::new();
    // A value that is not a number (nothing billed, no input) fails
    // instead of passing.
    if overhead.is_nan() || overhead >= TRACE_OVERHEAD_LIMIT {
        failures.push(format!(
            "{workload}: tracing costs {overhead:.4} of busy time"
        ));
    }
    if ratio.is_nan() || ratio > 1.0 + DETECT_COST_SLACK {
        failures.push(format!(
            "{workload}: detection and ingest cost {:+.1} % per {unit} over the base's",
            100.0 * (ratio - 1.0)
        ));
    }
    failures
}

/// The stages a traced run bills (`core.profile.*_s`, whole-run seconds).
const STAGES: [&str; 7] = [
    "dechirp", "refine", "demod", "sic", "cluster", "ingest", "detect",
];
/// The transform rows a traced run times per call.
const FFT_ROWS: [&str; 2] = ["dsp.fft.forward_256_us", "dsp.fft.forward_padded_us"];

/// What a traced run's whole-run stage seconds are divided by to compare
/// two sides: (metric, the unit the quotient prints in, its scale).
type Per = (&'static str, &'static str, f64);
/// Milliseconds a decoded slot — for a workload whose traced passes are
/// all counted in `station.slots_decoded`. A traced run is time-bounded,
/// so its raw stage seconds grow with the slots it gets through.
const PER_SLOT: Per = ("station.slots_decoded", "ms/slot", 1e3);
/// Percent of busy time — for `paced_mix`, whose record counts the slots
/// of one pass of the stream while the stage seconds also cover the
/// tracing quads' replays of its head, as many as fitted.
const OF_BUSY: Per = ("trace.busy_s", "% busy", 1e2);

/// The traced legs: (workload, how its stage table is normalised).
const TRACED_LEGS: [(&str, Per); 2] = [("slotted_2u", PER_SLOT), ("paced_mix", OF_BUSY)];

/// The stage table of one workload's traced pair, base beside head: each
/// `core.profile.<stage>_s` over `per`'s metric, then the `dsp.fft.*`
/// rows as timed. A key a record lacks reads `-`.
fn stage_table(workload: &str, per: Per, base: &str, head: &str) -> Vec<String> {
    let (divisor, unit, scale) = per;
    let share = |record: &str, stage: &str| {
        let seconds = metric(record, &format!("core.profile.{stage}_s"))?;
        let over = metric(record, divisor).filter(|&d| d > 0.0)?;
        Some(scale * seconds / over)
    };
    let cell = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.3}"));
    let row = |name: &str, b: Option<f64>, h: Option<f64>| {
        let change = match (b, h) {
            (Some(b), Some(h)) if b > 0.0 => format!("{:+.1} %", 100.0 * (h / b - 1.0)),
            _ => "-".to_string(),
        };
        format!(
            "ci: perf traced {workload}: {name:<32} {:>9} {:>9} {change:>9}",
            cell(b),
            cell(h)
        )
    };
    let mut rows = vec![format!(
        "ci: perf traced {workload}: {:<32} {:>9} {:>9} {:>9}",
        "", "base", "head", "change"
    )];
    for stage in STAGES {
        let name = format!("core.profile.{stage} {unit}");
        rows.push(row(&name, share(base, stage), share(head, stage)));
    }
    for key in FFT_ROWS {
        rows.push(row(key, metric(base, key), metric(head, key)));
    }
    rows
}

/// The value of metric `key` in a spine run record, which spells every
/// metric `"<key>": {"value": <number>, "unit": …}`. The workspace has no
/// serde, and a quoted key with this exact tail occurs once.
fn metric(record: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\": {{\"value\": ");
    let rest = &record[record.find(&needle)? + needle.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// The string under `"key": "…"` in a spine run record (`workload`,
/// every entry of `details`).
fn detail<'a>(record: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\": \"");
    let rest = &record[record.find(&needle)? + needle.len()..];
    Some(&rest[..rest.find('"')?])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A traced `paced_mix` run record in the shape `spine` writes, cut to
    /// the keys the gate reads plus a neighbour sharing a prefix with one
    /// of them: `quads` quads over the whole 10 s stream.
    fn record(overhead: f64, detect_s: f64, busy_s: f64, quads: u32) -> String {
        format!(
            "{{\"workload\": \"paced_mix\", \"trace\": 1, \"metrics\": {{\
             \"core.profile.ingest_s\": {{\"value\": 0.01, \"unit\": \"s\"}}, \
             \"core.profile.detect_s\": {{\"value\": {detect_s}, \"unit\": \"s\"}}, \
             \"trace.overhead_frac\": {{\"value\": {overhead}, \"unit\": \"ratio\"}}, \
             \"trace.busy_seconds\": {{\"value\": 99, \"unit\": \"s\"}}, \
             \"trace.busy_s\": {{\"value\": {busy_s}, \"unit\": \"s\"}}}}, \"details\": {{\
             \"air_seconds\": \"10.000\", \"quad_air_seconds\": \"10.000\", \"quads\": \"{quads}\"}}, \
             \"faults\": []}}"
        )
    }

    /// A traced `slotted_2u` run record: no air stated, `slots` seen.
    fn slotted_record(detect_s: f64, slots: u32) -> String {
        format!(
            "{{\"workload\": \"slotted_2u\", \"metrics\": {{\
             \"core.profile.ingest_s\": {{\"value\": 0.03, \"unit\": \"s\"}}, \
             \"core.profile.detect_s\": {{\"value\": {detect_s}, \"unit\": \"s\"}}, \
             \"station.slots_seen\": {{\"value\": {slots}, \"unit\": \"count\"}}, \
             \"trace.overhead_frac\": {{\"value\": 0.001, \"unit\": \"ratio\"}}}}, \
             \"details\": {{\"quads\": \"47\"}}}}"
        )
    }

    #[test]
    fn metric_scanner_reads_exact_keys_only() {
        let r = record(-0.0115, 0.02, 3.45, 5);
        assert_eq!(metric(&r, "trace.overhead_frac"), Some(-0.0115));
        assert_eq!(metric(&r, "trace.busy_s"), Some(3.45));
        assert_eq!(metric(&r, "core.profile.detect_s"), Some(0.02));
        assert_eq!(metric(&r, "trace.busy"), None);
        assert_eq!(metric(&r, "workload"), None);
    }

    #[test]
    fn detection_cost_is_held_against_the_air_or_the_slots_streamed() {
        // (0.2 + 0.01) s over 10 s of stream and five quads' two traced
        // passes over it: 110 air seconds.
        let (cost, unit) = detect_cost(&record(0.0, 0.2, 3.0, 5)).expect("cost");
        assert_eq!(unit, "air second");
        assert!((cost - 0.21 / 110.0).abs() < 1e-15, "{cost}");
        let (cost, unit) = detect_cost(&slotted_record(0.002, 376)).expect("cost");
        assert_eq!(unit, "slot");
        assert!((cost - 0.032 / 376.0).abs() < 1e-15, "{cost}");
        let fails = traced_failures("paced_mix", &record(0.0, 0.2, 3.0, 5), "{\"metrics\": {}}");
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("has no"), "{fails:?}");
    }

    #[test]
    fn traced_gate_passes_a_decode_only_speedup() {
        // Negative overhead is measurement noise, not a failure.
        let base = record(0.001, 0.2, 3.0, 5);
        assert!(traced_failures("paced_mix", &base, &record(-0.006, 0.2, 3.0, 5)).is_empty());
        // The decode got faster and detection did not: the quads fit
        // twice the passes in the same busy time, detection's seconds grow
        // with the air they stream — 110 to 210 air seconds — and per air
        // second they hold, though their share of busy time rose from
        // 0.07 to 0.13.
        let faster = record(0.001, 0.21 * 210.0 / 110.0 - 0.01, 3.0, 10);
        assert!(traced_failures("paced_mix", &base, &faster).is_empty());
        // A little dearer, inside the slack.
        assert!(traced_failures("paced_mix", &base, &record(0.0, 0.215, 3.0, 5)).is_empty());
        let slotted = slotted_record(0.002, 376);
        assert!(traced_failures("slotted_2u", &slotted, &slotted_record(0.002, 500)).is_empty());
    }

    #[test]
    fn traced_gate_fails_a_detection_slowdown_and_each_budget() {
        let base = record(0.001, 0.2, 3.0, 5);
        let fails = traced_failures("slotted_2u", &base, &record(0.067, 0.2, 3.0, 5));
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("tracing costs"), "{fails:?}");
        // Detection 20 % slower: (1.2·0.2 + 0.01) / 0.21 = +19 %.
        let fails = traced_failures("paced_mix", &base, &record(0.0, 0.24, 3.0, 5));
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(
            fails[0].contains("detection and ingest cost +19.0 %"),
            "{fails:?}"
        );
        // The same on the slots: 20 % more a slot.
        let fails = traced_failures(
            "slotted_2u",
            &slotted_record(0.002, 376),
            &slotted_record(0.0084, 376),
        );
        assert_eq!(fails.len(), 1, "{fails:?}");
        // Nothing billed on either side: 0/0 is not a number and must
        // not pass.
        let nothing = record(0.0, -0.01, 3.0, 5);
        assert_eq!(traced_failures("paced_mix", &nothing, &nothing).len(), 1);
    }

    #[test]
    fn stage_table_divides_stage_seconds_by_what_the_leg_names() {
        let record = |slots: f64, busy_s: f64, dechirp_s: f64, padded_us: f64| {
            format!(
                "{{\"metrics\": {{\"station.slots_decoded\": {{\"value\": {slots}, \"unit\": \"count\"}}, \
                 \"core.profile.dechirp_s\": {{\"value\": {dechirp_s}, \"unit\": \"s\"}}, \
                 \"dsp.fft.forward_padded_us\": {{\"value\": {padded_us}, \"unit\": \"us\"}}, \
                 \"trace.busy_s\": {{\"value\": {busy_s}, \"unit\": \"s\"}}}}}}"
            )
        };
        // The head got through more slots in its traced run, so its raw seconds
        // are higher though each slot cost less.
        let (base, head) = (
            record(400.0, 8.0, 2.6, 133.0),
            record(500.0, 10.0, 2.2, 77.0),
        );
        let fields = |rows: &[String], needle: &str| -> Vec<String> {
            let row = rows.iter().find(|r| r.contains(needle)).expect(needle);
            let tail = &row[row.find(needle).expect(needle) + needle.len()..];
            tail.split_whitespace().map(str::to_string).collect()
        };
        let rows = stage_table("slotted_2u", PER_SLOT, &base, &head);
        assert_eq!(rows.len(), 1 + STAGES.len() + FFT_ROWS.len());
        // 2.6 s / 400 = 6.5 ms, 2.2 s / 500 = 4.4 ms.
        assert_eq!(
            fields(&rows, "core.profile.dechirp ms/slot"),
            ["6.500", "4.400", "-32.3", "%"]
        );
        assert_eq!(
            fields(&rows, "dsp.fft.forward_padded_us"),
            ["133.000", "77.000", "-42.1", "%"]
        );
        // A stage the records do not carry.
        assert_eq!(fields(&rows, "core.profile.sic ms/slot"), ["-", "-", "-"]);
        // 2.6 s of 8 = 32.5 %, 2.2 s of 10 = 22 %.
        let rows = stage_table("paced_mix", OF_BUSY, &base, &head);
        assert_eq!(
            fields(&rows, "core.profile.dechirp % busy"),
            ["32.500", "22.000", "-32.3", "%"]
        );
        // Nothing to divide by, and a record with nothing in it.
        let rows = stage_table("paced_mix", PER_SLOT, &record(0.0, 8.0, 2.6, 133.0), "{}");
        assert_eq!(
            fields(&rows, "core.profile.dechirp ms/slot"),
            ["-", "-", "-"]
        );
        assert_eq!(
            fields(&rows, "dsp.fft.forward_padded_us"),
            ["133.000", "-", "-"]
        );
    }

    /// Untraced run records of one workload, one a delivered set.
    fn runs(workload: &str, sets: &[&str]) -> String {
        sets.iter()
            .map(|set| {
                format!(
                    "{{\"workload\": \"{workload}\", \"seed\": 1, \"details\": \
                     {{\"ops_failed\": \"3\", \"delivered_set\": \"{set}\"}}}}\n"
                )
            })
            .collect()
    }

    #[test]
    fn a_pair_passes_iff_the_head_delivers_no_fewer_of_the_common_prefix() {
        let base = "1101101111";
        // Identical, and a longer run whose extra frames do not count.
        assert_eq!(delivered_moves(base, base), (0, 0));
        assert_eq!(delivered_moves(base, "11011011110000000"), (0, 0));
        // A superset, an equal count with swaps, fewer; the last four
        // frames of the shorter run are never compared.
        assert_eq!(delivered_moves(base, "1111111111"), (0, 2));
        assert_eq!(delivered_moves(base, "1011100000"), (1, 1));
        assert_eq!(delivered_moves(base, "0100000000"), (3, 0));
        assert_eq!(delivered_moves("1111", "0000"), (0, 0));
        let verdicts = |head: &[&str]| {
            let base = runs("dense_5u", &[base, base]);
            delivered_failures(&base, &runs("dense_5u", head), DeliveryRule::Count)
        };
        assert!(verdicts(&[base, base]).is_empty());
        assert!(verdicts(&["1111111111", "1011100000"]).is_empty());
        let fails = verdicts(&[base, "0100000000"]);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(
            fails[0].contains("dense_5u pair 1: delivers 3 fewer"),
            "{fails:?}"
        );
        // A head run with no base run beside it is not a pass.
        assert_eq!(verdicts(&[base, base, base]).len(), 1);
        // Workloads pair among themselves; a record without a delivered
        // set (city_1m) is nobody's pair.
        let mixed = |a: &str, b: &str| runs("slotted_2u", &[a]) + &runs("dense_5u", &[b]);
        let city = "{\"workload\": \"city_1m\", \"details\": {\"city.digest\": \"0x44a0\"}}\n";
        let fails = delivered_failures(
            &(mixed(base, base) + city),
            &(city.to_string() + &runs("dense_5u", &["0100000000"]) + &runs("slotted_2u", &[base])),
            DeliveryRule::Count,
        );
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].starts_with("dense_5u pair 0"), "{fails:?}");
    }

    #[test]
    fn a_pair_line_reports_both_sides_false_accepts() {
        let with = |n: u32| {
            format!(
                "{{\"workload\": \"dense_5u\", \"details\": {{\"false_accepts\": \"{n}\", \
                 \"delivered_set\": \"1101\"}}}}"
            )
        };
        assert_eq!(
            pair_line("dense_5u", 3, (13, 6), &with(0), &with(1)),
            "ci: perf delivered dense_5u pair 3: lost 13, gained 6, false_accepts 0 -> 1"
        );
        // A record without the count reads as `-`.
        let old = &runs("dense_5u", &["1101"]);
        assert!(pair_line("dense_5u", 0, (0, 0), old, &with(2)).ends_with("false_accepts - -> 2"));
    }

    #[test]
    fn a_workload_fails_when_its_head_pairs_false_accept_more_than_its_base() {
        let run = |workload: &str, n: &str| {
            format!(
                "{{\"workload\": \"{workload}\", \"details\": {{\"false_accepts\": \"{n}\", \
                 \"delivered_set\": \"1101\"}}}}\n"
            )
        };
        let set = |workload: &str, counts: &[&str]| -> String {
            counts.iter().map(|n| run(workload, n)).collect()
        };
        let verdict = |base: &[&str], head: &[&str]| {
            delivered_failures(
                &set("dense_5u", base),
                &set("dense_5u", head),
                DeliveryRule::Count,
            )
        };
        // Judged on the sum: one pair may rise where another falls.
        assert!(verdict(&["0", "0", "0"], &["0", "0", "0"]).is_empty());
        assert!(verdict(&["2", "0", "1"], &["0", "3", "0"]).is_empty());
        assert!(verdict(&["1", "1", "1"], &["0", "0", "0"]).is_empty());
        let fails = verdict(&["1", "0", "0"], &["0", "1", "1"]);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert_eq!(
            fails[0],
            "dense_5u: the head's pairs false-accept 2 frames, the base's 1"
        );
        // A pair with a record that has no count enters neither sum.
        assert!(verdict(&["-", "0"], &["4", "0"]).is_empty());
        assert_eq!(verdict(&["x", "0"], &["4", "1"]).len(), 1);
        // Workloads are summed apart.
        let fails = delivered_failures(
            &(set("dense_5u", &["3"]) + &set("paced_mix", &["0"])),
            &(set("paced_mix", &["1"]) + &set("dense_5u", &["0"])),
            DeliveryRule::Count,
        );
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].starts_with("paced_mix:"), "{fails:?}");
    }

    /// A delivered set of `len` frames, all delivered but for `missing`.
    fn set_without(len: usize, missing: impl IntoIterator<Item = usize>) -> String {
        let mut set = vec![b'1'; len];
        for i in missing {
            set[i] = b'0';
        }
        String::from_utf8(set).expect("ASCII")
    }

    #[test]
    fn a_declared_change_is_judged_by_mcnemars_rule() {
        // Lost − gained against two standard deviations of the discordant
        // count: 13 / 6 (ci perf's 5 s dense_5u pair of the closed-form
        // timing read, a net gain over ten 30 s pairs) is 7 against 8.72
        // and passes, though the count rule fails it; 10 / 1 is 9 against
        // 6.63 and fails.
        for (lost, gained, count_fails, mcnemar_fails) in [
            (0, 0, false, false),
            (13, 6, true, false),
            (9, 5, true, false),
            (5, 9, false, false),
            (4, 0, true, false),
            (5, 0, true, true),
            (10, 1, true, true),
            (30, 16, true, true),
            (30, 20, true, false),
        ] {
            assert_eq!(
                DeliveryRule::Count.fails(lost, gained),
                count_fails,
                "{lost}/{gained}"
            );
            let mcnemar = DeliveryRule::McNemar.fails(lost, gained);
            assert_eq!(mcnemar, mcnemar_fails, "{lost}/{gained}");
        }
        // On synthetic sets: the base misses frames 0..5, the head frames
        // 10..19 — 5 gained, 9 lost — plus frames at the end that are
        // never compared.
        let base = set_without(64, 0..5);
        let head = set_without(64, (10..19).chain(60..64));
        assert_eq!(delivered_moves(&base, &head), (9, 5));
        let (b, h) = (runs("dense_5u", &[&base]), runs("dense_5u", &[&head]));
        assert!(delivered_failures(&b, &h, DeliveryRule::McNemar).is_empty());
        let fails = delivered_failures(&b, &h, DeliveryRule::Count);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("lost 9, gained 5"), "{fails:?}");
        // 20 lost, 5 gained: 15 against 10.
        let head = set_without(64, 10..30);
        let fails = delivered_failures(&b, &runs("dense_5u", &[&head]), DeliveryRule::McNemar);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("McNemar"), "{fails:?}");
    }

    #[test]
    fn compare_table_fails_on_regressed_rows_and_digests_only() {
        let clean = "metric  workload  a median  b median  change  spread  bound  b won verdict\n\
                     rtf                    dense_5u          1.2500       2.1000  +68.0%    2.0%   25.0%    3/3    better\n\
                     exact results: 12 run pairs of one (workload, seed), 0 differing\n";
        assert!(compare_failures(clean).is_empty());
        let moved = format!("{clean}DIFFERENT: dense_5u seed 1: delivered sets differ\n");
        assert!(compare_failures(&moved).is_empty());
        let digest = format!("{clean}DIFFERENT: city_1m seed 1: city.digest 0x44a0 vs 0x44a1\n");
        assert_eq!(compare_failures(&digest).len(), 1);
        let slower = clean.replace("3/3    better", "0/3    REGRESSED");
        let fails = compare_failures(&slower);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].starts_with("rtf dense_5u"), "{fails:?}");
        // `spine compare` died before its table: not a pass.
        assert_eq!(compare_failures("").len(), 1);
    }

    #[test]
    fn model_cfg_flag_appends_idempotently() {
        assert_eq!(with_model_cfg(""), "--cfg choir_model");
        let appended = with_model_cfg("-D warnings");
        assert_eq!(appended, "-D warnings --cfg choir_model");
        assert_eq!(with_model_cfg(&appended), appended, "must not duplicate");
    }
}
