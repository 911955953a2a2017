//! `spine` — the measurement spine of the Choir base station.
//!
//! One process runs one workload once: untraced it reports the end-to-end
//! metrics (real-time factor, delivery, ingest→frame latency, memory,
//! set-up), traced the per-layer ones. Every decoded payload is checked
//! against what the generator transmitted. See `README.md` beside this
//! package for the workloads, the metrics and why each is there.
//!
//! ```text
//! spine --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--out <dir>]
//! spine run --workload <name> [--seed <u64>] [--seconds <n>] [--traced] [--out <dir>]
//! spine run --all [--seed <u64>] [--seconds <n>] [--out <dir>]
//! spine compare <runs-a> <runs-b> [--spec BENCHMARK.json]
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;

mod compare;
mod drive;
mod gen;
mod json;
mod layers;
mod micro;
mod oracle;
mod report;
mod spans;
mod stats;
mod workload;

use report::Provenance;
use workload::Job;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["slotted_2u", "paced_mix", "dense_5u", "city_1m"];

/// Measuring seconds when `--seconds` is not given; `BENCHMARK.json`'s
/// `run_seconds`.
const DEFAULT_SECONDS: f64 = 30.0;

const USAGE: &str = "usage:
  spine --workload <slotted_2u|paced_mix|dense_5u|city_1m> --seed <u64> --seconds <n> --trace <0|1> [--out <dir>]
  spine run --workload <name> [--seed <u64>] [--seconds <n>] [--traced] [--out <dir>]
  spine run --all [--seed <u64>] [--seconds <n>] [--out <dir>]
  spine compare <runs-a> <runs-b> [--spec BENCHMARK.json]";

/// Flags of the run forms.
struct Flags {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: PathBuf,
}

/// Run records and span logs go under the build directory unless told
/// otherwise: always inside the checkout, never committed.
fn default_out() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    Path::new(&target).join("spine-out")
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        all: false,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        traced: false,
        out: default_out(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => flags.workload = Some(value()?.clone()),
            "--all" => flags.all = true,
            "--traced" => flags.traced = true,
            "--seed" => {
                flags.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes an unsigned integer")?;
            }
            "--seconds" => {
                flags.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| (1.0..=600.0).contains(s))
                    .ok_or("--seconds takes a number from 1 to 600")?;
            }
            "--trace" => {
                flags.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                };
            }
            "--out" => flags.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(flags)
}

/// Runs one workload in this process; `Ok(true)` when the oracle passed.
fn run_one(flags: &Flags) -> Result<bool, String> {
    let name = flags.workload.as_deref().ok_or("--workload is required")?;
    let workload = WORKLOADS
        .iter()
        .find(|w| **w == name)
        .ok_or(format!("unknown workload {name}"))?;
    let job = Job {
        workload,
        seed: flags.seed,
        seconds: flags.seconds,
        traced: flags.traced,
        out_dir: flags.out.clone(),
    };
    choir_trace::set_level(choir_trace::TraceLevel::Off);
    let outcome = match *workload {
        "slotted_2u" => workload::slotted::run(&job),
        "paced_mix" => workload::paced::run(&job),
        "dense_5u" => workload::dense::run(&job),
        _ => workload::city::run(&job),
    };
    Ok(outcome.publish(&Provenance::collect(), &job.out_dir))
}

/// Runs every workload untraced, then traced, each in a child process of
/// its own, and checks that the two runs of each workload agree on what
/// was delivered.
fn run_all(flags: &Flags) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let records_before = compare::read_runs(&flags.out).map_or(0, |r| r.len());
    let mut ok = true;
    for trace in ["0", "1"] {
        for w in WORKLOADS {
            let status = std::process::Command::new(&exe)
                .args(["--workload", w, "--trace", trace])
                .args(["--seed", &flags.seed.to_string()])
                .args(["--seconds", &flags.seconds.to_string()])
                .arg("--out")
                .arg(&flags.out)
                .status()
                .map_err(|e| format!("could not start the {w} run: {e}"))?;
            if !status.success() {
                eprintln!("spine: {w} (trace {trace}) failed: {status}");
                ok = false;
            }
        }
    }
    let records = compare::read_runs(&flags.out)?;
    let fresh = records.get(records_before..).unwrap_or_default();
    let (untraced, traced): (Vec<_>, Vec<_>) = fresh
        .iter()
        .cloned()
        .partition(|r| r.get("trace").and_then(json::Value::as_f64) == Some(0.0));
    println!("# untraced vs traced runs of seed {}", flags.seed);
    let differing = compare::exact_rows(&untraced, &traced);
    for row in &differing {
        println!("ORACLE FAILURE: {row}");
    }
    println!(
        "# records appended to {}",
        flags.out.join("runs.jsonl").display()
    );
    Ok(ok && differing.is_empty())
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("compare") => {
            let (Some(a), Some(b)) = (args.get(1), args.get(2)) else {
                return Err("compare takes two run sets".to_string());
            };
            let spec = match args.get(3).map(String::as_str) {
                None => PathBuf::from("BENCHMARK.json"),
                Some("--spec") => PathBuf::from(args.get(4).ok_or("--spec needs a value")?),
                Some(other) => return Err(format!("unknown argument {other}")),
            };
            compare::compare(Path::new(a), Path::new(b), &spec)
        }
        Some("run") => {
            let flags = parse_flags(args.get(1..).unwrap_or_default())?;
            if flags.all {
                run_all(&flags)
            } else {
                run_one(&flags)
            }
        }
        Some(_) => run_one(&parse_flags(args)?),
        None => Err("no arguments".to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("spine: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
