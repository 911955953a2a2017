//! CLI: regenerate the estimator's accuracy ledger.
//!
//! ```text
//! cargo run --release -p choir-testbed --bin accuracy > ACCURACY.json
//! cargo run --release -p choir-testbed --bin accuracy -- --first-seed 50000 --draws 120
//! ```
//!
//! Prints the document on stdout and exits 1, naming the cells on
//! stderr, when a count sits under its floor or over its ceiling. The
//! arguments pick another grid (defaults: the committed one); its
//! document is a held-out measurement, which the bounds do not gate.

use choir_testbed::accuracy::{self, Grid};

/// The value after `flag`, if given; exits 2 on one that is not a number.
fn arg(args: &[String], flag: &str) -> Option<u64> {
    let i = args.iter().position(|a| a == flag)?;
    match args.get(i + 1).and_then(|v| v.parse().ok()) {
        Some(v) => Some(v),
        None => {
            eprintln!("accuracy: {flag} takes a non-negative integer");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let grid = Grid {
        first_seed: arg(&args, "--first-seed").unwrap_or(Grid::COMMITTED.first_seed),
        draws: arg(&args, "--draws").unwrap_or(Grid::COMMITTED.draws),
    };
    let ledger = accuracy::run_grid(grid);
    print!("{}", ledger.to_json());
    let violations = ledger.violations();
    for v in &violations {
        eprintln!("accuracy: FAIL: {v}");
    }
    if !violations.is_empty() {
        std::process::exit(1);
    }
}
