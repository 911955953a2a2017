//! CLI: regenerate the estimator's accuracy ledger.
//!
//! ```text
//! cargo run --release -p choir-testbed --bin accuracy > ACCURACY.json
//! ```
//!
//! Prints the document on stdout and exits 1, naming the cells on
//! stderr, when a count sits under its floor.

fn main() {
    let ledger = choir_testbed::accuracy::run();
    print!("{}", ledger.to_json());
    let violations = ledger.violations();
    for v in &violations {
        eprintln!("accuracy: FAIL: {v}");
    }
    if !violations.is_empty() {
        std::process::exit(1);
    }
}
