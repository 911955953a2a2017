//! Pins `ACCURACY.json`, the estimator's accuracy ledger: the grid is
//! re-run and must reproduce the committed document byte for byte with
//! every count on or over its floor. Release only — the grid decodes 240
//! collisions of up to ten users, minutes in a debug build.
#![cfg(not(debug_assertions))]

#[test]
fn ledger_reproduces_the_committed_document_and_holds_its_floors() {
    const COMMITTED: &str = include_str!("../../../ACCURACY.json");
    let ledger = choir_testbed::accuracy::run();
    assert_eq!(ledger.violations(), Vec::<String>::new());
    assert_eq!(
        ledger.to_json(),
        COMMITTED,
        "the ledger moved: regenerate with `cargo run --release -p choir-testbed --bin accuracy > \
         ACCURACY.json` and argue the change as DESIGN §13 \"Objective or value\" asks"
    );
}
