//! CLI: decode a seeded multi-user collision with full provenance tracing
//! and dump the flight-recorder log as JSONL on stdout.
//!
//! ```text
//! cargo run --release -p choir-testbed --bin trace_dump
//! cargo run --release -p choir-testbed --bin trace_dump -- --users 4 --seed 7 > trace.jsonl
//! ```
//!
//! Stdout is exactly one JSON object per line (pipe it into `jq` or
//! `grep`); the human summary goes to stderr. The run is self-checking:
//! it exits non-zero unless the log carries `offset_search` and
//! `sic_pass` events that account for **every decoded user**, plus a
//! `slot_outcome`, so CI can archive the artifact and trust it is
//! complete.

use choir_channel::scenario::ScenarioBuilder;
use choir_core::cluster::circular_dist;
use choir_core::decoder::{ChoirDecoder, SlotView};
use choir_trace::{Record, TraceEvent, TraceLevel};
use lora_phy::params::PhyParams;

const PAYLOAD_LEN: usize = 8;

fn arg_u64(args: &[String], flag: &str, default: u64) -> u64 {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// True when some event of the given kind references a bin within `tol`
/// of `bins` (circular over the FFT length `n`).
fn log_covers(
    records: &[Record],
    bins: f64,
    n: f64,
    tol: f64,
    pick: impl Fn(&TraceEvent) -> Vec<f64>,
) -> bool {
    records
        .iter()
        .flat_map(|r| pick(&r.event))
        .any(|b| circular_dist(b, bins, n) < tol)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seed = arg_u64(&args, "--seed", 7);
    let users: usize = arg_u64(&args, "--users", 4).min(16) as usize;

    // Full tracing regardless of the environment: this binary *is* the
    // provenance dump, so CHOIR_TRACE=off would make it useless. A dense
    // slot at `Full` produces a few thousand span records, so size the
    // ring to hold the entire run — a dump with overwrite gaps defeats
    // the point.
    if let Err(frozen) = choir_trace::set_capacity(1 << 16) {
        eprintln!("trace_dump: {frozen}; the dump may have overwrite gaps");
    }
    choir_trace::set_level(TraceLevel::Full);
    choir_trace::clear();

    let params = PhyParams::default();
    let n = params.samples_per_symbol();
    // 3 dB SNR ladder starting at 20 dB: dense enough to need phased SIC,
    // spread enough that every user should decode.
    let snrs: Vec<f64> = (0..users).map(|i| 20.0 - 3.0 * i as f64).collect();
    let scenario = ScenarioBuilder::new(params)
        .snrs_db(&snrs)
        .payload_len(PAYLOAD_LEN)
        .seed(seed)
        .build();

    // --- The pipeline under observation --------------------------------
    let decoder = ChoirDecoder::new(params);
    let slot = SlotView::known_len(&params, &scenario.samples, scenario.slot_start, PAYLOAD_LEN);
    let decoded = decoder.try_decode_view(slot).unwrap_or_default();

    // --- Dump ------------------------------------------------------------
    let records = choir_trace::drain();
    print!("{}", choir_trace::to_jsonl(&records));

    let crc_ok = decoded.iter().filter(|d| d.payload_ok()).count();
    eprintln!(
        "trace_dump: seed {seed}, {users} users, {} decoded ({crc_ok} crc-ok), \
         {} events ({} dropped)",
        decoded.len(),
        records.len(),
        choir_trace::dropped(),
    );

    // --- Self-check: the log must cover every decoded user ---------------
    let mut failures: Vec<String> = Vec::new();
    if decoded.is_empty() {
        failures.push("no users decoded".to_string());
    }
    for kind in ["offset_search", "sic_pass", "slot_outcome"] {
        if !records.iter().any(|r| r.event.kind() == kind) {
            failures.push(format!("no {kind} event in log"));
        }
    }
    let nf = n as f64;
    for d in &decoded {
        let bins = d.user.offset_bins;
        if !log_covers(&records, bins, nf, 1.5, |e| match e {
            TraceEvent::OffsetSearch { refined_bins, .. } => refined_bins.clone(),
            _ => Vec::new(),
        }) {
            failures.push(format!(
                "no offset_search event refining near {bins:.2} bins"
            ));
        }
        if !log_covers(&records, bins, nf, 1.5, |e| match e {
            TraceEvent::SicPass { cancelled_bins, .. } => cancelled_bins.clone(),
            _ => Vec::new(),
        }) {
            failures.push(format!("no sic_pass event cancelling near {bins:.2} bins"));
        }
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("trace_dump: FAIL: {f}");
        }
        std::process::exit(1);
    }
    eprintln!(
        "trace_dump: provenance log covers all {} decoded users",
        decoded.len()
    );
}
