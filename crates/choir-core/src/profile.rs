//! Lightweight per-stage wall-clock accounting for the decode pipeline.
//!
//! A traced `spine` run reports where slot-decode time goes
//! (`core.profile.*`: dechirp / refine / demod / SIC / cluster).
//! Accounting is *exclusive*: a refine scope nested inside a SIC scope
//! bills its time to refine only, so the stage totals sum to (at most)
//! the instrumented wall clock and "other" falls out as the remainder.
//!
//! Costs are deliberately negligible: scopes sit at coarse call sites
//! (per window / per symbol, never per candidate offset), each scope is
//! two `Instant` reads plus one relaxed atomic add, and nothing is
//! recorded unless a scope runs. Totals are process-wide atomics so
//! worker-pool threads need no merging step.

use choir_sync::atomic::{AtomicU64, Ordering};
use std::cell::RefCell;
use std::time::Instant;

/// A pipeline stage of the per-slot latency breakdown.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Dechirping and padded-spectrum synthesis (coarse peak discovery).
    Dechirp,
    /// Fractional-offset refinement: the Algorithm-1 residual search,
    /// boundary-split fitting and timing/CFO disambiguation.
    Refine,
    /// Per-user aligned comb demodulation, and the frame chain its
    /// decisions feed (frame decoding and CRC-guided list decoding).
    Demod,
    /// Successive interference cancellation: reconstruction, subtraction
    /// and packet-level re-acquisition passes.
    Sic,
    /// Track merging and constrained user assignment.
    Cluster,
    /// Streaming-station ingest: ring append, capture cutting, queue
    /// bookkeeping (everything on the producer side except detection).
    Ingest,
    /// Streaming-station online preamble/slot detection (incremental
    /// window scans and occupancy gating).
    Detect,
}

/// Number of distinct stages (length of [`STAGE_NAMES`]).
pub const NUM_STAGES: usize = 7;

/// Stable lowercase names, index-aligned with [`Stage`] discriminants.
pub const STAGE_NAMES: [&str; NUM_STAGES] = [
    "dechirp", "refine", "demod", "sic", "cluster", "ingest", "detect",
];

static TOTALS: [AtomicU64; NUM_STAGES] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];

thread_local! {
    /// Stack of (stage, nanos-spent-in-child-scopes) for exclusive billing.
    static SCOPES: RefCell<Vec<(usize, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f`, billing its *exclusive* wall-clock time to `stage`.
///
/// When `Full` tracing is on (`choir-trace`), the scope also lands as a
/// `span_enter`/`span_exit` event pair in the flight recorder, so a
/// drained log shows which stage produced each interleaved event; the
/// exit span carries the same exclusive nanoseconds billed here.
pub fn scope<R>(stage: Stage, f: impl FnOnce() -> R) -> R {
    let name = STAGE_NAMES[stage as usize];
    choir_trace::full(|| choir_trace::TraceEvent::SpanEnter { stage: name });
    let start = Instant::now();
    SCOPES.with(|s| s.borrow_mut().push((stage as usize, 0)));
    let out = f();
    let elapsed = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let child = SCOPES.with(|s| s.borrow_mut().pop()).map_or(0, |(_, c)| c);
    let exclusive = elapsed.saturating_sub(child);
    bill(stage, exclusive);
    SCOPES.with(|s| {
        if let Some(top) = s.borrow_mut().last_mut() {
            top.1 = top.1.saturating_add(elapsed);
        }
    });
    choir_trace::full(|| choir_trace::TraceEvent::SpanExit {
        stage: name,
        exclusive_ns: exclusive,
    });
    out
}

/// Adds `ns` nanoseconds to `stage`'s process-wide total.
///
/// This is the one write path into the totals — [`scope`] computes an
/// exclusive elapsed time and bills it here. Concurrent bills from
/// worker-pool threads accumulate without loss, and a concurrent
/// [`snapshot_and_reset`] attributes each billed amount to exactly one
/// snapshot (the `fetch_add`/`swap` pair can split a set of bills across
/// two snapshots, but never drops or double-counts one) — invariants
/// model-checked in `tests/model.rs`.
pub fn bill(stage: Stage, ns: u64) {
    TOTALS[stage as usize].fetch_add(ns, Ordering::Relaxed); // ordering: totals are commutative sums read via swap; no other memory is published through them
}

/// Returns the accumulated per-stage seconds and resets the counters.
/// Indexed like [`STAGE_NAMES`].
pub fn snapshot_and_reset() -> [f64; NUM_STAGES] {
    let mut out = [0.0; NUM_STAGES];
    for (i, total) in TOTALS.iter().enumerate() {
        out[i] = total.swap(0, Ordering::Relaxed) as f64 * 1e-9; // ordering: swap atomically hands the accumulated sum to exactly one snapshot; stage slots are independent counters
    }
    out
}

/// Raw-nanosecond variant of [`snapshot_and_reset`], for callers that
/// need exact conservation accounting (tests, the model-checked suites)
/// rather than report-friendly seconds.
pub fn snapshot_and_reset_ns() -> [u64; NUM_STAGES] {
    let mut out = [0; NUM_STAGES];
    for (i, total) in TOTALS.iter().enumerate() {
        out[i] = total.swap(0, Ordering::Relaxed); // ordering: same swap-handoff as snapshot_and_reset
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_scopes_bill_exclusively() {
        let _ = snapshot_and_reset();
        scope(Stage::Sic, || {
            busy(5);
            scope(Stage::Refine, || busy(5));
        });
        let snap = snapshot_and_reset();
        let sic = snap[Stage::Sic as usize];
        let refine = snap[Stage::Refine as usize];
        assert!(sic > 0.0 && refine > 0.0);
        // The inner scope's time must not be double-billed to SIC: both
        // halves burn ~the same CPU, so exclusive SIC time stays well
        // under 3× refine even with scheduler noise.
        assert!(
            sic < 3.0 * refine,
            "sic {sic} should exclude nested refine {refine}"
        );
    }

    #[test]
    fn snapshot_resets_counters() {
        let _ = snapshot_and_reset();
        scope(Stage::Cluster, || busy(1));
        let first = snapshot_and_reset();
        assert!(first[Stage::Cluster as usize] > 0.0);
        let second = snapshot_and_reset();
        // A reset counter reads back exactly +0.0 (0 nanoseconds).
        assert_eq!(second[Stage::Cluster as usize].to_bits(), 0.0f64.to_bits());
    }

    fn busy(ms: u64) {
        let t = Instant::now();
        let mut x = 0u64;
        while t.elapsed().as_millis() < u128::from(ms) {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            std::hint::black_box(x);
        }
    }
}
