//! # choir-trace — decode-provenance tracing for the Choir pipeline
//!
//! `StationMetrics` counts outcomes and `choir_core::profile` times them;
//! this crate records *why* a slot decoded the way it did. Every stage of
//! the pipeline (offset search, SIC passes, peak de-duplication, user
//! tracks, station ingest/shed/degrade) emits typed [`TraceEvent`]s
//! into a bounded per-thread flight recorder, so the provenance of any
//! decode is replayable after the fact without re-running it.
//!
//! Three design rules keep tracing always-on-capable:
//!
//! 1. **Levels.** The process-wide [`TraceLevel`] ([`Off`](TraceLevel::Off)
//!    / [`Outcome`](TraceLevel::Outcome) / [`Full`](TraceLevel::Full)) is
//!    read from the `CHOIR_TRACE` environment variable once and cached in
//!    an atomic; a disabled emission is a single relaxed load and the
//!    event constructor closure is never evaluated.
//! 2. **Bounded memory.** Events land in per-thread ring buffers
//!    (overwrite-oldest, default 4096 records per thread, `CHOIR_TRACE_CAP`
//!    overrides) stamped with an absolute process-wide sequence number, so
//!    a drain can merge all threads into one causally ordered log and
//!    report exactly how many records were overwritten.
//! 3. **No contention.** Each thread appends to its own buffer; the only
//!    cross-thread synchronisation is the sequence counter (one relaxed
//!    `fetch_add`) and the drain path.
//!
//! ```
//! use choir_trace as trace;
//!
//! trace::set_level(trace::TraceLevel::Full);
//! trace::clear();
//! trace::full(|| trace::TraceEvent::PeakDedup {
//!     kept_bins: 17.25,
//!     dropped_bins: 17.31,
//!     identical_frac: 0.93,
//! });
//! let log = trace::drain();
//! assert_eq!(log.len(), 1);
//! println!("{}", trace::to_jsonl(&log));
//! trace::set_level(trace::TraceLevel::Off);
//! ```

#![deny(missing_docs)]

mod event;
mod recorder;

pub use event::{CityScheme, Hypothesis, HypothesisTransition, ShedReason, TraceEvent};
pub use recorder::{active_rings, clear, drain, dropped, set_capacity, CapacityFrozen, Record};

use choir_sync::atomic::{AtomicU8, Ordering};

/// How much of the pipeline's provenance is recorded.
///
/// Ordered: each level records everything the previous one does.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceLevel {
    /// Nothing is recorded; emission sites cost one relaxed atomic load.
    Off = 0,
    /// Per-slot outcomes and state transitions: decode results, typed
    /// decode errors, station shed/degrade events, metrics snapshots.
    /// Cheap enough to leave on in production (`cargo xtask ci perf`
    /// holds it under 5 % of busy time).
    Outcome = 1,
    /// Everything: per-window offset-search refinements, SIC passes,
    /// dedup decisions, user tracks and profile-stage spans.
    Full = 2,
}

/// Sentinel meaning "not yet initialised from the environment".
const LEVEL_UNSET: u8 = u8::MAX;

static LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNSET);

fn parse_level(raw: &str) -> TraceLevel {
    match raw.trim().to_ascii_lowercase().as_str() {
        "outcome" | "1" => TraceLevel::Outcome,
        "full" | "2" => TraceLevel::Full,
        _ => TraceLevel::Off,
    }
}

fn decode_level(v: u8) -> Option<TraceLevel> {
    match v {
        0 => Some(TraceLevel::Off),
        1 => Some(TraceLevel::Outcome),
        2 => Some(TraceLevel::Full),
        _ => None,
    }
}

/// The current process-wide trace level.
///
/// First call reads `CHOIR_TRACE` (`off`/`outcome`/`full`, or `0`/`1`/`2`;
/// unset or unrecognised means [`TraceLevel::Off`]); subsequent calls are
/// one relaxed atomic load.
pub fn level() -> TraceLevel {
    let cached = LEVEL.load(Ordering::Relaxed); // ordering: level is an idempotent cache of an env read; a stale miss re-parses the same value
    if let Some(l) = decode_level(cached) {
        return l;
    }
    let l = std::env::var("CHOIR_TRACE")
        .map(|v| parse_level(&v))
        .unwrap_or(TraceLevel::Off);
    LEVEL.store(l as u8, Ordering::Relaxed); // ordering: racing initialisers store the same parsed value, so publication order is irrelevant
    l
}

/// Overrides the trace level for the whole process (tools and tests; the
/// environment variable is only consulted before the first override).
pub fn set_level(l: TraceLevel) {
    LEVEL.store(l as u8, Ordering::Relaxed); // ordering: a level flip may be observed late by other threads; emission is best-effort by contract
}

/// True when events at `min` verbosity would be recorded. Use to skip
/// building expensive event payloads at call sites.
pub fn enabled(min: TraceLevel) -> bool {
    min != TraceLevel::Off && level() >= min
}

/// Records the event built by `f` if the current level is at least `min`.
/// The closure is not evaluated otherwise.
pub fn emit(min: TraceLevel, f: impl FnOnce() -> TraceEvent) {
    if enabled(min) {
        recorder::record(f());
    }
}

/// Records an [`TraceLevel::Outcome`]-level event (lazily built).
pub fn outcome(f: impl FnOnce() -> TraceEvent) {
    emit(TraceLevel::Outcome, f);
}

/// Records a [`TraceLevel::Full`]-level event (lazily built).
pub fn full(f: impl FnOnce() -> TraceEvent) {
    emit(TraceLevel::Full, f);
}

thread_local! {
    /// The preamble-window index the current thread is decoding; stamped
    /// by the decoder so deep emission sites (SIC passes, offset-search
    /// refinements) can tag events without widening their signatures.
    static WINDOW: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Sets the calling thread's current-window context (see
/// [`current_window`]). Decoders stamp this before descending into
/// per-window stages; it is purely observational.
pub fn set_window(w: u64) {
    WINDOW.with(|c| c.set(w));
}

/// The window index last stamped on this thread via [`set_window`]
/// (0 before any stamp).
pub fn current_window() -> u64 {
    WINDOW.with(std::cell::Cell::get)
}

/// Serialises drained records as JSON Lines: one self-contained JSON
/// object per record, stable field order, `seq` first.
pub fn to_jsonl(records: &[Record]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&r.to_json());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parsing_accepts_names_and_digits() {
        assert_eq!(parse_level("off"), TraceLevel::Off);
        assert_eq!(parse_level("0"), TraceLevel::Off);
        assert_eq!(parse_level(" Outcome "), TraceLevel::Outcome);
        assert_eq!(parse_level("1"), TraceLevel::Outcome);
        assert_eq!(parse_level("FULL"), TraceLevel::Full);
        assert_eq!(parse_level("2"), TraceLevel::Full);
        assert_eq!(parse_level("verbose"), TraceLevel::Off);
        assert_eq!(parse_level(""), TraceLevel::Off);
    }

    #[test]
    fn off_level_skips_closure() {
        let _g = recorder::test_guard();
        set_level(TraceLevel::Off);
        let mut ran = false;
        emit(TraceLevel::Outcome, || {
            ran = true;
            TraceEvent::SpanEnter { stage: "sic" }
        });
        assert!(!ran, "event constructor must not run when tracing is off");
    }

    #[test]
    fn outcome_level_drops_full_events() {
        let _g = recorder::test_guard();
        set_level(TraceLevel::Outcome);
        clear();
        full(|| TraceEvent::SpanEnter { stage: "refine" });
        outcome(|| TraceEvent::StationDegrade {
            active: true,
            queue_depth: 3,
        });
        let log = drain();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].event.kind(), "station_degrade");
        set_level(TraceLevel::Off);
    }
}
