//! Model-checked suite for the flight recorder.
//!
//! Drives the real recorder (global sequence stamp, per-thread rings,
//! registry, drain/prune) under the `choir-sync` schedule explorer.
//! Compiled only under `RUSTFLAGS="--cfg choir_model"` (`cargo xtask ci
//! model-check`).
//!
//! The recorder's state is process-global, so the tests in this binary
//! serialise on a local mutex (the explorer itself only serialises the
//! `explore` calls, not the set-up around them) and measure everything
//! via per-schedule deltas: drained counts of marker events, ring-count
//! differences — never absolute global values.
#![cfg(choir_model)]

use choir_sync::model::{explore, Config};
use choir_sync::thread;
use choir_trace::{TraceEvent, TraceLevel};

/// Serialises the tests in this binary: they all mutate the recorder's
/// process-global state.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static GUARD: std::sync::Mutex<()> = std::sync::Mutex::new(());
    GUARD
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn emit(stage: &'static str) {
    choir_trace::full(|| TraceEvent::SpanEnter { stage });
}

fn count(log: &[choir_trace::Record], stage: &'static str) -> usize {
    log.iter()
        .filter(|r| matches!(r.event, TraceEvent::SpanEnter { stage: s } if s == stage))
        .count()
}

/// Concurrent emitters: no record is lost, the global sequence stamps are
/// strictly monotonic after the merge sort, each record carries its true
/// emitting thread, and per-thread emission order is preserved.
#[test]
fn concurrent_emitters_merge_without_loss_or_misattribution() {
    let _s = serial();
    choir_trace::set_level(TraceLevel::Full);
    let report = explore(Config::new(500), || {
        choir_trace::clear();
        let _ = choir_trace::drain();
        thread::scope(|s| {
            s.spawn(|| {
                emit("model_a");
                emit("model_a");
            });
            s.spawn(|| {
                emit("model_b");
                emit("model_b");
            });
        });
        let log = choir_trace::drain();
        assert_eq!(count(&log, "model_a"), 2, "thread A records lost");
        assert_eq!(count(&log, "model_b"), 2, "thread B records lost");
        for pair in log.windows(2) {
            assert!(pair[0].seq < pair[1].seq, "drain must sort strictly by seq");
        }
        // Attribution: the two A-records share one thread id, the two
        // B-records another, and the ids differ; within a thread, seq
        // order equals emission order (both events are "SpanEnter", so
        // order is visible through seq monotonicity per thread id).
        let a_threads: Vec<u64> = log
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::SpanEnter { stage } if stage == "model_a"))
            .map(|r| r.thread)
            .collect();
        let b_threads: Vec<u64> = log
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::SpanEnter { stage } if stage == "model_b"))
            .map(|r| r.thread)
            .collect();
        assert_eq!(
            a_threads[0], a_threads[1],
            "thread A records split across ids"
        );
        assert_eq!(
            b_threads[0], b_threads[1],
            "thread B records split across ids"
        );
        assert_ne!(
            a_threads[0], b_threads[0],
            "records attributed to the wrong thread"
        );
    });
    assert!(
        report.distinct >= 250,
        "expected broad emit-interleaving coverage, got {report:?}"
    );
}

/// A drain racing a live emitter: every record lands in exactly one
/// drain (no loss, no duplication), whichever way the race resolves.
#[test]
fn drain_racing_emitter_never_loses_or_duplicates() {
    let _s = serial();
    choir_trace::set_level(TraceLevel::Full);
    let report = explore(Config::new(500), || {
        choir_trace::clear();
        let _ = choir_trace::drain();
        let mut seqs: Vec<u64> = Vec::new();
        thread::scope(|s| {
            let h = s.spawn(|| {
                emit("model_race");
                emit("model_race");
                emit("model_race");
            });
            // Concurrent drain: may observe 0..=3 of the emitter's
            // records depending on the schedule.
            let mid = choir_trace::drain();
            seqs.extend(
                mid.iter()
                    .filter(|r| matches!(r.event, TraceEvent::SpanEnter { stage } if stage == "model_race"))
                    .map(|r| r.seq),
            );
            assert!(h.join().is_ok());
        });
        let rest = choir_trace::drain();
        seqs.extend(
            rest.iter()
                .filter(
                    |r| matches!(r.event, TraceEvent::SpanEnter { stage } if stage == "model_race"),
                )
                .map(|r| r.seq),
        );
        // This caught a real bug: drain's prune pass used to discard
        // records that an emitter pushed between the drain's collect
        // pass and its retain pass, when the emitter then exited.
        assert_eq!(
            seqs.len(),
            3,
            "a record was lost or duplicated across drains"
        );
        let mut dedup = seqs.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 3, "duplicate sequence stamps across drains");
    });
    assert!(
        report.distinct >= 250,
        "expected broad drain-vs-emit coverage, got {report:?}"
    );
}

/// Ring pruning under the model: once the emitting thread exits, the
/// next drain removes its ring — and a drain racing the thread's *exit*
/// never removes a ring that could still receive records.
///
/// "Exited" means the emitter's thread-local was destroyed, which is what
/// `drain` detects. Only an explicit `join` waits for that: a scope's
/// implicit join (std's, which the facade mirrors) returns once the
/// child's closure has, possibly before its thread-local destructors run
/// — outside the explorer's schedule, so relying on it made this test
/// fail under load.
#[test]
fn exited_emitters_ring_is_pruned_by_next_drain() {
    let _s = serial();
    choir_trace::set_level(TraceLevel::Full);
    let report = explore(Config::new(300), || {
        choir_trace::clear();
        let _ = choir_trace::drain();
        let before = choir_trace::active_rings();
        thread::scope(|s| {
            assert!(s.spawn(|| emit("model_churn")).join().is_ok());
        });
        // The worker has fully exited (joined by handle); its record must
        // still be visible to this drain, after which its ring is gone.
        let log = choir_trace::drain();
        assert_eq!(count(&log, "model_churn"), 1, "record lost before prune");
        assert!(
            choir_trace::active_rings() <= before,
            "exited worker's ring survived the drain"
        );
    });
    // The drain is sequenced strictly after the scope join here, so the
    // only concurrency is spawn-vs-root before the join: the space is
    // small and fully explored.
    assert!(
        report.complete && report.distinct >= 5,
        "expected exhaustive exit/drain coverage, got {report:?}"
    );
}
