//! The flight recorder: bounded per-thread ring buffers with absolute
//! sequence numbers, merged into one causally ordered log on drain.
//!
//! Each thread appends to its own ring (overwrite-oldest), so the hot
//! path never contends with other emitters; the per-ring mutex is only
//! ever contested by a drain. Sequence numbers come from one process-wide
//! relaxed counter and are *absolute*: they keep climbing across drains,
//! so two drained logs can be concatenated and re-sorted without
//! ambiguity, and a gap in the sequence pinpoints overwritten records.
//!
//! Ring lifetime: a ring outlives its emitting thread so a late drain
//! still sees a finished worker's records, but it does not outlive the
//! *next* drain after the thread exits — [`drain`] prunes rings whose
//! owner is gone (detected via the registry holding the last `Arc`),
//! carrying their overwrite counts into an orphan total so [`dropped`]
//! stays accurate. "Gone" means the owner's thread-local was destroyed:
//! joining the thread's handle waits for that, the implicit join at the
//! end of a `thread::scope` does not, so a drain right after a scope may
//! leave a ring to the drain after it. Long-lived processes that churn
//! worker threads therefore hold rings only for live threads plus
//! not-yet-drained corpses, not one per thread ever created.
//!
//! Synchronisation goes through the [`choir_sync`] facade; the recorder's
//! invariants (sequence monotonicity, drain-vs-emit, churn pruning) are
//! model-checked in `tests/model.rs` under `cargo xtask ci model-check`.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::Arc;

use choir_sync::atomic::{AtomicU64, Ordering};
use choir_sync::{Mutex, OnceLock};

use crate::event::TraceEvent;

/// Default ring capacity per thread (records), `CHOIR_TRACE_CAP` overrides.
const DEFAULT_CAP: usize = 4096;

/// One recorded event with its global ordering stamp.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    /// Absolute process-wide sequence number (emission order).
    pub seq: u64,
    /// Small dense id of the emitting thread (assignment order).
    pub thread: u64,
    /// The event payload.
    pub event: TraceEvent,
}

impl Record {
    /// Serialises the record as one self-contained JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push_str("{\"seq\": ");
        out.push_str(&self.seq.to_string());
        out.push_str(", \"thread\": ");
        out.push_str(&self.thread.to_string());
        out.push_str(", ");
        self.event.write_json_fields(&mut out);
        out.push('}');
        out
    }
}

/// A bounded overwrite-oldest buffer owned by one emitting thread.
struct Ring {
    buf: VecDeque<Record>,
    cap: usize,
    overwritten: u64,
}

impl Ring {
    fn new(cap: usize) -> Self {
        Ring {
            buf: VecDeque::with_capacity(cap.min(1024)),
            cap,
            overwritten: 0,
        }
    }

    fn push(&mut self, r: Record) {
        if self.buf.len() >= self.cap {
            self.buf.pop_front();
            self.overwritten += 1;
        }
        self.buf.push_back(r);
    }
}

static SEQ: AtomicU64 = AtomicU64::new(0);
static THREAD_IDS: AtomicU64 = AtomicU64::new(0);
/// Overwrite counts inherited from rings pruned by [`drain`] after their
/// owning thread exited, so [`dropped`] survives the pruning.
static PRUNED_OVERWRITTEN: AtomicU64 = AtomicU64::new(0);

type Shared = Arc<Mutex<Ring>>;

fn registry() -> &'static Mutex<Vec<Shared>> {
    static REGISTRY: OnceLock<Mutex<Vec<Shared>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

static CAP: OnceLock<usize> = OnceLock::new();

/// The frozen per-thread ring capacity. First freeze wins: either the
/// first [`set_capacity`] call or — on the first emission — the
/// `CHOIR_TRACE_CAP` environment variable (unset/unparsable falls back to
/// [`DEFAULT_CAP`]).
fn capacity() -> usize {
    *CAP.get_or_init(|| {
        std::env::var("CHOIR_TRACE_CAP")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&c| c > 0)
            .unwrap_or(DEFAULT_CAP)
    })
}

/// The per-thread ring capacity is already frozen (by an earlier
/// [`set_capacity`] call or by the first emission reading
/// `CHOIR_TRACE_CAP`), so a new value cannot take effect.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CapacityFrozen {
    /// The capacity (records per ring) that remains in effect.
    pub current: usize,
}

impl std::fmt::Display for CapacityFrozen {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "trace ring capacity already frozen at {} records per thread",
            self.current
        )
    }
}

impl std::error::Error for CapacityFrozen {}

/// Pins the per-thread ring capacity programmatically, overriding
/// `CHOIR_TRACE_CAP`. Only effective before the capacity freezes (first
/// emission, or an earlier call); rings that already exist keep their
/// size. Setting the value that is already frozen succeeds (idempotent);
/// otherwise the error reports the capacity actually in effect, so
/// callers can no longer mistake a late configuration for an applied one.
pub fn set_capacity(cap: usize) -> Result<(), CapacityFrozen> {
    let want = cap.max(1);
    if CAP.set(want).is_ok() {
        return Ok(());
    }
    let current = capacity();
    if current == want {
        Ok(())
    } else {
        Err(CapacityFrozen { current })
    }
}

thread_local! {
    /// This thread's (id, ring); created lazily on first emission. The
    /// registry holds a second `Arc` to the ring, which keeps it drainable
    /// after the thread exits — until the next [`drain`] prunes it.
    static LOCAL: RefCell<Option<(u64, Shared)>> = const { RefCell::new(None) };
}

/// Appends an event to the calling thread's ring (called by `emit` after
/// the level check passed).
pub(crate) fn record(event: TraceEvent) {
    let seq = SEQ.fetch_add(1, Ordering::Relaxed); // ordering: the stamp only needs global uniqueness+monotonicity, which fetch_add gives at any ordering; readers sort by seq after draining
    LOCAL.with(|l| {
        let mut slot = l.borrow_mut();
        let (thread, ring) = slot.get_or_insert_with(|| {
            let id = THREAD_IDS.fetch_add(1, Ordering::Relaxed); // ordering: dense thread ids only need uniqueness; no data is published through this counter
            let ring: Shared = Arc::new(Mutex::new(Ring::new(capacity())));
            registry().lock().push(Arc::clone(&ring));
            (id, ring)
        });
        ring.lock().push(Record {
            seq,
            thread: *thread,
            event,
        });
    });
}

/// Removes and returns every buffered record from every thread, merged
/// into absolute sequence order. Overwrite counters are left untouched
/// (see [`dropped`]); sequence numbers keep climbing across drains.
///
/// Draining also prunes rings whose owning thread has exited (their
/// records are in this drain's output; their overwrite counts move to the
/// orphan total), so thread churn cannot grow the registry without bound.
pub fn drain() -> Vec<Record> {
    let mut rings = registry().lock();
    let mut all: Vec<Record> = Vec::new();
    for ring in rings.iter() {
        // lint:allow(lock_scope) — ring locks nest inside the registry lock by design; emitters take only their own ring lock and never the registry while holding it, so the inverse order cannot occur
        all.extend(ring.lock().buf.drain(..));
    }
    rings.retain(|ring| {
        // The registry and the owner's thread-local each hold one Arc;
        // a count of 1 means the owner's thread-local was destroyed, so
        // no further records can ever land in this ring.
        if Arc::strong_count(ring) > 1 {
            return true;
        }
        // The owner may have emitted between this drain's collect pass
        // and now, then exited (emitters never hold the registry lock, so
        // the collect pass does not fence them out). Those records are
        // already in the ring and the count of 1 proves no more can come:
        // sweep them into this drain before pruning, or they would be
        // silently discarded with the ring.
        // lint:allow(lock_scope) — same deliberate registry→ring nesting as the drain loop above
        let mut g = ring.lock();
        all.extend(g.buf.drain(..));
        let orphaned = g.overwritten;
        if orphaned > 0 {
            PRUNED_OVERWRITTEN.fetch_add(orphaned, Ordering::Relaxed); // ordering: plain counter accumulation; read only via dropped() which tolerates any interleaving
        }
        false
    });
    drop(rings);
    all.sort_by_key(|r| r.seq);
    all
}

/// Total records overwritten (lost to ring wraparound) since the last
/// [`clear`], summed over all threads — including threads whose rings
/// were pruned after they exited. Non-zero means drained logs have
/// sequence gaps.
pub fn dropped() -> u64 {
    let rings = registry().lock();
    let live: u64 = rings
        .iter()
        // lint:allow(lock_scope) — deliberate registry→ring nesting, see drain(); emitters never hold a ring lock while taking the registry
        .map(|r| r.lock().overwritten)
        .sum();
    live + PRUNED_OVERWRITTEN.load(Ordering::Relaxed) // ordering: monotonic counter read; staleness only under-reports momentarily
}

/// Discards all buffered records and resets overwrite counters (both live
/// rings and the orphan total). Sequence numbers are *not* reset — they
/// are absolute for the process lifetime.
pub fn clear() {
    let rings = registry().lock();
    for ring in rings.iter() {
        // lint:allow(lock_scope) — deliberate registry→ring nesting, see drain(); emitters never hold a ring lock while taking the registry
        let mut g = ring.lock();
        g.buf.clear();
        g.overwritten = 0;
    }
    drop(rings);
    PRUNED_OVERWRITTEN.store(0, Ordering::Relaxed); // ordering: reset of a best-effort loss counter; racing emitters may re-add immediately, which clear() cannot prevent at any ordering
}

/// Number of per-thread rings currently registered: live emitting threads
/// plus exited threads whose rings the next [`drain`] will prune.
pub fn active_rings() -> usize {
    registry().lock().len()
}

#[cfg(test)]
pub(crate) fn test_guard() -> choir_sync::MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD.lock()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceLevel;

    fn span(stage: &'static str) -> TraceEvent {
        TraceEvent::SpanEnter { stage }
    }

    #[test]
    fn ring_overwrites_oldest_and_counts() {
        let mut ring = Ring::new(3);
        for i in 0..5u64 {
            ring.push(Record {
                seq: i,
                thread: 0,
                event: span("dechirp"),
            });
        }
        assert_eq!(ring.overwritten, 2);
        let seqs: Vec<u64> = ring.buf.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4], "oldest records must be evicted");
    }

    #[test]
    fn drain_merges_threads_in_sequence_order() {
        let _g = test_guard();
        crate::set_level(TraceLevel::Full);
        clear();
        let _ = drain();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..25 {
                        crate::full(|| span("refine"));
                    }
                })
            })
            .collect();
        for t in threads {
            let _ = t.join();
        }
        crate::full(|| span("sic"));
        let log = drain();
        crate::set_level(TraceLevel::Off);
        assert_eq!(log.len(), 101);
        for pair in log.windows(2) {
            assert!(pair[0].seq < pair[1].seq, "drain must sort by sequence");
        }
        let distinct: std::collections::HashSet<u64> = log.iter().map(|r| r.thread).collect();
        assert!(distinct.len() >= 4, "expected records from worker threads");
        assert!(drain().is_empty(), "drain must consume the buffers");
    }

    #[test]
    fn record_json_is_one_object_per_line() {
        let r = Record {
            seq: 7,
            thread: 1,
            event: TraceEvent::StationShed {
                slot_start: 4096,
                reason: crate::ShedReason::QueueFull,
            },
        };
        let j = r.to_json();
        assert!(j.starts_with("{\"seq\": 7, \"thread\": 1, \"kind\": \"station_shed\""));
        assert!(j.contains("\"reason\": \"queue_full\""));
        assert!(!j.contains('\n'));
    }

    #[test]
    fn thread_churn_does_not_leak_rings() {
        let _g = test_guard();
        crate::set_level(TraceLevel::Full);
        clear();
        let _ = drain();
        let baseline = active_rings();
        for round in 0..30 {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    std::thread::spawn(|| {
                        crate::full(|| span("churn"));
                    })
                })
                .collect();
            for w in workers {
                let _ = w.join();
            }
            // The four exited workers' rings are drained and pruned here;
            // join() guarantees their thread-locals were destroyed first.
            let log = drain();
            assert!(
                log.iter()
                    .filter(
                        |r| matches!(r.event, TraceEvent::SpanEnter { stage } if stage == "churn")
                    )
                    .count()
                    >= 4,
                "round {round}: churn records must survive until the prune"
            );
            assert!(
                active_rings() <= baseline + 1,
                "round {round}: registry grew to {} rings (baseline {baseline}) — churned threads are leaking",
                active_rings()
            );
        }
        crate::set_level(TraceLevel::Off);
    }

    #[test]
    fn pruned_rings_keep_their_overwrite_counts() {
        let _g = test_guard();
        crate::set_level(TraceLevel::Full);
        clear();
        let _ = drain();
        let cap = capacity();
        let worker = std::thread::spawn(move || {
            for _ in 0..cap + 5 {
                crate::full(|| span("overflow"));
            }
        });
        let _ = worker.join();
        let lost_before = dropped();
        assert!(lost_before >= 5, "worker must have overwritten records");
        let _ = drain();
        assert_eq!(
            dropped(),
            lost_before,
            "pruning the exited worker's ring must not erase its loss count"
        );
        clear();
        assert_eq!(dropped(), 0, "clear must reset the orphan total too");
        crate::set_level(TraceLevel::Off);
    }

    #[test]
    fn set_capacity_reports_frozen_capacity() {
        // Freeze (this test may race others in the binary for who froze
        // first, so only assert the post-freeze contract).
        let frozen = match set_capacity(1 << 14) {
            Ok(()) => 1 << 14,
            Err(CapacityFrozen { current }) => current,
        };
        assert_eq!(
            set_capacity(frozen),
            Ok(()),
            "re-setting the frozen value is idempotent"
        );
        assert_eq!(
            set_capacity(frozen + 1),
            Err(CapacityFrozen { current: frozen }),
            "a different value must report the capacity in effect"
        );
    }
}
