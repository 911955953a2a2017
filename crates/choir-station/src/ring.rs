//! Bounded sample ring with absolute stream addressing and explicit
//! overflow accounting.
//!
//! The workspace confines `unsafe` to the SIMD backend leaves (the
//! `simd_boundary` lint), so this is not a literal atomic SPSC
//! queue; it is the single-owner safe equivalent with the same contract
//! the station needs from one: **bounded memory, a never-blocking
//! producer, and loud accounting**. `push` never blocks and never grows
//! the buffer — when the producer outruns the consumer the oldest samples
//! are overwritten and *counted*, and any later attempt to read a range
//! that included them fails with a typed [`RingGap`] instead of returning
//! silently corrupt IQ.
//!
//! Samples are addressed by their **absolute stream index** (sample 0 is
//! the first sample ever pushed), which is what makes capture cutting
//! across chunk boundaries trivial: the slot scheduler talks in absolute
//! indices and never needs to know where the ring wrapped.

use choir_dsp::complex::C64;

/// A requested range was no longer (or not yet) resident in the ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RingGap {
    /// Requested range start (absolute sample index).
    pub lo: u64,
    /// Requested range end (exclusive).
    pub hi: u64,
    /// Oldest sample still resident when the request failed.
    pub tail: u64,
    /// One past the newest sample pushed.
    pub head: u64,
}

impl std::fmt::Display for RingGap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ring gap: requested [{}, {}) but resident range is [{}, {})",
            self.lo, self.hi, self.tail, self.head
        )
    }
}

impl std::error::Error for RingGap {}

/// Fixed-capacity ring over complex IQ samples, addressed by absolute
/// stream index.
#[derive(Clone, Debug)]
pub struct SampleRing {
    buf: Vec<C64>,
    /// Absolute index of the oldest sample still resident.
    tail: u64,
    /// Absolute index one past the newest sample (= total samples pushed).
    head: u64,
    /// Total samples overwritten before being consumed.
    overwritten: u64,
}

impl SampleRing {
    /// A ring holding at most `capacity` samples (at least one).
    pub fn with_capacity(capacity: usize) -> Self {
        SampleRing {
            buf: vec![C64::ZERO; capacity.max(1)],
            tail: 0,
            head: 0,
            overwritten: 0,
        }
    }

    /// Maximum resident samples.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// One past the newest absolute sample index (total pushed).
    pub fn head(&self) -> u64 {
        self.head
    }

    /// Oldest absolute sample index still resident.
    pub fn tail(&self) -> u64 {
        self.tail
    }

    /// Currently resident samples.
    pub fn len(&self) -> usize {
        (self.head - self.tail) as usize
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.head == self.tail
    }

    /// Total samples ever overwritten before consumption.
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }

    /// Appends `chunk`, overwriting the oldest samples when full. Never
    /// blocks, never reallocates. Returns how many resident samples were
    /// overwritten (0 in the nominal, consumer-keeps-up regime).
    pub fn push(&mut self, chunk: &[C64]) -> u64 {
        let cap = self.buf.len();
        let head = self.head + chunk.len() as u64;
        // Only the newest `cap` samples of the stream stay resident.
        let tail = self.tail.max(head.saturating_sub(cap as u64));
        let dropped = tail - self.tail;
        // Of the chunk, what survives it; written at absolute index mod
        // capacity (resident data is always a contiguous absolute range,
        // however it wraps), in at most two copies.
        let mut rest = &chunk[chunk.len().saturating_sub(cap)..];
        let mut at = head - rest.len() as u64;
        while !rest.is_empty() {
            let pos = (at % cap as u64) as usize;
            let run = rest.len().min(cap - pos);
            self.buf[pos..pos + run].copy_from_slice(&rest[..run]);
            rest = &rest[run..];
            at += run as u64;
        }
        self.head = head;
        self.tail = tail;
        self.overwritten += dropped;
        if dropped > 0 {
            // Provenance: a wrap means ingest outran the decode side past
            // the ring capacity — any capture spanning the old tail will
            // later surface as a `ring_overrun` shed.
            choir_trace::full(|| choir_trace::TraceEvent::RingOverwrite {
                overwritten: dropped,
                tail: self.tail,
                head: self.head,
            });
        }
        dropped
    }

    /// Copies the absolute range `[lo, hi)` into `out` (cleared first).
    /// Fails with a [`RingGap`] if any part of the range was overwritten
    /// or has not been pushed yet.
    pub fn copy_range(&self, lo: u64, hi: u64, out: &mut Vec<C64>) -> Result<(), RingGap> {
        if lo > hi || lo < self.tail || hi > self.head {
            return Err(RingGap {
                lo,
                hi,
                tail: self.tail,
                head: self.head,
            });
        }
        let cap = self.buf.len() as u64;
        out.clear();
        out.reserve((hi - lo) as usize);
        for abs in lo..hi {
            out.push(self.buf[(abs % cap) as usize]);
        }
        Ok(())
    }

    /// Marks everything before absolute index `abs` as consumed, freeing
    /// it for overwrite without it counting as dropped. Clamped to the
    /// resident range; the tail never moves backwards.
    pub fn discard_until(&mut self, abs: u64) {
        self.tail = abs.clamp(self.tail, self.head);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use choir_dsp::complex::c64;

    fn seq(lo: usize, hi: usize) -> Vec<C64> {
        (lo..hi).map(|i| c64(i as f64, -(i as f64))).collect()
    }

    #[test]
    fn push_and_copy_roundtrip() {
        let mut r = SampleRing::with_capacity(16);
        assert!(r.is_empty());
        assert_eq!(r.push(&seq(0, 10)), 0);
        assert_eq!((r.tail(), r.head(), r.len()), (0, 10, 10));
        let mut out = Vec::new();
        r.copy_range(3, 8, &mut out).unwrap();
        assert_eq!(out, seq(3, 8));
        // Empty range is fine.
        r.copy_range(5, 5, &mut out).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn overflow_drops_oldest_and_counts() {
        let mut r = SampleRing::with_capacity(8);
        assert_eq!(r.push(&seq(0, 6)), 0);
        // 6 resident + 5 pushed = 11 > 8: three oldest overwritten.
        assert_eq!(r.push(&seq(6, 11)), 3);
        assert_eq!(r.overwritten(), 3);
        assert_eq!((r.tail(), r.head()), (3, 11));
        let mut out = Vec::new();
        r.copy_range(3, 11, &mut out).unwrap();
        assert_eq!(out, seq(3, 11));
        // The overwritten prefix is gone — loudly.
        let err = r.copy_range(2, 5, &mut out).unwrap_err();
        assert_eq!(err.tail, 3);
        // The future is not readable either.
        assert!(r.copy_range(9, 12, &mut out).is_err());
        assert!(r.copy_range(7, 3, &mut out).is_err());
    }

    #[test]
    fn discard_frees_without_counting() {
        let mut r = SampleRing::with_capacity(8);
        r.push(&seq(0, 8));
        r.discard_until(6);
        assert_eq!(r.len(), 2);
        // Re-fill: no overwrites needed now.
        assert_eq!(r.push(&seq(8, 14)), 0);
        assert_eq!(r.overwritten(), 0);
        // Tail never moves backwards, and never past head.
        r.discard_until(2);
        assert_eq!(r.tail(), 6);
        r.discard_until(1_000);
        assert_eq!(r.tail(), r.head());
    }

    #[test]
    fn push_is_the_sample_by_sample_ring() {
        // The push as it ran before it copied whole runs, kept as its
        // oracle: one sample at a time, the oldest dropped when full.
        fn push_by_sample(r: &mut SampleRing, chunk: &[C64]) -> u64 {
            let cap = r.buf.len() as u64;
            let mut dropped = 0;
            for &s in chunk {
                if r.head - r.tail == cap {
                    r.tail += 1;
                    dropped += 1;
                }
                r.buf[(r.head % cap) as usize] = s;
                r.head += 1;
            }
            r.overwritten += dropped;
            dropped
        }
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for cap in [1usize, 2, 7, 16] {
            let (mut got, mut want) = (
                SampleRing::with_capacity(cap),
                SampleRing::with_capacity(cap),
            );
            let mut next = 0;
            for _ in 0..400 {
                let len = rng.gen_range(0..=3 * cap);
                let chunk = seq(next, next + len);
                next += len;
                assert_eq!(
                    got.push(&chunk),
                    push_by_sample(&mut want, &chunk),
                    "cap {cap}"
                );
                assert_eq!(
                    (got.tail, got.head, got.overwritten),
                    (want.tail, want.head, want.overwritten)
                );
                assert_eq!(got.buf, want.buf, "cap {cap}");
                if rng.gen_bool(0.3) {
                    let until = rng.gen_range(got.tail..=got.head);
                    got.discard_until(until);
                    want.discard_until(until);
                }
            }
        }
    }

    #[test]
    fn chunk_larger_than_capacity() {
        let mut r = SampleRing::with_capacity(4);
        assert_eq!(r.push(&seq(0, 10)), 6);
        let mut out = Vec::new();
        r.copy_range(6, 10, &mut out).unwrap();
        assert_eq!(out, seq(6, 10));
    }
}
