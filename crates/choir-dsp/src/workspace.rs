//! Reusable scratch-buffer arena for the DSP hot path.
//!
//! The offset-search inner loop (Algorithm 1) evaluates thousands of
//! candidate offsets per slot; every evaluation used to allocate — and
//! immediately drop — full-length `Vec<C64>` temporaries for dechirped
//! windows, Bluestein convolution scratch and padded spectra. A
//! [`Workspace`] recycles those buffers: callers *take* a buffer of the
//! length they need and *put* it back when done, so steady-state
//! evaluation performs zero heap allocations (buffers grow to their
//! high-water capacity during warm-up and are reused thereafter).
//!
//! Two access styles are supported:
//!
//! * explicit threading — hot-path `_into` APIs (e.g.
//!   [`FftPlan::forward_padded_into`](crate::fft::FftPlan::forward_padded_into))
//!   take `&mut Workspace` so ownership is visible in the signature;
//! * a per-thread arena ([`with`], [`take`], [`put`]) for call sites that
//!   sit behind `&self` interfaces shared across worker threads (the
//!   estimator). Thread-locality means zero contention and, because the
//!   worker pool reuses OS threads across slots, buffers stay warm for a
//!   whole batch.
//!
//! Buffers are handed out zero-filled, so checked-out scratch never
//! observes stale data and results cannot depend on reuse history.

use crate::complex::C64;
use std::cell::{Cell, RefCell};

/// A scratch arena of `Vec<C64>`, `Vec<f64>` and `Vec<usize>` buffers
/// keyed by requested length.
///
/// See the module docs for the ownership model. A `Workspace` is cheap to
/// construct (no allocation until first use) and deliberately `!Sync`:
/// share one per thread, not one per process. Complex, real and index
/// buffers live in separate pools so a checkout never has to transmute
/// or split capacity between element types.
#[derive(Debug, Default)]
pub struct Workspace {
    free: Vec<Vec<C64>>,
    free_f64: Vec<Vec<f64>>,
    free_idx: Vec<Vec<usize>>,
}

/// Best-fit checkout shared by both pools: prefer the smallest pooled
/// buffer whose capacity already fits `len` (no allocation); otherwise
/// grow the largest pooled buffer or, if the pool is empty, allocate a
/// fresh one. The buffer comes back cleared and zero-filled to `len`.
fn best_fit<T: Clone + Default>(free: &mut Vec<Vec<T>>, len: usize) -> Vec<T> {
    let mut pick: Option<usize> = None;
    for (i, buf) in free.iter().enumerate() {
        let better = match pick {
            None => true,
            Some(j) => {
                let (pc, bc) = (free[j].capacity(), buf.capacity());
                if pc >= len {
                    bc >= len && bc < pc
                } else {
                    bc > pc
                }
            }
        };
        if better {
            pick = Some(i);
        }
    }
    let mut buf = match pick {
        Some(i) => free.swap_remove(i),
        None => Vec::with_capacity(len),
    };
    buf.clear();
    buf.resize(len, T::default());
    buf
}

impl Workspace {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks out a zero-filled buffer of exactly `len` elements.
    ///
    /// Prefers the smallest pooled buffer whose capacity already fits
    /// `len` (no allocation); otherwise grows the largest pooled buffer
    /// or, if the pool is empty, allocates a fresh one.
    pub fn take(&mut self, len: usize) -> Vec<C64> {
        best_fit(&mut self.free, len)
    }

    /// Returns a buffer to the arena for later reuse.
    ///
    /// The contents are irrelevant — [`take`](Self::take) re-zeroes on
    /// checkout. Zero-capacity buffers are dropped rather than pooled.
    pub fn put(&mut self, buf: Vec<C64>) {
        if buf.capacity() > 0 {
            self.free.push(buf);
        }
    }

    /// Checks out a zero-filled real (`f64`) buffer of exactly `len`
    /// elements, with the same best-fit policy as [`take`](Self::take).
    /// Used by the magnitude/median scratch in `peaks`.
    pub fn take_f64(&mut self, len: usize) -> Vec<f64> {
        best_fit(&mut self.free_f64, len)
    }

    /// Returns a real buffer taken via [`take_f64`](Self::take_f64) to
    /// the arena. Zero-capacity buffers are dropped rather than pooled.
    pub fn put_f64(&mut self, buf: Vec<f64>) {
        if buf.capacity() > 0 {
            self.free_f64.push(buf);
        }
    }

    /// Checks out a zero-filled index (`usize`) buffer of exactly `len`
    /// elements, with the same best-fit policy as [`take`](Self::take).
    /// Used by the candidate list and the mask bitset in `peaks`.
    pub fn take_idx(&mut self, len: usize) -> Vec<usize> {
        best_fit(&mut self.free_idx, len)
    }

    /// Returns an index buffer taken via [`take_idx`](Self::take_idx) to
    /// the arena. Zero-capacity buffers are dropped rather than pooled.
    pub fn put_idx(&mut self, buf: Vec<usize>) {
        if buf.capacity() > 0 {
            self.free_idx.push(buf);
        }
    }

    /// Number of buffers currently pooled (checked in, not checked
    /// out), across all element types.
    pub fn pooled(&self) -> usize {
        self.free.len() + self.free_f64.len() + self.free_idx.len()
    }

    /// Largest capacity among the pooled real (`f64`) buffers, zero when
    /// none is pooled — what a test reads to see that a hot path's real
    /// scratch did come back to this arena.
    pub fn pooled_f64_capacity(&self) -> usize {
        self.free_f64.iter().map(Vec::capacity).max().unwrap_or(0)
    }
}

thread_local! {
    static THREAD_ARENA: RefCell<Workspace> = RefCell::new(Workspace::new());
    /// Calls of [`with`] on this thread that found the arena borrowed.
    static REENTRIES: Cell<usize> = const { Cell::new(0) };
}

/// Runs `f` with exclusive access to the calling thread's arena.
///
/// Re-entrant calls (an `f` that itself calls [`with`], or one of the
/// free [`take`]/[`put`] helpers built on it) do not deadlock or panic:
/// the inner call falls back to a fresh temporary arena, which is
/// correct (buffers are zeroed on checkout) but forgoes reuse — every
/// checkout is a `malloc` and every return a `free`. Keep hot paths to a
/// single `with` at the entry point and thread `&mut Workspace`
/// explicitly below it, or end the borrow before calling anything that
/// opens its own; [`reentries`] counts the calls that fell back, so a
/// test can hold a path to zero.
pub fn with<R>(f: impl FnOnce(&mut Workspace) -> R) -> R {
    THREAD_ARENA.with(|cell| match cell.try_borrow_mut() {
        Ok(mut ws) => f(&mut ws),
        Err(_) => {
            REENTRIES.with(|c| c.set(c.get() + 1));
            f(&mut Workspace::new())
        }
    })
}

/// How many [`with`] calls on this thread, since it started, found the
/// arena already borrowed and ran on a throw-away one instead.
pub fn reentries() -> usize {
    REENTRIES.with(Cell::get)
}

/// Checks out a zero-filled buffer from the calling thread's arena.
///
/// Unlike [`with`], the arena is only borrowed for the duration of the
/// checkout itself, so `take`/[`put`] pairs can never conflict with an
/// enclosing scope.
pub fn take(len: usize) -> Vec<C64> {
    with(|ws| ws.take(len))
}

/// Returns a buffer taken via [`take`] to the calling thread's arena.
pub fn put(buf: Vec<C64>) {
    with(|ws| ws.put(buf));
}

/// Checks out a zero-filled `f64` buffer from the calling thread's
/// arena (see [`take`]).
pub fn take_f64(len: usize) -> Vec<f64> {
    with(|ws| ws.take_f64(len))
}

/// Returns a buffer taken via [`take_f64`] to the calling thread's
/// arena.
pub fn put_f64(buf: Vec<f64>) {
    with(|ws| ws.put_f64(buf));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_returns_zeroed_buffer_of_requested_len() {
        let mut ws = Workspace::new();
        let buf = ws.take(7);
        assert_eq!(buf.len(), 7);
        assert!(buf.iter().all(|v| v.re == 0.0 && v.im == 0.0));
    }

    #[test]
    fn put_then_take_reuses_allocation() {
        let mut ws = Workspace::new();
        let mut buf = ws.take(16);
        buf[3] = crate::complex::c64(1.5, -2.5);
        let ptr = buf.as_ptr();
        let cap = buf.capacity();
        ws.put(buf);
        let again = ws.take(16);
        assert_eq!(
            again.as_ptr(),
            ptr,
            "same-length take must reuse the buffer"
        );
        assert_eq!(again.capacity(), cap);
        assert!(
            again.iter().all(|v| v.re == 0.0 && v.im == 0.0),
            "re-zeroed"
        );
    }

    #[test]
    fn smaller_take_reuses_larger_buffer_without_alloc() {
        let mut ws = Workspace::new();
        let big = ws.take(64);
        let ptr = big.as_ptr();
        ws.put(big);
        let small = ws.take(8);
        assert_eq!(small.len(), 8);
        assert_eq!(small.as_ptr(), ptr);
    }

    #[test]
    fn best_fit_prefers_tightest_capacity() {
        let mut ws = Workspace::new();
        let small = ws.take(8);
        let big = ws.take(64);
        let small_ptr = small.as_ptr();
        ws.put(small);
        ws.put(big);
        let got = ws.take(8);
        assert_eq!(
            got.as_ptr(),
            small_ptr,
            "should pick the 8-cap buffer, not the 64-cap one"
        );
        assert_eq!(ws.pooled(), 1);
    }

    #[test]
    fn f64_pool_is_separate_and_reuses() {
        let mut ws = Workspace::new();
        let mut r = ws.take_f64(32);
        r[5] = 7.25;
        let ptr = r.as_ptr();
        ws.put_f64(r);
        assert_eq!(ws.pooled(), 1);
        // A complex checkout must not consume the real buffer.
        let c = ws.take(32);
        assert_eq!(ws.pooled(), 1);
        ws.put(c);
        let again = ws.take_f64(32);
        assert_eq!(again.as_ptr(), ptr, "same-length take_f64 must reuse");
        assert!(again.iter().all(|&v| v == 0.0), "re-zeroed");
    }

    #[test]
    fn thread_local_helpers_roundtrip() {
        let buf = take(12);
        assert_eq!(buf.len(), 12);
        put(buf);
        let buf2 = take(12);
        assert_eq!(buf2.len(), 12);
        put(buf2);
    }

    #[test]
    fn reentrant_with_falls_back_to_fresh_arena() {
        let before = reentries();
        let out = with(|outer| {
            let a = outer.take(4);
            let inner_len = with(|inner| inner.take(4).len());
            outer.put(a);
            inner_len
        });
        assert_eq!(out, 4);
        // Counted, and only the inner call: the free helpers outside a
        // `with` borrow the arena themselves and fall back on nothing.
        assert_eq!(reentries(), before + 1);
        put_f64(take_f64(4));
        assert_eq!(reentries(), before + 1);
        with(|_| put(take(4)));
        assert_eq!(reentries(), before + 3);
    }
}
