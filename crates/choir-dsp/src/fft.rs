//! Fast Fourier transforms.
//!
//! Choir's decoder takes one FFT per received symbol (size `2^SF`) plus a
//! zero-padded FFT (`pad · 2^SF`, the paper uses `pad = 10`) per offset
//! estimate. The approved dependency set has no FFT crate, so this module
//! implements:
//!
//! * an iterative radix-2 decimation-in-time FFT for power-of-two sizes,
//! * Bluestein's chirp-z algorithm for arbitrary sizes (e.g. `10·128`),
//!   built on top of the radix-2 kernel, and
//! * the zero-padded spectrum of a power-of-two input as short radix-2
//!   transforms ([`FftPlan::forward_padded_into`]): `live = 2^q` samples
//!   padded to `N = P·live` points are `P` transforms of `live` points,
//!   one per residue of the output bin mod `P`, each of the input turned
//!   by one row of a twiddle table. The paper's `10·2^SF` spectrum is ten
//!   `2^SF`-point transforms, not a Bluestein convolution of `32·2^SF`.
//!
//! [`FftPlan`] precomputes twiddle factors (for Bluestein, the chirp
//! sequence and its transform; for padded inputs, the `N`-entry table and
//! the short plans) once; planning is cheap enough to do per
//! experiment but should be hoisted out of per-symbol loops. Call sites
//! that cannot hoist (one-shot helpers, variable sizes) go through the
//! process-wide [`PlanCache`] so twiddle/Bluestein setup is paid once per
//! size per process.

use crate::backend::Twiddles;
use crate::complex::C64;
use crate::workspace::{self, Workspace};
use choir_sync::{Mutex, OnceLock};
use std::collections::HashMap;
use std::sync::Arc;

/// Sign convention: forward transform uses `e^{-j2πkn/N}`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Direction {
    Forward,
    Inverse,
}

/// A reusable FFT plan for a fixed size `n` (any `n ≥ 1`).
#[derive(Clone, Debug)]
pub struct FftPlan {
    n: usize,
    kind: PlanKind,
    split: Split,
}

/// What [`FftPlan::forward_padded_into`] transforms a zero-padded
/// power-of-two input with, built with the plan.
#[derive(Clone, Debug)]
struct Split {
    /// `W_N^i = e^{−j2πi/N}` for `i < N`: branch `k` turns sample `t` by
    /// entry `k·t`, which is below `N` because `k < N/live` and `t < live`.
    twiddles: Vec<C64>,
    /// `short[q]` transforms `2^q` points, for every `2^q < N` that
    /// divides `N`.
    short: Vec<Radix2>,
}

impl Split {
    fn new(n: usize) -> Self {
        let twiddles = (0..n)
            .map(|i| C64::cis(-2.0 * std::f64::consts::PI * i as f64 / n as f64))
            .collect();
        let short = (0..=n.trailing_zeros())
            .map(|q| 1usize << q)
            .take_while(|&len| len < n)
            .map(Radix2::new)
            .collect();
        Split { twiddles, short }
    }
}

#[derive(Clone, Debug)]
enum PlanKind {
    /// `n` is a power of two.
    Radix2(Radix2),
    /// Arbitrary `n` via Bluestein's algorithm: an `m`-point radix-2
    /// convolution with the chirp sequence `e^{-jπk²/n}`.
    Bluestein {
        /// The inner power-of-two convolution, length `m ≥ 2n-1`.
        inner: Radix2,
        /// `rev[i]` is `i` with its `log2 m` bits reversed: where sample
        /// `i` of the convolution input sits after the permutation.
        rev: Vec<u32>,
        /// `b[k] = e^{-jπ k²/n}` for `k in 0..n`.
        chirp: Vec<C64>,
        /// Forward `m`-point transform of the zero-extended conjugate
        /// chirp, stored in bit-reversed order (`chirp_ft_rev[i]` is bin
        /// `rev[i]`): the order the inverse transform's butterflies read.
        chirp_ft_rev: Vec<C64>,
    },
}

/// Iterative radix-2 decimation-in-time transform of one power-of-two
/// length: the twiddle tables and the bit-reversal permutation, both
/// built with the plan.
#[derive(Clone, Debug)]
struct Radix2 {
    /// `e^{-j2πk/n}` for `k < n/2`, compact and regrouped by pass.
    twiddles: Twiddles,
    /// The bit reversal as the transpositions it is made of: every
    /// `(i, rev(i))` with `i < rev(i)`, ascending in `i`. A permutation
    /// is not arithmetic — applying it from a table moves the same
    /// samples to the same places as walking a carry chain per index.
    swaps: Vec<(u32, u32)>,
}

/// `rev(i)` for every `i < n` (`n` a power of two): `i` with its `log2 n`
/// bits reversed.
fn bit_reversal(n: usize) -> Vec<u32> {
    assert!(
        n.is_power_of_two() && n <= 1 << 31,
        "bit_reversal: {n} is not a power of two an index table can hold"
    );
    if n == 1 {
        return vec![0];
    }
    let shift = u32::BITS - n.trailing_zeros();
    // lint:allow(lossy_cast) — n ≤ 2^31, asserted above.
    (0..n as u32).map(|i| i.reverse_bits() >> shift).collect()
}

impl Radix2 {
    fn new(n: usize) -> Self {
        let twiddles = Twiddles::new(n);
        let swaps = bit_reversal(n)
            .into_iter()
            .enumerate()
            .filter(|&(i, r)| i < r as usize)
            // lint:allow(lossy_cast) — i < r, and r is a u32.
            .map(|(i, r)| (i as u32, r))
            .collect();
        Radix2 { twiddles, swaps }
    }

    /// The bit-reversal permutation, in place.
    // hot:noalloc — swaps inside the caller's buffer.
    fn permute(&self, x: &mut [C64]) {
        for &(i, j) in &self.swaps {
            x.swap(i as usize, j as usize);
        }
    }

    /// Permutation, then every butterfly pass — the backend's job (the
    /// scalar oracle and the SIMD paths are bit-identical).
    // hot:noalloc — in place.
    fn transform(&self, x: &mut [C64], dir: Direction) {
        self.permute(x);
        crate::backend::butterflies(x, &self.twiddles, dir == Direction::Forward);
    }
}

impl FftPlan {
    /// Plans a transform of length `n`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "FftPlan: size must be non-zero");
        let split = Split::new(n);
        if n.is_power_of_two() {
            FftPlan {
                n,
                kind: PlanKind::Radix2(Radix2::new(n)),
                split,
            }
        } else {
            // Bluestein: X[k] = b[k] · Σ_n x[n] b[n] · conj(b[k-n])
            // — a linear convolution of a[n] = x[n]b[n] with conj(b),
            // computed as a circular convolution of length m ≥ 2n-1.
            let m = (2 * n - 1).next_power_of_two();
            let inner = Radix2::new(m);
            let chirp: Vec<C64> = (0..n)
                .map(|k| {
                    // k² mod 2n avoids precision loss for large k.
                    let ksq = (k as u64 * k as u64) % (2 * n as u64);
                    C64::cis(-std::f64::consts::PI * ksq as f64 / n as f64)
                })
                .collect();
            let mut c = vec![C64::ZERO; m];
            c[0] = chirp[0].conj();
            for k in 1..n {
                let v = chirp[k].conj();
                c[k] = v;
                c[m - k] = v;
            }
            inner.transform(&mut c, Direction::Forward);
            let rev = bit_reversal(m);
            let chirp_ft_rev = rev.iter().map(|&r| c[r as usize]).collect();
            FftPlan {
                n,
                kind: PlanKind::Bluestein {
                    inner,
                    rev,
                    chirp,
                    chirp_ft_rev,
                },
                split,
            }
        }
    }

    /// Transform length this plan was built for.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false — a plan has length ≥ 1 by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    fn transform(&self, x: &mut [C64], dir: Direction) {
        workspace::with(|ws| self.transform_ws(x, dir, ws));
    }

    /// Transforms `x` in place.
    // hot:noalloc — the Bluestein convolution scratch comes from the
    // workspace arena; steady-state transforms are allocation-free.
    fn transform_ws(&self, x: &mut [C64], dir: Direction, ws: &mut Workspace) {
        debug_assert_eq!(x.len(), self.n);
        match &self.kind {
            PlanKind::Radix2(inner) => inner.transform(x, dir),
            PlanKind::Bluestein {
                inner,
                rev,
                chirp,
                chirp_ft_rev,
            } => {
                let n = self.n;
                let m = rev.len();
                // The inverse transform is the conjugated forward transform:
                // conjugate in, run forward Bluestein, conjugate out.
                if dir == Direction::Inverse {
                    for v in x.iter_mut() {
                        *v = v.conj();
                    }
                }
                let mut a = ws.take(m);
                for k in 0..n {
                    a[k] = x[k] * chirp[k];
                }
                inner.transform(&mut a, Direction::Forward);
                // The point-wise product with the kernel's transform and
                // the inverse transform's permutation, in one gather.
                let mut b = ws.take(m);
                for ((bv, &r), cv) in b.iter_mut().zip(rev).zip(chirp_ft_rev) {
                    *bv = a[r as usize] * cv;
                }
                ws.put(a);
                crate::backend::butterflies(&mut b, &inner.twiddles, false);
                // The private inverse kernel is unnormalised; fold the 1/m in
                // here.
                let scale = 1.0 / m as f64;
                for k in 0..n {
                    x[k] = (b[k] * chirp[k]).scale(scale);
                }
                ws.put(b);
                if dir == Direction::Inverse {
                    for v in x.iter_mut() {
                        *v = v.conj();
                    }
                }
            }
        }
    }

    /// In-place forward transform. `x.len()` must equal [`Self::len`].
    ///
    /// Debug builds verify Parseval's theorem across the boundary
    /// (`‖X‖² = N·‖x‖²`); release builds skip the scan entirely.
    pub fn forward(&self, x: &mut [C64]) {
        workspace::with(|ws| self.forward_into(x, ws));
    }

    /// In-place forward transform drawing any internal scratch (the
    /// Bluestein convolution buffers) from `ws` instead of the heap.
    /// `x.len()` must equal [`Self::len`]. Steady-state calls perform no
    /// allocation; [`Self::forward`] is a thin shim over this using the
    /// per-thread arena.
    // hot:noalloc — scratch comes from the caller's workspace arena.
    pub fn forward_into(&self, x: &mut [C64], ws: &mut Workspace) {
        assert_eq!(x.len(), self.n, "forward: buffer length != plan length");
        #[cfg(debug_assertions)]
        let time_energy = crate::complex::energy(x);
        self.transform_ws(x, Direction::Forward, ws);
        #[cfg(debug_assertions)]
        crate::checks::assert_parseval("FftPlan::forward", time_energy, x);
    }

    /// In-place inverse transform, normalised by `1/n` so that
    /// `inverse(forward(x)) == x`.
    ///
    /// Debug builds verify Parseval's theorem across the boundary;
    /// release builds skip the scan entirely.
    pub fn inverse(&self, x: &mut [C64]) {
        assert_eq!(x.len(), self.n, "inverse: buffer length != plan length");
        #[cfg(debug_assertions)]
        let freq_energy = crate::complex::energy(x);
        self.transform(x, Direction::Inverse);
        let s = 1.0 / self.n as f64;
        for v in x.iter_mut() {
            *v = v.scale(s);
        }
        #[cfg(debug_assertions)]
        crate::checks::assert_parseval_energies(
            "FftPlan::inverse",
            crate::complex::energy(x),
            freq_energy,
            self.n,
        );
    }

    /// Writes the forward transform of `x`, zero-padded (or truncated) to
    /// the plan length, into `out`, which must be exactly that length —
    /// the "dechirp then pad by 10×" call of the Choir pipeline. Scratch
    /// comes from `ws`.
    ///
    /// When `live = min(x.len(), N)` is a power of two below the plan
    /// length `N` that divides it, the spectrum is `P = N/live` short
    /// transforms: bin `m·P + k` is `Σ_t x[t]·W_N^{(m·P + k)·t} = Σ_t
    /// (x[t]·W_N^{k·t})·W_live^{m·t}`, bin `m` of the `live`-point
    /// transform of `x` turned by row `k` of the plan's twiddle table —
    /// `P` radix-2 transforms of `live` points instead of one of `N` (or
    /// a Bluestein convolution of `≥ 2N`). Any other input is padded by
    /// hand and transformed whole. Debug builds verify Parseval's theorem
    /// on either path.
    // hot:noalloc — output and scratch are caller-provided.
    pub fn forward_padded_into(&self, x: &[C64], out: &mut [C64], ws: &mut Workspace) {
        assert_eq!(
            out.len(),
            self.n,
            "forward_padded_into: output length != plan length"
        );
        let x = &x[..x.len().min(self.n)];
        let live = x.len();
        if !(live.is_power_of_two() && live < self.n && self.n.is_multiple_of(live)) {
            out[..live].copy_from_slice(x);
            out[live..].fill(C64::ZERO);
            return self.forward_into(out, ws);
        }
        #[cfg(debug_assertions)]
        let time_energy = crate::complex::energy(x);
        let short = &self.split.short[live.trailing_zeros() as usize];
        let branches = self.n / live;
        let tw = &self.split.twiddles;
        let mut turned = ws.take(live);
        for k in 0..branches {
            for (t, (v, &xt)) in turned.iter_mut().zip(x).enumerate() {
                *v = xt * tw[k * t];
            }
            short.transform(&mut turned, Direction::Forward);
            for (bins, &v) in out.chunks_exact_mut(branches).zip(&turned) {
                bins[k] = v;
            }
        }
        ws.put(turned);
        #[cfg(debug_assertions)]
        crate::checks::assert_parseval("FftPlan::forward_padded_into", time_energy, out);
    }
}

/// A thread-safe cache of [`FftPlan`]s keyed by transform size.
///
/// Planning a size costs an `O(n)` twiddle table (plus, for non-power-of-two
/// sizes, two Bluestein setup transforms); paying that inside per-symbol or
/// per-slot loops is pure waste. A cache instance hands out `Arc<FftPlan>`
/// so concurrent decoder workers share one immutable plan per size with no
/// copying and no locking on the transform itself — the mutex guards only
/// the map lookup/insert.
///
/// The cache holds at most [`MAX_CACHED_PLANS`] distinct sizes; asking for
/// more evicts the least-recently-used size (its `Arc` stays valid for
/// holders, only the cache entry is dropped). The Choir pipeline touches a
/// handful of sizes (`2^SF`, `2·2^SF`, `pad·2^SF`), so steady-state
/// decoding never evicts — the cap exists so long-lived daemons sweeping
/// many sizes (city-sim, channel surveys) cannot leak an unbounded plan
/// set.
#[derive(Debug, Default)]
pub struct PlanCache {
    state: Mutex<CacheState>,
}

/// Upper bound on distinct sizes a [`PlanCache`] retains at once.
///
/// Sized with headroom: a full decode pipeline touches ~6 sizes, a
/// multi-SF/multi-pad survey a couple dozen. Beyond the cap, the
/// least-recently-used size is evicted and will simply be re-planned on
/// its next use.
pub const MAX_CACHED_PLANS: usize = 32;

/// Map plus recency order, guarded by one mutex. `order` lists cached
/// sizes least-recently-used first; `map` and `order` always hold the
/// same key set.
#[derive(Debug, Default)]
struct CacheState {
    map: HashMap<usize, Arc<FftPlan>>,
    order: Vec<usize>,
}

impl CacheState {
    /// Marks `n` most-recently-used.
    fn touch(&mut self, n: usize) {
        if let Some(pos) = self.order.iter().position(|&k| k == n) {
            self.order.remove(pos);
        }
        self.order.push(n);
    }
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// Returns the cached plan for size `n`, planning it on first use.
    ///
    /// Planning happens *outside* the map lock: a Bluestein size runs two
    /// inner setup transforms, and holding the lock across that would
    /// stall every concurrent worker's plan lookup. Two threads racing
    /// the first request for a size may both plan it; the insert is
    /// double-checked and the first `Arc` in wins, so all callers still
    /// share one plan.
    ///
    /// # Panics
    /// Panics if `n == 0` (as [`FftPlan::new`] does).
    pub fn get(&self, n: usize) -> Arc<FftPlan> {
        if let Some(plan) = self.lookup(n) {
            return plan;
        }
        let fresh = Arc::new(FftPlan::new(n));
        self.insert(n, fresh)
    }

    /// Lock, probe, and touch — one short critical section.
    fn lookup(&self, n: usize) -> Option<Arc<FftPlan>> {
        // The facade lock recovers from poisoning: another thread
        // panicking mid-insert leaves the map structurally valid.
        let mut state = self.state.lock();
        let plan = state.map.get(&n).map(Arc::clone)?;
        state.touch(n);
        Some(plan)
    }

    /// Double-checked insert of a freshly planned size: if another
    /// thread won the race, its entry (the first `Arc`) is returned and
    /// `fresh` is dropped. Evicts the least-recently-used size when the
    /// cache is full.
    fn insert(&self, n: usize, fresh: Arc<FftPlan>) -> Arc<FftPlan> {
        let mut state = self.state.lock();
        if let Some(existing) = state.map.get(&n) {
            let plan = Arc::clone(existing);
            state.touch(n);
            return plan;
        }
        if state.map.len() >= MAX_CACHED_PLANS {
            let victim = state.order.remove(0);
            state.map.remove(&victim);
        }
        state.map.insert(n, Arc::clone(&fresh));
        state.order.push(n);
        fresh
    }

    /// Number of distinct sizes currently cached.
    pub fn len(&self) -> usize {
        self.state.lock().map.len()
    }

    /// True when no size has been planned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Returns the process-wide cached plan for size `n` (planning it on first
/// use). This is the preferred way to obtain a plan outside hot loops that
/// can hoist their own [`FftPlan`].
///
/// # Panics
/// Panics if `n == 0`.
pub fn plan(n: usize) -> Arc<FftPlan> {
    static GLOBAL: OnceLock<PlanCache> = OnceLock::new();
    GLOBAL.get_or_init(PlanCache::new).get(n)
}

/// Reference O(n²) DFT, used by tests and available for tiny sizes.
pub fn dft_naive(x: &[C64]) -> Vec<C64> {
    let n = x.len();
    (0..n)
        .map(|k| {
            (0..n)
                .map(|m| {
                    x[m] * C64::cis(-2.0 * std::f64::consts::PI * (k * m % n) as f64 / n as f64)
                })
                .sum()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;

    /// The iterative radix-2 transform as it ran before the swap table:
    /// a carry chain walks the bit-reversed index. Kept as the oracle of
    /// the permutation and of everything built on it.
    fn radix2(x: &mut [C64], twiddles: &Twiddles, dir: Direction) {
        let n = x.len();
        if n <= 1 {
            return;
        }
        let mut j = 0usize;
        for i in 0..n - 1 {
            if i < j {
                x.swap(i, j);
            }
            let mut mask = n >> 1;
            while j & mask != 0 {
                j ^= mask;
                mask >>= 1;
            }
            j |= mask;
        }
        crate::backend::butterflies(x, twiddles, dir == Direction::Forward);
    }

    /// The forward transform as it ran before the pruned, permutation-
    /// fused Bluestein: three whole carry-loop transforms of `m` points
    /// and a point-wise product in natural order.
    fn reference_forward(x: &mut [C64]) {
        let n = x.len();
        if n.is_power_of_two() {
            return radix2(x, &Twiddles::new(n), Direction::Forward);
        }
        let m = (2 * n - 1).next_power_of_two();
        let tw = Twiddles::new(m);
        let chirp: Vec<C64> = (0..n)
            .map(|k| {
                let ksq = (k as u64 * k as u64) % (2 * n as u64);
                C64::cis(-std::f64::consts::PI * ksq as f64 / n as f64)
            })
            .collect();
        let mut c = vec![C64::ZERO; m];
        c[0] = chirp[0].conj();
        for k in 1..n {
            c[k] = chirp[k].conj();
            c[m - k] = chirp[k].conj();
        }
        radix2(&mut c, &tw, Direction::Forward);
        let mut a = vec![C64::ZERO; m];
        for k in 0..n {
            a[k] = x[k] * chirp[k];
        }
        radix2(&mut a, &tw, Direction::Forward);
        for (av, cv) in a.iter_mut().zip(&c) {
            *av = *av * cv;
        }
        radix2(&mut a, &tw, Direction::Inverse);
        for k in 0..n {
            x[k] = (a[k] * chirp[k]).scale(1.0 / m as f64);
        }
    }

    /// Values a permutation or a pruned pass could mishandle: distinct
    /// normals, huge and tiny magnitudes, denormals, both zeros.
    fn adversarial(i: usize) -> C64 {
        let v = (i as f64 * 0.618 + 0.3).sin() + 1.5;
        let w = (i as f64 * 1.414 + 0.7).cos() - 1.5;
        match i % 7 {
            0 => c64(v * 1e300, w),
            1 => c64(v, w * 1e-300),
            2 => c64(v * f64::MIN_POSITIVE / 4.0, w),
            3 => c64(0.0, w),
            4 => c64(v, -0.0),
            _ => c64(v + i as f64, w - i as f64),
        }
    }

    fn assert_bits(got: &[C64], want: &[C64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        let same = |g: f64, w: f64| g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan());
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                same(g.re, w.re) && same(g.im, w.im),
                "{what}: index {i}: {g:?} vs {w:?}"
            );
        }
    }

    #[test]
    fn swap_table_is_the_carry_loop() {
        for log2n in 0..=13 {
            let n = 1usize << log2n;
            let x: Vec<C64> = (0..n).map(adversarial).collect();
            let plan = Radix2::new(n);
            for dir in [Direction::Forward, Direction::Inverse] {
                let (mut got, mut want) = (x.clone(), x.clone());
                plan.transform(&mut got, dir);
                radix2(&mut want, &plan.twiddles, dir);
                assert_bits(&got, &want, &format!("n={n} {dir:?}"));
            }
            // The permutation alone: an involution that sends `i` to its
            // reversal, every transposition listed once.
            let mut idx: Vec<C64> = (0..n).map(|i| c64(i as f64, 0.0)).collect();
            plan.permute(&mut idx);
            let rev = bit_reversal(n);
            for (i, v) in idx.iter().enumerate() {
                assert_eq!(v.re as usize, rev[i] as usize, "n={n} i={i}");
                assert_eq!(rev[rev[i] as usize] as usize, i);
            }
        }
    }

    #[test]
    fn every_transform_is_the_carry_loop_formulation() {
        // Whole-buffer transforms of either kind: the swap table, the
        // pre-permuted kernel and the gather move no bit.
        for n in [1usize, 2, 3, 5, 12, 100, 256, 384, 640, 1280, 2560] {
            let x: Vec<C64> = (0..n)
                .map(|i| c64((i as f64 * 0.7).sin() + 2.0, (i as f64 * 1.3).cos() - 2.0))
                .collect();
            let (mut got, mut want) = (x.clone(), x);
            FftPlan::new(n).forward(&mut got);
            reference_forward(&mut want);
            assert_bits(&got, &want, &format!("n={n}"));
        }
    }

    /// Bins `0, stride, 2·stride, …` of [`dft_naive`] of `x` zero-padded to
    /// `len` points, without the zero terms: bin `k` is `Σ_t
    /// x[t]·e^{−j2π(k·t mod len)/len}` over the live samples only.
    fn padded_dft_naive(x: &[C64], len: usize, stride: usize) -> Vec<(usize, C64)> {
        (0..len)
            .step_by(stride)
            .map(|k| {
                let bin = x
                    .iter()
                    .enumerate()
                    .map(|(t, &v)| {
                        v * C64::cis(
                            -2.0 * std::f64::consts::PI * (k * t % len) as f64 / len as f64,
                        )
                    })
                    .sum();
                (k, bin)
            })
            .collect()
    }

    #[test]
    fn padded_transform_matches_the_naive_dft() {
        // Three symbol lengths, every pad up to 12, and inputs of the
        // symbol's length and half of it (split into short transforms),
        // of lengths that are no power of two (padded by hand: Bluestein
        // where the plan length is no power of two, radix-2 where it is)
        // and of twice the symbol (truncated when the plan is shorter).
        // Past SF7 a prime stride of bins is checked — 13 is coprime to
        // every branch count `N/live ≤ 24`, so every branch is read.
        // Bound: `1e-14·N` on samples of unit order. Measured worst: 1.4e-12
        // split, 2.1e-12 whole, both on 2 048 live samples, where the
        // oracle's own 2 048-term sums round as much (the hand-padded
        // whole transform of a split input reads the same error); at the
        // decoder's SF8 × 10 the split path reads 9.2e-14 where the
        // Bluestein convolution of the same window read 1.5e-13.
        let mut worst = [0.0f64; 2];
        for n in [128usize, 256, 1024] {
            let stride = if n == 128 { 1 } else { 13 };
            let x: Vec<C64> = (0..2 * n)
                .map(|i| c64((i as f64 * 0.37).sin() + 0.5, (i as f64 * 0.91).cos() - 0.5))
                .collect();
            for pad in 1..=12 {
                let len = n * pad;
                let plan = FftPlan::new(len);
                for live in [n, n / 2, n - 1, 3 * n / 4 + 1, 2 * n] {
                    let mut got = vec![C64::ONE; len];
                    workspace::with(|ws| plan.forward_padded_into(&x[..live], &mut got, ws));
                    let kept = live.min(len);
                    let err = padded_dft_naive(&x[..kept], len, stride)
                        .into_iter()
                        .map(|(k, want)| (got[k] - want).abs())
                        .fold(0.0, f64::max);
                    let split = kept.is_power_of_two() && kept < len && len.is_multiple_of(kept);
                    worst[usize::from(!split)] = worst[usize::from(!split)].max(err);
                    assert!(
                        err <= 1e-14 * len as f64,
                        "n={n} pad={pad} live={live}: error {err:e}"
                    );
                }
            }
        }
        assert!(worst[0] > 0.0 && worst[1] > 0.0, "{worst:?}");
    }

    #[test]
    fn padded_transform_reproduces_the_whole_transform_of_a_short_window() {
        // Where there is nothing to pad the split path is not taken, and
        // a padded call is the whole transform of the hand-padded buffer,
        // bit for bit.
        for (n, len) in [(256usize, 256usize), (96, 96), (100, 2560), (255, 2560)] {
            let x: Vec<C64> = (0..n)
                .map(|i| c64((i as f64 * 0.7).sin() + 2.0, (i as f64 * 1.3).cos() - 2.0))
                .collect();
            let plan = FftPlan::new(len);
            let mut got = vec![C64::ONE; len];
            workspace::with(|ws| plan.forward_padded_into(&x, &mut got, ws));
            let mut want = x.clone();
            want.resize(len, C64::ZERO);
            plan.forward(&mut want);
            assert_bits(&got, &want, &format!("n={n} len={len}"));
        }
    }

    fn assert_close(a: &[C64], b: &[C64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < tol, "index {i}: {x:?} vs {y:?} (tol {tol})");
        }
    }

    #[test]
    fn impulse_gives_flat_spectrum() {
        let mut y = vec![C64::ZERO; 8];
        y[0] = C64::ONE;
        plan(8).forward(&mut y);
        for v in &y {
            assert!((v - C64::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn single_tone_hits_single_bin() {
        let n = 64;
        let k0 = 5;
        let mut y: Vec<C64> = (0..n)
            .map(|t| C64::cis(2.0 * std::f64::consts::PI * k0 as f64 * t as f64 / n as f64))
            .collect();
        plan(n).forward(&mut y);
        for (k, v) in y.iter().enumerate() {
            if k == k0 {
                assert!((v.abs() - n as f64).abs() < 1e-9);
            } else {
                assert!(v.abs() < 1e-9, "bin {k} leaked {}", v.abs());
            }
        }
    }

    #[test]
    fn matches_naive_dft_pow2() {
        let x: Vec<C64> = (0..32)
            .map(|i| c64((i as f64 * 0.37).sin(), (i as f64 * 0.91).cos()))
            .collect();
        let mut y = x.clone();
        plan(32).forward(&mut y);
        assert_close(&y, &dft_naive(&x), 1e-9);
    }

    #[test]
    fn matches_naive_dft_arbitrary_sizes() {
        for n in [
            1usize, 2, 3, 5, 6, 7, 10, 12, 15, 17, 20, 48, 100, 160, 1280,
        ] {
            let x: Vec<C64> = (0..n)
                .map(|i| c64((i as f64 * 0.7).sin(), (i as f64 * 1.3).cos() * 0.5))
                .collect();
            let tol = 1e-7 * (n as f64).max(1.0);
            let mut y = x.clone();
            plan(n).forward(&mut y);
            assert_close(&y, &dft_naive(&x), tol);
        }
    }

    #[test]
    fn roundtrip_pow2() {
        let x: Vec<C64> = (0..128).map(|i| c64(i as f64, -(i as f64) * 0.5)).collect();
        let mut y = x.clone();
        plan(128).forward(&mut y);
        plan(128).inverse(&mut y);
        assert_close(&y, &x, 1e-9);
    }

    #[test]
    fn roundtrip_bluestein() {
        let x: Vec<C64> = (0..1280)
            .map(|i| c64((i as f64 * 0.123).sin(), (i as f64 * 0.456).cos()))
            .collect();
        let mut y = x.clone();
        plan(1280).forward(&mut y);
        plan(1280).inverse(&mut y);
        assert_close(&y, &x, 1e-7);
    }

    #[test]
    fn linearity() {
        let n = 40;
        let mut fa: Vec<C64> = (0..n).map(|i| c64(i as f64, 0.0)).collect();
        let mut fb: Vec<C64> = (0..n).map(|i| c64(0.0, (i as f64).sqrt())).collect();
        let mut fsum: Vec<C64> = fa.iter().zip(&fb).map(|(x, y)| x + y).collect();
        for v in [&mut fa, &mut fb, &mut fsum] {
            plan(n).forward(v);
        }
        let manual: Vec<C64> = fa.iter().zip(&fb).map(|(x, y)| x + y).collect();
        assert_close(&fsum, &manual, 1e-8);
    }

    #[test]
    fn parseval_energy_conserved() {
        let x: Vec<C64> = (0..256)
            .map(|i| c64((i as f64 * 0.05).sin(), (i as f64 * 0.02).cos()))
            .collect();
        let mut y = x.clone();
        plan(256).forward(&mut y);
        let ex = crate::complex::energy(&x);
        let ey = crate::complex::energy(&y) / x.len() as f64;
        assert!((ex - ey).abs() / ex < 1e-10);
    }

    #[test]
    fn forward_padded_zero_pads() {
        let plan = FftPlan::new(16);
        let x = [C64::ONE; 4];
        let mut y = vec![C64::ZERO; 16];
        workspace::with(|ws| plan.forward_padded_into(&x, &mut y, ws));
        // DC bin equals the sum of the input samples.
        assert!((y[0] - c64(4.0, 0.0)).abs() < 1e-12);
    }

    #[test]
    fn forward_padded_truncates() {
        let plan = FftPlan::new(4);
        let x = [C64::ONE; 8];
        let mut y = vec![C64::ZERO; 4];
        workspace::with(|ws| plan.forward_padded_into(&x, &mut y, ws));
        assert!((y[0] - c64(4.0, 0.0)).abs() < 1e-12);
    }

    #[test]
    fn zero_padding_interpolates_spectrum() {
        // A tone at fractional frequency: the padded spectrum's maximum must
        // land within one unpadded-bin of the true frequency, at 10× finer
        // resolution.
        let n = 128;
        let pad = 10;
        let f0 = 30.37; // cycles per n samples
        let x: Vec<C64> = (0..n)
            .map(|t| C64::cis(2.0 * std::f64::consts::PI * f0 * t as f64 / n as f64))
            .collect();
        let plan = FftPlan::new(n * pad);
        let mut y = vec![C64::ZERO; n * pad];
        workspace::with(|ws| plan.forward_padded_into(&x, &mut y, ws));
        let (kmax, _) = y
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.abs().total_cmp(&b.1.abs()))
            .unwrap();
        let est = kmax as f64 / pad as f64;
        assert!((est - f0).abs() < 0.06, "est {est} vs {f0}");
    }

    #[test]
    #[should_panic(expected = "size must be non-zero")]
    fn zero_size_plan_panics() {
        let _ = FftPlan::new(0);
    }

    #[test]
    fn plan_cache_reuses_plans() {
        let cache = PlanCache::new();
        assert!(cache.is_empty());
        let a = cache.get(256);
        let b = cache.get(256);
        assert!(Arc::ptr_eq(&a, &b), "same size must share one plan");
        let c = cache.get(1280);
        assert_eq!(c.len(), 1280);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn plan_cache_shared_across_threads() {
        let cache = PlanCache::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4).map(|_| scope.spawn(|| cache.get(512))).collect();
            let plans: Vec<Arc<FftPlan>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            for p in &plans[1..] {
                assert!(Arc::ptr_eq(&plans[0], p));
            }
        });
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn global_plan_matches_fresh_plan() {
        let x: Vec<C64> = (0..96)
            .map(|i| c64((i as f64 * 0.21).sin(), (i as f64 * 0.83).cos()))
            .collect();
        let (mut via_cache, mut fresh) = (x.clone(), x);
        plan(96).forward(&mut via_cache);
        FftPlan::new(96).forward(&mut fresh);
        assert_close(&via_cache, &fresh, 1e-12);
    }

    #[test]
    #[should_panic(expected = "size must be non-zero")]
    fn plan_cache_zero_size_panics() {
        let _ = PlanCache::new().get(0);
    }

    #[test]
    fn plan_cache_is_bounded() {
        let cache = PlanCache::new();
        for n in 1..=(MAX_CACHED_PLANS + 8) {
            let _ = cache.get(n);
            assert!(cache.len() <= MAX_CACHED_PLANS);
        }
        assert_eq!(cache.len(), MAX_CACHED_PLANS);
    }

    #[test]
    fn plan_cache_evicts_least_recently_used() {
        let cache = PlanCache::new();
        let first = cache.get(1);
        for n in 2..=MAX_CACHED_PLANS {
            let _ = cache.get(n);
        }
        // Touch size 1 so size 2 becomes the LRU victim.
        assert!(Arc::ptr_eq(&first, &cache.get(1)));
        let _ = cache.get(MAX_CACHED_PLANS + 1);
        assert_eq!(cache.len(), MAX_CACHED_PLANS);
        // Size 1 survived the eviction; size 2 was dropped and is
        // re-planned (a fresh Arc) on its next request.
        assert!(Arc::ptr_eq(&first, &cache.get(1)));
        let two_a = cache.get(2);
        let two_b = cache.get(2);
        assert!(Arc::ptr_eq(&two_a, &two_b));
    }

    #[test]
    fn plan_cache_raced_insert_first_arc_wins() {
        // Exercises the double-checked insert path directly: a plan
        // arriving second for an already-cached size is discarded in
        // favour of the cached Arc. (The interleaving itself is model-
        // checked in tests/model.rs.)
        let cache = PlanCache::new();
        let winner = cache.get(96);
        let loser = Arc::new(FftPlan::new(96));
        let kept = cache.insert(96, loser);
        assert!(Arc::ptr_eq(&winner, &kept));
        assert_eq!(cache.len(), 1);
    }
}
