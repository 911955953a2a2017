//! AVX2 backend: x86_64 `std::arch` intrinsics, f64 lanes only.
//!
//! This file is the workspace's sole sanctioned `unsafe` surface — see
//! the module-level docs. Every kernel here is bit-identical to the
//! scalar oracle by construction:
//!
//! * **No FMA.** `_mm256_fmadd_pd` rounds once where the oracle rounds
//!   twice; only separate `mul`/`add`/`sub`/`addsub` are used.
//! * **Exact complex multiply.** `_mm256_addsub_pd(t1, t2)` evaluates
//!   `[p.re·q.re − p.im·q.im, p.re·q.im + p.im·q.re]` with the same two
//!   roundings per component as `C64`'s `Mul`. The butterflies multiply
//!   by twiddles stored pre-split (`[w.re, w.re]`, `[w.im, w.im]` —
//!   [`super::Twiddles`]), which yields the same four products with the
//!   imaginary part's two addends swapped: the same bits.
//! * **Ordered reductions.** Dot products compute two products per
//!   256-bit register but fold them into a 128-bit `(re, im)`
//!   accumulator sequentially, in the oracle's index order; each lane
//!   is an independent IEEE add, so no reassociation occurs. The
//!   speedup comes from vectorizing the multiplies and element-wise
//!   passes, not from reordering sums. Where the oracle defines many
//!   independent folds (`tone_conj_dot`'s rows) each gets its own lanes
//!   and they advance side by side — still the oracle's order within
//!   every one.
//! * **Sign flips via XOR** with `-0.0` masks — exactly `f64`'s `Neg`,
//!   NaN-safe.
//!
//! # Soundness
//!
//! The dispatcher only routes here when `active()` is `Avx2`, and both
//! writers of that cell — the environment lookup and `force` — store
//! `Avx2` only after `is_x86_feature_detected!("avx2")` reported true,
//! so the `#[target_feature(enable = "avx2")]` inner functions are
//! reachable only on hosts that execute them correctly. Loads and stores use
//! unaligned `loadu`/`storeu` through pointers derived from slices
//! whose bounds the loop conditions respect; `C64` is `#[repr(C)]`
//! (`re` then `im`), so a `[C64]` is layout-compatible with pairs of
//! `f64` lanes.
#![allow(unsafe_code)]

use crate::complex::C64;
use std::arch::x86_64::{
    __m128d, __m256d, _mm256_add_pd, _mm256_addsub_pd, _mm256_and_pd, _mm256_and_si256,
    _mm256_blendv_pd, _mm256_castpd256_pd128, _mm256_castpd_si256, _mm256_castsi256_pd,
    _mm256_cmpeq_epi64, _mm256_extractf128_pd, _mm256_loadu_pd, _mm256_movedup_pd, _mm256_mul_pd,
    _mm256_permute2f128_pd, _mm256_permute_pd, _mm256_set1_epi64x, _mm256_set1_pd,
    _mm256_set_m128d, _mm256_setr_pd, _mm256_setzero_pd, _mm256_storeu_pd, _mm256_sub_pd,
    _mm256_unpackhi_pd, _mm256_unpacklo_pd, _mm256_xor_pd, _mm_add_pd, _mm_loadu_pd,
    _mm_setzero_pd, _mm_storeu_pd,
};

use super::sincos;

/// Two packed complex multiplies `p[i]·q[i]` (`i = 0, 1`), matching
/// `C64`'s `Mul` component expressions exactly (two roundings each).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn cmul2(p: __m256d, q: __m256d) -> __m256d {
    let pre = _mm256_movedup_pd(p); // [p0.re, p0.re, p1.re, p1.re]
    let pim = _mm256_permute_pd::<0xF>(p); // [p0.im, p0.im, p1.im, p1.im]
    let t1 = _mm256_mul_pd(pre, q); // [p.re·q.re, p.re·q.im, ..]
    let qsw = _mm256_permute_pd::<0x5>(q); // [q0.im, q0.re, q1.im, q1.re]
    let t2 = _mm256_mul_pd(pim, qsw); // [p.im·q.im, p.im·q.re, ..]
    _mm256_addsub_pd(t1, t2) // [t1 − t2, t1 + t2] per pair
}

/// Folds both packed products into the `(re, im)` accumulator in index
/// order: low 128 bits first, then high — the oracle's fold.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn fold2(acc: __m128d, prod: __m256d) -> __m128d {
    let acc = _mm_add_pd(acc, _mm256_castpd256_pd128(prod));
    _mm_add_pd(acc, _mm256_extractf128_pd::<1>(prod))
}

#[inline]
#[target_feature(enable = "avx2")]
unsafe fn read_acc(acc: __m128d) -> C64 {
    let mut parts = [0.0f64; 2];
    _mm_storeu_pd(parts.as_mut_ptr(), acc);
    crate::complex::c64(parts[0], parts[1])
}

/// Mask that negates the imaginary lane of each packed complex.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn conj_mask() -> __m256d {
    _mm256_setr_pd(0.0, -0.0, 0.0, -0.0)
}

/// Four lanes of the deterministic [`sincos`] kernel: returns
/// `(cos, sin)` — i.e. `(re, im)` of `cis(x)` — for each lane of `x`.
/// Every instruction mirrors one operation of `sincos::cis`, in the
/// same order, with no FMA, so each lane's result is bit-identical to
/// the scalar call on that lane's value (quadrant selection included:
/// the blends and sign masks read the same shifted-mantissa bits the
/// scalar `match` reads).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn cis4(x: __m256d) -> (__m256d, __m256d) {
    let shift = _mm256_set1_pd(sincos::SHIFT);
    let kk = _mm256_add_pd(_mm256_mul_pd(x, _mm256_set1_pd(sincos::FRAC_2_PI)), shift);
    let quad = _mm256_castpd_si256(kk);
    let k = _mm256_sub_pd(kk, shift);
    let r = _mm256_sub_pd(
        _mm256_sub_pd(
            _mm256_sub_pd(x, _mm256_mul_pd(k, _mm256_set1_pd(sincos::PIO2_HI))),
            _mm256_mul_pd(k, _mm256_set1_pd(sincos::PIO2_MID)),
        ),
        _mm256_mul_pd(k, _mm256_set1_pd(sincos::PIO2_LO)),
    );
    let z = _mm256_mul_pd(r, r);
    // Horner chains, innermost coefficient first — same order as the
    // scalar expressions.
    let mut ps = _mm256_set1_pd(sincos::S[5]);
    for i in (0..5).rev() {
        ps = _mm256_add_pd(_mm256_set1_pd(sincos::S[i]), _mm256_mul_pd(z, ps));
    }
    let sin_r = _mm256_add_pd(r, _mm256_mul_pd(_mm256_mul_pd(r, z), ps));
    let mut pc = _mm256_set1_pd(sincos::C[5]);
    for i in (0..5).rev() {
        pc = _mm256_add_pd(_mm256_set1_pd(sincos::C[i]), _mm256_mul_pd(z, pc));
    }
    let cos_r = _mm256_add_pd(
        _mm256_sub_pd(_mm256_set1_pd(1.0), _mm256_mul_pd(_mm256_set1_pd(0.5), z)),
        _mm256_mul_pd(_mm256_mul_pd(z, z), pc),
    );
    // Quadrant recombination: q0 (cos, sin), q1 (−sin, cos),
    // q2 (−cos, −sin), q3 (sin, −cos). Bit 0 swaps the magnitudes,
    // bit 0 ⊕ bit 1 negates re, bit 1 negates im — all exact ops.
    let one = _mm256_set1_epi64x(1);
    let two = _mm256_set1_epi64x(2);
    let b0 = _mm256_castsi256_pd(_mm256_cmpeq_epi64(_mm256_and_si256(quad, one), one));
    let b1 = _mm256_castsi256_pd(_mm256_cmpeq_epi64(_mm256_and_si256(quad, two), two));
    let neg = _mm256_set1_pd(-0.0);
    let re = _mm256_xor_pd(
        _mm256_blendv_pd(cos_r, sin_r, b0),
        _mm256_and_pd(_mm256_xor_pd(b0, b1), neg),
    );
    let im = _mm256_xor_pd(_mm256_blendv_pd(sin_r, cos_r, b0), _mm256_and_pd(b1, neg));
    (re, im)
}

/// Table fill of the two-level tone kernel: `out[i] = cis(w·t_i)` at
/// the integers `t_i = first + i·step`, four lanes at a time. Each lane
/// (and each tail element) is the scalar `sincos::cis(w * t_i as f64)`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn cis_steps(out: &mut [C64], w: f64, first: usize, step: usize) {
    let wv = _mm256_set1_pd(w);
    let at = |i: usize| (first + i * step) as f64;
    let po = out.as_mut_ptr() as *mut f64;
    let mut i = 0usize;
    while i + 4 <= out.len() {
        let tv = _mm256_setr_pd(at(i), at(i + 1), at(i + 2), at(i + 3));
        let (re, im) = cis4(_mm256_mul_pd(wv, tv));
        // Interleave [re0..re3]/[im0..im3] into (re, im) pairs.
        let lo = _mm256_unpacklo_pd(re, im); // [r0, i0, r2, i2]
        let hi = _mm256_unpackhi_pd(re, im); // [r1, i1, r3, i3]
        _mm256_storeu_pd(po.add(2 * i), _mm256_permute2f128_pd::<0x20>(lo, hi));
        _mm256_storeu_pd(po.add(2 * i + 4), _mm256_permute2f128_pd::<0x31>(lo, hi));
        i += 4;
    }
    while i < out.len() {
        out[i] = sincos::cis(w * at(i));
        i += 1;
    }
}

/// Rows of the tone kernel whose coarse factors one table fill
/// evaluates — a whole SF8 symbol's worth, so the fill's independent
/// sincos chains overlap instead of running one register at a time.
const COARSE_GROUP: usize = 16;

/// A coarse factor broadcast into both complex slots of a register —
/// the left operand of [`cmul2`], matching the oracle's `coarse * fine`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn splat(c: C64) -> __m256d {
    _mm256_setr_pd(c.re, c.im, c.re, c.im)
}

/// AVX2 [`super::tone_into`]; bit-identical to the oracle: both tables
/// come from four-lane replays of [`sincos::cis`] and each element is
/// one [`cmul2`] product of the same two entries the oracle multiplies.
pub fn tone_into(buf: &mut [C64], n: usize, freq_bins: f64) {
    // SAFETY: see `conj_dot`.
    unsafe { tone_into_impl(buf, n, freq_bins) }
}

#[target_feature(enable = "avx2")]
unsafe fn tone_into_impl(buf: &mut [C64], n: usize, freq_bins: f64) {
    let w = 2.0 * std::f64::consts::PI * freq_bins / n as f64;
    let stride = super::tone_stride(n);
    let mut fine = [C64::ZERO; super::MAX_TONE_STRIDE];
    let fine = &mut fine[..stride];
    cis_steps(fine, w, 0, 1);
    let pf = fine.as_ptr() as *const f64;
    let mut coarse = [C64::ZERO; COARSE_GROUP];
    for (g, rows) in buf.chunks_mut(COARSE_GROUP * stride).enumerate() {
        let held = rows.len().div_ceil(stride);
        cis_steps(&mut coarse[..held], w, COARSE_GROUP * g * stride, stride);
        for (row, &c) in rows.chunks_mut(stride).zip(&coarse) {
            let cv = splat(c);
            let po = row.as_mut_ptr() as *mut f64;
            let mut b = 0usize;
            while b + 2 <= row.len() {
                let fv = _mm256_loadu_pd(pf.add(2 * b));
                _mm256_storeu_pd(po.add(2 * b), cmul2(cv, fv));
                b += 2;
            }
            if b < row.len() {
                row[b] = c * fine[b];
            }
        }
    }
}

/// AVX2 [`super::tone_block_into`]: per-candidate strided column fill.
/// Each column runs the dense kernel's tables and products and scatters
/// the `(re, im)` pairs to `block[t·W + j]`; element values are
/// bit-identical to the dense kernel's at the same `(n, freq, t)`.
pub fn tone_block_into(block: &mut [C64], n: usize, freqs: &[f64]) {
    // SAFETY: see `conj_dot`.
    unsafe { tone_block_into_impl(block, n, freqs) }
}

#[target_feature(enable = "avx2")]
unsafe fn tone_block_into_impl(block: &mut [C64], n: usize, freqs: &[f64]) {
    let w = freqs.len();
    debug_assert!(
        w > 0 && block.len().is_multiple_of(w),
        "tone_block_into: ragged block"
    );
    let rows = block.len() / w;
    let stride = super::tone_stride(n);
    let mut fine = [C64::ZERO; super::MAX_TONE_STRIDE];
    let fine = &mut fine[..stride];
    let mut coarse = [C64::ZERO; COARSE_GROUP];
    // Every store below lands on sample `t < rows` of column `j < w`,
    // i.e. inside `block[..rows·w]`.
    let po = block.as_mut_ptr() as *mut f64;
    for (j, &f) in freqs.iter().enumerate() {
        let wj = 2.0 * std::f64::consts::PI * f / n as f64;
        cis_steps(fine, wj, 0, 1);
        let pf = fine.as_ptr() as *const f64;
        let mut g0 = 0usize; // first sample of the current group of rows
        while g0 < rows {
            let held = (rows - g0).div_ceil(stride).min(COARSE_GROUP);
            cis_steps(&mut coarse[..held], wj, g0, stride);
            for (i, &c) in coarse[..held].iter().enumerate() {
                let t0 = g0 + i * stride;
                let m = stride.min(rows - t0);
                let cv = splat(c);
                let mut b = 0usize;
                while b + 2 <= m {
                    let prod = cmul2(cv, _mm256_loadu_pd(pf.add(2 * b)));
                    _mm_storeu_pd(po.add(2 * ((t0 + b) * w + j)), _mm256_castpd256_pd128(prod));
                    _mm_storeu_pd(
                        po.add(2 * ((t0 + b + 1) * w + j)),
                        _mm256_extractf128_pd::<1>(prod),
                    );
                    b += 2;
                }
                if b < m {
                    let v = c * fine[b];
                    let slot = po.add(2 * ((t0 + b) * w + j));
                    *slot = v.re;
                    *slot.add(1) = v.im;
                }
            }
            g0 += COARSE_GROUP * stride;
        }
    }
}

/// AVX2 [`super::conj_dot_block`]; bit-identical to the oracle.
/// Candidate pairs share each broadcast `y[t]` load: one 256-bit load
/// covers two adjacent candidates' row entries, and each candidate's
/// `(re, im)` half-register accumulates in ascending `t` — the
/// oracle's per-candidate fold.
pub fn conj_dot_block(block: &[C64], y: &[C64], out: &mut [C64]) {
    // SAFETY: see `conj_dot`.
    unsafe { conj_dot_block_impl(block, y, out) }
}

#[target_feature(enable = "avx2")]
unsafe fn conj_dot_block_impl(block: &[C64], y: &[C64], out: &mut [C64]) {
    let w = out.len();
    debug_assert!(w > 0, "conj_dot_block: empty block");
    let rows = (block.len() / w).min(y.len());
    let pb = block.as_ptr() as *const f64;
    let py = y.as_ptr() as *const f64;
    let neg = _mm256_set1_pd(-0.0);
    let mut j = 0usize;
    while j + 2 <= w {
        let mut acc = _mm256_setr_pd(0.0, 0.0, 0.0, 0.0);
        for t in 0..rows {
            let av = _mm256_loadu_pd(pb.add(2 * (t * w + j))); // candidates j, j+1
            let yl = _mm_loadu_pd(py.add(2 * t));
            let yv = _mm256_set_m128d(yl, yl);
            let are = _mm256_movedup_pd(av);
            let aim = _mm256_xor_pd(_mm256_permute_pd::<0xF>(av), neg);
            let t1 = _mm256_mul_pd(are, yv);
            let ysw = _mm256_permute_pd::<0x5>(yv);
            let t2 = _mm256_mul_pd(aim, ysw);
            acc = _mm256_add_pd(acc, _mm256_addsub_pd(t1, t2));
        }
        let mut parts = [0.0f64; 4];
        _mm256_storeu_pd(parts.as_mut_ptr(), acc);
        out[j] = crate::complex::c64(parts[0], parts[1]);
        out[j + 1] = crate::complex::c64(parts[2], parts[3]);
        j += 2;
    }
    while j < w {
        let mut acc = C64::ZERO;
        for (t, &yt) in y.iter().enumerate().take(rows) {
            acc += block[t * w + j].conj() * yt;
        }
        out[j] = acc;
        j += 1;
    }
}

/// AVX2 [`super::residual_block`]; bit-identical to the oracle.
/// Each candidate keeps its `(Σ re², Σ im²)` half-register accumulator
/// pair (the oracle's definition) updated in ascending `t`.
pub fn residual_block(block: &[C64], y: &[C64], coeffs: &[C64], out: &mut [f64]) {
    // SAFETY: see `conj_dot`.
    unsafe { residual_block_impl(block, y, coeffs, out) }
}

#[target_feature(enable = "avx2")]
unsafe fn residual_block_impl(block: &[C64], y: &[C64], coeffs: &[C64], out: &mut [f64]) {
    let w = out.len();
    assert!(
        w > 0 && w <= super::MAX_BLOCK_WIDTH && coeffs.len() == w,
        "residual_block: width out of range"
    );
    let rows = (block.len() / w).min(y.len());
    let pb = block.as_ptr() as *const f64;
    let py = y.as_ptr() as *const f64;
    let mut j = 0usize;
    while j + 2 <= w {
        // c_j and c_{j+1} broadcast once; `cmul2` keeps the coefficient
        // on the left, matching the oracle's `c * b`.
        let cv = _mm256_loadu_pd(coeffs.as_ptr().add(j) as *const f64);
        let cre = _mm256_movedup_pd(cv);
        let cim = _mm256_permute_pd::<0xF>(cv);
        let mut acc = _mm256_setr_pd(0.0, 0.0, 0.0, 0.0);
        for t in 0..rows {
            let bv = _mm256_loadu_pd(pb.add(2 * (t * w + j)));
            let t1 = _mm256_mul_pd(cre, bv);
            let bsw = _mm256_permute_pd::<0x5>(bv);
            let t2 = _mm256_mul_pd(cim, bsw);
            let m = _mm256_addsub_pd(t1, t2);
            let yl = _mm_loadu_pd(py.add(2 * t));
            let yv = _mm256_set_m128d(yl, yl);
            let d = _mm256_sub_pd(yv, m);
            acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
        }
        let mut parts = [0.0f64; 4];
        _mm256_storeu_pd(parts.as_mut_ptr(), acc);
        out[j] = parts[0] + parts[1];
        out[j + 1] = parts[2] + parts[3];
        j += 2;
    }
    while j < w {
        let c = coeffs[j];
        let (mut sre, mut sim) = (0.0f64, 0.0f64);
        for (t, &yt) in y.iter().enumerate().take(rows) {
            let d = yt - c * block[t * w + j];
            sre += d.re * d.re;
            sim += d.im * d.im;
        }
        out[j] = sre + sim;
        j += 1;
    }
}

/// AVX2 [`super::dot`]; bit-identical to the oracle — `conj_dot`
/// without the sign flip on the broadcast imaginary parts.
pub fn dot(a: &[C64], b: &[C64]) -> C64 {
    // SAFETY: see `conj_dot`.
    unsafe { dot_impl(a, b) }
}

#[target_feature(enable = "avx2")]
unsafe fn dot_impl(a: &[C64], b: &[C64]) -> C64 {
    let n = a.len().min(b.len());
    let (pa, pb) = (a.as_ptr() as *const f64, b.as_ptr() as *const f64);
    let mut acc = _mm_setzero_pd();
    let mut i = 0;
    while i + 2 <= n {
        let av = _mm256_loadu_pd(pa.add(2 * i));
        let bv = _mm256_loadu_pd(pb.add(2 * i));
        acc = fold2(acc, cmul2(av, bv));
        i += 2;
    }
    let mut out = read_acc(acc);
    while i < n {
        out += a[i] * b[i];
        i += 1;
    }
    out
}

/// AVX2 [`super::conj_dot`]; bit-identical to the oracle.
pub fn conj_dot(a: &[C64], b: &[C64]) -> C64 {
    // SAFETY: this module is private to the dispatcher, which only
    // calls it after runtime AVX2 detection (module docs, Soundness).
    unsafe { conj_dot_impl(a, b) }
}

#[target_feature(enable = "avx2")]
unsafe fn conj_dot_impl(a: &[C64], b: &[C64]) -> C64 {
    let n = a.len().min(b.len());
    let (pa, pb) = (a.as_ptr() as *const f64, b.as_ptr() as *const f64);
    let mut acc = _mm_setzero_pd();
    let neg = _mm256_set1_pd(-0.0);
    let mut i = 0;
    while i + 2 <= n {
        let av = _mm256_loadu_pd(pa.add(2 * i));
        let bv = _mm256_loadu_pd(pb.add(2 * i));
        // conj(a)·b: negate the broadcast imaginary parts, then run the
        // shared multiply — component expressions match
        // `a.conj() * b` term for term.
        let are = _mm256_movedup_pd(av);
        let aim = _mm256_xor_pd(_mm256_permute_pd::<0xF>(av), neg);
        let t1 = _mm256_mul_pd(are, bv);
        let bsw = _mm256_permute_pd::<0x5>(bv);
        let t2 = _mm256_mul_pd(aim, bsw);
        acc = fold2(acc, _mm256_addsub_pd(t1, t2));
        i += 2;
    }
    let mut out = read_acc(acc);
    while i < n {
        out += a[i].conj() * b[i];
        i += 1;
    }
    out
}

/// AVX2 [`super::cmul_into`]; bit-identical to the oracle.
pub fn cmul_into(a: &[C64], b: &[C64], out: &mut [C64]) {
    // SAFETY: see `conj_dot`.
    unsafe { cmul_into_impl(a, b, out) }
}

#[target_feature(enable = "avx2")]
unsafe fn cmul_into_impl(a: &[C64], b: &[C64], out: &mut [C64]) {
    let n = out.len().min(a.len()).min(b.len());
    let (pa, pb) = (a.as_ptr() as *const f64, b.as_ptr() as *const f64);
    let po = out.as_mut_ptr() as *mut f64;
    let mut i = 0;
    while i + 2 <= n {
        let av = _mm256_loadu_pd(pa.add(2 * i));
        let bv = _mm256_loadu_pd(pb.add(2 * i));
        _mm256_storeu_pd(po.add(2 * i), cmul2(av, bv));
        i += 2;
    }
    while i < n {
        out[i] = a[i] * b[i];
        i += 1;
    }
}

/// AVX2 [`super::axpy`]; bit-identical to the oracle.
pub fn axpy(out: &mut [C64], xs: &[C64], amp: C64, subtract: bool) {
    // SAFETY: see `conj_dot`.
    unsafe { axpy_impl(out, xs, amp, subtract) }
}

#[target_feature(enable = "avx2")]
unsafe fn axpy_impl(out: &mut [C64], xs: &[C64], amp: C64, subtract: bool) {
    let n = out.len().min(xs.len());
    let px = xs.as_ptr() as *const f64;
    let po = out.as_mut_ptr() as *mut f64;
    let amp_re = _mm256_set1_pd(amp.re);
    let amp_im = _mm256_set1_pd(amp.im);
    // The subtract/add branch is hoisted outside the loops (as in the
    // oracle) so each loop body contains a lone genuine `sub`/`add`.
    // A branch *inside* the loop invites LLVM to fuse the arms into
    // `ov + (±m)` with an XOR sign flip — IEEE-equivalent for every
    // non-NaN value but not for NaN sign bits (see the module docs).
    let mut i = 0;
    if subtract {
        while i + 2 <= n {
            let xv = _mm256_loadu_pd(px.add(2 * i));
            // amp·x with amp as the left operand, matching `amp * x`.
            let t1 = _mm256_mul_pd(amp_re, xv);
            let xsw = _mm256_permute_pd::<0x5>(xv);
            let t2 = _mm256_mul_pd(amp_im, xsw);
            let m = _mm256_addsub_pd(t1, t2);
            let ov = _mm256_loadu_pd(po.add(2 * i));
            _mm256_storeu_pd(po.add(2 * i), _mm256_sub_pd(ov, m));
            i += 2;
        }
        while i < n {
            out[i] -= amp * xs[i];
            i += 1;
        }
    } else {
        while i + 2 <= n {
            let xv = _mm256_loadu_pd(px.add(2 * i));
            let t1 = _mm256_mul_pd(amp_re, xv);
            let xsw = _mm256_permute_pd::<0x5>(xv);
            let t2 = _mm256_mul_pd(amp_im, xsw);
            let m = _mm256_addsub_pd(t1, t2);
            let ov = _mm256_loadu_pd(po.add(2 * i));
            _mm256_storeu_pd(po.add(2 * i), _mm256_add_pd(ov, m));
            i += 2;
        }
        while i < n {
            out[i] += amp * xs[i];
            i += 1;
        }
    }
}

/// Two packed products `b[i]·w[i]` against pre-split twiddles: `wre` is
/// `[w0.re, w0.re, w1.re, w1.re]`, `wim` the same of the imaginary parts
/// (already negated for an inverse transform). The oracle's four
/// products a butterfly — `re = b.re·w.re − b.im·w.im` as written, `im =
/// b.im·w.re + b.re·w.im` with the two addends the other way round,
/// which IEEE addition does not see.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn twmul(b: __m256d, wre: __m256d, wim: __m256d) -> __m256d {
    let t1 = _mm256_mul_pd(b, wre); // [b.re·w.re, b.im·w.re, ..]
    let t2 = _mm256_mul_pd(_mm256_permute_pd::<0x5>(b), wim); // [b.im·w.im, b.re·w.im, ..]
    _mm256_addsub_pd(t1, t2)
}

/// AVX2 [`super::butterflies`]; bit-identical to the oracle: every
/// butterfly is the oracle's, on the oracle's operands; the passes run
/// two to a trip through memory (the first two, `len = 2` and `4`, inside
/// one register pair).
pub fn butterflies(x: &mut [C64], tw: &super::Twiddles, forward: bool) {
    // Bounds every pointer below, whatever the dispatcher checked: the
    // passes touch `x[..n]` in whole blocks of `len ≤ n` points, and the
    // pass of half-length `half ≤ n/2` reads the staged streams at
    // doubles `2·(half − 1 + k) .. + 4` for even `k < half`, i.e. below
    // `2·(2·half − 1) ≤ 2·(n − 1)`.
    let n = x.len();
    assert!(
        n.is_power_of_two(),
        "butterflies: length must be a power of two"
    );
    assert!(
        tw.re.len() == 2 * (n - 1) && tw.im.len() == 2 * (n - 1),
        "butterflies: twiddle tables built for another length"
    );
    if n < 4 {
        // One butterfly at most: the definition itself.
        return super::scalar::butterflies(x, &tw.compact, forward);
    }
    // SAFETY: see `conj_dot`; offsets are bounded by the asserts above.
    unsafe {
        if forward {
            butterflies_impl::<true>(x, tw)
        } else {
            butterflies_impl::<false>(x, tw)
        }
    }
}

/// # Safety
/// AVX2 must be available, `x.len() = n ≥ 4` a power of two and `tw`'s
/// staged streams `2·(n − 1)` doubles long — [`butterflies`] checks all
/// of it.
#[target_feature(enable = "avx2")]
unsafe fn butterflies_impl<const FORWARD: bool>(x: &mut [C64], tw: &super::Twiddles) {
    let n = x.len();
    let base = x.as_mut_ptr() as *mut f64;
    let (tre, tim) = (tw.re.as_ptr(), tw.im.as_ptr());
    // The inverse conjugates each twiddle as consumed: one exact sign
    // flip on the imaginary pair, as `tw.conj()` is.
    let sign = _mm256_set1_pd(-0.0);
    // Stage `half`'s twiddles for butterflies `k, k + 1`.
    let load = |half: usize, k: usize| {
        let at = 2 * (half - 1 + k);
        let wim = _mm256_loadu_pd(tim.add(at));
        let wim = if FORWARD {
            wim
        } else {
            _mm256_xor_pd(wim, sign)
        };
        (_mm256_loadu_pd(tre.add(at)), wim)
    };
    // Passes 2 and 4 inside a register pair: four points in, the two
    // `len = 2` butterflies across the 128-bit lanes, the two `len = 4`
    // butterflies on their outputs, four points out.
    let w2re = _mm256_set1_pd(*tre);
    let w2im = _mm256_set1_pd(if FORWARD { *tim } else { -*tim });
    let (w4re, w4im) = load(2, 0);
    for q in (0..n).step_by(4) {
        let p = base.add(2 * q);
        let (r0, r1) = (_mm256_loadu_pd(p), _mm256_loadu_pd(p.add(4)));
        let a = _mm256_permute2f128_pd::<0x20>(r0, r1); // [x0, x2]
        let b = _mm256_permute2f128_pd::<0x31>(r0, r1); // [x1, x3]
        let t = twmul(b, w2re, w2im);
        let (s, d) = (_mm256_add_pd(a, t), _mm256_sub_pd(a, t)); // [y0, y2], [y1, y3]
        let a = _mm256_permute2f128_pd::<0x20>(s, d); // [y0, y1]
        let b = _mm256_permute2f128_pd::<0x31>(s, d); // [y2, y3]
        let t = twmul(b, w4re, w4im);
        _mm256_storeu_pd(p, _mm256_add_pd(a, t));
        _mm256_storeu_pd(p.add(4), _mm256_sub_pd(a, t));
    }
    let mut len = 8;
    if len > n {
        return;
    }
    // An odd number of passes left: one on its own, so the rest pair up.
    if (n / len).trailing_zeros().is_multiple_of(2) {
        let half = len / 2;
        for start in (0..n).step_by(len) {
            for k in (0..half).step_by(2) {
                let (wre, wim) = load(half, k);
                let pa = base.add(2 * (start + k));
                let pb = pa.add(2 * half);
                let a = _mm256_loadu_pd(pa);
                let t = twmul(_mm256_loadu_pd(pb), wre, wim);
                _mm256_storeu_pd(pa, _mm256_add_pd(a, t));
                _mm256_storeu_pd(pb, _mm256_sub_pd(a, t));
            }
        }
        len *= 2;
    }
    // Passes `len` and `2·len` in one trip: the four points `k`, `k +
    // half`, `k + len`, `k + len + half` of a `2·len` block are closed
    // under both — the two `len` butterflies, then the two `2·len`
    // butterflies on their outputs.
    while len < n {
        let half = len / 2;
        for start in (0..n).step_by(2 * len) {
            for k in (0..half).step_by(2) {
                let p0 = base.add(2 * (start + k));
                let (p1, p2, p3) = (p0.add(2 * half), p0.add(2 * len), p0.add(2 * (len + half)));
                let (wre, wim) = load(half, k);
                let a0 = _mm256_loadu_pd(p0);
                let t0 = twmul(_mm256_loadu_pd(p1), wre, wim);
                let a1 = _mm256_loadu_pd(p2);
                let t1 = twmul(_mm256_loadu_pd(p3), wre, wim);
                let (s0, d0) = (_mm256_add_pd(a0, t0), _mm256_sub_pd(a0, t0));
                let (s1, d1) = (_mm256_add_pd(a1, t1), _mm256_sub_pd(a1, t1));
                let (ure, uim) = load(len, k);
                let u = twmul(s1, ure, uim);
                let (vre, vim) = load(len, k + half);
                let v = twmul(d1, vre, vim);
                _mm256_storeu_pd(p0, _mm256_add_pd(s0, u));
                _mm256_storeu_pd(p2, _mm256_sub_pd(s0, u));
                _mm256_storeu_pd(p1, _mm256_add_pd(d0, v));
                _mm256_storeu_pd(p3, _mm256_sub_pd(d0, v));
            }
        }
        len *= 4;
    }
}

/// `2·R` whole rows of [`tone_conj_dot`], two to a register: row `2r`
/// in the low half of accumulator `r`, row `2r + 1` in the high half,
/// every row folding `conj(fine[b])·y[b]` in ascending `b` from zero —
/// the oracle's row sum — while the `R` registers advance side by side.
/// `rows` points at `2·R·stride` samples; `sums` receives the `2·R` row
/// sums in row order.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn conj_row_pairs<const R: usize>(fine: &[C64], rows: *const f64, sums: &mut [C64]) {
    let stride = fine.len();
    let mut acc = [_mm256_setzero_pd(); R];
    for (b, f) in fine.iter().enumerate() {
        // conj(fine)·y with the table entry on the left, as `conj_dot`
        // forms `conj(a)·b`: broadcast re and negated im.
        let fre = _mm256_set1_pd(f.re);
        let fim = _mm256_set1_pd(-f.im);
        for (r, a) in acc.iter_mut().enumerate() {
            let lo = _mm_loadu_pd(rows.add(2 * (2 * r * stride + b)));
            let hi = _mm_loadu_pd(rows.add(2 * ((2 * r + 1) * stride + b)));
            let yv = _mm256_set_m128d(hi, lo);
            let t1 = _mm256_mul_pd(fre, yv);
            let t2 = _mm256_mul_pd(fim, _mm256_permute_pd::<0x5>(yv));
            *a = _mm256_add_pd(*a, _mm256_addsub_pd(t1, t2));
        }
    }
    for (r, a) in acc.iter().enumerate() {
        sums[2 * r] = read_acc(_mm256_castpd256_pd128(*a));
        sums[2 * r + 1] = read_acc(_mm256_extractf128_pd::<1>(*a));
    }
}

/// Every row sum `Σ_b conj(table[b])·row[b]` of `rows` — at most
/// [`COARSE_GROUP`] rows of `table.len()` samples, the last one possibly
/// short — into `sums`, each the oracle's [`super::scalar::conj_row`]:
/// whole rows fold two to a register ([`conj_row_pairs`]), all sixteen
/// of an SF8 window at once, and a row that does not pair up (an odd
/// one, a short last one) runs the oracle's own expression.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn conj_rows(table: &[C64], rows: &[C64], sums: &mut [C64]) {
    let stride = table.len();
    // Rows `..paired` are whole and fold in registers; every read of
    // `conj_row_pairs` lands in `rows[..paired·stride]`.
    let pr = rows.as_ptr() as *const f64;
    let whole = rows.len() / stride;
    let paired = if whole == COARSE_GROUP {
        conj_row_pairs::<{ COARSE_GROUP / 2 }>(table, pr, sums);
        whole
    } else {
        for a in (0..whole & !1).step_by(2) {
            conj_row_pairs::<1>(table, pr.add(2 * a * stride), &mut sums[a..]);
        }
        whole & !1
    };
    for (a, row) in rows.chunks(stride).enumerate().skip(paired) {
        sums[a] = super::scalar::conj_row(table, row);
    }
}

/// AVX2 [`super::tone_conj_dot`]; bit-identical to the oracle. Both
/// tables are [`tone_into`]'s (the same four-lane `sincos` replays), a
/// group's rows fold in registers ([`conj_rows`]) and the fold over rows
/// runs the oracle's own scalar expression.
pub fn tone_conj_dot(n: usize, freq_bins: f64, y: &[C64]) -> C64 {
    // SAFETY: see `conj_dot`.
    unsafe { tone_conj_dot_impl(n, freq_bins, y) }
}

#[target_feature(enable = "avx2")]
unsafe fn tone_conj_dot_impl(n: usize, freq_bins: f64, y: &[C64]) -> C64 {
    let w = 2.0 * std::f64::consts::PI * freq_bins / n as f64;
    let stride = super::tone_stride(n);
    let mut fine = [C64::ZERO; super::MAX_TONE_STRIDE];
    let fine = &mut fine[..stride];
    cis_steps(fine, w, 0, 1);
    let mut coarse = [C64::ZERO; COARSE_GROUP];
    let mut sums = [C64::ZERO; COARSE_GROUP];
    let mut acc = C64::ZERO;
    for (g, rows) in y.chunks(COARSE_GROUP * stride).enumerate() {
        let held = rows.len().div_ceil(stride);
        cis_steps(&mut coarse[..held], w, COARSE_GROUP * g * stride, stride);
        conj_rows(fine, rows, &mut sums);
        for (c, r) in coarse[..held].iter().zip(&sums) {
            acc += c.conj() * r;
        }
    }
    acc
}

/// AVX2 [`super::tone_ramp_conj_dot`]; bit-identical to the oracle:
/// [`tone_conj_dot`]'s tables and row folds, the same folds again over
/// the ramp table, and the fold over rows in the oracle's expressions.
pub fn tone_ramp_conj_dot(n: usize, freq_bins: f64, y: &[C64]) -> (C64, C64) {
    // SAFETY: see `conj_dot`.
    unsafe { tone_ramp_conj_dot_impl(n, freq_bins, y) }
}

#[target_feature(enable = "avx2")]
unsafe fn tone_ramp_conj_dot_impl(n: usize, freq_bins: f64, y: &[C64]) -> (C64, C64) {
    let w = 2.0 * std::f64::consts::PI * freq_bins / n as f64;
    let stride = super::tone_stride(n);
    let mut fine = [C64::ZERO; super::MAX_TONE_STRIDE];
    let fine = &mut fine[..stride];
    cis_steps(fine, w, 0, 1);
    let ramp = super::ramp_table(fine);
    let ramp = &ramp[..stride];
    let mut coarse = [C64::ZERO; COARSE_GROUP];
    let mut sums = [C64::ZERO; COARSE_GROUP];
    let mut ramp_sums = [C64::ZERO; COARSE_GROUP];
    let (mut p, mut q) = (C64::ZERO, C64::ZERO);
    for (g, rows) in y.chunks(COARSE_GROUP * stride).enumerate() {
        let held = rows.len().div_ceil(stride);
        let first = COARSE_GROUP * g * stride;
        cis_steps(&mut coarse[..held], w, first, stride);
        conj_rows(fine, rows, &mut sums);
        conj_rows(ramp, rows, &mut ramp_sums);
        for (a, ((c, r), s)) in coarse[..held].iter().zip(&sums).zip(&ramp_sums).enumerate() {
            let c = c.conj();
            p += c * r;
            q += c * (r.scale((first + a * stride) as f64) + *s);
        }
    }
    (p, q)
}

/// AVX2 [`super::conj_into`]; bit-identical to the oracle.
pub fn conj_into(src: &[C64], out: &mut [C64]) {
    // SAFETY: see `conj_dot`.
    unsafe { conj_into_impl(src, out) }
}

#[target_feature(enable = "avx2")]
unsafe fn conj_into_impl(src: &[C64], out: &mut [C64]) {
    let n = out.len().min(src.len());
    let ps = src.as_ptr() as *const f64;
    let po = out.as_mut_ptr() as *mut f64;
    let cmask = conj_mask();
    let mut i = 0;
    while i + 2 <= n {
        let v = _mm256_loadu_pd(ps.add(2 * i));
        _mm256_storeu_pd(po.add(2 * i), _mm256_xor_pd(v, cmask));
        i += 2;
    }
    while i < n {
        out[i] = src[i].conj();
        i += 1;
    }
}
