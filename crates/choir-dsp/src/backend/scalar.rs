//! The scalar reference oracle.
//!
//! These loops are element-for-element the code the rest of the
//! workspace ran before the backend module existed; they define the
//! exact bits every other backend must reproduce (see the module-level
//! ULP policy). Public so tests can compare any backend against the
//! oracle directly, without going through the dispatcher.

use crate::complex::C64;
use std::f64::consts::PI;

/// Oracle for [`super::conj_dot`]: `Σ conj(a[i])·b[i]` folded from
/// `C64::ZERO` in index order over `zip(a, b)`.
pub fn conj_dot(a: &[C64], b: &[C64]) -> C64 {
    a.iter().zip(b).map(|(x, y)| x.conj() * y).sum()
}

/// Oracle for [`super::dot`]: unconjugated `Σ a[i]·b[i]` folded from
/// `C64::ZERO` in index order over `zip(a, b)` — the substitution
/// kernel of the Cholesky solve.
pub fn dot(a: &[C64], b: &[C64]) -> C64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Oracle for [`super::cmul_into`]: `out[i] = a[i]·b[i]`.
pub fn cmul_into(a: &[C64], b: &[C64], out: &mut [C64]) {
    for ((o, x), y) in out.iter_mut().zip(a).zip(b) {
        *o = x * y;
    }
}

/// Oracle for [`super::axpy`]: `out[i] ∓= amp·xs[i]`.
pub fn axpy(out: &mut [C64], xs: &[C64], amp: C64, subtract: bool) {
    if subtract {
        for (o, &x) in out.iter_mut().zip(xs) {
            *o -= amp * x;
        }
    } else {
        for (o, &x) in out.iter_mut().zip(xs) {
            *o += amp * x;
        }
    }
}

/// Oracle for [`super::tone_into`]: the two-level angle-addition tone
/// `buf[a·B + b] = cis(w·(a·B)) · cis(w·b)` with `w = 2π·freq_bins/n`,
/// `B = `[`super::tone_stride`]`(n)`, `cis` the deterministic
/// [`super::sincos`] kernel (not libm) evaluated at the integer-valued
/// `f64`s `a·B` and `b`, and the product in `C64`'s `Mul` (the
/// [`cmul_into`] op order, coarse factor on the left, no FMA). That is
/// `B + ⌈len/B⌉` sincos evaluations and `len` complex multiplies
/// instead of `len` evaluations; each element is still one pure
/// function of `(n, freq_bins, t)`, which is what lets vector backends
/// replay it lane for lane.
pub fn tone_into(buf: &mut [C64], n: usize, freq_bins: f64) {
    let w = 2.0 * PI * freq_bins / n as f64;
    let stride = super::tone_stride(n);
    let fine = fine_table(w, stride);
    for (a, row) in buf.chunks_mut(stride).enumerate() {
        let coarse = super::sincos::cis(w * (a * stride) as f64);
        for (v, &fv) in row.iter_mut().zip(&fine[..stride]) {
            *v = coarse * fv;
        }
    }
}

/// The tone kernel's fine table: `cis(w·b)` for `b < stride`.
fn fine_table(w: f64, stride: usize) -> [C64; super::MAX_TONE_STRIDE] {
    let mut fine = [C64::ZERO; super::MAX_TONE_STRIDE];
    for (b, v) in fine[..stride].iter_mut().enumerate() {
        *v = super::sincos::cis(w * b as f64);
    }
    fine
}

/// Oracle for [`super::tone_block_into`]: strided AoSoA tone fill.
/// Candidate `j`'s basis occupies `block[t·W + j]` (`W = freqs.len()`);
/// each element is produced by the exact expression [`tone_into`] uses
/// for `(n, freqs[j], t)`, so a blocked column is bit-identical to a
/// dense basis at the same frequency, at every width.
pub fn tone_block_into(block: &mut [C64], n: usize, freqs: &[f64]) {
    let w = freqs.len();
    debug_assert!(
        w > 0 && block.len().is_multiple_of(w),
        "tone_block_into: ragged block"
    );
    let stride = super::tone_stride(n);
    for (j, &f) in freqs.iter().enumerate() {
        let wj = 2.0 * PI * f / n as f64;
        let fine = fine_table(wj, stride);
        for (a, rows) in block.chunks_mut(stride * w).enumerate() {
            let coarse = super::sincos::cis(wj * (a * stride) as f64);
            for (row, &fv) in rows.chunks_mut(w).zip(&fine[..stride]) {
                row[j] = coarse * fv;
            }
        }
    }
}

/// Oracle for [`super::conj_dot_block`]: `out[j] = Σ_t
/// conj(block[t·W + j])·y[t]` with `W = out.len()`, each candidate's
/// accumulator folded from `C64::ZERO` in ascending `t` — the same
/// per-candidate order as [`conj_dot`], so a blocked projection is
/// bit-identical to `W` separate dense dots, at every width.
pub fn conj_dot_block(block: &[C64], y: &[C64], out: &mut [C64]) {
    let w = out.len();
    debug_assert!(w > 0, "conj_dot_block: empty block");
    let rows = (block.len() / w).min(y.len());
    out.fill(C64::ZERO);
    for (t, &yt) in y.iter().enumerate().take(rows) {
        let row = &block[t * w..t * w + w];
        for (o, b) in out.iter_mut().zip(row) {
            *o += b.conj() * yt;
        }
    }
}

/// Oracle for [`super::residual_block`]: `out[j] = ‖y − c_j·b_j‖²` for
/// candidate `j`'s strided column, with real and imaginary squares
/// accumulated in *separate* `t`-ascending sums that are added once at
/// the end. That split is the oracle's definition (chosen so vector
/// lanes can keep one `(Σre², Σim²)` accumulator pair per candidate);
/// per-candidate results are independent of the block width.
pub fn residual_block(block: &[C64], y: &[C64], coeffs: &[C64], out: &mut [f64]) {
    let w = out.len();
    assert!(
        w > 0 && w <= super::MAX_BLOCK_WIDTH && coeffs.len() == w,
        "residual_block: width out of range"
    );
    let rows = (block.len() / w).min(y.len());
    let mut acc = [[0.0f64; 2]; super::MAX_BLOCK_WIDTH];
    let acc = &mut acc[..w];
    for a in acc.iter_mut() {
        *a = [0.0; 2];
    }
    for (t, &yt) in y.iter().enumerate().take(rows) {
        let row = &block[t * w..t * w + w];
        for ((a, &c), &b) in acc.iter_mut().zip(coeffs).zip(row) {
            let d = yt - c * b;
            a[0] += d.re * d.re;
            a[1] += d.im * d.im;
        }
    }
    for (o, a) in out.iter_mut().zip(acc.iter()) {
        *o = a[0] + a[1];
    }
}

/// Oracle for [`super::butterflies`]: every radix-2 pass, block length
/// `2, 4, … x.len()`, over an already bit-reversed buffer, in place.
pub fn butterflies(x: &mut [C64], twiddles: &[C64], forward: bool) {
    let n = x.len();
    let mut len = 2;
    while len <= n {
        let half = len / 2;
        let stride = n / len;
        for start in (0..n).step_by(len) {
            for k in 0..half {
                let tw = twiddles[k * stride];
                let tw = if forward { tw } else { tw.conj() };
                let a = x[start + k];
                let b = x[start + k + half] * tw;
                x[start + k] = a + b;
                x[start + k + half] = a - b;
            }
        }
        len <<= 1;
    }
}

/// Oracle for [`super::tone_conj_dot`]: the DTFT bin `Σ_t
/// conj(tone[t])·y[t]` folded by the tone kernel's rows. With `w`, `B`
/// and the two [`super::sincos`] tables exactly as [`tone_into`] builds
/// them, row `a` folds `r_a = Σ_b conj(fine[b])·y[a·B + b]` ascending in
/// `b` from `C64::ZERO` (a short last row stops where `y` does), and the
/// rows fold `Σ_a conj(coarse[a])·r_a` ascending in `a` from
/// `C64::ZERO`. The order of both folds is the definition: a leaf may
/// run the rows side by side, never reassociate within one.
pub fn tone_conj_dot(n: usize, freq_bins: f64, y: &[C64]) -> C64 {
    let w = 2.0 * PI * freq_bins / n as f64;
    let stride = super::tone_stride(n);
    let fine = fine_table(w, stride);
    let mut acc = C64::ZERO;
    for (a, row) in y.chunks(stride).enumerate() {
        let coarse = super::sincos::cis(w * (a * stride) as f64);
        acc += coarse.conj() * conj_row(&fine, row);
    }
    acc
}

/// Oracle for [`super::tone_ramp_conj_dot`]: [`tone_conj_dot`]'s bin `p`
/// and the ramp-weighted bin `q = Σ_t t·conj(tone[t])·y[t]`, one pass
/// over the same rows. With `r_a` the row sum [`tone_conj_dot`] folds and
/// `s_a = Σ_b conj(ramp[b])·y[a·B + b]` the same fold over the ramp
/// table `ramp[b] = fine[b].scale(b)`, row `a` adds `conj(coarse_a)·r_a`
/// to `p` and `conj(coarse_a)·(r_a.scale(a·B) + s_a)` to `q`, ascending
/// in `a` from `C64::ZERO` — so `p` is [`tone_conj_dot`]'s bits.
pub fn tone_ramp_conj_dot(n: usize, freq_bins: f64, y: &[C64]) -> (C64, C64) {
    let w = 2.0 * PI * freq_bins / n as f64;
    let stride = super::tone_stride(n);
    let fine = fine_table(w, stride);
    let ramp = super::ramp_table(&fine[..stride]);
    let (mut p, mut q) = (C64::ZERO, C64::ZERO);
    for (a, row) in y.chunks(stride).enumerate() {
        let coarse = super::sincos::cis(w * (a * stride) as f64).conj();
        let r = conj_row(&fine, row);
        let s = conj_row(&ramp, row);
        p += coarse * r;
        q += coarse * (r.scale((a * stride) as f64) + s);
    }
    (p, q)
}

/// One row of [`tone_conj_dot`]: `Σ_b conj(fine[b])·row[b]`, ascending
/// from `C64::ZERO`.
pub(super) fn conj_row(fine: &[C64], row: &[C64]) -> C64 {
    let mut r = C64::ZERO;
    for (f, y) in fine.iter().zip(row) {
        r += f.conj() * y;
    }
    r
}

/// Oracle for [`super::conj_into`]: `out[i] = conj(src[i])`.
pub fn conj_into(src: &[C64], out: &mut [C64]) {
    for (o, &s) in out.iter_mut().zip(src) {
        *o = s.conj();
    }
}
