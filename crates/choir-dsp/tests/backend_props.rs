//! Property suite: every runtime-selectable DSP backend against the
//! scalar oracle, under the 0-ULP policy.
//!
//! The dispatch contract (see `choir_dsp::backend`) is that every
//! backend is *bit-identical* to `backend::scalar` — not merely close.
//! These tests force each backend reported by [`backend::available`] in
//! turn and compare kernel outputs via `f64::to_bits`, on adversarial
//! inputs: denormals, signed zeros, huge/tiny dynamic range (overflowing
//! to ±∞ and generating NaNs), and lengths that are not multiples of any
//! SIMD lane width.
//!
//! NaN results compare as "both NaN" rather than bit-equal: IEEE-754
//! leaves NaN sign/payload propagation unspecified and compilers exploit
//! that, so NaN bits are explicitly outside the 0-ULP budget (see the
//! backend module docs).

use choir_dsp::backend::{self, BackendKind};
use choir_dsp::complex::{c64, C64};
use proptest::prelude::*;
use std::f64::consts::PI;

/// Serialises the tests in this binary: `backend::force` steers a
/// process-global dispatch atomic.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static GUARD: std::sync::Mutex<()> = std::sync::Mutex::new(());
    GUARD
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Restores env-driven auto selection when a test body exits (including
/// by panic, so a failing case does not leak its forced backend into
/// later tests).
struct RestoreBackend;

impl Drop for RestoreBackend {
    fn drop(&mut self) {
        backend::reset();
    }
}

/// Maps a (class, seed) pair to an adversarial `f64`: normals, huge and
/// tiny magnitudes, denormals, and signed zeros — classes `0..6`, what
/// [`arb_wild_signal`] draws. Classes 6 and 7 are the infinities and NaN
/// themselves, for the kernels tested on [`arb_wilder_signal`].
fn wild(class: u8, v: f64) -> f64 {
    match class {
        0 => v,
        1 => v * 1e300,
        2 => v * 1e-300,
        3 => v * f64::MIN_POSITIVE / 4.0,
        4 => {
            if v < 0.0 {
                -0.0
            } else {
                0.0
            }
        }
        5 => v * 1e9,
        6 => f64::INFINITY.copysign(v),
        _ => f64::NAN,
    }
}

type WildPair = (u8, f64);

fn wild_c64((re, im): (WildPair, WildPair)) -> C64 {
    c64(wild(re.0, re.1), wild(im.0, im.1))
}

/// Complex vectors of `1..max_len` values drawn from the first `classes`
/// classes of [`wild`].
fn arb_signal(classes: u8, max_len: usize) -> impl Strategy<Value = Vec<C64>> {
    let part = move || (0..classes, -1.0f64..1.0);
    prop::collection::vec((part(), part()), 1..max_len)
        .prop_map(|v| v.into_iter().map(wild_c64).collect())
}

/// Complex vectors of adversarial values with lengths 1..67 — never a
/// multiple of the 2-complex AVX2 step for long stretches, so every
/// tail path is exercised.
fn arb_wild_signal(max_len: usize) -> impl Strategy<Value = Vec<C64>> {
    arb_signal(6, max_len)
}

/// [`arb_wild_signal`] with the infinities and NaN drawn outright (an
/// eighth of the components each), not only reached by overflow.
fn arb_wilder_signal(max_len: usize) -> impl Strategy<Value = Vec<C64>> {
    arb_signal(8, max_len)
}

/// The butterfly passes on every backend against the oracle, for one
/// buffer and direction.
fn check_butterflies(x: &[C64], forward: bool) {
    let tables = backend::Twiddles::new(x.len());
    let mut want = x.to_vec();
    backend::scalar::butterflies(&mut want, tables.compact(), forward);
    for kind in backend::available() {
        backend::force(kind);
        let mut got = x.to_vec();
        backend::butterflies(&mut got, &tables, forward);
        assert_bits_eq(kind, "butterflies", &got, &want);
    }
}

/// The backend contract: bit-equal, except NaN matches any NaN (sign
/// and payload of NaNs are unspecified by IEEE-754 — see module docs).
fn f64_matches(g: f64, w: f64) -> bool {
    g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan())
}

fn assert_bits_eq(kind: BackendKind, kernel: &str, got: &[C64], want: &[C64]) {
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            f64_matches(g.re, w.re) && f64_matches(g.im, w.im),
            "{kernel} diverged from the scalar oracle on backend {} at index {i}: \
             got ({:?}, {:?}) [{:#018x}, {:#018x}], \
             want ({:?}, {:?}) [{:#018x}, {:#018x}]",
            kind.name(),
            g.re,
            g.im,
            g.re.to_bits(),
            g.im.to_bits(),
            w.re,
            w.im,
            w.re.to_bits(),
            w.im.to_bits(),
        );
    }
}

fn assert_scalar_bits_eq(kind: BackendKind, kernel: &str, got: C64, want: C64) {
    assert_bits_eq(kind, kernel, &[got], &[want]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn conj_dot_matches_oracle_bit_exactly(
        a in arb_wild_signal(67),
        b in arb_wild_signal(67),
    ) {
        let _s = serial();
        let _r = RestoreBackend;
        let n = a.len().min(b.len());
        let want = backend::scalar::conj_dot(&a[..n], &b[..n]);
        for kind in backend::available() {
            backend::force(kind);
            let got = backend::conj_dot(&a[..n], &b[..n]);
            assert_scalar_bits_eq(kind, "conj_dot", got, want);
        }
    }

    #[test]
    fn cmul_and_conj_match_oracle_bit_exactly(
        a in arb_wild_signal(67),
        b in arb_wild_signal(67),
    ) {
        let _s = serial();
        let _r = RestoreBackend;
        let n = a.len().min(b.len());
        let mut want_mul = vec![C64::ZERO; n];
        backend::scalar::cmul_into(&a[..n], &b[..n], &mut want_mul);
        let mut want_conj = vec![C64::ZERO; n];
        backend::scalar::conj_into(&a[..n], &mut want_conj);
        for kind in backend::available() {
            backend::force(kind);
            let mut got = vec![C64::ZERO; n];
            backend::cmul_into(&a[..n], &b[..n], &mut got);
            assert_bits_eq(kind, "cmul_into", &got, &want_mul);
            let mut got = vec![C64::ZERO; n];
            backend::conj_into(&a[..n], &mut got);
            assert_bits_eq(kind, "conj_into", &got, &want_conj);
        }
    }

    #[test]
    fn axpy_matches_oracle_bit_exactly(
        acc in arb_wild_signal(67),
        xs in arb_wild_signal(67),
        amp in ((0u8..6, -1.0f64..1.0), (0u8..6, -1.0f64..1.0)),
        subtract in 0u8..2,
    ) {
        let _s = serial();
        let _r = RestoreBackend;
        let n = acc.len().min(xs.len());
        let amp = wild_c64(amp);
        let subtract = subtract == 1;
        let mut want = acc[..n].to_vec();
        backend::scalar::axpy(&mut want, &xs[..n], amp, subtract);
        for kind in backend::available() {
            backend::force(kind);
            let mut got = acc[..n].to_vec();
            backend::axpy(&mut got, &xs[..n], amp, subtract);
            assert_bits_eq(kind, "axpy", &got, &want);
        }
    }

    // The butterfly passes on every backend against the scalar oracle, up
    // to 8 192 points, on values that include the infinities and NaN
    // outright.
    #[test]
    fn butterflies_match_oracle_bit_exactly(
        log2n in 0u32..14,
        seed in arb_wilder_signal(129),
        forward in 0u8..2,
    ) {
        let _s = serial();
        let _r = RestoreBackend;
        let n = 1usize << log2n;
        // Cycle the drawn values out to the power-of-two length the
        // butterfly passes require.
        let x: Vec<C64> = (0..n).map(|i| seed[i % seed.len()]).collect();
        check_butterflies(&x, forward == 1);
    }

    #[test]
    fn tone_into_matches_oracle_bit_exactly(
        len in 1usize..130,
        freq_bins in -64.0f64..64.0,
    ) {
        let _s = serial();
        let _r = RestoreBackend;
        let mut want = vec![C64::ZERO; len];
        backend::scalar::tone_into(&mut want, len, freq_bins);
        for kind in backend::available() {
            backend::force(kind);
            let mut got = vec![C64::ZERO; len];
            backend::tone_into(&mut got, len, freq_bins);
            assert_bits_eq(kind, "tone_into", &got, &want);
        }
    }

    #[test]
    fn dot_matches_oracle_bit_exactly(
        a in arb_wild_signal(67),
        b in arb_wild_signal(67),
    ) {
        let _s = serial();
        let _r = RestoreBackend;
        let n = a.len().min(b.len());
        let want = backend::scalar::dot(&a[..n], &b[..n]);
        for kind in backend::available() {
            backend::force(kind);
            let got = backend::dot(&a[..n], &b[..n]);
            assert_scalar_bits_eq(kind, "dot", got, want);
        }
    }

    // The strided tone fill at every block width `1..=MAX_BLOCK_WIDTH`,
    // on every backend, against the scalar oracle — and every blocked
    // column against a plain width-1 `tone_into` at the same frequency,
    // which is the bit contract the estimator's width sweep rests on.
    #[test]
    fn tone_block_matches_oracle_and_width_one(
        rows in 1usize..67,
        width in 1usize..9,
        freqs in prop::collection::vec(-64.0f64..64.0, 8..9),
    ) {
        let _s = serial();
        let _r = RestoreBackend;
        let freqs = &freqs[..width];
        let mut want = vec![C64::ZERO; rows * width];
        backend::scalar::tone_block_into(&mut want, rows, freqs);
        // Blocked column j == dense tone at freqs[j], bit for bit.
        for (j, &f) in freqs.iter().enumerate() {
            let mut dense = vec![C64::ZERO; rows];
            backend::scalar::tone_into(&mut dense, rows, f);
            let col: Vec<C64> = (0..rows).map(|t| want[t * width + j]).collect();
            assert_bits_eq(BackendKind::Scalar, "tone_block column", &col, &dense);
        }
        for kind in backend::available() {
            backend::force(kind);
            let mut got = vec![C64::ZERO; rows * width];
            backend::tone_block_into(&mut got, rows, freqs);
            assert_bits_eq(kind, "tone_block_into", &got, &want);
        }
    }

    // The blocked projection and residual kernels on adversarial block
    // contents (NaNs, denormals, huge/tiny magnitudes cycled into the
    // AoSoA layout) at every width, on every backend — and each blocked
    // lane against its per-candidate width-1 reference, so a width-W
    // call is provably just W independent candidates.
    #[test]
    fn blocked_projection_and_residual_match_oracle_bit_exactly(
        rows in 1usize..67,
        width in 1usize..9,
        seed in arb_wild_signal(129),
        y in arb_wild_signal(67),
        coeffs in prop::collection::vec(((0u8..6, -1.0f64..1.0), (0u8..6, -1.0f64..1.0)), 8..9),
    ) {
        let _s = serial();
        let _r = RestoreBackend;
        // Cycle the drawn values out to the strided block length.
        let block: Vec<C64> = (0..rows * width).map(|i| seed[i % seed.len()]).collect();
        let coeffs: Vec<C64> = coeffs.into_iter().take(width).map(wild_c64).collect();

        let mut want_proj = vec![C64::ZERO; width];
        backend::scalar::conj_dot_block(&block, &y, &mut want_proj);
        let mut want_res = vec![0.0f64; width];
        backend::scalar::residual_block(&block, &y, &coeffs, &mut want_res);

        // Width-W lane j == the width-1 call on candidate j's dense column.
        for j in 0..width {
            let col: Vec<C64> = (0..rows).map(|t| block[t * width + j]).collect();
            let dense_proj = backend::scalar::conj_dot(&col, &y[..rows.min(y.len())]);
            assert_scalar_bits_eq(
                BackendKind::Scalar,
                "conj_dot_block lane vs conj_dot",
                want_proj[j],
                dense_proj,
            );
            let mut dense_res = [0.0f64];
            backend::scalar::residual_block(&col, &y, &coeffs[j..j + 1], &mut dense_res);
            prop_assert!(
                f64_matches(want_res[j], dense_res[0]),
                "residual_block lane {j} at width {width} diverged from its width-1 \
                 reference: got {:?} [{:#018x}], want {:?} [{:#018x}]",
                want_res[j],
                want_res[j].to_bits(),
                dense_res[0],
                dense_res[0].to_bits(),
            );
        }

        for kind in backend::available() {
            backend::force(kind);
            let mut got_proj = vec![C64::ZERO; width];
            backend::conj_dot_block(&block, &y, &mut got_proj);
            assert_bits_eq(kind, "conj_dot_block", &got_proj, &want_proj);
            let mut got_res = vec![0.0f64; width];
            backend::residual_block(&block, &y, &coeffs, &mut got_res);
            for (j, (g, w)) in got_res.iter().zip(&want_res).enumerate() {
                prop_assert!(
                    f64_matches(*g, *w),
                    "residual_block diverged from the scalar oracle on backend {} at \
                     lane {j}: got {:?} [{:#018x}], want {:?} [{:#018x}]",
                    kind.name(),
                    g,
                    g.to_bits(),
                    w,
                    w.to_bits(),
                );
            }
        }
    }
}

/// The arithmetic the two-level tone kernel replaced, kept as its
/// accuracy oracle: one deterministic `cis` per element.
fn per_element_tone(len: usize, n: usize, freq_bins: f64) -> Vec<C64> {
    let w = 2.0 * PI * freq_bins / n as f64;
    (0..len)
        .map(|t| backend::sincos::cis(w * t as f64))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // The angle-addition tone against the per-element kernel it
    // replaced and against libm, for every LoRa symbol length, buffer
    // lengths that are and are not multiples of the fine-table length
    // (and differ from `n`), over the estimator's frequency range
    // `[-1, n+1]`: no further from either than the rounding of the phase
    // product `w·t` itself, unit magnitude to rounding, and *bitwise*
    // the per-element value wherever one of the two factors is `cis(0)`
    // — row 0 (the fine table verbatim) and column 0 of every row.
    #[test]
    fn tone_into_tracks_per_element_cis(
        sf in 7u32..13,
        len_rows in 0usize..70,
        len_tail in 0usize..64,
        pos in 0.0f64..1.0,
        width in 1usize..9,
    ) {
        let _s = serial();
        let _r = RestoreBackend;
        let n = 1usize << sf;
        let stride = backend::tone_stride(n);
        prop_assert!(stride * stride >= n && stride.is_power_of_two());
        let len = (len_rows * stride + len_tail % stride).max(1);
        let freq_bins = -1.0 + pos * (n as f64 + 2.0);
        let w = 2.0 * PI * freq_bins / n as f64;
        let want = per_element_tone(len, n, freq_bins);
        let mut oracle = vec![C64::ZERO; len];
        backend::scalar::tone_into(&mut oracle, n, freq_bins);
        for kind in backend::available() {
            backend::force(kind);
            let mut got = vec![C64::ZERO; len];
            backend::tone_into(&mut got, n, freq_bins);
            assert_bits_eq(kind, "tone_into (SF lengths)", &got, &oracle);
            // The same tone as the last column of a width-`width` block.
            let mut freqs = vec![0.25; width];
            freqs[width - 1] = freq_bins;
            let mut block = vec![C64::ZERO; len * width];
            backend::tone_block_into(&mut block, n, &freqs);
            let col: Vec<C64> = (0..len).map(|t| block[t * width + width - 1]).collect();
            assert_bits_eq(kind, "tone_block_into column (SF lengths)", &col, &oracle);
        }
        for (t, (&v, &e)) in oracle.iter().zip(&want).enumerate() {
            let phase = w * t as f64;
            let tol = 4.0 * f64::EPSILON * (phase.abs() + 1.0);
            prop_assert!((v - e).abs() <= tol, "t={} vs per-element: {:e}", t, (v - e).abs());
            let libm = C64::cis(phase);
            prop_assert!((v - libm).abs() <= tol, "t={} vs libm: {:e}", t, (v - libm).abs());
            prop_assert!((v.abs() - 1.0).abs() < 1e-15, "t={} |v|-1 = {:e}", t, v.abs() - 1.0);
            if t < stride || t % stride == 0 {
                prop_assert!(
                    v.re.to_bits() == e.re.to_bits() && v.im.to_bits() == e.im.to_bits(),
                    "t={} (stride {}) is not the per-element value", t, stride
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // The fused DTFT bin: scalar ≡ AVX2 bitwise at every LoRa symbol
    // length, on windows whose length is and is not a multiple of the
    // fine-table length and differs from `n` (the CFO search's segments
    // are ragged), adversarial and tame — and, on the tame one, within
    // `4·n·ε·Σ|y|` of the two-step `conj_dot(tone_into(f), y)` whose
    // rounding it replaces.
    #[test]
    fn tone_conj_dot_matches_oracle_and_tracks_the_two_step_bin(
        sf in 7u32..13,
        len_rows in 0usize..70,
        len_tail in 0usize..64,
        pos in 0.0f64..1.0,
        wild_seed in arb_wild_signal(129),
        tame_seed in prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 1..129),
    ) {
        let _s = serial();
        let _r = RestoreBackend;
        let n = 1usize << sf;
        let stride = backend::tone_stride(n);
        let len = len_rows * stride + len_tail % stride;
        let freq_bins = -1.0 + pos * (n as f64 + 2.0);
        let wild_y: Vec<C64> = (0..len).map(|i| wild_seed[i % wild_seed.len()]).collect();
        let tame_y: Vec<C64> = (0..len)
            .map(|i| tame_seed[i % tame_seed.len()])
            .map(|(re, im)| c64(re, im))
            .collect();
        let want_wild = backend::scalar::tone_conj_dot(n, freq_bins, &wild_y);
        let want_tame = backend::scalar::tone_conj_dot(n, freq_bins, &tame_y);
        for kind in backend::available() {
            backend::force(kind);
            let got = backend::tone_conj_dot(n, freq_bins, &wild_y);
            assert_scalar_bits_eq(kind, "tone_conj_dot (wild)", got, want_wild);
            let got = backend::tone_conj_dot(n, freq_bins, &tame_y);
            assert_scalar_bits_eq(kind, "tone_conj_dot (tame)", got, want_tame);
        }
        let mut tone = vec![C64::ZERO; len];
        backend::scalar::tone_into(&mut tone, n, freq_bins);
        let two_step = backend::scalar::conj_dot(&tone, &tame_y);
        let l1: f64 = tame_y.iter().map(|v| v.abs()).sum();
        let tol = 4.0 * n as f64 * f64::EPSILON * l1;
        prop_assert!(
            (want_tame - two_step).abs() <= tol,
            "n={} len={} f={}: fused {:?} vs two-step {:?} (tol {:e})",
            n, len, freq_bins, want_tame, two_step, tol
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The fused bin and its ramp twin, bit for bit on every backend,
    // over the same lengths and frequencies as `tone_conj_dot`: the ramp
    // kernel's `p` is `tone_conj_dot`'s bits.
    #[test]
    fn tone_ramp_conj_dot_matches_oracle_bit_exactly(
        sf in 7u32..13,
        len_rows in 0usize..70,
        len_tail in 0usize..64,
        pos in 0.0f64..1.0,
        wild_seed in arb_wild_signal(129),
        tame_seed in prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 1..129),
    ) {
        let _s = serial();
        let _r = RestoreBackend;
        let n = 1usize << sf;
        let stride = backend::tone_stride(n);
        let len = len_rows * stride + len_tail % stride;
        let freq_bins = -1.0 + pos * (n as f64 + 2.0);
        let wild_y: Vec<C64> = (0..len).map(|i| wild_seed[i % wild_seed.len()]).collect();
        let tame_y: Vec<C64> = (0..len)
            .map(|i| tame_seed[i % tame_seed.len()])
            .map(|(re, im)| c64(re, im))
            .collect();
        for y in [&wild_y, &tame_y] {
            let (p, q) = backend::scalar::tone_ramp_conj_dot(n, freq_bins, y);
            let bin = backend::scalar::tone_conj_dot(n, freq_bins, y);
            assert_scalar_bits_eq(BackendKind::Scalar, "tone_ramp_conj_dot p", p, bin);
            for kind in backend::available() {
                backend::force(kind);
                let (gp, gq) = backend::tone_ramp_conj_dot(n, freq_bins, y);
                assert_scalar_bits_eq(kind, "tone_ramp_conj_dot p", gp, p);
                assert_scalar_bits_eq(kind, "tone_ramp_conj_dot q", gq, q);
            }
        }
    }
}

/// The ramp kernel against a libm oracle: `p = Σ_t conj(cis(ωt))·y[t]`
/// and `q = Σ_t t·conj(cis(ωt))·y[t]` summed directly with `C64::cis`,
/// within 1e-9 of their scales (`Σ|y|` and `Σ t·|y|`) at every symbol
/// length the decoder runs most, on every backend.
#[test]
fn tone_ramp_conj_dot_matches_a_direct_sum() {
    let _s = serial();
    let _r = RestoreBackend;
    for n in [128usize, 256, 1024] {
        let y: Vec<C64> = (0..n)
            .map(|t| {
                let t = t as f64;
                c64((t * 0.37).sin() + 0.3, (t * 0.11).cos() - 0.2)
            })
            .collect();
        for freq_bins in [0.0, 0.37, 17.25, n as f64 / 2.0 + 0.61, n as f64 - 1.3] {
            let w = 2.0 * PI * freq_bins / n as f64;
            let (mut p, mut q) = (C64::ZERO, C64::ZERO);
            for (t, v) in y.iter().enumerate() {
                let term = C64::cis(w * t as f64).conj() * *v;
                p += term;
                q += term.scale(t as f64);
            }
            let l1: f64 = y.iter().map(|v| v.abs()).sum();
            let ramp_l1: f64 = y.iter().enumerate().map(|(t, v)| t as f64 * v.abs()).sum();
            for kind in backend::available() {
                backend::force(kind);
                let (gp, gq) = backend::tone_ramp_conj_dot(n, freq_bins, &y);
                assert!(
                    (gp - p).abs() <= 1e-9 * l1,
                    "{kind:?} n {n} f {freq_bins}: {gp:?} vs {p:?}"
                );
                assert!(
                    (gq - q).abs() <= 1e-9 * ramp_l1,
                    "{kind:?} n {n} f {freq_bins}: {gq:?} vs {q:?}"
                );
            }
        }
    }
}

/// `dirichlet_ramps` — closed form above `RAMP_DIRECT_BELOW`, a row-wise
/// sum below it — against `E = Σ t·e^{jωt}` and `F = Σ t²·e^{jωt}`
/// summed directly with `C64::cis`: on both sides of the switch, at the
/// band edge `ω = ±π`, at `ω = 0` (exact integers) and a period away,
/// within 1e-9 of `Σ t` and `Σ t²`.
#[test]
fn dirichlet_ramps_match_direct_sums() {
    use choir_dsp::peaks::{dirichlet_ramps, RAMP_DIRECT_BELOW};
    for n in [128usize, 256, 1024, 4096] {
        let nn = n as f64;
        let bins = |omega: f64| omega * nn / (2.0 * PI);
        let mut xs = vec![0.0, nn, -nn / 2.0, nn / 2.0, bins(PI) - 1e-9, 0.37, -3.2];
        for scale in [0.5, 0.9, 0.999, 1.001, 1.1, 2.0] {
            xs.push(bins(scale * RAMP_DIRECT_BELOW));
            xs.push(-bins(scale * RAMP_DIRECT_BELOW));
        }
        for x in xs {
            let omega = 2.0 * PI * x / nn;
            let (mut e, mut f) = (C64::ZERO, C64::ZERO);
            for t in 0..n {
                let (z, t) = (C64::cis(omega * t as f64), t as f64);
                e += z.scale(t);
                f += z.scale(t * t);
            }
            let (got_e, got_f) = dirichlet_ramps(n, x);
            let (sum_t, sum_t2) = (
                nn * (nn - 1.0) / 2.0,
                (nn - 1.0) * nn * (2.0 * nn - 1.0) / 6.0,
            );
            assert!(
                (got_e - e).abs() <= 1e-9 * sum_t,
                "n {n} x {x}: E {got_e:?} vs {e:?}"
            );
            assert!(
                (got_f - f).abs() <= 1e-9 * sum_t2,
                "n {n} x {x}: F {got_f:?} vs {f:?}"
            );
        }
        // A tone against itself: the exact power sums.
        let (e, f) = dirichlet_ramps(n, 0.0);
        let (sum_t, sum_t2) = (
            nn * (nn - 1.0) / 2.0,
            (nn - 1.0) * nn * (2.0 * nn - 1.0) / 6.0,
        );
        assert_eq!(
            (e.re.to_bits(), e.im.to_bits()),
            (sum_t.to_bits(), 0.0f64.to_bits())
        );
        assert_eq!(
            (f.re.to_bits(), f.im.to_bits()),
            (sum_t2.to_bits(), 0.0f64.to_bits())
        );
    }
}

/// The padded transform, bit for bit on every backend: every LoRa symbol
/// length, the paper's pad and two other Bluestein pads and a radix-2
/// pad, on a window of the symbol's length (split into short transforms)
/// and on one a sample shorter (padded by hand and transformed whole).
#[test]
fn padded_transform_is_bit_identical_across_backends() {
    let _s = serial();
    let _r = RestoreBackend;
    for sf in 7u32..=12 {
        let n = 1usize << sf;
        let x: Vec<C64> = (0..n)
            .map(|i| {
                let t = i as f64;
                c64(
                    (t * 0.37).sin() + 0.1 * (t * 1.9).cos() + 2.0,
                    (t * 0.91).cos() - 2.0,
                )
            })
            .collect();
        for pad in [3usize, 4, 5, 10] {
            let plan = choir_dsp::fft::plan(n * pad);
            for live in [n, n - 1] {
                backend::force(BackendKind::Scalar);
                let mut oracle = vec![C64::ONE; n * pad];
                choir_dsp::workspace::with(|ws| {
                    plan.forward_padded_into(&x[..live], &mut oracle, ws)
                });
                for kind in backend::available() {
                    backend::force(kind);
                    let mut got = vec![C64::ONE; n * pad];
                    choir_dsp::workspace::with(|ws| {
                        plan.forward_padded_into(&x[..live], &mut got, ws)
                    });
                    let what = format!("SF{sf} pad {pad} live {live} vs scalar");
                    assert_bits_eq(kind, &what, &got, &oracle);
                }
            }
        }
    }
}

/// Every shape the leaf has a branch for, not a draw of them: every
/// length to 8 192 (so pass counts of both parities after the
/// in-register pair), both directions. Three signals a length, because a NaN
/// or an overflow spreads to every output within `log2 n` passes and a
/// buffer of NaNs compares equal to anything: one that stays finite
/// through all thirteen passes (normals over forty decades, denormals,
/// both zeros), the same with a few infinities, NaNs and `1e300`s planted
/// (confined to a corner of the output when few passes run), and one
/// where every class is dense.
#[test]
fn butterflies_match_the_oracle_at_every_shape() {
    let _s = serial();
    let _r = RestoreBackend;
    let unit = |i: usize| {
        let v = (i as f64 * 0.618 + 0.3).sin();
        if i.is_multiple_of(3) {
            -v
        } else {
            v
        }
    };
    let finite = |i: usize| match i % 7 {
        0 => unit(i) * 1e20,
        1 => unit(i) * 1e-20,
        2 => wild(3, unit(i)),
        3 => wild(4, unit(i)),
        _ => unit(i),
    };
    let planted = |i: usize| match i % 61 {
        13 => wild(6, unit(i)),
        29 => wild(7, unit(i)),
        47 => wild(1, unit(i)),
        _ => finite(i),
    };
    let dense = |i: usize| wild((i % 8) as u8, unit(i));
    for log2n in 0..=13 {
        let n = 1usize << log2n;
        let signal = |f: &dyn Fn(usize) -> f64| -> Vec<C64> {
            (0..n).map(|i| c64(f(2 * i), f(2 * i + 5))).collect()
        };
        for x in [signal(&finite), signal(&planted), signal(&dense)] {
            for forward in [true, false] {
                check_butterflies(&x, forward);
            }
        }
        // The first signal is what it says: finite after every pass.
        let mut all = signal(&finite);
        backend::butterflies(&mut all, &backend::Twiddles::new(n), true);
        assert!(all.iter().all(|v| v.re.is_finite() && v.im.is_finite()));
    }
}

/// The staged table is the compact one regrouped, never recomputed: the
/// pass of half-length `half` owns entries `half − 1 + k`, each the
/// doubled real and doubled imaginary part of `compact[k·n/(2·half)]`,
/// bit for bit — and the compact table is the plan's `cis(−2πk/n)`.
#[test]
fn staged_twiddles_are_the_compact_table_regrouped() {
    for log2n in 0..=13 {
        let n = 1usize << log2n;
        let tables = backend::Twiddles::new(n);
        assert_eq!(tables.transform_len(), n);
        let compact = tables.compact();
        assert_eq!(compact.len(), n / 2);
        for (k, w) in compact.iter().enumerate() {
            let want = C64::cis(-2.0 * PI * k as f64 / n as f64);
            assert_bits_eq(BackendKind::Scalar, "compact", &[*w], &[want]);
        }
        let (re, im) = tables.staged();
        assert_eq!((re.len(), im.len()), (2 * (n - 1), 2 * (n - 1)), "n={n}");
        let mut half = 1;
        while half < n {
            for k in 0..half {
                let w = compact[k * n / (2 * half)];
                let e = 2 * (half - 1 + k);
                for (got, want) in [(&re[e..e + 2], w.re), (&im[e..e + 2], w.im)] {
                    assert_eq!(
                        [got[0].to_bits(), got[1].to_bits()],
                        [want.to_bits(); 2],
                        "n={n} half={half} k={k}"
                    );
                }
            }
            half *= 2;
        }
    }
}

/// A non-finite frequency poisons both tables of the fused bin too: NaN
/// on every backend for any non-empty window, whole or ragged.
#[test]
fn non_finite_frequency_yields_a_nan_bin() {
    let _s = serial();
    let _r = RestoreBackend;
    let y = vec![C64::ONE; 256];
    for kind in backend::available() {
        backend::force(kind);
        for f in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for len in [1usize, 15, 16, 37, 256] {
                let bin = backend::tone_conj_dot(256, f, &y[..len]);
                assert!(
                    bin.re.is_nan() && bin.im.is_nan(),
                    "{} f={f} len={len}",
                    kind.name()
                );
            }
        }
    }
}

/// A non-finite frequency poisons both tables, so every element is NaN
/// on every backend, dense and blocked — never a stale or partial tone.
#[test]
fn non_finite_frequency_yields_all_nan_tones() {
    let _s = serial();
    let _r = RestoreBackend;
    for kind in backend::available() {
        backend::force(kind);
        for f in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for len in [1usize, 15, 16, 37, 256] {
                let mut dense = vec![C64::ONE; len];
                backend::tone_into(&mut dense, 256, f);
                let mut block = vec![C64::ONE; len * 3];
                backend::tone_block_into(&mut block, 256, &[f, f, f]);
                assert!(
                    dense
                        .iter()
                        .chain(&block)
                        .all(|v| v.re.is_nan() && v.im.is_nan()),
                    "{} f={f} len={len}",
                    kind.name()
                );
            }
        }
    }
}

/// Forcing each listed backend steers dispatch (`active()` reports the
/// forced kind), and the scalar oracle is always listed — so this still
/// means something on a scalar-only host.
#[test]
fn every_available_backend_is_forceable() {
    let _s = serial();
    let _r = RestoreBackend;
    let kinds = backend::available();
    assert!(kinds.contains(&BackendKind::Scalar));
    for kind in kinds {
        backend::force(kind);
        assert_eq!(backend::active(), kind);
    }
}
