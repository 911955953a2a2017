//! Bit-identity property tests for the allocation-free offset-search
//! kernel: every fast path introduced by the scratch-workspace /
//! cached-basis / incremental-Gram rewrite is pitted against a
//! naive-recompute reference (fresh buffers, full rebuilds — the
//! pre-change behaviour) on random multi-user windows. The contract is
//! *bit* identity, not tolerance: `to_bits` on every float. Windows carry
//! 1–4 users with near-far amplitude ratios up to 20 dB plus additive
//! noise, so the kernels are exercised far from the easy orthogonal case.

use choir_core::estimator::{EstimatorConfig, GramFit, OffsetEstimator};
use choir_dsp::complex::{c64, C64};
use choir_dsp::fft::FftPlan;
use choir_dsp::linalg::{least_squares_refs, residual_energy_refs};
use choir_dsp::resample::{fractional_delay, integer_shift, sinc};
use proptest::prelude::*;

const N: usize = 256; // chips per symbol at the default SF8

/// One transmitter: dechirped-domain tone position, linear amplitude and
/// carrier phase. Amplitudes spanning 0.1..1.0 give near-far ratios up
/// to 20 dB.
type User = (f64, f64, f64);

fn arb_users() -> impl Strategy<Value = Vec<User>> {
    prop::collection::vec(
        (
            1.0f64..(N as f64 - 1.0),
            0.1f64..1.0,
            0.0f64..std::f64::consts::TAU,
        ),
        1..5,
    )
}

fn arb_noise() -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((-0.05f64..0.05, -0.05f64..0.05), N..N + 1)
}

/// Synthesises the dechirped window `y = Σ h_u e^{j2π f_u t / N} + noise`.
fn window(users: &[User], noise: &[(f64, f64)]) -> Vec<C64> {
    (0..N)
        .map(|t| {
            let mut acc = c64(noise[t].0, noise[t].1);
            for &(f, mag, phase) in users {
                let w = 2.0 * std::f64::consts::PI * f * t as f64 / N as f64;
                acc += C64::from_polar(mag, phase) * C64::cis(w);
            }
            acc
        })
        .collect()
}

/// The exact basis formula the estimator synthesises, rebuilt naively.
/// Tone synthesis owns its deterministic sincos (not libm), so the
/// naive reference replays that same kernel.
fn fresh_bases(freqs: &[f64]) -> Vec<Vec<C64>> {
    freqs
        .iter()
        .map(|&f| {
            let w = 2.0 * std::f64::consts::PI * f / N as f64;
            (0..N)
                .map(|t| choir_dsp::backend::sincos::cis(w * t as f64))
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // The incremental [`GramFit`] — one long-lived evaluator whose Gram
    // rows/columns update only for moved coordinates — must agree bit for
    // bit with a naive reference that rebuilds the whole system from
    // scratch at every probe, across a CCD-style probe walk that moves
    // one coordinate at a time.
    #[test]
    fn incremental_gram_fit_matches_fresh_rebuild(
        users in arb_users(),
        noise in arb_noise(),
        walk in prop::collection::vec((0usize..4, -0.5f64..0.5), 1..12),
    ) {
        let y = window(&users, &noise);
        let k = users.len();
        let mut x: Vec<f64> = users.iter().map(|u| u.0).collect();
        let mut fast = GramFit::new(N, &y, k);
        prop_assert_eq!(
            fast.eval(&x).to_bits(),
            GramFit::new(N, &y, k).eval(&x).to_bits(),
            "priming probe diverged"
        );
        for (step, &(coord, delta)) in walk.iter().enumerate() {
            let i = coord % k;
            x[i] = users[i].0 + delta;
            let incremental = fast.eval(&x);
            // The reference pays the full O(K²·N) rebuild every probe —
            // exactly what `refine` did before the rewrite.
            let rebuilt = GramFit::new(N, &y, k).eval(&x);
            prop_assert_eq!(
                incremental.to_bits(),
                rebuilt.to_bits(),
                "probe {} (coord {}, delta {}): {} vs {}",
                step, i, delta, incremental, rebuilt
            );
        }
    }

    // `OffsetEstimator::fit` now serves basis columns from the per-thread
    // LRU and solves through the `_refs` entry points; the result must be
    // bit-identical to the naive path (fresh `Vec` bases).
    #[test]
    fn cached_fit_matches_naive_least_squares(
        users in arb_users(),
        noise in arb_noise(),
    ) {
        let est = OffsetEstimator::new(N, EstimatorConfig::default());
        let y = window(&users, &noise);
        let freqs: Vec<f64> = users.iter().map(|u| u.0).collect();
        let (channels, resid) = est.fit(&y, &freqs);
        let bases = fresh_bases(&freqs);
        let refs: Vec<&[C64]> = bases.iter().map(Vec::as_slice).collect();
        match least_squares_refs(&refs, &y) {
            Some(ref_channels) => {
                let ref_resid = residual_energy_refs(&refs, &ref_channels, &y);
                prop_assert_eq!(channels.len(), ref_channels.len());
                for (a, b) in channels.iter().zip(&ref_channels) {
                    prop_assert_eq!(a.re.to_bits(), b.re.to_bits());
                    prop_assert_eq!(a.im.to_bits(), b.im.to_bits());
                }
                prop_assert_eq!(resid.to_bits(), ref_resid.to_bits());
            }
            None => {
                // Singular system: the estimator reports the worst-case
                // residual (full window energy) and zero channels.
                prop_assert_eq!(resid.to_bits(), choir_dsp::complex::energy(&y).to_bits());
                prop_assert!(channels.iter().all(|c| c.re == 0.0 && c.im == 0.0));
            }
        }
    }

    // The workspace-backed `padded_spectrum` (checkout + `_into` FFT) must
    // be bit-identical to padding by hand and transforming in place.
    #[test]
    fn workspace_padded_spectrum_matches_allocating_fft(
        users in arb_users(),
        noise in arb_noise(),
    ) {
        let est = OffsetEstimator::new(N, EstimatorConfig::default());
        let y = window(&users, &noise);
        let fast = est.padded_spectrum(&y);
        let mut reference = y.clone();
        reference.resize(N * est.config().pad, C64::ZERO);
        FftPlan::new(reference.len()).forward(&mut reference);
        prop_assert_eq!(fast.len(), reference.len());
        for (a, b) in fast.iter().zip(&reference) {
            prop_assert_eq!(a.re.to_bits(), b.re.to_bits());
            prop_assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
    }

    // `fractional_delay` hoists the windowed-sinc kernel out of the
    // per-sample loop (it depends only on the fractional part); the
    // output must match the per-sample recomputation it replaced, bit
    // for bit.
    #[test]
    fn hoisted_sinc_kernel_matches_per_sample_recompute(
        users in arb_users(),
        noise in arb_noise(),
        delay in -3.0f64..3.0,
    ) {
        let x = window(&users, &noise);
        let taps = 8usize;
        let fast = fractional_delay(&x, delay, taps);
        // Pre-change reference: recompute sinc·Hann inside the sample loop.
        let int_part = delay.floor();
        let frac = delay - int_part;
        let int_shift_amt = int_part as i64;
        let reference: Vec<C64> = if frac.abs() < 1e-12 {
            integer_shift(&x, int_shift_amt)
        } else {
            let t = taps as i64;
            (0..N as i64)
                .map(|i| {
                    let mut acc = C64::ZERO;
                    for k in -t..=t {
                        let src = i - int_shift_amt - k;
                        if src < 0 || src >= N as i64 {
                            continue;
                        }
                        let u = k as f64 - frac;
                        let s = sinc(u);
                        let w = 0.5
                            + 0.5 * (std::f64::consts::PI * u / (t as f64 + 1.0)).cos();
                        acc += x[src as usize].scale(s * w.max(0.0));
                    }
                    acc
                })
                .collect()
        };
        for (i, (a, b)) in fast.iter().zip(&reference).enumerate() {
            prop_assert_eq!(a.re.to_bits(), b.re.to_bits(), "sample {} re", i);
            prop_assert_eq!(a.im.to_bits(), b.im.to_bits(), "sample {} im", i);
        }
    }
}
