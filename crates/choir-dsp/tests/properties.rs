//! Property-based tests for the DSP substrate.

use choir_dsp::complex::{c64, energy, C64};
use choir_dsp::fft::{dft_naive, plan, FftPlan};
use choir_dsp::linalg::{least_squares_refs, residual_energy_refs};
use choir_dsp::peaks::find_peaks;
use choir_dsp::stats;
use proptest::prelude::*;

fn arb_signal(max_len: usize) -> impl Strategy<Value = Vec<C64>> {
    prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 1..max_len)
        .prop_map(|v| v.into_iter().map(|(re, im)| c64(re, im)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fft_roundtrip_any_size(x in arb_signal(300)) {
        let mut y = x.clone();
        plan(x.len()).forward(&mut y);
        plan(x.len()).inverse(&mut y);
        for (a, b) in x.iter().zip(&y) {
            prop_assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn fft_parseval_any_size(x in arb_signal(300)) {
        let mut y = x.clone();
        plan(x.len()).forward(&mut y);
        let ex = energy(&x);
        let ey = energy(&y) / x.len() as f64;
        prop_assert!((ex - ey).abs() <= 1e-6 * ex.max(1.0));
    }

    #[test]
    fn fft_matches_naive_small(x in arb_signal(48)) {
        let mut a = x.clone();
        plan(x.len()).forward(&mut a);
        let b = dft_naive(&x);
        for (u, v) in a.iter().zip(&b) {
            prop_assert!((u - v).abs() < 1e-6);
        }
    }

    #[test]
    fn fft_shift_theorem(x in arb_signal(100), shift in 0usize..20) {
        // Circularly shifting the input rotates each FFT bin by e^{-j2πk·s/N}.
        let n = x.len();
        let s = shift % n;
        let mut fs: Vec<C64> = (0..n).map(|i| x[(i + n - s) % n]).collect();
        let mut fx = x.clone();
        plan(n).forward(&mut fx);
        plan(n).forward(&mut fs);
        for (k, (a, b)) in fx.iter().zip(&fs).enumerate() {
            let rot = C64::cis(-2.0 * std::f64::consts::PI * (k * s) as f64 / n as f64);
            prop_assert!((a * rot - b).abs() < 1e-6 * (1.0 + a.abs()));
        }
    }

    #[test]
    fn peak_finds_random_fractional_tone(fbin in 2.0f64..126.0, _amp_unused in 0.5f64..2.0) {
        let n = 128usize;
        let x: Vec<C64> = (0..n)
            .map(|t| C64::cis(2.0 * std::f64::consts::PI * fbin * t as f64 / n as f64))
            .collect();
        let mut spec = vec![C64::ZERO; 10 * n];
        choir_dsp::workspace::with(|ws| FftPlan::new(10 * n).forward_padded_into(&x, &mut spec, ws));
        let peaks = find_peaks(&spec, 10);
        prop_assert!(!peaks.is_empty());
        prop_assert!((peaks[0].pos - fbin).abs() < 0.06, "pos {} vs {}", peaks[0].pos, fbin);
    }

    #[test]
    fn least_squares_recovers_two_tone_mixture(
        f1 in 5.0f64..60.0,
        df in 2.0f64..60.0,
        re1 in -1.0f64..1.0, im1 in -1.0f64..1.0,
        re2 in -1.0f64..1.0, im2 in -1.0f64..1.0,
    ) {
        let n = 128usize;
        let f2 = f1 + df;
        let mk = |f: f64| -> Vec<C64> {
            (0..n).map(|t| C64::cis(2.0 * std::f64::consts::PI * f * t as f64 / n as f64)).collect()
        };
        let (b1, b2) = (mk(f1), mk(f2));
        let (c1, c2) = (c64(re1, im1), c64(re2, im2));
        let y: Vec<C64> = (0..n).map(|t| b1[t] * c1 + b2[t] * c2).collect();
        let coeffs = least_squares_refs(&[&b1, &b2], &y).unwrap();
        prop_assert!((coeffs[0] - c1).abs() < 1e-6);
        prop_assert!((coeffs[1] - c2).abs() < 1e-6);
        prop_assert!(residual_energy_refs(&[&b1, &b2], &coeffs, &y) < 1e-12);
    }

    #[test]
    fn percentile_within_minmax(v in prop::collection::vec(-100.0f64..100.0, 1..50), p in 0.0f64..100.0) {
        let q = stats::percentile(&v, p);
        let lo = v.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(q >= lo - 1e-12 && q <= hi + 1e-12);
    }

    #[test]
    fn cdf_monotone(v in prop::collection::vec(-10.0f64..10.0, 1..60)) {
        let cdf = stats::empirical_cdf(&v);
        for w in cdf.windows(2) {
            prop_assert!(w[0].0 <= w[1].0 && w[0].1 <= w[1].1);
        }
        prop_assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn complex_field_axioms(
        are in -5.0f64..5.0, aim in -5.0f64..5.0,
        bre in -5.0f64..5.0, bim in -5.0f64..5.0,
        cre in -5.0f64..5.0, cim in -5.0f64..5.0,
    ) {
        let (a, b, c) = (c64(are, aim), c64(bre, bim), c64(cre, cim));
        // Distributivity and commutativity within floating tolerance.
        prop_assert!(((a + b) * c - (a * c + b * c)).abs() < 1e-9);
        prop_assert!((a * b - b * a).abs() < 1e-12);
        prop_assert!(((a * b).conj() - a.conj() * b.conj()).abs() < 1e-12);
        prop_assert!(((a * b).abs() - a.abs() * b.abs()).abs() < 1e-9);
    }
}
