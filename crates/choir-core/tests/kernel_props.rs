//! Property tests for the offset-search kernel: the incremental
//! [`GramFit`] against a from-scratch rebuild (bit identity: `to_bits` on
//! every float), and its closed-form objective and gains against the
//! time-domain least squares on sampled bases (`OffsetEstimator::fit`),
//! the arithmetic they stand for. Windows carry up to six users with
//! near-far amplitude ratios up to 20 dB plus additive noise, so the
//! kernels are exercised far from the easy orthogonal case.
//!
//! The closed form is held to a tolerance, not bits: its Gram is the
//! Dirichlet kernel, not sampled bases, so `dirichlet_gram_…`,
//! `gram_fit_eval_…` and `refine_channels_…` bound how far the search's
//! residual and the channels it reports may sit from `fit`'s.

use choir_core::estimator::{EstimatorConfig, GramFit, OffsetEstimator};
use choir_dsp::complex::{c64, C64};
use choir_dsp::linalg::conj_dot;
use choir_dsp::peaks::dirichlet;
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

/// A pair of tone positions in the estimator's range `[-1, n+1]`,
/// `n = 2^sf`, by separation class: anywhere, a whole number of bins
/// apart, closer than 1e-9 bins, identical, exactly `n` apart, and
/// wrapped around the band edge (circularly close, `≈ n` apart).
fn arb_tone_pair() -> impl Strategy<Value = (usize, f64, f64)> {
    (7u32..13, 0u8..6, 0.0f64..1.0, 0.0f64..1.0).prop_map(|(sf, class, u, v)| {
        let n = 1usize << sf;
        let nn = n as f64;
        let anywhere = |r: f64| -1.0 + r * (nn + 2.0);
        let (lo, hi) = match class {
            0 => (anywhere(u), anywhere(v)),
            1 => (u, u + (v * nn).floor()),
            2 => (anywhere(u), anywhere(u) + (v - 0.5) * 2e-9),
            3 => (anywhere(u), anywhere(u)),
            4 => (u, u + nn),
            _ => (u, nn - v),
        };
        if v < 0.5 {
            (n, lo, hi)
        } else {
            (n, hi, lo)
        }
    })
}

/// Well-separated tones (one per `N/6`-bin sector, at least a bin from
/// any neighbour) with the near-far amplitudes of [`arb_users`].
fn arb_separated_users() -> impl Strategy<Value = Vec<User>> {
    prop::collection::vec(
        (0.0f64..1.0, 0.1f64..1.0, 0.0f64..std::f64::consts::TAU),
        1..7,
    )
    .prop_map(|users| {
        let sector = N as f64 / 6.0;
        users
            .into_iter()
            .enumerate()
            .map(|(i, (u, mag, phase))| (1.0 + i as f64 * sector + u * (sector - 2.0), mag, phase))
            .collect()
    })
}

/// A duplicated hypothesis makes the closed-form Gram exactly singular,
/// as it makes the sampled one: `eval` reports the window energy (the
/// worst fit there is) and says its coefficients are stale.
#[test]
fn duplicate_hypotheses_score_the_window_energy() {
    let y = window(
        &[(40.3, 1.0, 0.4), (90.7, 0.5, 2.0)],
        &vec![(0.01, -0.02); N],
    );
    let mut gfit = GramFit::new(N, &y, 2);
    assert!(gfit.eval(&[40.3, 90.7]) < choir_dsp::complex::energy(&y));
    assert!(gfit.solved());
    let r = gfit.eval(&[40.3, 40.3]);
    assert_eq!(r.to_bits(), choir_dsp::complex::energy(&y).to_bits());
    assert!(!gfit.solved());
}

/// Regression: a non-finite frequency at K = 1 read `0.0` — a perfect
/// fit — with `solved() == true`: the one-tone Gram is its constant
/// diagonal, so it factored, the NaN projection went through
/// `gram_residual`, and the zero clamp swallowed the NaN. Any non-finite
/// hypothesis is the worst fit there is, at every K.
#[test]
fn non_finite_hypothesis_is_the_worst_fit() {
    let y = window(
        &[(40.3, 1.0, 0.4), (90.7, 0.5, 2.0)],
        &vec![(0.01, -0.02); N],
    );
    let energy = choir_dsp::complex::energy(&y);
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        for x in [&[bad][..], &[40.3, bad][..], &[bad, 90.7][..]] {
            let mut gfit = GramFit::new(N, &y, x.len());
            assert_eq!(gfit.eval(x).to_bits(), energy.to_bits(), "{x:?}");
            assert!(!gfit.solved(), "{x:?}");
            // And mid-search, after finite probes primed the evaluator.
            assert!(gfit.eval(&[40.3, 90.7][..x.len()]) < energy);
            assert_eq!(gfit.eval(x).to_bits(), energy.to_bits(), "primed {x:?}");
            assert!(!gfit.solved(), "primed {x:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // The closed-form Gram entry `n·D(f_j − f_i)` the search objective
    // uses against the sampled one it replaced — `conj_dot` of the two
    // synthesised bases — over every separation class of
    // [`arb_tone_pair`], at every LoRa symbol length.
    #[test]
    fn dirichlet_gram_matches_sampled_gram(pair in arb_tone_pair()) {
        let (n, f_i, f_j) = pair;
        let mut b_i = vec![C64::ZERO; n];
        let mut b_j = vec![C64::ZERO; n];
        choir_dsp::backend::tone_into(&mut b_i, n, f_i);
        choir_dsp::backend::tone_into(&mut b_j, n, f_j);
        let sampled = conj_dot(&b_i, &b_j);
        let closed = dirichlet(n, f_j, f_i, 1).scale(n as f64);
        prop_assert!(
            (closed - sampled).abs() <= 1e-10 * n as f64,
            "n={} f_i={} f_j={}: closed {:?} vs sampled {:?}",
            n, f_i, f_j, closed, sampled
        );
    }

    // The search objective against the time-domain residual it stands
    // for: at any probe point of a K = 1…6 tone set in noise,
    // `GramFit::eval` is `OffsetEstimator::fit`'s residual to 1e-9.
    #[test]
    fn gram_fit_eval_matches_time_domain_residual(
        users in arb_separated_users(),
        noise in arb_noise(),
        nudge in prop::collection::vec(-0.3f64..0.3, 6..7),
    ) {
        let est = OffsetEstimator::new(N, EstimatorConfig::default());
        let y = window(&users, &noise);
        let x: Vec<f64> = users.iter().zip(&nudge).map(|(u, d)| u.0 + d).collect();
        let mut gfit = GramFit::new(N, &y, x.len());
        let fast = gfit.eval(&x);
        prop_assert!(gfit.solved());
        let (_, exact) = est.fit(&y, &x);
        prop_assert!(
            (fast - exact).abs() <= 1e-9 * exact,
            "K={}: eval {} vs fit {}", x.len(), fast, exact
        );
    }

    // The channels `refine` reports — the gains of the solve at the point
    // its search accepted — against the time-domain fit at the positions
    // it reports: K = 1…6 tones in noise, the search started up to half
    // a pad-10 cell off each, agree within 1e-9·‖y‖.
    #[test]
    fn refine_channels_match_the_time_domain_fit(
        users in arb_separated_users(),
        noise in arb_noise(),
        nudge in prop::collection::vec(-0.05f64..0.05, 6..7),
    ) {
        let est = OffsetEstimator::new(N, EstimatorConfig::default());
        // `refine` reads a received window: undo the dechirp.
        let down = lora_phy::chirp::base_downchirp_cached(N);
        let received: Vec<C64> = window(&users, &noise)
            .iter()
            .zip(down.iter())
            .map(|(y, d)| *y * d.conj())
            .collect();
        let coarse: Vec<f64> = users.iter().zip(&nudge).map(|(u, d)| u.0 + d).collect();
        let comps = est.refine(&received, &coarse);
        let y = est.dechirp(&received);
        let freqs: Vec<f64> = comps.iter().map(|c| c.freq_bins).collect();
        let (channels, _) = est.fit(&y, &freqs);
        let norm = choir_dsp::complex::energy(&y).sqrt();
        for (i, (c, h)) in comps.iter().zip(&channels).enumerate() {
            prop_assert!(
                (c.channel - *h).abs() <= 1e-9 * norm,
                "K={} component {}: refine {:?} vs fit {:?}", comps.len(), i, c.channel, h
            );
        }
    }
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
}
