//! Bit-identity property tests for the allocation-free offset-search
//! kernel: every fast path introduced by the scratch-workspace /
//! cached-basis / incremental-Gram rewrite is pitted against a
//! naive-recompute reference (fresh buffers, full rebuilds — the
//! pre-change behaviour) on random multi-user windows. The contract is
//! *bit* identity, not tolerance: `to_bits` on every float. Windows carry
//! 1–4 users with near-far amplitude ratios up to 20 dB plus additive
//! noise, so the kernels are exercised far from the easy orthogonal case.
//!
//! The search *objective* is the one thing here held to a tolerance: its
//! Gram is a closed form, not sampled bases, so `dirichlet_gram_…` and
//! `gram_fit_eval_…` bound how far it may sit from the time-domain
//! arithmetic the reported channels still come from.

use choir_core::estimator::{EstimatorConfig, GramFit, OffsetEstimator};
use choir_dsp::complex::{c64, C64};
use choir_dsp::fft::FftPlan;
use choir_dsp::linalg::{conj_dot, least_squares_refs, residual_energy_refs};
use choir_dsp::peaks::dirichlet;
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

/// The bases the estimator synthesises, recomputed into fresh vectors
/// by the scalar oracle of the tone kernel — no LRU, no dispatch.
fn fresh_bases(freqs: &[f64]) -> Vec<Vec<C64>> {
    freqs
        .iter()
        .map(|&f| {
            let mut b = vec![C64::ZERO; N];
            choir_dsp::backend::scalar::tone_into(&mut b, N, f);
            b
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
/// as it made the sampled one: the probe reports the window energy (the
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

/// What [`GramFit::eval`] rejects a line probe rejects too, with the
/// same answer — the window energy, bit for bit — whether the evaluator
/// has solved anything before or not: fixed hypotheses that coincide, a
/// probe that lands on a fixed tone, and a non-finite abscissa or fixed
/// coordinate. None of them leaves the line unusable for the next probe.
#[test]
fn line_probe_rejects_what_eval_rejects() {
    let y = window(
        &[(40.3, 1.0, 0.4), (90.7, 0.5, 2.0), (150.2, 0.7, 1.0)],
        &vec![(0.01, -0.02); N],
    );
    let energy = choir_dsp::complex::energy(&y);
    let worst = |r: f64, what: &str| assert_eq!(r.to_bits(), energy.to_bits(), "{what}");
    for primed in [false, true] {
        let evaluator = |x: &[f64]| {
            let mut gfit = GramFit::new(N, &y, x.len());
            if primed {
                assert!(gfit.eval(x) < energy || x.iter().any(|v| !v.is_finite()));
            }
            gfit
        };
        // Duplicate fixed hypotheses: no abscissa can mend the line.
        let x = [40.3, 40.3, 150.2];
        let mut gfit = GramFit::new(N, &y, 3);
        if primed {
            gfit.eval(&[40.3, 90.7, 150.2]);
        }
        gfit.hold(2, &x);
        for v in [150.2, 150.0, 17.0] {
            worst(gfit.probe(v), "duplicate fixed tones");
            assert!(!gfit.solved());
        }
        // The same pair with the line on one of them: only the abscissa
        // on top of the other is singular.
        gfit.hold(1, &x);
        worst(gfit.probe(40.3), "probe on a fixed tone");
        let off = gfit.probe(90.7);
        assert!(off < energy, "primed {primed}: {off} vs {energy}");
        assert_eq!(
            off.to_bits(),
            {
                gfit.hold(1, &x);
                gfit.probe(90.7).to_bits()
            },
            "a rejected probe must not disturb the next one"
        );
        // Non-finite abscissae, at every K; the line survives them.
        for k in 1..=3 {
            let x = &[40.3, 90.7, 150.2][..k];
            for i in 0..k {
                let mut gfit = evaluator(x);
                gfit.hold(i, x);
                let good = gfit.probe(x[i]);
                assert!(good < energy);
                for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                    worst(gfit.probe(bad), "non-finite abscissa");
                    assert!(!gfit.solved());
                    assert_eq!(
                        gfit.probe(x[i]).to_bits(),
                        good.to_bits(),
                        "K={k} i={i} {bad}"
                    );
                }
            }
        }
        // A non-finite fixed coordinate closes the line; the moving one
        // may hold anything, it is not read.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut gfit = evaluator(&[40.3, 90.7, 150.2]);
            gfit.hold(0, &[40.3, bad, 150.2]);
            worst(gfit.probe(40.3), "non-finite fixed coordinate");
            gfit.hold(1, &[40.3, bad, 150.2]);
            assert!(gfit.probe(90.7) < energy, "the held coordinate is not read");
        }
    }
}

/// `K` tone positions in the estimator's range whose first two fall in
/// one of [`arb_tone_pair`]'s six separation classes (at `n = N`), the
/// rest anywhere — with an amplitude and a phase each.
fn arb_classed_users() -> impl Strategy<Value = Vec<User>> {
    let nn = N as f64;
    let anywhere = move |r: f64| -1.0 + r * (nn + 2.0);
    (
        1usize..7,
        0u8..6,
        prop::collection::vec(
            (0.0f64..1.0, 0.1f64..1.0, 0.0f64..std::f64::consts::TAU),
            6..7,
        ),
    )
        .prop_map(move |(k, class, draws)| {
            let (u, v) = (draws[0].0, draws[1].0);
            let (lo, hi) = match class {
                0 => (anywhere(u), anywhere(v)),
                1 => (u, u + (v * nn).floor()),
                2 => (anywhere(u), anywhere(u) + (v - 0.5) * 2e-9),
                3 => (anywhere(u), anywhere(u)),
                4 => (u, u + nn),
                _ => (u, nn - v),
            };
            let mut users: Vec<User> = draws.iter().map(|d| (anywhere(d.0), d.1, d.2)).collect();
            (users[0].0, users[1].0) = if v < 0.5 { (lo, hi) } else { (hi, lo) };
            users.truncate(k);
            users
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // A line probe against the full solve it stands for — the arithmetic
    // it replaced, kept as its oracle: K = 1…6 tones, the first pair in
    // every separation class (whole bins apart, wrapped around the band
    // edge, closer than 1e-9, identical), every coordinate held in turn,
    // abscissae across ±0.6 bins. Where `eval` reads a residual the probe
    // reads it to 1e-9 of the window energy; where `eval` rejects the
    // system (exactly the window energy) so does the probe. Each line
    // ends in an accepted move, so the next one must open on a point the
    // evaluator has not solved at.
    #[test]
    fn line_probe_matches_full_eval(
        users in arb_classed_users(),
        noise in arb_noise(),
        moves in prop::collection::vec(-0.2f64..0.2, 6..7),
    ) {
        let y = window(&users, &noise);
        let energy = choir_dsp::complex::energy(&y);
        let k = users.len();
        let mut x: Vec<f64> = users.iter().map(|u| u.0).collect();
        let mut fast = GramFit::new(N, &y, k);
        for primed in [false, true] {
            for i in 0..k {
                fast.hold(i, &x);
                for step in -6i32..=6 {
                    let v = x[i] + 0.1 * f64::from(step);
                    let probed = fast.probe(v);
                    let mut at = x.clone();
                    at[i] = v;
                    let mut full = GramFit::new(N, &y, k);
                    let solved = full.eval(&at);
                    prop_assert!(
                        (probed - solved).abs() <= 1e-9 * energy,
                        "K={} i={} v={} primed={}: probe {} vs eval {} (energy {})",
                        k, i, v, primed, probed, solved, energy
                    );
                    if !full.solved() {
                        prop_assert_eq!(probed.to_bits(), energy.to_bits());
                    }
                }
                x[i] += moves[i];
            }
            // Second round: the evaluator has a full solve behind it.
            fast.eval(&x);
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
