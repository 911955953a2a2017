//! Property-based tests for the debug-build numerical sanitizers — the
//! sanitizer sanitized. Two contracts matter:
//!
//! 1. the checks never fire on healthy pipelines (every FFT in the random
//!    sweep satisfies Parseval within [`checks::PARSEVAL_REL_TOL`]);
//! 2. the checks *do* fire on corrupt data in debug builds (an injected
//!    NaN anywhere in a buffer trips [`checks::assert_finite`]).

use choir_dsp::checks;
use choir_dsp::complex::{c64, energy, C64};
use choir_dsp::fft::{plan, FftPlan};
use proptest::prelude::*;

fn arb_signal(max_len: usize) -> impl Strategy<Value = Vec<C64>> {
    prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 1..max_len)
        .prop_map(|v| v.into_iter().map(|(re, im)| c64(re, im)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn parseval_holds_within_1e9_for_random_signals(x in arb_signal(400)) {
        // The sanitizer's own tolerance (1e-9 relative) must hold across
        // both radix-2 and Bluestein sizes — this exercises the same
        // assert_parseval that FftPlan::forward runs in debug builds, but
        // unconditionally, so release test runs cover it too.
        let time_energy = energy(&x);
        let mut y = x.clone();
        plan(x.len()).forward(&mut y);
        checks::assert_parseval("prop:forward", time_energy, &y);
        let freq_energy = energy(&y);
        prop_assert!(
            (freq_energy - x.len() as f64 * time_energy).abs()
                <= checks::PARSEVAL_REL_TOL * freq_energy.max(1.0)
        );
    }

    #[test]
    fn roundtrip_keeps_buffers_clean(x in arb_signal(300)) {
        // No stage of forward+inverse may mint a NaN/Inf from finite input.
        let mut y = x.clone();
        plan(x.len()).forward(&mut y);
        plan(x.len()).inverse(&mut y);
        prop_assert!(checks::scan(&y).is_finite());
        for (a, b) in x.iter().zip(&y) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn scan_finds_an_injected_nan_anywhere(
        x in arb_signal(200),
        pos in 0.0f64..1.0,
    ) {
        let mut x = x;
        let idx = ((x.len() - 1) as f64 * pos) as usize;
        x[idx] = c64(f64::NAN, 0.0);
        let r = checks::scan(&x);
        prop_assert!(!r.is_finite());
        prop_assert!(r.nan >= 1);
    }

    #[test]
    fn assert_finite_catches_injected_nan_in_debug(
        x in arb_signal(200),
        pos in 0.0f64..1.0,
    ) {
        // In debug builds the sanitizer must panic; in release it must be
        // a no-op (that is the zero-overhead contract).
        let mut x = x;
        let idx = ((x.len() - 1) as f64 * pos) as usize;
        x[idx] = c64(0.0, f64::INFINITY);
        let fired = std::panic::catch_unwind(|| checks::assert_finite("prop:injected", &x)).is_err();
        prop_assert_eq!(fired, checks::enabled());
    }

    #[test]
    fn forward_padded_spectrum_is_finite(x in arb_signal(128), pad in 1usize..12) {
        // The padded-FFT path (Bluestein for non-power-of-two) feeds the
        // coarse stage of the whole pipeline; its output must stay clean.
        let mut y = vec![C64::ZERO; x.len() * pad];
        choir_dsp::workspace::with(|ws| FftPlan::new(y.len()).forward_padded_into(&x, &mut y, ws));
        prop_assert!(checks::scan(&y).is_finite());
    }
}

#[test]
fn parseval_check_rejects_a_corrupted_spectrum() {
    // Flip one bin's magnitude: in debug builds the boundary check fires.
    if !checks::enabled() {
        return;
    }
    let x: Vec<C64> = (0..64).map(|i| c64((i as f64 * 0.3).sin(), 0.0)).collect();
    let time_energy = energy(&x);
    let mut y = x.clone();
    plan(x.len()).forward(&mut y);
    y[5] = y[5].scale(8.0);
    let fired =
        std::panic::catch_unwind(|| checks::assert_parseval("prop:corrupt", time_energy, &y))
            .is_err();
    assert!(fired, "corrupted spectrum passed the Parseval check");
}

#[test]
fn parseval_check_guards_the_split_padded_transform() {
    // A power-of-two window into a longer plan is transformed as short
    // radix-2 transforms, one per output residue; the boundary check
    // brackets that path. A healthy window passes it; one whose energy overflows
    // (`∞ − ∞` is no Parseval identity) trips it in debug builds and is
    // let through in release ones — the zero-overhead contract.
    let healthy: Vec<C64> = (0..128)
        .map(|i| c64((i as f64 * 0.3).sin() + 2.0, (i as f64 * 0.7).cos() - 2.0))
        .collect();
    let plan = plan(1280);
    let mut y = vec![C64::ZERO; 1280];
    choir_dsp::workspace::with(|ws| plan.forward_padded_into(&healthy, &mut y, ws));
    checks::assert_parseval("prop:split", energy(&healthy), &y);
    let huge: Vec<C64> = healthy.iter().map(|v| v.scale(1e200)).collect();
    let fired = std::panic::catch_unwind(|| {
        let mut y = vec![C64::ZERO; 1280];
        choir_dsp::workspace::with(|ws| plan.forward_padded_into(&huge, &mut y, ws));
    })
    .is_err();
    assert_eq!(fired, checks::enabled());
}
