//! Phased successive interference cancellation — Sec. 5.2.
//!
//! Plain SIC (strongest-first, one at a time) leaves leakage between
//! similar-power transmitters; pure joint fitting misses weak clients whose
//! peaks drown under strong users' side-lobes. Choir's middle path:
//!
//! 1. detect every peak currently discernible, *jointly* refine that whole
//!    cohort (which models their mutual leakage, Sec. 5.1);
//! 2. subtract the cohort's reconstruction from the window;
//! 3. do the same once more on the residual, where clients buried under
//!    the strong cohort's side-lobes surface;
//! 4. stop there, or earlier when no peak clears the (residual-relative)
//!    threshold. Each phase's components are final: nothing re-solves
//!    them against the raw window afterwards.

use choir_dsp::complex::C64;

use crate::error::DecodeError;
use crate::estimator::{ComponentEstimate, OffsetEstimator};

/// Configuration for phased cancellation.
#[derive(Clone, Copy, Debug)]
pub struct SicConfig {
    /// Maximum cancellation phases (cohorts): the strong cohort, then the
    /// clients that surface under it; a further phase fits residue, not
    /// users (DESIGN §17, "Two phases, no re-solve").
    pub max_phases: usize,
    /// Upper bound on total components across all phases.
    pub max_components: usize,
    /// Stop once the residual power falls below this fraction of the input
    /// window power — everything left is reconstruction error, not users.
    pub min_relative_residual: f64,
}

impl Default for SicConfig {
    fn default() -> Self {
        SicConfig {
            max_phases: 2,
            max_components: 28,
            min_relative_residual: 1e-4,
        }
    }
}

/// Result of one phased-SIC pass over a symbol window.
#[derive(Clone, Debug, Default)]
pub struct SicResult {
    /// All recovered components, strongest phase first.
    pub components: Vec<ComponentEstimate>,
    /// Number of phases actually run.
    pub phases: usize,
    /// Residual power after the final subtraction, relative to the input
    /// window power (0 = perfect reconstruction).
    pub relative_residual: f64,
    /// Set when a phase stalled: substantial residual power remained but
    /// no further peaks cleared the detection threshold.
    pub stall: Option<DecodeError>,
}

#[cfg(test)]
thread_local! {
    /// Test probe: [`phased_sic`] calls on this thread.
    pub(crate) static PHASED_SIC_CALLS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Runs phased SIC on one symbol window.
pub fn phased_sic(est: &OffsetEstimator, window: &[C64], cfg: &SicConfig) -> SicResult {
    #[cfg(test)]
    PHASED_SIC_CALLS.with(|c| c.set(c.get() + 1));
    crate::profile::scope(crate::profile::Stage::Sic, || {
        phased_sic_inner(est, window, cfg)
    })
}

fn phased_sic_inner(est: &OffsetEstimator, window: &[C64], cfg: &SicConfig) -> SicResult {
    let input_power: f64 = window.iter().map(|z| z.norm_sqr()).sum();
    let mut work = window.to_vec();
    let mut out = SicResult::default();
    // Debug sanitizer: each phase's subtraction is a least-squares
    // projection, so residual power must not grow phase over phase.
    let mut monitor = choir_dsp::checks::ResidualMonitor::new();
    for _ in 0..cfg.max_phases {
        if out.components.len() >= cfg.max_components {
            break;
        }
        let resid_power: f64 = work.iter().map(|z| z.norm_sqr()).sum();
        monitor.observe("phased_sic", resid_power);
        if resid_power < cfg.min_relative_residual * input_power {
            break;
        }
        let cohort = est.estimate(&work);
        if cohort.is_empty() {
            if input_power > 0.0 {
                out.stall = Some(
                    DecodeError::SicStalled {
                        sic_phase: out.phases,
                        relative_residual: resid_power / input_power,
                    }
                    .traced(),
                );
            }
            break;
        }
        let take = cohort
            .into_iter()
            .take(cfg.max_components - out.components.len())
            .collect::<Vec<_>>();
        let recon = est.reconstruct(&take);
        for (w, r) in work.iter_mut().zip(&recon) {
            *w -= *r;
        }
        let cancelled_from = out.components.len();
        out.components.extend(take);
        out.phases += 1;
        // Provenance: what this pass cancelled and what power it left
        // behind. The residual sum is only computed when Full tracing is
        // on, so the hot path stays untouched.
        if choir_trace::enabled(choir_trace::TraceLevel::Full) {
            let after: f64 = work.iter().map(|z| z.norm_sqr()).sum();
            choir_trace::full(|| choir_trace::TraceEvent::SicPass {
                window: choir_trace::current_window(),
                phase: u32::try_from(out.phases - 1).unwrap_or(u32::MAX),
                relative_residual: if input_power > 0.0 {
                    after / input_power
                } else {
                    0.0
                },
                cancelled_bins: out.components[cancelled_from..]
                    .iter()
                    .map(|c| c.freq_bins)
                    .collect(),
            });
        }
    }
    let recon = est.reconstruct(&out.components);
    let resid: f64 = window
        .iter()
        .zip(&recon)
        .map(|(y, r)| (y - r).norm_sqr())
        .sum();
    out.relative_residual = if input_power > 0.0 {
        resid / input_power
    } else {
        0.0
    };
    out
}

// Tests assert on exactly-representable values (0.0, bin centres).
#[allow(clippy::float_cmp)]
#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::EstimatorConfig;
    use choir_dsp::complex::c64;
    use lora_phy::chirp::symbol_sample;

    const N: usize = 128;

    fn est() -> OffsetEstimator {
        OffsetEstimator::new(N, EstimatorConfig::default())
    }

    fn chirp(f: f64, h: C64) -> Vec<C64> {
        (0..N)
            .map(|t| {
                let s = symbol_sample(N, 0, t as f64);
                let rot = C64::cis(2.0 * std::f64::consts::PI * f * t as f64 / N as f64);
                h * s * rot
            })
            .collect()
    }

    fn mix(parts: &[(f64, C64)]) -> Vec<C64> {
        let mut out = vec![C64::ZERO; N];
        for &(f, h) in parts {
            for (o, v) in out.iter_mut().zip(chirp(f, h)) {
                *o += v;
            }
        }
        out
    }

    fn find_near(result: &SicResult, f: f64) -> Option<&ComponentEstimate> {
        result
            .components
            .iter()
            .find(|c| (c.freq_bins - f).abs() < 0.1)
    }

    #[test]
    fn deep_near_far_recovered_in_second_phase() {
        // 36 dB imbalance: the weak user's peak (amplitude 0.016 of strong)
        // sits below the strong user's side-lobe skirt; only after
        // subtracting the strong cohort does it surface.
        let e = est();
        let w = mix(&[(30.27, C64::ONE), (90.63, c64(0.016, 0.0))]);
        let r = phased_sic(&e, &w, &SicConfig::default());
        assert!(find_near(&r, 30.27).is_some(), "strong missing");
        assert!(
            find_near(&r, 90.63).is_some(),
            "weak missing: {:?}",
            r.components
        );
        assert!(
            r.relative_residual < 1e-3,
            "residual {}",
            r.relative_residual
        );
    }

    #[test]
    fn equal_power_cohort_handled_in_one_phase() {
        let e = est();
        let w = mix(&[
            (10.4, C64::ONE),
            (50.8, c64(0.0, 1.0)),
            (100.2, c64(-0.7, 0.7)),
        ]);
        let r = phased_sic(&e, &w, &SicConfig::default());
        assert_eq!(r.phases, 1, "equal powers need one joint phase");
        for f in [10.4, 50.8, 100.2] {
            assert!(find_near(&r, f).is_some(), "missing {f}");
        }
    }

    #[test]
    fn two_weak_tiers_surface_after_strong_cohort() {
        // Both weak users sit under the strong user's side-lobe skirt
        // (rejected by the leakage test in phase 1); after the strong
        // cohort is subtracted they surface together.
        let e = est();
        let w = mix(&[
            (20.2, C64::ONE),
            (60.6, c64(0.016, 0.0)),
            (110.4, c64(0.012, 0.0)),
        ]);
        let cfg = SicConfig {
            max_phases: 4,
            ..SicConfig::default()
        };
        let r = phased_sic(&e, &w, &cfg);
        assert!(find_near(&r, 20.2).is_some());
        assert!(find_near(&r, 60.6).is_some(), "mid tier missing");
        assert!(find_near(&r, 110.4).is_some(), "deep tier missing");
        assert!(r.phases >= 2, "expected a second phase, got {}", r.phases);
    }

    #[test]
    fn empty_window_stops_immediately() {
        let e = est();
        let r = phased_sic(&e, &vec![C64::ZERO; N], &SicConfig::default());
        assert!(r.components.is_empty());
        assert_eq!(r.phases, 0);
        assert_eq!(r.relative_residual, 0.0);
    }

    #[test]
    fn max_components_respected() {
        let e = est();
        let parts: Vec<(f64, C64)> = (0..8).map(|i| (5.3 + 15.0 * i as f64, C64::ONE)).collect();
        let w = mix(&parts);
        let cfg = SicConfig {
            max_phases: 3,
            max_components: 4,
            ..SicConfig::default()
        };
        let r = phased_sic(&e, &w, &cfg);
        assert!(r.components.len() <= 4);
    }

    #[test]
    fn channel_estimates_survive_sic() {
        let e = est();
        let h_weak = c64(0.01, 0.01);
        let w = mix(&[(40.45, c64(0.6, -0.8)), (95.15, h_weak)]);
        let r = phased_sic(&e, &w, &SicConfig::default());
        let weak = find_near(&r, 95.15).expect("weak component");
        assert!(
            (weak.channel - h_weak).abs() / h_weak.abs() < 0.1,
            "weak channel {:?}",
            weak.channel
        );
    }

    /// A window costs one `estimate` a phase (plus the one that finds
    /// nothing and stops), at most two, and every joint solve is a
    /// phase's: nothing re-solves the cancelled components afterwards.
    #[test]
    fn one_solve_a_phase_and_no_re_solve() {
        use crate::estimator::{ESTIMATE_CALLS, SOLVES};
        let e = est();
        let windows = [
            vec![C64::ZERO; N],
            mix(&[(30.27, C64::ONE), (90.63, c64(0.016, 0.0))]),
            mix(&[
                (10.4, C64::ONE),
                (50.8, c64(0.0, 1.0)),
                (100.2, c64(-0.7, 0.7)),
            ]),
            mix(&[
                (20.2, C64::ONE),
                (60.6, c64(0.016, 0.0)),
                (110.4, c64(0.012, 0.0)),
            ]),
            mix(&[(80.2, C64::ONE), (81.6, c64(0.0, -0.9))]),
            mix(&[(40.45, c64(0.6, -0.8)), (95.15, c64(0.01, 0.01))]),
        ];
        let mut two_phase = 0;
        for (i, w) in windows.iter().enumerate() {
            ESTIMATE_CALLS.with(|c| c.set(0));
            SOLVES.with(|c| c.set(0));
            let r = phased_sic(&e, w, &SicConfig::default());
            let estimates = ESTIMATE_CALLS.with(|c| c.get());
            let solves = SOLVES.with(|c| c.get());
            let ctx = format!(
                "window {i}: {estimates} estimates, {solves} solves, {} phases",
                r.phases
            );
            assert!(estimates <= 2, "{ctx}");
            assert!((r.phases..=r.phases + 1).contains(&estimates), "{ctx}");
            assert_eq!(solves, r.phases, "{ctx}");
            two_phase += usize::from(r.phases == 2);
        }
        assert!(two_phase >= 3, "{two_phase} windows ran two phases");
    }
}
