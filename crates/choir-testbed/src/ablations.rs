//! Ablation studies for the design choices DESIGN.md §5 calls out. Each
//! returns a [`FigureReport`] so the bench harness and the `figures`
//! binary can print them alongside the paper's figures.

use crate::report::{FigureReport, Series};
use choir_channel::impairments::HardwareProfile;
use choir_channel::scenario::{CollisionScenario, ScenarioBuilder};
use choir_core::decoder::{ChoirConfig, ChoirDecoder};
use choir_core::estimator::{EstimatorConfig, OffsetEstimator};
use choir_core::lowsnr::TeamDecoder;
use choir_dsp::stats;
use lora_phy::params::PhyParams;

use crate::experiments::{decode_scenarios, Scale};

fn profile(cfo_bins: f64, toff_symbols: f64, params: &PhyParams) -> HardwareProfile {
    HardwareProfile {
        cfo_hz: cfo_bins * params.bin_hz(),
        timing_offset_symbols: toff_symbols,
        phase: 0.7,
        cfo_jitter_hz: 0.0,
        timing_jitter_symbols: 0.0,
    }
}

/// Zero-padding factor vs offset-estimation accuracy (the paper uses 10×).
pub fn ablate_zeropad(scale: Scale) -> FigureReport {
    let params = PhyParams::default();
    let n = params.samples_per_symbol();
    let trials = scale.trials(4, 12);
    // Two users 2.2 bins apart: with little padding the coarse stage
    // cannot resolve them as separate peaks, which no amount of fine
    // refinement can repair (it only refines peaks it was given).
    let truth = [40.37, 42.61];
    let mut pts = Vec::new();
    let mut reread_pts = Vec::new();
    let mut found_pts = Vec::new();
    for pad in [1usize, 2, 4, 10, 16] {
        let cfg = EstimatorConfig {
            pad,
            ..EstimatorConfig::default()
        };
        let est = OffsetEstimator::new(n, cfg);
        let dec = ChoirDecoder::with_config(
            params,
            ChoirConfig {
                estimator: cfg,
                ..ChoirConfig::default()
            },
        );
        let mut errs = Vec::new();
        let mut reread_errs = Vec::new();
        let mut both_found = 0usize;
        for t in 0..trials {
            let s = ScenarioBuilder::new(params)
                .snrs_db(&[18.0, 15.0])
                .profiles(vec![
                    profile(truth[0], 0.0, &params),
                    profile(truth[1], 0.0, &params),
                ])
                .seed(4000 + t as u64)
                .build();
            let win = &s.samples[s.slot_start + n..s.slot_start + 2 * n];
            // The production path: phased SIC (a lone estimate pass
            // rejects close neighbours as potential leakage; the second
            // SIC phase recovers them).
            let comps: Vec<f64> =
                choir_core::sic::phased_sic(&est, win, &choir_core::sic::SicConfig::default())
                    .components
                    .iter()
                    .map(|c| c.freq_bins)
                    .collect();
            if nearest_errors(&comps, &truth, &mut errs) == 2 && comps.len() >= 2 {
                both_found += 1;
            }
            // What the decoder carries on: each voted user's offset,
            // re-read on its timing-aligned preamble windows.
            let users: Vec<f64> = dec
                .discover_users(&s.samples, s.slot_start)
                .iter()
                .map(|u| u.offset_bins)
                .collect();
            nearest_errors(&users, &truth, &mut reread_errs);
        }
        pts.push((pad as f64, rms_or_nan(&errs)));
        reread_pts.push((pad as f64, rms_or_nan(&reread_errs)));
        found_pts.push((pad as f64, both_found as f64 / trials as f64));
    }
    let mut r = FigureReport::new(
        "ablate_zeropad",
        "Zero-padding factor vs resolving two users 2.2 bins apart",
    );
    r.push_series(Series::from_xy("offset RMSE", &pts));
    r.push_series(Series::from_xy("re-read offset RMSE", &reread_pts));
    r.push_series(Series::from_xy("both users found", &found_pts));
    r.note("fine refinement recovers accuracy from any pad once a peak is detected; the padding's real job is separating nearby users at the coarse stage (the paper's 10× suffices). One window's phased SIC fits the stronger user before its neighbour surfaces, so its position leans toward it; the decoder re-reads each voted user's offset on its aligned preamble windows");
    r
}

/// For each truth position, the distance to the nearest of `found` when
/// it is under half a bin, pushed onto `errs`; returns how many truths
/// were hit.
fn nearest_errors(found: &[f64], truth: &[f64], errs: &mut Vec<f64>) -> usize {
    let mut hits = 0;
    for &tr in truth {
        let best = found.iter().map(|f| (f - tr).abs()).min_by(f64::total_cmp);
        if let Some(best) = best.filter(|&b| b < 0.5) {
            errs.push(best);
            hits += 1;
        }
    }
    hits
}

fn rms_or_nan(errs: &[f64]) -> f64 {
    if errs.is_empty() {
        f64::NAN
    } else {
        stats::rms(errs)
    }
}

/// Boundary-split (ISI step) modelling on/off at multi-chip fractional
/// timing offsets: what it buys is reconstruction depth — how much of an
/// interior preamble window phased SIC leaves unexplained — and decode
/// success is reported beside it.
pub fn ablate_steps(scale: Scale) -> FigureReport {
    let params = PhyParams::default();
    let n = params.samples_per_symbol();
    let trials = scale.trials(3, 8);
    // Near-far with multi-chip fractional delays: every slot-aligned
    // preamble window holds the tail of one chirp and the head of the
    // next, `Δ` chips in, with a phase step between them that a single
    // tone cannot follow.
    let slots: Vec<CollisionScenario> = (0..trials)
        .map(|t| {
            ScenarioBuilder::new(params)
                .snrs_db(&[25.0, 17.0])
                .payload_len(8)
                .profiles(vec![
                    profile(6.4, 0.37, &params),
                    profile(-11.7, 0.43, &params),
                ])
                .seed(4100 + t as u64)
                .build()
        })
        .collect();
    let mut residual_pts = Vec::new();
    let mut decode_pts = Vec::new();
    for (label, fit_steps) in [("steps on", true), ("steps off", false)] {
        let cfg = ChoirConfig {
            estimator: EstimatorConfig {
                fit_steps,
                ..EstimatorConfig::default()
            },
            ..ChoirConfig::default()
        };
        let dec = ChoirDecoder::with_config(params, cfg);
        let mut residuals = Vec::new();
        for s in &slots {
            for w in 1..params.preamble_len {
                let lo = s.slot_start + w * n;
                let solved =
                    choir_core::sic::phased_sic(dec.estimator(), &s.samples[lo..lo + n], &cfg.sic);
                residuals.push(solved.relative_residual);
            }
        }
        residual_pts.push((label, stats::mean(&residuals)));
        // Trials batch-decode through the shared worker pool.
        let ok: usize = decode_scenarios(&dec, &slots, 8)
            .iter()
            .map(|res| res.ok_users().filter(|d| d.payload_ok()).count())
            .sum();
        decode_pts.push((label, ok as f64 / (2 * trials) as f64));
    }
    let mut r = FigureReport::new(
        "ablate_steps",
        "Boundary-split modelling vs reconstruction depth and decode success (multi-chip timing offsets)",
    );
    r.push_series(Series::from_labels("relative residual", &residual_pts));
    r.push_series(Series::from_labels("decode rate", &decode_pts));
    r.note("since PR 24 a user's chip delay is read by a matched filter, not off the step fit of one window, so decode success no longer hangs on the step term at this operating point; what the term buys is how deep phased SIC reconstructs a window whose tones change phase mid-window");
    r
}

/// Packet-level SIC passes: 1 vs 2 at moderate density.
pub fn ablate_sic_passes(scale: Scale) -> FigureReport {
    let trials = scale.trials(2, 5) as u64;
    let mut pts = Vec::new();
    for passes in [1usize, 2] {
        let ok: usize = sic_ladder_delivered(passes, 4200..4200 + trials)
            .iter()
            .sum();
        let total = SIC_LADDER_USERS * trials as usize;
        pts.push((format!("{passes} pass"), ok as f64 / total as f64));
    }
    let rows: Vec<(&str, f64)> = pts.iter().map(|(l, v)| (l.as_str(), *v)).collect();
    let mut r = FigureReport::new(
        "ablate_sic",
        "Packet-level SIC passes vs decode rate (6 users)",
    );
    r.push_series(Series::from_labels("decode rate", &rows));
    r
}

/// Users a draw of [`ablate_sic_passes`]' ladder holds.
const SIC_LADDER_USERS: usize = 6;

/// [`ablate_sic_passes`]' ladder — six users at 22, 19.8, … 11 dB with
/// 8-byte payloads, one draw a seed of `seeds` — decoded with
/// `passes` packet-level SIC passes: per draw, the users whose frame
/// passed its CRC and carries a payload one of them sent.
pub fn sic_ladder_delivered(passes: usize, seeds: std::ops::Range<u64>) -> Vec<usize> {
    let params = PhyParams::default();
    let cfg = ChoirConfig {
        sic_passes: passes,
        ..ChoirConfig::default()
    };
    let dec = ChoirDecoder::with_config(params, cfg);
    let slots: Vec<CollisionScenario> = seeds
        .map(|seed| {
            let snrs: Vec<f64> = (0..SIC_LADDER_USERS)
                .map(|i| 22.0 - i as f64 * 2.2)
                .collect();
            ScenarioBuilder::new(params)
                .snrs_db(&snrs)
                .payload_len(8)
                .seed(seed)
                .build()
        })
        .collect();
    decode_scenarios(&dec, &slots, 8)
        .iter()
        .zip(&slots)
        .map(|(res, s)| {
            let mut sent: Vec<&[u8]> = s.users.iter().map(|u| u.payload.as_slice()).collect();
            let mut delivered = 0;
            for frame in res.ok_users().filter_map(|d| d.frame.as_ref()) {
                if let Some(i) = sent.iter().position(|p| *p == frame.payload.as_slice()) {
                    sent.swap_remove(i);
                    delivered += 1;
                }
            }
            delivered
        })
        .collect()
}

/// Preamble-accumulation window for below-noise team detection.
pub fn ablate_preamble_accumulation(scale: Scale) -> FigureReport {
    let params = PhyParams::default();
    let trials = scale.trials(6, 12);
    let mut pts = Vec::new();
    let mut spread_pts = Vec::new();
    for window in [2usize, 4, 8] {
        let mut metrics = Vec::new();
        for t in 0..trials {
            let s = ScenarioBuilder::new(params)
                .snrs_db(&[-17.0; 10])
                .shared_payload(vec![1, 2, 3, 4])
                .seed(4300 + t as u64)
                .build();
            // Use a custom preamble accumulation length by shortening the
            // detector's view: accumulate `window` symbols only.
            let dec = TeamDecoder::new(params);
            // Detection metric at the true start with the configured
            // window: emulate by probing a params clone with a shorter
            // preamble for accumulation purposes.
            let short = PhyParams {
                preamble_len: window,
                ..params
            };
            let dec_short = TeamDecoder::new(short);
            let m = dec_short
                .detect(&s.samples, s.slot_start, s.slot_start + 1)
                .map(|d| d.metric)
                .unwrap_or(0.0);
            metrics.push(m);
            let _ = &dec;
        }
        pts.push((window as f64, stats::mean(&metrics)));
        spread_pts.push((window as f64, stats::std_dev(&metrics)));
    }
    let mut r = FigureReport::new(
        "ablate_preamble",
        "Preamble accumulation length vs team detection metric (10 × −17 dB)",
    );
    r.push_series(Series::from_xy("metric mean", &pts));
    r.push_series(Series::from_xy("metric stdev", &spread_pts));
    r.note("accumulation does not raise the mean peak/median ratio — it shrinks its fluctuation (~√P), which is what makes a fixed threshold reliable");
    r
}

/// Receiver ADC resolution vs near-far reach — Sec. 5.2's closing caveat:
/// "our approach … is always limited by the resolution of the
/// analog-to-digital converter". With an AGC pinned to the strong user, a
/// weak client below the quantisation floor is unrecoverable no matter how
/// good the cancellation.
pub fn ablate_adc(scale: Scale) -> FigureReport {
    use choir_channel::adc::Adc;
    let params = PhyParams::default();
    let trials = scale.trials(4, 8);
    let strong_db = 30.0f64;
    let mut rows = Vec::new();
    for bits in [14u32, 6, 4] {
        let mut pts = Vec::new();
        // The weak user from comfortable down to the edge of what SF8's
        // processing gain recovers under a 30 dB neighbour: the rungs a
        // coarse converter's quantisation noise takes away first.
        for weak_db in [6.0f64, 2.0, -2.0] {
            let dec = ChoirDecoder::new(params);
            // Ground-truth payloads are pulled out before the samples move
            // into the batch; the quantised captures then decode in
            // parallel through the shared worker pool.
            let mut slots = Vec::with_capacity(trials);
            let mut weak_payloads = Vec::with_capacity(trials);
            for t in 0..trials {
                let mut s = ScenarioBuilder::new(params)
                    .snrs_db(&[strong_db, weak_db])
                    .payload_len(6)
                    .profiles(vec![
                        profile(9.3, 0.11, &params),
                        profile(-17.8, 0.29, &params),
                    ])
                    .seed(4400 + t as u64)
                    .build();
                // AGC: full scale pinned to the observed peak amplitude.
                let peak = s
                    .samples
                    .iter()
                    .map(|z| z.re.abs().max(z.im.abs()))
                    .fold(0.0f64, f64::max);
                Adc::with_agc(bits, peak).convert_buffer(&mut s.samples);
                weak_payloads.push(s.users[1].payload.clone());
                slots.push(s);
            }
            let ok = decode_scenarios(&dec, &slots, 6)
                .iter()
                .zip(&weak_payloads)
                .filter(|(res, weak_payload)| {
                    res.ok_users().any(|d| {
                        d.payload_ok()
                            && d.frame
                                .as_ref()
                                .map(|f| &f.payload == *weak_payload)
                                .unwrap_or(false)
                    })
                })
                .count();
            pts.push((format!("weak {weak_db} dB"), ok as f64 / trials as f64));
        }
        let named: Vec<(&str, f64)> = pts.iter().map(|(l, v)| (l.as_str(), *v)).collect();
        rows.push((
            format!("{bits}-bit ADC"),
            named
                .iter()
                .map(|(l, v)| (l.to_string(), *v))
                .collect::<Vec<_>>(),
        ));
    }
    let mut r = FigureReport::new(
        "ablate_adc",
        "Weak-user decode rate vs ADC resolution (strong user 30 dB, AGC at peak)",
    );
    for (label, pts) in rows {
        let named: Vec<(&str, f64)> = pts.iter().map(|(l, v)| (l.as_str(), *v)).collect();
        r.push_series(Series::from_labels(&label, &named));
    }
    r.note("spread spectrum is robust to quantisation per se; what kills the weak client is dynamic range — once the quantisation noise (set by the AGC'd full scale) rivals its signal, no cancellation can recover it (the paper's N210 carries 14 bits ≈ 84 dB)");
    r
}

/// Runs every ablation.
pub fn run_all(scale: Scale) -> Vec<FigureReport> {
    vec![
        ablate_zeropad(scale),
        ablate_steps(scale),
        ablate_sic_passes(scale),
        ablate_preamble_accumulation(scale),
        ablate_adc(scale),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeropad_resolves_close_users() {
        let r = ablate_zeropad(Scale::Quick);
        let found1 = r.value("both users found", "1").unwrap();
        let found10 = r.value("both users found", "10").unwrap();
        assert!(found10 >= found1, "pad10 {found10} vs pad1 {found1}");
        assert!(found10 > 0.7, "pad10 resolution rate {found10}");
        // One window's phase 1 fits the stronger user alone, so its
        // position leans toward the neighbour that surfaces in phase 2;
        // the offset the decoder carries on is the re-read one.
        let rmse10 = r.value("re-read offset RMSE", "10").unwrap();
        assert!(rmse10 < 0.05, "pad10 re-read RMSE {rmse10}");
    }

    #[test]
    fn adc_resolution_limits_near_far() {
        let r = ablate_adc(Scale::Quick);
        let total = |adc: &str| -> f64 {
            ["weak 6 dB", "weak 2 dB", "weak -2 dB"]
                .iter()
                .map(|x| r.value(adc, x).unwrap())
                .sum()
        };
        let fine = total("14-bit ADC");
        let coarse = total("4-bit ADC");
        assert!(fine > coarse, "14-bit {fine} vs 4-bit {coarse}");
        // An easy weak user survives a fine converter.
        assert!(r.value("14-bit ADC", "weak 6 dB").unwrap() > 0.4);
    }

    #[test]
    fn step_modelling_matters() {
        let r = ablate_steps(Scale::Quick);
        let on = r.value("relative residual", "steps on").unwrap();
        let off = r.value("relative residual", "steps off").unwrap();
        // 25 and 17 dB over unit noise: a perfect reconstruction leaves
        // 1/367 of a window. Two phases leave ≈ 1.7 %: the step-corrected
        // descent holds each step at its last frequency, so a stepped
        // tone's fit stops ≈ 0.2 bin short (DESIGN §17).
        assert!(on < 0.025, "steps-on residual {on}");
        assert!(
            3.0 * on < off,
            "step modelling should deepen the reconstruction: on {on} vs off {off}"
        );
        let rate = r.value("decode rate", "steps on").unwrap();
        assert!(rate > 0.9, "steps-on rate {rate}");
    }
}
