//! Fig. 7 — characterising hardware offsets.
//!
//! (a) CDF of the aggregate (CFO+TO) fractional offset across 30 boards —
//!     ~uniform over the bin; (b) CDF of the frequency-only fractional
//!     offset (from the per-symbol phase slope) — ~uniform; (c) stability
//!     of the relative timing offset within a packet (stdev in seconds);
//!     (d) stability of the aggregate offset within a packet (stdev in Hz)
//!     — both across SNR regimes.

use crate::report::{FigureReport, Series};
use choir_channel::impairments::OscillatorModel;
use choir_channel::scenario::{CollisionScenario, ScenarioBuilder};
use choir_core::decoder::ChoirDecoder;
use choir_core::estimator::{EstimatorConfig, OffsetEstimator};
use choir_dsp::complex::C64;
use choir_dsp::stats;
use lora_phy::params::PhyParams;

use super::{decode_scenarios, Scale};

/// Downsamples an empirical CDF to ~`k` points for reporting.
fn cdf_series(label: &str, values: &[f64], k: usize) -> Series {
    let cdf = stats::empirical_cdf(values);
    let stride = (cdf.len() / k).max(1);
    let pts: Vec<(f64, f64)> = cdf
        .iter()
        .step_by(stride)
        .chain(cdf.last())
        .map(|&(v, p)| ((v * 100.0).round() / 100.0, p))
        .collect();
    Series::from_xy(label, &pts)
}

/// Per-window aggregate-offset estimates for one user's preamble.
fn per_window_offsets(
    est: &OffsetEstimator,
    samples: &[C64],
    slot_start: usize,
    preamble_len: usize,
    near: f64,
) -> Vec<f64> {
    let n = est.n();
    (1..preamble_len)
        .filter_map(|w| {
            let lo = slot_start + w * n;
            let win = samples.get(lo..lo + n)?;
            let comps = est.estimate(win);
            comps
                .iter()
                .map(|c| {
                    let mut d = (c.freq_bins - near).rem_euclid(n as f64);
                    if d > n as f64 / 2.0 {
                        d -= n as f64;
                    }
                    (d.abs(), c.freq_bins, d)
                })
                .min_by(|a, b| a.0.total_cmp(&b.0))
                .filter(|(dist, _, _)| *dist < 1.0)
                .map(|(_, _, d)| near + d)
        })
        .collect()
}

/// Per-window fractional-timing estimates: golden-max of tone energy over
/// the sub-chip alignment, one window at a time.
fn per_window_timing(
    est: &OffsetEstimator,
    samples: &[C64],
    slot_start: usize,
    preamble_len: usize,
    mu: f64,
    delta_truth: f64,
) -> Vec<f64> {
    let n = est.n();
    let taps = 10usize;
    (1..preamble_len)
        .filter_map(|w| {
            let energy = |delta: f64| -> f64 {
                let m = delta.floor();
                let fr = delta - m;
                let a = slot_start as i64 + (w * n) as i64 + m as i64;
                let lo = a - taps as i64;
                let hi = a + (n + taps) as i64;
                if lo < 0 || hi as usize > samples.len() {
                    return 0.0;
                }
                let slice = &samples[lo as usize..hi as usize];
                let shifted = choir_dsp::resample::fractional_delay(slice, -fr, taps);
                let aligned = &shifted[taps..taps + n];
                let de = est.dechirp(aligned);
                let pos = (mu + delta).rem_euclid(n as f64);
                let wv = -2.0 * std::f64::consts::PI * pos / n as f64;
                let acc: C64 = de
                    .iter()
                    .enumerate()
                    .map(|(t, v)| v * C64::cis(wv * t as f64))
                    .sum();
                acc.norm_sqr()
            };
            let (d, neg) = choir_dsp::optim::golden_section(
                |x| -energy(x),
                (delta_truth - 0.5).max(0.0),
                delta_truth + 0.5,
                1e-3,
            );
            if -neg > 0.0 {
                Some(d)
            } else {
                None
            }
        })
        .collect()
}

/// Runs all four panels.
pub fn run(scale: Scale) -> FigureReport {
    let params = PhyParams::default();
    let n = params.samples_per_symbol();
    let bin = params.bin_hz();
    let chip_s = 1.0 / params.bw.hz();
    let osc = OscillatorModel::default();
    let mut report = FigureReport::new("fig07", "Characterising hardware offsets (30 boards)");

    // (a)/(b): pairwise collisions across 30 boards, batch-decoded through
    // the shared worker pool (one slot per board pair).
    let boards = 30usize;
    let mut agg_frac_hz = Vec::new();
    let mut cfo_frac_hz = Vec::new();
    let slots: Vec<CollisionScenario> = (0..(boards / 2))
        .map(|pair| {
            ScenarioBuilder::new(params)
                .snrs_db(&[20.0, 17.0])
                .oscillator(osc)
                .payload_len(6)
                .seed(700 + pair as u64)
                .build()
        })
        .collect();
    let dec = ChoirDecoder::new(params);
    for res in decode_scenarios(&dec, &slots, 6) {
        for d in res.users {
            agg_frac_hz.push(d.user.frac * bin);
            if let Some(slope) = d.user.phase_slope {
                let mut f = slope / std::f64::consts::TAU;
                if f > 0.5 {
                    f -= 1.0;
                }
                cfo_frac_hz.push(f * bin);
            }
        }
    }
    report.push_series(cdf_series("CDF CFO+TO (Hz)", &agg_frac_hz, 12));
    report.push_series(cdf_series("CDF CFO (Hz)", &cfo_frac_hz, 12));
    let ks = stats::ks_distance_uniform(&agg_frac_hz, 0.0, bin);
    report.push_series(Series::from_labels("uniformity (KS)", &[("CFO+TO", ks)]));

    // (c)/(d): within-packet stability by SNR regime.
    let est = OffsetEstimator::new(n, EstimatorConfig::default());
    let trials = scale.trials(3, 8);
    let mut to_rows = Vec::new();
    let mut agg_rows = Vec::new();
    for (label, snr) in [("Low", 2.5), ("Medium", 12.0), ("High", 25.0)] {
        let mut to_stds = Vec::new();
        let mut agg_stds = Vec::new();
        for t in 0..trials {
            let s = ScenarioBuilder::new(params)
                .snrs_db(&[snr])
                .oscillator(osc)
                .payload_len(6)
                .seed(900 + t as u64)
                .build();
            let u = &s.users[0];
            let mu = u.profile.aggregate_shift_bins(bin, n).rem_euclid(n as f64);
            let delta = u.profile.timing_offset_symbols * n as f64;
            let offs = per_window_offsets(&est, &s.samples, s.slot_start, params.preamble_len, mu);
            if offs.len() >= 3 {
                agg_stds.push(stats::std_dev(&offs) * bin);
            }
            let tims = per_window_timing(
                &est,
                &s.samples,
                s.slot_start,
                params.preamble_len,
                mu,
                delta,
            );
            if tims.len() >= 3 {
                to_stds.push(stats::std_dev(&tims) * chip_s * 1e6); // µs
            }
        }
        to_rows.push((label, stats::mean(&to_stds)));
        agg_rows.push((label, stats::mean(&agg_stds)));
    }
    report.push_series(Series::from_labels("stdev rel. TO (µs)", &to_rows));
    report.push_series(Series::from_labels("stdev CFO+TO (Hz)", &agg_rows));
    report.note("paper: offsets ~uniform across boards; within-packet TO stability 5–30 µs, CFO+TO stdev 0.02–0.12 Hz, degrading at low SNR");
    report.note("our oscillator model is less jittery than the paper's boards and our per-window estimates noisier (single-window reads), so absolute stabilities differ; the SNR trend is the comparable shape");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offsets_uniform_and_stable() {
        let r = run(Scale::Quick);
        // Fractional offsets roughly uniform across boards.
        let ks = r.value("uniformity (KS)", "CFO+TO").unwrap();
        assert!(ks < 0.25, "KS {ks}");
        // Stability improves (or at least does not degrade) with SNR.
        let lo = r.value("stdev CFO+TO (Hz)", "Low").unwrap();
        let hi = r.value("stdev CFO+TO (Hz)", "High").unwrap();
        assert!(hi <= lo * 1.5, "low {lo} high {hi}");
        // Timing stability is (sub-)micro-second scale, not chip scale
        // (one chip is 8 µs at 125 kHz).
        let to = r.value("stdev rel. TO (µs)", "High").unwrap();
        assert!(to < 2.0, "TO stability {to} µs");
    }
}
