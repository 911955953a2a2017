//! Decoding beyond communication range — Sec. 7.
//!
//! Teams of co-located sensors answer the base station's beacon in the
//! same slot with (near-)identical packets. Each member is individually
//! below the decoding threshold, but:
//!
//! * **Detection** (Sec. 7.2 "Detecting Packets"): the dechirped power
//!   spectra of consecutive preamble windows are accumulated coherently
//!   over a sliding window of `preamble_len` symbols. Per-user peaks that
//!   are buried in any single symbol rise `√P` above the noise after `P`
//!   accumulations, revealing both the packet and coarse per-user offsets.
//! * **Decoding** (Eqn. 6): every member transmits the *same* symbol, so
//!   each data value hypothesis `d` predicts one tone per user at
//!   `d + μ_u`. The decoder scores `d` by summing (non-coherently) the
//!   correlation power at every member's predicted position — an
//!   `M`-member team contributes `M×` the energy per hypothesis, which is
//!   exactly the range-extension mechanism the paper measures in Fig. 9.
//!
//! Deviation noted in DESIGN.md: Eqn. 6's reconstruction is phase-coherent
//! across users; below the noise floor per-symbol phase tracking is not
//! reliably available, so we use the non-coherent power-combining form
//! (the standard robust variant; the `M`-fold energy gain is preserved).

use choir_dsp::complex::C64;
use choir_dsp::fft::FftPlan;
use choir_dsp::peaks::noise_floor;
use lora_phy::frame::{decode_frame, DecodedFrame};
use lora_phy::params::PhyParams;

use crate::estimator::OffsetEstimator;

/// Zero-padding factor for the accumulated spectra.
const PAD: usize = 4;

/// Detection threshold: accumulated peak power over median power.
const DETECT_THRESHOLD: f64 = 4.0;

/// Peak threshold for counting team members in the accumulated spectrum,
/// relative to the accumulated median.
const MEMBER_THRESHOLD: f64 = 3.0;

/// Maximum number of member offsets to extract.
const MAX_MEMBERS: usize = 40;

/// Sliding-search step in samples (a fraction of a symbol keeps the
/// accumulation near-coherent).
const SEARCH_STEP: usize = 64;

/// A detected team transmission.
#[derive(Clone, Debug)]
pub struct TeamDetection {
    /// Estimated slot start (sample index), accurate to `SEARCH_STEP`
    /// (64) samples.
    pub start: usize,
    /// Per-member aggregate offsets in bins (one entry per discernible
    /// member; members with overlapping offsets merge into one entry).
    pub offsets: Vec<f64>,
    /// Detection metric (peak/median of the accumulated spectrum).
    pub metric: f64,
}

/// Team detector/decoder for one PHY configuration.
#[derive(Clone, Debug)]
pub struct TeamDecoder {
    params: PhyParams,
    est: OffsetEstimator,
    fft: FftPlan,
}

impl TeamDecoder {
    /// Builds a team decoder.
    pub fn new(params: PhyParams) -> Self {
        let n = params.samples_per_symbol();
        let est = OffsetEstimator::new(n, crate::estimator::EstimatorConfig::default());
        TeamDecoder {
            params,
            est,
            fft: FftPlan::new(n * PAD),
        }
    }

    /// Accumulated dechirped power spectrum over `count` consecutive
    /// symbol windows starting at `start`.
    fn accumulate(&self, samples: &[C64], start: usize, count: usize) -> Option<Vec<f64>> {
        let n = self.params.samples_per_symbol();
        let np = n * PAD;
        let mut acc = vec![0.0f64; np];
        let complete = choir_dsp::workspace::with(|ws| {
            let mut spec = ws.take(np);
            let mut complete = true;
            for j in 0..count {
                let lo = start + j * n;
                let hi = lo + n;
                if hi > samples.len() {
                    complete = false;
                    break;
                }
                let de = self.est.dechirp(&samples[lo..hi]);
                self.fft.forward_padded_into(&de, &mut spec, ws);
                for (a, z) in acc.iter_mut().zip(spec.iter()) {
                    *a += z.norm_sqr();
                }
            }
            ws.put(spec);
            complete
        });
        complete.then_some(acc)
    }

    /// Peak/median metric of an accumulated power spectrum.
    fn metric(acc: &[f64]) -> f64 {
        let med = noise_floor(acc);
        if med <= 0.0 {
            return 0.0;
        }
        acc.iter().cloned().fold(f64::MIN, f64::max) / med
    }

    /// Extracts member offsets (bins) from an accumulated spectrum:
    /// local maxima above `MEMBER_THRESHOLD ×` median, at least one bin
    /// apart.
    fn member_offsets(&self, acc: &[f64]) -> Vec<f64> {
        let n = self.params.samples_per_symbol();
        let med = noise_floor(acc);
        let max_pow = acc.iter().cloned().fold(0.0f64, f64::max);
        // Two guards: a noise-relative threshold for the deep-SNR regime,
        // and a strongest-peak-relative floor that rejects both the
        // Dirichlet side-lobe forest and the boundary-phase-step (ISI)
        // skirt of strong members (side lobes ≤ ~4.7 % of the main lobe in
        // power; the ISI skirt reaches ~18 %). Genuine co-located team
        // members sit within a few dB of each other and survive the cut.
        let thresh = (med * MEMBER_THRESHOLD).max(max_pow * 0.2);
        let np = acc.len();
        let mut cands: Vec<(f64, f64)> = Vec::new(); // (power, pos_bins)
        for i in 0..np {
            let prev = acc[(i + np - 1) % np];
            let next = acc[(i + 1) % np];
            if acc[i] > thresh && acc[i] >= prev && acc[i] > next {
                cands.push((acc[i], i as f64 / PAD as f64));
            }
        }
        cands.sort_by(|a, b| b.0.total_cmp(&a.0));
        let mut offsets: Vec<f64> = Vec::new();
        for (_, pos) in cands {
            if offsets.len() >= MAX_MEMBERS {
                break;
            }
            let clash = offsets.iter().any(|&o| {
                let mut d = (o - pos).rem_euclid(n as f64);
                if d > n as f64 / 2.0 {
                    d = n as f64 - d;
                }
                d < 1.0
            });
            if !clash {
                offsets.push(pos);
            }
        }
        offsets
    }

    /// Scans `[search_from, search_to)` for a team preamble; returns the
    /// best detection above threshold.
    pub fn detect(
        &self,
        samples: &[C64],
        search_from: usize,
        search_to: usize,
    ) -> Option<TeamDetection> {
        let p = self.params.preamble_len;
        let mut best: Option<(usize, f64)> = None;
        let mut t = search_from;
        while t < search_to {
            if let Some(acc) = self.accumulate(samples, t, p) {
                let m = Self::metric(&acc);
                if best.map(|(_, bm)| m > bm).unwrap_or(true) {
                    best = Some((t, m));
                }
            }
            t += SEARCH_STEP;
        }
        let (start, metric) = best?;
        if metric < DETECT_THRESHOLD {
            return None;
        }
        let acc = self.accumulate(samples, start, p)?;
        let offsets = self.member_offsets(&acc);
        if offsets.is_empty() {
            return None;
        }
        Some(TeamDetection {
            start,
            offsets,
            metric,
        })
    }

    /// Decodes the common symbol stream of a detected team (Eqn. 6,
    /// non-coherent power combining across members). `num_data_symbols`
    /// excludes preamble and sync.
    pub fn decode_symbols(
        &self,
        samples: &[C64],
        detection: &TeamDetection,
        num_data_symbols: usize,
    ) -> Vec<u16> {
        let n = self.params.samples_per_symbol();
        let p = self.params.preamble_len;
        let data_start = detection.start + (p + 2) * n;
        let mut out = Vec::with_capacity(num_data_symbols);
        choir_dsp::workspace::with(|ws| {
            let mut spec = ws.take(n * PAD);
            for k in 0..num_data_symbols {
                let lo = data_start + k * n;
                let hi = lo + n;
                if hi > samples.len() {
                    break;
                }
                let de = self.est.dechirp(&samples[lo..hi]);
                self.fft.forward_padded_into(&de, &mut spec, ws);
                let np = spec.len();
                let mut best = (0u16, -1.0f64);
                for d in 0..n {
                    let mut score = 0.0;
                    for &mu in &detection.offsets {
                        let pos = (d as f64 + mu).rem_euclid(n as f64);
                        let idx = ((pos * PAD as f64).round() as usize) % np;
                        score += spec[idx].norm_sqr();
                    }
                    if score > best.1 {
                        // lint:allow(lossy_cast) — d ranges over 0..2^SF ≤ 4096, fits u16
                        best = (d as u16, score);
                    }
                }
                out.push(best.0);
            }
            ws.put(spec);
        });
        out
    }

    /// Detects and decodes in one call, running the recovered symbols
    /// through the frame chain. Returns the detection and the frame (the
    /// frame may fail CRC at extreme ranges — Fig. 10's resolution loss).
    pub fn decode(
        &self,
        samples: &[C64],
        search_from: usize,
        search_to: usize,
        payload_len: usize,
    ) -> Option<(TeamDetection, Option<DecodedFrame>)> {
        let det = self.detect(samples, search_from, search_to)?;
        let nsyms = lora_phy::frame::frame_symbol_count(&self.params, payload_len);
        let syms = self.decode_symbols(samples, &det, nsyms);
        let frame = decode_frame(&self.params, &syms).ok();
        Some((det, frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use choir_channel::impairments::OscillatorModel;
    use choir_channel::scenario::ScenarioBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn params() -> PhyParams {
        PhyParams::default() // SF8
    }

    fn team_scenario(
        m: usize,
        snr_db: f64,
        seed: u64,
    ) -> choir_channel::scenario::CollisionScenario {
        let snrs = vec![snr_db; m];
        ScenarioBuilder::new(params())
            .snrs_db(&snrs)
            .shared_payload(vec![0xA5, 0x5A, 0x3C, 0x7E, 0x11, 0x22])
            .oscillator(OscillatorModel::default())
            .seed(seed)
            .build()
    }

    #[test]
    fn team_detected_below_single_user_threshold() {
        // −17 dB per member: the standard detector's per-window metric is
        // marginal, but 10 members accumulated over the preamble stand out.
        let s = team_scenario(10, -17.0, 1);
        let dec = TeamDecoder::new(s.params);
        let det = dec
            .detect(&s.samples, 0, s.slot_start + 512)
            .expect("team not detected");
        assert!(det.metric > 4.0);
        assert!(!det.offsets.is_empty());
        // Start found within one symbol of the true slot.
        assert!(
            (det.start as i64 - s.slot_start as i64).unsigned_abs() as usize <= 256,
            "start {} vs {}",
            det.start,
            s.slot_start
        );
    }

    #[test]
    fn pure_noise_not_detected() {
        let mut rng = StdRng::seed_from_u64(2);
        let noise = choir_channel::noise::awgn(&mut rng, 256 * 60, 1.0);
        let dec = TeamDecoder::new(params());
        assert!(dec.detect(&noise, 0, 256 * 20).is_none());
    }

    #[test]
    fn detection_metric_grows_with_team_size() {
        let metric_for = |m: usize| {
            let s = team_scenario(m, -17.0, 7);
            let dec = TeamDecoder::new(s.params);
            dec.detect(&s.samples, s.slot_start, s.slot_start + 1)
                .map(|d| d.metric)
                .unwrap_or(0.0)
        };
        let m5 = metric_for(5);
        let m20 = metric_for(20);
        assert!(m20 > m5, "m5={m5} m20={m20}");
    }

    #[test]
    fn team_decodes_common_payload_below_noise() {
        // 15 members at −15 dB each: individually hopeless for data, but
        // the combined score recovers the shared packet.
        let s = team_scenario(15, -15.0, 3);
        let dec = TeamDecoder::new(s.params);
        let (det, frame) = dec
            .decode(&s.samples, s.slot_start, s.slot_start + 1, 6)
            .expect("not detected");
        assert!(
            det.offsets.len() >= 3,
            "members seen: {}",
            det.offsets.len()
        );
        let frame = frame.expect("frame undecodable");
        assert_eq!(frame.payload, vec![0xA5, 0x5A, 0x3C, 0x7E, 0x11, 0x22]);
        assert!(frame.crc_ok);
    }

    #[test]
    fn symbol_accuracy_improves_with_members() {
        // Symbol error rate against the true stream must drop as the team
        // grows — the Fig. 9(a) mechanism.
        let ser_for = |m: usize, seed: u64| -> f64 {
            let s = team_scenario(m, -19.0, seed);
            let dec = TeamDecoder::new(s.params);
            let det = TeamDetection {
                start: s.slot_start,
                offsets: s
                    .users
                    .iter()
                    .map(|u| {
                        u.profile
                            .aggregate_shift_bins(s.params.bin_hz(), 256)
                            .rem_euclid(256.0)
                    })
                    .collect(),
                metric: 100.0,
            };
            let truth = s.users[0].data_symbols(&s.params).to_vec();
            let got = dec.decode_symbols(&s.samples, &det, truth.len());
            let errs = truth.iter().zip(&got).filter(|(a, b)| a != b).count();
            errs as f64 / got.len().max(1) as f64
        };
        let ser2: f64 = (0..3).map(|s| ser_for(2, 20 + s)).sum::<f64>() / 3.0;
        let ser16: f64 = (0..3).map(|s| ser_for(16, 20 + s)).sum::<f64>() / 3.0;
        assert!(
            ser16 < ser2,
            "SER did not improve: 2 members {ser2:.3}, 16 members {ser16:.3}"
        );
    }

    #[test]
    fn decode_symbols_respects_capture_length() {
        let s = team_scenario(5, -10.0, 4);
        let dec = TeamDecoder::new(s.params);
        let det = TeamDetection {
            start: s.slot_start,
            offsets: vec![10.0],
            metric: 100.0,
        };
        // Ask for far more symbols than the capture holds: must truncate,
        // not panic.
        let syms = dec.decode_symbols(&s.samples, &det, 10_000);
        assert!(syms.len() < 10_000);
    }
}
