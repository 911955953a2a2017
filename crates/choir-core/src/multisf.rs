//! Parallel decoding across spreading factors — Sec. 5.2, concluding
//! point (4).
//!
//! Chirps of different spreading factors are (near-)orthogonal: dechirping
//! a capture with SF `a`'s down-chirp collapses only SF-`a` transmissions
//! into tones; SF-`b` signals remain spread and appear as a low, flat
//! noise floor. A LoRaWAN gateway already exploits this to decode one
//! packet per SF simultaneously; Choir extends it to *collisions within
//! each SF*: demultiplex by SF, then run the collision decoder per stream.

use choir_dsp::complex::C64;
use lora_phy::params::{PhyParams, SpreadingFactor};

use crate::decoder::{ChoirConfig, ChoirDecoder, DecodedUser, SlotView};

/// One SF's decoding lane.
#[derive(Clone, Debug)]
pub struct SfLane {
    /// PHY parameters of this lane (sets the spreading factor).
    pub params: PhyParams,
    /// Number of data symbols expected on this lane.
    pub num_data_symbols: usize,
}

/// Result of one lane.
#[derive(Clone, Debug)]
pub struct LaneResult {
    /// The lane's spreading factor.
    pub sf: SpreadingFactor,
    /// Users decoded on this lane.
    pub users: Vec<DecodedUser>,
}

/// Decodes a capture carrying concurrent transmissions on several
/// spreading factors: each lane runs the full Choir pipeline against the
/// *same* samples — the other SFs' energy stays spread after that lane's
/// dechirp and is absorbed as noise.
pub fn decode_multi_sf(
    samples: &[C64],
    slot_start: usize,
    lanes: &[SfLane],
    cfg: ChoirConfig,
) -> Vec<LaneResult> {
    lanes
        .iter()
        .map(|lane| {
            let decoder = ChoirDecoder::with_config(lane.params, cfg);
            let users = decoder
                .try_decode_view(SlotView::new(samples, slot_start, lane.num_data_symbols))
                .unwrap_or_default();
            LaneResult {
                sf: lane.params.sf,
                users,
            }
        })
        .collect()
}

/// Cross-SF interference gauge: the mean power an SF-`other` chirp leaves
/// in an SF-`target` dechirped bin, relative to a matched chirp's peak —
/// quantifies the orthogonality claim (≈ `1/2^SF_target`).
pub fn cross_sf_leakage(target: SpreadingFactor, other: SpreadingFactor) -> f64 {
    use lora_phy::chirp::{base_downchirp, base_upchirp};
    let nt = target.chips();
    let no = other.chips();
    let down = base_downchirp(nt);
    let up_other = base_upchirp(no);
    // One target-length window of the other SF's chirp, dechirped, then
    // transformed in place.
    let mut spec: Vec<C64> = (0..nt).map(|i| up_other[i % no] * down[i]).collect();
    choir_dsp::workspace::with(|ws| choir_dsp::fft::plan(nt).forward_into(&mut spec, ws));
    let peak = spec.iter().map(|z| z.norm_sqr()).fold(0.0, f64::max);
    // Matched peak power would be nt².
    peak / (nt as f64 * nt as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use choir_channel::impairments::HardwareProfile;
    use choir_channel::mix::{mix, MixConfig, Transmission};
    use choir_channel::noise::db_to_lin;
    use lora_phy::chirp::PacketWaveform;
    use lora_phy::frame::packet_symbols;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn params(sf: SpreadingFactor) -> PhyParams {
        PhyParams {
            sf,
            ..PhyParams::default()
        }
    }

    #[test]
    fn cross_sf_chirps_nearly_orthogonal() {
        // An SF9 chirp leaves ≤ a few percent of a matched peak in an SF8
        // dechirped spectrum (and vice versa).
        for (a, b) in [
            (SpreadingFactor::Sf8, SpreadingFactor::Sf9),
            (SpreadingFactor::Sf9, SpreadingFactor::Sf8),
            (SpreadingFactor::Sf7, SpreadingFactor::Sf9),
        ] {
            let leak = cross_sf_leakage(a, b);
            assert!(leak < 0.05, "{a:?}/{b:?} leakage {leak}");
        }
        // Matched SF is full strength.
        let matched = cross_sf_leakage(SpreadingFactor::Sf8, SpreadingFactor::Sf8);
        assert!(matched > 0.99, "matched {matched}");
    }

    #[test]
    fn two_sf_lanes_with_collisions_in_each() {
        // Five transmitters: 2 × SF7 colliding, 2 × SF8 colliding, 1 × SF9
        // alone — the paper's example configuration (SFs 7,7,8,8,9).
        let mut rng = StdRng::seed_from_u64(9);
        let bin8 = params(SpreadingFactor::Sf8).bin_hz();
        let mk_profile = |cfo_bins8: f64, toff: f64| HardwareProfile {
            cfo_hz: cfo_bins8 * bin8,
            timing_offset_symbols: toff,
            phase: 0.4,
            cfo_jitter_hz: 0.0,
            timing_jitter_symbols: 0.0,
        };
        let spec = [
            (SpreadingFactor::Sf7, mk_profile(5.2, 0.08)),
            (SpreadingFactor::Sf7, mk_profile(-9.6, 0.27)),
            (SpreadingFactor::Sf8, mk_profile(3.4, 0.12)),
            (SpreadingFactor::Sf8, mk_profile(-14.1, 0.31)),
            (SpreadingFactor::Sf9, mk_profile(7.7, 0.05)),
        ];
        let slot = 2 * 512; // guard sized for the largest SF
        let mut payloads = Vec::new();
        let txs: Vec<Transmission> = spec
            .iter()
            .map(|(sf, profile)| {
                let p = params(*sf);
                let payload: Vec<u8> = (0..6).map(|_| rng.gen()).collect();
                payloads.push((*sf, payload.clone()));
                Transmission {
                    waveform: PacketWaveform::new(
                        p.samples_per_symbol(),
                        packet_symbols(&p, &payload),
                    ),
                    channel: C64::ONE,
                    amplitude: db_to_lin(rng.gen_range(16.0..22.0)).sqrt(),
                    profile: *profile,
                    start_sample: slot as f64,
                }
            })
            .collect();
        let total = slot + 60 * 512;
        let cfg = MixConfig {
            bw_hz: 125e3,
            noise_power: 1.0,
        };
        let samples = mix(&txs, total, &cfg, &mut rng);

        let lanes: Vec<SfLane> = [
            SpreadingFactor::Sf7,
            SpreadingFactor::Sf8,
            SpreadingFactor::Sf9,
        ]
        .into_iter()
        .map(|sf| {
            let p = params(sf);
            SfLane {
                params: p,
                num_data_symbols: lora_phy::frame::frame_symbol_count(&p, 6),
            }
        })
        .collect();
        let results = decode_multi_sf(&samples, slot, &lanes, ChoirConfig::default());

        let mut decoded_ok = 0;
        for r in &results {
            for d in &r.users {
                if d.payload_ok() {
                    let payload = &d.frame.as_ref().unwrap().payload;
                    assert!(
                        payloads.iter().any(|(sf, p)| *sf == r.sf && p == payload),
                        "{:?}: decoded payload not transmitted on this SF",
                        r.sf
                    );
                    decoded_ok += 1;
                }
            }
        }
        // Cross-SF "orthogonality" is spreading, not nulling: each lane
        // sees the other four transmitters' full power spread flat across
        // its bins, raising its effective noise floor by ~Σ amp² (≈25 dB
        // here). Decoding 3+ of 5 under that is the realistic outcome —
        // known imperfect inter-SF isolation in LoRa.
        assert!(decoded_ok >= 3, "only {decoded_ok}/5 decoded across lanes");
    }

    #[test]
    fn empty_lane_reports_no_users() {
        // Only SF7 traffic on air; the SF9 lane must come back clean.
        let mut rng = StdRng::seed_from_u64(11);
        let p7 = params(SpreadingFactor::Sf7);
        let payload = vec![1u8, 2, 3];
        let tx = Transmission {
            waveform: PacketWaveform::new(p7.samples_per_symbol(), packet_symbols(&p7, &payload)),
            channel: C64::ONE,
            amplitude: db_to_lin(18.0).sqrt(),
            profile: HardwareProfile::ideal(),
            start_sample: 1024.0,
        };
        let samples = mix(
            &[tx],
            1024 + 50 * 512,
            &MixConfig {
                bw_hz: 125e3,
                noise_power: 1.0,
            },
            &mut rng,
        );
        let p9 = params(SpreadingFactor::Sf9);
        let lanes = [SfLane {
            params: p9,
            num_data_symbols: lora_phy::frame::frame_symbol_count(&p9, 3),
        }];
        let results = decode_multi_sf(&samples, 1024, &lanes, ChoirConfig::default());
        let ok = results[0].users.iter().filter(|d| d.payload_ok()).count();
        assert_eq!(ok, 0, "SF9 lane hallucinated a packet");
    }
}
