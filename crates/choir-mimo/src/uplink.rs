//! The uplink MU-MIMO LoRa receiver (the Sec. 9.5 comparator) and
//! Choir+MIMO selection combining.

use choir_dsp::complex::C64;
use lora_phy::frame::DecodedFrame;
use lora_phy::modem::Modem;
use lora_phy::params::PhyParams;

use crate::zf::{separate, separation_matrix, MimoError};

/// Decodes up to `A` synchronized, same-SF streams from `A` antennas via
/// MMSE separation followed by the standard single-user LoRa receiver on
/// each separated stream.
///
/// The baseline is given every advantage the paper gives it: genie
/// knowledge of the channel matrix and packet timing (`slot_start`), so
/// its only limitation is the structural `streams ≤ antennas` cap.
pub fn mu_mimo_decode(
    antenna_streams: &[Vec<C64>],
    channels: &[Vec<C64>],
    params: &PhyParams,
    slot_start: usize,
    payload_len: usize,
    noise_power: f64,
) -> Result<Vec<Option<DecodedFrame>>, MimoError> {
    let w = separation_matrix(channels, noise_power)?;
    let separated = separate(&w, antenna_streams)?;
    let modem = Modem::new(*params);
    let nsyms = lora_phy::frame::frame_symbol_count(params, payload_len);
    Ok(separated
        .into_iter()
        .map(|stream| lora_phy::detect::decode_packet(&stream, &modem, slot_start, nsyms + 4).ok())
        .collect())
}

/// Choir + MU-MIMO combining (the paper's strongest configuration): run
/// the Choir decoder independently on every antenna and merge per-user
/// results, keeping any antenna's successful decode (selection combining
/// — "averaging results" across antennas).
pub fn choir_multi_antenna(
    antenna_streams: &[Vec<C64>],
    params: &PhyParams,
    slot_start: usize,
    payload_len: usize,
) -> Vec<choir_core::decoder::DecodedUser> {
    let decoder = choir_core::decoder::ChoirDecoder::new(*params);
    let mut merged: Vec<choir_core::decoder::DecodedUser> = Vec::new();
    for stream in antenna_streams {
        let slot =
            choir_core::decoder::SlotView::known_len(params, stream, slot_start, payload_len);
        for d in decoder.try_decode_view(slot).unwrap_or_default() {
            // Same transmitter ⇒ same payload; merge by decoded payload.
            let dup = merged
                .iter_mut()
                .find(|m| match (m.frame.as_ref(), d.frame.as_ref()) {
                    (Some(a), Some(b)) => a.payload == b.payload,
                    _ => false,
                });
            match dup {
                Some(existing) => {
                    // Keep the better copy (CRC pass wins, then magnitude).
                    if d.payload_ok() && !existing.payload_ok() {
                        *existing = d;
                    }
                }
                None => merged.push(d),
            }
        }
    }
    merged
}

// Tests assert on exactly-representable values (0.0, bin centres).
#[allow(clippy::float_cmp)]
#[cfg(test)]
mod tests {
    use super::*;
    use choir_channel::antenna::array_channels;
    use choir_channel::fading::Fading;
    use choir_channel::impairments::HardwareProfile;
    use choir_channel::mix::{mix_array, MixConfig, Transmission};
    use choir_channel::noise::db_to_lin;
    use lora_phy::chirp::PacketWaveform;
    use lora_phy::frame::packet_symbols;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn params() -> PhyParams {
        PhyParams::default()
    }

    /// (per-antenna captures, per-user clean waveforms, payloads, n).
    type Capture = (Vec<Vec<C64>>, Vec<Vec<C64>>, Vec<Vec<u8>>, usize);

    /// Builds an A-antenna capture of `k` synchronized ideal users (no
    /// hardware offsets — the regime MU-MIMO is designed for).
    fn mimo_capture(antennas: usize, snrs: &[f64], seed: u64) -> Capture {
        let p = params();
        let n = p.samples_per_symbol();
        let mut rng = StdRng::seed_from_u64(seed);
        let payloads: Vec<Vec<u8>> = (0..snrs.len())
            .map(|_| (0..6).map(|_| rng.gen()).collect())
            .collect();
        let txs: Vec<Transmission> = payloads
            .iter()
            .zip(snrs)
            .map(|(payload, &snr)| Transmission {
                waveform: PacketWaveform::new(n, packet_symbols(&p, payload)),
                channel: C64::ONE, // replaced per antenna by mix_array
                amplitude: db_to_lin(snr).sqrt(),
                profile: HardwareProfile::ideal(),
                start_sample: (2 * n) as f64,
            })
            .collect();
        let channels = array_channels(antennas, snrs.len(), Fading::Rayleigh, &mut rng);
        let total = 2 * n + txs[0].waveform.num_symbols() * n + 2 * n;
        let cfg = MixConfig {
            bw_hz: p.bw.hz(),
            noise_power: 1.0,
        };
        let streams = mix_array(&txs, &channels, total, &cfg, &mut rng);
        (streams, channels, payloads, 2 * n)
    }

    #[test]
    fn three_antennas_separate_three_users() {
        let (streams, channels, payloads, start) = mimo_capture(3, &[22.0, 20.0, 18.0], 1);
        let frames = mu_mimo_decode(&streams, &channels, &params(), start, 6, 1.0).unwrap();
        let mut ok = 0;
        for (f, truth) in frames.iter().zip(&payloads) {
            if let Some(frame) = f {
                if frame.crc_ok && &frame.payload == truth {
                    ok += 1;
                }
            }
        }
        assert!(ok >= 2, "only {ok}/3 separated");
    }

    #[test]
    fn four_users_exceed_three_antennas() {
        let (streams, channels, _, start) = mimo_capture(3, &[20.0; 4], 2);
        assert_eq!(
            mu_mimo_decode(&streams, &channels, &params(), start, 6, 1.0),
            Err(MimoError::TooManyStreams)
        );
    }

    #[test]
    fn choir_multi_antenna_merges_users() {
        // Two users with hardware offsets; two antennas with independent
        // fading. Choir decodes each antenna and merges.
        let p = params();
        let n = p.samples_per_symbol();
        let bin = p.bin_hz();
        let mut rng = StdRng::seed_from_u64(3);
        let payloads: Vec<Vec<u8>> = (0..2)
            .map(|_| (0..6).map(|_| rng.gen()).collect())
            .collect();
        let profs = [
            HardwareProfile {
                cfo_hz: 4.3 * bin,
                timing_offset_symbols: 0.12,
                phase: 0.5,
                cfo_jitter_hz: 0.0,
                timing_jitter_symbols: 0.0,
            },
            HardwareProfile {
                cfo_hz: -11.7 * bin,
                timing_offset_symbols: 0.31,
                phase: 1.5,
                cfo_jitter_hz: 0.0,
                timing_jitter_symbols: 0.0,
            },
        ];
        let txs: Vec<Transmission> = payloads
            .iter()
            .zip(profs)
            .map(|(payload, profile)| Transmission {
                waveform: PacketWaveform::new(n, packet_symbols(&p, payload)),
                channel: C64::ONE,
                amplitude: db_to_lin(18.0).sqrt(),
                profile,
                start_sample: (2 * n) as f64,
            })
            .collect();
        let channels = array_channels(2, 2, Fading::Rayleigh, &mut rng);
        let total = 2 * n + txs[0].waveform.num_symbols() * n + 2 * n;
        let cfg = MixConfig {
            bw_hz: p.bw.hz(),
            noise_power: 1.0,
        };
        let streams = mix_array(&txs, &channels, total, &cfg, &mut rng);
        let merged = choir_multi_antenna(&streams, &p, 2 * n, 6);
        let ok = merged
            .iter()
            .filter(|d| d.payload_ok() && payloads.contains(&d.frame.as_ref().unwrap().payload))
            .count();
        assert!(ok >= 2, "merged ok = {ok}");
        // No duplicate payloads in the merge.
        let mut seen = std::collections::HashSet::new();
        for d in &merged {
            if let Some(f) = &d.frame {
                assert!(seen.insert(f.payload.clone()), "duplicate after merge");
            }
        }
    }
}
