//! The superposition engine: renders what a single-antenna base station
//! actually receives when several impaired transmitters collide.
//!
//! Each transmitter's chirp waveform is evaluated *analytically* at
//! `rx_sample_time − its own (jittered) timing offset`, rotated by its own
//! (jittered) CFO, scaled by its channel, summed, and drowned in AWGN.
//! Because the waveform model ([`lora_phy::chirp`]) is exact at fractional
//! chip times, sub-sample timing offsets carry no interpolation error —
//! this is the IQ interface the paper's USRP gives Choir.

use choir_dsp::complex::C64;
use lora_phy::chirp::{symbol_sample, PacketWaveform};
use rand::Rng;

use crate::fading::gaussian;
use crate::impairments::HardwareProfile;
use crate::noise::add_awgn;

/// One transmitter's contribution to a capture.
#[derive(Clone, Debug)]
pub struct Transmission {
    /// The symbol waveform (preamble included).
    pub waveform: PacketWaveform,
    /// Complex channel coefficient (fading × phase), unit mean power.
    pub channel: C64,
    /// Amplitude relative to unit noise, `10^(SNR_dB/20)`.
    pub amplitude: f64,
    /// Hardware state for this packet.
    pub profile: HardwareProfile,
    /// Nominal slot start in receiver samples (the beacon-aligned slot
    /// boundary; the profile's timing offset shifts the actual start).
    pub start_sample: f64,
}

/// Mixer configuration.
#[derive(Clone, Copy, Debug)]
pub struct MixConfig {
    /// Bandwidth in Hz (= sample rate; 1 sample per chip).
    pub bw_hz: f64,
    /// AWGN power per complex sample (normalise to 1.0).
    pub noise_power: f64,
}

impl Default for MixConfig {
    fn default() -> Self {
        MixConfig {
            bw_hz: 125e3,
            noise_power: 1.0,
        }
    }
}

/// Renders `total_samples` of received baseband with every transmission
/// superimposed plus AWGN.
pub fn mix<R: Rng>(
    txs: &[Transmission],
    total_samples: usize,
    cfg: &MixConfig,
    rng: &mut R,
) -> Vec<C64> {
    let mut out = vec![C64::ZERO; total_samples];
    for tx in txs {
        render_into(&mut out, tx, cfg, rng);
    }
    if cfg.noise_power > 0.0 {
        add_awgn(rng, &mut out, cfg.noise_power);
    }
    out
}

/// Adds one transmission into an existing buffer (no noise). Public so the
/// multi-antenna path can reuse it with per-antenna channels.
pub fn render_into<R: Rng>(out: &mut [C64], tx: &Transmission, cfg: &MixConfig, rng: &mut R) {
    let n = tx.waveform.chips_per_symbol();
    let n_f = n as f64;
    let num_syms = tx.waveform.num_symbols();
    let h = tx.channel.scale(tx.amplitude);

    // Within-packet random walks (Fig. 7(c,d)): per-symbol CFO and timing
    // jitter around the constant profile values.
    let mut cfo_sym = Vec::with_capacity(num_syms);
    let mut toff_sym = Vec::with_capacity(num_syms);
    let mut cfo = tx.profile.cfo_hz;
    let mut toff = tx.profile.timing_offset_symbols;
    for _ in 0..num_syms {
        cfo_sym.push(cfo);
        toff_sym.push(toff);
        cfo += gaussian(rng) * tx.profile.cfo_jitter_hz;
        toff += gaussian(rng) * tx.profile.timing_jitter_symbols;
    }

    // Phase-continuous CFO rotation: within symbol j the carrier advances
    // at cfo_sym[j]; the accumulated phase carries across symbol
    // boundaries so jitter never introduces phase steps.
    let mut acc = tx.profile.phase;
    let symbols = tx.waveform.symbols();
    for (j, &sym) in symbols.iter().enumerate() {
        let nominal = tx.start_sample + j as f64 * n_f;
        let sym_start = nominal + toff_sym[j] * n_f;
        let first = sym_start.ceil().max(0.0) as usize;
        let last = ((sym_start + n_f).ceil().max(0.0) as usize).min(out.len());
        let inc = 2.0 * std::f64::consts::PI * cfo_sym[j] / cfg.bw_hz;
        for (i, slot) in out.iter_mut().enumerate().take(last).skip(first) {
            let tau = i as f64 - sym_start;
            if !(0.0..n_f).contains(&tau) {
                continue;
            }
            let s = symbol_sample(n, sym, tau);
            let rot = C64::cis(acc + inc * (i as f64 - nominal));
            *slot += h * s * rot;
        }
        acc += inc * n_f;
    }
}

/// Renders the same set of transmissions as seen by `num_antennas`
/// antennas, each with independent per-antenna channel coefficients
/// (`channels[a][t]` for antenna `a`, transmitter `t`) and independent
/// noise. Used by the MU-MIMO baseline and Choir+MIMO combining.
pub fn mix_array<R: Rng>(
    txs: &[Transmission],
    channels: &[Vec<C64>],
    total_samples: usize,
    cfg: &MixConfig,
    rng: &mut R,
) -> Vec<Vec<C64>> {
    channels
        .iter()
        .map(|per_tx| {
            assert_eq!(per_tx.len(), txs.len(), "mix_array: channel matrix shape");
            let antenna_txs: Vec<Transmission> = txs
                .iter()
                .zip(per_tx)
                .map(|(tx, &h)| Transmission {
                    channel: h,
                    ..tx.clone()
                })
                .collect();
            mix(&antenna_txs, total_samples, cfg, rng)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use choir_dsp::fft::plan;
    use lora_phy::chirp::base_downchirp;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const N: usize = 128;

    fn tx(symbols: Vec<u16>, amplitude: f64, profile: HardwareProfile, start: f64) -> Transmission {
        Transmission {
            waveform: PacketWaveform::new(N, symbols),
            channel: C64::ONE,
            amplitude,
            profile,
            start_sample: start,
        }
    }

    fn quiet() -> MixConfig {
        MixConfig {
            bw_hz: 125e3,
            noise_power: 0.0,
        }
    }

    fn peak_bin(window: &[C64]) -> (usize, f64) {
        let down = base_downchirp(N);
        let mut spec: Vec<C64> = window.iter().zip(&down).map(|(a, b)| a * b).collect();
        plan(N).forward(&mut spec);
        spec.iter()
            .enumerate()
            .map(|(k, z)| (k, z.abs()))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap()
    }

    #[test]
    fn ideal_single_tx_renders_exact_chirps() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = tx(vec![7, 100], 1.0, HardwareProfile::ideal(), 0.0);
        let out = mix(&[t], 2 * N, &quiet(), &mut rng);
        assert_eq!(peak_bin(&out[..N]).0, 7);
        assert_eq!(peak_bin(&out[N..]).0, 100);
        // Peak magnitude = N (coherent sum).
        assert!((peak_bin(&out[..N]).1 - N as f64).abs() < 1e-6);
    }

    #[test]
    fn amplitude_and_channel_scale_output() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut t = tx(vec![0], 3.0, HardwareProfile::ideal(), 0.0);
        t.channel = C64::from_polar(1.0, 1.2);
        let out = mix(&[t], N, &quiet(), &mut rng);
        let (_, h) = peak_bin(&out);
        assert!((h - 3.0 * N as f64).abs() < 1e-6);
    }

    #[test]
    fn cfo_shifts_peak_by_expected_bins() {
        let mut rng = StdRng::seed_from_u64(3);
        let bin_hz = 125e3 / N as f64; // 976.5625 Hz
        let mut p = HardwareProfile::ideal();
        p.cfo_hz = 3.0 * bin_hz; // exactly +3 bins
        let t = tx(vec![10], 1.0, p, 0.0);
        let out = mix(&[t], N, &quiet(), &mut rng);
        assert_eq!(peak_bin(&out).0, 13);
    }

    #[test]
    fn timing_offset_shifts_peak_negatively() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut p = HardwareProfile::ideal();
        p.timing_offset_symbols = 2.0 / N as f64; // delay of 2 chips
        let t = tx(vec![10, 10, 10], 1.0, p, 0.0);
        let out = mix(&[t], 3 * N, &quiet(), &mut rng);
        // Middle window avoids the leading edge.
        assert_eq!(peak_bin(&out[N..2 * N]).0, 8);
    }

    #[test]
    fn fractional_cfo_lands_between_bins() {
        let mut rng = StdRng::seed_from_u64(5);
        let bin_hz = 125e3 / N as f64;
        let mut p = HardwareProfile::ideal();
        p.cfo_hz = 20.4 * bin_hz;
        let t = tx(vec![0; 2], 1.0, p, 0.0);
        let out = mix(&[t], 2 * N, &quiet(), &mut rng);
        let down = base_downchirp(N);
        let de: Vec<C64> = out[..N].iter().zip(&down).map(|(a, b)| a * b).collect();
        let mut spec = vec![C64::ZERO; 10 * N];
        choir_dsp::workspace::with(|ws| {
            choir_dsp::fft::FftPlan::new(10 * N).forward_padded_into(&de, &mut spec, ws);
        });
        let peaks = choir_dsp::peaks::find_peaks(&spec, 10);
        assert!((peaks[0].pos - 20.4).abs() < 0.05, "pos {}", peaks[0].pos);
    }

    #[test]
    fn two_colliding_txs_two_peaks() {
        let mut rng = StdRng::seed_from_u64(6);
        let bin = 125e3 / N as f64;
        let mut p1 = HardwareProfile::ideal();
        p1.cfo_hz = 0.2 * bin;
        let mut p2 = HardwareProfile::ideal();
        p2.cfo_hz = 50.6 * bin;
        let t1 = tx(vec![0], 1.0, p1, 0.0);
        let t2 = tx(vec![0], 0.8, p2, 0.0);
        let out = mix(&[t1, t2], N, &quiet(), &mut rng);
        let down = base_downchirp(N);
        let de: Vec<C64> = out.iter().zip(&down).map(|(a, b)| a * b).collect();
        let mut spec = vec![C64::ZERO; 10 * N];
        choir_dsp::workspace::with(|ws| {
            choir_dsp::fft::FftPlan::new(10 * N).forward_padded_into(&de, &mut spec, ws);
        });
        let peaks = choir_dsp::peaks::find_peaks(&spec, 10);
        assert_eq!(peaks.len(), 2);
        assert!((peaks[0].pos - 0.2).abs() < 0.1);
        assert!((peaks[1].pos - 50.6).abs() < 0.1);
    }

    #[test]
    fn noise_power_measured() {
        let mut rng = StdRng::seed_from_u64(7);
        let out = mix(&[], 50_000, &MixConfig::default(), &mut rng);
        let p: f64 = out.iter().map(|z| z.norm_sqr()).sum::<f64>() / out.len() as f64;
        assert!((p - 1.0).abs() < 0.03, "noise power {p}");
    }

    #[test]
    fn packet_confined_to_its_extent() {
        let mut rng = StdRng::seed_from_u64(8);
        let t = tx(vec![5; 2], 1.0, HardwareProfile::ideal(), (3 * N) as f64);
        let out = mix(&[t], 8 * N, &quiet(), &mut rng);
        let pre: f64 = out[..3 * N].iter().map(|z| z.norm_sqr()).sum();
        let during: f64 = out[3 * N..5 * N].iter().map(|z| z.norm_sqr()).sum();
        let post: f64 = out[5 * N..].iter().map(|z| z.norm_sqr()).sum();
        assert!(pre < 1e-12);
        assert!(post < 1e-12);
        assert!((during - (2 * N) as f64).abs() < 1.0);
    }

    #[test]
    fn mix_array_shapes_and_channels() {
        let mut rng = StdRng::seed_from_u64(9);
        let t = tx(vec![1], 1.0, HardwareProfile::ideal(), 0.0);
        let channels = vec![vec![C64::ONE], vec![C64::from_polar(0.5, 0.3)]];
        let rxs = mix_array(&[t], &channels, N, &quiet(), &mut rng);
        assert_eq!(rxs.len(), 2);
        let (_, h0) = peak_bin(&rxs[0]);
        let (_, h1) = peak_bin(&rxs[1]);
        assert!((h1 / h0 - 0.5).abs() < 1e-6);
    }

    #[test]
    fn jitter_moves_offsets_slightly() {
        let mut rng = StdRng::seed_from_u64(10);
        let bin_hz = 125e3 / N as f64;
        let mut p = HardwareProfile::ideal();
        p.cfo_hz = 0.5 * bin_hz; // keep the peak away from the wrap at 0
        p.cfo_jitter_hz = 5.0; // exaggerated for the test
        let t = tx(vec![0; 20], 1.0, p, 0.0);
        let out = mix(&[t], 20 * N, &quiet(), &mut rng);
        // Measure per-symbol fractional peak drift over the packet.
        let down = base_downchirp(N);
        let pad = choir_dsp::fft::FftPlan::new(10 * N);
        let mut positions = Vec::new();
        for j in 0..20 {
            let de: Vec<C64> = out[j * N..(j + 1) * N]
                .iter()
                .zip(&down)
                .map(|(a, b)| a * b)
                .collect();
            let mut spec = vec![C64::ZERO; 10 * N];
            choir_dsp::workspace::with(|ws| pad.forward_padded_into(&de, &mut spec, ws));
            let peaks = choir_dsp::peaks::find_peaks(&spec, 10);
            positions.push(peaks[0].pos);
        }
        let spread = positions.iter().cloned().fold(f64::MIN, f64::max)
            - positions.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread > 0.0, "jitter should move the peak a little");
        assert!(spread < 0.5, "jitter too large: {spread} bins");
    }
}
