//! Fig. 12 — comparison with uplink MU-MIMO on a 3-antenna base station:
//! five sensors served by (1) single-antenna ALOHA, (2) single-antenna
//! Oracle, (3) 3-antenna MU-MIMO, (4) single-antenna Choir, (5) Choir on
//! all three antennas (selection combining).

use crate::report::{FigureReport, Series};
use choir_channel::antenna::array_channels;
use choir_channel::fading::Fading;
use choir_channel::impairments::{HardwareProfile, OscillatorModel};
use choir_channel::mix::{mix_array, MixConfig, Transmission};
use choir_channel::noise::db_to_lin;
use choir_dsp::complex::C64;
use choir_mac::{run_sim, CollisionFatalPhy, MacScheme, SimConfig, TabulatedChoirPhy};
use choir_mimo::{choir_multi_antenna, mu_mimo_decode};
use lora_phy::chirp::PacketWaveform;
use lora_phy::frame::packet_symbols;
use lora_phy::params::PhyParams;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::Scale;

const USERS: usize = 5;
const PAYLOAD: usize = 8;

/// Builds a synchronized multi-antenna capture of `k` users and returns
/// per-antenna streams, genie channels, true payloads and the slot start.
#[allow(clippy::type_complexity)]
fn capture(
    antennas: usize,
    k: usize,
    with_offsets: bool,
    seed: u64,
) -> (Vec<Vec<C64>>, Vec<Vec<C64>>, Vec<Vec<u8>>, usize) {
    let params = PhyParams::default();
    let n = params.samples_per_symbol();
    let mut rng = StdRng::seed_from_u64(seed);
    let osc = OscillatorModel::default();
    let payloads: Vec<Vec<u8>> = (0..k)
        .map(|_| (0..PAYLOAD).map(|_| rng.gen()).collect())
        .collect();
    let txs: Vec<Transmission> = payloads
        .iter()
        .map(|payload| {
            let profile = if with_offsets {
                let ppm = osc.sample_ppm(&mut rng);
                osc.sample_profile(ppm, &mut rng)
            } else {
                HardwareProfile::ideal()
            };
            Transmission {
                waveform: PacketWaveform::new(n, packet_symbols(&params, payload)),
                channel: C64::ONE,
                amplitude: db_to_lin(rng.gen_range(8.0..14.0)).sqrt(),
                profile,
                start_sample: (2 * n) as f64,
            }
        })
        .collect();
    let channels = array_channels(antennas, k, Fading::Rayleigh, &mut rng);
    let total = 2 * n + txs[0].waveform.num_symbols() * n + 2 * n;
    let cfg = MixConfig {
        bw_hz: params.bw.hz(),
        noise_power: 1.0,
    };
    let streams = mix_array(&txs, &channels, total, &cfg, &mut rng);
    (streams, channels, payloads, 2 * n)
}

/// Measures MU-MIMO per-user decode probability: groups of 3 synchronized
/// users on 3 antennas (the baseline's structural maximum), genie channel
/// knowledge.
pub fn measure_mimo_prob(trials: usize) -> f64 {
    let params = PhyParams::default();
    let mut ok = 0usize;
    let mut total = 0usize;
    for t in 0..trials {
        let (streams, channels, payloads, start) = capture(3, 3, false, 1200 + t as u64);
        if let Ok(frames) = mu_mimo_decode(&streams, &channels, &params, start, PAYLOAD, 1.0) {
            for (f, truth) in frames.iter().zip(&payloads) {
                total += 1;
                if f.as_ref()
                    .map(|x| x.crc_ok && &x.payload == truth)
                    .unwrap_or(false)
                {
                    ok += 1;
                }
            }
        } else {
            total += 3;
        }
    }
    ok as f64 / total.max(1) as f64
}

/// Measures Choir-with-3-antennas per-user decode probability for the
/// full 5-user collision (selection combining across antennas).
pub fn measure_choir_mimo_prob(trials: usize) -> f64 {
    let params = PhyParams::default();
    let mut ok = 0usize;
    let mut total = 0usize;
    for t in 0..trials {
        let (streams, _, payloads, start) = capture(3, USERS, true, 1300 + t as u64);
        let merged = choir_multi_antenna(&streams, &params, start, PAYLOAD);
        for truth in &payloads {
            total += 1;
            if merged.iter().any(|d| {
                d.payload_ok()
                    && d.frame
                        .as_ref()
                        .map(|f| &f.payload == truth)
                        .unwrap_or(false)
            }) {
                ok += 1;
            }
        }
    }
    ok as f64 / total.max(1) as f64
}

/// Fig. 12 with injected probabilities (for tests; the IQ measurement
/// functions above feed the real run).
pub fn run_with_probs(
    p_choir5: f64,
    p_mimo3: f64,
    p_choir_mimo5: f64,
    scale: Scale,
) -> FigureReport {
    let params = PhyParams::default();
    let slots = scale.trials(200, 600);
    let base = SimConfig {
        params,
        payload_len: PAYLOAD,
        num_nodes: USERS,
        slots,
        snr_range_db: (8.0, 14.0),
        beacon_overhead_s: 0.01,
        seed: 12,
    };
    let mut fatal = CollisionFatalPhy { params };
    let aloha = run_sim(MacScheme::Aloha, &base, &mut fatal);
    let mut fatal2 = CollisionFatalPhy { params };
    let oracle = run_sim(MacScheme::Oracle, &base, &mut fatal2);
    let mut choir_phy = TabulatedChoirPhy::new(vec![p_choir5; USERS], 4);
    let choir1 = run_sim(MacScheme::Choir, &base, &mut choir_phy);
    let mut choir_mimo_phy = TabulatedChoirPhy::new(vec![p_choir_mimo5; USERS], 4);
    let choir3 = run_sim(MacScheme::Choir, &base, &mut choir_mimo_phy);
    // MU-MIMO MAC: the scheduler serves rotating groups of 3 (its antenna
    // cap); per-slot delivered packets = 3 · p_mimo.
    let slot_s = base.packet_airtime_s() + base.beacon_overhead_s;
    let mimo_tput = 3.0 * p_mimo3 * base.payload_bits() as f64 / slot_s;

    let rows = [
        ("ALOHA", aloha.throughput_bps),
        ("Oracle", oracle.throughput_bps),
        ("MU-MIMO", mimo_tput),
        ("Choir", choir1.throughput_bps),
        ("Choir+MIMO", choir3.throughput_bps),
    ];
    let mut report = FigureReport::new(
        "fig12",
        "Throughput vs uplink MU-MIMO (5 users, 3 antennas)",
    );
    report.push_series(Series::from_labels("thrpt bps", &rows));
    report.note(
        "paper: MU-MIMO 9.99×/3.04× ALOHA/Oracle; Choir 11.07×/3.37×; Choir+MIMO 13.85×/4.22×",
    );
    report
}

/// Fig. 12 end to end: measures all three probabilities at IQ level.
pub fn run(scale: Scale) -> FigureReport {
    let trials = scale.trials(2, 6);
    let p_mimo = measure_mimo_prob(trials);
    let p_choir_mimo = measure_choir_mimo_prob(trials);
    // Single-antenna Choir at 5 users: reuse the fig08 calibration helper.
    let table = super::fig08::calibrate(PhyParams::default(), USERS, trials, (8.0, 14.0));
    // `calibrate` returns one probability per user count (USERS >= 1), so
    // the table is never empty; the fallback is unreachable.
    let p_choir5 = table.last().copied().unwrap_or_default();
    let mut r = run_with_probs(p_choir5, p_mimo, p_choir_mimo, scale);
    r.note(format!(
        "measured p: choir(5,1ant)={p_choir5:.2}, mimo(3,3ant)={p_mimo:.2}, choir(5,3ant)={p_choir_mimo:.2}"
    ));
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_matches_paper_with_plausible_probs() {
        // Probabilities in the ballpark our IQ runs measure.
        let r = run_with_probs(0.9, 0.9, 0.95, Scale::Quick);
        let a = r.value("thrpt bps", "ALOHA").unwrap();
        let o = r.value("thrpt bps", "Oracle").unwrap();
        let m = r.value("thrpt bps", "MU-MIMO").unwrap();
        let c = r.value("thrpt bps", "Choir").unwrap();
        let cm = r.value("thrpt bps", "Choir+MIMO").unwrap();
        // Paper ordering: ALOHA < Oracle < MU-MIMO < Choir < Choir+MIMO.
        assert!(a < o && o < m && m < c && c <= cm, "{a} {o} {m} {c} {cm}");
        // MU-MIMO's structural cap: ~3× Oracle.
        assert!(m / o > 2.0 && m / o < 3.5, "mimo/oracle {}", m / o);
    }

    #[test]
    fn mimo_iq_probability_reasonable() {
        let p = measure_mimo_prob(2);
        assert!(p > 0.5, "p_mimo {p}");
    }
}
