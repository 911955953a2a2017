//! Fig. 9 — extending LP-WAN range with teams of beyond-range sensors:
//! (a) throughput achieved by teams of increasing size whose members are
//! individually undecodable; (b) the maximum distance at which a team
//! still reaches the base station.

use crate::report::{FigureReport, Series};
use crate::topology::Topology;
use choir_channel::impairments::OscillatorModel;
use choir_channel::scenario::ScenarioBuilder;
use choir_core::lowsnr::TeamDecoder;
use lora_phy::params::{PhyParams, SpreadingFactor};

use super::Scale;

/// Shared team payload (a spliced sensor chunk packet).
const TEAM_PAYLOAD: [u8; 6] = [0xC4, 0x81, 0x3E, 0x07, 0x55, 0xA9];

/// Paper's team-size buckets for Fig. 9(a), with a representative size.
pub const SIZE_BUCKETS: [(&str, usize); 7] = [
    ("<2", 1),
    ("2-6", 4),
    ("7-11", 9),
    ("12-16", 14),
    ("17-21", 19),
    ("21-25", 23),
    ("26-30", 28),
];

/// Rate adaptation for a team: the fastest spreading factor whose
/// demodulation floor the *combined* team SNR clears with 3 dB margin.
/// Mirrors the paper's observation that larger teams "transmit at higher
/// data rates". Non-coherent combining buys ~5·log₁₀(m) dB of decision
/// margin.
pub fn team_sf(member_snr_db: f64, team_size: usize) -> Option<SpreadingFactor> {
    let gain = 5.0 * (team_size as f64).log10();
    let eff = member_snr_db + gain;
    SpreadingFactor::ALL
        .into_iter()
        .find(|sf| eff >= sf.demod_floor_db() + 3.0)
}

/// One team trial at the given member SNR: returns `Some(bits, airtime)`
/// when the shared packet decodes end-to-end.
fn team_trial(
    sf: SpreadingFactor,
    member_snr_db: f64,
    team_size: usize,
    seed: u64,
) -> Option<(usize, f64)> {
    let params = PhyParams {
        sf,
        ..PhyParams::default()
    };
    let s = ScenarioBuilder::new(params)
        .snrs_db(&vec![member_snr_db; team_size])
        .shared_payload(TEAM_PAYLOAD.to_vec())
        .oscillator(OscillatorModel::default())
        .seed(seed)
        .build();
    let dec = TeamDecoder::new(params);
    let (_, frame) = dec.decode(
        &s.samples,
        s.slot_start,
        s.slot_start + 1,
        TEAM_PAYLOAD.len(),
    )?;
    let frame = frame?;
    if frame.crc_ok && frame.payload == TEAM_PAYLOAD {
        Some((
            TEAM_PAYLOAD.len() * 8,
            params.time_on_air(TEAM_PAYLOAD.len()),
        ))
    } else {
        None
    }
}

/// Fig. 9(a): throughput vs team size for members ~1.3 km out (beyond the
/// ~1 km single-node limit).
pub fn run_throughput(scale: Scale) -> FigureReport {
    let topo = Topology::cmu_campus(9);
    let params = PhyParams::default();
    let member_snr = topo.snr_at_distance_db(1300.0, &params); // ≈ −14.6 dB
    let trials = scale.trials(2, 5);
    let mut pts = Vec::new();
    for (label, m) in SIZE_BUCKETS {
        // Rate adaptation with IQ arbitration: for every spreading factor
        // within 3 dB of the analytic margin, measure the delivered
        // throughput over the trials and keep the best — mirroring the
        // paper's "collectively their throughput increases… allowing these
        // clients to transmit at higher data rates".
        let gain = 5.0 * (m as f64).log10();
        let eff = member_snr + gain;
        let mut tput = 0.0f64;
        for sf in lora_phy::params::SpreadingFactor::ALL {
            if eff < sf.demod_floor_db() - 3.0 {
                continue;
            }
            let mut ok_bits = 0usize;
            let mut airtime = 0.0;
            for t in 0..trials {
                let seed = 9000 + m as u64 * 17 + t as u64;
                if let Some((bits, air)) = team_trial(sf, member_snr, m, seed) {
                    ok_bits += bits;
                    airtime += air;
                } else {
                    airtime += PhyParams {
                        sf,
                        ..PhyParams::default()
                    }
                    .time_on_air(TEAM_PAYLOAD.len());
                }
            }
            if airtime > 0.0 {
                tput = tput.max(ok_bits as f64 / airtime);
            }
        }
        pts.push((label, tput));
    }
    let mut report = FigureReport::new(
        "fig09a",
        "Throughput of beyond-range teams vs team size (members ~1.3 km out)",
    );
    report.push_series(Series::from_labels("thrpt bps", &pts));
    report.note(format!(
        "per-member SNR at 1.3 km: {member_snr:.1} dB (below the single-node floor)"
    ));
    report.note("paper: throughput grows with team size, reaching ~3.5–5.5 kbps for 26–30 members");
    report
}

/// Fig. 9(b): maximum decodable distance vs team size (binary search over
/// distance; success = majority of trials decode the shared frame at the
/// slow "minimum data rate" spreading factor). A single-node row provides
/// the baseline the paper's 2.65× headline is measured against.
pub fn run_range(scale: Scale) -> FigureReport {
    let topo = Topology::cmu_campus(9);
    let trials = scale.trials(3, 5);
    let sizes = [("1", 1usize), ("1-10", 5), ("11-20", 15), ("21-30", 28)];
    let sf = SpreadingFactor::Sf10; // the range experiments' slow rate
    let params = PhyParams {
        sf,
        ..PhyParams::default()
    };
    let mut pts = Vec::new();
    for (label, m) in sizes {
        let decodes_at = |d: f64| -> bool {
            let snr = topo.snr_at_distance_db(d, &params);
            let mut ok = 0;
            for t in 0..trials {
                if team_trial(sf, snr, m, 9900 + d as u64 + t as u64).is_some() {
                    ok += 1;
                }
            }
            ok * 2 > trials
        };
        let (mut lo, mut hi) = (400.0f64, 8000.0f64);
        if !decodes_at(lo) {
            pts.push((label, 0.0));
            continue;
        }
        for _ in 0..8 {
            let mid = (lo + hi) / 2.0;
            if decodes_at(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        pts.push((label, lo.round()));
    }
    let mut report = FigureReport::new("fig09b", "Maximum decodable distance vs team size");
    let ratio = match (pts.first(), pts.last()) {
        (Some((_, single)), Some((_, team))) if *single > 0.0 => team / single,
        _ => 0.0,
    };
    report.push_series(Series::from_labels("max distance m", &pts));
    report.note(format!("range extension 21-30 vs single: {ratio:.2}×"));
    report.note("paper: 1 km single-node limit; 2.65 km with teams of 21–30 (2.65×)");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn team_rate_adaptation_monotone() {
        // Larger teams support faster (or equal) spreading factors.
        let snr = -16.0;
        let mut prev: Option<SpreadingFactor> = None;
        for m in [1usize, 4, 9, 19, 28] {
            let sf = team_sf(snr, m);
            if let (Some(p), Some(s)) = (prev, sf) {
                assert!(s <= p, "m={m}: {s:?} slower than {p:?}");
            }
            if sf.is_some() {
                prev = sf;
            }
        }
        // Single node at −16 dB cannot close even SF12 with margin… or
        // barely can; a 28-node team must support a faster SF than one
        // node.
        let single = team_sf(snr, 1);
        let team = team_sf(snr, 28).unwrap();
        if let Some(s) = single {
            assert!(team < s);
        }
    }

    #[test]
    fn one_iq_team_trial_decodes() {
        // 12 members at −12 dB, SF8: decodable via combining.
        let r = team_trial(SpreadingFactor::Sf8, -12.0, 12, 42);
        assert!(r.is_some());
    }

    #[test]
    fn single_member_beyond_range_fails() {
        let r = team_trial(SpreadingFactor::Sf8, -16.0, 1, 43);
        assert!(r.is_none());
    }
}
