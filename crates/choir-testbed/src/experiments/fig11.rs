//! Fig. 11 — exploiting sensor-data correlation: (a) which grouping
//! strategy keeps team readings consistent (random / by floor / by
//! centre-distance); (b) end-to-end network throughput for a mixed
//! deployment of in-range and beyond-range sensors.

use crate::report::{FigureReport, Series};
use choir_mac::{run_sim, CollisionFatalPhy, MacScheme, SimConfig, TabulatedChoirPhy};
use choir_sensors::field::{Building, EnvField};
use choir_sensors::grouping::{make_groups, Strategy};
use choir_sensors::recover::{mean_group_error, Quantizer};
use lora_phy::params::PhyParams;

use super::Scale;

/// Fig. 11(a): mean normalised error per grouping strategy, for both
/// sensed quantities.
pub fn run_grouping(scale: Scale) -> FigureReport {
    let building = Building::default();
    let field = EnvField::new(building, 11);
    let sensors = building.place_sensors(36, 3);
    let epochs = scale.trials(2, 6);
    // 1-bit chunks: the most graceful splicing (each recovered chunk
    // halves the uncertainty), and fine enough that the strategies'
    // agreement depths actually differ instead of all collapsing to "no
    // common chunk" at the first cell boundary.
    let qt = Quantizer {
        chunk_bits: 1,
        ..Quantizer::temperature()
    };
    let qh = Quantizer {
        chunk_bits: 1,
        ..Quantizer::humidity()
    };
    let mut temp_rows = Vec::new();
    let mut hum_rows = Vec::new();
    for strat in Strategy::ALL {
        // Group size 9 = one floor's sensor count, so the by-floor
        // strategy forms exactly per-floor teams (as deployed in the
        // paper's building).
        let groups = make_groups(&building, &sensors, strat, 9, 1);
        let mut terr = 0.0;
        let mut herr = 0.0;
        for e in 0..epochs {
            let tgroups: Vec<Vec<f64>> = groups
                .iter()
                .map(|g| {
                    g.iter()
                        .map(|&i| field.temperature_reading(sensors[i], i, e as u64))
                        .collect()
                })
                .collect();
            let hgroups: Vec<Vec<f64>> = groups
                .iter()
                .map(|g| {
                    g.iter()
                        .map(|&i| field.humidity_reading(sensors[i], i, e as u64))
                        .collect()
                })
                .collect();
            terr += mean_group_error(&tgroups, &qt, usize::MAX);
            herr += mean_group_error(&hgroups, &qh, usize::MAX);
        }
        temp_rows.push((strat.label(), terr / epochs as f64));
        hum_rows.push((strat.label(), herr / epochs as f64));
    }
    let mut report = FigureReport::new(
        "fig11a",
        "Sensor grouping strategies: mean normalised error",
    );
    report.push_series(Series::from_labels("temperature", &temp_rows));
    report.push_series(Series::from_labels("humidity", &hum_rows));
    report.note("paper: centre-distance < floor < random");
    report
}

/// Fig. 11(b) with an injected Choir decode-probability table for the
/// near cluster (IQ-calibrated by the bench harness).
pub fn run_end_to_end_with_table(table: &[f64], scale: Scale) -> FigureReport {
    let params = PhyParams::default();
    let slots = scale.trials(150, 500);
    // Near cluster: 8 in-range nodes streaming sensor readings.
    let near = SimConfig {
        params,
        payload_len: 8,
        num_nodes: 8,
        slots,
        snr_range_db: (8.0, 22.0),
        beacon_overhead_s: 0.01,
        seed: 11,
    };
    let mut fatal = CollisionFatalPhy { params };
    let aloha = run_sim(MacScheme::Aloha, &near, &mut fatal);
    let mut fatal2 = CollisionFatalPhy { params };
    let oracle = run_sim(MacScheme::Oracle, &near, &mut fatal2);
    let mut choir_phy = TabulatedChoirPhy::new(table.to_vec(), 3);
    let choir_near = run_sim(MacScheme::Choir, &near, &mut choir_phy);

    // Far teams: two 10-member beyond-range teams, scheduled every 4th
    // beacon slot, each delivering one shared reading per scheduled slot
    // (validated at the IQ level by fig09). Baselines get nothing from
    // them: those nodes are beyond the single-node range.
    let team_success = 0.9; // conservative vs fig09 measurements
    let team_packets_per_s =
        2.0 * team_success / (4.0 * (near.packet_airtime_s() + near.beacon_overhead_s));
    let far_bps = team_packets_per_s * near.payload_bits() as f64;

    let rows = [
        ("ALOHA", aloha.throughput_bps),
        ("Oracle", oracle.throughput_bps),
        ("Choir", choir_near.throughput_bps + far_bps),
    ];
    let mut report = FigureReport::new(
        "fig11b",
        "End-to-end throughput: mixed near sensors + beyond-range teams",
    );
    report.push_series(Series::from_labels("thrpt bps", &rows));
    report.note("paper: Choir ≈29.3× ALOHA, ≈5.6× Oracle");
    report
}

/// Fig. 11(b) end to end (IQ calibration — slow).
pub fn run_end_to_end(scale: Scale) -> FigureReport {
    let trials = scale.trials(2, 5);
    let table = super::fig08::calibrate(PhyParams::default(), 8, trials, (8.0, 22.0));
    run_end_to_end_with_table(&table, scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grouping_order_matches_paper() {
        let r = run_grouping(Scale::Quick);
        for q in ["temperature", "humidity"] {
            let rand = r.value(q, "Random").unwrap();
            let floor = r.value(q, "Floor").unwrap();
            let center = r.value(q, "Center Dist.").unwrap();
            assert!(center < rand, "{q}: center {center} rand {rand}");
            assert!(center <= floor + 0.01, "{q}: center {center} floor {floor}");
            assert!(floor <= rand + 0.01, "{q}: floor {floor} rand {rand}");
        }
    }

    #[test]
    fn end_to_end_gains() {
        let table = vec![1.0, 1.0, 0.97, 0.95, 0.9, 0.62, 0.6, 0.55];
        let r = run_end_to_end_with_table(&table, Scale::Quick);
        let a = r.value("thrpt bps", "ALOHA").unwrap();
        let o = r.value("thrpt bps", "Oracle").unwrap();
        let c = r.value("thrpt bps", "Choir").unwrap();
        assert!(c > 3.0 * o, "choir {c} oracle {o}");
        // Conservative vs the paper's 29×: our ALOHA baseline is slotted.
        assert!(c > 6.0 * a, "choir {c} aloha {a}");
    }
}
