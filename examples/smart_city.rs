//! A smart-city deployment in one program: 30 temperature sensors across
//! a building, near ones streaming through Choir's collision decoding and
//! far ones teamed up by centre-distance grouping — the intro's motivating
//! scenario, with network metrics for Choir vs the LoRaWAN baselines.
//!
//! ```text
//! cargo run --release --example smart_city
//! ```

use choir::mac::{CollisionFatalPhy, TabulatedChoirPhy};
use choir::prelude::*;
use choir::sensors::recover::recover_group;
use choir::sensors::{make_groups, Building, EnvField};

fn main() {
    // --- the sensed world -------------------------------------------------
    let building = Building::default();
    let mut field = EnvField::new(building, 5);
    // A mild day: readings cluster tightly enough that co-located teams
    // share several MSB chunks (a cold snap widens the indoor/outdoor
    // spread and coarsens the shared view — try t_out = 4.0).
    field.t_out = 16.0;
    let sensors = building.place_sensors(30, 5);
    let readings: Vec<f64> = sensors
        .iter()
        .enumerate()
        .map(|(i, &p)| field.temperature_reading(p, i, 0))
        .collect();
    println!("=== sensed temperatures (30 sensors, 4 floors) ===");
    let min = readings.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = readings.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    println!("  range {min:.1}..{max:.1} °C (façade cold, interior at setpoint)");

    // --- near sensors: Choir collision decoding vs baselines --------------
    let params = PhyParams::default();
    let cfg = SimConfig {
        params,
        payload_len: 8,
        num_nodes: 6,
        slots: 300,
        snr_range_db: (8.0, 22.0),
        beacon_overhead_s: 0.01,
        seed: 30,
    };
    // Decode probabilities calibrated from the IQ decoder (see
    // `choir-mac::calibrate_choir_phy`); these are the measured shape.
    let p_table = vec![1.0, 1.0, 0.97, 0.95, 0.9, 0.62];
    let mut aloha_phy = CollisionFatalPhy { params };
    let aloha = run_sim(MacScheme::Aloha, &cfg, &mut aloha_phy);
    let mut oracle_phy = CollisionFatalPhy { params };
    let oracle = run_sim(MacScheme::Oracle, &cfg, &mut oracle_phy);
    let mut choir_phy = TabulatedChoirPhy::new(p_table, 30);
    let choir = run_sim(MacScheme::Choir, &cfg, &mut choir_phy);
    println!("\n=== near cluster (6 in-range sensors, saturated uplink) ===");
    for (name, m) in [("ALOHA", &aloha), ("Oracle", &oracle), ("Choir", &choir)] {
        println!(
            "  {name:7}: {:7.0} bps, latency {:6.3} s, {:4.2} tx/pkt",
            m.throughput_bps, m.avg_latency_s, m.tx_per_packet
        );
    }
    println!(
        "  Choir gains: {:.1}× ALOHA, {:.1}× Oracle",
        choir.throughput_bps / aloha.throughput_bps,
        choir.throughput_bps / oracle.throughput_bps
    );

    // --- far sensors: correlated teams deliver a coarse view --------------
    println!("\n=== far sensors: centre-distance teams (coarse view) ===");
    let groups = make_groups(&building, &sensors, Strategy::ByCenterDistance, 6, 1);
    let q = Quantizer::temperature();
    for (gi, g) in groups.iter().enumerate() {
        let vals: Vec<f64> = g.iter().map(|&i| readings[i]).collect();
        let rec = recover_group(&vals, &q, usize::MAX);
        println!(
            "  team {gi}: {} sensors, {} MSB chunks common → coarse view {:.2} °C (err {:.1} %)",
            g.len(),
            rec.chunks_recovered,
            rec.reconstructed,
            rec.mean_normalized_error * 100.0
        );
    }
    println!("\nnear sensors stream at full rate; far sensors still contribute a coarse map ✔");
}
