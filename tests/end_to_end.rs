//! Workspace-level integration tests: transmit → urban channel → Choir
//! base station, spanning every crate through the public facade.

// Integration tests: failing fast on a missing frame IS the assertion.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use choir::core::DecodedUser;
use choir::prelude::*;

/// Decodes a scenario's slot for a known payload length.
fn decode(scenario: &CollisionScenario, payload_len: usize) -> Vec<DecodedUser> {
    ChoirDecoder::new(scenario.params)
        .try_decode_view(SlotView::known_len(
            &scenario.params,
            &scenario.samples,
            scenario.slot_start,
            payload_len,
        ))
        .unwrap()
}

#[test]
fn collision_pipeline_across_spreading_factors() {
    // The decoder must work across the SF range the experiments use
    // (SF7/SF8/SF10 — the rate-adaptation levels of Fig. 8(a–c)).
    for sf in [
        SpreadingFactor::Sf7,
        SpreadingFactor::Sf8,
        SpreadingFactor::Sf10,
    ] {
        let params = PhyParams {
            sf,
            ..PhyParams::default()
        };
        let scenario = ScenarioBuilder::new(params)
            .snrs_db(&[20.0, 16.0])
            .payload_len(8)
            .seed(17)
            .build();
        let out = decode(&scenario, 8);
        let ok = out.iter().filter(|d| d.payload_ok()).count();
        assert_eq!(ok, 2, "{sf:?}: {ok}/2 decoded");
        // Payloads must match ground truth exactly.
        for u in &scenario.users {
            assert!(
                out.iter().any(|d| d
                    .frame
                    .as_ref()
                    .map(|f| f.payload == u.payload)
                    .unwrap_or(false)),
                "{sf:?}: payload missing"
            );
        }
    }
}

#[test]
fn topology_drives_realistic_snrs() {
    // Nodes placed by the urban topology land at SNRs the decoder handles,
    // and the whole chain (placement → link budget → collision → decode)
    // holds together.
    let topo = Topology::cmu_campus(3);
    let params = PhyParams::default();
    let locations = topo.random_locations(40);
    // Pick two in-range nodes.
    let in_range: Vec<f64> = locations
        .iter()
        .map(|&l| topo.snr_db(l, &params))
        .filter(|&s| s > 5.0 && s < 30.0)
        .take(2)
        .collect();
    assert_eq!(in_range.len(), 2, "topology yields in-range nodes");
    let scenario = ScenarioBuilder::new(params)
        .snrs_db(&in_range)
        .payload_len(10)
        .seed(23)
        .build();
    let ok = decode(&scenario, 10)
        .iter()
        .filter(|d| d.payload_ok())
        .count();
    assert_eq!(ok, 2);
}

#[test]
fn near_far_with_fading_channel() {
    use choir::channel::fading::Fading;
    let params = PhyParams::default();
    let scenario = ScenarioBuilder::new(params)
        .snrs_db(&[28.0, 8.0])
        .payload_len(6)
        .fading(Fading::Rician { k: 8.0 })
        .seed(31)
        .build();
    let ok = decode(&scenario, 6)
        .iter()
        .filter(|d| d.payload_ok())
        .count();
    assert_eq!(ok, 2, "near-far under Rician fading");
}

#[test]
fn standard_lora_receiver_fails_where_choir_succeeds() {
    // The motivating comparison: the same collision is a total loss for
    // the standard single-user receiver but fully decodable by Choir.
    let params = PhyParams::default();
    let scenario = ScenarioBuilder::new(params)
        .snrs_db(&[18.0, 17.0])
        .payload_len(8)
        // Seed chosen so the collision's CFO/timing draws defeat the plain
        // receiver; with near-equal powers some draws let it capture the
        // stronger user. Seeds are tied to choir-rand's xoshiro stream.
        .seed(41)
        .build();
    let modem = Modem::new(params);
    let standard =
        choir::phy::detect::decode_packet(&scenario.samples, &modem, scenario.slot_start, 100);
    let standard_ok = standard
        .map(|f| f.crc_ok && scenario.users.iter().any(|u| u.payload == f.payload))
        .unwrap_or(false);
    let choir_ok = decode(&scenario, 8)
        .iter()
        .filter(|d| d.payload_ok())
        .count();
    assert_eq!(choir_ok, 2);
    assert!(
        !standard_ok,
        "a plain LoRa receiver should not survive a same-SF collision"
    );
}

#[test]
fn team_beyond_range_full_chain() {
    // Sensor field → spliced chunks → team transmission below the noise
    // floor → detection + joint decode → reconstructed coarse reading.
    use choir::sensors::splice;
    let params = PhyParams::default();
    let q = Quantizer::temperature();
    let reading = 19.4;
    let code = splice::quantize(reading, q.lo, q.hi, q.bits);
    let payload = splice::splice(code, q.bits, q.chunk_bits);

    let scenario = ScenarioBuilder::new(params)
        .snrs_db(&[-14.0; 12])
        .shared_payload(payload.clone())
        // Seed tied to choir-rand's xoshiro stream (noise draws at −14 dB).
        .seed(55)
        .build();
    let team = TeamDecoder::new(params);
    let (_, frame) = team
        .decode(
            &scenario.samples,
            scenario.slot_start,
            scenario.slot_start + 1,
            payload.len(),
        )
        .expect("team detected");
    let frame = frame.expect("frame decoded");
    assert!(frame.crc_ok);
    let chunks: Vec<Option<u8>> = frame.payload.iter().map(|&c| Some(c)).collect();
    let rec = splice::dequantize(
        splice::reassemble(&chunks, q.bits, q.chunk_bits),
        q.lo,
        q.hi,
        q.bits,
    );
    assert!((rec - reading).abs() < 0.02, "reconstructed {rec}");
}

#[test]
fn mac_simulation_over_iq_phy() {
    // A short saturated-uplink run where every Choir slot is decided by
    // the real IQ decoder — the highest-fidelity network simulation.
    use choir::mac::IqChoirPhy;
    let params = PhyParams::default();
    let cfg = SimConfig {
        params,
        payload_len: 6,
        num_nodes: 3,
        slots: 4,
        snr_range_db: (14.0, 22.0),
        beacon_overhead_s: 0.01,
        seed: 61,
    };
    let mut phy = IqChoirPhy::new(params, 61);
    let m = run_sim(MacScheme::Choir, &cfg, &mut phy);
    // 4 slots × 3 users: expect the vast majority delivered.
    assert!(m.delivered >= 10, "delivered {}", m.delivered);
    assert!(m.throughput_bps > 0.0);
}
