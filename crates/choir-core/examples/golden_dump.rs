//! Prints the decoded output of the 8 seeded scenarios used by
//! `tests/parallel.rs`, in the exact format the golden regression test
//! pins. Re-run after an intentional numerics change to regenerate:
//!
//! `cargo run --release -p choir-core --example golden_dump`

use choir_channel::impairments::HardwareProfile;
use choir_channel::scenario::{CollisionScenario, ScenarioBuilder};
use choir_core::{ChoirDecoder, SlotView};
use choir_pool::ThreadPool;
use lora_phy::params::PhyParams;

fn profile(cfo_bins: f64, toff_symbols: f64) -> HardwareProfile {
    let bin_hz = 125e3 / 256.0;
    HardwareProfile {
        cfo_hz: cfo_bins * bin_hz,
        timing_offset_symbols: toff_symbols,
        phase: 1.0,
        cfo_jitter_hz: 0.0,
        timing_jitter_symbols: 0.0,
    }
}

fn seeded_slots(payload_len: usize) -> Vec<CollisionScenario> {
    type Scenario = (&'static [f64], &'static [(f64, f64)], u64);
    let configs: [Scenario; 8] = [
        (&[20.0, 17.0], &[(2.3, 0.1), (-7.6, 0.32)], 31),
        (&[19.0, 16.0], &[(6.4, 0.37), (-11.7, 0.43)], 32),
        (&[21.0, 15.0], &[(0.8, 0.05), (5.5, 0.21)], 33),
        (&[18.0, 18.0], &[(-3.2, 0.12), (9.1, 0.4)], 34),
        (
            &[20.0, 17.0, 14.0],
            &[(2.3, 0.1), (-7.6, 0.32), (12.4, 0.18)],
            35,
        ),
        (
            &[19.0, 18.0, 17.0],
            &[(4.4, 0.25), (-5.9, 0.07), (10.2, 0.33)],
            36,
        ),
        (&[22.0], &[(1.5, 0.2)], 37),
        (&[16.0, 16.0], &[(-9.3, 0.45), (7.7, 0.02)], 38),
    ];
    configs
        .iter()
        .map(|(snrs, profs, seed)| {
            ScenarioBuilder::new(PhyParams::default())
                .snrs_db(snrs)
                .payload_len(payload_len)
                .profiles(profs.iter().map(|&(c, t)| profile(c, t)).collect())
                .seed(*seed)
                .build()
        })
        .collect()
}

/// One known-length view over each scenario's capture.
fn views(slots: &[CollisionScenario], payload_len: usize) -> Vec<SlotView<'_>> {
    slots
        .iter()
        .map(|s| SlotView::known_len(&s.params, &s.samples, s.slot_start, payload_len))
        .collect()
}

fn main() {
    let slots = seeded_slots(6);
    let dec = ChoirDecoder::new(PhyParams::default());
    let results = dec.decode_slot_views_with_pool(&views(&slots, 6), ThreadPool::sequential());
    for (i, r) in results.iter().enumerate() {
        println!("slot {i}: {} users, error={:?}", r.users.len(), r.error);
        for (j, u) in r.users.iter().enumerate() {
            println!(
                "  u{j} offset={:#018x} frac={:#018x} timing={:#018x}",
                u.user.offset_bins.to_bits(),
                u.user.frac.to_bits(),
                u.user.timing_chips.to_bits()
            );
            println!("  u{j} symbols={:?}", u.symbols);
            match &u.frame {
                Some(f) => println!("  u{j} crc_ok={} payload={:?}", f.crc_ok, f.payload),
                None => println!("  u{j} frame=None err={:?}", u.frame_error),
            }
        }
    }
}
