//! Quickstart: two LoRa clients collide on the same spreading factor and
//! a single-antenna base station decodes both — the paper's headline
//! capability, end to end, in ~40 lines.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

// Example binary: unwraps keep the demo readable; a panic is acceptable UX.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use choir::prelude::*;

fn main() {
    // Two clients somewhere in the urban testbed, both answering the same
    // beacon slot. Their cheap oscillators give them distinct frequency
    // and timing offsets — the imperfection Choir turns into a feature.
    let params = PhyParams::default(); // SF8, 125 kHz, CR 4/8
    let scenario = ScenarioBuilder::new(params)
        .snrs_db(&[20.0, 15.0])
        .payload_len(16)
        .oscillator(OscillatorModel::default())
        .seed(2017)
        .build();

    println!("transmitted:");
    for (i, u) in scenario.users.iter().enumerate() {
        println!(
            "  client {i}: snr {:5.1} dB, cfo {:8.1} Hz, slot delay {:5.2} symbols, payload {:02x?}",
            u.snr_db,
            u.profile.cfo_hz,
            u.profile.timing_offset_symbols,
            u.payload
        );
    }

    // The standard LoRaWAN gateway treats this collision as a loss
    // (footnote 1 of the paper). Choir disentangles it:
    let decoder = ChoirDecoder::new(params);
    let slot = SlotView::known_len(&params, &scenario.samples, scenario.slot_start, 16);
    let decoded = decoder.try_decode_view(slot).expect("slot decodes");

    println!("\ndecoded ({} users):", decoded.len());
    for d in &decoded {
        let frame = d.frame.as_ref().expect("frame");
        println!(
            "  offset {:7.2} bins (frac {:4.2}), timing {:6.2} chips, crc {}: {:02x?}",
            d.user.offset_bins, d.user.frac, d.user.timing_chips, frame.crc_ok, frame.payload
        );
    }

    let ok = decoded.iter().filter(|d| d.payload_ok()).count();
    assert_eq!(ok, 2, "both clients should decode");
    println!("\nboth payloads recovered from a single collision ✔");
}
