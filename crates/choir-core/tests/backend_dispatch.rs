//! Cross-backend determinism: decoded bitstreams must be identical no
//! matter which DSP backend `choir_dsp::backend` dispatches to.
//!
//! The SIMD backends are built to a 0-ULP policy (no FMA, ordered
//! reductions, exact sign flips — see `choir_dsp::backend`), so forcing
//! each backend reported by `available()` over the eight seeded golden
//! scenarios must reproduce `tests/golden_seeded.txt` byte for byte:
//! same offsets, same symbols, same payloads, same CRC verdicts. Each
//! backend decodes on a fresh thread so per-thread caches (tone bases,
//! scratch arenas) cannot carry state between runs — they are
//! backend-independent by design, and this test would catch a violation
//! of that too.

use choir_channel::impairments::HardwareProfile;
use choir_channel::scenario::{CollisionScenario, ScenarioBuilder};
use choir_core::{ChoirDecoder, SlotView};
use choir_dsp::backend;
use choir_pool::ThreadPool;
use lora_phy::params::PhyParams;
use std::fmt::Write as _;

fn params() -> PhyParams {
    PhyParams::default() // SF8, 125 kHz, CR4/8
}

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

/// The same eight seeded multi-user scenarios `parallel.rs` pins against
/// the golden capture.
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
            ScenarioBuilder::new(params())
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

/// Decodes the golden workload with `kind` forced, on a fresh thread,
/// and renders the result in the golden-capture format. Returns the
/// join result so the caller (a test) surfaces any panic.
fn decode_with_backend(kind: backend::BackendKind) -> std::thread::Result<String> {
    let handle = std::thread::spawn(move || {
        backend::force(kind);
        let slots = seeded_slots(6);
        let dec = ChoirDecoder::new(params());
        let results = dec.decode_slot_views_with_pool(&views(&slots, 6), ThreadPool::sequential());
        let mut rendered = String::new();
        // Writing to a String is infallible.
        for (i, r) in results.iter().enumerate() {
            let _ = writeln!(
                rendered,
                "slot {i}: {} users, error={:?}",
                r.users.len(),
                r.error
            );
            for (j, u) in r.users.iter().enumerate() {
                let _ = writeln!(
                    rendered,
                    "  u{j} offset={:#018x} frac={:#018x} timing={:#018x}",
                    u.user.offset_bins.to_bits(),
                    u.user.frac.to_bits(),
                    u.user.timing_chips.to_bits()
                );
                let _ = writeln!(rendered, "  u{j} symbols={:?}", u.symbols);
                match &u.frame {
                    Some(f) => {
                        let _ = writeln!(
                            rendered,
                            "  u{j} crc_ok={} payload={:?}",
                            f.crc_ok, f.payload
                        );
                    }
                    None => {
                        let _ = writeln!(rendered, "  u{j} frame=None err={:?}", u.frame_error);
                    }
                }
            }
        }
        rendered
    });
    let rendered = handle.join();
    backend::reset();
    rendered
}

/// Every available backend — the scalar oracle, plus AVX2 where the
/// host has it — reproduces the committed golden capture exactly.
#[test]
fn golden_capture_identical_across_all_backends() {
    const GOLDEN: &str = include_str!("golden_seeded.txt");
    let kinds = backend::available();
    assert!(
        kinds.contains(&backend::BackendKind::Scalar),
        "the scalar oracle runs on every host"
    );
    for kind in kinds {
        let rendered = decode_with_backend(kind).expect("decode thread panicked");
        assert_eq!(
            rendered.trim_end(),
            GOLDEN.trim_end(),
            "decoded bitstream diverged from the golden capture under the \
             {} backend — a kernel broke the 0-ULP policy",
            kind.name()
        );
    }
}
