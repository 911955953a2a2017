//! Determinism property tests for the parallel batch-decode path: the
//! hard requirement of the choir-pool integration is that parallel
//! output is **bit-identical** to sequential output, regardless of
//! thread count. Every float is compared via `to_bits`, so even a
//! last-ulp divergence (e.g. from a reordered reduction) fails loudly.

use choir_channel::impairments::HardwareProfile;
use choir_channel::scenario::{CollisionScenario, ScenarioBuilder};
use choir_core::{ChoirConfig, ChoirDecoder, DecodedUser, SlotView};
use choir_pool::ThreadPool;
use lora_phy::params::PhyParams;

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

/// Eight seeded multi-user scenarios with varying user counts, SNRs and
/// hardware offsets — the workload `parallel_decode_matches_sequential`
/// compares across thread counts.
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

/// Field-by-field bit-exact comparison (`DecodedUser` carries floats, so
/// it deliberately has no `PartialEq`; exactness goes through `to_bits`).
fn assert_users_identical(a: &[DecodedUser], b: &[DecodedUser], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: user count diverged");
    for (k, (x, y)) in a.iter().zip(b).enumerate() {
        let ctx = format!("{ctx}, user {k}");
        assert_eq!(
            x.user.offset_bins.to_bits(),
            y.user.offset_bins.to_bits(),
            "{ctx}: offset_bins"
        );
        assert_eq!(x.user.frac.to_bits(), y.user.frac.to_bits(), "{ctx}: frac");
        assert_eq!(x.user.mag.to_bits(), y.user.mag.to_bits(), "{ctx}: mag");
        assert_eq!(
            x.user.channel.re.to_bits(),
            y.user.channel.re.to_bits(),
            "{ctx}: channel.re"
        );
        assert_eq!(
            x.user.channel.im.to_bits(),
            y.user.channel.im.to_bits(),
            "{ctx}: channel.im"
        );
        assert_eq!(
            x.user.phase_slope.map(f64::to_bits),
            y.user.phase_slope.map(f64::to_bits),
            "{ctx}: phase_slope"
        );
        assert_eq!(
            x.user.timing_chips.to_bits(),
            y.user.timing_chips.to_bits(),
            "{ctx}: timing_chips"
        );
        assert_eq!(x.user.support, y.user.support, "{ctx}: support");
        assert_eq!(x.symbols, y.symbols, "{ctx}: symbols");
        assert_eq!(x.sync_errors, y.sync_errors, "{ctx}: sync_errors");
        assert_eq!(x.erasures, y.erasures, "{ctx}: erasures");
        assert_eq!(x.frame, y.frame, "{ctx}: frame");
        assert_eq!(x.frame_error, y.frame_error, "{ctx}: frame_error");
    }
}

/// The acceptance property: batch decoding with N worker threads is
/// bit-identical to the sequential (threads = 1) decode, slot for slot,
/// user for user, float for float.
#[test]
fn parallel_decode_matches_sequential() {
    let slots = seeded_slots(6);
    let dec = ChoirDecoder::new(params());
    let baseline = dec.decode_slot_views_with_pool(&views(&slots, 6), ThreadPool::sequential());
    assert!(
        baseline.iter().any(|r| r.ok_users().count() >= 2),
        "workload too easy to be a meaningful determinism probe"
    );
    for threads in [2, 4, 7] {
        let parallel =
            dec.decode_slot_views_with_pool(&views(&slots, 6), ThreadPool::with_threads(threads));
        assert_eq!(baseline.len(), parallel.len());
        for (i, (s, p)) in baseline.iter().zip(&parallel).enumerate() {
            let ctx = format!("threads={threads}, slot {i}");
            assert_eq!(s.error, p.error, "{ctx}: error status diverged");
            assert_users_identical(&s.users, &p.users, &ctx);
        }
    }
}

/// Bit-exact golden pin of the 8 seeded scenarios against a captured
/// reference decode (`tests/golden_seeded.txt`). The offset-search rewrite
/// (scratch workspaces, cached bases, incremental Gram least-squares) is
/// required to leave the decoded streams *byte-for-byte* unchanged — every
/// estimate is compared via `to_bits`, every symbol and payload byte
/// exactly. The refine prefilter's candidate-block width must not show
/// either: the corpus is decoded at `block_width` 1, 2, 4 and 8 and every
/// width must render the same capture. Regenerate it after an intentional
/// numerics change:
///
/// `cargo run --release -p choir-core --example golden_dump > crates/choir-core/tests/golden_seeded.txt`
#[test]
fn seeded_scenarios_match_golden_capture() {
    use std::fmt::Write as _;
    const GOLDEN: &str = include_str!("golden_seeded.txt");
    let slots = seeded_slots(6);
    for block_width in [1, 2, 4, 8] {
        let mut cfg = ChoirConfig::default();
        cfg.estimator.block_width = block_width;
        let dec = ChoirDecoder::with_config(params(), cfg);
        let results = dec.decode_slot_views_with_pool(&views(&slots, 6), ThreadPool::sequential());
        let mut rendered = String::new();
        for (i, r) in results.iter().enumerate() {
            writeln!(
                rendered,
                "slot {i}: {} users, error={:?}",
                r.users.len(),
                r.error
            )
            .unwrap();
            for (j, u) in r.users.iter().enumerate() {
                writeln!(
                    rendered,
                    "  u{j} offset={:#018x} frac={:#018x} timing={:#018x}",
                    u.user.offset_bins.to_bits(),
                    u.user.frac.to_bits(),
                    u.user.timing_chips.to_bits()
                )
                .unwrap();
                writeln!(rendered, "  u{j} symbols={:?}", u.symbols).unwrap();
                match &u.frame {
                    Some(f) => writeln!(
                        rendered,
                        "  u{j} crc_ok={} payload={:?}",
                        f.crc_ok, f.payload
                    )
                    .unwrap(),
                    None => {
                        writeln!(rendered, "  u{j} frame=None err={:?}", u.frame_error).unwrap()
                    }
                }
            }
        }
        assert_eq!(
            rendered.trim_end(),
            GOLDEN.trim_end(),
            "block_width {block_width}: decoded streams diverged from the golden \
             capture — if the change is an intentional numerics change, regenerate \
             via the golden_dump example; otherwise this is a hot-path regression"
        );
    }
}
