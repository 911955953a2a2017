//! Streaming ↔ batch equivalence: the acceptance property of the station.
//!
//! The eight seeded golden scenarios (the same configurations pinned by
//! `choir-core/tests/golden_seeded.txt`) are concatenated into one
//! continuous IQ stream with random inter-slot silence, fed to the
//! station in random chunks of 1..4096 samples, and the decoded output is
//! required to be **bit-identical** — every float compared via `to_bits`
//! — to `decode_slot_views_with_pool` over the pre-cut captures, at 1 and
//! at 4 worker threads. This holds because scheduled-mode capture cutting
//! is sample-exact and `try_decode_view` is a pure function of the capture.

use choir_channel::impairments::HardwareProfile;
use choir_channel::scenario::{CollisionScenario, ScenarioBuilder};
use choir_core::{ChoirDecoder, DecodedUser, SlotView};
use choir_dsp::complex::C64;
use choir_pool::ThreadPool;
use choir_station::{SlotSchedule, Station, StationConfig};
use lora_phy::params::PhyParams;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const PAYLOAD_LEN: usize = 6;

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

/// The eight seeded scenarios from `choir-core/tests/parallel.rs`,
/// verbatim — the stream version of the golden workload.
fn seeded_scenarios() -> Vec<CollisionScenario> {
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
                .payload_len(PAYLOAD_LEN)
                .profiles(profs.iter().map(|&(c, t)| profile(c, t)).collect())
                .seed(*seed)
                .build()
        })
        .collect()
}

/// Concatenates the scenarios into one stream with random silence gaps,
/// returning the stream and each slot's absolute boundary sample.
fn build_stream(scenarios: &[CollisionScenario], rng: &mut StdRng) -> (Vec<C64>, Vec<u64>) {
    let mut stream = Vec::new();
    let mut slot_starts = Vec::new();
    for s in scenarios {
        let gap = rng.gen_range(0..3000usize);
        stream.resize(stream.len() + gap, C64::ZERO);
        slot_starts.push((stream.len() + s.slot_start) as u64);
        stream.extend_from_slice(&s.samples);
    }
    // Trailing silence: end-of-stream must not matter for full captures.
    stream.resize(stream.len() + rng.gen_range(0..2000usize), C64::ZERO);
    (stream, slot_starts)
}

/// Splits the stream into random chunks of 1..4096 samples, with every
/// fifth chunk forced tiny so single-sample and sub-window deliveries are
/// always exercised alongside multi-slot ones.
fn chunked(stream: &[C64], rng: &mut StdRng) -> Vec<Vec<C64>> {
    let mut chunks = Vec::new();
    let mut at = 0;
    while at < stream.len() {
        let len = if chunks.len() % 5 == 0 {
            rng.gen_range(1..32usize)
        } else {
            rng.gen_range(32..4096usize)
        };
        let len = len.min(stream.len() - at);
        chunks.push(stream[at..at + len].to_vec());
        at += len;
    }
    chunks
}

/// Field-by-field bit-exact comparison, as in `choir-core/tests/parallel.rs`
/// (`DecodedUser` deliberately has no `PartialEq`; floats go via `to_bits`).
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

#[test]
fn streaming_matches_batch_bit_identically() {
    let scenarios = seeded_scenarios();
    let batch_slots: Vec<SlotView<'_>> = scenarios
        .iter()
        .map(|s| SlotView::known_len(&s.params, &s.samples, s.slot_start, PAYLOAD_LEN))
        .collect();
    let dec = ChoirDecoder::new(params());

    for (threads, chunk_seed) in [(1usize, 0xA11CEu64), (4, 0xB0B5)] {
        let pool = ThreadPool::with_threads(threads);
        let batch = dec.decode_slot_views_with_pool(&batch_slots, pool);
        assert!(
            batch.iter().any(|r| r.ok_users().count() >= 2),
            "workload too easy to be a meaningful equivalence probe"
        );

        let mut rng = StdRng::seed_from_u64(chunk_seed);
        let (stream, slot_starts) = build_stream(&scenarios, &mut rng);
        let chunks = chunked(&stream, &mut rng);
        assert!(
            chunks.iter().any(|c| c.len() < 32) && chunks.iter().any(|c| c.len() > 2048),
            "chunking must actually exercise small and large chunks"
        );

        let mut cfg = StationConfig::known_len(params(), PAYLOAD_LEN);
        // Equivalence is about cutting, not shedding: make overload
        // impossible so every slot flows through the nominal path.
        cfg.max_in_flight = 64;
        cfg.pressure_watermark = 64;
        let station =
            Station::new(cfg, SlotSchedule::Explicit(slot_starts.clone())).with_pool(pool);
        let report = station.run(chunks);

        let ctx = format!("threads={threads}");
        assert!(report.shed.is_empty(), "{ctx}: nominal stream shed slots");
        assert_eq!(report.metrics.samples_dropped, 0, "{ctx}: ring overflowed");
        assert_eq!(report.slots.len(), batch.len(), "{ctx}: slot count");
        assert!(report.metrics.slots_accounted(), "{ctx}: slot accounting");
        for ((slot, batch_result), &start) in report.slots.iter().zip(&batch).zip(&slot_starts) {
            let ctx = format!("{ctx}, slot at {start}");
            assert_eq!(slot.slot_start, start, "{ctx}: boundary");
            assert!(!slot.degraded, "{ctx}: decoded degraded under no load");
            assert_eq!(slot.result.error, batch_result.error, "{ctx}: error status");
            assert_users_identical(&slot.result.users, &batch_result.users, &ctx);
        }
    }
}
