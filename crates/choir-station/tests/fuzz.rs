//! Seeded fuzz battery: random byte-mangling of valid IQ streams pushed
//! through the full station pipeline. The properties are crash-freedom
//! and observability sanity — every metrics counter is monotone across
//! snapshots, the slot accounting identity holds at the end, and no
//! sample is silently un-counted. 256 cases; a failing case prints its
//! `CHOIR_FUZZ_SEED=` line for single-case replay (see
//! `proptest::fuzz::run_cases`).

use choir_channel::impairments::HardwareProfile;
use choir_channel::scenario::ScenarioBuilder;
use choir_dsp::complex::{c64, C64};
use choir_pool::ThreadPool;
use choir_station::{SlotSchedule, Station, StationConfig, StationMetrics};
use lora_phy::params::{PhyParams, SpreadingFactor};
use proptest::fuzz;
use rand::rngs::StdRng;
use rand::Rng;

const PAYLOAD_LEN: usize = 4;

/// SF7 keeps each decode cheap enough for 256 full-pipeline cases.
fn params() -> PhyParams {
    PhyParams {
        sf: SpreadingFactor::Sf7,
        ..PhyParams::default()
    }
}

fn profile(cfo_bins: f64, toff_symbols: f64) -> HardwareProfile {
    let bin_hz = 125e3 / 128.0;
    HardwareProfile {
        cfo_hz: cfo_bins * bin_hz,
        timing_offset_symbols: toff_symbols,
        phase: 1.0,
        cfo_jitter_hz: 0.0,
        timing_jitter_symbols: 0.0,
    }
}

/// A valid two-slot stream plus its slot boundaries — the clean substrate
/// every case mangles.
fn base_stream() -> (Vec<C64>, Vec<u64>) {
    let mut stream = Vec::new();
    let mut starts = Vec::new();
    for (seed, gap) in [(91u64, 700usize), (92, 333)] {
        let s = ScenarioBuilder::new(params())
            .snrs_db(&[20.0, 17.0])
            .payload_len(PAYLOAD_LEN)
            .profiles(vec![profile(1.8, 0.12), profile(-5.4, 0.31)])
            .seed(seed)
            .build();
        stream.resize(stream.len() + gap, C64::ZERO);
        starts.push((stream.len() + s.slot_start) as u64);
        stream.extend_from_slice(&s.samples);
    }
    (stream, starts)
}

/// Applies 1..=6 random mangling operations: f64 bit-flips (which can
/// produce NaN/Inf — the station's ingest sanitizer must absorb them),
/// zeroed ranges, truncation, and duplicated spans.
fn mangle(stream: &mut Vec<C64>, rng: &mut StdRng) {
    let ops = rng.gen_range(1..=6u32);
    for _ in 0..ops {
        if stream.is_empty() {
            return;
        }
        match rng.gen_range(0..4u32) {
            0 => {
                // Bit-flip one component of one sample.
                let i = rng.gen_range(0..stream.len());
                let mask = 1u64 << rng.gen_range(0..64u32);
                let z = stream[i];
                stream[i] = if rng.gen::<bool>() {
                    c64(f64::from_bits(z.re.to_bits() ^ mask), z.im)
                } else {
                    c64(z.re, f64::from_bits(z.im.to_bits() ^ mask))
                };
            }
            1 => {
                // Zero a range (dropped AGC, squelch glitch).
                let lo = rng.gen_range(0..stream.len());
                let len = rng.gen_range(1..512usize).min(stream.len() - lo);
                for z in &mut stream[lo..lo + len] {
                    *z = C64::ZERO;
                }
            }
            2 => {
                // Truncate the tail.
                let keep = rng.gen_range(1..=stream.len());
                stream.truncate(keep);
            }
            _ => {
                // Duplicate a span in place (stuck DMA buffer).
                let lo = rng.gen_range(0..stream.len());
                let len = rng.gen_range(1..256usize).min(stream.len() - lo);
                let span: Vec<C64> = stream[lo..lo + len].to_vec();
                let at = rng.gen_range(0..stream.len() - len + 1);
                stream[at..at + len].copy_from_slice(&span);
            }
        }
    }
}

#[test]
fn station_survives_mangled_streams() {
    let (clean, starts) = base_stream();
    fuzz::run_cases("station_fuzz", 256, |_seed, rng| {
        let mut stream = clean.clone();
        mangle(&mut stream, rng);

        let mut cfg = StationConfig::known_len(params(), PAYLOAD_LEN);
        // Shrink the runtime's budgets sometimes so overload and ring
        // overrun paths get fuzzed too, not just the happy path.
        cfg.max_in_flight = rng.gen_range(1..=8usize);
        cfg.pressure_watermark = rng.gen_range(1..=4usize);
        if rng.gen::<bool>() {
            cfg.ring_capacity = cfg.capture_len() * rng.gen_range(1..=3usize);
        }
        let schedule = if rng.gen_range(0..4u32) == 0 {
            SlotSchedule::FreeRunning
        } else {
            SlotSchedule::Explicit(starts.clone())
        };
        let mut st = Station::new(cfg, schedule).with_pool(ThreadPool::sequential());

        let mut pushed = 0u64;
        let mut prev = StationMetrics::default();
        let mut at = 0;
        while at < stream.len() {
            let len = rng.gen_range(1..2048usize).min(stream.len() - at);
            st.push_chunk(&stream[at..at + len]);
            pushed += len as u64;
            at += len;
            if rng.gen::<bool>() {
                st.service();
            }
            let now = *st.metrics();
            assert!(
                now.monotone_since(&prev),
                "counters went backwards: {prev:?} → {now:?}"
            );
            prev = now;
        }
        let report = st.finish();
        assert!(
            report.metrics.monotone_since(&prev),
            "finish() rolled a counter back: {prev:?} → {:?}",
            report.metrics
        );
        assert_eq!(report.metrics.samples_ingested, pushed);
        assert_eq!(report.metrics.queue_depth, 0);
        assert!(
            report.metrics.slots_accounted(),
            "slot leak: {:?}",
            report.metrics
        );
        // finish() flushes the tracker, so every born hypothesis must have
        // reached exactly one terminal transition — even on mangled input.
        assert!(
            report.metrics.hypotheses_accounted(),
            "hypothesis leak: {:?}",
            report.metrics
        );
        assert_eq!(report.metrics.slots_shed, report.shed.len() as u64);
    });
}
