//! Adversarial input suite: the station must survive hostile streams —
//! truncation, silence, saturation, non-finite garbage, pathological
//! chunking — without panicking in any build profile; non-finite samples
//! are a typed error, never a sanitizer trip.

use choir_channel::impairments::HardwareProfile;
use choir_channel::scenario::{CollisionScenario, ScenarioBuilder};
use choir_core::error::DecodeError;
use choir_core::{ChoirDecoder, SlotView};
use choir_dsp::complex::{c64, C64};
use choir_pool::ThreadPool;
use choir_station::{SlotSchedule, Station, StationConfig};
use lora_phy::params::PhyParams;

const PAYLOAD_LEN: usize = 6;

fn params() -> PhyParams {
    PhyParams::default() // SF8: n = 256, slot boundary at 512
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

fn two_user_scenario(seed: u64) -> CollisionScenario {
    ScenarioBuilder::new(params())
        .snrs_db(&[20.0, 17.0])
        .payload_len(PAYLOAD_LEN)
        .profiles(vec![profile(2.3, 0.1), profile(-7.6, 0.32)])
        .seed(seed)
        .build()
}

fn station(cfg: StationConfig, slot_starts: Vec<u64>) -> Station {
    Station::new(cfg, SlotSchedule::Explicit(slot_starts)).with_pool(ThreadPool::sequential())
}

/// A stream that ends mid-slot must surface as a decoded slot carrying a
/// typed `TruncatedSlot` error — never a panic, never a hang.
#[test]
fn truncated_final_chunk_is_a_typed_error() {
    let s = two_user_scenario(41);
    // Cut deep into the data symbols (well past the 4-symbol tail slack).
    let cut = s.samples.len() - s.samples.len() / 3;
    let cfg = StationConfig::known_len(s.params, PAYLOAD_LEN);
    let mut st = station(cfg, vec![s.slot_start as u64]);
    st.push_chunk(&s.samples[..cut]);
    let report = st.finish();
    assert_eq!(report.slots.len(), 1);
    assert!(
        matches!(
            report.slots[0].result.error,
            Some(DecodeError::TruncatedSlot { .. })
        ),
        "expected TruncatedSlot, got {:?}",
        report.slots[0].result.error
    );
    assert_eq!(report.metrics.decode_errors, 1);
    assert!(report.metrics.slots_accounted());
    assert!(report.shed.is_empty());
}

/// All-silence input: every scheduled slot is gated out by the occupancy
/// check — zero decodes, zero triggers, zero shed.
#[test]
fn all_zero_stream_is_gated_empty() {
    let cfg = StationConfig::known_len(params(), PAYLOAD_LEN);
    let mut st = Station::new(
        cfg,
        SlotSchedule::Periodic {
            first: 512,
            period: 4096,
        },
    )
    .with_pool(ThreadPool::sequential());
    for _ in 0..8 {
        st.push_chunk(&vec![C64::ZERO; 2048]);
        st.service();
    }
    let report = st.finish();
    assert!(report.metrics.slots_seen >= 3, "{:?}", report.metrics);
    assert_eq!(report.metrics.slots_empty, report.metrics.slots_seen);
    assert_eq!(report.metrics.slots_decoded, 0);
    assert_eq!(report.metrics.detector_triggers, 0);
    assert!(report.shed.is_empty());
    assert!(report.metrics.slots_accounted());
}

/// DC-saturated input (an overdriven front end) with the occupancy gate
/// forced open: the decoder may fail or find phantom components, but it
/// must return typed results with zero CRC passes — and never panic.
#[test]
fn dc_saturated_stream_never_panics() {
    let mut cfg = StationConfig::known_len(params(), PAYLOAD_LEN);
    cfg.detect_threshold = 0.0; // force every slot through the decoder
    let period = cfg.capture_len() as u64;
    let mut st = Station::new(cfg, SlotSchedule::Periodic { first: 512, period })
        .with_pool(ThreadPool::sequential());
    for _ in 0..6 {
        st.push_chunk(&vec![c64(1.0e3, -1.0e3); 4096]);
        st.service();
    }
    let report = st.finish();
    assert!(report.metrics.slots_decoded >= 2, "{:?}", report.metrics);
    assert_eq!(report.metrics.users_crc_ok, 0, "CRC passed on DC garbage");
    assert!(report.metrics.slots_accounted());
}

/// Two frames back to back with silence around them; returns the stream
/// and each frame's slot boundary.
fn two_frame_stream() -> (Vec<C64>, [u64; 2]) {
    let mut stream = vec![C64::ZERO; 1000];
    let mut starts = [0u64; 2];
    for (k, seed) in [42u64, 46].into_iter().enumerate() {
        let s = two_user_scenario(seed);
        starts[k] = (stream.len() + s.slot_start) as u64;
        stream.extend_from_slice(&s.samples);
        stream.extend(std::iter::repeat_n(C64::ZERO, 3000));
    }
    (stream, starts)
}

fn run_chunked(stream: &[C64], schedule: SlotSchedule) -> choir_station::StationReport {
    let cfg = StationConfig::known_len(params(), PAYLOAD_LEN);
    let mut st = Station::new(cfg, schedule).with_pool(ThreadPool::sequential());
    for chunk in stream.chunks(777) {
        st.push_chunk(chunk);
        st.service();
    }
    st.finish()
}

/// A NaN and an Inf in the first frame's data region (the preamble stays
/// clean so the occupancy gate and the detector both pass, as with a real
/// mid-packet glitch) make that capture exactly one typed
/// `NonFiniteInput` with matching counts — in every build profile, with
/// no sanitizer trip inside `push_chunk` — while the clean frame beside
/// it decodes bit-identically to the uncorrupted run.
fn non_finite_is_one_typed_error(schedule: impl Fn(&[u64; 2]) -> SlotSchedule) {
    let (clean, starts) = two_frame_stream();
    let n = params().samples_per_symbol();
    let data_at = starts[0] as usize + (params().preamble_len + 3) * n;
    let mut corrupt = clean.clone();
    corrupt[data_at] = c64(f64::NAN, 0.0);
    corrupt[data_at + n] = c64(f64::INFINITY, -1.0);

    let reference = run_chunked(&clean, schedule(&starts));
    let report = run_chunked(&corrupt, schedule(&starts));
    assert_eq!(reference.slots.len(), 2, "{:?}", reference.metrics);
    assert_eq!(report.slots.len(), 2, "{:?}", report.metrics);
    assert!(reference.slots[1].result.ok_users().count() >= 1);

    assert_eq!(
        report.slots[0].result.error,
        Some(DecodeError::NonFiniteInput { nan: 1, inf: 1 })
    );
    assert!(report.slots[0].result.users.is_empty());
    assert_eq!(report.metrics.decode_errors, 1);
    assert!(report.metrics.slots_accounted());

    let (got, want) = (&report.slots[1], &reference.slots[1]);
    assert_eq!(got.slot_start, want.slot_start);
    assert_eq!(got.result.error, want.result.error);
    assert_eq!(got.result.users.len(), want.result.users.len());
    for (a, b) in got.result.users.iter().zip(&want.result.users) {
        assert_eq!(a.user.offset_bins.to_bits(), b.user.offset_bins.to_bits());
        assert_eq!(a.symbols, b.symbols);
        assert_eq!(a.frame, b.frame);
    }
}

#[test]
fn non_finite_is_one_typed_error_when_scheduled() {
    non_finite_is_one_typed_error(|starts| SlotSchedule::Explicit(starts.to_vec()));
}

#[test]
fn non_finite_is_one_typed_error_when_free_running() {
    non_finite_is_one_typed_error(|_| SlotSchedule::FreeRunning);
}

/// A preamble delivered across three chunk boundaries must reassemble to
/// the exact same capture — station output bit-identical to the batch
/// decode of the uncut buffer.
#[test]
fn preamble_split_across_three_chunk_boundaries() {
    let s = two_user_scenario(43);
    let n = s.params.samples_per_symbol();
    // Preamble occupies [512, 512 + 8·256): split inside it three times.
    let cuts = [
        s.slot_start + n / 2,
        s.slot_start + 2 * n + 17,
        s.slot_start + 5 * n + 255,
    ];
    let cfg = StationConfig::known_len(s.params, PAYLOAD_LEN);
    let mut st = station(cfg, vec![s.slot_start as u64]);
    let mut at = 0;
    for &cut in &cuts {
        st.push_chunk(&s.samples[at..cut]);
        st.service();
        at = cut;
    }
    st.push_chunk(&s.samples[at..]);
    let report = st.finish();
    assert_eq!(report.slots.len(), 1);
    assert!(report.shed.is_empty());

    let dec = ChoirDecoder::new(s.params);
    let batch = dec
        .try_decode_view(SlotView::known_len(
            &s.params,
            &s.samples,
            s.slot_start,
            PAYLOAD_LEN,
        ))
        .expect("batch decode of the clean scenario");
    let streamed = &report.slots[0].result.users;
    assert_eq!(streamed.len(), batch.len());
    for (a, b) in streamed.iter().zip(&batch) {
        assert_eq!(a.user.offset_bins.to_bits(), b.user.offset_bins.to_bits());
        assert_eq!(a.symbols, b.symbols);
        assert_eq!(a.frame, b.frame);
    }
    assert!(
        batch
            .iter()
            .any(|u| u.frame.as_ref().is_some_and(|f| f.crc_ok)),
        "scenario should decode cleanly"
    );
}

/// Free-running mode: no beacon, packet at an arbitrary unaligned offset,
/// hostile chunking — the online detector must find it and the decoder
/// must still recover a CRC-clean user (robustness, not bit-identity:
/// the detector resolves the boundary to one symbol window).
#[test]
fn free_running_detects_unaligned_packet() {
    let s = two_user_scenario(44);
    let lead_silence = 1000; // deliberately not a multiple of n = 256
    let mut stream = vec![C64::ZERO; lead_silence];
    stream.extend_from_slice(&s.samples);
    stream.extend(std::iter::repeat_n(C64::ZERO, 600));

    let cfg = StationConfig::known_len(s.params, PAYLOAD_LEN);
    let mut st = Station::new(cfg, SlotSchedule::FreeRunning).with_pool(ThreadPool::sequential());
    let mut at = 0;
    let mut len = 1usize;
    while at < stream.len() {
        let take = len.min(stream.len() - at);
        st.push_chunk(&stream[at..at + take]);
        st.service();
        at += take;
        len = (len * 3 + 7) % 911 + 1; // scrambled, includes tiny chunks
    }
    let report = st.finish();
    assert_eq!(report.metrics.detector_triggers, 1, "{:?}", report.metrics);
    assert_eq!(report.slots.len(), 1);
    assert!(report.shed.is_empty());
    assert!(
        report.slots[0].result.ok_users().count() >= 1,
        "free-running decode found no CRC-clean user: {:?}",
        report.slots[0].result.error
    );
    assert!((report.metrics.false_trigger_rate() - 0.0).abs() < f64::EPSILON);
    assert!(report.metrics.slots_accounted());
}

/// Overload: a burst of back-to-back slots with a tiny in-flight budget
/// and no servicing must shed oldest-first, loudly, without blocking.
#[test]
fn overload_sheds_oldest_with_counted_events() {
    let s = two_user_scenario(45);
    let mut cfg = StationConfig::known_len(s.params, PAYLOAD_LEN);
    cfg.max_in_flight = 2;
    let mut starts = Vec::new();
    let mut stream = Vec::new();
    for _ in 0..5 {
        starts.push((stream.len() + s.slot_start) as u64);
        stream.extend_from_slice(&s.samples);
    }
    let mut st = station(cfg, starts.clone());
    st.push_chunk(&stream); // one giant chunk, no service() until the end
    let report = st.finish();
    assert_eq!(report.metrics.slots_seen, 5);
    assert_eq!(report.metrics.slots_shed, 3, "{:?}", report.metrics);
    // Drop-oldest: the shed slots are the three earliest boundaries.
    let shed_starts: Vec<u64> = report.shed.iter().map(|e| e.slot_start).collect();
    assert_eq!(shed_starts, starts[..3]);
    assert_eq!(report.slots.len(), 2);
    assert!(report.metrics.slots_accounted());
}

/// Regression: one huge `push_chunk` of a tone that hops bins every
/// window births and expires a hypothesis per window — more lifecycle
/// transitions inside one call than the tracker's bounded event queue
/// used to keep, so the station's own `hyp_*` tallies (fed from that
/// queue) lost `Born`s the tracker's counts still held: `born 2048,
/// expired 2051`, unaccounted. The station copies the tracker's counts
/// now; there is no queue to overflow.
#[test]
fn one_giant_chunk_keeps_hypothesis_accounting() {
    let symbols: Vec<u16> = (0..3000u32).map(|w| (w * 7 % 256) as u16).collect();
    let stream = lora_phy::modem::Modem::new(params()).modulate(&symbols);
    assert_eq!(stream.len(), 768_000);
    let cfg = StationConfig::known_len(params(), PAYLOAD_LEN);
    let mut st = Station::new(cfg, SlotSchedule::FreeRunning).with_pool(ThreadPool::sequential());
    st.push_chunk(&stream);
    st.service();
    let report = st.finish();
    let m = &report.metrics;
    assert!(
        m.hypotheses_accounted(),
        "born {} != confirmed {} + expired {} + merged {}",
        m.hyp_born,
        m.hyp_confirmed,
        m.hyp_expired,
        m.hyp_merged
    );
    assert!(
        m.hyp_expired > 2048,
        "the tone must churn hypotheses: {m:?}"
    );
}
