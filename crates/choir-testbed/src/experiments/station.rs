//! Streaming-runtime validation — not a paper figure, but the deployment
//! question the testbed must answer before any figure measured through
//! the station path can be trusted: does decoding a *stream* (chunked
//! ingest, ring residency, scheduled capture cutting, queued dispatch)
//! produce exactly what batch-decoding the same pre-cut slots does?
//!
//! The experiment synthesises a run of collision slots, decodes them
//! once through `ChoirDecoder` on pre-cut captures and once through a
//! `choir-station` `Station` fed the concatenated stream in awkward
//! chunks, and diffs the outputs user-by-user at bit level. The
//! `identical` series must be 1.0; anything less is a cutting or
//! dispatch bug, never acceptable tolerance.

use crate::report::{FigureReport, Series};
use choir_channel::impairments::HardwareProfile;
use choir_channel::scenario::ScenarioBuilder;
use choir_core::{ChoirDecoder, SlotView};
use choir_dsp::complex::C64;
use choir_station::{SlotSchedule, Station, StationConfig};
use lora_phy::params::PhyParams;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::Scale;

const PAYLOAD_LEN: usize = 6;

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

/// Runs the streaming-vs-batch diff over `trials` synthesised slots.
pub fn run(scale: Scale) -> FigureReport {
    let params = PhyParams::default();
    let slots = scale.trials(4, 16);
    let mut rng = StdRng::seed_from_u64(0x57A7);

    // Synthesise the slot run and its concatenated stream.
    let mut scenarios = Vec::new();
    let mut stream: Vec<C64> = Vec::new();
    let mut starts = Vec::new();
    for i in 0..slots {
        let users = 1 + (i % 3);
        let snrs: Vec<f64> = (0..users).map(|u| 20.0 - 2.0 * u as f64).collect();
        let profs: Vec<HardwareProfile> = (0..users)
            .map(|_| profile(rng.gen_range(-12.0..12.0), rng.gen_range(0.05..0.45)))
            .collect();
        let s = ScenarioBuilder::new(params)
            .snrs_db(&snrs)
            .payload_len(PAYLOAD_LEN)
            .profiles(profs)
            .seed(1000 + i as u64)
            .build();
        stream.resize(stream.len() + rng.gen_range(100..1500usize), C64::ZERO);
        starts.push((stream.len() + s.slot_start) as u64);
        stream.extend_from_slice(&s.samples);
        scenarios.push(s);
    }

    // Batch path: pre-cut captures straight into the decoder.
    let dec = ChoirDecoder::new(params);
    let batch: Vec<_> = scenarios
        .iter()
        .map(|s| {
            let slot = SlotView::known_len(&params, &s.samples, s.slot_start, PAYLOAD_LEN);
            dec.try_decode_view(slot).unwrap_or_default()
        })
        .collect();

    // Streaming path: same samples, chunked ingest through the station.
    let mut cfg = StationConfig::known_len(params, PAYLOAD_LEN);
    cfg.max_in_flight = slots.max(8);
    cfg.pressure_watermark = slots.max(8);
    let station = Station::new(cfg, SlotSchedule::Explicit(starts));
    let chunks: Vec<Vec<C64>> = stream.chunks(1234).map(|c| c.to_vec()).collect();
    let report_s = station.run(chunks);

    // Bit-level diff.
    let mut identical = report_s.slots.len() == batch.len();
    let (mut batch_ok, mut stream_ok) = (0usize, 0usize);
    for users in &batch {
        batch_ok += users
            .iter()
            .filter(|u| u.frame.as_ref().is_some_and(|f| f.crc_ok))
            .count();
    }
    for (slot, b) in report_s.slots.iter().zip(&batch) {
        let a = &slot.result.users;
        stream_ok += a
            .iter()
            .filter(|u| u.frame.as_ref().is_some_and(|f| f.crc_ok))
            .count();
        identical &= a.len() == b.len();
        for (x, y) in a.iter().zip(b) {
            identical &= x.user.offset_bins.to_bits() == y.user.offset_bins.to_bits()
                && x.symbols == y.symbols
                && x.frame == y.frame;
        }
    }

    let mut report = FigureReport::new(
        "station",
        "Streaming station vs batch decoder: bit-level output diff",
    );
    report.push_series(Series::from_labels(
        "paths agree",
        &[("identical", if identical { 1.0 } else { 0.0 })],
    ));
    report.push_series(Series::from_labels(
        "CRC-ok users",
        &[("batch", batch_ok as f64), ("streaming", stream_ok as f64)],
    ));
    report.push_series(Series::from_labels(
        "station health",
        &[
            ("slots shed", report_s.metrics.slots_shed as f64),
            ("samples dropped", report_s.metrics.samples_dropped as f64),
            ("false-trigger rate", report_s.metrics.false_trigger_rate()),
        ],
    ));
    report.note(format!(
        "{} slots streamed in 1234-sample chunks; metrics: {}",
        slots,
        report_s.metrics.to_json()
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_path_is_bit_identical() {
        let r = run(Scale::Quick);
        assert_eq!(r.value("paths agree", "identical"), Some(1.0));
        assert_eq!(
            r.value("CRC-ok users", "batch"),
            r.value("CRC-ok users", "streaming")
        );
        assert_eq!(r.value("station health", "slots shed"), Some(0.0));
        assert!(r.value("CRC-ok users", "batch").unwrap_or(0.0) >= 1.0);
    }
}
