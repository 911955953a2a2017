//! `paced_mix` — unslotted traffic through a free-running `Station`,
//! open loop at 1.0× the sample clock.
//!
//! The only workload with queueing, the multi-hypothesis tracker,
//! overlapped views and lone frames. Latency runs from the moment a chunk
//! was *due*, so the wait a blocking `service()` imposes on later chunks
//! counts. A lone-frame fast path or a pipelined station shows here and
//! must show nothing on `slotted_2u` or `dense_5u`; at 1.0× pace `rtf` is
//! the head-room (air seconds per busy second), not the pace.

use choir_dsp::complex::C64;
use choir_pool::ThreadPool;
use choir_station::{SlotSchedule, Station, StationConfig};
use lora_phy::params::PhyParams;

use super::{
    judge_delivery, judge_station, judge_station_accounting, latency_metrics, oracle_counters,
    set_up, station_layer_metrics, Job, TraceBook,
};
use crate::drive::{drive_samples, Driven, Pace};
use crate::gen::{paced_stream, PacedStream, CHUNK, PACED_PAYLOAD, WARM_UP_SEED};
use crate::layers::{self, cut_capture, Capture, KERNELS_RESERVE, REPLAY_CAPTURES};
use crate::oracle::Oracle;
use crate::report::{peak_rss_mb, Outcome};
use crate::spans::Spans;
use crate::stats::p50_p90;

fn config() -> StationConfig {
    StationConfig::known_len(PhyParams::default(), PACED_PAYLOAD)
}

fn station() -> Station {
    Station::new(config(), SlotSchedule::FreeRunning).with_pool(ThreadPool::sequential())
}

/// Streams `samples` closed loop through a fresh station.
fn stream_closed(samples: &[C64], spans: &mut Spans) -> Driven {
    drive_samples(station(), samples, Pace::Closed, spans)
}

/// Renders the stream, and decodes one second of warm-up traffic (the
/// same for every seed, so set-up is the same work in every run) through
/// a throwaway station: plans, tables and arenas exist before the clock
/// starts.
fn build(job: &Job) -> PacedStream {
    let stream = paced_stream(job.seed, job.seconds);
    let warm = paced_stream(WARM_UP_SEED, 1.0);
    std::hint::black_box(stream_closed(&warm.samples, &mut Spans::new(false)));
    stream
}

pub fn run(job: &Job) -> Outcome {
    if job.traced {
        run_traced(job)
    } else {
        run_untraced(job)
    }
}

fn run_untraced(job: &Job) -> Outcome {
    let mut out = job.outcome();
    let (stream, setup_s) = set_up(|| build(job));

    let driven = drive_samples(
        station(),
        &stream.samples,
        Pace::Open { rate: 1.0 },
        &mut Spans::new(false),
    );

    let mut oracle = Oracle::new();
    oracle.transmit(&stream.truth);
    let latencies = judge_station(&driven, &config(), &mut oracle);
    let metrics = &driven.report.metrics;
    out.attempted = metrics.slots_seen;
    out.failed = metrics.slots_shed;
    judge_station_accounting(metrics, &mut out);
    judge_delivery(&oracle, &mut out);
    if out.failed > 0 {
        out.faults.push(format!(
            "{} of {} slots shed at 1.0x pace",
            out.failed, out.attempted
        ));
    }

    out.measured.set("setup_s", setup_s);
    out.measured.set("rtf", driven.air_s / driven.busy_s);
    out.measured.set(
        "frame_delivery_ratio",
        oracle.delivered() as f64 / oracle.transmitted().max(1) as f64,
    );
    latency_metrics(&latencies, &mut out);
    if let Some(rss) = peak_rss_mb() {
        out.measured.set("peak_rss_mb", rss);
    }
    let (_, late_p90_ms) = p50_p90(&driven.late_s, 1e3);
    let late_max_ms = driven.late_s.iter().fold(0.0f64, |a, &b| a.max(b)) * 1e3;
    out.details
        .push(("loadgen.late_p90_ms", format!("{late_p90_ms:.3}")));
    out.details
        .push(("loadgen.late_max_ms", format!("{late_max_ms:.3}")));
    out.details
        .push(("air_seconds", format!("{:.3}", driven.air_s)));
    out.details
        .push(("busy_seconds", format!("{:.3}", driven.busy_s)));
    out.details
        .push(("wall_seconds", format!("{:.3}", driven.wall_s)));
    out.details
        .push(("slots_shed", metrics.slots_shed.to_string()));
    out.details
        .push(("max_queue_depth", metrics.max_queue_depth.to_string()));
    out
}

fn run_traced(job: &Job) -> Outcome {
    let mut out = job.outcome();
    let (run_end, phase_end) = (job.deadline(1.0), job.deadline(0.7));
    let stream = build(job);
    let mut spans = Spans::new(true);
    let mut book = TraceBook::new();

    // The whole stream once, traced: counters, spans, the delivered set.
    let full = book.traced(|| {
        let driven = stream_closed(&stream.samples, &mut spans);
        let busy = driven.busy_s;
        (driven, busy)
    });

    // Quads over the head of the stream: passes of about half a second.
    let rtf = full.air_s / full.busy_s.max(1e-9);
    let head_len = ((0.5 * rtf * PhyParams::default().bw.hz()) as usize / CHUNK).max(8) * CHUNK;
    let head = stream
        .samples
        .get(..head_len.min(stream.samples.len()))
        .unwrap_or_default();
    book.quads_until(phase_end, |_, is_traced| {
        let mut quiet = Spans::new(false);
        stream_closed(head, if is_traced { &mut spans } else { &mut quiet }).busy_s
    });

    let mut oracle = Oracle::new();
    oracle.transmit(&stream.truth);
    judge_station(&full, &config(), &mut oracle);
    judge_station_accounting(&full.report.metrics, &mut out);
    judge_delivery(&oracle, &mut out);
    out.attempted = full.report.metrics.slots_seen;
    out.failed = full.report.metrics.slots_shed;

    let params = PhyParams::default();
    let captures: Vec<Capture> = full
        .report
        .slots
        .iter()
        .filter_map(|s| cut_capture(&stream.samples, s.slot_start, &params, PACED_PAYLOAD))
        .take(REPLAY_CAPTURES)
        .collect();
    let truth_frames = stream.truth.len() as u64;

    let m = &mut out.measured;
    oracle_counters(&oracle, m);
    station_layer_metrics(&[&full], &full.report.metrics, truth_frames, m);
    m.set("station.closed_loop_rtf", rtf);
    layers::scan_stream(&stream.samples, m, &mut spans);
    layers::idle_ingest(job.seed, m, &mut spans);
    layers::replay_captures(&captures, run_end - KERNELS_RESERVE, m, &mut spans);
    layers::kernels(m, &mut spans);
    book.record(&spans, m);
    job.dump_spans(&spans);
    out.details
        .push(("air_seconds", format!("{:.3}", full.air_s)));
    out.details.push((
        "quad_air_seconds",
        format!("{:.3}", head.len() as f64 / params.bw.hz()),
    ));
    out.details.push(("quads", book.quads().to_string()));
    out.details.push(("quad_busy_s", book.quad_times()));
    out
}
