//! `slotted_2u` — beacon-slotted two-user collisions streamed closed loop
//! through a `Station` with an explicit schedule at the true starts, one
//! `service()` per chunk, decode pool pinned to one thread.
//!
//! The ROADMAP's nominal leg ("≥1.0× real time on one core"). Refine and
//! demod do most of the work; detection, the pool and the city simulator
//! do none, so this is the workload a tracker, pool or city change must
//! leave flat.

use choir_dsp::complex::C64;
use choir_pool::ThreadPool;
use choir_station::{SlotSchedule, Station, StationConfig, StationMetrics};
use lora_phy::params::PhyParams;

use super::{
    add_counters, judge_delivery, judge_station, judge_station_accounting, latency_metrics,
    oracle_counters, set_up, station_layer_metrics, Job, TraceBook,
};
use crate::drive::{drive, drive_samples, Driven, Pace};
use crate::gen::{
    slot_capture_len, slotted_silence, slotted_starts, SlotGen, SlotKind, SlottedStream,
    TruthFrame, SLOT_PAYLOAD, WARM_UP_SEED,
};
use crate::layers::{self, Capture, KERNELS_RESERVE};
use crate::oracle::Oracle;
use crate::report::{peak_rss_mb, Outcome};
use crate::spans::Spans;

fn config() -> StationConfig {
    StationConfig::known_len(PhyParams::default(), SLOT_PAYLOAD)
}

fn station(starts: Vec<u64>) -> Station {
    Station::new(config(), SlotSchedule::Explicit(starts)).with_pool(ThreadPool::sequential())
}

/// Slots a set-up decodes before the clock starts.
const WARM_UP_SLOTS: usize = 2;

/// Streams the warm-up slots through a throwaway station: FFT plans,
/// chirp tables and thread-local arenas exist before the clock starts.
/// The same slots for every seed, so set-up is the same work in every run.
fn warm_up() {
    let mut stream = SlottedStream::new(WARM_UP_SEED);
    let starts = slotted_starts(&PhyParams::default(), 0, WARM_UP_SLOTS);
    let mut chunk = Vec::new();
    let mut st = station(starts);
    while stream.slots_rendered() <= WARM_UP_SLOTS {
        stream.next_chunk(&mut chunk);
        st.push_chunk(&chunk);
        st.service();
    }
    std::hint::black_box(st.finish());
}

/// Slots the schedule names ahead of time: more than any host decodes in
/// the run (the station only looks at the front of the list).
fn scheduled_slots(seconds: f64) -> usize {
    let params = PhyParams::default();
    let slot_air_s = slot_capture_len(&params, SLOT_PAYLOAD) as f64 / params.bw.hz();
    (16.0 * seconds / slot_air_s) as usize + 64
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
    let ((st, mut stream), setup_s) = set_up(|| {
        warm_up();
        let starts = slotted_starts(&PhyParams::default(), 0, scheduled_slots(job.seconds));
        (station(starts), SlottedStream::new(job.seed))
    });

    let driven = drive(
        st,
        |chunk, wind_down| {
            if wind_down {
                stream.rest(chunk)
            } else {
                stream.next_chunk(chunk);
                true
            }
        },
        Pace::Closed,
        Some(job.deadline(1.0)),
        &mut Spans::new(false),
    );

    let mut oracle = Oracle::new();
    oracle.transmit(&stream.truth);
    let latencies = judge_station(&driven, &config(), &mut oracle);
    let metrics = &driven.report.metrics;
    let slots = stream.slots_rendered() as u64;
    out.attempted = slots;
    out.failed = metrics.slots_shed + slots.saturating_sub(metrics.slots_seen);
    judge_station_accounting(metrics, &mut out);
    judge_delivery(&oracle, &mut out);
    if out.failed > 0 {
        out.faults.push(format!(
            "{} of {slots} slots shed or never seen",
            out.failed
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
    out.details.push(("slots", slots.to_string()));
    out.details
        .push(("air_seconds", format!("{:.3}", driven.air_s)));
    out.details
        .push(("busy_seconds", format!("{:.3}", driven.busy_s)));
    out.details
        .push(("slots_shed", metrics.slots_shed.to_string()));
    out
}

/// Slots per pass of a tracing quad: a pass of about half a second, so a
/// quad sees one stretch of ambient load and a run holds several quads.
const QUAD_SLOTS: usize = 4;

/// Consecutive slots of the workload, rendered once and streamed again in
/// each of a quad's four passes.
struct Block {
    stream: Vec<C64>,
    starts: Vec<u64>,
    truth: Vec<TruthFrame>,
    captures: Vec<Capture>,
}

fn render_block(gen: &mut SlotGen) -> Block {
    let first = gen.next_index();
    let mut stream: Vec<C64> = Vec::new();
    let (mut truth, mut captures) = (Vec::new(), Vec::new());
    for i in first..first + QUAD_SLOTS {
        let slot = gen.next_slot();
        stream.resize(stream.len() + slotted_silence(i), C64::ZERO);
        stream.extend_from_slice(&slot.samples);
        truth.extend(slot.frames);
        captures.push(Capture {
            samples: slot.samples,
            slot_start: slot.slot_start,
            num_data_symbols: config().num_data_symbols,
        });
    }
    Block {
        stream,
        starts: slotted_starts(&PhyParams::default(), first, QUAD_SLOTS),
        truth,
        captures,
    }
}

fn run_traced(job: &Job) -> Outcome {
    let mut out = job.outcome();
    let run_end = job.deadline(1.0);
    warm_up();

    // Quad `q` streams slots `4q .. 4q + 4` of the workload: other inputs
    // in each quad, the same ones in a quad's four passes.
    let mut gen = SlotGen::new(job.seed, SlotKind::TwoUser);
    let mut blocks: Vec<Block> = Vec::new();
    let mut spans = Spans::new(true);
    let mut book = TraceBook::new();
    let mut traced: Vec<Driven> = Vec::new();
    book.quads_until(job.deadline(0.6), |quad, is_traced| {
        if blocks.len() <= quad {
            blocks.push(render_block(&mut gen));
        }
        let Some(block) = blocks.get(quad) else {
            return 0.0;
        };
        let mut quiet = Spans::new(false);
        let driven = drive_samples(
            station(block.starts.clone()),
            &block.stream,
            Pace::Closed,
            if is_traced { &mut spans } else { &mut quiet },
        );
        let busy = driven.busy_s;
        if is_traced {
            traced.push(driven);
        }
        busy
    });

    let mut oracle = Oracle::new();
    let mut counters = StationMetrics::default();
    for block in &blocks {
        oracle.transmit(&block.truth);
    }
    for (i, d) in traced.iter().enumerate() {
        add_counters(&mut counters, &d.report.metrics);
        judge_station_accounting(&d.report.metrics, &mut out);
        // A quad's two traced passes decode the same slots: the oracle
        // hears the first.
        if i % 2 == 0 {
            judge_station(d, &config(), &mut oracle);
        }
    }
    judge_delivery(&oracle, &mut out);
    out.attempted = (traced.len() * QUAD_SLOTS) as u64;
    out.failed = counters.slots_shed + out.attempted.saturating_sub(counters.slots_seen);

    let m = &mut out.measured;
    oracle_counters(&oracle, m);
    let refs: Vec<&Driven> = traced.iter().collect();
    station_layer_metrics(&refs, &counters, 2 * oracle.transmitted(), m);
    let air_s: f64 = traced.iter().map(|d| d.air_s).sum();
    m.set("station.closed_loop_rtf", air_s / book.untraced_busy_s());
    layers::idle_ingest(job.seed, m, &mut spans);
    let captures: Vec<Capture> = blocks.into_iter().flat_map(|b| b.captures).collect();
    layers::replay_captures(&captures, run_end - KERNELS_RESERVE, m, &mut spans);
    layers::kernels(m, &mut spans);
    book.record(&spans, m);
    job.dump_spans(&spans);
    out.details.push(("quads", book.quads().to_string()));
    out.details.push(("quad_busy_s", book.quad_times()));
    out
}
