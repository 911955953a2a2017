//! `dense_5u` — five-user near-far slots through the batch API
//! `ChoirDecoder::decode_slot_views_with_pool`, four views per call.
//!
//! The same estimator, SIC and cluster layers as `slotted_2u` used
//! differently: order-5 Gram solves and multi-phase SIC instead of order
//! ≤2, batch instead of streaming. A gain for K ≤ 2 that costs K = 5 (or
//! the reverse) shows as a split between the two. The end-to-end run
//! decodes on one worker like every workload; the traced run is where
//! `choir-pool` is measured, one batch on one worker and on the pool in
//! turn (`pool.parallel_efficiency`).

use std::time::Instant;

use choir_core::decoder::{ChoirDecoder, SlotResult, SlotView};
use choir_pool::ThreadPool;
use lora_phy::params::PhyParams;

use super::{judge_delivery, latency_metrics, oracle_counters, set_up, Job, TraceBook};
use crate::gen::{Slot, SlotGen, SlotKind, SLOT_PAYLOAD, WARM_UP_SEED};
use crate::layers::{self, Capture, KERNELS_RESERVE};
use crate::oracle::{Oracle, Verdict};
use crate::report::{host_cores, peak_rss_mb, pool_threads, Outcome, PARALLEL_EFFICIENCY};
use crate::spans::Spans;

/// Views per `decode_slot_views_with_pool` call: two per worker when the
/// two-thread pool is probed, and a call short enough that a run holds
/// a dozen and a half.
const BATCH: usize = 4;

fn data_symbols() -> usize {
    lora_phy::frame::frame_symbol_count(&PhyParams::default(), SLOT_PAYLOAD)
}

/// Decodes `slots` in one timed batch call.
fn decode(
    dec: &ChoirDecoder,
    slots: &[Slot],
    pool: ThreadPool,
    spans: &mut Spans,
    item: u64,
) -> (Vec<SlotResult>, f64) {
    let nds = data_symbols();
    let views: Vec<SlotView<'_>> = slots
        .iter()
        .map(|s| SlotView::new(&s.samples, s.slot_start, nds))
        .collect();
    spans.enter("core.decode_slot_views_with_pool", item);
    let t = Instant::now();
    let results = dec.decode_slot_views_with_pool(&views, pool);
    let dt = t.elapsed().as_secs_f64();
    spans.exit();
    (results, dt)
}

/// Builds the decoder and decodes one warm-up slot, the same one for
/// every seed so that set-up is the same work in every run.
fn build() -> ChoirDecoder {
    let dec = ChoirDecoder::new(PhyParams::default());
    let warm = SlotGen::new(WARM_UP_SEED, SlotKind::FiveUserLadder).next_slot();
    let (results, _) = decode(
        &dec,
        std::slice::from_ref(&warm),
        ThreadPool::sequential(),
        &mut Spans::new(false),
        0,
    );
    std::hint::black_box(results);
    dec
}

/// Feeds a batch's CRC-ok payloads to the oracle; returns first
/// deliveries.
fn judge(results: &[SlotResult], oracle: &mut Oracle) -> usize {
    results
        .iter()
        .flat_map(SlotResult::ok_users)
        .filter_map(|u| u.frame.as_ref())
        .filter(|f| matches!(oracle.accept(&f.payload), Verdict::Delivered(_)))
        .count()
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
    let (dec, setup_s) = set_up(build);
    let pool = ThreadPool::sequential();
    let sample_rate = PhyParams::default().bw.hz();

    let mut gen = SlotGen::new(job.seed, SlotKind::FiveUserLadder);
    let mut oracle = Oracle::new();
    let mut quiet = Spans::new(false);
    let (mut air_s, mut busy_s) = (0.0, 0.0);
    let mut latencies = Vec::new();
    let deadline = job.deadline(1.0);
    while out.attempted == 0 || Instant::now() < deadline {
        let slots: Vec<Slot> = (0..BATCH).map(|_| gen.next_slot()).collect();
        for s in &slots {
            oracle.transmit(&s.frames);
            air_s += s.samples.len() as f64 / sample_rate;
        }
        let (results, dt) = decode(&dec, &slots, pool, &mut quiet, out.attempted);
        busy_s += dt;
        out.attempted += BATCH as u64;
        out.failed += results.iter().filter(|r| r.error.is_some()).count() as u64;
        // Every frame of a batch is in the caller's hands when the call
        // returns: its latency is the call's.
        latencies.extend(std::iter::repeat_n(dt, judge(&results, &mut oracle)));
    }
    judge_delivery(&oracle, &mut out);
    if out.failed > 0 {
        out.faults.push(format!(
            "{} of {} views returned an error",
            out.failed, out.attempted
        ));
    }

    out.measured.set("setup_s", setup_s);
    out.measured.set("rtf", air_s / busy_s);
    out.measured.set(
        "frame_delivery_ratio",
        oracle.delivered() as f64 / oracle.transmitted().max(1) as f64,
    );
    latency_metrics(&latencies, &mut out);
    if let Some(rss) = peak_rss_mb() {
        out.measured.set("peak_rss_mb", rss);
    }
    out.details.push(("slots", out.attempted.to_string()));
    out.details.push(("air_seconds", format!("{air_s:.3}")));
    out.details.push(("busy_seconds", format!("{busy_s:.3}")));
    out
}

/// Slots per pass of a tracing quad: one, on one thread, so that a run
/// holds several quads.
const QUAD_SLOTS: usize = 1;
/// Slots the pool's efficiency is measured on: one batch.
const POOL_SLOTS: usize = BATCH;

/// One timed pass over `slots`, [`BATCH`] views per call.
fn pass(
    dec: &ChoirDecoder,
    slots: &[Slot],
    pool: ThreadPool,
    spans: &mut Spans,
) -> (Vec<SlotResult>, f64) {
    let (mut all, mut busy) = (Vec::new(), 0.0);
    for (i, batch) in slots.chunks(BATCH).enumerate() {
        let (results, dt) = decode(dec, batch, pool, spans, i as u64);
        all.extend(results);
        busy += dt;
    }
    (all, busy)
}

fn run_traced(job: &Job) -> Outcome {
    let mut out = job.outcome();
    let run_end = job.deadline(1.0);
    let dec = build();

    // Quad `q` decodes slot `q` of the workload four times, on one
    // thread: the stage profile is CPU seconds, so it is held against a
    // single worker's busy wall clock.
    let mut gen = SlotGen::new(job.seed, SlotKind::FiveUserLadder);
    let mut slots: Vec<Slot> = Vec::new();
    let mut results: Vec<SlotResult> = Vec::new();
    let mut spans = Spans::new(true);
    let mut book = TraceBook::new();
    book.quads_until(job.deadline(0.4), |quad, is_traced| {
        while slots.len() < (quad + 1) * QUAD_SLOTS {
            slots.push(gen.next_slot());
        }
        let block = slots.get(quad * QUAD_SLOTS..).unwrap_or_default();
        let mut quiet = Spans::new(false);
        let (decoded, busy) = pass(
            &dec,
            block,
            ThreadPool::sequential(),
            if is_traced { &mut spans } else { &mut quiet },
        );
        if is_traced && results.len() < slots.len() {
            results.extend(decoded);
        }
        busy
    });

    let mut oracle = Oracle::new();
    for s in &slots {
        oracle.transmit(&s.frames);
    }
    judge(&results, &mut oracle);
    judge_delivery(&oracle, &mut out);
    out.attempted = slots.len() as u64;
    out.failed = results.iter().filter(|r| r.error.is_some()).count() as u64;

    let m = &mut out.measured;
    oracle_counters(&oracle, m);
    while slots.len() < POOL_SLOTS {
        slots.push(gen.next_slot());
    }
    if host_cores() > 1 {
        // One batch on one worker, on the pool, on the pool, on one
        // worker: the same slots, and the drift between passes cancels.
        let sample = slots.get(..POOL_SLOTS).unwrap_or_default();
        let threads = pool_threads();
        let (mut single_s, mut pooled_s) = (0.0, 0.0);
        for pooled in [false, true, true, false] {
            let workers = if pooled { threads } else { 1 };
            let busy = pass(&dec, sample, ThreadPool::with_threads(workers), &mut spans).1;
            *(if pooled { &mut pooled_s } else { &mut single_s }) += busy;
        }
        m.set(
            PARALLEL_EFFICIENCY,
            single_s / (threads as f64 * pooled_s.max(1e-9)),
        );
    } else {
        eprintln!("spine: one core, so {PARALLEL_EFFICIENCY} is not reported");
    }
    let captures: Vec<Capture> = slots
        .into_iter()
        .map(|s| Capture {
            samples: s.samples,
            slot_start: s.slot_start,
            num_data_symbols: data_symbols(),
        })
        .collect();
    layers::replay_captures(&captures, run_end - KERNELS_RESERVE, m, &mut spans);
    layers::kernels(m, &mut spans);
    book.record(&spans, m);
    job.dump_spans(&spans);
    out.details.push(("quads", book.quads().to_string()));
    out.details.push(("quad_busy_s", book.quad_times()));
    out
}
