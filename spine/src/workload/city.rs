//! `city_1m` — rounds of the `city_capacity` sweep: 10⁶ clients, 100
//! gateways, 400 slots, four schemes × five loads, sixteen shards, the
//! closed-form slot model only (`iq_slots_per_gw = 0`).
//!
//! The network layer with the IQ decoder doing nothing: it guards the
//! choir-mac/choir-city consolidation and is the "no change predicted"
//! row of every DSP optimisation. Its outputs are deterministic, so every
//! round of a run must repeat the first one's digests bit for bit.

use std::time::Instant;

use choir_city::gateway::{fnv1a, run_gateway, FNV_OFFSET};
use choir_city::model::Scheme;
use choir_city::sim::{run_city, CityConfig, CityStats};
use choir_pool::ThreadPool;

use super::{set_up, Job, TraceBook};
use crate::gen::sub_seed;
use crate::layers;
use crate::report::{peak_rss_mb, Outcome};
use crate::spans::Spans;
use crate::stats::p50_p90;

const GATEWAYS: u32 = 100;
const CLIENTS_PER_GW: u32 = 10_000;
const SLOTS: u32 = 400;
const SHARDS: u32 = 16;
/// Offered load points, frames per slot per gateway.
const LOADS: [f64; 5] = [0.25, 0.5, 1.0, 2.0, 4.0];
/// `run_city` calls per round.
const CALLS: usize = LOADS.len() * Scheme::ALL.len();

/// The sweep's configurations, one per load; the city's seed comes from
/// the workload seed and goes no further than the configuration.
fn configs(seed: u64) -> Vec<CityConfig> {
    LOADS
        .iter()
        .map(|&load| {
            let mut cfg = CityConfig::new(sub_seed(seed, 7, 0), GATEWAYS, CLIENTS_PER_GW, SLOTS);
            // One frame per client per period: period = clients / load
            // offers `load` fresh frames per slot per gateway.
            cfg.client.period_slots = ((f64::from(CLIENTS_PER_GW) / load).round() as u32).max(1);
            cfg.shards = SHARDS;
            cfg.iq_slots_per_gw = 0;
            cfg
        })
        .collect()
}

/// One `run_city` call of a round.
struct Call {
    scheme: Scheme,
    stats: CityStats,
    wall_s: f64,
    /// Gateway-seconds of air time the call simulated.
    air_s: f64,
}

/// One round: every load × every scheme, each call timed.
fn round(cfgs: &[CityConfig], pool: &ThreadPool, spans: &mut Spans, item: u64) -> Vec<Call> {
    let mut calls = Vec::with_capacity(CALLS);
    spans.enter("city.round", item);
    for cfg in cfgs {
        for scheme in Scheme::ALL {
            spans.enter(span_name(scheme), item);
            let t = Instant::now();
            let stats = run_city(cfg, scheme, pool);
            let wall_s = t.elapsed().as_secs_f64();
            spans.exit();
            calls.push(Call {
                scheme,
                stats,
                wall_s,
                air_s: f64::from(GATEWAYS) * f64::from(SLOTS) * cfg.slot_s(scheme),
            });
        }
    }
    spans.exit();
    calls
}

fn span_name(scheme: Scheme) -> &'static str {
    match scheme {
        Scheme::Aloha => "city.run_city.aloha",
        Scheme::Slotted => "city.run_city.slotted",
        Scheme::Choir => "city.run_city.choir",
        Scheme::Ss5g => "city.run_city.ss5g",
    }
}

/// The oracle for a deterministic simulator: tallies conserve, and every
/// round equals the first. Returns calls that failed either.
fn judge(first: &[Call], other: &[Call], out: &mut Outcome) -> u64 {
    let mut failed = 0;
    for (a, b) in first.iter().zip(other) {
        let t = &b.stats.totals;
        let conserved = t.delivered + t.lost <= t.offered && t.delivered <= t.transmissions;
        let repeats = a.stats.digest == b.stats.digest && a.stats.totals == b.stats.totals;
        if !(conserved && repeats) {
            failed += 1;
        }
    }
    if failed > 0 {
        out.faults.push(format!(
            "{failed} run_city calls broke conservation or did not repeat the first round"
        ));
    }
    failed
}

/// Choir at the highest load: the sweep's headline point.
fn headline(calls: &[Call]) -> Option<&Call> {
    calls.iter().rev().find(|c| c.scheme == Scheme::Choir)
}

/// The digests of a round folded in call order.
fn round_digest(calls: &[Call]) -> u64 {
    calls
        .iter()
        .fold(FNV_OFFSET, |h, c| fnv1a(h, c.stats.digest))
}

pub fn run(job: &Job) -> Outcome {
    if job.traced {
        run_traced(job)
    } else {
        run_untraced(job)
    }
}

fn details(first: &[Call], rounds: usize, out: &mut Outcome) {
    if let Some(c) = headline(first) {
        let t = &c.stats.totals;
        out.details.push(("ops_attempted", t.offered.to_string()));
        out.details
            .push(("ops_failed", (t.offered - t.delivered).to_string()));
    }
    out.details
        .push(("city.digest", format!("{:#018x}", round_digest(first))));
    out.details.push(("rounds", rounds.to_string()));
    out.details.push((
        "clients",
        (u64::from(GATEWAYS) * u64::from(CLIENTS_PER_GW)).to_string(),
    ));
}

fn run_untraced(job: &Job) -> Outcome {
    let mut out = job.outcome();
    let pool = ThreadPool::sequential();
    let (cfgs, setup_s) = set_up(|| {
        let cfgs = configs(job.seed);
        // Warm-up: one whole round.
        std::hint::black_box(round(&cfgs, &pool, &mut Spans::new(false), 0));
        cfgs
    });

    let mut quiet = Spans::new(false);
    let deadline = job.deadline(1.0);
    let mut rounds: Vec<Vec<Call>> = Vec::new();
    while rounds.is_empty() || Instant::now() < deadline {
        rounds.push(round(&cfgs, &pool, &mut quiet, rounds.len() as u64));
    }
    let first = rounds.first().map_or(&[][..], Vec::as_slice);
    for r in &rounds {
        let failed = judge(first, r, &mut out);
        out.failed += failed;
    }
    out.attempted = (rounds.len() * CALLS) as u64;

    let calls = || rounds.iter().flatten();
    let wall_s: f64 = calls().map(|c| c.wall_s).sum();
    let air_s: f64 = calls().map(|c| c.air_s).sum();
    let latencies: Vec<f64> = calls().map(|c| c.wall_s).collect();
    out.measured.set("setup_s", setup_s);
    out.measured.set("rtf", air_s / wall_s);
    if let Some(c) = headline(first) {
        out.measured
            .set("frame_delivery_ratio", c.stats.delivery_ratio);
    }
    super::latency_metrics(&latencies, &mut out);
    if let Some(rss) = peak_rss_mb() {
        out.measured.set("peak_rss_mb", rss);
    }
    let round_walls: Vec<f64> = rounds
        .iter()
        .map(|r| r.iter().map(|c| c.wall_s).sum())
        .collect();
    let gwslots = f64::from(GATEWAYS) * f64::from(SLOTS) * CALLS as f64;
    out.details.push((
        "sim_gwslots_per_s",
        format!(
            "{:.1}",
            gwslots / crate::stats::median(&round_walls).unwrap_or(f64::INFINITY)
        ),
    ));
    details(first, rounds.len(), &mut out);
    out
}

fn run_traced(job: &Job) -> Outcome {
    let mut out = job.outcome();
    let pool = ThreadPool::sequential();
    let cfgs = configs(job.seed);
    let mut spans = Spans::new(true);
    let mut book = TraceBook::new();
    let mut traced: Vec<Vec<Call>> = Vec::new();
    let mut item = 0u64;
    book.quads_until(job.deadline(0.6), |_, is_traced| {
        let mut quiet = Spans::new(false);
        let calls = round(
            &cfgs,
            &pool,
            if is_traced { &mut spans } else { &mut quiet },
            item,
        );
        item += 1;
        let busy = calls.iter().map(|c| c.wall_s).sum();
        if is_traced {
            traced.push(calls);
        }
        busy
    });
    let first = traced.first().map_or(&[][..], Vec::as_slice);
    for r in &traced {
        let failed = judge(first, r, &mut out);
        out.failed += failed;
    }
    out.attempted = (traced.len() * CALLS) as u64;

    // Shard skew: one gateway at a time, Choir at the highest load.
    let mut gateway_s = Vec::with_capacity(GATEWAYS as usize);
    if let Some(heavy) = cfgs.last() {
        spans.enter("city.gateways", 0);
        for gw in 0..GATEWAYS {
            spans.enter("city.run_gateway", u64::from(gw));
            let t = Instant::now();
            std::hint::black_box(run_gateway(heavy, Scheme::Choir, gw));
            gateway_s.push(t.elapsed().as_secs_f64());
            spans.exit();
        }
        spans.exit();
    }

    let m = &mut out.measured;
    for scheme in Scheme::ALL {
        m.set(
            &format!("city.run_city_s.{}", scheme.tag()),
            spans.self_time_s(span_name(scheme)),
        );
    }
    let (p50, p90) = p50_p90(&gateway_s, 1e3);
    m.set("city.gateway_ms_p50", p50);
    m.set("city.gateway_ms_p90", p90);
    if let Some(c) = headline(first) {
        m.set("city.offered", c.stats.totals.offered as f64);
        m.set("city.delivered", c.stats.totals.delivered as f64);
    }
    let round_walls: Vec<f64> = traced
        .iter()
        .map(|r| r.iter().map(|c| c.wall_s).sum())
        .collect();
    if let Some(wall) = crate::stats::median(&round_walls) {
        m.set(
            "city.gwslots_per_s",
            f64::from(GATEWAYS) * f64::from(SLOTS) * CALLS as f64 / wall,
        );
    }
    layers::kernels(m, &mut spans);
    book.record(&spans, m);
    job.dump_spans(&spans);
    details(first, traced.len(), &mut out);
    out.details.push(("quads", book.quads().to_string()));
    out.details.push(("quad_busy_s", book.quad_times()));
    out
}
