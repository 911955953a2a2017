//! The four workloads. Each runs in a process of its own, untraced
//! (end-to-end metrics, `CHOIR_TRACE` off) or traced (per-layer metrics,
//! `CHOIR_TRACE=outcome`, spans around every public call, layer replay).

use std::path::PathBuf;
use std::time::{Duration, Instant};

use choir_station::{StationConfig, StationMetrics};
use choir_trace::TraceLevel;

use crate::drive::Driven;
use crate::oracle::{Oracle, Verdict};
use crate::report::{Measured, Outcome};
use crate::spans::Spans;
use crate::stats::{median, p50_p90, percentile, sorted};

pub mod city;
pub mod dense;
pub mod paced;
pub mod slotted;

/// One run's orders.
pub struct Job {
    pub workload: &'static str,
    pub seed: u64,
    /// Wall seconds the run measures for.
    pub seconds: f64,
    pub traced: bool,
    /// Where span logs go.
    pub out_dir: PathBuf,
}

impl Job {
    /// The instant `share` of the measuring time from now.
    pub fn deadline(&self, share: f64) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds * share)
    }

    /// An outcome with nothing measured yet.
    pub fn outcome(&self) -> Outcome {
        Outcome {
            workload: self.workload.to_string(),
            seed: self.seed,
            seconds: self.seconds,
            traced: self.traced,
            attempted: 0,
            failed: 0,
            faults: Vec::new(),
            measured: Measured::default(),
            details: Vec::new(),
        }
    }

    /// Writes the span log beside the run records.
    pub fn dump_spans(&self, spans: &Spans) {
        let path = self
            .out_dir
            .join(format!("spans-{}-{}.jsonl", self.workload, self.seed));
        let written =
            std::fs::create_dir_all(&self.out_dir).and_then(|()| spans.write_jsonl(&path));
        if let Err(e) = written {
            eprintln!("spine: could not write {path:?}: {e}");
        }
    }
}

/// Times a workload is set up per run.
const SETUPS: usize = 3;

/// Sets the workload up [`SETUPS`] times and reports the median time: one
/// set-up is too short a measurement to compare across commits. The last
/// set-up is the one the run uses.
pub fn set_up<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut timed = || {
        let t = Instant::now();
        let built = build();
        times.push(t.elapsed().as_secs_f64());
        built
    };
    let mut built = timed();
    for _ in 1..SETUPS {
        // Released first: two set-ups alive at once would double the
        // run's peak memory.
        drop(built);
        built = timed();
    }
    (built, median(&times).unwrap_or(0.0))
}

/// Lowest delivery ratio a workload may show before the run counts as
/// wrong output rather than as a hard input: well under every ratio the
/// unmodified decoder has shown on any seed, well over a broken one.
pub const DELIVERY_FLOOR: f64 = 0.4;

/// CRC-ok payloads nobody sent that a run may show: a 16-bit CRC over
/// garbage symbol streams passes once in 65 536, so a handful per
/// thousand frames is the channel, more is the decoder.
pub fn false_accept_allowance(frames: u64) -> u64 {
    2 + frames / 100
}

/// Feeds every CRC-ok payload of a driven station through the oracle, in
/// decode order; returns the latency of each first delivery, seconds.
pub fn judge_station(driven: &Driven, cfg: &StationConfig, oracle: &mut Oracle) -> Vec<f64> {
    let mut latencies = Vec::new();
    for (k, slot) in driven.report.slots.iter().enumerate() {
        for user in slot.result.ok_users() {
            let Some(frame) = user.frame.as_ref() else {
                continue;
            };
            if let Verdict::Delivered(_) = oracle.accept(&frame.payload) {
                latencies.extend(driven.slot_latency_s(k, cfg));
            }
        }
    }
    latencies
}

/// The oracle's verdict on delivery, shared by the IQ workloads.
pub fn judge_delivery(oracle: &Oracle, out: &mut Outcome) {
    let (sent, got) = (oracle.transmitted(), oracle.delivered());
    let ratio = got as f64 / sent.max(1) as f64;
    if ratio < DELIVERY_FLOOR {
        out.faults.push(format!(
            "delivered {got} of {sent} frames, under the {DELIVERY_FLOOR} floor"
        ));
    }
    if oracle.false_accepts > false_accept_allowance(sent) {
        out.faults.push(format!(
            "{} false accepts in {sent} frames",
            oracle.false_accepts
        ));
    }
    out.details.push(("ops_attempted", sent.to_string()));
    out.details.push(("ops_failed", (sent - got).to_string()));
    out.details
        .push(("false_accepts", oracle.false_accepts.to_string()));
    out.details.push(("delivered_set", oracle.outcomes()));
}

/// Records the oracle's counts as per-layer metrics (traced runs).
pub fn oracle_counters(oracle: &Oracle, m: &mut Measured) {
    m.set("oracle.frames_transmitted", oracle.transmitted() as f64);
    m.set("oracle.frames_delivered", oracle.delivered() as f64);
    m.set("oracle.false_accepts", oracle.false_accepts as f64);
    m.set("oracle.duplicates", oracle.duplicates as f64);
}

/// The station's accounting must close and nothing may be lost on a
/// workload sized to keep up.
pub fn judge_station_accounting(metrics: &StationMetrics, out: &mut Outcome) {
    if !metrics.slots_accounted() {
        out.faults
            .push("station slot accounting does not close".to_string());
    }
    if metrics.samples_dropped > 0 {
        out.faults.push(format!(
            "station dropped {} samples",
            metrics.samples_dropped
        ));
    }
}

/// The end-to-end latency metric — the median — from per-delivered-frame
/// latencies, and beside it the tail: the percentile ladder, the sample
/// count and the highest percentile that count supports. The tail is
/// printed, not bounded: over ten seeds on a shared two-core host p90
/// spreads as wide as the widest bound a metric may have.
pub fn latency_metrics(latencies_s: &[f64], out: &mut Outcome) {
    let s = sorted(latencies_s.to_vec());
    if let Some(p50) = percentile(&s, 50.0) {
        out.measured.set("latency_p50_ms", p50 * 1e3);
    }
    let ladder: Vec<String> = [50.0, 75.0, 90.0, 95.0, 99.0, 100.0]
        .iter()
        .filter_map(|&p| Some(format!("p{p}={:.2}", percentile(&s, p)? * 1e3)))
        .collect();
    out.details
        .push(("latency_percentiles_ms", ladder.join(" ")));
    out.details.push(("latency_samples", s.len().to_string()));
    let tail = crate::stats::highest_supported_tail(s.len());
    out.details.push((
        "latency_highest_supported_percentile",
        tail.map_or("none".to_string(), |p| format!("p{p}")),
    ));
}

/// Per-layer station metrics from traced passes: `driven` are the traced
/// passes, `counters` their summed station counters.
pub fn station_layer_metrics(
    driven: &[&Driven],
    counters: &StationMetrics,
    truth_frames: u64,
    m: &mut Measured,
) {
    let push: Vec<f64> = driven
        .iter()
        .flat_map(|d| d.push_s.iter().copied())
        .collect();
    let service: Vec<f64> = driven
        .iter()
        .flat_map(|d| d.service_s.iter().copied())
        .collect();
    let idle_service: f64 = driven.iter().map(|d| d.idle_service_s).sum();
    m.set("station.push_chunk_s", push.iter().sum());
    m.set("station.push_chunk_p90_us", p50_p90(&push, 1e6).1);
    m.set(
        "station.service_s",
        service.iter().sum::<f64>() + idle_service,
    );
    let (p50, p90) = p50_p90(&service, 1e3);
    m.set("station.service_p50_ms", p50);
    m.set("station.service_p90_ms", p90);
    m.set("station.finish_s", driven.iter().map(|d| d.finish_s).sum());
    m.set("station.slots_seen", counters.slots_seen as f64);
    m.set("station.slots_decoded", counters.slots_decoded as f64);
    m.set("station.slots_empty", counters.slots_empty as f64);
    m.set("station.slots_shed", counters.slots_shed as f64);
    m.set("station.samples_dropped", counters.samples_dropped as f64);
    m.set("station.degraded_decodes", counters.degraded_decodes as f64);
    m.set("station.max_queue_depth", counters.max_queue_depth as f64);
    m.set("station.hyp_born", counters.hyp_born as f64);
    m.set("station.hyp_confirmed", counters.hyp_confirmed as f64);
    if counters.hyp_confirmed > 0 {
        m.set(
            "station.detect_useful_ratio",
            truth_frames as f64 / counters.hyp_confirmed as f64,
        );
    }
    if counters.users_decoded > 0 {
        m.set(
            "station.decode_useful_ratio",
            counters.users_crc_ok as f64 / counters.users_decoded as f64,
        );
    }
}

/// Adds `b`'s counters into `a` (maxima for the high-water marks).
pub fn add_counters(a: &mut StationMetrics, b: &StationMetrics) {
    a.slots_seen += b.slots_seen;
    a.slots_decoded += b.slots_decoded;
    a.slots_empty += b.slots_empty;
    a.slots_shed += b.slots_shed;
    a.samples_dropped += b.samples_dropped;
    a.degraded_decodes += b.degraded_decodes;
    a.max_queue_depth = a.max_queue_depth.max(b.max_queue_depth);
    a.hyp_born += b.hyp_born;
    a.hyp_confirmed += b.hyp_confirmed;
    a.users_decoded += b.users_decoded;
    a.users_crc_ok += b.users_crc_ok;
}

/// The traced side of a run: `CHOIR_TRACE` level switching, the
/// position-balanced overhead estimate, and the stage profile.
pub struct TraceBook {
    /// `(untraced busy, traced busy)` seconds per Off/Outcome/Outcome/Off
    /// quad over identical inputs.
    quads: Vec<(f64, f64)>,
    /// Stage seconds billed during traced passes.
    stages: [f64; choir_core::profile::NUM_STAGES],
    /// Busy seconds of the traced passes the stages were billed in.
    traced_busy_s: f64,
}

/// Trace levels of one quad: each level runs once early and once late,
/// so the drift between back-to-back passes cancels inside the quad.
pub const QUAD: [TraceLevel; 4] = [
    TraceLevel::Off,
    TraceLevel::Outcome,
    TraceLevel::Outcome,
    TraceLevel::Off,
];

impl TraceBook {
    pub fn new() -> Self {
        let _ = choir_core::profile::snapshot_and_reset();
        TraceBook {
            quads: Vec::new(),
            stages: [0.0; choir_core::profile::NUM_STAGES],
            traced_busy_s: 0.0,
        }
    }

    /// Runs `pass` at `CHOIR_TRACE=outcome` and books its busy seconds
    /// (the second value it returns) and the stage seconds billed in it.
    pub fn traced<T>(&mut self, pass: impl FnOnce() -> (T, f64)) -> T {
        choir_trace::set_level(TraceLevel::Outcome);
        let _ = choir_core::profile::snapshot_and_reset();
        let (out, busy) = pass();
        let stages = choir_core::profile::snapshot_and_reset();
        choir_trace::set_level(TraceLevel::Off);
        self.traced_busy_s += busy;
        for (acc, s) in self.stages.iter_mut().zip(stages) {
            *acc += s;
        }
        out
    }

    /// Runs one quad: `pass(is_traced)` does the same work each time and
    /// returns its busy seconds.
    fn quad(&mut self, mut pass: impl FnMut(bool) -> f64) {
        let mut busy = [0.0f64; 2];
        for level in QUAD {
            let traced = level != TraceLevel::Off;
            let b = if traced {
                self.traced(|| {
                    let b = pass(true);
                    (b, b)
                })
            } else {
                pass(false)
            };
            busy[usize::from(traced)] += b;
        }
        self.quads.push((busy[0], busy[1]));
    }

    /// Runs quads until the next one would end after `phase_end`; at
    /// least one. `pass(quad, is_traced)` may use other inputs in each
    /// quad, and the same ones in a quad's four passes.
    pub fn quads_until(&mut self, phase_end: Instant, mut pass: impl FnMut(usize, bool) -> f64) {
        let mut last = Duration::ZERO;
        while self.quads.is_empty() || Instant::now() + last < phase_end {
            let t = Instant::now();
            let quad = self.quads.len();
            self.quad(|is_traced| pass(quad, is_traced));
            last = t.elapsed();
        }
    }

    /// Quads run so far.
    pub fn quads(&self) -> usize {
        self.quads.len()
    }

    /// Each quad's `(untraced, traced)` busy seconds, for the run record.
    pub fn quad_times(&self) -> String {
        let quads: Vec<String> = self
            .quads
            .iter()
            .map(|q| format!("{:.4}/{:.4}", q.0, q.1))
            .collect();
        quads.join(" ")
    }

    /// Busy seconds of the untraced passes.
    pub fn untraced_busy_s(&self) -> f64 {
        self.quads.iter().map(|q| q.0).sum()
    }

    /// Records `core.profile.*` and `trace.*`. The traced passes run on
    /// one worker, so stage seconds (CPU seconds) are held against the
    /// busy wall clock.
    pub fn record(&self, spans: &Spans, m: &mut Measured) {
        for (name, s) in choir_core::profile::STAGE_NAMES.iter().zip(self.stages) {
            m.set(&format!("core.profile.{name}_s"), s);
        }
        if self.traced_busy_s > 0.0 {
            let billed: f64 = self.stages.iter().sum();
            m.set(
                "core.profile.unattributed_frac",
                1.0 - billed / self.traced_busy_s,
            );
        }
        // The median over quads: each quad is position-balanced and short,
        // so ambient load lands on a few of them and the median passes it
        // by, where a mean would carry it and a minimum would turn noise
        // into a negative cost.
        let ratios: Vec<f64> = self
            .quads
            .iter()
            .filter(|q| q.0 > 0.0)
            .map(|q| q.1 / q.0 - 1.0)
            .collect();
        if let Some(overhead) = median(&ratios) {
            m.set("trace.overhead_frac", overhead);
        }
        let events = choir_trace::drain().len() as u64 + choir_trace::dropped();
        choir_trace::clear();
        m.set("trace.events_recorded", events as f64);
        m.set("trace.spans_recorded", spans.len() as f64);
        m.set("trace.busy_s", self.traced_busy_s);
    }
}
