//! Drives a `Station` chunk by chunk, closed or open loop, and keeps the
//! timestamps latency and the real-time factor need — nothing else runs
//! between the clock reads and the station's public calls.

use std::time::{Duration, Instant};

use choir_dsp::complex::C64;
use choir_station::{Station, StationConfig, StationReport};

use crate::gen::CHUNK;
use crate::spans::Spans;

/// How chunks are offered.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Pace {
    /// The next chunk is pushed when the previous `service()` returns.
    Closed,
    /// Chunk `i` is due at `(i + 1) · chunk / (rate · sample rate)` after
    /// the start; the generator sleeps until then and never skips a chunk,
    /// so a blocking call makes later chunks late instead of lost.
    Open {
        /// Multiple of the sample clock the stream is offered at.
        rate: f64,
    },
}

/// What one driven stream produced.
pub struct Driven {
    /// The station's own report.
    pub report: StationReport,
    /// Seconds of IQ handed in.
    pub air_s: f64,
    /// Wall seconds inside `push_chunk`, `service` and `finish`.
    pub busy_s: f64,
    /// Wall seconds from the first push to the return of `finish`.
    pub wall_s: f64,
    /// Per `push_chunk` call, seconds.
    pub push_s: Vec<f64>,
    /// Per `service` call that decoded at least one slot, seconds.
    pub service_s: Vec<f64>,
    /// Seconds inside `service` calls that found nothing to decode.
    pub idle_service_s: f64,
    /// The `finish` call, seconds.
    pub finish_s: f64,
    /// Per chunk: when it was due (open loop) or returned from
    /// `push_chunk` (closed loop), seconds after the start.
    chunk_ref_s: Vec<f64>,
    /// Per decoded slot, in decode order: when the call that decoded it
    /// returned, seconds after the start.
    done_s: Vec<f64>,
    /// Per chunk, how long after its due time it was pushed (open loop).
    pub late_s: Vec<f64>,
}

impl Driven {
    /// Ingest→frame latency of decoded slot `k` (index into
    /// `report.slots`): from the reference time of the chunk holding the
    /// last sample of the slot's capture span to the return of the call
    /// that raised `slots_decoded` for it.
    pub fn slot_latency_s(&self, k: usize, cfg: &StationConfig) -> Option<f64> {
        let slot = self.report.slots.get(k)?;
        let n = cfg.params.samples_per_symbol() as u64;
        let span_end = slot.slot_start + (cfg.slot_symbols() + cfg.tail_symbols) as u64 * n;
        let last_chunk = self.chunk_ref_s.len().checked_sub(1)?;
        let chunk = (span_end.saturating_sub(1) / CHUNK as u64).min(last_chunk as u64) as usize;
        Some(self.done_s.get(k)? - self.chunk_ref_s.get(chunk)?)
    }
}

/// Pushes chunks from `next_chunk` until it returns `false`, one
/// `service()` per chunk, then finishes the station.
///
/// `next_chunk(out, wind_down)` replaces `out` with the next chunk. Once
/// `deadline` has passed `wind_down` is set, and the source hands over
/// whatever completes the item it is in the middle of, then stops. Time
/// spent in `next_chunk` is the generator's and is not busy time.
pub fn drive(
    mut station: Station,
    mut next_chunk: impl FnMut(&mut Vec<C64>, bool) -> bool,
    pace: Pace,
    deadline: Option<Instant>,
    spans: &mut Spans,
) -> Driven {
    let sample_rate = lora_phy::params::PhyParams::default().bw.hz();
    let (mut push_s, mut service_s, mut late_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut chunk_ref_s, mut done_s) = (Vec::new(), Vec::new());
    let (mut busy_s, mut idle_service_s) = (0.0, 0.0);
    let mut chunk: Vec<C64> = Vec::with_capacity(CHUNK);
    let mut samples = 0u64;
    let start = Instant::now();
    let since = |t: Instant| t.duration_since(start).as_secs_f64();
    loop {
        let wind_down = deadline.is_some_and(|d| Instant::now() >= d);
        if !next_chunk(&mut chunk, wind_down) {
            break;
        }
        let item = chunk_ref_s.len() as u64;
        samples += chunk.len() as u64;
        let due_s = match pace {
            Pace::Closed => None,
            Pace::Open { rate } => {
                let due_s = samples as f64 / (rate * sample_rate);
                let wait = due_s - since(Instant::now());
                if wait > 0.0 {
                    // lint:allow(sync_facade) — the open-loop generator
                    // waits for the sample clock; no other thread is
                    // involved, so there is no interleaving to model.
                    std::thread::sleep(Duration::from_secs_f64(wait));
                }
                Some(due_s)
            }
        };
        spans.enter("chunk", item);
        spans.enter("station.push_chunk", item);
        let t_push = Instant::now();
        station.push_chunk(&chunk);
        let t_pushed = Instant::now();
        spans.exit();
        if let Some(due_s) = due_s {
            late_s.push((since(t_push) - due_s).max(0.0));
        }
        chunk_ref_s.push(due_s.unwrap_or_else(|| since(t_pushed)));
        let decoded_before = station.metrics().slots_decoded;
        spans.enter("station.service", item);
        station.service();
        let t_serviced = Instant::now();
        spans.exit();
        spans.exit();
        let push = t_pushed.duration_since(t_push).as_secs_f64();
        let service = t_serviced.duration_since(t_pushed).as_secs_f64();
        push_s.push(push);
        busy_s += push + service;
        let newly = station.metrics().slots_decoded - decoded_before;
        if newly > 0 {
            service_s.push(service);
        } else {
            idle_service_s += service;
        }
        done_s.extend(std::iter::repeat_n(since(t_serviced), newly as usize));
    }
    let decoded_before = station.metrics().slots_decoded;
    spans.enter("station.finish", chunk_ref_s.len() as u64);
    let t_finish = Instant::now();
    let report = station.finish();
    let t_finished = Instant::now();
    spans.exit();
    let finish_s = t_finished.duration_since(t_finish).as_secs_f64();
    let newly = report.metrics.slots_decoded - decoded_before;
    done_s.extend(std::iter::repeat_n(since(t_finished), newly as usize));
    Driven {
        report,
        air_s: samples as f64 / sample_rate,
        busy_s: busy_s + finish_s,
        wall_s: since(t_finished),
        push_s,
        service_s,
        idle_service_s,
        finish_s,
        chunk_ref_s,
        done_s,
        late_s,
    }
}

/// Drives an already rendered stream through `station`, [`CHUNK`] samples
/// at a time.
pub fn drive_samples(station: Station, samples: &[C64], pace: Pace, spans: &mut Spans) -> Driven {
    let mut chunks = samples.chunks(CHUNK);
    drive(
        station,
        |chunk, _| match chunks.next() {
            Some(c) => {
                chunk.clear();
                chunk.extend_from_slice(c);
                true
            }
            None => false,
        },
        pace,
        None,
        spans,
    )
}
