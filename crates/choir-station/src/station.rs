//! The streaming runtime: chunked IQ in, decoded slots out.
//!
//! # Pipeline
//!
//! ```text
//! push_chunk ─→ SampleRing ─→ slot cutter ─→ bounded queue ─→ service()
//!      │            │         (schedule or     (drop-oldest)      │
//!      │       StreamScanner    detector)                     choir-pool
//!      └── never blocks ───────────────────────────────→ decoded slots
//! ```
//!
//! The ingest side ([`Station::push_chunk`]) **never blocks and never
//! grows memory**: the ring overwrites its oldest samples when full, the
//! capture queue drops its oldest captures when past
//! [`StationConfig::max_in_flight`], and both paths account every loss as
//! a [`SheddingEvent`]. The decode side ([`Station::service`]) drains up
//! to a batch of captures per call through the `choir-pool` workers; when
//! the queue is deeper than [`StationConfig::pressure_watermark`] it
//! degrades gracefully (fewer packet-level SIC passes) instead of falling
//! further behind.
//!
//! Slot boundaries come from a [`SlotSchedule`]: beacon-aligned (periodic
//! or explicit — the Choir deployment model, where the base station's
//! beacon defines the slot grid) or free-running preamble detection via
//! the incremental [`lora_phy::tracker::StreamScanner`]. In scheduled
//! modes the cut captures are sample-exact, so decoding a streamed slot
//! is **bit-identical** to batch-decoding the same pre-cut capture; in
//! free-running mode the detector resolves the start to one symbol
//! window, which the decoder's timing acquisition absorbs.

use std::collections::VecDeque;

use choir_core::decoder::{ChoirConfig, ChoirDecoder, SlotResult, SlotView};
use choir_core::dedup::StartDedup;
use choir_core::error::DecodeError;
use choir_core::profile::{scope, Stage};
use choir_dsp::complex::C64;
use choir_pool::ThreadPool;
use lora_phy::modem::Modem;
use lora_phy::params::PhyParams;
use lora_phy::tracker::StreamScanner;

use crate::metrics::StationMetrics;
use crate::ring::SampleRing;

pub use choir_trace::ShedReason;

/// One chunk of IQ samples, of arbitrary length (a USRP recv buffer, a
/// file block, one sample — the station re-assembles windows internally).
pub type IqChunk = Vec<C64>;

/// Where slot boundaries come from.
#[derive(Clone, Debug)]
pub enum SlotSchedule {
    /// Beacon-aligned periodic slots: slot `k` starts at absolute sample
    /// `first + k·period`.
    Periodic {
        /// Absolute sample index of slot 0's boundary.
        first: u64,
        /// Slot period in samples (clamped to ≥ 1).
        period: u64,
    },
    /// Explicit absolute slot-start samples (sorted internally).
    Explicit(Vec<u64>),
    /// No beacon: free-running preamble detection. Slot starts are
    /// resolved to the symbol window containing the detected preamble
    /// edge (±1 symbol, absorbed by the decoder's timing acquisition).
    FreeRunning,
}

/// One counted load-shedding decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SheddingEvent {
    /// Absolute sample index of the shed slot's boundary.
    pub slot_start: u64,
    /// What overflowed.
    pub reason: ShedReason,
}

/// One slot that went through the decoder.
#[derive(Clone, Debug)]
pub struct StationSlot {
    /// Absolute sample index of the slot boundary in the input stream.
    pub slot_start: u64,
    /// True when this slot was decoded under pressure with reduced SIC.
    pub degraded: bool,
    /// The decode outcome (same type the batch path returns).
    pub result: SlotResult,
}

/// Everything a finished stream produced.
#[derive(Clone, Debug)]
pub struct StationReport {
    /// Decoded slots, in slot order.
    pub slots: Vec<StationSlot>,
    /// Every load-shedding decision, in the order it was taken.
    pub shed: Vec<SheddingEvent>,
    /// Final counter snapshot.
    pub metrics: StationMetrics,
}

/// Streaming-runtime configuration.
#[derive(Clone, Debug)]
pub struct StationConfig {
    /// PHY parameters of the uplink.
    pub params: PhyParams,
    /// Decoder configuration used at nominal load.
    pub decoder: ChoirConfig,
    /// Expected data symbols per slot (after the sync word).
    pub num_data_symbols: usize,
    /// Symbols of capture kept *before* each slot boundary (guard lead-in;
    /// matches the scenario builder's guard of 2).
    pub lead_symbols: usize,
    /// Symbols of capture kept after the last frame symbol (guard + drift
    /// slack; matches the scenario builder's 2·guard tail).
    pub tail_symbols: usize,
    /// Ring size in samples. Sizing math (see DESIGN.md §10): a capture
    /// spans `lead + preamble + 2 + num_data_symbols + tail` symbols, and
    /// free-running detection reports a preamble only after the packet's
    /// run of hot windows *ends* — so the ring must hold at least one full
    /// capture plus the detection lag. The default is 4 captures.
    pub ring_capacity: usize,
    /// Max captures queued for decode before drop-oldest shedding.
    pub max_in_flight: usize,
    /// Peak-to-average detection threshold (≈ `2^SF` for clean signal,
    /// O(1) for noise; 40 suits SF7–8 at the SNRs of interest). Also the
    /// scheduled-mode occupancy gate; set to 0.0 to decode every
    /// scheduled slot unconditionally.
    pub detect_threshold: f64,
    /// Queue depth beyond which decodes run degraded.
    pub pressure_watermark: usize,
}

/// Captures decoded per [`Station::service`] call.
const SERVICE_BATCH: usize = 4;

/// Packet-level SIC passes under pressure (nominal decodes use
/// `decoder.sic_passes`).
const PRESSURE_SIC_PASSES: usize = 1;

impl StationConfig {
    /// Defaults for a given symbol count: guard geometry matching the
    /// testbed's scenario builder, a 4-capture ring, and an 8-slot queue.
    pub fn new(params: PhyParams, num_data_symbols: usize) -> Self {
        let mut cfg = StationConfig {
            params,
            decoder: ChoirConfig::default(),
            num_data_symbols,
            lead_symbols: 2,
            tail_symbols: 4,
            ring_capacity: 0,
            max_in_flight: 8,
            detect_threshold: 40.0,
            pressure_watermark: 6,
        };
        cfg.ring_capacity = 4 * cfg.capture_len();
        cfg
    }

    /// Defaults for a known payload length in bytes (scheduled uplink).
    pub fn known_len(params: PhyParams, payload_len: usize) -> Self {
        let nds = lora_phy::frame::frame_symbol_count(&params, payload_len);
        StationConfig::new(params, nds)
    }

    /// Symbols in one slot: preamble + sync word + data.
    pub fn slot_symbols(&self) -> usize {
        self.params.preamble_len + 2 + self.num_data_symbols
    }

    /// Free-running start-dedup separation in samples: one preamble
    /// length. Confirmed starts closer than this are the same frame seen
    /// by duplicate hypotheses (CFO straddle, near-far adjacency) and fold
    /// into one capture; genuinely distinct frames — even zero-gap
    /// back-to-back ones — are at least a frame apart and always cut.
    fn dedup_separation(&self) -> u64 {
        (self.params.preamble_len * self.params.samples_per_symbol()) as u64
    }

    /// Samples in one cut capture (lead + slot + tail).
    pub fn capture_len(&self) -> usize {
        let n = self.params.samples_per_symbol();
        (self.lead_symbols + self.slot_symbols() + self.tail_symbols) * n
    }
}

/// A cut capture waiting for a decode worker.
#[derive(Clone, Debug)]
struct PendingCapture {
    slot_start: u64,
    rel_slot_start: usize,
    samples: Vec<C64>,
    /// `(nan, inf)` component counts when the ingest sanitizer zeroed
    /// hostile samples inside this capture's span.
    non_finite: Option<(usize, usize)>,
}

/// Components above this magnitude square to values that overflow the
/// pipeline's energy accumulators (FFT Parseval checks, detection
/// metrics), so they are treated exactly like an explicit Inf: a capture
/// is as undecodable either way.
const MAX_COMPONENT: f64 = 1e150;

/// Classifies one component: `Some(true)` = NaN, `Some(false)` = Inf or
/// energy-overflow magnitude, `None` = usable.
fn hostile_component(v: f64) -> Option<bool> {
    if v.is_nan() {
        Some(true)
    } else if v.is_infinite() || v.abs() > MAX_COMPONENT {
        Some(false)
    } else {
        None
    }
}

/// The streaming base-station runtime. See the module docs for the
/// pipeline; typical use is [`Station::run`] over a chunk iterator, or
/// [`Station::push_chunk`] + [`Station::service`] for explicit pacing.
#[derive(Debug)]
pub struct Station {
    cfg: StationConfig,
    modem: Modem,
    decoder: ChoirDecoder,
    degraded_decoder: ChoirDecoder,
    pool: ThreadPool,
    ring: SampleRing,
    scanner: Option<StreamScanner>,
    /// Ascending future slot boundaries (Explicit mode).
    explicit: VecDeque<u64>,
    /// Next slot boundary and period (Periodic mode).
    periodic: Option<(u64, u64)>,
    /// Detected-but-not-yet-cut slot boundaries (FreeRunning mode), kept
    /// sorted — confirmations arrive in confirmation order, which for
    /// overlapping frames is not start order.
    pending_detects: VecDeque<u64>,
    /// Start-dedup policy applied to confirmed starts before cutting.
    dedup: StartDedup,
    /// End sample of the most recently cut free-running frame. A later
    /// capture's lead-in is clamped to this so the previous frame's tail
    /// (possibly 20 dB hotter) is not re-decoded inside the next slot's
    /// view, where it would capture timing acquisition away from the
    /// frame the slot was cut for.
    prev_frame_end: Option<u64>,
    queue: VecDeque<PendingCapture>,
    slots: Vec<StationSlot>,
    shed: Vec<SheddingEvent>,
    metrics: StationMetrics,
    /// Scratch for detector hits (no per-chunk allocation).
    hit_scratch: Vec<u64>,
    /// Absolute positions of components zeroed by the ingest sanitizer
    /// (`true` = was NaN), ascending; pruned with the ring tail.
    corrupt: VecDeque<(u64, bool)>,
    /// Last serviced batch's pressure mode, so the degrade *transition*
    /// (not every batch) lands in the trace log.
    was_degraded: bool,
}

impl Station {
    /// Builds a station on the process-global worker pool.
    pub fn new(cfg: StationConfig, schedule: SlotSchedule) -> Self {
        let modem = Modem::new(cfg.params);
        let decoder = ChoirDecoder::with_config(cfg.params, cfg.decoder);
        let mut degraded_cfg = cfg.decoder;
        degraded_cfg.sic_passes = PRESSURE_SIC_PASSES;
        let degraded_decoder = ChoirDecoder::with_config(cfg.params, degraded_cfg);
        let ring = SampleRing::with_capacity(cfg.ring_capacity.max(cfg.capture_len()));
        let (scanner, explicit, periodic) = match schedule {
            SlotSchedule::FreeRunning => (
                Some(StreamScanner::new(modem.clone(), cfg.detect_threshold)),
                VecDeque::new(),
                None,
            ),
            SlotSchedule::Explicit(mut starts) => {
                starts.sort_unstable();
                (None, starts.into(), None)
            }
            SlotSchedule::Periodic { first, period } => {
                (None, VecDeque::new(), Some((first, period.max(1))))
            }
        };
        let dedup = StartDedup::new(cfg.dedup_separation());
        Station {
            cfg,
            modem,
            decoder,
            degraded_decoder,
            pool: *choir_pool::global(),
            ring,
            scanner,
            explicit,
            periodic,
            pending_detects: VecDeque::new(),
            dedup,
            prev_frame_end: None,
            queue: VecDeque::new(),
            slots: Vec::new(),
            shed: Vec::new(),
            metrics: StationMetrics::default(),
            hit_scratch: Vec::new(),
            corrupt: VecDeque::new(),
            was_degraded: false,
        }
    }

    /// Pins the decode workers to an explicit pool (tests and benches).
    pub fn with_pool(mut self, pool: ThreadPool) -> Self {
        self.pool = pool;
        self
    }

    /// The current counter snapshot.
    pub fn metrics(&self) -> &StationMetrics {
        &self.metrics
    }

    /// Captures currently queued for decode.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Ingests one chunk: appends to the ring, advances detection, cuts
    /// any slot whose capture is now fully resident, and sheds (never
    /// blocks) if the decode side is behind. Decoding itself happens in
    /// [`Station::service`].
    pub fn push_chunk(&mut self, chunk: &[C64]) {
        // The profile scope is exclusive: the nested Detect scope below
        // bills its own time, not Ingest's.
        scope(Stage::Ingest, || {
            self.metrics.chunks_ingested += 1;
            self.metrics.samples_ingested += chunk.len() as u64;
            // Hostile components are zeroed *before* the ring and detector
            // see them — detection runs FFTs whose debug sanitizers would
            // otherwise fire on garbage the station has promised to absorb
            // as a typed error.
            let sanitized = self.sanitize(chunk);
            let data: &[C64] = sanitized.as_deref().unwrap_or(chunk);
            let overwritten = self.ring.push(data);
            self.metrics.samples_dropped += overwritten;
            choir_trace::full(|| choir_trace::TraceEvent::StationIngest {
                samples: data.len() as u64,
                overwritten,
                stream_pos: self.ring.head(),
            });
            if self.scanner.is_some() {
                scope(Stage::Detect, || self.detect(data));
            }
            self.cut_ready(false);
            self.trim_ring();
        });
    }

    /// Decodes up to one batch of queued captures on the worker pool.
    /// Call once per pushed chunk for lowest latency, or at whatever pace
    /// the deployment can afford — the queue bounds memory either way.
    pub fn service(&mut self) {
        if self.queue.is_empty() {
            return;
        }
        let degraded = self.queue.len() > self.cfg.pressure_watermark.max(1);
        if degraded != self.was_degraded {
            let depth = self.queue.len() as u64;
            choir_trace::outcome(|| choir_trace::TraceEvent::StationDegrade {
                active: degraded,
                queue_depth: depth,
            });
            self.was_degraded = degraded;
        }
        let take = SERVICE_BATCH.min(self.queue.len());
        let batch: Vec<PendingCapture> = self.queue.drain(..take).collect();
        self.metrics.queue_depth = self.queue.len() as u64;
        self.decode_batch(batch, degraded);
    }

    /// Drains detection state and the queue, decoding every remaining
    /// slot (including ones truncated by end-of-stream), and returns the
    /// final report.
    pub fn finish(mut self) -> StationReport {
        if self.scanner.is_some() {
            self.hit_scratch.clear();
            if let Some(scanner) = self.scanner.as_mut() {
                scanner.flush(&mut self.hit_scratch);
            }
            self.ingest_detections();
        }
        self.cut_ready(true);
        while !self.queue.is_empty() {
            self.service();
        }
        self.metrics.queue_depth = 0;
        self.metrics.trace_snapshot();
        StationReport {
            slots: self.slots,
            shed: self.shed,
            metrics: self.metrics,
        }
    }

    /// Convenience driver: pushes every chunk, servicing after each, then
    /// finishes.
    pub fn run<I>(mut self, chunks: I) -> StationReport
    where
        I: IntoIterator<Item = IqChunk>,
    {
        for chunk in chunks {
            self.push_chunk(&chunk);
            self.service();
        }
        self.finish()
    }

    /// Ingest sanitizer: returns a copy of `chunk` with every
    /// hostile component's sample zeroed (`None` when the chunk is clean),
    /// recording each zeroed component's absolute position for typed
    /// rejection at cut time.
    fn sanitize(&mut self, chunk: &[C64]) -> Option<Vec<C64>> {
        // The common case in one branch-free pass: a NaN fails `<=` too.
        let usable = |v: f64| v.abs() <= MAX_COMPONENT;
        if chunk
            .iter()
            .fold(true, |ok, z| ok & usable(z.re) & usable(z.im))
        {
            return None;
        }
        let base = self.ring.head();
        let mut cleaned: Option<Vec<C64>> = None;
        for (i, z) in chunk.iter().enumerate() {
            let bad = [hostile_component(z.re), hostile_component(z.im)];
            if bad.iter().any(Option::is_some) {
                let buf = cleaned.get_or_insert_with(|| chunk.to_vec());
                if let Some(s) = buf.get_mut(i) {
                    *s = C64::ZERO;
                }
                for was_nan in bad.into_iter().flatten() {
                    self.corrupt.push_back((base + i as u64, was_nan));
                }
            }
        }
        cleaned
    }

    /// Feeds the incremental scanner and registers its output.
    fn detect(&mut self, chunk: &[C64]) {
        let Some(scanner) = self.scanner.as_mut() else {
            return;
        };
        self.hit_scratch.clear();
        scanner.push(chunk, &mut self.hit_scratch);
        self.ingest_detections();
    }

    /// Registers tracker output after a scanner push or flush: the
    /// tracker's own counts into the metrics (it writes the lifecycle, the
    /// station only reads it), confirmed starts (in `hit_scratch`) through
    /// the dedup policy into the sorted pending-detect queue.
    fn ingest_detections(&mut self) {
        if let Some(scanner) = self.scanner.as_ref() {
            self.metrics.windows_scanned = scanner.windows_scanned();
            let counts = scanner.counts();
            self.metrics.hyp_born = counts.born;
            self.metrics.hyp_confirmed = counts.confirmed;
            self.metrics.hyp_expired = counts.expired;
            self.metrics.hyp_merged = counts.merged;
        }
        for i in 0..self.hit_scratch.len() {
            let start = self.hit_scratch[i];
            if self.dedup.admit(start) {
                self.metrics.detector_triggers += 1;
                // Sorted insert: overlapping frames confirm out of start
                // order, and the cutter consumes boundaries front-first.
                let pos = self.pending_detects.partition_point(|&s| s <= start);
                self.pending_detects.insert(pos, start);
            } else {
                self.metrics.detections_deduped += 1;
            }
        }
    }

    /// Absolute capture range `[a, b)` for a slot boundary.
    fn capture_span(&self, slot_start: u64) -> (u64, u64) {
        let n = self.cfg.params.samples_per_symbol() as u64;
        let a = slot_start.saturating_sub(self.cfg.lead_symbols as u64 * n);
        let b = slot_start + (self.cfg.slot_symbols() + self.cfg.tail_symbols) as u64 * n;
        (a, b)
    }

    /// The next slot boundary this station expects, without consuming it.
    fn peek_next_slot(&self) -> Option<u64> {
        if let Some(&s) = self.pending_detects.front() {
            return Some(s);
        }
        if let Some(&s) = self.explicit.front() {
            return Some(s);
        }
        self.periodic.map(|(next, _)| next)
    }

    /// Consumes the slot boundary returned by [`Self::peek_next_slot`].
    fn advance_slot(&mut self) {
        if self.pending_detects.pop_front().is_some() || self.explicit.pop_front().is_some() {
            return;
        }
        if let Some((next, period)) = self.periodic {
            self.periodic = Some((next + period, period));
        }
    }

    /// Cuts every slot whose capture is resident. With `at_end` set
    /// (stream finished), also cuts slots truncated by end-of-stream.
    fn cut_ready(&mut self, at_end: bool) {
        while let Some(slot_start) = self.peek_next_slot() {
            let (mut a, b) = self.capture_span(slot_start);
            if self.scanner.is_some() {
                // Free-running slots are cut in confirmed-start order, so
                // the previous frame's span is known: exclude it from this
                // capture's lead-in (shared samples are decoded once, in
                // the slot they belong to). A genuine overlap keeps the
                // intersection — those samples are inside *this* slot's
                // own span and cannot be cut away.
                if let Some(prev_end) = self.prev_frame_end {
                    a = a.max(prev_end.min(slot_start));
                }
            }
            if at_end {
                // Nothing of this slot was ever received → it wasn't seen.
                if a >= self.ring.head() {
                    break;
                }
            } else if b > self.ring.head() {
                break; // wait for more samples
            }
            self.advance_slot();
            if self.scanner.is_some() {
                let n = self.cfg.params.samples_per_symbol() as u64;
                self.prev_frame_end = Some(slot_start + self.cfg.slot_symbols() as u64 * n);
            }
            self.cut_one(slot_start, a, b.min(self.ring.head()));
        }
    }

    /// Cuts `[a, b)` for the slot at `slot_start`, gates on occupancy,
    /// and enqueues with drop-oldest shedding.
    fn cut_one(&mut self, slot_start: u64, a: u64, b: u64) {
        self.metrics.slots_seen += 1;
        let rel_slot_start = (slot_start - a) as usize;
        let mut samples = Vec::new();
        if self.ring.copy_range(a, b, &mut samples).is_err() {
            // Part of the capture was overwritten before we got here:
            // ingest outran the decode side past the ring's capacity.
            self.shed(slot_start, ShedReason::RingOverrun);
            return;
        }
        // Components the ingest sanitizer zeroed inside this span make
        // the capture a typed rejection regardless of what the (zeroed)
        // occupancy gate would say about it.
        let mut nan = 0usize;
        let mut inf = 0usize;
        for &(abs, was_nan) in &self.corrupt {
            if abs >= b {
                break;
            }
            if abs >= a {
                if was_nan {
                    nan += 1;
                } else {
                    inf += 1;
                }
            }
        }
        let non_finite = (nan + inf > 0).then_some((nan, inf));
        // Scheduled slots are gated on preamble-region energy so an idle
        // slot costs windows, not a decode. Free-running hits already
        // proved energy at detection time.
        if non_finite.is_none() && self.scanner.is_none() {
            let occupied = scope(Stage::Detect, || self.occupied(&samples, rel_slot_start));
            if !occupied {
                self.metrics.slots_empty += 1;
                return;
            }
            self.metrics.detector_triggers += 1;
        }
        self.queue.push_back(PendingCapture {
            slot_start,
            rel_slot_start,
            samples,
            non_finite,
        });
        while self.queue.len() > self.cfg.max_in_flight.max(1) {
            if let Some(victim) = self.queue.pop_front() {
                self.shed(victim.slot_start, ShedReason::QueueFull);
            }
        }
        self.metrics.queue_depth = self.queue.len() as u64;
        self.metrics.max_queue_depth = self.metrics.max_queue_depth.max(self.metrics.queue_depth);
    }

    /// Counts, traces and lists one load-shedding decision.
    fn shed(&mut self, slot_start: u64, reason: ShedReason) {
        self.metrics.slots_shed += 1;
        choir_trace::outcome(|| choir_trace::TraceEvent::StationShed { slot_start, reason });
        self.shed.push(SheddingEvent { slot_start, reason });
    }

    /// Occupancy gate: any interior preamble window above the detection
    /// threshold. Interior windows (1..preamble_len) are pure preamble
    /// for every sub-symbol transmitter delay, so a single hot window is
    /// a reliable "somebody transmitted" signal at gate SNRs.
    fn occupied(&mut self, samples: &[C64], rel_slot_start: usize) -> bool {
        let n = self.cfg.params.samples_per_symbol();
        let mut hot = false;
        for w in 1..self.cfg.params.preamble_len {
            let lo = rel_slot_start + w * n;
            let Some(win) = samples.get(lo..lo + n) else {
                break;
            };
            self.metrics.windows_scanned += 1;
            if self.modem.detection_metric(win) >= self.cfg.detect_threshold {
                hot = true;
                break;
            }
        }
        hot
    }

    /// Discards ring samples no future capture can need.
    fn trim_ring(&mut self) {
        let mut keep_from = match self.peek_next_slot() {
            Some(s) => self.capture_span(s).0,
            None => {
                if self.scanner.is_some() {
                    // A confirmation lands at the sync word, roughly a
                    // preamble behind the stream head: retain a capture
                    // plus that lag.
                    let n = self.cfg.params.samples_per_symbol() as u64;
                    let retain =
                        self.cfg.capture_len() as u64 + (self.cfg.lead_symbols as u64 + 2) * n;
                    self.ring.head().saturating_sub(retain)
                } else {
                    self.ring.head()
                }
            }
        };
        // A live hypothesis may yet confirm with a start at its birth
        // window — its capture must still be cuttable then.
        if let Some(start) = self.scanner.as_ref().and_then(|s| s.earliest_live_start()) {
            keep_from = keep_from.min(self.capture_span(start).0);
        }
        // Dedup history behind every possible future confirmation is dead.
        if let Some(scanner) = self.scanner.as_ref() {
            let horizon = scanner
                .earliest_live_start()
                .unwrap_or_else(|| scanner.position());
            self.dedup
                .prune_below(horizon.saturating_sub(self.cfg.dedup_separation()));
        }
        self.ring.discard_until(keep_from);
        let tail = self.ring.tail();
        while self.corrupt.front().is_some_and(|&(abs, _)| abs < tail) {
            self.corrupt.pop_front();
        }
    }

    /// Decodes one drained batch, recording results and counters. A
    /// capture the ingest sanitizer marked is a typed
    /// [`DecodeError::NonFiniteInput`] in every build profile and never
    /// reaches the decoder.
    fn decode_batch(&mut self, batch: Vec<PendingCapture>, degraded: bool) {
        let dec = if degraded {
            &self.degraded_decoder
        } else {
            &self.decoder
        };
        let views: Vec<SlotView<'_>> = batch
            .iter()
            .filter(|cap| cap.non_finite.is_none())
            .map(|cap| SlotView::new(&cap.samples, cap.rel_slot_start, self.cfg.num_data_symbols))
            .collect();
        let mut decoded = dec
            .decode_slot_views_with_pool(&views, self.pool)
            .into_iter();
        for cap in &batch {
            let result = match cap.non_finite {
                Some((nan, inf)) => SlotResult {
                    users: Vec::new(),
                    error: Some(DecodeError::NonFiniteInput { nan, inf }.traced()),
                },
                None => match decoded.next() {
                    Some(r) => r,
                    None => continue,
                },
            };
            self.metrics.slots_decoded += 1;
            if degraded {
                self.metrics.degraded_decodes += 1;
            }
            if let Some(e) = result.error {
                self.metrics.decode_errors += 1;
                if e == DecodeError::NoUsersFound {
                    // The detector (or gate) fired on something the
                    // decoder could not attribute to any user.
                    self.metrics.false_triggers += 1;
                }
            }
            self.metrics.users_decoded += result.users.len() as u64;
            self.metrics.users_crc_ok += result.ok_users().count() as u64;
            self.slots.push(StationSlot {
                slot_start: cap.slot_start,
                degraded,
                result,
            });
        }
    }
}
