//! The multi-hypothesis preamble tracker: finds packet starts in a chunked
//! IQ stream.
//!
//! The preamble is a train of identical base up-chirps, so any
//! symbol-length window fully inside it dechirps to a single strong tone
//! at one persistent bin. [`StreamScanner`] follows every such candidate
//! through a born → confirmed / expired / merged lifecycle, and is that
//! lifecycle's only writer: each transition bumps [`HypothesisCounts`] and
//! emits one [`choir_trace::Hypothesis`] record in the same call.

use crate::modem::Modem;
use choir_dsp::complex::C64;
use choir_trace::{HypothesisTransition, TraceEvent, TraceLevel};

/// Minimum deflated score for a peak to birth or support a hypothesis,
/// as a fraction of the confirmation threshold. Below the floor a peak is
/// noise; at or above it, it is worth tracking even when a one-shot scan
/// would reject the window.
const BIRTH_FLOOR_FRAC: f64 = 0.5;

/// Dechirped peaks examined per window. CoRa-style deflated scoring rates
/// peak `j` against the spectrum *minus* the stronger peaks, so a weak
/// preamble stays detectable under a much stronger frame's payload.
const TOP_K: usize = 4;

/// Live-hypothesis cap. When full, the weakest live hypothesis is evicted
/// only for a stronger newcomer.
const MAX_HYPOTHESES: usize = 16;

/// Consecutive unsupported windows before a live hypothesis expires.
const EXPIRE_MISSES: u32 = 2;

/// Dechirped-bin match tolerance, circular — absorbs fractional-CFO
/// straddle between adjacent bins.
const BIN_TOLERANCE: u16 = 1;

/// Lifetime hypothesis accounting of one [`StreamScanner`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HypothesisCounts {
    /// Hypotheses ever born.
    pub born: u64,
    /// Hypotheses confirmed as packet starts.
    pub confirmed: u64,
    /// Hypotheses expired (missed out or evicted) before confirming.
    pub expired: u64,
    /// Hypotheses merged into a stronger duplicate.
    pub merged: u64,
    /// Hypotheses currently live (not yet terminal).
    pub live: u64,
}

impl HypothesisCounts {
    /// Terminal states are exclusive: every born hypothesis is confirmed,
    /// expired, merged, or still live — never more than one.
    pub fn balanced(&self) -> bool {
        self.born == self.confirmed + self.expired + self.merged + self.live
    }

    /// Counts one lifecycle transition. Folding a scan's
    /// [`choir_trace::Hypothesis`] records through this reproduces its
    /// [`StreamScanner::counts`].
    pub fn apply(&mut self, transition: HypothesisTransition) {
        match transition {
            HypothesisTransition::Born => self.born += 1,
            HypothesisTransition::Confirmed => self.confirmed += 1,
            HypothesisTransition::Expired => self.expired += 1,
            HypothesisTransition::Merged => self.merged += 1,
        }
        if transition == HypothesisTransition::Born {
            self.live += 1;
        } else {
            self.live -= 1;
        }
    }
}

/// One live candidate frame alignment.
#[derive(Clone, Copy, Debug)]
struct Hypothesis {
    id: u64,
    /// Dechirped bin the candidate persists at (fixed at birth; the
    /// match tolerance absorbs adjacent-bin straddle).
    bin: u16,
    /// Window index of the first supporting window (birth).
    first_window: u64,
    /// Window index of the most recent supporting window.
    last_window: u64,
    /// Raw (pre-deflation) peak magnitude of the most recent supporting
    /// window.
    last_mag: f64,
    /// Raw peak magnitude of the supporting window before the most
    /// recent one — a full interior window in every run shape that
    /// matters, hence the local full-coherence reference that the
    /// sync-word evidence floor is measured against.
    prev_mag: f64,
    support: u32,
    acc_score: f64,
    misses: u32,
    /// Criteria met; awaiting end-of-run to finalize the start estimate.
    pending: bool,
}

/// Post-confirmation guard: absorbs the confirmed frame's remaining
/// preamble windows so they cannot re-birth a duplicate hypothesis.
#[derive(Clone, Copy, Debug)]
struct Guard {
    bin: u16,
    until_window: u64,
}

/// Internal per-window scratch: one scored peak.
#[derive(Clone, Copy, Debug)]
struct ScoredPeak {
    bin: u16,
    /// Deflated score (birth/support/confirmation thresholds).
    score: f64,
    /// Raw peak magnitude `|X[bin]|` (edge-fraction classification).
    mag: f64,
    claimed: bool,
}

/// Incremental multi-hypothesis preamble tracker for chunked streams:
/// feed IQ in arbitrary-size chunks (one sample or a megasample at a
/// time) and the scanner reports confirmed packet starts as **absolute**
/// sample indices. Windows are re-assembled across chunk boundaries from
/// an internal sub-window carry, so chunking can never split or shift a
/// detection — the confirmed starts are invariant to segmentation.
///
/// Unlike a single-run scanner, the tracker maintains up to
/// `MAX_HYPOTHESES` (16) candidate frame alignments concurrently. The physics: every symbol-aligned window inside a
/// preamble dechirps to the *same* bin (timing and CFO combine into one
/// constant shift — Sec. 6.1), while payload windows hop bins per
/// symbol. Each window contributes its top-K deflated peaks; peaks that
/// persist at one bin accumulate support and score
/// (birth → support → pending → confirm), transient ones expire. A
/// hypothesis meeting the criteria is finalized when its *preamble run*
/// ends (first unsupported window — the sync word steps the bin — or the
/// span cap, or end of stream), which anchors the start estimate against
/// front contamination. That is still early in the frame, ~payload-length
/// before the hot run ends — which is what lets two overlapping frames
/// both surface.
#[derive(Clone, Debug)]
pub struct StreamScanner {
    modem: Modem,
    /// Confirmation level: a hypothesis confirms once its accumulated
    /// deflated-peak score reaches `threshold × min_run` with at least
    /// `min_run` supporting windows. This is LZn-style accumulation:
    /// `min_run` windows at the threshold confirm, and so do more windows
    /// each individually *below* it — sub-threshold preambles integrate
    /// up instead of being missed outright.
    threshold: f64,
    min_run: usize,
    /// Carry of `< 2^SF` samples: the tail of the pushed stream that does
    /// not yet fill a whole symbol window. `carry_start` stays a multiple
    /// of the symbol length, so windows are always phase-0 aligned.
    carry: Vec<C64>,
    /// Absolute stream index of `carry[0]`.
    carry_start: u64,
    windows: u64,
    gated: u64,
    live: Vec<Hypothesis>,
    guards: Vec<Guard>,
    next_id: u64,
    counts: HypothesisCounts,
    /// Per-window peak scratch (no per-window allocation).
    peak_scratch: Vec<ScoredPeak>,
    /// Per-bin power of the current window's dechirped spectrum
    /// (sync-word evidence lookups — the top-K peaks are too crowded to
    /// be relied on for a specific bin). Empty for gated windows.
    spec_power: Vec<f64>,
}

impl StreamScanner {
    /// Builds a tracker. `threshold` is the minimum peak-to-average ratio
    /// of the dechirped window spectrum (≈ `2^SF` for clean signal, O(1)
    /// for noise; 30–50 works for SF7–8 at the SNRs of interest).
    pub fn new(modem: Modem, threshold: f64) -> Self {
        let min_run = modem.params().preamble_len.saturating_sub(2).max(2);
        StreamScanner {
            modem,
            threshold,
            min_run,
            carry: Vec::new(),
            carry_start: 0,
            windows: 0,
            gated: 0,
            live: Vec::new(),
            guards: Vec::new(),
            next_id: 0,
            counts: HypothesisCounts::default(),
            peak_scratch: Vec::new(),
            spec_power: Vec::new(),
        }
    }

    /// Total samples pushed so far (the absolute index of the next one).
    pub fn position(&self) -> u64 {
        self.carry_start + self.carry.len() as u64
    }

    /// Symbol windows examined so far (including energy-gated ones).
    pub fn windows_scanned(&self) -> u64 {
        self.windows
    }

    /// Windows the cheap energy pre-gate skipped the FFT for.
    pub fn windows_gated(&self) -> u64 {
        self.gated
    }

    /// Current hypothesis accounting (always [`HypothesisCounts::balanced`]).
    pub fn counts(&self) -> HypothesisCounts {
        self.counts
    }

    /// Earliest packet start any *live* (unconfirmed) hypothesis still
    /// claims — samples at or after it must be retained by a streaming
    /// caller, because the hypothesis may yet confirm at that start.
    /// (Start finalization can only move a start *later* than the birth
    /// window, so the birth window is the safe retention bound.)
    pub fn earliest_live_start(&self) -> Option<u64> {
        let n = self.modem.n() as u64;
        self.live.iter().map(|h| h.first_window * n).min()
    }

    /// Consumes one chunk, appending any packet starts confirmed inside
    /// it (absolute sample indices, in confirmation order — which for
    /// overlapping frames is *not* necessarily start order).
    pub fn push(&mut self, chunk: &[C64], hits: &mut Vec<u64>) {
        let n = self.modem.n();
        self.carry.extend_from_slice(chunk);
        let mut idx = 0usize;
        while idx + n <= self.carry.len() {
            let w = (self.carry_start + idx as u64) / n as u64;
            self.windows += 1;
            let window = &self.carry[idx..idx + n];
            let energy: f64 = window.iter().map(|z| z.norm_sqr()).sum();
            // Cheap first pass: exact silence skips the dechirp/FFT, so
            // idle air costs a sum, not a transform.
            if energy <= 0.0 {
                self.gated += 1;
                self.peak_scratch.clear();
                self.spec_power.clear();
            } else {
                let spec = self.modem.symbol_spectrum(window);
                self.score_spectrum(&spec);
            }
            self.window_tick(w, hits);
            idx += n;
        }
        self.carry.drain(..idx);
        self.carry_start += idx as u64;
    }

    /// End-of-stream: finalizes every *pending* hypothesis (criteria met,
    /// run still open when the stream ended — their starts are appended to
    /// `hits`) and expires the rest (their frames can no longer complete).
    pub fn flush(&mut self, hits: &mut Vec<u64>) {
        let n = self.modem.n() as u64;
        let w = self.carry_start / n;
        for h in std::mem::take(&mut self.live) {
            if h.pending {
                // The stream ended before the run did: no next window, so
                // no sync-word evidence to anchor with.
                self.finalize_confirm(h, w, (0.0, 0.0), hits);
            } else {
                self.transition(HypothesisTransition::Expired, &h, w, h.first_window * n);
            }
        }
        self.guards.clear();
    }

    /// The lifecycle's one writer: counts `transition` and records it
    /// (`Confirmed` at `Outcome`, the rest at `Full`), so the counts and
    /// the log cannot disagree. `start` is the candidate's packet start as
    /// of this transition. The record carries a score only where one is
    /// defined — the birthing peak's at birth, the accumulated one at
    /// confirmation — and no support for an absorbed duplicate.
    fn transition(
        &mut self,
        transition: HypothesisTransition,
        h: &Hypothesis,
        window: u64,
        start: u64,
    ) {
        use HypothesisTransition::{Born, Confirmed, Merged};
        self.counts.apply(transition);
        let level = if transition == Confirmed {
            TraceLevel::Outcome
        } else {
            TraceLevel::Full
        };
        choir_trace::emit(level, || {
            TraceEvent::Hypothesis(choir_trace::Hypothesis {
                transition,
                id: h.id,
                window,
                start,
                bin: h.bin,
                score: if matches!(transition, Born | Confirmed) {
                    h.acc_score
                } else {
                    0.0
                },
                support: if transition == Merged { 0 } else { h.support },
            })
        });
    }

    /// Raw spectrum magnitudes of the current window at the two bins
    /// where a hypothesis tracked at `bin` would show its sync-word
    /// symbols (`(bin + SYNC_SYMBOLS[i]) mod n`, by the common-shift
    /// property). Read from the full dechirped spectrum, not the top-K
    /// peaks — a weak sync fragment is routinely crowded out of the
    /// top-K by other users' windows, but sits at a *known* bin, so it
    /// needs no peak search. `(0.0, 0.0)` for gated windows.
    fn sync_evidence(&self, bin: u16) -> (f64, f64) {
        let alphabet = self.spec_power.len() as u16;
        if alphabet == 0 {
            return (0.0, 0.0);
        }
        let mut ev = [0.0f64; 2];
        for (slot, sync) in ev.iter_mut().zip(crate::frame::SYNC_SYMBOLS) {
            let target = (bin + sync % alphabet) % alphabet;
            for d in 0..=BIN_TOLERANCE {
                for b in [(target + d) % alphabet, (target + alphabet - d) % alphabet] {
                    *slot = slot.max(self.spec_power[b as usize]);
                }
            }
        }
        (ev[0].sqrt(), ev[1].sqrt())
    }

    /// A pending hypothesis's preamble run has ended (first miss or end
    /// of stream): resolve its start estimate and report it.
    ///
    /// The downstream decoder's timing search absorbs a residual of
    /// `[0, n)` samples, so the reported start must be the symbol window
    /// *flooring* the true frame start — one window late (a negative
    /// residual) is undecodable, one window early is out of search range.
    ///
    /// What anchors the estimate: a repeated-upchirp preamble is periodic
    /// with the symbol length, so for a frame misaligned by `r ∈ (0, n)`
    /// samples every grid window inside the preamble dechirps to the same
    /// bin `b` (CFO and `r` combine into one shift — Sec. 6.1), and the
    /// run shape alone cannot say which window floors the true start —
    /// edge-window *strength* is unreliable (fractional-bin scalloping
    /// hits full windows harder than partial ones, and deflation inflates
    /// quiet edge windows). The sync word can: by the common-shift
    /// property, a window containing any fragment of sync symbol `v`
    /// shows a peak at exactly `(b + v) mod n`, whichever part of the
    /// symbol it caught. The window that *ended* the run (`w`, the first
    /// unsupported one) therefore tells us where the preamble stopped:
    ///
    /// * peak at `b + SYNC[1]` — `w` holds the tail of sync-1 plus the
    ///   head of sync-2, so the last supported window was the trailing
    ///   straddle: `start = last - l`.
    /// * else peak at `b + SYNC[0]` — `w` is sync-1 itself, so the run
    ///   ended on the final full preamble window (aligned frame, or the
    ///   trailing straddle was too weak to support): `start = last + 1 -
    ///   l`. Same-bin contamination ahead of the preamble (e.g. the
    ///   payload tail of a zero-gap predecessor) stretches the run but
    ///   lands here too, anchored from the trustworthy end.
    /// * neither — the run was cut mid-preamble (collision, noise,
    ///   end-of-stream flush): the birth window is the best available
    ///   anchor.
    ///
    /// The rule needs no run-shape heuristics at all: at a tick-time
    /// finalize `last_window` is always `w - 1` (pending hypotheses end
    /// at their first miss), so the evidence directly names the window
    /// that floors the start — gappy support and front contamination
    /// change nothing. Evidence must clear a magnitude floor relative to
    /// `prev_mag` (the penultimate supporting window — a full interior
    /// window in every shape that matters, hence a contamination-proof
    /// full-coherence reference).
    fn finalize_confirm(
        &mut self,
        h: Hypothesis,
        w: u64,
        sync_ev: (f64, f64),
        hits: &mut Vec<u64>,
    ) {
        let n = self.modem.n() as u64;
        let l = self.modem.params().preamble_len as u64;
        let full = h.prev_mag.max(f64::MIN_POSITIVE);
        let (m_sync1, m_sync2) = sync_ev;
        let ev_floor = 0.1 * full;
        let start_w = if m_sync2 >= ev_floor && h.last_window >= l {
            h.last_window - l
        } else if m_sync1 >= ev_floor && h.last_window + 1 >= l {
            h.last_window + 1 - l
        } else {
            h.first_window
        };
        let start = start_w * n;
        let guard_span = l + 2;
        self.guards.push(Guard {
            bin: h.bin,
            until_window: w + guard_span,
        });
        self.transition(HypothesisTransition::Confirmed, &h, w, start);
        hits.push(start);
    }

    /// Fills `peak_scratch` with the window's top-K deflated peaks.
    ///
    /// Deflation (CoRa): peak `j` is scored against the spectrum minus
    /// all stronger peaks — `score_j = peak_j · 2^SF / (total − Σ_{i<j}
    /// peak_i)` — so the strongest peak gets exactly the classic
    /// peak-to-average [`Modem::detection_metric`], and a 20 dB weaker
    /// preamble tone under a strong frame's payload is scored against
    /// the *residual*, not drowned by the strong peak in the
    /// denominator.
    fn score_spectrum(&mut self, spec: &[C64]) {
        let n = self.modem.n();
        // Top-K selection by power, ties to the lower bin (deterministic).
        self.peak_scratch.clear();
        self.spec_power.clear();
        self.spec_power.extend(spec.iter().map(|z| z.norm_sqr()));
        let mut tops = [(usize::MAX, f64::NEG_INFINITY); TOP_K];
        for (b, &p) in self.spec_power.iter().enumerate() {
            if p > tops[TOP_K - 1].1 {
                let mut j = TOP_K - 1;
                tops[j] = (b, p);
                while j > 0 && tops[j].1 > tops[j - 1].1 {
                    tops.swap(j, j - 1);
                    j -= 1;
                }
            }
        }
        let total: f64 = self.spec_power.iter().sum();
        if total <= 0.0 {
            return;
        }
        // Anything the deflation drives below this is numerical dust, not
        // signal: stop before cancellation inflates a junk score.
        let residual_floor = total * 1e-9;
        let mut residual = total;
        for &(b, p) in &tops {
            if b == usize::MAX || p <= 0.0 || residual <= residual_floor {
                break;
            }
            let score = (p * n as f64 / residual).min(n as f64);
            // Bins are < 2^SF ≤ 4096, far inside u16.
            self.peak_scratch.push(ScoredPeak {
                bin: b as u16,
                score,
                mag: p.sqrt(),
                claimed: false,
            });
            residual -= p;
        }
    }

    /// Advances every hypothesis by one window: support matching, miss
    /// expiry, online confirmation, births, merges, guard upkeep — in
    /// that fixed order, so the outcome is deterministic and invariant
    /// to chunk segmentation.
    fn window_tick(&mut self, w: u64, hits: &mut Vec<u64>) {
        let n = self.modem.n() as u64;
        let floor = self.threshold * BIRTH_FLOOR_FRAC;
        let alphabet = self.modem.n() as u16;

        // 1. Support: each peak (strongest first) claims at most one live
        //    hypothesis, each hypothesis takes at most one peak.
        let mut supported = [false; MAX_HYPOTHESES];
        for pi in 0..self.peak_scratch.len() {
            let peak = self.peak_scratch[pi];
            if peak.score < floor {
                continue;
            }
            let mut best: Option<(u16, usize)> = None;
            for (hi, h) in self.live.iter().enumerate() {
                if supported[hi] {
                    continue;
                }
                let d = circ_dist(h.bin, peak.bin, alphabet);
                if d <= BIN_TOLERANCE && best.is_none_or(|(bd, _)| d < bd) {
                    best = Some((d, hi));
                }
            }
            if let Some((_, hi)) = best {
                let h = &mut self.live[hi];
                h.support += 1;
                h.acc_score += peak.score;
                h.misses = 0;
                h.last_window = w;
                h.prev_mag = h.last_mag;
                h.last_mag = peak.mag;
                supported[hi] = true;
                self.peak_scratch[pi].claimed = true;
            }
        }

        // 2. Run endings. A hypothesis meeting the confirmation criteria
        //    turns *pending*: it keeps tracking until its preamble run
        //    demonstrably ends — the first unsupported window (the sync
        //    word steps the bin) or end of stream — and only then is the
        //    start finalized and reported. Finalizing any earlier (e.g.
        //    at a span cap) risks cutting mid-preamble when front
        //    contamination stretched the run, which would mis-anchor the
        //    start by a symbol; the tail anchor in `finalize_confirm`
        //    makes arbitrarily long contamination harmless, so waiting is
        //    free. That is still during the frame (the run ends at the
        //    sync word, ~payload-length before the frame does), which is
        //    what lets overlapping frames both surface. Unsupported
        //    unconfirmed hypotheses age out instead.
        let confirm_acc = self.threshold * self.min_run as f64;
        let mut hi = 0usize;
        while hi < self.live.len() {
            let supported_now = supported[hi];
            {
                let h = &mut self.live[hi];
                if supported_now
                    && !h.pending
                    && h.support as usize >= self.min_run
                    && h.acc_score >= confirm_acc
                {
                    h.pending = true;
                }
            }
            let h = self.live[hi];
            if h.pending && !supported_now {
                self.live.remove(hi);
                supported.copy_within(hi + 1.., hi);
                let ev = self.sync_evidence(h.bin);
                self.finalize_confirm(h, w, ev, hits);
                continue;
            }
            if !supported_now {
                let h = &mut self.live[hi];
                h.misses += 1;
                if h.misses > EXPIRE_MISSES {
                    let dead = self.live.remove(hi);
                    supported.copy_within(hi + 1.., hi);
                    self.transition(
                        HypothesisTransition::Expired,
                        &dead,
                        w,
                        dead.first_window * n,
                    );
                    continue;
                }
            }
            hi += 1;
        }

        // 4. Births: unclaimed peaks above the floor start new candidates,
        //    unless a guard or an already-tracked bin absorbs them. When
        //    the live set is full, the weakest is evicted only for a
        //    stronger newcomer.
        for pi in 0..self.peak_scratch.len() {
            let peak = self.peak_scratch[pi];
            if peak.claimed || peak.score < floor {
                continue;
            }
            let guarded = self.guards.iter().any(|g| {
                w <= g.until_window && circ_dist(g.bin, peak.bin, alphabet) <= BIN_TOLERANCE
            });
            if guarded {
                continue;
            }
            let tracked = self
                .live
                .iter()
                .any(|h| circ_dist(h.bin, peak.bin, alphabet) <= BIN_TOLERANCE);
            if tracked {
                continue;
            }
            if self.live.len() >= MAX_HYPOTHESES {
                // Evict the weakest (lowest accumulated score; ties to the
                // earliest index) only if the newcomer outscores it.
                // Pending hypotheses are confirmations-in-waiting — never
                // evicted.
                let weakest = self
                    .live
                    .iter()
                    .enumerate()
                    .filter(|(_, h)| !h.pending)
                    .min_by(|a, b| a.1.acc_score.total_cmp(&b.1.acc_score))
                    .map(|(i, h)| (i, h.acc_score));
                match weakest {
                    Some((wi, wscore)) if wscore < peak.score => {
                        let dead = self.live.remove(wi);
                        self.transition(
                            HypothesisTransition::Expired,
                            &dead,
                            w,
                            dead.first_window * n,
                        );
                    }
                    _ => continue,
                }
            }
            let born = Hypothesis {
                id: self.next_id,
                bin: peak.bin,
                first_window: w,
                last_window: w,
                last_mag: peak.mag,
                prev_mag: peak.mag,
                support: 1,
                acc_score: peak.score,
                misses: 0,
                pending: false,
            };
            self.next_id += 1;
            self.live.push(born);
            self.transition(HypothesisTransition::Born, &born, w, w * n);
        }

        // 5. Merge duplicates: two live hypotheses within bin tolerance
        //    track the same frame (fractional-CFO straddle births both
        //    adjacent bins). A pending hypothesis survives the merge
        //    unconditionally (it owes a confirmation); between two
        //    non-pending ones the higher accumulated score wins. Two
        //    pending hypotheses are never folded.
        let mut i = 0usize;
        while i < self.live.len() {
            let mut j = i + 1;
            let mut merged_any = false;
            while j < self.live.len() {
                let close =
                    circ_dist(self.live[i].bin, self.live[j].bin, alphabet) <= BIN_TOLERANCE;
                if close && !(self.live[i].pending && self.live[j].pending) {
                    let j_wins = self.live[j].pending
                        || (!self.live[i].pending
                            && self.live[j].acc_score > self.live[i].acc_score);
                    let loser = self.live.remove(if j_wins { i } else { j });
                    self.transition(
                        HypothesisTransition::Merged,
                        &loser,
                        w,
                        loser.first_window * n,
                    );
                    merged_any = true;
                    break;
                }
                j += 1;
            }
            if !merged_any {
                i += 1;
            }
        }

        // 6. Retire spent guards.
        self.guards.retain(|g| g.until_window >= w);
    }
}

/// Circular distance between two dechirped bins (the alphabet wraps).
fn circ_dist(a: u16, b: u16, alphabet: u16) -> u16 {
    let d = a.abs_diff(b);
    d.min(alphabet - d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::{decode_packet, synchronize, transmit_packet, RxError};
    use crate::params::{Bandwidth, CodeRate, PhyParams, SpreadingFactor};

    fn params() -> PhyParams {
        PhyParams {
            sf: SpreadingFactor::Sf8,
            bw: Bandwidth::Khz125,
            cr: CodeRate::Cr48,
            preamble_len: 8,
            explicit_crc: true,
        }
    }

    /// The single-run scan the tracker replaced, kept as the reference
    /// `stream_scanner_matches_one_shot_scan` compares against: a run of
    /// at least `preamble_len − 2` symbol-aligned windows at or above
    /// `threshold` marks a packet start, accurate to within one symbol.
    fn scan_for_packets(samples: &[C64], modem: &Modem, threshold: f64) -> Vec<usize> {
        let n = modem.n();
        let min_run = modem.params().preamble_len.saturating_sub(2).max(2);
        let mut starts = Vec::new();
        let mut run = 0usize;
        let mut run_start = 0usize;
        let mut w = 0usize;
        while (w + 1) * n <= samples.len() {
            let window = &samples[w * n..(w + 1) * n];
            if modem.detection_metric(window) >= threshold {
                if run == 0 {
                    run_start = w * n;
                }
                run += 1;
            } else {
                if run >= min_run {
                    starts.push(run_start);
                }
                run = 0;
            }
            w += 1;
        }
        if run >= min_run {
            starts.push(run_start);
        }
        starts
    }

    #[test]
    fn decode_with_leading_silence_and_scan() {
        let p = params();
        let modem = Modem::new(p);
        let payload = b"find me".to_vec();
        let mut stream = vec![C64::ZERO; 5 * 256 + 13];
        // Scan assumes symbol-aligned windows; place packet symbol-aligned
        // after silence for the coarse scan, then fine offset via the known
        // start for decode.
        let mut stream2 = vec![C64::ZERO; 5 * 256];
        stream2.extend(transmit_packet(&p, &payload));
        stream2.extend(vec![C64::ZERO; 3 * 256]);
        let hits = scan_for_packets(&stream2, &modem, 40.0);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0], 5 * 256);
        let out = decode_packet(&stream2, &modem, hits[0], 200).unwrap();
        assert_eq!(out.payload, payload);
        // Unaligned leading silence: decode via exact known start.
        stream.extend(transmit_packet(&p, &payload));
        let out2 = decode_packet(&stream, &modem, 5 * 256 + 13, 200).unwrap();
        assert_eq!(out2.payload, payload);
    }

    #[test]
    fn scan_finds_two_packets() {
        let p = params();
        let modem = Modem::new(p);
        let mut stream = vec![C64::ZERO; 2 * 256];
        stream.extend(transmit_packet(&p, b"one"));
        stream.extend(vec![C64::ZERO; 4 * 256]);
        let second_at = stream.len();
        stream.extend(transmit_packet(&p, b"two"));
        stream.extend(vec![C64::ZERO; 256]);
        let hits = scan_for_packets(&stream, &modem, 40.0);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0], 2 * 256);
        assert_eq!(hits[1], second_at);
    }

    #[test]
    fn no_packet_in_noise() {
        let stream: Vec<C64> = (0..4096)
            .map(|i| C64::cis((i * i % 97) as f64 * 0.39) * 0.1)
            .collect();
        let modem = Modem::new(params());
        assert!(scan_for_packets(&stream, &modem, 40.0).is_empty());
        assert_eq!(
            synchronize(&[C64::ZERO; 100], &modem, 0),
            Err(RxError::NotFound)
        );
    }

    /// For clean, non-overlapping packets the tracker confirms exactly
    /// the starts a one-shot `scan_for_packets` reports, for any chunking
    /// of the same stream — including chunks that split symbol windows
    /// and the preamble itself.
    #[test]
    fn stream_scanner_matches_one_shot_scan() {
        let p = params();
        let modem = Modem::new(p);
        let mut stream = vec![C64::ZERO; 3 * 256 + 71];
        stream.extend(transmit_packet(&p, b"first"));
        stream.extend(vec![C64::ZERO; 5 * 256]);
        stream.extend(transmit_packet(&p, b"second packet"));
        stream.extend(vec![C64::ZERO; 2 * 256 + 19]);
        let reference: Vec<u64> = scan_for_packets(&stream, &modem, 40.0)
            .iter()
            .map(|&s| s as u64)
            .collect();
        assert!(!reference.is_empty(), "scan found nothing to compare");
        // Deterministic "random" chunk lengths, including 1-sample chunks.
        let mut lens = [1usize, 255, 256, 257, 13, 4096, 777, 2048, 3, 100]
            .iter()
            .cycle();
        for trial in 0..3 {
            let mut scanner = StreamScanner::new(modem.clone(), 40.0);
            let mut hits = Vec::new();
            let mut off = 0usize;
            while off < stream.len() {
                let len = (*lens.next().unwrap() + trial * 7).clamp(1, stream.len() - off);
                scanner.push(&stream[off..off + len], &mut hits);
                off += len;
            }
            scanner.flush(&mut hits);
            assert_eq!(hits, reference, "trial {trial}");
            assert_eq!(scanner.position(), stream.len() as u64);
            assert_eq!(scanner.windows_scanned(), (stream.len() / 256) as u64);
            assert!(scanner.counts().balanced(), "{:?}", scanner.counts());
            assert_eq!(scanner.counts().live, 0, "flush expires everything");
        }
    }

    /// A preamble reaching the criteria confirms even when the stream
    /// (and its final chunk) ends the moment the run does, with no quiet
    /// window after it: `flush` finalizes the pending hypothesis. With a
    /// complete frame the confirmation instead lands at the sync word —
    /// during the frame, not after its hot run ends.
    #[test]
    fn stream_scanner_confirms_truncated_run_at_flush() {
        let p = params();
        let modem = Modem::new(p);
        let mut stream = vec![C64::ZERO; 2 * 256];
        let wave = transmit_packet(&p, b"truncated");
        stream.extend(&wave[..6 * 256]); // 6 preamble symbols, then the stream ends
        let mut scanner = StreamScanner::new(modem.clone(), 40.0);
        let mut hits = Vec::new();
        scanner.push(&stream, &mut hits);
        scanner.flush(&mut hits);
        assert_eq!(hits, vec![2 * 256], "flush must finalize the open run");
        assert!(scanner.counts().balanced());
        // With the full frame present, confirmation is online: it lands at
        // the sync word, well before the frame's hot run ends.
        let mut full = vec![C64::ZERO; 2 * 256];
        full.extend(&wave);
        let mut scanner = StreamScanner::new(modem, 40.0);
        let mut hits = Vec::new();
        scanner.push(&full[..11 * 256], &mut hits); // preamble + sync only
        assert_eq!(hits, vec![2 * 256], "confirmed at the sync word");
    }

    /// Regression: two back-to-back frames with zero gap form one
    /// contiguous run of hot windows, and when that run ends exactly at
    /// the final chunk boundary the old single-run scanner's `flush`
    /// reported only the first start — the second frame was lost inside
    /// the merged run. The tracker follows each frame's persistent
    /// preamble bin separately, so both starts must surface, and
    /// `position()` must account for the full stream.
    #[test]
    fn back_to_back_runs_ending_at_final_chunk_boundary_both_reported() {
        let p = params();
        let modem = Modem::new(p);
        let mut stream = vec![C64::ZERO; 2 * 256];
        let first = transmit_packet(&p, b"frame A");
        let second_at = stream.len() + first.len();
        stream.extend(&first);
        stream.extend(transmit_packet(&p, b"frame B")); // zero-gap: run never breaks
        assert_eq!(
            stream.len() % 256,
            0,
            "run must end exactly on a window edge"
        );
        // Push so the final chunk boundary coincides with the run's end.
        let mut scanner = StreamScanner::new(modem, 40.0);
        let mut hits = Vec::new();
        scanner.push(&stream[..second_at], &mut hits);
        scanner.push(&stream[second_at..], &mut hits);
        scanner.flush(&mut hits);
        assert_eq!(
            hits,
            vec![2 * 256, second_at as u64],
            "both zero-gap frames must be reported"
        );
        assert_eq!(scanner.position(), stream.len() as u64);
        assert!(scanner.counts().balanced());
    }

    /// LZn-style accumulation: a preamble whose per-window score sits
    /// below the confirmation threshold must still confirm once enough
    /// windows integrate up — the one-shot threshold scan misses it.
    #[test]
    fn sub_threshold_preamble_confirms_by_accumulation() {
        let p = params();
        let modem = Modem::new(p);
        // Attenuate so each clean window scores ≈ 0.63·256 ≈ 161 — below a
        // 200 threshold, above the 100 birth floor. 8 preamble windows
        // accumulate ≈ 1290 ≥ 200·6 = 1200.
        let att = 1.305; // amplitude²/(amplitude²+1) ≈ 0.63 at |a|² ≈ 1.70
        let wave: Vec<C64> = transmit_packet(&p, b"faint")
            .into_iter()
            .map(|z| z * att)
            .collect();
        // Deterministic unit-power pseudo-noise to absorb the metric:
        // uniform per-component width √6 gives complex power 2·6/12 = 1.
        let mut state = 0xDEADBEEFu64;
        let mut noise = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let mut stream = vec![C64::ZERO; 4 * 256];
        stream.extend(&wave);
        stream.extend(vec![C64::ZERO; 2 * 256]);
        let w6 = 6f64.sqrt();
        for z in stream.iter_mut() {
            *z += choir_dsp::complex::c64(noise() * w6, noise() * w6);
        }
        assert!(
            scan_for_packets(&stream, &modem, 200.0).is_empty(),
            "one-shot scan at this threshold must miss the faint preamble"
        );
        let mut scanner = StreamScanner::new(modem, 200.0);
        let mut hits = Vec::new();
        scanner.push(&stream, &mut hits);
        scanner.flush(&mut hits);
        assert_eq!(hits, vec![4 * 256], "accumulation must confirm it");
    }

    /// Two frames overlapping 50% must both confirm — the second frame's
    /// preamble lies entirely under the first frame's payload, which is
    /// exactly what multi-peak deflated scoring is for.
    #[test]
    fn overlapping_frames_both_confirm() {
        let p = params();
        let modem = Modem::new(p);
        let a = transmit_packet(&p, b"frame A payload");
        let b = transmit_packet(&p, b"frame B payload");
        let b_at = 2 * 256 + (a.len() / 2 / 256) * 256; // symbol-aligned 50% in
        let total = (2 * 256 + a.len()).max(b_at + b.len()) + 2 * 256;
        let mut stream = vec![C64::ZERO; total];
        for (i, v) in a.iter().enumerate() {
            stream[2 * 256 + i] += *v;
        }
        for (i, v) in b.iter().enumerate() {
            stream[b_at + i] += *v;
        }
        let mut scanner = StreamScanner::new(modem.clone(), 40.0);
        let mut hits = Vec::new();
        scanner.push(&stream, &mut hits);
        scanner.flush(&mut hits);
        assert!(
            hits.contains(&(2 * 256)) && hits.contains(&(b_at as u64)),
            "both overlapping frames must confirm, got {hits:?}"
        );
        // The old single-run semantics (scan_for_packets) merge them.
        assert_eq!(scan_for_packets(&stream, &modem, 40.0), vec![2 * 256]);
    }

    /// The cheap energy pre-gate skips the FFT on silent air but still
    /// counts the window as scanned.
    #[test]
    fn energy_gate_skips_silence() {
        let p = params();
        let modem = Modem::new(p);
        let mut stream = vec![C64::ZERO; 6 * 256];
        stream.extend(transmit_packet(&p, b"gated"));
        let mut scanner = StreamScanner::new(modem, 40.0);
        let mut hits = Vec::new();
        scanner.push(&stream, &mut hits);
        assert_eq!(hits, vec![6 * 256]);
        assert_eq!(scanner.windows_scanned(), (stream.len() / 256) as u64);
        assert_eq!(scanner.windows_gated(), 6, "six leading silent windows");
    }

    /// The flight recorder is the lifecycle log: the records one scan
    /// emits fold to exactly its `counts()`.
    #[test]
    fn drained_records_fold_to_counts() {
        const MARKER: TraceEvent = TraceEvent::MacSlot {
            slot: u64::MAX,
            offered: 0,
            delivered: 0,
        };
        let p = params();
        let modem = Modem::new(p);
        let mut stream = vec![C64::ZERO; 2 * 256];
        stream.extend(transmit_packet(&p, b"events"));
        stream.extend(vec![C64::ZERO; 3 * 256]);
        // The recorder is process-wide and the tracker tests beside this
        // one emit into it while the level is up: keep this thread's
        // records only, its id read off a marker emitted first.
        let level = choir_trace::level();
        choir_trace::set_level(TraceLevel::Full);
        choir_trace::full(|| MARKER);
        let mut scanner = StreamScanner::new(modem, 40.0);
        let mut hits = Vec::new();
        scanner.push(&stream, &mut hits);
        scanner.flush(&mut hits);
        let log = choir_trace::drain();
        choir_trace::set_level(level);
        let me = log.iter().find(|r| r.event == MARKER).map(|r| r.thread);
        let mut folded = HypothesisCounts::default();
        for r in log.iter().filter(|r| Some(r.thread) == me) {
            if let TraceEvent::Hypothesis(h) = r.event {
                folded.apply(h.transition);
            }
        }
        assert_eq!(folded, scanner.counts());
        assert!(folded.balanced());
        assert_eq!(folded.confirmed, 1);
        assert_eq!(folded.live, 0, "flush drained the live set");
    }
}
