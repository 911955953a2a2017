//! Stage 3b: packet-level successive interference cancellation
//! (Secs. 5.2, 6.1) — per-user waveform reconstruction and subtraction,
//! the CFO refinement that makes the subtraction deep enough for near-far
//! collisions, and the multi-pass loop that drives demodulation and
//! cancellation over every user: a candidate earns its data windows with
//! its header, and a user whose frame checks out is final.

use choir_dsp::backend::{axpy, conj_dot, tone_into};
use choir_dsp::complex::C64;
use choir_dsp::workspace;
use lora_phy::frame::{decode_frame, DecodedFrame, FrameError};

use super::demod::CombDecision;
use super::{ChoirDecoder, DecodedUser, UserEstimate};
use crate::estimator::ToneFit;
use crate::profile::{scope, Stage};

/// One user's state across the SIC passes.
pub(super) struct UserPass {
    /// The user's estimate, re-acquired on every turn.
    pub(super) user: UserEstimate,
    /// Comb decisions of the latest demodulating turn, one per window it
    /// read: the preamble and sync windows only when they failed the
    /// header rule ([`ChoirDecoder::header_holds`]), every window
    /// otherwise.
    pub(super) decisions: Vec<CombDecision>,
    /// Winning value of each decision.
    pub(super) symbols: Vec<u16>,
    /// Windows of the latest demodulating turn that ran past the capture.
    pub(super) erasures: usize,
    /// The frame chain's plain verdict on the data symbols of the latest
    /// demodulating turn; `None` when its header failed.
    pub(super) frame: Option<Result<DecodedFrame, FrameError>>,
    /// Set once a turn's frame is `crc_ok && fec_reliable` on a clean
    /// header: its symbols and verdict are never re-decided, and later
    /// passes only re-fit and re-subtract it.
    is_final: bool,
    /// What this user's latest subtraction removed from the working
    /// signal, so a later pass can put the user back — to re-decode it
    /// against an otherwise-cleaned signal, or, once it is final, to
    /// re-fit its subtraction there.
    cancelled: Cancelled,
}

/// What one subtraction of a user's packet removed, as the fit that made
/// it: the template of every symbol follows from its value and the pass's
/// timing and CFO, so the gains are all a put-back needs
/// ([`ChoirDecoder::put_back`]).
#[derive(Default)]
struct Cancelled {
    /// The timing the symbols were placed at (chips).
    timing_chips: f64,
    /// The CFO their templates were turned by (bins).
    cfo_bins: f64,
    /// Per symbol, in order from symbol 0: its value and the gains fitted
    /// to its two constant-phase segments ([`SymbolSpan::wrap`]), zero
    /// where a segment is empty or held no template energy. Empty when
    /// nothing is subtracted.
    symbols: Vec<(u16, [C64; 2])>,
}

/// Where one symbol of a user sits in the working signal.
#[derive(Clone, Copy)]
struct SymbolSpan {
    /// Fractional sample the symbol starts at.
    start: f64,
    /// First whole sample it covers.
    first: usize,
    /// One past the last, clipped to the signal; `≤ first` when none is.
    last: usize,
}

impl SymbolSpan {
    fn new(len: usize, slot_start: usize, sym_idx: usize, n: usize, timing_chips: f64) -> Self {
        let n_f = n as f64;
        let start = slot_start as f64 + sym_idx as f64 * n_f + timing_chips;
        SymbolSpan {
            start,
            first: start.ceil().max(0.0) as usize,
            last: ((start + n_f).ceil().max(0.0) as usize).min(len),
        }
    }

    fn len(&self) -> usize {
        self.last.saturating_sub(self.first)
    }

    /// Where the span splits into its two constant-phase segments: the
    /// chirp wraps from +B/2 to −B/2 `n − value` chips into the symbol,
    /// and any sub-chip timing error turns that wrap into a phase step.
    /// Clipped to the span, so either segment may be empty.
    fn wrap(&self, n: usize, value: u16) -> usize {
        let wrap_global = self.start + (n - value as usize) as f64;
        (wrap_global.ceil().max(self.first as f64) as usize).min(self.last)
    }

    /// The symbol's chirp over the span turned by a carrier `cfo_bins`
    /// off (`out` holds [`Self::len`] samples, `up` is the base up-chirp
    /// at integer chips), up to one unit constant on each side of
    /// [`Self::wrap`] — which a per-segment gain absorbs exactly.
    ///
    /// With `ε = first − start` and `j = i − first`, the chirp's phase
    /// `symbol_phase(n, s, j + ε)/2π` is `j²/2n − j/2 + (s + ε)·j/n` plus
    /// whole cycles plus a constant on each side of the wrap, and the
    /// carrier adds `cfo·j/n` plus a constant: the base up-chirp's table
    /// times one tone at `s + ε + cfo`.
    // hot:noalloc — one tone kernel call and a product, in `out`.
    fn chirp_into(&self, n: usize, value: u16, cfo_bins: f64, up: &[C64], out: &mut [C64]) {
        let eps = self.first as f64 - self.start;
        // Whole bins are whole cycles at integer `j`: fold the tone into
        // one band so its phase stays small.
        let freq = (value as f64 + eps + cfo_bins).rem_euclid(n as f64);
        tone_into(out, n, freq);
        for (o, u) in out.iter_mut().zip(up) {
            *o = u * *o;
        }
    }
}

/// Fills `fit` with what the subtraction's CFO fit reads of the signal:
/// the two-symbol stretches after symbols 1, 3 and 5, each fitted
/// symbol's two constant-phase segments derotated by its chirp, with the
/// chirp's energy as the segment's basis energy. `up` is the base
/// up-chirp ([`SymbolSpan::chirp_into`]); a frame too short for a probe
/// symbol leaves the fit empty.
// hot:noalloc — one chirp row from the workspace, segments into the fit.
fn cfo_segments(
    fit: &mut ToneFit<'_>,
    up: &[C64],
    work: &[C64],
    slot_start: usize,
    symbols: &[u16],
    timing_chips: f64,
) {
    let n = up.len();
    // A span never outgrows its two-symbol stretch.
    let mut chirp = workspace::take(2 * n);
    for sym_idx in [1usize, 3, 5].into_iter().filter(|&i| i < symbols.len()) {
        // The stretch rebased to index 0, with the span of its symbol
        // there.
        let lo = slot_start + sym_idx * n;
        let stretch = &work[lo..(lo + 2 * n).min(work.len())];
        let span = SymbolSpan::new(stretch.len(), 0, 0, n, timing_chips);
        let value = symbols[sym_idx];
        let chirp = &mut chirp[..span.len()];
        span.chirp_into(n, value, 0.0, up, chirp);
        let wrap = span.wrap(n, value);
        for (a, b) in [(span.first, wrap), (wrap, span.last)] {
            if b <= a {
                continue;
            }
            let chirp = &chirp[a - span.first..b - span.first];
            let chirp_energy: f64 = chirp.iter().map(|c| c.norm_sqr()).sum();
            if chirp_energy <= 1e-12 {
                continue;
            }
            let seg = fit.push(b - a, chirp_energy);
            for ((z, y), c) in seg.iter_mut().zip(&stretch[a..b]).zip(chirp) {
                *z = y * c.conj();
            }
        }
    }
    workspace::put(chirp);
}

impl ChoirDecoder {
    /// Reconstructs and subtracts one user's symbol from the capture:
    /// fits a single complex gain of the analytically generated symbol
    /// waveform (chirp shifted by `Δ`, rotated by the CFO comb) over its
    /// actual sample span. Returns the gains of its two segments, so a
    /// later SIC pass can add it back.
    fn subtract_symbol(
        &self,
        work: &mut [C64],
        slot_start: usize,
        sym_idx: usize,
        value: u16,
        timing_chips: f64,
        cfo_bins: f64,
    ) -> [C64; 2] {
        scope(Stage::Sic, || {
            let n = self.est.n();
            let span = SymbolSpan::new(work.len(), slot_start, sym_idx, n, timing_chips);
            let mut template = workspace::take(span.len());
            span.chirp_into(n, value, cfo_bins, &self.upchirp, &mut template);
            let gains = self.subtract_chirp(work, span, &template, value);
            workspace::put(template);
            gains
        })
    }

    /// [`Self::subtract_symbol`] given the symbol's span and its template
    /// over it ([`SymbolSpan::chirp_into`]): one least-squares gain per
    /// constant-phase segment ([`SymbolSpan::wrap`]) — independent gains
    /// absorb the phase step at the wrap, and the template's unit constant
    /// on either side of it, exactly. Returns the two gains, zero for a
    /// segment it left alone.
    // hot:noalloc — two dots and one update a segment, in place.
    fn subtract_chirp(
        &self,
        work: &mut [C64],
        span: SymbolSpan,
        template: &[C64],
        value: u16,
    ) -> [C64; 2] {
        let SymbolSpan { first, last, .. } = span;
        let wrap = span.wrap(self.est.n(), value);
        let mut gains = [C64::ZERO; 2];
        for ((lo, hi), gain) in [(first, wrap), (wrap, last)].into_iter().zip(&mut gains) {
            if hi <= lo {
                continue;
            }
            let t = &template[lo - first..hi - first];
            let den = conj_dot(t, t).re;
            if den <= 1e-12 {
                continue;
            }
            let g = conj_dot(t, &work[lo..hi]) / den;
            axpy(&mut work[lo..hi], t, g, true);
            *gain = g;
        }
        gains
    }

    /// Puts back what a user's latest subtraction removed, draining the
    /// record: each symbol's template is synthesised again
    /// ([`SymbolSpan::chirp_into`] on the same span, value and CFO: the
    /// same samples), `g·t` of each segment is added into a zeroed row
    /// and the row is added to `work`. Those are the sums a capture-long
    /// copy of the removed signal made — `0 + g·t` when it was
    /// subtracted, `work + that` when it was put back — on every sample a
    /// symbol covers. Samples outside every span are left alone; the copy
    /// added `+0` there, which only turned a negative zero positive.
    // hot:noalloc — two workspace rows, a tone and an update a symbol.
    fn put_back(&self, work: &mut [C64], slot_start: usize, cancelled: &mut Cancelled) {
        if cancelled.symbols.is_empty() {
            return;
        }
        scope(Stage::Sic, || {
            let n = self.est.n();
            let mut template = workspace::take(n);
            let mut row = workspace::take(n);
            let Cancelled {
                timing_chips,
                cfo_bins,
                ..
            } = *cancelled;
            for (sym_idx, (value, gains)) in cancelled.symbols.drain(..).enumerate() {
                let span = SymbolSpan::new(work.len(), slot_start, sym_idx, n, timing_chips);
                let len = span.len();
                if len == 0 {
                    continue;
                }
                let (t, row) = (&mut template[..len], &mut row[..len]);
                span.chirp_into(n, value, cfo_bins, &self.upchirp, t);
                row.fill(C64::ZERO);
                let wrap = span.wrap(n, value) - span.first;
                for ((lo, hi), g) in [(0, wrap), (wrap, len)].into_iter().zip(gains) {
                    axpy(&mut row[lo..hi], &t[lo..hi], g, false);
                }
                for (w, r) in work[span.first..span.last].iter_mut().zip(row.iter()) {
                    *w += *r;
                }
            }
            workspace::put(row);
            workspace::put(template);
        })
    }

    /// Refines a user's CFO (bins) by minimising the energy left after
    /// subtracting its reconstructed symbols from a few probe windows.
    /// Gain fitting is per segment, so this isolates the pure frequency
    /// error that per-window gains cannot absorb.
    ///
    /// No probe subtracts anything. With one least-squares gain per
    /// constant-phase segment, `‖y − g·t‖² = ‖y‖² − |⟨t, y⟩|²/‖t‖²`, and
    /// the template is `t[i] = chirp[i]·e^{jwi}`, so `⟨t, y⟩` is one DTFT
    /// bin of the derotated segment `y·conj(chirp)` at the probed CFO
    /// (up to a unit phase) and `‖t‖² = ‖chirp‖²`: the energy left is
    /// `Σ‖y‖²` plus a [`ToneFit`]'s residual over the derotated segments
    /// ([`cfo_segments`]), built once a fit and fitted within ±0.15 bins
    /// of `cfo_init`.
    // hot:noalloc — one workspace buffer for the derotated segments.
    fn refine_cfo_for_subtraction(
        &self,
        work: &[C64],
        slot_start: usize,
        symbols: &[u16],
        timing_chips: f64,
        cfo_init: f64,
    ) -> f64 {
        scope(Stage::Refine, || {
            let n = self.est.n();
            let mut derotated = workspace::take(3 * 2 * n);
            let mut fit = ToneFit::new(n, &mut derotated);
            cfo_segments(
                &mut fit,
                &self.upchirp,
                work,
                slot_start,
                symbols,
                timing_chips,
            );
            // Trust radius 0.075, so iterates stay within ±0.15 bins.
            let cfo = fit.descend(cfo_init, 0.075);
            workspace::put(derotated);
            cfo
        })
    }

    /// One user's turn in a SIC pass: re-acquire it against the current
    /// signal and, unless it is final, demodulate it
    /// ([`Self::demodulate`]); then — when it holds a header and `cancel`
    /// says a later turn will read `work` — subtract its reconstructed
    /// packet so the users after it see it removed (packet-level SIC).
    fn decode_user_pass(
        &self,
        work: &mut [C64],
        slot_start: usize,
        total_syms: usize,
        st: &mut UserPass,
        cancel: bool,
    ) {
        // A final user's turn only serves the turns after it.
        if st.is_final && !cancel {
            return;
        }
        self.acquire(work, slot_start, &mut st.user);
        if !st.is_final && !self.demodulate(work, slot_start, total_syms, st) {
            return;
        }
        if !cancel {
            return;
        }
        #[cfg(test)]
        super::SUBTRACTIONS.with(|c| c.set(c.get() + 1));
        // Refine the CFO against the actual subtraction residual: deep
        // near-far demands ~milli-bin accuracy so that the strong user's
        // residue sinks below the weakest client of interest.
        let cfo_bins = self.refine_cfo_for_subtraction(
            work,
            slot_start,
            &st.symbols,
            st.user.timing_chips,
            st.user.cfo_bins(self.est.n()),
        );
        // The record is empty: this turn began by putting the user back.
        let timing_chips = st.user.timing_chips;
        st.cancelled.timing_chips = timing_chips;
        st.cancelled.cfo_bins = cfo_bins;
        for (sym_idx, &value) in st.symbols.iter().enumerate() {
            let gains =
                self.subtract_symbol(work, slot_start, sym_idx, value, timing_chips, cfo_bins);
            st.cancelled.symbols.push((value, gains));
        }
    }

    /// Demodulates an acquired user's windows, the preamble and sync
    /// windows first: a candidate whose header fails
    /// [`Self::header_holds`] is one `frame_users` drops whatever its data
    /// says, so it gets no data window and no subtraction this pass, and
    /// the next pass retries it on a cleaner signal. A header that holds
    /// earns the data windows and one plain frame decode, which makes the
    /// user final when it is `crc_ok && fec_reliable`. Returns whether the
    /// header held.
    fn demodulate(
        &self,
        work: &[C64],
        slot_start: usize,
        total_syms: usize,
        st: &mut UserPass,
    ) -> bool {
        let header = self.params.preamble_len + 2;
        st.decisions.clear();
        st.frame = None;
        st.erasures = self.demod_windows(work, slot_start, &st.user, 0..header, &mut st.decisions);
        st.symbols = st.decisions.iter().map(|d| d.value()).collect();
        if !self.header_holds(&st.symbols) {
            return false;
        }
        st.erasures += self.demod_windows(
            work,
            slot_start,
            &st.user,
            header..total_syms,
            &mut st.decisions,
        );
        st.symbols
            .extend(st.decisions[header..].iter().map(|d| d.value()));
        let frame = scope(Stage::Demod, || {
            decode_frame(&self.params, &st.symbols[header..])
        });
        st.is_final = matches!(&frame, Ok(f) if f.crc_ok && f.fec_reliable);
        st.frame = Some(frame);
        true
    }

    /// Stages 3–4: decodes every discovered user's data given the expected
    /// number of data symbols (sync symbols are consumed internally).
    /// Returns one entry per validated user, strongest first. `users` must
    /// be non-empty and the capture must hold the whole slot — both are
    /// established by [`Self::try_decode_view`].
    pub(super) fn decode_with_users(
        &self,
        samples: &[C64],
        slot_start: usize,
        num_data_symbols: usize,
        users: Vec<UserEstimate>,
    ) -> Vec<DecodedUser> {
        let total_syms = self.params.preamble_len + 2 + num_data_symbols;
        let mut work = samples.to_vec();
        // Strongest first: discover_users returns tracks sorted by
        // magnitude, which is the packet-level SIC order.
        let mut states: Vec<UserPass> = users
            .into_iter()
            .map(|user| UserPass {
                user,
                decisions: Vec::with_capacity(total_syms),
                symbols: Vec::new(),
                erasures: 0,
                frame: None,
                is_final: false,
                cancelled: Cancelled::default(),
            })
            .collect();
        // The first pass decodes the strong users under full interference,
        // so its symbol errors leave full-power residue that cascades;
        // later passes put each user back and re-acquire it against the
        // signal with *every other* user's contribution removed, which
        // breaks the cascade: a final user is re-fitted and re-subtracted
        // from its own symbols, every other one re-decoded.
        let passes = self.cfg.sic_passes.max(1);
        let users = states.len();
        for pass in 0..passes {
            for (turn, st) in states.iter_mut().enumerate() {
                // Put this user back (nothing in the first pass).
                self.put_back(&mut work, slot_start, &mut st.cancelled);
                // The last turn of the last pass has nobody after it:
                // `frame_users` reads decisions, never `work`.
                let cancel = (pass, turn) != (passes - 1, users - 1);
                #[cfg(test)]
                let before = super::DEMODULATED.with(|c| c.get());
                self.decode_user_pass(&mut work, slot_start, total_syms, st, cancel);
                #[cfg(test)]
                super::TURN_WINDOWS.with(|t| {
                    t.borrow_mut()
                        .push(super::DEMODULATED.with(|c| c.get()) - before)
                });
                #[cfg(test)]
                super::TURN_WORK.with(|t| {
                    if let Some(turns) = t.borrow_mut().as_mut() {
                        turns.push(work.clone());
                    }
                });
            }
        }
        self.frame_users(slot_start, states)
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{decode, params, profile};
    use super::*;
    use choir_channel::scenario::ScenarioBuilder;
    use lora_phy::chirp::symbol_sample;

    /// The template as `subtract_chirp` built it before it read a table
    /// and a tone, kept as its oracle: every sample of the chirp from its
    /// phase by libm ([`symbol_sample`]), rotated by a libm phasor at the
    /// CFO counted from `origin`.
    fn libm_template(span: &SymbolSpan, n: usize, value: u16, cfo: f64, origin: usize) -> Vec<C64> {
        let w_cfo = 2.0 * std::f64::consts::PI * cfo / n as f64;
        (span.first..span.last)
            .map(|i| {
                symbol_sample(n, value, i as f64 - span.start)
                    * C64::cis(w_cfo * (i as f64 - origin as f64))
            })
            .collect()
    }

    /// The objective `refine_cfo_for_subtraction` minimised before it read
    /// DTFT bins, kept as their oracle: copy each probe stretch, rotate the
    /// libm chirp to `cfo`, fit and subtract it per segment, sum what is
    /// left.
    fn copy_subtract_sum(
        dec: &ChoirDecoder,
        work: &[C64],
        slot_start: usize,
        symbols: &[u16],
        timing_chips: f64,
        cfo: f64,
    ) -> f64 {
        let n = dec.est.n();
        let mut total = 0.0;
        for sym_idx in [1usize, 3, 5].into_iter().filter(|&i| i < symbols.len()) {
            let lo = slot_start + sym_idx * n;
            let stretch = &work[lo..(lo + 2 * n).min(work.len())];
            let span = SymbolSpan::new(stretch.len(), 0, 0, n, timing_chips);
            let value = symbols[sym_idx];
            let template = libm_template(&span, n, value, cfo, 0);
            let mut left = stretch.to_vec();
            dec.subtract_chirp(&mut left, span, &template, value);
            total += left
                .iter()
                .take(n + timing_chips.ceil() as usize)
                .map(|z| z.norm_sqr())
                .sum::<f64>();
        }
        total
    }

    /// The energy of the samples the CFO fit probes: the first `n +
    /// ceil(timing)` of each stretch [`copy_subtract_sum`] reads.
    fn probed_energy(
        n: usize,
        work: &[C64],
        slot_start: usize,
        symbols: &[u16],
        timing: f64,
    ) -> f64 {
        [1usize, 3, 5]
            .into_iter()
            .filter(|&i| i < symbols.len())
            .map(|sym_idx| {
                let lo = slot_start + sym_idx * n;
                work[lo..(lo + 2 * n).min(work.len())]
                    .iter()
                    .take(n + timing.ceil() as usize)
                    .map(|z| z.norm_sqr())
                    .sum::<f64>()
            })
            .sum()
    }

    #[test]
    fn subtraction_matches_the_libm_template() {
        // What `subtract_symbol` removes against what the libm template
        // removes through the same per-segment fit: fractional and whole
        // starts, the extreme values (0: the wrap past the span; n − 1:
        // right after its first chip), wraps inside the span and a span
        // cut by the end of the capture.
        use rand::{Rng, SeedableRng};
        let dec = ChoirDecoder::new(params());
        let n = dec.est.n();
        let slot_start = 3 * n + 17;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let whole: Vec<C64> = (0..slot_start + 8 * n)
            .map(|_| C64 {
                re: rng.gen_range(-0.3..0.3),
                im: rng.gen_range(-0.3..0.3),
            })
            .collect();
        // Symbol 5 keeps its first 200 − timing samples.
        let cut = slot_start + 5 * n + 200;
        let mut cases = 0;
        for timing in [0.0, 0.37, 0.999, 115.2, -2.6] {
            for value in [0u16, 1, 77, 200, (n - 1) as u16] {
                for cfo in [0.0, 3.37, 255.7] {
                    for (sym_idx, len) in [(2usize, whole.len()), (5, cut)] {
                        // The symbol itself, at a gain, over the noise.
                        let span = SymbolSpan::new(len, slot_start, sym_idx, n, timing);
                        let mut work = whole[..len].to_vec();
                        let chirp = libm_template(&span, n, value, cfo, slot_start);
                        for (w, c) in work[span.first..span.last].iter_mut().zip(&chirp) {
                            *w += C64 { re: 1.7, im: -0.4 } * c;
                        }
                        let before = work.clone();
                        let removed = |after: &[C64]| -> Vec<C64> {
                            before.iter().zip(after).map(|(y, a)| y - a).collect()
                        };
                        let mut left = work.clone();
                        dec.subtract_symbol(&mut left, slot_start, sym_idx, value, timing, cfo);
                        dec.subtract_chirp(&mut work, span, &chirp, value);
                        let (got, want) = (removed(&left), removed(&work));
                        let diff: f64 =
                            got.iter().zip(&want).map(|(g, w)| (g - w).norm_sqr()).sum();
                        let norm: f64 = want.iter().map(|w| w.norm_sqr()).sum();
                        let what = format!("timing {timing} value {value} cfo {cfo} sym {sym_idx}");
                        assert!(norm > 0.5 * span.len() as f64, "{what}: {norm}");
                        assert!(
                            diff.sqrt() <= 1e-9 * norm.sqrt(),
                            "{what}: {diff:e} of {norm:e}"
                        );
                        let wrap = span.wrap(n, value);
                        cases += usize::from(span.first < wrap && wrap < span.last);
                    }
                }
            }
        }
        assert!(cases >= 60, "only {cases} spans wrap inside");
    }

    #[test]
    fn cfo_objective_matches_the_copy_subtract_sum() {
        let one = vec![profile(5.37, 0.45)]; // Δ = 115.2 chips
        let two = vec![profile(2.3, 0.1), profile(-7.6, 0.32)];
        for (snrs, profiles) in [(&[20.0][..], one), (&[20.0, 14.0][..], two)] {
            let s = ScenarioBuilder::new(params())
                .snrs_db(snrs)
                .payload_len(8)
                .profiles(profiles)
                .seed(41)
                .build();
            let dec = ChoirDecoder::new(s.params);
            let n = dec.est.n();
            let found = dec.discover_users(&s.samples, s.slot_start)[0];
            let (timing, cfo_init) = (found.timing_chips, found.cfo_bins(n));
            let symbols = &s.users[0].symbols;
            // The probes as decode places them (preamble symbols, value 0:
            // the wrap falls past the span and one segment is empty); moved
            // nine symbols on, onto data symbols whose wrap splits the
            // span; and with the capture cut inside the last stretch.
            let whole = &s.samples[..];
            let cut = &s.samples[..s.slot_start + 6 * n + n / 3];
            let moved = s.slot_start + 9 * n;
            for (what, work, slot_start, symbols, held) in [
                ("preamble", whole, s.slot_start, &symbols[..], Some(3)),
                ("data", whole, moved, &symbols[9..], None),
                ("cut short", cut, s.slot_start, &symbols[..], Some(3)),
            ] {
                let mut derotated = vec![C64::ZERO; 6 * n];
                let mut fit = ToneFit::new(n, &mut derotated);
                cfo_segments(&mut fit, &dec.upchirp, work, slot_start, symbols, timing);
                if let Some(held) = held {
                    assert_eq!(fit.segments(), held, "{what}");
                } else {
                    assert!(fit.segments() > 3, "{what}: no wrap inside a span");
                }
                // `Σ‖y‖²` over the probed samples: the residual's constant.
                let energy = probed_energy(n, work, slot_start, symbols, timing);
                for step in -15..=15 {
                    let cfo = cfo_init + step as f64 * 0.01;
                    let fast = energy + fit.residual(cfo);
                    let slow = copy_subtract_sum(&dec, work, slot_start, symbols, timing, cfo);
                    assert!(
                        (fast - slow).abs() <= 1e-9 * slow,
                        "{what}, {} user(s), cfo {cfo}: {fast} vs {slow}",
                        snrs.len()
                    );
                }
                // The fit is the strong user's: most of the energy goes.
                let left = energy + fit.residual(cfo_init);
                assert!(left < 0.5 * energy, "{what}: {left} of {energy}");
            }
        }
    }

    /// The SIC passes of `decode_with_users` as they ran while each user
    /// held a capture-long copy of what its subtraction removed, kept as
    /// the oracle of [`ChoirDecoder::put_back`]: a turn accumulates
    /// `0 + g·t` into the copy as it subtracts, a later pass adds the
    /// whole copy back and zeroes it. Returns the working signal after
    /// every turn.
    fn work_by_contrib(
        dec: &ChoirDecoder,
        samples: &[C64],
        slot_start: usize,
        num_data_symbols: usize,
        users: Vec<UserEstimate>,
    ) -> Vec<Vec<C64>> {
        let n = dec.est.n();
        let total_syms = dec.params.preamble_len + 2 + num_data_symbols;
        let mut work = samples.to_vec();
        let mut states: Vec<(UserPass, Vec<C64>)> = users
            .into_iter()
            .map(|user| {
                let st = UserPass {
                    user,
                    decisions: Vec::new(),
                    symbols: Vec::new(),
                    erasures: 0,
                    frame: None,
                    is_final: false,
                    cancelled: Cancelled::default(),
                };
                (st, vec![C64::ZERO; work.len()])
            })
            .collect();
        let passes = dec.cfg.sic_passes.max(1);
        let users = states.len();
        let mut after = Vec::new();
        for pass in 0..passes {
            for (turn, (st, contrib)) in states.iter_mut().enumerate() {
                if pass > 0 {
                    for (w, c) in work.iter_mut().zip(contrib.iter_mut()) {
                        *w += *c;
                        *c = C64::ZERO;
                    }
                }
                let cancel = (pass, turn) != (passes - 1, users - 1);
                if !st.is_final || cancel {
                    dec.acquire(&work, slot_start, &mut st.user);
                    let held = st.is_final || dec.demodulate(&work, slot_start, total_syms, st);
                    if held && cancel {
                        let timing = st.user.timing_chips;
                        let cfo = dec.refine_cfo_for_subtraction(
                            &work,
                            slot_start,
                            &st.symbols,
                            timing,
                            st.user.cfo_bins(n),
                        );
                        for (sym_idx, &value) in st.symbols.iter().enumerate() {
                            let span = SymbolSpan::new(work.len(), slot_start, sym_idx, n, timing);
                            let mut t = vec![C64::ZERO; span.len()];
                            span.chirp_into(n, value, cfo, &dec.upchirp, &mut t);
                            let gains = dec.subtract_chirp(&mut work, span, &t, value);
                            let wrap = span.wrap(n, value);
                            let segments = [(span.first, wrap), (wrap, span.last)];
                            for ((lo, hi), g) in segments.into_iter().zip(gains) {
                                if hi > lo {
                                    let t = &t[lo - span.first..hi - span.first];
                                    axpy(&mut contrib[lo..hi], t, g, false);
                                }
                            }
                        }
                    }
                }
                after.push(work.clone());
            }
        }
        after
    }

    #[test]
    fn a_put_back_from_gains_is_the_capture_long_put_back() {
        // Seeded five-user near-far slots: the working signal after every
        // turn of both passes (and of a third, where a record emptied by
        // one put-back must stay empty), bit for bit, whether a user is
        // put back from its gains or from a copy of what it removed.
        let profiles = vec![
            profile(3.13, 0.08),
            profile(-10.62, 0.21),
            profile(25.44, 0.02),
            profile(-40.91, 0.33),
            profile(60.27, 0.15),
        ];
        let mut compared = 0;
        for (seed, sic_passes) in [(3, 2), (11, 2), (12, 3)] {
            let s = ScenarioBuilder::new(params())
                .snrs_db(&[22.0, 20.0, 18.0, 16.0, 14.0])
                .payload_len(8)
                .profiles(profiles.clone())
                .seed(seed)
                .build();
            let cfg = super::super::ChoirConfig {
                sic_passes,
                ..Default::default()
            };
            let dec = ChoirDecoder::with_config(s.params, cfg);
            let nds = lora_phy::frame::frame_symbol_count(&s.params, 8);
            let users = dec.discover_users(&s.samples, s.slot_start);
            assert!(users.len() >= 4, "seed {seed}: {} users", users.len());
            super::super::TURN_WORK.with(|t| *t.borrow_mut() = Some(Vec::new()));
            dec.decode_with_users(&s.samples, s.slot_start, nds, users.clone());
            let got = super::super::TURN_WORK
                .with(|t| t.borrow_mut().take())
                .unwrap_or_default();
            let want = work_by_contrib(&dec, &s.samples, s.slot_start, nds, users.clone());
            assert_eq!(got.len(), sic_passes * users.len(), "seed {seed}");
            assert_eq!(got.len(), want.len(), "seed {seed}");
            for (turn, (g, w)) in got.iter().zip(&want).enumerate() {
                let same = g.iter().zip(w).all(|(a, b)| {
                    a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits()
                });
                assert!(same, "seed {seed}: turn {turn} differs");
                compared += 1;
            }
        }
        assert!(compared >= 35, "{compared} turns");
    }

    #[test]
    fn five_users_all_decoded() {
        let profiles = vec![
            profile(3.13, 0.08),
            profile(-10.62, 0.21),
            profile(25.44, 0.02),
            profile(-40.91, 0.33),
            profile(60.27, 0.15),
        ];
        let s = ScenarioBuilder::new(params())
            .snrs_db(&[22.0, 20.0, 18.0, 16.0, 14.0])
            .payload_len(8)
            .profiles(profiles)
            .seed(3)
            .build();
        let out = decode(&s, 8);
        let ok = out.iter().filter(|d| d.payload_ok()).count();
        assert!(ok >= 4, "only {ok}/5 decoded (found {})", out.len());
    }

    #[test]
    fn near_far_25db_both_decoded() {
        let s = ScenarioBuilder::new(params())
            .snrs_db(&[30.0, 5.0])
            .payload_len(6)
            .profiles(vec![profile(12.3, 0.12), profile(-20.7, 0.28)])
            .seed(4)
            .build();
        let out = decode(&s, 6);
        assert_eq!(out.len(), 2, "users: {}", out.len());
        assert!(out[0].payload_ok(), "strong user failed");
        assert!(out[1].payload_ok(), "weak user failed (near-far)");
    }
}
