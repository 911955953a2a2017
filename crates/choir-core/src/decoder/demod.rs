//! Stage 3a: per-user aligned comb demodulation, preceded by the
//! per-pass re-acquisition of the user's timing and offset against the
//! current (partially cleaned) signal.

use choir_dsp::complex::C64;
use lora_phy::frame::SYNC_SYMBOLS;

use super::{ChoirDecoder, UserEstimate};
use crate::profile::{scope, Stage};
use crate::sic::phased_sic;

/// Per-window comb decision with its top alternatives (for list decoding).
#[derive(Clone, Copy, Debug, Default)]
pub(super) struct CombDecision {
    /// Top three candidate values with scores, best first.
    pub(super) cands: [(u16, f64); 3],
}

impl CombDecision {
    pub(super) fn value(&self) -> u16 {
        self.cands[0].0
    }

    pub(super) fn winner_score(&self) -> f64 {
        self.cands[0].1
    }
}

impl ChoirDecoder {
    /// Demodulates one aligned window on the user's fractional comb: the
    /// peak must sit at `value + cfo_bins (mod n)`.
    ///
    /// Each hypothesis `s` is scored per *constant-phase segment*: the
    /// chirp's internal frequency wrap sits `N − s` chips into the symbol,
    /// and any residual sub-chip misalignment turns it into a phase step
    /// that would partially cancel a whole-window correlation. Combining
    /// the two segments by magnitude (`(|pre| + |post|)²` — the maximum of
    /// the coherent sum over the unknown step phase) makes the decision
    /// invariant to the step.
    fn comb_demod(&self, aligned: &[C64], comb_offset: f64) -> CombDecision {
        scope(Stage::Demod, || self.comb_demod_inner(aligned, comb_offset))
    }

    // hot:noalloc — the hypothesis sweep runs on the shared twiddle table
    // and a workspace mix buffer.
    fn comb_demod_inner(&self, aligned: &[C64], comb_offset: f64) -> CombDecision {
        let n = self.est.n();
        let de = self.est.dechirp(aligned);
        // Apply the fractional comb offset once; each hypothesis tone then
        // reduces to stepping the integer twiddle table by s per sample
        // (phases agree with direct evaluation up to exact multiples of 2π).
        let mut mix = choir_dsp::workspace::take(n);
        let w_frac = -2.0 * std::f64::consts::PI * comb_offset / n as f64;
        for (t, (m, v)) in mix.iter_mut().zip(&de).enumerate() {
            *m = v * C64::cis(w_frac * t as f64);
        }
        let tw: &[C64] = &self.comb_twiddle;
        let mut top = [(0u16, -1.0f64); 3];
        for s in 0..n {
            let wrap = n - s;
            let mut pre = C64::ZERO;
            let mut post = C64::ZERO;
            let mut idx = 0usize;
            for m in &mix[..wrap] {
                pre += m * tw[idx];
                idx += s;
                if idx >= n {
                    idx -= n;
                }
            }
            for m in &mix[wrap..] {
                post += m * tw[idx];
                idx += s;
                if idx >= n {
                    idx -= n;
                }
            }
            let score = (pre.abs() + post.abs()).powi(2);
            if score > top[2].1 {
                // lint:allow(lossy_cast) — s ranges over 0..2^SF ≤ 4096, fits u16
                top[2] = (s as u16, score);
                if top[2].1 > top[1].1 {
                    top.swap(1, 2);
                }
                if top[1].1 > top[0].1 {
                    top.swap(0, 1);
                }
            }
        }
        choir_dsp::workspace::put(mix);
        for t in top.iter_mut() {
            t.1 = t.1.max(0.0);
        }
        CombDecision { cands: top }
    }

    /// One acquisition+demodulation pass for a single user against the
    /// current (partially cleaned) signal: re-acquire coarse integer
    /// timing from the preamble→sync transition, refine fractional timing
    /// (keeping whichever candidate scores better on the sync windows),
    /// re-read the offset from aligned windows, then demodulate every
    /// symbol on the user's comb. Updates `user` in place.
    pub(super) fn acquire_and_demod(
        &self,
        work: &[C64],
        slot_start: usize,
        user: &mut UserEstimate,
        total_syms: usize,
    ) -> (Vec<CombDecision>, usize) {
        let n = self.est.n();
        let p = self.params.preamble_len;
        let transition = self
            .window(work, slot_start, p)
            .map(|win| phased_sic(&self.est, win, &self.cfg.sic).components)
            .unwrap_or_default();
        let coarse = self.timing_from_transition(&transition, user, n);
        let cand_a = self.refine_timing(work, slot_start, user, coarse);
        let cand_b = self.refine_timing(work, slot_start, user, user.timing_chips);
        let sync_score = |delta: f64| -> f64 {
            let mut s = 0.0;
            for (i, &sync) in SYNC_SYMBOLS.iter().enumerate() {
                s += self.comb_energy(work, slot_start, p + i, delta, sync, user.offset_bins);
            }
            s
        };
        user.timing_chips = if sync_score(cand_a) >= sync_score(cand_b) {
            cand_a
        } else {
            cand_b
        };
        user.offset_bins = self.refine_offset_aligned(work, slot_start, user);
        user.frac = user.offset_bins.fract();
        let cfo_bins = user.cfo_bins(n);
        let mut erasures = 0usize;
        let mut decisions = Vec::with_capacity(total_syms);
        for sym_idx in 0..total_syms {
            let d = match self.aligned_window(work, slot_start, sym_idx, user.timing_chips) {
                Some(aligned) => self.comb_demod(&aligned, cfo_bins),
                None => {
                    erasures += 1;
                    CombDecision::default()
                }
            };
            decisions.push(d);
        }
        (decisions, erasures)
    }
}
