//! Stage 3a: per-user aligned comb demodulation, preceded by the
//! per-pass re-acquisition of the user's timing and offset against the
//! current (partially cleaned) signal. Which windows a turn demodulates
//! is `cancel`'s to decide.

use std::sync::Arc;

use choir_dsp::complex::C64;
use choir_dsp::fft::FftPlan;
use choir_dsp::workspace;

use super::discover::{seed_chip, Alignment};
use super::{ChoirDecoder, UserEstimate};
use crate::profile::{scope, Stage};

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

    /// The decision of a sweep over no hypotheses yet.
    fn sweep() -> Self {
        CombDecision {
            cands: [(0, -1.0); 3],
        }
    }

    /// Ranks hypothesis `s`, offered in ascending order: of equal scores
    /// the lower value stays ahead.
    fn offer(&mut self, s: usize, score: f64) {
        let top = &mut self.cands;
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

    /// Closes the sweep: a rank no hypothesis reached reads 0.
    fn finish(mut self) -> Self {
        for t in self.cands.iter_mut() {
            t.1 = t.1.max(0.0);
        }
        self
    }
}

/// The comb demodulator's tables and plans for one symbol length `n`: what
/// turns its `n` two-segment hypothesis scores into three radix-2
/// transforms.
///
/// Hypothesis `s` splits the mixed window at the chirp's wrap, `n − s`
/// chips in: `pre(s) = Σ_{t<n−s} mix[t]·W^{st}` and `post(s)` the rest,
/// `W = e^{−j2π/n}`. The cut moves with `s`, so `pre` is not a DFT. With
/// `V = e^{−jπ/n}` (`W = V²`) and `r = n−1−t` (`t < n−s ⇔ r ≥ s`),
/// `W^{st} = V^{−2s−s²}·V^{−r²}·V^{(r−s)²}`, hence
///
/// ```text
/// pre(s) = V^{−2s−s²} · Σ_{r≥s} a[r]·h[r−s],   a[r] = mix[n−1−r]·V^{−r²},   h[d] = V^{d²}
/// ```
///
/// — all `n` prefix sums are one linear correlation of `a` with `h`, run
/// as a `2n`-point circular one (`h` is zero outside `0..n`, so no term
/// wraps). `pre(s) + post(s)` is the plain `n`-point DFT of `mix`, which
/// gives `post` by subtraction. Exponents are reduced mod `2n` as integers
/// before `cis`, as `FftPlan`'s Bluestein reduces its own.
#[derive(Debug)]
pub(super) struct CombPlan {
    /// `FFT_2n` of the correlation kernel `h[−m mod 2n]`.
    kernel_ft: Vec<C64>,
    /// `V^{−r²}` for `r < n`.
    pre_twist: Vec<C64>,
    /// `V^{−2s−s²}` for `s < n`.
    post_twist: Vec<C64>,
    fft_n: Arc<FftPlan>,
    fft_2n: Arc<FftPlan>,
}

impl CombPlan {
    pub(super) fn new(n: usize) -> Self {
        let v = |k: usize| C64::cis(-std::f64::consts::PI * (k % (2 * n)) as f64 / n as f64);
        let fft_2n = choir_dsp::fft::plan(2 * n);
        let mut kernel_ft = vec![C64::ZERO; 2 * n];
        for d in 0..n {
            kernel_ft[(2 * n - d) % (2 * n)] = v(d * d);
        }
        fft_2n.forward(&mut kernel_ft);
        CombPlan {
            kernel_ft,
            pre_twist: (0..n).map(|r| v(r * r).conj()).collect(),
            post_twist: (0..n).map(|s| v(2 * s + s * s).conj()).collect(),
            fft_n: choir_dsp::fft::plan(n),
            fft_2n,
        }
    }

    /// Scores every hypothesis of a dechirped, comb-mixed window and keeps
    /// the best three. `mix` is left holding its own spectrum.
    ///
    /// The score is `(√|pre|² + √|post|²)²` on IEEE `sqrt`, not two libm
    /// `hypot`s: `hypot` buys protection against overflow a unit-scale
    /// window never approaches, at a third of a `comb_demod` call, and
    /// scores reach only comparisons — the top-3 ranking here and
    /// `list_decode`'s median, ordering and threshold — never an output.
    // hot:noalloc — the correlation runs in one workspace buffer against
    // tables and plans built with the decoder.
    fn decide(&self, mix: &mut [C64]) -> CombDecision {
        let n = mix.len();
        let mut corr = workspace::take(2 * n);
        for ((a, m), tw) in corr.iter_mut().zip(mix.iter().rev()).zip(&self.pre_twist) {
            *a = *m * *tw;
        }
        self.fft_n.forward(mix);
        self.fft_2n.forward(&mut corr);
        for (c, g) in corr.iter_mut().zip(&self.kernel_ft) {
            *c *= *g;
        }
        self.fft_2n.inverse(&mut corr);
        let mut top = CombDecision::sweep();
        for (s, ((c, tw), total)) in corr
            .iter()
            .zip(&self.post_twist)
            .zip(mix.iter())
            .enumerate()
        {
            let pre = *c * *tw;
            let post = *total - pre;
            top.offer(s, (pre.norm_sqr().sqrt() + post.norm_sqr().sqrt()).powi(2));
        }
        workspace::put(corr);
        top.finish()
    }
}

impl ChoirDecoder {
    /// The comb mixer `e^{−j2π·c·t/n}` that shifts a dechirped window by
    /// the fractional comb offset `c`, so that hypothesis `s` is the
    /// integer tone `W^{st}`. It is the tone kernel's at `n − c` (equal up
    /// to whole turns, and inside the range the kernel is tested on), not
    /// `n` libm `cis`: it feeds scores, which are only ranked. One per
    /// user turn — every symbol of a pass mixes by the same tone.
    // hot:noalloc — fills the caller's buffer.
    fn comb_mixer_into(&self, comb_offset: f64, mixer: &mut [C64]) {
        let n = self.est.n();
        choir_dsp::backend::tone_into(mixer, n, n as f64 - comb_offset);
    }

    /// Demodulates one aligned window on the user's fractional comb
    /// (`mixer` is [`Self::comb_mixer_into`]'s at the comb offset): the
    /// peak must sit at `value + μ + ceil(Δ) (mod n)`.
    ///
    /// Each hypothesis `s` is scored per *constant-phase segment*: the
    /// chirp's internal frequency wrap sits `N − s` chips into the symbol,
    /// and the user's fractional chip — the window is a slice on its whole
    /// chip grid, not a resample — turns it into a phase step that would
    /// partially cancel a whole-window correlation. Combining
    /// the two segments by magnitude (`(|pre| + |post|)²` — the maximum of
    /// the coherent sum over the unknown step phase) makes the decision
    /// invariant to the step. [`CombPlan`] evaluates all `n` scores in
    /// `O(n log n)`.
    // hot:noalloc — the dechirp and mix buffers come from the workspace
    // arena.
    fn comb_demod(&self, aligned: &[C64], mixer: &[C64]) -> CombDecision {
        #[cfg(test)]
        super::DEMODULATED.with(|c| c.set(c.get() + 1));
        scope(Stage::Demod, || {
            let n = self.est.n();
            let mut de = workspace::take(n);
            let mut mix = workspace::take(n);
            self.est.dechirp_into(aligned, &mut de);
            choir_dsp::backend::cmul_into(&de, mixer, &mut mix);
            let decision = self.comb.decide(&mut mix);
            workspace::put(mix);
            workspace::put(de);
            decision
        })
    }

    /// A user's fractional timing for this pass: searched from the freshly
    /// read `coarse` chip and from the estimate the user carries, keeping
    /// whichever scores better on the sync windows.
    fn acquire_timing(
        &self,
        work: &[C64],
        slot_start: usize,
        user: &UserEstimate,
        coarse: f64,
    ) -> f64 {
        let cand_a = self.refine_timing(work, slot_start, user, coarse);
        // The read takes its seed only as a whole chip, so two seeds on
        // one chip are one read with one result and nothing to play off.
        if seed_chip(coarse) == seed_chip(user.timing_chips) {
            return cand_a;
        }
        let cand_b = self.refine_timing(work, slot_start, user, user.timing_chips);
        let sync_score = |delta: f64| self.sync_energy(work, slot_start, user, delta);
        if sync_score(cand_a) >= sync_score(cand_b) {
            cand_a
        } else {
            cand_b
        }
    }

    /// Re-acquires a user against the current (partially cleaned) signal:
    /// coarse integer timing from the preamble→sync transition, fractional
    /// timing, then the offset re-read from aligned windows. Updates `user`
    /// in place.
    pub(super) fn acquire(&self, work: &[C64], slot_start: usize, user: &mut UserEstimate) {
        let coarse = self.transition_chip(work, slot_start, user);
        user.timing_chips = self.acquire_timing(work, slot_start, user, coarse);
        user.offset_bins = self.refine_offset_aligned(work, slot_start, user);
        user.frac = user.offset_bins.fract();
    }

    /// Demodulates symbol windows `syms` of an acquired user on its comb,
    /// appending one decision per window to `decisions` (a default one
    /// where the window runs past the capture). Returns how many ran past
    /// it.
    pub(super) fn demod_windows(
        &self,
        work: &[C64],
        slot_start: usize,
        user: &UserEstimate,
        syms: std::ops::Range<usize>,
        decisions: &mut Vec<CombDecision>,
    ) -> usize {
        let n = self.est.n();
        let align = Alignment::new(user.timing_chips);
        let mut erasures = 0usize;
        let mut mixer = workspace::take(n);
        // On the grid `ceil(Δ)` symbol `s` dechirps to `s + μ + ceil(Δ)`;
        // the step the fractional chip leaves at its wrap is what the
        // per-segment score absorbs.
        let comb_offset = (user.offset_bins + align.chip as f64).rem_euclid(n as f64);
        self.comb_mixer_into(comb_offset, &mut mixer);
        for sym_idx in syms {
            let d = match self.aligned_window(work, slot_start, sym_idx, &align) {
                Some(win) => self.comb_demod(win, &mixer),
                None => {
                    erasures += 1;
                    CombDecision::default()
                }
            };
            decisions.push(d);
        }
        workspace::put(mixer);
        erasures
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{params, profile};
    use super::*;
    use choir_channel::scenario::ScenarioBuilder;
    use choir_dsp::backend;
    use lora_phy::params::PhyParams;
    use proptest::prelude::*;
    use std::f64::consts::TAU;

    const SIZES: [usize; 3] = [128, 256, 1024];

    /// The sweep [`CombPlan`] replaced, kept as its oracle: every
    /// hypothesis scored by its own `n`-term sum over a stepped unit-root
    /// table, `O(n²)` a window.
    fn direct_sweep(mix: &[C64]) -> CombDecision {
        let n = mix.len();
        let tw: Vec<C64> = (0..n)
            .map(|m| C64::cis(-TAU * m as f64 / n as f64))
            .collect();
        let mut top = CombDecision::sweep();
        for s in 0..n {
            let (mut pre, mut post) = (C64::ZERO, C64::ZERO);
            for (t, m) in mix.iter().enumerate() {
                let term = m * tw[s * t % n];
                if t < n - s {
                    pre += term;
                } else {
                    post += term;
                }
            }
            top.offer(s, (pre.abs() + post.abs()).powi(2));
        }
        top.finish()
    }

    /// Runs both demodulators on `mix` and holds the transform to the
    /// sweep: the same three values in the same order, every score within
    /// 1e-9 of the winner's. Returns the transform's decision.
    fn assert_agrees(mix: &[C64]) -> CombDecision {
        let fast = CombPlan::new(mix.len()).decide(&mut mix.to_vec());
        let slow = direct_sweep(mix);
        let values = |d: &CombDecision| d.cands.map(|c| c.0);
        assert_eq!(values(&fast), values(&slow), "{fast:?} vs {slow:?}");
        let tol = 1e-9 * slow.winner_score();
        for (f, s) in fast.cands.iter().zip(&slow.cands) {
            assert!(f.1.is_finite() && f.1 >= 0.0, "{fast:?}");
            assert!((f.1 - s.1).abs() <= tol, "{fast:?} vs {slow:?}");
        }
        fast
    }

    /// Symbol `s` as the comb mixer leaves it: the tone `e^{j2πst/n}`,
    /// turned by `step` radians from the chirp's wrap (`n − s` chips in) on.
    fn tone(n: usize, s: usize, amp: f64, phase: f64, step: f64) -> Vec<C64> {
        (0..n)
            .map(|t| {
                let turn = if t >= n - s { step } else { 0.0 };
                C64::from_polar(amp, phase + turn + TAU * (s * t % n) as f64 / n as f64)
            })
            .collect()
    }

    /// `window` plus the first `window.len()` draws of `noise`, scaled.
    fn with_noise(mut window: Vec<C64>, noise: &[(f64, f64)], scale: f64) -> Vec<C64> {
        for (w, &(re, im)) in window.iter_mut().zip(noise) {
            *w += C64 { re, im }.scale(scale);
        }
        window
    }

    fn arb_noise() -> impl Strategy<Value = Vec<(f64, f64)>> {
        prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 1024..1025)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn transform_matches_sweep_on_random_windows(noise in arb_noise()) {
            for n in SIZES {
                assert_agrees(&with_noise(vec![C64::ZERO; n], &noise, 1.0));
            }
        }

        // The edges of the cut: `s = 0` has an empty `post`, `s = n − 1`
        // a one-sample `pre`. A clean tone's losing hypotheses tie in
        // mirror pairs (`s − d` and `s + d` score the same, and rounding
        // alone would order them), so a −60 dB floor splits each pair the
        // same way for both evaluations.
        #[test]
        fn transform_matches_sweep_on_tones_at_the_cut_edges(
            noise in arb_noise(),
            phase in 0.0f64..TAU,
        ) {
            for n in SIZES {
                for s in [0, 1, n / 2, n - 1] {
                    let d = assert_agrees(&with_noise(tone(n, s, 1.0, phase, 0.0), &noise, 1e-3));
                    prop_assert_eq!(usize::from(d.value()), s);
                }
            }
        }

        // A sub-chip misalignment shows as a phase step at the wrap; the
        // per-segment magnitudes must read through it.
        #[test]
        fn transform_matches_sweep_across_a_phase_step(
            noise in arb_noise(),
            at in 0.0f64..1.0,
            step in 0.0f64..TAU,
        ) {
            for n in SIZES {
                let s = 1 + (at * (n - 1) as f64) as usize;
                let d = assert_agrees(&with_noise(tone(n, s, 1.0, 0.3, step), &noise, 1e-3));
                prop_assert_eq!(usize::from(d.value()), s);
            }
        }

        #[test]
        fn transform_matches_sweep_on_two_tones_a_decibel_apart(
            noise in arb_noise(),
            at in (0.0f64..1.0, 0.0f64..1.0),
            phase in 0.0f64..TAU,
        ) {
            for n in SIZES {
                let (s1, s2) = ((at.0 * n as f64) as usize, (at.1 * n as f64) as usize);
                let mut w = tone(n, s1, 1.0, 0.0, 0.0);
                for (a, b) in w.iter_mut().zip(tone(n, s2, 10f64.powf(-1.0 / 20.0), phase, 0.0)) {
                    *a += b;
                }
                assert_agrees(&with_noise(w, &noise, 1e-3));
            }
        }
    }

    /// `comb_demod` as it mixed and scored before the tone kernel: one
    /// libm `cis` per sample, every hypothesis a direct sum scored by
    /// `hypot`. Kept as the oracle of the mixer and the `sqrt` scorer.
    fn libm_comb_demod(dec: &ChoirDecoder, aligned: &[C64], comb_offset: f64) -> CombDecision {
        let mut mix = dec.est.dechirp(aligned);
        let w_frac = -TAU * comb_offset / dec.est.n() as f64;
        for (t, m) in mix.iter_mut().enumerate() {
            *m *= C64::cis(w_frac * t as f64);
        }
        direct_sweep(&mix)
    }

    #[test]
    fn comb_demod_ranks_as_the_libm_mixer_and_hypot_scorer_did() {
        use rand::{Rng, SeedableRng};
        let dec = ChoirDecoder::new(PhyParams::default());
        let n = dec.est.n();
        let down = lora_phy::chirp::base_downchirp_cached(n);
        let mut rng = rand::rngs::StdRng::seed_from_u64(20);
        let noise: Vec<(f64, f64)> = (0..n)
            .map(|_| (rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let pair = {
            let mut w = tone(n, 40, 1.0, 0.0, 0.0);
            for (a, b) in w
                .iter_mut()
                .zip(tone(n, 200, 10f64.powf(-3.0 / 20.0), 1.3, 0.0))
            {
                *a += b;
            }
            w
        };
        // What the comb mixer should leave, by name: a tone in 20 dB noise,
        // two tones 3 dB apart, a tone over a −60 dB floor, and a phase
        // step at the chirp's wrap.
        let cases = [
            ("clean", with_noise(tone(n, 77, 1.0, 0.4, 0.0), &noise, 0.1)),
            ("3 dB pair", with_noise(pair, &noise, 0.1)),
            (
                "-60 dB floor",
                with_noise(tone(n, 3, 1.0, 2.0, 0.0), &noise, 1e-3),
            ),
            (
                "phase step",
                with_noise(tone(n, 150, 1.0, 0.3, 2.0), &noise, 1e-3),
            ),
        ];
        for (name, mixed) in &cases {
            for comb_offset in [0.0, 0.37, 128.5, 255.999] {
                // The aligned window that mixes down to `mixed`: turned up
                // by the comb offset, then chirped.
                let aligned: Vec<C64> = mixed
                    .iter()
                    .zip(down.iter())
                    .enumerate()
                    .map(|(t, (m, d))| {
                        m * C64::cis(TAU * comb_offset * t as f64 / n as f64) * d.conj()
                    })
                    .collect();
                let mut mixer = vec![C64::ZERO; n];
                dec.comb_mixer_into(comb_offset, &mut mixer);
                let fast = dec.comb_demod(&aligned, &mixer);
                let slow = libm_comb_demod(&dec, &aligned, comb_offset);
                let values = |d: &CombDecision| d.cands.map(|c| c.0);
                assert_eq!(values(&fast), values(&slow), "{name} at {comb_offset}");
                let tol = 1e-9 * slow.winner_score();
                for (f, s) in fast.cands.iter().zip(&slow.cands) {
                    assert!(
                        (f.1 - s.1).abs() <= tol,
                        "{name} at {comb_offset}: {fast:?} vs {slow:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn silent_window_scores_zero() {
        for n in SIZES {
            let d = assert_agrees(&vec![C64::ZERO; n]);
            assert_eq!(d.cands, [(0, 0.0), (1, 0.0), (2, 0.0)]);
        }
    }

    #[test]
    fn decision_is_bit_identical_on_every_backend() {
        let n = 256;
        let noise: Vec<(f64, f64)> = (0..n)
            .map(|t| ((t as f64 * 0.37).sin(), (t as f64 * 0.91).cos()))
            .collect();
        let window = with_noise(tone(n, 77, 1.0, 0.4, 1.1), &noise, 0.3);
        let plan = CombPlan::new(n);
        let runs: Vec<CombDecision> = backend::available()
            .into_iter()
            .map(|kind| {
                backend::force(kind);
                plan.decide(&mut window.clone())
            })
            .collect();
        backend::reset();
        for run in &runs[1..] {
            for (a, b) in run.cands.iter().zip(&runs[0].cands) {
                assert_eq!((a.0, a.1.to_bits()), (b.0, b.1.to_bits()));
            }
        }
    }

    /// On a user's whole-chip grid every value demodulates, whatever its
    /// fractional chip: read at `ceil(Δ)`, symbol `s` is the comb tone `s`
    /// with the phase step `2π·frac(Δ)` after its wrap, which the
    /// per-segment score reads through — at `δ = 0.5` a whole-window
    /// correlation of `s = n/2` cancels to nothing.
    #[test]
    fn every_value_decodes_from_integer_grid_windows() {
        let dec = ChoirDecoder::new(params());
        let n = dec.est.n();
        let symbols: Vec<u16> = (0..n).map(|s| u16::try_from(s).unwrap()).collect();
        for frac in [0.1, 0.5, 0.9] {
            let delta = 57.0 + frac;
            let (capture, slot_start, mu) =
                super::super::tests::render_lone(symbols.clone(), delta, -9.3, 0.0, 3);
            let align = Alignment::new(delta);
            let mut mixer = vec![C64::ZERO; n];
            dec.comb_mixer_into((mu + align.chip as f64).rem_euclid(n as f64), &mut mixer);
            for (sym_idx, &s) in symbols.iter().enumerate() {
                let win = dec
                    .aligned_window(&capture, slot_start, sym_idx, &align)
                    .expect("inside the capture");
                let got = dec.comb_demod(win, &mixer).value();
                assert_eq!(got, s, "δ = {frac}");
            }
        }
    }

    #[test]
    fn timing_candidates_on_different_chips_are_both_searched() {
        let s = ScenarioBuilder::new(params())
            .snrs_db(&[20.0])
            .payload_len(6)
            .profiles(vec![profile(3.0, 0.05)]) // Δ = 12.8 chips
            .seed(11)
            .build();
        let dec = ChoirDecoder::new(PhyParams::default());
        let found = dec.discover_users(&s.samples, s.slot_start)[0];
        assert!((found.timing_chips - 12.8).abs() < 0.5, "{found:?}");
        let search = |user: &UserEstimate, seed: f64| {
            dec.refine_timing(&s.samples, s.slot_start, user, seed)
        };
        let sync_score = |user: &UserEstimate, delta: f64| {
            dec.sync_energy(&s.samples, s.slot_start, user, delta)
        };
        // A seed pair on different chips, the true chip on either side:
        // both searches run and the one the sync words back wins.
        for (coarse, carried) in [(0.0, found.timing_chips), (found.timing_chips, 0.0)] {
            let user = UserEstimate {
                timing_chips: carried,
                ..found
            };
            let (a, b) = (search(&user, coarse), search(&user, carried));
            assert!(
                (a - b).abs() > 1.0,
                "the two searches must differ: {a} vs {b}"
            );
            let want = if sync_score(&user, a) >= sync_score(&user, b) {
                a
            } else {
                b
            };
            let got = dec.acquire_timing(&s.samples, s.slot_start, &user, coarse);
            assert_eq!(got.to_bits(), want.to_bits());
            assert!((got - 12.8).abs() < 0.5, "kept the wrong chip: {got}");
        }
        // Seeds on one chip: the one search's result, as it stands.
        let coarse = seed_chip(found.timing_chips) as f64;
        let got = dec.acquire_timing(&s.samples, s.slot_start, &found, coarse);
        assert_eq!(got.to_bits(), search(&found, coarse).to_bits());
    }
}
