//! Stages 1–2: user discovery from the preamble (Sec. 5) and the
//! timing/CFO split (Sec. 6), plus the alignment helpers every later stage
//! reads a user's windows through.

use choir_dsp::complex::C64;
use choir_dsp::linalg::conj_dot;
use choir_dsp::resample::{fractional_delay_into, DelayKernel};
use choir_dsp::workspace;
use lora_phy::frame::SYNC_SYMBOLS;

use super::{ChoirConfig, ChoirDecoder, UserEstimate};
use crate::profile::{scope, Stage};
use crate::sic::phased_sic;

/// Taps per side of the windowed-sinc fractional resampler.
const RESAMPLE_TAPS: usize = 10;

/// Summed correlation energy `Σ_w |Σ_t de_w[t]·e^{−j2π·pos·t/n}|²` of the
/// dechirped windows laid back to back in `windows` against the tone at
/// `pos_bins` — one DTFT bin per window (no FFT, one fractional
/// frequency). The tone is synthesised once into `tone`, whose length is
/// the symbol length, and shared by every window.
// hot:noalloc — the tone goes into the caller's workspace buffer.
fn tone_energy(windows: &[C64], pos_bins: f64, tone: &mut [C64]) -> f64 {
    let n = tone.len();
    choir_dsp::backend::tone_into(tone, n, pos_bins);
    let mut s = 0.0;
    for de in windows.chunks_exact(n) {
        s += conj_dot(tone, de).norm_sqr();
    }
    s
}

/// The boundary `c` at which a dechirped window is best explained by the
/// tone `tail` over `[0, c)` and the tone `head` over `[c, n)`, each with
/// its own complex gain, and the energy that fit explains. The segments
/// are disjoint and the tones unit-modulus, so the two least-squares gains
/// decouple and the explained energy is closed-form in two prefix sums
/// `P_x[c] = Σ_{t<c} conj(x[t])·de[t]`:
///
/// ```text
/// score(c) = |P_tail[c]|²/c + |P_head[n] − P_head[c]|²/(n − c),   score(0) = |P_head[n]|²/n
/// ```
///
/// Returns the argmax over `c ∈ [0, n)`, the lowest `c` on a tie. `head`
/// is left holding its own prefix sums.
// hot:noalloc — two serial folds over the caller's buffers.
fn boundary_scan(de: &[C64], tail: &[C64], head: &mut [C64]) -> (usize, f64) {
    let n = de.len();
    let mut acc = C64::ZERO;
    for (h, d) in head.iter_mut().zip(de) {
        let before = acc;
        acc += h.conj() * *d;
        *h = before;
    }
    let head_total = acc;
    let mut best = (0, head_total.norm_sqr() / n as f64);
    let mut acc = tail[0].conj() * de[0];
    for c in 1..n {
        let score = acc.norm_sqr() / c as f64 + (head_total - head[c]).norm_sqr() / (n - c) as f64;
        if score > best.1 {
            best = (c, score);
        }
        acc += tail[c].conj() * de[c];
    }
    best
}

/// A user's timing as the alignment helpers read it: the delay in chips
/// and the resampler kernel that advances the signal by its fractional
/// part. Whoever holds the timing fixed builds one and every window
/// aligned to it shares the kernel — five a probe in
/// [`ChoirDecoder::refine_timing`], three in
/// [`ChoirDecoder::refine_offset_aligned`], every symbol of a pass in
/// `acquire_and_demod` — where each window used to rebuild the same
/// `2·RESAMPLE_TAPS + 1` windowed-sinc weights.
pub(super) struct Alignment {
    timing_chips: f64,
    kernel: DelayKernel,
}

impl Alignment {
    pub(super) fn new(timing_chips: f64) -> Self {
        Alignment {
            timing_chips,
            kernel: DelayKernel::new(Self::advance(timing_chips), RESAMPLE_TAPS),
        }
    }

    /// Moves the alignment to another timing, reusing the kernel's
    /// allocation: a timing search builds one and retimes it per probe.
    // hot:noalloc — the kernel is retuned in place.
    fn retime(&mut self, timing_chips: f64) {
        self.timing_chips = timing_chips;
        self.kernel.retune(Self::advance(timing_chips));
    }

    /// The resampler delay for a timing: the signal is delayed by the
    /// fractional chip, and resampling with the negative delay advances
    /// it.
    fn advance(timing_chips: f64) -> f64 {
        -(timing_chips - timing_chips.floor())
    }
}

/// The whole chip a timing search is seeded at — all
/// [`ChoirDecoder::refine_timing`] reads of its seed, so seeds on one chip
/// are one search.
pub(super) fn seed_chip(seed: f64) -> f64 {
    seed.max(0.0).round()
}

impl ChoirDecoder {
    /// Stage 1+2: discovers colliding users from the preamble (Sec. 5) and
    /// splits each user's aggregate offset into timing and CFO (Sec. 6).
    pub fn discover_users(&self, samples: &[C64], slot_start: usize) -> Vec<UserEstimate> {
        // Debug sanitizer at the pipeline mouth: corrupt IQ in means every
        // later stage fails confusingly; fail here with the right label.
        choir_dsp::checks::assert_finite("decoder::discover_users input", samples);
        let p = self.params.preamble_len;
        let n = self.est.n();
        let mut per_window = Vec::new();
        // Interior windows only: window 0 may straddle the packet edge for
        // delayed users; windows 1..P−1 are pure preamble for any
        // sub-symbol delay.
        for w in 1..p {
            let Some(win) = self.window(samples, slot_start, w) else {
                break;
            };
            // Stamp the window context so offset-search and SIC events
            // emitted below carry the preamble window they ran over.
            choir_trace::set_window(w as u64);
            per_window.push(phased_sic(&self.est, win, &self.cfg.sic).components);
        }
        if per_window.is_empty() {
            return Vec::new();
        }
        let min_support = (per_window.len() / 2).max(2).min(per_window.len());
        let tracks = scope(Stage::Cluster, || {
            crate::cluster::merge_tracks(&per_window, n, ChoirConfig::TRACK_TOL_BINS, min_support)
        });
        let mut users: Vec<UserEstimate> = tracks
            .into_iter()
            .map(|t| UserEstimate {
                offset_bins: t.pos_bins,
                frac: t.pos_bins.fract(),
                mag: t.mag,
                channel: t.members[0].1.channel,
                phase_slope: t.phase_slope(),
                timing_chips: 0.0,
                support: t.support(),
            })
            .collect();
        // Timing estimation (Sec. 6): coarse integer part from the
        // preamble→sync transition window, precise fractional part from a
        // direct alignment scan. Integer errors of a few chips are benign
        // (a chirp's time shift and the matching frequency shift cancel in
        // both the comb demodulator and the subtraction template).
        for u in users.iter_mut() {
            let coarse = self.transition_chip(samples, slot_start, u);
            // Alternate timing and offset refinement: each conditions the
            // other (the timing score reads energy at the expected comb
            // position; the offset is read from windows aligned by the
            // timing).
            u.timing_chips = self.refine_timing(samples, slot_start, u, coarse);
            for _ in 0..2 {
                u.offset_bins = self.refine_offset_aligned(samples, slot_start, u);
                u.frac = u.offset_bins.fract();
                u.timing_chips = self.refine_timing(samples, slot_start, u, u.timing_chips);
            }
        }
        // Provenance: the surviving user tracks as they enter
        // demodulation, with final (timing-refined) positions.
        if choir_trace::enabled(choir_trace::TraceLevel::Full) {
            for (i, u) in users.iter().enumerate() {
                choir_trace::full(|| choir_trace::TraceEvent::UserTrack {
                    track: u32::try_from(i).unwrap_or(u32::MAX),
                    pos_bins: u.offset_bins,
                    support: u32::try_from(u.support).unwrap_or(u32::MAX),
                    mag: u.mag,
                });
            }
        }
        users
    }

    /// Coarse integer timing (Sec. 6): the chip at which `user`'s last
    /// preamble chirp hands over to its first sync chirp. In the
    /// slot-aligned window `preamble_len` a user delayed by `Δ` chips
    /// dechirps to a tone at `μ = offset_bins` over `[0, Δ)` (the tail of
    /// its last preamble chirp) and a tone at `μ + SYNC_SYMBOLS[0]` over
    /// `[Δ, n)` (the head of its first sync chirp), so `Δ` is where
    /// [`boundary_scan`]'s two-gain fit explains most of the window — one
    /// single-user matched filter, which is the right estimator on a
    /// signal the other users have been cancelled from and, measured, no
    /// worse than a joint solve of the window on one they have not (DESIGN
    /// §17). `0.0` when the window runs past the capture or is silent.
    // hot:noalloc — the dechirp and both tones are workspace buffers.
    pub(super) fn transition_chip(
        &self,
        samples: &[C64],
        slot_start: usize,
        user: &UserEstimate,
    ) -> f64 {
        let Some(win) = self.window(samples, slot_start, self.params.preamble_len) else {
            return 0.0;
        };
        scope(Stage::Refine, || {
            let n = self.est.n();
            let m = n as f64;
            let mut de = workspace::take(n);
            let mut tail = workspace::take(n);
            let mut head = workspace::take(n);
            self.est.dechirp_into(win, &mut de);
            choir_dsp::backend::tone_into(&mut tail, n, user.offset_bins.rem_euclid(m));
            let sync_pos = (user.offset_bins + SYNC_SYMBOLS[0] as f64).rem_euclid(m);
            choir_dsp::backend::tone_into(&mut head, n, sync_pos);
            let (chip, _) = boundary_scan(&de, &tail, &mut head);
            workspace::put(head);
            workspace::put(tail);
            workspace::put(de);
            chip as f64
        })
    }

    /// Re-reads a user's aggregate offset from *aligned* preamble windows:
    /// once the timing is compensated, the preamble dechirps to a clean
    /// single tone at `μ + Δ` with no boundary phase step, so its position
    /// can be localised to milli-bins by a golden search on correlation
    /// energy.
    pub(super) fn refine_offset_aligned(
        &self,
        samples: &[C64],
        slot_start: usize,
        user: &UserEstimate,
    ) -> f64 {
        scope(Stage::Refine, || {
            let n = self.est.n() as f64;
            let delta = user.timing_chips;
            let init = (user.offset_bins + delta).rem_euclid(n);
            // The timing is fixed for the whole search, so align and
            // dechirp the probe windows once instead of per probe (the
            // windowed-sinc resample is as expensive as the correlation).
            let len = self.est.n();
            let mut probes = workspace::take(3 * len);
            let align = Alignment::new(delta);
            let held =
                self.dechirped_probes_into(samples, slot_start, &[2, 4, 6], &align, &mut probes);
            // No probe window inside the capture: the score is flat and a
            // golden search over it walks to the bracket edge, so the
            // estimate the caller holds is the best there is.
            let refined = if held == 0 {
                user.offset_bins
            } else {
                let mut tone = workspace::take(len);
                let score = |pos: f64| -tone_energy(&probes[..held * len], pos, &mut tone);
                let (pos, _) =
                    choir_dsp::optim::golden_section(score, init - 0.6, init + 0.6, 1e-3);
                workspace::put(tone);
                (pos - delta).rem_euclid(n)
            };
            workspace::put(probes);
            refined
        })
    }

    /// Aligns the windows `sym_idxs` to `align` and dechirps them back to
    /// back into `probes`, skipping any that run past the capture.
    /// Returns how many windows `probes` now holds.
    // hot:noalloc — the alignment scratch is a workspace buffer.
    fn dechirped_probes_into(
        &self,
        samples: &[C64],
        slot_start: usize,
        sym_idxs: &[usize],
        align: &Alignment,
        probes: &mut [C64],
    ) -> usize {
        let len = self.est.n();
        let mut aligned = workspace::take(len);
        let mut held = 0;
        for &sym_idx in sym_idxs {
            if self.aligned_window_into(samples, slot_start, sym_idx, align, &mut aligned) {
                self.est
                    .dechirp_into(&aligned, &mut probes[held * len..(held + 1) * len]);
                held += 1;
            }
        }
        workspace::put(aligned);
        held
    }

    /// Energy of the user's expected comb tone summed over the aligned
    /// windows `sym_idxs`, which all carry `expected_value`: they probe
    /// one position, so one synthesised tone scores them all. A window
    /// past the capture contributes nothing.
    // hot:noalloc — the timing searches call this per probe; the probe
    // windows and the tone are workspace buffers.
    pub(super) fn comb_energy(
        &self,
        samples: &[C64],
        slot_start: usize,
        sym_idxs: &[usize],
        align: &Alignment,
        expected_value: u16,
        offset_bins: f64,
    ) -> f64 {
        let n = self.est.n();
        let pos = (expected_value as f64 + offset_bins + align.timing_chips).rem_euclid(n as f64);
        let mut probes = workspace::take(sym_idxs.len() * n);
        let mut tone = workspace::take(n);
        let held = self.dechirped_probes_into(samples, slot_start, sym_idxs, align, &mut probes);
        let energy = tone_energy(&probes[..held * n], pos, &mut tone);
        workspace::put(tone);
        workspace::put(probes);
        energy
    }

    /// Timing refinement (Sec. 6): the preamble is periodic in whole chips,
    /// so preamble windows pin only the *fractional* chip alignment; the
    /// known sync symbols break integer ambiguities (a grossly wrong
    /// integer shift slides the window off the sync chirps entirely).
    /// Scans {coarse, 0} integer candidates × a fractional grid, scoring
    /// preamble + sync comb energy, then golden-refines.
    pub(super) fn refine_timing(
        &self,
        samples: &[C64],
        slot_start: usize,
        user: &UserEstimate,
        coarse: f64,
    ) -> f64 {
        scope(Stage::Refine, || {
            let p = self.params.preamble_len;
            let mut align = Alignment::new(0.0);
            let mut score = |delta: f64| -> f64 {
                if delta < 0.0 {
                    return -1.0;
                }
                align.retime(delta);
                let offset = user.offset_bins;
                let mut s = self.comb_energy(samples, slot_start, &[2, 4, 6], &align, 0, offset);
                for (i, &sync) in SYNC_SYMBOLS.iter().enumerate() {
                    s += self.comb_energy(samples, slot_start, &[p + i], &align, sync, offset);
                }
                s
            };
            let mut ints: Vec<f64> = vec![seed_chip(coarse), 0.0];
            ints.dedup();
            let mut best = (0.0f64, -1.0f64);
            for &base in &ints {
                for j in 0..8 {
                    let cand = base + j as f64 / 8.0 - 0.5;
                    let sc = score(cand);
                    if sc > best.1 {
                        best = (cand, sc);
                    }
                }
            }
            let (lo, hi) = (best.0 - 0.125, best.0 + 0.125);
            let (x, neg_s) = choir_dsp::optim::golden_section(|d| -score(d), lo.max(0.0), hi, 5e-3);
            if -neg_s >= best.1 {
                x
            } else {
                best.0
            }
        })
    }

    /// Extracts the user-aligned window for symbol index `sym_idx` (global
    /// over preamble+sync+data) into `out` (`n` samples): integer shift by
    /// `floor(Δ)` plus windowed-sinc resampling by `frac(Δ)`, `Δ` being
    /// `align`'s timing. Returns false, leaving `out` unspecified, when
    /// the window and its resampler margins run past the capture.
    // hot:noalloc — the output is caller-provided.
    pub(super) fn aligned_window_into(
        &self,
        samples: &[C64],
        slot_start: usize,
        sym_idx: usize,
        align: &Alignment,
        out: &mut [C64],
    ) -> bool {
        let n = self.est.n();
        let taps = RESAMPLE_TAPS;
        let m = align.timing_chips.floor();
        let delta = align.timing_chips - m; // in [0,1): signal delayed by delta
        let a = slot_start as i64 + (sym_idx * n) as i64 + m as i64;
        // Advancing by `delta` is a delay of `1 − delta` one sample
        // earlier: output `j` reads `a + j + 1 − taps ..= a + j + 1 + taps`.
        let lo = a + 1 - taps as i64;
        let hi = a + 1 + (n + taps) as i64;
        if lo < 0 || hi as usize > samples.len() {
            return false;
        }
        let slice = &samples[lo as usize..hi as usize];
        if delta < 1e-9 {
            out.copy_from_slice(&slice[taps - 1..taps - 1 + n]);
        } else {
            // Keep the window between the margins.
            fractional_delay_into(slice, &align.kernel, taps - 1, out);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{decode, params, profile};
    use super::*;
    use crate::cluster::circular_dist;
    use crate::error::DecodeError;
    use crate::SlotView;
    use choir_channel::impairments::HardwareProfile;
    use choir_channel::scenario::ScenarioBuilder;

    #[test]
    fn offsets_estimated_accurately() {
        let truth_shift =
            |p: &HardwareProfile| p.aggregate_shift_bins(125e3 / 256.0, 256).rem_euclid(256.0);
        let p1 = profile(5.37, 0.05);
        let p2 = profile(-3.21, 0.4);
        let s = ScenarioBuilder::new(params())
            .snrs_db(&[25.0, 22.0])
            .profiles(vec![p1, p2])
            .seed(2)
            .build();
        // Decode-time estimates are the system's final offsets (refined on
        // the SIC-cleaned, alignment-compensated signal — what Fig. 7 of
        // the paper characterises).
        let out = decode(&s, 8);
        assert_eq!(out.len(), 2);
        for truth in [truth_shift(&p1), truth_shift(&p2)] {
            let best = out
                .iter()
                .map(|d| circular_dist(d.user.offset_bins, truth, 256.0))
                .fold(f64::INFINITY, f64::min);
            assert!(best < 0.05, "offset error {best} for truth {truth}");
        }
    }

    #[test]
    fn timing_offsets_recovered() {
        let p1 = profile(5.37, 0.05); // Δ = 12.8 chips
        let p2 = profile(-3.21, 0.4); // Δ = 102.4 chips
        let s = ScenarioBuilder::new(params())
            .snrs_db(&[25.0, 22.0])
            .profiles(vec![p1, p2])
            .seed(2)
            .build();
        let dec = ChoirDecoder::new(s.params);
        let users = dec.discover_users(&s.samples, s.slot_start);
        assert!(users.len() >= 2);
        // Only the fractional chip timing is physically identifiable from
        // the preamble (and only it matters: integer chip errors cancel
        // against the matching frequency shift). Check it to 0.15 chips.
        for truth_chips in [12.8f64, 102.4] {
            let best = users[..2]
                .iter()
                .map(|u| {
                    circular_dist(
                        u.timing_chips.rem_euclid(1.0),
                        truth_chips.rem_euclid(1.0),
                        1.0,
                    )
                })
                .fold(f64::INFINITY, f64::min);
            assert!(
                best < 0.15,
                "fractional timing error {best} for truth {truth_chips}"
            );
        }
    }

    /// Regression: with the capture cut before any aligned probe window
    /// fits, `refine_offset_aligned` scored every position `-0.0` and the
    /// golden search walked to the bracket edge — +0.6 bin per call, two
    /// calls (249.766 against 248.52 from every longer cut).
    #[test]
    fn offset_survives_a_capture_with_no_probe_window() {
        let s = ScenarioBuilder::new(params())
            .snrs_db(&[22.0])
            .profiles(vec![profile(5.37, 0.05)])
            .seed(3)
            .build();
        let dec = ChoirDecoder::new(s.params);
        let n = dec.est.n();
        let offset_at = |symbols: usize| {
            let cut = &s.samples[..s.slot_start + symbols * n];
            let users = dec.discover_users(cut, s.slot_start);
            assert_eq!(users.len(), 1, "{symbols}-symbol cut");
            users[0].offset_bins
        };
        let (short, long) = (offset_at(3), offset_at(4));
        assert!(
            circular_dist(short, long, n as f64) < 0.1,
            "3-symbol cut reads {short}, 4-symbol cut {long}"
        );
    }

    /// The correlation the timing searches score by, against the direct
    /// libm evaluation it replaced: same DTFT bin, summed over the
    /// windows that share the probed position.
    #[test]
    fn tone_energy_matches_direct_libm_correlation() {
        use rand::SeedableRng;
        let n = 256;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let windows = choir_channel::noise::awgn(&mut rng, 3 * n, 1.0);
        let mut tone = vec![C64::ZERO; n];
        for pos in [0.0, 0.37, 17.5, 128.0, 200.123_456, 255.999, 256.4] {
            let w = -2.0 * std::f64::consts::PI * pos / n as f64;
            for held in 0..=3 {
                let direct: f64 = windows[..held * n]
                    .chunks_exact(n)
                    .map(|de| {
                        let acc: C64 = de
                            .iter()
                            .enumerate()
                            .map(|(t, v)| v * C64::cis(w * t as f64))
                            .sum();
                        acc.norm_sqr()
                    })
                    .sum();
                let got = tone_energy(&windows[..held * n], pos, &mut tone);
                assert!(
                    (got - direct).abs() <= 1e-9 * direct,
                    "pos {pos}, {held} windows: {got} vs {direct}"
                );
            }
        }
    }

    /// A dechirped transition window: the tone `mu` with gain `g_tail`
    /// over `[0, delta)`, the tone `mu + SYNC_SYMBOLS[0]` with gain
    /// `g_head` from `delta` on.
    fn transition_window(n: usize, mu: f64, delta: usize, g_tail: C64, g_head: C64) -> Vec<C64> {
        let w = std::f64::consts::TAU / n as f64;
        (0..n)
            .map(|t| {
                if t < delta {
                    g_tail * C64::cis(w * mu * t as f64)
                } else {
                    g_head * C64::cis(w * (mu + SYNC_SYMBOLS[0] as f64) * t as f64)
                }
            })
            .collect()
    }

    /// A capture, slot at sample 0, whose window `preamble_len` dechirps
    /// to `de` and whose every other sample is zero.
    fn capture_dechirping_to(dec: &ChoirDecoder, de: &[C64]) -> Vec<C64> {
        let n = dec.est.n();
        let down = lora_phy::chirp::base_downchirp_cached(n);
        let mut capture = vec![C64::ZERO; dec.params.preamble_len * n];
        capture.extend(de.iter().zip(down.iter()).map(|(v, d)| v * d.conj()));
        capture
    }

    fn user_at(offset_bins: f64) -> UserEstimate {
        UserEstimate {
            offset_bins,
            frac: offset_bins.fract(),
            mag: 1.0,
            channel: C64::ONE,
            phase_slope: None,
            timing_chips: 0.0,
            support: 7,
        }
    }

    /// The tail and head tones [`ChoirDecoder::transition_chip`] builds
    /// for a user at `mu`.
    fn transition_tones(n: usize, mu: f64) -> (Vec<C64>, Vec<C64>) {
        let (mut tail, mut head) = (vec![C64::ZERO; n], vec![C64::ZERO; n]);
        choir_dsp::backend::tone_into(&mut tail, n, mu);
        let sync_pos = (mu + SYNC_SYMBOLS[0] as f64).rem_euclid(n as f64);
        choir_dsp::backend::tone_into(&mut head, n, sync_pos);
        (tail, head)
    }

    // A chip is a whole number: compared exactly.
    #[allow(clippy::float_cmp)]
    #[test]
    fn transition_chip_is_exact_on_noiseless_windows() {
        let dec = ChoirDecoder::new(params());
        let n = dec.est.n();
        let (g_tail, g_head) = (C64::from_polar(1.0, 0.4), C64::from_polar(0.9, -1.9));
        // A generic offset, one within 0.1 bin of an integer, and one
        // whose sync tone wraps past `n`.
        for mu in [17.37, 100.04, 240.5] {
            for delta in 0..n {
                let de = transition_window(n, mu, delta, g_tail, g_head);
                let capture = capture_dechirping_to(&dec, &de);
                let chip = dec.transition_chip(&capture, 0, &user_at(mu));
                assert_eq!(chip, delta as f64, "mu {mu}");
            }
        }
    }

    /// [`boundary_scan`]'s oracle: at every boundary, fit the two gains by
    /// direct sums over their segments and add up what they explain.
    fn direct_boundary_scan(de: &[C64], tail: &[C64], head: &[C64]) -> (usize, f64) {
        let explained = |tone: &[C64], seg: &[C64]| {
            if seg.is_empty() {
                return 0.0;
            }
            let gain = conj_dot(tone, seg) / seg.len() as f64;
            gain.norm_sqr() * seg.len() as f64
        };
        let mut best = (0, -1.0);
        for c in 0..de.len() {
            let score = explained(&tail[..c], &de[..c]) + explained(&head[c..], &de[c..]);
            if score > best.1 {
                best = (c, score);
            }
        }
        best
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        #[test]
        fn boundary_scan_matches_the_direct_two_gain_fit(
            noise in proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 256..257),
            mu in 0.0f64..256.0,
            at in 0.0f64..1.0,
            level in 0.05f64..2.0,
            phase in 0.0f64..std::f64::consts::TAU,
        ) {
            let n = noise.len();
            let delta = (at * n as f64) as usize;
            let mut de = transition_window(n, mu, delta, C64::ONE, C64::cis(phase));
            for (v, &(re, im)) in de.iter_mut().zip(&noise) {
                *v += C64 { re, im }.scale(level);
            }
            let (tail, mut head) = transition_tones(n, mu);
            let slow = direct_boundary_scan(&de, &tail, &head);
            let fast = boundary_scan(&de, &tail, &mut head);
            proptest::prop_assert_eq!(fast.0, slow.0);
            proptest::prop_assert!((fast.1 - slow.1).abs() <= 1e-9 * slow.1, "{:?} vs {:?}", fast, slow);
        }
    }

    // A chip is a whole number: compared exactly.
    #[allow(clippy::float_cmp)]
    #[test]
    fn transition_chip_is_bit_identical_on_every_backend() {
        use choir_dsp::backend;
        let s = ScenarioBuilder::new(params())
            .snrs_db(&[14.0, 12.0])
            .profiles(vec![profile(5.37, 0.05), profile(-3.21, 0.4)]) // 12.8 and 102.4 chips
            .seed(2)
            .build();
        let dec = ChoirDecoder::new(s.params);
        let users = dec.discover_users(&s.samples, s.slot_start);
        assert!(users.len() >= 2);
        let p = s.params.preamble_len;
        let win = dec.window(&s.samples, s.slot_start, p).unwrap();
        let runs: Vec<Vec<(usize, u64)>> = backend::available()
            .into_iter()
            .map(|kind| {
                backend::force(kind);
                let reads = users.iter().map(|u| {
                    let (tail, mut head) = transition_tones(dec.est.n(), u.offset_bins);
                    let (chip, score) = boundary_scan(&dec.est.dechirp(win), &tail, &mut head);
                    let read = dec.transition_chip(&s.samples, s.slot_start, u);
                    assert_eq!(read, chip as f64);
                    (chip, score.to_bits())
                });
                reads.collect()
            })
            .collect();
        backend::reset();
        for run in &runs[1..] {
            assert_eq!(run, &runs[0]);
        }
        let mut chips: Vec<usize> = runs[0].iter().take(2).map(|r| r.0).collect();
        chips.sort_unstable();
        assert!(chips[0].abs_diff(13) <= 2, "{chips:?}");
        assert!(chips[1].abs_diff(102) <= 2, "{chips:?}");
    }

    // A chip is a whole number: compared exactly.
    #[allow(clippy::float_cmp)]
    #[test]
    fn transition_chip_of_a_cut_or_silent_window_is_zero() {
        let dec = ChoirDecoder::new(params());
        let n = dec.est.n();
        let de = transition_window(n, 17.37, 40, C64::ONE, C64::ONE);
        let capture = capture_dechirping_to(&dec, &de);
        let user = user_at(17.37);
        assert_eq!(dec.transition_chip(&capture, 0, &user), 40.0);
        // The capture ends inside window `preamble_len`.
        assert_eq!(
            dec.transition_chip(&capture[..capture.len() - 1], 0, &user),
            0.0
        );
        assert_eq!(dec.transition_chip(&capture, usize::MAX - 100, &user), 0.0);
        let silent = vec![C64::ZERO; capture.len()];
        assert_eq!(dec.transition_chip(&silent, 0, &user), 0.0);
    }

    /// The read as a detector is held: position error against the true
    /// delay, strict bounds, every user of a drawn collision with every
    /// other user's true waveform removed — the signal a user's turn sees
    /// once cancellation has done its work.
    #[test]
    fn transition_chip_lands_within_two_chips_once_the_others_are_removed() {
        use choir_channel::impairments::OscillatorModel;
        use choir_channel::mix::{render_into, MixConfig, Transmission};
        use lora_phy::chirp::PacketWaveform;
        use rand::SeedableRng;
        let params = params();
        let dec = ChoirDecoder::new(params);
        let n = dec.est.n();
        let cfg = MixConfig {
            bw_hz: params.bw.hz(),
            noise_power: 0.0,
        };
        let osc = OscillatorModel::default();
        let slot_start = 2 * n;
        let snrs = [22.0, 18.0, 14.0, 10.0, 6.0];
        let (mut within, mut users) = (0, 0);
        let mut worst = 0.0f64;
        for seed in 0..40 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(7100 + seed);
            let symbols = lora_phy::frame::packet_symbols(&params, &[seed as u8; 4]);
            let total = slot_start + (symbols.len() + 4) * n;
            let txs: Vec<Transmission> = snrs
                .iter()
                .map(|&snr| Transmission {
                    waveform: PacketWaveform::new(n, symbols.clone()),
                    channel: C64::ONE,
                    amplitude: choir_channel::noise::db_to_lin(snr).sqrt(),
                    profile: osc.sample_profile(osc.sample_ppm(&mut rng), &mut rng),
                    start_sample: slot_start as f64,
                })
                .collect();
            let alone: Vec<Vec<C64>> = txs
                .iter()
                .map(|tx| {
                    let mut buf = vec![C64::ZERO; total];
                    render_into(&mut buf, tx, &cfg, &mut rng);
                    buf
                })
                .collect();
            let mut capture = choir_channel::noise::awgn(&mut rng, total, 1.0);
            for buf in &alone {
                for (c, b) in capture.iter_mut().zip(buf) {
                    *c += *b;
                }
            }
            for (i, tx) in txs.iter().enumerate() {
                let mut cleaned = capture.clone();
                for (_, buf) in alone.iter().enumerate().filter(|(j, _)| *j != i) {
                    for (c, b) in cleaned.iter_mut().zip(buf) {
                        *c -= *b;
                    }
                }
                let truth = tx.profile.timing_offset_symbols * n as f64;
                let mu = tx.profile.aggregate_shift_bins(params.bin_hz(), n);
                let chip =
                    dec.transition_chip(&cleaned, slot_start, &user_at(mu.rem_euclid(n as f64)));
                let err = (chip - truth).abs();
                worst = worst.max(err);
                within += usize::from(err <= 2.0);
                users += 1;
            }
        }
        assert_eq!(users, 200);
        assert!(
            within * 100 >= users * 95,
            "{within} of {users} reads within 2 chips of the true delay, worst {worst}"
        );
    }

    /// Regression: the slice handed to the resampler sat one sample early,
    /// so the last output of every window was an edge output that dropped
    /// its `k = −taps` tap.
    #[test]
    fn aligned_window_is_the_interior_of_the_advanced_capture() {
        let dec = ChoirDecoder::new(params());
        let n = dec.est.n();
        let ramp: Vec<C64> = (0..6 * n)
            .map(|i| C64 {
                re: i as f64,
                im: -0.5 * i as f64,
            })
            .collect();
        for timing in [12.3, 0.75, 40.0] {
            let align = Alignment::new(timing);
            let whole = choir_dsp::resample::fractional_delay(
                &ramp,
                Alignment::advance(timing),
                RESAMPLE_TAPS,
            );
            let mut out = vec![C64::ZERO; n];
            assert!(dec.aligned_window_into(&ramp, n, 2, &align, &mut out));
            let a = 3 * n + timing.floor() as usize;
            // Every output, the last one included, is the full 21-tap sum.
            for (j, (got, want)) in out.iter().zip(&whole[a..a + n]).enumerate() {
                assert_eq!(
                    (got.re.to_bits(), got.im.to_bits()),
                    (want.re.to_bits(), want.im.to_bits()),
                    "timing {timing}, output {j}: {got:?} vs {want:?}"
                );
            }
        }
    }

    #[test]
    fn pure_noise_no_users() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let noise = choir_channel::noise::awgn(&mut rng, 256 * 40, 1.0);
        let dec = ChoirDecoder::new(params());
        assert!(dec.discover_users(&noise, 0).is_empty());
        assert_eq!(
            dec.try_decode_view(SlotView::new(&noise, 0, 10))
                .unwrap_err(),
            DecodeError::NoUsersFound
        );
    }

    #[test]
    fn large_timing_offset_isi_handled() {
        // Nearly half-symbol delays: window-aligned processing would see a
        // strong tail peak in every window; per-user realignment must make
        // this case clean.
        let s = ScenarioBuilder::new(params())
            .snrs_db(&[20.0, 18.0])
            .payload_len(9)
            .profiles(vec![profile(8.42, 0.45), profile(-15.18, 0.49)])
            .seed(7)
            .build();
        let out = decode(&s, 9);
        assert_eq!(out.len(), 2);
        for d in &out {
            assert!(
                d.payload_ok(),
                "sync {} erasures {}",
                d.sync_errors,
                d.erasures
            );
        }
    }
}
