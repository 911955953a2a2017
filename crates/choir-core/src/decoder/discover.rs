//! Stages 1–2: user discovery from the preamble (Sec. 5) and the
//! timing/CFO split (Sec. 6), plus the alignment every later stage reads
//! a user's windows through: a slice on the user's whole-chip grid and a
//! phase step for the fraction.

use std::f64::consts::TAU;

use choir_dsp::complex::C64;
use choir_dsp::linalg::conj_dot;
use choir_dsp::workspace;
use lora_phy::frame::SYNC_SYMBOLS;

use super::{ChoirConfig, ChoirDecoder, UserEstimate};
use crate::estimator::{boundary_scan, projection_prefix, ToneFit};
use crate::profile::{scope, Stage};
use crate::sic::phased_sic;

/// The two constant-phase sums of a dechirped window `de` of a symbol
/// carrying `value` against `tone`: `a = Σ_{t<n−value} conj(tone[t])·de[t]`
/// and `b` over the rest — the chirp wraps `n − value` chips in, and a
/// sub-chip delay turns that wrap into a phase step (DESIGN §17 "A
/// fractional chip is a phase"). A `value` of 0 leaves `b` empty.
// hot:noalloc — two dot products over the caller's buffers.
fn wrap_sums(de: &[C64], tone: &[C64], value: u16) -> (C64, C64) {
    let wrap = de.len() - usize::from(value);
    let (de_pre, de_post) = de.split_at(wrap);
    let (tone_pre, tone_post) = tone.split_at(wrap);
    (conj_dot(tone_pre, de_pre), conj_dot(tone_post, de_post))
}

/// A user's timing `Δ` as every window the decoder reads of it sees it:
/// the whole chip `ceil(Δ)` its windows start at, and the phase step
/// `e^{−j2π·frac(Δ)}` that turns the segment after a chirp's wrap back
/// into line with the segment before it. Read at that chip, a symbol of
/// value `v` dechirps to the tone `v + μ + ceil(Δ)` — the fractional chip
/// cancels out of the frequency — with `e^{+j2π·frac(Δ)}` on its last `v`
/// samples, so a window is a slice of the capture, not a resample of it.
pub(super) struct Alignment {
    /// `ceil(Δ)`: the sample, past the slot-aligned window, a user's
    /// window starts at.
    pub(super) chip: usize,
    /// `e^{−j2π·frac(Δ)}`.
    step: C64,
}

impl Alignment {
    pub(super) fn new(timing_chips: f64) -> Self {
        let delta = timing_chips.max(0.0);
        Alignment {
            chip: delta.ceil() as usize,
            step: C64::cis(-TAU * (delta - delta.floor())),
        }
    }
}

/// The whole chip a timing read is seeded at — all
/// [`ChoirDecoder::refine_timing`] takes of its seed, so seeds on one chip
/// are one read.
pub(super) fn seed_chip(seed: f64) -> usize {
    seed.max(0.0).round() as usize
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
        // preamble→sync transition window, fractional part from the sync
        // chirps' phase step at their wrap. Integer errors of a few chips
        // are benign (a chirp's time shift and the matching frequency
        // shift cancel in both the comb demodulator and the subtraction
        // template).
        for u in users.iter_mut() {
            let coarse = self.transition_chip(samples, slot_start, u);
            // Alternate timing and offset refinement: each conditions the
            // other (the timing read correlates against tones at the
            // offset; the offset is read on the timing's chip grid).
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
            projection_prefix(&de, &mut tail);
            let head_total = projection_prefix(&de, &mut head);
            let chip = boundary_scan(&tail, &head, head_total, 1..n).chip;
            workspace::put(head);
            workspace::put(tail);
            workspace::put(de);
            chip as f64
        })
    }

    /// Re-reads a user's aggregate offset from its preamble windows on
    /// its own chip grid: read at `ceil(Δ)`, a preamble chirp (value 0,
    /// no wrap inside the window) dechirps to one clean tone at `μ +
    /// ceil(Δ)`, so its position is the one frequency of windows 2, 4
    /// and 6, each with its own gain ([`ToneFit`]), fitted within ±0.6
    /// bins of the estimate held. A window past the capture is left out;
    /// with none the fit keeps its start.
    // hot:noalloc — one workspace buffer for the dechirped windows.
    pub(super) fn refine_offset_aligned(
        &self,
        samples: &[C64],
        slot_start: usize,
        user: &UserEstimate,
    ) -> f64 {
        scope(Stage::Refine, || {
            let len = self.est.n();
            let n = len as f64;
            let align = Alignment::new(user.timing_chips);
            let chip = align.chip as f64;
            let init = (user.offset_bins + chip).rem_euclid(n);
            let mut windows = workspace::take(3 * len);
            let mut fit = ToneFit::new(len, &mut windows);
            for sym_idx in [2, 4, 6] {
                if let Some(win) = self.aligned_window(samples, slot_start, sym_idx, &align) {
                    self.est.dechirp_into(win, fit.push(len, n));
                }
            }
            // Trust radius 0.3, so iterates stay within ±0.6 bins.
            let pos = fit.descend(init, 0.3);
            workspace::put(windows);
            (pos - chip).rem_euclid(n)
        })
    }

    /// Energy of the user's two sync chirps read at timing `delta`: each
    /// sync window on the grid `ceil(delta)`, its two constant-phase sums
    /// against the tone `value + μ + ceil(delta)` joined by the alignment's
    /// step, `|a + step·b|²`. A window past the capture contributes
    /// nothing.
    // hot:noalloc — the dechirp and the tone are workspace buffers.
    pub(super) fn sync_energy(
        &self,
        samples: &[C64],
        slot_start: usize,
        user: &UserEstimate,
        delta: f64,
    ) -> f64 {
        let n = self.est.n();
        let p = self.params.preamble_len;
        let align = Alignment::new(delta);
        let mut de = workspace::take(n);
        let mut tone = workspace::take(n);
        let mut energy = 0.0;
        for (i, &value) in SYNC_SYMBOLS.iter().enumerate() {
            let Some(win) = self.aligned_window(samples, slot_start, p + i, &align) else {
                continue;
            };
            self.est.dechirp_into(win, &mut de);
            let pos = f64::from(value) + user.offset_bins + align.chip as f64;
            choir_dsp::backend::tone_into(&mut tone, n, pos.rem_euclid(n as f64));
            let (a, b) = wrap_sums(&de, &tone, value);
            energy += (a + align.step * b).norm_sqr();
        }
        workspace::put(tone);
        workspace::put(de);
        energy
    }

    /// Timing refinement (Sec. 6), in closed form. A user delayed by `Δ =
    /// m + δ` chips and read on the chip grid `m + 1` dechirps, in every
    /// window of value `v`, to the tone `f = v + μ + m + 1` — `δ` cancels
    /// out of the frequency — turned by `e^{j2πδ}` after the chirp's wrap
    /// `n − v` chips in. So with `a`, `b` the two segment sums of a window
    /// against that tone ([`wrap_sums`]), the analytic template's
    /// correlation `Σ_w |a + e^{−j2πδ}·b|²` is largest at
    ///
    /// ```text
    /// δ = arg(Σ_w conj(a)·b) / 2π  (mod 1),   score(m) = Σ_w (|a|² + |b|²) + 2·|Σ_w conj(a)·b|
    /// ```
    ///
    /// Read over preamble windows 2, 4, 6 (value 0: no wrap, so they weigh
    /// the chip but carry no `δ`) and the two sync windows, for the chips
    /// `m ∈ {b − 1, b} ∪ {0}`, `b` the seed's whole chip. The first `m`
    /// wins a tie and a window past the capture is skipped; with none left
    /// the read is the first chip, `δ = 0`.
    pub(super) fn refine_timing(
        &self,
        samples: &[C64],
        slot_start: usize,
        user: &UserEstimate,
        seed: f64,
    ) -> f64 {
        scope(Stage::Refine, || {
            let n = self.est.n();
            let p = self.params.preamble_len;
            let reads = [
                (2, 0),
                (4, 0),
                (6, 0),
                (p, SYNC_SYMBOLS[0]),
                (p + 1, SYNC_SYMBOLS[1]),
            ];
            let b = seed_chip(seed);
            let mut chips = [b.checked_sub(1), Some(b), Some(0)];
            if b <= 1 {
                chips[2] = None;
            }
            let mut de = workspace::take(n);
            let mut tone = workspace::take(n);
            let mut best = (0usize, -1.0f64, C64::ZERO);
            for m in chips.into_iter().flatten() {
                let (mut energy, mut cross) = (0.0, C64::ZERO);
                let mut toned = None;
                let start = slot_start.checked_add(m + 1);
                for (sym_idx, value) in reads {
                    let Some(win) = start.and_then(|s| self.window(samples, s, sym_idx)) else {
                        continue;
                    };
                    if toned != Some(value) {
                        let pos = f64::from(value) + user.offset_bins + (m + 1) as f64;
                        choir_dsp::backend::tone_into(&mut tone, n, pos.rem_euclid(n as f64));
                        toned = Some(value);
                    }
                    self.est.dechirp_into(win, &mut de);
                    let (a, b) = wrap_sums(&de, &tone, value);
                    energy += a.norm_sqr() + b.norm_sqr();
                    cross += a.conj() * b;
                }
                let score = energy + 2.0 * cross.abs();
                if score > best.1 {
                    best = (m, score, cross);
                }
            }
            workspace::put(tone);
            workspace::put(de);
            let (m, _, cross) = best;
            m as f64 + (cross.arg() / TAU).rem_euclid(1.0)
        })
    }

    /// The user-aligned window for symbol index `sym_idx` (global over
    /// preamble+sync+data): the `n` samples from `align.chip` past the
    /// slot-aligned window, or `None` when they run past the capture.
    pub(super) fn aligned_window<'a>(
        &self,
        samples: &'a [C64],
        slot_start: usize,
        sym_idx: usize,
        align: &Alignment,
    ) -> Option<&'a [C64]> {
        self.window(samples, slot_start.checked_add(align.chip)?, sym_idx)
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{decode, params, profile, render_lone};
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

    /// The correlation the offset polish fits by, against the direct libm
    /// evaluation it replaced: same DTFT bin, summed over the windows
    /// that share the probed position — `−R` of a [`ToneFit`] whose
    /// windows' basis energy is 1.
    #[test]
    fn tone_energy_matches_direct_libm_correlation() {
        use rand::SeedableRng;
        let n = 256;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let windows = choir_channel::noise::awgn(&mut rng, 3 * n, 1.0);
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
                let mut room = vec![C64::ZERO; 3 * n];
                let mut fit = ToneFit::new(n, &mut room);
                for de in windows[..held * n].chunks_exact(n) {
                    fit.push(n, 1.0).copy_from_slice(de);
                }
                let got = -fit.residual(pos);
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
                    let (mut tail, mut head) = transition_tones(dec.est.n(), u.offset_bins);
                    let de = dec.est.dechirp(win);
                    projection_prefix(&de, &mut tail);
                    let head_total = projection_prefix(&de, &mut head);
                    let split = boundary_scan(&tail, &head, head_total, 1..de.len());
                    let read = dec.transition_chip(&s.samples, s.slot_start, u);
                    assert_eq!(read, split.chip as f64);
                    (split.chip, split.explained.to_bits())
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

    /// A user's window is the capture itself from `ceil(Δ)` on — borrowed,
    /// not resampled — with the fractional chip left to the step, and no
    /// window once it runs past the capture.
    #[test]
    fn aligned_window_is_the_raw_slice_at_the_ceiling_chip() {
        let dec = ChoirDecoder::new(params());
        let n = dec.est.n();
        let ramp: Vec<C64> = (0..6 * n)
            .map(|i| C64 {
                re: i as f64,
                im: -0.5 * i as f64,
            })
            .collect();
        for (timing, chip, frac) in [
            (12.3, 13, 0.3),
            (0.75, 1, 0.75),
            (40.0, 40, 0.0),
            (0.0, 0, 0.0),
            (-2.0, 0, 0.0),
        ] {
            let align = Alignment::new(timing);
            assert_eq!(align.chip, chip, "timing {timing}");
            assert!(
                (align.step - C64::cis(-TAU * frac)).abs() < 1e-12,
                "timing {timing}"
            );
            let win = dec
                .aligned_window(&ramp, n, 2, &align)
                .expect("inside the capture");
            let a = 3 * n + chip;
            assert!(std::ptr::eq(win, &ramp[a..a + n]), "timing {timing}");
        }
        // Window 4 at chip 1 ends one sample past the capture.
        assert!(dec
            .aligned_window(&ramp, n, 4, &Alignment::new(0.5))
            .is_none());
        assert!(dec
            .aligned_window(&ramp, n, 4, &Alignment::new(0.0))
            .is_some());
        assert!(dec
            .aligned_window(&ramp, usize::MAX - 1, 0, &Alignment::new(3.0))
            .is_none());
    }

    /// The frame the timing tests render.
    fn frame_symbols() -> Vec<u16> {
        lora_phy::frame::packet_symbols(&params(), &[0x5a, 0xc3, 0x11, 0x7e])
    }

    /// The closed form is the template's maximum, not an estimate of it:
    /// on a noiseless user it returns the rendered delay to rounding,
    /// whatever the fraction, the offset and the seed's side of it. At `δ
    /// = 0` the grids `m` and `m + 1` read one template — a chirp's value
    /// one chip past its end is the next chirp's first sample — so the
    /// read may land on a neighbouring whole chip, with the fraction
    /// still exact.
    #[test]
    fn refine_timing_is_exact_on_a_noiseless_user() {
        let dec = ChoirDecoder::new(params());
        for (m, cfo) in [(3usize, 5.37), (40, -12.81), (117, 30.5)] {
            for frac in [0.0, 0.1, 0.5, 0.9, 0.999] {
                let delta = m as f64 + frac;
                let (capture, slot_start, mu) =
                    render_lone(frame_symbols(), delta, cfo, f64::INFINITY, 1);
                for seed in [delta, delta.floor(), delta.ceil()] {
                    let got = dec.refine_timing(&capture, slot_start, &user_at(mu), seed);
                    let err = (got - delta).abs();
                    let frac_err = circular_dist(got.rem_euclid(1.0), frac, 1.0);
                    let what = format!("Δ = {delta}, μ = {mu}, seed {seed}: read {got}");
                    if frac > 0.0 {
                        assert!(err < 1e-6, "{what}");
                    } else {
                        assert!(frac_err < 1e-6 && err < 1.0 + 1e-6, "{what}");
                    }
                }
            }
        }
    }

    /// The read's oracle: for every chip the read tries, every `δ` on a
    /// 1e-3 grid, the analytic template of each window it reads — the
    /// chirp at the fractional time `t + 1 − δ`, rotated by the CFO `μ + m
    /// + δ` that delay implies — correlated with the window, the
    /// energies summed. Returns the best `(m, δ)`.
    fn brute_force_timing(
        dec: &ChoirDecoder,
        samples: &[C64],
        slot_start: usize,
        mu: f64,
        seed: f64,
    ) -> (usize, f64) {
        let n = dec.est.n();
        let p = dec.params.preamble_len;
        let reads = [
            (2, 0),
            (4, 0),
            (6, 0),
            (p, SYNC_SYMBOLS[0]),
            (p + 1, SYNC_SYMBOLS[1]),
        ];
        let b = seed_chip(seed);
        let mut chips = vec![b.saturating_sub(1), b, 0];
        chips.sort_unstable();
        chips.dedup();
        let mut best = (0, 0.0, -1.0);
        for &m in &chips {
            for k in 0..1000 {
                let delta = k as f64 * 1e-3;
                let cfo = mu + m as f64 + delta;
                let score: f64 = reads
                    .iter()
                    .filter_map(|&(sym_idx, value)| {
                        let win = dec.window(samples, slot_start + m + 1, sym_idx)?;
                        let corr: C64 = win
                            .iter()
                            .enumerate()
                            .map(|(t, y)| {
                                let at = (t + m + 1) as f64;
                                let chirp =
                                    lora_phy::chirp::symbol_sample(n, value, at - m as f64 - delta);
                                let rot = C64::cis(TAU * cfo * at / n as f64);
                                (chirp * rot).conj() * y
                            })
                            .sum();
                        Some(corr.norm_sqr())
                    })
                    .sum();
                if score > best.2 {
                    best = (m, delta, score);
                }
            }
        }
        (best.0, best.1)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]

        #[test]
        fn refine_timing_is_the_maximum_of_the_template_scan(
            chip in 2usize..150,
            frac in 0.02f64..0.98,
            cfo in -40.0f64..40.0,
            snr_db in -6.0f64..12.0,
            seed in 0u64..1000,
        ) {
            let dec = ChoirDecoder::new(params());
            let delta = chip as f64 + frac;
            let (capture, slot_start, mu) = render_lone(frame_symbols(), delta, cfo, snr_db, seed);
            let user = user_at(mu);
            let got = dec.refine_timing(&capture, slot_start, &user, delta);
            let (m, d) = brute_force_timing(&dec, &capture, slot_start, mu, delta);
            // The same chip, and the fraction within the scan's grid.
            let scan = m as f64 + d;
            proptest::prop_assert!((got - scan).abs() <= 1e-3, "read {} vs scan {}", got, scan);
        }
    }

    /// The read touches the backend only through the tone and dot
    /// kernels, which are bit-identical — so is the read, and so is the
    /// sync score the play-off between two reads compares.
    #[test]
    fn refine_timing_is_bit_identical_on_every_backend() {
        use choir_dsp::backend;
        let s = ScenarioBuilder::new(params())
            .snrs_db(&[14.0, 12.0])
            .profiles(vec![profile(5.37, 0.05), profile(-3.21, 0.4)]) // 12.8 and 102.4 chips
            .seed(2)
            .build();
        let dec = ChoirDecoder::new(s.params);
        let users = dec.discover_users(&s.samples, s.slot_start);
        assert!(users.len() >= 2);
        let runs: Vec<Vec<u64>> = backend::available()
            .into_iter()
            .map(|kind| {
                backend::force(kind);
                let mut bits = Vec::new();
                for u in &users {
                    for seed in [0.0, u.timing_chips, 40.0] {
                        let read = dec.refine_timing(&s.samples, s.slot_start, u, seed);
                        let sync = dec.sync_energy(&s.samples, s.slot_start, u, read);
                        bits.extend([read.to_bits(), sync.to_bits()]);
                    }
                }
                bits
            })
            .collect();
        backend::reset();
        for run in &runs[1..] {
            assert_eq!(run, &runs[0]);
        }
    }

    /// A capture that ends inside the last sync window loses that window
    /// from every chip's read and the read stays finite, on the right
    /// fraction; with no window left it is the first chip tried, `δ = 0`.
    // A read with nothing to read is a whole number: compared exactly.
    #[allow(clippy::float_cmp)]
    #[test]
    fn refine_timing_of_a_cut_capture_is_finite() {
        let dec = ChoirDecoder::new(params());
        let n = dec.est.n();
        let p = dec.params.preamble_len;
        let delta = 40.3;
        let (capture, slot_start, mu) = render_lone(frame_symbols(), delta, 5.37, 10.0, 4);
        let user = user_at(mu);
        let cut = &capture[..slot_start + (p + 1) * n + 41 + n / 2];
        let got = dec.refine_timing(cut, slot_start, &user, delta);
        assert!(got.is_finite() && (got - delta).abs() < 0.15, "read {got}");
        let empty = &capture[..slot_start + 2 * n];
        assert_eq!(dec.refine_timing(empty, slot_start, &user, delta), 39.0);
        let beyond = usize::MAX - 10;
        assert_eq!(dec.refine_timing(&capture, beyond, &user, delta), 39.0);
        assert_eq!(dec.refine_timing(empty, slot_start, &user, 0.3), 0.0);
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
