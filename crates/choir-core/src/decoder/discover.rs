//! Stages 1–2: user discovery from the preamble (Sec. 5) and the
//! timing/CFO split (Sec. 6), plus the alignment helpers every later stage
//! reads a user's windows through.

use choir_dsp::complex::C64;
use choir_dsp::linalg::conj_dot;
use choir_dsp::resample::{fractional_delay_into, DelayKernel};
use choir_dsp::workspace;
use lora_phy::frame::SYNC_SYMBOLS;

use super::{ChoirConfig, ChoirDecoder, UserEstimate};
use crate::cluster::circular_dist;
use crate::estimator::ComponentEstimate;
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
        self.discover_with_transition(samples, slot_start).0
    }

    /// [`Self::discover_users`], also returning the preamble→sync
    /// transition window's components it fitted on the way, so the decode
    /// that follows on the same samples does not solve that window again.
    pub(super) fn discover_with_transition(
        &self,
        samples: &[C64],
        slot_start: usize,
    ) -> (Vec<UserEstimate>, Vec<ComponentEstimate>) {
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
            return (Vec::new(), Vec::new());
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
        choir_trace::set_window(p as u64);
        let transition = self.transition_components(samples, slot_start);
        for u in users.iter_mut() {
            let coarse = self.timing_from_transition(&transition, u, n);
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
        (users, transition)
    }

    /// Phased SIC over the preamble→sync transition window (empty when the
    /// window runs past the capture): what
    /// [`Self::timing_from_transition`] reads a user's chip delay from.
    pub(super) fn transition_components(
        &self,
        samples: &[C64],
        slot_start: usize,
    ) -> Vec<ComponentEstimate> {
        #[cfg(test)]
        super::TRANSITION_SOLVES.with(|c| c.set(c.get() + 1));
        self.window(samples, slot_start, self.params.preamble_len)
            .map(|win| phased_sic(&self.est, win, &self.cfg.sic).components)
            .unwrap_or_default()
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

    /// Coarse integer timing from the preamble→sync transition window: the
    /// window holds the tail of the last preamble chirp (peak at `μ`) and
    /// the head of the first sync chirp (peak at `μ + SYNC_SYMBOLS[0]`).
    /// Both components' fitted boundary-split terms place their segment
    /// edge exactly at the user's chip delay `Δ`, so the boundary is read
    /// off directly. Returns 0 when neither component carries a step
    /// (sub-chip delays — exactly the case where 0 is correct to a chip).
    pub(super) fn timing_from_transition(
        &self,
        transition: &[ComponentEstimate],
        user: &UserEstimate,
        n: usize,
    ) -> f64 {
        let m = n as f64;
        let find = |target: f64| -> Option<&ComponentEstimate> {
            transition
                .iter()
                .filter(|c| circular_dist(c.freq_bins, target, m) < 0.6)
                .max_by(|a, b| {
                    let ta = a.channel.abs() + a.step.map(|s| s.coeff.abs()).unwrap_or(0.0);
                    let tb = b.channel.abs() + b.step.map(|s| s.coeff.abs()).unwrap_or(0.0);
                    ta.total_cmp(&tb)
                })
        };
        let head = find((user.offset_bins + SYNC_SYMBOLS[0] as f64).rem_euclid(m));
        if let Some(st) = head.and_then(|c| c.step) {
            return st.boundary as f64;
        }
        let tail = find(user.offset_bins);
        if let Some(st) = tail.and_then(|c| c.step) {
            return st.boundary as f64;
        }
        0.0
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
        let lo = a - taps as i64;
        let hi = a + (n + taps) as i64;
        if lo < 0 || hi as usize > samples.len() {
            return false;
        }
        let slice = &samples[lo as usize..hi as usize];
        if delta < 1e-9 {
            out.copy_from_slice(&slice[taps..taps + n]);
        } else {
            // Keep the window between the margins.
            fractional_delay_into(slice, &align.kernel, taps, out);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{decode, params, profile};
    use super::*;
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
