//! The end-to-end Choir base-station pipeline.
//!
//! 1. **Discover users** (Sec. 5): run phased SIC on each interior preamble
//!    window — the preamble is a train of identical up-chirps, so every
//!    window yields one stable peak per user at its aggregate hardware
//!    offset — then merge per-window components into user tracks.
//! 2. **Split time from frequency** (Sec. 6): a user's aggregate offset
//!    `μ = cfo − Δ` confounds CFO and timing, but two extra observables
//!    break the tie: the phase of its preamble peak advances by
//!    `2π·cfo/bin` per symbol, and its last preamble chirp hands over to
//!    its first sync chirp `Δ` chips into the window between them — a
//!    boundary one matched filter reads, to the whole chip. The fraction
//!    of a chip is a phase: read on the whole-chip grid, a chirp delayed
//!    by `δ` turns by `2πδ` at its frequency wrap, and the sync chirps'
//!    wrap phases give `δ` in closed form.
//! 3. **Per-user aligned demodulation + packet-level SIC** (Secs. 5.2,
//!    6.1): strongest user first, read windows on the user's own symbol
//!    clock (the capture sliced at the whole chip `ceil(Δ)` — no
//!    resampling — which removes inter-symbol interference entirely),
//!    demodulate each symbol as the argmax over the user's *fractional
//!    comb* (integer values + its fractional offset, each scored per
//!    constant-phase segment so the wrap's step costs nothing),
//!    reconstruct its exact waveform (per-symbol complex gain fit) and
//!    subtract before decoding the next user. A candidate demodulates its
//!    data windows only once its preamble and sync windows hold, and a
//!    user whose frame checks out is final: later passes re-subtract it
//!    but never re-decide it.
//! 4. **Frame-decode** each user's symbol stream through the standard LoRa
//!    chain (Gray/interleave/Hamming/CRC) from `lora-phy`.
//!
//! A slot enters through exactly one function,
//! [`ChoirDecoder::try_decode_view`] ([`ChoirDecoder::decode_slot_views_with_pool`]
//! maps it over a batch), and the files of this module are the stages it
//! runs, named as [`crate::profile::Stage`] bills them: `discover`
//! (steps 1–2), `demod` and `cancel` (step 3), `frame` (step 4).

mod cancel;
mod demod;
mod discover;
mod frame;

use choir_dsp::complex::C64;
use choir_pool::ThreadPool;
use lora_phy::frame::{frame_symbol_count, DecodedFrame};
use lora_phy::params::PhyParams;

use crate::error::DecodeError;
use crate::estimator::{EstimatorConfig, OffsetEstimator};
use crate::sic::SicConfig;

/// Full decoder configuration.
#[derive(Clone, Copy, Debug)]
pub struct ChoirConfig {
    /// Offset-estimator settings (zero-padding, search radius…).
    pub estimator: EstimatorConfig,
    /// Phased-SIC settings (used on the preamble windows).
    pub sic: SicConfig,
    /// Packet-level SIC passes — the retry budget of the users that are
    /// not final. Pass 1 decodes strongest-first under residual
    /// interference, and a user whose frame comes out `crc_ok &&
    /// fec_reliable` on a clean header is final: later passes put it back,
    /// re-acquire it and re-subtract its pass-1 symbols, but never
    /// demodulate it again. Every other user is re-decoded with every
    /// other user's reconstruction removed; a candidate whose preamble or
    /// sync windows fail gets neither data windows nor a subtraction in
    /// that pass. Two passes handle dense (8–10 user) collisions; one
    /// suffices for small ones.
    pub sic_passes: usize,
}

impl Default for ChoirConfig {
    fn default() -> Self {
        ChoirConfig {
            estimator: EstimatorConfig::default(),
            sic: SicConfig::default(),
            sic_passes: 2,
        }
    }
}

impl ChoirConfig {
    /// Preamble track-merge tolerance in bins.
    const TRACK_TOL_BINS: f64 = 0.35;
}

/// A user discovered from the preamble.
#[derive(Clone, Copy, Debug)]
pub struct UserEstimate {
    /// Aggregate hardware offset in fractional bins, `[0, 2^SF)` — CFO
    /// plus timing, the quantity every subsequent peak is displaced by.
    pub offset_bins: f64,
    /// Fractional part of the offset (the user-identifying feature).
    pub frac: f64,
    /// Mean channel magnitude over the preamble.
    pub mag: f64,
    /// Channel estimate from the first preamble window observed.
    pub channel: C64,
    /// Phase advance per symbol (radians), when measurable — equals
    /// `2π·CFO/bin (mod 2π)`, separating true CFO from timing offset.
    pub phase_slope: Option<f64>,
    /// Estimated timing offset in chips (delay past the slot boundary),
    /// reconstructed from the preamble→sync boundary (integer part) and
    /// the sync chirps' phase step at their frequency wrap (fractional
    /// part).
    pub timing_chips: f64,
    /// Number of preamble windows the user was tracked in.
    pub support: usize,
}

impl UserEstimate {
    /// CFO in bins implied by the offset and timing estimates (mod `n`).
    pub fn cfo_bins(&self, n: usize) -> f64 {
        (self.offset_bins + self.timing_chips).rem_euclid(n as f64)
    }
}

/// One user's decoded output.
#[derive(Clone, Debug)]
pub struct DecodedUser {
    /// The preamble-derived user estimate.
    pub user: UserEstimate,
    /// Recovered data symbols (sync symbols stripped).
    pub symbols: Vec<u16>,
    /// How many of the two sync symbols failed to match (0 = clean sync).
    pub sync_errors: usize,
    /// Number of windows where no symbol could be recovered.
    pub erasures: usize,
    /// Frame-level decode of the symbol stream, when structurally valid.
    pub frame: Option<DecodedFrame>,
    /// Why the frame chain failed, when `frame` is `None`.
    pub frame_error: Option<DecodeError>,
}

impl DecodedUser {
    /// True when the frame decoded with a passing CRC.
    pub fn payload_ok(&self) -> bool {
        self.frame.as_ref().map(|f| f.crc_ok).unwrap_or(false)
    }
}

/// A borrowed view of one slot's capture — the decoder's only input. The
/// streaming station hands its workers views into buffers it already owns;
/// batch callers build them over the captures they hold. The decoder is a
/// pure function of the sample bytes, the relative slot start and the
/// symbol count.
#[derive(Clone, Copy, Debug)]
pub struct SlotView<'a> {
    /// The IQ samples containing the slot.
    pub samples: &'a [C64],
    /// Sample index of the slot boundary (beacon-aligned) within `samples`.
    pub slot_start: usize,
    /// Expected number of data symbols after the sync word.
    pub num_data_symbols: usize,
}

impl<'a> SlotView<'a> {
    /// A view with an explicit data-symbol count.
    pub fn new(samples: &'a [C64], slot_start: usize, num_data_symbols: usize) -> Self {
        SlotView {
            samples,
            slot_start,
            num_data_symbols,
        }
    }

    /// A view for a known payload length in bytes (the scheduled-uplink
    /// case).
    pub fn known_len(
        params: &PhyParams,
        samples: &'a [C64],
        slot_start: usize,
        payload_len: usize,
    ) -> Self {
        SlotView::new(samples, slot_start, frame_symbol_count(params, payload_len))
    }
}

/// The outcome of one slot in a batch decode.
#[derive(Clone, Debug)]
pub struct SlotResult {
    /// Decoded users, strongest first (empty when `error` is set).
    pub users: Vec<DecodedUser>,
    /// Why the slot produced nothing, when it did not decode.
    pub error: Option<DecodeError>,
}

impl SlotResult {
    /// The users whose frame decoded with a passing CRC.
    pub fn ok_users(&self) -> impl Iterator<Item = &DecodedUser> {
        self.users.iter().filter(|u| u.payload_ok())
    }
}

/// The Choir collision decoder for one PHY configuration.
#[derive(Clone, Debug)]
pub struct ChoirDecoder {
    params: PhyParams,
    cfg: ChoirConfig,
    est: OffsetEstimator,
    /// The comb demodulator's chirp-z tables and FFT plans, shared across
    /// clones.
    comb: std::sync::Arc<demod::CombPlan>,
    /// The base up-chirp at integer chips, every subtraction template's
    /// table (the process-wide cached one).
    upchirp: std::sync::Arc<Vec<C64>>,
}

#[cfg(test)]
thread_local! {
    /// Test probe: user turns on this thread that subtracted their packet.
    static SUBTRACTIONS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// Test probe: symbol windows this thread's comb demodulator scored.
    static DEMODULATED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// Test probe: the windows each user turn on this thread demodulated,
    /// in turn order.
    static TURN_WINDOWS: std::cell::RefCell<Vec<usize>> = const { std::cell::RefCell::new(Vec::new()) };
    /// Test probe, off until a test sets it to `Some`: the working signal
    /// after each user turn on this thread, in turn order.
    static TURN_WORK: std::cell::RefCell<Option<Vec<Vec<C64>>>> = const { std::cell::RefCell::new(None) };
}

impl ChoirDecoder {
    /// Builds a decoder with default configuration.
    pub fn new(params: PhyParams) -> Self {
        Self::with_config(params, ChoirConfig::default())
    }

    /// Builds a decoder with explicit configuration.
    pub fn with_config(params: PhyParams, cfg: ChoirConfig) -> Self {
        let n = params.samples_per_symbol();
        let est = OffsetEstimator::new(n, cfg.estimator);
        let comb = std::sync::Arc::new(demod::CombPlan::new(n));
        ChoirDecoder {
            params,
            cfg,
            est,
            comb,
            upchirp: lora_phy::chirp::base_upchirp_cached(n),
        }
    }

    /// The PHY parameters in use.
    pub fn params(&self) -> &PhyParams {
        &self.params
    }

    /// The underlying per-symbol estimator.
    pub fn estimator(&self) -> &OffsetEstimator {
        &self.est
    }

    /// Symbol window `idx` of the slot, or `None` when it runs past the
    /// capture (or past `usize`: `slot_start` is caller-set).
    fn window<'a>(&self, samples: &'a [C64], slot_start: usize, idx: usize) -> Option<&'a [C64]> {
        let n = self.params.samples_per_symbol();
        let lo = idx.checked_mul(n)?.checked_add(slot_start)?;
        samples.get(lo..lo.checked_add(n)?)
    }

    /// Decodes one slot: discovers the colliding users from the preamble,
    /// then demodulates, cancels and frame-decodes each. Returns one entry
    /// per validated user, strongest first, or *why* nothing could be
    /// decoded — the capture ends before the slot does
    /// ([`DecodeError::TruncatedSlot`]) or its preamble is silent
    /// ([`DecodeError::NoUsersFound`]).
    pub fn try_decode_view(&self, view: SlotView<'_>) -> Result<Vec<DecodedUser>, DecodeError> {
        let SlotView {
            samples,
            slot_start,
            num_data_symbols,
        } = view;
        let n = self.est.n();
        // The view's fields are caller-set, so the slot geometry is
        // computed checked: a start or count that overflows `usize` needs
        // more samples than any capture holds, not a wrapped index.
        let needed = (self.params.preamble_len + 2)
            .checked_add(num_data_symbols)
            .and_then(|syms| syms.checked_mul(n))
            .and_then(|len| len.checked_add(slot_start))
            .unwrap_or(usize::MAX);
        if samples.len() < needed {
            return Err(DecodeError::TruncatedSlot {
                symbol: samples.len().saturating_sub(slot_start) / n,
                needed,
                available: samples.len(),
            }
            .traced());
        }
        let users = self.discover_users(samples, slot_start);
        if users.is_empty() {
            return Err(DecodeError::NoUsersFound.traced());
        }
        Ok(self.decode_with_users(samples, slot_start, num_data_symbols, users))
    }

    /// Decodes a batch of independent slots on `pool`
    /// ([`choir_pool::global`] is the process pool). Results come back in
    /// slot order and are **bit-identical** to calling
    /// [`Self::try_decode_view`] on each view in turn: slots never share
    /// mutable state and the pool's map preserves input order, so thread
    /// count and scheduling cannot perturb a single float.
    pub fn decode_slot_views_with_pool(
        &self,
        views: &[SlotView<'_>],
        pool: ThreadPool,
    ) -> Vec<SlotResult> {
        pool.map(views, |_, &view| match self.try_decode_view(view) {
            Ok(users) => SlotResult { users, error: None },
            Err(e) => SlotResult {
                users: Vec::new(),
                error: Some(e),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use choir_channel::impairments::{HardwareProfile, OscillatorModel};
    use choir_channel::scenario::{CollisionScenario, ScenarioBuilder};

    pub(super) fn params() -> PhyParams {
        PhyParams::default() // SF8, 125 kHz, CR4/8
    }

    pub(super) fn profile(cfo_bins: f64, toff_symbols: f64) -> HardwareProfile {
        let bin_hz = 125e3 / 256.0;
        HardwareProfile {
            cfo_hz: cfo_bins * bin_hz,
            timing_offset_symbols: toff_symbols,
            phase: 1.0,
            cfo_jitter_hz: 0.0,
            timing_jitter_symbols: 0.0,
        }
    }

    /// A lone transmitter's `symbols` (preamble included), rendered
    /// analytically `delta` chips late at `cfo_bins` and `snr_db`, into a
    /// capture whose slot starts two symbols in and that ends two symbols
    /// after the packet, over unit AWGN — or none, when `snr_db` is
    /// infinite. Returns the capture, the slot start and the true
    /// aggregate offset `μ` in `[0, n)`.
    pub(super) fn render_lone(
        symbols: Vec<u16>,
        delta: f64,
        cfo_bins: f64,
        snr_db: f64,
        seed: u64,
    ) -> (Vec<C64>, usize, f64) {
        use choir_channel::mix::{render_into, MixConfig, Transmission};
        use rand::SeedableRng;
        let params = params();
        let n = params.samples_per_symbol();
        let slot_start = 2 * n;
        let total = slot_start + (symbols.len() + 2) * n;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let profile = HardwareProfile {
            timing_offset_symbols: delta / n as f64,
            ..profile(cfo_bins, 0.0)
        };
        let (amplitude, mut capture) = if snr_db.is_finite() {
            let noise = choir_channel::noise::awgn(&mut rng, total, 1.0);
            (choir_channel::noise::db_to_lin(snr_db).sqrt(), noise)
        } else {
            (1.0, vec![C64::ZERO; total])
        };
        let tx = Transmission {
            waveform: lora_phy::chirp::PacketWaveform::new(n, symbols),
            channel: C64::from_polar(1.0, 0.3),
            amplitude,
            profile,
            start_sample: slot_start as f64,
        };
        let cfg = MixConfig {
            bw_hz: params.bw.hz(),
            noise_power: 0.0,
        };
        render_into(&mut capture, &tx, &cfg, &mut rng);
        let mu = profile.aggregate_shift_bins(params.bin_hz(), n);
        (capture, slot_start, mu.rem_euclid(n as f64))
    }

    /// Decodes a scenario's slot for a known payload length.
    pub(super) fn decode(s: &CollisionScenario, payload_len: usize) -> Vec<DecodedUser> {
        ChoirDecoder::new(s.params)
            .try_decode_view(SlotView::known_len(
                &s.params,
                &s.samples,
                s.slot_start,
                payload_len,
            ))
            .expect("full-length slot with users decodes")
    }

    #[test]
    fn two_users_clean_collision_decoded() {
        let s = ScenarioBuilder::new(params())
            .snrs_db(&[20.0, 17.0])
            .payload_len(10)
            .profiles(vec![profile(2.3, 0.1), profile(-7.6, 0.32)])
            .seed(1)
            .build();
        let out = decode(&s, 10);
        assert_eq!(out.len(), 2, "users found: {}", out.len());
        let mut payloads: Vec<Vec<u8>> = out
            .iter()
            .map(|d| {
                assert!(
                    d.payload_ok(),
                    "sync_errors {} erasures {}",
                    d.sync_errors,
                    d.erasures
                );
                d.frame.as_ref().unwrap().payload.clone()
            })
            .collect();
        payloads.sort();
        let mut truth: Vec<Vec<u8>> = s.users.iter().map(|u| u.payload.clone()).collect();
        truth.sort();
        assert_eq!(payloads, truth);
    }

    #[test]
    fn single_user_degenerate_case() {
        let s = ScenarioBuilder::new(params())
            .snrs_db(&[15.0])
            .payload_len(12)
            .seed(5)
            .build();
        let out = decode(&s, 12);
        assert_eq!(out.len(), 1);
        assert!(out[0].payload_ok());
        assert_eq!(out[0].frame.as_ref().unwrap().payload, s.users[0].payload);
    }

    #[test]
    fn randomized_oscillator_population() {
        // Ten trials with oscillator-model-drawn offsets: expect ≥ 8/10
        // two-user collisions fully decoded (fractional offsets can
        // occasionally collide — the scaling limit the paper acknowledges).
        let mut full = 0;
        for seed in 0..10 {
            let s = ScenarioBuilder::new(params())
                .snrs_db(&[20.0, 16.0])
                .payload_len(8)
                .oscillator(OscillatorModel::default())
                .seed(100 + seed)
                .build();
            let out = decode(&s, 8);
            if out.len() == 2 && out.iter().all(|d| d.payload_ok()) {
                full += 1;
            }
        }
        assert!(full >= 8, "only {full}/10 fully decoded");
    }

    #[test]
    fn truncated_capture_is_an_error_not_a_panic() {
        let s = ScenarioBuilder::new(params())
            .snrs_db(&[20.0])
            .payload_len(8)
            .profiles(vec![profile(3.0, 0.1)])
            .seed(77)
            .build();
        // Cut the capture off mid-payload: several symbol windows short.
        let n = params().samples_per_symbol();
        let cut = s.slot_start + (params().preamble_len + 4) * n;
        let view = SlotView::new(&s.samples[..cut], s.slot_start, 16);
        let dec = ChoirDecoder::new(s.params);
        let single = dec
            .try_decode_view(view)
            .expect_err("truncated slot must be reported");
        let batch = dec.decode_slot_views_with_pool(&[view], ThreadPool::sequential());
        assert!(batch[0].users.is_empty());
        for err in [single, batch[0].error.expect("batch reports it too")] {
            match err {
                DecodeError::TruncatedSlot {
                    needed, available, ..
                } => {
                    assert!(available < needed);
                    assert_eq!(available, cut);
                }
                other => panic!("expected TruncatedSlot, got {other:?}"),
            }
        }
    }

    #[test]
    fn overflowing_slot_geometry_is_a_truncated_slot() {
        // Regression: `slot_start + total_syms * n` was unchecked on the
        // caller-set view fields — a debug build panicked on the overflow,
        // a release build wrapped past the length check, scanned the wrong
        // windows and reported `NoUsersFound`.
        let s = ScenarioBuilder::new(params())
            .snrs_db(&[20.0])
            .payload_len(8)
            .profiles(vec![profile(3.0, 0.1)])
            .seed(77)
            .build();
        let dec = ChoirDecoder::new(s.params);
        for view in [
            SlotView::new(&s.samples, usize::MAX - 100, 16),
            SlotView::new(&s.samples, s.slot_start, usize::MAX / 256),
            SlotView::new(&s.samples, s.slot_start, usize::MAX),
        ] {
            match dec.try_decode_view(view) {
                Err(DecodeError::TruncatedSlot {
                    needed, available, ..
                }) => {
                    assert_eq!(needed, usize::MAX);
                    assert_eq!(available, s.samples.len());
                }
                other => panic!("expected TruncatedSlot, got {other:?}"),
            }
        }
        // `discover_users` is public too and reads its windows off the
        // same caller-set start.
        assert!(dec.discover_users(&s.samples, usize::MAX - 100).is_empty());
    }

    /// Zeroes the decode probes of this thread.
    fn reset_probes() {
        crate::sic::PHASED_SIC_CALLS.with(|c| c.set(0));
        SUBTRACTIONS.with(|c| c.set(0));
        DEMODULATED.with(|c| c.set(0));
        TURN_WINDOWS.with(|t| t.borrow_mut().clear());
    }

    #[test]
    fn a_decode_solves_only_the_interior_preamble_windows() {
        // The only joint solves of a decode are discovery's, one per
        // interior preamble window, whatever the user count or the pass
        // count — a user turn reads its preamble→sync chip with a matched
        // filter. A turn demodulates nothing (a final user), its header
        // (a failed one) or every window; and a slot costs one subtraction
        // per turn that passed the header rule, now or in an earlier pass,
        // and has a turn after it.
        let two = vec![profile(2.3, 0.1), profile(-7.6, 0.32)];
        let three = vec![profile(2.3, 0.1), profile(-7.6, 0.32), profile(12.4, 0.18)];
        for (snrs, profiles) in [(&[20.0, 17.0][..], two), (&[20.0, 17.0, 14.0][..], three)] {
            for sic_passes in [1, 2] {
                let s = ScenarioBuilder::new(params())
                    .snrs_db(snrs)
                    .payload_len(6)
                    .profiles(profiles.clone())
                    .seed(35)
                    .build();
                let cfg = ChoirConfig {
                    sic_passes,
                    ..ChoirConfig::default()
                };
                let dec = ChoirDecoder::with_config(s.params, cfg);
                let view = SlotView::known_len(&s.params, &s.samples, s.slot_start, 6);
                let header = s.params.preamble_len + 2;
                let total = header + view.num_data_symbols;
                reset_probes();
                let decoded = dec.try_decode_view(view).expect("slot decodes");
                let solves = crate::sic::PHASED_SIC_CALLS.with(|c| c.get());
                let subtractions = SUBTRACTIONS.with(|c| c.get());
                let turns = TURN_WINDOWS.with(|t| t.borrow().clone());
                let users = dec.discover_users(&s.samples, s.slot_start).len();
                assert!(users >= decoded.len() && users >= snrs.len());
                assert_eq!(solves, s.params.preamble_len - 1);
                assert_eq!(turns.len(), users * sic_passes);
                for (i, &w) in turns.iter().enumerate() {
                    assert!(
                        w == header || w == total || (w == 0 && i >= users),
                        "{turns:?}"
                    );
                }
                let earned = turns[..turns.len() - 1]
                    .iter()
                    .filter(|&&w| w != header)
                    .count();
                assert_eq!(subtractions, earned, "{turns:?}");
                assert!(subtractions >= snrs.len() * sic_passes - 1, "{turns:?}");
            }
        }
    }

    #[test]
    fn a_clean_two_user_slot_demodulates_each_user_once() {
        // Both users' pass-1 frames check out, so the second pass
        // re-subtracts them and demodulates nothing: each window of the
        // slot is demodulated once a user, and each user's frame is the
        // one a single pass yields.
        let s = ScenarioBuilder::new(params())
            .snrs_db(&[20.0, 17.0])
            .payload_len(10)
            .profiles(vec![profile(2.3, 0.1), profile(-7.6, 0.32)])
            .seed(2)
            .build();
        let view = SlotView::known_len(&s.params, &s.samples, s.slot_start, 10);
        let total_syms = s.params.preamble_len + 2 + view.num_data_symbols;
        let decode = |sic_passes| {
            let cfg = ChoirConfig {
                sic_passes,
                ..ChoirConfig::default()
            };
            let dec = ChoirDecoder::with_config(s.params, cfg);
            assert_eq!(dec.discover_users(&s.samples, s.slot_start).len(), 2);
            reset_probes();
            let out = dec.try_decode_view(view).expect("slot decodes");
            (
                out,
                DEMODULATED.with(|c| c.get()),
                SUBTRACTIONS.with(|c| c.get()),
            )
        };
        let (one, one_windows, _) = decode(1);
        let (two, two_windows, two_subtractions) = decode(2);
        assert_eq!(one_windows, 2 * total_syms);
        assert_eq!(two_windows, 2 * total_syms);
        assert_eq!(two_subtractions, 3);
        assert_eq!(two.len(), 2);
        for (a, b) in one.iter().zip(&two) {
            assert!(b.payload_ok());
            assert_eq!(a.symbols, b.symbols);
            assert_eq!(a.frame, b.frame);
        }
    }

    #[test]
    fn a_spurious_candidate_demodulates_its_header_and_subtracts_nothing() {
        // A candidate at an offset nobody transmits on dechirps the real
        // user's preamble to one constant non-zero value: its header fails
        // in every pass, so each pass costs it `p + 2` windows and no
        // subtraction — and it never reaches the output.
        let s = ScenarioBuilder::new(params())
            .snrs_db(&[20.0])
            .payload_len(6)
            .profiles(vec![profile(3.0, 0.1)])
            .seed(77)
            .build();
        let dec = ChoirDecoder::new(s.params);
        let n = dec.est.n();
        let p = s.params.preamble_len;
        let nds = SlotView::known_len(&s.params, &s.samples, s.slot_start, 6).num_data_symbols;
        let real = dec.discover_users(&s.samples, s.slot_start)[0];
        let offset_bins = (real.offset_bins + 64.5).rem_euclid(n as f64);
        let spurious = UserEstimate {
            offset_bins,
            frac: offset_bins.fract(),
            ..real
        };
        reset_probes();
        let alone = dec.decode_with_users(&s.samples, s.slot_start, nds, vec![spurious]);
        assert!(alone.is_empty());
        assert_eq!(DEMODULATED.with(|c| c.get()), 2 * (p + 2));
        assert_eq!(SUBTRACTIONS.with(|c| c.get()), 0);
        // Behind the real user: the real user demodulates once and
        // subtracts in both passes (a turn follows each), the candidate
        // costs its header twice.
        reset_probes();
        let both = dec.decode_with_users(&s.samples, s.slot_start, nds, vec![real, spurious]);
        assert_eq!(both.len(), 1);
        assert!(both[0].payload_ok());
        assert_eq!(DEMODULATED.with(|c| c.get()), p + 2 + nds + 2 * (p + 2));
        assert_eq!(SUBTRACTIONS.with(|c| c.get()), 2);
    }

    #[test]
    fn decode_never_borrows_the_arena_twice() {
        // A `workspace::with` (or a free `take`/`put`) inside another
        // falls back to a throw-away arena: correct, and a `malloc` and a
        // `free` per buffer on a path that promises none.
        let s = ScenarioBuilder::new(params())
            .snrs_db(&[20.0, 17.0])
            .payload_len(6)
            .profiles(vec![profile(2.3, 0.1), profile(-7.6, 0.32)])
            .seed(35)
            .build();
        let dec = ChoirDecoder::new(s.params);
        let view = SlotView::known_len(&s.params, &s.samples, s.slot_start, 6);
        let before = choir_dsp::workspace::reentries();
        let decoded = dec.try_decode_view(view).expect("slot decodes");
        assert_eq!(decoded.len(), 2);
        assert_eq!(choir_dsp::workspace::reentries(), before);
    }

    #[test]
    fn known_len_view_counts_the_frame_symbols() {
        let p = params();
        let samples = [C64::ZERO; 4];
        for payload_len in [0usize, 1, 6, 16, 255] {
            let view = SlotView::known_len(&p, &samples, 3, payload_len);
            assert_eq!(view.slot_start, 3);
            assert_eq!(view.samples.len(), samples.len());
            assert_eq!(view.num_data_symbols, frame_symbol_count(&p, payload_len));
        }
    }

    #[test]
    fn batch_decode_matches_single_slot_decode() {
        let dec = ChoirDecoder::new(params());
        let scenarios: Vec<CollisionScenario> = (0..2)
            .map(|i| {
                ScenarioBuilder::new(params())
                    .snrs_db(&[20.0, 17.0])
                    .payload_len(6)
                    .profiles(vec![profile(2.3, 0.1), profile(-7.6, 0.32)])
                    .seed(900 + i)
                    .build()
            })
            .collect();
        let views: Vec<SlotView<'_>> = scenarios
            .iter()
            .map(|s| SlotView::known_len(&s.params, &s.samples, s.slot_start, 6))
            .collect();
        let batch = dec.decode_slot_views_with_pool(&views, ThreadPool::sequential());
        assert_eq!(batch.len(), 2);
        for (&view, res) in views.iter().zip(&batch) {
            assert!(res.error.is_none());
            let single = dec.try_decode_view(view).expect("single-slot decode");
            assert_eq!(res.users.len(), single.len());
            for (a, b) in res.users.iter().zip(&single) {
                assert_eq!(a.symbols, b.symbols);
                assert_eq!(a.user.offset_bins.to_bits(), b.user.offset_bins.to_bits());
                assert_eq!(a.frame, b.frame);
            }
            assert_eq!(res.ok_users().count(), 2);
        }
    }

    #[test]
    fn batch_decode_reports_per_slot_errors() {
        let dec = ChoirDecoder::new(params());
        // One good slot, one hopelessly truncated slot: the batch API must
        // surface the error in place without poisoning its neighbours.
        let s = ScenarioBuilder::new(params())
            .snrs_db(&[20.0])
            .payload_len(6)
            .profiles(vec![profile(3.0, 0.1)])
            .seed(901)
            .build();
        let good = SlotView::known_len(&s.params, &s.samples, s.slot_start, 6);
        let bad = SlotView::new(&s.samples[..s.slot_start + 64], s.slot_start, 16);
        let out = dec.decode_slot_views_with_pool(&[good, bad], *choir_pool::global());
        assert_eq!(out.len(), 2);
        assert!(out[0].error.is_none());
        assert_eq!(out[0].ok_users().count(), 1);
        assert!(out[1].users.is_empty());
        assert!(matches!(
            out[1].error,
            Some(DecodeError::TruncatedSlot { .. })
        ));
    }
}
