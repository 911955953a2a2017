//! Seeded input generators. The seed stays here: the program under test
//! receives IQ samples and configurations, never the seed or the truth.
//!
//! Every slot and frame is distinct (fresh payload, fresh hardware profile
//! drawn from `OscillatorModel::default()`, fresh noise), so the
//! estimator's per-thread tone LRU sees no key twice across items — the
//! pinned two-profile soak workload cannot say that. Properties a
//! workload's cost depends on (SNR, overlap, gap) are drawn *stratified*:
//! each block of items covers its range evenly in a seeded order, so two
//! seeds give different inputs with the same mix, and a run's metrics
//! move with the program rather than with the draw.

use choir_channel::noise::awgn;
use choir_channel::{AsyncScenarioBuilder, OscillatorModel, ScenarioBuilder};
use choir_dsp::complex::C64;
use lora_phy::params::PhyParams;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Samples per chunk handed to the station.
pub const CHUNK: usize = 2048;
/// Payload bytes of every slotted frame.
pub const SLOT_PAYLOAD: usize = 8;
/// Payload bytes of every unslotted (`paced_mix`) frame.
pub const PACED_PAYLOAD: usize = 9;
/// Guard symbols the scenario builder renders before a slot boundary; the
/// station's default `lead_symbols`.
pub const LEAD_SYMBOLS: usize = 2;
/// Symbols the scenario builder renders after the last frame symbol; the
/// station's default `tail_symbols`.
pub const TAIL_SYMBOLS: usize = 4;
/// Items per stratification block.
const BLOCK: usize = 16;
/// Seed of the inputs a set-up warms the program up on. Warm-up inputs do
/// not follow `--seed`: set-up is then the same work in every run, and
/// `setup_s` moves with the program, not with the draw.
pub const WARM_UP_SEED: u64 = 0x57A2_7E2D;

/// One transmitted frame, as the oracle knows it.
#[derive(Clone, Debug, PartialEq)]
pub struct TruthFrame {
    /// Payload bytes handed to the transmitter.
    pub payload: Vec<u8>,
    /// Index of the slot, batch item or episode that carried the frame.
    pub item: usize,
    /// Per-sample SNR in dB.
    pub snr_db: f64,
}

/// Independent sub-seed for item `idx` of stream `tag` (SplitMix64
/// finaliser over the three words), so any prefix of a workload is the
/// same inputs whatever its length.
pub fn sub_seed(seed: u64, tag: u64, idx: u64) -> u64 {
    let mut z = seed
        .wrapping_add(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(idx.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `count` values covering `[lo, hi)` evenly — one per equal-width
/// stratum, jittered inside it — in a seeded order.
fn stratified(rng: &mut StdRng, count: usize, lo: f64, hi: f64) -> Vec<f64> {
    let width = (hi - lo) / count as f64;
    let mut v: Vec<f64> = (0..count)
        .map(|j| lo + width * (j as f64 + rng.gen_range(0.0..1.0)))
        .collect();
    v.shuffle(rng);
    v
}

/// On-air samples of one frame with a `payload_len`-byte payload.
pub fn frame_samples(params: &PhyParams, payload_len: usize) -> usize {
    let data = lora_phy::frame::frame_symbol_count(params, payload_len);
    (params.preamble_len + 2 + data) * params.samples_per_symbol()
}

/// Samples of one rendered slot capture: lead + frame + tail.
pub fn slot_capture_len(params: &PhyParams, payload_len: usize) -> usize {
    (LEAD_SYMBOLS + TAIL_SYMBOLS) * params.samples_per_symbol() + frame_samples(params, payload_len)
}

/// One rendered beacon slot.
pub struct Slot {
    /// Received baseband of the capture (noise included).
    pub samples: Vec<C64>,
    /// Sample of the slot boundary inside `samples`.
    pub slot_start: usize,
    /// The colliding users' frames.
    pub frames: Vec<TruthFrame>,
}

/// The collision shape of a slotted workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotKind {
    /// Two users, each 8–26 dB.
    TwoUser,
    /// Five users on a 26/22/18/14/10 dB ladder, ±1 dB jitter each.
    FiveUserLadder,
}

/// Seeded source of distinct collision slots.
pub struct SlotGen {
    seed: u64,
    kind: SlotKind,
    params: PhyParams,
    /// Stratified SNR draws of the current block, `[user][item in block]`.
    block_snrs: Vec<Vec<f64>>,
    next: usize,
}

impl SlotGen {
    pub fn new(seed: u64, kind: SlotKind) -> Self {
        SlotGen {
            seed,
            kind,
            params: PhyParams::default(),
            block_snrs: Vec::new(),
            next: 0,
        }
    }

    /// Index of the slot the next call renders.
    pub fn next_index(&self) -> usize {
        self.next
    }

    fn draw_block(&mut self, block: usize) {
        let mut rng = StdRng::seed_from_u64(sub_seed(self.seed, 1, block as u64));
        self.block_snrs = match self.kind {
            SlotKind::TwoUser => (0..2)
                .map(|_| stratified(&mut rng, BLOCK, 8.0, 26.0))
                .collect(),
            SlotKind::FiveUserLadder => [26.0, 22.0, 18.0, 14.0, 10.0]
                .iter()
                .map(|&rung| stratified(&mut rng, BLOCK, rung - 1.0, rung + 1.0))
                .collect(),
        };
    }

    /// Renders the next slot.
    pub fn next_slot(&mut self) -> Slot {
        let item = self.next;
        if item.is_multiple_of(BLOCK) {
            self.draw_block(item / BLOCK);
        }
        self.next += 1;
        let snrs: Vec<f64> = self
            .block_snrs
            .iter()
            .filter_map(|user| user.get(item % BLOCK).copied())
            .collect();
        let s = ScenarioBuilder::new(self.params)
            .snrs_db(&snrs)
            .payload_len(SLOT_PAYLOAD)
            .seed(sub_seed(self.seed, 2, item as u64))
            .build();
        let frames = s
            .users
            .into_iter()
            .map(|u| TruthFrame {
                payload: u.payload,
                item,
                snr_db: u.snr_db,
            })
            .collect();
        Slot {
            samples: s.samples,
            slot_start: s.slot_start,
            frames,
        }
    }
}

/// Zero samples between slot `i − 1` and slot `i` of the slotted stream.
pub fn slotted_silence(i: usize) -> usize {
    401 + 137 * (i % 8)
}

/// Slot-boundary samples of slots `first .. first + count` of the slotted
/// stream, counted from the start of slot `first`'s silence — the beacon
/// schedule, known without rendering a slot.
pub fn slotted_starts(params: &PhyParams, first: usize, count: usize) -> Vec<u64> {
    let cap = slot_capture_len(params, SLOT_PAYLOAD);
    let lead = LEAD_SYMBOLS * params.samples_per_symbol();
    let mut pos = 0usize;
    (first..first + count)
        .map(|i| {
            pos += slotted_silence(i);
            let start = pos + lead;
            pos += cap;
            start as u64
        })
        .collect()
}

/// The slotted stream as 2048-sample chunks, rendered one slot ahead of
/// the consumer so a run of any length draws the same prefix.
pub struct SlottedStream {
    slots: SlotGen,
    carry: Vec<C64>,
    /// Truth of every slot rendered so far.
    pub truth: Vec<TruthFrame>,
}

impl SlottedStream {
    pub fn new(seed: u64) -> Self {
        SlottedStream {
            slots: SlotGen::new(seed, SlotKind::TwoUser),
            carry: Vec::new(),
            truth: Vec::new(),
        }
    }

    /// Slots rendered so far.
    pub fn slots_rendered(&self) -> usize {
        self.slots.next_index()
    }

    /// Replaces `out` with the next chunk.
    pub fn next_chunk(&mut self, out: &mut Vec<C64>) {
        while self.carry.len() < CHUNK {
            let i = self.slots.next_index();
            let slot = self.slots.next_slot();
            self.carry
                .resize(self.carry.len() + slotted_silence(i), C64::ZERO);
            self.carry.extend_from_slice(&slot.samples);
            self.truth.extend(slot.frames);
        }
        out.clear();
        out.extend(self.carry.drain(..CHUNK));
    }

    /// Replaces `out` with what is left of the slots rendered so far, so
    /// the stream ends on a slot's last sample; `false` once nothing is.
    pub fn rest(&mut self, out: &mut Vec<C64>) -> bool {
        out.clear();
        out.append(&mut self.carry);
        !out.is_empty()
    }
}

/// Episode shapes of the unslotted mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Episode {
    /// One frame alone, 8–28 dB.
    Lone,
    /// Two frames overlapping 25–75 %, second within ±4 dB of the first.
    Overlap,
    /// Two frames back to back with no gap, 20 dB apart.
    NearFar,
}

/// Episodes per stratification cycle: 24 lone frames, 5 overlapped pairs,
/// 3 near-far pairs — 40 frames, 60/25/15 % of them. Lone frames are the
/// majority so that the median latency is a lone frame's and the tail a
/// pair's, not a coin toss between the two.
const CYCLE: [(Episode, usize); 3] = [
    (Episode::Lone, 24),
    (Episode::Overlap, 5),
    (Episode::NearFar, 3),
];

/// Mean on-air time of one episode over a cycle, in frame lengths: lone
/// 1, overlapped pair 1.5 on average, back-to-back pair 2.
const EPISODE_MEAN_FRAMES: f64 = (24.0 * 1.0 + 5.0 * 1.5 + 3.0 * 2.0) / 32.0;

/// The unslotted stream and its truth.
pub struct PacedStream {
    /// Received baseband, a whole number of chunks.
    pub samples: Vec<C64>,
    /// Transmitted frames in start order; `item` is the episode index.
    pub truth: Vec<TruthFrame>,
}

/// Renders `air_seconds` of unslotted traffic: a seeded arrival process
/// of lone frames, overlapped pairs and near-far back-to-back pairs at
/// off-grid starts over continuous unit-power noise, exponential gaps
/// sized for ≈50 % channel duty.
///
/// The stream holds a whole number of cycles — the mean gap is stretched
/// or shrunk (at most 2×) until they fill it — so every seed offers the
/// same count of each episode shape; a stream too short for one cycle
/// holds the cycle's first episodes.
pub fn paced_stream(seed: u64, air_seconds: f64) -> PacedStream {
    let params = PhyParams::default();
    let osc = OscillatorModel::default();
    let frame = frame_samples(&params, PACED_PAYLOAD);
    let total = ((air_seconds * params.bw.hz()) as usize / CHUNK).max(1) * CHUNK;
    let per_cycle: usize = CYCLE.iter().map(|c| c.1).sum();
    let episode_air = EPISODE_MEAN_FRAMES * frame as f64;
    let cycles = ((total as f64 / (2.0 * episode_air * per_cycle as f64)).round() as u64).max(1);
    // The stratified gaps of a cycle add up to within a few per cent of
    // `per_cycle` means; 3 % of the stream is left for that.
    let mean_gap = (0.97 * total as f64 / (cycles as f64 * per_cycle as f64) - episode_air)
        .clamp(0.5 * episode_air, 2.0 * episode_air);

    let mut samples: Vec<C64> = Vec::with_capacity(total);
    let mut truth = Vec::new();
    let mut episode = 0usize;
    'cycles: for cycle in 0..cycles {
        let mut rng = StdRng::seed_from_u64(sub_seed(seed, 3, cycle));
        let mut kinds: Vec<Episode> = CYCLE
            .iter()
            .flat_map(|&(k, c)| std::iter::repeat_n(k, c))
            .collect();
        kinds.shuffle(&mut rng);
        // Exponential gaps by inverse CDF over stratified quantiles.
        let gaps: Vec<f64> = stratified(&mut rng, per_cycle, 0.0, 1.0)
            .into_iter()
            .map(|u| -mean_gap * (1.0 - u).max(1e-9).ln())
            .collect();
        let mut lone_snr = stratified(&mut rng, CYCLE[0].1, 8.0, 28.0);
        let mut overlap = stratified(&mut rng, CYCLE[1].1, 0.25, 0.75);
        for (kind, gap) in kinds.into_iter().zip(gaps) {
            let gap = gap.round() as u64;
            let mut payload = || -> Vec<u8> { (0..PACED_PAYLOAD).map(|_| rng.gen()).collect() };
            let (a, b) = (payload(), payload());
            // (local start, SNR, payload) per frame of the episode.
            let frames: Vec<(u64, f64, Vec<u8>)> = match kind {
                Episode::Lone => {
                    vec![(gap, lone_snr.pop().unwrap_or(18.0), a)]
                }
                Episode::Overlap => {
                    let first = rng.gen_range(12.0..24.0);
                    let second = first + rng.gen_range(-4.0..4.0);
                    let ov = overlap.pop().unwrap_or(0.5);
                    let lag = ((1.0 - ov) * frame as f64).round() as u64;
                    vec![(gap, first, a), (gap + lag, second, b)]
                }
                Episode::NearFar => {
                    let strong = rng.gen_range(24.0..28.0);
                    let mut snrs = [strong, strong - 20.0];
                    if rng.gen_bool(0.5) {
                        snrs.swap(0, 1);
                    }
                    vec![(gap, snrs[0], a), (gap + frame as u64, snrs[1], b)]
                }
            };
            let end = frames
                .iter()
                .map(|f| f.0 as usize + frame)
                .max()
                .unwrap_or(0);
            if samples.len() + end > total {
                break 'cycles;
            }
            let mut builder = AsyncScenarioBuilder::new(params)
                .tail_symbols(0)
                .seed(sub_seed(seed, 4, episode as u64));
            for (start, snr_db, payload) in frames {
                let mut profile = osc.sample_profile(osc.sample_ppm(&mut rng), &mut rng);
                // The arrival process already places starts off-grid; a
                // beacon-response delay has no meaning without a beacon.
                profile.timing_offset_symbols = 0.0;
                builder = builder.arrival_with_profile(start, snr_db, &payload, profile);
                truth.push(TruthFrame {
                    payload,
                    item: episode,
                    snr_db,
                });
            }
            samples.extend(builder.build().samples);
            episode += 1;
        }
    }
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 5, 0));
    samples.extend(awgn(&mut rng, total - samples.len(), 1.0));
    PacedStream { samples, truth }
}

/// `air_seconds` of unit-power noise with no frame in it.
pub fn noise_stream(seed: u64, air_seconds: f64) -> Vec<C64> {
    let params = PhyParams::default();
    let total = ((air_seconds * params.bw.hz()) as usize / CHUNK).max(1) * CHUNK;
    awgn(&mut StdRng::seed_from_u64(sub_seed(seed, 6, 0)), total, 1.0)
}

/// FNV-1a over the exact bits of a sample stream.
#[cfg(test)]
pub fn stream_digest(samples: &[C64]) -> u64 {
    use choir_city::gateway::{fnv1a, FNV_OFFSET};
    samples.iter().fold(FNV_OFFSET, |h, z| {
        fnv1a(fnv1a(h, z.re.to_bits()), z.im.to_bits())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use choir_station::StationConfig;

    fn slotted_prefix(seed: u64, chunks: usize) -> (u64, Vec<TruthFrame>) {
        let mut s = SlottedStream::new(seed);
        let (mut all, mut chunk) = (Vec::new(), Vec::new());
        for _ in 0..chunks {
            s.next_chunk(&mut chunk);
            all.extend_from_slice(&chunk);
        }
        (stream_digest(&all), s.truth)
    }

    fn slots_digest(seed: u64, kind: SlotKind, count: usize) -> (u64, Vec<TruthFrame>) {
        let mut g = SlotGen::new(seed, kind);
        let (mut all, mut truth) = (Vec::new(), Vec::new());
        for _ in 0..count {
            let s = g.next_slot();
            all.extend_from_slice(&s.samples);
            truth.extend(s.frames);
        }
        (stream_digest(&all), truth)
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(slotted_prefix(7, 20), slotted_prefix(7, 20));
        assert_ne!(slotted_prefix(7, 20).0, slotted_prefix(8, 20).0);
        assert_ne!(slotted_prefix(7, 20).1, slotted_prefix(8, 20).1);

        let five = |seed| slots_digest(seed, SlotKind::FiveUserLadder, 3);
        assert_eq!(five(7), five(7));
        assert_ne!(five(7).0, five(8).0);
        assert_ne!(five(7).1, five(8).1);
        assert_eq!(five(7).1.len(), 15);

        let paced = |seed| {
            let s = paced_stream(seed, 2.0);
            (stream_digest(&s.samples), s.truth)
        };
        assert_eq!(paced(7), paced(7));
        assert_ne!(paced(7).0, paced(8).0);
        assert_ne!(paced(7).1, paced(8).1);
        assert!(paced(7).1.len() >= 6);
    }

    #[test]
    fn a_longer_run_draws_the_same_prefix() {
        let (short, long) = (paced_stream(3, 1.0), paced_stream(3, 2.0));
        let n = short.truth.len().min(4);
        assert!(n > 0);
        assert_eq!(short.truth[..n], long.truth[..n]);
        let (a, b) = (slotted_prefix(3, 10).1, slotted_prefix(3, 30).1);
        assert_eq!(a[..], b[..a.len()]);
    }

    #[test]
    fn every_payload_is_distinct() {
        let truth = paced_stream(11, 4.0).truth;
        let mut payloads: Vec<&[u8]> = truth.iter().map(|t| t.payload.as_slice()).collect();
        payloads.sort_unstable();
        payloads.dedup();
        assert_eq!(payloads.len(), truth.len());
    }

    #[test]
    fn slot_geometry_equals_the_stations_capture() {
        let params = PhyParams::default();
        let cfg = StationConfig::known_len(params, SLOT_PAYLOAD);
        assert_eq!(cfg.lead_symbols, LEAD_SYMBOLS);
        assert_eq!(cfg.tail_symbols, TAIL_SYMBOLS);
        assert_eq!(slot_capture_len(&params, SLOT_PAYLOAD), cfg.capture_len());
        let slot = SlotGen::new(1, SlotKind::TwoUser).next_slot();
        assert_eq!(slot.samples.len(), cfg.capture_len());
        assert_eq!(slot.slot_start, LEAD_SYMBOLS * params.samples_per_symbol());
        // The schedule the station is given lands on the rendered slots.
        let starts = slotted_starts(&params, 0, 3);
        assert_eq!(starts[0] as usize, slotted_silence(0) + slot.slot_start);
        assert_eq!(
            (starts[1] - starts[0]) as usize,
            cfg.capture_len() + slotted_silence(1)
        );
        let paced = StationConfig::known_len(params, PACED_PAYLOAD);
        assert_eq!(
            paced.slot_symbols() * params.samples_per_symbol(),
            frame_samples(&params, PACED_PAYLOAD)
        );
    }
}
