//! Segmentation invariance of the multi-hypothesis stream tracker.
//!
//! The property underwriting the station's streaming mode: how an IQ
//! stream is sliced into `push` chunks is an accident of transport
//! (driver buffer sizes, USB latency, socket MTU) and must be
//! unobservable. For random two-packet scenes — arbitrary sub-symbol
//! starts, possible overlap, power imbalance, uniform noise — the
//! tracker fed random chunkings of 1..4096 samples must report exactly
//! the same confirmed starts, the same lifecycle log (the
//! `choir_trace::Hypothesis` records drained from the flight recorder at
//! `Full`), and the same terminal counts as one monolithic push; the log
//! must fold to those counts, and the lifecycle accounting identity
//! (born = confirmed + expired + merged + live) must hold at every
//! intermediate snapshot.

use choir_dsp::complex::{c64, C64};
use choir_trace::{Hypothesis, TraceEvent, TraceLevel};
use lora_phy::modem::Modem;
use lora_phy::params::PhyParams;
use lora_phy::tracker::{HypothesisCounts, StreamScanner};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Mutex, PoisonError};

/// The flight recorder is process-wide: whoever sets its level, clears or
/// drains it holds this for the whole scan.
static RECORDER: Mutex<()> = Mutex::new(());

fn params() -> PhyParams {
    PhyParams::default() // SF8, 125 kHz, CR4/8
}

/// A deterministic two-packet scene: packet A at `start_a`, packet B
/// `gap` samples after A's first sample (overlapping when `gap` is
/// less than A's length), plus uniform amplitude noise.
fn scene(start_a: usize, gap: usize, amp_a: f64, amp_b: f64, noise: f64, seed: u64) -> Vec<C64> {
    let p = params();
    let wave_a = lora_phy::detect::transmit_packet(&p, b"alpha");
    let wave_b = lora_phy::detect::transmit_packet(&p, b"bravo");
    let start_b = start_a + gap;
    let total = (start_b + wave_b.len()).max(start_a + wave_a.len()) + 4 * 256;
    let mut stream = vec![C64::ZERO; total];
    for (i, &s) in wave_a.iter().enumerate() {
        stream[start_a + i] += s * amp_a;
    }
    for (i, &s) in wave_b.iter().enumerate() {
        stream[start_b + i] += s * amp_b;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    for z in &mut stream {
        *z += c64(rng.gen_range(-noise..=noise), rng.gen_range(-noise..=noise));
    }
    stream
}

/// Moves the lifecycle records buffered so far from the recorder to `log`.
fn drain_lifecycle(log: &mut Vec<Hypothesis>) {
    log.extend(
        choir_trace::drain()
            .into_iter()
            .filter_map(|r| match r.event {
                TraceEvent::Hypothesis(h) => Some(h),
                _ => None,
            }),
    );
}

/// Runs the tracker over `stream` delivered in the given chunk sizes,
/// checking the lifecycle accounting identity after every chunk.
/// Returns (confirmed starts, lifecycle log, terminal counts).
fn run_chunked(
    stream: &[C64],
    chunks: impl Iterator<Item = usize>,
    threshold: f64,
) -> (Vec<u64>, Vec<Hypothesis>, HypothesisCounts) {
    let _recorder = RECORDER.lock().unwrap_or_else(PoisonError::into_inner);
    let level = choir_trace::level();
    choir_trace::set_level(TraceLevel::Full);
    choir_trace::clear();
    let mut log = Vec::new();
    let mut scanner = StreamScanner::new(Modem::new(params()), threshold);
    let mut hits = Vec::new();
    let mut at = 0;
    for len in chunks {
        if at >= stream.len() {
            break;
        }
        let len = len.min(stream.len() - at);
        scanner.push(&stream[at..at + len], &mut hits);
        at += len;
        assert!(
            scanner.counts().balanced(),
            "lifecycle accounting broke mid-stream: {:?}",
            scanner.counts()
        );
        drain_lifecycle(&mut log);
    }
    if at < stream.len() {
        scanner.push(&stream[at..], &mut hits);
    }
    scanner.flush(&mut hits);
    drain_lifecycle(&mut log);
    choir_trace::set_level(level);
    let counts = scanner.counts();
    assert!(counts.balanced(), "unbalanced after flush: {counts:?}");
    let mut folded = HypothesisCounts::default();
    for h in &log {
        folded.apply(h.transition);
    }
    assert_eq!(folded, counts, "the log does not fold to the counts");
    (hits, log, counts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Confirmed starts, the full lifecycle log, and the terminal counts
    // are invariant to how the stream is sliced into chunks.
    #[test]
    fn confirmations_invariant_to_chunk_segmentation(
        start_a in 0usize..2048,
        // From heavy overlap (3 symbols in) to fully disjoint.
        gap in 768usize..14000,
        amp_a in 2.0f64..20.0,
        amp_b in 2.0f64..20.0,
        noise in 0.0f64..0.25,
        scene_seed in any::<u64>(),
        chunk_seed in any::<u64>(),
    ) {
        let stream = scene(start_a, gap, amp_a, amp_b, noise, scene_seed);
        let threshold = 40.0;

        let (ref_hits, ref_log, ref_counts) =
            run_chunked(&stream, std::iter::once(stream.len()), threshold);
        // Amplitudes ≥ 2 over ≤ 0.25 uniform noise always clear the
        // threshold: at least one packet confirms, or the property is
        // vacuously testing silence.
        prop_assert!(!ref_hits.is_empty(), "scene produced no confirmations");

        let mut rng = StdRng::seed_from_u64(chunk_seed);
        let mut sizes = Vec::new();
        let mut covered = 0;
        while covered < stream.len() {
            // Every fourth chunk forced tiny so sub-window deliveries are
            // always exercised alongside multi-symbol ones.
            let len = if sizes.len() % 4 == 0 {
                rng.gen_range(1..32usize)
            } else {
                rng.gen_range(32..4096usize)
            };
            sizes.push(len);
            covered += len;
        }
        let (hits, log, counts) = run_chunked(&stream, sizes.into_iter(), threshold);

        prop_assert_eq!(&hits, &ref_hits, "confirmed starts diverged");
        prop_assert_eq!(&log, &ref_log, "lifecycle log diverged");
        prop_assert_eq!(counts, ref_counts, "terminal counts diverged");
    }
}
