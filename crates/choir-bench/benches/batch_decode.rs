//! Batch slot-decoding throughput across worker-thread counts.
//!
//! Decodes a fixed batch of 16 two-user collision slots through
//! [`ChoirDecoder::decode_slot_views_with_pool`] at 1, 2 and 4 threads,
//! reports slots/sec and a per-stage latency breakdown
//! (dechirp/refine/demod/SIC/cluster) for each, verifies the outputs are
//! **bit-identical** across thread counts (the choir-pool determinism
//! contract), and emits the measurements as `BENCH_parallel.json` plus a
//! before/after single-thread record (`BENCH_kernel.json`) in the
//! workspace root. Bit-identity against the *pre-change* decoded streams
//! is enforced separately by the golden capture test in
//! `crates/choir-core/tests/parallel.rs`.
//!
//! A second sweep forces each DSP backend `choir_dsp::backend` offers
//! (the scalar oracle, plus AVX2 where the host has it) on a fresh
//! thread and re-measures single-thread throughput, verifying the
//! decoded streams stay bit-identical across backends (the 0-ULP
//! dispatch contract). `BENCH_kernel.json` records the scalar and
//! vector slots/sec so the CI gate can floor the scalar path and track
//! the vector speedup.
//!
//! A third sweep re-decodes the batch at every candidate-block width
//! (`W = 1, 2, 4, 8` in the refine prefilter), verifying the decoded
//! streams are bit-identical at every width and recording the per-width
//! throughput. `BENCH_kernel.json` gains `refine_s` and `demod_s`
//! (single-thread refine- and demod-stage seconds), `block_width` (the
//! default width) and `blocked_slots_per_sec` (throughput at that
//! width), all gated by `cargo xtask ci bench-smoke`.
//!
//! Stage accounting: workers accumulate stage time per thread, so the
//! multi-thread rows of `BENCH_parallel.json` report both the raw
//! cumulative CPU seconds (`stages_cpu_s`, summed across workers — it
//! can exceed the elapsed wall time) and the per-worker average
//! (`stages_s = stages_cpu_s / threads`, comparable to wall time). The
//! CI gate floors neither: it gates the single-thread `stages_s` of
//! `BENCH_kernel.json` (via `refine_s` and `demod_s`), where the two
//! accountings coincide.
//!
//! Speedup is bounded by the host's core count: on a single-core
//! container every thread count measures the same throughput (plus a few
//! percent of pool overhead), which is expected and recorded as such.

use std::time::Instant;

use choir_bench::{merge_bench_json, two_user_scenario};
use choir_core::decoder::{ChoirConfig, ChoirDecoder, SlotResult, SlotView};
use choir_core::estimator::EstimatorConfig;
use choir_core::profile;
use choir_dsp::backend::{self, BackendKind};
use choir_pool::ThreadPool;
use lora_phy::params::PhyParams;

const SLOTS: usize = 16;
const PAYLOAD_LEN: usize = 8;

/// Candidate-block widths the refine prefilter is re-decoded at.
const WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// PR-2 single-thread baseline (slots/sec) on this host, captured in
/// `BENCH_parallel.json` before the allocation-free offset-search kernel
/// landed. `BENCH_kernel.json` reports the current number against it.
const PR2_BASELINE_SLOTS_PER_SEC: f64 = 0.5514;

/// Flattens every float (as raw bits), symbol and counter in the batch
/// result into one comparable vector — any cross-thread divergence, even
/// a last-ulp one, changes the digest.
fn digest(results: &[SlotResult]) -> Vec<u64> {
    let mut d = Vec::new();
    for r in results {
        d.push(r.users.len() as u64);
        d.push(r.error.is_some() as u64);
        for u in &r.users {
            d.push(u.user.offset_bins.to_bits());
            d.push(u.user.frac.to_bits());
            d.push(u.user.channel.re.to_bits());
            d.push(u.user.channel.im.to_bits());
            d.push(u.user.timing_chips.to_bits());
            d.extend(u.symbols.iter().map(|&s| u64::from(s)));
            d.push(u.sync_errors as u64);
            d.push(u.erasures as u64);
            d.push(u.payload_ok() as u64);
        }
    }
    d
}

fn main() {
    let scenarios: Vec<_> = (0..SLOTS as u64)
        .map(|i| two_user_scenario(100 + i))
        .collect();
    let slots: Vec<SlotView<'_>> = scenarios
        .iter()
        .map(|s| SlotView::known_len(&s.params, &s.samples, s.slot_start, PAYLOAD_LEN))
        .collect();
    let dec = ChoirDecoder::new(PhyParams::default());

    println!("## bench group: batch_decode");
    println!(
        "host parallelism: {} core(s)",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    let mut rows = Vec::new();
    let mut baseline: Option<Vec<u64>> = None;
    let mut identical = true;
    let mut single_thread_sps = 0.0f64;
    let mut single_thread_stages = [0.0f64; profile::NUM_STAGES];
    for threads in [1usize, 2, 4] {
        let pool = ThreadPool::with_threads(threads);
        // Warm-up: touch the FFT plan cache and the pool's spawn path.
        let _ = dec.decode_slot_views_with_pool(&slots[..2], pool);
        // Drop warm-up time from the per-stage accounting.
        let _ = profile::snapshot_and_reset();
        let t = Instant::now();
        let out = dec.decode_slot_views_with_pool(&slots, pool);
        let elapsed = t.elapsed().as_secs_f64();
        let stages = profile::snapshot_and_reset();
        let sps = SLOTS as f64 / elapsed;
        let d = digest(&out);
        match &baseline {
            None => baseline = Some(d),
            Some(b) => {
                if *b != d {
                    identical = false;
                }
            }
        }
        println!(
            "batch_decode/{SLOTS}slots_2users_t{threads:<2}      {sps:8.3} slots/s  ({elapsed:.3} s elapsed)"
        );
        // Per-stage latency breakdown. Workers accumulate per thread, so
        // the raw sums are cumulative CPU seconds; the per-worker
        // average (cpu / threads) is the number comparable to elapsed
        // wall time. Shares are identical either way.
        let total: f64 = stages.iter().sum();
        let per_worker: [f64; profile::NUM_STAGES] = stages.map(|s| s / threads as f64);
        for (name, (cpu, avg)) in profile::STAGE_NAMES
            .iter()
            .zip(stages.iter().zip(&per_worker))
        {
            println!(
                "    stage {name:<8} {avg:7.3} s/worker  ({cpu:7.3} s cpu, {:5.1}%)",
                100.0 * cpu / total.max(1e-12)
            );
        }
        if threads == 1 {
            single_thread_sps = sps;
            single_thread_stages = stages;
        }
        rows.push(format!(
            "    {{\"threads\": {threads}, \"slots_per_sec\": {sps:.4}, \"elapsed_s\": {elapsed:.4}, \"stages_s\": {}, \"stages_cpu_s\": {}}}",
            stages_json(&per_worker),
            stages_json(&stages)
        ));
    }
    println!("outputs bit-identical across thread counts: {identical}");
    if !identical {
        eprintln!("ERROR: parallel decode diverged from sequential output");
        std::process::exit(1);
    }

    // Per-backend sweep: force each DSP backend on a fresh thread (so
    // per-thread caches cannot carry state between runs), measure
    // single-thread throughput, and hold every decoded stream to the
    // auto-dispatched digest from the sweep above.
    let mut backends_identical = true;
    let mut scalar_sps = 0.0f64;
    // The "vector" row is the backend the sweeps above dispatched to
    // (`active()`: AVX2 where detected), so a scalar-only host records
    // its scalar run there, not a placeholder.
    let vector_backend = backend::active();
    let mut vector_sps = 0.0f64;
    for kind in backend::available() {
        let (sps, d) = run_backend(kind, &slots);
        let same = baseline.as_ref() == Some(&d);
        if !same {
            backends_identical = false;
        }
        println!(
            "batch_decode/{SLOTS}slots_2users_{:<9}  {sps:8.3} slots/s  (bit-identical: {same})",
            kind.name()
        );
        if kind == BackendKind::Scalar {
            scalar_sps = sps;
        }
        if kind == vector_backend {
            vector_sps = sps;
        }
    }
    println!("outputs bit-identical across DSP backends: {backends_identical}");
    if !backends_identical {
        eprintln!("ERROR: a DSP backend diverged from the scalar oracle");
        std::process::exit(1);
    }

    // Candidate-block width sweep: the refine prefilter must produce the
    // exact same decode at every block width (the width only chunks the
    // surrogate grid into kernel calls), and the throughput at the
    // default width is what the CI gate floors as blocked_slots_per_sec.
    let default_width = EstimatorConfig::default().block_width;
    let mut widths_identical = true;
    let mut width_sps = Vec::new();
    let mut blocked_sps = 0.0f64;
    for bw in WIDTHS {
        let (sps, d) = run_width(bw, &slots);
        let same = baseline.as_ref() == Some(&d);
        if !same {
            widths_identical = false;
        }
        println!(
            "batch_decode/{SLOTS}slots_2users_w{bw:<9} {sps:8.3} slots/s  (bit-identical: {same})"
        );
        width_sps.push(format!("\"w{bw}\": {sps:.4}"));
        if bw == default_width {
            blocked_sps = sps;
        }
    }
    println!("outputs bit-identical across block widths: {widths_identical}");
    if !widths_identical {
        eprintln!("ERROR: a candidate-block width diverged from the default decode");
        std::process::exit(1);
    }

    let json = format!(
        "{{\n  \"bench\": \"batch_decode\",\n  \"slots\": {SLOTS},\n  \"users_per_slot\": 2,\n  \"payload_len\": {PAYLOAD_LEN},\n  \"host_cores\": {},\n  \"outputs_bit_identical\": {identical},\n  \"runs\": [\n{}\n  ]\n}}\n",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        rows.join(",\n"),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_parallel.json");
    match std::fs::write(path, json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }

    // Kernel before/after record: single-thread throughput against the
    // PR-2 baseline, with the per-stage breakdown of the current run.
    let speedup = single_thread_sps / PR2_BASELINE_SLOTS_PER_SEC;
    println!(
        "single-thread: {single_thread_sps:.4} slots/s vs {PR2_BASELINE_SLOTS_PER_SEC} baseline ({speedup:.2}x)"
    );
    println!(
        "backends: scalar {scalar_sps:.4} slots/s, {} {vector_sps:.4} slots/s ({:.2}x)",
        vector_backend.name(),
        vector_sps / scalar_sps.max(1e-12)
    );
    let stage_s = |name: &str| {
        profile::STAGE_NAMES
            .iter()
            .position(|n| *n == name)
            .map_or(0.0, |i| single_thread_stages[i])
    };
    let (refine_s, demod_s) = (stage_s("refine"), stage_s("demod"));
    println!("single-thread refine stage: {refine_s:.4} s (block width {default_width}, {blocked_sps:.4} slots/s)");
    println!("single-thread demod stage: {demod_s:.4} s");
    // Merge (rather than rewrite) so the blocked per-width kernel
    // timings `dsp_micro` owns survive a batch_decode refresh.
    let kpath = std::path::Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_kernel.json"
    ));
    merge_bench_json(
        kpath,
        &[
            ("bench", "\"offset_search_kernel\"".into()),
            ("slots", SLOTS.to_string()),
            ("users_per_slot", "2".into()),
            ("payload_len", PAYLOAD_LEN.to_string()),
            (
                "before_slots_per_sec",
                PR2_BASELINE_SLOTS_PER_SEC.to_string(),
            ),
            ("after_slots_per_sec", format!("{single_thread_sps:.4}")),
            ("speedup", format!("{speedup:.3}")),
            ("scalar_slots_per_sec", format!("{scalar_sps:.4}")),
            ("vector_backend", format!("\"{}\"", vector_backend.name())),
            ("vector_slots_per_sec", format!("{vector_sps:.4}")),
            ("outputs_bit_identical", identical.to_string()),
            ("backends_bit_identical", backends_identical.to_string()),
            ("widths_bit_identical", widths_identical.to_string()),
            ("block_width", default_width.to_string()),
            ("blocked_slots_per_sec", format!("{blocked_sps:.4}")),
            ("refine_s", format!("{refine_s:.4}")),
            ("demod_s", format!("{demod_s:.4}")),
            (
                "width_slots_per_sec",
                format!("{{{}}}", width_sps.join(", ")),
            ),
            ("stages_s", stages_json(&single_thread_stages)),
        ],
    );
}

/// Measures single-thread slots/sec with the refine candidate-block
/// width forced to `bw`, returning the throughput and output digest.
fn run_width(bw: usize, slots: &[SlotView<'_>]) -> (f64, Vec<u64>) {
    let cfg = ChoirConfig {
        estimator: EstimatorConfig {
            block_width: bw,
            ..EstimatorConfig::default()
        },
        ..ChoirConfig::default()
    };
    let dec = ChoirDecoder::with_config(PhyParams::default(), cfg);
    // Warm-up: FFT plans, tone bases, scratch arenas.
    let _ = dec.decode_slot_views_with_pool(&slots[..2], ThreadPool::sequential());
    let t = Instant::now();
    let out = dec.decode_slot_views_with_pool(slots, ThreadPool::sequential());
    let elapsed = t.elapsed().as_secs_f64();
    (slots.len() as f64 / elapsed, digest(&out))
}

/// Measures single-thread slots/sec with `kind` forced, on a fresh
/// thread, returning the throughput and the output digest.
fn run_backend(kind: BackendKind, slots: &[SlotView<'_>]) -> (f64, Vec<u64>) {
    let joined = std::thread::scope(|s| {
        s.spawn(move || {
            backend::force(kind);
            let dec = ChoirDecoder::new(PhyParams::default());
            // Warm-up: FFT plans, tone bases, scratch arenas.
            let _ = dec.decode_slot_views_with_pool(&slots[..2], ThreadPool::sequential());
            let t = Instant::now();
            let out = dec.decode_slot_views_with_pool(slots, ThreadPool::sequential());
            let elapsed = t.elapsed().as_secs_f64();
            (slots.len() as f64 / elapsed, digest(&out))
        })
        .join()
    });
    backend::reset();
    match joined {
        Ok(v) => v,
        Err(_) => {
            eprintln!("ERROR: decode panicked under the {} backend", kind.name());
            std::process::exit(1);
        }
    }
}

/// Renders a stage-time array as a JSON object keyed by stage name.
fn stages_json(stages: &[f64; profile::NUM_STAGES]) -> String {
    let fields: Vec<String> = profile::STAGE_NAMES
        .iter()
        .zip(stages)
        .map(|(name, s)| format!("\"{name}\": {s:.4}"))
        .collect();
    format!("{{{}}}", fields.join(", "))
}
