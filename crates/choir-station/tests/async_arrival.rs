//! Asynchronous-arrival scenario battery: the acceptance suite for the
//! station's unslotted (free-running) mode and the multi-hypothesis
//! preamble tracker behind it.
//!
//! Nine seeded scenarios cover the arrival geometries slotted tests
//! cannot express: frames overlapping by 25/50/75% of their on-air
//! length, staggered near-far pairs with a 20 dB power gap (strong
//! first and weak first), zero-gap back-to-back frames, a frame that
//! starts mid-way through the first delivered chunk, and a
//! sub-threshold preamble that only confirms through multi-window score
//! accumulation. Each scenario is rendered to a textual capture —
//! confirmed slot starts, per-user frequency/timing estimates as f64
//! bit patterns, demodulated symbols, CRC verdicts, payload bytes, and
//! the tracker's lifecycle counters — and the concatenation is pinned
//! byte-for-byte against `tests/async_golden.txt`.
//!
//! On top of the golden pin, every scenario must decode bit-identically
//! at 1 and at 4 worker threads (capture cutting happens on the ingest
//! thread; decode is a pure function of the capture), and under every
//! DSP backend `choir_dsp::backend::available()` reports (the 0-ULP
//! policy).
//!
//! Regenerate the golden after an intentional decoder change with:
//!
//! ```text
//! CHOIR_BLESS=1 cargo test -p choir-station --test async_arrival golden_battery
//! ```

use choir_channel::AsyncScenarioBuilder;
use choir_core::DecodedUser;
use choir_dsp::backend;
use choir_dsp::complex::C64;
use choir_pool::ThreadPool;
use choir_station::{SlotSchedule, Station, StationConfig, StationReport};
use choir_trace::{TraceEvent, TraceLevel};
use lora_phy::frame::frame_symbol_count;
use lora_phy::params::PhyParams;
use lora_phy::tracker::HypothesisCounts;
use std::fmt::Write as _;

/// On-air length of one battery frame: 9-byte payload at SF8 CR4/8 is
/// 8 preamble + 2 sync + 32 data = 42 symbols of 256 samples.
const FRAME: u64 = 42 * 256;
const PAYLOAD_LEN: usize = 9;

fn params() -> PhyParams {
    PhyParams::default() // SF8, 125 kHz, CR4/8
}

/// One battery scenario: seeded arrivals, detector threshold, and the
/// fixed chunk size the stream is delivered in.
struct Spec {
    name: &'static str,
    /// (absolute start sample, per-sample SNR dB, payload)
    arrivals: &'static [(u64, f64, &'static [u8])],
    seed: u64,
    threshold: f64,
    chunk: usize,
}

/// The pinned battery. Overlap offsets are deliberately NOT multiples
/// of the symbol period: a sub-symbol misalignment dechirps the
/// interfering frame into two reduced-coherence straddle peaks
/// (~-6 dB each), which is what gives both frames of an overlapping
/// pair a mutual capture margin. Symbol-aligned equal-power overlap
/// keeps the interferer fully coherent and neither frame survives —
/// real radios are never sample-aligned, so the misaligned geometry is
/// the physically representative one.
const SPECS: &[Spec] = &[
    Spec {
        name: "overlap_25pct",
        arrivals: &[(512, 26.0, b"payload A"), (512 + 8064, 22.0, b"payload B")],
        seed: 11,
        threshold: 40.0,
        chunk: 1000,
    },
    Spec {
        // 50.9% overlap: offset FRAME/2 + 100 samples. The exact-half
        // offset (+128 = half a symbol) is a knife edge where the
        // second frame's leading straddle window can fall below birth
        // threshold under interference; +100 keeps the geometry
        // representative without sitting on the degenerate point.
        name: "overlap_50pct",
        arrivals: &[(512, 24.0, b"payload A"), (512 + 5476, 27.0, b"payload B")],
        seed: 11,
        threshold: 40.0,
        chunk: 777,
    },
    Spec {
        name: "overlap_75pct",
        arrivals: &[(512, 26.0, b"payload A"), (512 + 2688, 22.0, b"payload B")],
        seed: 11,
        threshold: 40.0,
        chunk: 256,
    },
    Spec {
        // Second frame starts the sample the first one ends.
        name: "zero_gap_back_to_back",
        arrivals: &[(512, 20.0, b"payload A"), (512 + FRAME, 25.0, b"payload B")],
        seed: 11,
        threshold: 40.0,
        chunk: 4096,
    },
    Spec {
        // 20 dB near-far, strong frame first, 1.5-symbol tail overlap:
        // the weak preamble must be tracked under the strong tail and
        // the capture lead-in must not re-ingest the strong frame.
        name: "near_far_strong_first",
        arrivals: &[(512, 30.0, b"payload A"), (512 + 10368, 10.0, b"payload B")],
        seed: 11,
        threshold: 40.0,
        chunk: 1000,
    },
    Spec {
        name: "near_far_weak_first",
        arrivals: &[(512, 10.0, b"payload A"), (512 + 10368, 30.0, b"payload B")],
        seed: 11,
        threshold: 40.0,
        chunk: 1000,
    },
    Spec {
        // Disjoint frames separated by a two-symbol gap, 20 dB apart.
        name: "near_far_two_symbol_gap",
        arrivals: &[(512, 30.0, b"payload A"), (512 + 11264, 10.0, b"payload B")],
        seed: 11,
        threshold: 40.0,
        chunk: 513,
    },
    Spec {
        // Frame starts 700 samples into a 1000-sample first chunk, on
        // no window boundary: birth, confirmation, and capture all
        // cross the very first chunk seam.
        name: "mid_first_chunk",
        arrivals: &[(700, 15.0, b"payload A")],
        seed: 11,
        threshold: 40.0,
        chunk: 1000,
    },
    Spec {
        // 2.5 dB per-sample SNR against a threshold of 200: no single
        // window clears the bar; only the accumulated run score
        // confirms the hypothesis.
        name: "sub_threshold_accumulation",
        arrivals: &[(512, 2.5, b"payload A")],
        seed: 11,
        threshold: 200.0,
        chunk: 1000,
    },
];

/// One scenario's free-running station and the stream to feed it.
fn station_for(spec: &Spec, pool: ThreadPool) -> (Station, Vec<C64>) {
    let p = params();
    let mut b = AsyncScenarioBuilder::new(p).seed(spec.seed).tail_symbols(6);
    for &(start, snr, payload) in spec.arrivals {
        assert_eq!(
            payload.len(),
            PAYLOAD_LEN,
            "{}: battery payload length",
            spec.name
        );
        b = b.arrival(start, snr, payload);
    }
    let s = b.build();
    assert_eq!(
        s.arrivals[0].len_samples(&s.params),
        FRAME,
        "{}: frame length drifted from the pinned geometry",
        spec.name
    );
    let mut cfg = StationConfig::new(p, frame_symbol_count(&p, PAYLOAD_LEN));
    cfg.detect_threshold = spec.threshold;
    let station = Station::new(cfg, SlotSchedule::FreeRunning).with_pool(pool);
    (station, s.samples)
}

/// Runs one scenario through a free-running station and returns the
/// report.
fn run_spec(spec: &Spec, pool: ThreadPool) -> StationReport {
    let (station, samples) = station_for(spec, pool);
    station.run(samples.chunks(spec.chunk).map(|c| c.to_vec()))
}

/// Renders a scenario report in the golden-capture format. Every float
/// is written as its IEEE-754 bit pattern, so the pin is bit-exact.
fn render(name: &str, report: &StationReport) -> String {
    let mut out = String::new();
    // Writing to a String is infallible.
    let m = &report.metrics;
    let _ = writeln!(out, "scenario {name}");
    let _ = writeln!(
        out,
        "  metrics triggers={} deduped={} born={} confirmed={} expired={} merged={}",
        m.detector_triggers,
        m.detections_deduped,
        m.hyp_born,
        m.hyp_confirmed,
        m.hyp_expired,
        m.hyp_merged
    );
    for slot in &report.slots {
        let r = &slot.result;
        let _ = writeln!(
            out,
            "  slot @{}: {} users, error={:?}",
            slot.slot_start,
            r.users.len(),
            r.error
        );
        for (j, u) in r.users.iter().enumerate() {
            let _ = writeln!(
                out,
                "    u{j} offset={:#018x} frac={:#018x} timing={:#018x}",
                u.user.offset_bins.to_bits(),
                u.user.frac.to_bits(),
                u.user.timing_chips.to_bits()
            );
            let _ = writeln!(out, "    u{j} symbols={:?}", u.symbols);
            match &u.frame {
                Some(f) => {
                    let _ = writeln!(out, "    u{j} crc_ok={} payload={:?}", f.crc_ok, f.payload);
                }
                None => {
                    let _ = writeln!(out, "    u{j} frame=None err={:?}", u.frame_error);
                }
            }
        }
    }
    out
}

/// Renders the whole battery single-threaded — the golden workload.
fn render_battery() -> String {
    let mut all = String::new();
    for spec in SPECS {
        let report = run_spec(spec, ThreadPool::sequential());
        all.push_str(&render(spec.name, &report));
    }
    all
}

/// Every arrival of every scenario decodes: the payload comes back
/// byte-exact with a passing CRC in its own slot, slots appear in
/// arrival order, and nothing is shed. These semantic floors hold
/// independently of the golden file, so a bad bless cannot silently
/// pin a regression.
#[test]
fn every_arrival_decodes_with_crc() {
    for spec in SPECS {
        let report = run_spec(spec, ThreadPool::sequential());
        assert!(report.shed.is_empty(), "{}: shed slots", spec.name);
        assert_eq!(
            report.slots.len(),
            spec.arrivals.len(),
            "{}: one confirmed slot per arrival",
            spec.name
        );
        for (slot, &(start, _, payload)) in report.slots.iter().zip(spec.arrivals) {
            let ctx = format!("{}, arrival at {start}", spec.name);
            assert_eq!(slot.result.error, None, "{ctx}: slot error");
            let decoded: Vec<&DecodedUser> = slot
                .result
                .users
                .iter()
                .filter(|u| u.frame.as_ref().is_some_and(|f| f.payload == payload))
                .collect();
            assert_eq!(
                decoded.len(),
                1,
                "{ctx}: exactly one user carries the payload"
            );
            assert!(decoded[0].payload_ok(), "{ctx}: CRC");
        }
    }
}

/// The acceptance criterion called out by name: at 50% overlap, BOTH
/// payloads decode.
#[test]
fn fifty_percent_overlap_decodes_both_payloads() {
    let spec = SPECS.iter().find(|s| s.name == "overlap_50pct").unwrap();
    let report = run_spec(spec, ThreadPool::sequential());
    let payloads: Vec<Vec<u8>> = report
        .slots
        .iter()
        .flat_map(|s| s.result.users.iter())
        .filter(|u| u.payload_ok())
        .filter_map(|u| u.frame.as_ref().map(|f| f.payload.clone()))
        .collect();
    assert!(payloads.iter().any(|p| p == b"payload A"), "payload A lost");
    assert!(payloads.iter().any(|p| p == b"payload B"), "payload B lost");
}

/// The sub-threshold scenario really exercises accumulation: the
/// confirmation must exist even though no single window score reaches
/// the detector threshold (2.5 dB SNR yields window scores far below
/// 200), and the frame still decodes.
#[test]
fn sub_threshold_confirms_by_accumulation_only() {
    let spec = SPECS
        .iter()
        .find(|s| s.name == "sub_threshold_accumulation")
        .unwrap();
    let report = run_spec(spec, ThreadPool::sequential());
    assert_eq!(report.metrics.hyp_confirmed, 1, "accumulated confirmation");
    assert_eq!(report.slots.len(), 1);
    assert!(report.slots[0].result.users.iter().any(|u| u.payload_ok()));
}

/// ROADMAP 5's "metrics-from-events ≡ counters" gate for the hypothesis
/// lifecycle: on every scenario the `Hypothesis` records in the flight
/// recorder fold to the station's `hyp_*` metrics (themselves a copy of
/// the tracker's counts).
#[test]
fn lifecycle_records_fold_to_station_metrics() {
    const MARKER: TraceEvent = TraceEvent::MacSlot {
        slot: u64::MAX,
        offered: 0,
        delivered: 0,
    };
    // The recorder is process-wide and the tests beside this one emit
    // into it while the level is up: keep this thread's records only
    // (the pool is sequential, so the whole station runs here), its id
    // read off a marker emitted first.
    let level = choir_trace::level();
    choir_trace::set_level(TraceLevel::Full);
    for spec in SPECS {
        let (mut station, samples) = station_for(spec, ThreadPool::sequential());
        choir_trace::full(|| MARKER);
        // One decode at `Full` overwrites a whole per-thread ring, so the
        // lifecycle records are collected right after the push that
        // emitted them, before `service` buries them.
        let mut log = Vec::new();
        let mut collect = || {
            log.extend(
                choir_trace::drain()
                    .into_iter()
                    .filter(|r| matches!(r.event, TraceEvent::Hypothesis(_)) || r.event == MARKER),
            );
        };
        for chunk in samples.chunks(spec.chunk) {
            station.push_chunk(chunk);
            collect();
            station.service();
        }
        // Empty the queue first, so `finish` has nothing to decode on top
        // of the records its tracker flush emits.
        while station.pending() > 0 {
            station.service();
        }
        let report = station.finish();
        collect();
        let me = log.iter().find(|r| r.event == MARKER).map(|r| r.thread);
        let mut folded = HypothesisCounts::default();
        for r in log.iter().filter(|r| Some(r.thread) == me) {
            if let TraceEvent::Hypothesis(h) = r.event {
                folded.apply(h.transition);
            }
        }
        let m = &report.metrics;
        assert_eq!(
            (folded.born, folded.confirmed, folded.expired, folded.merged),
            (m.hyp_born, m.hyp_confirmed, m.hyp_expired, m.hyp_merged),
            "{}: the drained lifecycle does not fold to the metrics",
            spec.name
        );
        assert_eq!(folded.live, 0, "{}: finish flushes the tracker", spec.name);
        assert!(m.hyp_confirmed >= 1, "{}: nothing confirmed", spec.name);
    }
    choir_trace::set_level(level);
}

/// The battery reproduces `tests/async_golden.txt` byte for byte.
#[test]
fn golden_battery_pinned() {
    const GOLDEN: &str = include_str!("async_golden.txt");
    let rendered = render_battery();
    if std::env::var_os("CHOIR_BLESS").is_some() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/async_golden.txt");
        std::fs::write(path, &rendered).expect("write blessed golden");
        eprintln!("blessed {path}");
        return;
    }
    assert_eq!(
        rendered.trim_end(),
        GOLDEN.trim_end(),
        "async battery diverged from the golden capture; if the change \
         is intentional, re-bless with CHOIR_BLESS=1"
    );
}

/// Field-by-field bit-exact comparison (`DecodedUser` deliberately has
/// no `PartialEq`; floats go via `to_bits`), as in `equivalence.rs`.
fn assert_users_identical(a: &[DecodedUser], b: &[DecodedUser], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: user count diverged");
    for (k, (x, y)) in a.iter().zip(b).enumerate() {
        let ctx = format!("{ctx}, user {k}");
        assert_eq!(
            x.user.offset_bins.to_bits(),
            y.user.offset_bins.to_bits(),
            "{ctx}: offset_bins"
        );
        assert_eq!(x.user.frac.to_bits(), y.user.frac.to_bits(), "{ctx}: frac");
        assert_eq!(x.user.mag.to_bits(), y.user.mag.to_bits(), "{ctx}: mag");
        assert_eq!(
            x.user.channel.re.to_bits(),
            y.user.channel.re.to_bits(),
            "{ctx}: channel.re"
        );
        assert_eq!(
            x.user.channel.im.to_bits(),
            y.user.channel.im.to_bits(),
            "{ctx}: channel.im"
        );
        assert_eq!(
            x.user.phase_slope.map(f64::to_bits),
            y.user.phase_slope.map(f64::to_bits),
            "{ctx}: phase_slope"
        );
        assert_eq!(
            x.user.timing_chips.to_bits(),
            y.user.timing_chips.to_bits(),
            "{ctx}: timing_chips"
        );
        assert_eq!(x.user.support, y.user.support, "{ctx}: support");
        assert_eq!(x.symbols, y.symbols, "{ctx}: symbols");
        assert_eq!(x.sync_errors, y.sync_errors, "{ctx}: sync_errors");
        assert_eq!(x.erasures, y.erasures, "{ctx}: erasures");
        assert_eq!(x.frame, y.frame, "{ctx}: frame");
        assert_eq!(x.frame_error, y.frame_error, "{ctx}: frame_error");
    }
}

/// Every scenario decodes bit-identically at 1 and at 4 worker
/// threads: detection and capture cutting happen on the ingest thread,
/// and decode is a pure function of the cut capture, so the pool size
/// must be unobservable in the output.
#[test]
fn thread_count_is_unobservable() {
    for spec in SPECS {
        let one = run_spec(spec, ThreadPool::with_threads(1));
        let four = run_spec(spec, ThreadPool::with_threads(4));
        let ctx = spec.name.to_string();
        assert_eq!(one.slots.len(), four.slots.len(), "{ctx}: slot count");
        for (a, b) in one.slots.iter().zip(&four.slots) {
            let ctx = format!("{ctx}, slot at {}", a.slot_start);
            assert_eq!(a.slot_start, b.slot_start, "{ctx}: boundary");
            assert_eq!(a.result.error, b.result.error, "{ctx}: error status");
            assert_users_identical(&a.result.users, &b.result.users, &ctx);
        }
    }
}

/// The battery reproduces the golden capture under every DSP backend
/// the host offers (the scalar oracle, plus AVX2 where present) — the
/// 0-ULP policy extends to the unslotted path. Each backend runs on a
/// fresh thread so per-thread caches cannot carry state across runs.
#[test]
fn golden_battery_identical_across_all_backends() {
    const GOLDEN: &str = include_str!("async_golden.txt");
    let kinds = backend::available();
    assert!(
        kinds.contains(&backend::BackendKind::Scalar),
        "the scalar oracle runs on every host"
    );
    for kind in kinds {
        let rendered = std::thread::spawn(move || {
            backend::force(kind);
            render_battery()
        })
        .join();
        backend::reset();
        let rendered = rendered.expect("battery thread panicked");
        assert_eq!(
            rendered.trim_end(),
            GOLDEN.trim_end(),
            "async battery diverged under the {} backend",
            kind.name()
        );
    }
}
