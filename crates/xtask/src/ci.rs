//! `cargo xtask ci` — the repository's merge gates as one tested binary.
//!
//! CI used to enforce the bench floors with inline Python heredocs pasted
//! into the workflow; the logic lived untested in YAML and drifted from
//! the benches it judged. Each gate is now a subcommand that owns the
//! whole sequence:
//!
//! * `cargo xtask ci bench-smoke` — snapshot the committed
//!   `BENCH_kernel.json` reference, run the `batch_decode` bench (which
//!   overwrites the file), then enforce the slots/sec floors (≥ 80 % of
//!   reference, for both the default and the scalar-forced DSP backend),
//!   the single-thread stage-time ceilings (`refine_s` and `demod_s`,
//!   ≤ reference ÷ 0.8), cross-thread bit-identity, and cross-backend
//!   bit-identity. The measured vector-backend throughput is recorded
//!   but not floored — the speed-up depends on the host ISA.
//! * `cargo xtask ci station-soak` — same dance with
//!   `BENCH_station.json` and the `station_soak` bench, plus the
//!   shed-free nominal profile, the < 5 % tracing-overhead budget, and
//!   the unslotted profile's gates: < 10 % online-detection overhead
//!   (free-running vs an explicit schedule at the same window-floored
//!   starts) and zero missed slot decodes.
//! * `cargo xtask ci model-check` — run the schedule-exploring
//!   concurrency suites (`choir-sync` smoke plus the pool / trace /
//!   profile invariants) under `--cfg choir_model`; they compile to
//!   nothing in a plain `cargo test`, so this gate is their only
//!   executor.
//!
//! The JSON reading is a deliberately tiny key scanner (the workspace has
//! no serde): every key the gates consult is unique within its file, so
//! `"key": value` extraction is unambiguous. The gate predicates are pure
//! functions over (reference, fresh-JSON) and unit-tested against
//! synthetic fixtures for the pass, regression, divergence and shed
//! cases — the checks are code under test, not workflow prose.

use std::process::ExitCode;

/// Fraction of the committed reference throughput a fresh run must reach.
const FLOOR_FRAC: f64 = 0.8;
/// Maximum slots/sec cost of `Outcome`-level tracing, in percent.
const TRACE_OVERHEAD_LIMIT_PCT: f64 = 5.0;
/// Ceiling on what the multi-hypothesis tracker may cost in free-running
/// mode versus an explicit schedule at the same window-floored starts
/// (identical decode work, so the gap is the detection machinery alone).
const ASYNC_DETECT_OVERHEAD_LIMIT_PCT: f64 = 10.0;

/// Entry point for `cargo xtask ci <gate>`.
pub fn run(args: &[String]) -> ExitCode {
    match args.first().map(String::as_str) {
        Some("bench-smoke") => gate("BENCH_kernel.json", "batch_decode", check_kernel),
        Some("station-soak") => gate("BENCH_station.json", "station_soak", check_station),
        Some("city-capacity") => gate("BENCH_city.json", "city_capacity", check_city),
        Some("model-check") => model_check(),
        _ => {
            eprintln!("usage: cargo xtask ci <bench-smoke|station-soak|city-capacity|model-check>");
            eprintln!(
                "  bench-smoke   run batch_decode, enforce kernel slots/sec floor + bit-identity"
            );
            eprintln!("  station-soak  run station_soak, enforce station floor + shed-free + trace/detect overhead + unslotted slots");
            eprintln!("  city-capacity run city_capacity, enforce per-scheme capacity floors + Choir>=slotted + 1-vs-N-thread transcript identity");
            eprintln!("  model-check   run every schedule-explored concurrency suite under --cfg choir_model");
            ExitCode::from(2)
        }
    }
}

/// The model-checked concurrency suites: (package, test target). Each
/// compiles to a no-op without `--cfg choir_model`, so they need their
/// own gate — plain `cargo test` never exercises them.
const MODEL_SUITES: [(&str, &str); 5] = [
    ("choir-sync", "model_smoke"),
    ("choir-pool", "model"),
    ("choir-trace", "model"),
    ("choir-dsp", "model"),
    ("choir-core", "model"),
];

/// Appends `--cfg choir_model` to an inherited `RUSTFLAGS` value
/// (idempotent, preserves existing flags).
fn with_model_cfg(rustflags: &str) -> String {
    if rustflags.contains("--cfg choir_model") {
        return rustflags.to_string();
    }
    if rustflags.is_empty() {
        "--cfg choir_model".to_string()
    } else {
        format!("{rustflags} --cfg choir_model")
    }
}

/// `cargo xtask ci model-check` — run every model-checked suite (the
/// `choir-sync` scheduler smoke tests plus the pool / trace / profile
/// invariant suites) with the deterministic schedule explorer enabled.
fn model_check() -> ExitCode {
    let root = crate::workspace_root();
    let rustflags = with_model_cfg(&std::env::var("RUSTFLAGS").unwrap_or_default());
    for (pkg, test) in MODEL_SUITES {
        println!("ci: model-check {pkg} --test {test}");
        let status = std::process::Command::new("cargo")
            .args(["test", "-p", pkg, "--test", test])
            .env("RUSTFLAGS", &rustflags)
            .current_dir(&root)
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("ci: model suite {pkg} --test {test} exited with {s}");
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("ci: could not launch cargo test for {pkg}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("ci: model-check gate passed — all schedule-explored suites green");
    ExitCode::SUCCESS
}

/// Shared gate skeleton: snapshot the committed bench JSON (the
/// reference), run the bench (it rewrites the JSON), re-read, and apply
/// the pure checks over (committed, fresh). Each check extracts the
/// reference keys it gates on itself.
fn gate(json_name: &str, bench: &str, check: fn(&str, &str) -> Vec<String>) -> ExitCode {
    let root = crate::workspace_root();
    let path = root.join(json_name);
    let committed = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("ci: cannot read committed {json_name}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let status = std::process::Command::new("cargo")
        .args(["bench", "-p", "choir-bench", "--bench", bench])
        .current_dir(&root)
        .status();
    match status {
        Ok(s) if s.success() => {}
        Ok(s) => {
            eprintln!("ci: cargo bench --bench {bench} exited with {s}");
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("ci: could not launch cargo bench --bench {bench}: {e}");
            return ExitCode::FAILURE;
        }
    }

    let fresh = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("ci: bench did not leave a readable {json_name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let failures = check(&committed, &fresh);
    if failures.is_empty() {
        println!("ci: {bench} gate passed");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("ci: FAIL: {f}");
        }
        ExitCode::FAILURE
    }
}

/// Applies the ≥ `FLOOR_FRAC` throughput floor for one JSON key:
/// extracts the committed reference and the fresh measurement, and
/// pushes a failure on a missing key or a below-floor reading.
fn floor_check(label: &str, key: &str, committed: &str, fresh: &str, out: &mut Vec<String>) {
    let Some(reference) = json_f64(committed, key) else {
        out.push(format!("committed bench JSON has no numeric {key}"));
        return;
    };
    let Some(sps) = json_f64(fresh, key) else {
        out.push(format!("fresh bench JSON has no numeric {key}"));
        return;
    };
    let floor = FLOOR_FRAC * reference;
    println!("ci: {label}: fresh {sps:.4} slots/s, floor {floor:.4} (reference {reference:.4})");
    if sps < floor {
        out.push(format!(
            "{label} slots/sec regression >20%: {sps:.4} < floor {floor:.4} (reference {reference:.4})"
        ));
    }
}

/// Applies the ≤ `1/FLOOR_FRAC` ceiling for one stage-time key (lower
/// is better): fails on a missing key or when the fresh reading exceeds
/// the committed reference by more than the same >20 % margin the
/// throughput floors allow.
fn ceiling_check(label: &str, key: &str, committed: &str, fresh: &str, out: &mut Vec<String>) {
    let Some(reference) = json_f64(committed, key) else {
        out.push(format!("committed bench JSON has no numeric {key}"));
        return;
    };
    let Some(secs) = json_f64(fresh, key) else {
        out.push(format!("fresh bench JSON has no numeric {key}"));
        return;
    };
    let ceiling = reference / FLOOR_FRAC;
    println!("ci: {label}: fresh {secs:.4} s, ceiling {ceiling:.4} (reference {reference:.4})");
    if secs > ceiling {
        out.push(format!(
            "{label} stage-time regression >20%: {secs:.4} > ceiling {ceiling:.4} (reference {reference:.4})"
        ));
    }
}

/// Gate predicates for `BENCH_kernel.json` (the batch-decode kernel
/// bench): throughput floors for the default, scalar-forced and
/// blocked-width decode paths, stage-time ceilings on the single-thread
/// refine and demod stages, cross-thread bit-identity, cross-backend bit-identity,
/// and cross-block-width bit-identity. The per-backend vector slots/sec
/// is recorded (for the committed artifact) but not floored — vector
/// speed-ups vary by host ISA.
fn check_kernel(committed: &str, fresh: &str) -> Vec<String> {
    let mut out = Vec::new();
    floor_check("kernel", "after_slots_per_sec", committed, fresh, &mut out);
    floor_check(
        "kernel scalar backend",
        "scalar_slots_per_sec",
        committed,
        fresh,
        &mut out,
    );
    floor_check(
        "kernel blocked width",
        "blocked_slots_per_sec",
        committed,
        fresh,
        &mut out,
    );
    ceiling_check(
        "kernel refine stage",
        "refine_s",
        committed,
        fresh,
        &mut out,
    );
    ceiling_check("kernel demod stage", "demod_s", committed, fresh, &mut out);
    if let (Some(name), Some(sps)) = (
        json_value(fresh, "vector_backend"),
        json_f64(fresh, "vector_slots_per_sec"),
    ) {
        let name = name.trim_matches('"');
        println!("ci: vector backend {name}: {sps:.4} slots/s (recorded, not floored)");
    }
    match json_bool(fresh, "outputs_bit_identical") {
        Some(true) => {}
        Some(false) => out.push("kernel outputs diverged across thread counts".to_string()),
        None => out.push("fresh BENCH_kernel.json has no outputs_bit_identical".to_string()),
    }
    match json_bool(fresh, "backends_bit_identical") {
        Some(true) => {}
        Some(false) => out.push("kernel outputs diverged across DSP backends".to_string()),
        None => out.push("fresh BENCH_kernel.json has no backends_bit_identical".to_string()),
    }
    match json_bool(fresh, "widths_bit_identical") {
        Some(true) => {}
        Some(false) => {
            out.push("kernel outputs diverged across candidate-block widths".to_string())
        }
        None => out.push("fresh BENCH_kernel.json has no widths_bit_identical".to_string()),
    }
    out
}

/// Gate predicates for `BENCH_station.json` (the streaming soak):
/// throughput floor, shed-free nominal profile, batch/streaming
/// bit-identity, and the tracing-overhead budget.
fn check_station(committed: &str, json: &str) -> Vec<String> {
    let mut out = Vec::new();
    floor_check("station", "slots_per_sec", committed, json, &mut out);
    match json_u64(json, "nominal_shed") {
        Some(0) => {}
        Some(n) => out.push(format!("station shed work under nominal load ({n} events)")),
        None => out.push("fresh BENCH_station.json has no nominal_shed".to_string()),
    }
    match json_bool(json, "outputs_bit_identical") {
        Some(true) => {}
        Some(false) => out.push("streaming output diverged from batch decode".to_string()),
        None => out.push("fresh BENCH_station.json has no outputs_bit_identical".to_string()),
    }
    match json_f64(json, "trace_overhead_pct") {
        Some(pct) if pct <= TRACE_OVERHEAD_LIMIT_PCT => {}
        Some(pct) => out.push(format!(
            "Outcome-level tracing costs {pct:.2}% slots/sec (limit {TRACE_OVERHEAD_LIMIT_PCT}%)"
        )),
        None => out.push("fresh BENCH_station.json has no trace_overhead_pct".to_string()),
    }
    match json_f64(json, "async_detect_overhead_pct") {
        Some(pct) if pct <= ASYNC_DETECT_OVERHEAD_LIMIT_PCT => {}
        Some(pct) => out.push(format!(
            "online detection costs {pct:.2}% slots/sec over an explicit schedule \
             at the same window-floored starts (limit {ASYNC_DETECT_OVERHEAD_LIMIT_PCT}%)"
        )),
        None => out.push("fresh BENCH_station.json has no async_detect_overhead_pct".to_string()),
    }
    match json_u64(json, "unslotted_slot_miscount") {
        Some(0) => {}
        Some(n) => out.push(format!(
            "free-running tracker missed a slot's decode in {n} rounds"
        )),
        None => out.push("fresh BENCH_station.json has no unslotted_slot_miscount".to_string()),
    }
    out
}

/// Minimum city-simulation scale the capacity gate accepts: the paper's
/// urban claim is only reproduced at ≥ 10⁶ clients over ≥ 10² gateways,
/// so a bench quietly shrunk below that must fail, not pass faster.
const CITY_MIN_CLIENTS: u64 = 1_000_000;
const CITY_MIN_GATEWAYS: u64 = 100;

/// Applies the ≥ `FLOOR_FRAC` delivered-frames/sec floor for one city
/// scheme. The city bench is deterministic (integer closed-form model),
/// so in practice fresh == committed; the 20 % allowance only matters
/// when the model itself is deliberately retuned.
fn city_floor_check(tag: &str, committed: &str, fresh: &str, out: &mut Vec<String>) {
    let key = format!("{tag}_peak_fps");
    let Some(reference) = json_f64(committed, &key) else {
        out.push(format!("committed bench JSON has no numeric {key}"));
        return;
    };
    let Some(fps) = json_f64(fresh, &key) else {
        out.push(format!("fresh bench JSON has no numeric {key}"));
        return;
    };
    let floor = FLOOR_FRAC * reference;
    println!(
        "ci: city {tag}: fresh {fps:.4} delivered-fps, floor {floor:.4} (reference {reference:.4})"
    );
    if fps < floor {
        out.push(format!(
            "city {tag} delivered-fps regression >20%: {fps:.4} < floor {floor:.4} (reference {reference:.4})"
        ));
    }
}

/// Gate predicates for `BENCH_city.json` (the city-scale capacity
/// curves): per-scheme peak delivered-fps floors, the paper's headline
/// ordering (Choir ≥ slotted ALOHA at the highest offered load), the
/// 1-vs-4-worker transcript identity, and the minimum urban scale.
fn check_city(committed: &str, fresh: &str) -> Vec<String> {
    let mut out = Vec::new();
    for tag in ["aloha", "slotted", "choir", "ss5g"] {
        city_floor_check(tag, committed, fresh, &mut out);
    }
    match (
        json_f64(fresh, "choir_delivered_fps"),
        json_f64(fresh, "slotted_delivered_fps"),
    ) {
        (Some(choir), Some(slotted)) => {
            println!("ci: city peak-load ordering: choir {choir:.4} vs slotted {slotted:.4} delivered-fps");
            if choir < slotted {
                out.push(format!(
                    "Choir under slotted ALOHA at peak load: {choir:.4} < {slotted:.4} delivered-fps"
                ));
            }
        }
        _ => out.push(
            "fresh BENCH_city.json lacks choir_delivered_fps/slotted_delivered_fps".to_string(),
        ),
    }
    match json_bool(fresh, "transcripts_bit_identical") {
        Some(true) => {}
        Some(false) => {
            out.push("city transcript diverged between 1 and 4 worker threads".to_string())
        }
        None => out.push("fresh BENCH_city.json has no transcripts_bit_identical".to_string()),
    }
    match json_u64(fresh, "clients_total") {
        Some(n) if n >= CITY_MIN_CLIENTS => {}
        Some(n) => out.push(format!(
            "city bench ran only {n} clients (urban claim needs >= {CITY_MIN_CLIENTS})"
        )),
        None => out.push("fresh BENCH_city.json has no clients_total".to_string()),
    }
    match json_u64(fresh, "gateways") {
        Some(n) if n >= CITY_MIN_GATEWAYS => {}
        Some(n) => out.push(format!(
            "city bench ran only {n} gateways (urban claim needs >= {CITY_MIN_GATEWAYS})"
        )),
        None => out.push("fresh BENCH_city.json has no gateways".to_string()),
    }
    out
}

/// Returns the raw value token following `"key":`. Only sound because
/// every key the gates read is unique within its bench file (the nested
/// `last_round_metrics` object shares no key names with the gates).
fn json_value<'a>(src: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\"");
    let at = src.find(&needle)? + needle.len();
    let rest = src[at..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

fn json_f64(src: &str, key: &str) -> Option<f64> {
    json_value(src, key)?.parse().ok()
}

fn json_u64(src: &str, key: &str) -> Option<u64> {
    json_value(src, key)?.parse().ok()
}

fn json_bool(src: &str, key: &str) -> Option<bool> {
    match json_value(src, key)? {
        "true" => Some(true),
        "false" => Some(false),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic `BENCH_kernel.json` in the exact shape the bench writes.
    fn kernel_fixture(sps: f64, scalar: f64, identical: bool, backends: bool) -> String {
        // The blocked/refine readings track the healthier of the two
        // throughputs so the single-regression tests stay single.
        let healthy = sps.max(scalar);
        kernel_fixture_blocked(sps, scalar, healthy, 0.4, true, identical, backends)
    }

    /// Fixture with explicit blocked-width and refine-stage readings.
    #[allow(clippy::too_many_arguments)]
    fn kernel_fixture_blocked(
        sps: f64,
        scalar: f64,
        blocked: f64,
        refine_s: f64,
        widths: bool,
        identical: bool,
        backends: bool,
    ) -> String {
        format!(
            concat!(
                "{{\n  \"bench\": \"batch_decode\",\n",
                "  \"after_slots_per_sec\": {sps:.4},\n",
                "  \"before_slots_per_sec\": 1.1,\n",
                "  \"scalar_slots_per_sec\": {scalar:.4},\n",
                "  \"vector_backend\": \"avx2\",\n",
                "  \"vector_slots_per_sec\": {vector:.4},\n",
                "  \"block_width\": 4,\n",
                "  \"blocked_slots_per_sec\": {blocked:.4},\n",
                "  \"refine_s\": {refine_s:.4},\n",
                "  \"demod_s\": 0.1000,\n",
                "  \"width_slots_per_sec\": {{\"w1\": {blocked:.4}, \"w4\": {blocked:.4}}},\n",
                "  \"widths_bit_identical\": {widths},\n",
                "  \"outputs_bit_identical\": {identical},\n",
                "  \"backends_bit_identical\": {backends}\n}}\n"
            ),
            sps = sps,
            scalar = scalar,
            vector = scalar * 2.5,
            blocked = blocked,
            refine_s = refine_s,
            widths = widths,
            identical = identical,
            backends = backends,
        )
    }

    /// A synthetic `BENCH_station.json` covering every gated key, with a
    /// healthy unslotted profile.
    fn station_fixture(sps: f64, shed: u64, identical: bool, overhead: f64) -> String {
        station_fixture_unslotted(sps, shed, identical, overhead, 2.1, 0)
    }

    /// Fixture with explicit unslotted readings (detect overhead and
    /// slot miscount).
    fn station_fixture_unslotted(
        sps: f64,
        shed: u64,
        identical: bool,
        overhead: f64,
        async_overhead: f64,
        miscount: u64,
    ) -> String {
        format!(
            concat!(
                "{{\n  \"bench\": \"station_soak\",\n",
                "  \"slots_per_sec\": {sps:.4},\n",
                "  \"slots_per_sec_traced\": {tr:.4},\n",
                "  \"slots_per_sec_unslotted\": {un:.4},\n",
                "  \"trace_overhead_pct\": {overhead:.2},\n",
                "  \"async_detect_overhead_pct\": {async_overhead:.2},\n",
                "  \"unslotted_total_overhead_pct\": {total:.2},\n",
                "  \"unslotted_slot_miscount\": {miscount},\n",
                "  \"outputs_bit_identical\": {identical},\n",
                "  \"nominal_shed\": {shed},\n",
                "  \"last_round_metrics\": {{\"slots_shed\": 0, \"queue_depth\": 0}}\n}}\n"
            ),
            sps = sps,
            tr = sps * (1.0 - overhead / 100.0),
            un = sps * 0.75,
            overhead = overhead,
            async_overhead = async_overhead,
            total = async_overhead + 25.0,
            miscount = miscount,
            identical = identical,
            shed = shed,
        )
    }

    /// A synthetic `BENCH_city.json` covering every gated key. Peak fps
    /// per scheme is scaled off `choir_fps` so one knob builds healthy
    /// and regressed fixtures alike.
    fn city_fixture(choir_fps: f64, slotted_fps: f64, identical: bool, clients: u64) -> String {
        format!(
            concat!(
                "{{\n  \"bench\": \"city_capacity\",\n",
                "  \"gateways\": {gws},\n",
                "  \"clients_per_gw\": 10000,\n",
                "  \"clients_total\": {clients},\n",
                "  \"aloha_delivered_fps\": 0.0000,\n",
                "  \"aloha_peak_fps\": {aloha_peak:.4},\n",
                "  \"slotted_delivered_fps\": {slotted:.4},\n",
                "  \"slotted_peak_fps\": {slotted_peak:.4},\n",
                "  \"choir_delivered_fps\": {choir:.4},\n",
                "  \"choir_peak_fps\": {choir:.4},\n",
                "  \"ss5g_delivered_fps\": 0.0000,\n",
                "  \"ss5g_peak_fps\": {ss5g_peak:.4},\n",
                "  \"curve_choir_fps\": [1.0, {choir:.4}],\n",
                "  \"transcripts_bit_identical\": {identical},\n",
                "  \"wall_s\": 0.60\n}}\n"
            ),
            gws = clients / 10_000,
            clients = clients,
            // Only choir's peak tracks the knob: regression tests stay
            // single-failure. The other peaks are fixed healthy values.
            aloha_peak = 1.0,
            slotted = slotted_fps,
            slotted_peak = slotted_fps.max(1.0),
            choir = choir_fps,
            ss5g_peak = 1.0,
            identical = identical,
        )
    }

    #[test]
    fn city_gate_passes_on_reproduction() {
        // The city model is deterministic: the normal case is fresh ==
        // committed, and exactly the 80 % floor still passes (the gate
        // is >=, not >).
        let reference = city_fixture(2676.0, 23.9, true, 1_000_000);
        assert!(check_city(&reference, &reference).is_empty());
        let reference = city_fixture(1.0, 0.5, true, 1_000_000);
        let at_floor = city_fixture(0.8, 0.5, true, 1_000_000);
        assert!(check_city(&reference, &at_floor).is_empty());
    }

    #[test]
    fn city_gate_fails_on_capacity_regression() {
        let reference = city_fixture(1.0, 0.5, true, 1_000_000);
        let fails = check_city(&reference, &city_fixture(0.79, 0.5, true, 1_000_000));
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(
            fails[0].contains("choir delivered-fps regression"),
            "{fails:?}"
        );
    }

    #[test]
    fn city_gate_fails_on_thread_divergence() {
        let reference = city_fixture(2676.0, 23.9, true, 1_000_000);
        let fails = check_city(&reference, &city_fixture(2676.0, 23.9, false, 1_000_000));
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("1 and 4 worker threads"), "{fails:?}");
    }

    #[test]
    fn city_gate_fails_when_choir_loses_to_slotted() {
        let reference = city_fixture(100.0, 23.9, true, 1_000_000);
        // Fresh run where slotted out-delivers Choir at peak load.
        let fails = check_city(&reference, &city_fixture(100.0, 140.0, true, 1_000_000));
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("Choir under slotted ALOHA"), "{fails:?}");
    }

    #[test]
    fn city_gate_fails_below_urban_scale() {
        let reference = city_fixture(2676.0, 23.9, true, 1_000_000);
        let fails = check_city(&reference, &city_fixture(2676.0, 23.9, true, 500_000));
        // 500k clients over 50 gateways: both scale contracts break.
        assert_eq!(fails.len(), 2, "{fails:?}");
        assert!(fails[0].contains("clients"), "{fails:?}");
        assert!(fails[1].contains("gateways"), "{fails:?}");
    }

    #[test]
    fn city_gate_fails_on_missing_keys() {
        let reference = city_fixture(2676.0, 23.9, true, 1_000_000);
        // Empty fresh JSON: four peak floors, the ordering pair, the
        // identity flag, and the two scale keys all report.
        let fails = check_city(&reference, "{}");
        assert_eq!(fails.len(), 8, "{fails:?}");
        // A committed reference without the floors is itself a failure.
        let fails = check_city("{}", &reference);
        assert_eq!(fails.len(), 4, "{fails:?}");
    }

    #[test]
    fn kernel_gate_passes_at_floor() {
        // Exactly on the floor is a pass; the gate is ≥, not >.
        let reference = kernel_fixture(1.0, 1.0, true, true);
        assert!(check_kernel(&reference, &kernel_fixture(0.8, 0.8, true, true)).is_empty());
        let same = kernel_fixture(2.9240, 0.5514, true, true);
        assert!(check_kernel(&same, &same).is_empty());
    }

    #[test]
    fn kernel_gate_fails_on_regression() {
        let reference = kernel_fixture(1.0, 1.0, true, true);
        let fails = check_kernel(&reference, &kernel_fixture(0.79, 1.0, true, true));
        assert_eq!(fails.len(), 1);
        assert!(fails[0].contains("regression"), "{fails:?}");
    }

    #[test]
    fn kernel_gate_fails_on_scalar_backend_regression() {
        // The vector paths must never buy their speed-up by slowing the
        // scalar oracle: the scalar-forced throughput is floored too.
        let reference = kernel_fixture(1.0, 1.0, true, true);
        let fails = check_kernel(&reference, &kernel_fixture(1.0, 0.79, true, true));
        assert_eq!(fails.len(), 1);
        assert!(fails[0].contains("scalar"), "{fails:?}");
    }

    #[test]
    fn kernel_gate_fails_on_divergence() {
        let reference = kernel_fixture(1.0, 1.0, true, true);
        let fails = check_kernel(&reference, &kernel_fixture(1.0, 1.0, false, true));
        assert_eq!(fails.len(), 1);
        assert!(fails[0].contains("thread counts"), "{fails:?}");
    }

    #[test]
    fn kernel_gate_fails_on_backend_divergence() {
        let reference = kernel_fixture(1.0, 1.0, true, true);
        let fails = check_kernel(&reference, &kernel_fixture(1.0, 1.0, true, false));
        assert_eq!(fails.len(), 1);
        assert!(fails[0].contains("DSP backends"), "{fails:?}");
    }

    #[test]
    fn kernel_gate_fails_on_missing_keys() {
        // Fresh JSON missing everything: three floors, the refine and
        // demod ceilings, and the three identity flags fail.
        let reference = kernel_fixture(1.0, 1.0, true, true);
        let fails = check_kernel(&reference, "{}");
        assert_eq!(fails.len(), 8, "{fails:?}");
        // A committed reference missing the gated throughput keys is
        // itself a failure (the gate must never silently skip a floor).
        let fails = check_kernel("{}", &reference);
        assert_eq!(fails.len(), 5, "{fails:?}");
    }

    #[test]
    fn kernel_gate_fails_on_blocked_width_regression() {
        let reference = kernel_fixture(1.0, 1.0, true, true);
        let fails = check_kernel(
            &reference,
            &kernel_fixture_blocked(1.0, 1.0, 0.79, 0.4, true, true, true),
        );
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("blocked"), "{fails:?}");
    }

    #[test]
    fn kernel_gate_fails_on_refine_stage_regression() {
        // refine_s is a time: larger is worse. Reference 0.4 s allows up
        // to 0.5 s; 0.51 s must fail, 0.49 s must pass.
        let reference = kernel_fixture(1.0, 1.0, true, true);
        let fails = check_kernel(
            &reference,
            &kernel_fixture_blocked(1.0, 1.0, 1.0, 0.51, true, true, true),
        );
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("refine"), "{fails:?}");
        let fails = check_kernel(
            &reference,
            &kernel_fixture_blocked(1.0, 1.0, 1.0, 0.49, true, true, true),
        );
        assert!(fails.is_empty(), "{fails:?}");
    }

    /// The kernel fixture with its `demod_s` reading replaced.
    fn kernel_fixture_demod(demod_s: f64) -> String {
        kernel_fixture(1.0, 1.0, true, true)
            .replace("\"demod_s\": 0.1000", &format!("\"demod_s\": {demod_s:.4}"))
    }

    #[test]
    fn kernel_gate_fails_on_demod_stage_regression() {
        // Reference 0.1 s allows up to 0.125 s.
        let reference = kernel_fixture(1.0, 1.0, true, true);
        let fails = check_kernel(&reference, &kernel_fixture_demod(0.126));
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("demod"), "{fails:?}");
    }

    #[test]
    fn kernel_gate_passes_within_the_demod_stage_ceiling() {
        let reference = kernel_fixture(1.0, 1.0, true, true);
        let fails = check_kernel(&reference, &kernel_fixture_demod(0.124));
        assert!(fails.is_empty(), "{fails:?}");
        // A faster demod stage than the reference is never a failure.
        let fails = check_kernel(&reference, &kernel_fixture_demod(0.02));
        assert!(fails.is_empty(), "{fails:?}");
    }

    #[test]
    fn kernel_gate_fails_on_width_divergence() {
        let reference = kernel_fixture(1.0, 1.0, true, true);
        let fails = check_kernel(
            &reference,
            &kernel_fixture_blocked(1.0, 1.0, 1.0, 0.4, false, true, true),
        );
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("block widths"), "{fails:?}");
    }

    #[test]
    fn station_gate_passes_nominal() {
        let reference = station_fixture(2.9178, 0, true, 1.3);
        assert!(check_station(&reference, &station_fixture(2.9178, 0, true, 1.3)).is_empty());
        // Negative overhead (measurement noise) is fine.
        assert!(check_station(&reference, &station_fixture(3.0, 0, true, -0.4)).is_empty());
    }

    #[test]
    fn station_gate_fails_on_nominal_shed() {
        let reference = station_fixture(1.0, 0, true, 0.0);
        let fails = check_station(&reference, &station_fixture(1.0, 3, true, 0.0));
        assert_eq!(fails.len(), 1);
        assert!(fails[0].contains("shed"), "{fails:?}");
    }

    #[test]
    fn station_gate_fails_on_divergence_and_regression() {
        let reference = station_fixture(2.0, 0, true, 0.0);
        let fails = check_station(&reference, &station_fixture(1.5, 0, false, 0.0));
        assert_eq!(fails.len(), 2, "{fails:?}");
    }

    #[test]
    fn station_gate_fails_on_trace_overhead() {
        let reference = station_fixture(1.0, 0, true, 0.0);
        let fails = check_station(&reference, &station_fixture(1.0, 0, true, 6.7));
        assert_eq!(fails.len(), 1);
        assert!(fails[0].contains("tracing"), "{fails:?}");
    }

    #[test]
    fn station_gate_fails_on_async_detect_overhead() {
        // The gated number compares free-running against an explicit
        // schedule at the *same floored starts* — the residual-absorption
        // cost carried by unslotted_total_overhead_pct is not gated.
        let reference = station_fixture(1.0, 0, true, 0.0);
        let fails = check_station(
            &reference,
            &station_fixture_unslotted(1.0, 0, true, 0.0, 11.3, 0),
        );
        assert_eq!(fails.len(), 1);
        assert!(fails[0].contains("online detection"), "{fails:?}");
    }

    #[test]
    fn station_gate_fails_on_unslotted_miscount() {
        let reference = station_fixture(1.0, 0, true, 0.0);
        let fails = check_station(
            &reference,
            &station_fixture_unslotted(1.0, 0, true, 0.0, 2.1, 4),
        );
        assert_eq!(fails.len(), 1);
        assert!(fails[0].contains("missed a slot"), "{fails:?}");
    }

    #[test]
    fn model_cfg_flag_appends_idempotently() {
        assert_eq!(with_model_cfg(""), "--cfg choir_model");
        assert_eq!(
            with_model_cfg("-D warnings"),
            "-D warnings --cfg choir_model"
        );
        assert_eq!(
            with_model_cfg("--cfg choir_model"),
            "--cfg choir_model",
            "must not duplicate the cfg"
        );
    }

    #[test]
    fn json_scanner_reads_exact_keys_only() {
        let s = station_fixture(2.5, 0, true, 1.0);
        // `slots_per_sec` must not match the `slots_per_sec_traced` key.
        assert_eq!(json_f64(&s, "slots_per_sec"), Some(2.5));
        assert_eq!(json_u64(&s, "nominal_shed"), Some(0));
        assert_eq!(json_bool(&s, "outputs_bit_identical"), Some(true));
        assert_eq!(json_f64(&s, "missing"), None);
        assert_eq!(json_bool(&s, "slots_per_sec"), None);
    }
}
