//! Metric names and units, the result of one run, and how it is printed:
//! every metric by name with its unit, the provenance block, and — last —
//! the one JSON line the driver reads.

use std::io::Write;

use crate::json::escape;

/// `(name, unit)` of every end-to-end metric, in `BENCHMARK.json` order.
/// An untraced run reports all of them.
pub const END_TO_END: [(&str, &str); 5] = [
    ("rtf", "air-s/s"),
    ("frame_delivery_ratio", "ratio"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Reported only on hosts with more than one core: on one core there is
/// no scaling to measure, and printing 1.0 would claim there was.
pub const PARALLEL_EFFICIENCY: &str = "pool.parallel_efficiency";

/// `(name, unit)` of every per-layer metric, in `BENCHMARK.json` order.
/// A traced run reports all of them; a layer a workload never enters
/// reports zero work.
pub const PER_LAYER: [(&str, &str); 66] = [
    ("station.push_chunk_s", "s"),
    ("station.push_chunk_p90_us", "us"),
    ("station.service_s", "s"),
    ("station.service_p50_ms", "ms"),
    ("station.service_p90_ms", "ms"),
    ("station.finish_s", "s"),
    ("station.slots_seen", "count"),
    ("station.slots_decoded", "count"),
    ("station.slots_empty", "count"),
    ("station.slots_shed", "count"),
    ("station.samples_dropped", "count"),
    ("station.degraded_decodes", "count"),
    ("station.max_queue_depth", "count"),
    ("station.hyp_born", "count"),
    ("station.hyp_confirmed", "count"),
    ("station.detect_useful_ratio", "ratio"),
    ("station.decode_useful_ratio", "ratio"),
    ("station.idle_ingest_msps", "Msample/s"),
    ("station.closed_loop_rtf", "air-s/s"),
    ("core.profile.dechirp_s", "s"),
    ("core.profile.refine_s", "s"),
    ("core.profile.demod_s", "s"),
    ("core.profile.sic_s", "s"),
    ("core.profile.cluster_s", "s"),
    ("core.profile.ingest_s", "s"),
    ("core.profile.detect_s", "s"),
    ("core.profile.unattributed_frac", "ratio"),
    ("core.estimator.coarse_us", "us"),
    ("core.estimator.refine_ms", "ms"),
    ("core.sic.phased_sic_ms", "ms"),
    ("core.sic.phases_mean", "count"),
    ("core.cluster.assign_us", "us"),
    ("core.decoder.discover_users_ms", "ms"),
    ("core.decoder.view_ms_p50", "ms"),
    ("phy.detect.scan_msps", "Msample/s"),
    ("phy.detect.windows_scanned", "count"),
    ("phy.modem.dechirp_us", "us"),
    ("phy.modem.demod_us_per_symbol", "us"),
    ("phy.frame.decode_us", "us"),
    ("dsp.fft.forward_256_us", "us"),
    ("dsp.fft.forward_padded_us", "us"),
    ("dsp.backend.tone_block_ns_per_cand", "ns"),
    ("dsp.backend.conj_dot_block_ns_per_cand", "ns"),
    ("dsp.backend.residual_block_ns_per_cand", "ns"),
    ("dsp.backend.axpy_256_ns", "ns"),
    ("dsp.linalg.cholesky_solve_k2_ns", "ns"),
    ("dsp.linalg.cholesky_solve_k5_ns", "ns"),
    ("pool.map_overhead_us", "us"),
    (PARALLEL_EFFICIENCY, "ratio"),
    ("city.run_city_s.aloha", "s"),
    ("city.run_city_s.slotted", "s"),
    ("city.run_city_s.choir", "s"),
    ("city.run_city_s.ss5g", "s"),
    ("city.gateway_ms_p50", "ms"),
    ("city.gateway_ms_p90", "ms"),
    ("city.offered", "count"),
    ("city.delivered", "count"),
    ("city.gwslots_per_s", "1/s"),
    ("oracle.frames_transmitted", "count"),
    ("oracle.frames_delivered", "count"),
    ("oracle.false_accepts", "count"),
    ("oracle.duplicates", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.events_recorded", "count"),
    ("trace.spans_recorded", "count"),
    ("trace.busy_s", "s"),
];

/// Named measurements a run collects before they are laid out.
#[derive(Default)]
pub struct Measured(Vec<(String, f64)>);

impl Measured {
    /// Records `name`; a later value for the same name replaces it.
    pub fn set(&mut self, name: &str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name.to_string(), value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// Everything one run of one workload produced.
pub struct Outcome {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Work items handed to the program.
    pub attempted: u64,
    /// Work items the program refused, shed or did not complete.
    pub failed: u64,
    /// Why the oracle rejected the run; empty when it passed.
    pub faults: Vec<String>,
    pub measured: Measured,
    /// Exact results and diagnostics outside the metric tables, printed
    /// by name and kept in the run record.
    pub details: Vec<(&'static str, String)>,
}

/// Where, on what and from what a result was produced.
pub struct Provenance {
    pub commit: String,
    pub host_cores: usize,
    pub cpu_features: String,
    pub dsp_backend: String,
    /// Workers every workload decodes or simulates on.
    pub work_threads: usize,
    /// Workers of the pool the traced runs probe.
    pub pool_probe_threads: usize,
    pub rustc: String,
}

impl Provenance {
    pub fn collect() -> Self {
        Provenance {
            commit: git_commit().unwrap_or_else(|| "unknown".to_string()),
            host_cores: host_cores(),
            cpu_features: cpu_features(),
            dsp_backend: choir_dsp::backend::active().name().to_string(),
            work_threads: 1,
            pool_probe_threads: pool_threads(),
            rustc: rustc_version().unwrap_or_else(|| "unknown".to_string()),
        }
    }

    fn fields(&self) -> [(&'static str, String); 7] {
        [
            ("commit", self.commit.clone()),
            ("host_cores", self.host_cores.to_string()),
            ("cpu_features", self.cpu_features.clone()),
            ("dsp_backend", self.dsp_backend.clone()),
            ("work_threads", self.work_threads.to_string()),
            ("pool_probe_threads", self.pool_probe_threads.to_string()),
            ("rustc", self.rustc.clone()),
        ]
    }
}

/// Cores this process may run on.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Workers of the pool the traced runs probe (`pool.map_overhead_us`,
/// `pool.parallel_efficiency`): sized for a small shared host, never more
/// than two. The workloads themselves run on one worker: on a shared
/// two-core host a second worker's speed is the neighbours', and it drifts
/// by a fifth over minutes — a pool is measured interleaved, not end to end.
pub fn pool_threads() -> usize {
    host_cores().min(2)
}

/// The checked-out commit, read from `.git` without running git; `None`
/// in an exported tree.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
}

fn rustc_version() -> Option<String> {
    let out = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn cpu_features() -> String {
    #[allow(unused_mut)]
    let mut found: Vec<&str> = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("sse4.2") {
            found.push("sse4.2");
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            found.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("fma") {
            found.push("fma");
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            found.push("avx512f");
        }
    }
    #[cfg(target_arch = "aarch64")]
    found.push("neon");
    format!("{} {}", std::env::consts::ARCH, found.join(" "))
        .trim()
        .to_string()
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

impl Outcome {
    /// The metrics the contract asks of this run, in table order, with
    /// their units. A per-layer metric the workload never touched is
    /// zero work; an end-to-end metric that is missing is a fault.
    pub fn laid_out(&mut self) -> Vec<(&'static str, f64, &'static str)> {
        let table: &[(&str, &str)] = if self.traced { &PER_LAYER } else { &END_TO_END };
        let mut rows = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            let value = match self.measured.get(name) {
                Some(v) if v.is_finite() => v,
                Some(_) => {
                    self.faults.push(format!("{name} is not a finite number"));
                    continue;
                }
                None if name == PARALLEL_EFFICIENCY && host_cores() == 1 => continue,
                None if self.traced => 0.0,
                None => {
                    self.faults.push(format!("{name} was not measured"));
                    continue;
                }
            };
            rows.push((name, value, unit));
        }
        rows
    }

    /// Prints the run and appends it to `<out_dir>/runs.jsonl`.
    pub fn publish(mut self, prov: &Provenance, out_dir: &std::path::Path) -> bool {
        let rows = self.laid_out();
        let correct = self.faults.is_empty();
        let mode = if self.traced { "traced" } else { "untraced" };
        println!(
            "# spine {} seed {} ({mode}, {} s)",
            self.workload, self.seed, self.seconds
        );
        for (name, value, unit) in &rows {
            println!("{name:<42} {value:>16.6} {unit}");
        }
        for (name, value) in &self.details {
            println!("{name:<42} {value}");
        }
        for (name, value) in prov.fields() {
            println!("provenance.{name:<31} {value}");
        }
        for fault in &self.faults {
            println!("ORACLE FAILURE: {fault}");
        }

        let metrics: Vec<String> = rows
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        let metrics = format!("{{{}}}", metrics.join(", "));
        let head = format!(
            "\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}",
            self.attempted.max(1),
            self.failed
        );
        let strings = |pairs: &[(&'static str, String)]| -> String {
            let items: Vec<String> = pairs
                .iter()
                .map(|(k, v)| format!("\"{k}\": \"{}\"", escape(v)))
                .collect();
            format!("{{{}}}", items.join(", "))
        };
        let record = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, {head}, \"details\": {}, \"provenance\": {}, \"faults\": [{}]}}\n",
            escape(&self.workload),
            self.seed,
            self.seconds,
            u8::from(self.traced),
            strings(&self.details),
            strings(&prov.fields()),
            self.faults
                .iter()
                .map(|f| format!("\"{}\"", escape(f)))
                .collect::<Vec<_>>()
                .join(", "),
        );
        let appended = std::fs::create_dir_all(out_dir).and_then(|()| {
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(out_dir.join("runs.jsonl"))
                .and_then(|mut f| f.write_all(record.as_bytes()))
        });
        if let Err(e) = appended {
            eprintln!("spine: could not record the run under {out_dir:?}: {e}");
        }
        println!("{{{head}}}");
        correct
    }
}
