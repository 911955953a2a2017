//! # xtask — workspace automation for Choir
//!
//! `cargo xtask lint` runs the Choir-specific static-analysis pass over
//! every `.rs` file in the workspace (zero external dependencies, no
//! network, no nightly components):
//!
//! * **unwrap** — no `unwrap()` / `expect()` / `panic!` / `todo!` /
//!   `unimplemented!` / `dbg!` in non-test library code;
//! * **f32** — no `f32` types or literals in `choir-dsp` / `choir-core`
//!   (the pipeline is all-`f64`);
//! * **float_cmp** — no `==` / `!=` against floating-point literals;
//! * **lossy_cast** — narrowing `as` casts in DSP hot paths need a
//!   justification marker;
//! * **missing_docs_gate** / **lints_inherit** — every library crate
//!   declares `#![deny(missing_docs)]` and inherits `[workspace.lints]`;
//! * **sync_facade** — thread/lock primitives go through `choir_sync`,
//!   never `std::thread` / `std::sync` directly (so the model checker
//!   can schedule them);
//! * **atomic_ordering** — every `Ordering::X` argument carries a
//!   same-line `// ordering:` justification;
//! * **lock_scope** — no `.lock()` while another `let`-bound guard is
//!   still in scope, unless the nesting carries a lock-order argument;
//! * **hot_libm** — a `hot:noalloc` function in `choir-dsp` /
//!   `choir-core` calls no libm phasor (`C64::cis(`, `symbol_sample(`);
//! * **simd_boundary** — `unsafe` and `std::arch` / `core::arch`
//!   intrinsics are confined to `crates/choir-dsp/src/backend/`
//!   (`avx2.rs` is the single file there that contains `unsafe`); the
//!   rest of the workspace stays safe Rust dispatching through the
//!   backend facade.
//! * **design_names** — every backticked path, `CamelCase` or
//!   `SCREAMING_CASE` name in DESIGN.md names a word of some `.rs` file
//!   under `crates/` or `spine/`, or is listed in its "Removed" table
//!   (see the [`design`] module).
//!
//! Violations are suppressed inside `#[cfg(test)]` scope, or with a
//! `// lint:allow(<rule>) — <reason>` comment on the site's line or the
//! line above (the reason is mandatory).
//!
//! `cargo xtask selftest` feeds deliberately planted violations through
//! the engine and fails if any escape — the lint linting itself.
//!
//! `cargo xtask ci <model-check | perf <base-rev> | drift <base-rev>>`
//! runs one of the repository's three merge gates (the schedule-explored
//! concurrency suites; spine same-seed pairs against a base revision;
//! the float-drift comparison against it) as a single tested command —
//! see the [`ci`] module.

mod ci;
mod design;
mod drift;
mod rules;
mod scan;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(),
        Some("selftest") => selftest(),
        Some("ci") => ci::run(&args[1..]),
        _ => {
            eprintln!("usage: cargo xtask <lint|selftest|ci>");
            eprintln!("  lint      run the Choir static-analysis pass over the workspace");
            eprintln!("  selftest  verify the lint engine catches planted violations");
            eprintln!(
                "  ci        run a merge gate (model-check, perf <base-rev>, drift <base-rev>)"
            );
            ExitCode::from(2)
        }
    }
}

/// Workspace root: two levels up from this crate's manifest.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or(manifest)
}

/// Collects every workspace `.rs` file, skipping build output and VCS dirs.
fn rust_sources(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name.starts_with('.') {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

fn lint() -> ExitCode {
    let root = workspace_root();
    let mut violations = Vec::new();
    let mut files = 0usize;
    let mut words = std::collections::HashSet::new();

    for path in rust_sources(&root) {
        let rel = path
            .strip_prefix(&root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let Ok(src) = std::fs::read_to_string(&path) else {
            continue;
        };
        files += 1;
        if rel.starts_with("crates/") || rel.starts_with("spine/") {
            words.extend(design::words(&src).map(str::to_string));
        }
        let file = scan::SourceFile::new(&rel, &src);
        violations.extend(rules::check_file(&file));
    }
    if let Ok(doc) = std::fs::read_to_string(root.join("DESIGN.md")) {
        violations.extend(design::check("DESIGN.md", &doc, &words));
    }

    // Per-crate gates: doc coverage is a hard deny, and every crate
    // inherits the workspace lint table.
    let mut crate_dirs: Vec<(String, PathBuf)> = vec![(".".to_string(), root.clone())];
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for entry in entries.flatten() {
            if entry.path().is_dir() {
                let rel = format!("crates/{}", entry.file_name().to_string_lossy());
                crate_dirs.push((rel, entry.path()));
            }
        }
    }
    crate_dirs.sort();
    for (rel, dir) in crate_dirs {
        let lib = std::fs::read_to_string(dir.join("src/lib.rs")).ok();
        let Ok(manifest) = std::fs::read_to_string(dir.join("Cargo.toml")) else {
            continue;
        };
        violations.extend(rules::check_crate_gates(&rel, lib.as_deref(), &manifest));
    }

    violations.sort_by(|a, b| (&a.path, a.line, a.col).cmp(&(&b.path, b.line, b.col)));
    for v in &violations {
        println!("{v}");
    }
    if violations.is_empty() {
        println!("xtask lint: clean — {files} files, 0 violations");
        ExitCode::SUCCESS
    } else {
        println!(
            "xtask lint: {} violation(s) in {files} files",
            violations.len()
        );
        ExitCode::FAILURE
    }
}

/// Runs planted-violation snippets through the engine: every plant must be
/// caught, every clean snippet must stay clean.
fn selftest() -> ExitCode {
    // (path the snippet pretends to live at, source, rules expected)
    let plants: &[(&str, &str, &[&str])] = &[
        (
            "crates/choir-dsp/src/planted.rs",
            "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n",
            &["unwrap"],
        ),
        (
            "crates/choir-dsp/src/planted.rs",
            "pub fn dechirp(x: f32) -> f64 { x as f64 }\n",
            &["f32"],
        ),
        (
            "crates/choir-core/src/planted.rs",
            "pub fn f() { panic!(\"peak list empty\"); }\n",
            &["unwrap"],
        ),
        (
            "crates/choir-mac/src/planted.rs",
            "pub fn f(x: f64) -> bool { x == 0.3 }\n",
            &["float_cmp"],
        ),
        (
            "crates/choir-dsp/src/planted.rs",
            "pub fn f(x: f64) -> u16 { x as u16 }\n",
            &["lossy_cast"],
        ),
        (
            "crates/choir-dsp/src/planted.rs",
            "#[cfg(test)]\nmod tests { fn f(x: Option<u8>) -> u8 { x.unwrap() } }\n",
            &[],
        ),
        (
            "crates/choir-core/src/planted.rs",
            "// hot:noalloc — per-candidate refine kernel\npub fn eval(x: &[u8]) -> Vec<u8> { x.to_vec() }\n",
            &["hot_noalloc"],
        ),
        (
            "crates/choir-core/src/planted.rs",
            "// hot:noalloc — per-candidate refine kernel\npub fn eval(x: &mut [u8]) { x[0] = 1; }\npub fn setup(x: &[u8]) -> Vec<u8> { x.to_vec() }\n",
            &[],
        ),
        // The decoder's stage files live one directory down; the
        // directory-scoped rules must still reach them.
        (
            "crates/choir-core/src/decoder/planted.rs",
            "// hot:noalloc — comb demodulation\nfn comb_demod(x: &[u8]) -> Vec<u8> { x.to_vec() }\n",
            &["hot_noalloc"],
        ),
        (
            "crates/choir-core/src/decoder/planted.rs",
            "// hot:noalloc — subtraction\nfn template(t: &mut [C64], w: f64) { t[0] = C64::cis(w); }\n",
            &["hot_libm"],
        ),
        (
            "crates/choir-dsp/src/planted.rs",
            "pub fn f(x: Option<u8>) -> u8 {\n    // lint:allow(unwrap) — caller guarantees Some\n    x.unwrap()\n}\n",
            &[],
        ),
        (
            "crates/choir-core/src/planted.rs",
            "pub fn f() -> Result<(), DecodeError> {\n    Err(DecodeError::NoUsersFound)\n}\n",
            &["trace_event"],
        ),
        (
            "crates/choir-core/src/planted.rs",
            "pub fn f() -> Result<(), DecodeError> {\n    Err(DecodeError::NoUsersFound.traced())\n}\n",
            &[],
        ),
        (
            "crates/choir-station/src/planted.rs",
            "pub fn f() { std::thread::spawn(|| ()); }\n",
            &["sync_facade"],
        ),
        (
            "crates/choir-core/src/planted.rs",
            "use std::sync::Arc;\nuse choir_sync::Mutex;\npub fn f(x: Arc<u8>) -> u8 { *x }\n",
            &[],
        ),
        (
            "crates/choir-pool/src/planted.rs",
            "pub fn f(c: &AtomicU64) -> u64 { c.fetch_add(1, Ordering::Relaxed) }\n",
            &["atomic_ordering"],
        ),
        (
            "crates/choir-pool/src/planted.rs",
            "pub fn f(c: &AtomicU64) -> u64 { c.fetch_add(1, Ordering::Relaxed) } // ordering: counter only needs uniqueness\n",
            &[],
        ),
        (
            "crates/choir-mac/src/planted.rs",
            "pub fn f(a: &Mutex<u8>, b: &Mutex<u8>) -> u8 {\n    let g = a.lock();\n    let h = b.lock();\n    *g + *h\n}\n",
            &["lock_scope"],
        ),
        (
            "crates/choir-mac/src/planted.rs",
            "pub fn f(a: &Mutex<u8>, b: &Mutex<u8>) -> u8 {\n    let g = a.lock();\n    // lint:allow(lock_scope) — a always precedes b, see module docs\n    let h = b.lock();\n    *g + *h\n}\n",
            &[],
        ),
        (
            "crates/choir-core/src/planted.rs",
            "pub fn f(p: *const u8) -> u8 { unsafe { *p } }\n",
            &["simd_boundary"],
        ),
        (
            "crates/choir-core/src/planted.rs",
            "use std::arch::x86_64::_mm256_add_pd;\n",
            &["simd_boundary"],
        ),
        (
            "crates/choir-dsp/src/backend/planted.rs",
            "use core::arch::x86_64::_mm256_add_pd;\npub fn f(p: *const u8) -> u8 { unsafe { *p } }\n",
            &[],
        ),
    ];
    let mut failures = 0usize;
    for (i, (path, src, expected)) in plants.iter().enumerate() {
        let file = scan::SourceFile::new(path, src);
        let got: Vec<&str> = rules::check_file(&file).iter().map(|v| v.rule).collect();
        if got != *expected {
            eprintln!("selftest plant #{i} FAILED: expected {expected:?}, got {got:?}");
            failures += 1;
        }
    }
    // DESIGN.md against the sources: a name that left the tree is caught
    // unless the Removed table lists it.
    let words = design::words("pub struct GramFit; impl GramFit { pub fn eval() {} }")
        .map(str::to_string)
        .collect();
    let doc = "`GramFit::eval` replaced `GramFit::probe` and `StepScan`.\n\n\
               | Removed | PR |\n|---|---|\n| `StepScan` | 29 |\n";
    let got: Vec<String> = design::check("DESIGN.md", doc, &words)
        .iter()
        .map(|v| format!("{}:{}:{}", v.rule, v.line, v.col))
        .collect();
    if got != ["design_names:1:26"] {
        eprintln!("selftest design plant FAILED: expected [\"design_names:1:26\"], got {got:?}");
        failures += 1;
    }
    if failures == 0 {
        println!("xtask selftest: all {} plants behaved", plants.len() + 1);
        ExitCode::SUCCESS
    } else {
        eprintln!("xtask selftest: {failures} plant(s) misbehaved");
        ExitCode::FAILURE
    }
}
