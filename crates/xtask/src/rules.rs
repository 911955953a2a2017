//! The Choir-specific lint rules.
//!
//! Each rule scans the preprocessed [`SourceFile`] views from
//! [`crate::scan`] and yields [`Violation`]s. A site can be exempted with
//! a comment marker on the same line or the line above:
//!
//! ```text
//! let n = peaks.first().unwrap(); // lint:allow(unwrap) — peaks checked non-empty above
//! ```
//!
//! The marker requires a reason (at least a few words); a bare
//! `lint:allow(rule)` does not count.

use crate::scan::SourceFile;

/// One rule violation, ready to print as `path:line:col: rule: message`.
#[derive(Debug)]
pub struct Violation {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// Rule identifier (the `lint:allow(...)` key).
    pub rule: &'static str,
    /// Human-readable description of the site.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.path, self.line, self.col, self.rule, self.message
        )
    }
}

/// Crates whose `src/` is considered DSP hot-path code: the all-`f64`
/// invariant and the lossy-cast marker requirement apply here.
const DSP_CRATES: [&str; 2] = ["crates/choir-dsp/", "crates/choir-core/"];

/// True for files the panic-free rule covers: library sources, excluding
/// integration tests, benches, examples and the xtask binary itself.
fn is_library_source(path: &str) -> bool {
    let in_lib_tree = path.starts_with("src/") || {
        path.starts_with("crates/") && path.contains("/src/") && !path.starts_with("crates/xtask/")
    };
    in_lib_tree && !path.contains("/bin/")
}

/// True for files inside the DSP hot-path crates.
fn is_dsp_source(path: &str) -> bool {
    DSP_CRATES.iter().any(|c| path.starts_with(c)) && path.contains("/src/")
}

/// Is `code[i]` the start of token `tok` on an identifier boundary?
/// The preceding character may be a digit (so `1.0f32` still matches
/// `f32`) but not a letter or `_`; the following character must not
/// continue an identifier.
fn token_at(code: &str, i: usize, tok: &str) -> bool {
    let bytes = code.as_bytes();
    if !code[i..].starts_with(tok) {
        return false;
    }
    if i > 0 {
        let p = bytes[i - 1];
        if p.is_ascii_alphabetic() || p == b'_' {
            return false;
        }
    }
    match bytes.get(i + tok.len()) {
        Some(&n) => !(n.is_ascii_alphanumeric() || n == b'_'),
        None => true,
    }
}

/// True for files inside the `choir-sync` facade crate, which is exempt
/// from the concurrency-discipline rules: it is the one place that wraps
/// the std primitives, and its model scheduler necessarily holds its own
/// state lock across condvar waits.
fn is_sync_facade_source(path: &str) -> bool {
    path.starts_with("crates/choir-sync/")
}

/// Runs every rule over one file.
pub fn check_file(f: &SourceFile) -> Vec<Violation> {
    let mut out = Vec::new();
    no_panics(f, &mut out);
    no_f32(f, &mut out);
    no_float_eq(f, &mut out);
    no_lossy_casts(f, &mut out);
    no_hot_allocs(f, &mut out);
    no_hot_libm(f, &mut out);
    trace_event(f, &mut out);
    sync_facade(f, &mut out);
    atomic_ordering(f, &mut out);
    lock_scope(f, &mut out);
    simd_boundary(f, &mut out);
    out
}

fn push(
    f: &SourceFile,
    out: &mut Vec<Violation>,
    offset: usize,
    rule: &'static str,
    message: String,
) {
    if f.in_test(offset) || f.allowed(offset, rule) {
        return;
    }
    let (line, col) = f.line_col(offset);
    out.push(Violation {
        path: f.path.clone(),
        line,
        col,
        rule,
        message,
    });
}

/// Rule `unwrap`: no `unwrap()` / `expect()` / `panic!` / `todo!` /
/// `unimplemented!` / `dbg!` in non-test library code. A single NaN or
/// empty peak list must surface as a `Result`, not abort symbol decoding.
fn no_panics(f: &SourceFile, out: &mut Vec<Violation>) {
    if !is_library_source(&f.path) {
        return;
    }
    const NEEDLES: [(&str, &str); 6] = [
        (
            ".unwrap()",
            "`.unwrap()` in library code — return a Result or justify with lint:allow",
        ),
        (
            ".expect(",
            "`.expect()` in library code — return a Result or justify with lint:allow",
        ),
        (
            "panic!",
            "`panic!` in library code — return an error or use debug_assert!",
        ),
        ("todo!", "`todo!` in library code"),
        ("unimplemented!", "`unimplemented!` in library code"),
        ("dbg!", "`dbg!` left in library code"),
    ];
    for (needle, msg) in NEEDLES {
        let mut search = 0usize;
        while let Some(rel) = f.code[search..].find(needle) {
            let at = search + rel;
            search = at + needle.len();
            // Identifier boundary on the left: `.unwrap()` needles start
            // with '.', macro needles must not be a suffix (e.g.
            // `prop_assert_panic!`) or a path segment (`std::panic!` still
            // counts, `core::panicking` has no '!').
            if !needle.starts_with('.') {
                let prev = f.code.as_bytes().get(at.wrapping_sub(1)).copied();
                if let Some(p) = prev {
                    if p.is_ascii_alphanumeric() || p == b'_' {
                        continue;
                    }
                }
            }
            push(f, out, at, "unwrap", msg.to_string());
        }
    }
}

/// Rule `f32`: the DSP pipeline is all-`f64`; any `f32` type or literal
/// suffix in `choir-dsp`/`choir-core` is a silent precision downgrade.
fn no_f32(f: &SourceFile, out: &mut Vec<Violation>) {
    if !is_dsp_source(&f.path) {
        return;
    }
    let mut search = 0usize;
    while let Some(rel) = f.code[search..].find("f32") {
        let at = search + rel;
        search = at + 3;
        if token_at(&f.code, at, "f32") {
            push(
                f,
                out,
                at,
                "f32",
                "`f32` in the all-f64 DSP pipeline — silent precision downgrade".to_string(),
            );
        }
    }
}

/// Extracts the token immediately before byte `i` (skipping spaces),
/// walking over identifier/number characters and `.`.
fn token_before(code: &str, mut i: usize) -> &str {
    let bytes = code.as_bytes();
    while i > 0 && bytes[i - 1] == b' ' {
        i -= 1;
    }
    let end = i;
    while i > 0 {
        let b = bytes[i - 1];
        let exp_sign = (b == b'-' || b == b'+') && i >= 2 && matches!(bytes[i - 2], b'e' | b'E');
        if b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || exp_sign {
            i -= 1;
        } else {
            break;
        }
    }
    &code[i..end]
}

/// Extracts the token immediately after byte `i` (skipping spaces and a
/// leading sign).
fn token_after(code: &str, mut i: usize) -> &str {
    let bytes = code.as_bytes();
    while i < bytes.len() && bytes[i] == b' ' {
        i += 1;
    }
    if i < bytes.len() && (bytes[i] == b'-' || bytes[i] == b'+') {
        i += 1;
    }
    let start = i;
    while i < bytes.len() {
        let b = bytes[i];
        if b.is_ascii_alphanumeric() || b == b'_' || b == b'.' {
            i += 1;
        } else {
            break;
        }
    }
    &code[start..i]
}

/// Does `tok` look like a floating-point literal (`0.5`, `1e-9`, `2f64`)?
fn is_float_literal(tok: &str) -> bool {
    let t = tok.trim_end_matches("f64").trim_end_matches("f32");
    if t.is_empty() || !t.starts_with(|c: char| c.is_ascii_digit()) {
        return false;
    }
    let has_dot = t.contains('.');
    let has_exp = t.len() != tok.len() // had an explicit float suffix
        || t.bytes().any(|b| b == b'e' || b == b'E');
    (has_dot || has_exp)
        && t.bytes()
            .all(|b| b.is_ascii_digit() || b"._eE+-".contains(&b))
}

/// Rule `float_cmp`: `==` / `!=` against a floating-point literal. Exact
/// float equality silently breaks under accumulated rounding; compare
/// against a tolerance instead (or justify — e.g. comparing against a
/// sentinel that is assigned, never computed).
fn no_float_eq(f: &SourceFile, out: &mut Vec<Violation>) {
    if !is_library_source(&f.path) {
        return;
    }
    let bytes = f.code.as_bytes();
    for i in 0..bytes.len().saturating_sub(1) {
        let two = &f.code[i..i + 2];
        if two != "==" && two != "!=" {
            continue;
        }
        // Not part of `<=` `>=` `===`-ish runs or `=>`/`=`:
        if i > 0 && b"=!<>+-*/%&|^".contains(&bytes[i - 1]) {
            continue;
        }
        if bytes.get(i + 2) == Some(&b'=') {
            continue;
        }
        let lhs = token_before(&f.code, i);
        let rhs = token_after(&f.code, i + 2);
        if is_float_literal(lhs) || is_float_literal(rhs) {
            push(
                f,
                out,
                i,
                "float_cmp",
                format!("floating-point `{two}` against literal — use a tolerance"),
            );
        }
    }
}

/// Rule `lossy_cast`: in DSP hot paths, `as` casts to a narrower numeric
/// type (`f32`, sub-64-bit integers) silently truncate; each one needs a
/// `lint:allow(lossy_cast)` marker explaining why the range is safe.
fn no_lossy_casts(f: &SourceFile, out: &mut Vec<Violation>) {
    if !is_dsp_source(&f.path) {
        return;
    }
    const NARROW: [&str; 7] = ["f32", "u8", "u16", "u32", "i8", "i16", "i32"];
    let mut search = 0usize;
    while let Some(rel) = f.code[search..].find(" as ") {
        let at = search + rel;
        search = at + 4;
        let target = token_after(&f.code, at + 4);
        if NARROW.contains(&target) {
            push(
                f,
                out,
                at + 4,
                "lossy_cast",
                format!("lossy `as {target}` cast in DSP hot path — mark with lint:allow(lossy_cast) and justify the range"),
            );
        }
    }
}

/// Returns the offset of the `{` opening the body of the first `fn`
/// declared at or after `from` in the code view, if any. Skips braces that
/// appear before the `fn` keyword (e.g. in `#[cfg(...)]` attributes).
fn fn_body_open(code: &str, from: usize) -> Option<usize> {
    let mut search = from;
    let fn_at = loop {
        let rel = code[search..].find("fn")?;
        let at = search + rel;
        search = at + 2;
        if token_at(code, at, "fn") {
            break at;
        }
    };
    code[fn_at..].find('{').map(|r| fn_at + r)
}

/// Returns the offset one past the `}` matching the `{` at `open`.
fn brace_close(code: &str, open: usize) -> Option<usize> {
    let mut depth = 0i64;
    for (k, b) in code.bytes().enumerate().skip(open) {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(k + 1);
                }
            }
            _ => {}
        }
    }
    None
}

/// Flags every `needle` under `rule` inside the body of each function a
/// hot-path comment marker annotates (see [`no_hot_allocs`]). Needles
/// that do not start with `.` need an identifier boundary on their left,
/// so `my_vec!` / `SmallVec::new`-style idents don't match (a
/// path-qualified `std::vec::Vec::new` still does).
fn in_hot_bodies(
    f: &SourceFile,
    out: &mut Vec<Violation>,
    rule: &'static str,
    needles: &[(&str, &str)],
) {
    let mut marker = 0usize;
    while let Some(rel) = f.comments[marker..].find("hot:noalloc") {
        let at = marker + rel;
        marker = at + "hot:noalloc".len();
        let Some(open) = fn_body_open(&f.code, marker) else {
            continue;
        };
        let Some(close) = brace_close(&f.code, open) else {
            continue;
        };
        for &(needle, msg) in needles {
            let mut search = open;
            while let Some(rel) = f.code[search..close].find(needle) {
                let hit = search + rel;
                search = hit + needle.len();
                if !needle.starts_with('.') {
                    let prev = f.code.as_bytes().get(hit.wrapping_sub(1)).copied();
                    if let Some(p) = prev {
                        if p.is_ascii_alphanumeric() || p == b'_' {
                            continue;
                        }
                    }
                }
                push(f, out, hit, rule, msg.to_string());
            }
        }
    }
}

/// Rule `hot_noalloc`: a `hot:noalloc` comment marker annotates the next
/// function as a steady-state hot-path kernel — the per-candidate refine
/// loop runs it thousands of times per slot, so any per-call heap
/// allocation (`Vec::new`, `vec!`, `.clone()`, `.to_vec()`) melts the
/// allocation-free guarantee the offset-search rewrite established. Scratch
/// must come from the caller, a `choir_dsp::workspace` checkout, or a
/// reused field.
fn no_hot_allocs(f: &SourceFile, out: &mut Vec<Violation>) {
    in_hot_bodies(
        f,
        out,
        "hot_noalloc",
        &[
            (
                "Vec::new",
                "`Vec::new` inside a hot:noalloc function — take scratch from the workspace arena",
            ),
            (
                "vec!",
                "`vec!` inside a hot:noalloc function — take scratch from the workspace arena",
            ),
            (
                ".clone()",
                "`.clone()` inside a hot:noalloc function — borrow or reuse a buffer instead",
            ),
            (
                ".to_vec()",
                "`.to_vec()` inside a hot:noalloc function — borrow or reuse a buffer instead",
            ),
        ],
    );
}

/// Rule `hot_libm`: a `hot:noalloc` function in `choir-dsp`/`choir-core`
/// evaluates no libm phasor per sample — no `C64::cis(` and no
/// `symbol_sample(` (one libm `cis` a call). A waveform is a table times
/// a tone (`tone_into` on the deterministic sincos kernel), a spectrum a
/// transform; a per-sample libm call there is what the subtraction leaves
/// spent a third of a slot on.
fn no_hot_libm(f: &SourceFile, out: &mut Vec<Violation>) {
    if !is_dsp_source(&f.path) {
        return;
    }
    in_hot_bodies(
        f,
        out,
        "hot_libm",
        &[
            (
                "C64::cis(",
                "libm `C64::cis` inside a hot:noalloc function — build the phasor from a table and `tone_into`",
            ),
            (
                "symbol_sample(",
                "libm `symbol_sample` inside a hot:noalloc function — a chirp is the base up-chirp's table times a tone",
            ),
        ],
    );
}

/// Rule `trace_event`: every `DecodeError` *construction* in library code
/// must emit its provenance — call `.traced()` on the fresh value within
/// the same statement — or carry a `lint:allow(trace_event)` marker.
/// `DecodeError::traced()` is the one blessed emission point for the
/// `decode_failed` trace event, so this rule is what keeps the flight
/// recorder in lockstep with the typed error surface: a new error path
/// cannot silently skip the log.
///
/// Pattern positions are not origination sites and are skipped: match
/// arms (`=>` after the variant), rest patterns (`..` inside the field
/// braces, as in `DecodeError::Frame { .. }`), and `==`/`!=` comparisons
/// against an error that already exists.
fn trace_event(f: &SourceFile, out: &mut Vec<Violation>) {
    if !is_library_source(&f.path) {
        return;
    }
    const NEEDLE: &str = "DecodeError::";
    let bytes = f.code.as_bytes();
    let mut search = 0usize;
    while let Some(rel) = f.code[search..].find(NEEDLE) {
        let at = search + rel;
        search = at + NEEDLE.len();
        // Identifier boundary on the left (`MyDecodeError::` is not ours).
        if at > 0 {
            let p = bytes[at - 1];
            if p.is_ascii_alphanumeric() || p == b'_' {
                continue;
            }
        }
        // Comparisons test an error that already exists.
        let mut b = at;
        while b > 0 && bytes[b - 1] == b' ' {
            b -= 1;
        }
        if f.code[..b].ends_with("==") || f.code[..b].ends_with("!=") {
            continue;
        }
        // Walk past the variant name and an optional `{ ... }` field block.
        let mut rest = at + NEEDLE.len();
        while rest < bytes.len() && (bytes[rest].is_ascii_alphanumeric() || bytes[rest] == b'_') {
            rest += 1;
        }
        while rest < bytes.len() && bytes[rest].is_ascii_whitespace() {
            rest += 1;
        }
        let mut is_pattern = false;
        if bytes.get(rest) == Some(&b'{') {
            let Some(close) = brace_close(&f.code, rest) else {
                continue;
            };
            // A rest pattern in the field block means a match/if-let
            // pattern, not a construction.
            if f.code[rest..close].contains("..") {
                is_pattern = true;
            }
            rest = close;
            while rest < bytes.len() && bytes[rest].is_ascii_whitespace() {
                rest += 1;
            }
        }
        if f.code[rest..].starts_with("=>") {
            is_pattern = true;
        }
        if is_pattern {
            continue;
        }
        // A construction: `.traced()` must follow before the statement ends.
        let stmt_end = f.code[rest..]
            .find(';')
            .map(|r| rest + r)
            .unwrap_or(f.code.len());
        if !f.code[rest..stmt_end].contains(".traced(") {
            push(
                f,
                out,
                at,
                "trace_event",
                "`DecodeError` constructed without `.traced()` — emit the decode_failed trace event at the origination site".to_string(),
            );
        }
    }
}

/// Rule `sync_facade`: library code must reach thread and lock
/// primitives through the `choir_sync` facade, never `std` directly —
/// otherwise the operation is invisible to the model checker and the
/// schedule explorer silently under-covers it. `std::sync::Arc` (and
/// `mpsc`) stay legal: the facade wraps schedulable *blocking/ordering*
/// primitives, not reference counting.
fn sync_facade(f: &SourceFile, out: &mut Vec<Violation>) {
    if !is_library_source(&f.path) || is_sync_facade_source(&f.path) {
        return;
    }
    const NEEDLES: [&str; 9] = [
        "std::thread",
        "std::sync::Mutex",
        "std::sync::MutexGuard",
        "std::sync::RwLock",
        "std::sync::Condvar",
        "std::sync::Once",
        "std::sync::OnceLock",
        "std::sync::Barrier",
        "std::sync::atomic",
    ];
    for needle in NEEDLES {
        let mut search = 0usize;
        while let Some(rel) = f.code[search..].find(needle) {
            let at = search + rel;
            search = at + needle.len();
            if !token_at(&f.code, at, needle) {
                continue; // e.g. `std::sync::Once` inside `OnceLock`
            }
            push(
                f,
                out,
                at,
                "sync_facade",
                format!(
                    "direct `{needle}` in library code — go through the `choir_sync` facade so the model checker can schedule it"
                ),
            );
        }
    }
    // `core::sync::atomic` is the same primitive under another path.
    let mut search = 0usize;
    while let Some(rel) = f.code[search..].find("core::sync::atomic") {
        let at = search + rel;
        search = at + "core::sync::atomic".len();
        push(
            f,
            out,
            at,
            "sync_facade",
            "direct `core::sync::atomic` in library code — go through the `choir_sync` facade so the model checker can schedule it"
                .to_string(),
        );
    }
}

/// Rule `atomic_ordering`: every memory-ordering argument
/// (`Ordering::Relaxed` … `Ordering::SeqCst`) in library code needs a
/// same-line `// ordering:` comment justifying why that strength is
/// sufficient. Orderings are the one part of concurrent code the model
/// checker cannot exercise (it explores schedules under sequential
/// consistency), so the justification carries the weakening argument
/// that the tests cannot.
fn atomic_ordering(f: &SourceFile, out: &mut Vec<Violation>) {
    if !is_library_source(&f.path) || is_sync_facade_source(&f.path) {
        return;
    }
    const VARIANTS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];
    const NEEDLE: &str = "Ordering::";
    let mut search = 0usize;
    while let Some(rel) = f.code[search..].find(NEEDLE) {
        let at = search + rel;
        search = at + NEEDLE.len();
        // `std::cmp::Ordering` is a different enum entirely.
        if f.code[..at].ends_with("cmp::") {
            continue;
        }
        let variant = token_after(&f.code, at + NEEDLE.len());
        if !VARIANTS.contains(&variant) {
            continue;
        }
        if f.comment_on_line_of(at).contains("ordering:") {
            continue;
        }
        push(
            f,
            out,
            at,
            "atomic_ordering",
            format!(
                "`Ordering::{variant}` without a same-line `// ordering:` justification — state why this strength suffices"
            ),
        );
    }
}

/// Rule `lock_scope`: taking a lock while a `let`-bound lock guard is
/// still in scope nests critical sections, which is how lock-ordering
/// deadlocks are born. Deliberate nesting (e.g. the trace registry→ring
/// hierarchy) carries a `lint:allow(lock_scope)` marker naming the order
/// argument. The scan is lexical: it tracks guards bound by a
/// `let … = ….lock(…);` statement until the end of their enclosing
/// block, and flags any further `.lock(` inside that span (an early
/// `drop(guard)` does not end the span — restructure into narrower
/// scopes instead).
fn lock_scope(f: &SourceFile, out: &mut Vec<Violation>) {
    if !is_library_source(&f.path) || is_sync_facade_source(&f.path) {
        return;
    }
    const NEEDLE: &str = ".lock(";
    // Offsets of every `.lock(` call, plus which are `let`-bound guards.
    let mut sites: Vec<usize> = Vec::new();
    let mut search = 0usize;
    while let Some(rel) = f.code[search..].find(NEEDLE) {
        let at = search + rel;
        search = at + NEEDLE.len();
        sites.push(at);
    }
    let mut flagged: Vec<usize> = Vec::new();
    for &at in &sites {
        // A guard binding: the site's own line starts with `let` (the
        // guard then lives to the end of the enclosing block).
        let line_start = f.code[..at].rfind('\n').map_or(0, |p| p + 1);
        let line = f.code[line_start..at].trim_start();
        if !(line.starts_with("let ") && line.contains('=')) {
            continue;
        }
        // The binding statement ends at the first `;` at brace depth 0
        // (closure bodies inside the initialiser stay balanced).
        let bytes = f.code.as_bytes();
        let mut depth = 0i64;
        let mut stmt_end = f.code.len();
        let mut scope_end = f.code.len();
        for (k, &b) in bytes.iter().enumerate().skip(at) {
            match b {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth < 0 {
                        scope_end = k;
                        break;
                    }
                }
                b';' if depth == 0 && stmt_end == f.code.len() => stmt_end = k,
                _ => {}
            }
        }
        for &inner in &sites {
            if inner > stmt_end && inner < scope_end && !flagged.contains(&inner) {
                flagged.push(inner);
                let (outer_line, _) = f.line_col(at);
                push(
                    f,
                    out,
                    inner,
                    "lock_scope",
                    format!(
                        "`.lock()` while the guard bound on line {outer_line} is still held — nested critical sections need a lint:allow(lock_scope) lock-order argument"
                    ),
                );
            }
        }
    }
}

/// The one directory where `unsafe` and CPU intrinsics are sanctioned.
/// `avx2.rs` is the single file in it that contains `unsafe`; `mod.rs`
/// keeps only the `is_x86_feature_detected!` probe. The safety argument
/// (runtime feature detection before dispatch, slice-bounded pointer
/// arithmetic) lives in `choir_dsp::backend`'s module docs.
const SIMD_BOUNDARY: &str = "crates/choir-dsp/src/backend/";

/// Rule `simd_boundary`: the `unsafe`, `std::arch` and `core::arch`
/// tokens are banned in library code outside [`SIMD_BOUNDARY`]. The
/// workspace already denies `unsafe_code` via rustc, but that lint can
/// be re-allowed by any inner attribute; this rule pins *where* such an
/// attribute may appear, so the trusted surface cannot quietly spread
/// beyond the one backend leaf file reviewers audit.
fn simd_boundary(f: &SourceFile, out: &mut Vec<Violation>) {
    if !is_library_source(&f.path) || f.path.starts_with(SIMD_BOUNDARY) {
        return;
    }
    let mut search = 0usize;
    while let Some(rel) = f.code[search..].find("unsafe") {
        let at = search + rel;
        search = at + "unsafe".len();
        if !token_at(&f.code, at, "unsafe") {
            continue;
        }
        push(
            f,
            out,
            at,
            "simd_boundary",
            format!(
                "`unsafe` outside the sanctioned SIMD boundary ({SIMD_BOUNDARY}) — keep the trusted surface in the backend leaf"
            ),
        );
    }
    for needle in ["std::arch", "core::arch"] {
        let mut search = 0usize;
        while let Some(rel) = f.code[search..].find(needle) {
            let at = search + rel;
            search = at + needle.len();
            push(
                f,
                out,
                at,
                "simd_boundary",
                format!(
                    "`{needle}` outside the sanctioned SIMD boundary ({SIMD_BOUNDARY}) — intrinsics belong in the backend leaf"
                ),
            );
        }
    }
}

/// Rule `missing_docs_gate` + `lints_inherit`: every library crate must
/// hard-deny missing docs and inherit the workspace lint table. Returns
/// violations with pseudo-positions (line 1).
pub fn check_crate_gates(
    crate_dir: &str,
    lib_rs: Option<&str>,
    cargo_toml: &str,
) -> Vec<Violation> {
    let mut out = Vec::new();
    if let Some(lib) = lib_rs {
        if !lib.contains("#![deny(missing_docs)]") {
            out.push(Violation {
                path: format!("{crate_dir}/src/lib.rs"),
                line: 1,
                col: 1,
                rule: "missing_docs_gate",
                message: "library crate must declare `#![deny(missing_docs)]`".to_string(),
            });
        }
    }
    let has_inherit = cargo_toml
        .split("[lints]")
        .nth(1)
        .is_some_and(|after| after.trim_start().starts_with("workspace = true"));
    if !has_inherit {
        out.push(Violation {
            path: format!("{crate_dir}/Cargo.toml"),
            line: 1,
            col: 1,
            rule: "lints_inherit",
            message: "crate must inherit the workspace lint table (`[lints]\\nworkspace = true`)"
                .to_string(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::SourceFile;

    fn violations(path: &str, src: &str) -> Vec<String> {
        let f = SourceFile::new(path, src);
        check_file(&f).iter().map(|v| v.rule.to_string()).collect()
    }

    #[test]
    fn planted_unwrap_is_caught() {
        // The acceptance-criteria self-test: a deliberately planted
        // `unwrap()` in library code must be flagged...
        let v = violations(
            "crates/choir-dsp/src/planted.rs",
            "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n",
        );
        assert_eq!(v, ["unwrap"]);
        // ...but not in test code, and not when allowlisted with a reason.
        assert!(violations(
            "crates/choir-dsp/src/planted.rs",
            "#[cfg(test)]\nmod tests { fn f(x: Option<u8>) -> u8 { x.unwrap() } }\n",
        )
        .is_empty());
        assert!(violations(
            "crates/choir-dsp/src/planted.rs",
            "pub fn f(x: Option<u8>) -> u8 {\n    // lint:allow(unwrap) — caller guarantees Some\n    x.unwrap()\n}\n",
        )
        .is_empty());
    }

    #[test]
    fn planted_f32_is_caught() {
        let v = violations(
            "crates/choir-dsp/src/planted.rs",
            "pub fn f(x: f32) -> f64 { x as f64 }\n",
        );
        assert_eq!(v, ["f32"]);
        // f32 outside the DSP crates is not this rule's business.
        assert!(violations(
            "crates/choir-mac/src/planted.rs",
            "pub fn f(x: f32) -> f64 { x as f64 }\n",
        )
        .is_empty());
        // Suffixed literal form.
        let v = violations(
            "crates/choir-core/src/planted.rs",
            "pub const A: f64 = 1.0f32 as f64;\n",
        );
        assert!(v.contains(&"f32".to_string()));
    }

    #[test]
    fn panic_and_expect_are_caught() {
        let v = violations(
            "crates/lora-phy/src/planted.rs",
            "pub fn f(x: Option<u8>) { let _ = x.expect(\"msg\"); panic!(\"boom\"); }\n",
        );
        assert_eq!(v, ["unwrap", "unwrap"]);
        // `debug_assert!` and custom idents containing "panic" do not count.
        assert!(violations(
            "crates/lora-phy/src/planted.rs",
            "pub fn f(x: u8) { debug_assert!(x > 0); no_panic!(x); }\n",
        )
        .is_empty());
    }

    #[test]
    fn float_eq_against_literal_is_caught() {
        let v = violations(
            "crates/choir-mac/src/planted.rs",
            "pub fn f(x: f64) -> bool { x == 0.3 }\n",
        );
        assert_eq!(v, ["float_cmp"]);
        let v = violations(
            "crates/choir-mac/src/planted.rs",
            "pub fn f(x: f64) -> bool { 1e-9 != x }\n",
        );
        assert_eq!(v, ["float_cmp"]);
        // Integer comparisons, <=, >= and == 0 are fine.
        assert!(violations(
            "crates/choir-mac/src/planted.rs",
            "pub fn f(x: u8) -> bool { x == 3 && x <= 250 && x as f64 >= 2.5 }\n",
        )
        .is_empty());
    }

    #[test]
    fn lossy_casts_need_markers_in_dsp_crates() {
        let v = violations(
            "crates/choir-dsp/src/planted.rs",
            "pub fn f(x: f64) -> u32 { x as u32 }\n",
        );
        assert_eq!(v, ["lossy_cast"]);
        assert!(violations(
            "crates/choir-dsp/src/planted.rs",
            "pub fn f(x: f64) -> u32 {\n    x as u32 // lint:allow(lossy_cast) — x is a bin index < 2^20\n}\n",
        )
        .is_empty());
        // Widening casts are fine.
        assert!(violations(
            "crates/choir-dsp/src/planted.rs",
            "pub fn f(x: u32) -> f64 { x as f64 }\n",
        )
        .is_empty());
    }

    #[test]
    fn hot_noalloc_bans_allocations_in_annotated_fns() {
        // All four banned constructs inside one annotated function.
        let v = violations(
            "crates/choir-dsp/src/planted.rs",
            "// hot:noalloc — per-candidate kernel\npub fn f(x: &[u8]) -> Vec<u8> {\n    let a: Vec<u8> = Vec::new();\n    let b = vec![0u8; 4];\n    let c = a.clone();\n    let d = x.to_vec();\n    let _ = (b, c, d);\n    a\n}\n",
        );
        assert_eq!(
            v,
            ["hot_noalloc", "hot_noalloc", "hot_noalloc", "hot_noalloc"]
        );
        // The same body without the marker is not this rule's business.
        assert!(violations(
            "crates/choir-dsp/src/planted.rs",
            "pub fn f(x: &[u8]) -> Vec<u8> { x.to_vec() }\n",
        )
        .is_empty());
        // Allocations in a *following* unannotated function stay legal.
        assert!(violations(
            "crates/choir-dsp/src/planted.rs",
            "// hot:noalloc — kernel\npub fn hot(x: &mut [u8]) { x[0] = 1; }\npub fn cold(x: &[u8]) -> Vec<u8> { x.to_vec() }\n",
        )
        .is_empty());
        // An allowlisted site with a reason is exempt.
        assert!(violations(
            "crates/choir-dsp/src/planted.rs",
            "// hot:noalloc — kernel\npub fn f(x: &[u8]) -> Vec<u8> {\n    // lint:allow(hot_noalloc) — one-time setup outside the probe loop\n    x.to_vec()\n}\n",
        )
        .is_empty());
        // Identifier boundaries: `my_vec!` and `SmallVec::new` don't match.
        assert!(violations(
            "crates/choir-dsp/src/planted.rs",
            "// hot:noalloc — kernel\npub fn f() { my_vec!(); let _ = SmallVec::new(); }\n",
        )
        .is_empty());
    }

    #[test]
    fn hot_libm_bans_libm_phasors_in_annotated_dsp_fns() {
        // Both phasors inside one annotated function, path-qualified or not.
        let v = violations(
            "crates/choir-core/src/decoder/planted.rs",
            "// hot:noalloc — subtraction\nfn f(t: &mut [C64], w: f64) {\n    t[0] = C64::cis(w);\n    t[1] = lora_phy::chirp::symbol_sample(256, 3, 0.5);\n}\n",
        );
        assert_eq!(v, ["hot_libm", "hot_libm"]);
        // Unannotated functions, other crates and idents that only end
        // in the name are not this rule's business.
        for (path, src) in [
            (
                "crates/choir-dsp/src/planted.rs",
                "pub fn setup(w: f64) -> C64 { C64::cis(w) }\n",
            ),
            (
                "crates/choir-channel/src/planted.rs",
                "// hot:noalloc — channel\npub fn f(w: f64) -> C64 { C64::cis(w) }\n",
            ),
            (
                "crates/choir-dsp/src/planted.rs",
                "// hot:noalloc — kernel\npub fn f(w: f64) -> C64 { my_symbol_sample(w) + sincos::cis(w) }\n",
            ),
            (
                "crates/choir-dsp/src/planted.rs",
                "// hot:noalloc — kernel\npub fn f(x: &mut [C64]) { x[0] = C64::ONE; }\npub fn cold(w: f64) -> C64 { C64::cis(w) }\n",
            ),
        ] {
            assert!(violations(path, src).is_empty(), "{path}: {src}");
        }
        // An allowlisted site with a reason is exempt.
        assert!(violations(
            "crates/choir-dsp/src/planted.rs",
            "// hot:noalloc — kernel\npub fn f(w: f64) -> C64 {\n    // lint:allow(hot_libm) — once per call, not per sample\n    C64::cis(w)\n}\n",
        )
        .is_empty());
    }

    #[test]
    fn decode_error_constructions_need_traced() {
        // Bare construction: flagged.
        let v = violations(
            "crates/choir-core/src/planted.rs",
            "pub fn f() -> Result<(), DecodeError> {\n    Err(DecodeError::SicStalled { window: 3, relative_residual: 0.5 })\n}\n",
        );
        assert_eq!(v, ["trace_event"]);
        // Construction with `.traced()` in the same statement: clean.
        assert!(violations(
            "crates/choir-core/src/planted.rs",
            "pub fn f() -> Result<(), DecodeError> {\n    Err(DecodeError::SicStalled { window: 3, relative_residual: 0.5 }.traced())\n}\n",
        )
        .is_empty());
        // Match arms, rest patterns and comparisons are not origination
        // sites.
        assert!(violations(
            "crates/choir-core/src/planted.rs",
            "pub fn kind(e: &DecodeError) -> &'static str {\n    match e {\n        DecodeError::TruncatedSlot { slot_start, needed, have } => \"truncated\",\n        DecodeError::Frame { .. } => \"frame\",\n    }\n}\npub fn same(a: DecodeError, b: DecodeError) -> bool { a == b }\n",
        )
        .is_empty());
        // An allowlisted site with a reason is exempt.
        assert!(violations(
            "crates/choir-core/src/planted.rs",
            "pub fn f() -> DecodeError {\n    // lint:allow(trace_event) — probe error, never surfaced to callers\n    DecodeError::NoUsersFound\n}\n",
        )
        .is_empty());
        // Test code is exempt wholesale.
        assert!(violations(
            "crates/choir-core/src/planted.rs",
            "#[cfg(test)]\nmod tests { fn f() -> DecodeError { DecodeError::NoUsersFound } }\n",
        )
        .is_empty());
    }

    #[test]
    fn direct_std_sync_is_caught_outside_the_facade() {
        let v = violations(
            "crates/choir-core/src/planted.rs",
            "use std::sync::Mutex;\npub fn f(m: &Mutex<u8>) -> u8 { *m.lock().unwrap_or_else(|p| p.into_inner()) }\n",
        );
        assert!(v.contains(&"sync_facade".to_string()), "got {v:?}");
        let v = violations(
            "crates/choir-station/src/planted.rs",
            "pub fn f() { std::thread::spawn(|| ()); }\n",
        );
        assert_eq!(v, ["sync_facade"]);
        // The facade itself, Arc, and test code are all exempt.
        assert!(violations(
            "crates/choir-sync/src/planted.rs",
            "pub fn f() { std::thread::spawn(|| ()); }\n",
        )
        .is_empty());
        assert!(violations(
            "crates/choir-core/src/planted.rs",
            "use std::sync::Arc;\nuse choir_sync::Mutex;\npub fn f(x: Arc<u8>) -> u8 { *x }\n",
        )
        .is_empty());
        assert!(violations(
            "crates/choir-core/src/planted.rs",
            "#[cfg(test)]\nmod tests { use std::sync::Mutex; fn f() { let _ = Mutex::new(0u8); } }\n",
        )
        .is_empty());
    }

    #[test]
    fn atomic_orderings_need_same_line_justification() {
        let v = violations(
            "crates/choir-pool/src/planted.rs",
            "pub fn f(c: &AtomicU64) -> u64 { c.load(Ordering::Relaxed) }\n",
        );
        assert_eq!(v, ["atomic_ordering"]);
        assert!(violations(
            "crates/choir-pool/src/planted.rs",
            "pub fn f(c: &AtomicU64) -> u64 { c.load(Ordering::Relaxed) } // ordering: monotonic counter read\n",
        )
        .is_empty());
        // `std::cmp::Ordering` and non-variant paths are not this rule's
        // business; a comment on the *previous* line does not count.
        assert!(violations(
            "crates/choir-pool/src/planted.rs",
            "pub fn f(a: u8, b: u8) -> bool { a.cmp(&b) == std::cmp::Ordering::Less }\n",
        )
        .is_empty());
        let v = violations(
            "crates/choir-pool/src/planted.rs",
            "// ordering: stale comment on the wrong line\npub fn f(c: &AtomicU64) -> u64 { c.load(Ordering::Acquire) }\n",
        );
        assert_eq!(v, ["atomic_ordering"]);
    }

    #[test]
    fn nested_lock_guards_are_caught() {
        let v = violations(
            "crates/choir-mac/src/planted.rs",
            "pub fn f(a: &Mutex<u8>, b: &Mutex<u8>) -> u8 {\n    let g = a.lock();\n    let h = b.lock();\n    *g + *h\n}\n",
        );
        assert_eq!(v, ["lock_scope"]);
        // Sequential (non-overlapping) guards and lone temporaries are fine.
        assert!(violations(
            "crates/choir-mac/src/planted.rs",
            "pub fn f(a: &Mutex<u8>) -> u8 {\n    let g = a.lock();\n    *g\n}\npub fn g2(b: &Mutex<u8>) -> u8 { *b.lock() }\n",
        )
        .is_empty());
        // A justified nesting (the registry→ring pattern) is exempt.
        assert!(violations(
            "crates/choir-mac/src/planted.rs",
            "pub fn f(a: &Mutex<u8>, b: &Mutex<u8>) -> u8 {\n    let g = a.lock();\n    // lint:allow(lock_scope) — a always precedes b, see module docs\n    let h = b.lock();\n    *g + *h\n}\n",
        )
        .is_empty());
        // Guards whose scope closed before the next lock don't count.
        assert!(violations(
            "crates/choir-mac/src/planted.rs",
            "pub fn f(a: &Mutex<u8>, b: &Mutex<u8>) -> u8 {\n    let x = { let g = a.lock(); *g };\n    let h = b.lock();\n    x + *h\n}\n",
        )
        .is_empty());
    }

    #[test]
    fn unsafe_and_arch_are_confined_to_the_simd_boundary() {
        // `unsafe` in ordinary library code: flagged.
        let v = violations(
            "crates/choir-core/src/planted.rs",
            "pub fn f(p: *const u8) -> u8 { unsafe { *p } }\n",
        );
        assert_eq!(v, ["simd_boundary"]);
        // Intrinsic paths are flagged even without an `unsafe` block.
        let v = violations(
            "crates/choir-station/src/planted.rs",
            "use std::arch::x86_64::_mm256_add_pd;\n",
        );
        assert_eq!(v, ["simd_boundary"]);
        let v = violations(
            "crates/lora-phy/src/planted.rs",
            "use core::arch::aarch64::vaddq_f64;\n",
        );
        assert_eq!(v, ["simd_boundary"]);
        // The backend directory itself is the sanctioned exception.
        assert!(violations(
            "crates/choir-dsp/src/backend/planted.rs",
            "use std::arch::x86_64::_mm256_add_pd;\npub fn f(p: *const u8) -> u8 { unsafe { *p } }\n",
        )
        .is_empty());
        // Identifier boundaries: idents merely containing the word are
        // not the keyword.
        assert!(violations(
            "crates/choir-core/src/planted.rs",
            "pub fn f(unsafe_marker: u8) -> u8 { unsafe_marker }\n",
        )
        .is_empty());
        // Test code and justified sites are exempt like everywhere else.
        assert!(violations(
            "crates/choir-core/src/planted.rs",
            "#[cfg(test)]\nmod tests { pub fn f(p: *const u8) -> u8 { unsafe { *p } } }\n",
        )
        .is_empty());
    }

    #[test]
    fn crate_gates() {
        let v = check_crate_gates(
            "crates/choir-dsp",
            Some("#![deny(missing_docs)]\n"),
            "[package]\n[lints]\nworkspace = true\n",
        );
        assert!(v.is_empty());
        let v = check_crate_gates(
            "crates/choir-dsp",
            Some("#![warn(missing_docs)]\n"),
            "[package]\n",
        );
        let rules: Vec<_> = v.iter().map(|x| x.rule).collect();
        assert_eq!(rules, ["missing_docs_gate", "lints_inherit"]);
    }

    #[test]
    fn bin_targets_are_exempt_from_unwrap_rule() {
        assert!(violations(
            "crates/choir-testbed/src/bin/figures.rs",
            "fn main() { std::env::args().next().unwrap(); }\n",
        )
        .is_empty());
    }
}
