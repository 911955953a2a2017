//! Runtime-dispatched SIMD kernels with a scalar reference oracle.
//!
//! Stage profiles (`core.profile.*` of a traced spine run) show the
//! Algorithm-1 refine loop spending its time in a handful of dense
//! complex kernels: dechirp multiplies, the conjugated dot product that
//! projects a window onto a tone, tone-basis synthesis and the radix-2
//! FFT butterflies. This module
//! gives each of those a narrow kernel entry point and selects an
//! implementation once per process:
//!
//! * **scalar** — the reference oracle. Element-for-element the same
//!   loops the rest of the workspace used before this module existed;
//!   the vector backend is defined as "bit-identical to this".
//! * **avx2** — x86_64 `std::arch` intrinsics (f64 lanes only, no FMA).
//!
//! # ULP policy
//!
//! The policy machinery distinguishes decoded bits (symbols, CRCs,
//! payloads) from intermediate floats, and could in principle grant
//! vector paths a per-kernel ULP budget on the intermediates. The
//! budget for every kernel in this module is currently **0 ULP**: the
//! repo's determinism contract compares estimator outputs via
//! `f64::to_bits` (`tests/golden_seeded.txt`, the bench digests, the
//! `kernel_props.rs` suites), so any intermediate drift becomes a
//! golden-capture diff. Vector implementations therefore:
//!
//! * never use FMA (it contracts `a*b+c` into one rounding, changing
//!   bits relative to the two-rounding scalar expression);
//! * keep reduction order identical to the scalar fold — lanes may
//!   compute products in parallel, and folds the oracle defines as
//!   independent (the rows of [`tone_conj_dot`]) may run side by side,
//!   but each sum accumulates sequentially in the oracle's order;
//! * may swap the two operands of one IEEE addition or multiplication
//!   (`a + b` is `b + a` to the bit) and may run operations that do not
//!   feed one another in any order — [`butterflies`] runs two
//!   passes' butterflies over the four points they share — but never
//!   reassociate a sum;
//! * flip signs by XOR with the IEEE sign bit (exact, matching `Neg`);
//! * synthesize tones through the repo's own deterministic [`sincos`]
//!   kernel, never libm. Libm transcendentals cannot be reproduced
//!   lane-exactly by vector polynomials, which is why `tone_into` was
//!   originally pinned to the oracle; owning the polynomial (one fixed
//!   IEEE op sequence, replayed identically per lane) makes tone
//!   synthesis dispatchable like every other kernel.
//!
//! Within those rules the SIMD win comes from vectorizing the
//! multiplies and the element-wise passes, which is where the cycles
//! are. `crates/choir-dsp/tests/backend_props.rs` enforces the 0-ULP
//! budget per kernel on adversarial inputs;
//! `crates/choir-core/tests/backend_dispatch.rs` enforces it end-to-end
//! across backends on decoded slots.
//!
//! **NaN results are outside the budget.** IEEE-754 leaves the sign and
//! payload of a NaN produced by an invalid operation (or propagated
//! through one) unspecified, and LLVM exploits that freedom — e.g.
//! rewriting `x - y` as `x + (-y)`, identical for every non-NaN value
//! but sign-flipping a propagated NaN. No backend (including pure
//! scalar Rust, whose const-evaluated NaNs already differ from run-time
//! ones) can pin NaN bits, so the contract is: bit-identical whenever
//! the oracle's result is non-NaN; "is a NaN" match otherwise. The
//! decode pipeline asserts finiteness at its seams, so NaNs never reach
//! golden captures.
//!
//! # Dispatch
//!
//! The active backend is chosen on first use from `CHOIR_DSP_BACKEND`
//! (`scalar|avx2|auto`, default `auto`) intersected with what the host
//! supports, and cached in an atomic. `auto` picks AVX2 when the host
//! has it; requesting `avx2` on a host without it falls back to
//! `scalar` (the one implementation every host has); unknown values
//! behave like `auto`. Every kernel entry point then has one dispatch
//! form: scalar unless AVX2 was detected. [`force`] and [`reset`] exist
//! so tests and benches can pin or re-derive the choice.
//!
//! # Why `unsafe` lives here and only here
//!
//! The workspace denies `unsafe_code`; this directory is the single
//! sanctioned exception (`avx2.rs` re-allows it with an inner
//! attribute) and the `cargo xtask lint` rule `simd_boundary` bans the
//! `unsafe` and `std::arch` tokens everywhere else. Keeping the
//! trusted surface to one leaf file makes the soundness argument
//! reviewable: intrinsics are only reached after the CPU feature was
//! detected, because [`active`] never reports `Avx2` — from the
//! environment or from a [`force`] — on a host without it.

use crate::complex::C64;
use choir_sync::atomic::{AtomicU8, Ordering};

pub mod scalar;
pub mod sincos;

#[cfg(target_arch = "x86_64")]
mod avx2;

/// Which kernel implementation the dispatcher routes to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendKind {
    /// The scalar reference oracle — defines correct bits.
    Scalar,
    /// x86_64 AVX2 intrinsics (requires runtime `avx2` detection).
    Avx2,
}

impl BackendKind {
    /// Stable lowercase name, matching the `CHOIR_DSP_BACKEND` values.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Scalar => "scalar",
            BackendKind::Avx2 => "avx2",
        }
    }
}

/// Sentinel meaning "not chosen yet"; any other value is a
/// `BackendKind` discriminant.
const UNINIT: u8 = u8::MAX;

/// Cached choice. Written idempotently: every thread that races the
/// first lookup derives the same value from the same environment.
static ACTIVE: AtomicU8 = AtomicU8::new(UNINIT);

fn encode(kind: BackendKind) -> u8 {
    match kind {
        BackendKind::Scalar => 0,
        BackendKind::Avx2 => 1,
    }
}

fn decode(v: u8) -> BackendKind {
    match v {
        1 => BackendKind::Avx2,
        _ => BackendKind::Scalar,
    }
}

/// True when the AVX2 code path can be soundly called on this host.
fn avx2_usable() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Backends that can run on this host, scalar first.
pub fn available() -> Vec<BackendKind> {
    let mut kinds = vec![BackendKind::Scalar];
    if avx2_usable() {
        kinds.push(BackendKind::Avx2);
    }
    kinds
}

/// Resolves a `CHOIR_DSP_BACKEND` value against host capability.
fn select(want: &str, avx2_usable: bool) -> BackendKind {
    match want.trim().to_ascii_lowercase().as_str() {
        "scalar" => BackendKind::Scalar,
        // "avx2", "auto", empty and anything unrecognised: the vector
        // backend when the host has it. An explicit "avx2" the host
        // cannot run therefore falls back to the oracle.
        _ if avx2_usable => BackendKind::Avx2,
        _ => BackendKind::Scalar,
    }
}

/// The backend all kernel entry points currently dispatch to.
///
/// First call resolves `CHOIR_DSP_BACKEND` against host capability and
/// caches the answer; later calls are a single atomic load. The init
/// race is benign: every thread computes the same value.
pub fn active() -> BackendKind {
    let v = ACTIVE.load(Ordering::Relaxed); // ordering: single cell, no data published through it
    if v != UNINIT {
        return decode(v);
    }
    let want = std::env::var("CHOIR_DSP_BACKEND").unwrap_or_default();
    let kind = select(&want, avx2_usable());
    ACTIVE.store(encode(kind), Ordering::Relaxed); // ordering: idempotent init; racers store the same value
    kind
}

/// Pins the dispatcher to `kind` process-wide, or to `Scalar` when the
/// host cannot run `kind` — the fallback an unavailable
/// `CHOIR_DSP_BACKEND` request gets, so [`active`] only ever names a
/// backend in [`available`] and no safe call can reach intrinsics the
/// CPU lacks.
///
/// Test/bench hook — callers serialise against concurrent kernel users
/// themselves; all backends produce identical bits, so a mid-flight
/// switch is still correct, just not a meaningful measurement.
pub fn force(kind: BackendKind) {
    let kind = match kind {
        BackendKind::Avx2 if !avx2_usable() => BackendKind::Scalar,
        usable => usable,
    };
    ACTIVE.store(encode(kind), Ordering::Relaxed); // ordering: single cell, no data published through it
}

/// Clears a [`force`], so the next [`active`] call re-derives the
/// backend from the environment.
pub fn reset() {
    ACTIVE.store(UNINIT, Ordering::Relaxed); // ordering: single cell, no data published through it
}

/// The one dispatch form: the AVX2 leaf when [`active`] reports it
/// (detected, or forced on a host that has it), the oracle otherwise.
macro_rules! dispatch {
    ($kernel:ident($($arg:expr),*)) => {{
        #[cfg(target_arch = "x86_64")]
        if active() == BackendKind::Avx2 {
            return avx2::$kernel($($arg),*);
        }
        scalar::$kernel($($arg),*)
    }};
}

/// Conjugated dot product `Σ conj(a[i])·b[i]` over `zip(a, b)`,
/// accumulated in index order from `C64::ZERO`.
pub fn conj_dot(a: &[C64], b: &[C64]) -> C64 {
    dispatch!(conj_dot(a, b))
}

/// Element-wise complex multiply `out[i] = a[i]·b[i]` over
/// `zip(out, a, b)` (the dechirp / Hadamard kernel).
pub fn cmul_into(a: &[C64], b: &[C64], out: &mut [C64]) {
    dispatch!(cmul_into(a, b, out))
}

/// Gram residual update `out[i] -= amp·xs[i]` (`subtract == true`) or
/// `out[i] += amp·xs[i]`, over `zip(out, xs)`. Callers with a
/// piecewise-constant amplitude (step components) split the slice at
/// the step boundary and issue one call per segment.
pub fn axpy(out: &mut [C64], xs: &[C64], amp: C64, subtract: bool) {
    dispatch!(axpy(out, xs, amp, subtract))
}

/// Maximum candidate-block width the blocked kernels accept. Wide
/// enough for the W ∈ {1, 2, 4, 8} sweep; small enough that per-width
/// scratch lives on the stack.
pub const MAX_BLOCK_WIDTH: usize = 8;

/// Unconjugated dot product `Σ a[i]·b[i]` over `zip(a, b)`, accumulated
/// in index order from `C64::ZERO` — the reduction inside the Cholesky
/// forward/back substitution.
pub fn dot(a: &[C64], b: &[C64]) -> C64 {
    dispatch!(dot(a, b))
}

/// Longest fine table of the two-level tone kernel (see
/// [`tone_stride`]); bounds the kernels' stack scratch.
pub const MAX_TONE_STRIDE: usize = 64;

/// Fine-table length `B` of the tone kernel for `n`-chip symbols: the
/// smallest power of two with `B² ≥ n` (16 at SF8), capped at
/// [`MAX_TONE_STRIDE`]. A function of `n` alone, so every element of a
/// tone is the same expression whatever the buffer length, the block
/// width or the backend.
pub fn tone_stride(n: usize) -> usize {
    let mut b = 1;
    while b * b < n && b < MAX_TONE_STRIDE {
        b *= 2;
    }
    b
}

/// Tone-basis synthesis `buf[t] ≈ e^{j2π·freq_bins·t / n}` by angle
/// addition: `buf[a·B + b] = cis(w·(a·B)) · cis(w·b)` with `w =
/// 2π·freq_bins/n` and `B = tone_stride(n)` — `B + ⌈len/B⌉` sincos
/// evaluations and `len` complex multiplies rather than `len`
/// evaluations, within `4ε·(|w·t| + 1)` of the exact phasor (no worse
/// than rounding the phase product `w·t` itself).
///
/// `cis` here is the deterministic [`sincos`] kernel, *not* libm: libm
/// transcendentals cannot be re-derived lane-exactly by a vector
/// routine, and a running phasor recurrence drifts with `t`. A fixed
/// two-factor product does neither: every backend runs the same IEEE
/// op sequence per element (two table entries, one `C64` multiply in
/// [`cmul_into`]'s op order), so tone synthesis dispatches like every
/// other kernel and each element stays a pure function of
/// `(n, freq_bins, t)`.
pub fn tone_into(buf: &mut [C64], n: usize, freq_bins: f64) {
    dispatch!(tone_into(buf, n, freq_bins))
}

/// AoSoA tone fill for a candidate block: `block[t·W + j] =
/// cis(2π·freqs[j]·t / n)` with `W = freqs.len()` and
/// `block.len() % W == 0`. Element values are bit-identical to
/// [`tone_into`]'s at the same `(n, freq, t)`, at every width — the
/// blocked layout changes memory order, never arithmetic.
pub fn tone_block_into(block: &mut [C64], n: usize, freqs: &[f64]) {
    assert!(
        !freqs.is_empty() && freqs.len() <= MAX_BLOCK_WIDTH,
        "tone_block_into: width out of range"
    );
    dispatch!(tone_block_into(block, n, freqs))
}

/// Blocked conjugated projection: `out[j] = Σ_t conj(block[t·W + j])·
/// y[t]` with `W = out.len()`, each candidate folded from `C64::ZERO`
/// in ascending `t` — the same per-candidate order as [`conj_dot`], so
/// results match `W` separate dense dots bit-for-bit at every width.
pub fn conj_dot_block(block: &[C64], y: &[C64], out: &mut [C64]) {
    assert!(
        !out.is_empty() && out.len() <= MAX_BLOCK_WIDTH,
        "conj_dot_block: width out of range"
    );
    dispatch!(conj_dot_block(block, y, out))
}

/// Blocked residual energies: `out[j] = ‖y − coeffs[j]·b_j‖²` against
/// candidate `j`'s strided column, accumulated as separate `t`-ascending
/// real/imaginary square sums added once at the end (the oracle's
/// definition — see `scalar::residual_block`). Per-candidate results
/// are independent of the block width.
pub fn residual_block(block: &[C64], y: &[C64], coeffs: &[C64], out: &mut [f64]) {
    dispatch!(residual_block(block, y, coeffs, out))
}

/// The twiddles of one power-of-two transform length `n`, built once
/// with the plan, in the two layouts the butterfly passes read.
///
/// * **compact** — `cis(−2πk/n)` for `k < n/2`: the table the scalar
///   oracle strides through (`compact[k·n/len]` in the pass of block
///   length `len`), and the only place a twiddle is *computed*.
/// * **staged** — the same values regrouped by pass and pre-split for a
///   vector leaf. The pass of half-length `half = 1, 2, 4, … n/2` owns
///   entries `half − 1 + k` (`k < half`); entry `e` is the pair
///   `[w.re, w.re]` at `re[2e..2e + 2]` and `[w.im, w.im]` at
///   `im[2e..2e + 2]` of `w = compact[k·n/(2·half)]`, copied bit for
///   bit. A leaf reads a pass's twiddles as two contiguous streams that
///   are already the operands of `b·w = addsub(b·[w.re, w.re],
///   swap(b)·[w.im, w.im])`: no stride, no gather, no shuffle on the
///   twiddle. `2·(n − 1)` doubles a component — 262 KB at `n = 8192`,
///   shared with the plan through its `Arc`.
#[derive(Clone, Debug)]
pub struct Twiddles {
    compact: Vec<C64>,
    re: Vec<f64>,
    im: Vec<f64>,
}

impl Twiddles {
    /// The tables of an `n`-point transform.
    ///
    /// # Panics
    /// Panics unless `n` is a power of two.
    pub fn new(n: usize) -> Self {
        assert!(n.is_power_of_two(), "Twiddles: {n} is not a power of two");
        let compact: Vec<C64> = (0..n / 2)
            .map(|k| C64::cis(-2.0 * std::f64::consts::PI * k as f64 / n as f64))
            .collect();
        let mut re = Vec::with_capacity(2 * (n - 1));
        let mut im = Vec::with_capacity(2 * (n - 1));
        let mut half = 1;
        while half < n {
            for w in compact.iter().step_by(n / (2 * half)) {
                re.extend([w.re, w.re]);
                im.extend([w.im, w.im]);
            }
            half *= 2;
        }
        Twiddles { compact, re, im }
    }

    /// The transform length `n` the tables were built for: the staged
    /// streams hold `n − 1` entries.
    pub fn transform_len(&self) -> usize {
        self.re.len() / 2 + 1
    }

    /// The compact table: `cis(−2πk/n)` for `k < n/2`.
    pub fn compact(&self) -> &[C64] {
        &self.compact
    }

    /// The staged table's two streams, `(re, im)`: entry `e` of the
    /// stage-major order is `[w.re, w.re]` at `re[2e..2e + 2]` and
    /// `[w.im, w.im]` at `im[2e..2e + 2]`; both hold `2·(n − 1)` doubles.
    pub fn staged(&self) -> (&[f64], &[f64]) {
        (&self.re, &self.im)
    }
}

/// All radix-2 butterfly passes over an already bit-reversed buffer of
/// `twiddles.transform_len()` points; the inverse transform (`forward ==
/// false`) conjugates each twiddle as it is consumed, exactly as the
/// oracle does.
///
/// The oracle ([`scalar::butterflies`], over the compact table) defines
/// every butterfly: its operands, its four products, its two sums. A leaf
/// may run butterflies that do not feed one another in any order — all of
/// a pass, or two passes' worth over the points they share — and may add
/// the two products of an imaginary part in either order (IEEE addition
/// commutes bit for bit); nothing else.
///
/// # Panics
/// Panics unless `twiddles` was built for exactly `x.len()` points (a
/// power of two, then).
// hot:noalloc — in place over the caller's buffer.
pub fn butterflies(x: &mut [C64], twiddles: &Twiddles, forward: bool) {
    assert_eq!(
        twiddles.transform_len(),
        x.len(),
        "butterflies: twiddle tables built for another length"
    );
    #[cfg(target_arch = "x86_64")]
    if active() == BackendKind::Avx2 {
        return avx2::butterflies(x, twiddles, forward);
    }
    scalar::butterflies(x, &twiddles.compact, forward)
}

/// One DTFT bin of `y` at `freq_bins`: `Σ_t conj(tone[t])·y[t]` with
/// `tone` what [`tone_into`] writes for `(n, freq_bins)`, evaluated by
/// rows — `Σ_a conj(coarse_a)·(Σ_b conj(fine_b)·y[a·B + b])`, both folds
/// ascending from `C64::ZERO` — straight from the tone kernel's two
/// tables, so no tone is written or read back. `y` may be any length (a
/// short last row stops where `y` does).
///
/// This is **not** the bits of `conj_dot(tone, y)`: the fused form rounds
/// `conj(coarse)·(Σ conj(fine)·y)` where the two-step form rounds `Σ
/// conj(coarse·fine)·y` — the same bin to `4·n·ε·Σ|y|`, a different last
/// digit. It is for search objectives, whose values are only compared;
/// a value a later stage consumes keeps `tone_into` + `conj_dot`. A
/// non-finite `freq_bins` yields NaN for any non-empty `y`.
// hot:noalloc — both tables live on the stack.
pub fn tone_conj_dot(n: usize, freq_bins: f64, y: &[C64]) -> C64 {
    dispatch!(tone_conj_dot(n, freq_bins, y))
}

/// [`tone_conj_dot`]'s bin `p = Σ_t conj(tone[t])·y[t]` — the same bits
/// — together with its ramp-weighted twin `q = Σ_t t·conj(tone[t])·y[t]`,
/// the derivative a frequency's Gauss–Newton step needs (`∂tone/∂f` is
/// the tone times `j2π·t/n`). Each row `a` of the tone kernel folds a
/// second sum over the ramp table `b·fine[b]`, and the ramp's coarse part
/// enters as that row's plain sum scaled by `a·B`: `q = Σ_a
/// conj(coarse_a)·(a·B·r_a + s_a)`. One pass over `y`, no tone written.
/// Like [`tone_conj_dot`], an objective's kernel, not a value a later
/// stage consumes.
// hot:noalloc — every table lives on the stack.
pub fn tone_ramp_conj_dot(n: usize, freq_bins: f64, y: &[C64]) -> (C64, C64) {
    dispatch!(tone_ramp_conj_dot(n, freq_bins, y))
}

/// The ramp table of [`tone_ramp_conj_dot`]: `fine[b].scale(b)` for `b <
/// fine.len()`, on the stack.
fn ramp_table(fine: &[C64]) -> [C64; MAX_TONE_STRIDE] {
    let mut ramp = [C64::ZERO; MAX_TONE_STRIDE];
    for (b, (r, f)) in ramp.iter_mut().zip(fine).enumerate() {
        *r = f.scale(b as f64);
    }
    ramp
}

/// Element-wise conjugate `out[i] = conj(src[i])` over
/// `zip(out, src)` (downchirp construction).
pub fn conj_into(src: &[C64], out: &mut [C64]) {
    dispatch!(conj_into(src, out))
}

#[cfg(test)]
mod tests {
    use super::*;

    const KINDS: [BackendKind; 2] = [BackendKind::Scalar, BackendKind::Avx2];

    #[test]
    fn names_round_trip_env_values() {
        for kind in KINDS {
            assert_eq!(decode(encode(kind)), kind);
            // A backend's own name selects it wherever it can run.
            assert_eq!(select(kind.name(), true), kind);
        }
    }

    #[test]
    fn select_resolves_every_value_against_the_host() {
        use BackendKind::{Avx2, Scalar};
        // Empty, `auto`, garbage and the two removed names all mean
        // "pick for the host"; only `scalar` pins the oracle.
        for want in ["", "auto", " AUTO ", "sse9", "portable", "neon"] {
            assert_eq!(select(want, true), Avx2, "{want:?} with AVX2");
            assert_eq!(select(want, false), Scalar, "{want:?} without AVX2");
        }
        for usable in [true, false] {
            assert_eq!(select("scalar", usable), Scalar);
            assert_eq!(select(" Scalar\n", usable), Scalar);
        }
        assert_eq!(select("avx2", true), Avx2);
        assert_eq!(select("avx2", false), Scalar, "unavailable request");
    }

    #[test]
    fn scalar_is_always_available() {
        assert_eq!(available()[0], BackendKind::Scalar);
    }

    #[test]
    fn force_and_reset_steer_dispatch() {
        // Serialised implicitly: this is the only test in the crate
        // that mutates the dispatcher.
        let before = active();
        for kind in KINDS {
            force(kind);
            // Forcing what the host lacks lands on the oracle, never on
            // intrinsics the CPU cannot execute.
            let listed = available().contains(&kind);
            let expect = if listed { kind } else { BackendKind::Scalar };
            assert_eq!(active(), expect, "force({kind:?})");
        }
        reset();
        assert!(available().contains(&active()));
        force(before);
    }
}
