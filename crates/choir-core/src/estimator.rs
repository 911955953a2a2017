//! Fractional frequency-offset estimation — Sec. 5.1 / Algorithm 1.
//!
//! For one received symbol window containing `K` colliding chirps, the
//! estimator (1) dechirps and takes a zero-padded FFT, (2) reads coarse
//! peak positions, (3) fits complex channels by least squares (Eqn. 2),
//! (4) reconstructs the signal and measures the residual power (Eqn. 3),
//! and (5) searches the neighbourhood of the coarse positions for the
//! offsets that minimise the residual (Eqn. 4). The problem is separable:
//! once the frequencies are fixed every gain is linear, so the search runs
//! over the `K` frequencies alone (variable projection) and moves all of
//! them at once by damped Gauss–Newton steps ([`GramFit::descend`]); the
//! residual surface is locally convex (Fig. 4), so a few steps converge.
//! Every least-squares solve is [`GramFit::eval`]'s, and the reported
//! channels are the gains of the solve at the point the search accepted
//! ([`GramFit::gains`]). The same Levenberg–Marquardt loop
//! (`Lm::descend`) fits the decoder's single-frequency reads, one
//! offset shared by several pieces of signal (`ToneFit`).
//!
//! A local step cannot hop out of a side lobe, so the wide
//! step-corrected pass first runs one basin-hopping sweep
//! (`basin_sweep`): per coordinate, a fixed grid of candidate offsets
//! scored with the exact residual, and a descent along that coordinate
//! alone from the grid argmin. The refined output is bit-identical on
//! every DSP backend.

use crate::error::DecodeError;
use crate::profile::{scope, Stage};
use choir_dsp::checks;
use choir_dsp::complex::C64;
use choir_dsp::fft::FftPlan;
use choir_dsp::linalg::{gram_residual, least_squares_refs, residual_energy_refs, CholeskyFactor};
use choir_dsp::peaks::{dirichlet, dirichlet_ramps, find_peaks, Peak};
use choir_dsp::workspace;
use lora_phy::chirp::base_downchirp_cached;

/// One disentangled component of a collision: a frequency position (in
/// fractional bins) and the complex channel that best explains it.
///
/// A transmitter delayed by a fractional number of chips contributes, in a
/// receiver-aligned window, a tone with a *phase step* at the symbol
/// boundary: the tail of its previous chirp and the head of the current one
/// alias to the same discrete frequency but with phases differing by
/// `2π·frac(Δ_chips)`. The optional [`Step`] captures that second segment
/// exactly: the component's time-domain model is
/// `(channel + step.coeff·1{t < step.boundary}) · e^{j2πft/N}`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ComponentEstimate {
    /// Tone position in fractional FFT bins, `[0, 2^SF)`. For a preamble
    /// chirp this is the user's aggregate hardware offset; for a data chirp
    /// it is offset + data.
    pub freq_bins: f64,
    /// Complex channel (amplitude × phase) of the tone over the whole
    /// window (the head segment's value).
    pub channel: C64,
    /// Optional boundary-split term (ISI phase step, Sec. 6.1).
    pub step: Option<Step>,
}

/// Extra complex amplitude applied over `[0, boundary)` chips.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Step {
    /// Additional coefficient on the leading segment.
    pub coeff: C64,
    /// Boundary chip index (the delayed transmitter's symbol edge).
    pub boundary: usize,
}

impl ComponentEstimate {
    /// A pure tone without a step term.
    pub fn tone(freq_bins: f64, channel: C64) -> Self {
        ComponentEstimate {
            freq_bins,
            channel,
            step: None,
        }
    }
}

/// Configuration for the estimator.
#[derive(Clone, Copy, Debug)]
pub struct EstimatorConfig {
    /// Zero-padding factor for the coarse FFT (the paper uses 10).
    pub pad: usize,
    /// Whether to fit the boundary-split (ISI step) term per component.
    /// Required for accurate reconstruction when transmitters carry
    /// multi-chip fractional timing offsets.
    pub fit_steps: bool,
    /// Candidate-block width at which the benchmark spine times the
    /// blocked backend kernels (`choir_dsp::backend::tone_block_into` and
    /// its two siblings). Spine is its only reader: the estimator does
    /// not use it.
    pub block_width: usize,
}

impl Default for EstimatorConfig {
    fn default() -> Self {
        EstimatorConfig {
            pad: 10,
            fit_steps: true,
            block_width: 4,
        }
    }
}

/// Reach of the offset search around each coarse position, in bins:
/// [`GramFit::descend`]'s first trust radius, and half the box it keeps
/// every coordinate in. Coarse positions are accurate to ~1/pad bins, so
/// ±0.5/pad plus margin is enough.
const SEARCH_RADIUS_BINS: f64 = 0.15;

/// Reach of the first step-corrected refinement pass, in bins — its
/// basin-hopping sweep's bracket and its solver's first trust radius: a
/// boundary-split tone's coarse peak can sit half a bin off.
const WIDE_RADIUS_BINS: f64 = 0.6;

/// Convergence tolerance of the offset search, in bins: twice the step
/// at which [`Lm::descend`] stops.
const TOL_BINS: f64 = 1e-4;

/// Initial Levenberg–Marquardt damping `λ` of [`Lm::descend`]: the
/// step solves `(H + λ·diag H)·Δ = −∇R`, so a small `λ` starts it as
/// Gauss–Newton.
const LM_DAMPING: f64 = 1e-3;

/// Steps [`Lm::descend`] may try, accepted or not — a guard: the
/// trust radius halves on every rejection, so the tolerance stops a
/// search long before.
const MAX_STEPS: usize = 48;

/// Minimum relative residual improvement for a step term to be kept.
const STEP_GAIN_THRESHOLD: f64 = 0.02;

/// Exponent `γ` of the weighted CUSUM [`step_boundary`] reads a step's
/// boundary with: `|D(c)|²·(n / (c·(n − c)))^γ`, where `D(c)` is the
/// tone-only fit's residual projected on the step regressor
/// `tone·1{t<c}`. `γ = 1` is the least-squares score (what the split
/// explains over the tone alone); its weight blows up at the window's
/// ends, where a segment of a few chips is not frequency-selective and
/// its gain soaks up whatever else sits there. `γ = 0` is the plain
/// CUSUM, which never piles up at the ends but has a flat peak. For any
/// `γ` in `[0, 1]` the score peaks exactly at a noiseless step's boundary
/// (DESIGN §17).
const STEP_WEIGHT_EXPONENT: f64 = 0.3;

/// Number of grid points [`basin_sweep`] probes per coordinate before
/// descending along it from the grid argmin.
const PREFILTER_GRID: usize = 8;

/// The lowest of `score` at [`PREFILTER_GRID`] evenly spaced points of
/// `[lo, hi]`, scored in order: its abscissa (the first on a tie).
fn grid_argmin(lo: f64, hi: f64, mut score: impl FnMut(f64) -> f64) -> f64 {
    let step = (hi - lo) / (PREFILTER_GRID - 1) as f64;
    let (mut m, mut m_score) = (lo, score(lo));
    for g in 1..PREFILTER_GRID {
        let v = lo + g as f64 * step;
        let s = score(v);
        if s < m_score {
            (m, m_score) = (v, s);
        }
    }
    m
}

/// The wide pass's one basin-hopping sweep: per coordinate, within
/// `±radius` of where the sweep found it, a [`PREFILTER_GRID`]-point grid
/// ([`grid_argmin`]), then from its argmin a [`GramFit::descend`] along
/// that coordinate alone, kept within one grid cell, the other
/// coordinates where the sweep left them. A coordinate moves when its
/// line beats the best residual so far. The grid lets a boundary-split
/// tone whose coarse peak sat on a side lobe hop to its main lobe, which
/// no local step reaches. Returns the residual at the point left in `x`.
// hot:noalloc — the grid and the box are on the stack, the solves' scratch is `gfit`'s.
fn basin_sweep(gfit: &mut GramFit<'_>, x: &mut [f64], radius: f64) -> f64 {
    let k = x.len();
    let cell = 2.0 * radius / (PREFILTER_GRID - 1) as f64;
    // `GramFit` holds at most 64 coordinates.
    let mut origin = [0.0; 64];
    let mut best = gfit.eval(x);
    for i in 0..k {
        let xi = x[i];
        let m = grid_argmin(xi - radius, xi + radius, |v| {
            x[i] = v;
            gfit.eval(x)
        });
        x[i] = m;
        origin[..k].copy_from_slice(x);
        let line = gfit.descend(x, &origin[..k], 0.5 * cell, Some(i));
        if line < best {
            best = line;
        } else {
            x[i] = xi;
        }
    }
    best
}

/// Result of one offset search ([`OffsetEstimator::search`]).
#[derive(Clone, Debug, PartialEq)]
struct Optimum {
    /// Minimising point.
    x: Vec<f64>,
    /// Residual at `x`.
    value: f64,
    /// Kernel passes spent.
    evals: usize,
}

/// Reusable per-symbol estimator for a fixed symbol length `2^SF`.
#[derive(Clone, Debug)]
pub struct OffsetEstimator {
    n: usize,
    cfg: EstimatorConfig,
    downchirp: std::sync::Arc<Vec<C64>>,
    /// The `n·pad`-point plan, shared with every other estimator of this
    /// geometry through the process-wide plan cache.
    fft_padded: std::sync::Arc<FftPlan>,
    /// `(n / (c·(n − c)))^STEP_WEIGHT_EXPONENT` at every boundary
    /// `c ∈ 1..n` (entry 0 unused): [`step_boundary`]'s weights.
    step_weight: Vec<f64>,
}

#[cfg(test)]
thread_local! {
    /// Test probe: [`OffsetEstimator::estimate`] calls on this thread.
    pub(crate) static ESTIMATE_CALLS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// Test probe: [`OffsetEstimator::refine`] calls on this thread — the
    /// joint solves, through [`OffsetEstimator::estimate`] or not.
    pub(crate) static SOLVES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Incremental normal-equation evaluator — the offset search's hot
/// kernel. Holds the Gram matrix `G = BᴴB`, projection `p = Bᴴy` and
/// Cholesky factor for the current frequency hypothesis, and updates
/// only the rows/columns of coordinates whose frequency actually changed.
/// A projection at frequency `f` is one DTFT bin of `y`: one fused
/// [`tone_conj_dot`](choir_dsp::backend::tone_conj_dot) — no tone is
/// written, none read back. The Gram of pure tones needs no samples at
/// all — its diagonal is `n` and entry `(i, j)` is the Dirichlet kernel
/// `Σ_t e^{j2π(f_j − f_i)t/n}` in closed form ([`dirichlet`]) — and the
/// residual follows from the Gram identity (`O(K²)`) instead of a
/// time-domain reconstruction. Every buffer is owned and sized in
/// [`Self::new`], so steady-state searches perform zero heap
/// allocations, and no basis column is ever written.
///
/// One solve, two ways to ask for it. [`Self::eval`] solves the whole
/// system at a point. [`Self::descend`] moves every frequency at once by
/// damped Gauss–Newton steps on the variable-projection residual, each
/// trial point such a solve whose projections come with their
/// ramp-weighted twins (`K` passes of
/// [`tone_ramp_conj_dot`](choir_dsp::backend::tone_ramp_conj_dot)), and
/// keeps the gains of the solve at the point it accepts
/// ([`Self::gains`]): the channels of Eqn. 2 at the converged offsets.
/// [`Self::kernels`] counts the passes, whichever call spent them.
///
/// A Gram entry is a pure function of its two frequencies, always
/// evaluated in the `(i<j, mirror-conjugate)` orientation, and a
/// projection of its one, so an incrementally maintained system is
/// bit-identical to a rebuilt one, whichever call moved it.
/// Neither is the arithmetic of [`OffsetEstimator::fit`], the
/// time-domain least squares on sampled bases (the Grams agree to
/// 1e-13·`n` at SF8, 2e-12·`n` at SF12 — the sampled tones' phase
/// rounding — and the fused projection to `4·n·ε·Σ|y|`): `fit` is the
/// reference the tests hold this type's residuals and gains to.
pub struct GramFit<'a> {
    n: usize,
    y: &'a [C64],
    y_energy: f64,
    k: usize,
    /// The frequency each coordinate was last projected at; NaN (equal
    /// to no hypothesis) until it has been.
    freqs: Vec<f64>,
    gram: Vec<C64>,
    p: Vec<C64>,
    /// `q_i = Σ_t t·conj(b_i[t])·y[t]`, valid where `q_fresh` has bit `i`.
    q: Vec<C64>,
    q_fresh: u64,
    chol: CholeskyFactor,
    coeffs: Vec<C64>,
    solved: bool,
    /// Kernel passes spent since [`Self::new`].
    kernels: usize,
    /// The solve's gains at the point [`Self::descend`] last accepted,
    /// valid while `gains_kept`.
    gains: Vec<C64>,
    gains_kept: bool,
    normal: Normal,
    lm: Lm,
}

/// [`GramFit`]'s scratch for its normal equations, all `K` or `K²` long.
struct Normal {
    /// The ramp sums `E_kl`, `F_kl` of [`dirichlet_ramps`] at `f_l − f_k`.
    e: Vec<C64>,
    f: Vec<C64>,
    /// A column of `E` and `G⁻¹` of it.
    col: Vec<C64>,
    sol: Vec<C64>,
}

impl<'a> GramFit<'a> {
    /// Builds an evaluator for `k` components over the dechirped window
    /// `y` (`n` chips per symbol), nothing projected yet. The first
    /// [`Self::eval`] fills every column; later calls update only what
    /// moved.
    ///
    /// # Panics
    /// Panics if `k` is zero or above 64 (the changed-coordinate bitmask
    /// width), or if `y` is not `n` samples (the closed-form Gram is that
    /// of whole-symbol tones).
    pub fn new(n: usize, y: &'a [C64], k: usize) -> Self {
        assert!(k > 0 && k <= 64, "GramFit: component count out of range");
        assert_eq!(y.len(), n, "GramFit: window must be one symbol long");
        // A whole-symbol tone's energy is `n` wherever it sits: the
        // diagonal is set once, solves only move off-diagonal entries.
        let mut gram = vec![C64::ZERO; k * k];
        for i in 0..k {
            gram[i * k + i] = C64::from_re(n as f64);
        }
        GramFit {
            n,
            y,
            y_energy: choir_dsp::complex::energy(y),
            k,
            freqs: vec![f64::NAN; k],
            gram,
            p: vec![C64::ZERO; k],
            q: vec![C64::ZERO; k],
            q_fresh: 0,
            chol: CholeskyFactor::new(),
            coeffs: vec![C64::ZERO; k],
            solved: false,
            kernels: 0,
            gains: vec![C64::ZERO; k],
            gains_kept: false,
            normal: Normal {
                e: vec![C64::ZERO; k * k],
                f: vec![C64::ZERO; k * k],
                col: vec![C64::ZERO; k],
                sol: vec![C64::ZERO; k],
            },
            lm: Lm::new(k),
        }
    }

    /// Whether the most recent solve was non-singular, i.e. whether the
    /// held coefficients match the held frequencies. After a singular or
    /// non-finite evaluation the coefficients are stale.
    pub fn solved(&self) -> bool {
        self.solved
    }

    /// The gains `c = G⁻¹p` (one channel per component, Eqn. 2) of the
    /// solve at the point the last [`Self::descend`] left in its `x`;
    /// `None` before any descent, or when the system there was singular.
    pub fn gains(&self) -> Option<&[C64]> {
        self.gains_kept.then_some(self.gains.as_slice())
    }

    /// Kernel passes — one projection, with or without its ramp — spent
    /// since [`Self::new`]: what a search cost.
    pub fn kernels(&self) -> usize {
        self.kernels
    }

    /// The closed-form Gram entry of coordinates `lo < hi` at their held
    /// frequencies, written in both mirror positions.
    // hot:noalloc — two owned entries.
    fn set_gram_pair(&mut self, lo: usize, hi: usize) {
        debug_assert!(lo < hi);
        let v = dirichlet(self.n, self.freqs[hi], self.freqs[lo], 1).scale(self.n as f64);
        self.gram[lo * self.k + hi] = v;
        self.gram[hi * self.k + lo] = v.conj();
    }

    /// Brings every coordinate to the hypothesis `x`: a coordinate whose
    /// frequency differs from the one it was last projected at is
    /// re-projected, and its Gram row and column follow. With `ramp`,
    /// every coordinate also gets its `q` — a moved one from the same
    /// pass as its `p` (whose bits the ramp kernel shares), a stale one
    /// from a pass of its own. `x` is finite.
    // hot:noalloc — the per-probe path only rewrites owned buffers.
    fn sync(&mut self, x: &[f64], ramp: bool) {
        let k = self.k;
        let mut changed = 0u64;
        for (i, &xi) in x.iter().enumerate() {
            let bit = 1u64 << i;
            let moved = xi.to_bits() != self.freqs[i].to_bits();
            if ramp && (moved || self.q_fresh & bit == 0) {
                (self.p[i], self.q[i]) = choir_dsp::backend::tone_ramp_conj_dot(self.n, xi, self.y);
                self.q_fresh |= bit;
            } else if moved {
                self.p[i] = choir_dsp::backend::tone_conj_dot(self.n, xi, self.y);
                self.q_fresh &= !bit;
            } else {
                continue;
            }
            self.kernels += 1;
            if moved {
                self.freqs[i] = xi;
                changed |= bit;
            }
        }
        for i in (0..k).filter(|&i| changed & (1 << i) != 0) {
            for j in (0..k).filter(|&j| j != i) {
                self.set_gram_pair(i.min(j), i.max(j));
            }
        }
    }

    /// Least-squares residual power of the hypothesis `x` (one frequency
    /// per component). A singular Gram (duplicate hypotheses) reports the
    /// full window energy — the worst possible fit — matching
    /// [`OffsetEstimator::fit`]'s fallback, and so does a hypothesis with
    /// a non-finite frequency, before it reaches a kernel: its NaN
    /// projection would otherwise pass a one-tone Gram (the constant
    /// diagonal factors whatever the frequency) and come out of
    /// [`gram_residual`]'s zero clamp as a perfect fit.
    // hot:noalloc — the per-probe path only rewrites owned buffers.
    pub fn eval(&mut self, x: &[f64]) -> f64 {
        self.solve_at(x, false)
    }

    /// [`Self::eval`], with every `q` brought to `x` as well when `ramp`.
    // hot:noalloc — the per-probe path only rewrites owned buffers.
    fn solve_at(&mut self, x: &[f64], ramp: bool) -> f64 {
        let k = self.k;
        debug_assert_eq!(x.len(), k);
        self.solved = false;
        if x.iter().any(|xi| !xi.is_finite()) {
            return self.y_energy;
        }
        self.sync(x, ramp);
        if !self.chol.factor(k, &self.gram) {
            return self.y_energy;
        }
        self.chol.solve_into(&self.p, &mut self.coeffs);
        self.solved = true;
        gram_residual(k, &self.gram, &self.p, &self.coeffs, self.y_energy)
    }

    /// Minimises the residual over every frequency at once, from `x`,
    /// by variable projection (Golub & Pereyra; Kaufman's Jacobian): the
    /// gains are eliminated by the least-squares solve, so the residual
    /// is a function of the frequencies alone, and `Lm::descend`'s
    /// damped Gauss–Newton steps move all of them together — or only
    /// coordinate `i` for `along = Some(i)` — every coordinate kept
    /// within `±2·radius` of `origin`.
    ///
    /// Leaves the best point in `x`, keeps its solve's gains for
    /// [`Self::gains`] and returns its residual. A start whose Gram is
    /// singular is returned as it is, at the window energy, with no gains.
    // hot:noalloc — every buffer is `normal`'s or `lm`'s, sized in `new`.
    pub fn descend(
        &mut self,
        x: &mut [f64],
        origin: &[f64],
        radius: f64,
        along: Option<usize>,
    ) -> f64 {
        debug_assert!(x.len() == self.k && origin.len() == self.k);
        let mut lm = std::mem::take(&mut self.lm);
        let best = lm.descend(self, x, origin, radius, along);
        self.lm = lm;
        best
    }
}

impl Separable for GramFit<'_> {
    // hot:noalloc — the per-probe path only rewrites owned buffers.
    fn solve(&mut self, x: &[f64]) -> f64 {
        self.solve_at(x, true)
    }

    /// Keeps the last solve's gains as [`GramFit::gains`] — none when
    /// that solve was singular.
    // hot:noalloc — `K` values into an owned buffer.
    fn accept(&mut self) -> bool {
        self.gains_kept = self.solved;
        if self.solved {
            self.gains.copy_from_slice(&self.coeffs);
        }
        self.solved
    }

    /// The Gauss–Newton system at the solved point: with `c = G⁻¹p` the
    /// gains, `q` the ramp-weighted projections and the ramp sums `E`,
    /// `F` of every pair ([`dirichlet_ramps`], Hermitian),
    ///
    /// `∇R_k = −(4π/n)·Im(conj(c_k)·(q_k − Σ_l E_kl·c_l))`
    ///
    /// — the residual `y − Bc` against tone `k`'s frequency derivative —
    /// and Kaufman's normal matrix, the derivatives' Gram with their
    /// projection on the tones removed,
    ///
    /// `H_kl = 2·(2π/n)²·Re(conj(c_k)·c_l·(F − E·G⁻¹·E)_kl)`,
    ///
    /// reusing `G`'s Cholesky factor. Only valid right after a solved
    /// [`Self::solve_at`] with the ramp.
    // hot:noalloc — every buffer is `normal`'s, sized in `new`.
    fn normal_equations(&mut self, grad: &mut [f64], hess: &mut [f64]) -> bool {
        let k = self.k;
        debug_assert!(self.solved && self.q_fresh.count_ones() as usize == k);
        let nm = &mut self.normal;
        // A tone against itself: `Σ_t t` and `Σ_t t²`.
        let nn = self.n as f64;
        let (e_diag, f_diag) = (
            nn * (nn - 1.0) / 2.0,
            (nn - 1.0) * nn * (2.0 * nn - 1.0) / 6.0,
        );
        for i in 0..k {
            nm.e[i * k + i] = C64::from_re(e_diag);
            nm.f[i * k + i] = C64::from_re(f_diag);
            for j in i + 1..k {
                let (e, f) = dirichlet_ramps(self.n, self.freqs[j] - self.freqs[i]);
                nm.e[i * k + j] = e;
                nm.e[j * k + i] = e.conj();
                nm.f[i * k + j] = f;
                nm.f[j * k + i] = f.conj();
            }
        }
        let w = 2.0 * std::f64::consts::PI / self.n as f64;
        let c = &self.coeffs;
        for i in 0..k {
            let mut z = self.q[i];
            for (e, cj) in nm.e[i * k..(i + 1) * k].iter().zip(c) {
                z -= *e * cj;
            }
            grad[i] = -2.0 * w * (c[i].conj() * z).im;
        }
        for l in 0..k {
            for (m, v) in nm.col.iter_mut().enumerate() {
                *v = nm.e[m * k + l];
            }
            self.chol.solve_into(&nm.col, &mut nm.sol);
            for i in 0..k {
                let mut m_il = nm.f[i * k + l];
                for (e, s) in nm.e[i * k..(i + 1) * k].iter().zip(&nm.sol) {
                    m_il -= *e * s;
                }
                hess[i * k + l] = 2.0 * w * w * (c[i].conj() * c[l] * m_il).re;
            }
        }
        grad.iter().chain(hess.iter()).all(|v| v.is_finite())
    }
}

/// A least-squares residual over `k` frequencies whose gains are linear
/// — eliminated by a solve at every point (variable projection) — as
/// [`Lm::descend`] moves it. [`GramFit`] is `K` tones in one window,
/// [`ToneFit`] one tone shared by several segments.
trait Separable {
    /// The residual at `x`, leaving what [`Self::accept`] and
    /// [`Self::normal_equations`] read of it.
    fn solve(&mut self, x: &[f64]) -> f64;

    /// Takes the last solve as the accepted point; whether it was solved.
    fn accept(&mut self) -> bool;

    /// `∇R` into `grad` and the Gauss–Newton normal matrix `H` into
    /// `hess` (`k × k`) at the last solve; whether both came out finite.
    fn normal_equations(&mut self, grad: &mut [f64], hess: &mut [f64]) -> bool;
}

/// The Levenberg–Marquardt iteration's system and scratch for `k`
/// frequencies, all `k` or `k²` long: the tree's one descent loop
/// ([`Self::descend`]).
#[derive(Default)]
struct Lm {
    /// `∇R` and the Gauss–Newton normal matrix `H` at the accepted point.
    grad: Vec<f64>,
    hess: Vec<f64>,
    /// `H + λ·diag H` (real, held as complex for [`CholeskyFactor`]), its
    /// factor, `−∇R` and the step.
    damped: Vec<C64>,
    chol: CholeskyFactor,
    rhs: Vec<C64>,
    step: Vec<C64>,
    /// The point a step is tried at.
    trial: Vec<f64>,
}

impl Lm {
    fn new(k: usize) -> Self {
        Lm {
            grad: vec![0.0; k],
            hess: vec![0.0; k * k],
            damped: vec![C64::ZERO; k * k],
            chol: CholeskyFactor::new(),
            rhs: vec![C64::ZERO; k],
            step: vec![C64::ZERO; k],
            trial: vec![0.0; k],
        }
    }

    /// Minimises `model`'s residual from `x` by damped Gauss–Newton
    /// (Levenberg–Marquardt) steps — over every coordinate, or for
    /// `along = Some(i)` over coordinate `i` alone, the others held. At
    /// an accepted point the model forms `∇R` and the normal matrix `H`,
    /// and a step solves `(H + λ·diag H)·Δ = −∇R`:
    ///
    /// - the step is scaled down to the trust radius, which starts at
    ///   `radius` and halves with every rejected step;
    /// - every coordinate is kept within `±2·radius` of `origin` (the
    ///   reach of the line searches this replaced), so a bad Jacobian
    ///   cannot walk a tone into its neighbour;
    /// - a step is accepted only if a full solve there lowers the
    ///   residual (`λ` falls tenfold; a rejection raises it tenfold);
    /// - the search stops once a step, accepted or not, moves no
    ///   coordinate by half of `TOL_BINS` or more. Kaufman's Jacobian
    ///   leaves out the residual's own curvature, so on a noisy window
    ///   the steps shrink only geometrically (by ≈ 0.4 a step on the
    ///   test corpus's worst): a step of `TOL_BINS` can leave as much
    ///   again to go, half of it leaves less than the tolerance.
    ///
    /// Leaves the best point in `x` and returns its residual. A start
    /// the model cannot solve, or whose system is not finite, is returned
    /// as it is; so is one with a flat system (`H = 0`: nothing to fit).
    // hot:noalloc — every buffer is `self`'s, sized in `new`.
    fn descend(
        &mut self,
        model: &mut impl Separable,
        x: &mut [f64],
        origin: &[f64],
        radius: f64,
        along: Option<usize>,
    ) -> f64 {
        let k = self.grad.len();
        debug_assert!(x.len() == k && origin.len() == k);
        let mut best = model.solve(x);
        if !model.accept() || !model.normal_equations(&mut self.grad, &mut self.hess) {
            return best;
        }
        let reach = 2.0 * radius;
        let (mut trust, mut lambda) = (radius, LM_DAMPING);
        for _ in 0..MAX_STEPS {
            let floor = 1e-12 * (0..k).map(|i| self.hess[i * k + i]).fold(0.0, f64::max);
            // A held coordinate, or one on the box's edge whose gradient
            // points out of it (an active bound), stays where it is: its
            // row and column leave the system, so the free coordinates
            // step as if it were fixed.
            let pinned = |i: usize| {
                along.is_some_and(|a| a != i)
                    || (x[i] <= origin[i] - reach && self.grad[i] > 0.0)
                    || (x[i] >= origin[i] + reach && self.grad[i] < 0.0)
            };
            for r in 0..k {
                for c in 0..k {
                    let h = match (r == c, pinned(r) || pinned(c)) {
                        (true, true) => 1.0,
                        (true, false) => {
                            self.hess[r * k + c] + lambda * self.hess[r * k + c].max(floor)
                        }
                        (false, true) => 0.0,
                        (false, false) => self.hess[r * k + c],
                    };
                    self.damped[r * k + c] = C64::from_re(h);
                }
                self.rhs[r] = C64::from_re(if pinned(r) { 0.0 } else { -self.grad[r] });
            }
            if !(floor > 0.0 && self.chol.factor(k, &self.damped)) {
                // A flat or non-finite system: no direction to try.
                break;
            }
            self.chol.solve_into(&self.rhs, &mut self.step);
            let longest = self.step.iter().fold(0.0f64, |m, s| m.max(s.re.abs()));
            let scale = if longest > trust {
                trust / longest
            } else {
                1.0
            };
            let mut moved = 0.0f64;
            for i in 0..k {
                let to =
                    (x[i] + scale * self.step[i].re).clamp(origin[i] - reach, origin[i] + reach);
                moved = moved.max((to - x[i]).abs());
                self.trial[i] = to;
            }
            let r = model.solve(&self.trial);
            let accepted = r < best;
            if accepted {
                best = r;
                x.copy_from_slice(&self.trial);
                model.accept();
            }
            if moved < 0.5 * TOL_BINS {
                break;
            }
            if accepted {
                lambda *= 0.1;
                if !model.normal_equations(&mut self.grad, &mut self.hess) {
                    break;
                }
            } else {
                lambda *= 10.0;
                trust *= 0.5;
            }
        }
        best
    }
}

/// One frequency `f` shared by up to six segments, each with its own
/// least-squares gain against the tone at `f` restarted at its first
/// sample: the single-offset reads of the decoder (the offset polish's
/// aligned preamble windows, the CFO fit's derotated symbol segments).
/// [`GramFit`]'s normal equations at `K = 1` with one gain column a
/// segment: for a segment of `L` samples and basis energy `G`, with
/// `(p, q)` its bin and ramp bin at `f`
/// ([`tone_ramp_conj_dot`](choir_dsp::backend::tone_ramp_conj_dot)),
/// `c = p/G`, `E = L(L−1)/2` and `F = (L−1)L(2L−1)/6`, the residual is
/// `R(f) = −Σ|p|²/G` (the energy left, less the constant `Σ‖y‖²`), its
/// slope `Σ −(4π/n)·Im(conj(c)·(q − E·c))` and Kaufman's curvature
/// `Σ 2(2π/n)²·|c|²·(F − E²/L)`. The segments lie back to back in the
/// caller's buffer and the `(len, norm)` table is fixed: a fit allocates
/// nothing.
pub(crate) struct ToneFit<'a> {
    /// Symbol length in chips: the tone's period is `n / f`.
    n: usize,
    /// The segments, back to back from index 0.
    samples: &'a mut [C64],
    /// Length and basis energy `G` of each segment, in order.
    table: [(usize, f64); 6],
    /// Segments held.
    held: usize,
    /// `∂R/∂f` and the curvature at the last [`Self::residual`].
    slope: f64,
    curvature: f64,
}

thread_local! {
    /// [`ToneFit::descend`]'s one-frequency system, shared by the fits
    /// of this thread.
    static TONE_LM: std::cell::RefCell<Lm> = std::cell::RefCell::new(Lm::new(1));
}

impl<'a> ToneFit<'a> {
    /// A fit with no segment, over `samples`' room: its residual is zero
    /// everywhere, and a descent returns its start.
    pub(crate) fn new(n: usize, samples: &'a mut [C64]) -> Self {
        ToneFit {
            n,
            samples,
            table: [(0, 0.0); 6],
            held: 0,
            slope: 0.0,
            curvature: 0.0,
        }
    }

    /// Adds a segment of `len` samples whose basis has energy `norm` and
    /// returns its room, for the caller to fill.
    ///
    /// # Panics
    /// Panics when six segments are held, or the buffer has no room left.
    pub(crate) fn push(&mut self, len: usize, norm: f64) -> &mut [C64] {
        debug_assert!(len > 0 && norm > 0.0);
        let at = self.table[..self.held]
            .iter()
            .map(|&(l, _)| l)
            .sum::<usize>();
        self.table[self.held] = (len, norm);
        self.held += 1;
        &mut self.samples[at..at + len]
    }

    /// Segments held.
    #[cfg(test)]
    pub(crate) fn segments(&self) -> usize {
        self.held
    }

    /// `R(f)`, keeping its slope and curvature for the descent.
    // hot:noalloc — one fused bin and ramp a segment of the held buffer.
    pub(crate) fn residual(&mut self, f: f64) -> f64 {
        let w = std::f64::consts::TAU / self.n as f64;
        let (mut r, mut slope, mut curvature) = (0.0, 0.0, 0.0);
        let mut at = 0;
        for &(len, norm) in &self.table[..self.held] {
            let (p, q) =
                choir_dsp::backend::tone_ramp_conj_dot(self.n, f, &self.samples[at..at + len]);
            at += len;
            let c = p.scale(1.0 / norm);
            let l = len as f64;
            let (e, ff) = (l * (l - 1.0) / 2.0, (l - 1.0) * l * (2.0 * l - 1.0) / 6.0);
            r -= p.norm_sqr() / norm;
            slope -= 2.0 * w * (c.conj() * (q - c.scale(e))).im;
            curvature += 2.0 * w * w * c.norm_sqr() * (ff - e * e / l);
        }
        (self.slope, self.curvature) = (slope, curvature);
        r
    }

    /// The frequency minimising [`Self::residual`], from `start`: one
    /// [`Lm::descend`], every iterate within `±2·radius` of `start`.
    // hot:noalloc — the system is the thread's, the segments the caller's.
    pub(crate) fn descend(&mut self, start: f64, radius: f64) -> f64 {
        let mut x = [start];
        TONE_LM.with_borrow_mut(|lm| lm.descend(self, &mut x, &[start], radius, None));
        x[0]
    }
}

impl Separable for ToneFit<'_> {
    // hot:noalloc — see `residual`.
    fn solve(&mut self, x: &[f64]) -> f64 {
        self.residual(x[0])
    }

    fn accept(&mut self) -> bool {
        true
    }

    fn normal_equations(&mut self, grad: &mut [f64], hess: &mut [f64]) -> bool {
        (grad[0], hess[0]) = (self.slope, self.curvature);
        self.slope.is_finite() && self.curvature.is_finite()
    }
}

/// The best two-segment fit of a dechirped window: a boundary, the energy
/// the fit explains there, and the two segment projections.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Split {
    /// The boundary `c`: the tail tone explains `[0, c)`, the head tone
    /// `[c, n)`.
    pub(crate) chip: usize,
    /// `|tail|²/c + |head|²/(n − c)` (an empty segment explains nothing).
    pub(crate) explained: f64,
    /// `Σ_{t<c} conj(tail[t])·de[t]`.
    pub(crate) tail: C64,
    /// `Σ_{t≥c} conj(head[t])·de[t]`.
    pub(crate) head: C64,
}

/// Replaces the tone `x` with its projection prefix sums over the window
/// `de`, `x[c] ← P[c] = Σ_{t<c} conj(x[t])·de[t]`, and returns `P[n]`, the
/// whole window's projection.
// hot:noalloc — one serial fold in the caller's buffer.
pub(crate) fn projection_prefix(de: &[C64], x: &mut [C64]) -> C64 {
    let mut acc = C64::ZERO;
    for (v, d) in x.iter_mut().zip(de) {
        let before = acc;
        acc += v.conj() * *d;
        *v = before;
    }
    acc
}

/// The boundary `c` at which a dechirped window is best explained by one
/// tone over `[0, c)` and another over `[c, n)`, each with its own complex
/// gain (Sec. 6.1), read from the two tones' [`projection_prefix`]es
/// `tail` and `head` and the head tone's whole-window projection
/// `head_total`. The segments are disjoint and the tones unit-modulus, so
/// the two least-squares gains decouple — `tail[c]/c` and
/// `(head_total − head[c])/(n − c)` — and the explained energy is
///
/// ```text
/// score(c) = |P_tail[c]|²/c + |P_head[n] − P_head[c]|²/(n − c),   score(0) = |P_head[n]|²/n
/// ```
///
/// Returns the argmax over `c = 0` and the boundaries `c ∈ bounds` (a
/// subrange of `1..n`), the lowest `c` on a tie.
// hot:noalloc — reads the caller's prefix sums.
pub(crate) fn boundary_scan(
    tail: &[C64],
    head: &[C64],
    head_total: C64,
    bounds: std::ops::Range<usize>,
) -> Split {
    let n = head.len();
    let mut best = Split {
        chip: 0,
        explained: head_total.norm_sqr() / n as f64,
        tail: C64::ZERO,
        head: head_total,
    };
    for c in bounds {
        let head_sum = head_total - head[c];
        let score = tail[c].norm_sqr() / c as f64 + head_sum.norm_sqr() / (n - c) as f64;
        if score > best.explained {
            best = Split {
                chip: c,
                explained: score,
                tail: tail[c],
                head: head_sum,
            };
        }
    }
    best
}

/// The boundary at which one tone's gain steps (Sec. 6.1), read from the
/// tone's [`projection_prefix`] `prefix` on the window and its total `P[n]`:
/// the argmax over `c ∈ 1..n` of the weighted CUSUM
/// `|P[c] − (c/n)·P[n]|²·weight[c]` (the lowest `c` on a tie).
/// `P[c] − (c/n)·P[n]` is the tone-only fit's residual projected on the
/// step regressor `tone·1{t<c}`; see [`STEP_WEIGHT_EXPONENT`].
// hot:noalloc — one pass over the caller's prefix sums.
fn step_boundary(prefix: &[C64], total: C64, weight: &[f64]) -> usize {
    let m = prefix.len() as f64;
    let mut best = (1, -1.0);
    for (c, (p, w)) in prefix.iter().zip(weight).enumerate().skip(1) {
        let score = (*p - total.scale(c as f64 / m)).norm_sqr() * w;
        if score > best.1 {
            best = (c, score);
        }
    }
    best.0
}

impl OffsetEstimator {
    /// Builds an estimator for symbols of `n = 2^SF` chips.
    pub fn new(n: usize, cfg: EstimatorConfig) -> Self {
        assert!(n.is_power_of_two(), "symbol length must be a power of two");
        assert!(cfg.pad >= 1);
        OffsetEstimator {
            n,
            cfg,
            downchirp: base_downchirp_cached(n),
            fft_padded: choir_dsp::fft::plan(n * cfg.pad),
            step_weight: (0..n)
                .map(|c| match c {
                    0 => 0.0,
                    _ => (n as f64 / (c * (n - c)) as f64).powf(STEP_WEIGHT_EXPONENT),
                })
                .collect(),
        }
    }

    /// Symbol length in chips.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The configuration in use.
    pub fn config(&self) -> &EstimatorConfig {
        &self.cfg
    }

    /// Dechirps a window (must be exactly `n` samples).
    pub fn dechirp(&self, window: &[C64]) -> Vec<C64> {
        let mut out = vec![C64::ZERO; self.n];
        self.dechirp_into(window, &mut out);
        out
    }

    /// Allocation-free [`Self::dechirp`]: writes the dechirped window into
    /// `out` (both exactly `n` samples).
    // hot:noalloc — the output is caller-provided.
    pub fn dechirp_into(&self, window: &[C64], out: &mut [C64]) {
        assert_eq!(window.len(), self.n, "dechirp: wrong window length");
        assert_eq!(out.len(), self.n, "dechirp: wrong output length");
        choir_dsp::backend::cmul_into(window, &self.downchirp, out);
        // Debug sanitizer: the dechirped window feeds every later stage;
        // a NaN here means corrupt input samples, not a pipeline bug.
        checks::assert_finite("estimator::dechirp", out);
    }

    /// Coarse stage: dechirp, pad, detect peaks. Returned positions are in
    /// fractional bins with ~`1/pad`-bin granularity.
    pub fn coarse(&self, window: &[C64]) -> Vec<Peak> {
        scope(Stage::Dechirp, || {
            let mut de = workspace::take(self.n);
            self.dechirp_into(window, &mut de);
            let mut spec = workspace::take(self.n * self.cfg.pad);
            workspace::with(|ws| self.fft_padded.forward_padded_into(&de, &mut spec, ws));
            // `find_peaks` borrows the arena for its own scratch, so the
            // transform's borrow has to have ended.
            let peaks = find_peaks(&spec, self.cfg.pad);
            workspace::put(spec);
            workspace::put(de);
            peaks
        })
    }

    /// Synthesises the tone `e^{j2π f t / n}` of each frequency in
    /// `freqs` into a workspace buffer, one `n`-chip row apiece; the
    /// caller hands the buffer back with [`workspace::put`].
    fn tones(&self, freqs: impl ExactSizeIterator<Item = f64>) -> Vec<C64> {
        let mut rows = workspace::take(freqs.len() * self.n);
        for (row, f) in rows.chunks_exact_mut(self.n).zip(freqs) {
            choir_dsp::backend::tone_into(row, self.n, f);
        }
        rows
    }

    /// Least-squares channel fit (Eqn. 2) at the given tone positions on
    /// sampled bases, returning the channels and the residual power
    /// (Eqn. 3) — the time-domain reference the search's [`GramFit`]
    /// solves are held to, and Fig. 4's residual. Positions too close
    /// together make the system singular; in that case the residual is
    /// reported as the full signal energy (worst possible fit).
    pub fn fit(&self, dechirped: &[C64], freqs: &[f64]) -> (Vec<C64>, f64) {
        assert!(!freqs.is_empty(), "fit: need at least one tone");
        let tones = self.tones(freqs.iter().copied());
        let refs: Vec<&[C64]> = tones.chunks_exact(self.n).collect();
        let channels = least_squares_refs(&refs, dechirped);
        let residual = match &channels {
            Some(h) => residual_energy_refs(&refs, h, dechirped),
            None => choir_dsp::complex::energy(dechirped),
        };
        workspace::put(tones);
        (
            channels.unwrap_or_else(|| vec![C64::ZERO; freqs.len()]),
            residual,
        )
    }

    /// One offset search (Eqn. 4) from `x0`: with `basin_hop`, one
    /// [`basin_sweep`] of `±radius` first, then [`GramFit::descend`] with
    /// its trust radius starting at `radius` and every coordinate kept
    /// within `±2·radius` of `x0`. `evals` is the kernel passes `gfit`
    /// spent. The returned coordinate vector is the one heap allocation.
    fn search(&self, gfit: &mut GramFit<'_>, x0: &[f64], radius: f64, basin_hop: bool) -> Optimum {
        let mut x = x0.to_vec();
        if basin_hop {
            basin_sweep(gfit, &mut x, radius);
        }
        let value = gfit.descend(&mut x, x0, radius, None);
        Optimum {
            x,
            value,
            evals: gfit.kernels(),
        }
    }

    /// Fine stage (Eqn. 4): jointly refines the coarse positions by
    /// minimising the reconstruction residual — [`GramFit::descend`]'s
    /// damped Gauss–Newton steps on the projected residual, within
    /// `SEARCH_RADIUS_BINS`; the returned channels are the gains of the
    /// solve at the converged positions ([`GramFit::gains`]).
    /// Returns one estimate per input position (order preserved).
    pub fn refine(&self, window: &[C64], coarse_bins: &[f64]) -> Vec<ComponentEstimate> {
        assert!(!coarse_bins.is_empty(), "refine: no coarse positions");
        #[cfg(test)]
        SOLVES.with(|c| c.set(c.get() + 1));
        scope(Stage::Refine, || {
            let de = self.dechirp(window);
            let mut gfit = GramFit::new(self.n, &de, coarse_bins.len());
            let opt = self.search(&mut gfit, coarse_bins, SEARCH_RADIUS_BINS, false);
            let channels = channels(&gfit);
            // Provenance: the coarse candidates entering the Algorithm-1
            // search, where they converged, and the joint residual there.
            choir_trace::full(|| choir_trace::TraceEvent::OffsetSearch {
                window: choir_trace::current_window(),
                evals: opt.evals as u64,
                coarse_bins: coarse_bins.to_vec(),
                refined_bins: opt.x.iter().map(|&f| f.rem_euclid(self.n as f64)).collect(),
                residual: opt.value,
            });
            opt.x
                .iter()
                .zip(channels)
                .map(|(&f, h)| ComponentEstimate::tone(f.rem_euclid(self.n as f64), h))
                .collect()
        })
    }

    /// Full-model residual energy of a component set against a dechirped
    /// window (tones and step terms included).
    pub fn full_residual(&self, dechirped: &[C64], comps: &[ComponentEstimate]) -> f64 {
        let mut resid = workspace::take(dechirped.len());
        resid.copy_from_slice(dechirped);
        self.accumulate_models(comps, &mut resid, true);
        let e = resid.iter().map(|z| z.norm_sqr()).sum();
        workspace::put(resid);
        e
    }

    /// Adds (`subtract = false`) or subtracts (`subtract = true`) every
    /// component's dechirped-domain model from `out`, each tone
    /// synthesised into one workspace row.
    fn accumulate_models(&self, comps: &[ComponentEstimate], out: &mut [C64], subtract: bool) {
        let mut tone = workspace::take(self.n);
        for c in comps {
            choir_dsp::backend::tone_into(&mut tone, self.n, c.freq_bins);
            accumulate_model(c, &tone, out, subtract);
        }
        workspace::put(tone);
    }

    /// Fits the boundary-split term of each component (Sec. 6.1): the
    /// component's tone is read against the residual at every boundary
    /// `1..n` by [`step_boundary`], the split there is fitted by
    /// [`boundary_scan`], and it is kept if it improves the tone-only
    /// residual by at least `STEP_GAIN_THRESHOLD`. Runs `passes`
    /// greedy rounds so coupled components (e.g. a user's head and tail
    /// peaks) converge jointly. Operates in the dechirped domain.
    fn fit_steps(&self, dechirped: &[C64], comps: &mut [ComponentEstimate], passes: usize) {
        scope(Stage::Refine, || {
            for _ in 0..passes {
                self.fit_steps_once(dechirped, comps);
            }
        });
    }

    /// One greedy round of [`Self::fit_steps`]: each component, strongest
    /// first, is added back to the residual and refitted. Its tone,
    /// synthesised once for the round, is subtracted, added back and
    /// subtracted again, and one [`projection_prefix`] of it serves
    /// [`step_boundary`] and, as both sides, [`boundary_scan`]; the
    /// split's two segment projections are then the whole fit:
    /// `channel = head/(n − c)`, `step.coeff = tail/c − channel`, and the
    /// tone-only fit is the whole-window projection over `n`, `P[n]/n`.
    // hot:noalloc — one tone copy and one fold a component; the tones,
    // the residual and the copy are workspace buffers.
    fn fit_steps_once(&self, dechirped: &[C64], comps: &mut [ComponentEstimate]) {
        let n = self.n;
        let m = n as f64;
        // A component's frequency holds through the round: one tone each.
        let tones = self.tones(comps.iter().map(|c| c.freq_bins));
        let tone = |i: usize| &tones[i * n..(i + 1) * n];
        // Current residual with all components.
        let mut resid = workspace::take(n);
        resid.copy_from_slice(dechirped);
        for (i, c) in comps.iter().enumerate() {
            accumulate_model(c, tone(i), &mut resid, true);
        }
        // Strongest components first.
        let mut order: Vec<usize> = (0..comps.len()).collect();
        order.sort_by(|&a, &b| comps[b].channel.abs().total_cmp(&comps[a].channel.abs()));
        let mut prefix = workspace::take(n);
        for idx in order {
            // Add this component's model back; refit it with a step.
            accumulate_model(&comps[idx], tone(idx), &mut resid, false);
            prefix.copy_from_slice(tone(idx));
            let p_total = projection_prefix(&resid, &mut prefix);
            let c = step_boundary(&prefix, p_total, &self.step_weight);
            let split = boundary_scan(&prefix, &prefix, p_total, c..c + 1);
            let y_energy = choir_dsp::complex::energy(&resid);
            let r_tone = y_energy - p_total.norm_sqr() / m;
            let r_step = y_energy - split.explained;
            if split.chip > 0 && r_step < r_tone * (1.0 - STEP_GAIN_THRESHOLD) {
                let channel = split.head.scale(1.0 / (n - c) as f64);
                comps[idx].channel = channel;
                comps[idx].step = Some(Step {
                    coeff: split.tail.scale(1.0 / c as f64) - channel,
                    boundary: c,
                });
            } else {
                comps[idx].channel = p_total.scale(1.0 / m);
                comps[idx].step = None;
            }
            accumulate_model(&comps[idx], tone(idx), &mut resid, true);
        }
        workspace::put(prefix);
        workspace::put(resid);
        workspace::put(tones);
    }

    /// Coarse + fine in one call: detects peaks, jointly refines their
    /// frequencies (Algorithm 1's fine stage), then fits each component's
    /// boundary-split (ISI) term and re-refines frequencies against the
    /// step-corrected residual.
    pub fn estimate(&self, window: &[C64]) -> Vec<ComponentEstimate> {
        #[cfg(test)]
        ESTIMATE_CALLS.with(|c| c.set(c.get() + 1));
        let peaks = self.coarse(window);
        if peaks.is_empty() {
            return Vec::new();
        }
        let coarse: Vec<f64> = peaks.iter().map(|p| p.pos).collect();
        let mut comps = self.refine(window, &coarse);
        if self.cfg.fit_steps {
            scope(Stage::Refine, || {
                self.refine_steps_passes(window, &mut comps)
            });
        }
        comps
    }

    /// The step-fitting / corrected-refinement alternation of
    /// [`Self::estimate`] (split out for stage accounting).
    fn refine_steps_passes(&self, window: &[C64], comps: &mut Vec<ComponentEstimate>) {
        let de = self.dechirp(window);
        self.fit_steps(&de, comps, 2);
        // Alternate frequency refinement (against the step-corrected
        // signal — the step term absorbs the skirt that biases the
        // tone-only fit) with step re-fitting; the first corrected
        // pass searches the wider bracket, after one basin-hopping
        // sweep.
        let narrow = comps.clone();
        let narrow_residual = self.full_residual(&de, &narrow);
        let mut tone = workspace::take(self.n);
        for (radius, basin_hop) in [(WIDE_RADIUS_BINS, true), (SEARCH_RADIUS_BINS, false)] {
            // A step term is constant over `[0, boundary)`, so its
            // contribution is one segment axpy.
            let mut steps = vec![C64::ZERO; self.n];
            for c in comps.iter() {
                if let Some(st) = &c.step {
                    choir_dsp::backend::tone_into(&mut tone, self.n, c.freq_bins);
                    let split = st.boundary.min(self.n);
                    choir_dsp::backend::axpy(&mut steps[..split], &tone[..split], st.coeff, false);
                }
            }
            let corrected: Vec<C64> = de.iter().zip(&steps).map(|(d, s)| d - s).collect();
            let freqs: Vec<f64> = comps.iter().map(|c| c.freq_bins).collect();
            let mut gfit = GramFit::new(self.n, &corrected, freqs.len());
            let opt = self.search(&mut gfit, &freqs, radius, basin_hop);
            for ((c, &f), h) in comps.iter_mut().zip(&opt.x).zip(channels(&gfit)) {
                c.freq_bins = f.rem_euclid(self.n as f64);
                c.channel = h;
            }
            // Re-fit the steps against the refreshed frequencies so the
            // reconstruction (and hence SIC subtraction) is consistent.
            self.fit_steps(&de, comps, 1);
        }
        workspace::put(tone);
        // The wide corrected pass rescues boundary-split tones whose
        // coarse peak sat on a side lobe, but it can wander when two
        // genuine tones sit within a bin of each other. Keep whichever
        // solution actually explains the window better.
        if self.full_residual(&de, comps) > narrow_residual {
            *comps = narrow;
        }
    }

    /// Reconstructs the time-domain contribution of the given components
    /// (in the *received*, chirped domain) so it can be subtracted from a
    /// window — the SIC building block. Step terms are included.
    pub fn reconstruct(&self, components: &[ComponentEstimate]) -> Vec<C64> {
        let mut de = vec![C64::ZERO; self.n];
        self.accumulate_models(components, &mut de, false);
        // Undo the dechirp: multiply by the up-chirp (conjugate of down).
        de.iter()
            .zip(self.downchirp.iter())
            .map(|(d, dc)| d * dc.conj())
            .collect()
    }
}

/// The channels of Eqn. 2 at the point a search converged: the gains of
/// `gfit`'s solve there ([`GramFit::gains`]). A singular system traces
/// [`DecodeError::SingularFit`] and reads zero channels.
fn channels(gfit: &GramFit<'_>) -> Vec<C64> {
    match gfit.gains() {
        Some(gains) => gains.to_vec(),
        None => {
            // The decode goes on with zero channels; the error is on record.
            let _ = DecodeError::SingularFit { components: gfit.k }.traced();
            vec![C64::ZERO; gfit.k]
        }
    }
}

/// Adds (`subtract = false`) or subtracts (`subtract = true`) one
/// component's dechirped-domain model — `tone`, its tone, times its
/// channel, plus the optional step — from `out`, without materialising
/// the model vector.
// hot:noalloc — streams the caller's tone into the accumulator.
fn accumulate_model(c: &ComponentEstimate, tone: &[C64], out: &mut [C64], subtract: bool) {
    let n = out.len().min(tone.len());
    // The amplitude is piecewise constant in `t` (head amplitude
    // before the step boundary, tail after), so the per-sample `amp`
    // selection becomes one backend axpy per segment — same
    // multiplies and adds, in the same order, per element.
    match &c.step {
        Some(st) if st.boundary > 0 => {
            let split = st.boundary.min(n);
            choir_dsp::backend::axpy(
                &mut out[..split],
                &tone[..split],
                c.channel + st.coeff,
                subtract,
            );
            choir_dsp::backend::axpy(&mut out[split..n], &tone[split..n], c.channel, subtract);
        }
        _ => choir_dsp::backend::axpy(&mut out[..n], &tone[..n], c.channel, subtract),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use choir_dsp::complex::c64;
    use choir_dsp::linalg::conj_dot;
    use lora_phy::chirp::symbol_sample;
    use std::f64::consts::TAU;

    const N: usize = 128;

    fn est() -> OffsetEstimator {
        OffsetEstimator::new(N, EstimatorConfig::default())
    }

    /// A preamble chirp (symbol 0) with an exact fractional tone offset
    /// `f` bins and channel `h`, rendered in the received domain.
    fn chirp_with_offset(f: f64, h: C64) -> Vec<C64> {
        (0..N)
            .map(|t| {
                let s = symbol_sample(N, 0, t as f64);
                let rot = C64::cis(2.0 * std::f64::consts::PI * f * t as f64 / N as f64);
                h * s * rot
            })
            .collect()
    }

    fn add(a: &mut [C64], b: &[C64]) {
        for (x, y) in a.iter_mut().zip(b) {
            *x += *y;
        }
    }

    /// Regression: `pad` used to be stored twice (`EstimatorConfig.pad`
    /// sized the spectrum, `EstimatorConfig.peaks.pad` scaled positions),
    /// so setting only the first reported 25.2 bins at `pad = 5` and
    /// panicked inside `find_peaks` at `pad = 4`.
    #[test]
    fn coarse_position_is_in_unpadded_bins_for_every_pad() {
        let truth = 50.4;
        let window = chirp_with_offset(truth, c64(1.0, 0.0));
        for pad in [1usize, 2, 4, 5, 10, 16] {
            let cfg = EstimatorConfig {
                pad,
                ..EstimatorConfig::default()
            };
            let peaks = OffsetEstimator::new(N, cfg).coarse(&window);
            assert_eq!(peaks.len(), 1, "pad {pad}: {peaks:?}");
            assert!(
                (peaks[0].pos - truth).abs() <= 1.0 / pad as f64,
                "pad {pad}: coarse position {} for a tone at {truth}",
                peaks[0].pos
            );
        }
    }

    #[test]
    fn coarse_scratch_comes_from_the_thread_arena() {
        // `find_peaks` checks its spectrum-length `f64` scratch out of the
        // thread arena, which it can only do once the padded transform's
        // borrow of that arena has ended: a nested borrow fails over to a
        // throw-away arena (counted), and nothing real is ever pooled.
        let e = est();
        let window = chirp_with_offset(50.4, c64(1.0, 0.0));
        let before = workspace::reentries();
        for _ in 0..3 {
            assert_eq!(e.coarse(&window).len(), 1);
        }
        assert_eq!(workspace::reentries(), before, "a borrow nested in coarse");
        let pooled = workspace::with(|ws| ws.pooled_f64_capacity());
        assert!(pooled >= N * e.config().pad, "largest f64 buffer: {pooled}");
    }

    #[test]
    fn single_component_refined_to_high_precision() {
        let e = est();
        let truth = 50.43;
        let h = C64::from_polar(1.0, 0.7);
        let window = chirp_with_offset(truth, h);
        let comps = e.estimate(&window);
        assert_eq!(comps.len(), 1);
        assert!(
            (comps[0].freq_bins - truth).abs() < 1e-3,
            "freq {}",
            comps[0].freq_bins
        );
        assert!((comps[0].channel - h).abs() < 1e-3);
    }

    #[test]
    fn two_components_fractionally_separated() {
        // The paper's running example: peaks 50.4 bins apart, both
        // fractional — coarse reads ~50.3/50.4; refinement nails both.
        let e = est();
        let (f1, f2) = (10.17, 60.57);
        let (h1, h2) = (c64(0.9, 0.3), c64(-0.2, 0.8));
        let mut w = chirp_with_offset(f1, h1);
        add(&mut w, &chirp_with_offset(f2, h2));
        let mut comps = e.estimate(&w);
        assert_eq!(comps.len(), 2);
        comps.sort_by(|a, b| a.freq_bins.total_cmp(&b.freq_bins));
        assert!(
            (comps[0].freq_bins - f1).abs() < 2e-3,
            "f1 {}",
            comps[0].freq_bins
        );
        assert!(
            (comps[1].freq_bins - f2).abs() < 2e-3,
            "f2 {}",
            comps[1].freq_bins
        );
        assert!((comps[0].channel - h1).abs() < 5e-3);
        assert!((comps[1].channel - h2).abs() < 5e-3);
    }

    #[test]
    fn close_components_one_bin_apart() {
        // Closely spaced users are the hard case for leakage: 1.4 bins.
        // The ISI-aware peak rejection is conservative at this distance, so
        // the second user surfaces through phased SIC rather than in the
        // first peak-detection pass. Phase 1 fits the first user alone, so
        // its position leans ≈ 0.115 bin toward the unmodelled neighbour;
        // phase 2 fits the neighbour under that lean, and no re-solve
        // follows. Two users in, exactly two components out.
        let e = est();
        let (f1, f2) = (80.2, 81.6);
        let mut w = chirp_with_offset(f1, C64::ONE);
        add(&mut w, &chirp_with_offset(f2, c64(0.0, -0.9)));
        let r = crate::sic::phased_sic(&e, &w, &crate::sic::SicConfig::default());
        let mut found: Vec<f64> = r.components.iter().map(|c| c.freq_bins).collect();
        found.sort_by(f64::total_cmp);
        assert_eq!(found.len(), 2, "components at {found:?}");
        assert!((found[0] - f1).abs() < 0.15, "f1 err {}", found[0] - f1);
        assert!((found[1] - f2).abs() < 0.15, "f2 err {}", found[1] - f2);
    }

    #[test]
    fn refinement_beats_coarse() {
        let e = est();
        let truth = 30.449; // deliberately between 1/10-bin grid points
        let w = chirp_with_offset(truth, C64::ONE);
        let coarse = e.coarse(&w);
        let refined = e.refine(&w, &[coarse[0].pos]);
        let coarse_err = (coarse[0].pos - truth).abs();
        let fine_err = (refined[0].freq_bins - truth).abs();
        assert!(
            fine_err < coarse_err,
            "fine {fine_err} vs coarse {coarse_err}"
        );
        assert!(fine_err < 1e-3);
    }

    /// Two coarse positions on one frequency leave the solve singular:
    /// `refine` reads zero channels and puts one `singular_fit` decode
    /// error on record.
    #[test]
    fn a_singular_fit_reads_zero_channels_and_is_traced() {
        use choir_trace::{TraceEvent, TraceLevel};
        // Stamps this thread's offset search, so the records of tests
        // running beside this one are told apart.
        const WINDOW: u64 = 0x5_1D6F;
        let w = chirp_with_offset(40.3, C64::ONE);
        let level = choir_trace::level();
        choir_trace::set_level(TraceLevel::Full);
        choir_trace::set_window(WINDOW);
        let comps = est().refine(&w, &[40.3, 40.3]);
        let log = choir_trace::drain();
        choir_trace::set_level(level);
        assert_eq!(comps.len(), 2);
        assert!(comps.iter().all(|c| c.channel == C64::ZERO), "{comps:?}");
        let search = log
            .iter()
            .find(|r| matches!(r.event, TraceEvent::OffsetSearch { window: WINDOW, .. }));
        let thread = search.expect("the search is on record").thread;
        let singular = log
            .iter()
            .filter(|r| r.thread == thread && r.to_json().contains("\"singular_fit\""))
            .count();
        assert_eq!(singular, 1, "{log:?}");
    }

    #[test]
    fn residual_minimum_at_truth() {
        // Scan the residual along one coordinate: minimum within tolerance
        // of the true offset (the local-convexity picture of Fig. 4).
        let e = est();
        let truth = 42.37;
        let w = chirp_with_offset(truth, C64::ONE);
        let de = e.dechirp(&w);
        let mut best = (0.0, f64::INFINITY);
        let mut prev = f64::INFINITY;
        let mut decreasing = true;
        for k in 0..100 {
            let f = truth - 0.5 + k as f64 * 0.01;
            let (_, r) = e.fit(&de, &[f]);
            if r < best.1 {
                best = (f, r);
            }
            // Check convexity shape: residual decreases then increases.
            if f < truth && r > prev + 1e-9 {
                decreasing = false;
            }
            prev = r;
        }
        assert!((best.0 - truth).abs() < 0.02, "min at {}", best.0);
        assert!(decreasing, "residual not monotone while approaching truth");
    }

    #[test]
    fn reconstruct_then_subtract_cancels() {
        let e = est();
        let w = chirp_with_offset(25.68, c64(0.7, -0.4));
        let comps = e.estimate(&w);
        let recon = e.reconstruct(&comps);
        let resid: f64 = w.iter().zip(&recon).map(|(a, b)| (a - b).norm_sqr()).sum();
        let orig: f64 = w.iter().map(|z| z.norm_sqr()).sum();
        assert!(resid / orig < 1e-4, "relative residual {}", resid / orig);
    }

    #[test]
    fn near_far_20db_both_recovered_after_refine() {
        let e = est();
        let (f1, f2) = (20.33, 97.71);
        let mut w = chirp_with_offset(f1, C64::ONE);
        add(&mut w, &chirp_with_offset(f2, c64(0.1, 0.0))); // −20 dB
        let mut comps = e.estimate(&w);
        assert!(comps.len() >= 2);
        comps.sort_by(|a, b| b.channel.abs().total_cmp(&a.channel.abs()));
        assert!((comps[0].freq_bins - f1).abs() < 1e-2);
        assert!(
            (comps[1].freq_bins - f2).abs() < 5e-2,
            "weak at {}",
            comps[1].freq_bins
        );
    }

    /// Golden-section search for the minimum of a unimodal `f` on
    /// `[a, b]`: `(x_min, f(x_min))` with the bracket narrowed to `tol`.
    /// The oracle the descents are held to: derivative-free, so it
    /// shares nothing with them.
    fn golden_section(
        mut f: impl FnMut(f64) -> f64,
        mut a: f64,
        mut b: f64,
        tol: f64,
    ) -> (f64, f64) {
        assert!(b >= a, "golden_section: b < a");
        const INVPHI: f64 = 0.618_033_988_749_894_9; // 1/φ
        let mut c = b - (b - a) * INVPHI;
        let mut d = a + (b - a) * INVPHI;
        let mut fc = f(c);
        let mut fd = f(d);
        while (b - a).abs() > tol {
            if fc < fd {
                b = d;
                d = c;
                fd = fc;
                c = b - (b - a) * INVPHI;
                fc = f(c);
            } else {
                a = c;
                c = d;
                fc = fd;
                d = a + (b - a) * INVPHI;
                fd = f(d);
            }
        }
        let xm = 0.5 * (a + b);
        let fm = f(xm);
        if fm <= fc && fm <= fd {
            (xm, fm)
        } else if fc < fd {
            (c, fc)
        } else {
            (d, fd)
        }
    }

    #[test]
    fn golden_section_quadratic() {
        let (x, v) = golden_section(|x| (x - 2.3) * (x - 2.3) + 1.0, 0.0, 5.0, 1e-8);
        assert!((x - 2.3).abs() < 1e-6);
        assert!((v - 1.0).abs() < 1e-10);
    }

    #[test]
    fn golden_section_boundary_minimum() {
        // Monotone decreasing: minimum at the right edge.
        let (x, _) = golden_section(|x| -x, 0.0, 1.0, 1e-8);
        assert!(x > 1.0 - 1e-6);
    }

    proptest::proptest! {
        #[test]
        fn golden_section_finds_shifted_quadratic(c in -5.0f64..5.0) {
            let (x, _) = golden_section(|x| (x - c).powi(2), -10.0, 10.0, 1e-9);
            proptest::prop_assert!((x - c).abs() < 1e-6);
        }
    }

    /// Sweeps of [`descent_by_eval`] at most.
    const ORACLE_SWEEPS: usize = 12;

    /// The oracle of [`GramFit::descend`]: cyclic coordinate descent on
    /// the residual, every abscissa a full [`GramFit::eval`]. Each sweep
    /// runs a [`golden_section`] line search along every coordinate
    /// within `±r` of the current point — on the first sweep narrowed to
    /// the two grid cells around [`grid_argmin`]'s pick — `r` halves per
    /// sweep, and the descent stops after [`ORACLE_SWEEPS`] or once a
    /// sweep improves the residual by less than the tolerance. (The
    /// estimator's search until the solver replaced it.) `evals` is
    /// kernel passes.
    fn descent_by_eval(gfit: &mut GramFit<'_>, x0: &[f64], radius: f64) -> Optimum {
        let mut x = x0.to_vec();
        let mut best = gfit.eval(&x);
        let mut r = radius;
        for sweep in 0..ORACLE_SWEEPS {
            let before = best;
            for i in 0..x.len() {
                let xi = x[i];
                let mut eval_at = |v| {
                    x[i] = v;
                    let fv = gfit.eval(&x);
                    x[i] = xi;
                    fv
                };
                let (mut lo, mut hi) = (xi - r, xi + r);
                if sweep == 0 {
                    let cell = 2.0 * r / (PREFILTER_GRID - 1) as f64;
                    let m = grid_argmin(lo, hi, &mut eval_at);
                    (lo, hi) = ((m - cell).max(lo), (m + cell).min(hi));
                }
                let (xmin, fmin) = golden_section(eval_at, lo, hi, TOL_BINS);
                if fmin < best {
                    best = fmin;
                    x[i] = xmin;
                }
            }
            r *= 0.5;
            if before - best < TOL_BINS * TOL_BINS + 1e-9 * before.abs() {
                break;
            }
        }
        Optimum {
            x,
            value: best,
            evals: gfit.kernels(),
        }
    }

    /// One window of [`corpus`]: the dechirped samples, the search's
    /// start, its radius and whether it is the wide pass.
    struct Window {
        y: Vec<C64>,
        x0: Vec<f64>,
        radius: f64,
        wide: bool,
    }

    /// A seeded corpus of dechirped windows — K = 1…6 tones, 8–26 dB,
    /// every other one with boundary-split (step) tones, both search
    /// radii, coarse positions a pad-10 spectrum's half-cell off.
    fn corpus() -> Vec<Window> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x21_11E5);
        let mut windows = Vec::new();
        for case in 0..240 {
            let k = 1 + case % 6;
            let snr_db = rng.gen_range(8.0..26.0);
            let sigma = (10f64.powf(-snr_db / 10.0) / 2.0).sqrt();
            let mut y: Vec<C64> = (0..N)
                .map(|_| {
                    // Box–Muller, one complex Gaussian a draw.
                    let (u, v): (f64, f64) = (rng.gen_range(1e-12..1.0), rng.gen_range(0.0..1.0));
                    C64::from_polar(sigma * (-2.0 * u.ln()).sqrt(), TAU * v)
                })
                .collect();
            let mut truth: Vec<f64> = Vec::new();
            let mut x0 = Vec::new();
            for _ in 0..k {
                // Coarse positions reach the search `find_peaks`'
                // exclusion radius (0.8 bins) apart or more.
                let f = loop {
                    let f = rng.gen_range(1.0..N as f64 - 1.0);
                    if truth.iter().all(|g| (f - g).abs() >= 0.9) {
                        break f;
                    }
                };
                truth.push(f);
                let h = C64::from_polar(rng.gen_range(0.1..1.0), rng.gen_range(0.0..TAU));
                let step = (case / 6 % 2 == 1).then(|| {
                    let coeff = C64::from_polar(rng.gen_range(0.1..1.0), rng.gen_range(0.0..TAU));
                    (coeff, rng.gen_range(1..N))
                });
                for (t, v) in y.iter_mut().enumerate() {
                    let tone = C64::cis(TAU * f * t as f64 / N as f64);
                    let amp = match step {
                        Some((coeff, boundary)) if t < boundary => h + coeff,
                        _ => h,
                    };
                    *v += amp * tone;
                }
                x0.push(f + rng.gen_range(-0.05..0.05));
            }
            let wide = case / 12 % 2 == 1;
            let radius = if wide {
                WIDE_RADIUS_BINS
            } else {
                SEARCH_RADIUS_BINS
            };
            windows.push(Window {
                y,
                x0,
                radius,
                wide,
            });
        }
        windows
    }

    /// On [`corpus`]'s wide windows the basin-hopping sweep never leaves
    /// a point worse than its start, and it moves what it claims to:
    /// coordinates (all 420 of its lines when written).
    #[test]
    fn basin_sweep_never_raises_the_residual_and_moves_coordinates() {
        let mut moved = 0usize;
        for (case, w) in corpus().iter().enumerate().filter(|(_, w)| w.wide) {
            let k = w.x0.len();
            let start = GramFit::new(N, &w.y, k).eval(&w.x0);
            let mut x = w.x0.clone();
            let swept = basin_sweep(&mut GramFit::new(N, &w.y, k), &mut x, w.radius);
            assert!(swept <= start, "case {case} K={k}: {swept} vs {start}");
            let at = GramFit::new(N, &w.y, k).eval(&x);
            assert_eq!(
                at.to_bits(),
                swept.to_bits(),
                "case {case}: not the residual at x"
            );
            moved += x
                .iter()
                .zip(&w.x0)
                .filter(|(a, b)| a.to_bits() != b.to_bits())
                .count();
        }
        assert!(moved > 300, "{moved} coordinates moved");
    }

    /// On every window of [`corpus`] the estimator's search — the
    /// solver, after the basin-hopping sweep on a wide window — lands at
    /// or below the residual of coordinate descent by full solves
    /// ([`descent_by_eval`]), and spends under a quarter of its kernel
    /// passes.
    #[test]
    fn the_solver_lands_at_or_below_coordinate_descent_for_a_quarter_of_its_kernels() {
        let e = est();
        let (mut spent, mut oracle_spent) = (0usize, 0usize);
        let mut below = 0usize;
        for (case, w) in corpus().iter().enumerate() {
            let k = w.x0.len();
            let want = descent_by_eval(&mut GramFit::new(N, &w.y, k), &w.x0, w.radius);
            let got = e.search(&mut GramFit::new(N, &w.y, k), &w.x0, w.radius, w.wide);
            assert!(
                got.value <= want.value * (1.0 + 1e-8),
                "case {case} K={k} r={}: {} vs {} ({:+.2e} relative)",
                w.radius,
                got.value,
                want.value,
                got.value / want.value - 1.0
            );
            spent += got.evals;
            oracle_spent += want.evals;
            below += usize::from(got.value < want.value * (1.0 - 1e-8));
        }
        // Where the two differ, the solver is the lower (37 windows when
        // written): coordinate descent stalls along coupled coordinates.
        assert!(
            below > 20,
            "the solver beat coordinate descent on {below} windows"
        );
        assert!(
            4 * spent <= oracle_spent,
            "the solver spent {spent} kernel passes, coordinate descent {oracle_spent}"
        );
    }

    /// One case of [`tone_corpus`]: segments of one tone, each at its own
    /// gain, back to back; the truth, the fit's start and whether noise
    /// was added.
    struct ToneCase {
        samples: Vec<C64>,
        lens: Vec<usize>,
        truth: f64,
        start: f64,
        noiseless: bool,
    }

    impl ToneCase {
        /// The fit over this case's segments, each of basis energy `L`.
        fn fit<'a>(&self, room: &'a mut [C64]) -> ToneFit<'a> {
            let mut fit = ToneFit::new(N, room);
            let mut at = 0;
            for &len in &self.lens {
                fit.push(len, len as f64)
                    .copy_from_slice(&self.samples[at..at + len]);
                at += len;
            }
            fit
        }
    }

    /// A seeded corpus for [`ToneFit`]: 1–6 segments of `N/4` to `2N`
    /// samples of the tone at `truth`, each at a random gain, noiseless
    /// on every fourth case and at 0–30 dB otherwise; the fit starts
    /// within ±0.3 bins of the truth.
    fn tone_corpus() -> Vec<ToneCase> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x70_4E);
        (0..240)
            .map(|case| {
                let truth = rng.gen_range(1.0..N as f64 - 1.0);
                let noiseless = case % 4 == 0;
                let sigma = if noiseless {
                    0.0
                } else {
                    (10f64.powf(-rng.gen_range(0.0..30.0) / 10.0) / 2.0).sqrt()
                };
                let mut samples = Vec::new();
                let mut lens = Vec::new();
                for _ in 0..1 + case % 6 {
                    let len = rng.gen_range(N / 4..=2 * N);
                    let g = C64::from_polar(rng.gen_range(0.3..1.0), rng.gen_range(0.0..TAU));
                    samples.extend((0..len).map(|t| {
                        let (u, v): (f64, f64) =
                            (rng.gen_range(1e-12..1.0), rng.gen_range(0.0..1.0));
                        g * C64::cis(TAU * truth * t as f64 / N as f64)
                            + C64::from_polar(sigma * (-2.0 * u.ln()).sqrt(), TAU * v)
                    }));
                    lens.push(len);
                }
                let start = truth + rng.gen_range(-0.3..0.3);
                ToneCase {
                    samples,
                    lens,
                    truth,
                    start,
                    noiseless,
                }
            })
            .collect()
    }

    /// On a noiseless case the fit lands on the tone; on a noisy one at
    /// or below the residual of a golden-section search over the same
    /// box, `±0.6` bins around the start. "On" is 1e-8 bins, not the
    /// 1e-9 a converged fit would reach: the loop's stop and its
    /// accept-iff-lower leave the last nanobins. A last step (under
    /// `TOL_BINS/2`) accepted at damping `λ` leaves `λ` times itself to
    /// go (3.9e-9 bins at worst when written), and a last step that was
    /// the right one is rejected where `R` does not resolve it — a move
    /// of 8e-9 bins at the minimum changes `R` by less than its rounding
    /// (8.4e-9 at worst). One undamped Newton step from the fit's result
    /// lands within 1.5e-14 bins on every case.
    #[test]
    fn the_tone_fit_lands_on_the_truth_or_below_a_golden_section() {
        let mut room = vec![C64::ZERO; 12 * N];
        let (mut noiseless, mut noisy, mut below) = (0, 0, 0);
        for (case, c) in tone_corpus().iter().enumerate() {
            let mut fit = c.fit(&mut room);
            let got = fit.descend(c.start, 0.3);
            if c.noiseless {
                assert!(
                    (got - c.truth).abs() <= 1e-8,
                    "case {case}: {got} vs truth {}",
                    c.truth
                );
                noiseless += 1;
                continue;
            }
            let value = fit.residual(got);
            let (at, want) =
                golden_section(|f| fit.residual(f), c.start - 0.6, c.start + 0.6, TOL_BINS);
            assert!(
                value <= want + 1e-10 * want.abs(),
                "case {case}: {value} at {got} vs {want} at {at} ({:+.2e} relative)",
                value / want - 1.0
            );
            below += usize::from(value < want - 1e-12 * want.abs());
            noisy += 1;
        }
        assert!(noiseless >= 50 && noisy >= 150, "{noiseless} / {noisy}");
        // Below on 173 of 180 noisy cases when written; the worst of the
        // other seven is 4.1e-12 relative above, a descent that stopped
        // 3e-7 bins short.
        assert!(
            below >= 150,
            "below the golden section on {below} of {noisy}"
        );
    }

    /// [`ToneFit`]'s slope is `R`'s central difference on every case,
    /// and its curvature `R`'s second difference at a noiseless case's
    /// truth, where Kaufman's normal matrix is the Hessian.
    #[test]
    fn the_tone_fit_slope_and_curvature_are_finite_differences_of_its_residual() {
        let mut room = vec![C64::ZERO; 12 * N];
        for (case, c) in tone_corpus().iter().enumerate() {
            let mut fit = c.fit(&mut room);
            for f in [c.start, c.truth + 0.02, c.truth] {
                let h = 1e-5;
                let (up, down) = (fit.residual(f + h), fit.residual(f - h));
                let r = fit.residual(f);
                let fd = (up - down) / (2.0 * h);
                assert!(
                    (fit.slope - fd).abs() <= 1e-6 * (fd.abs() + r.abs()),
                    "case {case} at {f}: slope {} vs {fd}",
                    fit.slope
                );
            }
            if c.noiseless {
                let h = 1e-4;
                let (up, down) = (fit.residual(c.truth + h), fit.residual(c.truth - h));
                let r = fit.residual(c.truth);
                let fd = (up - 2.0 * r + down) / (h * h);
                assert!(
                    (fit.curvature - fd).abs() <= 1e-5 * fd.abs(),
                    "case {case}: curvature {} vs {fd}",
                    fit.curvature
                );
            }
        }
    }

    /// With no segment the residual is flat at zero and a descent
    /// returns its start, whatever the radius.
    #[test]
    fn an_empty_tone_fit_returns_its_start() {
        let mut fit = ToneFit::new(N, &mut []);
        assert_eq!(fit.residual(3.7).to_bits(), 0f64.to_bits());
        assert_eq!(fit.descend(3.7, 0.3).to_bits(), 3.7f64.to_bits());
    }

    /// The tone at `f` bins over `n` chips, from `C64::cis` (not the
    /// backend's tone kernel).
    fn cis_tone(n: usize, f: f64) -> Vec<C64> {
        let w = std::f64::consts::TAU * f / n as f64;
        (0..n).map(|t| C64::cis(w * t as f64)).collect()
    }

    /// [`boundary_scan`]'s oracle: at `c = 0` and every boundary in
    /// `bounds`, fit the two gains by direct sums over their segments and
    /// add up what they explain.
    fn direct_boundary_scan(
        de: &[C64],
        tail: &[C64],
        head: &[C64],
        bounds: std::ops::Range<usize>,
    ) -> Split {
        let n = de.len();
        let explained = |p: C64, len: usize| {
            if len == 0 {
                0.0
            } else {
                p.norm_sqr() / len as f64
            }
        };
        let mut best = Split {
            chip: 0,
            explained: -1.0,
            tail: C64::ZERO,
            head: C64::ZERO,
        };
        for c in std::iter::once(0).chain(bounds) {
            let pt = conj_dot(&tail[..c], &de[..c]);
            let ph = conj_dot(&head[c..], &de[c..]);
            let score = explained(pt, c) + explained(ph, n - c);
            if score > best.explained {
                best = Split {
                    chip: c,
                    explained: score,
                    tail: pt,
                    head: ph,
                };
            }
        }
        best
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        // Two tones (a transition window) or one tone on both sides (the
        // step model), each with its own gain, plus noise, read over every
        // boundary or a centred band of them: the scan's boundary, score
        // and segment projections are the direct fit's.
        #[test]
        fn boundary_scan_matches_the_direct_two_gain_fit(
            noise in proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 256..257),
            mu in 0.0f64..256.0,
            hop in proptest::sample::select(vec![0.0, 24.0, 101.3]),
            at in 0.0f64..1.0,
            level in 0.05f64..2.0,
            phase in 0.0f64..std::f64::consts::TAU,
            edge in proptest::sample::select(vec![1usize, 16, 40]),
        ) {
            let n = noise.len();
            let delta = (at * n as f64) as usize;
            let tail = cis_tone(n, mu);
            let mut head = cis_tone(n, (mu + hop).rem_euclid(n as f64));
            let g_head = C64::cis(phase);
            let mut de: Vec<C64> = (0..n)
                .map(|t| if t < delta { tail[t] } else { g_head * head[t] })
                .collect();
            for (v, &(re, im)) in de.iter_mut().zip(&noise) {
                *v += C64 { re, im }.scale(level);
            }
            let bounds = edge..n - edge + 1;
            let slow = direct_boundary_scan(&de, &tail, &head, bounds.clone());
            let mut tail = tail;
            projection_prefix(&de, &mut tail);
            let head_total = projection_prefix(&de, &mut head);
            let fast = boundary_scan(&tail, &head, head_total, bounds);
            // Cauchy–Schwarz: no segment projection exceeds √(n·‖de‖²).
            let scale = (n as f64 * choir_dsp::complex::energy(&de)).sqrt();
            proptest::prop_assert_eq!(fast.chip, slow.chip);
            proptest::prop_assert!((fast.explained - slow.explained).abs() <= 1e-9 * slow.explained, "{:?} vs {:?}", fast, slow);
            proptest::prop_assert!((fast.tail - slow.tail).abs() <= 1e-12 * scale, "{:?} vs {:?}", fast, slow);
            proptest::prop_assert!((fast.head - slow.head).abs() <= 1e-12 * scale, "{:?} vs {:?}", fast, slow);
        }
    }

    /// [`OffsetEstimator::fit_steps`]' oracle for one component at `f`:
    /// the least-squares fit on `[tone, tone·1{t<c}]` by the general solver
    /// at every boundary `c ∈ 1..n`, the boundary whose gain over the tone
    /// alone, `r_tone − r(c)`, weighs most once scaled by
    /// `(c·(n − c)/n)^(1 − γ)` — [`step_boundary`]'s weighted CUSUM, since
    /// the gain is `|D(c)|²·n/(c·(n − c))` — and the step rule there.
    /// Returns the kept boundary (`None`: no step) and the residual.
    fn direct_step_fit(de: &[C64], f: f64) -> (Option<usize>, f64) {
        let n = de.len();
        let tone = cis_tone(n, f);
        let h = least_squares_refs(&[&tone], de).unwrap();
        let r_tone = residual_energy_refs(&[&tone], &h, de);
        let mut best = (0, f64::NEG_INFINITY, r_tone);
        for c in 1..n {
            let rect: Vec<C64> = (0..n)
                .map(|t| if t < c { tone[t] } else { C64::ZERO })
                .collect();
            let refs = [tone.as_slice(), rect.as_slice()];
            let x = least_squares_refs(&refs, de).unwrap();
            let r = residual_energy_refs(&refs, &x, de);
            let len = (c * (n - c)) as f64 / n as f64;
            let score = (r_tone - r) * len.powf(1.0 - STEP_WEIGHT_EXPONENT);
            if score > best.1 {
                best = (c, score, r);
            }
        }
        if best.2 < r_tone * (1.0 - STEP_GAIN_THRESHOLD) {
            (Some(best.0), best.2)
        } else {
            (None, r_tone)
        }
    }

    /// A seeded corpus against [`direct_step_fit`] at three symbol
    /// lengths: a noiseless stepped tone comes back with its boundary —
    /// one chip from either end included — and its gains, a pure tone
    /// keeps at most a rounding-level step, and every stepped window,
    /// noiseless or noisy, keeps the oracle's decision, boundary and
    /// residual.
    #[test]
    fn fit_steps_matches_the_direct_least_squares_fit_at_every_boundary() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5_7E95);
        let mut kept = 0;
        for n in [128usize, 256, 1024] {
            let e = OffsetEstimator::new(n, EstimatorConfig::default());
            let fit = |de: &[C64], f: f64| {
                let mut comps = [ComponentEstimate::tone(f, C64::ONE)];
                e.fit_steps(de, &mut comps, 1);
                comps[0]
            };
            for boundary in [1, n / 16 - 1, n / 2 + 3, n - 1] {
                let f = rng.gen_range(1.0..n as f64 - 1.0);
                let h = C64::from_polar(rng.gen_range(0.2..1.0), rng.gen_range(0.0..TAU));
                let coeff = C64::from_polar(rng.gen_range(0.2..1.0), rng.gen_range(0.0..TAU));
                let tone = cis_tone(n, f);
                let clean: Vec<C64> = (0..n)
                    .map(|t| {
                        if t < boundary {
                            (h + coeff) * tone[t]
                        } else {
                            h * tone[t]
                        }
                    })
                    .collect();
                let got = fit(&clean, f);
                let step = got.step.expect("a stepped tone keeps its step");
                assert_eq!(step.boundary, boundary, "n {n}");
                assert!((got.channel - h).abs() < 1e-9, "n {n} c {boundary}");
                assert!((step.coeff - coeff).abs() < 1e-9, "n {n} c {boundary}");

                // The tone explains a pure tone but for rounding, so a split
                // of that rounding may pass the relative rule: it is no step.
                let pure: Vec<C64> = tone.iter().map(|t| h * t).collect();
                let got = fit(&pure, f);
                assert!(
                    got.step.is_none_or(|s| s.coeff.abs() < 1e-9),
                    "pure tone, n {n}"
                );
                assert!((got.channel - h).abs() < 1e-9, "n {n}");

                for level in [0.0, 0.05, 0.3] {
                    let mut de = clean.clone();
                    for v in de.iter_mut() {
                        let (re, im): (f64, f64) =
                            (rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
                        *v += c64(re, im).scale(level);
                    }
                    let (want, r_want) = direct_step_fit(&de, f);
                    let got = fit(&de, f);
                    let r_got = e.full_residual(&de, &[got]);
                    assert_eq!(
                        got.step.map(|s| s.boundary),
                        want,
                        "n {n} c {boundary} level {level}"
                    );
                    // A noiseless fit leaves rounding: bounded by the window.
                    let tol = 1e-9 * r_want.max(1e-6 * choir_dsp::complex::energy(&de));
                    assert!((r_got - r_want).abs() <= tol, "n {n}: {r_got} vs {r_want}");
                    kept += usize::from(want.is_some());
                }
            }
        }
        assert!(
            kept >= 24,
            "{kept} of 36 windows kept a step (29 when written)"
        );
    }

    #[test]
    fn empty_window_no_components() {
        let e = est();
        assert!(e.estimate(&vec![C64::ZERO; N]).is_empty());
    }

    #[test]
    #[should_panic(expected = "wrong window length")]
    fn wrong_window_length_panics() {
        est().dechirp(&[C64::ZERO; 64]);
    }
}
