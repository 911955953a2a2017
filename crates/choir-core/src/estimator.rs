//! Fractional frequency-offset estimation — Sec. 5.1 / Algorithm 1.
//!
//! For one received symbol window containing `K` colliding chirps, the
//! estimator (1) dechirps and takes a zero-padded FFT, (2) reads coarse
//! peak positions, (3) fits complex channels by least squares (Eqn. 2),
//! (4) reconstructs the signal and measures the residual power (Eqn. 3),
//! and (5) searches the neighbourhood of the coarse positions for the
//! offsets that minimise the residual (Eqn. 4). The residual surface is
//! locally convex (Fig. 4), so cyclic coordinate descent with a shrinking
//! bracket converges quickly; multi-start guards against side-lobe minima.
//!
//! The descent's first sweep, the one with the widest brackets, scores a
//! fixed grid of candidate offsets per coordinate with the same residual
//! probe its golden section uses, and polishes only the bracket around
//! the grid argmin. The refined output is bit-identical on every DSP
//! backend.

use crate::error::DecodeError;
use crate::profile::{scope, Stage};
use choir_dsp::checks;
use choir_dsp::complex::C64;
use choir_dsp::fft::FftPlan;
use choir_dsp::linalg::{
    gram_residual, least_squares_refs, residual_energy_refs, CholeskyFactor, PIVOT_REL_TOL,
};
use choir_dsp::optim::{golden_section, Optimum};
use choir_dsp::peaks::{dirichlet, find_peaks, Peak};
use choir_dsp::workspace;
use lora_phy::chirp::base_downchirp_cached;
use std::cell::RefCell;
use std::rc::Rc;

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

/// Residual-search bracket around each coarse position, in bins. Coarse
/// positions are accurate to ~1/pad bins, so ±0.5/pad plus margin is
/// enough.
const SEARCH_RADIUS_BINS: f64 = 0.15;

/// Bracket of the first step-corrected refinement pass, in bins: a
/// boundary-split tone's coarse peak can sit half a bin off.
const WIDE_RADIUS_BINS: f64 = 0.6;

/// Convergence tolerance of the offset search, in bins.
const TOL_BINS: f64 = 1e-4;

/// Maximum coordinate-descent sweeps.
const MAX_SWEEPS: usize = 12;

/// Minimum relative residual improvement for a step term to be kept.
const STEP_GAIN_THRESHOLD: f64 = 0.02;

/// Number of grid points the first sweep of [`OffsetEstimator::refine`]'s
/// descent probes per coordinate before handing the two cells around the
/// grid argmin to the golden-section polish.
const PREFILTER_GRID: usize = 8;

/// The bracket a first-sweep line search polishes: `score` at
/// [`PREFILTER_GRID`] evenly spaced points of `[lo, hi]`, in order, and
/// the two cells around the argmin (the lowest index on a tie).
fn grid_bracket(lo: f64, hi: f64, mut score: impl FnMut(f64) -> f64) -> (f64, f64) {
    let step = (hi - lo) / (PREFILTER_GRID - 1) as f64;
    let grid: [f64; PREFILTER_GRID] = std::array::from_fn(|g| lo + g as f64 * step);
    let (mut m, mut m_score) = (0, score(grid[0]));
    for (g, &v) in grid.iter().enumerate().skip(1) {
        let s = score(v);
        if s < m_score {
            (m, m_score) = (g, s);
        }
    }
    (
        grid[m.saturating_sub(1)],
        grid[(m + 1).min(PREFILTER_GRID - 1)],
    )
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
}

/// Distinct tone bases kept per thread in the basis LRU. Refinement of a
/// K≤6-component window revisits at most a few dozen grid points between
/// evictions (fitted positions, boundary-scan tones, model resynthesis).
const BASIS_CACHE_CAP: usize = 64;

/// LRU entries: `((n, freq.to_bits()), shared basis)`, most recent last.
type BasisCache = Vec<((usize, u64), Rc<Vec<C64>>)>;

thread_local! {
    /// Per-thread LRU of tone bases keyed by the exact `(n, f.to_bits())`
    /// pair; most recently used entry last.
    static BASIS_CACHE: RefCell<BasisCache> = const { RefCell::new(Vec::new()) };
    /// Per-thread scratch factor for the boundary scan's bordered solves,
    /// so candidate evaluations stay allocation-free (the estimator itself is
    /// shared by every slot worker).
    static BORDER_SCRATCH: RefCell<CholeskyFactor> = RefCell::new(CholeskyFactor::new());
}

/// Returns the tone basis for `(n, freq_bins)`, served from the calling
/// thread's LRU. The offset search revisits the same grid points
/// constantly — fitted positions feed `fit`, the boundary scans and model
/// resynthesis — so steady-state refinement stops paying a synthesis per
/// request. A hit is bitwise identical to recomputation: the content is
/// a pure function of the key.
fn cached_basis(n: usize, freq_bins: f64) -> Rc<Vec<C64>> {
    let key = (n, freq_bins.to_bits());
    BASIS_CACHE.with(|cell| {
        let mut cache = cell.borrow_mut();
        if let Some(pos) = cache.iter().position(|(k, _)| *k == key) {
            let entry = cache.remove(pos);
            let rc = Rc::clone(&entry.1);
            cache.push(entry);
            return rc;
        }
        let mut b = vec![C64::ZERO; n];
        choir_dsp::backend::tone_into(&mut b, n, freq_bins);
        let rc = Rc::new(b);
        if cache.len() >= BASIS_CACHE_CAP {
            cache.remove(0);
        }
        cache.push((key, Rc::clone(&rc)));
        rc
    })
}

/// Incremental normal-equation evaluator — the offset search's hot
/// kernel. Holds the Gram matrix `G = BᴴB`, projection `p = Bᴴy` and
/// Cholesky factor for the current frequency hypothesis, and updates
/// only the rows/columns of coordinates whose frequency actually changed
/// (cyclic coordinate descent moves exactly one per probe). A probe of
/// the residual at frequency `f` is one DTFT bin of `y`: the moved
/// coordinate costs one fused
/// [`tone_conj_dot`](choir_dsp::backend::tone_conj_dot) — no tone is
/// written, none read back. The Gram of pure tones needs no samples at
/// all — its diagonal is `n` and entry `(i, j)` is the Dirichlet kernel
/// `Σ_t e^{j2π(f_j − f_i)t/n}` in closed form ([`dirichlet`]) — and the
/// residual follows from the Gram identity (`O(K²)`) instead of a
/// time-domain reconstruction. Every buffer is owned and reused, so
/// steady-state probes perform zero heap allocations, and no basis
/// column is ever written.
///
/// Two ways to ask for a residual. [`Self::eval`] solves the whole
/// system at a point. A line search moves one coordinate and asks
/// many times, so it opens the line once ([`Self::hold`]: the `K − 1`
/// fixed tones are factored and solved there) and each abscissa
/// ([`Self::probe`]) eliminates only the tone that moved — the same
/// residual by block elimination, `O(K)` kernels and `O(K²)` flops where
/// a full solve spends `O(K³)`.
///
/// A Gram entry is a pure function of its two frequencies, always
/// evaluated in the `(i<j, mirror-conjugate)` orientation, and a
/// projection of its one, so an incrementally maintained system is
/// bit-identical to a rebuilt one, whichever of the two calls moved it.
/// Neither is the arithmetic of [`least_squares_refs`] on sampled bases
/// (the Grams agree to 1e-13·`n` at SF8, 2e-12·`n` at SF12 — the sampled
/// tones' phase rounding — and the fused projection to `4·n·ε·Σ|y|`):
/// this type scores hypotheses for the search, and the channels the
/// estimator reports come from a time-domain [`OffsetEstimator::fit`] at
/// the converged point.
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
    chol: CholeskyFactor,
    coeffs: Vec<C64>,
    solved: bool,
    line: Line,
}

/// The line a search is held on: coordinate `i` moves, the fixed set
/// `F` (every other coordinate, ascending) is solved once.
struct Line {
    /// The moving coordinate while `F`'s system stands — every fixed
    /// frequency finite, its Gram factored. `None`: every probe is the
    /// worst fit.
    held: Option<usize>,
    /// `G_F`, row-major `(K−1)²`, and its factor.
    gram: Vec<C64>,
    chol: CholeskyFactor,
    /// `p_F` and `c_F = G_F⁻¹p_F`.
    p: Vec<C64>,
    coeffs: Vec<C64>,
    /// `‖y‖² − Re(c_Fᴴp_F)`: the residual with the moving tone left out.
    residual: f64,
    /// Per-probe scratch: the moving tone's Gram column over `F`, and
    /// `L_F⁻¹` of it.
    g: Vec<C64>,
    u: Vec<C64>,
}

/// The `s`-th member of the fixed set `F` — every coordinate but `i`,
/// ascending.
fn fixed_coordinate(s: usize, i: usize) -> usize {
    s + usize::from(s >= i)
}

impl<'a> GramFit<'a> {
    /// Builds an evaluator for `k` components over the dechirped window
    /// `y` (`n` chips per symbol), nothing projected yet. The first
    /// [`Self::eval`] fills every column; later probes update only what
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
        // diagonal is set once, probes only move off-diagonal entries.
        let mut gram = vec![C64::ZERO; k * k];
        for i in 0..k {
            gram[i * k + i] = C64::from_re(n as f64);
        }
        let f = k - 1;
        GramFit {
            n,
            y,
            y_energy: choir_dsp::complex::energy(y),
            k,
            freqs: vec![f64::NAN; k],
            gram,
            p: vec![C64::ZERO; k],
            chol: CholeskyFactor::new(),
            coeffs: vec![C64::ZERO; k],
            solved: false,
            line: Line {
                held: None,
                gram: vec![C64::ZERO; f * f],
                chol: CholeskyFactor::new(),
                p: vec![C64::ZERO; f],
                coeffs: vec![C64::ZERO; f],
                residual: 0.0,
                g: vec![C64::ZERO; f],
                u: vec![C64::ZERO; f],
            },
        }
    }

    /// Whether the most recent call was an [`Self::eval`] that produced
    /// a non-singular solve, i.e. whether the held coefficients match
    /// the held frequencies. After a singular or non-finite evaluation,
    /// or any [`Self::probe`], the coefficients are stale.
    pub fn solved(&self) -> bool {
        self.solved
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

    /// Brings every coordinate but `skip` to the hypothesis `x`: a
    /// coordinate whose frequency differs from the one it was last
    /// projected at is re-projected, and its Gram row and column follow.
    /// `x` is finite wherever it is read.
    // hot:noalloc — the per-probe path only rewrites owned buffers.
    fn sync(&mut self, x: &[f64], skip: Option<usize>) {
        let k = self.k;
        let mut changed = 0u64;
        for (i, &xi) in x.iter().enumerate() {
            if Some(i) != skip && xi.to_bits() != self.freqs[i].to_bits() {
                self.p[i] = choir_dsp::backend::tone_conj_dot(self.n, xi, self.y);
                self.freqs[i] = xi;
                changed |= 1 << i;
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
        let k = self.k;
        debug_assert_eq!(x.len(), k);
        self.solved = false;
        if x.iter().any(|xi| !xi.is_finite()) {
            return self.y_energy;
        }
        self.sync(x, None);
        if !self.chol.factor(k, &self.gram) {
            return self.y_energy;
        }
        self.chol.solve_into(&self.p, &mut self.coeffs);
        self.solved = true;
        gram_residual(k, &self.gram, &self.p, &self.coeffs, self.y_energy)
    }

    /// Opens a line search along coordinate `i` with every other
    /// coordinate fixed at `x` (`x[i]` is not read): the fixed tones are
    /// brought to `x` as [`Self::eval`] would bring them, their
    /// `(K−1)×(K−1)` Gram is taken from the entries already held and
    /// factored once, and `c_F = G_F⁻¹p_F`, `R_F = ‖y‖² − Re(c_Fᴴp_F)` are
    /// kept for [`Self::probe`]. A non-finite fixed coordinate or a
    /// singular `G_F` leaves the line closed: every probe on it reads
    /// the window energy, as every [`Self::eval`] there would.
    // hot:noalloc — `Line`'s buffers were sized in `new`.
    pub fn hold(&mut self, i: usize, x: &[f64]) {
        let k = self.k;
        debug_assert!(i < k && x.len() == k);
        self.line.held = None;
        if (0..k).any(|j| j != i && !x[j].is_finite()) {
            return;
        }
        self.sync(x, Some(i));
        let f = k - 1;
        self.line.residual = self.y_energy;
        if f > 0 {
            // Row/column `i` drops out of the full Gram.
            let at = |s| fixed_coordinate(s, i);
            for r in 0..f {
                self.line.p[r] = self.p[at(r)];
                for c in 0..f {
                    self.line.gram[r * f + c] = self.gram[at(r) * k + at(c)];
                }
            }
            let line = &mut self.line;
            if !line.chol.factor(f, &line.gram) {
                return;
            }
            line.chol.solve_into(&line.p, &mut line.coeffs);
            let mut cp = 0.0;
            for (c, p) in line.coeffs.iter().zip(&line.p) {
                cp += (c.conj() * p).re;
            }
            line.residual -= cp;
        }
        self.line.held = Some(i);
    }

    /// Residual power with the held coordinate at `v` and the rest where
    /// [`Self::hold`] fixed them — [`Self::eval`]'s value there, by block
    /// elimination. Only the moving tone is touched: its projection
    /// `p_i` (one fused bin) and its Gram column `g` over `F` (the same
    /// [`dirichlet`] calls, kept in the Gram for the next full solve);
    /// then `u = L_F⁻¹g`, the Schur complement `s = n − ‖u‖²` — the pivot
    /// this tone would get last in the elimination order, and rejected
    /// as any pivot is — and
    ///
    /// `‖y‖² − pᴴG⁻¹p = R_F − |p_i − gᴴc_F|² / s`.
    ///
    /// The same residual `eval` reports, rounded along another path (on
    /// tones the coarse stage's 0.8-bin exclusion apart the two agree to
    /// 1e-13 of the window energy; `kernel_props.rs` bounds any pair at
    /// 1e-9): an objective, only ever compared. A non-finite `v`, a closed line or a rejected pivot
    /// reads the window energy.
    // hot:noalloc — the per-probe path only rewrites owned buffers.
    pub fn probe(&mut self, v: f64) -> f64 {
        self.solved = false;
        let Some(i) = self.line.held.filter(|_| v.is_finite()) else {
            return self.y_energy;
        };
        let k = self.k;
        let nn = self.n as f64;
        self.p[i] = choir_dsp::backend::tone_conj_dot(self.n, v, self.y);
        self.freqs[i] = v;
        for s in 0..k - 1 {
            let j = fixed_coordinate(s, i);
            self.set_gram_pair(i.min(j), i.max(j));
            self.line.g[s] = self.gram[j * k + i];
        }
        let line = &mut self.line;
        let mut schur = nn;
        let mut r = self.p[i];
        if k > 1 {
            line.chol.forward_into(&line.g, &mut line.u);
            let mut uu = 0.0;
            for u in &line.u {
                uu += u.norm_sqr();
            }
            schur -= uu;
            if !(schur.is_finite() && schur > nn * PIVOT_REL_TOL) {
                return self.y_energy;
            }
            let mut gc = C64::ZERO;
            for (g, c) in line.g.iter().zip(&line.coeffs) {
                gc += g.conj() * c;
            }
            r -= gc;
        }
        (line.residual - r.norm_sqr() / schur).max(0.0)
    }
}

/// Per-tone boundary-scan state reused across `fit_steps` passes: the
/// tone basis, the prefix sums that turn every rect-truncated Gram entry
/// into an O(1) lookup, and the factored 1×1 leading block every
/// candidate's bordered factorization shares.
struct StepScan {
    base: Rc<Vec<C64>>,
    /// `pbb[c] = Σ_{t<c} base[t]ᴴ·base[t]`: `pbb[n]` is the tone's Gram
    /// diagonal; `pbb[c]` is both `⟨base, rect_c⟩` and `⟨rect_c, rect_c⟩`
    /// (a rect-truncated basis equals the tone over `[0, c)`), by the
    /// same accumulation order [`choir_dsp::linalg::conj_dot`] uses.
    pbb: Vec<C64>,
    chol1: CholeskyFactor,
}

/// Cache of [`StepScan`]s keyed by `freq_bins.to_bits()`, living for one
/// [`OffsetEstimator::fit_steps`] call (all passes).
type StepScanCache = Vec<(u64, StepScan)>;

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

    /// Basis vector `e^{j2π f t / n}` for a tone at `freq_bins`, shared
    /// through the per-thread LRU (see [`cached_basis`]).
    fn basis(&self, freq_bins: f64) -> Rc<Vec<C64>> {
        cached_basis(self.n, freq_bins)
    }

    /// Least-squares channel fit (Eqn. 2) at the given tone positions,
    /// returning the channels and the residual power (Eqn. 3). Positions
    /// too close together make the system singular; in that case the
    /// residual is reported as the full signal energy (worst possible fit).
    pub fn fit(&self, dechirped: &[C64], freqs: &[f64]) -> (Vec<C64>, f64) {
        match self.try_fit(dechirped, freqs) {
            Ok(out) => out,
            Err(_) => (
                vec![C64::ZERO; freqs.len()],
                choir_dsp::complex::energy(dechirped),
            ),
        }
    }

    /// Fallible form of [`Self::fit`]: a singular system yields a typed
    /// [`DecodeError::SingularFit`] naming the component count instead of
    /// the worst-possible-residual fallback.
    pub fn try_fit(
        &self,
        dechirped: &[C64],
        freqs: &[f64],
    ) -> Result<(Vec<C64>, f64), DecodeError> {
        assert!(!freqs.is_empty(), "fit: need at least one tone");
        let basis: Vec<Rc<Vec<C64>>> = freqs.iter().map(|&f| self.basis(f)).collect();
        let refs: Vec<&[C64]> = basis.iter().map(|b| b.as_slice()).collect();
        match least_squares_refs(&refs, dechirped) {
            Some(channels) => {
                let r = residual_energy_refs(&refs, &channels, dechirped);
                Ok((channels, r))
            }
            None => Err(DecodeError::SingularFit {
                components: freqs.len(),
            }
            .traced()),
        }
    }

    /// Cyclic coordinate descent over the joint residual: each sweep runs
    /// a golden-section line search along every coordinate within
    /// `±radius` of the current point, the radius halves per sweep, and
    /// the descent stops after `MAX_SWEEPS` or once a full sweep improves
    /// the residual by less than the tolerance. A line search solves only
    /// what moves: it is opened once ([`GramFit::hold`] factors the fixed
    /// tones) and each abscissa is a [`GramFit::probe`].
    ///
    /// The first sweep's brackets are the widest, so there each line
    /// search first probes a fixed [`PREFILTER_GRID`]-point grid across
    /// its bracket and golden-polishes only the two cells around the grid
    /// argmin. Grid and polish score the one objective, the joint
    /// least-squares residual.
    // The returned coordinate vector is the one heap allocation: the
    // grid is on the stack, the line's scratch is `gfit`'s, and every
    // probe runs through the noalloc-annotated `GramFit::hold` / `probe`.
    fn ccd_refine(&self, gfit: &mut GramFit<'_>, x0: &[f64], radius: f64) -> Optimum {
        let mut x = x0.to_vec();
        let mut best = gfit.eval(&x);
        let mut evals = 1usize;
        let mut r = radius;
        for sweep in 0..MAX_SWEEPS {
            let before = best;
            for i in 0..x.len() {
                let xi = x[i];
                let (mut lo, mut hi) = (xi - r, xi + r);
                gfit.hold(i, &x);
                if sweep == 0 {
                    (lo, hi) = grid_bracket(lo, hi, |v| gfit.probe(v));
                    evals += PREFILTER_GRID;
                }
                let (xmin, fmin) = golden_section(|v| gfit.probe(v), lo, hi, TOL_BINS);
                // golden_section spends ~2 + log_φ(range/tol) evals.
                evals += 2 + (((hi - lo) / TOL_BINS).ln() / 0.481).max(0.0).ceil() as usize;
                if fmin < best {
                    best = fmin;
                    x[i] = xmin;
                }
            }
            r *= 0.5;
            // Absolute-plus-relative improvement test: residual energies
            // vary in scale by orders of magnitude.
            if before - best < TOL_BINS * TOL_BINS + 1e-9 * before.abs() {
                break;
            }
        }
        Optimum {
            x,
            value: best,
            evals,
        }
    }

    /// Fine stage (Eqn. 4): jointly refines the coarse positions by
    /// minimising the reconstruction residual. The search probes the
    /// residual through an incremental [`GramFit`] (allocation-free,
    /// `O(K²)` per probe) and narrows each first-sweep line search with
    /// a grid of the same probes (see `ccd_refine`);
    /// the converged positions then get one full time-domain
    /// verification fit, which is what the returned channels come from.
    /// Returns one estimate per input position (order preserved).
    pub fn refine(&self, window: &[C64], coarse_bins: &[f64]) -> Vec<ComponentEstimate> {
        assert!(!coarse_bins.is_empty(), "refine: no coarse positions");
        scope(Stage::Refine, || {
            let de = self.dechirp(window);
            let mut gfit = GramFit::new(self.n, &de, coarse_bins.len());
            let opt = self.ccd_refine(&mut gfit, coarse_bins, SEARCH_RADIUS_BINS);
            let (channels, _) = self.fit(&de, &opt.x);
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
        for c in comps {
            self.accumulate_component_model(c, &mut resid, true);
        }
        let e = resid.iter().map(|z| z.norm_sqr()).sum();
        workspace::put(resid);
        e
    }

    /// Adds (`subtract = false`) or subtracts (`subtract = true`) one
    /// component's dechirped-domain model — tone plus optional step —
    /// from `out`, streaming the cached basis without materialising the
    /// model vector.
    // hot:noalloc — a cache hit streams straight into the accumulator.
    fn accumulate_component_model(&self, c: &ComponentEstimate, out: &mut [C64], subtract: bool) {
        let b = self.basis(c.freq_bins);
        let n = out.len().min(b.len());
        // The amplitude is piecewise constant in `t` (head amplitude
        // before the step boundary, tail after), so the per-sample `amp`
        // selection becomes one backend axpy per segment — same
        // multiplies and adds, in the same order, per element.
        match &c.step {
            Some(st) if st.boundary > 0 => {
                let split = st.boundary.min(n);
                choir_dsp::backend::axpy(
                    &mut out[..split],
                    &b[..split],
                    c.channel + st.coeff,
                    subtract,
                );
                choir_dsp::backend::axpy(&mut out[split..n], &b[split..n], c.channel, subtract);
            }
            _ => choir_dsp::backend::axpy(&mut out[..n], &b[..n], c.channel, subtract),
        }
    }

    /// Fits the boundary-split term of each component (Sec. 6.1): scans the
    /// boundary over a coarse chip grid (then a fine scan) and keeps the
    /// split that best explains the residual, provided it improves it by at
    /// least `STEP_GAIN_THRESHOLD`. Runs `passes` greedy rounds so coupled
    /// components (e.g. a user's head and tail peaks) converge jointly.
    /// Operates in the dechirped domain.
    fn fit_steps(&self, dechirped: &[C64], comps: &mut [ComponentEstimate], passes: usize) {
        scope(Stage::Refine, || {
            // Tone bases, Gram prefix sums and the factored leading block
            // depend only on each component's frequency, which fit_steps
            // never moves — build them once, reuse across all passes.
            let mut scans: StepScanCache = StepScanCache::new();
            for _ in 0..passes {
                self.fit_steps_once(dechirped, comps, &mut scans);
            }
        });
    }

    /// Looks up (or builds) the boundary-scan state for one tone.
    fn step_scan<'a>(&self, scans: &'a mut StepScanCache, freq_bins: f64) -> &'a StepScan {
        let key = freq_bins.to_bits();
        let idx = match scans.iter().position(|(k, _)| *k == key) {
            Some(i) => i,
            None => {
                let base = self.basis(freq_bins);
                let mut pbb = Vec::with_capacity(self.n + 1);
                let mut acc = C64::ZERO;
                pbb.push(acc);
                for &bv in base.iter() {
                    acc += bv.conj() * bv;
                    pbb.push(acc);
                }
                let mut chol1 = CholeskyFactor::new();
                let ok = chol1.factor(1, std::slice::from_ref(&pbb[self.n]));
                debug_assert!(ok, "a tone's Gram diagonal is always positive");
                scans.push((key, StepScan { base, pbb, chol1 }));
                scans.len() - 1
            }
        };
        &scans[idx].1
    }

    // hot:noalloc — candidate evaluations run entirely on prefix sums and
    // per-thread scratch; per-pass scratch comes from the workspace arena.
    fn fit_steps_once(
        &self,
        dechirped: &[C64],
        comps: &mut [ComponentEstimate],
        scans: &mut StepScanCache,
    ) {
        let n = self.n;
        // Current residual with all components (tone-only at this point).
        let mut resid = workspace::take(dechirped.len());
        resid.copy_from_slice(dechirped);
        for c in comps.iter() {
            self.accumulate_component_model(c, &mut resid, true);
        }
        // Strongest components first.
        let mut order: Vec<usize> = (0..comps.len()).collect();
        order.sort_by(|&a, &b| comps[b].channel.abs().total_cmp(&comps[a].channel.abs()));
        let mut pby = workspace::take(n + 1);
        for idx in order {
            // Add this component's model back; refit it with a step.
            self.accumulate_component_model(&comps[idx], &mut resid, false);
            let scan = self.step_scan(scans, comps[idx].freq_bins);
            // Projection prefix `pby[c] = Σ_{t<c} base[t]ᴴ·resid[t]` and
            // the target energy: together with `scan.pbb` they make every
            // candidate's normal equations O(1) lookups — for the system
            // `[base, rect_c]`, G = [[pbb[n], pbb[c]], [pbb[c]ᴴ, pbb[c]]]
            // and p = [pby[n], pby[c]].
            let mut acc = C64::ZERO;
            pby[0] = acc;
            let mut y_energy = 0.0;
            for (t, y) in resid.iter().enumerate() {
                acc += scan.base[t].conj() * y;
                pby[t + 1] = acc;
                y_energy += y.norm_sqr();
            }
            let g00 = scan.pbb[n];
            let p0 = pby[n];
            let mut h = [C64::ZERO];
            scan.chol1.solve_into(std::slice::from_ref(&p0), &mut h);
            let r_tone = gram_residual(
                1,
                std::slice::from_ref(&g00),
                std::slice::from_ref(&p0),
                &h,
                y_energy,
            );
            let mut best: (C64, Option<Step>, f64) = (h[0], None, r_tone);
            if self.cfg.fit_steps {
                let pbb: &[C64] = &scan.pbb;
                let pby_ro: &[C64] = &pby;
                let chol1 = &scan.chol1;
                let try_boundary = |c_b: usize| -> Option<(C64, Step, f64)> {
                    if c_b == 0 || c_b >= n {
                        return None;
                    }
                    let g01 = pbb[c_b];
                    BORDER_SCRATCH.with(|cell| {
                        let chol2 = &mut *cell.borrow_mut();
                        if !chol2.border(chol1, std::slice::from_ref(&g01), g01) {
                            return None;
                        }
                        let g2 = [g00, g01, g01.conj(), g01];
                        let p2 = [p0, pby_ro[c_b]];
                        let mut x2 = [C64::ZERO; 2];
                        chol2.solve_into(&p2, &mut x2);
                        let r = gram_residual(2, &g2, &p2, &x2, y_energy);
                        Some((
                            x2[0],
                            Step {
                                coeff: x2[1],
                                boundary: c_b,
                            },
                            r,
                        ))
                    })
                };
                // Coarse grid over the window, then a fine scan around the
                // best cell: the boundary is the transmitter's (fractional)
                // chip delay and rarely falls on a grid point.
                let mut best_step: Option<(C64, Step, f64)> = None;
                Self::scan_boundaries((1..16).map(|k| k * n / 16), &try_boundary, &mut best_step);
                if let Some(coarse_best) = &best_step {
                    let centre = coarse_best.1.boundary;
                    let span = n / 16;
                    let fine_step = (n / 128).max(1);
                    let fine = (centre.saturating_sub(span)..=(centre + span).min(n - 1))
                        .step_by(fine_step);
                    Self::scan_boundaries(fine, &try_boundary, &mut best_step);
                    // Final single-chip resolution around the fine winner
                    // (falls back to the coarse centre if the fine sweep
                    // somehow emptied the candidate, which cannot happen).
                    let centre = best_step.as_ref().map_or(centre, |b| b.1.boundary);
                    let single = centre.saturating_sub(fine_step)..=(centre + fine_step).min(n - 1);
                    Self::scan_boundaries(single, &try_boundary, &mut best_step);
                }
                if let Some((g1, st, r)) = best_step {
                    if r < best.2 * (1.0 - STEP_GAIN_THRESHOLD) {
                        best = (g1, Some(st), r);
                    }
                }
            }
            comps[idx].channel = best.0;
            comps[idx].step = best.1;
            self.accumulate_component_model(&comps[idx], &mut resid, true);
        }
        workspace::put(pby);
        workspace::put(resid);
    }

    /// Evaluates `try_boundary` at every candidate and folds the winners
    /// into `best` (strictly smaller residual replaces, ties keep the
    /// earlier candidate).
    fn scan_boundaries(
        cands: impl Iterator<Item = usize>,
        try_boundary: &impl Fn(usize) -> Option<(C64, Step, f64)>,
        best: &mut Option<(C64, Step, f64)>,
    ) {
        for cand in cands.filter_map(try_boundary) {
            if best.as_ref().map(|b| cand.2 < b.2).unwrap_or(true) {
                *best = Some(cand);
            }
        }
    }

    /// Coarse + fine in one call: detects peaks, jointly refines their
    /// frequencies, then fits each component's boundary-split (ISI) term
    /// and re-refines frequencies against the step-corrected residual.
    pub fn estimate(&self, window: &[C64]) -> Vec<ComponentEstimate> {
        let peaks = self.coarse(window);
        if peaks.is_empty() {
            return Vec::new();
        }
        let coarse: Vec<f64> = peaks.iter().map(|p| p.pos).collect();
        self.refine_with_steps(window, &coarse)
    }

    /// Joint frequency refinement plus per-component step fitting, starting
    /// from the given coarse positions (Algorithm 1's fine stage with the
    /// boundary-split extension).
    pub fn refine_with_steps(&self, window: &[C64], coarse: &[f64]) -> Vec<ComponentEstimate> {
        let mut comps = self.refine(window, coarse);
        if self.cfg.fit_steps {
            scope(Stage::Refine, || {
                self.refine_steps_passes(window, &mut comps)
            });
        }
        comps
    }

    /// The step-fitting / corrected-refinement alternation of
    /// [`Self::refine_with_steps`] (split out for stage accounting).
    fn refine_steps_passes(&self, window: &[C64], comps: &mut Vec<ComponentEstimate>) {
        {
            let de = self.dechirp(window);
            self.fit_steps(&de, comps, 2);
            // Alternate frequency refinement (against the step-corrected
            // signal — the step term absorbs the skirt that biases the
            // tone-only fit) with step re-fitting; the first corrected
            // pass searches the wider bracket.
            let narrow = comps.clone();
            let narrow_residual = self.full_residual(&de, &narrow);
            for radius in [WIDE_RADIUS_BINS, SEARCH_RADIUS_BINS] {
                let steps_model = {
                    let mut m = vec![C64::ZERO; self.n];
                    // A step term is constant over `[0, boundary)`, so
                    // its contribution is one segment axpy (same
                    // multiply-adds, same order, per element as the
                    // per-sample guard it replaces).
                    for c in comps.iter() {
                        if let Some(st) = &c.step {
                            let b = self.basis(c.freq_bins);
                            let split = st.boundary.min(self.n);
                            choir_dsp::backend::axpy(&mut m[..split], &b[..split], st.coeff, false);
                        }
                    }
                    m
                };
                let corrected: Vec<C64> = de.iter().zip(&steps_model).map(|(d, s)| d - s).collect();
                let freqs: Vec<f64> = comps.iter().map(|c| c.freq_bins).collect();
                let mut gfit = GramFit::new(self.n, &corrected, freqs.len());
                let opt = self.ccd_refine(&mut gfit, &freqs, radius);
                let (channels, _) = self.fit(&corrected, &opt.x);
                for ((c, &f), h) in comps.iter_mut().zip(&opt.x).zip(channels) {
                    c.freq_bins = f.rem_euclid(self.n as f64);
                    c.channel = h;
                }
                // Re-fit the steps against the refreshed frequencies so the
                // reconstruction (and hence SIC subtraction) is consistent.
                self.fit_steps(&de, comps, 1);
            }
            // The wide corrected pass rescues boundary-split tones whose
            // coarse peak sat on a side lobe, but it can wander when two
            // genuine tones sit within a bin of each other. Keep whichever
            // solution actually explains the window better.
            if self.full_residual(&de, comps) > narrow_residual {
                *comps = narrow;
            }
        }
    }

    /// Reconstructs the time-domain contribution of the given components
    /// (in the *received*, chirped domain) so it can be subtracted from a
    /// window — the SIC building block. Step terms are included.
    pub fn reconstruct(&self, components: &[ComponentEstimate]) -> Vec<C64> {
        let mut de = vec![C64::ZERO; self.n];
        for c in components {
            self.accumulate_component_model(c, &mut de, false);
        }
        // Undo the dechirp: multiply by the up-chirp (conjugate of down).
        de.iter()
            .zip(self.downchirp.iter())
            .map(|(d, dc)| d * dc.conj())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use choir_dsp::complex::c64;
    use lora_phy::chirp::symbol_sample;

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
        // first peak-detection pass.
        let e = est();
        let (f1, f2) = (80.2, 81.6);
        let mut w = chirp_with_offset(f1, C64::ONE);
        add(&mut w, &chirp_with_offset(f2, c64(0.0, -0.9)));
        let r = crate::sic::phased_sic(&e, &w, &crate::sic::SicConfig::default());
        let mut comps = r.components.clone();
        assert!(comps.len() >= 2, "found {} comps", comps.len());
        comps.sort_by(|a, b| b.channel.abs().total_cmp(&a.channel.abs()));
        let near = |f: f64| {
            comps
                .iter()
                .map(|c| (c.freq_bins - f).abs())
                .fold(f64::INFINITY, f64::min)
        };
        assert!(near(f1) < 0.1, "f1 err {}", near(f1));
        assert!(near(f2) < 0.1, "f2 err {}", near(f2));
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

    /// The descent with every abscissa — grid point and golden-section
    /// probe alike — a full [`GramFit::eval`], kept as the oracle of
    /// [`OffsetEstimator::ccd_refine`]. Returns the optimum and how many
    /// sweep-0 grid brackets moved off the point the line started from.
    fn descent_by_eval(gfit: &mut GramFit<'_>, x0: &[f64], radius: f64) -> (Optimum, usize) {
        let mut x = x0.to_vec();
        let mut best = gfit.eval(&x);
        let mut evals = 1usize;
        let mut r = radius;
        let mut moved = 0;
        for sweep in 0..MAX_SWEEPS {
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
                    (lo, hi) = grid_bracket(lo, hi, &mut eval_at);
                    evals += PREFILTER_GRID;
                    moved += usize::from(!(lo..=hi).contains(&xi));
                }
                let (xmin, fmin) = golden_section(eval_at, lo, hi, TOL_BINS);
                evals += 2 + (((hi - lo) / TOL_BINS).ln() / 0.481).max(0.0).ceil() as usize;
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
        let value = best;
        (Optimum { x, value, evals }, moved)
    }

    /// A seeded corpus of dechirped windows — K = 1…6 tones, 8–26 dB,
    /// every other one with boundary-split (step) tones, both search
    /// radii, coarse positions a pad-10 spectrum's half-cell off: the
    /// descent by line probes lands, bit for bit, where the descent by
    /// full solves did, with the same first-sweep grid brackets.
    #[test]
    fn descent_by_line_probes_lands_where_descent_by_eval_did() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let e = est();
        let mut rng = StdRng::seed_from_u64(0x21_11E5);
        let (mut moved_brackets, mut accepted_moves) = (0usize, 0usize);
        for case in 0..240 {
            let k = 1 + case % 6;
            let snr_db = rng.gen_range(8.0..26.0);
            let sigma = (10f64.powf(-snr_db / 10.0) / 2.0).sqrt();
            let mut y: Vec<C64> = (0..N)
                .map(|_| {
                    // Box–Muller, one complex Gaussian a draw.
                    let (u, v): (f64, f64) = (rng.gen_range(1e-12..1.0), rng.gen_range(0.0..1.0));
                    C64::from_polar(sigma * (-2.0 * u.ln()).sqrt(), std::f64::consts::TAU * v)
                })
                .collect();
            let mut truth: Vec<f64> = Vec::new();
            let mut x0 = Vec::new();
            for _ in 0..k {
                // Coarse positions reach the descent `find_peaks`'
                // exclusion radius (0.8 bins) apart or more.
                let f = loop {
                    let f = rng.gen_range(1.0..N as f64 - 1.0);
                    if truth.iter().all(|g| (f - g).abs() >= 0.9) {
                        break f;
                    }
                };
                truth.push(f);
                let h = C64::from_polar(
                    rng.gen_range(0.1..1.0),
                    rng.gen_range(0.0..std::f64::consts::TAU),
                );
                let step = (case / 6 % 2 == 1).then(|| {
                    let coeff = C64::from_polar(
                        rng.gen_range(0.1..1.0),
                        rng.gen_range(0.0..std::f64::consts::TAU),
                    );
                    (coeff, rng.gen_range(1..N))
                });
                for (t, v) in y.iter_mut().enumerate() {
                    let tone = C64::cis(std::f64::consts::TAU * f * t as f64 / N as f64);
                    let amp = match step {
                        Some((coeff, boundary)) if t < boundary => h + coeff,
                        _ => h,
                    };
                    *v += amp * tone;
                }
                x0.push(f + rng.gen_range(-0.05..0.05));
            }
            let radius = [SEARCH_RADIUS_BINS, WIDE_RADIUS_BINS][case / 12 % 2];
            let (want, moved) = descent_by_eval(&mut GramFit::new(N, &y, k), &x0, radius);
            let got = e.ccd_refine(&mut GramFit::new(N, &y, k), &x0, radius);
            let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got.x), bits(&want.x), "case {case} K={k} r={radius}");
            assert_eq!(got.evals, want.evals, "case {case}");
            assert!(
                (got.value - want.value).abs() <= 1e-9 * want.value,
                "case {case}: {} vs {}",
                got.value,
                want.value
            );
            moved_brackets += moved;
            accepted_moves += got
                .x
                .iter()
                .zip(&x0)
                .filter(|(a, b)| a.to_bits() != b.to_bits())
                .count();
        }
        // The corpus exercises what it claims to: grid brackets that
        // moved off the line's start (224 of 840) and real moves.
        assert!(moved_brackets > 150, "{moved_brackets} grid brackets moved");
        assert!(accepted_moves > 600, "{accepted_moves} accepted moves");
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
