//! Fractional delays.
//!
//! The channel simulator generates each transmitter's waveform analytically
//! at its own (offset) clock, but receiver-side processing sometimes needs
//! to shift an already-sampled signal by a fraction of a sample — e.g. when
//! reconstructing a hypothesis for interference cancellation. Windowed-sinc
//! interpolation gives near-ideal fractional delay for band-limited signals.

use crate::complex::C64;

/// A delay as the resampler applies it: whole samples to shift by and
/// the Hann-windowed sinc weights of the fractional rest. A function of
/// `(delay, taps)` alone, so a caller that resamples many windows at one
/// delay builds it once and hands it to every
/// [`fractional_delay_into`]; [`Self::retune`] moves it to another delay
/// in place, for a search that probes one delay after another.
#[derive(Clone, Debug)]
pub struct DelayKernel {
    taps: usize,
    int_shift: i64,
    /// Weight of tap `k = −taps…taps`, ascending; empty when the delay
    /// is whole samples (within 1e-12) and the filter is a pure shift.
    weights: Vec<f64>,
}

impl DelayKernel {
    /// The kernel delaying by `delay` samples (fractional and/or
    /// negative) with `taps` taps per side.
    ///
    /// # Panics
    /// Panics if `taps` is zero.
    pub fn new(delay: f64, taps: usize) -> Self {
        assert!(taps >= 1, "fractional_delay: need at least one tap");
        let mut kernel = DelayKernel {
            taps,
            int_shift: 0,
            weights: Vec::with_capacity(2 * taps + 1),
        };
        kernel.retune(delay);
        kernel
    }

    /// Moves the kernel to `delay`, keeping its tap count and its
    /// allocation: the value [`Self::new`] builds for `(delay, taps)`.
    // hot:noalloc — the weights are rewritten in the capacity `new` reserved.
    pub fn retune(&mut self, delay: f64) {
        let int_part = delay.floor();
        let frac = delay - int_part;
        self.int_shift = int_part as i64;
        self.weights.clear();
        if frac.abs() < 1e-12 {
            return;
        }
        let t = self.taps as i64;
        self.weights.extend((-t..=t).map(|k| {
            let u = k as f64 - frac;
            // Hann window over the tap span.
            let w = 0.5 + 0.5 * (std::f64::consts::PI * u / (t as f64 + 1.0)).cos();
            sinc(u) * w.max(0.0)
        }));
    }
}

/// Delays `x` by `delay` samples (may be fractional and/or negative) using
/// windowed-sinc interpolation with `taps` taps per side (Hann-windowed).
/// Samples that would come from outside the signal are treated as zero.
pub fn fractional_delay(x: &[C64], delay: f64, taps: usize) -> Vec<C64> {
    let mut out = vec![C64::ZERO; x.len()];
    fractional_delay_into(x, &DelayKernel::new(delay, taps), 0, &mut out);
    out
}

/// Allocation-free [`fractional_delay`] over the output positions
/// `first..first + out.len()` only: `out[j]` is exactly the value
/// `fractional_delay(x, delay, taps)[first + j]` for the `(delay, taps)`
/// `kernel` was built from. A caller that keeps an interior span of the
/// delayed signal (the decoder's aligned windows) skips both the
/// full-length buffer and the edge outputs it would drop.
// hot:noalloc — reads the caller's kernel, writes the caller's buffer.
pub fn fractional_delay_into(x: &[C64], kernel: &DelayKernel, first: usize, out: &mut [C64]) {
    let n = x.len() as i64;
    let int_shift = kernel.int_shift;
    if kernel.weights.is_empty() {
        for (j, o) in out.iter_mut().enumerate() {
            *o = sample_or_zero(x, (first + j) as i64 - int_shift);
        }
        return;
    }
    let t = kernel.taps as i64;
    let first = first as i64;
    // out[i] = Σ_k x[i - int_shift - k] · sinc(k - frac) · w(k). Output
    // `i` is *interior* when every tap's source is in range, `int_shift
    // + t ≤ i < n + int_shift − t`: there the source index walks
    // backwards as the tap index walks forwards with no skips — the
    // backend's reversed FIR, one streaming pass over the whole run.
    let end = first + out.len() as i64;
    let lo = (int_shift + t).clamp(first, end);
    let hi = (n + int_shift - t).clamp(lo, end);
    if lo < hi {
        crate::backend::fir_rev_into(
            &x[(lo - int_shift - t) as usize..(hi - int_shift + t) as usize],
            &kernel.weights,
            &mut out[(lo - first) as usize..(hi - first) as usize],
        );
    }
    // Edge outputs: taps whose source falls outside the signal read zero.
    for i in (first..lo).chain(hi..end) {
        let mut acc = C64::ZERO;
        for (kw, k) in kernel.weights.iter().zip(-t..=t) {
            let src = i - int_shift - k;
            if src < 0 || src >= n {
                continue;
            }
            acc += x[src as usize].scale(*kw);
        }
        out[(i - first) as usize] = acc;
    }
}

/// Integer sample shift with zero fill (positive = delay).
pub fn integer_shift(x: &[C64], shift: i64) -> Vec<C64> {
    (0..x.len() as i64)
        .map(|i| sample_or_zero(x, i - shift))
        .collect()
}

/// `x[src]`, or zero outside the signal.
fn sample_or_zero(x: &[C64], src: i64) -> C64 {
    usize::try_from(src)
        .ok()
        .and_then(|i| x.get(i))
        .copied()
        .unwrap_or(C64::ZERO)
}

/// Normalised sinc `sin(πx)/(πx)`.
pub fn sinc(x: f64) -> f64 {
    if x.abs() < 1e-12 {
        1.0
    } else {
        let px = std::f64::consts::PI * x;
        px.sin() / px
    }
}

// Tests assert on exactly-representable values (0.0, bin centres).
#[allow(clippy::float_cmp)]
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sinc_values() {
        assert_eq!(sinc(0.0), 1.0);
        assert!(sinc(1.0).abs() < 1e-12);
        assert!(sinc(2.0).abs() < 1e-12);
        assert!((sinc(0.5) - 2.0 / std::f64::consts::PI).abs() < 1e-12);
    }

    #[test]
    fn integer_shift_behaviour() {
        let x: Vec<C64> = (0..4).map(|i| C64::from_re(i as f64)).collect();
        let d = integer_shift(&x, 1);
        assert_eq!(d[0], C64::ZERO);
        assert_eq!(d[1], C64::from_re(0.0));
        assert_eq!(d[3], C64::from_re(2.0));
        let a = integer_shift(&x, -1);
        assert_eq!(a[0], C64::from_re(1.0));
        assert_eq!(a[3], C64::ZERO);
    }

    #[test]
    fn zero_fractional_delay_is_identity() {
        let x: Vec<C64> = (0..16).map(|i| C64::cis(0.3 * i as f64)).collect();
        let y = fractional_delay(&x, 0.0, 8);
        for (a, b) in x.iter().zip(&y) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn ranged_delay_is_a_slice_of_the_full_one() {
        let x: Vec<C64> = (0..64).map(|i| C64::cis(0.3 * i as f64)).collect();
        for delay in [-0.37, 0.0, 0.62, 3.0, -2.25] {
            let full = fractional_delay(&x, delay, 6);
            for (first, len) in [(0usize, 64usize), (6, 52), (0, 5), (60, 4)] {
                let mut part = vec![C64::ZERO; len];
                fractional_delay_into(&x, &DelayKernel::new(delay, 6), first, &mut part);
                assert_eq!(part, full[first..first + len], "delay {delay} from {first}");
            }
        }
    }

    #[test]
    fn fractional_delay_shifts_tone_phase() {
        // Delaying a band-limited tone by d samples multiplies its phasor by
        // e^{-j2πf d}. Check in the interior away from edge effects.
        let n = 256;
        let f = 0.1; // cycles/sample — well inside the band
        let x: Vec<C64> = (0..n)
            .map(|i| C64::cis(2.0 * std::f64::consts::PI * f * i as f64))
            .collect();
        let d = 0.37;
        let y = fractional_delay(&x, d, 24);
        let expected_rot = C64::cis(-2.0 * std::f64::consts::PI * f * d);
        for i in 64..192 {
            let actual = y[i] / x[i];
            assert!(
                (actual - expected_rot).abs() < 0.01,
                "sample {i}: {actual:?} vs {expected_rot:?}"
            );
        }
    }

    #[test]
    fn fractional_delay_half_sample_energy_preserved() {
        let n = 128;
        let x: Vec<C64> = (0..n)
            .map(|i| C64::cis(2.0 * std::f64::consts::PI * 0.05 * i as f64))
            .collect();
        let y = fractional_delay(&x, 0.5, 16);
        let ex = crate::complex::energy(&x[20..108]);
        let ey = crate::complex::energy(&y[20..108]);
        assert!((ex - ey).abs() / ex < 0.02, "energy {ex} vs {ey}");
    }
}
