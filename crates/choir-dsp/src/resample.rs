//! Fractional delays.
//!
//! The channel simulator generates each transmitter's waveform analytically
//! at its own (offset) clock, but an experiment sometimes needs to shift an
//! already-sampled signal by a fraction of a sample (Fig. 7's offset
//! estimates on timing-compensated windows). Windowed-sinc interpolation
//! gives near-ideal fractional delay for band-limited signals. The decoder
//! does not resample: it reads a user on its whole-chip grid and carries
//! the fractional chip as a phase.

use crate::backend::scalar::dot_rev;
use crate::complex::C64;

/// Delays `x` by `delay` samples (may be fractional and/or negative) using
/// windowed-sinc interpolation with `taps` taps per side (Hann-windowed).
/// Samples that would come from outside the signal are treated as zero.
///
/// # Panics
/// Panics if `taps` is zero.
pub fn fractional_delay(x: &[C64], delay: f64, taps: usize) -> Vec<C64> {
    assert!(taps >= 1, "fractional_delay: need at least one tap");
    let int_part = delay.floor();
    let frac = delay - int_part;
    let int_shift = int_part as i64;
    if frac.abs() < 1e-12 {
        return integer_shift(x, int_shift);
    }
    let t = taps as i64;
    // Weight of tap `k = −taps…taps`, ascending.
    let weights: Vec<f64> = (-t..=t)
        .map(|k| {
            let u = k as f64 - frac;
            // Hann window over the tap span.
            let w = 0.5 + 0.5 * (std::f64::consts::PI * u / (t as f64 + 1.0)).cos();
            sinc(u) * w.max(0.0)
        })
        .collect();
    let n = x.len() as i64;
    let mut out = vec![C64::ZERO; x.len()];
    // out[i] = Σ_k x[i - int_shift - k] · sinc(k - frac) · w(k). Output
    // `i` is *interior* when every tap's source is in range, `int_shift
    // + t ≤ i < n + int_shift − t`: there the source index walks
    // backwards as the tap index walks forwards with no skips — one
    // `dot_rev` over the output's source span.
    let lo = (int_shift + t).clamp(0, n);
    let hi = (n + int_shift - t).clamp(lo, n);
    if lo < hi {
        let src = &x[(lo - int_shift - t) as usize..(hi - int_shift + t) as usize];
        let interior = out[lo as usize..hi as usize].iter_mut();
        for (o, span) in interior.zip(src.windows(weights.len())) {
            *o = dot_rev(span, &weights);
        }
    }
    // Edge outputs: taps whose source falls outside the signal read zero.
    for i in (0..lo).chain(hi..n) {
        let mut acc = C64::ZERO;
        for (kw, k) in weights.iter().zip(-t..=t) {
            let src = i - int_shift - k;
            if src < 0 || src >= n {
                continue;
            }
            acc += x[src as usize].scale(*kw);
        }
        out[i as usize] = acc;
    }
    out
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

    /// The resampler before its interior ran through `dot_rev`, kept as
    /// its oracle: every output its own guarded tap loop.
    fn per_output_delay(x: &[C64], delay: f64, taps: usize) -> Vec<C64> {
        let int_part = delay.floor();
        let frac = delay - int_part;
        let int_shift = int_part as i64;
        let t = taps as i64;
        let sample = |src: i64| usize::try_from(src).ok().and_then(|i| x.get(i)).copied();
        (0..x.len() as i64)
            .map(|i| {
                if frac.abs() < 1e-12 {
                    return sample(i - int_shift).unwrap_or(C64::ZERO);
                }
                let mut acc = C64::ZERO;
                for k in -t..=t {
                    let Some(v) = sample(i - int_shift - k) else {
                        continue;
                    };
                    let u = k as f64 - frac;
                    let w = 0.5 + 0.5 * (std::f64::consts::PI * u / (t as f64 + 1.0)).cos();
                    acc += v.scale(sinc(u) * w.max(0.0));
                }
                acc
            })
            .collect()
    }

    /// Interior outputs through `dot_rev`, edges through the guarded
    /// loop, whole shifts through `integer_shift`: all the per-output
    /// formulation, bit for bit — on a signal with an interior, one
    /// shorter than the taps span, one sample and none.
    #[test]
    fn resampler_matches_the_per_output_formulation() {
        let signal: Vec<C64> = (0..300)
            .map(|i| C64::from_polar(1.0 + 0.3 * (i as f64 * 0.71).sin(), 0.013 * (i * i) as f64))
            .collect();
        for len in [300usize, 30, 1, 0] {
            let x = &signal[..len];
            for taps in [1usize, 6, 10, 24] {
                for delay in [-0.63, -0.000_001, 0.25, 0.999_999, 3.0, -40.4, 310.2, 7.5] {
                    let want = per_output_delay(x, delay, taps);
                    let got = fractional_delay(x, delay, taps);
                    assert_eq!(got.len(), len);
                    for (g, w) in got.iter().zip(&want) {
                        assert_eq!(
                            (g.re.to_bits(), g.im.to_bits()),
                            (w.re.to_bits(), w.im.to_bits()),
                            "delay {delay}, taps {taps}, {len} samples"
                        );
                    }
                }
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
