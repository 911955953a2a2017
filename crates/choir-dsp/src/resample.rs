//! Fractional delays.
//!
//! The channel simulator generates each transmitter's waveform analytically
//! at its own (offset) clock, but receiver-side processing sometimes needs
//! to shift an already-sampled signal by a fraction of a sample — e.g. when
//! reconstructing a hypothesis for interference cancellation. Windowed-sinc
//! interpolation gives near-ideal fractional delay for band-limited signals.

use crate::complex::C64;

/// Delays `x` by `delay` samples (may be fractional and/or negative) using
/// windowed-sinc interpolation with `taps` taps per side (Hann-windowed).
/// Samples that would come from outside the signal are treated as zero.
pub fn fractional_delay(x: &[C64], delay: f64, taps: usize) -> Vec<C64> {
    let mut out = vec![C64::ZERO; x.len()];
    fractional_delay_into(x, delay, taps, 0, &mut out);
    out
}

/// Allocation-free [`fractional_delay`] over the output positions
/// `first..first + out.len()` only: `out[j]` is exactly the value
/// `fractional_delay(x, delay, taps)[first + j]`. A caller that keeps an
/// interior span of the delayed signal (the decoder's aligned windows)
/// skips both the full-length buffer and the edge outputs it would drop.
// hot:noalloc — the kernel scratch comes from the workspace arena.
pub fn fractional_delay_into(x: &[C64], delay: f64, taps: usize, first: usize, out: &mut [C64]) {
    assert!(taps >= 1, "fractional_delay: need at least one tap");
    let n = x.len() as i64;
    let int_part = delay.floor();
    let frac = delay - int_part;
    let int_shift = int_part as i64;
    if frac.abs() < 1e-12 {
        for (j, o) in out.iter_mut().enumerate() {
            *o = sample_or_zero(x, (first + j) as i64 - int_shift);
        }
        return;
    }
    let t = taps as i64;
    // The windowed-sinc kernel depends only on the tap index and `frac`,
    // never on the output position — build it once per call instead of
    // paying (2·taps+1) sin/cos evaluations per output sample.
    let mut kernel = crate::workspace::take_f64(2 * taps + 1);
    for (kv, k) in kernel.iter_mut().zip(-t..=t) {
        let u = k as f64 - frac;
        let s = sinc(u);
        // Hann window over the tap span.
        let w = 0.5 + 0.5 * (std::f64::consts::PI * u / (t as f64 + 1.0)).cos();
        *kv = s * w.max(0.0);
    }
    for (j, o) in out.iter_mut().enumerate() {
        let i = (first + j) as i64;
        // out[i] = Σ_k x[i - int_shift - k] · sinc(k - frac) · w(k)
        let lo = i - int_shift - t;
        let hi = i - int_shift + t;
        if lo >= 0 && hi < n {
            // Interior output: every tap's source is in range, and the
            // source index walks backwards as the tap index walks
            // forwards — exactly the backend's reversed MAC, which is
            // bit-identical to the guarded loop below with no skips.
            *o = crate::backend::dot_rev(&x[lo as usize..=hi as usize], &kernel);
            continue;
        }
        let mut acc = C64::ZERO;
        for (ki, k) in (-t..=t).enumerate() {
            let src = i - int_shift - k;
            if src < 0 || src >= n {
                continue;
            }
            acc += x[src as usize].scale(kernel[ki]);
        }
        *o = acc;
    }
    crate::workspace::put_f64(kernel);
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
                fractional_delay_into(&x, delay, 6, first, &mut part);
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
