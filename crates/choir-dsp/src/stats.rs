//! Scalar statistics used across the experiment harness: means, deviations,
//! percentiles and empirical CDFs (Fig. 7 of the paper plots CDFs of
//! hardware offsets).

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(x: &[f64]) -> f64 {
    if x.is_empty() {
        0.0
    } else {
        x.iter().sum::<f64>() / x.len() as f64
    }
}

/// Population variance (divides by `n`); `0.0` for fewer than two samples.
pub fn variance(x: &[f64]) -> f64 {
    if x.len() < 2 {
        return 0.0;
    }
    let m = mean(x);
    x.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / x.len() as f64
}

/// Population standard deviation.
pub fn std_dev(x: &[f64]) -> f64 {
    variance(x).sqrt()
}

/// Root mean square.
pub fn rms(x: &[f64]) -> f64 {
    if x.is_empty() {
        0.0
    } else {
        (x.iter().map(|v| v * v).sum::<f64>() / x.len() as f64).sqrt()
    }
}

/// Linear-interpolated percentile, `p ∈ [0, 100]`.
///
/// # Panics
/// Panics on an empty slice or `p` outside `[0, 100]`.
pub fn percentile(x: &[f64], p: f64) -> f64 {
    assert!(!x.is_empty(), "percentile: empty input");
    assert!((0.0..=100.0).contains(&p), "percentile: p out of range");
    let mut s = x.to_vec();
    s.sort_by(f64::total_cmp);
    if s.len() == 1 {
        return s[0];
    }
    let rank = p / 100.0 * (s.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    s[lo] * (1.0 - frac) + s[hi] * frac
}

/// Median (50th percentile).
pub fn median(x: &[f64]) -> f64 {
    percentile(x, 50.0)
}

/// Empirical CDF: returns `(value, F(value))` pairs for the sorted samples,
/// with `F` stepping by `1/n` per sample — the format Fig. 7(a,b) plots.
pub fn empirical_cdf(x: &[f64]) -> Vec<(f64, f64)> {
    let mut s = x.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len() as f64;
    s.into_iter()
        .enumerate()
        .map(|(i, v)| (v, (i + 1) as f64 / n))
        .collect()
}

/// Kolmogorov–Smirnov distance between an empirical sample and the uniform
/// CDF on `[lo, hi]`. Fig. 7 argues observed offsets are ~uniform over the
/// bin; the testbed asserts this with a KS bound.
pub fn ks_distance_uniform(x: &[f64], lo: f64, hi: f64) -> f64 {
    assert!(hi > lo, "ks_distance_uniform: empty range");
    let mut s = x.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len() as f64;
    let mut d: f64 = 0.0;
    for (i, v) in s.iter().enumerate() {
        let u = ((v - lo) / (hi - lo)).clamp(0.0, 1.0);
        let f_lo = i as f64 / n;
        let f_hi = (i + 1) as f64 / n;
        d = d.max((u - f_lo).abs()).max((u - f_hi).abs());
    }
    d
}

// Tests assert on exactly-representable values (0.0, bin centres).
#[allow(clippy::float_cmp)]
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_empty() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn variance_and_std() {
        let x = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((variance(&x) - 4.0).abs() < 1e-12);
        assert!((std_dev(&x) - 2.0).abs() < 1e-12);
        assert_eq!(variance(&[5.0]), 0.0);
    }

    #[test]
    fn rms_known() {
        assert!((rms(&[3.0, 4.0]) - (12.5f64).sqrt()).abs() < 1e-12);
        assert_eq!(rms(&[]), 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&x, 0.0), 1.0);
        assert_eq!(percentile(&x, 100.0), 4.0);
        assert!((percentile(&x, 50.0) - 2.5).abs() < 1e-12);
        assert!((median(&x) - 2.5).abs() < 1e-12);
        assert_eq!(percentile(&[7.0], 33.0), 7.0);
    }

    #[test]
    #[should_panic(expected = "percentile: empty input")]
    fn percentile_empty_panics() {
        percentile(&[], 50.0);
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let x = [3.0, 1.0, 2.0, 2.0];
        let cdf = empirical_cdf(&x);
        assert_eq!(cdf.len(), 4);
        assert_eq!(cdf.last().unwrap().1, 1.0);
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 < w[1].1);
        }
    }

    #[test]
    fn ks_uniform_samples_small_distance() {
        // Evenly spaced points have KS distance 1/n.
        let n = 100;
        let x: Vec<f64> = (0..n).map(|i| (i as f64 + 0.5) / n as f64).collect();
        let d = ks_distance_uniform(&x, 0.0, 1.0);
        assert!(d <= 1.0 / n as f64 + 1e-12, "d = {d}");
    }

    #[test]
    fn ks_concentrated_samples_large_distance() {
        let x = vec![0.5; 50];
        let d = ks_distance_uniform(&x, 0.0, 1.0);
        assert!(d > 0.45, "d = {d}");
    }
}
