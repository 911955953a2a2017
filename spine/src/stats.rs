//! Order statistics for latency samples and for `compare`'s run sets.

/// Percentiles a tail may be reported at, ascending.
pub const TAIL_LADDER: [f64; 5] = [75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Sorts a sample set ascending (NaN last, never produced by a timer).
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

/// Nearest rank (1-based) of the `p`-th percentile in a set of `n ≥ 1`:
/// the smallest rank with at least `p` % of the set at or below it. The
/// product is nudged down so that `99.9 % of 10 000` is rank 9 990, not
/// the next one up on a rounding error.
fn rank(n: usize, p: f64) -> usize {
    let exact = p * n as f64 / 100.0;
    ((exact - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// The `p`-th percentile of an ascending-sorted set, nearest rank; `None`
/// for an empty set.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    sorted.get(rank(sorted.len(), p) - 1).copied()
}

/// Samples strictly beyond the `p`-th percentile's rank in a set of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// The highest percentile of [`TAIL_LADDER`] that still has at least
/// [`MIN_BEYOND`] of `n` samples beyond it — the tail a set of this size
/// can support. `None` when even the lowest rung cannot.
pub fn highest_supported_tail(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rfind(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Median and nearest-rank 90th percentile of an unsorted set, times
/// `scale`; zeros for an empty set.
pub fn p50_p90(xs: &[f64], scale: f64) -> (f64, f64) {
    let s = sorted(xs.to_vec());
    (
        percentile(&s, 50.0).unwrap_or(0.0) * scale,
        percentile(&s, 90.0).unwrap_or(0.0) * scale,
    )
}

/// Median of an unsorted set (mean of the middle pair for even sizes).
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs.to_vec());
    let n = s.len();
    if n == 0 {
        return None;
    }
    let hi = s.get(n / 2).copied()?;
    if n % 2 == 1 {
        return Some(hi);
    }
    s.get(n / 2 - 1).map(|lo| (lo + hi) / 2.0)
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// gives them (the exclusive method), so `compare` and the driver agree
/// on a set's spread. Needs two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs.to_vec());
    let n = s.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| -> Option<f64> {
        // j, delta = divmod(i * (n + 1), 4), j clamped to 1..=n-1
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        let (lo, hi) = (*s.get(j - 1)?, *s.get(j)?);
        Some((lo * (4.0 - delta) + hi * delta) / 4.0)
    };
    Some((cut(1)?, cut(3)?))
}

/// Interquartile distance as a share of the median.
pub fn relative_spread(xs: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(xs)?;
    let m = median(xs)?;
    (m.abs() > 0.0).then(|| (q3 - q1) / m.abs())
}

// Tests assert on exactly-representable values.
#[allow(clippy::float_cmp)]
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 190 samples: p90 leaves 19 beyond, p95 leaves 9.
        assert_eq!(highest_supported_tail(190), Some(90.0));
        assert_eq!(highest_supported_tail(200), Some(95.0));
        assert_eq!(highest_supported_tail(100), Some(90.0));
        assert_eq!(highest_supported_tail(99), Some(75.0));
        assert_eq!(highest_supported_tail(40), Some(75.0));
        assert_eq!(highest_supported_tail(39), None);
        assert_eq!(highest_supported_tail(10_000), Some(99.9));
        for n in [40usize, 100, 190, 1000] {
            let p = highest_supported_tail(n).unwrap();
            assert!(beyond(n, p) >= MIN_BEYOND);
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Some(50.0));
        assert_eq!(percentile(&s, 90.0), Some(90.0));
        assert_eq!(percentile(&s, 100.0), Some(100.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(beyond(100, 90.0), 10);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        assert_eq!(median(&xs), Some(5.5));
        assert_eq!(relative_spread(&xs), Some(1.0));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some((0.5, 3.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
