//! Order statistics for round rates and simulated latencies.

/// Nearest-rank percentile of `values` (`p` in `(0, 100]`): the smallest
/// sample with at least `p` % of the samples at or below it. Always returns
/// an actual sample, so a percentile of integral cycle counts stays exact.
/// `None` when `values` is empty.
pub fn percentile(values: &[u64], p: f64) -> Option<u64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Whether `n` samples leave at least ten beyond the `p`-th percentile, the
/// condition for reporting that percentile at all.
pub fn tail_supported(n: usize, p: f64) -> bool {
    n as f64 * (1.0 - p / 100.0) >= 10.0
}

/// First quartile, median, and third quartile of `values`, interpolated
/// the way Python's `statistics.quantiles(values, n=4)` does by default
/// (the "exclusive" method), so the numbers printed here agree with a
/// spread computed from the same values in Python. A single value is its
/// own quartiles; `None` when `values` is empty.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => None,
        1 => Some((v[0], v[0], v[0])),
        n => {
            let m = n + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 / 4.0 - j as f64;
                v[j - 1] + (v[j] - v[j - 1]) * delta
            };
            Some((q(1), q(2), q(3)))
        }
    }
}

/// Median of `values` (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    quartiles(values).map(|(_, m, _)| m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&v, 50.0), Some(50));
        assert_eq!(percentile(&v, 99.0), Some(99));
        assert_eq!(percentile(&v, 100.0), Some(100));
        assert_eq!(percentile(&[7], 99.0), Some(7));
        assert_eq!(percentile(&[], 50.0), None);
        // Ranks round up: 3 samples, p50 is the 2nd.
        assert_eq!(percentile(&[30, 10, 20], 50.0), Some(20));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert!(!tail_supported(999, 99.0));
        assert!(tail_supported(1000, 99.0));
        assert!(tail_supported(20, 50.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([4, 1, 3], n=4) == [1.0, 3.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0]), Some((1.0, 3.0, 4.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // method extrapolates past the sample range on tiny inputs.
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(median(&[5.0]), Some(5.0));
        assert_eq!(median(&[]), None);
    }
}
