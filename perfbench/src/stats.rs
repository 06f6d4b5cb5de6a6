//! Order statistics for timing samples.

/// Median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Minimum number of samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index (0-based) of the `p`-th percentile of `n` samples,
/// the same rank rule as `lrd_trace::Histogram`.
fn rank(n: usize, p: f64) -> usize {
    (((p / 100.0) * n as f64).ceil() as usize).max(1) - 1
}

/// Whether a nearest-rank `p`-th percentile over `n` independent samples
/// has at least [`MIN_BEYOND`] samples beyond it.
pub fn supports_percentile(n: usize, p: f64) -> bool {
    n > 0 && n - 1 - rank(n, p) >= MIN_BEYOND
}

/// Nearest-rank `p`-th percentile of `xs`, refused (`None`) unless at
/// least [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if !supports_percentile(xs.len(), p) {
        return None;
    }
    Some(sorted(xs)[rank(xs.len(), p)])
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_with_too_few_samples_beyond_is_refused() {
        // p99 of 999 samples: rank 989, only 9 samples beyond it.
        let xs: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0), None);
        // p99 of 1000 samples: rank 989, exactly 10 beyond.
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0), Some(989.0));
        // p90 needs 100 samples; p50 needs 20.
        assert!(!supports_percentile(99, 90.0));
        assert!(supports_percentile(100, 90.0));
        assert!(!supports_percentile(19, 50.0));
        assert!(supports_percentile(20, 50.0));
        assert!(!supports_percentile(0, 50.0));
    }
}
