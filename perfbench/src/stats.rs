//! Exact order statistics over raw samples.
//!
//! Quantiles are read off the sorted samples themselves (nearest-rank), never
//! off histogram bucket bounds, so p50 and p99 of a spread distribution can
//! never collapse onto one bucket edge. A tail percentile is only reported
//! when at least [`MIN_TAIL_SAMPLES`] samples lie beyond it; with fewer, the
//! "tail" would be a handful of individual events, not a percentile.

/// Samples that must lie strictly above a tail percentile's rank before the
/// percentile is reported.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Sorted copy of `samples`, ready for [`quantile`].
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Exact nearest-rank quantile `q` (0 < q ≤ 1) of ascending `sorted`.
///
/// Returns `None` for an empty input, and for a tail quantile (q > 0.5)
/// with fewer than [`MIN_TAIL_SAMPLES`] samples beyond its rank.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if q > 0.5 && n - rank < MIN_TAIL_SAMPLES {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median of unsorted `samples` (nearest rank); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(&sorted(samples), 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_exact_sample_values() {
        // 1..=1000 shuffled deterministically: every quantile is a sample,
        // and p50/p90/p99 are three different values.
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        v.reverse();
        let s = sorted(&v);
        assert_eq!(quantile(&s, 0.5), Some(500.0));
        assert_eq!(quantile(&s, 0.9), Some(900.0));
        assert_eq!(quantile(&s, 0.99), Some(990.0));
        assert_eq!(quantile(&s, 1.0 / 1000.0), Some(1.0));
    }

    #[test]
    fn median_of_small_sets() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p99 of 999 samples has rank 990: 9 beyond it, refused.
        let s: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.99), None);
        // 1000 samples: rank 990, exactly 10 beyond it, reported.
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.99), Some(990.0));
        // The median is never refused.
        assert_eq!(quantile(&s[..3], 0.5), Some(2.0));
    }
}
