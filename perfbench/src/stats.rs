//! Sample statistics: exact quantiles from raw samples and the
//! percentile rule used for every reported tail.

/// Percentiles the report may name, lowest first.
const LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples above the nearest-rank `p`-th percentile of `samples` samples.
fn beyond(samples: usize, p: f64) -> usize {
    // The epsilon keeps e.g. 90% of 100 at rank 90, not 91.
    samples - ((p / 100.0 * samples as f64) - 1e-9).ceil().max(0.0) as usize
}

/// The highest percentile of [`LADDER`] that has at least ten samples
/// beyond it, or `None` when even the median has fewer than ten.
pub fn tail_percentile(samples: usize) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| beyond(samples, p) >= 10)
}

/// True when `p` may be reported from `samples` samples under the
/// percentile rule.
pub fn supports(samples: usize, p: f64) -> bool {
    tail_percentile(samples).is_some_and(|tail| p <= tail)
}

/// The `p`-th percentile (0..=100) of `sorted` by the nearest-rank
/// method: the smallest sample with at least `p`% of samples at or
/// below it. `NaN` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a copy of `values` and returns it.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unsorted `values`: the middle one, or the mean of the two
/// middle ones. `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(9), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert!(supports(1_000, 99.0));
        assert!(!supports(999, 99.0));
        assert!(supports(100, 90.0));
        assert!(!supports(99, 90.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert!(percentile(&[], 50.0).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
    }
}
