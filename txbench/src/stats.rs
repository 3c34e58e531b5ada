//! Exact-sample percentiles.
//!
//! Every latency the benchmark reports comes from the raw samples it kept,
//! never from the engine's power-of-two `LatencyHistogram`, so a tail
//! percentile is a measured value and not a bucket edge.

/// One percentile of a sample set, with how much of the sample supports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at the nearest rank (0 when the set is empty).
    pub value: u64,
    /// Samples in the set.
    pub n: usize,
    /// Samples strictly greater than `value`.
    pub beyond: usize,
}

/// Nearest-rank percentile `q` (in `(0, 1]`) of `sorted`, which must be in
/// ascending order.
pub fn percentile(sorted: &[u64], q: f64) -> Percentile {
    debug_assert!(q > 0.0 && q <= 1.0);
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    let n = sorted.len();
    if n == 0 {
        return Percentile {
            value: 0,
            n,
            beyond: 0,
        };
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let value = sorted[rank - 1];
    let beyond = n - sorted.partition_point(|&s| s <= value);
    Percentile { value, n, beyond }
}

/// Median of the values (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_one_to_hundred() {
        let samples: Vec<u64> = (1..=100).collect();
        let p50 = percentile(&samples, 0.50);
        assert_eq!((p50.value, p50.n, p50.beyond), (50, 100, 50));
        let p99 = percentile(&samples, 0.99);
        assert_eq!((p99.value, p99.beyond), (99, 1));
        assert_eq!(percentile(&samples, 1.0).value, 100);
        assert_eq!(percentile(&samples, 0.001).value, 1);
    }

    #[test]
    fn ties_count_nothing_beyond_the_tied_value() {
        let samples = [1, 2, 2, 2, 2, 2, 2, 2, 2, 9];
        let p50 = percentile(&samples, 0.5);
        assert_eq!((p50.value, p50.beyond), (2, 1));
        let p90 = percentile(&samples, 0.9);
        assert_eq!((p90.value, p90.beyond), (2, 1));
        let p99 = percentile(&samples, 0.99);
        assert_eq!((p99.value, p99.beyond), (9, 0));
    }

    #[test]
    fn empty_and_single_sample_sets() {
        assert_eq!(percentile(&[], 0.5).value, 0);
        assert_eq!(percentile(&[], 0.5).n, 0);
        let one = percentile(&[7], 0.99);
        assert_eq!((one.value, one.n, one.beyond), (7, 1, 0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
