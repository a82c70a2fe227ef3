//! Order statistics over small samples.
//!
//! Every percentile here is **nearest-rank** on the observed samples —
//! the convention `core::fleet`'s quantiles use — so a reported value is
//! always a measurement that occurred, never an interpolation. Quartiles
//! follow Python's `statistics.quantiles(values, n=4)` (the exclusive
//! method), because that is what the driver computes spreads with.

/// Nearest-rank quantile of an ascending-sorted sample:
/// `sorted[ceil(q·n) − 1]`, rank clamped into `[1, n]`.
///
/// # Panics
///
/// Panics on an empty sample: a benchmark that measured nothing must not
/// report a number.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Sorts a copy of `values` ascending (total order, so NaN cannot panic).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    v
}

/// The median: the middle sample, or the mean of the two middle samples.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of an empty sample");
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile as `statistics.quantiles(values, n=4)` gives
/// them (exclusive method: position `i·(n+1)/4`, linear between neighbours,
/// clamped to the sample). A single sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    assert!(!v.is_empty(), "quartiles of an empty sample");
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let at = |i: usize| {
        // Python: j = i*(n+1)//4 clamped to [1, n-1]; delta = i*(n+1) - 4j.
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (4 * j) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Distance between the quartiles as a share of the median — the spread
/// the driver holds against a metric's bound.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        ((q3 - q1) / m).abs()
    }
}

/// A metric's measured repetitions plus the summary the reports print.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Median over the repetitions — the metric's value.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Every repetition's value, in run order.
    pub samples: Vec<f64>,
}

impl Summary {
    /// Summarises the repetitions of one metric.
    pub fn of(samples: Vec<f64>) -> Summary {
        let (q1, q3) = quartiles(&samples);
        Summary {
            median: median(&samples),
            q1,
            q3,
            samples,
        }
    }

    /// A value that is exact per seed (simulated statistics, counts): one
    /// sample, no spread.
    pub fn exact(value: f64) -> Summary {
        Summary::of(vec![value])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_fleet_convention() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(nearest_rank(&s, 0.0), 1.0);
        assert_eq!(nearest_rank(&s, 0.5), 2.0);
        assert_eq!(nearest_rank(&s, 0.51), 3.0);
        assert_eq!(nearest_rank(&s, 0.99), 4.0);
        assert_eq!(nearest_rank(&s, 1.0), 4.0);
        assert_eq!(nearest_rank(&[7.0], 0.99), 7.0);
        // 1200 frames: p99 is rank 1188, leaving 12 samples beyond it.
        let big: Vec<f64> = (1..=1200).map(f64::from).collect();
        assert_eq!(nearest_rank(&big, 0.99), 1188.0);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[9.0]), 9.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[6.0]), (6.0, 6.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(iqr_share(&ten), 1.0);
        assert_eq!(iqr_share(&[2.0, 2.0, 2.0]), 0.0);
        let s = Summary::of(ten);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!(Summary::exact(0.5).samples, vec![0.5]);
    }
}
