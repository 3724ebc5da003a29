//! Order statistics and ratio formatting for the benchmark's reports.

use std::fmt;

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "statistics of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values`: the middle value, or the mean of the two middle
/// values for an even count.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartiles, computed exactly like Python's
/// `statistics.quantiles(values, n=4)` (its default "exclusive" method),
/// so spreads printed here match the ones the acceptance rule computes.
/// A single value is its own quartiles.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// A nearest-rank percentile together with the sample it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The observation at rank `ceil(q · samples)`.
    pub value: f64,
    /// Number of observations.
    pub samples: usize,
    /// Observations strictly beyond the reported rank.
    pub beyond: usize,
}

impl Percentile {
    /// Whether at least ten observations lie beyond the percentile, the
    /// least that makes a tail percentile worth reporting.
    pub fn is_supported(&self) -> bool {
        self.beyond >= 10
    }
}

/// Nearest-rank `q`-quantile (`0 < q <= 1`) of `values`.
///
/// # Panics
///
/// Panics if `values` is empty or `q` is outside `(0, 1]`.
pub fn percentile(values: &[f64], q: f64) -> Percentile {
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    let v = sorted(values);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Percentile {
        value: v[rank - 1],
        samples: v.len(),
        beyond: v.len() - rank,
    }
}

/// A ratio that keeps its base, printed as `0.750 (150/200)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ratio {
    /// Numerator.
    pub part: u64,
    /// Denominator.
    pub base: u64,
}

impl Ratio {
    /// `part / base`, or 0 for an empty base.
    pub fn value(&self) -> f64 {
        if self.base == 0 {
            0.0
        } else {
            self.part as f64 / self.base as f64
        }
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} ({}/{})", self.value(), self.part, self.base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn median_of_nothing_panics() {
        median(&[]);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0));
    }

    #[test]
    fn percentile_reports_rank_and_tail_count() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let p50 = percentile(&hundred, 0.5);
        assert_eq!((p50.value, p50.samples, p50.beyond), (50.0, 100, 50));
        let p99 = percentile(&hundred, 0.99);
        assert_eq!((p99.value, p99.beyond), (99.0, 1));
        assert!(!p99.is_supported());
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&thousand, 0.99);
        assert_eq!((p99.value, p99.beyond), (990.0, 10));
        assert!(p99.is_supported());
        assert_eq!(percentile(&[4.0], 0.99).value, 4.0);
    }

    #[test]
    fn ratio_prints_its_base() {
        let r = Ratio {
            part: 150,
            base: 200,
        };
        assert_eq!(r.value(), 0.75);
        assert_eq!(r.to_string(), "0.750 (150/200)");
        assert_eq!(Ratio { part: 0, base: 0 }.to_string(), "0.000 (0/0)");
    }
}
