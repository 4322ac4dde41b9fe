//! Order statistics for request times.

/// Median of `values` (mean of the middle two for an even count); NaN when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// The tail of a sample: the highest percentile that still has at least
/// ten samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The value at that percentile (the 11th-largest sample).
    pub value: f64,
    /// The percentile, `100 × (n − 10) / n`.
    pub percentile: f64,
    /// Samples the tail was taken from.
    pub samples: usize,
}

/// [`Tail`] of `values`. With ten or fewer samples no percentile has ten
/// beyond it; the maximum is returned at percentile 100.
pub fn tail(values: &[f64]) -> Tail {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= 10 {
        return Tail {
            value: v.last().copied().unwrap_or(f64::NAN),
            percentile: 100.0,
            samples: n,
        };
    }
    Tail { value: v[n - 11], percentile: 100.0 * (n - 10) as f64 / n as f64, samples: n }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&values);
        assert_eq!(t.samples, 100);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.value, 90.0);
        assert_eq!(values.iter().filter(|&&v| v > t.value).count(), 10);

        let values: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        let t = tail(&values);
        assert_eq!((t.value, t.percentile, t.samples), (30.0, 75.0, 40));
    }

    #[test]
    fn tail_of_a_small_sample_is_its_maximum() {
        let t = tail(&[5.0, 9.0, 1.0]);
        assert_eq!((t.value, t.percentile, t.samples), (9.0, 100.0, 3));
        let t = tail(&(0..11).map(f64::from).collect::<Vec<_>>());
        assert_eq!(t.value, 0.0);
    }
}
