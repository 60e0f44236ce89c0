//! Order statistics the benchmark reports: median, MAD, quartile
//! spread and geometric mean. Benchmark-owned so the numbers do not
//! move when a crate under test changes its own helpers.

/// Sorted copy of `v` (total order, so a NaN cannot panic the sort).
fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    s
}

/// Median; the mean of the two middle values for an even count.
///
/// # Panics
///
/// Panics on an empty slice: every caller takes at least one sample.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let s = sorted(v);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Median absolute deviation from the median.
pub fn mad(v: &[f64]) -> f64 {
    let m = median(v);
    let dev: Vec<f64> = v.iter().map(|x| (x - m).abs()).collect();
    median(&dev)
}

/// Geometric mean of positive values.
pub fn geomean(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "geomean of no samples");
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(v, n=4)` (the default exclusive method) gives
/// them — the acceptance procedure is stated in those terms.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    assert!(v.len() >= 2, "quartiles need two samples");
    let s = sorted(v);
    let n = s.len();
    let q = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (q(1), q(3))
}

/// Distance between the quartiles as a share of the median: the
/// run-to-run spread a regression bound has to clear.
pub fn spread(v: &[f64]) -> f64 {
    let (q1, q3) = quartiles(v);
    (q3 - q1) / median(v).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn mad_ignores_one_outlier() {
        // Deviations from the median 3: 2 1 0 1 97 -> median 1.
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 100.0]), 1.0);
        assert_eq!(mad(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        // A 2x gain and a 2x loss cancel, which an arithmetic mean
        // would not show.
        assert!((geomean(&[2.0, 0.5]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }
}
