//! Order statistics.

/// Median of `values` (mean of the middle two for even counts).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`.
///
/// # Panics
/// Panics with fewer than two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need two values");
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2, 5], n=4) == [1.25, 2.5, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 5.0]), [1.25, 2.5, 4.5]);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
