//! Order statistics shared by the workloads, the layer ladder and `compare`.

/// Nearest-rank quantile of an ascending slice: the smallest sample with at
/// least `q` of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let n = sorted.len();
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Nearest-rank quantile of unsorted `values`; NaN (reported as a failed
/// check) when there are none.
#[must_use]
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        f64::NAN
    } else {
        quantile(&sorted(values), q)
    }
}

/// `values` sorted ascending (NaN-free input assumed).
#[must_use]
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median of `values` (nearest-rank, like every in-run percentile).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// The three quartile cut points of `values`, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method), so
/// `compare` reports the same spread the acceptance rule is stated in.  A
/// single sample (which Python refuses) is its own three quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of no samples");
    let data = sorted(values);
    let ld = data.len();
    if ld == 1 {
        return [data[0]; 3];
    }
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    out
}

/// Inter-quartile distance as a share of the median (Python's quartiles).
#[must_use]
pub fn relative_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        f64::INFINITY
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// The highest of the usual reporting percentiles that still has at least
/// ten samples beyond it, for a sample of `n` timings; `None` below 20.
#[must_use]
pub fn tail_percentile(n: usize) -> Option<f64> {
    // Per mille, so the "ten beyond" test is exact integer arithmetic.
    [999u32, 990, 950, 900, 750, 500]
        .into_iter()
        .find(|&pm| n as u64 * u64::from(1000 - pm) >= 10_000)
        .map(|pm| f64::from(pm) / 10.0)
}

/// Geometric mean of strictly positive values.
///
/// # Panics
///
/// Panics on an empty slice or a non-positive value.
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of no samples");
    assert!(
        values.iter().all(|v| *v > 0.0),
        "geometric mean needs positive values: {values:?}"
    );
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_of_nothing_is_nan() {
        assert!(percentile(&[], 0.5).is_nan());
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.9), 3.0);
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        // nearest rank picks the lower middle of an even sample
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 1.0), 4.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.0), 1.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), [1.25, 2.5, 3.75]);
        // statistics.quantiles([5, 1], n=4) == [0.0, 3.0, 6.0] (extrapolates)
        assert_eq!(quartiles(&[5.0, 1.0]), [0.0, 3.0, 6.0]);
        assert_eq!(quartiles(&[2.0]), [2.0, 2.0, 2.0]);
        let spread = relative_spread(&v);
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[2.0, 8.0, 4.0]) - 4.0).abs() < 1e-9);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
    }
}
