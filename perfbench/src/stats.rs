//! Order statistics over timing samples.

/// Median of `values` (mean of the two middle values for an even count).
/// `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p`% of the
/// samples at or below it. `NaN` for an empty slice.
pub fn percentile(values: &[f64], p: u32) -> f64 {
    let sorted = sorted(values);
    if sorted.is_empty() {
        return f64::NAN;
    }
    let n = sorted.len() as u64;
    let rank = (u64::from(p.min(100)) * n).div_ceil(100).max(1);
    sorted[(rank - 1) as usize]
}

/// The highest integer percentile whose nearest-rank position leaves at
/// least `min_above` samples above it, or `None` when there are too few
/// samples for any.
pub fn tail_percentile(n: usize, min_above: usize) -> Option<u32> {
    if n <= min_above {
        return None;
    }
    // rank = ceil(p * n / 100) must stay <= n - min_above.
    let p = (100 * (n - min_above)) / n;
    Some(p as u32)
}

/// Quartiles with the same interpolation as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method).
/// `None` for fewer than two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let n = 4usize;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    Some(out)
}

/// Interquartile range as a share of the median — the run-to-run spread the
/// benchmark's bounds are checked against.
pub fn relative_iqr(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    Some((q3 - q1) / median(values))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 10.0);
        assert_eq!(percentile(&v, 90), 18.0);
        assert_eq!(percentile(&v, 100), 20.0);
        assert_eq!(percentile(&v, 0), 1.0);
        assert!(percentile(&[], 50).is_nan());
    }

    #[test]
    fn tail_leaves_ten_samples_above() {
        assert_eq!(tail_percentile(10, 10), None);
        assert_eq!(tail_percentile(11, 10), Some(9));
        assert_eq!(tail_percentile(20, 10), Some(50));
        assert_eq!(tail_percentile(100, 10), Some(90));
        assert_eq!(tail_percentile(37, 10), Some(72));
        for n in 11..400 {
            let p = tail_percentile(n, 10).unwrap();
            let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let at = percentile(&v, p);
            let above = v.iter().filter(|&&x| x > at).count();
            assert!(above >= 10, "n={n} p={p} leaves {above} above");
            let next = percentile(&v, p + 1);
            let above_next = v.iter().filter(|&&x| x > next).count();
            assert!(
                p == 100 || above_next < 10,
                "n={n}: p{} also qualifies",
                p + 1
            );
        }
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([5, 1, 9, 3, 7], n=4) == [2.0, 5.0, 8.0]
        assert_eq!(quartiles(&[5.0, 1.0, 9.0, 3.0, 7.0]), Some([2.0, 5.0, 8.0]));
        assert_eq!(quartiles(&[1.0]), None);
        let spread = relative_iqr(&v).unwrap();
        assert!((spread - 5.5 / 5.5).abs() < 1e-12);
    }
}
