//! Order statistics over small samples: the median every reported number
//! is, quantiles of latency samples, and the rule for how far into the
//! tail a sample of a given size can be read.

/// Sorts `v` ascending (timings are never NaN; a NaN would sort last).
pub fn sort(v: &mut [f64]) {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Greater));
}

/// The `q`-quantile (`0.0..=1.0`) of an ascending slice, nearest-rank;
/// `0.0` for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `v` (mean of the two middle values for an even count).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    sort(&mut s);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The first and third quartile of `v` as Python's
/// `statistics.quantiles(v, n=4)` gives them (the rule the driver
/// applies to ten runs); `None` for fewer than two values.
pub fn quartiles(v: &[f64]) -> Option<(f64, f64)> {
    if v.len() < 2 {
        return None;
    }
    let mut s = v.to_vec();
    sort(&mut s);
    let m = s.len() + 1;
    let at = |i: usize| {
        let j = (i * m / 4).clamp(1, s.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// The distance between the quartiles of `v` as a share of its median:
/// the run-to-run spread a metric's bound is held against. `0.0` for
/// fewer than two values.
pub fn spread(v: &[f64]) -> f64 {
    match (quartiles(v), median(v)) {
        (Some((q1, q3)), m) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// The percentiles a latency sample may be read at, ascending, in
/// hundredths of a percent (whole numbers, so sample counts are exact).
const PERCENTILE_LADDER: [u64; 5] = [5_000, 9_000, 9_900, 9_990, 9_999];

/// The highest of p50, p90, p99, p99.9 and p99.99 that still has at
/// least ten of the `n` samples beyond it — a tail read from fewer is
/// one or two outliers, not a percentile. `None` when even the median
/// has not.
pub fn top_percentile(n: usize) -> Option<f64> {
    PERCENTILE_LADDER
        .iter()
        .rfind(|&&p| n as u64 * (10_000 - p) / 10_000 >= 10)
        .map(|&p| p as f64 / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picker_needs_ten_samples_beyond() {
        assert_eq!(top_percentile(0), None);
        assert_eq!(top_percentile(19), None);
        assert_eq!(top_percentile(20), Some(50.0));
        assert_eq!(top_percentile(99), Some(50.0));
        assert_eq!(top_percentile(100), Some(90.0));
        assert_eq!(top_percentile(999), Some(90.0));
        assert_eq!(top_percentile(1_000), Some(99.0));
        assert_eq!(top_percentile(5_000), Some(99.0));
        assert_eq!(top_percentile(10_000), Some(99.9));
        assert_eq!(top_percentile(60_000), Some(99.9));
        assert_eq!(top_percentile(100_000), Some(99.99));
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(spread(&[10.0]), 0.0);
        // Three values: the quartiles are the ends.
        assert!((spread(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        assert_eq!(quartiles(&[8.0, 1.0, 4.0, 2.0]), Some((1.25, 7.0)));
    }
}
