//! Order statistics the reports are built from.

/// The percentiles the benchmark ever reports, ascending, in per mille
/// (integers, so "ten samples beyond" is exact).
const LADDER: [usize; 5] = [500, 900, 950, 990, 999];

/// The highest percentile of [`LADDER`] that `n` samples support: at
/// least ten samples must lie beyond it, or the figure is one outlier's
/// latency rather than a percentile. `None` below 20 samples.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .find(|&&p| n * (1000 - p) >= 10 * 1000)
        .map(|&p| p as f64 / 10.0)
}

/// The `p`-th percentile (nearest rank) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `want` if the sample supports it, else the highest percentile it does
/// support (the median when even that is out of reach); 0 for no samples.
pub fn supported_percentile(sorted: &[f64], want: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let top = highest_supported_percentile(sorted.len()).unwrap_or(50.0);
    percentile(sorted, want.min(top))
}

pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("latencies are never NaN"));
}

/// The median (mean of the middle pair for even counts); 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the exclusive method) — the spread rule the pipeline
/// applies to repeated runs. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    let m = v.len();
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median (0 when undefined).
pub fn iqr_share(values: &[f64]) -> f64 {
    match (quartiles(values), median(values)) {
        (Some((q1, q3)), m) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_picker_keeps_ten_samples_beyond_the_percentile() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn percentiles_use_the_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 100.0);
        assert_eq!(percentile(&v, 95.0), 190.0);
        assert_eq!(percentile(&v, 100.0), 200.0);
        // 150 samples do not support p95: the picker falls back to p90.
        assert_eq!(supported_percentile(&v[..150], 95.0), 135.0);
        assert_eq!(supported_percentile(&v, 95.0), 190.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2, 9, 4, 7], n=4) == [1.75, 3.5, 7.5]
        assert_eq!(
            quartiles(&[3.0, 1.0, 2.0, 9.0, 4.0, 7.0]),
            Some((1.75, 7.5))
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(median(&[3.0, 1.0, 2.0, 9.0, 4.0, 7.0]), 3.5);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }
}
