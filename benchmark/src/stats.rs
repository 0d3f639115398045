//! Order statistics used for reporting: nearest-rank percentiles for latency
//! samples (the program's own formula, so bench-side and server-side numbers
//! compare), and Python-compatible quartiles for the run-to-run noise table
//! (the acceptance rule is stated in terms of `statistics.quantiles(n=4)`).

/// Index of the `q`-quantile in a sorted sample of `len` values
/// (nearest-rank, clamped) — the formula of `cej_server::latency`.
pub fn nearest_rank(len: usize, q: f64) -> usize {
    ((len as f64 * q).ceil() as usize).clamp(1, len) - 1
}

/// Nearest-rank percentile of an unsorted sample; 0 for an empty one.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[nearest_rank(sorted.len(), q)]
}

/// Plain median (mean of the two middle values for even counts).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `statistics.quantiles(values, n=4)` with Python's default (exclusive)
/// method: `[q1, q2, q3]`.  Needs at least two values.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    assert!(samples.len() >= 2, "quartiles need two samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in (1..4).enumerate() {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        out[slot] = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median — the spread the acceptance
/// rule compares against a metric's bound.
pub fn iqr_share(samples: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(samples);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Largest relative deviation of any sample from the median.
pub fn max_rel_deviation(samples: &[f64]) -> f64 {
    let m = median(samples);
    if m == 0.0 {
        return 0.0;
    }
    samples
        .iter()
        .map(|v| ((v - m) / m).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_server_formula() {
        for len in [1usize, 2, 3, 19, 20, 21, 100, 1399, 1400, 1401] {
            for q in [0.0, 0.01, 0.5, 0.9, 0.95, 0.99, 1.0] {
                assert_eq!(
                    nearest_rank(len, q),
                    cej_server::latency::nearest_rank(len, q),
                    "len {len} q {q}"
                );
            }
        }
    }

    #[test]
    fn percentile_picks_nearest_rank_samples() {
        let samples: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.5), 10.0);
        assert_eq!(percentile(&samples, 0.95), 19.0);
        assert_eq!(percentile(&samples, 1.0), 20.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15.0, 40.0, 120.0]
        assert_eq!(
            quartiles(&[160.0, 10.0, 80.0, 20.0, 40.0]),
            [15.0, 40.0, 120.0]
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((iqr_share(&ten) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn max_deviation_is_relative_to_the_median() {
        assert!((max_rel_deviation(&[90.0, 100.0, 125.0]) - 0.25).abs() < 1e-12);
    }
}
