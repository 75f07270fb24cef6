//! Order statistics for timing samples.

/// Fewest samples a reported tail percentile must leave beyond it.
const MIN_TAIL_SAMPLES: f64 = 10.0;

/// Linearly interpolated quantile `q` (0 to 1) of `xs`.
///
/// # Panics
/// On an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The highest of `candidates` (percentiles, 0 to 100) that leaves at
/// least ten of `n` samples beyond it, or `None` when none does.
pub fn tail_percentile(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|p| n as f64 * (100.0 - p) / 100.0 >= MIN_TAIL_SAMPLES - 1e-9)
        .max_by(f64::total_cmp)
}

#[cfg(test)]
mod tests {
    use super::*;

    const CANDIDATES: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(5, &CANDIDATES), None);
        assert_eq!(tail_percentile(19, &CANDIDATES), None);
        assert_eq!(tail_percentile(20, &CANDIDATES), Some(50.0));
        assert_eq!(tail_percentile(999, &CANDIDATES), Some(90.0));
        assert_eq!(tail_percentile(1000, &CANDIDATES), Some(99.0));
        assert_eq!(tail_percentile(9_999, &CANDIDATES), Some(99.0));
        assert_eq!(tail_percentile(10_000, &CANDIDATES), Some(99.9));
    }

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&[7.0]), 7.0);
    }
}
