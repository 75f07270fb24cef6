//! Summary statistics for experiment reporting.
//!
//! The evaluation binaries need means, spreads and percentiles over small
//! sample sets (65 applications, 100 latency probes). Two flavours are
//! provided: [`OnlineStats`] (Welford, single pass, no storage) for running
//! aggregates, and [`Summary`] (stores the samples) when percentiles are
//! needed. A mean over integer quantities (milliseconds, micro-units) is
//! [`exact_mean`] of their exact sum instead.

use serde::{Deserialize, Serialize};

/// Single-pass running mean/variance (Welford's algorithm).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Feeds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (zero when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (zero for fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (NaN-free: +∞ when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (−∞ when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A stored-sample summary with percentile support.
///
/// All aggregates (`mean`, `std_dev`, `sum`, percentiles) are computed
/// over a canonically ordered view of the samples, so two summaries fed
/// the same multiset of observations in **any order** — e.g. replica
/// results arriving from differently-scheduled parallel sweeps — report
/// bit-identical statistics.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Summary {
    samples: Vec<f64>,
    sorted: bool,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a summary from a slice.
    pub fn from_slice(xs: &[f64]) -> Self {
        let mut s = Self::new();
        for &x in xs {
            s.push(x);
        }
        s
    }

    /// Adds an observation.
    pub fn push(&mut self, x: f64) {
        assert!(x.is_finite(), "summary samples must be finite, got {x}");
        self.samples.push(x);
        self.sorted = false;
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The samples in canonical (ascending `total_cmp`) order — the fixed
    /// evaluation order that makes every aggregate insertion-order-free.
    fn canonical(&self) -> Vec<f64> {
        let mut xs = self.samples.clone();
        xs.sort_by(f64::total_cmp);
        xs
    }

    /// Merges another summary's samples into this one. Because aggregates
    /// are evaluated in canonical order, `a.merge(&b)` and `b.merge(&a)`
    /// report bit-identical statistics.
    pub fn merge(&mut self, other: &Summary) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }

    /// Sample mean (zero when empty), via a single Welford pass over the
    /// canonically ordered samples: permutation-independent to the bit.
    pub fn mean(&self) -> f64 {
        self.welford().1
    }

    /// Population standard deviation, from the same order-independent
    /// Welford pass as [`Self::mean`].
    pub fn std_dev(&self) -> f64 {
        let (n, _, m2) = self.welford();
        if n < 2 {
            return 0.0;
        }
        (m2 / n as f64).sqrt()
    }

    /// Welford recurrence `(count, mean, m2)` over the canonical order.
    fn welford(&self) -> (usize, f64, f64) {
        let (mut mean, mut m2) = (0.0f64, 0.0f64);
        let xs = self.canonical();
        for (i, &x) in xs.iter().enumerate() {
            let delta = x - mean;
            mean += delta / (i + 1) as f64;
            m2 += delta * (x - mean);
        }
        (xs.len(), mean, m2)
    }

    /// Smallest observation (+∞ when empty).
    pub fn min(&self) -> f64 {
        self.samples.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Largest observation (−∞ when empty).
    pub fn max(&self) -> f64 {
        self.samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Sum of all observations, accumulated in canonical order
    /// (insertion-order-free like the other aggregates).
    pub fn sum(&self) -> f64 {
        self.canonical().into_iter().sum()
    }

    /// The `p`-th percentile (0 ≤ p ≤ 100) by nearest-rank on the sorted
    /// samples. Panics when empty.
    pub fn percentile(&mut self, p: f64) -> f64 {
        assert!(!self.samples.is_empty(), "percentile of empty summary");
        assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
            self.sorted = true;
        }
        let n = self.samples.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        self.samples[rank.clamp(1, n) - 1]
    }

    /// Median, i.e. the 50th percentile.
    pub fn median(&mut self) -> f64 {
        self.percentile(50.0)
    }

    /// Read-only view of the raw samples (insertion order not guaranteed
    /// once a percentile has been queried).
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// The mean of `n` integer samples from their exact sum: one quotient,
/// `sum / (n · scale)`, where `scale` sample units make one reported
/// unit (e.g. 1000 for milliseconds read as seconds); zero when `n` is
/// zero. Both operands convert exactly while `|sum|` and `n · scale`
/// stay below 2⁵³, so the result is then the correctly rounded mean —
/// the same whatever order the samples were summed in.
pub fn exact_mean(sum: i128, n: u64, scale: u64) -> f64 {
    if n == 0 {
        return 0.0;
    }
    sum as f64 / (u128::from(n) * u128::from(scale)) as f64
}

/// Relative improvement of `new` over `old` in percent, as the paper
/// reports ("16.72% better"): positive when `new` is smaller.
pub fn improvement_pct(old: f64, new: f64) -> f64 {
    if old == 0.0 {
        return 0.0;
    }
    (old - new) / old * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_mean_and_variance() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn online_empty_is_safe() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn online_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0 + 50.0).collect();
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        for &x in &xs[..37] {
            left.push(x);
        }
        for &x in &xs[37..] {
            right.push(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
    }

    #[test]
    fn online_merge_with_empty() {
        let mut a = OnlineStats::new();
        a.push(3.0);
        let b = OnlineStats::new();
        let mut a2 = a;
        a2.merge(&b);
        assert_eq!(a2.mean(), 3.0);
        let mut c = OnlineStats::new();
        c.merge(&a);
        assert_eq!(c.mean(), 3.0);
    }

    #[test]
    fn summary_basic_stats() {
        let s = Summary::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.mean(), 2.5);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
        assert_eq!(s.sum(), 10.0);
        assert_eq!(s.count(), 4);
    }

    #[test]
    fn summary_percentiles() {
        let mut s = Summary::from_slice(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.percentile(100.0), 5.0);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(20.0), 1.0);
        assert_eq!(s.percentile(80.0), 4.0);
    }

    #[test]
    fn summary_is_permutation_independent_to_the_bit() {
        // Values chosen so naive left-to-right summation is order-sensitive
        // (mixed magnitudes force different roundings per order).
        let base: Vec<f64> = (0..64)
            .map(|i| (i as f64 * 0.7).sin() * 10f64.powi(i % 7 - 3) + 1.0 / 3.0)
            .collect();
        let reference = Summary::from_slice(&base);

        // A deterministic little shuffler (LCG) over several permutations.
        let mut perm = base.clone();
        let mut state = 0x243F_6A88_85A3_08D3u64;
        for round in 0..8 {
            for i in (1..perm.len()).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                perm.swap(i, (state >> 33) as usize % (i + 1));
            }
            let shuffled = Summary::from_slice(&perm);
            assert_eq!(
                reference.mean().to_bits(),
                shuffled.mean().to_bits(),
                "mean diverged on permutation {round}"
            );
            assert_eq!(
                reference.std_dev().to_bits(),
                shuffled.std_dev().to_bits(),
                "std_dev diverged on permutation {round}"
            );
            assert_eq!(reference.sum().to_bits(), shuffled.sum().to_bits());
        }
    }

    #[test]
    fn summary_merge_is_order_free() {
        let xs: Vec<f64> = (0..40).map(|i| (i as f64).cos() * 3.25 + 10.0).collect();
        let whole = Summary::from_slice(&xs);
        let mut ab = Summary::from_slice(&xs[..13]);
        ab.merge(&Summary::from_slice(&xs[13..]));
        let mut ba = Summary::from_slice(&xs[13..]);
        ba.merge(&Summary::from_slice(&xs[..13]));
        assert_eq!(whole.mean().to_bits(), ab.mean().to_bits());
        assert_eq!(ab.mean().to_bits(), ba.mean().to_bits());
        assert_eq!(ab.std_dev().to_bits(), ba.std_dev().to_bits());
        assert_eq!(ab.count(), 40);
    }

    #[test]
    #[should_panic(expected = "percentile of empty")]
    fn percentile_empty_panics() {
        Summary::new().percentile(50.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn summary_rejects_nan() {
        Summary::new().push(f64::NAN);
    }

    #[test]
    fn exact_mean_is_the_rounded_quotient() {
        assert_eq!(exact_mean(0, 0, 1000), 0.0);
        assert_eq!(exact_mean(9_780, 2, 1), 4890.0);
        assert_eq!(exact_mean(-3, 2, 1), -1.5);
        // 1/3 of a second from milliseconds: the quotient, not a sum of
        // per-sample divisions.
        assert_eq!(exact_mean(1_000, 3, 1000), 1.0 / 3.0);
        assert_eq!(exact_mean(i128::from(u64::MAX), 1, 1), u64::MAX as f64);
    }

    #[test]
    fn improvement_percent() {
        assert!((improvement_pct(2091.0, 2021.0) - 3.348).abs() < 0.01);
        assert_eq!(improvement_pct(0.0, 5.0), 0.0);
        assert!(improvement_pct(100.0, 120.0) < 0.0);
    }
}
