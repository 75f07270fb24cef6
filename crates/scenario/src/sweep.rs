//! Shared replica-sweep harness for the experiment binaries.
//!
//! Every evaluation binary repeats some unit of work — the full paper
//! scenario, a Table 1 micro-scenario, a config variant — across many
//! seeded replicas and aggregates the results. This module is the one
//! implementation of that loop:
//!
//! 1. **seed fanout** — [`replica_seeds`] derives one independent RNG
//!    stream per replica from a base seed (via [`SimRng::stream_seed`]),
//!    so a replica's randomness depends only on `(base, index)`, never on
//!    execution order;
//! 2. **parallel run** — [`fanout`] maps the work function over the
//!    replicas through the rayon shim with an order-preserving collect;
//! 3. **aggregation** — results are folded **in replica order** into
//!    [`ReplicaStats`] / [`Summary`], so sequential (`RAYON_NUM_THREADS=1`)
//!    and multi-threaded sweeps produce byte-identical aggregates
//!    (`tests/parallel_determinism.rs` locks this down).

use meryn_core::report::{Headline, RunReport};
use meryn_sim::stats::{OnlineStats, Summary};
use meryn_sim::SimRng;
use rayon::prelude::*;
use serde::Serialize;

use crate::paper::{measure_case, run_paper};

/// Base seed the binaries sweep from unless told otherwise — the same
/// constant the single-run figures (Fig 5/6) pin their one run to.
pub const DEFAULT_BASE_SEED: u64 = 0xC0FFEE;

/// Derives the per-replica seeds `0..replicas` from `base_seed`.
///
/// Each replica gets an independent seed-derived RNG stream: replica `i`
/// simulates with `SimRng::stream_seed(base_seed, i)`, a pure function of
/// the pair, so any subset of replicas can run on any thread in any order
/// without perturbing the others.
pub fn replica_seeds(base_seed: u64, replicas: u64) -> Vec<u64> {
    (0..replicas)
        .map(|i| SimRng::stream_seed(base_seed, i))
        .collect()
}

/// Runs `work` over `items` in parallel (rayon shim), preserving input
/// order in the output — the core fanout every binary goes through.
pub fn fanout<T, U, F>(items: Vec<T>, work: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync + Send,
{
    items.into_par_iter().map(work).collect()
}

/// Seed-fanout: runs `work` once per derived replica seed, in parallel,
/// results in replica order.
pub fn fanout_seeds<U, F>(base_seed: u64, replicas: u64, work: F) -> Vec<U>
where
    U: Send,
    F: Fn(u64) -> U + Sync + Send,
{
    fanout(replica_seeds(base_seed, replicas), work)
}

/// Runs the full paper scenario once per replica under the named
/// placement policy, returning the per-replica [`RunReport`]s in
/// replica order.
pub fn paper_reports(policy: &str, base_seed: u64, replicas: u64) -> Vec<RunReport> {
    fanout_seeds(base_seed, replicas, |seed| run_paper(policy, seed))
}

/// Aggregates of one policy's replica sweep: the four headline metrics
/// of the paper's evaluation, each as mean ± std.
///
/// Determinism caveat: the underlying Welford accumulators are
/// insertion-order-sensitive at the bit level, so thread-count
/// independence comes from [`Self::from_headlines`] always folding in
/// replica order (after the order-preserving parallel collect) — do not
/// feed results in completion order.
#[derive(Debug, Clone, Serialize)]
pub struct ReplicaStats {
    /// Workload completion time [s].
    pub completion: OnlineStats,
    /// Total provider cost [units].
    pub cost: OnlineStats,
    /// Peak number of leased cloud VMs.
    pub peak_cloud: OnlineStats,
    /// SLA violations.
    pub violations: OnlineStats,
}

impl ReplicaStats {
    /// Folds the runs' headlines ([`RunReport::headline`]) in the given
    /// (replica) order.
    pub fn from_headlines(headlines: &[Headline]) -> Self {
        let mut stats = ReplicaStats {
            completion: OnlineStats::new(),
            cost: OnlineStats::new(),
            peak_cloud: OnlineStats::new(),
            violations: OnlineStats::new(),
        };
        for h in headlines {
            stats.completion.push(h.completion_secs);
            stats.cost.push(h.total_cost.as_units_f64());
            stats.peak_cloud.push(h.peak_cloud);
            stats.violations.push(h.violations as f64);
        }
        stats
    }
}

/// Sweeps the paper scenario for one policy: seed fanout, parallel runs
/// (each reduced to its headline), aggregation in replica order.
pub fn paper_sweep(policy: &str, base_seed: u64, replicas: u64) -> ReplicaStats {
    ReplicaStats::from_headlines(&fanout_seeds(base_seed, replicas, |seed| {
        run_paper(policy, seed).headline()
    }))
}

/// Sweeps one Table 1 placement case over `samples` derived seeds and
/// summarizes the measured processing times [s].
pub fn case_sweep(case: &str, base_seed: u64, samples: u64) -> Summary {
    Summary::from_slice(&fanout_seeds(base_seed, samples, |seed| {
        measure_case(case, seed)
    }))
}

/// One policy's row in a machine-readable sweep report.
#[derive(Debug, Clone, Serialize)]
pub struct SweepMode {
    /// Policy label (`meryn` / `static`).
    pub mode: String,
    /// Aggregated replica statistics.
    pub stats: ReplicaStats,
}

/// The machine-readable output of the `sweep` binary — deterministic for
/// a given `(base_seed, replicas)` at any thread count, which CI checks
/// by byte-comparing the sequential and threaded runs.
#[derive(Debug, Clone, Serialize)]
pub struct SweepReport {
    /// Base seed the replica streams were derived from.
    pub base_seed: u64,
    /// Number of replicas per policy.
    pub replicas: u64,
    /// One entry per policy mode.
    pub modes: Vec<SweepMode>,
}

impl SweepReport {
    /// Sweeps both of the paper's policies (`meryn`, then `static`).
    pub fn collect_both(base_seed: u64, replicas: u64) -> Self {
        SweepReport {
            base_seed,
            replicas,
            modes: ["meryn", "static"]
                .into_iter()
                .map(|policy| SweepMode {
                    mode: policy.to_owned(),
                    stats: paper_sweep(policy, base_seed, replicas),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replica_seeds_are_distinct_and_stable() {
        let a = replica_seeds(DEFAULT_BASE_SEED, 32);
        let b = replica_seeds(DEFAULT_BASE_SEED, 32);
        assert_eq!(a, b, "seed derivation must be pure");
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 32, "derived seeds must not collide");
        // Different base: entirely different streams.
        assert_ne!(a, replica_seeds(DEFAULT_BASE_SEED + 1, 32));
        // The shipped specs and goldens record this base seed.
        assert_eq!(DEFAULT_BASE_SEED, 0xC0FFEE);
    }

    #[test]
    fn fanout_preserves_order() {
        let out = fanout((0..100u64).collect(), |x| x * x);
        assert_eq!(out, (0..100u64).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn paper_sweep_aggregates_every_replica() {
        let stats = paper_sweep("meryn", DEFAULT_BASE_SEED, 3);
        assert_eq!(stats.completion.count(), 3);
        assert!(stats.completion.mean() > 0.0);
        assert_eq!(stats.peak_cloud.count(), 3);
    }

    #[test]
    fn case_sweep_stays_positive() {
        let s = case_sweep("local-vm", DEFAULT_BASE_SEED, 5);
        assert_eq!(s.count(), 5);
        assert!(s.min() > 0.0);
    }
}
