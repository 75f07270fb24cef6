//! Parallel-determinism guarantees for the shared replica-sweep harness:
//! sweeping the paper scenario through `meryn_scenario::sweep` produces
//! **byte-identical** serialized results whether the rayon shim runs on
//! one thread or many, under both policy modes. This is the invariant
//! that makes threading the evaluation safe — no reported number may
//! depend on scheduling.

use meryn_scenario::sweep::{self, DEFAULT_BASE_SEED};
use rayon::ThreadPoolBuilder;

const REPLICAS: u64 = 4;

fn at_threads<R>(threads: usize, op: impl FnOnce() -> R) -> R {
    ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("shim pool build is infallible")
        .install(op)
}

/// Serializes the full per-replica reports of one sweep.
fn sweep_reports_json(mode: &str, threads: usize) -> String {
    at_threads(threads, || {
        let reports = sweep::paper_reports(mode, DEFAULT_BASE_SEED, REPLICAS);
        serde_json::to_string(&reports).expect("reports serialize")
    })
}

/// Serializes the aggregated sweep statistics of both modes.
fn sweep_stats_json(threads: usize) -> String {
    at_threads(threads, || {
        let report = sweep::SweepReport::collect_both(DEFAULT_BASE_SEED, REPLICAS);
        serde_json::to_string(&report).expect("sweep report serializes")
    })
}

#[test]
fn replica_reports_are_byte_identical_at_any_thread_count() {
    for mode in ["meryn", "static"] {
        let sequential = sweep_reports_json(mode, 1);
        for threads in [2, 8] {
            let threaded = sweep_reports_json(mode, threads);
            assert_eq!(
                sequential, threaded,
                "sweep reports diverged between 1 and {threads} threads under {mode}"
            );
        }
    }
}

#[test]
fn aggregated_sweep_is_byte_identical_at_any_thread_count() {
    let sequential = sweep_stats_json(1);
    for threads in [2, 8] {
        assert_eq!(
            sequential,
            sweep_stats_json(threads),
            "aggregated sweep stats diverged between 1 and {threads} threads"
        );
    }
}

#[test]
fn table1_case_sweep_is_thread_count_independent() {
    for case in meryn_scenario::TABLE1_CASES {
        let sequential = at_threads(1, || sweep::case_sweep(case, DEFAULT_BASE_SEED, 8));
        let threaded = at_threads(8, || sweep::case_sweep(case, DEFAULT_BASE_SEED, 8));
        assert_eq!(
            sequential.mean().to_bits(),
            threaded.mean().to_bits(),
            "{case}: mean diverged across thread counts"
        );
        assert_eq!(
            sequential.std_dev().to_bits(),
            threaded.std_dev().to_bits(),
            "{case}: std_dev diverged across thread counts"
        );
    }
}

/// A deployment engineered for wide same-instant shard batches: four
/// VCs, zero front-end latency, and arrival waves landing whole
/// cohorts of submissions on the same millisecond — so the sharded
/// executor's *intra*-simulation parallel path (cross-shard event runs
/// fanned out through the rayon shim) actually fires, instead of the
/// usual one-event instants of calibrated-latency runs.
fn collision_heavy_report(threads: usize) -> (String, u64) {
    use meryn_core::config::{PlatformConfig, VcConfig};
    use meryn_core::Platform;
    use meryn_frameworks::{JobSpec, ScalingLaw};
    use meryn_sim::{SimDuration, SimTime};
    use meryn_sla::negotiation::UserStrategy;
    use meryn_vmm::LatencyModel;
    use meryn_workloads::{Submission, VcTarget};

    let mut cfg = PlatformConfig::paper("meryn");
    cfg.private_capacity = 48;
    cfg.vcs = vec![
        VcConfig::batch("A", 12),
        VcConfig::batch("B", 12),
        VcConfig::batch("C", 12),
        VcConfig::batch("D", 12),
    ];
    cfg.latencies.base = LatencyModel::ZERO;
    let mut workload = Vec::new();
    for wave in 0..4u64 {
        for i in 0..40u64 {
            workload.push(Submission::new(
                SimTime::from_secs(5 + wave * 500),
                VcTarget::Index((i % 4) as usize),
                JobSpec::Batch {
                    // Same per-wave work: the wave's cohort finishes on
                    // one instant too, across all four shards.
                    work: SimDuration::from_secs(100 + wave * 20),
                    nb_vms: 1,
                    scaling: ScalingLaw::Fixed,
                },
                UserStrategy::AcceptCheapest,
            ));
        }
    }
    at_threads(threads, || {
        let mut platform = Platform::new(cfg.clone());
        platform.enqueue_workload(&workload);
        platform.run_to_completion();
        let parallel_runs = platform.parallel_runs();
        let report = platform.finalize();
        (
            serde_json::to_string(&report).expect("report serializes"),
            parallel_runs,
        )
    })
}

#[test]
fn intra_simulation_shard_batches_are_thread_count_independent() {
    let (sequential, runs_1) = collision_heavy_report(1);
    assert!(
        runs_1 > 0,
        "the collision-heavy deployment must produce fan-out-width runs"
    );
    for threads in [2, 8] {
        let (threaded, runs_n) = collision_heavy_report(threads);
        assert_eq!(
            sequential, threaded,
            "single-simulation report diverged between 1 and {threads} threads"
        );
        assert_eq!(runs_1, runs_n, "run batching must not depend on threads");
    }
}

/// Runs a purely-local deployment of `vc_count` VCs under the paper's
/// calibrated (randomized) latencies and returns each VC's application
/// records with the platform-global [`AppId`]s normalized away —
/// dropping a VC shifts later ids, but nothing else may move.
fn per_vc_records(vc_count: usize) -> Vec<Vec<meryn_core::report::AppRecord>> {
    use meryn_core::config::{PlatformConfig, VcConfig};
    use meryn_core::ids::{AppId, VcId};
    use meryn_core::Platform;
    use meryn_frameworks::{JobSpec, ScalingLaw};
    use meryn_sim::{SimDuration, SimTime};
    use meryn_sla::negotiation::UserStrategy;
    use meryn_workloads::{Submission, VcTarget};

    const FULL_WIDTH: usize = 4;
    let mut cfg = PlatformConfig::paper("meryn");
    // Capacity for the *full* roster either way, and per-VC room for
    // every job it will ever host: all decisions stay Local, so no
    // pool, market or cloud state ever couples the shards.
    cfg.private_capacity = 96;
    // 12 slaves per VC comfortably covers each VC's peak concurrency
    // (≤ 5 jobs × ≤ 2 VMs), so no VC ever needs to borrow.
    cfg.vcs = (0..vc_count)
        .map(|i| VcConfig::batch(format!("vc-{i}"), 12))
        .collect();
    let workload: Vec<Submission> = (0..48u64)
        .filter_map(|i| {
            let target = (i % FULL_WIDTH as u64) as usize;
            (target < vc_count).then(|| {
                Submission::new(
                    SimTime::from_secs(10 + i * 37),
                    VcTarget::Index(target),
                    JobSpec::Batch {
                        work: SimDuration::from_secs(300 + (i * 53) % 400),
                        nb_vms: 1 + i % 2,
                        scaling: ScalingLaw::Fixed,
                    },
                    UserStrategy::AcceptCheapest,
                )
            })
        })
        .collect();
    let mut platform = Platform::new(cfg);
    platform.enqueue_workload(&workload);
    platform.run_to_completion();
    let report = platform.finalize();
    assert_eq!(report.rejected, 0, "ample capacity must admit everything");
    assert_eq!(report.bursts, 0, "a purely-local run must not burst");
    assert_eq!(report.transfers, 0, "a purely-local run must not transfer");
    (0..vc_count)
        .map(|vc| {
            report
                .apps
                .iter()
                .filter(|a| a.vc == VcId(vc))
                .cloned()
                .map(|mut a| {
                    a.id = AppId(0);
                    a
                })
                .collect()
        })
        .collect()
}

#[test]
fn shard_rng_streams_are_independent_across_the_roster() {
    // Per-shard latency streams are seeded from the shard index alone
    // (`stream_seed(seed, SHARD_STREAM_BASE + i)`), so removing the
    // *last* VC — and with it every draw that VC ever made — must
    // leave the surviving shards' entire trajectories bit-identical.
    // Under a single shared control-plane stream this fails instantly:
    // the fourth VC's draws would interleave into everyone's sequence.
    let wide = per_vc_records(4);
    let narrow = per_vc_records(3);
    for (vc, (w, n)) in wide.iter().zip(&narrow).enumerate() {
        assert!(!w.is_empty(), "vc {vc} must host applications");
        assert_eq!(
            serde_json::to_string(w).unwrap(),
            serde_json::to_string(n).unwrap(),
            "vc {vc}'s records changed when the roster shrank from 4 to 3 VCs"
        );
    }
}

#[test]
fn replica_streams_are_independent_of_sweep_width() {
    // Replica i's report must not change when the sweep grows: its RNG
    // stream is a pure function of (base, i), not of the replica count.
    let narrow = sweep::paper_reports("meryn", DEFAULT_BASE_SEED, 2);
    let wide = sweep::paper_reports("meryn", DEFAULT_BASE_SEED, 4);
    for (i, (a, b)) in narrow.iter().zip(&wide).enumerate() {
        assert_eq!(
            serde_json::to_string(a).unwrap(),
            serde_json::to_string(b).unwrap(),
            "replica {i} changed when the sweep widened"
        );
    }
}
