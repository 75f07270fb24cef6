//! The fault plane's determinism battery.
//!
//! Crashes, transient lease rejections and outage windows are all
//! drawn from dedicated seeded streams (per-shard fault streams, the
//! cloud's fault fork), so arming them must not cost a byte of
//! determinism: a fault-enabled run is **byte-identical** at 1, 2 and
//! 8 threads with the parallel fan-out actually firing, and a
//! checkpoint taken *inside* an outage window, restored through a
//! serde round trip, finishes byte-for-byte like the uninterrupted
//! run. The fixed-case tests assert the failure processes really
//! fired — determinism of a fault-free run would be vacuous — and a
//! proptest sweeps random fault regimes over random workloads.

use meryn_core::config::{FaultSpec, OutageWindow, PlatformConfig, VcConfig, ViolationPolicy};
use meryn_core::{EngineCheckpoint, Platform};
use meryn_frameworks::{JobSpec, ScalingLaw};
use meryn_sim::{SimDuration, SimTime};
use meryn_sla::negotiation::UserStrategy;
use meryn_vmm::LatencyModel;
use meryn_workloads::{Submission, VcTarget};
use proptest::prelude::*;
use rayon::ThreadPoolBuilder;

fn at_threads<R>(threads: usize, op: impl FnOnce() -> R) -> R {
    ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("shim pool build is infallible")
        .install(op)
}

/// A pressured multi-VC deployment with every failure process armed:
/// tight VM MTBF (stints run long enough that crashes are near
/// certain), a coin-flip lease rejection, and an outage window planted
/// across the early escalation burst.
fn chaotic_config() -> PlatformConfig {
    let mut cfg = PlatformConfig::paper("meryn");
    cfg.private_capacity = 8 * 6;
    cfg.vcs = (0..8)
        .map(|i| VcConfig::batch(format!("vc-{i:02}"), 4))
        .collect();
    // Zero front-end latency keeps each wave's cohort on one instant,
    // which is what lets same-instant runs clear the fan-out gate.
    cfg.latencies.base = LatencyModel::ZERO;
    cfg.violation_policy = ViolationPolicy::EscalateToCloud;
    cfg.faults = FaultSpec {
        vm_mtbf_secs: Some(900),
        lease_rejection_prob: 0.5,
        lease_rejection_secs: 60,
        cloud_outages: vec![OutageWindow {
            cloud: 0,
            from_secs: 400,
            to_secs: 900,
        }],
        retry_max: 3,
        backoff_base_secs: 15,
        backoff_cap_secs: 120,
    };
    cfg
}

/// Wave arrivals over the eight VCs; enough same-instant work that
/// every VC overflows and the cloud market stays busy.
fn chaotic_workload() -> Vec<Submission> {
    let mut subs = Vec::new();
    for wave in 0..6u64 {
        for i in 0..24usize {
            subs.push(Submission::new(
                SimTime::from_secs(5 + wave * 120),
                VcTarget::Index(i % 8),
                JobSpec::Batch {
                    work: SimDuration::from_secs(300 + (i as u64 % 5) * 90),
                    nb_vms: 1 + (i as u64 % 2),
                    scaling: ScalingLaw::Fixed,
                },
                UserStrategy::AcceptCheapest,
            ));
        }
    }
    subs
}

fn run_chaotic(threads: usize) -> (String, u64) {
    let cfg = chaotic_config();
    let workload = chaotic_workload();
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
fn fault_enabled_run_is_thread_count_independent() {
    let (sequential, runs_1) = run_chaotic(1);
    assert!(
        runs_1 > 0,
        "no run cleared the fan-out gate — the case never exercised the parallel path"
    );
    let report: meryn_core::RunReport =
        serde_json::from_str(&sequential).expect("report deserializes");
    let faults = report
        .faults
        .expect("fault stats present when faults armed");
    assert!(faults.vm_crashes > 0, "no crash ever fired: {faults:?}");
    assert!(
        faults.lease_rejections > 0,
        "no lease was ever refused: {faults:?}"
    );
    for threads in [2usize, 8] {
        let (threaded, runs_n) = run_chaotic(threads);
        assert_eq!(
            sequential, threaded,
            "fault-enabled report diverged between 1 and {threads} threads"
        );
        assert_eq!(
            runs_1, runs_n,
            "run batching must not depend on the thread count"
        );
    }
}

/// One random fault-enabled deployment + workload, fully described by
/// plain data so every thread-count run rebuilds an identical
/// platform.
#[derive(Debug, Clone)]
struct FaultCase {
    vcs: usize,
    seed: u64,
    mtbf_secs: u64,
    rejection_pct: u8,
    outage: (u64, u64),
    /// `(wave, target, work_secs, nb_vms)` per submission.
    subs: Vec<(u64, usize, u64, u64)>,
}

fn fault_case_strategy() -> impl Strategy<Value = FaultCase> {
    (
        2usize..=12,
        any::<u64>(),
        300u64..2_000,
        0u8..=70,
        (100u64..800, 200u64..900),
        prop::collection::vec((0u64..6, 0usize..16, 120u64..900, 1u64..=2), 40..90),
    )
        .prop_map(
            |(vcs, seed, mtbf_secs, rejection_pct, (from, len), subs)| FaultCase {
                vcs,
                seed,
                mtbf_secs,
                rejection_pct,
                outage: (from, from + len),
                subs,
            },
        )
}

fn run_fault_case(case: &FaultCase, threads: usize) -> (String, u64) {
    let mut cfg = PlatformConfig::paper("meryn");
    cfg.seed = case.seed;
    cfg.private_capacity = case.vcs as u64 * 6;
    cfg.vcs = (0..case.vcs)
        .map(|i| VcConfig::batch(format!("vc-{i:02}"), 4))
        .collect();
    cfg.latencies.base = LatencyModel::ZERO;
    cfg.violation_policy = ViolationPolicy::EscalateToCloud;
    cfg.faults = FaultSpec {
        vm_mtbf_secs: Some(case.mtbf_secs),
        lease_rejection_prob: f64::from(case.rejection_pct) / 100.0,
        lease_rejection_secs: 60,
        cloud_outages: vec![OutageWindow {
            cloud: 0,
            from_secs: case.outage.0,
            to_secs: case.outage.1,
        }],
        retry_max: 3,
        backoff_base_secs: 15,
        backoff_cap_secs: 120,
    };
    let workload: Vec<Submission> = case
        .subs
        .iter()
        .map(|&(wave, target, work, nb_vms)| {
            Submission::new(
                SimTime::from_secs(5 + wave * 120),
                VcTarget::Index(target % case.vcs),
                JobSpec::Batch {
                    work: SimDuration::from_secs(work),
                    nb_vms,
                    scaling: ScalingLaw::Fixed,
                },
                UserStrategy::AcceptCheapest,
            )
        })
        .collect();
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

proptest! {
    // Each case runs three full simulations; a handful of cases keeps
    // the battery meaningful without dominating the suite's wall time.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// *Random* fault regimes (MTBF, rejection probability, outage
    /// window) over random workloads: the report stays byte-identical
    /// at 1, 2 and 8 threads with the fan-out firing. Whether the
    /// drawn hazard actually crashed anything is case-dependent — the
    /// fixed chaotic case above asserts the processes fire; this
    /// battery pins the equality across the whole parameter space.
    #[test]
    fn random_fault_regimes_are_thread_count_independent(case in fault_case_strategy()) {
        let (sequential, runs_1) = run_fault_case(&case, 1);
        prop_assert!(
            runs_1 > 0,
            "no run cleared the fan-out gate — the case never exercised the parallel path"
        );
        for threads in [2usize, 8] {
            let (threaded, runs_n) = run_fault_case(&case, threads);
            prop_assert_eq!(
                &sequential,
                &threaded,
                "fault-enabled report diverged between 1 and {} threads", threads
            );
            prop_assert_eq!(
                runs_1,
                runs_n,
                "run batching must not depend on the thread count"
            );
        }
    }
}

#[test]
fn checkpoint_inside_an_outage_window_resumes_byte_identically() {
    let cfg = chaotic_config();
    let workload = chaotic_workload();

    let mut uninterrupted = Platform::new(cfg.clone());
    uninterrupted.enqueue_workload(&workload);
    uninterrupted.run_to_completion();
    let expected = serde_json::to_string(&uninterrupted.finalize()).expect("report serializes");

    // Stop mid-outage (the 400–900 s window), snapshot, round-trip the
    // checkpoint through its JSON wire format, resume, finish.
    let mut interrupted = Platform::new(cfg);
    interrupted.enqueue_workload(&workload);
    let more = interrupted.run_until(SimTime::from_secs(600));
    assert!(more, "the run must still be in flight mid-outage");
    let wire = serde_json::to_string(&interrupted.checkpoint()).expect("checkpoint serializes");
    let cp: EngineCheckpoint = serde_json::from_str(&wire).expect("checkpoint deserializes");
    let mut resumed = Platform::from_checkpoint(cp, workload);
    resumed.run_to_completion();
    let actual = serde_json::to_string(&resumed.finalize()).expect("report serializes");

    assert_eq!(
        expected, actual,
        "resuming across an outage window must reproduce the uninterrupted report"
    );
    let report: meryn_core::RunReport = serde_json::from_str(&actual).expect("report parses");
    let faults = report
        .faults
        .expect("fault stats present when faults armed");
    assert!(
        faults.vm_crashes > 0 && faults.lease_rejections > 0,
        "the checkpointed run never exercised the fault plane: {faults:?}"
    );
}
