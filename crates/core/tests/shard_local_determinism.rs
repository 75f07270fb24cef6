//! The shard-local control plane's determinism battery.
//!
//! Latency draws, SLA checks and VM choreography run inside the per-VC
//! shards, which is exactly what lets same-instant cross-shard runs fan
//! out to worker threads. These property tests pin the contract that
//! design must honour: for *random* workloads over 2–16 VCs, the
//! finalized report is **byte-identical** at 1, 2 and 8 threads — and
//! the fan-out path actually fires (`parallel_runs > 0`), so the
//! equality is exercised, not vacuous.
//!
//! The fan-out-width runs come from the controller-check grid. A
//! reporting controller (`ViolationPolicy::Report`) wakes only once,
//! at the first grid tick past its deadline, so its checks are too
//! sparse to fill a run; the cases therefore deploy with
//! `ViolationPolicy::EscalateToCloud`, whose controllers poll the
//! shared 30-second grid for as long as their application is live.
//! The workload generator deliberately lands whole cohorts on shared
//! instants (wave arrivals, zero front-end latency) and keeps dozens of
//! applications live at once, so those polls produce same-instant runs
//! wide enough to clear the executor's fan-out gate at every generated
//! case.

use meryn_core::app::AppPhase;
use meryn_core::config::{PlatformConfig, VcConfig, ViolationPolicy};
use meryn_core::{AppId, EngineCheckpoint, Platform, ReportMode};
use meryn_frameworks::{JobSpec, ScalingLaw};
use meryn_sim::{SimDuration, SimTime};
use meryn_sla::negotiation::UserStrategy;
use meryn_vmm::LatencyModel;
use meryn_workloads::{Submission, VcTarget};
use proptest::prelude::*;
use rayon::ThreadPoolBuilder;

/// VMs deployed per VC; capacity is sized so every VC's share fits.
const VMS_PER_VC: u64 = 4;

fn at_threads<R>(threads: usize, op: impl FnOnce() -> R) -> R {
    ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("shim pool build is infallible")
        .install(op)
}

/// One random deployment + workload, fully described by plain data so
/// every thread-count run rebuilds an identical platform.
#[derive(Debug, Clone)]
struct Case {
    vcs: usize,
    seed: u64,
    /// `(wave, target, work_secs, nb_vms)` per submission.
    subs: Vec<(u64, usize, u64, u64)>,
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        2usize..=16,
        any::<u64>(),
        prop::collection::vec((0u64..6, 0usize..16, 120u64..900, 1u64..=2), 40..90),
    )
        .prop_map(|(vcs, seed, subs)| Case { vcs, seed, subs })
}

/// The case's deployment, with polling (escalating) SLA controllers so
/// the check grid fans out. `zero_base` wipes the front-end latency so
/// every wave's cohort lands on one instant (the widest possible
/// same-instant runs); the streamed tests keep the paper's 7–15 s CM
/// handling so each cohort has a genuine negotiation window to
/// checkpoint inside.
fn case_cfg(case: &Case, zero_base: bool) -> PlatformConfig {
    let mut cfg = PlatformConfig::paper("meryn");
    cfg.seed = case.seed;
    cfg.violation_policy = ViolationPolicy::EscalateToCloud;
    cfg.private_capacity = case.vcs as u64 * (VMS_PER_VC + 2);
    cfg.vcs = (0..case.vcs)
        .map(|i| VcConfig::batch(format!("vc-{i:02}"), VMS_PER_VC))
        .collect();
    if zero_base {
        cfg.latencies.base = LatencyModel::ZERO;
    }
    cfg
}

fn case_workload(case: &Case) -> Vec<Submission> {
    build_workload(case)
}

/// The streaming contract wants arrival order (`at` nondecreasing);
/// the stable sort keeps same-instant submissions in generation order
/// so every run — and every resume — sees the identical sequence.
fn case_stream(case: &Case) -> Vec<Submission> {
    let mut workload = build_workload(case);
    workload.sort_by_key(|sub| sub.at);
    workload
}

fn build_workload(case: &Case) -> Vec<Submission> {
    case.subs
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
        .collect()
}

/// Runs the case on `threads` workers; returns the serialized report
/// and the number of fanned-out runs.
fn run_case(case: &Case, threads: usize) -> (String, u64) {
    let cfg = case_cfg(case, true);
    let workload = case_workload(case);
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

/// The hyperscale configuration of the same case: aggregate reporting,
/// arrivals attached as an iterator in arrival order (pumped into the
/// shard queues at their instants with their pre-reserved tags). The
/// admission those arrivals trigger runs in-shard.
fn streamed_platform(case: &Case) -> Platform {
    let workload = case_stream(case);
    let mut platform = Platform::new(case_cfg(case, false)).with_report_mode(ReportMode::Aggregate);
    platform
        .stream_workload(workload.len() as u64, workload)
        .expect("a fresh platform has no stream attached");
    platform
}

/// Full streamed run; returns the serialized report and fan-out count.
fn run_streamed(case: &Case, threads: usize) -> (String, u64) {
    at_threads(threads, || {
        let mut platform = streamed_platform(case);
        platform.run_to_completion();
        let parallel_runs = platform.parallel_runs();
        let report = platform.finalize();
        (
            serde_json::to_string(&report).expect("report serializes"),
            parallel_runs,
        )
    })
}

/// Streamed run interrupted at `stop_secs`: checkpoint, JSON
/// round-trip, resume with the same generated sequence, drain. Returns
/// the serialized report plus how many applications were checkpointed
/// mid-negotiation (phase [`AppPhase::Acquiring`] — between arrival
/// and framework hand-off).
fn run_streamed_resumed(case: &Case, threads: usize, stop_secs: u64) -> (String, usize) {
    at_threads(threads, || {
        let mut platform = streamed_platform(case);
        platform.run_until(SimTime::from_secs(stop_secs));
        let negotiating = (0..case.subs.len() as u64)
            .filter_map(|i| platform.app(AppId(i)))
            .filter(|app| app.phase == AppPhase::Acquiring)
            .count();
        let json = serde_json::to_string(&platform.checkpoint()).expect("checkpoint serializes");
        let cp: EngineCheckpoint = serde_json::from_str(&json).expect("checkpoint parses");
        let mut resumed = Platform::from_checkpoint(cp, case_stream(case));
        resumed.run_to_completion();
        let report = serde_json::to_string(&resumed.finalize()).expect("report serializes");
        (report, negotiating)
    })
}

proptest! {
    // Each case runs three full simulations; a handful of cases keeps
    // the battery meaningful without dominating the suite's wall time.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn random_workloads_are_thread_count_independent(case in case_strategy()) {
        let (sequential, runs_1) = run_case(&case, 1);
        prop_assert!(
            runs_1 > 0,
            "no run cleared the fan-out gate — the case never exercised the parallel path"
        );
        for threads in [2usize, 8] {
            let (threaded, runs_n) = run_case(&case, threads);
            prop_assert_eq!(
                &sequential,
                &threaded,
                "report diverged between 1 and {} threads", threads
            );
            prop_assert_eq!(
                runs_1,
                runs_n,
                "run batching must not depend on the thread count"
            );
        }
    }

    /// The same contract for the hyperscale configuration: aggregate
    /// reporting with arrivals streamed through the pump (pre-reserved
    /// seq-tag blocks, shard-side admission). Byte-identical at 1, 2
    /// and 8 threads, with the fan-out path exercised.
    #[test]
    fn streamed_aggregate_runs_are_thread_count_independent(case in case_strategy()) {
        let (sequential, runs_1) = run_streamed(&case, 1);
        prop_assert!(
            runs_1 > 0,
            "no streamed run cleared the fan-out gate — the parallel path went unexercised"
        );
        for threads in [2usize, 8] {
            let (threaded, runs_n) = run_streamed(&case, threads);
            prop_assert_eq!(
                &sequential,
                &threaded,
                "streamed report diverged between 1 and {} threads", threads
            );
            prop_assert_eq!(
                runs_1,
                runs_n,
                "streamed run batching must not depend on the thread count"
            );
        }
    }

    /// Checkpointing a streamed run **mid-negotiation** — after a
    /// wave's arrivals registered their applications in-shard but
    /// inside the 7–15 s CM-handling window, so `Effect::Place` is
    /// still in flight — then resuming through a JSON round-trip
    /// reproduces the uninterrupted run byte for byte, sequentially
    /// and threaded.
    #[test]
    fn streamed_checkpoint_mid_negotiation_resumes_byte_identically(
        case in case_strategy(),
        wave in 0u64..6,
        offset in 1u64..=6,
    ) {
        // 1–6 s past a wave instant is strictly below the minimum CM
        // handling draw, so every application that arrived on that
        // wave is still negotiating when the checkpoint is cut.
        let stop_secs = 5 + wave * 120 + offset;
        let (full, _) = run_streamed(&case, 1);
        let (resumed, negotiating) = run_streamed_resumed(&case, 1, stop_secs);
        prop_assert!(
            negotiating > 0 || !case.subs.iter().any(|&(w, ..)| w == wave),
            "a populated wave arrived {offset} s ago yet nothing is mid-negotiation"
        );
        prop_assert_eq!(
            &resumed, &full,
            "sequential mid-negotiation resume from t={} diverged", stop_secs
        );
        let (threaded, _) = run_streamed_resumed(&case, 8, stop_secs);
        prop_assert_eq!(
            &threaded, &full,
            "threaded mid-negotiation resume from t={} diverged", stop_secs
        );
    }
}
