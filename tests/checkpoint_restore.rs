//! Checkpoint/restore and streamed-arrival guarantees.
//!
//! A checkpoint is a serde snapshot of the complete engine state —
//! per-VC shard state machines, the shared fabric (pool, clouds,
//! ledger, metrics, RNG stream positions), the shard queues and the
//! arrival stream's cursor. The contract pinned here: resuming from a
//! checkpoint taken at *any* instant, with the same workload handed
//! back, reproduces the uninterrupted run's report **byte for byte**,
//! at any thread count, through a JSON round-trip of the checkpoint
//! itself; and streaming a generated workload from its generator is
//! byte-identical to enqueueing the materialized vector.

use meryn_core::config::{PlatformConfig, VcConfig};
use meryn_core::report::ReportMode;
use meryn_core::{EngineCheckpoint, Platform, VcId};
use meryn_scenario::spec::{WorkloadModifier, WorkloadSpec};
use meryn_scenario::{single_run_resume, single_run_start, Scenario};
use meryn_sim::SimTime;
use meryn_workloads::{paper_workload, PaperWorkloadParams};
use proptest::prelude::*;
use rayon::ThreadPoolBuilder;

fn at_threads<R>(threads: usize, op: impl FnOnce() -> R) -> R {
    ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("shim pool build is infallible")
        .install(op)
}

/// A pressured two-VC deployment: 9 mixed-strategy submissions on 4
/// private slots, so the trajectory crosses transfers, bursts,
/// suspensions and SLA checks — every effect family a checkpoint has
/// to capture mid-flight.
fn small_cfg() -> PlatformConfig {
    let mut cfg = PlatformConfig::paper("meryn");
    cfg.private_capacity = 4;
    cfg.vcs = vec![VcConfig::batch("VC1", 2), VcConfig::batch("VC2", 2)];
    cfg
}

fn small_workload() -> Vec<meryn_workloads::Submission> {
    paper_workload(PaperWorkloadParams {
        vc1_apps: 6,
        vc2_apps: 3,
        ..Default::default()
    })
}

fn uninterrupted_json(threads: usize) -> String {
    at_threads(threads, || {
        let report = Platform::new(small_cfg()).run(small_workload());
        serde_json::to_string(&report).expect("report serializes")
    })
}

fn resumed_json(threads: usize, stop_secs: u64) -> String {
    at_threads(threads, || {
        let mut platform = Platform::new(small_cfg());
        platform.enqueue_workload(small_workload());
        platform.run_until(SimTime::from_secs(stop_secs));
        // JSON round-trip: the checkpoint must survive serialization,
        // not just a same-process clone.
        let json = serde_json::to_string(&platform.checkpoint()).expect("checkpoint serializes");
        let cp: EngineCheckpoint = serde_json::from_str(&json).expect("checkpoint parses");
        let mut resumed = Platform::from_checkpoint(cp, small_workload());
        resumed
            .audit_invariants()
            .expect("restored fabric passes the conservation audit");
        resumed.run_to_completion();
        resumed
            .audit_invariants()
            .expect("drained fabric passes the conservation audit");
        serde_json::to_string(&resumed.finalize()).expect("report serializes")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Checkpoint at a random instant — before the first arrival, in
    /// the thick of the run, or past completion — then resume: the
    /// final report is byte-identical to the uninterrupted run's, at
    /// 1 thread and 8.
    #[test]
    fn checkpoint_resume_is_byte_identical_at_any_instant(stop_secs in 0u64..4_000) {
        let full = uninterrupted_json(1);
        prop_assert_eq!(
            &resumed_json(1, stop_secs), &full,
            "sequential resume from t={} diverged", stop_secs
        );
        prop_assert_eq!(
            &resumed_json(8, stop_secs), &full,
            "threaded resume from t={} diverged", stop_secs
        );
    }
}

/// The hyperscale CI scenario cut down for debug-build budgets, still
/// streaming + aggregate (its production configuration).
fn trimmed_hyperscale_ci(count: usize) -> Scenario {
    let mut s = Scenario::load(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../scenarios/hyperscale-ci.json"
    ))
    .expect("the shipped hyperscale-ci spec loads");
    match &mut s.workload {
        WorkloadSpec::Generated { config, .. } => config.count = count,
        _ => unreachable!("hyperscale-ci is a Generated scenario"),
    }
    s
}

#[test]
fn streamed_arrivals_match_the_batch_enqueued_run() {
    let s = trimmed_hyperscale_ci(600);
    // Production path: aggregate mode, arrivals streamed from the
    // seeded generator with O(1) arrival memory.
    let mut streamed = single_run_start(&s).expect("generated workloads need no files");
    streamed.run_to_completion();
    let streamed = serde_json::to_string(&streamed.finalize()).unwrap();
    // Comparator: the same submissions materialized into a sorted list
    // and handed over with `enqueue_workload`, same report mode.
    let workload = s
        .workload
        .materialize(&WorkloadModifier::default())
        .expect("generated workloads need no files");
    let mut batch = Platform::new(s.platform.clone().with_seed(s.sweep.base_seed))
        .with_series_recording(s.outputs.series)
        .with_report_mode(ReportMode::Aggregate);
    batch.enqueue_workload(&workload);
    batch.run_to_completion();
    let batch = serde_json::to_string(&batch.finalize()).unwrap();
    assert_eq!(streamed, batch, "streaming must not change the trajectory");
}

#[test]
fn streaming_checkpoint_resumes_mid_stream() {
    let s = trimmed_hyperscale_ci(600);
    let mut full = single_run_start(&s).unwrap();
    full.run_to_completion();
    let full = serde_json::to_string(&full.finalize()).unwrap();
    // 600 arrivals at a ~12.3 s mean gap span ~7400 s; checkpoint in
    // the thick of the stream, with arrivals still unconsumed.
    let mut platform = single_run_start(&s).unwrap();
    platform.run_until(SimTime::from_secs(3_000));
    let json = serde_json::to_string(&platform.checkpoint()).unwrap();
    let cp: EngineCheckpoint = serde_json::from_str(&json).unwrap();
    let mut resumed = single_run_resume(&s, cp);
    resumed
        .audit_invariants()
        .expect("restored fabric passes the conservation audit");
    resumed.run_to_completion();
    resumed
        .audit_invariants()
        .expect("drained fabric passes the conservation audit");
    let resumed = serde_json::to_string(&resumed.finalize()).unwrap();
    assert_eq!(resumed, full, "mid-stream resume diverged");
}

#[test]
fn streaming_checkpoint_resume_is_thread_count_independent() {
    let s = trimmed_hyperscale_ci(400);
    let run = |threads: usize| {
        at_threads(threads, || {
            let mut platform = single_run_start(&s).unwrap();
            platform.run_until(SimTime::from_secs(2_000));
            let cp: EngineCheckpoint =
                serde_json::from_str(&serde_json::to_string(&platform.checkpoint()).unwrap())
                    .unwrap();
            let mut resumed = single_run_resume(&s, cp);
            resumed.run_to_completion();
            serde_json::to_string(&resumed.finalize()).unwrap()
        })
    };
    assert_eq!(run(1), run(8), "resumed run diverged across thread counts");
}

#[test]
fn aggregate_mode_matches_full_mode_headlines() {
    // The hyperscale configuration (aggregate + streamed) must answer
    // the same headline questions as a full-records run of the same
    // scenario: identical counts, Money totals and peaks, and — since
    // both modes fold the same exact integer totals — bit-identical
    // means.
    let s = trimmed_hyperscale_ci(500);
    let mut agg = single_run_start(&s).unwrap();
    agg.run_to_completion();
    let agg = agg.finalize();
    let mut full_spec = s.clone();
    full_spec.outputs.aggregate = false;
    let mut full = single_run_start(&full_spec).unwrap();
    full.run_to_completion();
    let full = full.finalize();

    assert!(agg.apps.is_empty(), "aggregate mode keeps no app records");
    assert_eq!(full.apps.len(), full.apps_count(), "full mode keeps them");
    assert_eq!(agg.totals, full.totals, "both modes fold the same totals");
    assert_eq!(agg.apps_count(), full.apps_count());
    assert!(agg.apps_count() + agg.rejected == 500, "lost submissions");
    assert_eq!(agg.violations(), full.violations());
    assert_eq!(agg.total_cost(), full.total_cost());
    assert_eq!(agg.total_revenue(), full.total_revenue());
    assert_eq!(agg.total_penalty(), full.total_penalty());
    assert_eq!(agg.completion_time, full.completion_time);
    assert_eq!(agg.peak_private.to_bits(), full.peak_private.to_bits());
    assert_eq!(agg.peak_cloud.to_bits(), full.peak_cloud.to_bits());
    assert_eq!(agg.events_processed, full.events_processed);
    assert_eq!(agg.placement_counts(), full.placement_counts());

    let vcs = s.platform.vcs.len();
    for vc in std::iter::once(None).chain((0..vcs).map(|v| Some(VcId(v)))) {
        let (a, b) = (agg.group(vc), full.group(vc));
        assert_eq!((a.count, a.violations), (b.count, b.violations), "{vc:?}");
        assert_eq!(
            (a.total_cost, a.total_revenue),
            (b.total_cost, b.total_revenue),
            "{vc:?}"
        );
        assert_eq!(
            a.avg_exec_secs.to_bits(),
            b.avg_exec_secs.to_bits(),
            "{vc:?}"
        );
        assert_eq!(
            a.avg_cost_units.to_bits(),
            b.avg_cost_units.to_bits(),
            "{vc:?}"
        );
    }
    let ((mean_a, max_a), (mean_b, max_b)) = (
        agg.processing_mean_max_secs(),
        full.processing_mean_max_secs(),
    );
    assert_eq!(mean_a.to_bits(), mean_b.to_bits());
    assert_eq!(max_a.to_bits(), max_b.to_bits());
    let (a, b) = (agg.headline(), full.headline());
    assert_eq!(a.completion_secs.to_bits(), b.completion_secs.to_bits());
    assert_eq!(a.avg_cost_units.to_bits(), b.avg_cost_units.to_bits());
    assert_eq!(a.total_cost, b.total_cost);
    assert_eq!(a.peak_cloud.to_bits(), b.peak_cloud.to_bits());
    assert_eq!(a.violations, b.violations);
}

#[test]
fn run_scenario_reports_are_byte_identical_in_both_report_modes() {
    // `outputs.aggregate` decides only whether a single run keeps its
    // records; a scenario report's jobs keep none either way and every
    // number comes from the same exact totals.
    let mut s = Scenario::load(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../scenarios/representative-datacenter.json"
    ))
    .expect("the shipped representative-datacenter spec loads");
    match &mut s.workload {
        WorkloadSpec::Generated { config, .. } => config.count = 1_500,
        _ => unreachable!("representative-datacenter is a Generated scenario"),
    }
    let report = |aggregate: bool| {
        let mut spec = s.clone();
        spec.outputs.aggregate = aggregate;
        let report =
            meryn_scenario::run_scenario(&spec).expect("generated workloads need no files");
        (report.to_json(), report.render())
    };
    let (full_json, full_text) = report(false);
    let (agg_json, agg_text) = report(true);
    assert!(full_json.contains("\"avg_cost_units\""));
    assert_eq!(full_json, agg_json);
    assert_eq!(full_text, agg_text);
}
