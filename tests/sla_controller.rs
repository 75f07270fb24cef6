//! Oracles for the Application Controller (§3.3) under the paper's
//! violation policy, `ViolationPolicy::Report`.
//!
//! A reporting controller can act only once its application is past
//! the deadline, so it wakes once, at the first check-grid instant
//! after `deadline_at`. Two consequences are checked here against
//! independent arithmetic rather than recorded output:
//!
//! - the check interval moves nothing but the event count, which
//!   exceeds an unmonitored run's by exactly one check per admitted
//!   application;
//! - every application's `violation_detected` is that one instant when
//!   the application was still unfinished there, and `None` otherwise.

use meryn_core::config::{Latencies, PlatformConfig, VcConfig, ViolationPolicy};
use meryn_core::{AppId, Platform, RunReport};
use meryn_frameworks::{JobSpec, ScalingLaw};
use meryn_sim::{SimDuration, SimTime};
use meryn_sla::negotiation::UserStrategy;
use meryn_vmm::LatencyModel;
use meryn_workloads::{paper_workload, PaperWorkloadParams, Submission, VcTarget};

/// The paper workload under `mode`, with `interval` between controller
/// checks (`None`: no controller at all).
fn paper_run(mode: &str, interval: Option<u64>) -> RunReport {
    let mut cfg = PlatformConfig::paper(mode);
    cfg.violation_policy = ViolationPolicy::Report;
    cfg.controller_check_interval = interval.map(SimDuration::from_secs);
    Platform::new(cfg).run(paper_workload(PaperWorkloadParams::default()))
}

/// The report as JSON with its event count zeroed: everything the run
/// decided, without the one figure the controller is allowed to move.
fn decisions(mut report: RunReport) -> String {
    report.events_processed = 0;
    serde_json::to_string(&report).expect("report serializes")
}

#[test]
fn report_mode_checks_each_application_once_at_any_interval() {
    for mode in ["meryn", "static"] {
        let unmonitored = paper_run(mode, None);
        assert_eq!(unmonitored.apps_count(), 65, "{mode}: the paper admits 65");
        let base_events = unmonitored.events_processed;
        let base = decisions(unmonitored);
        for secs in [10, 30, 300] {
            let run = paper_run(mode, Some(secs));
            assert_eq!(
                run.events_processed - base_events,
                run.apps_count() as u64,
                "{mode} at {secs} s: one controller check per admitted application"
            );
            assert_eq!(
                decisions(run),
                base,
                "{mode} at {secs} s: the check interval must not change a decision"
            );
        }
    }
}

/// `i`-th of 40 one-VM batch submissions alternating over two VCs: a
/// pair every 40 s, each carrying 150–390 s of work. One VM per VC
/// cannot keep up, so the queues grow and most deadlines pass while
/// their applications still wait.
fn queued_sub(i: u64) -> Submission {
    Submission::new(
        SimTime::from_secs(5 + (i / 2) * 40),
        VcTarget::Index((i % 2) as usize),
        JobSpec::Batch {
            work: SimDuration::from_secs(150 + (i * 37) % 240),
            nb_vms: 1,
            scaling: ScalingLaw::Fixed,
        },
        UserStrategy::AcceptCheapest,
    )
}

#[test]
fn report_mode_detects_each_violation_at_the_first_tick_past_its_deadline() {
    let interval = 30_000u64; // ms
    let mut cfg = PlatformConfig::paper("meryn");
    cfg.private_capacity = 2;
    cfg.vcs = vec![VcConfig::batch("VC1", 1), VcConfig::batch("VC2", 1)];
    cfg.clouds.clear();
    cfg.violation_policy = ViolationPolicy::Report;
    cfg.controller_check_interval = Some(SimDuration::from_millis(interval));
    let workload: Vec<Submission> = (0..40).map(queued_sub).collect();
    let report = Platform::new(cfg).run(&workload);
    assert_eq!(
        report.apps.len(),
        workload.len(),
        "every submission is admitted"
    );

    let (mut detected, mut in_time) = (0, 0);
    for (i, app) in report.apps.iter().enumerate() {
        assert_eq!(app.id, AppId(i as u64), "records list in AppId order");
        let completed = app.completed.expect("a queue with no cloud drains");
        // The first multiple of the interval strictly after the deadline.
        let due = SimTime::from_millis((app.deadline.as_millis() / interval + 1) * interval);
        // A completion on `due` itself is detected: the check was armed
        // at admission, so its tag precedes the completion's.
        let expected = (completed >= due).then_some(due);
        assert_eq!(
            app.violation_detected, expected,
            "app {i}: deadline {:?}, completed {completed:?}",
            app.deadline
        );
        if expected.is_some() {
            detected += 1;
        } else {
            in_time += 1;
        }
    }
    assert!(
        detected > 0,
        "the queue must push some application past its deadline"
    );
    assert!(in_time > 0, "some application must finish before its check");
}

/// The edge of the closed form: a completion landing exactly on its
/// check's instant counts as detected. One VM, zero latencies and a
/// deadline equal to the work: `first` (20 s) runs on arrival, `second`
/// (40 s, deadline 40 s) waits for it and finishes at 60 s, the first
/// tick past its deadline. Its completion was scheduled at its 20 s
/// dispatch, yet the controller armed at admission still acts first.
#[test]
fn report_mode_detects_a_completion_on_the_check_instant() {
    let mut cfg = PlatformConfig::paper("static");
    cfg.private_capacity = 1;
    cfg.vcs = vec![VcConfig::batch("VC1", 1)];
    cfg.clouds.clear();
    cfg.suspension_enabled = false;
    cfg.quote_speed = 1.0;
    cfg.processing_allowance = SimDuration::ZERO;
    cfg.latencies = Latencies {
        base: LatencyModel::ZERO,
        ..Latencies::default()
    };
    cfg.violation_policy = ViolationPolicy::Report;
    cfg.controller_check_interval = Some(SimDuration::from_secs(30));
    let sub = |work| {
        Submission::new(
            SimTime::ZERO,
            VcTarget::Index(0),
            JobSpec::Batch {
                work: SimDuration::from_secs(work),
                nb_vms: 1,
                scaling: ScalingLaw::Fixed,
            },
            UserStrategy::AcceptCheapest,
        )
    };
    let report = Platform::new(cfg).run([sub(20), sub(40)]);
    let [first, second] = &report.apps[..] else {
        panic!("both submissions are admitted: {:?}", report.apps);
    };
    assert_eq!(second.id, AppId(1));
    assert_eq!(second.deadline, SimTime::from_secs(40));
    assert_eq!(second.completed, Some(SimTime::from_secs(60)));
    assert_eq!(second.violation_detected, Some(SimTime::from_secs(60)));
    assert_eq!(first.id, AppId(0));
    assert_eq!(first.violation_detected, None, "finished on its deadline");
}
