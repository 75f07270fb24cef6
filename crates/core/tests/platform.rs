//! End-to-end checks of the `Platform` engine API on small
//! deployments: placement outcomes per policy, lease tear-down,
//! suspension lending, rejection paths, retirement of completed
//! applications and of terminated VMs, determinism and the per-shard
//! event breakdown.

use meryn_core::config::{PlatformConfig, VcConfig};
use meryn_core::report::ReportMode;
use meryn_core::{AppId, Platform};
use meryn_frameworks::{JobSpec, ScalingLaw};
use meryn_sim::{SimDuration, SimTime};
use meryn_sla::negotiation::UserStrategy;
use meryn_sla::Money;
use meryn_vmm::VmId;
use meryn_workloads::{paper_workload, PaperWorkloadParams, Submission, VcTarget};

fn batch_sub(at_secs: u64, vc: usize, work_secs: u64) -> Submission {
    Submission::new(
        SimTime::from_secs(at_secs),
        VcTarget::Index(vc),
        JobSpec::Batch {
            work: SimDuration::from_secs(work_secs),
            nb_vms: 1,
            scaling: ScalingLaw::Fixed,
        },
        UserStrategy::AcceptCheapest,
    )
}

fn small_cfg(policy: &str) -> PlatformConfig {
    let mut cfg = PlatformConfig::paper(policy);
    cfg.private_capacity = 4;
    cfg.vcs = vec![VcConfig::batch("VC1", 2), VcConfig::batch("VC2", 2)];
    cfg
}

#[test]
fn single_app_runs_locally() {
    let cfg = small_cfg("meryn");
    let report = Platform::new(cfg).run([batch_sub(5, 0, 100)]);
    assert_eq!(report.apps.len(), 1);
    let a = &report.apps[0];
    assert_eq!(a.placement, "local-vm");
    assert!(!a.violated);
    // Processing 7–15 s, exec 100 s.
    let p = a.processing.unwrap();
    assert!(p >= SimDuration::from_secs(7) && p <= SimDuration::from_secs(15));
    assert_eq!(a.exec, SimDuration::from_secs(100));
    // Cost: 100 s × 1 VM × 2 u/s.
    assert_eq!(a.cost, Money::from_units(200));
    assert_eq!(report.violations(), 0);
    assert_eq!(report.transfers, 0);
    assert_eq!(report.bursts, 0);
}

#[test]
fn overflow_takes_sibling_idle_vms_in_meryn() {
    let cfg = small_cfg("meryn");
    // Three apps to VC1 (2 slots): the third gets VC2's idle VM.
    let subs = vec![
        batch_sub(5, 0, 500),
        batch_sub(10, 0, 500),
        batch_sub(15, 0, 500),
    ];
    let report = Platform::new(cfg).run(&subs);
    assert_eq!(report.apps.len(), 3);
    assert_eq!(report.transfers, 1);
    assert_eq!(report.bursts, 0);
    let third = &report.apps[2];
    assert_eq!(third.placement, "vc-vm");
    // Transfer path processing: base + stop + boot ≈ 40–58 s.
    let p = third.processing.unwrap();
    assert!(
        p >= SimDuration::from_secs(35) && p <= SimDuration::from_secs(65),
        "vc-vm processing out of calibrated range: {p}"
    );
    assert_eq!(report.violations(), 0);
}

#[test]
fn overflow_bursts_to_cloud_in_static() {
    let cfg = small_cfg("static");
    let subs = vec![
        batch_sub(5, 0, 500),
        batch_sub(10, 0, 500),
        batch_sub(15, 0, 500),
    ];
    let report = Platform::new(cfg).run(&subs);
    assert_eq!(report.transfers, 0);
    assert_eq!(report.bursts, 1);
    let third = &report.apps[2];
    assert_eq!(third.placement, "cloud-vm");
    let p = third.processing.unwrap();
    assert!(
        p >= SimDuration::from_secs(60) && p <= SimDuration::from_secs(84),
        "cloud processing out of Table 1 range: {p}"
    );
    // Cloud cost: exec ≈ 500/0.928 ≈ 539 s at 4 u/s.
    assert!(third.cost > Money::from_units(2000));
    assert_eq!(report.violations(), 0);
    assert_eq!(report.peak_cloud, 1.0);
}

#[test]
fn cloud_vms_are_released_after_completion() {
    let cfg = small_cfg("static");
    let subs = vec![
        batch_sub(5, 0, 300),
        batch_sub(10, 0, 300),
        batch_sub(15, 0, 300),
    ];
    let mut platform = Platform::new(cfg);
    platform.enqueue_workload(&subs);
    while platform.step() {}
    assert_eq!(platform.clouds()[0].active_count(), 0);
    let report = platform.finalize();
    assert!(report.cloud_bill > Money::ZERO);
    // The series returns to zero at the end.
    assert_eq!(report.series.get(1).last(), 0.0);
}

/// The pool and the clouds hold live VMs only: once the paper workload
/// drains, the pool lists exactly the VC slaves (every private slot is
/// one from deployment on; a transfer or a return stops a slave and
/// boots its replacement), all running, and no cloud lists a VM.
#[test]
fn a_drained_paper_run_holds_only_the_vc_slaves() {
    let workload = paper_workload(PaperWorkloadParams::default());
    for policy in ["meryn", "static"] {
        let cfg = PlatformConfig::paper(policy);
        let slaves: u64 = cfg.vcs.iter().map(|v| v.initial_vms).sum();
        let mut platform = Platform::new(cfg);
        let deployed: Vec<VmId> = platform.pool().vms().map(|vm| vm.id).collect();
        assert_eq!(deployed.len() as u64, slaves);
        platform.enqueue_workload(&workload);
        platform.run_to_completion();

        let pool = platform.pool();
        assert!(
            pool.vms().all(|vm| vm.is_running()),
            "{policy}: every listed pool VM is a running slave"
        );
        assert_eq!(pool.vms().count() as u64, slaves, "{policy}");
        assert_eq!(pool.active_count(), slaves, "{policy}");
        for cloud in platform.clouds() {
            assert_eq!(cloud.vms().count(), 0, "{policy}: no cloud VM is left");
            assert_eq!(cloud.active_count(), 0, "{policy}");
        }
        platform.audit_invariants().unwrap();
        let live: Vec<VmId> = platform.pool().vms().map(|vm| vm.id).collect();
        let report = platform.finalize();
        assert!(report.bursts > 0, "{policy}: the run leased cloud VMs");
        if policy == "static" {
            // No VM ever changes VC: the deployment's slaves are the
            // ones left.
            assert_eq!(report.transfers, 0);
            assert_eq!(live, deployed);
        } else {
            // Transfers stopped slaves, which left the pool.
            assert!(report.transfers > 0);
            assert_ne!(live, deployed);
        }
    }
}

#[test]
fn deterministic_across_identical_runs() {
    let subs: Vec<Submission> = (0..8)
        .map(|i| batch_sub(5 + i * 5, (i % 2) as usize, 400))
        .collect();
    let r1 = Platform::new(small_cfg("meryn")).run(&subs);
    let r2 = Platform::new(small_cfg("meryn")).run(&subs);
    assert_eq!(
        serde_json::to_string(&r1).unwrap(),
        serde_json::to_string(&r2).unwrap()
    );
}

#[test]
fn different_seeds_change_latencies_not_outcomes() {
    let subs = vec![batch_sub(5, 0, 100)];
    let r1 = Platform::new(small_cfg("meryn").with_seed(1)).run(&subs);
    let r2 = Platform::new(small_cfg("meryn").with_seed(2)).run(&subs);
    assert_eq!(r1.apps[0].placement, r2.apps[0].placement);
    assert_eq!(r1.apps[0].exec, r2.apps[0].exec);
    assert_ne!(r1.apps[0].processing, r2.apps[0].processing);
}

#[test]
fn suspension_lending_roundtrip() {
    // One VC, one VM, no clouds. App A (generous deadline) runs;
    // app B arrives and the only option is suspending A. When B
    // finishes, A resumes and completes.
    let mut cfg = PlatformConfig::paper("meryn");
    cfg.private_capacity = 1;
    cfg.vcs = vec![VcConfig::batch("VC1", 1)];
    cfg.clouds.clear();
    let subs = vec![
        Submission::new(
            SimTime::from_secs(5),
            VcTarget::Index(0),
            JobSpec::Batch {
                work: SimDuration::from_secs(500),
                nb_vms: 1,
                scaling: ScalingLaw::Fixed,
            },
            UserStrategy::ImposeDeadline {
                deadline: SimDuration::from_secs(50_000),
                concession_pct: 10,
            },
        ),
        batch_sub(40, 0, 100),
    ];
    let report = Platform::new(cfg).run(&subs);
    assert_eq!(report.apps.len(), 2);
    assert_eq!(report.suspensions, 1);
    let a = &report.apps[0];
    let b = &report.apps[1];
    assert_eq!(b.placement, "local-vm after suspension");
    assert_eq!(a.suspensions, 1);
    // Both completed; A's exec time is still ~500 s of work.
    assert!(a.completed.is_some());
    assert!(b.completed.is_some());
    assert_eq!(a.exec, SimDuration::from_secs(500));
    // A had a generous deadline: no violation.
    assert_eq!(report.violations(), 0);
    // B finished before A.
    assert!(b.completed.unwrap() < a.completed.unwrap());
}

#[test]
fn queue_decision_when_no_capacity_anywhere() {
    let mut cfg = PlatformConfig::paper("meryn");
    cfg.private_capacity = 1;
    cfg.vcs = vec![VcConfig::batch("VC1", 1)];
    cfg.clouds.clear();
    // Use nb_vms = 2 for the second app so nothing can hold it and
    // it queues.
    let subs = vec![
        batch_sub(5, 0, 300),
        Submission::new(
            SimTime::from_secs(10),
            VcTarget::Index(0),
            JobSpec::Batch {
                work: SimDuration::from_secs(100),
                nb_vms: 2,
                scaling: ScalingLaw::Fixed,
            },
            UserStrategy::AcceptCheapest,
        ),
    ];
    let report = Platform::new(cfg).run(&subs);
    // The 2-VM app can never run (only 1 VM exists) and waits in the
    // framework forever; the run still terminates with it queued.
    assert_eq!(report.apps.len(), 2);
    assert!(report.apps[0].completed.is_some());
    assert!(report.apps[1].completed.is_none());
}

#[test]
fn ledger_matches_app_costs() {
    let cfg = small_cfg("meryn");
    let subs = vec![batch_sub(5, 0, 200), batch_sub(10, 1, 200)];
    let mut platform = Platform::new(cfg);
    platform.enqueue_workload(&subs);
    while platform.step() {}
    let ledger_total = platform.ledger().total();
    let report = platform.finalize();
    assert_eq!(report.total_cost(), ledger_total);
}

/// A completed application retires into its report record: after a
/// full-mode run `Platform::app` sees only the application that never
/// completed, yet `finalize` lists every admitted one, in `AppId` order
/// although they completed out of it.
#[test]
fn completed_apps_retire_into_their_records() {
    let mut cfg = PlatformConfig::paper("static");
    cfg.private_capacity = 3;
    cfg.vcs = vec![VcConfig::batch("VC1", 1), VcConfig::batch("VC2", 2)];
    cfg.clouds.clear();
    // Two VMs on a one-VM VC with no cloud: it waits forever.
    let stuck = Submission::new(
        SimTime::from_secs(10),
        VcTarget::Index(0),
        JobSpec::Batch {
            work: SimDuration::from_secs(100),
            nb_vms: 2,
            scaling: ScalingLaw::Fixed,
        },
        UserStrategy::AcceptCheapest,
    );
    let subs = vec![batch_sub(5, 1, 400), stuck, batch_sub(15, 1, 50)];
    let mut platform = Platform::new(cfg);
    platform.enqueue_workload(&subs);
    platform.run_to_completion();
    let live: Vec<u64> = (0..3)
        .filter(|&i| platform.app(AppId(i)).is_some())
        .collect();
    assert_eq!(live, [1], "only the never-completing application is live");

    let report = platform.finalize();
    let ids: Vec<AppId> = report.apps.iter().map(|a| a.id).collect();
    assert_eq!(ids, [AppId(0), AppId(1), AppId(2)]);
    let [first, stuck, last] = &report.apps[..] else {
        unreachable!("three records checked above")
    };
    assert_eq!(stuck.completed, None);
    let (first_done, last_done) = (first.completed.unwrap(), last.completed.unwrap());
    assert!(
        last_done < first_done,
        "app 2 completed, and retired, first"
    );
    assert_eq!(report.completion_time, first_done);
}

/// The report mode is chosen before a workload is attached: attaching a
/// full-mode workload sizes the record list for it.
#[test]
#[should_panic(expected = "before a workload is attached")]
fn report_mode_cannot_follow_the_workload() {
    let mut platform = Platform::new(small_cfg("meryn"));
    platform.enqueue_workload([batch_sub(0, 0, 10)]);
    let _ = platform.with_report_mode(ReportMode::Aggregate);
}

#[test]
fn mapreduce_vc_hosts_mapreduce_jobs() {
    let mut cfg = PlatformConfig::paper("meryn");
    cfg.private_capacity = 4;
    cfg.vcs = vec![VcConfig::batch("batch", 2), VcConfig::mapreduce("mr", 2)];
    let sub = Submission::new(
        SimTime::from_secs(5),
        VcTarget::Index(1),
        JobSpec::MapReduce {
            map_tasks: 8,
            map_work: SimDuration::from_secs(30),
            reduce_tasks: 2,
            reduce_work: SimDuration::from_secs(60),
            nb_vms: 2,
            slots_per_vm: 2,
        },
        UserStrategy::AcceptCheapest,
    );
    let report = Platform::new(cfg).run([sub]);
    assert_eq!(report.apps.len(), 1);
    assert!(report.apps[0].completed.is_some());
    // 8 maps / 4 slots = 2 waves ×30 + 1 reduce wave ×60 = 120 s at
    // reference speed.
    assert_eq!(report.apps[0].exec, SimDuration::from_secs(120));
}

#[test]
fn type_mismatch_is_rejected() {
    let cfg = small_cfg("meryn");
    let sub = Submission::new(
        SimTime::from_secs(5),
        VcTarget::Index(0),
        JobSpec::MapReduce {
            map_tasks: 1,
            map_work: SimDuration::from_secs(1),
            reduce_tasks: 0,
            reduce_work: SimDuration::ZERO,
            nb_vms: 1,
            slots_per_vm: 1,
        },
        UserStrategy::AcceptCheapest,
    );
    let report = Platform::new(cfg).run([sub]);
    assert_eq!(report.apps.len(), 0);
    assert_eq!(report.rejected, 1);
}

#[test]
fn shard_event_counts_cover_all_events() {
    let cfg = small_cfg("static");
    // The third app bursts, so the breakdown includes a cloud-lease
    // close (`CloudReleased`), owned by the releasing VC's shard.
    let subs = vec![
        batch_sub(5, 0, 200),
        batch_sub(10, 0, 200),
        batch_sub(15, 0, 200),
        batch_sub(20, 1, 200),
    ];
    let mut platform = Platform::new(cfg);
    platform.enqueue_workload(&subs);
    platform.run_to_completion();
    let counts = platform.shard_event_counts();
    let names: Vec<&str> = counts.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(names, ["VC1", "VC2"], "one entry per shard, VcId order");
    let total: u64 = counts.iter().map(|(_, n)| n).sum();
    let report = platform.finalize();
    assert_eq!(report.bursts, 1);
    assert_eq!(total, report.events_processed);
    assert!(report.events_processed > 0);
}

/// A workload is one arrival stream: an unsorted list is stable-sorted
/// by arrival instant, so `AppId`s follow arrival order, not input
/// order.
#[test]
fn app_ids_follow_arrival_order() {
    let report =
        Platform::new(small_cfg("meryn")).run([batch_sub(50, 1, 100), batch_sub(5, 0, 100)]);
    let vcs: Vec<usize> = report.apps.iter().map(|a| a.vc.0).collect();
    assert_eq!(vcs, [0, 1], "app 0 is the earlier arrival");
}

#[test]
#[should_panic(expected = "one workload per run")]
fn a_second_workload_is_refused() {
    let mut platform = Platform::new(small_cfg("meryn"));
    platform.enqueue_workload([batch_sub(5, 0, 100)]);
    platform.enqueue_workload([batch_sub(10, 1, 100)]);
}
