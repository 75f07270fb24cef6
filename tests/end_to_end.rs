//! Cross-crate integration tests beyond the paper scenario: suspension
//! lending, penalty regimes, dynamic cloud pricing, trace round-trips
//! and mixed framework deployments.

use meryn_core::config::{CloudConfig, PlatformConfig, VcConfig};
use meryn_core::Platform;
use meryn_frameworks::{JobSpec, ScalingLaw};
use meryn_sim::{SimDuration, SimTime};
use meryn_sla::negotiation::UserStrategy;
use meryn_sla::{Money, VmRate};
use meryn_vmm::PriceModel;
use meryn_workloads::generators::{ArrivalProcess, GeneratorConfig};
use meryn_workloads::trace::Trace;
use meryn_workloads::{paper_workload, PaperWorkloadParams, Submission, VcTarget};

fn batch_sub(at: u64, vc: usize, work: u64) -> Submission {
    Submission::new(
        SimTime::from_secs(at),
        VcTarget::Index(vc),
        JobSpec::Batch {
            work: SimDuration::from_secs(work),
            nb_vms: 1,
            scaling: ScalingLaw::Fixed,
        },
        UserStrategy::AcceptCheapest,
    )
}

fn slack_sub(at: u64, vc: usize, work: u64, deadline: u64) -> Submission {
    Submission::new(
        SimTime::from_secs(at),
        VcTarget::Index(vc),
        JobSpec::Batch {
            work: SimDuration::from_secs(work),
            nb_vms: 1,
            scaling: ScalingLaw::Fixed,
        },
        UserStrategy::ImposeDeadline {
            deadline: SimDuration::from_secs(deadline),
            concession_pct: 10,
        },
    )
}

#[test]
fn cross_vc_suspension_lending_roundtrip() {
    // VC1 full with a tight job; VC2 full with a very slack job; no
    // clouds. A new VC1 app must trigger option 4: VC2 suspends its
    // app, lends the VM, gets it back, resumes, and still meets its
    // generous deadline.
    let mut cfg = PlatformConfig::paper("meryn");
    cfg.private_capacity = 2;
    cfg.vcs = vec![VcConfig::batch("VC1", 1), VcConfig::batch("VC2", 1)];
    cfg.clouds.clear();
    let workload = vec![
        batch_sub(5, 0, 2000),        // fills VC1
        slack_sub(6, 1, 800, 50_000), // fills VC2, huge slack
        batch_sub(40, 0, 300),        // overflow on VC1
    ];
    let report = Platform::new(cfg).run(&workload);
    assert_eq!(report.apps.len(), 3);
    assert_eq!(report.suspensions, 1);
    assert_eq!(report.apps[2].placement, "vc-vm after suspension");
    // Everyone completes; the slack victim is not violated.
    assert!(report.apps.iter().all(|a| a.completed.is_some()));
    assert_eq!(report.violations(), 0);
    assert_eq!(report.apps[1].suspensions, 1);
    // The victim resumed *after* the borrower finished and the VMs
    // returned.
    let borrower_done = report.apps[2].completed.unwrap();
    let victim_done = report.apps[1].completed.unwrap();
    assert!(victim_done > borrower_done);
    // Processing time of the borrower covers suspend+stop+boot: the
    // vc-after-suspension Table 1 case.
    let p = report.apps[2].processing.unwrap();
    assert!(
        p >= SimDuration::from_secs(49) && p <= SimDuration::from_secs(85),
        "vc-after-suspension processing {p}"
    );
}

#[test]
fn lenient_penalty_factor_enables_suspensions_on_paper_workload() {
    // Ablation A1's mechanism: with a high N (weak penalties),
    // suspension bids undercut the cloud and Algorithm 1 starts
    // suspending instead of bursting.
    let strict = PlatformConfig::paper("meryn"); // N = 1
    let lenient = PlatformConfig::paper("meryn").with_penalty_factor(8);
    let workload = paper_workload(PaperWorkloadParams::default());
    let strict_report = Platform::new(strict).run(&workload);
    let lenient_report = Platform::new(lenient).run(&workload);
    assert_eq!(strict_report.suspensions, 0);
    assert!(
        lenient_report.suspensions > 0,
        "weak penalties should make suspension competitive"
    );
    assert!(
        lenient_report.peak_cloud < strict_report.peak_cloud,
        "suspensions should displace cloud bursting"
    );
}

#[test]
fn expensive_cloud_pushes_toward_suspension() {
    // Ablation A2's mechanism: quadruple cloud prices and the paper
    // workload prefers suspensions/queueing over bursting.
    let pricey = PlatformConfig::paper("meryn").with_cloud_price_factor(4.0);
    let workload = paper_workload(PaperWorkloadParams::default());
    let report = Platform::new(pricey).run(&workload);
    let baseline = Platform::new(PlatformConfig::paper("meryn")).run(&workload);
    assert!(report.bursts < baseline.bursts);
    assert!(report.suspensions > 0);
}

#[test]
fn diurnal_cloud_prices_lock_rates_per_lease() {
    let mut cfg = PlatformConfig::paper("static");
    cfg.private_capacity = 1;
    cfg.vcs = vec![VcConfig::batch("VC1", 1)];
    cfg.clouds = vec![CloudConfig {
        name: "spot".into(),
        price: PriceModel::Schedule(vec![
            (SimTime::ZERO, VmRate::per_vm_second(4)),
            (SimTime::from_secs(60), VmRate::per_vm_second(2)),
        ]),
        speed: 1.0,
        quota: None,
    }];
    // First app fills the single private VM; the next two burst — one
    // before the price drop, one after.
    let workload = vec![
        batch_sub(5, 0, 5000),
        batch_sub(10, 0, 500),
        batch_sub(120, 0, 500),
    ];
    let report = Platform::new(cfg).run(&workload);
    assert_eq!(report.bursts, 2);
    let early = &report.apps[1];
    let late = &report.apps[2];
    // 500 s × 4 vs 500 s × 2.
    assert_eq!(early.cost, Money::from_units(2000));
    assert_eq!(late.cost, Money::from_units(1000));
}

#[test]
fn cloud_quota_overflows_to_queueing() {
    let mut cfg = PlatformConfig::paper("static");
    cfg.private_capacity = 1;
    cfg.vcs = vec![VcConfig::batch("VC1", 1)];
    cfg.clouds[0].quota = Some(1);
    let workload = vec![
        batch_sub(5, 0, 800),
        batch_sub(10, 0, 800),
        batch_sub(15, 0, 800), // quota exhausted: queues locally
    ];
    let report = Platform::new(cfg).run(&workload);
    assert_eq!(report.bursts, 1);
    assert!(report.apps.iter().all(|a| a.completed.is_some()));
    // The queued app ran late on the private VM after the first
    // finished; with the paper deadline (exec+84) it is violated.
    assert!(report.violations() >= 1);
    let queued = &report.apps[2];
    assert!(queued.penalty > Money::ZERO);
    assert!(queued.revenue < queued.price);
}

#[test]
fn violation_detection_fires_before_completion() {
    let mut cfg = PlatformConfig::paper("meryn");
    cfg.private_capacity = 1;
    cfg.vcs = vec![VcConfig::batch("VC1", 1)];
    cfg.clouds.clear();
    cfg.controller_check_interval = Some(SimDuration::from_secs(10));
    // Two apps on one VM: the second queues behind ~800 s of work with
    // a deadline of exec+84 — a guaranteed violation.
    let workload = vec![batch_sub(5, 0, 800), batch_sub(10, 0, 800)];
    let mut platform = Platform::new(cfg);
    platform.enqueue_workload(&workload);
    while platform.step() {}
    let report = platform.finalize();
    let second = report
        .apps
        .iter()
        .find(|a| a.id == meryn_core::AppId(1))
        .expect("second app admitted");
    assert!(second.violated);
    assert!(
        second.violation_detected.is_some(),
        "controller should have flagged the violation while running"
    );
    assert!(second.violation_detected.unwrap() < second.completed.unwrap());
}

#[test]
fn mixed_batch_and_mapreduce_deployment() {
    let mut cfg = PlatformConfig::paper("meryn");
    cfg.private_capacity = 8;
    cfg.vcs = vec![VcConfig::batch("batch", 4), VcConfig::mapreduce("mr", 4)];
    let mr = |at: u64| {
        Submission::new(
            SimTime::from_secs(at),
            VcTarget::Index(1),
            JobSpec::MapReduce {
                map_tasks: 16,
                map_work: SimDuration::from_secs(30),
                reduce_tasks: 4,
                reduce_work: SimDuration::from_secs(60),
                nb_vms: 4,
                slots_per_vm: 2,
            },
            UserStrategy::AcceptCheapest,
        )
    };
    // Two MR jobs: the second needs 4 VMs while the first holds the MR
    // VC's 4 → takes the batch VC's idle VMs via a zero bid.
    let workload = vec![mr(5), mr(10)];
    let report = Platform::new(cfg).run(&workload);
    assert_eq!(report.apps.len(), 2);
    assert_eq!(report.transfers, 4);
    assert_eq!(report.apps[1].placement, "vc-vm");
    assert!(report.apps.iter().all(|a| a.completed.is_some()));
}

#[test]
fn trace_round_trip_reproduces_run() {
    let gen = GeneratorConfig {
        arrivals: ArrivalProcess::Poisson {
            mean: SimDuration::from_secs(30),
        },
        ..GeneratorConfig::datacenter(40, SimDuration::from_secs(30))
    };
    let workload = meryn_workloads::generators::generate(&gen, 99);
    let trace = Trace::new("e2e", Some(99), workload.clone());
    let restored = Trace::from_json(&trace.to_json()).unwrap();
    assert_eq!(restored.submissions, workload);

    let mut cfg = PlatformConfig::paper("meryn");
    cfg.private_capacity = 10;
    cfg.vcs = vec![VcConfig::batch("VC1", 10)];
    let r1 = Platform::new(cfg.clone()).run(&workload);
    let r2 = Platform::new(cfg).run(&restored.submissions);
    assert_eq!(
        serde_json::to_string(&r1).unwrap(),
        serde_json::to_string(&r2).unwrap()
    );
}

#[test]
fn backfill_improves_utilization_for_wide_jobs() {
    // Two 1-VM jobs fill the 2-VM cluster; a 2-wide job then queues at
    // the head, with two narrow jobs behind it. Suspension is priced
    // out (huge storage rate) and there is no cloud, so everything
    // after the first two jobs takes the Queue path. Under FIFO the
    // wide head blocks the narrow jobs even when one VM is free; with
    // backfill they slip through.
    let wide = |at: u64| {
        Submission::new(
            SimTime::from_secs(at),
            VcTarget::Index(0),
            JobSpec::Batch {
                work: SimDuration::from_secs(1000),
                nb_vms: 2,
                scaling: ScalingLaw::Fixed,
            },
            UserStrategy::AcceptCheapest,
        )
    };
    let narrow = |at: u64| batch_sub(at, 0, 300);

    let build = |backfill: bool| {
        let mut cfg = PlatformConfig::paper("meryn");
        cfg.private_capacity = 2;
        cfg.vcs = vec![VcConfig {
            backfill,
            ..VcConfig::batch("VC1", 2)
        }];
        cfg.clouds.clear();
        cfg.suspension_enabled = false;
        cfg
    };
    let workload = vec![
        batch_sub(5, 0, 1000),
        batch_sub(10, 0, 1000),
        wide(15),
        narrow(20),
        narrow(25),
    ];
    let fifo = Platform::new(build(false)).run(&workload);
    let bf = Platform::new(build(true)).run(&workload);
    for r in [&fifo, &bf] {
        assert_eq!(r.suspensions, 0);
        assert_eq!(r.bursts, 0);
        assert!(r.apps.iter().all(|a| a.completed.is_some()));
    }
    let done = |r: &meryn_core::RunReport, i: usize| r.apps[i].completed.unwrap();
    // The narrow jobs finish strictly earlier with backfill…
    assert!(done(&bf, 3) < done(&fifo, 3));
    assert!(done(&bf, 4) < done(&fifo, 4));
    // …at the price of delaying (or at best not helping) the wide job.
    assert!(done(&bf, 2) >= done(&fifo, 2));
}

#[test]
fn paper_workload_on_single_vc_matches_static() {
    // With one VC there is nobody to exchange with: Meryn degenerates
    // to the static approach (same placements, costs and bursts).
    let mut m_cfg = PlatformConfig::paper("meryn");
    m_cfg.vcs = vec![VcConfig::batch("VC1", 25)];
    let mut s_cfg = PlatformConfig::paper("static");
    s_cfg.vcs = vec![VcConfig::batch("VC1", 25)];
    let workload = paper_workload(PaperWorkloadParams {
        vc1_apps: 40,
        vc2_apps: 0,
        ..Default::default()
    });
    let meryn = Platform::new(m_cfg).run(&workload);
    let stat = Platform::new(s_cfg).run(&workload);
    assert_eq!(meryn.bursts, stat.bursts);
    assert_eq!(meryn.total_cost(), stat.total_cost());
    let placements = |r: &meryn_core::RunReport| {
        r.apps
            .iter()
            .map(|a| a.placement.clone())
            .collect::<Vec<_>>()
    };
    assert_eq!(placements(&meryn), placements(&stat));
}

#[test]
fn escalation_policy_rescues_queued_apps() {
    // One private VM, a cloud with quota 1. Three apps: the first runs
    // locally, the second bursts (filling the quota), the third queues.
    // Under the paper's Report policy it waits and violates its SLA;
    // under EscalateToCloud the controller bursts it as soon as the
    // quota frees up, rescuing (or at least shrinking) the delay.
    use meryn_core::config::ViolationPolicy;
    let build = |policy: ViolationPolicy| {
        let mut cfg = PlatformConfig::paper("static");
        cfg.private_capacity = 1;
        cfg.vcs = vec![VcConfig::batch("VC1", 1)];
        cfg.clouds[0].quota = Some(1);
        cfg.controller_check_interval = Some(SimDuration::from_secs(10));
        cfg.violation_policy = policy;
        cfg
    };
    let workload = vec![
        batch_sub(5, 0, 2500),
        batch_sub(10, 0, 500),
        batch_sub(15, 0, 800),
    ];
    let report_only = Platform::new(build(ViolationPolicy::Report)).run(&workload);
    let escalated = Platform::new(build(ViolationPolicy::EscalateToCloud)).run(&workload);

    assert_eq!(report_only.escalations, 0);
    assert!(escalated.escalations >= 1, "the queued app must escalate");
    // The escalated run finishes the third app strictly earlier.
    let third_done = |r: &meryn_core::RunReport| r.apps[2].completed.unwrap();
    assert!(third_done(&escalated) < third_done(&report_only));
    // And its placement record reflects the final (cloud) location.
    assert_eq!(escalated.apps[2].placement, "cloud-vm");
    // Escalation pays cloud rates: cost goes up, lateness goes down.
    assert!(escalated.apps[2].penalty <= report_only.apps[2].penalty);
    assert!(escalated.apps[2].cost > report_only.apps[2].cost);
    // All work still completes in both runs.
    for r in [&report_only, &escalated] {
        assert!(r.apps.iter().all(|a| a.completed.is_some()));
    }
}
