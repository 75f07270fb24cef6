//! Additional cross-crate scenarios: multi-cloud selection, three-way VC
//! exchange, parallel-job negotiation, and edge cases.

use meryn_core::config::{CloudConfig, PlatformConfig, VcConfig};
use meryn_core::{Platform, VcId};
use meryn_frameworks::{JobSpec, ScalingLaw};
use meryn_sim::{SimDuration, SimTime};
use meryn_sla::negotiation::UserStrategy;
use meryn_sla::{Money, VmRate};
use meryn_vmm::PriceModel;
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

#[test]
fn cheapest_of_three_clouds_wins_the_burst() {
    let mut cfg = PlatformConfig::paper("static");
    cfg.private_capacity = 1;
    cfg.vcs = vec![VcConfig::batch("VC1", 1)];
    cfg.clouds = vec![
        CloudConfig {
            name: "pricey".into(),
            price: PriceModel::Static(VmRate::per_vm_second(9)),
            speed: 1.0,
            quota: None,
        },
        CloudConfig {
            name: "mid".into(),
            price: PriceModel::Static(VmRate::per_vm_second(5)),
            speed: 1.0,
            quota: None,
        },
        CloudConfig {
            name: "bargain".into(),
            price: PriceModel::Static(VmRate::per_vm_second(3)),
            speed: 1.0,
            quota: None,
        },
    ];
    let report = Platform::new(cfg).run([batch_sub(5, 0, 900), batch_sub(10, 0, 500)]);
    assert_eq!(report.bursts, 1);
    // 500 s at the bargain rate of 3 u/s.
    assert_eq!(report.apps[1].cost, Money::from_units(1500));
}

#[test]
fn quota_filled_cheapest_falls_through_to_next_cloud() {
    let mut cfg = PlatformConfig::paper("static");
    cfg.private_capacity = 1;
    cfg.vcs = vec![VcConfig::batch("VC1", 1)];
    cfg.clouds = vec![
        CloudConfig {
            name: "bargain-but-tiny".into(),
            price: PriceModel::Static(VmRate::per_vm_second(3)),
            speed: 1.0,
            quota: Some(1),
        },
        CloudConfig {
            name: "pricier-infinite".into(),
            price: PriceModel::Static(VmRate::per_vm_second(5)),
            speed: 1.0,
            quota: None,
        },
    ];
    // Three bursts: first takes the bargain cloud, filling its quota;
    // the next two must fall through to the pricier one.
    let report = Platform::new(cfg).run([
        batch_sub(5, 0, 3000),
        batch_sub(10, 0, 1000),
        batch_sub(15, 0, 500),
        batch_sub(20, 0, 500),
    ]);
    assert_eq!(report.bursts, 3);
    assert_eq!(report.apps[1].cost, Money::from_units(3000)); // 1000 s × 3
    assert_eq!(report.apps[2].cost, Money::from_units(2500)); // 500 s × 5
    assert_eq!(report.apps[3].cost, Money::from_units(2500));
}

#[test]
fn three_way_vc_exchange_prefers_lowest_vc_id() {
    // Three VCs; the requester is full, both siblings have idle VMs —
    // the deterministic tie-break takes the lowest-id free bidder.
    let mut cfg = PlatformConfig::paper("meryn");
    cfg.private_capacity = 3;
    cfg.vcs = vec![
        VcConfig::batch("A", 1),
        VcConfig::batch("B", 1),
        VcConfig::batch("C", 1),
    ];
    let report = Platform::new(cfg).run([batch_sub(5, 0, 900), batch_sub(10, 0, 500)]);
    assert_eq!(report.transfers, 1);
    assert_eq!(report.apps[1].placement, "vc-vm");
    // The second app's record should point at VC B (index 1).
    let rec = &report.apps[1];
    assert_eq!(rec.vc, VcId(0), "it still belongs to the requesting VC");
}

#[test]
fn accept_fastest_users_get_parallel_allocations() {
    let mut cfg = PlatformConfig::paper("meryn");
    cfg.private_capacity = 8;
    cfg.vcs = vec![VcConfig::batch("VC1", 8)];
    let sub = Submission::new(
        SimTime::from_secs(5),
        VcTarget::Index(0),
        JobSpec::Batch {
            work: SimDuration::from_secs(1600),
            nb_vms: 1,
            scaling: ScalingLaw::Linear,
        },
        UserStrategy::AcceptFastest,
    );
    let report = Platform::new(cfg).run([sub]);
    let app = &report.apps[0];
    // The quoter offered 1/2/4 VMs; fastest = 4 → exec 400 s.
    assert_eq!(app.exec, SimDuration::from_secs(400));
    // Cost: 400 s × 4 VMs × 2 u/s private.
    assert_eq!(app.cost, Money::from_units(3200));
    assert!(!app.violated);
}

#[test]
fn empty_and_singleton_workloads() {
    let cfg = PlatformConfig::paper("meryn");
    let empty = Platform::new(cfg.clone()).run::<[Submission; 0]>([]);
    assert_eq!(empty.apps.len(), 0);
    assert_eq!(empty.completion_time, SimTime::ZERO);
    assert_eq!(empty.total_cost(), Money::ZERO);

    let one = Platform::new(cfg).run([batch_sub(5, 0, 100)]);
    assert_eq!(one.apps.len(), 1);
    assert!(one.apps[0].completed.is_some());
}

#[test]
fn unroutable_submission_is_rejected_not_fatal() {
    let cfg = PlatformConfig::paper("meryn");
    let bad = Submission::new(
        SimTime::from_secs(5),
        VcTarget::Index(99),
        JobSpec::Batch {
            work: SimDuration::from_secs(100),
            nb_vms: 1,
            scaling: ScalingLaw::Fixed,
        },
        UserStrategy::AcceptCheapest,
    );
    let report = Platform::new(cfg).run([bad, batch_sub(10, 0, 100)]);
    assert_eq!(report.rejected, 1);
    assert_eq!(report.apps.len(), 1);
    assert!(report.apps[0].completed.is_some());
}

#[test]
fn report_serde_round_trip_preserves_aggregates() {
    let report = Platform::new(PlatformConfig::paper("meryn"))
        .run(paper_workload(PaperWorkloadParams::default()));
    let json = serde_json::to_string(&report).unwrap();
    let back: meryn_core::RunReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back.total_cost(), report.total_cost());
    assert_eq!(back.peak_cloud, report.peak_cloud);
    assert_eq!(
        back.group(None).avg_exec_secs,
        report.group(None).avg_exec_secs
    );
    assert_eq!(back.series.len(), 2);
    // The series survive serialization with their integrals intact.
    let a = report
        .series
        .get(1)
        .integral(SimTime::ZERO, report.completion_time);
    let b = back
        .series
        .get(1)
        .integral(SimTime::ZERO, back.completion_time);
    assert_eq!(a, b);
}

#[test]
fn ledger_vm_seconds_match_series_integral() {
    // Cross-check between two independent accountings: the billing
    // ledger's private VM-seconds vs the used-private-VMs series.
    let mut platform = Platform::new(PlatformConfig::paper("meryn"));
    platform.enqueue_workload(paper_workload(PaperWorkloadParams::default()));
    while platform.step() {}
    let ledger_secs = platform.ledger().private_vm_seconds();
    let report = platform.finalize();
    let series_secs = report
        .series
        .get(0)
        .integral(SimTime::ZERO, SimTime::MAX - SimDuration::from_secs(1));
    assert!(
        (ledger_secs - series_secs).abs() < 1e-6,
        "ledger {ledger_secs} vs series {series_secs}"
    );
}

#[test]
fn three_vc_paper_like_workload_balances() {
    // Split the paper's estate across three batch VCs and send the same
    // 65 apps to the first two: the third VC's idle VMs flow out via
    // zero bids before any cloud lease.
    let mut cfg = PlatformConfig::paper("meryn");
    cfg.vcs = vec![
        VcConfig::batch("VC1", 17),
        VcConfig::batch("VC2", 17),
        VcConfig::batch("VC3", 16),
    ];
    let report = Platform::new(cfg).run(paper_workload(PaperWorkloadParams::default()));
    assert_eq!(report.apps.len(), 65);
    assert_eq!(report.violations(), 0);
    // All 50 private VMs end up used: 65 demand − 50 private = 15 cloud.
    assert_eq!(report.peak_cloud, 15.0);
    assert!(report.transfers >= 16, "VC3's estate must flow out");
}

#[test]
fn single_client_manager_bottlenecks_a_burst() {
    // §3.2's bottleneck made measurable: a burst of arrivals through
    // one Client Manager queues for handling; with unbounded CMs the
    // same burst keeps Table 1 latencies.
    let workload: Vec<Submission> = (0..10).map(|i| batch_sub(5 + i, 0, 300)).collect();
    let mut narrow = PlatformConfig::paper("meryn");
    narrow.private_capacity = 10;
    narrow.vcs = vec![VcConfig::batch("VC1", 10)];
    narrow.client_managers = Some(1);
    let mut wide = narrow.clone();
    wide.client_managers = None;

    let narrow_r = Platform::new(narrow).run(&workload);
    let wide_r = Platform::new(wide).run(&workload);
    let max_proc =
        |r: &meryn_core::RunReport| r.apps.iter().filter_map(|a| a.processing).max().unwrap();
    // Uncontended: every processing time within the Table 1 local range.
    assert!(max_proc(&wide_r) <= SimDuration::from_secs(15));
    // Serialized: the last arrival waited behind ~9 handlings.
    assert!(
        max_proc(&narrow_r) >= SimDuration::from_secs(60),
        "bottleneck should inflate processing, got {}",
        max_proc(&narrow_r)
    );
    // Both runs still complete everything.
    assert!(narrow_r.apps.iter().all(|a| a.completed.is_some()));
    assert!(wide_r.apps.iter().all(|a| a.completed.is_some()));
}
