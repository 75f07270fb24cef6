//! Shared helpers and entry logic for the Meryn examples.
//!
//! Each `run_*` function is the full body of one example binary, so the
//! examples can be exercised both as `cargo run -p meryn-examples --bin
//! <name>` and in-process from the workspace test suite (see the
//! `examples_smoke` integration test).

use meryn_core::cluster_manager::{VcQuoter, VirtualCluster};
use meryn_core::config::{PlatformConfig, VcConfig};
use meryn_core::report::{compare, RunReport};
use meryn_core::{Platform, VcId};
use meryn_frameworks::{BatchFramework, FrameworkKind, JobSpec, ScalingLaw};
use meryn_sim::{SimDuration, SimTime};
use meryn_sla::negotiation::{negotiate, Quoter, UserStrategy};
use meryn_sla::pricing::PricingParams;
use meryn_sla::{Money, VmRate};
use meryn_vmm::ImageId;
use meryn_workloads::generators::{ArrivalProcess, GeneratorConfig, WorkDistribution};
use meryn_workloads::{paper_workload, PaperWorkloadParams, Submission, VcTarget};

/// Pretty-prints the headline numbers of a run.
pub fn print_summary(report: &RunReport) {
    println!("=== {} run (seed {}) ===", report.mode, report.seed);
    println!(
        "apps: {} completed, {} rejected, {} violations",
        report.apps.len(),
        report.rejected,
        report.violations()
    );
    println!(
        "completion time: {:.0} s | peak private VMs: {:.0} | peak cloud VMs: {:.0}",
        report.completion_secs(),
        report.peak_private,
        report.peak_cloud
    );
    println!(
        "transfers: {} | bursts: {} | suspensions: {}",
        report.transfers, report.bursts, report.suspensions
    );
    println!(
        "total cost: {} | total revenue: {} | profit: {}",
        report.total_cost(),
        report.total_revenue(),
        report.profit()
    );
}

/// Pretty-prints the per-group rows of Figure 6 for one run.
pub fn print_groups(report: &RunReport, vcs: &[(&str, usize)]) {
    let all = report.group(None);
    println!(
        "  all apps: avg exec {:.0} s, avg cost {:.0} u",
        all.avg_exec_secs, all.avg_cost_units
    );
    for &(name, idx) in vcs {
        let g = report.group(Some(VcId(idx)));
        println!(
            "  {name}: {} apps, avg exec {:.0} s, avg cost {:.0} u",
            g.count, g.avg_exec_secs, g.avg_cost_units
        );
    }
}

/// Entry logic of the `quickstart` example: the paper platform against
/// the paper workload, headline numbers printed.
pub fn run_quickstart() -> RunReport {
    // The paper's deployment: 50 private VMs, two batch VCs (25 each),
    // one infinite public cloud at twice the private VM cost.
    let cfg = PlatformConfig::paper("meryn");

    // The paper's workload: 65 single-VM batch apps, 5 s apart,
    // 50 to VC1 and 15 to VC2, ~1550 s of work each.
    let workload = paper_workload(PaperWorkloadParams::default());

    let report = Platform::new(cfg).run(&workload);

    print_summary(&report);
    print_groups(&report, &[("VC1", 0), ("VC2", 1)]);

    println!("\nPlacement breakdown:");
    for (case, count) in report.placement_counts() {
        println!("  {case:<28} {count}");
    }
    report
}

/// Entry logic of the `paper_workload` example: Meryn vs the static
/// baseline on the paper workload, with the Figure 5/6 comparisons.
pub fn run_paper_workload() -> (RunReport, RunReport) {
    let workload = paper_workload(PaperWorkloadParams::default());

    let meryn = Platform::new(PlatformConfig::paper("meryn")).run(&workload);
    let stat = Platform::new(PlatformConfig::paper("static")).run(&workload);

    println!("──────────────── Meryn ────────────────");
    print_summary(&meryn);
    print_groups(&meryn, &[("VC1", 0), ("VC2", 1)]);

    println!("\n──────────────── Static ───────────────");
    print_summary(&stat);
    print_groups(&stat, &[("VC1", 0), ("VC2", 1)]);

    let cmp = compare(&meryn.headline(), &stat.headline());
    println!("\n──────────── Meryn vs Static ───────────");
    println!(
        "peak cloud VMs: {:.0} vs {:.0} (paper: 15 vs 25)",
        cmp.peak_cloud_a, cmp.peak_cloud_b
    );
    println!(
        "completion improvement: {:.2}% (paper: 3.34%)",
        cmp.completion_improvement_pct
    );
    println!(
        "avg cost improvement: {:.2}% (paper: 14.07%)",
        cmp.cost_improvement_pct
    );
    println!("cost saved: {} (paper: 41158 units)", cmp.cost_saved);

    // A terminal rendition of Figure 5(a): used VMs over time.
    println!("\nFigure 5(a) — used VMs over time (Meryn):");
    print!(
        "{}",
        meryn.series.to_ascii_chart(60, SimDuration::from_secs(120))
    );
    (meryn, stat)
}

/// Entry logic of the `sla_negotiation` example. Returns the counts of
/// (successful, failed) negotiations across the five user strategies.
pub fn run_sla_negotiation() -> (usize, usize) {
    let vc = VirtualCluster::new(
        VcId(0),
        "VC1",
        FrameworkKind::Batch,
        ImageId(0),
        Box::new(BatchFramework::new()),
        PricingParams::new(VmRate::per_vm_second(4), 1),
    );

    // A parallel job: 1600 reference-seconds of perfectly parallel work.
    let spec = JobSpec::Batch {
        work: SimDuration::from_secs(1600),
        nb_vms: 1,
        scaling: ScalingLaw::Linear,
    };
    let quoter = VcQuoter {
        framework: vc.framework.as_ref(),
        spec,
        pricing: vc.pricing,
        quote_speed: 1550.0 / 1670.0,
        allowance: SimDuration::from_secs(84),
        max_vms: 25,
    };

    println!("Opening proposals (deadline, price) pairs:");
    for q in quoter.proposals() {
        println!(
            "  {} VMs → deadline {}, price {}",
            q.nb_vms, q.deadline, q.price
        );
    }

    let strategies: Vec<(&str, UserStrategy)> = vec![
        ("accept cheapest", UserStrategy::AcceptCheapest),
        ("accept fastest", UserStrategy::AcceptFastest),
        (
            "urgent: impose 600 s deadline",
            UserStrategy::ImposeDeadline {
                deadline: SimDuration::from_secs(600),
                concession_pct: 20,
            },
        ),
        (
            "budget: impose 7000 u cap",
            UserStrategy::ImposePrice {
                cap: Money::from_units(7000),
                concession_pct: 10,
            },
        ),
        (
            "impossible budget: 10 u cap",
            UserStrategy::ImposePrice {
                cap: Money::from_units(10),
                concession_pct: 5,
            },
        ),
    ];

    let (mut ok, mut failed) = (0, 0);
    println!("\nNegotiations:");
    for (label, strategy) in strategies {
        match negotiate(&quoter, strategy, 6) {
            Ok(outcome) => {
                ok += 1;
                println!(
                    "  {label:<32} → {} VMs, deadline {}, price {} ({} round{})",
                    outcome.quote.nb_vms,
                    outcome.quote.deadline,
                    outcome.quote.price,
                    outcome.rounds,
                    if outcome.rounds == 1 { "" } else { "s" },
                );
            }
            Err(e) => {
                failed += 1;
                println!("  {label:<32} → failed: {e:?}");
            }
        }
    }
    (ok, failed)
}

/// Entry logic of the `datacenter_burst` example: bursty arrivals with
/// heavy-tailed runtimes against a small private pool.
pub fn run_datacenter_burst(seed: u64) -> (RunReport, RunReport) {
    // A smaller private estate: 20 VMs split across two batch VCs.
    let mut cfg = PlatformConfig::paper("meryn");
    cfg.private_capacity = 20;
    cfg.vcs = vec![
        VcConfig::batch("interactive", 10),
        VcConfig::batch("batch", 10),
    ];

    // 150 apps, bursty arrivals, bounded-Pareto runtimes. Two user
    // populations: the "interactive" VC gets short jobs, "batch" long.
    let mut gen = GeneratorConfig::datacenter(150, SimDuration::from_secs(20));
    gen.arrivals = ArrivalProcess::Bursty {
        burst_len: 12,
        fast: SimDuration::from_secs(2),
        idle: SimDuration::from_secs(600),
    };
    gen.work = WorkDistribution::BoundedPareto {
        lo: SimDuration::from_secs(120),
        hi: SimDuration::from_secs(3600),
        alpha: 1.6,
    };
    gen.targets = vec![(VcTarget::Index(0), 2), (VcTarget::Index(1), 1)];
    let workload = meryn_workloads::generators::generate(&gen, seed);

    let meryn = Platform::new(cfg.clone()).run(&workload);
    cfg.policy = "static".to_owned();
    let stat = Platform::new(cfg).run(&workload);

    println!("──────────────── Meryn ────────────────");
    print_summary(&meryn);
    println!("\n──────────────── Static ───────────────");
    print_summary(&stat);

    let cmp = compare(&meryn.headline(), &stat.headline());
    println!("\nUnder bursty load, Meryn absorbed spikes with VM exchange:");
    println!(
        "  peak cloud VMs {:.0} vs {:.0}, cost saved {}",
        cmp.peak_cloud_a, cmp.peak_cloud_b, cmp.cost_saved
    );
    println!(
        "  violations: meryn {} vs static {}",
        meryn.violations(),
        stat.violations()
    );
    (meryn, stat)
}

fn mix_batch(at: u64, work: u64) -> Submission {
    Submission::new(
        SimTime::from_secs(at),
        VcTarget::Index(0),
        JobSpec::Batch {
            work: SimDuration::from_secs(work),
            nb_vms: 1,
            scaling: ScalingLaw::Fixed,
        },
        UserStrategy::AcceptCheapest,
    )
}

fn mix_mapreduce(at: u64, maps: u32, nb_vms: u64) -> Submission {
    Submission::new(
        SimTime::from_secs(at),
        VcTarget::Index(1),
        JobSpec::MapReduce {
            map_tasks: maps,
            map_work: SimDuration::from_secs(45),
            reduce_tasks: nb_vms as u32,
            reduce_work: SimDuration::from_secs(90),
            nb_vms,
            slots_per_vm: 2,
        },
        UserStrategy::AcceptCheapest,
    )
}

/// Entry logic of the `mapreduce_mix` example: a mixed batch + MapReduce
/// deployment where the overloaded Hadoop VC borrows batch VMs.
pub fn run_mapreduce_mix() -> RunReport {
    let mut cfg = PlatformConfig::paper("meryn");
    cfg.private_capacity = 16;
    cfg.vcs = vec![
        VcConfig::batch("batch", 8),
        VcConfig::mapreduce("hadoop", 8),
    ];

    // The batch VC runs two long jobs; the Hadoop VC receives a wave of
    // wordcount-like jobs that overflows its 8 VMs.
    let mut workload = vec![mix_batch(5, 2500), mix_batch(10, 2500)];
    for i in 0..6 {
        workload.push(mix_mapreduce(20 + i * 10, 24, 3));
    }

    let report = Platform::new(cfg).run(&workload);
    print_summary(&report);
    print_groups(&report, &[("batch", 0), ("hadoop", 1)]);

    println!("\nPlacement breakdown:");
    for (case, count) in report.placement_counts() {
        println!("  {case:<28} {count}");
    }
    println!(
        "\nThe overflowing MapReduce jobs took the batch VC's idle VMs \
         ({} transfers) before any cloud lease ({} bursts).",
        report.transfers, report.bursts
    );
    report
}
