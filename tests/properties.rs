//! Property-based invariants across the workspace.

use std::collections::{BTreeMap, BTreeSet};

use meryn_core::config::{PlatformConfig, VcConfig};
use meryn_core::Platform;
use meryn_frameworks::{JobSpec, ScalingLaw};
use meryn_sim::{EventQueue, SimDuration, SimTime};
use meryn_sla::negotiation::UserStrategy;
use meryn_sla::pricing::PricingParams;
use meryn_sla::{AppTimes, Money, VmRate};
use meryn_vmm::{HostTag, VmId};
use meryn_workloads::{Submission, VcTarget};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Event queue pops in nondecreasing time order, FIFO within ties.
    #[test]
    fn event_queue_is_time_ordered_and_stable(
        times in prop::collection::vec(0u64..1000, 1..200)
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_secs(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, i)) = q.pop() {
            if let Some((lt, li)) = last {
                prop_assert!(t >= lt);
                if t == lt {
                    prop_assert!(i > li, "FIFO violated within an instant");
                }
            }
            last = Some((t, i));
        }
    }

    /// Money × VM-seconds arithmetic is exact and order-independent.
    #[test]
    fn money_rate_arithmetic_is_exact(
        units in 1i64..100,
        secs in 0u64..100_000,
        n in 1u64..64
    ) {
        let rate = VmRate::per_vm_second(units);
        let d = SimDuration::from_secs(secs);
        // n VMs for d  ==  n × (1 VM for d).
        let bulk = rate.cost_for_vms(n, d);
        let single: Money = (0..n).map(|_| rate.cost_for(d)).sum();
        prop_assert_eq!(bulk, single);
        // Exact value.
        prop_assert_eq!(bulk, Money::from_units(units * secs as i64 * n as i64));
    }

    /// eq. 3 penalty is monotone in the delay and inversely so in N.
    #[test]
    fn penalty_monotonicity(
        delay_a in 0u64..10_000,
        delay_b in 0u64..10_000,
        n in 1u64..16
    ) {
        let p = PricingParams::new(VmRate::per_vm_second(4), n);
        let price = Money::from_units(1_000_000); // no cap interference
        let (lo, hi) = if delay_a <= delay_b { (delay_a, delay_b) } else { (delay_b, delay_a) };
        let pen_lo = p.delay_penalty(SimDuration::from_secs(lo), 1, price);
        let pen_hi = p.delay_penalty(SimDuration::from_secs(hi), 1, price);
        prop_assert!(pen_lo <= pen_hi);
        // Higher N never increases the penalty.
        let p2 = PricingParams::new(VmRate::per_vm_second(4), n + 1);
        prop_assert!(
            p2.delay_penalty(SimDuration::from_secs(hi), 1, price) <= pen_hi
        );
    }

    /// Fig. 4 identities: spent = progress + waiting, free shrinks as
    /// time passes without progress.
    #[test]
    fn app_times_identities(
        submit in 0u64..1000,
        queue_wait in 0u64..500,
        run_for in 0u64..2000,
        exec in 1u64..3000,
        deadline in 1u64..5000
    ) {
        let submit_t = SimTime::from_secs(submit);
        let mut times = AppTimes::submitted(
            submit_t,
            SimDuration::from_secs(exec),
            SimDuration::from_secs(deadline),
        );
        let start_t = submit_t + SimDuration::from_secs(queue_wait);
        times.start(start_t);
        let now = start_t + SimDuration::from_secs(run_for);
        // progress ≤ spent always.
        prop_assert!(times.progress_t(now) <= times.spent_t(now));
        // spent = queue_wait + run_for.
        prop_assert_eq!(
            times.spent_t(now),
            SimDuration::from_secs(queue_wait + run_for)
        );
        // finish + progress ≥ exec (equality unless overrun).
        let total = times.progress_t(now) + times.finish_t(now);
        prop_assert!(total >= SimDuration::from_secs(exec.min(run_for)));
        // free ≤ deadline.
        prop_assert!(times.free_t(now) <= SimDuration::from_secs(deadline));
    }

    /// Platform-level conservation: however the workload lands, private
    /// VM slots are conserved, the fabric's audit invariants hold after
    /// every same-instant run, every VM charge is non-negative, and the
    /// used-VM series never exceeds capacity or goes negative.
    #[test]
    fn platform_conserves_vms_and_money(
        seed in 0u64..500,
        arrivals in prop::collection::vec((5u64..300, 0usize..2, 50u64..900), 1..25)
    ) {
        let mut cfg = PlatformConfig::paper("meryn").with_seed(seed);
        cfg.private_capacity = 6;
        cfg.vcs = vec![VcConfig::batch("A", 3), VcConfig::batch("B", 3)];
        let mut workload: Vec<Submission> = arrivals
            .iter()
            .map(|&(at, vc, work)| Submission::new(
                SimTime::from_secs(at),
                VcTarget::Index(vc),
                JobSpec::Batch {
                    work: SimDuration::from_secs(work),
                    nb_vms: 1,
                    scaling: ScalingLaw::Fixed,
                },
                UserStrategy::AcceptCheapest,
            ))
            .collect();
        workload.sort_by_key(|s| s.at);

        let mut platform = Platform::new(cfg);
        platform.enqueue_workload(&workload);
        while platform.step() {
            // Invariants at every run barrier: the pool never exceeds
            // its capacity and the fabric's counters stay conserved.
            prop_assert!(platform.pool().active_count() <= 6);
            prop_assert_eq!(platform.audit_invariants(), Ok(()));
        }
        let pool_active = platform.pool().active_count();
        let report = platform.finalize();

        // All apps completed (cloud is infinite) and charged ≥ 0.
        prop_assert_eq!(report.apps.len(), workload.len());
        for a in &report.apps {
            prop_assert!(a.completed.is_some());
            prop_assert!(a.cost >= Money::ZERO);
            prop_assert!(a.revenue >= Money::ZERO);
            prop_assert!(a.revenue <= a.price);
        }
        // Series bounds.
        prop_assert!(report.peak_private <= 6.0);
        prop_assert!(report.series.get(0).min() >= 0.0);
        prop_assert!(report.series.get(1).min() >= 0.0);
        // At drain time nothing is executing.
        prop_assert_eq!(report.series.get(0).last(), 0.0);
        prop_assert_eq!(report.series.get(1).last(), 0.0);
        // Private pool still holds its slaves (≤ capacity), nothing
        // leaked mid-operation.
        prop_assert!(pool_active <= 6);
    }

    /// Determinism: equal seeds and workloads give byte-identical
    /// reports; the protocol's *decisions* are seed-independent.
    #[test]
    fn determinism_and_decision_stability(
        seed in 0u64..100,
        n in 1usize..10
    ) {
        let workload: Vec<Submission> = (0..n)
            .map(|i| Submission::new(
                SimTime::from_secs(5 + 5 * i as u64),
                VcTarget::Index(i % 2),
                JobSpec::Batch {
                    work: SimDuration::from_secs(400),
                    nb_vms: 1,
                    scaling: ScalingLaw::Fixed,
                },
                UserStrategy::AcceptCheapest,
            ))
            .collect();
        let mk = |s: u64| {
            let mut cfg = PlatformConfig::paper("meryn").with_seed(s);
            cfg.private_capacity = 4;
            cfg.vcs = vec![VcConfig::batch("A", 2), VcConfig::batch("B", 2)];
            Platform::new(cfg).run(&workload)
        };
        let a = mk(seed);
        let b = mk(seed);
        prop_assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
        // A different seed shuffles latencies, which can legitimately
        // flip near-tie bid comparisons — but it must never change how
        // much work completes or invent rejections.
        let c = mk(seed + 1);
        prop_assert_eq!(a.apps.len(), c.apps.len());
        prop_assert_eq!(a.rejected, c.rejected);
        prop_assert_eq!(
            a.apps.iter().filter(|x| x.completed.is_some()).count(),
            c.apps.iter().filter(|x| x.completed.is_some()).count()
        );
    }

    /// The ledger's total equals the sum of per-app costs — money is
    /// neither created nor destroyed between the two views.
    #[test]
    fn ledger_and_app_costs_agree(
        seed in 0u64..200,
        n in 1usize..12
    ) {
        let workload: Vec<Submission> = (0..n)
            .map(|i| Submission::new(
                SimTime::from_secs(5 + 7 * i as u64),
                VcTarget::Index(0),
                JobSpec::Batch {
                    work: SimDuration::from_secs(200 + 30 * i as u64),
                    nb_vms: 1,
                    scaling: ScalingLaw::Fixed,
                },
                UserStrategy::AcceptCheapest,
            ))
            .collect();
        let mut cfg = PlatformConfig::paper("meryn").with_seed(seed);
        cfg.private_capacity = 3;
        cfg.vcs = vec![VcConfig::batch("A", 3)];
        let mut platform = Platform::new(cfg);
        platform.enqueue_workload(&workload);
        while platform.step() {}
        let ledger_total = platform.ledger().total();
        let report = platform.finalize();
        prop_assert_eq!(report.total_cost(), ledger_total);
    }
}

/// Non-proptest structural check: VM ids never collide across domains.
/// The pool and the clouds list live VMs only, so the ids are collected
/// after every same-instant run: an id lives in one domain, never comes
/// back once gone, and a cloud id never carries the pool tag.
#[test]
fn vm_ids_unique_across_pool_and_clouds() {
    let cfg = PlatformConfig::paper("static");
    let workload: Vec<Submission> = (0..60)
        .map(|i| {
            Submission::new(
                SimTime::from_secs(5 + i * 5),
                VcTarget::Index(0),
                JobSpec::Batch {
                    work: SimDuration::from_secs(500),
                    nb_vms: 1,
                    scaling: ScalingLaw::Fixed,
                },
                UserStrategy::AcceptCheapest,
            )
        })
        .collect();
    let mut platform = Platform::new(cfg);
    platform.enqueue_workload(&workload);
    // Every id ever listed, with its domain: 0 for the pool, 1 + i for
    // cloud i.
    let mut domain_of: BTreeMap<VmId, usize> = BTreeMap::new();
    let mut live: BTreeSet<VmId> = BTreeSet::new();
    let mut cloud_vms = 0;
    loop {
        let pool = platform.pool().vms().map(|vm| (vm.id, 0));
        let clouds = platform
            .clouds()
            .iter()
            .enumerate()
            .flat_map(|(i, c)| c.vms().map(move |vm| (vm.id, i + 1)));
        let mut now_live = BTreeSet::new();
        for (id, domain) in pool.chain(clouds) {
            assert!(now_live.insert(id), "{id:?} is listed in two domains");
            if domain > 0 {
                assert_ne!(
                    id.host(),
                    HostTag::PRIVATE,
                    "cloud VM {id:?} carries the pool tag"
                );
            }
            match domain_of.insert(id, domain) {
                None => cloud_vms += usize::from(domain > 0),
                Some(was) => {
                    assert_eq!(was, domain, "{id:?} moved between domains");
                    assert!(live.contains(&id), "{id:?} came back after it was gone");
                }
            }
        }
        live = now_live;
        if !platform.step() {
            break;
        }
    }
    assert!(cloud_vms > 0, "the run must lease cloud VMs to check them");
}
