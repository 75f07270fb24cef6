//! Property tests for the dedicated-VM scheduler: slave accounting,
//! work-fraction and idle-count invariants hold under arbitrary
//! operation sequences.

use std::collections::BTreeSet;

use meryn_frameworks::batch::BatchFramework;
use meryn_frameworks::{
    Dispatch, Framework, FrameworkSnapshot, JobId, JobSpec, JobState, ScalingLaw,
};
use meryn_sim::{SimDuration, SimTime};
use meryn_vmm::{HostTag, VmId};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
enum Op {
    Submit { work: u64, nb_vms: u64 },
    Dispatch,
    Finish(usize),
    Suspend(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (10u64..500, 1u64..4).prop_map(|(work, nb_vms)| Op::Submit { work, nb_vms }),
        Just(Op::Dispatch),
        (0usize..32).prop_map(Op::Finish),
        (0usize..32).prop_map(Op::Suspend),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn scheduler_accounting_invariants(
        slaves in 1u64..8,
        ops in prop::collection::vec(op_strategy(), 1..100)
    ) {
        let mut fw = BatchFramework::new();
        for i in 0..slaves {
            fw.add_slave(VmId::new(HostTag::PRIVATE, i), 1.0, false).unwrap();
        }
        let mut live: Vec<Dispatch> = Vec::new();
        let mut t = 0u64;
        let mut submitted = 0usize;
        let mut finished = 0usize;
        for op in ops {
            t += 1;
            let now = SimTime::from_secs(t);
            match op {
                Op::Submit { work, nb_vms } => {
                    fw.submit(
                        JobSpec::Batch {
                            work: SimDuration::from_secs(work),
                            nb_vms,
                            scaling: ScalingLaw::Fixed,
                        },
                        now,
                    )
                    .unwrap();
                    submitted += 1;
                }
                Op::Dispatch => {
                    live.extend(fw.try_dispatch(now));
                }
                Op::Finish(i) if !live.is_empty() => {
                    let d = live.remove(i % live.len());
                    // Finish events land at the predicted instant or
                    // later; both must be accepted for live epochs.
                    let at = d.finish_at.max_of(now);
                    if fw.on_finished(d.job, d.epoch, at).unwrap().is_some() {
                        finished += 1;
                    }
                }
                Op::Suspend(i) if !live.is_empty() => {
                    let d = live.remove(i % live.len());
                    // Only suspend if still running under this epoch
                    // (a Finish may have raced it in our shuffled order).
                    if fw.job(d.job).map(|j| j.is_running() && j.epoch == d.epoch) == Some(true) {
                        let freed = fw.suspend(d.job, now).unwrap();
                        prop_assert_eq!(freed.len(), d.vms.len());
                    }
                }
                _ => {}
            }
            // Accounting invariants after every operation:
            let busy: u64 = fw
                .running_jobs()
                .iter()
                .map(|j| j.nb_vms())
                .sum();
            prop_assert_eq!(fw.idle_count() + busy, slaves);
            for job in fw.running_jobs() {
                prop_assert!(job.remaining_fraction >= 0.0);
                prop_assert!(job.remaining_fraction <= 1.0);
            }
        }
        prop_assert!(finished <= submitted);
    }
}

/// One step of the idle-counter property: every operation that can
/// move a slave in or out of idleness, plus a snapshot round trip.
#[derive(Debug, Clone, Copy)]
enum SlaveOp {
    Add(u64),
    Remove(u64),
    Reserve(u64),
    Unreserve(u64),
    Submit(u64),
    Dispatch,
    SubmitPinned(usize, u64),
    Finish(usize),
    SuspendHold(usize),
    RequeueHeld(usize),
    Fail(usize),
    Withdraw(usize),
    StartWithdrawn(usize, usize),
    RoundTrip,
}

fn slave_op_strategy() -> impl Strategy<Value = SlaveOp> {
    prop_oneof![
        (0u64..12).prop_map(SlaveOp::Add),
        (0u64..12).prop_map(SlaveOp::Remove),
        (0u64..12).prop_map(SlaveOp::Reserve),
        (0u64..12).prop_map(SlaveOp::Unreserve),
        (1u64..4).prop_map(SlaveOp::Submit),
        Just(SlaveOp::Dispatch),
        (0usize..12, 1u64..4).prop_map(|(at, nb)| SlaveOp::SubmitPinned(at, nb)),
        (0usize..8).prop_map(SlaveOp::Finish),
        (0usize..8).prop_map(SlaveOp::SuspendHold),
        (0usize..8).prop_map(SlaveOp::RequeueHeld),
        (0usize..8).prop_map(SlaveOp::Fail),
        (0usize..16).prop_map(SlaveOp::Withdraw),
        (0usize..8, 0usize..12).prop_map(|(i, at)| SlaveOp::StartWithdrawn(i, at)),
        Just(SlaveOp::RoundTrip),
    ]
}

fn vm(i: u64) -> VmId {
    VmId::new(HostTag::PRIVATE, i)
}

fn batch(nb_vms: u64) -> JobSpec {
    JobSpec::Batch {
        work: SimDuration::from_secs(100),
        nb_vms,
        scaling: ScalingLaw::Fixed,
    }
}

/// Slaves a running job occupies, read from the jobs' own states.
fn busy_slaves(fw: &dyn Framework) -> BTreeSet<VmId> {
    fw.running_jobs()
        .iter()
        .flat_map(|job| match &job.state {
            JobState::Running { vms, .. } => vms.clone(),
            other => panic!("running job in state {}", other.name()),
        })
        .collect()
}

/// `nb` slaves no job occupies (idle or reserved), starting at the
/// `at`-th such slave in id order, or `None` when too few exist.
fn free_slaves(
    fw: &dyn Framework,
    registered: &BTreeSet<VmId>,
    at: usize,
    nb: u64,
) -> Option<Vec<VmId>> {
    let busy = busy_slaves(fw);
    let free: Vec<VmId> = registered
        .iter()
        .filter(|vm| !busy.contains(vm))
        .copied()
        .collect();
    if (free.len() as u64) < nb {
        return None;
    }
    let start = at % (free.len() - nb as usize + 1);
    Some(free[start..start + nb as usize].to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// After every operation the O(1) idle count equals a recount from
    /// the test's own model — registered slaves minus the ones running
    /// jobs occupy minus the ones it reserved — and
    /// `idle_slaves_into(k)` returns that list's first `k` ids. The
    /// count survives a snapshot round trip.
    #[test]
    fn idle_count_matches_a_recount_after_every_operation(
        ops in prop::collection::vec(slave_op_strategy(), 1..120)
    ) {
        let mut fw: Box<dyn Framework> = Box::new(BatchFramework::new());
        let mut registered: BTreeSet<VmId> = BTreeSet::new();
        let mut reserved: BTreeSet<VmId> = BTreeSet::new();
        let mut submitted: Vec<JobId> = Vec::new();
        let mut withdrawn: Vec<JobId> = Vec::new();
        for (step, op) in ops.into_iter().enumerate() {
            let now = SimTime::from_secs(step as u64);
            let running: Vec<(JobId, u64)> =
                fw.running_jobs().iter().map(|j| (j.id, j.epoch)).collect();
            let pick = |i: usize| running.get(i % running.len().max(1)).copied();
            match op {
                SlaveOp::Add(i) => {
                    if fw.add_slave(vm(i), 1.0, i % 3 == 0).is_ok() {
                        registered.insert(vm(i));
                    }
                }
                SlaveOp::Remove(i) => {
                    if fw.remove_slave(vm(i)).is_ok() {
                        registered.remove(&vm(i));
                        reserved.remove(&vm(i));
                    }
                }
                SlaveOp::Reserve(i) => {
                    if fw.reserve_slave(vm(i)).is_ok() {
                        reserved.insert(vm(i));
                    }
                }
                SlaveOp::Unreserve(i) => {
                    if fw.unreserve_slave(vm(i)).is_ok() {
                        reserved.remove(&vm(i));
                    }
                }
                SlaveOp::Submit(nb) => submitted.push(fw.submit(batch(nb), now).unwrap()),
                SlaveOp::Dispatch => {
                    fw.try_dispatch(now);
                }
                SlaveOp::SubmitPinned(at, nb) => {
                    if let Some(vms) = free_slaves(fw.as_ref(), &registered, at, nb) {
                        let (job, _) = fw.submit_pinned(batch(nb), &vms, now).unwrap();
                        submitted.push(job);
                        for v in &vms {
                            reserved.remove(v);
                        }
                    }
                }
                SlaveOp::Finish(i) => {
                    if let Some((job, epoch)) = pick(i) {
                        prop_assert!(fw.on_finished(job, epoch, now).unwrap().is_some());
                    }
                }
                SlaveOp::SuspendHold(i) => {
                    if let Some((job, _)) = pick(i) {
                        fw.suspend_and_hold(job, now).unwrap();
                    }
                }
                SlaveOp::RequeueHeld(i) => {
                    let held = fw.held_jobs();
                    if !held.is_empty() {
                        fw.requeue_held(held[i % held.len()]).unwrap();
                    }
                }
                SlaveOp::Fail(i) => {
                    if let Some((job, _)) = pick(i) {
                        fw.fail_running(job).unwrap();
                    }
                }
                SlaveOp::Withdraw(i) => {
                    if !submitted.is_empty() {
                        let job = submitted[i % submitted.len()];
                        if fw.withdraw(job).is_ok() {
                            withdrawn.push(job);
                        }
                    }
                }
                SlaveOp::StartWithdrawn(i, at) => {
                    if !withdrawn.is_empty() {
                        let job = withdrawn[i % withdrawn.len()];
                        let nb = fw.job(job).unwrap().nb_vms();
                        if let Some(vms) = free_slaves(fw.as_ref(), &registered, at, nb) {
                            fw.start_withdrawn_pinned(job, &vms, now).unwrap();
                            withdrawn.retain(|&j| j != job);
                            for v in &vms {
                                reserved.remove(v);
                            }
                        }
                    }
                }
                SlaveOp::RoundTrip => {
                    let json = serde_json::to_string(&fw.snapshot()).unwrap();
                    let snap: FrameworkSnapshot = serde_json::from_str(&json).unwrap();
                    fw = snap.into_framework();
                }
            }
            let busy = busy_slaves(fw.as_ref());
            let idle: Vec<VmId> = registered
                .iter()
                .filter(|vm| !busy.contains(vm) && !reserved.contains(vm))
                .copied()
                .collect();
            prop_assert_eq!(fw.idle_count(), idle.len() as u64, "after {:?}", op);
            for k in [0, 1, 2, idle.len(), idle.len() + 1] {
                let mut out = Vec::new();
                fw.idle_slaves_into(k, &mut out);
                prop_assert_eq!(&out[..], &idle[..k.min(idle.len())], "first {} after {:?}", k, op);
            }
        }
    }
}
