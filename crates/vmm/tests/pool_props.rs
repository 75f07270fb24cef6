//! Property tests for the private pool: capacity is never exceeded,
//! slots are conserved and only live VMs stay listed under arbitrary
//! start/stop interleavings.

use meryn_sim::{SimRng, SimTime};
use meryn_vmm::{ImageId, LatencyModel, PrivatePool, VmId, VmSpec, VmmError};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
enum Op {
    BeginStart,
    CompleteStart(usize),
    BeginStop(usize),
    CompleteStop(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::BeginStart),
        (0usize..64).prop_map(Op::CompleteStart),
        (0usize..64).prop_map(Op::BeginStop),
        (0usize..64).prop_map(Op::CompleteStop),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn pool_capacity_invariants(
        capacity in 1u64..12,
        ops in prop::collection::vec(op_strategy(), 1..120)
    ) {
        let mut pool = PrivatePool::with_vm_capacity(
            capacity,
            VmSpec::EC2_MEDIUM_LIKE,
            LatencyModel::fixed_secs(10),
            LatencyModel::fixed_secs(5),
            1.0,
            SimRng::new(1),
        );
        let mut starting: Vec<VmId> = Vec::new();
        let mut running: Vec<VmId> = Vec::new();
        let mut stopping: Vec<VmId> = Vec::new();
        let mut t = 0u64;
        for op in ops {
            t += 1;
            let now = SimTime::from_secs(t);
            match op {
                Op::BeginStart => match pool.begin_start(ImageId(0), now) {
                    Ok((vm, _)) => starting.push(vm),
                    Err(VmmError::CapacityExhausted { .. }) => {
                        // Refusal must coincide with a genuinely full pool.
                        prop_assert_eq!(pool.available(), 0);
                    }
                    Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
                },
                Op::CompleteStart(i) if !starting.is_empty() => {
                    let vm = starting.remove(i % starting.len());
                    pool.complete_start(vm, now).expect("starting VM completes");
                    running.push(vm);
                }
                Op::BeginStop(i) if !running.is_empty() => {
                    let vm = running.remove(i % running.len());
                    pool.begin_stop(vm, now).expect("running VM stops");
                    stopping.push(vm);
                }
                Op::CompleteStop(i) if !stopping.is_empty() => {
                    let vm = stopping.remove(i % stopping.len());
                    pool.complete_stop(vm, now).expect("stopping VM completes");
                    prop_assert!(pool.vm(vm).is_none(), "a stopped VM leaves the pool");
                }
                _ => {}
            }
            // The core invariants, after every operation:
            prop_assert!(pool.active_count() <= capacity);
            prop_assert_eq!(pool.available(), capacity - pool.active_count());
            prop_assert_eq!(
                pool.active_count() as usize,
                starting.len() + running.len() + stopping.len()
            );
            prop_assert_eq!(pool.running_count() as usize, running.len());
            // Only live VMs are listed: every one holds resources, and a
            // stopped VM is gone.
            prop_assert!(pool.vms().all(|v| v.state().holds_resources()));
            prop_assert_eq!(pool.vms().count() as u64, pool.active_count());
        }
    }

    /// Booting after stopping always succeeds when the pool had spare
    /// slots — the stop→boot chain the VM-exchange choreography relies
    /// on never deadlocks on placement.
    #[test]
    fn stop_then_start_round_trips(capacity in 1u64..8, churns in 1usize..30) {
        let mut pool = PrivatePool::with_vm_capacity(
            capacity,
            VmSpec::EC2_MEDIUM_LIKE,
            LatencyModel::ZERO,
            LatencyModel::ZERO,
            1.0,
            SimRng::new(2),
        );
        let now = SimTime::ZERO;
        let (mut vm, _) = pool.begin_start(ImageId(0), now).unwrap();
        pool.complete_start(vm, now).unwrap();
        for _ in 0..churns {
            pool.begin_stop(vm, now).unwrap();
            pool.complete_stop(vm, now).unwrap();
            let (next, _) = pool
                .begin_start(ImageId(1), now)
                .expect("slot just freed must be reusable");
            pool.complete_start(next, now).unwrap();
            prop_assert_ne!(next, vm, "VM ids are never recycled");
            vm = next;
        }
        prop_assert_eq!(pool.running_count(), 1);
    }
}
