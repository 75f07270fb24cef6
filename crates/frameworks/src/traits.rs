//! The framework facade the PaaS layer programs against.
//!
//! The paper's Cluster Manager has "a generic part … the same for all
//! Cluster Managers" — that generic part only ever touches a framework
//! through the operations below, which is what keeps Meryn extensible:
//! integrating a new application type means implementing [`Framework`]
//! (plus a bid model), not modifying the platform.

use meryn_sim::{SimDuration, SimTime};
use meryn_vmm::VmId;
use serde::{Deserialize, Serialize};

use crate::error::FrameworkError;
use crate::job::{Dispatch, JobDone, JobId, JobSpec};
use crate::scheduler::Job;

/// The application types the prototype supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum FrameworkKind {
    /// Batch jobs (OGE-like).
    Batch,
    /// MapReduce jobs (Hadoop-like).
    MapReduce,
}

impl FrameworkKind {
    /// The job-spec type name this framework accepts.
    pub fn type_name(self) -> &'static str {
        match self {
            FrameworkKind::Batch => "batch",
            FrameworkKind::MapReduce => "mapreduce",
        }
    }
}

/// A serializable owned snapshot of a framework master.
///
/// `Box<dyn Framework>` cannot be serialized directly, so the engine
/// checkpoint stores this enum — one variant per concrete framework —
/// and rebuilds the trait object on restore via
/// [`FrameworkSnapshot::into_framework`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum FrameworkSnapshot {
    /// A batch (OGE-like) framework master.
    Batch(crate::batch::BatchFramework),
    /// A MapReduce (Hadoop-like) framework master.
    MapReduce(crate::mapreduce::MapReduceFramework),
}

impl FrameworkSnapshot {
    /// Rebuilds the boxed framework this snapshot was taken from,
    /// recounting its idle slaves from its slave map (the count is not
    /// part of the snapshot).
    pub fn into_framework(self) -> Box<dyn Framework> {
        match self {
            FrameworkSnapshot::Batch(mut fw) => {
                fw.inner.recount_idle();
                Box::new(fw)
            }
            FrameworkSnapshot::MapReduce(mut fw) => {
                fw.inner.recount_idle();
                Box::new(fw)
            }
        }
    }
}

/// Object-safe facade over a programming framework's master daemon.
///
/// `Send` is part of the contract: a framework master is owned by one
/// VC shard, and the sharded executor moves `&mut` shard borrows across
/// worker threads when it fans same-instant event batches out — so a
/// framework may hold no thread-affine state.
pub trait Framework: Send {
    /// Which application type this framework hosts.
    fn kind(&self) -> FrameworkKind;

    /// Registers a booted slave VM with the framework.
    fn add_slave(&mut self, vm: VmId, speed: f64, remote: bool) -> Result<(), FrameworkError>;

    /// Unregisters an idle slave.
    fn remove_slave(&mut self, vm: VmId) -> Result<(), FrameworkError>;

    /// Idle slaves, deterministic order.
    fn idle_slaves(&self) -> Vec<VmId>;

    /// Appends up to `limit` idle slaves to `out`, in the same
    /// deterministic order as [`Framework::idle_slaves`]. Lets the
    /// platform's acquisition hot path reuse a scratch buffer instead of
    /// collecting a fresh `Vec` per decision.
    fn idle_slaves_into(&self, limit: usize, out: &mut Vec<VmId>) {
        out.extend(self.idle_slaves().into_iter().take(limit));
    }

    /// Number of idle slaves.
    fn idle_count(&self) -> u64;

    /// Total registered slaves.
    fn slave_count(&self) -> u64;

    /// True if the VM is one of this framework's slaves.
    fn has_slave(&self, vm: VmId) -> bool;

    /// Submits a translated job description.
    fn submit(&mut self, spec: JobSpec, now: SimTime) -> Result<JobId, FrameworkError>;

    /// Submits and immediately starts a job on exactly the given slaves
    /// (which were acquired for it); bypasses the queue.
    fn submit_pinned(
        &mut self,
        spec: JobSpec,
        vms: &[VmId],
        now: SimTime,
    ) -> Result<(JobId, Dispatch), FrameworkError>;

    /// Reserves an idle slave for an in-flight pinned submission.
    fn reserve_slave(&mut self, vm: VmId) -> Result<(), FrameworkError>;

    /// Releases a slave reservation.
    fn unreserve_slave(&mut self, vm: VmId) -> Result<(), FrameworkError>;

    /// Starts whatever fits; returns predicted completions to schedule.
    fn try_dispatch(&mut self, now: SimTime) -> Vec<Dispatch>;

    /// Confirms (or drops, when stale) a completion event.
    fn on_finished(
        &mut self,
        job: JobId,
        epoch: u64,
        now: SimTime,
    ) -> Result<Option<JobDone>, FrameworkError>;

    /// Suspends a running job, freeing and returning its slaves.
    fn suspend(&mut self, job: JobId, now: SimTime) -> Result<Vec<VmId>, FrameworkError>;

    /// Suspends a running job and holds it out of the queue until its
    /// VMs are given back (the Algorithm 2 lending path).
    fn suspend_and_hold(&mut self, job: JobId, now: SimTime) -> Result<Vec<VmId>, FrameworkError>;

    /// Fails a running job's stint (a slave VM crashed): progress is
    /// discarded, the job requeues at the front for full re-execution,
    /// and the stint's slaves — crashed one included — are returned.
    fn fail_running(&mut self, job: JobId) -> Result<Vec<VmId>, FrameworkError>;

    /// Requeues a held job at the front of the queue.
    fn requeue_held(&mut self, job: JobId) -> Result<(), FrameworkError>;

    /// Withdraws a queued job from the queue (SLA-escalation hook).
    fn withdraw(&mut self, job: JobId) -> Result<(), FrameworkError>;

    /// Re-enqueues a withdrawn job at the back of the queue.
    fn resubmit_withdrawn(&mut self, job: JobId) -> Result<(), FrameworkError>;

    /// Starts a withdrawn job immediately on exactly the given slaves.
    fn start_withdrawn_pinned(
        &mut self,
        job: JobId,
        vms: &[VmId],
        now: SimTime,
    ) -> Result<Dispatch, FrameworkError>;

    /// Jobs currently held awaiting returned VMs.
    fn held_jobs(&self) -> Vec<JobId>;

    /// Job lookup.
    fn job(&self, id: JobId) -> Option<&Job>;

    /// Currently running jobs, in id order.
    fn running_jobs(&self) -> Vec<&Job>;

    /// Jobs waiting in the queue.
    fn queued_count(&self) -> usize;

    /// Forgets a finished job, reclaiming its table entry (the engine
    /// retires every completed job, so the table stays O(live)).
    fn retire_job(&mut self, job: JobId) -> Result<(), FrameworkError>;

    /// Takes a serializable snapshot of the whole master, for the engine
    /// checkpoint.
    fn snapshot(&self) -> FrameworkSnapshot;

    /// Predicted execution time of `spec` on `k` uniform slaves — the
    /// performance model behind SLA quoting.
    fn estimate_exec(
        &self,
        spec: &JobSpec,
        k: u64,
        speed: f64,
        remote: bool,
    ) -> Result<SimDuration, FrameworkError>;
}

/// Delegates the entire [`Framework`] trait to a
/// `DedicatedScheduler` field named `inner`, given the framework kind
/// and the matching [`FrameworkSnapshot`] variant.
macro_rules! delegate_framework {
    ($ty:ty, $kind:expr, $variant:ident) => {
        impl crate::traits::Framework for $ty {
            fn kind(&self) -> crate::traits::FrameworkKind {
                $kind
            }
            fn add_slave(
                &mut self,
                vm: meryn_vmm::VmId,
                speed: f64,
                remote: bool,
            ) -> Result<(), crate::error::FrameworkError> {
                self.inner.add_slave(vm, speed, remote)
            }
            fn remove_slave(
                &mut self,
                vm: meryn_vmm::VmId,
            ) -> Result<(), crate::error::FrameworkError> {
                self.inner.remove_slave(vm)
            }
            fn idle_slaves(&self) -> Vec<meryn_vmm::VmId> {
                self.inner.idle_slaves()
            }
            fn idle_slaves_into(&self, limit: usize, out: &mut Vec<meryn_vmm::VmId>) {
                self.inner.idle_slaves_into(limit, out)
            }
            fn idle_count(&self) -> u64 {
                self.inner.idle_count()
            }
            fn slave_count(&self) -> u64 {
                self.inner.slave_count()
            }
            fn has_slave(&self, vm: meryn_vmm::VmId) -> bool {
                self.inner.has_slave(vm)
            }
            fn submit(
                &mut self,
                spec: crate::job::JobSpec,
                now: meryn_sim::SimTime,
            ) -> Result<crate::job::JobId, crate::error::FrameworkError> {
                self.inner.submit(spec, now)
            }
            fn submit_pinned(
                &mut self,
                spec: crate::job::JobSpec,
                vms: &[meryn_vmm::VmId],
                now: meryn_sim::SimTime,
            ) -> Result<(crate::job::JobId, crate::job::Dispatch), crate::error::FrameworkError>
            {
                self.inner.submit_pinned(spec, vms, now)
            }
            fn reserve_slave(
                &mut self,
                vm: meryn_vmm::VmId,
            ) -> Result<(), crate::error::FrameworkError> {
                self.inner.reserve_slave(vm)
            }
            fn unreserve_slave(
                &mut self,
                vm: meryn_vmm::VmId,
            ) -> Result<(), crate::error::FrameworkError> {
                self.inner.unreserve_slave(vm)
            }
            fn try_dispatch(&mut self, now: meryn_sim::SimTime) -> Vec<crate::job::Dispatch> {
                self.inner.try_dispatch(now)
            }
            fn on_finished(
                &mut self,
                job: crate::job::JobId,
                epoch: u64,
                now: meryn_sim::SimTime,
            ) -> Result<Option<crate::job::JobDone>, crate::error::FrameworkError> {
                self.inner.on_finished(job, epoch, now)
            }
            fn suspend(
                &mut self,
                job: crate::job::JobId,
                now: meryn_sim::SimTime,
            ) -> Result<Vec<meryn_vmm::VmId>, crate::error::FrameworkError> {
                self.inner.suspend(job, now)
            }
            fn suspend_and_hold(
                &mut self,
                job: crate::job::JobId,
                now: meryn_sim::SimTime,
            ) -> Result<Vec<meryn_vmm::VmId>, crate::error::FrameworkError> {
                self.inner.suspend_and_hold(job, now)
            }
            fn requeue_held(
                &mut self,
                job: crate::job::JobId,
            ) -> Result<(), crate::error::FrameworkError> {
                self.inner.requeue_held(job)
            }
            fn fail_running(
                &mut self,
                job: crate::job::JobId,
            ) -> Result<Vec<meryn_vmm::VmId>, crate::error::FrameworkError> {
                self.inner.fail_running(job)
            }
            fn withdraw(
                &mut self,
                job: crate::job::JobId,
            ) -> Result<(), crate::error::FrameworkError> {
                self.inner.withdraw(job)
            }
            fn resubmit_withdrawn(
                &mut self,
                job: crate::job::JobId,
            ) -> Result<(), crate::error::FrameworkError> {
                self.inner.resubmit_withdrawn(job)
            }
            fn start_withdrawn_pinned(
                &mut self,
                job: crate::job::JobId,
                vms: &[meryn_vmm::VmId],
                now: meryn_sim::SimTime,
            ) -> Result<crate::job::Dispatch, crate::error::FrameworkError> {
                self.inner.start_withdrawn_pinned(job, vms, now)
            }
            fn held_jobs(&self) -> Vec<crate::job::JobId> {
                self.inner.held_jobs()
            }
            fn job(&self, id: crate::job::JobId) -> Option<&crate::scheduler::Job> {
                self.inner.job(id)
            }
            fn running_jobs(&self) -> Vec<&crate::scheduler::Job> {
                self.inner.running_jobs()
            }
            fn queued_count(&self) -> usize {
                self.inner.queued_count()
            }
            fn retire_job(
                &mut self,
                job: crate::job::JobId,
            ) -> Result<(), crate::error::FrameworkError> {
                self.inner.retire_job(job)
            }
            fn snapshot(&self) -> crate::traits::FrameworkSnapshot {
                crate::traits::FrameworkSnapshot::$variant(self.clone())
            }
            fn estimate_exec(
                &self,
                spec: &crate::job::JobSpec,
                k: u64,
                speed: f64,
                remote: bool,
            ) -> Result<meryn_sim::SimDuration, crate::error::FrameworkError> {
                self.inner.estimate_exec(spec, k, speed, remote)
            }
        }
    };
}

pub(crate) use delegate_framework;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_type_names() {
        assert_eq!(FrameworkKind::Batch.type_name(), "batch");
        assert_eq!(FrameworkKind::MapReduce.type_name(), "mapreduce");
    }
}
