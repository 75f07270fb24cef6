//! The generic dedicated-VM scheduler.
//!
//! Both frameworks in the paper's prototype are configured so that "the
//! batch framework scheduler … attributes a number of VMs to each single
//! application". [`DedicatedScheduler`] captures that discipline once:
//! a FIFO queue (with optional backfill), exclusive slave assignment,
//! epoch-guarded completion prediction, and suspend/resume with
//! remaining-work accounting. The frameworks differ only in their
//! [`ExecModel`].

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use meryn_sim::DetHashMap;

use meryn_sim::{SimDuration, SimTime};
use meryn_vmm::VmId;
use serde::{Deserialize, Serialize};

use crate::error::FrameworkError;
use crate::job::{Dispatch, JobDone, JobId, JobSpec, JobState};
use crate::perf::SlaveSet;

/// A framework-specific execution-time model.
pub trait ExecModel {
    /// Job type this model understands, for error messages.
    fn expected_type(&self) -> &'static str;

    /// Predicted execution time of the *whole* job `spec` on `slaves`.
    /// Returns [`FrameworkError::WrongJobType`] for foreign specs.
    fn exec_time(&self, spec: &JobSpec, slaves: SlaveSet) -> Result<SimDuration, FrameworkError>;
}

/// A job tracked by the scheduler.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Job {
    /// The job's id.
    pub id: JobId,
    /// What it runs.
    pub spec: JobSpec,
    /// When it was submitted to the framework.
    pub submitted: SimTime,
    /// Lifecycle state.
    pub state: JobState,
    /// Dispatch epoch; bumped on every dispatch and suspension.
    pub epoch: u64,
    /// Fraction of the job's work still to do (1.0 before any stint).
    pub remaining_fraction: f64,
    /// How many times it has been suspended.
    pub suspensions: u32,
}

impl Job {
    /// The dedicated VM count the job requires.
    pub fn nb_vms(&self) -> u64 {
        self.spec.nb_vms()
    }

    /// True while executing.
    pub fn is_running(&self) -> bool {
        matches!(self.state, JobState::Running { .. })
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct Slave {
    speed: f64,
    remote: bool,
    busy: Option<JobId>,
    /// Reserved for a specific in-flight submission: invisible to the
    /// FIFO dispatcher until the pinned submit claims it.
    reserved: bool,
}

impl Slave {
    /// Free for the FIFO dispatcher: neither running a job nor
    /// reserved.
    fn is_idle(&self) -> bool {
        self.busy.is_none() && !self.reserved
    }
}

/// The scheduler shared by both frameworks.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DedicatedScheduler<M> {
    model: M,
    slaves: BTreeMap<VmId, Slave>,
    /// Number of idle slaves in `slaves` (see `Slave::is_idle`), kept
    /// in step by every state change so [`DedicatedScheduler::idle_count`]
    /// is O(1). Never serialized: a restore rebuilds it from the slave
    /// map ([`DedicatedScheduler::recount_idle`]), so a hand-edited
    /// snapshot cannot desynchronize it.
    #[serde(skip)]
    idle: u64,
    /// Job table: every job from submission until its owner retires it
    /// ([`DedicatedScheduler::retire_job`]). A finished job stays
    /// queryable until then; the engine retires each one as its
    /// application completes, so under the engine the table holds live
    /// jobs only. Keyed lookups only — dispatch order comes from
    /// `queue`/`running`/`held`, never from iterating this map — so the
    /// deterministic hash map keeps every lookup O(1) (see
    /// `meryn_sim::hash`).
    jobs: DetHashMap<JobId, Job>,
    queue: VecDeque<JobId>,
    held: BTreeSet<JobId>,
    /// Ids of jobs currently in [`JobState::Running`]. The `jobs` map
    /// also holds queued, held and not-yet-retired finished jobs, so bid
    /// computation — which scans running jobs on every arrival — reads
    /// this index instead, keeping that scan proportional to the VC's
    /// actual occupancy. No serde default: a snapshot missing the
    /// index must fail loudly, not deserialize with an empty one.
    running: BTreeSet<JobId>,
    next_job: u64,
    backfill: bool,
}

impl<M: ExecModel> DedicatedScheduler<M> {
    /// Creates a scheduler with strict FIFO dispatch.
    pub fn new(model: M) -> Self {
        DedicatedScheduler {
            model,
            slaves: BTreeMap::new(),
            idle: 0,
            jobs: DetHashMap::default(),
            queue: VecDeque::new(),
            held: BTreeSet::new(),
            running: BTreeSet::new(),
            next_job: 0,
            backfill: false,
        }
    }

    /// Enables backfill: when the queue head does not fit, later jobs
    /// that do fit may start ahead of it.
    pub fn with_backfill(mut self, backfill: bool) -> Self {
        self.backfill = backfill;
        self
    }

    /// The execution model (for quoting).
    pub fn model(&self) -> &M {
        &self.model
    }

    // ---- slave management -------------------------------------------------

    /// Registers a slave VM with the framework ("configures them and adds
    /// them to the framework resources", §3.4).
    pub fn add_slave(&mut self, vm: VmId, speed: f64, remote: bool) -> Result<(), FrameworkError> {
        if self.slaves.contains_key(&vm) {
            return Err(FrameworkError::DuplicateSlave(vm));
        }
        self.slaves.insert(
            vm,
            Slave {
                speed,
                remote,
                busy: None,
                reserved: false,
            },
        );
        self.idle += 1;
        Ok(())
    }

    /// Applies `change` to `vm`'s slave entry and moves the idle count
    /// by however the change moved the slave in or out of idleness.
    fn update_slave(
        &mut self,
        vm: VmId,
        change: impl FnOnce(&mut Slave),
    ) -> Result<(), FrameworkError> {
        let slave = self
            .slaves
            .get_mut(&vm)
            .ok_or(FrameworkError::UnknownSlave(vm))?;
        let was_idle = slave.is_idle();
        change(slave);
        match (was_idle, slave.is_idle()) {
            (true, false) => self.idle -= 1,
            (false, true) => self.idle += 1,
            _ => {}
        }
        Ok(())
    }

    /// Rebuilds the idle count from the slave map — the restore path,
    /// since the count is not serialized.
    pub(crate) fn recount_idle(&mut self) {
        self.idle = self.slaves.values().filter(|s| s.is_idle()).count() as u64;
    }

    /// Marks an idle slave as reserved: it will not be handed to queued
    /// jobs until a pinned submit claims it (or it is unreserved).
    pub fn reserve_slave(&mut self, vm: VmId) -> Result<(), FrameworkError> {
        let slave = self
            .slaves
            .get(&vm)
            .ok_or(FrameworkError::UnknownSlave(vm))?;
        if let Some(job) = slave.busy {
            return Err(FrameworkError::SlaveBusy(vm, job));
        }
        self.update_slave(vm, |s| s.reserved = true)
    }

    /// Releases a reservation.
    pub fn unreserve_slave(&mut self, vm: VmId) -> Result<(), FrameworkError> {
        self.update_slave(vm, |s| s.reserved = false)
    }

    /// Unregisters an idle slave. Busy slaves are refused — suspend the
    /// occupying job first.
    pub fn remove_slave(&mut self, vm: VmId) -> Result<(), FrameworkError> {
        let slave = self
            .slaves
            .get(&vm)
            .ok_or(FrameworkError::UnknownSlave(vm))?;
        if let Some(job) = slave.busy {
            return Err(FrameworkError::SlaveBusy(vm, job));
        }
        if slave.is_idle() {
            self.idle -= 1;
        }
        self.slaves.remove(&vm);
        Ok(())
    }

    /// Frees every slave in `vms` from the job occupying it.
    fn free_slaves(&mut self, vms: &[VmId]) {
        for &vm in vms {
            self.update_slave(vm, |s| s.busy = None)
                .expect("assigned slave exists");
        }
    }

    /// Idle, unreserved slaves in deterministic (id) order.
    pub fn idle_slaves(&self) -> Vec<VmId> {
        let mut out = Vec::new();
        self.idle_slaves_into(usize::MAX, &mut out);
        out
    }

    /// Appends up to `limit` idle, unreserved slaves to `out`, in id
    /// order, without allocating a full listing.
    pub fn idle_slaves_into(&self, limit: usize, out: &mut Vec<VmId>) {
        out.extend(
            self.slaves
                .iter()
                .filter(|(_, s)| s.is_idle())
                .map(|(&vm, _)| vm)
                .take(limit),
        );
    }

    /// Number of idle, unreserved slaves: a counter read, O(1).
    pub fn idle_count(&self) -> u64 {
        debug_assert_eq!(
            self.idle,
            self.slaves.values().filter(|s| s.is_idle()).count() as u64,
            "idle count out of step with the slave map"
        );
        self.idle
    }

    /// Total registered slaves.
    pub fn slave_count(&self) -> u64 {
        self.slaves.len() as u64
    }

    /// True if `vm` is registered here.
    pub fn has_slave(&self, vm: VmId) -> bool {
        self.slaves.contains_key(&vm)
    }

    // ---- job lifecycle ----------------------------------------------------

    /// Submits a job; it enters the FIFO queue. Call
    /// [`DedicatedScheduler::try_dispatch`] afterwards.
    pub fn submit(&mut self, spec: JobSpec, now: SimTime) -> Result<JobId, FrameworkError> {
        if spec.type_name() != self.model.expected_type() {
            return Err(FrameworkError::WrongJobType {
                expected: self.model.expected_type(),
                got: spec.type_name(),
            });
        }
        let id = JobId(self.next_job);
        self.next_job += 1;
        self.jobs.insert(
            id,
            Job {
                id,
                spec,
                submitted: now,
                state: JobState::Queued,
                epoch: 0,
                remaining_fraction: 1.0,
                suspensions: 0,
            },
        );
        self.queue.push_back(id);
        Ok(id)
    }

    /// Attempts to start queued jobs on idle slaves. Returns one
    /// [`Dispatch`] per started job; the driver must schedule each
    /// completion.
    pub fn try_dispatch(&mut self, now: SimTime) -> Vec<Dispatch> {
        let mut started = Vec::new();
        while let Some(pos) = self.next_dispatchable() {
            let job_id = self.queue.remove(pos).expect("position just found");
            started.push(self.start_job(job_id, now));
        }
        started
    }

    /// Index in the queue of the next job that fits, honouring the
    /// backfill setting.
    fn next_dispatchable(&self) -> Option<usize> {
        let idle = self.idle_count();
        let fits = |id: &JobId| self.jobs[id].nb_vms() <= idle;
        match self.queue.front() {
            None => None,
            Some(head) if fits(head) => Some(0),
            Some(_) if self.backfill => self.queue.iter().position(fits),
            Some(_) => None,
        }
    }

    fn start_job(&mut self, job_id: JobId, now: SimTime) -> Dispatch {
        let job = self.jobs.get(&job_id).expect("queued job exists");
        let need = job.nb_vms() as usize;
        let mut chosen = Vec::with_capacity(need);
        self.idle_slaves_into(need, &mut chosen);
        assert_eq!(chosen.len(), need, "dispatch guard must ensure fit");
        self.start_on(job_id, chosen, now)
    }

    fn start_on(&mut self, job_id: JobId, chosen: Vec<VmId>, now: SimTime) -> Dispatch {
        let job = self.jobs.get(&job_id).expect("job exists");
        debug_assert_eq!(chosen.len() as u64, job.nb_vms());
        let slaves = chosen.iter().fold(SlaveSet::EMPTY, |set, vm| {
            let s = &self.slaves[vm];
            set.with(s.speed, s.remote)
        });
        let full = self
            .model
            .exec_time(&job.spec, slaves)
            .expect("spec type checked at submit");
        for &vm in &chosen {
            self.update_slave(vm, |s| {
                s.busy = Some(job_id);
                s.reserved = false;
            })
            .expect("chosen slave exists");
        }
        let job = self.jobs.get_mut(&job_id).expect("queued job exists");
        let exec_total = full.scale(job.remaining_fraction);
        let finish_at = now + exec_total;
        job.epoch += 1;
        job.state = JobState::Running {
            vms: chosen.clone(),
            started: now,
            exec_total,
            finish_at,
        };
        self.running.insert(job_id);
        Dispatch {
            job: job_id,
            vms: chosen,
            exec_total,
            finish_at,
            epoch: job.epoch,
        }
    }

    /// Submits a job and starts it immediately on exactly the given
    /// (idle or reserved) slaves, bypassing the queue — the path for VMs
    /// acquired *for* this application by Algorithm 1 (transferred,
    /// lent or leased VMs are dedicated to the requesting application).
    pub fn submit_pinned(
        &mut self,
        spec: JobSpec,
        vms: &[VmId],
        now: SimTime,
    ) -> Result<(JobId, Dispatch), FrameworkError> {
        if spec.type_name() != self.model.expected_type() {
            return Err(FrameworkError::WrongJobType {
                expected: self.model.expected_type(),
                got: spec.type_name(),
            });
        }
        assert_eq!(
            vms.len() as u64,
            spec.nb_vms(),
            "pinned submission must provide exactly the job's VM count"
        );
        for &vm in vms {
            let slave = self
                .slaves
                .get(&vm)
                .ok_or(FrameworkError::UnknownSlave(vm))?;
            if let Some(job) = slave.busy {
                return Err(FrameworkError::SlaveBusy(vm, job));
            }
        }
        let id = JobId(self.next_job);
        self.next_job += 1;
        self.jobs.insert(
            id,
            Job {
                id,
                spec,
                submitted: now,
                state: JobState::Queued,
                epoch: 0,
                remaining_fraction: 1.0,
                suspensions: 0,
            },
        );
        let dispatch = self.start_on(id, vms.to_vec(), now);
        Ok((id, dispatch))
    }

    /// Confirms a completion event. Returns `None` when the epoch is
    /// stale (the job was suspended/re-dispatched after the event was
    /// scheduled) — the driver simply drops such events.
    pub fn on_finished(
        &mut self,
        job_id: JobId,
        epoch: u64,
        now: SimTime,
    ) -> Result<Option<JobDone>, FrameworkError> {
        let job = self
            .jobs
            .get_mut(&job_id)
            .ok_or(FrameworkError::UnknownJob(job_id))?;
        if job.epoch != epoch || !job.is_running() {
            return Ok(None);
        }
        let JobState::Running { vms, .. } =
            std::mem::replace(&mut job.state, JobState::Done { at: now })
        else {
            unreachable!("checked is_running above")
        };
        job.remaining_fraction = 0.0;
        self.running.remove(&job_id);
        self.free_slaves(&vms);
        Ok(Some(JobDone { job: job_id, vms }))
    }

    /// Suspends a running job, freeing its slaves and re-queueing it at
    /// the *front* (it has priority when capacity returns, matching the
    /// paper's expectation that lent VMs are "given back before the end
    /// of the requested duration"). Returns the freed slaves.
    pub fn suspend(&mut self, job_id: JobId, now: SimTime) -> Result<Vec<VmId>, FrameworkError> {
        let vms = self.suspend_and_hold(job_id, now)?;
        self.held.remove(&job_id);
        self.queue.push_front(job_id);
        Ok(vms)
    }

    /// Suspends a running job *without* re-queueing it: the job is held
    /// aside until [`DedicatedScheduler::requeue_held`] is called. This
    /// is the lending path of Algorithm 2 — the victim must wait for the
    /// borrowed VMs to be given back rather than immediately race the
    /// borrower for the capacity it just freed.
    pub fn suspend_and_hold(
        &mut self,
        job_id: JobId,
        now: SimTime,
    ) -> Result<Vec<VmId>, FrameworkError> {
        let job = self
            .jobs
            .get_mut(&job_id)
            .ok_or(FrameworkError::UnknownJob(job_id))?;
        if !job.is_running() {
            return Err(FrameworkError::NotRunning(job_id));
        }
        let JobState::Running {
            vms,
            started,
            exec_total,
            ..
        } = std::mem::replace(&mut job.state, JobState::Suspended { since: now })
        else {
            unreachable!("checked is_running above")
        };
        let elapsed = now.since(started);
        let done_frac = if exec_total.is_zero() {
            1.0
        } else {
            (elapsed.as_millis() as f64 / exec_total.as_millis() as f64).clamp(0.0, 1.0)
        };
        job.remaining_fraction *= 1.0 - done_frac;
        job.epoch += 1;
        job.suspensions += 1;
        self.running.remove(&job_id);
        self.free_slaves(&vms);
        self.held.insert(job_id);
        Ok(vms)
    }

    /// Fails a running job's current stint — the fault-plane path for a
    /// crashed slave VM. Unlike [`DedicatedScheduler::suspend`], the
    /// stint's progress is *discarded* (`remaining_fraction` resets to
    /// 1.0: there is no checkpoint on a crashed VM, the job re-executes
    /// from scratch), the epoch bumps so the stale completion event is
    /// dropped, and the job re-enters the queue at the front. Returns
    /// the slaves the stint was occupying — including the crashed one;
    /// the caller decides which of them still exist.
    pub fn fail_running(&mut self, job_id: JobId) -> Result<Vec<VmId>, FrameworkError> {
        let job = self
            .jobs
            .get_mut(&job_id)
            .ok_or(FrameworkError::UnknownJob(job_id))?;
        if !job.is_running() {
            return Err(FrameworkError::NotRunning(job_id));
        }
        let JobState::Running { vms, .. } = std::mem::replace(&mut job.state, JobState::Queued)
        else {
            unreachable!("checked is_running above")
        };
        job.remaining_fraction = 1.0;
        job.epoch += 1;
        self.running.remove(&job_id);
        self.free_slaves(&vms);
        self.queue.push_front(job_id);
        Ok(vms)
    }

    /// Withdraws a *queued* (never-started or not-currently-running) job
    /// from the queue — the hook for SLA-enforcement policies that
    /// re-place a waiting job elsewhere (e.g. burst it to a cloud).
    /// Fails for running, held or finished jobs.
    pub fn withdraw(&mut self, job_id: JobId) -> Result<(), FrameworkError> {
        let Some(pos) = self.queue.iter().position(|&j| j == job_id) else {
            return Err(FrameworkError::UnknownJob(job_id));
        };
        self.queue.remove(pos);
        Ok(())
    }

    /// Re-enqueues a previously withdrawn (still `Queued`/`Suspended`)
    /// job at the back of the queue.
    pub fn resubmit_withdrawn(&mut self, job_id: JobId) -> Result<(), FrameworkError> {
        let job = self
            .jobs
            .get(&job_id)
            .ok_or(FrameworkError::UnknownJob(job_id))?;
        match job.state {
            JobState::Queued | JobState::Suspended { .. } => {
                assert!(!self.queue.contains(&job_id), "job already queued");
                self.queue.push_back(job_id);
                Ok(())
            }
            _ => Err(FrameworkError::NotRunning(job_id)),
        }
    }

    /// Starts a withdrawn job immediately on exactly the given slaves
    /// (the escalation counterpart of [`DedicatedScheduler::submit_pinned`]
    /// for jobs that already exist).
    pub fn start_withdrawn_pinned(
        &mut self,
        job_id: JobId,
        vms: &[VmId],
        now: SimTime,
    ) -> Result<Dispatch, FrameworkError> {
        let job = self
            .jobs
            .get(&job_id)
            .ok_or(FrameworkError::UnknownJob(job_id))?;
        match job.state {
            JobState::Queued | JobState::Suspended { .. } => {}
            _ => return Err(FrameworkError::NotRunning(job_id)),
        }
        assert_eq!(
            vms.len() as u64,
            job.nb_vms(),
            "pinned start must provide exactly the job's VM count"
        );
        assert!(
            !self.queue.contains(&job_id),
            "withdraw the job before pinned start"
        );
        for &vm in vms {
            let slave = self
                .slaves
                .get(&vm)
                .ok_or(FrameworkError::UnknownSlave(vm))?;
            if let Some(other) = slave.busy {
                return Err(FrameworkError::SlaveBusy(vm, other));
            }
        }
        Ok(self.start_on(job_id, vms.to_vec(), now))
    }

    /// Puts a held (suspended-for-lending) job back at the front of the
    /// queue, to be re-dispatched by the next `try_dispatch`.
    pub fn requeue_held(&mut self, job_id: JobId) -> Result<(), FrameworkError> {
        if !self.held.remove(&job_id) {
            return Err(FrameworkError::UnknownJob(job_id));
        }
        self.queue.push_front(job_id);
        Ok(())
    }

    /// Jobs currently held aside awaiting returned VMs.
    pub fn held_jobs(&self) -> Vec<JobId> {
        self.held.iter().copied().collect()
    }

    /// Forgets a finished job, reclaiming its table entry. The engine
    /// calls it as each application completes — the report keeps what
    /// it needs in the application's record — so the table stays
    /// O(live). Only `Done` jobs can be retired — anything else is still
    /// owned by the queue/running/held indexes.
    pub fn retire_job(&mut self, job_id: JobId) -> Result<(), FrameworkError> {
        let job = self
            .jobs
            .get(&job_id)
            .ok_or(FrameworkError::UnknownJob(job_id))?;
        if !matches!(job.state, JobState::Done { .. }) {
            return Err(FrameworkError::NotRunning(job_id));
        }
        self.jobs.remove(&job_id);
        Ok(())
    }

    // ---- queries ------------------------------------------------------

    /// Looks a job up.
    pub fn job(&self, id: JobId) -> Option<&Job> {
        self.jobs.get(&id)
    }

    /// Jobs currently running, in id order.
    pub fn running_jobs(&self) -> Vec<&Job> {
        self.running
            .iter()
            .map(|id| {
                let job = &self.jobs[id];
                debug_assert!(job.is_running(), "running index out of sync");
                job
            })
            .collect()
    }

    /// Number of queued (waiting or suspended-requeued) jobs.
    pub fn queued_count(&self) -> usize {
        self.queue.len()
    }

    /// Predicted execution time of `spec` on `k` hypothetical slaves of
    /// the given uniform speed — the quoting entry point.
    pub fn estimate_exec(
        &self,
        spec: &JobSpec,
        k: u64,
        speed: f64,
        remote: bool,
    ) -> Result<SimDuration, FrameworkError> {
        self.model
            .exec_time(spec, SlaveSet::uniform(k.max(1), speed, remote))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::{batch_exec_time, ScalingLaw};
    use meryn_vmm::HostTag;

    /// Minimal batch-like model for scheduler unit tests.
    struct TestModel;
    impl ExecModel for TestModel {
        fn expected_type(&self) -> &'static str {
            "batch"
        }
        fn exec_time(
            &self,
            spec: &JobSpec,
            slaves: SlaveSet,
        ) -> Result<SimDuration, FrameworkError> {
            match spec {
                JobSpec::Batch { work, scaling, .. } => {
                    Ok(batch_exec_time(*work, *scaling, slaves))
                }
                other => Err(FrameworkError::WrongJobType {
                    expected: "batch",
                    got: other.type_name(),
                }),
            }
        }
    }

    fn sched() -> DedicatedScheduler<TestModel> {
        DedicatedScheduler::new(TestModel)
    }

    fn vid(n: u64) -> VmId {
        VmId::new(HostTag::PRIVATE, n)
    }

    fn batch(work_secs: u64, nb_vms: u64) -> JobSpec {
        JobSpec::Batch {
            work: SimDuration::from_secs(work_secs),
            nb_vms,
            scaling: ScalingLaw::Fixed,
        }
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn submit_and_dispatch_single_vm_job() {
        let mut s = sched();
        s.add_slave(vid(0), 1.0, false).unwrap();
        let j = s.submit(batch(100, 1), t(0)).unwrap();
        let d = s.try_dispatch(t(0));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].job, j);
        assert_eq!(d[0].finish_at, t(100));
        assert_eq!(s.idle_count(), 0);
        assert!(s.job(j).unwrap().is_running());
    }

    #[test]
    fn fifo_order_respected_without_backfill() {
        let mut s = sched();
        s.add_slave(vid(0), 1.0, false).unwrap();
        s.add_slave(vid(1), 1.0, false).unwrap();
        let big = s.submit(batch(100, 3), t(0)).unwrap(); // needs 3, only 2 exist
        let small = s.submit(batch(50, 1), t(0)).unwrap();
        let d = s.try_dispatch(t(0));
        assert!(d.is_empty(), "head of queue blocks without backfill");
        assert_eq!(s.queued_count(), 2);
        let _ = (big, small);
    }

    #[test]
    fn backfill_lets_small_jobs_through() {
        let mut s = DedicatedScheduler::new(TestModel).with_backfill(true);
        s.add_slave(vid(0), 1.0, false).unwrap();
        s.add_slave(vid(1), 1.0, false).unwrap();
        s.submit(batch(100, 3), t(0)).unwrap();
        let small = s.submit(batch(50, 1), t(0)).unwrap();
        let d = s.try_dispatch(t(0));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].job, small);
        assert_eq!(s.queued_count(), 1);
    }

    #[test]
    fn completion_frees_slaves_and_dispatches_next() {
        let mut s = sched();
        s.add_slave(vid(0), 1.0, false).unwrap();
        let a = s.submit(batch(100, 1), t(0)).unwrap();
        let b = s.submit(batch(100, 1), t(0)).unwrap();
        let d = s.try_dispatch(t(0));
        assert_eq!(d.len(), 1);
        let done = s.on_finished(a, d[0].epoch, t(100)).unwrap().unwrap();
        assert_eq!(done.vms, vec![vid(0)]);
        let d2 = s.try_dispatch(t(100));
        assert_eq!(d2.len(), 1);
        assert_eq!(d2[0].job, b);
        assert_eq!(d2[0].finish_at, t(200));
    }

    #[test]
    fn stale_epoch_completion_is_ignored() {
        let mut s = sched();
        s.add_slave(vid(0), 1.0, false).unwrap();
        let j = s.submit(batch(100, 1), t(0)).unwrap();
        let d = s.try_dispatch(t(0));
        // Suspend at t=40: epoch bumps, the old completion must be void.
        let freed = s.suspend(j, t(40)).unwrap();
        assert_eq!(freed, vec![vid(0)]);
        assert_eq!(s.on_finished(j, d[0].epoch, t(100)).unwrap(), None);
        assert!(!s.job(j).unwrap().is_running());
    }

    #[test]
    fn suspension_tracks_remaining_work() {
        let mut s = sched();
        s.add_slave(vid(0), 1.0, false).unwrap();
        let j = s.submit(batch(100, 1), t(0)).unwrap();
        s.try_dispatch(t(0));
        // 40% done at t=40.
        s.suspend(j, t(40)).unwrap();
        let job = s.job(j).unwrap();
        assert!((job.remaining_fraction - 0.6).abs() < 1e-9);
        assert_eq!(job.suspensions, 1);
        // Resume: re-dispatch runs the remaining 60 s.
        let d = s.try_dispatch(t(200));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].exec_total, SimDuration::from_secs(60));
        assert_eq!(d[0].finish_at, t(260));
    }

    #[test]
    fn suspended_job_requeues_at_front() {
        let mut s = sched();
        s.add_slave(vid(0), 1.0, false).unwrap();
        let a = s.submit(batch(100, 1), t(0)).unwrap();
        let b = s.submit(batch(100, 1), t(0)).unwrap();
        s.try_dispatch(t(0));
        s.suspend(a, t(50)).unwrap();
        // Queue: [a(front), b]. One slave → a restarts first.
        let d = s.try_dispatch(t(60));
        assert_eq!(d[0].job, a);
        let _ = b;
    }

    #[test]
    fn fail_running_discards_progress_and_requeues_at_front() {
        let mut s = sched();
        s.add_slave(vid(0), 1.0, false).unwrap();
        let a = s.submit(batch(100, 1), t(0)).unwrap();
        let b = s.submit(batch(100, 1), t(0)).unwrap();
        let d = s.try_dispatch(t(0));
        // Crash at t=80: unlike suspend, the 80% progress is lost.
        let freed = s.fail_running(a).unwrap();
        assert_eq!(freed, vec![vid(0)]);
        let job = s.job(a).unwrap();
        assert_eq!(job.remaining_fraction, 1.0);
        assert!(!job.is_running());
        // The stale completion event is void (epoch bumped).
        assert_eq!(s.on_finished(a, d[0].epoch, t(100)).unwrap(), None);
        // The failed job restarts ahead of b, for its full duration.
        let d2 = s.try_dispatch(t(80));
        assert_eq!(d2[0].job, a);
        assert_eq!(d2[0].exec_total, SimDuration::from_secs(100));
        let _ = b;
    }

    #[test]
    fn fail_running_rejects_non_running_jobs() {
        let mut s = sched();
        s.add_slave(vid(0), 1.0, false).unwrap();
        let queued = s.submit(batch(100, 2), t(0)).unwrap();
        assert_eq!(
            s.fail_running(queued),
            Err(FrameworkError::NotRunning(queued))
        );
        assert_eq!(
            s.fail_running(JobId(99)),
            Err(FrameworkError::UnknownJob(JobId(99)))
        );
    }

    #[test]
    fn remove_busy_slave_refused() {
        let mut s = sched();
        s.add_slave(vid(0), 1.0, false).unwrap();
        let j = s.submit(batch(100, 1), t(0)).unwrap();
        s.try_dispatch(t(0));
        assert_eq!(
            s.remove_slave(vid(0)),
            Err(FrameworkError::SlaveBusy(vid(0), j))
        );
        s.suspend(j, t(10)).unwrap();
        assert!(s.remove_slave(vid(0)).is_ok());
        assert_eq!(s.slave_count(), 0);
    }

    #[test]
    fn duplicate_and_unknown_slaves() {
        let mut s = sched();
        s.add_slave(vid(0), 1.0, false).unwrap();
        assert_eq!(
            s.add_slave(vid(0), 1.0, false),
            Err(FrameworkError::DuplicateSlave(vid(0)))
        );
        assert_eq!(
            s.remove_slave(vid(9)),
            Err(FrameworkError::UnknownSlave(vid(9)))
        );
        assert!(s.has_slave(vid(0)));
        assert!(!s.has_slave(vid(9)));
    }

    #[test]
    fn wrong_job_type_rejected_at_submit() {
        let mut s = sched();
        let mr = JobSpec::MapReduce {
            map_tasks: 1,
            map_work: SimDuration::from_secs(1),
            reduce_tasks: 0,
            reduce_work: SimDuration::ZERO,
            nb_vms: 1,
            slots_per_vm: 1,
        };
        assert!(matches!(
            s.submit(mr, t(0)),
            Err(FrameworkError::WrongJobType { .. })
        ));
    }

    #[test]
    fn multi_vm_job_takes_lowest_ids() {
        let mut s = sched();
        for i in 0..4 {
            s.add_slave(vid(i), 1.0, false).unwrap();
        }
        s.submit(batch(100, 3), t(0)).unwrap();
        let d = s.try_dispatch(t(0));
        assert_eq!(d[0].vms, vec![vid(0), vid(1), vid(2)]);
        assert_eq!(s.idle_slaves(), vec![vid(3)]);
    }

    #[test]
    fn estimate_exec_for_quoting() {
        let s = sched();
        let est = s
            .estimate_exec(&batch(1550, 1), 1, 1550.0 / 1670.0, true)
            .unwrap();
        assert_eq!(est, SimDuration::from_secs(1670));
    }

    #[test]
    fn running_jobs_listing() {
        let mut s = sched();
        s.add_slave(vid(0), 1.0, false).unwrap();
        s.add_slave(vid(1), 1.0, false).unwrap();
        let a = s.submit(batch(100, 1), t(0)).unwrap();
        let b = s.submit(batch(100, 1), t(0)).unwrap();
        s.try_dispatch(t(0));
        let running: Vec<JobId> = s.running_jobs().iter().map(|j| j.id).collect();
        assert_eq!(running, vec![a, b]);
    }
}

#[cfg(test)]
mod hold_tests {
    use super::*;

    // Re-exported helpers are private to the sibling module; rebuild the
    // tiny fixtures here.
    struct TestModel;
    impl ExecModel for TestModel {
        fn expected_type(&self) -> &'static str {
            "batch"
        }
        fn exec_time(
            &self,
            spec: &JobSpec,
            slaves: SlaveSet,
        ) -> Result<meryn_sim::SimDuration, crate::error::FrameworkError> {
            match spec {
                JobSpec::Batch { work, scaling, .. } => {
                    Ok(crate::perf::batch_exec_time(*work, *scaling, slaves))
                }
                other => Err(crate::error::FrameworkError::WrongJobType {
                    expected: "batch",
                    got: other.type_name(),
                }),
            }
        }
    }

    fn vid(n: u64) -> meryn_vmm::VmId {
        meryn_vmm::VmId::new(meryn_vmm::HostTag::PRIVATE, n)
    }
    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }
    fn batch(work: u64) -> JobSpec {
        JobSpec::Batch {
            work: meryn_sim::SimDuration::from_secs(work),
            nb_vms: 1,
            scaling: crate::perf::ScalingLaw::Fixed,
        }
    }

    #[test]
    fn held_job_does_not_redispatch_until_requeued() {
        let mut s = DedicatedScheduler::new(TestModel);
        s.add_slave(vid(0), 1.0, false).unwrap();
        let j = s.submit(batch(100), t(0)).unwrap();
        s.try_dispatch(t(0));
        let freed = s.suspend_and_hold(j, t(40)).unwrap();
        assert_eq!(freed, vec![vid(0)]);
        assert_eq!(s.held_jobs(), vec![j]);
        // The slave is idle, but the held job must not restart.
        assert!(s.try_dispatch(t(41)).is_empty());
        s.requeue_held(j).unwrap();
        let d = s.try_dispatch(t(50));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].job, j);
        assert_eq!(d[0].exec_total, meryn_sim::SimDuration::from_secs(60));
        assert!(s.held_jobs().is_empty());
    }

    #[test]
    fn requeue_unheld_job_errors() {
        let mut s = DedicatedScheduler::new(TestModel);
        let err = s.requeue_held(JobId(9)).unwrap_err();
        assert_eq!(err, crate::error::FrameworkError::UnknownJob(JobId(9)));
    }

    #[test]
    fn held_job_jumps_queue_on_requeue() {
        let mut s = DedicatedScheduler::new(TestModel);
        s.add_slave(vid(0), 1.0, false).unwrap();
        let a = s.submit(batch(100), t(0)).unwrap();
        let b = s.submit(batch(100), t(0)).unwrap();
        s.try_dispatch(t(0)); // a running, b queued
        s.suspend_and_hold(a, t(10)).unwrap();
        // b gets the slave in the meantime.
        let d = s.try_dispatch(t(10));
        assert_eq!(d[0].job, b);
        // When a is requeued it goes to the FRONT.
        s.requeue_held(a).unwrap();
        let done = s.on_finished(b, d[0].epoch, d[0].finish_at).unwrap();
        assert!(done.is_some());
        let d2 = s.try_dispatch(d[0].finish_at);
        assert_eq!(d2[0].job, a);
    }
}

#[cfg(test)]
mod withdraw_tests {
    use super::*;
    use crate::perf::ScalingLaw;

    struct TestModel;
    impl ExecModel for TestModel {
        fn expected_type(&self) -> &'static str {
            "batch"
        }
        fn exec_time(
            &self,
            spec: &JobSpec,
            slaves: SlaveSet,
        ) -> Result<SimDuration, FrameworkError> {
            match spec {
                JobSpec::Batch { work, scaling, .. } => {
                    Ok(crate::perf::batch_exec_time(*work, *scaling, slaves))
                }
                other => Err(FrameworkError::WrongJobType {
                    expected: "batch",
                    got: other.type_name(),
                }),
            }
        }
    }

    fn vid(n: u64) -> VmId {
        VmId::new(meryn_vmm::HostTag::PRIVATE, n)
    }
    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }
    fn batch(work: u64) -> JobSpec {
        JobSpec::Batch {
            work: SimDuration::from_secs(work),
            nb_vms: 1,
            scaling: ScalingLaw::Fixed,
        }
    }

    #[test]
    fn withdraw_removes_only_queued_jobs() {
        let mut s = DedicatedScheduler::new(TestModel);
        s.add_slave(vid(0), 1.0, false).unwrap();
        let running = s.submit(batch(100), t(0)).unwrap();
        s.try_dispatch(t(0));
        let queued = s.submit(batch(100), t(0)).unwrap();
        // Running job is not in the queue → withdraw fails.
        assert!(s.withdraw(running).is_err());
        assert!(s.withdraw(queued).is_ok());
        assert_eq!(s.queued_count(), 0);
        // Double withdraw fails.
        assert!(s.withdraw(queued).is_err());
    }

    #[test]
    fn resubmit_withdrawn_requeues_at_back() {
        let mut s = DedicatedScheduler::new(TestModel);
        let a = s.submit(batch(100), t(0)).unwrap();
        let b = s.submit(batch(100), t(0)).unwrap();
        s.withdraw(a).unwrap();
        s.resubmit_withdrawn(a).unwrap();
        // Order is now [b, a].
        s.add_slave(vid(0), 1.0, false).unwrap();
        let d = s.try_dispatch(t(0));
        assert_eq!(d[0].job, b);
    }

    #[test]
    fn start_withdrawn_pinned_runs_on_given_slaves() {
        let mut s = DedicatedScheduler::new(TestModel);
        s.add_slave(vid(0), 1.0, false).unwrap();
        s.add_slave(vid(1), 0.5, true).unwrap();
        let hog = s.submit(batch(1000), t(0)).unwrap();
        s.try_dispatch(t(0)); // hog takes vid(0)
        let waiting = s.submit(batch(100), t(0)).unwrap();
        s.withdraw(waiting).unwrap();
        let d = s.start_withdrawn_pinned(waiting, &[vid(1)], t(10)).unwrap();
        assert_eq!(d.vms, vec![vid(1)]);
        // Remote half-speed slave: 200 s.
        assert_eq!(d.exec_total, SimDuration::from_secs(200));
        let _ = hog;
    }

    #[test]
    fn start_withdrawn_pinned_rejects_busy_or_running() {
        let mut s = DedicatedScheduler::new(TestModel);
        s.add_slave(vid(0), 1.0, false).unwrap();
        let running = s.submit(batch(1000), t(0)).unwrap();
        s.try_dispatch(t(0));
        // Running job cannot be pin-started again.
        assert!(matches!(
            s.start_withdrawn_pinned(running, &[vid(0)], t(1)),
            Err(FrameworkError::NotRunning(_))
        ));
        // A queued job cannot start on a busy slave.
        let queued = s.submit(batch(10), t(0)).unwrap();
        s.withdraw(queued).unwrap();
        assert!(matches!(
            s.start_withdrawn_pinned(queued, &[vid(0)], t(1)),
            Err(FrameworkError::SlaveBusy(..))
        ));
    }

    #[test]
    fn reserved_slaves_hidden_from_dispatch() {
        let mut s = DedicatedScheduler::new(TestModel);
        s.add_slave(vid(0), 1.0, false).unwrap();
        s.reserve_slave(vid(0)).unwrap();
        assert_eq!(s.idle_count(), 0);
        s.submit(batch(10), t(0)).unwrap();
        assert!(s.try_dispatch(t(0)).is_empty());
        s.unreserve_slave(vid(0)).unwrap();
        assert_eq!(s.idle_count(), 1);
        assert_eq!(s.try_dispatch(t(0)).len(), 1);
    }

    #[test]
    fn pinned_submit_claims_reserved_slave() {
        let mut s = DedicatedScheduler::new(TestModel);
        s.add_slave(vid(0), 1.0, false).unwrap();
        s.reserve_slave(vid(0)).unwrap();
        let (job, d) = s.submit_pinned(batch(50), &[vid(0)], t(0)).unwrap();
        assert_eq!(d.vms, vec![vid(0)]);
        let done = s.on_finished(job, d.epoch, d.finish_at).unwrap();
        assert!(done.is_some());
        // Reservation was consumed: the slave is plain-idle again.
        assert_eq!(s.idle_count(), 1);
    }

    #[test]
    fn cannot_reserve_busy_slave() {
        let mut s = DedicatedScheduler::new(TestModel);
        s.add_slave(vid(0), 1.0, false).unwrap();
        s.submit(batch(100), t(0)).unwrap();
        s.try_dispatch(t(0));
        assert!(matches!(
            s.reserve_slave(vid(0)),
            Err(FrameworkError::SlaveBusy(..))
        ));
    }
}
