//! The OGE-like batch framework.
//!
//! The paper's prototype uses Oracle Grid Engine 6.2u7, configured "so
//! that it attributes a number of VMs to each single application". This
//! simulated counterpart is the [`DedicatedScheduler`] with the batch
//! execution model: the scaling law at the allocation size, gated by the
//! slowest slave in the actual set.

use meryn_sim::SimDuration;
use serde::{Deserialize, Serialize};

use crate::error::FrameworkError;
use crate::job::JobSpec;
use crate::perf::{batch_exec_time, SlaveSet};
use crate::scheduler::{DedicatedScheduler, ExecModel};
use crate::traits::{delegate_framework, FrameworkKind};

/// Execution model for batch jobs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchModel;

impl ExecModel for BatchModel {
    fn expected_type(&self) -> &'static str {
        "batch"
    }

    fn exec_time(&self, spec: &JobSpec, slaves: SlaveSet) -> Result<SimDuration, FrameworkError> {
        match spec {
            JobSpec::Batch { work, scaling, .. } => Ok(batch_exec_time(*work, *scaling, slaves)),
            other => Err(FrameworkError::WrongJobType {
                expected: "batch",
                got: other.type_name(),
            }),
        }
    }
}

/// An OGE-like batch framework instance (one per batch Virtual Cluster).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchFramework {
    pub(crate) inner: DedicatedScheduler<BatchModel>,
}

impl BatchFramework {
    /// Creates a framework with strict FIFO dispatch.
    pub fn new() -> Self {
        BatchFramework {
            inner: DedicatedScheduler::new(BatchModel),
        }
    }

    /// Creates a framework with backfill enabled.
    pub fn with_backfill() -> Self {
        BatchFramework {
            inner: DedicatedScheduler::new(BatchModel).with_backfill(true),
        }
    }
}

impl Default for BatchFramework {
    fn default() -> Self {
        Self::new()
    }
}

delegate_framework!(BatchFramework, FrameworkKind::Batch, Batch);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::ScalingLaw;
    use crate::traits::Framework;
    use meryn_sim::SimTime;
    use meryn_vmm::{HostTag, VmId};

    fn vid(n: u64) -> VmId {
        VmId::new(HostTag::PRIVATE, n)
    }

    fn pascal_job() -> JobSpec {
        // The paper's Pascal example: ~1550 s on one private VM.
        JobSpec::Batch {
            work: SimDuration::from_secs(1550),
            nb_vms: 1,
            scaling: ScalingLaw::Fixed,
        }
    }

    #[test]
    fn paper_execution_times_on_private_and_cloud() {
        let mut fw = BatchFramework::new();
        fw.add_slave(vid(0), 1.0, false).unwrap();
        fw.submit(pascal_job(), SimTime::ZERO).unwrap();
        let d = fw.try_dispatch(SimTime::ZERO);
        assert_eq!(d[0].exec_total, SimDuration::from_secs(1550));

        let mut cloud_fw = BatchFramework::new();
        cloud_fw.add_slave(vid(1), 1550.0 / 1670.0, true).unwrap();
        cloud_fw.submit(pascal_job(), SimTime::ZERO).unwrap();
        let d = cloud_fw.try_dispatch(SimTime::ZERO);
        assert_eq!(d[0].exec_total, SimDuration::from_secs(1670));
    }

    #[test]
    fn kind_is_batch() {
        assert_eq!(BatchFramework::new().kind(), FrameworkKind::Batch);
    }

    #[test]
    fn rejects_mapreduce_jobs() {
        let mut fw = BatchFramework::new();
        let mr = JobSpec::MapReduce {
            map_tasks: 1,
            map_work: SimDuration::from_secs(1),
            reduce_tasks: 0,
            reduce_work: SimDuration::ZERO,
            nb_vms: 1,
            slots_per_vm: 1,
        };
        assert!(fw.submit(mr, SimTime::ZERO).is_err());
    }

    #[test]
    fn sequential_queue_drain() {
        // One slave, three jobs of 100 s: completes at 100, 200, 300.
        let mut fw = BatchFramework::new();
        fw.add_slave(vid(0), 1.0, false).unwrap();
        let spec = JobSpec::Batch {
            work: SimDuration::from_secs(100),
            nb_vms: 1,
            scaling: ScalingLaw::Fixed,
        };
        for _ in 0..3 {
            fw.submit(spec, SimTime::ZERO).unwrap();
        }
        let mut now = SimTime::ZERO;
        let mut completions = Vec::new();
        let mut pending = fw.try_dispatch(now);
        while let Some(d) = pending.pop() {
            now = d.finish_at;
            let done = fw.on_finished(d.job, d.epoch, now).unwrap().unwrap();
            completions.push((done.job, now));
            pending.extend(fw.try_dispatch(now));
        }
        assert_eq!(completions.len(), 3);
        assert_eq!(completions[2].1, SimTime::from_secs(300));
    }

    #[test]
    fn default_constructor() {
        let fw = BatchFramework::default();
        assert_eq!(fw.slave_count(), 0);
        assert_eq!(fw.queued_count(), 0);
    }

    #[test]
    fn snapshot_round_trips_mid_run() {
        let mut fw = BatchFramework::new();
        fw.add_slave(vid(0), 1.0, false).unwrap();
        fw.add_slave(vid(1), 1.0, false).unwrap();
        let a = fw.submit(pascal_job(), SimTime::ZERO).unwrap();
        fw.submit(pascal_job(), SimTime::ZERO).unwrap();
        let d = fw.try_dispatch(SimTime::ZERO);
        assert_eq!(d.len(), 2);

        let snap = fw.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let restored: crate::traits::FrameworkSnapshot = serde_json::from_str(&json).unwrap();
        let mut back = restored.into_framework();
        assert_eq!(back.kind(), FrameworkKind::Batch);
        assert_eq!(back.slave_count(), 2);
        assert_eq!(back.running_jobs().len(), 2);

        // The restored master behaves like the original: completing job
        // `a` with its live epoch frees its slave.
        let epoch = d.iter().find(|x| x.job == a).unwrap().epoch;
        let done = back.on_finished(a, epoch, d[0].finish_at).unwrap().unwrap();
        assert_eq!(done.job, a);
        assert_eq!(back.idle_count(), 1);
    }

    #[test]
    fn retire_forgets_only_done_jobs() {
        let mut fw = BatchFramework::new();
        fw.add_slave(vid(0), 1.0, false).unwrap();
        let j = fw.submit(pascal_job(), SimTime::ZERO).unwrap();
        let d = fw.try_dispatch(SimTime::ZERO);
        // Still running: refuse.
        assert!(fw.retire_job(j).is_err());
        fw.on_finished(j, d[0].epoch, d[0].finish_at).unwrap();
        fw.retire_job(j).unwrap();
        assert!(fw.job(j).is_none());
        // Already gone: unknown.
        assert!(fw.retire_job(j).is_err());
    }
}
