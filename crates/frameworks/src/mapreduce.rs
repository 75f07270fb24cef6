//! The Hadoop-like MapReduce framework.
//!
//! The paper's prototype runs Hadoop 0.20.2 as the second application
//! type. The simulated counterpart executes a job as synchronous map
//! waves followed by reduce waves over the slot capacity of its dedicated
//! slaves, with a configurable data-locality penalty on map waves that
//! span leased cloud VMs (HDFS input stays on the private side, so remote
//! mappers stream their splits over the WAN).

use meryn_sim::SimDuration;
use serde::{Deserialize, Serialize};

use crate::error::FrameworkError;
use crate::job::JobSpec;
use crate::perf::{mapreduce_exec_time, SlaveSet};
use crate::scheduler::{DedicatedScheduler, ExecModel};
use crate::traits::{delegate_framework, FrameworkKind};

/// Execution model for MapReduce jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MapReduceModel {
    /// Extra map-phase time, in percent, when *all* slaves are remote;
    /// scaled by the remote fraction otherwise.
    pub locality_penalty_pct: u32,
}

impl Default for MapReduceModel {
    fn default() -> Self {
        MapReduceModel {
            locality_penalty_pct: 30,
        }
    }
}

impl ExecModel for MapReduceModel {
    fn expected_type(&self) -> &'static str {
        "mapreduce"
    }

    fn exec_time(&self, spec: &JobSpec, slaves: SlaveSet) -> Result<SimDuration, FrameworkError> {
        match *spec {
            JobSpec::MapReduce {
                map_tasks,
                map_work,
                reduce_tasks,
                reduce_work,
                slots_per_vm,
                ..
            } => Ok(mapreduce_exec_time(
                map_tasks,
                map_work,
                reduce_tasks,
                reduce_work,
                slaves,
                slots_per_vm,
                self.locality_penalty_pct,
            )),
            ref other => Err(FrameworkError::WrongJobType {
                expected: "mapreduce",
                got: other.type_name(),
            }),
        }
    }
}

/// A Hadoop-like framework instance (one per MapReduce Virtual Cluster).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MapReduceFramework {
    pub(crate) inner: DedicatedScheduler<MapReduceModel>,
}

impl MapReduceFramework {
    /// Creates a framework with the default 30% full-remote locality
    /// penalty.
    pub fn new() -> Self {
        Self::with_locality_penalty(30)
    }

    /// Creates a framework with an explicit locality penalty.
    pub fn with_locality_penalty(pct: u32) -> Self {
        MapReduceFramework {
            inner: DedicatedScheduler::new(MapReduceModel {
                locality_penalty_pct: pct,
            }),
        }
    }
}

impl Default for MapReduceFramework {
    fn default() -> Self {
        Self::new()
    }
}

delegate_framework!(MapReduceFramework, FrameworkKind::MapReduce, MapReduce);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::Framework;
    use meryn_sim::SimTime;
    use meryn_vmm::{HostTag, VmId};

    fn vid(n: u64) -> VmId {
        VmId::new(HostTag::PRIVATE, n)
    }

    fn wordcount(nb_vms: u64) -> JobSpec {
        JobSpec::MapReduce {
            map_tasks: 16,
            map_work: SimDuration::from_secs(30),
            reduce_tasks: 4,
            reduce_work: SimDuration::from_secs(60),
            nb_vms,
            slots_per_vm: 2,
        }
    }

    #[test]
    fn dispatch_computes_wave_time() {
        let mut fw = MapReduceFramework::new();
        for i in 0..4 {
            fw.add_slave(vid(i), 1.0, false).unwrap();
        }
        fw.submit(wordcount(4), SimTime::ZERO).unwrap();
        let d = fw.try_dispatch(SimTime::ZERO);
        // 8 slots: 16 maps → 2 waves × 30 = 60; 4 reduces → 1 wave × 60.
        assert_eq!(d[0].exec_total, SimDuration::from_secs(120));
    }

    #[test]
    fn remote_slaves_slow_the_map_phase() {
        let mut local = MapReduceFramework::with_locality_penalty(50);
        let mut burst = MapReduceFramework::with_locality_penalty(50);
        for i in 0..2 {
            local.add_slave(vid(i), 1.0, false).unwrap();
            burst.add_slave(vid(10 + i), 1.0, true).unwrap();
        }
        local.submit(wordcount(2), SimTime::ZERO).unwrap();
        burst.submit(wordcount(2), SimTime::ZERO).unwrap();
        let dl = local.try_dispatch(SimTime::ZERO)[0].exec_total;
        let db = burst.try_dispatch(SimTime::ZERO)[0].exec_total;
        assert!(db > dl, "bursted job {db} should be slower than local {dl}");
    }

    #[test]
    fn kind_is_mapreduce() {
        assert_eq!(MapReduceFramework::new().kind(), FrameworkKind::MapReduce);
    }

    #[test]
    fn rejects_batch_jobs() {
        let mut fw = MapReduceFramework::new();
        let batch = JobSpec::Batch {
            work: SimDuration::from_secs(1),
            nb_vms: 1,
            scaling: crate::perf::ScalingLaw::Fixed,
        };
        assert!(fw.submit(batch, SimTime::ZERO).is_err());
    }

    #[test]
    fn estimate_matches_dispatch_on_uniform_slaves() {
        let mut fw = MapReduceFramework::new();
        for i in 0..4 {
            fw.add_slave(vid(i), 1.0, false).unwrap();
        }
        let spec = wordcount(4);
        let est = fw.estimate_exec(&spec, 4, 1.0, false).unwrap();
        fw.submit(spec, SimTime::ZERO).unwrap();
        let d = fw.try_dispatch(SimTime::ZERO);
        assert_eq!(est, d[0].exec_total);
    }

    #[test]
    fn suspension_and_resume_preserve_progress() {
        let mut fw = MapReduceFramework::new();
        for i in 0..2 {
            fw.add_slave(vid(i), 1.0, false).unwrap();
        }
        let spec = wordcount(2); // 4 slots: 4 map waves ×30 + 1 reduce wave ×60 = 180 s
        let j = fw.submit(spec, SimTime::ZERO).unwrap();
        fw.try_dispatch(SimTime::ZERO);
        fw.suspend(j, SimTime::from_secs(90)).unwrap(); // half done
        let d = fw.try_dispatch(SimTime::from_secs(200));
        assert_eq!(d[0].exec_total, SimDuration::from_secs(90));
    }
}
