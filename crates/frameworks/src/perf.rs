//! Execution-time models.
//!
//! The paper assumes "the batch Cluster Manager may deduce the application
//! execution time based on its dedicated number of VMs and vice versa" —
//! i.e. each framework owns a performance model. These models back both
//! dispatch-time completion prediction and SLA quoting.

use meryn_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// How a batch job's execution time scales with its VM allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScalingLaw {
    /// `exec = work / k` — embarrassingly parallel.
    Linear,
    /// Amdahl's law with the given serial percentage:
    /// `exec = work × (serial + (1 − serial)/k)`.
    Amdahl {
        /// Serial fraction in percent (0–100).
        serial_pct: u32,
    },
    /// `exec = work` regardless of allocation — a rigid job that cannot
    /// use more than its natural parallelism (the paper's evaluation jobs
    /// run on exactly one VM, where every law degenerates to this).
    Fixed,
}

impl ScalingLaw {
    /// Execution time for `work` (reference-VM seconds) on `k` VMs of
    /// reference speed.
    pub fn exec_time(&self, work: SimDuration, k: u64) -> SimDuration {
        let k = k.max(1);
        match *self {
            ScalingLaw::Linear => work / k,
            ScalingLaw::Amdahl { serial_pct } => {
                let s = f64::from(serial_pct.min(100)) / 100.0;
                work.scale(s + (1.0 - s) / k as f64)
            }
            ScalingLaw::Fixed => work,
        }
    }
}

/// A slave set as the execution models see it: its size, its slowest
/// member and how many members are remote. Nothing else about the set
/// changes a prediction, so a stint's set is summarized as it is
/// chosen instead of being listed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlaveSet {
    /// Slaves in the set.
    pub count: u64,
    /// Relative CPU speed of the slowest slave (1.0 = reference): the
    /// slowest member gates a tightly coupled job (BSP semantics).
    /// Infinite for the empty set, the identity of the min fold.
    pub slowest: f64,
    /// Slaves remote to the data (leased cloud VMs).
    pub remote: u64,
}

impl SlaveSet {
    /// The set with no slaves, which [`SlaveSet::with`] grows.
    pub const EMPTY: SlaveSet = SlaveSet {
        count: 0,
        slowest: f64::INFINITY,
        remote: 0,
    };

    /// The set grown by one slave of `speed`.
    pub fn with(self, speed: f64, remote: bool) -> SlaveSet {
        SlaveSet {
            count: self.count + 1,
            slowest: self.slowest.min(speed),
            remote: self.remote + u64::from(remote),
        }
    }

    /// `k` identical slaves of `speed` — the quoting shape.
    pub fn uniform(k: u64, speed: f64, remote: bool) -> SlaveSet {
        (0..k).fold(SlaveSet::EMPTY, |set, _| set.with(speed, remote))
    }
}

/// Execution time of a batch stint: the scaling law at the allocation
/// size, slowed by the gating member of the actual slave set.
pub fn batch_exec_time(work: SimDuration, scaling: ScalingLaw, slaves: SlaveSet) -> SimDuration {
    assert!(slaves.count > 0, "batch job dispatched on zero VMs");
    let base = scaling.exec_time(work, slaves.count);
    base.scale(1.0 / slaves.slowest)
}

/// Execution time of a MapReduce job on a slave set: map waves then
/// reduce waves over the total slot count, gated by the slowest slave,
/// with a locality penalty on the map phase when the set spans remote
/// (cloud) slaves that must pull input over the WAN.
pub fn mapreduce_exec_time(
    map_tasks: u32,
    map_work: SimDuration,
    reduce_tasks: u32,
    reduce_work: SimDuration,
    slaves: SlaveSet,
    slots_per_vm: u32,
    locality_penalty_pct: u32,
) -> SimDuration {
    assert!(slaves.count > 0, "MapReduce job dispatched on zero VMs");
    assert!(slots_per_vm > 0, "slots_per_vm must be positive");
    let slots = slaves.count * u64::from(slots_per_vm);
    let map_waves = u64::from(map_tasks).div_ceil(slots);
    let reduce_waves = u64::from(reduce_tasks).div_ceil(slots);
    let speed = slaves.slowest;
    let mut map_phase = (map_work * map_waves).scale(1.0 / speed);
    if slaves.remote > 0 {
        // Remote slaves lose data locality: scale the map phase by the
        // fraction of remote VMs times the locality slowdown.
        let remote_frac = slaves.remote as f64 / slaves.count as f64;
        let slowdown = 1.0 + remote_frac * f64::from(locality_penalty_pct) / 100.0;
        map_phase = map_phase.scale(slowdown);
    }
    let reduce_phase = (reduce_work * reduce_waves).scale(1.0 / speed);
    map_phase + reduce_phase
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn linear_scaling_divides() {
        assert_eq!(ScalingLaw::Linear.exec_time(d(1200), 4), d(300));
        assert_eq!(ScalingLaw::Linear.exec_time(d(1200), 1), d(1200));
    }

    #[test]
    fn amdahl_flattens() {
        let law = ScalingLaw::Amdahl { serial_pct: 50 };
        // 50% serial: 2 VMs → 0.5 + 0.25 = 0.75×.
        assert_eq!(law.exec_time(d(1000), 2), d(750));
        // Infinite VMs would floor at 500; 100 VMs is already close.
        assert_eq!(law.exec_time(d(1000), 100), d(505));
    }

    #[test]
    fn fixed_ignores_allocation() {
        assert_eq!(ScalingLaw::Fixed.exec_time(d(1550), 10), d(1550));
    }

    #[test]
    fn zero_vms_clamps_to_one() {
        assert_eq!(ScalingLaw::Linear.exec_time(d(100), 0), d(100));
    }

    fn speeds(speeds: &[f64]) -> SlaveSet {
        speeds
            .iter()
            .fold(SlaveSet::EMPTY, |set, &s| set.with(s, false))
    }

    #[test]
    fn effective_speed_is_min() {
        let set = speeds(&[1.0, 0.928, 1.2]);
        assert_eq!((set.count, set.slowest, set.remote), (3, 0.928, 0));
        assert_eq!(SlaveSet::uniform(4, 0.5, true).remote, 4);
        assert_eq!(SlaveSet::uniform(0, 0.5, true), SlaveSet::EMPTY);
    }

    #[test]
    fn batch_exec_reproduces_paper_cloud_slowdown() {
        // Private: 1550 s at speed 1.0. Cloud: same work at speed
        // 1550/1670 ≈ 0.9281 → 1670 s.
        let work = d(1550);
        assert_eq!(
            batch_exec_time(work, ScalingLaw::Fixed, speeds(&[1.0])),
            d(1550)
        );
        let cloud = batch_exec_time(work, ScalingLaw::Fixed, speeds(&[1550.0 / 1670.0]));
        assert_eq!(cloud, d(1670));
    }

    #[test]
    fn batch_exec_gated_by_slowest() {
        let work = d(1000);
        let mixed = batch_exec_time(work, ScalingLaw::Linear, speeds(&[1.0, 0.5]));
        // 2 VMs linear → 500 s of reference work, gated at 0.5 → 1000 s.
        assert_eq!(mixed, d(1000));
    }

    #[test]
    #[should_panic(expected = "zero VMs")]
    fn batch_exec_empty_panics() {
        batch_exec_time(d(1), ScalingLaw::Linear, SlaveSet::EMPTY);
    }

    #[test]
    fn mapreduce_waves() {
        // 10 maps on 2 VMs × 2 slots = 4 slots → 3 waves × 30 s = 90 s;
        // 2 reduces → 1 wave × 60 s. Total 150 s.
        let t = mapreduce_exec_time(10, d(30), 2, d(60), speeds(&[1.0, 1.0]), 2, 50);
        assert_eq!(t, d(150));
    }

    #[test]
    fn mapreduce_locality_penalty_applies_to_maps_only() {
        // Same job, both VMs remote, 50% penalty: maps 90 → 135 s.
        let remote = SlaveSet::uniform(2, 1.0, true);
        let t = mapreduce_exec_time(10, d(30), 2, d(60), remote, 2, 50);
        assert_eq!(t, d(195));
        // Half remote: penalty 25% → maps 112.5 s.
        let half = SlaveSet::EMPTY.with(1.0, true).with(1.0, false);
        let t2 = mapreduce_exec_time(10, d(30), 2, d(60), half, 2, 50);
        assert_eq!(t2, SimDuration::from_millis(172_500));
    }

    #[test]
    fn mapreduce_more_vms_fewer_waves() {
        let small = mapreduce_exec_time(16, d(30), 0, d(0), speeds(&[1.0; 2]), 2, 0);
        let large = mapreduce_exec_time(16, d(30), 0, d(0), speeds(&[1.0; 8]), 2, 0);
        assert!(large < small);
        assert_eq!(large, d(30)); // one wave
        assert_eq!(small, d(120)); // four waves
    }
}
