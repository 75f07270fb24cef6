//! The shared fabric: everything exactly-one-of in the platform.
//!
//! Private pool, public clouds, billing ledger, the used-VM metrics
//! and the Client-Manager front-end queue. Shards never
//! touch any of it directly — they emit [`Effect`]s, and the fabric
//! consumes them one at a time on the executor's thread, in canonical
//! `(due, vc_id, seq)` order. That single-threaded, canonically-ordered
//! consumption is what keeps the RNG streams (pool stop/boot, cloud
//! provision/release draws) and the ledger deterministic no matter how
//! the emitting shards were scheduled.

use meryn_sim::metrics::StepSeries;
use meryn_sim::{SimDuration, SimTime};
use meryn_sla::Money;
use meryn_vmm::{Ledger, PrivatePool, PublicCloud};
use serde::{Deserialize, Serialize};

use crate::engine::effects::{Effect, EffectKey};
use crate::events::Event;

/// The platform's shared, singleton state.
///
/// Serializable as a whole: a checkpoint captures the pool and cloud
/// states (including their RNG stream positions), the ledger, the usage
/// metrics and the front-end queue, so a restored run observes the
/// exact fabric the interrupted one would have.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SharedFabric {
    /// The provider-owned VM pool.
    pub pool: PrivatePool,
    /// The public cloud market.
    pub clouds: Vec<PublicCloud>,
    /// The billing ledger.
    pub ledger: Ledger,
    pub(crate) cloud_bill: Money,
    // Metrics.
    busy_private: u64,
    busy_cloud: u64,
    /// Running maxima of the busy counters. The report's peak fields
    /// come from these, so peaks survive even when curve recording is
    /// gated off. Same-instant transients are coalesced exactly like
    /// [`StepSeries::record`] coalesces them — only the *final* value
    /// of an instant is observable — via the pending `usage_*` trio.
    peak_busy_private: u64,
    peak_busy_cloud: u64,
    usage_at: SimTime,
    usage_private: u64,
    usage_cloud: u64,
    /// Whether the used-VM step curves are sampled (peaks always are).
    pub(crate) record_series: bool,
    pub(crate) used_private: StepSeries,
    pub(crate) used_cloud: StepSeries,
    pub(crate) transfers: u64,
    pub(crate) bursts: u64,
    pub(crate) suspensions: u64,
    pub(crate) escalations: u64,
    pub(crate) rejected: usize,
    // Fault-plane tallies (all zero unless a failure process is armed;
    // serialized unconditionally — checkpoints are same-version
    // artifacts, and a faults-off *report* omits them entirely).
    /// Slave VMs crashed mid-stint.
    pub(crate) vm_crashes: u64,
    /// Crash victims on the private pool (each boots a replacement).
    pub(crate) crashed_private: u64,
    /// Crash victims on cloud leases (the whole lease batch tears down).
    pub(crate) crashed_cloud: u64,
    /// Jobs whose stint was discarded and re-entered the queue.
    pub(crate) jobs_reexecuted: u64,
    /// Cloud-lease admissions refused (outage window or transient
    /// rejection), counted on the arrival and escalation paths alike.
    pub(crate) lease_rejections: u64,
    /// Backed-off escalation retries armed.
    pub(crate) lease_retries: u64,
    /// Backoff chains that ran out of budget and degraded to the
    /// private pool for good.
    pub(crate) retries_exhausted: u64,
    /// Per-Client-Manager earliest-free instants (empty = unbounded
    /// front-end concurrency).
    cm_free_at: Vec<SimTime>,
}

impl SharedFabric {
    /// Assembles the fabric around an already-deployed pool and cloud
    /// market.
    ///
    /// Public for the engine's property tests and for embedders that
    /// drive the effect stream directly; the normal path is
    /// [`crate::engine::Platform::new`].
    pub fn new(
        pool: PrivatePool,
        clouds: Vec<PublicCloud>,
        client_managers: Option<usize>,
    ) -> Self {
        SharedFabric {
            pool,
            clouds,
            ledger: Ledger::new(),
            cloud_bill: Money::ZERO,
            busy_private: 0,
            busy_cloud: 0,
            peak_busy_private: 0,
            peak_busy_cloud: 0,
            usage_at: SimTime::ZERO,
            usage_private: 0,
            usage_cloud: 0,
            record_series: true,
            used_private: StepSeries::new("used_private_vms"),
            used_cloud: StepSeries::new("used_cloud_vms"),
            transfers: 0,
            bursts: 0,
            suspensions: 0,
            escalations: 0,
            rejected: 0,
            vm_crashes: 0,
            crashed_private: 0,
            crashed_cloud: 0,
            jobs_reexecuted: 0,
            lease_rejections: 0,
            lease_retries: 0,
            retries_exhausted: 0,
            cm_free_at: vec![SimTime::ZERO; client_managers.unwrap_or(0)],
        }
    }

    /// Front-end delay for one submission: the Client Manager handling
    /// time plus, when Client Managers are a bounded resource, the wait
    /// for one to become free. The busiest-period behaviour §3.2 warns
    /// about emerges when a single CM serializes a burst of arrivals.
    pub(crate) fn cm_delay(&mut self, now: SimTime, handling: SimDuration) -> SimDuration {
        if self.cm_free_at.is_empty() {
            return handling; // unbounded front end
        }
        let idx = self
            .cm_free_at
            .iter()
            .enumerate()
            .min_by_key(|&(_, &t)| t)
            .map(|(i, _)| i)
            .expect("at least one Client Manager");
        let start = self.cm_free_at[idx].max_of(now);
        let done = start + handling;
        self.cm_free_at[idx] = done;
        done.since(now)
    }

    fn record_usage(&mut self, now: SimTime) {
        // Commit the previous instant's *final* values into the peaks
        // before observing a new instant; a same-instant re-record
        // overwrites the pending observation instead, exactly like the
        // step series coalesces same-instant samples.
        if now > self.usage_at {
            self.peak_busy_private = self.peak_busy_private.max(self.usage_private);
            self.peak_busy_cloud = self.peak_busy_cloud.max(self.usage_cloud);
            self.usage_at = now;
        }
        self.usage_private = self.busy_private;
        self.usage_cloud = self.busy_cloud;
        if self.record_series {
            self.used_private.record(now, self.busy_private as f64);
            self.used_cloud.record(now, self.busy_cloud as f64);
        }
    }

    /// Peak busy counters with the still-pending last observation
    /// folded in (the report's Fig 5 headline numbers).
    pub(crate) fn peaks(&self) -> (u64, u64) {
        (
            self.peak_busy_private.max(self.usage_private),
            self.peak_busy_cloud.max(self.usage_cloud),
        )
    }

    /// Applies one fabric-directed effect at its canonical `key` (the
    /// instant `key.due`, emitted by shard `key.vc`), appending any
    /// follow-up events to schedule onto `out`.
    ///
    /// [`Effect::Escalate`], [`Effect::TransferStopped`] and
    /// [`Effect::ReturnStopped`] are *not* handled here — acting on
    /// them reads shard state or schedules onto shard queues with pool
    /// draws interleaved, so the executor owns them.
    pub fn apply(&mut self, key: EffectKey, effect: Effect, out: &mut Vec<(SimTime, Event)>) {
        let now = key.due;
        match effect {
            Effect::Charge {
                vm,
                location,
                from,
                rate,
            } => {
                self.ledger.charge(vm, location, from, now, rate);
            }
            Effect::Usage {
                private_delta,
                cloud_delta,
            } => {
                self.busy_private = self
                    .busy_private
                    .checked_add_signed(private_delta)
                    .expect("busy private VMs never go negative");
                self.busy_cloud = self
                    .busy_cloud
                    .checked_add_signed(cloud_delta)
                    .expect("busy cloud VMs never go negative");
                self.record_usage(now);
            }
            Effect::Schedule { due, event } => out.push((due, event)),
            Effect::ReleaseCloud { cloud, vms } => {
                // The batch closes when its slowest release does.
                let mut done = SimDuration::ZERO;
                for vm in &vms {
                    let rel = self.clouds[cloud.0 as usize]
                        .begin_release(*vm, now)
                        .expect("leased VM can release");
                    done = done.max_of(rel);
                }
                out.push((
                    now + done,
                    Event::CloudReleased {
                        vc: key.vc,
                        cloud,
                        vms,
                    },
                ));
            }
            Effect::CloseLeases { cloud, vms } => {
                for vm in vms {
                    let close = self.clouds[cloud.0 as usize]
                        .complete_release(vm, now)
                        .unwrap_or_else(|e| unreachable!("released lease closes: {e:?}"));
                    self.cloud_bill += close.cost;
                }
            }
            Effect::ReturnVms { src, victim, vms } => {
                let mut done = SimDuration::ZERO;
                for vm in &vms {
                    let stop = self
                        .pool
                        .begin_stop(*vm, now)
                        .expect("borrowed private VM can stop");
                    done = done.max_of(stop);
                }
                out.push((now + done, Event::ReturnStopsDone { src, victim, vms }));
            }
            Effect::CompleteStarts { vms } => {
                for vm in vms {
                    self.pool
                        .complete_start(vm, now)
                        .expect("booted VM completes start");
                }
            }
            Effect::CompleteLeases { cloud, vms } => {
                for vm in vms {
                    self.clouds[cloud.0 as usize]
                        .complete_lease(vm, now)
                        .expect("lease completes");
                }
            }
            Effect::Escalate { .. } | Effect::TransferStopped { .. } | Effect::Retire { .. } => {
                unreachable!(
                    "escalations, transfer batches and retirements are applied by the executor"
                )
            }
            Effect::ReturnStopped { .. } => {
                unreachable!("return batches are applied by the executor")
            }
            Effect::VmCrashed { .. } => {
                unreachable!("crash recovery is applied by the executor")
            }
            Effect::Place { .. } | Effect::Rejected => {
                unreachable!("admission outcomes are applied by the executor")
            }
        }
    }

    /// Current usage counters (used by the executor's debug assertions
    /// and the engine tests).
    pub fn busy(&self) -> (u64, u64) {
        (self.busy_private, self.busy_cloud)
    }

    /// Audits the fabric's conservation invariants: the pool and every
    /// cloud list live VMs only (each holds resources) within their
    /// capacity or quota, and the busy counters (VMs doing work) can't
    /// exceed the VMs holding resources. Meant for quiescent points —
    /// after a restore, between runs, after a run drains — where any
    /// violation means a state-machine or snapshot bug, not a
    /// transient.
    pub fn audit_invariants(&self) -> Result<(), String> {
        self.pool.audit()?;
        for cloud in &self.clouds {
            cloud.audit()?;
        }
        let pool_active = self.pool.active_count();
        if self.busy_private > pool_active {
            return Err(format!(
                "busy private counter desynced: {} busy vs {pool_active} active in the pool",
                self.busy_private
            ));
        }
        let cloud_active: u64 = self.clouds.iter().map(PublicCloud::active_count).sum();
        if self.busy_cloud > cloud_active {
            return Err(format!(
                "busy cloud counter desynced: {} busy vs {cloud_active} active across clouds",
                self.busy_cloud
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EventOwner;
    use crate::ids::VcId;
    use meryn_sim::SimRng;
    use meryn_sla::VmRate;
    use meryn_vmm::{CloudId, ImageId, LatencyModel, PriceModel, VmSpec};

    fn key(due: SimTime, vc: usize) -> EffectKey {
        EffectKey {
            due,
            seq: 0,
            vc: VcId(vc),
        }
    }

    #[test]
    fn release_then_close_bills_the_leases_and_frees_the_cloud() {
        let pool = PrivatePool::with_vm_capacity(
            1,
            VmSpec::EC2_MEDIUM_LIKE,
            LatencyModel::uniform_secs(20, 30),
            LatencyModel::uniform_secs(5, 10),
            1.0,
            SimRng::new(1),
        );
        let mut cloud = PublicCloud::new(
            CloudId(0),
            "edel",
            PriceModel::Static(VmRate::per_vm_second(4)),
            LatencyModel::uniform_secs(40, 60),
            LatencyModel::uniform_secs(5, 10),
            1.0,
            None,
            SimRng::new(2),
        );
        cloud.stage_image(ImageId(0));
        let leased_at = SimTime::from_secs(60);
        let mut vms = Vec::new();
        for _ in 0..2 {
            let (vm, _, _) = cloud
                .begin_lease(ImageId(0), VmSpec::EC2_MEDIUM_LIKE, SimTime::ZERO)
                .unwrap();
            cloud.complete_lease(vm, leased_at).unwrap();
            vms.push(vm);
        }
        let mut fabric = SharedFabric::new(pool, vec![cloud], None);
        let cloud = CloudId(0);

        let mut out = Vec::new();
        let release_at = SimTime::from_secs(1000);
        fabric.apply(
            key(release_at, 1),
            Effect::ReleaseCloud {
                cloud,
                vms: vms.clone(),
            },
            &mut out,
        );
        let [(due, event)] = out.as_slice() else {
            panic!("one release batch event, got {out:?}")
        };
        assert_eq!(
            *event,
            Event::CloudReleased {
                vc: VcId(1),
                cloud,
                vms: vms.clone()
            }
        );
        assert_eq!(event.owner(), EventOwner::Shard(VcId(1)));
        assert!(*due >= release_at + SimDuration::from_secs(5));
        assert_eq!(
            fabric.clouds[0].active_count(),
            2,
            "releasing VMs stay active"
        );

        let due = *due;
        out.clear();
        fabric.apply(key(due, 1), Effect::CloseLeases { cloud, vms }, &mut out);
        assert!(out.is_empty());
        assert_eq!(fabric.clouds[0].active_count(), 0);
        let per_lease = VmRate::per_vm_second(4).cost_for(due.since(leased_at));
        assert_eq!(fabric.cloud_bill, per_lease + per_lease);
        fabric.audit_invariants().unwrap();
    }
}
