//! Public IaaS clouds.
//!
//! The resource selection protocol "requests a set of public clouds their
//! current market VM prices and gets the cheapest cloud VM price" (§4.1),
//! then leases VMs from the winner. A [`PublicCloud`] quotes a
//! time-dependent price, enforces image pre-staging (§3.5) and drives
//! leased-VM lifecycles. The evaluation "assumes that the VM hosting
//! capacity in the public cloud is infinite"; a quota is still available
//! for ablations.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use meryn_sim::{SimDuration, SimRng, SimTime};
use meryn_sla::{Money, VmRate};
use serde::{Deserialize, Serialize};

use crate::error::VmmError;
use crate::image::ImageId;
use crate::latency::LatencyModel;
use crate::spec::{HostTag, Location, VmId, VmSpec};
use crate::vm::Vm;

/// Identifier of a public cloud.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CloudId(pub u16);

/// How a cloud prices its VMs over time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PriceModel {
    /// Constant price (the evaluation: cloud VM cost fixed at 4 units
    /// versus 2 private).
    Static(VmRate),
    /// Sinusoidal day/night price swing around `base`:
    /// `base × (1 + amplitude_pct/100 × sin(2πt/period))`.
    Diurnal {
        /// Mid price.
        base: VmRate,
        /// Peak deviation in percent of `base`.
        amplitude_pct: u32,
        /// Length of one full cycle.
        period: SimDuration,
    },
    /// Piecewise-constant schedule: `(from, rate)` change points, sorted
    /// by time; the first entry's rate also applies before its instant.
    Schedule(Vec<(SimTime, VmRate)>),
}

impl PriceModel {
    /// The market price at instant `t`.
    pub fn rate_at(&self, t: SimTime) -> VmRate {
        match self {
            PriceModel::Static(r) => *r,
            PriceModel::Diurnal {
                base,
                amplitude_pct,
                period,
            } => {
                let phase = (t.as_millis() % period.as_millis().max(1)) as f64
                    / period.as_millis().max(1) as f64;
                let swing = (*amplitude_pct as f64 / 100.0) * (std::f64::consts::TAU * phase).sin();
                base.scale(1.0 + swing)
            }
            PriceModel::Schedule(points) => {
                assert!(!points.is_empty(), "empty price schedule");
                let mut rate = points[0].1;
                for &(from, r) in points {
                    if from <= t {
                        rate = r;
                    } else {
                        break;
                    }
                }
                rate
            }
        }
    }

    /// Scales the whole price curve by `factor` — every variant, not
    /// just the static rate (price-ratio sweeps rely on this).
    pub fn scaled(self, factor: f64) -> Self {
        match self {
            PriceModel::Static(r) => PriceModel::Static(r.scale(factor)),
            PriceModel::Diurnal {
                base,
                amplitude_pct,
                period,
            } => PriceModel::Diurnal {
                base: base.scale(factor),
                amplitude_pct,
                period,
            },
            PriceModel::Schedule(points) => PriceModel::Schedule(
                points
                    .into_iter()
                    .map(|(from, r)| (from, r.scale(factor)))
                    .collect(),
            ),
        }
    }
}

/// The outcome of releasing a cloud VM: what the lease cost.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LeaseClose {
    /// The VM released.
    pub vm: VmId,
    /// How long it was usable (running) — the paper charges by execution
    /// time rather than per started hour.
    pub running_for: SimDuration,
    /// The rate locked when the lease began.
    pub rate: VmRate,
    /// `running_for × rate`.
    pub cost: Money,
}

/// A public IaaS cloud.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PublicCloud {
    /// This cloud's id.
    pub id: CloudId,
    name: String,
    tag: HostTag,
    vms: BTreeMap<VmId, Vm>,
    lease_rates: BTreeMap<VmId, VmRate>,
    lease_started: BTreeMap<VmId, SimTime>,
    serial: u64,
    price: PriceModel,
    provision: LatencyModel,
    stop: LatencyModel,
    speed: f64,
    quota: Option<u64>,
    staged: BTreeSet<ImageId>,
    /// Leases currently holding resources; maintained as a counter
    /// because `vms` is append-only history and `can_lease` runs on the
    /// placement hot path for every arrival. No serde default: a
    /// snapshot missing the field must fail loudly, not desync.
    active: u64,
    /// Serialized with the cloud so a restored checkpoint resumes its
    /// latency stream exactly where the snapshot left it.
    rng: SimRng,
    /// Scheduled whole-cloud outage windows `[from, to)`, sorted by
    /// start. Inside a window every lease attempt returns
    /// [`VmmError::Unavailable`]; existing leases keep running (the
    /// fault plane models control-plane outages, not data-plane loss).
    outages: Vec<(SimTime, SimTime)>,
    /// Probability that one admission attempt is transiently rejected.
    rejection_prob: f64,
    /// How long a transient rejection blacks the cloud out.
    rejection_duration: SimDuration,
    /// End of the current transient-rejection window, if one is open.
    rejected_until: Option<SimTime>,
    /// Dedicated fault stream (forked from the latency stream at
    /// construction): rejection draws never perturb provisioning
    /// latencies, so a fault-free run is byte-identical to one where
    /// `rejection_prob == 0`.
    fault_rng: SimRng,
}

impl PublicCloud {
    /// Creates a cloud. `speed` is the relative CPU speed of its VMs
    /// (the evaluation's edel cloud runs the reference app ~7.7% slower
    /// than the private parapluie nodes). `quota` of `None` means the
    /// paper's "infinite" capacity.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: CloudId,
        name: impl Into<String>,
        price: PriceModel,
        provision: LatencyModel,
        stop: LatencyModel,
        speed: f64,
        quota: Option<u64>,
        rng: SimRng,
    ) -> Self {
        assert!(speed > 0.0, "cloud speed factor must be positive");
        let fault_rng = rng.fork(0xFA17);
        PublicCloud {
            id,
            name: name.into(),
            // Host tags 1.. belong to clouds (0 is the private pool).
            tag: HostTag(id.0 + 1),
            vms: BTreeMap::new(),
            lease_rates: BTreeMap::new(),
            lease_started: BTreeMap::new(),
            serial: 0,
            price,
            provision,
            stop,
            speed,
            quota,
            staged: BTreeSet::new(),
            active: 0,
            rng,
            outages: Vec::new(),
            rejection_prob: 0.0,
            rejection_duration: SimDuration::ZERO,
            rejected_until: None,
            fault_rng,
        }
    }

    /// Arms the fault plane on this cloud: scheduled outage windows and
    /// a per-admission transient-rejection process. With an empty window
    /// list and `rejection_prob == 0.0` (the default) the cloud behaves
    /// exactly as before — no draws, no rejections.
    pub fn with_faults(
        mut self,
        outages: Vec<(SimTime, SimTime)>,
        rejection_prob: f64,
        rejection_duration: SimDuration,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&rejection_prob),
            "rejection_prob must be a probability"
        );
        self.outages = outages;
        self.rejection_prob = rejection_prob;
        self.rejection_duration = rejection_duration;
        self
    }

    /// The cloud's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The cloud's relative CPU speed factor.
    pub fn speed(&self) -> f64 {
        self.speed
    }

    /// Current market price per VM-second.
    pub fn price_at(&self, now: SimTime) -> VmRate {
        self.price.rate_at(now)
    }

    /// Pre-stages a framework disk image (§3.5 does this "before adding
    /// cloud VMs to VCs").
    pub fn stage_image(&mut self, image: ImageId) {
        self.staged.insert(image);
    }

    /// True if `image` has been staged here.
    pub fn has_image(&self, image: ImageId) -> bool {
        self.staged.contains(&image)
    }

    /// True when the cloud can lease `n` more VMs under its quota.
    /// Capacity only — availability (outages, open rejection windows)
    /// is [`PublicCloud::check_available`], so callers can tell "full"
    /// from "down".
    pub fn can_lease(&self, n: u64) -> bool {
        match self.quota {
            None => true,
            Some(q) => self.active_count() + n <= q,
        }
    }

    /// Checks the cloud's control plane at `now`: `Err(Unavailable)`
    /// inside a scheduled outage window or an open transient-rejection
    /// window. Deterministic — no draws.
    pub fn check_available(&self, now: SimTime) -> Result<(), VmmError> {
        for &(from, to) in &self.outages {
            if from <= now && now < to {
                return Err(VmmError::Unavailable {
                    until_secs: Some(to.as_secs()),
                });
            }
        }
        if let Some(until) = self.rejected_until {
            if now < until {
                return Err(VmmError::Unavailable {
                    until_secs: Some(until.as_secs()),
                });
            }
        }
        Ok(())
    }

    /// One admission attempt against the fault plane: hard
    /// unavailability first ([`PublicCloud::check_available`]), then —
    /// only when a rejection process is armed — a transient-rejection
    /// draw from the dedicated fault stream. A hit opens a rejection
    /// window of `rejection_duration` and returns `Unavailable`.
    /// With faults unarmed this is draw-free and always `Ok`.
    pub fn admit_lease(&mut self, now: SimTime) -> Result<(), VmmError> {
        self.check_available(now)?;
        if self.rejection_prob > 0.0 && self.fault_rng.chance(self.rejection_prob) {
            let until = now + self.rejection_duration;
            self.rejected_until = Some(until);
            return Err(VmmError::Unavailable {
                until_secs: Some(until.as_secs()),
            });
        }
        Ok(())
    }

    /// VMs currently holding resources here.
    pub fn active_count(&self) -> u64 {
        debug_assert_eq!(
            self.active,
            self.vms
                .values()
                .filter(|v| v.state().holds_resources())
                .count() as u64,
            "active counter out of sync"
        );
        self.active
    }

    /// VMs currently usable.
    pub fn running_count(&self) -> u64 {
        self.vms.values().filter(|v| v.is_running()).count() as u64
    }

    /// Looks a VM up.
    pub fn vm(&self, id: VmId) -> Option<&Vm> {
        self.vms.get(&id)
    }

    /// Iterates over all leased VMs (released included) in id order.
    pub fn vms(&self) -> impl Iterator<Item = &Vm> {
        self.vms.values()
    }

    /// Recounts the `active` counter against actual VM states and the
    /// lease quota. [`PublicCloud::active_count`] runs the same recount
    /// as a `debug_assert` on the hot path; this promotes it to a
    /// `Result` so checkpoint/restore tests can audit a restored cloud
    /// in release builds too.
    pub fn audit(&self) -> Result<(), String> {
        let counted = self
            .vms
            .values()
            .filter(|v| v.state().holds_resources())
            .count() as u64;
        if counted != self.active {
            return Err(format!(
                "cloud {} active counter desynced: counter {} vs {counted} VMs holding resources",
                self.name, self.active
            ));
        }
        if let Some(q) = self.quota {
            if self.active > q {
                return Err(format!(
                    "cloud {} over quota: {} active VMs on a quota of {q}",
                    self.name, self.active
                ));
            }
        }
        Ok(())
    }

    /// Begins leasing a VM from `image`, locking the current market rate
    /// for the lease. Returns the id, the provisioning duration and the
    /// locked rate.
    pub fn begin_lease(
        &mut self,
        image: ImageId,
        spec: VmSpec,
        now: SimTime,
    ) -> Result<(VmId, SimDuration, VmRate), VmmError> {
        if !self.staged.contains(&image) {
            return Err(VmmError::ImageNotStaged(image));
        }
        self.check_available(now)?;
        if let Some(q) = self.quota {
            if self.active_count() >= q {
                return Err(VmmError::CapacityExhausted { capacity: q });
            }
        }
        let id = VmId::new(self.tag, self.serial);
        self.serial += 1;
        let vm = Vm::starting(
            id,
            spec,
            image,
            Location::Cloud(self.id),
            None,
            self.speed,
            now,
        );
        self.vms.insert(id, vm);
        self.active += 1;
        let rate = self.price.rate_at(now);
        self.lease_rates.insert(id, rate);
        Ok((id, self.provision.sample(&mut self.rng), rate))
    }

    /// Completes provisioning; the VM is usable (and billable) from `now`.
    pub fn complete_lease(&mut self, id: VmId, now: SimTime) -> Result<(), VmmError> {
        self.vms
            .get_mut(&id)
            .ok_or(VmmError::UnknownVm(id))?
            .complete_start(now)?;
        self.lease_started.insert(id, now);
        Ok(())
    }

    /// Begins releasing a leased VM; returns the stop duration.
    pub fn begin_release(&mut self, id: VmId, now: SimTime) -> Result<SimDuration, VmmError> {
        self.vms
            .get_mut(&id)
            .ok_or(VmmError::UnknownVm(id))?
            .begin_stop(now)?;
        Ok(self.stop.sample(&mut self.rng))
    }

    /// Completes a release and closes the lease, returning what it cost.
    pub fn complete_release(&mut self, id: VmId, now: SimTime) -> Result<LeaseClose, VmmError> {
        let vm = self.vms.get_mut(&id).ok_or(VmmError::UnknownVm(id))?;
        vm.complete_stop(now)?;
        self.active -= 1;
        let rate = self
            .lease_rates
            .remove(&id)
            .expect("leased VM must have a locked rate");
        let started = self
            .lease_started
            .remove(&id)
            .expect("released VM must have completed provisioning");
        let running_for = now.since(started);
        Ok(LeaseClose {
            vm: id,
            running_for,
            rate,
            cost: rate.cost_for(running_for),
        })
    }

    /// Crashes a leased VM at `now`, force-closing its lease: no
    /// `Stopping` interval, no stop-latency draw, billed through the
    /// crash instant at the locked rate. A lease crashed while still
    /// provisioning never became billable and closes at zero cost. The
    /// `active` counter stays conserved ([`PublicCloud::audit`] holds).
    pub fn crash_lease(&mut self, id: VmId, now: SimTime) -> Result<LeaseClose, VmmError> {
        let vm = self.vms.get_mut(&id).ok_or(VmmError::UnknownVm(id))?;
        vm.crash(now)?;
        self.active -= 1;
        let rate = self
            .lease_rates
            .remove(&id)
            .expect("leased VM must have a locked rate");
        // Crashed before provisioning completed → never billable.
        let running_for = match self.lease_started.remove(&id) {
            Some(started) => now.since(started),
            None => SimDuration::ZERO,
        };
        Ok(LeaseClose {
            vm: id,
            running_for,
            rate,
            cost: rate.cost_for(running_for),
        })
    }
}

impl fmt::Display for PublicCloud {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (cloud{})", self.name, self.id.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cloud(quota: Option<u64>) -> PublicCloud {
        let mut c = PublicCloud::new(
            CloudId(0),
            "edel",
            PriceModel::Static(VmRate::per_vm_second(4)),
            LatencyModel::uniform_secs(40, 60),
            LatencyModel::uniform_secs(5, 10),
            0.928,
            quota,
            SimRng::new(7),
        );
        c.stage_image(ImageId(0));
        c
    }

    #[test]
    fn lease_requires_staged_image() {
        let mut c = cloud(None);
        let err = c
            .begin_lease(ImageId(9), VmSpec::EC2_MEDIUM_LIKE, SimTime::ZERO)
            .unwrap_err();
        assert_eq!(err, VmmError::ImageNotStaged(ImageId(9)));
        assert!(c.has_image(ImageId(0)));
        assert!(!c.has_image(ImageId(9)));
    }

    #[test]
    fn lease_lifecycle_and_billing() {
        let mut c = cloud(None);
        let (id, prov, rate) = c
            .begin_lease(ImageId(0), VmSpec::EC2_MEDIUM_LIKE, SimTime::ZERO)
            .unwrap();
        assert_eq!(rate, VmRate::per_vm_second(4));
        assert!(prov >= SimDuration::from_secs(40) && prov <= SimDuration::from_secs(60));
        c.complete_lease(id, SimTime::from_secs(50)).unwrap();
        assert_eq!(c.running_count(), 1);
        let stop = c.begin_release(id, SimTime::from_secs(1720)).unwrap();
        let close = c
            .complete_release(id, SimTime::from_secs(1720) + stop)
            .unwrap();
        // Charged for running time only: 1670 s at 4 u/s … plus the stop
        // tail, since the VM ran until release completed.
        let expected = VmRate::per_vm_second(4).cost_for(SimDuration::from_secs(1670) + stop);
        assert_eq!(close.cost, expected);
        assert_eq!(c.active_count(), 0);
    }

    #[test]
    fn infinite_quota_allows_many() {
        let mut c = cloud(None);
        for _ in 0..100 {
            c.begin_lease(ImageId(0), VmSpec::EC2_MEDIUM_LIKE, SimTime::ZERO)
                .unwrap();
        }
        assert_eq!(c.active_count(), 100);
    }

    #[test]
    fn quota_is_enforced() {
        let mut c = cloud(Some(2));
        c.begin_lease(ImageId(0), VmSpec::EC2_MEDIUM_LIKE, SimTime::ZERO)
            .unwrap();
        c.begin_lease(ImageId(0), VmSpec::EC2_MEDIUM_LIKE, SimTime::ZERO)
            .unwrap();
        let err = c
            .begin_lease(ImageId(0), VmSpec::EC2_MEDIUM_LIKE, SimTime::ZERO)
            .unwrap_err();
        assert_eq!(err, VmmError::CapacityExhausted { capacity: 2 });
    }

    #[test]
    fn cloud_vm_ids_use_cloud_tag() {
        let mut c = cloud(None);
        let (id, _, _) = c
            .begin_lease(ImageId(0), VmSpec::EC2_MEDIUM_LIKE, SimTime::ZERO)
            .unwrap();
        assert_eq!(id.host(), HostTag(1));
        assert_eq!(c.vm(id).unwrap().location, Location::Cloud(CloudId(0)));
        assert_eq!(c.vms().map(|v| v.id).collect::<Vec<_>>(), vec![id]);
    }

    #[test]
    fn outage_window_returns_unavailable_not_capacity() {
        let mut c = cloud(None).with_faults(
            vec![(SimTime::from_secs(100), SimTime::from_secs(200))],
            0.0,
            SimDuration::ZERO,
        );
        // Before the window: fine.
        c.begin_lease(ImageId(0), VmSpec::EC2_MEDIUM_LIKE, SimTime::from_secs(50))
            .unwrap();
        // Inside: Unavailable naming the window end, never CapacityExhausted.
        let err = c
            .begin_lease(ImageId(0), VmSpec::EC2_MEDIUM_LIKE, SimTime::from_secs(150))
            .unwrap_err();
        assert_eq!(
            err,
            VmmError::Unavailable {
                until_secs: Some(200)
            }
        );
        assert!(c.can_lease(1), "capacity is a separate question");
        // At the (half-open) window end: fine again.
        c.begin_lease(ImageId(0), VmSpec::EC2_MEDIUM_LIKE, SimTime::from_secs(200))
            .unwrap();
    }

    #[test]
    fn transient_rejection_opens_a_window_then_heals() {
        let mut c = cloud(None).with_faults(vec![], 1.0, SimDuration::from_secs(30));
        let err = c.admit_lease(SimTime::from_secs(10)).unwrap_err();
        assert_eq!(
            err,
            VmmError::Unavailable {
                until_secs: Some(40)
            }
        );
        // The open window rejects deterministically (no further draws).
        assert!(c.check_available(SimTime::from_secs(39)).is_err());
        assert!(c.check_available(SimTime::from_secs(40)).is_ok());
        // Zero probability never rejects and never draws.
        let mut quiet = cloud(None).with_faults(vec![], 0.0, SimDuration::from_secs(30));
        for t in 0..50 {
            quiet.admit_lease(SimTime::from_secs(t)).unwrap();
        }
    }

    #[test]
    fn crash_lease_bills_through_the_crash_instant() {
        let mut c = cloud(None);
        let (id, _, rate) = c
            .begin_lease(ImageId(0), VmSpec::EC2_MEDIUM_LIKE, SimTime::ZERO)
            .unwrap();
        c.complete_lease(id, SimTime::from_secs(50)).unwrap();
        let close = c.crash_lease(id, SimTime::from_secs(350)).unwrap();
        assert_eq!(close.running_for, SimDuration::from_secs(300));
        assert_eq!(close.cost, rate.cost_for(SimDuration::from_secs(300)));
        assert_eq!(c.active_count(), 0);
        c.audit().expect("crash keeps the active counter conserved");
        // Crashing again (or releasing) a dead lease fails.
        assert!(c.crash_lease(id, SimTime::from_secs(351)).is_err());
        assert!(c.begin_release(id, SimTime::from_secs(351)).is_err());
    }

    #[test]
    fn crash_lease_while_provisioning_is_free() {
        let mut c = cloud(None);
        let (id, _, _) = c
            .begin_lease(ImageId(0), VmSpec::EC2_MEDIUM_LIKE, SimTime::ZERO)
            .unwrap();
        let close = c.crash_lease(id, SimTime::from_secs(10)).unwrap();
        assert_eq!(close.cost, Money::ZERO);
        c.audit().unwrap();
    }

    #[test]
    fn static_price_model() {
        let m = PriceModel::Static(VmRate::per_vm_second(4));
        assert_eq!(m.rate_at(SimTime::ZERO), VmRate::per_vm_second(4));
        assert_eq!(
            m.rate_at(SimTime::from_secs(9999)),
            VmRate::per_vm_second(4)
        );
    }

    #[test]
    fn diurnal_price_swings_around_base() {
        let m = PriceModel::Diurnal {
            base: VmRate::per_vm_second(4),
            amplitude_pct: 50,
            period: SimDuration::from_secs(86_400),
        };
        let base = VmRate::per_vm_second(4);
        // Quarter period: peak.
        let peak = m.rate_at(SimTime::from_secs(21_600));
        assert!(peak > base, "peak {peak} should exceed base");
        // Three-quarter period: trough.
        let trough = m.rate_at(SimTime::from_secs(64_800));
        assert!(trough < base, "trough {trough} should undercut base");
        // Start of cycle: at base.
        assert_eq!(m.rate_at(SimTime::ZERO), base);
    }

    #[test]
    fn schedule_price_steps() {
        let m = PriceModel::Schedule(vec![
            (SimTime::ZERO, VmRate::per_vm_second(4)),
            (SimTime::from_secs(100), VmRate::per_vm_second(6)),
        ]);
        assert_eq!(m.rate_at(SimTime::from_secs(50)), VmRate::per_vm_second(4));
        assert_eq!(m.rate_at(SimTime::from_secs(100)), VmRate::per_vm_second(6));
        assert_eq!(m.rate_at(SimTime::from_secs(500)), VmRate::per_vm_second(6));
    }

    #[test]
    fn lease_locks_rate_at_begin() {
        let mut c = PublicCloud::new(
            CloudId(1),
            "spot",
            PriceModel::Schedule(vec![
                (SimTime::ZERO, VmRate::per_vm_second(4)),
                (SimTime::from_secs(10), VmRate::per_vm_second(8)),
            ]),
            LatencyModel::ZERO,
            LatencyModel::ZERO,
            1.0,
            None,
            SimRng::new(1),
        );
        c.stage_image(ImageId(0));
        let (id, _, rate) = c
            .begin_lease(ImageId(0), VmSpec::EC2_MEDIUM_LIKE, SimTime::ZERO)
            .unwrap();
        assert_eq!(rate, VmRate::per_vm_second(4));
        c.complete_lease(id, SimTime::ZERO).unwrap();
        c.begin_release(id, SimTime::from_secs(100)).unwrap();
        let close = c.complete_release(id, SimTime::from_secs(100)).unwrap();
        // Billed at the locked 4 u/s, not the later 8 u/s.
        assert_eq!(close.cost, Money::from_units(400));
    }
}
