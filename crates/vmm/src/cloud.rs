//! Public IaaS clouds.
//!
//! The resource selection protocol "requests a set of public clouds their
//! current market VM prices and gets the cheapest cloud VM price" (§4.1),
//! then leases VMs from the winner. A [`PublicCloud`] quotes a
//! time-dependent price, enforces image pre-staging (§3.5) and drives
//! leased-VM lifecycles. It holds live leases only: a lease leaves the
//! cloud when its release completes or its VM crashes, and the
//! [`LeaseClose`] it returns is the lease's last trace. The evaluation
//! "assumes that the VM hosting capacity in the public cloud is
//! infinite"; a quota is still available for ablations.

use std::collections::btree_map::Entry;
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

/// One live lease: the leased VM, the rate locked when the lease began
/// and the instant it became billable (provisioning completed).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Lease {
    vm: Vm,
    rate: VmRate,
    billable_from: Option<SimTime>,
}

impl Lease {
    /// Closes the lease at `now`: billed from the instant it became
    /// billable at its locked rate, or free if it never did (a crash
    /// while provisioning; a release always follows provisioning,
    /// because only a running VM can begin stopping).
    fn close(self, now: SimTime) -> LeaseClose {
        let running_for = self
            .billable_from
            .map_or(SimDuration::ZERO, |from| now.since(from));
        LeaseClose {
            vm: self.vm.id,
            running_for,
            rate: self.rate,
            cost: self.rate.cost_for(running_for),
        }
    }
}

/// A public IaaS cloud.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PublicCloud {
    /// This cloud's id.
    pub id: CloudId,
    name: String,
    tag: HostTag,
    /// Live leases (starting, running or stopping VMs); the map's
    /// length is the active count.
    leases: BTreeMap<VmId, Lease>,
    serial: u64,
    price: PriceModel,
    provision: LatencyModel,
    stop: LatencyModel,
    speed: f64,
    quota: Option<u64>,
    staged: BTreeSet<ImageId>,
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
            leases: BTreeMap::new(),
            serial: 0,
            price,
            provision,
            stop,
            speed,
            quota,
            staged: BTreeSet::new(),
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

    /// VMs currently holding resources here: the live leases.
    pub fn active_count(&self) -> u64 {
        self.leases.len() as u64
    }

    /// VMs currently usable.
    pub fn running_count(&self) -> u64 {
        self.vms().filter(|v| v.is_running()).count() as u64
    }

    /// Looks a leased VM up: `None` once its lease has closed, and for
    /// ids never issued.
    pub fn vm(&self, id: VmId) -> Option<&Vm> {
        self.leases.get(&id).map(|l| &l.vm)
    }

    /// Iterates over the VMs of the live leases in id order.
    pub fn vms(&self) -> impl Iterator<Item = &Vm> {
        self.leases.values().map(|l| &l.vm)
    }

    /// Checks the cloud's conservation invariants: every listed VM
    /// holds resources and the live leases fit the quota. Meant for
    /// quiescent points — after a restore, between runs — so a
    /// checkpoint/restore test can audit a restored cloud in release
    /// builds too.
    pub fn audit(&self) -> Result<(), String> {
        if let Some(vm) = self.vms().find(|v| !v.state().holds_resources()) {
            return Err(format!(
                "cloud {} lists {:?}, which holds no resources",
                self.name, vm.id
            ));
        }
        if let Some(q) = self.quota {
            let active = self.active_count();
            if active > q {
                return Err(format!(
                    "cloud {} over quota: {active} active VMs on a quota of {q}",
                    self.name
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
        let rate = self.price.rate_at(now);
        self.leases.insert(
            id,
            Lease {
                vm,
                rate,
                billable_from: None,
            },
        );
        Ok((id, self.provision.sample(&mut self.rng), rate))
    }

    /// Completes provisioning; the VM is usable (and billable) from `now`.
    pub fn complete_lease(&mut self, id: VmId, now: SimTime) -> Result<(), VmmError> {
        let lease = self.leases.get_mut(&id).ok_or(VmmError::UnknownVm(id))?;
        lease.vm.complete_start(now)?;
        lease.billable_from = Some(now);
        Ok(())
    }

    /// Begins releasing a leased VM; returns the stop duration.
    pub fn begin_release(&mut self, id: VmId, now: SimTime) -> Result<SimDuration, VmmError> {
        self.leases
            .get_mut(&id)
            .ok_or(VmmError::UnknownVm(id))?
            .vm
            .begin_stop(now)?;
        Ok(self.stop.sample(&mut self.rng))
    }

    /// Completes a release and closes the lease, returning what it cost;
    /// the lease leaves the cloud.
    pub fn complete_release(&mut self, id: VmId, now: SimTime) -> Result<LeaseClose, VmmError> {
        self.close_lease(id, now, |vm| vm.complete_stop(now))
    }

    /// Crashes a leased VM at `now`, force-closing its lease: no
    /// `Stopping` interval, no stop-latency draw, billed through the
    /// crash instant at the locked rate. A lease crashed while still
    /// provisioning never became billable and closes at zero cost. The
    /// lease leaves the cloud exactly as on release, so
    /// [`PublicCloud::audit`] holds across crashes.
    pub fn crash_lease(&mut self, id: VmId, now: SimTime) -> Result<LeaseClose, VmmError> {
        self.close_lease(id, now, |vm| vm.crash(now))
    }

    /// Applies a terminating transition to a live lease's VM and, if it
    /// succeeds, removes the lease and closes it at `now`. A refused
    /// transition leaves the lease where it was.
    fn close_lease(
        &mut self,
        id: VmId,
        now: SimTime,
        transition: impl FnOnce(&mut Vm) -> Result<(), VmmError>,
    ) -> Result<LeaseClose, VmmError> {
        let Entry::Occupied(mut entry) = self.leases.entry(id) else {
            return Err(VmmError::UnknownVm(id));
        };
        transition(&mut entry.get_mut().vm)?;
        Ok(entry.remove().close(now))
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
        c.audit().expect("crash keeps the cloud conserved");
        // Crashing again (or releasing) a dead lease fails.
        assert_eq!(
            c.crash_lease(id, SimTime::from_secs(351)),
            Err(VmmError::UnknownVm(id))
        );
        assert_eq!(
            c.begin_release(id, SimTime::from_secs(351)),
            Err(VmmError::UnknownVm(id))
        );
    }

    #[test]
    fn closed_leases_leave_the_cloud() {
        let mut c = cloud(None);
        let lease = |c: &mut PublicCloud| {
            let (id, _, _) = c
                .begin_lease(ImageId(0), VmSpec::EC2_MEDIUM_LIKE, SimTime::ZERO)
                .unwrap();
            c.complete_lease(id, SimTime::from_secs(50)).unwrap();
            id
        };
        let released = lease(&mut c);
        let crashed = lease(&mut c);
        let kept = lease(&mut c);
        assert_eq!(c.active_count(), 3);
        assert_eq!(c.active_count(), c.vms().count() as u64);

        let stop = c.begin_release(released, SimTime::from_secs(100)).unwrap();
        c.complete_release(released, SimTime::from_secs(100) + stop)
            .unwrap();
        c.crash_lease(crashed, SimTime::from_secs(120)).unwrap();

        // Both closed leases are gone, locked rate and start instant
        // with them; the open one is untouched.
        assert!(c.vm(released).is_none() && c.vm(crashed).is_none());
        assert_eq!(c.leases.keys().copied().collect::<Vec<_>>(), vec![kept]);
        assert_eq!(c.active_count(), 1);
        assert_eq!(c.active_count(), c.vms().count() as u64);
        assert_eq!(
            c.complete_release(released, SimTime::from_secs(200)),
            Err(VmmError::UnknownVm(released))
        );
        assert_eq!(
            c.crash_lease(crashed, SimTime::from_secs(200)),
            Err(VmmError::UnknownVm(crashed))
        );
        c.audit().unwrap();
    }

    #[test]
    fn refused_close_keeps_the_lease() {
        let mut c = cloud(None);
        let (id, _, rate) = c
            .begin_lease(ImageId(0), VmSpec::EC2_MEDIUM_LIKE, SimTime::ZERO)
            .unwrap();
        c.complete_lease(id, SimTime::from_secs(50)).unwrap();
        // A running lease must begin releasing before its release
        // completes.
        assert!(matches!(
            c.complete_release(id, SimTime::from_secs(60)),
            Err(VmmError::InvalidTransition { .. })
        ));
        assert!(c.vm(id).unwrap().is_running());
        // The lease still bills from its original start.
        let close = c.crash_lease(id, SimTime::from_secs(150)).unwrap();
        assert_eq!(close.cost, rate.cost_for(SimDuration::from_secs(100)));
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
