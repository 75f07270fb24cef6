//! The Cluster Manager: per-VC state and SLA quoting.
//!
//! Each Virtual Cluster is "managed by a specific programming framework"
//! and fronted by a Cluster Manager whose *generic* part decides when to
//! scale (that logic lives in [`crate::protocol`]) and whose
//! *framework-specific* part proposes SLAs from the framework's
//! performance model — implemented here as [`VcQuoter`].

use meryn_frameworks::{Framework, FrameworkKind, FrameworkSnapshot, JobId, JobSpec};
use meryn_sim::{DetHashMap, SimDuration};
use meryn_sla::negotiation::{Quote, Quoter};
use meryn_sla::pricing::PricingParams;
use meryn_sla::{Money, VmRate};
use meryn_vmm::{ImageId, Location, VmId};
use serde::{Deserialize, Serialize};

use crate::ids::{AppId, VcId};

/// A read-only window onto one VC shard: the cluster and the
/// applications it hosts.
///
/// This is the *shard context* the scheduling entry points
/// ([`crate::client_manager::admit`], [`crate::protocol::select_resources`],
/// [`crate::policy::PlacementContext`]) receive instead of whole-platform
/// borrows: each shard owns its `VirtualCluster` and its application map,
/// and a decision that spans shards (routing, bidding) sees exactly one
/// view per shard, in `VcId` order.
#[derive(Clone, Copy)]
pub struct VcView<'a> {
    /// The shard's cluster (framework, slaves, pricing).
    pub vc: &'a VirtualCluster,
    /// The applications hosted by this shard, by id.
    pub apps: &'a crate::app::AppMap,
}

/// Billing metadata the VC keeps for each of its slave VMs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlaveMeta {
    /// Where the VM runs.
    pub location: Location,
    /// What one second of it costs the provider.
    pub cost_rate: VmRate,
}

/// One Virtual Cluster: a framework master plus its slave bookkeeping.
pub struct VirtualCluster {
    /// The VC's id.
    pub id: VcId,
    /// Display name.
    pub name: String,
    /// Hosted application type.
    pub kind: FrameworkKind,
    /// The framework disk image slaves boot from.
    pub image: ImageId,
    /// The framework master daemon (simulated).
    pub framework: Box<dyn Framework>,
    /// VMs promised to applications still in their processing pipeline;
    /// subtracted from availability so concurrent arrivals cannot claim
    /// the same idle slave twice.
    pub reserved: u64,
    /// Framework job → platform application mapping.
    pub job_to_app: DetHashMap<JobId, AppId>,
    /// Billing metadata per slave.
    pub slave_meta: DetHashMap<VmId, SlaveMeta>,
    /// Pricing regime this VC signs contracts under.
    pub pricing: PricingParams,
}

impl std::fmt::Debug for VirtualCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VirtualCluster")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("kind", &self.kind)
            .field("slaves", &self.framework.slave_count())
            .field("idle", &self.framework.idle_count())
            .field("reserved", &self.reserved)
            .finish()
    }
}

impl VirtualCluster {
    /// Creates a VC around a framework master.
    pub fn new(
        id: VcId,
        name: impl Into<String>,
        kind: FrameworkKind,
        image: ImageId,
        framework: Box<dyn Framework>,
        pricing: PricingParams,
    ) -> Self {
        VirtualCluster {
            id,
            name: name.into(),
            kind,
            image,
            framework,
            reserved: 0,
            job_to_app: DetHashMap::default(),
            slave_meta: DetHashMap::default(),
            pricing,
        }
    }

    /// Idle slaves not yet promised to an in-flight submission — the
    /// "local available VMs" Algorithm 1 checks first.
    pub fn available(&self) -> u64 {
        self.framework.idle_count().saturating_sub(self.reserved)
    }

    /// Registers a slave with both the framework and the billing map.
    pub fn add_slave(
        &mut self,
        vm: VmId,
        speed: f64,
        location: Location,
        cost_rate: VmRate,
    ) -> Result<(), meryn_frameworks::FrameworkError> {
        self.framework
            .add_slave(vm, speed, !location.is_private())?;
        self.slave_meta.insert(
            vm,
            SlaveMeta {
                location,
                cost_rate,
            },
        );
        Ok(())
    }

    /// Unregisters a slave from both maps.
    pub fn remove_slave(
        &mut self,
        vm: VmId,
    ) -> Result<SlaveMeta, meryn_frameworks::FrameworkError> {
        self.framework.remove_slave(vm)?;
        Ok(self
            .slave_meta
            .remove(&vm)
            .expect("slave meta tracked for every framework slave"))
    }

    /// The application behind a framework job.
    pub fn app_of(&self, job: JobId) -> AppId {
        *self
            .job_to_app
            .get(&job)
            .expect("every framework job belongs to an application")
    }

    /// Captures the cluster's full state for a checkpoint. The
    /// framework master — a trait object — serializes through its
    /// concrete-typed [`FrameworkSnapshot`].
    pub fn snapshot(&self) -> VcSnapshot {
        VcSnapshot {
            id: self.id,
            name: self.name.clone(),
            kind: self.kind,
            image: self.image,
            framework: self.framework.snapshot(),
            reserved: self.reserved,
            job_to_app: self.job_to_app.clone(),
            slave_meta: self.slave_meta.clone(),
            pricing: self.pricing,
        }
    }
}

/// A [`VirtualCluster`]'s serializable state (checkpoint form): the
/// trait-object framework master is captured as a concrete-typed
/// [`FrameworkSnapshot`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VcSnapshot {
    /// The VC's id.
    pub id: VcId,
    /// Display name.
    pub name: String,
    /// Hosted application type.
    pub kind: FrameworkKind,
    /// The framework disk image slaves boot from.
    pub image: ImageId,
    /// The framework master's full state.
    pub framework: FrameworkSnapshot,
    /// VMs promised to in-flight submissions.
    pub reserved: u64,
    /// Framework job → platform application mapping.
    pub job_to_app: DetHashMap<JobId, AppId>,
    /// Billing metadata per slave.
    pub slave_meta: DetHashMap<VmId, SlaveMeta>,
    /// Pricing regime.
    pub pricing: PricingParams,
}

impl VcSnapshot {
    /// Rebuilds the live cluster this snapshot was taken from.
    pub fn into_cluster(self) -> VirtualCluster {
        VirtualCluster {
            id: self.id,
            name: self.name,
            kind: self.kind,
            image: self.image,
            framework: self.framework.into_framework(),
            reserved: self.reserved,
            job_to_app: self.job_to_app,
            slave_meta: self.slave_meta,
            pricing: self.pricing,
        }
    }
}

/// The framework-specific SLA quoting front end (§3.2: the Cluster
/// Manager part that "consists in proposing SLAs and negotiating them
/// with users").
///
/// Quotes are conservative: execution time is estimated at
/// `quote_speed` (the slowest hardware the app might land on — the paper
/// quotes with the measured *cloud* execution time) and the deadline
/// adds the worst-case processing allowance.
pub struct VcQuoter<'a> {
    /// The framework whose performance model prices the quotes.
    pub framework: &'a dyn Framework,
    /// The application description being negotiated.
    pub spec: JobSpec,
    /// Pricing regime.
    pub pricing: PricingParams,
    /// Conservative speed for execution-time estimates.
    pub quote_speed: f64,
    /// Worst-case submission processing time added to deadlines (eq. 1).
    pub allowance: SimDuration,
    /// Largest VM allocation the VC will offer.
    pub max_vms: u64,
}

impl VcQuoter<'_> {
    /// Candidate allocations: the user's requested size and power-of-two
    /// multiples of it, capped at `max_vms` (the requested size is
    /// always offered).
    fn allocation_options(&self) -> impl Iterator<Item = u64> {
        let base = self.spec.nb_vms().max(1);
        let cap = self.max_vms.max(base);
        [1u64, 2, 4]
            .into_iter()
            .map(move |m| base * m)
            .filter(move |&k| k <= cap)
    }

    /// One quote per candidate allocation the model can price.
    fn quotes(&self) -> impl Iterator<Item = Quote> + '_ {
        self.allocation_options().filter_map(|k| self.quote_for(k))
    }

    fn quote_for(&self, k: u64) -> Option<Quote> {
        let spec = self.spec.with_nb_vms(k);
        let exec = self
            .framework
            .estimate_exec(&spec, k, self.quote_speed, true)
            .ok()?;
        Some(Quote {
            deadline: self.pricing.deadline(exec, self.allowance),
            price: self.pricing.price(exec, k),
            nb_vms: k,
        })
    }
}

impl Quoter for VcQuoter<'_> {
    fn proposals(&self) -> Vec<Quote> {
        self.quotes().collect()
    }

    fn quote_for_deadline(&self, deadline: SimDuration) -> Option<Quote> {
        let best = self
            .quotes()
            .filter(|q| q.deadline <= deadline)
            .min_by_key(|q| q.price)?;
        // The user granted us until `deadline`; sign the slack into the
        // contract rather than promising tighter than asked.
        Some(Quote { deadline, ..best })
    }

    fn quote_for_price(&self, price: Money) -> Option<Quote> {
        self.quotes()
            .filter(|q| q.price <= price)
            .min_by_key(|q| q.deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meryn_frameworks::{BatchFramework, ScalingLaw};
    use meryn_sim::SimTime;
    use meryn_vmm::HostTag;

    fn vc() -> VirtualCluster {
        VirtualCluster::new(
            VcId(0),
            "VC1",
            FrameworkKind::Batch,
            ImageId(0),
            Box::new(BatchFramework::new()),
            PricingParams::new(VmRate::per_vm_second(4), 1),
        )
    }

    fn vid(n: u64) -> VmId {
        VmId::new(HostTag::PRIVATE, n)
    }

    #[test]
    fn availability_subtracts_reservations() {
        let mut vc = vc();
        for i in 0..3 {
            vc.add_slave(vid(i), 1.0, Location::Private, VmRate::per_vm_second(2))
                .unwrap();
        }
        assert_eq!(vc.available(), 3);
        vc.reserved = 2;
        assert_eq!(vc.available(), 1);
        vc.reserved = 5;
        assert_eq!(vc.available(), 0, "must saturate, not underflow");
    }

    #[test]
    fn add_remove_slave_keeps_meta_in_sync() {
        let mut vc = vc();
        vc.add_slave(vid(0), 1.0, Location::Private, VmRate::per_vm_second(2))
            .unwrap();
        assert!(vc.framework.has_slave(vid(0)));
        let meta = vc.remove_slave(vid(0)).unwrap();
        assert_eq!(meta.cost_rate, VmRate::per_vm_second(2));
        assert!(!vc.framework.has_slave(vid(0)));
        assert!(vc.slave_meta.is_empty());
    }

    fn quoter_for(vc: &VirtualCluster, spec: JobSpec) -> VcQuoter<'_> {
        VcQuoter {
            framework: vc.framework.as_ref(),
            spec,
            pricing: vc.pricing,
            quote_speed: 1550.0 / 1670.0,
            allowance: SimDuration::from_secs(84),
            max_vms: 25,
        }
    }

    #[test]
    fn pascal_quote_matches_paper_deadline_and_price() {
        let vc = vc();
        let spec = JobSpec::Batch {
            work: SimDuration::from_secs(1550),
            nb_vms: 1,
            scaling: ScalingLaw::Fixed,
        };
        let q = quoter_for(&vc, spec);
        let proposals = q.proposals();
        // Fixed scaling: every allocation has the same exec time, so the
        // cheapest is 1 VM: deadline 1670+84, price 1670×1×4.
        let cheapest = proposals.iter().min_by_key(|p| p.price).unwrap();
        assert_eq!(cheapest.nb_vms, 1);
        assert_eq!(cheapest.deadline, SimDuration::from_secs(1754));
        assert_eq!(cheapest.price, Money::from_units(6680));
    }

    #[test]
    fn linear_jobs_offer_speed_price_tradeoff() {
        let vc = vc();
        let spec = JobSpec::Batch {
            work: SimDuration::from_secs(1600),
            nb_vms: 1,
            scaling: ScalingLaw::Linear,
        };
        let q = quoter_for(&vc, spec);
        let proposals = q.proposals();
        assert_eq!(proposals.len(), 3); // 1, 2, 4 VMs
                                        // Linear + location-independent price: all cost the same (up to
                                        // millisecond rounding of the per-allocation estimate), faster
                                        // with more VMs.
        assert!(proposals[2].deadline < proposals[0].deadline);
        let diff = (proposals[0].price - proposals[1].price).as_micro().abs();
        assert!(diff < 10_000, "prices differ by {diff} micro-units");
    }

    #[test]
    fn quote_for_deadline_signs_the_user_slack() {
        let vc = vc();
        let spec = JobSpec::Batch {
            work: SimDuration::from_secs(1550),
            nb_vms: 1,
            scaling: ScalingLaw::Fixed,
        };
        let q = quoter_for(&vc, spec);
        let quote = q
            .quote_for_deadline(SimDuration::from_secs(10_000))
            .unwrap();
        assert_eq!(quote.deadline, SimDuration::from_secs(10_000));
        // Infeasible deadline: none.
        assert!(q.quote_for_deadline(SimDuration::from_secs(100)).is_none());
    }

    #[test]
    fn quote_for_price_picks_fastest_within_budget() {
        let vc = vc();
        let spec = JobSpec::Batch {
            work: SimDuration::from_secs(1600),
            nb_vms: 1,
            scaling: ScalingLaw::Linear,
        };
        let q = quoter_for(&vc, spec);
        let quote = q.quote_for_price(Money::from_units(99_999)).unwrap();
        assert_eq!(quote.nb_vms, 4, "same price, so fastest wins");
        assert!(q.quote_for_price(Money::from_units(1)).is_none());
    }

    #[test]
    fn allocation_options_capped_by_max_vms() {
        let vc = vc();
        let spec = JobSpec::Batch {
            work: SimDuration::from_secs(100),
            nb_vms: 10,
            scaling: ScalingLaw::Linear,
        };
        let mut q = quoter_for(&vc, spec);
        q.max_vms = 25;
        assert_eq!(q.allocation_options().collect::<Vec<_>>(), vec![10, 20]);
        q.max_vms = 5; // smaller than the request: still offer the request
        assert_eq!(q.allocation_options().collect::<Vec<_>>(), vec![10]);
    }

    #[test]
    #[should_panic(expected = "belongs to an application")]
    fn app_of_unknown_job_panics() {
        let vc = vc();
        vc.app_of(JobId(7));
    }

    #[test]
    fn submit_while_negotiating_uses_job_map() {
        let mut vc = vc();
        vc.add_slave(vid(0), 1.0, Location::Private, VmRate::per_vm_second(2))
            .unwrap();
        let spec = JobSpec::Batch {
            work: SimDuration::from_secs(10),
            nb_vms: 1,
            scaling: ScalingLaw::Fixed,
        };
        let job = vc.framework.submit(spec, SimTime::ZERO).unwrap();
        vc.job_to_app.insert(job, AppId(42));
        assert_eq!(vc.app_of(job), AppId(42));
    }
}
