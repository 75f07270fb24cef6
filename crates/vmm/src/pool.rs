//! The private VM pool.
//!
//! "Private resources consist of a fixed number of VMs shared between
//! multiple elastic Virtual Clusters" (§3.1). The pool owns the physical
//! nodes, places VMs first-fit, enforces the fixed hosting capacity (the
//! evaluation pins it to 50) and drives each VM's lifecycle through the
//! begin/complete protocol. It holds live VMs only: a VM leaves the pool
//! when its stop completes or it crashes, so the pool's size tracks the
//! estate, never the history of transfers.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use meryn_sim::{SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};

use crate::error::VmmError;
use crate::image::ImageId;
use crate::latency::LatencyModel;
use crate::node::{Node, NodeId};
use crate::spec::{HostTag, Location, VmId, VmSpec};
use crate::vm::Vm;

/// The provider-owned VM pool.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PrivatePool {
    tag: HostTag,
    nodes: Vec<Node>,
    /// Live VMs (starting, running or stopping): every entry holds
    /// resources, so the map's length is the active count.
    vms: BTreeMap<VmId, Vm>,
    serial: u64,
    spec: VmSpec,
    /// Hosting capacity in VMs, fixed at construction: the smaller of
    /// the configured cap and what the nodes physically fit (node shapes
    /// never change).
    capacity: u64,
    boot: LatencyModel,
    stop: LatencyModel,
    speed: f64,
    /// Serialized with the pool so a restored checkpoint resumes its
    /// jitter stream exactly where the snapshot left it.
    rng: SimRng,
}

impl PrivatePool {
    /// Creates a pool over explicit nodes, hosting VMs of the uniform
    /// `spec`, with the given boot/stop latency models, a relative CPU
    /// `speed` (1.0 = reference) and its own RNG stream.
    pub fn new(
        nodes: Vec<Node>,
        spec: VmSpec,
        max_vms: u64,
        boot: LatencyModel,
        stop: LatencyModel,
        speed: f64,
        rng: SimRng,
    ) -> Self {
        assert!(speed > 0.0, "pool speed factor must be positive");
        let physical: u64 = nodes.iter().map(|n| n.capacity_for(spec)).sum();
        PrivatePool {
            tag: HostTag::PRIVATE,
            nodes,
            vms: BTreeMap::new(),
            serial: 0,
            spec,
            capacity: physical.min(max_vms),
            boot,
            stop,
            speed,
            rng,
        }
    }

    /// Convenience: a pool of parapluie-like nodes with exactly
    /// `capacity` VM slots of `spec` (the evaluation's "VM hosting
    /// capacity … fixed to 50 VMs").
    pub fn with_vm_capacity(
        capacity: u64,
        spec: VmSpec,
        boot: LatencyModel,
        stop: LatencyModel,
        speed: f64,
        rng: SimRng,
    ) -> Self {
        let per_node = Node::parapluie(NodeId(0)).capacity_for(spec).max(1);
        let node_count = capacity.div_ceil(per_node).max(1);
        let nodes = (0..node_count)
            .map(|i| Node::parapluie(NodeId(i as u32)))
            .collect();
        Self::new(nodes, spec, capacity, boot, stop, speed, rng)
    }

    /// The uniform VM shape this pool hosts.
    pub fn spec(&self) -> VmSpec {
        self.spec
    }

    /// The pool's relative CPU speed factor.
    pub fn speed(&self) -> f64 {
        self.speed
    }

    /// Fixed hosting capacity in VMs (the smaller of the configured cap
    /// and what the nodes physically fit).
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// VMs currently holding resources (starting, running or stopping):
    /// the live VMs.
    pub fn active_count(&self) -> u64 {
        self.vms.len() as u64
    }

    /// VMs currently usable by frameworks.
    pub fn running_count(&self) -> u64 {
        self.vms.values().filter(|v| v.is_running()).count() as u64
    }

    /// Free VM slots.
    pub fn available(&self) -> u64 {
        self.capacity() - self.active_count()
    }

    /// Looks a live VM up: `None` once its stop has completed or it
    /// crashed, and for ids never issued.
    pub fn vm(&self, id: VmId) -> Option<&Vm> {
        self.vms.get(&id)
    }

    /// Iterates over the live VMs in id order.
    pub fn vms(&self) -> impl Iterator<Item = &Vm> {
        self.vms.values()
    }

    /// Begins booting a new VM from `image`. Returns the new id and the
    /// boot duration; the caller schedules [`PrivatePool::complete_start`]
    /// that far in the future.
    pub fn begin_start(
        &mut self,
        image: ImageId,
        now: SimTime,
    ) -> Result<(VmId, SimDuration), VmmError> {
        let capacity = self.capacity;
        if self.active_count() >= capacity {
            return Err(VmmError::CapacityExhausted { capacity });
        }
        let spec = self.spec;
        let node = self
            .nodes
            .iter_mut()
            .find(|n| n.can_fit(spec))
            .ok_or(VmmError::CapacityExhausted { capacity })?;
        assert!(node.allocate(spec), "can_fit then allocate must succeed");
        let node_id = node.id;
        let id = VmId::new(self.tag, self.serial);
        self.serial += 1;
        let vm = Vm::starting(
            id,
            spec,
            image,
            Location::Private,
            Some(node_id),
            self.speed,
            now,
        );
        self.vms.insert(id, vm);
        Ok((id, self.boot.sample(&mut self.rng)))
    }

    /// Completes a boot begun earlier.
    pub fn complete_start(&mut self, id: VmId, now: SimTime) -> Result<(), VmmError> {
        self.vms
            .get_mut(&id)
            .ok_or(VmmError::UnknownVm(id))?
            .complete_start(now)
    }

    /// Begins shutting a VM down; returns the shutdown duration.
    pub fn begin_stop(&mut self, id: VmId, now: SimTime) -> Result<SimDuration, VmmError> {
        self.vms
            .get_mut(&id)
            .ok_or(VmmError::UnknownVm(id))?
            .begin_stop(now)?;
        Ok(self.stop.sample(&mut self.rng))
    }

    /// Checks the pool's conservation invariants: every listed VM holds
    /// resources and the live VMs fit the hosting capacity. Meant for
    /// quiescent points — after a restore, between runs — so a
    /// checkpoint/restore test can audit a restored pool in release
    /// builds too.
    pub fn audit(&self) -> Result<(), String> {
        if let Some(vm) = self.vms.values().find(|v| !v.state().holds_resources()) {
            return Err(format!(
                "private pool lists {:?}, which holds no resources",
                vm.id
            ));
        }
        let active = self.active_count();
        if active > self.capacity {
            return Err(format!(
                "private pool over capacity: {active} active VMs on {} slots",
                self.capacity
            ));
        }
        Ok(())
    }

    /// Completes a shutdown: the VM leaves the pool and its node
    /// resources are released.
    pub fn complete_stop(&mut self, id: VmId, now: SimTime) -> Result<(), VmmError> {
        self.terminate(id, |vm| vm.complete_stop(now))
    }

    /// Crashes a starting/running VM at `now`: the fault-plane path.
    /// The VM leaves the pool and its resources release immediately (no
    /// `Stopping` interval, no stop latency draw — the RNG stream is
    /// untouched, so fault-free trajectories are byte-identical whether
    /// or not this method exists), exactly as in
    /// [`PrivatePool::complete_stop`], so [`PrivatePool::audit`] holds
    /// across crashes.
    pub fn crash_vm(&mut self, id: VmId, now: SimTime) -> Result<(), VmmError> {
        self.terminate(id, |vm| vm.crash(now))
    }

    /// Applies a terminating transition to a live VM and, if it
    /// succeeds, removes the VM and frees its node slot. A refused
    /// transition leaves the VM where it was.
    fn terminate(
        &mut self,
        id: VmId,
        transition: impl FnOnce(&mut Vm) -> Result<(), VmmError>,
    ) -> Result<(), VmmError> {
        let Entry::Occupied(mut entry) = self.vms.entry(id) else {
            return Err(VmmError::UnknownVm(id));
        };
        transition(entry.get_mut())?;
        let node_id = entry.remove().node.expect("private VM must sit on a node");
        let spec = self.spec;
        self.nodes
            .iter_mut()
            .find(|n| n.id == node_id)
            .expect("VM's node must exist")
            .release(spec);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(capacity: u64) -> PrivatePool {
        PrivatePool::with_vm_capacity(
            capacity,
            VmSpec::EC2_MEDIUM_LIKE,
            LatencyModel::uniform_secs(20, 30),
            LatencyModel::uniform_secs(5, 10),
            1.0,
            SimRng::new(42),
        )
    }

    #[test]
    fn capacity_is_enforced_exactly() {
        let p = pool(50);
        assert_eq!(p.capacity(), 50);
        assert_eq!(p.available(), 50);
    }

    #[test]
    fn start_until_capacity_exhausted() {
        let mut p = pool(5);
        let t = SimTime::ZERO;
        for _ in 0..5 {
            p.begin_start(ImageId(0), t).unwrap();
        }
        assert_eq!(p.active_count(), 5);
        assert_eq!(p.available(), 0);
        let err = p.begin_start(ImageId(0), t).unwrap_err();
        assert_eq!(err, VmmError::CapacityExhausted { capacity: 5 });
    }

    #[test]
    fn lifecycle_round_trip_frees_capacity() {
        let mut p = pool(2);
        let (id, boot) = p.begin_start(ImageId(0), SimTime::ZERO).unwrap();
        assert!(boot >= SimDuration::from_secs(20) && boot <= SimDuration::from_secs(30));
        assert_eq!(p.running_count(), 0);
        p.complete_start(id, SimTime::ZERO + boot).unwrap();
        assert_eq!(p.running_count(), 1);
        let stop = p.begin_stop(id, SimTime::from_secs(100)).unwrap();
        assert!(stop >= SimDuration::from_secs(5) && stop <= SimDuration::from_secs(10));
        assert_eq!(p.available(), 1, "stopping VM still holds its slot");
        p.complete_stop(id, SimTime::from_secs(100) + stop).unwrap();
        assert_eq!(p.active_count(), 0);
        assert_eq!(p.available(), 2);
        // A stopped VM leaves the pool.
        assert!(p.vm(id).is_none());
        assert_eq!(p.vms().count(), 0);
        assert_eq!(
            p.complete_stop(id, SimTime::from_secs(200)),
            Err(VmmError::UnknownVm(id))
        );
        assert_eq!(
            p.crash_vm(id, SimTime::from_secs(200)),
            Err(VmmError::UnknownVm(id))
        );
    }

    #[test]
    fn unknown_vm_errors() {
        let mut p = pool(1);
        let ghost = VmId::new(HostTag::PRIVATE, 99);
        assert_eq!(
            p.complete_start(ghost, SimTime::ZERO),
            Err(VmmError::UnknownVm(ghost))
        );
        assert!(p.begin_stop(ghost, SimTime::ZERO).is_err());
    }

    #[test]
    fn ids_are_unique_and_private_tagged() {
        let mut p = pool(3);
        let (a, _) = p.begin_start(ImageId(0), SimTime::ZERO).unwrap();
        let (b, _) = p.begin_start(ImageId(0), SimTime::ZERO).unwrap();
        assert_ne!(a, b);
        assert_eq!(a.host(), HostTag::PRIVATE);
        assert!(p.vm(a).unwrap().location.is_private());
    }

    #[test]
    fn node_count_scales_with_capacity() {
        // 50 medium VMs at 6/node → 9 nodes, like the paper's 9 parapluie
        // nodes.
        let p = pool(50);
        assert_eq!(p.nodes.len(), 9);
    }

    #[test]
    fn capacity_cap_below_physical() {
        // 9 nodes could host 54, but the configured cap wins.
        let p = pool(50);
        let physical: u64 = p.nodes.iter().map(|n| n.capacity_for(p.spec())).sum();
        assert_eq!(physical, 54);
        assert_eq!(p.capacity(), 50);
    }

    #[test]
    fn refused_termination_keeps_the_vm() {
        let mut p = pool(2);
        let (id, boot) = p.begin_start(ImageId(0), SimTime::ZERO).unwrap();
        p.complete_start(id, SimTime::ZERO + boot).unwrap();
        // A running VM must begin stopping before its stop completes.
        assert!(matches!(
            p.complete_stop(id, SimTime::from_secs(60)),
            Err(VmmError::InvalidTransition { .. })
        ));
        assert!(p.vm(id).unwrap().is_running());
        assert_eq!(p.available(), 1);
        p.audit().unwrap();
    }

    #[test]
    fn stop_only_after_running() {
        let mut p = pool(1);
        let (id, _) = p.begin_start(ImageId(0), SimTime::ZERO).unwrap();
        assert!(p.begin_stop(id, SimTime::ZERO).is_err());
    }

    #[test]
    fn crash_releases_slot_and_keeps_audit_conserved() {
        let mut p = pool(2);
        let (id, boot) = p.begin_start(ImageId(0), SimTime::ZERO).unwrap();
        p.complete_start(id, SimTime::ZERO + boot).unwrap();
        assert_eq!(p.available(), 1);
        p.crash_vm(id, SimTime::from_secs(60)).unwrap();
        assert_eq!(p.active_count(), 0);
        assert_eq!(p.available(), 2, "crash releases the slot immediately");
        // A crashed VM leaves the pool.
        assert!(p.vm(id).is_none());
        p.audit().expect("crash keeps the pool conserved");
        // A crashed VM cannot be crashed or stopped again.
        assert_eq!(
            p.crash_vm(id, SimTime::from_secs(61)),
            Err(VmmError::UnknownVm(id))
        );
        assert_eq!(
            p.begin_stop(id, SimTime::from_secs(61)),
            Err(VmmError::UnknownVm(id))
        );
        // The freed slot is reusable.
        p.begin_start(ImageId(0), SimTime::from_secs(62)).unwrap();
        p.audit().unwrap();
    }

    #[test]
    fn crash_consumes_no_rng_draws() {
        // Stop-latency draws after a crash must match a pool that never
        // crashed anything: the fault path is RNG-silent.
        let mut a = pool(4);
        let mut b = pool(4);
        let (ia, boot_a) = a.begin_start(ImageId(0), SimTime::ZERO).unwrap();
        let (_ib, boot_b) = b.begin_start(ImageId(0), SimTime::ZERO).unwrap();
        assert_eq!(boot_a, boot_b);
        a.complete_start(ia, SimTime::ZERO + boot_a).unwrap();
        a.crash_vm(ia, SimTime::from_secs(40)).unwrap();
        let (_, next_a) = a.begin_start(ImageId(0), SimTime::from_secs(50)).unwrap();
        let (_, next_b) = b.begin_start(ImageId(0), SimTime::from_secs(50)).unwrap();
        assert_eq!(next_a, next_b, "crash must not advance the jitter stream");
    }

    #[test]
    fn determinism_same_seed_same_boot_times() {
        let mut a = pool(10);
        let mut b = pool(10);
        for _ in 0..10 {
            let (_, da) = a.begin_start(ImageId(0), SimTime::ZERO).unwrap();
            let (_, db) = b.begin_start(ImageId(0), SimTime::ZERO).unwrap();
            assert_eq!(da, db);
        }
    }
}
