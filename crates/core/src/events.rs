//! The platform's discrete events.
//!
//! Every paper interaction with a real-world latency becomes one event
//! variant: submissions arriving, the Cluster Manager finishing its
//! processing pipeline, VM transfer steps (§3.4), cloud VM provisioning
//! (§3.5), job completions predicted by the frameworks, lent-VM returns
//! and Application Controller checks.
//!
//! Choreography events are **coalesced**: one event marks the instant a
//! whole batch of per-VM stop/boot/provision ticks finishes (the batch
//! completes when its *slowest* member does — latencies are drawn per
//! VM, the event lands at the maximum). Each coalesced event expands
//! locally in its owning shard; whatever it needs from the shared
//! fabric travels back as an [`crate::engine::Effect`]. Every event has
//! a shard owner.

use meryn_frameworks::JobId;
use meryn_vmm::{CloudId, VmId};
use meryn_workloads::Submission;
use serde::{Deserialize, Serialize};

use crate::ids::{AppId, VcId};

/// One scheduled event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// A user submission reaches its Client Manager. The executor
    /// resolves the target VC (and pre-assigns the `AppId`) from the
    /// deployment config when the arrival stream dispatches the
    /// submission at its instant, so the event lands directly in the
    /// owning shard's queue: type-checking, negotiation rounds and app
    /// registration all run in-shard, and only the cross-shard
    /// placement (Algorithm 1) travels back to the executor as an
    /// [`crate::engine::Effect`].
    Arrival {
        /// The pre-assigned application id (arrival order).
        app: AppId,
        /// The user submission.
        sub: Submission,
    },
    /// The Cluster Manager finished processing the submission: the job
    /// enters the framework (possibly after suspension/transfer delays
    /// already elapsed).
    SubmitToFramework {
        /// The application being submitted.
        app: AppId,
    },
    /// Every VM of an inbound transfer finished shutting down at the
    /// source (§3.4: source CM removes VMs, Resource Manager stops
    /// them). The destination shard expands this into the replacement
    /// boots.
    TransferStopsDone {
        /// The acquiring application.
        app: AppId,
    },
    /// Every replacement VM finished booting with the destination VC's
    /// image (§3.4: destination CM starts and configures new VMs); the
    /// acquisition completes and the job starts pinned.
    TransferReady {
        /// The acquiring application.
        app: AppId,
    },
    /// Every leased cloud VM finished provisioning (§3.5); the
    /// acquisition completes and the job starts pinned.
    CloudVmsReady {
        /// The acquiring application.
        app: AppId,
    },
    /// A framework predicted this completion when it dispatched the job;
    /// stale epochs are dropped.
    JobFinished {
        /// The hosting VC.
        vc: VcId,
        /// The framework job.
        job: JobId,
        /// Dispatch epoch at scheduling time.
        epoch: u64,
    },
    /// Every VM of a lent-VM return finished stopping at the borrower;
    /// the lender's shard expands this into the reboots with its image.
    ReturnStopsDone {
        /// The lending VC.
        src: VcId,
        /// The suspended application awaiting its VMs.
        victim: AppId,
        /// The stopped VMs, stint order.
        vms: Vec<VmId>,
    },
    /// Every returned VM finished booting at the lender; the held
    /// victim requeues and the lender dispatches.
    ReturnReady {
        /// The lending VC.
        src: VcId,
        /// The suspended application awaiting its VMs.
        victim: AppId,
        /// The freshly booted VMs.
        vms: Vec<VmId>,
    },
    /// Every cloud VM of a finished application's lease batch completed
    /// releasing; the releasing shard hands the batch back as
    /// [`crate::engine::Effect::CloseLeases`], which closes and bills
    /// the leases.
    CloudReleased {
        /// The VC whose application held the leases.
        vc: VcId,
        /// The cloud they belonged to.
        cloud: CloudId,
        /// The released VMs.
        vms: Vec<VmId>,
    },
    /// Application Controller SLA check, due on the global check grid:
    /// every tick for an escalating controller, once (the first tick
    /// past the deadline) for a reporting one.
    ControllerCheck {
        /// The monitored application.
        app: AppId,
    },
    /// A slave VM of a running stint crashes (fault plane, seeded from
    /// the shard's dedicated fault stream at dispatch time). Stale
    /// epochs are dropped exactly like [`Event::JobFinished`]: if the
    /// stint completed or was torn down first, the crash never existed.
    VmCrash {
        /// The hosting VC.
        vc: VcId,
        /// The framework job whose stint the victim serves.
        job: JobId,
        /// Dispatch epoch at scheduling time.
        epoch: u64,
        /// Index of the victim within the stint's VM batch.
        slot: u32,
    },
    /// A replacement VM finished booting after a private-pool crash;
    /// the shard re-adds it as a slave and dispatches.
    CrashReplacementReady {
        /// The VC regaining capacity.
        vc: VcId,
        /// The freshly booted replacement VMs.
        vms: Vec<VmId>,
    },
    /// A deferred retry of a refused cloud escalation (fault plane):
    /// the backoff timer elapsed, re-run the SLA verdict and — if the
    /// application still needs the cloud — re-attempt the lease.
    LeaseRetry {
        /// The application whose escalation was refused.
        app: AppId,
        /// Which attempt this is (1-based; drives the backoff cap and
        /// the retry budget).
        attempt: u32,
    },
}

/// Which VC shard owns an event under the sharded engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventOwner {
    /// A specific VC shard's local state machine.
    Shard(VcId),
    /// The shard hosting the given application (the executor resolves
    /// the `AppId → VcId` mapping it maintains).
    AppShard(AppId),
}

impl Event {
    /// Routes the event to its owning shard.
    ///
    /// Every handler mutates only its VC's framework, applications and
    /// stints — everything it needs from the shared fabric travels back
    /// as typed [`crate::engine::Effect`]s, which is what makes the
    /// per-instant shard batches safe to process in parallel.
    pub fn owner(&self) -> EventOwner {
        match *self {
            Event::JobFinished { vc, .. }
            | Event::ReturnStopsDone { src: vc, .. }
            | Event::ReturnReady { src: vc, .. }
            | Event::CloudReleased { vc, .. }
            | Event::VmCrash { vc, .. }
            | Event::CrashReplacementReady { vc, .. } => EventOwner::Shard(vc),
            Event::Arrival { app, .. }
            | Event::SubmitToFramework { app }
            | Event::ControllerCheck { app }
            | Event::TransferStopsDone { app }
            | Event::TransferReady { app }
            | Event::CloudVmsReady { app }
            | Event::LeaseRetry { app, .. } => EventOwner::AppShard(app),
        }
    }
}
