//! # meryn-vmm — simulated VM management substrate
//!
//! The paper's prototype drives two instances of the Snooze VM manager
//! (one on the private Grid'5000 cluster, one standing in for a public
//! cloud) through start-VM/stop-VM operations, and treats real IaaS
//! providers as price-quoting VM factories with effectively infinite
//! capacity. This crate reproduces that substrate as deterministic state
//! machines:
//!
//! * [`spec`] — VM instance models (the evaluation uses an EC2-medium-like
//!   2-vCPU/3.75 GB shape) and identifiers;
//! * [`node`] — physical nodes with core/memory capacity;
//! * [`image`] — per-framework disk images, which must be pre-staged to a
//!   cloud before it can boot them (§3.5);
//! * [`vm`] — the VM lifecycle (`Starting → Running → Stopping →
//!   Terminated`);
//! * [`pool`] — the private pool: fixed capacity, first-fit placement;
//! * [`cloud`] — public clouds: price models, staged images, leases;
//! * [`billing`] — the cost ledger the evaluation's Figure 6(b) sums over;
//! * [`latency`] — operation-latency models sampled from seeded RNG.
//!
//! ## The begin/complete protocol
//!
//! Every operation with a real-world duration is split in two: a
//! `begin_*` call validates, transitions the state machine and returns
//! the operation's duration; the caller (the simulation driver in
//! `meryn-core`) schedules an event and calls `complete_*` when it fires.
//! This keeps the substrate synchronous, independently testable, and free
//! of any event-queue dependency.
//!
//! ## Live state only
//!
//! The pool and the clouds hold live VMs only. A VM reaching
//! `Terminated` — its stop or release completing, or a crash — leaves
//! its pool or cloud in the same call, so `vms()` lists what holds
//! resources, its length is the active count, and the substrate's
//! memory and checkpoint size track the live estate rather than the
//! run's history. What a closed cloud lease cost is returned to the
//! caller ([`cloud::LeaseClose`]), which bills it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod billing;
pub mod cloud;
pub mod error;
pub mod image;
pub mod latency;
pub mod node;
pub mod pool;
pub mod spec;
pub mod vm;

pub use billing::{Ledger, LedgerEntry};
pub use cloud::{CloudId, PriceModel, PublicCloud};
pub use error::VmmError;
pub use image::{ImageId, ImageRegistry};
pub use latency::LatencyModel;
pub use pool::PrivatePool;
pub use spec::{HostTag, Location, VmId, VmSpec};
pub use vm::{Vm, VmState};
