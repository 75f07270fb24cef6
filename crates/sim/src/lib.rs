//! # meryn-sim — deterministic discrete-event simulation substrate
//!
//! This crate provides the simulation kernel on which the Meryn PaaS
//! reproduction runs: virtual time, an event queue with deterministic
//! tie-breaking, seedable random-number utilities, time-series metric
//! recording and summary statistics.
//!
//! The design goal is **bit-for-bit reproducibility**: given the same seed
//! and the same sequence of API calls, every simulation produces the same
//! trajectory. To that end:
//!
//! * [`time::SimTime`] is a fixed-point millisecond counter (`u64`), never a
//!   float, so arithmetic is exact and `Ord`;
//! * [`queue::EventQueue`] breaks ties between events scheduled at the same
//!   instant by insertion order (a monotonically increasing sequence
//!   number), so iteration order never depends on heap internals;
//! * [`rng::SimRng`] is a small, fast, seedable PRNG with stable streams and
//!   cheap forking for per-component independence.
//!
//! The kernel is intentionally *passive*: it owns no components and runs no
//! threads. Higher layers (see `meryn-core::engine`) own the loop and the
//! domain state. Parallelism in this workspace lives at two levels — one
//! simulation per thread (the replica sweeps) and, inside one simulation,
//! per-shard slices of one same-instant run, drained from the engine's one
//! queue with [`queue::EventQueue::pop_at`] — and neither needs interior
//! mutability or locks here: the queue is owned by the engine, and a
//! run's events carry globally-unique value-level keys.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod hash;
pub mod metrics;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;

pub use hash::{DetHashMap, DetHashSet};
pub use queue::{earliest_key, EventQueue, QueueSnapshot};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
