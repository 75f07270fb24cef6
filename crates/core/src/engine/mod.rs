//! The sharded simulation engine.
//!
//! The former monolithic event loop — one `&mut self` loop mutating
//! every subsystem — is split into state machines with explicit
//! boundaries, following the component-per-actor shape of discrete-event
//! frameworks like dslab and the piecewise-deterministic event semantics
//! the underlying model has always had:
//!
//! * [`VcShard`] — one per Virtual Cluster. Owns the framework master,
//!   the applications the VC hosts, their execution stints and in-flight
//!   acquisitions. Every event belongs to exactly one shard. Shard
//!   handlers mutate *only* shard state; anything they need from the
//!   shared world is emitted as a typed [`Effect`].
//! * [`SharedFabric`] — the singletons: private pool, public clouds,
//!   billing ledger, usage metrics and the Client-Manager queue. It
//!   consumes effects; it never calls into shards.
//! * [`Platform`] — owns both, and the one calendar event queue (the
//!   [`meryn_sim::EventQueue`]) holding every shard's pending events.
//!   Its one run function drains the same-instant run of events at the
//!   next instant, processes each shard's slice independently — **in
//!   parallel through the rayon shim when the run spans shards** — and
//!   then applies the collected effects sequentially in canonical
//!   `(due, seq, vc)` order.
//!   [`Platform::run_until`] loops over it; [`Platform::step`] calls it
//!   once.
//!
//! Determinism is by construction, not by luck: shard processing touches
//! disjoint state, effect application is single-threaded in a canonical
//! order, and every event carries a globally-unique sequence tag handed
//! out by one counter — so reports are bit-identical at
//! `RAYON_NUM_THREADS=1` and N.

mod effects;
mod executor;
mod fabric;
mod shard;

pub use effects::{Effect, EffectKey, EffectSink, SequencedEffect};
pub use executor::{CheckpointHeader, EngineCheckpoint, Platform, StreamError, CHECKPOINT_FORMAT};
pub use fabric::SharedFabric;
pub use shard::{ShardSnapshot, VcShard};
