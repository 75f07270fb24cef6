//! The typed messages shards send to the shared fabric.
//!
//! A [`crate::engine::VcShard`] never touches the private pool, the
//! cloud market, the billing ledger or the usage metrics directly:
//! everything it wants from the shared world is emitted as an
//! [`Effect`] tagged with an [`EffectKey`]. The executor applies the
//! collected effects of one time step sequentially in canonical
//! `(due, vc_id, seq)` order — so however the per-shard processing was
//! scheduled across worker threads, the fabric always observes one and
//! the same mutation sequence. The property test
//! `crates/core/tests/effect_order.rs` pins this down: any emission
//! interleaving of a fixed effect set, canonically ordered, produces
//! identical ledger and pool states.

use meryn_sim::SimTime;
use meryn_sla::VmRate;
use meryn_vmm::{CloudId, Location, VmId};

use crate::events::Event;
use crate::ids::{AppId, VcId};

/// Canonical ordering key of an effect: the `(due, vc_id, seq)` tag —
/// the instant it belongs to, the emitting shard and the global
/// sequence number of the originating event.
///
/// Derived `Ord` is the canonical application order. Sequence tags are
/// globally unique (one counter feeds every queue), so ordering by
/// `(due, seq)` totally orders effects of *different* events — which
/// makes the canonical order exactly the global event schedule the
/// pre-shard monolith walked, with `vc` carried for provenance and
/// per-shard grouping. Effects of one event share a full key and apply
/// in emission order (stable sort).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct EffectKey {
    /// The simulation instant the effect was emitted at.
    pub due: SimTime,
    /// Global sequence tag of the event whose handler emitted this.
    pub seq: u64,
    /// The emitting shard.
    pub vc: VcId,
}

/// One fabric-directed message from a shard's event handler.
#[derive(Debug, Clone, PartialEq)]
pub enum Effect {
    /// Bill the interval `[from, now)` on `vm` at `rate` (the shard has
    /// already added the — purely computable — amount to its
    /// application's cost; the ledger records the entry).
    Charge {
        /// The VM used.
        vm: VmId,
        /// Where it ran.
        location: Location,
        /// Interval start (the stint's dispatch instant).
        from: SimTime,
        /// Rate applied.
        rate: VmRate,
    },
    /// Adjust the busy-VM counters by the given deltas and sample the
    /// used-VM curves. Within one instant these commute: only the net
    /// value an instant settles on is observable (same-instant samples
    /// coalesce).
    Usage {
        /// Signed change in busy private VMs.
        private_delta: i64,
        /// Signed change in busy cloud VMs.
        cloud_delta: i64,
    },
    /// Schedule a follow-up event. The executor assigns the global
    /// sequence tag and routes it to the owning queue.
    Schedule {
        /// Absolute due instant.
        due: SimTime,
        /// The event to route.
        event: Event,
    },
    /// Begin releasing leased cloud VMs a finished application held
    /// (§3.5 tear-down). Drawing the release latencies is fabric work —
    /// the cloud's RNG stream must be consumed in canonical order.
    ReleaseCloud {
        /// The cloud the leases came from.
        cloud: CloudId,
        /// The VMs to release, in stint order.
        vms: Vec<VmId>,
    },
    /// A release batch finished: close each lease and add its cost to
    /// the cloud bill (the end of the §3.5 tear-down
    /// [`Effect::ReleaseCloud`] began).
    CloseLeases {
        /// The cloud the leases came from.
        cloud: CloudId,
        /// The released VMs, in stint order.
        vms: Vec<VmId>,
    },
    /// Begin returning borrowed private VMs to the lending VC (§3.4
    /// give-back): stop each VM at the borrower, then reboot it with the
    /// lender's image and requeue the suspended victim.
    ReturnVms {
        /// The lending VC.
        src: VcId,
        /// The suspended application awaiting its VMs.
        victim: AppId,
        /// The VMs to give back, in stint order.
        vms: Vec<VmId>,
    },
    /// An SLA check decided its application should burst to the cloud
    /// market. Everything shard-observable was already decided inside
    /// [`crate::engine::VcShard::check_sla`] — the verdict needed
    /// attention, the job exists, no acquisition is in flight; only the
    /// market transaction (cloud offer, queue withdrawal, leases)
    /// remains, and that is executor work. When the market declines,
    /// the executor falls back on `violated` exactly like the
    /// report-mode path: mark and retire, or re-arm — unless the
    /// refusal was transient and `attempt` is within the fault plane's
    /// retry budget, in which case it arms a backoff
    /// [`crate::events::Event::LeaseRetry`].
    Escalate {
        /// The application asking to burst.
        app: AppId,
        /// Whether the SLA was already violated at check time (drives
        /// the fallback when no cloud can serve the escalation).
        violated: bool,
        /// 0 for a controller check; for a lease retry, which attempt
        /// of the backoff chain this is (1-based).
        attempt: u32,
    },
    /// A transfer's stop batch completed: the executor completes the
    /// pool stops and begins the replacement boots with the destination
    /// image (pool RNG draws — canonical-order work), then schedules
    /// the coalesced [`crate::events::Event::TransferReady`].
    TransferStopped {
        /// The acquiring application.
        app: AppId,
        /// The stopped VMs, stint order.
        vms: Vec<VmId>,
    },
    /// A lent-VM return's stop batch completed: the executor completes
    /// the pool stops and begins the reboots with the lender's image,
    /// then schedules the coalesced
    /// [`crate::events::Event::ReturnReady`].
    ReturnStopped {
        /// The lending VC.
        src: VcId,
        /// The suspended application awaiting its VMs.
        victim: AppId,
        /// The stopped VMs, stint order.
        vms: Vec<VmId>,
    },
    /// A completed application asks to become its report record and
    /// be forgotten (every completion emits it, in either
    /// [`crate::report::ReportMode`]). Building the record, filing it
    /// and dropping the per-app state spans shard *and* executor
    /// structures (`app_vc` stays — it routes stale per-app events), so
    /// the executor owns this effect; the fabric never sees it.
    Retire {
        /// The completed application to record and forget.
        app: AppId,
        /// Its framework job, retired from the framework's job table.
        job: meryn_frameworks::JobId,
    },
    /// Mark a batch of private-pool boots complete (the VMs were
    /// already handed to their shard as slaves; frameworks never read
    /// VMM state, so the pool transition is pure fabric bookkeeping).
    CompleteStarts {
        /// The freshly booted VMs.
        vms: Vec<VmId>,
    },
    /// Mark a batch of cloud leases complete — billing starts at the
    /// batch's ready instant.
    CompleteLeases {
        /// The cloud leased from.
        cloud: CloudId,
        /// The provisioned VMs.
        vms: Vec<VmId>,
    },
    /// A slave VM crashed mid-stint (fault plane). The shard already
    /// tore the stint down (progress discarded, job requeued, usage
    /// reversed); the executor terminates the VM on its estate — a
    /// private victim additionally boots a replacement so the VC's
    /// capacity is conserved, a cloud victim's lease closes billed
    /// through the crash instant.
    VmCrashed {
        /// The crashed VM.
        vm: VmId,
        /// Where it was running.
        location: Location,
    },
    /// An arrival finished admission in-shard (type check, negotiation
    /// rounds, app registration, CM-latency draw from the shard's
    /// stream). What remains is exactly the cross-shard work: the
    /// Algorithm 1 placement over every VC's view plus the cloud
    /// market, the CM-pipeline serialization (`cm_free_at`) and the
    /// decision's pool/market execution — all executor-owned, applied
    /// at the effect's canonical position.
    Place {
        /// The freshly registered application.
        app: AppId,
        /// CM handling latency drawn from the shard's stream.
        handling: meryn_sim::SimDuration,
        /// The negotiated execution estimate (drives the bid duration).
        quoted_exec: meryn_sim::SimDuration,
        /// Extra pipeline latency if Algorithm 1 suspends a local
        /// victim. Drawn unconditionally at admission — whether it is
        /// consumed depends on the placement decision, but drawing it
        /// up front keeps the shard's stream sequence independent of
        /// the decision Algorithm 1 makes when the effect applies.
        suspend_local: meryn_sim::SimDuration,
        /// Extra pipeline latency if Algorithm 1 suspends a remote
        /// victim; same unconditional-draw rule as `suspend_local`.
        suspend_remote: meryn_sim::SimDuration,
    },
    /// An arrival failed admission in-shard (type mismatch or
    /// negotiation breakdown); the executor tallies the rejection on
    /// the fabric.
    Rejected,
}

/// An effect with its canonical key.
#[derive(Debug, Clone, PartialEq)]
pub struct SequencedEffect {
    /// Canonical application key.
    pub key: EffectKey,
    /// The message.
    pub effect: Effect,
}

/// The shard-side collector: emits effects under the key of the event
/// currently being handled.
///
/// Keys in one sink are nondecreasing (a shard handles its slice of a
/// batch in global seq order); the executor merges the per-shard sinks
/// of one time step with a stable sort on [`EffectKey`], which both
/// restores the cross-shard `(due, seq)` schedule order and preserves
/// each event's emission order.
#[derive(Debug)]
pub struct EffectSink {
    key: EffectKey,
    items: Vec<SequencedEffect>,
}

impl EffectSink {
    /// Creates a sink for the given instant and shard.
    pub fn new(due: SimTime, vc: VcId, seq: u64) -> Self {
        Self::with_buffer(due, vc, seq, Vec::new())
    }

    /// Like [`EffectSink::new`], but collecting into a recycled buffer
    /// (the executor pools these to keep the batch loop allocation-free
    /// in steady state).
    pub fn with_buffer(due: SimTime, vc: VcId, seq: u64, buf: Vec<SequencedEffect>) -> Self {
        debug_assert!(buf.is_empty(), "recycled sink buffers arrive cleared");
        EffectSink {
            key: EffectKey { due, vc, seq },
            items: buf,
        }
    }

    /// Re-keys the sink for the next event of the batch.
    pub(crate) fn set_seq(&mut self, seq: u64) {
        debug_assert!(seq >= self.key.seq || self.items.is_empty());
        self.key.seq = seq;
    }

    /// Emits one effect under the current key.
    pub fn emit(&mut self, effect: Effect) {
        self.items.push(SequencedEffect {
            key: self.key,
            effect,
        });
    }

    /// The collected effects, emission order (== canonical order within
    /// one shard's slice of a batch).
    pub fn into_effects(self) -> Vec<SequencedEffect> {
        self.items
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_order_is_due_then_global_seq() {
        let k = |due: u64, vc: usize, seq: u64| EffectKey {
            due: SimTime::from_secs(due),
            vc: VcId(vc),
            seq,
        };
        // Seqs are globally unique, so within an instant the canonical
        // order is the global schedule order, shards interleaved.
        let mut keys = vec![k(2, 0, 9), k(1, 1, 8), k(1, 0, 7), k(1, 0, 3)];
        keys.sort();
        assert_eq!(keys, vec![k(1, 0, 3), k(1, 0, 7), k(1, 1, 8), k(2, 0, 9)]);
        assert!(k(1, 1, 4) < k(1, 0, 5), "lower seq wins across shards");
    }

    #[test]
    fn sink_tags_emissions_with_the_current_seq() {
        let mut sink = EffectSink::new(SimTime::from_secs(1), VcId(2), 10);
        sink.emit(Effect::Usage {
            private_delta: 1,
            cloud_delta: 0,
        });
        sink.set_seq(11);
        sink.emit(Effect::Usage {
            private_delta: -1,
            cloud_delta: 0,
        });
        let effects = sink.into_effects();
        assert_eq!(effects[0].key.seq, 10);
        assert_eq!(effects[1].key.seq, 11);
        assert_eq!(effects[0].key.vc, VcId(2));
        assert!(effects[0].key <= effects[1].key);
    }
}
