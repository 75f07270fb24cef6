//! The canonical-order invariant of the effect stream.
//!
//! The sharded executor collects shard-emitted [`Effect`]s per time
//! step and applies them in canonical `(due, vc_id, seq)` order — never
//! in the order worker threads happened to produce them. This property
//! test pins the invariant the whole determinism story leans on: for a
//! fixed effect set, **any** emission interleaving, once canonically
//! ordered, drives the fabric (ledger, private pool, busy counters,
//! follow-up schedule) into one and the same state.

use std::collections::BTreeMap;

use meryn_core::engine::{Effect, EffectKey, SequencedEffect, SharedFabric};
use meryn_core::ids::{AppId, VcId};
use meryn_sim::{SimRng, SimTime};
use meryn_sla::VmRate;
use meryn_vmm::{ImageRegistry, LatencyModel, Location, PrivatePool, VmId, VmSpec};
use proptest::prelude::*;

const POOL_VMS: u64 = 12;

/// A fresh fabric over a pool of `POOL_VMS` running VMs (no clouds).
fn fresh_fabric() -> (SharedFabric, Vec<VmId>) {
    let image = ImageRegistry::new().register("shard-image", 4096);
    let mut pool = PrivatePool::with_vm_capacity(
        POOL_VMS,
        VmSpec::EC2_MEDIUM_LIKE,
        LatencyModel::uniform_secs(20, 30),
        LatencyModel::uniform_secs(5, 10),
        1.0,
        SimRng::new(7),
    );
    let mut vms = Vec::new();
    for _ in 0..POOL_VMS {
        let (vm, _) = pool.begin_start(image, SimTime::ZERO).expect("fits");
        pool.complete_start(vm, SimTime::ZERO).expect("fresh VM");
        vms.push(vm);
    }
    (SharedFabric::new(pool, Vec::new(), None), vms)
}

/// Applies `effects` (already canonically sorted) and returns the
/// observable fabric state: ledger entries, pool snapshot, busy
/// counters and the follow-up events produced, all serialized.
fn drive(effects: &[SequencedEffect]) -> (String, String, (u64, u64), String) {
    let (mut fabric, _) = fresh_fabric();
    let mut out = Vec::new();
    for e in effects {
        fabric.apply(e.key, e.effect.clone(), &mut out);
    }
    let ledger = serde_json::to_string(&fabric.ledger.entries()).expect("entries serialize");
    let pool = serde_json::to_string(&fabric.pool).expect("pool serializes");
    let followups = serde_json::to_string(&out).expect("events serialize");
    (ledger, pool, fabric.busy(), followups)
}

/// Canonical order: sort by the `(due, vc, seq)` key. Keys are unique
/// by construction, so the order is total.
fn canonicalize(mut effects: Vec<SequencedEffect>) -> Vec<SequencedEffect> {
    effects.sort_by_key(|e| e.key);
    effects
}

/// Builds the per-shard effect sets from the raw generator draws: each
/// shard emits charges and balanced usage deltas (all `+` before all
/// `-`, so busy counters never underflow in canonical order), and one
/// shard returns a disjoint slice of pool VMs to a lender — the
/// RNG-drawing effect whose application order matters most.
fn build_effects(
    charges: &[(u8, u8, u16, u8)],
    usage_pairs: &[(u8, u8)],
    return_vms: usize,
) -> Vec<SequencedEffect> {
    let (_, vms) = fresh_fabric();
    let due = SimTime::from_secs(1000);
    let mut effects = Vec::new();
    let mut seq_per_vc: BTreeMap<usize, u64> = BTreeMap::new();
    let mut push = |vc: usize, effect: Effect, effects: &mut Vec<SequencedEffect>| {
        let seq = seq_per_vc.entry(vc).or_insert(0);
        *seq += 1;
        effects.push(SequencedEffect {
            key: EffectKey {
                due,
                vc: VcId(vc),
                // Spread shard seqs so keys are globally unique but
                // interleaved across shards, like real global tags.
                seq: *seq * 10 + vc as u64,
            },
            effect,
        });
    };
    for &(vc, vm_idx, dur_s, rate_u) in charges {
        let vc = (vc % 3) as usize;
        let from = SimTime::from_secs(1000 - u64::from(dur_s % 1000));
        push(
            vc,
            Effect::Charge {
                vm: vms[(vm_idx as usize) % vms.len()],
                location: Location::Private,
                from,
                rate: VmRate::per_vm_second(i64::from(rate_u % 8) + 1),
            },
            &mut effects,
        );
    }
    for &(vc, delta) in usage_pairs {
        let vc = (vc % 3) as usize;
        let d = i64::from(delta % 4) + 1;
        push(
            vc,
            Effect::Usage {
                private_delta: d,
                cloud_delta: d / 2,
            },
            &mut effects,
        );
    }
    // The balancing negatives, in the same shard order (prefix sums
    // stay non-negative because shards apply as contiguous blocks).
    for &(vc, delta) in usage_pairs {
        let vc = (vc % 3) as usize;
        let d = i64::from(delta % 4) + 1;
        push(
            vc,
            Effect::Usage {
                private_delta: -d,
                cloud_delta: -(d / 2),
            },
            &mut effects,
        );
    }
    if return_vms > 0 {
        let take = return_vms.min(4);
        push(
            2,
            Effect::ReturnVms {
                src: VcId(0),
                victim: AppId(0),
                vms: vms[..take].to_vec(),
            },
            &mut effects,
        );
    }
    effects
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any emission interleaving of one effect set, canonically
    /// ordered, produces identical ledger entries, pool state, busy
    /// counters and follow-up events.
    #[test]
    fn canonical_order_erases_emission_order(
        charges in prop::collection::vec((0u8..3, 0u8..12, 0u16..1000, 0u8..8), 1..24),
        usage_pairs in prop::collection::vec((0u8..3, 0u8..4), 1..12),
        return_vms in 0usize..5,
        swaps in prop::collection::vec((0u64..1_000_000, 0u64..1_000_000), 0..64),
    ) {
        let canonical = canonicalize(build_effects(&charges, &usage_pairs, return_vms));
        let baseline = drive(&canonical);

        // Emit in an arbitrary interleaving, then canonicalize.
        let mut shuffled = canonical.clone();
        let len = shuffled.len();
        for &(a, b) in &swaps {
            shuffled.swap((a as usize) % len, (b as usize) % len);
        }
        let replayed = drive(&canonicalize(shuffled));

        prop_assert_eq!(&baseline.0, &replayed.0, "ledger entries diverged");
        prop_assert_eq!(&baseline.1, &replayed.1, "pool state diverged");
        prop_assert_eq!(baseline.2, replayed.2, "busy counters diverged");
        prop_assert_eq!(&baseline.3, &replayed.3, "follow-up schedule diverged");
    }

    /// Usage effects commute within an instant: the settled busy values
    /// and peaks depend only on the delta multiset, not the order.
    #[test]
    fn usage_deltas_commute_within_an_instant(
        deltas in prop::collection::vec(1i64..5, 1..10),
    ) {
        let due = SimTime::from_secs(50);
        let key = |vc: usize, seq: u64| EffectKey { due, vc: VcId(vc), seq };
        // Plus-then-minus in two different shard attributions.
        let mut forward = Vec::new();
        let mut seq = 0;
        for &d in &deltas {
            forward.push(SequencedEffect {
                key: key(0, seq),
                effect: Effect::Usage { private_delta: d, cloud_delta: 0 },
            });
            seq += 1;
        }
        for &d in &deltas {
            forward.push(SequencedEffect {
                key: key(1, seq),
                effect: Effect::Usage { private_delta: -d, cloud_delta: 0 },
            });
            seq += 1;
        }
        let (ledger, pool, busy, out) = drive(&forward);
        prop_assert_eq!(busy, (0, 0), "balanced deltas must settle at zero");
        prop_assert_eq!(ledger, "[]");
        prop_assert!(out == "[]");
        // Pool untouched by pure usage accounting.
        let (fresh, _) = fresh_fabric();
        prop_assert_eq!(pool, serde_json::to_string(&fresh.pool).unwrap());
    }
}
