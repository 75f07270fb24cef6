//! Placement policies registered from *outside* `meryn-core`.
//!
//! The PR-3 policy registry claims to be extensible across crate
//! boundaries; this module is the proof. [`DeadlineAwarePolicy`] lives
//! in `meryn-scenario`, implements `meryn_core::policy::PlacementPolicy`
//! against the public shard-context API ([`PlacementContext`] over
//! `VcView`s) and registers itself by name — scenario specs then select
//! it like any built-in (`"policy": "deadline-aware"`, see
//! `scenarios/deadline-aware.json`).
//!
//! Registration is idempotent and happens automatically on every
//! scenario entry point ([`crate::run_scenario`],
//! [`crate::bench_scenario`], [`crate::Scenario::check`], the
//! single-run checkpoint paths), so a spec naming an extension policy
//! validates no matter which path runs it.

use std::sync::{Arc, Once};

use meryn_core::policy::{register_placement, PlacementContext, PlacementPolicy};
use meryn_core::protocol::Decision;

/// Deadline-protecting placement: never suspend a running tenant.
///
/// Algorithm 2's suspension bids price the *expected* revenue loss of
/// delaying a victim — but a provider that must not risk SLA penalties
/// at all wants a harder rule than a price. `deadline-aware` serves a
/// request from free VMs (local first, then the cheapest sibling zero
/// bid, like Algorithm 1's options 1–2) and otherwise goes straight to
/// the cloud market; running applications keep their VMs and therefore
/// their deadlines, whatever the bids say. With no cloud able to
/// serve, the request queues.
pub struct DeadlineAwarePolicy;

impl PlacementPolicy for DeadlineAwarePolicy {
    fn name(&self) -> &'static str {
        "deadline-aware"
    }

    fn decide(&self, ctx: &PlacementContext<'_>) -> Decision {
        // Option 1: enough local VMs.
        if ctx.local_has_capacity() {
            return Decision::Local;
        }
        // Option 2: any sibling zero bid (idle VMs move for free and
        // nobody's deadline is touched).
        if let Some(&(src, _)) = ctx.sibling_bids().iter().find(|(_, b)| b.is_free()) {
            return Decision::FromVc { src };
        }
        // Options 3–4 (suspensions) are off the table by design; go to
        // the market.
        match ctx.cheapest_cloud() {
            Some((cloud, rate, _)) => Decision::Cloud { cloud, rate },
            None => Decision::Queue,
        }
    }
}

/// Registers this crate's extension policies (idempotent).
pub fn install() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        register_placement(Arc::new(DeadlineAwarePolicy));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{OutputSpec, SweepSpec, WorkloadSpec};
    use crate::{run_scenario, Scenario};
    use meryn_core::config::{PlatformConfig, VcConfig};
    use meryn_workloads::PaperWorkloadParams;

    #[test]
    fn registry_resolves_the_cross_crate_policy() {
        install();
        let p = meryn_core::policy::placement("deadline-aware").expect("registered");
        assert_eq!(p.name(), "deadline-aware");
    }

    #[test]
    fn deadline_aware_scenario_never_suspends_but_still_exchanges() {
        // Small estate under pressure: meryn would consider suspension
        // bids; deadline-aware must only take free VMs or burst.
        let mut platform = PlatformConfig::paper("deadline-aware");
        platform.private_capacity = 4;
        platform.vcs = vec![VcConfig::batch("VC1", 2), VcConfig::batch("VC2", 2)];
        let scenario = Scenario {
            name: "deadline-aware-unit".into(),
            description: String::new(),
            platform,
            workload: WorkloadSpec::Paper(PaperWorkloadParams {
                vc1_apps: 6,
                vc2_apps: 2,
                ..Default::default()
            }),
            sweep: SweepSpec {
                replicas: 0,
                axes: vec![],
                ..Default::default()
            },
            outputs: OutputSpec::default(),
        };
        let report = run_scenario(&scenario).expect("no files involved");
        let base = report.variants[0].summary();
        assert_eq!(base.suspensions, 0, "deadline-aware must never suspend");
        assert!(
            base.transfers > 0 || base.bursts > 0,
            "overflow must still be served from siblings or the cloud"
        );
    }
}
