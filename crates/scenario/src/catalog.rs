//! Scenarios that are not shipped as files.
//!
//! Every shipped spec is a `scenarios/*.json` file, edited by hand and
//! loaded with [`Scenario::load`]; the files are the only definition.
//! This catalog holds the one entry too big to check in: the full
//! [`hyperscale`] run (259 kB of JSON once its 1024 VCs and targets
//! are spelled out), derived from its shipped CI scaling.

use meryn_core::config::VcConfig;
use meryn_sim::SimDuration;
use meryn_workloads::VcTarget;

use crate::spec::{Scenario, WorkloadSpec};

/// The hyperscale survival run: 1024 single-VM batch VCs and ten
/// million Poisson-diurnal submissions over a simulated quarter
/// (~89 days at a 770 ms mean gap). It is `scenarios/hyperscale-ci.json`
/// scaled up 16×: the same per-VC load, aggregate report mode and
/// streamed arrivals, so resident memory stays O(live applications),
/// not O(10M history). Reach it through `scenario --catalog hyperscale`.
pub fn hyperscale() -> Scenario {
    const VCS: usize = 1024;
    let mut s = Scenario::from_json(include_str!("../../../scenarios/hyperscale-ci.json"))
        .expect("the shipped hyperscale-ci spec parses");
    s.name = "hyperscale".into();
    s.description = "Hyperscale survival: 1024 single-VM VCs, 10M Poisson-diurnal \
                     submissions over a simulated quarter in aggregate report mode — \
                     memory stays O(live); the engine-scale stress scenario."
        .into();
    s.platform.private_capacity = VCS as u64;
    s.platform.vcs = (0..VCS)
        .map(|i| VcConfig::batch(format!("vc-{i:04}"), 1))
        .collect();
    let WorkloadSpec::Generated { config, .. } = &mut s.workload else {
        unreachable!("hyperscale-ci.json streams a Generated workload");
    };
    config.count = 10_000_000;
    config.arrivals = config.arrivals.with_mean_gap(SimDuration::from_millis(770));
    config.targets = (0..VCS).map(|i| (VcTarget::Index(i), 1)).collect();
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every spec the crate ships — the `scenarios/*.json` files and
    /// [`hyperscale`] — survives serialize → deserialize as the same
    /// value, and re-serializes to the same bytes.
    #[test]
    fn shipped_specs_round_trip() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
        let mut shipped = vec![("hyperscale".to_owned(), hyperscale())];
        for entry in std::fs::read_dir(dir).expect("scenarios/ exists") {
            let path = entry.expect("readable entry").path();
            if path.extension().and_then(|e| e.to_str()) == Some("json") {
                let stem = path.file_stem().unwrap().to_str().unwrap().to_owned();
                let spec = Scenario::load(&path).unwrap_or_else(|e| panic!("{stem}: {e}"));
                shipped.push((stem, spec));
            }
        }
        assert!(shipped.len() > 1, "no spec files found under {dir}");
        for (stem, scenario) in shipped {
            let json = scenario.to_json();
            let back = Scenario::from_json(&json).unwrap_or_else(|e| panic!("{stem}: {e}"));
            assert_eq!(back, scenario, "{stem}");
            assert_eq!(back.to_json(), json, "{stem}: unstable serialization");
        }
    }

    #[test]
    fn hyperscale_scales_the_ci_spec_and_passes_the_check() {
        let s = hyperscale();
        assert_eq!(s.platform.vcs.len(), 1024);
        assert!(s.outputs.aggregate, "10M submissions need O(live) memory");
        s.check().unwrap();
    }
}
