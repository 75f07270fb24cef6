//! The paper's fixed experiment fixtures: the 65-app workload run and
//! the five Table 1 placement micro-scenarios.
//!
//! These used to live in `meryn-bench`; they sit here so both the
//! declarative [`runner`](crate::runner) and the experiment binaries
//! share one implementation.

use meryn_core::config::{PlatformConfig, VcConfig};
use meryn_core::report::RunReport;
use meryn_core::Platform;
use meryn_frameworks::{JobSpec, ScalingLaw};
use meryn_sim::{SimDuration, SimTime};
use meryn_sla::negotiation::UserStrategy;
use meryn_workloads::{paper_workload, PaperWorkloadParams, Submission, VcTarget};

/// Runs the paper's 65-app workload under the named placement policy
/// with the given seed.
pub fn run_paper(policy: &str, seed: u64) -> RunReport {
    let cfg = PlatformConfig::paper(policy).with_seed(seed);
    Platform::new(cfg).run(paper_workload(PaperWorkloadParams::default()))
}

/// Runs an arbitrary config against the paper workload.
pub fn run_paper_with(cfg: PlatformConfig) -> RunReport {
    Platform::new(cfg).run(paper_workload(PaperWorkloadParams::default()))
}

fn batch_sub(at: u64, vc: usize, work: u64) -> Submission {
    Submission::new(
        SimTime::from_secs(at),
        VcTarget::Index(vc),
        JobSpec::Batch {
            work: SimDuration::from_secs(work),
            nb_vms: 1,
            scaling: ScalingLaw::Fixed,
        },
        UserStrategy::AcceptCheapest,
    )
}

fn slack_sub(at: u64, vc: usize, work: u64, deadline: u64) -> Submission {
    Submission::new(
        SimTime::from_secs(at),
        VcTarget::Index(vc),
        JobSpec::Batch {
            work: SimDuration::from_secs(work),
            nb_vms: 1,
            scaling: ScalingLaw::Fixed,
        },
        UserStrategy::ImposeDeadline {
            deadline: SimDuration::from_secs(deadline),
            concession_pct: 10,
        },
    )
}

/// The five Table 1 placement cases.
pub const TABLE1_CASES: [&str; 5] = [
    "local-vm",
    "vc-vm",
    "cloud-vm",
    "local-vm after suspension",
    "vc-vm after suspension",
];

/// Paper-measured processing-time ranges (seconds) for Table 1;
/// `None` for labels the paper did not measure.
pub fn paper_range(case: &str) -> Option<(f64, f64)> {
    match case {
        "local-vm" => Some((7.0, 15.0)),
        "vc-vm" => Some((40.0, 58.0)),
        "cloud-vm" => Some((60.0, 84.0)),
        "local-vm after suspension" => Some((10.0, 17.0)),
        "vc-vm after suspension" => Some((60.0, 68.0)),
        _ => None,
    }
}

/// Runs one micro-scenario that forces the given Table 1 placement
/// case and returns the target app's processing time in seconds.
///
/// # Panics
/// On a label outside [`TABLE1_CASES`].
pub fn measure_case(case: &str, seed: u64) -> f64 {
    let (cfg, workload, target_idx) = match case {
        "local-vm" => {
            let mut cfg = PlatformConfig::paper("meryn");
            cfg.private_capacity = 1;
            cfg.vcs = vec![VcConfig::batch("VC1", 1)];
            (cfg, vec![batch_sub(5, 0, 100)], 0usize)
        }
        "vc-vm" => {
            let mut cfg = PlatformConfig::paper("meryn");
            cfg.private_capacity = 1;
            cfg.vcs = vec![VcConfig::batch("VC1", 0), VcConfig::batch("VC2", 1)];
            (cfg, vec![batch_sub(5, 0, 100)], 0)
        }
        "cloud-vm" => {
            let mut cfg = PlatformConfig::paper("meryn");
            cfg.private_capacity = 1;
            cfg.vcs = vec![VcConfig::batch("VC1", 0)];
            (cfg, vec![batch_sub(5, 0, 100)], 0)
        }
        "local-vm after suspension" => {
            let mut cfg = PlatformConfig::paper("meryn");
            cfg.private_capacity = 1;
            cfg.vcs = vec![VcConfig::batch("VC1", 1)];
            cfg.clouds.clear();
            (
                cfg,
                vec![slack_sub(5, 0, 500, 50_000), batch_sub(40, 0, 100)],
                1,
            )
        }
        "vc-vm after suspension" => {
            let mut cfg = PlatformConfig::paper("meryn");
            cfg.private_capacity = 1;
            cfg.vcs = vec![VcConfig::batch("VC1", 0), VcConfig::batch("VC2", 1)];
            cfg.clouds.clear();
            (
                cfg,
                vec![slack_sub(5, 1, 500, 50_000), batch_sub(40, 0, 100)],
                1,
            )
        }
        other => panic!("unknown Table 1 case {other:?} (expected one of {TABLE1_CASES:?})"),
    };
    let report = Platform::new(cfg.with_seed(seed)).run(&workload);
    let app = &report.apps[target_idx];
    assert_eq!(
        app.placement, case,
        "scenario must force the intended placement"
    );
    app.processing
        .expect("target app reached the framework")
        .as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_case_is_forcible() {
        for case in TABLE1_CASES {
            let secs = measure_case(case, 1);
            assert!(secs > 0.0, "{case}: {secs}");
        }
    }

    #[test]
    fn paper_ranges_are_ordered() {
        for case in TABLE1_CASES {
            let (lo, hi) = paper_range(case).expect("every Table 1 case has a range");
            assert!(lo < hi);
        }
        assert_eq!(paper_range("local-vm"), Some((7.0, 15.0)));
    }

    #[test]
    fn unknown_case_has_no_range() {
        assert_eq!(paper_range("orbit-vm"), None);
        assert_eq!(paper_range(""), None);
    }

    #[test]
    fn run_paper_smoke() {
        let r = run_paper("meryn", 3);
        assert_eq!(r.apps.len(), 65);
    }
}
