//! # meryn-scenario — declarative experiment definitions
//!
//! The paper evaluates one fixed workload on one platform; this crate
//! makes the experiment itself *data*. A [`Scenario`] bundles a
//! platform configuration (with registry-resolved policy names), a
//! workload description, sweep axes and requested outputs; it loads
//! from and saves to JSON ([`Scenario::load`] / [`Scenario::save`]),
//! and [`run_scenario`] executes it through the shared replica-sweep
//! harness with thread-count-independent, byte-stable results.
//!
//! Every shipped experiment — the paper's Table 1 and Figures 5–6, the
//! ablations, the scale and fault scenarios — is a `scenarios/*.json`
//! file, and that file is its only definition. [`run_scenario`] checks
//! a spec before any job runs ([`Scenario::check`]): a malformed one is
//! an `InvalidInput` error, never a panic.
//!
//! | module | role |
//! |---|---|
//! | [`spec`] | the serde scenario types: [`Scenario`], [`spec::WorkloadSpec`], [`spec::SweepAxis`], [`spec::OutputSpec`] |
//! | [`runner`] | [`run_scenario`] → [`runner::ScenarioReport`] (+ [`runner::ScenarioReport::render`], the one human rendering) |
//! | [`bench`] | [`bench_scenario`] → events/sec over a scenario's base runs (`scenario --bench`) |
//! | [`catalog`] | the one unshipped scenario, full-size [`catalog::hyperscale`], derived from its shipped CI scaling |
//! | [`policies`] | extension policies registered from outside `meryn-core` (e.g. `deadline-aware`) |
//! | [`sweep`] | seed fanout, parallel map, replica aggregation |
//! | [`paper`] | the paper's fixed fixtures (65-app run, Table 1 micro-scenarios) |
//!
//! ```
//! use meryn_scenario::{run_scenario, Scenario};
//!
//! let mut scenario = Scenario::from_json(include_str!("../../../scenarios/paper.json")).unwrap();
//! scenario.sweep.replicas = 0;                  // headline runs only
//! scenario.outputs.table1_samples = None;
//! let report = run_scenario(&scenario).unwrap();
//! let peak = |i: usize| report.variants[i].base.as_ref().unwrap().peak_cloud_vms;
//! assert_eq!(peak(0), 15.0); // Fig 5(a)
//! assert_eq!(peak(1), 25.0); // Fig 5(b)
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bench;
pub mod catalog;
pub mod paper;
pub mod policies;
pub mod runner;
pub mod spec;
pub mod sweep;

pub use bench::{bench_scenario, BenchReport};
pub use paper::{measure_case, paper_range, run_paper, run_paper_with, TABLE1_CASES};
pub use policies::DeadlineAwarePolicy;
pub use runner::{run_scenario, single_run_resume, single_run_start, ScenarioReport};
pub use spec::{publish_atomically, Scenario};
