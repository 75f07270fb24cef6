//! # meryn-core — the Meryn PaaS
//!
//! Reproduction of *"Meryn: Open, SLA-driven, Cloud Bursting PaaS"*
//! (Dib, Parlavantzas, Morin — ORMaCloud/HPDC 2013). Meryn shares a fixed
//! pool of private VMs between elastic, framework-owned Virtual Clusters,
//! negotiates (deadline, price) SLAs with users, and places every arriving
//! application on the cheapest of three options — the VC's own VMs, VMs
//! borrowed from sibling VCs, or freshly leased public-cloud VMs — using a
//! decentralized, auction-inspired protocol (paper Algorithm 1) whose VC
//! bids price the revenue lost by suspending a running application (paper
//! Algorithm 2).
//!
//! ## Crate layout
//!
//! | module | paper section |
//! |---|---|
//! | [`client_manager`] | §3.2 Client Manager: routing + negotiation front door |
//! | [`cluster_manager`] | §3.2 Cluster Manager: VC state, quoting, reservations |
//! | [`app`] / [`ids`] | §3.2 Application Controllers: per-app records |
//! | [`bidding`] | §4.2.2 Algorithm 2: bid computation |
//! | [`policy`] | pluggable placement/bidding strategies + the string-keyed registry |
//! | [`protocol`] | §4.1 Algorithm 1: resource selection |
//! | [`engine`] | the [`Platform`] engine: per-VC shard state machines, the shared fabric, typed effects |
//! | [`config`] | deployment knobs; [`config::PlatformConfig::paper`] reproduces the evaluation setup |
//! | [`report`] | the measurements behind Figures 5–6 and Table 1 |
//!
//! ## Quick example
//!
//! ```
//! use meryn_core::config::PlatformConfig;
//! use meryn_core::Platform;
//! use meryn_workloads::{paper_workload, PaperWorkloadParams};
//!
//! // Policies are named; "meryn" and "static" are the paper's two.
//! let cfg = PlatformConfig::paper("meryn");
//! let report = Platform::new(cfg).run(&paper_workload(PaperWorkloadParams::default()));
//! assert_eq!(report.apps.len(), 65);
//! assert_eq!(report.violations(), 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod app;
pub mod bidding;
pub mod client_manager;
pub mod cluster_manager;
pub mod config;
pub mod engine;
pub mod events;
pub mod ids;
pub mod policy;
pub mod protocol;
pub mod report;

pub use config::PlatformConfig;
pub use engine::{CheckpointHeader, EngineCheckpoint, Platform};
pub use ids::{AppId, Placement, VcId};
pub use report::{ReportMode, RunReport};
