//! The declarative scenario specification.
//!
//! A [`Scenario`] is a self-contained, serde-(de)serializable
//! description of one experiment: the platform deployment, the
//! workload, the sweep axes to explore and the outputs to report.
//! Experiments are *data* — a JSON file under `scenarios/` (or a value
//! built in code) handed to [`crate::runner::run_scenario`] — instead
//! of a hand-written driver binary per figure.
//!
//! ```json
//! {
//!   "name": "paper",
//!   "platform": { "policy": "meryn", ... },
//!   "workload": { "Paper": { "vc1_apps": 50, ... } },
//!   "sweep": { "base_seed": 12648430, "replicas": 30,
//!              "axes": [ { "Policy": { "values": ["meryn", "static"] } } ] },
//!   "outputs": { "summary": true, "comparison": true, "table1_samples": 100 }
//! }
//! ```

use std::fs;
use std::io;
use std::path::Path;

use meryn_core::config::{PlatformConfig, ViolationPolicy};
use meryn_core::report::ReportMode;
use meryn_sim::SimDuration;
use meryn_sla::VmRate;
use meryn_workloads::generators::GeneratorConfig;
use meryn_workloads::trace::Trace;
use meryn_workloads::{paper_workload, PaperWorkloadParams, Submission};
use serde::{Deserialize, Serialize};

use crate::sweep::DEFAULT_BASE_SEED;

/// One declarative experiment: platform + workload + sweep + outputs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Scenario name (used in reports and artifact file names).
    pub name: String,
    /// Free-form intent description.
    #[serde(default)]
    pub description: String,
    /// The platform deployment, including the placement/bidding policy
    /// names resolved through `meryn_core::policy`.
    pub platform: PlatformConfig,
    /// What arrives at the platform.
    pub workload: WorkloadSpec,
    /// Replication and the axes to sweep.
    #[serde(default)]
    pub sweep: SweepSpec,
    /// Which report sections to produce.
    #[serde(default)]
    pub outputs: OutputSpec,
}

impl Scenario {
    /// Serializes to pretty JSON, newline-terminated — the exact bytes
    /// of the checked-in `scenarios/*.json` files (round-trip tests
    /// byte-compare against this).
    pub fn to_json(&self) -> String {
        let mut json = serde_json::to_string_pretty(self).expect("scenario types are serde-safe");
        json.push('\n');
        json
    }

    /// Parses a scenario from JSON.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Reads a scenario file.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        let text = fs::read_to_string(&path)?;
        Self::from_json(&text).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {e}", path.as_ref().display()),
            )
        })
    }

    /// Writes the scenario to a file (the [`Self::to_json`] bytes),
    /// through [`publish_atomically`].
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        publish_atomically(path, &self.to_json())
    }
}

/// Writes `contents` to `path` crash-consistently: into `path.tmp` in
/// the same directory, synced to disk, then renamed over `path` — a
/// reader sees the old file or the whole new one, never a torn write.
/// The directory is synced last so the rename itself survives a crash.
/// This is the one write path for every file a scenario run publishes.
pub fn publish_atomically(path: impl AsRef<Path>, contents: &str) -> io::Result<()> {
    use std::io::Write as _;
    let path = path.as_ref();
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let mut file = fs::File::create(&tmp)?;
    let published = file
        .write_all(contents.as_bytes())
        .and_then(|()| file.sync_all())
        .and_then(|()| fs::rename(&tmp, path));
    if published.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    published?;
    let dir = path
        .parent()
        .filter(|d| !d.as_os_str().is_empty())
        .unwrap_or(Path::new("."));
    fs::File::open(dir)?.sync_all()
}

/// What arrives at the platform.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkloadSpec {
    /// The paper's 65-app synthetic workload, parameterized.
    Paper(PaperWorkloadParams),
    /// A seeded stochastic workload from `meryn_workloads::generators`.
    Generated {
        /// Generator parameters.
        config: GeneratorConfig,
        /// Generator seed (independent of the platform seed).
        seed: u64,
    },
    /// An explicit submission list, spelled out in the spec.
    Explicit {
        /// The submissions, any order (sorted by arrival before use).
        submissions: Vec<Submission>,
    },
    /// A saved workload trace (`meryn_workloads::trace::Trace` JSON),
    /// resolved relative to the working directory.
    TraceFile {
        /// Path to the trace file.
        path: String,
    },
}

impl WorkloadSpec {
    /// Materializes the submissions with the variant's workload
    /// modifiers applied: an inter-arrival override (paper/generated
    /// arrivals only) and a load multiplier compressing arrival times
    /// by `1/m`.
    pub fn materialize(&self, modifier: &WorkloadModifier) -> io::Result<Vec<Submission>> {
        let subs = match self {
            WorkloadSpec::Paper(params) => {
                let mut p = *params;
                if let Some(gap) = modifier.interarrival {
                    p.interarrival = gap;
                }
                p.interarrival = p.interarrival.scale(1.0 / modifier.load_multiplier);
                paper_workload(p)
            }
            WorkloadSpec::Generated { .. } => {
                let (cfg, seed) = self
                    .streamable(modifier)
                    .expect("Generated workloads are streamable");
                meryn_workloads::generators::generate(&cfg, seed)
            }
            WorkloadSpec::Explicit { submissions } => {
                self.check_modifier(modifier)?;
                scale_arrivals(submissions.clone(), modifier.load_multiplier)
            }
            WorkloadSpec::TraceFile { path } => {
                self.check_modifier(modifier)?;
                scale_arrivals(Trace::load(path)?.submissions, modifier.load_multiplier)
            }
        };
        Ok(meryn_workloads::submission::sort_by_arrival(subs))
    }

    /// Rejects a modifier this workload cannot apply: an inter-arrival
    /// override on an explicit submission list or a trace, whose
    /// arrival instants are given rather than generated.
    ///
    /// # Errors
    /// `InvalidInput`, naming the axis to use instead.
    pub(crate) fn check_modifier(&self, modifier: &WorkloadModifier) -> io::Result<()> {
        let what = match self {
            WorkloadSpec::Explicit { .. } => "an explicit submission list",
            WorkloadSpec::TraceFile { .. } => "a trace",
            WorkloadSpec::Paper(_) | WorkloadSpec::Generated { .. } => return Ok(()),
        };
        if modifier.interarrival.is_none() {
            return Ok(());
        }
        Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "the InterarrivalSecs axis only applies to Paper/Generated workloads; \
                 use LoadMultiplier to compress {what}"
            ),
        ))
    }

    /// For `Generated` workloads, the generator config (modifiers
    /// applied) and seed, from which a run streams its arrivals.
    /// Generator output is nondecreasing by arrival, so the stream is
    /// [`Self::materialize`]'s sorted vector, item for item. `None` for
    /// every other workload kind.
    pub fn streamable(&self, modifier: &WorkloadModifier) -> Option<(GeneratorConfig, u64)> {
        match self {
            WorkloadSpec::Generated { config, seed } => {
                let mut cfg = config.clone();
                if let Some(gap) = modifier.interarrival {
                    cfg.arrivals = cfg.arrivals.with_mean_gap(gap);
                }
                cfg.arrivals = cfg.arrivals.scaled(modifier.load_multiplier);
                Some((cfg, *seed))
            }
            _ => None,
        }
    }
}

/// Compresses every arrival instant by `1/m` (m > 1 = more load).
fn scale_arrivals(mut subs: Vec<Submission>, m: f64) -> Vec<Submission> {
    if m != 1.0 {
        for s in &mut subs {
            s.at = meryn_sim::SimTime::ZERO + s.at.since(meryn_sim::SimTime::ZERO).scale(1.0 / m);
        }
    }
    subs
}

/// Per-variant workload adjustments produced by the sweep axes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadModifier {
    /// Arrival-time compression factor (1.0 = as specified).
    pub load_multiplier: f64,
    /// Overrides the paper/generated inter-arrival gap.
    pub interarrival: Option<SimDuration>,
}

impl Default for WorkloadModifier {
    fn default() -> Self {
        WorkloadModifier {
            load_multiplier: 1.0,
            interarrival: None,
        }
    }
}

fn default_base_seed() -> u64 {
    DEFAULT_BASE_SEED
}

fn default_replicas() -> u64 {
    1
}

/// Replication and sweep axes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepSpec {
    /// Base seed: the single "headline" run uses it directly; replica
    /// `i` uses the derived stream seed `stream_seed(base_seed, i)`.
    #[serde(default = "default_base_seed")]
    pub base_seed: u64,
    /// Independent replica runs per variant (0 = headline run only).
    #[serde(default = "default_replicas")]
    pub replicas: u64,
    /// Axes to sweep; the variant set is their cartesian product, in
    /// declaration order (first axis outermost).
    #[serde(default)]
    pub axes: Vec<SweepAxis>,
}

impl Default for SweepSpec {
    fn default() -> Self {
        SweepSpec {
            base_seed: DEFAULT_BASE_SEED,
            replicas: 1,
            axes: Vec::new(),
        }
    }
}

/// One swept dimension: each value yields a platform/workload variant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SweepAxis {
    /// Placement-policy names (resolved through the policy registry).
    Policy {
        /// Policy names, e.g. `["meryn", "static"]`.
        values: Vec<String>,
    },
    /// The penalty divisor N of eq. 3.
    PenaltyFactor {
        /// N values.
        values: Vec<u64>,
    },
    /// Scales every cloud's static price (ablation A2).
    CloudPriceFactor {
        /// Multipliers over the spec's cloud prices.
        values: Vec<f64>,
    },
    /// Compresses arrival times by `1/m` (ablation A4 by another knob).
    LoadMultiplier {
        /// Load multipliers (1.0 = as specified).
        values: Vec<f64>,
    },
    /// Overrides the workload's inter-arrival gap, in seconds.
    InterarrivalSecs {
        /// Gaps in seconds.
        values: Vec<u64>,
    },
    /// Number of Client Manager instances (`null` = unbounded).
    ClientManagers {
        /// Instance counts.
        values: Vec<Option<usize>>,
    },
    /// Algorithm 2's storage rate, in micro-units per VM-second.
    StorageRateMicro {
        /// Rates in micro-units/VM·s.
        values: Vec<i64>,
    },
    /// Initial private-VM split across the VCs (one entry per VC).
    InitialVms {
        /// Splits; each inner vector must match the VC count.
        values: Vec<Vec<u64>>,
    },
    /// What to do when a queued application's SLA is at risk.
    ViolationPolicy {
        /// Policies to compare.
        values: Vec<ViolationPolicy>,
    },
    /// Toggles Algorithm 2 suspension bids (ablation A3's off switch).
    SuspensionEnabled {
        /// Switch positions.
        values: Vec<bool>,
    },
}

impl SweepAxis {
    /// Number of values on this axis.
    pub fn len(&self) -> usize {
        match self {
            SweepAxis::Policy { values } => values.len(),
            SweepAxis::PenaltyFactor { values } => values.len(),
            SweepAxis::CloudPriceFactor { values } => values.len(),
            SweepAxis::LoadMultiplier { values } => values.len(),
            SweepAxis::InterarrivalSecs { values } => values.len(),
            SweepAxis::ClientManagers { values } => values.len(),
            SweepAxis::StorageRateMicro { values } => values.len(),
            SweepAxis::InitialVms { values } => values.len(),
            SweepAxis::ViolationPolicy { values } => values.len(),
            SweepAxis::SuspensionEnabled { values } => values.len(),
        }
    }

    /// True when the axis has no values (such an axis is rejected).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rejects an axis no variant can be built from over `cfg`: one
    /// with no values, or an `InitialVms` split that does not name one
    /// count per VC (where [`Self::apply`] would panic).
    pub fn check(&self, cfg: &PlatformConfig) -> Result<(), String> {
        if self.is_empty() {
            return Err("sweep axis with no values".into());
        }
        match self {
            SweepAxis::InitialVms { values }
                if values.iter().any(|split| split.len() != cfg.vcs.len()) =>
            {
                Err("InitialVms split must name one count per VC".into())
            }
            _ => Ok(()),
        }
    }

    /// Applies value `idx` to the variant under construction and
    /// returns its label fragment (`key=value`).
    ///
    /// # Panics
    /// On an axis [`Self::check`] rejects.
    pub fn apply(
        &self,
        idx: usize,
        cfg: &mut PlatformConfig,
        modifier: &mut WorkloadModifier,
    ) -> String {
        match self {
            SweepAxis::Policy { values } => {
                cfg.policy = values[idx].clone();
                format!("policy={}", values[idx])
            }
            SweepAxis::PenaltyFactor { values } => {
                cfg.penalty_factor = values[idx];
                format!("penalty_factor={}", values[idx])
            }
            SweepAxis::CloudPriceFactor { values } => {
                *cfg = cfg.clone().with_cloud_price_factor(values[idx]);
                format!("cloud_price_factor={}", values[idx])
            }
            SweepAxis::LoadMultiplier { values } => {
                modifier.load_multiplier = values[idx];
                format!("load={}", values[idx])
            }
            SweepAxis::InterarrivalSecs { values } => {
                modifier.interarrival = Some(SimDuration::from_secs(values[idx]));
                format!("interarrival_s={}", values[idx])
            }
            SweepAxis::ClientManagers { values } => {
                cfg.client_managers = values[idx];
                match values[idx] {
                    Some(n) => format!("client_managers={n}"),
                    None => "client_managers=unbounded".to_owned(),
                }
            }
            SweepAxis::StorageRateMicro { values } => {
                cfg.storage_rate = VmRate::from_micro(values[idx]);
                format!("storage_rate_micro={}", values[idx])
            }
            SweepAxis::InitialVms { values } => {
                let split = &values[idx];
                assert_eq!(
                    split.len(),
                    cfg.vcs.len(),
                    "InitialVms split must name one count per VC"
                );
                for (vc, &n) in cfg.vcs.iter_mut().zip(split) {
                    vc.initial_vms = n;
                }
                let parts: Vec<String> = split.iter().map(u64::to_string).collect();
                format!("initial_vms={}", parts.join("/"))
            }
            SweepAxis::ViolationPolicy { values } => {
                cfg.violation_policy = values[idx];
                format!("violation_policy={:?}", values[idx])
            }
            SweepAxis::SuspensionEnabled { values } => {
                cfg.suspension_enabled = values[idx];
                format!("suspension={}", values[idx])
            }
        }
    }
}

fn default_true() -> bool {
    true
}

/// Which report sections [`crate::runner::run_scenario`] produces.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OutputSpec {
    /// Headline per-variant metrics (on by default).
    #[serde(default = "default_true")]
    pub summary: bool,
    /// Per-variant placement histograms (Table 1 labels).
    #[serde(default)]
    pub placements: bool,
    /// Per-variant used-VM step series (the Figure 5 quantity).
    #[serde(default)]
    pub series: bool,
    /// Compare the first two variants (the Figure 6 quantities).
    #[serde(default)]
    pub comparison: bool,
    /// Run the five Table 1 placement micro-scenarios over this many
    /// seed-derived samples each (at least 1; zero is rejected).
    #[serde(default)]
    pub table1_samples: Option<u64>,
    /// Run the scenario's single run (`--single`, `--checkpoint`,
    /// `--resume`) and its `--bench` runs in `ReportMode::Aggregate`:
    /// keep no per-application records, so the whole run stays
    /// O(live), as hyperscale submission counts need. Every report
    /// number is folded from exact totals in both modes, so this
    /// changes no number; [`crate::runner::run_scenario`]'s jobs keep
    /// no records whatever it says.
    #[serde(default)]
    pub aggregate: bool,
}

impl OutputSpec {
    /// The report mode [`Self::aggregate`] selects.
    pub fn report_mode(&self) -> ReportMode {
        if self.aggregate {
            ReportMode::Aggregate
        } else {
            ReportMode::Full
        }
    }

    /// Whether any requested output needs the per-variant base-seed
    /// run; when nothing does (e.g. a Table-1-only scenario), the
    /// runner skips those simulations entirely.
    pub fn needs_base_run(&self) -> bool {
        self.summary || self.placements || self.series || self.comparison
    }
}

impl Default for OutputSpec {
    fn default() -> Self {
        OutputSpec {
            summary: true,
            placements: false,
            series: false,
            comparison: false,
            table1_samples: None,
            aggregate: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paperish() -> Scenario {
        Scenario {
            name: "t".into(),
            description: String::new(),
            platform: PlatformConfig::paper("meryn"),
            workload: WorkloadSpec::Paper(PaperWorkloadParams::default()),
            sweep: SweepSpec::default(),
            outputs: OutputSpec::default(),
        }
    }

    #[test]
    fn json_round_trip_is_byte_identical() {
        let mut s = paperish();
        s.sweep.axes = vec![
            SweepAxis::Policy {
                values: vec!["meryn".into(), "static".into()],
            },
            SweepAxis::ClientManagers {
                values: vec![Some(1), None],
            },
        ];
        s.outputs.table1_samples = Some(100);
        let json = s.to_json();
        let back = Scenario::from_json(&json).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.to_json(), json, "re-serialization must be stable");
    }

    #[test]
    fn defaults_fill_missing_sections() {
        let json = r#"{
            "name": "minimal",
            "platform": PLATFORM,
            "workload": { "Explicit": { "submissions": [] } }
        }"#
        .replace(
            "PLATFORM",
            &serde_json::to_string(&PlatformConfig::paper("meryn")).unwrap(),
        );
        let s = Scenario::from_json(&json).unwrap();
        assert_eq!(s.sweep, SweepSpec::default());
        assert_eq!(s.outputs, OutputSpec::default());
        assert!(s.description.is_empty());
        assert!(s.outputs.summary);
    }

    #[test]
    fn paper_workload_materializes_with_modifiers() {
        let spec = WorkloadSpec::Paper(PaperWorkloadParams::default());
        let plain = spec.materialize(&WorkloadModifier::default()).unwrap();
        assert_eq!(plain.len(), 65);
        assert_eq!(plain[0].at, meryn_sim::SimTime::from_secs(5));

        let double = spec
            .materialize(&WorkloadModifier {
                load_multiplier: 2.0,
                interarrival: None,
            })
            .unwrap();
        assert_eq!(double[0].at.as_secs_f64(), 2.5);

        let slow = spec
            .materialize(&WorkloadModifier {
                load_multiplier: 1.0,
                interarrival: Some(SimDuration::from_secs(10)),
            })
            .unwrap();
        assert_eq!(slow[0].at, meryn_sim::SimTime::from_secs(10));
    }

    #[test]
    fn interarrival_override_on_explicit_workload_is_rejected() {
        let spec = WorkloadSpec::Explicit {
            submissions: vec![],
        };
        let err = spec
            .materialize(&WorkloadModifier {
                load_multiplier: 1.0,
                interarrival: Some(SimDuration::from_secs(1)),
            })
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(
            err.to_string().contains("only applies to Paper/Generated"),
            "{err}"
        );
    }

    #[test]
    fn axis_check_rejects_what_apply_would_panic_on() {
        let cfg = PlatformConfig::paper("meryn");
        let empty = SweepAxis::PenaltyFactor { values: vec![] };
        assert_eq!(empty.check(&cfg), Err("sweep axis with no values".into()));
        let short = SweepAxis::InitialVms {
            values: vec![vec![25, 25], vec![50]],
        };
        assert_eq!(
            short.check(&cfg),
            Err("InitialVms split must name one count per VC".into())
        );
        let fair = SweepAxis::InitialVms {
            values: vec![vec![25, 25]],
        };
        assert_eq!(fair.check(&cfg), Ok(()));
    }

    #[test]
    fn publish_atomically_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("meryn-spec-publish-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.json");
        publish_atomically(&path, "first\n").unwrap();
        publish_atomically(&path, "second\n").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "second\n");
        assert!(!dir.join("out.json.tmp").exists());
        assert!(publish_atomically(dir.join("no-such-dir/out.json"), "x").is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn axes_apply_and_label() {
        let mut cfg = PlatformConfig::paper("meryn");
        let mut modifier = WorkloadModifier::default();
        let label = SweepAxis::Policy {
            values: vec!["static".into()],
        }
        .apply(0, &mut cfg, &mut modifier);
        assert_eq!(label, "policy=static");
        assert_eq!(cfg.policy, "static");

        let label = SweepAxis::InitialVms {
            values: vec![vec![38, 12]],
        }
        .apply(0, &mut cfg, &mut modifier);
        assert_eq!(label, "initial_vms=38/12");
        assert_eq!(cfg.vcs[0].initial_vms, 38);

        let label =
            SweepAxis::LoadMultiplier { values: vec![2.0] }.apply(0, &mut cfg, &mut modifier);
        assert_eq!(label, "load=2");
        assert_eq!(modifier.load_multiplier, 2.0);
    }
}
