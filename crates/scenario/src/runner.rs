//! The one entry point every experiment goes through:
//! [`run_scenario`] takes a declarative [`Scenario`] and produces a
//! [`ScenarioReport`].
//!
//! Execution is layered on the replica-sweep harness
//! ([`crate::sweep`]): the sweep axes expand into a variant list
//! (cartesian product, declaration order), every (variant, seed) pair
//! becomes one simulation job, and all jobs fan out through the
//! order-preserving parallel [`fanout`]. Aggregation folds in job
//! order, so a scenario's JSON report is **byte-identical at any
//! thread count** — CI byte-compares `RAYON_NUM_THREADS=1` against the
//! threaded run for every checked-in spec.

use std::io;

use meryn_core::config::PlatformConfig;
use meryn_core::report::{compare, Headline, ReportMode, RunReport};
use meryn_core::{EngineCheckpoint, Platform, VcId};
use meryn_sim::metrics::SeriesSet;
use meryn_sim::{SimDuration, SimRng};
use meryn_workloads::generators::{GeneratedChunks, DEFAULT_CHUNK};
use meryn_workloads::Submission;
use serde::Serialize;

use crate::paper::{paper_range, TABLE1_CASES};
use crate::spec::{OutputSpec, Scenario, WorkloadModifier, WorkloadSpec};
use crate::sweep::{case_sweep, fanout, ReplicaStats};

/// One expanded sweep variant: a concrete platform config plus the
/// workload modifiers its axes selected.
#[derive(Debug, Clone)]
pub(crate) struct Variant {
    pub(crate) label: String,
    pub(crate) cfg: PlatformConfig,
    pub(crate) modifier: WorkloadModifier,
}

/// Expands the scenario's axes into the variant list (cartesian
/// product, first axis outermost), rejecting what
/// [`Scenario::check`] rejects.
pub(crate) fn expand_variants(scenario: &Scenario) -> io::Result<Vec<Variant>> {
    let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidInput, msg);
    if scenario.outputs.table1_samples == Some(0) {
        return Err(invalid(
            "outputs.table1_samples must be at least 1: a Table 1 row is a mean over its samples"
                .to_owned(),
        ));
    }
    let mut variants = vec![Variant {
        label: String::new(),
        cfg: scenario.platform.clone(),
        modifier: WorkloadModifier::default(),
    }];
    for axis in &scenario.sweep.axes {
        axis.check(&scenario.platform).map_err(invalid)?;
        let mut next = Vec::with_capacity(variants.len() * axis.len());
        for variant in &variants {
            for idx in 0..axis.len() {
                let mut cfg = variant.cfg.clone();
                let mut modifier = variant.modifier;
                let fragment = axis.apply(idx, &mut cfg, &mut modifier);
                let label = if variant.label.is_empty() {
                    fragment
                } else {
                    format!("{} {fragment}", variant.label)
                };
                next.push(Variant {
                    label,
                    cfg,
                    modifier,
                });
            }
        }
        variants = next;
    }
    for v in &mut variants {
        if v.label.is_empty() {
            v.label = "base".to_owned();
        }
        v.cfg
            .check()
            .map_err(|e| invalid(format!("variant {}: {e}", v.label)))?;
        scenario.workload.check_modifier(&v.modifier)?;
    }
    Ok(variants)
}

/// The first expanded variant: the one the single-run checkpoint
/// workflow operates on.
fn first_variant(scenario: &Scenario) -> io::Result<Variant> {
    crate::policies::install();
    Ok(expand_variants(scenario)?
        .into_iter()
        .next()
        .expect("a scenario always expands to at least one variant"))
}

/// A workload's arrival stream and its size. The one place that decides
/// how a workload reaches the engine: a `Generated` workload streams
/// from its seeded generator (nondecreasing arrivals, never
/// materialized); any other kind streams its materialized,
/// arrival-sorted list.
///
/// # Errors
/// An unreadable `TraceFile`.
fn arrivals(
    workload: &WorkloadSpec,
    modifier: &WorkloadModifier,
) -> io::Result<(u64, Box<dyn Iterator<Item = Submission> + Send>)> {
    Ok(match workload.streamable(modifier) {
        Some((cfg, seed)) => (
            cfg.count as u64,
            Box::new(GeneratedChunks::new(&cfg, seed, DEFAULT_CHUNK).submissions()),
        ),
        None => {
            let subs = workload.materialize(modifier)?;
            (subs.len() as u64, Box::new(subs.into_iter()))
        }
    })
}

/// Builds the run of `variant` at `seed` in report mode `mode`, with
/// the variant's workload attached as its arrival stream and the
/// scenario's series recording — or, given a checkpoint of that run,
/// restores it (the checkpoint carries seed, series recording and
/// mode). Every scenario run goes through here: [`run_scenario`]'s
/// jobs, the single run and its resume, and
/// [`crate::bench::bench_scenario`].
///
/// # Errors
/// As [`arrivals`].
pub(crate) fn build_run(
    scenario: &Scenario,
    variant: &Variant,
    seed: u64,
    mode: ReportMode,
    resume: Option<EngineCheckpoint>,
) -> io::Result<Platform> {
    if let Some(cp) = resume {
        let (_, workload) = arrivals(&scenario.workload, &variant.modifier)?;
        return Ok(Platform::from_checkpoint(cp, workload));
    }
    let cfg = variant.cfg.clone().with_seed(seed);
    // Curve recording is costly bookkeeping on long runs; only sample
    // the used-VM series when the requested outputs emit them. Peaks
    // (the Fig 5 headline numbers) are tracked either way.
    let mut platform = Platform::new(cfg)
        .with_series_recording(scenario.outputs.series)
        .with_report_mode(mode);
    // Deploy first, then build the stream: allocating the workload
    // before the shards' queues made glibc trim the heap between
    // back-to-back set-ups (hyperscale-ci on a 2-vCPU Xeon: 4.2 ms
    // instead of 0.5 ms per set-up).
    let (count, workload) = arrivals(&scenario.workload, &variant.modifier)?;
    let Ok(()) = platform.stream_workload(count, workload);
    Ok(platform)
}

impl Scenario {
    /// Checks the spec the way [`run_scenario`] does before any job
    /// runs, without running anything.
    ///
    /// # Errors
    /// `InvalidInput` with the first problem found: zero
    /// `outputs.table1_samples`, an axis
    /// [`crate::spec::SweepAxis::check`] rejects, a variant whose
    /// platform config fails [`PlatformConfig::check`], or an
    /// `InterarrivalSecs` axis over an `Explicit` or `TraceFile`
    /// workload, whose arrival instants are given.
    pub fn check(&self) -> io::Result<()> {
        crate::policies::install();
        expand_variants(self).map(drop)
    }

    /// Checks that `cp` was taken from this scenario's single run (see
    /// [`single_run_start`]), so [`single_run_resume`] can re-derive
    /// its workload: the checkpoint's platform config must be the first
    /// variant's at the base seed, and its workload size the variant's.
    ///
    /// # Errors
    /// What [`Self::check`] rejects, an unreadable `TraceFile`, or
    /// `InvalidInput` naming the mismatch.
    pub fn check_checkpoint(&self, cp: &EngineCheckpoint) -> io::Result<()> {
        let variant = first_variant(self)?;
        let mismatch = |what: String| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "the checkpoint is not from this spec's first variant ({}): {what}",
                    variant.label
                ),
            )
        };
        if cp.cfg != variant.cfg.clone().with_seed(self.sweep.base_seed) {
            return Err(mismatch(format!(
                "its platform config differs from the variant's at base seed {:#x}",
                self.sweep.base_seed
            )));
        }
        let (count, _) = arrivals(&self.workload, &variant.modifier)?;
        if cp.arrival_count() != count {
            return Err(mismatch(format!(
                "its workload holds {} submissions, the variant's {count}",
                cp.arrival_count()
            )));
        }
        Ok(())
    }
}

/// Headline metrics of one run (the base-seed run of a variant).
#[derive(Debug, Clone, Serialize)]
pub struct RunSummary {
    /// Workload completion time [s].
    pub completion_secs: f64,
    /// Total provider cost [units].
    pub total_cost_units: f64,
    /// Total revenue [units].
    pub revenue_units: f64,
    /// Provider profit [units].
    pub profit_units: f64,
    /// Peak concurrent private VMs.
    pub peak_private_vms: f64,
    /// Peak concurrent cloud VMs (the paper's Fig 5 headline).
    pub peak_cloud_vms: f64,
    /// Deadline violations.
    pub violations: usize,
    /// Zero-bid VM transfers.
    pub transfers: u64,
    /// Cloud VMs leased.
    pub bursts: u64,
    /// Application suspensions.
    pub suspensions: u64,
    /// Queued jobs escalated to the cloud.
    pub escalations: u64,
    /// Total delay penalties paid [units].
    pub penalties_units: f64,
    /// Rejected submissions.
    pub rejected: usize,
    /// Admitted applications.
    pub apps: usize,
    /// Mean execution time [s].
    pub avg_exec_secs: f64,
    /// Mean provider cost per app [units].
    pub avg_cost_units: f64,
    /// Mean submission processing time [s] (the Table 1 quantity).
    pub processing_mean_s: f64,
    /// Worst submission processing time [s].
    pub processing_max_s: f64,
    /// Fault-plane tallies — present only when the platform armed a
    /// failure process, so fault-free scenario reports stay
    /// byte-identical to their pre-fault-plane goldens.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub faults: Option<meryn_core::report::FaultStats>,
    /// Per-VC aggregates, VC order.
    pub groups: Vec<GroupSummary>,
}

/// One VC's slice of a run.
#[derive(Debug, Clone, Serialize)]
pub struct GroupSummary {
    /// VC name.
    pub vc: String,
    /// Applications hosted.
    pub apps: usize,
    /// Mean execution time [s].
    pub avg_exec_secs: f64,
    /// Mean provider cost per app [units].
    pub avg_cost_units: f64,
    /// Deadline violations.
    pub violations: usize,
}

impl RunSummary {
    fn from_report(report: &RunReport, vc_names: &[String]) -> Self {
        // Every quantity is read from the run's exact totals, which
        // both report modes fold, so a run that kept its records and
        // one that did not give the same summary, bit for bit.
        let all = report.group(None);
        let (processing_mean_s, processing_max_s) = report.processing_mean_max_secs();
        RunSummary {
            completion_secs: report.completion_secs(),
            total_cost_units: report.total_cost().as_units_f64(),
            revenue_units: report.total_revenue().as_units_f64(),
            profit_units: report.profit().as_units_f64(),
            peak_private_vms: report.peak_private,
            peak_cloud_vms: report.peak_cloud,
            violations: report.violations(),
            transfers: report.transfers,
            bursts: report.bursts,
            suspensions: report.suspensions,
            escalations: report.escalations,
            penalties_units: report.total_penalty().as_units_f64(),
            rejected: report.rejected,
            apps: report.apps_count(),
            avg_exec_secs: all.avg_exec_secs,
            avg_cost_units: all.avg_cost_units,
            processing_mean_s,
            processing_max_s,
            faults: report.faults,
            groups: vc_names
                .iter()
                .enumerate()
                .map(|(i, name)| {
                    let g = report.group(Some(VcId(i)));
                    GroupSummary {
                        vc: name.clone(),
                        apps: g.count,
                        avg_exec_secs: g.avg_exec_secs,
                        avg_cost_units: g.avg_cost_units,
                        violations: g.violations,
                    }
                })
                .collect(),
        }
    }
}

/// What one [`run_scenario`] job keeps of its run: the headline every
/// job yields and, for a base-seed run, the report sections the spec
/// asks for. Every one of them reads the run's totals, so jobs run in
/// [`ReportMode::Aggregate`] and keep no per-application records.
struct JobResult {
    headline: Headline,
    summary: Option<RunSummary>,
    placements: Option<Vec<(String, usize)>>,
    series: Option<SeriesSet>,
}

impl JobResult {
    /// Reduces a finished run; `base` marks the base-seed run, whose
    /// sections the report prints.
    fn new(report: RunReport, variant: &Variant, outputs: &OutputSpec, base: bool) -> Self {
        let vc_names = || {
            variant
                .cfg
                .vcs
                .iter()
                .map(|v| v.name.clone())
                .collect::<Vec<_>>()
        };
        JobResult {
            headline: report.headline(),
            summary: (base && outputs.summary)
                .then(|| RunSummary::from_report(&report, &vc_names())),
            placements: (base && outputs.placements).then(|| report.placement_counts()),
            series: (base && outputs.series).then_some(report.series),
        }
    }
}

/// One variant's results.
#[derive(Debug, Clone, Serialize)]
pub struct VariantReport {
    /// Axis label, e.g. `"policy=meryn penalty_factor=4"`.
    pub label: String,
    /// The placement policy this variant ran.
    pub policy: String,
    /// Headline metrics of the base-seed run (absent when the
    /// scenario's `outputs.summary` is off).
    pub base: Option<RunSummary>,
    /// Replica-sweep aggregates (absent when `sweep.replicas == 0`).
    pub replicas: Option<ReplicaStats>,
    /// Placement histogram of the base run (when requested).
    pub placements: Option<Vec<(String, usize)>>,
    /// Used-VM step series of the base run (when requested).
    pub series: Option<SeriesSet>,
}

impl VariantReport {
    /// The base-run summary, for callers that know their scenario
    /// requested it.
    ///
    /// # Panics
    /// When the scenario ran with `outputs.summary` off.
    pub fn summary(&self) -> &RunSummary {
        self.base
            .as_ref()
            .expect("scenario outputs.summary was off — no base summary recorded")
    }
}

/// The Figure 6 comparison of the first two variants.
#[derive(Debug, Clone, Serialize)]
pub struct ComparisonReport {
    /// First variant's label (the "a" side, typically Meryn).
    pub a: String,
    /// Second variant's label (the "b" side, typically static).
    pub b: String,
    /// Completion-time improvement of a over b, %.
    pub completion_improvement_pct: f64,
    /// Mean-cost improvement of a over b, %.
    pub cost_improvement_pct: f64,
    /// Total cost saved by a relative to b [units].
    pub cost_saved_units: f64,
    /// Peak cloud VMs of a.
    pub peak_cloud_a: f64,
    /// Peak cloud VMs of b.
    pub peak_cloud_b: f64,
}

/// One Table 1 row from the placement micro-scenarios.
#[derive(Debug, Clone, Serialize)]
pub struct Table1Row {
    /// Placement case label.
    pub case: String,
    /// The paper's measured range [s], when it reports one.
    pub paper_range_s: Option<(f64, f64)>,
    /// Measured mean [s].
    pub mean_s: f64,
    /// Measured minimum [s].
    pub min_s: f64,
    /// Measured maximum [s].
    pub max_s: f64,
    /// Samples per case.
    pub samples: u64,
}

/// Everything [`run_scenario`] produced.
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioReport {
    /// Scenario name.
    pub scenario: String,
    /// Scenario description.
    pub description: String,
    /// Base seed of the headline runs.
    pub base_seed: u64,
    /// Replica runs per variant.
    pub replicas: u64,
    /// One entry per expanded variant, axis order.
    pub variants: Vec<VariantReport>,
    /// First-two-variants comparison (when requested).
    pub comparison: Option<ComparisonReport>,
    /// Table 1 micro-scenario sweep (when requested).
    pub table1: Option<Vec<Table1Row>>,
}

/// Runs a scenario: expands the axes, fans every (variant, seed) job
/// out through the parallel harness, aggregates in job order.
///
/// # Errors
/// `InvalidInput` for a spec [`Scenario::check`] rejects, found before
/// any job runs; otherwise only workload materialization can fail (an
/// unreadable `TraceFile`).
pub fn run_scenario(scenario: &Scenario) -> io::Result<ScenarioReport> {
    crate::policies::install();
    let variants = expand_variants(scenario)?;
    let base_seed = scenario.sweep.base_seed;
    let replicas = scenario.sweep.replicas;
    let outputs = &scenario.outputs;
    // The base-seed headline run only executes when some requested
    // output consumes it (a Table-1-only scenario skips it entirely).
    let with_base = outputs.needs_base_run();

    // One job per (variant, seed): the base-seed headline run first
    // (when needed), then the derived replica streams. Flat fanout,
    // order preserved; each job builds its own arrival stream and
    // reduces its report to totals-derived numbers before it returns,
    // so no job keeps records, whatever `outputs.aggregate` says.
    let mut jobs: Vec<(&Variant, u64, bool)> = Vec::new();
    for variant in &variants {
        if with_base {
            jobs.push((variant, base_seed, true));
        }
        for i in 0..replicas {
            jobs.push((variant, SimRng::stream_seed(base_seed, i), false));
        }
    }
    let results = fanout(jobs, |(variant, seed, base)| {
        let mut platform = build_run(scenario, variant, seed, ReportMode::Aggregate, None)?;
        platform.run_to_completion();
        Ok(JobResult::new(platform.finalize(), variant, outputs, base))
    })
    .into_iter()
    .collect::<io::Result<Vec<JobResult>>>()?;

    let per_variant = replicas as usize + usize::from(with_base);
    let comparison = (outputs.comparison && variants.len() >= 2).then(|| {
        let cmp = compare(&results[0].headline, &results[per_variant].headline);
        ComparisonReport {
            a: variants[0].label.clone(),
            b: variants[1].label.clone(),
            completion_improvement_pct: cmp.completion_improvement_pct,
            cost_improvement_pct: cmp.cost_improvement_pct,
            cost_saved_units: cmp.cost_saved.as_units_f64(),
            peak_cloud_a: cmp.peak_cloud_a,
            peak_cloud_b: cmp.peak_cloud_b,
        }
    });

    let mut results = results.into_iter();
    let variant_reports = variants
        .iter()
        .map(|variant| {
            let base = if with_base { results.next() } else { None };
            let replica_headlines: Vec<Headline> = results
                .by_ref()
                .take(replicas as usize)
                .map(|r| r.headline)
                .collect();
            let (summary, placements, series) = match base {
                Some(b) => (b.summary, b.placements, b.series),
                None => (None, None, None),
            };
            VariantReport {
                label: variant.label.clone(),
                policy: variant.cfg.policy.clone(),
                base: summary,
                replicas: (replicas > 0).then(|| ReplicaStats::from_headlines(&replica_headlines)),
                placements,
                series,
            }
        })
        .collect();

    let table1 = outputs.table1_samples.map(|samples| {
        TABLE1_CASES
            .iter()
            .map(|case| {
                let summary = case_sweep(case, base_seed, samples);
                Table1Row {
                    case: (*case).to_owned(),
                    paper_range_s: paper_range(case),
                    mean_s: summary.mean(),
                    min_s: summary.min(),
                    max_s: summary.max(),
                    samples,
                }
            })
            .collect()
    });

    Ok(ScenarioReport {
        scenario: scenario.name.clone(),
        description: scenario.description.clone(),
        base_seed,
        replicas,
        variants: variant_reports,
        comparison,
        table1,
    })
}

/// Prepares the *single run* the checkpoint workflow operates on: the
/// base-seed run of the scenario's first expanded variant, configured
/// as [`run_scenario`] configures it except that it keeps the spec's
/// report mode ([`OutputSpec::report_mode`]), so a full-mode spec's
/// single run lists its records. Drive it with
/// [`Platform::run_until`] + [`Platform::checkpoint`], or straight to
/// completion for the uninterrupted comparator.
///
/// # Errors
/// As [`run_scenario`], before the platform is built.
pub fn single_run_start(scenario: &Scenario) -> io::Result<Platform> {
    let variant = first_variant(scenario)?;
    let mode = scenario.outputs.report_mode();
    build_run(scenario, &variant, scenario.sweep.base_seed, mode, None)
}

/// Resumes the [`single_run_start`] run from a checkpoint, re-deriving
/// its arrival stream from the scenario (the workload is deterministic
/// in its spec; the checkpoint carries only the cursor). Resuming and
/// running to completion is byte-identical to the uninterrupted run.
///
/// # Panics
/// When [`Scenario::check_checkpoint`] rejects the pair, with its
/// message.
pub fn single_run_resume(scenario: &Scenario, cp: EngineCheckpoint) -> Platform {
    let resume = || {
        scenario.check_checkpoint(&cp)?;
        let variant = first_variant(scenario)?;
        let mode = scenario.outputs.report_mode();
        build_run(scenario, &variant, scenario.sweep.base_seed, mode, Some(cp))
    };
    resume().unwrap_or_else(|e| panic!("cannot resume {}: {e}", scenario.name))
}

impl ScenarioReport {
    /// Serializes to pretty JSON, newline-terminated (the `--json`
    /// artifact CI byte-compares across thread counts).
    pub fn to_json(&self) -> String {
        let mut json = serde_json::to_string_pretty(self).expect("report types are serde-safe");
        json.push('\n');
        json
    }

    /// Renders the report for people: one block per section the
    /// report carries (summary tables, replica spread, comparison,
    /// Table 1, placements, used-VM series), so what gets printed
    /// follows from the spec's `outputs` alone. Every number shown is
    /// also in [`Self::to_json`].
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "scenario {} — base seed {:#x}, {} replica(s) per variant",
            self.scenario, self.base_seed, self.replicas
        );
        if !self.description.is_empty() {
            let _ = writeln!(out, "{}", self.description);
        }
        let label_w = self
            .variants
            .iter()
            .map(|v| v.label.len())
            .max()
            .unwrap_or(4)
            .max(4);
        // The summary tables only appear when the scenario asked for
        // them (`outputs.summary`; the runner then populated `base`).
        // Two tables, so neither outgrows a terminal: outcomes with the
        // replica spread, then money and front-door timing.
        if self.variants.iter().any(|v| v.base.is_some()) {
            let _ = writeln!(
                out,
                "\n{:<label_w$} {:>12} {:>12} {:>10} {:>9} {:>7} {:>9} {:>8} {:>6}",
                "variant",
                "completion",
                "cost [u]",
                "peak cld",
                "transfers",
                "bursts",
                "suspends",
                "violate",
                "rejct"
            );
            for v in &self.variants {
                if let Some(base) = &v.base {
                    let _ = writeln!(
                        out,
                        "{:<label_w$} {:>12.0} {:>12.0} {:>10.0} {:>9} {:>7} {:>9} {:>8} {:>6}",
                        v.label,
                        base.completion_secs,
                        base.total_cost_units,
                        base.peak_cloud_vms,
                        base.transfers,
                        base.bursts,
                        base.suspensions,
                        base.violations,
                        base.rejected
                    );
                }
                if let Some(stats) = &v.replicas {
                    if stats.completion.count() > 1 {
                        let _ = writeln!(
                            out,
                            "{:<label_w$} {:>7.1} ±{:<4.1} {:>7.0} ±{:<4.0} {:>5.1}±{:<3.1} (n={})",
                            "  replicas",
                            stats.completion.mean(),
                            stats.completion.std_dev(),
                            stats.cost.mean(),
                            stats.cost.std_dev(),
                            stats.peak_cloud.mean(),
                            stats.peak_cloud.std_dev(),
                            stats.completion.count()
                        );
                    }
                }
            }
            let _ = writeln!(
                out,
                "\n{:<label_w$} {:>8} {:>12} {:>13} {:>8} {:>13} {:>12}",
                "variant",
                "peak prv",
                "profit [u]",
                "penalties [u]",
                "escalate",
                "proc mean [s]",
                "proc max [s]"
            );
            for v in &self.variants {
                if let Some(base) = &v.base {
                    let _ = writeln!(
                        out,
                        "{:<label_w$} {:>8.0} {:>12.0} {:>13.0} {:>8} {:>13.1} {:>12.0}",
                        v.label,
                        base.peak_private_vms,
                        base.profit_units,
                        base.penalties_units,
                        base.escalations,
                        base.processing_mean_s,
                        base.processing_max_s
                    );
                }
            }
        }
        if let Some(cmp) = &self.comparison {
            let _ = writeln!(out, "\ncomparison: {} vs {}", cmp.a, cmp.b);
            let _ = writeln!(
                out,
                "  completion improvement : {:>7.2}%",
                cmp.completion_improvement_pct
            );
            let _ = writeln!(
                out,
                "  avg cost improvement   : {:>7.2}%",
                cmp.cost_improvement_pct
            );
            let _ = writeln!(
                out,
                "  cost saved             : {:>7.0} u",
                cmp.cost_saved_units
            );
            let _ = writeln!(
                out,
                "  peak cloud VMs         : {:.0} vs {:.0}",
                cmp.peak_cloud_a, cmp.peak_cloud_b
            );
            // The Fig 6(a)/(b) bars: per-app averages of the two
            // compared runs, over all apps and per VC.
            let base = |i: usize| self.variants.get(i).and_then(|v| v.base.as_ref());
            if let (Some(a), Some(b)) = (base(0), base(1)) {
                let _ = writeln!(
                    out,
                    "  revenue                : {:.0} vs {:.0} u",
                    a.revenue_units, b.revenue_units
                );
                let _ = writeln!(
                    out,
                    "  {:<16} {:>12} {:>12} {:>12} {:>12}",
                    "per app", "exec a [s]", "exec b [s]", "cost a [u]", "cost b [u]"
                );
                let mut row = |name: &str, exec_a: f64, exec_b: f64, a_units: f64, b_units: f64| {
                    let _ = writeln!(
                        out,
                        "  {name:<16} {exec_a:>12.0} {exec_b:>12.0} {a_units:>12.0} {b_units:>12.0}"
                    );
                };
                row(
                    "all apps",
                    a.avg_exec_secs,
                    b.avg_exec_secs,
                    a.avg_cost_units,
                    b.avg_cost_units,
                );
                for (ga, gb) in a.groups.iter().zip(&b.groups) {
                    row(
                        &ga.vc,
                        ga.avg_exec_secs,
                        gb.avg_exec_secs,
                        ga.avg_cost_units,
                        gb.avg_cost_units,
                    );
                }
            }
        }
        if let Some(rows) = &self.table1 {
            let _ = writeln!(
                out,
                "\n{:<28} {:>12} {:>24}",
                "Table 1 case", "paper [s]", "measured min~max (mean)"
            );
            for r in rows {
                let paper = match r.paper_range_s {
                    Some((lo, hi)) => format!("{lo:.0}~{hi:.0}"),
                    None => "—".to_owned(),
                };
                let _ = writeln!(
                    out,
                    "{:<28} {:>12} {:>13.0}~{:<3.0} ({:.1})",
                    r.case, paper, r.min_s, r.max_s, r.mean_s
                );
            }
        }
        for v in &self.variants {
            if let Some(placements) = &v.placements {
                let _ = writeln!(out, "\nplacements [{}]:", v.label);
                for (case, count) in placements {
                    let _ = writeln!(out, "  {case:<28} {count}");
                }
            }
        }
        for v in &self.variants {
            if let Some(series) = &v.series {
                let _ = writeln!(out, "\nseries [{}] (60 s grid):", v.label);
                out.push_str(&series.to_csv(SimDuration::from_secs(60)));
                let _ = writeln!(out, "\nshape [{}]:", v.label);
                out.push_str(&series.to_ascii_chart(60, SimDuration::from_secs(120)));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{OutputSpec, SweepAxis, SweepSpec, WorkloadSpec};
    use meryn_workloads::PaperWorkloadParams;

    fn small_scenario() -> Scenario {
        let mut platform = PlatformConfig::paper("meryn");
        platform.private_capacity = 4;
        platform.vcs = vec![
            meryn_core::config::VcConfig::batch("VC1", 2),
            meryn_core::config::VcConfig::batch("VC2", 2),
        ];
        Scenario {
            name: "small".into(),
            description: "unit fixture".into(),
            platform,
            workload: WorkloadSpec::Paper(PaperWorkloadParams {
                vc1_apps: 4,
                vc2_apps: 2,
                ..Default::default()
            }),
            sweep: SweepSpec {
                replicas: 2,
                axes: vec![SweepAxis::Policy {
                    values: vec!["meryn".into(), "static".into()],
                }],
                ..Default::default()
            },
            outputs: OutputSpec {
                comparison: true,
                placements: true,
                ..Default::default()
            },
        }
    }

    #[test]
    fn axes_expand_in_declaration_order() {
        let mut s = small_scenario();
        s.sweep
            .axes
            .push(SweepAxis::PenaltyFactor { values: vec![1, 4] });
        let variants = expand_variants(&s).unwrap();
        let labels: Vec<&str> = variants.iter().map(|v| v.label.as_str()).collect();
        assert_eq!(
            labels,
            [
                "policy=meryn penalty_factor=1",
                "policy=meryn penalty_factor=4",
                "policy=static penalty_factor=1",
                "policy=static penalty_factor=4",
            ]
        );
    }

    #[test]
    fn no_axes_yields_the_base_variant() {
        let mut s = small_scenario();
        s.sweep.axes.clear();
        let variants = expand_variants(&s).unwrap();
        assert_eq!(variants.len(), 1);
        assert_eq!(variants[0].label, "base");
    }

    #[test]
    fn run_scenario_produces_requested_sections() {
        let report = run_scenario(&small_scenario()).unwrap();
        assert_eq!(report.variants.len(), 2);
        assert_eq!(report.variants[0].policy, "meryn");
        assert_eq!(report.variants[1].policy, "static");
        assert!(report.comparison.is_some());
        assert!(report.table1.is_none());
        for v in &report.variants {
            assert_eq!(v.summary().apps, 6);
            assert!(v.placements.is_some());
            assert!(v.series.is_none());
            let stats = v.replicas.as_ref().expect("replicas requested");
            assert_eq!(stats.completion.count(), 2);
        }
        let rendered = report.render();
        assert!(rendered.contains("policy=meryn"));
        assert!(rendered.contains("comparison:"));
    }

    #[test]
    fn render_prints_every_section_the_report_carries() {
        let mut s = small_scenario();
        s.sweep.replicas = 0;
        s.outputs.series = true;
        let rendered = run_scenario(&s).unwrap().render();
        for needle in [
            "peak prv",
            "profit [u]",
            "proc max [s]",
            "revenue",
            "all apps",
            "VC2",
            "placements [policy=static]:",
            "series [policy=meryn] (60 s grid):\ntime_s,used_private_vms,used_cloud_vms\n",
            "shape [policy=static]:\nused_private_vms",
        ] {
            assert!(
                rendered.contains(needle),
                "missing {needle:?} in:\n{rendered}"
            );
        }
        s.outputs.series = false;
        s.outputs.comparison = false;
        let rendered = run_scenario(&s).unwrap().render();
        assert!(!rendered.contains("series ["), "no series requested");
        assert!(!rendered.contains("all apps"), "no comparison requested");
    }

    #[test]
    fn summary_off_skips_the_base_runs_entirely() {
        let mut s = small_scenario();
        s.sweep.replicas = 0;
        s.outputs = OutputSpec {
            summary: false,
            placements: false,
            series: false,
            comparison: false,
            table1_samples: Some(2),
            aggregate: false,
        };
        let report = run_scenario(&s).unwrap();
        for v in &report.variants {
            assert!(v.base.is_none(), "summary off must not record a base run");
            assert!(v.placements.is_none());
            assert!(v.series.is_none());
        }
        assert_eq!(report.table1.as_ref().map(Vec::len), Some(5));
        // Rendering without a summary section still works.
        let rendered = report.render();
        assert!(
            !rendered.contains("completion"),
            "no summary table expected"
        );
        assert!(rendered.contains("Table 1 case"));
    }

    #[test]
    fn zero_replicas_skips_replica_stats() {
        let mut s = small_scenario();
        s.sweep.replicas = 0;
        let report = run_scenario(&s).unwrap();
        assert!(report.variants[0].replicas.is_none());
    }

    #[test]
    fn an_unreadable_trace_is_an_error_not_a_panic() {
        let mut s = small_scenario();
        s.workload = WorkloadSpec::TraceFile {
            path: "/nonexistent/meryn-no-such-trace.json".into(),
        };
        let err = run_scenario(&s).expect_err("the trace cannot be read");
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn report_json_is_stable_for_identical_runs() {
        let s = small_scenario();
        let a = run_scenario(&s).unwrap().to_json();
        let b = run_scenario(&s).unwrap().to_json();
        assert_eq!(a, b);
    }
}
