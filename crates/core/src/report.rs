//! Run reports — the measurements behind Table 1 and Figures 5–6.

use std::collections::BTreeMap;

use meryn_sim::metrics::SeriesSet;
use meryn_sim::stats::{exact_mean, improvement_pct, Summary};
use meryn_sim::{SimDuration, SimTime};
use meryn_sla::Money;
use serde::{Deserialize, Serialize};

use crate::ids::{AppId, VcId};

/// One admitted application's measurements, built when it completes
/// (or, if it never does, when the run is finalized).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppRecord {
    /// The application.
    pub id: AppId,
    /// Hosting VC.
    pub vc: VcId,
    /// Hosting VC's name.
    pub vc_name: String,
    /// Placement case (Table 1 row label).
    pub placement: String,
    /// Submission instant.
    pub submitted: SimTime,
    /// The contract's deadline instant: submission plus the agreed
    /// deadline.
    pub deadline: SimTime,
    /// Framework hand-off instant.
    pub framework_submitted: Option<SimTime>,
    /// Completion instant.
    pub completed: Option<SimTime>,
    /// Table 1 processing time.
    pub processing: Option<SimDuration>,
    /// Actual execution duration (Fig. 6(a) quantity).
    pub exec: SimDuration,
    /// Provider cost (Fig. 6(b) quantity).
    pub cost: Money,
    /// Agreed price.
    pub price: Money,
    /// Revenue (price − penalty).
    pub revenue: Money,
    /// Delay penalty paid.
    pub penalty: Money,
    /// Whether the deadline was missed.
    pub violated: bool,
    /// When the Application Controller saw the violation, if it did
    /// before the application completed (see
    /// [`crate::app::Application::violation_detected`]).
    pub violation_detected: Option<SimTime>,
    /// Times the app was suspended to lend its VMs.
    pub suspensions: u32,
    /// Negotiation rounds to sign.
    pub negotiation_rounds: u32,
}

/// Aggregates over a group of applications (a VC, or all of them).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GroupStats {
    /// Number of applications.
    pub count: usize,
    /// Mean execution time in seconds.
    pub avg_exec_secs: f64,
    /// Mean provider cost in units.
    pub avg_cost_units: f64,
    /// Total provider cost.
    pub total_cost: Money,
    /// Total revenue.
    pub total_revenue: Money,
    /// Deadline violations.
    pub violations: usize,
}

/// Whether a run keeps its per-application records.
///
/// In either mode a completed application retires from the engine at
/// its canonical effect position and folds into the run's exact
/// totals ([`AggregateReport`]), so engine memory is O(live) and every
/// headline, mean and placement count is the same in both modes. The
/// mode decides only whether the application's [`AppRecord`] is kept
/// as well: [`ReportMode::Full`] (the default) keeps it, so the record
/// list — and nothing else — grows with the submission history, as
/// per-app outputs like Table 1 and the placement listings need.
/// [`ReportMode::Aggregate`] builds no record, keeping the whole run
/// O(live) — the only mode that survives hyperscale submission counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ReportMode {
    /// Keep every per-application record (the default).
    #[default]
    Full,
    /// Keep the totals only; `apps` stays empty.
    Aggregate,
}

/// Milliseconds per second: the scale of a mean over [`SimDuration`]
/// totals read in seconds.
const MS_PER_SEC: u64 = 1000;

/// What the totals read of one application: a borrowed view that an
/// [`AppRecord`] and a live application both give, so a run that keeps
/// no records folds without building one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome<'a> {
    /// Hosting VC.
    pub vc: VcId,
    /// Placement case (Table 1 row label).
    pub placement: &'a str,
    /// Actual execution duration.
    pub exec: SimDuration,
    /// Table 1 processing time, once handed to the framework.
    pub processing: Option<SimDuration>,
    /// Provider cost.
    pub cost: Money,
    /// Revenue (price − penalty).
    pub revenue: Money,
    /// Delay penalty paid.
    pub penalty: Money,
    /// Whether the deadline was missed.
    pub violated: bool,
}

impl AppRecord {
    /// The part of the record the totals fold.
    pub fn outcome(&self) -> Outcome<'_> {
        Outcome {
            vc: self.vc,
            placement: &self.placement,
            exec: self.exec,
            processing: self.processing,
            cost: self.cost,
            revenue: self.revenue,
            penalty: self.penalty,
            violated: self.violated,
        }
    }
}

/// One VC's exact totals. Every field is an integer sum or count, so
/// the fold is order-free: the same applications give the same totals
/// whatever order they retired in, in either report mode.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct VcAggregate {
    /// Applications folded in.
    pub count: u64,
    /// Σ execution time [ms].
    pub exec_ms: u64,
    /// Total provider cost.
    pub total_cost: Money,
    /// Total revenue.
    pub total_revenue: Money,
    /// Total delay penalties paid.
    pub total_penalty: Money,
    /// Deadline violations.
    pub violations: u64,
    /// Placement histogram (case label → count).
    pub placements: BTreeMap<String, u64>,
}

impl VcAggregate {
    /// Folds one application in.
    pub fn push(&mut self, app: &Outcome<'_>) {
        self.count += 1;
        self.exec_ms += app.exec.as_millis();
        self.total_cost += app.cost;
        self.total_revenue += app.revenue;
        self.total_penalty += app.penalty;
        self.violations += u64::from(app.violated);
        self.count_placement(app.placement, 1);
    }

    /// Adds `n` to a placement label's count, allocating the label only
    /// the first time it appears.
    fn count_placement(&mut self, label: &str, n: u64) {
        match self.placements.get_mut(label) {
            Some(count) => *count += n,
            None => {
                self.placements.insert(label.to_owned(), n);
            }
        }
    }

    /// Adds another VC's totals in (sums, so the order does not matter).
    pub fn merge(&mut self, other: &VcAggregate) {
        self.count += other.count;
        self.exec_ms += other.exec_ms;
        self.total_cost += other.total_cost;
        self.total_revenue += other.total_revenue;
        self.total_penalty += other.total_penalty;
        self.violations += other.violations;
        for (label, &n) in &other.placements {
            self.count_placement(label, n);
        }
    }

    /// The group statistics these totals give: each mean is the exact
    /// quotient of its total (see [`meryn_sim::stats::exact_mean`]).
    fn stats(&self) -> GroupStats {
        GroupStats {
            count: self.count as usize,
            avg_exec_secs: exact_mean(i128::from(self.exec_ms), self.count, MS_PER_SEC),
            avg_cost_units: self.total_cost.mean_units_f64(self.count),
            total_cost: self.total_cost,
            total_revenue: self.total_revenue,
            violations: self.violations as usize,
        }
    }
}

/// A run's exact totals: per-VC sums plus the submission processing
/// times, folded from every admitted application in both report modes.
/// Every report number is read from here.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AggregateReport {
    /// Per-VC totals, indexed by `VcId`.
    pub per_vc: Vec<VcAggregate>,
    /// Applications with a processing time (handed to their framework).
    pub processing_count: u64,
    /// Σ processing time [ms].
    pub processing_ms: u64,
    /// Longest processing time [ms] (0 when none).
    pub processing_max_ms: u64,
}

impl AggregateReport {
    /// Creates empty totals for `vcs` virtual clusters.
    pub fn new(vcs: usize) -> Self {
        AggregateReport {
            per_vc: vec![VcAggregate::default(); vcs],
            ..Default::default()
        }
    }

    /// Folds one application in.
    pub fn push(&mut self, app: &Outcome<'_>) {
        self.per_vc[app.vc.0].push(app);
        if let Some(p) = app.processing {
            self.processing_count += 1;
            self.processing_ms += p.as_millis();
            self.processing_max_ms = self.processing_max_ms.max(p.as_millis());
        }
    }

    /// Every VC's totals added together.
    fn all(&self) -> VcAggregate {
        let mut all = VcAggregate::default();
        for a in &self.per_vc {
            all.merge(a);
        }
        all
    }

    /// Group stats over all VCs (`None`) or one VC.
    pub fn group(&self, vc: Option<VcId>) -> GroupStats {
        match vc {
            Some(v) => self
                .per_vc
                .get(v.0)
                .map_or_else(|| VcAggregate::default().stats(), VcAggregate::stats),
            None => self.all().stats(),
        }
    }
}

/// Fault-plane tallies: what the seeded failure processes injected and
/// what the recovery machinery absorbed. Present in a report exactly
/// when the run's [`crate::config::FaultSpec`] armed a failure process
/// — faults-off reports serialize byte-identically to pre-fault-plane
/// ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FaultStats {
    /// Slave VMs crashed mid-stint.
    pub vm_crashes: u64,
    /// Crash victims on the private pool (each booted a replacement).
    pub crashed_private: u64,
    /// Crash victims on cloud leases (the lease batch tore down).
    pub crashed_cloud: u64,
    /// Jobs whose stint was discarded and re-executed from scratch.
    pub jobs_reexecuted: u64,
    /// Cloud-lease admissions refused (outage window or transient
    /// rejection), on the arrival and escalation paths alike.
    pub lease_rejections: u64,
    /// Backed-off escalation retries armed.
    pub lease_retries: u64,
    /// Backoff chains that ran out of budget and degraded to the
    /// private pool for good.
    pub retries_exhausted: u64,
    /// Faults the recovery machinery absorbed without giving up: every
    /// crash re-executes, and every rejection short of an exhausted
    /// backoff chain was retried or degraded gracefully.
    pub masked_faults: u64,
}

/// Everything one platform run produced.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// Policy label (`"meryn"` / `"static"`).
    pub mode: String,
    /// Seed the run used.
    pub seed: u64,
    /// Per-application records, submission (= [`AppId`]) order; empty
    /// under [`ReportMode::Aggregate`]. The only part of a full-mode run
    /// that grows with the submission history; no report number reads
    /// them except [`Self::processing_summary`].
    pub apps: Vec<AppRecord>,
    /// Rejected submissions (negotiation/routing failures).
    pub rejected: usize,
    /// Instant the last application completed.
    pub completion_time: SimTime,
    /// Used-VM step series: `used_private_vms`, `used_cloud_vms`
    /// (Figure 5).
    pub series: SeriesSet,
    /// Peak concurrent private VMs in use.
    pub peak_private: f64,
    /// Peak concurrent cloud VMs in use (the paper's headline: 15 for
    /// Meryn vs 25 for static).
    pub peak_cloud: f64,
    /// Zero-bid VM transfers performed.
    pub transfers: u64,
    /// Cloud VMs leased.
    pub bursts: u64,
    /// Application suspensions performed.
    pub suspensions: u64,
    /// Queued jobs escalated to the cloud by the violation policy.
    pub escalations: u64,
    /// What the cloud actually billed for the leases (boot-to-release).
    pub cloud_bill: Money,
    /// Events the simulation processed.
    pub events_processed: u64,
    /// Fault-plane tallies; `Some` exactly when the run's
    /// [`crate::config::FaultSpec`] armed a failure process. Skipped
    /// entirely when absent so faults-off reports — and every
    /// pre-fault-plane golden — serialize byte-identically.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub faults: Option<FaultStats>,
    /// The run's exact totals, folded from every admitted application
    /// in both report modes; every accessor below reads them.
    pub totals: AggregateReport,
}

impl RunReport {
    /// Aggregates over all apps (`None`) or one VC's apps.
    pub fn group(&self, vc: Option<VcId>) -> GroupStats {
        self.totals.group(vc)
    }

    /// The run's headline numbers (see [`Headline`]).
    pub fn headline(&self) -> Headline {
        let all = self.group(None);
        Headline {
            completion_secs: self.completion_secs(),
            avg_cost_units: all.avg_cost_units,
            total_cost: all.total_cost,
            peak_cloud: self.peak_cloud,
            violations: all.violations,
        }
    }

    /// Admitted applications.
    pub fn apps_count(&self) -> usize {
        self.totals.per_vc.iter().map(|a| a.count as usize).sum()
    }

    /// Total provider cost across all applications.
    pub fn total_cost(&self) -> Money {
        self.totals.per_vc.iter().map(|a| a.total_cost).sum()
    }

    /// Total revenue across all applications.
    pub fn total_revenue(&self) -> Money {
        self.totals.per_vc.iter().map(|a| a.total_revenue).sum()
    }

    /// Total delay penalties paid across all applications.
    pub fn total_penalty(&self) -> Money {
        self.totals.per_vc.iter().map(|a| a.total_penalty).sum()
    }

    /// Provider profit: revenue − cost.
    pub fn profit(&self) -> Money {
        self.total_revenue() - self.total_cost()
    }

    /// Number of deadline violations.
    pub fn violations(&self) -> usize {
        self.totals
            .per_vc
            .iter()
            .map(|a| a.violations as usize)
            .sum()
    }

    /// Workload completion time (the Fig. 6(a) "Workload" bar).
    pub fn completion_secs(&self) -> f64 {
        self.completion_time.as_secs_f64()
    }

    /// Processing-time summary for one Table 1 case label. Requires
    /// full mode (only the records keep per-case samples).
    pub fn processing_summary(&self, case: &str) -> Summary {
        let mut s = Summary::new();
        for a in &self.apps {
            if a.placement == case {
                if let Some(p) = a.processing {
                    s.push(p.as_secs_f64());
                }
            }
        }
        s
    }

    /// Mean and worst submission processing time [s] (zero when no
    /// application reached its framework).
    pub fn processing_mean_max_secs(&self) -> (f64, f64) {
        let t = &self.totals;
        (
            exact_mean(i128::from(t.processing_ms), t.processing_count, MS_PER_SEC),
            SimDuration::from_millis(t.processing_max_ms).as_secs_f64(),
        )
    }

    /// Placement histogram: (case label, count), label order.
    pub fn placement_counts(&self) -> Vec<(String, usize)> {
        self.totals
            .all()
            .placements
            .into_iter()
            .map(|(case, n)| (case, n as usize))
            .collect()
    }
}

/// The handful of numbers a comparison and a replica fold read from one
/// run, so a caller can drop the run's records once it has them.
#[derive(Debug, Clone, Copy)]
pub struct Headline {
    /// Workload completion time [s].
    pub completion_secs: f64,
    /// All-apps mean provider cost [units].
    pub avg_cost_units: f64,
    /// Total provider cost.
    pub total_cost: Money,
    /// Peak concurrent cloud VMs.
    pub peak_cloud: f64,
    /// Deadline violations.
    pub violations: usize,
}

/// Side-by-side comparison of two runs (the shape of Figure 6).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Comparison {
    /// Completion-time improvement of the first run over the second, %.
    pub completion_improvement_pct: f64,
    /// All-apps mean-cost improvement, %.
    pub cost_improvement_pct: f64,
    /// Total cost saved (second minus first).
    pub cost_saved: Money,
    /// Peak cloud VMs: first run.
    pub peak_cloud_a: f64,
    /// Peak cloud VMs: second run.
    pub peak_cloud_b: f64,
}

/// Compares run `a` (typically Meryn) against `b` (typically static),
/// from their headlines ([`RunReport::headline`]).
pub fn compare(a: &Headline, b: &Headline) -> Comparison {
    Comparison {
        completion_improvement_pct: improvement_pct(b.completion_secs, a.completion_secs),
        cost_improvement_pct: improvement_pct(b.avg_cost_units, a.avg_cost_units),
        cost_saved: b.total_cost - a.total_cost,
        peak_cloud_a: a.peak_cloud,
        peak_cloud_b: b.peak_cloud,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(vc: usize, exec: u64, cost: i64, violated: bool) -> AppRecord {
        AppRecord {
            id: AppId(0),
            vc: VcId(vc),
            vc_name: format!("VC{vc}"),
            placement: "local-vm".into(),
            submitted: SimTime::ZERO,
            deadline: SimTime::from_secs(exec + 94),
            framework_submitted: Some(SimTime::from_secs(10)),
            completed: Some(SimTime::from_secs(exec + 10)),
            processing: Some(SimDuration::from_secs(10)),
            exec: SimDuration::from_secs(exec),
            cost: Money::from_units(cost),
            price: Money::from_units(cost * 2),
            revenue: Money::from_units(cost * 2),
            penalty: Money::ZERO,
            violated,
            violation_detected: None,
            suspensions: 0,
            negotiation_rounds: 1,
        }
    }

    /// A report keeping `apps`, with its totals folded from them.
    fn report(apps: Vec<AppRecord>) -> RunReport {
        let mut totals = AggregateReport::new(2);
        for a in &apps {
            totals.push(&a.outcome());
        }
        RunReport {
            mode: "meryn".into(),
            seed: 0,
            apps,
            rejected: 0,
            completion_time: SimTime::from_secs(2000),
            series: SeriesSet::new(),
            peak_private: 50.0,
            peak_cloud: 15.0,
            transfers: 10,
            bursts: 15,
            suspensions: 0,
            escalations: 0,
            cloud_bill: Money::ZERO,
            events_processed: 100,
            faults: None,
            totals,
        }
    }

    #[test]
    fn group_stats_split_by_vc() {
        let r = report(vec![
            record(0, 1550, 3100, false),
            record(0, 1670, 6680, false),
            record(1, 1550, 3100, true),
        ]);
        let all = r.group(None);
        assert_eq!(all.count, 3);
        assert_eq!(all.violations, 1);
        let vc0 = r.group(Some(VcId(0)));
        assert_eq!(vc0.count, 2);
        assert_eq!(vc0.avg_exec_secs, 1610.0);
        assert_eq!(vc0.avg_cost_units, 4890.0);
        let vc1 = r.group(Some(VcId(1)));
        assert_eq!(vc1.count, 1);
        assert_eq!(vc1.total_cost, Money::from_units(3100));
    }

    #[test]
    fn aggregate_mode_answers_the_same_headlines() {
        let records = vec![
            record(0, 1550, 3100, false),
            record(0, 1670, 6680, true),
            record(1, 1550, 3100, false),
        ];
        let full = report(records.clone());
        // An aggregate run keeps no records, and its applications may
        // retire in another order: the integer totals do not notice.
        let mut lean = report(Vec::new());
        for r in records.iter().rev() {
            lean.totals.push(&r.outcome());
        }

        assert_eq!(lean.totals, full.totals);
        assert_eq!(lean.apps_count(), full.apps.len());
        assert_eq!(lean.total_cost(), full.total_cost());
        assert_eq!(lean.total_revenue(), full.total_revenue());
        assert_eq!(lean.profit(), full.profit());
        assert_eq!(lean.violations(), full.violations());
        assert_eq!(lean.placement_counts(), full.placement_counts());
        for vc in [None, Some(VcId(0)), Some(VcId(1))] {
            assert_eq!(lean.group(vc), full.group(vc));
        }
        let (a, b) = (lean.headline(), full.headline());
        assert_eq!((a.total_cost, a.violations), (b.total_cost, b.violations));
        assert_eq!(a.avg_cost_units.to_bits(), b.avg_cost_units.to_bits());
        let (mean, max) = lean.processing_mean_max_secs();
        assert_eq!((mean, max), full.processing_mean_max_secs());
        assert_eq!(mean, 10.0);
        assert_eq!(max, 10.0);
    }

    #[test]
    fn profit_is_revenue_minus_cost() {
        let r = report(vec![record(0, 100, 500, false)]);
        assert_eq!(r.total_cost(), Money::from_units(500));
        assert_eq!(r.total_revenue(), Money::from_units(1000));
        assert_eq!(r.profit(), Money::from_units(500));
    }

    #[test]
    fn processing_summary_filters_by_case() {
        let mut a = record(0, 100, 100, false);
        a.placement = "cloud-vm".into();
        a.processing = Some(SimDuration::from_secs(70));
        let r = report(vec![a, record(0, 100, 100, false)]);
        let s = r.processing_summary("cloud-vm");
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), 70.0);
        assert_eq!(r.processing_summary("vc-vm").count(), 0);
    }

    #[test]
    fn placement_counts() {
        let mut b = record(0, 1, 1, false);
        b.placement = "cloud-vm".into();
        let r = report(vec![record(0, 1, 1, false), b.clone(), b]);
        let counts = r.placement_counts();
        assert!(counts.contains(&("cloud-vm".to_owned(), 2)));
        assert!(counts.contains(&("local-vm".to_owned(), 1)));
    }

    #[test]
    fn merging_aggregates_sums_placement_counts() {
        let mut cloud = record(0, 1, 1, false);
        cloud.placement = "cloud-vm".into();
        let (mut a, mut b) = (VcAggregate::default(), VcAggregate::default());
        a.push(&record(0, 1, 1, false).outcome());
        a.push(&cloud.outcome());
        b.push(&cloud.outcome());
        b.push(&cloud.outcome());
        a.merge(&b);
        let counts: Vec<(&str, u64)> = a.placements.iter().map(|(k, &n)| (k.as_str(), n)).collect();
        assert_eq!(counts, [("cloud-vm", 3), ("local-vm", 1)]);
        assert_eq!(a.count, 4);
    }

    #[test]
    fn comparison_matches_paper_shape() {
        // Meryn-like vs static-like.
        let meryn = report(vec![record(0, 1550, 4174, false)]);
        let mut stat = report(vec![record(0, 1610, 4890, false)]);
        stat.peak_cloud = 25.0;
        stat.completion_time = SimTime::from_secs(2091);
        let mut meryn = meryn;
        meryn.completion_time = SimTime::from_secs(2021);
        let c = compare(&meryn.headline(), &stat.headline());
        assert!(c.completion_improvement_pct > 3.0);
        assert!(c.cost_improvement_pct > 14.0);
        assert_eq!(c.cost_saved, Money::from_units(716));
        assert_eq!(c.peak_cloud_a, 15.0);
        assert_eq!(c.peak_cloud_b, 25.0);
    }
}
