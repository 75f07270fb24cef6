//! Per-application records and the Application Controller state.
//!
//! The paper instantiates one Application Controller per submitted
//! application (§3.2); it "monitors the execution progress of its
//! associated application and the satisfaction of its agreed SLA". Here
//! the controller's state is the [`Application`] record; the periodic
//! check lives in the platform's event loop.

use meryn_frameworks::{JobId, JobSpec};
use meryn_sim::{SimDuration, SimTime};
use meryn_sla::{AppTimes, Money, SlaContract};
use serde::{Deserialize, Serialize};

use crate::ids::{AppId, Placement, VcId};

/// A shard's application table.
///
/// Keyed lookups on every hot path; iterated only when assembling the
/// final report (which sorts by [`AppId`] afterwards), so the
/// deterministic hash map's unordered iteration never reaches
/// simulation state. The fixed-seed hashing keeps two runs of the same
/// binary bit-identical — see [`meryn_sim::hash`].
pub type AppMap = meryn_sim::DetHashMap<AppId, Application>;

/// Coarse lifecycle of an application inside the platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AppPhase {
    /// Between arrival and framework submission: negotiating, acquiring
    /// VMs (the "processing time" the paper's Table 1 measures).
    Acquiring,
    /// Handed to the framework (queued, running or suspended there).
    Submitted,
    /// Finished; results delivered.
    Completed {
        /// Completion instant.
        at: SimTime,
    },
}

/// Everything the platform knows about one application.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Application {
    /// Platform-wide id.
    pub id: AppId,
    /// The VC hosting it.
    pub vc: VcId,
    /// Framework job description (post-negotiation allocation).
    pub spec: JobSpec,
    /// The signed SLA.
    pub contract: SlaContract,
    /// Figure 4 time accounting.
    pub times: AppTimes,
    /// Framework job id, once submitted.
    pub job: Option<JobId>,
    /// Where Algorithm 1 placed it.
    pub placement: Placement,
    /// Lifecycle phase.
    pub phase: AppPhase,
    /// When the framework received the job (processing-time endpoint).
    pub framework_submitted_at: Option<SimTime>,
    /// Provider-side cost accrued so far (execution stints × VM rates).
    pub cost: Money,
    /// Negotiation rounds it took to sign.
    pub negotiation_rounds: u32,
    /// Times this application was suspended to lend its VMs.
    pub suspensions: u32,
    /// First instant the controller saw the SLA violated, if ever.
    ///
    /// Under [`crate::config::ViolationPolicy::Report`] the controller
    /// wakes once, at the first check-grid instant after the deadline,
    /// so this is that instant if the application had not completed
    /// before it, and `None` otherwise. An application completing
    /// exactly on that instant counts as detected: its check was armed
    /// at admission, so the check's tag precedes the completion's.
    pub violation_detected: Option<SimTime>,
}

impl Application {
    /// The Table 1 processing time: submission to framework hand-off.
    pub fn processing_time(&self) -> Option<SimDuration> {
        self.framework_submitted_at
            .map(|t| t.since(self.contract.agreed_at))
    }

    /// Completion instant, if finished.
    pub fn completed_at(&self) -> Option<SimTime> {
        match self.phase {
            AppPhase::Completed { at } => Some(at),
            _ => None,
        }
    }

    /// True once finished.
    pub fn is_completed(&self) -> bool {
        matches!(self.phase, AppPhase::Completed { .. })
    }

    /// Actual execution duration accumulated across stints (the quantity
    /// averaged in Figure 6(a)).
    pub fn exec_duration(&self) -> SimDuration {
        let asof = self.completed_at().unwrap_or(SimTime::MAX);
        self.times.progress_t(asof)
    }

    /// Provider revenue (price − delay penalty) as of completion;
    /// `None` while unfinished.
    pub fn revenue(&self) -> Option<Money> {
        self.completed_at().map(|at| self.contract.revenue_at(at))
    }

    /// Delay penalty paid, if any.
    pub fn penalty(&self) -> Option<Money> {
        self.completed_at().map(|at| self.contract.penalty_at(at))
    }

    /// True when the deadline was missed.
    pub fn violated(&self) -> bool {
        self.completed_at()
            .map(|at| self.contract.violated_at(at))
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meryn_frameworks::ScalingLaw;
    use meryn_sla::pricing::PricingParams;
    use meryn_sla::{SlaTerms, VmRate};

    fn app() -> Application {
        let pricing = PricingParams::new(VmRate::per_vm_second(4), 1);
        let terms = SlaTerms::new(SimDuration::from_secs(1754), Money::from_units(6680), 1);
        let submit = SimTime::from_secs(5);
        Application {
            id: AppId(0),
            vc: VcId(0),
            spec: JobSpec::Batch {
                work: SimDuration::from_secs(1550),
                nb_vms: 1,
                scaling: ScalingLaw::Fixed,
            },
            contract: SlaContract::sign(terms, submit, pricing),
            times: AppTimes::submitted(
                submit,
                SimDuration::from_secs(1670),
                SimDuration::from_secs(1754),
            ),
            job: None,
            placement: Placement::Local,
            phase: AppPhase::Acquiring,
            framework_submitted_at: None,
            cost: Money::ZERO,
            negotiation_rounds: 1,
            suspensions: 0,
            violation_detected: None,
        }
    }

    #[test]
    fn processing_time_measures_submission_pipeline() {
        let mut a = app();
        assert_eq!(a.processing_time(), None);
        a.framework_submitted_at = Some(SimTime::from_secs(17));
        assert_eq!(a.processing_time(), Some(SimDuration::from_secs(12)));
    }

    #[test]
    fn lifecycle_queries() {
        let mut a = app();
        assert!(!a.is_completed());
        assert_eq!(a.revenue(), None);
        a.times.start(SimTime::from_secs(20));
        a.times.set_exec_t(SimDuration::from_secs(1550));
        a.phase = AppPhase::Completed {
            at: SimTime::from_secs(1570),
        };
        assert!(a.is_completed());
        assert_eq!(a.exec_duration(), SimDuration::from_secs(1550));
        assert_eq!(a.revenue(), Some(Money::from_units(6680)));
        assert_eq!(a.penalty(), Some(Money::ZERO));
        assert!(!a.violated());
    }

    #[test]
    fn late_completion_is_violated() {
        let mut a = app();
        a.times.start(SimTime::from_secs(20));
        a.phase = AppPhase::Completed {
            at: SimTime::from_secs(5000),
        };
        assert!(a.violated());
        assert!(a.penalty().unwrap() > Money::ZERO);
        assert!(a.revenue().unwrap() < Money::from_units(6680));
    }
}
