//! Platform configuration.
//!
//! [`PlatformConfig::paper`] reproduces the evaluation deployment: 50
//! private VM slots split fairly between two batch VCs, one public cloud
//! with infinite capacity, private VM cost 2 units/VM·s, cloud VM cost 4
//! units/VM·s, and operation latencies calibrated so the end-to-end
//! submission processing times land in the paper's Table 1 ranges.

use meryn_frameworks::FrameworkKind;
use meryn_sim::SimDuration;
use meryn_sla::pricing::PenaltyBound;
use meryn_sla::VmRate;
use meryn_vmm::{LatencyModel, PriceModel, VmSpec};
use serde::{Deserialize, Serialize};

/// What the Cluster Manager does when an Application Controller reports
/// a *queued* application whose SLA is at risk (§3.3 leaves these
/// policies open; the paper's evaluation uses [`ViolationPolicy::Report`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ViolationPolicy {
    /// Record the violation and do nothing else (the paper's behaviour).
    Report,
    /// Withdraw the waiting job from the framework queue and burst it to
    /// the cheapest cloud that can serve it.
    EscalateToCloud,
}

/// The default bidding-policy name (`#[serde(default)]` hook).
fn default_bidding() -> String {
    "standard".to_owned()
}

/// Configuration of one Virtual Cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VcConfig {
    /// Display name (e.g. `"VC1"`).
    pub name: String,
    /// Hosted application type.
    pub kind: FrameworkKind,
    /// Private VMs booted for this VC at deployment.
    pub initial_vms: u64,
    /// Whether the framework scheduler backfills.
    pub backfill: bool,
    /// MapReduce only: map-phase penalty when all slaves are remote.
    pub locality_penalty_pct: u32,
}

impl VcConfig {
    /// A batch VC with `initial_vms` slaves and FIFO dispatch.
    pub fn batch(name: impl Into<String>, initial_vms: u64) -> Self {
        VcConfig {
            name: name.into(),
            kind: FrameworkKind::Batch,
            initial_vms,
            backfill: false,
            locality_penalty_pct: 0,
        }
    }

    /// A MapReduce VC with `initial_vms` slaves.
    pub fn mapreduce(name: impl Into<String>, initial_vms: u64) -> Self {
        VcConfig {
            name: name.into(),
            kind: FrameworkKind::MapReduce,
            initial_vms,
            backfill: false,
            locality_penalty_pct: 30,
        }
    }
}

/// Configuration of one public cloud.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CloudConfig {
    /// Display name (e.g. `"edel"`).
    pub name: String,
    /// Price model quoted to the protocol and charged on leases.
    pub price: PriceModel,
    /// Relative CPU speed of its VMs (1.0 = private reference).
    pub speed: f64,
    /// Max concurrent VMs, `None` = the paper's "infinite".
    pub quota: Option<u64>,
}

/// Operation latency models; defaults are calibrated against Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Latencies {
    /// Client/Cluster Manager submission handling (the whole local-vm
    /// path: negotiate, translate, upload).
    pub base: LatencyModel,
    /// Extra time to suspend a local application before reusing its VMs.
    pub suspend_local: LatencyModel,
    /// Extra time for a *remote* VC to suspend one of its applications
    /// during a lending exchange (cross-master coordination).
    pub suspend_remote: LatencyModel,
    /// Shutting down a private VM for a transfer (§3.4 step 1–2).
    pub transfer_stop: LatencyModel,
    /// Booting a private VM with the destination framework's image
    /// (§3.4 step 3–4).
    pub transfer_boot: LatencyModel,
    /// Provisioning + configuring a leased cloud VM (§3.5).
    pub cloud_provision: LatencyModel,
    /// Stopping a leased cloud VM.
    pub cloud_release: LatencyModel,
}

impl Default for Latencies {
    fn default() -> Self {
        Latencies {
            // Table 1: local-vm 7–15 s is pure CM handling.
            base: LatencyModel::uniform_secs(7, 15),
            // local-vm after suspension 10–17 s ⇒ suspension adds ~2–4 s.
            suspend_local: LatencyModel::uniform_secs(2, 4),
            // vc-vm after suspension 60–68 s ⇒ remote suspension adds
            // much more (cross-master round-trips).
            suspend_remote: LatencyModel::uniform_secs(16, 20),
            // vc-vm 40–58 s ⇒ stop + boot ≈ 33–43 s on top of base.
            transfer_stop: LatencyModel::uniform_secs(13, 17),
            transfer_boot: LatencyModel::uniform_secs(20, 26),
            // cloud-vm 60–84 s ⇒ provisioning ≈ 53–69 s on top of base.
            cloud_provision: LatencyModel::uniform_secs(53, 69),
            cloud_release: LatencyModel::uniform_secs(5, 10),
        }
    }
}

/// One scheduled whole-cloud outage window: cloud `cloud` refuses every
/// lease attempt in `[from_secs, to_secs)` (control-plane outage —
/// already-leased VMs keep running).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutageWindow {
    /// Index into [`PlatformConfig::clouds`].
    pub cloud: usize,
    /// Window start (inclusive), seconds.
    pub from_secs: u64,
    /// Window end (exclusive), seconds.
    pub to_secs: u64,
}

fn default_retry_max() -> u32 {
    3
}

fn default_backoff_base_secs() -> u64 {
    30
}

fn default_backoff_cap_secs() -> u64 {
    480
}

fn default_lease_rejection_secs() -> u64 {
    60
}

/// Seeded failure processes and their recovery knobs. Fully disabled by
/// default: with no crash hazard, no rejection probability and no
/// outage windows the fault plane draws nothing and schedules nothing,
/// so every fault-free trajectory is byte-identical to a build without
/// it — existing scenario specs and goldens are untouched.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Per-VM mean time between failures, seconds (exponential crash
    /// hazard drawn from the per-shard fault streams). `None` disables
    /// crashes.
    #[serde(default)]
    pub vm_mtbf_secs: Option<u64>,
    /// Probability that one cloud-lease admission attempt is
    /// transiently rejected (0.0 disables the rejection process).
    #[serde(default)]
    pub lease_rejection_prob: f64,
    /// How long a transient rejection blacks the cloud out, seconds.
    #[serde(default = "default_lease_rejection_secs")]
    pub lease_rejection_secs: u64,
    /// Scheduled whole-cloud outage windows.
    #[serde(default)]
    pub cloud_outages: Vec<OutageWindow>,
    /// Lease-retry budget: after this many backed-off retries the
    /// acquisition degrades to the private pool / SLA-violation pricing.
    #[serde(default = "default_retry_max")]
    pub retry_max: u32,
    /// First retry delay, seconds; attempt `k` waits
    /// `min(backoff_base_secs << k, backoff_cap_secs)` — deterministic
    /// capped exponential backoff, no jitter draws.
    #[serde(default = "default_backoff_base_secs")]
    pub backoff_base_secs: u64,
    /// Ceiling on the backoff delay, seconds.
    #[serde(default = "default_backoff_cap_secs")]
    pub backoff_cap_secs: u64,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            vm_mtbf_secs: None,
            lease_rejection_prob: 0.0,
            lease_rejection_secs: default_lease_rejection_secs(),
            cloud_outages: Vec::new(),
            retry_max: default_retry_max(),
            backoff_base_secs: default_backoff_base_secs(),
            backoff_cap_secs: default_backoff_cap_secs(),
        }
    }
}

impl FaultSpec {
    /// True when no failure process is armed (the default): the
    /// `skip_serializing_if` hook keeping fault-free configs
    /// byte-identical on the wire.
    pub fn is_disabled(&self) -> bool {
        self.vm_mtbf_secs.is_none()
            && self.lease_rejection_prob == 0.0
            && self.cloud_outages.is_empty()
    }

    /// True when any failure process is armed.
    pub fn enabled(&self) -> bool {
        !self.is_disabled()
    }

    /// The deterministic capped exponential backoff delay before retry
    /// attempt `attempt` (0-based).
    pub fn backoff_delay(&self, attempt: u32) -> SimDuration {
        let shifted = self
            .backoff_base_secs
            .checked_shl(attempt)
            .unwrap_or(self.backoff_cap_secs);
        SimDuration::from_secs(shifted.min(self.backoff_cap_secs))
    }
}

/// Full platform configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlatformConfig {
    /// Placement-policy name, resolved through the
    /// [`crate::policy`] registry at deployment (`"meryn"`,
    /// `"static"`, `"never-burst"`, `"always-burst"`, `"cost-greedy"`,
    /// or anything registered since).
    pub policy: String,
    /// Bidding-policy name (`"standard"` = the paper's Algorithm 2,
    /// `"free-only"` = zero bids only).
    #[serde(default = "default_bidding")]
    pub bidding: String,
    /// Master RNG seed; every latency and price draw descends from it.
    pub seed: u64,
    /// Fixed private VM hosting capacity (the evaluation: 50).
    pub private_capacity: u64,
    /// Uniform VM instance shape.
    pub vm_spec: VmSpec,
    /// Cost of a private VM to the provider, per VM-second (paper: 2).
    pub private_cost: VmRate,
    /// VM price charged to users per VM-second (paper keeps it ≥ the
    /// cloud VM cost; default 4).
    pub vm_price: VmRate,
    /// The penalty divisor N of eq. 3.
    pub penalty_factor: u64,
    /// Bound on delay penalties.
    pub penalty_bound: PenaltyBound,
    /// Storage cost rate behind the "minimal suspension cost" of
    /// Algorithm 2, per VM-second of lending duration.
    pub storage_rate: VmRate,
    /// Whether Algorithm 2 suspension bids participate at all
    /// (the hard off switch of ablation A3).
    pub suspension_enabled: bool,
    /// Submission-processing allowance added to quoted deadlines
    /// (the paper uses its worst measured case: 84 s).
    pub processing_allowance: SimDuration,
    /// The conservative CPU speed used when quoting execution times
    /// (the paper quotes with the *cloud* execution time, the slowest).
    pub quote_speed: f64,
    /// Virtual clusters to deploy.
    pub vcs: Vec<VcConfig>,
    /// Public clouds available for bursting.
    pub clouds: Vec<CloudConfig>,
    /// Operation latencies.
    pub latencies: Latencies,
    /// Maximum SLA negotiation rounds before rejecting a submission.
    pub max_negotiation_rounds: u32,
    /// Spacing of the global grid Application Controller SLA checks
    /// land on: an escalating controller checks at every tick, a
    /// reporting one once, at the first tick past its deadline. `None`
    /// disables the monitor (violations are still assessed at
    /// completion).
    pub controller_check_interval: Option<SimDuration>,
    /// What to do when a queued application's SLA is reported at risk.
    pub violation_policy: ViolationPolicy,
    /// Number of Client Manager instances handling submissions.
    /// Each submission occupies one Client Manager for its base
    /// processing latency; concurrent arrivals queue for a free one
    /// (§3.2: "Meryn may have several Client Managers in order to avoid
    /// a potential bottleneck, which could happen in peak periods").
    /// `None` models unbounded front-end concurrency (the paper's
    /// Table 1 measurements are uncontended, so this is the default).
    pub client_managers: Option<usize>,
    /// Seeded failure processes (VM crashes, cloud outages, transient
    /// lease rejections) and their retry/backoff recovery knobs.
    /// Defaulted off and skipped on the wire when disabled, so existing
    /// specs and goldens are byte-identical.
    #[serde(default, skip_serializing_if = "FaultSpec::is_disabled")]
    pub faults: FaultSpec,
}

impl PlatformConfig {
    /// The evaluation deployment (§5.2–5.3), parameterized by the
    /// placement-policy name (the paper compares `"meryn"` and
    /// `"static"`).
    ///
    /// * 50 private VM slots, two batch VCs with 25 each;
    /// * one public cloud, infinite capacity, static price 4 units/VM·s,
    ///   VMs 1550/1670 ≈ 7.2 % slower than private ones;
    /// * private cost 2 units/VM·s; user VM price 4 units/VM·s;
    /// * penalty factor N = 1, penalties capped at the price;
    /// * quoted deadlines assume cloud-speed execution + 84 s processing.
    pub fn paper(policy: impl Into<String>) -> Self {
        PlatformConfig {
            policy: policy.into(),
            bidding: default_bidding(),
            seed: 0xC0FFEE,
            private_capacity: 50,
            vm_spec: VmSpec::EC2_MEDIUM_LIKE,
            private_cost: VmRate::per_vm_second(2),
            vm_price: VmRate::per_vm_second(4),
            penalty_factor: 1,
            penalty_bound: PenaltyBound::AtPrice,
            storage_rate: VmRate::from_micro(500_000), // 0.5 units/VM·s
            suspension_enabled: true,
            processing_allowance: SimDuration::from_secs(84),
            quote_speed: 1550.0 / 1670.0,
            vcs: vec![VcConfig::batch("VC1", 25), VcConfig::batch("VC2", 25)],
            clouds: vec![CloudConfig {
                name: "edel".into(),
                price: PriceModel::Static(VmRate::per_vm_second(4)),
                speed: 1550.0 / 1670.0,
                quota: None,
            }],
            latencies: Latencies::default(),
            max_negotiation_rounds: 8,
            controller_check_interval: Some(SimDuration::from_secs(30)),
            violation_policy: ViolationPolicy::Report,
            client_managers: None,
            faults: FaultSpec::default(),
        }
    }

    /// Replaces the seed (builder style, for replica sweeps).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the placement-policy name.
    pub fn with_policy(mut self, policy: impl Into<String>) -> Self {
        self.policy = policy.into();
        self
    }

    /// Replaces the penalty factor N.
    pub fn with_penalty_factor(mut self, n: u64) -> Self {
        self.penalty_factor = n;
        self
    }

    /// Scales every cloud's whole price curve by `factor` (ablation
    /// A2) — static, diurnal and scheduled models alike.
    // meryn-lint: allow(float-money) — the f64 is the ablation scale factor; the curve stays in integer Money
    pub fn with_cloud_price_factor(mut self, factor: f64) -> Self {
        for c in &mut self.clouds {
            c.price = c.price.clone().scaled(factor);
        }
        self
    }

    /// Validates internal consistency; called by the platform at start.
    ///
    /// # Panics
    /// With [`Self::check`]'s message when the config is inconsistent.
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }

    /// Checks internal consistency without panicking: the first
    /// inconsistency [`Self::validate`] would reject, as a message.
    pub fn check(&self) -> Result<(), String> {
        fn ensure(ok: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
            if ok {
                Ok(())
            } else {
                Err(msg())
            }
        }
        ensure(!self.vcs.is_empty(), || "need at least one VC".into())?;
        ensure(crate::policy::placement(&self.policy).is_some(), || {
            format!(
                "unknown placement policy {:?} (registered: {:?})",
                self.policy,
                crate::policy::placement_names()
            )
        })?;
        ensure(crate::policy::bidding(&self.bidding).is_some(), || {
            format!(
                "unknown bidding policy {:?} (registered: {:?})",
                self.bidding,
                crate::policy::bidding_names()
            )
        })?;
        ensure(self.penalty_factor > 0, || {
            "penalty factor N must be positive".into()
        })?;
        ensure(self.quote_speed > 0.0 && self.quote_speed <= 1.0, || {
            "quote speed must be in (0, 1]".into()
        })?;
        let initial: u64 = self.vcs.iter().map(|v| v.initial_vms).sum();
        ensure(initial <= self.private_capacity, || {
            format!(
                "initial VC allocation ({initial}) exceeds private capacity ({})",
                self.private_capacity
            )
        })?;
        ensure(
            (0.0..=1.0).contains(&self.faults.lease_rejection_prob),
            || "lease_rejection_prob must be a probability".into(),
        )?;
        ensure(self.faults.vm_mtbf_secs != Some(0), || {
            "vm_mtbf_secs must be positive".into()
        })?;
        for w in &self.faults.cloud_outages {
            ensure(w.cloud < self.clouds.len(), || {
                format!(
                    "outage window names cloud {} but only {} clouds are configured",
                    w.cloud,
                    self.clouds.len()
                )
            })?;
            ensure(w.from_secs < w.to_secs, || {
                "outage window must end after it starts".into()
            })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_evaluation_setup() {
        let cfg = PlatformConfig::paper("meryn");
        cfg.validate();
        assert_eq!(cfg.private_capacity, 50);
        assert_eq!(cfg.vcs.len(), 2);
        assert_eq!(cfg.vcs[0].initial_vms, 25);
        assert_eq!(cfg.private_cost, VmRate::per_vm_second(2));
        assert_eq!(cfg.clouds.len(), 1);
        assert_eq!(cfg.processing_allowance, SimDuration::from_secs(84));
        // Quoted exec for the Pascal app must be the paper's 1670 s.
        let quoted = SimDuration::from_secs(1550).scale(1.0 / cfg.quote_speed);
        assert_eq!(quoted, SimDuration::from_secs(1670));
    }

    #[test]
    fn builders() {
        let cfg = PlatformConfig::paper("static")
            .with_seed(9)
            .with_penalty_factor(4)
            .with_cloud_price_factor(1.5)
            .with_policy("meryn");
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.penalty_factor, 4);
        match &cfg.clouds[0].price {
            PriceModel::Static(r) => assert_eq!(*r, VmRate::per_vm_second(6)),
            _ => panic!("static price expected"),
        }
        assert_eq!(cfg.policy, "meryn");
        assert_eq!(cfg.bidding, "standard");
    }

    #[test]
    fn cloud_price_factor_scales_non_static_models_too() {
        use meryn_sim::{SimDuration, SimTime};
        let mut cfg = PlatformConfig::paper("meryn");
        cfg.clouds[0].price = PriceModel::Diurnal {
            base: VmRate::per_vm_second(4),
            amplitude_pct: 20,
            period: SimDuration::from_secs(86_400),
        };
        let scaled = cfg.with_cloud_price_factor(0.5);
        // At phase 0 the diurnal price equals its base: 4 × 0.5 = 2.
        assert_eq!(
            scaled.clouds[0].price.rate_at(SimTime::ZERO),
            VmRate::per_vm_second(2)
        );
    }

    #[test]
    #[should_panic(expected = "exceeds private capacity")]
    fn overcommitted_initial_allocation_rejected() {
        let mut cfg = PlatformConfig::paper("meryn");
        cfg.vcs[0].initial_vms = 40;
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "unknown placement policy")]
    fn unknown_policy_rejected() {
        PlatformConfig::paper("no-such-policy").validate();
    }

    #[test]
    fn check_returns_what_validate_would_panic_with() {
        assert_eq!(PlatformConfig::paper("meryn").check(), Ok(()));
        let mut cfg = PlatformConfig::paper("meryn");
        cfg.vcs.clear();
        assert_eq!(cfg.check(), Err("need at least one VC".to_owned()));
        let err = PlatformConfig::paper("no-such-policy").check().unwrap_err();
        assert!(
            err.starts_with("unknown placement policy \"no-such-policy\""),
            "{err}"
        );
        let mut cfg = PlatformConfig::paper("meryn");
        cfg.faults.vm_mtbf_secs = Some(0);
        assert_eq!(cfg.check(), Err("vm_mtbf_secs must be positive".to_owned()));
    }

    #[test]
    fn config_round_trips_through_json() {
        let cfg = PlatformConfig::paper("meryn");
        let json = serde_json::to_string(&cfg).unwrap();
        let back: PlatformConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cfg);
        // `bidding` defaults when omitted on the wire.
        let trimmed = json.replace("\"bidding\":\"standard\",", "");
        let back: PlatformConfig = serde_json::from_str(&trimmed).unwrap();
        assert_eq!(back.bidding, "standard");
    }

    #[test]
    fn disabled_faults_are_skipped_on_the_wire() {
        let cfg = PlatformConfig::paper("meryn");
        assert!(cfg.faults.is_disabled());
        let json = serde_json::to_string(&cfg).unwrap();
        assert!(
            !json.contains("faults"),
            "disabled fault plane must not appear in the JSON (goldens depend on it)"
        );
        // And it defaults back in when absent.
        let back: PlatformConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.faults, FaultSpec::default());
    }

    #[test]
    fn enabled_faults_round_trip() {
        let mut cfg = PlatformConfig::paper("meryn");
        cfg.faults.vm_mtbf_secs = Some(3600);
        cfg.faults.lease_rejection_prob = 0.25;
        cfg.faults.cloud_outages = vec![OutageWindow {
            cloud: 0,
            from_secs: 100,
            to_secs: 400,
        }];
        cfg.validate();
        assert!(cfg.faults.enabled());
        let json = serde_json::to_string(&cfg).unwrap();
        assert!(json.contains("faults"));
        let back: PlatformConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let spec = FaultSpec {
            backoff_base_secs: 30,
            backoff_cap_secs: 480,
            ..Default::default()
        };
        assert_eq!(spec.backoff_delay(0), SimDuration::from_secs(30));
        assert_eq!(spec.backoff_delay(1), SimDuration::from_secs(60));
        assert_eq!(spec.backoff_delay(3), SimDuration::from_secs(240));
        assert_eq!(spec.backoff_delay(4), SimDuration::from_secs(480));
        assert_eq!(spec.backoff_delay(10), SimDuration::from_secs(480));
        // Shift overflow saturates at the cap instead of panicking.
        assert_eq!(spec.backoff_delay(200), SimDuration::from_secs(480));
    }

    #[test]
    #[should_panic(expected = "outage window names cloud")]
    fn outage_on_unknown_cloud_rejected() {
        let mut cfg = PlatformConfig::paper("meryn");
        cfg.faults.cloud_outages = vec![OutageWindow {
            cloud: 5,
            from_secs: 0,
            to_secs: 10,
        }];
        cfg.validate();
    }

    #[test]
    fn vc_config_constructors() {
        let b = VcConfig::batch("b", 3);
        assert_eq!(b.kind, FrameworkKind::Batch);
        let m = VcConfig::mapreduce("m", 4);
        assert_eq!(m.kind, FrameworkKind::MapReduce);
        assert_eq!(m.locality_penalty_pct, 30);
    }
}
