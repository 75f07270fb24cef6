//! The engine: N shard state machines, one shared fabric, one
//! canonical effect stream — assembled as [`Platform`].
//!
//! # Execution model
//!
//! Every event carries a globally-unique `(due, seq)` key handed out by
//! one counter and waits in the engine's one event queue, so the
//! *schedule* is a single total order — the one the pre-shard monolith
//! walked — and the next instant is one peek at its head, whatever the
//! VC count. Every event belongs to a shard ([`Event::owner`]), which
//! the engine resolves when the event's run is drained: the event names
//! its VC, or its application was routed to one when it arrived. Every
//! event class is shard-owned: admission itself (the
//! engine pre-routes each submission to its VC from the deployment
//! config and the shard type-checks, negotiates and registers the
//! application — [`VcShard`]'s arrival handler), framework hand-off,
//! job completion, SLA checks ([`VcShard::check_sla`]; the shard arms
//! each application's controller at admission, on the global check
//! grid — an escalating controller polls every tick, a reporting one
//! wakes once, at the first tick past its deadline) and the
//! coalesced VM choreography down to the lease closes that end a cloud
//! burst (transfer/return/lease/release batches expand inside their
//! shard and send the pool and market work back as effects). The
//! cross-shard half of an arrival — Algorithm 1 over every VC's bids
//! plus the cloud market — travels back as [`Effect::Place`] and
//! applies at the arrival's canonical position in the effect stream.
//! Latency draws for a VC's arrivals and acquisitions come from that
//! shard's own RNG stream (`stream_seed(seed, SHARD_STREAM_BASE + vc)`),
//! so one VC's draw sequence never depends on another VC's traffic.
//!
//! A workload enters a run one way: as an arrival stream in arrival
//! order. Attaching it reserves one sequence tag per submission, and
//! each arrival is dispatched into the queue only when the run reaches
//! its instant — so the queue holds the near future, workload memory
//! stays O(1), and a checkpoint records the stream's cursor instead of
//! the pending arrivals.
//!
//! A completed application leaves the run one way too: its shard emits
//! [`Effect::Retire`], and at that canonical position the executor
//! folds the application into the run's exact totals and drops it, its
//! framework job and its job → app entry. [`ReportMode`] decides only
//! whether an [`AppRecord`] is built and kept as well, so engine state
//! is O(live) in either mode, every report number is the same in both,
//! and the ledger keeps running totals only.
//!
//! State changes only at event instants, and one run function advances
//! the engine by one of them: it drains the maximal run of events
//! queued at the next instant once ([`EventQueue::pop_at`]), hands each
//! event to its shard's inbox, processes the touched shards' slices —
//! **in parallel through the rayon shim when the run spans shards and
//! is big enough to pay for the fan-out** — and then applies
//! the collected [`Effect`]s sequentially in canonical key order: a
//! stable sort on the keys, whose globally-unique `seq` makes the
//! application order the exact global schedule order. Events the
//! effects schedule at the same instant carry later tags and form the
//! next run. [`Platform::run_until`] repeats the run function up to its
//! stop instant; [`Platform::step`] calls it once.
//!
//! Thread-count independence is structural: shard groups share no
//! state, group processing is deterministic per shard, and the
//! canonical effect order never depends on which worker finished
//! first. Every latency a placement might consume (CM handling plus
//! both suspension extras) is drawn in-shard at admission and carried
//! in [`Effect::Place`], so each shard's stream sequence is independent
//! of the decision Algorithm 1 makes when the effect applies.

use std::borrow::Borrow;
use std::sync::Arc;

use meryn_frameworks::{BatchFramework, Framework, FrameworkKind, JobId, MapReduceFramework};
use meryn_sim::metrics::SeriesSet;
use meryn_sim::{EventQueue, QueueSnapshot, SimDuration, SimRng, SimTime};
use meryn_sla::pricing::PricingParams;
use meryn_sla::Money;
use meryn_vmm::{
    CloudId, ImageId, ImageRegistry, Ledger, Location, PrivatePool, PublicCloud, VmId,
};
use meryn_workloads::Submission;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::app::Application;
use crate::bidding::BidRequest;
use crate::client_manager::route_kinds;
use crate::cluster_manager::{VcView, VirtualCluster};
use crate::config::PlatformConfig;
use crate::engine::effects::{Effect, EffectKey, EffectSink, SequencedEffect};
use crate::engine::fabric::SharedFabric;
use crate::engine::shard::{
    next_check, Lending, PendingAcquisition, ShardPolicy, ShardSnapshot, VcShard,
};
use crate::events::{Event, EventOwner};
use crate::ids::{AppId, Placement, VcId};
use crate::policy::{self, BiddingPolicy, PlacementPolicy};
use crate::protocol::{select_resources, Decision, ProtocolParams};
use crate::report::{AggregateReport, AppRecord, Outcome, ReportMode, RunReport};

/// Minimum number of same-instant shard events (across ≥ 2 shards)
/// before a run is fanned out to worker threads. Below this the scoped
/// thread spawn costs more than the work; the sequential path walks the
/// identical per-shard groups, so results do not depend on the gate.
const PARALLEL_RUN_MIN_EVENTS: usize = 24;

/// Base of the per-shard latency stream ids: shard `i` draws from
/// `SimRng::stream_seed(cfg.seed, SHARD_STREAM_BASE + i)`. The high
/// bit block keeps the shard streams disjoint from the fixed fork ids
/// the deployment hands out (pool `1`, cloud `100 + i`) at any
/// realistic VC count.
const SHARD_STREAM_BASE: u64 = 1 << 32;

/// Base of the per-shard *fault* stream ids: shard `i` draws its crash
/// hazards from `SimRng::stream_seed(cfg.seed, FAULT_STREAM_BASE + i)`.
/// A block of its own, disjoint from the latency streams — enabling
/// the fault plane must not perturb a single latency draw, so a fault
/// run stays comparable to its fault-free twin and faults-off runs
/// stay byte-identical to pre-fault-plane goldens.
const FAULT_STREAM_BASE: u64 = 2 << 32;

/// The assembled Meryn platform: one [`VcShard`] per deployed Virtual
/// Cluster, the [`SharedFabric`] singletons, the one event queue that
/// holds their deterministic schedule and the loop that drains it.
/// (The paper's prototype glues its components together with shell
/// scripts over two Snooze installations; here the glue is this
/// discrete-event engine.)
///
/// Deploy with [`Self::new`], hand over the workload
/// ([`Self::enqueue_workload`] or [`Self::stream_workload`]), advance
/// ([`Self::run_until`], [`Self::run_to_completion`] or [`Self::step`])
/// and report with [`Self::finalize`]; [`Self::run`] does all four.
pub struct Platform {
    pub(crate) cfg: PlatformConfig,
    placement: Arc<dyn PlacementPolicy>,
    bidding: Arc<dyn BiddingPolicy>,
    /// One shard per deployed VC, `VcId` order.
    pub(crate) shards: Vec<VcShard>,
    /// Deployed framework kinds, `VcId` order — the pure-config routing
    /// table arrivals resolve against when they are dispatched
    /// (rebuilt from `cfg`, never serialized).
    vc_kinds: Vec<FrameworkKind>,
    /// The shared singletons.
    pub(crate) fabric: SharedFabric,
    /// The one event queue: every pending event of every shard, in
    /// `(due, seq)` order. An event's shard is resolved when its run is
    /// drained ([`owner`]).
    queue: EventQueue<Event>,
    /// The global sequence counter.
    next_seq: u64,
    now: SimTime,
    /// `AppId → VcId`, appended at admission (AppIds are dense).
    app_vc: Vec<VcId>,
    next_app: u64,
    /// Recycled scratch for fabric-apply follow-up events.
    scratch_out: Vec<(SimTime, Event)>,
    /// Ids of the shards the current run touches (recycled buffer).
    touched: Vec<usize>,
    /// Recycled effect buffers (the batch loop's outputs).
    effect_bufs: Vec<Vec<SequencedEffect>>,
    /// Recycled merge buffer for one batch's canonical effect stream.
    effect_gather: Vec<SequencedEffect>,
    /// Same-instant runs wide enough to fan out to worker threads.
    parallel_runs: u64,
    /// Exact totals of the retired applications, in either mode.
    totals: AggregateReport,
    /// Records of retired applications, retirement order; `Some`
    /// exactly under [`ReportMode::Full`].
    records: Option<Vec<AppRecord>>,
    /// Latest completion among retired applications (they are gone by
    /// `finalize`, so the report's completion time is tracked as they
    /// retire).
    completion: SimTime,
    /// The workload's arrival stream, once one is attached.
    arrivals: Option<ArrivalSource>,
}

/// A workload's arrival stream: submissions pulled lazily from an
/// iterator in arrival order, each carrying its tag from the block
/// reserved when the workload was attached, so a run holds one arrival
/// ahead of its clock instead of the whole workload.
struct ArrivalSource {
    /// The submission stream, arrival order (`at` nondecreasing).
    iter: Box<dyn Iterator<Item = Submission> + Send>,
    /// Buffered head: peeked but not yet processed.
    head: Option<Submission>,
    cursor: ArrivalCursor,
}

impl ArrivalSource {
    /// Key of the next streamed arrival, `None` when exhausted.
    fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        if self.head.is_none() {
            self.head = self.iter.next();
        }
        let seq = self.cursor.first_seq + self.cursor.emitted;
        self.head.as_ref().map(|s| (s.at, seq))
    }

    /// Takes the peeked arrival with its sequence tag.
    fn pop(&mut self) -> (u64, Submission) {
        let sub = self.head.take().expect("stream peeked before popping");
        let ArrivalCursor {
            first_seq,
            count,
            emitted,
        } = self.cursor;
        assert!(
            emitted < count,
            "streamed workload exceeded its declared submission count"
        );
        self.cursor.emitted += 1;
        (first_seq + emitted, sub)
    }
}

/// How far an [`ArrivalSource`] got. Workloads are deterministic
/// functions of their spec, so a checkpoint stores only this cursor and
/// a resumed run re-creates the stream and skips `emitted` submissions.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
struct ArrivalCursor {
    /// Tag of the workload's first arrival: the block reserved at
    /// attach time is `first_seq..first_seq + count`.
    first_seq: u64,
    /// Submissions the workload holds.
    count: u64,
    /// Arrivals dispatched so far.
    emitted: u64,
}

/// Why a workload could not be attached. Attaching cannot fail — a
/// second workload on one platform is API misuse and panics — so the
/// type has no values; [`Platform::stream_workload`] keeps its
/// `Result` so existing callers compile unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamError {}

impl std::fmt::Display for StreamError {
    fn fmt(&self, _: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {}
    }
}

impl std::error::Error for StreamError {}

/// Layout version of [`EngineCheckpoint`], written into every
/// checkpoint's required `format` field. Bump it whenever the captured
/// state changes shape; a resume reads the number first
/// ([`CheckpointHeader`]), so no older layout has to parse as this one.
/// Layout 7 holds the retired applications' exact integer totals in
/// both report modes, and their records too in full mode. Layout 6 kept
/// Welford running statistics in aggregate mode and records alone in
/// full mode; like layout 7 it holds the engine's one event queue, and
/// each shard its pop count. Layout 5 kept one event queue per shard;
/// its pool and clouds hold live VMs only (one map of live leases per
/// cloud) and it holds retired applications as layout 6 does.
/// Layout 4 kept every terminated VM in the pool and clouds, with
/// active counters and three lease maps per cloud; layout 3 kept a
/// full-mode run's completed applications in its shards, layout 2 a
/// bulk-enqueued run's pending arrivals in its shard queues and layout
/// 1 a control queue.
pub const CHECKPOINT_FORMAT: u32 = 7;

/// The one field every checkpoint layout carries. A resume parses it
/// before the rest of the file and refuses another layout by its
/// number, whatever shape the rest has.
#[derive(Debug, Clone, Copy, Deserialize)]
pub struct CheckpointHeader {
    /// Layout version; [`CHECKPOINT_FORMAT`] when written by this build.
    pub format: u32,
}

impl CheckpointHeader {
    /// Checks that this build can resume the checkpoint's layout.
    ///
    /// # Errors
    /// A `format` other than [`CHECKPOINT_FORMAT`].
    pub fn check(self) -> Result<(), String> {
        if self.format == CHECKPOINT_FORMAT {
            Ok(())
        } else {
            Err(format!(
                "checkpoint format {} cannot be resumed by this build (expects format \
                 {CHECKPOINT_FORMAT})",
                self.format
            ))
        }
    }
}

/// A full engine snapshot: every shard (live applications and framework
/// masters included), the event queue, the shared fabric (live pool VMs
/// and cloud leases, ledger totals, metrics, RNG stream positions), the
/// retired applications' totals (and records, in full mode), the global
/// sequence counter and the arrival stream's cursor. Serializable with serde;
/// resuming from it with the same workload reproduces the
/// uninterrupted run byte-for-byte at any thread count.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineCheckpoint {
    /// Layout version; [`CHECKPOINT_FORMAT`] when written by this build.
    pub format: u32,
    /// The deployment configuration; placement/bidding policies and
    /// per-shard policy slices are rebuilt from it at restore.
    pub cfg: PlatformConfig,
    shards: Vec<ShardSnapshot>,
    queue: QueueSnapshot<Event>,
    fabric: SharedFabric,
    next_seq: u64,
    now: SimTime,
    app_vc: Vec<VcId>,
    next_app: u64,
    totals: AggregateReport,
    records: Option<Vec<AppRecord>>,
    completion: SimTime,
    arrivals: ArrivalCursor,
    parallel_runs: u64,
}

impl EngineCheckpoint {
    /// Submissions in the checkpointed run's workload — the size of the
    /// tag block reserved when it was attached (0 if none was). A
    /// resume must hand back a workload of exactly this size.
    pub fn arrival_count(&self) -> u64 {
        self.arrivals.count
    }

    /// The checkpoint instant.
    pub fn taken_at(&self) -> SimTime {
        self.now
    }
}

/// What the totals fold of one application.
fn outcome(app: &Application) -> Outcome<'static> {
    Outcome {
        vc: app.vc,
        placement: app.placement.table1_case(),
        exec: app.exec_duration(),
        processing: app.processing_time(),
        cost: app.cost,
        revenue: app.revenue().unwrap_or(Money::ZERO),
        penalty: app.penalty().unwrap_or(Money::ZERO),
        violated: app.violated(),
    }
}

/// Builds one application's report record.
fn app_record(app: &Application, vc_name: &str) -> AppRecord {
    AppRecord {
        id: app.id,
        vc: app.vc,
        vc_name: vc_name.to_owned(),
        placement: app.placement.table1_case().to_owned(),
        submitted: app.contract.agreed_at,
        deadline: app.contract.deadline_at(),
        framework_submitted: app.framework_submitted_at,
        completed: app.completed_at(),
        processing: app.processing_time(),
        exec: app.exec_duration(),
        cost: app.cost,
        price: app.contract.terms.price,
        revenue: app.revenue().unwrap_or(Money::ZERO),
        penalty: app.penalty().unwrap_or(Money::ZERO),
        violated: app.violated(),
        violation_detected: app.violation_detected,
        suspensions: app.suspensions,
        negotiation_rounds: app.negotiation_rounds,
    }
}

/// The config slice shards apply locally (rebuilt, not serialized).
fn shard_policy(cfg: &PlatformConfig) -> ShardPolicy {
    ShardPolicy {
        violation_policy: cfg.violation_policy,
        check_interval: cfg.controller_check_interval,
        private_cost: cfg.private_cost,
        vm_mtbf: cfg.faults.vm_mtbf_secs.map(SimDuration::from_secs),
        quote_speed: cfg.quote_speed,
        allowance: cfg.processing_allowance,
        max_rounds: cfg.max_negotiation_rounds,
        max_vms: cfg.private_capacity,
        base_latency: cfg.latencies.base,
        suspend_local: cfg.latencies.suspend_local,
        suspend_remote: cfg.latencies.suspend_remote,
    }
}

/// The shard that owns `event`: named by the event itself, or the
/// shard its application was routed to (`app_vc`, filled as arrivals
/// are dispatched and never rewritten).
fn owner(event: &Event, app_vc: &[VcId]) -> VcId {
    match event.owner() {
        EventOwner::Shard(vc) => vc,
        EventOwner::AppShard(app) => app_vc[app.0 as usize],
    }
}

/// Outcome of one cloud-escalation attempt (see
/// [`Platform::try_escalate_to_cloud`]).
enum Escalation {
    /// Leases are provisioning; a fresh completion prediction is coming.
    Leased,
    /// Nothing here will change by waiting out a backoff: no cloud has
    /// the quota, or the job is not actually waiting in its queue.
    NoCloud,
    /// Every capable cloud refused transiently (fault plane: an outage
    /// window or a rejected admission) — worth retrying after backoff.
    Refused,
}

impl Platform {
    /// Deploys the platform described by `cfg`: boots the initial VC
    /// slaves on the private pool (deployment precedes the workload, so
    /// initial VMs come up instantly at t = 0) and pre-stages every
    /// framework image in every cloud (§3.5).
    pub fn new(cfg: PlatformConfig) -> Self {
        cfg.validate();
        let placement = policy::placement(&cfg.policy).expect("validated policy resolves");
        let bidding = policy::bidding(&cfg.bidding).expect("validated bidding policy resolves");
        let master = SimRng::new(cfg.seed);
        let mut pool = PrivatePool::with_vm_capacity(
            cfg.private_capacity,
            cfg.vm_spec,
            cfg.latencies.transfer_boot,
            cfg.latencies.transfer_stop,
            1.0,
            master.fork(1),
        );
        let mut images = ImageRegistry::new();
        let pricing =
            PricingParams::new(cfg.vm_price, cfg.penalty_factor).with_bound(cfg.penalty_bound);

        let mut vcs: Vec<VirtualCluster> = Vec::with_capacity(cfg.vcs.len());
        for (i, vc_cfg) in cfg.vcs.iter().enumerate() {
            let image = images.register(format!("{}-image", vc_cfg.name), 4096);
            let framework: Box<dyn Framework> = match vc_cfg.kind {
                FrameworkKind::Batch => {
                    if vc_cfg.backfill {
                        Box::new(BatchFramework::with_backfill())
                    } else {
                        Box::new(BatchFramework::new())
                    }
                }
                FrameworkKind::MapReduce => Box::new(MapReduceFramework::with_locality_penalty(
                    vc_cfg.locality_penalty_pct,
                )),
            };
            vcs.push(VirtualCluster::new(
                VcId(i),
                vc_cfg.name.clone(),
                vc_cfg.kind,
                image,
                framework,
                pricing,
            ));
        }

        let mut clouds = Vec::with_capacity(cfg.clouds.len());
        for (i, c) in cfg.clouds.iter().enumerate() {
            // The fault wiring is unconditional: with the default
            // (disabled) spec the outage list is empty and the
            // rejection probability 0.0, so no draw ever happens and
            // no lease is ever refused — faults-off runs are
            // byte-identical to pre-fault-plane ones.
            let outages = cfg
                .faults
                .cloud_outages
                .iter()
                .filter(|w| w.cloud == i)
                .map(|w| {
                    (
                        SimTime::from_secs(w.from_secs),
                        SimTime::from_secs(w.to_secs),
                    )
                })
                .collect();
            let mut cloud = PublicCloud::new(
                CloudId(i as u16),
                c.name.clone(),
                c.price.clone(),
                cfg.latencies.cloud_provision,
                cfg.latencies.cloud_release,
                c.speed,
                c.quota,
                master.fork(100 + i as u64),
            )
            .with_faults(
                outages,
                cfg.faults.lease_rejection_prob,
                SimDuration::from_secs(cfg.faults.lease_rejection_secs),
            );
            for vc in &vcs {
                cloud.stage_image(vc.image);
            }
            clouds.push(cloud);
        }

        // Initial deployment: boot each VC's share instantly at t=0.
        for (vc, vc_cfg) in vcs.iter_mut().zip(&cfg.vcs) {
            for _ in 0..vc_cfg.initial_vms {
                let (vm, _boot) = pool
                    .begin_start(vc.image, SimTime::ZERO)
                    .expect("validated initial allocation fits");
                pool.complete_start(vm, SimTime::ZERO)
                    .expect("fresh VM completes start");
                // meryn-lint: allow(float-money) — 1.0 is the slave speed factor; private_cost is integer Money
                vc.add_slave(vm, 1.0, Location::Private, cfg.private_cost)
                    .expect("fresh slave is unique");
            }
        }

        let mut fabric = SharedFabric::new(pool, clouds, cfg.client_managers);
        // Running totals answer every query the run makes of its ledger.
        fabric.ledger.set_retain_entries(false);
        let policy = shard_policy(&cfg);
        let seed = cfg.seed;
        let shards = vcs
            .into_iter()
            .enumerate()
            .map(|(i, vc)| {
                let rng = SimRng::new(SimRng::stream_seed(seed, SHARD_STREAM_BASE + i as u64));
                let fault_rng =
                    SimRng::new(SimRng::stream_seed(seed, FAULT_STREAM_BASE + i as u64));
                VcShard::new(vc, policy, rng, fault_rng)
            })
            .collect();
        let vc_kinds = cfg.vcs.iter().map(|v| v.kind).collect();
        let totals = AggregateReport::new(cfg.vcs.len());
        Platform {
            cfg,
            placement,
            bidding,
            shards,
            vc_kinds,
            fabric,
            queue: EventQueue::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            app_vc: Vec::new(),
            next_app: 0,
            scratch_out: Vec::new(),
            touched: Vec::new(),
            effect_bufs: Vec::new(),
            effect_gather: Vec::new(),
            parallel_runs: 0,
            totals,
            records: Some(Vec::new()),
            completion: SimTime::ZERO,
            arrivals: None,
        }
    }

    /// Selects whether the run keeps its per-application records; must
    /// be chosen before the run starts and before a workload is
    /// attached, which sizes a full-mode run's record list.
    ///
    /// Engine state is O(live) in either mode: every completed
    /// application retires at its canonical effect position and folds
    /// into the run's exact totals, which every report number reads.
    /// Under [`ReportMode::Full`] (the default) its record joins the
    /// run's record list as well; under [`ReportMode::Aggregate`] no
    /// record is built, so the whole run stays O(live). This is the
    /// hyperscale configuration.
    pub fn with_report_mode(mut self, mode: ReportMode) -> Self {
        assert!(
            self.now == SimTime::ZERO && self.next_app == 0 && self.arrivals.is_none(),
            "report mode must be chosen before the run starts and before a workload is attached"
        );
        self.records = (mode == ReportMode::Full).then(Vec::new);
        self
    }

    /// Sets whether the used-VM step curves are sampled (on by
    /// default). Peaks are tracked either way.
    pub fn with_series_recording(mut self, on: bool) -> Self {
        self.fabric.record_series = on;
        self
    }

    /// Logical events processed so far, summed over every shard
    /// (coalesced choreography events count one tick per VM in their
    /// batch, keeping the unit comparable with the pre-coalescing
    /// engine).
    pub fn events_processed(&self) -> u64 {
        self.shards.iter().map(VcShard::events_processed).sum()
    }

    /// Events popped from the engine's queue so far — the raw count
    /// beside the logical [`Self::events_processed`], which credits a
    /// coalesced batch one tick per VM.
    pub fn raw_events(&self) -> u64 {
        self.queue.events_processed()
    }

    /// Per-shard processed-event counters as `(vc name, events)` pairs,
    /// `VcId` order — the `scenario --bench` breakdown. They sum to
    /// [`Self::events_processed`].
    pub fn shard_event_counts(&self) -> Vec<(String, u64)> {
        self.shards
            .iter()
            .map(|s| (s.vc.name.clone(), s.events_processed()))
            .collect()
    }

    /// Same-instant cross-shard runs wide enough to be fanned out to
    /// worker threads so far.
    pub fn parallel_runs(&self) -> u64 {
        self.parallel_runs
    }

    /// Audits the shared fabric's conservation invariants (see
    /// [`SharedFabric::audit_invariants`]): pool and clouds list live
    /// VMs only, within capacity, and busy counters are bounded by the
    /// live VMs. `Err` carries the first violated invariant. Holds
    /// between runs — after [`Self::step`], [`Self::run_until`] or a
    /// restore.
    pub fn audit_invariants(&self) -> Result<(), String> {
        self.fabric.audit_invariants()
    }

    /// Looks a *live* application up across shards: `None` once it has
    /// completed and retired into its report record (read those from
    /// [`Self::finalize`]), and for ids never admitted.
    pub fn app(&self, id: AppId) -> Option<&Application> {
        let vc = *self.app_vc.get(id.0 as usize)?;
        self.shards[vc.0].apps.get(&id)
    }

    /// The private pool.
    pub fn pool(&self) -> &PrivatePool {
        &self.fabric.pool
    }

    /// The public clouds.
    pub fn clouds(&self) -> &[PublicCloud] {
        &self.fabric.clouds
    }

    /// The billing ledger: running totals only (a run retains no
    /// per-charge entries).
    pub fn ledger(&self) -> &Ledger {
        &self.fabric.ledger
    }

    // ---- scheduling --------------------------------------------------------

    /// Assigns the next global sequence tag and queues `event`.
    fn push_event(&mut self, due: SimTime, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push_tagged(due, seq, event);
    }

    /// Hands a workload to the run: its submissions, stable-sorted by
    /// arrival instant, become the run's arrival stream (see
    /// [`Self::stream_workload`]). Accepts owned and borrowed
    /// submissions alike (`Vec<Submission>`, `&[Submission]`, any
    /// iterator of either). `AppId`s follow arrival order.
    ///
    /// # Panics
    /// When a workload is already attached: one workload per run.
    pub fn enqueue_workload<I>(&mut self, workload: I)
    where
        I: IntoIterator,
        I::Item: Borrow<Submission>,
    {
        let mut subs: Vec<Submission> = workload.into_iter().map(|s| *s.borrow()).collect();
        subs.sort_by_key(|s| s.at);
        let Ok(()) = self.stream_workload(subs.len() as u64, subs);
    }

    /// Attaches a workload of exactly `count` submissions as the run's
    /// arrival stream, reserving its block of `count` sequence tags:
    /// the i-th arrival carries the i-th tag of the block. Arrivals are
    /// pulled from the iterator only as the run reaches their instant,
    /// so the run holds O(1) workload memory.
    ///
    /// The iterator must yield submissions in nondecreasing `at` order
    /// (workload generators do) and at most `count` of them. Attach it
    /// before the run starts. A full-mode run files at most one record
    /// per submission, so its record list is sized here, once.
    ///
    /// # Panics
    /// When a workload is already attached: one workload per run.
    pub fn stream_workload<I>(&mut self, count: u64, workload: I) -> Result<(), StreamError>
    where
        I: IntoIterator<Item = Submission>,
        I::IntoIter: Send + 'static,
    {
        assert!(
            self.arrivals.is_none(),
            "one workload per run: a workload is already attached"
        );
        let first_seq = self.next_seq;
        self.next_seq += count;
        if let Some(records) = self.records.as_mut() {
            records.reserve_exact(count as usize);
        }
        self.arrivals = Some(ArrivalSource {
            iter: Box::new(workload.into_iter().fuse()),
            head: None,
            cursor: ArrivalCursor {
                first_seq,
                count,
                emitted: 0,
            },
        });
        Ok(())
    }

    /// The instant of the globally next event, `None` once the queue
    /// and the arrival stream are drained. Before returning, every
    /// arrival due at (or before) that instant is dispatched into the
    /// queue — see [`Self::pump_stream`] — so a run drains the whole
    /// instant, arrivals and queued events alike.
    fn next_instant(&mut self) -> Option<SimTime> {
        loop {
            let queued = self.queue.peek_key().map(|(due, _)| due);
            let stream_due = self
                .arrivals
                .as_mut()
                .and_then(ArrivalSource::peek_key)
                .map(|(due, _)| due);
            match stream_due {
                Some(due) if queued.is_none_or(|t| due <= t) => self.pump_stream(due),
                _ => return queued,
            }
        }
    }

    /// Dispatches every arrival due at `t` into the queue with its
    /// reserved tag. Routing is a function of the
    /// deployment config alone: a routed arrival gets the next dense
    /// `AppId`; a routing failure (unknown VC index, no VC of the kind)
    /// tallies a rejection, consumes no `AppId` and leaves its tag
    /// unused. The whole instant is pumped at once, so by the time a
    /// run at `t` is drained the stream's head is strictly later.
    fn pump_stream(&mut self, t: SimTime) {
        loop {
            let Some((due, _)) = self.arrivals.as_mut().and_then(ArrivalSource::peek_key) else {
                return;
            };
            if due != t {
                return;
            }
            let Some((seq, sub)) = self.arrivals.as_mut().map(ArrivalSource::pop) else {
                unreachable!("stream peeked above")
            };
            debug_assert_eq!(sub.at, t, "streamed arrivals fire at their instant");
            match route_kinds(sub.target, &self.vc_kinds) {
                Ok(vc) => {
                    let app = AppId(self.next_app);
                    self.next_app += 1;
                    self.app_vc.push(vc);
                    self.queue.push_tagged(t, seq, Event::Arrival { app, sub });
                }
                Err(_) => self.fabric.rejected += 1,
            }
        }
    }

    /// Processes the next same-instant run (see the module docs) and
    /// returns `false` once the queue and the stream are drained. A
    /// debugging and test hook: the audit invariants hold after every
    /// step.
    pub fn step(&mut self) -> bool {
        let Some(t) = self.next_instant() else {
            return false;
        };
        self.run_instant(t);
        true
    }

    /// Drains the run: the batched, shard-parallel production loop.
    pub fn run_to_completion(&mut self) {
        self.run_until(SimTime::MAX);
    }

    /// Processes runs until the next event is due strictly after
    /// `stop` (events *at* `stop` are processed). Returns `true` while
    /// undrained events remain — at which point the engine sits on a
    /// clean instant boundary, ready to be checkpointed or resumed.
    pub fn run_until(&mut self, stop: SimTime) -> bool {
        loop {
            let Some(t) = self.next_instant() else {
                return false;
            };
            if t > stop {
                return true;
            }
            self.run_instant(t);
        }
    }

    /// **The** entry point for external drivers: enqueues `workload`,
    /// drains the event loop and reports. Equivalent to
    /// [`Self::enqueue_workload`] + [`Self::run_to_completion`] +
    /// [`Self::finalize`]; use those pieces directly only when stepping
    /// or inspecting mid-run state.
    pub fn run<I>(mut self, workload: I) -> RunReport
    where
        I: IntoIterator,
        I::Item: Borrow<Submission>,
    {
        self.enqueue_workload(workload);
        self.run_to_completion();
        self.finalize()
    }

    /// The one run function: drains every event queued at `t` (the
    /// next instant, as returned by [`Self::next_instant`]) into its
    /// shard's inbox, processes each shard's slice and applies the
    /// effects in canonical order. Events the effects schedule at `t`
    /// get later tags and join the next run — exactly the monolith's
    /// order.
    fn run_instant(&mut self, t: SimTime) {
        self.now = t;
        // `next_instant` already pumped every streamed arrival at `t`
        // into the queue, so the stream never bounds a run.
        debug_assert!(
            self.arrivals
                .as_mut()
                .and_then(ArrivalSource::peek_key)
                .is_none_or(|(due, _)| due > t),
            "same-instant streamed arrivals were pumped before the run"
        );
        self.touched.clear();
        let mut total = 0usize;
        while let Some((seq, ev)) = self.queue.pop_at(t) {
            let vc = owner(&ev, &self.app_vc);
            let inbox = &mut self.shards[vc.0].inbox;
            if inbox.is_empty() {
                self.touched.push(vc.0);
            }
            inbox.push((seq, ev));
            total += 1;
        }
        debug_assert!(total > 0, "the next instant drained nothing");
        // Single-shard fast path (the common case: scattered job
        // completions and per-app submits): one shard's effect buffer
        // is already in canonical key order — `due` is fixed at `t`,
        // seqs arrive nondecreasing and the vc is constant — so skip
        // the merge machinery and apply it directly.
        if let [vc] = self.touched[..] {
            let effects = self.effect_bufs.pop().unwrap_or_default();
            let effects = self.shards[vc].process(t, effects);
            debug_assert!(effects.is_sorted_by_key(|e| e.key));
            self.apply_effects(effects);
            return;
        }
        // Hand each touched shard out once: walk the sorted ids with
        // one pass of the shard iterator, whose `nth` skips in O(1).
        self.touched.sort_unstable();
        let mut work: Vec<(&mut VcShard, Vec<SequencedEffect>)> =
            Vec::with_capacity(self.touched.len());
        let (mut shards, mut next) = (self.shards.iter_mut(), 0);
        for &vc in &self.touched {
            let Some(shard) = shards.nth(vc - next) else {
                unreachable!("touched shard ids are sorted, unique and in range")
            };
            next = vc + 1;
            work.push((shard, self.effect_bufs.pop().unwrap_or_default()));
        }
        // Process the slices — concurrently when the run is wide enough
        // to pay for the fan-out. Either path computes the identical
        // per-shard effect buffers.
        let results: Vec<Vec<SequencedEffect>> = if total >= PARALLEL_RUN_MIN_EVENTS {
            self.parallel_runs += 1;
            work.into_par_iter()
                .map(|(shard, effects)| shard.process(t, effects))
                .collect()
        } else {
            work.into_iter()
                .map(|(shard, effects)| shard.process(t, effects))
                .collect()
        };
        // Canonical application: merge the per-shard buffers by key.
        // Seqs are globally unique, so the stable sort replays the run's
        // effects in the exact global schedule order (ties — one
        // event's own effects — keep emission order).
        let mut gathered = std::mem::take(&mut self.effect_gather);
        debug_assert!(gathered.is_empty());
        for mut effects in results {
            gathered.append(&mut effects);
            self.effect_bufs.push(effects);
        }
        gathered.sort_by_key(|e| e.key);
        for item in gathered.drain(..) {
            self.apply_one(item);
        }
        self.effect_gather = gathered;
    }

    // ---- effect application ------------------------------------------------

    /// Applies an already-ordered effect buffer and recycles it (the
    /// single-shard fast path and in-placement suspensions; wider runs
    /// merge their buffers first and call [`Self::apply_one`] directly).
    fn apply_effects(&mut self, mut effects: Vec<SequencedEffect>) {
        for item in effects.drain(..) {
            self.apply_one(item);
        }
        self.effect_bufs.push(effects);
    }

    fn apply_one(&mut self, item: SequencedEffect) {
        let SequencedEffect { key, effect } = item;
        match effect {
            // The most common effect by far (every check re-arm, every
            // dispatch's completion): queue it straight away instead of
            // bouncing through the fabric's follow-up buffer.
            Effect::Schedule { due, event } => self.push_event(due, event),
            Effect::Escalate {
                app,
                violated,
                attempt,
            } => self.on_escalate(key.due, app, violated, attempt),
            Effect::VmCrashed { vm, location } => {
                self.apply_vm_crashed(key.due, key.vc, vm, location);
            }
            Effect::TransferStopped { app, vms } => {
                self.apply_transfer_stopped(key.due, app, vms);
            }
            Effect::ReturnStopped { src, victim, vms } => {
                self.apply_return_stopped(key.due, src, victim, vms);
            }
            Effect::Retire { app, job } => self.apply_retire(app, job),
            Effect::Place {
                app,
                handling,
                quoted_exec,
                suspend_local,
                suspend_remote,
            } => self.apply_place(
                key,
                app,
                handling,
                quoted_exec,
                suspend_local,
                suspend_remote,
            ),
            Effect::Rejected => self.fabric.rejected += 1,
            other => {
                let mut out = std::mem::take(&mut self.scratch_out);
                self.fabric.apply(key, other, &mut out);
                for (due, ev) in out.drain(..) {
                    self.push_event(due, ev);
                }
                self.scratch_out = out;
            }
        }
    }

    /// Applies [`Effect::Retire`]: files the completed application (see
    /// [`Self::file_record`]) and drops its per-app state — the
    /// application, the job → app mapping and the framework's job
    /// entry. Only `app_vc` keeps its 8-byte entry: it still routes
    /// stale per-app events (the ControllerCheck a reporting controller
    /// armed for its deadline) to a shard that then ignores them.
    fn apply_retire(&mut self, app_id: AppId, job: JobId) {
        let vc = self.app_vc[app_id.0 as usize];
        let shard = &mut self.shards[vc.0];
        let app = shard
            .apps
            .remove(&app_id)
            .expect("retiring application exists");
        shard.vc.job_to_app.remove(&job);
        shard
            .vc
            .framework
            .retire_job(job)
            .expect("retiring job just completed");
        self.file_record(&app);
    }

    /// Files one application: folds it into the run's totals and, in
    /// full mode only, builds and keeps its record.
    fn file_record(&mut self, app: &Application) {
        if let Some(at) = app.completed_at() {
            self.completion = self.completion.max_of(at);
        }
        self.totals.push(&outcome(app));
        if let Some(records) = self.records.as_mut() {
            records.push(app_record(app, &self.shards[app.vc.0].vc.name));
        }
    }

    /// Acts on a shard's escalation request: the shard already vetted
    /// everything it can see (verdict needs attention, job submitted,
    /// no acquisition in flight); the market transaction happens here.
    ///
    /// `attempt` is 0 for a controller check and counts up through the
    /// fault plane's backoff chain. A *transient* refusal (outage
    /// window, rejected admission) within the retry budget arms
    /// one [`Event::LeaseRetry`] after a deterministic capped
    /// exponential backoff — the normal check chain stays suspended
    /// while the retry chain owns the application, so exactly one timer
    /// is ever armed. An exhausted budget, or a dead end no backoff can
    /// fix, degrades exactly like the report-mode path: mark a violated
    /// SLA and retire, or keep monitoring on the private estate.
    fn on_escalate(&mut self, now: SimTime, app_id: AppId, violated: bool, attempt: u32) {
        let Some(interval) = self.cfg.controller_check_interval else {
            return;
        };
        let outcome = self.try_escalate_to_cloud(now, app_id);
        if matches!(outcome, Escalation::Refused) && attempt < self.cfg.faults.retry_max {
            self.fabric.lease_retries += 1;
            let delay = self.cfg.faults.backoff_delay(attempt);
            self.push_event(
                now + delay,
                Event::LeaseRetry {
                    app: app_id,
                    attempt: attempt + 1,
                },
            );
            return;
        }
        match outcome {
            Escalation::Leased => {
                // Escalated: a fresh completion prediction is coming;
                // keep monitoring.
                self.push_event(
                    next_check(now, interval),
                    Event::ControllerCheck { app: app_id },
                );
            }
            Escalation::Refused | Escalation::NoCloud => {
                if matches!(outcome, Escalation::Refused) {
                    // The backoff budget is spent: this acquisition
                    // degrades to the private pool for good.
                    self.fabric.retries_exhausted += 1;
                }
                if violated {
                    let vc = self.app_vc[app_id.0 as usize];
                    let app = self.shards[vc.0].apps.get_mut(&app_id).expect("app exists");
                    if app.violation_detected.is_none() {
                        app.violation_detected = Some(now);
                    }
                    return;
                }
                self.push_event(
                    next_check(now, interval),
                    Event::ControllerCheck { app: app_id },
                );
            }
        }
    }

    /// Applies [`Effect::VmCrashed`]: terminates the victim on its
    /// estate. A private victim's slot immediately begins booting a
    /// replacement with the shard's image (VMs are fungible after the
    /// re-image, so the VC's capacity — and any lending it owes — is
    /// conserved); a cloud victim's lease closes billed through the
    /// crash instant.
    fn apply_vm_crashed(&mut self, now: SimTime, vc: VcId, vm: VmId, location: Location) {
        self.fabric.vm_crashes += 1;
        self.fabric.jobs_reexecuted += 1;
        match location {
            Location::Private => {
                self.fabric.crashed_private += 1;
                self.fabric
                    .pool
                    .crash_vm(vm, now)
                    .unwrap_or_else(|e| unreachable!("crashed slave is a live pool VM: {e:?}"));
                let image = self.shards[vc.0].vc.image;
                let (new_vm, boot) = self
                    .fabric
                    .pool
                    .begin_start(image, now)
                    .unwrap_or_else(|e| unreachable!("the crashed slot just freed: {e:?}"));
                self.push_event(
                    now + boot,
                    Event::CrashReplacementReady {
                        vc,
                        vms: vec![new_vm],
                    },
                );
            }
            Location::Cloud(cloud) => {
                self.fabric.crashed_cloud += 1;
                let close = self.fabric.clouds[cloud.0 as usize]
                    .crash_lease(vm, now)
                    .unwrap_or_else(|e| unreachable!("crashed lease is live: {e:?}"));
                self.fabric.cloud_bill += close.cost;
            }
        }
    }

    /// Completes a VM transfer's stop batch — an inbound transfer or a
    /// return to the lender — and boots a replacement with `image` in
    /// each slot it freed (pool RNG draws — canonical-order work),
    /// replacing `vms` in place. Returns the slowest boot.
    fn reboot_stopped(&mut self, now: SimTime, image: ImageId, vms: &mut [VmId]) -> SimDuration {
        let mut done = SimDuration::ZERO;
        for vm in vms {
            self.fabric
                .pool
                .complete_stop(*vm, now)
                .expect("transfer stop completes");
            let (new_vm, boot) = self
                .fabric
                .pool
                .begin_start(image, now)
                .expect("the slot just freed");
            *vm = new_vm;
            done = done.max_of(boot);
        }
        done
    }

    /// Expands a transfer's completed stop batch with the destination
    /// image, parks the replacements in the pending acquisition and
    /// schedules the coalesced ready event at the slowest boot.
    fn apply_transfer_stopped(&mut self, now: SimTime, app: AppId, mut vms: Vec<VmId>) {
        let dest = self.app_vc[app.0 as usize];
        let done = self.reboot_stopped(now, self.shards[dest.0].vc.image, &mut vms);
        let Some(PendingAcquisition::Transfer { vms: slot }) =
            self.shards[dest.0].pending.get_mut(&app)
        else {
            unreachable!("transfer batch without pending acquisition")
        };
        debug_assert!(slot.is_empty(), "stop batch arrives exactly once");
        *slot = vms;
        self.push_event(now + done, Event::TransferReady { app });
    }

    /// Expands a return's completed stop batch with the lender's image
    /// and schedules the coalesced ready event at the slowest boot.
    fn apply_return_stopped(&mut self, now: SimTime, src: VcId, victim: AppId, mut vms: Vec<VmId>) {
        let done = self.reboot_stopped(now, self.shards[src.0].vc.image, &mut vms);
        self.push_event(now + done, Event::ReturnReady { src, victim, vms });
    }

    /// Attempts the [`crate::config::ViolationPolicy::EscalateToCloud`]
    /// action: pull the application's waiting job out of the framework
    /// queue and burst it to the cheapest *available* cloud.
    /// [`Escalation::NoCloud`] when the application is not actually
    /// waiting in a queue or no cloud has the quota;
    /// [`Escalation::Refused`] when capable clouds exist but all
    /// refused transiently (fault plane) — the caller's backoff chain
    /// decides whether to re-ask.
    fn try_escalate_to_cloud(&mut self, now: SimTime, app_id: AppId) -> Escalation {
        let vc_id = self.app_vc[app_id.0 as usize];
        let (spec, job) = {
            let app = &self.shards[vc_id.0].apps[&app_id];
            (app.spec, app.job)
        };
        let Some(job) = job else {
            return Escalation::NoCloud; // submission pipeline still in flight
        };
        if self.shards[vc_id.0].pending.contains_key(&app_id) {
            return Escalation::NoCloud; // an acquisition (or escalation) is in flight
        }
        let nb = spec.nb_vms();
        // Only currently-available clouds may bid; remembering whether
        // any cloud had the *quota* at all distinguishes a transient
        // refusal (worth a backoff) from a dead end.
        let mut quota_ok = false;
        let offer = self
            .fabric
            .clouds
            .iter()
            .filter(|c| c.can_lease(nb))
            .inspect(|_| quota_ok = true)
            .filter(|c| c.check_available(now).is_ok())
            .map(|c| (c.id, c.price_at(now)))
            .min_by_key(|&(_, r)| r);
        let Some((cloud, _)) = offer else {
            if quota_ok {
                // Every capable cloud is mid-outage or blacked out.
                self.fabric.lease_rejections += 1;
                return Escalation::Refused;
            }
            return Escalation::NoCloud;
        };
        // The admission draw comes *before* the queue withdrawal so a
        // rejected attempt leaves the job exactly where it was.
        if self.fabric.clouds[cloud.0 as usize]
            .admit_lease(now)
            .is_err()
        {
            self.fabric.lease_rejections += 1;
            return Escalation::Refused;
        }
        // `withdraw` fails exactly when the job is not waiting in the
        // queue — running, held for lending, or done.
        if self.shards[vc_id.0].vc.framework.withdraw(job).is_err() {
            return Escalation::NoCloud;
        }
        self.fabric.escalations += 1;
        self.begin_cloud_lease(now, app_id, cloud, nb, SimDuration::ZERO, Some(job));
        self.shards[vc_id.0]
            .apps
            .get_mut(&app_id)
            .expect("app exists")
            .placement = Placement::Cloud { cloud };
        Escalation::Leased
    }

    /// Leases `nb` VMs on `cloud` with the image of `app`'s VC (cloud
    /// RNG draws — canonical-order work), parks them in the app's
    /// pending acquisition and schedules the coalesced ready event
    /// `lead` plus the slowest provisioning after `now`. `existing_job`
    /// is the queued job an escalation withdrew; a fresh placement has
    /// none yet. Both callers picked `cloud` from offers that can lease.
    fn begin_cloud_lease(
        &mut self,
        now: SimTime,
        app: AppId,
        cloud: CloudId,
        nb: u64,
        lead: SimDuration,
        existing_job: Option<JobId>,
    ) {
        let vc = self.app_vc[app.0 as usize];
        self.fabric.bursts += nb;
        let image = self.shards[vc.0].vc.image;
        let shape = self.cfg.vm_spec;
        let c = &mut self.fabric.clouds[cloud.0 as usize];
        let speed = c.speed();
        let mut vms = Vec::with_capacity(nb as usize);
        let mut done = SimDuration::ZERO;
        for _ in 0..nb {
            let (vm, prov, rate) = c
                .begin_lease(image, shape, now)
                .expect("protocol only offers clouds that can lease");
            done = done.max_of(prov);
            vms.push((vm, rate));
        }
        self.push_event(now + lead + done, Event::CloudVmsReady { app });
        self.shards[vc.0].pending.insert(
            app,
            PendingAcquisition::CloudLease {
                cloud,
                vms,
                speed,
                existing_job,
            },
        );
    }

    /// Applies [`Effect::Place`]: the cross-shard half of an arrival.
    /// The owning shard already type-checked, negotiated, registered
    /// the application and drew every latency the placement might
    /// consume at the arrival's schedule position; here — at the same
    /// canonical position in the effect stream — Algorithm 1 reads
    /// every VC's view and the cloud market, the CM pipeline
    /// serializes (`cm_free_at`), and the decision executes against
    /// the pool/market. The application's controller is not armed
    /// here: the shard emits that [`Effect::Schedule`] right after
    /// this effect, so its tag follows every event the placement
    /// schedules.
    fn apply_place(
        &mut self,
        key: EffectKey,
        app_id: AppId,
        handling: SimDuration,
        quoted_exec: SimDuration,
        suspend_local: SimDuration,
        suspend_remote: SimDuration,
    ) {
        let EffectKey {
            due: now,
            seq,
            vc: vc_id,
        } = key;
        let (nb, decision) = {
            let views: Vec<VcView<'_>> = self.shards.iter().map(VcShard::view).collect();
            let nb = views[vc_id.0].apps[&app_id].spec.nb_vms();
            let req = BidRequest {
                nb_vms: nb,
                duration: quoted_exec + self.cfg.processing_allowance,
            };
            let decision = select_resources(
                self.placement.as_ref(),
                self.bidding.as_ref(),
                vc_id,
                &views,
                &self.fabric.clouds,
                req,
                now,
                ProtocolParams {
                    storage_rate: self.cfg.storage_rate,
                    suspension_enabled: self.cfg.suspension_enabled,
                    private_cost: self.cfg.private_cost,
                },
            );
            (nb, decision)
        };

        let placement = match decision {
            Decision::Local | Decision::Queue => Placement::Local,
            Decision::LocalAfterSuspension { .. } => Placement::LocalAfterSuspension,
            Decision::FromVc { src } => Placement::VcVms { from: src },
            Decision::FromVcAfterSuspension { src, .. } => {
                Placement::VcVmsAfterSuspension { from: src }
            }
            Decision::Cloud { cloud, .. } => Placement::Cloud { cloud },
        };
        match self.shards[vc_id.0].apps.get_mut(&app_id) {
            Some(app) => app.placement = placement,
            None => unreachable!("placed application was registered by its shard"),
        }

        // The handling latency was drawn in-shard; serializing it
        // through the CM pipeline consumes shared state (`cm_free_at`)
        // and so happens here, in canonical order.
        let base = self.fabric.cm_delay(now, handling);

        match decision {
            Decision::Local => {
                let shard = &mut self.shards[vc_id.0];
                let mut vms = shard.take_vm_buf();
                shard.vc.framework.idle_slaves_into(nb as usize, &mut vms);
                assert_eq!(
                    vms.len() as u64,
                    nb,
                    "Local decision implies enough idle VMs"
                );
                for &vm in &vms {
                    shard
                        .vc
                        .framework
                        .reserve_slave(vm)
                        .expect("idle slave is reservable");
                }
                shard.acquired.insert(app_id, vms);
                self.push_event(now + base, Event::SubmitToFramework { app: app_id });
            }
            Decision::Queue => {
                // Nothing can provide VMs now: hand to the framework and
                // let FIFO/backfill handle it when capacity frees up.
                self.push_event(now + base, Event::SubmitToFramework { app: app_id });
            }
            Decision::LocalAfterSuspension { victim } => {
                let mut sink = EffectSink::new(now, vc_id, seq);
                let freed = self.shards[vc_id.0].suspend_app(now, victim, &mut sink);
                self.fabric.suspensions += 1;
                self.apply_effects(sink.into_effects());
                assert!(freed.len() as u64 >= nb);
                let shard = &mut self.shards[vc_id.0];
                shard
                    .lendings
                    .insert(app_id, Lending { src: vc_id, victim });
                let mut vms = shard.take_vm_buf();
                vms.extend(freed.into_iter().take(nb as usize));
                for &vm in &vms {
                    shard
                        .vc
                        .framework
                        .reserve_slave(vm)
                        .expect("freed slave is reservable");
                }
                shard.acquired.insert(app_id, vms);
                self.push_event(
                    now + base + suspend_local,
                    Event::SubmitToFramework { app: app_id },
                );
            }
            Decision::FromVc { src } => {
                self.fabric.transfers += nb;
                let mut victims = self.shards[src.0].take_vm_buf();
                self.shards[src.0]
                    .vc
                    .framework
                    .idle_slaves_into(nb as usize, &mut victims);
                assert_eq!(victims.len() as u64, nb, "zero bid implies enough idle VMs");
                self.begin_transfer_stops(now, app_id, src, &victims, base);
                self.shards[src.0].recycle_vm_buf(victims);
            }
            Decision::FromVcAfterSuspension { src, victim } => {
                let mut sink = EffectSink::new(now, src, seq);
                let freed = self.shards[src.0].suspend_app(now, victim, &mut sink);
                self.fabric.suspensions += 1;
                self.apply_effects(sink.into_effects());
                assert!(
                    freed.len() as u64 >= nb,
                    "victim must hold at least the requested VMs"
                );
                self.shards[vc_id.0]
                    .lendings
                    .insert(app_id, Lending { src, victim });
                let mut take = self.shards[src.0].take_vm_buf();
                take.extend(freed.into_iter().take(nb as usize));
                self.begin_transfer_stops(now, app_id, src, &take, base + suspend_remote);
                self.shards[src.0].recycle_vm_buf(take);
            }
            Decision::Cloud { cloud, .. } => {
                if self.fabric.clouds[cloud.0 as usize]
                    .admit_lease(now)
                    .is_err()
                {
                    // Fault plane: the chosen cloud refused the lease
                    // (outage window or transient rejection). Degrade
                    // to the Queue decision — the job joins its VC's
                    // framework queue on the private estate, and the
                    // SLA controller's escalation path (with its
                    // retry/backoff chain) takes it from there.
                    self.fabric.lease_rejections += 1;
                    let Some(app) = self.shards[vc_id.0].apps.get_mut(&app_id) else {
                        unreachable!("app was inserted above")
                    };
                    app.placement = Placement::Local;
                    self.push_event(now + base, Event::SubmitToFramework { app: app_id });
                } else {
                    self.begin_cloud_lease(now, app_id, cloud, nb, base, None);
                }
            }
        }
    }

    /// Removes `vms` from the source VC and begins stopping them in the
    /// pool; the coalesced stops-done event lands when the slowest stop
    /// does and the destination shard takes over from there.
    fn begin_transfer_stops(
        &mut self,
        now: SimTime,
        app: AppId,
        src: VcId,
        vms: &[VmId],
        lead: SimDuration,
    ) {
        let mut done = SimDuration::ZERO;
        for &vm in vms {
            self.shards[src.0]
                .vc
                .remove_slave(vm)
                .expect("transfer candidates are idle slaves");
            let stop = self
                .fabric
                .pool
                .begin_stop(vm, now)
                .expect("idle private slave can stop");
            done = done.max_of(stop);
        }
        let dest = self.app_vc[app.0 as usize];
        let shard = &mut self.shards[dest.0];
        let mut collect = shard.take_vm_buf();
        collect.extend_from_slice(vms);
        shard
            .pending
            .insert(app, PendingAcquisition::Transfer { vms: collect });
        self.push_event(now + lead + done, Event::TransferStopsDone { app });
    }

    // ---- checkpointing -----------------------------------------------------

    /// Captures the engine's full state at the current instant. Call
    /// between events — after [`Self::run_until`] returns, the engine
    /// sits on such a boundary. Resuming the checkpoint reproduces the
    /// uninterrupted run's report byte-for-byte at any thread count.
    pub fn checkpoint(&self) -> EngineCheckpoint {
        EngineCheckpoint {
            format: CHECKPOINT_FORMAT,
            cfg: self.cfg.clone(),
            shards: self.shards.iter().map(VcShard::snapshot).collect(),
            queue: self.queue.snapshot(),
            fabric: self.fabric.clone(),
            next_seq: self.next_seq,
            now: self.now,
            app_vc: self.app_vc.clone(),
            next_app: self.next_app,
            totals: self.totals.clone(),
            records: self.records.clone(),
            completion: self.completion,
            arrivals: self.arrivals.as_ref().map(|a| a.cursor).unwrap_or_default(),
            parallel_runs: self.parallel_runs,
        }
    }

    /// Rebuilds an engine from a checkpoint, re-attaching a fresh
    /// stream over the *same* workload the checkpointed run was given,
    /// in the same arrival order (workloads are deterministic in their
    /// spec); the already-dispatched prefix is skipped.
    ///
    /// # Panics
    /// When the layout differs from this build's (vet untrusted files
    /// with [`CheckpointHeader::check`] first) or the workload is
    /// shorter than the checkpoint's cursor.
    pub fn from_checkpoint<I>(cp: EngineCheckpoint, workload: I) -> Self
    where
        I: IntoIterator<Item = Submission>,
        I::IntoIter: Send + 'static,
    {
        let EngineCheckpoint {
            format,
            cfg,
            shards,
            queue,
            fabric,
            next_seq,
            now,
            app_vc,
            next_app,
            totals,
            mut records,
            completion,
            arrivals,
            parallel_runs,
        } = cp;
        assert_eq!(
            format, CHECKPOINT_FORMAT,
            "checkpoint layout mismatch; see CheckpointHeader::check"
        );
        cfg.validate();
        let placement = policy::placement(&cfg.policy).expect("validated policy resolves");
        let bidding = policy::bidding(&cfg.bidding).expect("validated bidding policy resolves");
        let policy = shard_policy(&cfg);
        let shards = shards
            .into_iter()
            .map(|s| VcShard::from_snapshot(s, policy))
            .collect();
        if let Some(records) = records.as_mut() {
            // Size the record list once for the rest of the run, as
            // `stream_workload` does for a fresh one.
            records.reserve_exact((arrivals.count as usize).saturating_sub(records.len()));
        }
        let mut iter = workload.into_iter().fuse();
        for _ in 0..arrivals.emitted {
            iter.next()
                .expect("resumed workload is shorter than the checkpoint cursor");
        }
        let vc_kinds = cfg.vcs.iter().map(|v| v.kind).collect();
        Platform {
            cfg,
            placement,
            bidding,
            shards,
            vc_kinds,
            fabric,
            queue: EventQueue::from_snapshot(queue),
            next_seq,
            now,
            app_vc,
            next_app,
            scratch_out: Vec::new(),
            touched: Vec::new(),
            effect_bufs: Vec::new(),
            effect_gather: Vec::new(),
            parallel_runs,
            totals,
            records,
            completion,
            arrivals: Some(ArrivalSource {
                iter: Box::new(iter),
                head: None,
                cursor: arrivals,
            }),
        }
    }

    // ---- reporting ---------------------------------------------------------

    /// Builds the final report. Consumes the platform.
    ///
    /// Completed applications were filed as they retired; the
    /// still-live ones (never completed: violated-and-stuck, or
    /// mid-flight at an early finalize) are filed now. The totals are
    /// integer sums, so the order they fold in does not matter. In full
    /// mode `apps` then lists every admitted application's record in
    /// submission (= `AppId`) order; in aggregate mode it stays empty.
    pub fn finalize(mut self) -> RunReport {
        for vc in 0..self.shards.len() {
            let live = std::mem::take(&mut self.shards[vc].apps);
            for app in live.values() {
                self.file_record(app);
            }
        }
        // Records were filed in retirement order; the report lists
        // them in submission order. Ids are unique, so the in-place
        // unstable sort gives the stable order without a merge buffer.
        let mut records = self.records.take().unwrap_or_default();
        records.sort_unstable_by_key(|r| r.id);
        let events_processed = self.events_processed();
        let (peak_private, peak_cloud) = self.fabric.peaks();
        let mut series = SeriesSet::new();
        series.add(self.fabric.used_private);
        series.add(self.fabric.used_cloud);
        // `faults` appears only when the spec armed a failure process,
        // so a faults-off report — and every pre-fault-plane golden —
        // serializes byte-identically.
        let faults = self
            .cfg
            .faults
            .enabled()
            .then(|| crate::report::FaultStats {
                vm_crashes: self.fabric.vm_crashes,
                crashed_private: self.fabric.crashed_private,
                crashed_cloud: self.fabric.crashed_cloud,
                jobs_reexecuted: self.fabric.jobs_reexecuted,
                lease_rejections: self.fabric.lease_rejections,
                lease_retries: self.fabric.lease_retries,
                retries_exhausted: self.fabric.retries_exhausted,
                masked_faults: (self.fabric.vm_crashes + self.fabric.lease_rejections)
                    .saturating_sub(self.fabric.retries_exhausted),
            });
        RunReport {
            mode: self.cfg.policy.clone(),
            seed: self.cfg.seed,
            apps: records,
            rejected: self.fabric.rejected,
            completion_time: self.completion,
            series,
            peak_private: peak_private as f64,
            peak_cloud: peak_cloud as f64,
            transfers: self.fabric.transfers,
            bursts: self.fabric.bursts,
            suspensions: self.fabric.suspensions,
            escalations: self.fabric.escalations,
            cloud_bill: self.fabric.cloud_bill,
            events_processed,
            faults,
            totals: self.totals,
        }
    }
}
