//! One Virtual Cluster's shard: its framework, applications, stints and
//! its slice of each same-instant run.
//!
//! A shard's handlers are the *framework-local* half of the old
//! platform loop: framework submission and dispatch, job completion
//! bookkeeping, SLA checks. The shard queues nothing itself: the engine
//! keeps every pending event in its one queue and, per same-instant
//! run, fills each owning shard's inbox with its slice, in global seq
//! order. Handlers mutate only shard-owned state and emit
//! [`Effect`]s for everything else (billing, usage metrics, VM
//! tear-downs, follow-up events) — which is exactly what makes a batch
//! of same-instant events from *different* shards safe to process on
//! different worker threads.

use std::collections::BTreeMap;

use meryn_frameworks::{Dispatch, JobId};
use meryn_sim::{SimDuration, SimRng, SimTime};
use meryn_sla::{Money, VmRate};
use meryn_vmm::{CloudId, LatencyModel, Location, VmId};
use serde::{Deserialize, Serialize};

use crate::app::{AppMap, AppPhase, Application};
use crate::client_manager::admit_routed;
use crate::cluster_manager::{VcSnapshot, VcView, VirtualCluster};
use crate::config::ViolationPolicy;
use crate::engine::effects::{Effect, EffectSink, SequencedEffect};
use crate::events::Event;
use crate::ids::{AppId, Placement, VcId};
use meryn_sla::AppTimes;
use meryn_workloads::Submission;

/// Aligns an Application Controller check onto the global check grid:
/// the first multiple of `interval` strictly after `now`. Every check
/// lands on a grid instant, so checks of different applications share
/// instants — polling escalating controllers and same-deadline
/// reporting ones alike — and form same-instant cross-shard runs the
/// executor can fan out, instead of one-event instants scattered by
/// arrival phase. [`ShardPolicy::check_due`] picks the instant to
/// align.
pub(crate) fn next_check(now: SimTime, interval: SimDuration) -> SimTime {
    let step = interval.as_millis().max(1);
    SimTime::from_millis((now.as_millis() / step + 1) * step)
}

/// One execution stint of a job: which VMs, since when, at what cost.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct Stint {
    pub(crate) started: SimTime,
    pub(crate) vms: Vec<(VmId, Location, VmRate)>,
    /// Dispatch epoch the stint belongs to — the stale-guard for fault
    /// events: a crash drawn for this stint is dropped if the job was
    /// suspended and redispatched (new epoch) before it fired.
    pub(crate) epoch: u64,
}

/// Multi-step VM acquisition in flight for an application.
///
/// The per-VM ticks are coalesced: one event marks each batch boundary
/// (stops done, boots done, leases ready), so no outstanding-count is
/// tracked — `vms` holds the whole batch.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) enum PendingAcquisition {
    /// §3.4 transfer: VMs stopping at the source, then booting with the
    /// destination image. Holds the stopping VMs until the stop batch
    /// completes, then the booting replacements.
    Transfer { vms: Vec<VmId> },
    /// §3.5 bursting: leases provisioning. Rates were locked at
    /// `begin_lease`. For SLA escalations of an already-submitted job,
    /// `existing_job` carries the framework job to pin-start instead of
    /// submitting a new one.
    CloudLease {
        cloud: CloudId,
        vms: Vec<(VmId, VmRate)>,
        speed: f64,
        existing_job: Option<JobId>,
    },
}

/// The slice of the platform config a shard acts on locally: how SLA
/// verdicts are handled, the check cadence, and the private-VM rate
/// freshly booted slaves are added at.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShardPolicy {
    pub(crate) violation_policy: ViolationPolicy,
    pub(crate) check_interval: Option<SimDuration>,
    pub(crate) private_cost: VmRate,
    /// Fault plane: mean time between failures of one slave VM, if VM
    /// crashes are enabled. Each dispatch draws the stint's first crash
    /// from the shard's dedicated fault stream.
    pub(crate) vm_mtbf: Option<SimDuration>,
    /// Quote-time slave speed assumption (SLA negotiation input).
    pub(crate) quote_speed: f64,
    /// Processing allowance added onto quoted deadlines.
    pub(crate) allowance: SimDuration,
    /// Negotiation round budget per submission.
    pub(crate) max_rounds: u32,
    /// Largest allocation a quote may propose (the private capacity).
    pub(crate) max_vms: u64,
    /// CM handling-latency model; arrivals draw from the shard's
    /// latency stream at admission.
    pub(crate) base_latency: LatencyModel,
    /// Extra-latency model for suspending a local victim; drawn
    /// unconditionally per arrival (see
    /// [`crate::engine::Effect::Place`]).
    pub(crate) suspend_local: LatencyModel,
    /// Extra-latency model for suspending a remote victim; drawn
    /// unconditionally per arrival.
    pub(crate) suspend_remote: LatencyModel,
}

impl ShardPolicy {
    /// When an application's controller next wakes — the first grid
    /// instant at which its check can act — or `None` on an unmonitored
    /// deployment. An escalating controller polls: its verdict depends
    /// on progress, so it wakes on the next tick after `now`. A
    /// reporting controller can act only once `now > deadline_at`, so
    /// it sleeps through to the first tick after the deadline and wakes
    /// once. Both the first arming and every re-arm come from here.
    fn check_due(&self, now: SimTime, deadline_at: SimTime) -> Option<SimTime> {
        let interval = self.check_interval?;
        Some(match self.violation_policy {
            ViolationPolicy::EscalateToCloud => next_check(now, interval),
            ViolationPolicy::Report => next_check(deadline_at, interval),
        })
    }
}

/// A lending relationship: when the borrower finishes, `victim` (held
/// in `src`) gets its VMs back and resumes.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub(crate) struct Lending {
    pub(crate) src: VcId,
    pub(crate) victim: AppId,
}

/// One Virtual Cluster's shard of the platform state.
pub struct VcShard {
    /// The cluster itself: framework master, slave bookkeeping, pricing.
    pub vc: VirtualCluster,
    /// The applications this VC hosts, by id.
    pub apps: AppMap,
    /// This shard's slice of the same-instant run being processed:
    /// `(seq, event)` pairs in global seq order, filled by the executor
    /// as it drains the engine's one queue and emptied by
    /// [`VcShard::process`] (a recycled buffer, empty between runs).
    pub(crate) inbox: Vec<(u64, Event)>,
    /// Events this shard has processed — its share of the engine
    /// queue's pops.
    pub(crate) popped: u64,
    /// Open execution stints by framework job.
    pub(crate) stints: BTreeMap<JobId, Stint>,
    /// In-flight multi-step acquisitions by application.
    pub(crate) pending: BTreeMap<AppId, PendingAcquisition>,
    /// Slave VMs reserved for an application whose submission pipeline
    /// is still in flight; the pinned submit claims them.
    pub(crate) acquired: BTreeMap<AppId, Vec<VmId>>,
    /// Outstanding lendings keyed by the borrowing application.
    pub(crate) lendings: BTreeMap<AppId, Lending>,
    /// The config slice this shard applies locally.
    pub(crate) policy: ShardPolicy,
    /// This shard's latency stream: `stream_seed(cfg.seed,
    /// SHARD_STREAM_BASE + vc)`. Arrival and acquisition-latency draws
    /// for this VC come from here, so one shard's draw sequence is a
    /// pure function of `(seed, vc)` — independent of every other VC's
    /// traffic.
    pub(crate) latency_rng: SimRng,
    /// This shard's fault stream: `stream_seed(cfg.seed,
    /// FAULT_STREAM_BASE + vc)`. Crash-hazard draws come from here, a
    /// stream *separate* from `latency_rng` — fault injection must not
    /// perturb the latency draw sequence, so a fault-enabled run stays
    /// comparable to its fault-free twin and faults-off runs stay
    /// byte-identical to pre-fault-plane baselines.
    pub(crate) fault_rng: SimRng,
    /// Logical ticks credited beyond the queue's own count: a coalesced
    /// choreography event stands for one tick per VM in its batch, and
    /// the extra `len - 1` land here so the "events processed" unit
    /// stays the per-VM tick it was before coalescing.
    pub(crate) extra_ticks: u64,
    /// Recycled `VmId` scratch buffers (see the PR-4 allocation notes:
    /// the steady-state dispatch cycle allocates nothing).
    vm_bufs: Vec<Vec<VmId>>,
    /// Recycled stint buffers.
    stint_bufs: Vec<Vec<(VmId, Location, VmRate)>>,
}

impl VcShard {
    /// Wraps a deployed cluster into an empty shard.
    pub(crate) fn new(
        vc: VirtualCluster,
        policy: ShardPolicy,
        latency_rng: SimRng,
        fault_rng: SimRng,
    ) -> Self {
        VcShard {
            vc,
            apps: AppMap::default(),
            inbox: Vec::new(),
            popped: 0,
            stints: BTreeMap::new(),
            pending: BTreeMap::new(),
            acquired: BTreeMap::new(),
            lendings: BTreeMap::new(),
            policy,
            latency_rng,
            fault_rng,
            extra_ticks: 0,
            vm_bufs: Vec::new(),
            stint_bufs: Vec::new(),
        }
    }

    /// Draws one latency from `model` on this shard's RNG stream.
    pub(crate) fn sample(&mut self, model: LatencyModel) -> SimDuration {
        model.sample(&mut self.latency_rng)
    }

    /// This shard's id.
    pub fn id(&self) -> VcId {
        self.vc.id
    }

    /// The read-only window scheduling entry points receive.
    pub fn view(&self) -> VcView<'_> {
        VcView {
            vc: &self.vc,
            apps: &self.apps,
        }
    }

    /// Logical events this shard has processed (the per-shard counter
    /// surfaced by `scenario --bench`): the events it popped plus the
    /// extra per-VM ticks coalesced choreography events stand for.
    pub fn events_processed(&self) -> u64 {
        self.popped + self.extra_ticks
    }

    /// Credits the extra logical ticks of a coalesced batch of `n` VMs
    /// (the pop already counted the event itself as one).
    fn credit_batch(&mut self, n: usize) {
        self.extra_ticks += (n as u64).saturating_sub(1);
    }

    // ---- scratch buffers --------------------------------------------------

    pub(crate) fn take_vm_buf(&mut self) -> Vec<VmId> {
        self.vm_bufs.pop().unwrap_or_default()
    }

    pub(crate) fn recycle_vm_buf(&mut self, mut buf: Vec<VmId>) {
        buf.clear();
        self.vm_bufs.push(buf);
    }

    pub(crate) fn take_stint_buf(&mut self) -> Vec<(VmId, Location, VmRate)> {
        self.stint_bufs.pop().unwrap_or_default()
    }

    pub(crate) fn recycle_stint_buf(&mut self, mut buf: Vec<(VmId, Location, VmRate)>) {
        buf.clear();
        self.stint_bufs.push(buf);
    }

    // ---- the shard's slice of one time step -------------------------------

    /// Processes this shard's slice of a same-instant run — the
    /// [`VcShard::inbox`] — in global seq order. Effects are collected
    /// into the recycled `effects` buffer, which comes back so the
    /// executor can pool it; the inbox is left empty.
    pub(crate) fn process(
        &mut self,
        due: SimTime,
        effects: Vec<SequencedEffect>,
    ) -> Vec<SequencedEffect> {
        let mut events = std::mem::take(&mut self.inbox);
        self.popped += events.len() as u64;
        let mut sink = EffectSink::with_buffer(due, self.vc.id, 0, effects);
        for (seq, ev) in events.drain(..) {
            sink.set_seq(seq);
            self.handle(due, ev, &mut sink);
        }
        self.inbox = events;
        sink.into_effects()
    }

    /// Dispatches one shard-owned event.
    pub(crate) fn handle(&mut self, now: SimTime, ev: Event, sink: &mut EffectSink) {
        match ev {
            Event::Arrival { app, sub } => self.on_arrival(now, app, sub, sink),
            Event::SubmitToFramework { app } => self.on_submit(now, app, sink),
            Event::JobFinished { vc, job, epoch } => {
                debug_assert_eq!(vc, self.vc.id, "misrouted completion");
                self.on_job_finished(now, job, epoch, sink);
            }
            Event::ControllerCheck { app } => self.check_sla(now, app, sink),
            Event::TransferStopsDone { app } => self.on_transfer_stops_done(app, sink),
            Event::TransferReady { app } => self.on_transfer_ready(now, app, sink),
            Event::CloudVmsReady { app } => self.on_cloud_vms_ready(now, app, sink),
            Event::ReturnStopsDone { src, victim, vms } => {
                debug_assert_eq!(src, self.vc.id, "misrouted return");
                self.credit_batch(vms.len());
                sink.emit(Effect::ReturnStopped { src, victim, vms });
            }
            Event::ReturnReady { src, victim, vms } => {
                debug_assert_eq!(src, self.vc.id, "misrouted return");
                self.on_return_ready(now, victim, vms, sink);
            }
            Event::VmCrash {
                vc,
                job,
                epoch,
                slot,
            } => {
                debug_assert_eq!(vc, self.vc.id, "misrouted crash");
                self.on_vm_crash(now, job, epoch, slot, sink);
            }
            Event::CrashReplacementReady { vc, vms } => {
                debug_assert_eq!(vc, self.vc.id, "misrouted replacement");
                self.on_crash_replacement_ready(now, vms, sink);
            }
            Event::CloudReleased { vc, cloud, vms } => {
                debug_assert_eq!(vc, self.vc.id, "misrouted lease close");
                self.credit_batch(vms.len());
                sink.emit(Effect::CloseLeases { cloud, vms });
            }
            Event::LeaseRetry { app, attempt } => self.sla_verdict(now, app, attempt, sink),
        }
    }

    // ---- admission (PR 10: shard-side) ------------------------------------

    /// Admits a pre-routed submission entirely in-shard: type check,
    /// negotiation rounds, contract signing, app registration and the
    /// CM handling-latency draw (from this shard's stream). Only the
    /// cross-shard placement — Algorithm 1 over every VC's view plus
    /// the cloud market — travels back as [`Effect::Place`], applied by
    /// the executor at this event's canonical position. A failed
    /// admission emits [`Effect::Rejected`] so the fabric tally stays
    /// executor-owned.
    ///
    /// An admitted application's controller is armed right after the
    /// placement, as an [`Effect::Schedule`] at
    /// [`ShardPolicy::check_due`]. One event's effects apply in
    /// emission order, so the check's tag follows every event the
    /// placement schedules.
    fn on_arrival(&mut self, now: SimTime, app_id: AppId, sub: Submission, sink: &mut EffectSink) {
        let admitted = admit_routed(
            &sub,
            &self.vc,
            now,
            self.policy.quote_speed,
            self.policy.allowance,
            self.policy.max_rounds,
            self.policy.max_vms,
        );
        let (spec, contract, rounds) = match admitted {
            Ok(x) => x,
            Err(_) => {
                sink.emit(Effect::Rejected);
                return;
            }
        };
        let quoted_exec = self
            .vc
            .framework
            .estimate_exec(&spec, spec.nb_vms(), self.policy.quote_speed, true)
            .unwrap_or_else(|e| unreachable!("admission type-checked the spec: {e:?}"));
        let check_due = self.policy.check_due(now, contract.deadline_at());
        self.apps.insert(
            app_id,
            Application {
                id: app_id,
                vc: self.vc.id,
                spec,
                contract,
                times: AppTimes::submitted(now, quoted_exec, contract.terms.deadline),
                job: None,
                // Provisional: Effect::Place records Algorithm 1's pick.
                placement: Placement::Local,
                phase: AppPhase::Acquiring,
                framework_submitted_at: None,
                cost: Money::ZERO,
                negotiation_rounds: rounds,
                suspensions: 0,
                violation_detected: None,
            },
        );
        // The latency draws stay on the *destination* shard's stream,
        // exactly where the control-plane pipeline drew them: a VC's
        // draw sequence is a pure function of its own arrival history.
        // The suspension extras are drawn *unconditionally* — whether
        // one is consumed depends on the placement decision the
        // executor has not made yet, and drawing both here keeps the
        // stream sequence independent of that decision.
        let handling = self.sample(self.policy.base_latency);
        let suspend_local = self.sample(self.policy.suspend_local);
        let suspend_remote = self.sample(self.policy.suspend_remote);
        sink.emit(Effect::Place {
            app: app_id,
            handling,
            quoted_exec,
            suspend_local,
            suspend_remote,
        });
        if let Some(due) = check_due {
            sink.emit(Effect::Schedule {
                due,
                event: Event::ControllerCheck { app: app_id },
            });
        }
    }

    // ---- framework hand-off -----------------------------------------------

    fn on_submit(&mut self, now: SimTime, app_id: AppId, sink: &mut EffectSink) {
        match self.acquired.remove(&app_id) {
            Some(vms) => self.submit_pinned_now(now, app_id, vms, sink),
            None => self.submit_queued(now, app_id, sink),
        }
    }

    /// Hands the job to the framework queue (Queue decisions: no VMs
    /// were acquired for it; it waits its FIFO turn).
    fn submit_queued(&mut self, now: SimTime, app_id: AppId, sink: &mut EffectSink) {
        let spec = self.apps[&app_id].spec;
        let job = self
            .vc
            .framework
            .submit(spec, now)
            .expect("admission type-checked the spec");
        self.vc.job_to_app.insert(job, app_id);
        let app = self.apps.get_mut(&app_id).expect("app exists");
        app.job = Some(job);
        app.framework_submitted_at = Some(now);
        app.phase = AppPhase::Submitted;
        self.dispatch(now, sink);
    }

    /// Starts the job immediately on the exact VMs Algorithm 1 acquired
    /// for it — transferred, lent, leased or locally reserved VMs are
    /// dedicated to the requesting application.
    pub(crate) fn submit_pinned_now(
        &mut self,
        now: SimTime,
        app_id: AppId,
        vms: Vec<VmId>,
        sink: &mut EffectSink,
    ) {
        let spec = self.apps[&app_id].spec;
        let (job, dispatch) = self
            .vc
            .framework
            .submit_pinned(spec, &vms, now)
            .expect("acquired VMs are idle slaves of the right framework");
        self.recycle_vm_buf(vms);
        self.vc.job_to_app.insert(job, app_id);
        let app = self.apps.get_mut(&app_id).expect("app exists");
        app.job = Some(job);
        app.framework_submitted_at = Some(now);
        app.phase = AppPhase::Submitted;
        self.register_dispatch(now, dispatch, sink);
    }

    /// Lets the framework start whatever fits and schedules the
    /// predicted completions.
    pub(crate) fn dispatch(&mut self, now: SimTime, sink: &mut EffectSink) {
        let dispatches = self.vc.framework.try_dispatch(now);
        for d in dispatches {
            self.register_dispatch(now, d, sink);
        }
    }

    /// Records one job start: billing stint, used-VM deltas, Fig. 4
    /// times, and the predicted completion event.
    pub(crate) fn register_dispatch(&mut self, now: SimTime, d: Dispatch, sink: &mut EffectSink) {
        let app_id = self.vc.app_of(d.job);
        let mut vms = self.take_stint_buf();
        vms.extend(d.vms.iter().map(|vm| {
            let meta = self
                .vc
                .slave_meta
                .get(vm)
                .expect("dispatched slave has meta");
            (*vm, meta.location, meta.cost_rate)
        }));
        let (mut dp, mut dc) = (0i64, 0i64);
        for &(_, loc, _) in &vms {
            match loc {
                Location::Private => dp += 1,
                Location::Cloud(_) => dc += 1,
            }
        }
        sink.emit(Effect::Usage {
            private_delta: dp,
            cloud_delta: dc,
        });
        let app = self.apps.get_mut(&app_id).expect("app exists");
        app.times.start(now);
        let done = app.times.progress_t(now);
        app.times.set_exec_t(done + d.exec_total);
        let stint_size = vms.len();
        self.stints.insert(
            d.job,
            Stint {
                started: now,
                vms,
                epoch: d.epoch,
            },
        );
        sink.emit(Effect::Schedule {
            due: d.finish_at,
            event: Event::JobFinished {
                vc: self.vc.id,
                job: d.job,
                epoch: d.epoch,
            },
        });
        if let Some(mtbf) = self.policy.vm_mtbf {
            // The minimum of `k` independent exponential clocks with
            // mean `mtbf` is exponential with mean `mtbf / k`; the
            // victim slot is uniform. Exactly two fault-stream draws
            // per dispatch, crash or not — the stream's consumption is
            // a pure function of the dispatch sequence, never of
            // outcomes, which keeps fault runs thread-count-invariant.
            let delay = self
                .fault_rng
                .exponential(mtbf.scale(1.0 / stint_size as f64));
            let slot = self.fault_rng.index(stint_size) as u32;
            let crash_at = now + delay;
            if crash_at < d.finish_at {
                sink.emit(Effect::Schedule {
                    due: crash_at,
                    event: Event::VmCrash {
                        vc: self.vc.id,
                        job: d.job,
                        epoch: d.epoch,
                        slot,
                    },
                });
            }
        }
    }

    // ---- completion -------------------------------------------------------

    /// Closes a job's execution stint: computes each VM interval's cost
    /// (a pure function of dispatch instant and rate), books it onto
    /// the application, and emits the ledger charges plus the used-VM
    /// deltas. Returns the stint's VMs.
    pub(crate) fn close_stint(
        &mut self,
        now: SimTime,
        job: JobId,
        sink: &mut EffectSink,
    ) -> Vec<(VmId, Location, VmRate)> {
        let stint = self
            .stints
            .remove(&job)
            .expect("running job has an open stint");
        let app_id = self.vc.app_of(job);
        let mut total = Money::ZERO;
        let (mut dp, mut dc) = (0i64, 0i64);
        for &(vm, loc, rate) in &stint.vms {
            total += rate.cost_for(now.since(stint.started));
            sink.emit(Effect::Charge {
                vm,
                location: loc,
                from: stint.started,
                rate,
            });
            match loc {
                Location::Private => dp -= 1,
                Location::Cloud(_) => dc -= 1,
            }
        }
        self.apps.get_mut(&app_id).expect("app exists").cost += total;
        sink.emit(Effect::Usage {
            private_delta: dp,
            cloud_delta: dc,
        });
        stint.vms
    }

    /// Suspends `victim` (running in this VC), holding it for later
    /// requeue. Returns the freed VMs.
    pub(crate) fn suspend_app(
        &mut self,
        now: SimTime,
        victim: AppId,
        sink: &mut EffectSink,
    ) -> Vec<VmId> {
        let job = self.apps[&victim].job.expect("running victim has a job");
        let closed = self.close_stint(now, job, sink);
        self.recycle_stint_buf(closed);
        let freed = self
            .vc
            .framework
            .suspend_and_hold(job, now)
            .expect("protocol only suspends running jobs");
        let app = self.apps.get_mut(&victim).expect("victim exists");
        app.times.suspend(now);
        app.suspensions += 1;
        freed
    }

    fn on_job_finished(&mut self, now: SimTime, job: JobId, epoch: u64, sink: &mut EffectSink) {
        if !self.vc.job_to_app.contains_key(&job) {
            return; // stale completion: the job was retired meanwhile
        }
        let done = self
            .vc
            .framework
            .on_finished(job, epoch, now)
            .expect("job known to its framework");
        if done.is_none() {
            return; // stale completion: the job was suspended meanwhile
        }
        let app_id = self.vc.app_of(job);
        let stint_vms = self.close_stint(now, job, sink);

        {
            let app = self.apps.get_mut(&app_id).expect("app exists");
            // Bank the final stint's progress, then mark completion.
            app.times.suspend(now);
            app.phase = AppPhase::Completed { at: now };
        }

        match self.apps[&app_id].placement {
            Placement::Cloud { cloud } => {
                let mut vms = Vec::with_capacity(stint_vms.len());
                for (vm, _, _) in &stint_vms {
                    self.vc
                        .remove_slave(*vm)
                        .expect("finished job's slaves are idle");
                    vms.push(*vm);
                }
                sink.emit(Effect::ReleaseCloud { cloud, vms });
            }
            Placement::LocalAfterSuspension => {
                let lending = self
                    .lendings
                    .remove(&app_id)
                    .expect("local suspension recorded a lending");
                let victim_job = self.apps[&lending.victim]
                    .job
                    .expect("held victim has a job");
                self.vc
                    .framework
                    .requeue_held(victim_job)
                    .expect("victim was held");
            }
            Placement::VcVmsAfterSuspension { from } => {
                let lending = self
                    .lendings
                    .remove(&app_id)
                    .expect("vc suspension recorded a lending");
                debug_assert_eq!(lending.src, from);
                let mut vms = Vec::with_capacity(stint_vms.len());
                for (vm, _, _) in &stint_vms {
                    self.vc
                        .remove_slave(*vm)
                        .expect("finished job's slaves are idle");
                    vms.push(*vm);
                }
                sink.emit(Effect::ReturnVms {
                    src: from,
                    victim: lending.victim,
                    vms,
                });
            }
            Placement::Local | Placement::VcVms { .. } => {}
        }
        self.recycle_stint_buf(stint_vms);
        self.dispatch(now, sink);
        // The application leaves the engine: the executor turns it into
        // its report record and drops its state. Emitted after the
        // dispatch so the retirement applies at its canonical position
        // — identical at every thread count.
        sink.emit(Effect::Retire { app: app_id, job });
    }

    // ---- coalesced choreography -------------------------------------------

    /// A transfer's stop batch finished at the source: hand the stopped
    /// VMs to the executor, which completes the pool stops and begins
    /// the replacement boots (canonical-order pool RNG work).
    fn on_transfer_stops_done(&mut self, app_id: AppId, sink: &mut EffectSink) {
        let Some(PendingAcquisition::Transfer { vms }) = self.pending.get_mut(&app_id) else {
            unreachable!("transfer event for non-transfer pending")
        };
        let vms = std::mem::take(vms);
        self.credit_batch(vms.len());
        sink.emit(Effect::TransferStopped { app: app_id, vms });
    }

    /// A transfer's boot batch finished: the replacements join this VC
    /// as slaves and the job starts pinned on exactly these VMs.
    fn on_transfer_ready(&mut self, now: SimTime, app_id: AppId, sink: &mut EffectSink) {
        let Some(PendingAcquisition::Transfer { vms }) = self.pending.remove(&app_id) else {
            unreachable!("transfer event for non-transfer pending")
        };
        self.credit_batch(vms.len());
        let rate = self.policy.private_cost;
        for &vm in &vms {
            self.vc
                .add_slave(vm, 1.0, Location::Private, rate)
                .expect("fresh transferred slave is unique");
        }
        sink.emit(Effect::CompleteStarts { vms: vms.clone() });
        self.submit_pinned_now(now, app_id, vms, sink);
    }

    /// A cloud lease batch finished provisioning: the leases join this
    /// VC as slaves and the job starts pinned (or, for an SLA
    /// escalation, the withdrawn job restarts on them).
    fn on_cloud_vms_ready(&mut self, now: SimTime, app_id: AppId, sink: &mut EffectSink) {
        let Some(PendingAcquisition::CloudLease {
            cloud,
            vms,
            speed,
            existing_job,
        }) = self.pending.remove(&app_id)
        else {
            unreachable!("cloud event for non-cloud pending")
        };
        self.credit_batch(vms.len());
        let mut ids = self.take_vm_buf();
        ids.extend(vms.iter().map(|&(vm, _)| vm));
        for (vm, rate) in vms {
            self.vc
                .add_slave(vm, speed, Location::Cloud(cloud), rate)
                .expect("fresh leased slave is unique");
        }
        sink.emit(Effect::CompleteLeases {
            cloud,
            vms: ids.clone(),
        });
        match existing_job {
            None => self.submit_pinned_now(now, app_id, ids, sink),
            Some(job) => {
                // SLA escalation: the job already exists and was
                // withdrawn from the queue; start it on the leases.
                let dispatch = self
                    .vc
                    .framework
                    .start_withdrawn_pinned(job, &ids, now)
                    .expect("withdrawn job starts on its leases");
                self.recycle_vm_buf(ids);
                self.register_dispatch(now, dispatch, sink);
            }
        }
    }

    /// A return's boot batch finished at this (lending) VC: the VMs
    /// rejoin as slaves, the held victim requeues, and the framework
    /// dispatches whatever now fits.
    fn on_return_ready(
        &mut self,
        now: SimTime,
        victim: AppId,
        vms: Vec<VmId>,
        sink: &mut EffectSink,
    ) {
        self.credit_batch(vms.len());
        let rate = self.policy.private_cost;
        for &vm in &vms {
            self.vc
                .add_slave(vm, 1.0, Location::Private, rate)
                .expect("fresh returned slave is unique");
        }
        sink.emit(Effect::CompleteStarts { vms });
        let victim_job = self.apps[&victim].job.expect("held victim has a job");
        self.vc
            .framework
            .requeue_held(victim_job)
            .expect("victim was held");
        self.dispatch(now, sink);
    }

    // ---- fault plane ------------------------------------------------------

    /// A slave VM of `job`'s stint crashes. The stint's progress is
    /// lost (no checkpoint survives a crashed VM): the stint closes
    /// billed through the crash instant, the job re-enters the queue at
    /// the front for full re-execution, and the victim leaves the
    /// estate via [`Effect::VmCrashed`] — the executor terminates it
    /// and, for a private victim, boots a replacement so the VC's
    /// capacity is conserved. Stints are homogeneous, so a *cloud*
    /// victim takes its whole lease batch down with it: the surviving
    /// leases release and the requeued job falls back to the private
    /// estate.
    fn on_vm_crash(
        &mut self,
        now: SimTime,
        job: JobId,
        epoch: u64,
        slot: u32,
        sink: &mut EffectSink,
    ) {
        match self.stints.get(&job) {
            Some(stint) if stint.epoch == epoch => {}
            // Stale crash: the stint completed, or the job was
            // suspended and redispatched (new epoch), before it fired.
            _ => return,
        }
        let app_id = self.vc.app_of(job);
        let stint_vms = self.close_stint(now, job, sink);
        let freed = self
            .vc
            .framework
            .fail_running(job)
            .unwrap_or_else(|e| unreachable!("crashed stint's job is running: {e:?}"));
        debug_assert_eq!(freed.len(), stint_vms.len(), "stint and framework agree");
        {
            // Bank the wasted wall time: `times` honestly reflects that
            // the re-execution starts from scratch.
            let Some(app) = self.apps.get_mut(&app_id) else {
                unreachable!("crashed job's app exists")
            };
            app.times.suspend(now);
        }
        let (victim, victim_loc, _) = stint_vms[slot as usize % stint_vms.len()];
        match victim_loc {
            Location::Private => {
                self.vc
                    .remove_slave(victim)
                    .unwrap_or_else(|e| unreachable!("crashed slave is idle: {e:?}"));
                sink.emit(Effect::VmCrashed {
                    vm: victim,
                    location: victim_loc,
                });
            }
            Location::Cloud(cloud) => {
                let mut rest = Vec::with_capacity(stint_vms.len() - 1);
                for &(vm, _, _) in &stint_vms {
                    self.vc
                        .remove_slave(vm)
                        .unwrap_or_else(|e| unreachable!("crashed stint's slaves are idle: {e:?}"));
                    if vm != victim {
                        rest.push(vm);
                    }
                }
                sink.emit(Effect::VmCrashed {
                    vm: victim,
                    location: victim_loc,
                });
                if !rest.is_empty() {
                    sink.emit(Effect::ReleaseCloud { cloud, vms: rest });
                }
                let Some(app) = self.apps.get_mut(&app_id) else {
                    unreachable!("crashed job's app exists")
                };
                app.placement = Placement::Local;
            }
        }
        self.recycle_stint_buf(stint_vms);
        self.dispatch(now, sink);
    }

    /// A replacement VM finished booting after a private-pool crash:
    /// it rejoins this VC as a slave and the framework dispatches
    /// whatever now fits — typically the job the crash requeued.
    fn on_crash_replacement_ready(&mut self, now: SimTime, vms: Vec<VmId>, sink: &mut EffectSink) {
        self.credit_batch(vms.len());
        let rate = self.policy.private_cost;
        for &vm in &vms {
            self.vc
                .add_slave(vm, 1.0, Location::Private, rate)
                .unwrap_or_else(|e| unreachable!("fresh replacement slave is unique: {e:?}"));
        }
        sink.emit(Effect::CompleteStarts { vms });
        self.dispatch(now, sink);
    }

    // ---- SLA monitoring ---------------------------------------------------

    /// One Application Controller check, run entirely shard-side.
    ///
    /// Everything the old control-plane path decided from shard state
    /// is decided here: a completed application retires its controller;
    /// a verdict that wants cloud attention — escalation policy, job
    /// submitted, no acquisition in flight — emits
    /// [`Effect::Escalate`] for the executor (only the market
    /// transaction leaves the shard); a violated verdict is recorded
    /// locally and the check retires; everything else re-arms at
    /// [`ShardPolicy::check_due`]. A reporting controller is armed for
    /// the first tick past its deadline, so its one check either finds
    /// the application completed or marks the violation. Under
    /// `Report` only a check restored from a checkpoint of a polling
    /// build fires before the deadline; it re-arms once, for that tick.
    pub(crate) fn check_sla(&mut self, now: SimTime, app_id: AppId, sink: &mut EffectSink) {
        self.sla_verdict(now, app_id, 0, sink);
    }

    /// The SLA decision surface behind both [`VcShard::check_sla`]
    /// (`attempt` 0) and the fault plane's
    /// [`crate::events::Event::LeaseRetry`]: identical verdicts, with
    /// the attempt carried in [`Effect::Escalate`] for the executor's
    /// backoff budget. A retry whose application recovered meanwhile —
    /// completed, dispatched with margin, or mid-acquisition — simply
    /// falls through to the normal retire/re-arm outcomes, ending the
    /// backoff chain.
    fn sla_verdict(&mut self, now: SimTime, app_id: AppId, attempt: u32, sink: &mut EffectSink) {
        let Some(app) = self.apps.get(&app_id) else {
            return; // the application completed and retired
        };
        if app.is_completed() {
            return; // completed this instant; retires with its application
        }
        let Some(due) = self.policy.check_due(now, app.contract.deadline_at()) else {
            return; // unmonitored deployment: nothing ever arms a check
        };
        let status = meryn_sla::violation::check(&app.contract, &app.times, now);
        if status.needs_attention()
            && self.policy.violation_policy == ViolationPolicy::EscalateToCloud
            && app.job.is_some()
            && !self.pending.contains_key(&app_id)
        {
            // The market decides; on failure the executor falls back to
            // the mark-or-re-arm below using `violated`.
            sink.emit(Effect::Escalate {
                app: app_id,
                violated: status.is_violated(),
                attempt,
            });
            return;
        }
        if status.is_violated() {
            // Report once and retire: the violation is now the Cluster
            // Manager's problem (§3.3) — and a never-completing job must
            // not keep the event loop alive forever.
            let app = self.apps.get_mut(&app_id).expect("app exists");
            if app.violation_detected.is_none() {
                app.violation_detected = Some(now);
            }
            return;
        }
        sink.emit(Effect::Schedule {
            due,
            event: Event::ControllerCheck { app: app_id },
        });
    }

    // ---- checkpointing ----------------------------------------------------

    /// Captures this shard's full state. Scratch buffers and the inbox
    /// are transient by construction (always empty between runs) and
    /// are not captured; [`ShardPolicy`] is rebuilt from the platform
    /// config at restore. Pending events live in the engine's queue.
    pub(crate) fn snapshot(&self) -> ShardSnapshot {
        ShardSnapshot {
            vc: self.vc.snapshot(),
            apps: self.apps.clone(),
            popped: self.popped,
            stints: self.stints.clone(),
            pending: self.pending.clone(),
            acquired: self.acquired.clone(),
            lendings: self.lendings.clone(),
            latency_rng: self.latency_rng.clone(),
            fault_rng: self.fault_rng.clone(),
            extra_ticks: self.extra_ticks,
        }
    }

    /// Rebuilds the live shard a snapshot was taken from.
    pub(crate) fn from_snapshot(snap: ShardSnapshot, policy: ShardPolicy) -> Self {
        VcShard {
            vc: snap.vc.into_cluster(),
            apps: snap.apps,
            inbox: Vec::new(),
            popped: snap.popped,
            stints: snap.stints,
            pending: snap.pending,
            acquired: snap.acquired,
            lendings: snap.lendings,
            policy,
            latency_rng: snap.latency_rng,
            fault_rng: snap.fault_rng,
            extra_ticks: snap.extra_ticks,
            vm_bufs: Vec::new(),
            stint_bufs: Vec::new(),
        }
    }
}

/// A [`VcShard`]'s serializable state (checkpoint form).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardSnapshot {
    vc: VcSnapshot,
    apps: AppMap,
    popped: u64,
    stints: BTreeMap<JobId, Stint>,
    pending: BTreeMap<AppId, PendingAcquisition>,
    acquired: BTreeMap<AppId, Vec<VmId>>,
    lendings: BTreeMap<AppId, Lending>,
    latency_rng: SimRng,
    fault_rng: SimRng,
    extra_ticks: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::Application;
    use crate::ids::Placement;
    use meryn_frameworks::{BatchFramework, FrameworkKind, JobSpec, ScalingLaw};
    use meryn_sla::pricing::PricingParams;
    use meryn_sla::{AppTimes, SlaContract, SlaTerms};
    use meryn_vmm::ImageId;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }
    fn d(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    fn shard(policy: ViolationPolicy, interval: Option<u64>) -> VcShard {
        let vc = VirtualCluster::new(
            VcId(0),
            "VC1",
            FrameworkKind::Batch,
            ImageId(0),
            Box::new(BatchFramework::new()),
            PricingParams::new(VmRate::per_vm_second(2), 2),
        );
        VcShard::new(
            vc,
            ShardPolicy {
                violation_policy: policy,
                check_interval: interval.map(d),
                private_cost: VmRate::per_vm_second(2),
                vm_mtbf: None,
                quote_speed: 1.0,
                allowance: d(84),
                max_rounds: 8,
                max_vms: 25,
                base_latency: LatencyModel::ZERO,
                suspend_local: LatencyModel::ZERO,
                suspend_remote: LatencyModel::ZERO,
            },
            SimRng::new(SimRng::stream_seed(0xC0FFEE, 1 << 32)),
            SimRng::new(SimRng::stream_seed(0xC0FFEE, 2 << 32)),
        )
    }

    /// Submitted at 0 s, 1000 s of work, 1100 s deadline — the same
    /// shape `meryn_sla::violation`'s own tests use, so each `now`
    /// below lands on a known [`meryn_sla::SlaStatus`].
    fn app(id: AppId) -> Application {
        let pricing = PricingParams::new(VmRate::per_vm_second(2), 2);
        Application {
            id,
            vc: VcId(0),
            spec: JobSpec::Batch {
                work: d(1000),
                nb_vms: 1,
                scaling: ScalingLaw::Fixed,
            },
            contract: SlaContract::sign(
                SlaTerms::new(d(1100), Money::from_units(2000), 1),
                t(0),
                pricing,
            ),
            times: AppTimes::submitted(t(0), d(1000), d(1100)),
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

    /// What one check must do — the full decision surface of the old
    /// control-plane path, which the shard-local port must reproduce.
    #[derive(Debug, PartialEq)]
    enum Expect {
        /// Hand the case to the cloud market, nothing else.
        Escalate { violated: bool, attempt: u32 },
        /// Re-arm the controller on the global check grid.
        Rearm { due: u64 },
        /// Emit nothing and leave the application untouched.
        Retire,
        /// Emit nothing; record the violation instant locally.
        Mark,
    }

    struct Case {
        name: &'static str,
        policy: ViolationPolicy,
        /// Execution start instant, if dispatched.
        started: Option<u64>,
        /// Check instant (seconds).
        now: u64,
        completed: bool,
        has_job: bool,
        /// Whether a multi-step acquisition is already in flight.
        pending: bool,
        /// 0 for a controller check, else the lease-retry attempt.
        attempt: u32,
        expect: Expect,
    }

    /// Escalations leave the shard exactly when the old control plane
    /// would have gone to the cloud market: the verdict needs
    /// attention, escalation is the configured policy, a framework job
    /// exists to act on, and no acquisition is already in flight.
    /// Every other verdict resolves silently inside the shard. A lease
    /// retry reaches the same verdict and carries its attempt.
    #[test]
    fn check_sla_escalates_exactly_when_the_market_would_act() {
        use ViolationPolicy::{EscalateToCloud, Report};
        let cases = [
            Case {
                name: "completed app retires its controller",
                policy: EscalateToCloud,
                started: Some(50),
                now: 500,
                completed: true,
                has_job: true,
                pending: false,
                attempt: 0,
                expect: Expect::Retire,
            },
            Case {
                name: "on-track check re-arms on the 30 s grid",
                policy: EscalateToCloud,
                started: Some(50),
                // Predicted completion 1050 < 1100: margin to spare.
                now: 100,
                completed: false,
                has_job: true,
                pending: false,
                attempt: 0,
                expect: Expect::Rearm { due: 120 },
            },
            Case {
                name: "at-risk job goes to the market before the deadline",
                policy: EscalateToCloud,
                // Started 200 s late: predicted 1200 > deadline 1100.
                started: Some(200),
                now: 200,
                completed: false,
                has_job: true,
                pending: false,
                attempt: 0,
                expect: Expect::Escalate {
                    violated: false,
                    attempt: 0,
                },
            },
            Case {
                name: "past-deadline job goes to the market flagged violated",
                policy: EscalateToCloud,
                started: Some(200),
                now: 1200,
                completed: false,
                has_job: true,
                pending: false,
                attempt: 0,
                expect: Expect::Escalate {
                    violated: true,
                    attempt: 0,
                },
            },
            Case {
                name: "a lease retry re-asks the market with its attempt",
                policy: EscalateToCloud,
                started: Some(200),
                now: 200,
                completed: false,
                has_job: true,
                pending: false,
                attempt: 2,
                expect: Expect::Escalate {
                    violated: false,
                    attempt: 2,
                },
            },
            Case {
                name: "at-risk without a framework job just re-arms",
                policy: EscalateToCloud,
                started: Some(200),
                now: 200,
                completed: false,
                has_job: false,
                pending: false,
                attempt: 0,
                expect: Expect::Rearm { due: 210 },
            },
            Case {
                name: "at-risk with an acquisition in flight re-arms",
                policy: EscalateToCloud,
                started: Some(200),
                now: 200,
                completed: false,
                has_job: true,
                pending: true,
                attempt: 0,
                expect: Expect::Rearm { due: 210 },
            },
            Case {
                name: "report mode records the violation and retires",
                policy: Report,
                started: Some(200),
                now: 1200,
                completed: false,
                has_job: true,
                pending: false,
                attempt: 0,
                expect: Expect::Mark,
            },
            Case {
                name: "violated but jobless app is marked, not escalated",
                policy: EscalateToCloud,
                started: Some(200),
                now: 1200,
                completed: false,
                has_job: false,
                pending: false,
                attempt: 0,
                expect: Expect::Mark,
            },
            Case {
                // Only a check restored from a polling build's
                // checkpoint fires before the deadline under `Report`:
                // it converges onto the one wake-up past 1100 s.
                name: "report-mode check before the deadline sleeps past it",
                policy: Report,
                started: Some(200),
                now: 200,
                completed: false,
                has_job: true,
                pending: false,
                attempt: 0,
                expect: Expect::Rearm { due: 1110 },
            },
        ];
        for case in cases {
            let mut shard = shard(case.policy, Some(30));
            let id = AppId(7);
            let mut a = app(id);
            if let Some(s) = case.started {
                a.times.start(t(s));
            }
            if case.completed {
                a.phase = AppPhase::Completed { at: t(case.now) };
            }
            if case.has_job {
                a.job = Some(JobId(3));
            }
            shard.apps.insert(id, a);
            if case.pending {
                shard
                    .pending
                    .insert(id, PendingAcquisition::Transfer { vms: Vec::new() });
            }
            let mut sink = EffectSink::new(t(case.now), VcId(0), 1);
            if case.attempt == 0 {
                shard.check_sla(t(case.now), id, &mut sink);
            } else {
                shard.sla_verdict(t(case.now), id, case.attempt, &mut sink);
            }
            let effects = sink.into_effects();
            match case.expect {
                Expect::Escalate { violated, attempt } => {
                    assert_eq!(effects.len(), 1, "{}: exactly one effect", case.name);
                    assert_eq!(
                        effects[0].effect,
                        Effect::Escalate {
                            app: id,
                            violated,
                            attempt
                        },
                        "{}",
                        case.name
                    );
                }
                Expect::Rearm { due } => {
                    assert_eq!(effects.len(), 1, "{}: exactly one effect", case.name);
                    assert_eq!(
                        effects[0].effect,
                        Effect::Schedule {
                            due: t(due),
                            event: Event::ControllerCheck { app: id },
                        },
                        "{}",
                        case.name
                    );
                }
                Expect::Retire | Expect::Mark => {
                    assert!(effects.is_empty(), "{}: must emit nothing", case.name);
                }
            }
            let marked = shard.apps[&id].violation_detected;
            if case.expect == Expect::Mark {
                assert_eq!(marked, Some(t(case.now)), "{}: records now", case.name);
            } else {
                assert_eq!(marked, None, "{}: must not mark", case.name);
            }
        }
    }

    /// An admitted arrival emits its placement first and then arms its
    /// controller: a reporting one for the first tick past the
    /// deadline, an escalating one for the next tick. Effects of one
    /// event apply in emission order, so the check's tag follows every
    /// event the placement schedules.
    #[test]
    fn arrival_arms_the_controller_after_the_placement() {
        use meryn_sla::negotiation::UserStrategy;
        use meryn_workloads::VcTarget;
        use ViolationPolicy::{EscalateToCloud, Report};
        // Arrives at 5 s with 1000 s of work: deadline 5 + 1000 + 84 s.
        for (policy, interval, armed) in [
            (Report, Some(30), Some(1110)),
            (EscalateToCloud, Some(30), Some(30)),
            (Report, None, None),
        ] {
            let mut shard = shard(policy, interval);
            let id = AppId(4);
            let sub = Submission::new(
                t(5),
                VcTarget::Index(0),
                JobSpec::Batch {
                    work: d(1000),
                    nb_vms: 1,
                    scaling: ScalingLaw::Fixed,
                },
                UserStrategy::AcceptCheapest,
            );
            let mut sink = EffectSink::new(t(5), VcId(0), 1);
            shard.handle(t(5), Event::Arrival { app: id, sub }, &mut sink);
            assert_eq!(shard.apps[&id].contract.deadline_at(), t(1089));
            let effects: Vec<Effect> = sink.into_effects().into_iter().map(|e| e.effect).collect();
            let label = format!("{policy:?} every {interval:?} s");
            assert!(
                matches!(effects[0], Effect::Place { app, .. } if app == id),
                "{label}: the placement comes first"
            );
            let check = armed.map(|due| Effect::Schedule {
                due: t(due),
                event: Event::ControllerCheck { app: id },
            });
            assert_eq!(effects.get(1), check.as_ref(), "{label}");
            assert!(effects.len() <= 2, "{label}: nothing else");
        }
    }

    #[test]
    fn check_sla_keeps_the_first_detection_instant() {
        let mut shard = shard(ViolationPolicy::Report, Some(30));
        let id = AppId(1);
        let mut a = app(id);
        a.times.start(t(200));
        a.violation_detected = Some(t(1130));
        shard.apps.insert(id, a);
        let mut sink = EffectSink::new(t(1200), VcId(0), 1);
        shard.check_sla(t(1200), id, &mut sink);
        assert!(sink.into_effects().is_empty());
        assert_eq!(
            shard.apps[&id].violation_detected,
            Some(t(1130)),
            "a later check must not overwrite the first detection"
        );
    }

    #[test]
    fn check_sla_is_inert_on_unmonitored_deployments() {
        let mut shard = shard(ViolationPolicy::EscalateToCloud, None);
        let id = AppId(2);
        let mut a = app(id);
        a.times.start(t(200));
        a.job = Some(JobId(3));
        shard.apps.insert(id, a);
        // Even a long-violated application draws no reaction: nothing
        // ever arms checks, so none may fire effects.
        let mut sink = EffectSink::new(t(5000), VcId(0), 1);
        shard.check_sla(t(5000), id, &mut sink);
        assert!(sink.into_effects().is_empty());
        assert_eq!(shard.apps[&id].violation_detected, None);
    }
}
