//! Layer microbenchmarks built only from public constructors: Algorithm 1
//! over crafted estates, the queue merge, the calendar queue's hold
//! model, and workload generation.

use std::hint::black_box;
use std::time::{Duration, Instant};

use meryn_core::app::{AppMap, AppPhase, Application};
use meryn_core::bidding::BidRequest;
use meryn_core::cluster_manager::{VcView, VirtualCluster};
use meryn_core::policy::{self, StandardBidding};
use meryn_core::protocol::{select_resources, ProtocolParams};
use meryn_core::{AppId, Placement, VcId};
use meryn_frameworks::{BatchFramework, FrameworkKind, JobSpec, ScalingLaw};
use meryn_sim::{earliest_key, EventQueue, SimDuration, SimRng, SimTime};
use meryn_sla::{AppTimes, Money, PricingParams, SlaContract, SlaTerms, VmRate};
use meryn_vmm::{CloudId, HostTag, ImageId, LatencyModel, Location, PriceModel, PublicCloud, VmId};
use meryn_workloads::generators::{GeneratedChunks, GeneratorConfig, DEFAULT_CHUNK};

use crate::stats::median;

/// Timed batches per microbenchmark; the median batch is reported.
const BATCHES: usize = 15;
/// Wall time one batch is calibrated to.
const BATCH_TIME: Duration = Duration::from_millis(5);

/// Median nanoseconds per call of `op`, over [`BATCHES`] batches each
/// sized to take about [`BATCH_TIME`].
pub fn ns_per_call(mut op: impl FnMut()) -> f64 {
    let mut iters = 1u64;
    loop {
        let start = Instant::now();
        (0..iters).for_each(|_| op());
        if start.elapsed() >= BATCH_TIME || iters >= 1 << 30 {
            break;
        }
        iters *= 2;
    }
    let per_call: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            (0..iters).for_each(|_| op());
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&per_call)
}

/// Running one-VM applications per crafted VC.
const APPS_PER_VC: u64 = 4;

/// An estate of `vcs` batch VCs, each fully busy with
/// [`APPS_PER_VC`] private one-VM applications of staggered deadlines,
/// so every VC answers a bid request by walking its running jobs.
fn estate(vcs: usize) -> (Vec<VirtualCluster>, AppMap) {
    let t0 = SimTime::ZERO;
    let pricing = PricingParams::new(VmRate::per_vm_second(4), 1);
    let mut apps = AppMap::default();
    let mut next_app = 0u64;
    let clusters = (0..vcs)
        .map(|id| {
            let mut vc = VirtualCluster::new(
                VcId(id),
                format!("vc-{id:04}"),
                FrameworkKind::Batch,
                ImageId(0),
                Box::new(BatchFramework::new()),
                pricing,
            );
            for i in 0..APPS_PER_VC {
                let host = HostTag(u16::try_from(id % 60_000).expect("bounded") + 10);
                vc.add_slave(
                    VmId::new(host, i),
                    1.0,
                    Location::Private,
                    VmRate::per_vm_second(2),
                )
                .expect("fresh slave id");
            }
            for i in 0..APPS_PER_VC {
                let work = SimDuration::from_secs(1000);
                let deadline = SimDuration::from_secs(2000 + 500 * ((id as u64 + i) % 7));
                let spec = JobSpec::Batch {
                    work,
                    nb_vms: 1,
                    scaling: ScalingLaw::Fixed,
                };
                let job = vc.framework.submit(spec, t0).expect("batch job accepted");
                assert!(
                    !vc.framework.try_dispatch(t0).is_empty(),
                    "idle slave runs the job"
                );
                let app = AppId(next_app);
                next_app += 1;
                vc.job_to_app.insert(job, app);
                let mut times = AppTimes::submitted(t0, work, deadline);
                times.start(t0);
                apps.insert(
                    app,
                    Application {
                        id: app,
                        vc: VcId(id),
                        spec,
                        contract: SlaContract::sign(
                            SlaTerms::new(deadline, Money::from_units(10_000), 1),
                            t0,
                            pricing,
                        ),
                        times,
                        job: Some(job),
                        placement: Placement::Local,
                        phase: AppPhase::Submitted,
                        framework_submitted_at: Some(t0),
                        cost: Money::ZERO,
                        negotiation_rounds: 1,
                        suspensions: 0,
                        violation_detected: None,
                    },
                );
            }
            vc
        })
        .collect();
    (clusters, apps)
}

/// Nanoseconds per `protocol::select_resources` call (`meryn` placement,
/// standard bidding) for a one-VM request on a busy `vcs`-VC estate.
pub fn select_ns(vcs: usize) -> f64 {
    let (clusters, apps) = estate(vcs);
    let views: Vec<VcView<'_>> = clusters
        .iter()
        .map(|vc| VcView { vc, apps: &apps })
        .collect();
    let mut cloud = PublicCloud::new(
        CloudId(0),
        "bench-cloud",
        PriceModel::Static(VmRate::per_vm_second(4)),
        LatencyModel::ZERO,
        LatencyModel::ZERO,
        1.0,
        None,
        SimRng::new(1),
    );
    cloud.stage_image(ImageId(0));
    let clouds = [cloud];
    let placement = policy::placement("meryn").expect("meryn is registered");
    let req = BidRequest {
        nb_vms: 1,
        duration: SimDuration::from_secs(1000),
    };
    let params = ProtocolParams::new(VmRate::from_micro(500_000));
    ns_per_call(|| {
        black_box(select_resources(
            placement.as_ref(),
            &StandardBidding,
            VcId(0),
            black_box(&views),
            &clouds,
            req,
            SimTime::from_secs(10),
            params,
        ));
    })
}

/// Nanoseconds per `earliest_key` merge over `queues` queue heads.
pub fn earliest_key_ns(queues: usize) -> f64 {
    let mut rng = SimRng::new(0xEA51 + queues as u64);
    let keys: Vec<Option<(SimTime, u64)>> = (0..queues)
        .map(|i| {
            Some((
                SimTime::from_millis(rng.uniform_u64(0, 1_000_000)),
                i as u64,
            ))
        })
        .collect();
    ns_per_call(|| {
        black_box(earliest_key(black_box(&keys).iter().copied()));
    })
}

/// Nanoseconds per hold operation (`pop_keyed` then `push_tagged` at an
/// exponential offset) on an `EventQueue` holding `pending` events.
pub fn queue_hold_ns(pending: usize) -> f64 {
    let mut rng = SimRng::new(0x401D + pending as u64);
    let mean = SimDuration::from_secs(60);
    let mut queue: EventQueue<u64> = EventQueue::with_capacity(pending);
    let mut seq = 0u64;
    for _ in 0..pending {
        queue.push_tagged(SimTime::ZERO + rng.exponential(mean), seq, seq);
        seq += 1;
    }
    ns_per_call(|| {
        let (due, _, event) = queue
            .pop_keyed()
            .expect("the hold model keeps the queue full");
        queue.push_tagged(due + rng.exponential(mean), seq, black_box(event));
        seq += 1;
    })
}

/// Nanoseconds per submission drawn from `GeneratedChunks::submissions`
/// alone (median of three full drains).
pub fn gen_ns_per_sub(cfg: &GeneratorConfig, seed: u64) -> f64 {
    let drains: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            let n = GeneratedChunks::new(cfg, seed, DEFAULT_CHUNK)
                .submissions()
                .map(black_box)
                .count();
            start.elapsed().as_nanos() as f64 / n.max(1) as f64
        })
        .collect();
    median(&drains)
}
