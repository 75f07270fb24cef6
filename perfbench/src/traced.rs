//! The traced run: drives each of a workload's base runs through the
//! engine's public calls with a timer around each, checks the result is
//! byte-identical to an untraced run, and adds the checkpoint leg and
//! the layer microbenchmarks.

use std::time::Instant;

use meryn_core::EngineCheckpoint;
use meryn_scenario::{run_scenario, single_run_resume, single_run_start};
use meryn_sim::SimDuration;

use crate::micro;
use crate::stats::{quantile, tail_percentile};
use crate::suite::{self, RunInput, Spec};
use crate::verify::{run_report_json, same_bytes, Tally};
use crate::Metrics;

/// Fixed simulated-time slices per run before its last arrival: enough
/// that every run alone supports a p99 over slices.
const SLICES_TO_LAST_ARRIVAL: u64 = 1000;

/// Per-layer counters and timers summed over a workload's base runs.
#[derive(Debug, Default)]
struct CoreTotals {
    deploy_s: f64,
    enqueue_s: f64,
    run_s: f64,
    finalize_s: f64,
    untraced_s: f64,
    slice_ms: Vec<f64>,
    submissions: u64,
    events: u64,
    parallel_runs: u64,
    control_events: u64,
}

/// One base run, timed per engine call with `run_until` advancing in
/// fixed simulated-time slices; its report must equal the untraced
/// run's byte for byte. Returns the report JSON.
fn traced_run(input: &RunInput, totals: &mut CoreTotals) -> Result<String, String> {
    let start = Instant::now();
    let mut platform = input.deploy();
    input.enqueue(&mut platform)?;
    platform.run_to_completion();
    let report = platform.finalize();
    totals.untraced_s += start.elapsed().as_secs_f64();
    let untraced = run_report_json(&report)?;

    let start = Instant::now();
    let mut platform = input.deploy();
    totals.deploy_s += start.elapsed().as_secs_f64();
    let start = Instant::now();
    input.enqueue(&mut platform)?;
    totals.enqueue_s += start.elapsed().as_secs_f64();

    let slice_ms = (input.last_arrival.as_millis() / SLICES_TO_LAST_ARRIVAL).max(1);
    let slice = SimDuration::from_millis(slice_ms);
    let mut stop = meryn_sim::SimTime::ZERO + slice;
    loop {
        let start = Instant::now();
        let more = platform.run_until(stop);
        let dt = start.elapsed().as_secs_f64();
        totals.run_s += dt;
        totals.slice_ms.push(dt * 1e3);
        if !more {
            break;
        }
        stop += slice;
    }
    platform
        .audit_invariants()
        .map_err(|e| format!("invariant broken after the traced run drained: {e}"))?;
    totals.parallel_runs += platform.parallel_runs();
    totals.control_events += platform
        .shard_event_counts()
        .iter()
        .filter(|(queue, _)| queue == "control")
        .map(|(_, n)| n)
        .sum::<u64>();
    let start = Instant::now();
    let report = platform.finalize();
    totals.finalize_s += start.elapsed().as_secs_f64();
    totals.events += report.events_processed;
    totals.submissions += input.submissions;
    let traced = run_report_json(&report)?;
    same_bytes(&traced, &untraced)
        .map_err(|e| format!("traced report differs from untraced: {e}"))?;
    Ok(traced)
}

/// The checkpoint leg on `spec`'s first variant: `single_run_start`,
/// run to mid-arrival-horizon, `checkpoint` + JSON, parse +
/// `single_run_resume`, run to completion. The resumed report must
/// equal `uninterrupted`. Returns (checkpoint s, restore s, bytes).
fn checkpoint_leg(
    spec: &Spec,
    mid_ms: u64,
    uninterrupted: &str,
) -> Result<(f64, f64, usize), String> {
    let mut platform = single_run_start(&spec.seeded).map_err(|e| e.to_string())?;
    platform.run_until(meryn_sim::SimTime::from_millis(mid_ms));
    let start = Instant::now();
    let bytes = serde_json::to_string(&platform.checkpoint())
        .map_err(|e| format!("serialize checkpoint: {e:?}"))?;
    let checkpoint_s = start.elapsed().as_secs_f64();
    drop(platform);
    let start = Instant::now();
    let cp: EngineCheckpoint =
        serde_json::from_str(&bytes).map_err(|e| format!("parse checkpoint: {e:?}"))?;
    let mut resumed = single_run_resume(&spec.seeded, cp);
    let restore_s = start.elapsed().as_secs_f64();
    resumed.run_to_completion();
    resumed
        .audit_invariants()
        .map_err(|e| format!("invariant broken after the resumed run drained: {e}"))?;
    let report = run_report_json(&resumed.finalize())?;
    same_bytes(&report, uninterrupted)
        .map_err(|e| format!("resumed report differs from the uninterrupted run: {e}"))?;
    Ok((checkpoint_s, restore_s, bytes.len()))
}

/// Runs the traced measurement of a workload and fills every per-layer
/// metric. Verification failures land in `tally`.
pub fn run(specs: &[Spec], paper_suite: &[Spec], tally: &mut Tally, out: &mut Metrics) {
    let mut totals = CoreTotals::default();
    let mut first_report = None;
    let mut first_mid_ms = 0;
    for spec in specs {
        let inputs = tally.run(&format!("{} variants", spec.stem), || {
            suite::base_runs(&spec.seeded).map_err(|e| e.to_string())
        });
        for (i, input) in inputs.iter().flatten().enumerate() {
            let report = tally.run(&format!("{} traced run {i}", spec.stem), || {
                traced_run(input, &mut totals)
            });
            if first_report.is_none() {
                first_report = report;
                first_mid_ms = input.last_arrival.as_millis() / 2;
            }
        }
    }
    let (checkpoint_s, restore_s, checkpoint_bytes) = first_report
        .and_then(|uninterrupted| {
            tally.run(&format!("{} checkpoint leg", specs[0].stem), || {
                checkpoint_leg(&specs[0], first_mid_ms, &uninterrupted)
            })
        })
        .unwrap_or((f64::NAN, f64::NAN, 0));

    let gen =
        suite::generator(specs).map_or(f64::NAN, |(cfg, seed)| micro::gen_ns_per_sub(&cfg, seed));
    out.push("workloads.gen_ns_per_sub", gen, "ns");
    out.push("core.deploy_ms", totals.deploy_s * 1e3, "ms");
    out.push("core.enqueue_ms", totals.enqueue_s * 1e3, "ms");
    out.push("core.run_s", totals.run_s, "s");
    out.push(
        "core.ns_per_app",
        totals.run_s * 1e9 / totals.submissions.max(1) as f64,
        "ns",
    );
    out.push(
        "core.events_per_s",
        totals.events as f64 / totals.run_s,
        "1/s",
    );
    out.push("core.parallel_runs", totals.parallel_runs as f64, "count");
    out.push("core.control_events", totals.control_events as f64, "count");
    let slices = &totals.slice_ms;
    let p99_ok = tail_percentile(slices.len(), &[99.0]).is_some();
    if !p99_ok {
        tally.run("slice sample size", || -> Result<(), String> {
            Err(format!("{} slices cannot support a p99", slices.len()))
        });
    }
    let q = |p: f64| {
        if slices.is_empty() {
            f64::NAN
        } else {
            quantile(slices, p)
        }
    };
    out.push("core.slice_ms.p50", q(0.5), "ms");
    out.push(
        "core.slice_ms.p99",
        if p99_ok { q(0.99) } else { f64::NAN },
        "ms",
    );
    out.push("core.slice_ms.max", q(1.0), "ms");
    out.push("core.slice_count", slices.len() as f64, "count");
    out.push("core.finalize_ms", totals.finalize_s * 1e3, "ms");
    out.push("core.checkpoint_ms", checkpoint_s * 1e3, "ms");
    out.push("core.restore_ms", restore_s * 1e3, "ms");
    out.push("core.checkpoint_bytes", checkpoint_bytes as f64, "bytes");
    for vcs in [3, 64, 1024] {
        out.push(
            &format!("protocol.select_ns.vcs-{vcs}"),
            micro::select_ns(vcs),
            "ns",
        );
    }
    for queues in [4, 65, 1025] {
        out.push(
            &format!("sim.earliest_key_ns.q-{queues}"),
            micro::earliest_key_ns(queues),
            "ns",
        );
    }
    for (label, pending) in [("1k", 1_000), ("100k", 100_000)] {
        out.push(
            &format!("sim.queue_hold_ns.n-{label}"),
            micro::queue_hold_ns(pending),
            "ns",
        );
    }
    for spec in paper_suite {
        let ms = tally
            .run(&format!("{} run_scenario", spec.stem), || {
                let start = Instant::now();
                run_scenario(&spec.seeded).map_err(|e| e.to_string())?;
                Ok(start.elapsed().as_secs_f64() * 1e3)
            })
            .unwrap_or(f64::NAN);
        out.push(&format!("scenario.spec_ms.{}", spec.stem), ms, "ms");
    }
    let traced_s = totals.deploy_s + totals.enqueue_s + totals.run_s + totals.finalize_s;
    out.push(
        "trace.overhead_frac",
        traced_s / totals.untraced_s - 1.0,
        "ratio",
    );
}
