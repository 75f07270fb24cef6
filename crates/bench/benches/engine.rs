//! Criterion macro-benchmarks: event-queue throughput and whole paper
//! scenarios end-to-end (events/second of the simulation kernel and the
//! full platform).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use meryn_core::Platform;
use meryn_scenario::spec::{WorkloadModifier, WorkloadSpec};
use meryn_scenario::{run_paper, Scenario};
use meryn_sim::{EventQueue, SimTime};

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    for &n in &[1_000usize, 10_000, 100_000] {
        group.bench_with_input(BenchmarkId::new("push_pop", n), &n, |b, &n| {
            b.iter(|| {
                let mut q = EventQueue::new();
                for i in 0..n {
                    // Scatter times deterministically.
                    q.push(SimTime::from_millis(((i * 2654435761) % n) as u64), i);
                }
                let mut acc = 0usize;
                while let Some((_, e)) = q.pop() {
                    acc = acc.wrapping_add(e);
                }
                acc
            })
        });
    }
    group.finish();
}

fn bench_paper_scenario(c: &mut Criterion) {
    let mut group = c.benchmark_group("paper_scenario_end_to_end");
    group.sample_size(10);
    for mode in ["meryn", "static"] {
        group.bench_with_input(BenchmarkId::new("mode", mode), &mode, |b, &mode| {
            b.iter(|| run_paper(mode, 42))
        });
    }
    group.finish();
}

/// Engine throughput on a scaled-down representative-datacenter slice:
/// the `BENCH_4.json` quantity, sized for a bench iteration (10k of the
/// scenario's 100k submissions).
fn bench_engine_throughput(c: &mut Criterion) {
    let mut scenario = Scenario::from_json(include_str!(
        "../../../scenarios/representative-datacenter.json"
    ))
    .expect("the shipped representative-datacenter spec parses");
    let WorkloadSpec::Generated { config, .. } = &mut scenario.workload else {
        panic!("representative-datacenter uses a generated workload");
    };
    config.count = 10_000;
    let workload = scenario
        .workload
        .materialize(&WorkloadModifier::default())
        .expect("generated workload needs no files");

    let mut group = c.benchmark_group("engine_throughput");
    group.sample_size(10);
    for policy in ["meryn", "static"] {
        let mut cfg = scenario.platform.clone();
        cfg.policy = policy.into();
        group.bench_with_input(
            BenchmarkId::new("representative_10k", policy),
            &cfg,
            |b, cfg| {
                b.iter(|| {
                    Platform::new(cfg.clone())
                        .with_series_recording(false)
                        .run(&workload)
                        .events_processed
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_paper_scenario,
    bench_engine_throughput
);
criterion_main!(benches);
