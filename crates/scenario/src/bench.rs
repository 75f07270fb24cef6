//! Engine-throughput measurement: events/second over a scenario's
//! base-seed runs.
//!
//! [`bench_scenario`] runs every expanded variant's headline simulation
//! once, single-threaded and untimed by the sweep harness, and reports
//! wall-clock time plus the platform's own event counters: the logical
//! events it credits and the raw pops of its event queue. The JSON it
//! produces (`scenario --bench --json`) is the `BENCH_4.json` artifact;
//! its timings are machine-dependent, so unlike scenario reports it is
//! **not** byte-compared across thread counts — only the simulation
//! outputs are.

use std::io;
use std::time::Instant;

use serde::Serialize;

use crate::runner::{build_run, expand_variants};
use crate::spec::Scenario;

/// One VC shard's share of a run's events.
#[derive(Debug, Clone, Serialize)]
pub struct QueueEvents {
    /// The VC's name.
    pub queue: String,
    /// Logical events that VC's shard processed.
    pub events: u64,
}

/// One variant's throughput measurement.
#[derive(Debug, Clone, Serialize)]
pub struct BenchVariant {
    /// Axis label, e.g. `"policy=meryn"`.
    pub label: String,
    /// Logical simulation events processed by the run: a coalesced VM
    /// batch counts one event per VM.
    pub events: u64,
    /// Events popped from the engine's queue — each coalesced batch
    /// once. Never more than `events`.
    pub raw_events: u64,
    /// Per-shard breakdown of `events`: one entry per VC, `VcId` order.
    pub events_by_queue: Vec<QueueEvents>,
    /// Same-instant cross-shard runs the executor fanned out to worker
    /// threads.
    pub parallel_runs: u64,
    /// Wall-clock seconds for the run (deploy + drain + finalize).
    pub wall_secs: f64,
    /// `events / wall_secs`.
    pub events_per_sec: f64,
}

/// A scenario's throughput report.
#[derive(Debug, Clone, Serialize)]
pub struct BenchReport {
    /// Scenario name.
    pub scenario: String,
    /// Per-variant measurements, axis order.
    pub variants: Vec<BenchVariant>,
    /// Total events across variants.
    pub total_events: u64,
    /// Total wall-clock seconds across variants.
    pub total_wall_secs: f64,
    /// Aggregate `total_events / total_wall_secs`.
    pub events_per_sec: f64,
    /// Peak resident set size of the benchmarking process [bytes]
    /// (Linux `VmHWM`, covering all variants; omitted from the JSON
    /// where procfs can't answer). The hyperscale CI gate holds this
    /// under a ceiling to pin the engine's O(live) memory behaviour.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub peak_rss_bytes: Option<u64>,
}

/// Extracts the `VmHWM` high-water mark [bytes] from a
/// `/proc/<pid>/status` blob. `None` when the line is absent or its
/// value column doesn't parse — the caller then omits the metric
/// rather than reporting a bogus zero.
fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

/// Peak resident set size of this process [bytes]: the `VmHWM`
/// high-water mark from `/proc/self/status`. `None` where procfs is
/// unavailable (non-Linux platforms) or the field is unparseable.
pub fn peak_rss_bytes() -> Option<u64> {
    parse_vm_hwm(&std::fs::read_to_string("/proc/self/status").ok()?)
}

impl BenchReport {
    /// Serializes to pretty JSON, newline-terminated.
    pub fn to_json(&self) -> String {
        let mut json = serde_json::to_string_pretty(self).expect("bench types are serde-safe");
        json.push('\n');
        json
    }

    /// Renders the human-readable throughput table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "engine throughput — scenario {}", self.scenario);
        let label_w = self
            .variants
            .iter()
            .map(|v| v.label.len())
            .max()
            .unwrap_or(4)
            .max(7);
        let _ = writeln!(
            out,
            "{:<label_w$} {:>12} {:>12} {:>10} {:>14}",
            "variant", "events", "raw events", "wall [s]", "events/sec"
        );
        for v in &self.variants {
            let _ = writeln!(
                out,
                "{:<label_w$} {:>12} {:>12} {:>10.3} {:>14.0}",
                v.label, v.events, v.raw_events, v.wall_secs, v.events_per_sec
            );
            let shares: Vec<String> = v
                .events_by_queue
                .iter()
                .map(|q| format!("{}={}", q.queue, q.events))
                .collect();
            let _ = writeln!(
                out,
                "{:<label_w$}   {} parallel_runs={}",
                "",
                shares.join(" "),
                v.parallel_runs
            );
        }
        let raw_total: u64 = self.variants.iter().map(|v| v.raw_events).sum();
        let _ = writeln!(
            out,
            "{:<label_w$} {:>12} {:>12} {:>10.3} {:>14.0}",
            "total", self.total_events, raw_total, self.total_wall_secs, self.events_per_sec
        );
        if let Some(rss) = self.peak_rss_bytes {
            let _ = writeln!(out, "peak RSS: {:.1} MiB", rss as f64 / (1024.0 * 1024.0));
        }
        out
    }
}

/// Times every variant's base-seed run of `scenario` once.
///
/// Replicas are ignored and no report sections are assembled. The
/// platform is built as [`crate::runner::run_scenario`] builds it —
/// including series recording gated on `outputs.series` — but in the
/// spec's report mode ([`crate::spec::OutputSpec::report_mode`]), so a
/// full-mode spec's run still builds its record list. Wall clock wraps
/// deployment (with the workload's arrival stream: a non-`Generated`
/// workload is materialized there; a `Generated` one is generated as
/// the run pulls it) + event loop + finalize.
///
/// # Errors
/// As [`crate::runner::run_scenario`]: a spec [`Scenario::check`]
/// rejects, or an unreadable `TraceFile`.
#[allow(clippy::disallowed_methods)] // benchmark harness: wall clock is the measurement
pub fn bench_scenario(scenario: &Scenario) -> io::Result<BenchReport> {
    crate::policies::install();
    let base_seed = scenario.sweep.base_seed;
    let mut variants_out = Vec::new();
    let mut total_events = 0u64;
    let mut total_wall = 0.0f64;
    for variant in expand_variants(scenario)? {
        let start = Instant::now();
        let mode = scenario.outputs.report_mode();
        let mut platform = build_run(scenario, &variant, base_seed, mode, None)?;
        platform.run_to_completion();
        let events_by_queue: Vec<QueueEvents> = platform
            .shard_event_counts()
            .into_iter()
            .map(|(queue, events)| QueueEvents { queue, events })
            .collect();
        let parallel_runs = platform.parallel_runs();
        let raw_events = platform.raw_events();
        let report = platform.finalize();
        let wall = start.elapsed().as_secs_f64();
        let events = report.events_processed;
        total_events += events;
        total_wall += wall;
        variants_out.push(BenchVariant {
            label: variant.label,
            events,
            raw_events,
            events_by_queue,
            parallel_runs,
            wall_secs: wall,
            events_per_sec: if wall > 0.0 {
                events as f64 / wall
            } else {
                0.0
            },
        });
    }
    Ok(BenchReport {
        scenario: scenario.name.clone(),
        variants: variants_out,
        total_events,
        total_wall_secs: total_wall,
        events_per_sec: if total_wall > 0.0 {
            total_events as f64 / total_wall
        } else {
            0.0
        },
        peak_rss_bytes: peak_rss_bytes(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_counts_events_for_every_variant() {
        let mut s = Scenario::load(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../scenarios/paper.json"
        ))
        .expect("the shipped paper spec loads");
        s.sweep.replicas = 0;
        s.outputs.table1_samples = None;
        let b = bench_scenario(&s).unwrap();
        assert_eq!(b.variants.len(), 2);
        assert!(b.variants.iter().all(|v| v.events > 0));
        assert_eq!(
            b.total_events,
            b.variants.iter().map(|v| v.events).sum::<u64>()
        );
        let vcs: Vec<String> = s.platform.vcs.iter().map(|v| v.name.clone()).collect();
        for v in &b.variants {
            let queues: Vec<String> = v.events_by_queue.iter().map(|q| q.queue.clone()).collect();
            assert_eq!(queues, vcs, "one entry per VC shard, VcId order");
            assert_eq!(
                v.events,
                v.events_by_queue.iter().map(|q| q.events).sum::<u64>(),
                "per-queue breakdown must cover every event"
            );
        }
        let rendered = b.render();
        assert!(rendered.contains("events/sec"));
        assert!(rendered.contains("raw events"));
        assert!(rendered.contains("parallel_runs="));
        assert!(b.to_json().contains("\"events_by_queue\""));
        assert!(b.to_json().contains("\"total_events\""));
    }

    #[test]
    fn vm_hwm_parses_a_well_formed_status() {
        let status = "Name:\tscenario\nVmPeak:\t  123456 kB\nVmHWM:\t   98304 kB\nThreads:\t8\n";
        assert_eq!(parse_vm_hwm(status), Some(98_304 * 1024));
    }

    #[test]
    fn vm_hwm_is_none_when_the_line_is_missing_or_garbled() {
        // No VmHWM line at all (procfs variants that omit it).
        assert_eq!(parse_vm_hwm("Name:\tscenario\nThreads:\t8\n"), None);
        // Present but with a non-numeric value column.
        assert_eq!(parse_vm_hwm("VmHWM:\tlots kB\n"), None);
        // Present but with no value column.
        assert_eq!(parse_vm_hwm("VmHWM:\n"), None);
        // Empty input (the /proc/self/status read failed upstream).
        assert_eq!(parse_vm_hwm(""), None);
    }

    #[test]
    fn missing_rss_is_omitted_from_the_json() {
        let report = BenchReport {
            scenario: "s".into(),
            variants: Vec::new(),
            total_events: 0,
            total_wall_secs: 0.0,
            events_per_sec: 0.0,
            peak_rss_bytes: None,
        };
        assert!(!report.to_json().contains("peak_rss_bytes"));
        assert!(!report.render().contains("peak RSS"));
        let with = BenchReport {
            peak_rss_bytes: Some(2 * 1024 * 1024),
            ..report
        };
        assert!(with.to_json().contains("\"peak_rss_bytes\": 2097152"));
        assert!(with.render().contains("peak RSS: 2.0 MiB"));
    }
}
