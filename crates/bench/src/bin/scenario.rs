//! Runs any declarative scenario spec file (`scenarios/*.json`).
//!
//! ```text
//! cargo run --release -p meryn-bench --bin scenario -- scenarios/paper.json
//! cargo run --release -p meryn-bench --bin scenario -- scenarios/fig5.json --json out.json
//! cargo run --release -p meryn-bench --bin scenario -- scenarios/representative-datacenter.json --bench
//! cargo run --release -p meryn-bench --bin scenario -- --catalog hyperscale --bench
//! cargo run --release -p meryn-bench --bin scenario -- scenarios/hyperscale-ci.json --single --json full.json
//! cargo run --release -p meryn-bench --bin scenario -- scenarios/hyperscale-ci.json --checkpoint cp.json --checkpoint-at 1200000
//! cargo run --release -p meryn-bench --bin scenario -- scenarios/hyperscale-ci.json --resume cp.json --json resumed.json
//! ```
//!
//! The human rendering (`ScenarioReport::render`) prints one block per
//! report section the spec's `outputs` asked for: the paper's tables
//! and figures and every ablation are spec files, not binaries. The
//! `--json` report is byte-identical at any thread count (CI
//! byte-compares `RAYON_NUM_THREADS=1` against the threaded run for
//! every checked-in spec). `--quiet` suppresses the human rendering.
//! `--bench` measures engine throughput instead of producing a report:
//! it times every variant's base-seed run and prints events/second and
//! peak RSS (with `--json`, writes the `BENCH_4.json`-style artifact —
//! timings are machine-dependent, so bench JSON is never
//! byte-compared). `--catalog hyperscale` loads the one scenario that
//! is not shipped as a file, the full-size `hyperscale` run
//! (`meryn_scenario::catalog`).
//!
//! The checkpoint workflow operates on the scenario's base-seed
//! first-variant run (see `meryn_scenario::single_run_start`):
//! `--single` runs it uninterrupted and writes its `RunReport`;
//! `--checkpoint FILE --checkpoint-at SECS` stops at the first event
//! due after SECS, snapshots the complete engine state to FILE and
//! exits; `--resume FILE` restores and runs to completion. The
//! resumed report is byte-identical to the `--single` one — CI `cmp`s
//! them. A checkpoint holds the engine state and the arrival stream's
//! cursor, not the pending arrivals: `--resume` re-derives the
//! workload from the spec, so it rejects a checkpoint whose `format`
//! is missing or differs from this build's, and one taken from another
//! spec's run (another platform config or workload size).
//!
//! Every file the binary writes is published atomically
//! (`meryn_scenario::publish_atomically`: written as `FILE.tmp`,
//! synced, then renamed over FILE), so a killed writer never leaves a
//! torn report or checkpoint behind. A malformed spec, an unreadable
//! input or an unwritable output exits 2 with a diagnostic.

use meryn_core::{CheckpointHeader, EngineCheckpoint};
use meryn_scenario::{
    bench_scenario, catalog, publish_atomically, run_scenario, single_run_resume, single_run_start,
    Scenario,
};
use meryn_sim::SimTime;

fn usage() -> ! {
    eprintln!(
        "usage: scenario <spec.json | --catalog hyperscale> [--json FILE] [--quiet] [--bench] \
         [--single | --checkpoint FILE --checkpoint-at SECS | --resume FILE]"
    );
    std::process::exit(2);
}

/// Reports a user-input problem on stderr and exits 2.
fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// [`single_run_start`] with the bin's diagnostic convention: a
/// malformed spec or an unreadable workload trace is a user-input
/// problem, reported on stderr with exit 2 (like an unreadable spec or
/// a corrupt checkpoint) rather than a panic.
fn start_single_run(scenario: &Scenario) -> meryn_core::Platform {
    single_run_start(scenario)
        .unwrap_or_else(|e| fail(format!("cannot start {}: {e}", scenario.name)))
}

/// Publishes `contents` to `path`, exiting 2 when it cannot.
fn publish(what: &str, path: &str, contents: &str) {
    if let Err(e) = publish_atomically(path, contents) {
        fail(format!("cannot write {what} {path}: {e}"));
    }
}

fn write_run_report(report: &meryn_core::RunReport, json_path: Option<&str>, quiet: bool) {
    if let Some(path) = json_path {
        let mut json = serde_json::to_string_pretty(report).expect("report serializes");
        json.push('\n');
        publish("run report", path, &json);
        if !quiet {
            println!("wrote {path}");
        }
    }
}

fn main() {
    let mut spec_path: Option<String> = None;
    let mut catalog_name: Option<String> = None;
    let mut json_path: Option<String> = None;
    let mut quiet = false;
    let mut bench = false;
    let mut single = false;
    let mut checkpoint_path: Option<String> = None;
    let mut checkpoint_at: Option<SimTime> = None;
    let mut resume_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => match args.next() {
                Some(path) => json_path = Some(path),
                None => usage(),
            },
            "--catalog" => match args.next() {
                Some(name) => catalog_name = Some(name),
                None => usage(),
            },
            "--quiet" => quiet = true,
            "--bench" => bench = true,
            "--single" => single = true,
            "--checkpoint" => match args.next() {
                Some(path) => checkpoint_path = Some(path),
                None => usage(),
            },
            "--checkpoint-at" => match args.next().and_then(|s| s.parse::<u64>().ok()) {
                // Simulated time counts milliseconds in a u64: reject
                // an instant it cannot hold instead of wrapping it.
                Some(secs) => match secs.checked_mul(1000) {
                    Some(ms) => checkpoint_at = Some(SimTime::from_millis(ms)),
                    None => fail(format!(
                        "--checkpoint-at {secs} s is past the last representable instant ({} s)",
                        u64::MAX / 1000
                    )),
                },
                None => usage(),
            },
            "--resume" => match args.next() {
                Some(path) => resume_path = Some(path),
                None => usage(),
            },
            other if spec_path.is_none() && !other.starts_with("--") => {
                spec_path = Some(other.to_owned());
            }
            _ => usage(),
        }
    }

    let scenario = match (&spec_path, catalog_name.as_deref()) {
        (Some(path), None) => {
            Scenario::load(path).unwrap_or_else(|e| fail(format!("cannot load scenario: {e}")))
        }
        (None, Some("hyperscale")) => catalog::hyperscale(),
        (None, Some(name)) => fail(format!(
            "unknown catalog scenario {name:?}; the catalog holds only \"hyperscale\" \
             (shipped specs are files: scenarios/<name>.json)"
        )),
        _ => usage(),
    };

    // The single-run checkpoint workflow.
    if single {
        let mut platform = start_single_run(&scenario);
        platform.run_to_completion();
        let report = platform.finalize();
        write_run_report(&report, json_path.as_deref(), quiet);
        return;
    }
    if let Some(cp_path) = checkpoint_path {
        let Some(stop) = checkpoint_at else { usage() };
        let mut platform = start_single_run(&scenario);
        let more = platform.run_until(stop);
        let cp = platform.checkpoint();
        let mut json = serde_json::to_string(&cp).expect("checkpoint serializes");
        json.push('\n');
        publish("checkpoint", &cp_path, &json);
        if !quiet {
            println!(
                "checkpointed {} at t={} s ({}): {cp_path}",
                scenario.name,
                cp.taken_at().as_secs(),
                if more { "events remain" } else { "drained" },
            );
        }
        return;
    }
    if let Some(cp_path) = resume_path {
        let text = std::fs::read_to_string(&cp_path)
            .unwrap_or_else(|e| fail(format!("cannot read checkpoint {cp_path}: {e}")));
        let invalid = |e: serde_json::Error| -> ! {
            fail(format!(
                "{cp_path} is not a valid engine checkpoint \
                 (truncated, corrupt or from an older build?): {e}"
            ))
        };
        // The layout number first: another layout is refused by it,
        // whatever shape the rest of the file has.
        let header: CheckpointHeader = serde_json::from_str(&text).unwrap_or_else(|e| invalid(e));
        if let Err(e) = header.check() {
            fail(format!("{cp_path}: {e}"));
        }
        let cp: EngineCheckpoint = serde_json::from_str(&text).unwrap_or_else(|e| invalid(e));
        if let Err(e) = scenario.check_checkpoint(&cp) {
            fail(format!(
                "cannot resume {} from {cp_path}: {e}",
                scenario.name
            ));
        }
        let mut platform = single_run_resume(&scenario, cp);
        platform.run_to_completion();
        let report = platform.finalize();
        write_run_report(&report, json_path.as_deref(), quiet);
        return;
    }

    if bench {
        let report =
            bench_scenario(&scenario).unwrap_or_else(|e| fail(format!("bench failed: {e}")));
        if !quiet {
            print!("{}", report.render());
        }
        if let Some(path) = json_path {
            publish("bench JSON", &path, &report.to_json());
            if !quiet {
                println!("\nwrote {path}");
            }
        }
        return;
    }
    let report = run_scenario(&scenario).unwrap_or_else(|e| fail(format!("scenario failed: {e}")));
    if !quiet {
        print!("{}", report.render());
    }
    if let Some(path) = json_path {
        publish("scenario report", &path, &report.to_json());
        if !quiet {
            println!("\nwrote {path}");
        }
    }
}
