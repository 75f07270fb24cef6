//! Runs any declarative scenario spec file (`scenarios/*.json`).
//!
//! ```text
//! cargo run --release -p meryn-bench --bin scenario -- scenarios/paper.json
//! cargo run --release -p meryn-bench --bin scenario -- scenarios/paper.json --json out.json
//! cargo run --release -p meryn-bench --bin scenario -- scenarios/representative-datacenter.json --bench
//! cargo run --release -p meryn-bench --bin scenario -- --catalog hyperscale --bench
//! cargo run --release -p meryn-bench --bin scenario -- scenarios/hyperscale-ci.json --single --json full.json
//! cargo run --release -p meryn-bench --bin scenario -- scenarios/hyperscale-ci.json --checkpoint cp.json --checkpoint-at 1200000
//! cargo run --release -p meryn-bench --bin scenario -- scenarios/hyperscale-ci.json --resume cp.json --json resumed.json
//! ```
//!
//! The `--json` report is byte-identical at any thread count (CI
//! byte-compares `RAYON_NUM_THREADS=1` against the threaded run for
//! every checked-in spec). `--quiet` suppresses the human rendering.
//! `--bench` measures engine throughput instead of producing a report:
//! it times every variant's base-seed run and prints events/second and
//! peak RSS (with `--json`, writes the `BENCH_4.json`-style artifact —
//! timings are machine-dependent, so bench JSON is never
//! byte-compared). `--emit-shipped DIR` regenerates the checked-in
//! spec files from the `meryn_scenario::catalog` source of truth
//! instead of running one. `--catalog NAME` loads a catalog entry by
//! name instead of a file — the only way to reach the unshipped full
//! `hyperscale` spec.
//!
//! The checkpoint workflow operates on the scenario's base-seed
//! first-variant run (see `meryn_scenario::single_run_start`):
//! `--single` runs it uninterrupted and writes its `RunReport`;
//! `--checkpoint FILE --checkpoint-at SECS` stops at the first event
//! due after SECS, snapshots the complete engine state to FILE and
//! exits; `--resume FILE` restores and runs to completion. The
//! resumed report is byte-identical to the `--single` one — CI `cmp`s
//! them. FILE is published atomically (written as `FILE.tmp`, synced,
//! then renamed over FILE), so a killed writer never leaves a torn
//! checkpoint behind; `--resume` rejects a checkpoint whose `format`
//! is missing or differs from this build's.

use meryn_bench::{
    bench_scenario, catalog, run_scenario, single_run_resume, single_run_start, Scenario,
};
use meryn_core::EngineCheckpoint;
use meryn_sim::SimTime;
use std::path::Path;

fn usage() -> ! {
    eprintln!(
        "usage: scenario <spec.json | --catalog NAME> [--json FILE] [--quiet] [--bench] \
         [--single | --checkpoint FILE --checkpoint-at SECS | --resume FILE] \
         | scenario --emit-shipped DIR"
    );
    std::process::exit(2);
}

/// [`single_run_start`] with the bin's diagnostic convention: workload
/// materialization and stream-attachment failures are user-input
/// problems, reported on stderr with exit 2 (like an unreadable spec or
/// a corrupt checkpoint) rather than a panic.
fn start_single_run(scenario: &Scenario) -> meryn_core::Platform {
    match single_run_start(scenario) {
        Ok(platform) => platform,
        Err(e) => {
            eprintln!("error: cannot start {}: {e}", scenario.name);
            std::process::exit(2);
        }
    }
}

/// Writes `json` to `path` crash-consistently: into `path.tmp` in the
/// same directory, synced to disk, then renamed over `path` — a reader
/// sees the old file or the whole new one, never a torn write. The
/// directory is synced last so the rename itself survives a crash.
fn publish_atomically(path: &str, json: &str) -> std::io::Result<()> {
    use std::io::Write as _;
    let tmp = format!("{path}.tmp");
    let mut file = std::fs::File::create(&tmp)?;
    let published = file
        .write_all(json.as_bytes())
        .and_then(|()| file.sync_all())
        .and_then(|()| std::fs::rename(&tmp, path));
    if published.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    published?;
    let dir = Path::new(path)
        .parent()
        .filter(|d| !d.as_os_str().is_empty())
        .unwrap_or(Path::new("."));
    std::fs::File::open(dir)?.sync_all()
}

fn write_run_report(report: &meryn_core::RunReport, json_path: Option<&str>, quiet: bool) {
    if let Some(path) = json_path {
        let mut json = serde_json::to_string_pretty(report).expect("report serializes");
        json.push('\n');
        std::fs::write(path, json).expect("write run report JSON");
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
    let mut checkpoint_at: Option<u64> = None;
    let mut resume_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => match args.next() {
                Some(path) => json_path = Some(path),
                None => usage(),
            },
            "--emit-shipped" => {
                let Some(dir) = args.next() else { usage() };
                for (stem, scenario) in catalog::shipped() {
                    let path = std::path::Path::new(&dir).join(format!("{stem}.json"));
                    scenario.save(&path).expect("write shipped spec");
                    println!("wrote {}", path.display());
                }
                return;
            }
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
            "--checkpoint-at" => match args.next().and_then(|s| s.parse().ok()) {
                Some(secs) => checkpoint_at = Some(secs),
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

    let scenario = match (&spec_path, &catalog_name) {
        (Some(path), None) => match Scenario::load(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: cannot load scenario: {e}");
                std::process::exit(2);
            }
        },
        (None, Some(name)) => match catalog::all().into_iter().find(|(stem, _)| stem == name) {
            Some((_, s)) => s,
            None => {
                let names: Vec<&str> = catalog::all().iter().map(|(stem, _)| *stem).collect();
                eprintln!("error: unknown catalog scenario {name:?}; known: {names:?}");
                std::process::exit(2);
            }
        },
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
        let Some(secs) = checkpoint_at else { usage() };
        let mut platform = start_single_run(&scenario);
        let more = platform.run_until(SimTime::from_secs(secs));
        let cp = platform.checkpoint();
        let mut json = serde_json::to_string(&cp).expect("checkpoint serializes");
        json.push('\n');
        if let Err(e) = publish_atomically(&cp_path, &json) {
            eprintln!("error: cannot write checkpoint {cp_path}: {e}");
            std::process::exit(2);
        }
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
        let text = match std::fs::read_to_string(&cp_path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("error: cannot read checkpoint {cp_path}: {e}");
                std::process::exit(2);
            }
        };
        let cp: EngineCheckpoint = match serde_json::from_str(&text) {
            Ok(cp) => cp,
            Err(e) => {
                eprintln!(
                    "error: {cp_path} is not a valid engine checkpoint \
                     (truncated, corrupt or from an older build?): {e}"
                );
                std::process::exit(2);
            }
        };
        if let Err(e) = cp.check_format() {
            eprintln!("error: {cp_path}: {e}");
            std::process::exit(2);
        }
        let mut platform = single_run_resume(&scenario, cp);
        platform.run_to_completion();
        let report = platform.finalize();
        write_run_report(&report, json_path.as_deref(), quiet);
        return;
    }

    if bench {
        let report = match bench_scenario(&scenario) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: bench failed: {e}");
                std::process::exit(1);
            }
        };
        if !quiet {
            print!("{}", report.render());
        }
        if let Some(path) = json_path {
            std::fs::write(&path, report.to_json()).expect("write bench JSON");
            if !quiet {
                println!("\nwrote {path}");
            }
        }
        return;
    }
    let report = match run_scenario(&scenario) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: scenario failed: {e}");
            std::process::exit(1);
        }
    };
    if !quiet {
        print!("{}", report.render());
    }
    if let Some(path) = json_path {
        std::fs::write(&path, report.to_json()).expect("write scenario report JSON");
        if !quiet {
            println!("\nwrote {path}");
        }
    }
}
