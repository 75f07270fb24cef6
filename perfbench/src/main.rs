//! Host-time benchmark of the Meryn simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload datacenter-month [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` it measures a workload end to end through
//! `run_scenario`, verifying every report, and prints `wall_s`,
//! `apps_per_s`, `setup_s` and `peak_rss_mib`. With `--trace 1` it times
//! the engine's public calls one by one instead and prints the per-layer
//! metrics. The last stdout line is the JSON result; the exit code is
//! nonzero when any verification failed. Run it from the repository root.

// Wall-clock time is this program's measurement.
#![allow(clippy::disallowed_methods)]

mod micro;
mod stats;
mod suite;
mod traced;
mod verify;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use meryn_scenario::{run_scenario, single_run_start};

use crate::stats::median;
use crate::suite::{Spec, Workload};
use crate::verify::{audited_run, check_report, golden_for_seed, paper_headlines, Tally};

/// End-to-end metrics (`--trace 0`): name and unit.
const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("apps_per_s", "apps/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (`--trace 1`): name and unit, in output order.
const PER_LAYER: [(&str, &str); 32] = [
    ("workloads.gen_ns_per_sub", "ns"),
    ("core.deploy_ms", "ms"),
    ("core.enqueue_ms", "ms"),
    ("core.run_s", "s"),
    ("core.ns_per_app", "ns"),
    ("core.events_per_s", "1/s"),
    ("core.parallel_runs", "count"),
    ("core.control_events", "count"),
    ("core.slice_ms.p50", "ms"),
    ("core.slice_ms.p99", "ms"),
    ("core.slice_ms.max", "ms"),
    ("core.slice_count", "count"),
    ("core.finalize_ms", "ms"),
    ("core.checkpoint_ms", "ms"),
    ("core.restore_ms", "ms"),
    ("core.checkpoint_bytes", "bytes"),
    ("protocol.select_ns.vcs-3", "ns"),
    ("protocol.select_ns.vcs-64", "ns"),
    ("protocol.select_ns.vcs-1024", "ns"),
    ("sim.earliest_key_ns.q-4", "ns"),
    ("sim.earliest_key_ns.q-65", "ns"),
    ("sim.earliest_key_ns.q-1025", "ns"),
    ("sim.queue_hold_ns.n-1k", "ns"),
    ("sim.queue_hold_ns.n-100k", "ns"),
    ("scenario.spec_ms.paper", "ms"),
    ("scenario.spec_ms.high-load", "ms"),
    ("scenario.spec_ms.cheap-cloud", "ms"),
    ("scenario.spec_ms.no-suspension", "ms"),
    ("scenario.spec_ms.deadline-aware", "ms"),
    ("scenario.spec_ms.chaos-datacenter", "ms"),
    ("scenario.spec_ms.many-vc", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// Worker threads every measurement runs with (`nproc` is recorded beside
/// it). On a small shared host the hypervisor now and then takes one vCPU
/// away; a fan-out that needs every vCPU at once then stalls, which tripled
/// `wall_s` on two threads for minutes at a time, while single-threaded
/// set-up timings in the same runs did not move.
const WORKER_THREADS: usize = 1;

/// Fewest timed repeats of a workload, however long they take.
const MIN_REPEATS: usize = 3;
/// Set-up is repeated at least this often and for at least
/// [`SETUP_MIN_TIME`] (capped at [`SETUP_MAX_REPEATS`]); `setup_s` is
/// the median.
const SETUP_MIN_REPEATS: usize = 5;
const SETUP_MIN_TIME: Duration = Duration::from_secs(2);
const SETUP_MAX_REPEATS: usize = 5001;

/// Metrics in output order, with their units.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Appends one metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_owned(), value, unit));
    }

    /// The `(name, unit)` pairs recorded so far.
    fn names(&self) -> Vec<(&str, &str)> {
        self.0.iter().map(|(n, _, u)| (n.as_str(), *u)).collect()
    }
}

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    /// Set in the child process that runs the verification legs.
    verify_only: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <datacenter-month|hyperscale-quarter|paper-suite> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// The flag that makes the process run only the verification legs.
const VERIFY_ONLY: &str = "--verify-only";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10.0, false);
    let mut verify_only = false;
    while let Some(flag) = args.next() {
        if flag == VERIFY_ONLY {
            verify_only = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = value.parse::<f64>().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        verify_only,
    })
}

/// The verification legs: every shipped spec against its golden (plus
/// the paper headlines), then each re-seeded spec's first variant run to
/// completion with its invariants audited.
fn verification_legs(specs: &[Spec], tally: &mut Tally) {
    for spec in specs {
        tally.run(&format!("{} golden", spec.stem), || {
            let report = run_scenario(&spec.shipped).map_err(|e| e.to_string())?;
            check_report(spec.stem, &report.to_json(), Some(&spec.golden), None)?;
            if spec.stem == "paper" {
                paper_headlines(&report)?;
            }
            Ok(())
        });
    }
    for spec in specs {
        tally.run(&format!("{} invariants", spec.stem), || {
            audited_run(single_run_start(&spec.seeded).map_err(|e| e.to_string())?).map(drop)
        });
    }
}

/// Prefix of the line a verification process ends with.
const VERIFY_LINE: &str = "perfbench-verify";

/// Runs [`verification_legs`] in a child process and returns its peak
/// RSS in MiB. The child does the same work on every run, so its
/// high-water mark does not depend on the number of timed repeats.
fn verify_in_child(args: &Args, tally: &mut Tally) -> f64 {
    let child = tally.run("verification process", || {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut cmd = std::process::Command::new(exe);
        cmd.args(["--workload", args.workload.name(), VERIFY_ONLY]);
        if let Some(seed) = args.seed {
            cmd.args(["--seed", &seed.to_string()]);
        }
        let out = cmd
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| e.to_string())?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let fields: Vec<f64> = stdout
            .lines()
            .find_map(|l| l.strip_prefix(VERIFY_LINE))
            .ok_or(format!(
                "verification process ended without a result ({})",
                out.status
            ))?
            .split_whitespace()
            .map(|f| f.parse::<f64>().map_err(|e| format!("{f}: {e}")))
            .collect::<Result<_, _>>()?;
        match fields[..] {
            [attempted, failed, rss_bytes] => Ok((attempted as u64, failed as u64, rss_bytes)),
            _ => Err(format!("malformed verification line: {stdout}")),
        }
    });
    let Some((attempted, failed, rss_bytes)) = child else {
        return f64::NAN;
    };
    tally.attempted += attempted;
    tally.failed += failed;
    rss_bytes / 1_048_576.0
}

/// The end-to-end measurement: set-up repeats, the verification legs in
/// a child process (which also gives `peak_rss_mib`), one warm-up
/// repeat, then timed `run_scenario` repeats on the benchmark seed, each
/// checked byte for byte against the warm-up's reports.
fn end_to_end(specs: &[Spec], args: &Args, tally: &mut Tally) -> Metrics {
    // Set-up: what single_run_start does before the first event.
    let mut setups = Vec::new();
    let started = Instant::now();
    tally.run("set-up", || {
        while setups.len() < SETUP_MIN_REPEATS
            || (started.elapsed() < SETUP_MIN_TIME && setups.len() < SETUP_MAX_REPEATS)
        {
            let mut total = 0.0;
            for spec in specs {
                let start = Instant::now();
                let platform = single_run_start(&spec.seeded).map_err(|e| e.to_string())?;
                total += start.elapsed().as_secs_f64();
                drop(platform);
            }
            setups.push(total);
        }
        Ok(())
    });

    let peak_rss_mib = verify_in_child(args, tally);

    let submissions: u64 = specs
        .iter()
        .filter_map(|s| {
            tally.run(&format!("{} size", s.stem), || {
                suite::submissions_per_report(&s.seeded).map_err(|e| e.to_string())
            })
        })
        .sum();
    let mut walls = Vec::new();
    let mut firsts: Vec<Option<String>> = vec![None; specs.len()];
    let mut started = Instant::now();
    // Repeat 0 is the untimed warm-up.
    for repeat in 0.. {
        if walls.len() >= MIN_REPEATS && started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        let mut wall = 0.0;
        for (spec, first) in specs.iter().zip(&mut firsts) {
            tally.run(&format!("{} repeat {repeat}", spec.stem), || {
                let start = Instant::now();
                let report = run_scenario(&spec.seeded).map_err(|e| e.to_string())?;
                wall += start.elapsed().as_secs_f64();
                let json = report.to_json();
                check_report(
                    spec.stem,
                    &json,
                    golden_for_seed(args.seed, &spec.golden),
                    first.as_deref(),
                )?;
                first.get_or_insert(json);
                Ok(())
            });
        }
        if repeat == 0 {
            started = Instant::now();
        } else {
            walls.push(wall);
        }
    }

    let wall_s = median(&walls);
    let setup_s = if setups.is_empty() {
        f64::NAN
    } else {
        median(&setups)
    };
    println!(
        "perfbench: wall_s median of {} repeats (min {:.4}, max {:.4}); setup_s median of {} \
         set-ups; {} submissions per repeat",
        walls.len(),
        stats::quantile(&walls, 0.0),
        stats::quantile(&walls, 1.0),
        setups.len(),
        submissions
    );
    let mut out = Metrics::default();
    out.push("wall_s", wall_s, "s");
    out.push("apps_per_s", submissions as f64 / wall_s, "apps/s");
    out.push("setup_s", setup_s, "s");
    out.push("peak_rss_mib", peak_rss_mib, "MiB");
    out
}

/// FNV-1a over the sources the benchmark builds and reads, for runs
/// made outside a git checkout.
fn source_digest(root: &Path) -> u64 {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.lock")];
    for dir in ["crates", "shims", "scenarios", "perfbench/src"] {
        walk(&root.join(dir), &mut files);
    }
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for path in files {
        let bytes = std::fs::read(&path).unwrap_or_default();
        for b in path.to_string_lossy().bytes().chain(bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// The commit being measured: git HEAD when there is one, else a digest
/// of the source tree.
fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let id = match head.trim().strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference)).unwrap_or_default(),
        None => head,
    };
    match id.trim() {
        "" => format!("tree-{:016x}", source_digest(root)),
        id => id.to_owned(),
    }
}

/// Host facts every result carries: results from different hosts are
/// not comparable.
fn host_facts(root: &Path) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let rustc =
        std::process::Command::new(std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()))
            .arg("-V")
            .output()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map_or_else(|| "unknown".to_owned(), |v| v.trim().to_owned());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"nproc\": {nproc}, \"worker_threads\": {}, \"cpu\": {cpu:?}, \"rustc\": {rustc:?}, \
         \"commit\": {:?}}}",
        rayon::current_num_threads(),
        commit(root)
    )
}

/// A JSON number, or `null` for a value that could not be measured.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_owned()
    }
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
fn result_line(tally: &Tally, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0,
        tally.attempted,
        tally.failed
    );
    for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}{name:?}: {{\"value\": {}, \"unit\": {unit:?}}}",
            json_number(*value)
        );
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    rayon::ThreadPoolBuilder::new()
        .num_threads(WORKER_THREADS)
        .build()
        .expect("a fixed-size pool always builds")
        .install(|| measure(&args))
}

/// Loads the workload, runs the requested measurement and prints the
/// result line.
fn measure(args: &Args) -> ExitCode {
    // The traced run deploys platforms itself, so the extension policies
    // `run_scenario` registers (e.g. `deadline-aware`) must exist first.
    meryn_scenario::policies::install();
    let root = Path::new(".");
    let specs = match suite::load(root, args.workload, args.seed) {
        Ok(specs) => specs,
        Err(e) => {
            eprintln!(
                "perfbench: cannot load the workload's specs (run from the repository root): {e}"
            );
            return ExitCode::from(2);
        }
    };
    let mut tally = Tally::default();
    if args.verify_only {
        verification_legs(&specs, &mut tally);
        let rss = meryn_scenario::bench::peak_rss_bytes().map_or(f64::NAN, |b| b as f64);
        println!("{VERIFY_LINE} {} {} {rss}", tally.attempted, tally.failed);
        return ExitCode::SUCCESS;
    }
    println!("perfbench host {}", host_facts(root));
    let metrics = if args.trace {
        let paper_suite = match args.workload {
            Workload::PaperSuite => None,
            _ => Some(suite::load(root, Workload::PaperSuite, args.seed)),
        };
        let paper_suite = match paper_suite.transpose() {
            Ok(loaded) => loaded,
            Err(e) => {
                eprintln!("perfbench: cannot load the paper-suite specs: {e}");
                return ExitCode::from(2);
            }
        };
        let mut out = Metrics::default();
        traced::run(
            &specs,
            paper_suite.as_deref().unwrap_or(&specs),
            &mut tally,
            &mut out,
        );
        out
    } else {
        end_to_end(&specs, args, &mut tally)
    };
    let expected: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    assert_eq!(
        metrics.names(),
        expected,
        "the benchmark must report exactly its declared metrics"
    );
    println!(
        "perfbench {}: failed_frac {} ({} of {} runs failed verification); worker threads {}",
        args.workload.name(),
        tally.failed_frac(),
        tally.failed,
        tally.attempted,
        rayon::current_num_threads()
    );
    println!("{}", result_line(&tally, &metrics));
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_are_well_formed_and_declared() {
        let manifest =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let all: Vec<(&str, &str)> = END_TO_END.iter().chain(&PER_LAYER).copied().collect();
        for (name, unit) in &all {
            assert!(valid_name(name), "{name} must match [A-Za-z0-9_.-]+");
            assert!(
                manifest.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
        // The gated workloads are a subset: hyperscale-quarter is too
        // noisy on a small shared host to hold a bound (see README.md).
        let gated = Workload::ALL
            .iter()
            .filter(|w| manifest.contains(&format!("\"name\": \"{}\"", w.name())))
            .count();
        assert!(
            gated >= 2,
            "BENCHMARK.json must gate at least two workloads"
        );
        let declared = manifest.matches("\"name\":").count();
        assert_eq!(
            declared,
            all.len() + gated,
            "BENCHMARK.json declares names the benchmark does not report"
        );
        assert!(!valid_name("core.slice ms") && !valid_name(".p99") && !valid_name(""));
    }

    #[test]
    fn result_line_carries_every_metric_with_its_unit() {
        let mut tally = Tally::default();
        tally.run("ok", || Ok(()));
        let mut m = Metrics::default();
        m.push("wall_s", 1.25, "s");
        m.push("peak_rss_mib", f64::NAN, "MiB");
        assert_eq!(
            result_line(&tally, &m),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"wall_s\": \
             {\"value\": 1.25, \"unit\": \"s\"}, \"peak_rss_mib\": {\"value\": null, \"unit\": \"MiB\"}}}"
        );
    }

    #[test]
    fn args_parse_and_reject() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(str::to_owned));
        let a = parse("--workload paper-suite --seed 3 --seconds 2 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::PaperSuite, Some(3), 2.0, true)
        );
        assert_eq!(parse("--workload hyperscale-quarter").unwrap().seed, None);
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seed 3").is_err());
        assert!(parse("--workload paper-suite --trace 2").is_err());
        assert!(parse("--workload paper-suite --seconds").is_err());
    }
}
