//! Scenario-spec round-tripping and golden reproduction through the
//! declarative API:
//!
//! * every checked-in `scenarios/*.json` — the only definition of a
//!   shipped spec — deserializes, re-serializes **byte-identically**,
//!   is named after its file and passes [`Scenario::check`];
//! * `run_scenario` on the checked-in paper spec reproduces the
//!   `BENCH_seed.json` goldens — Fig 5 peak cloud VMs 15 vs 25, Fig 6
//!   cost saved 35800 u, Table 1 means — with byte-identical JSON
//!   reports at 1 and N threads.

use meryn_scenario::spec::WorkloadSpec;
use meryn_scenario::{run_scenario, Scenario};
use rayon::ThreadPoolBuilder;
use serde_json::Value;
use std::path::PathBuf;

fn repo_path(rel: &str) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/..")).join(rel)
}

/// Every spec file as `(path, text)`, sorted by path.
fn checked_in_specs() -> Vec<(PathBuf, String)> {
    let mut specs: Vec<(PathBuf, String)> = std::fs::read_dir(repo_path("scenarios"))
        .expect("scenarios/ directory exists")
        .filter_map(|entry| {
            let path = entry.expect("readable dir entry").path();
            (path.extension().and_then(|e| e.to_str()) == Some("json")).then(|| {
                let text = std::fs::read_to_string(&path).expect("readable spec");
                (path, text)
            })
        })
        .collect();
    specs.sort();
    specs
}

#[test]
fn every_checked_in_spec_round_trips_byte_identically() {
    let specs = checked_in_specs();
    assert!(
        specs.len() >= 18,
        "expected the 18 shipped specs, found {}",
        specs.len()
    );
    for (path, text) in specs {
        let scenario =
            Scenario::from_json(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(
            scenario.to_json(),
            text,
            "{}: deserialize → re-serialize is not byte-identical",
            path.display()
        );
    }
}

/// The files are the definitions, so nothing else keeps a spec's name
/// in step with its file or its configs valid.
#[test]
fn shipped_names_match_file_stems() {
    for (path, text) in checked_in_specs() {
        let scenario = Scenario::from_json(&text).expect("spec parses");
        let stem = path.file_stem().unwrap().to_str().unwrap();
        assert_eq!(scenario.name, stem, "{}", path.display());
        scenario
            .check()
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    }
}

fn paper_report_json(threads: usize) -> String {
    let scenario = Scenario::load(repo_path("scenarios/paper.json")).expect("paper spec loads");
    ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("shim pool build is infallible")
        .install(|| {
            run_scenario(&scenario)
                .expect("paper scenario needs no files")
                .to_json()
        })
}

#[test]
fn paper_scenario_reproduces_goldens_at_any_thread_count() {
    let sequential = paper_report_json(1);
    let threaded = paper_report_json(8);
    assert_eq!(
        sequential, threaded,
        "paper scenario report diverged between 1 and 8 threads"
    );

    let report: Value = serde_json::from_str(&sequential).expect("report parses");
    let baseline: Value = serde_json::from_str(
        &std::fs::read_to_string(repo_path("BENCH_seed.json")).expect("baseline readable"),
    )
    .expect("baseline parses");

    // Fig 5: peak cloud VMs 15 (meryn) vs 25 (static).
    let variants = report.get("variants").and_then(Value::as_seq).unwrap();
    let peak = |v: &Value| {
        v.get("base")
            .and_then(|b| b.get("peak_cloud_vms"))
            .and_then(Value::as_f64)
            .unwrap()
    };
    assert_eq!(peak(&variants[0]), 15.0, "Fig 5(a) peak drifted");
    assert_eq!(peak(&variants[1]), 25.0, "Fig 5(b) peak drifted");

    // Fig 6: workload cost saved.
    let saved = report
        .get("comparison")
        .and_then(|c| c.get("cost_saved_units"))
        .and_then(Value::as_f64)
        .unwrap();
    let recorded = baseline
        .get("paper_workload_comparison")
        .and_then(|c| c.get("cost_saved_units"))
        .and_then(Value::as_f64)
        .unwrap();
    assert_eq!(saved, recorded, "cost saved drifted from BENCH_seed.json");
    assert_eq!(recorded, 35800.0, "headline snapshot itself changed");

    // Table 1: means match the recorded baseline (one-decimal rounding).
    let table1 = report.get("table1").and_then(Value::as_seq).unwrap();
    let recorded_table = baseline.get("table1").unwrap();
    assert_eq!(table1.len(), 5);
    for row in table1 {
        let case = row.get("case").and_then(Value::as_str).unwrap();
        let mean = row.get("mean_s").and_then(Value::as_f64).unwrap();
        let key = case.replace([' ', '-'], "_");
        let recorded_mean = recorded_table
            .get(&key)
            .and_then(|e| e.get("mean_s"))
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("table1.{key} recorded in baseline"));
        assert!(
            (mean - recorded_mean).abs() < 0.051,
            "{case}: scenario mean {mean:.3} s drifted from recorded {recorded_mean} s"
        );
    }
}

#[test]
fn non_paper_specs_run_end_to_end() {
    // The other shipped specs stay runnable (trimmed for test budget).
    for (path, text) in checked_in_specs() {
        let mut scenario = Scenario::from_json(&text).expect("spec parses");
        if scenario.name == "paper" {
            continue;
        }
        scenario.sweep.replicas = 0;
        // Generated workloads (representative-datacenter: ~100k subs)
        // are cut down hard — this is a does-it-run check, not a perf
        // run, and debug-mode full runs blow the test budget.
        let expected = match &mut scenario.workload {
            WorkloadSpec::Generated { config, .. } => {
                config.count = 500;
                500
            }
            WorkloadSpec::Paper(params) => params.vc1_apps + params.vc2_apps,
            WorkloadSpec::Explicit { submissions } => submissions.len(),
            WorkloadSpec::TraceFile { .. } => {
                panic!("{}: no shipped spec reads a trace", path.display())
            }
        };
        let stem = scenario.name.clone();
        let report = run_scenario(&scenario).unwrap_or_else(|e| panic!("{stem}: {e}"));
        assert!(!report.variants.is_empty(), "{stem}: no variants");
        for v in &report.variants {
            let base = v.base.as_ref().expect("summary on by default");
            assert_eq!(
                base.apps + base.rejected,
                expected,
                "{stem} {}: lost submissions",
                v.label
            );
        }
    }
}
