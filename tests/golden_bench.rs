//! Golden-output tests: the headline numbers recorded in
//! `BENCH_seed.json` — Figure 5's peak cloud VMs (15 vs 25, matching the
//! paper), Figure 6's workload cost saved (35800 u), and Table 1's mean
//! processing times — must keep reproducing from the shared sweep
//! harness. The baseline file is parsed (not hard-coded) so the snapshot
//! and the assertion can never drift apart.

use meryn_core::report::compare;
use meryn_core::RunReport;
use meryn_scenario::sweep::{case_sweep, fanout, DEFAULT_BASE_SEED};
use meryn_scenario::{run_paper, TABLE1_CASES};
use serde_json::Value;

fn baseline() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCH_seed.json");
    let text = std::fs::read_to_string(path).expect("BENCH_seed.json readable");
    serde_json::from_str(&text).expect("BENCH_seed.json parses")
}

fn paper_runs() -> Vec<RunReport> {
    fanout(vec!["meryn", "static"], |mode| {
        run_paper(mode, DEFAULT_BASE_SEED)
    })
}

#[test]
fn fig5_peak_vms_match_recorded_baseline() {
    let golden = baseline();
    let runs = paper_runs();
    for (key, report) in [("meryn", &runs[0]), ("static", &runs[1])] {
        let entry = golden
            .get("fig5")
            .and_then(|f| f.get(key))
            .unwrap_or_else(|| panic!("fig5.{key} present in baseline"));
        let peak_cloud = entry.get("peak_cloud_vms").and_then(Value::as_f64).unwrap();
        let peak_private = entry
            .get("peak_private_vms")
            .and_then(Value::as_f64)
            .unwrap();
        assert_eq!(
            report.peak_cloud, peak_cloud,
            "{key}: peak cloud VMs drifted from baseline"
        );
        assert_eq!(
            report.peak_private, peak_private,
            "{key}: peak private VMs drifted from baseline"
        );
    }
    // The paper's headline: 15 cloud VMs under Meryn vs 25 under static.
    assert_eq!(runs[0].peak_cloud, 15.0);
    assert_eq!(runs[1].peak_cloud, 25.0);
}

#[test]
fn fig6_cost_saved_matches_recorded_baseline() {
    let golden = baseline();
    let recorded = golden
        .get("paper_workload_comparison")
        .and_then(|c| c.get("cost_saved_units"))
        .and_then(Value::as_f64)
        .expect("cost_saved_units recorded");
    let runs = paper_runs();
    let cmp = compare(&runs[0].headline(), &runs[1].headline());
    let saved = cmp.cost_saved.as_units_f64();
    assert!(
        (saved - recorded).abs() < 0.5,
        "cost saved drifted: harness reproduces {saved} u, baseline records {recorded} u"
    );
    assert_eq!(recorded, 35800.0, "headline snapshot itself changed");
}

#[test]
fn table1_means_match_recorded_baseline() {
    let golden = baseline();
    let table = golden.get("table1").expect("table1 section");
    for case in TABLE1_CASES {
        let key = case.replace([' ', '-'], "_");
        let entry = table
            .get(&key)
            .unwrap_or_else(|| panic!("table1.{key} present in baseline"));
        let recorded_mean = entry.get("mean_s").and_then(Value::as_f64).unwrap();
        let range = entry.get("paper_range_s").and_then(Value::as_seq).unwrap();
        let (lo, hi) = (range[0].as_f64().unwrap(), range[1].as_f64().unwrap());

        let summary = case_sweep(case, DEFAULT_BASE_SEED, 100);
        let mean = summary.mean();
        // The baseline records the mean rounded to one decimal; the sweep
        // is deterministic, so reproduction must land within the rounding.
        assert!(
            (mean - recorded_mean).abs() < 0.051,
            "{case}: harness mean {mean:.3} s drifted from recorded {recorded_mean} s"
        );
        assert!(
            lo <= mean && mean <= hi,
            "{case}: mean {mean:.1} s left the paper range {lo}~{hi} s"
        );
    }
}
