//! The verifier: golden and repeat byte-comparison, the paper
//! headlines, engine invariants, and the tally behind `failed_frac`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use meryn_core::{Platform, RunReport};
use meryn_scenario::{paper_range, ScenarioReport};

/// Counts verified runs: each run that panicked or failed a check is a
/// failure, and `failed_frac` is `failed / attempted`.
#[derive(Debug, Default)]
pub struct Tally {
    /// Runs attempted.
    pub attempted: u64,
    /// Runs that panicked or failed verification.
    pub failed: u64,
}

impl Tally {
    /// Runs `run` (the simulation and its checks) as one attempt. A
    /// panic or an `Err` counts as a failure and is reported on stderr.
    pub fn run<T>(&mut self, what: &str, run: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        let outcome = catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|panic| {
            let msg = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic payload");
            Err(format!("panicked: {msg}"))
        });
        outcome
            .map_err(|e| {
                self.failed += 1;
                eprintln!("perfbench: FAILED {what}: {e}");
            })
            .ok()
    }

    /// `failed / attempted` (0 before any attempt).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Byte-compares `actual` with `expected`, naming the first difference.
pub fn same_bytes(actual: &str, expected: &str) -> Result<(), String> {
    let (a, e) = (actual.as_bytes(), expected.as_bytes());
    match a.iter().zip(e).position(|(x, y)| x != y) {
        None if a.len() == e.len() => Ok(()),
        None => Err(format!(
            "lengths differ ({} vs {} bytes expected)",
            a.len(),
            e.len()
        )),
        Some(at) => {
            let line = 1 + e[..at].iter().filter(|&&b| b == b'\n').count();
            Err(format!("first difference at byte {at} (line {line})"))
        }
    }
}

/// The golden a report must equal: only the shipped seeds (`None`)
/// reproduce `scenarios/goldens/`; any other seed falls back to the
/// repeat and invariant checks.
pub fn golden_for_seed(seed: Option<u64>, golden: &str) -> Option<&str> {
    seed.is_none().then_some(golden)
}

/// Checks one report of spec `stem`: against its golden when one
/// applies, and against the first repeat of the same inputs when this
/// is a later repeat.
pub fn check_report(
    stem: &str,
    json: &str,
    golden: Option<&str>,
    first_repeat: Option<&str>,
) -> Result<(), String> {
    if let Some(golden) = golden {
        same_bytes(json, golden).map_err(|e| {
            format!("{stem}: report differs from scenarios/goldens/{stem}.json: {e}")
        })?;
    }
    if let Some(first) = first_repeat {
        same_bytes(json, first)
            .map_err(|e| format!("{stem}: repeat differs from the first: {e}"))?;
    }
    Ok(())
}

/// Serializes a report for byte comparison.
pub fn run_report_json(report: &RunReport) -> Result<String, String> {
    serde_json::to_string(report).map_err(|e| format!("serialize run report: {e:?}"))
}

/// The paper headlines on the shipped `paper` spec: Fig 5 peak cloud
/// VMs 15 (meryn) and 25 (static), 35800 u saved, and every Table 1
/// mean inside the paper's range.
pub fn paper_headlines(report: &ScenarioReport) -> Result<(), String> {
    let cmp = report
        .comparison
        .as_ref()
        .ok_or("paper report has no comparison")?;
    if (cmp.peak_cloud_a, cmp.peak_cloud_b) != (15.0, 25.0) {
        return Err(format!(
            "Fig 5 peaks {}/{}, expected 15/25",
            cmp.peak_cloud_a, cmp.peak_cloud_b
        ));
    }
    if cmp.cost_saved_units != 35_800.0 {
        return Err(format!(
            "cost saved {} u, expected 35800 u",
            cmp.cost_saved_units
        ));
    }
    let rows = report
        .table1
        .as_ref()
        .ok_or("paper report has no Table 1")?;
    for row in rows {
        let (lo, hi) = paper_range(&row.case).ok_or(format!("no paper range for {}", row.case))?;
        if !(lo..=hi).contains(&row.mean_s) {
            return Err(format!(
                "Table 1 {}: mean {} s outside {lo}~{hi} s",
                row.case, row.mean_s
            ));
        }
    }
    Ok(())
}

/// Runs a started platform to completion, audits the engine invariants
/// once it drains, and returns the final report.
pub fn audited_run(mut platform: Platform) -> Result<RunReport, String> {
    platform.run_to_completion();
    platform
        .audit_invariants()
        .map_err(|e| format!("invariant broken after drain: {e}"))?;
    Ok(platform.finalize())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::reseed;
    use meryn_scenario::{single_run_start, Scenario};
    use std::path::PathBuf;

    fn repo(rel: &str) -> PathBuf {
        PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/..")).join(rel)
    }

    #[test]
    fn verifier_flags_a_one_byte_golden_corruption() {
        let golden = std::fs::read_to_string(repo("scenarios/goldens/paper.json")).unwrap();
        let mut corrupted = golden.clone().into_bytes();
        let at = corrupted.len() / 2;
        corrupted[at] ^= 0x01;
        let corrupted = String::from_utf8(corrupted).unwrap();
        assert!(check_report("paper", &golden, Some(&golden), None).is_ok());
        let err = check_report("paper", &golden, Some(&corrupted), None).unwrap_err();
        assert!(err.contains(&format!("byte {at}")), "{err}");
        let truncated = &golden[..golden.len() - 1];
        assert!(check_report("paper", &golden, Some(truncated), None).is_err());
    }

    #[test]
    fn non_shipped_seed_falls_back_to_repeat_and_invariant_checks() {
        let golden = "{\"golden\": 1}\n";
        assert_eq!(golden_for_seed(None, golden), Some(golden));
        let reference = golden_for_seed(Some(3), golden);
        assert_eq!(reference, None);
        // A report that differs from the golden passes on a non-shipped
        // seed as long as it repeats byte for byte ...
        let report = "{\"other\": 2}\n";
        assert!(check_report("s", report, reference, Some(report)).is_ok());
        // ... and fails when a repeat differs.
        assert!(check_report("s", report, reference, Some(golden)).is_err());
        // The invariant audit runs on the re-seeded spec.
        let shipped = Scenario::load(repo("scenarios/paper.json")).unwrap();
        let seeded = reseed(&shipped, Some(3));
        assert_ne!(seeded.sweep.base_seed, shipped.sweep.base_seed);
        let platform = single_run_start(&seeded).unwrap();
        let report = audited_run(platform).expect("audit passes on a derived seed");
        assert_eq!(report.apps_count(), 65);
    }

    #[test]
    fn tally_counts_errors_and_panics_as_failures() {
        let mut tally = Tally::default();
        assert_eq!(tally.run("ok", || Ok(1)), Some(1));
        assert_eq!(tally.run("err", || Err::<(), _>("bad".into())), None);
        assert_eq!(
            tally.run("panic", || -> Result<(), String> { panic!("boom") }),
            None
        );
        assert_eq!((tally.attempted, tally.failed), (3, 2));
        assert!((tally.failed_frac() - 2.0 / 3.0).abs() < 1e-12);
    }
}
