//! Per-scenario golden reports.
//!
//! `scenarios/goldens/<name>.json` holds the exact `--json` report
//! bytes of every checked-in spec (recorded at `RAYON_NUM_THREADS=1`;
//! reports are thread-count-independent, so the recording thread count
//! is irrelevant). Every spec must reproduce its golden **byte for
//! byte** — this is the repository-wide regression net that replaced
//! the single paper.json-only golden check, and it is what pinned the
//! engine's shard refactor to the pre-refactor monolith's behaviour.
//!
//! When a behaviour change is intentional, regenerate with:
//!
//! ```text
//! cargo build --release -p meryn-bench --bin scenario-diff
//! target/release/scenario-diff --regen
//! ```
//!
//! and put the printed per-scenario delta summary in the PR
//! description (see `scenarios/README.md` for the re-baseline policy).

use meryn_scenario::{run_scenario, Scenario};
use std::path::PathBuf;

fn repo_path(rel: &str) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/..")).join(rel)
}

/// The stem of every spec file under `scenarios/`, sorted.
fn spec_stems() -> Vec<String> {
    let mut stems: Vec<String> = std::fs::read_dir(repo_path("scenarios"))
        .expect("scenarios/ exists")
        .filter_map(|entry| {
            let path = entry.expect("readable entry").path();
            (path.extension().and_then(|e| e.to_str()) == Some("json"))
                .then(|| path.file_stem().unwrap().to_str().unwrap().to_owned())
        })
        .collect();
    stems.sort();
    stems
}

fn golden_for(stem: &str) -> String {
    let path = repo_path(&format!("scenarios/goldens/{stem}.json"));
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} — record the golden first", path.display()))
}

/// Reproduces `stem`'s golden byte for byte and checks that the human
/// rendering names every variant it ran.
fn reproduce(stem: &str) {
    let spec = Scenario::load(repo_path(&format!("scenarios/{stem}.json"))).expect("spec loads");
    let report = run_scenario(&spec).expect("spec needs no extra files");
    let golden = golden_for(stem);
    assert_eq!(
        report.to_json(),
        golden,
        "{stem}: report drifted from scenarios/goldens/{stem}.json — if intentional, \
         regenerate the golden (see this file's module docs)"
    );
    let rendered = report.render();
    for v in &report.variants {
        assert!(
            rendered.contains(&v.label),
            "{stem}: the rendering never names variant {:?}",
            v.label
        );
    }
}

#[test]
fn every_checked_in_spec_has_a_golden() {
    for stem in spec_stems() {
        assert!(
            repo_path(&format!("scenarios/goldens/{stem}.json")).exists(),
            "scenarios/goldens/{stem}.json missing — every spec ships with its golden"
        );
    }
}

/// Specs whose runs take minutes without optimizations (a simulated
/// month of ~100k submissions; 200k streamed submissions): only the
/// release-only regeneration test below pins them (CI additionally
/// `cmp`s the release binary's report against every golden).
const RELEASE_ONLY: [&str; 2] = ["representative-datacenter", "hyperscale-ci"];

/// Specs with a test of their own below.
const DEDICATED: [&str; 7] = [
    "paper",
    "high-load",
    "cheap-cloud",
    "no-suspension",
    "deadline-aware",
    "many-vc",
    "chaos-datacenter",
];

#[test]
fn paper_reproduces_its_golden() {
    reproduce("paper");
}

#[test]
fn high_load_reproduces_its_golden() {
    reproduce("high-load");
}

#[test]
fn cheap_cloud_reproduces_its_golden() {
    reproduce("cheap-cloud");
}

#[test]
fn no_suspension_reproduces_its_golden() {
    reproduce("no-suspension");
}

#[test]
fn deadline_aware_reproduces_its_golden() {
    reproduce("deadline-aware");
}

#[test]
fn many_vc_reproduces_its_golden() {
    reproduce("many-vc");
}

/// The fault-plane scenario: deterministic crashes, transient lease
/// rejections and an outage window — its golden pins the whole
/// recovery choreography (re-execution, capped backoff, degradation)
/// byte for byte.
#[test]
fn chaos_datacenter_reproduces_its_golden() {
    reproduce("chaos-datacenter");
}

/// Every spec that is neither [`RELEASE_ONLY`] nor [`DEDICATED`] (the
/// figure and ablation specs, and any spec added later) reproduces its
/// golden in any build.
#[test]
fn every_other_spec_reproduces_its_golden() {
    for stem in spec_stems() {
        if !RELEASE_ONLY.contains(&stem.as_str()) && !DEDICATED.contains(&stem.as_str()) {
            reproduce(&stem);
        }
    }
}

/// The `scenario-diff --regen` round-trip: regenerating every golden
/// must be a byte-for-byte no-op against what is checked in. This
/// sweeps *all* specs (future ones included), so a spec added without
/// re-recording — or a golden edited by hand — fails here.
/// Release-only: the sweep includes the [`RELEASE_ONLY`] runs.
#[cfg(not(debug_assertions))]
#[test]
fn regenerating_every_golden_is_a_no_op() {
    for stem in spec_stems() {
        reproduce(&stem);
    }
}
