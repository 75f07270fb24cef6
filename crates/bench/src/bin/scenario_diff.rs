//! Compares two `ScenarioReport` JSON files and prints per-metric
//! deltas — or regenerates the shipped goldens and reports what moved.
//!
//! ```text
//! cargo run --release -p meryn-bench --bin scenario-diff -- a.json b.json
//! cargo run --release -p meryn-bench --bin scenario-diff -- --regen [goldens-dir]
//! ```
//!
//! `--regen` re-runs every spec file `scenarios/*.json` (relative to
//! the working directory — the set the golden test and CI walk) and
//! rewrites `<goldens-dir>/<stem>.json`, printing the per-metric delta
//! of each golden that changed. Run it once per intentional behaviour
//! change and commit the summary with the rewrite — that is the
//! repository's re-baseline policy.
//!
//! Exit status: `0` when the reports are identical (no golden moved),
//! `1` when any metric differs (CI gates on this — e.g. the
//! golden-report comparison), `2` on usage or I/O errors. Numeric
//! leaves print `a → b (Δ)`; structural mismatches (missing keys,
//! different lengths or kinds) are reported at their JSON path.

use meryn_scenario::{publish_atomically, run_scenario, Scenario};
use serde_json::Value;

fn usage() -> ! {
    eprintln!("usage: scenario-diff <a.json> <b.json> [--quiet]");
    eprintln!("       scenario-diff --regen [goldens-dir] [--quiet]");
    std::process::exit(2);
}

/// One observed difference at a JSON path.
struct Diff {
    path: String,
    detail: String,
}

fn fmt_leaf(v: &Value) -> String {
    match v {
        Value::Null => "null".to_owned(),
        Value::Bool(b) => b.to_string(),
        Value::I64(n) => n.to_string(),
        Value::U64(n) => n.to_string(),
        Value::F64(n) => format!("{n}"),
        Value::Str(s) => format!("{s:?}"),
        Value::Seq(s) => format!("[…; {}]", s.len()),
        Value::Map(m) => format!("{{…; {}}}", m.len()),
    }
}

/// Numeric view of a leaf, when it has one.
fn as_number(v: &Value) -> Option<f64> {
    match v {
        Value::I64(n) => Some(*n as f64),
        Value::U64(n) => Some(*n as f64),
        Value::F64(n) => Some(*n),
        _ => None,
    }
}

fn walk(path: &str, a: &Value, b: &Value, out: &mut Vec<Diff>) {
    match (a, b) {
        (Value::Map(ma), Value::Map(mb)) => {
            for (k, va) in ma {
                match serde::value::get(mb, k) {
                    Some(vb) => walk(&format!("{path}.{k}"), va, vb, out),
                    None => out.push(Diff {
                        path: format!("{path}.{k}"),
                        detail: format!("only in a: {}", fmt_leaf(va)),
                    }),
                }
            }
            for (k, vb) in mb {
                if serde::value::get(ma, k).is_none() {
                    out.push(Diff {
                        path: format!("{path}.{k}"),
                        detail: format!("only in b: {}", fmt_leaf(vb)),
                    });
                }
            }
        }
        (Value::Seq(sa), Value::Seq(sb)) => {
            if sa.len() != sb.len() {
                out.push(Diff {
                    path: path.to_owned(),
                    detail: format!("length {} vs {}", sa.len(), sb.len()),
                });
            }
            for (i, (va, vb)) in sa.iter().zip(sb).enumerate() {
                walk(&format!("{path}[{i}]"), va, vb, out);
            }
        }
        _ => {
            if a == b {
                return;
            }
            let detail = match (as_number(a), as_number(b)) {
                (Some(na), Some(nb)) => {
                    format!("{} → {} (Δ {:+})", fmt_leaf(a), fmt_leaf(b), nb - na)
                }
                _ => format!("{} → {}", fmt_leaf(a), fmt_leaf(b)),
            };
            out.push(Diff {
                path: path.to_owned(),
                detail,
            });
        }
    }
}

fn load(path: &str) -> Value {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    match serde_json::from_str::<Value>(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {path} is not valid JSON: {e}");
            std::process::exit(2);
        }
    }
}

/// Where `--regen` finds the spec files.
const SPECS_DIR: &str = "scenarios";

/// The stems of the spec files under [`SPECS_DIR`], sorted.
fn spec_stems() -> Vec<String> {
    let entries = match std::fs::read_dir(SPECS_DIR) {
        Ok(entries) => entries,
        Err(e) => {
            eprintln!("error: cannot list {SPECS_DIR}/ (run from the repository root): {e}");
            std::process::exit(2);
        }
    };
    let mut stems: Vec<String> = entries
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            if path.extension()? != "json" {
                return None;
            }
            Some(path.file_stem()?.to_str()?.to_owned())
        })
        .collect();
    stems.sort();
    stems
}

/// `--regen`: rewrite the golden of every spec file, printing a
/// per-metric delta summary of the ones that moved.
fn regen(dir: &str, quiet: bool) -> ! {
    let mut rewritten = 0usize;
    for stem in spec_stems() {
        let path = format!("{dir}/{stem}.json");
        let fresh = match Scenario::load(format!("{SPECS_DIR}/{stem}.json"))
            .and_then(|scenario| run_scenario(&scenario))
        {
            Ok(report) => report.to_json(),
            Err(e) => {
                eprintln!("error: {stem}: {e}");
                std::process::exit(2);
            }
        };
        let old_text = std::fs::read_to_string(&path).ok();
        if old_text.as_deref() == Some(fresh.as_str()) {
            if !quiet {
                println!("unchanged: {path}");
            }
            continue;
        }
        rewritten += 1;
        if let Err(e) = publish_atomically(&path, &fresh) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(2);
        }
        if quiet {
            continue;
        }
        match old_text {
            None => println!("new golden: {path}"),
            Some(old) => {
                let (a, b): (Value, Value) =
                    match (serde_json::from_str(&old), serde_json::from_str(&fresh)) {
                        (Ok(a), Ok(b)) => (a, b),
                        _ => {
                            println!("rewritten (old golden was not valid JSON): {path}");
                            continue;
                        }
                    };
                let mut diffs = Vec::new();
                walk("$", &a, &b, &mut diffs);
                println!("rewritten: {path} — {} metric(s) moved:", diffs.len());
                for d in &diffs {
                    println!("  {:<60} {}", d.path, d.detail);
                }
            }
        }
    }
    if !quiet {
        println!(
            "{rewritten} golden(s) rewritten — verify with `cargo test --release -q` \
             (tests/golden_scenarios.rs byte-compares every spec)"
        );
    }
    std::process::exit(if rewritten == 0 { 0 } else { 1 });
}

fn main() {
    let mut paths = Vec::new();
    let mut quiet = false;
    let mut do_regen = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quiet" => quiet = true,
            "--regen" => do_regen = true,
            other if !other.starts_with("--") => paths.push(other.to_owned()),
            _ => usage(),
        }
    }
    if do_regen {
        let dir = match paths.as_slice() {
            [] => "scenarios/goldens",
            [dir] => dir.as_str(),
            _ => usage(),
        };
        regen(dir, quiet);
    }
    let [a_path, b_path] = paths.as_slice() else {
        usage()
    };
    let a = load(a_path);
    let b = load(b_path);
    let mut diffs = Vec::new();
    walk("$", &a, &b, &mut diffs);
    if diffs.is_empty() {
        if !quiet {
            println!("identical: {a_path} == {b_path}");
        }
        return;
    }
    if !quiet {
        println!("{} metric(s) differ ({a_path} vs {b_path}):", diffs.len());
        for d in &diffs {
            println!("  {:<60} {}", d.path, d.detail);
        }
    }
    std::process::exit(1);
}
