//! Drives the `scenario` binary's checkpoint paths: a missing,
//! truncated, corrupt or wrong-format checkpoint handed to `--resume`
//! must produce a clear diagnostic and exit code 2 — never a panic
//! backtrace — and `--checkpoint` publishes its file atomically.

use std::path::{Path, PathBuf};
use std::process::Command;

use serde_json::Value;

fn scenario_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_scenario"))
}

/// A minimal spec file for the failure-path invocations (the resume
/// paths bail before the workload ever runs). One file per test —
/// the harness runs tests concurrently.
fn spec_path(stem: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("meryn-scenario-bin-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join(format!("{stem}.json"));
    let (_, scenario) = meryn_bench::catalog::shipped()
        .into_iter()
        .next()
        .expect("catalog is non-empty");
    scenario.save(&path).expect("write spec");
    path
}

#[test]
fn resume_from_missing_checkpoint_exits_2_with_diagnostic() {
    let out = scenario_bin()
        .arg(spec_path("missing"))
        .args(["--resume", "/nonexistent/meryn-no-such-checkpoint.json"])
        .output()
        .expect("spawn scenario bin");
    assert_eq!(out.status.code(), Some(2), "missing checkpoint → exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("cannot read checkpoint"),
        "diagnostic names the failure: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "no panic backtrace: {stderr}");
}

#[test]
fn resume_from_garbage_checkpoint_exits_2_with_diagnostic() {
    let spec = spec_path("garbage");
    let garbage = spec.with_file_name("garbage-checkpoint.json");
    std::fs::write(&garbage, "{\"this is\": \"not a checkpoint\"").expect("write garbage");
    let out = scenario_bin()
        .arg(spec)
        .arg("--resume")
        .arg(&garbage)
        .output()
        .expect("spawn scenario bin");
    assert_eq!(out.status.code(), Some(2), "corrupt checkpoint → exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("not a valid engine checkpoint"),
        "diagnostic names the failure: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "no panic backtrace: {stderr}");
}

#[test]
fn checkpoint_to_unwritable_path_exits_2_with_diagnostic() {
    let out = scenario_bin()
        .arg(spec_path("unwritable"))
        .args([
            "--checkpoint",
            "/nonexistent-dir/cp.json",
            "--checkpoint-at",
            "1",
        ])
        .output()
        .expect("spawn scenario bin");
    assert_eq!(out.status.code(), Some(2), "unwritable checkpoint → exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("cannot write checkpoint"),
        "diagnostic names the failure: {stderr}"
    );
}

/// Checkpoints the spec at `stem` one simulated second in and returns
/// the checkpoint's path.
fn write_checkpoint(spec: &Path, stem: &str) -> PathBuf {
    let cp = spec.with_file_name(format!("{stem}-checkpoint.json"));
    let out = scenario_bin()
        .arg(spec)
        .arg("--checkpoint")
        .arg(&cp)
        .args(["--checkpoint-at", "1", "--quiet"])
        .output()
        .expect("spawn scenario bin");
    assert!(out.status.success(), "checkpoint run failed: {out:?}");
    cp
}

/// Resumes `spec` from `cp` and returns (exit code, stderr).
fn resume(spec: &Path, cp: &Path) -> (Option<i32>, String) {
    let out = scenario_bin()
        .arg(spec)
        .arg("--resume")
        .arg(cp)
        .arg("--quiet")
        .output()
        .expect("spawn scenario bin");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn checkpoint_is_published_without_a_leftover_temp_file() {
    let spec = spec_path("publish");
    let cp = write_checkpoint(&spec, "publish");
    assert!(cp.exists(), "checkpoint written");
    let tmp = PathBuf::from(format!("{}.tmp", cp.display()));
    assert!(!tmp.exists(), "the temp file was renamed into place");
    assert_eq!(resume(&spec, &cp).0, Some(0), "checkpoint resumes");
}

/// Writes `fields` as a JSON object named `name` beside `spec`.
fn write_object(spec: &Path, name: &str, fields: Vec<(String, Value)>) -> PathBuf {
    let path = spec.with_file_name(name);
    let json = serde_json::to_string(&Value::Map(fields)).expect("value serializes");
    std::fs::write(&path, json).expect("write checkpoint");
    path
}

#[test]
fn resume_rejects_a_missing_or_mismatched_format_with_exit_2() {
    let spec = spec_path("format");
    let text = std::fs::read_to_string(write_checkpoint(&spec, "format")).expect("read");
    let Ok(Value::Map(fields)) = serde_json::from_str::<Value>(&text) else {
        panic!("a checkpoint is a JSON object");
    };
    assert!(fields.iter().any(|(k, _)| k == "format"));

    // Without the field, as written before it existed.
    let mut unversioned = fields.clone();
    unversioned.retain(|(k, _)| k != "format");
    let (code, stderr) = resume(&spec, &write_object(&spec, "unversioned.json", unversioned));
    assert_eq!(code, Some(2), "missing format → exit 2: {stderr}");
    assert!(
        stderr.contains("not a valid engine checkpoint"),
        "diagnostic names the failure: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "no panic backtrace: {stderr}");

    // Claiming a layout this build does not know.
    let mut future = fields;
    for (k, v) in &mut future {
        if k == "format" {
            *v = Value::U64(999);
        }
    }
    let (code, stderr) = resume(&spec, &write_object(&spec, "future.json", future));
    assert_eq!(code, Some(2), "mismatched format → exit 2: {stderr}");
    assert!(
        stderr.contains("checkpoint format 999"),
        "diagnostic names the format: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "no panic backtrace: {stderr}");
}
