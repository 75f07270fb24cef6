//! Drives the `scenario` binary's failure paths: a malformed spec, a
//! missing, truncated, corrupt or wrong-format checkpoint handed to
//! `--resume`, a checkpoint resumed under another spec, or an
//! unwritable output must produce a clear diagnostic and exit code 2 —
//! never a panic backtrace — and `--checkpoint` publishes its file
//! atomically.

use std::path::{Path, PathBuf};
use std::process::Command;

use meryn_scenario::spec::{SweepAxis, WorkloadSpec};
use meryn_scenario::Scenario;
use serde_json::Value;

fn scenario_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_scenario"))
}

/// The shipped paper spec, cut to its two headline runs.
fn small_paper() -> Scenario {
    let mut s = Scenario::load(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/paper.json"
    ))
    .expect("the shipped paper spec loads");
    s.sweep.replicas = 0;
    s.outputs.table1_samples = None;
    s
}

/// One test's own temp directory, removed when the test ends: tests
/// run concurrently, so each writes its specs, checkpoints and reports
/// where no other test looks, and leaves nothing behind.
struct TestDir(PathBuf);

impl TestDir {
    fn new(test: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("meryn-scenario-bin-{}-{test}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TestDir(dir)
    }

    /// Writes `scenario` as `<stem>.json` into the directory.
    fn save_spec(&self, stem: &str, scenario: &Scenario) -> PathBuf {
        let path = self.0.join(format!("{stem}.json"));
        scenario.save(&path).expect("write spec");
        path
    }

    /// A minimal spec file for the failure-path invocations.
    fn spec_path(&self, stem: &str) -> PathBuf {
        self.save_spec(stem, &small_paper())
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs the binary and returns (exit code, stderr).
fn run(cmd: &mut Command) -> (Option<i32>, String) {
    let out = cmd.output().expect("spawn scenario bin");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn malformed_specs_exit_2_with_diagnostic() {
    let dir = TestDir::new("malformed_specs_exit_2_with_diagnostic");
    type Break = fn(&mut Scenario);
    let cases: [(&str, Break, &str); 6] = [
        (
            "empty-axis",
            |s| s.sweep.axes = vec![SweepAxis::PenaltyFactor { values: vec![] }],
            "sweep axis with no values",
        ),
        (
            "short-split",
            |s| {
                s.sweep.axes = vec![SweepAxis::InitialVms {
                    values: vec![vec![50]],
                }]
            },
            "InitialVms split must name one count per VC",
        ),
        (
            "explicit-interarrival",
            |s| {
                s.workload = WorkloadSpec::Explicit {
                    submissions: vec![],
                };
                s.sweep.axes = vec![SweepAxis::InterarrivalSecs { values: vec![1] }];
            },
            "only applies to Paper/Generated workloads",
        ),
        ("no-vcs", |s| s.platform.vcs.clear(), "need at least one VC"),
        (
            "unknown-policy",
            |s| {
                s.sweep.axes = vec![SweepAxis::Policy {
                    values: vec!["meryn".into(), "no-such-policy".into()],
                }]
            },
            "unknown placement policy \"no-such-policy\"",
        ),
        (
            "table1-zero",
            |s| s.outputs.table1_samples = Some(0),
            "outputs.table1_samples must be at least 1",
        ),
    ];
    for (stem, break_spec, diagnostic) in cases {
        let mut scenario = small_paper();
        break_spec(&mut scenario);
        let (code, stderr) = run(scenario_bin().arg(dir.save_spec(stem, &scenario)));
        assert_eq!(code, Some(2), "{stem} → exit 2: {stderr}");
        assert!(
            stderr.contains(diagnostic),
            "{stem}: diagnostic names the failure: {stderr}"
        );
        assert!(
            !stderr.contains("panicked"),
            "{stem}: no panic backtrace: {stderr}"
        );
    }
}

/// A numeric field of a JSON object.
fn u64_field(fields: &[(String, Value)], key: &str) -> u64 {
    match fields.iter().find(|(k, _)| k == key) {
        Some((_, Value::U64(n))) => *n,
        other => panic!("{key} is a count: {other:?}"),
    }
}

#[test]
fn bench_json_reports_raw_queue_pops_beside_credited_events() {
    let dir = TestDir::new("bench_json_reports_raw_queue_pops_beside_credited_events");
    let spec = dir.spec_path("bench");
    let out = spec.with_file_name("bench-report.json");
    let (code, stderr) = run(scenario_bin()
        .arg(&spec)
        .args(["--bench", "--quiet", "--json"])
        .arg(&out));
    assert_eq!(code, Some(0), "bench run succeeds: {stderr}");
    let text = std::fs::read_to_string(&out).expect("bench JSON written");
    let Ok(Value::Map(report)) = serde_json::from_str::<Value>(&text) else {
        panic!("a bench report is a JSON object");
    };
    let Some((_, Value::Seq(variants))) = report.iter().find(|(k, _)| k == "variants") else {
        panic!("a bench report lists its variants");
    };
    assert!(!variants.is_empty());
    for variant in variants {
        let Value::Map(fields) = variant else {
            panic!("a variant is a JSON object");
        };
        let (events, raw) = (u64_field(fields, "events"), u64_field(fields, "raw_events"));
        assert!(
            0 < raw && raw <= events,
            "queue pops {raw} must be positive and at most the {events} credited events"
        );
    }
}

#[test]
fn unwritable_json_path_exits_2_with_diagnostic() {
    let dir = TestDir::new("unwritable_json_path_exits_2_with_diagnostic");
    let (code, stderr) = run(scenario_bin().arg(dir.spec_path("unwritable-json")).args([
        "--quiet",
        "--json",
        "/nonexistent/dir/r.json",
    ]));
    assert_eq!(code, Some(2), "unwritable --json → exit 2: {stderr}");
    assert!(
        stderr.contains("cannot write scenario report /nonexistent/dir/r.json"),
        "diagnostic names the failure: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "no panic backtrace: {stderr}");
}

#[test]
fn resume_from_missing_checkpoint_exits_2_with_diagnostic() {
    let dir = TestDir::new("resume_from_missing_checkpoint_exits_2_with_diagnostic");
    let out = scenario_bin()
        .arg(dir.spec_path("missing"))
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
    let dir = TestDir::new("resume_from_garbage_checkpoint_exits_2_with_diagnostic");
    let spec = dir.spec_path("garbage");
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
    let dir = TestDir::new("checkpoint_to_unwritable_path_exits_2_with_diagnostic");
    let out = scenario_bin()
        .arg(dir.spec_path("unwritable"))
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

#[test]
fn checkpoint_at_past_the_time_range_exits_2_with_diagnostic() {
    let dir = TestDir::new("checkpoint_at_past_the_time_range_exits_2_with_diagnostic");
    let spec = dir.spec_path("overflow");
    let cp = spec.with_file_name("overflow-checkpoint.json");
    // u64::MAX / 1000 + 1 seconds: the first count whose milliseconds
    // overflow the simulated clock.
    let (code, stderr) = run(scenario_bin()
        .arg(&spec)
        .arg("--checkpoint")
        .arg(&cp)
        .args(["--checkpoint-at", "18446744073709552"]));
    assert_eq!(
        code,
        Some(2),
        "overflowing --checkpoint-at → exit 2: {stderr}"
    );
    assert!(
        stderr.contains("error:") && stderr.contains("--checkpoint-at"),
        "diagnostic names the flag: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "no panic backtrace: {stderr}");
    assert!(!cp.exists(), "no checkpoint is written");
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
    run(scenario_bin()
        .arg(spec)
        .arg("--resume")
        .arg(cp)
        .arg("--quiet"))
}

#[test]
fn checkpoint_is_published_without_a_leftover_temp_file() {
    let dir = TestDir::new("checkpoint_is_published_without_a_leftover_temp_file");
    let spec = dir.spec_path("publish");
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
    let dir = TestDir::new("resume_rejects_a_missing_or_mismatched_format_with_exit_2");
    let spec = dir.spec_path("format");
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
    let mut future = fields.clone();
    for (k, v) in &mut future {
        if k == "format" {
            *v = Value::U64(999);
        }
    }
    let (code, stderr) = resume(&spec, &write_object(&spec, "future.json", future.clone()));
    assert_eq!(code, Some(2), "mismatched format → exit 2: {stderr}");
    assert!(
        stderr.contains("checkpoint format 999"),
        "diagnostic names the format: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "no panic backtrace: {stderr}");

    // Layout 3: a full-mode run kept its completed applications in the
    // shards; it wrote no retired records and named the completion
    // instant `agg_completion`. Its number is refused before the rest
    // of the file is read.
    let mut layout_3 = future.clone();
    layout_3.retain(|(k, _)| k != "records");
    for (k, v) in &mut layout_3 {
        match k.as_str() {
            "format" => *v = Value::U64(3),
            "completion" => *k = "agg_completion".to_owned(),
            _ => {}
        }
    }
    let (code, stderr) = resume(&spec, &write_object(&spec, "layout-3.json", layout_3));
    assert_eq!(code, Some(2), "format-3 checkpoint → exit 2: {stderr}");
    assert!(
        stderr.contains("checkpoint format 3"),
        "diagnostic names the format: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "no panic backtrace: {stderr}");

    // Layout 4: the pool and the clouds kept every terminated VM. Its
    // number is refused before the rest of the file is read.
    let mut layout_4 = future.clone();
    for (k, v) in &mut layout_4 {
        if k == "format" {
            *v = Value::U64(4);
        }
    }
    let (code, stderr) = resume(&spec, &write_object(&spec, "layout-4.json", layout_4));
    assert_eq!(code, Some(2), "format-4 checkpoint → exit 2: {stderr}");
    assert!(
        stderr.contains("checkpoint format 4"),
        "diagnostic names the format: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "no panic backtrace: {stderr}");

    // Layout 5: every shard kept its own event queue, so the engine
    // wrote none. Its number is refused before the rest of the file is
    // read.
    let mut layout_5 = future.clone();
    layout_5.retain(|(k, _)| k != "queue");
    for (k, v) in &mut layout_5 {
        if k == "format" {
            *v = Value::U64(5);
        }
    }
    let (code, stderr) = resume(&spec, &write_object(&spec, "layout-5.json", layout_5));
    assert_eq!(code, Some(2), "format-5 checkpoint → exit 2: {stderr}");
    assert!(
        stderr.contains("checkpoint format 5"),
        "diagnostic names the format: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "no panic backtrace: {stderr}");

    // Layout 6: aggregate mode kept Welford running statistics instead
    // of exact integer totals, and full mode kept no totals at all. Its
    // number is refused before the rest of the file is read.
    let mut layout_6 = future.clone();
    for (k, v) in &mut layout_6 {
        match k.as_str() {
            "format" => *v = Value::U64(6),
            "totals" => *k = "aggregate".to_owned(),
            _ => {}
        }
    }
    let (code, stderr) = resume(&spec, &write_object(&spec, "layout-6.json", layout_6));
    assert_eq!(code, Some(2), "format-6 checkpoint → exit 2: {stderr}");
    assert!(
        stderr.contains("checkpoint format 6"),
        "diagnostic names the format: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "no panic backtrace: {stderr}");

    // Layout 2: a bulk-enqueued run kept its pending arrivals in the
    // shard queues and wrote no arrival cursor.
    let mut layout_2 = future;
    for (k, v) in &mut layout_2 {
        match k.as_str() {
            "format" => *v = Value::U64(2),
            "arrivals" => *v = Value::Null,
            _ => {}
        }
    }
    let (code, stderr) = resume(&spec, &write_object(&spec, "layout-2.json", layout_2));
    assert_eq!(code, Some(2), "format-2 checkpoint → exit 2: {stderr}");
    assert!(
        stderr.contains("checkpoint format 2"),
        "diagnostic names the format: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "no panic backtrace: {stderr}");

    // This build's number over a body of another shape (no arrival
    // cursor): it passes the number check and fails the parse.
    let mut misshapen = fields;
    for (k, v) in &mut misshapen {
        if k == "arrivals" {
            *v = Value::Null;
        }
    }
    let (code, stderr) = resume(&spec, &write_object(&spec, "misshapen.json", misshapen));
    assert_eq!(code, Some(2), "misshapen checkpoint → exit 2: {stderr}");
    assert!(
        stderr.contains("not a valid engine checkpoint"),
        "diagnostic names the failure: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "no panic backtrace: {stderr}");
}

#[test]
fn resume_under_another_spec_exits_2_with_diagnostic() {
    let dir = TestDir::new("resume_under_another_spec_exits_2_with_diagnostic");
    let cp = write_checkpoint(&dir.spec_path("foreign-paper"), "foreign");
    // Another platform config: the escalation ablation.
    let escalation = Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/ablation-escalation.json"
    ));
    let (code, stderr) = resume(escalation, &cp);
    assert_eq!(code, Some(2), "foreign config → exit 2: {stderr}");
    assert!(
        stderr.contains("cannot resume ablation-escalation")
            && stderr.contains("platform config differs"),
        "diagnostic names the mismatch: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "no panic backtrace: {stderr}");

    // The same platform with one submission fewer.
    let mut fewer = small_paper();
    let WorkloadSpec::Paper(params) = &mut fewer.workload else {
        unreachable!("paper.json has a Paper workload")
    };
    params.vc1_apps -= 1;
    let (code, stderr) = resume(&dir.save_spec("foreign-fewer", &fewer), &cp);
    assert_eq!(code, Some(2), "foreign workload → exit 2: {stderr}");
    assert!(
        stderr.contains("its workload holds 65 submissions, the variant's 64"),
        "diagnostic names the mismatch: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "no panic backtrace: {stderr}");
}
