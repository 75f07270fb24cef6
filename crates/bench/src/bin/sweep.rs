//! Replica sweep: runs the paper scenario across many seed-derived
//! replicas in parallel (threaded rayon shim) and reports mean ± std of
//! the headline metrics. A thin wrapper: the paper scenario with the
//! replica count from the command line.
//!
//! ```text
//! cargo run --release -p meryn-bench --bin sweep [replicas] [--json FILE]
//! ```
//!
//! The JSON report is deterministic for a given replica count at any
//! thread count (CI byte-compares the `RAYON_NUM_THREADS=1` and threaded
//! runs), because replica seeds are derived streams and aggregation
//! happens in replica order after an order-preserving collect. It is
//! published atomically; an unwritable path exits 2.

use meryn_scenario::spec::OutputSpec;
use meryn_scenario::{publish_atomically, run_scenario, Scenario};

fn main() {
    let mut replicas: u64 = 30;
    let mut json_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => match args.next() {
                Some(path) => json_path = Some(path),
                None => {
                    eprintln!("error: --json requires a file path");
                    std::process::exit(2);
                }
            },
            other => match other.parse() {
                Ok(n) => replicas = n,
                Err(_) => {
                    eprintln!("error: unrecognized argument {other:?} (usage: sweep [replicas] [--json FILE])");
                    std::process::exit(2);
                }
            },
        }
    }

    let mut s = Scenario::from_json(include_str!("../../../../scenarios/paper.json"))
        .expect("the shipped paper spec parses");
    s.name = "sweep".into();
    s.description.clear();
    s.sweep.replicas = replicas;
    s.outputs = OutputSpec::default();
    let report = run_scenario(&s).expect("paper workload needs no files");

    println!(
        "\n════ Seed sweep — {replicas} replicas per policy (paper workload) \
         ═══════════════════════════════════════"
    );
    println!(
        "{:<8} {:>22} {:>22} {:>12} {:>11}",
        "mode", "completion [s]", "total cost [u]", "peak cloud", "violations"
    );
    for variant in &report.variants {
        let Some(a) = variant.replicas.as_ref() else {
            // `sweep 0`: nothing to aggregate — fall back to the
            // single base-seed run.
            let base = variant.base.as_ref().expect("summary requested");
            println!(
                "{:<8} {:>14.1} (single) {:>14.0} {:>10.0} {:>11}",
                variant.policy,
                base.completion_secs,
                base.total_cost_units,
                base.peak_cloud_vms,
                base.violations,
            );
            continue;
        };
        println!(
            "{:<8} {:>14.1} ± {:<5.1} {:>14.0} ± {:<5.0} {:>6.1} ± {:<3.1} {:>6.2} ± {:<4.2}",
            variant.policy,
            a.completion.mean(),
            a.completion.std_dev(),
            a.cost.mean(),
            a.cost.std_dev(),
            a.peak_cloud.mean(),
            a.peak_cloud.std_dev(),
            a.violations.mean(),
            a.violations.std_dev(),
        );
    }
    println!(
        "\nReading: placement decisions are seed-independent (peak cloud \
         has zero variance); only operation latencies jitter, moving the \
         completion time by a few tens of seconds — the same order as \
         the paper's 2021 s vs 2091 s gap."
    );

    if let Some(path) = json_path {
        if let Err(e) = publish_atomically(&path, &report.to_json()) {
            eprintln!("error: cannot write sweep JSON {path}: {e}");
            std::process::exit(2);
        }
        println!("\nwrote {path}");
    }
}
