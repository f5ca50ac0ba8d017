//! The benchmark's own tests, at tiny sizes: every metric named in
//! `BENCHMARK.json` is printed with its unit, count metrics repeat
//! exactly, and the correctness gate is live.

use std::path::{Path, PathBuf};
use stoneage_wire::{parse, Value};

use perfbench::{run, Config, Scale, Workload, END_TO_END, PER_LAYER};

fn out_dir(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../.bench_build/perfbench-tests")
        .join(name)
}

fn tiny(workload: Workload, trace: bool, name: &str) -> Config {
    Config {
        workload,
        seed: 3,
        seconds: 0.01,
        trace,
        scale: Scale::Tiny,
        out_dir: out_dir(name),
        tamper_expected: false,
    }
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn listed(key: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = parse(&text).expect("BENCHMARK.json is JSON");
    doc.get(key)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn own(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

/// The metrics object of a result line, as `(name, value, unit)`.
fn printed(line: &str) -> (Value, Vec<(String, f64, String)>) {
    let doc = parse(line).expect("the result line is JSON");
    let metrics = match doc.get("metrics") {
        Some(Value::Object(fields)) => fields
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Value::as_f64).expect("a value");
                let unit = m.get("unit").and_then(Value::as_str).expect("a unit");
                (name.clone(), value, unit.to_string())
            })
            .collect(),
        _ => panic!("no metrics object in {line}"),
    };
    (doc, metrics)
}

#[test]
fn metric_tables_match_benchmark_json() {
    assert_eq!(own(END_TO_END), listed("end_to_end"));
    assert_eq!(own(PER_LAYER), listed("per_layer"));
}

#[test]
fn every_end_to_end_metric_is_printed_with_its_unit_and_is_positive() {
    for workload in Workload::ALL {
        let result = run(&tiny(workload, false, "e2e"));
        let (doc, metrics) = printed(&result.result_line(false));
        assert_eq!(doc.get("correct"), Some(&Value::Bool(true)), "{workload:?}");
        assert!(doc.get("attempted").and_then(Value::as_i64).unwrap() >= 1);
        let names: Vec<(String, String)> = metrics
            .iter()
            .map(|(n, _, u)| (n.clone(), u.clone()))
            .collect();
        assert_eq!(names, own(END_TO_END), "{workload:?}");
        for (name, value, _) in &metrics {
            assert!(*value > 0.0, "{workload:?}: {name} = {value}");
        }
    }
}

#[test]
fn every_per_layer_metric_is_printed_and_counts_repeat() {
    let counts = [
        "pipeline.rounds",
        "pipeline.messages",
        "protocols.delta_calls",
        "core.synchronized_delta_calls",
        "async.steps",
        "async.deliveries",
        "adversary.draws",
        "churn.events_applied",
        "faults.evaluated",
        "faults.duplicated",
        "snapshot.frames_per_job",
    ];
    for workload in Workload::ALL {
        let first = run(&tiny(workload, true, "layers"));
        let (doc, metrics) = printed(&first.result_line(true));
        assert_eq!(doc.get("correct"), Some(&Value::Bool(true)), "{workload:?}");
        let names: Vec<(String, String)> = metrics
            .iter()
            .map(|(n, _, u)| (n.clone(), u.clone()))
            .collect();
        assert_eq!(names, own(PER_LAYER), "{workload:?}");
        assert!(first.metrics["trace_overhead"] > 0.0, "{workload:?}");
        let second = run(&tiny(workload, true, "layers"));
        for name in counts {
            assert_eq!(
                first.metrics.get(name),
                second.metrics.get(name),
                "{workload:?}: {name} must repeat exactly"
            );
        }
    }
}

#[test]
fn traced_sync_run_uses_two_workers() {
    let result = run(&tiny(Workload::SyncMis, true, "workers"));
    assert_eq!(result.metrics["parbuf.workers_used"], 2.0);
    assert!(result.metrics["parbuf.speedup"] > 0.0);
    assert_eq!(result.gate.failed, 0);
}

#[test]
fn a_wrong_expected_fingerprint_fails_the_gate() {
    // The 2-worker fingerprints are checked in the traced sync run, the
    // job fingerprints in every service run.
    for (workload, trace) in [(Workload::SyncMis, true), (Workload::Service, false)] {
        let mut cfg = tiny(workload, trace, "tamper");
        cfg.tamper_expected = true;
        let result = run(&cfg);
        assert!(result.gate.failed > 0, "{workload:?}");
        assert!(result.gate.failed_frac() > 0.0, "{workload:?}");
        let (doc, _) = printed(&result.result_line(trace));
        assert_eq!(
            doc.get("correct"),
            Some(&Value::Bool(false)),
            "{workload:?}"
        );
    }
}

#[test]
fn refuses_to_run_when_an_override_is_set() {
    for var in perfbench::FORBIDDEN_ENV {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args([
                "--workload",
                "sync-mis",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "0",
            ])
            .env(var, "fused")
            .output()
            .expect("the benchmark binary runs");
        assert_eq!(out.status.code(), Some(2), "{var}");
        assert!(out.stdout.is_empty(), "{var}: no result may be printed");
    }
}
