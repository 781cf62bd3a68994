//! A tiny-size run of every workload, untraced and traced, prints every
//! metric `BENCHMARK.json` declares, by name and with its unit, plus a
//! report line with the host fingerprint, the seed and the checks.

use std::process::Command;

use ewc_telemetry::json::{self, Value};

const BIN: &str = env!("CARGO_BIN_EXE_ewc-e2ebench");

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one of the manifest's lists.
fn declared(manifest: &Value, list: &str) -> Vec<(String, String)> {
    manifest
        .get(list)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(args: &[&str]) -> (bool, Vec<String>) {
    let out = Command::new(BIN)
        .args(args)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    (
        out.status.success(),
        stdout.lines().map(str::to_string).collect(),
    )
}

fn tiny(workload: &str, trace: &str) -> (Value, Value) {
    let (ok, lines) = run(&[
        "--workload",
        workload,
        "--seed",
        "3",
        "--seconds",
        "0.01",
        "--trace",
        trace,
        "--size",
        "tiny",
    ]);
    assert!(ok, "{workload} --trace {trace} failed: {lines:?}");
    assert!(lines.len() >= 2, "{lines:?}");
    let result = json::parse(&lines[lines.len() - 1]).expect("result line is JSON");
    let report = json::parse(&lines[lines.len() - 2]).expect("report line is JSON");
    (result, report.get("report").expect("report object").clone())
}

#[test]
fn every_workload_prints_every_declared_metric_with_its_unit() {
    let manifest = manifest();
    let workloads: Vec<String> = manifest
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(
        workloads,
        ["openloop_storm", "openloop_dvfs", "paper_sessions"]
    );
    for w in &workloads {
        let mut digests = Vec::new();
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let (result, report) = tiny(w, trace);
            let keys: Vec<&String> = result.as_object().expect("object").keys().collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
            assert!(
                result
                    .get("attempted")
                    .and_then(Value::as_f64)
                    .expect("attempted")
                    >= 1.0
            );
            assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
            let metrics = result
                .get("metrics")
                .and_then(Value::as_object)
                .expect("metrics");
            let want = declared(&manifest, list);
            assert_eq!(
                metrics.len(),
                want.len(),
                "{w} {list}: {:?}",
                metrics.keys()
            );
            for (name, unit) in &want {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{w}: {name} missing"));
                assert!(
                    m.get("value").and_then(Value::as_f64).is_some(),
                    "{w}: {name}"
                );
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()));
                let full = report.get("metrics").and_then(|r| r.get(name));
                assert!(
                    full.and_then(|f| f.get("exact")).is_some(),
                    "{w}: {name} is marked exact or not in the report"
                );
            }
            assert_eq!(report.get("seed").and_then(Value::as_f64), Some(3.0));
            let host = report.get("host").expect("host fingerprint");
            assert!(host.get("nproc").and_then(Value::as_f64).expect("nproc") >= 1.0);
            assert!(host.get("cpu_model").and_then(Value::as_str).is_some());
            let checks = report
                .get("checks")
                .and_then(Value::as_array)
                .expect("checks");
            assert!(!checks.is_empty());
            digests.push(report.get("seed0_sim_digest").cloned().expect("digest"));
        }
        assert_eq!(
            digests[0], digests[1],
            "{w}: the traced run reproduces the untraced simulated results"
        );
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "openloop_storm",
            "--seed",
            "1",
            "--seconds",
            "1",
        ],
        &[
            "--workload",
            "openloop_storm",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
    ] {
        let (ok, lines) = run(args);
        assert!(!ok, "{args:?}");
        assert!(lines.is_empty(), "{args:?}: {lines:?}");
    }
}
