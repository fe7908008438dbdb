//! Self-tests of the benchmark command on one small design: every named
//! metric is printed with its unit, and QoR and work counters repeat
//! exactly across runs.

#![allow(clippy::expect_used, clippy::unwrap_used)]

use std::collections::BTreeMap;
use std::process::Command;

use qorbench::{per_layer, END_TO_END};

/// `(value, unit)` per metric name.
type Metrics = BTreeMap<String, (f64, String)>;

/// Runs the benchmark binary and parses its last output line.
fn run(workload: &str, designs: &str, trace: bool) -> (bool, u64, u64, Metrics) {
    let out = Command::new(env!("CARGO_BIN_EXE_qorbench"))
        .args(["--workload", workload, "--designs", designs])
        .args(["--seed", "5", "--seconds", "0"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark runs");
    assert!(out.status.success(), "exit {}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    parse_result(stdout.lines().last().expect("a result line"))
}

/// A minimal reader for the result line's fixed shape.
fn parse_result(line: &str) -> (bool, u64, u64, Metrics) {
    let field = |key: &str| {
        let start = line.find(&format!("\"{key}\": ")).expect(key) + key.len() + 4;
        let rest = &line[start..];
        rest[..rest.find([',', '}']).expect("field end")].to_string()
    };
    let correct = field("correct") == "true";
    let attempted = field("attempted").parse().expect("attempted");
    let failed = field("failed").parse().expect("failed");
    let body = &line[line.find("\"metrics\": {").expect("metrics") + 12..];
    let mut metrics = Metrics::new();
    for entry in body.split("}, ") {
        let name = entry.split('"').nth(1).expect("metric name").to_string();
        let value = entry
            .split("\"value\": ")
            .nth(1)
            .and_then(|v| v.split(',').next())
            .expect("value")
            .parse()
            .expect("numeric value");
        let unit = entry
            .split("\"unit\": \"")
            .nth(1)
            .and_then(|u| u.split('"').next())
            .expect("unit")
            .to_string();
        metrics.insert(name, (value, unit));
    }
    (correct, attempted, failed, metrics)
}

fn assert_names(metrics: &Metrics, names: &[String]) {
    let printed: Vec<&String> = metrics.keys().collect();
    let mut expected: Vec<&String> = names.iter().collect();
    expected.sort();
    assert_eq!(printed, expected);
    for (name, (value, unit)) in metrics {
        assert!(!unit.is_empty(), "{name} has no unit");
        assert!(value.is_finite(), "{name} is not finite");
    }
}

#[test]
fn every_metric_is_printed_with_its_unit() {
    let (correct, attempted, failed, metrics) = run("control", "ctrl", false);
    // At least one pass per input variant, one operation per design.
    assert!(
        correct && attempted >= 3 && failed == 0,
        "{attempted} attempted, {failed} failed"
    );
    let end_to_end: Vec<String> = END_TO_END.iter().map(|s| (*s).to_string()).collect();
    assert_names(&metrics, &end_to_end);

    let (correct, _, failed, metrics) = run("resume", "ctrl", true);
    assert!(correct && failed == 0, "{failed} failed");
    assert_names(&metrics, &per_layer());
    assert_eq!(metrics["journal.snapshots"].0, 16.0);
    assert_eq!(metrics["resume.steps_skipped"].0, 3.0);
}

#[test]
fn benchmark_json_lists_the_printed_metrics() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark directory");
    let names: Vec<String> = END_TO_END
        .iter()
        .map(|s| (*s).to_string())
        .chain(per_layer())
        .collect();
    for name in &names {
        assert!(
            json.contains(&format!("\"name\": \"{name}\"")),
            "{name} missing from BENCHMARK.json"
        );
    }
    assert_eq!(json.matches("\"unit\": ").count(), names.len());
}

#[test]
fn qor_and_counters_repeat_exactly() {
    for workload in ["control", "arith"] {
        let first = run(workload, "dec,ctrl", true).3;
        let second = run(workload, "dec,ctrl", true).3;
        for (name, (value, unit)) in &first {
            if unit == "count" {
                assert_eq!(*value, second[name].0, "{workload}: {name} differs");
            }
        }
        let first = run(workload, "dec,ctrl", false).3;
        let second = run(workload, "dec,ctrl", false).3;
        for name in ["ands", "levels", "luts"] {
            assert_eq!(first[name].0, second[name].0, "{workload}: {name} differs");
        }
    }
}
