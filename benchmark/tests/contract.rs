//! The benchmark's output, its `--list` vocabulary and `BENCHMARK.json` name
//! exactly the same workloads and metrics. Runs every gated workload in
//! `--quick` mode (1 op, small inputs), so it also smoke-tests the harness.

use eda::core::daemon::wire::{parse, Json};
use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_eda-benchmark");

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
    parse(&text).expect("BENCHMARK.json parses")
}

/// Runs the benchmark with its scratch and traces under cargo's per-test
/// tmp dir, and returns the last line of its stdout as JSON.
fn last_line(args: &[&str]) -> Json {
    let output = Command::new(EXE)
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .env("CARGO_TARGET_DIR", "out")
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    parse(stdout.lines().last().expect("a result line")).expect("the result line is JSON")
}

fn items<'a>(json: &'a Json, key: &str) -> &'a [Json] {
    match json.get(key) {
        Some(Json::Arr(items)) => items,
        other => panic!("`{key}` is not an array: {other:?}"),
    }
}

/// The `fields` of every object under `key`, as comparable rows.
fn rows(json: &Json, key: &str, fields: &[&str]) -> Vec<Vec<String>> {
    items(json, key)
        .iter()
        .map(|item| {
            fields
                .iter()
                .map(|f| match item.get(f) {
                    Some(Json::Str(s)) => s.clone(),
                    Some(Json::Num(n)) => n.to_string(),
                    other => panic!("`{key}` entry lacks `{f}`: {other:?}"),
                })
                .collect()
        })
        .collect()
}

#[test]
fn list_matches_benchmark_json() {
    let (listed, file) = (last_line(&["--list"]), benchmark_json());
    for (key, fields) in [
        ("workloads", &["name", "why"][..]),
        ("end_to_end", &["name", "unit", "better", "bound"][..]),
        ("per_layer", &["name", "unit", "better"][..]),
    ] {
        assert_eq!(
            rows(&listed, key, fields),
            rows(&file, key, fields),
            "`{key}` differs"
        );
    }
    assert_eq!(
        listed.get("run_seconds").and_then(Json::as_f64),
        file.get("run_seconds").and_then(Json::as_f64)
    );
}

/// One quick run's metric `(name, unit)` pairs, after checking the result
/// is correct.
fn quick_metrics(workload: &str, trace: &str) -> Vec<Vec<String>> {
    let result = last_line(&["--workload", workload, "--quick", "--trace", trace]);
    let keys: Vec<&str> = match &result {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("result is not an object: {other:?}"),
    };
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        result.get("correct").and_then(Json::as_bool),
        Some(true),
        "{workload}: {result:?}"
    );
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Json::as_u64) >= Some(1));
    match result.get("metrics") {
        Some(Json::Obj(metrics)) => metrics
            .iter()
            .map(|(name, m)| {
                assert!(
                    m.get("value").and_then(Json::as_f64).is_some(),
                    "{name} has no value"
                );
                vec![
                    name.clone(),
                    m.get("unit")
                        .and_then(Json::as_str)
                        .expect("a unit")
                        .to_string(),
                ]
            })
            .collect(),
        other => panic!("no metrics object: {other:?}"),
    }
}

fn gated_workloads() -> Vec<String> {
    rows(&benchmark_json(), "workloads", &["name"])
        .into_iter()
        .flatten()
        .collect()
}

#[test]
fn untraced_runs_report_exactly_the_end_to_end_metrics() {
    let expected = rows(&benchmark_json(), "end_to_end", &["name", "unit"]);
    for workload in gated_workloads() {
        assert_eq!(quick_metrics(&workload, "0"), expected, "{workload}");
    }
}

#[test]
fn traced_runs_report_exactly_the_per_layer_metrics() {
    let expected = rows(&benchmark_json(), "per_layer", &["name", "unit"]);
    for workload in gated_workloads() {
        assert_eq!(quick_metrics(&workload, "1"), expected, "{workload}");
    }
}

#[test]
fn an_unknown_workload_is_refused_without_a_result() {
    let output = Command::new(EXE)
        .args(["--workload", "nope"])
        .output()
        .expect("the benchmark binary runs");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}
