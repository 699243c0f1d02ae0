//! The benchmark's self-test, in short mode: small tables, short runs,
//! the same code paths as a full run.

use zv_storage::Json;

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::runner::{Config, Faults};
use crate::{run, WORKLOADS};

fn short(workload: &str, seed: u64, traced: bool, faults: Faults) -> Config {
    Config {
        workload: workload.to_string(),
        seed,
        seconds: 1.2,
        traced,
        short: true,
        faults,
    }
}

/// `(name, unit)` pairs of one `BENCHMARK.json` metric list.
fn listed(bench: &Json, key: &str) -> Vec<(String, String)> {
    bench
        .get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn catalogue(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn every_metric_appears_with_a_unit_and_a_finite_value() {
    for (seed, workload) in (100..).zip(WORKLOADS) {
        for traced in [false, true] {
            let result = run(&short(workload, seed, traced, Faults::default()))
                .unwrap_or_else(|e| panic!("{workload}: {e}"));
            assert!(result.correct, "{workload}: {:?}", result.problems);
            let line = Json::parse(&result.json_line(traced)).expect("the result line is JSON");
            assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
            let attempted = line.get("attempted").and_then(Json::as_u64).unwrap_or(0);
            assert!(attempted >= 1, "{workload}: nothing attempted");
            assert_eq!(line.get("failed").and_then(Json::as_u64), Some(0));
            let metrics = line.get("metrics").expect("metrics object");
            let Json::Obj(fields) = metrics else {
                panic!("metrics is not an object")
            };
            let names = if traced { PER_LAYER } else { END_TO_END };
            assert_eq!(fields.len(), names.len(), "{workload}: extra metrics");
            for (name, unit) in names {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{workload}: {name} missing"));
                let value = m.get("value").and_then(Json::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{workload}: {name} = {value:?}"
                );
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit));
                if !traced {
                    assert!(value.unwrap() > 0.0, "{workload}: {name} reads 0");
                }
            }
        }
    }
}

#[test]
fn benchmark_json_lists_exactly_the_printed_metrics_and_known_workloads() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let bench = Json::parse(&text).expect("BENCHMARK.json is JSON");
    assert_eq!(listed(&bench, "end_to_end"), catalogue(END_TO_END));
    assert_eq!(listed(&bench, "per_layer"), catalogue(PER_LAYER));
    for (name, _) in listed(&bench, "workloads") {
        assert!(
            WORKLOADS.contains(&name.as_str()),
            "unknown workload {name}"
        );
    }
}

#[test]
fn a_corrupted_reference_answer_fails_the_run() {
    let faults = Faults {
        corrupt_reference: true,
        ..Faults::default()
    };
    for (seed, workload) in (200..).zip(WORKLOADS) {
        let result = run(&short(workload, seed, false, faults)).expect("the run completes");
        assert!(!result.correct, "{workload}: a wrong answer passed");
        assert!(
            result.problems.iter().any(|p| p.contains("wrong")),
            "{workload}: {:?}",
            result.problems
        );
    }
}

#[test]
fn a_corrupted_reference_of_each_task_function_fails_the_run() {
    for (seed, task) in (400..).zip(["similarity", "representative", "outlier"]) {
        let faults = Faults {
            corrupt_reference: true,
            corrupt_task: Some(task),
            ..Faults::default()
        };
        let result = run(&short("tasks", seed, false, faults)).expect("the run completes");
        assert!(!result.correct, "a wrong {task} answer passed");
        assert!(
            result
                .problems
                .iter()
                .any(|p| p.starts_with(&format!("wrong {task} answer"))),
            "{task}: {:?}",
            result.problems
        );
    }
}

#[test]
fn a_ledger_that_does_not_add_up_fails_the_run() {
    let faults = Faults {
        lose_outcome: true,
        ..Faults::default()
    };
    for (seed, workload) in (300..).zip(WORKLOADS) {
        let result = run(&short(workload, seed, false, faults)).expect("the run completes");
        assert!(!result.correct, "{workload}: a lost outcome passed");
        assert!(
            result.problems.iter().any(|p| p.contains("ledger")),
            "{workload}: {:?}",
            result.problems
        );
    }
}
