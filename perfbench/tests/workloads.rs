//! The benchmark's own tests: every workload at `tiny` scale for a
//! fraction of a second. Every named metric must print with its unit,
//! `BENCHMARK.json` must declare the same metrics, and a corrupted
//! reference answer must be counted as a failed op, not a panic.

use kf_perfbench::{end_to_end_metrics, per_layer_metrics, run, Options, Workload};
use std::path::PathBuf;
use std::process::Command;

fn work_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("kf-perfbench-tests")
}

fn tiny(workload: Workload) -> Options {
    Options {
        scale: "tiny".to_string(),
        work_dir: work_dir(),
        ..Options::new(workload, 7, 0.4)
    }
}

/// Run the benchmark program; returns its exit status and stdout.
fn bench(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_kf-perfbench"))
        .args(args)
        .output()
        .expect("the benchmark program runs");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("utf-8 output"),
    )
}

/// The `"name": {"value": <number>, "unit": "<unit>"}` entry of `name`
/// in the result line, as its value.
fn printed_value(result: &str, name: &str, unit: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let at = result
        .find(&key)
        .unwrap_or_else(|| panic!("{name} missing from {result}"))
        + key.len();
    let rest = &result[at..];
    let (value, tail) = rest.split_once(", ").expect("value then unit");
    assert!(
        tail.starts_with(&format!("\"unit\": \"{unit}\"}}")),
        "{name} printed without unit {unit}: {tail:.40}"
    );
    value.parse().unwrap_or_else(|_| panic!("{name} = {value}"))
}

#[test]
fn every_metric_prints_with_its_unit() {
    let dir = work_dir();
    let dir = dir.to_str().expect("utf-8 path");
    for workload in Workload::ALL {
        for trace in ["0", "1"] {
            let (ok, stdout) = bench(&[
                "--workload",
                workload.name(),
                "--seed",
                "3",
                "--seconds",
                "0.4",
                "--trace",
                trace,
                "--scale",
                "tiny",
                "--work-dir",
                dir,
            ]);
            assert!(ok, "{} --trace {trace} failed", workload.name());
            let result = stdout.lines().last().expect("a result line");
            assert!(
                result.starts_with("{\"correct\": true, \"attempted\": "),
                "{result}"
            );
            assert!(result.contains("\"failed\": 0, \"metrics\": {"), "{result}");
            let spec = if trace == "1" {
                per_layer_metrics()
            } else {
                end_to_end_metrics()
            };
            assert_eq!(result.matches("\"unit\": ").count(), spec.len());
            for (name, unit) in &spec {
                let value = printed_value(result, name, unit);
                if trace == "0" {
                    assert!(value > 0.0, "{name} = {value} on {}", workload.name());
                }
            }
            if trace == "1" {
                // The spill path is unused by repro and kf-serve.
                assert_eq!(printed_value(result, "mr.spilled_bytes", "bytes"), 0.0);
                assert_eq!(printed_value(result, "group.builds", "count"), 5.0);
            }
        }
    }
}

#[test]
fn benchmark_json_declares_the_same_metrics() {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let json = std::fs::read_to_string(manifest.join("../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let declared = |section: &str| -> Vec<(String, String)> {
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("{\"name\": \"")
            .skip(1)
            .map(|entry| {
                let (name, rest) = entry.split_once('"').expect("name closes");
                let unit = rest
                    .split_once("\"unit\": \"")
                    .and_then(|(_, u)| u.split_once('"'))
                    .expect("unit present")
                    .0;
                (name.to_string(), unit.to_string())
            })
            .collect()
    };
    let owned = |spec: Vec<(String, &str)>| -> Vec<(String, String)> {
        spec.into_iter().map(|(n, u)| (n, u.to_string())).collect()
    };
    assert_eq!(declared("end_to_end"), owned(end_to_end_metrics()));
    assert_eq!(declared("per_layer"), owned(per_layer_metrics()));
    for workload in Workload::ALL {
        assert!(json.contains(&format!("{{\"name\": \"{}\"", workload.name())));
    }
}

#[test]
fn corrupted_reference_answers_count_as_failed() {
    for workload in Workload::ALL {
        let opts = Options {
            corrupt_reference: true,
            ..tiny(workload)
        };
        let outcome = run(&opts).expect("the run completes");
        assert!(!outcome.correct(), "{}", workload.name());
        assert!(outcome.failed > 0 && outcome.failed < outcome.attempted);
        let honest = run(&tiny(workload)).expect("the run completes");
        assert!(honest.correct(), "{}", workload.name());
        assert_eq!(honest.failed, 0);
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &["--workload", "nope", "--seed", "1", "--seconds", "1"][..],
        &["--workload", "serve-zipf", "--seed", "x", "--seconds", "1"],
        &["--workload", "serve-zipf", "--seed", "1"],
        &[
            "--workload",
            "serve-zipf",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
    ] {
        let (ok, stdout) = bench(args);
        assert!(!ok, "{args:?} succeeded");
        assert!(!stdout.contains("\"correct\""), "{args:?} printed a result");
    }
}
