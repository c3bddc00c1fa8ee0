//! The benchmark's self-test: every workload at its tiny size (10 zoo
//! networks, a 200-event churn trace), untraced and traced, must pass its
//! gates and print every metric `BENCHMARK.json` names, with its unit.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

const WORKLOADS: [&str; 3] = ["zoo_classify", "zoo_resilience", "serve_churn"];

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.  The
/// file keeps one metric per line, so a line scan suffices.
fn listed_metrics(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let field = |line: &str, key: &str| -> Option<String> {
        let rest = &line[line.find(&format!("\"{key}\": \""))? + key.len() + 5..];
        Some(rest[..rest.find('"')?].to_string())
    };
    text[start..]
        .lines()
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with(']'))
        .map(|l| {
            let name = field(l, "name").expect("metric name");
            let unit = field(l, "unit").expect("metric unit");
            (name, unit)
        })
        .collect()
}

fn run(args: &str) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_frr-perfbench"))
        .args(args.split(' '))
        .output()
        .expect("run the benchmark binary");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn every_workload_prints_every_listed_metric_with_its_unit() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let metrics = listed_metrics(section);
        assert!(!metrics.is_empty(), "{section} lists no metric");
        for workload in WORKLOADS {
            let args =
                format!("--workload {workload} --seed 1 --seconds 1 --trace {trace} --size tiny");
            let (code, stdout, stderr) = run(&args);
            assert_eq!(code, 0, "{workload} trace {trace} failed:\n{stderr}");
            let last = stdout.lines().last().expect("a result line");
            assert!(
                last.starts_with("{\"correct\": true, \"attempted\": "),
                "{last}"
            );
            assert!(last.contains("\"failed\": 0,"), "{last}");
            for (name, unit) in &metrics {
                let key = format!("\"{name}\": {{\"value\": ");
                let at = last
                    .find(&key)
                    .unwrap_or_else(|| panic!("{workload} trace {trace}: {name} missing"));
                let rest = &last[at + key.len()..];
                let (value, rest) = rest.split_once(", ").expect("value then unit");
                let value: f64 = value.parse().expect("a numeric value");
                assert!(value.is_finite(), "{name} = {value}");
                assert!(
                    rest.starts_with(&format!("\"unit\": \"{unit}\"}}")),
                    "{workload}: {name} printed without unit {unit}"
                );
                if section == "end_to_end" {
                    assert!(value > 0.0, "{workload}: {name} is {value}");
                }
            }
            assert_eq!(
                last.matches("\"value\"").count(),
                metrics.len(),
                "{workload} trace {trace} prints unlisted metrics"
            );
        }
    }
}

#[test]
fn bad_flags_exit_2_without_a_result() {
    for args in [
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload serve_churn --seed x --seconds 1 --trace 0",
        "--workload serve_churn --seed 1 --seconds 1 --trace 2",
        "--workload serve_churn --seed",
    ] {
        let (code, stdout, _) = run(args);
        assert_eq!(code, 2, "{args}");
        assert!(stdout.is_empty(), "{args} printed {stdout}");
    }
}
