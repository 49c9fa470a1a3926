//! Smoke test: every workload at a tiny scale, traced, through the real
//! binary — staging, the server process, the load generator, the
//! answer checks and every layer replay.

use std::path::Path;
use std::process::Command;

const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` pairs of one BENCHMARK.json section, read without a
/// JSON library: each metric object sits on its own lines.
fn metrics(section: &str) -> Vec<(String, String)> {
    let body = BENCHMARK.split(&format!("\"{section}\"")).nth(1).unwrap();
    let body = &body[..body.find(']').unwrap()];
    let field = |obj: &str, key: &str| -> String {
        let rest = obj.split(&format!("\"{key}\": \"")).nth(1).unwrap();
        rest[..rest.find('"').unwrap()].to_string()
    };
    body.split('}')
        .filter(|obj| obj.contains("\"name\""))
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let dir = std::env::temp_dir().join(format!("suite-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_suite"))
        .args(["run", "--workload", "all", "--seed", "5", "--seconds", "1"])
        .args(["--trace", "1", "--tiny"])
        .current_dir(&dir)
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(out.status.success(), "suite failed:\n{stdout}\n{stderr}");
    assert!(stdout
        .trim_end()
        .lines()
        .last()
        .unwrap()
        .starts_with("{\"correct\": true"));
    assert!(Path::new(&dir)
        .join(".bench_build/suite/results/trace-update-mix.jsonl")
        .exists());

    let blocks: Vec<&str> = stdout.split("== ").skip(1).collect();
    assert_eq!(blocks.len(), 3);
    let wanted = [metrics("end_to_end"), metrics("per_layer")].concat();
    for block in blocks {
        let workload = block.split_whitespace().next().unwrap();
        for (name, unit) in &wanted {
            let line = block
                .lines()
                .find(|l| l.split_whitespace().next() == Some(name.as_str()))
                .unwrap_or_else(|| panic!("{workload}: {name} not printed"));
            let f: Vec<&str> = line.split_whitespace().collect();
            let value: f64 = f[1].parse().unwrap();
            assert!(value.is_finite(), "{workload}: {name} = {value}");
            assert_eq!(f[2], unit, "{workload}: {name} unit");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
