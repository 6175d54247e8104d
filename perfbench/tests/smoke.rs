//! Benchmark self-test at `Scale::Smoke`: every workload of
//! `BENCHMARK.json` runs in seconds, answers every query correctly, and
//! prints every end-to-end and per-layer metric it declares, with its unit.

use std::process::Command;

/// `(name, unit)` of each object in one array of `BENCHMARK.json`, found
/// with a small bracket scanner that skips string contents.
fn entries(spec: &str, section: &str) -> Vec<(String, Option<String>)> {
    let start = spec.find(&format!("\"{section}\"")).expect("section present");
    let body = &spec[start + spec[start..].find('[').expect("section is an array")..];
    let (mut depth, mut in_str, mut escaped, mut from) = (0, false, false, 0);
    let mut objects = Vec::new();
    for (i, c) in body.char_indices() {
        if in_str {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '[' | '{' => {
                depth += 1;
                if depth == 2 {
                    from = i;
                }
            }
            ']' | '}' => {
                depth -= 1;
                if depth == 1 {
                    objects.push(&body[from..=i]);
                }
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
    }
    let field = |obj: &str, key: &str| {
        let at = obj.find(&format!("\"{key}\": \""))? + key.len() + 5;
        Some(obj[at..at + obj[at..].find('"')?].to_string())
    };
    objects
        .into_iter()
        .map(|obj| (field(obj, "name").expect("entry has a name"), field(obj, "unit")))
        .collect()
}

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace])
        .args(["--scale", "smoke"])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

#[test]
fn every_workload_reports_every_metric_at_smoke_scale() {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let workloads = entries(&spec, "workloads");
    assert_eq!(workloads.len(), 3);
    for (workload, _) in &workloads {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = run(workload, trace);
            let last = out.lines().last().expect("result line");
            assert!(last.starts_with("{\"correct\": true, "), "{workload}: {last}");
            assert!(last.contains("\"failed\": 0, "), "{workload}: {last}");
            assert!(out.contains("metric failed_frac = 0 fraction"), "{workload}");
            assert!(out.lines().any(|l| l.starts_with("header {\"rev\": ")), "{workload}");
            for (name, unit) in entries(&spec, section) {
                let unit = unit.expect("metric has a unit");
                let printed = format!("metric {name} = ");
                let line = out.lines().find(|l| l.starts_with(&printed));
                assert!(
                    line.is_some_and(|l| l.ends_with(&format!(" {unit}"))),
                    "{workload}: {name} [{unit}] not printed"
                );
                let json = format!("\"{name}\": {{\"value\": ");
                assert!(last.contains(&json), "{workload}: {name} missing from {last}");
            }
            if trace == "1" {
                assert!(out.contains("counts identical answers identical"), "{workload}");
                assert!(out.contains("tracing overhead: "), "{workload}");
                assert!(out.contains("self query: "), "{workload}");
            }
        }
    }
}
