//! Tiny-scale self-test of the benchmark: every workload, untraced and
//! traced, at a twentieth of its input size and a one-second window.
//!
//! Checks that the result line carries exactly the metrics
//! `BENCHMARK.json` declares for the mode, each with its declared unit
//! and a finite value; that the declared names and counts stay within
//! the benchmark format's limits; and that a run leaves no files
//! behind: the disk scratch is gone and `bench_out/history` is
//! untouched.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use phj_obs::json::{parse, Json};

const WORKLOADS: [&str; 4] = ["join_outcache", "grace_incache", "serve_mix", "disk_spill"];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// `name → unit` of one metric list of `BENCHMARK.json`.
fn declared(doc: &Json, key: &str) -> BTreeMap<String, String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("{key} entry without {f}"))
            };
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

fn valid_name(n: &str) -> bool {
    !n.is_empty()
        && n.len() <= 64
        && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && n.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// File names and sizes under `dir` (empty when it does not exist).
fn listing(dir: &Path) -> Vec<(String, u64)> {
    let mut v: Vec<(String, u64)> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .map(|e| {
                    (
                        e.file_name().to_string_lossy().into_owned(),
                        e.metadata().map_or(0, |m| m.len()),
                    )
                })
                .collect()
        })
        .unwrap_or_default();
    v.sort();
    v
}

#[test]
fn every_workload_prints_its_declared_metrics_and_leaves_nothing_behind() {
    let root = repo_root();
    let text = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("read BENCHMARK.json");
    let doc = parse(&text).expect("BENCHMARK.json parses");
    let e2e = declared(&doc, "end_to_end");
    let per_layer = declared(&doc, "per_layer");
    assert!(
        !e2e.is_empty() && e2e.len() <= 16,
        "{} end-to-end metrics",
        e2e.len()
    );
    assert!(
        !per_layer.is_empty() && per_layer.len() <= 128,
        "{} per-layer metrics",
        per_layer.len()
    );
    for name in e2e.keys().chain(per_layer.keys()) {
        assert!(valid_name(name), "metric name {name:?}");
    }
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads list")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);

    let history = root.join("bench_out").join("history");
    let history_before = listing(&history);
    let scratch = Path::new(env!("CARGO_MANIFEST_DIR")).join("tmp");
    for workload in WORKLOADS {
        for (trace, want) in [("0", &e2e), ("1", &per_layer)] {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .current_dir(&root)
                .args([
                    "--workload",
                    workload,
                    "--seed",
                    "7",
                    "--seconds",
                    "1",
                    "--trace",
                    trace,
                    "--scale",
                    "0.05",
                ])
                .output()
                .expect("run perfbench");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} trace={trace} exited {:?}\n{stdout}\n{}",
                out.status,
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("some output");
            let result = parse(last)
                .unwrap_or_else(|e| panic!("{workload}: last line is not JSON: {e:?}\n{last}"));
            assert_eq!(
                result.get("correct"),
                Some(&Json::Bool(true)),
                "{workload}: {last}"
            );
            assert_eq!(
                result.get("failed").and_then(Json::as_u64),
                Some(0),
                "{workload}: {last}"
            );
            assert!(result
                .get("attempted")
                .and_then(Json::as_u64)
                .is_some_and(|a| a >= 1));
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                panic!("{workload}: no metrics object in {last}");
            };
            let printed: BTreeMap<&str, &Json> =
                metrics.iter().map(|(k, v)| (k.as_str(), v)).collect();
            assert_eq!(
                printed.keys().copied().collect::<Vec<_>>(),
                want.keys().map(String::as_str).collect::<Vec<_>>(),
                "{workload} trace={trace}: printed metrics differ from BENCHMARK.json"
            );
            for (name, unit) in want {
                let m = printed[name.as_str()];
                let value = m.get("value").and_then(Json::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{workload} {name}: value {value:?}"
                );
                assert_eq!(
                    m.get("unit").and_then(Json::as_str),
                    Some(unit.as_str()),
                    "{workload} {name}"
                );
            }
            assert!(
                !scratch.exists(),
                "{workload} left {} behind",
                scratch.display()
            );
        }
    }
    assert_eq!(
        listing(&history),
        history_before,
        "a run changed bench_out/history"
    );
}
