//! End-to-end smoke of the harness through `run.sh`, as the benchmark's
//! driver invokes it: tiny corpora (`--quick`), two seconds per workload.
//! One test function, so the timed runs never compete with each other for
//! the two cores.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use obs::json::{parse, Json};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("sdbench lives in the repository root")
        .to_path_buf()
}

fn run_sh(cwd: &Path, script: &Path, args: &[&str]) -> Output {
    Command::new("bash")
        .arg(script)
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("bash runs")
}

/// The declared metric names of one list of `BENCHMARK.json`.
fn declared(key: &str) -> Vec<String> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
    parse(&text)
        .unwrap()
        .get(key)
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
        .collect()
}

/// Check one result line against the contract and return its metrics.
fn check_result(line: &str, names: &[String], nonzero: bool) -> Json {
    let doc = parse(line).unwrap_or_else(|e| panic!("result line is not JSON ({e}): {line}"));
    assert_eq!(doc.get("correct"), Some(&Json::Bool(true)), "{line}");
    assert_eq!(doc.get("failed").unwrap().as_f64(), Some(0.0), "{line}");
    assert!(doc.get("attempted").unwrap().as_f64().unwrap() >= 1.0);
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        panic!("no metrics object: {line}")
    };
    let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(got, names, "exactly the declared metrics, in order");
    for (name, m) in metrics {
        let value = m.get("value").unwrap().as_f64().unwrap();
        assert!(value.is_finite(), "{name} = {value}");
        assert!(!nonzero || value > 0.0, "{name} = {value}");
        assert!(m.get("unit").unwrap().as_str().is_some());
    }
    doc
}

#[test]
fn quick_run_exercises_every_workload_and_check() {
    let root = repo_root();
    let script = Path::new("sdbench/run.sh");

    // All four workloads, end to end.
    let out = run_sh(
        &root,
        script,
        &["--seed", "3", "--seconds", "2", "--trace", "0", "--quick"],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "run failed:\n{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 4, "one result line per workload:\n{stdout}");
    let end_to_end = declared("end_to_end");
    for line in &lines {
        let doc = check_result(line, &end_to_end, true);
        let within = doc.get("metrics").unwrap().get("within_limit").unwrap();
        assert_eq!(within.get("value").unwrap().as_f64(), Some(1.0), "{line}");
    }
    for workload in declared("workloads") {
        assert!(
            stderr.contains(&format!("sdbench: {workload} seed 3")),
            "{workload}"
        );
    }

    // One traced run: every per-layer metric, and a Chrome trace.
    let trace_file = root.join(".sdbench_work/trace-stream_backlog_noisy.json");
    let _ = std::fs::remove_file(&trace_file);
    let out = run_sh(
        &root,
        script,
        &[
            "--workload",
            "stream_backlog_noisy",
            "--seed",
            "3",
            "--seconds",
            "2",
            "--trace",
            "1",
            "--quick",
        ],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "traced run failed:\n{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    check_result(
        stdout.lines().last().unwrap(),
        &declared("per_layer"),
        false,
    );
    let trace = parse(&std::fs::read_to_string(&trace_file).unwrap()).unwrap();
    let spans = trace.get("traceEvents").and_then(Json::as_arr).unwrap();
    for layer in [
        "logmodel.format.parse",
        "sdchecker.tail.poll",
        "sdchecker.checkpoint.save",
    ] {
        assert!(
            spans
                .iter()
                .any(|s| s.get("name").and_then(Json::as_str) == Some(layer)),
            "no {layer} span"
        );
    }
    std::fs::remove_file(&trace_file).unwrap();

    // No scratch directory survives a run.
    let leftovers: Vec<_> = std::fs::read_dir(root.join(".sdbench_work"))
        .map(|d| d.filter_map(Result::ok).map(|e| e.path()).collect())
        .unwrap_or_default();
    assert!(leftovers.is_empty(), "left behind: {leftovers:?}");

    // Without the repository's sources there is nothing to measure: the
    // command must fail and print no result.
    let bare = std::env::temp_dir().join(format!("sdbench_bare_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&bare);
    std::fs::create_dir_all(bare.join("sdbench/src")).unwrap();
    std::fs::copy(root.join("BENCHMARK.json"), bare.join("BENCHMARK.json")).unwrap();
    for file in ["run.sh", "Cargo.toml", "src/main.rs"] {
        std::fs::copy(
            root.join("sdbench").join(file),
            bare.join("sdbench").join(file),
        )
        .unwrap();
    }
    let out = Command::new("bash")
        .arg(script)
        .args([
            "--workload",
            "batch_tpch",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .current_dir(&bare)
        .env("CARGO_TARGET_DIR", bare.join(".bench_build"))
        .output()
        .unwrap();
    assert!(
        !out.status.success(),
        "ran without the repository's sources"
    );
    assert!(out.stdout.is_empty(), "printed a result without sources");
    std::fs::remove_dir_all(&bare).unwrap();
}
