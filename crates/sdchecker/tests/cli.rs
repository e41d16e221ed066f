//! End-to-end tests of the `sdchecker` CLI binary over a hand-assembled
//! log corpus (the tool's real-world entry point).

use std::path::PathBuf;
use std::process::{Command, Stdio};

use logmodel::{ApplicationId, Epoch, LogSource, LogStore, NodeId, TsMs};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sdchecker"))
}

/// A complete single-app corpus with known delays.
fn write_corpus(dir: &std::path::Path) -> ApplicationId {
    let mut s = LogStore::new(Epoch::default_run());
    let a = populate_app1(&mut s);
    s.write_dir(dir).unwrap();
    a
}

fn populate_app1(s: &mut LogStore) -> ApplicationId {
    let epoch = Epoch::default_run();
    let a = ApplicationId::new(epoch.unix_ms, 1);
    let am = a.attempt(1).container(1);
    let ex = a.attempt(1).container(2);
    let rm = LogSource::ResourceManager;
    let nm = LogSource::NodeManager(NodeId(2));
    s.info(
        rm,
        TsMs(100),
        "RMAppImpl",
        format!("{a} State change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED"),
    );
    s.info(
        rm,
        TsMs(120),
        "RMAppImpl",
        format!("{a} State change from SUBMITTED to ACCEPTED on event = APP_ACCEPTED"),
    );
    s.info(
        rm,
        TsMs(150),
        "RMContainerImpl",
        format!("{am} Container Transitioned from NEW to ALLOCATED"),
    );
    s.info(
        rm,
        TsMs(151),
        "RMContainerImpl",
        format!("{am} Container Transitioned from ALLOCATED to ACQUIRED"),
    );
    s.info(
        nm,
        TsMs(160),
        "ContainerImpl",
        format!("Container {am} transitioned from NEW to LOCALIZING"),
    );
    s.info(
        nm,
        TsMs(700),
        "ContainerImpl",
        format!("Container {am} transitioned from LOCALIZING to SCHEDULED"),
    );
    s.info(
        nm,
        TsMs(705),
        "ContainerImpl",
        format!("Container {am} transitioned from SCHEDULED to RUNNING"),
    );
    s.info(
        LogSource::Driver(a),
        TsMs(1400),
        "ApplicationMaster",
        "Starting ApplicationMaster",
    );
    s.info(
        LogSource::Driver(a),
        TsMs(4400),
        "ApplicationMaster",
        "Registered with ResourceManager",
    );
    s.info(
        rm,
        TsMs(4400),
        "RMAppImpl",
        format!("{a} State change from ACCEPTED to RUNNING on event = ATTEMPT_REGISTERED"),
    );
    s.info(
        LogSource::Driver(a),
        TsMs(4401),
        "YarnAllocator",
        "START_ALLO Requesting 1 executor containers",
    );
    s.info(
        rm,
        TsMs(4500),
        "RMContainerImpl",
        format!("{ex} Container Transitioned from NEW to ALLOCATED"),
    );
    s.info(
        rm,
        TsMs(5400),
        "RMContainerImpl",
        format!("{ex} Container Transitioned from ALLOCATED to ACQUIRED"),
    );
    s.info(
        LogSource::Driver(a),
        TsMs(5400),
        "YarnAllocator",
        "END_ALLO All requested executor containers allocated",
    );
    s.info(
        nm,
        TsMs(5420),
        "ContainerImpl",
        format!("Container {ex} transitioned from NEW to LOCALIZING"),
    );
    s.info(
        nm,
        TsMs(5920),
        "ContainerImpl",
        format!("Container {ex} transitioned from LOCALIZING to SCHEDULED"),
    );
    s.info(
        nm,
        TsMs(5925),
        "ContainerImpl",
        format!("Container {ex} transitioned from SCHEDULED to RUNNING"),
    );
    s.info(
        LogSource::Executor(ex),
        TsMs(6625),
        "CoarseGrainedExecutorBackend",
        "Started executor",
    );
    s.info(
        LogSource::Executor(ex),
        TsMs(11_000),
        "Executor",
        "Got assigned task 0 in stage 0.0 (TID 0)",
    );
    s.info(
        rm,
        TsMs(40_100),
        "RMAppImpl",
        format!("{a} State change from RUNNING to FINAL_SAVING on event = ATTEMPT_UNREGISTERED"),
    );
    a
}

/// `write_corpus` plus a second, time-shifted application and one
/// schema-drift line (an RM app state outside the known alphabet), so
/// parse-coverage metrics exercise all three statuses.
fn write_two_app_corpus(dir: &std::path::Path) -> ApplicationId {
    let epoch = Epoch::default_run();
    let mut s = LogStore::new(epoch);
    let first = populate_app1(&mut s);
    let a = ApplicationId::new(epoch.unix_ms, 2);
    let am = a.attempt(1).container(1);
    let rm = LogSource::ResourceManager;
    let nm = LogSource::NodeManager(NodeId(3));
    s.info(
        rm,
        TsMs(50_100),
        "RMAppImpl",
        format!("{a} State change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED"),
    );
    s.info(
        rm,
        TsMs(50_120),
        "RMAppImpl",
        format!("{a} State change from SUBMITTED to ACCEPTED on event = APP_ACCEPTED"),
    );
    s.info(
        rm,
        TsMs(50_150),
        "RMContainerImpl",
        format!("{am} Container Transitioned from NEW to ALLOCATED"),
    );
    s.info(
        rm,
        TsMs(50_151),
        "RMContainerImpl",
        format!("{am} Container Transitioned from ALLOCATED to ACQUIRED"),
    );
    s.info(
        nm,
        TsMs(50_160),
        "ContainerImpl",
        format!("Container {am} transitioned from NEW to LOCALIZING"),
    );
    s.info(
        nm,
        TsMs(50_700),
        "ContainerImpl",
        format!("Container {am} transitioned from LOCALIZING to SCHEDULED"),
    );
    s.info(
        nm,
        TsMs(50_705),
        "ContainerImpl",
        format!("Container {am} transitioned from SCHEDULED to RUNNING"),
    );
    s.info(
        LogSource::Driver(a),
        TsMs(51_400),
        "ApplicationMaster",
        "Starting ApplicationMaster",
    );
    // Schema drift: a state SDchecker's extraction rules don't know.
    // (KILLED is a recognized terminal state now, so an invented one.)
    s.info(
        rm,
        TsMs(90_000),
        "RMAppImpl",
        format!("{a} State change from ACCEPTED to ZOMBIE on event = KILL"),
    );
    s.write_dir(dir).unwrap();
    first
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sdchecker_clitest_{name}_{}", std::process::id()))
}

#[test]
fn prints_report_for_a_corpus() {
    let dir = tmp("report");
    let _ = std::fs::remove_dir_all(&dir);
    write_corpus(&dir);
    let out = bin().arg(&dir).output().unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("SDchecker analysis"), "{stdout}");
    assert!(stdout.contains("applications: 1 (1 with complete scheduling-delay evidence)"));
    assert!(stdout.contains("total sched delay"));
    // total = 11000 - 100 = 10.9 s.
    assert!(stdout.contains("10.900"), "{stdout}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn writes_csv_and_dot() {
    let dir = tmp("csvdot");
    let _ = std::fs::remove_dir_all(&dir);
    let app = write_corpus(&dir);
    let csv = dir.join("out.csv");
    let dot = dir.join("graph.dot");
    let out = bin()
        .arg(&dir)
        .args(["--csv", csv.to_str().unwrap()])
        .args(["--dot", &app.to_string(), dot.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let csv_text = std::fs::read_to_string(&csv).unwrap();
    assert!(csv_text.starts_with("app,total_ms"));
    assert!(csv_text.contains("10900"), "{csv_text}");
    let dot_text = std::fs::read_to_string(&dot).unwrap();
    assert!(dot_text.starts_with("digraph"));
    assert!(dot_text.contains("TaskAssigned"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn threads_flag_is_byte_identical() {
    let dir = tmp("threads");
    let _ = std::fs::remove_dir_all(&dir);
    let app = write_corpus(&dir);
    let mut outputs = Vec::new();
    for threads in ["1", "4"] {
        let csv = dir.join(format!("out_{threads}.csv"));
        let out = bin()
            .arg(&dir)
            .args(["--threads", threads])
            .args(["--csv", csv.to_str().unwrap()])
            .args([
                "--dot",
                &app.to_string(),
                dir.join(format!("g_{threads}.dot")).to_str().unwrap(),
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        outputs.push((
            out.stdout,
            std::fs::read(&csv).unwrap(),
            std::fs::read(dir.join(format!("g_{threads}.dot"))).unwrap(),
        ));
    }
    assert_eq!(
        outputs[0].0, outputs[1].0,
        "stdout differs between --threads 1 and 4"
    );
    assert_eq!(
        outputs[0].1, outputs[1].1,
        "csv differs between --threads 1 and 4"
    );
    assert_eq!(
        outputs[0].2, outputs[1].2,
        "dot differs between --threads 1 and 4"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Golden-file test: on a fixed two-app corpus at `--threads 1`, the
/// metrics JSON must be byte-for-byte stable. Refresh the committed file
/// with `UPDATE_GOLDEN=1 cargo test -p sdchecker --test cli` after an
/// intentional metric change.
#[test]
fn metrics_json_matches_golden() {
    let dir = tmp("golden");
    let _ = std::fs::remove_dir_all(&dir);
    write_two_app_corpus(&dir);
    let metrics = dir.join("metrics.json");
    let out = bin()
        .arg(&dir)
        .args(["--threads", "1", "--quiet"])
        .args(["--metrics-out", metrics.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let got = std::fs::read_to_string(&metrics).unwrap();

    // Structural checks first, so the test still explains itself when the
    // golden file is being regenerated.
    let doc = obs::json::parse(&got).expect("metrics must be valid JSON");
    let counters = doc.get("counters").unwrap();
    let counter = |key: &str| {
        counters
            .get(key)
            .unwrap_or_else(|| panic!("missing counter {key} in {got}"))
            .as_f64()
            .unwrap()
    };
    assert_eq!(counter("analyze_apps_total"), 2.0);
    // One schema-drift line in the RM log (ACCEPTED -> ZOMBIE).
    assert_eq!(
        counter("parse_lines_total{source=\"resourcemanager\",status=\"unmatched\"}"),
        1.0
    );
    assert_eq!(counter("extract_events_total{kind=\"AppSubmitted\"}"), 2.0);
    // sdchecker runs never touch the simulator, so no sim metrics (and in
    // particular no wall-clock-derived gauges) may leak into the export.
    assert!(!got.contains("sim_"), "{got}");

    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/metrics.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(golden.parent().unwrap()).unwrap();
        std::fs::write(&golden, &got).unwrap();
    }
    let want = std::fs::read_to_string(&golden).expect("golden file missing; see test doc");
    assert_eq!(
        got, want,
        "metrics JSON drifted from tests/golden/metrics.json"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Golden-file test: the canonical `wide-events-v1` JSONL over the fixed
/// two-app corpus is byte-for-byte stable — the external contract of the
/// wide-event emitter. Refresh with `UPDATE_GOLDEN=1 cargo test -p
/// sdchecker --test cli` after an intentional change, and bump
/// `WIDE_EVENTS_SCHEMA` if the line shape changed.
#[test]
fn wide_events_jsonl_matches_golden() {
    let dir = tmp("wide_golden");
    let _ = std::fs::remove_dir_all(&dir);
    write_two_app_corpus(&dir);
    let events = dir.join("events.jsonl");
    let out = bin()
        .arg(&dir)
        .args(["--threads", "1", "--quiet"])
        .args(["--wide-events-out", events.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let got = std::fs::read_to_string(&events).unwrap();

    // Structural checks first: one line per application, each a complete
    // JSON object carrying the schema tag and every component key.
    assert_eq!(got.lines().count(), 2);
    for line in got.lines() {
        let doc = obs::json::parse(line).expect("each wide-event line must be valid JSON");
        assert_eq!(doc.get("schema").unwrap().as_str(), Some("wide-events-v1"));
        assert!(doc.get("app").is_some(), "{line}");
        assert!(doc.get("retire_ms").is_some(), "{line}");
        let components = doc.get("components").unwrap();
        for key in ["total", "am", "out_app", "alloc", "job_runtime"] {
            assert!(components.get(key).is_some(), "missing {key} in {line}");
        }
        assert!(doc.get("blame").is_some(), "{line}");
    }

    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/wide_events.jsonl");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(golden.parent().unwrap()).unwrap();
        std::fs::write(&golden, &got).unwrap();
    }
    let want = std::fs::read_to_string(&golden).expect("golden file missing; see test doc");
    assert_eq!(
        got, want,
        "wide events drifted from tests/golden/wide_events.jsonl"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Counter totals are pure functions of the corpus: the exported metrics
/// file must be byte-identical no matter how many worker threads ran.
/// (The `analyze_threads_requested`/`_effective` gauges record the thread
/// configuration itself, so those lines are stripped before comparing.)
#[test]
fn metrics_are_identical_across_thread_counts() {
    let dir = tmp("mthreads");
    let _ = std::fs::remove_dir_all(&dir);
    write_two_app_corpus(&dir);
    let strip_thread_gauges = |bytes: Vec<u8>| -> Vec<u8> {
        let text = String::from_utf8(bytes).unwrap();
        text.lines()
            .filter(|l| !l.contains("analyze_threads_"))
            .collect::<Vec<_>>()
            .join("\n")
            .into_bytes()
    };
    let mut files = Vec::new();
    for threads in ["1", "2", "4", "8"] {
        let metrics = dir.join(format!("metrics_{threads}.json"));
        let out = bin()
            .arg(&dir)
            .args(["--threads", threads, "--quiet"])
            .args(["--metrics-out", metrics.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        files.push((
            threads,
            strip_thread_gauges(std::fs::read(&metrics).unwrap()),
        ));
    }
    for (threads, bytes) in &files[1..] {
        assert_eq!(
            &files[0].1, bytes,
            "metrics differ between --threads 1 and --threads {threads}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The Chrome trace must be valid JSON with complete (`"X"`) events that
/// nest properly within each thread lane, plus thread-name metadata.
#[test]
fn chrome_trace_is_structurally_valid() {
    let dir = tmp("trace");
    let _ = std::fs::remove_dir_all(&dir);
    write_two_app_corpus(&dir);
    let trace = dir.join("trace.json");
    let out = bin()
        .arg(&dir)
        .args(["--threads", "1", "--quiet"])
        .args(["--trace-out", trace.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&trace).unwrap();
    let doc = obs::json::parse(&text).expect("trace must be valid JSON");
    let events = doc.get("traceEvents").unwrap().as_arr().unwrap().to_vec();

    assert!(
        events.iter().any(|e| {
            e.get("ph").and_then(|p| p.as_str()) == Some("M")
                && e.get("name").and_then(|n| n.as_str()) == Some("thread_name")
        }),
        "no thread_name metadata event"
    );

    // Collect complete events as (tid, name, start, end).
    let mut spans: Vec<(u64, String, u64, u64)> = Vec::new();
    for e in &events {
        if e.get("ph").and_then(|p| p.as_str()) != Some("X") {
            continue;
        }
        let tid = e.get("tid").unwrap().as_f64().unwrap() as u64;
        let name = e.get("name").unwrap().as_str().unwrap().to_string();
        let ts = e.get("ts").unwrap().as_f64().unwrap() as u64;
        let dur = e.get("dur").unwrap().as_f64().unwrap() as u64;
        spans.push((tid, name, ts, ts + dur));
    }
    // Directory analysis extracts each stream from the bytes it was read
    // from, so there is no corpus-wide `extract` stage: `extract_stream`
    // runs per chunk inside `ingest`, within the `ingest_file` it was read
    // by. The calling thread's stages tile the run: the walk and the read
    // inside `ingest`, the gather and the per-application pass inside
    // `analyze`, then the facts and the documents.
    for stage in [
        "ingest",
        "walk",
        "read",
        "ingest_file",
        "extract_stream",
        "analyze",
        "gather",
        "analyze_apps",
        "facts",
        "documents",
    ] {
        assert!(
            spans.iter().any(|(_, n, _, _)| n == stage),
            "missing {stage} span; have: {:?}",
            spans.iter().map(|(_, n, _, _)| n).collect::<Vec<_>>()
        );
    }
    // Within a thread lane, any two spans must be nested or disjoint —
    // partially overlapping intervals would render as a corrupt flame.
    for (i, a) in spans.iter().enumerate() {
        for b in &spans[i + 1..] {
            if a.0 != b.0 {
                continue;
            }
            let disjoint = a.3 <= b.2 || b.3 <= a.2;
            let nested = (a.2 <= b.2 && b.3 <= a.3) || (b.2 <= a.2 && a.3 <= b.3);
            assert!(
                disjoint || nested,
                "spans {:?} and {:?} partially overlap on tid {}",
                a,
                b,
                a.0
            );
        }
    }
    // Reading and extraction sit inside the ingest span on its thread,
    // the per-application stages inside analyze, which follows it; the
    // facts and then the documents follow on the same thread.
    let find = |name: &str| spans.iter().find(|(_, n, _, _)| n == name).unwrap();
    let (ingest, analyze) = (find("ingest"), find("analyze"));
    let (facts, documents) = (find("facts"), find("documents"));
    for (before, after) in [(ingest, analyze), (analyze, facts), (facts, documents)] {
        assert_eq!(
            before.0, after.0,
            "{} and {} on different threads",
            before.1, after.1
        );
        assert!(
            before.3 <= after.2,
            "{} starts before {} ends",
            after.1,
            before.1
        );
    }
    for (outer, inner) in [
        (ingest, "walk"),
        (ingest, "read"),
        (ingest, "ingest_file"),
        (ingest, "extract_stream"),
        (analyze, "gather"),
        (analyze, "analyze_apps"),
    ] {
        for span in spans.iter().filter(|(_, n, _, _)| n == inner) {
            assert_eq!(outer.0, span.0, "{}/{inner} on different threads", outer.1);
            assert!(
                outer.2 <= span.2 && span.3 <= outer.3,
                "{inner} span not nested inside {}",
                outer.1
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `.prom`/`.txt` metrics paths switch the export to Prometheus text.
#[test]
fn prom_extension_selects_prometheus_text() {
    let dir = tmp("prom");
    let _ = std::fs::remove_dir_all(&dir);
    write_corpus(&dir);
    let metrics = dir.join("metrics.prom");
    let out = bin()
        .arg(&dir)
        .args(["--threads", "1", "--quiet"])
        .args(["--metrics-out", metrics.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = std::fs::read_to_string(&metrics).unwrap();
    assert!(text.contains("# TYPE analyze_apps_total counter"), "{text}");
    assert!(text.contains("analyze_apps_total 1"), "{text}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Every report ends with the per-source parse-coverage summary, and
/// unmatched scheduling-relevant lines raise a drift warning.
#[test]
fn report_includes_parse_coverage_and_drift_warning() {
    let dir = tmp("coverage");
    let _ = std::fs::remove_dir_all(&dir);
    write_two_app_corpus(&dir);
    let out = bin().arg(&dir).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("Parse coverage (matched/unmatched/ignored):"),
        "{stdout}"
    );
    assert!(
        stdout.contains("coverage warning: resourcemanager"),
        "{stdout}"
    );

    // The clean single-app corpus must not warn.
    let clean = tmp("coverage_clean");
    let _ = std::fs::remove_dir_all(&clean);
    write_corpus(&clean);
    let out = bin().arg(&clean).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Parse coverage"), "{stdout}");
    assert!(!stdout.contains("coverage warning"), "{stdout}");
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&clean).unwrap();
}

/// `--quiet` silences the informational stderr lines but not the report.
#[test]
fn quiet_suppresses_info_lines() {
    let dir = tmp("quiet");
    let _ = std::fs::remove_dir_all(&dir);
    write_corpus(&dir);
    let csv = dir.join("out.csv");
    let loud = bin()
        .arg(&dir)
        .args(["--csv", csv.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(loud.status.success());
    assert!(String::from_utf8_lossy(&loud.stderr).contains("wrote per-application CSV"));

    let quiet = bin()
        .arg(&dir)
        .args(["--csv", csv.to_str().unwrap(), "--quiet"])
        .output()
        .unwrap();
    assert!(quiet.status.success());
    assert!(
        quiet.stderr.is_empty(),
        "--quiet left stderr output: {}",
        String::from_utf8_lossy(&quiet.stderr)
    );
    assert_eq!(loud.stdout, quiet.stdout, "--quiet must not change stdout");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `sdchecker <dir> | head -0`: a reader that goes away costs the rest
/// of stdout and nothing else — no panic, exit 0, every requested file
/// written as if nobody had been listening at all.
#[test]
fn closed_stdout_pipe_still_writes_the_requested_files() {
    let dir = tmp("epipe");
    let _ = std::fs::remove_dir_all(&dir);
    let app = write_two_app_corpus(&dir);
    let (calm, piped) = (dir.join("calm.json"), dir.join("piped.json"));
    let undisturbed = bin()
        .arg(&dir)
        .args(["--quiet", "--report-json", calm.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(undisturbed.status.success());

    let mut child = bin()
        .arg(&dir)
        .args(["--quiet", "--report-json", piped.to_str().unwrap()])
        .args(["--timeline", &app.to_string()])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    // The read end closes while the child is still starting up, long
    // before it has a report to print.
    drop(child.stdout.take());
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert_eq!(
        std::fs::read(&piped).unwrap(),
        std::fs::read(&calm).unwrap(),
        "--report-json under a closed pipe"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn help_exits_zero() {
    let out = bin().arg("--help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage: sdchecker"));
}

/// Run `bin` with `args`: a usage error exits 2, and the first line of
/// stderr names what was wrong with the command line.
fn assert_usage_error(bin: &str, args: &[&str], names: &str) {
    let out = Command::new(bin).args(args).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    let first = stderr.lines().next().unwrap_or_default();
    assert!(first.contains(names), "{args:?}: {first}");
}

#[test]
fn rejects_bad_usage() {
    for (args, names) in [
        (&[][..], "<log-dir>"),
        (&["dir", "--bogus"], "--bogus"),
        (&["dir", "--dot", "not-an-app-id", "x.dot"], "--dot"),
        (&["dir", "--dot", "application_1521018000000_0001"], "--dot"),
        (&["dir", "--timeline", "app_1"], "--timeline"),
        (&["dir", "--threads", "0"], "--threads"),
        (&["dir", "--threads", "many"], "--threads"),
        // A flag where the log directory should be.
        (&["--quiet"], "--quiet"),
        (&["dir", "--csv"], "--csv"),
        // Observability flags with missing values.
        (&["dir", "--trace-out"], "--trace-out"),
        (&["dir", "--metrics-out"], "--metrics-out"),
        (&["dir", "--app-trace-out"], "--app-trace-out"),
        (&["dir", "--report-json"], "--report-json"),
    ] {
        assert_usage_error(env!("CARGO_BIN_EXE_sdchecker"), args, names);
    }
}

/// Opened on a full device, stderr cannot take the reason a run stops
/// for; the exit code is still the contract's, not a panic's 101.
#[cfg(target_os = "linux")]
#[test]
fn a_full_stderr_leaves_exit_codes_alone() {
    for (bin, args, code) in [
        (env!("CARGO_BIN_EXE_sdchecker"), &["dir", "--bogus"][..], 2),
        (env!("CARGO_BIN_EXE_sdcheckerd"), &["dir", "--bogus"], 2),
        (env!("CARGO_BIN_EXE_sdchecker"), &["/nonexistent/logs"], 1),
        (env!("CARGO_BIN_EXE_sdcheckerd"), &["/nonexistent/logs"], 1),
    ] {
        let full = std::fs::OpenOptions::new()
            .write(true)
            .open("/dev/full")
            .unwrap();
        let status = Command::new(bin)
            .args(args)
            .stdout(Stdio::null())
            .stderr(full)
            .status()
            .unwrap();
        assert_eq!(status.code(), Some(code), "{bin} {args:?}");
    }
}

/// A document the device will not take fails the run: exit 1 and the
/// file named on stderr, not a panic and not a run that looks fine.
#[cfg(target_os = "linux")]
#[test]
fn a_failed_document_write_fails_the_run() {
    let dir = tmp("full_device");
    let _ = std::fs::remove_dir_all(&dir);
    write_two_app_corpus(&dir);
    for flag in ["--report-json", "--wide-events-out"] {
        let out = bin()
            .arg(&dir)
            .args(["--quiet", flag, "/dev/full"])
            .stdout(Stdio::null())
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag}: {stderr}");
        assert!(
            stderr.contains("failed to write /dev/full"),
            "{flag}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{flag}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Golden-file test: on the fixed two-app corpus, `--report-json` must be
/// byte-for-byte stable (it is consumed by scripts and diffed in CI).
/// Refresh with `UPDATE_GOLDEN=1 cargo test -p sdchecker --test cli` after
/// an intentional schema change.
#[test]
fn report_json_matches_golden() {
    let dir = tmp("report_json");
    let _ = std::fs::remove_dir_all(&dir);
    write_two_app_corpus(&dir);
    let report = dir.join("report.json");
    let out = bin()
        .arg(&dir)
        .args(["--threads", "1", "--quiet"])
        .args(["--report-json", report.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let got = std::fs::read_to_string(&report).unwrap();

    // Structural checks first, so failures explain themselves even while
    // the golden file is being regenerated.
    let doc = obs::json::parse(&got).expect("report must be valid JSON");
    assert_eq!(
        doc.get("schema").unwrap().as_str(),
        Some("sdchecker-report-v1")
    );
    let apps = doc.get("applications").unwrap().as_arr().unwrap().to_vec();
    assert_eq!(apps.len(), 2);
    // App 1 is complete: known end-to-end delay, and the critical path's
    // segment durations must sum to it exactly.
    let complete = apps
        .iter()
        .find(|a| {
            a.get("critical_path")
                .and_then(|c| c.get("segments"))
                .is_some()
        })
        .expect("one app with a critical path");
    let delays = complete.get("delays").unwrap();
    assert_eq!(delays.get("total_ms").unwrap().as_f64(), Some(10_900.0));
    let crit = complete.get("critical_path").unwrap();
    assert_eq!(crit.get("total_ms").unwrap().as_f64(), Some(10_900.0));
    let segs = crit.get("segments").unwrap().as_arr().unwrap();
    let sum: f64 = segs
        .iter()
        .map(|s| s.get("dur_ms").unwrap().as_f64().unwrap())
        .sum();
    assert_eq!(sum, 10_900.0, "critical path must tile the total delay");
    // Fleet sketches cover the same population.
    let fleet = doc.get("fleet").unwrap();
    assert_eq!(fleet.get("applications").unwrap().as_f64(), Some(2.0));
    let total = fleet
        .get("app_components_ms")
        .unwrap()
        .get("total")
        .unwrap();
    assert_eq!(total.get("count").unwrap().as_f64(), Some(1.0));

    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/report.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(golden.parent().unwrap()).unwrap();
        std::fs::write(&golden, &got).unwrap();
    }
    let want = std::fs::read_to_string(&golden).expect("golden file missing; see test doc");
    assert_eq!(
        got, want,
        "report JSON drifted from tests/golden/report.json"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The app-time trace must be valid JSON whose complete events nest
/// properly within every (pid, tid) lane, carry sim-time timestamps, and
/// include per-process metadata naming each application.
#[test]
fn app_trace_is_structurally_valid() {
    let dir = tmp("apptrace");
    let _ = std::fs::remove_dir_all(&dir);
    write_two_app_corpus(&dir);
    let trace = dir.join("apptrace.json");
    let out = bin()
        .arg(&dir)
        .args(["--threads", "1", "--quiet"])
        .args(["--app-trace-out", trace.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&trace).unwrap();
    let doc = obs::json::parse(&text).expect("app trace must be valid JSON");
    let events = doc.get("traceEvents").unwrap().as_arr().unwrap().to_vec();

    // One process per application, named after it.
    let process_names: Vec<String> = events
        .iter()
        .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("process_name"))
        .filter_map(|e| e.get("args")?.get("name")?.as_str().map(str::to_string))
        .collect();
    assert_eq!(process_names.len(), 2, "{process_names:?}");
    assert!(process_names.iter().all(|n| n.contains("application_")));

    // Collect complete events as (pid, tid, name, start, end).
    let mut spans: Vec<(u64, u64, String, u64, u64)> = Vec::new();
    for e in &events {
        if e.get("ph").and_then(|p| p.as_str()) != Some("X") {
            continue;
        }
        let pid = e.get("pid").unwrap().as_f64().unwrap() as u64;
        let tid = e.get("tid").unwrap().as_f64().unwrap() as u64;
        let name = e.get("name").unwrap().as_str().unwrap().to_string();
        let ts = e.get("ts").unwrap().as_f64().unwrap() as u64;
        let dur = e.get("dur").unwrap().as_f64().unwrap() as u64;
        spans.push((pid, tid, name, ts, ts + dur));
    }
    // App 1 submitted at 100 ms log time → 100_000 µs in the trace.
    let total = spans
        .iter()
        .find(|(_, _, n, _, _)| n == "total_scheduling_delay")
        .expect("total_scheduling_delay slice");
    assert_eq!(total.3, 100_000, "trace must use log time, not wall time");
    assert_eq!(total.4 - total.3, 10_900_000);

    // Within each (pid, tid) lane, slices must be nested or disjoint.
    for (i, a) in spans.iter().enumerate() {
        for b in &spans[i + 1..] {
            if (a.0, a.1) != (b.0, b.1) {
                continue;
            }
            let disjoint = a.4 <= b.3 || b.4 <= a.3;
            let nested = (a.3 <= b.3 && b.4 <= a.4) || (b.3 <= a.3 && a.4 <= b.4);
            assert!(
                disjoint || nested,
                "slices {a:?} and {b:?} partially overlap in lane ({}, {})",
                a.0,
                a.1
            );
        }
    }

    // The critical-path lane (tid 3 in every process) tiles the full
    // delay and is linked by flow arrows.
    let crit: Vec<_> = spans
        .iter()
        .filter(|(pid, tid, _, _, _)| *pid == 1 && *tid == 3)
        .collect();
    assert!(!crit.is_empty(), "no critical-path slices");
    let crit_sum: u64 = crit.iter().map(|(_, _, _, s, e)| e - s).sum();
    assert_eq!(crit_sum, 10_900_000, "critical lane must tile the delay");
    let flow_starts = events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("s"))
        .count();
    let flow_ends = events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("f"))
        .count();
    assert_eq!(flow_starts, flow_ends);
    assert!(flow_starts > 0, "critical path must be linked by flows");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fails_cleanly_on_missing_dir() {
    let out = bin()
        .arg("/nonexistent/definitely/missing")
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("failed to read logs"));
}
