//! Cross-crate integration: simulator → on-disk log corpus → SDchecker,
//! exactly the offline workflow the paper describes (§III-B: "users first
//! need to run a bunch of data analytics applications ... After these
//! applications complete, SDchecker is able to collect both Yarn's logs
//! and applications' logs").

use logmodel::{LogSource, LogStore};
use sdchecker::EventKind;
use simkit::{Millis, SimRng};
use sparksim::{profiles, simulate};
use workloads::{tpch_stream, TraceParams};
use yarnsim::ClusterConfig;

fn small_trace(n: usize, seed: u64) -> (logmodel::LogStore, Vec<sparksim::JobSummary>) {
    let mut rng = SimRng::new(seed);
    let arrivals = tpch_stream(n, 2048.0, 4, &TraceParams::moderate(), &mut rng);
    simulate(
        ClusterConfig::default(),
        seed,
        arrivals,
        Millis::from_mins(240),
    )
}

#[test]
fn disk_roundtrip_preserves_analysis() {
    let (logs, summaries) = small_trace(12, 404);
    assert_eq!(summaries.len(), 12);

    let dir = std::env::temp_dir().join(format!("sdchecker_e2e_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    logs.write_dir(&dir).unwrap();

    let from_disk = sdchecker::analyze_dir(&dir).unwrap();
    let in_memory = sdchecker::analyze_store(&logs);
    assert_eq!(from_disk.events.len(), in_memory.events.len());
    assert_eq!(from_disk.delays.len(), in_memory.delays.len());
    for (a, b) in from_disk.delays.iter().zip(in_memory.delays.iter()) {
        assert_eq!(a.app, b.app);
        assert_eq!(a.total_ms, b.total_ms);
        assert_eq!(a.am_ms, b.am_ms);
        assert_eq!(a.in_app_ms, b.in_app_ms);
        assert_eq!(a.containers.len(), b.containers.len());
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn every_table1_event_kind_appears_in_a_real_corpus() {
    let (logs, _) = small_trace(8, 505);
    let analysis = sdchecker::analyze_store(&logs);
    use EventKind::*;
    for kind in [
        AppSubmitted,
        AppAccepted,
        AttemptRegistered,
        ContainerAllocated,
        ContainerAcquired,
        ContainerLocalizing,
        ContainerScheduled,
        ContainerNmRunning,
        DriverFirstLog,
        DriverRegistered,
        StartAllo,
        EndAllo,
        ExecutorFirstLog,
        TaskAssigned,
    ] {
        assert!(
            analysis.events.iter().any(|e| e.kind == kind),
            "Table-I message {kind:?} (#{:?}) missing from the corpus",
            kind.table1_number()
        );
    }
}

#[test]
fn sdchecker_job_runtime_matches_simulator_ground_truth() {
    let (logs, summaries) = small_trace(6, 606);
    let analysis = sdchecker::analyze_store(&logs);
    for s in &summaries {
        let d = analysis.delays_of(s.app).expect("app analyzed");
        let measured = d.job_runtime_ms.expect("runtime measured");
        let truth = s.runtime().as_u64();
        // The log-derived runtime starts at SUBMITTED (a few ms after
        // client submission) and ends at AM unregistration: within 100 ms
        // of ground truth.
        assert!(
            truth.abs_diff(measured) < 100,
            "app {}: log runtime {measured}ms vs ground truth {truth}ms",
            s.app
        );
    }
}

#[test]
fn full_run_determinism_across_processes_shape() {
    // Byte-identical logs for identical (config, seed, arrivals).
    let (a, _) = small_trace(10, 707);
    let (b, _) = small_trace(10, 707);
    let lines = |logs: &LogStore| -> Vec<(LogSource, String)> {
        let sources = logs.sources();
        let lines = sources.flat_map(|src| logs.text(src).lines().map(move |l| (src, l)));
        lines.map(|(src, l)| (src, l.to_string())).collect()
    };
    assert_eq!(lines(&a), lines(&b));
}

#[test]
fn per_app_log_files_exist_per_container() {
    let (logs, summaries) = small_trace(5, 808);
    for s in &summaries {
        assert!(
            logs.records(LogSource::Driver(s.app)).iter().count() >= 4,
            "driver log must hold first-log, REGISTER, START/END_ALLO"
        );
        let exec_logs = logs
            .sources()
            .filter(|src| matches!(src, LogSource::Executor(c) if c.app() == s.app))
            .count();
        assert_eq!(exec_logs, 4, "one log per executor container");
    }
}

#[test]
fn mixed_framework_corpus_analyzes_cleanly() {
    // Spark + MapReduce + interference in one corpus: analysis must not
    // confuse populations (MR jobs have no total, Spark jobs do).
    let arrivals = vec![
        (Millis(100), profiles::spark_sql_default(2048.0, 4)),
        (Millis(200), profiles::mr_wordcount(1024.0)),
        (Millis(300), profiles::dfsio(4, 0.2)),
        (Millis(400), profiles::spark_wordcount(1024.0, 2)),
    ];
    let (logs, summaries) = simulate(
        ClusterConfig::default(),
        909,
        arrivals,
        Millis::from_mins(240),
    );
    assert_eq!(summaries.len(), 4, "all four jobs complete");
    let analysis = sdchecker::analyze_store(&logs);
    assert_eq!(analysis.graphs.len(), 4);
    let complete = analysis.complete_delays().count();
    assert_eq!(
        complete, 2,
        "only the two Spark jobs have first-task evidence"
    );
    // MR jobs still decompose their container-level delays.
    let mr_app = summaries.iter().find(|s| s.kind == "mr-wc").unwrap().app;
    let mr = analysis.delays_of(mr_app).unwrap();
    assert!(mr.total_ms.is_none());
    assert!(mr.am_ms.is_some(), "MR AM delay is measurable from RM logs");
    assert!(mr
        .containers
        .iter()
        .all(|c| c.localization_ms.is_some() && c.launching_ms.is_some()));
}

#[test]
fn full_report_covers_corpus() {
    let (logs, summaries) = small_trace(4, 1010);
    let analysis = sdchecker::analyze_store(&logs);
    let report = sdchecker::full_report(&analysis);
    assert!(report.contains("applications: 4 (4 with complete scheduling-delay evidence)"));
    assert!(report.contains("total sched delay"));
    assert!(report.contains("executor delay"));
    assert!(report.contains("no allocated-but-never-used containers"));
    let _ = summaries;
}

/// Hadoop's stock log4j layout prints the logger's full name
/// (`org.apache.hadoop.yarn.server.resourcemanager.rmapp.RMAppImpl`), the
/// simulator its simple name. The class gates compare the simple name, so
/// a tree rewritten to full names reads exactly as the original: the same
/// wide events, byte for byte, and the same per-family tallies.
#[test]
fn fully_qualified_logger_names_read_like_simple_ones() {
    let (logs, _) = small_trace(40, 5);
    let root = std::env::temp_dir().join(format!("sdchecker_fqcn_{}", std::process::id()));
    let (simple, full) = (root.join("simple"), root.join("full"));
    let _ = std::fs::remove_dir_all(&root);
    logs.write_dir(&simple).unwrap();
    logs.write_dir(&full).unwrap();
    let packages = [
        (
            "RMAppImpl",
            "org.apache.hadoop.yarn.server.resourcemanager.rmapp",
        ),
        (
            "RMContainerImpl",
            "org.apache.hadoop.yarn.server.resourcemanager.rmcontainer",
        ),
        (
            "ContainerImpl",
            "org.apache.hadoop.yarn.server.nodemanager.containermanager.container",
        ),
    ];
    let mut rewritten = 0;
    for entry in std::fs::read_dir(&full).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "log") {
            let mut text = std::fs::read_to_string(&path).unwrap();
            for (class, package) in packages {
                let before = text.len();
                text = text.replace(&format!(" {class}: "), &format!(" {package}.{class}: "));
                rewritten += usize::from(text.len() != before);
            }
            std::fs::write(&path, text).unwrap();
        }
    }
    assert!(rewritten >= 3, "every gated class was rewritten somewhere");

    let (a, b) = (
        sdchecker::analyze_dir(&simple).unwrap(),
        sdchecker::analyze_dir(&full).unwrap(),
    );
    assert_eq!(a.delays.len(), 40);
    assert!(a.delays.iter().all(|d| d.total_ms.is_some()));
    assert_eq!(
        sdchecker::wide_events_for_analysis(&a),
        sdchecker::wide_events_for_analysis(&b)
    );
    let tallies = |an: &sdchecker::Analysis| an.coverage.iter().collect::<Vec<_>>();
    assert_eq!(tallies(&a), tallies(&b));
    std::fs::remove_dir_all(&root).unwrap();
}
