//! Seeded corruption fuzzing of the `sdchecker` binary: damage a corpus
//! with `logmodel::corrupt_dir` under fixed seeds and assert the
//! robustness contract — the analyzer exits cleanly on every seed, emits
//! valid JSON, and accounts for each application it can still see exactly
//! once. Fixed seeds keep runs reproducible (CI runs this exact set); a
//! failure replays from its seed bit-for-bit.

mod common;

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use logmodel::{corrupt_dir, CorruptConfig, Epoch, LogSource, LogStore, Parallelism, TsMs};
use obs::json::Json;
use sdchecker::extract::CoverageCounts;
use sdchecker::{
    analyze_dir, default_rules, full_report, report_json, wide_events_for_analysis, AlertEngine,
    Extractor, IncrementalAnalyzer, IncrementalConfig, Outcome, Report, StreamCursor,
};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sdchecker"))
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sdchecker_fuzz_{name}_{}", std::process::id()))
}

/// Write a fresh mixed-fleet corpus (clean + failed + truncated apps).
fn write_fleet(dir: &PathBuf) {
    let _ = fs::remove_dir_all(dir);
    let mut s = LogStore::new(Epoch::default_run());
    common::populate_faulty_fleet(&mut s);
    s.write_dir(dir).unwrap();
}

/// In-process: one [`Report`] renders exactly what the three wrapper
/// functions render, in any order, and both JSON documents parse —
/// whatever the corpus holds. Returns the parsed `report-v1` document.
fn check_documents(dir: &Path, label: &str) -> obs::json::Json {
    let an = analyze_dir(dir).unwrap();
    let report = Report::new(&an);
    let wide = report.wide_events();
    let json = report.json();
    assert_eq!(report.text(), full_report(&an), "[{label}] text report");
    assert_eq!(json, report_json(&an), "[{label}] report-v1");
    assert_eq!(
        wide,
        wide_events_for_analysis(&an),
        "[{label}] wide-events-v1"
    );
    assert_eq!(wide.lines().count(), an.delays.len(), "[{label}]");
    for line in wide.lines() {
        let doc = obs::json::parse(line)
            .unwrap_or_else(|e| panic!("[{label}] wide event must be valid JSON: {e}\n{line}"));
        let app = doc.get("app").and_then(|a| a.as_str()).unwrap();
        let name = an.name_of(app.parse().unwrap());
        assert_eq!(doc.get("name").and_then(|n| n.as_str()), name, "[{label}]");
    }
    obs::json::parse(&json).unwrap_or_else(|e| panic!("[{label}] report must be valid JSON: {e}"))
}

/// Run the binary over `dir` and enforce the contract: clean exit, valid
/// JSON report, unique app ids, fleet count consistent with the app list,
/// and failure counters that never exceed the population.
fn check_contract(dir: &PathBuf, label: &str) {
    check_documents(dir, label);
    let report = dir.join("report.json");
    let out = bin()
        .arg(dir)
        .args(["--threads", "2", "--quiet"])
        .args(["--report-json", report.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "[{label}] analyzer must exit cleanly on damaged input; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = fs::read_to_string(&report).unwrap();
    let doc = obs::json::parse(&json)
        .unwrap_or_else(|e| panic!("[{label}] report must stay valid JSON: {e:?}"));
    let apps = doc.get("applications").unwrap().as_arr().unwrap().to_vec();
    let mut ids: Vec<String> = apps
        .iter()
        .map(|a| a.get("app").unwrap().as_str().unwrap().to_string())
        .collect();
    let n = ids.len();
    ids.sort();
    ids.dedup();
    assert_eq!(ids.len(), n, "[{label}] every app accounted exactly once");
    assert_eq!(
        doc.get("fleet")
            .unwrap()
            .get("applications")
            .unwrap()
            .as_f64(),
        Some(n as f64),
        "[{label}] fleet count must match the application list"
    );
    if let Some(failures) = doc.get("failures") {
        let failed = failures.get("failed").unwrap().as_f64().unwrap();
        let killed = failures.get("killed").unwrap().as_f64().unwrap();
        let retried = failures.get("retried_apps").unwrap().as_f64().unwrap();
        assert!(
            failed + killed <= n as f64 && retried <= n as f64,
            "[{label}] failure counters bounded by the population"
        );
        for f in failures.get("apps").unwrap().as_arr().unwrap() {
            let outcome = f.get("outcome").unwrap().as_str().unwrap();
            assert!(
                ["completed", "failed", "killed", "truncated"].contains(&outcome),
                "[{label}] unknown outcome label {outcome}"
            );
        }
    }
}

/// The undamaged fleet itself must satisfy the contract and surface its
/// known failures (baseline for the corruption sweep below).
#[test]
fn pristine_fleet_reports_failures() {
    let dir = tmp("pristine");
    write_fleet(&dir);
    check_contract(&dir, "pristine");
    let json = fs::read_to_string(dir.join("report.json")).unwrap();
    let doc = obs::json::parse(&json).unwrap();
    let failures = doc.get("failures").expect("fleet has a failed app");
    assert_eq!(failures.get("failed").unwrap().as_f64(), Some(1.0));
    assert_eq!(failures.get("retried_apps").unwrap().as_f64(), Some(1.0));
    assert_eq!(failures.get("anomalous_lines").unwrap().as_f64(), Some(1.0));
    fs::remove_dir_all(&dir).unwrap();
}

/// Default damage profile across fixed seeds: no panic, conservation
/// holds on every one.
#[test]
fn corrupted_corpora_never_panic_default_profile() {
    for seed in [7u64, 21, 99, 1234, 31337] {
        let dir = tmp(&format!("d{seed}"));
        write_fleet(&dir);
        let report = corrupt_dir(&dir, seed, &CorruptConfig::default()).unwrap();
        check_contract(&dir, &format!("default seed {seed} ({report:?})"));
        fs::remove_dir_all(&dir).unwrap();
    }
}

/// Severe damage profile: most files hit, many lines mangled. The
/// analyzer may lose applications entirely but must never crash or
/// double-count what remains.
#[test]
fn corrupted_corpora_never_panic_severe_profile() {
    for seed in [3u64, 58, 777, 9001, 123_456_789] {
        let dir = tmp(&format!("s{seed}"));
        write_fleet(&dir);
        let report = corrupt_dir(&dir, seed, &CorruptConfig::severe()).unwrap();
        assert!(
            report.files_damaged > 0,
            "severe profile should always land damage"
        );
        check_contract(&dir, &format!("severe seed {seed} ({report:?})"));
        fs::remove_dir_all(&dir).unwrap();
    }
}

/// Every event extracted from a stream derives that stream as its
/// `source()`, the stream's node as its `node()`, and a container of its
/// own application — exactly what `SchedEvent` stored as fields before
/// it derived them — on the checked-in damaged corpus and on the fleet
/// under every seeded damage profile above.
#[test]
fn every_event_derives_the_stream_it_was_extracted_from() {
    let ex = Extractor::new();
    let check = |dir: &Path, label: &str| {
        let store = LogStore::read_dir_with(dir, Parallelism::ONE).unwrap();
        let mut events = 0;
        for source in store.sources() {
            let node = match source {
                LogSource::NodeManager(n) => Some(n),
                _ => None,
            };
            let mut cursor = StreamCursor::default();
            let (mut evs, mut cov) = (Vec::new(), CoverageCounts::default());
            for r in store.records(source).iter() {
                cursor.step(&ex, source, &r, &mut evs, &mut cov);
            }
            for ev in evs {
                assert_eq!(ev.source(), source, "[{label}] {ev:?}");
                assert_eq!(ev.node(), node, "[{label}] {ev:?}");
                if let Some(cid) = ev.container() {
                    assert_eq!(cid.app(), ev.app, "[{label}] {ev:?}");
                }
                events += 1;
            }
        }
        assert!(events > 0, "[{label}] the corpus yields events");
    };
    check(
        &PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus"),
        "tests/corpus",
    );
    let profiles = [
        ([7u64, 21, 99, 1234, 31337], CorruptConfig::default()),
        ([3, 58, 777, 9001, 123_456_789], CorruptConfig::severe()),
    ];
    for (seeds, cfg) in profiles {
        for seed in seeds {
            let dir = tmp(&format!("src{seed}"));
            write_fleet(&dir);
            corrupt_dir(&dir, seed, &cfg).unwrap();
            check(&dir, &format!("seed {seed}"));
            fs::remove_dir_all(&dir).unwrap();
        }
    }
}

/// Parse a document that must be JSON.
fn must_parse(what: &str, doc: &str) -> Json {
    obs::json::parse(doc).unwrap_or_else(|e| panic!("{what} must be valid JSON: {e}\n{doc}"))
}

/// Driver banners are free text: application names with quotes,
/// backslashes, control characters and multi-byte text must come back
/// out of every document that names an application — `report-v1`, the
/// wide events, `/exemplars` and each exemplar's trace — exactly as they
/// went in, and the daemon's other documents must stay JSON around them.
#[test]
fn hostile_application_names_round_trip_through_both_documents() {
    let names = [
        "all of it: \" \\ \u{1} \u{7f} múlti → 日本 🦀",
        "q \"7\" \\ end",
        "tab\there \u{1}\u{1f} bell",
        "\"}], \"injected\": [{\"",
        "\\\\\"\\n not a newline",
        "múlti-býte → 日本語 🦀",
        "\u{7f} del and trailing backslash \\",
    ];
    let dir = tmp("hostile");
    let _ = fs::remove_dir_all(&dir);
    let mut s = LogStore::new(Epoch::default_run());
    common::populate_faulty_fleet(&mut s);
    let cts = Epoch::default_run().unix_ms;
    for (i, name) in names.iter().enumerate() {
        let app = logmodel::ApplicationId::new(cts, 10 + i as u32);
        let ts = 300_000 + 1_000 * i as u64;
        s.info(
            LogSource::ResourceManager,
            TsMs(ts),
            "RMAppImpl",
            format!("{app} State change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED"),
        );
        s.info(
            LogSource::Driver(app),
            TsMs(ts + 500),
            "ApplicationMaster",
            format!("Starting ApplicationMaster for {name}"),
        );
        // A driver delay, so the application ranks among the exemplars.
        s.info(
            LogSource::Driver(app),
            TsMs(ts + 900),
            "ApplicationMaster",
            "Registered with ResourceManager as attempt",
        );
    }
    s.write_dir(&dir).unwrap();
    let doc = check_documents(&dir, "hostile names");
    let reported: Vec<&str> = doc
        .get("applications")
        .and_then(|a| a.as_arr())
        .unwrap()
        .iter()
        .filter_map(|a| a.get("name").and_then(|n| n.as_str()))
        .collect();
    for name in names {
        assert!(
            reported.contains(&name),
            "{name:?} missing from {reported:?}"
        );
    }

    // The daemon's side, over the same corpus, with alerts on. Its live
    // report and `/alerts` name no application (sketch exemplars are
    // labelled by id), so parsing is the whole check for them; the
    // exemplar index and traces name every promoted one.
    let mut inc = IncrementalAnalyzer::new(IncrementalConfig {
        exemplar_slots: names.len() + 3,
        ..IncrementalConfig::default()
    });
    let mut alerts = AlertEngine::new(default_rules(1), 1_000);
    for (source, record) in s.records_by_time() {
        if inc.ingest(source, &record.to_record()) == Outcome::Anomalous {
            alerts.observe_anomalous(record.ts);
        }
    }
    for r in inc.finish() {
        alerts.observe_retirement(r.retire_ms, &r.delays);
    }
    alerts.advance(TsMs(inc.watermark().unwrap().0 + 1_000));
    assert!(alerts.transitions_total() > 0);
    must_parse("the alerts", &alerts.alerts_json());
    must_parse("the live report", &inc.live_report_json(None));
    let index = must_parse("the exemplar index", &inc.exemplars().index_json());
    let mut promoted = Vec::new();
    for p in inc.exemplars().iter() {
        let detail = index.get("apps").and_then(|a| a.get(&p.app.to_string()));
        let name = detail.and_then(|d| d.get("name")?.as_str());
        assert_eq!(name, p.name.as_deref(), "{}", p.app);
        let trace = must_parse(
            "an exemplar trace",
            &inc.exemplars().trace_json(p.app).unwrap(),
        );
        let events = trace.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        let process = events
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("process_name"))
            .and_then(|e| e.get("args")?.get("name")?.as_str())
            .unwrap();
        if let Some(name) = name {
            assert_eq!(process, format!("{} ({name})", p.app));
            promoted.push(name.to_string());
        }
    }
    for name in names {
        assert!(
            promoted.iter().any(|p| p == name),
            "{name:?} missing from {promoted:?}"
        );
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// The two exporters every binary writes with `--metrics-out` and
/// `--trace-out` keep hostile label values and span arguments intact:
/// the metrics file keys each series by its rendered name, escaped, and
/// the trace carries each argument as it was given.
#[test]
fn metrics_and_trace_files_round_trip_hostile_labels_and_span_args() {
    let hostile = "q \"1\" \\ \u{1}\u{7f} múlti → 日本 🦀\n";
    let r = obs::Recorder::new();
    r.enable();
    r.count_labeled("apps_total", &[("name", hostile)], 3);
    r.sketch_observe_labeled("delay_ms", &[("name", hostile)], 40);
    r.gauge_set("ratio", 0.5);
    {
        let _span = r.span("analyze").arg("file", hostile).arg("n", 7);
    }
    let snap = r.snapshot();
    let metrics = must_parse("the metrics file", &obs::metrics_json(&snap));
    let key = |name| obs::MetricKey::labeled(name, &[("name", hostile)]).render();
    let counter = metrics
        .get("counters")
        .and_then(|c| c.get(&key("apps_total")));
    assert_eq!(counter.and_then(Json::as_f64), Some(3.0));
    let sketch = metrics
        .get("sketches")
        .and_then(|c| c.get(&key("delay_ms")));
    assert_eq!(sketch.and_then(|s| s.get("max")?.as_f64()), Some(40.0));
    let trace = must_parse("the trace file", &obs::chrome_trace(&snap));
    let events = trace.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
    let span = events
        .iter()
        .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("analyze"))
        .and_then(|e| e.get("args"))
        .unwrap();
    assert_eq!(span.get("file").and_then(|f| f.as_str()), Some(hostile));
    assert_eq!(span.get("n").and_then(|f| f.as_str()), Some("7"));
}
