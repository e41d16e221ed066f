//! The daemon's documents that no other golden pins: `/alerts`,
//! `/exemplars`, the final `sdcheckerd-report-v1` (no tail section) and
//! one exemplar's Perfetto trace, byte for byte.
//!
//! The scenario is the faulty fleet fed in log-time order, one record at
//! a time, with the default alert rules at a 1 ms SLO: its corrupt-id
//! line takes `anomalous_parse` through pending and firing, so the
//! transition log is non-empty, and the clean application is promoted as
//! an exemplar. The shutdown sequence is the daemon's: `finish()`, one
//! alert interval past the watermark, then `close_out`.
//!
//! `UPDATE_GOLDEN=1 cargo test -p sdchecker --test daemon_documents_golden`
//! rewrites the four files from the current code. A change that only
//! moves how the documents are written must leave them as they are.

mod common;

use std::fs;
use std::path::PathBuf;

use logmodel::{Epoch, LogStore, TsMs};
use sdchecker::{
    default_rules, AlertEngine, IncrementalAnalyzer, IncrementalConfig, Outcome, RetiredApp,
};

const ALERT_EVAL_MS: u64 = 1_000;
const SLO_MS: u64 = 1;

/// The four documents, named by their golden files.
fn documents() -> [(&'static str, String); 4] {
    let mut logs = LogStore::new(Epoch::default_run());
    let (clean, _, _) = common::populate_faulty_fleet(&mut logs);
    let mut analyzer = IncrementalAnalyzer::new(IncrementalConfig {
        settle_ms: 1_000,
        idle_timeout_ms: 0,
        exemplar_slots: 3,
    });
    let mut engine = AlertEngine::new(default_rules(SLO_MS), ALERT_EVAL_MS);
    let observe = |engine: &mut AlertEngine, retired: Vec<RetiredApp>| {
        for r in retired {
            engine.observe_retirement(r.retire_ms, &r.delays);
        }
    };
    for (source, record) in logs.records_by_time() {
        if analyzer.ingest(source, &record.to_record()) == Outcome::Anomalous {
            engine.observe_anomalous(record.ts);
        }
        observe(&mut engine, analyzer.drain_ready());
        engine.advance(analyzer.watermark().unwrap_or(TsMs::ZERO));
    }
    observe(&mut engine, analyzer.finish());
    let end = TsMs(analyzer.watermark().map_or(0, |w| w.0) + ALERT_EVAL_MS);
    engine.advance(end);
    engine.close_out(end);

    assert!(
        engine.transitions_total() > 0,
        "the transition log is empty"
    );
    assert!(analyzer.exemplars().promoted_apps() > 0);
    let trace = analyzer.exemplars().trace_json(clean);
    [
        ("alerts.json", engine.alerts_json()),
        ("exemplars.json", analyzer.exemplars().index_json()),
        ("live_report.json", analyzer.live_report_json(None)),
        (
            "exemplar_trace.json",
            trace.expect("the clean app is promoted"),
        ),
    ]
}

#[test]
fn daemon_documents_match_their_goldens() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    for (name, doc) in documents() {
        obs::json::parse(&doc).unwrap_or_else(|e| panic!("{name} is not JSON: {e}"));
        let path = dir.join(name);
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            fs::write(&path, &doc).unwrap();
        }
        let want = fs::read_to_string(&path).expect("golden missing; see the module docs");
        assert!(doc == want, "{name} drifted from tests/golden/{name}");
    }
}
