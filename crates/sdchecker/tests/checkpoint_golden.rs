//! `checkpoint-v2` is a frozen byte format: a daemon upgraded in place
//! must resume from the file its predecessor wrote.
//!
//! `tests/golden/checkpoint-v2.bin` was written when the schema went to
//! `checkpoint-v2` (each stream cursor carries the positional rules'
//! state), from the scenario below — the faulty fleet streamed to a
//! fixed mid-stream boundary with alerts on, so every section is
//! non-trivial: an app in flight, a held-back partial line, promoted
//! exemplars, alert samples, anomalous-line timestamps and a transition.
//! Its `checkpoint-v1` predecessor, written before the codec moved next
//! to the types it serializes, held the same scenario. The test requires
//! that today's code (a) encodes the same live state to the same bytes,
//! (b) loads the old file, and (c) re-saves what it loaded byte for
//! byte.
//!
//! `UPDATE_GOLDEN=1 cargo test -p sdchecker --test checkpoint_golden`
//! rewrites the fixture from the current code. Do that only together
//! with a `CHECKPOINT_SCHEMA` bump: refreshing it for any other reason
//! un-freezes the format this test exists to pin.

mod common;

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use logmodel::{format_line, Epoch, LogSource, LogStore, TsMs};
use sdchecker::checkpoint::{self, CfgFingerprint, CheckpointStore, SaveInputs};
use sdchecker::{
    default_rules, AlertEngine, DirTailer, IncrementalAnalyzer, IncrementalConfig, Outcome,
};

const ALERT_EVAL_MS: u64 = 1_000;
const SLO_MS: u64 = 1;
/// Log-time instants after which the scenario polls. The last one is
/// past the corpus: everything is on disk except the tail of app 3's
/// final driver line.
const BOUNDARIES: [u64; 3] = [61_000, 121_000, u64::MAX];
/// Bytes of that final driver line left unwritten.
const HELD_BACK: usize = 30;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sdckpt_golden_{name}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn cfg() -> IncrementalConfig {
    IncrementalConfig {
        settle_ms: 1_000,
        idle_timeout_ms: 0,
        exemplar_slots: 3,
    }
}

fn fingerprint() -> CfgFingerprint {
    let c = cfg();
    CfgFingerprint {
        settle_ms: c.settle_ms,
        idle_timeout_ms: c.idle_timeout_ms,
        exemplar_slots: c.exemplar_slots as u64,
        alerts: true,
        slo_ms: SLO_MS,
        eval_interval_ms: ALERT_EVAL_MS,
    }
}

struct Live {
    tailer: DirTailer,
    analyzer: IncrementalAnalyzer,
    engine: AlertEngine,
    wide_bytes: u64,
}

impl Live {
    fn save(&self, store: &CheckpointStore) -> Vec<u8> {
        checkpoint::save(
            store,
            &SaveInputs {
                tailer: &self.tailer,
                analyzer: &self.analyzer,
                engine: Some(&self.engine),
                fingerprint: &fingerprint(),
                wide_bytes: self.wide_bytes,
                writes_total: BOUNDARIES.len() as u64,
                recoveries: 1,
            },
        )
        .unwrap();
        fs::read(store.current_path()).unwrap()
    }
}

/// Stream the faulty fleet into `dir` in log-time order, polling the
/// daemon's pipeline at each of [`BOUNDARIES`].
fn stream_to_boundary(dir: &Path) -> Live {
    let mut logs = LogStore::new(Epoch::default_run());
    let (_, _, a3) = common::populate_faulty_fleet(&mut logs);
    fs::write(dir.join("epoch.txt"), format!("{}\n", logs.epoch().unix_ms)).unwrap();

    let mut live = Live {
        tailer: DirTailer::new(dir).unwrap(),
        analyzer: IncrementalAnalyzer::new(cfg()),
        engine: AlertEngine::new(default_rules(SLO_MS), ALERT_EVAL_MS),
        wide_bytes: 0,
    };
    let mut written = 0u64;
    for upto in BOUNDARIES {
        for src in logs.sources() {
            let mut fresh = String::new();
            for r in logs.records(src).iter() {
                if r.ts.0 > written && r.ts.0 <= upto {
                    fresh.push_str(&format_line(logs.epoch(), r));
                    fresh.push('\n');
                }
            }
            if upto == u64::MAX && src == LogSource::Driver(a3) {
                fresh.truncate(fresh.len() - HELD_BACK);
            }
            if fresh.is_empty() {
                continue;
            }
            let path = dir.join(src.rel_path());
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            let mut f = fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(fresh.as_bytes()).unwrap();
        }
        written = upto;

        for (src, rec) in live.tailer.poll().unwrap() {
            if live.analyzer.ingest(src, &rec) == Outcome::Anomalous {
                live.engine.observe_anomalous(rec.ts);
            }
        }
        for r in live.analyzer.drain_ready() {
            live.engine.observe_retirement(r.retire_ms, &r.delays);
            live.wide_bytes += r.wide_event.len() as u64 + 1;
        }
        live.engine.set_live_lag(live.tailer.lag().bytes);
        let watermark = live.analyzer.watermark().unwrap_or(TsMs(0));
        let _ = live.engine.advance(watermark);
    }
    live
}

#[test]
fn parent_written_checkpoint_loads_and_resaves_byte_for_byte() {
    let dir = tmp("fixture");
    let logs = dir.join("logs");
    fs::create_dir_all(&logs).unwrap();
    let live = stream_to_boundary(&logs);

    // The boundary really exercises every section.
    assert_eq!(live.analyzer.retired(), 2);
    assert_eq!(live.analyzer.in_flight(), 1, "app 3 is mid-flight");
    assert!(live.analyzer.events_buffered() > 0);
    assert!(live.analyzer.exemplars().promoted_apps() > 0);
    assert!(live.analyzer.exemplars().events_retained() > 0);
    assert!(live.tailer.lag().bytes > 0, "a partial line is held back");
    assert!(live.engine.transitions_total() > 0);
    assert!(live.wide_bytes > 0);

    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/checkpoint-v2.bin");
    let encoded = live.save(&CheckpointStore::open(&dir.join("live")).unwrap());
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::write(&golden, &encoded).unwrap();
    }
    let want = fs::read(&golden).expect("fixture missing; see the module docs");
    assert!(
        encoded == want,
        "live state no longer encodes to the frozen checkpoint-v2 bytes"
    );

    // The frozen file, not the one just written, is what gets loaded.
    let store = CheckpointStore::open(&dir.join("frozen")).unwrap();
    fs::write(store.current_path(), &want).unwrap();
    let mut engine = AlertEngine::new(default_rules(SLO_MS), ALERT_EVAL_MS);
    let (restored, warnings) = checkpoint::load(&store, &logs, &fingerprint(), Some(&mut engine));
    assert!(warnings.is_empty(), "{warnings:?}");
    let r = restored.expect("the frozen checkpoint restores");
    assert_eq!(r.generation, "current");
    assert_eq!(r.bytes, want.len() as u64);
    assert_eq!(r.writes_total, BOUNDARIES.len() as u64);
    assert_eq!(r.recoveries, 1);
    assert_eq!(r.wide_bytes, live.wide_bytes);
    let resumed = Live {
        tailer: r.tailer,
        analyzer: r.analyzer,
        engine,
        wide_bytes: r.wide_bytes,
    };
    assert!(
        resumed.save(&store) == want,
        "load then save changed the checkpoint bytes"
    );
    // What was restored is the state that was saved, not just bytes
    // that happen to re-encode.
    assert_eq!(
        resumed.analyzer.live_report_json(None),
        live.analyzer.live_report_json(None)
    );
    assert_eq!(
        resumed.analyzer.exemplars().index_json(),
        live.analyzer.exemplars().index_json()
    );
    assert_eq!(resumed.engine.alerts_json(), live.engine.alerts_json());
    let _ = fs::remove_dir_all(&dir);
}
