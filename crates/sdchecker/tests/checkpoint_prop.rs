//! Property: a checkpoint is a **lossless** snapshot of the whole
//! streaming pipeline at *every* poll boundary. For random append
//! schedules we run the same scenario twice — once uninterrupted, once
//! round-tripping tailer + analyzer + alert engine through
//! `sdchecker::checkpoint` save/load at every single poll boundary
//! (simulating a crash-and-restore between every pair of polls) — and
//! require byte-identical wide events, retirement sequence, alert
//! transitions, and final report.

mod common;

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use logmodel::{Epoch, LogSource, LogStore};
use sdchecker::checkpoint::{self, CfgFingerprint, CheckpointStore, SaveInputs};
use sdchecker::{
    default_rules, AlertEngine, DirTailer, IncrementalAnalyzer, IncrementalConfig, Outcome,
    Transition,
};
use simkit::SimRng;

const ALERT_EVAL_MS: u64 = 1_000;
const SLO_MS: u64 = 1;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sdckpt_prop_{name}_{}", std::process::id()))
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

/// Everything a run produces that a crash must not change.
#[derive(Debug, PartialEq)]
struct Outputs {
    retired: Vec<String>,
    wide: Vec<String>,
    transitions: Vec<Transition>,
    report: String,
    exemplar_index: String,
}

/// Stream the faulty-fleet corpus into `dir` in seeded random chunks,
/// polling at random boundaries. With `interrupt`, every poll boundary
/// ends in a checkpoint save followed by a full restore into *fresh*
/// objects that replace the live ones — the code path a SIGKILL and
/// restart would take. With `swapped`, every driver and executor log of
/// more than one line has its first two lines swapped, so its FIRST_LOG
/// moves to the second line read — possibly across a checkpoint.
fn run(seed: u64, dir: &Path, interrupt: bool, swapped: bool) -> Outputs {
    let _ = fs::remove_dir_all(dir);
    fs::create_dir_all(dir).unwrap();
    let mut logs = LogStore::new(Epoch::default_run());
    common::populate_faulty_fleet(&mut logs);
    fs::write(dir.join("epoch.txt"), format!("{}\n", logs.epoch().unix_ms)).unwrap();

    // Full byte blob per source; the RM log loses its final newline so
    // held-back partial bytes are part of the checkpointed state.
    let mut blobs: Vec<(PathBuf, Vec<u8>, usize)> = logs
        .sources()
        .map(|src| {
            let mut lines: Vec<&str> = logs.text(src).split_inclusive('\n').collect();
            if swapped
                && matches!(src, LogSource::Driver(_) | LogSource::Executor(_))
                && lines.len() > 1
            {
                lines.swap(0, 1);
            }
            let mut bytes = lines.concat().into_bytes();
            if src == LogSource::ResourceManager {
                assert_eq!(bytes.pop(), Some(b'\n'));
            }
            (dir.join(src.rel_path()), bytes, 0)
        })
        .collect();
    for (path, _, _) in &blobs {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(path, b"").unwrap();
    }

    let store = CheckpointStore::open(&dir.join("ckpt")).unwrap();
    let fp = fingerprint();
    let mut rng = SimRng::new(0xC4A5 + seed);
    let mut tailer = DirTailer::new(dir).unwrap();
    let mut analyzer = IncrementalAnalyzer::new(cfg());
    let mut engine = AlertEngine::new(default_rules(SLO_MS), ALERT_EVAL_MS);
    let mut out = Outputs {
        retired: Vec::new(),
        wide: Vec::new(),
        transitions: Vec::new(),
        report: String::new(),
        exemplar_index: String::new(),
    };
    let mut wide_bytes: u64 = 0;
    let mut writes: u64 = 0;

    let boundary = |tailer: &mut DirTailer,
                    analyzer: &mut IncrementalAnalyzer,
                    engine: &mut AlertEngine,
                    out: &mut Outputs,
                    wide_bytes: &mut u64,
                    writes: &mut u64| {
        for (src, rec) in tailer.poll().unwrap() {
            if analyzer.ingest(src, &rec) == Outcome::Anomalous {
                engine.observe_anomalous(rec.ts);
            }
        }
        for r in analyzer.drain_ready() {
            engine.observe_retirement(r.retire_ms, &r.delays);
            *wide_bytes += r.wide_event.len() as u64 + 1;
            out.retired.push(r.app.to_string());
            out.wide.push(r.wide_event);
        }
        if let Some(w) = analyzer.watermark() {
            out.transitions.extend(engine.advance(w));
        }
        if interrupt {
            *writes += 1;
            checkpoint::save(
                &store,
                &SaveInputs {
                    tailer,
                    analyzer,
                    engine: Some(engine),
                    fingerprint: &fp,
                    wide_bytes: *wide_bytes,
                    writes_total: *writes,
                    recoveries: 0,
                },
            )
            .unwrap();
            let mut fresh = AlertEngine::new(default_rules(SLO_MS), ALERT_EVAL_MS);
            let (restored, warnings) = checkpoint::load(&store, dir, &fp, Some(&mut fresh));
            assert!(warnings.is_empty(), "{warnings:?}");
            let r = restored.unwrap();
            assert_eq!(r.wide_bytes, *wide_bytes);
            *tailer = r.tailer;
            *analyzer = r.analyzer;
            *engine = fresh;
        }
    };

    loop {
        let pending: Vec<usize> = blobs
            .iter()
            .enumerate()
            .filter(|(_, (_, bytes, pos))| pos < &bytes.len())
            .map(|(i, _)| i)
            .collect();
        if pending.is_empty() {
            break;
        }
        let pick = pending[rng.below(pending.len() as u64) as usize];
        let (path, bytes, pos) = &mut blobs[pick];
        let n = (1 + rng.below(19) as usize).min(bytes.len() - *pos);
        let mut f = fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&bytes[*pos..*pos + n]).unwrap();
        *pos += n;
        if rng.below(4) == 0 {
            boundary(
                &mut tailer,
                &mut analyzer,
                &mut engine,
                &mut out,
                &mut wide_bytes,
                &mut writes,
            );
        }
    }
    boundary(
        &mut tailer,
        &mut analyzer,
        &mut engine,
        &mut out,
        &mut wide_bytes,
        &mut writes,
    );

    // Shutdown drain, exactly as the daemon does it.
    for (src, rec) in tailer.flush_partial() {
        if analyzer.ingest(src, &rec) == Outcome::Anomalous {
            engine.observe_anomalous(rec.ts);
        }
    }
    for r in analyzer.finish() {
        engine.observe_retirement(r.retire_ms, &r.delays);
        out.retired.push(r.app.to_string());
        out.wide.push(r.wide_event);
    }
    let end = analyzer.watermark().map_or(0, |w| w.0) + ALERT_EVAL_MS;
    engine.set_live_lag(0);
    out.transitions.extend(engine.advance(logmodel::TsMs(end)));
    out.transitions
        .extend(engine.close_out(logmodel::TsMs(end)));
    out.report = analyzer.live_report_json(Some((&tailer.lag(), &tailer.stats())));
    out.exemplar_index = analyzer.exemplars().index_json();
    out
}

#[test]
fn checkpoint_round_trip_is_lossless_at_every_poll_boundary() {
    // In-order logs at five seeds, swapped ones at three.
    for (seed, swapped) in (0u64..5)
        .map(|s| (s, false))
        .chain((0..3).map(|s| (s, true)))
    {
        let base = tmp(&format!("rt_{seed}_{swapped}_base"));
        let intr = tmp(&format!("rt_{seed}_{swapped}_intr"));
        let baseline = run(seed, &base, false, swapped);
        let resumed = run(seed, &intr, true, swapped);
        assert!(
            !baseline.retired.is_empty(),
            "seed {seed}, swapped {swapped}: scenario must retire apps mid-run"
        );
        assert_eq!(
            baseline, resumed,
            "seed {seed}, swapped {swapped}: a checkpoint round-trip changed the outputs"
        );
        let _ = fs::remove_dir_all(&base);
        let _ = fs::remove_dir_all(&intr);
    }
}
