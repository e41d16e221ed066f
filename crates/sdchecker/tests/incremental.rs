//! Property test for incremental ingestion: a corpus streamed through
//! [`DirTailer`] in *randomized append chunkings* — including splits
//! mid-line and mid-UTF-8-sequence — must reproduce batch ingestion
//! record for record, and the incremental analyzer must retire every
//! application with exactly the delays batch analysis computes.
//!
//! This is the contract that makes `sdcheckerd` trustworthy: no append
//! pattern a log writer can produce may change the analysis.

mod common;
#[path = "common/layouts.rs"]
mod layouts;

use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use logmodel::{
    corrupt_dir, ApplicationId, CorruptConfig, Epoch, LogRecord, LogSource, LogStore, NodeId,
    Parallelism, TsMs,
};
use obs::json::Json;
use sdchecker::checkpoint::{self, CfgFingerprint, CheckpointStore, SaveInputs};
use sdchecker::{
    analyze_dir_with, analyze_store_with, report_json, wide_events_for_analysis, AlertEngine,
    AlertRule, DirTailer, IncrementalAnalyzer, IncrementalConfig, RuleKind, StreamCursor, TailScan,
    TailSink, COLD_ROTATION, READ_CHUNK,
};
use simkit::SimRng;

/// One complete application lifecycle (submission through unregister),
/// time-shifted by `base` ms. `name` adds the Spark AM banner the
/// app-name miner looks for.
fn populate_app(s: &mut LogStore, num: u32, node: u32, base: u64, name: Option<&str>) {
    let epoch = Epoch::default_run();
    let a = ApplicationId::new(epoch.unix_ms, num);
    let am = a.attempt(1).container(1);
    let ex = a.attempt(1).container(2);
    let rm = LogSource::ResourceManager;
    let nm = LogSource::NodeManager(NodeId(node));
    let t = |off: u64| TsMs(base + off);
    s.info(
        rm,
        t(100),
        "RMAppImpl",
        format!("{a} State change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED"),
    );
    s.info(
        rm,
        t(120),
        "RMAppImpl",
        format!("{a} State change from SUBMITTED to ACCEPTED on event = APP_ACCEPTED"),
    );
    s.info(
        rm,
        t(150),
        "RMContainerImpl",
        format!("{am} Container Transitioned from NEW to ALLOCATED"),
    );
    s.info(
        rm,
        t(151),
        "RMContainerImpl",
        format!("{am} Container Transitioned from ALLOCATED to ACQUIRED"),
    );
    s.info(
        nm,
        t(160),
        "ContainerImpl",
        format!("Container {am} transitioned from NEW to LOCALIZING"),
    );
    s.info(
        nm,
        t(700),
        "ContainerImpl",
        format!("Container {am} transitioned from LOCALIZING to SCHEDULED"),
    );
    s.info(
        nm,
        t(705),
        "ContainerImpl",
        format!("Container {am} transitioned from SCHEDULED to RUNNING"),
    );
    s.info(
        LogSource::Driver(a),
        t(1400),
        "ApplicationMaster",
        "Starting ApplicationMaster",
    );
    if let Some(n) = name {
        s.info(
            LogSource::Driver(a),
            t(1401),
            "ApplicationMaster",
            format!("Starting ApplicationMaster for {n}"),
        );
    }
    s.info(
        LogSource::Driver(a),
        t(4400),
        "ApplicationMaster",
        "Registered with ResourceManager",
    );
    s.info(
        rm,
        t(4400),
        "RMAppImpl",
        format!("{a} State change from ACCEPTED to RUNNING on event = ATTEMPT_REGISTERED"),
    );
    s.info(
        LogSource::Driver(a),
        t(4401),
        "YarnAllocator",
        "START_ALLO Requesting 1 executor containers",
    );
    s.info(
        rm,
        t(4500),
        "RMContainerImpl",
        format!("{ex} Container Transitioned from NEW to ALLOCATED"),
    );
    s.info(
        rm,
        t(5400),
        "RMContainerImpl",
        format!("{ex} Container Transitioned from ALLOCATED to ACQUIRED"),
    );
    s.info(
        LogSource::Driver(a),
        t(5400),
        "YarnAllocator",
        "END_ALLO All requested executor containers allocated",
    );
    s.info(
        nm,
        t(5420),
        "ContainerImpl",
        format!("Container {ex} transitioned from NEW to LOCALIZING"),
    );
    s.info(
        nm,
        t(5920),
        "ContainerImpl",
        format!("Container {ex} transitioned from LOCALIZING to SCHEDULED"),
    );
    s.info(
        nm,
        t(5925),
        "ContainerImpl",
        format!("Container {ex} transitioned from SCHEDULED to RUNNING"),
    );
    s.info(
        LogSource::Executor(ex),
        t(6625),
        "CoarseGrainedExecutorBackend",
        "Started executor",
    );
    s.info(
        LogSource::Executor(ex),
        t(11_000),
        "Executor",
        "Got assigned task 0 in stage 0.0 (TID 0)",
    );
    s.info(
        rm,
        t(40_100),
        "RMAppImpl",
        format!("{a} State change from RUNNING to FINAL_SAVING on event = ATTEMPT_UNREGISTERED"),
    );
}

/// Two complete applications; the second carries a multi-byte UTF-8
/// application name so random byte-level chunking is guaranteed to land
/// inside encoded sequences.
fn corpus() -> LogStore {
    chatty_corpus(0)
}

/// [`corpus`] with its ResourceManager log opened by `lines` records no
/// rule matches, stamped before the first application's.
fn chatty_corpus(lines: u64) -> LogStore {
    let mut s = LogStore::new(Epoch::default_run());
    for i in 0..lines {
        s.info(
            LogSource::ResourceManager,
            TsMs(i * 100 / lines),
            "ParentQueue",
            format!(
                "assignedContainer queue=root usedCapacity=0.{i:03} absoluteUsedCapacity=0.328 \
                 used=<memory:2850111, vCores:630> cluster=<memory:8388608, vCores:2048>"
            ),
        );
    }
    populate_app(&mut s, 1, 2, 0, None);
    populate_app(
        &mut s,
        2,
        3,
        50_000,
        Some("TPC-H r\u{00e9}sum\u{e9} \u{2713} replay"),
    );
    s
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sdchecker_inctest_{name}_{}", std::process::id()))
}

/// The environment variable that marks the child process
/// [`ingest_classifies_each_record_as_its_stream_cursor_does`] reruns
/// itself in.
const RECORDING_CHILD: &str = "SDCHECKER_INCREMENTAL_RECORDING_CHILD";

/// Whether this is the child process the test `name` reruns itself in,
/// alone, with [`RECORDING_CHILD`] set. If not, rerun it there, assert
/// that it passed, and say no.
fn run_alone(name: &str) -> bool {
    if std::env::var_os(RECORDING_CHILD).is_some() {
        return true;
    }
    let out = std::process::Command::new(std::env::current_exe().unwrap())
        .args(["--exact", name, "--test-threads=1"])
        .env(RECORDING_CHILD, "1")
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success() && stdout.contains("1 passed"),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    false
}

/// What `report-v1` and `sdcheckerd-report-v1` both say about a fleet:
/// the component sketches — less their `exemplars`, which only the live
/// document keeps — the blame, the coverage and the two counts.
fn shared_sections(report: &str) -> Json {
    fn without_exemplars(v: &Json) -> Json {
        match v {
            Json::Obj(members) => Json::Obj(
                members
                    .iter()
                    .filter(|(k, _)| k != "exemplars")
                    .map(|(k, v)| (k.clone(), without_exemplars(v)))
                    .collect(),
            ),
            other => other.clone(),
        }
    }
    let doc = obs::json::parse(report).unwrap();
    let fleet = doc.get("fleet").unwrap();
    let mut shared = vec![doc.get("coverage").unwrap().clone()];
    for key in [
        "app_components_ms",
        "container_components_ms",
        "critical_blame",
        "applications",
        "complete",
    ] {
        shared.push(without_exemplars(fleet.get(key).unwrap()));
    }
    Json::Arr(shared)
}

/// The analyzer as the tailer's sink, wired as `sdcheckerd` wires it —
/// an application is live while it is buffered — and keeping every
/// record for a batch re-analysis.
struct Feed {
    inc: IncrementalAnalyzer,
    rebuilt: LogStore,
}

impl Feed {
    fn new(settle_ms: u64, epoch: Epoch) -> Feed {
        Feed {
            inc: IncrementalAnalyzer::new(IncrementalConfig {
                settle_ms,
                idle_timeout_ms: 0,
                exemplar_slots: 3,
            }),
            rebuilt: LogStore::new(epoch),
        }
    }

    fn take(&mut self, recs: Vec<(LogSource, LogRecord)>) {
        for (src, rec) in recs {
            self.inc.ingest(src, &rec);
            self.rebuilt.push(src, rec);
        }
    }
}

/// The live-set sweep hands the analyzer scans, not records: what
/// `poll_with` reads reaches `inc` alone, and only `take` rebuilds.
impl TailSink for Feed {
    fn is_live(&self, app: ApplicationId) -> bool {
        self.inc.is_live(app)
    }

    fn cursors(&self, owner: Option<ApplicationId>) -> Vec<(LogSource, StreamCursor)> {
        self.inc.cursors(owner)
    }

    fn apply(&mut self, scan: TailScan) {
        self.inc.apply(scan);
    }
}

/// One of the tailers a trial drives over its directory, with the
/// analyzer it feeds and a checkpoint store of its own. A pooled lane
/// polls as the daemon does — the live-set sweep, scans applied — and
/// drains as it does; the other, the reference, takes every record of
/// every application each poll, one at a time, and keeps them.
struct Lane {
    tailer: DirTailer,
    feed: Feed,
    store: CheckpointStore,
    pooled: bool,
}

impl Lane {
    /// The checkpoint directory of the `i`-th lane over `dir`.
    fn ckpt_dir(dir: &Path, i: usize) -> PathBuf {
        dir.with_extension(format!("ckpt{i}"))
    }

    fn new(tailer: DirTailer, dir: &Path, i: usize, feed: Feed, pooled: bool) -> Lane {
        let ckpt = Lane::ckpt_dir(dir, i);
        let _ = fs::remove_dir_all(&ckpt);
        Lane {
            tailer,
            feed,
            store: CheckpointStore::open(&ckpt).unwrap(),
            pooled,
        }
    }

    fn poll(&mut self) {
        if self.pooled {
            self.tailer.poll_with(&mut self.feed.inc).unwrap();
        } else {
            self.feed.take(self.tailer.poll().unwrap());
        }
    }

    /// The shutdown drain: a full poll, then the partial lines.
    fn drain(&mut self) {
        if self.pooled {
            self.tailer.drain_with(&mut self.feed.inc).unwrap();
        } else {
            self.feed.take(self.tailer.poll().unwrap());
            self.feed.take(self.tailer.flush_partial());
        }
    }

    /// The daemon's checkpoint of this lane as it stands.
    fn checkpoint(&self) -> Vec<u8> {
        let fingerprint = CfgFingerprint {
            settle_ms: 0,
            idle_timeout_ms: 0,
            exemplar_slots: 3,
            alerts: false,
            slo_ms: 1,
            eval_interval_ms: 1_000,
        };
        let inputs = SaveInputs {
            tailer: &self.tailer,
            analyzer: &self.feed.inc,
            engine: None,
            fingerprint: &fingerprint,
            wide_bytes: 0,
            writes_total: 0,
            recoveries: 0,
        };
        checkpoint::save(&self.store, &inputs).unwrap();
        fs::read(self.store.current_path()).unwrap()
    }
}

/// Lanes over one directory, polled at the same moments, whatever their
/// workers: equal statistics, lag and checkpoint bytes.
fn lanes_agree(lanes: &[Lane], label: &str) {
    let first = &lanes[0];
    let gold = first.checkpoint();
    for lane in &lanes[1..] {
        assert_eq!(lane.tailer.stats(), first.tailer.stats(), "{label}");
        assert_eq!(lane.tailer.lag(), first.tailer.lag(), "{label}");
        assert!(
            lane.checkpoint() == gold,
            "{label}: checkpoint bytes differ"
        );
    }
}

/// Append `bytes` to the file at `path`, creating it and its directory
/// as needed.
fn append(path: &Path, bytes: &[u8]) {
    fs::create_dir_all(path.parent().unwrap()).unwrap();
    let mut f = fs::OpenOptions::new()
        .append(true)
        .create(true)
        .open(path)
        .unwrap();
    f.write_all(bytes).unwrap();
}

/// Every trial drives a reference lane, which polls with every
/// application live (`DirTailer::poll`) and ingests and keeps every
/// record. Trials 5–9 replay the same five chunkings and also drive
/// three pooled lanes in lockstep, on 1, 2 and 4 workers, through the
/// live-set sweep with the analyzer as sink — files of applications no
/// record has named yet wait for their turn — ending, as the daemon
/// does, on its drain. After every poll the pooled lanes' statistics,
/// lag and checkpoint bytes are identical; once finished, every lane's
/// analyzer state (checkpoint bytes and live report) is the reference
/// lane's, whose kept records batch analysis reads as it reads the
/// finished directory, byte for byte.
///
/// The ResourceManager log opens with more than two read chunks of
/// chatter, appended now and then more than a chunk at a time, so polls
/// also meet growth the tailer hands over in several runs.
#[test]
fn tailed_ingest_matches_batch_for_any_append_chunking() {
    let logs = chatty_corpus(4_000);
    let rm = LogSource::ResourceManager;
    let chatter = logs.text(rm).len() - corpus().text(rm).len();
    assert!(chatter > 2 * READ_CHUNK, "{chatter} bytes of chatter");

    // Batch gold: write the finished corpus, analyze it, pin the report.
    let batch_dir = tmp("batch");
    let _ = fs::remove_dir_all(&batch_dir);
    logs.write_dir(&batch_dir).unwrap();
    let batch = analyze_dir_with(&batch_dir, Parallelism::ONE).unwrap();
    let gold = report_json(&batch);
    let mut exemplar_gold: Option<String> = None;
    let mut alerts_gold: Option<Vec<String>> = None;

    // No log file exists when a trial starts: each source is created by
    // its first append. Even trials lay out the app directories first
    // and let the tailer list them until it trusts those listings (one
    // shared wait), so their sources appear inside directories the
    // tailer has stopped re-listing and only a moved mtime reveals
    // them; odd trials start from a bare root, so the directories are
    // new as well.
    let mut tailers: Vec<(PathBuf, Vec<DirTailer>)> = (0u64..10)
        .map(|trial| {
            let dir = tmp(&format!("stream_{trial}"));
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(&dir).unwrap();
            fs::write(dir.join("epoch.txt"), format!("{}\n", logs.epoch().unix_ms)).unwrap();
            if trial % 2 == 0 {
                for src in logs.sources() {
                    fs::create_dir_all(dir.join(src.rel_path()).parent().unwrap()).unwrap();
                }
            }
            // The reference lane, then the pooled ones.
            let widths: &[usize] = if trial >= 5 { &[1, 1, 2, 4] } else { &[1] };
            let lanes = widths.iter().map(|&threads| {
                let mut tailer = DirTailer::new(&dir).unwrap();
                tailer.set_parallelism(Parallelism::new(threads));
                assert!(tailer.poll().unwrap().is_empty());
                tailer
            });
            let lanes = lanes.collect();
            (dir, lanes)
        })
        .collect();
    std::thread::sleep(std::time::Duration::from_millis(2_100));
    for tailer in tailers.iter_mut().flat_map(|(_, lanes)| lanes) {
        assert!(tailer.poll().unwrap().is_empty());
    }

    for (trial, (dir, tailers)) in (0u64..).zip(tailers) {
        let mut rng = SimRng::new(0xD1CE + trial % 5);
        let live_set = trial >= 5;

        // Full byte blob per source file, with how much of it is chatter;
        // the RM log (sorted last) loses its final newline so
        // `flush_partial` gets exercised.
        let mut blobs: Vec<(PathBuf, Vec<u8>, usize, usize)> = logs
            .sources()
            .map(|src| {
                let mut bytes = logs.text(src).as_bytes().to_vec();
                let mut head = 0;
                if src == rm {
                    assert_eq!(bytes.pop(), Some(b'\n'));
                    head = chatter;
                }
                (dir.join(src.rel_path()), bytes, 0, head)
            })
            .collect();

        // Huge settle window: arrival order is adversarial here (a whole
        // file can land before another starts), so apps must only retire
        // at finish(), once all evidence is in.
        let mut lanes: Vec<Lane> = tailers
            .into_iter()
            .enumerate()
            .map(|(i, tailer)| {
                let feed = Feed::new(u64::MAX, *logs.epoch());
                Lane::new(tailer, &dir, i, feed, i > 0)
            })
            .collect();

        // Append 1..=19-byte chunks to randomly chosen files — inside the
        // chatter, one time in 16 more than a read chunk at once —
        // polling the tailer at random points in between.
        loop {
            let pending: Vec<usize> = blobs
                .iter()
                .enumerate()
                .filter(|(_, (_, bytes, pos, _))| pos < &bytes.len())
                .map(|(i, _)| i)
                .collect();
            if pending.is_empty() {
                break;
            }
            let pick = pending[rng.below(pending.len() as u64) as usize];
            let (path, bytes, pos, head) = &mut blobs[pick];
            let n = if *pos < *head && rng.below(16) == 0 {
                READ_CHUNK + 1 + rng.below(READ_CHUNK as u64) as usize
            } else {
                1 + rng.below(19) as usize
            };
            let n = n.min(bytes.len() - *pos);
            append(path, &bytes[*pos..*pos + n]);
            *pos += n;
            if rng.below(4) == 0 {
                for lane in &mut lanes {
                    lane.poll();
                    assert!(
                        lane.feed.inc.drain_ready().is_empty(),
                        "nothing may retire early"
                    );
                }
                if live_set {
                    lanes_agree(&lanes[1..], &format!("trial {trial}"));
                }
            }
        }
        for lane in &mut lanes {
            lane.drain();
            let stats = lane.tailer.stats();
            assert_eq!(
                stats.parsed_lines as usize,
                logs.total_records(),
                "trial {trial}"
            );
            assert_eq!(stats.skipped_lines, 0, "trial {trial}");
        }
        if live_set {
            lanes_agree(&lanes[1..], &format!("trial {trial}, drained"));
        }
        let mut finished: Vec<Vec<sdchecker::RetiredApp>> = lanes
            .iter_mut()
            .map(|lane| lane.feed.inc.finish())
            .collect();

        // (a) No append pattern may lose, duplicate, or garble a line:
        // the reference lane's kept records make a report byte-identical
        // to batch's, and every pooled lane, whatever its workers, ends
        // in the reference lane's analyzer state, byte for byte.
        let reference = &lanes[0];
        let re = analyze_store_with(&reference.feed.rebuilt, Parallelism::ONE);
        assert_eq!(
            report_json(&re),
            gold,
            "trial {trial}: report diverged from batch"
        );
        let wide_of = |retired: &[sdchecker::RetiredApp]| -> Vec<String> {
            retired.iter().map(|r| r.wide_event.clone()).collect()
        };
        let (ckpt, live) = (
            reference.checkpoint(),
            reference.feed.inc.live_report_json(None),
        );
        for (lane, retired) in lanes.iter().zip(&finished).skip(1) {
            assert_eq!(wide_of(retired), wide_of(&finished[0]), "trial {trial}");
            assert_eq!(lane.feed.inc.live_report_json(None), live, "trial {trial}");
            assert!(
                lane.checkpoint() == ckpt,
                "trial {trial}: a pooled lane's checkpoint differs from the reference lane's"
            );
        }
        let mut retired = finished.swap_remove(0);
        let Lane { feed, .. } = lanes.swap_remove(0);
        let Feed { inc, .. } = feed;

        // (b) Incremental retirement reproduces the batch decomposition.
        retired.sort_by_key(|r| r.app);
        assert_eq!(inc.in_flight(), 0);
        assert_eq!(inc.late_events(), 0);
        assert_eq!(
            format!(
                "{:?}",
                retired.iter().map(|r| &r.delays).collect::<Vec<_>>()
            ),
            format!("{:?}", batch.delays.iter().collect::<Vec<_>>()),
            "trial {trial}: delays diverged from batch"
        );
        for r in &retired {
            assert!(!r.forced, "trial {trial}: {} was force-retired", r.app);
            assert_eq!(
                r.name.as_ref(),
                batch.app_names.get(&r.app),
                "trial {trial}"
            );
        }
        assert_eq!(inc.coverage(), &batch.coverage, "trial {trial}");
        assert_eq!(
            shared_sections(&inc.live_report_json(None)),
            shared_sections(&gold),
            "trial {trial}: live fleet sections diverged from the batch report's"
        );

        // (c) The wide-event lines are byte-identical to what batch
        // analysis emits over the finished corpus — same canonical
        // line, same order, same retire watermark.
        let mut wide = String::new();
        for r in &retired {
            wide.push_str(&r.wide_event);
            wide.push('\n');
        }
        assert_eq!(
            wide,
            wide_events_for_analysis(&batch),
            "trial {trial}: wide events diverged from batch"
        );

        // (d) The tail-exemplar reservoir is chunking-invariant: same
        // promoted set, same rankings, same rendered index every trial.
        let index = inc.exemplars().index_json();
        assert!(inc.exemplars().promoted_apps() > 0, "trial {trial}");
        match &exemplar_gold {
            None => exemplar_gold = Some(index),
            Some(gold) => assert_eq!(
                &index, gold,
                "trial {trial}: exemplar index diverged across chunkings"
            ),
        }

        // (e) Alert transitions are chunking-invariant: replay this
        // trial's retirements through a fresh engine, run the daemon's
        // shutdown sequence, and pin the transition log.
        let mut engine = AlertEngine::new(
            vec![AlertRule {
                name: "total_p99_test".into(),
                for_ms: 0,
                kind: RuleKind::ComponentQuantile {
                    component: "total",
                    q: 0.99,
                    threshold_ms: 1_000,
                    window_ms: 60_000,
                    min_count: 1,
                },
            }],
            1_000,
        );
        let watermark = retired.iter().map(|r| r.retire_ms).max().unwrap();
        for r in &retired {
            engine.observe_retirement(r.retire_ms, &r.delays);
        }
        let end = TsMs(watermark.0 + 1_000);
        let mut transitions = engine.advance(end);
        transitions.extend(engine.close_out(end));
        let log: Vec<String> = transitions
            .iter()
            .map(|t| format!("{} {} at {}", t.rule, t.verb(), t.at.0))
            .collect();
        assert!(
            log.iter().any(|l| l.contains("firing")),
            "trial {trial}: slow apps must trip the test rule, got {log:?}"
        );
        assert!(
            log.last().is_some_and(|l| l.contains("resolved")),
            "trial {trial}: close_out must resolve, got {log:?}"
        );
        match &alerts_gold {
            None => alerts_gold = Some(log),
            Some(gold) => assert_eq!(
                &log, gold,
                "trial {trial}: alert transitions diverged across chunkings"
            ),
        }

        fs::remove_dir_all(&dir).unwrap();
        for i in 0..4 {
            let _ = fs::remove_dir_all(Lane::ckpt_dir(&dir, i));
        }
    }
    fs::remove_dir_all(&batch_dir).unwrap();
}

/// A copytruncate rotation (file shrinks, tailer resets and re-reads)
/// combined with 3-byte appends that split every multi-byte UTF-8
/// sequence in the app name must leave the exemplar reservoir's retained
/// events intact: each promoted app's on-demand trace is byte-identical
/// to the trace batch analysis builds from the finished corpus.
#[test]
fn copytruncate_and_mid_utf8_chunks_keep_exemplar_traces_batch_identical() {
    let logs = corpus();
    let batch_dir = tmp("trace_batch");
    let _ = fs::remove_dir_all(&batch_dir);
    logs.write_dir(&batch_dir).unwrap();
    let batch = analyze_dir_with(&batch_dir, Parallelism::ONE).unwrap();

    let dir = tmp("trace_stream");
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    fs::write(dir.join("epoch.txt"), format!("{}\n", logs.epoch().unix_ms)).unwrap();

    // Lay out every source in full, except: the RM log starts as its
    // first ~60 % (cut at a line boundary) so the later rewrite is a
    // genuine shrink, and the UTF-8-named app's driver log starts empty
    // and is drip-fed below.
    let rm_path = dir.join(LogSource::ResourceManager.rel_path());
    let rm_bytes = logs.text(LogSource::ResourceManager).as_bytes().to_vec();
    let cut = rm_bytes[..rm_bytes.len() * 3 / 5]
        .iter()
        .rposition(|&b| b == b'\n')
        .unwrap()
        + 1;
    let utf8_driver = logs
        .sources()
        .find(|s| matches!(s, LogSource::Driver(a) if a.seq == 2))
        .unwrap();
    let drv_path = dir.join(utf8_driver.rel_path());
    let drv_bytes = logs.text(utf8_driver).as_bytes().to_vec();
    for src in logs.sources() {
        let path = dir.join(src.rel_path());
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        if src == LogSource::ResourceManager {
            fs::write(&path, &rm_bytes[..cut]).unwrap();
        } else if src == utf8_driver {
            fs::write(&path, b"").unwrap();
        } else {
            fs::write(&path, logs.text(src)).unwrap();
        }
    }

    let mut tailer = DirTailer::new(&dir).unwrap();
    let mut inc = IncrementalAnalyzer::new(IncrementalConfig {
        settle_ms: u64::MAX,
        idle_timeout_ms: 0,
        exemplar_slots: 3,
    });
    let ingest = |recs: Vec<(LogSource, LogRecord)>, inc: &mut IncrementalAnalyzer| {
        for (src, rec) in recs {
            inc.ingest(src, &rec);
        }
    };
    ingest(tailer.poll().unwrap(), &mut inc);

    // Copytruncate: the consumed prefix vanishes and only the remainder
    // is left — a shorter file, so the tailer must reset to offset 0.
    fs::write(&rm_path, &rm_bytes[cut..]).unwrap();
    ingest(tailer.poll().unwrap(), &mut inc);
    assert_eq!(tailer.stats().resets, 1);

    // Drip the driver log three bytes at a time: the 2-byte 'é' and the
    // 3-byte '✓' in the app name are guaranteed to straddle appends.
    for chunk in drv_bytes.chunks(3) {
        let mut f = fs::OpenOptions::new().append(true).open(&drv_path).unwrap();
        f.write_all(chunk).unwrap();
        ingest(tailer.poll().unwrap(), &mut inc);
    }
    ingest(tailer.flush_partial(), &mut inc);
    assert!(inc.drain_ready().is_empty());

    let mut retired = inc.finish();
    retired.sort_by_key(|r| r.app);
    assert_eq!(retired.len(), 2);
    assert_eq!(tailer.stats().skipped_lines, 0);
    assert_eq!(inc.exemplars().promoted_apps(), 2);

    for r in &retired {
        let got = inc
            .exemplars()
            .trace_json(r.app)
            .expect("fleet of 2 with k = 3: every app is promoted");
        let g = batch.graphs.get(&r.app).unwrap();
        let mut t = obs::export::TraceEvents::new();
        sdchecker::app_trace_into(
            &mut t,
            g,
            r.app.seq as u64,
            batch.app_names.get(&r.app).map(|s| s.as_str()),
        );
        assert_eq!(got, t.finish(), "exemplar trace diverged for {}", r.app);
    }
    fs::remove_dir_all(&dir).unwrap();
    fs::remove_dir_all(&batch_dir).unwrap();
}

/// A directory holding every source of `logs` as an empty file, polled
/// until the tailer trusts its listings: from here on a file is looked
/// at only when it belongs to the cluster, to a live application, or
/// its application's turn comes up.
fn cold_layout(name: &str, logs: &LogStore) -> (PathBuf, DirTailer) {
    let dir = tmp(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    fs::write(dir.join("epoch.txt"), format!("{}\n", logs.epoch().unix_ms)).unwrap();
    for src in logs.sources() {
        append(&dir.join(src.rel_path()), b"");
    }
    let mut tailer = DirTailer::new(&dir).unwrap();
    assert!(tailer.poll().unwrap().is_empty());
    std::thread::sleep(std::time::Duration::from_millis(2_100));
    assert!(tailer.poll().unwrap().is_empty());
    (dir, tailer)
}

/// The decompositions batch analysis computes over `dir` as it stands.
fn batch_delays(dir: &Path) -> String {
    let batch = analyze_dir_with(dir, Parallelism::ONE).unwrap();
    format!("{:?}", batch.delays.iter().collect::<Vec<_>>())
}

fn delays_of(retired: &mut [sdchecker::RetiredApp]) -> String {
    retired.sort_by_key(|r| r.app);
    format!(
        "{:?}",
        retired.iter().map(|r| &r.delays).collect::<Vec<_>>()
    )
}

/// Two layouts in which the cluster logs say nothing in time, driven by
/// live-set polls alone — no full poll at the end. Liveness only decides
/// *when* a file is looked at: whatever it misses costs at most one
/// rotation, never a line.
#[test]
fn live_set_sweep_loses_nothing_when_no_cluster_log_names_an_application() {
    let full = corpus();

    // (1) Application logs only: no cluster log ever names the two
    // applications, so their files are read on their turns until their
    // own first events put them in flight.
    let mut apps_only = LogStore::new(*full.epoch());
    for src in full
        .sources()
        .filter(|s| !matches!(s, LogSource::ResourceManager | LogSource::NodeManager(_)))
    {
        for rec in full.records(src).iter() {
            apps_only.push(src, rec.to_record());
        }
    }
    let (dir, tailer) = cold_layout("apps_only", &apps_only);
    let feed = |pooled| (Feed::new(u64::MAX, *full.epoch()), pooled);
    let mut lanes: Vec<Lane> = [
        (tailer, feed(true)),
        (DirTailer::new(&dir).unwrap(), feed(false)),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, (tailer, (feed, pooled)))| Lane::new(tailer, &dir, i, feed, pooled))
    .collect();
    let texts: Vec<(PathBuf, &str)> = apps_only
        .sources()
        .map(|src| (dir.join(src.rel_path()), apps_only.text(src)))
        .collect();
    for (path, text) in &texts {
        let first = text.find('\n').unwrap() + 1;
        append(path, &text.as_bytes()[..first]);
    }
    for _ in 0..COLD_ROTATION {
        lanes.iter_mut().for_each(Lane::poll);
    }
    let [lane, reference] = &mut lanes[..] else {
        unreachable!()
    };
    assert_eq!(
        lane.tailer.stats().parsed_lines as usize,
        texts.len(),
        "every first line within one rotation, once"
    );
    for (path, text) in &texts {
        let first = text.find('\n').unwrap() + 1;
        append(path, &text.as_bytes()[first..]);
    }
    for _ in 0..COLD_ROTATION {
        lane.poll();
        reference.poll();
    }
    assert_eq!(
        lane.tailer.stats().parsed_lines as usize,
        apps_only.total_records()
    );
    assert_eq!(lane.tailer.lag().bytes, 0);
    // What the reference lane read is what batch reads, byte for byte,
    // and the live-set sweep left the analyzer as the reference lane's.
    assert_eq!(
        report_json(&analyze_store_with(
            &reference.feed.rebuilt,
            Parallelism::ONE
        )),
        report_json(&analyze_dir_with(&dir, Parallelism::ONE).unwrap()),
    );
    let retired = [&mut *lane, &mut *reference].map(|l| l.feed.inc.finish());
    assert_eq!(
        lane.feed.inc.live_report_json(None),
        reference.feed.inc.live_report_json(None)
    );
    let [mut retired, reference_retired] = retired;
    let wide =
        |r: &[sdchecker::RetiredApp]| r.iter().map(|r| r.wide_event.clone()).collect::<Vec<_>>();
    assert_eq!(wide(&retired), wide(&reference_retired));
    assert_eq!(delays_of(&mut retired), batch_delays(&dir));
    assert_eq!(lane.feed.inc.late_events(), 0);
    fs::remove_dir_all(&dir).unwrap();
    for i in 0..2 {
        let _ = fs::remove_dir_all(Lane::ckpt_dir(&dir, i));
    }

    // (2) The ResourceManager log appended only at the end, together
    // with the last line of every application file, after those files
    // went cold: the one poll that reads the terminal events — and, the
    // settle window being zero, retires both applications on them —
    // must first have read what the applications themselves wrote.
    let (dir, mut tailer) = cold_layout("rm_last", &full);
    let mut feed = Feed::new(0, *full.epoch());
    let rm = LogSource::ResourceManager;
    let mut last_lines: Vec<(PathBuf, String)> = Vec::new();
    for src in full.sources().filter(|s| *s != rm) {
        let text = full.text(src);
        let path = dir.join(src.rel_path());
        if matches!(src, LogSource::ResourceManager | LogSource::NodeManager(_)) {
            append(&path, text.as_bytes());
        } else {
            let cut = text.trim_end().rfind('\n').unwrap() + 1;
            append(&path, &text.as_bytes()[..cut]);
            last_lines.push((path, text[cut..].to_string()));
        }
    }
    tailer.poll_with(&mut feed).unwrap();
    assert_eq!(
        tailer.stats().parsed_lines as usize,
        full.total_records() - full.records(rm).iter().count() - last_lines.len(),
        "the NodeManager logs name both applications, so the poll that read them read their files"
    );
    assert!(feed.inc.drain_ready().is_empty(), "no terminal event yet");
    for (path, line) in &last_lines {
        append(path, line.as_bytes());
    }
    append(&dir.join(rm.rel_path()), full.text(rm).as_bytes());
    tailer.poll_with(&mut feed).unwrap();
    let mut retired = feed.inc.drain_ready();
    assert_eq!(retired.len(), 2);
    assert_eq!(delays_of(&mut retired), batch_delays(&dir));
    assert_eq!(tailer.stats().parsed_lines as usize, full.total_records());
    for _ in 0..COLD_ROTATION {
        tailer.poll_with(&mut feed).unwrap();
    }
    assert_eq!(feed.inc.late_events(), 0);
    fs::remove_dir_all(&dir).unwrap();
}

/// A sink that writes while it is fed: handed its first scan — the
/// NodeManager log's, the one file that grew before the poll — it
/// appends what is `pending`: one more line to an executor log and, to
/// the ResourceManager log, a line past the application's settle window.
struct Straggling {
    feed: Feed,
    pending: Vec<(PathBuf, String)>,
}

impl TailSink for Straggling {
    fn is_live(&self, app: ApplicationId) -> bool {
        self.feed.is_live(app)
    }

    fn cursors(&self, owner: Option<ApplicationId>) -> Vec<(LogSource, StreamCursor)> {
        self.feed.cursors(owner)
    }

    fn apply(&mut self, scan: TailScan) {
        for (path, line) in self.pending.drain(..) {
            append(&path, line.as_bytes());
        }
        self.feed.apply(scan);
    }
}

/// The straggler hazard. An executor line is written after the poll's
/// sweep has started but before the ResourceManager line that lets the
/// watermark pass the application's settle window. A poll stats the
/// cluster logs before it reads any file and stats an application's
/// files only after that, so a line written before a ResourceManager
/// line some poll reads is read by that poll or an earlier one, never a
/// later one. Here both lines are written while the sink is handed the
/// NodeManager scan: the ResourceManager log was stat by then, so its
/// line waits for the next poll, and the executor line, written before
/// it, is read by this one. The application retires on the next poll
/// with the line in its delays and no late event.
///
/// With files read in sorted path order (`apps/…` before
/// `nodemanager-*` before `resourcemanager.log`, as before ISSUE 20)
/// the same script reads the ResourceManager line in the poll that had
/// already passed the executor file: the application retired without
/// the line, and the next poll counted it as a late event.
#[test]
fn line_written_before_the_newest_cluster_line_is_read_in_the_same_poll() {
    let mut logs = LogStore::new(Epoch::default_run());
    populate_app(&mut logs, 1, 2, 0, None);
    let settle_ms = 500;
    let (dir, mut tailer) = cold_layout("straggler", &logs);

    // Poll 1: everything but the executor's task line and the last
    // NodeManager line.
    let mut pending = Vec::new();
    let mut nm_last = None;
    for src in logs.sources() {
        let text = logs.text(src);
        let path = dir.join(src.rel_path());
        let cut = match src {
            LogSource::Executor(_) | LogSource::NodeManager(_) => {
                text.trim_end().rfind('\n').unwrap() + 1
            }
            _ => text.len(),
        };
        append(&path, &text.as_bytes()[..cut]);
        match src {
            LogSource::Executor(_) => pending.push((path, text[cut..].to_string())),
            LogSource::NodeManager(_) => nm_last = Some((path, text[cut..].to_string())),
            _ => {}
        }
    }
    assert!(pending[0].1.contains("Got assigned task"));
    pending.push((
        dir.join(LogSource::ResourceManager.rel_path()),
        format!(
            "2018-03-14 09:00:{:02},{:03} INFO  CapacityScheduler: tick\n",
            40,
            100 + settle_ms
        ),
    ));
    let mut sink = Straggling {
        feed: Feed::new(settle_ms, *logs.epoch()),
        pending: Vec::new(),
    };
    tailer.poll_with(&mut sink).unwrap();
    assert!(sink.feed.inc.drain_ready().is_empty());

    // Poll 2: the NodeManager line arrives; being fed it, the sink
    // writes the straggler and the line that ends the settle window.
    sink.pending = pending;
    let (nm_path, nm_line) = nm_last.unwrap();
    append(&nm_path, nm_line.as_bytes());
    tailer.poll_with(&mut sink).unwrap();
    assert!(sink.pending.is_empty());
    assert_eq!(
        tailer.stats().parsed_lines as usize,
        logs.total_records(),
        "the straggler is read, the line after it is not"
    );
    assert!(sink.feed.inc.drain_ready().is_empty());

    // Poll 3: the line that ends the settle window.
    tailer.poll_with(&mut sink).unwrap();
    let mut retired = sink.feed.inc.drain_ready();
    assert_eq!(retired.len(), 1);
    assert_eq!(delays_of(&mut retired), batch_delays(&dir));
    for _ in 0..COLD_ROTATION {
        tailer.poll_with(&mut sink).unwrap();
    }
    assert_eq!(sink.feed.inc.late_events(), 0);
    assert_eq!(
        tailer.stats().parsed_lines as usize,
        logs.total_records() + 1
    );
    fs::remove_dir_all(&dir).unwrap();
}

/// The analyzer as `sdcheckerd` drives it, collecting the wide-event
/// lines it would write.
struct Daemon {
    inc: IncrementalAnalyzer,
    wide: String,
}

impl Daemon {
    fn retire(&mut self, retired: Vec<sdchecker::RetiredApp>) {
        for r in retired {
            self.wide.push_str(&r.wide_event);
            self.wide.push('\n');
        }
    }
}

/// The daemon over the finished tree at `dir`, as `sdcheckerd
/// --idle-timeout-ms 0` runs it on `threads` workers: a real tailer's
/// polls with retirement between them, then the shutdown drain — a full
/// poll, the partial lines, `finish()`.
fn daemon_over(dir: &Path, threads: usize) -> Daemon {
    let mut tailer = DirTailer::new(dir).unwrap();
    let mut daemon = Daemon {
        inc: IncrementalAnalyzer::new(IncrementalConfig {
            settle_ms: 2_000,
            idle_timeout_ms: 0,
            exemplar_slots: 3,
        }),
        wide: String::new(),
    };
    tailer.set_parallelism(Parallelism::new(threads));
    for _ in 0..2 {
        tailer.poll_with(&mut daemon.inc).unwrap();
        let retired = daemon.inc.drain_ready();
        daemon.retire(retired);
    }
    tailer.drain_with(&mut daemon.inc).unwrap();
    let retired = daemon.inc.finish();
    daemon.retire(retired);
    daemon
}

/// Each application's wide event, less `retire_ms` and `lag_ms`: when the
/// daemon retired it, which batch stamps at the corpus' end.
fn wide_by_app(lines: &str) -> BTreeMap<String, Json> {
    lines
        .lines()
        .map(|line| {
            let Json::Obj(members) = obs::json::parse(line).unwrap() else {
                panic!("a wide event is an object: {line}");
            };
            let (_, app) = members.iter().find(|(k, _)| k == "app").unwrap();
            let app = app.as_str().unwrap().to_string();
            let kept = members
                .into_iter()
                .filter(|(k, _)| k != "retire_ms" && k != "lag_ms")
                .collect();
            (app, Json::Obj(kept))
        })
        .collect()
}

/// One answer whatever the logs look like, on one worker and on two:
/// over a finished tree damaged
/// by each `corrupt_dir` kind that loses no line, alone, at three seeds,
/// and over `par_equiv`'s hostile layouts — the ResourceManager log
/// rotated into segments out of time order, and every driver and
/// executor log shuffled with tied timestamps — the daemon retires every
/// application with batch's wide event, and reads batch's coverage,
/// unmatched examples included. A swapped or shuffled stream's first
/// line need not be its first record: FIRST_LOG, the banner name and the
/// unmatched example are settled by timestamp in both.
#[test]
fn daemon_agrees_with_batch_per_app_on_damaged_and_reordered_logs() {
    let mut logs = LogStore::new(Epoch::default_run());
    common::populate_faulty_fleet(&mut logs);
    for k in 1..8 {
        common::populate_faulty_fleet_at(&mut logs, k);
    }
    let none = CorruptConfig {
        truncate: 0.0,
        clip_line: 0.0,
        duplicate_line: 0.0,
        swap_lines: 0.0,
        garbage: 0.0,
    };
    let kinds = [
        (
            "swap",
            CorruptConfig {
                swap_lines: 0.2,
                ..none.clone()
            },
        ),
        (
            "duplicate",
            CorruptConfig {
                duplicate_line: 0.2,
                ..none.clone()
            },
        ),
        (
            "clip",
            CorruptConfig {
                clip_line: 0.2,
                ..none.clone()
            },
        ),
        (
            "garbage",
            CorruptConfig {
                garbage: 0.2,
                ..none.clone()
            },
        ),
    ];
    // (label, damage kind, seed)
    let mut cases: Vec<(String, Option<CorruptConfig>, u64)> = Vec::new();
    for (kind, cfg) in kinds {
        for seed in [1, 5, 7] {
            cases.push((format!("{kind} 0.2, seed {seed}"), Some(cfg.clone()), seed));
        }
    }
    cases.push(("rotated resourcemanager.log".into(), None, 0));
    for seed in [1, 5, 7] {
        cases.push((format!("shuffled with ties, seed {seed}"), None, seed));
    }

    let mut failures = Vec::new();
    for (label, cfg, seed) in &cases {
        let dir = tmp("one_answer");
        let _ = fs::remove_dir_all(&dir);
        logs.write_dir(&dir).unwrap();
        match cfg {
            Some(cfg) => drop(corrupt_dir(&dir, *seed, cfg).unwrap()),
            None if *seed == 0 => drop(layouts::rotate_rm_log(&dir)),
            None => layouts::shuffle_app_logs(&mut SimRng::new(*seed), &logs, &dir),
        }
        let batch = analyze_dir_with(&dir, Parallelism::ONE).unwrap();
        let gold = wide_by_app(&wide_events_for_analysis(&batch));
        let daemon = daemon_over(&dir, 2);
        assert_eq!(
            daemon.wide,
            daemon_over(&dir, 1).wide,
            "{label}: 2 threads, 1"
        );
        let got = wide_by_app(&daemon.wide);
        let differing: Vec<&String> = gold
            .keys()
            .chain(got.keys().filter(|app| !gold.contains_key(*app)))
            .filter(|app| gold.get(*app) != got.get(*app))
            .collect();
        if !differing.is_empty() || daemon.inc.coverage() != &batch.coverage {
            failures.push(format!(
                "{label}: {} of {} apps differ {differing:?}, {} late events, coverage {}",
                differing.len(),
                gold.len(),
                daemon.inc.late_events(),
                if daemon.inc.coverage() == &batch.coverage {
                    "equal"
                } else {
                    "differs"
                },
            ));
        }
        fs::remove_dir_all(&dir).unwrap();
    }
    assert!(failures.is_empty(), "{failures:#?}");
}

/// `ingest` gives every record the outcome its stream's cursor steps it
/// to: over the faulty fleet, with its unmatched and corrupt-id lines,
/// and a driver record read last but stamped before its stream's first,
/// which takes FIRST_LOG over from a record FIRST_LOG was all it made
/// (the one-record scan's counts then read ignored). With recording on,
/// ingesting the fleet record by record records the lines and events a
/// tailed sweep of the same directory does. Recording is switched on for
/// the whole process, so the test reruns itself alone in a child
/// process.
#[test]
fn ingest_classifies_each_record_as_its_stream_cursor_does() {
    use sdchecker::{Extractor, Outcome};
    if !run_alone("ingest_classifies_each_record_as_its_stream_cursor_does") {
        return;
    }
    let mut store = LogStore::new(Epoch::default_run());
    let (clean, ..) = common::populate_faulty_fleet(&mut store);
    let driver = LogSource::Driver(clean);
    store.info(driver, TsMs(1_000), "X", "an earlier first record");
    let recorded = || {
        let snap = obs::global().snapshot();
        let series = snap.counters.into_iter();
        series
            .filter(|(key, _)| matches!(key.name, "extract_events_total" | "parse_lines_total"))
            .collect::<BTreeMap<_, _>>()
    };
    obs::enable();

    let ex = Extractor::new();
    let mut inc = IncrementalAnalyzer::new(IncrementalConfig::default());
    let mut seen = BTreeMap::new();
    for src in store.sources() {
        let mut cursor = StreamCursor::default();
        for r in store.records(src).iter() {
            let step = cursor.step(&ex, src, &r, &mut Vec::new(), &mut Default::default());
            let got = inc.ingest(src, &r.to_record());
            assert_eq!(got, step.outcome, "{src:?} at {:?}: {}", r.ts, r.message);
            *seen.entry(format!("{got:?}")).or_insert(0) += 1;
            if step.first_moved.is_some() {
                assert_eq!((src, got), (driver, Outcome::Matched));
                seen.insert("moved".into(), 1);
            }
        }
    }
    assert_eq!(
        seen.keys().map(String::as_str).collect::<Vec<_>>(),
        ["Anomalous", "Ignored", "Matched", "Unmatched", "moved"]
    );
    let ingested = recorded();

    let dir = tmp("recorded");
    let _ = fs::remove_dir_all(&dir);
    store.write_dir(&dir).unwrap();
    let mut swept = IncrementalAnalyzer::new(IncrementalConfig::default());
    DirTailer::new(&dir).unwrap().poll_with(&mut swept).unwrap();
    fs::remove_dir_all(&dir).unwrap();
    assert_eq!(swept.coverage(), inc.coverage());
    let twice = recorded();
    assert!(!ingested.is_empty());
    for (key, n) in &twice {
        assert_eq!(
            n - ingested.get(key).unwrap_or(&0),
            *ingested.get(key).unwrap_or(&0),
            "{key:?}"
        );
    }
}
