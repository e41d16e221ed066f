//! The parallel pipeline's central property: for arbitrary generated log
//! corpora, analysis with `threads ∈ {2, 4, 8}` produces exactly the
//! `threads = 1` result — events order, graphs, delays, unused containers,
//! and app names — every document `sdchecker` writes is the same bytes at
//! 1, 2 and 4 threads, and the daemon's polls on 2 and 4 workers leave
//! what they leave on one. Randomized as seeded loops over
//! `simkit::SimRng`.

use logmodel::schema::Family;
use logmodel::{
    corrupt_dir, ApplicationId, CorruptConfig, Epoch, LogSource, LogStore, NodeId, TsMs,
};
use sdchecker::checkpoint::{self, CfgFingerprint, CheckpointStore, SaveInputs};
use sdchecker::extract::extract_all_cov_with;
use sdchecker::{analyze_store, analyze_store_with, build_graphs, Analysis, Parallelism};
use simkit::SimRng;

mod common;
#[path = "common/layouts.rs"]
mod layouts;

/// Generate a random but plausible corpus: `napps` applications spread
/// over `nnodes` NodeManagers, each with a random container count, random
/// (and frequently colliding) timestamps, banner lines, and noise records.
fn random_corpus(rng: &mut SimRng) -> LogStore {
    let epoch = Epoch::default_run();
    let mut s = LogStore::new(epoch);
    let cts = epoch.unix_ms;
    let napps = rng.range(1, 13) as u32;
    let nnodes = rng.range(1, 9) as u32;
    let rm = LogSource::ResourceManager;
    for seq in 1..=napps {
        let a = ApplicationId::new(cts, seq);
        // Coarse timestamps so ties across apps and streams are common —
        // the case the merge's tie-break must get right.
        let base = rng.below(50) * 100;
        let t = |rng: &mut SimRng, lo: u64, hi: u64| TsMs(base + rng.range(lo, hi) / 10 * 10);
        s.info(
            rm,
            t(rng, 1, 200),
            "RMAppImpl",
            format!("{a} State change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED"),
        );
        if rng.chance(0.9) {
            s.info(
                rm,
                t(rng, 100, 400),
                "RMAppImpl",
                format!("{a} State change from SUBMITTED to ACCEPTED on event = APP_ACCEPTED"),
            );
        }
        if rng.chance(0.3) {
            s.info(
                rm,
                t(rng, 1, 500),
                "CapacityScheduler",
                "Re-sorting assigned queue",
            );
        }
        let ncontainers = rng.range(1, 7);
        for c in 1..=ncontainers {
            let cid = a.attempt(1).container(c);
            let node = NodeId(rng.below(nnodes as u64) as u32 + 1);
            let nm = LogSource::NodeManager(node);
            s.info(
                rm,
                t(rng, 200, 900),
                "RMContainerImpl",
                format!("{cid} Container Transitioned from NEW to ALLOCATED"),
            );
            if rng.chance(0.85) {
                s.info(
                    rm,
                    t(rng, 300, 1200),
                    "RMContainerImpl",
                    format!("{cid} Container Transitioned from ALLOCATED to ACQUIRED"),
                );
                s.info(
                    nm,
                    t(rng, 400, 1400),
                    "ContainerImpl",
                    format!("Container {cid} transitioned from NEW to LOCALIZING"),
                );
                s.info(
                    nm,
                    t(rng, 500, 2200),
                    "ContainerImpl",
                    format!("Container {cid} transitioned from LOCALIZING to SCHEDULED"),
                );
                s.info(
                    nm,
                    t(rng, 600, 2600),
                    "ContainerImpl",
                    format!("Container {cid} transitioned from SCHEDULED to RUNNING"),
                );
                if c > 1 && rng.chance(0.8) {
                    let exl = LogSource::Executor(cid);
                    s.info(
                        exl,
                        t(rng, 700, 3000),
                        "CoarseGrainedExecutorBackend",
                        "Started executor",
                    );
                    if rng.chance(0.8) {
                        s.info(
                            exl,
                            t(rng, 800, 4000),
                            "Executor",
                            format!("Got assigned task 0 in stage 0.0 (TID {c})"),
                        );
                    }
                }
            }
        }
        if rng.chance(0.9) {
            let drv = LogSource::Driver(a);
            if rng.chance(0.7) {
                s.info(
                    drv,
                    t(rng, 300, 1500),
                    "ApplicationMaster",
                    format!("Starting ApplicationMaster for tpch-q{seq:02}"),
                );
            }
            s.info(
                drv,
                t(rng, 400, 2000),
                "ApplicationMaster",
                "Registered with ResourceManager as attempt",
            );
            s.info(
                rm,
                t(rng, 400, 2000),
                "RMAppImpl",
                format!("{a} State change from ACCEPTED to RUNNING on event = ATTEMPT_REGISTERED"),
            );
            s.info(
                drv,
                t(rng, 450, 2100),
                "YarnAllocator",
                format!("START_ALLO Requesting {ncontainers} executor containers"),
            );
            if rng.chance(0.8) {
                s.info(
                    drv,
                    t(rng, 500, 3000),
                    "YarnAllocator",
                    "END_ALLO All requested executor containers allocated",
                );
            }
        }
        if rng.chance(0.7) {
            s.info(
                rm,
                t(rng, 3000, 9000),
                "RMAppImpl",
                format!(
                    "{a} State change from RUNNING to FINAL_SAVING on event = ATTEMPT_UNREGISTERED"
                ),
            );
        }
    }
    s
}

/// Every observable field of the two analyses must agree. Graphs, delays,
/// and unused containers compare via their (complete) `Debug` renderings,
/// which cover every nested field and ordering.
fn assert_same(seq: &Analysis, par: &Analysis, label: &str) {
    assert_eq!(seq.events, par.events, "{label}: events (order) diverged");
    assert_eq!(
        format!("{:?}", seq.graphs),
        format!("{:?}", par.graphs),
        "{label}: graphs diverged"
    );
    assert_eq!(
        format!("{:?}", seq.delays),
        format!("{:?}", par.delays),
        "{label}: delays diverged"
    );
    assert_eq!(
        format!("{:?}", seq.unused_containers),
        format!("{:?}", par.unused_containers),
        "{label}: unused containers diverged"
    );
    assert_eq!(seq.app_names, par.app_names, "{label}: app names diverged");
    assert_eq!(seq.watermark, par.watermark, "{label}: watermark diverged");
    assert_eq!(
        sdchecker::wide_events_for_analysis(seq),
        sdchecker::wide_events_for_analysis(par),
        "{label}: wide events diverged"
    );
}

#[test]
fn parallel_analysis_equals_sequential() {
    for case in 0..48u64 {
        let mut rng = SimRng::new(0xFA11E1 ^ case);
        let store = random_corpus(&mut rng);
        let seq = analyze_store(&store);
        for threads in [2, 4, 8] {
            let par = analyze_store_with(&store, Parallelism::new(threads));
            assert_same(&seq, &par, &format!("case {case}, threads {threads}"));
        }
    }
}

#[test]
fn parallel_dir_analysis_equals_sequential() {
    let mut rng = SimRng::new(0x0D1B);
    let store = random_corpus(&mut rng);
    let dir = std::env::temp_dir().join(format!("sdchecker_pareq_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    store.write_dir(&dir).unwrap();
    let seq = sdchecker::analyze_dir(&dir).unwrap();
    for threads in [2, 4, 8] {
        let par = sdchecker::analyze_dir_with(&dir, Parallelism::new(threads)).unwrap();
        assert_same(&seq, &par, &format!("dir, threads {threads}"));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `extract_all_cov_with` hands on what the analysis gathers: on the
/// faulty fleet, and on the fleet with its application logs shuffled
/// and their timestamps made to tie, at every width, its events and
/// coverage are the analysis's, and the graphs built from those events
/// are the analysis's graphs.
#[test]
fn extract_all_returns_the_analysis_s_events() {
    let mut fleet = LogStore::new(Epoch::default_run());
    common::populate_faulty_fleet(&mut fleet);
    let dir = std::env::temp_dir().join(format!("sdchecker_extract_all_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    fleet.write_dir(&dir).unwrap();
    layouts::shuffle_app_logs(&mut SimRng::new(53), &fleet, &dir);
    let shuffled = LogStore::read_dir_with(&dir, Parallelism::ONE).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    for (label, store) in [("fleet", &fleet), ("shuffled", &shuffled)] {
        for threads in [1, 2, 4] {
            let par = Parallelism::new(threads);
            let (events, coverage) = extract_all_cov_with(store, par);
            let analysis = analyze_store_with(store, par);
            assert_eq!(events, analysis.events, "{label}, threads {threads}");
            assert_eq!(coverage, analysis.coverage, "{label}, threads {threads}");
            assert_eq!(
                format!("{:?}", build_graphs(&events)),
                format!("{:?}", analysis.graphs),
                "{label}, threads {threads}"
            );
        }
    }
}

/// The three documents the CLI writes.
fn rendered(an: &Analysis) -> [String; 3] {
    [
        sdchecker::report_json(an),
        sdchecker::full_report(an),
        sdchecker::wide_events_for_analysis(an),
    ]
}

/// The earliest and the latest timestamp in `text`, one per line.
fn stamp_range(text: &str) -> (&str, &str) {
    let stamps = text.lines().map(|l| &l[..layouts::STAMP]);
    (stamps.clone().min().unwrap(), stamps.max().unwrap())
}

/// Directory analysis extracts each stream from the bytes it was read
/// from and never builds a store; on layouts the happy path never sees
/// it must still be exactly the store's analysis, for every thread count.
#[test]
fn dir_analysis_equals_store_analysis_on_hostile_layouts() {
    use std::fs;
    for case in 0..6u64 {
        let mut rng = SimRng::new(0xBAD_D15C ^ case);
        let store = random_corpus(&mut rng);
        let dir =
            std::env::temp_dir().join(format!("sdchecker_hostile_{case}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        store.write_dir(&dir).unwrap();

        // The RM log in segments whose order on disk disagrees with time.
        let rm = dir.join("resourcemanager.log");
        let text = layouts::rotate_rm_log(&dir);

        let mut nodes = store.sources().filter_map(|s| match s {
            LogSource::NodeManager(_) => Some(dir.join(s.rel_path())),
            _ => None,
        });
        // Out-of-order timestamps inside one file (random_corpus draws
        // them unsorted already; reversing makes sure), no trailing
        // newline, and CRLF endings.
        if let Some(nm) = nodes.next() {
            let text = fs::read_to_string(&nm).unwrap();
            let reversed: Vec<&str> = text.lines().rev().collect();
            fs::write(&nm, reversed.join("\r\n")).unwrap();
        }
        // Invalid UTF-8 inside a line (the line is lost, its neighbours
        // are not), a truncated multi-byte sequence before a newline,
        // and blank lines.
        if let Some(nm) = nodes.next() {
            let mut bytes = fs::read(&nm).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] = 0xFF;
            bytes.extend_from_slice(b"\n\ntrailing junk \xE2\x9C\n");
            fs::write(&nm, bytes).unwrap();
        }
        // An empty file, and one in which nothing parses: neither is a
        // stream.
        fs::write(dir.join("nodemanager-node98.log"), b"").unwrap();
        fs::write(dir.join("nodemanager-node99.log"), b"no timestamp here\n").unwrap();

        layouts::shuffle_app_logs(&mut rng, &store, &dir);
        // Two Spark banners and two out-of-alphabet RM transitions, each
        // pair later line first.
        let first_driver = store.sources().find(|s| matches!(s, LogSource::Driver(_)));
        if let Some(drv) = first_driver {
            let path = dir.join(drv.rel_path());
            let text = fs::read_to_string(&path).unwrap();
            let (early, late) = stamp_range(&text);
            let banner = |stamp, name| {
                format!("{stamp} INFO  ApplicationMaster: Starting ApplicationMaster for {name}\n")
            };
            let banners = banner(late, "late-banner") + &banner(early, "early-banner");
            fs::write(&path, text + &banners).unwrap();
        }
        let (early, late) = stamp_range(&text);
        let app = ApplicationId::new(store.epoch().unix_ms, 1);
        let odd = |stamp, to| {
            format!(
                "{stamp} INFO  RMAppImpl: {app} State change from RUNNING to {to} on event = X\n"
            )
        };
        let newest = fs::read_to_string(&rm).unwrap();
        fs::write(
            &rm,
            newest + &odd(late, "LATE_ODD") + &odd(early, "EARLY_ODD"),
        )
        .unwrap();

        let mut gold: Option<[String; 3]> = None;
        for threads in [1, 2, 4] {
            let par = Parallelism::new(threads);
            let from_dir = sdchecker::analyze_dir_with(&dir, par).unwrap();
            let read = LogStore::read_dir_with(&dir, par).unwrap();
            let from_store = analyze_store_with(&read, par);
            let label = format!("case {case}, threads {threads}");
            assert_same(&from_store, &from_dir, &label);
            assert_eq!(from_store.coverage, from_dir.coverage, "{label}");
            let example = from_dir.coverage.unmatched_example(Family::ResourceManager);
            assert!(example.unwrap().contains("EARLY_ODD"), "{label}");
            assert_eq!(rendered(&from_store), rendered(&from_dir), "{label}");
            let gold = gold.get_or_insert_with(|| rendered(&from_dir));
            assert_eq!(
                gold,
                &rendered(&from_dir),
                "{label}: differs from one thread"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}

/// Every document `sdchecker <dir> --threads <threads>` writes, by name:
/// standard output, `--report-json`, `--wide-events-out`,
/// `--app-trace-out`, `--csv`, and `--metrics-out` less the two gauges
/// that name the thread count. (The binary clamps `--threads` to the
/// hardware threads.)
fn cli_documents(dir: &std::path::Path, threads: usize) -> Vec<(&'static str, Vec<u8>)> {
    use std::fs;
    let out = dir.with_extension(format!("out{threads}"));
    let _ = fs::remove_dir_all(&out);
    fs::create_dir_all(&out).unwrap();
    let files = [
        ("report-v1", "--report-json"),
        ("wide events", "--wide-events-out"),
        ("app trace", "--app-trace-out"),
        ("csv", "--csv"),
        ("metrics", "--metrics-out"),
    ];
    let path = |name: &str| out.join(name.replace(' ', "_") + ".json");
    let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_sdchecker"));
    cmd.arg(dir)
        .args(["--threads", &threads.to_string(), "--quiet"]);
    for (name, flag) in files {
        cmd.arg(flag).arg(path(name));
    }
    let run = cmd.output().unwrap();
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(run.status.success(), "--threads {threads}: {stderr}");
    let mut docs = vec![("stdout", run.stdout)];
    for (name, _) in files {
        let mut bytes = fs::read(path(name)).unwrap();
        if name == "metrics" {
            let text = String::from_utf8(bytes).unwrap();
            let gauges = ["analyze_threads_requested", "analyze_threads_effective"];
            let kept = text
                .lines()
                .filter(|l| !gauges.iter().any(|g| l.contains(g)));
            bytes = kept.collect::<Vec<_>>().join("\n").into_bytes();
            assert!(
                bytes.len() < text.len(),
                "the export names the thread count"
            );
        }
        docs.push((name, bytes));
    }
    fs::remove_dir_all(&out).unwrap();
    docs
}

/// The text report, `report-v1` and the wide events of one directory
/// analysis on `threads` workers (not clamped), rendered as `sdchecker`
/// renders them: the facts and the documents on the same pool.
fn pooled_documents(dir: &std::path::Path, threads: usize) -> [Vec<u8>; 3] {
    let par = Parallelism::new(threads);
    let an = sdchecker::analyze_dir_with(dir, par).unwrap();
    let report = sdchecker::Report::pooled(&an, par);
    let (mut text, mut json, mut wide) = (Vec::new(), Vec::new(), Vec::new());
    let written = report.write_documents(par, Some(&mut text), Some(&mut json), Some(&mut wide));
    for result in written {
        result.unwrap();
    }
    [text, json, wide]
}

/// Every batch document is the same bytes at every width, over trees a
/// generated corpus never is: the faulty fleet (a failed application
/// with a retried AM, a truncated one, corrupt ids, schema drift) in
/// more applications than a run of the pool holds, that tree damaged by
/// `corrupt_dir` at its default and severe settings, with its
/// ResourceManager log rotated out of time order, and with every
/// application log shuffled with tied timestamps. `sdchecker` runs at 1,
/// 2 and 4 threads; the documents pass runs in-process on 1, 2 and 4
/// workers too, which the binary's clamp to the hardware would not.
#[test]
fn every_document_is_the_same_at_every_width() {
    use std::fs;
    let mut store = LogStore::new(Epoch::default_run());
    common::populate_faulty_fleet(&mut store);
    for k in 1..40 {
        common::populate_faulty_fleet_at(&mut store, k);
    }
    let trees = [
        "faults",
        "corrupt default",
        "corrupt severe",
        "rotated",
        "shuffled with ties",
    ];
    for (case, label) in (0u64..).zip(trees) {
        let dir =
            std::env::temp_dir().join(format!("sdchecker_documents_{case}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        store.write_dir(&dir).unwrap();
        match label {
            "corrupt default" => drop(corrupt_dir(&dir, case, &CorruptConfig::default()).unwrap()),
            "corrupt severe" => drop(corrupt_dir(&dir, case, &CorruptConfig::severe()).unwrap()),
            "rotated" => drop(layouts::rotate_rm_log(&dir)),
            "shuffled with ties" => {
                layouts::shuffle_app_logs(&mut SimRng::new(case), &store, &dir);
            }
            _ => {}
        }
        let gold = cli_documents(&dir, 1);
        assert!(gold[0].1.starts_with(b"SDchecker analysis"), "{label}");
        for threads in [2, 4] {
            for ((name, want), (_, got)) in gold.iter().zip(cli_documents(&dir, threads)) {
                assert!(
                    *want == got,
                    "{label}: {name} differs at --threads {threads}"
                );
            }
        }
        for threads in [1, 2, 4] {
            let names = ["stdout", "report-v1", "wide events"];
            for ((name, got), (_, want)) in
                names.iter().zip(pooled_documents(&dir, threads)).zip(&gold)
            {
                assert!(*want == got, "{label}: {name} differs on {threads} workers");
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}

/// The daemon's pipeline over one tree on `threads` workers: a tailer,
/// the analyzer it feeds, the wide events retired so far, and a
/// checkpoint store of its own.
struct Daemon {
    tailer: sdchecker::DirTailer,
    inc: sdchecker::IncrementalAnalyzer,
    wide: String,
    store: CheckpointStore,
}

impl Daemon {
    fn new(dir: &std::path::Path, threads: usize) -> Daemon {
        let ckpt = dir.with_extension(format!("ckpt{threads}"));
        let _ = std::fs::remove_dir_all(&ckpt);
        let mut tailer = sdchecker::DirTailer::new(dir).unwrap();
        tailer.set_parallelism(Parallelism::new(threads));
        Daemon {
            tailer,
            inc: sdchecker::IncrementalAnalyzer::new(sdchecker::IncrementalConfig {
                settle_ms: 2_000,
                idle_timeout_ms: 0,
                exemplar_slots: 3,
            }),
            wide: String::new(),
            store: CheckpointStore::open(&ckpt).unwrap(),
        }
    }

    fn retire(&mut self, retired: Vec<sdchecker::RetiredApp>) {
        for r in retired {
            self.wide.push_str(&r.wide_event);
            self.wide.push('\n');
        }
    }

    /// One poll and the retirements it made due.
    fn poll(&mut self) {
        self.tailer.poll_with(&mut self.inc).unwrap();
        let retired = self.inc.drain_ready();
        self.retire(retired);
    }

    /// The shutdown drain: a full poll, the partial lines, `finish()`.
    fn drain(&mut self) {
        self.tailer.drain_with(&mut self.inc).unwrap();
        let retired = self.inc.finish();
        self.retire(retired);
    }

    /// What `sdcheckerd` would checkpoint now.
    fn checkpoint(&self) -> Vec<u8> {
        let fingerprint = CfgFingerprint {
            settle_ms: 2_000,
            idle_timeout_ms: 0,
            exemplar_slots: 3,
            alerts: false,
            slo_ms: 1,
            eval_interval_ms: 1_000,
        };
        let inputs = SaveInputs {
            tailer: &self.tailer,
            analyzer: &self.inc,
            engine: None,
            fingerprint: &fingerprint,
            wide_bytes: self.wide.len() as u64,
            writes_total: 0,
            recoveries: 0,
        };
        checkpoint::save(&self.store, &inputs).unwrap();
        std::fs::read(self.store.current_path()).unwrap()
    }
}

/// Daemons on 1, 2 and 4 workers over one directory, polled at the same
/// moments: identical statistics, lag, checkpoint bytes and wide events
/// after every poll.
fn daemons_agree(daemons: &[Daemon], label: &str) {
    let (one, gold) = (&daemons[0], daemons[0].checkpoint());
    for d in &daemons[1..] {
        assert_eq!(d.tailer.stats(), one.tailer.stats(), "{label}: stats");
        assert_eq!(d.tailer.lag(), one.tailer.lag(), "{label}: lag");
        assert_eq!(d.wide, one.wide, "{label}: wide events");
        assert!(d.checkpoint() == gold, "{label}: checkpoint bytes differ");
    }
}

/// The daemon's pool does not change its answer: over a clean tree, the
/// tree damaged by `corrupt_dir` at its default and severe settings, the
/// ResourceManager log rotated out of time order with every application
/// log shuffled, and every file truncated, each file appended in three
/// pieces cut anywhere, daemons on 1, 2 and 4 workers agree after every
/// poll and after the shutdown drain.
#[test]
fn daemon_polls_are_the_same_at_every_width() {
    use std::fs;
    let none = CorruptConfig {
        truncate: 0.0,
        clip_line: 0.0,
        duplicate_line: 0.0,
        swap_lines: 0.0,
        garbage: 0.0,
    };
    let trees: [(&str, Option<CorruptConfig>); 5] = [
        ("clean", None),
        ("corrupt default", Some(CorruptConfig::default())),
        ("corrupt severe", Some(CorruptConfig::severe())),
        ("rotated and shuffled", None),
        (
            "truncated",
            Some(CorruptConfig {
                truncate: 1.0,
                ..none
            }),
        ),
    ];
    for (case, (label, damage)) in (0u64..).zip(trees) {
        let mut rng = SimRng::new(0xDAED0 ^ case);
        let store = random_corpus(&mut rng);
        let tmp = |what: &str| {
            std::env::temp_dir().join(format!(
                "sdchecker_width_{what}_{case}_{}",
                std::process::id()
            ))
        };
        let (whole, dir) = (tmp("whole"), tmp("live"));
        for d in [&whole, &dir] {
            let _ = fs::remove_dir_all(d);
        }
        store.write_dir(&whole).unwrap();
        match (label, &damage) {
            (_, Some(cfg)) => drop(corrupt_dir(&whole, case + 1, cfg).unwrap()),
            ("rotated and shuffled", None) => {
                layouts::rotate_rm_log(&whole);
                layouts::shuffle_app_logs(&mut rng, &store, &whole);
            }
            _ => {}
        }
        // Every file of the finished tree, to be appended in pieces.
        let mut files = Vec::new();
        let mut stack = vec![whole.clone()];
        while let Some(d) = stack.pop() {
            for entry in fs::read_dir(&d).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    stack.push(path);
                } else {
                    let rel = path.strip_prefix(&whole).unwrap().to_path_buf();
                    files.push((rel, fs::read(&path).unwrap()));
                }
            }
        }
        files.sort();
        fs::create_dir_all(&dir).unwrap();
        let mut daemons: Vec<Daemon> = [1, 2, 4].map(|t| Daemon::new(&dir, t)).into();
        for piece in 0..3 {
            for (rel, bytes) in &files {
                let (from, to) = (bytes.len() * piece / 3, bytes.len() * (piece + 1) / 3);
                let path = dir.join(rel);
                fs::create_dir_all(path.parent().unwrap()).unwrap();
                let mut f = fs::OpenOptions::new()
                    .append(true)
                    .create(true)
                    .open(&path)
                    .unwrap();
                std::io::Write::write_all(&mut f, &bytes[from..to]).unwrap();
            }
            for d in &mut daemons {
                d.poll();
            }
            daemons_agree(&daemons, &format!("{label}, piece {piece}"));
        }
        for d in &mut daemons {
            d.drain();
        }
        daemons_agree(&daemons, &format!("{label}, drained"));
        assert!(!daemons[0].wide.is_empty(), "{label}: something retired");
        for d in [&whole, &dir] {
            fs::remove_dir_all(d).unwrap();
        }
        for t in [1, 2, 4] {
            let _ = fs::remove_dir_all(dir.with_extension(format!("ckpt{t}")));
        }
    }
}
