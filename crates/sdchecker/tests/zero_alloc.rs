//! Allocations are counted, not hoped for — and so is memory.
//!
//! The hot path's claim is that a log line which yields no event costs
//! no allocation between the bytes it was read into and the verdict on
//! it, that a directory analysis allocates per file and per event, not
//! per line, and that metrics recording in the tailed pipeline costs
//! allocations per counter series a sweep touches, not per event. This binary installs a counting allocator (it is its
//! own process, so nothing else is affected) and holds both to a number;
//! the same allocator tracks live bytes and their high-water mark, which
//! holds a directory analysis's peak heap to a figure per event, and a
//! directory analysis's and a tailed drain's to one read chunk whatever
//! the size of the file. Counts
//! are per thread, so the harness running tests side by side does not
//! disturb them.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};

use logmodel::{
    carry_lines, parse_line_ref, Epoch, LogSource, LogStore, NodeId, Parallelism, MAX_HELD_LINE,
};
use sdchecker::extract::CoverageCounts;
use sdchecker::{
    analyze_dir_with, analyze_store, critical_path, full_report, report_json,
    wide_events_for_analysis, Analysis, DirTailer, EventKind, Extractor, IncrementalAnalyzer,
    IncrementalConfig, Outcome, Report, StreamCursor, TailOps, TailStats, READ_CHUNK,
};

thread_local! {
    /// Calls to `alloc`, `alloc_zeroed` and `realloc` this thread made
    /// since it started counting; `None` while it is not.
    static ALLOCS: Cell<Option<u64>> = const { Cell::new(None) };
    /// Bytes this thread has allocated minus bytes it has freed since
    /// the mark was last reset, and the high-water mark of that sum.
    static LIVE: Cell<(i64, i64)> = const { Cell::new((0, 0)) };
}

fn note_alloc() {
    // A thread past its teardown has no counter left to bump.
    let _ = ALLOCS.try_with(|n| n.set(n.get().map(|n| n + 1)));
}

/// Whether every thread's allocations count into [`ALL_LIVE`]: set only
/// in a child process that runs one test alone.
static COUNT_ALL: AtomicBool = AtomicBool::new(false);
/// Bytes every thread has allocated minus bytes freed since the mark was
/// last reset, and the high-water mark of that sum.
static ALL_LIVE: AtomicI64 = AtomicI64::new(0);
static ALL_PEAK: AtomicI64 = AtomicI64::new(0);

fn note_live(grown: usize, freed: usize) {
    let delta = grown as i64 - freed as i64;
    let _ = LIVE.try_with(|c| {
        let (live, peak) = c.get();
        let live = live + delta;
        c.set((live, peak.max(live)));
    });
    if COUNT_ALL.load(Ordering::SeqCst) {
        let live = ALL_LIVE.fetch_add(delta, Ordering::SeqCst) + delta;
        ALL_PEAK.fetch_max(live, Ordering::SeqCst);
    }
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's own
// arguments and returns its result unchanged; the counters are
// const-initialised thread-locals without a destructor, so touching
// them never allocates and never touches the memory being managed.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        note_live(layout.size(), 0);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        note_live(layout.size(), 0);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_live(0, layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        note_live(new_size, layout.size());
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Run `f` and return how many allocations this thread made inside it.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    ALLOCS.with(|n| n.set(Some(0)));
    let out = f();
    let n = ALLOCS.with(|n| n.replace(None));
    (out, n.expect("counting was on"))
}

/// Run `f` and return the most heap the process held at once inside
/// it, above what it held on entry, whichever threads allocated it.
/// Meaningful only with no other test running: call it in a child
/// process (see [`run_alone`]).
fn peak_live_bytes_all_threads<R>(f: impl FnOnce() -> R) -> (R, u64) {
    ALL_LIVE.store(0, Ordering::SeqCst);
    ALL_PEAK.store(0, Ordering::SeqCst);
    COUNT_ALL.store(true, Ordering::SeqCst);
    let out = f();
    COUNT_ALL.store(false, Ordering::SeqCst);
    (out, ALL_PEAK.load(Ordering::SeqCst) as u64)
}

/// Run `f` and return the most heap this thread held at once inside it,
/// above what it held on entry.
fn peak_live_bytes<R>(f: impl FnOnce() -> R) -> (R, u64) {
    LIVE.with(|c| c.set((0, 0)));
    let out = f();
    let (_, peak) = LIVE.with(Cell::get);
    (out, peak as u64)
}

const STACK_TRACE: &str =
    "\tat org.apache.hadoop.yarn.server.resourcemanager.ResourceManager.main(ResourceManager.java:1240)";
const OUT_OF_VOCABULARY: &str = "2018-03-14 09:00:00,004 INFO  ParentQueue: assignedContainer \
     queue=root usedCapacity=0.715 absoluteUsedCapacity=0.328 used=<memory:2850111, vCores:630>";
const OTHER_SHAPE_RM: &str = "2018-03-14 09:00:00,004 INFO  RMAppImpl: Storing application \
     with id application_1521018000000_0069";
const OTHER_SHAPE_NM: &str = "2018-03-14 09:00:00,004 INFO  ContainerImpl: Cleaning up \
     container container_1521018000000_0001_01_000002";

#[test]
fn a_line_costs_no_allocation_from_bytes_to_verdict() {
    let epoch = Epoch::default_run();
    let ex = Extractor::new();
    let rm = LogSource::ResourceManager;
    let nm = LogSource::NodeManager(NodeId(1));
    let app = "application_1521018000000_0001";
    let cid = "container_1521018000000_0001_01_000002";
    let rm_app = format!(
        "2018-03-14 09:00:00,100 INFO  RMAppImpl: {app} State change from NEW_SAVING to \
         SUBMITTED on event = APP_NEW_SAVED"
    );
    let rm_container = format!(
        "2018-03-14 09:00:00,150 INFO  RMContainerImpl: {cid} Container Transitioned from NEW \
         to ALLOCATED"
    );
    let nm_container = format!(
        "2018-03-14 09:00:00,160 INFO  ContainerImpl: Container {cid} transitioned from NEW \
         to LOCALIZING\r"
    );
    let benign = format!(
        "2018-03-14 09:00:00,090 INFO  RMAppImpl: {app} State change from NEW to NEW_SAVING \
         on event = START"
    );
    // (stream, line, verdict, event)
    let cases: [(LogSource, &str, Option<Outcome>, Option<EventKind>); 9] = [
        (rm, STACK_TRACE, None, None),
        (rm, "", None, None),
        (rm, OUT_OF_VOCABULARY, Some(Outcome::Ignored), None),
        (rm, OTHER_SHAPE_RM, Some(Outcome::Ignored), None),
        (nm, OTHER_SHAPE_NM, Some(Outcome::Ignored), None),
        (rm, &benign, Some(Outcome::Matched), None),
        (
            rm,
            &rm_app,
            Some(Outcome::Matched),
            Some(EventKind::AppSubmitted),
        ),
        (
            rm,
            &rm_container,
            Some(Outcome::Matched),
            Some(EventKind::ContainerAllocated),
        ),
        (
            nm,
            &nm_container,
            Some(Outcome::Matched),
            Some(EventKind::ContainerLocalizing),
        ),
    ];
    let mut out = Vec::with_capacity(cases.len());
    let mut carry = Vec::new();
    for (source, line, verdict, event) in cases {
        let mut cursor = StreamCursor::default();
        let mut cov = CoverageCounts::default();
        let before = out.len();
        let bytes = format!("{line}\n");
        let (got, allocs) = allocations(|| {
            carry_lines(&mut carry, bytes.as_bytes(), false, |mut lines| {
                let split = lines.next().expect("one line ends");
                assert_eq!((split, lines.next()), (line, None));
                let record = parse_line_ref(&epoch, split)?;
                Some(
                    cursor
                        .step(&ex, source, &record, &mut out, &mut cov)
                        .outcome,
                )
            })
            .expect("a line ended")
        });
        assert_eq!(got, verdict, "{line:?}");
        assert_eq!(out[before..].first().map(|e| e.kind), event, "{line:?}");
        assert_eq!(allocs, 0, "{line:?}");
    }
}

/// Set in the child process that
/// [`recording_costs_allocations_per_event_kind_not_per_event`] reruns
/// itself in.
const RECORDING_CHILD: &str = "SDCHECKER_ZERO_ALLOC_RECORDING_CHILD";

/// Whether this is the child process the test `name` reruns itself in,
/// alone, with `env` set. If not, rerun it there, assert that it passed,
/// and say no.
fn run_alone(name: &str, env: &str) -> bool {
    if std::env::var_os(env).is_some() {
        return true;
    }
    let out = std::process::Command::new(std::env::current_exe().unwrap())
        .args(["--exact", name, "--test-threads=1"])
        .env(env, "1")
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

/// With metrics recording on, a tailed sweep — `DirTailer::poll_with`
/// into an `IncrementalAnalyzer`, the daemon's path — costs one counter
/// series' key per event kind it yielded and per coverage status it had
/// over what it costs with recording off — not one per event. A key is
/// a label vector plus one string per label: two allocations for
/// `extract_events_total{kind}`, three for
/// `parse_lines_total{source,status}`. Recording is switched on for the
/// whole process, so the test reruns itself alone in a child process,
/// where no other test's counts can see it.
#[test]
fn recording_costs_allocations_per_event_kind_not_per_event() {
    const NAME: &str = "recording_costs_allocations_per_event_kind_not_per_event";
    if !run_alone(NAME, RECORDING_CHILD) {
        return;
    }
    let mut store = LogStore::new(Epoch::default_run());
    for k in 0..16 {
        common::populate_faulty_fleet_at(&mut store, k);
    }
    let dir = std::env::temp_dir().join(format!(
        "sdchecker_zeroalloc_recording_{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    store.write_dir(&dir).unwrap();
    // A fresh daemon's first poll: every file read, scanned and folded in.
    let sweep = || {
        let mut an = IncrementalAnalyzer::new(IncrementalConfig::default());
        DirTailer::new(&dir).unwrap().poll_with(&mut an).unwrap();
        an.coverage().total()
    };
    let (total, off) = allocations(sweep);

    // The kinds and statuses the sweep yields, by the extractor the
    // analyzer runs.
    let ex = Extractor::new();
    let (mut out, mut cov) = (Vec::new(), std::collections::BTreeMap::new());
    for src in store.sources() {
        let (mut cursor, counts) = (StreamCursor::default(), cov.entry(src.family()));
        let counts: &mut CoverageCounts = counts.or_default();
        for r in store.records(src).iter() {
            cursor.step(&ex, src, &r, &mut out, counts);
        }
    }
    let kinds = out
        .iter()
        .map(|e| e.kind)
        .collect::<std::collections::BTreeSet<EventKind>>()
        .len() as u64;
    let statuses: u64 = cov
        .values()
        .map(|c| [c.matched, c.unmatched, c.anomalous, c.ignored])
        .map(|n| n.iter().filter(|&&n| n > 0).count() as u64)
        .sum();
    let events = out.len() as u64;
    assert_eq!(
        total.matched + total.unmatched + total.anomalous + total.ignored,
        store.total_records() as u64
    );
    assert!(
        events > 4 * kinds,
        "{events} events, {kinds} kinds over the sweep"
    );

    obs::enable();
    // Every series exists once this has run, so the measured pass adds
    // no map node.
    sweep();
    let (_, on) = allocations(sweep);
    assert!(
        on - off <= 2 * kinds + 3 * statuses,
        "{} allocations more with recording on, for {events} events, {kinds} distinct kinds \
         and {statuses} distinct statuses over the sweep",
        on - off
    );
    fs::remove_dir_all(&dir).unwrap();
}

/// The length [`noisy_fleet`] pads its directory's path to.
const CORPUS_PATH_LEN: usize = 160;

/// The faulty fleet on disk with `noise` lines that yield nothing — a
/// stack-trace line, a record of no rule's class, a record of a rule's
/// class but another shape — after every real line. Returns the
/// directory and how many log files it holds. The directory's path is
/// padded to [`CORPUS_PATH_LEN`] bytes, so the file listing an analysis
/// holds costs the same wherever the temp dir is.
fn noisy_fleet(name: &str, noise: usize) -> (PathBuf, usize) {
    let mut path = std::env::temp_dir()
        .join(format!(
            "sdchecker_zeroalloc_{name}_{}_",
            std::process::id()
        ))
        .into_os_string();
    while path.len() < CORPUS_PATH_LEN {
        path.push("x");
    }
    let dir = PathBuf::from(path);
    let _ = fs::remove_dir_all(&dir);
    let mut store = LogStore::new(Epoch::default_run());
    common::populate_faulty_fleet(&mut store);
    store.write_dir(&dir).unwrap();
    let mut files = 0;
    for source in store.sources() {
        let other_shape = match source {
            LogSource::NodeManager(_) => OTHER_SHAPE_NM,
            _ => OTHER_SHAPE_RM,
        };
        let mut text = String::new();
        for line in store.text(source).lines() {
            text.push_str(line);
            text.push('\n');
            // Noise records carry the stamp of the line they follow, so
            // the stream stays in time order.
            let stamp = &line[..23];
            for i in 0..noise {
                match i % 3 {
                    0 => text.push_str(STACK_TRACE),
                    1 => text.extend([stamp, &OUT_OF_VOCABULARY[23..]]),
                    _ => text.extend([stamp, &other_shape[23..]]),
                }
                text.push('\n');
            }
        }
        fs::write(dir.join(source.rel_path()), text).unwrap();
        files += 1;
    }
    (dir, files)
}

/// Allocations of `f`, checked to repeat exactly.
fn repeatable_allocations<R>(f: impl Fn() -> R) -> (R, u64) {
    let (out, first) = allocations(&f);
    let (_, second) = allocations(&f);
    assert_eq!(first, second, "allocation counts must repeat exactly");
    (out, first)
}

/// Allocations of one sequential directory analysis, with the number of
/// events it found.
fn analysis_allocations(dir: &Path) -> (usize, u64) {
    repeatable_allocations(|| {
        analyze_dir_with(dir, Parallelism::ONE)
            .unwrap()
            .events
            .len()
    })
}

#[test]
fn directory_analysis_allocates_per_file_and_event_not_per_line() {
    let (sparse_dir, files) = noisy_fleet("x1", 1);
    let (dense_dir, _) = noisy_fleet("x10", 10);
    let (sparse_events, sparse) = analysis_allocations(&sparse_dir);
    let (dense_events, dense) = analysis_allocations(&dense_dir);
    assert_eq!(sparse_events, dense_events);
    assert!(
        sparse_events > 30,
        "the fleet yields events: {sparse_events}"
    );
    // Ten times the lines may cost each file's record vector one more
    // doubling, and nothing else.
    assert!(
        dense.abs_diff(sparse) <= files as u64,
        "{sparse} allocations at 1 noise line per line, {dense} at 10, over {files} files"
    );
    fs::remove_dir_all(&sparse_dir).unwrap();
    fs::remove_dir_all(&dense_dir).unwrap();
}

/// `copies` replicas of the faulty fleet (three applications each, one of
/// them with a full thirteen-segment critical path), analyzed.
fn fleet_analysis(copies: u32) -> Analysis {
    let mut store = LogStore::new(Epoch::default_run());
    for k in 0..copies {
        common::populate_faulty_fleet_at(&mut store, k);
    }
    analyze_store(&store)
}

#[test]
fn a_critical_path_allocates_its_segments_and_two_entity_names() {
    let an = fleet_analysis(2);
    let mut longest = 0;
    for g in an.graphs.values() {
        let (path, allocs) = repeatable_allocations(|| critical_path(g));
        match path {
            // The segment vector, the AM's and the critical executor's
            // names built once each, and one copy of a name per segment.
            Some(p) => {
                assert_eq!(allocs, 3 + p.segments.len() as u64, "{}", g.app);
                assert!(allocs <= 16, "{allocs} allocations for {}", g.app);
                longest = longest.max(p.segments.len());
            }
            // No path is decided before anything is built.
            None => assert_eq!(allocs, 0, "{}", g.app),
        }
    }
    assert_eq!(longest, 13, "the fleet holds a full chain");
}

#[test]
fn three_documents_cost_a_bounded_number_of_allocations_per_application() {
    let one_report = |an: &Analysis| {
        let report = Report::new(an);
        report.text().len() + report.json().len() + report.wide_events().len()
    };
    let three_wrappers = |an: &Analysis| {
        full_report(an).len() + report_json(an).len() + wide_events_for_analysis(an).len()
    };
    // Per application means per *extra* application: the difference
    // between two fleet sizes leaves out what a report costs however
    // small the corpus is (its tables, its sketches).
    let (small, large) = (fleet_analysis(10), fleet_analysis(50));
    let extra_apps = (large.delays.len() - small.delays.len()) as u64;
    let extra_paths = extra_apps / 3;
    assert_eq!((extra_apps, extra_paths), (120, 40));
    let extra_allocations = |render: &dyn Fn(&Analysis) -> usize| {
        let (small_bytes, small_allocs) = repeatable_allocations(|| render(&small));
        let (large_bytes, large_allocs) = repeatable_allocations(|| render(&large));
        assert!(large_bytes > 4 * small_bytes);
        large_allocs - small_allocs
    };
    // An application that reached its first task pays for its critical
    // path once (16 here, see above); beyond that all three documents
    // together may cost an application two allocations — not one per
    // field, which would be hundreds.
    let shared = extra_allocations(&one_report);
    assert!(
        shared <= extra_paths * 16 + extra_apps * 2,
        "{shared} allocations for {extra_apps} more applications"
    );
    // Streamed to their files, the two documents cost no more.
    let streamed = extra_allocations(&streamed_report);
    assert!(
        streamed <= extra_paths * 16 + extra_apps * 2,
        "{streamed} allocations streaming for {extra_apps} more applications"
    );
    // Each wrapper builds its own `Report`: two more critical-path
    // passes and nothing else.
    let separate = extra_allocations(&three_wrappers);
    assert_eq!(separate, shared + 2 * extra_paths * 16);
}

/// A writer that keeps nothing but the number of bytes it was given.
#[derive(Default)]
struct ByteCount(usize);

impl std::io::Write for ByteCount {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0 += buf.len();
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The text report, then `report-v1` and the wide events streamed the
/// way `sdchecker` writes its files: the bytes they came to.
fn streamed_report(an: &Analysis) -> usize {
    let report = Report::new(an);
    let (mut json, mut wide) = (ByteCount::default(), ByteCount::default());
    let [_, json_written, wide_written] =
        report.write_documents(Parallelism::ONE, None, Some(&mut json), Some(&mut wide));
    json_written.unwrap();
    wide_written.unwrap();
    report.text().len() + json.0 + wide.0
}

/// The most streaming a larger fleet's documents may hold beyond a
/// smaller one's: the 64 KiB buffer they were once streamed through
/// (`report.rs` now renders a run of applications at a time).
const STREAM_BUFFER: u64 = 64 * 1024;

/// Rendering `report-v1` and the wide events holds a run, not a
/// document: five times the applications cost no more live heap than
/// one 64 KiB buffer more. Measured with that buffer: 65 536 bytes at the
/// peak for both fleets (84 575 and 409 676 bytes of documents).
/// Rendering them whole and then writing them fails here: 278 528 bytes
/// at the peak against 69 632.
#[test]
fn streamed_documents_hold_a_buffer_not_a_document() {
    let (small, large) = (fleet_analysis(10), fleet_analysis(50));
    let (small, large) = (Report::new(&small), Report::new(&large));
    let stream = |report: &Report| {
        peak_live_bytes(|| {
            let (mut json, mut wide) = (ByteCount::default(), ByteCount::default());
            let [_, json_written, wide_written] =
                report.write_documents(Parallelism::ONE, None, Some(&mut json), Some(&mut wide));
            json_written.unwrap();
            wide_written.unwrap();
            (json.0 + wide.0) as u64
        })
    };
    let ((small_bytes, small_peak), (large_bytes, large_peak)) = (stream(&small), stream(&large));
    assert!(
        large_bytes > 4 * STREAM_BUFFER && large_bytes > 4 * small_bytes,
        "{small_bytes} and {large_bytes} bytes rendered"
    );
    assert!(
        large_peak.saturating_sub(small_peak) <= STREAM_BUFFER,
        "{large_peak} bytes live at the peak streaming {large_bytes} bytes, \
         {small_peak} streaming {small_bytes}"
    );
}

/// Naming a file's source costs nothing: discovery runs it once per file
/// of the corpus, in both binaries.
#[test]
fn a_source_is_named_from_its_path_without_allocating() {
    let mut store = LogStore::new(Epoch::default_run());
    for k in 0..10 {
        common::populate_faulty_fleet_at(&mut store, k);
    }
    let mut paths: Vec<(String, LogSource)> = Vec::new();
    for src in store.sources() {
        let rel = src.rel_path();
        paths.push((format!("{rel}.1"), src));
        paths.push((rel.replace('/', "\\"), src));
        paths.push((rel, src));
    }
    paths.push(("epoch.txt".to_string(), LogSource::ResourceManager));
    let (named, allocs) = allocations(|| {
        paths
            .iter()
            .filter(|(rel, src)| LogSource::from_rel_path(rel) == Some(*src))
            .count()
    });
    assert_eq!(
        named,
        paths.len() - 1,
        "every path but epoch.txt names its source"
    );
    assert_eq!(
        allocs,
        0,
        "{allocs} allocations naming {} paths",
        paths.len()
    );
}

/// The most heap a sequential directory analysis of the noisy fleet may
/// hold at once, per event it finds. Measured: 427.15 (17 086 bytes for
/// 40 events) with the 48-byte `SchedEvent`; 484.75 (19 390 bytes) with
/// the 120-byte one before it. Eight more bytes per event measure
/// 433.55, so a field added to `SchedEvent` fails here until this figure
/// is raised on purpose — every byte of the event is priced.
const PEAK_LIVE_BYTES_PER_EVENT: f64 = 430.0;

#[test]
fn directory_analysis_peak_live_heap_is_priced_per_event() {
    let (dir, _) = noisy_fleet("peak", 1);
    let (events, peak) = peak_live_bytes(|| {
        analyze_dir_with(&dir, Parallelism::ONE)
            .unwrap()
            .events
            .len()
    });
    assert_eq!(events, 40, "the fleet's event count");
    let per_event = peak as f64 / events as f64;
    assert!(
        per_event <= PEAK_LIVE_BYTES_PER_EVENT,
        "{peak} bytes live at the peak for {events} events: {per_event:.2} per event, \
         budget {PEAK_LIVE_BYTES_PER_EVENT}"
    );
    fs::remove_dir_all(&dir).unwrap();
}

/// The most heap a tailed drain of the noisy fleet may hold at once
/// beyond what the same drain holds at one noise line per line, when the
/// dense ResourceManager log is at least four read chunks long: one
/// chunk's record vector (2 049 × 48 B) and change. Measured: 92 754
/// bytes, in both profiles (96 178 while the drain went through
/// the analyzer's record loop rather than a scan per chunk). When a grown file was
/// read in one buffer,
/// with a record vector sized for all of it, the difference was
/// 1 664 140 bytes — more than the dense log's 1 216 383.
const TAILED_DRAIN_SLACK: u64 = 128 * 1024;

/// The most heap a tailed drain on two workers may hold at once beyond
/// what the same drain holds at one noise line per line, when the dense
/// ResourceManager log is at least four read chunks long — the workers'
/// allocations counted with the calling thread's. Per extra worker: its
/// read buffer, which costs nothing, because the workers split one
/// [`READ_CHUNK`] between them; its chunk's record vector, which costs
/// nothing either, because two half chunks' vectors (1 025 × 48 B each)
/// are one whole chunk's; and the scans not yet applied, which hold
/// events, not lines, and the two fleets have the same events. So the
/// one-worker figure, [`TAILED_DRAIN_SLACK`]: measured 90 660 bytes in
/// the debug profile and 70 113 in release, against 92 754 on one
/// worker.
const TAILED_DRAIN_SLACK_2: u64 = TAILED_DRAIN_SLACK;

/// The heap a daemon's catch-up on `threads` workers holds at its peak,
/// with the delays it retired and the size of the fleet's
/// ResourceManager log.
fn tailed_drain_peak(dir: &Path, threads: usize) -> (String, u64, u64) {
    let rm_len = fs::metadata(dir.join("resourcemanager.log")).unwrap().len();
    let mut inc = IncrementalAnalyzer::new(IncrementalConfig::default());
    let drain = || {
        let mut tailer = DirTailer::new(dir).unwrap();
        tailer.set_parallelism(Parallelism::new(threads));
        tailer.poll_with(&mut inc).unwrap();
    };
    let (_, peak) = if threads == 1 {
        peak_live_bytes(drain)
    } else {
        peak_live_bytes_all_threads(drain)
    };
    let delays: Vec<_> = inc.finish().into_iter().map(|r| r.delays).collect();
    (format!("{delays:?}"), peak, rm_len)
}

/// A sparse and a dense fleet drained on `threads` workers: the same
/// delays, and a peak at most `slack` apart.
fn drain_holds_a_chunk(threads: usize, slack: u64) {
    let (sparse_dir, _) = noisy_fleet(&format!("drain1_{threads}"), 1);
    let (dense_dir, _) = noisy_fleet(&format!("drain400_{threads}"), 400);
    let (sparse_delays, sparse, _) = tailed_drain_peak(&sparse_dir, threads);
    let (dense_delays, dense, rm_len) = tailed_drain_peak(&dense_dir, threads);
    assert_eq!(sparse_delays, dense_delays);
    assert!(
        rm_len >= 4 * READ_CHUNK as u64,
        "the dense ResourceManager log is {rm_len} bytes"
    );
    assert!(
        dense.saturating_sub(sparse) < slack,
        "{dense} bytes live at the peak over a {rm_len}-byte ResourceManager log, \
         {sparse} at one noise line per line, on {threads} workers"
    );
    fs::remove_dir_all(&sparse_dir).unwrap();
    fs::remove_dir_all(&dense_dir).unwrap();
}

#[test]
fn a_tailed_drain_holds_a_chunk_not_a_file() {
    drain_holds_a_chunk(1, TAILED_DRAIN_SLACK);
}

/// Set in the child process that
/// [`a_pooled_tailed_drain_holds_a_chunk_not_a_file`] reruns itself in,
/// where its workers' allocations count.
const POOLED_CHILD: &str = "SDCHECKER_ZERO_ALLOC_POOLED_CHILD";

#[test]
fn a_pooled_tailed_drain_holds_a_chunk_not_a_file() {
    if run_alone(
        "a_pooled_tailed_drain_holds_a_chunk_not_a_file",
        POOLED_CHILD,
    ) {
        drain_holds_a_chunk(2, TAILED_DRAIN_SLACK_2);
    }
}

/// The most heap a sequential directory analysis of the noisy fleet may
/// hold at once beyond what the same analysis holds at one noise line per
/// line, when the dense ResourceManager log is at least four read chunks
/// long: one chunk, its record vector (2 048 × 48 B) and change.
/// Measured: 352 178 bytes, in both profiles. When a file was read
/// whole, with a record vector sized for all of it, the difference was
/// 1 664 140 bytes — more than the dense log's 1 216 383.
const BATCH_SCAN_SLACK: u64 = 384 * 1024;

/// The heap a directory analysis holds at its peak, with the delays it
/// found and the size of the fleet's ResourceManager log.
fn batch_scan_peak(dir: &Path) -> (String, u64, u64) {
    let rm_len = fs::metadata(dir.join("resourcemanager.log")).unwrap().len();
    let (delays, peak) =
        peak_live_bytes(|| analyze_dir_with(dir, Parallelism::ONE).unwrap().delays);
    (format!("{delays:?}"), peak, rm_len)
}

/// Rotate `log` log4j-style into three segments of about a third of its
/// lines each: the newest in `log` itself, then `log.1`, the oldest in
/// `log.2`.
fn rotate_in_three(log: &Path) {
    let text = fs::read_to_string(log).unwrap();
    let lines: Vec<&str> = text.split_inclusive('\n').collect();
    let third = lines.len() / 3;
    let segment = |n: usize| format!("{}.{n}", log.display());
    fs::write(segment(2), lines[..third].concat()).unwrap();
    fs::write(segment(1), lines[third..2 * third].concat()).unwrap();
    fs::write(log, lines[2 * third..].concat()).unwrap();
}

#[test]
fn a_batch_scan_holds_a_chunk_not_a_file() {
    let (sparse_dir, _) = noisy_fleet("scan1", 1);
    let (dense_dir, _) = noisy_fleet("scan400", 400);
    let (sparse_delays, sparse, _) = batch_scan_peak(&sparse_dir);
    let (dense_delays, dense, rm_len) = batch_scan_peak(&dense_dir);
    assert!(
        rm_len >= 4 * READ_CHUNK as u64,
        "the dense ResourceManager log is {rm_len} bytes"
    );
    // The same log rotated, the newest third read first: each segment
    // is still more than a chunk long.
    rotate_in_three(&dense_dir.join("resourcemanager.log"));
    let (rotated_delays, rotated, _) = batch_scan_peak(&dense_dir);
    for (layout, delays, peak) in [
        ("one file", dense_delays, dense),
        ("three segments", rotated_delays, rotated),
    ] {
        assert_eq!(sparse_delays, delays, "{layout}");
        assert!(
            peak.saturating_sub(sparse) < BATCH_SCAN_SLACK,
            "{peak} bytes live at the peak over a {rm_len}-byte ResourceManager log \
             in {layout}, {sparse} at one noise line per line"
        );
    }
    fs::remove_dir_all(&sparse_dir).unwrap();
    fs::remove_dir_all(&dense_dir).unwrap();
}

/// What a daemon's polls make of `dir` on one worker: the delays it
/// retires, its tail statistics and counts, and the most heap it held.
fn daemon_over(
    dir: &Path,
    polls: &mut dyn FnMut(&mut dyn FnMut()),
) -> (String, TailStats, TailOps, u64) {
    let mut inc = IncrementalAnalyzer::new(IncrementalConfig::default());
    let mut tailer = DirTailer::new(dir).unwrap();
    let (_, peak) = peak_live_bytes(|| polls(&mut || tailer.poll_with(&mut inc).unwrap()));
    tailer.drain_with(&mut inc).unwrap();
    let delays: Vec<_> = inc.finish().into_iter().map(|r| r.delays).collect();
    (format!("{delays:?}"), tailer.stats(), tailer.ops(), peak)
}

/// An unterminated line twice [`MAX_HELD_LINE`] long in the middle of the
/// ResourceManager log — a runaway writer — then the rest of the log.
/// Batch and the daemon drop it alike, as one skipped line, and read
/// what the same fleet without it reads; the daemon meets it over three
/// polls, the first of which ends inside it. Neither holds it: each
/// peak is at most [`MAX_HELD_LINE`] and two chunks (the read buffer,
/// its record vector) above the fleet's without it, less than the line.
#[test]
fn an_oversize_line_is_dropped_alike_and_never_held_whole() {
    let (clean_dir, _) = noisy_fleet("oversize_clean", 1);
    let (dir, _) = noisy_fleet("oversize", 1);
    let rm = dir.join("resourcemanager.log");
    let text = fs::read(&rm).unwrap();
    let cut = text[..text.len() / 2]
        .iter()
        .rposition(|b| *b == b'\n')
        .unwrap()
        + 1;
    let runaway = vec![b'x'; 2 * MAX_HELD_LINE];
    let (head, tail) = text.split_at(cut);

    let (clean, clean_peak) =
        peak_live_bytes(|| analyze_dir_with(&clean_dir, Parallelism::ONE).unwrap());
    fs::write(&rm, [head, &runaway, b"\n", tail].concat()).unwrap();
    let (batch, batch_peak) = peak_live_bytes(|| analyze_dir_with(&dir, Parallelism::ONE).unwrap());
    assert_eq!(format!("{:?}", batch.delays), format!("{:?}", clean.delays));
    assert_eq!(batch.coverage, clean.coverage);
    let bound = (MAX_HELD_LINE + 2 * READ_CHUNK) as u64;
    assert!(bound < runaway.len() as u64);
    assert!(
        batch_peak < clean_peak + bound,
        "batch held {batch_peak} bytes at its peak, {clean_peak} without the line"
    );

    let (clean_delays, clean_stats, _, clean_peak) = daemon_over(&clean_dir, &mut |poll| poll());
    let appended = |bytes: &[u8]| {
        let mut f = fs::OpenOptions::new().append(true).open(&rm).unwrap();
        std::io::Write::write_all(&mut f, bytes).unwrap();
    };
    fs::write(&rm, head).unwrap();
    let (delays, stats, ops, peak) = daemon_over(&dir, &mut |poll| {
        appended(&runaway[..MAX_HELD_LINE + READ_CHUNK / 2]);
        poll();
        appended(&runaway[MAX_HELD_LINE + READ_CHUNK / 2..]);
        poll();
        appended(&[b"\n", tail].concat());
        poll();
    });
    assert_eq!(delays, clean_delays);
    assert_eq!(
        delays,
        format!("{:?}", batch.delays.iter().collect::<Vec<_>>())
    );
    assert_eq!(stats.parsed_lines, clean_stats.parsed_lines);
    assert_eq!(stats.skipped_lines, clean_stats.skipped_lines + 1);
    assert_eq!(ops.oversize_lines, 1);
    assert!(
        peak < clean_peak + bound,
        "the daemon held {peak} bytes at its peak, {clean_peak} without the line"
    );
    fs::remove_dir_all(&dir).unwrap();
    fs::remove_dir_all(&clean_dir).unwrap();
}

/// A timestamped line half a read chunk past [`MAX_HELD_LINE`], then one
/// a byte short of it, in the middle of the ResourceManager log: batch
/// drops the first as oversize and keeps the second, and the daemon does
/// the same on one worker and on two, however its polls split the two
/// lines — the rule is the line's length, not where a chunk ends.
#[test]
fn a_line_is_oversize_by_its_length_in_batch_and_daemon_alike() {
    let (dir, _) = noisy_fleet("oversize_band", 1);
    let rm = dir.join("resourcemanager.log");
    let text = fs::read(&rm).unwrap();
    let cut = text[..text.len() / 2]
        .iter()
        .rposition(|b| *b == b'\n')
        .unwrap()
        + 1;
    let (head, tail) = text.split_at(cut);
    let line = |len: usize| {
        let mut line = b"2018-03-14 09:00:01,000 INFO  Filler: ".to_vec();
        line.resize(len, b'm');
        line.push(b'\n');
        line
    };
    let long = [
        line(MAX_HELD_LINE + READ_CHUNK / 2),
        line(MAX_HELD_LINE - 1),
    ]
    .concat();
    let clean = {
        let mut t = DirTailer::new(&dir).unwrap();
        t.poll().unwrap();
        t.flush_partial();
        t.stats()
    };
    fs::write(&rm, [head, &long, tail].concat()).unwrap();
    let batch = analyze_dir_with(&dir, Parallelism::ONE).unwrap();
    let want = format!("{:?}", batch.delays.iter().collect::<Vec<_>>());

    let append = |bytes: &[u8]| {
        let mut f = fs::OpenOptions::new().append(true).open(&rm).unwrap();
        std::io::Write::write_all(&mut f, bytes).unwrap();
    };
    let first = MAX_HELD_LINE + READ_CHUNK / 2 + 1;
    let splits: [&[usize]; 4] = [
        &[],
        &[MAX_HELD_LINE - 10],
        &[READ_CHUNK / 3, first + 5],
        &[first, first + MAX_HELD_LINE - 20],
    ];
    for threads in [1, 2] {
        for splits in splits {
            let label = format!("{threads} workers, polls split at {splits:?}");
            fs::write(&rm, head).unwrap();
            let mut inc = IncrementalAnalyzer::new(IncrementalConfig::default());
            let mut tailer = DirTailer::new(&dir).unwrap();
            tailer.set_parallelism(Parallelism::new(threads));
            tailer.poll_with(&mut inc).unwrap();
            let mut from = 0;
            for &to in splits.iter().chain([&long.len()]) {
                append(&long[from..to]);
                tailer.poll_with(&mut inc).unwrap();
                from = to;
            }
            append(tail);
            tailer.drain_with(&mut inc).unwrap();
            let stats = tailer.stats();
            assert_eq!(stats.parsed_lines, clean.parsed_lines + 1, "{label}");
            assert_eq!(stats.skipped_lines, clean.skipped_lines + 1, "{label}");
            assert_eq!(tailer.ops().oversize_lines, 1, "{label}");
            assert_eq!(inc.coverage(), &batch.coverage, "{label}");
            let delays: Vec<_> = inc.finish().into_iter().map(|r| r.delays).collect();
            assert_eq!(format!("{delays:?}"), want, "{label}");
        }
    }
    fs::remove_dir_all(&dir).unwrap();
}
