//! The traced run: replays a workload's corpus in-process, with a span
//! around each call into a layer's public functions, and a short daemon
//! session from outside; reports the per-layer metrics and writes a
//! Chrome trace. End-to-end metrics never come from here.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use logmodel::{parse_line, Epoch, LogRecord, LogSource, LogStore, Parallelism};
use sdchecker::checkpoint::{self, CfgFingerprint, CheckpointStore, SaveInputs};
use sdchecker::extract::extract_all_cov_with;
use sdchecker::{
    analyze_dir_with, analyze_store_with, build_graphs, critical_path, decompose, default_rules,
    extract_app_names_with, find_unused_containers, full_report, report_json,
    wide_events_for_analysis, AlertEngine, Analysis, DirTailer, IncrementalAnalyzer,
    IncrementalConfig, Outcome as LineOutcome,
};

use crate::alloc::{self, AllocStats};
use crate::check::{self, Reference};
use crate::corpus::{ms_since, Line};
use crate::e2e::{
    append_tick, health_field, paced_replay, prepare, Config, Daemon, Feed, Outcome, Prepared,
    Stopped, Workload, PROBE_TAIL_CAP,
};
use crate::proc::{sibling_binary, Proc, Scratch, WORK_ROOT};
use crate::stats::{median, percentile, tail};

/// The per-layer metrics, `<crate>.<module>.<metric>`, with units, in the
/// order of `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 69] = [
    ("logmodel.store.fs_read_ms", "ms"),
    ("logmodel.store.read_dir_ms", "ms"),
    ("logmodel.store.read_dir_mb_per_s", "MB/s"),
    ("logmodel.store.write_dir_ms", "ms"),
    ("logmodel.store.records_by_time_ms", "ms"),
    ("logmodel.format.parse_ns_per_record", "ns"),
    ("logmodel.format.parse_allocs_per_record", "count"),
    ("logmodel.format.parse_reject_ratio", "ratio"),
    ("logmodel.par.read_dir_efficiency_2t", "ratio"),
    ("logmodel.par.analyze_efficiency_2t", "ratio"),
    ("sdchecker.extract.extract_all_ms", "ms"),
    ("sdchecker.extract.ns_per_record", "ns"),
    ("sdchecker.extract.allocs_per_record", "count"),
    ("sdchecker.extract.match_ratio", "ratio"),
    ("sdchecker.extract.unmatched_ratio", "ratio"),
    ("sdchecker.extract.app_names_ms", "ms"),
    ("sdchecker.graph.build_us_per_app", "us"),
    ("sdchecker.decompose.us_per_app", "us"),
    ("sdchecker.critical.us_per_app", "us"),
    ("sdchecker.bugs.scan_ms", "ms"),
    ("sdchecker.analyze.store_ms", "ms"),
    ("sdchecker.analyze.tiling_gap_pct", "%"),
    ("sdchecker.analyze.peak_live_mb", "MB"),
    ("sdchecker.analyze.allocs_per_record", "count"),
    ("sdchecker.report.full_report_ms", "ms"),
    ("sdchecker.report.full_report_bytes", "bytes"),
    ("sdchecker.report.json_ms", "ms"),
    ("sdchecker.report.json_bytes", "bytes"),
    ("sdchecker.wide.render_ms", "ms"),
    ("sdchecker.wide.render_bytes", "bytes"),
    ("sdchecker.tail.idle_poll_ms", "ms"),
    ("sdchecker.tail.poll_busy_ms_p50", "ms"),
    ("sdchecker.tail.read_mb_per_s", "MB/s"),
    ("sdchecker.tail.lag_sweep_ms", "ms"),
    ("sdchecker.tail.files", "count"),
    ("sdchecker.incremental.ingest_ns_per_record", "ns"),
    ("sdchecker.incremental.ingest_allocs_per_record", "count"),
    ("sdchecker.incremental.drain_ready_ms_p50", "ms"),
    ("sdchecker.incremental.finish_ms", "ms"),
    ("sdchecker.incremental.live_report_json_ms", "ms"),
    ("sdchecker.incremental.live_report_bytes", "bytes"),
    ("sdchecker.incremental.in_flight_hwm", "count"),
    ("sdchecker.incremental.events_buffered_hwm", "count"),
    ("sdchecker.checkpoint.save_ms_p50", "ms"),
    ("sdchecker.checkpoint.bytes_p50", "bytes"),
    ("sdchecker.checkpoint.load_ms", "ms"),
    ("sdchecker.alerts.advance_us_p50", "us"),
    ("sdchecker.exemplars.publish_ms", "ms"),
    ("obs.http.healthz_ms_p50", "ms"),
    ("obs.http.report_json_ms_p50", "ms"),
    ("obs.http.metrics_ms_p50", "ms"),
    ("obs.http.metrics_bytes", "bytes"),
    ("obs.enabled_overhead_pct", "%"),
    ("sdcheckerd.ready_ms", "ms"),
    ("sdcheckerd.polls", "count"),
    ("sdcheckerd.poll_ms_mean", "ms"),
    ("sdcheckerd.shutdown_drain_ms", "ms"),
    ("sdcheckerd.cpu_share", "ratio"),
    ("sdcheckerd.visible_ms_p50", "ms"),
    ("sdcheckerd.visible_ms_tail", "ms"),
    ("generator.late_ms_p95", "ms"),
    ("prober.interval_ms_p95", "ms"),
    ("trace.overhead_pct", "%"),
    ("sparksim.simulate_ms", "ms"),
    ("sparksim.apps_per_s", "1/s"),
    ("sparksim.records_per_s", "1/s"),
    ("sparksim.sim_ms_per_wall_ms", "ratio"),
    ("workloads.tpch_stream_ms", "ms"),
    ("noise.generate_ms", "ms"),
];

/// Fewest batch passes, however short the run.
const MIN_PASSES: usize = 3;
/// Chunks the in-process stream replay appends the corpus in.
const STREAM_CHUNKS: usize = 40;
/// Stream chunks between two checkpoint saves.
const CHECKPOINT_EVERY: usize = 5;
/// Length of the daemon session driven from outside, s.
const SESSION_SECONDS: f64 = 3.0;
/// `sdchecker` runs with and without `--metrics-out`, each.
const OVERHEAD_REPS: usize = 5;
/// The daemon's `--slo-ms` default and alert cadence, mirrored here.
const SLO_MS: u64 = 60_000;
const ALERT_EVAL_MS: u64 = 1_000;

/// One recorded span.
struct Span {
    name: &'static str,
    start_us: f64,
    end_us: f64,
    /// Index of the span that caused this one.
    parent: Option<usize>,
    /// The operation (pass, chunk) the span belongs to.
    op: u32,
}

/// In-memory span recorder; written out as a Chrome trace at the end.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u32,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Start the next operation; spans recorded from now on carry its id.
    fn next_op(&mut self) {
        self.op += 1;
    }

    /// Record a span around `f`, a child of the span open at the call.
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let index = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_us = self.now_us();
        out
    }

    /// A span's duration minus what its children cover, ms.
    fn self_ms(&self, index: usize) -> f64 {
        let dur = |s: &Span| s.end_us - s.start_us;
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(dur)
            .sum();
        (dur(&self.spans[index]) - children) / 1e3
    }

    /// Self times of every span called `name`, ms.
    fn self_times(&self, name: &str) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.self_ms(i))
            .collect()
    }

    /// Median self time of the spans called `name`, ms.
    fn median_ms(&self, name: &str) -> f64 {
        median(&self.self_times(name))
    }

    /// The spans as a Chrome trace (`chrome://tracing`, ui.perfetto.dev).
    fn chrome_json(&self) -> String {
        let events: Vec<String> =
            self.spans
                .iter()
                .map(|s| {
                    format!(
                    "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \
                     \"dur\": {:.3}, \"args\": {{\"op\": {}, \"parent\": {}}}}}",
                    s.name,
                    s.start_us,
                    s.end_us - s.start_us,
                    s.op,
                    s.parent
                        .map_or("null".to_string(), |p| format!("\"{}\"", self.spans[p].name)),
                )
                })
                .collect();
        format!("{{\"traceEvents\": [\n{}\n]}}\n", events.join(",\n"))
    }
}

/// What a layered pass counted on its way.
struct PassCounts {
    lines: u64,
    records: u64,
    apps: usize,
    matched: u64,
    unmatched: u64,
}

/// Every log file under `dir` in sorted relative-path order, as
/// `LogStore::read_dir_with` enumerates them, read whole.
fn read_files(dir: &Path) -> io::Result<Vec<(LogSource, Vec<u8>)>> {
    let mut files: Vec<(String, LogSource, PathBuf)> = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in fs::read_dir(&d)? {
            let path = entry?.path();
            if path.is_dir() {
                stack.push(path);
                continue;
            }
            let rel = path
                .strip_prefix(dir)
                .map_err(io::Error::other)?
                .to_string_lossy()
                .into_owned();
            if let Some(src) = LogSource::from_rel_path(&rel) {
                files.push((rel, src, path));
            }
        }
    }
    files.sort();
    files
        .into_iter()
        .map(|(_, src, path)| Ok((src, fs::read(path)?)))
        .collect()
}

/// Parse every file's lines; returns the records per file and the number
/// of lines seen.
fn parse_files(
    epoch: &Epoch,
    files: &[(LogSource, Vec<u8>)],
) -> (Vec<(LogSource, Vec<LogRecord>)>, u64) {
    let mut lines = 0u64;
    let parsed = files
        .iter()
        .map(|(src, bytes)| {
            let text = String::from_utf8_lossy(bytes);
            let recs = text
                .lines()
                .inspect(|_| lines += 1)
                .filter_map(|line| parse_line(epoch, line))
                .collect();
            (*src, recs)
        })
        .collect();
    (parsed, lines)
}

/// Build the store `read_dir_with` would: each file's records in time
/// order (one file per source here, so sorting per file is sorting per
/// source).
fn build_store(epoch: Epoch, parsed: Vec<(LogSource, Vec<LogRecord>)>) -> LogStore {
    let mut store = LogStore::new(epoch);
    for (src, mut recs) in parsed {
        recs.sort_by_key(|r| r.ts);
        for rec in recs {
            store.push(src, rec);
        }
    }
    store
}

/// The untraced in-process end-to-end: what `sdchecker <dir>
/// --report-json --wide-events-out` computes, on one thread.
fn untraced_pass(dir: &Path) -> io::Result<Reference> {
    Ok(Reference::of(&analyze_dir_with(dir, Parallelism::ONE)?))
}

/// The same work as [`untraced_pass`], one public call per layer, each
/// under a span.
fn layered_pass(t: &mut Tracer, dir: &Path, epoch: Epoch) -> io::Result<(Reference, PassCounts)> {
    t.next_op();
    t.span("batch", |t| {
        let files = t.span("logmodel.store.fs_read", |_| read_files(dir))?;
        let (parsed, lines) = t.span("logmodel.format.parse", |_| {
            let parsed = parse_files(&epoch, &files);
            drop(files);
            parsed
        });
        let store = t.span("logmodel.store.build", |_| build_store(epoch, parsed));
        let watermark = t.span("sdchecker.analyze.watermark", |_| {
            store
                .sources()
                .flat_map(|s| store.records(s).iter().map(|r| r.ts))
                .max()
        });
        let (events, coverage) = t.span("sdchecker.extract.extract_all", |_| {
            extract_all_cov_with(&store, Parallelism::ONE)
        });
        let app_names = t.span("sdchecker.extract.app_names", |_| {
            extract_app_names_with(&store, Parallelism::ONE)
        });
        let graphs = t.span("sdchecker.graph.build", |_| build_graphs(&events));
        let delays: Vec<_> = t.span("sdchecker.decompose", |_| {
            graphs.values().map(decompose).collect()
        });
        let unused_containers: Vec<_> = t.span("sdchecker.bugs.scan", |_| {
            graphs.values().flat_map(find_unused_containers).collect()
        });
        let total = coverage.total();
        let counts = PassCounts {
            lines,
            records: store.total_records() as u64,
            apps: graphs.len(),
            matched: total.matched,
            unmatched: total.unmatched,
        };
        let analysis = Analysis {
            events,
            graphs,
            delays,
            unused_containers,
            app_names,
            coverage,
            watermark,
        };
        // `analyze_dir_with` frees the store when it returns, and the
        // caller the analysis once it is rendered; both are part of the
        // end-to-end time, so both get a span.
        t.span("logmodel.store.drop", |_| drop(store));
        let rendered = Reference {
            full_report: t.span("sdchecker.report.full_report", |_| full_report(&analysis)),
            report_json: t.span("sdchecker.report.json", |_| report_json(&analysis)),
            wide: t.span("sdchecker.wide.render", |_| {
                wide_events_for_analysis(&analysis)
            }),
        };
        t.span("sdchecker.analyze.drop", |_| drop(analysis));
        Ok((rendered, counts))
    })
}

/// Time `f`, ms.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, ms_since(t0))
}

/// Run `f` twice under the counting allocator and insist the counts
/// repeat exactly — the property that lets a later change claim a count.
fn counted_twice<R>(what: &str, mut f: impl FnMut() -> R) -> Result<AllocStats, String> {
    let (_, first) = alloc::measure(&mut f);
    let (_, second) = alloc::measure(&mut f);
    if first == second {
        Ok(first)
    } else {
        Err(format!(
            "{what}: allocation counts differ between two runs ({first:?} then {second:?})"
        ))
    }
}

/// Collects metric values and checks them against [`PER_LAYER`].
struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a declared per-layer metric"
        );
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// The values in [`PER_LAYER`] order; every metric must have been set.
    fn finish(self) -> Vec<(&'static str, f64)> {
        PER_LAYER
            .iter()
            .map(|(name, _)| {
                let value = self
                    .0
                    .get(name)
                    .unwrap_or_else(|| panic!("per-layer metric {name} was never measured"));
                (*name, *value)
            })
            .collect()
    }
}

/// Tallies operations attempted and failed, keeping the first reason.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
}

impl Tally {
    fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            self.first_failure.get_or_insert(why);
        }
    }
}

/// Run the traced replay of `workload`'s corpus.
pub fn run(workload: &Workload, cfg: &Config) -> Result<Outcome, String> {
    let kind = workload.corpus;
    let scratch = Scratch::new().map_err(|e| format!("scratch directory: {e}"))?;
    let mut m = Metrics(BTreeMap::new());
    let mut tally = Tally::default();
    let mut t = Tracer::new();

    // Input generation: the simulator is a layer too.
    let prepared = t.span("setup.prepare", |_| prepare(kind, cfg));
    let sim = &prepared.sim;
    let sim_s = sim.simulate_ms / 1e3;
    let sim_span_ms = sim
        .store
        .sources()
        .filter_map(|s| sim.store.records(s).last().map(|r| r.ts.0))
        .max()
        .unwrap_or(0);
    m.set("sparksim.simulate_ms", sim.simulate_ms);
    m.set("sparksim.apps_per_s", sim.jobs.len() as f64 / sim_s);
    m.set(
        "sparksim.records_per_s",
        sim.store.total_records() as f64 / sim_s,
    );
    m.set(
        "sparksim.sim_ms_per_wall_ms",
        sim_span_ms as f64 / sim.simulate_ms,
    );
    m.set("workloads.tpch_stream_ms", sim.tpch_stream_ms);
    m.set("noise.generate_ms", prepared.noise_ms);

    let dir = scratch.path("corpus");
    t.span("setup.write_corpus", |_| prepared.corpus.write_dir(&dir))
        .map_err(|e| format!("writing the corpus: {e}"))?;
    let bytes = prepared.corpus.bytes();
    let mb = bytes as f64 / 1e6;

    batch_layers(&mut t, &mut m, &mut tally, cfg, &prepared, &dir, &scratch)?;
    stream_layers(&mut t, &mut m, &mut tally, &prepared, &dir, &scratch)?;
    daemon_session(&mut m, &mut tally, cfg, &prepared, &scratch)?;
    metrics_overhead(&mut m, &mut tally, &dir, &scratch)?;

    let trace_path = PathBuf::from(WORK_ROOT).join(format!("trace-{}.json", workload.name));
    fs::write(&trace_path, t.chrome_json()).map_err(|e| format!("writing the trace: {e}"))?;
    let mut notes = vec![format!(
        "corpus {mb:.1} MB in {} files; {} spans written to {}",
        prepared.corpus.file_count(),
        t.spans.len(),
        trace_path.display()
    )];
    let gap = m.0["sdchecker.analyze.tiling_gap_pct"];
    if gap.abs() > 5.0 {
        notes.push(format!(
            "warning: batch layers tile the in-process end-to-end only within {gap:.1} %"
        ));
    }
    if let Some(why) = &tally.first_failure {
        notes.push(format!("first failure: {why}"));
    }
    Ok(Outcome {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: m.finish(),
        notes,
    })
}

/// Batch pipeline: untraced and layered passes side by side, the
/// parallel-efficiency pairs, and the counted (allocation) passes.
fn batch_layers(
    t: &mut Tracer,
    m: &mut Metrics,
    tally: &mut Tally,
    cfg: &Config,
    prepared: &Prepared,
    dir: &Path,
    scratch: &Scratch,
) -> Result<(), String> {
    let io_err = |e: io::Error| e.to_string();
    let epoch = prepared.corpus.epoch;
    let bytes = prepared.corpus.bytes();
    let two = Parallelism::new(2);

    let analysis = analyze_dir_with(dir, Parallelism::ONE).map_err(io_err)?;
    check::against_ground_truth(&analysis, &prepared.sim.jobs)?;
    let reference = Reference::of(&analysis);

    let mut untraced_ms = Vec::new();
    let mut read_1t = Vec::new();
    let mut read_2t = Vec::new();
    let mut analyze_1t = Vec::new();
    let mut analyze_2t = Vec::new();
    let mut critical_ms = Vec::new();
    let mut counts = None;
    let started = Instant::now();
    while untraced_ms.len() < MIN_PASSES || started.elapsed().as_secs_f64() < cfg.seconds / 3.0 {
        let (plain, ms) = timed(|| untraced_pass(dir));
        untraced_ms.push(ms);
        let (layered, pass_counts) = layered_pass(t, dir, epoch).map_err(io_err)?;
        let plain = plain.map_err(io_err)?;
        tally.record(if plain == reference && layered == plain {
            Ok(())
        } else {
            Err("layered pass renders other documents than analyze_dir_with".to_string())
        });
        critical_ms.push(timed(|| analysis.graphs.values().filter_map(critical_path).count()).1);
        counts = Some(pass_counts);

        let (store, ms) = timed(|| LogStore::read_dir_with(dir, Parallelism::ONE));
        read_1t.push(ms);
        read_2t.push(timed(|| LogStore::read_dir_with(dir, two).map(|s| s.total_records())).1);
        let store = store.map_err(io_err)?;
        analyze_1t.push(timed(|| analyze_store_with(&store, Parallelism::ONE).delays.len()).1);
        analyze_2t.push(timed(|| analyze_store_with(&store, two).delays.len()).1);
    }
    drop(analysis);
    let counts = counts.expect("at least one pass");
    let records = counts.records as f64;
    let apps = counts.apps as f64;

    let e2e_ms = median(&untraced_ms);
    let layer_sum: f64 = [
        "logmodel.store.fs_read",
        "logmodel.format.parse",
        "logmodel.store.build",
        "logmodel.store.drop",
        "sdchecker.analyze.watermark",
        "sdchecker.extract.extract_all",
        "sdchecker.extract.app_names",
        "sdchecker.graph.build",
        "sdchecker.decompose",
        "sdchecker.bugs.scan",
        "sdchecker.report.full_report",
        "sdchecker.report.json",
        "sdchecker.wide.render",
        "sdchecker.analyze.drop",
    ]
    .iter()
    .map(|name| t.median_ms(name))
    .sum();
    let traced_ms = {
        let durations: Vec<f64> = t
            .spans
            .iter()
            .filter(|s| s.name == "batch")
            .map(|s| (s.end_us - s.start_us) / 1e3)
            .collect();
        median(&durations)
    };
    m.set(
        "sdchecker.analyze.tiling_gap_pct",
        100.0 * (e2e_ms - layer_sum) / e2e_ms,
    );
    m.set("trace.overhead_pct", 100.0 * (traced_ms - e2e_ms) / e2e_ms);

    let read_ms = median(&read_1t);
    m.set(
        "logmodel.store.fs_read_ms",
        t.median_ms("logmodel.store.fs_read"),
    );
    m.set("logmodel.store.read_dir_ms", read_ms);
    m.set(
        "logmodel.store.read_dir_mb_per_s",
        bytes as f64 / 1e6 / (read_ms / 1e3),
    );
    m.set(
        "logmodel.par.read_dir_efficiency_2t",
        read_ms / (2.0 * median(&read_2t)),
    );
    m.set("sdchecker.analyze.store_ms", median(&analyze_1t));
    m.set(
        "logmodel.par.analyze_efficiency_2t",
        median(&analyze_1t) / (2.0 * median(&analyze_2t)),
    );
    m.set(
        "logmodel.format.parse_ns_per_record",
        t.median_ms("logmodel.format.parse") * 1e6 / records,
    );
    m.set(
        "logmodel.format.parse_reject_ratio",
        1.0 - records / counts.lines as f64,
    );
    let extract_ms = t.median_ms("sdchecker.extract.extract_all");
    m.set("sdchecker.extract.extract_all_ms", extract_ms);
    m.set(
        "sdchecker.extract.ns_per_record",
        extract_ms * 1e6 / records,
    );
    m.set(
        "sdchecker.extract.match_ratio",
        counts.matched as f64 / records,
    );
    m.set(
        "sdchecker.extract.unmatched_ratio",
        counts.unmatched as f64 / records,
    );
    m.set(
        "sdchecker.extract.app_names_ms",
        t.median_ms("sdchecker.extract.app_names"),
    );
    m.set(
        "sdchecker.graph.build_us_per_app",
        t.median_ms("sdchecker.graph.build") * 1e3 / apps,
    );
    m.set(
        "sdchecker.decompose.us_per_app",
        t.median_ms("sdchecker.decompose") * 1e3 / apps,
    );
    m.set(
        "sdchecker.critical.us_per_app",
        median(&critical_ms) * 1e3 / apps,
    );
    m.set("sdchecker.bugs.scan_ms", t.median_ms("sdchecker.bugs.scan"));
    m.set(
        "sdchecker.report.full_report_ms",
        t.median_ms("sdchecker.report.full_report"),
    );
    m.set(
        "sdchecker.report.full_report_bytes",
        reference.full_report.len() as f64,
    );
    m.set(
        "sdchecker.report.json_ms",
        t.median_ms("sdchecker.report.json"),
    );
    m.set(
        "sdchecker.report.json_bytes",
        reference.report_json.len() as f64,
    );
    m.set(
        "sdchecker.wide.render_ms",
        t.median_ms("sdchecker.wide.render"),
    );
    m.set("sdchecker.wide.render_bytes", reference.wide.len() as f64);

    // Store-side costs that are not part of the batch pipeline.
    let store = &prepared.sim.store;
    let by_time: Vec<f64> = (0..MIN_PASSES)
        .map(|_| timed(|| store.records_by_time().len()).1)
        .collect();
    m.set("logmodel.store.records_by_time_ms", median(&by_time));
    let written = scratch.path("write_dir");
    let mut write_ms = Vec::new();
    for _ in 0..2 {
        let _ = fs::remove_dir_all(&written);
        let (result, ms) = timed(|| store.write_dir(&written));
        result.map_err(io_err)?;
        write_ms.push(ms);
    }
    let _ = fs::remove_dir_all(&written);
    m.set("logmodel.store.write_dir_ms", median(&write_ms));

    // Counted passes, on this thread only, each run twice.
    let files = read_files(dir).map_err(io_err)?;
    let parse = counted_twice("parse", || parse_files(&epoch, &files).1);
    let store = build_store(epoch, parse_files(&epoch, &files).0);
    drop(files);
    let extract = counted_twice("extract", || {
        extract_all_cov_with(&store, Parallelism::ONE).0.len()
    });
    drop(store);
    let whole = counted_twice("analyze", || {
        untraced_pass(dir).map(|r| r.report_json.len()).ok()
    });
    for (name, stats) in [
        ("logmodel.format.parse_allocs_per_record", &parse),
        ("sdchecker.extract.allocs_per_record", &extract),
        ("sdchecker.analyze.allocs_per_record", &whole),
    ] {
        m.set(
            name,
            stats.as_ref().map_or(0.0, |s| s.allocs as f64 / records),
        );
    }
    m.set(
        "sdchecker.analyze.peak_live_mb",
        whole
            .as_ref()
            .map_or(0.0, |s| s.peak_live_bytes as f64 / 1e6),
    );
    for stats in [parse, extract, whole] {
        tally.record(stats.map(|_| ()));
    }
    Ok(())
}

/// The daemon's poll loop, in-process: the corpus appended in
/// [`STREAM_CHUNKS`] time-ordered chunks to its empty log files, with a
/// span around each public call the loop makes per chunk.
fn stream_layers(
    t: &mut Tracer,
    m: &mut Metrics,
    tally: &mut Tally,
    prepared: &Prepared,
    corpus_dir: &Path,
    scratch: &Scratch,
) -> Result<(), String> {
    let io_err = |e: io::Error| e.to_string();
    let cfg = IncrementalConfig::default();
    let fingerprint = CfgFingerprint {
        settle_ms: cfg.settle_ms,
        idle_timeout_ms: cfg.idle_timeout_ms,
        exemplar_slots: cfg.exemplar_slots as u64,
        alerts: true,
        slo_ms: SLO_MS,
        eval_interval_ms: ALERT_EVAL_MS,
    };
    let new_engine = || AlertEngine::new(default_rules(SLO_MS), ALERT_EVAL_MS);
    let ingest_all = |analyzer: &mut IncrementalAnalyzer,
                      engine: &mut AlertEngine,
                      batch: &[(LogSource, LogRecord)]| {
        for (src, rec) in batch {
            if analyzer.ingest(*src, rec) == LineOutcome::Anomalous {
                engine.observe_anomalous(rec.ts);
            }
        }
    };

    // Backlog shape: one poll reads the finished corpus.
    let mut tailer = DirTailer::new(corpus_dir).map_err(io_err)?;
    let (batch, poll_ms) = timed(|| tailer.poll());
    let batch = batch.map_err(io_err)?;
    let records = batch.len() as f64;
    m.set(
        "sdchecker.tail.read_mb_per_s",
        prepared.corpus.bytes() as f64 / 1e6 / (poll_ms / 1e3),
    );
    m.set("sdchecker.tail.files", tailer.stats().files as f64);
    let idle: Vec<f64> = (0..3)
        .map(|_| {
            t.span("sdchecker.tail.idle_poll", |_| {
                timed(|| tailer.poll().map(|b| b.len())).1
            })
        })
        .collect();
    m.set("sdchecker.tail.idle_poll_ms", median(&idle));
    let sweeps: Vec<f64> = (0..3).map(|_| timed(|| tailer.lag()).1).collect();
    m.set("sdchecker.tail.lag_sweep_ms", median(&sweeps));
    let ingest = counted_twice("ingest", || {
        let mut analyzer = IncrementalAnalyzer::new(cfg);
        ingest_all(&mut analyzer, &mut new_engine(), &batch);
        analyzer.drain_ready().len() + analyzer.finish().len()
    });
    m.set(
        "sdchecker.incremental.ingest_allocs_per_record",
        ingest.as_ref().map_or(0.0, |s| s.allocs as f64 / records),
    );
    tally.record(ingest.map(|_| ()));
    drop(batch);
    drop(tailer);

    // Live shape: the poll loop over a growing directory.
    let watch = scratch.path("replay");
    prepared.corpus.create_empty(&watch).map_err(io_err)?;
    let store = CheckpointStore::open(&scratch.path("replay-checkpoints"))
        .map_err(|e| format!("checkpoint directory: {e}"))?;
    let mut tailer = DirTailer::new(&watch).map_err(io_err)?;
    let mut analyzer = IncrementalAnalyzer::new(cfg);
    let mut engine = new_engine();
    let stream = prepared.corpus.by_time();
    let chunk = stream.len().div_ceil(STREAM_CHUNKS).max(1);
    let mut wide = String::new();
    let mut ingested = 0u64;
    let (mut in_flight_hwm, mut buffered_hwm) = (0usize, 0usize);
    let mut report_bytes = 0usize;
    let mut checkpoint_bytes = Vec::new();
    let mut saves = 0u64;
    let mut retire = |retired: Vec<sdchecker::RetiredApp>, engine: &mut AlertEngine| {
        for r in retired {
            engine.observe_retirement(r.retire_ms, &r.delays);
            wide.push_str(&r.wide_event);
            wide.push('\n');
        }
    };
    for (i, lines) in stream.chunks(chunk).enumerate() {
        t.next_op();
        append_tick(&watch, lines)?;
        t.span("stream.poll_loop", |t| -> Result<(), String> {
            let batch = t
                .span("sdchecker.tail.poll", |_| tailer.poll())
                .map_err(io_err)?;
            ingested += batch.len() as u64;
            t.span("sdchecker.incremental.ingest", |_| {
                ingest_all(&mut analyzer, &mut engine, &batch)
            });
            in_flight_hwm = in_flight_hwm.max(analyzer.in_flight());
            buffered_hwm = buffered_hwm.max(analyzer.events_buffered());
            let retired = t.span("sdchecker.incremental.drain_ready", |_| {
                analyzer.drain_ready()
            });
            retire(retired, &mut engine);
            let lag = t.span("sdchecker.tail.lag_sweep", |_| tailer.lag());
            engine.set_live_lag(lag.bytes);
            if let Some(w) = analyzer.watermark() {
                t.span("sdchecker.alerts.advance", |_| engine.advance(w).len());
            }
            let stats = tailer.stats();
            report_bytes = t
                .span("sdchecker.incremental.live_report_json", |_| {
                    analyzer.live_report_json(Some((&lag, &stats)))
                })
                .len();
            if i % CHECKPOINT_EVERY == CHECKPOINT_EVERY - 1 {
                saves += 1;
                let saved = t.span("sdchecker.checkpoint.save", |_| {
                    checkpoint::save(
                        &store,
                        &SaveInputs {
                            tailer: &tailer,
                            analyzer: &analyzer,
                            engine: Some(&engine),
                            fingerprint: &fingerprint,
                            wide_bytes: 0,
                            writes_total: saves,
                            recoveries: 0,
                        },
                    )
                });
                checkpoint_bytes.push(saved.map_err(|e| format!("checkpoint save: {e}"))? as f64);
            }
            Ok(())
        })?;
    }
    // Restore the last checkpoint into a second pipeline, as a restarted
    // daemon would, before this one drains.
    let mut restored_engine = new_engine();
    let (restored, load_ms) =
        timed(|| checkpoint::load(&store, &watch, &fingerprint, Some(&mut restored_engine)));
    tally.record(match restored {
        (Some(_), _) => Ok(()),
        (None, warnings) => Err(format!("checkpoint did not load: {}", warnings.join("; "))),
    });
    m.set("sdchecker.checkpoint.load_ms", load_ms);

    t.next_op();
    let tail_end = tailer.flush_partial();
    ingest_all(&mut analyzer, &mut engine, &tail_end);
    let retired = t.span("sdchecker.incremental.finish", |_| analyzer.finish());
    retire(retired, &mut engine);
    let publish_ms = t.span("sdchecker.exemplars.publish", |_| {
        timed(|| {
            let ex = analyzer.exemplars();
            let traces: usize = ex
                .iter()
                .filter_map(|p| ex.trace_json(p.app))
                .map(|trace| trace.len())
                .sum();
            ex.index_json().len() + traces
        })
        .1
    });

    // The chunked replay must retire every app exactly as batch does.
    let reference = analyze_store_with(&prepared.sim.store, Parallelism::ONE);
    let reference = check::wide_by_app(&wide_events_for_analysis(&reference))?;
    let wide_file = scratch.path("replay-wide.jsonl");
    fs::write(&wide_file, &wide).map_err(io_err)?;
    tally.record(check::daemon_wide(&wide_file, &reference));
    tally.record(if ingested == prepared.corpus.records() {
        Ok(())
    } else {
        Err(format!(
            "tailer produced {ingested} records, corpus holds {}",
            prepared.corpus.records()
        ))
    });

    let ingest_ms: f64 = t.self_times("sdchecker.incremental.ingest").iter().sum();
    m.set(
        "sdchecker.incremental.ingest_ns_per_record",
        ingest_ms * 1e6 / ingested.max(1) as f64,
    );
    m.set(
        "sdchecker.tail.poll_busy_ms_p50",
        t.median_ms("sdchecker.tail.poll"),
    );
    m.set(
        "sdchecker.incremental.drain_ready_ms_p50",
        t.median_ms("sdchecker.incremental.drain_ready"),
    );
    m.set(
        "sdchecker.incremental.finish_ms",
        t.median_ms("sdchecker.incremental.finish"),
    );
    m.set(
        "sdchecker.incremental.live_report_json_ms",
        t.median_ms("sdchecker.incremental.live_report_json"),
    );
    m.set(
        "sdchecker.incremental.live_report_bytes",
        report_bytes as f64,
    );
    m.set("sdchecker.incremental.in_flight_hwm", in_flight_hwm as f64);
    m.set(
        "sdchecker.incremental.events_buffered_hwm",
        buffered_hwm as f64,
    );
    m.set(
        "sdchecker.checkpoint.save_ms_p50",
        t.median_ms("sdchecker.checkpoint.save"),
    );
    m.set("sdchecker.checkpoint.bytes_p50", median(&checkpoint_bytes));
    m.set(
        "sdchecker.alerts.advance_us_p50",
        t.median_ms("sdchecker.alerts.advance") * 1e3,
    );
    m.set("sdchecker.exemplars.publish_ms", publish_ms);
    Ok(())
}

/// A value of the daemon's Prometheus text, by exact series name.
fn prometheus_value(text: &str, series: &str) -> f64 {
    text.lines()
        .find_map(|line| {
            line.strip_prefix(series)?
                .strip_prefix(' ')?
                .trim()
                .parse()
                .ok()
        })
        .unwrap_or(0.0)
}

/// The daemon from outside: the head of the corpus replayed for
/// [`SESSION_SECONDS`] at the line rate of the paced workload, with the
/// prober also scraping `/report.json` and `/metrics`.
fn daemon_session(
    m: &mut Metrics,
    tally: &mut Tally,
    cfg: &Config,
    prepared: &Prepared,
    scratch: &Scratch,
) -> Result<(), String> {
    let watch = scratch.path("session");
    prepared
        .corpus
        .create_empty(&watch)
        .map_err(|e| e.to_string())?;
    let feed = Feed::Live {
        compression: prepared.corpus.span_ms() as f64 / (cfg.seconds * 1e3),
    };
    let daemon = Daemon::spawn(&watch, &scratch.path("session-daemon"), feed)?;
    let ready_ms = daemon.wait_ready()?;
    let stream = prepared.corpus.by_time();
    let seconds = SESSION_SECONDS.min(cfg.seconds);
    let head: &[(LogSource, &Line)] =
        &stream[..(stream.len() as f64 * seconds / cfg.seconds) as usize];
    let replay = paced_replay(&daemon, &watch, head, seconds, cfg.seed, true)?;
    let Stopped {
        usage,
        lifetime_s,
        drain_ms,
    } = daemon.stop()?;
    tally.attempted += replay.visible_ms.len() as u64;
    tally.failed += replay.visible_ms.iter().filter(|v| v.is_none()).count() as u64;
    if let Some(why) = replay.failure {
        tally.first_failure.get_or_insert(why);
    }
    tally.record(if usage.success {
        Ok(())
    } else {
        Err("sdcheckerd did not exit cleanly".to_string())
    });

    let text = &replay.http.metrics_text;
    let polls = prometheus_value(text, "sdcheckerd_poll_duration_ms_count");
    m.set("sdcheckerd.ready_ms", ready_ms);
    m.set(
        "sdcheckerd.polls",
        health_field(&replay.health, "polls") as f64,
    );
    m.set(
        "sdcheckerd.poll_ms_mean",
        prometheus_value(text, "sdcheckerd_poll_duration_ms_sum") / polls.max(1.0),
    );
    m.set("sdcheckerd.shutdown_drain_ms", drain_ms);
    m.set("sdcheckerd.cpu_share", usage.cpu_s / lifetime_s);
    // Median and tail of the freshness probes: too unsteady on a shared
    // box to carry an end-to-end bound, so they live here.
    let visible: Vec<f64> = replay.visible_ms.iter().flatten().copied().collect();
    m.set("sdcheckerd.visible_ms_p50", median(&visible));
    m.set("sdcheckerd.visible_ms_tail", tail(&visible, PROBE_TAIL_CAP));
    m.set("obs.http.healthz_ms_p50", median(&replay.http.healthz_ms));
    m.set(
        "obs.http.report_json_ms_p50",
        median(&replay.http.report_json_ms),
    );
    m.set("obs.http.metrics_ms_p50", median(&replay.http.metrics_ms));
    m.set("obs.http.metrics_bytes", text.len() as f64);
    m.set("generator.late_ms_p95", percentile(&replay.late_ms, 0.95));
    m.set(
        "prober.interval_ms_p95",
        percentile(&replay.probe_interval_ms, 0.95),
    );
    Ok(())
}

/// The cost of looking: `sdchecker` with and without `--metrics-out`,
/// alternating, [`OVERHEAD_REPS`] runs each.
fn metrics_overhead(
    m: &mut Metrics,
    tally: &mut Tally,
    dir: &Path,
    scratch: &Scratch,
) -> Result<(), String> {
    let sdchecker = sibling_binary("sdchecker").map_err(|e| e.to_string())?;
    let metrics_file = scratch.path("metrics.json");
    let mut run = |with_metrics: bool| -> Result<f64, String> {
        let mut cmd = Command::new(&sdchecker);
        cmd.arg(dir).arg("--quiet").stdout(Stdio::null());
        if with_metrics {
            cmd.arg("--metrics-out").arg(&metrics_file);
        }
        let t0 = Instant::now();
        let usage = Proc::spawn(&mut cmd)
            .and_then(Proc::wait)
            .map_err(|e| format!("running sdchecker: {e}"))?;
        let ms = ms_since(t0);
        tally.record(if usage.success {
            Ok(())
        } else {
            Err("sdchecker exited with a failure status".to_string())
        });
        Ok(ms)
    };
    run(false)?; // warm-up
    let (mut plain, mut observed) = (Vec::new(), Vec::new());
    for _ in 0..OVERHEAD_REPS {
        plain.push(run(false)?);
        observed.push(run(true)?);
    }
    m.set(
        "obs.enabled_overhead_pct",
        100.0 * (median(&observed) - median(&plain)) / median(&plain),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_trace_is_json() {
        let mut t = Tracer::new();
        t.next_op();
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(4))
            });
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(4))
            });
        });
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[0].parent, None);
        let outer = t.spans[0].end_us - t.spans[0].start_us;
        assert!(outer >= 8_000.0);
        assert!(t.self_ms(0) < 2.0, "outer self time {}", t.self_ms(0));
        assert_eq!(t.self_times("inner").len(), 2);
        assert!(t.median_ms("inner") >= 4.0);
        let doc = obs::json::parse(&t.chrome_json()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events[1]
                .get("args")
                .unwrap()
                .get("parent")
                .unwrap()
                .as_str(),
            Some("outer")
        );
        assert_eq!(
            events[1].get("args").unwrap().get("op").unwrap().as_f64(),
            Some(1.0)
        );
    }

    #[test]
    fn per_layer_names_are_unique_and_well_formed() {
        for (i, (name, unit)) in PER_LAYER.iter().enumerate() {
            assert!(name.len() <= 64 && unit.len() <= 16, "{name}");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(
                PER_LAYER[..i].iter().all(|(n, _)| n != name),
                "{name} twice"
            );
        }
    }

    #[test]
    fn prometheus_series_lookup_is_exact() {
        let text = "# HELP x\nsd_poll_ms_sum 120\nsd_poll_ms_count 40\nsd_poll_ms_count_total 7\n";
        assert_eq!(prometheus_value(text, "sd_poll_ms_sum"), 120.0);
        assert_eq!(prometheus_value(text, "sd_poll_ms_count"), 40.0);
        assert_eq!(prometheus_value(text, "absent"), 0.0);
    }
}
