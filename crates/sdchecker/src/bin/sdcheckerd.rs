//! `sdcheckerd` — the always-on SDchecker service.
//!
//! Tails a growing log directory (the layout `logmodel::LogStore::write_dir`
//! produces, which a live collector or `sdsim --stream-to` appends to),
//! analyzes and retires each application the moment its evidence completes,
//! and serves the current state over HTTP:
//!
//! ```text
//! sdcheckerd <watch-dir> [--listen ADDR] [--port-file PATH] [--poll-ms N]
//!            [--settle-ms N] [--idle-timeout-ms N] [--exemplar-slots N]
//!            [--slo-ms N] [--no-alerts] [--alerts-out PATH]
//!            [--wide-events-out PATH] [--final-report PATH]
//!            [--checkpoint-dir PATH] [--checkpoint-interval-ms N]
//!            [--resume|--no-resume] [--fsync-outputs]
//!            [--run-for-ms N] [--quiet]
//! ```
//!
//! Endpoints:
//!
//! * `GET /metrics`     — Prometheus text exposition (format 0.0.4) of the
//!   live counters, gauges, delay-component quantile sketches, daemon
//!   self-metrics, and `sd_alert_firing{rule}` flags.
//! * `GET /report.json` — current fleet report snapshot
//!   (schema `sdcheckerd-report-v1`).
//! * `GET /alerts`      — SLO rule states and the transition log
//!   (schema `sdcheckerd-alerts-v1`).
//! * `GET /exemplars`   — worst-apps-per-component reservoir with full
//!   per-app detail (schema `sdcheckerd-exemplars-v1`).
//! * `GET /exemplars/<app>/trace.json` — on-demand Perfetto trace of one
//!   promoted tail app, rebuilt from its retained events.
//! * `GET /healthz`     — liveness: per-source tail lag, apps
//!   in-flight/retired/truncated, last-progress watchdog.
//! * `GET /checkpointz` — crash-only checkpoint status: directory,
//!   cadence, last-write age/size, restart lineage.
//! * `GET /readyz`      — 200 once the first poll completed, 503 before.
//! * `GET /buildinfo`   — name/version.
//!
//! `--wide-events-out` appends one canonical `wide-events-v1` JSONL line
//! per retirement (see `sdchecker::wide`). The file is deterministic in
//! log time — identical for any poll cadence or append chunking — and
//! each line's `retire_ms` is the app's logical retirement instant.
//! Apps drained at shutdown are stamped with the final watermark, which
//! is exactly the stamp batch `sdchecker --wide-events-out` uses, so a
//! run whose apps all retire at `finish()` is byte-identical to the
//! batch file.
//!
//! On SIGTERM/SIGINT the daemon performs one final poll, flushes held-back
//! partial lines, retires everything in flight, resolves open alerts,
//! writes `--final-report` / `--alerts-out` (if given), and exits 0 — the
//! final report matches what batch `sdchecker` computes over the finished
//! directory.
//!
//! With `--checkpoint-dir` the daemon is **crash-only**: it periodically
//! serializes its full state (tail offsets and partial lines, in-flight
//! apps, fleet aggregates, exemplars, alert lifecycles, the wide-events
//! emission cursor) into an atomically-replaced `checkpoint-v2` file
//! (see `sdchecker::checkpoint`). On restart it restores the newest
//! intact generation and replays only bytes past the checkpointed
//! offsets, so a SIGKILLed run resumed this way produces the same
//! report, wide-events file, and alert log as one that was never
//! killed. A damaged checkpoint degrades to cold-start with a loud
//! warning.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::Thread;
use std::time::{Duration, Instant};

use logmodel::{ApplicationId, LogSource, Parallelism, TsMs};
use obs::json::{document, Layout};
use obs::json_fields;
use obs::{HttpServer, MetricKey, Request, Response, PROMETHEUS_CONTENT_TYPE};
use sdchecker::checkpoint::{self, CfgFingerprint, CheckpointStore, SaveInputs};
use sdchecker::cli::{self, Args, OrFail, Stop};
use sdchecker::{
    default_rules, AlertEngine, DirTailer, IncrementalAnalyzer, IncrementalConfig, RetiredApp,
    StreamCursor, TailLag, TailScan, TailSink, Transition,
};

const USAGE: &str = "usage: sdcheckerd <watch-dir> [--listen ADDR] [--port-file PATH] \
[--poll-ms N] [--settle-ms N] [--idle-timeout-ms N] [--exemplar-slots N] [--slo-ms N] \
[--no-alerts] [--alerts-out PATH] [--wide-events-out PATH] [--final-report PATH] \
[--checkpoint-dir PATH] [--checkpoint-interval-ms N] [--resume|--no-resume] \
[--fsync-outputs] [--run-for-ms N] [--quiet]";

/// Alert rules are evaluated at this log-time quantum.
const ALERT_EVAL_MS: u64 = 1_000;

/// What a poll must have read for the next one to catch up on the
/// worker pool rather than on the poll thread: a few read chunks.
const CATCH_UP_BYTES: u64 = 4 * sdchecker::READ_CHUNK as u64;

/// Per-poll duration histogram bounds, ms.
const POLL_DURATION_BOUNDS: &[u64] = &[1, 2, 5, 10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000];

/// Splits a loop iteration into `sdcheckerd_poll_phase_ms{phase}`: each
/// [`PhaseClock::mark`] charges the time since the previous boundary to
/// the phase that just ended.
struct PhaseClock {
    boundary: Instant,
}

impl PhaseClock {
    fn mark(&mut self, phase: &'static str) {
        self.mark_until(phase, Instant::now());
    }

    /// [`PhaseClock::mark`] for a phase that ended at `until`.
    fn mark_until(&mut self, phase: &'static str, until: Instant) {
        let ms = until.saturating_duration_since(self.boundary).as_millis() as u64;
        obs::observe_labeled(
            "sdcheckerd_poll_phase_ms",
            &[("phase", phase)],
            POLL_DURATION_BOUNDS,
            ms,
        );
        // Advance by the whole milliseconds charged, not to "now": the
        // sub-millisecond remainder carries into the next phase, so the
        // phases of an iteration sum to its `sdcheckerd_poll_duration_ms`
        // and a short phase is not always rounded down to nothing.
        self.boundary += Duration::from_millis(ms);
    }
}

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" fn on_signal(_sig: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    unsafe {
        signal(2, on_signal); // SIGINT
        signal(15, on_signal); // SIGTERM
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

/// Pipeline figures behind `/healthz`, `/readyz` and the daemon gauges.
#[derive(Debug, Clone)]
struct Health {
    ready: bool,
    polls: u64,
    records: u64,
    in_flight: u64,
    retired: u64,
    truncated: u64,
    complete: u64,
    late_events: u64,
    lag: TailLag,
    events_buffered: u64,
    watermark_ms: Option<u64>,
    exemplar_apps: u64,
    exemplar_events: u64,
}

/// Checkpoint status behind `/checkpointz` and the `sd_checkpoint_*`
/// gauges.
#[derive(Debug, Default, Clone)]
struct CkptStatus {
    enabled: bool,
    dir: String,
    interval_ms: u64,
    /// Which generation this process restored (`current` / `previous`),
    /// if it resumed from a checkpoint at all.
    generation: Option<&'static str>,
    writes_total: u64,
    recoveries_total: u64,
    /// Size of the newest checkpoint this lineage knows about, bytes.
    bytes: u64,
    /// Wall-clock instant of the last successful checkpoint write.
    written: Option<Instant>,
}

/// The rendered exemplar reservoir. Rebuilt only when the reservoir
/// generation changes, and shared between consecutive [`Published`]
/// snapshots until then.
struct ExemplarViews {
    generation: u64,
    /// The `/exemplars` index (schema `sdcheckerd-exemplars-v1`).
    index: String,
    /// Perfetto trace of every promoted app, by application id.
    traces: BTreeMap<String, String>,
}

/// Everything the HTTP thread serves, as of one publish point of the
/// poll loop. Immutable once built: a request loads one `Published` and
/// answers from it alone, so every figure in a response (and every
/// gauge of a scrape) belongs to the same poll.
#[derive(Clone)]
struct Published {
    /// The `/report.json` document (schema `sdcheckerd-report-v1`).
    report: String,
    health: Health,
    /// Last wall-clock instant a poll made progress (read records or
    /// retired an app) — the watchdog `/healthz` ages against.
    last_progress: Instant,
    /// The `/alerts` document (schema `sdcheckerd-alerts-v1`).
    alerts: String,
    /// `(rule, firing?)` behind the `sd_alert_firing{rule}` gauges.
    firing: Vec<(String, bool)>,
    exemplars: Arc<ExemplarViews>,
    ckpt: CkptStatus,
}

struct Shared {
    /// The current snapshot. The lock is held only to clone or replace
    /// the `Arc`, never while anything is rendered or served.
    published: Mutex<Arc<Published>>,
    /// The HTTP serving thread, set once it is spawned. Every
    /// [`Shared::store`] unparks it, so a request already waiting is
    /// answered from the new snapshot at once.
    server: OnceLock<Thread>,
    started: Instant,
}

impl Shared {
    fn new(first: Published) -> Shared {
        Shared {
            published: Mutex::new(Arc::new(first)),
            server: OnceLock::new(),
            started: Instant::now(),
        }
    }

    fn load(&self) -> Arc<Published> {
        Arc::clone(&self.published.lock().unwrap_or_else(|e| e.into_inner()))
    }

    fn store(&self, next: Published) {
        // The previous snapshot is dropped after the guard, not under it.
        let _previous = std::mem::replace(
            &mut *self.published.lock().unwrap_or_else(|e| e.into_inner()),
            Arc::new(next),
        );
        self.wake_server();
    }

    fn wake_server(&self) {
        if let Some(server) = self.server.get() {
            server.unpark();
        }
    }
}

fn describe_daemon_metrics() {
    obs::describe("sdcheckerd_polls_total", "Tail polls performed");
    obs::describe("sdcheckerd_poll_errors_total", "Tail polls that failed");
    obs::describe("sdcheckerd_records_total", "Log records ingested");
    obs::describe(
        "sdcheckerd_read_bytes_total",
        "Bytes read from tailed log files",
    );
    obs::describe(
        "sdcheckerd_apps_retired_total",
        "Applications retired (analysis complete, evidence dropped)",
    );
    obs::describe(
        "sdcheckerd_apps_forced_total",
        "Applications force-retired by the idle timeout",
    );
    obs::describe(
        "sdcheckerd_late_events_total",
        "Events that arrived after their application retired",
    );
    obs::describe(
        "sdcheckerd_apps_in_flight",
        "Applications currently buffered awaiting retirement",
    );
    obs::describe(
        "sdcheckerd_events_buffered",
        "Events currently buffered across in-flight applications",
    );
    obs::describe(
        "sdcheckerd_tail_sources",
        "Log files currently tracked by the tailer",
    );
    obs::describe(
        "sdcheckerd_tail_lag_bytes",
        "Bytes each file's last look saw on disk but did not turn into records \
         (files of applications not in flight are looked at once per sweep rotation, not every poll)",
    );
    obs::describe(
        "sdcheckerd_tail_lag_ms",
        "Largest per-source log-time lag behind the watermark, in ms",
    );
    obs::describe(
        "sdcheckerd_uptime_seconds",
        "Seconds since the daemon started",
    );
    obs::describe(
        "process_uptime_seconds",
        "Seconds since the daemon process started",
    );
    obs::describe(
        "sdcheckerd_poll_duration_ms",
        "Wall-clock duration of each loop iteration (every phase, no sleep), ms",
    );
    obs::describe(
        "sdcheckerd_poll_phase_ms",
        "Wall-clock duration of each loop iteration by phase \
         (tail, ingest, retire, alerts, publish, checkpoint), ms",
    );
    obs::describe(
        "sdcheckerd_http_requests_total",
        "HTTP requests served, by (bucketed) path",
    );
    obs::describe(
        "http_accept_errors_total",
        "Failed accepts the HTTP server retried (one incoming connection's error, \
         or descriptors or memory exhausted)",
    );
    obs::describe(
        "sdcheckerd_exemplar_apps",
        "Retired applications held in memory as tail exemplars",
    );
    obs::describe(
        "sdcheckerd_exemplar_events",
        "Events retained across all promoted tail exemplars",
    );
    obs::describe(
        "sdcheckerd_alert_transitions_total",
        "Alert rule state transitions (pending/firing/resolved)",
    );
    obs::describe(
        "sd_alert_firing",
        "1 while the named alert rule is firing, else 0",
    );
    obs::describe(
        "sd_tail_files_removed_total",
        "Tracked log files that vanished from disk and were dropped",
    );
    obs::describe(
        "sd_tail_read_errors_total",
        "Grown log files a poll could not open or read (skipped, retried next poll)",
    );
    obs::describe(
        "sd_tail_oversize_lines_total",
        "Lines dropped for reaching the held-line cap without a newline (counted skipped)",
    );
    obs::describe(
        "sd_tail_fs_ops_total",
        "Filesystem calls made by the tailer, by op (stat, listing, open)",
    );
    obs::describe(
        "sd_checkpoint_writes_total",
        "Checkpoints written by this daemon lineage (survives restarts)",
    );
    obs::describe(
        "sd_checkpoint_write_errors_total",
        "Checkpoint saves that failed (the previous generations stay on disk)",
    );
    obs::describe(
        "sd_checkpoint_recoveries_total",
        "Restarts this daemon lineage has survived via checkpoint restore",
    );
    obs::describe(
        "sd_checkpoint_age_ms",
        "Milliseconds since the last successful checkpoint write",
    );
    obs::describe(
        "sd_checkpoint_bytes",
        "Size of the newest checkpoint, in bytes",
    );
}

/// Bucket request paths to a bounded label set (app ids would blow up
/// series cardinality).
fn metric_path(path: &str) -> &'static str {
    match path {
        "/metrics" => "/metrics",
        "/report.json" => "/report.json",
        "/healthz" => "/healthz",
        "/checkpointz" => "/checkpointz",
        "/readyz" => "/readyz",
        "/buildinfo" => "/buildinfo",
        "/alerts" => "/alerts",
        "/exemplars" => "/exemplars",
        p if p.starts_with("/exemplars/") && p.ends_with("/trace.json") => {
            "/exemplars/{app}/trace.json"
        }
        _ => "other",
    }
}

fn healthz_json(p: &Published, uptime_ms: u64) -> String {
    let h = &p.health;
    document(0, Layout::Inline, |o| {
        json_fields!(o, "status" => if h.ready { "ok" } else { "starting" }, "ready" => h.ready,
            "uptime_ms" => uptime_ms, "polls" => h.polls, "records" => h.records,
            "in_flight" => h.in_flight, "retired" => h.retired, "truncated" => h.truncated,
            "complete" => h.complete, "late_events" => h.late_events,
            "events_buffered" => h.events_buffered, "sources" => h.lag.sources,
            "lag_bytes" => h.lag.bytes, "lag_ms" => h.lag.max_ms, "watermark_ms" => h.watermark_ms,
            "last_progress_ms" => p.last_progress.elapsed().as_millis() as u64)
    })
}

fn checkpointz_json(c: &CkptStatus) -> String {
    document(0, Layout::Inline, |o| {
        json_fields!(o, "schema" => "sdcheckerd-checkpoint-v1", "enabled" => c.enabled,
            "dir" => &c.dir, "interval_ms" => c.interval_ms, "resumed" => c.generation.is_some(),
            "generation" => c.generation, "writes_total" => c.writes_total,
            "recoveries_total" => c.recoveries_total, "bytes" => c.bytes,
            "age_ms" => c.written.map(|t| t.elapsed().as_millis() as u64))
    })
}

/// Write the daemon's gauges into a metrics snapshot, all from one
/// [`Published`].
fn write_gauges(gauges: &mut BTreeMap<MetricKey, f64>, p: &Published, uptime: Duration) {
    let h = &p.health;
    let uptime = uptime.as_secs_f64();
    for (name, v) in [
        ("sdcheckerd_apps_in_flight", h.in_flight as f64),
        ("sdcheckerd_events_buffered", h.events_buffered as f64),
        ("sdcheckerd_tail_sources", h.lag.sources as f64),
        ("sdcheckerd_tail_lag_bytes", h.lag.bytes as f64),
        ("sdcheckerd_tail_lag_ms", h.lag.max_ms as f64),
        ("sdcheckerd_uptime_seconds", uptime),
        ("process_uptime_seconds", uptime),
        ("sdcheckerd_exemplar_apps", h.exemplar_apps as f64),
        ("sdcheckerd_exemplar_events", h.exemplar_events as f64),
    ] {
        gauges.insert(MetricKey::plain(name), v);
    }
    if p.ckpt.enabled {
        let age_ms = p.ckpt.written.map_or(0, |t| t.elapsed().as_millis());
        gauges.insert(MetricKey::plain("sd_checkpoint_age_ms"), age_ms as f64);
        gauges.insert(MetricKey::plain("sd_checkpoint_bytes"), p.ckpt.bytes as f64);
    }
    for (rule, firing) in &p.firing {
        gauges.insert(
            MetricKey::labeled("sd_alert_firing", &[("rule", rule)]),
            if *firing { 1.0 } else { 0.0 },
        );
    }
}

fn handle(req: &Request, shared: &Shared) -> Response {
    obs::count_labeled(
        "sdcheckerd_http_requests_total",
        &[("path", metric_path(&req.path))],
        1,
    );
    let p = shared.load();
    match req.path.as_str() {
        "/metrics" => {
            let mut snap = obs::global().snapshot();
            write_gauges(&mut snap.gauges, &p, shared.started.elapsed());
            Response::ok(PROMETHEUS_CONTENT_TYPE, obs::prometheus_text(&snap))
        }
        "/report.json" => Response::json(p.report.clone()),
        "/alerts" => Response::json(p.alerts.clone()),
        "/exemplars" => Response::json(p.exemplars.index.clone()),
        path if path.starts_with("/exemplars/") && path.ends_with("/trace.json") => {
            let app = &path["/exemplars/".len()..path.len() - "/trace.json".len()];
            match p.exemplars.traces.get(app) {
                Some(t) => Response::json(t.clone()),
                None => Response::not_found(),
            }
        }
        "/checkpointz" => Response::json(checkpointz_json(&p.ckpt)),
        "/healthz" => {
            let uptime_ms = shared.started.elapsed().as_millis() as u64;
            Response::json(healthz_json(&p, uptime_ms))
        }
        "/readyz" => Response {
            status: if p.health.ready { 200 } else { 503 },
            ..Response::json(document(0, Layout::Inline, |o| {
                o.field("ready", p.health.ready);
            }))
        },
        "/buildinfo" => Response::json(document(0, Layout::Inline, |o| {
            json_fields!(o, "name" => "sdcheckerd", "version" => env!("CARGO_PKG_VERSION"),
                "report_schema" => "sdcheckerd-report-v1")
        })),
        _ => Response::not_found(),
    }
}

/// What the poll loop owns: the pipeline it drives and the figures it
/// publishes about itself.
struct PollLoop {
    tailer: DirTailer,
    analyzer: IncrementalAnalyzer,
    engine: Option<AlertEngine>,
    /// What `/alerts` serves without an engine (`--no-alerts`): the
    /// document of an engine with an empty rule table.
    no_alerts: String,
    polls: u64,
    records: u64,
    last_progress: Instant,
    ckpt: CkptStatus,
}

/// What one tail sweep fed the analyzer, and how much of the sweep's
/// time the feeding took.
#[derive(Default)]
struct Swept {
    records: u64,
    ingest: Duration,
}

/// Where the tailer's scans go: into the analyzer as each stream's scan
/// comes back from the pool, the anomalous records' timestamps also to
/// the alert engine. Timed per scan folded in, never per record.
struct Ingest<'a> {
    analyzer: &'a mut IncrementalAnalyzer,
    engine: &'a mut Option<AlertEngine>,
    swept: Swept,
}

impl<'a> Ingest<'a> {
    fn new(analyzer: &'a mut IncrementalAnalyzer, engine: &'a mut Option<AlertEngine>) -> Self {
        Ingest {
            analyzer,
            engine,
            swept: Swept::default(),
        }
    }
}

impl TailSink for Ingest<'_> {
    fn is_live(&self, app: ApplicationId) -> bool {
        self.analyzer.is_live(app)
    }

    fn cursors(&self, owner: Option<ApplicationId>) -> Vec<(LogSource, StreamCursor)> {
        self.analyzer.cursors(owner)
    }

    fn apply(&mut self, scan: TailScan) {
        let started = Instant::now();
        self.swept.records += scan.records();
        if let Some(e) = self.engine.as_mut() {
            for &ts in scan.anomalous() {
                e.observe_anomalous(ts);
            }
        }
        self.analyzer.apply(scan);
        self.swept.ingest += started.elapsed();
    }

    fn swept(&mut self) {
        let started = Instant::now();
        self.analyzer.swept();
        self.swept.ingest += started.elapsed();
    }
}

impl PollLoop {
    /// Poll the tail, ingesting what it read: the analyzer's in-flight
    /// set says which applications' files are looked at every time.
    fn poll(&mut self) -> std::io::Result<Swept> {
        let mut ingest = Ingest::new(&mut self.analyzer, &mut self.engine);
        let polled = self.tailer.poll_with(&mut ingest);
        let swept = ingest.swept;
        self.note_records(&swept);
        polled.map(|()| swept)
    }

    /// The shutdown drain: one look at every file, then the tail's
    /// held-back partial lines as final records — what a batch run over
    /// the directory as it stands would read.
    fn drain(&mut self) {
        let mut ingest = Ingest::new(&mut self.analyzer, &mut self.engine);
        let _ = self.tailer.drain_with(&mut ingest);
        let swept = ingest.swept;
        self.note_records(&swept);
    }

    fn note_records(&mut self, swept: &Swept) {
        self.records += swept.records;
        obs::count("sdcheckerd_records_total", swept.records);
    }

    /// Build the snapshot the HTTP thread serves next — the only place
    /// pipeline state is rendered for it. `prev` lends its exemplar
    /// views, which are re-rendered only when the reservoir changed.
    fn publish(&self, prev: Option<&Published>, lag: &TailLag, ready: bool) -> Published {
        let analyzer = &self.analyzer;
        let ex = analyzer.exemplars();
        let exemplars = match prev {
            Some(p) if p.exemplars.generation == ex.generation() => Arc::clone(&p.exemplars),
            _ => Arc::new(ExemplarViews {
                generation: ex.generation(),
                index: ex.index_json(),
                traces: ex
                    .iter()
                    .filter_map(|p| Some((p.app.to_string(), ex.trace_json(p.app)?)))
                    .collect(),
            }),
        };
        Published {
            report: analyzer.live_report_json(Some((lag, &self.tailer.stats()))),
            health: Health {
                ready,
                polls: self.polls,
                records: self.records,
                in_flight: analyzer.in_flight() as u64,
                retired: analyzer.retired(),
                truncated: analyzer.truncated(),
                complete: analyzer.complete(),
                late_events: analyzer.late_events(),
                lag: *lag,
                events_buffered: analyzer.events_buffered() as u64,
                watermark_ms: analyzer.watermark().map(|w| w.0),
                exemplar_apps: ex.promoted_apps() as u64,
                exemplar_events: ex.events_retained() as u64,
            },
            last_progress: self.last_progress,
            alerts: self
                .engine
                .as_ref()
                .map_or_else(|| self.no_alerts.clone(), AlertEngine::alerts_json),
            firing: self
                .engine
                .iter()
                .flat_map(AlertEngine::firing)
                .map(|(rule, firing)| (rule.to_string(), firing))
                .collect(),
            exemplars,
            ckpt: self.ckpt.clone(),
        }
    }

    /// Serialize the full daemon state into the checkpoint store. A
    /// failed save is loud, counted (`sd_checkpoint_write_errors_total`)
    /// and non-fatal — the previous generation is still on disk. A
    /// successful one re-publishes the current snapshot with only its
    /// checkpoint status replaced; nothing is re-rendered.
    fn save_checkpoint(
        &mut self,
        store: &CheckpointStore,
        shared: &Shared,
        fingerprint: &CfgFingerprint,
        wide_bytes: u64,
    ) {
        let next = self.ckpt.writes_total + 1;
        match checkpoint::save(
            store,
            &SaveInputs {
                tailer: &self.tailer,
                analyzer: &self.analyzer,
                engine: self.engine.as_ref(),
                fingerprint,
                wide_bytes,
                writes_total: next,
                recoveries: self.ckpt.recoveries_total,
            },
        ) {
            Ok(bytes) => {
                obs::count("sd_checkpoint_writes_total", 1);
                self.ckpt.writes_total = next;
                self.ckpt.bytes = bytes;
                self.ckpt.written = Some(Instant::now());
                shared.store(Published {
                    ckpt: self.ckpt.clone(),
                    ..(*shared.load()).clone()
                });
            }
            Err(e) => {
                obs::count("sd_checkpoint_write_errors_total", 1);
                eprintln!("sdcheckerd: checkpoint save failed: {e}");
            }
        }
    }
}

fn note_retirements(retired: &[RetiredApp], quiet: bool) {
    for r in retired {
        obs::count("sdcheckerd_apps_retired_total", 1);
        if r.forced {
            obs::count("sdcheckerd_apps_forced_total", 1);
        }
        if !quiet {
            let name = r.name.as_deref().unwrap_or("(unnamed)");
            let total = r
                .delays
                .total_ms
                .map(|t| format!("{t} ms total delay"))
                .unwrap_or_else(|| "no complete delay".into());
            eprintln!(
                "retired {} [{name}]: {}, {total}{}",
                r.app,
                r.delays.outcome.label(),
                if r.unused > 0 {
                    format!(", {} unused containers", r.unused)
                } else {
                    String::new()
                },
            );
        }
    }
}

/// The wide-events JSONL output with its crash-safety bookkeeping: the
/// checkpoint records `bytes` as the emission cursor, and a resumed run
/// truncates the file back to that cursor so replayed retirements
/// append exactly the lines the killed run still owed — no duplicates,
/// no torn tails.
struct WideOut {
    w: std::io::BufWriter<std::fs::File>,
    /// Bytes emitted (and flushed by the next checkpoint) so far.
    bytes: u64,
    fsync: bool,
}

impl WideOut {
    fn append(&mut self, line: &str) {
        let _ = self.w.write_all(line.as_bytes());
        let _ = self.w.write_all(b"\n");
        self.bytes += line.len() as u64 + 1;
    }

    fn flush(&mut self) {
        let _ = self.w.flush();
        if self.fsync {
            let _ = self.w.get_ref().sync_all();
        }
    }
}

/// Open the wide-events file. A cold start truncates it; a resumed run
/// opens read-write and cuts it back to the checkpointed emission
/// cursor — dropping both torn tail lines and post-checkpoint lines the
/// replay will re-emit identically — then appends from there.
fn open_wide(
    path: &std::path::Path,
    resume_cursor: Option<u64>,
    fsync: bool,
) -> std::io::Result<WideOut> {
    use std::io::Seek as _;
    let Some(cursor) = resume_cursor else {
        return Ok(WideOut {
            w: std::io::BufWriter::new(std::fs::File::create(path)?),
            bytes: 0,
            fsync,
        });
    };
    let mut f = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)?;
    let len = f.metadata()?.len();
    if len < cursor {
        eprintln!(
            "sdcheckerd: wide-events file {} holds {len} bytes but the checkpoint \
             recorded {cursor}; earlier lines are lost and will not be re-emitted",
            path.display(),
        );
    }
    let cut = cursor.min(len);
    f.set_len(cut)?;
    f.seek(std::io::SeekFrom::End(0))?;
    Ok(WideOut {
        w: std::io::BufWriter::new(f),
        bytes: cut,
        fsync,
    })
}

/// Write `bytes` at `path` atomically (temp file + rename) so a crash
/// mid-write can never leave a torn report or alert log behind.
fn write_atomic(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp_name = path.as_os_str().to_owned();
    tmp_name.push(".tmp");
    let tmp = PathBuf::from(tmp_name);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// Feed a batch of retirements into the alert engine and the wide-events
/// file (both optional).
fn record_retirements(
    retired: &[RetiredApp],
    engine: &mut Option<AlertEngine>,
    wide_file: &mut Option<WideOut>,
) {
    for r in retired {
        if let Some(e) = engine.as_mut() {
            e.observe_retirement(r.retire_ms, &r.delays);
        }
        if let Some(w) = wide_file.as_mut() {
            w.append(&r.wide_event);
        }
    }
    if !retired.is_empty() {
        if let Some(w) = wide_file.as_mut() {
            w.flush();
        }
    }
}

/// Log and count alert transitions.
fn note_transitions(transitions: &[Transition], quiet: bool) {
    obs::count(
        "sdcheckerd_alert_transitions_total",
        transitions.len() as u64,
    );
    if quiet {
        return;
    }
    for t in transitions {
        eprintln!(
            "alert {} {} at {} ms (value {:.1})",
            t.rule,
            t.verb(),
            t.at.0,
            t.value,
        );
    }
}

/// The configuration a checkpoint is only valid under.
fn fingerprint(cfg: &IncrementalConfig, alerts: bool, slo_ms: u64) -> CfgFingerprint {
    CfgFingerprint {
        settle_ms: cfg.settle_ms,
        idle_timeout_ms: cfg.idle_timeout_ms,
        exemplar_slots: cfg.exemplar_slots as u64,
        alerts,
        slo_ms,
        eval_interval_ms: ALERT_EVAL_MS,
    }
}

fn main() -> ExitCode {
    cli::main(USAGE, run)
}

fn run(mut args: Args) -> Result<(), Stop> {
    let dir = PathBuf::from(args.positional("<watch-dir>")?);
    let mut listen = "127.0.0.1:9464".to_string();
    let mut port_file: Option<PathBuf> = None;
    let mut poll_ms: u64 = 200;
    let mut cfg = IncrementalConfig::default();
    let mut final_report: Option<PathBuf> = None;
    let mut run_for_ms: Option<u64> = None;
    let mut quiet = false;
    let mut slo_ms: u64 = 60_000;
    let mut no_alerts = false;
    let mut alerts_out: Option<PathBuf> = None;
    let mut wide_events_out: Option<PathBuf> = None;
    let mut checkpoint_dir: Option<PathBuf> = None;
    let mut checkpoint_interval_ms: u64 = 2_000;
    let mut resume_flag: Option<bool> = None;
    let mut fsync_outputs = false;
    let positive = |n: &u64| *n > 0;
    while let Some(flag) = args.flag() {
        match flag.as_str() {
            "--quiet" => quiet = true,
            "--no-alerts" => no_alerts = true,
            "--resume" => resume_flag = Some(true),
            "--no-resume" => resume_flag = Some(false),
            "--fsync-outputs" => fsync_outputs = true,
            "--listen" => listen = args.value(&flag)?,
            "--port-file" => port_file = Some(args.value(&flag)?),
            "--final-report" => final_report = Some(args.value(&flag)?),
            "--poll-ms" => poll_ms = args.value_if(&flag, "at least 1", positive)?,
            "--settle-ms" => cfg.settle_ms = args.value(&flag)?,
            "--idle-timeout-ms" => cfg.idle_timeout_ms = args.value(&flag)?,
            "--exemplar-slots" => cfg.exemplar_slots = args.value(&flag)?,
            "--slo-ms" => slo_ms = args.value_if(&flag, "at least 1", positive)?,
            "--alerts-out" => alerts_out = Some(args.value(&flag)?),
            "--wide-events-out" => wide_events_out = Some(args.value(&flag)?),
            "--checkpoint-dir" => checkpoint_dir = Some(args.value(&flag)?),
            "--checkpoint-interval-ms" => {
                checkpoint_interval_ms = args.value_if(&flag, "at least 1", positive)?;
            }
            "--run-for-ms" => run_for_ms = Some(args.value(&flag)?),
            other => return Err(cli::unknown(other)),
        }
    }
    if resume_flag == Some(true) && checkpoint_dir.is_none() {
        return Err(Stop::Usage("--resume requires --checkpoint-dir".into()));
    }

    obs::enable();
    sdchecker::describe_metrics();
    describe_daemon_metrics();
    install_signal_handlers();

    let tailer = DirTailer::new(&dir).or_fail(format_args!("cannot tail {}", dir.display()))?;
    let ckpt_store = match &checkpoint_dir {
        Some(p) => Some(
            CheckpointStore::open(p)
                .or_fail(format_args!("cannot open checkpoint dir {}", p.display()))?,
        ),
        None => None,
    };
    let mut lp = PollLoop {
        tailer,
        analyzer: IncrementalAnalyzer::new(cfg),
        engine: (!no_alerts).then(|| AlertEngine::new(default_rules(slo_ms), ALERT_EVAL_MS)),
        no_alerts: AlertEngine::new(Vec::new(), ALERT_EVAL_MS).alerts_json(),
        polls: 0,
        records: 0,
        last_progress: Instant::now(),
        ckpt: CkptStatus {
            enabled: ckpt_store.is_some(),
            dir: checkpoint_dir
                .as_ref()
                .map(|p| p.display().to_string())
                .unwrap_or_default(),
            interval_ms: checkpoint_interval_ms,
            ..CkptStatus::default()
        },
    };

    // Crash-only checkpointing: unless --no-resume, restore the newest
    // intact generation before anything is published or written, so
    // every surface reflects the restored state from the first request
    // on.
    let fingerprint = fingerprint(&cfg, lp.engine.is_some(), slo_ms);
    let mut wide_resume_bytes: Option<u64> = None;
    if let Some(store) = &ckpt_store {
        if resume_flag.unwrap_or(true) {
            let (restored, warnings) =
                checkpoint::load(store, &dir, &fingerprint, lp.engine.as_mut());
            for w in &warnings {
                eprintln!("sdcheckerd: {w}");
            }
            if let Some(r) = restored {
                lp.ckpt.recoveries_total = r.recoveries + 1;
                lp.ckpt.writes_total = r.writes_total;
                lp.ckpt.bytes = r.bytes;
                lp.ckpt.generation = Some(r.generation);
                wide_resume_bytes = Some(r.wide_bytes);
                lp.tailer = r.tailer;
                lp.analyzer = r.analyzer;
                if !quiet {
                    eprintln!(
                        "sdcheckerd: resumed from {} checkpoint ({} bytes, {} prior \
                         writes, restart #{})",
                        r.generation, r.bytes, r.writes_total, lp.ckpt.recoveries_total,
                    );
                }
            }
        }
        obs::count("sd_checkpoint_recoveries_total", lp.ckpt.recoveries_total);
        obs::count("sd_checkpoint_writes_total", lp.ckpt.writes_total);
    }
    // A poll that catches up reads and scans on every hardware thread;
    // what it produces does not depend on it.
    let workers = Parallelism::auto();

    let mut wide_file = match &wide_events_out {
        Some(p) => Some(
            open_wide(p, wide_resume_bytes, fsync_outputs)
                .or_fail(format_args!("cannot open wide-events file {}", p.display()))?,
        ),
        None => None,
    };

    let server = HttpServer::bind(&listen).or_fail(format_args!("cannot listen on {listen}"))?;
    let addr = server
        .local_addr()
        .or_fail("cannot resolve listen address")?;
    if let Some(p) = &port_file {
        std::fs::write(p, format!("{addr}\n"))
            .or_fail(format_args!("cannot write port file {}", p.display()))?;
    }
    if !quiet {
        eprintln!(
            "sdcheckerd: watching {} on {} workers — listening on http://{addr} \
             (/metrics /report.json /alerts /exemplars /exemplars/<app>/trace.json \
             /healthz /checkpointz /readyz /buildinfo)",
            dir.display(),
            workers.threads()
        );
    }

    // The first snapshot is the restored (or empty) pipeline itself, not
    // yet ready: a resumed daemon serves what it knew when it was killed
    // while its first poll works through the backlog.
    let shared = Arc::new(Shared::new(lp.publish(None, &lp.tailer.lag(), false)));
    let http_thread = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || {
            if let Err(e) = server.serve(&SHUTDOWN, |req| handle(req, &shared)) {
                eprintln!("sdcheckerd: HTTP server stopped, endpoints are down: {e}");
            }
        })
    };
    let _ = shared.server.set(http_thread.thread().clone());

    let deadline = run_for_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
    // Deltas are measured against the (possibly restored) stats so a
    // resumed run's process-local counters start at zero, not at the
    // whole lineage's totals.
    let mut stats_prev = lp.tailer.stats();
    let mut read_last: Option<u64> = None;
    let mut ops_prev = lp.tailer.ops();
    let mut late_prev: u64 = lp.analyzer.late_events();
    let ckpt_interval = Duration::from_millis(checkpoint_interval_ms);
    let mut last_ckpt_save: Option<Instant> = None;
    while !SHUTDOWN.load(Ordering::SeqCst) {
        if let Some(d) = deadline {
            if Instant::now() >= d {
                SHUTDOWN.store(true, Ordering::SeqCst);
                break;
            }
        }
        lp.polls += 1;
        obs::count("sdcheckerd_polls_total", 1);
        let poll_started = Instant::now();
        let mut phase = PhaseClock {
            boundary: poll_started,
        };
        // The first poll, and any after one that read a backlog, catch
        // up on the pool; a poll that follows the logs at their pace
        // costs less on this thread than the pool costs to start.
        let catching_up = read_last.is_none_or(|bytes| bytes >= CATCH_UP_BYTES);
        lp.tailer.set_parallelism(if catching_up {
            workers
        } else {
            Parallelism::ONE
        });
        let swept = lp.poll().unwrap_or_else(|e| {
            obs::count("sdcheckerd_poll_errors_total", 1);
            if !quiet {
                eprintln!("poll error: {e}");
            }
            Swept::default()
        });
        let stats = lp.tailer.stats();
        let read = stats.read_bytes.saturating_sub(stats_prev.read_bytes);
        read_last = Some(read);
        obs::count("sdcheckerd_read_bytes_total", read);
        obs::count(
            "sd_tail_files_removed_total",
            stats.removed_files.saturating_sub(stats_prev.removed_files),
        );
        stats_prev = stats;
        let ops = lp.tailer.ops();
        for (op, now, prev) in [
            ("stat", ops.stats, ops_prev.stats),
            ("listing", ops.listings, ops_prev.listings),
            ("open", ops.opens, ops_prev.opens),
        ] {
            obs::count_labeled("sd_tail_fs_ops_total", &[("op", op)], now - prev);
        }
        obs::count(
            "sd_tail_read_errors_total",
            ops.read_errors - ops_prev.read_errors,
        );
        obs::count(
            "sd_tail_oversize_lines_total",
            ops.oversize_lines - ops_prev.oversize_lines,
        );
        ops_prev = ops;
        // Ingest ran inside the sweep, chunk by chunk; charge the phases
        // as if all the tailing had come first.
        let now = Instant::now();
        phase.mark_until("tail", now.checked_sub(swept.ingest).unwrap_or(now));
        phase.mark("ingest");
        let retired = lp.analyzer.drain_ready();
        note_retirements(&retired, quiet);
        record_retirements(&retired, &mut lp.engine, &mut wide_file);
        obs::count(
            "sdcheckerd_late_events_total",
            lp.analyzer.late_events().saturating_sub(late_prev),
        );
        late_prev = lp.analyzer.late_events();
        if swept.records > 0 || !retired.is_empty() {
            lp.last_progress = Instant::now();
        }
        phase.mark("retire");
        // One lag figure per iteration: the alert engine and every
        // published surface see the same number.
        let lag = lp.tailer.lag();
        if let Some(e) = lp.engine.as_mut() {
            e.set_live_lag(lag.bytes);
            if let Some(w) = lp.analyzer.watermark() {
                let transitions = e.advance(w);
                note_transitions(&transitions, quiet);
            }
        }
        phase.mark("alerts");
        // The one publish point. It sits before the wide-events flush
        // and the checkpoint write so that what a poll ingested is
        // visible without waiting on either.
        shared.store(lp.publish(Some(&shared.load()), &lag, true));
        phase.mark("publish");
        // Crash safety: push every wide line written this tick out of
        // process buffers, then (if due) checkpoint the state that
        // accounts for exactly those bytes.
        if let Some(w) = wide_file.as_mut() {
            w.flush();
        }
        if let Some(store) = &ckpt_store {
            if last_ckpt_save.is_none_or(|t| t.elapsed() >= ckpt_interval) {
                let wide_bytes = wide_file.as_ref().map_or(0, |w| w.bytes);
                lp.save_checkpoint(store, &shared, &fingerprint, wide_bytes);
                last_ckpt_save = Some(Instant::now());
            }
        }
        phase.mark("checkpoint");
        obs::observe(
            "sdcheckerd_poll_duration_ms",
            POLL_DURATION_BOUNDS,
            poll_started.elapsed().as_millis() as u64,
        );
        // Sleep in short slices so SIGTERM turns around quickly.
        let mut slept = 0;
        while slept < poll_ms && !SHUTDOWN.load(Ordering::SeqCst) {
            let slice = (poll_ms - slept).min(25);
            std::thread::sleep(Duration::from_millis(slice));
            slept += slice;
        }
    }

    // Drain: one final poll picks up everything flushed before the signal,
    // held-back partial lines become final records (batch parity for a
    // stream whose last line lacks a newline), and every in-flight app
    // retires.
    lp.drain();
    let retired = lp.analyzer.finish();
    note_retirements(&retired, quiet);
    record_retirements(&retired, &mut lp.engine, &mut wide_file);
    if let Some(e) = lp.engine.as_mut() {
        // Evaluate one interval past the final watermark so the samples
        // stamped by finish() get a tick, then resolve whatever is left
        // open — the transition log always ends at rest.
        let end = TsMs(
            lp.analyzer
                .watermark()
                .map_or(0, |w| w.0)
                .saturating_add(ALERT_EVAL_MS),
        );
        e.set_live_lag(0);
        let mut transitions = e.advance(end);
        transitions.extend(e.close_out(end));
        note_transitions(&transitions, quiet);
    }
    shared.store(lp.publish(Some(&shared.load()), &lp.tailer.lag(), true));
    if let Some(p) = &alerts_out {
        if let Some(e) = &lp.engine {
            write_atomic(p, e.alerts_json().as_bytes())
                .or_fail(format_args!("cannot write alerts file {}", p.display()))?;
            if !quiet {
                eprintln!("wrote alerts to {}", p.display());
            }
        }
    }
    if let Some(w) = wide_file.as_mut() {
        w.flush();
    }
    if let Some(store) = &ckpt_store {
        // Final checkpoint: the drained, at-rest state. A restart from
        // here has nothing to replay and re-serves the same surfaces.
        let wide_bytes = wide_file.as_ref().map_or(0, |w| w.bytes);
        lp.save_checkpoint(store, &shared, &fingerprint, wide_bytes);
    }
    if let Some(p) = &final_report {
        write_atomic(p, shared.load().report.as_bytes())
            .or_fail(format_args!("cannot write final report {}", p.display()))?;
        if !quiet {
            eprintln!("wrote final report to {}", p.display());
        }
    }
    SHUTDOWN.store(true, Ordering::SeqCst);
    shared.wake_server();
    let _ = http_thread.join();
    if !quiet {
        eprintln!(
            "sdcheckerd: {} polls, {} records, {} apps retired ({} truncated), \
             {} in flight at shutdown",
            lp.polls,
            lp.records,
            lp.analyzer.retired(),
            lp.analyzer.truncated(),
            lp.analyzer.in_flight(),
        );
    }
    Ok(())
}

// The integration tests' corpus builder, shared with the unit tests below.
#[path = "../../tests/common/mod.rs"]
#[cfg(test)]
mod common;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpointz_is_json_whatever_the_directory_is_called() {
        let dir = "ckpt \"a\\b\u{1}";
        let status = CkptStatus {
            enabled: true,
            dir: dir.to_string(),
            generation: Some("current"),
            written: Some(Instant::now()),
            ..CkptStatus::default()
        };
        let doc = obs::json::parse(&checkpointz_json(&status)).expect("valid JSON");
        assert_eq!(doc.get("dir").unwrap().as_str(), Some(dir));
        assert_eq!(doc.get("generation").unwrap().as_str(), Some("current"));
        assert!(doc.get("age_ms").unwrap().as_f64().is_some());
    }

    /// The members of a parsed object, in order.
    fn keys(doc: &obs::json::Json) -> Vec<&str> {
        match doc {
            obs::json::Json::Obj(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        }
    }

    #[test]
    fn health_documents_parse_with_their_members_in_order() {
        let (dir, lp, _) = polled_fleet("health");
        let p = lp.publish(None, &lp.tailer.lag(), true);
        let health = obs::json::parse(&healthz_json(&p, 5)).expect("valid JSON");
        assert_eq!(
            keys(&health),
            [
                "status",
                "ready",
                "uptime_ms",
                "polls",
                "records",
                "in_flight",
                "retired",
                "truncated",
                "complete",
                "late_events",
                "events_buffered",
                "sources",
                "lag_bytes",
                "lag_ms",
                "watermark_ms",
                "last_progress_ms"
            ]
        );
        assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(health.get("uptime_ms").unwrap().as_f64(), Some(5.0));
        let ckpt = obs::json::parse(&checkpointz_json(&p.ckpt)).expect("valid JSON");
        assert_eq!(
            keys(&ckpt),
            [
                "schema",
                "enabled",
                "dir",
                "interval_ms",
                "resumed",
                "generation",
                "writes_total",
                "recoveries_total",
                "bytes",
                "age_ms"
            ]
        );
        assert_eq!(ckpt.get("generation"), Some(&obs::json::Json::Null));
        assert_eq!(ckpt.get("age_ms"), Some(&obs::json::Json::Null));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The faulty fleet written to `<tmp>/logs` and polled once by a
    /// default-configured loop without alerts; plus that configuration's
    /// fingerprint.
    fn polled_fleet(name: &str) -> (PathBuf, PollLoop, CfgFingerprint) {
        let dir = std::env::temp_dir().join(format!("sdcheckerd_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut logs = logmodel::LogStore::new(logmodel::Epoch::default_run());
        common::populate_faulty_fleet(&mut logs);
        logs.write_dir(&dir.join("logs")).unwrap();

        let cfg = IncrementalConfig::default();
        let mut lp = PollLoop {
            tailer: DirTailer::new(&dir.join("logs")).unwrap(),
            analyzer: IncrementalAnalyzer::new(cfg),
            engine: None,
            no_alerts: String::new(),
            polls: 0,
            records: 0,
            last_progress: Instant::now(),
            ckpt: CkptStatus::default(),
        };
        lp.poll().unwrap();
        (dir, lp, fingerprint(&cfg, false, 0))
    }

    #[test]
    fn first_snapshot_of_a_resumed_daemon_is_the_restored_state() {
        let (dir, mut killed, fingerprint) = polled_fleet("unit");
        assert_eq!(killed.analyzer.finish().len(), 3);
        let store = CheckpointStore::open(&dir.join("ckpt")).unwrap();
        let shared = Shared::new(killed.publish(None, &killed.tailer.lag(), true));
        killed.save_checkpoint(&store, &shared, &fingerprint, 0);
        assert_eq!(shared.load().ckpt.writes_total, 1);

        let (restored, warnings) = checkpoint::load(&store, &dir.join("logs"), &fingerprint, None);
        assert!(warnings.is_empty(), "{warnings:?}");
        let restored = restored.expect("intact checkpoint");
        let resumed = PollLoop {
            tailer: restored.tailer,
            analyzer: restored.analyzer,
            ..killed
        };
        let first = resumed.publish(None, &resumed.tailer.lag(), false);
        assert!(!first.health.ready, "not ready before the first poll");
        assert_eq!(first.health.retired, 3);
        let report = obs::json::parse(&first.report).unwrap();
        let fleet = report.get("fleet").unwrap();
        assert_eq!(fleet.get("retired").unwrap().as_f64(), Some(3.0));
        assert!(!first.exemplars.traces.is_empty());
        assert_eq!(first.exemplars.traces, shared.load().exemplars.traces);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_save_is_counted_and_costs_no_generation() {
        let (dir, mut lp, fingerprint) = polled_fleet("enospc");
        let store = CheckpointStore::open(&dir.join("ckpt")).unwrap();
        let shared = Shared::new(lp.publish(None, &lp.tailer.lag(), true));
        let load = |store| checkpoint::load(store, &dir.join("logs"), &fingerprint, None);
        let errors = || {
            obs::global()
                .snapshot()
                .counter("sd_checkpoint_write_errors_total")
        };
        obs::enable();
        lp.save_checkpoint(&store, &shared, &fingerprint, 10);
        lp.save_checkpoint(&store, &shared, &fingerprint, 20);
        assert_eq!((lp.ckpt.writes_total, errors()), (2, 0));

        // The scratch name is taken by a directory: the write fails the
        // way a full disk fails it, before either generation is touched.
        let tmp = store.current_path().with_file_name("checkpoint-v2.tmp");
        std::fs::create_dir(&tmp).unwrap();
        lp.save_checkpoint(&store, &shared, &fingerprint, 30);
        assert_eq!((lp.ckpt.writes_total, errors()), (2, 1));
        assert_eq!(shared.load().ckpt.writes_total, 2);
        let (current, warnings) = load(&store);
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(current.expect("current survives").wide_bytes, 20);
        std::fs::remove_file(store.current_path()).unwrap();
        let (previous, _) = load(&store);
        let previous = previous.expect("previous survives");
        assert_eq!((previous.generation, previous.wide_bytes), ("previous", 10));

        // Space comes back: the next save goes through.
        std::fs::remove_dir(&tmp).unwrap();
        lp.save_checkpoint(&store, &shared, &fingerprint, 40);
        assert_eq!((lp.ckpt.writes_total, errors()), (3, 1));
        assert_eq!(load(&store).0.expect("new current").wide_bytes, 40);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
