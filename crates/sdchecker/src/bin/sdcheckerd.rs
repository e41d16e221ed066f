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
//! emission cursor) into an atomically-replaced `checkpoint-v1` file
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
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use logmodel::TsMs;
use obs::{GaugeRegistry, HttpServer, Request, Response, PROMETHEUS_CONTENT_TYPE};
use sdchecker::checkpoint::{self, CfgFingerprint, CheckpointStore, SaveInputs};
use sdchecker::{
    default_rules, AlertEngine, DirTailer, IncrementalAnalyzer, IncrementalConfig, Outcome,
    RetiredApp, TailLag, Transition,
};

const USAGE: &str = "usage: sdcheckerd <watch-dir> [--listen ADDR] [--port-file PATH] \
[--poll-ms N] [--settle-ms N] [--idle-timeout-ms N] [--exemplar-slots N] [--slo-ms N] \
[--no-alerts] [--alerts-out PATH] [--wide-events-out PATH] [--final-report PATH] \
[--checkpoint-dir PATH] [--checkpoint-interval-ms N] [--resume|--no-resume] \
[--fsync-outputs] [--run-for-ms N] [--quiet]";

/// Alert rules are evaluated at this log-time quantum.
const ALERT_EVAL_MS: u64 = 1_000;

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
        let ms = self.boundary.elapsed().as_millis() as u64;
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

/// Health state the poll loop publishes and the HTTP thread reads.
#[derive(Debug, Default, Clone)]
struct Health {
    ready: bool,
    polls: u64,
    records: u64,
    in_flight: u64,
    retired: u64,
    truncated: u64,
    complete: u64,
    late_events: u64,
    sources: u64,
    lag_bytes: u64,
    lag_ms: u64,
    events_buffered: u64,
    watermark_ms: Option<u64>,
    exemplar_apps: u64,
    exemplar_events: u64,
}

/// Checkpoint status the poll loop publishes for `/checkpointz` and the
/// `sd_checkpoint_*` gauges.
#[derive(Debug, Default, Clone)]
struct CkptStatus {
    enabled: bool,
    dir: String,
    interval_ms: u64,
    /// Whether this process restored state from a checkpoint.
    resumed: bool,
    /// Which generation was restored (`current` / `previous`), if any.
    generation: Option<String>,
    writes_total: u64,
    recoveries_total: u64,
    /// Size of the newest checkpoint this lineage knows about, bytes.
    bytes: u64,
}

struct Shared {
    report: Mutex<String>,
    health: Mutex<Health>,
    /// Last wall-clock instant a poll made progress (read records or
    /// retired an app) — the watchdog `/healthz` ages against.
    last_progress: Mutex<Instant>,
    started: Instant,
    /// Rendered `/alerts` document (schema `sdcheckerd-alerts-v1`).
    alerts: Mutex<String>,
    /// Per-rule firing flags for the `sd_alert_firing{rule}` gauges.
    firing: Mutex<BTreeMap<String, bool>>,
    /// Rendered `/exemplars` index (schema `sdcheckerd-exemplars-v1`).
    exemplars: Mutex<String>,
    /// Pre-rendered Perfetto traces of every promoted app, rebuilt when
    /// the reservoir generation changes.
    exemplar_traces: Mutex<BTreeMap<String, String>>,
    /// Crash-only checkpoint status (`/checkpointz`).
    ckpt: Mutex<CkptStatus>,
    /// Wall-clock instant of the last successful checkpoint write.
    ckpt_written: Mutex<Option<Instant>>,
}

impl Shared {
    fn health(&self) -> Health {
        self.health
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    fn ckpt(&self) -> CkptStatus {
        self.ckpt.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    fn ckpt_age_ms(&self) -> Option<u64> {
        self.ckpt_written
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .map(|t| t.elapsed().as_millis() as u64)
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
        "Bytes the last poll saw on disk but did not turn into records",
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
        "sd_tail_fs_ops_total",
        "Filesystem calls made by the tailer, by op (stat, listing, open)",
    );
    obs::describe(
        "sd_checkpoint_writes_total",
        "Checkpoints written by this daemon lineage (survives restarts)",
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

fn healthz_json(h: &Health, progress_age_ms: u64, uptime_ms: u64) -> String {
    let status = if h.ready { "ok" } else { "starting" };
    format!(
        "{{\"status\": \"{status}\", \"ready\": {}, \"uptime_ms\": {uptime_ms}, \
         \"polls\": {}, \"records\": {}, \"in_flight\": {}, \"retired\": {}, \
         \"truncated\": {}, \"complete\": {}, \"late_events\": {}, \
         \"events_buffered\": {}, \"sources\": {}, \"lag_bytes\": {}, \
         \"lag_ms\": {}, \"watermark_ms\": {}, \"last_progress_ms\": {progress_age_ms}}}\n",
        h.ready,
        h.polls,
        h.records,
        h.in_flight,
        h.retired,
        h.truncated,
        h.complete,
        h.late_events,
        h.events_buffered,
        h.sources,
        h.lag_bytes,
        h.lag_ms,
        h.watermark_ms
            .map(|w| w.to_string())
            .unwrap_or_else(|| "null".into()),
    )
}

fn handle(req: &Request, shared: &Shared, gauges: &GaugeRegistry) -> Response {
    obs::count_labeled(
        "sdcheckerd_http_requests_total",
        &[("path", metric_path(&req.path))],
        1,
    );
    match req.path.as_str() {
        "/metrics" => {
            let mut snap = obs::global().snapshot();
            gauges.sample_into(&mut snap);
            Response::ok(PROMETHEUS_CONTENT_TYPE, obs::prometheus_text(&snap))
        }
        "/report.json" => {
            let report = shared.report.lock().unwrap_or_else(|e| e.into_inner());
            Response::json(report.clone())
        }
        "/alerts" => {
            let alerts = shared.alerts.lock().unwrap_or_else(|e| e.into_inner());
            Response::json(alerts.clone())
        }
        "/exemplars" => {
            let ex = shared.exemplars.lock().unwrap_or_else(|e| e.into_inner());
            Response::json(ex.clone())
        }
        p if p.starts_with("/exemplars/") && p.ends_with("/trace.json") => {
            let app = &p["/exemplars/".len()..p.len() - "/trace.json".len()];
            let traces = shared
                .exemplar_traces
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            match traces.get(app) {
                Some(t) => Response::json(t.clone()),
                None => Response::not_found(),
            }
        }
        "/checkpointz" => {
            let c = shared.ckpt();
            let age = shared.ckpt_age_ms();
            Response::json(format!(
                "{{\"schema\": \"sdcheckerd-checkpoint-v1\", \"enabled\": {}, \
                 \"dir\": {:?}, \"interval_ms\": {}, \"resumed\": {}, \
                 \"generation\": {}, \"writes_total\": {}, \"recoveries_total\": {}, \
                 \"bytes\": {}, \"age_ms\": {}}}\n",
                c.enabled,
                c.dir,
                c.interval_ms,
                c.resumed,
                c.generation
                    .as_ref()
                    .map_or("null".to_string(), |g| format!("{g:?}")),
                c.writes_total,
                c.recoveries_total,
                c.bytes,
                age.map_or("null".to_string(), |a| a.to_string()),
            ))
        }
        "/healthz" => {
            let h = shared.health();
            let age = shared
                .last_progress
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .elapsed()
                .as_millis() as u64;
            let uptime = shared.started.elapsed().as_millis() as u64;
            Response::json(healthz_json(&h, age, uptime))
        }
        "/readyz" => {
            if shared.health().ready {
                Response::json("{\"ready\": true}\n")
            } else {
                Response {
                    status: 503,
                    content_type: "application/json".to_string(),
                    body: b"{\"ready\": false}\n".to_vec(),
                }
            }
        }
        "/buildinfo" => Response::json(format!(
            "{{\"name\": \"sdcheckerd\", \"version\": \"{}\", \
             \"report_schema\": \"sdcheckerd-report-v1\"}}\n",
            env!("CARGO_PKG_VERSION"),
        )),
        _ => Response::not_found(),
    }
}

/// Publish the current pipeline state for the HTTP thread.
fn refresh(
    shared: &Shared,
    lag: &TailLag,
    tailer: &DirTailer,
    analyzer: &IncrementalAnalyzer,
    polls: u64,
    records: u64,
    ready: bool,
) {
    let stats = tailer.stats();
    let report = analyzer.live_report_json(Some((lag, &stats)));
    *shared.report.lock().unwrap_or_else(|e| e.into_inner()) = report;
    let h = Health {
        ready,
        polls,
        records,
        in_flight: analyzer.in_flight() as u64,
        retired: analyzer.retired(),
        truncated: analyzer.truncated(),
        complete: analyzer.complete(),
        late_events: analyzer.late_events(),
        sources: lag.sources,
        lag_bytes: lag.bytes,
        lag_ms: lag.max_ms,
        events_buffered: analyzer.events_buffered() as u64,
        watermark_ms: analyzer.watermark().map(|w| w.0),
        exemplar_apps: analyzer.exemplars().promoted_apps() as u64,
        exemplar_events: analyzer.exemplars().events_retained() as u64,
    };
    *shared.health.lock().unwrap_or_else(|e| e.into_inner()) = h;
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

/// Serialize the full daemon state into the checkpoint store and
/// publish the outcome. A failed save is loud but non-fatal — the
/// previous generation is still on disk.
#[allow(clippy::too_many_arguments)]
fn save_checkpoint(
    store: &CheckpointStore,
    shared: &Shared,
    tailer: &DirTailer,
    analyzer: &IncrementalAnalyzer,
    engine: Option<&AlertEngine>,
    fingerprint: &CfgFingerprint,
    wide_bytes: u64,
    writes_total: &mut u64,
    recoveries: u64,
) {
    let next = *writes_total + 1;
    match checkpoint::save(
        store,
        &SaveInputs {
            tailer,
            analyzer,
            engine,
            fingerprint,
            wide_bytes,
            writes_total: next,
            recoveries,
        },
    ) {
        Ok(bytes) => {
            *writes_total = next;
            obs::count("sd_checkpoint_writes_total", 1);
            {
                let mut c = shared.ckpt.lock().unwrap_or_else(|e| e.into_inner());
                c.writes_total = next;
                c.bytes = bytes;
            }
            *shared
                .ckpt_written
                .lock()
                .unwrap_or_else(|e| e.into_inner()) = Some(Instant::now());
        }
        Err(e) => eprintln!("sdcheckerd: checkpoint save failed: {e}"),
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

/// Publish the `/alerts` document and per-rule firing flags.
fn publish_alerts(shared: &Shared, engine: &AlertEngine) {
    *shared.alerts.lock().unwrap_or_else(|e| e.into_inner()) = engine.alerts_json();
    let mut map = shared.firing.lock().unwrap_or_else(|e| e.into_inner());
    for (name, f) in engine.firing() {
        map.insert(name.to_string(), f);
    }
}

/// Re-render the `/exemplars` index and per-app traces. Called only when
/// the reservoir generation changes, so steady state does no rebuild work.
fn publish_exemplars(shared: &Shared, analyzer: &IncrementalAnalyzer) {
    let ex = analyzer.exemplars();
    let mut traces = BTreeMap::new();
    for p in ex.iter() {
        if let Some(t) = ex.trace_json(p.app) {
            traces.insert(p.app.to_string(), t);
        }
    }
    *shared.exemplars.lock().unwrap_or_else(|e| e.into_inner()) = ex.index_json();
    *shared
        .exemplar_traces
        .lock()
        .unwrap_or_else(|e| e.into_inner()) = traces;
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let Some(dir) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    if dir.starts_with('-') {
        eprintln!("expected <watch-dir> as the first argument, got {dir}");
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    let dir = PathBuf::from(dir);
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
    let mut i = 1;
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--quiet" => {
                quiet = true;
                i += 1;
                continue;
            }
            "--no-alerts" => {
                no_alerts = true;
                i += 1;
                continue;
            }
            "--resume" => {
                resume_flag = Some(true);
                i += 1;
                continue;
            }
            "--no-resume" => {
                resume_flag = Some(false);
                i += 1;
                continue;
            }
            "--fsync-outputs" => {
                fsync_outputs = true;
                i += 1;
                continue;
            }
            "--listen"
            | "--port-file"
            | "--poll-ms"
            | "--settle-ms"
            | "--idle-timeout-ms"
            | "--exemplar-slots"
            | "--slo-ms"
            | "--alerts-out"
            | "--wide-events-out"
            | "--final-report"
            | "--run-for-ms"
            | "--checkpoint-dir"
            | "--checkpoint-interval-ms" => {}
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            }
        }
        let Some(value) = args.get(i + 1) else {
            eprintln!("{flag} requires a value");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        let parse_u64 = |v: &str| -> Option<u64> { v.parse().ok() };
        match flag {
            "--listen" => listen = value.clone(),
            "--port-file" => port_file = Some(PathBuf::from(value)),
            "--final-report" => final_report = Some(PathBuf::from(value)),
            "--poll-ms" => match parse_u64(value) {
                Some(n) if n > 0 => poll_ms = n,
                _ => {
                    eprintln!("invalid --poll-ms value: {value}");
                    return ExitCode::from(2);
                }
            },
            "--settle-ms" => match parse_u64(value) {
                Some(n) => cfg.settle_ms = n,
                None => {
                    eprintln!("invalid --settle-ms value: {value}");
                    return ExitCode::from(2);
                }
            },
            "--idle-timeout-ms" => match parse_u64(value) {
                Some(n) => cfg.idle_timeout_ms = n,
                None => {
                    eprintln!("invalid --idle-timeout-ms value: {value}");
                    return ExitCode::from(2);
                }
            },
            "--exemplar-slots" => match value.parse::<usize>() {
                Ok(n) => cfg.exemplar_slots = n,
                Err(_) => {
                    eprintln!("invalid --exemplar-slots value: {value}");
                    return ExitCode::from(2);
                }
            },
            "--slo-ms" => match parse_u64(value) {
                Some(n) if n > 0 => slo_ms = n,
                _ => {
                    eprintln!("invalid --slo-ms value: {value}");
                    return ExitCode::from(2);
                }
            },
            "--alerts-out" => alerts_out = Some(PathBuf::from(value)),
            "--wide-events-out" => wide_events_out = Some(PathBuf::from(value)),
            "--checkpoint-dir" => checkpoint_dir = Some(PathBuf::from(value)),
            "--checkpoint-interval-ms" => match parse_u64(value) {
                Some(n) if n > 0 => checkpoint_interval_ms = n,
                _ => {
                    eprintln!("invalid --checkpoint-interval-ms value: {value}");
                    return ExitCode::from(2);
                }
            },
            "--run-for-ms" => match parse_u64(value) {
                Some(n) => run_for_ms = Some(n),
                None => {
                    eprintln!("invalid --run-for-ms value: {value}");
                    return ExitCode::from(2);
                }
            },
            _ => {}
        }
        i += 2;
    }
    if resume_flag == Some(true) && checkpoint_dir.is_none() {
        eprintln!("--resume requires --checkpoint-dir");
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }

    obs::enable();
    sdchecker::describe_metrics();
    describe_daemon_metrics();
    install_signal_handlers();

    let mut tailer = match DirTailer::new(&dir) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot tail {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    let mut analyzer = IncrementalAnalyzer::new(cfg);
    let mut engine = if no_alerts {
        None
    } else {
        Some(AlertEngine::new(default_rules(slo_ms), ALERT_EVAL_MS))
    };

    // Crash-only checkpointing: open the store, and (unless --no-resume)
    // restore the newest intact generation before anything is published
    // or written, so every surface reflects the restored state from the
    // first request on.
    let fingerprint = CfgFingerprint {
        settle_ms: cfg.settle_ms,
        idle_timeout_ms: cfg.idle_timeout_ms,
        exemplar_slots: cfg.exemplar_slots as u64,
        alerts: engine.is_some(),
        slo_ms,
        eval_interval_ms: ALERT_EVAL_MS,
    };
    let ckpt_store = match &checkpoint_dir {
        Some(p) => match CheckpointStore::open(p) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("cannot open checkpoint dir {}: {e}", p.display());
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let mut recoveries: u64 = 0;
    let mut ckpt_writes: u64 = 0;
    let mut ckpt_bytes: u64 = 0;
    let mut wide_resume_bytes: Option<u64> = None;
    let mut resumed_generation: Option<&'static str> = None;
    if let Some(store) = &ckpt_store {
        if resume_flag.unwrap_or(true) {
            let (restored, warnings) = checkpoint::load(store, &dir, &fingerprint, engine.as_mut());
            for w in &warnings {
                eprintln!("sdcheckerd: {w}");
            }
            if let Some(r) = restored {
                recoveries = r.recoveries + 1;
                ckpt_writes = r.writes_total;
                ckpt_bytes = r.bytes;
                wide_resume_bytes = Some(r.wide_bytes);
                resumed_generation = Some(r.generation);
                tailer = r.tailer;
                analyzer = r.analyzer;
                if !quiet {
                    eprintln!(
                        "sdcheckerd: resumed from {} checkpoint ({} bytes, {} prior \
                         writes, restart #{recoveries})",
                        r.generation, r.bytes, r.writes_total,
                    );
                }
            }
        }
    }
    if ckpt_store.is_some() {
        obs::count("sd_checkpoint_recoveries_total", recoveries);
        obs::count("sd_checkpoint_writes_total", ckpt_writes);
    }

    let mut wide_file = match &wide_events_out {
        Some(p) => match open_wide(p, wide_resume_bytes, fsync_outputs) {
            Ok(w) => Some(w),
            Err(e) => {
                eprintln!("cannot open wide-events file {}: {e}", p.display());
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    let server = match HttpServer::bind(&listen) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot listen on {listen}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = match server.local_addr() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cannot resolve listen address: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(p) = &port_file {
        if let Err(e) = std::fs::write(p, format!("{addr}\n")) {
            eprintln!("cannot write port file {}: {e}", p.display());
            return ExitCode::FAILURE;
        }
    }
    if !quiet {
        eprintln!(
            "sdcheckerd: watching {} — listening on http://{addr} \
             (/metrics /report.json /healthz /readyz /buildinfo)",
            dir.display()
        );
    }

    let initial_alerts = engine.as_ref().map_or_else(
        || "{\"schema\": \"sdcheckerd-alerts-v1\", \"rules\": [], \"transitions\": []}\n".into(),
        |e| e.alerts_json(),
    );
    let initial_firing: BTreeMap<String, bool> = engine
        .as_ref()
        .map(|e| e.firing().map(|(n, f)| (n.to_string(), f)).collect())
        .unwrap_or_default();
    let rule_names: Vec<String> = initial_firing.keys().cloned().collect();
    let shared = Arc::new(Shared {
        report: Mutex::new("{\"schema\": \"sdcheckerd-report-v1\"}\n".to_string()),
        health: Mutex::new(Health::default()),
        last_progress: Mutex::new(Instant::now()),
        started: Instant::now(),
        alerts: Mutex::new(initial_alerts),
        firing: Mutex::new(initial_firing),
        exemplars: Mutex::new(analyzer.exemplars().index_json()),
        exemplar_traces: Mutex::new(BTreeMap::new()),
        ckpt: Mutex::new(CkptStatus {
            enabled: ckpt_store.is_some(),
            dir: checkpoint_dir
                .as_ref()
                .map(|p| p.display().to_string())
                .unwrap_or_default(),
            interval_ms: checkpoint_interval_ms,
            resumed: resumed_generation.is_some(),
            generation: resumed_generation.map(str::to_string),
            writes_total: ckpt_writes,
            recoveries_total: recoveries,
            bytes: ckpt_bytes,
        }),
        ckpt_written: Mutex::new(None),
    });
    if resumed_generation.is_some() {
        // The exemplar traces start empty; rebuild them from the
        // restored reservoir so /exemplars/<app>/trace.json works
        // before the next reservoir change.
        publish_exemplars(&shared, &analyzer);
    }
    let gauges = Arc::new(GaugeRegistry::new());
    {
        let s = Arc::clone(&shared);
        gauges.register("sdcheckerd_apps_in_flight", move || {
            s.health().in_flight as f64
        });
        let s = Arc::clone(&shared);
        gauges.register("sdcheckerd_events_buffered", move || {
            s.health().events_buffered as f64
        });
        let s = Arc::clone(&shared);
        gauges.register("sdcheckerd_tail_sources", move || s.health().sources as f64);
        let s = Arc::clone(&shared);
        gauges.register("sdcheckerd_tail_lag_bytes", move || {
            s.health().lag_bytes as f64
        });
        let s = Arc::clone(&shared);
        gauges.register("sdcheckerd_tail_lag_ms", move || s.health().lag_ms as f64);
        let s = Arc::clone(&shared);
        gauges.register("sdcheckerd_uptime_seconds", move || {
            s.started.elapsed().as_secs_f64()
        });
        let s = Arc::clone(&shared);
        gauges.register("process_uptime_seconds", move || {
            s.started.elapsed().as_secs_f64()
        });
        let s = Arc::clone(&shared);
        gauges.register("sdcheckerd_exemplar_apps", move || {
            s.health().exemplar_apps as f64
        });
        let s = Arc::clone(&shared);
        gauges.register("sdcheckerd_exemplar_events", move || {
            s.health().exemplar_events as f64
        });
        if ckpt_store.is_some() {
            let s = Arc::clone(&shared);
            gauges.register("sd_checkpoint_age_ms", move || {
                s.ckpt_age_ms().map_or(0.0, |a| a as f64)
            });
            let s = Arc::clone(&shared);
            gauges.register("sd_checkpoint_bytes", move || s.ckpt().bytes as f64);
        }
        for name in &rule_names {
            let s = Arc::clone(&shared);
            let rule = name.clone();
            gauges.register_labeled("sd_alert_firing", &[("rule", name)], move || {
                let map = s.firing.lock().unwrap_or_else(|e| e.into_inner());
                if map.get(&rule).copied().unwrap_or(false) {
                    1.0
                } else {
                    0.0
                }
            });
        }
    }

    let http_thread = {
        let shared = Arc::clone(&shared);
        let gauges = Arc::clone(&gauges);
        std::thread::spawn(move || server.serve(&SHUTDOWN, |req| handle(req, &shared, &gauges)))
    };

    let deadline = run_for_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
    let mut polls: u64 = 0;
    let mut records: u64 = 0;
    // Deltas are measured against the (possibly restored) stats so a
    // resumed run's process-local counters start at zero, not at the
    // whole lineage's totals.
    let mut stats_prev = tailer.stats();
    let mut ops_prev = tailer.ops();
    let mut late_prev: u64 = analyzer.late_events();
    let mut exemplar_gen: u64 = analyzer.exemplars().generation();
    let ckpt_interval = Duration::from_millis(checkpoint_interval_ms);
    let mut last_ckpt_save: Option<Instant> = None;
    while !SHUTDOWN.load(Ordering::SeqCst) {
        if let Some(d) = deadline {
            if Instant::now() >= d {
                SHUTDOWN.store(true, Ordering::SeqCst);
                break;
            }
        }
        polls += 1;
        obs::count("sdcheckerd_polls_total", 1);
        let poll_started = Instant::now();
        let mut phase = PhaseClock {
            boundary: poll_started,
        };
        let batch = match tailer.poll() {
            Ok(b) => b,
            Err(e) => {
                obs::count("sdcheckerd_poll_errors_total", 1);
                if !quiet {
                    eprintln!("poll error: {e}");
                }
                Vec::new()
            }
        };
        let stats = tailer.stats();
        obs::count(
            "sdcheckerd_read_bytes_total",
            stats.read_bytes.saturating_sub(stats_prev.read_bytes),
        );
        obs::count(
            "sd_tail_files_removed_total",
            stats.removed_files.saturating_sub(stats_prev.removed_files),
        );
        stats_prev = stats;
        let ops = tailer.ops();
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
        ops_prev = ops;
        phase.mark("tail");
        let n = batch.len() as u64;
        records += n;
        obs::count("sdcheckerd_records_total", n);
        for (src, rec) in &batch {
            if analyzer.ingest(*src, rec) == Outcome::Anomalous {
                if let Some(e) = engine.as_mut() {
                    e.observe_anomalous(rec.ts);
                }
            }
        }
        phase.mark("ingest");
        let retired = analyzer.drain_ready();
        note_retirements(&retired, quiet);
        record_retirements(&retired, &mut engine, &mut wide_file);
        obs::count(
            "sdcheckerd_late_events_total",
            analyzer.late_events().saturating_sub(late_prev),
        );
        late_prev = analyzer.late_events();
        if n > 0 || !retired.is_empty() {
            *shared
                .last_progress
                .lock()
                .unwrap_or_else(|e| e.into_inner()) = Instant::now();
        }
        phase.mark("retire");
        // One lag figure per iteration: the alert engine and every
        // published surface see the same number.
        let lag = tailer.lag();
        if let Some(e) = engine.as_mut() {
            e.set_live_lag(lag.bytes);
            if let Some(w) = analyzer.watermark() {
                let transitions = e.advance(w);
                note_transitions(&transitions, quiet);
            }
            publish_alerts(&shared, e);
        }
        phase.mark("alerts");
        if analyzer.exemplars().generation() != exemplar_gen {
            exemplar_gen = analyzer.exemplars().generation();
            publish_exemplars(&shared, &analyzer);
        }
        refresh(&shared, &lag, &tailer, &analyzer, polls, records, true);
        phase.mark("publish");
        // Crash safety: push every wide line written this tick out of
        // process buffers, then (if due) checkpoint the state that
        // accounts for exactly those bytes.
        if let Some(w) = wide_file.as_mut() {
            w.flush();
        }
        if let Some(store) = &ckpt_store {
            if last_ckpt_save.is_none_or(|t| t.elapsed() >= ckpt_interval) {
                save_checkpoint(
                    store,
                    &shared,
                    &tailer,
                    &analyzer,
                    engine.as_ref(),
                    &fingerprint,
                    wide_file.as_ref().map_or(0, |w| w.bytes),
                    &mut ckpt_writes,
                    recoveries,
                );
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
    if let Ok(batch) = tailer.poll() {
        records += batch.len() as u64;
        obs::count("sdcheckerd_records_total", batch.len() as u64);
        for (src, rec) in &batch {
            if analyzer.ingest(*src, rec) == Outcome::Anomalous {
                if let Some(e) = engine.as_mut() {
                    e.observe_anomalous(rec.ts);
                }
            }
        }
    }
    let tail_end = tailer.flush_partial();
    records += tail_end.len() as u64;
    obs::count("sdcheckerd_records_total", tail_end.len() as u64);
    for (src, rec) in &tail_end {
        if analyzer.ingest(*src, rec) == Outcome::Anomalous {
            if let Some(e) = engine.as_mut() {
                e.observe_anomalous(rec.ts);
            }
        }
    }
    let retired = analyzer.finish();
    note_retirements(&retired, quiet);
    record_retirements(&retired, &mut engine, &mut wide_file);
    if let Some(e) = engine.as_mut() {
        // Evaluate one interval past the final watermark so the samples
        // stamped by finish() get a tick, then resolve whatever is left
        // open — the transition log always ends at rest.
        let end = TsMs(
            analyzer
                .watermark()
                .map_or(0, |w| w.0)
                .saturating_add(ALERT_EVAL_MS),
        );
        e.set_live_lag(0);
        let mut transitions = e.advance(end);
        transitions.extend(e.close_out(end));
        note_transitions(&transitions, quiet);
        publish_alerts(&shared, e);
    }
    if analyzer.exemplars().generation() != exemplar_gen {
        publish_exemplars(&shared, &analyzer);
    }
    refresh(
        &shared,
        &tailer.lag(),
        &tailer,
        &analyzer,
        polls,
        records,
        true,
    );
    if let Some(p) = &alerts_out {
        if let Some(e) = &engine {
            if let Err(err) = write_atomic(p, e.alerts_json().as_bytes()) {
                eprintln!("cannot write alerts file {}: {err}", p.display());
                return ExitCode::FAILURE;
            }
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
        save_checkpoint(
            store,
            &shared,
            &tailer,
            &analyzer,
            engine.as_ref(),
            &fingerprint,
            wide_file.as_ref().map_or(0, |w| w.bytes),
            &mut ckpt_writes,
            recoveries,
        );
    }
    if let Some(p) = &final_report {
        let report = shared
            .report
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        if let Err(e) = write_atomic(p, report.as_bytes()) {
            eprintln!("cannot write final report {}: {e}", p.display());
            return ExitCode::FAILURE;
        }
        if !quiet {
            eprintln!("wrote final report to {}", p.display());
        }
    }
    SHUTDOWN.store(true, Ordering::SeqCst);
    let _ = http_thread.join();
    if !quiet {
        eprintln!(
            "sdcheckerd: {} polls, {} records, {} apps retired ({} truncated), \
             {} in flight at shutdown",
            polls,
            records,
            analyzer.retired(),
            analyzer.truncated(),
            analyzer.in_flight(),
        );
    }
    ExitCode::SUCCESS
}
