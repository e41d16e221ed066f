//! End-to-end tests of the `sdcheckerd` daemon: spawn the real binary on
//! an ephemeral port, talk to it over a raw `TcpStream` (no HTTP client
//! crate — the server is std-only and so is the test), and check the
//! full lifecycle: readiness, live retirement, the Prometheus and JSON
//! surfaces, and a clean SIGTERM shutdown with a flushed final report.

mod common;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use logmodel::{Epoch, LogStore};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sdcheckerd"))
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sdcheckerd_test_{name}_{}", std::process::id()))
}

/// Kill the daemon if a test panics before shutting it down.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// One blocking HTTP/1.1 GET. Returns (status, headers, body).
fn http_get(addr: &str, path: &str) -> (u16, String, Vec<u8>) {
    let mut s = TcpStream::connect(addr).unwrap();
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).unwrap();
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("no header/body separator");
    let head = String::from_utf8_lossy(&raw[..split]).into_owned();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("no status code")
        .parse()
        .unwrap();
    (status, head, raw[split + 4..].to_vec())
}

/// Poll `f` until it returns `Some`, failing after ~10 s.
fn wait_for<T>(what: &str, mut f: impl FnMut() -> Option<T>) -> T {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Some(v) = f() {
            return v;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn spawn_daemon(dir: &std::path::Path, extra: &[&str]) -> (Daemon, String) {
    let port_file = dir.join("port.txt");
    let child = bin()
        .arg(dir)
        .args(["--listen", "127.0.0.1:0", "--poll-ms", "50", "--quiet"])
        .args(["--port-file", port_file.to_str().unwrap()])
        .args(extra)
        .stdin(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let daemon = Daemon(child);
    let addr = wait_for("port file", || {
        std::fs::read_to_string(&port_file)
            .ok()
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
    });
    (daemon, addr)
}

/// Append one more task line — one event — to the log of `app`'s first
/// executor (container 2 of attempt 1).
#[cfg(unix)]
fn append_task_line(dir: &std::path::Path, app: logmodel::ApplicationId) {
    let executor = logmodel::LogSource::Executor(app.attempt(1).container(2));
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(dir.join(executor.rel_path()))
        .unwrap();
    f.write_all(
        b"2018-03-14 09:00:12,000 INFO  Executor: Got assigned task 1 in stage 0.0 (TID 1)\n",
    )
    .unwrap();
}

/// Every gauge family `/metrics` writes from the published snapshot,
/// whatever the flags.
const GAUGE_FAMILIES: [&str; 9] = [
    "sdcheckerd_apps_in_flight",
    "sdcheckerd_events_buffered",
    "sdcheckerd_tail_sources",
    "sdcheckerd_tail_lag_bytes",
    "sdcheckerd_tail_lag_ms",
    "sdcheckerd_uptime_seconds",
    "process_uptime_seconds",
    "sdcheckerd_exemplar_apps",
    "sdcheckerd_exemplar_events",
];

/// Whether a `/metrics` body carries a sample line of `family`.
fn has_series(text: &str, family: &str) -> bool {
    text.lines().any(|l| {
        l.strip_prefix(family)
            .is_some_and(|rest| rest.starts_with(' ') || rest.starts_with('{'))
    })
}

#[test]
fn serves_live_endpoints_and_retires_apps() {
    let dir = tmp("endpoints");
    let _ = std::fs::remove_dir_all(&dir);
    let mut logs = LogStore::new(Epoch::default_run());
    let (clean, _, _) = common::populate_faulty_fleet(&mut logs);
    logs.write_dir(&dir).unwrap();

    let final_report = dir.join("final.json");
    let (mut daemon, addr) = spawn_daemon(
        &dir,
        &[
            "--settle-ms",
            "0",
            "--idle-timeout-ms",
            "0",
            "--no-alerts",
            "--final-report",
            final_report.to_str().unwrap(),
        ],
    );

    // Readiness flips once the first poll lands.
    wait_for("readyz", || {
        let (status, _, _) = http_get(&addr, "/readyz");
        (status == 200).then_some(())
    });

    // The two apps with terminal evidence retire live; the truncated one
    // stays buffered (idle timeout off).
    let health = wait_for("live retirement", || {
        let (status, _, body) = http_get(&addr, "/healthz");
        assert_eq!(status, 200);
        let doc = obs::json::parse(&String::from_utf8_lossy(&body)).unwrap();
        let retired = doc.get("retired").unwrap().as_f64().unwrap();
        (retired == 2.0).then_some(doc)
    });
    let n = |k: &str| health.get(k).unwrap().as_f64().unwrap();
    assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(n("in_flight"), 1.0, "truncated app must stay buffered");
    assert!(n("records") > 0.0);
    assert!(n("polls") > 0.0);
    assert!(n("sources") > 0.0);
    assert_eq!(n("lag_bytes"), 0.0, "fully caught up");

    // Prometheus surface: conformant content type, HELP/TYPE per family.
    let (status, head, body) = http_get(&addr, "/metrics");
    assert_eq!(status, 200);
    assert!(
        head.to_ascii_lowercase()
            .contains("content-type: text/plain; version=0.0.4; charset=utf-8"),
        "{head}"
    );
    let text = String::from_utf8(body).unwrap();
    for family in [
        "sdcheckerd_polls_total",
        "sdcheckerd_records_total",
        "sdcheckerd_apps_retired_total",
        "sdcheckerd_apps_in_flight",
        "sdcheckerd_tail_lag_bytes",
        "sdcheckerd_uptime_seconds",
    ] {
        assert!(
            text.contains(&format!("# HELP {family} ")),
            "{family}: {text}"
        );
        assert!(
            text.contains(&format!("# TYPE {family} ")),
            "{family}: {text}"
        );
    }
    assert!(text.contains("sdcheckerd_apps_retired_total 2"), "{text}");
    assert!(text.contains("parse_lines_total{"), "{text}");
    // The whole gauge surface, and nothing from the features that are
    // off: no checkpoint directory, no alert rules.
    for family in GAUGE_FAMILIES {
        assert!(has_series(&text, family), "{family}: {text}");
    }
    assert!(text.contains("sdcheckerd_apps_in_flight 1\n"), "{text}");
    for family in [
        "sd_checkpoint_age_ms",
        "sd_checkpoint_bytes",
        "sd_alert_firing",
    ] {
        assert!(!has_series(&text, family), "{family}: {text}");
    }

    // Live report: the daemon schema, with fleet and tail sections.
    let (status, _, body) = http_get(&addr, "/report.json");
    assert_eq!(status, 200);
    let doc = obs::json::parse(&String::from_utf8_lossy(&body)).unwrap();
    assert_eq!(
        doc.get("schema").unwrap().as_str(),
        Some("sdcheckerd-report-v1")
    );
    let fleet = doc.get("fleet").unwrap();
    assert_eq!(fleet.get("retired").unwrap().as_f64(), Some(2.0));
    assert_eq!(fleet.get("in_flight").unwrap().as_f64(), Some(1.0));
    let tail = doc.get("tail").unwrap();
    assert!(tail.get("parsed_lines").unwrap().as_f64().unwrap() > 0.0);

    // Without rules `/alerts` is still the alerts document: the same
    // members an alerting daemon serves, over an empty rule table.
    let (status, _, body) = http_get(&addr, "/alerts");
    assert_eq!(status, 200);
    let doc = obs::json::parse(&String::from_utf8_lossy(&body)).expect("/alerts parses");
    let alerting = sdchecker::AlertEngine::new(sdchecker::default_rules(60_000), 1_000);
    let alerting = obs::json::parse(&alerting.alerts_json()).unwrap();
    let keys = |doc: &obs::json::Json| match doc {
        obs::json::Json::Obj(members) => members.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("not an object: {other:?}"),
    };
    let (served, expected): (Vec<String>, Vec<String>) = (keys(&doc), keys(&alerting));
    assert_eq!(served, expected);
    assert_eq!(
        doc.get("rules"),
        Some(&obs::json::Json::Obj(Vec::new())),
        "rules is an object, empty"
    );

    let (status, _, body) = http_get(&addr, "/buildinfo");
    assert_eq!(status, 200);
    let doc = obs::json::parse(&String::from_utf8_lossy(&body)).unwrap();
    assert_eq!(doc.get("name").unwrap().as_str(), Some("sdcheckerd"));

    let (status, _, _) = http_get(&addr, "/no-such-endpoint");
    assert_eq!(status, 404);

    // SIGTERM: clean exit, everything in flight force-retired, final
    // report flushed to disk. A line written to a retired application's
    // log right before the signal — a file the polls only look at on its
    // turn — is still read by the shutdown drain, which looks at
    // everything: it is in the report as a late event.
    #[cfg(unix)]
    {
        append_task_line(&dir, clean);
        let pid = daemon.0.id().to_string();
        assert!(Command::new("kill")
            .args(["-TERM", &pid])
            .status()
            .unwrap()
            .success());
        let status = daemon.0.wait().unwrap();
        assert!(status.success(), "SIGTERM must exit 0, got {status:?}");
        let text = std::fs::read_to_string(&final_report).unwrap();
        let doc = obs::json::parse(&text).expect("final report must be valid JSON");
        let fleet = doc.get("fleet").unwrap();
        assert_eq!(fleet.get("retired").unwrap().as_f64(), Some(3.0));
        assert_eq!(fleet.get("in_flight").unwrap().as_f64(), Some(0.0));
        assert_eq!(fleet.get("late_events").unwrap().as_f64(), Some(1.0));
        let outcomes = fleet.get("outcomes").unwrap();
        assert_eq!(outcomes.get("truncated").unwrap().as_f64(), Some(1.0));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn serves_alerts_exemplars_and_wide_events() {
    let dir = tmp("tailsurface");
    let _ = std::fs::remove_dir_all(&dir);
    let mut logs = LogStore::new(Epoch::default_run());
    let (clean, _, _) = common::populate_faulty_fleet(&mut logs);
    logs.write_dir(&dir).unwrap();

    let wide_out = dir.join("events.jsonl");
    let alerts_out = dir.join("alerts.json");
    let ckpt_dir = tmp("tailsurface_ckpt");
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let (mut daemon, addr) = spawn_daemon(
        &dir,
        &[
            "--settle-ms",
            "0",
            "--idle-timeout-ms",
            "0",
            "--slo-ms",
            "1",
            "--checkpoint-dir",
            ckpt_dir.to_str().unwrap(),
            "--wide-events-out",
            wide_out.to_str().unwrap(),
            "--alerts-out",
            alerts_out.to_str().unwrap(),
        ],
    );

    // Two apps retire live; their exemplars appear.
    wait_for("live retirement", || {
        let (status, _, body) = http_get(&addr, "/healthz");
        assert_eq!(status, 200);
        let doc = obs::json::parse(&String::from_utf8_lossy(&body)).unwrap();
        (doc.get("retired").unwrap().as_f64() == Some(2.0)).then_some(())
    });

    // /alerts: the rule table with per-rule states.
    let (status, _, body) = http_get(&addr, "/alerts");
    assert_eq!(status, 200);
    let doc = obs::json::parse(&String::from_utf8_lossy(&body)).unwrap();
    assert_eq!(
        doc.get("schema").unwrap().as_str(),
        Some("sdcheckerd-alerts-v1")
    );
    let body_text = String::from_utf8(body).unwrap();
    for rule in ["total_p99_slo", "total_burn_rate", "tail_lag"] {
        assert!(body_text.contains(rule), "{body_text}");
    }

    // /exemplars: every retired app of this tiny fleet is promoted, and
    // each promoted app serves an on-demand Perfetto trace.
    let (status, _, body) = http_get(&addr, "/exemplars");
    assert_eq!(status, 200);
    let index = String::from_utf8(body).unwrap();
    let doc = obs::json::parse(&index).unwrap();
    assert_eq!(
        doc.get("schema").unwrap().as_str(),
        Some("sdcheckerd-exemplars-v1")
    );
    let app = index
        .split('"')
        .find(|s| s.starts_with("application_"))
        .expect("at least one promoted app in the index")
        .to_string();
    let (status, _, body) = http_get(&addr, &format!("/exemplars/{app}/trace.json"));
    assert_eq!(status, 200);
    let trace = String::from_utf8(body).unwrap();
    assert!(trace.contains("traceEvents"), "{trace}");
    let (status, _, _) = http_get(&addr, "/exemplars/application_0_9999/trace.json");
    assert_eq!(status, 404);

    // Daemon self-metrics and alert gauges on /metrics. The retirements
    // above are published mid-iteration; the iteration's duration and its
    // checkpoint phase are recorded when it ends, after the first
    // checkpoint is on disk, which a slow fsync can put after this point.
    let text = wait_for("the first poll iteration to be recorded", || {
        let (_, _, body) = http_get(&addr, "/metrics");
        let text = String::from_utf8(body).unwrap();
        text.contains("# HELP sdcheckerd_poll_duration_ms ")
            .then_some(text)
    });
    for family in [
        "process_uptime_seconds",
        "sdcheckerd_poll_duration_ms",
        "sdcheckerd_poll_phase_ms",
        "sdcheckerd_http_requests_total",
        "sdcheckerd_exemplar_apps",
        "sd_alert_firing",
        "sd_tail_fs_ops_total",
        "sd_tail_read_errors_total",
        "sd_tail_oversize_lines_total",
    ] {
        assert!(text.contains(&format!("# HELP {family} ")), "{family}");
    }
    // Every loop iteration is split into the same six phases, and the
    // tailer's filesystem work is exposed as counts.
    for phase in [
        "tail",
        "ingest",
        "retire",
        "alerts",
        "publish",
        "checkpoint",
    ] {
        assert!(
            text.contains(&format!(
                "sdcheckerd_poll_phase_ms_count{{phase=\"{phase}\"}}"
            )),
            "{phase}: {text}"
        );
    }
    for op in ["stat", "listing", "open"] {
        assert!(
            text.contains(&format!("sd_tail_fs_ops_total{{op=\"{op}\"}}")),
            "{op}: {text}"
        );
    }
    assert!(text.contains("sd_tail_read_errors_total 0"), "{text}");
    assert!(text.contains("sd_tail_oversize_lines_total 0"), "{text}");
    assert!(
        text.contains("sd_alert_firing{rule=\"total_p99_slo\"}"),
        "{text}"
    );
    assert!(
        text.contains("sdcheckerd_http_requests_total{path=\"/alerts\"}"),
        "{text}"
    );
    // The whole gauge surface again, now with a series per alert rule
    // and the two checkpoint gauges.
    for family in GAUGE_FAMILIES {
        assert!(has_series(&text, family), "{family}: {text}");
    }
    for rule in ["total_p99_slo", "total_burn_rate", "tail_lag"] {
        assert!(
            text.contains(&format!("sd_alert_firing{{rule=\"{rule}\"}}")),
            "{rule}: {text}"
        );
    }
    for family in ["sd_checkpoint_age_ms", "sd_checkpoint_bytes"] {
        assert!(has_series(&text, family), "{family}: {text}");
    }

    // SIGTERM: the wide-events file ends with one line per retired app,
    // and the alerts file records a closed-out engine.
    #[cfg(unix)]
    {
        let pid = daemon.0.id().to_string();
        assert!(Command::new("kill")
            .args(["-TERM", &pid])
            .status()
            .unwrap()
            .success());
        let status = daemon.0.wait().unwrap();
        assert!(status.success(), "SIGTERM must exit 0, got {status:?}");
        let wide = std::fs::read_to_string(&wide_out).unwrap();
        assert_eq!(wide.lines().count(), 3, "one wide event per retirement");
        for line in wide.lines() {
            let doc = obs::json::parse(line).unwrap();
            assert_eq!(doc.get("schema").unwrap().as_str(), Some("wide-events-v1"));
        }
        let alerts = std::fs::read_to_string(&alerts_out).unwrap();
        let doc = obs::json::parse(&alerts).unwrap();
        assert_eq!(
            doc.get("schema").unwrap().as_str(),
            Some("sdcheckerd-alerts-v1")
        );
        assert!(
            !alerts.contains("\"state\": \"firing\""),
            "close_out must resolve every rule: {alerts}"
        );

        // While the daemon is down a retired application's log grows.
        // The restarted daemon has looked at nothing yet, so its first
        // poll — the only one it gets to make here — looks at every
        // restored file, this one included, whoever's turn it is.
        append_task_line(&dir, clean);
        std::fs::remove_file(dir.join("port.txt")).unwrap();
        let (_resumed, addr) = spawn_daemon(
            &dir,
            &[
                "--settle-ms",
                "0",
                "--idle-timeout-ms",
                "0",
                "--slo-ms",
                "1",
                "--checkpoint-dir",
                ckpt_dir.to_str().unwrap(),
                "--poll-ms",
                "60000",
            ],
        );
        let health = wait_for("the resumed daemon's first poll", || {
            let (_, _, body) = http_get(&addr, "/healthz");
            let doc = obs::json::parse(&String::from_utf8_lossy(&body)).unwrap();
            (doc.get("polls").unwrap().as_f64() == Some(1.0)).then_some(doc)
        });
        assert_eq!(health.get("retired").unwrap().as_f64(), Some(3.0));
        assert_eq!(health.get("late_events").unwrap().as_f64(), Some(1.0));
    }
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&ckpt_dir).unwrap();
}

/// A publish wakes the HTTP thread, but the 25 ms accept tick still
/// bounds how often it answers: a client asking for `/healthz` in a
/// tight loop for a second is answered about once per tick plus once
/// per poll (40 + 20 at `--poll-ms 50`), not as fast as it asks, as a
/// blocking accept would answer it.
#[test]
fn a_tight_loop_client_is_answered_at_the_tick_not_at_its_own_pace() {
    let dir = tmp("ratebound");
    let _ = std::fs::remove_dir_all(&dir);
    let mut logs = LogStore::new(Epoch::default_run());
    common::populate_faulty_fleet(&mut logs);
    logs.write_dir(&dir).unwrap();
    let (_daemon, addr) = spawn_daemon(&dir, &["--settle-ms", "0", "--no-alerts"]);
    wait_for("readyz", || {
        let (status, _, _) = http_get(&addr, "/readyz");
        (status == 200).then_some(())
    });

    let started = Instant::now();
    let mut answers = 0u64;
    let mut records = 0.0;
    while started.elapsed() < Duration::from_secs(1) {
        let (status, _, body) = http_get(&addr, "/healthz");
        assert_eq!(status, 200);
        let doc = obs::json::parse(&String::from_utf8_lossy(&body)).unwrap();
        let now = doc.get("records").unwrap().as_f64().unwrap();
        assert!(now >= records, "records went back from {records} to {now}");
        records = now;
        answers += 1;
    }
    let (_, _, body) = http_get(&addr, "/metrics");
    let text = String::from_utf8(body).unwrap();
    let served: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("sdcheckerd_http_requests_total{path=\"/healthz\"} "))
        .expect("a /healthz request counter")
        .parse()
        .unwrap();
    assert_eq!(served, answers);
    assert!(
        (5..200).contains(&served),
        "a tight loop was answered {served} times in a second"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn run_for_ms_bounds_the_daemon_lifetime() {
    let dir = tmp("runfor");
    let _ = std::fs::remove_dir_all(&dir);
    let mut logs = LogStore::new(Epoch::default_run());
    common::populate_faulty_fleet(&mut logs);
    logs.write_dir(&dir).unwrap();

    let final_report = dir.join("final.json");
    let (mut daemon, _addr) = spawn_daemon(
        &dir,
        &[
            "--run-for-ms",
            "400",
            "--settle-ms",
            "0",
            "--final-report",
            final_report.to_str().unwrap(),
        ],
    );
    let status = wait_for("self-timed exit", || daemon.0.try_wait().unwrap());
    assert!(status.success());
    let doc = obs::json::parse(&std::fs::read_to_string(&final_report).unwrap()).unwrap();
    assert_eq!(
        doc.get("fleet").unwrap().get("retired").unwrap().as_f64(),
        Some(3.0),
        "finish() must retire the whole fleet"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A wide-events file the disk cannot hold — `/dev/full`, where every
/// write fails with ENOSPC — is said once on stderr, its lost lines are
/// counted on `/metrics`, the checkpoint's wide-events cursor counts no
/// byte that was not written, and shutdown exits non-zero with the
/// final report written as ever.
#[cfg(unix)]
#[test]
fn a_full_disk_under_wide_events_is_said_counted_and_fails_the_run() {
    use sdchecker::checkpoint::{self, CfgFingerprint, CheckpointStore};
    let full = std::path::Path::new("/dev/full");
    if !full.exists() {
        return;
    }
    let dir = tmp("fulldisk");
    let _ = std::fs::remove_dir_all(&dir);
    let mut logs = LogStore::new(Epoch::default_run());
    common::populate_faulty_fleet(&mut logs);
    logs.write_dir(&dir).unwrap();
    let (ckpt, final_report) = (dir.join("ckpt"), dir.join("final.json"));
    let (mut daemon, addr) = spawn_daemon(
        &dir,
        &[
            "--settle-ms",
            "0",
            "--no-alerts",
            "--wide-events-out",
            full.to_str().unwrap(),
            "--checkpoint-dir",
            ckpt.to_str().unwrap(),
            "--final-report",
            final_report.to_str().unwrap(),
        ],
    );
    // The first poll retires the two finished applications; their
    // lines are the first the disk refuses.
    let metrics = wait_for("lost lines on /metrics", || {
        let (status, _, body) = http_get(&addr, "/metrics");
        let text = String::from_utf8_lossy(&body).into_owned();
        (status == 200 && has_series(&text, "sdcheckerd_wide_events_lost_total")).then_some(text)
    });
    assert!(metrics.contains("# HELP sdcheckerd_wide_events_lost_total Wide-events lines"));

    let pid = daemon.0.id().to_string();
    assert!(Command::new("kill")
        .args(["-TERM", &pid])
        .status()
        .unwrap()
        .success());
    let status = daemon.0.wait().unwrap();
    let mut stderr = String::new();
    daemon
        .0
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut stderr)
        .unwrap();
    assert_eq!(status.code(), Some(1), "{stderr}");
    assert_eq!(
        stderr
            .matches("cannot write wide-events file /dev/full")
            .count(),
        1,
        "{stderr}"
    );
    assert!(stderr.contains(": 3 wide-events lines lost"), "{stderr}");
    let doc = obs::json::parse(&std::fs::read_to_string(&final_report).unwrap()).unwrap();
    assert_eq!(
        doc.get("fleet").unwrap().get("retired").unwrap().as_f64(),
        Some(3.0)
    );
    let fingerprint = CfgFingerprint {
        settle_ms: 0,
        idle_timeout_ms: 60_000,
        exemplar_slots: 3,
        alerts: false,
        slo_ms: 60_000,
        eval_interval_ms: 1_000,
    };
    let store = CheckpointStore::open(&ckpt).unwrap();
    let (restored, warnings) = checkpoint::load(&store, &dir, &fingerprint, None);
    assert!(warnings.is_empty(), "{warnings:?}");
    assert_eq!(restored.expect("a checkpoint").wide_bytes, 0);

    // With stderr on the full disk too, the run still ends as a failure,
    // not a panic.
    let status = bin()
        .arg(&dir)
        .args(["--listen", "127.0.0.1:0", "--run-for-ms", "300", "--quiet"])
        .args(["--settle-ms", "0", "--no-alerts", "--wide-events-out"])
        .arg(full)
        .stderr(std::fs::File::create(full).unwrap())
        .status()
        .unwrap();
    assert_eq!(status.code(), Some(1));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn help_exits_zero() {
    let out = bin().arg("--help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage: sdcheckerd"));
}

#[test]
fn rejects_bad_usage() {
    for (args, names) in [
        (&[][..], "<watch-dir>"),
        (&["dir", "--bogus"], "--bogus"),
        // A flag where the watch directory should be.
        (&["--quiet"], "--quiet"),
        (&["dir", "--poll-ms"], "--poll-ms"),
        (&["dir", "--poll-ms", "soon"], "--poll-ms"),
        (&["dir", "--poll-ms", "0"], "--poll-ms"),
        (&["dir", "--settle-ms", "-3"], "--settle-ms"),
        (&["dir", "--slo-ms", "0"], "--slo-ms"),
        (&["dir", "--exemplar-slots", "few"], "--exemplar-slots"),
        (&["dir", "--resume"], "--resume"),
    ] {
        let out = bin().args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        let first = stderr.lines().next().unwrap_or_default();
        assert!(first.contains(names), "{args:?}: {first}");
    }
}

#[test]
fn missing_watch_directory_fails_fast() {
    let out = bin()
        .args(["/nonexistent/definitely/missing", "--listen", "127.0.0.1:0"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "must fail, not hang");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot tail"), "{err}");
    assert!(err.contains("does not exist"), "{err}");
}
