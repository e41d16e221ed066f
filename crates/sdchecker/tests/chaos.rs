//! Crash-only acceptance: SIGKILL the real `sdcheckerd` binary at random
//! points of a live streaming run — including mid-checkpoint and with
//! scripted checkpoint corruption — restart it, and require the final
//! report, the wide-events JSONL and the alert transition log to come out
//! **byte-identical** to a run that was never killed.
//!
//! The corpus is streamed in global timestamp order (the arrival order a
//! real cluster produces), so with a settle window every retirement, wide
//! line and alert tick is a pure function of the corpus — only the
//! report's `"polls"` count depends on wall-clock cadence and is
//! normalized before comparison.

mod common;

use std::fs;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use logmodel::{Epoch, LogStore};
use simkit::SimRng;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sdcheckerd"))
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sdcheckerd_chaos_{name}_{}", std::process::id()))
}

/// Kill the daemon if a test panics before shutting it down.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// One blocking HTTP/1.1 GET. Returns (status, body).
fn http_get(addr: &str, path: &str) -> (u16, Vec<u8>) {
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
    (status, raw[split + 4..].to_vec())
}

/// Poll `f` until it returns `Some`, failing after ~10 s.
fn wait_for<T>(what: &str, mut f: impl FnMut() -> Option<T>) -> T {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Some(v) = f() {
            return v;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn get_json(addr: &str, path: &str) -> obs::json::Json {
    let (status, body) = http_get(addr, path);
    assert_eq!(status, 200, "{path}");
    obs::json::parse(&String::from_utf8_lossy(&body)).unwrap()
}

/// The directory layout of one daemon run: logs to watch, a checkpoint
/// directory, and the three output files the byte-equality check covers.
struct Layout {
    base: PathBuf,
    logs: PathBuf,
    ckpt: PathBuf,
    port: PathBuf,
    final_json: PathBuf,
    wide: PathBuf,
    alerts: PathBuf,
}

impl Layout {
    fn new(name: &str) -> Layout {
        let base = tmp(name);
        let _ = fs::remove_dir_all(&base);
        let logs = base.join("logs");
        fs::create_dir_all(&logs).unwrap();
        Layout {
            logs,
            ckpt: base.join("ckpt"),
            port: base.join("port.txt"),
            final_json: base.join("final.json"),
            wide: base.join("wide.jsonl"),
            alerts: base.join("alerts.json"),
            base,
        }
    }
}

fn spawn(l: &Layout) -> (Daemon, String) {
    let _ = fs::remove_file(&l.port);
    let child = bin()
        .arg(&l.logs)
        .args(["--listen", "127.0.0.1:0", "--poll-ms", "25", "--quiet"])
        .args(["--port-file", l.port.to_str().unwrap()])
        .args(["--settle-ms", "1000", "--idle-timeout-ms", "0"])
        .args(["--slo-ms", "1"])
        .args(["--checkpoint-dir", l.ckpt.to_str().unwrap()])
        .args(["--checkpoint-interval-ms", "25"])
        .args(["--wide-events-out", l.wide.to_str().unwrap()])
        .args(["--alerts-out", l.alerts.to_str().unwrap()])
        .args(["--final-report", l.final_json.to_str().unwrap()])
        .stdin(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let daemon = Daemon(child);
    let addr = wait_for("port file", || {
        fs::read_to_string(&l.port)
            .ok()
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
    });
    wait_for("readyz", || {
        let (status, _) = http_get(&addr, "/readyz");
        (status == 200).then_some(())
    });
    (daemon, addr)
}

/// The corpus as the cluster would emit it: every rendered line tagged
/// with its target file, merged across sources in global timestamp order
/// (per-source order preserved).
fn merged_lines(l: &Layout) -> Vec<(PathBuf, String)> {
    let mut logs = LogStore::new(Epoch::default_run());
    common::populate_faulty_fleet(&mut logs);
    fs::write(
        l.logs.join("epoch.txt"),
        format!("{}\n", logs.epoch().unix_ms),
    )
    .unwrap();
    struct Stream {
        path: PathBuf,
        lines: Vec<(u64, String)>,
        pos: usize,
    }
    let mut streams: Vec<Stream> = logs
        .sources()
        .map(|src| {
            let path = l.logs.join(src.rel_path());
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            fs::write(&path, b"").unwrap();
            let lines: Vec<(u64, String)> = logs
                .records(src)
                .iter()
                .zip(logs.text(src).lines())
                .map(|(rec, line)| (rec.ts.0, line.to_string()))
                .collect();
            assert_eq!(lines.len(), logs.records(src).iter().count());
            Stream {
                path,
                lines,
                pos: 0,
            }
        })
        .collect();
    let mut merged = Vec::new();
    loop {
        let next = streams
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.lines.get(s.pos).map(|(ts, _)| (*ts, i)))
            .min();
        let Some((_, i)) = next else { break };
        let s = &mut streams[i];
        merged.push((s.path.clone(), s.lines[s.pos].1.clone()));
        s.pos += 1;
    }
    merged
}

fn append(path: &Path, bytes: &[u8]) {
    let mut f = fs::OpenOptions::new().append(true).open(path).unwrap();
    f.write_all(bytes).unwrap();
}

/// What to do to the checkpoint directory while the daemon is dead.
#[derive(Clone, Copy, PartialEq)]
enum Corruption {
    /// Leave the files exactly as the SIGKILL left them.
    None,
    /// Torn write: chop the current generation mid-file.
    Torn,
    /// Stale garbage where the current generation should be.
    Garbage,
}

fn kill_and_restart(
    l: &Layout,
    daemon: &mut Daemon,
    addr: &mut String,
    rng: &mut SimRng,
    corruption: Corruption,
    restarts_so_far: u64,
) {
    // Make sure a previous generation exists before we sabotage the
    // current one, then kill at a random offset into the poll/checkpoint
    // cadence so some kills land mid-write.
    wait_for("two checkpoint generations", || {
        let doc = get_json(addr, "/checkpointz");
        (doc.get("writes_total").unwrap().as_f64().unwrap() >= 2.0).then_some(())
    });
    std::thread::sleep(Duration::from_millis(rng.below(40)));
    daemon.0.kill().unwrap();
    daemon.0.wait().unwrap();

    let current = l.ckpt.join("checkpoint-v2");
    match corruption {
        Corruption::None => {}
        Corruption::Torn => {
            // The SIGKILL may itself have landed between the two renames
            // of the write protocol, leaving no current generation at all
            // — that is the same fall-back-to-previous scenario this
            // branch seeds, so only truncate when the file exists.
            if let Ok(bytes) = fs::read(&current) {
                fs::write(&current, &bytes[..bytes.len() * 3 / 5]).unwrap();
            }
        }
        Corruption::Garbage => {
            fs::write(&current, b"not a checkpoint at all\n").unwrap();
        }
    }

    let (fresh, fresh_addr) = spawn(l);
    *daemon = fresh;
    *addr = fresh_addr;
    let doc = get_json(addr, "/checkpointz");
    assert_eq!(doc.get("resumed"), Some(&obs::json::Json::Bool(true)));
    assert_eq!(
        doc.get("recoveries_total").unwrap().as_f64(),
        Some((restarts_so_far + 1) as f64),
        "every restart must count"
    );
    if corruption != Corruption::None {
        // The damaged current generation must have been skipped (with a
        // warning, not a panic) in favor of the previous one.
        assert_eq!(
            doc.get("generation").unwrap().as_str(),
            Some("previous"),
            "damaged current generation must fall back"
        );
    }
}

/// Stream the corpus into the watch directory in seeded bursts,
/// SIGKILL-ing and restarting the daemon at the pre-drawn kill points.
/// Returns the three output files after a clean SIGTERM.
fn run(l: &Layout, seed: u64, corruption: Corruption) -> (String, String, String) {
    let lines = merged_lines(l);
    let mut rng = SimRng::new(0xDEADu64.wrapping_add(seed));
    // Two kill points somewhere in the middle three-fifths of the stream.
    let kills: Vec<usize> = if corruption == Corruption::None && seed == u64::MAX {
        Vec::new() // baseline: never killed
    } else {
        let lo = lines.len() / 5;
        let hi = lines.len() * 4 / 5;
        let a = lo + rng.below((hi - lo) as u64) as usize;
        let b = lo + rng.below((hi - lo) as u64) as usize;
        let mut v = vec![a.min(b), a.max(b).max(a.min(b) + 1)];
        v.dedup();
        v
    };

    let (mut daemon, mut addr) = spawn(l);
    let mut restarts = 0u64;
    for (i, (path, line)) in lines.iter().enumerate() {
        if kills.contains(&i) {
            // Only the first kill of a corruption run damages the store;
            // the second exercises the repaired current generation.
            let c = if restarts == 0 {
                corruption
            } else {
                Corruption::None
            };
            kill_and_restart(l, &mut daemon, &mut addr, &mut rng, c, restarts);
            restarts += 1;
        }
        if rng.below(6) == 0 && line.len() > 2 {
            // Occasionally deliver a line torn in half so held-back
            // partial bytes are part of the checkpointed state.
            let cut = 1 + rng.below(line.len() as u64 - 1) as usize;
            append(path, line.as_bytes()[..cut].as_ref());
            std::thread::sleep(Duration::from_millis(5));
            append(path, line.as_bytes()[cut..].as_ref());
            append(path, b"\n");
        } else {
            append(path, format!("{line}\n").as_bytes());
        }
        if rng.below(3) == 0 {
            std::thread::sleep(Duration::from_millis(rng.below(12)));
        }
    }
    assert_eq!(restarts as usize, kills.len());

    // Quiesce: two apps retire on log-time evidence, the truncated third
    // stays in flight until the SIGTERM drain.
    wait_for("stream fully consumed", || {
        let doc = get_json(&addr, "/healthz");
        let n = |k: &str| doc.get(k).unwrap().as_f64().unwrap();
        (n("retired") == 2.0 && n("in_flight") == 1.0 && n("lag_bytes") == 0.0).then_some(())
    });
    if restarts > 0 {
        let (_, body) = http_get(&addr, "/metrics");
        let text = String::from_utf8_lossy(&body).into_owned();
        let line = text
            .lines()
            .find(|ln| ln.starts_with("sd_checkpoint_recoveries_total "))
            .expect("recoveries counter exported");
        assert_eq!(line, format!("sd_checkpoint_recoveries_total {restarts}"));
    }

    let pid = daemon.0.id().to_string();
    Command::new("kill").args(["-TERM", &pid]).status().unwrap();
    let status = daemon.0.wait().unwrap();
    assert!(status.success(), "clean shutdown after {restarts} restarts");

    (
        fs::read_to_string(&l.final_json).unwrap(),
        fs::read_to_string(&l.wide).unwrap(),
        fs::read_to_string(&l.alerts).unwrap(),
    )
}

/// Blank out the one wall-clock-cadence field in the report: the tail
/// section's poll count.
fn normalize_polls(report: &str) -> String {
    let key = "\"polls\": ";
    let Some(at) = report.find(key) else {
        panic!("report has no polls field");
    };
    let digits = report[at + key.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .count();
    assert!(digits > 0);
    let mut out = report[..at + key.len()].to_string();
    out.push('N');
    out.push_str(&report[at + key.len() + digits..]);
    out
}

#[test]
fn killed_and_restarted_run_matches_uninterrupted_run_byte_for_byte() {
    let gold_layout = Layout::new("gold");
    let (gold_report, gold_wide, gold_alerts) = run(&gold_layout, u64::MAX, Corruption::None);
    let gold_report = normalize_polls(&gold_report);

    // Exactly-once retirement in the gold run itself: three apps, three
    // wide lines, no duplicates.
    let lines: Vec<&str> = gold_wide.lines().collect();
    assert_eq!(lines.len(), 3);
    let mut dedup = lines.clone();
    dedup.sort_unstable();
    dedup.dedup();
    assert_eq!(dedup.len(), 3, "duplicate wide events");

    for seed in 0u64..5 {
        let corruption = match seed {
            1 => Corruption::Torn,
            3 => Corruption::Garbage,
            _ => Corruption::None,
        };
        let l = Layout::new(&format!("seed{seed}"));
        let (report, wide, alerts) = run(&l, seed, corruption);
        assert_eq!(
            normalize_polls(&report),
            gold_report,
            "seed {seed}: final report differs from the never-killed run"
        );
        assert_eq!(
            wide, gold_wide,
            "seed {seed}: wide events lost, duplicated or reordered"
        );
        assert_eq!(
            alerts, gold_alerts,
            "seed {seed}: alert transition log differs"
        );
        let _ = fs::remove_dir_all(&l.base);
    }
    let _ = fs::remove_dir_all(&gold_layout.base);
}

#[test]
fn resume_flag_requires_a_checkpoint_dir() {
    let out = bin()
        .arg(std::env::temp_dir())
        .args(["--resume"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--resume requires --checkpoint-dir"), "{err}");
}
