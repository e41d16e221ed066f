//! The four end-to-end workloads. Each drives the release binaries users
//! run from outside, checks what they produce, and reports the same seven
//! metrics.

use std::collections::BTreeMap;
use std::fs;
use std::io::Write as _;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use logmodel::{LogSource, Parallelism};
use obs::json::{self, Json};
use sdchecker::{analyze_dir_with, analyze_store_with};
use simkit::SimRng;

use crate::check::{self, Reference};
use crate::corpus::{ms_since, simulate_tpch, Corpus, Line, Simulated};
use crate::proc::{http_get, read_port_file, sibling_binary, Proc, Scratch, Usage};
use crate::stats::{median, percentile, tail, tail_rank};

/// One workload: its name in `BENCHMARK.json`, the corpus it reads, the
/// fixed latency limit `within_limit` is measured against (2.5× the first
/// p50 measured for it, two significant digits, then frozen) and the
/// function that runs it.
pub struct Workload {
    /// The name, as `BENCHMARK.json` has it.
    pub name: &'static str,
    /// Which corpus it reads.
    pub corpus: CorpusKind,
    limit_ms: f64,
    run: fn(&Workload, &Config, &Scratch) -> Result<Outcome, String>,
}

/// The workloads, in the order of `BENCHMARK.json`.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "batch_tpch",
        corpus: CorpusKind::Tpch,
        limit_ms: 930.0,
        run: batch,
    },
    Workload {
        name: "batch_noisy",
        corpus: CorpusKind::Noisy,
        limit_ms: 750.0,
        run: batch,
    },
    Workload {
        name: "stream_paced_tpch",
        corpus: CorpusKind::Tpch,
        limit_ms: 360.0,
        run: paced,
    },
    Workload {
        name: "stream_backlog_noisy",
        corpus: CorpusKind::Noisy,
        limit_ms: 880.0,
        run: backlog,
    },
];

impl Workload {
    /// The workload called `name`.
    pub fn named(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Run the workload end to end.
    pub fn run(&self, cfg: &Config) -> Result<Outcome, String> {
        let scratch = Scratch::new().map_err(|e| format!("scratch directory: {e}"))?;
        (self.run)(self, cfg, &scratch)
    }
}

/// The end-to-end metrics every workload reports, with units, in the
/// order of `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_mb_per_s", "MB/s"),
    ("visible_ms_p25", "ms"),
    ("within_limit", "ratio"),
    ("cpu_s_per_gb", "s/GB"),
    ("peak_rss_mb", "MB"),
];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// The quantile the judged timing metrics are read at. On the shared
/// sandbox this was written on, interference only adds time and comes in
/// bursts: during one the median of an operation rises by 20 to 28 %, its
/// lower quartile by 8 to 12 % (README, "How the bounds were earned"), so
/// the lower quartile is the steadier estimate of what the program costs.
/// Median and tail are printed beside it, for people.
const STEADY_QUANTILE: f64 = 0.25;
/// Cap of the tail percentile of closed-loop repetitions.
const REP_TAIL_CAP: f64 = 0.75;
/// Cap of the tail percentile of paced probes.
pub const PROBE_TAIL_CAP: f64 = 0.95;
/// A probe or a backlog drain not visible after this long has failed.
const VISIBLE_TIMEOUT: Duration = Duration::from_secs(5);
/// Mean gap between the paced appender's ticks (exponential gaps, so the
/// ticks never phase-lock with the daemon's poll).
const TICK_MEAN_MS: f64 = 20.0;
/// The daemon's poll cadence in both stream workloads.
const POLL_MS: &str = "50";

/// What a run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Seed of every generated input.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Tiny corpora, for the smoke test.
    pub quick: bool,
}

/// Which corpus a workload reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorpusKind {
    /// 2000 TPC-H apps: 99 % of lines match an extraction rule.
    Tpch,
    /// 500 TPC-H apps with nine noise lines after every real line.
    Noisy,
}

impl CorpusKind {
    fn apps(self, quick: bool) -> usize {
        match (self, quick) {
            (CorpusKind::Tpch, false) => 2000,
            (CorpusKind::Noisy, false) => 500,
            (CorpusKind::Tpch, true) => 50,
            (CorpusKind::Noisy, true) => 25,
        }
    }
}

/// The result of one run of one workload.
pub struct Outcome {
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations attempted (repetitions or probes).
    pub attempted: u64,
    /// Operations that failed: non-zero exit, output differing from the
    /// reference, HTTP error, not visible within [`VISIBLE_TIMEOUT`].
    pub failed: u64,
    /// Metric values by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable remarks for standard error (sample counts, the
    /// first failure, harness honesty figures).
    pub notes: Vec<String>,
}

/// A generated corpus with its ground truth.
pub struct Prepared {
    /// The simulator's output and job summaries.
    pub sim: Simulated,
    /// The rendered corpus (with noise for [`CorpusKind::Noisy`]).
    pub corpus: Corpus,
    /// Wall time of noise generation, ms (0 without noise).
    pub noise_ms: f64,
}

/// Generate the corpus of `kind` from the seed: simulate, render, add
/// noise.
pub fn prepare(kind: CorpusKind, cfg: &Config) -> Prepared {
    let sim = simulate_tpch(kind.apps(cfg.quick), cfg.seed);
    let (corpus, noise_ms) = match kind {
        CorpusKind::Tpch => (Corpus::clean(&sim.store), 0.0),
        CorpusKind::Noisy => {
            let t0 = Instant::now();
            (Corpus::noisy(&sim.store, cfg.seed), ms_since(t0))
        }
    };
    Prepared {
        sim,
        corpus,
        noise_ms,
    }
}

/// Set up [`SETUP_REPS`] times and return the last set-up with the median
/// of the seconds each reported. Each set-up is dropped before the next
/// begins, so two never share a directory or a daemon.
fn median_setup<T>(
    mut set_up: impl FnMut() -> Result<(T, f64), String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let (built, seconds) = set_up()?;
        last = Some(built);
        times.push(seconds);
    }
    Ok((last.expect("SETUP_REPS > 0"), median(&times)))
}

/// Generate the corpus [`SETUP_REPS`] times (that is `setup_s`) and write
/// it to `<scratch>/corpus` once. Writing is not part of `setup_s`: it is
/// this harness's own I/O, which no later change to the repository can
/// move work into, and on the sandbox this was written on its cost (file
/// creation) drifted tenfold within an hour; it is timed for the record.
fn corpus_on_disk(kind: CorpusKind, cfg: &Config, scratch: &Scratch) -> Result<OnDisk, String> {
    let (prepared, setup_s) = median_setup(|| {
        let t0 = Instant::now();
        let prepared = prepare(kind, cfg);
        Ok((prepared, t0.elapsed().as_secs_f64()))
    })?;
    let dir = scratch.path("corpus");
    let t0 = Instant::now();
    prepared
        .corpus
        .write_dir(&dir)
        .map_err(|e| format!("writing the corpus: {e}"))?;
    Ok(OnDisk {
        prepared,
        dir,
        setup_s,
        write_s: t0.elapsed().as_secs_f64(),
    })
}

/// A corpus generated and written for a closed-loop workload.
struct OnDisk {
    prepared: Prepared,
    dir: PathBuf,
    /// Median seconds of generating it.
    setup_s: f64,
    /// Seconds writing it took.
    write_s: f64,
}

/// One timed operation of a closed-loop workload.
struct Rep {
    /// Spawn → complete visible result, ms.
    visible_ms: f64,
    usage: Usage,
    /// Why the operation failed, if it did.
    failure: Option<String>,
}

/// Repeat `op` for `seconds` (at least twice) after one untimed warm-up
/// whose failure is fatal: nothing that follows could be right.
fn closed_loop(
    seconds: f64,
    mut op: impl FnMut() -> Result<Rep, String>,
) -> Result<Vec<Rep>, String> {
    let warm = op()?;
    if let Some(why) = warm.failure {
        return Err(format!("warm-up operation failed: {why}"));
    }
    let started = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < 2 || started.elapsed().as_secs_f64() < seconds {
        reps.push(op()?);
    }
    Ok(reps)
}

/// The time-to-visible distribution as people read it: lower quartile,
/// median, and the highest percentile (up to `cap`) with at least ten
/// samples beyond it.
pub fn distribution_note(ms: &[f64], cap: f64) -> String {
    format!(
        "visible ms over {} samples: p25 {:.1}, p50 {:.1}, tail (p{:.0}) {:.1}",
        ms.len(),
        percentile(ms, STEADY_QUANTILE),
        median(ms),
        100.0 * tail_rank(ms.len(), cap) as f64 / ms.len() as f64,
        tail(ms, cap),
    )
}

/// Turn a closed loop's repetitions into the outcome's metrics.
fn closed_loop_outcome(workload: &Workload, on_disk: &OnDisk, reps: &[Rep]) -> Outcome {
    let OnDisk {
        setup_s, write_s, ..
    } = *on_disk;
    let bytes = on_disk.prepared.corpus.bytes();
    let ms: Vec<f64> = reps.iter().map(|r| r.visible_ms).collect();
    let cpu: Vec<f64> = reps.iter().map(|r| r.usage.cpu_s).collect();
    let rss: Vec<f64> = reps.iter().map(|r| r.usage.max_rss_mb).collect();
    let sys: f64 = reps.iter().map(|r| r.usage.sys_s).sum();
    let failed = reps.iter().filter(|r| r.failure.is_some()).count();
    let limit = workload.limit_ms;
    let within = reps
        .iter()
        .filter(|r| r.failure.is_none() && r.visible_ms <= limit)
        .count();
    let p25 = percentile(&ms, STEADY_QUANTILE);
    let mut notes = vec![
        format!(
            "{} repetitions after one warm-up; corpus {:.1} MB written in {write_s:.2} s (not in setup_s); limit {limit} ms; system time {:.0} % of CPU",
            reps.len(),
            bytes as f64 / 1e6,
            100.0 * sys / cpu.iter().sum::<f64>(),
        ),
        distribution_note(&ms, REP_TAIL_CAP),
    ];
    if let Some(why) = reps.iter().find_map(|r| r.failure.as_ref()) {
        notes.push(format!("first failure: {why}"));
    }
    Outcome {
        correct: failed == 0,
        attempted: reps.len() as u64,
        failed: failed as u64,
        metrics: vec![
            ("setup_s", setup_s),
            ("throughput_mb_per_s", bytes as f64 / 1e6 / (p25 / 1e3)),
            ("visible_ms_p25", p25),
            ("within_limit", within as f64 / reps.len() as f64),
            (
                "cpu_s_per_gb",
                percentile(&cpu, STEADY_QUANTILE) / (bytes as f64 / 1e9),
            ),
            ("peak_rss_mb", median(&rss)),
        ],
        notes,
    }
}

/// `batch_tpch` / `batch_noisy`: closed loop, one client, `sdchecker` over
/// a finished corpus with all three renderers on.
fn batch(workload: &Workload, cfg: &Config, scratch: &Scratch) -> Result<Outcome, String> {
    let sdchecker = sibling_binary("sdchecker").map_err(|e| e.to_string())?;
    let on_disk = corpus_on_disk(workload.corpus, cfg, scratch)?;
    let (dir, sim) = (&on_disk.dir, &on_disk.prepared.sim);
    let analysis = analyze_dir_with(dir, Parallelism::ONE).map_err(|e| e.to_string())?;
    check::against_ground_truth(&analysis, &sim.jobs)?;
    if workload.corpus == CorpusKind::Noisy {
        let clean = analyze_store_with(&sim.store, Parallelism::ONE);
        check::same_per_app(&analysis, &clean)?;
    }
    let reference = Reference::of(&analysis);
    drop(analysis);

    let (stdout, report, wide) = (
        scratch.path("report.txt"),
        scratch.path("report.json"),
        scratch.path("wide.jsonl"),
    );
    let reps = closed_loop(cfg.seconds, || {
        for p in [&stdout, &report, &wide] {
            let _ = fs::remove_file(p);
        }
        let out = fs::File::create(&stdout).map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let usage = Proc::spawn(
            Command::new(&sdchecker)
                .arg(dir)
                .arg("--quiet")
                .arg("--report-json")
                .arg(&report)
                .arg("--wide-events-out")
                .arg(&wide)
                .stdout(out),
        )
        .and_then(Proc::wait)
        .map_err(|e| format!("running sdchecker: {e}"))?;
        let visible_ms = ms_since(t0);
        let failure = if usage.success {
            check::batch_outputs(&stdout, &report, &wide, &reference).err()
        } else {
            Some("sdchecker exited with a failure status".to_string())
        };
        Ok(Rep {
            visible_ms,
            usage,
            failure,
        })
    })?;
    Ok(closed_loop_outcome(workload, &on_disk, &reps))
}

/// How a daemon's directory will be fed.
#[derive(Debug, Clone, Copy)]
pub enum Feed {
    /// The corpus is complete before the daemon starts: default flags, no
    /// checkpointing.
    Finished,
    /// Lines are appended while the daemon runs, log time passing
    /// `compression` times faster than the clock: checkpointing on, and
    /// the two retirement windows, which the daemon counts in log time,
    /// kept at their default lengths in clock time. The settle window
    /// (2 s) scales with the compression; unscaled it would be 2.4 ms of a
    /// 12-second replay, shorter than one poll, and apps would retire
    /// before lines written during that poll were read. The idle timeout
    /// (60 s) is longer than any run, so it is off.
    Live {
        /// Log milliseconds per clock millisecond.
        compression: f64,
    },
}

/// The daemon's default settle window, which [`Feed::Live`] keeps in clock
/// time.
const SETTLE_WALL_MS: f64 = 2000.0;

/// A running `sdcheckerd` and where it listens.
pub struct Daemon {
    proc: Proc,
    /// The address from its `--port-file`.
    pub addr: SocketAddr,
    /// Its `--wide-events-out` file.
    pub wide: PathBuf,
    spawned: Instant,
}

impl Daemon {
    /// Start `sdcheckerd --poll-ms 50` on `dir`, on an ephemeral port,
    /// with alerts, exemplars and wide events on; its files go under
    /// `state`. Returns once the daemon has published its address.
    pub fn spawn(dir: &Path, state: &Path, feed: Feed) -> Result<Daemon, String> {
        let bin = sibling_binary("sdcheckerd").map_err(|e| e.to_string())?;
        let _ = fs::remove_dir_all(state);
        fs::create_dir_all(state).map_err(|e| e.to_string())?;
        let port_file = state.join("port.txt");
        let wide = state.join("wide.jsonl");
        let mut cmd = Command::new(bin);
        cmd.arg(dir)
            .args(["--listen", "127.0.0.1:0", "--poll-ms", POLL_MS, "--quiet"])
            .arg("--port-file")
            .arg(&port_file)
            .arg("--wide-events-out")
            .arg(&wide)
            .stdout(Stdio::null());
        if let Feed::Live { compression } = feed {
            cmd.arg("--checkpoint-dir")
                .arg(state.join("checkpoints"))
                .arg("--settle-ms")
                .arg(format!("{:.0}", SETTLE_WALL_MS * compression))
                .args(["--idle-timeout-ms", "0"]);
        }
        let spawned = Instant::now();
        let proc = Proc::spawn(&mut cmd).map_err(|e| format!("starting sdcheckerd: {e}"))?;
        let addr = read_port_file(&port_file).map_err(|e| e.to_string())?;
        Ok(Daemon {
            proc,
            addr,
            wide,
            spawned,
        })
    }

    /// `GET /healthz`, parsed.
    pub fn healthz(&self) -> Result<Json, String> {
        let (status, body) = http_get(&self.addr, "/healthz").map_err(|e| e.to_string())?;
        if status != 200 {
            return Err(format!("/healthz answered {status}"));
        }
        json::parse(&String::from_utf8_lossy(&body))
    }

    /// Poll until `reached` says so; returns the time since spawn, ms.
    fn wait_for(
        &self,
        what: &str,
        mut reached: impl FnMut() -> Result<bool, String>,
    ) -> Result<f64, String> {
        loop {
            if reached()? {
                return Ok(ms_since(self.spawned));
            }
            if self.spawned.elapsed() > VISIBLE_TIMEOUT {
                return Err(format!(
                    "{what}: not within {VISIBLE_TIMEOUT:?} of the daemon's start"
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Wait until `/healthz.records` reaches `want`.
    pub fn wait_records(&self, want: u64) -> Result<f64, String> {
        self.wait_for(&format!("{want} records visible"), || {
            Ok(health_field(&self.healthz()?, "records") >= want)
        })
    }

    /// Wait until `/readyz` answers 200.
    pub fn wait_ready(&self) -> Result<f64, String> {
        self.wait_for("/readyz 200", || {
            let (status, _) = http_get(&self.addr, "/readyz").map_err(|e| e.to_string())?;
            Ok(status == 200)
        })
    }

    /// SIGTERM the daemon and reap it.
    pub fn stop(self) -> Result<Stopped, String> {
        let t0 = Instant::now();
        let usage = self.proc.terminate().map_err(|e| e.to_string())?;
        Ok(Stopped {
            usage,
            lifetime_s: self.spawned.elapsed().as_secs_f64(),
            drain_ms: ms_since(t0),
        })
    }
}

/// What a stopped daemon cost.
pub struct Stopped {
    /// Its CPU time and peak RSS.
    pub usage: Usage,
    /// Spawn → reaped, s.
    pub lifetime_s: f64,
    /// SIGTERM → reaped (the shutdown drain), ms.
    pub drain_ms: f64,
}

/// A numeric field of a `/healthz` document (0 when absent).
pub fn health_field(doc: &Json, key: &str) -> u64 {
    doc.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64
}

/// `stream_backlog_noisy`: closed loop; each repetition restarts the
/// daemon on the complete noisy corpus — a restart after an outage — and
/// times spawn → every record visible. No checkpointing, no pacing.
fn backlog(workload: &Workload, cfg: &Config, scratch: &Scratch) -> Result<Outcome, String> {
    let on_disk = corpus_on_disk(workload.corpus, cfg, scratch)?;
    let (dir, prepared) = (&on_disk.dir, &on_disk.prepared);
    let analysis = analyze_dir_with(dir, Parallelism::ONE).map_err(|e| e.to_string())?;
    check::against_ground_truth(&analysis, &prepared.sim.jobs)?;
    let reference = check::wide_by_app(&Reference::of(&analysis).wide)?;
    drop(analysis);
    let records = prepared.corpus.records();
    let state = scratch.path("daemon");

    let reps = closed_loop(cfg.seconds, || {
        let daemon = Daemon::spawn(dir, &state, Feed::Finished)?;
        let wide = daemon.wide.clone();
        let visible = daemon.wait_records(records);
        let usage = daemon.stop()?.usage;
        let failure = match &visible {
            Err(why) => Some(why.clone()),
            Ok(_) if !usage.success => Some("sdcheckerd did not exit cleanly".to_string()),
            Ok(_) => check::daemon_wide(&wide, &reference).err(),
        };
        Ok(Rep {
            visible_ms: visible.unwrap_or(VISIBLE_TIMEOUT.as_secs_f64() * 1e3),
            usage,
            failure,
        })
    })?;
    Ok(closed_loop_outcome(workload, &on_disk, &reps))
}

/// One tick of the paced appender.
struct Tick {
    /// When the tick is due, from the start of the replay.
    due: Duration,
    /// End (exclusive) of the tick's lines in the time-ordered stream.
    end: usize,
    /// Records (lines that parse) written once this tick is on disk.
    records: u64,
}

/// Cut the stream into ticks with seeded exponential gaps of mean
/// [`TICK_MEAN_MS`], at a constant line rate that spends the whole
/// stream in `seconds`.
fn schedule(stream: &[(LogSource, &Line)], seconds: f64, seed: u64) -> Vec<Tick> {
    let mut rng = SimRng::new(seed).fork_named("sdbench-ticks");
    let mut cumulative = Vec::with_capacity(stream.len() + 1);
    cumulative.push(0u64);
    for (_, line) in stream {
        cumulative.push(cumulative[cumulative.len() - 1] + line.parses as u64);
    }
    let mut ticks: Vec<Tick> = Vec::new();
    let mut at = 0.0f64;
    loop {
        at += -(1.0 - rng.f64()).ln() * TICK_MEAN_MS / 1e3;
        let end = if at >= seconds {
            stream.len()
        } else {
            (stream.len() as f64 * at / seconds) as usize
        };
        if end > ticks.last().map_or(0, |t| t.end) {
            ticks.push(Tick {
                due: Duration::from_secs_f64(at.min(seconds)),
                end,
                records: cumulative[end],
            });
        }
        if end == stream.len() {
            return ticks;
        }
    }
}

/// Append one tick's lines: group them by file, then open, append and
/// close each file (a 10 000-file corpus exceeds the usual 1024
/// descriptor limit, so no writer stays open). The files exist already
/// (`Corpus::create_empty`).
pub fn append_tick(dir: &Path, lines: &[(LogSource, &Line)]) -> Result<(), String> {
    let mut by_file: BTreeMap<LogSource, String> = BTreeMap::new();
    for (src, line) in lines {
        let text = by_file.entry(*src).or_default();
        text.push_str(&line.text);
        text.push('\n');
    }
    for (src, text) in by_file {
        let path = dir.join(src.rel_path());
        fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .and_then(|mut file| file.write_all(text.as_bytes()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

/// Client-side timings of the daemon's endpoints, ms.
#[derive(Default)]
pub struct HttpTimes {
    /// `/healthz` round trips.
    pub healthz_ms: Vec<f64>,
    /// `/report.json` round trips.
    pub report_json_ms: Vec<f64>,
    /// `/metrics` round trips.
    pub metrics_ms: Vec<f64>,
    /// The last `/metrics` body.
    pub metrics_text: String,
}

/// What one paced replay measured.
pub struct PacedResult {
    /// Due → visible per tick, ms; `None` for a probe that failed.
    pub visible_ms: Vec<Option<f64>>,
    /// How late each tick's append started, ms.
    pub late_ms: Vec<f64>,
    /// Gaps between consecutive `/healthz` answers, ms.
    pub probe_interval_ms: Vec<f64>,
    /// First append → last tick visible, s.
    pub absorbed_s: f64,
    /// The first probe failure, if any.
    pub failure: Option<String>,
    /// Client-side endpoint timings.
    pub http: HttpTimes,
    /// The last `/healthz` document seen.
    pub health: Json,
}

/// Replay `stream` into `dir` over `seconds` while a second thread probes
/// the daemon: every tick is a probe, visible once `/healthz.records`
/// reaches the tick's cumulative record count, timed from when the tick
/// was due. With `scrape`, the prober also reads `/report.json` and
/// `/metrics` four times a second (the traced run's "cost of looking").
pub fn paced_replay(
    daemon: &Daemon,
    dir: &Path,
    stream: &[(LogSource, &Line)],
    seconds: f64,
    seed: u64,
    scrape: bool,
) -> Result<PacedResult, String> {
    let ticks = schedule(stream, seconds, seed);
    let done = AtomicBool::new(false);
    let start = Instant::now();
    std::thread::scope(|scope| {
        let prober = scope.spawn(|| probe(daemon, &ticks, start, scrape, &done));
        let mut late_ms = Vec::with_capacity(ticks.len());
        let mut from = 0;
        let mut appended = Ok(());
        for tick in &ticks {
            if let Some(wait) = tick.due.checked_sub(start.elapsed()) {
                std::thread::sleep(wait);
            }
            late_ms.push((start.elapsed().saturating_sub(tick.due)).as_secs_f64() * 1e3);
            appended = append_tick(dir, &stream[from..tick.end]);
            if appended.is_err() {
                break;
            }
            from = tick.end;
        }
        if appended.is_err() {
            done.store(true, Ordering::SeqCst);
        }
        let probed = prober.join().map_err(|_| "prober panicked".to_string())?;
        appended?;
        let mut result = probed?;
        result.late_ms = late_ms;
        Ok(result)
    })
}

/// The prober thread of [`paced_replay`].
fn probe(
    daemon: &Daemon,
    ticks: &[Tick],
    start: Instant,
    scrape: bool,
    done: &AtomicBool,
) -> Result<PacedResult, String> {
    let mut visible_ms: Vec<Option<f64>> = Vec::with_capacity(ticks.len());
    let mut intervals = Vec::new();
    let mut http = HttpTimes::default();
    let mut failure = None;
    let mut health = Json::Null;
    let mut last_answer: Option<Instant> = None;
    let mut last_visible = start;
    let mut next_scrape = Duration::ZERO;
    while visible_ms.len() < ticks.len() && !done.load(Ordering::SeqCst) {
        let asked = Instant::now();
        let answer = daemon.healthz();
        let now = Instant::now();
        http.healthz_ms.push((now - asked).as_secs_f64() * 1e3);
        if let Some(prev) = last_answer.replace(now) {
            intervals.push((now - prev).as_secs_f64() * 1e3);
        }
        let records = match answer {
            Ok(doc) => {
                let records = health_field(&doc, "records");
                health = doc;
                records
            }
            Err(why) => {
                failure.get_or_insert(why);
                0
            }
        };
        let since_start = now - start;
        while let Some(tick) = ticks.get(visible_ms.len()) {
            if tick.records <= records && tick.due <= since_start {
                visible_ms.push(Some((since_start - tick.due).as_secs_f64() * 1e3));
                last_visible = now;
            } else if since_start > tick.due + VISIBLE_TIMEOUT {
                failure.get_or_insert(format!(
                    "tick due at {:?} not visible after {VISIBLE_TIMEOUT:?}",
                    tick.due
                ));
                visible_ms.push(None);
            } else {
                break;
            }
        }
        if scrape && since_start >= next_scrape {
            next_scrape = since_start + Duration::from_millis(250);
            for (path, times) in [
                ("/report.json", &mut http.report_json_ms),
                ("/metrics", &mut http.metrics_ms),
            ] {
                let t0 = Instant::now();
                match http_get(&daemon.addr, path) {
                    Ok((200, body)) => {
                        times.push(ms_since(t0));
                        if path == "/metrics" {
                            http.metrics_text = String::from_utf8_lossy(&body).into_owned();
                        }
                    }
                    Ok((status, _)) => {
                        failure.get_or_insert(format!("{path} answered {status}"));
                    }
                    Err(e) => {
                        failure.get_or_insert(format!("{path}: {e}"));
                    }
                }
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let first_append = ticks.first().map_or(Duration::ZERO, |t| t.due);
    Ok(PacedResult {
        visible_ms,
        late_ms: Vec::new(),
        probe_interval_ms: intervals,
        absorbed_s: (last_visible - start)
            .saturating_sub(first_append)
            .as_secs_f64(),
        failure,
        http,
        health,
    })
}

/// `stream_paced_tpch`: open loop; the TPC-H corpus replayed once in time
/// order over the run's seconds into its (empty) log files, to a daemon
/// with checkpointing, alerts, exemplars and wide events on.
fn paced(workload: &Workload, cfg: &Config, scratch: &Scratch) -> Result<Outcome, String> {
    let dir = scratch.path("watch");
    let state = scratch.path("daemon");
    // Set-up is generating the corpus and starting a daemon that has
    // completed its first poll over the (still empty) log files. Laying
    // those files out is not timed, for the reason `corpus_on_disk` gives.
    let mut laid_out = false;
    let ((prepared, daemon), setup_s) = median_setup(|| {
        let t0 = Instant::now();
        let prepared = prepare(workload.corpus, cfg);
        let generated_s = t0.elapsed().as_secs_f64();
        if !laid_out {
            prepared
                .corpus
                .create_empty(&dir)
                .map_err(|e| format!("laying out the log files: {e}"))?;
            laid_out = true;
        }
        let feed = Feed::Live {
            compression: prepared.corpus.span_ms() as f64 / (cfg.seconds * 1e3),
        };
        let daemon = Daemon::spawn(&dir, &state, feed)?;
        let ready_ms = daemon.wait_ready()?;
        Ok(((prepared, daemon), generated_s + ready_ms / 1e3))
    })?;
    let analysis = analyze_store_with(&prepared.sim.store, Parallelism::ONE);
    check::against_ground_truth(&analysis, &prepared.sim.jobs)?;
    let reference = check::wide_by_app(&Reference::of(&analysis).wide)?;
    drop(analysis);

    let stream = prepared.corpus.by_time();
    let bytes = prepared.corpus.bytes();
    let replay = paced_replay(&daemon, &dir, &stream, cfg.seconds, cfg.seed, false)?;
    let wide = daemon.wide.clone();
    let usage = daemon.stop()?.usage;

    let mut failure = replay.failure;
    if !usage.success {
        failure.get_or_insert("sdcheckerd did not exit cleanly".to_string());
    }
    if let Err(why) = check::daemon_wide(&wide, &reference) {
        failure.get_or_insert(why);
    }
    let probes = replay.visible_ms.len();
    let failed = replay.visible_ms.iter().filter(|v| v.is_none()).count();
    // A failed probe counts as slow as the timeout, so it cannot flatter
    // the percentiles.
    let ms: Vec<f64> = replay
        .visible_ms
        .iter()
        .map(|v| v.unwrap_or(VISIBLE_TIMEOUT.as_secs_f64() * 1e3))
        .collect();
    let limit = workload.limit_ms;
    let within = replay
        .visible_ms
        .iter()
        .filter(|v| v.is_some_and(|ms| ms <= limit))
        .count();
    let mut notes = vec![format!(
        "{probes} probes (one per tick, mean gap {TICK_MEAN_MS} ms); corpus {:.1} MB, {} records offered over {} s; limit {limit} ms",
        bytes as f64 / 1e6,
        prepared.corpus.records(),
        cfg.seconds,
    )];
    notes.push(distribution_note(&ms, PROBE_TAIL_CAP));
    notes.push(format!(
        "harness honesty: generator.late_ms_p95 {:.3}, prober.interval_ms_p95 {:.3}",
        percentile(&replay.late_ms, 0.95),
        percentile(&replay.probe_interval_ms, 0.95),
    ));
    if let Some(why) = &failure {
        notes.push(format!("first failure: {why}"));
    }
    Ok(Outcome {
        correct: failure.is_none(),
        attempted: probes as u64,
        failed: failed as u64,
        metrics: vec![
            ("setup_s", setup_s),
            (
                "throughput_mb_per_s",
                bytes as f64 / 1e6 / replay.absorbed_s,
            ),
            ("visible_ms_p25", percentile(&ms, STEADY_QUANTILE)),
            ("within_limit", within as f64 / probes as f64),
            ("cpu_s_per_gb", usage.cpu_s / (bytes as f64 / 1e9)),
            ("peak_rss_mb", usage.max_rss_mb),
        ],
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use logmodel::TsMs;

    #[test]
    fn schedule_spends_the_stream_in_order() {
        let lines: Vec<Line> = (0..5000)
            .map(|i| Line {
                ts: TsMs(i),
                text: String::new(),
                parses: i % 10 != 0,
            })
            .collect();
        let stream: Vec<(LogSource, &Line)> = lines
            .iter()
            .map(|l| (LogSource::ResourceManager, l))
            .collect();
        let ticks = schedule(&stream, 2.0, 3);
        assert!((60..160).contains(&ticks.len()), "{} ticks", ticks.len());
        assert!(ticks
            .windows(2)
            .all(|w| w[0].due < w[1].due && w[0].end < w[1].end));
        let last = ticks.last().unwrap();
        assert_eq!(last.end, 5000);
        assert_eq!(last.records, 4500);
        assert_eq!(last.due, Duration::from_secs(2));
        let again = schedule(&stream, 2.0, 3);
        assert_eq!(ticks.len(), again.len());
        assert!(ticks.iter().zip(&again).all(|(a, b)| a.due == b.due));
        let other = schedule(&stream, 2.0, 4);
        assert!(ticks.iter().zip(&other).any(|(a, b)| a.due != b.due));
    }
}
