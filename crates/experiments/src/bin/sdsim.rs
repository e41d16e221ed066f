//! `sdsim` — simulate a Spark-on-YARN query stream from the command line
//! and analyze it with SDchecker in one shot.
//!
//! ```text
//! sdsim [--queries N] [--input-mb MB] [--executors N] [--seed S]
//!       [--scheduler capacity|opportunistic] [--docker]
//!       [--extra-files-mb MB] [--dfsio-writers N] [--kmeans-apps N]
//!       [--launch-failure-rate P] [--localization-failure-rate P]
//!       [--node-loss MS:NODE] [--fault-seed S]
//!       [--out <log-dir>] [--timeline]
//!       [--stream-to <log-dir>] [--rate R] [--stream-flush-every N]
//!       [--trace-out <trace.json>] [--app-trace-out <apptrace.json>]
//!       [--report-json <report.json>] [--metrics-out <metrics.json|.prom>]
//!       [--quiet]
//! ```
//!
//! Defaults reproduce the paper's setup: 2 GB input, 4 executors, the
//! Capacity Scheduler on a 25-node cluster. The fault flags inject
//! container launch/localization failures and scripted node loss; with
//! all of them at their defaults the run is byte-identical to a faultless
//! build, and the analysis end reports what broke (the report's
//! `failures` section and the `analyze_*`/`sim_faults_total` metrics).
//!
//! `--stream-to` replays the simulated corpus *live*: log lines are
//! appended to the directory in arrival (simulated-time) order, paced at
//! `--rate` records/second (0 = as fast as possible), with writers
//! flushed so a tailing consumer (`sdcheckerd`) sees an endless-stream
//! workload. In this mode sdsim skips its own batch analysis.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use logmodel::{format_line, LogSource, LogStore};

use sdchecker::{analyze_store, ascii_gantt, write_stdout, Report};
use simkit::Millis;
use sparksim::{profiles, simulate};
use workloads::{map_jobs, merge, shifted, tpch_stream, TraceParams};
use yarnsim::{ClusterConfig, ContainerRuntime};

const USAGE: &str = "usage: sdsim [--queries N] [--input-mb MB] [--executors N] [--seed S] \
[--scheduler capacity|opportunistic] [--arrivals moderate|bursty] [--docker] \
[--extra-files-mb MB] [--dfsio-writers N] [--kmeans-apps N] \
[--launch-failure-rate P] [--localization-failure-rate P] \
[--node-loss MS:NODE] [--fault-seed S] [--out <log-dir>] [--timeline] \
[--stream-to <log-dir>] [--rate R] [--stream-flush-every N] \
[--trace-out <trace.json>] [--app-trace-out <apptrace.json>] \
[--report-json <report.json>] [--metrics-out <metrics.json|.prom>] [--quiet]";

struct Opts {
    queries: usize,
    input_mb: f64,
    executors: u32,
    seed: u64,
    opportunistic: bool,
    bursty: bool,
    docker: bool,
    extra_files_mb: f64,
    dfsio_writers: u32,
    kmeans_apps: u32,
    faults: yarnsim::FaultConfig,
    out: Option<PathBuf>,
    timeline: bool,
    stream_to: Option<PathBuf>,
    rate: f64,
    stream_flush_every: u64,
    trace_out: Option<PathBuf>,
    app_trace_out: Option<PathBuf>,
    report_json_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    quiet: bool,
}

fn parse_args() -> Result<Opts, String> {
    let mut o = Opts {
        queries: 50,
        input_mb: 2048.0,
        executors: 4,
        seed: 2018,
        opportunistic: false,
        bursty: false,
        docker: false,
        extra_files_mb: 0.0,
        dfsio_writers: 0,
        kmeans_apps: 0,
        faults: yarnsim::FaultConfig::default(),
        out: None,
        timeline: false,
        stream_to: None,
        rate: 0.0,
        stream_flush_every: 64,
        trace_out: None,
        app_trace_out: None,
        report_json_out: None,
        metrics_out: None,
        quiet: false,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |args: &[String], i: usize, flag: &str| -> Result<String, String> {
        args.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--queries" => {
                o.queries = value(&args, i, "--queries")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
                i += 2;
            }
            "--input-mb" => {
                o.input_mb = value(&args, i, "--input-mb")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
                i += 2;
            }
            "--executors" => {
                o.executors = value(&args, i, "--executors")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
                i += 2;
            }
            "--seed" => {
                o.seed = value(&args, i, "--seed")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
                i += 2;
            }
            "--scheduler" => {
                o.opportunistic = match value(&args, i, "--scheduler")?.as_str() {
                    "capacity" => false,
                    "opportunistic" => true,
                    other => return Err(format!("unknown scheduler {other}")),
                };
                i += 2;
            }
            "--arrivals" => {
                o.bursty = match value(&args, i, "--arrivals")?.as_str() {
                    "moderate" => false,
                    "bursty" => true,
                    other => return Err(format!("unknown arrival process {other}")),
                };
                i += 2;
            }
            "--docker" => {
                o.docker = true;
                i += 1;
            }
            "--extra-files-mb" => {
                o.extra_files_mb = value(&args, i, "--extra-files-mb")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
                i += 2;
            }
            "--dfsio-writers" => {
                o.dfsio_writers = value(&args, i, "--dfsio-writers")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
                i += 2;
            }
            "--kmeans-apps" => {
                o.kmeans_apps = value(&args, i, "--kmeans-apps")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
                i += 2;
            }
            "--launch-failure-rate" => {
                o.faults.launch_failure_rate = value(&args, i, "--launch-failure-rate")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
                i += 2;
            }
            "--localization-failure-rate" => {
                o.faults.localization_failure_rate =
                    value(&args, i, "--localization-failure-rate")?
                        .parse()
                        .map_err(|e| format!("{e}"))?;
                i += 2;
            }
            "--node-loss" => {
                // MS:NODE — at time MS the NM on node index NODE is lost.
                let v = value(&args, i, "--node-loss")?;
                let (ms, node) = v
                    .split_once(':')
                    .ok_or_else(|| format!("--node-loss wants MS:NODE, got {v}"))?;
                o.faults.node_loss.push((
                    Millis(ms.parse().map_err(|e| format!("{e}"))?),
                    node.parse().map_err(|e| format!("{e}"))?,
                ));
                i += 2;
            }
            "--fault-seed" => {
                o.faults.fault_seed = value(&args, i, "--fault-seed")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
                i += 2;
            }
            "--out" => {
                o.out = Some(PathBuf::from(value(&args, i, "--out")?));
                i += 2;
            }
            "--timeline" => {
                o.timeline = true;
                i += 1;
            }
            "--stream-to" => {
                o.stream_to = Some(PathBuf::from(value(&args, i, "--stream-to")?));
                i += 2;
            }
            "--rate" => {
                o.rate = value(&args, i, "--rate")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
                if o.rate < 0.0 || !o.rate.is_finite() {
                    return Err("--rate must be a finite non-negative number".to_string());
                }
                i += 2;
            }
            "--stream-flush-every" => {
                o.stream_flush_every = value(&args, i, "--stream-flush-every")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
                if o.stream_flush_every == 0 {
                    return Err("--stream-flush-every must be at least 1".to_string());
                }
                i += 2;
            }
            "--trace-out" => {
                o.trace_out = Some(PathBuf::from(value(&args, i, "--trace-out")?));
                i += 2;
            }
            "--app-trace-out" => {
                o.app_trace_out = Some(PathBuf::from(value(&args, i, "--app-trace-out")?));
                i += 2;
            }
            "--report-json" => {
                o.report_json_out = Some(PathBuf::from(value(&args, i, "--report-json")?));
                i += 2;
            }
            "--metrics-out" => {
                o.metrics_out = Some(PathBuf::from(value(&args, i, "--metrics-out")?));
                i += 2;
            }
            "--quiet" => {
                o.quiet = true;
                i += 1;
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(o)
}

/// Replay the simulated corpus into `dir` as a live log stream: lines
/// appended in global simulated-time order (the order a collector on the
/// real cluster would observe them), paced at `rate` records/second
/// (0 = unpaced), with `epoch.txt` written first so a tail started at any
/// point anchors timestamps correctly. Writers are flushed every
/// `flush_every` records and before every pacing sleep, so a concurrent
/// tailer's view is never more than one flush interval stale.
fn stream_logs(logs: &LogStore, dir: &Path, rate: f64, flush_every: u64) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    fs::write(dir.join("epoch.txt"), format!("{}\n", logs.epoch().unix_ms))?;
    let epoch = *logs.epoch();
    let records = logs.records_by_time();
    let mut writers: BTreeMap<LogSource, BufWriter<fs::File>> = BTreeMap::new();
    let start = Instant::now();
    let mut since_flush: u64 = 0;
    for (i, (src, rec)) in records.iter().enumerate() {
        if rate > 0.0 {
            let due = start + Duration::from_secs_f64(i as f64 / rate);
            let mut flushed = false;
            loop {
                let now = Instant::now();
                if now >= due {
                    break;
                }
                if !flushed {
                    for w in writers.values_mut() {
                        w.flush()?;
                    }
                    since_flush = 0;
                    flushed = true;
                }
                std::thread::sleep((due - now).min(Duration::from_millis(50)));
            }
        }
        let w = match writers.entry(*src) {
            std::collections::btree_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::btree_map::Entry::Vacant(e) => {
                let path = dir.join(src.rel_path());
                if let Some(parent) = path.parent() {
                    fs::create_dir_all(parent)?;
                }
                e.insert(BufWriter::new(
                    fs::OpenOptions::new()
                        .create(true)
                        .append(true)
                        .open(path)?,
                ))
            }
        };
        writeln!(w, "{}", format_line(&epoch, rec))?;
        since_flush += 1;
        if since_flush >= flush_every {
            for w in writers.values_mut() {
                w.flush()?;
            }
            since_flush = 0;
        }
    }
    for w in writers.values_mut() {
        w.flush()?;
    }
    Ok(())
}

fn main() -> ExitCode {
    if std::env::args().skip(1).any(|a| a == "--help" || a == "-h") {
        let _ = write_stdout(&format!("{USAGE}\n"));
        return ExitCode::SUCCESS;
    }
    let o = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    if o.trace_out.is_some() || o.metrics_out.is_some() {
        obs::enable();
    }

    let mut rng = simkit::SimRng::new(o.seed);
    let mut queries = map_jobs(
        tpch_stream(
            o.queries,
            o.input_mb,
            o.executors,
            &if o.bursty {
                TraceParams::bursty()
            } else {
                TraceParams::moderate()
            },
            &mut rng,
        ),
        |j| {
            j.extra_files_mb = o.extra_files_mb;
            if o.docker {
                j.runtime = ContainerRuntime::Docker;
            }
        },
    );
    if o.dfsio_writers > 0 || o.kmeans_apps > 0 {
        queries = shifted(queries, Millis(40_000));
    }
    let last = queries.last().map(|(t, _)| *t).unwrap_or(Millis::ZERO);
    let mut streams = vec![queries];
    if o.dfsio_writers > 0 {
        let gb = (last.as_f64() * 0.09 / 1024.0).max(20.0);
        streams.push(vec![(Millis::ZERO, profiles::dfsio(o.dfsio_writers, gb))]);
    }
    for k in 0..o.kmeans_apps {
        let iters = (last.0 / 3_000 + 50) as u32;
        streams.push(vec![(Millis(400 * k as u64), profiles::kmeans(iters))]);
    }
    let arrivals = merge(streams);

    let mut cfg = if o.opportunistic {
        ClusterConfig::default().with_opportunistic()
    } else {
        ClusterConfig::default()
    };
    cfg.faults = o.faults.clone();

    if !o.quiet {
        eprintln!(
            "simulating {} TPC-H queries ({} MB, {} executors, {}{}{}) ...",
            o.queries,
            o.input_mb,
            o.executors,
            if o.opportunistic {
                "opportunistic"
            } else {
                "capacity"
            },
            if o.docker { ", docker" } else { "" },
            if o.dfsio_writers > 0 || o.kmeans_apps > 0 {
                ", with interference"
            } else {
                ""
            },
        );
        if o.faults.any_enabled() {
            eprintln!(
                "fault injection on: launch {:.1}%, localization {:.1}%, {} scripted node losses (fault seed {})",
                o.faults.launch_failure_rate * 100.0,
                o.faults.localization_failure_rate * 100.0,
                o.faults.node_loss.len(),
                o.faults.fault_seed,
            );
        }
    }
    let t0 = std::time::Instant::now();
    let (logs, summaries) = simulate(cfg, o.seed, arrivals, Millis::from_mins(24 * 60));
    if !o.quiet {
        eprintln!(
            "simulated {} jobs / {} log records in {:.2?}",
            summaries.len(),
            logs.total_records(),
            t0.elapsed()
        );
    }

    if let Some(dir) = &o.out {
        if let Err(e) = logs.write_dir(dir) {
            eprintln!("failed to write logs to {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
        if !o.quiet {
            eprintln!("wrote log corpus to {}", dir.display());
        }
    }

    if let Some(dir) = &o.stream_to {
        if !o.quiet {
            eprintln!(
                "streaming {} records to {} at {} ...",
                logs.total_records(),
                dir.display(),
                if o.rate > 0.0 {
                    format!("{} records/s", o.rate)
                } else {
                    "full speed".to_string()
                },
            );
        }
        if let Err(e) = stream_logs(&logs, dir, o.rate, o.stream_flush_every) {
            eprintln!("failed to stream logs to {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
        if !o.quiet {
            eprintln!("stream complete: {}", dir.display());
        }
        // Streaming mode hands analysis off to the tailing consumer.
        return ExitCode::SUCCESS;
    }

    let analysis = analyze_store(&logs);
    // One pass over the applications feeds stdout and `--report-json`.
    let report = Report::new(&analysis);
    let mut text = report.text();
    if o.timeline {
        // Show the median-total application's timeline (the Fig 10 view).
        let mut complete: Vec<_> = analysis
            .delays
            .iter()
            .filter(|d| d.total_ms.is_some())
            .collect();
        complete.sort_by_key(|d| d.total_ms);
        if let Some(mid) = complete.get(complete.len() / 2) {
            if let Some(g) = analysis.graphs.get(&mid.app) {
                text.push('\n');
                text.push_str(&ascii_gantt(g, 100));
            }
        }
    }
    if let Err(e) = write_stdout(&text) {
        eprintln!("failed to write to stdout: {e}");
        return ExitCode::FAILURE;
    }

    if let Some(p) = &o.app_trace_out {
        if let Err(e) = std::fs::write(p, sdchecker::corpus_app_trace(&analysis)) {
            eprintln!("failed to write {}: {e}", p.display());
            return ExitCode::FAILURE;
        }
        if !o.quiet {
            eprintln!(
                "wrote app-time scheduling trace to {} (load in ui.perfetto.dev)",
                p.display()
            );
        }
    }
    if let Some(p) = &o.report_json_out {
        if let Err(e) = std::fs::write(p, report.json()) {
            eprintln!("failed to write {}: {e}", p.display());
            return ExitCode::FAILURE;
        }
        if !o.quiet {
            eprintln!("wrote machine-readable report to {}", p.display());
        }
    }

    if let Err(e) = obs::export::write_files(
        obs::global(),
        o.trace_out.as_deref(),
        o.metrics_out.as_deref(),
    ) {
        eprintln!("failed to write observability output: {e}");
        return ExitCode::FAILURE;
    }
    if !o.quiet {
        if let Some(p) = &o.trace_out {
            eprintln!(
                "wrote Chrome trace to {} (load in chrome://tracing or ui.perfetto.dev)",
                p.display()
            );
        }
        if let Some(p) = &o.metrics_out {
            eprintln!("wrote metrics to {}", p.display());
        }
    }
    ExitCode::SUCCESS
}
