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

use sdchecker::cli::{self, Args, OrFail, Stop};
use sdchecker::{analyze_store, ascii_gantt, write_stdout, Parallelism, Report};
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
    for (i, (src, rec)) in records.into_iter().enumerate() {
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
        let w = match writers.entry(src) {
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
    cli::main(USAGE, run)
}

fn run(mut args: Args) -> Result<(), Stop> {
    let mut queries: usize = 50;
    let mut input_mb: f64 = 2048.0;
    let mut executors: u32 = 4;
    let mut seed: u64 = 2018;
    let mut opportunistic = false;
    let mut bursty = false;
    let mut docker = false;
    let mut extra_files_mb: f64 = 0.0;
    let mut dfsio_writers: u32 = 0;
    let mut kmeans_apps: u32 = 0;
    let mut faults = yarnsim::FaultConfig::default();
    let mut out: Option<PathBuf> = None;
    let mut timeline = false;
    let mut stream_to: Option<PathBuf> = None;
    let mut rate: f64 = 0.0;
    let mut stream_flush_every: u64 = 64;
    let mut trace_out: Option<PathBuf> = None;
    let mut app_trace_out: Option<PathBuf> = None;
    let mut report_json_out: Option<PathBuf> = None;
    let mut metrics_out: Option<PathBuf> = None;
    let mut quiet = false;
    let non_negative = "a finite non-negative number";
    let is_non_negative = |v: &f64| v.is_finite() && *v >= 0.0;
    let probability = |p: &f64| (0.0..=1.0).contains(p);
    while let Some(flag) = args.flag() {
        match flag.as_str() {
            "--queries" => queries = args.value(&flag)?,
            "--input-mb" => input_mb = args.value_if(&flag, non_negative, is_non_negative)?,
            "--executors" => executors = args.value(&flag)?,
            "--seed" => seed = args.value(&flag)?,
            "--scheduler" => {
                let s: String =
                    args.value_if(&flag, "capacity or opportunistic", |s: &String| {
                        s == "capacity" || s == "opportunistic"
                    })?;
                opportunistic = s == "opportunistic";
            }
            "--arrivals" => {
                let s: String = args.value_if(&flag, "moderate or bursty", |s: &String| {
                    s == "moderate" || s == "bursty"
                })?;
                bursty = s == "bursty";
            }
            "--docker" => docker = true,
            "--extra-files-mb" => {
                extra_files_mb = args.value_if(&flag, non_negative, is_non_negative)?;
            }
            "--dfsio-writers" => dfsio_writers = args.value(&flag)?,
            "--kmeans-apps" => kmeans_apps = args.value(&flag)?,
            "--launch-failure-rate" => {
                faults.launch_failure_rate = args.value_if(&flag, "in [0, 1]", probability)?;
            }
            "--localization-failure-rate" => {
                faults.localization_failure_rate =
                    args.value_if(&flag, "in [0, 1]", probability)?;
            }
            "--node-loss" => {
                // MS:NODE — at time MS the NM on node index NODE is lost.
                let v: String = args.value(&flag)?;
                let nodes = ClusterConfig::default().nodes;
                let bad = || Stop::Usage(format!("{flag} wants MS:NODE, NODE < {nodes}, got {v}"));
                let loss = v
                    .split_once(':')
                    .and_then(|(ms, node)| Some((Millis(ms.parse().ok()?), node.parse().ok()?)))
                    .filter(|&(_, node)| node < nodes)
                    .ok_or_else(bad)?;
                faults.node_loss.push(loss);
            }
            "--fault-seed" => faults.fault_seed = args.value(&flag)?,
            "--out" => out = Some(args.value(&flag)?),
            "--timeline" => timeline = true,
            "--stream-to" => stream_to = Some(args.value(&flag)?),
            "--rate" => rate = args.value_if(&flag, non_negative, is_non_negative)?,
            "--stream-flush-every" => {
                stream_flush_every = args.value_if(&flag, "at least 1", |n| *n > 0)?;
            }
            "--trace-out" => trace_out = Some(args.value(&flag)?),
            "--app-trace-out" => app_trace_out = Some(args.value(&flag)?),
            "--report-json" => report_json_out = Some(args.value(&flag)?),
            "--metrics-out" => metrics_out = Some(args.value(&flag)?),
            "--quiet" => quiet = true,
            other => return Err(cli::unknown(other)),
        }
    }

    if trace_out.is_some() || metrics_out.is_some() {
        obs::enable();
    }

    let mut rng = simkit::SimRng::new(seed);
    let mut tpch = map_jobs(
        tpch_stream(
            queries,
            input_mb,
            executors,
            &if bursty {
                TraceParams::bursty()
            } else {
                TraceParams::moderate()
            },
            &mut rng,
        ),
        |j| {
            j.extra_files_mb = extra_files_mb;
            if docker {
                j.runtime = ContainerRuntime::Docker;
            }
        },
    );
    if dfsio_writers > 0 || kmeans_apps > 0 {
        tpch = shifted(tpch, Millis(40_000));
    }
    let last = tpch.last().map(|(t, _)| *t).unwrap_or(Millis::ZERO);
    let mut streams = vec![tpch];
    if dfsio_writers > 0 {
        let gb = (last.as_f64() * 0.09 / 1024.0).max(20.0);
        streams.push(vec![(Millis::ZERO, profiles::dfsio(dfsio_writers, gb))]);
    }
    for k in 0..kmeans_apps {
        let iters = (last.0 / 3_000 + 50) as u32;
        streams.push(vec![(Millis(400 * k as u64), profiles::kmeans(iters))]);
    }
    let arrivals = merge(streams);

    let mut cfg = if opportunistic {
        ClusterConfig::default().with_opportunistic()
    } else {
        ClusterConfig::default()
    };
    cfg.faults = faults.clone();

    if !quiet {
        eprintln!(
            "simulating {} TPC-H queries ({} MB, {} executors, {}{}{}) ...",
            queries,
            input_mb,
            executors,
            if opportunistic {
                "opportunistic"
            } else {
                "capacity"
            },
            if docker { ", docker" } else { "" },
            if dfsio_writers > 0 || kmeans_apps > 0 {
                ", with interference"
            } else {
                ""
            },
        );
        if faults.any_enabled() {
            eprintln!(
                "fault injection on: launch {:.1}%, localization {:.1}%, {} scripted node losses (fault seed {})",
                faults.launch_failure_rate * 100.0,
                faults.localization_failure_rate * 100.0,
                faults.node_loss.len(),
                faults.fault_seed,
            );
        }
    }
    let t0 = std::time::Instant::now();
    let (logs, summaries) = simulate(cfg, seed, arrivals, Millis::from_mins(24 * 60));
    if !quiet {
        eprintln!(
            "simulated {} jobs / {} log records in {:.2?}",
            summaries.len(),
            logs.total_records(),
            t0.elapsed()
        );
    }

    if let Some(dir) = &out {
        logs.write_dir(dir)
            .or_fail(format_args!("failed to write logs to {}", dir.display()))?;
        if !quiet {
            eprintln!("wrote log corpus to {}", dir.display());
        }
    }

    if let Some(dir) = &stream_to {
        if !quiet {
            eprintln!(
                "streaming {} records to {} at {} ...",
                logs.total_records(),
                dir.display(),
                if rate > 0.0 {
                    format!("{} records/s", rate)
                } else {
                    "full speed".to_string()
                },
            );
        }
        stream_logs(&logs, dir, rate, stream_flush_every)
            .or_fail(format_args!("failed to stream logs to {}", dir.display()))?;
        if !quiet {
            eprintln!("stream complete: {}", dir.display());
        }
        // Streaming mode hands analysis off to the tailing consumer.
        return Ok(());
    }

    let analysis = analyze_store(&logs);
    // One pass over the applications feeds stdout and `--report-json`.
    let report = Report::new(&analysis);
    let mut text = report.text();
    if timeline {
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
    write_stdout(&text).or_fail("failed to write to stdout")?;
    if let Some(p) = &app_trace_out {
        let trace = sdchecker::corpus_app_trace(&analysis);
        cli::write_output(p, trace, "app-time scheduling trace", quiet)?;
    }
    if let Some(p) = &report_json_out {
        let what = "machine-readable report";
        cli::stream_output(p, what, quiet, |mut file| {
            let [_, json, _] =
                report.write_documents(Parallelism::ONE, None, Some(&mut file), None);
            json
        })?;
    }
    cli::write_observability(trace_out.as_deref(), metrics_out.as_deref(), quiet)
}
