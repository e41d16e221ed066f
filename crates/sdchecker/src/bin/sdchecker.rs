//! The `sdchecker` CLI: offline analysis of a collected log directory.
//!
//! ```text
//! sdchecker <log-dir> [--threads N] [--csv <out.csv>] [--dot <application-id> <out.dot>]
//!           [--timeline <application-id>] [--trace-out <trace.json>]
//!           [--app-trace-out <apptrace.json>] [--report-json <report.json>]
//!           [--metrics-out <metrics.json|.prom>] [--wide-events-out <events.jsonl>]
//!           [--quiet]
//! ```
//!
//! `<log-dir>` must contain `resourcemanager.log`,
//! `nodemanager-nodeNN.log` files and `apps/<applicationId>/…` application
//! logs (the layout `logmodel::LogStore::write_dir` produces, mirroring a
//! cluster log collection).

use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use logmodel::ApplicationId;
use sdchecker::cli::{self, Args, OrFail, Stop};
use sdchecker::{analyze_dir_with, write_stdout, Parallelism, Report, Table};

const USAGE: &str = "usage: sdchecker <log-dir> [--threads N] [--csv <out.csv>] \
[--dot <application-id> <out.dot>] [--timeline <application-id>] \
[--trace-out <trace.json>] [--app-trace-out <apptrace.json>] \
[--report-json <report.json>] [--metrics-out <metrics.json|.prom>] \
[--wide-events-out <events.jsonl>] [--quiet]";

fn main() -> ExitCode {
    cli::main(USAGE, run)
}

fn run(mut args: Args) -> Result<(), Stop> {
    let dir = args.positional("<log-dir>")?;
    let mut csv_out: Option<PathBuf> = None;
    let mut dot_req: Option<(ApplicationId, PathBuf)> = None;
    let mut timeline_req: Option<ApplicationId> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut app_trace_out: Option<PathBuf> = None;
    let mut report_json_out: Option<PathBuf> = None;
    let mut metrics_out: Option<PathBuf> = None;
    let mut wide_events_out: Option<PathBuf> = None;
    let mut quiet = false;
    let mut requested_threads: Option<usize> = None;
    while let Some(flag) = args.flag() {
        match flag.as_str() {
            "--threads" => {
                requested_threads = Some(args.value_if(&flag, "at least 1", |n| *n > 0)?);
            }
            "--csv" => csv_out = Some(args.value(&flag)?),
            "--dot" => dot_req = Some((args.value(&flag)?, args.value(&flag)?)),
            "--timeline" => timeline_req = Some(args.value(&flag)?),
            "--trace-out" => trace_out = Some(args.value(&flag)?),
            "--app-trace-out" => app_trace_out = Some(args.value(&flag)?),
            "--report-json" => report_json_out = Some(args.value(&flag)?),
            "--metrics-out" => metrics_out = Some(args.value(&flag)?),
            "--wide-events-out" => wide_events_out = Some(args.value(&flag)?),
            "--quiet" => quiet = true,
            other => return Err(cli::unknown(other)),
        }
    }
    // Oversubscribing the analysis pool only adds scheduling overhead
    // (the benches show a net slowdown), so clamp to hardware
    // parallelism; requested vs effective counts are both recorded in
    // the metrics export.
    let par = requested_threads.map_or_else(Parallelism::auto, Parallelism::clamped);
    if let Some(n) = requested_threads {
        if par.threads() < n && !quiet {
            eprintln!(
                "note: --threads {n} clamped to {} (hardware parallelism)",
                par.threads()
            );
        }
    }

    if trace_out.is_some() || metrics_out.is_some() {
        obs::enable();
        sdchecker::describe_metrics();
        obs::gauge_set(
            "analyze_threads_requested",
            requested_threads.unwrap_or_else(|| par.threads()) as f64,
        );
        obs::gauge_set("analyze_threads_effective", par.threads() as f64);
    }

    let analysis = analyze_dir_with(&PathBuf::from(&dir), par)
        .or_fail(format_args!("failed to read logs from {dir}"))?;
    let graph = |app| {
        analysis
            .graphs
            .get(&app)
            .ok_or_else(|| Stop::Fail(format!("application {app} not found in logs")))
    };

    // One pass over the applications feeds stdout, `--report-json` and
    // `--wide-events-out`; the facts and the rendering run on the pool.
    let report = Report::pooled(&analysis, par);
    let create = |path: &Option<PathBuf>| {
        let create =
            |p: &Path| File::create(p).or_fail(format_args!("failed to write {}", p.display()));
        path.as_deref().map(create).transpose()
    };
    let (mut json, mut wide) = (create(&report_json_out)?, create(&wide_events_out)?);
    let [text, json_written, wide_written] = report.write_documents(
        par,
        Some(&mut io::stdout().lock()),
        json.as_mut().map(|f| f as &mut dyn io::Write),
        wide.as_mut().map(|f| f as &mut dyn io::Write),
    );
    // A closed pipe ends standard output quietly (see `write_stdout`).
    match text {
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => {}
        text => text.or_fail("failed to write to stdout")?,
    }
    if let Some(path) = &wide_events_out {
        let what = format_args!("{} wide-events-v1 lines", analysis.delays.len());
        cli::written(path, wide_written, what, quiet)?;
    }
    if let Some(path) = &report_json_out {
        cli::written(path, json_written, "machine-readable report", quiet)?;
    }
    if let Some(path) = csv_out {
        let _span = obs::span("csv");
        let mut t = Table::new(&[
            "app",
            "total_ms",
            "am_ms",
            "in_app_ms",
            "out_app_ms",
            "driver_ms",
            "executor_ms",
            "alloc_ms",
            "cf_ms",
            "cl_ms",
            "job_runtime_ms",
        ]);
        let opt = |v: Option<u64>| v.map(|x| x.to_string()).unwrap_or_default();
        for d in &analysis.delays {
            t.row(vec![
                d.app.to_string(),
                opt(d.total_ms),
                opt(d.am_ms),
                opt(d.in_app_ms),
                opt(d.out_app_ms),
                opt(d.driver_ms),
                opt(d.executor_ms),
                opt(d.alloc_ms),
                opt(d.cf_ms),
                opt(d.cl_ms),
                opt(d.job_runtime_ms),
            ]);
        }
        cli::write_output(&path, t.to_csv(), "per-application CSV", quiet)?;
    }
    if let Some(app) = timeline_req {
        write_stdout(&format!("\n{}", sdchecker::ascii_gantt(graph(app)?, 100)))
            .or_fail("failed to write to stdout")?;
    }
    if let Some((app, path)) = dot_req {
        cli::write_output(&path, graph(app)?.to_dot(), "scheduling graph", quiet)?;
    }
    if let Some(path) = &app_trace_out {
        let _span = obs::span("app_trace");
        let trace = sdchecker::corpus_app_trace(&analysis);
        cli::write_output(path, trace, "app-time scheduling trace", quiet)?;
    }
    cli::write_observability(trace_out.as_deref(), metrics_out.as_deref(), quiet)?;
    // The process ends here, and the system takes its memory back at
    // once, where dropping the analysis and the report would free every
    // application's graph, delays and facts one allocation at a time:
    // some 6 ms of a 2 000-application run on two threads.
    std::mem::forget(report);
    std::mem::forget(analysis);
    Ok(())
}
