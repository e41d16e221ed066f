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

use std::path::PathBuf;
use std::process::ExitCode;

use logmodel::ApplicationId;
use sdchecker::{analyze_dir_with, write_stdout, Parallelism, Report, Table};

const USAGE: &str = "usage: sdchecker <log-dir> [--threads N] [--csv <out.csv>] \
[--dot <application-id> <out.dot>] [--timeline <application-id>] \
[--trace-out <trace.json>] [--app-trace-out <apptrace.json>] \
[--report-json <report.json>] [--metrics-out <metrics.json|.prom>] \
[--wide-events-out <events.jsonl>] [--quiet]";

fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        let _ = write_stdout(&format!("{USAGE}\n"));
        return ExitCode::SUCCESS;
    }
    let Some(dir) = args.first() else {
        return usage();
    };
    if dir.starts_with('-') {
        eprintln!("expected <log-dir> as the first argument, got {dir}");
        return usage();
    }
    let mut csv_out: Option<PathBuf> = None;
    let mut dot_req: Option<(ApplicationId, PathBuf)> = None;
    let mut timeline_req: Option<ApplicationId> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut app_trace_out: Option<PathBuf> = None;
    let mut report_json_out: Option<PathBuf> = None;
    let mut metrics_out: Option<PathBuf> = None;
    let mut wide_events_out: Option<PathBuf> = None;
    let mut quiet = false;
    let mut par = Parallelism::auto();
    let mut requested_threads: Option<usize> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--threads" => {
                let Some(n) = args.get(i + 1) else {
                    return usage();
                };
                let Ok(n) = n.parse::<usize>() else {
                    eprintln!("invalid thread count: {n}");
                    return ExitCode::from(2);
                };
                if n == 0 {
                    eprintln!("--threads must be at least 1");
                    return ExitCode::from(2);
                }
                // Oversubscribing the analysis pool only adds scheduling
                // overhead (the benches show a net slowdown), so clamp to
                // hardware parallelism; requested vs effective counts are
                // both recorded in the metrics export.
                requested_threads = Some(n);
                par = Parallelism::clamped(n);
                i += 2;
            }
            "--csv" => {
                let Some(p) = args.get(i + 1) else {
                    return usage();
                };
                csv_out = Some(PathBuf::from(p));
                i += 2;
            }
            "--dot" => {
                let (Some(appid), Some(p)) = (args.get(i + 1), args.get(i + 2)) else {
                    return usage();
                };
                let Ok(app) = appid.parse::<ApplicationId>() else {
                    eprintln!("invalid application id: {appid}");
                    return ExitCode::from(2);
                };
                dot_req = Some((app, PathBuf::from(p)));
                i += 3;
            }
            "--timeline" => {
                let Some(appid) = args.get(i + 1) else {
                    return usage();
                };
                let Ok(app) = appid.parse::<ApplicationId>() else {
                    eprintln!("invalid application id: {appid}");
                    return ExitCode::from(2);
                };
                timeline_req = Some(app);
                i += 2;
            }
            "--trace-out" => {
                let Some(p) = args.get(i + 1) else {
                    return usage();
                };
                trace_out = Some(PathBuf::from(p));
                i += 2;
            }
            "--app-trace-out" => {
                let Some(p) = args.get(i + 1) else {
                    return usage();
                };
                app_trace_out = Some(PathBuf::from(p));
                i += 2;
            }
            "--report-json" => {
                let Some(p) = args.get(i + 1) else {
                    return usage();
                };
                report_json_out = Some(PathBuf::from(p));
                i += 2;
            }
            "--metrics-out" => {
                let Some(p) = args.get(i + 1) else {
                    return usage();
                };
                metrics_out = Some(PathBuf::from(p));
                i += 2;
            }
            "--wide-events-out" => {
                let Some(p) = args.get(i + 1) else {
                    return usage();
                };
                wide_events_out = Some(PathBuf::from(p));
                i += 2;
            }
            "--quiet" => {
                quiet = true;
                i += 1;
            }
            other => {
                eprintln!("unknown argument: {other}");
                return usage();
            }
        }
    }

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

    let analysis = match analyze_dir_with(&PathBuf::from(dir), par) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("failed to read logs from {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };

    // One pass over the applications feeds stdout, `--report-json` and
    // `--wide-events-out`.
    let report = Report::new(&analysis);
    if let Err(e) = write_stdout(&report.text()) {
        eprintln!("failed to write to stdout: {e}");
        return ExitCode::FAILURE;
    }

    if let Some(path) = csv_out {
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
        if let Err(e) = std::fs::write(&path, t.to_csv()) {
            eprintln!("failed to write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        if !quiet {
            eprintln!("wrote per-application CSV to {}", path.display());
        }
    }

    if let Some(app) = timeline_req {
        let Some(g) = analysis.graphs.get(&app) else {
            eprintln!("application {app} not found in logs");
            return ExitCode::FAILURE;
        };
        if let Err(e) = write_stdout(&format!("\n{}", sdchecker::ascii_gantt(g, 100))) {
            eprintln!("failed to write to stdout: {e}");
            return ExitCode::FAILURE;
        }
    }

    if let Some((app, path)) = dot_req {
        let Some(g) = analysis.graphs.get(&app) else {
            eprintln!("application {app} not found in logs");
            return ExitCode::FAILURE;
        };
        if let Err(e) = std::fs::write(&path, g.to_dot()) {
            eprintln!("failed to write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        if !quiet {
            eprintln!("wrote scheduling graph to {}", path.display());
        }
    }

    if let Some(path) = &app_trace_out {
        if let Err(e) = std::fs::write(path, sdchecker::corpus_app_trace(&analysis)) {
            eprintln!("failed to write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        if !quiet {
            eprintln!(
                "wrote app-time scheduling trace to {} (load in ui.perfetto.dev)",
                path.display()
            );
        }
    }

    if let Some(path) = &wide_events_out {
        if let Err(e) = std::fs::write(path, report.wide_events()) {
            eprintln!("failed to write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        if !quiet {
            eprintln!(
                "wrote {} wide-events-v1 lines to {}",
                analysis.delays.len(),
                path.display()
            );
        }
    }

    if let Some(path) = &report_json_out {
        if let Err(e) = std::fs::write(path, report.json()) {
            eprintln!("failed to write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        if !quiet {
            eprintln!("wrote machine-readable report to {}", path.display());
        }
    }

    if let Err(e) =
        obs::export::write_files(obs::global(), trace_out.as_deref(), metrics_out.as_deref())
    {
        eprintln!("failed to write observability output: {e}");
        return ExitCode::FAILURE;
    }
    if !quiet {
        if let Some(p) = &trace_out {
            eprintln!(
                "wrote Chrome trace to {} (load in chrome://tracing or ui.perfetto.dev)",
                p.display()
            );
        }
        if let Some(p) = &metrics_out {
            eprintln!("wrote metrics to {}", p.display());
        }
    }
    ExitCode::SUCCESS
}
