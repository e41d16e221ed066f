//! Run every table/figure reproduction and write the results.
//!
//! ```text
//! run_experiments [--quick] [--only fig4,fig12] [--out results/] [--seed N]
//!                 [--trace-out <trace.json>] [--app-trace-out <apptrace.json>]
//!                 [--report-json <report.json>] [--metrics-out <metrics.json|.prom>]
//!                 [--quiet]
//! ```
//!
//! Experiments run in parallel (one thread each; every scenario is
//! internally deterministic and independently seeded). Each artifact is
//! written to `<out>/<id>.txt`; a combined `ALL.md` concatenates them.
//!
//! `--report-json` streams every analyzed application's delay components
//! through mergeable quantile sketches while the experiments run, then
//! writes fleet-wide percentiles; `--app-trace-out` simulates a small
//! reference scenario and exports its app-time scheduling trace.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::Instant;

use experiments::harness::{default_horizon, run_scenario, scenario_rng};
use experiments::{all_experiments, Figure, Scale};
use obs::json::{document, Layout, Name};
use obs::json_fields;
use workloads::{tpch_stream, TraceParams};
use yarnsim::ClusterConfig;

const USAGE: &str = "usage: run_experiments [--quick] [--only ids] [--out dir] [--seed N] \
[--trace-out <trace.json>] [--app-trace-out <apptrace.json>] \
[--report-json <report.json>] [--metrics-out <metrics.json|.prom>] [--quiet]";

fn usage_err(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut scale = Scale::Full;
    let mut out_dir = PathBuf::from("results");
    let mut seed: u64 = 2018;
    let mut only: Option<Vec<String>> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut app_trace_out: Option<PathBuf> = None;
    let mut report_json_out: Option<PathBuf> = None;
    let mut metrics_out: Option<PathBuf> = None;
    let mut quiet = false;

    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        let _ = sdchecker::write_stdout(&format!("{USAGE}\n"));
        return ExitCode::SUCCESS;
    }
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => {
                scale = Scale::Quick;
                i += 1;
            }
            "--out" => {
                let Some(p) = args.get(i + 1) else {
                    return usage_err("--out needs a path");
                };
                out_dir = PathBuf::from(p);
                i += 2;
            }
            "--seed" => {
                let Some(s) = args.get(i + 1) else {
                    return usage_err("--seed needs a number");
                };
                let Ok(n) = s.parse() else {
                    return usage_err(&format!("invalid seed: {s}"));
                };
                seed = n;
                i += 2;
            }
            "--only" => {
                let Some(list) = args.get(i + 1) else {
                    return usage_err("--only needs a comma-separated id list");
                };
                only = Some(list.split(',').map(str::to_string).collect());
                i += 2;
            }
            "--trace-out" => {
                let Some(p) = args.get(i + 1) else {
                    return usage_err("--trace-out needs a path");
                };
                trace_out = Some(PathBuf::from(p));
                i += 2;
            }
            "--app-trace-out" => {
                let Some(p) = args.get(i + 1) else {
                    return usage_err("--app-trace-out needs a path");
                };
                app_trace_out = Some(PathBuf::from(p));
                i += 2;
            }
            "--report-json" => {
                let Some(p) = args.get(i + 1) else {
                    return usage_err("--report-json needs a path");
                };
                report_json_out = Some(PathBuf::from(p));
                i += 2;
            }
            "--metrics-out" => {
                let Some(p) = args.get(i + 1) else {
                    return usage_err("--metrics-out needs a path");
                };
                metrics_out = Some(PathBuf::from(p));
                i += 2;
            }
            "--quiet" => {
                quiet = true;
                i += 1;
            }
            other => {
                return usage_err(&format!("unknown argument {other}"));
            }
        }
    }

    // --report-json needs the analysis pipeline's streamed delay sketches,
    // which only record while the global recorder is enabled.
    if trace_out.is_some() || metrics_out.is_some() || report_json_out.is_some() {
        obs::enable();
    }

    let todo: Vec<_> = all_experiments()
        .into_iter()
        .filter(|(id, _)| only.as_ref().is_none_or(|o| o.iter().any(|x| x == id)))
        .collect();
    if todo.is_empty() {
        eprintln!("nothing to run");
        return ExitCode::from(2);
    }
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("failed to create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }

    let started = Instant::now();
    let results: Mutex<Vec<(usize, Figure, f64)>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for (idx, (id, run)) in todo.iter().enumerate() {
            let results = &results;
            s.spawn(move || {
                let _span = obs::span("experiment").arg("id", id);
                let t0 = Instant::now();
                let fig = run(scale, seed);
                let dt = t0.elapsed().as_secs_f64();
                if !quiet {
                    eprintln!(
                        "[{:>6.1}s] {id} done ({dt:.1}s)",
                        started.elapsed().as_secs_f64()
                    );
                }
                results.lock().unwrap().push((idx, fig, dt));
            });
        }
    });

    let mut results = results.into_inner().expect("experiment thread panicked");
    results.sort_by_key(|(idx, _, _)| *idx);

    let mut all = String::new();
    all.push_str("# SDchecker reproduction — all tables and figures\n\n");
    for (_, fig, dt) in &results {
        let rendered = fig.render();
        let path = out_dir.join(format!("{}.txt", fig.id));
        if let Err(e) = std::fs::write(&path, &rendered) {
            eprintln!("failed to write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        all.push_str(&rendered);
        all.push_str(&format!("_(generated in {dt:.1}s)_\n\n"));
    }
    let all_path = out_dir.join("ALL.md");
    if let Err(e) = std::fs::write(&all_path, &all) {
        eprintln!("failed to write {}: {e}", all_path.display());
        return ExitCode::FAILURE;
    }

    if let Some(path) = &app_trace_out {
        // A small reference scenario in its own right: enough applications
        // to show lane structure in Perfetto without a giant trace.
        let mut rng = scenario_rng(seed);
        let arrivals = tpch_stream(8, 2048.0, 4, &TraceParams::moderate(), &mut rng);
        let r = run_scenario(ClusterConfig::default(), seed, arrivals, default_horizon());
        if let Err(e) = std::fs::write(path, sdchecker::corpus_app_trace(&r.analysis)) {
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

    if let Some(path) = &report_json_out {
        let json = fleet_report_json(&results, scale, seed, started.elapsed().as_secs_f64());
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("failed to write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        if !quiet {
            eprintln!("wrote fleet report to {}", path.display());
        }
    }

    if let Err(e) =
        obs::export::write_files(obs::global(), trace_out.as_deref(), metrics_out.as_deref())
    {
        eprintln!("failed to write observability output: {e}");
        return ExitCode::FAILURE;
    }

    if !quiet {
        let mut stdout = std::io::stdout().lock();
        let _ = writeln!(
            stdout,
            "wrote {} artifacts to {} in {:.1}s",
            results.len(),
            out_dir.display(),
            started.elapsed().as_secs_f64()
        );
    }
    ExitCode::SUCCESS
}

/// Fleet-wide machine-readable report: which experiments ran, plus the
/// per-component delay percentiles streamed through the global recorder's
/// mergeable sketches while every scenario's corpus was analyzed.
fn fleet_report_json(
    results: &[(usize, Figure, f64)],
    scale: Scale,
    seed: u64,
    secs: f64,
) -> String {
    let snap = obs::global().snapshot();
    let scale = match scale {
        Scale::Full => "full",
        Scale::Quick => "quick",
    };
    document(0, Layout::Block, |doc| {
        json_fields!(doc, "schema" => "run-experiments-report-v1", "scale" => scale,
            "seed" => seed, "wall_seconds" => secs);
        let mut experiments = doc.arr("experiments", Layout::Block);
        for (_, fig, dt) in results {
            let mut obj = experiments.obj(Layout::Inline);
            json_fields!(obj, "id" => fig.id, "seconds" => dt);
        }
        drop(experiments);
        let mut fleet = doc.obj("fleet", Layout::Block);
        for metric in ["app_delay_ms", "container_delay_ms"] {
            let mut sketches = fleet.obj(metric, Layout::Block);
            for (k, s) in snap.sketches.iter().filter(|(k, _)| k.name == metric) {
                let component = k
                    .labels
                    .iter()
                    .find(|(l, _)| *l == "component")
                    .map(|(_, v)| v.as_str())
                    .unwrap_or("unlabeled");
                sketches.field(Name(component), s);
            }
        }
    })
}
