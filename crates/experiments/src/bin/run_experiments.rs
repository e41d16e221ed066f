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
//! through quantile sketches while the experiments run, then
//! writes fleet-wide percentiles; `--app-trace-out` simulates a small
//! reference scenario and exports its app-time scheduling trace.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use experiments::harness::{default_horizon, run_scenario, scenario_rng};
use experiments::{all_experiments, Figure, Scale};
use obs::json::{document, Layout, Name};
use obs::json_fields;
use sdchecker::cli::{self, Args, OrFail, Stop};
use workloads::{tpch_stream, TraceParams};
use yarnsim::ClusterConfig;

const USAGE: &str = "usage: run_experiments [--quick] [--only ids] [--out dir] [--seed N] \
[--trace-out <trace.json>] [--app-trace-out <apptrace.json>] \
[--report-json <report.json>] [--metrics-out <metrics.json|.prom>] [--quiet]";

fn main() -> ExitCode {
    cli::main(USAGE, run)
}

fn run(mut args: Args) -> Result<(), Stop> {
    let mut scale = Scale::Full;
    let mut out_dir = PathBuf::from("results");
    let mut seed: u64 = 2018;
    let mut only: Option<String> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut app_trace_out: Option<PathBuf> = None;
    let mut report_json_out: Option<PathBuf> = None;
    let mut metrics_out: Option<PathBuf> = None;
    let mut quiet = false;
    while let Some(flag) = args.flag() {
        match flag.as_str() {
            "--quick" => scale = Scale::Quick,
            "--out" => out_dir = args.value(&flag)?,
            "--seed" => seed = args.value(&flag)?,
            "--only" => only = Some(args.value(&flag)?),
            "--trace-out" => trace_out = Some(args.value(&flag)?),
            "--app-trace-out" => app_trace_out = Some(args.value(&flag)?),
            "--report-json" => report_json_out = Some(args.value(&flag)?),
            "--metrics-out" => metrics_out = Some(args.value(&flag)?),
            "--quiet" => quiet = true,
            other => return Err(cli::unknown(other)),
        }
    }
    let mut todo = all_experiments();
    if let Some(only) = &only {
        let ids: Vec<&str> = only.split(',').collect();
        let known: Vec<&str> = todo.iter().map(|(id, _)| *id).collect();
        if let Some(bad) = ids.iter().find(|id| !known.contains(id)) {
            let known = known.join(",");
            return Err(Stop::Usage(format!(
                "--only names unknown experiment {bad} (known: {known})"
            )));
        }
        todo.retain(|(id, _)| ids.contains(id));
    }

    // --report-json needs the analysis pipeline's streamed delay sketches,
    // which only record while the global recorder is enabled.
    if trace_out.is_some() || metrics_out.is_some() || report_json_out.is_some() {
        obs::enable();
    }
    std::fs::create_dir_all(&out_dir)
        .or_fail(format_args!("failed to create {}", out_dir.display()))?;

    let started = Instant::now();
    let results: Vec<(Figure, f64)> = std::thread::scope(|s| {
        let handles: Vec<_> = todo
            .iter()
            .map(|(id, run)| {
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
                    (fig, dt)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });

    let mut all = String::new();
    all.push_str("# SDchecker reproduction — all tables and figures\n\n");
    for (fig, dt) in &results {
        let rendered = fig.render();
        let path = out_dir.join(format!("{}.txt", fig.id));
        std::fs::write(&path, &rendered)
            .or_fail(format_args!("failed to write {}", path.display()))?;
        all.push_str(&rendered);
        all.push_str(&format!("_(generated in {dt:.1}s)_\n\n"));
    }
    let all_path = out_dir.join("ALL.md");
    std::fs::write(&all_path, &all)
        .or_fail(format_args!("failed to write {}", all_path.display()))?;

    if let Some(path) = &app_trace_out {
        // A small reference scenario in its own right: enough applications
        // to show lane structure in Perfetto without a giant trace.
        let mut rng = scenario_rng(seed);
        let arrivals = tpch_stream(8, 2048.0, 4, &TraceParams::moderate(), &mut rng);
        let r = run_scenario(ClusterConfig::default(), seed, arrivals, default_horizon());
        let trace = sdchecker::corpus_app_trace(&r.analysis);
        cli::write_output(path, trace, "app-time scheduling trace", quiet)?;
    }
    if let Some(path) = &report_json_out {
        let json = fleet_report_json(&results, scale, seed, started.elapsed().as_secs_f64());
        cli::write_output(path, json, "fleet report", quiet)?;
    }
    cli::write_observability(trace_out.as_deref(), metrics_out.as_deref(), quiet)?;

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
    Ok(())
}

/// Fleet-wide machine-readable report: which experiments ran, plus the
/// per-component delay percentiles streamed through the global recorder's
/// sketches while every scenario's corpus was analyzed.
fn fleet_report_json(results: &[(Figure, f64)], scale: Scale, seed: u64, secs: f64) -> String {
    let snap = obs::global().snapshot();
    let scale = match scale {
        Scale::Full => "full",
        Scale::Quick => "quick",
    };
    document(0, Layout::Block, |doc| {
        json_fields!(doc, "schema" => "run-experiments-report-v1", "scale" => scale,
            "seed" => seed, "wall_seconds" => secs);
        let mut experiments = doc.arr("experiments", Layout::Block);
        for (fig, dt) in results {
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
