//! A production-like query stream: the paper's "short trace" — 200 TPC-H
//! queries arriving in google-trace-style bursts — analyzed end to end.
//!
//! Prints the Figure-4-style overall delay breakdown plus a per-query
//! table of the slowest jobs, showing how individual queries decompose.
//!
//! ```sh
//! cargo run --release --example tpch_trace -- [--queries N] [--seed S]
//! ```

use std::process::ExitCode;

use sdchecker::cli::{self, Args, Stop};
use sdchecker::{analyze_store, cdf_table, summary_table, Table};
use simkit::SimRng;
use sparksim::simulate;
use workloads::{tpch_stream, TraceParams};
use yarnsim::ClusterConfig;

const USAGE: &str = "usage: tpch_trace [--queries N] [--seed S]";

fn main() -> ExitCode {
    cli::main(USAGE, run)
}

fn run(mut args: Args) -> Result<(), Stop> {
    let mut n: usize = 200;
    let mut seed: u64 = 2018;
    while let Some(flag) = args.flag() {
        match flag.as_str() {
            "--queries" => n = args.value_if(&flag, "at least 1", |n| *n >= 1)?,
            "--seed" => seed = args.value(&flag)?,
            other => return Err(cli::unknown(other)),
        }
    }

    let mut rng = SimRng::new(seed);
    let arrivals = tpch_stream(n, 2048.0, 4, &TraceParams::moderate(), &mut rng);
    let span = arrivals.last().map_or(simkit::Millis::ZERO, |a| a.0);
    println!("submitting {n} TPC-H queries over {span} of simulated time...");

    let t0 = std::time::Instant::now();
    let (logs, summaries) = simulate(
        ClusterConfig::default(),
        seed,
        arrivals,
        simkit::Millis::from_mins(12 * 60),
    );
    println!(
        "simulated {} completed jobs, {} log records, in {:.2?} wall time",
        summaries.len(),
        logs.total_records(),
        t0.elapsed()
    );

    let an = analyze_store(&logs);
    let series: Vec<(&str, Vec<u64>)> = vec![
        ("job runtime", an.component_ms(|d| d.job_runtime_ms)),
        ("total", an.component_ms(|d| d.total_ms)),
        ("am", an.component_ms(|d| d.am_ms)),
        ("in", an.component_ms(|d| d.in_app_ms)),
        ("out", an.component_ms(|d| d.out_app_ms)),
    ];
    println!("\nOverall delays (seconds):");
    print!("{}", summary_table(&series).render());
    println!("\nCDF quantiles (seconds):");
    print!(
        "{}",
        cdf_table(&series, &[0.25, 0.5, 0.75, 0.9, 0.95, 0.99]).render()
    );

    // The five worst queries by total scheduling delay, decomposed.
    let mut worst: Vec<_> = an.delays.iter().filter(|d| d.total_ms.is_some()).collect();
    worst.sort_by_key(|d| std::cmp::Reverse(d.total_ms));
    let mut t = Table::new(&["app", "query", "total(s)", "am(s)", "in(s)", "out(s)"]);
    for d in worst.iter().take(5) {
        let label = summaries
            .iter()
            .find(|s| s.app == d.app)
            .map(|s| s.label.clone())
            .unwrap_or_default();
        let sec = |v: Option<u64>| {
            v.map(|x| format!("{:.2}", x as f64 / 1000.0))
                .unwrap_or_default()
        };
        t.row(vec![
            d.app.seq.to_string(),
            label,
            sec(d.total_ms),
            sec(d.am_ms),
            sec(d.in_app_ms),
            sec(d.out_app_ms),
        ]);
    }
    println!("\nSlowest-scheduled queries:");
    print!("{}", t.render());
    Ok(())
}
