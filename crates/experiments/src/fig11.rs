//! Figure 11: the in-application delay.
//!
//! * (a) driver delay is ~3 s for both wordcount and Spark-SQL (shared
//!   SparkContext code), but Spark-SQL's executor delay is much longer
//!   (p95 9.5 s vs 6.0 s) because its user init opens 8 TPC-H tables and
//!   builds a broadcast per table.
//! * (b) the executor delay grows with the number of opened files;
//!   parallelizing the init (Scala `Future`s) cuts ~2 s off the tail.

use sdchecker::{summary_table, Summary};
use workloads::{map_jobs, tpch_stream, TraceParams};
use yarnsim::ClusterConfig;

use crate::harness::{default_horizon, run_scenario, scenario_rng, Figure, Scale, ScenarioResult};

/// Which app runs in panel (a).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum App {
    /// Spark wordcount (1 opened file).
    Wordcount,
    /// Spark-SQL / TPC-H (8 opened files).
    SparkSql,
}

/// Panel (a) scenario: a short trace of one application type.
pub(crate) fn scenario_app(app: App, scale: Scale, seed: u64) -> ScenarioResult {
    let n = scale.n(200);
    let mut rng = scenario_rng(seed ^ 0x11A ^ (app as u64));
    let arrivals = match app {
        App::SparkSql => tpch_stream(n, 2048.0, 4, &TraceParams::moderate(), &mut rng),
        App::Wordcount => {
            // Same arrival process, wordcount jobs.
            let times = workloads::arrival_times(n, &TraceParams::moderate(), &mut rng);
            times
                .into_iter()
                .map(|t| (t, sparksim::profiles::spark_wordcount(2048.0, 4)))
                .collect()
        }
    };
    run_scenario(ClusterConfig::default(), seed, arrivals, default_horizon())
}

/// Panel (b) scenario: Spark-SQL with the opened-file count scaled by
/// `files_multiplier` (x1 = the 8 TPC-H tables) and optionally the
/// parallel (`opt`) init.
pub(crate) fn scenario_files(
    files_multiplier: u32,
    parallel: bool,
    scale: Scale,
    seed: u64,
) -> ScenarioResult {
    let n = scale.n(200);
    let mut rng = scenario_rng(seed ^ 0x11B);
    let arrivals = map_jobs(
        tpch_stream(n, 2048.0, 4, &TraceParams::moderate(), &mut rng),
        |j| {
            j.user_init.files = 8 * files_multiplier;
            j.user_init.parallel = parallel;
        },
    );
    run_scenario(ClusterConfig::default(), seed, arrivals, default_horizon())
}

/// Reproduce Figure 11 (a) and (b).
pub(crate) fn fig11(scale: Scale, seed: u64) -> Figure {
    // (a) driver + executor delay per app.
    let wc = scenario_app(App::Wordcount, scale, seed);
    let sql = scenario_app(App::SparkSql, scale, seed);
    let a_samples: Vec<(&str, Vec<u64>)> = vec![
        ("wc driver", wc.ms(|d| d.driver_ms)),
        ("sql driver", sql.ms(|d| d.driver_ms)),
        ("wc executor", wc.ms(|d| d.executor_ms)),
        ("sql executor", sql.ms(|d| d.executor_ms)),
    ];

    // (b) executor delay vs opened files.
    let mut b_samples: Vec<(String, Vec<u64>)> = Vec::new();
    let opt = scenario_files(1, true, scale, seed);
    b_samples.push(("opt".into(), opt.ms(|d| d.executor_ms)));
    for m in [1u32, 2, 4, 8] {
        let r = scenario_files(m, false, scale, seed);
        b_samples.push((format!("x{m}"), r.ms(|d| d.executor_ms)));
    }
    let b_ref: Vec<(&str, Vec<u64>)> = b_samples
        .iter()
        .map(|(l, v)| (l.as_str(), v.clone()))
        .collect();

    let mut notes = Vec::new();
    if let (Some(wd), Some(sd), Some(we), Some(se)) = (
        Summary::from_ms(&a_samples[0].1),
        Summary::from_ms(&a_samples[1].1),
        Summary::from_ms(&a_samples[2].1),
        Summary::from_ms(&a_samples[3].1),
    ) {
        notes.push(format!(
            "driver delay ~identical: wc {:.1}s vs sql {:.1}s (paper: both ~3s)",
            wd.p50, sd.p50
        ));
        notes.push(format!(
            "executor delay p95: wc {:.1}s vs sql {:.1}s (paper: 6.0s vs 9.5s)",
            we.p95, se.p95
        ));
    }
    if let (Some(opt), Some(x1)) = (
        Summary::from_ms(&b_samples[0].1),
        Summary::from_ms(&b_samples[1].1),
    ) {
        notes.push(format!(
            "parallel init cuts the tail: opt p95 {:.1}s vs x1 p95 {:.1}s (paper: ~2s reduction)",
            opt.p95, x1.p95
        ));
    }

    Figure {
        id: "fig11",
        title: "In-application delay: driver/executor components and user init".into(),
        tables: vec![
            (
                "(a) driver & executor delay by application".into(),
                summary_table(&a_samples),
            ),
            (
                "(b) executor delay vs opened files (opt = parallel init)".into(),
                summary_table(&b_ref),
            ),
        ],
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn driver_delay_same_executor_delay_differs() {
        let wc = scenario_app(App::Wordcount, Scale::Quick, 91);
        let sql = scenario_app(App::SparkSql, Scale::Quick, 91);
        let wd = Summary::from_ms(&wc.ms(|d| d.driver_ms)).unwrap();
        let sd = Summary::from_ms(&sql.ms(|d| d.driver_ms)).unwrap();
        // Shared SparkContext code: medians within 30%.
        let ratio = sd.p50 / wd.p50;
        assert!(
            (0.7..1.3).contains(&ratio),
            "driver delays diverged: {ratio}"
        );
        assert!(
            (2.0..5.0).contains(&sd.p50),
            "driver median {:.1}s (paper ~3s)",
            sd.p50
        );

        let we = Summary::from_ms(&wc.ms(|d| d.executor_ms)).unwrap();
        let se = Summary::from_ms(&sql.ms(|d| d.executor_ms)).unwrap();
        assert!(
            se.p95 > we.p95 + 1.5,
            "sql executor p95 {:.1}s must exceed wc {:.1}s by seconds",
            se.p95,
            we.p95
        );
    }

    #[test]
    fn executor_delay_grows_with_files_and_opt_shrinks_it() {
        let x1 = scenario_files(1, false, Scale::Quick, 93);
        let x4 = scenario_files(4, false, Scale::Quick, 93);
        let opt = scenario_files(1, true, Scale::Quick, 93);
        let s1 = Summary::from_ms(&x1.ms(|d| d.executor_ms)).unwrap();
        let s4 = Summary::from_ms(&x4.ms(|d| d.executor_ms)).unwrap();
        let so = Summary::from_ms(&opt.ms(|d| d.executor_ms)).unwrap();
        assert!(
            s4.p50 > s1.p50 * 1.8,
            "4x files must lengthen executor delay: {:.1}s vs {:.1}s",
            s4.p50,
            s1.p50
        );
        assert!(
            so.p95 < s1.p95 - 1.0,
            "opt p95 {:.1}s must beat default p95 {:.1}s by ≥1s",
            so.p95,
            s1.p95
        );
    }
}
