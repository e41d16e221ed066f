//! Figure 4 + Table III: overall scheduling delays over the long trace
//! (2 000 TPC-H queries, 2 GB input, 4 executors).
//!
//! Paper claims to compare against:
//! * p95: total 17.2 s, am 6 s, in 12.7 s, out 5.3 s;
//! * ≈ 40 % of job runtime is scheduling delay, ≈ 60 % worst case;
//! * > 70 % of the total delay is in-application (Spark), < 30 % YARN;
//! * am ≈ 35 % of total;
//! * the total delay has large variance, driven mostly by `in`.

use sdchecker::{cdf_table, ratio_summary_table, summary_table, Summary, Table};
use workloads::{tpch_stream, TraceParams};
use yarnsim::ClusterConfig;

use crate::harness::{default_horizon, run_scenario, scenario_rng, Figure, Scale, ScenarioResult};

/// The quantile grid used for CDF tables.
pub(crate) const CDF_QS: [f64; 9] = [0.05, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 1.0];

/// Run the Figure-4 scenario.
pub fn scenario(scale: Scale, seed: u64) -> ScenarioResult {
    let n = scale.n(2_000);
    let mut rng = scenario_rng(seed);
    let arrivals = tpch_stream(n, 2048.0, 4, &TraceParams::moderate(), &mut rng);
    run_scenario(ClusterConfig::default(), seed, arrivals, default_horizon())
}

/// Labeled per-app delay samples for the five Figure-4 series.
pub fn series(r: &ScenarioResult) -> Vec<(&'static str, Vec<u64>)> {
    vec![
        ("job", r.ms(|d| d.job_runtime_ms)),
        ("total", r.ms(|d| d.total_ms)),
        ("am", r.ms(|d| d.am_ms)),
        ("in", r.ms(|d| d.in_app_ms)),
        ("out", r.ms(|d| d.out_app_ms)),
    ]
}

/// Reproduce Figure 4 (a) CDFs, (b) normalized delays, (c) variance.
pub fn fig4(scale: Scale, seed: u64) -> Figure {
    let r = scenario(scale, seed);
    let series = series(&r);

    // (a) CDFs.
    let cdfs = cdf_table(&series, &CDF_QS);

    // (b) Normalized: total/runtime; am, in, out normalized to total.
    let measured = r.measured();
    let norm: Vec<(&str, Vec<f64>)> = vec![
        (
            "total/job",
            measured
                .iter()
                .filter_map(|d| d.total_over_runtime())
                .collect(),
        ),
        (
            "am/total",
            measured
                .iter()
                .filter_map(|d| d.normalized(d.am_ms))
                .collect(),
        ),
        (
            "in/total",
            measured
                .iter()
                .filter_map(|d| d.normalized(d.in_app_ms))
                .collect(),
        ),
        (
            "out/total",
            measured
                .iter()
                .filter_map(|d| d.normalized(d.out_app_ms))
                .collect(),
        ),
    ];
    let normalized = ratio_summary_table(&norm);

    // (c) Summary incl. std-dev (the paper plots the std-dev bars).
    let summaries = summary_table(&series);

    let mut notes = Vec::new();
    if let (Some(tot), Some(inn), Some(am)) = (
        Summary::from_ms(&series[1].1),
        Summary::from_ms(&series[3].1),
        Summary::from_ms(&series[2].1),
    ) {
        notes.push(format!(
            "p95: total {:.1}s, am {:.1}s, in {:.1}s (paper: 17.2 / 6 / 12.7)",
            tot.p95, am.p95, inn.p95
        ));
        notes.push(format!(
            "std-dev: total {:.1}s vs in {:.1}s vs am {:.1}s — `in` should dominate the variance",
            tot.std_dev, inn.std_dev, am.std_dev
        ));
    }
    if let (Some(frac), Some(in_frac), Some(am_frac)) = (
        Summary::from(&norm[0].1),
        Summary::from(&norm[2].1),
        Summary::from(&norm[1].1),
    ) {
        notes.push(format!(
            "scheduling delay is {:.0}% of job runtime at the median, {:.0}% at p99 (paper: ~40%, ~60% worst)",
            frac.p50 * 100.0,
            frac.p99 * 100.0
        ));
        notes.push(format!(
            "in-application share of total: {:.0}% median (paper: >70%); am share {:.0}% (paper: ~35%)",
            in_frac.p50 * 100.0,
            am_frac.p50 * 100.0
        ));
    }

    Figure {
        id: "fig4",
        title: format!(
            "Overall scheduling delays, {} TPC-H queries, 2GB input, 4 executors",
            r.measured().len()
        ),
        tables: vec![
            ("(a) delay CDFs (seconds at quantile)".into(), cdfs),
            ("(b) normalized delays".into(), normalized),
            ("(c) summary with standard deviation".into(), summaries),
        ],
        notes,
    }
}

/// Reproduce Table III: each component's contribution to the total
/// scheduling delay (medians over the Figure-4 population).
pub(crate) fn table3(scale: Scale, seed: u64) -> Figure {
    let r = scenario(scale, seed);
    let total = Summary::from_ms(&r.ms(|d| d.total_ms));
    let mut t = Table::new(&["source", "median (s)", "share of total"]);
    let Some(total) = total else {
        return Figure {
            id: "table3",
            title: "Summary of the scheduling delays (no complete apps)".into(),
            tables: vec![("contributions".into(), t)],
            notes: vec![],
        };
    };
    let mut notes = Vec::new();
    let mut push = |label: &str, ms: Vec<u64>| {
        if let Some(s) = Summary::from_ms(&ms) {
            t.row(vec![
                label.to_string(),
                format!("{:.3}", s.p50),
                format!("{:.1}%", 100.0 * s.p50 / total.p50),
            ]);
        }
    };
    // Allocation decision share: the RM-side portion of alloc delay is the
    // decision latency; the paper attributes <1% to it. We report the
    // acquisition-quantized alloc delay separately below.
    push(
        "1. alloc-delays (START_ALLO->END_ALLO)",
        r.ms(|d| d.alloc_ms),
    );
    push(
        "2. acqui-delays (per executor container)",
        r.container_ms(true, |c| c.acquisition_ms),
    );
    push(
        "3. local-delays (per container)",
        r.container_ms(false, |c| c.localization_ms),
    );
    push(
        "4. laun-delays (per container)",
        r.container_ms(false, |c| c.launching_ms),
    );
    push("5. driver-delay", r.ms(|d| d.driver_ms));
    push("6. executor-delay", r.ms(|d| d.executor_ms));
    notes.push(format!("total scheduling delay median: {:.3}s", total.p50));
    notes.push(
        "paper: executor-delay ≈ 41%, driver-delay the next largest, rows 2–4 ≈ 1% each"
            .to_string(),
    );
    Figure {
        id: "table3",
        title: "Summary of scheduling-delay components (contribution to total)".into(),
        tables: vec![("contributions".into(), t)],
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_quick_reproduces_shape() {
        let r = scenario(Scale::Quick, 7);
        let n = r.measured().len();
        assert!(n >= 50, "expected most of the quick trace to complete: {n}");

        let total = Summary::from_ms(&r.ms(|d| d.total_ms)).unwrap();
        let am = Summary::from_ms(&r.ms(|d| d.am_ms)).unwrap();
        let inn = Summary::from_ms(&r.ms(|d| d.in_app_ms)).unwrap();
        let out = Summary::from_ms(&r.ms(|d| d.out_app_ms)).unwrap();

        // Shape claims (who wins, roughly by how much):
        assert!(
            inn.p50 > out.p50 * 1.5,
            "in ({}) must dominate out ({})",
            inn.p50,
            out.p50
        );
        assert!(
            total.p95 > 10.0 && total.p95 < 40.0,
            "total p95 {}",
            total.p95
        );
        assert!(am.p95 > 3.0 && am.p95 < 12.0, "am p95 {}", am.p95);

        // Normalized claims.
        let fracs: Vec<f64> = r
            .measured()
            .iter()
            .filter_map(|d| d.total_over_runtime())
            .collect();
        let f = Summary::from(&fracs).unwrap();
        assert!(
            f.p50 > 0.15 && f.p50 < 0.6,
            "sched/runtime median {}",
            f.p50
        );

        let in_fracs: Vec<f64> = r
            .measured()
            .iter()
            .filter_map(|d| d.normalized(d.in_app_ms))
            .collect();
        let inf = Summary::from(&in_fracs).unwrap();
        assert!(inf.p50 > 0.55, "in/total median {} (paper >0.7)", inf.p50);
    }

    #[test]
    fn fig4_figure_renders_with_notes() {
        let f = fig4(Scale::Quick, 3);
        assert_eq!(f.tables.len(), 3);
        assert!(!f.notes.is_empty());
        let txt = f.render();
        assert!(txt.contains("(a) delay CDFs"));
        assert!(txt.contains("total"));
    }

    #[test]
    fn table3_executor_dominates() {
        let f = table3(Scale::Quick, 5);
        let txt = f.render();
        assert!(txt.contains("executor-delay"));
        // The executor row's share must be the largest of rows 1-6; crude
        // check: parse shares.
        let shares: Vec<f64> = txt
            .lines()
            .filter(|l| l.contains('%'))
            .filter_map(|l| l.split_whitespace().last())
            .filter_map(|s| s.trim_end_matches('%').parse::<f64>().ok())
            .collect();
        assert!(shares.len() >= 5, "{txt}");
        let max = shares.iter().cloned().fold(0.0, f64::max);
        let exec_share = shares[shares.len() - 1];
        assert_eq!(exec_share, max, "executor-delay must dominate: {txt}");
    }
}
