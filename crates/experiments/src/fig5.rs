//! Figure 5: impact of the job (input) size on the scheduling delay.
//!
//! Paper claims: (1) the *normalized* total scheduling delay shrinks as
//! input grows (tiny 20 MB jobs spend > 65 % of their runtime scheduling,
//! ~80 % worst case); (2) the *absolute* total delay grows with input —
//! p95 60.4 s at 200 GB ≈ 4× the 20 MB point, with a heavy tail — because
//! task I/O interferes with localization cluster-wide.

use sdchecker::{cdf_table, ratio_summary_table, summary_table, Summary};
use workloads::{tpch_stream, TraceParams};
use yarnsim::ClusterConfig;

use crate::harness::{default_horizon, run_scenario, scenario_rng, Figure, Scale, ScenarioResult};

/// The paper's input-size sweep (MB): 20 MB → 200 GB.
pub(crate) const INPUT_SIZES_MB: [f64; 4] = [20.0, 2048.0, 20.0 * 1024.0, 200.0 * 1024.0];

fn label(mb: f64) -> String {
    if mb >= 1024.0 {
        format!("{:.0}GB", mb / 1024.0)
    } else {
        format!("{mb:.0}MB")
    }
}

/// Run one sweep point. Bigger inputs use a sparser trace (the paper
/// keeps the cluster moderately loaded; 200 GB queries at the default
/// arrival rate would saturate it, which §IV-B explicitly excludes).
pub fn scenario(input_mb: f64, scale: Scale, seed: u64) -> ScenarioResult {
    let n = scale.n(200);
    let mut rng = scenario_rng(seed ^ (input_mb as u64));
    let sparse = (input_mb / 2048.0).max(1.0).powf(0.33);
    let params = TraceParams::moderate().sparser(sparse);
    let arrivals = tpch_stream(n, input_mb, 4, &params, &mut rng);
    run_scenario(ClusterConfig::default(), seed, arrivals, default_horizon())
}

/// Reproduce Figure 5 (a) total-delay CDFs and (b) normalized delays per
/// input size.
pub(crate) fn fig5(scale: Scale, seed: u64) -> Figure {
    let mut totals: Vec<(String, Vec<u64>)> = Vec::new();
    let mut norms: Vec<(String, Vec<f64>)> = Vec::new();
    for mb in INPUT_SIZES_MB {
        let r = scenario(mb, scale, seed);
        totals.push((label(mb), r.ms(|d| d.total_ms)));
        norms.push((
            label(mb),
            r.measured()
                .iter()
                .filter_map(|d| d.total_over_runtime())
                .collect(),
        ));
    }
    let totals_ref: Vec<(&str, Vec<u64>)> = totals
        .iter()
        .map(|(l, v)| (l.as_str(), v.clone()))
        .collect();
    let norms_ref: Vec<(&str, Vec<f64>)> =
        norms.iter().map(|(l, v)| (l.as_str(), v.clone())).collect();

    let mut notes = Vec::new();
    let small = Summary::from_ms(&totals[0].1);
    let big = Summary::from_ms(&totals[3].1);
    if let (Some(s), Some(b)) = (small, big) {
        notes.push(format!(
            "p95 total delay: {:.1}s @20MB vs {:.1}s @200GB ({:.1}x; paper: ~4x, 60.4s)",
            s.p95,
            b.p95,
            b.p95 / s.p95
        ));
    }
    if let (Some(ns), Some(nb)) = (Summary::from(&norms[0].1), Summary::from(&norms[3].1)) {
        notes.push(format!(
            "normalized delay median: {:.0}% @20MB vs {:.0}% @200GB (paper: >65% for tiny jobs, shrinking with size)",
            ns.p50 * 100.0,
            nb.p50 * 100.0
        ));
    }

    Figure {
        id: "fig5",
        title: "Total scheduling delay vs input data size".into(),
        tables: vec![
            (
                "(a) total delay CDFs by input size".into(),
                cdf_table(&totals_ref, &crate::fig4::CDF_QS),
            ),
            (
                "(b) total delay normalized to job runtime".into(),
                ratio_summary_table(&norms_ref),
            ),
            ("summary".into(), summary_table(&totals_ref)),
        ],
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalized_delay_shrinks_with_input() {
        let tiny = scenario(20.0, Scale::Quick, 11);
        let big = scenario(20.0 * 1024.0, Scale::Quick, 11);
        let nt: Vec<f64> = tiny
            .measured()
            .iter()
            .filter_map(|d| d.total_over_runtime())
            .collect();
        let nb: Vec<f64> = big
            .measured()
            .iter()
            .filter_map(|d| d.total_over_runtime())
            .collect();
        let st = Summary::from(&nt).unwrap();
        let sb = Summary::from(&nb).unwrap();
        assert!(
            st.p50 > sb.p50 * 2.0,
            "tiny jobs must be far more schedule-bound: {} vs {}",
            st.p50,
            sb.p50
        );
        assert!(st.p50 > 0.4, "tiny-job sched fraction {}", st.p50);
    }

    #[test]
    fn absolute_delay_grows_with_input() {
        let tiny = scenario(20.0, Scale::Quick, 13);
        let big = scenario(20.0 * 1024.0, Scale::Quick, 13);
        let t = Summary::from_ms(&tiny.ms(|d| d.total_ms)).unwrap();
        let b = Summary::from_ms(&big.ms(|d| d.total_ms)).unwrap();
        assert!(
            b.p95 > t.p95,
            "bigger input must lengthen the tail: {} vs {}",
            b.p95,
            t.p95
        );
    }
}
