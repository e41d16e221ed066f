//! Figure 6: impact of the number of executors on the scheduling delay.
//!
//! Paper claims: more executors ⇒ longer total delay (p95 21.5 s at 16
//! executors, ~4 s over the 8-executor point) and a wider Cl−Cf spread
//! (first-to-last container launch), because Spark waits for 80 % of the
//! requested executors before scheduling tasks and more requests add more
//! variance.

use sdchecker::{cdf_table, summary_table, Summary};
use workloads::{tpch_stream, TraceParams};
use yarnsim::ClusterConfig;

use crate::harness::{default_horizon, run_scenario, scenario_rng, Figure, Scale, ScenarioResult};

/// The executor-count sweep.
pub(crate) const EXECUTOR_COUNTS: [u32; 3] = [4, 8, 16];

/// Run one sweep point.
pub fn scenario(executors: u32, scale: Scale, seed: u64) -> ScenarioResult {
    let n = scale.n(200);
    let mut rng = scenario_rng(seed ^ 0x06E);
    let arrivals = tpch_stream(n, 2048.0, executors, &TraceParams::moderate(), &mut rng);
    run_scenario(ClusterConfig::default(), seed, arrivals, default_horizon())
}

/// Reproduce Figure 6 (a) total delay and (b) Cl−Cf spread per executor
/// count.
pub(crate) fn fig6(scale: Scale, seed: u64) -> Figure {
    let mut totals: Vec<(String, Vec<u64>)> = Vec::new();
    let mut spreads: Vec<(String, Vec<u64>)> = Vec::new();
    for n_exec in EXECUTOR_COUNTS {
        let r = scenario(n_exec, scale, seed);
        totals.push((format!("{n_exec} executors"), r.ms(|d| d.total_ms)));
        spreads.push((
            format!("{n_exec} executors"),
            r.measured()
                .iter()
                .filter_map(|d| d.cl_minus_cf_ms())
                .collect(),
        ));
    }
    let t_ref: Vec<(&str, Vec<u64>)> = totals
        .iter()
        .map(|(l, v)| (l.as_str(), v.clone()))
        .collect();
    let s_ref: Vec<(&str, Vec<u64>)> = spreads
        .iter()
        .map(|(l, v)| (l.as_str(), v.clone()))
        .collect();

    let mut notes = Vec::new();
    if let (Some(lo), Some(mid), Some(hi)) = (
        Summary::from_ms(&totals[0].1),
        Summary::from_ms(&totals[1].1),
        Summary::from_ms(&totals[2].1),
    ) {
        notes.push(format!(
            "p95 total: {:.1}s @4 exec, {:.1}s @8, {:.1}s @16 (paper: 21.5s @16, +4s over @8)",
            lo.p95, mid.p95, hi.p95
        ));
    }
    if let (Some(lo), Some(hi)) = (
        Summary::from_ms(&spreads[0].1),
        Summary::from_ms(&spreads[2].1),
    ) {
        notes.push(format!(
            "Cl-Cf spread p95: {:.2}s @4 exec vs {:.2}s @16 — more executors, wider spread",
            lo.p95, hi.p95
        ));
    }

    Figure {
        id: "fig6",
        title: "Scheduling delay vs number of executors".into(),
        tables: vec![
            (
                "(a) total delay CDFs by executor count".into(),
                cdf_table(&t_ref, &crate::fig4::CDF_QS),
            ),
            (
                "(b) Cl-Cf delay (first to last container launch)".into(),
                summary_table(&s_ref),
            ),
            ("total delay summary".into(), summary_table(&t_ref)),
        ],
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_executors_longer_delay_and_wider_spread() {
        let lo = scenario(4, Scale::Quick, 21);
        let hi = scenario(16, Scale::Quick, 21);
        let t_lo = Summary::from_ms(&lo.ms(|d| d.total_ms)).unwrap();
        let t_hi = Summary::from_ms(&hi.ms(|d| d.total_ms)).unwrap();
        assert!(
            t_hi.p95 > t_lo.p95,
            "16 executors p95 {} must exceed 4 executors p95 {}",
            t_hi.p95,
            t_lo.p95
        );
        let s_lo: Vec<u64> = lo
            .measured()
            .iter()
            .filter_map(|d| d.cl_minus_cf_ms())
            .collect();
        let s_hi: Vec<u64> = hi
            .measured()
            .iter()
            .filter_map(|d| d.cl_minus_cf_ms())
            .collect();
        let s_lo = Summary::from_ms(&s_lo).unwrap();
        let s_hi = Summary::from_ms(&s_hi).unwrap();
        assert!(
            s_hi.p95 > s_lo.p95,
            "Cl-Cf spread must widen: {} vs {}",
            s_hi.p95,
            s_lo.p95
        );
    }
}
