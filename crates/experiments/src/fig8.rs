//! Figure 8: impact of the localized file size on the localization delay.
//!
//! Paper claims: the default ~500 MB Spark-SQL package localizes in
//! ~500 ms; an 8 GB package takes ~23 s and drags the total scheduling
//! delay with it; a few sub-second outliers remain even at 8 GB thanks to
//! same-node localization reuse.

use sdchecker::{cdf_table, summary_table, Summary};
use workloads::{map_jobs, tpch_stream, TraceParams};
use yarnsim::ClusterConfig;

use crate::harness::{default_horizon, run_scenario, scenario_rng, Figure, Scale, ScenarioResult};

/// Total localized payload sizes (MB): 0.5, 1, 2, 4, 8 GB. The default
/// package is 500 MB; the rest is the paper's `--files` padding.
pub(crate) const LOCALIZED_MB: [f64; 5] = [512.0, 1024.0, 2048.0, 4096.0, 8192.0];

/// Run one sweep point with `total_mb` of localized payload per
/// container.
pub fn scenario(total_mb: f64, scale: Scale, seed: u64) -> ScenarioResult {
    let n = scale.n(200);
    let mut rng = scenario_rng(seed ^ 0x08F);
    let extra = (total_mb - 500.0).max(0.0);
    let arrivals = map_jobs(
        tpch_stream(n, 2048.0, 4, &TraceParams::moderate(), &mut rng),
        |j| j.extra_files_mb = extra,
    );
    run_scenario(ClusterConfig::default(), seed, arrivals, default_horizon())
}

/// Reproduce Figure 8 (a) total delay and (b) localization delay per
/// payload size.
pub(crate) fn fig8(scale: Scale, seed: u64) -> Figure {
    let mut totals: Vec<(String, Vec<u64>)> = Vec::new();
    let mut locals: Vec<(String, Vec<u64>)> = Vec::new();
    for mb in LOCALIZED_MB {
        let r = scenario(mb, scale, seed);
        let label = format!("{:.1}GB", mb / 1024.0);
        totals.push((label.clone(), r.ms(|d| d.total_ms)));
        locals.push((label, r.container_ms(false, |c| c.localization_ms)));
    }
    let t_ref: Vec<(&str, Vec<u64>)> = totals
        .iter()
        .map(|(l, v)| (l.as_str(), v.clone()))
        .collect();
    let l_ref: Vec<(&str, Vec<u64>)> = locals
        .iter()
        .map(|(l, v)| (l.as_str(), v.clone()))
        .collect();

    let mut notes = Vec::new();
    if let (Some(small), Some(big)) = (
        Summary::from_ms(&locals[0].1),
        Summary::from_ms(&locals[4].1),
    ) {
        notes.push(format!(
            "localization median: {:.2}s @0.5GB (paper ~0.5s) vs {:.1}s @8GB (paper ~23s)",
            small.p50, big.p50
        ));
        notes.push(format!(
            "sub-second localizations at 8GB (same-node reuse): min {:.2}s",
            big.min
        ));
    }
    Figure {
        id: "fig8",
        title: "Localization delay vs localized file size".into(),
        tables: vec![
            (
                "(a) total delay by payload size".into(),
                summary_table(&t_ref),
            ),
            (
                "(b) localization delay by payload size".into(),
                summary_table(&l_ref),
            ),
            (
                "(b') localization CDFs".into(),
                cdf_table(&l_ref, &crate::fig4::CDF_QS),
            ),
        ],
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn localization_grows_superlinearly_with_payload() {
        let small = scenario(512.0, Scale::Quick, 61);
        let big = scenario(8192.0, Scale::Quick, 61);
        let s = Summary::from_ms(&small.container_ms(false, |c| c.localization_ms)).unwrap();
        let b = Summary::from_ms(&big.container_ms(false, |c| c.localization_ms)).unwrap();
        // 16x the bytes must give at least ~10x the median delay, and the
        // default package must localize in sub-second territory.
        assert!(s.p50 < 1.5, "default localization {:.2}s", s.p50);
        assert!(
            b.p50 > s.p50 * 8.0,
            "8GB localization {:.1}s vs 0.5GB {:.2}s",
            b.p50,
            s.p50
        );
    }

    #[test]
    fn total_delay_deteriorates_with_payload() {
        let small = scenario(512.0, Scale::Quick, 67);
        let big = scenario(8192.0, Scale::Quick, 67);
        let s = Summary::from_ms(&small.ms(|d| d.total_ms)).unwrap();
        let b = Summary::from_ms(&big.ms(|d| d.total_ms)).unwrap();
        assert!(
            b.p50 > s.p50 + 4.0,
            "8GB payload must add many seconds: {:.1}s vs {:.1}s",
            b.p50,
            s.p50
        );
    }

    #[test]
    fn cache_reuse_leaves_fast_outliers() {
        // Needs jobs wide enough that several executors colocate on a node
        // (the spread rule scatters 4-executor jobs across distinct nodes).
        let mut rng = crate::harness::scenario_rng(71);
        let arrivals = workloads::map_jobs(
            workloads::tpch_stream(
                Scale::Quick.n(200),
                2048.0,
                16,
                &workloads::TraceParams::moderate(),
                &mut rng,
            ),
            |j| j.extra_files_mb = 8192.0 - 500.0,
        );
        let big = crate::harness::run_scenario(
            yarnsim::ClusterConfig::default(),
            71,
            arrivals,
            crate::harness::default_horizon(),
        );
        let locs = big.container_ms(false, |c| c.localization_ms);
        let min = *locs.iter().min().unwrap();
        let max = *locs.iter().max().unwrap();
        assert!(
            min < max / 4,
            "expect some cache-hit localizations far below the downloads: {min} vs {max}"
        );
    }
}
