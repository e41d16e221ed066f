//! Table II: container-allocation throughput under various cluster loads.
//!
//! Paper numbers: 272 / 1 056 / 1 607 / 2 831 containers per second at
//! 10 / 40 / 70 / 100 % load — throughput *grows* with load (the
//! scheduler is not the bottleneck at this cluster size).
//!
//! Reaching thousands of 1 GB containers requires YARN's stock
//! `DefaultResourceCalculator` (memory-only packing — 3 200 containers on
//! this cluster), which is also what the paper's Hadoop would have used;
//! see [`yarnsim::ResourceCalculator::MemoryOnly`].

use sdchecker::Table;
use simkit::Millis;
use sparksim::profiles;
use yarnsim::{ClusterConfig, ResourceCalculator};

use crate::harness::{default_horizon, run_scenario, Figure, Scale, ScenarioResult};

/// The load levels of Table II.
pub(crate) const LOADS: [f64; 4] = [0.1, 0.4, 0.7, 1.0];

/// Containers that fit by memory at 100 % load (25 × 128 GB / 1 GB).
pub(crate) const MEM_CAPACITY_CONTAINERS: f64 = 3_200.0;

/// Run one load point: a MapReduce wordcount sized so its map wave
/// occupies `load` of the cluster's memory.
pub fn scenario(load: f64, scale: Scale, seed: u64) -> ScenarioResult {
    let maps = match scale {
        Scale::Full => (load * MEM_CAPACITY_CONTAINERS) as u64,
        Scale::Quick => (load * 400.0).max(8.0) as u64,
    };
    let mut job = profiles::mr_wordcount(maps as f64 * 128.0);
    job.stages[0].tasks = maps as u32;
    job.stages[1].tasks = (maps / 8).max(1) as u32;
    let cfg = ClusterConfig {
        resource_calculator: ResourceCalculator::MemoryOnly,
        ..ClusterConfig::default()
    };
    run_scenario(cfg, seed, vec![(Millis(100), job)], default_horizon())
}

/// Measured throughput (peak 1-second window) at one load level.
pub(crate) fn throughput_at(load: f64, scale: Scale, seed: u64) -> f64 {
    scenario(load, scale, seed)
        .analysis
        .allocation_throughput(1000)
        .peak_per_sec
}

/// Reproduce Table II.
pub fn table2(scale: Scale, seed: u64) -> Figure {
    let mut t = Table::new(&["cluster load", "throughput (1/s)", "paper (1/s)"]);
    let paper = [272.0, 1056.0, 1607.0, 2831.0];
    let mut rates = Vec::new();
    for (i, load) in LOADS.iter().enumerate() {
        let rate = throughput_at(*load, scale, seed);
        rates.push(rate);
        t.row(vec![
            format!("{:.0}%", load * 100.0),
            format!("{rate:.0}"),
            format!("{:.0}", paper[i]),
        ]);
    }
    let monotone = rates.windows(2).all(|w| w[1] >= w[0]);
    Figure {
        id: "table2",
        title: "Container allocation throughput vs cluster load".into(),
        tables: vec![("throughput".into(), t)],
        notes: vec![format!(
            "throughput grows with load ({}), saturating near the RM batch rate",
            if monotone {
                "monotone, as in the paper"
            } else {
                "NON-MONOTONE — check calibration"
            }
        )],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_scales_with_load() {
        let lo = throughput_at(0.1, Scale::Quick, 51);
        let hi = throughput_at(1.0, Scale::Quick, 51);
        assert!(
            hi > lo * 2.0,
            "throughput must grow with load: {lo:.0}/s -> {hi:.0}/s"
        );
    }

    #[test]
    fn full_scale_peak_is_thousands() {
        // Even a single Full point is fast; check the 100% load magnitude.
        let hi = throughput_at(1.0, Scale::Full, 52);
        assert!(
            (1500.0..4000.0).contains(&hi),
            "100% load throughput {hi:.0}/s (paper: 2831/s)"
        );
    }

    #[test]
    fn table_renders_all_levels() {
        let f = table2(Scale::Quick, 53);
        let txt = f.render();
        for label in ["10%", "40%", "70%", "100%"] {
            assert!(txt.contains(label), "{txt}");
        }
    }
}
