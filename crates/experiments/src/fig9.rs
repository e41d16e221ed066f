//! Figure 9: launching delay by instance type and by container runtime.
//!
//! * (a) Spark driver (`spm`) and executor (`spe`) launch in ~700 ms at
//!   the median; MapReduce instances (`mrm`, `mrsm`, `mrsr`) take a bit
//!   longer.
//! * (b) Docker adds ≈ 350 ms median / 658 ms p95 to the launch, with a
//!   long tail from the extra image I/O.

use logmodel::ApplicationId;
use sdchecker::{summary_table, AppDelays, Summary};
use simkit::Millis;
use sparksim::profiles;
use workloads::{map_jobs, merge, periodic, tpch_stream, TraceParams};
use yarnsim::{ClusterConfig, ContainerRuntime};

use crate::harness::{default_horizon, run_scenario, scenario_rng, Figure, Scale, ScenarioResult};

/// Mixed Spark + MapReduce scenario for the instance-type panel. Returns
/// the result plus the map-task count per MR job (needed to split `mrsm`
/// from `mrsr` by container sequence).
pub(crate) fn scenario_mixed(scale: Scale, seed: u64) -> (ScenarioResult, u32) {
    let n = scale.n(120);
    let mut rng = scenario_rng(seed ^ 0x919);
    let spark = tpch_stream(n, 2048.0, 4, &TraceParams::moderate(), &mut rng);
    let last = spark.last().map(|(t, _)| *t).unwrap_or(Millis::ZERO);
    let mr = profiles::mr_wordcount(16.0 * 128.0); // 16 maps, 2 reduces
    let maps = mr.stages[0].tasks;
    let mr_jobs = periodic(
        &mr,
        (n / 4).max(3),
        Millis(2_000),
        Millis(last.0 / (n as u64 / 4).max(1) + 1),
    );
    let r = run_scenario(
        ClusterConfig::default(),
        seed,
        merge(vec![spark, mr_jobs]),
        default_horizon(),
    );
    (r, maps)
}

/// Classify launching delays by instance type. `maps` is the per-MR-job
/// map count (container sequences 2..=maps+1 are maps, later ones are
/// reduces — MR allocates the map wave first).
pub(crate) fn launch_by_kind(r: &ScenarioResult, maps: u32) -> Vec<(&'static str, Vec<u64>)> {
    let mut spm = Vec::new();
    let mut spe = Vec::new();
    let mut mrm = Vec::new();
    let mut mrsm = Vec::new();
    let mut mrsr = Vec::new();
    let kind_of = |app: ApplicationId| r.kind_of(app);
    for d in &r.analysis.delays {
        let is_spark = matches!(
            kind_of(d.app),
            Some("spark-sql") | Some("spark-wc") | Some("kmeans")
        );
        let is_mr = matches!(kind_of(d.app), Some("mr-wc") | Some("dfsio"));
        if !is_spark && !is_mr {
            continue;
        }
        for c in &d.containers {
            let Some(l) = c.launching_ms else { continue };
            match (is_spark, c.is_am) {
                (true, true) => spm.push(l),
                (true, false) => spe.push(l),
                (false, true) => mrm.push(l),
                (false, false) => {
                    if c.cid.seq <= 1 + maps as u64 {
                        mrsm.push(l)
                    } else {
                        mrsr.push(l)
                    }
                }
            }
        }
    }
    vec![
        ("spm", spm),
        ("spe", spe),
        ("mrm", mrm),
        ("mrsm", mrsm),
        ("mrsr", mrsr),
    ]
}

/// Docker-vs-default scenario: the same query stream under each runtime.
pub(crate) fn scenario_runtime(
    runtime: ContainerRuntime,
    scale: Scale,
    seed: u64,
) -> ScenarioResult {
    let n = scale.n(150);
    let mut rng = scenario_rng(seed ^ 0x0D0C);
    let arrivals = map_jobs(
        tpch_stream(n, 2048.0, 4, &TraceParams::moderate(), &mut rng),
        |j| j.runtime = runtime,
    );
    run_scenario(ClusterConfig::default(), seed, arrivals, default_horizon())
}

fn launches(r: &ScenarioResult) -> Vec<u64> {
    r.measured()
        .iter()
        .flat_map(|d: &&AppDelays| d.containers.iter())
        .filter_map(|c| c.launching_ms)
        .collect()
}

/// Reproduce Figure 9 (a) and (b).
pub(crate) fn fig9(scale: Scale, seed: u64) -> Figure {
    let (mixed, maps) = scenario_mixed(scale, seed);
    let by_kind = launch_by_kind(&mixed, maps);

    let plain = scenario_runtime(ContainerRuntime::Default, scale, seed);
    let docker = scenario_runtime(ContainerRuntime::Docker, scale, seed);
    let runtime_samples: Vec<(&str, Vec<u64>)> =
        vec![("default", launches(&plain)), ("docker", launches(&docker))];

    let mut notes = Vec::new();
    if let (Some(s), Some(m)) = (
        Summary::from_ms(&by_kind[1].1),
        Summary::from_ms(&by_kind[3].1),
    ) {
        notes.push(format!(
            "median launch: spe {:.2}s (paper ~0.7s), mrsm {:.2}s (paper: MR a bit longer)",
            s.p50, m.p50
        ));
    }
    if let (Some(p), Some(d)) = (
        Summary::from_ms(&runtime_samples[0].1),
        Summary::from_ms(&runtime_samples[1].1),
    ) {
        notes.push(format!(
            "docker overhead: +{:.0}ms median, +{:.0}ms p95 (paper: +350ms / +658ms)",
            (d.p50 - p.p50) * 1000.0,
            (d.p95 - p.p95) * 1000.0
        ));
    }

    Figure {
        id: "fig9",
        title: "Launching delay by instance type and container runtime".into(),
        tables: vec![
            (
                "(a) launching delay by instance type".into(),
                summary_table(&by_kind),
            ),
            (
                "(b) launching delay: default vs Docker".into(),
                summary_table(&runtime_samples),
            ),
        ],
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spark_instances_launch_around_700ms() {
        let (r, maps) = scenario_mixed(Scale::Quick, 81);
        let by_kind = launch_by_kind(&r, maps);
        let spe = Summary::from_ms(&by_kind[1].1).unwrap();
        assert!(
            (0.4..1.6).contains(&spe.p50),
            "spe median launch {:.2}s (paper ~0.7s)",
            spe.p50
        );
        // All five kinds observed.
        for (label, v) in &by_kind {
            assert!(!v.is_empty(), "no samples for {label}");
        }
        // MR map tasks launch a bit slower than Spark executors.
        let mrsm = Summary::from_ms(&by_kind[3].1).unwrap();
        assert!(
            mrsm.p50 > spe.p50 * 0.9,
            "mrsm {:.2}s should not be faster than spe {:.2}s",
            mrsm.p50,
            spe.p50
        );
    }

    #[test]
    fn docker_adds_launch_overhead() {
        let plain = scenario_runtime(ContainerRuntime::Default, Scale::Quick, 83);
        let docker = scenario_runtime(ContainerRuntime::Docker, Scale::Quick, 83);
        let p = Summary::from_ms(&launches(&plain)).unwrap();
        let d = Summary::from_ms(&launches(&docker)).unwrap();
        let med_overhead = d.p50 - p.p50;
        assert!(
            (0.15..1.2).contains(&med_overhead),
            "median docker overhead {med_overhead:.3}s (paper 0.35s)"
        );
        // The tail must also shift clearly right. Whether it stretches
        // *more* than the median depends on which launches coincide with
        // image-read contention, so only a positive floor is invariant
        // across RNG draws at Quick scale.
        assert!(
            d.p95 - p.p95 >= 0.1,
            "docker tail stretch ({:.3}s) too small vs median overhead {med_overhead:.3}s",
            d.p95 - p.p95
        );
    }
}
