//! Figure 13: CPU interference (HiBench Kmeans).
//!
//! Paper claims at 16 concurrent Kmeans apps (4 executors × 16 vcores
//! each, i.e. oversubscribed CPU): total scheduling delay p95 degrades
//! ~1.6×; the *in-application* side takes the hit (driver delay up to
//! 2.9×, executor delay 2.4×) while localization is only mildly affected
//! (1.4× median — the NameNode lookup is CPU, the transfer is IO).

use sdchecker::{summary_table, Summary};
use simkit::Millis;
use sparksim::profiles;
use workloads::{merge, shifted, tpch_stream, TraceParams};
use yarnsim::ClusterConfig;

use crate::harness::{default_horizon, run_scenario, scenario_rng, Figure, Scale, ScenarioResult};

/// Interference levels (concurrent Kmeans applications).
pub(crate) const KMEANS_APPS: [u32; 4] = [0, 4, 8, 16];

/// Run one interference level: `apps` concurrent Kmeans applications
/// (the paper's 4/8/16), each iterating long enough to outlast the whole
/// query trace — sustained CPU pressure, not an open-loop respawn.
pub fn scenario(apps: u32, scale: Scale, seed: u64) -> ScenarioResult {
    let n = scale.n(160);
    let mut rng = scenario_rng(seed ^ 0x130);
    // Queries start 45 s in, once the Kmeans tasks are spinning.
    let queries = shifted(
        tpch_stream(n, 2048.0, 4, &TraceParams::moderate(), &mut rng),
        Millis(45_000),
    );
    let last = queries.last().map(|(t, _)| *t).unwrap_or(Millis::ZERO);
    let mut arrivals = queries;
    if apps > 0 {
        // One iteration ≈ 4 s uncontended and stretches under load;
        // over-provision the count so every app outlives the last query.
        let iterations = (last.0 / 3_000 + 50) as u32;
        let km = profiles::kmeans(iterations);
        let mut streams: Vec<Vec<(Millis, sparksim::JobSpec)>> = (0..apps)
            .map(|i| vec![(Millis(400 * i as u64), km.clone())])
            .collect();
        streams.push(arrivals);
        arrivals = merge(streams);
    }
    run_scenario(ClusterConfig::default(), seed, arrivals, default_horizon())
}

struct LevelStats {
    label: String,
    total: Vec<u64>,
    in_app: Vec<u64>,
    out_app: Vec<u64>,
    driver: Vec<u64>,
    executor: Vec<u64>,
    localization: Vec<u64>,
}

fn collect(apps: u32, scale: Scale, seed: u64) -> LevelStats {
    let r = scenario(apps, scale, seed);
    LevelStats {
        label: if apps == 0 {
            "default".into()
        } else {
            format!("{apps}-kmeans")
        },
        total: r.ms(|d| d.total_ms),
        in_app: r.ms(|d| d.in_app_ms),
        out_app: r.ms(|d| d.out_app_ms),
        driver: r.ms(|d| d.driver_ms),
        executor: r.ms(|d| d.executor_ms),
        localization: r.container_ms(false, |c| c.localization_ms),
    }
}

/// Reproduce Figure 13 (a)–(d).
pub fn fig13(scale: Scale, seed: u64) -> Figure {
    let levels: Vec<LevelStats> = KMEANS_APPS
        .iter()
        .map(|a| collect(*a, scale, seed))
        .collect();
    let mk = |f: fn(&LevelStats) -> &Vec<u64>| -> Vec<(String, Vec<u64>)> {
        levels
            .iter()
            .map(|l| (l.label.clone(), f(l).clone()))
            .collect()
    };
    fn as_ref(v: &[(String, Vec<u64>)]) -> Vec<(&str, Vec<u64>)> {
        v.iter().map(|(l, s)| (l.as_str(), s.clone())).collect()
    }

    let overall: Vec<(String, Vec<u64>)> = vec![
        ("total/default".into(), levels[0].total.clone()),
        ("total/16-kmeans".into(), levels[3].total.clone()),
        ("in/default".into(), levels[0].in_app.clone()),
        ("in/16-kmeans".into(), levels[3].in_app.clone()),
        ("out/default".into(), levels[0].out_app.clone()),
        ("out/16-kmeans".into(), levels[3].out_app.clone()),
    ];
    let executor = mk(|l| &l.executor);
    let driver = mk(|l| &l.driver);
    let localization = mk(|l| &l.localization);

    let mut notes = Vec::new();
    let ratio = |base: &Vec<u64>, loaded: &Vec<u64>, q: fn(&Summary) -> f64| -> Option<f64> {
        Some(q(&Summary::from_ms(loaded)?) / q(&Summary::from_ms(base)?))
    };
    if let Some(x) = ratio(&levels[0].total, &levels[3].total, |s| s.p95) {
        notes.push(format!(
            "total p95 degradation @16 kmeans: {x:.1}x (paper 1.6x)"
        ));
    }
    if let Some(x) = ratio(&levels[0].driver, &levels[3].driver, |s| s.p95) {
        notes.push(format!(
            "driver-delay degradation: {x:.1}x (paper up to 2.9x)"
        ));
    }
    if let Some(x) = ratio(&levels[0].executor, &levels[3].executor, |s| s.p95) {
        notes.push(format!(
            "executor-delay degradation: {x:.1}x (paper up to 2.4x)"
        ));
    }
    if let (Some(in_x), Some(out_x), Some(loc_x)) = (
        ratio(&levels[0].in_app, &levels[3].in_app, |s| s.p95),
        ratio(&levels[0].out_app, &levels[3].out_app, |s| s.p95),
        ratio(&levels[0].localization, &levels[3].localization, |s| s.p50),
    ) {
        notes.push(format!(
            "in-app ({in_x:.1}x) is hit harder than out-app ({out_x:.1}x); localization only {loc_x:.1}x (paper 1.4x)"
        ));
    }

    Figure {
        id: "fig13",
        title: "CPU interference (Kmeans) vs scheduling delay".into(),
        tables: vec![
            (
                "(a) overall delays, default vs 16-kmeans".into(),
                summary_table(&as_ref(&overall)),
            ),
            (
                "(b) executor delay by interference level".into(),
                summary_table(&as_ref(&executor)),
            ),
            (
                "(c) driver delay by interference level".into(),
                summary_table(&as_ref(&driver)),
            ),
            (
                "(d) localization delay by interference level".into(),
                summary_table(&as_ref(&localization)),
            ),
        ],
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_interference_hits_in_app_more_than_out_app() {
        let base = collect(0, Scale::Quick, 111);
        let loaded = collect(16, Scale::Quick, 111);

        let d_x = Summary::from_ms(&loaded.driver).unwrap().p95
            / Summary::from_ms(&base.driver).unwrap().p95;
        assert!(d_x > 1.3, "driver delay degradation {d_x:.2}x (paper 2.9x)");

        let in_x = Summary::from_ms(&loaded.in_app).unwrap().p95
            / Summary::from_ms(&base.in_app).unwrap().p95;
        let loc_x = Summary::from_ms(&loaded.localization).unwrap().p50
            / Summary::from_ms(&base.localization).unwrap().p50;
        assert!(
            in_x > loc_x,
            "in-app ({in_x:.2}x) must degrade more than localization ({loc_x:.2}x)"
        );
        assert!(
            loc_x < 3.0,
            "localization should be mildly affected: {loc_x:.2}x"
        );
    }

    #[test]
    fn degradation_grows_with_kmeans_count() {
        let lo = collect(4, Scale::Quick, 113);
        let hi = collect(16, Scale::Quick, 113);
        let l = Summary::from_ms(&lo.driver).unwrap();
        let h = Summary::from_ms(&hi.driver).unwrap();
        assert!(
            h.p95 >= l.p95 * 0.95,
            "driver delay at 16 apps ({:.1}s) must not improve over 4 apps ({:.1}s)",
            h.p95,
            l.p95
        );
    }
}
