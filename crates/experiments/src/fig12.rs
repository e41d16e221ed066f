//! Figure 12: IO interference (dfsIO HDFS writers).
//!
//! Paper claims at 100 writers × 20 GB: total scheduling delay p95
//! degrades ~3.9×; localization suffers most (median 9.4× / tail 7×,
//! 35 s); executor delay 2.5–3.5×; AM delay up to 8× (driver localization
//! is on its critical path, and each app localizes twice: driver then
//! executors).

use sdchecker::{summary_table, Summary};
use simkit::Millis;
use sparksim::profiles;
use workloads::{merge, shifted, tpch_stream, TraceParams};
use yarnsim::ClusterConfig;

use crate::harness::{default_horizon, run_scenario, scenario_rng, Figure, Scale, ScenarioResult};

/// Interference levels (concurrent dfsIO writers).
pub(crate) const WRITERS: [u32; 4] = [0, 25, 50, 100];

/// Run one interference level: a TPC-H short trace next to `writers`
/// concurrent dfsIO map tasks whose (replicated) writes outlast the whole
/// trace — the paper's pressure is continuous, and an open-loop respawn
/// would pile waves up past the measured operating point.
pub fn scenario(writers: u32, scale: Scale, seed: u64) -> ScenarioResult {
    let n = scale.n(160);
    let mut rng = scenario_rng(seed ^ 0x120);
    // Queries start 40 s in, once the writer streams are established.
    let queries = shifted(
        tpch_stream(n, 2048.0, 4, &TraceParams::moderate(), &mut rng),
        Millis(40_000),
    );
    let last = queries.last().map(|(t, _)| *t).unwrap_or(Millis::ZERO);
    let mut arrivals = queries;
    if writers > 0 {
        // Size each write so the streams last beyond the final query even
        // at the heavily contended per-stream rate (~0.07 MB/ms at 100
        // writers): duration × rate, with the paper's 20 GB as the floor.
        let gb = (last.as_f64() * 0.09 / 1024.0).max(20.0);
        let dfsio = profiles::dfsio(writers, gb);
        arrivals = merge(vec![arrivals, vec![(Millis::ZERO, dfsio)]]);
    }
    run_scenario(ClusterConfig::default(), seed, arrivals, default_horizon())
}

struct LevelStats {
    label: String,
    total: Vec<u64>,
    in_app: Vec<u64>,
    out_app: Vec<u64>,
    localization: Vec<u64>,
    executor: Vec<u64>,
    am: Vec<u64>,
}

fn collect(writers: u32, scale: Scale, seed: u64) -> LevelStats {
    let r = scenario(writers, scale, seed);
    LevelStats {
        label: if writers == 0 {
            "default".into()
        } else {
            format!("{writers}-interference")
        },
        total: r.ms(|d| d.total_ms),
        in_app: r.ms(|d| d.in_app_ms),
        out_app: r.ms(|d| d.out_app_ms),
        localization: r.container_ms(false, |c| c.localization_ms),
        executor: r.ms(|d| d.executor_ms),
        am: r.ms(|d| d.am_ms),
    }
}

/// Reproduce Figure 12 (a)–(d).
pub fn fig12(scale: Scale, seed: u64) -> Figure {
    let levels: Vec<LevelStats> = WRITERS.iter().map(|w| collect(*w, scale, seed)).collect();

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
        ("total/100-intf".into(), levels[3].total.clone()),
        ("in/default".into(), levels[0].in_app.clone()),
        ("in/100-intf".into(), levels[3].in_app.clone()),
        ("out/default".into(), levels[0].out_app.clone()),
        ("out/100-intf".into(), levels[3].out_app.clone()),
    ];
    let localization = mk(|l| &l.localization);
    let executor = mk(|l| &l.executor);
    let am = mk(|l| &l.am);

    let mut notes = Vec::new();
    let ratio = |base: &Vec<u64>, loaded: &Vec<u64>, q: fn(&Summary) -> f64| -> Option<f64> {
        Some(q(&Summary::from_ms(loaded)?) / q(&Summary::from_ms(base)?))
    };
    if let Some(x) = ratio(&levels[0].total, &levels[3].total, |s| s.p95) {
        notes.push(format!(
            "total p95 degradation @100 writers: {x:.1}x (paper 3.9x)"
        ));
    }
    if let (Some(m), Some(t)) = (
        ratio(&levels[0].localization, &levels[3].localization, |s| s.p50),
        ratio(&levels[0].localization, &levels[3].localization, |s| s.p95),
    ) {
        notes.push(format!(
            "localization degradation @100 writers: median {m:.1}x, tail {t:.1}x (paper 9.4x / 7x)"
        ));
    }
    if let Some(x) = ratio(&levels[0].executor, &levels[3].executor, |s| s.p95) {
        notes.push(format!(
            "executor-delay degradation: {x:.1}x (paper 2.5-3.5x)"
        ));
    }
    if let Some(x) = ratio(&levels[0].am, &levels[3].am, |s| s.p95) {
        notes.push(format!(
            "AM-delay degradation: {x:.1}x (paper up to 8x — two localizations per app)"
        ));
    }

    Figure {
        id: "fig12",
        title: "IO interference (dfsIO writers) vs scheduling delay".into(),
        tables: vec![
            (
                "(a) overall delays, default vs 100-interference".into(),
                summary_table(&as_ref(&overall)),
            ),
            (
                "(b) localization delay by interference level".into(),
                summary_table(&as_ref(&localization)),
            ),
            (
                "(c) executor delay by interference level".into(),
                summary_table(&as_ref(&executor)),
            ),
            (
                "(d) AM delay by interference level".into(),
                summary_table(&as_ref(&am)),
            ),
        ],
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_interference_degrades_everything_localization_most() {
        let base = collect(0, Scale::Quick, 101);
        let loaded = collect(100, Scale::Quick, 101);
        let b_tot = Summary::from_ms(&base.total).unwrap();
        let l_tot = Summary::from_ms(&loaded.total).unwrap();
        let tot_x = l_tot.p95 / b_tot.p95;
        assert!(
            tot_x > 1.5,
            "total p95 degradation {tot_x:.2}x (paper 3.9x)"
        );

        let b_loc = Summary::from_ms(&base.localization).unwrap();
        let l_loc = Summary::from_ms(&loaded.localization).unwrap();
        let loc_x = l_loc.p50 / b_loc.p50;
        assert!(
            loc_x > 3.0,
            "localization median degradation {loc_x:.2}x (paper 9.4x)"
        );
        assert!(
            loc_x > tot_x,
            "localization ({loc_x:.1}x) must degrade more than total ({tot_x:.1}x)"
        );

        let b_am = Summary::from_ms(&base.am).unwrap();
        let l_am = Summary::from_ms(&loaded.am).unwrap();
        assert!(
            l_am.p95 / b_am.p95 > 1.5,
            "AM delay must also degrade: {:.2}x",
            l_am.p95 / b_am.p95
        );
    }

    #[test]
    fn degradation_grows_with_level() {
        let lo = collect(25, Scale::Quick, 103);
        let hi = collect(100, Scale::Quick, 103);
        let l = Summary::from_ms(&lo.localization).unwrap();
        let h = Summary::from_ms(&hi.localization).unwrap();
        assert!(
            h.p50 > l.p50,
            "100 writers ({:.1}s) must beat 25 writers ({:.1}s)",
            h.p50,
            l.p50
        );
    }
}
