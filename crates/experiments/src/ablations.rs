//! Ablations beyond the paper (DESIGN.md): each isolates one design choice
//! the paper discusses qualitatively and quantifies it.
//!
//! 1. **AM heartbeat sweep** — the §V-B trade-off "increasing the
//!    heartbeat frequency alleviates the container acquisition delay but
//!    at the risk of overwhelming the cluster network".
//! 2. **Localization cache on/off** — why per-application caching keeps
//!    Fig 8's delays ≈ size/bandwidth instead of size × containers.
//! 3. **Parallel user-init width** — extends Fig 11-(b)'s single `opt`
//!    point into a sweep.
//! 4. **Opportunistic queue cap** — a Mercury-style bounded NM queue vs
//!    the unbounded queueing the paper measured (Fig 7-(b)).
//! 5. **Sparrow-style placement** — power-of-d probing vs the random
//!    placement the paper measured; quantifies how much of Fig 7-(b)'s
//!    queueing the §VI-cited sampling trick removes.

use sdchecker::{summary_table, Summary};
use simkit::Millis;
use workloads::{map_jobs, tpch_stream, TraceParams};
use yarnsim::ClusterConfig;

use crate::harness::{default_horizon, run_scenario, scenario_rng, Figure, Scale, ScenarioResult};

/// Sweep of AM heartbeat intervals (ms).
pub(crate) const HEARTBEATS_MS: [u64; 4] = [100, 500, 1000, 3000];

/// Acquisition delay under a given AM heartbeat interval.
pub(crate) fn scenario_heartbeat(interval_ms: u64, scale: Scale, seed: u64) -> ScenarioResult {
    let n = scale.n(120);
    let mut rng = scenario_rng(seed ^ 0xAB1 ^ interval_ms);
    let arrivals = map_jobs(
        tpch_stream(n, 2048.0, 4, &TraceParams::moderate(), &mut rng),
        |j| j.am_heartbeat_ms = interval_ms,
    );
    run_scenario(ClusterConfig::default(), seed, arrivals, default_horizon())
}

/// Localization totals with the per-app cache enabled/disabled, under a
/// heavy (4 GB) payload. Uses 16-executor jobs: container spreading
/// scatters small requests across distinct nodes, so colocation — the
/// precondition for cache hits — only arises for wider jobs.
pub(crate) fn scenario_cache(enabled: bool, scale: Scale, seed: u64) -> ScenarioResult {
    let n = scale.n(120);
    let mut rng = scenario_rng(seed ^ 0xAB2);
    let arrivals = map_jobs(
        tpch_stream(n, 2048.0, 16, &TraceParams::moderate(), &mut rng),
        |j| j.extra_files_mb = 3584.0,
    );
    let cfg = ClusterConfig {
        localization_cache: enabled,
        ..ClusterConfig::default()
    };
    run_scenario(cfg, seed, arrivals, default_horizon())
}

/// Executor delay for parallel user init across opened-file counts.
pub(crate) fn scenario_init_width(
    files: u32,
    parallel: bool,
    scale: Scale,
    seed: u64,
) -> ScenarioResult {
    let n = scale.n(120);
    let mut rng = scenario_rng(seed ^ 0xAB3 ^ ((files as u64) << 1) ^ u64::from(parallel));
    let arrivals = map_jobs(
        tpch_stream(n, 2048.0, 4, &TraceParams::moderate(), &mut rng),
        |j| {
            j.user_init.files = files;
            j.user_init.parallel = parallel;
        },
    );
    run_scenario(ClusterConfig::default(), seed, arrivals, default_horizon())
}

/// Queueing delay with a bounded (Mercury-style) opportunistic NM queue.
pub(crate) fn scenario_queue_cap(cap: usize, scale: Scale, seed: u64) -> ScenarioResult {
    let cfg = ClusterConfig {
        opp_queue_cap: cap,
        ..ClusterConfig::default().with_opportunistic()
    };
    loaded_opportunistic(cfg, scale, seed)
}

/// Queueing delay under a given opportunistic placement policy.
pub(crate) fn scenario_placement(
    placement: yarnsim::OppPlacement,
    scale: Scale,
    seed: u64,
) -> ScenarioResult {
    let cfg = ClusterConfig {
        opp_placement: placement,
        ..ClusterConfig::default().with_opportunistic()
    };
    loaded_opportunistic(cfg, scale, seed)
}

/// Shared loaded-cluster harness for the opportunistic ablations.
fn loaded_opportunistic(cfg: ClusterConfig, scale: Scale, seed: u64) -> ScenarioResult {
    let n = scale.n(100);
    let mut rng = scenario_rng(seed ^ 0xAB4);
    let queries = tpch_stream(n, 2048.0, 4, &TraceParams::moderate(), &mut rng);
    let last = queries.last().map(|(t, _)| *t).unwrap_or(Millis::ZERO);
    // Fill ~90% of cluster memory with long map tasks so random placement
    // frequently lands on busy nodes.
    let mut filler = sparksim::profiles::mr_wordcount(720.0 * 128.0);
    filler.executor_resource = yarnsim::ResourceReq {
        mem_mb: 4096,
        vcores: 1,
    };
    filler.stages[0].tasks = 720;
    filler.stages[0].task_cpu_ms = simkit::Dist::lognormal(120_000.0, 0.10);
    filler.stages[1].tasks = 0;
    let fillers = workloads::periodic(
        &filler,
        (last.0 / 110_000 + 2) as usize,
        Millis::ZERO,
        Millis(110_000),
    );
    run_scenario(
        cfg,
        seed,
        workloads::merge(vec![fillers, queries]),
        default_horizon(),
    )
}

/// Run all four ablations.
pub(crate) fn ablations(scale: Scale, seed: u64) -> Figure {
    // 1. Heartbeat sweep.
    let mut hb: Vec<(String, Vec<u64>)> = Vec::new();
    for ms in HEARTBEATS_MS {
        let r = scenario_heartbeat(ms, scale, seed);
        hb.push((
            format!("hb={ms}ms"),
            r.container_ms(true, |c| c.acquisition_ms),
        ));
    }
    let hb_ref: Vec<(&str, Vec<u64>)> = hb.iter().map(|(l, v)| (l.as_str(), v.clone())).collect();

    // 2. Cache on/off.
    let on = scenario_cache(true, scale, seed);
    let off = scenario_cache(false, scale, seed);
    let cache_samples: Vec<(&str, Vec<u64>)> = vec![
        ("cache on", on.container_ms(false, |c| c.localization_ms)),
        ("cache off", off.container_ms(false, |c| c.localization_ms)),
    ];

    // 3. Init width.
    let mut init: Vec<(String, Vec<u64>)> = Vec::new();
    for files in [8u32, 16, 32] {
        for parallel in [false, true] {
            let r = scenario_init_width(files, parallel, scale, seed);
            init.push((
                format!("{files} files {}", if parallel { "par" } else { "seq" }),
                r.ms(|d| d.executor_ms),
            ));
        }
    }
    let init_ref: Vec<(&str, Vec<u64>)> =
        init.iter().map(|(l, v)| (l.as_str(), v.clone())).collect();

    // 4. Opportunistic queue cap.
    let unbounded = scenario_queue_cap(usize::MAX, scale, seed);
    let bounded = scenario_queue_cap(1, scale, seed);
    let q_samples: Vec<(&str, Vec<u64>)> = vec![
        (
            "queue unbounded",
            unbounded.container_ms(true, |c| c.nm_queue_ms),
        ),
        ("queue cap=1", bounded.container_ms(true, |c| c.nm_queue_ms)),
    ];

    // 5. Sparrow-style placement.
    let pow2 = scenario_placement(yarnsim::OppPlacement::PowerOfChoices(2), scale, seed);
    let pow4 = scenario_placement(yarnsim::OppPlacement::PowerOfChoices(4), scale, seed);
    let place_samples: Vec<(&str, Vec<u64>)> = vec![
        (
            "random placement",
            unbounded.container_ms(true, |c| c.nm_queue_ms),
        ),
        ("power-of-2", pow2.container_ms(true, |c| c.nm_queue_ms)),
        ("power-of-4", pow4.container_ms(true, |c| c.nm_queue_ms)),
    ];

    let mut notes = Vec::new();
    if let (Some(fast), Some(slow)) = (Summary::from_ms(&hb[0].1), Summary::from_ms(&hb[3].1)) {
        notes.push(format!(
            "acquisition p95 scales with the heartbeat: {:.2}s @100ms vs {:.2}s @3000ms",
            fast.p95, slow.p95
        ));
    }
    if let (Some(a), Some(b)) = (
        Summary::from_ms(&cache_samples[0].1),
        Summary::from_ms(&cache_samples[1].1),
    ) {
        notes.push(format!(
            "per-app caching cuts mean localization from {:.1}s to {:.1}s at 4GB payloads",
            b.mean, a.mean
        ));
    }
    if let (Some(u), Some(bd)) = (
        Summary::from_ms(&q_samples[0].1),
        Summary::from_ms(&q_samples[1].1),
    ) {
        notes.push(format!(
            "queue cap=1: p95 queueing {:.1}s vs {:.1}s unbounded — on a fully saturated              cluster the cap degenerates to random placement (every probe is busy),              matching Mercury's observation that bounding queues needs load shedding too",
            bd.p95, u.p95
        ));
    }

    if let (Some(r), Some(p2)) = (
        Summary::from_ms(&place_samples[0].1),
        Summary::from_ms(&place_samples[1].1),
    ) {
        notes.push(format!(
            "power-of-2 probing cuts p95 queueing from {:.1}s to {:.1}s vs random placement",
            r.p95, p2.p95
        ));
    }

    Figure {
        id: "ablations",
        title: "Ablations: heartbeat, cache, init width, queue cap, placement".into(),
        tables: vec![
            (
                "(1) acquisition delay vs AM heartbeat".into(),
                summary_table(&hb_ref),
            ),
            (
                "(2) localization with/without per-app cache (4GB payload)".into(),
                summary_table(&cache_samples),
            ),
            (
                "(3) executor delay vs init width (seq vs parallel)".into(),
                summary_table(&init_ref),
            ),
            (
                "(4) opportunistic NM queueing vs queue cap (loaded cluster)".into(),
                summary_table(&q_samples),
            ),
            (
                "(5) opportunistic NM queueing vs placement policy".into(),
                summary_table(&place_samples),
            ),
        ],
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquisition_tracks_heartbeat_interval() {
        let fast = scenario_heartbeat(100, Scale::Quick, 131);
        let slow = scenario_heartbeat(3000, Scale::Quick, 131);
        let f = Summary::from_ms(&fast.container_ms(true, |c| c.acquisition_ms)).unwrap();
        let s = Summary::from_ms(&slow.container_ms(true, |c| c.acquisition_ms)).unwrap();
        assert!(
            f.max <= 0.12,
            "100ms heartbeat: acquisition max {:.3}s",
            f.max
        );
        assert!(
            s.max <= 3.1,
            "3000ms heartbeat: acquisition max {:.3}s",
            s.max
        );
        assert!(
            s.p50 > f.p50 * 4.0,
            "slower heartbeat must stretch acquisition: {:.3}s vs {:.3}s",
            s.p50,
            f.p50
        );
    }

    #[test]
    fn cache_reduces_localization() {
        let on = scenario_cache(true, Scale::Quick, 133);
        let off = scenario_cache(false, Scale::Quick, 133);
        let a = Summary::from_ms(&on.container_ms(false, |c| c.localization_ms)).unwrap();
        let b = Summary::from_ms(&off.container_ms(false, |c| c.localization_ms)).unwrap();
        assert!(
            b.mean >= a.mean,
            "disabling the cache cannot help: {:.2}s vs {:.2}s",
            b.mean,
            a.mean
        );
    }

    #[test]
    fn parallel_init_beats_sequential_at_width() {
        let seq = scenario_init_width(32, false, Scale::Quick, 137);
        let par = scenario_init_width(32, true, Scale::Quick, 137);
        let s = Summary::from_ms(&seq.ms(|d| d.executor_ms)).unwrap();
        let p = Summary::from_ms(&par.ms(|d| d.executor_ms)).unwrap();
        assert!(
            p.p50 < s.p50 * 0.6,
            "32-file parallel init must cut executor delay hard: {:.1}s vs {:.1}s",
            p.p50,
            s.p50
        );
    }

    #[test]
    fn power_of_choices_beats_random_placement() {
        let random = scenario_placement(yarnsim::OppPlacement::Random, Scale::Quick, 151);
        let pow2 = scenario_placement(yarnsim::OppPlacement::PowerOfChoices(2), Scale::Quick, 151);
        let r = Summary::from_ms(&random.container_ms(true, |c| c.nm_queue_ms)).unwrap();
        let p = Summary::from_ms(&pow2.container_ms(true, |c| c.nm_queue_ms)).unwrap();
        assert!(
            p.p95 <= r.p95,
            "probing must not worsen queueing: {:.1}s vs {:.1}s",
            p.p95,
            r.p95
        );
        assert!(
            p.mean < r.mean || r.mean < 0.1,
            "probing should reduce mean queueing: {:.2}s vs {:.2}s",
            p.mean,
            r.mean
        );
    }

    #[test]
    fn bounded_queue_reduces_worst_case_queueing() {
        let unbounded = scenario_queue_cap(usize::MAX, Scale::Quick, 139);
        let bounded = scenario_queue_cap(1, Scale::Quick, 139);
        let u = Summary::from_ms(&unbounded.container_ms(true, |c| c.nm_queue_ms)).unwrap();
        let b = Summary::from_ms(&bounded.container_ms(true, |c| c.nm_queue_ms)).unwrap();
        assert!(
            b.p95 <= u.p95,
            "capping the queue must not worsen queueing: {:.1}s vs {:.1}s",
            b.p95,
            u.p95
        );
    }
}
