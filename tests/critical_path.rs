//! Properties of the critical-path extraction and the fleet quantile
//! sketches over *real* simulated corpora — seeded loops like
//! `decomposition_invariants`, each case a full simulation.

use std::collections::BTreeMap;

use obs::json::{self, Json};
use obs::QuantileSketch;
use sdchecker::{corpus_app_trace, critical_path, Summary};
use simkit::{Millis, SimRng};
use sparksim::simulate;
use workloads::{tpch_stream, TraceParams};
use yarnsim::{ClusterConfig, FaultConfig};

/// For every completed application in a simulated corpus: the critical
/// path is a monotone, contiguous tiling of submitted → first task whose
/// segment boundaries are real graph events and whose durations sum to
/// the decomposed end-to-end scheduling delay.
#[test]
fn critical_path_tiles_the_delay_across_corpora() {
    for case in 0..8u64 {
        let mut rng = SimRng::new(0xC217 + case);
        let seed = rng.range(1, 5_000);
        let queries = rng.range(3, 8) as usize;
        let executors = rng.range(1, 6) as u32;
        let opportunistic = rng.chance(0.5);

        let arrivals = tpch_stream(
            queries,
            2048.0,
            executors,
            &TraceParams::moderate(),
            &mut rng,
        );
        let cfg = if opportunistic {
            ClusterConfig::default().with_opportunistic()
        } else {
            ClusterConfig::default()
        };
        let (logs, _) = simulate(cfg, seed, arrivals, Millis::from_mins(600));
        let an = sdchecker::analyze_store(&logs);
        assert_eq!(an.graphs.len(), queries, "case {case}");

        for d in &an.delays {
            let g = &an.graphs[&d.app];
            let Some(total) = d.total_ms else {
                assert!(
                    critical_path(g).is_none(),
                    "case {case}: path without a first task"
                );
                continue;
            };
            let p =
                critical_path(g).unwrap_or_else(|| panic!("case {case}: no path for {}", d.app));
            assert_eq!(p.total_ms, total, "case {case}");
            assert!(!p.segments.is_empty(), "case {case}");

            // Monotone and contiguous: each segment starts where the
            // previous one ended, and time never flows backwards.
            for seg in &p.segments {
                assert!(seg.from <= seg.to, "case {case}: {seg:?}");
            }
            for w in p.segments.windows(2) {
                assert_eq!(w[0].to, w[1].from, "case {case}: gap in the tiling");
            }

            // The tiling covers submitted → first task exactly, so the
            // durations sum to the decomposed total delay.
            let sum: u64 = p.segments.iter().map(|s| s.dur_ms()).sum();
            assert_eq!(sum, total, "case {case}: tiling must sum to total");
            let blame: f64 = p.segments.iter().map(|s| p.blame_pct(s)).sum();
            assert!(
                (blame - 100.0).abs() < 1e-6,
                "case {case}: blame sums to {blame}%"
            );

            // Every segment boundary is the timestamp of a real event in
            // the scheduling graph — no invented instants.
            let mut event_ts: Vec<logmodel::TsMs> = g.app_events.iter().map(|(_, t)| *t).collect();
            for c in g.containers.values() {
                event_ts.extend(c.events.iter().map(|(_, t)| *t));
            }
            for seg in &p.segments {
                for t in [seg.from, seg.to] {
                    assert!(
                        event_ts.contains(&t),
                        "case {case}: boundary {t:?} is not a graph event"
                    );
                }
            }
        }
    }
}

/// The app trace draws what the report says. Over seeded fault-injected
/// corpora — the first is `sdsim --queries 40 --seed 7
/// --launch-failure-rate 0.1 --localization-failure-rate 0.05
/// --node-loss 120000:3`, whose six retried apps each have a dead
/// first-attempt AM — every delay slice of every application lasts
/// exactly what `decompose` reports for it, and every reported delay has
/// its slice unless a guard drops it. The guards, and where they fire:
/// * no slice runs backwards: an interval whose end was logged before its
///   start (a clock-skewed source, or a retried app's driver log whose
///   first line the first attempt's driver wrote before the final AM was
///   SCHEDULED) is reported as 0 and not drawn;
/// * the app lane nests inside `total_scheduling_delay`: `am_delay` is
///   dropped when the AM registered after the first task;
/// * `nm_queue` nests inside `launching`: it is dropped when the NM
///   reported RUNNING after the container's first log line.
#[test]
fn app_trace_draws_the_decomposed_delays() {
    // (queries, seed, launch failure rate, localization failure rate,
    // node loss at (ms, node)).
    let scenarios = [
        (40, 7, 0.1, 0.05, Some((120_000, 3))),
        (12, 11, 0.25, 0.0, None),
        (12, 3, 0.0, 0.15, Some((60_000, 5))),
        (8, 5, 0.0, 0.0, None),
    ];
    let (mut retried, mut failed_launches) = (0, 0);
    let mut bad = Vec::new();
    for (queries, seed, launch, localization, loss) in scenarios {
        let mut rng = SimRng::new(seed);
        let arrivals = tpch_stream(queries, 2048.0, 4, &TraceParams::moderate(), &mut rng);
        let faults = FaultConfig {
            launch_failure_rate: launch,
            localization_failure_rate: localization,
            node_loss: loss
                .map(|(ms, node)| (Millis(ms), node))
                .into_iter()
                .collect(),
            ..FaultConfig::default()
        };
        let cfg = ClusterConfig {
            faults,
            ..ClusterConfig::default()
        };
        let (logs, _) = simulate(cfg, seed, arrivals, Millis::from_mins(24 * 60));
        let an = sdchecker::analyze_store(&logs);
        let trace = json::parse(&corpus_app_trace(&an)).expect("the app trace is JSON");

        // Every slice's length, by (pid, cid or "", name). The critical
        // path's slices, which carry an `entity`, tile rather than measure.
        let mut slices: BTreeMap<(u64, String, String), u64> = BTreeMap::new();
        let events = trace.get("traceEvents").and_then(Json::as_arr).unwrap();
        for e in events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        {
            let field = |k: &str| e.get(k).unwrap();
            let arg = |k: &str| field("args").get(k).and_then(Json::as_str);
            if arg("entity").is_some() {
                continue;
            }
            let cid = arg("cid").unwrap_or_default().to_string();
            let name = field("name").as_str().unwrap().to_string();
            let key = (field("pid").as_f64().unwrap() as u64, cid, name);
            let dur = arg("dur_ms").unwrap().parse().unwrap();
            assert!(
                slices.insert(key, dur).is_none(),
                "one slice per row and lane"
            );
        }

        for d in &an.delays {
            let pid = u64::from(d.app.seq);
            retried += usize::from(d.attempts > 1);
            let app_rows = [
                ("total_scheduling_delay", d.total_ms, false),
                (
                    "am_delay",
                    d.am_ms,
                    d.am_ms > d.total_ms && d.total_ms.is_some(),
                ),
                ("driver_delay", d.driver_ms, false),
                ("executor_delay", d.executor_ms, false),
                ("allocation", d.alloc_ms, false),
            ];
            let mut rows: Vec<_> = app_rows.map(|(n, v, g)| (String::new(), n, v, g)).into();
            for c in &d.containers {
                failed_launches += usize::from(!c.is_am && c.launching_ms.is_none());
                let nested = c.launching_ms.is_some_and(|l| c.nm_queue_ms > Some(l));
                for (name, value, guarded) in [
                    ("acquisition", c.acquisition_ms, false),
                    ("localization", c.localization_ms, false),
                    ("launching", c.launching_ms, false),
                    ("nm_queue", c.nm_queue_ms, nested),
                ] {
                    rows.push((c.cid.to_string(), name, value, guarded));
                }
            }
            for (cid, name, value, guarded) in rows {
                let drawn = slices.get(&(pid, cid.clone(), name.to_string()));
                let ok = match (drawn, value) {
                    (Some(dur), Some(v)) => *dur == v,
                    (None, Some(v)) => v == 0 || guarded,
                    (drawn, None) => drawn.is_none(),
                };
                if !ok {
                    bad.push(format!(
                        "seed {seed}: {} {cid} {name}: slice {drawn:?}, report {value:?}",
                        d.app
                    ));
                }
            }
        }
    }
    assert!(
        retried >= 6 && failed_launches > 0,
        "{retried} retried apps, {failed_launches} failed launches"
    );
    assert!(
        bad.is_empty(),
        "{} disagreements:\n{}",
        bad.len(),
        bad.join("\n")
    );
}

/// Fleet-sketch acceptance: on a 1 000-app population, the streaming
/// sketch's percentiles match the exact `Summary` percentiles within 1 %,
/// no matter how the stream is sharded or in what order shards merge.
#[test]
fn sketch_matches_exact_summary_on_1k_apps() {
    // Per-app scheduling delays spanning the realistic range (sub-second
    // to minutes), heavy-tailed like the paper's populations.
    let mut rng = SimRng::new(0x5CE7C4);
    let values: Vec<u64> = (0..1_000)
        .map(|_| {
            let base = rng.range(300, 30_000);
            if rng.chance(0.1) {
                base * rng.range(2, 10) // tail
            } else {
                base
            }
        })
        .collect();
    let exact = Summary::from_ms(&values).unwrap();

    let check = |s: &QuantileSketch, what: &str| {
        for (q, want_s) in [(0.5, exact.p50), (0.95, exact.p95), (0.99, exact.p99)] {
            let got_s = s.quantile(q).unwrap() / 1_000.0; // ms → s like Summary
            let rel = (got_s - want_s).abs() / want_s;
            assert!(
                rel <= 0.01,
                "{what}: p{} off by {:.3}% ({got_s} vs {want_s})",
                q * 100.0,
                rel * 100.0
            );
        }
        assert_eq!(s.count(), 1_000, "{what}");
        assert_eq!(s.min(), Some(*values.iter().min().unwrap()), "{what}");
        assert_eq!(s.max(), Some(*values.iter().max().unwrap()), "{what}");
    };

    // Single stream.
    let mut single = QuantileSketch::new();
    for v in &values {
        single.observe(*v);
    }
    check(&single, "single stream");

    // Sharded round-robin across varying worker counts, merged forward
    // and backward: identical to the single stream, bit for bit.
    for shards in [2usize, 3, 7, 16] {
        let mut parts = vec![QuantileSketch::new(); shards];
        for (i, v) in values.iter().enumerate() {
            parts[i % shards].observe(*v);
        }
        let mut fwd = QuantileSketch::new();
        for p in &parts {
            fwd.merge(p);
        }
        let mut rev = QuantileSketch::new();
        for p in parts.iter().rev() {
            rev.merge(p);
        }
        assert_eq!(fwd, single, "{shards} shards (forward merge)");
        assert_eq!(rev, single, "{shards} shards (reverse merge)");
        check(&fwd, &format!("{shards} shards"));
    }
}
