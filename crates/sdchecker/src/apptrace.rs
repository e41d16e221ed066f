//! Application-time Perfetto traces: the scheduling graph as a slice
//! timeline in *log time*, not wall-clock time.
//!
//! `obs::export` already renders the analysis pipeline's own spans in
//! wall time; this module reuses the same [`TraceEvents`] writer but
//! feeds it the **simulated/log clock** — every `ts` is the event's
//! `TsMs` (milliseconds since the run epoch) converted to microseconds.
//! One Perfetto *process* per application, one *thread* lane per entity
//! (app, RM, driver, the critical path, and each container), one slice
//! per delay interval of [`decompose`](crate::decompose)'s table — so
//! each lasts exactly what the report says — and flow arrows chaining
//! the [`critical_path`](crate::critical) segments.
//! Open the file in <https://ui.perfetto.dev> and the paper's Fig 10
//! picture — executors idling while the driver initializes — is directly
//! visible, per application, with exact component boundaries.

use obs::export::TraceEvents;

use logmodel::TsMs;

use crate::analyze::Analysis;
use crate::critical::{critical_path, CriticalSegment};
use crate::decompose::{
    Interval, ACQUISITION, ADMISSION, ALLOC, ALLOCATION, AM, DRIVER, EXECUTOR, EXECUTOR_IDLE,
    LAUNCHING, LOCALIZATION, NM_QUEUE, TOTAL,
};
use crate::graph::{ContainerTrack, SchedulingGraph};

/// Reserved lane ids inside each application's process group.
const TID_APP: u64 = 0;
const TID_RM: u64 = 1;
const TID_DRIVER: u64 = 2;
const TID_CRITICAL: u64 = 3;
const TID_CONTAINERS: u64 = 4;

/// The rows the fixed lanes draw, with their slice names: the app lane
/// holds the end-to-end delay and two sub-phases, the RM lane admission
/// and the wait for the final AM's container, the driver lane its
/// initialization and the executor allocation round-trip.
const APP_LANES: [(u64, &str, Interval); 7] = [
    (TID_APP, "total_scheduling_delay", TOTAL),
    (TID_APP, "am_delay", AM),
    (TID_APP, "executor_delay", EXECUTOR),
    (TID_RM, "admission", ADMISSION),
    (TID_RM, "am_scheduling", ALLOCATION),
    (TID_DRIVER, "driver_delay", DRIVER),
    (TID_DRIVER, "allocation", ALLOC),
];

fn us(t: TsMs) -> u64 {
    t.0 * 1000
}

/// Emit one slice when both ends exist and are ordered.
fn slice(
    t: &mut TraceEvents,
    (pid, tid): (u64, u64),
    name: &str,
    ends: Option<(TsMs, TsMs)>,
    args: &[(&str, String)],
) {
    let Some((from, to)) = ends.filter(|(from, to)| from <= to) else {
        return;
    };
    let mut all = vec![("dur_ms", to.since(from).to_string())];
    all.extend(args.iter().map(|(k, v)| (*k, v.clone())));
    t.complete(pid, tid, name, us(from), us(to) - us(from), &all);
}

/// One container's lane: its acquisition, localization and launching
/// rows, NM queueing nested inside launching, and a worker's idling
/// before its first task.
fn container_lane(t: &mut TraceEvents, lane: (u64, u64), g: &SchedulingGraph, c: &ContainerTrack) {
    let role = if c.is_am() { "am" } else { "exec" };
    let node = c
        .node
        .map(|n| n.to_string())
        .unwrap_or_else(|| "?".to_string());
    t.thread_name(lane.0, lane.1, &format!("{role} {}", c.cid));
    let args = vec![
        ("cid", c.cid.to_string()),
        ("node", node),
        ("is_am", c.is_am().to_string()),
    ];
    let mut draw = |row: Interval| slice(t, lane, row.name, row.ends(g, Some(c)), &args);
    draw(ACQUISITION);
    draw(LOCALIZATION);
    draw(LAUNCHING);
    // NM queueing nests inside launching; skip it when it would end after
    // the container's first log line (it would overlap instead of nest).
    let first_line = LAUNCHING.to.at(g, Some(c));
    let queue = NM_QUEUE.ends(g, Some(c));
    if queue.is_some_and(|(_, running)| first_line.is_none_or(|end| running <= end)) {
        draw(NM_QUEUE);
    }
    if !c.is_am() {
        draw(EXECUTOR_IDLE);
    }
}

/// Emit one application's lanes into an existing trace document.
///
/// `pid` must be unique per application within the document (the
/// application sequence number is the natural choice); `name` is the
/// mined display name, when available.
pub fn app_trace_into(t: &mut TraceEvents, g: &SchedulingGraph, pid: u64, name: Option<&str>) {
    let title = match name {
        Some(n) => format!("{} ({n})", g.app),
        None => g.app.to_string(),
    };
    t.process_name(pid, &title);
    t.thread_name(pid, TID_APP, "app");
    t.thread_name(pid, TID_RM, "rm");
    t.thread_name(pid, TID_DRIVER, "driver");
    t.thread_name(pid, TID_CRITICAL, "critical path");

    // Every app-lane slice nests inside `total_scheduling_delay`: one
    // that ends after the first task (an AM registered late) is dropped.
    let first_task = TOTAL.to.at(g, None);
    let am = g.am_container();
    let app_args = vec![("app", g.app.to_string())];
    for (tid, name, row) in APP_LANES {
        let ends = row
            .ends(g, am)
            .filter(|(_, to)| tid != TID_APP || first_task.is_none_or(|ft| *to <= ft));
        slice(t, (pid, tid), name, ends, &app_args);
    }

    // Critical-path lane: the tiling of submitted → first task, plus flow
    // arrows chaining consecutive segments. Arrow anchors sit at slice
    // midpoints so renderers bind them to the enclosing slice.
    if let Some(p) = critical_path(g) {
        for seg in &p.segments {
            slice(
                t,
                (pid, TID_CRITICAL),
                seg.component,
                Some((seg.from, seg.to)),
                &[
                    ("entity", seg.entity.clone()),
                    ("blame_pct", format!("{:.1}", p.blame_pct(seg))),
                ],
            );
        }
        let mid = |s: &CriticalSegment| us(s.from) + (us(s.to) - us(s.from)) / 2;
        for (i, pair) in p.segments.windows(2).enumerate() {
            let id = pid * 10_000 + i as u64;
            t.flow_start(pid, TID_CRITICAL, id, "critical", mid(&pair[0]));
            t.flow_end(pid, TID_CRITICAL, id, "critical", mid(&pair[1]));
        }
    }

    for (i, c) in g.containers.values().enumerate() {
        container_lane(t, (pid, TID_CONTAINERS + i as u64), g, c);
    }
}

/// Render every analyzed application as one Chrome-trace/Perfetto JSON
/// document in log time: one process per application, one lane per
/// entity. The back-end of every binary's `--app-trace-out` flag.
pub fn corpus_app_trace(an: &Analysis) -> String {
    let mut t = TraceEvents::new();
    for g in an.graphs.values() {
        let pid = g.app.seq as u64;
        app_trace_into(&mut t, g, pid, an.name_of(g.app));
    }
    t.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::tests::{admitted_graph, full_graph, retried_graph};
    use logmodel::ContainerId;
    use obs::json;

    fn trace_of(g: &SchedulingGraph) -> json::Json {
        let mut t = TraceEvents::new();
        app_trace_into(&mut t, g, 1, Some("tpch-q01"));
        json::parse(&t.finish()).expect("app trace must be valid JSON")
    }

    #[test]
    fn timestamps_are_log_time_microseconds() {
        let g = full_graph();
        let doc = trace_of(&g);
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let total = events
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("total_scheduling_delay"))
            .unwrap();
        // Submitted at 1000 ms of log time → ts 1_000_000 µs; 12 s total.
        assert_eq!(total.get("ts").unwrap().as_f64(), Some(1_000_000.0));
        assert_eq!(total.get("dur").unwrap().as_f64(), Some(12_000_000.0));
    }

    #[test]
    fn lanes_and_process_are_named() {
        let g = full_graph();
        let doc = trace_of(&g);
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let meta_names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("M"))
            .filter_map(|e| {
                e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(|n| n.as_str())
            })
            .collect();
        assert!(meta_names.iter().any(|n| n.contains("tpch-q01")));
        for lane in ["app", "rm", "driver", "critical path"] {
            assert!(meta_names.contains(&lane), "missing lane {lane}");
        }
        assert!(meta_names.iter().any(|n| n.starts_with("am container_")));
        assert!(meta_names.iter().any(|n| n.starts_with("exec container_")));
    }

    #[test]
    fn critical_lane_tiles_the_total_and_flows_connect() {
        let g = full_graph();
        let doc = trace_of(&g);
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let crit: Vec<_> = events
            .iter()
            .filter(|e| {
                e.get("ph").and_then(|p| p.as_str()) == Some("X")
                    && e.get("tid").and_then(|t| t.as_f64()) == Some(TID_CRITICAL as f64)
            })
            .collect();
        assert!(!crit.is_empty());
        let sum: f64 = crit
            .iter()
            .map(|e| e.get("dur").unwrap().as_f64().unwrap())
            .sum();
        assert_eq!(sum, 12_000_000.0, "critical tiles must sum to the total");
        let starts = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("s"))
            .count();
        let ends = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("f"))
            .count();
        assert_eq!(starts, crit.len() - 1);
        assert_eq!(starts, ends);
    }

    #[test]
    fn slices_nest_or_tile_per_lane() {
        let g = full_graph();
        let doc = trace_of(&g);
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let mut by_lane: std::collections::BTreeMap<u64, Vec<(u64, u64)>> = Default::default();
        for e in events {
            if e.get("ph").and_then(|p| p.as_str()) != Some("X") {
                continue;
            }
            let tid = e.get("tid").unwrap().as_f64().unwrap() as u64;
            let ts = e.get("ts").unwrap().as_f64().unwrap() as u64;
            let dur = e.get("dur").unwrap().as_f64().unwrap() as u64;
            by_lane.entry(tid).or_default().push((ts, ts + dur));
        }
        for (tid, slices) in by_lane {
            for (i, a) in slices.iter().enumerate() {
                for b in slices.iter().skip(i + 1) {
                    let disjoint = a.1 <= b.0 || b.1 <= a.0;
                    let nested = (a.0 <= b.0 && b.1 <= a.1) || (b.0 <= a.0 && a.1 <= b.1);
                    assert!(
                        disjoint || nested,
                        "lane {tid}: slices {a:?} and {b:?} overlap without nesting"
                    );
                }
            }
        }
    }

    #[test]
    fn sparse_graph_produces_a_valid_trace() {
        let doc = trace_of(&admitted_graph());
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // Admission is the only measurable slice; no critical path exists.
        assert!(events
            .iter()
            .any(|e| e.get("name").and_then(|n| n.as_str()) == Some("admission")));
        assert!(!events
            .iter()
            .any(|e| e.get("ph").and_then(|p| p.as_str()) == Some("s")));
    }

    #[test]
    fn a_dead_attempts_am_draws_no_launching() {
        let (g, [dead, live, _]) = retried_graph();
        let doc = trace_of(&g);
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let launching = |cid: ContainerId| {
            let cid = cid.to_string();
            events
                .iter()
                .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("launching"))
                .filter(|e| {
                    e.get("args")
                        .and_then(|a| a.get("cid"))
                        .and_then(|c| c.as_str())
                        == Some(&cid)
                })
                .map(|e| e.get("dur").unwrap().as_f64().unwrap())
                .collect::<Vec<_>>()
        };
        // The driver's first line is the final attempt's, as in the report.
        assert_eq!(launching(dead), []);
        assert_eq!(launching(live), [500_000.0]);
    }
}
