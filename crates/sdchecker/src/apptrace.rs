//! Application-time Perfetto traces: the scheduling graph as a slice
//! timeline in *log time*, not wall-clock time.
//!
//! `obs::export` already renders the analysis pipeline's own spans in
//! wall time; this module reuses the same [`TraceEvents`] writer but
//! feeds it the **simulated/log clock** — every `ts` is the event's
//! `TsMs` (milliseconds since the run epoch) converted to microseconds.
//! One Perfetto *process* per application, one *thread* lane per entity
//! (app, RM, driver, the critical path, and each container), one slice
//! per named delay component of [`decompose`](crate::decompose), and
//! flow arrows chaining the [`critical_path`](crate::critical) segments.
//! Open the file in <https://ui.perfetto.dev> and the paper's Fig 10
//! picture — executors idling while the driver initializes — is directly
//! visible, per application, with exact component boundaries.

use obs::export::TraceEvents;

use logmodel::TsMs;

use crate::analyze::Analysis;
use crate::critical::critical_path;
use crate::event::EventKind;
use crate::graph::{ContainerTrack, SchedulingGraph};

/// Reserved lane ids inside each application's process group.
const TID_APP: u64 = 0;
const TID_RM: u64 = 1;
const TID_DRIVER: u64 = 2;
const TID_CRITICAL: u64 = 3;
const TID_CONTAINERS: u64 = 4;

fn us(t: TsMs) -> u64 {
    t.0 * 1000
}

/// Emit one component slice when both endpoints exist and are ordered;
/// returns the slice's `(from, to)` when emitted.
#[allow(clippy::too_many_arguments)]
fn slice(
    t: &mut TraceEvents,
    pid: u64,
    tid: u64,
    name: &str,
    from: Option<TsMs>,
    to: Option<TsMs>,
    args: &[(&str, String)],
) -> Option<(TsMs, TsMs)> {
    let (from, to) = (from?, to?);
    if to < from {
        return None;
    }
    let mut all = vec![("dur_ms", to.since(from).to_string())];
    all.extend(args.iter().map(|(k, v)| (*k, v.clone())));
    t.complete(
        pid,
        tid,
        name,
        us(from),
        us(to).saturating_sub(us(from)),
        &all,
    );
    Some((from, to))
}

/// One container's lane. `first_log` is the instance's first log line —
/// the driver banner for the AM, the executor banner otherwise, matching
/// `decompose_container`.
fn container_lane(
    t: &mut TraceEvents,
    pid: u64,
    tid: u64,
    c: &ContainerTrack,
    first_log: Option<TsMs>,
) {
    use EventKind::*;
    let role = if c.is_am() { "am" } else { "exec" };
    let node = c
        .node
        .map(|n| n.to_string())
        .unwrap_or_else(|| "?".to_string());
    t.thread_name(pid, tid, &format!("{role} {}", c.cid));
    let args = vec![
        ("cid", c.cid.to_string()),
        ("node", node),
        ("is_am", c.is_am().to_string()),
    ];
    slice(
        t,
        pid,
        tid,
        "acquisition",
        c.first(ContainerAllocated),
        c.first(ContainerAcquired),
        &args,
    );
    slice(
        t,
        pid,
        tid,
        "localization",
        c.first(ContainerLocalizing),
        c.first(ContainerScheduled),
        &args,
    );
    let launch = slice(
        t,
        pid,
        tid,
        "launching",
        c.first(ContainerScheduled),
        first_log,
        &args,
    );
    // NM queueing nests inside launching; skip it when evidence is
    // inconsistent (it would overlap instead of nest).
    if let Some((_, launch_end)) = launch {
        if let Some(running) = c.first(ContainerNmRunning) {
            if running <= launch_end {
                slice(
                    t,
                    pid,
                    tid,
                    "nm_queue",
                    c.first(ContainerScheduled),
                    Some(running),
                    &args,
                );
            }
        }
    }
    if !c.is_am() {
        slice(
            t,
            pid,
            tid,
            "executor_idle",
            c.first(ExecutorFirstLog),
            c.first(TaskAssigned),
            &args,
        );
    }
}

/// Emit one application's lanes into an existing trace document.
///
/// `pid` must be unique per application within the document (the
/// application sequence number is the natural choice); `name` is the
/// mined display name, when available.
pub fn app_trace_into(t: &mut TraceEvents, g: &SchedulingGraph, pid: u64, name: Option<&str>) {
    use EventKind::*;
    let title = match name {
        Some(n) => format!("{} ({n})", g.app),
        None => g.app.to_string(),
    };
    t.process_name(pid, &title);
    t.thread_name(pid, TID_APP, "app");
    t.thread_name(pid, TID_RM, "rm");
    t.thread_name(pid, TID_DRIVER, "driver");
    t.thread_name(pid, TID_CRITICAL, "critical path");

    let submitted = g.first(AppSubmitted);
    let first_task = g
        .worker_containers()
        .filter_map(|c| c.first(TaskAssigned))
        .min();
    let app_args = vec![("app", g.app.to_string())];

    // App lane: the end-to-end delay with its two big sub-phases. All
    // three nest inside `total_scheduling_delay` by construction (the AM
    // registers and executors log before the first task can exist), so
    // the lane renders as a proper slice stack.
    slice(
        t,
        pid,
        TID_APP,
        "total_scheduling_delay",
        submitted,
        first_task,
        &app_args,
    );
    let registered = g
        .first(AttemptRegistered)
        .filter(|r| first_task.is_none_or(|ft| *r <= ft));
    slice(
        t, pid, TID_APP, "am_delay", submitted, registered, &app_args,
    );
    slice(
        t,
        pid,
        TID_APP,
        "executor_delay",
        g.first_worker(ExecutorFirstLog),
        first_task,
        &app_args,
    );

    // RM lane: admission, then the RM-side wait for the AM container.
    let accepted = g.first(AppAccepted);
    slice(t, pid, TID_RM, "admission", submitted, accepted, &app_args);
    slice(
        t,
        pid,
        TID_RM,
        "am_scheduling",
        accepted,
        g.am_container().and_then(|c| c.first(ContainerAllocated)),
        &app_args,
    );

    // Driver lane: driver init, then the allocation round-trip.
    slice(
        t,
        pid,
        TID_DRIVER,
        "driver_delay",
        g.first(DriverFirstLog),
        g.first(DriverRegistered),
        &app_args,
    );
    slice(
        t,
        pid,
        TID_DRIVER,
        "allocation",
        g.first(StartAllo),
        g.first(EndAllo),
        &app_args,
    );

    // Critical-path lane: the tiling of submitted → first task, plus flow
    // arrows chaining consecutive segments. Arrow anchors sit at slice
    // midpoints so renderers bind them to the enclosing slice.
    if let Some(p) = critical_path(g) {
        for seg in &p.segments {
            slice(
                t,
                pid,
                TID_CRITICAL,
                seg.component,
                Some(seg.from),
                Some(seg.to),
                &[
                    ("entity", seg.entity.clone()),
                    ("blame_pct", format!("{:.1}", p.blame_pct(seg))),
                ],
            );
        }
        let mid = |s: &crate::critical::CriticalSegment| us(s.from) + (us(s.to) - us(s.from)) / 2;
        for (i, pair) in p.segments.windows(2).enumerate() {
            let id = pid * 10_000 + i as u64;
            t.flow_start(pid, TID_CRITICAL, id, "critical", mid(&pair[0]));
            t.flow_end(pid, TID_CRITICAL, id, "critical", mid(&pair[1]));
        }
    }

    // One lane per container. The AM's first log is the driver banner,
    // which lives on the app event track.
    for (i, c) in g.containers.values().enumerate() {
        let tid = TID_CONTAINERS + i as u64;
        let first_log = if c.is_am() {
            g.first(DriverFirstLog)
        } else {
            c.first(ExecutorFirstLog)
        };
        container_lane(t, pid, tid, c, first_log);
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
    use crate::event::tests::ev as mk;
    use crate::graph::build_graphs;
    use logmodel::ApplicationId;
    use obs::json;

    const CTS: u64 = 1_521_018_000_000;

    fn full_graph() -> SchedulingGraph {
        use EventKind::*;
        let a = ApplicationId::new(CTS, 1);
        let am = a.attempt(1).container(1);
        let e1 = a.attempt(1).container(2);
        let evs = vec![
            mk(1_000, AppSubmitted, a, None),
            mk(1_020, AppAccepted, a, None),
            mk(1_100, ContainerAllocated, a, Some(am)),
            mk(1_101, ContainerAcquired, a, Some(am)),
            mk(1_110, ContainerLocalizing, a, Some(am)),
            mk(1_700, ContainerScheduled, a, Some(am)),
            mk(1_705, ContainerNmRunning, a, Some(am)),
            mk(2_400, DriverFirstLog, a, None),
            mk(5_400, DriverRegistered, a, None),
            mk(5_400, AttemptRegistered, a, None),
            mk(5_401, StartAllo, a, None),
            mk(5_600, ContainerAllocated, a, Some(e1)),
            mk(6_400, ContainerAcquired, a, Some(e1)),
            mk(6_400, EndAllo, a, None),
            mk(6_420, ContainerLocalizing, a, Some(e1)),
            mk(6_920, ContainerScheduled, a, Some(e1)),
            mk(6_925, ContainerNmRunning, a, Some(e1)),
            mk(7_620, ExecutorFirstLog, a, Some(e1)),
            mk(13_000, TaskAssigned, a, Some(e1)),
        ];
        build_graphs(&evs).remove(&a).unwrap()
    }

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
        use EventKind::*;
        let a = ApplicationId::new(CTS, 7);
        let evs = vec![mk(0, AppSubmitted, a, None), mk(10, AppAccepted, a, None)];
        let g = build_graphs(&evs).remove(&a).unwrap();
        let doc = trace_of(&g);
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // Admission is the only measurable slice; no critical path exists.
        assert!(events
            .iter()
            .any(|e| e.get("name").and_then(|n| n.as_str()) == Some("admission")));
        assert!(!events
            .iter()
            .any(|e| e.get("ph").and_then(|p| p.as_str()) == Some("s")));
    }
}
