//! Per-application timelines: the paper's Fig 10 view, computed from logs.
//!
//! Fig 10 of the paper is a hand-drawn workflow showing *executor
//! idleness*: executors come up, then sit idle while the driver runs user
//! initialization, until the first task arrives. This module derives that
//! picture from the scheduling graph — a chronological event table plus an
//! ASCII Gantt rendering with one lane per entity — so any analyzed
//! application can be inspected the way the paper's figure explains the
//! mechanism.

use std::fmt::Write as _;

use logmodel::TsMs;

use crate::event::EventKind;
use crate::graph::SchedulingGraph;

/// One timeline row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineEntry {
    /// Timestamp.
    pub ts: TsMs,
    /// Entity label (`app`, `container_…`).
    pub entity: String,
    /// The event.
    pub kind: EventKind,
}

/// Flatten a scheduling graph into a chronological event table.
pub fn timeline(g: &SchedulingGraph) -> Vec<TimelineEntry> {
    let mut rows: Vec<TimelineEntry> = g
        .app_events
        .iter()
        .map(|(k, t)| TimelineEntry {
            ts: *t,
            entity: "app".to_string(),
            kind: *k,
        })
        .collect();
    for c in g.containers.values() {
        for (k, t) in &c.events {
            rows.push(TimelineEntry {
                ts: *t,
                entity: c.cid.to_string(),
                kind: *k,
            });
        }
    }
    rows.sort_by(|a, b| a.ts.cmp(&b.ts).then_with(|| a.entity.cmp(&b.entity)));
    rows
}

/// Gantt lane phases for the ASCII rendering, named after the delay
/// components of [`decompose`](crate::decompose) so the ASCII view and
/// the Perfetto app trace agree on vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Waiting for the RM to allocate ( `.` ).
    Pending,
    /// ALLOCATED → LOCALIZING: the acquisition delay ( `a` ).
    Acquisition,
    /// LOCALIZING → SCHEDULED: the localization delay ( `l` ).
    Localization,
    /// SCHEDULED → first instance log: the launching delay ( `=` ).
    Launching,
    /// Process up but no task yet — the paper's *idleness* ( `-` ).
    Idle,
    /// Running tasks / doing work ( `#` ).
    Busy,
}

impl Phase {
    fn glyph(self) -> char {
        match self {
            Phase::Pending => '.',
            Phase::Acquisition => 'a',
            Phase::Localization => 'l',
            Phase::Launching => '=',
            Phase::Idle => '-',
            Phase::Busy => '#',
        }
    }
}

/// Render an ASCII Gantt chart (Fig 10's shape): one lane per container
/// plus a driver lane, `width` columns spanning submission → first task
/// (or the last event when no task exists).
pub fn ascii_gantt(g: &SchedulingGraph, width: usize) -> String {
    let width = width.clamp(20, 500);
    let start = g.first(EventKind::AppSubmitted).unwrap_or(TsMs(0));
    let mut end = g
        .worker_containers()
        .filter_map(|c| c.first(EventKind::TaskAssigned))
        .min();
    if end.is_none() {
        end = timeline(g).last().map(|e| e.ts);
    }
    let Some(end) = end else {
        return String::from("(empty graph)\n");
    };
    let span = end.since(start).max(1);
    let col = |t: Option<TsMs>| -> Option<usize> {
        t.map(|t| ((t.since(start) as f64 / span as f64) * (width - 1) as f64) as usize)
    };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} — {} ms from SUBMITTED to first task \
         ( . pending  a acquisition  l localization  = launching  - idle  # busy )",
        g.app, span
    );
    let mut lane = |label: &str, marks: &[(Option<usize>, Phase)]| {
        let mut cells = vec![' '; width];
        let mut current: Option<Phase> = None;
        let mut from = 0usize;
        for (pos, phase) in marks {
            if let Some(p) = pos {
                if let Some(ph) = current {
                    for cell in cells.iter_mut().take((*p).min(width)).skip(from) {
                        *cell = ph.glyph();
                    }
                }
                from = *p;
                current = Some(*phase);
            }
        }
        if let Some(ph) = current {
            for cell in cells.iter_mut().skip(from) {
                *cell = ph.glyph();
            }
        }
        let _ = writeln!(out, "{label:<14} |{}|", cells.iter().collect::<String>());
    };

    // Driver lane: pending → acquisition → localization → launching →
    // busy (driver init; continues after registration with user init).
    if let Some(am) = g.am_container() {
        lane(
            "driver",
            &[
                (col(Some(start)), Phase::Pending),
                (
                    col(am.first(EventKind::ContainerAllocated)),
                    Phase::Acquisition,
                ),
                (
                    col(am.first(EventKind::ContainerLocalizing)),
                    Phase::Localization,
                ),
                (
                    col(am.first(EventKind::ContainerScheduled)),
                    Phase::Launching,
                ),
                (col(g.first(EventKind::DriverFirstLog)), Phase::Busy),
            ],
        );
    }
    // Executor lanes: pending → acquisition → localization → launching →
    // idle (the Fig 10 gap) → busy at first task.
    for c in g.worker_containers() {
        let label = format!("exec {:06}", c.cid.seq);
        lane(
            &label,
            &[
                (col(Some(start)), Phase::Pending),
                (
                    col(c.first(EventKind::ContainerAllocated)),
                    Phase::Acquisition,
                ),
                (
                    col(c.first(EventKind::ContainerLocalizing)),
                    Phase::Localization,
                ),
                (
                    col(c.first(EventKind::ContainerScheduled)),
                    Phase::Launching,
                ),
                (col(c.first(EventKind::ExecutorFirstLog)), Phase::Idle),
                (col(c.first(EventKind::TaskAssigned)), Phase::Busy),
            ],
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::tests::ev;
    use crate::graph::build_graphs;
    use logmodel::{ApplicationId, ContainerId};

    const CTS: u64 = 1_521_018_000_000;

    fn sample() -> SchedulingGraph {
        let a = ApplicationId::new(CTS, 1);
        let am = a.attempt(1).container(1);
        let e1 = a.attempt(1).container(2);
        let mk = |ts: u64, kind, c: Option<ContainerId>| ev(ts, kind, a, c);
        use EventKind::*;
        build_graphs(&[
            mk(0, AppSubmitted, None),
            mk(100, ContainerAllocated, Some(am)),
            mk(200, ContainerLocalizing, Some(am)),
            mk(1_000, DriverFirstLog, None),
            mk(4_000, DriverRegistered, None),
            mk(4_100, ContainerAllocated, Some(e1)),
            mk(4_500, ContainerLocalizing, Some(e1)),
            mk(6_000, ExecutorFirstLog, Some(e1)),
            mk(10_000, TaskAssigned, Some(e1)),
        ])
        .remove(&a)
        .unwrap()
    }

    #[test]
    fn timeline_is_chronological_and_complete() {
        let g = sample();
        let t = timeline(&g);
        assert_eq!(t.len(), 9);
        for w in t.windows(2) {
            assert!(w[0].ts <= w[1].ts);
        }
        assert_eq!(t[0].kind, EventKind::AppSubmitted);
        assert_eq!(t.last().unwrap().kind, EventKind::TaskAssigned);
    }

    #[test]
    fn gantt_shows_executor_idleness() {
        let g = sample();
        let art = ascii_gantt(&g, 80);
        assert!(art.contains("driver"));
        assert!(art.contains("exec 000002"));
        // The executor lane must contain an idle stretch followed by busy.
        let exec_line = art.lines().find(|l| l.starts_with("exec")).unwrap();
        let idle = exec_line.matches('-').count();
        assert!(
            idle > 5,
            "expected a visible idle gap (Fig 10): {exec_line}"
        );
        assert!(
            exec_line.contains('#'),
            "busy phase at first task: {exec_line}"
        );
        // Idle comes before busy.
        assert!(exec_line.find('-').unwrap() < exec_line.find('#').unwrap());
    }

    #[test]
    fn gantt_labels_delay_components() {
        let g = sample();
        let art = ascii_gantt(&g, 80);
        assert!(art.contains("a acquisition"), "legend names components");
        assert!(art.contains("l localization"));
        let exec_line = art.lines().find(|l| l.starts_with("exec")).unwrap();
        let cells = exec_line.split('|').nth(1).unwrap();
        assert!(cells.contains('a'), "acquisition phase: {exec_line}");
        assert!(cells.contains('l'), "localization phase: {exec_line}");
        // Phases appear in causal order.
        assert!(cells.find('a').unwrap() < cells.find('l').unwrap());
        assert!(cells.find('l').unwrap() < cells.find('-').unwrap());
    }

    #[test]
    fn gantt_handles_empty_and_taskless_graphs() {
        let a = ApplicationId::new(CTS, 2);
        let g = build_graphs(&[ev(5, EventKind::AppSubmitted, a, None)])
            .remove(&a)
            .unwrap();
        let art = ascii_gantt(&g, 40);
        assert!(art.contains("5 ms") || art.contains("1 ms"), "{art}");
    }
}
