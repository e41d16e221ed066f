//! Per-application timelines: the paper's Fig 10 view, computed from logs.
//!
//! Fig 10 of the paper is a hand-drawn workflow showing *executor
//! idleness*: executors come up, then sit idle while the driver runs user
//! initialization, until the first task arrives. This module draws that
//! picture from the scheduling graph as an ASCII Gantt chart with one lane
//! per container, shaded rung by rung with the container ladder of
//! [`decompose`](crate::decompose) — the intervals the report measures and
//! the critical path tiles.

use std::fmt::Write as _;

use logmodel::TsMs;

use crate::decompose::{ladder, LADDER, TOTAL};
use crate::graph::{ContainerTrack, SchedulingGraph};

/// The glyph of each rung of [`LADDER`]: `.` allocation (pending),
/// `a` acquisition and dispatch, `l` localization, `=` launching and
/// `-` executor idle — the paper's *idleness*.
const GLYPHS: [char; LADDER.len()] = ['.', 'a', 'a', 'l', '=', '-'];

/// Past the last rung: running tasks / doing work.
const BUSY: char = '#';

/// Render an ASCII Gantt chart (Fig 10's shape): one lane per container
/// plus a driver lane, `width` columns spanning submission → first task
/// (or the last event when no task exists).
pub fn ascii_gantt(g: &SchedulingGraph, width: usize) -> String {
    let width = width.clamp(20, 500);
    let start = TOTAL.from.at(g, None).unwrap_or(TsMs(0));
    let last_event = || {
        let tracks = g.containers.values().map(|c| &c.events);
        let events = std::iter::once(&g.app_events).chain(tracks).flatten();
        events.map(|(_, t)| *t).max()
    };
    let Some(end) = TOTAL.to.at(g, None).or_else(last_event) else {
        return String::from("(empty graph)\n");
    };
    let span = end.since(start).max(1);
    let col = |t: TsMs| ((t.since(start) as f64 / span as f64) * (width - 1) as f64) as usize;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} — {} ms from SUBMITTED to first task \
         ( . pending  a acquisition  l localization  = launching  - idle  # busy )",
        g.app, span
    );
    // Each rung's glyph starts where the rung before it ends (the first at
    // submission), and busy where the container's last rung ends. A
    // milestone missing from the logs extends the glyph before it.
    let mut lane = |label: &str, c: &ContainerTrack| {
        let rungs = ladder(c.is_am());
        let mut marks = vec![(Some(start), GLYPHS[0])];
        for (i, rung) in rungs.iter().enumerate() {
            let glyph = if i + 1 < rungs.len() {
                GLYPHS[i + 1]
            } else {
                BUSY
            };
            if glyph != GLYPHS[i] {
                marks.push((rung.to.at(g, Some(c)), glyph));
            }
        }
        let mut cells = vec![' '; width];
        let mut current: Option<char> = None;
        let mut from = 0usize;
        for (at, glyph) in marks {
            if let Some(p) = at.map(col) {
                if let Some(ph) = current {
                    for cell in cells.iter_mut().take(p.min(width)).skip(from) {
                        *cell = ph;
                    }
                }
                from = p;
                current = Some(glyph);
            }
        }
        if let Some(ph) = current {
            for cell in cells.iter_mut().skip(from) {
                *cell = ph;
            }
        }
        let _ = writeln!(out, "{label:<14} |{}|", cells.iter().collect::<String>());
    };

    // The driver's lane ends busy at its first line (driver init goes on
    // after registration with user init); an executor's idles from its
    // first line to its first task (the Fig 10 gap).
    if let Some(am) = g.am_container() {
        lane("driver", am);
    }
    for c in g.worker_containers() {
        lane(&format!("exec {:06}", c.cid.seq), c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::tests::{admitted_graph, full_graph, retried_graph};

    #[test]
    fn gantt_shows_executor_idleness() {
        let art = ascii_gantt(&full_graph(), 80);
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
        let art = ascii_gantt(&full_graph(), 80);
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
    fn gantt_lanes_are_the_ladder_rungs() {
        // Submission at 1 000 ms, first task at 13 000: an instant t falls
        // in column (t − 1 000) × 99 / 12 000. Executor 2: allocated 5 600, acquired 6 400 (dispatch
        // keeps the acquisition glyph), localizing 6 420, scheduled
        // 6 920, first line 7 620, first task 13 000. The AM's allocation
        // and acquisition fall in column 0; its driver is busy from its
        // first line at 2 400.
        let art = ascii_gantt(&full_graph(), 100);
        let lane = |label: &str| {
            let line = art.lines().find(|l| l.starts_with(label)).unwrap();
            line.split('|').nth(1).unwrap().to_string()
        };
        let runs = |cells: String| {
            let mut runs: Vec<(char, usize)> = Vec::new();
            for ch in cells.chars() {
                match runs.last_mut() {
                    Some((c, n)) if *c == ch => *n += 1,
                    _ => runs.push((ch, 1)),
                }
            }
            runs
        };
        let exec = [('.', 37), ('a', 7), ('l', 4), ('=', 6), ('-', 45), ('#', 1)];
        assert_eq!(runs(lane("exec 000002")), exec);
        let driver = [('l', 5), ('=', 6), ('#', 89)];
        assert_eq!(runs(lane("driver")), driver);
    }

    #[test]
    fn a_retried_app_draws_its_final_attempt() {
        let art = ascii_gantt(&retried_graph().0, 60);
        // The final AM and its one executor; the dead AM has no lane.
        assert_eq!(art.lines().filter(|l| l.contains('|')).count(), 2);
        assert!(art.contains("exec 000002"));
    }

    #[test]
    fn gantt_handles_empty_and_taskless_graphs() {
        let art = ascii_gantt(&admitted_graph(), 40);
        assert!(art.contains("10 ms from SUBMITTED"), "{art}");
        let empty = SchedulingGraph::empty(admitted_graph().app);
        assert_eq!(ascii_gantt(&empty, 40), "(empty graph)\n");
    }
}
