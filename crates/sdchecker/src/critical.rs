//! Critical-path extraction: *which* component chain made the first task
//! late.
//!
//! The decomposition in [`decompose`](crate::decompose) reports every
//! component of every container, but scheduling delay is a chain, not a
//! sum over all containers: the first user task waits on exactly one
//! sequence of milestones — app admission, the AM container's
//! allocation/localization/launch, driver initialization, then the same
//! chain for the *earliest-working* executor. This module walks that
//! chain through the scheduling graph and attributes each millisecond of
//! `submitted → first task` to exactly one named component, so the
//! segments **tile** the end-to-end scheduling delay: durations are
//! monotone, non-overlapping, and sum to `AppDelays::total_ms` exactly.
//!
//! A milestone missing from the logs (schema drift, crashed run, a
//! non-Spark app) simply donates its time to the next observed milestone,
//! keeping the tiling invariant under partial evidence.

use logmodel::{ApplicationId, TsMs};

use crate::decompose::{ladder, Interval, ADMISSION, DRIVER, EXECUTOR_IDLE, LADDER, TOTAL};
use crate::graph::{ContainerTrack, SchedulingGraph};
use crate::report::Table;

/// One tile of the critical path: `component` blames the interval
/// `[from, to]` on a named delay source at a named entity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalSegment {
    /// Delay-component name (e.g. `am_localization`, `executor_idle`).
    pub component: &'static str,
    /// Entity the time was spent at: `app`, or a container id.
    pub entity: String,
    /// Segment start (log time).
    pub from: TsMs,
    /// Segment end (log time); `to >= from`.
    pub to: TsMs,
}

impl CriticalSegment {
    /// Segment duration in milliseconds.
    pub fn dur_ms(&self) -> u64 {
        self.to.since(self.from)
    }
}

/// The critical path of one application: an ordered tiling of
/// `submitted → first task` by named components.
#[derive(Debug, Clone)]
pub struct CriticalPath {
    /// The application.
    pub app: ApplicationId,
    /// Ordered, contiguous segments; `segments[i].to ==
    /// segments[i+1].from`.
    pub segments: Vec<CriticalSegment>,
    /// End-to-end scheduling delay (equals the sum of segment durations).
    pub total_ms: u64,
}

impl CriticalPath {
    /// A segment's share of the total, in percent (0 when total is 0).
    pub fn blame_pct(&self, seg: &CriticalSegment) -> f64 {
        if self.total_ms == 0 {
            return 0.0;
        }
        seg.dur_ms() as f64 * 100.0 / self.total_ms as f64
    }

    /// The segment with the largest share (ties: earliest wins).
    pub(crate) fn dominant(&self) -> Option<&CriticalSegment> {
        self.segments.iter().max_by(|a, b| {
            a.dur_ms().cmp(&b.dur_ms()).then(b.from.cmp(&a.from)) // earlier beats later on ties
        })
    }

    /// Render as an ASCII table (component, entity, interval, duration,
    /// blame %).
    pub fn render(&self) -> String {
        let mut t = Table::new(&["component", "entity", "from_ms", "to_ms", "dur_ms", "blame"]);
        for seg in &self.segments {
            t.row(vec![
                seg.component.to_string(),
                seg.entity.clone(),
                seg.from.0.to_string(),
                seg.to.0.to_string(),
                seg.dur_ms().to_string(),
                format!("{:5.1}%", self.blame_pct(seg)),
            ]);
        }
        t.render()
    }
}

/// The critical path's names for the rungs of the AM's ladder, and for
/// the driver's initialization between the two ladders.
const AM_RUNGS: [&str; ladder(true).len()] = [
    "am_allocation",
    "am_acquisition",
    "am_dispatch",
    "am_localization",
    "am_launching",
];
const DRIVER_INIT: &str = "driver_init";

/// Every component name a [`CriticalSegment`] can carry: the milestone
/// chain of [`milestones`] plus the explicit `unattributed` gap filler.
/// Checkpoint restore interns decoded blame keys against this table, so
/// the `&'static str` identity of segment components survives a
/// serialize/deserialize round trip (and unknown names are rejected as
/// corruption instead of minted).
pub(crate) const SEGMENT_COMPONENTS: [&str; 3 + AM_RUNGS.len() + LADDER.len()] = {
    let mut names = ["unattributed"; 3 + AM_RUNGS.len() + LADDER.len()];
    names[0] = ADMISSION.name;
    names[1 + AM_RUNGS.len()] = DRIVER_INIT;
    let mut i = 0;
    while i < LADDER.len() {
        if i < AM_RUNGS.len() {
            names[1 + i] = AM_RUNGS[i];
        }
        names[2 + AM_RUNGS.len() + i] = LADDER[i].name;
        i += 1;
    }
    names
};

/// The milestone chain from submission to the first user task, in causal
/// order, as `(component, entity, timestamp)` triples; a `None`
/// timestamp means the milestone left no log evidence. Admission, the
/// final AM's ladder, the driver's registration, then the critical
/// executor's ladder — the worker whose first `TaskAssigned` is the
/// application's first task — each container with the entity name its
/// milestones are blamed on.
fn milestones<'a>(
    g: &'a SchedulingGraph,
    (am, am_name): (Option<&'a ContainerTrack>, &'a str),
    (crit, crit_name): (&'a ContainerTrack, &'a str),
) -> impl Iterator<Item = (&'static str, &'a str, Option<TsMs>)> {
    let at = |row: &Interval, c| row.to.at(g, c);
    let am_rungs = AM_RUNGS.into_iter().zip(ladder(true));
    std::iter::once((ADMISSION.name, "app", at(&ADMISSION, None)))
        .chain(am_rungs.map(move |(name, row)| (name, am_name, at(row, am))))
        .chain(std::iter::once((DRIVER_INIT, "app", at(&DRIVER, None))))
        .chain(
            LADDER
                .iter()
                .map(move |row| (row.name, crit_name, at(row, Some(crit)))),
        )
}

/// The entity name of a container's milestones: its id, or `app` when
/// the container left no evidence. Built once per path, in one
/// allocation; segments take copies.
fn entity_name(track: Option<&ContainerTrack>) -> String {
    let Some(track) = track else {
        return "app".to_string();
    };
    // `container_<13>_<4>_<2>_<6>` is 38 bytes; wider ids grow.
    let mut name = String::with_capacity(40);
    let _ = track.cid.write_to(&mut name);
    name
}

/// Extract the critical path of one application's scheduling graph, or
/// `None` when the graph never reached a first user task (no submission
/// or no worker `TaskAssigned`).
///
/// Invariants (property-tested in `tests/critical_path.rs`):
/// * segments are monotone and contiguous (`to[i] == from[i+1]`);
/// * the first segment starts at `AppSubmitted`, the last ends at the
///   first worker `TaskAssigned`;
/// * durations sum to `AppDelays::total_ms` exactly;
/// * every segment endpoint is a timestamp of a real graph event.
pub fn critical_path(g: &SchedulingGraph) -> Option<CriticalPath> {
    let submitted = TOTAL.from.at(g, None)?;
    // The critical executor: its first task is the app's (ties broken by
    // container id).
    let (first_task, crit) = g
        .worker_containers()
        .filter_map(|c| EXECUTOR_IDLE.to.at(g, Some(c)).map(|t| (t, c)))
        .min_by_key(|(t, c)| (*t, c.cid))?;
    // Corrupt or clock-skewed evidence can place the first task before
    // submission; no causal chain exists through such a graph.
    if first_task < submitted {
        return None;
    }
    let am = g.am_container();
    let (am_name, crit_name) = (entity_name(am), entity_name(Some(crit)));
    let chain = milestones(g, (am, &am_name), (crit, &crit_name));
    let mut segments = Vec::with_capacity(SEGMENT_COMPONENTS.len() - 1);
    let mut last = submitted;
    for (component, entity, at) in chain {
        let Some(at) = at else { continue };
        // Out-of-order milestones (clock skew across sources, or a
        // milestone logged before the previous one resolved) cannot be
        // on the dominating chain; the next in-order milestone absorbs
        // their interval.
        if at <= last || at > first_task {
            continue;
        }
        segments.push(CriticalSegment {
            component,
            entity: entity.to_string(),
            from: last,
            to: at,
        });
        last = at;
    }
    // On well-formed graphs the chain always terminates at the first task
    // (the `executor_idle` milestone *is* that timestamp). Damaged logs
    // can leave a gap; attribute it explicitly rather than under-tiling.
    if last < first_task {
        segments.push(CriticalSegment {
            component: "unattributed",
            entity: "app".to_string(),
            from: last,
            to: first_task,
        });
    }
    Some(CriticalPath {
        app: g.app,
        segments,
        total_ms: first_task.since(submitted),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::tests::full_graph;
    use crate::event::tests::ev as mk;
    use crate::event::EventKind;
    use crate::graph::build_graphs;
    use logmodel::ApplicationId;

    const CTS: u64 = 1_521_018_000_000;

    #[test]
    fn full_chain_tiles_the_total_delay() {
        let g = full_graph();
        let p = critical_path(&g).unwrap();
        assert_eq!(p.total_ms, 12_000);
        let sum: u64 = p.segments.iter().map(|s| s.dur_ms()).sum();
        assert_eq!(sum, p.total_ms, "segments must tile submitted→task");
        assert_eq!(p.segments.first().unwrap().from, TsMs(1_000));
        assert_eq!(p.segments.last().unwrap().to, TsMs(13_000));
        for w in p.segments.windows(2) {
            assert_eq!(w[0].to, w[1].from, "segments must be contiguous");
        }
        // The full chain in order.
        let names: Vec<&str> = p.segments.iter().map(|s| s.component).collect();
        assert_eq!(
            names,
            [
                "admission",
                "am_allocation",
                "am_acquisition",
                "am_dispatch",
                "am_localization",
                "am_launching",
                "driver_init",
                "allocation",
                "acquisition",
                "dispatch",
                "localization",
                "launching",
                "executor_idle",
            ]
        );
        // The dominant component of this timeline is the executor idling
        // before its first task (13_000 − 7_620 = 5_380 ms).
        assert_eq!(p.dominant().unwrap().component, "executor_idle");
        let blame = p.blame_pct(p.dominant().unwrap());
        assert!((blame - 5_380.0 * 100.0 / 12_000.0).abs() < 1e-9);
    }

    #[test]
    fn critical_container_is_the_first_tasked_worker() {
        use EventKind::*;
        let a = ApplicationId::new(CTS, 2);
        let e1 = a.attempt(1).container(2);
        let e2 = a.attempt(1).container(3);
        let evs = vec![
            mk(0, AppSubmitted, a, None),
            mk(100, ContainerAllocated, a, Some(e1)),
            mk(110, ContainerAllocated, a, Some(e2)),
            mk(500, ExecutorFirstLog, a, Some(e1)),
            mk(400, ExecutorFirstLog, a, Some(e2)),
            // e2 gets the first task even though e1 allocated first.
            mk(900, TaskAssigned, a, Some(e2)),
            mk(2_000, TaskAssigned, a, Some(e1)),
        ];
        let g = build_graphs(&evs).remove(&a).unwrap();
        let p = critical_path(&g).unwrap();
        assert_eq!(p.total_ms, 900);
        for s in &p.segments {
            if s.component == "launching" || s.component == "executor_idle" {
                assert_eq!(s.entity, e2.to_string(), "blame must follow e2");
            }
        }
        assert_eq!(p.segments.last().unwrap().to, TsMs(900));
    }

    #[test]
    fn missing_milestones_donate_time_to_the_next() {
        use EventKind::*;
        let a = ApplicationId::new(CTS, 3);
        let e1 = a.attempt(1).container(2);
        // No AM events at all, no localization: a sparse MapReduce-style
        // log. Tiling must still hold.
        let evs = vec![
            mk(0, AppSubmitted, a, None),
            mk(3_000, ContainerAllocated, a, Some(e1)),
            mk(4_000, ExecutorFirstLog, a, Some(e1)),
            mk(4_500, TaskAssigned, a, Some(e1)),
        ];
        let g = build_graphs(&evs).remove(&a).unwrap();
        let p = critical_path(&g).unwrap();
        let sum: u64 = p.segments.iter().map(|s| s.dur_ms()).sum();
        assert_eq!(sum, 4_500);
        let names: Vec<&str> = p.segments.iter().map(|s| s.component).collect();
        assert_eq!(names, ["allocation", "launching", "executor_idle"]);
    }

    #[test]
    fn no_task_means_no_critical_path() {
        use EventKind::*;
        let a = ApplicationId::new(CTS, 4);
        let evs = vec![mk(0, AppSubmitted, a, None), mk(10, AppAccepted, a, None)];
        let g = build_graphs(&evs).remove(&a).unwrap();
        assert!(critical_path(&g).is_none());
    }

    #[test]
    fn task_before_submission_yields_no_path() {
        use EventKind::*;
        // A corrupt corpus can timestamp the task before SUBMITTED; no
        // causal chain exists and the extractor must not panic.
        let a = ApplicationId::new(CTS, 5);
        let e1 = a.attempt(1).container(2);
        let evs = vec![
            mk(5, TaskAssigned, a, Some(e1)),
            mk(10, AppSubmitted, a, None),
        ];
        let g = build_graphs(&evs).remove(&a).unwrap();
        assert!(critical_path(&g).is_none());
    }

    #[test]
    fn path_total_matches_decompose_total() {
        let g = full_graph();
        let p = critical_path(&g).unwrap();
        let d = crate::decompose::decompose(&g);
        assert_eq!(Some(p.total_ms), d.total_ms);
    }

    #[test]
    fn segment_components_are_the_chain_and_the_gap() {
        let chain = [
            "admission",
            "am_allocation",
            "am_acquisition",
            "am_dispatch",
            "am_localization",
            "am_launching",
            "driver_init",
            "allocation",
            "acquisition",
            "dispatch",
            "localization",
            "launching",
            "executor_idle",
            "unattributed",
        ];
        assert_eq!(SEGMENT_COMPONENTS, chain);
    }

    #[test]
    fn render_shows_components_and_blame() {
        let g = full_graph();
        let p = critical_path(&g).unwrap();
        let text = p.render();
        assert!(text.contains("executor_idle"));
        assert!(text.contains('%'));
        assert!(text.contains("blame"));
    }
}
