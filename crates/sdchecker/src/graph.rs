//! The scheduling graph (paper §III-C): per application, the time-ordered
//! state tracks of the application entity and each of its containers,
//! grouped by global IDs and linked app → container.
//!
//! This is the data structure every delay definition reads from; it can
//! also be exported as Graphviz DOT for inspection (Fig 3's shape).

use std::collections::BTreeMap;

use logmodel::schema::Family;
use logmodel::{ApplicationId, ContainerId, NodeId, TsMs};

use crate::event::{EventKind, SchedEvent};
use crate::schema::emitter;

/// One container's track in the graph.
#[derive(Debug, Clone)]
pub struct ContainerTrack {
    /// The container.
    pub cid: ContainerId,
    /// The node it ran on, when NM events exist.
    pub node: Option<NodeId>,
    /// Time-ordered `(kind, ts)` events.
    pub events: Vec<(EventKind, TsMs)>,
}

impl ContainerTrack {
    /// First occurrence of `kind`.
    pub fn first(&self, kind: EventKind) -> Option<TsMs> {
        self.events
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, t)| *t)
    }

    /// Whether any event of `kind` exists.
    pub fn has(&self, kind: EventKind) -> bool {
        self.first(kind).is_some()
    }

    /// YARN convention: container sequence 1 is the AM (driver/master).
    pub fn is_am(&self) -> bool {
        self.cid.is_am()
    }
}

/// One application's scheduling graph.
#[derive(Debug, Clone)]
pub struct SchedulingGraph {
    /// The application.
    pub app: ApplicationId,
    /// Time-ordered application-scoped events (RMApp transitions, driver
    /// log events).
    pub app_events: Vec<(EventKind, TsMs)>,
    /// Container tracks, keyed by container id (ordered by sequence).
    pub containers: BTreeMap<ContainerId, ContainerTrack>,
}

impl SchedulingGraph {
    /// An event-free graph for `app` — the graceful-degradation target
    /// when an application contributed no usable events.
    pub fn empty(app: ApplicationId) -> SchedulingGraph {
        SchedulingGraph {
            app,
            app_events: Vec::new(),
            containers: BTreeMap::new(),
        }
    }

    /// First occurrence of an app-scoped `kind`.
    pub fn first(&self, kind: EventKind) -> Option<TsMs> {
        self.app_events
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, t)| *t)
    }

    /// The highest AM attempt number observed among this app's
    /// containers (1 when no containers exist). Under AM retry, each
    /// attempt gets its own container id namespace, so the maximum
    /// attempt is the one that (if anything did) made progress. Ids sort
    /// by attempt, so it is the last key's.
    pub(crate) fn last_attempt(&self) -> u32 {
        self.containers
            .keys()
            .next_back()
            .map_or(1, |c| c.attempt.attempt)
    }

    /// Distinct AM attempt numbers observed, ascending.
    pub fn attempts(&self) -> Vec<u32> {
        let mut seen: Vec<u32> = self.containers.keys().map(|c| c.attempt.attempt).collect();
        seen.sort_unstable();
        seen.dedup();
        if seen.is_empty() {
            seen.push(1);
        }
        seen
    }

    /// Container tracks of earlier (failed) attempts — the work a retried
    /// application wasted before its final attempt.
    pub(crate) fn failed_attempt_containers(&self) -> impl Iterator<Item = &ContainerTrack> {
        let last = self.last_attempt();
        self.containers
            .values()
            .filter(move |c| c.cid.attempt.attempt < last)
    }

    /// The AM container's track, if it was allocated. With multiple AM
    /// attempts, the final attempt's AM — the one delay analysis is
    /// anchored to.
    pub fn am_container(&self) -> Option<&ContainerTrack> {
        let last = self.last_attempt();
        self.containers
            .values()
            .find(|c| c.is_am() && c.cid.attempt.attempt == last)
    }

    /// Worker (non-AM) container tracks of the final attempt, in id order.
    pub(crate) fn worker_containers(&self) -> impl Iterator<Item = &ContainerTrack> {
        let last = self.last_attempt();
        self.containers
            .values()
            .filter(move |c| !c.is_am() && c.cid.attempt.attempt == last)
    }

    /// Earliest `kind` across worker containers.
    pub(crate) fn first_worker(&self, kind: EventKind) -> Option<TsMs> {
        self.worker_containers().filter_map(|c| c.first(kind)).min()
    }

    /// Latest `kind` across worker containers.
    pub(crate) fn last_worker(&self, kind: EventKind) -> Option<TsMs> {
        self.worker_containers().filter_map(|c| c.first(kind)).max()
    }

    /// Graphviz DOT rendering: one chain per entity, dashed app→container
    /// links (the shape of the paper's Fig 3).
    pub fn to_dot(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(s, "digraph sched {{");
        let _ = writeln!(s, "  rankdir=LR;");
        let _ = writeln!(s, "  label=\"{}\";", self.app);
        // Application chain.
        let mut prev: Option<String> = None;
        for (i, (k, t)) in self.app_events.iter().enumerate() {
            let id = format!("app_{i}");
            let _ = writeln!(s, "  {id} [shape=box,label=\"{k:?}\\n@{}ms\"];", t.0);
            if let Some(p) = prev {
                let _ = writeln!(s, "  {p} -> {id};");
            }
            prev = Some(id);
        }
        // Container chains.
        for (ci, c) in self.containers.values().enumerate() {
            let mut prev: Option<String> = None;
            for (i, (k, t)) in c.events.iter().enumerate() {
                let id = format!("c{ci}_{i}");
                // Kinds the cluster's logs write are boxes, the
                // application's ellipses.
                let cluster = emitter(*k).is_some_and(|row| {
                    matches!(row.family, Family::ResourceManager | Family::NodeManager)
                });
                let shape = if cluster { "box" } else { "ellipse" };
                let _ = writeln!(s, "  {id} [shape={shape},label=\"{k:?}\\n@{}ms\"];", t.0);
                if let Some(p) = prev {
                    let _ = writeln!(s, "  {p} -> {id};");
                }
                prev = Some(id);
            }
            if !c.events.is_empty() && !self.app_events.is_empty() {
                let _ = writeln!(s, "  app_0 -> c{ci}_0 [style=dashed];");
            }
        }
        let _ = writeln!(s, "}}");
        s
    }
}

/// Group a sorted event list into per-application scheduling graphs.
pub fn build_graphs(events: &[SchedEvent]) -> BTreeMap<ApplicationId, SchedulingGraph> {
    let mut graphs: BTreeMap<ApplicationId, SchedulingGraph> = BTreeMap::new();
    for ev in events {
        let g = graphs.entry(ev.app).or_insert_with(|| SchedulingGraph {
            app: ev.app,
            app_events: Vec::new(),
            containers: BTreeMap::new(),
        });
        match ev.container() {
            Some(cid) => {
                let track = g.containers.entry(cid).or_insert_with(|| ContainerTrack {
                    cid,
                    node: None,
                    events: Vec::new(),
                });
                if track.node.is_none() {
                    track.node = ev.node();
                }
                track.events.push((ev.kind, ev.ts));
            }
            None => g.app_events.push((ev.kind, ev.ts)),
        }
    }
    // Events arrive globally sorted, so each track is sorted too; assert in
    // debug builds.
    #[cfg(debug_assertions)]
    for g in graphs.values() {
        debug_assert!(g.app_events.windows(2).all(|w| w[0].1 <= w[1].1));
        for c in g.containers.values() {
            debug_assert!(c.events.windows(2).all(|w| w[0].1 <= w[1].1));
        }
    }
    graphs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::tests::ev;
    use crate::event::Ids;
    use logmodel::LogSource;

    const CTS: u64 = 1_521_018_000_000;

    fn sample_events() -> (ApplicationId, Vec<SchedEvent>) {
        let a = ApplicationId::new(CTS, 1);
        let am = a.attempt(1).container(1);
        let e1 = a.attempt(1).container(2);
        let e2 = a.attempt(1).container(3);
        let evs = vec![
            ev(10, EventKind::AppSubmitted, a, None),
            ev(20, EventKind::AppAccepted, a, None),
            ev(40, EventKind::ContainerAllocated, a, Some(am)),
            ev(41, EventKind::ContainerAcquired, a, Some(am)),
            ev(600, EventKind::ContainerScheduled, a, Some(am)),
            ev(4000, EventKind::AttemptRegistered, a, None),
            ev(4100, EventKind::ContainerAllocated, a, Some(e1)),
            ev(4200, EventKind::ContainerAllocated, a, Some(e2)),
            ev(5100, EventKind::ContainerAcquired, a, Some(e1)),
            SchedEvent::new(
                TsMs(5200),
                EventKind::ContainerLocalizing,
                LogSource::NodeManager(NodeId(3)),
                Some(Ids::Container(e1)),
            )
            .unwrap(),
            ev(7000, EventKind::ExecutorFirstLog, a, Some(e1)),
            ev(7900, EventKind::ExecutorFirstLog, a, Some(e2)),
            ev(9500, EventKind::TaskAssigned, a, Some(e1)),
        ];
        (a, evs)
    }

    #[test]
    fn groups_by_app_and_container() {
        let (a, evs) = sample_events();
        let graphs = build_graphs(&evs);
        assert_eq!(graphs.len(), 1);
        let g = &graphs[&a];
        assert_eq!(g.app_events.len(), 3);
        assert_eq!(g.containers.len(), 3);
        assert!(g.am_container().is_some());
        assert_eq!(g.worker_containers().count(), 2);
    }

    #[test]
    fn first_and_last_worker_queries() {
        let (a, evs) = sample_events();
        let graphs = build_graphs(&evs);
        let g = &graphs[&a];
        assert_eq!(g.first(EventKind::AppSubmitted), Some(TsMs(10)));
        assert_eq!(g.first(EventKind::AttemptRegistered), Some(TsMs(4000)));
        assert_eq!(
            g.first_worker(EventKind::ExecutorFirstLog),
            Some(TsMs(7000))
        );
        assert_eq!(g.last_worker(EventKind::ExecutorFirstLog), Some(TsMs(7900)));
        assert_eq!(g.first(EventKind::EndAllo), None);
    }

    #[test]
    fn track_queries() {
        let (a, evs) = sample_events();
        let graphs = build_graphs(&evs);
        let g = &graphs[&a];
        let e1 = a.attempt(1).container(2);
        let t = &g.containers[&e1];
        assert!(t.has(EventKind::ContainerAcquired));
        assert!(!t.has(EventKind::ContainerScheduled));
        assert_eq!(t.first(EventKind::TaskAssigned), Some(TsMs(9500)));
        assert!(!t.is_am());
        assert_eq!(t.node, Some(NodeId(3)));
    }

    #[test]
    fn two_apps_separate_graphs() {
        let a = ApplicationId::new(CTS, 1);
        let b = ApplicationId::new(CTS, 2);
        let evs = vec![
            ev(1, EventKind::AppSubmitted, a, None),
            ev(2, EventKind::AppSubmitted, b, None),
        ];
        let graphs = build_graphs(&evs);
        assert_eq!(graphs.len(), 2);
        assert_eq!(graphs[&a].first(EventKind::AppSubmitted), Some(TsMs(1)));
        assert_eq!(graphs[&b].first(EventKind::AppSubmitted), Some(TsMs(2)));
    }

    #[test]
    fn multi_attempt_graph_anchors_on_final_attempt() {
        let a = ApplicationId::new(CTS, 1);
        let am1 = a.attempt(1).container(1);
        let am2 = a.attempt(2).container(1);
        let e2 = a.attempt(2).container(2);
        let evs = vec![
            ev(10, EventKind::AppSubmitted, a, None),
            // Attempt 1 got its AM allocated, then died.
            ev(40, EventKind::ContainerAllocated, a, Some(am1)),
            ev(300, EventKind::ContainerDone, a, Some(am1)),
            // Attempt 2 runs to a task.
            ev(500, EventKind::ContainerAllocated, a, Some(am2)),
            ev(900, EventKind::ContainerAllocated, a, Some(e2)),
            ev(2000, EventKind::TaskAssigned, a, Some(e2)),
        ];
        let graphs = build_graphs(&evs);
        let g = &graphs[&a];
        assert_eq!(g.last_attempt(), 2);
        assert_eq!(g.attempts(), vec![1, 2]);
        assert_eq!(g.am_container().unwrap().cid, am2);
        let workers: Vec<ContainerId> = g.worker_containers().map(|c| c.cid).collect();
        assert_eq!(workers, vec![e2], "attempt-1 containers are not workers");
        let failed: Vec<ContainerId> = g.failed_attempt_containers().map(|c| c.cid).collect();
        assert_eq!(failed, vec![am1]);
    }

    #[test]
    fn single_attempt_graph_has_no_failed_containers() {
        let (a, evs) = sample_events();
        let graphs = build_graphs(&evs);
        let g = &graphs[&a];
        assert_eq!(g.last_attempt(), 1);
        assert_eq!(g.attempts(), vec![1]);
        assert_eq!(g.failed_attempt_containers().count(), 0);
    }

    /// A container's chain draws the kinds the cluster's logs write as
    /// boxes and the application's as ellipses.
    #[test]
    fn dot_shapes_cluster_kinds_as_boxes() {
        let (a, evs) = sample_events();
        let dot = build_graphs(&evs)[&a].to_dot();
        let drawn = |shape: &str, kind: &str| {
            let node = format!("[shape={shape},label=\"{kind}\\n");
            dot.lines()
                .any(|l| l.starts_with("  c") && l.contains(&node))
        };
        assert!(drawn("box", "ContainerAllocated"), "{dot}");
        assert!(drawn("box", "ContainerLocalizing"), "{dot}");
        assert!(drawn("ellipse", "ExecutorFirstLog"), "{dot}");
        assert!(drawn("ellipse", "TaskAssigned"), "{dot}");
    }

    #[test]
    fn dot_export_mentions_all_entities() {
        let (a, evs) = sample_events();
        let graphs = build_graphs(&evs);
        let dot = graphs[&a].to_dot();
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("AppSubmitted"));
        assert!(dot.contains("ExecutorFirstLog"));
        assert!(dot.contains("style=dashed"));
        assert!(dot.trim_end().ends_with('}'));
    }
}
