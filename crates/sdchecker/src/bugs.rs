//! Bug detection (paper §V-A): containers that were allocated by the RM
//! but never produced executor-side evidence.
//!
//! The paper found SPARK-21562 this way: under the opportunistic
//! scheduler, "many containers only log states related to NodeManager and
//! ResourceManager but miss states logged by executor, e.g. log messages
//! 13 and 14" — Spark requested more containers than its actual demand.

use logmodel::{ApplicationId, ContainerId};

use crate::event::EventKind;
use crate::graph::SchedulingGraph;

/// A container with RM evidence but no executor evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnusedContainer {
    /// The owning application.
    pub app: ApplicationId,
    /// The wasted container.
    pub cid: ContainerId,
    /// Whether it got as far as being acquired by the AM.
    pub acquired: bool,
    /// Whether any NodeManager ever saw it (a startContainer happened).
    pub reached_nm: bool,
}

/// Scan one application's graph for allocated-but-never-used worker
/// containers. Applications that never scheduled a task at all (crashed /
/// interference jobs) are skipped: the signature is *selective* waste
/// within an otherwise healthy run.
pub fn find_unused_containers(g: &SchedulingGraph) -> Vec<UnusedContainer> {
    let app_ran = g
        .worker_containers()
        .any(|c| c.has(EventKind::ExecutorFirstLog));
    if !app_ran {
        return Vec::new();
    }
    g.worker_containers()
        .filter(|c| c.has(EventKind::ContainerAllocated) && !c.has(EventKind::ExecutorFirstLog))
        .map(|c| UnusedContainer {
            app: g.app,
            cid: c.cid,
            acquired: c.has(EventKind::ContainerAcquired),
            reached_nm: c.has(EventKind::ContainerLocalizing),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::tests::ev;
    use crate::graph::build_graphs;

    const CTS: u64 = 1_521_018_000_000;

    #[test]
    fn detects_allocated_never_used() {
        let a = ApplicationId::new(CTS, 1);
        let used = a.attempt(1).container(2);
        let wasted = a.attempt(1).container(3);
        let evs = vec![
            ev(1, EventKind::ContainerAllocated, a, Some(used)),
            ev(2, EventKind::ContainerAllocated, a, Some(wasted)),
            ev(3, EventKind::ContainerAcquired, a, Some(wasted)),
            ev(9, EventKind::ExecutorFirstLog, a, Some(used)),
        ];
        let g = build_graphs(&evs).remove(&a).unwrap();
        let bugs = find_unused_containers(&g);
        assert_eq!(bugs.len(), 1);
        assert_eq!(bugs[0].cid, wasted);
        assert!(bugs[0].acquired);
        assert!(!bugs[0].reached_nm);
    }

    #[test]
    fn healthy_app_reports_nothing() {
        let a = ApplicationId::new(CTS, 1);
        let c = a.attempt(1).container(2);
        let evs = vec![
            ev(1, EventKind::ContainerAllocated, a, Some(c)),
            ev(9, EventKind::ExecutorFirstLog, a, Some(c)),
        ];
        let g = build_graphs(&evs).remove(&a).unwrap();
        assert!(find_unused_containers(&g).is_empty());
    }

    #[test]
    fn apps_with_no_executors_are_skipped() {
        // All containers unused ⇒ the app likely never got to run; that is
        // a different failure, not the over-allocation bug.
        let a = ApplicationId::new(CTS, 1);
        let c = a.attempt(1).container(2);
        let evs = vec![ev(1, EventKind::ContainerAllocated, a, Some(c))];
        let g = build_graphs(&evs).remove(&a).unwrap();
        assert!(find_unused_containers(&g).is_empty());
    }

    #[test]
    fn am_container_is_never_flagged() {
        let a = ApplicationId::new(CTS, 1);
        let am = a.attempt(1).container(1);
        let w = a.attempt(1).container(2);
        let evs = vec![
            ev(1, EventKind::ContainerAllocated, a, Some(am)),
            ev(2, EventKind::ContainerAllocated, a, Some(w)),
            ev(9, EventKind::ExecutorFirstLog, a, Some(w)),
        ];
        let g = build_graphs(&evs).remove(&a).unwrap();
        assert!(find_unused_containers(&g).is_empty());
    }
}
