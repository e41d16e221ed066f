//! Delay decomposition (paper §III-C): from a scheduling graph to the
//! named delay components.
//!
//! All delays are in milliseconds and `Option` — a component is `None`
//! when the evidence for it is absent from the logs (e.g. a MapReduce app
//! has no `START_ALLO`, an interference app may never assign a "task" in
//! the Spark sense, a crashed run may stop mid-chain). Consumers filter.

use logmodel::{ApplicationId, ContainerId, NodeId, TsMs};

use crate::event::EventKind;
use crate::graph::{ContainerTrack, SchedulingGraph};

/// Per-container delay components.
#[derive(Debug, Clone)]
pub struct ContainerDelays {
    /// The container.
    pub cid: ContainerId,
    /// AM (driver/master) container?
    pub is_am: bool,
    /// Node, when NM evidence exists.
    pub node: Option<NodeId>,
    /// ALLOCATED → ACQUIRED (log messages 4→5). Quantized by the AM
    /// heartbeat (Fig 7-(c)).
    pub acquisition_ms: Option<u64>,
    /// LOCALIZING → SCHEDULED (6→7): resource download (Fig 8).
    pub localization_ms: Option<u64>,
    /// SCHEDULED → the instance's first log line (7→9/13): launch script,
    /// container runtime, JVM start (Fig 9). See DESIGN.md for why this
    /// follows the paper's prose definition rather than its 7→8 formula.
    pub launching_ms: Option<u64>,
    /// SCHEDULED → RUNNING (7→8): NM launcher handoff; under the
    /// opportunistic scheduler this *is* the NM queueing delay
    /// (Fig 7-(b)).
    pub nm_queue_ms: Option<u64>,
    /// The instance's first log timestamp.
    pub first_log: Option<TsMs>,
}

/// Terminal outcome of an application, classified from its RM app-state
/// evidence. Anything short of a terminal state — typically a log that
/// stops mid-run (collection cut off, node lost, corpus truncated) — is
/// `Truncated`, and its delays are *partial*: components up to the last
/// observed milestone are still reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AppOutcome {
    /// The AM unregistered cleanly (or the app reached FINISHED).
    Completed,
    /// Every AM attempt failed; the app reached FAILED.
    Failed,
    /// The app was killed.
    Killed,
    /// No terminal evidence — the log ends mid-flight.
    Truncated,
}

impl AppOutcome {
    /// Stable display name (used in reports and the JSON export).
    pub fn label(self) -> &'static str {
        match self {
            AppOutcome::Completed => "completed",
            AppOutcome::Failed => "failed",
            AppOutcome::Killed => "killed",
            AppOutcome::Truncated => "truncated",
        }
    }

    fn classify(g: &SchedulingGraph) -> AppOutcome {
        if g.first(EventKind::AppFailed).is_some() {
            AppOutcome::Failed
        } else if g.first(EventKind::AppKilled).is_some() {
            AppOutcome::Killed
        } else if g.first(EventKind::AppUnregistered).is_some()
            || g.first(EventKind::AppFinished).is_some()
        {
            AppOutcome::Completed
        } else {
            AppOutcome::Truncated
        }
    }
}

/// Per-application delay decomposition.
#[derive(Debug, Clone)]
pub struct AppDelays {
    /// The application.
    pub app: ApplicationId,
    /// SUBMITTED timestamp (origin of every submission-anchored delay).
    pub submitted: Option<TsMs>,
    /// Total scheduling delay: SUBMITTED → first task assigned (1→14).
    pub total_ms: Option<u64>,
    /// AM delay: SUBMITTED → ATTEMPT_REGISTERED (1→3).
    pub am_ms: Option<u64>,
    /// Cf: SUBMITTED → first worker container launched (first executor
    /// first-log).
    pub cf_ms: Option<u64>,
    /// Cl: SUBMITTED → last worker container launched.
    pub cl_ms: Option<u64>,
    /// In-application (Spark-caused) delay: driver + executor components.
    pub in_app_ms: Option<u64>,
    /// Out-application (YARN-caused) delay: total − in-application.
    pub out_app_ms: Option<u64>,
    /// Driver delay: driver first log → RM registration (9→10).
    pub driver_ms: Option<u64>,
    /// Executor delay: first executor first log → first task (13→14).
    pub executor_ms: Option<u64>,
    /// Aggregated allocation delay: START_ALLO → END_ALLO (11→12).
    pub alloc_ms: Option<u64>,
    /// Job runtime: SUBMITTED → AM unregistration.
    pub job_runtime_ms: Option<u64>,
    /// First task assignment timestamp.
    pub first_task: Option<TsMs>,
    /// Per-container components. Includes containers of earlier failed AM
    /// attempts; compare each `cid`'s attempt number against `attempts`
    /// to tell wasted work apart from the final attempt.
    pub containers: Vec<ContainerDelays>,
    /// Terminal outcome classified from RM evidence.
    pub outcome: AppOutcome,
    /// Highest AM attempt number observed (>1 means the AM was retried).
    pub attempts: u32,
    /// Delay spent on failed AM attempts: the summed observed span (first
    /// to last event) of every container belonging to a non-final
    /// attempt. Zero for single-attempt apps.
    pub wasted_ms: u64,
}

impl AppDelays {
    /// total / job runtime (Fig 4-(b)'s normalization), when both exist.
    pub fn total_over_runtime(&self) -> Option<f64> {
        match (self.total_ms, self.job_runtime_ms) {
            (Some(t), Some(r)) if r > 0 => Some(t as f64 / r as f64),
            _ => None,
        }
    }

    /// component / total normalization helper.
    pub fn normalized(&self, component_ms: Option<u64>) -> Option<f64> {
        match (component_ms, self.total_ms) {
            (Some(c), Some(t)) if t > 0 => Some(c as f64 / t as f64),
            _ => None,
        }
    }

    /// Cl − Cf: the spread between first and last container launch
    /// (Fig 6-(b)).
    pub fn cl_minus_cf_ms(&self) -> Option<u64> {
        match (self.cf_ms, self.cl_ms) {
            (Some(f), Some(l)) => Some(l.saturating_sub(f)),
            _ => None,
        }
    }
}

/// A named delay-component accessor over [`AppDelays`].
pub(crate) type AppComponent = (&'static str, fn(&AppDelays) -> Option<u64>);

/// A named delay-component accessor over [`ContainerDelays`].
pub(crate) type ContainerComponent = (&'static str, fn(&ContainerDelays) -> Option<u64>);

/// The named per-application components, with accessors — the one list
/// every aggregator (report tables, JSON export, fleet sketches) walks,
/// so component naming stays consistent across outputs.
pub const APP_COMPONENTS: [AppComponent; 10] = [
    ("total", |d| d.total_ms),
    ("am", |d| d.am_ms),
    ("cf", |d| d.cf_ms),
    ("cl", |d| d.cl_ms),
    ("in_app", |d| d.in_app_ms),
    ("out_app", |d| d.out_app_ms),
    ("driver", |d| d.driver_ms),
    ("executor", |d| d.executor_ms),
    ("alloc", |d| d.alloc_ms),
    ("job_runtime", |d| d.job_runtime_ms),
];

/// The named per-container components, with accessors.
pub(crate) const CONTAINER_COMPONENTS: [ContainerComponent; 4] = [
    ("acquisition", |c| c.acquisition_ms),
    ("localization", |c| c.localization_ms),
    ("launching", |c| c.launching_ms),
    ("nm_queue", |c| c.nm_queue_ms),
];

fn diff(later: Option<TsMs>, earlier: Option<TsMs>) -> Option<u64> {
    match (later, earlier) {
        (Some(l), Some(e)) => Some(l.since(e)),
        _ => None,
    }
}

fn decompose_container(track: &ContainerTrack, first_log: Option<TsMs>) -> ContainerDelays {
    let scheduled = track.first(EventKind::ContainerScheduled);
    ContainerDelays {
        cid: track.cid,
        is_am: track.is_am(),
        node: track.node,
        acquisition_ms: diff(
            track.first(EventKind::ContainerAcquired),
            track.first(EventKind::ContainerAllocated),
        ),
        localization_ms: diff(scheduled, track.first(EventKind::ContainerLocalizing)),
        launching_ms: diff(first_log, scheduled),
        nm_queue_ms: diff(track.first(EventKind::ContainerNmRunning), scheduled),
        first_log,
    }
}

/// Decompose one application's scheduling graph.
pub fn decompose(g: &SchedulingGraph) -> AppDelays {
    let submitted = g.first(EventKind::AppSubmitted);
    let registered = g.first(EventKind::AttemptRegistered);
    let driver_first = g.first(EventKind::DriverFirstLog);
    let driver_registered = g.first(EventKind::DriverRegistered);
    let first_exec_log = g.first_worker(EventKind::ExecutorFirstLog);
    let last_exec_log = g.last_worker(EventKind::ExecutorFirstLog);
    let first_task = g
        .worker_containers()
        .filter_map(|c| c.first(EventKind::TaskAssigned))
        .min();

    let total_ms = diff(first_task, submitted);
    let driver_ms = diff(driver_registered, driver_first);
    let executor_ms = diff(first_task, first_exec_log);
    let in_app_ms = match (driver_ms, executor_ms) {
        (Some(d), Some(e)) => Some(d + e),
        _ => None,
    };
    let out_app_ms = match (total_ms, in_app_ms) {
        (Some(t), Some(i)) => Some(t.saturating_sub(i)),
        _ => None,
    };

    let last_attempt = g.last_attempt();
    let containers = g
        .containers
        .values()
        .map(|track| {
            // The per-app driver log belongs to the final attempt's AM;
            // an earlier attempt's AM must not claim its first line.
            let first_log = if track.is_am() && track.cid.attempt.attempt == last_attempt {
                driver_first
            } else {
                track.first(EventKind::ExecutorFirstLog)
            };
            decompose_container(track, first_log)
        })
        .collect();
    let wasted_ms = g
        .failed_attempt_containers()
        .filter_map(|c| {
            let first = c.events.first().map(|(_, t)| *t)?;
            let last = c.events.last().map(|(_, t)| *t)?;
            Some(last.since(first))
        })
        .sum();

    AppDelays {
        app: g.app,
        submitted,
        total_ms,
        am_ms: diff(registered, submitted),
        cf_ms: diff(first_exec_log, submitted),
        cl_ms: diff(last_exec_log, submitted),
        in_app_ms,
        out_app_ms,
        driver_ms,
        executor_ms,
        alloc_ms: diff(g.first(EventKind::EndAllo), g.first(EventKind::StartAllo)),
        job_runtime_ms: diff(g.first(EventKind::AppUnregistered), submitted),
        first_task,
        containers,
        outcome: AppOutcome::classify(g),
        attempts: last_attempt,
        wasted_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::tests::ev;
    use crate::graph::build_graphs;

    const CTS: u64 = 1_521_018_000_000;

    /// Build a full synthetic timeline with known delays and check every
    /// component comes out exactly.
    fn timeline() -> SchedulingGraph {
        let a = ApplicationId::new(CTS, 1);
        let am = a.attempt(1).container(1);
        let e1 = a.attempt(1).container(2);
        let e2 = a.attempt(1).container(3);
        let mk = |ts: u64, kind, container: Option<ContainerId>| ev(ts, kind, a, container);
        use EventKind::*;
        let evs = vec![
            mk(1_000, AppSubmitted, None),
            mk(1_020, AppAccepted, None),
            mk(1_100, ContainerAllocated, Some(am)),
            mk(1_101, ContainerAcquired, Some(am)),
            mk(1_110, ContainerLocalizing, Some(am)),
            mk(1_700, ContainerScheduled, Some(am)),
            mk(1_705, ContainerNmRunning, Some(am)),
            mk(2_400, DriverFirstLog, None), // driver up: launching 700ms
            mk(5_400, DriverRegistered, None), // driver delay 3000ms
            mk(5_400, AttemptRegistered, None), // am = 4400ms
            mk(5_401, StartAllo, None),
            mk(5_600, ContainerAllocated, Some(e1)),
            mk(5_650, ContainerAllocated, Some(e2)),
            mk(6_400, ContainerAcquired, Some(e1)), // acq 800ms
            mk(6_400, ContainerAcquired, Some(e2)), // acq 750ms
            mk(6_400, EndAllo, None),               // alloc = 999ms
            mk(6_420, ContainerLocalizing, Some(e1)),
            mk(6_430, ContainerLocalizing, Some(e2)),
            mk(6_920, ContainerScheduled, Some(e1)), // local 500ms
            mk(7_130, ContainerScheduled, Some(e2)), // local 700ms
            mk(6_925, ContainerNmRunning, Some(e1)),
            mk(7_136, ContainerNmRunning, Some(e2)),
            mk(7_620, ExecutorFirstLog, Some(e1)), // launch 700ms; Cf=6620
            mk(7_930, ExecutorFirstLog, Some(e2)), // launch 800ms; Cl=6930
            mk(13_000, TaskAssigned, Some(e1)),    // executor delay 5380
            mk(41_000, AppUnregistered, None),     // runtime 40s
        ];
        build_graphs(&evs).remove(&a).unwrap()
    }

    #[test]
    fn every_component_exact() {
        let d = decompose(&timeline());
        assert_eq!(d.submitted, Some(TsMs(1_000)));
        assert_eq!(d.total_ms, Some(12_000));
        assert_eq!(d.am_ms, Some(4_400));
        assert_eq!(d.driver_ms, Some(3_000));
        assert_eq!(d.executor_ms, Some(5_380));
        assert_eq!(d.in_app_ms, Some(8_380));
        assert_eq!(d.out_app_ms, Some(3_620));
        assert_eq!(d.cf_ms, Some(6_620));
        assert_eq!(d.cl_ms, Some(6_930));
        assert_eq!(d.cl_minus_cf_ms(), Some(310));
        assert_eq!(d.alloc_ms, Some(999));
        assert_eq!(d.job_runtime_ms, Some(40_000));
        assert_eq!(d.total_over_runtime(), Some(0.3));
    }

    #[test]
    fn per_container_components() {
        let d = decompose(&timeline());
        assert_eq!(d.containers.len(), 3);
        let am = &d.containers[0];
        assert!(am.is_am);
        assert_eq!(am.acquisition_ms, Some(1));
        assert_eq!(am.localization_ms, Some(590));
        assert_eq!(am.launching_ms, Some(700));
        assert_eq!(am.nm_queue_ms, Some(5));
        let e1 = &d.containers[1];
        assert_eq!(e1.acquisition_ms, Some(800));
        assert_eq!(e1.localization_ms, Some(500));
        assert_eq!(e1.launching_ms, Some(700));
        let e2 = &d.containers[2];
        assert_eq!(e2.acquisition_ms, Some(750));
        assert_eq!(e2.localization_ms, Some(700));
        assert_eq!(e2.launching_ms, Some(800));
    }

    #[test]
    fn missing_evidence_yields_none() {
        // Only the RM app chain, no containers: every container-derived
        // delay must be None rather than panicking or zero.
        let a = ApplicationId::new(CTS, 9);
        let evs = vec![ev(5, EventKind::AppSubmitted, a, None)];
        let g = build_graphs(&evs).remove(&a).unwrap();
        let d = decompose(&g);
        assert_eq!(d.submitted, Some(TsMs(5)));
        assert_eq!(d.total_ms, None);
        assert_eq!(d.am_ms, None);
        assert_eq!(d.driver_ms, None);
        assert_eq!(d.executor_ms, None);
        assert_eq!(d.in_app_ms, None);
        assert_eq!(d.alloc_ms, None);
        assert_eq!(d.total_over_runtime(), None);
        assert_eq!(d.cl_minus_cf_ms(), None);
    }

    #[test]
    fn outcomes_classify_from_terminal_evidence() {
        let d = decompose(&timeline());
        assert_eq!(d.outcome, AppOutcome::Completed);
        assert_eq!(d.attempts, 1);
        assert_eq!(d.wasted_ms, 0);

        let a = ApplicationId::new(CTS, 9);
        let mk = |ts: u64, kind| ev(ts, kind, a, None);
        let failed = build_graphs(&[mk(1, EventKind::AppSubmitted), mk(2, EventKind::AppFailed)])
            .remove(&a)
            .unwrap();
        assert_eq!(decompose(&failed).outcome, AppOutcome::Failed);
        let killed = build_graphs(&[mk(1, EventKind::AppSubmitted), mk(2, EventKind::AppKilled)])
            .remove(&a)
            .unwrap();
        assert_eq!(decompose(&killed).outcome, AppOutcome::Killed);
        let truncated = build_graphs(&[mk(1, EventKind::AppSubmitted)])
            .remove(&a)
            .unwrap();
        assert_eq!(decompose(&truncated).outcome, AppOutcome::Truncated);
    }

    #[test]
    fn retried_app_reports_wasted_delay_and_partial_components() {
        let a = ApplicationId::new(CTS, 4);
        let am1 = a.attempt(1).container(1);
        let am2 = a.attempt(2).container(1);
        let e2 = a.attempt(2).container(2);
        let mk = |ts: u64, kind, container: Option<ContainerId>| ev(ts, kind, a, container);
        use EventKind::*;
        let evs = vec![
            mk(1_000, AppSubmitted, None),
            // Attempt 1: AM allocated, localizes, dies before the driver
            // ever logs — 500 ms of wasted scheduling work.
            mk(1_100, ContainerAllocated, Some(am1)),
            mk(1_200, ContainerLocalizing, Some(am1)),
            mk(1_600, ContainerDone, Some(am1)),
            // Attempt 2 runs through to a task.
            mk(2_000, ContainerAllocated, Some(am2)),
            mk(2_500, ContainerScheduled, Some(am2)),
            mk(3_000, DriverFirstLog, None),
            mk(4_000, DriverRegistered, None),
            mk(4_000, AttemptRegistered, None),
            mk(4_100, ContainerAllocated, Some(e2)),
            mk(5_000, ExecutorFirstLog, Some(e2)),
            mk(6_000, TaskAssigned, Some(e2)),
            mk(9_000, AppUnregistered, None),
        ];
        let g = build_graphs(&evs).remove(&a).unwrap();
        let d = decompose(&g);
        assert_eq!(d.outcome, AppOutcome::Completed);
        assert_eq!(d.attempts, 2);
        assert_eq!(d.wasted_ms, 500, "attempt-1 AM span 1100..1600");
        // Delay anchors ignore the dead attempt's containers.
        assert_eq!(d.total_ms, Some(5_000));
        assert_eq!(d.am_ms, Some(3_000));
        assert_eq!(d.cf_ms, Some(4_000));
        // The dead AM must not claim the (attempt-2) driver's first log.
        let dead_am = d.containers.iter().find(|c| c.cid == am1).unwrap();
        assert_eq!(dead_am.launching_ms, None);
        assert_eq!(dead_am.first_log, None);
        let live_am = d.containers.iter().find(|c| c.cid == am2).unwrap();
        assert_eq!(live_am.launching_ms, Some(500));
    }

    #[test]
    fn outcome_labels_are_stable() {
        assert_eq!(AppOutcome::Completed.label(), "completed");
        assert_eq!(AppOutcome::Failed.label(), "failed");
        assert_eq!(AppOutcome::Killed.label(), "killed");
        assert_eq!(AppOutcome::Truncated.label(), "truncated");
    }

    #[test]
    fn normalization_helpers() {
        let d = decompose(&timeline());
        let am_norm = d.normalized(d.am_ms).unwrap();
        assert!((am_norm - 4_400.0 / 12_000.0).abs() < 1e-12);
        assert_eq!(d.normalized(None), None);
    }

    #[test]
    fn in_plus_out_equals_total() {
        let d = decompose(&timeline());
        assert_eq!(
            d.in_app_ms.unwrap() + d.out_app_ms.unwrap(),
            d.total_ms.unwrap()
        );
    }
}
