//! Delay decomposition (paper §III-C): from a scheduling graph to the
//! named delay components.
//!
//! All delays are in milliseconds and `Option` — a component is `None`
//! when the evidence for it is absent from the logs (e.g. a MapReduce app
//! has no `START_ALLO`, an interference app may never assign a "task" in
//! the Spark sense, a crashed run may stop mid-chain). Consumers filter.

use logmodel::{ApplicationId, ContainerId, NodeId, TsMs};

use crate::event::EventKind::{self, *};
use crate::graph::{ContainerTrack, SchedulingGraph};
use Milestone::{App, Container, FirstLog, FirstWorker, LastWorker};

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
/// so component naming stays consistent across outputs. Each is named
/// after its row of the interval table; `in_app` and `out_app` are sums.
pub const APP_COMPONENTS: [AppComponent; 10] = [
    (TOTAL.name, |d| d.total_ms),
    (AM.name, |d| d.am_ms),
    (CF.name, |d| d.cf_ms),
    (CL.name, |d| d.cl_ms),
    ("in_app", |d| d.in_app_ms),
    ("out_app", |d| d.out_app_ms),
    (DRIVER.name, |d| d.driver_ms),
    (EXECUTOR.name, |d| d.executor_ms),
    (ALLOC.name, |d| d.alloc_ms),
    (JOB_RUNTIME.name, |d| d.job_runtime_ms),
];

/// The named per-container components, with accessors.
pub(crate) const CONTAINER_COMPONENTS: [ContainerComponent; 4] = [
    (ACQUISITION.name, |c| c.acquisition_ms),
    (LOCALIZATION.name, |c| c.localization_ms),
    (LAUNCHING.name, |c| c.launching_ms),
    (NM_QUEUE.name, |c| c.nm_queue_ms),
];

/// One end of a delay interval: where a Table I log message is read.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Milestone {
    /// The first `kind` on the application's own track.
    App(EventKind),
    /// The first `kind` on the container's track.
    Container(EventKind),
    /// The earliest first `kind` over the final attempt's workers.
    FirstWorker(EventKind),
    /// The latest first `kind` over the final attempt's workers.
    LastWorker(EventKind),
    /// The container's first log line, as [`first_log`] decides it.
    FirstLog,
}

impl Milestone {
    /// When the milestone happened in `g`, read for container `c` where
    /// it names one. `None` stands for the final attempt's AM when it
    /// left no track: only its first log line, the driver's, is known.
    pub(crate) fn at(self, g: &SchedulingGraph, c: Option<&ContainerTrack>) -> Option<TsMs> {
        match self {
            Milestone::App(kind) => g.first(kind),
            Milestone::Container(kind) => c?.first(kind),
            Milestone::FirstWorker(kind) => g.first_worker(kind),
            Milestone::LastWorker(kind) => g.last_worker(kind),
            Milestone::FirstLog => first_log(g, c),
        }
    }
}

/// A container's first log line: the driver's first line for the final
/// attempt's AM (`None`: one that left no track), the executor's first
/// line for every other container. The per-app driver log belongs to the
/// final attempt; an earlier attempt's AM must not claim its first line.
pub(crate) fn first_log(g: &SchedulingGraph, c: Option<&ContainerTrack>) -> Option<TsMs> {
    match c {
        Some(c) if !c.is_am() || c.cid.attempt.attempt < g.last_attempt() => {
            c.first(EventKind::ExecutorFirstLog)
        }
        _ => g.first(EventKind::DriverFirstLog),
    }
}

/// A named delay interval of §III-C: log message `to` − message `from`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Interval {
    /// The component's name.
    pub(crate) name: &'static str,
    /// Where the interval starts.
    pub(crate) from: Milestone,
    /// Where it ends.
    pub(crate) to: Milestone,
}

impl Interval {
    /// Both ends, read for container `c` (see [`Milestone::at`]), when
    /// both were logged; `to` may precede `from` in damaged logs.
    pub(crate) fn ends(
        &self,
        g: &SchedulingGraph,
        c: Option<&ContainerTrack>,
    ) -> Option<(TsMs, TsMs)> {
        Some((self.from.at(g, c)?, self.to.at(g, c)?))
    }

    /// The interval's length, saturating at 0 when it runs backwards.
    pub(crate) fn ms(&self, g: &SchedulingGraph, c: Option<&ContainerTrack>) -> Option<u64> {
        self.ends(g, c).map(|(from, to)| to.since(from))
    }
}

/// Defines each row of the table as a constant named after it, and (for
/// tests) the whole table in order.
macro_rules! table {
    ($($row:ident: $name:literal, $from:expr => $to:expr;)*) => {
        $(pub(crate) const $row: Interval = Interval { name: $name, from: $from, to: $to };)*
        #[cfg(test)]
        pub(crate) const ROWS: &[Interval] = &[$($row),*];
    };
}

// The table: every delay interval that a report prints, the critical
// path tiles, the app trace draws or the Gantt shades is one row here.
// DESIGN.md § "Delay definitions" states the rows with their Table I
// numbers (a unit test keeps the two in step).
table! {
    TOTAL: "total", App(AppSubmitted) => FirstWorker(TaskAssigned);
    AM: "am", App(AppSubmitted) => App(AttemptRegistered);
    CF: "cf", App(AppSubmitted) => FirstWorker(ExecutorFirstLog);
    CL: "cl", App(AppSubmitted) => LastWorker(ExecutorFirstLog);
    DRIVER: "driver", App(DriverFirstLog) => App(DriverRegistered);
    EXECUTOR: "executor", FirstWorker(ExecutorFirstLog) => FirstWorker(TaskAssigned);
    ALLOC: "alloc", App(StartAllo) => App(EndAllo);
    JOB_RUNTIME: "job_runtime", App(AppSubmitted) => App(AppUnregistered);
    ADMISSION: "admission", App(AppSubmitted) => App(AppAccepted);
    ALLOCATION: "allocation", App(AppAccepted) => Container(ContainerAllocated);
    ACQUISITION: "acquisition", Container(ContainerAllocated) => Container(ContainerAcquired);
    DISPATCH: "dispatch", Container(ContainerAcquired) => Container(ContainerLocalizing);
    LOCALIZATION: "localization", Container(ContainerLocalizing) => Container(ContainerScheduled);
    LAUNCHING: "launching", Container(ContainerScheduled) => FirstLog;
    EXECUTOR_IDLE: "executor_idle", FirstLog => Container(TaskAssigned);
    NM_QUEUE: "nm_queue", Container(ContainerScheduled) => Container(ContainerNmRunning);
}

/// The container ladder: allocation to first task, each rung starting
/// where the one before it ends. The critical path climbs it once for
/// the final AM and once for the critical executor; the Gantt shades a
/// lane per container with it.
pub(crate) const LADDER: [Interval; 6] = [
    ALLOCATION,
    ACQUISITION,
    DISPATCH,
    LOCALIZATION,
    LAUNCHING,
    EXECUTOR_IDLE,
];

/// The rungs a container climbs: an AM stops at its first log line, as
/// the driver runs no tasks.
pub(crate) const fn ladder(am: bool) -> &'static [Interval] {
    if am {
        LADDER.split_at(LADDER.len() - 1).0
    } else {
        &LADDER
    }
}

/// The rows of [`CONTAINER_COMPONENTS`], in its order.
pub(crate) const CONTAINER_ROWS: [Interval; 4] = [ACQUISITION, LOCALIZATION, LAUNCHING, NM_QUEUE];

/// Decompose one application's scheduling graph.
pub fn decompose(g: &SchedulingGraph) -> AppDelays {
    let ms = |row: Interval| row.ms(g, None);
    let (total_ms, driver_ms, executor_ms) = (ms(TOTAL), ms(DRIVER), ms(EXECUTOR));
    let in_app_ms = match (driver_ms, executor_ms) {
        (Some(d), Some(e)) => Some(d + e),
        _ => None,
    };
    let out_app_ms = match (total_ms, in_app_ms) {
        (Some(t), Some(i)) => Some(t.saturating_sub(i)),
        _ => None,
    };
    let containers = g
        .containers
        .values()
        .map(|track| {
            let c = Some(track);
            let [acquisition_ms, localization_ms, launching_ms, nm_queue_ms] =
                CONTAINER_ROWS.map(|row| row.ms(g, c));
            ContainerDelays {
                cid: track.cid,
                is_am: track.is_am(),
                node: track.node,
                acquisition_ms,
                localization_ms,
                launching_ms,
                nm_queue_ms,
                first_log: first_log(g, c),
            }
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
        submitted: TOTAL.from.at(g, None),
        total_ms,
        am_ms: ms(AM),
        cf_ms: ms(CF),
        cl_ms: ms(CL),
        in_app_ms,
        out_app_ms,
        driver_ms,
        executor_ms,
        alloc_ms: ms(ALLOC),
        job_runtime_ms: ms(JOB_RUNTIME),
        first_task: TOTAL.to.at(g, None),
        containers,
        outcome: AppOutcome::classify(g),
        attempts: g.last_attempt(),
        wasted_ms,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::event::tests::ev;
    use crate::graph::build_graphs;

    const CTS: u64 = 1_521_018_000_000;

    /// A full synthetic timeline with known delays: every Table I
    /// milestone of one attempt, an AM and two executors. The other
    /// modules' tests draw and tile it too.
    pub(crate) fn full_graph() -> SchedulingGraph {
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
        let d = decompose(&full_graph());
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
        let d = decompose(&full_graph());
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
        let d = decompose(&full_graph());
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

    /// An application whose first AM attempt died before its driver
    /// logged, and whose second ran through to a task; its containers are
    /// `(am1, am2, e2)`.
    pub(crate) fn retried_graph() -> (SchedulingGraph, [ContainerId; 3]) {
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
        (build_graphs(&evs).remove(&a).unwrap(), [am1, am2, e2])
    }

    /// An application that was submitted at 0 and admitted at 10 ms,
    /// and logged nothing else.
    pub(crate) fn admitted_graph() -> SchedulingGraph {
        let a = ApplicationId::new(CTS, 7);
        let evs = [ev(0, AppSubmitted, a, None), ev(10, AppAccepted, a, None)];
        build_graphs(&evs).remove(&a).unwrap()
    }

    #[test]
    fn retried_app_reports_wasted_delay_and_partial_components() {
        let (g, [am1, am2, _]) = retried_graph();
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
    fn the_rows_are_the_reported_components() {
        let sums = ["in_app", "out_app"];
        let (full, (retried, _)) = (full_graph(), retried_graph());
        let mut rows = ROWS.iter();
        for (name, get) in APP_COMPONENTS.iter().filter(|(n, _)| !sums.contains(n)) {
            let row = rows.next().unwrap();
            assert_eq!(row.name, *name);
            for g in [&full, &retried] {
                assert_eq!(get(&decompose(g)), row.ms(g, None), "{name}");
            }
        }
        let names = |rows: &[Interval]| rows.iter().map(|r| r.name).collect::<Vec<_>>();
        assert_eq!(names(&CONTAINER_ROWS), CONTAINER_COMPONENTS.map(|c| c.0));
    }

    #[test]
    fn first_log_is_the_drivers_for_the_final_am_only() {
        let (g, [dead, live, exec]) = retried_graph();
        let track = |cid| g.containers.get(&cid);
        assert_eq!(first_log(&g, track(dead)), None);
        assert_eq!(first_log(&g, track(live)), Some(TsMs(3_000)));
        assert_eq!(first_log(&g, track(exec)), Some(TsMs(5_000)));
        // The final AM without a track of its own still has the driver's.
        assert_eq!(first_log(&g, None), Some(TsMs(3_000)));
    }

    /// How DESIGN.md § "Delay definitions" states a row's end.
    fn describe(m: Milestone) -> String {
        let n = |k: EventKind| match k.table1_number() {
            Some(n) => format!("msg {n}"),
            None => "not in Table I".to_string(),
        };
        match m {
            App(k) => format!("`{}` ({})", k.name(), n(k)),
            Container(k) => format!("the container's `{}` ({})", k.name(), n(k)),
            FirstWorker(k) => format!("the earliest worker `{}` ({})", k.name(), n(k)),
            LastWorker(k) => format!("the latest worker `{}` ({})", k.name(), n(k)),
            FirstLog => format!(
                "the container's first log line ({} for the final attempt's AM, {} otherwise)",
                n(DriverFirstLog),
                n(ExecutorFirstLog)
            ),
        }
    }

    #[test]
    fn design_md_states_every_row() {
        let design = include_str!("../../../DESIGN.md");
        let missing: Vec<String> = ROWS
            .iter()
            .map(|r| {
                format!(
                    "- **{}**: {} → {}",
                    r.name,
                    describe(r.from),
                    describe(r.to)
                )
            })
            .filter(|bullet| !design.lines().any(|l| l == bullet))
            .collect();
        assert!(
            missing.is_empty(),
            "DESIGN.md lacks:\n{}",
            missing.join("\n")
        );
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
        let d = decompose(&full_graph());
        let am_norm = d.normalized(d.am_ms).unwrap();
        assert!((am_norm - 4_400.0 / 12_000.0).abs() < 1e-12);
        assert_eq!(d.normalized(None), None);
    }

    #[test]
    fn in_plus_out_equals_total() {
        let d = decompose(&full_graph());
        assert_eq!(
            d.in_app_ms.unwrap() + d.out_app_ms.unwrap(),
            d.total_ms.unwrap()
        );
    }
}
