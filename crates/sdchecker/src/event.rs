//! Scheduling events: the semantic layer SDchecker extracts from raw log
//! lines, corresponding to Table I of the paper (plus the terminal states
//! needed for job-runtime and bug analysis).
//!
//! A [`SchedEvent`] stores each fact once. Every kind is written by
//! exactly one log family — `RMAppImpl`/`RMContainerImpl` lines by the
//! ResourceManager, `ContainerImpl` lines by a NodeManager, milestones
//! by the driver or executor log they are read from — so the log an
//! event came from is a function of its kind and its ids, and
//! [`SchedEvent::source`] derives it instead of storing a 40-byte copy.
//! Likewise a container always belongs to the event's application, so
//! only its attempt and sequence are kept beside `app`. The event is
//! 48 bytes instead of 120, and the batch merge, the daemon's
//! per-application buffers and the exemplar reservoir hold that many
//! per event. Construction goes through three constructors (one per
//! scope), and the checkpoint decoder accepts exactly what they produce.

use logmodel::{AppAttemptId, ApplicationId, ContainerId, LogSource, NodeId, TsMs};

use crate::checkpoint::CkptError;
use crate::wire::{corrupt, wire_struct, Dec, Decode, Enc, Encode};

/// The identified scheduling-event kinds. Numbers in the doc comments are
/// the paper's Table-I log-message numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    /// 1 — `RMAppImpl` reached SUBMITTED: the app registered with the RM.
    /// The start of the total scheduling delay.
    AppSubmitted,
    /// 2 — `RMAppImpl` reached ACCEPTED: the app will be scheduled.
    AppAccepted,
    /// 3 — `RMAppImpl` reached RUNNING on `ATTEMPT_REGISTERED`: the
    /// AppMaster registered. End of the AM delay.
    AttemptRegistered,
    /// `RMAppImpl` reached FINAL_SAVING: the AM unregistered — the job is
    /// functionally complete (used for job runtime).
    AppUnregistered,
    /// `RMAppImpl` reached FINISHED.
    AppFinished,
    /// `RMAppImpl` reached FAILED: every AM attempt failed. Terminal.
    AppFailed,
    /// `RMAppImpl` reached KILLED: the app was killed. Terminal.
    AppKilled,

    /// 4 — `RMContainerImpl` reached ALLOCATED.
    ContainerAllocated,
    /// 5 — `RMContainerImpl` reached ACQUIRED.
    ContainerAcquired,
    /// `RMContainerImpl` reached RUNNING (RM's view).
    ContainerRmRunning,
    /// `RMContainerImpl` reached COMPLETED.
    ContainerCompleted,

    /// 6 — `ContainerImpl` (NM) reached LOCALIZING.
    ContainerLocalizing,
    /// 7 — `ContainerImpl` (NM) reached SCHEDULED.
    ContainerScheduled,
    /// 8 — `ContainerImpl` (NM) reached RUNNING.
    ContainerNmRunning,
    /// `ContainerImpl` (NM) reached DONE.
    ContainerDone,

    /// 9 — first log line of the driver process.
    DriverFirstLog,
    /// 10 — the driver registered with the ResourceManager.
    DriverRegistered,
    /// 11 — the driver started requesting executor containers
    /// (the authors' Spark patch).
    StartAllo,
    /// 12 — all requested executor containers were granted.
    EndAllo,
    /// 13 — first log line of an executor process.
    ExecutorFirstLog,
    /// 14 — a task was assigned to an executor.
    TaskAssigned,
}

impl EventKind {
    /// Every kind, in Table-I-then-terminal order (for iteration in
    /// reports and tests).
    pub const ALL: [EventKind; 21] = [
        EventKind::AppSubmitted,
        EventKind::AppAccepted,
        EventKind::AttemptRegistered,
        EventKind::AppUnregistered,
        EventKind::AppFinished,
        EventKind::AppFailed,
        EventKind::AppKilled,
        EventKind::ContainerAllocated,
        EventKind::ContainerAcquired,
        EventKind::ContainerRmRunning,
        EventKind::ContainerCompleted,
        EventKind::ContainerLocalizing,
        EventKind::ContainerScheduled,
        EventKind::ContainerNmRunning,
        EventKind::ContainerDone,
        EventKind::DriverFirstLog,
        EventKind::DriverRegistered,
        EventKind::StartAllo,
        EventKind::EndAllo,
        EventKind::ExecutorFirstLog,
        EventKind::TaskAssigned,
    ];

    /// Stable display/metric name (used as the `kind` label of the
    /// `extract_events_total` counter).
    pub fn name(self) -> &'static str {
        use EventKind::*;
        match self {
            AppSubmitted => "AppSubmitted",
            AppAccepted => "AppAccepted",
            AttemptRegistered => "AttemptRegistered",
            AppUnregistered => "AppUnregistered",
            AppFinished => "AppFinished",
            AppFailed => "AppFailed",
            AppKilled => "AppKilled",
            ContainerAllocated => "ContainerAllocated",
            ContainerAcquired => "ContainerAcquired",
            ContainerRmRunning => "ContainerRmRunning",
            ContainerCompleted => "ContainerCompleted",
            ContainerLocalizing => "ContainerLocalizing",
            ContainerScheduled => "ContainerScheduled",
            ContainerNmRunning => "ContainerNmRunning",
            ContainerDone => "ContainerDone",
            DriverFirstLog => "DriverFirstLog",
            DriverRegistered => "DriverRegistered",
            StartAllo => "StartAllo",
            EndAllo => "EndAllo",
            ExecutorFirstLog => "ExecutorFirstLog",
            TaskAssigned => "TaskAssigned",
        }
    }

    /// Table-I log-message number, if this kind has one.
    pub fn table1_number(self) -> Option<u8> {
        use EventKind::*;
        Some(match self {
            AppSubmitted => 1,
            AppAccepted => 2,
            AttemptRegistered => 3,
            ContainerAllocated => 4,
            ContainerAcquired => 5,
            ContainerLocalizing => 6,
            ContainerScheduled => 7,
            ContainerNmRunning => 8,
            DriverFirstLog => 9,
            DriverRegistered => 10,
            StartAllo => 11,
            EndAllo => 12,
            ExecutorFirstLog => 13,
            TaskAssigned => 14,
            _ => return None,
        })
    }

    /// The kind's number in a checkpoint: its position in [`Self::ALL`],
    /// spelled out so that a new variant does not compile until it is
    /// given one (appended — the numbers below are those of every
    /// checkpoint schema so far).
    fn wire_id(self) -> u8 {
        use EventKind::*;
        match self {
            AppSubmitted => 0,
            AppAccepted => 1,
            AttemptRegistered => 2,
            AppUnregistered => 3,
            AppFinished => 4,
            AppFailed => 5,
            AppKilled => 6,
            ContainerAllocated => 7,
            ContainerAcquired => 8,
            ContainerRmRunning => 9,
            ContainerCompleted => 10,
            ContainerLocalizing => 11,
            ContainerScheduled => 12,
            ContainerNmRunning => 13,
            ContainerDone => 14,
            DriverFirstLog => 15,
            DriverRegistered => 16,
            StartAllo => 17,
            EndAllo => 18,
            ExecutorFirstLog => 19,
            TaskAssigned => 20,
        }
    }

    /// The kind's position in [`Self::ALL`].
    pub(crate) fn index(self) -> usize {
        usize::from(self.wire_id())
    }

    /// Whether this kind ends an application's life (the retirement
    /// anchor of the incremental pipeline).
    pub(crate) fn is_terminal(self) -> bool {
        use EventKind::*;
        matches!(self, AppUnregistered | AppFinished | AppFailed | AppKilled)
    }

    /// Whether the event comes from cluster-scheduler (YARN) logs, as
    /// opposed to application (Spark) logs.
    pub(crate) fn is_cluster_side(self) -> bool {
        !matches!(self.writer(), Writer::Driver | Writer::Executor)
    }

    /// The one log family that writes this kind, and what it names.
    fn writer(self) -> Writer {
        use EventKind::*;
        match self {
            AppSubmitted | AppAccepted | AttemptRegistered | AppUnregistered | AppFinished
            | AppFailed | AppKilled => Writer::RmApp,
            ContainerAllocated | ContainerAcquired | ContainerRmRunning | ContainerCompleted => {
                Writer::RmContainer
            }
            ContainerLocalizing | ContainerScheduled | ContainerNmRunning | ContainerDone => {
                Writer::NodeManager
            }
            DriverFirstLog | DriverRegistered | StartAllo | EndAllo => Writer::Driver,
            ExecutorFirstLog | TaskAssigned => Writer::Executor,
        }
    }
}

/// Add `per_kind`, events tallied by [`EventKind::index`], to
/// `extract_events_total{kind}`: one increment per kind present, not per
/// event, as each builds a key and takes a lock.
pub(crate) fn count_event_kinds(per_kind: &[u64; EventKind::ALL.len()]) {
    for (kind, &n) in EventKind::ALL.iter().zip(per_kind) {
        if n > 0 {
            obs::count_labeled("extract_events_total", &[("kind", kind.name())], n);
        }
    }
}

/// Where a kind is logged, and which ids besides the application its
/// events carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Writer {
    /// `RMAppImpl` in the ResourceManager log: the application only.
    RmApp,
    /// `RMContainerImpl` in the ResourceManager log: a container.
    RmContainer,
    /// `ContainerImpl` in a NodeManager log: a container and the node.
    NodeManager,
    /// The application's driver log: the application only.
    Driver,
    /// A container's executor log: that container.
    Executor,
}

/// One extracted scheduling event, bound to its global IDs.
///
/// `ts`, `kind` and `app` are stored as they are; the container is kept
/// as its attempt and sequence within `app`, the node as its number,
/// each behind a presence flag, and the log it came from is derived
/// ([`SchedEvent::source`]). Build one with [`SchedEvent::app_scoped`],
/// [`SchedEvent::container_scoped`] or [`SchedEvent::node_manager`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedEvent {
    /// When it was logged.
    pub ts: TsMs,
    /// What happened.
    pub kind: EventKind,
    /// The owning application (always derivable — every Table-I message
    /// carries an application or container id).
    pub app: ApplicationId,
    has_container: bool,
    has_node: bool,
    /// The container's attempt and sequence within `app`; zero when
    /// `has_container` is not set.
    attempt: u32,
    seq: u64,
    /// The logging NodeManager's number; zero when `has_node` is not set.
    node: u32,
}

const _: () = assert!(std::mem::size_of::<SchedEvent>() <= 48);

impl SchedEvent {
    /// An event about the application itself: an `RMAppImpl` transition
    /// or a driver-log milestone.
    pub(crate) fn app_scoped(ts: TsMs, kind: EventKind, app: ApplicationId) -> SchedEvent {
        debug_assert!(
            matches!(kind.writer(), Writer::RmApp | Writer::Driver),
            "{kind:?}"
        );
        SchedEvent {
            ts,
            kind,
            app,
            has_container: false,
            has_node: false,
            attempt: 0,
            seq: 0,
            node: 0,
        }
    }

    /// An event about one container, logged by the ResourceManager or by
    /// the container's own executor log.
    pub(crate) fn container_scoped(ts: TsMs, kind: EventKind, cid: ContainerId) -> SchedEvent {
        debug_assert!(
            matches!(kind.writer(), Writer::RmContainer | Writer::Executor),
            "{kind:?}"
        );
        SchedEvent {
            ts,
            kind,
            app: cid.app(),
            has_container: true,
            has_node: false,
            attempt: cid.attempt.attempt,
            seq: cid.seq,
            node: 0,
        }
    }

    /// A `ContainerImpl` transition logged by NodeManager `node`.
    pub(crate) fn node_manager(
        ts: TsMs,
        kind: EventKind,
        cid: ContainerId,
        node: NodeId,
    ) -> SchedEvent {
        debug_assert!(kind.writer() == Writer::NodeManager, "{kind:?}");
        SchedEvent {
            ts,
            kind,
            app: cid.app(),
            has_container: true,
            has_node: true,
            attempt: cid.attempt.attempt,
            seq: cid.seq,
            node: node.0,
        }
    }

    /// The container, for container-scoped events.
    pub fn container(&self) -> Option<ContainerId> {
        self.has_container.then(|| self.container_id())
    }

    /// The NodeManager that logged it, for NodeManager events.
    pub fn node(&self) -> Option<NodeId> {
        self.has_node.then_some(NodeId(self.node))
    }

    /// Which log the event came from: the ResourceManager's for RM kinds,
    /// the node's for NodeManager kinds, the application's driver log or
    /// the container's executor log for the milestones read from them.
    pub fn source(&self) -> LogSource {
        match self.kind.writer() {
            Writer::RmApp | Writer::RmContainer => LogSource::ResourceManager,
            Writer::NodeManager => LogSource::NodeManager(NodeId(self.node)),
            Writer::Driver => LogSource::Driver(self.app),
            Writer::Executor => LogSource::Executor(self.container_id()),
        }
    }

    fn container_id(&self) -> ContainerId {
        self.app.attempt(self.attempt).container(self.seq)
    }
}

// Checkpoint layouts (see `crate::wire` for the
// rules). The logmodel id types are laid out here, beside the event that
// carries all of them.

impl Encode for EventKind {
    fn encode(&self, e: &mut Enc) {
        e.u8(self.wire_id());
    }
}

impl Decode for EventKind {
    fn decode(d: &mut Dec<'_>) -> Result<EventKind, CkptError> {
        let id = d.u8()?;
        EventKind::ALL
            .get(usize::from(id))
            .copied()
            .ok_or_else(|| corrupt(format!("invalid event-kind discriminant {id}")))
    }
}

impl Encode for TsMs {
    fn encode(&self, e: &mut Enc) {
        let TsMs(ms) = self;
        ms.encode(e);
    }
}

impl Decode for TsMs {
    fn decode(d: &mut Dec<'_>) -> Result<TsMs, CkptError> {
        Ok(TsMs(d.get()?))
    }
}

impl Encode for NodeId {
    fn encode(&self, e: &mut Enc) {
        let NodeId(n) = self;
        n.encode(e);
    }
}

impl Decode for NodeId {
    fn decode(d: &mut Dec<'_>) -> Result<NodeId, CkptError> {
        Ok(NodeId(d.get()?))
    }
}

wire_struct!(ApplicationId { cluster_ts, seq });

impl Encode for ContainerId {
    fn encode(&self, e: &mut Enc) {
        let ContainerId {
            attempt: AppAttemptId { app, attempt },
            seq,
        } = self;
        (app, attempt, seq).encode(e);
    }
}

impl Decode for ContainerId {
    fn decode(d: &mut Dec<'_>) -> Result<ContainerId, CkptError> {
        let (app, attempt, seq) = d.get()?;
        Ok(ContainerId {
            attempt: AppAttemptId { app, attempt },
            seq,
        })
    }
}

/// A source travels as its relative path — the one spelling that both
/// the tailer's file table and the corpus layout already agree on.
impl Encode for LogSource {
    fn encode(&self, e: &mut Enc) {
        self.rel_path().encode(e);
    }
}

impl Decode for LogSource {
    fn decode(d: &mut Dec<'_>) -> Result<LogSource, CkptError> {
        let rel: String = d.get()?;
        LogSource::from_rel_path(&rel).ok_or_else(|| corrupt(format!("unknown log source {rel:?}")))
    }
}

/// An event travels as the six members it stands for, in the order the
/// `checkpoint-v1` layout gave them when each was a field: `ts`, `kind`,
/// `app`, `container`, `node`, `source`.
impl Encode for SchedEvent {
    fn encode(&self, e: &mut Enc) {
        let SchedEvent {
            ts,
            kind,
            app,
            has_container: _, // with `attempt` and `seq`: `container()`
            attempt: _,
            seq: _,
            has_node: _, // with `node`: `node()`
            node: _,
        } = self;
        (ts, kind, app).encode(e);
        (self.container(), self.node(), self.source()).encode(e);
    }
}

/// Only what one of the three constructors produces decodes: the ids a
/// kind's writer names, a container of the event's own application, and
/// the source derived from them. Anything else is `Corrupt` — a
/// checkpoint cannot restore an event the extractor could not have made.
impl Decode for SchedEvent {
    fn decode(d: &mut Dec<'_>) -> Result<SchedEvent, CkptError> {
        let (ts, kind, app): (TsMs, EventKind, ApplicationId) = d.get()?;
        let (container, node, source): (Option<ContainerId>, Option<NodeId>, LogSource) =
            d.get()?;
        let ev = match (kind.writer(), container, node) {
            (Writer::RmApp | Writer::Driver, None, None) => SchedEvent::app_scoped(ts, kind, app),
            (Writer::RmContainer | Writer::Executor, Some(cid), None) if cid.app() == app => {
                SchedEvent::container_scoped(ts, kind, cid)
            }
            (Writer::NodeManager, Some(cid), Some(node)) if cid.app() == app => {
                SchedEvent::node_manager(ts, kind, cid, node)
            }
            _ => {
                return Err(corrupt(format!(
                    "{} event of {app} with container {container:?} and node {node:?}",
                    kind.name()
                )))
            }
        };
        if ev.source() != source {
            return Err(corrupt(format!(
                "{} event of {app} from {}",
                kind.name(),
                source.rel_path()
            )));
        }
        Ok(ev)
    }
}

#[cfg(test)]
pub mod tests {
    use super::*;

    /// Tests' shorthand for the three constructors: the one `kind` calls
    /// for, given a container exactly when the kind is container-scoped
    /// (of `app`); NodeManager kinds are logged by node 0.
    pub(crate) fn ev(
        ts: u64,
        kind: EventKind,
        app: ApplicationId,
        container: Option<ContainerId>,
    ) -> SchedEvent {
        let ts = TsMs(ts);
        match (kind.writer(), container) {
            (Writer::RmApp | Writer::Driver, None) => SchedEvent::app_scoped(ts, kind, app),
            (Writer::RmContainer | Writer::Executor, Some(cid)) if cid.app() == app => {
                SchedEvent::container_scoped(ts, kind, cid)
            }
            (Writer::NodeManager, Some(cid)) if cid.app() == app => {
                SchedEvent::node_manager(ts, kind, cid, NodeId(0))
            }
            _ => panic!("no constructor makes a {kind:?} event of {app} with {container:?}"),
        }
    }

    const CTS: u64 = 1_521_018_000_000;

    /// Each family gets back exactly the ids it was built from, and the
    /// source the extractor used to store next to them.
    #[test]
    fn accessors_return_what_each_constructor_was_given() {
        let app = ApplicationId::new(CTS, 3);
        let cid = app.attempt(2).container(1_000_001);
        let node = NodeId(17);
        let cases = [
            // (event, container, node, source)
            (
                SchedEvent::app_scoped(TsMs(1), EventKind::AppAccepted, app),
                None,
                None,
                LogSource::ResourceManager,
            ),
            (
                SchedEvent::container_scoped(TsMs(2), EventKind::ContainerAcquired, cid),
                Some(cid),
                None,
                LogSource::ResourceManager,
            ),
            (
                SchedEvent::node_manager(TsMs(3), EventKind::ContainerScheduled, cid, node),
                Some(cid),
                Some(node),
                LogSource::NodeManager(node),
            ),
            (
                SchedEvent::app_scoped(TsMs(4), EventKind::StartAllo, app),
                None,
                None,
                LogSource::Driver(app),
            ),
            (
                SchedEvent::container_scoped(TsMs(5), EventKind::TaskAssigned, cid),
                Some(cid),
                None,
                LogSource::Executor(cid),
            ),
        ];
        for (ev, container, node, source) in cases {
            assert_eq!(ev.app, app, "{ev:?}");
            assert_eq!(ev.container(), container, "{ev:?}");
            assert_eq!(ev.node(), node, "{ev:?}");
            assert_eq!(ev.source(), source, "{ev:?}");
        }
    }

    #[test]
    fn every_kind_round_trips_through_the_six_member_layout() {
        let cid = ApplicationId::new(CTS, 42).attempt(2).container(7);
        for kind in EventKind::ALL {
            let scoped = !matches!(kind.writer(), Writer::RmApp | Writer::Driver);
            let event = ev(9, kind, cid.app(), scoped.then_some(cid));
            let bytes = Enc::payload(&event);
            let six = Enc::payload(&(
                (event.ts, event.kind, event.app),
                (event.container(), event.node(), event.source()),
            ));
            assert_eq!(bytes, six, "{kind:?}");
            let mut d = Dec::new(&bytes);
            assert_eq!(d.get::<SchedEvent>().unwrap(), event, "{kind:?}");
            d.finish().unwrap();
        }
    }

    /// Hand-encoded payloads no constructor could have produced: each is
    /// `Corrupt`, never an event.
    #[test]
    fn decode_rejects_what_no_constructor_makes() {
        let app = ApplicationId::new(CTS, 5);
        let own = app.attempt(1).container(2);
        let foreign = ApplicationId::new(CTS, 6).attempt(1).container(2);
        let node = NodeId(4);
        let rm = LogSource::ResourceManager;
        let nm = LogSource::NodeManager(node);
        use EventKind::*;
        let payload = |kind: EventKind, c: Option<ContainerId>, n: Option<NodeId>, s: LogSource| {
            Enc::payload(&((TsMs(1), kind, app), (c, n, s)))
        };
        let cases = [
            (
                "NodeManager kind without a node",
                payload(ContainerLocalizing, Some(own), None, nm),
            ),
            (
                "NodeManager kind without a container",
                payload(ContainerDone, None, Some(node), nm),
            ),
            (
                "node on a ResourceManager kind",
                payload(ContainerAllocated, Some(own), Some(node), rm),
            ),
            (
                "container on an application kind",
                payload(AppSubmitted, Some(own), None, rm),
            ),
            (
                "container kind without a container",
                payload(ContainerAcquired, None, None, rm),
            ),
            (
                "executor kind without a container",
                payload(TaskAssigned, None, None, LogSource::Executor(own)),
            ),
            (
                "container of another application",
                payload(ContainerAllocated, Some(foreign), None, rm),
            ),
            (
                "NodeManager container of another application",
                payload(ContainerScheduled, Some(foreign), Some(node), nm),
            ),
            (
                "ResourceManager kind from a NodeManager log",
                payload(AppAccepted, None, None, nm),
            ),
            (
                "NodeManager kind from another node's log",
                payload(
                    ContainerScheduled,
                    Some(own),
                    Some(node),
                    LogSource::NodeManager(NodeId(5)),
                ),
            ),
            (
                "driver kind from the ResourceManager log",
                payload(DriverRegistered, None, None, rm),
            ),
            (
                "driver kind from another application's log",
                payload(EndAllo, None, None, LogSource::Driver(foreign.app())),
            ),
            (
                "executor kind from another container's log",
                payload(
                    ExecutorFirstLog,
                    Some(own),
                    None,
                    LogSource::Executor(app.attempt(1).container(3)),
                ),
            ),
        ];
        for (what, bytes) in cases {
            assert!(
                matches!(
                    Dec::new(&bytes).get::<SchedEvent>(),
                    Err(CkptError::Corrupt(_))
                ),
                "{what}"
            );
        }
        // The same builder, given a consistent combination, decodes.
        let ok = payload(ContainerScheduled, Some(own), Some(node), nm);
        assert_eq!(
            Dec::new(&ok).get::<SchedEvent>().unwrap(),
            SchedEvent::node_manager(TsMs(1), ContainerScheduled, own, node)
        );
    }

    /// The discriminant is exhaustive by construction (`wire_id` is a
    /// `match`); this pins its values to the `ALL` positions that
    /// `checkpoint-v1` files already hold, and the way back.
    #[test]
    fn wire_discriminants_are_the_all_positions_and_round_trip() {
        for (i, k) in EventKind::ALL.into_iter().enumerate() {
            let bytes = Enc::payload(&k);
            assert_eq!(bytes, [i as u8], "{k:?}");
            assert_eq!(Dec::new(&bytes).get::<EventKind>().unwrap(), k);
        }
        let past = [EventKind::ALL.len() as u8];
        assert!(Dec::new(&past).get::<EventKind>().is_err());
    }

    #[test]
    fn table1_numbers_cover_paper() {
        use EventKind::*;
        let expected = [
            (AppSubmitted, 1),
            (AppAccepted, 2),
            (AttemptRegistered, 3),
            (ContainerAllocated, 4),
            (ContainerAcquired, 5),
            (ContainerLocalizing, 6),
            (ContainerScheduled, 7),
            (ContainerNmRunning, 8),
            (DriverFirstLog, 9),
            (DriverRegistered, 10),
            (StartAllo, 11),
            (EndAllo, 12),
            (ExecutorFirstLog, 13),
            (TaskAssigned, 14),
        ];
        for (k, n) in expected {
            assert_eq!(k.table1_number(), Some(n), "{k:?}");
        }
        assert_eq!(AppFinished.table1_number(), None);
        assert_eq!(ContainerDone.table1_number(), None);
        assert_eq!(AppFailed.table1_number(), None);
        assert_eq!(AppKilled.table1_number(), None);
    }

    #[test]
    fn names_are_unique_and_cover_all() {
        let names: std::collections::BTreeSet<&str> =
            EventKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), EventKind::ALL.len());
        for k in EventKind::ALL {
            assert_eq!(format!("{k:?}"), k.name());
        }
    }

    #[test]
    fn cluster_vs_app_side() {
        assert!(EventKind::AppSubmitted.is_cluster_side());
        assert!(EventKind::ContainerScheduled.is_cluster_side());
        assert!(!EventKind::DriverRegistered.is_cluster_side());
        assert!(!EventKind::TaskAssigned.is_cluster_side());
    }
}
