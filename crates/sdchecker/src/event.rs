//! Scheduling events: the semantic layer SDchecker extracts from raw log
//! lines, corresponding to Table I of the paper (plus the terminal states
//! needed for job-runtime and bug analysis).
//!
//! A [`SchedEvent`] is made in one place, [`SchedEvent::new`], from the
//! stream its line was read from and the ids the line names, and it
//! stores each fact once: `ts`, `kind` and `app` as they are, a container
//! as its attempt and sequence within `app`, a node as its number, and
//! one byte for the binding `new` chose — the family of the stream and
//! whether a container is named. [`SchedEvent::source`] is that stream,
//! rebuilt from the byte and the ids (a stream's own id is always among
//! them) instead of a 40-byte copy, so the event is 48 bytes instead of
//! 120; the batch merge, the daemon's per-application buffers and the
//! exemplar reservoir hold that many per event.
//!
//! Which family writes a kind, and what its id names, only the rows of
//! [`crate::schema::PATTERNS`] say. The checkpoint decoder rebuilds each
//! event through `new` from the row that emits its kind, so it accepts
//! exactly the events the extractor makes.

use logmodel::{AppAttemptId, ApplicationId, ContainerId, LogSource, NodeId, TsMs};

use crate::checkpoint::CkptError;
use crate::schema::{emitter, MatchKind, Subject};
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

/// The global ids a log line names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Ids {
    App(ApplicationId),
    Container(ContainerId),
}

/// What [`SchedEvent::new`] bound an event to: the family of the stream
/// it was read from, and whether it names a container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Binding {
    /// The ResourceManager log; the application its line names.
    RmApp,
    /// The ResourceManager log; the container its line names.
    RmContainer,
    /// A NodeManager log, `node`; the container its line names.
    NmContainer,
    /// The application's driver log.
    Driver,
    /// The container's executor log.
    Executor,
}

/// One extracted scheduling event, bound to its global IDs.
///
/// `ts`, `kind` and `app` are stored as they are; the container is kept
/// as its attempt and sequence within `app`, the node as its number, and
/// `binding` says which of them are set and which family the stream the
/// event was read from ([`SchedEvent::source`]) belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedEvent {
    /// When it was logged.
    pub ts: TsMs,
    /// What happened.
    pub kind: EventKind,
    /// The owning application (always derivable — every Table-I message
    /// carries an application or container id).
    pub app: ApplicationId,
    binding: Binding,
    /// The container's attempt and sequence within `app`; zero when the
    /// binding names none.
    attempt: u32,
    seq: u64,
    /// The logging NodeManager's number; zero for other streams.
    node: u32,
}

const _: () = assert!(std::mem::size_of::<SchedEvent>() <= 48);

impl SchedEvent {
    /// The event of `kind` a line of `source` logged at `ts` makes: bound
    /// to `named`, the ids the line names, in a cluster log (a container,
    /// in a NodeManager's), and to the stream's own ids in an
    /// application's log. `None` for any other combination, which no row
    /// of [`crate::schema::PATTERNS`] makes.
    pub(crate) fn new(
        ts: TsMs,
        kind: EventKind,
        source: LogSource,
        named: Option<Ids>,
    ) -> Option<SchedEvent> {
        let (binding, app, cid, node) = match (source, named) {
            (LogSource::ResourceManager, Some(Ids::App(app))) => (Binding::RmApp, app, None, 0),
            (LogSource::ResourceManager, Some(Ids::Container(cid))) => {
                (Binding::RmContainer, cid.app(), Some(cid), 0)
            }
            (LogSource::NodeManager(node), Some(Ids::Container(cid))) => {
                (Binding::NmContainer, cid.app(), Some(cid), node.0)
            }
            (LogSource::Driver(app), None) => (Binding::Driver, app, None, 0),
            (LogSource::Executor(cid), None) => (Binding::Executor, cid.app(), Some(cid), 0),
            _ => return None,
        };
        Some(SchedEvent {
            ts,
            kind,
            app,
            binding,
            attempt: cid.map_or(0, |c| c.attempt.attempt),
            seq: cid.map_or(0, |c| c.seq),
            node,
        })
    }

    /// The container, for container-scoped events.
    pub fn container(&self) -> Option<ContainerId> {
        matches!(
            self.binding,
            Binding::RmContainer | Binding::NmContainer | Binding::Executor
        )
        .then(|| self.container_id())
    }

    /// The NodeManager that logged it, for events read from a NodeManager
    /// log.
    pub fn node(&self) -> Option<NodeId> {
        (self.binding == Binding::NmContainer).then_some(NodeId(self.node))
    }

    /// The log the event was read from.
    pub fn source(&self) -> LogSource {
        match self.binding {
            Binding::RmApp | Binding::RmContainer => LogSource::ResourceManager,
            Binding::NmContainer => LogSource::NodeManager(NodeId(self.node)),
            Binding::Driver => LogSource::Driver(self.app),
            Binding::Executor => LogSource::Executor(self.container_id()),
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
            binding: _, // with the ids: `container()`, `node()`, `source()`
            attempt: _,
            seq: _,
            node: _,
        } = self;
        (ts, kind, app).encode(e);
        (self.container(), self.node(), self.source()).encode(e);
    }
}

/// Only what [`SchedEvent::new`] makes from a line of the kind's row
/// decodes: the event is rebuilt from `source`, which must be of the
/// row's family, and the ids the row names (a transition row's `subject`,
/// else the stream's), and must give back all six members. Anything else
/// is `Corrupt` — a checkpoint cannot restore an event the extractor
/// could not have made.
impl Decode for SchedEvent {
    fn decode(d: &mut Dec<'_>) -> Result<SchedEvent, CkptError> {
        let (ts, kind, app): (TsMs, EventKind, ApplicationId) = d.get()?;
        let (container, node, source): (Option<ContainerId>, Option<NodeId>, LogSource) =
            d.get()?;
        let rebuilt = emitter(kind)
            .filter(|row| row.family == source.family())
            .and_then(|row| {
                let named = match row.kind {
                    MatchKind::Transition { subject, .. } => Some(match subject {
                        Subject::App => Ids::App(app),
                        Subject::Container => Ids::Container(container?),
                    }),
                    MatchKind::Prefix(..) | MatchKind::Positional(_) | MatchKind::Name(_) => None,
                };
                SchedEvent::new(ts, kind, source, named)
            });
        match rebuilt {
            Some(ev) if ev.app == app && ev.container() == container && ev.node() == node => Ok(ev),
            _ => Err(corrupt(format!(
                "{} event of {app} with container {container:?} and node {node:?} from {}",
                kind.name(),
                source.rel_path()
            ))),
        }
    }
}

#[cfg(test)]
pub mod tests {
    use super::*;
    use crate::extract::{CoverageCounts, Extractor, StreamCursor};
    use logmodel::schema::Family;
    use logmodel::{Level, LogRecord};

    /// The event of `kind` about `app`, or about `container` when given,
    /// read from a stream of the family of `kind`'s row (NodeManager
    /// kinds from node 0), if the row makes one.
    fn try_ev(
        ts: u64,
        kind: EventKind,
        app: ApplicationId,
        container: Option<ContainerId>,
    ) -> Option<SchedEvent> {
        let row = emitter(kind)?;
        let source = match row.family {
            Family::ResourceManager => LogSource::ResourceManager,
            Family::NodeManager => LogSource::NodeManager(NodeId(0)),
            Family::Driver => LogSource::Driver(app),
            Family::Executor => LogSource::Executor(container?),
        };
        let named = match row.kind {
            MatchKind::Transition { subject, .. } => Some(match subject {
                Subject::App => Ids::App(app),
                Subject::Container => Ids::Container(container?),
            }),
            _ => None,
        };
        SchedEvent::new(TsMs(ts), kind, source, named)
            .filter(|ev| ev.app == app && ev.container() == container)
    }

    /// Tests' shorthand for [`SchedEvent::new`]: given a container exactly
    /// when `kind`'s row binds its events to one (of `app`).
    pub(crate) fn ev(
        ts: u64,
        kind: EventKind,
        app: ApplicationId,
        container: Option<ContainerId>,
    ) -> SchedEvent {
        try_ev(ts, kind, app, container)
            .unwrap_or_else(|| panic!("no {kind:?} event of {app} with {container:?}"))
    }

    const CTS: u64 = 1_521_018_000_000;

    /// Each binding gives back exactly the ids the event was built from,
    /// and the stream it was read from.
    #[test]
    fn accessors_return_what_each_constructor_was_given() {
        let app = ApplicationId::new(CTS, 3);
        let cid = app.attempt(2).container(1_000_001);
        let node = NodeId(17);
        let rm = LogSource::ResourceManager;
        let nm = LogSource::NodeManager(node);
        let new = |ts, kind, source, named| SchedEvent::new(TsMs(ts), kind, source, named).unwrap();
        let cases = [
            // (event, container, node, source)
            (
                new(1, EventKind::AppAccepted, rm, Some(Ids::App(app))),
                None,
                None,
                rm,
            ),
            (
                new(
                    2,
                    EventKind::ContainerAcquired,
                    rm,
                    Some(Ids::Container(cid)),
                ),
                Some(cid),
                None,
                rm,
            ),
            (
                new(
                    3,
                    EventKind::ContainerScheduled,
                    nm,
                    Some(Ids::Container(cid)),
                ),
                Some(cid),
                Some(node),
                nm,
            ),
            (
                new(5, EventKind::StartAllo, LogSource::Driver(app), None),
                None,
                None,
                LogSource::Driver(app),
            ),
            (
                new(6, EventKind::TaskAssigned, LogSource::Executor(cid), None),
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
        // No ids in a cluster log, an application in a NodeManager's, or
        // ids in an application's log: no such row, and no event.
        for (source, named) in [
            (rm, None),
            (nm, None),
            (nm, Some(Ids::App(app))),
            (LogSource::Driver(app), Some(Ids::App(app))),
            (LogSource::Executor(cid), Some(Ids::Container(cid))),
        ] {
            let made = SchedEvent::new(TsMs(7), EventKind::StartAllo, source, named);
            assert_eq!(made, None, "{source:?} naming {named:?}");
        }
    }

    #[test]
    fn every_kind_round_trips_through_the_six_member_layout() {
        let cid = ApplicationId::new(CTS, 42).attempt(2).container(7);
        for kind in EventKind::ALL {
            let event = [None, Some(cid)]
                .into_iter()
                .find_map(|c| try_ev(9, kind, cid.app(), c))
                .unwrap();
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

    /// The event of `kind` the extractor makes of a line of its row that
    /// names `app`, or its container `own`, read from `source`.
    fn extracted(
        ex: &Extractor,
        kind: EventKind,
        source: LogSource,
        app: ApplicationId,
        own: ContainerId,
    ) -> Option<SchedEvent> {
        let row = emitter(kind).unwrap();
        let message = match row.kind {
            MatchKind::Transition {
                template,
                subject,
                to,
                ..
            } => {
                let id = match subject {
                    Subject::App => app.to_string(),
                    Subject::Container => own.to_string(),
                };
                let &(state, on, _) = to.iter().find(|&&(_, _, k)| k == kind).unwrap();
                [id.as_str(), "NEW", state, on.unwrap_or("E")]
                    .into_iter()
                    .fold(template.to_string(), |m, hole| m.replacen("{}", hole, 1))
            }
            MatchKind::Prefix(prefix, _) => format!("{prefix} 0"),
            MatchKind::Positional(_) | MatchKind::Name(_) => "a first line".to_string(),
        };
        let record = LogRecord::new(TsMs(1), Level::Info, row.class.unwrap_or("X"), message);
        let mut out = Vec::new();
        StreamCursor::default().step(
            ex,
            source,
            &record.as_ref(),
            &mut out,
            &mut CoverageCounts::default(),
        );
        out.into_iter().find(|ev| ev.kind == kind)
    }

    /// Hand-encoded payloads no line could have made: each is `Corrupt`,
    /// never an event. Then every kind, read from each family's stream
    /// (its own entity's or another's), with the container absent, own or
    /// foreign and the node absent, the stream's or another: a payload
    /// decodes exactly when its kind's row reads that family and binds
    /// those ids, and to the event the extractor makes of such a line.
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
            SchedEvent::new(TsMs(1), ContainerScheduled, nm, Some(Ids::Container(own))).unwrap()
        );

        let ex = Extractor::new();
        let other = NodeId(5);
        let sources = [
            rm,
            nm,
            LogSource::NodeManager(other),
            LogSource::Driver(app),
            LogSource::Driver(foreign.app()),
            LogSource::Executor(own),
            LogSource::Executor(foreign),
        ];
        let mut accepted = 0;
        for kind in EventKind::ALL {
            let row = emitter(kind).unwrap();
            // Whether the row binds an event of `app` to its container:
            // by the transition's subject, or by the executor stream's name.
            let bound = match row.kind {
                MatchKind::Transition { subject, .. } => subject == Subject::Container,
                _ => row.family == Family::Executor,
            };
            for source in sources {
                let own_stream = match source {
                    LogSource::ResourceManager | LogSource::NodeManager(_) => true,
                    LogSource::Driver(a) => a == app,
                    LogSource::Executor(c) => c == own,
                };
                let stream_node = match source {
                    LogSource::NodeManager(n) => Some(n),
                    _ => None,
                };
                let made = extracted(&ex, kind, source, app, own);
                for c in [None, Some(own), Some(foreign)] {
                    for n in [None, Some(node), Some(other)] {
                        let verdict = row.family == source.family()
                            && own_stream
                            && c == bound.then_some(own)
                            && n == stream_node;
                        let decoded = Dec::new(&payload(kind, c, n, source)).get::<SchedEvent>();
                        let what = format!("{kind:?} from {source:?}, {c:?}, {n:?}");
                        if verdict {
                            assert_eq!(decoded.ok(), made, "{what}");
                            accepted += 1;
                        } else {
                            assert!(matches!(decoded, Err(CkptError::Corrupt(_))), "{what}");
                        }
                    }
                }
            }
        }
        // Each kind decodes from one stream and id set, a NodeManager kind
        // from either node's log.
        let nm_kinds = EventKind::ALL
            .into_iter()
            .filter(|&k| emitter(k).unwrap().family == Family::NodeManager)
            .count();
        assert_eq!(accepted, EventKind::ALL.len() + nm_kinds);
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
}
