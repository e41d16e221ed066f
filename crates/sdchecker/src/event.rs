//! Scheduling events: the semantic layer SDchecker extracts from raw log
//! lines, corresponding to Table I of the paper (plus the terminal states
//! needed for job-runtime and bug analysis).

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
    /// given one (appended — the numbers below are `checkpoint-v1`).
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
    pub fn is_cluster_side(self) -> bool {
        use EventKind::*;
        !matches!(
            self,
            DriverFirstLog
                | DriverRegistered
                | StartAllo
                | EndAllo
                | ExecutorFirstLog
                | TaskAssigned
        )
    }
}

/// One extracted scheduling event, bound to its global IDs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedEvent {
    /// When it was logged.
    pub ts: TsMs,
    /// What happened.
    pub kind: EventKind,
    /// The owning application (always derivable — every Table-I message
    /// carries an application or container id).
    pub app: ApplicationId,
    /// The container, for container-scoped events.
    pub container: Option<ContainerId>,
    /// The NodeManager that logged it, for NM events.
    pub node: Option<NodeId>,
    /// Which log the event came from.
    pub source: LogSource,
}

// Checkpoint layouts (`checkpoint-v1`; see `crate::wire` for the
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

wire_struct!(SchedEvent {
    ts,
    kind,
    app,
    container,
    node,
    source,
});

#[cfg(test)]
mod tests {
    use super::*;

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
