//! The cluster's interface to the surrounding simulation: events it
//! schedules for itself, notices it raises to the application layer, and
//! the log lines it writes.
//!
//! The cluster never owns the event loop or the log store. Every method
//! takes the current time and an [`Out`] buffer; the embedding model (see
//! `sparksim`) drains the buffer, forwards events to the simulation
//! kernel, dispatches notices to per-application logic, and renders the
//! [`Line`]s into its logs. A line stays typed until then: a state
//! transition is its entity, states and instant, not text. This keeps
//! `yarnsim` free of any knowledge about Spark, MapReduce, the experiment
//! harness, or where its logs end up.

use std::fmt;

use logmodel::schema::MsgTemplate;
use logmodel::{ApplicationId, ContainerId, LogSource, NodeId, TsMs};
use simkit::{Millis, ResourceGen};

use crate::config::{ContainerRuntime, ResourceReq};
use crate::schema;
use crate::state::{NmContainerState, RmAppState, RmContainerState};

/// Opaque handle for application-submitted work (CPU or IO) running on a
/// node's shared resources. Completion is reported via
/// [`AppNotice::WorkDone`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ticket(pub u64);

/// What kind of process a container hosts. Determines the launch-work
/// profile (paper Fig. 9-(a) instance types) and is echoed in notices so
/// the application layer can route them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstanceKind {
    /// Spark driver / ApplicationMaster (`spm`).
    SparkDriver,
    /// Spark executor (`spe`).
    SparkExecutor,
    /// MapReduce ApplicationMaster (`mrm`).
    MrMaster,
    /// MapReduce map task (`mrsm`).
    MrMap,
    /// MapReduce reduce task (`mrsr`).
    MrReduce,
}

impl InstanceKind {
    /// The short label the paper uses on Fig. 9-(a)'s x-axis.
    pub fn label(self) -> &'static str {
        match self {
            InstanceKind::SparkDriver => "spm",
            InstanceKind::SparkExecutor => "spe",
            InstanceKind::MrMaster => "mrm",
            InstanceKind::MrMap => "mrsm",
            InstanceKind::MrReduce => "mrsr",
        }
    }
}

/// A file/archive the NodeManager must localize before launching.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalResource {
    /// Cache key within an application (e.g. `"spark-libs.jar"`).
    pub name: String,
    /// Size in MB.
    pub mb: f64,
}

impl LocalResource {
    /// Construct a resource.
    pub fn new(name: impl Into<String>, mb: f64) -> LocalResource {
        LocalResource {
            name: name.into(),
            mb,
        }
    }
}

/// Everything the NodeManager needs to start a container's process.
/// Work amounts are concrete values (already sampled by the application
/// layer) so the cluster stays distribution-agnostic.
#[derive(Debug, Clone)]
pub struct LaunchSpec {
    /// Host process type.
    pub kind: InstanceKind,
    /// Files to localize before launch.
    pub localization: Vec<LocalResource>,
    /// Plain YARN container or Docker.
    pub runtime: ContainerRuntime,
    /// CPU work of the launch script + JVM start, in cpu-ms.
    pub launch_cpu_ms: f64,
    /// Parallelism of the launch work (JVM startup is mostly one hot
    /// thread plus some JIT helpers).
    pub launch_threads: f64,
    /// Disk reads during process start (classloading from the localized
    /// jars), MB. This is why heavy disk interference slows JVM start
    /// (paper §IV-E factor 2).
    pub launch_io_mb: f64,
}

/// Application submission context (what the client ships to the RM).
#[derive(Debug, Clone)]
pub struct AppSubmission {
    /// Display name for logs.
    pub name: String,
    /// AM container size.
    pub am_resource: ResourceReq,
    /// AM container launch spec (localization of the driver's jars etc.).
    pub am_launch: LaunchSpec,
    /// AM→RM heartbeat interval. The container *acquisition* delay is
    /// quantized by this (paper Fig. 7-(c): capped at 1 s for MapReduce).
    pub am_heartbeat_ms: u64,
}

/// Events the cluster schedules for itself.
#[derive(Debug, Clone)]
pub enum ClusterEvent {
    /// A NodeManager's periodic heartbeat: the Capacity Scheduler assigns
    /// backlog containers to the heartbeating node; self-reschedules.
    NmHeartbeat(NodeId),
    /// An application master's periodic heartbeat: pulls newly allocated
    /// containers (ALLOCATED → ACQUIRED) and self-reschedules while the
    /// application lives.
    AmHeartbeat(ApplicationId),
    /// A node's CPU pool may have completed flows.
    CpuTick(NodeId, ResourceGen),
    /// A node's IO channel may have completed flows.
    IoTick(NodeId, ResourceGen),
    /// A node's dedicated localization store may have completed flows
    /// (§V-B optimization).
    StoreTick(NodeId, ResourceGen),
    /// RM state-store write finished: NEW_SAVING → SUBMITTED.
    RmAppSaved(ApplicationId),
    /// Scheduler admission finished: SUBMITTED → ACCEPTED, AM queued.
    RmAppAccepted(ApplicationId),
    /// Distributed-scheduler decision latency elapsed: place `count`
    /// containers on random nodes.
    OppAllocate {
        /// Requesting application.
        app: ApplicationId,
        /// Containers to place.
        count: u32,
        /// Shape of each container.
        req: ResourceReq,
    },
    /// startContainer RPC reached the NodeManager.
    NmStartContainer(ContainerId),
    /// NM launcher picked the container up (SCHEDULED → RUNNING handoff).
    NmHandoff(ContainerId),
    /// Final state-store write for a finishing application.
    RmAppFinalSaved(ApplicationId),
    /// Scripted fault: the node's NodeManager stops heartbeating; the RM
    /// expires it and kills every container it was hosting.
    NodeLost(NodeId),
}

/// Why a container died before doing useful work (fault injection).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// Resource download failed (NM `LOCALIZING → LOCALIZATION_FAILED`).
    Localization,
    /// Launch script / JVM exited with a non-zero code
    /// (NM `RUNNING → EXITED_WITH_FAILURE`).
    Launch,
    /// The hosting node was lost (NM heartbeat expiry; RM kills the
    /// container).
    NodeLost,
}

impl FailureKind {
    /// Short label used in metrics.
    pub fn label(self) -> &'static str {
        match self {
            FailureKind::Localization => "localization",
            FailureKind::Launch => "launch",
            FailureKind::NodeLost => "node_lost",
        }
    }
}

/// Notices raised to the application layer.
#[derive(Debug, Clone)]
pub enum AppNotice {
    /// Containers became visible to the AM (post-acquisition). The AM
    /// should respond with `Cluster::launch_container` for each (or
    /// release them).
    ContainersGranted {
        /// Owning application.
        app: ApplicationId,
        /// `(container, node)` pairs.
        containers: Vec<(ContainerId, NodeId)>,
    },
    /// A container's host process finished starting (the moment the real
    /// process would emit its first log line).
    ProcessStarted {
        /// Owning application.
        app: ApplicationId,
        /// The container.
        container: ContainerId,
        /// Where it runs.
        node: NodeId,
        /// Host process type from the launch spec.
        kind: InstanceKind,
    },
    /// Application-submitted CPU/IO work completed.
    WorkDone {
        /// Owning application.
        app: ApplicationId,
        /// The handle returned by `spawn_cpu` / `spawn_io`.
        ticket: Ticket,
    },
    /// A container died before (or instead of) reaching a useful running
    /// state. For non-AM containers the application layer may re-request a
    /// replacement; AM failures are handled by the RM (see
    /// [`AppNotice::AttemptRetry`] / [`AppNotice::AppFailed`]).
    ProcessFailed {
        /// Owning application.
        app: ApplicationId,
        /// The dead container.
        container: ContainerId,
        /// Where it ran.
        node: NodeId,
        /// What went wrong.
        kind: FailureKind,
    },
    /// The application's AM attempt failed and the RM is starting a new
    /// attempt: the application layer must reset its protocol state and
    /// will see the submission→launch sequence again for `new_attempt`.
    AttemptRetry {
        /// Owning application.
        app: ApplicationId,
        /// The attempt number now being launched (2, 3, ...).
        new_attempt: u32,
    },
    /// The application exhausted its AM attempts and is terminally FAILED.
    AppFailed {
        /// Owning application.
        app: ApplicationId,
    },
}

/// What a log line says: one of the three logged state transitions, or
/// any other message, rendered from its `template` when it was written.
#[derive(Debug, Clone, PartialEq)]
pub enum What {
    /// `RMAppImpl` on YARN event `event` (Table I messages 1–3).
    RmApp {
        app: ApplicationId,
        from: RmAppState,
        to: RmAppState,
        event: &'static str,
    },
    /// `RMContainerImpl` (messages 4–5).
    RmContainer {
        cid: ContainerId,
        from: RmContainerState,
        to: RmContainerState,
    },
    /// The NodeManager's `ContainerImpl` (messages 6–8).
    NmContainer {
        cid: ContainerId,
        from: NmContainerState,
        to: NmContainerState,
    },
    /// Every other shape.
    Text {
        template: &'static MsgTemplate,
        msg: String,
    },
}

/// One log line, written at simulated time `at` to `source`'s log.
#[derive(Debug, Clone, PartialEq)]
pub struct Line {
    /// When it was written.
    pub at: Millis,
    /// Which log it goes to.
    pub source: LogSource,
    /// What it says.
    pub what: What,
}

impl Line {
    /// The timestamp, class and message of the INFO line this renders
    /// as, through the `schema` templates.
    pub fn into_parts(self) -> (TsMs, &'static str, String) {
        let (template, msg) = match self.what {
            What::RmApp {
                app,
                from,
                to,
                event,
            } => {
                let t = &schema::RM_APP_STATE_CHANGE;
                (t, t.msg(&[&app, &from, &to, &event]))
            }
            What::RmContainer { cid, from, to } => {
                let t = &schema::RM_CONTAINER_TRANSITION;
                (t, t.msg(&[&cid, &from, &to]))
            }
            What::NmContainer { cid, from, to } => {
                let t = &schema::NM_CONTAINER_TRANSITION;
                (t, t.msg(&[&cid, &from, &to]))
            }
            What::Text { template, msg } => (template, msg),
        };
        (TsMs(self.at.0), template.class, msg)
    }
}

/// Buffer of effects produced by cluster methods: events to merge into the
/// simulation queue (absolute times), notices for the application layer,
/// and log lines in the order they were written.
#[derive(Debug, Default)]
pub struct Out {
    /// `(absolute time, event)` pairs.
    pub events: Vec<(Millis, ClusterEvent)>,
    /// Notices in raise order.
    pub notices: Vec<AppNotice>,
    /// Log lines in write order.
    pub lines: Vec<Line>,
}

impl Out {
    /// Empty buffer.
    pub fn new() -> Out {
        Out::default()
    }

    /// Schedule `ev` at absolute time `at`.
    pub fn at(&mut self, at: Millis, ev: ClusterEvent) {
        self.events.push((at, ev));
    }

    /// Raise a notice.
    pub(crate) fn notify(&mut self, n: AppNotice) {
        self.notices.push(n);
    }

    /// Write a line at `at` to `source`'s log: `template` rendered with
    /// `args`, one per hole.
    pub fn log(
        &mut self,
        at: Millis,
        source: LogSource,
        template: &'static MsgTemplate,
        args: &[&dyn fmt::Display],
    ) {
        let msg = template.msg(args);
        self.lines.push(Line {
            at,
            source,
            what: What::Text { template, msg },
        });
    }

    /// True when nothing was produced.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.notices.is_empty() && self.lines.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instance_labels_match_paper() {
        assert_eq!(InstanceKind::SparkDriver.label(), "spm");
        assert_eq!(InstanceKind::SparkExecutor.label(), "spe");
        assert_eq!(InstanceKind::MrMaster.label(), "mrm");
        assert_eq!(InstanceKind::MrMap.label(), "mrsm");
        assert_eq!(InstanceKind::MrReduce.label(), "mrsr");
    }

    #[test]
    fn out_buffers_in_order() {
        let mut out = Out::new();
        assert!(out.is_empty());
        out.at(Millis(5), ClusterEvent::NmHeartbeat(NodeId(1)));
        out.notify(AppNotice::WorkDone {
            app: ApplicationId::new(1, 1),
            ticket: Ticket(9),
        });
        assert_eq!(out.events.len(), 1);
        assert_eq!(out.notices.len(), 1);
        assert!(!out.is_empty());
    }
}
