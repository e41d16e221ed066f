//! # yarnsim — a YARN-like two-level cluster scheduler, simulated
//!
//! Protocol-level discrete-event model of the cluster scheduler substrate
//! the SDchecker paper measures (Hadoop 3.0 YARN): ResourceManager with
//! `RMAppImpl`/`RMContainerImpl` state machines, a centralized Capacity
//! Scheduler and a distributed opportunistic scheduler, NodeManagers with
//! the `ContainerImpl` lifecycle (localization with per-application caching,
//! launcher handoff, Docker overhead, opportunistic queueing), and
//! heartbeat-quantized allocation/acquisition.
//!
//! Every state transition is emitted as a typed [`Line`] into [`Out`],
//! which renders in the message shapes of Table I of the paper — the
//! cluster side of the log corpus SDchecker mines.
//!
//! The crate is application-agnostic: Spark/MapReduce behaviour lives in
//! `sparksim`, which drives this cluster through [`Cluster`]'s methods and
//! reacts to [`effects::AppNotice`]s.

mod cluster;
mod config;
mod effects;
mod faults;
mod node;
pub mod schema;
mod state;
#[cfg(test)]
mod tests_protocol;

pub use cluster::Cluster;
pub use config::{
    ClusterConfig, ContainerRuntime, DockerConfig, OppPlacement, QueuePolicy, ResourceCalculator,
    ResourceReq, SchedulerKind,
};
pub use effects::{
    AppNotice, AppSubmission, ClusterEvent, FailureKind, InstanceKind, LaunchSpec, Line,
    LocalResource, Out, Ticket, What,
};
pub use faults::{FaultConfig, FaultPlan};
pub use state::{NmContainerState, RmAppState, RmContainerState};
