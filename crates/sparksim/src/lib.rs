//! # sparksim — the application layer on top of the simulated cluster
//!
//! Models the in-application side of two-level scheduling: Spark drivers
//! (SparkContext init, AM registration, executor allocation with the 80 %
//! registered gate, sequential/parallel user initialization, stage/task
//! scheduling with JVM warm-up) and MapReduce masters (one container per
//! task), plus the interference generators the paper uses (dfsIO writers,
//! Kmeans CPU hogs) — all expressed as data ([`job::JobSpec`]) interpreted
//! by a generic protocol driver ([`run::Run`]).
//!
//! The [`model::World`] combines cluster and applications into a single
//! `simkit` model; [`model::simulate`] is the one-call entry point used by
//! the experiment harness.

mod job;
mod model;
pub mod profiles;
mod run;
pub mod schema;

pub use job::{Framework, JobKind, JobSpec, StageSpec, UserInit};
pub use model::{simulate, Ev, World};
pub use run::{JobSummary, Run, RunEvent};
