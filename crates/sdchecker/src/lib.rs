//! # sdchecker — scheduling-delay decomposition from cluster & app logs
//!
//! A from-scratch implementation of **SDchecker**, the log-mining tool of
//! *"Characterizing Scheduling Delay for Low-latency Data Analytics
//! Workloads"*: it consumes ResourceManager, NodeManager, Spark-driver and
//! Spark-executor logs, extracts the fourteen scheduling-related message
//! kinds of the paper's Table I, groups them by the global IDs embedded in
//! the message text, builds a per-application *scheduling graph*, and
//! decomposes the job scheduling delay (submission → first task) into the
//! paper's named components:
//!
//! * total, AM, Cf/Cl, in-application vs out-application;
//! * driver and executor delays (in-application);
//! * allocation, acquisition, localization, launching and NM-queueing
//!   delays (out-application, per container).
//!
//! It also reproduces the paper's §V-A bug finding: containers that were
//! allocated by the RM but never produced executor-side evidence
//! (SPARK-21562's over-allocation signature).
//!
//! The crate deliberately depends only on `logmodel` (log syntax): it
//! never links against the simulator, so everything here works on any log
//! corpus with the same message shapes — including one collected from a
//! real cluster.
//!
//! ```
//! use logmodel::{Epoch, LogSource, LogStore, TsMs, ApplicationId};
//! use sdchecker::analyze_store;
//!
//! let epoch = Epoch::default_run();
//! let mut logs = LogStore::new(epoch);
//! let app = ApplicationId::new(epoch.unix_ms, 1);
//! logs.info(
//!     LogSource::ResourceManager,
//!     TsMs(100),
//!     "RMAppImpl",
//!     format!("{app} State change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED"),
//! );
//! let analysis = analyze_store(&logs);
//! assert_eq!(analysis.graphs.len(), 1);
//! assert!(analysis.delays[0].total_ms.is_none()); // no first task yet
//! ```

mod alerts;
mod analyze;
mod apptrace;
mod bugs;
pub mod checkpoint;
pub mod cli;
mod critical;
pub mod decompose;
mod event;
mod exemplars;
pub mod extract;
mod fleet;
mod graph;
mod incremental;
pub mod pattern;
mod report;
pub mod schema;
mod stats;
mod tail;
mod throughput;
mod timeline;
mod validate;
mod wide;
mod wire;

pub use alerts::{default_rules, AlertEngine, AlertRule, AlertState, RuleKind, Transition};
pub use analyze::{
    analyze_app_events, analyze_dir, analyze_dir_with, analyze_store, analyze_store_with,
    describe_metrics, Analysis,
};
pub use apptrace::{app_trace_into, corpus_app_trace};
pub use bugs::{find_unused_containers, UnusedContainer};
pub use checkpoint::{
    load as load_checkpoint, save as save_checkpoint, CfgFingerprint, CheckpointStore, CkptError,
    Restored, SaveInputs, CHECKPOINT_SCHEMA,
};
pub use critical::{critical_path, CriticalPath, CriticalSegment};
pub use decompose::{decompose, AppDelays, AppOutcome, ContainerDelays};
pub use event::{EventKind, SchedEvent};
pub use exemplars::{PromotedApp, TailExemplars};
pub use extract::{extract_app_names_with, Extractor, Outcome, StreamCursor, TailScan};
pub use graph::{build_graphs, ContainerTrack, SchedulingGraph};
pub use incremental::{IncrementalAnalyzer, IncrementalConfig, RetiredApp};
pub use logmodel::{Parallelism, READ_CHUNK};
pub use pattern::Pat;
pub use report::{
    cdf_table, full_report, ratio_summary_table, report_json, summary_table, write_stdout, Report,
    Table,
};
pub use stats::{percentile, Cdf, Summary};
pub use tail::{DirTailer, TailLag, TailOps, TailSink, TailStats, COLD_ROTATION};
pub use throughput::{allocation_throughput, Throughput};
pub use timeline::ascii_gantt;
pub use validate::{validate_all, validate_graph, Anomaly, AnomalyKind};
pub use wide::{wide_events_for_analysis, WIDE_EVENTS_SCHEMA};
