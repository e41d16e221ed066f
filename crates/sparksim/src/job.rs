//! Job specifications: everything that distinguishes one submitted
//! application from another, expressed as data.
//!
//! A [`JobSpec`] fully describes an application's behaviour — framework
//! protocol (Spark vs MapReduce), container shapes, localization payloads,
//! initialization work, and the stage/task execution graph — so the driver
//! logic in [`crate::run`] stays generic and the workload catalogue
//! (`workloads` crate, `profiles` module) is pure configuration.

use simkit::Dist;
use yarnsim::{ContainerRuntime, ResourceReq};

/// Coarse application family, used for reporting/grouping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobKind {
    /// TPC-H query on Spark-SQL (the paper's primary workload).
    SparkSql,
    /// Spark wordcount (Fig 11-(a) comparison point).
    SparkWordcount,
    /// MapReduce wordcount (cluster-load generator, Fig 7-(c)/Table II).
    MapReduce,
    /// dfsIO HDFS write interference (Fig 12).
    DfsIo,
    /// HiBench Kmeans CPU interference (Fig 13).
    Kmeans,
}

impl JobKind {
    /// Short tag for reports.
    pub fn tag(self) -> &'static str {
        match self {
            JobKind::SparkSql => "spark-sql",
            JobKind::SparkWordcount => "spark-wc",
            JobKind::MapReduce => "mr-wc",
            JobKind::DfsIo => "dfsio",
            JobKind::Kmeans => "kmeans",
        }
    }
}

/// Which application-master protocol the job speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Framework {
    /// Spark-on-YARN: driver = AM, long-lived executors, 80 % registered
    /// gate, `START_ALLO`/`END_ALLO` patch logs.
    Spark,
    /// MapReduce-on-YARN: AM = MRAppMaster, one container per task.
    MapReduce,
}

/// User-application initialization at the driver (paper §IV-D): opening
/// input files, building RDDs, creating broadcast variables. Runs *after*
/// the driver registers and lies on the critical path to the first task.
#[derive(Debug, Clone)]
pub struct UserInit {
    /// Files opened / RDD+broadcast pairs created (TPC-H: 8 tables;
    /// wordcount: 1).
    pub files: u32,
    /// CPU cost per file at the driver (broadcast creation is expensive —
    /// §IV-D "Code optimization").
    pub per_file_cpu_ms: Dist,
    /// HDFS metadata/footer read per file, MB on the driver's IO channel.
    pub per_file_io_mb: f64,
    /// `true` models the paper's optimized TPC-H (Scala `Future`s): all
    /// per-file chains run concurrently instead of sequentially.
    pub parallel: bool,
}

impl UserInit {
    /// No user initialization (interference jobs).
    pub fn none() -> UserInit {
        UserInit {
            files: 0,
            per_file_cpu_ms: Dist::constant(0.0),
            per_file_io_mb: 0.0,
            parallel: false,
        }
    }
}

/// One stage of the task graph executed once the first task is scheduled.
#[derive(Debug, Clone)]
pub struct StageSpec {
    /// Task count.
    pub tasks: u32,
    /// CPU work per task.
    pub task_cpu_ms: Dist,
    /// Input read per task (MB from the executor node's IO channel).
    pub task_io_mb: f64,
}

/// A complete application description.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Display label (e.g. `"tpch-q07"`).
    pub label: String,
    /// Family tag.
    pub kind: JobKind,
    /// AM protocol.
    pub framework: Framework,
    /// Executors requested (Spark) / irrelevant for MR (containers are
    /// per-task).
    pub num_executors: u32,
    /// Executor/task container shape.
    pub executor_resource: ResourceReq,
    /// AM (driver/master) container shape.
    pub am_resource: ResourceReq,
    /// Container runtime for every container of this job.
    pub runtime: ContainerRuntime,
    /// AM→RM heartbeat interval (acquisition quantum).
    pub am_heartbeat_ms: u64,

    /// Localization payload of the AM container, MB (Spark jars, conf).
    pub driver_localization_mb: f64,
    /// Localization payload of each worker container, MB.
    pub executor_localization_mb: f64,
    /// Additional `--files` payload localized by *both* driver and
    /// executors (Fig 8's sweep).
    pub extra_files_mb: f64,

    /// AM process launch work (launch script + JVM start), cpu-ms.
    pub am_launch_cpu_ms: Dist,
    /// Worker process launch work, cpu-ms.
    pub worker_launch_cpu_ms: Dist,
    /// Disk reads during process start (JVM classloading from the
    /// localized jars), MB — same for AM and workers.
    pub launch_io_mb: f64,
    /// Driver/master initialization between first log and RM registration
    /// (SparkContext + RM client setup), cpu-ms.
    pub driver_init_cpu_ms: Dist,
    /// Parallelism of driver init work.
    pub driver_init_threads: f64,
    /// Executor→driver registration RPC latency, ms.
    pub exec_register_rpc_ms: Dist,
    /// Executor-side setup between first log and driver registration
    /// (BlockManager registration, RPC env, classloading), cpu-ms on the
    /// executor's node.
    pub executor_setup_cpu_ms: Dist,
    /// Disk reads during executor setup (loading application classes from
    /// the localized jars), MB.
    pub executor_setup_io_mb: f64,
    /// Driver-side overhead between the scheduling gate opening and the
    /// first task dispatch (DAG construction, closure serialization, task
    /// binary broadcast), cpu-ms on the driver's node.
    pub first_dispatch_overhead_ms: Dist,

    /// User-code initialization at the driver.
    pub user_init: UserInit,
    /// Stages run after the gate opens.
    pub stages: Vec<StageSpec>,

    /// Spark's `minRegisteredResourcesRatio` for YARN (default 0.8): task
    /// scheduling will not start before this fraction of executors
    /// registered.
    pub min_registered_ratio: f64,
    /// Concurrent task slots per executor (= executor cores for Spark,
    /// 1 for MR).
    pub task_slots_per_executor: u32,
    /// CPU threads each running task occupies (Kmeans oversubscription
    /// uses > executor vcores; YARN does not enforce CPU isolation).
    pub task_threads: f64,
    /// IO streams per task transfer: 1 for reads, the HDFS replication
    /// factor for pipeline writes (each replica is a full-size stream on
    /// a distinct node — how dfsIO overwhelms "both disks and the
    /// network", §IV-E).
    pub task_io_replicas: u32,

    /// JVM warm-up tax: the first `warmup_tasks` tasks on each executor
    /// cost `warmup_factor ×` their sampled CPU (paper §V-B, ref. \[27\]).
    pub warmup_factor: f64,
    /// How many initial tasks per executor pay the warm-up tax.
    pub warmup_tasks: u32,

    /// SPARK-21562 emulation: extra containers requested beyond the real
    /// demand; they are granted and then never used (released). 0 = off.
    pub overalloc_extra: u32,
}

impl JobSpec {
    /// Gate threshold: executors that must register before task
    /// scheduling starts.
    pub(crate) fn min_registered(&self) -> u32 {
        ((self.num_executors as f64 * self.min_registered_ratio).ceil() as u32)
            .clamp(1, self.num_executors.max(1))
    }

    /// Containers the driver asks YARN for (needed + bug extras).
    pub(crate) fn requested_executors(&self) -> u32 {
        self.num_executors + self.overalloc_extra
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;

    #[test]
    fn min_registered_is_eighty_percent_ceil() {
        let mut s = profiles::spark_sql_default(2048.0, 4);
        assert_eq!(s.min_registered(), 4); // ceil(0.8*4)=4
        s.num_executors = 10;
        assert_eq!(s.min_registered(), 8);
        s.num_executors = 1;
        assert_eq!(s.min_registered(), 1);
        s.num_executors = 16;
        assert_eq!(s.min_registered(), 13);
    }

    #[test]
    fn requested_includes_bug_extras() {
        let mut s = profiles::spark_sql_default(2048.0, 4);
        assert_eq!(s.requested_executors(), 4);
        s.overalloc_extra = 2;
        assert_eq!(s.requested_executors(), 6);
    }

    #[test]
    fn kind_tags_are_stable() {
        assert_eq!(JobKind::SparkSql.tag(), "spark-sql");
        assert_eq!(JobKind::DfsIo.tag(), "dfsio");
    }
}
