//! Calibrated job profiles for the paper's workloads.
//!
//! Each constant is pinned by evidence from the paper:
//!
//! * driver/executor launch ≈ 700 ms median (Fig 9-(a), `spm`/`spe`);
//!   MapReduce instances "a bit longer";
//! * driver delay (first log → RM registration) ≈ 3 s for both wordcount
//!   and Spark-SQL (Fig 11-(a)) — shared SparkContext code;
//! * Spark-SQL opens 8 TPC-H tables during user init, each creating an
//!   RDD + broadcast variable, sequentially (§IV-D); wordcount opens 1;
//! * the default Spark-SQL localization payload is ≈ 500 MB and takes
//!   ≈ 500 ms (Fig 8);
//! * executors are 4 GB / 8 cores, jobs default to 4 executors & 2 GB
//!   input (§IV-A);
//! * JVM warm-up costs ~30 % of short-job runtime (ref. \[27\] via §V-B) —
//!   modeled as a 1.6× tax on each executor's first task wave.

use simkit::Dist;
use yarnsim::{ContainerRuntime, ResourceReq};

use crate::job::{Framework, JobKind, JobSpec, StageSpec, UserInit};

/// HDFS block size (MB) — §IV-A.
pub(crate) const HDFS_BLOCK_MB: f64 = 128.0;

/// Number of TPC-H tables (opened files during Spark-SQL init).
pub(crate) const TPCH_TABLES: u32 = 8;

fn splits(input_mb: f64) -> u32 {
    ((input_mb / HDFS_BLOCK_MB).ceil() as u32).clamp(2, 800)
}

/// Stage structure of a generic SQL query over `input_mb` of data:
/// scan → shuffle/join → aggregate. Per-task compute scales with the
/// split payload (a 10 MB split costs far less CPU than a full 128 MB
/// block), which is what makes *tiny* jobs schedule-bound (Fig 5: a
/// 20 MB query spends > 65 % of its runtime on scheduling).
pub fn sql_stages(input_mb: f64) -> Vec<StageSpec> {
    let n = splits(input_mb);
    let io_per_task = input_mb / n as f64;
    let cpu_scale = (io_per_task / HDFS_BLOCK_MB).clamp(0.12, 1.5);
    vec![
        StageSpec {
            tasks: n,
            task_cpu_ms: Dist::lognormal(4200.0 * cpu_scale, 0.45),
            task_io_mb: io_per_task,
        },
        StageSpec {
            tasks: (n / 2).max(2),
            task_cpu_ms: Dist::lognormal(2600.0 * cpu_scale, 0.40),
            task_io_mb: 8.0,
        },
        StageSpec {
            tasks: (n / 8).max(1),
            task_cpu_ms: Dist::lognormal(1500.0 * cpu_scale, 0.40),
            task_io_mb: 2.0,
        },
    ]
}

fn spark_base(label: String, kind: JobKind, executors: u32) -> JobSpec {
    JobSpec {
        label,
        kind,
        framework: Framework::Spark,
        num_executors: executors,
        executor_resource: ResourceReq::SPARK_EXECUTOR,
        am_resource: ResourceReq::SPARK_DRIVER,
        runtime: ContainerRuntime::Default,
        am_heartbeat_ms: 1000,
        driver_localization_mb: 500.0,
        executor_localization_mb: 500.0,
        extra_files_mb: 0.0,
        am_launch_cpu_ms: Dist::lognormal(600.0, 0.28),
        worker_launch_cpu_ms: Dist::lognormal(620.0, 0.28),
        launch_io_mb: 64.0,
        // 6.4 s of 2-thread work ⇒ ≈ 3.2 s wall on an idle node, the
        // driver delay both wordcount and SQL show in Fig 11-(a).
        driver_init_cpu_ms: Dist::lognormal(6400.0, 0.18),
        driver_init_threads: 2.0,
        exec_register_rpc_ms: Dist::lognormal(20.0, 0.50),
        executor_setup_cpu_ms: Dist::lognormal(1350.0, 0.30),
        executor_setup_io_mb: 150.0,
        first_dispatch_overhead_ms: Dist::lognormal(900.0, 0.40),
        user_init: UserInit::none(),
        stages: Vec::new(),
        min_registered_ratio: 0.8,
        task_slots_per_executor: ResourceReq::SPARK_EXECUTOR.vcores,
        task_threads: 1.0,
        task_io_replicas: 1,
        warmup_factor: 1.6,
        warmup_tasks: ResourceReq::SPARK_EXECUTOR.vcores,
        overalloc_extra: 0,
    }
}

/// The default Spark-SQL (TPC-H-like) job: `input_mb` of table data,
/// `executors` Spark executors (paper default: 2 GB / 4 executors).
pub fn spark_sql_default(input_mb: f64, executors: u32) -> JobSpec {
    let mut s = spark_base(
        format!("spark-sql-{}mb", input_mb as u64),
        JobKind::SparkSql,
        executors,
    );
    s.user_init = UserInit {
        files: TPCH_TABLES,
        per_file_cpu_ms: Dist::lognormal(900.0, 0.30),
        // Building the per-table RDD + broadcast reads table
        // metadata/footers: grows with table size. This is the mechanism
        // behind Fig 5's "in-delay deteriorated by 5.7x with 200 GB
        // input" — user init reads lie on the scheduling critical path.
        per_file_io_mb: 40.0 + input_mb * 0.004,
        parallel: false,
    };
    s.stages = sql_stages(input_mb);
    s
}

/// Spark wordcount: one input file, map + reduce stage (Fig 11-(a)).
pub fn spark_wordcount(input_mb: f64, executors: u32) -> JobSpec {
    let mut s = spark_base(
        format!("spark-wc-{}mb", input_mb as u64),
        JobKind::SparkWordcount,
        executors,
    );
    let n = splits(input_mb);
    s.user_init = UserInit {
        files: 1,
        per_file_cpu_ms: Dist::lognormal(620.0, 0.30),
        per_file_io_mb: 24.0,
        parallel: false,
    };
    s.stages = vec![
        StageSpec {
            tasks: n,
            task_cpu_ms: Dist::lognormal(3800.0, 0.40),
            task_io_mb: input_mb / n as f64,
        },
        StageSpec {
            tasks: (n / 8).max(1),
            task_cpu_ms: Dist::lognormal(2200.0, 0.40),
            task_io_mb: 4.0,
        },
    ];
    s
}

/// MapReduce wordcount: the cluster-load generator of Fig 7 and Table II
/// ("MapReduce will spawn a large number of map tasks that can quickly
/// occupy the cluster resource").
pub fn mr_wordcount(input_mb: f64) -> JobSpec {
    let n = splits(input_mb);
    JobSpec {
        label: format!("mr-wc-{}mb", input_mb as u64),
        kind: JobKind::MapReduce,
        framework: Framework::MapReduce,
        num_executors: n, // informational for MR
        executor_resource: ResourceReq::MR_TASK,
        am_resource: ResourceReq::MR_MASTER,
        runtime: ContainerRuntime::Default,
        am_heartbeat_ms: 1000,
        driver_localization_mb: 200.0,
        executor_localization_mb: 60.0,
        extra_files_mb: 0.0,
        am_launch_cpu_ms: Dist::lognormal(780.0, 0.30),
        worker_launch_cpu_ms: Dist::lognormal(740.0, 0.33),
        launch_io_mb: 48.0,
        driver_init_cpu_ms: Dist::lognormal(1800.0, 0.20),
        driver_init_threads: 1.0,
        exec_register_rpc_ms: Dist::lognormal(20.0, 0.50),
        executor_setup_cpu_ms: Dist::constant(0.0),
        executor_setup_io_mb: 0.0,
        first_dispatch_overhead_ms: Dist::constant(0.0),
        user_init: UserInit::none(),
        stages: vec![
            StageSpec {
                tasks: n,
                task_cpu_ms: Dist::lognormal(9000.0, 0.35),
                task_io_mb: input_mb / n as f64,
            },
            StageSpec {
                tasks: (n / 8).max(1),
                task_cpu_ms: Dist::lognormal(5000.0, 0.35),
                task_io_mb: 16.0,
            },
        ],
        min_registered_ratio: 0.0, // MR schedules per-container; no gate
        task_slots_per_executor: 1,
        task_threads: 1.0,
        task_io_replicas: 1,
        warmup_factor: 1.0, // fresh JVM cost is in the launch work
        warmup_tasks: 0,
        overalloc_extra: 0,
    }
}

/// HDFS replication factor (§IV-A: "replication factor of three").
pub(crate) const HDFS_REPLICATION: u32 = 3;

/// dfsIO interference: `writers` parallel map tasks, each writing
/// `gb_per_task` GB to HDFS (paper: 20 GB each; §IV-E). Every HDFS write
/// fans out through the replication pipeline — one full-size stream on
/// each of three nodes — which is what makes 100 writers overwhelm
/// "both disks and the network" as the paper says.
pub fn dfsio(writers: u32, gb_per_task: f64) -> JobSpec {
    let mut s = mr_wordcount(writers as f64 * HDFS_BLOCK_MB);
    s.label = format!("dfsio-{writers}w");
    s.kind = JobKind::DfsIo;
    s.task_io_replicas = HDFS_REPLICATION;
    s.stages = vec![StageSpec {
        tasks: writers,
        task_cpu_ms: Dist::lognormal(800.0, 0.25),
        task_io_mb: gb_per_task * 1024.0,
    }];
    s
}

/// Kmeans CPU interference (HiBench): iterative, CPU-bound, deliberately
/// oversubscribing node CPUs — each executor is *configured* with 16
/// vcores' worth of compute threads while YARN does not enforce CPU
/// isolation (§IV-E: 4 executors × 16 vcores per app).
pub fn kmeans(iterations: u32) -> JobSpec {
    let executors = 4;
    let mut s = spark_base("kmeans".into(), JobKind::Kmeans, executors);
    // Requests only 1 vcore but runs 16 compute threads per task slot:
    // the oversubscription that makes it an interference generator.
    s.executor_resource = ResourceReq {
        mem_mb: 4096,
        vcores: 1,
    };
    s.task_slots_per_executor = 2;
    s.task_threads = 16.0;
    s.user_init = UserInit {
        files: 1,
        per_file_cpu_ms: Dist::lognormal(620.0, 0.30),
        per_file_io_mb: 24.0,
        parallel: false,
    };
    s.stages = (0..iterations)
        .map(|_| StageSpec {
            tasks: executors * s.task_slots_per_executor,
            task_cpu_ms: Dist::lognormal(60_000.0, 0.15),
            task_io_mb: 20.0,
        })
        .collect();
    s
}

/// §V-B proposed optimization: JVM reuse for recurring applications.
/// A warm JVM removes most of the process-start cost (fork from a zygote
/// instead of cold start), most of the executor-side classloading, the
/// first-wave JIT warm-up tax, and part of the driver's context
/// initialization. Applies the optimization to a job spec in place.
pub fn with_jvm_reuse(mut spec: JobSpec) -> JobSpec {
    spec.label = format!("{}-jvmreuse", spec.label);
    spec.am_launch_cpu_ms = spec.am_launch_cpu_ms.scaled(0.2);
    spec.worker_launch_cpu_ms = spec.worker_launch_cpu_ms.scaled(0.2);
    spec.launch_io_mb *= 0.25; // classes already mapped in the warm JVM
    spec.executor_setup_cpu_ms = spec.executor_setup_cpu_ms.scaled(0.5);
    spec.executor_setup_io_mb *= 0.25;
    spec.driver_init_cpu_ms = spec.driver_init_cpu_ms.scaled(0.7);
    spec.warmup_factor = 1.0;
    spec
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sql_default_matches_paper_setup() {
        let s = spark_sql_default(2048.0, 4);
        assert_eq!(s.num_executors, 4);
        assert_eq!(s.executor_resource, ResourceReq::SPARK_EXECUTOR);
        assert_eq!(s.user_init.files, 8, "TPC-H has 8 tables");
        assert!(!s.user_init.parallel, "default init is sequential");
        assert_eq!(s.stages[0].tasks, 16, "2 GB / 128 MB = 16 splits");
        assert!((s.driver_localization_mb - 500.0).abs() < f64::EPSILON);
    }

    #[test]
    fn wordcount_opens_one_file() {
        let s = spark_wordcount(2048.0, 4);
        assert_eq!(s.user_init.files, 1);
        assert_eq!(s.kind, JobKind::SparkWordcount);
    }

    #[test]
    fn splits_clamped() {
        assert_eq!(splits(20.0), 2); // tiny inputs still get 2 tasks
        assert_eq!(splits(2048.0), 16);
        assert_eq!(splits(200.0 * 1024.0 * 1024.0), 800); // clamp at 800
    }

    #[test]
    fn dfsio_writes_big_flows() {
        let s = dfsio(100, 20.0);
        assert_eq!(s.stages.len(), 1);
        assert_eq!(s.stages[0].tasks, 100);
        assert!((s.stages[0].task_io_mb - 20480.0).abs() < f64::EPSILON);
        assert_eq!(s.task_io_replicas, HDFS_REPLICATION);
        assert_eq!(s.framework, Framework::MapReduce);
    }

    #[test]
    fn kmeans_oversubscribes_cpu() {
        let s = kmeans(10);
        assert_eq!(s.executor_resource.vcores, 1);
        assert!(s.task_threads > s.executor_resource.vcores as f64);
        assert_eq!(s.stages.len(), 10);
    }

    #[test]
    fn jvm_reuse_cuts_startup_costs() {
        let base = spark_sql_default(2048.0, 4);
        let warm = with_jvm_reuse(base.clone());
        assert!(warm.worker_launch_cpu_ms.median() < base.worker_launch_cpu_ms.median() * 0.25);
        assert!(warm.driver_init_cpu_ms.median() < base.driver_init_cpu_ms.median());
        assert_eq!(warm.warmup_factor, 1.0);
        assert!(warm.label.ends_with("-jvmreuse"));
    }

    #[test]
    fn mr_has_no_gate() {
        let s = mr_wordcount(4096.0);
        assert_eq!(s.min_registered_ratio, 0.0);
        assert_eq!(s.task_slots_per_executor, 1);
    }
}
