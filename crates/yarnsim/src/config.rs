//! Cluster configuration and calibration constants.
//!
//! Defaults mirror the paper's testbed (§IV-A): 26 nodes (25 workers + 1
//! master), two 8-core Xeons with hyper-threading (32 vcores), 132 GB RAM,
//! RAID-5 HDDs behind 10 GbE, Hadoop 3.0.0-alpha3 with the Capacity
//! Scheduler, NM/AM heartbeats at YARN defaults.
//!
//! Latency distributions are calibrated so the paper's *per-component
//! medians* come out of the model on an idle cluster; tails and crossovers
//! then emerge from contention rather than being baked in. Each constant
//! cites the paper evidence pinning it.

use simkit::Dist;

use crate::faults::FaultConfig;

/// Which scheduler the ResourceManager runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Centralized Capacity Scheduler: containers are assigned when a
    /// NodeManager heartbeats and the node has room, batched per heartbeat.
    Capacity,
    /// Hadoop 3.0's distributed opportunistic scheduler: per-request
    /// millisecond-scale decisions at a random node, queued NM-side when
    /// the node is busy (Mercury-style).
    Opportunistic,
}

/// Ordering policy of the centralized scheduler's request backlog
/// (paper §IV-A: "a user configured scheduler (e.g., Capacity Scheduler
/// or Fair Scheduler)").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueuePolicy {
    /// Capacity-Scheduler-style FIFO with round-robin grants (the paper's
    /// evaluated configuration).
    Fifo,
    /// Fair-Scheduler-style: each heartbeat serves the application
    /// currently holding the fewest containers first, equalizing shares
    /// across concurrent applications.
    Fair,
}

/// Node-selection policy of the distributed opportunistic scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OppPlacement {
    /// Uniformly random node — the behaviour the paper measured ("a
    /// distributed scheduler uses a random algorithm to choose a slave
    /// node for each task", §IV-C), which is what produces the 53 s NM
    /// queueing delays of Fig 7-(b).
    Random,
    /// Sparrow-style power-of-d-choices: probe `d` random nodes and place
    /// on the one with the shortest opportunistic queue (ties: most free
    /// memory). The §VI-cited mitigation for random placement's poor
    /// decisions.
    PowerOfChoices(u32),
}

/// How the scheduler decides whether a container fits on a node.
///
/// The default is `MemoryOnly`, matching the stock Capacity Scheduler —
/// and three of the paper's results independently require it: Table II's
/// 2 831 containers/s (1 GB containers must pack by memory: 3 200 fit,
/// not 800), Fig 6's mild +4 s at 16×8-core executors (129 vcores per
/// job would starve a vcore-enforced 800-vcore cluster), and §IV-E's
/// Kmeans "16 vcores per executor" CPU oversubscription (possible only
/// because vcores are not enforced).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResourceCalculator {
    /// Memory and vcores both enforced (YARN's `DominantResourceCalculator`).
    Dominant,
    /// Memory only (YARN's `DefaultResourceCalculator` — the stock
    /// Capacity Scheduler setting).
    MemoryOnly,
}

/// Container runtime (paper Fig. 9-(b)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContainerRuntime {
    /// Plain YARN container: fork/exec of the launch script.
    Default,
    /// Docker container: image load + mount before the process starts.
    Docker,
}

/// Docker launch-overhead model. The paper measures a 350 ms median /
/// 658 ms p95 launch penalty with a 2.65 GB image, attributing it to
/// "loading the image from the local hub and mounting it to a predefined
/// path" plus extra I/O — so the model is an IO flow (the fraction of the
/// image actually read at start) plus constant runtime setup CPU.
#[derive(Debug, Clone)]
pub struct DockerConfig {
    /// Image size in MB (paper: 2.65 GB).
    pub image_mb: f64,
    /// Fraction of the image read at container start (layers not in page
    /// cache). 0.08 ⇒ ~212 MB, ≈ 300 ms at single-stream rate.
    pub read_fraction: f64,
    /// Runtime setup CPU (namespace/cgroup/mount plumbing).
    pub setup_cpu_ms: Dist,
}

impl Default for DockerConfig {
    fn default() -> Self {
        DockerConfig {
            image_mb: 2650.0,
            read_fraction: 0.08,
            setup_cpu_ms: Dist::lognormal(120.0, 0.35),
        }
    }
}

/// Full cluster configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Worker (NodeManager) count. Paper: 25 workers.
    pub nodes: u32,
    /// vcores per node. Paper: 2×8 cores with HT = 32.
    pub vcores_per_node: u32,
    /// Memory per node in MB. Paper: 132 GB; 128 GiB usable for containers.
    pub mem_mb_per_node: u64,

    /// Aggregate IO capacity per node in MB/ms (disk + NIC folded into one
    /// channel, see DESIGN.md). RAID-5 HDD array + 10 GbE ≈ 1.2 GB/s.
    pub io_capacity_mb_per_ms: f64,
    /// Single-stream IO cap in MB/ms. 1.0 ⇒ 1 GB/s: HDFS reads served
    /// partly from page cache; pins "500 MB localizes in ~500 ms" (Fig 8).
    pub io_single_flow_mb_per_ms: f64,

    /// NodeManager→RM heartbeat interval (YARN default 1 000 ms). The
    /// Capacity Scheduler assigns containers when a node heartbeats;
    /// because node heartbeats are staggered and uncorrelated with any
    /// AM's own heartbeat phase, this is what gives container acquisition
    /// delays their uniform-in-[0, interval] spread (Fig 7-(c): "very
    /// high variances").
    pub nm_heartbeat_ms: u64,
    /// Max containers assigned on one node heartbeat (assign-multiple).
    /// 25 staggered nodes × min(this, memory fit ≈ 128 × 1 GB) per second
    /// saturates at ≈ 3 200/s — just above Table II's measured 2 831/s.
    pub assign_per_heartbeat: u32,
    /// Locality-style spreading: on one node heartbeat an application is
    /// granted at most `ceil(remaining / spread_factor)` containers, so
    /// small requests (4 executors) land on distinct nodes — standing in
    /// for the HDFS-block-locality spreading of a real scheduler — while
    /// huge MapReduce waves still pack nodes at full rate.
    pub assign_spread_factor: u32,

    /// Which scheduler allocates containers.
    pub scheduler: SchedulerKind,
    /// Fit rule for placement and NM admission.
    pub resource_calculator: ResourceCalculator,
    /// Backlog ordering of the centralized scheduler.
    pub queue_policy: QueuePolicy,
    /// Per-batch decision latency of the distributed scheduler. Paper
    /// Fig 7-(a): median ≈ 1/80 of the centralized scheduler's ≈ 2.4 s,
    /// p95 108 ms.
    pub opportunistic_decision_ms: Dist,
    /// Node selection of the distributed scheduler.
    pub opp_placement: OppPlacement,

    /// RM state-store write latency (NEW_SAVING → SUBMITTED and the final
    /// save). ZooKeeper/Level-DB writes, a few ms.
    pub rm_state_store_ms: Dist,
    /// Scheduler admission latency (SUBMITTED → ACCEPTED).
    pub rm_accept_ms: Dist,
    /// Generic RPC latency (AM→NM startContainer, registrations, ...).
    pub rpc_ms: Dist,
    /// NM internal handoff from SCHEDULED to RUNNING (launch-thread spawn).
    pub nm_handoff_ms: Dist,

    /// Per-resource localization metadata work (HDFS NameNode lookup +
    /// client setup) executed on the node's CPU pool. CPU-bound, which is
    /// why heavy CPU interference still dents localization by ~1.4×
    /// (Fig 13-(d)) even though the transfer itself is IO.
    pub localize_meta_cpu_ms: Dist,

    /// Docker overhead model.
    pub docker: DockerConfig,

    /// Emulate per-(application, node) localization caching as YARN's
    /// APPLICATION-visibility resources do. On: a second container of the
    /// same app on the same node skips the download.
    pub localization_cache: bool,

    /// §V-B proposed optimization: PUBLIC-visibility caching — localized
    /// resources are shared *across* applications on a node (the paper's
    /// "recently most used localization files will be cached on local
    /// nodes"). Off by default (the paper's measured system localizes per
    /// application).
    pub public_localization_cache: bool,

    /// §V-B proposed optimization: a dedicated storage class for
    /// localization (SSD/RAM-disk, isolated from HDFS IO). `Some(rate)`
    /// gives every node a separate localization channel of `rate` MB/ms;
    /// `None` (default) shares the main IO channel, which is what lets
    /// dfsIO interference thrash localization in Fig 12.
    pub localization_store_mb_per_ms: Option<f64>,

    /// Opportunistic containers: max queue length per node before the
    /// allocator skips to another node (usize::MAX = unbounded, the
    /// behaviour the paper measured with 53 s queueing delays).
    pub opp_queue_cap: usize,

    /// Fault injection (launch/localization failures, node loss, scripted
    /// AM-attempt failures). Disabled by default — a default-config run is
    /// byte-identical to a build without fault support.
    pub faults: FaultConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 25,
            vcores_per_node: 32,
            mem_mb_per_node: 128 * 1024,
            io_capacity_mb_per_ms: 1.2,
            io_single_flow_mb_per_ms: 1.0,
            nm_heartbeat_ms: 1000,
            assign_per_heartbeat: 150,
            assign_spread_factor: 6,
            scheduler: SchedulerKind::Capacity,
            resource_calculator: ResourceCalculator::MemoryOnly,
            queue_policy: QueuePolicy::Fifo,
            opportunistic_decision_ms: Dist::lognormal(28.0, 0.65),
            opp_placement: OppPlacement::Random,
            rm_state_store_ms: Dist::lognormal(8.0, 0.3),
            rm_accept_ms: Dist::lognormal(15.0, 0.4),
            rpc_ms: Dist::lognormal(3.0, 0.5),
            nm_handoff_ms: Dist::uniform(1.0, 8.0),
            localize_meta_cpu_ms: Dist::lognormal(35.0, 0.4),
            docker: DockerConfig::default(),
            localization_cache: true,
            public_localization_cache: false,
            localization_store_mb_per_ms: None,
            opp_queue_cap: usize::MAX,
            faults: FaultConfig::default(),
        }
    }
}

impl ClusterConfig {
    /// Convenience: switch to the distributed scheduler.
    pub fn with_opportunistic(mut self) -> Self {
        self.scheduler = SchedulerKind::Opportunistic;
        self
    }
}

/// A container's resource demand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceReq {
    /// Memory in MB.
    pub mem_mb: u64,
    /// Virtual cores.
    pub vcores: u32,
}

impl ResourceReq {
    /// The paper's executor shape: 4 GB / 8 cores (§IV-A).
    pub const SPARK_EXECUTOR: ResourceReq = ResourceReq {
        mem_mb: 4096,
        vcores: 8,
    };
    /// Spark driver / AM container: 2 GB / 1 core.
    pub const SPARK_DRIVER: ResourceReq = ResourceReq {
        mem_mb: 2048,
        vcores: 1,
    };
    /// MapReduce AM container.
    pub const MR_MASTER: ResourceReq = ResourceReq {
        mem_mb: 2048,
        vcores: 1,
    };
    /// MapReduce map/reduce task container: 1 GB / 1 core.
    pub const MR_TASK: ResourceReq = ResourceReq {
        mem_mb: 1024,
        vcores: 1,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_testbed() {
        let c = ClusterConfig::default();
        assert_eq!(c.nodes, 25);
        assert_eq!(c.nodes as u64 * c.vcores_per_node as u64, 800);
        assert_eq!(c.nodes as u64 * c.mem_mb_per_node, 25 * 128 * 1024);
        assert_eq!(c.scheduler, SchedulerKind::Capacity);
    }

    #[test]
    fn with_opportunistic_switches() {
        let c = ClusterConfig::default().with_opportunistic();
        assert_eq!(c.scheduler, SchedulerKind::Opportunistic);
    }

    #[test]
    fn executor_shape_is_papers() {
        assert_eq!(ResourceReq::SPARK_EXECUTOR.mem_mb, 4096);
        assert_eq!(ResourceReq::SPARK_EXECUTOR.vcores, 8);
    }

    #[test]
    fn docker_read_is_nontrivial() {
        let d = DockerConfig::default();
        let mb = d.image_mb * d.read_fraction;
        assert!(mb > 100.0 && mb < 500.0, "docker read {mb} MB");
    }
}
