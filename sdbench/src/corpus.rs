//! Seeded input generators: the TPC-H corpus, the noise interleaver, the
//! directory writer and the time-ordered line stream the paced appender
//! replays. The same seed always yields the same bytes.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;
use std::time::Instant;

use logmodel::{format_line, format_timestamp, Epoch, LogSource, LogStore, TsMs};
use simkit::{Millis, SimRng};
use sparksim::{simulate, JobSummary};
use workloads::{tpch_stream, TraceParams};
use yarnsim::ClusterConfig;

/// Noise lines the interleaver adds after each real line of a noisy
/// corpus.
pub const NOISE_PER_LINE: usize = 9;

/// A simulated TPC-H query stream on the default 25-NM cluster, with the
/// simulator's own cost.
pub struct Simulated {
    /// The simulator's log output.
    pub store: LogStore,
    /// Ground truth: one summary per completed job.
    pub jobs: Vec<JobSummary>,
    /// Wall time of `workloads::tpch_stream`, ms.
    pub tpch_stream_ms: f64,
    /// Wall time of `sparksim::simulate`, ms.
    pub simulate_ms: f64,
}

/// Simulate `apps` TPC-H queries (2 GB input, 4 executors, the paper's
/// moderate google-trace arrivals) from `seed`.
pub fn simulate_tpch(apps: usize, seed: u64) -> Simulated {
    let t0 = Instant::now();
    let mut rng = SimRng::new(seed);
    let arrivals = tpch_stream(apps, 2048.0, 4, &TraceParams::moderate(), &mut rng);
    let tpch_stream_ms = ms_since(t0);
    let t1 = Instant::now();
    let (store, jobs) = simulate(
        ClusterConfig::default(),
        seed,
        arrivals,
        Millis::from_mins(24 * 60),
    );
    let simulate_ms = ms_since(t1);
    assert_eq!(jobs.len(), apps, "every simulated job must complete");
    Simulated {
        store,
        jobs,
        tpch_stream_ms,
        simulate_ms,
    }
}

/// Milliseconds elapsed since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// One line of a log file, without its newline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Line {
    /// Log time of the line (a stack-trace line carries the time of the
    /// line it continues).
    pub ts: TsMs,
    /// The text as it appears on disk.
    pub text: String,
    /// Whether `logmodel::parse_line` accepts it — what the daemon's
    /// `/healthz.records` counts.
    pub parses: bool,
}

/// A corpus as rendered text: per source, the file's lines in order.
pub struct Corpus {
    /// The wall-clock anchor written to `epoch.txt`.
    pub epoch: Epoch,
    /// Every log file's lines, keyed (and written) in source order.
    pub files: BTreeMap<LogSource, Vec<Line>>,
}

impl Corpus {
    /// Render a store without noise: byte-for-byte what
    /// `LogStore::write_dir` writes.
    pub fn clean(store: &LogStore) -> Corpus {
        let epoch = *store.epoch();
        let files = store
            .sources()
            .map(|src| {
                let lines = store
                    .records(src)
                    .iter()
                    .map(|r| Line {
                        ts: r.ts,
                        text: format_line(&epoch, r),
                        parses: true,
                    })
                    .collect();
                (src, lines)
            })
            .collect();
        Corpus { epoch, files }
    }

    /// Render a store with [`NOISE_PER_LINE`] seeded noise lines after
    /// each real line: ~80 % out-of-vocabulary YARN/Spark chatter, ~10 %
    /// in-vocabulary classes whose message has another shape, ~10 %
    /// stack-trace continuation lines. Noise timestamps are interpolated
    /// between the neighbouring real lines, and no noise precedes a
    /// file's first record, which the positional "first log message"
    /// rules read.
    pub fn noisy(store: &LogStore, seed: u64) -> Corpus {
        let mut corpus = Corpus::clean(store);
        let epoch = corpus.epoch;
        let mut noise = Noise {
            rng: SimRng::new(seed).fork_named("sdbench-noise"),
            cts: epoch.unix_ms,
        };
        for (src, lines) in corpus.files.iter_mut() {
            let real = std::mem::take(lines);
            lines.reserve(real.len() * (NOISE_PER_LINE + 1));
            let mut it = real.into_iter().peekable();
            while let Some(line) = it.next() {
                let from = line.ts.0;
                let to = it.peek().map_or(from, |next| next.ts.0);
                lines.push(line);
                for j in 0..NOISE_PER_LINE {
                    let ts =
                        TsMs(from + (to - from) * (j as u64 + 1) / (NOISE_PER_LINE as u64 + 1));
                    lines.push(noise.line(&epoch, *src, ts));
                }
            }
        }
        corpus
    }

    /// Bytes on disk (every line plus its newline).
    pub fn bytes(&self) -> u64 {
        self.lines().map(|l| l.text.len() as u64 + 1).sum()
    }

    /// Lines `parse_line` accepts.
    pub fn records(&self) -> u64 {
        self.lines().filter(|l| l.parses).count() as u64
    }

    /// Log time of the newest line, ms: how long the simulated cluster ran.
    pub fn span_ms(&self) -> u64 {
        self.lines().map(|l| l.ts.0).max().unwrap_or(0)
    }

    /// Log files.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    fn lines(&self) -> impl Iterator<Item = &Line> {
        self.files.values().flatten()
    }

    /// Write the corpus in the layout `LogStore::write_dir` produces.
    pub fn write_dir(&self, dir: &Path) -> io::Result<()> {
        self.lay_out(dir, true)
    }

    /// Create the corpus's directories and log files, all empty: what the
    /// paced appender starts from. Creating a file costs 0.03 to 0.5 ms on
    /// the sandbox this was written on, drifting by the hour, against a
    /// steady 0.01 ms per append, so no measured interval creates log
    /// files.
    pub fn create_empty(&self, dir: &Path) -> io::Result<()> {
        self.lay_out(dir, false)
    }

    fn lay_out(&self, dir: &Path, with_lines: bool) -> io::Result<()> {
        fs::create_dir_all(dir)?;
        fs::write(dir.join("epoch.txt"), format!("{}\n", self.epoch.unix_ms))?;
        let mut text = String::new();
        for (src, lines) in &self.files {
            text.clear();
            for l in lines.iter().filter(|_| with_lines) {
                text.push_str(&l.text);
                text.push('\n');
            }
            let path = dir.join(src.rel_path());
            if let Some(parent) = path.parent() {
                fs::create_dir_all(parent)?;
            }
            fs::write(path, &text)?;
        }
        Ok(())
    }

    /// Every line in the order a live cluster would emit them: by log
    /// time, ties by source, then file order (a stable sort, so each
    /// file's own order is kept).
    pub fn by_time(&self) -> Vec<(LogSource, &Line)> {
        let mut all: Vec<(LogSource, &Line)> = self
            .files
            .iter()
            .flat_map(|(src, lines)| lines.iter().map(move |l| (*src, l)))
            .collect();
        all.sort_by_key(|(src, l)| (l.ts, *src));
        all
    }
}

/// The seeded noise vocabulary.
struct Noise {
    rng: SimRng,
    /// Cluster timestamp the ids in the chatter are built on.
    cts: u64,
}

impl Noise {
    fn app(&mut self) -> String {
        format!("application_{}_{:04}", self.cts, self.rng.range(1, 4000))
    }

    fn container(&mut self) -> String {
        format!(
            "container_{}_{:04}_01_{:06}",
            self.cts,
            self.rng.range(1, 4000),
            self.rng.range(1, 6)
        )
    }

    fn host(&mut self) -> String {
        format!("node{:02}.cluster.local", self.rng.range(1, 26))
    }

    fn line(&mut self, epoch: &Epoch, src: LogSource, ts: TsMs) -> Line {
        let roll = self.rng.below(10);
        if roll == 0 {
            return Line {
                ts,
                text: self.stack_line(),
                parses: false,
            };
        }
        let (level, class, message) = if roll == 1 {
            self.near_miss(src)
        } else {
            self.chatter(src)
        };
        Line {
            ts,
            text: format!(
                "{} {:<5} {}: {}",
                format_timestamp(epoch, ts),
                level,
                class,
                message
            ),
            parses: true,
        }
    }

    /// A stack-trace continuation line: no timestamp, so `parse_line`
    /// rejects it.
    fn stack_line(&mut self) -> String {
        const FRAMES: [&str; 8] = [
            "org.apache.hadoop.ipc.Client.call(Client.java:1475)",
            "org.apache.hadoop.ipc.ProtobufRpcEngine$Invoker.invoke(ProtobufRpcEngine.java:229)",
            "org.apache.hadoop.yarn.server.nodemanager.containermanager.launcher.ContainerLaunch.call(ContainerLaunch.java:302)",
            "org.apache.spark.rpc.netty.NettyRpcEnv.askAbortable(NettyRpcEnv.scala:242)",
            "org.apache.spark.scheduler.DAGScheduler.handleTaskCompletion(DAGScheduler.scala:1262)",
            "java.util.concurrent.ThreadPoolExecutor.runWorker(ThreadPoolExecutor.java:1149)",
            "java.lang.Thread.run(Thread.java:748)",
            "sun.nio.ch.SocketChannelImpl.read(SocketChannelImpl.java:380)",
        ];
        match self.rng.below(8) {
            0 => "java.io.IOException: Connection reset by peer".to_string(),
            1 => format!("Caused by: java.net.SocketTimeoutException: {} millis timeout while waiting for channel to be ready for read", self.rng.range(1000, 60000)),
            _ => format!("\tat {}", FRAMES[self.rng.index(FRAMES.len())]),
        }
    }

    /// A class the extraction rules gate on, with a message of another
    /// shape (driver and executor rules ignore the class, so there the
    /// near miss is in the message prefix).
    fn near_miss(&mut self, src: LogSource) -> (&'static str, &'static str, String) {
        match src {
            LogSource::ResourceManager => {
                if self.rng.chance(0.5) {
                    let app = self.app();
                    (
                        "INFO",
                        "RMAppImpl",
                        format!("Storing application with id {app}"),
                    )
                } else {
                    let c = self.container();
                    (
                        "INFO",
                        "RMContainerImpl",
                        format!("Processing {c} of type RELEASED"),
                    )
                }
            }
            LogSource::NodeManager(_) => {
                let c = self.container();
                if self.rng.chance(0.5) {
                    (
                        "INFO",
                        "ContainerImpl",
                        format!("Cleaning up container {c}"),
                    )
                } else {
                    ("WARN", "ContainerImpl", format!("Container {c} succeeded"))
                }
            }
            LogSource::Driver(_) => {
                if self.rng.chance(0.5) {
                    let h = self.host();
                    (
                        "INFO",
                        "RMProxy",
                        format!("Registering with ResourceManager at {h}:8030"),
                    )
                } else {
                    (
                        "INFO",
                        "YarnAllocator",
                        format!(
                            "ALLO backlog: {} pending container request(s)",
                            self.rng.range(1, 9)
                        ),
                    )
                }
            }
            LogSource::Executor(_) => (
                "INFO",
                "CoarseGrainedExecutorBackend",
                format!("Got the assignment for task {}", self.rng.range(1, 5000)),
            ),
        }
    }

    /// Scheduler and runtime chatter from classes outside the rules'
    /// vocabulary.
    fn chatter(&mut self, src: LogSource) -> (&'static str, &'static str, String) {
        let pick = self.rng.below(6);
        match src {
            LogSource::ResourceManager => match pick {
                0 => {
                    let (c, h) = (self.container(), self.host());
                    ("INFO", "SchedulerNode", format!("Assigned container {c} of capacity <memory:4096, vCores:1> on host {h}:45454, which has {} containers, <memory:{}, vCores:{}> used and <memory:{}, vCores:{}> available after allocation", self.rng.range(1, 9), self.rng.range(4096, 65536), self.rng.range(1, 16), self.rng.range(4096, 131072), self.rng.range(1, 32)))
                }
                1 => ("INFO", "ParentQueue", format!("assignedContainer queue=root usedCapacity=0.{:03} absoluteUsedCapacity=0.{:03} used=<memory:{}, vCores:{}> cluster=<memory:3276800, vCores:800>", self.rng.below(1000), self.rng.below(1000), self.rng.range(4096, 3276800), self.rng.range(1, 800))),
                2 => {
                    let (a, c) = (self.app(), self.container());
                    ("INFO", "RMAuditLogger", format!("USER=hadoop\tOPERATION=AM Released Container\tTARGET=SchedulerApp\tRESULT=SUCCESS\tAPPID={a}\tCONTAINERID={c}"))
                }
                3 => ("INFO", "ClientRMService", format!("Allocated new applicationId: {}", self.rng.range(1, 4000))),
                4 => {
                    let h = self.host();
                    ("DEBUG", "ResourceTrackerService", format!("Node heartbeat from {h}:45454 with {} running container(s)", self.rng.below(12)))
                }
                _ => {
                    let c = self.container();
                    ("INFO", "LeafQueue", format!("completedContainer container={c} queue=default: capacity=1.0, absoluteCapacity=1.0, usedResources=<memory:{}, vCores:{}>", self.rng.range(0, 65536), self.rng.below(16)))
                }
            },
            LogSource::NodeManager(_) => match pick {
                0 => {
                    let c = self.container();
                    ("INFO", "ContainersMonitorImpl", format!("Memory usage of ProcessTree {} for container-id {c}: {}.{} MB of 4 GB physical memory used; {}.{} GB of 8.4 GB virtual memory used", self.rng.range(1000, 32768), self.rng.range(100, 4000), self.rng.below(10), self.rng.range(1, 8), self.rng.below(10)))
                }
                1 => {
                    let c = self.container();
                    ("INFO", "ContainerManagerImpl", format!("Start request for {c} by user hadoop"))
                }
                2 => {
                    let (a, c) = (self.app(), self.container());
                    ("INFO", "DefaultContainerExecutor", format!("launchContainer: [bash, /tmp/hadoop/nm-local-dir/usercache/hadoop/appcache/{a}/{c}/default_container_executor.sh]"))
                }
                3 => {
                    let a = self.app();
                    ("INFO", "LocalizedResource", format!("Resource hdfs://nn.cluster.local:8020/user/hadoop/.sparkStaging/{a}/__spark_libs__{}.zip transitioned from DOWNLOADING to LOCALIZED", self.rng.range(1, 1 << 40)))
                }
                4 => {
                    let c = self.container();
                    ("INFO", "NodeStatusUpdaterImpl", format!("Removed completed containers from NM context: [{c}]"))
                }
                _ => {
                    let c = self.container();
                    ("DEBUG", "ContainerLaunch", format!("Container {c} pid file written, exit code pending after {} ms", self.rng.range(1, 900)))
                }
            },
            LogSource::Driver(_) => match pick {
                0 => ("INFO", "DAGScheduler", format!("Submitting {} missing tasks from ShuffleMapStage {} (MapPartitionsRDD[{}] at sql at TpchQuery.scala:{})", self.rng.range(1, 200), self.rng.below(12), self.rng.below(90), self.rng.range(20, 400))),
                1 => {
                    let h = self.host();
                    ("INFO", "TaskSetManager", format!("Finished task {}.0 in stage {}.0 (TID {}) in {} ms on {h} (executor {}) ({}/200)", self.rng.below(200), self.rng.below(12), self.rng.below(5000), self.rng.range(5, 4000), self.rng.range(1, 5), self.rng.range(1, 200)))
                }
                2 => {
                    let h = self.host();
                    ("INFO", "BlockManagerInfo", format!("Added broadcast_{}_piece0 in memory on {h}:{} (size: {}.{} KB, free: 2.1 GB)", self.rng.below(60), self.rng.range(30000, 60000), self.rng.range(1, 90), self.rng.below(10)))
                }
                3 => ("INFO", "SparkContext", format!("Created broadcast {} from broadcast at DAGScheduler.scala:1006", self.rng.below(60))),
                4 => ("INFO", "ContextCleaner", format!("Cleaned accumulator {}", self.rng.below(100000))),
                _ => ("DEBUG", "YarnAllocator", format!("Will request {} executor container(s), each with 1 core(s) and 4505 MB memory (including 409 MB of overhead)", self.rng.range(1, 5))),
            },
            LogSource::Executor(_) => match pick {
                0 => ("INFO", "Executor", format!("Running task {}.0 in stage {}.0 (TID {})", self.rng.below(200), self.rng.below(12), self.rng.below(5000))),
                1 => ("INFO", "Executor", format!("Finished task {}.0 in stage {}.0 (TID {}). {} bytes result sent to driver", self.rng.below(200), self.rng.below(12), self.rng.below(5000), self.rng.range(900, 9000))),
                2 => ("INFO", "TorrentBroadcast", format!("Reading broadcast variable {} took {} ms", self.rng.below(60), self.rng.range(1, 300))),
                3 => ("INFO", "ShuffleBlockFetcherIterator", format!("Getting {} non-empty blocks out of 200 blocks", self.rng.range(1, 200))),
                4 => ("INFO", "MemoryStore", format!("Block broadcast_{} stored as values in memory (estimated size {}.{} KB, free 2.1 GB)", self.rng.below(60), self.rng.range(1, 400), self.rng.below(10))),
                _ => ("DEBUG", "CodeGenerator", format!("Code generated in {}.{:06} ms", self.rng.range(1, 90), self.rng.below(1_000_000))),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logmodel::parse_line;

    fn small() -> Simulated {
        simulate_tpch(12, 7)
    }

    fn rendered(c: &Corpus) -> Vec<(String, String)> {
        c.files
            .iter()
            .map(|(src, lines)| {
                let text: String = lines.iter().map(|l| format!("{}\n", l.text)).collect();
                (src.rel_path(), text)
            })
            .collect()
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let a = small();
        let b = small();
        assert_eq!(
            rendered(&Corpus::noisy(&a.store, 7)),
            rendered(&Corpus::noisy(&b.store, 7))
        );
        assert_ne!(
            rendered(&Corpus::noisy(&a.store, 7)),
            rendered(&Corpus::noisy(&a.store, 8))
        );
        assert_ne!(
            rendered(&Corpus::clean(&a.store)),
            rendered(&Corpus::clean(&simulate_tpch(12, 8).store))
        );
    }

    #[test]
    fn clean_corpus_is_what_write_dir_writes() {
        let sim = small();
        let dir = std::env::temp_dir().join(format!("sdbench_corpus_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        sim.store.write_dir(&dir.join("a")).unwrap();
        let corpus = Corpus::clean(&sim.store);
        corpus.write_dir(&dir.join("b")).unwrap();
        let mut bytes = 0;
        for (rel, text) in rendered(&corpus) {
            let a = fs::read_to_string(dir.join("a").join(&rel)).unwrap();
            let b = fs::read_to_string(dir.join("b").join(&rel)).unwrap();
            assert_eq!(a, text, "{rel}");
            assert_eq!(b, text, "{rel}");
            bytes += text.len() as u64;
        }
        assert_eq!(corpus.bytes(), bytes);
        assert_eq!(corpus.records(), sim.store.total_records() as u64);
        assert_eq!(
            fs::read(dir.join("a/epoch.txt")).unwrap(),
            fs::read(dir.join("b/epoch.txt")).unwrap()
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn noise_keeps_first_records_order_and_parse_flags() {
        let sim = small();
        let clean = Corpus::clean(&sim.store);
        let noisy = Corpus::noisy(&sim.store, 7);
        let mut kinds = [0usize; 2];
        for (src, lines) in &noisy.files {
            let real = &clean.files[src];
            assert_eq!(lines.len(), real.len() * (NOISE_PER_LINE + 1));
            assert_eq!(lines[0], real[0], "noise precedes the first record");
            assert!(
                lines.windows(2).all(|w| w[0].ts <= w[1].ts),
                "log time goes back"
            );
            assert_eq!(lines.last().unwrap().ts, real.last().unwrap().ts);
            for (i, l) in lines.iter().enumerate() {
                let parsed = parse_line(&noisy.epoch, &l.text);
                assert_eq!(parsed.is_some(), l.parses, "{}", l.text);
                if let Some(r) = parsed {
                    assert_eq!(r.ts, l.ts);
                }
                if i % (NOISE_PER_LINE + 1) != 0 {
                    kinds[l.parses as usize] += 1;
                }
            }
        }
        let share = kinds[0] as f64 / (kinds[0] + kinds[1]) as f64;
        assert!((0.07..0.13).contains(&share), "stack-trace share {share}");
        // The time-ordered stream is a permutation that keeps file order.
        let stream = noisy.by_time();
        assert_eq!(stream.len(), noisy.lines().count());
        assert!(stream.windows(2).all(|w| w[0].1.ts <= w[1].1.ts));
    }
}
