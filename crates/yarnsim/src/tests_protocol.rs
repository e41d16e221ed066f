//! End-to-end protocol tests: drive the cluster through full application
//! lifecycles with a minimal event pump and assert on the *logs* it emits —
//! the same evidence SDchecker consumes — or on the typed lines behind them.

use std::collections::BTreeMap;

use logmodel::{ApplicationId, ContainerId, Epoch, LogSource, LogStore, NodeId};
use simkit::{EventQueue, Millis};

use crate::cluster::Cluster;
use crate::config::{ClusterConfig, ContainerRuntime, ResourceReq};
use crate::effects::{
    AppNotice, AppSubmission, ClusterEvent, InstanceKind, LaunchSpec, Line, LocalResource, Out,
    What,
};
use crate::faults::FaultConfig;

/// Minimal deterministic event pump around a [`Cluster`].
struct Pump {
    cluster: Cluster,
    /// Every line the cluster wrote, in write order.
    lines: Vec<Line>,
    /// The same lines, rendered.
    logs: LogStore,
    queue: EventQueue<ClusterEvent>,
    notices: Vec<AppNotice>,
    now: Millis,
}

impl Pump {
    fn new(cfg: ClusterConfig) -> Pump {
        let epoch = Epoch::default_run();
        let mut cluster = Cluster::new(cfg, epoch.unix_ms, 7);
        let mut out = Out::new();
        cluster.start(&mut out);
        let mut p = Pump {
            cluster,
            lines: Vec::new(),
            logs: LogStore::new(epoch),
            queue: EventQueue::new(),
            notices: Vec::new(),
            now: Millis::ZERO,
        };
        p.absorb(out);
        p
    }

    fn absorb(&mut self, out: Out) {
        for (t, ev) in out.events {
            self.queue.push(t, ev);
        }
        self.notices.extend(out.notices);
        for line in out.lines {
            let (ts, class, message) = line.clone().into_parts();
            self.logs.info(line.source, ts, class, message);
            self.lines.push(line);
        }
    }

    fn step(&mut self) -> bool {
        let Some((t, ev)) = self.queue.pop() else {
            return false;
        };
        self.now = t;
        let mut out = Out::new();
        self.cluster.handle(t, ev, &mut out);
        self.absorb(out);
        true
    }

    /// Run until a notice satisfying `pred` appears (consuming earlier
    /// notices into the buffer), up to `cap` events.
    fn run_until<F: Fn(&AppNotice) -> bool>(&mut self, pred: F, cap: u64) -> AppNotice {
        for _ in 0..cap {
            if let Some(pos) = self.notices.iter().position(&pred) {
                return self.notices.remove(pos);
            }
            assert!(self.step(), "queue drained before notice");
        }
        panic!("notice not raised within {cap} events");
    }

    /// Run until the clock passes `t` or the queue drains.
    fn run_past(&mut self, t: Millis) {
        while self.now < t && self.step() {}
    }

    fn submit(&mut self, sub: AppSubmission) -> ApplicationId {
        let mut out = Out::new();
        let id = self.cluster.submit_application(self.now, sub, &mut out);
        self.absorb(out);
        id
    }

    fn with_cluster<R>(&mut self, f: impl FnOnce(&mut Cluster, Millis, &mut Out) -> R) -> R {
        let mut out = Out::new();
        let r = f(&mut self.cluster, self.now, &mut out);
        self.absorb(out);
        r
    }
}

fn driver_launch() -> LaunchSpec {
    LaunchSpec {
        kind: InstanceKind::SparkDriver,
        localization: vec![
            LocalResource::new("spark-libs.jar", 450.0),
            LocalResource::new("app.jar", 50.0),
        ],
        runtime: ContainerRuntime::Default,
        launch_cpu_ms: 700.0,
        launch_threads: 1.0,
        launch_io_mb: 0.0,
    }
}

fn executor_launch() -> LaunchSpec {
    LaunchSpec {
        kind: InstanceKind::SparkExecutor,
        ..driver_launch()
    }
}

fn spark_submission() -> AppSubmission {
    AppSubmission {
        name: "spark-sql".into(),
        am_resource: ResourceReq::SPARK_DRIVER,
        am_launch: driver_launch(),
        am_heartbeat_ms: 200,
    }
}

fn messages_about<'a>(logs: &'a LogStore, src: LogSource, needle: &str) -> Vec<&'a str> {
    logs.records(src)
        .iter()
        .filter(|r| r.message.contains(needle))
        .map(|r| r.message)
        .collect()
}

#[test]
fn am_container_full_lifecycle_logs() {
    let mut p = Pump::new(ClusterConfig::default());
    let app = p.submit(spark_submission());
    let notice = p.run_until(
        |n| {
            matches!(
                n,
                AppNotice::ProcessStarted {
                    kind: InstanceKind::SparkDriver,
                    ..
                }
            )
        },
        100_000,
    );
    let AppNotice::ProcessStarted {
        app: napp,
        container,
        node,
        ..
    } = notice
    else {
        unreachable!()
    };
    assert_eq!(napp, app);
    assert!(container.is_am());

    // RM app state chain.
    let rm = messages_about(&p.logs, LogSource::ResourceManager, &app.to_string());
    let expect = [
        "from NEW to NEW_SAVING",
        "from NEW_SAVING to SUBMITTED",
        "from SUBMITTED to ACCEPTED",
    ];
    for (i, e) in expect.iter().enumerate() {
        assert!(rm[i].contains(e), "rm[{i}] = {}", rm[i]);
    }

    // RM container chain: ALLOCATED then ACQUIRED.
    let rc = messages_about(&p.logs, LogSource::ResourceManager, &container.to_string());
    assert!(rc[0].contains("from NEW to ALLOCATED"), "{}", rc[0]);
    assert!(rc[1].contains("from ALLOCATED to ACQUIRED"), "{}", rc[1]);

    // NM chain on the right node's log.
    let nm = messages_about(
        &p.logs,
        LogSource::NodeManager(node),
        &container.to_string(),
    );
    assert!(nm[0].contains("from NEW to LOCALIZING"), "{}", nm[0]);
    assert!(nm[1].contains("from LOCALIZING to SCHEDULED"), "{}", nm[1]);
    assert!(nm[2].contains("from SCHEDULED to RUNNING"), "{}", nm[2]);

    // Timing sanity: ≥ 500 MB of localization at ≤ 1 MB/ms plus a 700 ms
    // JVM start means the process can't be up before ~1.2 s.
    assert!(p.now >= Millis(1200), "driver up too fast: {}", p.now);
}

#[test]
fn am_container_transitions_are_observable_without_the_logs() {
    // The same lifecycle as above, read from the typed lines: no text is
    // parsed, so this holds whatever the log phrasing.
    let mut p = Pump::new(ClusterConfig::default());
    let app = p.submit(spark_submission());
    let AppNotice::ProcessStarted { container, .. } =
        p.run_until(|n| matches!(n, AppNotice::ProcessStarted { .. }), 100_000)
    else {
        unreachable!()
    };
    assert_eq!(container, app.attempt(1).container(1));
    let mut hops = Vec::new();
    let mut at = Vec::new();
    for line in &p.lines {
        let hop = match line.what {
            What::RmContainer { cid, from, to } if cid == container => {
                ("rm", from.as_str(), to.as_str())
            }
            What::NmContainer { cid, from, to } if cid == container => {
                ("nm", from.as_str(), to.as_str())
            }
            _ => continue,
        };
        hops.push(hop);
        at.push(line.at);
    }
    assert_eq!(
        hops,
        [
            ("rm", "NEW", "ALLOCATED"),
            ("rm", "ALLOCATED", "ACQUIRED"),
            ("nm", "NEW", "LOCALIZING"),
            ("nm", "LOCALIZING", "SCHEDULED"),
            ("nm", "SCHEDULED", "RUNNING"),
            ("rm", "ACQUIRED", "RUNNING"),
        ]
    );
    assert!(at.windows(2).all(|w| w[0] <= w[1]), "{at:?}");
}

#[test]
fn executors_are_granted_after_registration() {
    let mut p = Pump::new(ClusterConfig::default());
    let app = p.submit(spark_submission());
    p.run_until(|n| matches!(n, AppNotice::ProcessStarted { .. }), 100_000);

    p.with_cluster(|c, now, out| c.am_register(now, app, out));
    p.with_cluster(|c, now, out| {
        c.request_containers(now, app, 4, ResourceReq::SPARK_EXECUTOR, out)
    });

    let notice = p.run_until(
        |n| matches!(n, AppNotice::ContainersGranted { .. }),
        100_000,
    );
    let AppNotice::ContainersGranted { containers, .. } = notice else {
        unreachable!()
    };
    // Executor containers arrive in one or more grants; launch the first
    // batch and expect processes to start.
    assert!(!containers.is_empty());
    let mut started = 0;
    for (cid, _) in &containers {
        let cid = *cid;
        p.with_cluster(|c, now, out| c.launch_container(now, cid, executor_launch(), out));
    }
    for _ in 0..containers.len() {
        p.run_until(
            |n| {
                matches!(
                    n,
                    AppNotice::ProcessStarted {
                        kind: InstanceKind::SparkExecutor,
                        ..
                    }
                )
            },
            200_000,
        );
        started += 1;
    }
    assert_eq!(started, containers.len());
    // RMApp must have logged the registration transition.
    let rm = messages_about(&p.logs, LogSource::ResourceManager, "ATTEMPT_REGISTERED");
    assert_eq!(rm.len(), 1);
    assert!(rm[0].contains("from ACCEPTED to RUNNING"));
}

#[test]
fn acquisition_waits_for_am_heartbeat() {
    // With a 1000 ms AM heartbeat, ALLOCATED→ACQUIRED must take ≤ 1 s and
    // be strictly positive on average (paper Fig 7-(c): capped at the
    // heartbeat interval).
    let mut sub = spark_submission();
    sub.am_heartbeat_ms = 1000;
    let mut p = Pump::new(ClusterConfig::default());
    let app = p.submit(sub);
    p.run_until(|n| matches!(n, AppNotice::ProcessStarted { .. }), 100_000);
    p.with_cluster(|c, now, out| c.am_register(now, app, out));
    p.with_cluster(|c, now, out| {
        c.request_containers(now, app, 4, ResourceReq::SPARK_EXECUTOR, out)
    });
    p.run_until(
        |n| matches!(n, AppNotice::ContainersGranted { .. }),
        200_000,
    );

    // Mine the logs: per executor container, acquired - allocated ∈ (0, 1000].
    let rm = p.logs.records(LogSource::ResourceManager).iter();
    let mut allocated = std::collections::HashMap::new();
    for r in rm {
        if r.message.contains("from NEW to ALLOCATED") {
            allocated.insert(r.message.split(' ').next().unwrap().to_string(), r.ts);
        }
        if r.message.contains("from ALLOCATED to ACQUIRED") {
            let key = r.message.split(' ').next().unwrap().to_string();
            if key.ends_with("000001") {
                continue; // AM container: acquired immediately by the RM
            }
            let alloc_ts = allocated[&key];
            let delay = r.ts.since(alloc_ts);
            assert!(delay <= 1000, "acquisition {delay} ms > heartbeat");
        }
    }
}

#[test]
fn localization_cache_dedups_same_node_downloads() {
    // One-node cluster: the driver localizes "spark-libs.jar"; executors on
    // the same node must reuse it and localize faster.
    let cfg = ClusterConfig {
        nodes: 1,
        ..ClusterConfig::default()
    };
    let mut p = Pump::new(cfg);
    let app = p.submit(spark_submission());
    p.run_until(|n| matches!(n, AppNotice::ProcessStarted { .. }), 100_000);
    p.with_cluster(|c, now, out| c.am_register(now, app, out));
    p.with_cluster(|c, now, out| {
        c.request_containers(now, app, 1, ResourceReq::SPARK_EXECUTOR, out)
    });
    let AppNotice::ContainersGranted { containers, .. } = p.run_until(
        |n| matches!(n, AppNotice::ContainersGranted { .. }),
        200_000,
    ) else {
        unreachable!()
    };
    let (cid, node) = containers[0];
    p.with_cluster(|c, now, out| c.launch_container(now, cid, executor_launch(), out));
    p.run_until(
        |n| {
            matches!(
                n,
                AppNotice::ProcessStarted {
                    kind: InstanceKind::SparkExecutor,
                    ..
                }
            )
        },
        200_000,
    );

    // Localization delay per container = LOCALIZING→SCHEDULED.
    let nm = p.logs.records(LogSource::NodeManager(node)).iter();
    let mut start = std::collections::HashMap::new();
    let mut local_delays = std::collections::HashMap::new();
    for r in nm {
        let id: ContainerId = r.message.split(' ').nth(1).unwrap().parse().unwrap();
        if r.message.contains("from NEW to LOCALIZING") {
            start.insert(id, r.ts);
        } else if r.message.contains("from LOCALIZING to SCHEDULED") {
            local_delays.insert(id, r.ts.since(start[&id]));
        }
    }
    let am_cid = app.attempt(1).container(1);
    let am_delay = local_delays[&am_cid];
    let exec_delay = local_delays[&cid];
    assert!(
        am_delay >= 450,
        "driver localization should download ≥450 MB: {am_delay} ms"
    );
    assert!(
        exec_delay < am_delay / 4,
        "cached executor localization {exec_delay} ms vs driver {am_delay} ms"
    );
}

#[test]
fn docker_runtime_slows_launch() {
    fn time_to_start(runtime: ContainerRuntime) -> u64 {
        let mut p = Pump::new(ClusterConfig::default());
        let mut sub = spark_submission();
        sub.am_launch.runtime = runtime;
        let _app = p.submit(sub);
        p.run_until(|n| matches!(n, AppNotice::ProcessStarted { .. }), 100_000);
        p.now.as_u64()
    }
    let plain = time_to_start(ContainerRuntime::Default);
    let docker = time_to_start(ContainerRuntime::Docker);
    assert!(
        docker > plain + 150,
        "docker {docker} ms vs plain {plain} ms — expected ≥150 ms overhead"
    );
}

#[test]
fn opportunistic_allocates_in_milliseconds() {
    let cfg = ClusterConfig::default().with_opportunistic();
    let mut p = Pump::new(cfg);
    let app = p.submit(spark_submission());
    p.run_until(|n| matches!(n, AppNotice::ProcessStarted { .. }), 100_000);
    p.with_cluster(|c, now, out| c.am_register(now, app, out));
    let t0 = p.now;
    p.with_cluster(|c, now, out| {
        c.request_containers(now, app, 4, ResourceReq::SPARK_EXECUTOR, out)
    });
    let AppNotice::ContainersGranted { containers, .. } = p.run_until(
        |n| matches!(n, AppNotice::ContainersGranted { .. }),
        200_000,
    ) else {
        unreachable!()
    };
    assert_eq!(containers.len(), 4);
    let grant_latency = p.now - t0;
    assert!(
        grant_latency < Millis(500),
        "opportunistic grant took {grant_latency}"
    );
}

#[test]
fn opportunistic_queues_when_node_full() {
    // Single node, executors take 8 vcores each, node has 32, with the
    // vcore-enforcing calculator: the 4th executor queues until one
    // finishes.
    let cfg = ClusterConfig {
        nodes: 1,
        resource_calculator: crate::config::ResourceCalculator::Dominant,
        ..ClusterConfig::default().with_opportunistic()
    };
    let mut p = Pump::new(cfg);
    let app = p.submit(spark_submission());
    p.run_until(|n| matches!(n, AppNotice::ProcessStarted { .. }), 100_000);
    p.with_cluster(|c, now, out| c.am_register(now, app, out));
    // Driver holds 1 vcore; 3 executors fit (24 vcores), the 4th would
    // exceed 32 after 1+24=25... still fits (25+8=33 > 32): so 3 fit.
    p.with_cluster(|c, now, out| {
        c.request_containers(now, app, 4, ResourceReq::SPARK_EXECUTOR, out)
    });
    let AppNotice::ContainersGranted { containers, .. } = p.run_until(
        |n| matches!(n, AppNotice::ContainersGranted { .. }),
        200_000,
    ) else {
        unreachable!()
    };
    for (cid, _) in &containers {
        let cid = *cid;
        p.with_cluster(|c, now, out| c.launch_container(now, cid, executor_launch(), out));
    }
    let mut started = Vec::new();
    for _ in 0..3 {
        let AppNotice::ProcessStarted { container, .. } = p.run_until(
            |n| {
                matches!(
                    n,
                    AppNotice::ProcessStarted {
                        kind: InstanceKind::SparkExecutor,
                        ..
                    }
                )
            },
            400_000,
        ) else {
            unreachable!()
        };
        started.push(container);
    }
    // The 4th is queued; run a while and confirm it has not started.
    p.run_past(p.now + Millis(30_000));
    let queued: Vec<_> = containers
        .iter()
        .map(|(c, _)| *c)
        .filter(|c| !started.contains(c))
        .collect();
    assert_eq!(queued.len(), 1);
    assert!(p
        .notices
        .iter()
        .all(|n| !matches!(n, AppNotice::ProcessStarted { .. })));
    // Finish one executor: the queued one starts.
    let done = started[0];
    p.with_cluster(|c, now, out| c.finish_container(now, done, out));
    let AppNotice::ProcessStarted { container, .. } =
        p.run_until(|n| matches!(n, AppNotice::ProcessStarted { .. }), 400_000)
    else {
        unreachable!()
    };
    assert_eq!(container, queued[0]);
}

#[test]
fn finish_application_reaches_finished_and_frees_resources() {
    let mut p = Pump::new(ClusterConfig::default());
    let app = p.submit(spark_submission());
    p.run_until(|n| matches!(n, AppNotice::ProcessStarted { .. }), 100_000);
    p.with_cluster(|c, now, out| c.am_register(now, app, out));
    assert!(p.cluster.vcore_utilization() > 0.0);
    p.with_cluster(|c, now, out| c.finish_application(now, app, out));
    p.run_past(p.now + Millis(5_000));
    assert_eq!(p.cluster.vcore_utilization(), 0.0);
    let rm = messages_about(&p.logs, LogSource::ResourceManager, "to FINISHED");
    assert_eq!(rm.len(), 1);
}

#[test]
fn released_containers_show_bug_signature() {
    // Over-request, then release the extras: they must show
    // ALLOCATED (…ACQUIRED) → COMPLETED with no NM/executor evidence —
    // exactly what sdchecker::bugs looks for.
    let mut p = Pump::new(ClusterConfig::default());
    let app = p.submit(spark_submission());
    p.run_until(|n| matches!(n, AppNotice::ProcessStarted { .. }), 100_000);
    p.with_cluster(|c, now, out| c.am_register(now, app, out));
    p.with_cluster(|c, now, out| {
        c.request_containers(now, app, 6, ResourceReq::SPARK_EXECUTOR, out)
    });
    let mut granted: Vec<(ContainerId, NodeId)> = Vec::new();
    while granted.len() < 6 {
        let AppNotice::ContainersGranted { containers, .. } = p.run_until(
            |n| matches!(n, AppNotice::ContainersGranted { .. }),
            400_000,
        ) else {
            unreachable!()
        };
        granted.extend(containers);
    }
    // Launch 4, release 2.
    for (cid, _) in granted.iter().take(4) {
        let cid = *cid;
        p.with_cluster(|c, now, out| c.launch_container(now, cid, executor_launch(), out));
    }
    let extras: Vec<ContainerId> = granted.iter().skip(4).map(|(c, _)| *c).collect();
    p.with_cluster(|c, now, out| c.release_containers(now, &extras, out));
    for cid in &extras {
        let rc = messages_about(&p.logs, LogSource::ResourceManager, &cid.to_string());
        assert!(
            rc.last().unwrap().contains("to COMPLETED"),
            "released container must complete: {rc:?}"
        );
        // And no NM log anywhere mentions it.
        for node in 0..p.cluster.node_count() {
            let nm = messages_about(
                &p.logs,
                LogSource::NodeManager(NodeId(node as u32)),
                &cid.to_string(),
            );
            assert!(nm.is_empty(), "released container must never reach an NM");
        }
    }
}

#[test]
fn cancel_pending_trims_backlog() {
    let mut p = Pump::new(ClusterConfig::default());
    let app = p.submit(spark_submission());
    p.run_until(|n| matches!(n, AppNotice::ProcessStarted { .. }), 100_000);
    p.with_cluster(|c, now, out| c.am_register(now, app, out));
    // Request far more than the cluster can hold (800 × 4GB executors
    // fit by memory).
    p.with_cluster(|c, now, out| {
        c.request_containers(now, app, 2000, ResourceReq::SPARK_EXECUTOR, out)
    });
    // The ask is still riding toward the next AM heartbeat: cancelling
    // trims it before it ever reaches the RM backlog.
    let cancelled = p.cluster.cancel_pending(app, 100);
    assert_eq!(cancelled, 100);
    // After the heartbeat delivers the remaining ask, the backlog (plus
    // whatever was already granted) accounts for the other 1900.
    p.run_past(p.now + Millis(1_500));
    let backlog = p.cluster.backlog_len();
    assert!(backlog > 0, "remaining ask must reach the backlog");
    assert!(
        backlog <= 1900,
        "cancelled asks must not reappear: {backlog}"
    );
    let cancelled2 = p.cluster.cancel_pending(app, 50);
    assert_eq!(cancelled2, 50);
    assert_eq!(p.cluster.backlog_len(), backlog - 50);
}

#[test]
fn capacity_allocation_quantized_by_am_heartbeat() {
    // Allocation is fast (RM tick), but the grant only reaches the AM on
    // its next heartbeat, so the AM-visible latency is quantized by the
    // heartbeat interval and never instantaneous.
    let mut p = Pump::new(ClusterConfig::default());
    let app = p.submit(spark_submission());
    p.run_until(|n| matches!(n, AppNotice::ProcessStarted { .. }), 100_000);
    p.with_cluster(|c, now, out| c.am_register(now, app, out));
    let t0 = p.now;
    p.with_cluster(|c, now, out| {
        c.request_containers(now, app, 4, ResourceReq::SPARK_EXECUTOR, out)
    });
    let mut granted = 0;
    while granted < 4 {
        let AppNotice::ContainersGranted { containers, .. } = p.run_until(
            |n| matches!(n, AppNotice::ContainersGranted { .. }),
            400_000,
        ) else {
            unreachable!()
        };
        granted += containers.len();
    }
    let latency = p.now - t0;
    assert!(
        latency > Millis(1),
        "allocation can't be instant: {latency}"
    );
    assert!(
        latency < Millis(2_500),
        "4 executors should be granted within ~2 heartbeats: {latency}"
    );
}

#[test]
fn dedicated_localization_store_isolates_from_io_interference() {
    // Saturate the main IO channel of every node with app IO; with the
    // §V-B dedicated store, localization should be unaffected.
    fn driver_up_time(store: Option<f64>) -> u64 {
        let cfg = ClusterConfig {
            nodes: 1,
            localization_store_mb_per_ms: store,
            ..ClusterConfig::default()
        };
        let mut p = Pump::new(cfg);
        // Background IO hogs on the single node (4 concurrent streams).
        p.with_cluster(|c, now, out| {
            let app = ApplicationId::new(1, 999); // unrelated flow owner
            for _ in 0..4 {
                let _ = c.spawn_io(now, NodeId(0), app, 400_000.0, out);
            }
        });
        let _app = p.submit(spark_submission());
        p.run_until(|n| matches!(n, AppNotice::ProcessStarted { .. }), 400_000);
        p.now.as_u64()
    }
    let shared = driver_up_time(None);
    let isolated = driver_up_time(Some(1.0));
    assert!(
        isolated + 400 < shared,
        "dedicated store must dodge the interference: {isolated}ms vs {shared}ms"
    );
}

#[test]
fn public_cache_survives_application_completion() {
    let cfg = ClusterConfig {
        nodes: 1,
        public_localization_cache: true,
        ..ClusterConfig::default()
    };
    let mut p = Pump::new(cfg);
    // First app localizes spark-libs.jar, then finishes.
    let a1 = p.submit(spark_submission());
    p.run_until(|n| matches!(n, AppNotice::ProcessStarted { .. }), 200_000);
    p.with_cluster(|c, now, out| c.am_register(now, a1, out));
    p.with_cluster(|c, now, out| c.finish_application(now, a1, out));
    p.run_past(p.now + Millis(3_000));
    // Second app's driver reuses the public cache: its localization is
    // near-instant.
    let a2 = p.submit(spark_submission());
    p.run_until(
        |n| matches!(n, AppNotice::ProcessStarted { app, .. } if *app == a2),
        200_000,
    );
    let nm = p.logs.records(LogSource::NodeManager(NodeId(0))).iter();
    let c2 = a2.attempt(1).container(1);
    let mut start = 0;
    let mut done = 0;
    for r in nm {
        if r.message.contains(&c2.to_string()) {
            if r.message.contains("to LOCALIZING") {
                start = r.ts.0;
            }
            if r.message.contains("to SCHEDULED") {
                done = r.ts.0;
            }
        }
    }
    assert!(
        done - start < 100,
        "public cache hit must skip the 500MB download: {}ms",
        done - start
    );
}

#[test]
fn small_requests_spread_across_nodes() {
    // The spread rule: a 4-executor request lands on ≥3 distinct nodes.
    let mut p = Pump::new(ClusterConfig::default());
    let app = p.submit(spark_submission());
    p.run_until(|n| matches!(n, AppNotice::ProcessStarted { .. }), 100_000);
    p.with_cluster(|c, now, out| c.am_register(now, app, out));
    p.with_cluster(|c, now, out| {
        c.request_containers(now, app, 4, ResourceReq::SPARK_EXECUTOR, out)
    });
    let mut granted: Vec<NodeId> = Vec::new();
    while granted.len() < 4 {
        let AppNotice::ContainersGranted { containers, .. } = p.run_until(
            |n| matches!(n, AppNotice::ContainersGranted { .. }),
            400_000,
        ) else {
            unreachable!()
        };
        granted.extend(containers.iter().map(|(_, n)| *n));
    }
    let distinct: std::collections::HashSet<_> = granted.iter().collect();
    assert!(
        distinct.len() >= 3,
        "4 executors should scatter over ≥3 nodes, got {granted:?}"
    );
}

#[test]
fn fair_policy_equalizes_grants_across_apps() {
    // Two apps contend: app A asks for a huge batch first, app B asks for
    // a small one right after. Under FIFO, A's bulk is served first and B
    // waits; under Fair, B's small ask is served promptly.
    fn b_wait(policy: crate::config::QueuePolicy) -> u64 {
        let cfg = ClusterConfig {
            queue_policy: policy,
            ..ClusterConfig::default()
        };
        let mut p = Pump::new(cfg);
        let a = p.submit(spark_submission());
        let b = p.submit(spark_submission());
        for app in [a, b] {
            p.run_until(
                |n| matches!(n, AppNotice::ProcessStarted { app: x, .. } if *x == app),
                400_000,
            );
            p.with_cluster(|c, now, out| c.am_register(now, app, out));
        }
        // A floods; B asks for 4.
        p.with_cluster(|c, now, out| {
            c.request_containers(now, a, 700, ResourceReq::SPARK_EXECUTOR, out)
        });
        p.with_cluster(|c, now, out| {
            c.request_containers(now, b, 4, ResourceReq::SPARK_EXECUTOR, out)
        });
        let t0 = p.now;
        let mut granted_b = 0;
        while granted_b < 4 {
            let n = p.run_until(
                |n| matches!(n, AppNotice::ContainersGranted { app: x, .. } if *x == b),
                2_000_000,
            );
            let AppNotice::ContainersGranted { containers, .. } = n else {
                unreachable!()
            };
            granted_b += containers.len();
        }
        (p.now - t0).as_u64()
    }
    let fifo = b_wait(crate::config::QueuePolicy::Fifo);
    let fair = b_wait(crate::config::QueuePolicy::Fair);
    assert!(
        fair <= fifo,
        "fair policy must not serve the small app later: fair {fair}ms vs fifo {fifo}ms"
    );
}

#[test]
fn am_attempt_failure_retries_and_second_attempt_succeeds() {
    // Script the AM of app 1 to fail its first attempt at launch. The RM
    // must retry: attempt 2's AM container (…_02_000001) launches, the app
    // registers, runs, and finishes — and every delay is no smaller than
    // in the fault-free run.
    fn time_to_am_up(faults: FaultConfig) -> (u64, crate::faults::FaultCounts) {
        let cfg = ClusterConfig {
            faults,
            ..ClusterConfig::default()
        };
        let mut p = Pump::new(cfg);
        let app = p.submit(spark_submission());
        let AppNotice::ProcessStarted { container, .. } = p.run_until(
            |n| {
                matches!(
                    n,
                    AppNotice::ProcessStarted {
                        kind: InstanceKind::SparkDriver,
                        ..
                    }
                )
            },
            400_000,
        ) else {
            unreachable!()
        };
        assert!(container.is_am());
        let up = p.now.as_u64();
        // The app still completes normally from here.
        p.with_cluster(|c, now, out| c.am_register(now, app, out));
        p.with_cluster(|c, now, out| c.finish_application(now, app, out));
        p.run_past(p.now + Millis(5_000));
        let rm = messages_about(&p.logs, LogSource::ResourceManager, "to FINISHED");
        assert_eq!(rm.len(), 1, "retried app must still reach FINISHED");
        (up, p.cluster.fault_counts())
    }

    let faulty = FaultConfig {
        scripted_am_failures: vec![(1, 1)],
        ..FaultConfig::default()
    };
    let (clean_up, clean_counts) = time_to_am_up(FaultConfig::default());
    let (retry_up, retry_counts) = time_to_am_up(faulty.clone());

    assert!(!clean_counts.any());
    assert_eq!(retry_counts.am_retries, 1);
    assert_eq!(retry_counts.apps_failed, 0);
    // Attempt 2 re-runs the whole submission→launch protocol, so the AM
    // comes up strictly later than in the fault-free run (monotonicity).
    assert!(
        retry_up > clean_up,
        "retry must not be faster: {retry_up} ms vs clean {clean_up} ms"
    );

    // Log evidence: the failed attempt leaves the RMAppAttemptImpl line and
    // the second attempt's AM container id carries attempt number 2.
    let cfg = ClusterConfig {
        faults: faulty,
        ..ClusterConfig::default()
    };
    let mut p = Pump::new(cfg);
    let app = p.submit(spark_submission());
    let retry = p.run_until(|n| matches!(n, AppNotice::AttemptRetry { .. }), 400_000);
    let AppNotice::AttemptRetry { new_attempt, .. } = retry else {
        unreachable!()
    };
    assert_eq!(new_attempt, 2);
    let AppNotice::ProcessStarted { container, .. } =
        p.run_until(|n| matches!(n, AppNotice::ProcessStarted { .. }), 400_000)
    else {
        unreachable!()
    };
    assert_eq!(container, app.attempt(2).container(1));
    let failed_attempt = messages_about(
        &p.logs,
        LogSource::ResourceManager,
        "from LAUNCHED to FAILED on event = CONTAINER_FINISHED",
    );
    assert_eq!(failed_attempt.len(), 1);
    assert!(failed_attempt[0].contains(&app.attempt(1).to_string()));
}

#[test]
fn am_attempt_exhaustion_fails_the_application() {
    // Every localization fails: attempt 1 and attempt 2 both die, the app
    // transitions ACCEPTED → FINAL_SAVING → FAILED.
    let cfg = ClusterConfig {
        faults: FaultConfig {
            localization_failure_rate: 1.0,
            ..FaultConfig::default()
        },
        ..ClusterConfig::default()
    };
    let mut p = Pump::new(cfg);
    let app = p.submit(spark_submission());
    let failed = p.run_until(|n| matches!(n, AppNotice::AppFailed { .. }), 400_000);
    let AppNotice::AppFailed { app: napp } = failed else {
        unreachable!()
    };
    assert_eq!(napp, app);
    // The FINAL_SAVING → FAILED hop rides a scheduled store-write event.
    p.run_past(p.now + Millis(5_000));
    let counts = p.cluster.fault_counts();
    assert_eq!(counts.apps_failed, 1);
    assert_eq!(counts.am_retries, 1);
    assert!(counts.localization_failures >= 2);
    let rm = messages_about(&p.logs, LogSource::ResourceManager, &app.to_string());
    assert!(rm
        .iter()
        .any(|m| m.contains("from ACCEPTED to FINAL_SAVING on event = ATTEMPT_FAILED")));
    assert!(rm.iter().any(|m| m.contains("from FINAL_SAVING to FAILED")));
    // NM-side evidence of the localizer failures.
    let mut localizer_lines = 0;
    for node in 0..p.cluster.node_count() {
        localizer_lines += messages_about(
            &p.logs,
            LogSource::NodeManager(NodeId(node as u32)),
            "Localizer failed",
        )
        .len();
    }
    assert!(localizer_lines >= 2);
}

#[test]
fn node_loss_deactivates_node_and_kills_its_containers() {
    // Single node, scripted to die at t=60s while the app runs: the RM
    // logs the LOST transition, the NM log truncates, and the node's
    // containers are reclaimed.
    let cfg = ClusterConfig {
        nodes: 1,
        faults: FaultConfig {
            node_loss: vec![(Millis(60_000), 0)],
            ..FaultConfig::default()
        },
        ..ClusterConfig::default()
    };
    let mut p = Pump::new(cfg);
    let app = p.submit(spark_submission());
    p.run_until(|n| matches!(n, AppNotice::ProcessStarted { .. }), 400_000);
    p.with_cluster(|c, now, out| c.am_register(now, app, out));
    p.run_past(Millis(90_000));
    let counts = p.cluster.fault_counts();
    assert_eq!(counts.nodes_lost, 1);
    assert!(counts.killed_by_node_loss >= 1);
    let deactivated = messages_about(&p.logs, LogSource::ResourceManager, "as it is now LOST");
    assert_eq!(deactivated.len(), 1);
    // The NM's log simply stops: nothing at or after the loss instant.
    let last_nm_ts = p
        .logs
        .records(LogSource::NodeManager(NodeId(0)))
        .iter()
        .map(|r| r.ts)
        .max()
        .unwrap();
    assert!(last_nm_ts.0 <= 60_000, "NM logged after loss: {last_nm_ts}");
}

#[test]
fn disabled_faults_leave_logs_byte_identical() {
    // An explicitly default fault config must not perturb the simulation
    // in any way: the logs of two runs (one constructed with the field
    // untouched, one with FaultConfig::default() spelled out) match.
    fn run_logs(cfg: ClusterConfig) -> Vec<String> {
        let mut p = Pump::new(cfg);
        let app = p.submit(spark_submission());
        p.run_until(|n| matches!(n, AppNotice::ProcessStarted { .. }), 400_000);
        p.with_cluster(|c, now, out| c.am_register(now, app, out));
        p.with_cluster(|c, now, out| {
            c.request_containers(now, app, 4, ResourceReq::SPARK_EXECUTOR, out)
        });
        p.run_past(p.now + Millis(10_000));
        let mut lines = Vec::new();
        for r in p.logs.records(LogSource::ResourceManager).iter() {
            lines.push(format!("{} {}", r.ts, r.message));
        }
        lines
    }
    let a = run_logs(ClusterConfig::default());
    let b = run_logs(ClusterConfig {
        faults: FaultConfig::default(),
        ..ClusterConfig::default()
    });
    assert_eq!(a, b);
}

#[test]
fn live_container_accounting_balances_on_all_paths() {
    // Allocated (AM + executors + released extras + opportunistic) must
    // all return to zero after the application finishes — the invariant
    // behind fair-share ordering.
    for opportunistic in [false, true] {
        let cfg = if opportunistic {
            ClusterConfig::default().with_opportunistic()
        } else {
            ClusterConfig::default()
        };
        let mut p = Pump::new(cfg);
        let app = p.submit(spark_submission());
        p.run_until(|n| matches!(n, AppNotice::ProcessStarted { .. }), 200_000);
        p.with_cluster(|c, now, out| c.am_register(now, app, out));
        p.with_cluster(|c, now, out| {
            c.request_containers(now, app, 4, ResourceReq::SPARK_EXECUTOR, out)
        });
        let mut granted: Vec<ContainerId> = Vec::new();
        while granted.len() < 4 {
            let AppNotice::ContainersGranted { containers, .. } = p.run_until(
                |n| matches!(n, AppNotice::ContainersGranted { .. }),
                400_000,
            ) else {
                unreachable!()
            };
            granted.extend(containers.iter().map(|(c, _)| *c));
        }
        // Launch two, release two (the over-allocation path), then finish.
        for cid in granted.iter().take(2) {
            let cid = *cid;
            p.with_cluster(|c, now, out| c.launch_container(now, cid, executor_launch(), out));
        }
        let extras: Vec<ContainerId> = granted.iter().skip(2).copied().collect();
        p.with_cluster(|c, now, out| c.release_containers(now, &extras, out));
        assert!(
            p.cluster.live_containers(app) >= 3,
            "AM + 2 launched must still be live (opportunistic={opportunistic})"
        );
        p.with_cluster(|c, now, out| c.finish_application(now, app, out));
        p.run_past(p.now + Millis(5_000));
        assert_eq!(
            p.cluster.live_containers(app),
            0,
            "accounting must balance after teardown (opportunistic={opportunistic})"
        );
    }
}

/// The RM state of each container of `app` the RM log names, from its
/// last `Container Transitioned` line.
fn rm_container_states(logs: &LogStore, app: ApplicationId) -> BTreeMap<ContainerId, String> {
    let mut states = BTreeMap::new();
    for r in logs.records(LogSource::ResourceManager).iter() {
        let Some((cid, hop)) = r.message.split_once(" Container Transitioned from ") else {
            continue;
        };
        let cid: ContainerId = cid.parse().unwrap();
        if cid.app() == app {
            let (_, to) = hop.rsplit_once(" to ").unwrap();
            states.insert(cid, to.to_string());
        }
    }
    states
}

/// Ask for `count` executors for `app`, collect the grants, launch the
/// first `start` of them and wait until those processes are up.
fn grant_and_start(p: &mut Pump, app: ApplicationId, count: u32, start: usize) {
    p.with_cluster(|c, now, out| {
        c.request_containers(now, app, count, ResourceReq::SPARK_EXECUTOR, out)
    });
    let mut granted: Vec<ContainerId> = Vec::new();
    while granted.len() < count as usize {
        let AppNotice::ContainersGranted { containers, .. } = p.run_until(
            |n| matches!(n, AppNotice::ContainersGranted { app: x, .. } if *x == app),
            400_000,
        ) else {
            unreachable!()
        };
        granted.extend(containers.iter().map(|(c, _)| *c));
    }
    for &cid in &granted[..start] {
        p.with_cluster(|c, now, out| c.launch_container(now, cid, executor_launch(), out));
    }
    for &cid in &granted[..start] {
        p.run_until(
            |n| matches!(n, AppNotice::ProcessStarted { container, .. } if *container == cid),
            400_000,
        );
    }
}

#[test]
fn teardown_reaches_every_attempt_of_its_app_and_no_other_app() {
    // Applications 1, 2 and 3 side by side. App 2's first AM is scripted
    // to fail at launch, and a 60 GB download keeps it localizing for a
    // minute, long enough for the attempt's executors to be up when it
    // fails. Tear-down looks containers up by key range: this pins the
    // range to exactly one application, all of its attempts.
    let cfg = ClusterConfig {
        faults: FaultConfig {
            scripted_am_failures: vec![(2, 1)],
            ..FaultConfig::default()
        },
        ..ClusterConfig::default()
    };
    let mut p = Pump::new(cfg);
    let mut slow = spark_submission();
    slow.am_launch
        .localization
        .push(LocalResource::new("slow.jar", 60_000.0));
    let a1 = p.submit(spark_submission());
    let a2 = p.submit(slow);
    let a3 = p.submit(spark_submission());
    assert_eq!([a1.seq, a2.seq, a3.seq], [1, 2, 3]);
    for app in [a1, a3] {
        p.run_until(
            |n| matches!(n, AppNotice::ProcessStarted { app: x, .. } if *x == app),
            400_000,
        );
    }
    for app in [a1, a2, a3] {
        p.with_cluster(|c, now, out| c.am_register(now, app, out));
        grant_and_start(&mut p, app, 4, 4);
    }
    let neighbours = |p: &Pump| [a1, a3].map(|a| rm_container_states(&p.logs, a));
    let before = neighbours(&p);
    for states in &before {
        assert_eq!(states.len(), 5, "{states:?}");
        assert!(states.values().all(|s| s == "RUNNING"), "{states:?}");
    }
    let attempt1 = rm_container_states(&p.logs, a2);
    assert_eq!(attempt1.len(), 5, "the AM and four executors: {attempt1:?}");
    assert!(attempt1.values().all(|s| s != "KILLED"), "{attempt1:?}");

    // The AM attempt fails: every container of attempt 1 dies with it.
    p.run_until(
        |n| matches!(n, AppNotice::AttemptRetry { app, .. } if *app == a2),
        400_000,
    );
    let after_retry = rm_container_states(&p.logs, a2);
    assert_eq!(after_retry.len(), 5);
    assert!(
        after_retry.values().all(|s| s == "KILLED"),
        "{after_retry:?}"
    );
    assert_eq!(neighbours(&p), before, "an AM failure reached another app");

    // Attempt 2 comes up with two running executors and two granted but
    // never launched; finishing the app tears all of them down.
    let am2 = a2.attempt(2).container(1);
    p.run_until(
        |n| matches!(n, AppNotice::ProcessStarted { container, .. } if *container == am2),
        400_000,
    );
    p.with_cluster(|c, now, out| c.am_register(now, a2, out));
    grant_and_start(&mut p, a2, 4, 2);
    let live = rm_container_states(&p.logs, a2);
    assert_eq!(live.len(), 10, "{live:?}");
    assert_eq!(
        live.values().filter(|s| *s == "RUNNING").count(),
        3,
        "{live:?}"
    );
    p.with_cluster(|c, now, out| c.finish_application(now, a2, out));
    let torn_down = rm_container_states(&p.logs, a2);
    assert_eq!(torn_down.len(), 10);
    for (cid, state) in &torn_down {
        let want = if cid.attempt.attempt == 1 {
            "KILLED"
        } else {
            "COMPLETED"
        };
        assert_eq!(state, want, "{cid}");
    }
    assert_eq!(neighbours(&p), before, "finishing an app reached another");
}
