//! The cluster: ResourceManager + NodeManagers + schedulers, wired to the
//! effect buffer.
//!
//! This is a faithful protocol-level model of two-level scheduling
//! (paper §II-A):
//!
//! 1. a client submits an application; the RM persists it
//!    (NEW → NEW_SAVING → SUBMITTED), admits it (→ ACCEPTED), and
//!    schedules the AM container;
//! 2. the Capacity Scheduler's asynchronous scheduling threads (Hadoop
//!    3.0 global scheduling) drain the request backlog onto the
//!    least-loaded fitting nodes; allocated containers wait to be
//!    *acquired* by the AM's next heartbeat;
//! 3. the AM launches containers via startContainer RPCs; the NM
//!    localizes resources (per-application cache), hands off to the
//!    launcher, and the process start (JVM) burns CPU on the node's
//!    shared pool;
//! 4. alternatively the distributed opportunistic scheduler places
//!    containers in milliseconds at random nodes, queueing NM-side when
//!    the node is full.
//!
//! Every state transition is logged in the exact shapes of Table I of the
//! paper, which is what makes the SDchecker pipeline downstream work on
//! *text*, not simulator internals.

use std::collections::{BTreeMap, VecDeque};

use logmodel::{ApplicationId, ContainerId, LogSource, NodeId};
use simkit::{Dist, Millis, Sample, SimRng};

use crate::config::{
    ClusterConfig, ContainerRuntime, OppPlacement, QueuePolicy, ResourceReq, SchedulerKind,
};
use crate::effects::{
    AppNotice, AppSubmission, ClusterEvent, FailureKind, LaunchSpec, Out, Ticket,
};
use crate::faults::{FaultCounts, FaultPlan};
use crate::node::Node;
use crate::schema;
use crate::state::{NmContainerState, RmAppState, RmContainerState, Tracked};

/// A queued (not yet allocated) container request under the Capacity
/// Scheduler.
#[derive(Debug)]
struct PendingReq {
    app: ApplicationId,
    remaining: u32,
    req: ResourceReq,
    is_am: bool,
}

/// RM-side application record.
#[derive(Debug)]
struct RmApp {
    state: Tracked<RmAppState>,
    submission: AppSubmission,
    am_container: Option<ContainerId>,
    /// Current AM attempt (1-based; bumps on YARN-style AM retry).
    attempt: u32,
    /// Terminally failed (attempts exhausted): the final state-store write
    /// lands on FAILED instead of FINISHED.
    failed: bool,
    /// Container asks waiting for the next AM heartbeat to reach the RM
    /// (the allocate() protocol: asks ride heartbeats).
    pending_asks: Vec<(u32, ResourceReq)>,
    /// Allocated, waiting for the next AM heartbeat to be acquired.
    newly_allocated: Vec<(ContainerId, NodeId)>,
    next_container_seq: u64,
    /// Heartbeats run / containers are granted only while alive.
    alive: bool,
    /// Whether AM heartbeats have been started (post-registration).
    heartbeating: bool,
    /// Containers currently allocated (for fair-share ordering).
    live_containers: u32,
}

/// Everything the cluster knows about one container.
#[derive(Debug)]
struct ContainerInfo {
    id: ContainerId,
    app: ApplicationId,
    node: NodeId,
    req: ResourceReq,
    rm_state: Tracked<RmContainerState>,
    nm_state: Option<Tracked<NmContainerState>>,
    spec: Option<LaunchSpec>,
    /// Localization resources still outstanding.
    pending_local: usize,
    opportunistic: bool,
    /// Node resources currently reserved by this container.
    reserved: bool,
}

/// What a completed CPU/IO flow means.
#[derive(Debug, Clone)]
enum FlowPurpose {
    /// Application-submitted work.
    AppWork { app: ApplicationId, ticket: Ticket },
    /// NameNode lookup / client setup preceding a localization download.
    LocalizeMeta { cid: ContainerId, res_idx: usize },
    /// The localization download itself.
    LocalizeIo { cid: ContainerId, res_idx: usize },
    /// Docker image read at container start.
    DockerIo { cid: ContainerId },
    /// Docker runtime setup CPU.
    DockerCpu { cid: ContainerId },
    /// Classloading reads during process start.
    LaunchIo { cid: ContainerId },
    /// Launch script + JVM start.
    LaunchCpu { cid: ContainerId },
}

/// The simulated cluster.
pub struct Cluster {
    /// Configuration (public for read access by embedders).
    pub cfg: ClusterConfig,
    cluster_ts: u64,
    nodes: Vec<Node>,
    apps: BTreeMap<ApplicationId, RmApp>,
    containers: BTreeMap<ContainerId, ContainerInfo>,
    backlog: VecDeque<PendingReq>,
    cpu_flows: BTreeMap<(u32, u64), FlowPurpose>,
    io_flows: BTreeMap<(u32, u64), FlowPurpose>,
    store_flows: BTreeMap<(u32, u64), FlowPurpose>,
    next_app_seq: u32,
    next_ticket: u64,
    rng_sched: SimRng,
    rng_lat: SimRng,
    faults: FaultPlan,
    fault_counts: FaultCounts,
}

impl Cluster {
    /// Build a cluster. `cluster_ts` seeds application IDs (use the run
    /// epoch's unix-ms); `seed` drives scheduler/latency randomness.
    pub fn new(cfg: ClusterConfig, cluster_ts: u64, seed: u64) -> Cluster {
        let root = SimRng::new(seed);
        let faults = FaultPlan::new(cfg.faults.clone(), &root);
        let nodes = (0..cfg.nodes).map(|i| Node::new(NodeId(i), &cfg)).collect();
        Cluster {
            cfg,
            cluster_ts,
            nodes,
            apps: BTreeMap::new(),
            containers: BTreeMap::new(),
            backlog: VecDeque::new(),
            cpu_flows: BTreeMap::new(),
            io_flows: BTreeMap::new(),
            store_flows: BTreeMap::new(),
            next_app_seq: 0,
            next_ticket: 0,
            rng_sched: root.fork_named("scheduler"),
            rng_lat: root.fork_named("latency"),
            faults,
            fault_counts: FaultCounts::default(),
        }
    }

    /// Schedule the first NodeManager heartbeats, staggered across the
    /// interval (real NMs start at different times, which is what
    /// decorrelates allocation times from any AM's heartbeat phase).
    pub fn start(&mut self, out: &mut Out) {
        let interval = self.cfg.nm_heartbeat_ms;
        let n = self.nodes.len() as u64;
        for (i, node) in self.nodes.iter().enumerate() {
            let offset = interval * i as u64 / n.max(1);
            out.at(Millis(offset), ClusterEvent::NmHeartbeat(node.id));
        }
        for &(at, idx) in self.faults.node_loss() {
            if (idx as usize) < self.nodes.len() {
                out.at(at, ClusterEvent::NodeLost(NodeId(idx)));
            }
        }
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Worker count.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Cluster-wide vcore utilization in `[0, 1]`.
    #[cfg(test)]
    pub(crate) fn vcore_utilization(&self) -> f64 {
        let used: u32 = self.nodes.iter().map(|n| n.used_vcores()).sum();
        let total: u32 = self.nodes.iter().map(|n| n.total_vcores()).sum();
        used as f64 / total as f64
    }

    /// Pending (unallocated) container requests in the central backlog.
    pub fn backlog_len(&self) -> u32 {
        self.backlog.iter().map(|p| p.remaining).sum()
    }

    /// Containers currently held by an application (allocated and not yet
    /// completed) — the fair-share ordering signal.
    #[cfg(test)]
    pub(crate) fn live_containers(&self, app: ApplicationId) -> u32 {
        self.apps.get(&app).map(|a| a.live_containers).unwrap_or(0)
    }

    fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.0 as usize]
    }

    /// Every container `app` was ever granted, all attempts, in id order.
    /// `ContainerId` sorts as (app, attempt, seq), so they are one key
    /// range of `containers`, found without visiting anyone else's.
    fn containers_of(&self, app: ApplicationId) -> impl Iterator<Item = &ContainerInfo> {
        let all = app.attempt(0).container(0)..=app.attempt(u32::MAX).container(u64::MAX);
        self.containers.range(all).map(|(_, c)| c)
    }

    fn sample(&mut self, d: &Dist) -> Millis {
        d.sample_ms(&mut self.rng_lat)
    }

    // ------------------------------------------------------------------
    // Client / AM API
    // ------------------------------------------------------------------

    /// Submit an application. Returns its id; the AM container is
    /// scheduled automatically once the app is ACCEPTED.
    pub fn submit_application(
        &mut self,
        now: Millis,
        submission: AppSubmission,
        out: &mut Out,
    ) -> ApplicationId {
        self.next_app_seq += 1;
        let id = ApplicationId::new(self.cluster_ts, self.next_app_seq);
        let mut state = Tracked::new(RmAppState::New);
        state.transition(id, RmAppState::NewSaving, "START", now, out);
        let save = self.sample(&self.cfg.rm_state_store_ms.clone());
        self.apps.insert(
            id,
            RmApp {
                state,
                submission,
                am_container: None,
                attempt: 1,
                failed: false,
                pending_asks: Vec::new(),
                newly_allocated: Vec::new(),
                next_container_seq: 1,
                alive: true,
                heartbeating: false,
                live_containers: 0,
            },
        );
        out.at(now + save, ClusterEvent::RmAppSaved(id));
        id
    }

    /// The AM registered with the RM (event `ATTEMPT_REGISTERED`,
    /// log message 3). Starts AM heartbeats at a random phase — the
    /// AMRMClient heartbeat thread starts asynchronously, which is what
    /// gives acquisition delays their uniform-in-[0, interval] spread
    /// (paper Fig 7-(c): "very high variances").
    pub fn am_register(&mut self, now: Millis, app: ApplicationId, out: &mut Out) {
        let interval = {
            let a = self.apps.get_mut(&app).expect("unknown app");
            a.state
                .transition(app, RmAppState::Running, "ATTEMPT_REGISTERED", now, out);
            a.heartbeating = true;
            a.submission.am_heartbeat_ms
        };
        let phase = self.rng_sched.range(1, interval.max(2));
        out.at(now + Millis(phase), ClusterEvent::AmHeartbeat(app));
    }

    /// The AM requests `count` additional containers of shape `req`.
    pub fn request_containers(
        &mut self,
        now: Millis,
        app: ApplicationId,
        count: u32,
        req: ResourceReq,
        out: &mut Out,
    ) {
        if count == 0 {
            return;
        }
        match self.cfg.scheduler {
            SchedulerKind::Capacity => {
                // The ask reaches the RM on the AM's next allocate()
                // heartbeat; grants are picked up on the one after. This
                // two-heartbeat round trip is what makes centralized
                // allocation ~seconds while the distributed scheduler's
                // local decisions take milliseconds (Fig 7-(a)).
                let a = self.apps.get_mut(&app).expect("unknown app");
                a.pending_asks.push((count, req));
            }
            SchedulerKind::Opportunistic => {
                let d = self.sample(&self.cfg.opportunistic_decision_ms.clone());
                out.at(now + d, ClusterEvent::OppAllocate { app, count, req });
            }
        }
    }

    /// Cancel up to `count` not-yet-allocated requests of `app`. Returns
    /// how many were actually cancelled.
    pub(crate) fn cancel_pending(&mut self, app: ApplicationId, mut count: u32) -> u32 {
        let mut cancelled = 0;
        if let Some(a) = self.apps.get_mut(&app) {
            let mut asks = std::mem::take(&mut a.pending_asks);
            for (c, req) in asks.iter_mut() {
                let take = (*c).min(count);
                *c -= take;
                count -= take;
                cancelled += take;
                let _ = req;
                if count == 0 {
                    break;
                }
            }
            a.pending_asks = asks.into_iter().filter(|(c, _)| *c > 0).collect();
        }
        for p in self.backlog.iter_mut() {
            if p.app != app || p.is_am {
                continue;
            }
            let take = p.remaining.min(count);
            p.remaining -= take;
            count -= take;
            cancelled += take;
            if count == 0 {
                break;
            }
        }
        self.backlog.retain(|p| p.remaining > 0);
        cancelled
    }

    /// Release acquired-but-unlaunched containers (the SPARK-21562 path:
    /// Spark over-requested, got the grants, never used them).
    pub fn release_containers(&mut self, now: Millis, cids: &[ContainerId], out: &mut Out) {
        for cid in cids {
            let Some(c) = self.containers.get_mut(cid) else {
                continue;
            };
            if c.nm_state.is_some() || c.rm_state.get().is_terminal() {
                continue; // already launching (or already dead)
            }
            c.rm_state
                .transition(*cid, RmContainerState::Completed, now, out);
            let app = c.app;
            if c.reserved {
                let (node, req) = (c.node, c.req);
                self.node_mut(node).release(req);
                self.containers.get_mut(cid).unwrap().reserved = false;
            }
            if let Some(a) = self.apps.get_mut(&app) {
                a.live_containers = a.live_containers.saturating_sub(1);
            }
        }
    }

    /// Launch a granted container with the given spec (startContainer RPC).
    pub fn launch_container(
        &mut self,
        now: Millis,
        cid: ContainerId,
        spec: LaunchSpec,
        out: &mut Out,
    ) {
        let c = self.containers.get_mut(&cid).expect("unknown container");
        assert!(c.spec.is_none(), "container launched twice");
        c.spec = Some(spec);
        let d = self.sample(&self.cfg.rpc_ms.clone());
        out.at(now + d, ClusterEvent::NmStartContainer(cid));
    }

    /// Submit CPU work (`cpu_ms` of compute at `threads` parallelism) to a
    /// node's shared pool on behalf of `app`.
    pub fn spawn_cpu(
        &mut self,
        now: Millis,
        node: NodeId,
        app: ApplicationId,
        cpu_ms: f64,
        threads: f64,
        out: &mut Out,
    ) -> Ticket {
        self.next_ticket += 1;
        let ticket = Ticket(self.next_ticket);
        let flow = self
            .node_mut(node)
            .cpu
            .add_flow(now, cpu_ms, threads, threads);
        self.cpu_flows
            .insert((node.0, flow.0), FlowPurpose::AppWork { app, ticket });
        self.resched_cpu(node, now, out);
        ticket
    }

    /// Submit an IO transfer of `mb` megabytes on a node's channel on
    /// behalf of `app`.
    pub fn spawn_io(
        &mut self,
        now: Millis,
        node: NodeId,
        app: ApplicationId,
        mb: f64,
        out: &mut Out,
    ) -> Ticket {
        self.next_ticket += 1;
        let ticket = Ticket(self.next_ticket);
        let cap = self.cfg.io_single_flow_mb_per_ms;
        let flow = self.node_mut(node).io.add_flow(now, mb, 1.0, cap);
        self.io_flows
            .insert((node.0, flow.0), FlowPurpose::AppWork { app, ticket });
        self.resched_io(node, now, out);
        ticket
    }

    /// A container's process exited normally.
    pub fn finish_container(&mut self, now: Millis, cid: ContainerId, out: &mut Out) {
        let (node, req, reserved, app) = {
            let c = self.containers.get_mut(&cid).expect("unknown container");
            if let Some(nm) = c.nm_state.as_mut() {
                if nm.get() == NmContainerState::Running {
                    nm.transition(cid, c.node, NmContainerState::Done, now, out);
                }
            }
            if c.rm_state.get() == RmContainerState::Running {
                c.rm_state
                    .transition(cid, RmContainerState::Completed, now, out);
            }
            let r = (c.node, c.req, c.reserved, c.app);
            c.reserved = false;
            r
        };
        if reserved {
            self.node_mut(node).release(req);
        }
        if let Some(a) = self.apps.get_mut(&app) {
            a.live_containers = a.live_containers.saturating_sub(1);
        }
        self.drain_opp_queue(now, node, out);
    }

    /// The AM unregistered: finish the application. Live containers are
    /// torn down; pending requests cancelled.
    pub fn finish_application(&mut self, now: Millis, app: ApplicationId, out: &mut Out) {
        self.cancel_pending(app, u32::MAX);
        // Tear down any containers still holding resources.
        let cids: Vec<ContainerId> = self
            .containers_of(app)
            .filter(|c| c.rm_state.get() != RmContainerState::Completed)
            .map(|c| c.id)
            .collect();
        for cid in cids {
            let state = self.containers[&cid].rm_state.get();
            match state {
                RmContainerState::Running => self.finish_container(now, cid, out),
                RmContainerState::Allocated | RmContainerState::Acquired => {
                    let (node, req, reserved) = {
                        let c = self.containers.get_mut(&cid).unwrap();
                        c.rm_state
                            .transition(cid, RmContainerState::Completed, now, out);
                        let r = (c.node, c.req, c.reserved);
                        c.reserved = false;
                        r
                    };
                    if reserved {
                        self.node_mut(node).release(req);
                        self.drain_opp_queue(now, node, out);
                    }
                    if let Some(a) = self.apps.get_mut(&app) {
                        a.live_containers = a.live_containers.saturating_sub(1);
                    }
                }
                _ => {}
            }
        }
        let a = self.apps.get_mut(&app).expect("unknown app");
        a.alive = false;
        a.newly_allocated.clear();
        if a.state.get() == RmAppState::Running {
            a.state.transition(
                app,
                RmAppState::FinalSaving,
                "ATTEMPT_UNREGISTERED",
                now,
                out,
            );
            let d = self.sample(&self.cfg.rm_state_store_ms.clone());
            out.at(now + d, ClusterEvent::RmAppFinalSaved(app));
        }
        for n in &mut self.nodes {
            n.forget_app(app);
        }
    }

    // ------------------------------------------------------------------
    // Fault handling
    // ------------------------------------------------------------------

    /// Totals of injected faults so far (for metrics and sweeps).
    pub fn fault_counts(&self) -> FaultCounts {
        self.fault_counts
    }

    fn container_dead(&self, cid: ContainerId) -> bool {
        self.containers
            .get(&cid)
            .map(|c| c.rm_state.get().is_terminal())
            .unwrap_or(true)
    }

    /// A container died abnormally: NM-side failure transitions (unless
    /// the node itself is gone — a lost node's log simply truncates),
    /// RM-side KILLED, resource release, and routing — an AM container
    /// failure becomes an attempt failure, a worker failure a
    /// [`AppNotice::ProcessFailed`] the application layer can react to.
    fn fail_container(&mut self, now: Millis, cid: ContainerId, kind: FailureKind, out: &mut Out) {
        match kind {
            FailureKind::Localization => self.fault_counts.localization_failures += 1,
            FailureKind::Launch => self.fault_counts.launch_failures += 1,
            FailureKind::NodeLost => self.fault_counts.killed_by_node_loss += 1,
        }
        obs::count_labeled("sim_faults_total", &[("kind", kind.label())], 1);
        let (app, node, req, reserved) = {
            let c = self.containers.get_mut(&cid).expect("unknown container");
            if kind != FailureKind::NodeLost {
                if let Some(nm) = c.nm_state.as_mut() {
                    match nm.get() {
                        NmContainerState::Localizing => {
                            nm.transition(
                                cid,
                                c.node,
                                NmContainerState::LocalizationFailed,
                                now,
                                out,
                            );
                            nm.transition(cid, c.node, NmContainerState::Done, now, out);
                        }
                        NmContainerState::Running => {
                            nm.transition(
                                cid,
                                c.node,
                                NmContainerState::ExitedWithFailure,
                                now,
                                out,
                            );
                            nm.transition(cid, c.node, NmContainerState::Done, now, out);
                        }
                        _ => {}
                    }
                }
            }
            if !c.rm_state.get().is_terminal() {
                c.rm_state
                    .transition(cid, RmContainerState::Killed, now, out);
            }
            let r = (c.app, c.node, c.req, c.reserved);
            c.reserved = false;
            r
        };
        if reserved && self.nodes[node.0 as usize].alive {
            self.node_mut(node).release(req);
        }
        if let Some(a) = self.apps.get_mut(&app) {
            a.live_containers = a.live_containers.saturating_sub(1);
        }
        self.drain_opp_queue(now, node, out);
        let is_am = self
            .apps
            .get(&app)
            .map(|a| a.am_container == Some(cid))
            .unwrap_or(false);
        if is_am {
            self.fail_am_attempt(now, app, out);
        } else {
            out.notify(AppNotice::ProcessFailed {
                app,
                container: cid,
                node,
                kind,
            });
        }
    }

    /// Kill a container as collateral of an attempt failure: terminal
    /// transitions and resource release, no notice (the application layer
    /// learns about the whole attempt via [`AppNotice::AttemptRetry`]).
    fn kill_container(&mut self, now: Millis, cid: ContainerId, out: &mut Out) {
        let (node, req, reserved) = {
            let Some(c) = self.containers.get_mut(&cid) else {
                return;
            };
            if c.rm_state.get().is_terminal() {
                return;
            }
            if let Some(nm) = c.nm_state.as_mut() {
                if nm.get() == NmContainerState::Running && self.nodes[c.node.0 as usize].alive {
                    nm.transition(cid, c.node, NmContainerState::Done, now, out);
                }
            }
            c.rm_state
                .transition(cid, RmContainerState::Killed, now, out);
            let r = (c.node, c.req, c.reserved);
            c.reserved = false;
            r
        };
        if reserved && self.nodes[node.0 as usize].alive {
            self.node_mut(node).release(req);
        }
        self.drain_opp_queue(now, node, out);
    }

    /// YARN-style AM failure handling: tear down the attempt's containers,
    /// then either start attempt N+1 (re-running the AM scheduling/launch
    /// protocol) or — attempts exhausted — drive the application to
    /// terminal FAILED.
    fn fail_am_attempt(&mut self, now: Millis, app: ApplicationId, out: &mut Out) {
        self.cancel_pending(app, u32::MAX);
        let victims: Vec<ContainerId> = self
            .containers_of(app)
            .filter(|c| !c.rm_state.get().is_terminal())
            .map(|c| c.id)
            .collect();
        for v in victims {
            self.kill_container(now, v, out);
        }
        let max = self.faults.max_am_attempts();
        let (attempt, am_req) = {
            let a = self.apps.get_mut(&app).expect("unknown app");
            a.heartbeating = false;
            a.am_container = None;
            a.newly_allocated.clear();
            a.pending_asks.clear();
            (a.attempt, a.submission.am_resource)
        };
        out.log(
            now,
            LogSource::ResourceManager,
            &schema::RM_ATTEMPT_FAILED,
            &[&app.attempt(attempt)],
        );
        if attempt < max {
            let a = self.apps.get_mut(&app).expect("unknown app");
            if a.state.get() == RmAppState::Running {
                // Registered AMs fall back to ACCEPTED while the next
                // attempt launches; unregistered ones never left it.
                a.state
                    .transition(app, RmAppState::Accepted, "ATTEMPT_FAILED", now, out);
            }
            a.attempt = attempt + 1;
            a.next_container_seq = 1;
            self.fault_counts.am_retries += 1;
            obs::count_labeled("sim_faults_total", &[("kind", "am_retry")], 1);
            self.backlog.push_back(PendingReq {
                app,
                remaining: 1,
                req: am_req,
                is_am: true,
            });
            out.notify(AppNotice::AttemptRetry {
                app,
                new_attempt: attempt + 1,
            });
        } else {
            let a = self.apps.get_mut(&app).expect("unknown app");
            a.alive = false;
            a.failed = true;
            a.state
                .transition(app, RmAppState::FinalSaving, "ATTEMPT_FAILED", now, out);
            self.fault_counts.apps_failed += 1;
            obs::count_labeled("sim_faults_total", &[("kind", "app_failed")], 1);
            let d = self.sample(&self.cfg.rm_state_store_ms.clone());
            out.at(now + d, ClusterEvent::RmAppFinalSaved(app));
            out.notify(AppNotice::AppFailed { app });
            for n in &mut self.nodes {
                n.forget_app(app);
            }
        }
    }

    /// Scripted node loss: the NM stops heartbeating (its log truncates),
    /// the RM expires it and kills every container it hosted.
    fn on_node_lost(&mut self, now: Millis, node: NodeId, out: &mut Out) {
        if !self.nodes[node.0 as usize].alive {
            return;
        }
        self.nodes[node.0 as usize].alive = false;
        self.fault_counts.nodes_lost += 1;
        obs::count_labeled("sim_faults_total", &[("kind", "node_lost")], 1);
        out.log(
            now,
            LogSource::ResourceManager,
            &schema::RM_NODE_LOST,
            &[&node],
        );
        let victims: Vec<ContainerId> = self
            .containers
            .values()
            .filter(|c| c.node == node && !c.rm_state.get().is_terminal())
            .map(|c| c.id)
            .collect();
        for cid in victims {
            if self.container_dead(cid) {
                continue; // killed transitively by an earlier AM failure
            }
            self.fail_container(now, cid, FailureKind::NodeLost, out);
        }
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    /// Dispatch a cluster event.
    ///
    /// A resource tick whose generation is stale returns at once: the
    /// mutation that outdated it already armed the live tick, so it has
    /// nothing to collect and nothing to re-arm (`simkit::ps`).
    pub fn handle(&mut self, now: Millis, ev: ClusterEvent, out: &mut Out) {
        match ev {
            ClusterEvent::NmHeartbeat(node) => self.on_nm_heartbeat(now, node, out),
            ClusterEvent::AmHeartbeat(app) => self.on_am_heartbeat(now, app, out),
            ClusterEvent::CpuTick(node, gen) => {
                let Some(done) = self.node_mut(node).cpu.on_tick(now, gen) else {
                    return;
                };
                for flow in done {
                    if let Some(p) = self.cpu_flows.remove(&(node.0, flow.0)) {
                        self.on_flow_done(now, node, p, out);
                    }
                }
                self.resched_cpu(node, now, out);
            }
            ClusterEvent::IoTick(node, gen) => {
                let Some(done) = self.node_mut(node).io.on_tick(now, gen) else {
                    return;
                };
                for flow in done {
                    if let Some(p) = self.io_flows.remove(&(node.0, flow.0)) {
                        self.on_flow_done(now, node, p, out);
                    }
                }
                self.resched_io(node, now, out);
            }
            ClusterEvent::StoreTick(node, gen) => {
                let store = self.node_mut(node).local_store.as_mut();
                let Some(done) = store.and_then(|s| s.on_tick(now, gen)) else {
                    return;
                };
                for flow in done {
                    if let Some(p) = self.store_flows.remove(&(node.0, flow.0)) {
                        self.on_flow_done(now, node, p, out);
                    }
                }
                self.resched_store(node, now, out);
            }
            ClusterEvent::RmAppSaved(app) => {
                let a = self.apps.get_mut(&app).expect("unknown app");
                a.state
                    .transition(app, RmAppState::Submitted, "APP_NEW_SAVED", now, out);
                let d = self.sample(&self.cfg.rm_accept_ms.clone());
                out.at(now + d, ClusterEvent::RmAppAccepted(app));
            }
            ClusterEvent::RmAppAccepted(app) => {
                let am_req = {
                    let a = self.apps.get_mut(&app).expect("unknown app");
                    a.state
                        .transition(app, RmAppState::Accepted, "APP_ACCEPTED", now, out);
                    a.submission.am_resource
                };
                // The AM container always goes through the central
                // scheduler, even in opportunistic mode (hybrid design).
                self.backlog.push_back(PendingReq {
                    app,
                    remaining: 1,
                    req: am_req,
                    is_am: true,
                });
            }
            ClusterEvent::OppAllocate { app, count, req } => {
                self.on_opp_allocate(now, app, count, req, out)
            }
            ClusterEvent::NmStartContainer(cid) => self.on_nm_start(now, cid, out),
            ClusterEvent::NmHandoff(cid) => self.on_nm_handoff(now, cid, out),
            ClusterEvent::RmAppFinalSaved(app) => {
                let a = self.apps.get_mut(&app).expect("unknown app");
                if a.failed {
                    a.state
                        .transition(app, RmAppState::Failed, "APP_UPDATE_SAVED", now, out);
                } else {
                    a.state
                        .transition(app, RmAppState::Finishing, "APP_UPDATE_SAVED", now, out);
                    a.state
                        .transition(app, RmAppState::Finished, "ATTEMPT_FINISHED", now, out);
                }
            }
            ClusterEvent::NodeLost(node) => self.on_node_lost(now, node, out),
        }
    }

    /// Capacity-Scheduler assignment on one node heartbeat: round-robin
    /// over backlog entries, granting to the heartbeating node while it
    /// fits, bounded by the per-heartbeat batch cap and the per-request
    /// spread rule (`ceil(remaining / spread_factor)` per heartbeat, so
    /// small requests scatter across nodes the way block locality scatters
    /// them on a real cluster).
    fn on_nm_heartbeat(&mut self, now: Millis, node: NodeId, out: &mut Out) {
        if !self.nodes[node.0 as usize].alive {
            return; // lost node: heartbeats stop, nothing is assigned
        }
        // Fair Scheduler: serve the most starved application first by
        // rotating it to the backlog's front. FIFO leaves arrival order.
        if self.cfg.queue_policy == QueuePolicy::Fair && self.backlog.len() > 1 {
            let mut order: Vec<usize> = (0..self.backlog.len()).collect();
            order.sort_by_key(|&i| {
                let p = &self.backlog[i];
                (self.apps[&p.app].live_containers, i)
            });
            let reordered: Vec<PendingReq> = order
                .into_iter()
                .map(|i| PendingReq {
                    app: self.backlog[i].app,
                    remaining: self.backlog[i].remaining,
                    req: self.backlog[i].req,
                    is_am: self.backlog[i].is_am,
                })
                .collect();
            self.backlog = reordered.into();
        }
        let mut assigned = 0u32;
        let spread = self.cfg.assign_spread_factor.max(1);
        let mut i = 0;
        while i < self.backlog.len() && assigned < self.cfg.assign_per_heartbeat {
            let (app, req, is_am, remaining) = {
                let p = &self.backlog[i];
                (p.app, p.req, p.is_am, p.remaining)
            };
            if !self.apps[&app].alive {
                self.backlog.remove(i);
                continue;
            }
            let quota = remaining.div_ceil(spread);
            let mut granted = 0u32;
            while granted < quota
                && assigned < self.cfg.assign_per_heartbeat
                && self.nodes[node.0 as usize].fits(req)
            {
                self.allocate_container(now, app, node, req, is_am, out);
                granted += 1;
                assigned += 1;
            }
            let p = &mut self.backlog[i];
            p.remaining -= granted;
            if p.remaining == 0 {
                self.backlog.remove(i);
            } else {
                i += 1;
            }
        }
        out.at(
            now + Millis(self.cfg.nm_heartbeat_ms),
            ClusterEvent::NmHeartbeat(node),
        );
    }

    fn on_am_heartbeat(&mut self, now: Millis, app: ApplicationId, out: &mut Out) {
        let Some(a) = self.apps.get_mut(&app) else {
            return;
        };
        if !a.alive || !a.heartbeating {
            return;
        }
        let pulled: Vec<(ContainerId, NodeId)> = std::mem::take(&mut a.newly_allocated);
        let asks: Vec<(u32, ResourceReq)> = std::mem::take(&mut a.pending_asks);
        let interval = a.submission.am_heartbeat_ms;
        for (count, req) in asks {
            self.backlog.push_back(PendingReq {
                app,
                remaining: count,
                req,
                is_am: false,
            });
        }
        for (cid, _) in &pulled {
            let c = self.containers.get_mut(cid).expect("container");
            c.rm_state
                .transition(*cid, RmContainerState::Acquired, now, out);
        }
        if !pulled.is_empty() {
            out.notify(AppNotice::ContainersGranted {
                app,
                containers: pulled,
            });
        }
        out.at(now + Millis(interval), ClusterEvent::AmHeartbeat(app));
    }

    /// Create a container in ALLOCATED state on `node`.
    #[allow(clippy::too_many_arguments)]
    fn allocate_container(
        &mut self,
        now: Millis,
        app: ApplicationId,
        node: NodeId,
        req: ResourceReq,
        is_am: bool,
        out: &mut Out,
    ) -> ContainerId {
        let a = self.apps.get_mut(&app).expect("unknown app");
        let cid = app.attempt(a.attempt).container(a.next_container_seq);
        a.next_container_seq += 1;
        let mut rm_state = Tracked::new(RmContainerState::New);
        rm_state.transition(cid, RmContainerState::Allocated, now, out);
        self.apps.get_mut(&app).expect("app").live_containers += 1;
        self.node_mut(node).reserve(req);
        let mut info = ContainerInfo {
            id: cid,
            app,
            node,
            req,
            rm_state,
            nm_state: None,
            spec: None,
            pending_local: 0,
            opportunistic: false,
            reserved: true,
        };
        if is_am {
            // The RM acquires and launches the AM container itself.
            info.rm_state
                .transition(cid, RmContainerState::Acquired, now, out);
            let spec = self.apps[&app].submission.am_launch.clone();
            info.spec = Some(spec);
            self.containers.insert(cid, info);
            self.apps.get_mut(&app).unwrap().am_container = Some(cid);
            let d = self.sample(&self.cfg.rpc_ms.clone());
            out.at(now + d, ClusterEvent::NmStartContainer(cid));
        } else {
            self.containers.insert(cid, info);
            self.apps
                .get_mut(&app)
                .unwrap()
                .newly_allocated
                .push((cid, node));
        }
        cid
    }

    fn on_opp_allocate(
        &mut self,
        now: Millis,
        app: ApplicationId,
        count: u32,
        req: ResourceReq,
        out: &mut Out,
    ) {
        if !self.apps.get(&app).map(|a| a.alive).unwrap_or(false) {
            return;
        }
        let mut granted = Vec::new();
        for _ in 0..count {
            // Node choice: uniformly random (the paper's measured system,
            // no global view — §IV-C) or Sparrow-style power-of-d probing;
            // optionally skip over-long queues.
            let mut node = self.pick_opportunistic_node();
            if self.cfg.opp_queue_cap != usize::MAX {
                for _ in 0..self.nodes.len() {
                    if self.nodes[node.0 as usize].opp_queue.len() < self.cfg.opp_queue_cap {
                        break;
                    }
                    node = self.pick_opportunistic_node();
                }
            }
            let a = self.apps.get_mut(&app).expect("unknown app");
            let cid = app.attempt(a.attempt).container(a.next_container_seq);
            a.next_container_seq += 1;
            let mut rm_state = Tracked::new(RmContainerState::New);
            rm_state.transition(cid, RmContainerState::Allocated, now, out);
            rm_state.transition(cid, RmContainerState::Acquired, now, out);
            self.apps
                .get_mut(&app)
                .expect("unknown app")
                .live_containers += 1;
            self.containers.insert(
                cid,
                ContainerInfo {
                    id: cid,
                    app,
                    node,
                    req,
                    rm_state,
                    nm_state: None,
                    spec: None,
                    pending_local: 0,
                    opportunistic: true,
                    reserved: false,
                },
            );
            granted.push((cid, node));
        }
        out.notify(AppNotice::ContainersGranted {
            app,
            containers: granted,
        });
    }

    /// A uniformly random live node. Re-draws on lost nodes (extra draws
    /// only happen after a scripted node loss); falls back to node 0 when
    /// every node is dead.
    fn random_live_node(&mut self) -> NodeId {
        let n = self.nodes.len() as u64;
        for _ in 0..4 * self.nodes.len().max(1) {
            let id = NodeId(self.rng_sched.below(n) as u32);
            if self.nodes[id.0 as usize].alive {
                return id;
            }
        }
        NodeId(0)
    }

    /// Distributed-scheduler node selection.
    fn pick_opportunistic_node(&mut self) -> NodeId {
        match self.cfg.opp_placement {
            OppPlacement::Random => self.random_live_node(),
            OppPlacement::PowerOfChoices(d) => {
                let mut best = self.random_live_node();
                for _ in 1..d.max(1) {
                    let cand = self.random_live_node();
                    let (bq, cq) = (
                        self.nodes[best.0 as usize].opp_queue.len(),
                        self.nodes[cand.0 as usize].opp_queue.len(),
                    );
                    if cq < bq
                        || (cq == bq
                            && self.nodes[cand.0 as usize].used_vcores()
                                < self.nodes[best.0 as usize].used_vcores())
                    {
                        best = cand;
                    }
                }
                best
            }
        }
    }

    /// startContainer arrived at the NM: begin localization.
    fn on_nm_start(&mut self, now: Millis, cid: ContainerId, out: &mut Out) {
        let (node, app, resources) = {
            let c = self.containers.get_mut(&cid).expect("unknown container");
            let mut nm = Tracked::new(NmContainerState::New);
            nm.transition(cid, c.node, NmContainerState::Localizing, now, out);
            c.nm_state = Some(nm);
            (
                c.node,
                c.app,
                c.spec.as_ref().expect("spec").localization.clone(),
            )
        };
        if self.faults.enabled() && self.faults.localization_fails(cid) {
            out.log(
                now,
                LogSource::NodeManager(node),
                &schema::NM_LOCALIZER_FAILED,
                &[&cid],
            );
            self.fail_container(now, cid, FailureKind::Localization, out);
            return;
        }
        let mut pending = 0usize;
        for (idx, res) in resources.iter().enumerate() {
            let cached = self.cfg.localization_cache
                && self.nodes[node.0 as usize].is_cached(app, &res.name);
            if cached {
                continue;
            }
            pending += 1;
            if self.nodes[node.0 as usize].inflight_contains(app, &res.name) {
                self.node_mut(node).inflight_wait(app, &res.name, cid);
            } else {
                self.node_mut(node).inflight_start(app, &res.name, cid);
                // NameNode lookup (CPU) then the download (IO).
                let meta = self.sample(&self.cfg.localize_meta_cpu_ms.clone()).as_f64();
                let flow = self.node_mut(node).cpu.add_flow(now, meta, 1.0, 1.0);
                self.cpu_flows.insert(
                    (node.0, flow.0),
                    FlowPurpose::LocalizeMeta { cid, res_idx: idx },
                );
                self.resched_cpu(node, now, out);
            }
        }
        self.containers.get_mut(&cid).unwrap().pending_local = pending;
        if pending == 0 {
            self.mark_scheduled(now, cid, out);
        }
    }

    /// All localization done: LOCALIZING → SCHEDULED, then hand off to the
    /// launcher (queueing opportunistic containers when the node is full).
    fn mark_scheduled(&mut self, now: Millis, cid: ContainerId, out: &mut Out) {
        let (node, req, opportunistic) = {
            let c = self.containers.get_mut(&cid).expect("unknown container");
            if c.rm_state.get().is_terminal() {
                return; // killed while localizing (node loss, AM retry)
            }
            c.nm_state.as_mut().expect("nm state").transition(
                cid,
                c.node,
                NmContainerState::Scheduled,
                now,
                out,
            );
            (c.node, c.req, c.opportunistic)
        };
        if opportunistic {
            if self.nodes[node.0 as usize].fits(req)
                && self.nodes[node.0 as usize].opp_queue.is_empty()
            {
                self.node_mut(node).reserve(req);
                self.containers.get_mut(&cid).unwrap().reserved = true;
            } else {
                self.node_mut(node).opp_queue.push_back(cid);
                return; // waits for capacity — Fig 7-(b)'s queueing delay
            }
        }
        let d = self.sample(&self.cfg.nm_handoff_ms.clone());
        out.at(now + d, ClusterEvent::NmHandoff(cid));
    }

    /// Launcher picked the container up: SCHEDULED → RUNNING, then the
    /// runtime (optional Docker) and the JVM start burn node resources.
    fn on_nm_handoff(&mut self, now: Millis, cid: ContainerId, out: &mut Out) {
        let (node, runtime) = {
            let c = self.containers.get_mut(&cid).expect("unknown container");
            if c.rm_state.get().is_terminal() {
                return; // killed while queued (node loss, AM retry)
            }
            c.nm_state.as_mut().expect("nm state").transition(
                cid,
                c.node,
                NmContainerState::Running,
                now,
                out,
            );
            (c.node, c.spec.as_ref().expect("spec").runtime)
        };
        if self.faults.enabled() && self.faults.launch_fails(cid) {
            out.log(
                now,
                LogSource::NodeManager(node),
                &schema::NM_LAUNCH_FAILED,
                &[&cid],
            );
            self.fail_container(now, cid, FailureKind::Launch, out);
            return;
        }
        match runtime {
            ContainerRuntime::Docker => {
                let mb = self.cfg.docker.image_mb * self.cfg.docker.read_fraction;
                let cap = self.cfg.io_single_flow_mb_per_ms;
                let flow = self.node_mut(node).io.add_flow(now, mb, 1.0, cap);
                self.io_flows
                    .insert((node.0, flow.0), FlowPurpose::DockerIo { cid });
                self.resched_io(node, now, out);
            }
            ContainerRuntime::Default => self.start_jvm(now, cid, node, out),
        }
    }

    fn start_jvm(&mut self, now: Millis, cid: ContainerId, node: NodeId, out: &mut Out) {
        let io_mb = self.containers[&cid]
            .spec
            .as_ref()
            .expect("spec")
            .launch_io_mb;
        if io_mb > 0.0 {
            let cap = self.cfg.io_single_flow_mb_per_ms;
            let flow = self.node_mut(node).io.add_flow(now, io_mb, 1.0, cap);
            self.io_flows
                .insert((node.0, flow.0), FlowPurpose::LaunchIo { cid });
            self.resched_io(node, now, out);
        } else {
            self.start_jvm_cpu(now, cid, node, out);
        }
    }

    fn start_jvm_cpu(&mut self, now: Millis, cid: ContainerId, node: NodeId, out: &mut Out) {
        let (work, threads) = {
            let spec = self.containers[&cid].spec.as_ref().expect("spec");
            (spec.launch_cpu_ms, spec.launch_threads)
        };
        let flow = self
            .node_mut(node)
            .cpu
            .add_flow(now, work, threads, threads);
        self.cpu_flows
            .insert((node.0, flow.0), FlowPurpose::LaunchCpu { cid });
        self.resched_cpu(node, now, out);
    }

    fn on_flow_done(&mut self, now: Millis, node: NodeId, purpose: FlowPurpose, out: &mut Out) {
        match purpose {
            FlowPurpose::AppWork { app, ticket } => {
                if !self.nodes[node.0 as usize].alive {
                    return; // work died with the node
                }
                out.notify(AppNotice::WorkDone { app, ticket });
            }
            FlowPurpose::LocalizeMeta { cid, res_idx } => {
                // Metadata done: start the download — on the dedicated
                // localization store when configured (§V-B optimization),
                // else on the shared IO channel.
                let Some(c) = self.containers.get(&cid) else {
                    return;
                };
                if c.rm_state.get().is_terminal() {
                    return; // owner died while the lookup ran
                }
                let mb = c.spec.as_ref().expect("spec").localization[res_idx].mb;
                let cap = self.cfg.io_single_flow_mb_per_ms;
                let purpose = FlowPurpose::LocalizeIo { cid, res_idx };
                if self.nodes[node.0 as usize].local_store.is_some() {
                    let store = self.node_mut(node).local_store.as_mut().unwrap();
                    let flow = store.add_flow(now, mb, 1.0, cap);
                    self.store_flows.insert((node.0, flow.0), purpose);
                    self.resched_store(node, now, out);
                } else {
                    let flow = self.node_mut(node).io.add_flow(now, mb, 1.0, cap);
                    self.io_flows.insert((node.0, flow.0), purpose);
                    self.resched_io(node, now, out);
                }
            }
            FlowPurpose::LocalizeIo { cid, res_idx } => {
                let Some(c) = self.containers.get(&cid) else {
                    return;
                };
                let app = c.app;
                let name = c.spec.as_ref().expect("spec").localization[res_idx]
                    .name
                    .clone();
                let woken = self.node_mut(node).inflight_finish(app, &name);
                for w in woken {
                    let Some(wc) = self.containers.get_mut(&w) else {
                        continue;
                    };
                    if wc.rm_state.get().is_terminal() {
                        continue; // waiter died while the download ran
                    }
                    debug_assert!(wc.pending_local > 0);
                    wc.pending_local -= 1;
                    if wc.pending_local == 0 {
                        self.mark_scheduled(now, w, out);
                    }
                }
            }
            FlowPurpose::DockerIo { cid } => {
                if self.container_dead(cid) {
                    return;
                }
                let setup = self.sample(&self.cfg.docker.setup_cpu_ms.clone()).as_f64();
                let flow = self.node_mut(node).cpu.add_flow(now, setup, 1.0, 1.0);
                self.cpu_flows
                    .insert((node.0, flow.0), FlowPurpose::DockerCpu { cid });
                self.resched_cpu(node, now, out);
            }
            FlowPurpose::DockerCpu { cid } => {
                if self.container_dead(cid) {
                    return;
                }
                self.start_jvm(now, cid, node, out)
            }
            FlowPurpose::LaunchIo { cid } => {
                if self.container_dead(cid) {
                    return;
                }
                self.start_jvm_cpu(now, cid, node, out)
            }
            FlowPurpose::LaunchCpu { cid } => {
                let Some(c) = self.containers.get_mut(&cid) else {
                    return;
                };
                if c.rm_state.get().is_terminal() {
                    return; // died while the JVM was starting
                }
                if c.rm_state.get() == RmContainerState::Acquired {
                    c.rm_state
                        .transition(cid, RmContainerState::Running, now, out);
                }
                let kind = c.spec.as_ref().expect("spec").kind;
                out.notify(AppNotice::ProcessStarted {
                    app: c.app,
                    container: cid,
                    node,
                    kind,
                });
            }
        }
    }

    /// After capacity freed on `node`, start queued opportunistic
    /// containers FIFO while they fit.
    fn drain_opp_queue(&mut self, now: Millis, node: NodeId, out: &mut Out) {
        if !self.nodes[node.0 as usize].alive {
            return; // lost node starts nothing
        }
        while let Some(&cid) = self.nodes[node.0 as usize].opp_queue.front() {
            let info = self.containers.get(&cid).map(|c| (c.rm_state.get(), c.req));
            let Some((state, req)) = info else {
                self.node_mut(node).opp_queue.pop_front();
                continue;
            };
            if state.is_terminal() {
                // Owner finished (or was killed) while queued.
                self.node_mut(node).opp_queue.pop_front();
                continue;
            }
            if !self.nodes[node.0 as usize].fits(req) {
                break;
            }
            self.node_mut(node).opp_queue.pop_front();
            self.node_mut(node).reserve(req);
            self.containers.get_mut(&cid).unwrap().reserved = true;
            let d = self.sample(&self.cfg.nm_handoff_ms.clone());
            out.at(now + d, ClusterEvent::NmHandoff(cid));
        }
    }

    fn resched_cpu(&mut self, node: NodeId, now: Millis, out: &mut Out) {
        if let Some((at, gen)) = self.node_mut(node).cpu.next_completion(now) {
            out.at(at, ClusterEvent::CpuTick(node, gen));
        }
    }

    fn resched_io(&mut self, node: NodeId, now: Millis, out: &mut Out) {
        if let Some((at, gen)) = self.node_mut(node).io.next_completion(now) {
            out.at(at, ClusterEvent::IoTick(node, gen));
        }
    }

    fn resched_store(&mut self, node: NodeId, now: Millis, out: &mut Out) {
        if let Some(store) = self.node_mut(node).local_store.as_mut() {
            if let Some((at, gen)) = store.next_completion(now) {
                out.at(at, ClusterEvent::StoreTick(node, gen));
            }
        }
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("nodes", &self.nodes.len())
            .field("apps", &self.apps.len())
            .field("containers", &self.containers.len())
            .field("backlog", &self.backlog.len())
            .finish()
    }
}
