//! Per-application driver logic: the Spark and MapReduce AM protocols.
//!
//! A [`Run`] consumes cluster notices ([`yarnsim::AppNotice`]) and run
//! events (executor registrations) and reacts by calling back into the
//! cluster — launching containers, spawning driver/executor work,
//! finishing the application — while writing the application-side log
//! messages of Table I (9–14):
//!
//! * driver `FIRST_LOG` (9) and `REGISTER` (10) — `ApplicationMaster`
//! * `START_ALLO` (11) / `END_ALLO` (12) — the two log lines the paper's
//!   authors patched into Spark's `YarnAllocator`
//! * executor `FIRST_LOG` (13) — `CoarseGrainedExecutorBackend`
//! * `FIRST_TASK` (14) — `Executor: Got assigned task …`

use std::collections::{BTreeMap, HashMap};

use logmodel::{ApplicationId, ContainerId, LogSource, NodeId};
use simkit::{Millis, Sample, SimRng};
use yarnsim::{AppNotice, Cluster, InstanceKind, LaunchSpec, LocalResource, Out, Ticket};

use crate::job::{Framework, JobSpec, StageSpec};
use crate::schema;

/// Events the application layer schedules for itself (via the `World`).
#[derive(Debug, Clone)]
pub enum RunEvent {
    /// An executor's registration RPC reached the driver.
    ExecutorRegistered {
        /// Owning application.
        app: ApplicationId,
        /// The registering executor's container.
        cid: ContainerId,
    },
}

/// Mutable context threaded through run handlers.
pub(crate) struct Wx<'a> {
    /// Current simulation time.
    pub now: Millis,
    /// The cluster to call back into.
    pub cluster: &'a mut Cluster,
    /// Cluster effect buffer (events, the notice cascade, log lines).
    pub out: &'a mut Out,
    /// Run events to schedule (absolute time).
    pub later: &'a mut Vec<(Millis, RunEvent)>,
}

/// Completed-job record.
#[derive(Debug, Clone)]
pub struct JobSummary {
    /// The application.
    pub app: ApplicationId,
    /// Spec label (e.g. `tpch-q07`).
    pub label: String,
    /// Family tag (`spark-sql`, `dfsio`, ...).
    pub kind: &'static str,
    /// Submission time.
    pub submitted_at: Millis,
    /// Completion time (AM unregistered, or attempts exhausted).
    pub finished_at: Millis,
    /// True when the application terminated FAILED (AM attempts
    /// exhausted under fault injection) instead of finishing cleanly.
    pub failed: bool,
}

impl JobSummary {
    /// End-to-end job runtime.
    pub fn runtime(&self) -> Millis {
        self.finished_at - self.submitted_at
    }
}

/// Work-ticket purposes for a Spark run.
#[derive(Debug, Clone, Copy)]
enum Purpose {
    DriverInit,
    UserFileIo { idx: u32 },
    UserFileCpu,
    ExecutorSetupIo { cid: ContainerId },
    ExecutorSetup { cid: ContainerId },
    DispatchOverhead,
    TaskIo { cid: ContainerId, cpu_ms: f64 },
    TaskCpu { cid: ContainerId },
}

/// Work-ticket purposes for a MapReduce run.
#[derive(Debug, Clone, Copy)]
enum MrPurpose {
    MasterInit,
    /// One stream of a (possibly replicated) task transfer; the task's
    /// CPU phase starts when all streams finish.
    TaskIo {
        cid: ContainerId,
        cpu_ms: f64,
    },
    TaskCpu {
        cid: ContainerId,
    },
}

/// Executor state within a Spark run.
#[derive(Debug)]
struct Exec {
    node: NodeId,
    registered: bool,
    free_slots: u32,
    tasks_run: u32,
}

/// One live application.
pub enum Run {
    /// Spark protocol.
    Spark(Box<SparkRun>),
    /// MapReduce protocol.
    Mr(Box<MrRun>),
}

impl Run {
    /// Create the right protocol driver for `spec`.
    pub fn new(spec: JobSpec, app: ApplicationId, submit_at: Millis, rng: SimRng) -> Run {
        match spec.framework {
            Framework::Spark => Run::Spark(Box::new(SparkRun::new(spec, app, submit_at, rng))),
            Framework::MapReduce => Run::Mr(Box::new(MrRun::new(spec, app, submit_at, rng))),
        }
    }

    /// Route a cluster notice.
    pub(crate) fn on_notice(&mut self, n: AppNotice, wx: &mut Wx) {
        match self {
            Run::Spark(r) => r.on_notice(n, wx),
            Run::Mr(r) => r.on_notice(n, wx),
        }
    }

    /// Route a run event.
    pub(crate) fn on_run_event(&mut self, ev: RunEvent, wx: &mut Wx) {
        match self {
            Run::Spark(r) => r.on_run_event(ev, wx),
            Run::Mr(_) => {} // MR has no executor-registration protocol
        }
    }

    /// Completed-job summary, once finished.
    pub fn summary(&self) -> Option<JobSummary> {
        match self {
            Run::Spark(r) => r.finished_at.map(|t| JobSummary {
                app: r.app,
                label: r.spec.label.clone(),
                kind: r.spec.kind.tag(),
                submitted_at: r.submit_at,
                finished_at: t,
                failed: r.failed,
            }),
            Run::Mr(r) => r.finished_at.map(|t| JobSummary {
                app: r.app,
                label: r.spec.label.clone(),
                kind: r.spec.kind.tag(),
                submitted_at: r.submit_at,
                finished_at: t,
                failed: r.failed,
            }),
        }
    }
}

/// Build the localization list for a container.
fn localization(base_name: &str, base_mb: f64, extra_mb: f64) -> Vec<LocalResource> {
    let mut v = vec![LocalResource::new(base_name, base_mb)];
    if extra_mb > 0.0 {
        v.push(LocalResource::new("extra-files", extra_mb));
    }
    v
}

// ======================================================================
// Spark
// ======================================================================

/// Spark driver protocol state.
pub struct SparkRun {
    spec: JobSpec,
    app: ApplicationId,
    submit_at: Millis,
    rng: SimRng,
    driver: Option<(ContainerId, NodeId)>,
    executors: BTreeMap<ContainerId, Exec>,
    /// Needed executors launched so far.
    launched: u32,
    /// Registered executors.
    registered: u32,
    end_allo_logged: bool,
    user_init_started: bool,
    user_files_done: u32,
    user_init_done: bool,
    stage_idx: usize,
    stage_dispatched: u32,
    stage_completed: u32,
    next_tid: u64,
    dispatch_cursor: usize,
    dispatch_overhead: OverheadState,
    tickets: HashMap<Ticket, Purpose>,
    /// Current AM attempt (bumped by [`AppNotice::AttemptRetry`]).
    attempt: u32,
    /// Terminally FAILED (attempts exhausted).
    failed: bool,
    /// Set when the AM unregistered.
    pub(crate) finished_at: Option<Millis>,
}

/// Progress of the one-time driver dispatch overhead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OverheadState {
    NotStarted,
    Running,
    Done,
}

impl SparkRun {
    fn new(spec: JobSpec, app: ApplicationId, submit_at: Millis, rng: SimRng) -> SparkRun {
        SparkRun {
            spec,
            app,
            submit_at,
            rng,
            driver: None,
            executors: BTreeMap::new(),
            launched: 0,
            registered: 0,
            end_allo_logged: false,
            user_init_started: false,
            user_files_done: 0,
            user_init_done: false,
            stage_idx: 0,
            stage_dispatched: 0,
            stage_completed: 0,
            next_tid: 0,
            dispatch_cursor: 0,
            dispatch_overhead: OverheadState::NotStarted,
            tickets: HashMap::new(),
            attempt: 1,
            failed: false,
            finished_at: None,
        }
    }

    /// The submission context for this job (what the client sends).
    pub fn submission(spec: &JobSpec, rng: &mut SimRng) -> yarnsim::AppSubmission {
        yarnsim::AppSubmission {
            name: spec.label.clone(),
            am_resource: spec.am_resource,
            am_launch: LaunchSpec {
                kind: InstanceKind::SparkDriver,
                localization: localization(
                    "spark-libs.jar",
                    spec.driver_localization_mb,
                    spec.extra_files_mb,
                ),
                runtime: spec.runtime,
                launch_cpu_ms: spec.am_launch_cpu_ms.sample(rng),
                launch_threads: 1.0,
                launch_io_mb: spec.launch_io_mb,
            },
            am_heartbeat_ms: spec.am_heartbeat_ms,
        }
    }

    fn on_notice(&mut self, n: AppNotice, wx: &mut Wx) {
        match n {
            AppNotice::ProcessStarted {
                container,
                node,
                kind,
                ..
            } => match kind {
                InstanceKind::SparkDriver => self.on_driver_started(container, node, wx),
                InstanceKind::SparkExecutor => self.on_executor_started(container, node, wx),
                other => panic!("unexpected instance kind {other:?} in Spark app"),
            },
            AppNotice::ContainersGranted { containers, .. } => {
                self.on_granted(containers, wx);
            }
            AppNotice::WorkDone { ticket, .. } => self.on_work_done(ticket, wx),
            AppNotice::ProcessFailed { container, .. } => self.on_process_failed(container, wx),
            AppNotice::AttemptRetry { new_attempt, .. } => self.on_attempt_retry(new_attempt),
            AppNotice::AppFailed { .. } => self.on_app_failed(wx),
        }
    }

    /// A worker container died (launch/localization failure or node loss):
    /// forget it, reclaim any tasks that were running on it, and ask the
    /// scheduler for a replacement — what Spark's `YarnAllocator` does on
    /// a completed-with-failure container report.
    fn on_process_failed(&mut self, cid: ContainerId, wx: &mut Wx) {
        if self.finished_at.is_some() {
            return;
        }
        let Some(e) = self.executors.remove(&cid) else {
            return;
        };
        if e.registered {
            self.registered = self.registered.saturating_sub(1);
        }
        self.launched = self.launched.saturating_sub(1);
        let lost: Vec<Ticket> = self
            .tickets
            .iter()
            .filter(|(_, p)| {
                matches!(p,
                    Purpose::ExecutorSetupIo { cid: c }
                    | Purpose::ExecutorSetup { cid: c }
                    | Purpose::TaskIo { cid: c, .. }
                    | Purpose::TaskCpu { cid: c } if *c == cid)
            })
            .map(|(t, _)| *t)
            .collect();
        for t in lost {
            if let Some(Purpose::TaskIo { .. } | Purpose::TaskCpu { .. }) = self.tickets.remove(&t)
            {
                // The task never finished: put it back on the stage.
                self.stage_dispatched = self.stage_dispatched.saturating_sub(1);
            }
        }
        wx.cluster
            .request_containers(wx.now, self.app, 1, self.spec.executor_resource, wx.out);
        self.maybe_dispatch(wx);
    }

    /// The RM restarted our AM (attempt N failed, attempt N+1 launching):
    /// reset all protocol state; the submission→launch sequence replays.
    fn on_attempt_retry(&mut self, new_attempt: u32) {
        if self.finished_at.is_some() {
            return;
        }
        self.attempt = new_attempt;
        self.driver = None;
        self.executors.clear();
        self.launched = 0;
        self.registered = 0;
        self.end_allo_logged = false;
        self.user_init_started = false;
        self.user_files_done = 0;
        self.user_init_done = false;
        self.stage_idx = 0;
        self.stage_dispatched = 0;
        self.stage_completed = 0;
        self.dispatch_cursor = 0;
        self.dispatch_overhead = OverheadState::NotStarted;
        self.tickets.clear();
    }

    /// Attempts exhausted: the application is terminally FAILED.
    fn on_app_failed(&mut self, wx: &mut Wx) {
        if self.finished_at.is_some() {
            return;
        }
        self.failed = true;
        self.finished_at = Some(wx.now);
        if self.driver.is_some() {
            wx.out.log(
                wx.now,
                LogSource::Driver(self.app),
                &schema::SPARK_APP_FAILED,
                &[&self.spec.label],
            );
        }
    }

    fn on_run_event(&mut self, ev: RunEvent, wx: &mut Wx) {
        let RunEvent::ExecutorRegistered { cid, .. } = ev;
        if self.finished_at.is_some() {
            return;
        }
        if let Some(e) = self.executors.get_mut(&cid) {
            if !e.registered {
                e.registered = true;
                self.registered += 1;
            }
        }
        self.maybe_dispatch(wx);
    }

    fn on_driver_started(&mut self, cid: ContainerId, node: NodeId, wx: &mut Wx) {
        self.driver = Some((cid, node));
        // Log message 9: the driver's first log line.
        wx.out.log(
            wx.now,
            LogSource::Driver(self.app),
            &schema::SPARK_AM_START,
            &[&self.spec.label],
        );
        // SparkContext + RM client initialization (driver delay, §IV-D).
        let work = self.spec.driver_init_cpu_ms.sample(&mut self.rng);
        let t = wx.cluster.spawn_cpu(
            wx.now,
            node,
            self.app,
            work,
            self.spec.driver_init_threads,
            wx.out,
        );
        self.tickets.insert(t, Purpose::DriverInit);
    }

    fn on_driver_registered(&mut self, wx: &mut Wx) {
        // Log message 10.
        wx.out.log(
            wx.now,
            LogSource::Driver(self.app),
            &schema::SPARK_AM_REGISTERED,
            &[&self.app.attempt(self.attempt)],
        );
        wx.cluster.am_register(wx.now, self.app, wx.out);
        // Log message 11 (patched into YarnAllocator by the authors).
        let req = self.spec.requested_executors();
        wx.out.log(
            wx.now,
            LogSource::Driver(self.app),
            &schema::SPARK_START_ALLO,
            &[&req],
        );
        wx.cluster
            .request_containers(wx.now, self.app, req, self.spec.executor_resource, wx.out);
        // User-application initialization starts once the context is up.
        self.start_user_init(wx);
    }

    fn start_user_init(&mut self, wx: &mut Wx) {
        self.user_init_started = true;
        let files = self.spec.user_init.files;
        if files == 0 {
            self.user_init_done = true;
            self.maybe_dispatch(wx);
            return;
        }
        if self.spec.user_init.parallel {
            for i in 0..files {
                self.start_user_file(i, wx);
            }
        } else {
            self.start_user_file(0, wx);
        }
    }

    fn start_user_file(&mut self, idx: u32, wx: &mut Wx) {
        let (_, node) = self.driver.expect("driver up");
        let io = self.spec.user_init.per_file_io_mb;
        if io > 0.0 {
            let t = wx.cluster.spawn_io(wx.now, node, self.app, io, wx.out);
            self.tickets.insert(t, Purpose::UserFileIo { idx });
        } else {
            self.start_user_file_cpu(idx, wx);
        }
    }

    fn start_user_file_cpu(&mut self, idx: u32, wx: &mut Wx) {
        let (_, node) = self.driver.expect("driver up");
        let work = self.spec.user_init.per_file_cpu_ms.sample(&mut self.rng);
        let t = wx
            .cluster
            .spawn_cpu(wx.now, node, self.app, work, 1.0, wx.out);
        let _ = idx;
        self.tickets.insert(t, Purpose::UserFileCpu);
    }

    fn on_user_file_done(&mut self, wx: &mut Wx) {
        self.user_files_done += 1;
        let files = self.spec.user_init.files;
        if self.user_files_done >= files {
            self.user_init_done = true;
            self.maybe_dispatch(wx);
        } else if !self.spec.user_init.parallel {
            self.start_user_file(self.user_files_done, wx);
        }
    }

    fn on_granted(&mut self, containers: Vec<(ContainerId, NodeId)>, wx: &mut Wx) {
        if self.finished_at.is_some() {
            return;
        }
        let mut extras = Vec::new();
        for (cid, node) in containers {
            if self.launched < self.spec.num_executors {
                self.launched += 1;
                let spec = LaunchSpec {
                    kind: InstanceKind::SparkExecutor,
                    localization: localization(
                        "spark-libs.jar",
                        self.spec.executor_localization_mb,
                        self.spec.extra_files_mb,
                    ),
                    runtime: self.spec.runtime,
                    launch_cpu_ms: self.spec.worker_launch_cpu_ms.sample(&mut self.rng),
                    launch_threads: 1.0,
                    launch_io_mb: self.spec.launch_io_mb,
                };
                wx.cluster.launch_container(wx.now, cid, spec, wx.out);
                self.executors.insert(
                    cid,
                    Exec {
                        node,
                        registered: false,
                        free_slots: self.spec.task_slots_per_executor,
                        tasks_run: 0,
                    },
                );
                if self.launched == self.spec.num_executors && !self.end_allo_logged {
                    self.end_allo_logged = true;
                    // Log message 12.
                    wx.out.log(
                        wx.now,
                        LogSource::Driver(self.app),
                        &schema::SPARK_END_ALLO,
                        &[&self.spec.num_executors],
                    );
                }
            } else {
                // SPARK-21562: over-requested containers are never used.
                extras.push(cid);
            }
        }
        if !extras.is_empty() {
            wx.cluster.release_containers(wx.now, &extras, wx.out);
        }
    }

    fn on_executor_started(&mut self, cid: ContainerId, node: NodeId, wx: &mut Wx) {
        // The executor may already have been reclaimed by a fault between
        // launch and process start.
        if !self.executors.contains_key(&cid) {
            return;
        }
        debug_assert_eq!(self.executors[&cid].node, node);
        // Log message 13: executor's first log line (its own log file).
        wx.out.log(
            wx.now,
            LogSource::Executor(cid),
            &schema::SPARK_EXECUTOR_STARTED,
            &[&self.app, &node],
        );
        // Executor-side setup (RPC env, BlockManager, classloading) burns
        // IO then CPU on the executor's node before the registration RPC
        // goes out.
        let io = self.spec.executor_setup_io_mb;
        let work = self.spec.executor_setup_cpu_ms.sample(&mut self.rng);
        if io > 0.0 {
            let t = wx.cluster.spawn_io(wx.now, node, self.app, io, wx.out);
            self.tickets.insert(t, Purpose::ExecutorSetupIo { cid });
        } else if work > 0.0 {
            let t = wx
                .cluster
                .spawn_cpu(wx.now, node, self.app, work, 1.0, wx.out);
            self.tickets.insert(t, Purpose::ExecutorSetup { cid });
        } else {
            let d = self.spec.exec_register_rpc_ms.sample_ms(&mut self.rng);
            wx.later.push((
                wx.now + d,
                RunEvent::ExecutorRegistered { app: self.app, cid },
            ));
        }
    }

    /// Task scheduling gate (paper Fig 10 + §IV-B): user init finished AND
    /// ≥ `min_registered_ratio` of executors registered.
    fn gate_open(&self) -> bool {
        self.user_init_done && self.registered >= self.spec.min_registered()
    }

    fn current_stage(&self) -> Option<&StageSpec> {
        self.spec.stages.get(self.stage_idx)
    }

    fn maybe_dispatch(&mut self, wx: &mut Wx) {
        if self.finished_at.is_some() || !self.gate_open() {
            return;
        }
        // One-time driver overhead between gate opening and the first
        // dispatch (DAG build, closure serialization, task broadcast).
        match self.dispatch_overhead {
            OverheadState::NotStarted => {
                let (_, node) = self.driver.expect("driver up");
                let work = self.spec.first_dispatch_overhead_ms.sample(&mut self.rng);
                self.dispatch_overhead = OverheadState::Running;
                let t = wx
                    .cluster
                    .spawn_cpu(wx.now, node, self.app, work, 1.0, wx.out);
                self.tickets.insert(t, Purpose::DispatchOverhead);
                return;
            }
            OverheadState::Running => return,
            OverheadState::Done => {}
        }
        loop {
            let Some(stage) = self.current_stage() else {
                self.finish(wx);
                return;
            };
            let (stage_tasks, io_mb) = (stage.tasks, stage.task_io_mb);
            let cpu_dist = stage.task_cpu_ms.clone();
            if self.stage_dispatched >= stage_tasks {
                return; // all dispatched; waiting on completions
            }
            // Round-robin over registered executors with free slots.
            let cids: Vec<ContainerId> = self.executors.keys().copied().collect();
            if cids.is_empty() {
                return;
            }
            let mut dispatched_any = false;
            for off in 0..cids.len() {
                if self.stage_dispatched >= stage_tasks {
                    break;
                }
                let cid = cids[(self.dispatch_cursor + off) % cids.len()];
                let Some(e) = self.executors.get_mut(&cid) else {
                    continue;
                };
                if !e.registered || e.free_slots == 0 {
                    continue;
                }
                e.free_slots -= 1;
                let warm = if e.tasks_run < self.spec.warmup_tasks {
                    self.spec.warmup_factor
                } else {
                    1.0
                };
                e.tasks_run += 1;
                let node = e.node;
                let tid = self.next_tid;
                self.next_tid += 1;
                self.stage_dispatched += 1;
                self.dispatch_cursor = (self.dispatch_cursor + off + 1) % cids.len();
                // Log message 14 (first occurrence per executor is what
                // SDchecker uses; Spark logs every assignment).
                wx.out.log(
                    wx.now,
                    LogSource::Executor(cid),
                    &schema::SPARK_TASK_ASSIGNED,
                    &[&tid, &self.stage_idx, &tid],
                );
                let cpu_ms = cpu_dist.sample(&mut self.rng) * warm;
                if io_mb > 0.0 {
                    let t = wx.cluster.spawn_io(wx.now, node, self.app, io_mb, wx.out);
                    self.tickets.insert(t, Purpose::TaskIo { cid, cpu_ms });
                } else {
                    let t = wx.cluster.spawn_cpu(
                        wx.now,
                        node,
                        self.app,
                        cpu_ms,
                        self.spec.task_threads,
                        wx.out,
                    );
                    self.tickets.insert(t, Purpose::TaskCpu { cid });
                }
                dispatched_any = true;
            }
            if !dispatched_any {
                return; // no free slots; completions will re-trigger
            }
        }
    }

    fn on_task_cpu_done(&mut self, cid: ContainerId, wx: &mut Wx) {
        if let Some(e) = self.executors.get_mut(&cid) {
            e.free_slots += 1;
        }
        self.stage_completed += 1;
        let stage_tasks = self.current_stage().map(|s| s.tasks).unwrap_or(0);
        if self.stage_completed >= stage_tasks {
            self.stage_idx += 1;
            self.stage_dispatched = 0;
            self.stage_completed = 0;
        }
        self.maybe_dispatch(wx);
    }

    fn on_work_done(&mut self, ticket: Ticket, wx: &mut Wx) {
        let Some(p) = self.tickets.remove(&ticket) else {
            return; // work outlived the app (teardown)
        };
        if self.finished_at.is_some() {
            return;
        }
        match p {
            Purpose::DriverInit => self.on_driver_registered(wx),
            Purpose::UserFileIo { idx } => self.start_user_file_cpu(idx, wx),
            Purpose::UserFileCpu => self.on_user_file_done(wx),
            Purpose::ExecutorSetupIo { cid } => {
                let Some(node) = self.executors.get(&cid).map(|e| e.node) else {
                    return;
                };
                let work = self.spec.executor_setup_cpu_ms.sample(&mut self.rng);
                let t = wx
                    .cluster
                    .spawn_cpu(wx.now, node, self.app, work, 1.0, wx.out);
                self.tickets.insert(t, Purpose::ExecutorSetup { cid });
            }
            Purpose::ExecutorSetup { cid } => {
                let d = self.spec.exec_register_rpc_ms.sample_ms(&mut self.rng);
                wx.later.push((
                    wx.now + d,
                    RunEvent::ExecutorRegistered { app: self.app, cid },
                ));
            }
            Purpose::DispatchOverhead => {
                self.dispatch_overhead = OverheadState::Done;
                self.maybe_dispatch(wx);
            }
            Purpose::TaskIo { cid, cpu_ms } => {
                let Some(node) = self.executors.get(&cid).map(|e| e.node) else {
                    return;
                };
                let t = wx.cluster.spawn_cpu(
                    wx.now,
                    node,
                    self.app,
                    cpu_ms,
                    self.spec.task_threads,
                    wx.out,
                );
                self.tickets.insert(t, Purpose::TaskCpu { cid });
            }
            Purpose::TaskCpu { cid } => self.on_task_cpu_done(cid, wx),
        }
    }

    fn finish(&mut self, wx: &mut Wx) {
        if self.finished_at.is_some() {
            return;
        }
        self.finished_at = Some(wx.now);
        wx.out.log(
            wx.now,
            LogSource::Driver(self.app),
            &schema::SPARK_APP_SUCCEEDED,
            &[&self.spec.label],
        );
        wx.cluster.finish_application(wx.now, self.app, wx.out);
    }
}

// ======================================================================
// MapReduce
// ======================================================================

/// MapReduce AM protocol state: one container per task, map stage then
/// reduce stage.
pub struct MrRun {
    spec: JobSpec,
    app: ApplicationId,
    submit_at: Millis,
    rng: SimRng,
    master: Option<(ContainerId, NodeId)>,
    /// Node per launched task container.
    task_nodes: HashMap<ContainerId, NodeId>,
    /// Outstanding IO streams per task (replicated writes).
    task_io_pending: HashMap<ContainerId, u32>,
    stage_idx: usize,
    stage_launched: u32,
    stage_completed: u32,
    tickets: HashMap<Ticket, MrPurpose>,
    /// Terminally FAILED (attempts exhausted).
    failed: bool,
    pub(crate) finished_at: Option<Millis>,
}

impl MrRun {
    fn new(spec: JobSpec, app: ApplicationId, submit_at: Millis, rng: SimRng) -> MrRun {
        MrRun {
            spec,
            app,
            submit_at,
            rng,
            master: None,
            task_nodes: HashMap::new(),
            task_io_pending: HashMap::new(),
            stage_idx: 0,
            stage_launched: 0,
            stage_completed: 0,
            tickets: HashMap::new(),
            failed: false,
            finished_at: None,
        }
    }

    /// The submission context for this job.
    pub fn submission(spec: &JobSpec, rng: &mut SimRng) -> yarnsim::AppSubmission {
        yarnsim::AppSubmission {
            name: spec.label.clone(),
            am_resource: spec.am_resource,
            am_launch: LaunchSpec {
                kind: InstanceKind::MrMaster,
                localization: localization(
                    "job.jar",
                    spec.driver_localization_mb,
                    spec.extra_files_mb,
                ),
                runtime: spec.runtime,
                launch_cpu_ms: spec.am_launch_cpu_ms.sample(rng),
                launch_threads: 1.0,
                launch_io_mb: spec.launch_io_mb,
            },
            am_heartbeat_ms: spec.am_heartbeat_ms,
        }
    }

    fn task_kind(&self) -> InstanceKind {
        if self.stage_idx == 0 {
            InstanceKind::MrMap
        } else {
            InstanceKind::MrReduce
        }
    }

    fn on_notice(&mut self, n: AppNotice, wx: &mut Wx) {
        match n {
            AppNotice::ProcessStarted {
                container,
                node,
                kind,
                ..
            } => match kind {
                InstanceKind::MrMaster => self.on_master_started(container, node, wx),
                InstanceKind::MrMap | InstanceKind::MrReduce => {
                    self.on_task_started(container, node, wx)
                }
                other => panic!("unexpected instance kind {other:?} in MR app"),
            },
            AppNotice::ContainersGranted { containers, .. } => self.on_granted(containers, wx),
            AppNotice::WorkDone { ticket, .. } => self.on_work_done(ticket, wx),
            AppNotice::ProcessFailed { container, .. } => self.on_process_failed(container, wx),
            AppNotice::AttemptRetry { .. } => self.on_attempt_retry(),
            AppNotice::AppFailed { .. } => self.on_app_failed(wx),
        }
    }

    /// A task container died: drop its bookkeeping and re-request one
    /// container so the stage can still complete.
    fn on_process_failed(&mut self, cid: ContainerId, wx: &mut Wx) {
        if self.finished_at.is_some() {
            return;
        }
        if self.task_nodes.remove(&cid).is_none() {
            return;
        }
        self.task_io_pending.remove(&cid);
        self.tickets.retain(|_, p| {
            !matches!(p,
                MrPurpose::TaskIo { cid: c, .. } | MrPurpose::TaskCpu { cid: c } if *c == cid)
        });
        self.stage_launched = self.stage_launched.saturating_sub(1);
        wx.cluster
            .request_containers(wx.now, self.app, 1, self.spec.executor_resource, wx.out);
    }

    /// The RM restarted our AM: reset protocol state and replay the job
    /// from the master launch.
    fn on_attempt_retry(&mut self) {
        if self.finished_at.is_some() {
            return;
        }
        self.master = None;
        self.task_nodes.clear();
        self.task_io_pending.clear();
        self.stage_idx = 0;
        self.stage_launched = 0;
        self.stage_completed = 0;
        self.tickets.clear();
    }

    /// Attempts exhausted: the application is terminally FAILED.
    fn on_app_failed(&mut self, wx: &mut Wx) {
        if self.finished_at.is_some() {
            return;
        }
        self.failed = true;
        self.finished_at = Some(wx.now);
        if self.master.is_some() {
            wx.out.log(
                wx.now,
                LogSource::Driver(self.app),
                &schema::MR_JOB_FAILED,
                &[&self.spec.label],
            );
        }
    }

    fn on_master_started(&mut self, cid: ContainerId, node: NodeId, wx: &mut Wx) {
        self.master = Some((cid, node));
        wx.out.log(
            wx.now,
            LogSource::Driver(self.app),
            &schema::MR_AM_START,
            &[&self.app],
        );
        let work = self.spec.driver_init_cpu_ms.sample(&mut self.rng);
        let t = wx.cluster.spawn_cpu(
            wx.now,
            node,
            self.app,
            work,
            self.spec.driver_init_threads,
            wx.out,
        );
        self.tickets.insert(t, MrPurpose::MasterInit);
    }

    fn request_stage(&mut self, wx: &mut Wx) {
        let Some(stage) = self.spec.stages.get(self.stage_idx) else {
            self.finish(wx);
            return;
        };
        if stage.tasks == 0 {
            self.stage_idx += 1;
            self.stage_launched = 0;
            self.stage_completed = 0;
            self.request_stage(wx);
            return;
        }
        wx.cluster.request_containers(
            wx.now,
            self.app,
            stage.tasks,
            self.spec.executor_resource,
            wx.out,
        );
    }

    fn on_granted(&mut self, containers: Vec<(ContainerId, NodeId)>, wx: &mut Wx) {
        if self.finished_at.is_some() {
            return;
        }
        let kind = self.task_kind();
        for (cid, node) in containers {
            self.stage_launched += 1;
            let spec = LaunchSpec {
                kind,
                localization: localization(
                    "job.jar",
                    self.spec.executor_localization_mb,
                    self.spec.extra_files_mb,
                ),
                runtime: self.spec.runtime,
                launch_cpu_ms: self.spec.worker_launch_cpu_ms.sample(&mut self.rng),
                launch_threads: 1.0,
                launch_io_mb: self.spec.launch_io_mb,
            };
            wx.cluster.launch_container(wx.now, cid, spec, wx.out);
            self.task_nodes.insert(cid, node);
        }
    }

    fn on_task_started(&mut self, cid: ContainerId, node: NodeId, wx: &mut Wx) {
        wx.out.log(
            wx.now,
            LogSource::Executor(cid),
            &schema::MR_TASK_STARTED,
            &[&self.app, &node],
        );
        let stage = &self.spec.stages[self.stage_idx];
        let cpu_ms = stage.task_cpu_ms.sample(&mut self.rng);
        if stage.task_io_mb > 0.0 {
            // Replicated transfers put one full-size stream on this node
            // and one on each of `replicas-1` other nodes (the HDFS write
            // pipeline); the task proceeds when the whole pipeline
            // finishes.
            let replicas = self.spec.task_io_replicas.max(1);
            let n_nodes = wx.cluster.node_count() as u32;
            self.task_io_pending.insert(cid, replicas);
            for r in 0..replicas {
                let target = if r == 0 || n_nodes <= 1 {
                    node
                } else {
                    logmodel::NodeId(
                        (node.0 + 1 + self.rng.below((n_nodes - 1) as u64) as u32) % n_nodes,
                    )
                };
                let t = wx
                    .cluster
                    .spawn_io(wx.now, target, self.app, stage.task_io_mb, wx.out);
                self.tickets.insert(t, MrPurpose::TaskIo { cid, cpu_ms });
            }
        } else {
            let t = wx.cluster.spawn_cpu(
                wx.now,
                node,
                self.app,
                cpu_ms,
                self.spec.task_threads,
                wx.out,
            );
            self.tickets.insert(t, MrPurpose::TaskCpu { cid });
        }
    }

    fn on_work_done(&mut self, ticket: Ticket, wx: &mut Wx) {
        let Some(p) = self.tickets.remove(&ticket) else {
            return;
        };
        if self.finished_at.is_some() {
            return;
        }
        match p {
            MrPurpose::MasterInit => {
                wx.out.log(
                    wx.now,
                    LogSource::Driver(self.app),
                    &schema::MR_AM_REGISTERED,
                    &[],
                );
                wx.cluster.am_register(wx.now, self.app, wx.out);
                self.request_stage(wx);
            }
            MrPurpose::TaskIo { cid, cpu_ms } => {
                // The task may have been reclaimed by a fault in between;
                // its replica streams then complete into the void.
                let Some(pending) = self.task_io_pending.get_mut(&cid) else {
                    return;
                };
                *pending -= 1;
                if *pending > 0 {
                    return;
                }
                self.task_io_pending.remove(&cid);
                let Some(&node) = self.task_nodes.get(&cid) else {
                    return;
                };
                let t = wx.cluster.spawn_cpu(
                    wx.now,
                    node,
                    self.app,
                    cpu_ms,
                    self.spec.task_threads,
                    wx.out,
                );
                self.tickets.insert(t, MrPurpose::TaskCpu { cid });
            }
            MrPurpose::TaskCpu { cid } => {
                wx.cluster.finish_container(wx.now, cid, wx.out);
                self.stage_completed += 1;
                let stage_tasks = self.spec.stages[self.stage_idx].tasks;
                if self.stage_completed >= stage_tasks {
                    self.stage_idx += 1;
                    self.stage_launched = 0;
                    self.stage_completed = 0;
                    self.request_stage(wx);
                }
            }
        }
    }

    fn finish(&mut self, wx: &mut Wx) {
        if self.finished_at.is_some() {
            return;
        }
        self.finished_at = Some(wx.now);
        wx.out.log(
            wx.now,
            LogSource::Driver(self.app),
            &schema::MR_JOB_SUCCEEDED,
            &[&self.spec.label],
        );
        wx.cluster.finish_application(wx.now, self.app, wx.out);
    }
}
