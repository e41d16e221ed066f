//! The `World`: the complete simulation model — cluster + applications —
//! pluggable into `simkit`'s engine.
//!
//! The world routes three event families:
//!
//! * [`Ev::Cluster`] — yarnsim's internal events (scheduler ticks,
//!   heartbeats, resource-flow completions);
//! * [`Ev::Submit`] — a job arrival from the workload trace;
//! * [`Ev::Run`] — application-layer events (executor registrations).
//!
//! Cluster notices cascade: an application's reaction to a notice may
//! produce further notices at the same timestamp (e.g. a granted container
//! is launched, which immediately hits a cached localization). The handler
//! drains notices to a fixed point before returning to the kernel.
//!
//! Cluster and applications write their log lines into the same effect
//! buffer as typed [`yarnsim::Line`]s. [`World`] renders them into its
//! [`LogStore`] in one place, once per event after the cascade, in the
//! order they were written.

use std::collections::BTreeMap;

use logmodel::{ApplicationId, Epoch, LogStore};
use simkit::{Ctx, Engine, Millis, Model, SimRng};
use yarnsim::{AppNotice, Cluster, ClusterConfig, ClusterEvent, Out};

use crate::job::{Framework, JobSpec};
use crate::run::{JobSummary, MrRun, Run, RunEvent, SparkRun, Wx};

/// World events.
#[derive(Debug)]
pub enum Ev {
    /// A cluster-internal event.
    Cluster(ClusterEvent),
    /// A job arrives (from the workload trace).
    Submit(Box<JobSpec>),
    /// An application-layer event.
    Run(RunEvent),
}

/// The full simulation state.
pub struct World {
    /// The cluster substrate.
    pub cluster: Cluster,
    /// The shared log corpus (what SDchecker will mine).
    pub logs: LogStore,
    runs: BTreeMap<ApplicationId, Run>,
    rng_sub: SimRng,
    jobs_submitted: u64,
    /// Completed jobs, in completion order.
    pub summaries: Vec<JobSummary>,
    /// Per-event buffers, drained by every `handle` and kept so an event
    /// allocates none: the effects of cluster and applications, the
    /// notices of the cascade round being delivered, the run events to
    /// schedule, and the apps whose runs were called back.
    out: Out,
    notices: Vec<AppNotice>,
    later: Vec<(Millis, RunEvent)>,
    touched: Vec<ApplicationId>,
}

impl World {
    /// A world over `cfg`, deterministically seeded.
    pub fn new(cfg: ClusterConfig, seed: u64) -> World {
        let epoch = Epoch::default_run();
        let root = SimRng::new(seed);
        World {
            cluster: Cluster::new(cfg, epoch.unix_ms, root.fork_named("cluster").seed()),
            logs: LogStore::new(epoch),
            runs: BTreeMap::new(),
            rng_sub: root.fork_named("apps"),
            jobs_submitted: 0,
            summaries: Vec::new(),
            out: Out::new(),
            notices: Vec::new(),
            later: Vec::new(),
            touched: Vec::new(),
        }
    }

    /// An engine over a fresh world on `cfg`, with the cluster started and
    /// `arrivals` queued, ready to run: what [`simulate`] runs.
    pub fn engine(
        cfg: ClusterConfig,
        seed: u64,
        arrivals: Vec<(Millis, JobSpec)>,
    ) -> Engine<World> {
        let mut world = World::new(cfg, seed);
        world.cluster.start(&mut world.out);
        world.write_lines();
        let start = std::mem::take(&mut world.out.events);
        let mut engine = Engine::new(world, seed ^ 0x5157_u64);
        for (t, e) in start {
            engine.schedule_at(t, Ev::Cluster(e));
        }
        for (at, spec) in arrivals {
            engine.schedule_at(at, Ev::Submit(Box::new(spec)));
        }
        engine
    }

    /// Jobs submitted so far.
    pub fn jobs_submitted(&self) -> u64 {
        self.jobs_submitted
    }

    fn do_submit(&mut self, now: Millis, spec: JobSpec) {
        self.jobs_submitted += 1;
        let mut rng = self.rng_sub.fork(self.jobs_submitted);
        let submission = match spec.framework {
            Framework::Spark => SparkRun::submission(&spec, &mut rng),
            Framework::MapReduce => MrRun::submission(&spec, &mut rng),
        };
        let app = self
            .cluster
            .submit_application(now, submission, &mut self.out);
        self.runs.insert(app, Run::new(spec, app, now, rng));
    }

    /// Render the lines written so far into the logs, in write order: the
    /// one place a simulated log line becomes text.
    fn write_lines(&mut self) {
        for line in self.out.lines.drain(..) {
            let source = line.source;
            let (ts, class, message) = line.into_parts();
            self.logs.info(source, ts, class, message);
        }
    }

    fn notice_app(n: &AppNotice) -> ApplicationId {
        match n {
            AppNotice::ContainersGranted { app, .. }
            | AppNotice::ProcessStarted { app, .. }
            | AppNotice::WorkDone { app, .. }
            | AppNotice::ProcessFailed { app, .. }
            | AppNotice::AttemptRetry { app, .. }
            | AppNotice::AppFailed { app } => *app,
        }
    }
}

impl Model for World {
    type Event = Ev;

    fn handle(&mut self, ev: Ev, ctx: &mut Ctx<Ev>) {
        let now = ctx.now();
        match ev {
            Ev::Cluster(cev) => self.cluster.handle(now, cev, &mut self.out),
            Ev::Submit(spec) => self.do_submit(now, *spec),
            Ev::Run(rev) => {
                let RunEvent::ExecutorRegistered { app, .. } = rev;
                if let Some(run) = self.runs.get_mut(&app) {
                    self.touched.push(app);
                    let mut wx = Wx {
                        now,
                        cluster: &mut self.cluster,
                        out: &mut self.out,
                        later: &mut self.later,
                    };
                    run.on_run_event(rev, &mut wx);
                }
            }
        }
        // Drain the notice cascade at this timestamp.
        while !self.out.notices.is_empty() {
            std::mem::swap(&mut self.out.notices, &mut self.notices);
            for n in self.notices.drain(..) {
                let app = Self::notice_app(&n);
                if let Some(run) = self.runs.get_mut(&app) {
                    self.touched.push(app);
                    let mut wx = Wx {
                        now,
                        cluster: &mut self.cluster,
                        out: &mut self.out,
                        later: &mut self.later,
                    };
                    run.on_notice(n, &mut wx);
                }
                // Notices for finished/unknown apps (stray work
                // completions after teardown) are dropped.
            }
        }
        self.write_lines();
        // Sweep finished runs into summaries, in app order. A run only
        // finishes inside one of its own callbacks, so the runs called
        // back this event are the only ones that can have finished.
        self.touched.sort_unstable();
        self.touched.dedup();
        for app in self.touched.drain(..) {
            if let Some(s) = self.runs.get(&app).and_then(Run::summary) {
                self.runs.remove(&app);
                self.summaries.push(s);
            }
        }
        for (t, e) in self.out.events.drain(..) {
            ctx.schedule_at(t, Ev::Cluster(e));
        }
        for (t, e) in self.later.drain(..) {
            ctx.schedule_at(t, Ev::Run(e));
        }
    }

    fn event_label(ev: &Ev) -> &'static str {
        match ev {
            Ev::Cluster(c) => match c {
                ClusterEvent::NmHeartbeat(_) => "nm_heartbeat",
                ClusterEvent::AmHeartbeat(_) => "am_heartbeat",
                ClusterEvent::CpuTick(..) => "cpu_tick",
                ClusterEvent::IoTick(..) => "io_tick",
                ClusterEvent::StoreTick(..) => "store_tick",
                ClusterEvent::RmAppSaved(_) => "rm_app_saved",
                ClusterEvent::RmAppAccepted(_) => "rm_app_accepted",
                ClusterEvent::OppAllocate { .. } => "opp_allocate",
                ClusterEvent::NmStartContainer(_) => "nm_start_container",
                ClusterEvent::NmHandoff(_) => "nm_handoff",
                ClusterEvent::RmAppFinalSaved(_) => "rm_app_final_saved",
                ClusterEvent::NodeLost(_) => "node_lost",
            },
            Ev::Submit(_) => "submit",
            Ev::Run(_) => "run",
        }
    }

    /// With the backlog empty an NM heartbeat assigns nothing, draws
    /// nothing, writes nothing and only re-arms itself.
    fn is_background(ev: &Ev) -> bool {
        matches!(ev, Ev::Cluster(ClusterEvent::NmHeartbeat(_)))
    }

    /// Nothing is waiting for a heartbeat to place it. Every other source
    /// of change (an arrival, a running AM's heartbeat, a resource tick,
    /// a scripted fault) is a queued foreground event.
    fn quiescent(&self) -> bool {
        self.cluster.backlog_len() == 0
    }
}

/// Convenience runner: build a world, schedule `arrivals`, and run until
/// the cluster goes quiet (only idle NodeManager heartbeats left), with
/// `horizon` as a safety net. Returns the log corpus and the
/// completed-job summaries.
pub fn simulate(
    cfg: ClusterConfig,
    seed: u64,
    arrivals: Vec<(Millis, JobSpec)>,
    horizon: Millis,
) -> (LogStore, Vec<JobSummary>) {
    let mut engine = World::engine(cfg, seed, arrivals);
    engine.run_until(horizon);
    let world = engine.into_model();
    (world.logs, world.summaries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;
    use logmodel::LogSource;

    fn run_one(spec: JobSpec) -> (LogStore, Vec<JobSummary>) {
        simulate(
            ClusterConfig::default(),
            42,
            vec![(Millis(100), spec)],
            Millis::from_mins(240),
        )
    }

    #[test]
    fn single_sql_job_completes_with_full_log_evidence() {
        let (logs, summaries) = run_one(profiles::spark_sql_default(2048.0, 4));
        assert_eq!(summaries.len(), 1, "job must complete");
        let s = &summaries[0];
        assert!(
            s.runtime() > Millis::from_secs(5),
            "runtime {}",
            s.runtime()
        );
        assert!(
            s.runtime() < Millis::from_mins(5),
            "runtime {}",
            s.runtime()
        );

        let app = s.app;
        // Table-I evidence, message by message.
        let rm_text = logs.text(LogSource::ResourceManager);
        for needle in [
            "from NEW_SAVING to SUBMITTED",  // 1
            "from SUBMITTED to ACCEPTED",    // 2
            "on event = ATTEMPT_REGISTERED", // 3
            "from NEW to ALLOCATED",         // 4
            "from ALLOCATED to ACQUIRED",    // 5
        ] {
            assert!(rm_text.contains(needle), "RM log missing {needle:?}");
        }
        let driver_text = logs.text(LogSource::Driver(app));
        for needle in [
            "Starting ApplicationMaster",      // 9
            "Registered with ResourceManager", // 10
            "START_ALLO",                      // 11
            "END_ALLO",                        // 12
            "Final app status: SUCCEEDED",
        ] {
            assert!(
                driver_text.contains(needle),
                "driver log missing {needle:?}"
            );
        }
        // Executor logs: 4 executors × (first log 13 + ≥1 task 14).
        let execs: Vec<_> = logs
            .sources()
            .filter(|s| matches!(s, LogSource::Executor(_)))
            .collect();
        assert_eq!(execs.len(), 4);
        for e in execs {
            let txt = logs.text(e);
            assert!(txt.contains("Started executor"), "missing 13 in {e:?}");
            assert!(txt.contains("Got assigned task"), "missing 14 in {e:?}");
        }
        // NM evidence exists on at least one node.
        assert!(logs
            .sources()
            .any(|s| matches!(s, LogSource::NodeManager(_))));
    }

    #[test]
    fn deterministic_across_identical_runs() {
        let (a_logs, a_sum) = run_one(profiles::spark_sql_default(2048.0, 4));
        let (b_logs, b_sum) = run_one(profiles::spark_sql_default(2048.0, 4));
        assert_eq!(a_sum.len(), b_sum.len());
        assert_eq!(a_sum[0].finished_at, b_sum[0].finished_at);
        let text = |logs: &LogStore| -> Vec<(LogSource, String)> {
            let sources = logs.sources();
            sources
                .map(|src| (src, logs.text(src).to_string()))
                .collect()
        };
        assert_eq!(text(&a_logs), text(&b_logs), "logs must be byte-identical");
    }

    #[test]
    fn different_seeds_differ() {
        let (_, a) = simulate(
            ClusterConfig::default(),
            1,
            vec![(Millis(100), profiles::spark_sql_default(2048.0, 4))],
            Millis::from_mins(240),
        );
        let (_, b) = simulate(
            ClusterConfig::default(),
            2,
            vec![(Millis(100), profiles::spark_sql_default(2048.0, 4))],
            Millis::from_mins(240),
        );
        assert_ne!(a[0].finished_at, b[0].finished_at);
    }

    #[test]
    fn wordcount_completes_faster_in_init_than_sql() {
        // Executor delay proxy: first task timestamp minus first executor
        // log timestamp should be smaller for wordcount (1 opened file vs
        // 8) — Fig 11-(a).
        fn exec_delay(spec: JobSpec) -> u64 {
            let (logs, sums) = run_one(spec);
            assert_eq!(sums.len(), 1);
            let mut first_exec_log = u64::MAX;
            let mut first_task = u64::MAX;
            for src in logs.sources() {
                if let LogSource::Executor(_) = src {
                    for r in logs.records(src).iter() {
                        if r.message.starts_with("Started executor") {
                            first_exec_log = first_exec_log.min(r.ts.0);
                        }
                        if r.message.starts_with("Got assigned task") {
                            first_task = first_task.min(r.ts.0);
                        }
                    }
                }
            }
            first_task - first_exec_log
        }
        let sql = exec_delay(profiles::spark_sql_default(2048.0, 4));
        let wc = exec_delay(profiles::spark_wordcount(2048.0, 4));
        assert!(
            sql > wc + 1500,
            "sql executor delay {sql} ms must exceed wordcount {wc} ms by the extra 7 files"
        );
    }

    #[test]
    fn parallel_user_init_shrinks_executor_delay() {
        let seq = profiles::spark_sql_default(2048.0, 4);
        let mut par = profiles::spark_sql_default(2048.0, 4);
        par.user_init.parallel = true;
        let (_, s1) = run_one(seq);
        let (_, s2) = run_one(par);
        assert!(
            s2[0].runtime() < s1[0].runtime(),
            "parallel init {} must beat sequential {}",
            s2[0].runtime(),
            s1[0].runtime()
        );
    }

    #[test]
    fn mapreduce_job_completes_with_per_task_containers() {
        let (logs, sums) = run_one(profiles::mr_wordcount(1024.0));
        assert_eq!(sums.len(), 1);
        // 8 maps + 1 reduce = 9 task containers, each with its own log.
        let exec_logs = logs
            .sources()
            .filter(|s| matches!(s, LogSource::Executor(_)))
            .count();
        assert_eq!(exec_logs, 9);
        let rm = logs.text(LogSource::ResourceManager);
        assert!(rm.contains("to FINISHED"));
    }

    #[test]
    fn overallocation_bug_leaves_unused_containers() {
        let mut spec = profiles::spark_sql_default(2048.0, 4);
        spec.overalloc_extra = 2;
        let (logs, sums) = run_one(spec);
        assert_eq!(sums.len(), 1);
        // 1 AM + 4 used executors + 2 released = 7 RM container histories,
        // but only 4 executor log files.
        let exec_logs = logs
            .sources()
            .filter(|s| matches!(s, LogSource::Executor(_)))
            .count();
        assert_eq!(exec_logs, 4);
        let rm = logs.text(LogSource::ResourceManager);
        let allocated = rm.matches("from NEW to ALLOCATED").count();
        assert_eq!(allocated, 7, "1 AM + 4 + 2 extras allocated");
    }

    #[test]
    fn concurrent_jobs_all_complete() {
        let arrivals: Vec<(Millis, JobSpec)> = (0..6)
            .map(|i| {
                (
                    Millis(1000 * i as u64),
                    profiles::spark_sql_default(2048.0, 4),
                )
            })
            .collect();
        let (_, sums) = simulate(
            ClusterConfig::default(),
            11,
            arrivals,
            Millis::from_mins(240),
        );
        assert_eq!(sums.len(), 6);
    }

    #[test]
    fn jvm_warmup_tax_lengthens_first_wave() {
        let mut cold = profiles::spark_sql_default(2048.0, 4);
        cold.warmup_factor = 2.5;
        let mut warm = profiles::spark_sql_default(2048.0, 4);
        warm.warmup_factor = 1.0;
        let (_, c) = run_one(cold);
        let (_, w) = run_one(warm);
        assert!(
            c[0].runtime() > w[0].runtime() + Millis(2_000),
            "warm-up tax must cost seconds: {} vs {}",
            c[0].runtime(),
            w[0].runtime()
        );
    }

    #[test]
    fn kmeans_interference_app_completes() {
        let (logs, sums) = run_one(profiles::kmeans(5));
        assert_eq!(sums.len(), 1);
        assert_eq!(sums[0].kind, "kmeans");
        // Kmeans is a Spark app: it has full Table-I evidence too.
        let an = sdchecker::analyze_store(&logs);
        assert!(an.delays[0].total_ms.is_some());
    }

    #[test]
    fn jvm_reuse_profile_is_faster_end_to_end() {
        let base = profiles::spark_sql_default(2048.0, 4);
        let warm = profiles::with_jvm_reuse(base.clone());
        let (base_logs, _) = run_one(base);
        let (warm_logs, _) = run_one(warm);
        let b = sdchecker::analyze_store(&base_logs);
        let w = sdchecker::analyze_store(&warm_logs);
        assert!(
            w.delays[0].total_ms.unwrap() < b.delays[0].total_ms.unwrap(),
            "JVM reuse must shorten the total scheduling delay"
        );
        assert!(
            w.delays[0].driver_ms.unwrap() < b.delays[0].driver_ms.unwrap(),
            "JVM reuse must shorten the driver delay"
        );
    }

    #[test]
    fn first_task_waits_for_registered_quorum() {
        // With min ratio 1.0 the first task must come after every executor
        // registered (first task ts > every executor first-log ts).
        let mut spec = profiles::spark_sql_default(2048.0, 4);
        spec.min_registered_ratio = 1.0;
        let (logs, _) = run_one(spec);
        let an = sdchecker::analyze_store(&logs);
        let d = &an.delays[0];
        let first_task = d.first_task.unwrap();
        for c in d.containers.iter().filter(|c| !c.is_am) {
            let fl = c.first_log.unwrap();
            assert!(
                fl <= first_task,
                "task assigned before executor {} was up",
                c.cid
            );
        }
        // cl (last executor up) must precede the first task under ratio 1.
        assert!(d.cl_ms.unwrap() <= d.total_ms.unwrap());
    }

    #[test]
    fn dfsio_saturates_and_slows_a_colocated_query() {
        // A lone SQL query vs the same query next to a 50-writer dfsIO:
        // the query must get slower (Fig 12 direction).
        let lone = run_one(profiles::spark_sql_default(2048.0, 4)).1[0].runtime();
        let (_, sums) = simulate(
            ClusterConfig::default(),
            42,
            vec![
                (Millis(100), profiles::dfsio(50, 20.0)),
                // Submit once the writers are up.
                (Millis(30_000), profiles::spark_sql_default(2048.0, 4)),
            ],
            Millis::from_mins(600),
        );
        let sql = sums
            .iter()
            .find(|s| s.kind == "spark-sql")
            .expect("query finished");
        assert!(
            sql.runtime() > lone,
            "under dfsIO the query ({}) must be slower than alone ({lone})",
            sql.runtime()
        );
    }

    #[test]
    fn am_retry_job_still_completes_and_is_slower() {
        // Attempt 1's AM is scripted to die at launch; attempt 2 must
        // replay the whole protocol, register as attempt 2, and finish —
        // later than the fault-free run.
        let (_, clean) = run_one(profiles::spark_sql_default(2048.0, 4));
        let cfg = ClusterConfig {
            faults: yarnsim::FaultConfig {
                scripted_am_failures: vec![(1, 1)],
                ..yarnsim::FaultConfig::default()
            },
            ..ClusterConfig::default()
        };
        let (logs, sums) = simulate(
            cfg,
            42,
            vec![(Millis(100), profiles::spark_sql_default(2048.0, 4))],
            Millis::from_mins(240),
        );
        assert_eq!(sums.len(), 1, "retried job must still complete");
        let s = &sums[0];
        assert!(!s.failed);
        assert!(
            s.finished_at > clean[0].finished_at,
            "retry must not speed the job up: {} vs clean {}",
            s.finished_at,
            clean[0].finished_at
        );
        let driver_text = logs.text(LogSource::Driver(s.app));
        assert!(
            driver_text.contains(&format!(
                "Registered with ResourceManager as {}",
                s.app.attempt(2)
            )),
            "driver must register under attempt 2"
        );
        let rm_text = logs.text(LogSource::ResourceManager);
        assert!(rm_text.contains("from LAUNCHED to FAILED on event = CONTAINER_FINISHED"));
        assert!(rm_text.contains("from FINISHING to FINISHED"));
    }

    #[test]
    fn am_exhaustion_marks_job_failed() {
        // Every localization fails: both attempts die and the summary
        // reports a FAILED application instead of hanging forever.
        let cfg = ClusterConfig {
            faults: yarnsim::FaultConfig {
                localization_failure_rate: 1.0,
                ..yarnsim::FaultConfig::default()
            },
            ..ClusterConfig::default()
        };
        let (logs, sums) = simulate(
            cfg,
            42,
            vec![(Millis(100), profiles::spark_sql_default(2048.0, 4))],
            Millis::from_mins(240),
        );
        assert_eq!(sums.len(), 1);
        assert!(sums[0].failed);
        let rm_text = logs.text(LogSource::ResourceManager);
        assert!(rm_text.contains("from FINAL_SAVING to FAILED"));
    }
}
