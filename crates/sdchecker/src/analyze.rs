//! The end-to-end SDchecker pipeline: log store → events → scheduling
//! graphs → delay decomposition → bug report.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use logmodel::{par, scan_dir, ApplicationId, LogStore, Parallelism, TsMs};

use crate::bugs::{find_unused_containers, UnusedContainer};
use crate::decompose::{decompose, AppDelays};
use crate::event::SchedEvent;
use crate::extract::{
    extract_store, gather_scans, Extracted, Extractor, ParseCoverage, StreamCursor, StreamScanner,
};
use crate::fleet::record_app_metrics;
use crate::graph::{build_graphs, SchedulingGraph};
use crate::throughput::{allocation_throughput, Throughput};

/// Full analysis result over one log corpus.
#[derive(Debug)]
pub struct Analysis {
    /// All extracted events, one application after another in id order,
    /// each application's in [`order_app_events`] order.
    pub events: Vec<SchedEvent>,
    /// Per-application scheduling graphs.
    pub graphs: BTreeMap<ApplicationId, SchedulingGraph>,
    /// Per-application delay decompositions, in graph (= ascending
    /// application-id) order. [`Analysis::delays_of`] relies on this
    /// ordering for its binary search.
    pub delays: Vec<AppDelays>,
    /// Allocated-but-never-used containers across all applications,
    /// grouped by application in `delays` order — the per-application
    /// counts are read off it in one walk.
    pub unused_containers: Vec<UnusedContainer>,
    /// Application display names mined from driver banners (e.g. the
    /// TPC-H query label), where available.
    pub app_names: BTreeMap<ApplicationId, String>,
    /// How much of the corpus the extraction rules understood, per log
    /// family (matched / unmatched / ignored lines).
    pub coverage: ParseCoverage,
    /// The newest record timestamp in the corpus — the log-time
    /// watermark batch analysis ends at. `None` for an empty corpus.
    /// The incremental pipeline's `finish()` retires at exactly this
    /// instant, which is what makes batch wide-event lines byte-equal
    /// to a tailed run's.
    pub watermark: Option<TsMs>,
}

impl Analysis {
    /// Delay record for one application. O(log n): `delays` mirrors the
    /// graph map's ascending application-id order (report rendering calls
    /// this per app, so a linear scan would make rendering quadratic).
    pub fn delays_of(&self, app: ApplicationId) -> Option<&AppDelays> {
        debug_assert!(self.delays.windows(2).all(|w| w[0].app < w[1].app));
        self.delays
            .binary_search_by(|d| d.app.cmp(&app))
            .ok()
            .map(|i| &self.delays[i])
    }

    /// Applications with a complete total-scheduling-delay measurement
    /// (Spark jobs that reached their first task).
    pub fn complete_delays(&self) -> impl Iterator<Item = &AppDelays> {
        self.delays.iter().filter(|d| d.total_ms.is_some())
    }

    /// Collect one component across complete apps, in ms, via an
    /// accessor.
    pub fn component_ms(&self, f: impl Fn(&AppDelays) -> Option<u64>) -> Vec<u64> {
        self.delays.iter().filter_map(f).collect()
    }

    /// All per-container values of a component, in ms. `workers_only`
    /// excludes AM containers.
    pub(crate) fn container_component_ms(
        &self,
        workers_only: bool,
        f: impl Fn(&crate::decompose::ContainerDelays) -> Option<u64>,
    ) -> Vec<u64> {
        self.delays
            .iter()
            .flat_map(|d| d.containers.iter())
            .filter(|c| !workers_only || !c.is_am)
            .filter_map(f)
            .collect()
    }

    /// Allocation throughput with the given peak window.
    pub fn allocation_throughput(&self, window_ms: u64) -> Throughput {
        allocation_throughput(&self.events, window_ms)
    }

    /// The mined display name of an application.
    pub fn name_of(&self, app: ApplicationId) -> Option<&str> {
        self.app_names.get(&app).map(String::as_str)
    }

    /// Group complete delay records by mined application name (per-query
    /// breakdowns for a TPC-H trace). Unnamed applications group under
    /// `"(unnamed)"`.
    pub fn by_name(&self) -> BTreeMap<&str, Vec<&AppDelays>> {
        let mut out: BTreeMap<&str, Vec<&AppDelays>> = BTreeMap::new();
        for d in self.complete_delays() {
            let name = self.name_of(d.app).unwrap_or("(unnamed)");
            out.entry(name).or_default().push(d);
        }
        out
    }

    /// Each application's unused-container count, in `delays` order.
    pub(crate) fn unused_per_app(&self) -> impl Iterator<Item = usize> + '_ {
        debug_assert!(self
            .unused_containers
            .windows(2)
            .all(|w| w[0].app <= w[1].app));
        let mut rest = self.unused_containers.iter().peekable();
        self.delays
            .iter()
            .map(move |d| std::iter::from_fn(|| rest.next_if(|u| u.app == d.app)).count())
    }
}

/// Run the pipeline over an in-memory store, sequentially.
pub fn analyze_store(store: &LogStore) -> Analysis {
    analyze_store_with(store, Parallelism::ONE)
}

/// Run the pipeline over an in-memory store with `par` worker threads.
///
/// Extraction shards one `Extractor` pass per log stream; each
/// application's events are then gathered from the streams and analyzed
/// on their own (see [`analyze_extracted`]). The result is identical for
/// every thread count.
pub fn analyze_store_with(store: &LogStore, par: Parallelism) -> Analysis {
    let _span = obs::span("analyze");
    analyze_extracted(extract_store(store, par), par)
}

/// Applications one pool item analyzes or makes the facts of
/// ([`crate::Report::pooled`]): a run is one message to a worker and one
/// back, each a wake-up of a parked thread, where an application alone
/// would cost a wake-up each (as `tail.rs`'s runs of groups do).
pub(crate) const APP_RUN: usize = 64;

/// Applications one pool item of [`crate::Report::write_documents`]
/// renders: fewer than [`APP_RUN`], because a rendered run is what a
/// document holds in memory at a time, times the items the pool may
/// hold ahead (`logmodel::par::stream`).
pub(crate) const RENDER_RUN: usize = 16;

/// The pipeline from the gathered events on, where directory and
/// in-memory analysis join: per application, over `par`, its events put
/// in [`order_app_events`] order where they lie and
/// [`analyze_app_events`] run on them — the unit the daemon retires
/// through. Applications go to the pool in runs of [`APP_RUN`], each
/// lent its slice of the events; the calling thread folds the results in
/// application-id order, so the per-application metrics are recorded in
/// that order whatever the thread count.
fn analyze_extracted(extracted: Extracted, par: Parallelism) -> Analysis {
    let Extracted {
        mut events,
        apps,
        coverage,
        app_names,
        watermark,
    } = extracted;
    let mut graphs = BTreeMap::new();
    let mut delays = Vec::with_capacity(apps.len());
    let mut unused_containers = Vec::new();
    {
        let _s = obs::span("analyze_apps");
        let mut runs = Vec::new();
        let mut rest = events.as_mut_slice();
        for run in apps.chunks(APP_RUN) {
            let len = run[run.len() - 1].1.end - run[0].1.start;
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(len);
            runs.push((run, head));
            rest = tail;
        }
        par::stream(
            par,
            &mut runs,
            |(_, events)| events.len() as u64,
            &mut vec![(); par.threads()],
            |_, (run, events), emit| {
                let base = run[0].1.start;
                let analyzed: Vec<_> = (run.iter())
                    .map(|(app, at)| {
                        let mine = &mut events[at.start - base..at.end - base];
                        order_app_events(mine);
                        (*app, analyze_app_events(*app, mine))
                    })
                    .collect();
                emit(analyzed);
            },
            |analyzed| {
                for (app, (graph, d, unused)) in analyzed {
                    record_app_metrics(&d, unused.len());
                    graphs.insert(app, graph);
                    delays.push(d);
                    unused_containers.extend(unused);
                }
            },
        );
    }
    Analysis {
        events,
        graphs,
        delays,
        unused_containers,
        app_names,
        coverage,
        watermark,
    }
}

/// Put one application's events in the order it is analyzed in: by
/// timestamp, ties by stream ([`SchedEvent::source`], in [`LogSource`]
/// order), ties within a stream kept as they are. That is the order
/// merging every stream by timestamp hands the application — what batch
/// analysis did before it gathered per application — and batch and the
/// daemon both call this for it.
///
/// [`LogSource`]: logmodel::LogSource
pub(crate) fn order_app_events(events: &mut [SchedEvent]) {
    events.sort_by(|a, b| a.ts.cmp(&b.ts).then_with(|| a.source().cmp(&b.source())));
}

/// Analyze one application from its (time-sorted) event slice: build
/// the scheduling graph, decompose delays, and scan for unused
/// containers. This is the unit both pipelines analyze an application
/// through — batch for every application of the corpus, the incremental
/// (tailing) pipeline as it retires each — which is what keeps their
/// per-app results identical.
pub fn analyze_app_events(
    app: ApplicationId,
    events: &[SchedEvent],
) -> (SchedulingGraph, AppDelays, Vec<UnusedContainer>) {
    let mut graphs = build_graphs(events);
    // Partitioned events build exactly one graph; if that invariant
    // ever breaks, analyze the app as event-free rather than abort
    // the whole corpus (partial-decomposition semantics).
    let graph = graphs
        .remove(&app)
        .unwrap_or_else(|| SchedulingGraph::empty(app));
    let delays = decompose(&graph);
    let unused = find_unused_containers(&graph);
    (graph, delays, unused)
}

/// Register `# HELP` strings for every metric family the pipeline can
/// emit, so Prometheus exposition is self-describing. Binaries call
/// this once at startup; it is idempotent.
pub fn describe_metrics() {
    obs::describe("ingest_files_total", "Log files discovered during ingest");
    obs::describe(
        "ingest_lines_total",
        "Ingested log lines by parse status (parsed/skipped)",
    );
    obs::describe("ingest_file_lines", "Lines per ingested log file");
    obs::describe(
        "extract_events_total",
        "Scheduling events extracted, by event kind",
    );
    obs::describe(
        "parse_lines_total",
        "Log lines classified by the extraction rules, by source family and status",
    );
    obs::describe("extract_stream_events", "Extracted events per log stream");
    obs::describe("analyze_apps_total", "Applications analyzed");
    obs::describe(
        "unused_containers_total",
        "Containers allocated by the RM but never used by the app (SPARK-21562 signature)",
    );
    obs::describe(
        "analyze_app_outcomes_total",
        "Applications that ended in a hard failure outcome (failed/killed)",
    );
    obs::describe(
        "analyze_retried_apps_total",
        "Applications whose ApplicationMaster was retried at least once",
    );
    obs::describe(
        "analyze_wasted_delay_ms_total",
        "Wall-clock time burned inside failed AM attempts, in ms",
    );
    obs::describe(
        "app_delay_ms",
        "Per-application scheduling-delay components, in ms",
    );
    obs::describe(
        "container_delay_ms",
        "Per-container scheduling-delay components, in ms",
    );
    obs::describe(
        "analyze_threads_requested",
        "Worker threads requested via --threads (or auto)",
    );
    obs::describe(
        "analyze_threads_effective",
        "Worker threads actually used after clamping to hardware parallelism",
    );
}

/// Run the pipeline over a log directory (the CLI path: what the paper's
/// tool does offline after collecting cluster and application logs),
/// sequentially.
pub fn analyze_dir(dir: &Path) -> io::Result<Analysis> {
    analyze_dir_with(dir, Parallelism::ONE)
}

/// [`analyze_dir`] with `par` worker threads: each log stream is
/// extracted from the bytes it was read from, a chunk at a time and in
/// file order, by a [`scan_dir`] scan — no record outlives its chunk, and
/// at most `par.threads()` chunks and their records are in memory at a
/// time — then each application's events are gathered and the
/// applications analyzed over the same pool ([`analyze_extracted`]). The scan
/// settles each stream's first record by timestamp, so a rotated or
/// out-of-order stream comes to what its time-sorted records would.
/// Identical output for every thread count, and to [`analyze_store_with`]
/// over [`LogStore::read_dir_with`].
pub fn analyze_dir_with(dir: &Path, par: Parallelism) -> io::Result<Analysis> {
    let ex = Extractor::new();
    let (_epoch, scans) = scan_dir(dir, par, |_, src| {
        StreamScanner::resume(&ex, src, StreamCursor::default())
    })?;
    let _span = obs::span("analyze");
    let extracted = {
        let _s = obs::span("gather");
        gather_scans(scans)
    };
    Ok(analyze_extracted(extracted, par))
}

#[cfg(test)]
pub mod tests {
    use super::*;
    use logmodel::{Epoch, LogSource, NodeId, TsMs};

    /// Append one complete application — SUBMITTED → … → first task →
    /// unregister, with known delays (total 10.9 s) — to `s`, its clock
    /// starting at `base`.
    fn push_one_app(s: &mut LogStore, seq: u32, base: u64) {
        let a = ApplicationId::new(s.epoch().unix_ms, seq);
        let am = a.attempt(1).container(1);
        let ex = a.attempt(1).container(2);
        let rm = LogSource::ResourceManager;
        s.info(
            rm,
            TsMs(base + 100),
            "RMAppImpl",
            format!("{a} State change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED"),
        );
        s.info(
            rm,
            TsMs(base + 120),
            "RMAppImpl",
            format!("{a} State change from SUBMITTED to ACCEPTED on event = APP_ACCEPTED"),
        );
        s.info(
            rm,
            TsMs(base + 150),
            "RMContainerImpl",
            format!("{am} Container Transitioned from NEW to ALLOCATED"),
        );
        s.info(
            rm,
            TsMs(base + 151),
            "RMContainerImpl",
            format!("{am} Container Transitioned from ALLOCATED to ACQUIRED"),
        );
        let nm = LogSource::NodeManager(NodeId(1));
        s.info(
            nm,
            TsMs(base + 160),
            "ContainerImpl",
            format!("Container {am} transitioned from NEW to LOCALIZING"),
        );
        s.info(
            nm,
            TsMs(base + 700),
            "ContainerImpl",
            format!("Container {am} transitioned from LOCALIZING to SCHEDULED"),
        );
        s.info(
            nm,
            TsMs(base + 705),
            "ContainerImpl",
            format!("Container {am} transitioned from SCHEDULED to RUNNING"),
        );
        let drv = LogSource::Driver(a);
        s.info(
            drv,
            TsMs(base + 1400),
            "ApplicationMaster",
            format!("Starting ApplicationMaster for tpch-q{seq:02}"),
        );
        s.info(
            drv,
            TsMs(base + 4400),
            "ApplicationMaster",
            "Registered with ResourceManager as attempt",
        );
        s.info(
            rm,
            TsMs(base + 4400),
            "RMAppImpl",
            format!("{a} State change from ACCEPTED to RUNNING on event = ATTEMPT_REGISTERED"),
        );
        s.info(
            drv,
            TsMs(base + 4401),
            "YarnAllocator",
            "START_ALLO Requesting 1 executor containers",
        );
        s.info(
            rm,
            TsMs(base + 4500),
            "RMContainerImpl",
            format!("{ex} Container Transitioned from NEW to ALLOCATED"),
        );
        s.info(
            rm,
            TsMs(base + 5400),
            "RMContainerImpl",
            format!("{ex} Container Transitioned from ALLOCATED to ACQUIRED"),
        );
        s.info(
            drv,
            TsMs(base + 5400),
            "YarnAllocator",
            "END_ALLO All 1 requested executor containers allocated",
        );
        s.info(
            nm,
            TsMs(base + 5420),
            "ContainerImpl",
            format!("Container {ex} transitioned from NEW to LOCALIZING"),
        );
        s.info(
            nm,
            TsMs(base + 5920),
            "ContainerImpl",
            format!("Container {ex} transitioned from LOCALIZING to SCHEDULED"),
        );
        s.info(
            nm,
            TsMs(base + 5925),
            "ContainerImpl",
            format!("Container {ex} transitioned from SCHEDULED to RUNNING"),
        );
        let exl = LogSource::Executor(ex);
        s.info(
            exl,
            TsMs(base + 6625),
            "CoarseGrainedExecutorBackend",
            "Started executor",
        );
        s.info(
            exl,
            TsMs(base + 11_000),
            "Executor",
            "Got assigned task 0 in stage 0.0 (TID 0)",
        );
        s.info(
            rm,
            TsMs(base + 40_100),
            "RMAppImpl",
            format!(
                "{a} State change from RUNNING to FINAL_SAVING on event = ATTEMPT_UNREGISTERED"
            ),
        );
    }

    /// A complete one-app corpus, shared with the incremental tests.
    pub(crate) fn one_app_corpus(seq: u32, base: u64) -> LogStore {
        let mut s = LogStore::new(Epoch::default_run());
        push_one_app(&mut s, seq, base);
        s
    }

    /// A miniature but complete two-app corpus, a minute apart.
    fn mini_corpus() -> LogStore {
        let mut s = one_app_corpus(1, 0);
        push_one_app(&mut s, 2, 60_000);
        s
    }

    #[test]
    fn pipeline_end_to_end() {
        let store = mini_corpus();
        let an = analyze_store(&store);
        assert_eq!(an.graphs.len(), 2);
        assert_eq!(an.delays.len(), 2);
        assert_eq!(an.complete_delays().count(), 2);
        for d in &an.delays {
            assert_eq!(d.total_ms, Some(10_900));
            assert_eq!(d.am_ms, Some(4_300));
            assert_eq!(d.driver_ms, Some(3_000));
            assert_eq!(d.executor_ms, Some(4_375));
            assert_eq!(d.alloc_ms, Some(999));
            assert_eq!(d.job_runtime_ms, Some(40_000));
        }
        assert!(an.unused_containers.is_empty());
    }

    #[test]
    fn component_collection() {
        let an = analyze_store(&mini_corpus());
        let totals = an.component_ms(|d| d.total_ms);
        assert_eq!(totals, vec![10_900, 10_900]);
        let locals = an.container_component_ms(true, |c| c.localization_ms);
        assert_eq!(locals, vec![500, 500]);
        let all_locals = an.container_component_ms(false, |c| c.localization_ms);
        assert_eq!(all_locals.len(), 4);
    }

    #[test]
    fn dir_roundtrip_matches_in_memory() {
        let store = mini_corpus();
        let dir = std::env::temp_dir().join(format!("sdchecker_an_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        store.write_dir(&dir).unwrap();
        let from_dir = analyze_dir(&dir).unwrap();
        let in_mem = analyze_store(&store);
        assert_eq!(from_dir.events.len(), in_mem.events.len());
        assert_eq!(from_dir.delays.len(), in_mem.delays.len());
        for (a, b) in from_dir.delays.iter().zip(in_mem.delays.iter()) {
            assert_eq!(a.total_ms, b.total_ms);
            assert_eq!(a.containers.len(), b.containers.len());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn names_mined_and_grouped() {
        let an = analyze_store(&mini_corpus());
        assert_eq!(an.app_names.len(), 2);
        assert_eq!(
            an.name_of(ApplicationId::new(
                an.app_names.keys().next().unwrap().cluster_ts,
                1
            )),
            Some("tpch-q01")
        );
        let by_name = an.by_name();
        assert_eq!(by_name.len(), 2);
        assert!(by_name.contains_key("tpch-q01"));
        assert!(by_name.contains_key("tpch-q02"));
        assert_eq!(by_name["tpch-q01"].len(), 1);
    }

    #[test]
    fn coverage_rides_along_and_is_thread_count_independent() {
        use logmodel::schema::Family;
        let store = mini_corpus();
        let an = analyze_store(&store);
        assert!(an.coverage.get(Family::ResourceManager).matched > 0);
        assert!(an.coverage.get(Family::NodeManager).matched > 0);
        assert_eq!(an.coverage.total().unmatched, 0);
        let par = analyze_store_with(&store, Parallelism::new(4));
        assert_eq!(par.coverage, an.coverage);
    }

    #[test]
    fn throughput_over_corpus() {
        let an = analyze_store(&mini_corpus());
        let t = an.allocation_throughput(1000);
        assert_eq!(t.total, 4); // 2 apps × (AM + executor)
    }

    #[test]
    fn outcome_accounting_conserves_every_app() {
        use crate::decompose::AppOutcome;
        let an = analyze_store(&mini_corpus());
        let report = crate::Report::new(&an);
        let f = &report.fleet;
        assert_eq!(f.outcomes.values().sum::<u64>(), an.delays.len() as u64);
        assert_eq!(f.outcome(AppOutcome::Completed), 2);
        assert_eq!((f.retired, f.complete), (2, 2));
        assert_eq!((f.retried_apps, f.wasted_ms_total), (0, 0));
    }
}
