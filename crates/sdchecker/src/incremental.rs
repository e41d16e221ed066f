//! Incremental analysis: consume records as they arrive, retire
//! applications as their evidence completes.
//!
//! The batch pipeline reads a finished corpus a source at a time, keeps
//! every extracted event until every stream is scanned, gathers each
//! application's and analyzes at end-of-run. An always-on service cannot
//! do that — its input never ends. [`IncrementalAnalyzer`] restructures
//! the same pipeline around per-application lifecycle:
//!
//! 1. **Ingest** — a stream's records are scanned a run at a time by the
//!    scanner batch reads a stream with, resumed from the stream's
//!    [`StreamCursor`], so the first record, the unmatched example and
//!    the banner name are settled by timestamp here too, however a
//!    stream's lines were ordered. A poll's workers make the scans
//!    ([`crate::tail::DirTailer::poll_with`]);
//!    [`IncrementalAnalyzer::ingest`] makes one of a single record. Each
//!    scan is folded in on the calling thread: its events are bucketed
//!    by owning application, and a FIRST_LOG that moved to an earlier
//!    record is replaced where it waits, or counted late once its
//!    application has retired.
//! 2. **Retire** — once an application shows terminal evidence
//!    (unregistered / finished / failed / killed) and the record
//!    watermark has advanced `settle_ms` past it — long enough for the
//!    cross-stream stragglers of that app (executor task lines, NM DONE
//!    transitions) to land — its events are put in order by
//!    `order_app_events` (timestamp, then stream) and pushed through
//!    [`analyze_app_events`]: what the batch pass does per application,
//!    so a retired app's delays are **identical** to what a batch run
//!    over the finished corpus computes. An idle timeout (measured in *log
//!    time* against the watermark, so it is deterministic under replay)
//!    force-retires stragglers whose streams simply stop, classifying
//!    them `Truncated` exactly as batch does for a cut-off corpus.
//! 3. **Aggregate** — retirement adds the app to the fleet fold
//!    ([`crate::fleet`]: component sketches, outcome counts,
//!    critical-path blame — the fold a batch [`crate::Report`] runs over
//!    a whole corpus), then *drops the raw events*: memory is bounded by
//!    the number of in-flight applications, not the length of the run.
//!
//! [`IncrementalAnalyzer::live_report_json`] writes the fleet's
//! component sketches, blame and coverage with the batch report's own
//! writers, so a dashboard scraping the daemon reads the bytes a batch
//! report over the same (finished) corpus would show — apart from the
//! exemplars only the live sketches keep.

use std::collections::{BTreeMap, BTreeSet};

use logmodel::{ApplicationId, LogRecord, LogSource, TsMs};
use obs::json::{document, Layout, Null};
use obs::json_fields;

use crate::analyze::{analyze_app_events, order_app_events};
use crate::checkpoint::CkptError;
use crate::decompose::{AppDelays, AppOutcome};
use crate::event::{count_event_kinds, EventKind, SchedEvent};
use crate::exemplars::{PromotedApp, TailExemplars};
use crate::extract::{
    CoverageCounts, Extractor, Outcome, ParseCoverage, StreamCursor, StreamScanner, TailScan,
};
use crate::fleet::{push_coverage, record_app_metrics, AppFacts, FleetAgg};
use crate::tail::{TailLag, TailSink, TailStats};
use crate::wide::push_wide_event;
use crate::wire::{Dec, Decode, Enc, Encode};

/// Retirement policy for the incremental pipeline.
#[derive(Debug, Clone, Copy)]
pub struct IncrementalConfig {
    /// How far (in log-time ms) the record watermark must advance past an
    /// application's terminal event before it retires — the grace window
    /// for cross-stream stragglers of that application.
    pub settle_ms: u64,
    /// Force-retire an application whose streams have been silent for
    /// this long in log time (0 disables). Without terminal evidence it
    /// classifies as `Truncated`, exactly as batch does for a corpus
    /// that stops mid-run.
    pub idle_timeout_ms: u64,
    /// Worst-apps-per-component slots in the tail-exemplar reservoir
    /// (0 disables promotion; see [`TailExemplars`]).
    pub exemplar_slots: usize,
}

impl Default for IncrementalConfig {
    fn default() -> IncrementalConfig {
        IncrementalConfig {
            settle_ms: 2_000,
            idle_timeout_ms: 60_000,
            exemplar_slots: 3,
        }
    }
}

/// One in-flight application's buffered evidence.
#[derive(Debug, Default)]
struct AppState {
    events: Vec<SchedEvent>,
    /// Latest terminal-event timestamp (retirement anchor).
    terminal_ts: Option<TsMs>,
    /// Latest event timestamp (idle detection).
    last_event_ts: Option<TsMs>,
}

impl AppState {
    /// Buffer one event, folding it into the retirement anchors.
    fn push(&mut self, ev: SchedEvent) {
        if ev.kind.is_terminal() {
            self.terminal_ts = Some(self.terminal_ts.map_or(ev.ts, |t| t.max(ev.ts)));
        }
        self.last_event_ts = Some(self.last_event_ts.map_or(ev.ts, |t| t.max(ev.ts)));
        self.events.push(ev);
    }

    /// Put `first`, its stream's FIRST_LOG moved to an earlier record, in
    /// place of the one buffered, and re-fold the idle anchor as a
    /// restore from checkpoint would.
    fn move_first_log(&mut self, first: SchedEvent) {
        for ev in &mut self.events {
            if ev.kind == first.kind && ev.source() == first.source() {
                *ev = first;
            }
        }
        self.last_event_ts = self.events.iter().map(|ev| ev.ts).max();
    }
}

/// An in-flight app's checkpoint is its events, verbatim and in ingest
/// order (so the retirement-time stable sort reproduces exactly); the
/// anchors are re-folded from them on restore.
impl Encode for AppState {
    fn encode(&self, e: &mut Enc) {
        let AppState {
            events,
            terminal_ts: _,   // max-fold over `events`
            last_event_ts: _, // max-fold over `events`
        } = self;
        events.encode(e);
    }
}

impl Decode for AppState {
    fn decode(d: &mut Dec<'_>) -> Result<AppState, CkptError> {
        let mut state = AppState::default();
        for ev in d.get::<Vec<SchedEvent>>()? {
            state.push(ev);
        }
        Ok(state)
    }
}

/// A retired application: the per-app analysis the batch pipeline would
/// have produced for it.
#[derive(Debug)]
pub struct RetiredApp {
    /// The application.
    pub app: ApplicationId,
    /// Display name mined from the driver banner, if seen.
    pub name: Option<String>,
    /// Full delay decomposition (identical to the batch result).
    pub delays: AppDelays,
    /// Allocated-but-never-used containers (SPARK-21562 signature).
    pub unused: usize,
    /// Whether the idle timeout (rather than terminal evidence) forced
    /// this retirement.
    pub forced: bool,
    /// The **logical** retirement instant, in log time: the earliest
    /// watermark at which this app's retirement became due (terminal +
    /// settle, last event + idle timeout, or the final watermark for
    /// [`IncrementalAnalyzer::finish`]). A pure function of the corpus —
    /// never of poll cadence — which is what keeps the wide-event file
    /// byte-identical across replays.
    pub retire_ms: TsMs,
    /// The canonical `wide-events-v1` line for this retirement (no
    /// trailing newline).
    pub wide_event: String,
}

/// The incremental ingest → extract → analyze pipeline. See the module
/// docs for the lifecycle.
pub struct IncrementalAnalyzer {
    ex: Extractor,
    cfg: IncrementalConfig,
    cursors: BTreeMap<LogSource, StreamCursor>,
    cov: ParseCoverage,
    apps: BTreeMap<ApplicationId, AppState>,
    names: BTreeMap<ApplicationId, String>,
    retired_ids: BTreeSet<ApplicationId>,
    late_events: u64,
    watermark: Option<TsMs>,
    fleet: FleetAgg,
    exemplars: TailExemplars,
    /// What the scans applied since the last sweep ended yielded, for
    /// the registry: recorded once a sweep, not once a scan.
    tally: Tally,
}

/// Events per kind and lines per family and coverage status, summed
/// over a sweep's scans.
#[derive(Default)]
struct Tally {
    per_kind: [u64; EventKind::ALL.len()],
    per_family: BTreeMap<logmodel::schema::Family, CoverageCounts>,
}

impl Default for IncrementalAnalyzer {
    fn default() -> Self {
        Self::new(IncrementalConfig::default())
    }
}

impl IncrementalAnalyzer {
    /// A fresh pipeline with the given retirement policy.
    pub fn new(cfg: IncrementalConfig) -> IncrementalAnalyzer {
        IncrementalAnalyzer {
            ex: Extractor::new(),
            cfg,
            cursors: BTreeMap::new(),
            cov: ParseCoverage::default(),
            apps: BTreeMap::new(),
            names: BTreeMap::new(),
            retired_ids: BTreeSet::new(),
            late_events: 0,
            watermark: None,
            fleet: FleetAgg::new(true),
            exemplars: TailExemplars::new(cfg.exemplar_slots),
            tally: Tally::default(),
        }
    }

    /// Consume one record as a poll consumes a stream's: scanned on from
    /// the stream's cursor, the scan folded in and recorded as a sweep's
    /// scans are. Returns the record's parse outcome, read off the scan.
    pub fn ingest(&mut self, source: LogSource, r: &LogRecord) -> Outcome {
        let cursor = self.cursors.get(&source).copied().unwrap_or_default();
        let mut scanner = StreamScanner::resume(&self.ex, source, cursor);
        scanner.step_all(&[r.as_ref()]);
        let scan = scanner.end();
        let outcome = scan.outcome();
        self.apply_scan(scan);
        self.swept();
        outcome
    }

    /// Fold in a stream's scan: the stream's cursor moves on, its events
    /// are bucketed (or counted late), its FIRST_LOG moves made where
    /// the event waits, and its example, name and coverage kept.
    fn apply_scan(&mut self, scan: TailScan) {
        let TailScan {
            scan,
            cursor,
            moves,
            ..
        } = scan;
        let source = scan.source;
        self.cursors.insert(source, cursor);
        self.watermark = self.watermark.max(scan.max_ts);
        let recording = obs::enabled();
        for ev in scan.events {
            if recording {
                self.tally.per_kind[ev.kind.index()] += 1;
            }
            if self.retired_ids.contains(&ev.app) {
                // Evidence arrived after the app retired (settle window
                // too short, or a very late stream). Counted, not
                // re-analyzed: retirement is final.
                self.late_events += 1;
                continue;
            }
            self.apps.entry(ev.app).or_default().push(ev);
        }
        // A move replaces the one FIRST_LOG its stream made, whichever
        // look made it: the same whether made here or at its record.
        for first in moves {
            match self.apps.get_mut(&first.app) {
                Some(state) => state.move_first_log(first),
                None => self.late_events += 1,
            }
        }
        if let Some(message) = &scan.example {
            self.cov.offer_unmatched_example(source, message);
        }
        if let (LogSource::Driver(app), Some(name)) = (source, scan.name) {
            if !self.retired_ids.contains(&app) {
                self.names.insert(app, name);
            }
        }
        self.cov.record(source.family(), scan.cov);
        if recording {
            let family = self.tally.per_family.entry(source.family()).or_default();
            family.add(scan.cov);
        }
    }

    /// Retire every application whose evidence is complete (terminal
    /// event + settle window) or whose streams have gone idle past the
    /// timeout.
    ///
    /// Each retirement is stamped with its **logical due time** — the
    /// earliest watermark that could have retired it — and the batch is
    /// returned sorted by `(due, app)`. Both are pure functions of the
    /// corpus, so the retirement *sequence* (and everything derived
    /// from it: wide-event file order, exemplar offers, alert samples)
    /// is identical however the input was chunked or how often this
    /// was polled.
    pub fn drain_ready(&mut self) -> Vec<RetiredApp> {
        let Some(watermark) = self.watermark else {
            return Vec::new();
        };
        let mut ready: Vec<(TsMs, ApplicationId, bool)> = self
            .apps
            .iter()
            .filter_map(|(app, state)| {
                // Candidate due times; `saturating_add` keeps
                // `u64::MAX` windows meaning "never".
                let settled = state
                    .terminal_ts
                    .map(|t| t.0.saturating_add(self.cfg.settle_ms))
                    .filter(|&due| watermark.0 >= due);
                let idle = if self.cfg.idle_timeout_ms > 0 {
                    state
                        .last_event_ts
                        .map(|t| t.0.saturating_add(self.cfg.idle_timeout_ms))
                        .filter(|&due| watermark.0 >= due)
                } else {
                    None
                };
                // Earliest wins; a tie prefers the terminal (unforced)
                // reading.
                match (settled, idle) {
                    (Some(s), Some(i)) if i < s => Some((TsMs(i), *app, true)),
                    (Some(s), _) => Some((TsMs(s), *app, false)),
                    (None, Some(i)) => Some((TsMs(i), *app, true)),
                    (None, None) => None,
                }
            })
            .collect();
        ready.sort_by_key(|&(due, app, _)| (due, app));
        ready
            .into_iter()
            .map(|(due, app, forced)| self.retire(app, forced, due))
            .collect()
    }

    /// Retire everything still in flight, regardless of settle windows,
    /// stamped at the final watermark. Call at shutdown: the result
    /// matches batch analysis of the corpus as it stands (including its
    /// wide-event lines — batch stamps the same watermark).
    pub fn finish(&mut self) -> Vec<RetiredApp> {
        let watermark = self.watermark.unwrap_or(TsMs::ZERO);
        let remaining: Vec<ApplicationId> = self.apps.keys().copied().collect();
        remaining
            .into_iter()
            .map(|app| self.retire(app, false, watermark))
            .collect()
    }

    fn retire(&mut self, app: ApplicationId, forced: bool, retire_ms: TsMs) -> RetiredApp {
        let mut state = self.apps.remove(&app).unwrap_or_default();
        self.retired_ids.insert(app);
        // Each stream's events arrived in record order, as batch gathers
        // them; the one order function settles the rest for both.
        order_app_events(&mut state.events);
        let (graph, delays, unused) = analyze_app_events(app, &state.events);
        let name = self.names.remove(&app);
        let facts = AppFacts::new(&graph, &delays, name.as_deref(), unused.len());
        self.fleet.add(&facts, forced);
        record_app_metrics(&delays, unused.len());
        let mut wide_event = String::with_capacity(512);
        push_wide_event(&mut wide_event, &facts, forced, retire_ms);
        // Offer the app to the tail reservoir: if it ranks, its events
        // survive retirement (promoted for on-demand traces); otherwise
        // they are dropped here, as ever.
        self.exemplars.offer(PromotedApp {
            app,
            name: name.clone(),
            delays: delays.clone(),
            critical: facts.critical,
            events: state.events,
            forced,
            retire_ms,
        });
        RetiredApp {
            app,
            name,
            delays,
            unused: unused.len(),
            forced,
            retire_ms,
            wide_event,
        }
    }

    /// Applications currently buffered (memory is proportional to this).
    pub fn in_flight(&self) -> usize {
        self.apps.len()
    }

    /// Whether `app` is buffered: some record has named it and it has not
    /// retired. These are the applications whose next line can still
    /// change an answer.
    pub fn is_in_flight(&self, app: ApplicationId) -> bool {
        self.apps.contains_key(&app)
    }

    /// Applications retired so far.
    pub fn retired(&self) -> u64 {
        self.fleet.retired
    }

    /// Retired applications that classified as `Truncated`.
    pub fn truncated(&self) -> u64 {
        self.fleet.outcome(AppOutcome::Truncated)
    }

    /// Retired applications with a complete total-delay measurement.
    pub fn complete(&self) -> u64 {
        self.fleet.complete
    }

    /// Events that arrived for an already-retired application.
    pub fn late_events(&self) -> u64 {
        self.late_events
    }

    /// The newest record timestamp ingested.
    pub fn watermark(&self) -> Option<TsMs> {
        self.watermark
    }

    /// Parse coverage over everything ingested so far.
    pub fn coverage(&self) -> &ParseCoverage {
        &self.cov
    }

    /// Events currently buffered across all in-flight applications.
    pub fn events_buffered(&self) -> usize {
        self.apps.values().map(|s| s.events.len()).sum()
    }

    /// The tail-exemplar reservoir: worst retired apps per component,
    /// evidence retained. See [`TailExemplars`].
    pub fn exemplars(&self) -> &TailExemplars {
        &self.exemplars
    }

    /// Rebuild a pipeline from its checkpoint under `cfg` (which must be
    /// the configuration it was saved under — the checkpoint layer
    /// fingerprints that).
    pub(crate) fn decode(
        d: &mut Dec<'_>,
        cfg: IncrementalConfig,
    ) -> Result<IncrementalAnalyzer, CkptError> {
        let cursors = d.get()?;
        let (cov, apps, names, retired_ids) = d.get()?;
        let (late_events, watermark, fleet) = d.get()?;
        let exemplars = TailExemplars::decode(d, cfg.exemplar_slots)?;
        Ok(IncrementalAnalyzer {
            cursors,
            cov,
            apps,
            names,
            retired_ids,
            late_events,
            watermark,
            fleet,
            exemplars,
            ..IncrementalAnalyzer::new(cfg)
        })
    }

    /// The current fleet snapshot as one JSON document (schema
    /// `sdcheckerd-report-v1`). Its component sketches, blame and
    /// `coverage` section are written by the batch report's writers;
    /// around them sits live-only state: in-flight counts, outcome
    /// tallies, and (when provided) tailing lag.
    pub fn live_report_json(&self, tail: Option<(&TailLag, &TailStats)>) -> String {
        let f = &self.fleet;
        document(0, Layout::Block, |doc| {
            doc.field("schema", "sdcheckerd-report-v1");
            let mut fleet = doc.obj("fleet", Layout::Block);
            json_fields!(fleet, "applications" => f.retired + self.apps.len() as u64,
                "retired" => f.retired, "in_flight" => self.apps.len(), "complete" => f.complete,
                "forced_retirements" => f.forced, "late_events" => self.late_events);
            let mut outcomes = fleet.obj("outcomes", Layout::Inline);
            for (label, n) in &f.outcomes {
                outcomes.field(*label, n);
            }
            drop(outcomes);
            json_fields!(fleet, "retried_apps" => f.retried_apps,
                "wasted_ms_total" => f.wasted_ms_total, "unused_containers" => f.unused_containers,
                "events_analyzed" => f.events_total);
            f.push_sections(&mut fleet);
            drop(fleet);
            push_coverage(doc, &self.cov);
            doc.field("watermark_ms", self.watermark);
            let Some((lag, stats)) = tail else {
                doc.field("tail", Null);
                return;
            };
            let mut obj = doc.obj("tail", Layout::Inline);
            json_fields!(obj, "sources" => lag.sources, "lag_bytes" => lag.bytes,
                "lag_ms" => lag.max_ms, "polls" => stats.polls, "read_bytes" => stats.read_bytes,
                "parsed_lines" => stats.parsed_lines, "skipped_lines" => stats.skipped_lines,
                "resets" => stats.resets, "removed_files" => stats.removed_files);
        })
    }
}

/// Record one family's lines per coverage status. A series appears
/// with its first line, as it always has.
fn record_lines(family: logmodel::schema::Family, cov: CoverageCounts) {
    for (status, n) in [
        ("matched", cov.matched),
        ("unmatched", cov.unmatched),
        ("anomalous", cov.anomalous),
        ("ignored", cov.ignored),
    ] {
        if n > 0 {
            obs::count_labeled(
                "parse_lines_total",
                &[("source", family.name()), ("status", status)],
                n,
            );
        }
    }
}

/// The analyzer as the tailer's sink: an application is live while it
/// is buffered, and each stream's scan resumes from the stream's cursor.
impl TailSink for IncrementalAnalyzer {
    /// An application the analyzer is buffering can still change what
    /// it retires as; one it has retired, or never heard of, can wait
    /// for its turn.
    fn is_live(&self, app: ApplicationId) -> bool {
        self.is_in_flight(app)
    }

    fn cursors(&self, owner: Option<ApplicationId>) -> Vec<(LogSource, StreamCursor)> {
        let copy = |(&source, &cursor): (&LogSource, &StreamCursor)| (source, cursor);
        let first_app = ApplicationId::new(0, 0);
        let Some(app) = owner else {
            // The cluster's streams sort before every application's.
            return self
                .cursors
                .range(..LogSource::Driver(first_app))
                .map(copy)
                .collect();
        };
        let container = |attempt, seq| logmodel::ContainerId {
            attempt: logmodel::AppAttemptId { app, attempt },
            seq,
        };
        let executors = LogSource::Executor(container(0, 0))
            ..=LogSource::Executor(container(u32::MAX, u64::MAX));
        let driver = self.cursors.get_key_value(&LogSource::Driver(app));
        driver
            .into_iter()
            .chain(self.cursors.range(executors))
            .map(copy)
            .collect()
    }

    fn apply(&mut self, scan: TailScan) {
        self.apply_scan(scan);
    }

    /// The sweep's scans' events and lines, recorded in one go.
    fn swept(&mut self) {
        let Tally {
            per_kind,
            per_family,
        } = std::mem::take(&mut self.tally);
        count_event_kinds(&per_kind);
        for (family, cov) in per_family {
            record_lines(family, cov);
        }
    }
}

impl Encode for IncrementalAnalyzer {
    fn encode(&self, e: &mut Enc) {
        let IncrementalAnalyzer {
            ex: _,  // compiled from the static rule table
            cfg: _, // configuration, fingerprinted in `meta`
            cursors,
            cov,
            apps,
            names,
            retired_ids,
            late_events,
            watermark,
            fleet,
            exemplars,
            tally: _, // empty between sweeps
        } = self;
        cursors.encode(e);
        (cov, apps, names, retired_ids).encode(e);
        (late_events, watermark, fleet, exemplars).encode(e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze_store;
    use crate::analyze::tests::one_app_corpus;
    use crate::decompose::APP_COMPONENTS;
    use logmodel::schema::Family;
    use logmodel::{Epoch, LogStore};

    fn assert_delays_eq(a: &AppDelays, b: &AppDelays) {
        for (name, f) in APP_COMPONENTS.iter() {
            assert_eq!(f(a), f(b), "component {name}");
        }
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.attempts, b.attempts);
        assert_eq!(a.wasted_ms, b.wasted_ms);
        assert_eq!(a.containers.len(), b.containers.len());
    }

    #[test]
    fn retired_app_matches_batch_analysis() {
        let store = one_app_corpus(1, 0);
        let batch = analyze_store(&store);
        let mut inc = IncrementalAnalyzer::new(IncrementalConfig {
            settle_ms: 0,
            idle_timeout_ms: 0,
            exemplar_slots: 3,
        });
        for (src, r) in store.records_by_time() {
            inc.ingest(src, &r.to_record());
        }
        let retired = inc.drain_ready();
        assert_eq!(retired.len(), 1);
        assert_eq!(inc.in_flight(), 0);
        assert_eq!(inc.events_buffered(), 0, "events dropped at retirement");
        assert_delays_eq(&retired[0].delays, &batch.delays[0]);
        assert_eq!(retired[0].name.as_deref(), Some("tpch-q01"));
        assert_eq!(retired[0].unused, batch.unused_containers.len());
        assert!(!retired[0].forced);
        assert_eq!(inc.coverage(), &batch.coverage);
        assert_eq!(inc.complete(), 1);
        assert_eq!(inc.truncated(), 0);
    }

    #[test]
    fn settle_window_defers_retirement_until_watermark_passes() {
        let store = one_app_corpus(1, 0);
        let mut inc = IncrementalAnalyzer::new(IncrementalConfig {
            settle_ms: 5_000,
            idle_timeout_ms: 0,
            exemplar_slots: 3,
        });
        for (src, r) in store.records_by_time() {
            inc.ingest(src, &r.to_record());
        }
        // Terminal at 40_100, watermark at 40_100: settle not elapsed.
        assert!(inc.drain_ready().is_empty());
        assert_eq!(inc.in_flight(), 1);
        // A later record (any stream) advances the watermark past it.
        inc.ingest(
            LogSource::ResourceManager,
            &logmodel::LogRecord::new(
                TsMs(45_200),
                logmodel::Level::Info,
                "CapacityScheduler",
                "tick".to_string(),
            ),
        );
        let retired = inc.drain_ready();
        assert_eq!(retired.len(), 1);
        assert_eq!(retired[0].delays.outcome, AppOutcome::Completed);
    }

    #[test]
    fn idle_timeout_force_retires_truncated_stragglers() {
        let epoch = Epoch::default_run();
        let a = ApplicationId::new(epoch.unix_ms, 7);
        let mut inc = IncrementalAnalyzer::new(IncrementalConfig {
            settle_ms: 0,
            idle_timeout_ms: 10_000,
            exemplar_slots: 3,
        });
        inc.ingest(
            LogSource::ResourceManager,
            &logmodel::LogRecord::new(
                TsMs(100),
                logmodel::Level::Info,
                "RMAppImpl",
                format!("{a} State change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED"),
            ),
        );
        assert!(inc.drain_ready().is_empty(), "not idle yet");
        // The stream goes quiet; unrelated chatter moves the watermark.
        inc.ingest(
            LogSource::ResourceManager,
            &logmodel::LogRecord::new(
                TsMs(20_000),
                logmodel::Level::Info,
                "CapacityScheduler",
                "tick".to_string(),
            ),
        );
        let retired = inc.drain_ready();
        assert_eq!(retired.len(), 1);
        assert!(retired[0].forced);
        assert_eq!(retired[0].delays.outcome, AppOutcome::Truncated);
        assert_eq!(inc.truncated(), 1);
    }

    #[test]
    fn late_events_for_retired_apps_are_counted_not_reanalyzed() {
        let store = one_app_corpus(1, 0);
        let mut inc = IncrementalAnalyzer::new(IncrementalConfig {
            settle_ms: 0,
            idle_timeout_ms: 0,
            exemplar_slots: 3,
        });
        for (src, r) in store.records_by_time() {
            inc.ingest(src, &r.to_record());
        }
        assert_eq!(inc.drain_ready().len(), 1);
        let a = ApplicationId::new(Epoch::default_run().unix_ms, 1);
        inc.ingest(
            LogSource::ResourceManager,
            &logmodel::LogRecord::new(
                TsMs(50_000),
                logmodel::Level::Info,
                "RMAppImpl",
                format!("{a} State change from SUBMITTED to ACCEPTED on event = APP_ACCEPTED"),
            ),
        );
        assert_eq!(inc.late_events(), 1);
        assert_eq!(inc.in_flight(), 0);
        assert_eq!(inc.retired(), 1);
    }

    /// A driver record earlier than the one FIRST_LOG sits on, read once
    /// its application has retired, moves nothing that retired: it is
    /// one late event, and only the coverage it is counted in changes.
    #[test]
    fn an_earlier_first_record_after_retirement_is_one_late_event() {
        let store = one_app_corpus(1, 0);
        let mut inc = IncrementalAnalyzer::new(IncrementalConfig {
            settle_ms: 0,
            idle_timeout_ms: 0,
            exemplar_slots: 3,
        });
        for (src, r) in store.records_by_time() {
            inc.ingest(src, &r.to_record());
        }
        assert_eq!(inc.drain_ready().len(), 1);
        let fleet = |inc: &IncrementalAnalyzer| {
            let doc = obs::json::parse(&inc.live_report_json(None)).unwrap();
            let Some(obs::json::Json::Obj(members)) = doc.get("fleet").cloned() else {
                panic!("fleet section");
            };
            members
                .into_iter()
                .filter(|(k, _)| k != "late_events")
                .collect::<Vec<_>>()
        };
        let (before, exemplars) = (fleet(&inc), inc.exemplars().index_json());
        let driver = inc.coverage().get(Family::Driver);

        // The driver's first record is at 1 400 ms; this one is earlier,
        // and FIRST_LOG is all it would make.
        let a = ApplicationId::new(store.epoch().unix_ms, 1);
        let early = LogRecord::new(TsMs(1_000), logmodel::Level::Info, "X", "chatter");
        assert_eq!(inc.ingest(LogSource::Driver(a), &early), Outcome::Matched);
        assert_eq!(inc.late_events(), 1);
        assert_eq!((inc.in_flight(), inc.retired()), (0, 1));
        assert_eq!(fleet(&inc), before);
        assert_eq!(inc.exemplars().index_json(), exemplars);
        // This record is matched now, and the one that had FIRST_LOG,
        // which made nothing else, is ignored.
        let got = inc.coverage().get(Family::Driver);
        assert_eq!(
            (got.matched, got.ignored),
            (driver.matched, driver.ignored + 1)
        );
    }

    /// Two NodeManager logs with unmatched lines, read node 2 first and
    /// its line the earliest of all: the family's example is still node
    /// 1's earliest unmatched line, as batch's fold in `LogSource` order
    /// has it.
    #[test]
    fn the_unmatched_example_is_batch_s_whatever_the_read_order() {
        let mut store = LogStore::new(Epoch::default_run());
        let a = ApplicationId::new(store.epoch().unix_ms, 1);
        let cid = a.attempt(1).container(1);
        let odd = |to: &str| format!("Container {cid} transitioned from NEW to {to}");
        let (n1, n2) = (
            LogSource::NodeManager(logmodel::NodeId(1)),
            LogSource::NodeManager(logmodel::NodeId(2)),
        );
        store.info(n1, TsMs(300), "ContainerImpl", odd("ZOMBIE"));
        store.info(n1, TsMs(200), "ContainerImpl", odd("GHOST"));
        store.info(n2, TsMs(100), "ContainerImpl", odd("WRAITH"));
        let batch = analyze_store(&store);
        assert_eq!(
            batch.coverage.unmatched_example(Family::NodeManager),
            Some(odd("GHOST").as_str())
        );

        let mut inc = IncrementalAnalyzer::default();
        for src in [n2, n1] {
            for r in store.records(src).iter() {
                inc.ingest(src, &r.to_record());
            }
        }
        assert_eq!(inc.coverage(), &batch.coverage);
    }

    #[test]
    fn finish_retires_everything_in_flight() {
        let store = one_app_corpus(2, 0);
        let mut inc = IncrementalAnalyzer::default();
        for (src, r) in store.records_by_time() {
            inc.ingest(src, &r.to_record());
        }
        // Default settle window has not elapsed past the terminal event.
        assert_eq!(inc.in_flight(), 1);
        let retired = inc.finish();
        assert_eq!(retired.len(), 1);
        assert_eq!(retired[0].delays.outcome, AppOutcome::Completed);
        assert_eq!(retired[0].name.as_deref(), Some("tpch-q02"));
        assert_eq!(inc.in_flight(), 0);
    }

    #[test]
    fn live_report_mirrors_fleet_shape() {
        let store = one_app_corpus(1, 0);
        let mut inc = IncrementalAnalyzer::new(IncrementalConfig {
            settle_ms: 0,
            idle_timeout_ms: 0,
            exemplar_slots: 3,
        });
        for (src, r) in store.records_by_time() {
            inc.ingest(src, &r.to_record());
        }
        inc.drain_ready();
        let doc = inc.live_report_json(None);
        let v = obs::json::parse(&doc).expect("live report parses");
        assert_eq!(
            v.get("schema").and_then(|s| s.as_str()),
            Some("sdcheckerd-report-v1")
        );
        let fleet = v.get("fleet").expect("fleet section");
        assert_eq!(fleet.get("retired").and_then(|n| n.as_f64()), Some(1.0));
        assert_eq!(
            fleet
                .get("outcomes")
                .and_then(|o| o.get("completed"))
                .and_then(|n| n.as_f64()),
            Some(1.0)
        );
        // Fleet sketches carry the same component keys as the batch
        // report, and a retired app's total shows up in them.
        let total = fleet
            .get("app_components_ms")
            .and_then(|m| m.get("total"))
            .and_then(|s| s.get("count"))
            .and_then(|n| n.as_f64());
        assert_eq!(total, Some(1.0));
        assert!(
            v.get("coverage")
                .and_then(|c| c.get("resourcemanager"))
                .and_then(|c| c.get("matched"))
                .is_some(),
            "coverage section present"
        );
        assert!(doc.contains("\"tail\": null"));
    }
}
