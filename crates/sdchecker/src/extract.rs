//! Extraction rules: raw log records → [`SchedEvent`]s.
//!
//! Mirrors the paper's §III-A/B: scheduling-related messages are picked
//! out of each log stream with pattern matching, bound to the global IDs
//! embedded in the message text, and everything else is ignored. The
//! special rule from §III-B — "we use the first log message to mark the
//! successful launching of the Spark driver and Spark executor" — is
//! implemented by emitting `DriverFirstLog`/`ExecutorFirstLog` for the
//! earliest record of each driver/executor stream regardless of content,
//! one of the three positional rules [`StreamCursor`] holds for batch and
//! daemon alike.

use std::collections::BTreeMap;
use std::ops::Range;

use logmodel::schema::Family;
use logmodel::{ApplicationId, LogSource, Parallelism, RecordRef, SourceScan};

use crate::analyze::order_app_events;
use crate::checkpoint::CkptError;
use crate::event::{EventKind, Ids, SchedEvent};
use crate::schema::{MatchKind, PatternSpec, Subject, PATTERNS};
use crate::wire::{corrupt, wire_struct, Dec, Decode, Enc, Encode};

/// Histogram bucket bounds for events-per-stream.
const EVENTS_PER_STREAM_BOUNDS: &[u64] = &[1, 4, 16, 64, 256, 1024, 4096];

/// How one log line fared against the extraction rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// A scheduling event was emitted, or the line is a recognized
    /// transition the rules deliberately skip (e.g. NEW → NEW_SAVING).
    Matched,
    /// The line is transition-shaped but names a state outside the known
    /// alphabet — the schema-drift signal that extraction rules no longer
    /// cover the log format.
    Unmatched,
    /// The line is transition-shaped but carries a global id that does not
    /// parse — evidence of log corruption (truncation, interleaving)
    /// rather than schema drift.
    Anomalous,
    /// Unrelated noise: scheduler chatter, banners, stack traces.
    Ignored,
}

/// Per-stream line-classification tallies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoverageCounts {
    /// Lines that produced an event or are recognized benign transitions.
    pub matched: u64,
    /// Transition-shaped lines naming states outside the known alphabet.
    pub unmatched: u64,
    /// Transition-shaped lines whose global id failed to parse (corrupt
    /// or truncated ids — a log-damage signal, not schema drift).
    pub anomalous: u64,
    /// Everything else (noise the extractor never tries to interpret).
    pub ignored: u64,
}

impl CoverageCounts {
    /// Count one line's classification.
    pub fn tally(&mut self, outcome: Outcome) {
        match outcome {
            Outcome::Matched => self.matched += 1,
            Outcome::Unmatched => self.unmatched += 1,
            Outcome::Anomalous => self.anomalous += 1,
            Outcome::Ignored => self.ignored += 1,
        }
    }

    /// Element-wise sum.
    pub fn add(&mut self, other: CoverageCounts) {
        self.matched += other.matched;
        self.unmatched += other.unmatched;
        self.anomalous += other.anomalous;
        self.ignored += other.ignored;
    }

    /// Fraction of classified (non-ignored) lines the rules understood:
    /// `matched / (matched + unmatched + anomalous)`. `1.0` when nothing
    /// classified.
    pub fn coverage(&self) -> f64 {
        let classified = self.matched + self.unmatched + self.anomalous;
        if classified == 0 {
            1.0
        } else {
            self.matched as f64 / classified as f64
        }
    }
}

wire_struct!(CoverageCounts {
    matched,
    unmatched,
    anomalous,
    ignored,
});

/// A family's number in a checkpoint is its position in [`Family::ALL`],
/// spelled out so that a new variant does not compile until it is given
/// one.
impl Encode for Family {
    fn encode(&self, e: &mut Enc) {
        e.u8(match self {
            Family::ResourceManager => 0,
            Family::NodeManager => 1,
            Family::Driver => 2,
            Family::Executor => 3,
        });
    }
}

impl Decode for Family {
    fn decode(d: &mut Dec<'_>) -> Result<Family, CkptError> {
        let id = d.u8()?;
        Family::ALL
            .get(usize::from(id))
            .copied()
            .ok_or_else(|| corrupt(format!("invalid log-family discriminant {id}")))
    }
}

/// Parse-coverage tallies for a whole corpus, per log family.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParseCoverage {
    per_source: BTreeMap<Family, CoverageCounts>,
    /// Per family, the unmatched example of the first source in
    /// [`LogSource`] order that has one, with that source. Feeds the
    /// schema-drift warning's "resembles known rule X" diagnostic.
    unmatched_examples: BTreeMap<Family, (LogSource, String)>,
}

impl ParseCoverage {
    /// Fold one stream's tallies into its family.
    pub fn record(&mut self, family: Family, counts: CoverageCounts) {
        self.per_source.entry(family).or_default().add(counts);
    }

    /// Offer `message`, `source`'s unmatched example (see
    /// [`StreamCursor`]), as its family's: an earlier source's example
    /// stays, any other is replaced. Offers may come in any order of
    /// sources; a source offers again only when its stream found an
    /// earlier example.
    pub(crate) fn offer_unmatched_example(&mut self, source: LogSource, message: &str) {
        let held = self
            .unmatched_examples
            .entry(source.family())
            .or_insert((source, String::new()));
        if source <= held.0 {
            *held = (source, message.to_string());
        }
    }

    /// The unmatched message recorded for a family, if any.
    pub fn unmatched_example(&self, family: Family) -> Option<&str> {
        self.unmatched_examples
            .get(&family)
            .map(|(_, m)| m.as_str())
    }

    /// The tallies of one family (zero if absent).
    pub fn get(&self, family: Family) -> CoverageCounts {
        self.per_source.get(&family).copied().unwrap_or_default()
    }

    /// All present families and their tallies, in [`Family`] order.
    pub fn iter(&self) -> impl Iterator<Item = (Family, CoverageCounts)> + '_ {
        self.per_source.iter().map(|(k, c)| (*k, *c))
    }

    /// Grand total over all families.
    pub fn total(&self) -> CoverageCounts {
        let mut t = CoverageCounts::default();
        for (_, c) in self.iter() {
            t.add(c);
        }
        t
    }

    /// The one-line summary every `sdchecker` run prints. The `anomalous`
    /// column only appears when some line actually fell in that bucket, so
    /// clean corpora keep the historical three-column format.
    pub(crate) fn summary_line(&self) -> String {
        if self.per_source.is_empty() {
            return "Parse coverage: no log lines".to_string();
        }
        if self.total().anomalous > 0 {
            let parts: Vec<String> = self
                .iter()
                .map(|(k, c)| {
                    format!(
                        "{} {}/{}/{}/{}",
                        k.name(),
                        c.matched,
                        c.unmatched,
                        c.anomalous,
                        c.ignored
                    )
                })
                .collect();
            return format!(
                "Parse coverage (matched/unmatched/anomalous/ignored): {}",
                parts.join(", ")
            );
        }
        let parts: Vec<String> = self
            .iter()
            .map(|(k, c)| format!("{} {}/{}/{}", k.name(), c.matched, c.unmatched, c.ignored))
            .collect();
        format!(
            "Parse coverage (matched/unmatched/ignored): {}",
            parts.join(", ")
        )
    }
}

wire_struct!(ParseCoverage {
    per_source,
    unmatched_examples,
});

/// One log stream's extraction state, and the one home of the three
/// positional rules: batch's [`StreamScanner`] and the daemon's
/// [`crate::IncrementalAnalyzer`] both feed every record of a stream
/// through its cursor's [`StreamCursor::step`], in whatever order the
/// records arrive, and apply what it reports to their own event store.
/// A cursor does not hold its stream's source: whoever holds the cursor
/// has it already (the daemon keys its cursors by it).
///
/// Each rule settles its fact on the earliest record, the first to
/// arrive among equal timestamps, exactly as if the stream had been
/// stable-sorted by timestamp first:
/// - *the first record* (§III-B): a driver or executor stream's first
///   record to arrive gets FIRST_LOG, which makes it matched; a strictly
///   earlier record arriving later takes FIRST_LOG over, and the record
///   that had it goes back to ignored if FIRST_LOG was all it made;
/// - *the unmatched example*: the earliest unmatched record;
/// - *the banner name*: the earliest Spark banner of a driver stream.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamCursor {
    /// A driver or executor stream's earliest record so far, and whether
    /// FIRST_LOG was all it produced.
    first: Option<(logmodel::TsMs, bool)>,
    /// The timestamps of the stream's unmatched example and banner name.
    example_ts: Option<logmodel::TsMs>,
    name_ts: Option<logmodel::TsMs>,
}

/// What one record did to its stream, besides the events it appended.
#[derive(Debug, Clone, Copy)]
pub struct Step<'r> {
    /// The record's classification, already tallied.
    pub outcome: Outcome,
    /// FIRST_LOG moved to this record from a later one: the stream's
    /// FIRST_LOG event as it now reads, to replace the one the caller
    /// holds.
    pub first_moved: Option<SchedEvent>,
    /// The record is the stream's unmatched example now.
    pub example: bool,
    /// The application name of the record's banner, when it is the
    /// stream's earliest banner so far.
    pub name: Option<&'r str>,
}

impl StreamCursor {
    /// Extract one record of `source`'s stream: append its events to
    /// `out` (FIRST_LOG first, if the stream's first record), tally its
    /// outcome into `cov` and say which positional facts it now holds.
    /// A FIRST_LOG move is
    /// tallied here too — the record counts as matched and the one that
    /// had it, if FIRST_LOG was all it made, as ignored — in an order
    /// that never takes a count below zero, so `cov` may be a run's own.
    pub fn step<'r>(
        &mut self,
        ex: &Extractor,
        source: LogSource,
        r: &RecordRef<'r>,
        out: &mut Vec<SchedEvent>,
        cov: &mut CoverageCounts,
    ) -> Step<'r> {
        // FIRST_LOG, if this record takes it: a driver's or executor's
        // first record, or one strictly earlier than the record that has
        // it, whose place it takes.
        let first_log = ex.first_log[source.family() as usize]
            .filter(|_| self.first.is_none_or(|(ts, _)| r.ts < ts))
            .and_then(|kind| SchedEvent::new(r.ts, kind, source, None));
        let held = self.first.filter(|_| first_log.is_some());
        if let (Some(ev), None) = (first_log, held) {
            out.push(ev);
        }
        let mut outcome = ex.extract(source, r, out);
        if first_log.is_some() {
            debug_assert!(matches!(outcome, Outcome::Matched | Outcome::Ignored));
            self.first = Some((r.ts, outcome == Outcome::Ignored));
            outcome = Outcome::Matched;
        }
        cov.tally(outcome);
        if let Some((_, true)) = held {
            cov.matched -= 1;
            cov.ignored += 1;
        }
        let example = outcome == Outcome::Unmatched && self.example_ts.is_none_or(|ts| r.ts < ts);
        if example {
            self.example_ts = Some(r.ts);
        }
        let mut name = None;
        if ex.reads_names(source) && self.name_ts.is_none_or(|ts| r.ts < ts) {
            name = ex.app_name(r);
            if name.is_some() {
                self.name_ts = Some(r.ts);
            }
        }
        Step {
            outcome,
            first_moved: first_log.filter(|_| held.is_some()),
            example,
            name,
        }
    }
}

// The checkpoint persists the rules' state: a resumed daemon settles
// the three facts as one that never stopped.
wire_struct!(StreamCursor {
    first,
    example_ts,
    name_ts,
});

/// The rows of [`crate::schema::PATTERNS`], grouped by family in
/// [`Family::ALL`] order, their templates compiled.
pub struct Extractor {
    /// Per family, its rows in table order.
    rules: [Vec<&'static PatternSpec>; 4],
    /// Per family, its positional row's FIRST_LOG kind.
    first_log: [Option<EventKind>; 4],
    /// The name rule.
    name: Option<&'static PatternSpec>,
}

impl Default for Extractor {
    fn default() -> Self {
        Self::new()
    }
}

impl Extractor {
    /// Group the rows by family and compile their templates.
    pub fn new() -> Extractor {
        let rows = |f: Family| PATTERNS.iter().filter(move |p| p.family == f);
        // Compiled here, so that no line pays for it.
        for p in &PATTERNS {
            p.pat();
        }
        Extractor {
            rules: Family::ALL.map(|f| rows(f).collect()),
            first_log: Family::ALL.map(|f| {
                rows(f).find_map(|p| match p.kind {
                    MatchKind::Positional(first) => Some(first),
                    _ => None,
                })
            }),
            name: PATTERNS
                .iter()
                .find(|p| matches!(p.kind, MatchKind::Name(_))),
        }
    }

    /// The rows of `source`'s family, in the order
    /// [`StreamCursor::step`] tries them on a line's content.
    pub fn rules(&self, source: LogSource) -> &[&'static PatternSpec] {
        &self.rules[source.family() as usize]
    }

    /// Whether `source`'s family is the one the name rule reads.
    fn reads_names(&self, source: LogSource) -> bool {
        self.name.is_some_and(|p| p.family == source.family())
    }

    /// The application name `r` carries, if it is a Spark driver banner.
    pub(crate) fn app_name<'t>(&self, r: &RecordRef<'t>) -> Option<&'t str> {
        self.name?.read(r.class, r.message).map(|[name, ..]| name)
    }

    /// The events one record of `source`'s stream carries by its own
    /// content, appended to `out`, and how it fared: the first of the
    /// family's rows whose gate and shape accept the line decides it.
    /// FIRST_LOG is not content: [`StreamCursor::step`] adds it.
    fn extract(&self, source: LogSource, r: &RecordRef<'_>, out: &mut Vec<SchedEvent>) -> Outcome {
        for rule in self.rules(source) {
            let Some([id, _from, entered, on]) = rule.read(r.class, r.message) else {
                continue;
            };
            let (kind, named) = match rule.kind {
                MatchKind::Transition {
                    subject,
                    states,
                    to,
                    ..
                } => {
                    let named = match subject {
                        Subject::App => id.parse().map(Ids::App),
                        Subject::Container => id.parse().map(Ids::Container),
                    };
                    let Ok(named) = named else {
                        return Outcome::Anomalous;
                    };
                    let fits = to.iter().find(|(state, event, _)| {
                        *state == entered && event.is_none_or(|e| e == on)
                    });
                    match fits {
                        Some(&(_, _, kind)) => (kind, Some(named)),
                        None if states.contains(&entered) => return Outcome::Matched,
                        None => return Outcome::Unmatched,
                    }
                }
                MatchKind::Prefix(_, kind) => (kind, None),
                MatchKind::Name(_) | MatchKind::Positional(_) => continue,
            };
            out.extend(SchedEvent::new(r.ts, kind, source, named));
            return Outcome::Matched;
        }
        Outcome::Ignored
    }
}

/// Extract all events of a whole [`logmodel::LogStore`] as the
/// analysis gathers them, plus corpus-wide parse coverage: one
/// application after another in id order, each application's in
/// [`order_app_events`] order — by timestamp, ties by stream, then by
/// place in the stream, which is what merging every stream by timestamp
/// and keeping that application's events hands it. Identical for every
/// thread count: each stream is scanned on its own, over `par` worker
/// threads, and gathered in [`LogSource`] order.
pub fn extract_all_cov_with(
    store: &logmodel::LogStore,
    par: Parallelism,
) -> (Vec<SchedEvent>, ParseCoverage) {
    let Extracted {
        mut events,
        apps,
        coverage,
        ..
    } = extract_store(store, par);
    for (_, at) in apps {
        order_app_events(&mut events[at]);
    }
    (events, coverage)
}

/// What one pass over one stream's records yields: everything the
/// analysis wants from them, so that nothing needs the records afterwards.
pub(crate) struct StreamScan {
    pub(crate) source: LogSource,
    /// The stream's events, in record order; once batch's scan
    /// finishes, grouped by application, each one's still in record
    /// order. A batch scan's FIRST_LOG, at index 0, carries the stream's
    /// earliest record's timestamp; a daemon's scan lists its moves.
    pub(crate) events: Vec<SchedEvent>,
    pub(crate) cov: CoverageCounts,
    /// The earliest unmatched message, if any.
    pub(crate) example: Option<String>,
    /// The application name of the earliest Spark banner line (driver
    /// streams only).
    pub(crate) name: Option<String>,
    /// The newest record timestamp.
    pub(crate) max_ts: Option<logmodel::TsMs>,
}

/// A [`StreamScan`] in the making: fed one stream's records a run at a
/// time, in any order, from a [`StreamCursor`] that has the stream's
/// positional facts up to them — the default cursor at the stream's
/// start. [`StreamCursor::step`] settles the positional facts; a
/// FIRST_LOG that moves to an earlier record is listed, with the
/// anomalous records' timestamps, whoever runs the scanner. Nothing is
/// recorded here, whichever thread it runs on.
///
/// Batch runs it as a [`SourceScan`], which makes each run's last move
/// where the stream's FIRST_LOG is, at index 0 of its events, and hands
/// the events over grouped by application. The daemon's FIRST_LOG may
/// sit in an event an earlier look handed over, so
/// [`StreamScanner::end`] hands the moves over as a [`TailScan`] for the
/// analyzer to make where the events wait.
pub(crate) struct StreamScanner<'e> {
    ex: &'e Extractor,
    cursor: StreamCursor,
    scan: StreamScan,
    /// The FIRST_LOG moves not yet made, in record order.
    moves: Vec<SchedEvent>,
    /// The anomalous records' timestamps, in record order.
    anomalous: Vec<logmodel::TsMs>,
}

impl<'e> StreamScanner<'e> {
    /// A scanner of `source`'s next records, which `cursor` has the
    /// stream's positional facts up to.
    pub(crate) fn resume(
        ex: &'e Extractor,
        source: LogSource,
        cursor: StreamCursor,
    ) -> StreamScanner<'e> {
        StreamScanner {
            ex,
            cursor,
            scan: StreamScan {
                source,
                events: Vec::new(),
                cov: CoverageCounts::default(),
                example: None,
                name: None,
                max_ts: None,
            },
            moves: Vec::new(),
            anomalous: Vec::new(),
        }
    }

    /// Step every record of `recs`, in order.
    pub(crate) fn step_all(&mut self, recs: &[RecordRef<'_>]) {
        let scan = &mut self.scan;
        for r in recs {
            let step = self
                .cursor
                .step(self.ex, scan.source, r, &mut scan.events, &mut scan.cov);
            self.moves.extend(step.first_moved);
            if step.outcome == Outcome::Anomalous {
                self.anomalous.push(r.ts);
            }
            if step.example {
                scan.example = Some(r.message.to_string());
            }
            if let Some(name) = step.name {
                scan.name = Some(name.to_string());
            }
            scan.max_ts = scan.max_ts.max(Some(r.ts));
        }
    }

    /// The scan so far, for the daemon; [`StreamScanner::step_all`] fed
    /// it.
    pub(crate) fn end(self) -> TailScan {
        TailScan {
            scan: self.scan,
            cursor: self.cursor,
            moves: self.moves,
            anomalous: self.anomalous,
        }
    }
}

/// What one look at a tailed stream read came to: the stream scan of its
/// records, the cursor the stream's next look resumes from, the FIRST_LOG
/// moves to make where the events wait, and the anomalous records'
/// timestamps for the corrupt-line alert rule. Made on a pool worker,
/// folded in by [`crate::IncrementalAnalyzer`] on the poll thread.
pub struct TailScan {
    pub(crate) scan: StreamScan,
    pub(crate) cursor: StreamCursor,
    pub(crate) moves: Vec<SchedEvent>,
    anomalous: Vec<logmodel::TsMs>,
}

impl TailScan {
    /// Records scanned: each is tallied once in the coverage counts.
    pub fn records(&self) -> u64 {
        let c = self.scan.cov;
        c.matched + c.unmatched + c.anomalous + c.ignored
    }

    /// The timestamps of the records that classified
    /// [`Outcome::Anomalous`], in record order.
    pub fn anomalous(&self) -> &[logmodel::TsMs] {
        &self.anomalous
    }

    /// The outcome of a scan's one record. A record that takes FIRST_LOG
    /// over is matched even where the counts read ignored: the record
    /// that had it, if FIRST_LOG was all it made, went back to ignored.
    pub(crate) fn outcome(&self) -> Outcome {
        let c = self.scan.cov;
        if c.matched > 0 || !self.moves.is_empty() {
            Outcome::Matched
        } else if c.anomalous > 0 {
            Outcome::Anomalous
        } else if c.unmatched > 0 {
            Outcome::Unmatched
        } else {
            Outcome::Ignored
        }
    }
}

/// The scanner as the batch pipelines run it: each run under an
/// `extract_stream` span, its last FIRST_LOG move made at index 0 —
/// where a scan from the stream's start has its FIRST_LOG — and its
/// list of anomalous records, which batch does not read, let go; at the
/// end the events grouped by application and the stream's counters
/// flushed when recording is on.
impl SourceScan for StreamScanner<'_> {
    type Output = StreamScan;

    fn records(&mut self, recs: &[RecordRef<'_>], rec: &mut obs::Batch) {
        // Named only when traced: a path formatted per run for nothing
        // costs a directory of small files some 5 % of its CPU.
        let span = obs::span("extract_stream");
        let span = if span.is_active() {
            span.arg("source", self.scan.source.rel_path())
        } else {
            span
        };
        self.step_all(recs);
        // Each move replaces the one before it, so the last is the one
        // that stands; made a run at a time, the lists hold one run's.
        if let Some(first) = self.moves.pop() {
            let events = &mut self.scan.events;
            debug_assert_eq!(events[0].kind, first.kind);
            events[0] = first;
        }
        self.moves.clear();
        self.anomalous.clear();
        span.end_into(rec);
    }

    fn finish(self, rec: &mut obs::Batch) -> StreamScan {
        let mut scan = self.scan;
        scan.events = group_by_app(scan.events);
        // Every stream's events wait for the gather, which holds them and
        // their gathered copy at once: they wait without growth slack.
        scan.events.shrink_to_fit();
        if obs::enabled() {
            record_stream_metrics(rec, scan.source, &scan.events, scan.cov);
        }
        scan
    }
}

/// `events` grouped by application in id order, each application's in
/// the order they had. A stream of one application — every driver and
/// executor stream — comes back as it was. Otherwise a counting sort
/// made in place: the stream's applications, found among the runs of
/// events that share one (a cluster log interleaves a few at a time);
/// each event's place from its application's count; then each cycle of
/// places followed once, so no second copy of the stream is made.
fn group_by_app(mut events: Vec<SchedEvent>) -> Vec<SchedEvent> {
    if events.windows(2).all(|w| w[0].app <= w[1].app) {
        return events;
    }
    let runs = || events.chunk_by(|a, b| a.app == b.app);
    let mut apps: Vec<ApplicationId> = runs().map(|run| run[0].app).collect();
    apps.sort_unstable();
    apps.dedup();
    // Where each application's events start, and then, event by event
    // in stream order, where each goes.
    let mut next = vec![0; apps.len() + 1];
    let mut slots = Vec::with_capacity(runs().count());
    for run in runs() {
        // Every application is listed, so the search finds it.
        let (Ok(slot) | Err(slot)) = apps.binary_search(&run[0].app);
        next[slot + 1] += run.len();
        slots.push((slot, run.len()));
    }
    for i in 1..next.len() {
        next[i] += next[i - 1];
    }
    let mut from = vec![0; events.len()];
    let mut at = 0;
    for (slot, len) in slots {
        for i in at..at + len {
            from[next[slot]] = i;
            next[slot] += 1;
        }
        at += len;
    }
    // `from[p]` is the event that goes to place `p`: follow each cycle,
    // marking a place done by pointing it at itself.
    for start in 0..events.len() {
        if from[start] == start {
            continue;
        }
        let first = events[start];
        let mut p = start;
        while from[p] != start {
            let src = from[p];
            events[p] = events[src];
            from[p] = p;
            p = src;
        }
        events[p] = first;
        from[p] = p;
    }
    events
}

/// What every stream adds to besides its events.
#[derive(Default)]
struct Totals {
    coverage: ParseCoverage,
    app_names: BTreeMap<ApplicationId, String>,
    /// The newest record timestamp of the corpus.
    watermark: Option<logmodel::TsMs>,
}

impl Totals {
    /// Fold in one stream's scan, given in [`LogSource`] order; its
    /// events are left.
    fn add(&mut self, scan: &mut StreamScan) {
        self.coverage.record(scan.source.family(), scan.cov);
        if let Some(msg) = &scan.example {
            self.coverage.offer_unmatched_example(scan.source, msg);
        }
        if let (LogSource::Driver(app), Some(name)) = (scan.source, scan.name.take()) {
            self.app_names.insert(app, name);
        }
        self.watermark = self.watermark.max(scan.max_ts);
    }
}

/// Everything extraction hands the per-application analysis.
pub(crate) struct Extracted {
    /// Every event, one application after another in id order; each
    /// application's stream by stream in [`LogSource`] order, each
    /// stream's in its order. [`crate::analyze::order_app_events`] puts
    /// an application's in time order where they lie.
    pub(crate) events: Vec<SchedEvent>,
    /// Each application, in id order, and where its events lie.
    pub(crate) apps: Vec<(ApplicationId, Range<usize>)>,
    pub(crate) coverage: ParseCoverage,
    pub(crate) app_names: BTreeMap<ApplicationId, String>,
    /// The newest record timestamp of the corpus.
    pub(crate) watermark: Option<logmodel::TsMs>,
}

/// Scan every stream of `store` over `par` worker threads, each through
/// [`logmodel::LogStore::scan`] — the read loop a directory's files go
/// through — and gather the results, under the `extract` span.
pub(crate) fn extract_store(store: &logmodel::LogStore, par: Parallelism) -> Extracted {
    let _span = obs::span("extract");
    gather_scans(scan_store(store, par))
}

/// Every stream of `store` scanned over `par` worker threads, in
/// [`LogSource`] order.
fn scan_store(store: &logmodel::LogStore, par: Parallelism) -> Vec<StreamScan> {
    let ex = Extractor::new();
    let sources: Vec<LogSource> = store.sources().collect();
    let scans = logmodel::par::map(par, &sources, |&src| {
        store.scan(
            src,
            StreamScanner::resume(&ex, src, StreamCursor::default()),
        )
    });
    scans.into_iter().flatten().collect()
}

/// Fold per-stream scans, given in [`LogSource`] order, into one
/// corpus-wide result: each application's events gathered from every
/// stream that has some, in stream order — what merging every stream by
/// timestamp and keeping one application's events would hand that
/// application, but for the time order ([`crate::analyze::order_app_events`]
/// settles it per application); the rest summed or keyed. A stream
/// grouped by application, as batch's scan hands it over, gives one
/// slice per application; any other stream gives the same result in
/// more.
pub(crate) fn gather_scans(scans: Vec<StreamScan>) -> Extracted {
    let mut totals = Totals::default();
    // Each stream's runs of one application's events, in stream order,
    // and how many of its runs are not gathered yet.
    let mut runs: Vec<(ApplicationId, usize, Range<usize>)> = Vec::new();
    let mut streams: Vec<(Vec<SchedEvent>, usize)> = Vec::with_capacity(scans.len());
    for (i, mut scan) in scans.into_iter().enumerate() {
        totals.add(&mut scan);
        let before = runs.len();
        let mut start = 0;
        for run in scan.events.chunk_by(|a, b| a.app == b.app) {
            runs.push((run[0].app, i, start..start + run.len()));
            start += run.len();
        }
        streams.push((scan.events, runs.len() - before));
    }
    // Stable: an application's runs stay in stream order.
    runs.sort_by_key(|run| run.0);
    let mut events = Vec::with_capacity(streams.iter().map(|s| s.0.len()).sum());
    let mut apps = Vec::new();
    for app_runs in runs.chunk_by(|a, b| a.0 == b.0) {
        let start = events.len();
        for (_, i, run) in app_runs {
            let (stream, left) = &mut streams[*i];
            events.extend_from_slice(&stream[run.clone()]);
            // An application's own streams go as soon as they are
            // gathered, so they and their gathered copy are not all held.
            *left -= 1;
            if *left == 0 {
                *stream = Vec::new();
            }
        }
        apps.push((app_runs[0].0, start..events.len()));
    }
    let Totals {
        coverage,
        app_names,
        watermark,
    } = totals;
    Extracted {
        events,
        apps,
        coverage,
        app_names,
        watermark,
    }
}

/// Gather one stream's extraction counters into `rec` (called only when
/// recording is enabled). Counter totals are pure functions of the
/// corpus, so metric exports are byte-identical for every worker count.
fn record_stream_metrics(
    rec: &mut obs::Batch,
    src: LogSource,
    evs: &[SchedEvent],
    cov: CoverageCounts,
) {
    let mut per_kind = [0; EventKind::ALL.len()];
    for e in evs {
        per_kind[e.kind.index()] += 1;
    }
    for (kind, &n) in EventKind::ALL.iter().zip(&per_kind) {
        if n > 0 {
            rec.count_labeled("extract_events_total", &[("kind", kind.name())], n);
        }
    }
    let source = src.family().name();
    for (status, n) in [
        ("matched", cov.matched),
        ("unmatched", cov.unmatched),
        ("ignored", cov.ignored),
    ] {
        rec.count_labeled(
            "parse_lines_total",
            &[("source", source), ("status", status)],
            n,
        );
    }
    // The anomalous series only exists on damaged corpora, keeping clean
    // metric exports byte-identical to what they were before the bucket.
    if cov.anomalous > 0 {
        rec.count_labeled(
            "parse_lines_total",
            &[("source", source), ("status", "anomalous")],
            cov.anomalous,
        );
    }
    rec.observe(
        "extract_stream_events",
        EVENTS_PER_STREAM_BOUNDS,
        evs.len() as u64,
    );
}

/// Best-effort application-name extraction from driver logs, enabling
/// per-workload (e.g. per-TPC-H-query) breakdowns: each driver stream
/// scanned as [`extract_store`] scans it, its name the one
/// [`StreamCursor`]'s banner rule settles. Unknown banners yield no name
/// (analysis proceeds unnamed). One scan task per driver stream spread
/// over `par` worker threads; identical output for every thread count
/// (the map is keyed by application id). With metrics recording on, the
/// driver streams count in the extraction series once more.
pub fn extract_app_names_with(
    store: &logmodel::LogStore,
    par: Parallelism,
) -> std::collections::BTreeMap<ApplicationId, String> {
    let _span = obs::span("extract_app_names");
    let ex = Extractor::new();
    let streams: Vec<LogSource> = store.sources().filter(|&src| ex.reads_names(src)).collect();
    let scans = logmodel::par::map(par, &streams, |&src| {
        store.scan(
            src,
            StreamScanner::resume(&ex, src, StreamCursor::default()),
        )
    });
    let mut totals = Totals::default();
    for mut scan in scans.into_iter().flatten() {
        totals.add(&mut scan);
    }
    totals.app_names
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::has_transitions;

    /// One whole-stream scan: events, coverage and first unmatched
    /// message.
    fn scan_records(
        ex: &Extractor,
        source: LogSource,
        records: &[LogRecord],
    ) -> (Vec<SchedEvent>, CoverageCounts, Option<String>) {
        let mut scanner = StreamScanner::resume(ex, source, StreamCursor::default());
        let refs: Vec<RecordRef<'_>> = records.iter().map(LogRecord::as_ref).collect();
        scanner.records(&refs, &mut obs::Batch::default());
        let scan = scanner.scan;
        (scan.events, scan.cov, scan.example)
    }

    fn extract_stream(ex: &Extractor, source: LogSource, records: &[LogRecord]) -> Vec<SchedEvent> {
        scan_records(ex, source, records).0
    }
    use logmodel::{Epoch, Level, LogRecord, LogStore, NodeId, TsMs};

    const CTS: u64 = 1_521_018_000_000;

    fn app() -> ApplicationId {
        ApplicationId::new(CTS, 1)
    }

    fn rec(ts: u64, class: &str, msg: String) -> LogRecord {
        LogRecord::new(TsMs(ts), Level::Info, class, msg)
    }

    #[test]
    fn rm_app_chain_extracts() {
        let ex = Extractor::new();
        let a = app();
        let records = vec![
            rec(
                0,
                "RMAppImpl",
                format!("{a} State change from NEW to NEW_SAVING on event = START"),
            ),
            rec(
                5,
                "RMAppImpl",
                format!("{a} State change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED"),
            ),
            rec(
                9,
                "RMAppImpl",
                format!("{a} State change from SUBMITTED to ACCEPTED on event = APP_ACCEPTED"),
            ),
            rec(
                900,
                "RMAppImpl",
                format!("{a} State change from ACCEPTED to RUNNING on event = ATTEMPT_REGISTERED"),
            ),
            rec(
                9000,
                "RMAppImpl",
                format!(
                    "{a} State change from RUNNING to FINAL_SAVING on event = ATTEMPT_UNREGISTERED"
                ),
            ),
        ];
        let evs = extract_stream(&ex, LogSource::ResourceManager, &records);
        let kinds: Vec<EventKind> = evs.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::AppSubmitted,
                EventKind::AppAccepted,
                EventKind::AttemptRegistered,
                EventKind::AppUnregistered,
            ]
        );
        assert!(evs.iter().all(|e| e.app == a));
        assert_eq!(evs[0].ts, TsMs(5));
    }

    #[test]
    fn rm_container_chain_extracts() {
        let ex = Extractor::new();
        let cid = app().attempt(1).container(2);
        let records = vec![
            rec(
                1,
                "RMContainerImpl",
                format!("{cid} Container Transitioned from NEW to ALLOCATED"),
            ),
            rec(
                400,
                "RMContainerImpl",
                format!("{cid} Container Transitioned from ALLOCATED to ACQUIRED"),
            ),
        ];
        let evs = extract_stream(&ex, LogSource::ResourceManager, &records);
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].kind, EventKind::ContainerAllocated);
        assert_eq!(evs[1].kind, EventKind::ContainerAcquired);
        assert_eq!(evs[0].container(), Some(cid));
    }

    #[test]
    fn nm_chain_extracts_with_node() {
        let ex = Extractor::new();
        let cid = app().attempt(1).container(1);
        let node = NodeId(7);
        let records = vec![
            rec(
                10,
                "ContainerImpl",
                format!("Container {cid} transitioned from NEW to LOCALIZING"),
            ),
            rec(
                500,
                "ContainerImpl",
                format!("Container {cid} transitioned from LOCALIZING to SCHEDULED"),
            ),
            rec(
                505,
                "ContainerImpl",
                format!("Container {cid} transitioned from SCHEDULED to RUNNING"),
            ),
        ];
        let evs = extract_stream(&ex, LogSource::NodeManager(node), &records);
        assert_eq!(evs.len(), 3);
        assert!(evs.iter().all(|e| e.node() == Some(node)));
        assert_eq!(evs[1].kind, EventKind::ContainerScheduled);
    }

    #[test]
    fn driver_first_log_is_positional() {
        let ex = Extractor::new();
        let a = app();
        let records = vec![
            rec(100, "ApplicationMaster", "some banner line".to_string()),
            rec(
                3100,
                "ApplicationMaster",
                "Registered with ResourceManager as appattempt".to_string(),
            ),
            rec(
                3101,
                "YarnAllocator",
                "START_ALLO Requesting 4 executor containers".to_string(),
            ),
            rec(
                4100,
                "YarnAllocator",
                "END_ALLO All 4 requested executor containers allocated".to_string(),
            ),
        ];
        let evs = extract_stream(&ex, LogSource::Driver(a), &records);
        let kinds: Vec<EventKind> = evs.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::DriverFirstLog,
                EventKind::DriverRegistered,
                EventKind::StartAllo,
                EventKind::EndAllo,
            ]
        );
        assert_eq!(
            evs[0].ts,
            TsMs(100),
            "first log takes the first record's ts"
        );
    }

    #[test]
    fn executor_stream_extracts_first_log_and_tasks() {
        let ex = Extractor::new();
        let cid = app().attempt(1).container(3);
        let records = vec![
            rec(
                50,
                "CoarseGrainedExecutorBackend",
                "Started executor".to_string(),
            ),
            rec(
                900,
                "Executor",
                "Got assigned task 0 in stage 0.0 (TID 0)".to_string(),
            ),
            rec(
                950,
                "Executor",
                "Got assigned task 3 in stage 0.0 (TID 3)".to_string(),
            ),
        ];
        let evs = extract_stream(&ex, LogSource::Executor(cid), &records);
        assert_eq!(evs[0].kind, EventKind::ExecutorFirstLog);
        assert_eq!(
            evs.iter()
                .filter(|e| e.kind == EventKind::TaskAssigned)
                .count(),
            2
        );
    }

    #[test]
    fn noise_is_ignored() {
        let ex = Extractor::new();
        let records = vec![
            rec(
                1,
                "CapacityScheduler",
                "Re-sorting assigned queue".to_string(),
            ),
            rec(2, "RMAppImpl", "Storing application with id".to_string()),
            rec(
                3,
                "RMContainerImpl",
                "Processing event of type KILL".to_string(),
            ),
        ];
        assert!(extract_stream(&ex, LogSource::ResourceManager, &records).is_empty());
    }

    /// Each application's events together, applications in id order,
    /// each one's by timestamp: a later application's earlier event
    /// comes after every event of an earlier application.
    #[test]
    fn extract_all_groups_by_application_in_time_order() {
        let mut store = LogStore::new(Epoch::default_run());
        let (a, b) = (app(), ApplicationId::new(CTS, 2));
        let submitted = |app: ApplicationId| {
            format!("{app} State change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED")
        };
        store.info(LogSource::Driver(a), TsMs(500), "X", "hello");
        store.info(
            LogSource::ResourceManager,
            TsMs(9),
            "RMAppImpl",
            submitted(a),
        );
        store.info(
            LogSource::ResourceManager,
            TsMs(5),
            "RMAppImpl",
            submitted(b),
        );
        let evs = extract_all_cov_with(&store, Parallelism::ONE).0;
        let got: Vec<_> = evs.iter().map(|e| (e.app, e.kind, e.ts)).collect();
        assert_eq!(
            got,
            [
                (a, EventKind::AppSubmitted, TsMs(9)),
                (a, EventKind::DriverFirstLog, TsMs(500)),
                (b, EventKind::AppSubmitted, TsMs(5)),
            ]
        );
    }

    #[test]
    fn coverage_classifies_matched_unmatched_ignored() {
        let ex = Extractor::new();
        let a = app();
        let records = vec![
            // matched: emits an event
            rec(
                5,
                "RMAppImpl",
                format!("{a} State change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED"),
            ),
            // matched: recognized benign transition (no event emitted)
            rec(
                1,
                "RMAppImpl",
                format!("{a} State change from NEW to NEW_SAVING on event = START"),
            ),
            // unmatched: transition into a state outside the alphabet
            rec(
                9,
                "RMAppImpl",
                format!("{a} State change from RUNNING to ZOMBIE on event = KILL"),
            ),
            // anomalous: transition-shaped but the id does not parse
            rec(
                10,
                "RMAppImpl",
                "garbage_id State change from NEW to SUBMITTED on event = START".to_string(),
            ),
            // ignored: non-transition chatter from a scheduling class
            rec(2, "RMAppImpl", "Storing application with id".to_string()),
            // ignored: unrelated class
            rec(3, "CapacityScheduler", "Re-sorting queues".to_string()),
        ];
        let (evs, cov, _) = scan_records(&ex, LogSource::ResourceManager, &records);
        assert_eq!(evs.len(), 1);
        assert_eq!(
            cov,
            CoverageCounts {
                matched: 2,
                unmatched: 1,
                anomalous: 1,
                ignored: 2,
            }
        );
        assert_eq!(cov.coverage(), 0.5);
    }

    #[test]
    fn rm_failure_chain_extracts_terminal_events() {
        let ex = Extractor::new();
        let a = app();
        let records = vec![
            // Retry: the app bounces back to ACCEPTED (duplicate event ok).
            rec(
                100,
                "RMAppImpl",
                format!("{a} State change from RUNNING to ACCEPTED on event = ATTEMPT_FAILED"),
            ),
            // Exhaustion path: FINAL_SAVING on ATTEMPT_FAILED is *not* a
            // clean unregister...
            rec(
                200,
                "RMAppImpl",
                format!("{a} State change from ACCEPTED to FINAL_SAVING on event = ATTEMPT_FAILED"),
            ),
            // ...and the terminal states map to their own events.
            rec(
                300,
                "RMAppImpl",
                format!("{a} State change from FINAL_SAVING to FAILED on event = APP_UPDATE_SAVED"),
            ),
            rec(
                400,
                "RMAppImpl",
                format!("{a} State change from FINAL_SAVING to KILLED on event = APP_UPDATE_SAVED"),
            ),
        ];
        let (evs, cov, _) = scan_records(&ex, LogSource::ResourceManager, &records);
        let kinds: Vec<EventKind> = evs.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::AppAccepted,
                EventKind::AppFailed,
                EventKind::AppKilled,
            ]
        );
        assert_eq!(cov.unmatched, 0, "failure states are in the alphabet");
    }

    #[test]
    fn failure_side_states_are_recognized_not_drift() {
        let ex = Extractor::new();
        let cid = app().attempt(1).container(2);
        let rm_records = vec![rec(
            1,
            "RMContainerImpl",
            format!("{cid} Container Transitioned from RUNNING to KILLED"),
        )];
        let (evs, cov, _) = scan_records(&ex, LogSource::ResourceManager, &rm_records);
        assert!(evs.is_empty(), "KILLED is benign-matched, no event");
        assert_eq!((cov.matched, cov.unmatched), (1, 0));

        let nm_records = vec![
            rec(
                1,
                "ContainerImpl",
                format!("Container {cid} transitioned from LOCALIZING to LOCALIZATION_FAILED"),
            ),
            rec(
                2,
                "ContainerImpl",
                format!("Container {cid} transitioned from RUNNING to EXITED_WITH_FAILURE"),
            ),
        ];
        let (evs, cov, _) = scan_records(&ex, LogSource::NodeManager(NodeId(1)), &nm_records);
        assert!(evs.is_empty());
        assert_eq!((cov.matched, cov.unmatched), (2, 0));
    }

    #[test]
    fn anomalous_column_appears_only_when_nonzero() {
        let mut clean = ParseCoverage::default();
        clean.record(
            Family::ResourceManager,
            CoverageCounts {
                matched: 3,
                unmatched: 1,
                anomalous: 0,
                ignored: 2,
            },
        );
        assert_eq!(
            clean.summary_line(),
            "Parse coverage (matched/unmatched/ignored): resourcemanager 3/1/2"
        );
        let mut damaged = clean.clone();
        damaged.record(
            Family::NodeManager,
            CoverageCounts {
                matched: 5,
                unmatched: 0,
                anomalous: 2,
                ignored: 0,
            },
        );
        assert_eq!(
            damaged.summary_line(),
            "Parse coverage (matched/unmatched/anomalous/ignored): \
             resourcemanager 3/1/0/2, nodemanager 5/0/2/0"
        );
    }

    #[test]
    fn nm_unknown_state_is_unmatched() {
        let ex = Extractor::new();
        let cid = app().attempt(1).container(1);
        let records = vec![
            rec(
                1,
                "ContainerImpl",
                format!("Container {cid} transitioned from NEW to LOCALIZING"),
            ),
            rec(
                2,
                "ContainerImpl",
                format!("Container {cid} transitioned from LOCALIZING to PAUSED"),
            ),
        ];
        let (_, cov, _) = scan_records(&ex, LogSource::NodeManager(NodeId(1)), &records);
        assert_eq!((cov.matched, cov.unmatched), (1, 1));
    }

    #[test]
    fn driver_and_executor_first_lines_count_matched() {
        let ex = Extractor::new();
        let a = app();
        let records = vec![
            rec(1, "ApplicationMaster", "banner".to_string()),
            rec(2, "ApplicationMaster", "other chatter".to_string()),
        ];
        let (evs, cov, _) = scan_records(&ex, LogSource::Driver(a), &records);
        assert_eq!(evs.len(), 1); // DriverFirstLog
        assert_eq!((cov.matched, cov.unmatched, cov.ignored), (1, 0, 1));
        assert_eq!(cov.coverage(), 1.0);
    }

    #[test]
    fn corpus_coverage_merges_per_family() {
        let mut store = LogStore::new(Epoch::default_run());
        let a = app();
        store.info(LogSource::Driver(a), TsMs(500), "X", "hello");
        store.info(
            LogSource::ResourceManager,
            TsMs(5),
            "RMAppImpl",
            format!("{a} State change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED"),
        );
        let (evs, cov) = extract_all_cov_with(&store, Parallelism::ONE);
        assert_eq!(evs.len(), 2);
        assert_eq!(cov.get(Family::ResourceManager).matched, 1);
        assert_eq!(cov.get(Family::Driver).matched, 1);
        assert_eq!(cov.total().matched, 2);
        let line = cov.summary_line();
        assert!(line.contains("resourcemanager 1/0/0"), "{line}");
        assert!(line.contains("driver 1/0/0"), "{line}");
        // Coverage sums are thread-count-independent.
        for threads in [2, 4] {
            let (_, c2) = extract_all_cov_with(&store, Parallelism::new(threads));
            assert_eq!(c2, cov, "threads = {threads}");
        }
    }

    #[test]
    fn family_wire_discriminants_are_the_all_positions_and_round_trip() {
        for (i, f) in Family::ALL.into_iter().enumerate() {
            let bytes = Enc::payload(&f);
            assert_eq!(bytes, [i as u8], "{f:?}");
            assert_eq!(Dec::new(&bytes).get::<Family>().unwrap(), f);
        }
        let past = [Family::ALL.len() as u8];
        assert!(Dec::new(&past).get::<Family>().is_err());
    }

    #[test]
    fn family_names_and_drift_relevance() {
        assert_eq!(
            LogSource::ResourceManager.family().name(),
            "resourcemanager"
        );
        assert!(has_transitions(Family::ResourceManager));
        assert!(has_transitions(Family::NodeManager));
        assert!(!has_transitions(Family::Driver));
        assert!(!has_transitions(Family::Executor));
        assert_eq!(
            ParseCoverage::default().summary_line(),
            "Parse coverage: no log lines"
        );
    }

    #[test]
    fn record_at_a_time_matches_stream_scan() {
        let ex = Extractor::new();
        let a = app();
        for src in [
            LogSource::ResourceManager,
            LogSource::Driver(a),
            LogSource::Executor(a.attempt(1).container(2)),
        ] {
            let records = vec![
                rec(1, "ApplicationMaster", "banner line".to_string()),
                rec(
                    5,
                    "RMAppImpl",
                    format!(
                        "{a} State change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED"
                    ),
                ),
                rec(
                    9,
                    "ApplicationMaster",
                    "Registered with ResourceManager as appattempt".to_string(),
                ),
                rec(
                    12,
                    "Executor",
                    "Got assigned task 0 in stage 0.0 (TID 0)".to_string(),
                ),
            ];
            let (batch_evs, batch_cov, _) = scan_records(&ex, src, &records);
            let mut cursor = StreamCursor::default();
            let mut evs = Vec::new();
            let mut cov = CoverageCounts::default();
            for r in &records {
                cursor.step(&ex, src, &r.as_ref(), &mut evs, &mut cov);
            }
            assert_eq!(evs, batch_evs, "source {src:?}");
            assert_eq!(cov, batch_cov, "source {src:?}");
        }
    }

    /// A scan as the merge sees it: its events in merged order, and the
    /// rest of it.
    type Settled = (
        Vec<SchedEvent>,
        CoverageCounts,
        Option<String>,
        Option<String>,
        Option<TsMs>,
    );

    /// The streams concatenated in index order and stable-sorted by
    /// timestamp: what merging them by time hands on, ties by stream,
    /// then by place in the stream.
    fn merge_sorted_streams(streams: Vec<Vec<SchedEvent>>) -> Vec<SchedEvent> {
        let mut merged: Vec<SchedEvent> = streams.into_iter().flatten().collect();
        merged.sort_by_key(|e| e.ts);
        merged
    }

    fn settled(scan: StreamScan) -> Settled {
        let events = merge_sorted_streams(vec![scan.events]);
        (events, scan.cov, scan.example, scan.name, scan.max_ts)
    }

    /// The oracle: a stream already in time order, one record at a time
    /// through the stateless rules, FIRST_LOG put on the first record and
    /// each other positional fact taken from the first record that has
    /// it.
    fn settled_in_order(ex: &Extractor, src: LogSource, records: &[LogRecord]) -> Settled {
        let (mut events, mut cov) = (Vec::new(), CoverageCounts::default());
        let (mut example, mut name, mut max_ts) = (None, None, None);
        for (i, r) in records.iter().enumerate() {
            let first_log = match src {
                LogSource::Driver(_) => Some(EventKind::DriverFirstLog),
                LogSource::Executor(_) => Some(EventKind::ExecutorFirstLog),
                _ => None,
            }
            .filter(|_| i == 0)
            .and_then(|kind| SchedEvent::new(r.ts, kind, src, None));
            events.extend(first_log);
            let mut outcome = ex.extract(src, &r.as_ref(), &mut events);
            if first_log.is_some() {
                outcome = Outcome::Matched;
            }
            cov.tally(outcome);
            if outcome == Outcome::Unmatched && example.is_none() {
                example = Some(r.message.clone());
            }
            if matches!(src, LogSource::Driver(_)) && name.is_none() {
                name = ex.app_name(&r.as_ref()).map(str::to_string);
            }
            max_ts = max_ts.max(Some(r.ts));
        }
        (
            merge_sorted_streams(vec![events]),
            cov,
            example,
            name,
            max_ts,
        )
    }

    #[test]
    fn a_shuffled_stream_scans_as_its_stable_sorted_order() {
        let ex = Extractor::new();
        let a = app();
        let cid = a.attempt(1).container(2);
        let mut rng = simkit::SimRng::new(35);
        // Every shape a positional rule cares about, each message unique
        // by `i` so that a record's place shows in what it made.
        let message = |i: usize, shape: u64| -> (&'static str, String) {
            match shape {
                0 => ("X", format!("noise {i}")),
                1 => (
                    "ApplicationMaster",
                    format!("Starting ApplicationMaster for q{i}"),
                ),
                2 => (
                    "ApplicationMaster",
                    format!("Registered with ResourceManager {i}"),
                ),
                3 => ("YarnAllocator", format!("START_ALLO {i}")),
                4 => (
                    "Executor",
                    format!("Got assigned task {i} in stage 0.0 (TID {i})"),
                ),
                5 => (
                    "RMAppImpl",
                    format!("{a} State change from RUNNING to ODD_{i} on event = X"),
                ),
                6 => (
                    "RMAppImpl",
                    format!("{a} State change from NEW_SAVING to SUBMITTED on event = E{i}"),
                ),
                _ => (
                    "ContainerImpl",
                    format!("Container {cid} transitioned from NEW to ODD_{i}"),
                ),
            }
        };
        for case in 0..400 {
            let src = match case % 4 {
                0 => LogSource::Driver(a),
                1 => LogSource::Executor(cid),
                2 => LogSource::ResourceManager,
                _ => LogSource::NodeManager(NodeId(1)),
            };
            // From one record to many; spans from "all ties" up.
            let n = 1 + rng.index(20);
            let span = 1 + rng.below(8);
            let mut records: Vec<LogRecord> = (0..n)
                .map(|i| {
                    let (class, msg) = message(i, rng.below(8));
                    rec(100 + rng.below(span), class, msg)
                })
                .collect();
            rng.shuffle(&mut records);
            let mut sorted = records.clone();
            sorted.sort_by_key(|r| r.ts);

            // The shuffle, handed over in runs as `scan_dir` would.
            let mut got = StreamScanner::resume(&ex, src, StreamCursor::default());
            let refs: Vec<RecordRef<'_>> = records.iter().map(LogRecord::as_ref).collect();
            let mut rest = refs.as_slice();
            while !rest.is_empty() {
                let (run, tail) = rest.split_at(1 + rng.index(rest.len()));
                got.records(run, &mut obs::Batch::default());
                rest = tail;
            }
            assert_eq!(
                settled(got.finish(&mut obs::Batch::default())),
                settled_in_order(&ex, src, &sorted),
                "case {case}: {records:?}"
            );
        }
    }

    /// A scan of `source` that found `events` and nothing else.
    fn scan_of(source: LogSource, events: Vec<SchedEvent>) -> StreamScan {
        StreamScan {
            source,
            events,
            cov: CoverageCounts::default(),
            example: None,
            name: None,
            max_ts: None,
        }
    }

    /// Seeded stream sets in [`LogSource`] order, each event read from
    /// its stream: the ResourceManager's and NodeManagers' events of any
    /// application, each driver's and executor's of their own with their
    /// FIRST_LOG at index 0; streams out of time order, some empty, and
    /// timestamps from a span of one to six milliseconds, so that most
    /// events tie. Each container event has a container of its own, so a
    /// reordering among them shows.
    fn seeded_scans(rng: &mut simkit::SimRng) -> Vec<StreamScan> {
        let apps: Vec<ApplicationId> = (1..=1 + rng.index(5) as u32)
            .map(|seq| ApplicationId::new(1_521_018_000_000, seq))
            .collect();
        let mut sources = vec![LogSource::ResourceManager];
        let nodes = 1 + rng.index(3) as u32;
        sources.extend((1..=nodes).map(|n| LogSource::NodeManager(NodeId(n))));
        for &app in &apps {
            if rng.chance(0.8) {
                sources.push(LogSource::Driver(app));
            }
            let executors = 2..2 + rng.index(3) as u64;
            sources.extend(executors.map(|c| LogSource::Executor(app.attempt(1).container(c))));
        }
        sources.sort();
        let span = 1 + rng.below(6);
        let mut seq = 1_000;
        let mut scans = Vec::new();
        for source in sources {
            let events = (0..rng.index(12)).map(|i| {
                let ts = TsMs(100 + rng.below(span));
                let app = apps[rng.index(apps.len())];
                let mut container = || {
                    seq += 1;
                    Some(Ids::Container(app.attempt(1).container(seq)))
                };
                let (kind, named) = match source {
                    LogSource::ResourceManager if rng.chance(0.5) => {
                        (EventKind::AppSubmitted, Some(Ids::App(app)))
                    }
                    LogSource::ResourceManager => (EventKind::ContainerAllocated, container()),
                    LogSource::NodeManager(_) => (EventKind::ContainerLocalizing, container()),
                    LogSource::Driver(_) if i == 0 => (EventKind::DriverFirstLog, None),
                    LogSource::Driver(_) => (EventKind::StartAllo, None),
                    LogSource::Executor(_) if i == 0 => (EventKind::ExecutorFirstLog, None),
                    LogSource::Executor(_) => (EventKind::TaskAssigned, None),
                };
                SchedEvent::new(ts, kind, source, named).unwrap()
            });
            scans.push(scan_of(source, events.collect()));
        }
        scans
    }

    /// The per-application gather, then the one order function, hands
    /// each application exactly what merging every stream by timestamp
    /// and keeping that application's events does — whether the streams
    /// come grouped by application or as they were scanned.
    #[test]
    fn an_applications_gathered_events_are_the_merge_restricted_to_it() {
        let mut rng = simkit::SimRng::new(47);
        for case in 0..300 {
            let scans = seeded_scans(&mut rng);
            let merged = merge_sorted_streams(scans.iter().map(|s| s.events.clone()).collect());
            let mut want: BTreeMap<ApplicationId, Vec<SchedEvent>> = BTreeMap::new();
            for e in &merged {
                want.entry(e.app).or_default().push(*e);
            }
            for grouped in [false, true] {
                let scans = scans.iter().map(|s| {
                    let events = s.events.clone();
                    let events = if grouped {
                        group_by_app(events)
                    } else {
                        events
                    };
                    scan_of(s.source, events)
                });
                let mut x = gather_scans(scans.collect());
                let apps: Vec<ApplicationId> = x.apps.iter().map(|(app, _)| *app).collect();
                assert_eq!(
                    apps,
                    want.keys().copied().collect::<Vec<_>>(),
                    "case {case}"
                );
                for (app, at) in &x.apps {
                    order_app_events(&mut x.events[at.clone()]);
                    assert_eq!(
                        x.events[at.clone()],
                        want[app],
                        "case {case}, {app}, grouped {grouped}"
                    );
                }
            }
        }
    }
}
