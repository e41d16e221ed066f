//! What both pipelines say about one application and about the fleet.
//!
//! The paper decomposes each application once (§III-C) and every figure
//! of §IV aggregates those records. Batch analysis and the always-on
//! daemon reach an application by different routes — a whole-corpus merge
//! against a per-application retirement — and from there on run the same
//! code: [`AppFacts`], the one per-application value (built by
//! [`crate::Report`] per application of an [`crate::Analysis`], by
//! [`crate::IncrementalAnalyzer`] per retirement); [`FleetAgg::add`], the
//! one fold into fleet aggregates; [`FleetAgg::push_sections`] and
//! [`push_coverage`], the writers of the sections `report-v1` and
//! `sdcheckerd-report-v1` share; and [`record_app_metrics`], the one
//! emission of the `analyze_*` counters and recorder sketches. Batch adds
//! applications in ascending id order, the order `finish()` retires in,
//! so even the `f64` blame sums are the same additions in the same order:
//! over a finished corpus the daemon's shared sections are the batch
//! report's bytes by construction.

use std::collections::BTreeMap;

use logmodel::TsMs;
use obs::json::{Layout, Obj};
use obs::json_fields;
use obs::QuantileSketch;

use crate::checkpoint::CkptError;
use crate::critical::{critical_path, CriticalPath, SEGMENT_COMPONENTS};
use crate::decompose::{AppDelays, AppOutcome, APP_COMPONENTS, CONTAINER_COMPONENTS};
use crate::extract::ParseCoverage;
use crate::graph::SchedulingGraph;
use crate::wide::tenths;
use crate::wire::{corrupt, Dec, Decode, Enc, Encode};

/// One application's facts, computed once for every document and
/// aggregate that mentions it. Borrowed: it lives between an
/// application's analysis and the moment its owner (the [`crate::Report`]
/// or the retiring pipeline) is done rendering.
pub(crate) struct AppFacts<'a> {
    pub(crate) delays: &'a AppDelays,
    pub(crate) name: Option<&'a str>,
    pub(crate) critical: Option<CriticalPath>,
    pub(crate) unused_containers: usize,
    /// Extracted events, and the newest of their timestamps.
    pub(crate) events: usize,
    pub(crate) last_event: Option<TsMs>,
}

impl<'a> AppFacts<'a> {
    /// The facts of the application `graph` and `delays` describe. The
    /// critical path is computed here — once per application per run —
    /// and the event figures are read off the graph's tracks, which hold
    /// every event the application was analyzed from.
    pub(crate) fn new(
        graph: &SchedulingGraph,
        delays: &'a AppDelays,
        name: Option<&'a str>,
        unused_containers: usize,
    ) -> AppFacts<'a> {
        debug_assert_eq!(graph.app, delays.app);
        let tracks =
            std::iter::once(&graph.app_events).chain(graph.containers.values().map(|c| &c.events));
        let (events, last_event) = tracks.fold((0, None), |(n, last), track| {
            let newest = track.iter().map(|(_, ts)| *ts).max();
            (n + track.len(), last.max(newest))
        });
        AppFacts {
            delays,
            name,
            critical: critical_path(graph),
            unused_containers,
            events,
            last_event,
        }
    }
}

/// Fleet-level aggregates over applications. Bounded state: one sketch
/// per delay component plus a handful of counters, regardless of how
/// many applications have passed through.
#[derive(Debug)]
pub(crate) struct FleetAgg {
    pub(crate) retired: u64,
    pub(crate) complete: u64,
    pub(crate) forced: u64,
    pub(crate) outcomes: BTreeMap<&'static str, u64>,
    pub(crate) retried_apps: u64,
    pub(crate) wasted_ms_total: u64,
    pub(crate) unused_containers: u64,
    pub(crate) events_total: u64,
    app_sketches: Vec<QuantileSketch>,
    container_sketches: Vec<QuantileSketch>,
    /// Per critical-path component: `(segments, total ms, total blame %)`.
    pub(crate) blame: BTreeMap<&'static str, (u64, u64, f64)>,
    /// Whether the sketches keep labelled exemplars (see [`FleetAgg::new`]).
    exemplars: bool,
}

impl FleetAgg {
    /// An empty fold. `exemplars` is the one schema difference the fold
    /// carries, and it is fixed by the document the fold feeds, never by
    /// a run: `sdcheckerd-report-v1` sketches name their worst samples
    /// (application and container ids), `report-v1` sketches do not —
    /// that document lists every application anyway, and building a
    /// label per sample would cost the batch reports an allocation per
    /// component per application.
    pub(crate) fn new(exemplars: bool) -> FleetAgg {
        FleetAgg {
            retired: 0,
            complete: 0,
            forced: 0,
            outcomes: BTreeMap::new(),
            retried_apps: 0,
            wasted_ms_total: 0,
            unused_containers: 0,
            events_total: 0,
            app_sketches: vec![QuantileSketch::new(); APP_COMPONENTS.len()],
            container_sketches: vec![QuantileSketch::new(); CONTAINER_COMPONENTS.len()],
            blame: BTreeMap::new(),
            exemplars,
        }
    }

    /// Fold one application in. `forced` marks an idle-timeout
    /// retirement (never set by batch analysis).
    pub(crate) fn add(&mut self, a: &AppFacts<'_>, forced: bool) {
        fn observe(s: &mut QuantileSketch, v: u64, label: Option<&str>) {
            match label {
                Some(label) => s.observe_exemplar(v, label),
                None => s.observe(v),
            }
        }
        let d = a.delays;
        self.retired += 1;
        if forced {
            self.forced += 1;
        }
        if d.total_ms.is_some() {
            self.complete += 1;
        }
        *self.outcomes.entry(d.outcome.label()).or_insert(0) += 1;
        if d.attempts > 1 {
            self.retried_apps += 1;
        }
        self.wasted_ms_total += d.wasted_ms;
        self.unused_containers += a.unused_containers as u64;
        self.events_total += a.events as u64;
        let app_label = self.exemplars.then(|| d.app.to_string());
        for (s, (_, acc)) in self.app_sketches.iter_mut().zip(&APP_COMPONENTS) {
            if let Some(v) = acc(d) {
                observe(s, v, app_label.as_deref());
            }
        }
        for c in &d.containers {
            let cid_label = self.exemplars.then(|| c.cid.to_string());
            let sketches = self.container_sketches.iter_mut();
            for (s, (_, acc)) in sketches.zip(&CONTAINER_COMPONENTS) {
                if let Some(v) = acc(c) {
                    observe(s, v, cid_label.as_deref());
                }
            }
        }
        if let Some(p) = &a.critical {
            for seg in &p.segments {
                let e = self.blame.entry(seg.component).or_insert((0, 0, 0.0));
                e.0 += 1;
                e.1 += seg.dur_ms();
                e.2 += p.blame_pct(seg);
            }
        }
    }

    /// Applications folded in that ended in `outcome`. Every application
    /// lands in exactly one bucket, so the four tallies sum to `retired`.
    pub(crate) fn outcome(&self, outcome: AppOutcome) -> u64 {
        self.outcomes.get(outcome.label()).copied().unwrap_or(0)
    }

    /// Write the three `fleet` members `report-v1` and
    /// `sdcheckerd-report-v1` share — `app_components_ms`,
    /// `container_components_ms`, `critical_blame` — the last members of
    /// the object in both.
    pub(crate) fn push_sections(&self, fleet: &mut Obj<'_>) {
        let mut sketches = |key, names: &[&'static str], sketches: &[QuantileSketch]| {
            let mut obj = fleet.obj(key, Layout::Block);
            for (name, s) in names.iter().zip(sketches) {
                obj.field(*name, (s.count() > 0).then_some(s));
            }
        };
        let (app, cont) = (
            APP_COMPONENTS.map(|c| c.0),
            CONTAINER_COMPONENTS.map(|c| c.0),
        );
        sketches("app_components_ms", &app, &self.app_sketches);
        sketches("container_components_ms", &cont, &self.container_sketches);
        let mut blame = fleet.obj("critical_blame", Layout::Block);
        for (component, &(n, sum_ms, sum_pct)) in &self.blame {
            let mut obj = blame.obj(*component, Layout::Inline);
            json_fields!(obj, "count" => n, "mean_ms" => tenths(sum_ms as f64 / n as f64),
                "mean_pct" => tenths(sum_pct / n as f64));
        }
    }
}

/// Write the top-level `coverage` member of both report schemas.
pub(crate) fn push_coverage(doc: &mut Obj<'_>, cov: &ParseCoverage) {
    let mut coverage = doc.obj("coverage", Layout::Block);
    for (kind, c) in cov.iter() {
        let mut obj = coverage.obj(kind.name(), Layout::Inline);
        json_fields!(obj, "matched" => c.matched, "unmatched" => c.unmatched);
        // The anomalous count appears only when nonzero so undamaged
        // sources keep their historical key set.
        if c.anomalous > 0 {
            obj.field("anomalous", c.anomalous);
        }
        obj.field("ignored", c.ignored);
    }
}

/// Record one analyzed application on the global recorder: the
/// `analyze_*` counters and a sample per decomposed component in the
/// `app_delay_ms{component}` / `container_delay_ms{component}` sketches
/// — the `/metrics` and `run_experiments` export, which aggregates fleet
/// percentiles over any number of applications without keeping raw
/// samples. Batch analysis calls this per application of the corpus,
/// the daemon per retirement; counters are sums and a sketch's
/// observations are order-independent, so a live scrape over a finished
/// corpus equals the batch export. A no-op when recording is disabled.
///
/// The failure-side series appear only with their first nonzero sample,
/// so a fault-free corpus exports byte-identical metrics to builds that
/// predate fault awareness. Truncated apps deliberately get no series: a
/// log capture that stops early is routine (the golden corpora contain
/// one), not failure evidence.
pub(crate) fn record_app_metrics(d: &AppDelays, unused: usize) {
    if !obs::enabled() {
        return;
    }
    obs::count("analyze_apps_total", 1);
    obs::count("unused_containers_total", unused as u64);
    if matches!(d.outcome, AppOutcome::Failed | AppOutcome::Killed) {
        let outcome = [("outcome", d.outcome.label())];
        obs::count_labeled("analyze_app_outcomes_total", &outcome, 1);
    }
    if d.attempts > 1 {
        obs::count("analyze_retried_apps_total", 1);
    }
    if d.wasted_ms > 0 {
        obs::count("analyze_wasted_delay_ms_total", d.wasted_ms);
    }
    for (name, f) in APP_COMPONENTS.iter() {
        if let Some(v) = f(d) {
            obs::sketch_observe_labeled("app_delay_ms", &[("component", name)], v);
        }
    }
    for c in &d.containers {
        for (name, f) in CONTAINER_COMPONENTS.iter() {
            if let Some(v) = f(c) {
                obs::sketch_observe_labeled("container_delay_ms", &[("component", name)], v);
            }
        }
    }
}

/// A map keyed by `&'static str` travels with plain-string keys.
/// Decoding interns each against `table` and rejects anything else, so
/// a damaged checkpoint cannot forge a key.
fn decode_interned<V: Decode>(
    d: &mut Dec<'_>,
    what: &str,
    table: &[&'static str],
) -> Result<BTreeMap<&'static str, V>, CkptError> {
    d.get::<Vec<(String, V)>>()?
        .into_iter()
        .map(|(name, v)| match table.iter().find(|k| **k == name) {
            Some(key) => Ok((*key, v)),
            None => Err(corrupt(format!("unknown {what} {name:?}"))),
        })
        .collect()
}

/// The sketches travel as `obs::sketch`'s own versioned blob, opaque to
/// this format.
impl Encode for QuantileSketch {
    fn encode(&self, e: &mut Enc) {
        e.bytes(&self.to_bytes());
    }
}

impl Decode for QuantileSketch {
    fn decode(d: &mut Dec<'_>) -> Result<QuantileSketch, CkptError> {
        QuantileSketch::from_bytes(d.bytes()?).map_err(|e| corrupt(e.to_string()))
    }
}

impl Encode for FleetAgg {
    fn encode(&self, e: &mut Enc) {
        let FleetAgg {
            retired,
            complete,
            forced,
            outcomes,
            retried_apps,
            wasted_ms_total,
            unused_containers,
            events_total,
            app_sketches,
            container_sketches,
            blame,
            exemplars: _, // only the daemon's fold is checkpointed
        } = self;
        (retired, complete, forced, outcomes).encode(e);
        (retried_apps, wasted_ms_total).encode(e);
        (unused_containers, events_total).encode(e);
        (app_sketches, container_sketches, blame).encode(e);
    }
}

impl Decode for FleetAgg {
    fn decode(d: &mut Dec<'_>) -> Result<FleetAgg, CkptError> {
        let (retired, complete, forced) = d.get()?;
        let outcome_labels = [
            AppOutcome::Completed,
            AppOutcome::Failed,
            AppOutcome::Killed,
            AppOutcome::Truncated,
        ]
        .map(AppOutcome::label);
        let outcomes = decode_interned(d, "outcome label", &outcome_labels)?;
        let (retried_apps, wasted_ms_total, unused_containers, events_total) = d.get()?;
        let (app_sketches, container_sketches): (Vec<_>, Vec<_>) = d.get()?;
        if app_sketches.len() != APP_COMPONENTS.len()
            || container_sketches.len() != CONTAINER_COMPONENTS.len()
        {
            return Err(corrupt(format!(
                "checkpoint has {}/{} sketches, expected {}/{}",
                app_sketches.len(),
                container_sketches.len(),
                APP_COMPONENTS.len(),
                CONTAINER_COMPONENTS.len()
            )));
        }
        let blame = decode_interned(d, "blame component", &SEGMENT_COMPONENTS)?;
        Ok(FleetAgg {
            retired,
            complete,
            forced,
            outcomes,
            retried_apps,
            wasted_ms_total,
            unused_containers,
            events_total,
            app_sketches,
            container_sketches,
            blame,
            exemplars: true,
        })
    }
}
