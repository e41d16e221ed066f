//! Tail exemplars: a bounded reservoir of the worst applications per
//! delay component, with their evidence kept alive.
//!
//! The incremental pipeline's whole memory story is "drop the raw
//! events at retirement" — which is also why an aggregate tail spike is
//! a dead end: by the time `p99 localization` moves, the apps that
//! moved it are gone. [`TailExemplars`] closes that gap. At retirement,
//! every app is *offered* to the reservoir; for each of the ten
//! [`APP_COMPONENTS`] it keeps the top-K `(value, app)` pairs, and any
//! app currently in at least one top-K list is **promoted**: its sorted
//! events, delay decomposition, and critical path are retained so the
//! daemon can serve a full per-app Perfetto trace
//! (`/exemplars/<app>/trace.json`) and critical-path dump on demand.
//! Apps that fall out of every list are evicted and their events
//! dropped — memory is bounded by `K × components`, never by run
//! length.
//!
//! Selection is deterministic: each list is ordered `(value desc,
//! app asc)` and insertion is a pure function of the offered set, so
//! the reservoir's content is identical for any retirement order of the
//! same apps — the property the replay-equivalence tests pin down.

use std::collections::BTreeMap;

use logmodel::{ApplicationId, LogSource, TsMs};
use obs::export::TraceEvents;
use obs::json::{document, Layout, Name, Null, Quoted};
use obs::json_fields;

use crate::analyze::analyze_app_events;
use crate::apptrace::app_trace_into;
use crate::checkpoint::CkptError;
use crate::critical::{critical_path, CriticalPath};
use crate::decompose::{AppDelays, APP_COMPONENTS};
use crate::event::SchedEvent;
use crate::graph::build_graphs;
use crate::wide::{push_components, push_segments};
use crate::wire::{corrupt, Dec, Decode, Enc, Encode};

/// Schema tag of the `/exemplars` index document.
pub(crate) const EXEMPLARS_SCHEMA: &str = "sdcheckerd-exemplars-v1";

/// A retired application promoted into the reservoir: everything needed
/// to rebuild its trace and explain its tail ranking, retained past
/// retirement.
#[derive(Debug, Clone)]
pub struct PromotedApp {
    /// The application.
    pub app: ApplicationId,
    /// Mined display name, if seen.
    pub name: Option<String>,
    /// Full delay decomposition.
    pub delays: AppDelays,
    /// Critical path, when the app reached its first task.
    pub critical: Option<CriticalPath>,
    /// The app's extracted events, sorted `(ts, source)` — the exact
    /// slice its analysis ran over.
    pub events: Vec<SchedEvent>,
    /// Idle-timeout retirement.
    pub forced: bool,
    /// Logical retirement instant (log time).
    pub retire_ms: TsMs,
}

/// A promoted app's checkpoint is its primary evidence only. The
/// analysis is recomputed from the events on restore — the per-app unit
/// is deterministic, so recompute-over-serialize shrinks the checkpoint
/// and cannot drift from the code that would have produced it.
impl Encode for PromotedApp {
    fn encode(&self, e: &mut Enc) {
        let PromotedApp {
            app,
            name,
            delays: _,   // recomputed from `events`
            critical: _, // recomputed from `events`
            events,
            forced,
            retire_ms,
        } = self;
        (app, name, events).encode(e);
        (forced, retire_ms).encode(e);
    }
}

impl Decode for PromotedApp {
    fn decode(d: &mut Dec<'_>) -> Result<PromotedApp, CkptError> {
        let (app, name, events): (_, _, Vec<SchedEvent>) = d.get()?;
        let (forced, retire_ms) = d.get()?;
        let (graph, delays, _) = analyze_app_events(app, &events);
        Ok(PromotedApp {
            app,
            name,
            delays,
            critical: critical_path(&graph),
            events,
            forced,
            retire_ms,
        })
    }
}

/// Bounded top-K reservoir of worst apps per delay component. See the
/// module docs for the selection and eviction policy.
#[derive(Debug)]
pub struct TailExemplars {
    k: usize,
    /// Per-`APP_COMPONENTS` ranking, ordered `(value desc, app asc)`,
    /// truncated to `k`.
    tops: Vec<Vec<(u64, ApplicationId)>>,
    /// Apps present in at least one ranking, with retained evidence.
    promoted: BTreeMap<ApplicationId, PromotedApp>,
    /// Bumped on every membership or ranking change — callers cache
    /// rendered traces against this.
    generation: u64,
}

impl TailExemplars {
    /// A reservoir keeping the worst `k` apps per component (`k = 0`
    /// disables promotion entirely).
    pub fn new(k: usize) -> TailExemplars {
        TailExemplars {
            k,
            tops: APP_COMPONENTS.iter().map(|_| Vec::new()).collect(),
            promoted: BTreeMap::new(),
            generation: 0,
        }
    }

    /// Offer a retiring app. If it lands in any component's top-K its
    /// evidence is retained; apps it displaces out of every ranking are
    /// evicted (their events finally dropped).
    pub(crate) fn offer(&mut self, candidate: PromotedApp) {
        if self.k == 0 {
            return;
        }
        let mut changed = false;
        for (i, (_, acc)) in APP_COMPONENTS.iter().enumerate() {
            let Some(v) = acc(&candidate.delays) else {
                continue;
            };
            let list = &mut self.tops[i];
            let pos = list.partition_point(|&(x, app)| x > v || (x == v && app < candidate.app));
            if pos >= self.k {
                continue;
            }
            list.insert(pos, (v, candidate.app));
            list.truncate(self.k);
            changed = true;
        }
        if !changed {
            return;
        }
        // Recompute membership: the union of every ranking.
        let keep: std::collections::BTreeSet<ApplicationId> = self
            .tops
            .iter()
            .flat_map(|l| l.iter().map(|&(_, app)| app))
            .collect();
        self.promoted.retain(|app, _| keep.contains(app));
        if keep.contains(&candidate.app) {
            self.promoted.insert(candidate.app, candidate);
        }
        self.generation += 1;
    }

    /// Promoted (evidence-retained) app count — bounded by `k × 10`.
    pub fn promoted_apps(&self) -> usize {
        self.promoted.len()
    }

    /// Events retained across all promoted apps (the reservoir's memory
    /// footprint in events).
    pub fn events_retained(&self) -> usize {
        self.promoted.values().map(|p| p.events.len()).sum()
    }

    /// Monotone change counter for cache invalidation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// One promoted app's retained evidence.
    pub fn get(&self, app: ApplicationId) -> Option<&PromotedApp> {
        self.promoted.get(&app)
    }

    /// All promoted apps, ascending id.
    pub fn iter(&self) -> impl Iterator<Item = &PromotedApp> {
        self.promoted.values()
    }

    /// The `/exemplars` index: per-component rankings plus the full
    /// detail (components, critical path, source extents) of every
    /// promoted app. Schema [`EXEMPLARS_SCHEMA`].
    pub fn index_json(&self) -> String {
        document(0, Layout::Block, |doc| {
            json_fields!(doc, "schema" => EXEMPLARS_SCHEMA, "slots" => self.k);
            let mut components = doc.obj("components", Layout::Block);
            for ((name, _), top) in APP_COMPONENTS.iter().zip(&self.tops) {
                let mut ranking = components.arr(*name, Layout::Inline);
                for (v, app) in top {
                    let mut obj = ranking.obj(Layout::Inline);
                    json_fields!(obj, "app" => app, "value_ms" => v);
                }
            }
            drop(components);
            let mut apps = doc.obj("apps", Layout::Block);
            for (app, p) in &self.promoted {
                let trace = Quoted(|out: &mut String| {
                    out.push_str("/exemplars/");
                    let _ = app.write_to(out);
                    out.push_str("/trace.json");
                });
                let mut obj = apps.obj(Name(&app.to_string()), Layout::Inline);
                json_fields!(obj, "name" => p.name.as_deref(),
                    "outcome" => p.delays.outcome.label(), "forced" => p.forced,
                    "retire_ms" => p.retire_ms, "events" => p.events.len(), "trace" => trace);
                push_components(obj.obj("components", Layout::Inline), &p.delays, "");
                // Per-source extents: where (and when) this app's evidence
                // lives in the corpus, for whoever wants the raw lines. One
                // path per distinct source, listed in path order.
                let mut extents: BTreeMap<LogSource, (usize, TsMs, TsMs)> = BTreeMap::new();
                for ev in &p.events {
                    let e = extents.entry(ev.source()).or_insert((0, ev.ts, ev.ts));
                    e.0 += 1;
                    e.1 = e.1.min(ev.ts);
                    e.2 = e.2.max(ev.ts);
                }
                let sources: BTreeMap<String, (usize, TsMs, TsMs)> = extents
                    .into_iter()
                    .map(|(source, extent)| (source.rel_path(), extent))
                    .collect();
                let mut by_path = obj.obj("sources", Layout::Inline);
                for (path, (n, first, last)) in &sources {
                    let mut extent = by_path.obj(Name(path), Layout::Inline);
                    json_fields!(extent, "events" => n, "first_ms" => first, "last_ms" => last);
                }
                drop(by_path);
                let Some(cp) = &p.critical else {
                    obj.field("critical_path", Null);
                    continue;
                };
                let mut path = obj.obj("critical_path", Layout::Inline);
                json_fields!(path, "total_ms" => cp.total_ms,
                    "dominant" => cp.dominant().map(|s| s.component));
                push_segments(path.arr("segments", Layout::Inline), cp, "pct");
            }
        })
    }

    /// Rebuild a reservoir from its checkpoint. `k` is the configured
    /// slot count; state saved under a different one is rejected.
    pub(crate) fn decode(d: &mut Dec<'_>, k: usize) -> Result<TailExemplars, CkptError> {
        let (saved_k, generation): (u64, u64) = d.get()?;
        if saved_k != k as u64 {
            return Err(corrupt(format!(
                "checkpoint has {saved_k} exemplar slots, configured {k}"
            )));
        }
        let tops: Vec<Vec<(u64, ApplicationId)>> = d.get()?;
        if tops.len() != APP_COMPONENTS.len() {
            return Err(corrupt(format!(
                "checkpoint has {} component rankings, expected {}",
                tops.len(),
                APP_COMPONENTS.len()
            )));
        }
        let promoted: Vec<PromotedApp> = d.get()?;
        Ok(TailExemplars {
            k,
            tops,
            promoted: promoted.into_iter().map(|p| (p.app, p)).collect(),
            generation,
        })
    }

    /// Rebuild one promoted app's Perfetto trace from its retained
    /// events — the on-demand back-end of `/exemplars/<app>/trace.json`.
    /// `None` when the app is not (or no longer) promoted.
    pub fn trace_json(&self, app: ApplicationId) -> Option<String> {
        let p = self.promoted.get(&app)?;
        let graphs = build_graphs(&p.events);
        let g = graphs.get(&app)?;
        let mut t = TraceEvents::new();
        app_trace_into(&mut t, g, app.seq as u64, p.name.as_deref());
        Some(t.finish())
    }
}

impl Encode for TailExemplars {
    fn encode(&self, e: &mut Enc) {
        let TailExemplars {
            k,
            tops,
            promoted,
            generation,
        } = self;
        (k, generation, tops).encode(e);
        // Keyed by the app id each entry already leads with.
        e.seq(promoted.values());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logmodel::Epoch;

    fn promoted(seq: u32, total: Option<u64>, alloc: Option<u64>) -> PromotedApp {
        let app = ApplicationId::new(Epoch::default_run().unix_ms, seq);
        let (_, mut delays, _) = crate::analyze::analyze_app_events(app, &[]);
        delays.total_ms = total;
        delays.alloc_ms = alloc;
        PromotedApp {
            app,
            name: None,
            delays,
            critical: None,
            events: Vec::new(),
            forced: false,
            retire_ms: TsMs(1_000 + seq as u64),
        }
    }

    #[test]
    fn keeps_top_k_per_component_and_evicts_losers() {
        let mut ex = TailExemplars::new(2);
        ex.offer(promoted(1, Some(100), None));
        ex.offer(promoted(2, Some(300), None));
        ex.offer(promoted(3, Some(200), None));
        // total top-2 is {300, 200}: app 1 evicted.
        assert_eq!(ex.promoted_apps(), 2);
        assert!(ex
            .get(ApplicationId::new(Epoch::default_run().unix_ms, 1))
            .is_none());
        // App 1 would have stayed had it led another component.
        let mut ex2 = TailExemplars::new(2);
        ex2.offer(promoted(1, Some(100), Some(999)));
        ex2.offer(promoted(2, Some(300), None));
        ex2.offer(promoted(3, Some(200), None));
        assert_eq!(ex2.promoted_apps(), 3);
    }

    #[test]
    fn selection_is_order_independent() {
        let apps = [
            promoted(1, Some(50), Some(10)),
            promoted(2, Some(300), None),
            promoted(3, Some(200), Some(40)),
            promoted(4, None, Some(70)),
            promoted(5, Some(300), Some(70)),
        ];
        let mut fwd = TailExemplars::new(2);
        for a in apps.iter().cloned() {
            fwd.offer(a);
        }
        let mut rev = TailExemplars::new(2);
        for a in apps.iter().rev().cloned() {
            rev.offer(a);
        }
        assert_eq!(fwd.tops, rev.tops);
        assert_eq!(fwd.index_json(), rev.index_json());
    }

    #[test]
    fn index_json_parses_and_lists_every_component() {
        let mut ex = TailExemplars::new(1);
        ex.offer(promoted(7, Some(123), Some(45)));
        let doc = obs::json::parse(&ex.index_json()).expect("index parses");
        assert_eq!(
            doc.get("schema").and_then(|s| s.as_str()),
            Some(EXEMPLARS_SCHEMA)
        );
        let comps = doc.get("components").unwrap();
        for (name, _) in APP_COMPONENTS.iter() {
            assert!(comps.get(name).is_some(), "{name}");
        }
        let total = comps.get("total").unwrap().as_arr().unwrap();
        assert_eq!(total.len(), 1);
        assert_eq!(
            total[0].get("value_ms").and_then(|v| v.as_f64()),
            Some(123.0)
        );
        let apps = doc.get("apps").unwrap();
        let app = ApplicationId::new(Epoch::default_run().unix_ms, 7);
        let detail = apps.get(&app.to_string()).expect("app detail");
        assert_eq!(detail.get("events").and_then(|v| v.as_f64()), Some(0.0));
    }

    #[test]
    fn zero_slots_disables_promotion() {
        let mut ex = TailExemplars::new(0);
        ex.offer(promoted(1, Some(100), Some(100)));
        assert_eq!(ex.promoted_apps(), 0);
        assert_eq!(ex.generation(), 0);
    }
}
