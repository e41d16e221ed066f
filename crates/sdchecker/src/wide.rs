//! Wide events: one canonical structured JSONL line per retired
//! application.
//!
//! Aggregates (sketches, counters) answer "how bad is the tail"; a wide
//! event answers "which app, and why" — after the fact, without
//! rerunning analysis. Every retirement emits exactly one line carrying
//! the full delay decomposition, per-container breakdown, critical-path
//! blame, outcome, attempts, wasted time, and the retirement lag. The
//! line is **canonical**: key order is fixed, floats render through
//! [`obs::json::push_f64`], and the retirement instant is *logical* (log
//! time, not wall time), so the same corpus produces byte-identical
//! lines at any poll cadence, append chunking, or `--threads` setting —
//! and a daemon run whose apps drain at `finish()` matches batch
//! [`wide_events_for_analysis`] byte for byte.
//!
//! Schema `wide-events-v1` (one JSON object per line):
//!
//! | key                 | type          | meaning |
//! |---------------------|---------------|---------|
//! | `schema`            | string        | always `"wide-events-v1"` |
//! | `app`               | string        | YARN application id |
//! | `name`              | string\|null  | mined display name (TPC-H query label) |
//! | `outcome`           | string        | `completed` / `failed` / `killed` / `truncated` |
//! | `forced`            | bool          | idle-timeout (not terminal-evidence) retirement |
//! | `attempts`          | number        | AM attempts observed |
//! | `wasted_ms`         | number        | delay burned in dead AM attempts |
//! | `unused_containers` | number        | allocated-but-never-used containers |
//! | `events`            | number        | extracted events analyzed for this app |
//! | `submitted_ms`      | number\|null  | submission instant (log time) |
//! | `first_task_ms`     | number\|null  | first task launch (log time) |
//! | `retire_ms`         | number        | logical retirement instant (log time) |
//! | `lag_ms`            | number        | `retire_ms` minus the app's last event |
//! | `components`        | object        | all ten `APP_COMPONENTS`, ms or null |
//! | `containers`        | array         | per-container component breakdown |
//! | `blame`             | object\|null  | critical path: dominant, segments, pct |

use logmodel::TsMs;
use obs::json::{Arr, Layout, Null, Obj};
use obs::json_fields;

use crate::analyze::Analysis;
use crate::critical::CriticalPath;
use crate::decompose::{AppDelays, APP_COMPONENTS, CONTAINER_COMPONENTS};
use crate::fleet::AppFacts;

/// Schema tag stamped on every wide-event line.
pub const WIDE_EVENTS_SCHEMA: &str = "wide-events-v1";

// The writers below are what `report-v1` and `wide-events-v1` are
// written with: every value goes straight into the document through
// `obs::json`'s writer and the ids' `write_to`, never through a `String`
// of its own.

/// `v` rounded to one decimal: how blame shares and mean durations are
/// reported.
pub(crate) fn tenths(v: f64) -> f64 {
    (v * 10.0).round() / 10.0
}

/// Fill an array with an object per container — the same bytes in both
/// schemas.
pub(crate) fn push_containers(mut arr: Arr<'_>, d: &AppDelays) {
    for c in &d.containers {
        let mut obj = arr.obj(Layout::Inline);
        json_fields!(obj, "cid" => c.cid, "is_am" => c.is_am, "node" => c.node);
        for (name, acc) in CONTAINER_COMPONENTS.iter() {
            obj.field((*name, "_ms"), acc(c));
        }
    }
}

/// Fill an array with a critical path's segments, intervals included,
/// each one's share of the path under `pct_key`: `report-v1`'s
/// (`blame_pct`) and an `/exemplars` entry's (`pct`).
pub(crate) fn push_segments(mut arr: Arr<'_>, p: &CriticalPath, pct_key: &'static str) {
    for seg in &p.segments {
        let mut obj = arr.obj(Layout::Inline);
        json_fields!(obj, "component" => seg.component, "entity" => &seg.entity,
            "from_ms" => seg.from, "to_ms" => seg.to, "dur_ms" => seg.dur_ms(),
            pct_key => tenths(p.blame_pct(seg)));
    }
}

/// Fill the object of all ten `APP_COMPONENTS`, ms or null, keyed by
/// component name plus `key_suffix`: a wide event's and an `/exemplars`
/// entry's `components` (no suffix), a `report-v1` application's `delays`
/// (`_ms`).
pub(crate) fn push_components(mut obj: Obj<'_>, d: &AppDelays, key_suffix: &'static str) {
    for (name, acc) in APP_COMPONENTS.iter() {
        obj.field((*name, key_suffix), acc(d));
    }
}

/// Append one canonical `wide-events-v1` line (no trailing newline) for
/// an application retired at `retire_ms` (log time) — `forced` when the
/// idle timeout, not terminal evidence, retired it.
pub(crate) fn push_wide_event(out: &mut String, w: &AppFacts<'_>, forced: bool, retire_ms: TsMs) {
    let d = w.delays;
    let start = out.len();
    let mut line = Obj::new(out, Layout::Inline);
    json_fields!(line, "schema" => WIDE_EVENTS_SCHEMA, "app" => d.app, "name" => w.name,
        "outcome" => d.outcome.label(), "forced" => forced, "attempts" => d.attempts,
        "wasted_ms" => d.wasted_ms, "unused_containers" => w.unused_containers,
        "events" => w.events, "submitted_ms" => d.submitted, "first_task_ms" => d.first_task,
        "retire_ms" => retire_ms, "lag_ms" => w.last_event.map_or(0, |t| retire_ms.since(t)));
    push_components(line.obj("components", Layout::Inline), d, "");
    push_containers(line.arr("containers", Layout::Inline), d);
    match &w.critical {
        Some(p) => {
            let mut blame = line.obj("blame", Layout::Inline);
            let dominant = p.dominant();
            json_fields!(blame, "dominant" => dominant.map(|s| s.component),
                "dominant_pct" => dominant.map(|s| tenths(p.blame_pct(s))),
                "total_ms" => p.total_ms);
            let mut segments = blame.arr("segments", Layout::Inline);
            for seg in &p.segments {
                let mut obj = segments.obj(Layout::Inline);
                json_fields!(obj, "component" => seg.component, "entity" => &seg.entity,
                    "dur_ms" => seg.dur_ms(), "pct" => tenths(p.blame_pct(seg)));
            }
        }
        None => json_fields!(line, "blame" => Null),
    }
    drop(line);
    debug_assert!(
        !out[start..].contains('\n'),
        "wide event must be a single line"
    );
}

/// Render the whole corpus as wide-event lines (newline-terminated, one
/// per application, ascending application id). The retirement instant
/// for every app is the corpus watermark — exactly what a tailed run
/// that ends in [`crate::IncrementalAnalyzer::finish`] stamps, so batch
/// output is byte-equal to the daemon's `--wide-events-out` file for the
/// same (settled) corpus.
pub fn wide_events_for_analysis(an: &Analysis) -> String {
    crate::report::Report::new(an).wide_events()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze_store;
    use crate::decompose::AppOutcome;
    use logmodel::{ApplicationId, Epoch, LogSource, LogStore, NodeId};

    fn corpus() -> LogStore {
        let epoch = Epoch::default_run();
        let mut s = LogStore::new(epoch);
        let a = ApplicationId::new(epoch.unix_ms, 1);
        let am = a.attempt(1).container(1);
        let rm = LogSource::ResourceManager;
        s.info(
            rm,
            TsMs(100),
            "RMAppImpl",
            format!("{a} State change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED"),
        );
        s.info(
            rm,
            TsMs(150),
            "RMContainerImpl",
            format!("{am} Container Transitioned from NEW to ALLOCATED"),
        );
        s.info(
            LogSource::NodeManager(NodeId(1)),
            TsMs(200),
            "ContainerImpl",
            format!("Container {am} transitioned from NEW to LOCALIZING"),
        );
        s.info(
            rm,
            TsMs(5_000),
            "RMAppImpl",
            format!(
                "{a} State change from RUNNING to FINAL_SAVING on event = ATTEMPT_UNREGISTERED"
            ),
        );
        s
    }

    #[test]
    fn lines_are_valid_single_line_json_with_the_schema_tag() {
        let an = analyze_store(&corpus());
        let text = wide_events_for_analysis(&an);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), an.delays.len());
        for line in lines {
            let doc = obs::json::parse(line).expect("line parses");
            assert_eq!(
                doc.get("schema").and_then(|s| s.as_str()),
                Some(WIDE_EVENTS_SCHEMA)
            );
            assert_eq!(
                doc.get("retire_ms").and_then(|n| n.as_f64()),
                Some(an.watermark.unwrap().0 as f64)
            );
            let comps = doc.get("components").expect("components object");
            for (name, _) in APP_COMPONENTS.iter() {
                assert!(comps.get(name).is_some(), "component key {name}");
            }
            assert!(doc.get("containers").unwrap().as_arr().is_some());
        }
    }

    #[test]
    fn hostile_names_are_escaped() {
        let epoch = Epoch::default_run();
        let app = ApplicationId::new(epoch.unix_ms, 9);
        // An event-free app decomposes to the all-null truncated record.
        let (_, delays, _) = crate::analyze::analyze_app_events(app, &[]);
        assert_eq!(delays.outcome, AppOutcome::Truncated);
        let facts = AppFacts {
            delays: &delays,
            name: Some("q \"7\"\\x\nnewline"),
            critical: None,
            unused_containers: 0,
            events: 1,
            last_event: Some(TsMs(4)),
        };
        let mut line = String::new();
        push_wide_event(&mut line, &facts, true, TsMs(10));
        assert!(!line.contains('\n'), "{line}");
        let doc = obs::json::parse(&line).expect("parses");
        assert_eq!(
            doc.get("name").and_then(|s| s.as_str()),
            Some("q \"7\"\\x\nnewline")
        );
        assert_eq!(doc.get("lag_ms").and_then(|n| n.as_f64()), Some(6.0));
        assert_eq!(doc.get("forced").and_then(|b| b.as_f64()), None);
        assert!(line.contains("\"forced\": true"));
        assert!(line.contains("\"blame\": null"));
    }
}
