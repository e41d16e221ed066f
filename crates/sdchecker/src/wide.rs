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
use obs::json::{push_escaped, push_f64, push_u64};

use crate::analyze::Analysis;
use crate::decompose::{AppDelays, ContainerDelays, APP_COMPONENTS, CONTAINER_COMPONENTS};
use crate::fleet::AppFacts;

/// Schema tag stamped on every wide-event line.
pub const WIDE_EVENTS_SCHEMA: &str = "wide-events-v1";

// The appending forms below are what `report-v1` and `wide-events-v1`
// are written with: every value goes straight into the document through
// the `obs::json` push primitives and the ids' `write_to`, never through
// a `String` of its own.

/// Append `v`, or `null`.
pub(crate) fn push_opt_u64(out: &mut String, v: Option<u64>) {
    match v {
        Some(n) => push_u64(out, n),
        None => out.push_str("null"),
    }
}

/// Append `s` quoted and escaped, or `null`.
pub(crate) fn push_opt_str(out: &mut String, s: Option<&str>) {
    match s {
        Some(s) => {
            out.push('"');
            push_escaped(out, s);
            out.push('"');
        }
        None => out.push_str("null"),
    }
}

fn push_bool(out: &mut String, v: bool) {
    out.push_str(if v { "true" } else { "false" });
}

/// Append `v` rounded to one decimal.
pub(crate) fn push_tenths(out: &mut String, v: f64) {
    push_f64(out, (v * 10.0).round() / 10.0);
}

/// Append one container's object — the same bytes in both schemas.
pub(crate) fn push_container(out: &mut String, c: &ContainerDelays) {
    out.push_str("{\"cid\": \"");
    let _ = c.cid.write_to(out);
    out.push_str("\", \"is_am\": ");
    push_bool(out, c.is_am);
    out.push_str(", \"node\": ");
    match c.node {
        Some(n) => {
            out.push('"');
            let _ = n.write_to(out);
            out.push('"');
        }
        None => out.push_str("null"),
    }
    for (name, acc) in CONTAINER_COMPONENTS.iter() {
        out.push_str(", \"");
        out.push_str(name);
        out.push_str("_ms\": ");
        push_opt_u64(out, acc(c));
    }
    out.push('}');
}

/// Append the object of all ten `APP_COMPONENTS`, ms or null, keyed by
/// component name plus `key_suffix`: a wide event's and an `/exemplars`
/// entry's `components` (no suffix), a `report-v1` application's `delays`
/// (`_ms`).
pub(crate) fn push_components(out: &mut String, d: &AppDelays, key_suffix: &str) {
    out.push('{');
    for (j, (name, acc)) in APP_COMPONENTS.iter().enumerate() {
        if j > 0 {
            out.push_str(", ");
        }
        out.push('"');
        out.push_str(name);
        out.push_str(key_suffix);
        out.push_str("\": ");
        push_opt_u64(out, acc(d));
    }
    out.push('}');
}

/// Append one canonical `wide-events-v1` line (no trailing newline) for
/// an application retired at `retire_ms` (log time) — `forced` when the
/// idle timeout, not terminal evidence, retired it.
pub(crate) fn push_wide_event(out: &mut String, w: &AppFacts<'_>, forced: bool, retire_ms: TsMs) {
    let d = w.delays;
    let start = out.len();
    out.push_str("{\"schema\": \"");
    out.push_str(WIDE_EVENTS_SCHEMA);
    out.push_str("\", \"app\": \"");
    let _ = d.app.write_to(out);
    out.push_str("\", \"name\": ");
    push_opt_str(out, w.name);
    out.push_str(", \"outcome\": \"");
    out.push_str(d.outcome.label());
    out.push_str("\", \"forced\": ");
    push_bool(out, forced);
    out.push_str(", \"attempts\": ");
    push_u64(out, u64::from(d.attempts));
    out.push_str(", \"wasted_ms\": ");
    push_u64(out, d.wasted_ms);
    out.push_str(", \"unused_containers\": ");
    push_u64(out, w.unused_containers as u64);
    out.push_str(", \"events\": ");
    push_u64(out, w.events as u64);
    out.push_str(", \"submitted_ms\": ");
    push_opt_u64(out, d.submitted.map(|t| t.0));
    out.push_str(", \"first_task_ms\": ");
    push_opt_u64(out, d.first_task.map(|t| t.0));
    out.push_str(", \"retire_ms\": ");
    push_u64(out, retire_ms.0);
    out.push_str(", \"lag_ms\": ");
    push_u64(out, w.last_event.map_or(0, |t| retire_ms.since(t)));
    out.push_str(", \"components\": ");
    push_components(out, d, "");
    out.push_str(", \"containers\": [");
    for (j, c) in d.containers.iter().enumerate() {
        if j > 0 {
            out.push_str(", ");
        }
        push_container(out, c);
    }
    out.push_str("], \"blame\": ");
    match &w.critical {
        Some(p) => {
            out.push_str("{\"dominant\": ");
            match p.dominant() {
                Some(s) => {
                    out.push('"');
                    out.push_str(s.component);
                    out.push_str("\", \"dominant_pct\": ");
                    push_tenths(out, p.blame_pct(s));
                }
                None => out.push_str("null, \"dominant_pct\": null"),
            }
            out.push_str(", \"total_ms\": ");
            push_u64(out, p.total_ms);
            out.push_str(", \"segments\": [");
            for (j, seg) in p.segments.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str("{\"component\": \"");
                out.push_str(seg.component);
                out.push_str("\", \"entity\": \"");
                push_escaped(out, &seg.entity);
                out.push_str("\", \"dur_ms\": ");
                push_u64(out, seg.dur_ms());
                out.push_str(", \"pct\": ");
                push_tenths(out, p.blame_pct(seg));
                out.push('}');
            }
            out.push_str("]}");
        }
        None => out.push_str("null"),
    }
    out.push('}');
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
