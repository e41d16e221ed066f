//! Output checks: every operation's outputs are compared with a reference
//! computed in-process, and the reference itself is checked against the
//! simulator's ground truth.

use std::collections::BTreeMap;
use std::path::Path;

use obs::json::{self, Json};
use sdchecker::decompose::{AppOutcome, APP_COMPONENTS};
use sdchecker::{critical_path, full_report, report_json, wide_events_for_analysis, Analysis};
use sparksim::JobSummary;

/// The log-derived runtime starts at SUBMITTED (a few ms after client
/// submission) and ends at AM unregistration, so it may differ from the
/// simulator's ground truth by less than this (the repo's own
/// `sdchecker_job_runtime_matches_simulator_ground_truth` tolerance).
const RUNTIME_TOLERANCE_MS: u64 = 100;

/// The three documents a batch `sdchecker` run must reproduce byte for
/// byte.
#[derive(PartialEq)]
pub struct Reference {
    /// `--report-json`.
    pub report_json: String,
    /// Standard output.
    pub full_report: String,
    /// `--wide-events-out`.
    pub wide: String,
}

impl Reference {
    /// Render the reference documents of an in-process analysis.
    pub fn of(analysis: &Analysis) -> Reference {
        Reference {
            report_json: report_json(analysis),
            full_report: full_report(analysis),
            wide: wide_events_for_analysis(analysis),
        }
    }
}

/// Check an analysis against the simulator's ground truth: one analysed
/// app per simulated job, each completed with every app-level component
/// present and a runtime that matches the job's.
pub fn against_ground_truth(analysis: &Analysis, jobs: &[JobSummary]) -> Result<(), String> {
    if analysis.delays.len() != jobs.len() {
        return Err(format!(
            "{} apps analysed, {} jobs simulated",
            analysis.delays.len(),
            jobs.len()
        ));
    }
    for job in jobs {
        let app = job.app;
        let d = analysis
            .delays_of(app)
            .ok_or_else(|| format!("{app}: simulated but not analysed"))?;
        if d.outcome != AppOutcome::Completed {
            return Err(format!("{app}: outcome {}", d.outcome.label()));
        }
        if let Some((name, _)) = APP_COMPONENTS.iter().find(|(_, get)| get(d).is_none()) {
            return Err(format!("{app}: component {name} missing"));
        }
        let truth = job.runtime().as_u64();
        let measured = d.job_runtime_ms.unwrap_or(0);
        if truth.abs_diff(measured) >= RUNTIME_TOLERANCE_MS {
            return Err(format!(
                "{app}: log runtime {measured} ms, simulated {truth} ms"
            ));
        }
    }
    Ok(())
}

/// Check that noise changed nothing per app: the same delays and the same
/// critical paths as the same apps analysed without noise.
pub fn same_per_app(noisy: &Analysis, clean: &Analysis) -> Result<(), String> {
    if noisy.delays.len() != clean.delays.len() {
        return Err(format!(
            "{} apps with noise, {} without",
            noisy.delays.len(),
            clean.delays.len()
        ));
    }
    for (n, c) in noisy.delays.iter().zip(&clean.delays) {
        if format!("{n:?}") != format!("{c:?}") {
            return Err(format!("{}: delays differ with noise", c.app));
        }
        let path = |a: &Analysis| {
            a.graphs
                .get(&c.app)
                .and_then(critical_path)
                .map(|p| format!("{p:?}"))
        };
        if path(noisy) != path(clean) {
            return Err(format!("{}: critical path differs with noise", c.app));
        }
    }
    Ok(())
}

fn same_bytes(what: &str, path: &Path, want: &str) -> Result<(), String> {
    let got = std::fs::read(path).map_err(|e| format!("{what}: {e}"))?;
    if got == want.as_bytes() {
        Ok(())
    } else {
        Err(format!(
            "{what} differs from the reference ({} bytes, want {})",
            got.len(),
            want.len()
        ))
    }
}

/// Check the three files one batch operation left behind.
pub fn batch_outputs(
    stdout: &Path,
    report: &Path,
    wide: &Path,
    reference: &Reference,
) -> Result<(), String> {
    same_bytes("report.json", report, &reference.report_json)?;
    same_bytes("stdout report", stdout, &reference.full_report)?;
    same_bytes("wide events", wide, &reference.wide)
}

/// Fields of a wide event that depend on when the app retired, not on
/// what was measured.
const RETIREMENT_FIELDS: [&str; 2] = ["retire_ms", "lag_ms"];

/// Wide-event lines keyed by app, without [`RETIREMENT_FIELDS`] — the
/// form in which daemon and batch output must agree.
pub fn wide_by_app(text: &str) -> Result<BTreeMap<String, Json>, String> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let Json::Obj(members) = json::parse(line).map_err(|e| format!("wide event: {e}"))? else {
            return Err("wide event is not an object".into());
        };
        let kept: Vec<(String, Json)> = members
            .into_iter()
            .filter(|(k, _)| !RETIREMENT_FIELDS.contains(&k.as_str()))
            .collect();
        let doc = Json::Obj(kept);
        let app = doc
            .get("app")
            .and_then(Json::as_str)
            .ok_or("wide event without app")?
            .to_string();
        if out.insert(app.clone(), doc).is_some() {
            return Err(format!("{app}: retired twice"));
        }
    }
    Ok(out)
}

/// Check a daemon's `--wide-events-out` file against the batch reference.
pub fn daemon_wide(path: &Path, reference: &BTreeMap<String, Json>) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("wide events: {e}"))?;
    let got = wide_by_app(&text)?;
    if got.len() != reference.len() {
        return Err(format!(
            "daemon retired {} apps, batch analysed {}",
            got.len(),
            reference.len()
        ));
    }
    let mut differing = 0;
    let mut first = None;
    for (app, doc) in &got {
        let Some(want) = reference.get(app) else {
            return Err(format!("{app}: retired by the daemon, unknown to batch"));
        };
        if doc != want {
            differing += 1;
            let (Json::Obj(got), Json::Obj(want)) = (doc, want) else {
                unreachable!("wide_by_app yields objects")
            };
            first.get_or_insert_with(|| {
                let fields: Vec<String> = got
                    .iter()
                    .zip(want)
                    .filter(|(g, w)| g != w)
                    .map(|(g, w)| format!("{} is {:?}, batch says {:?}", g.0, g.1, w.1))
                    .collect();
                format!("{app}: {}", fields.join("; "))
            });
        }
    }
    match first {
        Some(what) => Err(format!(
            "{differing} of {} daemon wide events differ from batch, first {what}",
            got.len()
        )),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wide_events_compare_without_retirement_fields() {
        let batch = "{\"app\": \"a1\", \"retire_ms\": 9, \"lag_ms\": 4, \"events\": 3, \"total\": 3}\n\
                     {\"app\": \"a2\", \"retire_ms\": 9, \"lag_ms\": 1, \"events\": 5, \"total\": 5}\n";
        let daemon = "{\"app\": \"a2\", \"retire_ms\": 7, \"lag_ms\": 0, \"events\": 5, \"total\": 5}\n\
                      {\"app\": \"a1\", \"retire_ms\": 6, \"lag_ms\": 2, \"events\": 3, \"total\": 3}\n";
        let reference = wide_by_app(batch).unwrap();
        assert_eq!(reference, wide_by_app(daemon).unwrap());
        assert_eq!(reference["a1"].get("retire_ms"), None);
        let other = wide_by_app("{\"app\": \"a1\", \"retire_ms\": 9, \"total\": 4}\n").unwrap();
        assert_ne!(reference["a1"], other["a1"]);
        assert!(wide_by_app(&format!("{batch}{batch}")).is_err());
    }
}
