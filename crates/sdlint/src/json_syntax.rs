//! Checker 8: JSON syntax lives in `obs::json`.
//!
//! Every document the workspace emits — `report-v1`, wide events, the
//! daemon's report, `/alerts`, `/exemplars`, trace and metrics files, the
//! health endpoints — is spelled by `obs::json`'s writer, which alone
//! decides separators, quoting, escaping and `null`. A string literal
//! holding a member name's punctuation (a quote, a colon, a space) in
//! any other source is a document spelled by hand again, the way one
//! once served invalid JSON.
//!
//! The scan covers every non-test source under `crates/*/src`, binaries
//! included. There is no allowlist: the one file that may spell the
//! punctuation is the writer itself.

use std::path::Path;

use crate::scan;
use crate::Finding;

const CHECKER: &str = "json";

/// The one source that may spell JSON's member punctuation.
pub const WRITER: &str = "crates/obs/src/json.rs";

/// A member name's closing quote and colon as Rust source spells them
/// inside a string literal, assembled at runtime so this file does not
/// match itself.
fn needle() -> String {
    ['\\', '"', ':', ' '].iter().collect()
}

/// Check the given sources. Split out from [`check`] so mutation tests
/// can feed seeded sources.
pub fn check_sources(sources: &[scan::SourceFile]) -> Vec<Finding> {
    let needle = needle();
    let mut findings = Vec::new();
    for sf in sources.iter().filter(|sf| sf.rel != WRITER) {
        for (i, line) in sf.body.lines().enumerate() {
            if line.contains(&needle) {
                findings.push(Finding::new(
                    CHECKER,
                    format!(
                        "{}:{}: hand-written JSON member `{}` — write the document \
                         with obs::json's Obj/Arr writer",
                        sf.rel,
                        i + 1,
                        line.trim(),
                    ),
                ));
            }
        }
    }
    findings
}

/// Audit the workspace rooted at `repo_root`.
pub fn check(repo_root: &Path) -> Vec<Finding> {
    match scan::workspace_sources(repo_root, true) {
        Ok(sources) => check_sources(&sources),
        Err(e) => vec![Finding::new(CHECKER, e)],
    }
}
