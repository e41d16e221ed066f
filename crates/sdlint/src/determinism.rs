//! Checker 7: determinism lint.
//!
//! Every golden test in this repo asserts `identical_output: true` —
//! byte-identical reports, wide events, Prometheus export, checkpoint
//! sections, and trace JSON across thread counts and chunk sizes. The
//! single easiest way to lose that property is iterating a randomized
//! hash container somewhere on the dataflow path that feeds an output
//! writer: the bytes stay "mostly right" and drift only when the hasher
//! seed does.
//!
//! So this lint denies the hash containers by *path class*:
//!
//! * Files under an [`OUTPUT_PREFIXES`] prefix — everything that
//!   computes or renders output (the analyzer, the log formats, the
//!   metrics surface, the figure generators, sdlint's own findings) —
//!   may not mention `HashMap`/`HashSet` at all. Use `BTreeMap`/
//!   `BTreeSet` or sort explicitly before emission; there is no
//!   allowlist for these files, determinism is enforced by analysis
//!   instead of luck.
//! * Everything else may use hash containers only with a
//!   [`HASH_ALLOW`] entry (two-way ratchet) justifying why iteration
//!   order cannot reach any output — pure keyed lookup, never iterated.
//!
//! The scan is textual and conservative: a `HashMap` in a string or a
//! type alias counts. Noisy beats silent, as with the other audits.

use std::collections::BTreeMap;
use std::path::Path;

use crate::scan;
use crate::Finding;

const CHECKER: &str = "determinism";

/// Path prefixes (repo-relative, forward slashes) whose files feed
/// output writers and therefore get a hard deny — reports, wide
/// events, Prometheus export, checkpoints, trace JSON, figures, log
/// bytes, and sdlint's own diagnostics.
pub const OUTPUT_PREFIXES: &[&str] = &[
    "crates/sdchecker/src/",
    "crates/obs/src/",
    "crates/logmodel/src/",
    "crates/experiments/src/",
    "crates/sdlint/src/",
];

/// One justified hash-container use outside the output prefixes.
#[derive(Debug, Clone, Copy)]
pub struct HashAllow {
    pub file: &'static str,
    /// Token occurrences allowed (type positions, constructors, `use`
    /// lines all count).
    pub count: usize,
    /// Why iteration order cannot reach output.
    pub justification: &'static str,
}

/// Hash-container budgets for the simulator internals.
pub const HASH_ALLOW: &[HashAllow] = &[
    HashAllow {
        file: "crates/yarnsim/src/node.rs",
        count: 6,
        justification: "localization cache and inflight map: contains/insert/\
                        remove/retain keyed by id, never iterated, so order \
                        cannot reach emitted logs",
    },
    HashAllow {
        file: "crates/sparksim/src/run.rs",
        count: 9,
        justification: "ticket routing tables: insert/remove/clear/retain by \
                        key with per-entry logic only, never iterated into \
                        emitted output",
    },
];

/// The denied container tokens, assembled at runtime so this file's
/// own diagnostics do not count against the scan.
fn hash_needles() -> Vec<String> {
    vec![format!("Hash{}", "Map"), format!("Hash{}", "Set")]
}

/// Check the given sources against prefix + allow tables. Split out
/// from [`check`] so mutation tests can feed seeded sources.
pub fn check_tables(
    sources: &[scan::SourceFile],
    output_prefixes: &[&str],
    allow: &[HashAllow],
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let needles = hash_needles();

    for a in allow {
        if output_prefixes.iter().any(|p| a.file.starts_with(p)) {
            findings.push(Finding::new(
                CHECKER,
                format!(
                    "HASH_ALLOW entry {} lies under output prefix — output \
                     paths have no allowlist; convert to BTreeMap/BTreeSet or \
                     sort before emission",
                    a.file,
                ),
            ));
        }
    }

    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    let mut first_site: BTreeMap<String, (usize, String)> = BTreeMap::new();
    for sf in sources {
        for ll in scan::logical_lines(&sf.body) {
            let n: usize = needles
                .iter()
                .map(|needle| ll.text.matches(needle.as_str()).count())
                .sum();
            if n > 0 {
                *counts.entry(sf.rel.clone()).or_default() += n;
                first_site
                    .entry(sf.rel.clone())
                    .or_insert_with(|| (ll.lineno, ll.text.chars().take(70).collect()));
            }
        }
    }

    for (file, found) in &counts {
        if let Some(prefix) = output_prefixes.iter().find(|p| file.starts_with(*p)) {
            let (lineno, text) = &first_site[file];
            findings.push(Finding::new(
                CHECKER,
                format!(
                    "{file}:{lineno}: hash container on an output dataflow \
                     path ({prefix} feeds report/export/checkpoint/trace \
                     writers): `{text}` — iteration order is seed-dependent; \
                     use BTreeMap/BTreeSet or sort explicitly before emission \
                     ({found} token(s) in the file)"
                ),
            ));
            continue;
        }
        let allowed = allow.iter().find(|a| a.file == file).map_or(0, |a| a.count);
        if *found > allowed {
            let (lineno, text) = &first_site[file];
            findings.push(Finding::new(
                CHECKER,
                format!(
                    "{file}:{lineno}: {found} hash-container token(s) but the \
                     allowlist permits {allowed} (first: `{text}`) — use an \
                     ordered container or budget it in \
                     sdlint::determinism::HASH_ALLOW with a justification \
                     for why iteration order cannot reach output"
                ),
            ));
        } else if *found < allowed {
            findings.push(Finding::new(
                CHECKER,
                format!(
                    "{file}: allowlist permits {allowed} hash-container \
                     token(s) but only {found} remain — ratchet HASH_ALLOW \
                     down so the burn-down sticks"
                ),
            ));
        }
    }
    for a in allow {
        if !counts.contains_key(a.file) {
            findings.push(Finding::new(
                CHECKER,
                format!(
                    "{}: allowlisted for {} hash-container token(s) but none \
                     found (file clean or gone) — remove the stale HASH_ALLOW \
                     entry",
                    a.file, a.count,
                ),
            ));
        }
    }

    findings
}

/// Audit the workspace rooted at `repo_root` against the real tables.
pub fn check(repo_root: &Path) -> Vec<Finding> {
    let sources = match scan::workspace_sources(repo_root, true) {
        Ok(s) => s,
        Err(e) => return vec![Finding::new(CHECKER, e)],
    };
    check_tables(&sources, OUTPUT_PREFIXES, HASH_ALLOW)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repo_passes_determinism_lint() {
        let findings = check(&crate::default_repo_root());
        assert!(findings.is_empty(), "{findings:#?}");
    }

    #[test]
    fn hash_on_output_path_is_denied_without_allowlist() {
        let needle = &hash_needles()[0];
        let src = scan::SourceFile {
            rel: "crates/sdchecker/src/report.rs".into(),
            body: format!("let m: {needle}<u32, u32> = {needle}::new();\n"),
        };
        // Even an allowlist entry cannot save an output-path file.
        let allow = [HashAllow {
            file: "crates/sdchecker/src/report.rs",
            count: 2,
            justification: "nope",
        }];
        let findings = check_tables(&[src], OUTPUT_PREFIXES, &allow);
        assert!(findings
            .iter()
            .any(|f| f.message.contains("output dataflow path")));
        assert!(findings.iter().any(|f| f.message.contains("no allowlist")));
    }

    #[test]
    fn non_output_hash_needs_budget() {
        let needle = &hash_needles()[1];
        let src = scan::SourceFile {
            rel: "crates/simkit/src/engine.rs".into(),
            body: format!("let s: {needle}<u32> = {needle}::new();\n"),
        };
        let findings = check_tables(&[src], OUTPUT_PREFIXES, &[]);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("allowlist permits 0"));
    }
}
