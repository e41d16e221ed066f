//! Checker 6: atomics ordering audit.
//!
//! `Ordering::Relaxed` gives atomicity without any inter-thread
//! ordering: a Relaxed read may observe arbitrarily stale values, and a
//! Relaxed write publishes nothing about the memory written before it.
//! That is occasionally exactly right (pure ID counters, advisory fast
//! paths) and otherwise a heisenbug factory — so every Relaxed site in
//! the workspace must appear in the [`RELAXED_ALLOW`] table below with
//! a justification saying why no ordering is needed. The table is a
//! two-way ratchet like the panic allowlist: an unlisted Relaxed is an
//! error, and a listed site that no longer exists is a stale entry.
//!
//! Anything stronger (`Acquire`/`Release`/`AcqRel`/`SeqCst`) passes
//! without ceremony — the audit only polices the footgun. The scan
//! covers binaries too (the daemon's `SHUTDOWN` flag lives in `bin/`),
//! with `#[cfg(test)]` blocks stripped as usual.

use std::collections::BTreeMap;
use std::path::Path;

use crate::scan;
use crate::Finding;

const CHECKER: &str = "atomics";

/// One justified `Ordering::Relaxed` site.
#[derive(Debug, Clone, Copy)]
pub struct RelaxedSite {
    /// Repo-relative file the site lives in.
    pub file: &'static str,
    /// Substring identifying the site's logical line (the atomic op,
    /// not the Ordering token, so the entry reads like the call site).
    pub pattern: &'static str,
    /// How many logical lines `pattern` + Relaxed must match.
    pub sites: usize,
    /// Why Relaxed is sufficient — what would break (nothing) if the
    /// read saw a stale value or the write published late.
    pub justification: &'static str,
}

/// Every tolerated Relaxed site in the workspace.
pub const RELAXED_ALLOW: &[RelaxedSite] = &[
    RelaxedSite {
        file: "crates/obs/src/recorder.rs",
        pattern: "self.enabled.load(",
        sites: 1,
        justification: "hot-path recording gate: enabling stores with SeqCst, \
                        and a reader that races the flip merely keeps or drops one \
                        sample — no data is published through the flag, so stale \
                        reads are harmless",
    },
    RelaxedSite {
        file: "crates/obs/src/recorder.rs",
        pattern: "self.next_tid.fetch_add(1,",
        sites: 1,
        justification: "thread-id allocation: the RMW is atomic regardless of \
                        ordering, which is all uniqueness needs; the id guards no \
                        other memory",
    },
    RelaxedSite {
        file: "crates/logmodel/src/par.rs",
        pattern: "next.fetch_add(1,",
        sites: 1,
        justification: "work-item claim: the RMW alone makes every index go to \
                        exactly one worker; the items were written before the \
                        scope spawned its workers and results come back \
                        through each worker's join, so the counter publishes \
                        nothing",
    },
];

/// The audited needle, assembled at runtime so this file's own table
/// and diagnostics do not count against the scan.
fn relaxed_needle() -> String {
    format!("Ordering::{}", "Relaxed")
}

/// Check the given sources against an allow table. Split out from
/// [`check`] so mutation tests can feed seeded sources or broken
/// tables.
pub fn check_table(sources: &[scan::SourceFile], allow: &[RelaxedSite]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let needle = relaxed_needle();
    let mut matched: BTreeMap<usize, usize> = BTreeMap::new();
    for sf in sources {
        for ll in scan::logical_lines(&sf.body) {
            let hits = ll.text.matches(needle.as_str()).count();
            if hits == 0 {
                continue;
            }
            let owners: Vec<usize> = allow
                .iter()
                .enumerate()
                .filter(|(_, s)| s.file == sf.rel && ll.text.contains(s.pattern))
                .map(|(i, _)| i)
                .collect();
            match owners.len() {
                0 => findings.push(Finding::new(
                    CHECKER,
                    format!(
                        "{}:{}: `{needle}` outside the allowlist: `{}` — a \
                         cross-thread value needs Acquire/Release (or SeqCst), \
                         or a sdlint::atomics::RELAXED_ALLOW entry justifying \
                         why no ordering is required",
                        sf.rel,
                        ll.lineno,
                        ll.text.chars().take(70).collect::<String>(),
                    ),
                )),
                1 => *matched.entry(owners[0]).or_default() += hits,
                _ => findings.push(Finding::new(
                    CHECKER,
                    format!(
                        "{}:{}: Relaxed site claimed by {} allowlist entries — \
                         patterns must be unambiguous",
                        sf.rel,
                        ll.lineno,
                        owners.len(),
                    ),
                )),
            }
        }
    }
    for (i, site) in allow.iter().enumerate() {
        let got = matched.get(&i).copied().unwrap_or(0);
        if got == 0 {
            findings.push(Finding::new(
                CHECKER,
                format!(
                    "RELAXED_ALLOW `{}` in {}: no `{needle}` site matches — \
                     the site was upgraded or removed; delete the stale entry",
                    site.pattern, site.file,
                ),
            ));
        } else if got != site.sites {
            findings.push(Finding::new(
                CHECKER,
                format!(
                    "RELAXED_ALLOW `{}` in {}: {} sites match but the entry \
                     declares {} — update the count so the ratchet stays exact",
                    site.pattern, site.file, got, site.sites,
                ),
            ));
        }
    }
    findings
}

/// Audit the workspace rooted at `repo_root` against the real table.
pub fn check(repo_root: &Path) -> Vec<Finding> {
    let sources = match scan::workspace_sources(repo_root, true) {
        Ok(s) => s,
        Err(e) => return vec![Finding::new(CHECKER, e)],
    };
    check_table(&sources, RELAXED_ALLOW)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repo_passes_atomics_audit() {
        let findings = check(&crate::default_repo_root());
        assert!(findings.is_empty(), "{findings:#?}");
    }

    #[test]
    fn unlisted_relaxed_is_flagged_with_site() {
        let needle = relaxed_needle();
        let src = scan::SourceFile {
            rel: "crates/x/src/lib.rs".into(),
            body: format!("let v = flag.load({needle});\n"),
        };
        let findings = check_table(&[src], &[]);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("crates/x/src/lib.rs:1"));
        assert!(findings[0].message.contains("flag.load("));
    }

    #[test]
    fn stale_entry_is_flagged() {
        let src = scan::SourceFile {
            rel: "crates/x/src/lib.rs".into(),
            body: "let v = 1;\n".to_string(),
        };
        let allow = [RelaxedSite {
            file: "crates/x/src/lib.rs",
            pattern: "flag.load(",
            sites: 1,
            justification: "gone",
        }];
        let findings = check_table(&[src], &allow);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("stale"));
    }
}
