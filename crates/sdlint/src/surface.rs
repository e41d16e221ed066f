//! Checker 10: every `pub` item has a caller.
//!
//! The workspace's product is the four binaries, not a library API, so
//! a `pub` item in a library crate that no non-test code names is dead
//! surface. The scan reads every `crates/*/src` tree, minus `bin/` and
//! `main.rs`, for items: `pub fn` (free or inherent) and `pub` `struct`,
//! `enum`, `trait`, `type`, `const`, `static` and `mod`. Each item's name
//! must appear as an identifier somewhere other than a definition, in
//! non-test code: any crate's `src/` (binaries included), the root
//! `src/`, `examples/` or `sdbench/src/`.
//!
//! Tests do not count: `#[cfg(test)]` blocks and `tests/` directories
//! are not read, and doctests are comments. Neither do re-exports: a
//! `pub use` statement names an item without calling it. Comments and
//! string, raw-string and char literals are blanked before identifiers
//! are collected, so a span name or a justification that spells an item
//! does not keep it alive.
//!
//! The scan is textual, like its siblings: one identifier names every
//! item that shares it. [`SURFACE_ALLOW`] is a two-way allowlist for
//! items only tests need; an entry whose item has a caller again, or is
//! gone, is stale.

use std::collections::BTreeSet;
use std::path::Path;

use crate::scan;
use crate::Finding;

const CHECKER: &str = "surface";

/// One `pub` item that only tests name, kept on purpose.
#[derive(Debug, Clone, Copy)]
pub struct SurfaceAllow {
    /// Repo-relative file the item is defined in.
    pub file: &'static str,
    /// The item's name.
    pub name: &'static str,
    /// Which test needs it, and why no live API serves that test.
    pub reason: &'static str,
}

/// Every tolerated caller-less `pub` item. Allowed reasons: a reference
/// that tests compare against, a read accessor tests have no live
/// replacement for, a deliberately broken fixture, a fault profile.
pub(crate) const SURFACE_ALLOW: &[SurfaceAllow] = &[
    SurfaceAllow {
        file: "crates/simkit/src/engine.rs",
        name: "run_capped",
        reason: "the reference tests/quiescence.rs steps a quiet model on with, to \
                 show run_until stopped where nothing more could change",
    },
    SurfaceAllow {
        file: "crates/obs/src/metrics.rs",
        name: "counter",
        reason: "read accessor: sdcheckerd's and the engine's tests read counters \
                 from a snapshot, and only the exporter's text reads them live",
    },
    SurfaceAllow {
        file: "crates/obs/src/metrics.rs",
        name: "counter_labeled",
        reason: "read accessor: simkit's engine test reads sim_events_total{kind} \
                 from a snapshot",
    },
    SurfaceAllow {
        file: "crates/obs/src/metrics.rs",
        name: "gauge",
        reason: "read accessor: simkit's engine test reads the sim gauges from a \
                 snapshot",
    },
    SurfaceAllow {
        file: "crates/simkit/src/ps.rs",
        name: "active_flows",
        reason: "read accessor: simkit's tests/prop.rs checks a resource holds no \
                 flow once every completion is collected",
    },
    SurfaceAllow {
        file: "crates/sdlint/src/interleave.rs",
        name: "torn_publish",
        reason: "deliberately broken fixture: tests/mutation_concurrency.rs shows \
                 the interleaving explorer catches a publish outside the lock",
    },
    SurfaceAllow {
        file: "crates/sdchecker/src/event.rs",
        name: "table1_number",
        reason: "reference: the paper's Table I numbering, which event.rs's unit \
                 test pins and tests/end_to_end.rs names a missing message by",
    },
    SurfaceAllow {
        file: "crates/logmodel/src/corrupt.rs",
        name: "severe",
        reason: "fault profile: sdchecker's tests/fuzz.rs damages corpora with it",
    },
    SurfaceAllow {
        file: "crates/logmodel/src/corrupt.rs",
        name: "corrupt_dir",
        reason: "deliberately broken fixture: sdchecker's tests/fuzz.rs damages \
                 a written corpus with it",
    },
];

/// Sizes of one scan, printed by the CLI.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stats {
    /// `pub` items in library sources.
    pub items: usize,
    /// Of those, how many only the allowlist keeps.
    pub allowlisted: usize,
}

/// Keywords that open a definition: the identifier after one is a name
/// being defined, not a use.
const DEFINING: &[&str] = &[
    "fn", "struct", "enum", "union", "trait", "type", "const", "static", "mod",
];

/// The kind and name of the `pub` item `line` defines, if any.
fn pub_item(line: &str) -> Option<(&'static str, &str)> {
    let mut words = line.trim_start().strip_prefix("pub ")?.split_whitespace();
    let mut word = words.next()?;
    while matches!(word, "const" | "unsafe" | "async") {
        let next = words.next()?;
        if word == "const" && !matches!(next, "fn" | "unsafe" | "async") {
            return Some(("const", ident_prefix(next)));
        }
        word = next;
    }
    let kind = ["fn", "struct", "enum", "trait", "type", "static", "mod"]
        .into_iter()
        .find(|k| *k == word)?;
    let mut name = words.next()?;
    if kind == "static" && name == "mut" {
        name = words.next()?;
    }
    Some((kind, ident_prefix(name))).filter(|(_, n)| !n.is_empty())
}

fn ident_prefix(word: &str) -> &str {
    let end = word
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(word.len());
    &word[..end]
}

/// Blank every `pub use` statement (through its `;`, however many lines
/// it takes): a re-export is not a caller.
fn blank_reexports(body: &str) -> String {
    let mut out = String::with_capacity(body.len());
    let mut in_reexport = false;
    for line in body.lines() {
        let t = line.trim_start();
        if !in_reexport && t.starts_with("pub") {
            let after = t.trim_start_matches("pub");
            let after = match after.strip_prefix('(') {
                Some(rest) => rest.split_once(')').map_or("", |(_, r)| r),
                None => after,
            };
            in_reexport = after.trim_start().starts_with("use ");
        }
        if in_reexport {
            out.extend(line.chars().map(|_| ' '));
            in_reexport = !line.contains(';');
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

/// Every identifier `bodies` use somewhere other than a definition.
fn uses(bodies: &[String]) -> BTreeSet<&str> {
    let mut used = BTreeSet::new();
    for body in bodies {
        let mut defining = false;
        for word in body
            .split(|c: char| !(c.is_alphanumeric() || c == '_'))
            .filter(|w| !w.is_empty())
        {
            if !defining {
                used.insert(word);
            }
            defining = DEFINING.contains(&word);
        }
    }
    used
}

/// Whether `rel` is a library source whose `pub` items are audited.
fn is_library(rel: &str) -> bool {
    rel.starts_with("crates/")
        && rel.contains("/src/")
        && !rel.contains("/src/bin/")
        && !rel.ends_with("/main.rs")
}

/// Check the given sources against an allow table. Library sources are
/// recognised by path; every source is a potential caller. Split out
/// from [`check`] so mutation tests can feed seeded sources.
pub fn check_sources(
    sources: &[scan::SourceFile],
    allow: &[SurfaceAllow],
) -> (Vec<Finding>, Stats) {
    let bodies: Vec<String> = sources
        .iter()
        .map(|sf| blank_reexports(&scan::blank_literals(&sf.body)))
        .collect();
    let used = uses(&bodies);
    let mut findings = Vec::new();
    let mut stats = Stats::default();
    let mut allowed = vec![false; allow.len()];
    for (sf, body) in sources.iter().zip(&bodies) {
        if !is_library(&sf.rel) {
            continue;
        }
        for (i, line) in body.lines().enumerate() {
            let Some((kind, name)) = pub_item(line) else {
                continue;
            };
            stats.items += 1;
            if used.contains(name) {
                continue;
            }
            let entry = allow
                .iter()
                .position(|a| a.file == sf.rel && a.name == name);
            if let Some(e) = entry {
                allowed[e] = true;
                stats.allowlisted += 1;
                continue;
            }
            findings.push(Finding::new(
                CHECKER,
                format!(
                    "{}:{}: pub {kind} `{name}` has no caller outside tests — \
                     delete it, or call it from live code",
                    sf.rel,
                    i + 1,
                ),
            ));
        }
    }
    for (a, hit) in allow.iter().zip(allowed) {
        if !hit {
            findings.push(Finding::new(
                CHECKER,
                format!(
                    "SURFACE_ALLOW `{}` in {}: no caller-less pub item of that \
                     name — it has a caller again or is gone; delete the stale entry",
                    a.name, a.file,
                ),
            ));
        }
    }
    (findings, stats)
}

/// Audit the repository rooted at `repo_root` against the real table.
pub fn check(repo_root: &Path) -> (Vec<Finding>, Stats) {
    let sources = scan::program_sources(repo_root).and_then(|mut s| {
        scan::tree_sources(repo_root, &repo_root.join("sdbench/src"), true, &mut s)?;
        Ok(s)
    });
    match sources {
        Ok(sources) => check_sources(&sources, SURFACE_ALLOW),
        Err(e) => (vec![Finding::new(CHECKER, e)], Stats::default()),
    }
}
