//! Checker 4: lock reification + order audit.
//!
//! Every `Mutex`/`RwLock`/`Condvar` in the workspace is reified into the
//! declarative [`LOCKS`] table below: its name, the file that owns it,
//! how its declaration and acquisition sites read, what state it guards,
//! and what happens when it is poisoned. A source scan cross-checks the
//! table both ways (the `sdchecker::schema::PATTERNS` idiom): a lock in
//! the source that no table entry claims is an error, and a table entry
//! whose lock is gone is a stale-entry error, so the inventory can never
//! silently drift.
//!
//! On top of the inventory the checker builds the static
//! *acquired-while-held* graph: lexically observed nestings (a guard
//! `let`-bound in a block with another lock acquired before the block
//! closes, or two acquisitions in one statement) plus declared
//! callback edges the text cannot see (a lock held while calling a
//! stored closure that takes another; none exists today, so
//! [`HELD_EDGES`] is empty). Observed lexical edges must be declared and
//! declared lexical edges must be observed; the union of all edges must
//! be acyclic — a cycle is the textbook ABBA deadlock and fails the
//! build before it can ever hang a daemon.
//!
//! Two more properties ride on the same scan:
//!
//! * **No lock held across I/O or `.join()`** — a `let`-bound guard
//!   that is still live on a line doing file/socket I/O, console
//!   output, or a thread join stalls every other thread contending for
//!   that lock on the latency of the slow operation.
//! * **Poisoning discipline** — `lock().unwrap()` converts a panic on
//!   one thread into poison-panics on every other thread that touches
//!   the lock. Sites on always-on paths must recover with
//!   `unwrap_or_else(|e| e.into_inner())`; the few deliberate
//!   propagation sites live in the two-way [`POISON_ALLOW`] ratchet
//!   with a justification each.
//!
//! Like the panic audit this is a textual scan, not a parse — method
//! chains are re-joined into logical lines (see [`crate::scan`]) so
//! rustfmt wrapping cannot hide a site, and string literals containing
//! a needle count against the file (noisy beats silent). Guard-lifetime
//! tracking is approximate (a `let`-bound guard is assumed held until
//! its enclosing block closes, braces in literals and comments not
//! counted); the approximation over-reports holds, never under-reports
//! them.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use crate::scan;
use crate::Finding;

const CHECKER: &str = "locks";

/// The lock primitive a spec reifies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockKind {
    Mutex,
    RwLock,
    Condvar,
}

/// What a poisoned acquisition does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoisonPolicy {
    /// Recovers via `unwrap_or_else(|e| e.into_inner())` — required on
    /// any lock an always-on thread (HTTP, poll loop) touches.
    Recover,
    /// Propagates the panic (`.unwrap()`); every such site must also be
    /// budgeted in [`POISON_ALLOW`].
    Propagate,
}

/// One reified lock.
#[derive(Debug, Clone, Copy)]
pub struct LockSpec {
    /// Stable name used in edges, diagnostics, and DESIGN.md.
    pub name: &'static str,
    /// Repo-relative file that declares (and acquires) the lock.
    pub file: &'static str,
    pub kind: LockKind,
    /// Substring that identifies the lock's declaration lines
    /// (type position and constructor).
    pub decl_pattern: &'static str,
    /// How many declaration lines `decl_pattern` must claim.
    pub decl_sites: usize,
    /// Substring that identifies acquisition call sites in `file`.
    pub acquire_pattern: &'static str,
    /// What state the lock guards (prose, surfaced in diagnostics).
    pub guards: &'static str,
    pub poison: PoisonPolicy,
}

/// How an acquired-while-held edge is established.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// Visible in the text of one file; the scan must observe it.
    Lexical,
    /// Crosses a function-pointer/closure boundary the text cannot
    /// connect; trusted as declared, covered by the interleave models.
    Callback,
}

/// One declared edge in the acquired-while-held graph.
#[derive(Debug, Clone, Copy)]
pub struct HeldEdge {
    /// The lock already held.
    pub holder: &'static str,
    /// The lock acquired while `holder` is held.
    pub acquired: &'static str,
    pub kind: EdgeKind,
    /// Why the nesting exists (prose).
    pub why: &'static str,
}

/// The full lock inventory. Adding a `Mutex` to the workspace without a
/// row here fails the build, as does deleting one without removing its
/// row.
pub const LOCKS: &[LockSpec] = &[
    LockSpec {
        name: "obs.recorder.state",
        file: "crates/obs/src/recorder.rs",
        kind: LockKind::Mutex,
        decl_pattern: "state: Mutex",
        decl_sites: 2,
        acquire_pattern: ".state(",
        guards: "the one metrics registry (counters/gauges/histograms/sketches/\
                 spans/thread names/trace anchor), taken per file, stream, \
                 poll, retirement or HTTP request and copied at snapshot",
        poison: PoisonPolicy::Recover,
    },
    LockSpec {
        name: "obs.export.help_registry",
        file: "crates/obs/src/export.rs",
        kind: LockKind::Mutex,
        decl_pattern: "HELP_REGISTRY: Mutex",
        decl_sites: 1,
        acquire_pattern: "HELP_REGISTRY.lock(",
        guards: "the process-wide `# HELP` string table filled at startup",
        poison: PoisonPolicy::Recover,
    },
    LockSpec {
        name: "sdcheckerd.published",
        file: "crates/sdchecker/src/bin/sdcheckerd.rs",
        kind: LockKind::Mutex,
        decl_pattern: "published: Mutex",
        decl_sites: 2,
        acquire_pattern: ".published.lock(",
        guards: "the Arc of the current Published snapshot every endpoint serves \
                 (poll loop replaces it, HTTP clones it; nothing runs under it)",
        poison: PoisonPolicy::Recover,
    },
];

/// The declared acquired-while-held graph. Lexical edges are verified
/// against the scan; callback edges cross closure boundaries (the
/// interleave models cover their runtime behavior). Empty today: no
/// lock in the workspace is acquired while another is held.
pub const HELD_EDGES: &[HeldEdge] = &[];

/// One deliberate poison-propagation budget entry (two-way ratchet,
/// like the panic allowlist).
#[derive(Debug, Clone, Copy)]
pub struct PoisonAllow {
    pub file: &'static str,
    /// Allowed `lock().unwrap()` (or RwLock read/write equivalents).
    pub count: usize,
    pub justification: &'static str,
}

/// Files allowed to `.unwrap()` a lock result. Everything else must
/// recover from poisoning.
pub(crate) const POISON_ALLOW: &[PoisonAllow] = &[];

/// Needles identifying a lock *declaration* line. Assembled at runtime
/// so this file's own table does not count against the scan.
fn decl_needles() -> Vec<String> {
    let generic = "<";
    let ctor = "::new(";
    vec![
        format!("{}{generic}", "Mutex"),
        format!("{}{ctor}", "Mutex"),
        format!("{}{generic}", "RwLock"),
        format!("{}{ctor}", "RwLock"),
        format!("{}{ctor}", "Condvar"),
        format!(": {}", "Condvar"),
    ]
}

/// The bare `.unwrap()` needle, assembled at runtime so this file does
/// not count against the panic audit's scan of sdlint itself.
fn unwrap_needle() -> String {
    format!(".{}()", "unwrap")
}

/// Needles identifying a poison-propagating acquisition.
fn poison_needles() -> Vec<String> {
    let unwrap = unwrap_needle();
    vec![
        format!(".lock(){unwrap}"),
        format!(".read(){unwrap}"),
        format!(".write(){unwrap}"),
    ]
}

/// I/O and blocking needles a held guard must never cover.
fn io_needles() -> Vec<String> {
    let fs = "fs";
    vec![
        format!("std::{fs}::"),
        "File::create".into(),
        "File::open".into(),
        ".write_all(".into(),
        ".flush(".into(),
        ".sync_all(".into(),
        ".read_to_string(".into(),
        "TcpStream".into(),
        format!("{}!(", "eprintln"),
        format!("{}!(", "println"),
        ".join()".into(),
        "sleep(".into(),
    ]
}

/// If `line` is a simple `let <ident> = ...;` binding, return the
/// bound identifier. Destructuring patterns (`let Some(x) = ...`) are
/// rejected: they bind the *result* of a call on the guard temporary,
/// not the guard itself.
fn let_binding(line: &str) -> Option<&str> {
    let rest = line.strip_prefix("let ")?;
    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
    let end = rest
        .find(|c: char| !c.is_alphanumeric() && c != '_')
        .unwrap_or(rest.len());
    if end == 0 {
        return None;
    }
    let name = &rest[..end];
    if name.chars().next().is_some_and(|c| c.is_uppercase()) {
        return None; // enum/struct pattern, not a binding
    }
    let after = rest[end..].trim_start();
    if after.starts_with('=') && !after.starts_with("==") {
        Some(name)
    } else {
        None
    }
}

/// Whether the text after an acquisition is pure poison-handling, i.e.
/// the statement's value IS the guard (so a `let` binding keeps it
/// alive past the statement).
fn suffix_is_guard(suffix: &str) -> bool {
    let mut s = suffix;
    // The acquire pattern ends at the open paren; expect the call to
    // close immediately (lock()/read()/write() take no arguments).
    let Some(rest) = s.strip_prefix(')') else {
        return false;
    };
    s = rest;
    let handlers = [
        unwrap_needle(),
        format!(".{}_or_else(|e| e.into_inner())", "unwrap"),
    ];
    for handler in &handlers {
        if let Some(rest) = s.strip_prefix(handler.as_str()) {
            s = rest;
            break;
        }
    }
    s.trim_end().trim_end_matches(';').trim().is_empty()
}

/// One acquisition found on a logical line.
struct Acq {
    spec: usize,
    /// Byte offset of the pattern in the line (orders same-line edges).
    pos: usize,
    /// Whether a `let` binding keeps the guard alive past the statement.
    held: bool,
}

fn acquisitions(line: &str, file: &str, locks: &[LockSpec]) -> Vec<Acq> {
    let mut out = Vec::new();
    let bound = let_binding(line).is_some();
    for (i, spec) in locks.iter().enumerate() {
        if spec.file != file {
            continue;
        }
        let mut from = 0usize;
        while let Some(p) = line[from..].find(spec.acquire_pattern) {
            let pos = from + p;
            let suffix = &line[pos + spec.acquire_pattern.len()..];
            out.push(Acq {
                spec: i,
                pos,
                held: bound && suffix_is_guard(suffix),
            });
            from = pos + spec.acquire_pattern.len();
        }
    }
    out.sort_by_key(|a| a.pos);
    out
}

/// Depth-first cycle search over the named edge set. Returns the cycle
/// as a name path when one exists.
fn find_cycle(edges: &BTreeMap<&str, BTreeSet<&str>>) -> Option<Vec<String>> {
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Grey,
        Black,
    }
    fn visit<'a>(
        node: &'a str,
        edges: &BTreeMap<&'a str, BTreeSet<&'a str>>,
        marks: &mut BTreeMap<&'a str, Mark>,
        stack: &mut Vec<&'a str>,
    ) -> Option<Vec<String>> {
        marks.insert(node, Mark::Grey);
        stack.push(node);
        if let Some(next) = edges.get(node) {
            for &n in next {
                match marks.get(n).copied().unwrap_or(Mark::White) {
                    Mark::Grey => {
                        let start = stack.iter().position(|s| *s == n).unwrap_or(0);
                        let mut cycle: Vec<String> =
                            stack[start..].iter().map(|s| s.to_string()).collect();
                        cycle.push(n.to_string());
                        return Some(cycle);
                    }
                    Mark::White => {
                        if let Some(c) = visit(n, edges, marks, stack) {
                            return Some(c);
                        }
                    }
                    Mark::Black => {}
                }
            }
        }
        stack.pop();
        marks.insert(node, Mark::Black);
        None
    }
    let mut marks: BTreeMap<&str, Mark> = BTreeMap::new();
    let nodes: BTreeSet<&str> = edges
        .iter()
        .flat_map(|(k, vs)| std::iter::once(*k).chain(vs.iter().copied()))
        .collect();
    for node in nodes {
        if marks.get(node).copied().unwrap_or(Mark::White) == Mark::White {
            let mut stack = Vec::new();
            if let Some(c) = visit(node, edges, &mut marks, &mut stack) {
                return Some(c);
            }
        }
    }
    None
}

/// Check the given sources against a lock table and edge set. Split out
/// from [`check`] so mutation tests can feed broken tables or seeded
/// sources.
pub fn check_tables(
    sources: &[scan::SourceFile],
    locks: &[LockSpec],
    edges: &[HeldEdge],
    poison_allow: &[PoisonAllow],
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let decl_needles = decl_needles();
    let poison_needles = poison_needles();
    let io_needles = io_needles();

    // --- Inventory cross-check -------------------------------------------
    let mut claimed: BTreeMap<usize, usize> = BTreeMap::new(); // spec -> decl lines
    for sf in sources {
        for ll in scan::logical_lines(&sf.body) {
            if ll.text.starts_with("use ") || ll.text.starts_with("pub use ") {
                continue;
            }
            if !decl_needles.iter().any(|n| ll.text.contains(n.as_str())) {
                continue;
            }
            let owners: Vec<usize> = locks
                .iter()
                .enumerate()
                .filter(|(_, s)| s.file == sf.rel && ll.text.contains(s.decl_pattern))
                .map(|(i, _)| i)
                .collect();
            match owners.len() {
                0 => findings.push(Finding::new(
                    CHECKER,
                    format!(
                        "{}:{}: lock declaration `{}` is not reified in the \
                         sdlint::locks::LOCKS table — add a LockSpec naming it, \
                         what it guards, and its poisoning policy",
                        sf.rel,
                        ll.lineno,
                        ll.text.chars().take(60).collect::<String>(),
                    ),
                )),
                1 => *claimed.entry(owners[0]).or_default() += 1,
                _ => findings.push(Finding::new(
                    CHECKER,
                    format!(
                        "{}:{}: lock declaration claimed by {} LockSpecs ({}) — \
                         decl_patterns must be unambiguous",
                        sf.rel,
                        ll.lineno,
                        owners.len(),
                        owners
                            .iter()
                            .map(|i| locks[*i].name)
                            .collect::<Vec<_>>()
                            .join(", "),
                    ),
                )),
            }
        }
    }
    for (i, spec) in locks.iter().enumerate() {
        let got = claimed.get(&i).copied().unwrap_or(0);
        if got == 0 {
            findings.push(Finding::new(
                CHECKER,
                format!(
                    "LockSpec `{}`: no declaration matching `{}` in {} — the \
                     lock is gone; remove the stale table entry",
                    spec.name, spec.decl_pattern, spec.file,
                ),
            ));
        } else if got != spec.decl_sites {
            findings.push(Finding::new(
                CHECKER,
                format!(
                    "LockSpec `{}`: {} declaration lines match `{}` in {} but \
                     the table declares {} — update decl_sites so the \
                     inventory stays exact",
                    spec.name, got, spec.decl_pattern, spec.file, spec.decl_sites,
                ),
            ));
        }
    }

    // --- Acquisition scan: lexical edges + held-across-I/O ----------------
    let mut observed_edges: BTreeSet<(usize, usize)> = BTreeSet::new();
    for sf in sources {
        let lines = scan::logical_lines(&sf.body);
        let mut depth: i64 = 0;
        // (spec index, depth the guard was bound at)
        let mut held: Vec<(usize, i64)> = Vec::new();
        for ll in &lines {
            let acqs = acquisitions(&ll.text, &sf.rel, locks);
            // Same-statement nesting: two different locks in one line.
            for w in acqs.windows(2) {
                if w[0].spec != w[1].spec {
                    observed_edges.insert((w[0].spec, w[1].spec));
                }
            }
            for (h, _) in &held {
                for a in &acqs {
                    if a.spec != *h {
                        observed_edges.insert((*h, a.spec));
                    }
                }
                if let Some(io) = io_needles.iter().find(|n| ll.text.contains(n.as_str())) {
                    findings.push(Finding::new(
                        CHECKER,
                        format!(
                            "{}:{}: `{}` is held across `{}` — drop the guard \
                             (narrow scope or clone out) before blocking I/O",
                            sf.rel,
                            ll.lineno,
                            locks[*h].name,
                            io.trim_end_matches('('),
                        ),
                    ));
                }
            }
            for a in &acqs {
                if a.held && !held.iter().any(|(h, _)| *h == a.spec) {
                    held.push((a.spec, depth));
                }
            }
            depth += ll.braces;
            held.retain(|(_, d)| depth >= *d);
        }
    }

    // --- Edge bookkeeping and cycle check ---------------------------------
    let by_name: BTreeMap<&str, usize> =
        locks.iter().enumerate().map(|(i, s)| (s.name, i)).collect();
    let mut declared: BTreeSet<(usize, usize)> = BTreeSet::new();
    for e in edges {
        let (Some(&h), Some(&a)) = (by_name.get(e.holder), by_name.get(e.acquired)) else {
            findings.push(Finding::new(
                CHECKER,
                format!(
                    "HeldEdge {} -> {}: names an unknown lock — every edge \
                     endpoint must be a LockSpec name",
                    e.holder, e.acquired,
                ),
            ));
            continue;
        };
        declared.insert((h, a));
        if e.kind == EdgeKind::Lexical && !observed_edges.contains(&(h, a)) {
            findings.push(Finding::new(
                CHECKER,
                format!(
                    "HeldEdge {} -> {} is declared Lexical but the scan no \
                     longer observes it — remove the stale edge",
                    e.holder, e.acquired,
                ),
            ));
        }
    }
    for (h, a) in &observed_edges {
        if !declared.contains(&(*h, *a)) {
            findings.push(Finding::new(
                CHECKER,
                format!(
                    "observed undeclared lock nesting: `{}` acquired while \
                     `{}` is held — declare the edge in \
                     sdlint::locks::HELD_EDGES (with why) or restructure to \
                     drop the first guard",
                    locks[*a].name, locks[*h].name,
                ),
            ));
        }
    }
    let mut graph: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (h, a) in declared.iter().chain(observed_edges.iter()) {
        graph
            .entry(locks[*h].name)
            .or_default()
            .insert(locks[*a].name);
    }
    if let Some(cycle) = find_cycle(&graph) {
        findings.push(Finding::new(
            CHECKER,
            format!(
                "lock-order cycle: {} — two threads taking these locks in \
                 opposite order deadlock; break the cycle by ordering or \
                 merging the locks",
                cycle.join(" -> "),
            ),
        ));
    }

    // --- Poisoning audit (two-way ratchet) --------------------------------
    let mut unwraps: BTreeMap<String, usize> = BTreeMap::new();
    for sf in sources {
        for ll in scan::logical_lines(&sf.body) {
            let n: usize = poison_needles
                .iter()
                .map(|needle| ll.text.matches(needle.as_str()).count())
                .sum();
            if n > 0 {
                *unwraps.entry(sf.rel.clone()).or_default() += n;
            }
        }
    }
    let uw = format!("lock(){}", unwrap_needle());
    for (file, found) in &unwraps {
        let allowed = poison_allow
            .iter()
            .find(|p| p.file == file)
            .map_or(0, |p| p.count);
        if *found > allowed {
            findings.push(Finding::new(
                CHECKER,
                format!(
                    "{file}: {found} {uw} sites but the poisoning \
                     allowlist permits {allowed} — recover with \
                     `unwrap_or_else(|e| e.into_inner())` (a panic on one \
                     thread must not cascade) or budget it in \
                     sdlint::locks::POISON_ALLOW with a justification"
                ),
            ));
        } else if *found < allowed {
            findings.push(Finding::new(
                CHECKER,
                format!(
                    "{file}: poisoning allowlist permits {allowed} \
                     {uw} sites but only {found} remain — ratchet \
                     POISON_ALLOW down so the burn-down sticks"
                ),
            ));
        }
    }
    for p in poison_allow {
        if !unwraps.contains_key(p.file) {
            findings.push(Finding::new(
                CHECKER,
                format!(
                    "{}: poisoning allowlist permits {} sites but none found — \
                     remove the stale POISON_ALLOW entry",
                    p.file, p.count,
                ),
            ));
        }
    }
    // Policy consistency: a Recover lock's file must not hide its
    // acquisitions behind an unwrap budget at all.
    for spec in locks {
        if spec.poison == PoisonPolicy::Propagate
            && !poison_allow.iter().any(|p| p.file == spec.file)
        {
            findings.push(Finding::new(
                CHECKER,
                format!(
                    "LockSpec `{}` declares PoisonPolicy::Propagate but {} has \
                     no POISON_ALLOW budget — declare the budget (with why) or \
                     switch the sites to recover",
                    spec.name, spec.file,
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
    check_tables(&sources, LOCKS, HELD_EDGES, POISON_ALLOW)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repo_passes_lock_audit() {
        let findings = check(&crate::default_repo_root());
        assert!(findings.is_empty(), "{findings:#?}");
    }

    #[test]
    fn let_binding_parses_guards_not_patterns() {
        assert_eq!(let_binding("let mut st = x.lock();"), Some("st"));
        assert_eq!(
            let_binding("let anchor = self.anchor.lock();"),
            Some("anchor")
        );
        assert_eq!(
            let_binding("let Some((idx, item)) = q.lock().next() else {"),
            None
        );
        assert_eq!(let_binding("*shared.report.lock() = r;"), None);
    }

    #[test]
    fn suffix_distinguishes_guard_from_temporary() {
        assert!(suffix_is_guard(").unwrap();"));
        assert!(suffix_is_guard(").unwrap_or_else(|e| e.into_inner());"));
        assert!(suffix_is_guard(");"));
        assert!(!suffix_is_guard(").unwrap().next() else {"));
        assert!(!suffix_is_guard(
            ").unwrap_or_else(|e| e.into_inner()).clone();"
        ));
        assert!(!suffix_is_guard(").unwrap() = Some(Instant::now());"));
    }

    #[test]
    fn cycle_detector_finds_abba() {
        let mut edges: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        edges.entry("a").or_default().insert("b");
        edges.entry("b").or_default().insert("c");
        assert!(find_cycle(&edges).is_none());
        edges.entry("c").or_default().insert("a");
        let cycle = find_cycle(&edges).expect("cycle");
        assert!(cycle.len() >= 3, "{cycle:?}");
    }
}
