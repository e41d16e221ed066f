//! # sdlint — static verification of the emitter↔parser contract
//!
//! SDchecker's premise is that scheduler logs are a reliable mirror of
//! the state machines that emit them (paper §III-A / Table I). That only
//! holds while the simulator's emitted message vocabulary and the
//! analyzer's extraction rules agree — an agreement that used to be
//! implicit and only falsifiable at runtime, when some corpus happened to
//! exercise a drifted template.
//!
//! `sdlint` makes the contract machine-checked, with three checkers:
//!
//! * [`conformance`] — cross-checks the emitted-template tables
//!   (`yarnsim::schema`, `sparksim::schema`) against the extraction-rule
//!   table (`sdchecker::schema`): every scheduling-relevant template must
//!   be matched by exactly one rule (no misses, no shadowing), noise must
//!   be matched by none, and every rule must have an emitter or an
//!   explicit `external_only` annotation.
//! * [`machines`] + [`modelcheck`] — verifies the reified state machines
//!   (reachability, dead-ends, terminal exits) and model-checks small
//!   simulated configurations end to end: per-entity transition chains,
//!   monotone timestamps, and critical-path tiling.
//! * [`panics`] — a source-scanning audit denying `unwrap`/`expect`/
//!   `panic!` in library code outside tests and `debug_assert`-gated
//!   paths, with an explicit burn-down allowlist.
//!
//! PR 10 added a concurrency-correctness suite on the same ratchet
//! idiom (shared scanning plumbing in [`scan`]):
//!
//! * [`locks`] — reifies every `Mutex`/`RwLock`/`Condvar` into a
//!   declarative table, cross-checks it both ways against the source,
//!   builds the static acquired-while-held graph (cycle = deadlock),
//!   flags locks held across I/O or `.join()`, and ratchets
//!   `lock().unwrap()` poisoning sites.
//! * [`atomics`] — every `Ordering::Relaxed` must carry a
//!   justification in a two-way allowlist.
//! * [`determinism`] — denies `HashMap`/`HashSet` on output-feeding
//!   dataflow paths (byte-identical goldens by analysis, not luck).
//! * [`interleave`] — exhaustive bounded model check of the three real
//!   concurrent protocols (one-lock registry snapshot, par merge
//!   handoff, daemon shutdown-drain square) under every interleaving.
//! * [`json_syntax`] — no non-test source but `obs::json`, the writer
//!   every emitted document is spelled with, holds a string literal
//!   spelling a JSON member name's closing quote and colon. No
//!   allowlist.
//! * [`command_line`] — no non-test program source but `sdchecker::cli`,
//!   the parser every binary and example reads its flags through, reads
//!   the process arguments. No allowlist.
//! * [`surface`] — every `pub` item in a library crate is named by some
//!   non-test code other than its definition: a binary, another crate,
//!   an example or `sdbench`. Literals, comments and `pub use` lines do
//!   not count; a two-way allowlist keeps the few items only tests need.
//! * [`doc_paths`] — every backticked `crate::module` or
//!   `crate::module::Item` path in `DESIGN.md` and `README.md` leads to a
//!   module file and, for an item, to its declaration there.
//!
//! Run it as `cargo run -p sdlint` (CI gate), or via the test suite
//! (`cargo test -p sdlint`), which additionally mutation-tests the
//! checkers themselves.

pub mod atomics;
pub mod command_line;
pub mod conformance;
pub mod determinism;
pub mod doc_paths;
pub mod interleave;
pub mod json_syntax;
pub mod locks;
pub mod machines;
mod modelcheck;
mod panics;
pub mod scan;
pub mod surface;

/// One verification failure. `sdlint` reports findings; it never panics
/// (it has to pass its own audit).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which checker produced it: the name [`run_all_with_stats`]
    /// times it under.
    pub checker: &'static str,
    /// Human-readable diagnostic, naming the offending template/rule/
    /// file and — where applicable — the closest near-miss.
    pub message: String,
}

impl Finding {
    /// Build a finding.
    pub fn new(checker: &'static str, message: impl Into<String>) -> Finding {
        Finding {
            checker,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.checker, self.message)
    }
}

/// The full emitted-template inventory: cluster half plus application
/// half.
pub fn all_emitted_templates() -> Vec<logmodel::schema::MsgTemplate> {
    let mut out = Vec::new();
    out.extend_from_slice(yarnsim::schema::emitted_templates());
    out.extend_from_slice(sparksim::schema::emitted_templates());
    out
}

/// Wall-clock and outcome for one checker, surfaced by the CLI so CI
/// logs show where lint time goes.
#[derive(Debug, Clone)]
pub struct CheckerTiming {
    pub name: &'static str,
    pub millis: u128,
    pub findings: usize,
}

/// Everything one full lint run produced: findings, per-checker
/// timings, the interleaving explorer's state counts and the public
/// surface's size.
#[derive(Debug, Clone)]
pub struct RunReport {
    pub findings: Vec<Finding>,
    pub timings: Vec<CheckerTiming>,
    pub interleave: Vec<interleave::Stats>,
    pub surface: surface::Stats,
}

/// Run every checker against the real tables and the repository rooted
/// at `repo_root` (the source audits read from disk; the table and
/// model checkers are pure), recording per-checker runtime, the
/// interleaving state counts and the public surface's size.
pub fn run_all_with_stats(repo_root: &std::path::Path) -> RunReport {
    let mut report = RunReport {
        findings: Vec::new(),
        timings: Vec::new(),
        interleave: Vec::new(),
        surface: surface::Stats::default(),
    };
    let mut surface_stats = surface::Stats::default();
    let timed =
        |name: &'static str, report: &mut RunReport, f: &mut dyn FnMut() -> Vec<Finding>| {
            let start = std::time::Instant::now();
            let findings = f();
            report.timings.push(CheckerTiming {
                name,
                millis: start.elapsed().as_millis(),
                findings: findings.len(),
            });
            report.findings.extend(findings);
        };
    timed("conformance", &mut report, &mut || {
        conformance::check(&all_emitted_templates(), sdchecker::schema::patterns())
    });
    timed("machines", &mut report, &mut || {
        machines::check(&yarnsim::schema::machines())
    });
    timed("modelcheck", &mut report, &mut modelcheck::check);
    timed("panics", &mut report, &mut || panics::check(repo_root));
    timed("locks", &mut report, &mut || locks::check(repo_root));
    timed("atomics", &mut report, &mut || atomics::check(repo_root));
    timed("determinism", &mut report, &mut || {
        determinism::check(repo_root)
    });
    timed("json", &mut report, &mut || json_syntax::check(repo_root));
    timed("cli", &mut report, &mut || command_line::check(repo_root));
    timed("docs", &mut report, &mut || doc_paths::check(repo_root));
    timed("surface", &mut report, &mut || {
        let (findings, stats) = surface::check(repo_root);
        surface_stats = stats;
        findings
    });
    let start = std::time::Instant::now();
    let (findings, stats) = interleave::check_with_stats();
    report.timings.push(CheckerTiming {
        name: "interleave",
        millis: start.elapsed().as_millis(),
        findings: findings.len(),
    });
    report.findings.extend(findings);
    report.interleave = stats;
    report.surface = surface_stats;
    report
}

/// The repository root when running from a workspace checkout
/// (`crates/sdlint` → two levels up).
pub fn default_repo_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
}
