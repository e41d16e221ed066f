//! Checker 9: one module reads the command line.
//!
//! Every binary reads its flags and stops through `sdchecker::cli`. Any
//! other non-test program source — under `crates/*/src`, binaries
//! included, the root `src/` or `examples/` — that reads the process
//! arguments is a hand-rolled parser again. There is no allowlist.

use std::path::Path;

use crate::scan;
use crate::Finding;

const CHECKER: &str = "cli";

/// The one source that may read the process arguments.
pub const PARSER: &str = "crates/sdchecker/src/cli.rs";

/// The spellings of an argument read, assembled at runtime so this file
/// does not match itself.
fn needles() -> [String; 2] {
    let read = ["env", "::", "args"].concat();
    [format!("std::{read}"), format!("{read}(")]
}

/// Check the given sources. Split out from [`check`] so mutation tests
/// can feed seeded sources.
pub fn check_sources(sources: &[scan::SourceFile]) -> Vec<Finding> {
    let needles = needles();
    let mut findings = Vec::new();
    for sf in sources.iter().filter(|sf| sf.rel != PARSER) {
        for (i, line) in sf.body.lines().enumerate() {
            if needles.iter().any(|n| line.contains(n.as_str())) {
                findings.push(Finding::new(
                    CHECKER,
                    format!(
                        "{}:{}: command line read outside sdchecker::cli `{}` — \
                         parse it with cli::main and cli::Args",
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

/// Audit the repository rooted at `repo_root`.
pub fn check(repo_root: &Path) -> Vec<Finding> {
    match scan::program_sources(repo_root) {
        Ok(sources) => check_sources(&sources),
        Err(e) => vec![Finding::new(CHECKER, e)],
    }
}
