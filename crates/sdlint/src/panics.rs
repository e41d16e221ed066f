//! Checker 3: panic/invariant audit.
//!
//! Scans every library source file under `crates/*/src` and denies
//! `unwrap`/`expect`/`panic!` (and friends) outside tests,
//! `debug_assert`-gated lines, and binaries. Remaining sites live in
//! `crates/sdlint/allowlist.txt` as a two-way ratchet: going over the
//! allowed count is a violation, and burning a site down without
//! shrinking the allowlist is flagged too, so the budget only moves
//! deliberately.
//!
//! This is a std-only textual scan, not a parse: `#[cfg(test)] mod`
//! blocks are stripped by brace matching, files pulled in via
//! `#[cfg(test)] mod name;` are skipped entirely, and comment-only
//! lines are ignored. That is deliberately conservative — string
//! literals containing a needle count against the file, which keeps
//! the scanner simple and the failure mode noisy rather than silent.

use std::collections::BTreeMap;
use std::path::Path;

use crate::scan;
use crate::Finding;

const CHECKER: &str = "panics";

/// The denied constructs. Assembled at runtime so this file does not
/// flag itself.
fn needles() -> Vec<String> {
    let bang = "!(";
    vec![
        format!(".{}()", "unwrap"),
        format!(".{}(", "expect"),
        format!("{}{bang}", "panic"),
        format!("{}{bang}", "unreachable"),
        format!("{}{bang}", "todo"),
        format!("{}{bang}", "unimplemented"),
    ]
}

/// Count denied sites in one file's (already test-stripped) source.
fn count_sites(source: &str, needles: &[String]) -> usize {
    let mut count = 0;
    for line in source.lines() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("//") || trimmed.contains("debug_assert") {
            continue;
        }
        for n in needles {
            count += line.matches(n.as_str()).count();
        }
    }
    count
}

/// Parse `allowlist.txt`: `<repo-relative path> <count>` per line, `#`
/// comments and blank lines ignored.
fn parse_allowlist(text: &str) -> Result<BTreeMap<String, usize>, String> {
    let mut out = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(path), Some(count)) = (parts.next(), parts.next()) else {
            return Err(format!(
                "allowlist line {}: expected `<path> <count>`",
                i + 1
            ));
        };
        let count: usize = count
            .parse()
            .map_err(|_| format!("allowlist line {}: bad count {count:?}", i + 1))?;
        out.insert(path.to_string(), count);
    }
    Ok(out)
}

/// Audit panic sites across the workspace rooted at `repo_root`.
pub fn check(repo_root: &Path) -> Vec<Finding> {
    let mut findings = Vec::new();
    let needles = needles();

    let allowlist_path = repo_root.join("crates/sdlint/allowlist.txt");
    let allowlist = match std::fs::read_to_string(&allowlist_path) {
        Ok(text) => match parse_allowlist(&text) {
            Ok(a) => a,
            Err(e) => {
                findings.push(Finding::new(CHECKER, e));
                return findings;
            }
        },
        Err(e) => {
            findings.push(Finding::new(
                CHECKER,
                format!("cannot read {}: {e}", allowlist_path.display()),
            ));
            return findings;
        }
    };

    // Library sources only: binaries may die loudly (exit-2 hygiene is
    // their own test), so `bin/` and `main.rs` are exempt.
    let sources = match scan::workspace_sources(repo_root, false) {
        Ok(s) => s,
        Err(e) => {
            findings.push(Finding::new(CHECKER, e));
            return findings;
        }
    };
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    for sf in &sources {
        let n = count_sites(&sf.body, &needles);
        if n > 0 {
            *counts.entry(sf.rel.clone()).or_default() += n;
        }
    }

    // Two-way ratchet against the allowlist.
    for (file, found) in &counts {
        let allowed = allowlist.get(file).copied().unwrap_or(0);
        if *found > allowed {
            findings.push(Finding::new(
                CHECKER,
                format!(
                    "{file}: {found} panic sites (unwrap/expect/panic!/unreachable!/\
                     todo!/unimplemented!) but allowlist permits {allowed} — \
                     handle the error or raise the budget in crates/sdlint/allowlist.txt"
                ),
            ));
        } else if *found < allowed {
            findings.push(Finding::new(
                CHECKER,
                format!(
                    "{file}: allowlist permits {allowed} panic sites but only {found} \
                     remain — ratchet crates/sdlint/allowlist.txt down so the \
                     burn-down sticks"
                ),
            ));
        }
    }
    for (file, allowed) in &allowlist {
        if !counts.contains_key(file) {
            findings.push(Finding::new(
                CHECKER,
                format!(
                    "{file}: allowlisted for {allowed} panic sites but none found \
                     (file clean or gone) — remove the stale allowlist entry"
                ),
            ));
        }
    }

    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repo_passes_audit() {
        let findings = check(&crate::default_repo_root());
        assert!(findings.is_empty(), "{findings:#?}");
    }

    #[test]
    fn test_blocks_are_stripped() {
        let src =
            "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() { x.unwrap(); }\n}\nfn c() {}\n";
        let (body, mods) = scan::strip_test_blocks(src);
        assert!(mods.is_empty());
        assert!(body.contains("fn a()"));
        assert!(body.contains("fn c()"));
        assert_eq!(count_sites(&body, &needles()), 0);
    }

    /// A `'}'` in a test does not end its module: a later test's
    /// `.unwrap()` is no panic site, and its call is no caller.
    #[test]
    fn a_brace_literal_does_not_end_a_test_module() {
        let src = format!(
            "pub fn tested() -> Option<u8> {{\n    Some(1)\n}}\n\n#[cfg(test)]\nmod tests {{\n    \
             #[test]\n    fn brace() {{\n        assert!(\"{{}}\".ends_with('}}'));\n    }}\n\n    \
             #[test]\n    fn later() {{\n        assert_eq!(super::tested().{}(), 1);\n    }}\n}}\n",
            "unwrap"
        );
        let (body, _) = scan::strip_test_blocks(&src);
        assert_eq!(count_sites(&body, &needles()), 0, "{body}");
        let lib = scan::SourceFile {
            rel: "crates/x/src/lib.rs".into(),
            body,
        };
        let (findings, _) = crate::surface::check_sources(&[lib], &[]);
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert!(findings[0].message.contains("`tested`"), "{findings:#?}");
    }

    #[test]
    fn test_mod_file_refs_are_collected() {
        let src = "mod real;\n#[cfg(test)]\nmod tests_protocol;\n";
        let (_, mods) = scan::strip_test_blocks(src);
        assert_eq!(mods, vec!["tests_protocol.rs".to_string()]);
    }

    #[test]
    fn denied_sites_are_counted() {
        let needles = needles();
        let src = format!(
            "let a = x.{}();\n// x.{}();\ndebug_assert!(y.{}() > 0);\n",
            "unwrap", "unwrap", "unwrap"
        );
        assert_eq!(count_sites(&src, &needles), 1);
    }

    #[test]
    fn allowlist_parses_and_rejects_garbage() {
        let good = "# comment\ncrates/a/src/lib.rs 3\n\ncrates/b/src/x.rs 0\n";
        let map = parse_allowlist(good).unwrap();
        assert_eq!(map.get("crates/a/src/lib.rs"), Some(&3));
        assert!(parse_allowlist("crates/a/src/lib.rs notanumber").is_err());
        assert!(parse_allowlist("just-a-path").is_err());
    }
}
