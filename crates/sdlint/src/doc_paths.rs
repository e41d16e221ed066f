//! Checker 11: the documents name code that exists.
//!
//! `DESIGN.md` and `README.md` point readers at code by path: a
//! backticked `crate::module` or `crate::module::Item`, where `crate` is
//! a workspace crate (a directory under `crates/`). Each such path must
//! lead to a module file under the crate's `src/` — `module.rs` or
//! `module/mod.rs`, one level per segment — and an item path must also
//! name a declaration in that module: a `fn`, `struct`, `enum`, `trait`,
//! `type`, `const`, `static`, `mod` or `macro_rules!`, or a name a `use`
//! brings in. Segments after the item (a method, a variant) are not
//! checked, and neither are fenced code blocks or spans that are not a
//! plain path (`sdchecker::{a, b}`, `analyze_store*`).

use std::path::{Path, PathBuf};

use crate::Finding;

const CHECKER: &str = "docs";

/// The documents whose paths are checked, relative to the repository.
const DOCS: [&str; 2] = ["DESIGN.md", "README.md"];

/// Keywords that declare the name after them.
const DECLARING: &[&str] = &[
    "fn",
    "struct",
    "enum",
    "union",
    "trait",
    "type",
    "const",
    "static",
    "mod",
    "macro_rules!",
];

/// Check the backticked paths of one document, `name`, whose text is
/// `text`, against the sources of the repository rooted at `repo_root`.
/// Split out from [`check`] so tests can feed a seeded document.
pub fn check_doc(repo_root: &Path, name: &str, text: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (line, span) in code_spans(text) {
        let mut segments = span.split("::");
        let krate = segments.next().unwrap_or_default();
        let src = repo_root.join("crates").join(krate).join("src");
        if !is_path(&span) || !src.is_dir() {
            continue;
        }
        if let Err(why) = resolve(&src, segments) {
            findings.push(Finding::new(
                CHECKER,
                format!("{name}:{line}: `{span}` {why}"),
            ));
        }
    }
    findings
}

/// Audit the documents of the repository rooted at `repo_root`.
pub fn check(repo_root: &Path) -> Vec<Finding> {
    let mut findings = Vec::new();
    for doc in DOCS {
        match std::fs::read_to_string(repo_root.join(doc)) {
            Ok(text) => findings.extend(check_doc(repo_root, doc, &text)),
            Err(e) => findings.push(Finding::new(CHECKER, format!("cannot read {doc}: {e}"))),
        }
    }
    findings
}

/// Every inline code span outside fenced blocks, with the line it starts
/// on.
fn code_spans(text: &str) -> Vec<(usize, String)> {
    let mut prose = String::with_capacity(text.len());
    let mut fenced = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            prose.push_str(line);
        }
        prose.push('\n');
    }
    let mut spans = Vec::new();
    let mut line = 1;
    for (i, piece) in prose.split('`').enumerate() {
        if i % 2 == 1 {
            spans.push((line, piece.to_string()));
        }
        line += piece.matches('\n').count();
    }
    spans
}

/// Whether `span` is two or more identifiers joined by `::`.
fn is_path(span: &str) -> bool {
    let ident = |s: &str| {
        s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
            && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
    };
    span.contains("::") && span.split("::").all(ident)
}

/// Follow `segments` from the crate root under `src`: module files while
/// they exist, then one declaration in the last module reached.
fn resolve<'s>(src: &Path, segments: impl Iterator<Item = &'s str>) -> Result<(), String> {
    let mut dir = src.to_path_buf();
    let mut file = ["lib.rs", "main.rs"]
        .into_iter()
        .map(|f| src.join(f))
        .find(|f| f.is_file())
        .ok_or_else(|| {
            format!(
                "names a crate without lib.rs or main.rs in {}",
                src.display()
            )
        })?;
    for seg in segments {
        let module: Option<PathBuf> = [dir.join(format!("{seg}.rs")), dir.join(seg).join("mod.rs")]
            .into_iter()
            .find(|f| f.is_file());
        if let Some(module) = module {
            dir = dir.join(seg);
            file = module;
            continue;
        }
        let text = std::fs::read_to_string(&file)
            .map_err(|e| format!("cannot be checked: {}: {e}", file.display()))?;
        return if declares(&text, seg) {
            Ok(())
        } else {
            Err(format!(
                "names `{seg}`, which is neither a module file nor declared in {}",
                file.display()
            ))
        };
    }
    Ok(())
}

/// Whether `source` declares `name`, or brings it in with a `use`.
fn declares(source: &str, name: &str) -> bool {
    let mut in_use = false;
    for line in source.lines() {
        let words: Vec<&str> = line
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '!'))
            .filter(|w| !w.is_empty())
            .collect();
        let t = line.trim_start();
        in_use |= ["use ", "pub use ", "pub(crate) use "]
            .iter()
            .any(|u| t.starts_with(u));
        let declared = words
            .windows(2)
            .any(|w| DECLARING.contains(&w[0]) && w[1] == name);
        if declared || (in_use && words.contains(&name)) {
            return true;
        }
        if line.contains(';') {
            in_use = false;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_skip_fences_and_keep_line_numbers() {
        let doc = "a `x::y` b\n```\n`not::this`\n```\nwrapped `p::q\nr` and `s::t`\n";
        let spans = code_spans(doc);
        let got: Vec<(usize, &str)> = spans.iter().map(|(l, s)| (*l, s.as_str())).collect();
        assert_eq!(got, [(1, "x::y"), (5, "p::q\nr"), (6, "s::t")]);
        assert!(is_path("sdchecker::schema::PATTERNS"));
        assert!(!is_path("p::q\nr"));
        assert!(!is_path("sdchecker::{a, b}"));
        assert!(!is_path("schema"));
    }

    #[test]
    fn declarations_and_uses_count() {
        let src = "pub(crate) static PATTERNS: [u8; 1] = [0];\n\
                   pub use store::{\n    scan_dir,\n    LogStore,\n};\n\
                   macro_rules! wire_struct {}\nlet LogStore2 = 1;\n";
        for name in ["PATTERNS", "scan_dir", "LogStore", "wire_struct"] {
            assert!(declares(src, name), "{name}");
        }
        assert!(!declares(src, "LogStore2"));
        assert!(!declares(src, "Missing"));
    }
}
