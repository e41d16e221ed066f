//! Shared source-scanning plumbing for the text-based checkers.
//!
//! The panic, lock, atomics, and determinism audits all walk the same
//! workspace sources with the same conventions: `#[cfg(test)] mod`
//! blocks are stripped by brace matching, files pulled in via
//! `#[cfg(test)] mod name;` are skipped entirely, and comment-only
//! lines are ignored. This module centralizes that walk, plus a
//! *logical-line* view that joins multi-line method chains
//! (`shared\n    .health\n    .lock()` becomes one line) so substring
//! needles like `.health.lock(` match regardless of rustfmt's wrapping.
//!
//! These scanners are deliberately textual, not parsed: string literals
//! containing a needle count against the file, which keeps the failure
//! mode noisy rather than silent. The one scan for which a literal
//! would hide a finding instead — an identifier counted as a caller —
//! blanks literals and comments first ([`blank_literals`]).

use std::path::Path;

/// One workspace source file, test-stripped.
pub struct SourceFile {
    /// Repo-relative path with forward slashes, e.g.
    /// `crates/obs/src/recorder.rs`.
    pub rel: String,
    /// Source with `#[cfg(test)]` blocks removed.
    pub body: String,
}

/// A source line with dot-chains joined back onto it, plus the original
/// 1-based line number of its first physical line.
pub(crate) struct LogicalLine {
    pub lineno: usize,
    pub text: String,
}

/// Strip `#[cfg(test)] mod ... { ... }` blocks from `source` by brace
/// matching, and collect the names of `#[cfg(test)] mod name;` file
/// references so the caller can skip those files.
pub fn strip_test_blocks(source: &str) -> (String, Vec<String>) {
    let mut out = String::with_capacity(source.len());
    let mut test_mod_files = Vec::new();
    let mut lines = source.lines().peekable();
    while let Some(line) = lines.next() {
        if line.trim_start().starts_with("#[cfg(test)]") {
            // The attribute may gate a `mod x;` (external file), a
            // `mod x { ... }` block, or a single item; consume
            // accordingly, with any further attributes on it.
            while lines
                .peek()
                .is_some_and(|l| l.trim_start().starts_with("#["))
            {
                lines.next();
            }
            let Some(next) = lines.peek() else { break };
            let trimmed = next.trim_start();
            if trimmed.starts_with("mod ") && trimmed.trim_end().ends_with(';') {
                let name = trimmed
                    .trim_end()
                    .trim_end_matches(';')
                    .trim_start_matches("mod ")
                    .trim();
                test_mod_files.push(format!("{name}.rs"));
                lines.next();
                continue;
            }
            // Block or item: swallow lines until braces balance. Depth
            // only starts counting once the first `{` appears, so a
            // one-line gated item without braces is consumed as-is.
            let mut depth: i64 = 0;
            let mut opened = false;
            for body in lines.by_ref() {
                for ch in body.chars() {
                    match ch {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth -= 1,
                        _ => {}
                    }
                }
                if opened && depth <= 0 {
                    break;
                }
                if !opened {
                    break;
                }
            }
            continue;
        }
        out.push_str(line);
        out.push('\n');
    }
    (out, test_mod_files)
}

/// Recursively collect `.rs` files under `dir`. `include_binaries`
/// controls whether `bin/` directories and `main.rs` are kept — the
/// panic audit exempts binaries (a CLI may die loudly), while the
/// concurrency audits must cover them (the daemon lives in `bin/`).
fn collect_rs_files(
    dir: &Path,
    include_binaries: bool,
    out: &mut Vec<std::path::PathBuf>,
) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "bin" && !include_binaries {
                continue;
            }
            collect_rs_files(&path, include_binaries, out)?;
        } else if name.ends_with(".rs") && (include_binaries || name != "main.rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Walk every crate's `src` tree under `repo_root/crates`, returning
/// test-stripped sources sorted by path. Errors come back as plain
/// strings for the caller to wrap into its own findings.
pub(crate) fn workspace_sources(
    repo_root: &Path,
    include_binaries: bool,
) -> Result<Vec<SourceFile>, String> {
    let crates_dir = repo_root.join("crates");
    let mut crate_dirs: Vec<_> = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.join("src").is_dir())
        .collect();
    crate_dirs.sort();
    let mut out = Vec::new();
    for crate_dir in &crate_dirs {
        tree_sources(
            repo_root,
            &crate_dir.join("src"),
            include_binaries,
            &mut out,
        )?;
    }
    Ok(out)
}

/// Every non-test program source: each crate's `src` tree, binaries
/// included, then the root package's `src/` and `examples/`.
pub(crate) fn program_sources(repo_root: &Path) -> Result<Vec<SourceFile>, String> {
    let mut out = workspace_sources(repo_root, true)?;
    for dir in ["src", "examples"] {
        tree_sources(repo_root, &repo_root.join(dir), true, &mut out)?;
    }
    Ok(out)
}

/// Append the test-stripped sources under `dir`, sorted by path, to
/// `out`. A file that a `#[cfg(test)] mod name;` in the same tree pulls
/// in is skipped.
pub(crate) fn tree_sources(
    repo_root: &Path,
    dir: &Path,
    include_binaries: bool,
    out: &mut Vec<SourceFile>,
) -> Result<(), String> {
    let mut files = Vec::new();
    collect_rs_files(dir, include_binaries, &mut files)
        .map_err(|e| format!("cannot walk {}: {e}", dir.display()))?;
    files.sort();
    let mut stripped: Vec<(std::path::PathBuf, String)> = Vec::new();
    let mut test_files: Vec<String> = Vec::new();
    for f in &files {
        let text =
            std::fs::read_to_string(f).map_err(|e| format!("cannot read {}: {e}", f.display()))?;
        let (body, mods) = strip_test_blocks(&text);
        test_files.extend(mods);
        stripped.push((f.clone(), body));
    }
    for (f, body) in stripped {
        let fname = f
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if test_files.contains(&fname) {
            continue;
        }
        let rel = f
            .strip_prefix(repo_root)
            .unwrap_or(&f)
            .to_string_lossy()
            .replace('\\', "/");
        out.push(SourceFile { rel, body });
    }
    Ok(())
}

/// `source` with every comment and every string, raw-string, byte and
/// char literal replaced by spaces, newlines kept so line numbers hold.
/// A lifetime or label (`'a`) is code, not a literal.
pub(crate) fn blank_literals(source: &str) -> String {
    let chars: Vec<char> = source.chars().collect();
    let mut out = String::with_capacity(source.len());
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        let end = if c == '/' && next == Some('/') {
            let len = chars[i..].iter().position(|&c| c == '\n');
            len.map_or(chars.len(), |n| i + n)
        } else if c == '/' && next == Some('*') {
            block_comment_end(&chars, i)
        } else if c == '"' {
            quoted_end(&chars, i + 1, '"')
        } else if c == '\'' {
            let Some(end) = char_literal_end(&chars, i) else {
                out.push(c);
                i += 1;
                continue;
            };
            end
        } else if let Some(end) = raw_string_end(&chars, i) {
            end
        } else {
            // An identifier is copied whole, so the `b` of `tab"` or
            // the `r` of `for"` never starts a literal.
            let len = chars[i..]
                .iter()
                .position(|&c| !(c.is_alphanumeric() || c == '_'))
                .unwrap_or(chars.len() - i);
            out.extend(&chars[i..i + len.max(1)]);
            i += len.max(1);
            continue;
        };
        out.extend(
            chars[i..end]
                .iter()
                .map(|&c| if c == '\n' { c } else { ' ' }),
        );
        i = end;
    }
    out
}

/// One past the `*/` closing the block comment opened at `start`,
/// nesting counted.
fn block_comment_end(chars: &[char], start: usize) -> usize {
    let mut depth = 0;
    let mut i = start;
    while i + 1 < chars.len() {
        match (chars[i], chars[i + 1]) {
            ('/', '*') => {
                depth += 1;
                i += 2;
            }
            ('*', '/') => {
                depth -= 1;
                i += 2;
                if depth == 0 {
                    return i;
                }
            }
            _ => i += 1,
        }
    }
    chars.len()
}

/// One past the unescaped `close` at or after `from`.
fn quoted_end(chars: &[char], from: usize, close: char) -> usize {
    let mut i = from;
    while i < chars.len() {
        if chars[i] == '\\' {
            i += 2;
        } else if chars[i] == close {
            return i + 1;
        } else {
            i += 1;
        }
    }
    chars.len()
}

/// One past a char literal opening at `start`, or `None` when the quote
/// opens a lifetime or label instead.
fn char_literal_end(chars: &[char], start: usize) -> Option<usize> {
    match chars.get(start + 1)? {
        '\\' => Some(quoted_end(chars, start + 1, '\'')),
        _ if chars.get(start + 2) == Some(&'\'') => Some(start + 3),
        _ => None,
    }
}

/// One past a raw string (`r"…"`, `r#"…"#`, `br#"…"#`) or byte string
/// (`b"…"`, `b'…'`) opening at `start`, or `None` if none opens there.
fn raw_string_end(chars: &[char], start: usize) -> Option<usize> {
    let mut i = start;
    if chars.get(i) == Some(&'b') {
        i += 1;
        match chars.get(i) {
            Some('"') => return Some(quoted_end(chars, i + 1, '"')),
            Some('\'') => return char_literal_end(chars, i),
            _ => {}
        }
    }
    if chars.get(i) != Some(&'r') {
        return None;
    }
    i += 1;
    let hashes = chars[i..].iter().take_while(|&&c| c == '#').count();
    i += hashes;
    if chars.get(i) != Some(&'"') {
        return None;
    }
    i += 1;
    while i < chars.len() {
        if chars[i] == '"'
            && chars[i + 1..]
                .iter()
                .take(hashes)
                .filter(|&&c| c == '#')
                .count()
                == hashes
        {
            return Some(i + 1 + hashes);
        }
        i += 1;
    }
    Some(chars.len())
}

/// Split a body into logical lines: a physical line whose successor
/// (after trimming) starts with `.` absorbs it, so rustfmt-wrapped
/// method chains match single-line substring needles. Comment-only
/// lines are dropped.
pub(crate) fn logical_lines(body: &str) -> Vec<LogicalLine> {
    let mut out: Vec<LogicalLine> = Vec::new();
    for (i, raw) in body.lines().enumerate() {
        let trimmed = raw.trim();
        if trimmed.starts_with("//") {
            continue;
        }
        let continues = trimmed.starts_with('.');
        if continues {
            if let Some(last) = out.last_mut() {
                last.text.push_str(trimmed);
                continue;
            }
        }
        out.push(LogicalLine {
            lineno: i + 1,
            text: trimmed.to_string(),
        });
    }
    out
}

/// Net brace depth change contributed by one line (string-literal
/// blind, like the rest of the scanner — noisy over silent).
pub(crate) fn brace_delta(line: &str) -> i64 {
    let mut d = 0i64;
    for ch in line.chars() {
        match ch {
            '{' => d += 1,
            '}' => d -= 1,
            _ => {}
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logical_lines_join_method_chains() {
        let body = "let x = shared\n    .health\n    .lock()\n    .unwrap();\nlet y = 2;\n";
        let lines = logical_lines(body);
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].text, "let x = shared.health.lock().unwrap();");
        assert_eq!(lines[0].lineno, 1);
        assert_eq!(lines[1].lineno, 5);
    }

    #[test]
    fn comment_lines_are_dropped_not_joined() {
        let body = "// .lock() in a comment\nlet a = 1;\n";
        let lines = logical_lines(body);
        assert_eq!(lines.len(), 1);
        assert!(!lines[0].text.contains("lock"));
    }

    #[test]
    fn brace_delta_counts_net() {
        assert_eq!(brace_delta("if x { y } else {"), 1);
        assert_eq!(brace_delta("}"), -1);
        assert_eq!(brace_delta("let z = 3;"), 0);
    }

    #[test]
    fn blanking_keeps_code_and_line_breaks() {
        let src = "let a = \"x\ny\"; // tail\nb /* c /* d */ e */ f\n";
        let out = blank_literals(src);
        assert_eq!(out.len(), src.len());
        assert_eq!(out.lines().count(), src.lines().count());
        let words: Vec<&str> = out.split_whitespace().collect();
        assert_eq!(words, ["let", "a", "=", ";", "b", "f"]);
    }

    #[test]
    fn raw_strings_close_on_their_own_hashes() {
        let src = r####"r#"inner "quoted" r"x" "# a br##"q"# "##b c"####;
        let words: Vec<String> = blank_literals(src)
            .split_whitespace()
            .map(String::from)
            .collect();
        assert_eq!(words, ["a", "b", "c"]);
    }

    #[test]
    fn escaped_quotes_do_not_end_a_string() {
        let src = r#""say \"hi\" \\" name b"bytes\"" x"#;
        let words: Vec<String> = blank_literals(src)
            .split_whitespace()
            .map(String::from)
            .collect();
        assert_eq!(words, ["name", "x"]);
    }

    #[test]
    fn char_literals_open_nothing_and_lifetimes_stay_code() {
        let src =
            "let q = '\"'; let o = '{'; let e = '\\''; g\nfn f<'a>(x: &'a str) -> &'a str { h }";
        let out = blank_literals(src);
        let words: Vec<&str> = out
            .split(|c: char| !(c.is_alphanumeric() || c == '_'))
            .filter(|w| !w.is_empty())
            .collect();
        assert_eq!(
            words,
            [
                "let", "q", "let", "o", "let", "e", "g", "fn", "f", "a", "x", "a", "str", "a",
                "str", "h"
            ]
        );
        assert!(out.contains("<'a>") && out.contains("&'a str"), "{out}");
        assert_eq!(brace_delta(&out), 0, "{out}");
    }

    #[test]
    fn program_sources_cover_examples_and_the_root_package() {
        let sources = program_sources(&crate::default_repo_root()).unwrap();
        for rel in [
            "examples/tpch_trace.rs",
            "src/lib.rs",
            "crates/sdchecker/src/cli.rs",
        ] {
            assert!(sources.iter().any(|s| s.rel == rel), "{rel} missing");
        }
        assert!(!sources.iter().any(|s| s.rel.starts_with("sdbench/")));
    }

    #[test]
    fn workspace_walk_finds_this_file() {
        let sources = workspace_sources(&crate::default_repo_root(), true).unwrap();
        assert!(sources.iter().any(|s| s.rel == "crates/sdlint/src/scan.rs"));
        // Binaries included when asked for...
        assert!(sources
            .iter()
            .any(|s| s.rel == "crates/sdchecker/src/bin/sdcheckerd.rs"));
        // ...and excluded when not.
        let lib_only = workspace_sources(&crate::default_repo_root(), false).unwrap();
        assert!(!lib_only
            .iter()
            .any(|s| s.rel.contains("/bin/") || s.rel.ends_with("main.rs")));
    }
}
