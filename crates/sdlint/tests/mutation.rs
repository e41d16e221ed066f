//! Mutation tests: prove the checkers actually detect drift.
//!
//! Each test takes the *real* tables, breaks exactly one thing the way a
//! careless edit would, and asserts the checker produces a finding that
//! names the broken template/rule and points at the nearest match —
//! i.e. the diagnostic a developer would need to fix the drift.

use logmodel::schema::MsgTemplate;
use sdlint::{command_line, conformance, doc_paths, json_syntax, machines, scan, surface};

/// The real tables produce zero findings — the merge gate.
#[test]
fn repo_is_clean() {
    let findings = sdlint::run_all_with_stats(&sdlint::default_repo_root()).findings;
    assert!(findings.is_empty(), "{findings:#?}");
}

fn mutate_template(name: &str, f: impl FnOnce(&mut MsgTemplate)) -> Vec<MsgTemplate> {
    let mut templates = sdlint::all_emitted_templates();
    let t = templates
        .iter_mut()
        .find(|t| t.name == name)
        .unwrap_or_else(|| panic!("no template named {name}"));
    f(t);
    templates
}

/// Breaking one word of an emitted message template must fail
/// conformance with a diagnostic naming the template AND the nearest
/// extraction rule.
#[test]
fn broken_template_names_template_and_nearest_rule() {
    // The careless edit: "State change" becomes "Statechange" in the
    // RM app emitter. Byte-for-byte the extractor no longer matches.
    let templates = mutate_template("rm_app_state_change", |t| {
        t.template = "{} Statechange from {} to {} on event = {}";
    });
    let findings = conformance::check(&templates, sdchecker::schema::patterns());
    assert!(!findings.is_empty(), "mutation went undetected");
    let f = &findings[0];
    assert!(
        f.message.contains("rm_app_state_change"),
        "diagnostic must name the broken template: {f}"
    );
    assert!(
        f.message.contains("rm_app_transition"),
        "diagnostic must name the nearest extraction rule: {f}"
    );
    assert!(
        f.message.contains("affinity"),
        "diagnostic must quantify the near-miss: {f}"
    );
}

/// Mislabeling noise as an Event (an emitter the extractor was never
/// taught) is caught, with the source file in the diagnostic.
#[test]
fn unparsed_event_template_is_caught() {
    let templates = mutate_template("rm_node_lost", |t| {
        t.disposition = logmodel::schema::Disposition::Event;
    });
    let findings = conformance::check(&templates, sdchecker::schema::patterns());
    assert!(
        findings.iter().any(|f| f.message.contains("rm_node_lost")
            && f.message.contains("matches no extraction rule")
            && f.message.contains(t_file("rm_node_lost"))),
        "{findings:#?}"
    );
}

/// A template drifting into another rule's shape (shadowing) is caught
/// as ambiguity.
#[test]
fn shadowed_template_is_caught() {
    // Make the RM app emitter produce container-transition-shaped text
    // under the container class: now two container entities log the
    // same shape and the rule table cannot say which rule wins.
    let templates = mutate_template("rm_app_state_change", |t| {
        t.class = "RMContainerImpl";
        t.template = "{} Container Transitioned from {} to {}";
    });
    let findings = conformance::check(&templates, sdchecker::schema::patterns());
    // Not ambiguous per se (one rule fires) — but the app-transition
    // rule has lost its emitter, which the reverse direction reports.
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("rm_app_transition") && f.message.contains("no emitter")),
        "{findings:#?}"
    );
}

/// A rule with no emitter and no `external_only` annotation is dead
/// weight and flagged.
#[test]
fn dead_rule_is_caught() {
    let mut templates = sdlint::all_emitted_templates();
    templates.retain(|t| t.name != "spark_task_assigned");
    let findings = conformance::check(&templates, sdchecker::schema::patterns());
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("task_assigned") && f.message.contains("no emitter")),
        "{findings:#?}"
    );
}

/// Cutting a transition edge strands downstream states — the machine
/// checker must name the stranded state.
#[test]
fn stranded_state_is_caught() {
    let mut specs = yarnsim::schema::machines();
    let m = specs
        .iter_mut()
        .find(|m| m.name == "RMContainerImpl")
        .expect("RMContainerImpl spec");
    let running = m.index_of("RUNNING").expect("RUNNING state");
    for row in &mut m.can_go {
        row[running] = false;
    }
    let findings = machines::check(&specs);
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("RMContainerImpl")
                && f.message.contains("RUNNING")
                && f.message.contains("unreachable")),
        "{findings:#?}"
    );
}

/// A state escaping the extractor's alphabet is flagged before any log
/// is ever parsed.
#[test]
fn out_of_alphabet_state_is_caught() {
    let mut specs = yarnsim::schema::machines();
    let m = specs
        .iter_mut()
        .find(|m| m.name == "RMAppImpl")
        .expect("RMAppImpl spec");
    let finished = m.index_of("FINISHED").expect("FINISHED state");
    m.states[finished] = "COMPLETED"; // renamed in the emitter, not the parser
    let findings = machines::check(&specs);
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("COMPLETED") && f.message.contains("alphabet")),
        "{findings:#?}"
    );
}

fn t_file(name: &str) -> &'static str {
    sdlint::all_emitted_templates()
        .iter()
        .find(|t| t.name == name)
        .map(|t| t.file)
        .unwrap_or("")
}

/// A member spelled by hand outside `obs::json` — here a wide-event key
/// written as a literal again — is a finding naming the file and line;
/// the writer itself may spell it.
#[test]
fn hand_written_json_member_is_caught() {
    let member = format!("out.push_str(\"{{\\\"{}\\\": \");\n", "schema");
    let seeded = |rel: &str| scan::SourceFile {
        rel: rel.into(),
        body: format!("fn f(out: &mut String) {{\n    {member}}}\n"),
    };
    let findings = json_syntax::check_sources(&[
        seeded("crates/sdchecker/src/wide.rs"),
        seeded(json_syntax::WRITER),
    ]);
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert!(
        findings[0]
            .message
            .contains("crates/sdchecker/src/wide.rs:2"),
        "{findings:#?}"
    );
}

/// A binary that reads its own arguments again — here the flag loop
/// `sdchecker::cli` replaced — is a finding naming the file and line;
/// the parser itself may read them.
#[test]
fn command_line_read_outside_cli_is_caught() {
    let read = format!(
        "let args: Vec<String> = std::{}::args().skip(1).collect();\n",
        "env"
    );
    let seeded = |rel: &str| scan::SourceFile {
        rel: rel.into(),
        body: format!("fn main() {{\n    {read}}}\n"),
    };
    let bare = scan::SourceFile {
        rel: "crates/experiments/src/bin/sdsim.rs".into(),
        body: format!(
            "use std::env;\nfn main() {{\n    let _ = {}::args();\n}}\n",
            "env"
        ),
    };
    let findings = command_line::check_sources(&[
        seeded("crates/sdchecker/src/bin/sdchecker.rs"),
        seeded(command_line::PARSER),
        bare,
    ]);
    assert_eq!(findings.len(), 2, "{findings:#?}");
    assert!(
        findings[0]
            .message
            .contains("crates/sdchecker/src/bin/sdchecker.rs:2"),
        "{findings:#?}"
    );
    assert!(
        findings[1]
            .message
            .contains("crates/experiments/src/bin/sdsim.rs:3"),
        "{findings:#?}"
    );
}

/// Sources as the surface audit reads them: test blocks stripped.
fn surface_sources(files: &[(&str, &str)]) -> Vec<scan::SourceFile> {
    files
        .iter()
        .map(|(rel, text)| scan::SourceFile {
            rel: rel.to_string(),
            body: scan::strip_test_blocks(text).0,
        })
        .collect()
}

fn surface_findings(files: &[(&str, &str)]) -> Vec<sdlint::Finding> {
    surface::check_sources(&surface_sources(files), &[]).0
}

const LIB: &str = "crates/x/src/lib.rs";

fn names_file_and_item(findings: &[sdlint::Finding], item: &str) {
    assert_eq!(findings.len(), 1, "{findings:#?}");
    let m = &findings[0].message;
    assert!(m.contains(LIB) && m.contains(&format!("`{item}`")), "{m}");
}

/// A `pub fn` only a `#[cfg(test)]` module calls has no caller.
#[test]
fn pub_fn_named_only_by_its_unit_tests_is_caught() {
    let lib = "pub fn only_tested() -> u8 {\n    1\n}\n\n#[cfg(test)]\nmod tests {\n    \
               #[test]\n    fn t() {\n        assert_eq!(super::only_tested(), 1);\n    }\n}\n";
    names_file_and_item(&surface_findings(&[(LIB, lib)]), "only_tested");
}

/// A span name or a justification that spells an item calls nothing.
#[test]
fn pub_fn_named_only_in_a_literal_or_comment_is_caught() {
    let lib = "pub fn spelled() {}\n";
    for caller in [
        "fn f() {\n    let _s = obs::span(\"spelled\");\n}\n",
        "fn f() {\n    let _s = r#\"spelled\"#;\n}\n",
        "// spelled() is the old way\nfn f() {}\n",
        "fn f() {\n    /* spelled */\n}\n",
    ] {
        let findings = surface_findings(&[(LIB, lib), ("crates/y/src/bin/y.rs", caller)]);
        names_file_and_item(&findings, "spelled");
    }
}

/// A re-export names an item without calling it.
#[test]
fn pub_fn_named_only_by_a_reexport_is_caught() {
    let lib = "mod inner;\npub use inner::{\n    exported,\n    Other,\n};\nfn g(_: Other) {}\n";
    let inner = (
        "crates/x/src/inner.rs",
        "pub fn exported() {}\npub struct Other;\n",
    );
    let findings = surface::check_sources(&surface_sources(&[(LIB, lib), inner]), &[]).0;
    assert_eq!(findings.len(), 1, "{findings:#?}");
    let m = &findings[0].message;
    assert!(
        m.contains("crates/x/src/inner.rs") && m.contains("`exported`"),
        "{m}"
    );
}

/// An example or the benchmark harness is a caller.
#[test]
fn pub_fn_called_from_examples_or_sdbench_is_clean() {
    let lib = "pub fn used() {}\n";
    for rel in ["examples/demo.rs", "sdbench/src/trace.rs"] {
        let caller = "fn main() {\n    x::used();\n}\n";
        assert!(
            surface_findings(&[(LIB, lib), (rel, caller)]).is_empty(),
            "{rel}"
        );
    }
}

/// An allowlist entry whose item has a caller again is stale.
#[test]
fn stale_surface_allowlist_entry_is_caught() {
    let lib = "pub fn used() {}\nfn g() {\n    used();\n}\n";
    let allow = [surface::SurfaceAllow {
        file: LIB,
        name: "used",
        reason: "once only tests called it",
    }];
    let findings = surface::check_sources(&surface_sources(&[(LIB, lib)]), &allow).0;
    assert_eq!(findings.len(), 1, "{findings:#?}");
    let m = &findings[0].message;
    assert!(
        m.contains(LIB) && m.contains("`used`") && m.contains("stale"),
        "{m}"
    );
}

/// A document naming a type that is gone, or a module that never was, is
/// flagged at its line; live modules and items, and spans that are not
/// workspace paths, are not.
#[test]
fn a_doc_naming_a_deleted_item_is_flagged() {
    let root = sdlint::default_repo_root();
    let doc = "Coverage is keyed by `logmodel::schema::Family` (`Family::ALL`),\n\
               ```\n`sdchecker::fenced::Away`\n```\n\
               not by `sdchecker::extract::SourceKind`; `sdchecker::extract`,\n\
               `sdchecker::schema::PATTERNS`, `logmodel::LogStore`, `std::mem::take`\n\
               and `sdchecker::nowhere` too.\n";
    let findings = doc_paths::check_doc(&root, "DESIGN.md", doc);
    let messages: Vec<&str> = findings.iter().map(|f| f.message.as_str()).collect();
    assert_eq!(messages.len(), 2, "{messages:#?}");
    assert!(
        messages[0].starts_with("DESIGN.md:5: `sdchecker::extract::SourceKind` names `SourceKind`"),
        "{messages:#?}"
    );
    assert!(
        messages[1].starts_with("DESIGN.md:7: `sdchecker::nowhere`"),
        "{messages:#?}"
    );
}
