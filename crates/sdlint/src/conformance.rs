//! Checker 1: schema conformance between emitted templates and
//! extraction rules.
//!
//! Every template is instantiated with sample captures and pushed
//! through every shape-based rule, with the rule's family and class
//! gates applied — exactly the decision the extractor makes per log
//! line. The cross-check is bidirectional: templates must land on the
//! right number of rules, and rules must have emitters.

use logmodel::schema::{Disposition, MsgTemplate};
use sdchecker::schema::{MatchKind, PatternSpec};

use crate::Finding;

const CHECKER: &str = "conformance";

/// The rule whose shape most resembles `message`, rendered for a
/// diagnostic ("closest near-miss").
fn nearest_rule_text(rules: &[PatternSpec], message: &str) -> String {
    match sdchecker::schema::closest_pattern(rules, message) {
        Some((r, score)) if score > 0.0 => format!(
            "closest rule: `{}` ({}), affinity {score:.2}",
            r.name,
            r.kind_text()
        ),
        _ => "no rule comes close".to_string(),
    }
}

/// Names of the shape-based rules that fire on a sample instantiation of
/// `t`.
fn firing_rules<'r>(t: &MsgTemplate, rules: &'r [PatternSpec]) -> Vec<&'r PatternSpec> {
    let sample = t.sample();
    rules
        .iter()
        .filter(|r| r.matches(t.family, t.class, &sample))
        .collect()
}

/// Cross-check `templates` (the emitted vocabulary) against `rules`
/// (the extraction table). Pure — mutation tests feed it broken tables.
pub fn check(templates: &[MsgTemplate], rules: &[PatternSpec]) -> Vec<Finding> {
    let mut findings = Vec::new();

    for t in templates {
        let sample = t.sample();
        let fired = firing_rules(t, rules);
        match t.disposition {
            Disposition::Event => match fired.len() {
                1 => {}
                0 => findings.push(Finding::new(
                    CHECKER,
                    format!(
                        "template `{}` ({}) matches no extraction rule: \
                         sample {sample:?} from {} falls through; {}",
                        t.name,
                        t.template,
                        t.file,
                        nearest_rule_text(rules, &sample)
                    ),
                )),
                _ => findings.push(Finding::new(
                    CHECKER,
                    format!(
                        "template `{}` ({}) is ambiguous: rules [{}] all match \
                         sample {sample:?} — shadowing hides which rule wins",
                        t.name,
                        t.template,
                        fired.iter().map(|r| r.name).collect::<Vec<_>>().join(", "),
                    ),
                )),
            },
            Disposition::Positional => {
                if !fired.is_empty() {
                    findings.push(Finding::new(
                        CHECKER,
                        format!(
                            "positionally-consumed template `{}` is also shape-matched \
                             by rule `{}` — the event would be double-counted",
                            t.name, fired[0].name
                        ),
                    ));
                }
                let has_positional = rules
                    .iter()
                    .any(|r| r.family == t.family && matches!(r.kind, MatchKind::Positional(_)));
                if !has_positional {
                    findings.push(Finding::new(
                        CHECKER,
                        format!(
                            "template `{}` relies on a positional rule for family {} \
                             but the table has none",
                            t.name,
                            t.family.name()
                        ),
                    ));
                }
            }
            Disposition::Noise => {
                if let Some(r) = fired.first() {
                    findings.push(Finding::new(
                        CHECKER,
                        format!(
                            "noise template `{}` ({}) from {} is matched by rule `{}` — \
                             noise would be misread as scheduling evidence",
                            t.name, t.template, t.file, r.name
                        ),
                    ));
                }
            }
        }
    }

    // Reverse direction: every shape-based rule needs an emitter (an
    // Event-disposition template it fires on) or an explicit
    // external_only annotation; positional rules need a family that
    // actually has positionally-consumed templates.
    for r in rules {
        if r.external_only {
            continue;
        }
        let fed = match r.kind {
            MatchKind::Positional(_) => templates
                .iter()
                .any(|t| t.family == r.family && t.disposition == Disposition::Positional),
            _ => templates.iter().any(|t| {
                t.disposition == Disposition::Event && r.matches(t.family, t.class, &t.sample())
            }),
        };
        if !fed {
            findings.push(Finding::new(
                CHECKER,
                format!(
                    "rule `{}` ({}) has no emitter: no simulator template feeds it — \
                     dead rule, or missing `external_only` annotation",
                    r.name,
                    r.kind_text()
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
    fn real_tables_conform() {
        let findings = check(
            &crate::all_emitted_templates(),
            sdchecker::schema::patterns(),
        );
        assert!(findings.is_empty(), "{findings:#?}");
    }

    /// The table this checker verifies is the rule set that runs: the
    /// extractor reads nothing but `PATTERNS`, whose rows are its family
    /// slices, class gates, shapes and emitted kinds, and tests a line
    /// with `PatternSpec::read`, as `matches` does. This holds that end
    /// to end, through the running pipeline: every emitted template,
    /// logged under its own class as the *second* record of a stream of
    /// its own family (positional rules stay out of it), is classified —
    /// or, for the banner that name mining consumes, yields a name —
    /// exactly when a rule of the table matches it.
    #[test]
    fn the_running_extractor_fires_exactly_where_the_table_does() {
        use logmodel::schema::Family;
        use logmodel::{ApplicationId, Epoch, Level, LogRecord, LogSource, NodeId, TsMs};
        use sdchecker::{IncrementalAnalyzer, Outcome};

        let app = ApplicationId::new(Epoch::default_run().unix_ms, 1);
        let record = |ts, class: &str, message: &str| {
            LogRecord::new(TsMs(ts), Level::Info, class, message.to_string())
        };
        let templates = crate::all_emitted_templates();
        let mut fired = 0;
        for t in &templates {
            let source = match t.family {
                Family::ResourceManager => LogSource::ResourceManager,
                Family::NodeManager => LogSource::NodeManager(NodeId(1)),
                Family::Driver => LogSource::Driver(app),
                Family::Executor => LogSource::Executor(app.attempt(1).container(2)),
            };
            let sample = t.sample();
            let mut pipeline = IncrementalAnalyzer::default();
            pipeline.ingest(source, &record(1, "Filler", "the stream's first record"));
            let outcome = pipeline.ingest(source, &record(2, t.class, &sample));
            let named = pipeline.finish().iter().any(|r| r.name.is_some());
            let by_table = sdchecker::schema::patterns()
                .iter()
                .any(|p| p.matches(t.family, t.class, &sample));
            assert_eq!(
                outcome != Outcome::Ignored || named,
                by_table,
                "template `{}`: {sample:?} under {} came out {outcome:?}",
                t.name,
                t.class,
            );
            fired += usize::from(by_table);
        }
        assert!(
            0 < fired && fired < templates.len(),
            "both sides exercised: {fired} of {} templates fire a rule",
            templates.len()
        );
    }
}
