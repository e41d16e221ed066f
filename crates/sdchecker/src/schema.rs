//! The parser side of the emitter↔parser contract: every extraction rule
//! of [`crate::extract`] is one row of [`PATTERNS`], and nothing else
//! knows which line is which Table I message, or which log family writes
//! a kind.
//!
//! A row names its family, class gate and shape, and what its rule emits:
//! a transition row its machine's alphabet, what its id names, and which
//! entered state (on which event) is which [`EventKind`]; a prefix row its
//! one kind; a positional row its FIRST_LOG kind; the banner row is the
//! name rule. The [`Extractor`](crate::extract::Extractor),
//! [`state_alphabet`] and `sdlint` (its emitter cross-check and its model
//! check) read the rows, through [`PatternSpec::read`] where they test a
//! line. [`emitter`] finds the row of a kind: the checkpoint decoder
//! rebuilds an event from it, corpus validation and the DOT rendering
//! read its family, and coverage warnings read which families have
//! transition rows.

use std::sync::OnceLock;

use logmodel::schema::{template_affinity, Family};

use crate::event::EventKind::{self, *};
use crate::pattern::Pat;

/// How a rule decides that a log line is scheduling-relevant, and what
/// the line means when it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchKind {
    /// A state machine's transition line: a template (compiled to a
    /// [`Pat`], anchored both ends) whose holes are the `subject`'s id,
    /// the state left, the state entered and, where the machine logs it,
    /// the event. An entered state maps to the kind of the first entry
    /// of `to` it fits (the event too, when the entry names one); a
    /// state of the alphabet `states` that none fits is recognized and
    /// skipped, and one outside it is schema drift.
    Transition {
        template: &'static str,
        subject: Subject,
        states: &'static [&'static str],
        to: &'static [(&'static str, Option<&'static str>, EventKind)],
    },
    /// The name rule: literal text whose one hole is the Spark
    /// application's name, a label rather than an event.
    Name(&'static str),
    /// The message starts with a literal prefix; the line is the event.
    Prefix(&'static str, EventKind),
    /// The first record of a stream, regardless of content (§III-B:
    /// "we use the first log message to mark the successful launching"),
    /// is the event.
    Positional(EventKind),
}

/// What a transition line's id names: what its events are bound to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Subject {
    /// An application.
    App,
    /// A container.
    Container,
}

/// One extraction rule: where it applies, how it matches, what it emits.
#[derive(Debug)]
pub struct PatternSpec {
    /// Stable identifier used in diagnostics.
    pub name: &'static str,
    /// log4j class gate (`None` = the rule ignores the class column,
    /// as the driver/executor rules do).
    pub class: Option<&'static str>,
    /// The log family the rule reads.
    pub family: Family,
    /// The matching discipline and what it emits.
    pub kind: MatchKind,
    /// `true` for rules kept for real-world corpora that no simulator
    /// emit site produces. Every other rule must have an emitter —
    /// `sdlint` flags dead rules that lack this annotation.
    pub external_only: bool,
    /// The template, compiled on the row's first use.
    pat: OnceLock<Pat>,
}

/// The complete extraction-rule table, grouped by family; within a
/// family the extractor tries the rows in this order.
pub(crate) static PATTERNS: [PatternSpec; 10] = [
    PatternSpec::rule(
        "rm_app_transition",
        Some("RMAppImpl"),
        Family::ResourceManager,
        MatchKind::Transition {
            template: "{} State change from {} to {} on event = {}",
            subject: Subject::App,
            // Hadoop's `RMAppState`: KILLED appears in real RM logs the
            // simulator never writes.
            states: &[
                "NEW",
                "NEW_SAVING",
                "SUBMITTED",
                "ACCEPTED",
                "RUNNING",
                "FINAL_SAVING",
                "FINISHING",
                "FINISHED",
                "FAILED",
                "KILLED",
            ],
            to: &[
                ("SUBMITTED", None, AppSubmitted),
                ("ACCEPTED", None, AppAccepted),
                ("RUNNING", Some("ATTEMPT_REGISTERED"), AttemptRegistered),
                // FINAL_SAVING marks completion only on a clean AM
                // unregister; the same state is entered on
                // ATTEMPT_FAILED/KILL, which must not look like a
                // finished job.
                (
                    "FINAL_SAVING",
                    Some("ATTEMPT_UNREGISTERED"),
                    AppUnregistered,
                ),
                ("FINISHED", None, AppFinished),
                ("FAILED", None, AppFailed),
                ("KILLED", None, AppKilled),
            ],
        },
    ),
    PatternSpec::rule(
        "rm_container_transition",
        Some("RMContainerImpl"),
        Family::ResourceManager,
        MatchKind::Transition {
            template: "{} Container Transitioned from {} to {}",
            subject: Subject::Container,
            // Hadoop's `RMContainerState`.
            states: &[
                "NEW",
                "ALLOCATED",
                "ACQUIRED",
                "RUNNING",
                "COMPLETED",
                "KILLED",
            ],
            to: &[
                ("ALLOCATED", None, ContainerAllocated),
                ("ACQUIRED", None, ContainerAcquired),
                ("RUNNING", None, ContainerRmRunning),
                ("COMPLETED", None, ContainerCompleted),
            ],
        },
    ),
    PatternSpec::rule(
        "nm_container_transition",
        Some("ContainerImpl"),
        Family::NodeManager,
        MatchKind::Transition {
            template: "Container {} transitioned from {} to {}",
            subject: Subject::Container,
            // Hadoop's NodeManager-side `ContainerState`.
            states: &[
                "NEW",
                "LOCALIZING",
                "SCHEDULED",
                "RUNNING",
                "DONE",
                "LOCALIZATION_FAILED",
                "EXITED_WITH_FAILURE",
            ],
            to: &[
                ("LOCALIZING", None, ContainerLocalizing),
                ("SCHEDULED", None, ContainerScheduled),
                ("RUNNING", None, ContainerNmRunning),
                ("DONE", None, ContainerDone),
            ],
        },
    ),
    PatternSpec::rule(
        "driver_first_log",
        None,
        Family::Driver,
        MatchKind::Positional(DriverFirstLog),
    ),
    PatternSpec::rule(
        "driver_registered",
        None,
        Family::Driver,
        MatchKind::Prefix("Registered with ResourceManager", DriverRegistered),
    ),
    PatternSpec::rule(
        "start_allo",
        None,
        Family::Driver,
        MatchKind::Prefix("START_ALLO", StartAllo),
    ),
    PatternSpec::rule(
        "end_allo",
        None,
        Family::Driver,
        MatchKind::Prefix("END_ALLO", EndAllo),
    ),
    PatternSpec::rule(
        "spark_app_name",
        None,
        Family::Driver,
        MatchKind::Name("Starting ApplicationMaster for {}"),
    ),
    PatternSpec::rule(
        "executor_first_log",
        None,
        Family::Executor,
        MatchKind::Positional(ExecutorFirstLog),
    ),
    PatternSpec::rule(
        "task_assigned",
        None,
        Family::Executor,
        MatchKind::Prefix("Got assigned task", TaskAssigned),
    ),
];

/// The extraction-rule table.
pub fn patterns() -> &'static [PatternSpec] {
    &PATTERNS
}

/// The row whose rule emits `kind`: which family's lines it reads and,
/// for a transition row, what its id names. A unit test holds every kind
/// to exactly one row.
pub(crate) fn emitter(kind: EventKind) -> Option<&'static PatternSpec> {
    PATTERNS.iter().find(|p| match p.kind {
        MatchKind::Transition { to, .. } => to.iter().any(|&(_, _, k)| k == kind),
        MatchKind::Prefix(_, k) | MatchKind::Positional(k) => k == kind,
        MatchKind::Name(_) => false,
    })
}

/// Whether `family` has a transition row: whether its `unmatched` lines
/// are schema drift. Prefix and positional rows have no alphabet a line
/// could fall outside.
pub(crate) fn has_transitions(family: Family) -> bool {
    PATTERNS
        .iter()
        .any(|p| p.family == family && matches!(p.kind, MatchKind::Transition { .. }))
}

/// Whether `class` is the logger `simple`: whether its last dotted
/// segment is `simple`, which is what every class gate compares. Hadoop's
/// stock layout prints the full name
/// (`org.apache.hadoop.yarn.server.resourcemanager.rmapp.RMAppImpl`), the
/// simulator the simple one; both name the same logger. A suffix compare,
/// as cheap as comparing the whole name: extraction gates every
/// ResourceManager and NodeManager line with it.
pub(crate) fn is_logger(class: &str, simple: &str) -> bool {
    class
        .strip_suffix(simple)
        .is_some_and(|package| package.is_empty() || package.ends_with('.'))
}

/// The state alphabet of the transition row whose class gate `class`
/// passes. A superset of the simulator's enum by design (e.g. `KILLED`
/// appears in real RM logs the simulator never writes).
pub fn state_alphabet(class: &str) -> Option<&'static [&'static str]> {
    PATTERNS.iter().find_map(|p| match p.kind {
        MatchKind::Transition { states, .. } if p.class.is_some_and(|g| is_logger(class, g)) => {
            Some(states)
        }
        _ => None,
    })
}

impl PatternSpec {
    /// A row that a simulator emit site feeds (not `external_only`).
    const fn rule(
        name: &'static str,
        class: Option<&'static str>,
        family: Family,
        kind: MatchKind,
    ) -> PatternSpec {
        PatternSpec {
            name,
            class,
            family,
            kind,
            external_only: false,
            pat: OnceLock::new(),
        }
    }

    /// The rule's template, if it has one.
    pub fn template(&self) -> Option<&'static str> {
        match self.kind {
            MatchKind::Transition { template, .. } | MatchKind::Name(template) => Some(template),
            MatchKind::Prefix(..) | MatchKind::Positional(_) => None,
        }
    }

    /// The template compiled, once per process.
    pub(crate) fn pat(&self) -> Option<&Pat> {
        let template = self.template()?;
        Some(self.pat.get_or_init(|| Pat::new_static(template)))
    }

    /// The one gate-and-shape test of a line, which the extractor and
    /// [`PatternSpec::matches`] share: the template's captures, then
    /// empty strings (a prefix captures nothing), or `None`; always
    /// `None` for a positional rule. Allocates nothing once the template
    /// is compiled.
    pub fn read<'t>(&self, class: &str, message: &'t str) -> Option<[&'t str; 4]> {
        if self.class.is_some_and(|gate| !is_logger(class, gate)) {
            return None;
        }
        match self.kind {
            MatchKind::Prefix(prefix, _) => message.starts_with(prefix).then_some([""; 4]),
            MatchKind::Positional(_) => None,
            MatchKind::Transition { .. } | MatchKind::Name(_) => self.pat()?.match_padded(message),
        }
    }

    /// Whether this rule would fire on `message` logged under `class`
    /// in `family`.
    pub fn matches(&self, family: Family, class: &str, message: &str) -> bool {
        self.family == family && self.read(class, message).is_some()
    }

    /// A human-readable rendering of the matching discipline.
    pub fn kind_text(&self) -> String {
        match (self.template(), self.kind) {
            (Some(t), _) => format!("template {t:?}"),
            (None, MatchKind::Prefix(p, _)) => format!("prefix {p:?}"),
            (None, _) => "positional (first record of stream)".to_string(),
        }
    }
}

/// The first rule of `rules` whose literal text most resembles
/// `message`, with its affinity score in `[0, 1]` — the "did you mean"
/// half of a schema-drift diagnostic. A prefix scores as a template
/// without holes; positional rules never resemble anything.
pub fn closest_pattern<'r>(
    rules: &'r [PatternSpec],
    message: &str,
) -> Option<(&'r PatternSpec, f64)> {
    let mut best: Option<(&PatternSpec, f64)> = None;
    for p in rules {
        let literal = match (p.template(), p.kind) {
            (Some(text), _) | (None, MatchKind::Prefix(text, _)) => text,
            (None, _) => continue,
        };
        let score = template_affinity(literal, message);
        if best.is_none_or(|(_, s)| score > s) {
            best = Some((p, score));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_well_formed() {
        let mut names: Vec<&str> = PATTERNS.iter().map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PATTERNS.len(), "duplicate rule names");
        for p in patterns() {
            if let Some(pat) = p.pat() {
                // Every template compiles (exercises the one panic site)
                // and fits the four slots `read` fills.
                assert!((1..=4).contains(&pat.captures()), "{}", p.name);
            }
        }
    }

    /// Every kind an event can have, with the rule that emits it.
    fn emitted() -> Vec<(&'static str, EventKind)> {
        PATTERNS
            .iter()
            .flat_map(|p| {
                let kinds: Vec<EventKind> = match p.kind {
                    MatchKind::Transition { to, .. } => to.iter().map(|&(_, _, k)| k).collect(),
                    MatchKind::Prefix(_, k) | MatchKind::Positional(k) => vec![k],
                    MatchKind::Name(_) => vec![],
                };
                kinds.into_iter().map(|k| (p.name, k))
            })
            .collect()
    }

    #[test]
    fn every_event_kind_is_emitted_by_exactly_one_entry() {
        let emitted = emitted();
        for kind in EventKind::ALL {
            let rules: Vec<&str> = emitted
                .iter()
                .filter(|&&(_, k)| k == kind)
                .map(|&(rule, _)| rule)
                .collect();
            assert_eq!(rules.len(), 1, "{kind:?} is emitted by {rules:?}");
            assert_eq!(emitter(kind).map(|p| p.name), Some(rules[0]), "{kind:?}");
        }
        assert_eq!(emitted.len(), EventKind::ALL.len());
    }

    #[test]
    fn mapped_states_lie_in_their_alphabets() {
        for p in patterns() {
            if let MatchKind::Transition { states, to, .. } = p.kind {
                for (state, _, kind) in to {
                    assert!(states.contains(state), "{}: {kind:?} at {state}", p.name);
                }
            }
        }
    }

    #[test]
    fn the_first_log_kinds_belong_to_the_positional_rows() {
        let positional: Vec<(Family, EventKind)> = PATTERNS
            .iter()
            .filter_map(|p| match p.kind {
                MatchKind::Positional(k) => Some((p.family, k)),
                _ => None,
            })
            .collect();
        assert_eq!(
            positional,
            [
                (Family::Driver, EventKind::DriverFirstLog),
                (Family::Executor, EventKind::ExecutorFirstLog),
            ]
        );
    }

    #[test]
    fn alphabets_cover_rule_classes() {
        for p in patterns() {
            if let (Some(class), MatchKind::Transition { .. }) = (p.class, p.kind) {
                assert!(state_alphabet(class).is_some(), "{class} has no alphabet");
            }
        }
        assert!(state_alphabet("RMAppImpl").unwrap().contains(&"KILLED"));
        assert!(state_alphabet("NoSuchClass").is_none());
    }

    #[test]
    fn matches_respects_family_and_class_gates() {
        let rm_app = &PATTERNS[0];
        let msg = "app_1 State change from NEW to SUBMITTED on event = START";
        assert!(rm_app.matches(Family::ResourceManager, "RMAppImpl", msg));
        assert!(!rm_app.matches(Family::ResourceManager, "RMAppAttemptImpl", msg));
        assert!(!rm_app.matches(Family::Driver, "RMAppImpl", msg));
        // The gate reads the logger's simple name, however it is printed.
        let full = "org.apache.hadoop.yarn.server.resourcemanager.rmapp.RMAppImpl";
        assert!(rm_app.matches(Family::ResourceManager, full, msg));
        assert!(!rm_app.matches(Family::ResourceManager, "org.example.RMAppImplX", msg));
        assert_eq!(state_alphabet(full), state_alphabet("RMAppImpl"));
        let rm_container = state_alphabet("RMContainerImpl").unwrap();
        assert!(rm_container.contains(&"ACQUIRED") && !rm_container.contains(&"LOCALIZING"));
        assert!(!is_logger("RMContainerImpl", "ContainerImpl"));
    }

    #[test]
    fn closest_pattern_names_near_misses() {
        let (p, score) =
            closest_pattern(&PATTERNS, "c_1 Container Transitioned from NEW to PAUSED").unwrap();
        assert_eq!(p.name, "rm_container_transition");
        assert!(score > 0.9, "{score}");
        let (_, low) = closest_pattern(&PATTERNS, "completely unrelated chatter").unwrap();
        assert!(low < 0.5, "{low}");
        let (p, score) = closest_pattern(&PATTERNS, "START_ALLO Requesting 4").unwrap();
        assert_eq!((p.name, score), ("start_allo", 1.0));
    }

    /// How DESIGN.md § "Extraction rules" states a row.
    fn describe(p: &PatternSpec) -> String {
        let n = |k: EventKind| match k.table1_number() {
            Some(n) => format!("msg {n}"),
            None => "not in Table I".to_string(),
        };
        let event = |k: EventKind| format!("`{}` ({})", k.name(), n(k));
        let emits = match p.kind {
            MatchKind::Transition { to, .. } => to
                .iter()
                .map(|&(state, on, k)| match on {
                    Some(on) => format!("{} at {state} on {on}", event(k)),
                    None => format!("{} at {state}", event(k)),
                })
                .collect::<Vec<_>>()
                .join(", "),
            MatchKind::Prefix(_, k) | MatchKind::Positional(k) => event(k),
            MatchKind::Name(_) => "the application's name, no event".to_string(),
        };
        let class = p
            .class
            .map_or("any class".to_string(), |c| format!("`{c}`"));
        format!(
            "- **{}** ({}, {class}), {}: {emits}",
            p.name,
            p.family.name(),
            p.kind_text()
        )
    }

    #[test]
    fn design_md_states_every_rule() {
        let design = include_str!("../../../DESIGN.md");
        let missing: Vec<String> = PATTERNS
            .iter()
            .map(describe)
            .filter(|bullet| !design.lines().any(|l| l == bullet))
            .collect();
        assert!(
            missing.is_empty(),
            "DESIGN.md lacks:\n{}",
            missing.join("\n")
        );
    }
}
