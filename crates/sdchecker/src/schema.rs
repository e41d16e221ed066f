//! The parser side of the emitter↔parser contract: every extraction
//! rule of [`crate::extract`], reified as an introspectable table.
//!
//! The [`Extractor`](crate::extract::Extractor) compiles its `Pat`s and
//! takes its prefixes from this table; its class gates and its dispatch
//! by log family are code of its own. `sdlint` cross-checks the table
//! against the emitter tables (`yarnsim::schema`, `sparksim::schema`) to
//! prove every emitted shape lands on exactly one rule, and one of its
//! tests pushes every emitted template through the running pipeline and
//! requires it to fire exactly where [`PatternSpec::matches`] says — so
//! the table `sdlint` checks is the rule set that runs, gates included.

use logmodel::schema::{template_affinity, Family};

use crate::extract::{NM_CONTAINER_STATES, RM_APP_STATES, RM_CONTAINER_STATES};

/// Template of the `rm_app_transition` rule (Table I messages 1-3).
pub const RM_APP_TEMPLATE: &str = "{} State change from {} to {} on event = {}";
/// Template of the `rm_container_transition` rule (messages 4-5).
pub const RM_CONTAINER_TEMPLATE: &str = "{} Container Transitioned from {} to {}";
/// Template of the `nm_container_transition` rule (messages 6-8).
pub const NM_CONTAINER_TEMPLATE: &str = "Container {} transitioned from {} to {}";
/// Template of the `spark_app_name` rule (workload-label banner).
pub(crate) const SPARK_APP_NAME_TEMPLATE: &str = "Starting ApplicationMaster for {}";
/// Prefix of the `driver_registered` rule (message 10).
pub(crate) const DRIVER_REGISTERED_PREFIX: &str = "Registered with ResourceManager";
/// Prefix of the `start_allo` rule (message 11).
pub(crate) const START_ALLO_PREFIX: &str = "START_ALLO";
/// Prefix of the `end_allo` rule (message 12).
pub(crate) const END_ALLO_PREFIX: &str = "END_ALLO";
/// Prefix of the `task_assigned` rule (message 14).
pub(crate) const TASK_ASSIGNED_PREFIX: &str = "Got assigned task";

/// How a rule decides that a log line is scheduling-relevant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchKind {
    /// Shape match: literal text with `{}` capture holes
    /// (compiled to a [`crate::pattern::Pat`], anchored both ends).
    Template(&'static str),
    /// The message starts with a literal prefix.
    Prefix(&'static str),
    /// The first record of a stream, regardless of content (§III-B:
    /// "we use the first log message to mark the successful launching").
    Positional,
}

/// One extraction rule: where it applies and how it matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatternSpec {
    /// Stable identifier used in diagnostics.
    pub name: &'static str,
    /// log4j class gate (`None` = the rule ignores the class column,
    /// as the driver/executor prefix rules do).
    pub class: Option<&'static str>,
    /// The log family the rule reads.
    pub family: Family,
    /// The matching discipline.
    pub kind: MatchKind,
    /// `true` for rules kept for real-world corpora that no simulator
    /// emit site produces. Every other rule must have an emitter —
    /// `sdlint` flags dead rules that lack this annotation.
    pub external_only: bool,
}

/// The complete extraction-rule table, in the order the extractor
/// consults them.
pub(crate) const PATTERNS: [PatternSpec; 10] = [
    PatternSpec {
        name: "rm_app_transition",
        class: Some("RMAppImpl"),
        family: Family::ResourceManager,
        kind: MatchKind::Template(RM_APP_TEMPLATE),
        external_only: false,
    },
    PatternSpec {
        name: "rm_container_transition",
        class: Some("RMContainerImpl"),
        family: Family::ResourceManager,
        kind: MatchKind::Template(RM_CONTAINER_TEMPLATE),
        external_only: false,
    },
    PatternSpec {
        name: "nm_container_transition",
        class: Some("ContainerImpl"),
        family: Family::NodeManager,
        kind: MatchKind::Template(NM_CONTAINER_TEMPLATE),
        external_only: false,
    },
    PatternSpec {
        name: "driver_first_log",
        class: None,
        family: Family::Driver,
        kind: MatchKind::Positional,
        external_only: false,
    },
    PatternSpec {
        name: "driver_registered",
        class: None,
        family: Family::Driver,
        kind: MatchKind::Prefix(DRIVER_REGISTERED_PREFIX),
        external_only: false,
    },
    PatternSpec {
        name: "start_allo",
        class: None,
        family: Family::Driver,
        kind: MatchKind::Prefix(START_ALLO_PREFIX),
        external_only: false,
    },
    PatternSpec {
        name: "end_allo",
        class: None,
        family: Family::Driver,
        kind: MatchKind::Prefix(END_ALLO_PREFIX),
        external_only: false,
    },
    PatternSpec {
        name: "spark_app_name",
        class: None,
        family: Family::Driver,
        kind: MatchKind::Template(SPARK_APP_NAME_TEMPLATE),
        external_only: false,
    },
    PatternSpec {
        name: "executor_first_log",
        class: None,
        family: Family::Executor,
        kind: MatchKind::Positional,
        external_only: false,
    },
    PatternSpec {
        name: "task_assigned",
        class: None,
        family: Family::Executor,
        kind: MatchKind::Prefix(TASK_ASSIGNED_PREFIX),
        external_only: false,
    },
];

/// The extraction-rule table.
pub fn patterns() -> &'static [PatternSpec] {
    &PATTERNS
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

/// The state alphabets the transition rules recognize, keyed by the
/// rule's class gate. Supersets of the simulator's enums by design
/// (e.g. `KILLED` appears in real RM logs the simulator never writes).
pub fn state_alphabet(class: &str) -> Option<&'static [&'static str]> {
    [
        ("RMAppImpl", RM_APP_STATES),
        ("RMContainerImpl", RM_CONTAINER_STATES),
        ("ContainerImpl", NM_CONTAINER_STATES),
    ]
    .into_iter()
    .find(|(gate, _)| is_logger(class, gate))
    .map(|(_, states)| states)
}

impl PatternSpec {
    /// Whether this rule matches on message shape (as opposed to
    /// position in the stream).
    pub fn is_shape_based(&self) -> bool {
        !matches!(self.kind, MatchKind::Positional)
    }

    /// Whether this rule would fire on `message` logged under `class`
    /// in `family` (positional rules never fire here — they look at
    /// stream position, not content).
    pub fn matches(&self, family: Family, class: &str, message: &str) -> bool {
        if self.family != family {
            return false;
        }
        if self.class.is_some_and(|gate| !is_logger(class, gate)) {
            return false;
        }
        match self.kind {
            MatchKind::Template(t) => crate::pattern::Pat::new_static(t).is_match(message),
            MatchKind::Prefix(p) => message.starts_with(p),
            MatchKind::Positional => false,
        }
    }

    /// A human-readable rendering of the matching discipline.
    pub fn kind_text(&self) -> String {
        match self.kind {
            MatchKind::Template(t) => format!("template {t:?}"),
            MatchKind::Prefix(p) => format!("prefix {p:?}"),
            MatchKind::Positional => "positional (first record of stream)".to_string(),
        }
    }
}

/// The shape-based rule whose literal text most resembles `message`,
/// with its affinity score in `[0, 1]` — the "did you mean" half of a
/// schema-drift diagnostic. Prefix rules score by their prefix;
/// positional rules never resemble anything.
pub(crate) fn closest_pattern(message: &str) -> Option<(&'static PatternSpec, f64)> {
    let mut best: Option<(&'static PatternSpec, f64)> = None;
    for p in &PATTERNS {
        let score = match p.kind {
            MatchKind::Template(t) => template_affinity(t, message),
            MatchKind::Prefix(pre) => {
                if message.starts_with(pre) {
                    1.0
                } else {
                    template_affinity(pre, message)
                }
            }
            MatchKind::Positional => continue,
        };
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
            if let MatchKind::Template(t) = p.kind {
                // Every template compiles (exercises the one panic site).
                let pat = crate::pattern::Pat::new_static(t);
                assert!(pat.captures() >= 1, "{}", p.name);
            }
        }
    }

    #[test]
    fn alphabets_cover_rule_classes() {
        for p in patterns() {
            if let (Some(class), MatchKind::Template(_)) = (p.class, p.kind) {
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
        assert_eq!(state_alphabet("RMContainerImpl"), Some(RM_CONTAINER_STATES));
        assert!(!is_logger("RMContainerImpl", "ContainerImpl"));
    }

    #[test]
    fn closest_pattern_names_near_misses() {
        let (p, score) = closest_pattern("c_1 Container Transitioned from NEW to PAUSED").unwrap();
        assert_eq!(p.name, "rm_container_transition");
        assert!(score > 0.9, "{score}");
        let (_, low) = closest_pattern("completely unrelated chatter").unwrap();
        assert!(low < 0.5, "{low}");
    }
}
