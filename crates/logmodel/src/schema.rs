//! The shared log-vocabulary types of the emitter↔parser contract.
//!
//! SDchecker's premise is that scheduler logs are a reliable mirror of
//! the state machines that emit them (paper §III-A / Table I). That only
//! holds while the *emitters* (`yarnsim`, `sparksim`) and the *parser*
//! (`sdchecker`) agree on every message shape — and that agreement used
//! to be implicit: a string in a `format!` here, a pattern literal there.
//!
//! This module reifies the contract. Emitting crates export their
//! message vocabulary as [`MsgTemplate`] tables and their state machines
//! as [`MachineSpec`]s; the parser exports its pattern table; and the
//! `sdlint` crate cross-checks the two statically. The types live in
//! `logmodel` because it is the one crate both sides already depend on.

use std::fmt;

/// Which log family a message is written to (mirrors the four stream
/// families of the corpus layout).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Family {
    /// `resourcemanager.log`.
    ResourceManager,
    /// `nodemanager-node*.log`.
    NodeManager,
    /// `apps/<appId>/driver.log`.
    Driver,
    /// `apps/<appId>/executor-*.log`.
    Executor,
}

impl Family {
    /// Every family, in declaration (and corpus-layout) order.
    pub const ALL: [Family; 4] = [
        Family::ResourceManager,
        Family::NodeManager,
        Family::Driver,
        Family::Executor,
    ];

    /// Stable display name (matches `sdchecker`'s coverage labels).
    pub fn name(self) -> &'static str {
        match self {
            Family::ResourceManager => "resourcemanager",
            Family::NodeManager => "nodemanager",
            Family::Driver => "driver",
            Family::Executor => "executor",
        }
    }
}

/// What the extraction rules are expected to do with a template.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Scheduling-relevant: exactly one extractor pattern must match it
    /// (no misses, no shadowing).
    Event,
    /// Scheduling-relevant but consumed by a *positional* rule (the
    /// paper's "first log message marks the successful launching" trick,
    /// §III-B): no shape-based pattern may match it, and its family must
    /// carry a positional rule.
    Positional,
    /// Realism/noise: no shape-based extractor pattern may match it
    /// (a match would mean noise is being misread as evidence).
    Noise,
}

/// One message template an emitter can write: literal text with `{}`
/// capture holes, bound to its log4j class and log family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgTemplate {
    /// Stable identifier used in diagnostics (e.g. `rm_app_state_change`).
    pub name: &'static str,
    /// The log4j class the message is logged under.
    pub class: &'static str,
    /// Which log family the message is written to.
    pub family: Family,
    /// The message shape: literal text with `{}` holes.
    pub template: &'static str,
    /// What the parser is expected to do with it.
    pub disposition: Disposition,
    /// The source file of the emit site (diagnostics).
    pub file: &'static str,
}

impl MsgTemplate {
    /// Byte offsets of the template's `{}` holes, left to right: where
    /// `split("{}")` would cut, found by a byte scan instead of a
    /// substring searcher built per call.
    fn hole_offsets(&self) -> impl Iterator<Item = usize> + '_ {
        let b = self.template.as_bytes();
        let mut i = 0;
        std::iter::from_fn(move || {
            while i + 1 < b.len() {
                let at = i;
                i += 1;
                if b[at] == b'{' && b[at + 1] == b'}' {
                    i += 1;
                    return Some(at);
                }
            }
            None
        })
    }

    /// Number of `{}` holes in the template.
    pub fn holes(&self) -> usize {
        self.hole_offsets().count()
    }

    /// Render the template with concrete values, one per hole.
    ///
    /// Arity mismatches are a programming error caught by
    /// `debug_assert` (and by `sdlint`'s bounded model check, which
    /// exercises every emit site under test builds); in release builds
    /// extra values are dropped and missing ones render as empty.
    pub fn msg(&self, args: &[&dyn fmt::Display]) -> String {
        debug_assert_eq!(
            args.len(),
            self.holes(),
            "template {} takes {} values",
            self.name,
            self.holes()
        );
        let mut out = String::with_capacity(self.template.len() + 16 * args.len());
        let mut args = args.iter();
        let mut from = 0;
        for at in self.hole_offsets() {
            // `{` and `}` are ASCII, so both cuts are char boundaries.
            out.push_str(&self.template[from..at]);
            if let Some(a) = args.next() {
                use fmt::Write as _;
                let _ = write!(out, "{a}");
            }
            from = at + 2;
        }
        out.push_str(&self.template[from..]);
        out
    }

    /// Render with placeholder values (`x0`, `x1`, ...) — the sample
    /// instantiation `sdlint` uses for shape conformance checks.
    pub fn sample(&self) -> String {
        let vals: Vec<String> = (0..self.holes()).map(|i| format!("x{i}")).collect();
        let refs: Vec<&dyn fmt::Display> = vals.iter().map(|v| v as &dyn fmt::Display).collect();
        self.msg(&refs)
    }
}

/// A state machine reified as data: states (by display name), the
/// initial state, the terminal set, and the legal-transition matrix.
/// Emitting crates build these from their state enums so checkers can
/// analyze reachability and dead-ends without generics over the enums.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineSpec {
    /// The log4j class whose transitions this machine logs
    /// (e.g. `RMAppImpl`).
    pub name: &'static str,
    /// All states, by display name (log spelling).
    pub states: Vec<&'static str>,
    /// Index of the initial state in `states`.
    pub initial: usize,
    /// `terminal[i]` — whether `states[i]` is terminal.
    pub terminal: Vec<bool>,
    /// `can_go[i][j]` — whether `states[i] → states[j]` is legal.
    pub can_go: Vec<Vec<bool>>,
}

impl MachineSpec {
    /// Index of a state by display name.
    pub fn index_of(&self, state: &str) -> Option<usize> {
        self.states.iter().position(|s| *s == state)
    }

    /// Whether the named transition is legal.
    pub fn legal(&self, from: &str, to: &str) -> bool {
        match (self.index_of(from), self.index_of(to)) {
            (Some(f), Some(t)) => self.can_go[f][t],
            _ => false,
        }
    }

    /// All states reachable from the initial state.
    pub fn reachable(&self) -> Vec<bool> {
        let n = self.states.len();
        let mut seen = vec![false; n];
        let mut stack = vec![self.initial];
        seen[self.initial] = true;
        while let Some(i) = stack.pop() {
            for (j, reach) in seen.iter_mut().enumerate() {
                if self.can_go[i][j] && !*reach {
                    *reach = true;
                    stack.push(j);
                }
            }
        }
        seen
    }
}

/// How strongly `message` resembles a `{}`-holed template: the fraction
/// of the template's literal text found in the message, in order
/// (1.0 = every literal segment present — the message differs only in
/// its captured values). This is the near-miss score behind "this
/// unmatched line resembles template X".
pub fn template_affinity(template: &str, message: &str) -> f64 {
    let mut literal_len = 0usize;
    let mut found_len = 0usize;
    let mut rest = message;
    for part in template.split("{}") {
        if part.is_empty() {
            continue;
        }
        literal_len += part.len();
        if let Some(pos) = rest.find(part) {
            found_len += part.len();
            rest = &rest[pos + part.len()..];
        }
    }
    if literal_len == 0 {
        return 0.0;
    }
    found_len as f64 / literal_len as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: MsgTemplate = MsgTemplate {
        name: "t",
        class: "C",
        family: Family::ResourceManager,
        template: "{} State change from {} to {} on event = {}",
        disposition: Disposition::Event,
        file: "schema.rs",
    };

    #[test]
    fn holes_and_msg_round_trip_format() {
        assert_eq!(T.holes(), 4);
        let got = T.msg(&[&"app_1_0001", &"SUBMITTED", &"ACCEPTED", &"APP_ACCEPTED"]);
        assert_eq!(
            got,
            "app_1_0001 State change from SUBMITTED to ACCEPTED on event = APP_ACCEPTED"
        );
    }

    #[test]
    fn sample_fills_placeholders() {
        assert_eq!(T.sample(), "x0 State change from x1 to x2 on event = x3");
        let no_holes = MsgTemplate {
            template: "just text",
            ..T
        };
        assert_eq!(no_holes.sample(), "just text");
    }

    #[test]
    fn trailing_hole_renders() {
        let t = MsgTemplate {
            template: "Localizer failed for {}",
            ..T
        };
        assert_eq!(t.holes(), 1);
        assert_eq!(
            t.msg(&[&"container_1_0001_01_000001"]),
            "Localizer failed for container_1_0001_01_000001"
        );
    }

    #[test]
    fn machine_spec_reachability_and_legality() {
        // A ─→ B ─→ C(terminal); D unreachable.
        let m = MachineSpec {
            name: "M",
            states: vec!["A", "B", "C", "D"],
            initial: 0,
            terminal: vec![false, false, true, false],
            can_go: vec![
                vec![false, true, false, false],
                vec![false, false, true, false],
                vec![false, false, false, false],
                vec![false, false, true, false],
            ],
        };
        assert!(m.legal("A", "B"));
        assert!(!m.legal("A", "C"));
        assert!(!m.legal("A", "NOPE"));
        assert_eq!(m.reachable(), vec![true, true, true, false]);
    }

    #[test]
    fn affinity_scores_near_misses_high() {
        let tpl = "Container {} transitioned from {} to {}";
        assert_eq!(
            template_affinity(tpl, "Container c_9 transitioned from NEW to PAUSED"),
            1.0
        );
        assert!(template_affinity(tpl, "Re-sorting assigned queue") < 0.2);
        // Out-of-order literals don't count.
        assert!(template_affinity("a {} b", "b then a") < 1.0);
        assert_eq!(template_affinity("{}", "anything"), 0.0);
    }
}
