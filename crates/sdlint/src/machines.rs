//! Checker 2a: exhaustive analysis of the reified state machines.
//!
//! Works on [`MachineSpec`] data (built by `yarnsim::schema::machines`
//! from the enums' real `can_go` relations, so the spec cannot drift
//! from the code): every state reachable from the initial state, no
//! non-terminal dead-ends, no exits out of terminal states — and the
//! machine's log vocabulary must sit inside the extractor's state
//! alphabet, or transitions would be reported as schema drift.

use logmodel::schema::MachineSpec;

use crate::Finding;

const CHECKER: &str = "machines";

/// Verify one machine spec.
pub(crate) fn check_machine(m: &MachineSpec) -> Vec<Finding> {
    let mut findings = Vec::new();
    let n = m.states.len();

    if m.initial >= n || m.terminal.len() != n || m.can_go.len() != n {
        findings.push(Finding::new(
            CHECKER,
            format!("machine {} has inconsistent spec dimensions", m.name),
        ));
        return findings;
    }

    let reachable = m.reachable();
    for (i, state) in m.states.iter().enumerate() {
        let exits = (0..n).filter(|&j| m.can_go[i][j] && j != i).count();
        if !reachable[i] {
            findings.push(Finding::new(
                CHECKER,
                format!(
                    "machine {}: state {state} is unreachable from initial state {}",
                    m.name, m.states[m.initial]
                ),
            ));
        }
        if m.terminal[i] && exits > 0 {
            findings.push(Finding::new(
                CHECKER,
                format!(
                    "machine {}: terminal state {state} has {exits} outgoing transitions",
                    m.name
                ),
            ));
        }
        if !m.terminal[i] && exits == 0 {
            findings.push(Finding::new(
                CHECKER,
                format!(
                    "machine {}: non-terminal state {state} is a dead end (no exits)",
                    m.name
                ),
            ));
        }
    }

    // Some terminal state must be reachable, or every run of the machine
    // is an infinite loop.
    if !(0..n).any(|i| m.terminal[i] && reachable[i]) {
        findings.push(Finding::new(
            CHECKER,
            format!("machine {}: no terminal state is reachable", m.name),
        ));
    }

    // Every state the machine can log must be in the extractor's
    // alphabet for the machine's class (the alphabet may be a superset —
    // real logs contain states the simulator never emits, e.g. KILLED).
    match sdchecker::schema::state_alphabet(m.name) {
        None => findings.push(Finding::new(
            CHECKER,
            format!(
                "machine {} has no extractor state alphabet — its transitions \
                 would all be reported as schema drift",
                m.name
            ),
        )),
        Some(alphabet) => {
            for state in &m.states {
                if !alphabet.contains(state) {
                    findings.push(Finding::new(
                        CHECKER,
                        format!(
                            "machine {}: state {state} is outside the extractor's \
                             alphabet — its transitions would count as unmatched",
                            m.name
                        ),
                    ));
                }
            }
        }
    }

    findings
}

/// Verify a set of machine specs.
pub fn check(machines: &[MachineSpec]) -> Vec<Finding> {
    machines.iter().flat_map(check_machine).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_machines_verify() {
        let findings = check(&yarnsim::schema::machines());
        assert!(findings.is_empty(), "{findings:#?}");
    }

    #[test]
    fn unreachable_state_is_flagged() {
        let mut m = yarnsim::schema::machines().remove(0);
        // Orphan a state by cutting every edge into it.
        let idx = m.index_of("RUNNING").unwrap();
        for row in &mut m.can_go {
            row[idx] = false;
        }
        let findings = check_machine(&m);
        assert!(
            findings
                .iter()
                .any(|f| f.message.contains("RUNNING") && f.message.contains("unreachable")),
            "{findings:#?}"
        );
    }

    #[test]
    fn terminal_exit_is_flagged() {
        let mut m = yarnsim::schema::machines().remove(0);
        let fin = m.index_of("FINISHED").unwrap();
        let new = m.index_of("NEW").unwrap();
        m.can_go[fin][new] = true;
        let findings = check_machine(&m);
        assert!(
            findings
                .iter()
                .any(|f| f.message.contains("terminal state FINISHED")),
            "{findings:#?}"
        );
    }
}
