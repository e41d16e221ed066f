//! The cluster side of the emitter↔parser contract: every log-message
//! shape `yarnsim` can emit, and its three state machines, as
//! introspectable data.
//!
//! Every line the cluster writes renders through these templates (the
//! three transitions in [`Line::into_parts`](crate::effects::Line::into_parts),
//! the rest at their emit sites in [`cluster`](crate::cluster)), so the
//! table *is* the vocabulary — a template edited here changes the logs,
//! and `sdlint` cross-checks the table against `sdchecker`'s pattern
//! table so the analyzer can never silently fall out of sync.

use logmodel::schema::{Disposition, Family, MachineSpec, MsgTemplate};

use crate::state::{NmContainerState, RmAppState, RmContainerState};

/// `RMAppImpl` state change (Table I messages 1–3 and the terminal
/// transitions). Captures: app id, from-state, to-state, event.
pub(crate) const RM_APP_STATE_CHANGE: MsgTemplate = MsgTemplate {
    name: "rm_app_state_change",
    class: "RMAppImpl",
    family: Family::ResourceManager,
    template: "{} State change from {} to {} on event = {}",
    disposition: Disposition::Event,
    file: "crates/yarnsim/src/effects.rs",
};

/// `RMContainerImpl` transition (Table I messages 4–5). Captures:
/// container id, from-state, to-state.
pub(crate) const RM_CONTAINER_TRANSITION: MsgTemplate = MsgTemplate {
    name: "rm_container_transition",
    class: "RMContainerImpl",
    family: Family::ResourceManager,
    template: "{} Container Transitioned from {} to {}",
    disposition: Disposition::Event,
    file: "crates/yarnsim/src/effects.rs",
};

/// NM `ContainerImpl` transition (Table I messages 6–8). Captures:
/// container id, from-state, to-state.
pub(crate) const NM_CONTAINER_TRANSITION: MsgTemplate = MsgTemplate {
    name: "nm_container_transition",
    class: "ContainerImpl",
    family: Family::NodeManager,
    template: "Container {} transitioned from {} to {}",
    disposition: Disposition::Event,
    file: "crates/yarnsim/src/effects.rs",
};

/// `RMAppAttemptImpl` attempt failure (AM retry vocabulary). Capture:
/// attempt id. Deliberately *not* parsed: sdchecker anchors retries on
/// the `RMAppImpl` bounce back to ACCEPTED instead.
pub(crate) const RM_ATTEMPT_FAILED: MsgTemplate = MsgTemplate {
    name: "rm_attempt_failed",
    class: "RMAppAttemptImpl",
    family: Family::ResourceManager,
    template: "{} State change from LAUNCHED to FAILED on event = CONTAINER_FINISHED",
    disposition: Disposition::Noise,
    file: "crates/yarnsim/src/cluster.rs",
};

/// `RMNodeImpl` node-loss notice. Capture: node id.
pub(crate) const RM_NODE_LOST: MsgTemplate = MsgTemplate {
    name: "rm_node_lost",
    class: "RMNodeImpl",
    family: Family::ResourceManager,
    template: "Deactivating Node {} as it is now LOST",
    disposition: Disposition::Noise,
    file: "crates/yarnsim/src/cluster.rs",
};

/// NM localization-failure notice (the `LOCALIZATION_FAILED` transition
/// carries the parsed evidence; this line is context). Capture:
/// container id.
pub(crate) const NM_LOCALIZER_FAILED: MsgTemplate = MsgTemplate {
    name: "nm_localizer_failed",
    class: "ResourceLocalizationService",
    family: Family::NodeManager,
    template: "Localizer failed for {}",
    disposition: Disposition::Noise,
    file: "crates/yarnsim/src/cluster.rs",
};

/// NM launch-failure notice (the `EXITED_WITH_FAILURE` transition
/// carries the parsed evidence). Capture: container id.
pub(crate) const NM_LAUNCH_FAILED: MsgTemplate = MsgTemplate {
    name: "nm_launch_failed",
    class: "ContainerLaunch",
    family: Family::NodeManager,
    template: "Container exited with a non-zero exit code 1: {}",
    disposition: Disposition::Noise,
    file: "crates/yarnsim/src/cluster.rs",
};

/// Every message shape the cluster can write, in one table.
pub const EMITTED: [MsgTemplate; 7] = [
    RM_APP_STATE_CHANGE,
    RM_CONTAINER_TRANSITION,
    NM_CONTAINER_TRANSITION,
    RM_ATTEMPT_FAILED,
    RM_NODE_LOST,
    NM_LOCALIZER_FAILED,
    NM_LAUNCH_FAILED,
];

/// The emitted-template table (the cluster half; `sparksim::schema`
/// holds the application half).
pub fn emitted_templates() -> &'static [MsgTemplate] {
    &EMITTED
}

fn machine_of<S: Copy + std::fmt::Display>(
    name: &'static str,
    states: &[S],
    names: Vec<&'static str>,
    initial: usize,
    terminal: impl Fn(S) -> bool,
    can_go: impl Fn(S, S) -> bool,
) -> MachineSpec {
    MachineSpec {
        name,
        states: names,
        initial,
        terminal: states.iter().map(|s| terminal(*s)).collect(),
        can_go: states
            .iter()
            .map(|a| states.iter().map(|b| can_go(*a, *b)).collect())
            .collect(),
    }
}

/// The three logged state machines, reified from the enums' `can_go`
/// relations (so the spec can never drift from the code).
pub fn machines() -> Vec<MachineSpec> {
    vec![
        machine_of(
            "RMAppImpl",
            &RmAppState::ALL,
            RmAppState::ALL.iter().map(|s| s.as_str()).collect(),
            0,
            RmAppState::is_terminal,
            RmAppState::can_go,
        ),
        machine_of(
            "RMContainerImpl",
            &RmContainerState::ALL,
            RmContainerState::ALL.iter().map(|s| s.as_str()).collect(),
            0,
            RmContainerState::is_terminal,
            RmContainerState::can_go,
        ),
        machine_of(
            "ContainerImpl",
            &NmContainerState::ALL,
            NmContainerState::ALL.iter().map(|s| s.as_str()).collect(),
            0,
            NmContainerState::is_terminal,
            NmContainerState::can_go,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_are_well_formed() {
        for t in emitted_templates() {
            assert!(!t.name.is_empty());
            assert!(!t.template.contains("{}{}"), "{}", t.name);
            assert!(t.holes() >= 1, "{}", t.name);
        }
        // Names are unique.
        let mut names: Vec<&str> = EMITTED.iter().map(|t| t.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EMITTED.len());
    }

    #[test]
    fn templates_render_the_historical_phrasings() {
        assert_eq!(
            RM_APP_STATE_CHANGE.msg(&[
                &"application_1_0001",
                &"SUBMITTED",
                &"ACCEPTED",
                &"APP_ACCEPTED"
            ]),
            "application_1_0001 State change from SUBMITTED to ACCEPTED on event = APP_ACCEPTED"
        );
        assert_eq!(
            NM_CONTAINER_TRANSITION.msg(&[&"container_1_0001_01_000002", &"NEW", &"LOCALIZING"]),
            "Container container_1_0001_01_000002 transitioned from NEW to LOCALIZING"
        );
    }

    #[test]
    fn machines_mirror_the_enums() {
        let ms = machines();
        assert_eq!(ms.len(), 3);
        let rm_app = &ms[0];
        assert_eq!(rm_app.states[rm_app.initial], "NEW");
        assert!(rm_app.legal("SUBMITTED", "ACCEPTED"));
        assert!(!rm_app.legal("NEW", "RUNNING"));
        assert!(rm_app.terminal[rm_app.index_of("FINISHED").unwrap()]);
        assert!(rm_app.terminal[rm_app.index_of("FAILED").unwrap()]);
        let nm = &ms[2];
        assert!(nm.legal("LOCALIZING", "LOCALIZATION_FAILED"));
        assert!(nm.terminal[nm.index_of("DONE").unwrap()]);
        // Every state is reachable and non-terminal states have exits.
        for m in &ms {
            assert!(m.reachable().iter().all(|r| *r), "{}", m.name);
        }
    }
}
