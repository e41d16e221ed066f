//! YARN-style state machines with transition logging.
//!
//! YARN models each scheduling entity as a state machine and logs every
//! transition (paper §III-A) — that is the very property SDchecker mines.
//! This module reproduces the three machines SDchecker cares about
//! (`RMAppImpl`, `RMContainerImpl`, `ContainerImpl`) with their legal
//! transition sets. Each transition is written as a typed [`Line`], which
//! renders in the exact log phrasing of the respective daemon.

use logmodel::{ApplicationId, ContainerId, LogSource, NodeId};
use simkit::Millis;
use std::fmt;

use crate::effects::{Line, Out, What};

/// `RMAppImpl` states (ResourceManager's view of an application).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RmAppState {
    /// Just created.
    New,
    /// Being persisted to the RM state store.
    NewSaving,
    /// Persisted; visible to the scheduler. **Log message 1.**
    Submitted,
    /// Admitted by the scheduler; AM container pending. **Log message 2.**
    Accepted,
    /// AM registered (event `ATTEMPT_REGISTERED`). **Log message 3.**
    Running,
    /// Final state being persisted.
    FinalSaving,
    /// Unregistered, waiting for container cleanup.
    Finishing,
    /// Done.
    Finished,
    /// Terminal failure: every AM attempt failed.
    Failed,
}

impl fmt::Display for RmAppState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl RmAppState {
    /// Every state, in lifecycle order (`ALL[0]` is the initial state).
    pub const ALL: [RmAppState; 9] = [
        RmAppState::New,
        RmAppState::NewSaving,
        RmAppState::Submitted,
        RmAppState::Accepted,
        RmAppState::Running,
        RmAppState::FinalSaving,
        RmAppState::Finishing,
        RmAppState::Finished,
        RmAppState::Failed,
    ];

    /// The log spelling of the state.
    pub fn as_str(self) -> &'static str {
        match self {
            RmAppState::New => "NEW",
            RmAppState::NewSaving => "NEW_SAVING",
            RmAppState::Submitted => "SUBMITTED",
            RmAppState::Accepted => "ACCEPTED",
            RmAppState::Running => "RUNNING",
            RmAppState::FinalSaving => "FINAL_SAVING",
            RmAppState::Finishing => "FINISHING",
            RmAppState::Finished => "FINISHED",
            RmAppState::Failed => "FAILED",
        }
    }

    /// Whether the application can never progress again.
    pub fn is_terminal(self) -> bool {
        matches!(self, RmAppState::Finished | RmAppState::Failed)
    }

    /// Legal next states. `Running → Accepted` is YARN's AM-retry path
    /// (event `ATTEMPT_FAILED` with attempts remaining);
    /// `Accepted/Running → FinalSaving → Failed` is attempt exhaustion.
    pub fn can_go(self, to: RmAppState) -> bool {
        use RmAppState::*;
        matches!(
            (self, to),
            (New, NewSaving)
                | (NewSaving, Submitted)
                | (Submitted, Accepted)
                | (Accepted, Running)
                | (Running, FinalSaving)
                | (FinalSaving, Finishing)
                | (Finishing, Finished)
                | (Running, Accepted)
                | (Accepted, FinalSaving)
                | (FinalSaving, Failed)
        )
    }
}

/// `RMContainerImpl` states (ResourceManager's view of a container).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RmContainerState {
    /// Created by the scheduler.
    New,
    /// Assigned to a node. **Log message 4.**
    Allocated,
    /// Pulled by the AppMaster via heartbeat. **Log message 5.**
    Acquired,
    /// Reported running by the NM.
    Running,
    /// Finished or released.
    Completed,
    /// Forcibly terminated (node loss, attempt cleanup).
    Killed,
}

impl fmt::Display for RmContainerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl RmContainerState {
    /// Every state, in lifecycle order (`ALL[0]` is the initial state).
    pub const ALL: [RmContainerState; 6] = [
        RmContainerState::New,
        RmContainerState::Allocated,
        RmContainerState::Acquired,
        RmContainerState::Running,
        RmContainerState::Completed,
        RmContainerState::Killed,
    ];

    /// The log spelling of the state.
    pub fn as_str(self) -> &'static str {
        match self {
            RmContainerState::New => "NEW",
            RmContainerState::Allocated => "ALLOCATED",
            RmContainerState::Acquired => "ACQUIRED",
            RmContainerState::Running => "RUNNING",
            RmContainerState::Completed => "COMPLETED",
            RmContainerState::Killed => "KILLED",
        }
    }

    /// Whether the container can never run again.
    pub fn is_terminal(self) -> bool {
        matches!(self, RmContainerState::Completed | RmContainerState::Killed)
    }

    /// Legal next states. `Allocated → Completed` covers the
    /// never-acquired containers of the SPARK-21562 bug; `Acquired →
    /// Completed` covers cancelled-before-running. Any live state may go
    /// to `Killed` (node loss, failed-attempt cleanup).
    pub fn can_go(self, to: RmContainerState) -> bool {
        use RmContainerState::*;
        matches!(
            (self, to),
            (New, Allocated)
                | (Allocated, Acquired)
                | (Acquired, Running)
                | (Running, Completed)
                | (Allocated, Completed)
                | (Acquired, Completed)
                | (Allocated, Killed)
                | (Acquired, Killed)
                | (Running, Killed)
        )
    }
}

/// `ContainerImpl` states (NodeManager's view of a container).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NmContainerState {
    /// startContainer received.
    New,
    /// Downloading localization resources. **Log message 6.**
    Localizing,
    /// Localized; queued for the launcher. **Log message 7.**
    Scheduled,
    /// Launch script invoked. **Log message 8.**
    Running,
    /// Process exited.
    Done,
    /// Resource download failed.
    LocalizationFailed,
    /// Process exited with a non-zero code.
    ExitedWithFailure,
}

impl fmt::Display for NmContainerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl NmContainerState {
    /// Every state, in lifecycle order (`ALL[0]` is the initial state).
    pub const ALL: [NmContainerState; 7] = [
        NmContainerState::New,
        NmContainerState::Localizing,
        NmContainerState::Scheduled,
        NmContainerState::Running,
        NmContainerState::Done,
        NmContainerState::LocalizationFailed,
        NmContainerState::ExitedWithFailure,
    ];

    /// The log spelling of the state.
    pub fn as_str(self) -> &'static str {
        match self {
            NmContainerState::New => "NEW",
            NmContainerState::Localizing => "LOCALIZING",
            NmContainerState::Scheduled => "SCHEDULED",
            NmContainerState::Running => "RUNNING",
            NmContainerState::Done => "DONE",
            NmContainerState::LocalizationFailed => "LOCALIZATION_FAILED",
            NmContainerState::ExitedWithFailure => "EXITED_WITH_FAILURE",
        }
    }

    /// Whether the container's lifecycle is over.
    pub fn is_terminal(self) -> bool {
        matches!(self, NmContainerState::Done)
    }

    /// Legal next states, including the two failure exits
    /// (`LOCALIZING → LOCALIZATION_FAILED → DONE`,
    /// `RUNNING → EXITED_WITH_FAILURE → DONE`).
    pub fn can_go(self, to: NmContainerState) -> bool {
        use NmContainerState::*;
        matches!(
            (self, to),
            (New, Localizing)
                | (Localizing, Scheduled)
                | (Scheduled, Running)
                | (Running, Done)
                | (Localizing, LocalizationFailed)
                | (LocalizationFailed, Done)
                | (Running, ExitedWithFailure)
                | (ExitedWithFailure, Done)
        )
    }
}

/// A logged state machine around one of the state enums.
#[derive(Debug, Clone)]
pub struct Tracked<S> {
    state: S,
}

impl<S: Copy + PartialEq + fmt::Display + fmt::Debug> Tracked<S> {
    /// Start in `initial`.
    pub fn new(initial: S) -> Tracked<S> {
        Tracked { state: initial }
    }

    /// Current state.
    pub fn get(&self) -> S {
        self.state
    }
}

impl Tracked<RmAppState> {
    /// Move `app` to `to` on `event`, writing the RM's
    /// `<appId> State change from X to Y on event = EVENT`.
    pub fn transition(
        &mut self,
        app: ApplicationId,
        to: RmAppState,
        event: &'static str,
        at: Millis,
        out: &mut Out,
    ) {
        assert!(
            self.state.can_go(to),
            "illegal RMApp transition {} -> {to}",
            self.state
        );
        let from = std::mem::replace(&mut self.state, to);
        out.lines.push(Line {
            at,
            source: LogSource::ResourceManager,
            what: What::RmApp {
                app,
                from,
                to,
                event,
            },
        });
    }
}

impl Tracked<RmContainerState> {
    /// Move `cid` to `to`, writing the RM's
    /// `<containerId> Container Transitioned from X to Y`.
    pub fn transition(
        &mut self,
        cid: ContainerId,
        to: RmContainerState,
        at: Millis,
        out: &mut Out,
    ) {
        assert!(
            self.state.can_go(to),
            "illegal RMContainer transition {} -> {to}",
            self.state
        );
        let from = std::mem::replace(&mut self.state, to);
        out.lines.push(Line {
            at,
            source: LogSource::ResourceManager,
            what: What::RmContainer { cid, from, to },
        });
    }
}

impl Tracked<NmContainerState> {
    /// Move `cid` to `to`, writing `node`'s
    /// `Container <containerId> transitioned from X to Y`.
    pub fn transition(
        &mut self,
        cid: ContainerId,
        node: NodeId,
        to: NmContainerState,
        at: Millis,
        out: &mut Out,
    ) {
        assert!(
            self.state.can_go(to),
            "illegal NmContainer transition {} -> {to}",
            self.state
        );
        let from = std::mem::replace(&mut self.state, to);
        out.lines.push(Line {
            at,
            source: LogSource::NodeManager(node),
            what: What::NmContainer { cid, from, to },
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logmodel::TsMs;

    #[test]
    fn rm_app_happy_path_is_legal() {
        use RmAppState::*;
        let path = [
            New,
            NewSaving,
            Submitted,
            Accepted,
            Running,
            FinalSaving,
            Finishing,
            Finished,
        ];
        for w in path.windows(2) {
            assert!(w[0].can_go(w[1]), "{} -> {}", w[0], w[1]);
        }
    }

    #[test]
    fn rm_app_illegal_jumps_rejected() {
        use RmAppState::*;
        assert!(!New.can_go(Running));
        assert!(!Finished.can_go(New));
        assert!(!Failed.can_go(Accepted));
    }

    #[test]
    fn failure_paths_are_legal() {
        use RmAppState as A;
        // AM retry: back to ACCEPTED; exhaustion: through FINAL_SAVING.
        assert!(A::Running.can_go(A::Accepted));
        assert!(A::Accepted.can_go(A::FinalSaving));
        assert!(A::FinalSaving.can_go(A::Failed));
        use RmContainerState as C;
        assert!(C::Running.can_go(C::Killed));
        assert!(C::Allocated.can_go(C::Killed));
        assert!(!C::Killed.can_go(C::Running));
        use NmContainerState as N;
        assert!(N::Localizing.can_go(N::LocalizationFailed));
        assert!(N::LocalizationFailed.can_go(N::Done));
        assert!(N::Running.can_go(N::ExitedWithFailure));
        assert!(N::ExitedWithFailure.can_go(N::Done));
        assert!(!N::Scheduled.can_go(N::ExitedWithFailure));
    }

    #[test]
    fn rm_container_bug_path_is_legal() {
        use RmContainerState::*;
        // The SPARK-21562 signature: allocated, never acquired, completed.
        assert!(Allocated.can_go(Completed));
        assert!(!Completed.can_go(Running));
    }

    #[test]
    fn nm_container_path() {
        use NmContainerState::*;
        assert!(New.can_go(Localizing));
        assert!(Localizing.can_go(Scheduled));
        assert!(Scheduled.can_go(Running));
        assert!(!Localizing.can_go(Running));
    }

    /// Every legal `(from, to)` of a machine.
    fn legal<S: Copy>(all: &[S], can_go: fn(S, S) -> bool) -> Vec<(S, S)> {
        all.iter()
            .flat_map(|&a| all.iter().map(move |&b| (a, b)))
            .filter(|&(a, b)| can_go(a, b))
            .collect()
    }

    /// The one line `out` holds, checked to be written to `source` at
    /// 42 ms under `class`, rendered.
    fn only_message(mut out: Out, source: LogSource, class: &str) -> String {
        assert_eq!(out.lines.len(), 1);
        let line = out.lines.pop().unwrap();
        assert_eq!(line.source, source);
        let (ts, logged_as, message) = line.into_parts();
        assert_eq!((ts, logged_as), (TsMs(42), class));
        message
    }

    // The reference each typed line is held to is the text the state
    // machines wrote before their lines were typed: the template rendered
    // with the entity's id as a string.

    #[test]
    fn rm_app_lines_render_todays_text() {
        let app = ApplicationId::new(1_521_018_000_000, 7);
        let t = &crate::schema::RM_APP_STATE_CHANGE;
        for (from, to) in legal(&RmAppState::ALL, RmAppState::can_go) {
            let mut st = Tracked::new(from);
            let mut out = Out::new();
            st.transition(app, to, "APP_ACCEPTED", Millis(42), &mut out);
            assert_eq!(st.get(), to);
            let subject: &str = &app.to_string();
            assert_eq!(
                only_message(out, LogSource::ResourceManager, "RMAppImpl"),
                t.msg(&[&subject, &from, &to, &"APP_ACCEPTED"])
            );
        }
    }

    #[test]
    fn rm_container_lines_render_todays_text() {
        let cid = ApplicationId::new(1_521_018_000_000, 7)
            .attempt(2)
            .container(3);
        let t = &crate::schema::RM_CONTAINER_TRANSITION;
        for (from, to) in legal(&RmContainerState::ALL, RmContainerState::can_go) {
            let mut st = Tracked::new(from);
            let mut out = Out::new();
            st.transition(cid, to, Millis(42), &mut out);
            assert_eq!(st.get(), to);
            let subject: &str = &cid.to_string();
            assert_eq!(
                only_message(out, LogSource::ResourceManager, "RMContainerImpl"),
                t.msg(&[&subject, &from, &to])
            );
        }
    }

    #[test]
    fn nm_container_lines_render_todays_text() {
        let cid = ApplicationId::new(1_521_018_000_000, 7)
            .attempt(1)
            .container(12);
        let t = &crate::schema::NM_CONTAINER_TRANSITION;
        for (from, to) in legal(&NmContainerState::ALL, NmContainerState::can_go) {
            let mut st = Tracked::new(from);
            let mut out = Out::new();
            st.transition(cid, NodeId(2), to, Millis(42), &mut out);
            assert_eq!(st.get(), to);
            let subject: &str = &cid.to_string();
            assert_eq!(
                only_message(out, LogSource::NodeManager(NodeId(2)), "ContainerImpl"),
                t.msg(&[&subject, &from, &to])
            );
        }
    }

    #[test]
    #[should_panic(expected = "illegal")]
    fn tracked_panics_on_illegal() {
        let mut st = Tracked::new(RmAppState::New);
        let app = ApplicationId::new(1, 1);
        st.transition(app, RmAppState::Running, "X", Millis(0), &mut Out::new());
    }
}
