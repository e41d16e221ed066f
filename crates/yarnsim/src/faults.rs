//! Deterministic fault injection for the simulated cluster.
//!
//! The paper's testbed is a real 26-node cluster where container launch
//! failures, localization failures, NodeManager loss, and
//! ApplicationMaster retries are routine. This module makes the simulator
//! able to produce those runs deterministically: a [`FaultConfig`] holds
//! config-driven rates plus explicitly scripted faults, and the
//! [`FaultPlan`] draws from an RNG stream forked *separately* from the
//! scheduler/latency streams (`fork_named("faults")`), so a run with all
//! faults disabled is byte-identical to a run of a build without fault
//! support at all.

use logmodel::ContainerId;
use simkit::{Millis, SimRng};

/// What faults to inject, and when. The default is fully disabled.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Probability that a container's JVM launch exits with a non-zero
    /// code (NM `RUNNING → EXITED_WITH_FAILURE`).
    pub launch_failure_rate: f64,
    /// Probability that a container's resource download fails
    /// (NM `LOCALIZING → LOCALIZATION_FAILED`).
    pub localization_failure_rate: f64,
    /// Scripted node loss: at each `(time, node index)` the NM stops
    /// heartbeating and the RM kills every container on it.
    pub node_loss: Vec<(Millis, u32)>,
    /// Scripted AM-attempt failures: `(application seq, attempt)` pairs
    /// whose AM container launch is forced to fail — the deterministic
    /// way to exercise the YARN retry protocol in tests.
    pub scripted_am_failures: Vec<(u32, u32)>,
    /// Maximum AM attempts per application (YARN's
    /// `yarn.resourcemanager.am.max-attempts`, default 2). When the last
    /// attempt fails the application goes `FINAL_SAVING → FAILED`.
    pub max_am_attempts: u32,
    /// Extra seed mixed into the fault RNG stream, so fault placement can
    /// be varied independently of the scheduling seed (`--fault-seed`).
    pub fault_seed: u64,
}

impl Default for FaultConfig {
    fn default() -> FaultConfig {
        FaultConfig {
            launch_failure_rate: 0.0,
            localization_failure_rate: 0.0,
            node_loss: Vec::new(),
            scripted_am_failures: Vec::new(),
            max_am_attempts: 2,
            fault_seed: 0,
        }
    }
}

impl FaultConfig {
    /// Whether any fault can ever fire under this config.
    pub fn any_enabled(&self) -> bool {
        self.launch_failure_rate > 0.0
            || self.localization_failure_rate > 0.0
            || !self.node_loss.is_empty()
            || !self.scripted_am_failures.is_empty()
    }
}

/// Running totals of injected faults, kept by the cluster for metrics and
/// experiment sweeps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Container launches that exited with a non-zero code.
    pub launch_failures: u64,
    /// Containers whose resource localization failed.
    pub localization_failures: u64,
    /// Nodes lost to NM heartbeat expiry.
    pub nodes_lost: u64,
    /// Containers killed because their node was lost.
    pub killed_by_node_loss: u64,
    /// AM attempts restarted (attempt N failed, attempt N+1 launched).
    pub am_retries: u64,
    /// Applications that exhausted their AM attempts (terminal FAILED).
    pub apps_failed: u64,
}

impl FaultCounts {
    /// Whether any fault actually fired this run.
    pub fn any(&self) -> bool {
        self.launch_failures > 0
            || self.localization_failures > 0
            || self.nodes_lost > 0
            || self.killed_by_node_loss > 0
            || self.am_retries > 0
            || self.apps_failed > 0
    }
}

/// The per-run fault oracle: owns the fault RNG stream and answers, per
/// injection point, whether the fault fires. All draws happen only when
/// the corresponding rate is positive, so a disabled config consumes no
/// randomness and perturbs nothing.
#[derive(Debug)]
pub struct FaultPlan {
    cfg: FaultConfig,
    rng: SimRng,
}

impl FaultPlan {
    /// Build the plan from a config, forking the fault stream off the
    /// cluster's root RNG (independent of scheduler/latency streams).
    pub fn new(cfg: FaultConfig, root: &SimRng) -> FaultPlan {
        let rng = root.fork_named("faults").fork(cfg.fault_seed);
        FaultPlan { cfg, rng }
    }

    /// The underlying config.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Whether any fault can ever fire.
    pub fn enabled(&self) -> bool {
        self.cfg.any_enabled()
    }

    /// Should this container's JVM launch fail? AM containers also fail
    /// when their `(app seq, attempt)` is scripted.
    pub(crate) fn launch_fails(&mut self, cid: ContainerId) -> bool {
        if cid.is_am() && self.am_attempt_scripted(cid) {
            return true;
        }
        self.cfg.launch_failure_rate > 0.0 && self.rng.chance(self.cfg.launch_failure_rate)
    }

    /// Should this container's localization fail?
    pub(crate) fn localization_fails(&mut self, _cid: ContainerId) -> bool {
        self.cfg.localization_failure_rate > 0.0
            && self.rng.chance(self.cfg.localization_failure_rate)
    }

    /// Whether this AM container's attempt is scripted to fail.
    fn am_attempt_scripted(&self, cid: ContainerId) -> bool {
        let seq = cid.app().seq;
        let attempt = cid.attempt.attempt;
        self.cfg
            .scripted_am_failures
            .iter()
            .any(|&(s, a)| s == seq && a == attempt)
    }

    /// Maximum AM attempts per application.
    pub(crate) fn max_am_attempts(&self) -> u32 {
        self.cfg.max_am_attempts.max(1)
    }

    /// The scripted node-loss schedule.
    pub fn node_loss(&self) -> &[(Millis, u32)] {
        &self.cfg.node_loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logmodel::ApplicationId;

    fn cid(app_seq: u32, attempt: u32, seq: u64) -> ContainerId {
        ApplicationId::new(1, app_seq)
            .attempt(attempt)
            .container(seq)
    }

    #[test]
    fn disabled_plan_never_fires_and_draws_nothing() {
        let root = SimRng::new(7);
        let mut plan = FaultPlan::new(FaultConfig::default(), &root);
        assert!(!plan.enabled());
        for i in 0..100 {
            assert!(!plan.launch_fails(cid(1, 1, i + 1)));
            assert!(!plan.localization_fails(cid(1, 1, i + 1)));
        }
        assert!(plan.node_loss().is_empty());
    }

    #[test]
    fn scripted_am_failure_is_exact() {
        let root = SimRng::new(7);
        let cfg = FaultConfig {
            scripted_am_failures: vec![(3, 1)],
            ..FaultConfig::default()
        };
        let mut plan = FaultPlan::new(cfg, &root);
        assert!(plan.enabled());
        assert!(plan.launch_fails(cid(3, 1, 1))); // the scripted AM
        assert!(!plan.launch_fails(cid(3, 2, 1))); // retry succeeds
        assert!(!plan.launch_fails(cid(4, 1, 1))); // other app untouched
        assert!(!plan.launch_fails(cid(3, 1, 2))); // non-AM container
    }

    #[test]
    fn rates_are_deterministic_per_seed() {
        let root = SimRng::new(11);
        let cfg = FaultConfig {
            launch_failure_rate: 0.3,
            ..FaultConfig::default()
        };
        let run = |root: &SimRng| -> Vec<bool> {
            let mut plan = FaultPlan::new(cfg.clone(), root);
            (0..64)
                .map(|i| plan.launch_fails(cid(1, 1, i + 2)))
                .collect()
        };
        let a = run(&root);
        let b = run(&root);
        assert_eq!(a, b);
        assert!(a.iter().any(|&x| x), "0.3 over 64 draws should fire");
        assert!(!a.iter().all(|&x| x));
        // A different fault seed moves the draws.
        let other = FaultPlan::new(
            FaultConfig {
                fault_seed: 99,
                ..cfg.clone()
            },
            &root,
        );
        let mut other = other;
        let c: Vec<bool> = (0..64)
            .map(|i| other.launch_fails(cid(1, 1, i + 2)))
            .collect();
        assert_ne!(a, c);
    }

    #[test]
    fn max_attempts_floor_is_one() {
        let root = SimRng::new(1);
        let plan = FaultPlan::new(
            FaultConfig {
                max_am_attempts: 0,
                ..FaultConfig::default()
            },
            &root,
        );
        assert_eq!(plan.max_am_attempts(), 1);
    }
}
