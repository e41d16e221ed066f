//! Checker 7: exhaustive interleaving model check.
//!
//! The textual audits ([`crate::locks`], [`crate::atomics`]) police
//! *structure* — what is locked, what orderings are used. This module
//! checks *behavior*: the three real concurrent protocols in the
//! workspace are abstracted into small per-thread op models and every
//! interleaving is explored exhaustively (depth bounded only by the
//! models' finite programs, with full state deduplication), the
//! modelcheck.rs idiom scaled up from single-threaded configurations to
//! true thread interleavings:
//!
//! * [`RegistryModel`] — the metrics registry (`obs::recorder`):
//!   writer threads increment a counter under the one registry lock
//!   while a snapshot thread copies it under the same lock.
//!   Checked: no torn read, and the published snapshot total is
//!   *linearizable* — bounded below by the work completed when the
//!   snapshot began and above by the work completed when it published.
//! * [`ParMergeModel`] — the `logmodel::par` worker-pool handoff:
//!   workers claim indices off a shared cursor with one atomic
//!   `fetch_add` and retire results into per-index slots. Checked: exactly-once
//!   retirement of every item under every schedule (the property that
//!   makes the k-way merge's input-order restoration deterministic).
//! * [`DaemonModel`] — the `sdcheckerd` square: poll loop publishing a
//!   two-word report under the `sdcheckerd.published` lock (the one
//!   mutex around the daemon's `Arc<Published>`), HTTP thread
//!   snapshotting it under the same lock, a checkpoint step sampling
//!   progress under it, and a SIGTERM arriving at every possible
//!   point. Checked: HTTP snapshots
//!   are never torn and never go backwards, the checkpoint never runs
//!   ahead of processing, and shutdown *always* drains to a final
//!   report equal to everything processed.
//!
//! Each model has a mutation constructor (`torn_reader`,
//! `unlocked_pop`, `torn_publish`) that removes one synchronization
//! step; the test suite proves the explorer catches each seeded bug
//! with a diagnostic naming the model and the broken property — so the
//! green run certifies the checker, not just the code.
//!
//! States are plain `Vec<u64>` words; deduplication uses a `BTreeSet`
//! (this crate is under the determinism lint's output prefix, so no
//! hash containers here either).

use std::collections::BTreeSet;

use crate::Finding;

const CHECKER: &str = "interleave";

/// An abstract concurrent protocol: a fixed thread count, an initial
/// state, a per-thread successor function, and safety checks.
pub trait Model {
    fn name(&self) -> &'static str;
    fn threads(&self) -> usize;
    fn initial(&self) -> Vec<u64>;
    /// Enabled successor states for `tid` from `state` (empty when the
    /// thread is blocked or finished).
    fn step(&self, state: &[u64], tid: usize) -> Vec<Vec<u64>>;
    /// A safety violation recorded in `state`, if any.
    fn violation(&self, state: &[u64]) -> Option<String>;
    /// Checked at terminal states (no thread has an enabled step).
    fn terminal_ok(&self, state: &[u64]) -> Result<(), String>;
}

/// Exploration statistics, surfaced in the CLI/CI output so state-space
/// blowup is visible at a glance.
#[derive(Debug, Clone)]
pub struct Stats {
    pub model: &'static str,
    /// Distinct states visited.
    pub states: u64,
    /// Transitions taken (successors generated).
    pub transitions: u64,
    /// Terminal states checked.
    pub terminals: u64,
    /// True when the `max_states` cap stopped exploration — the run is
    /// no longer exhaustive and is reported as a finding.
    pub capped: bool,
}

/// Exhaustively explore `model`, depth-first with full state
/// deduplication, up to `max_states` distinct states.
pub fn explore(model: &dyn Model, max_states: u64) -> (Vec<Finding>, Stats) {
    let mut stats = Stats {
        model: model.name(),
        states: 0,
        transitions: 0,
        terminals: 0,
        capped: false,
    };
    let mut findings = Vec::new();
    let mut seen_messages: BTreeSet<String> = BTreeSet::new();
    let mut report = |msg: String| {
        // Deduplicate diagnostics: one message per distinct violation,
        // capped so a broken model cannot flood the output.
        if seen_messages.len() < 5 && seen_messages.insert(msg.clone()) {
            findings.push(Finding::new(CHECKER, format!("[{}] {msg}", model.name())));
        }
    };

    let mut visited: BTreeSet<Vec<u64>> = BTreeSet::new();
    let mut stack: Vec<Vec<u64>> = vec![model.initial()];
    visited.insert(model.initial());

    while let Some(state) = stack.pop() {
        stats.states = visited.len() as u64;
        if visited.len() as u64 > max_states {
            stats.capped = true;
            report(format!(
                "state space exceeded the {max_states}-state bound — \
                 exploration is no longer exhaustive; shrink the model or \
                 raise the bound deliberately"
            ));
            break;
        }
        if let Some(v) = model.violation(&state) {
            report(v);
            continue; // don't explore past a broken state
        }
        let mut any = false;
        for tid in 0..model.threads() {
            for succ in model.step(&state, tid) {
                any = true;
                stats.transitions += 1;
                if visited.insert(succ.clone()) {
                    stack.push(succ);
                }
            }
        }
        if !any {
            stats.terminals += 1;
            if let Err(e) = model.terminal_ok(&state) {
                report(e);
            }
        }
    }
    stats.states = visited.len() as u64;
    (findings, stats)
}

// ---------------------------------------------------------------------------
// Model 1: one-lock metrics registry record/snapshot.
// ---------------------------------------------------------------------------

/// `obs::recorder` abstraction: `writers` threads each perform `incrs`
/// locked increments on the one registry; its value is two mirrored
/// words written one at a time, so a reader that bypassed the lock could
/// observe a torn pair. One snapshot thread takes the lock, copies both
/// words and publishes the copy.
pub(crate) struct RegistryModel {
    writers: usize,
    incrs: u64,
    /// Mutation: the snapshot thread skips the registry lock.
    reader_locks: bool,
}

// Violation codes stored in the model's last state word.
const V_TORN: u64 = 1;
const V_LINEARIZABILITY: u64 = 2;
const V_MONOTONIC: u64 = 3;

// State layout: the lock word (0 free, else holder + 1), the two mirror
// words, then per writer [pc, done], then the snapshot thread's five
// words, then the violation word.
const R_LOCK: usize = 0;
const R_A: usize = 1;
const R_B: usize = 2;

impl RegistryModel {
    pub fn real() -> RegistryModel {
        RegistryModel {
            writers: 2,
            incrs: 2,
            reader_locks: true,
        }
    }

    /// Seeded bug: snapshot reads the registry words without the lock.
    #[cfg(test)]
    pub(crate) fn torn_reader() -> RegistryModel {
        RegistryModel {
            reader_locks: false,
            ..RegistryModel::real()
        }
    }

    fn w_pc(&self, w: usize) -> usize {
        3 + 2 * w
    }
    fn w_done(&self, w: usize) -> usize {
        3 + 2 * w + 1
    }
    fn rb(&self) -> usize {
        3 + 2 * self.writers
    }
    fn viol(&self) -> usize {
        self.rb() + 5
    }
}

impl Model for RegistryModel {
    fn name(&self) -> &'static str {
        "registry-snapshot"
    }

    fn threads(&self) -> usize {
        self.writers + 1
    }

    fn initial(&self) -> Vec<u64> {
        vec![0; self.viol() + 1]
    }

    fn step(&self, st: &[u64], tid: usize) -> Vec<Vec<u64>> {
        let mut n = st.to_vec();
        if tid < self.writers {
            let w = tid;
            match st[self.w_pc(w)] {
                0 if st[self.w_done(w)] < self.incrs && st[R_LOCK] == 0 => {
                    n[R_LOCK] = (w + 1) as u64;
                }
                1 => n[R_A] += 1,
                2 => n[R_B] += 1,
                3 => {
                    n[R_LOCK] = 0;
                    n[self.w_done(w)] += 1;
                }
                _ => return Vec::new(),
            }
            n[self.w_pc(w)] = (st[self.w_pc(w)] + 1) % 4;
            return vec![n];
        }
        // Snapshot thread: rb+0 pc, +1 read-a temp, +2 low bound, +3 copy,
        // +4 published (+1 encoded).
        let rb = self.rb();
        match st[rb] {
            0 => n[rb + 2] = st[R_B],
            1 if !self.reader_locks => {}
            1 if st[R_LOCK] == 0 => n[R_LOCK] = (self.writers + 1) as u64,
            2 => n[rb + 1] = st[R_A],
            3 => {
                if st[rb + 1] != st[R_B] {
                    n[self.viol()] = V_TORN;
                }
                n[rb + 3] = st[R_B];
                if self.reader_locks {
                    n[R_LOCK] = 0;
                }
            }
            4 => {
                let copy = st[rb + 3];
                if !(st[rb + 2] <= copy && copy <= st[R_B]) {
                    n[self.viol()] = V_LINEARIZABILITY;
                }
                n[rb + 4] = copy + 1;
            }
            _ => return Vec::new(),
        }
        n[rb] += 1;
        vec![n]
    }

    fn violation(&self, st: &[u64]) -> Option<String> {
        match st[self.viol()] {
            V_TORN => Some(
                "torn snapshot: the reader observed a half-written registry \
                 (mirror words disagree) — registry reads must hold the \
                 registry lock"
                    .into(),
            ),
            V_LINEARIZABILITY => Some(
                "snapshot not linearizable: published total falls outside \
                 [work at snapshot start, work at publish]"
                    .into(),
            ),
            _ => None,
        }
    }

    fn terminal_ok(&self, st: &[u64]) -> Result<(), String> {
        if st[self.rb() + 4] == 0 {
            return Err("snapshot thread never published".into());
        }
        let want = self.writers as u64 * self.incrs;
        if st[R_B] != want {
            return Err(format!(
                "writers retired {} increments, expected {want}",
                st[R_B],
            ));
        }
        if st[R_A] != st[R_B] {
            return Err("registry left torn at termination".into());
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Model 2: par pipeline k-way merge handoff.
// ---------------------------------------------------------------------------

/// `logmodel::par` abstraction: `workers` threads claim indices off a
/// shared cursor with one atomic `fetch_add` and retire each item into
/// its per-index slot; the merge then reads the slots in index order, so
/// exactly-once retirement is exactly determinism of the merged output.
pub(crate) struct ParMergeModel {
    items: usize,
    workers: usize,
    /// Mutation: the claim is split into a read and an advance.
    atomic_claim: bool,
}

impl ParMergeModel {
    pub fn real() -> ParMergeModel {
        ParMergeModel {
            items: 4,
            workers: 2,
            atomic_claim: true,
        }
    }

    /// Seeded bug: two workers can read the same cursor value.
    #[cfg(test)]
    pub(crate) fn unlocked_pop() -> ParMergeModel {
        ParMergeModel {
            atomic_claim: false,
            ..ParMergeModel::real()
        }
    }

    // Layout: 0 cursor, then per worker [pc, held, tmp], then per item a
    // retire count.
    fn w_base(&self, w: usize) -> usize {
        1 + 3 * w
    }
    fn count(&self, i: usize) -> usize {
        1 + 3 * self.workers + i
    }
}

impl Model for ParMergeModel {
    fn name(&self) -> &'static str {
        "par-merge-handoff"
    }

    fn threads(&self) -> usize {
        self.workers
    }

    fn initial(&self) -> Vec<u64> {
        vec![0; 1 + 3 * self.workers + self.items]
    }

    fn step(&self, st: &[u64], tid: usize) -> Vec<Vec<u64>> {
        let b = self.w_base(tid);
        let pc = st[b];
        let mut n = st.to_vec();
        match pc {
            // `fetch_add`: read and advance the cursor in one step; a
            // claim past the last item halts the worker.
            0 if self.atomic_claim => {
                n[0] += 1;
                if st[0] < self.items as u64 {
                    n[b + 1] = st[0] + 1;
                    n[b] = 2;
                } else {
                    n[b] = 9;
                }
            }
            // Unsynchronized read-then-advance: the classic lost
            // handoff.
            0 if st[0] < self.items as u64 => {
                n[b + 2] = st[0];
                n[b] = 1;
            }
            1 => {
                n[b + 1] = st[b + 2] + 1;
                n[0] = st[b + 2] + 1;
                n[b] = 2;
            }
            2 => {
                let item = (st[b + 1] - 1) as usize;
                n[self.count(item)] += 1;
                n[b + 1] = 0;
                n[b] = 0;
            }
            _ => return Vec::new(),
        }
        vec![n]
    }

    fn violation(&self, _st: &[u64]) -> Option<String> {
        None // all properties are terminal-state properties
    }

    fn terminal_ok(&self, st: &[u64]) -> Result<(), String> {
        for i in 0..self.items {
            let c = st[self.count(i)];
            if c != 1 {
                return Err(format!(
                    "item {i} retired {c} times — exactly-once retirement \
                     violated, the k-way merge would {} it",
                    if c == 0 { "drop" } else { "duplicate" },
                ));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Model 3: daemon poll ↔ HTTP ↔ checkpoint ↔ SIGTERM square.
// ---------------------------------------------------------------------------

/// `sdcheckerd` abstraction. The `D_LOCK` word stands for
/// `sdcheckerd.published` (see [`crate::locks::LOCKS`]), the daemon's
/// only lock: the poll loop replaces the `Arc<Published>` under it and
/// every HTTP handler clones that `Arc` under it, so the two report
/// words model two fields of one `Published`. Four model threads:
///
/// * poll loop — processes up to `batches` batches, publishing a
///   two-word report (`rep_a`, `rep_b`) under the lock after each, then
///   on shutdown drains: publishes the final report and sets `drained`;
/// * HTTP — takes the lock and snapshots both report words `reads`
///   times, asserting the pair is consistent and never regresses;
/// * checkpoint — samples progress under the lock `writes` times. In
///   the daemon the save runs on the poll loop itself (after the
///   publish, re-publishing only the checkpoint status); modelling it
///   as a thread of its own explores a superset of those schedules;
/// * SIGTERM — flips the shutdown flag at an arbitrary point.
pub struct DaemonModel {
    batches: u64,
    reads: u64,
    writes: u64,
    /// Mutation: the poll loop publishes without taking the lock.
    locked_publish: bool,
}

// Daemon state layout.
const D_LOCK: usize = 0;
const D_EVENTS: usize = 1;
const D_REP_A: usize = 2;
const D_REP_B: usize = 3;
const D_CKPT: usize = 4;
const D_SHUTDOWN: usize = 5;
const D_DRAINED: usize = 6;
const D_POLL_PC: usize = 7;
const D_BATCHES: usize = 8;
const D_HTTP_PC: usize = 9;
const D_READS: usize = 10;
const D_HTTP_TMP: usize = 11;
const D_HTTP_LAST: usize = 12;
const D_CKPT_PC: usize = 13;
const D_WRITES: usize = 14;
const D_SIG_PC: usize = 15;
const D_VIOL: usize = 16;
const D_WORDS: usize = 17;

impl DaemonModel {
    pub fn real() -> DaemonModel {
        DaemonModel {
            batches: 4,
            reads: 4,
            writes: 3,
            locked_publish: true,
        }
    }

    /// Seeded bug: report words are published outside the lock, so an
    /// HTTP snapshot can land between the two writes.
    pub fn torn_publish() -> DaemonModel {
        DaemonModel {
            locked_publish: false,
            ..DaemonModel::real()
        }
    }
}

impl Model for DaemonModel {
    fn name(&self) -> &'static str {
        "daemon-shutdown-drain"
    }

    fn threads(&self) -> usize {
        4
    }

    fn initial(&self) -> Vec<u64> {
        vec![0; D_WORDS]
    }

    fn step(&self, st: &[u64], tid: usize) -> Vec<Vec<u64>> {
        let mut out = Vec::new();
        match tid {
            // Poll loop.
            0 => match st[D_POLL_PC] {
                0 => {
                    if st[D_SHUTDOWN] == 1 {
                        let mut n = st.to_vec();
                        n[D_POLL_PC] = if self.locked_publish { 5 } else { 6 };
                        out.push(n);
                    } else if st[D_BATCHES] < self.batches {
                        let mut n = st.to_vec();
                        n[D_EVENTS] += 1;
                        n[D_BATCHES] += 1;
                        n[D_POLL_PC] = if self.locked_publish { 1 } else { 2 };
                        out.push(n);
                    }
                    // else: blocked waiting for shutdown (tail -f idle).
                }
                1 if st[D_LOCK] == 0 => {
                    let mut n = st.to_vec();
                    n[D_LOCK] = 1;
                    n[D_POLL_PC] = 2;
                    out.push(n);
                }
                2 => {
                    let mut n = st.to_vec();
                    n[D_REP_A] = st[D_EVENTS];
                    n[D_POLL_PC] = 3;
                    out.push(n);
                }
                3 => {
                    let mut n = st.to_vec();
                    n[D_REP_B] = st[D_EVENTS];
                    n[D_POLL_PC] = if self.locked_publish { 4 } else { 0 };
                    out.push(n);
                }
                4 => {
                    let mut n = st.to_vec();
                    n[D_LOCK] = 0;
                    n[D_POLL_PC] = 0;
                    out.push(n);
                }
                // Drain: final publish + drained flag.
                5 if st[D_LOCK] == 0 => {
                    let mut n = st.to_vec();
                    n[D_LOCK] = 1;
                    n[D_POLL_PC] = 6;
                    out.push(n);
                }
                6 => {
                    let mut n = st.to_vec();
                    n[D_REP_A] = st[D_EVENTS];
                    n[D_POLL_PC] = 7;
                    out.push(n);
                }
                7 => {
                    let mut n = st.to_vec();
                    n[D_REP_B] = st[D_EVENTS];
                    n[D_POLL_PC] = 8;
                    out.push(n);
                }
                8 => {
                    let mut n = st.to_vec();
                    if self.locked_publish {
                        n[D_LOCK] = 0;
                    }
                    n[D_DRAINED] = 1;
                    n[D_POLL_PC] = 9;
                    out.push(n);
                }
                _ => {}
            },
            // HTTP snapshot thread.
            1 => match st[D_HTTP_PC] {
                0 if st[D_READS] < self.reads && st[D_LOCK] == 0 => {
                    let mut n = st.to_vec();
                    n[D_LOCK] = 2;
                    n[D_HTTP_PC] = 1;
                    out.push(n);
                }
                1 => {
                    let mut n = st.to_vec();
                    n[D_HTTP_TMP] = st[D_REP_A];
                    n[D_HTTP_PC] = 2;
                    out.push(n);
                }
                2 => {
                    let mut n = st.to_vec();
                    if st[D_HTTP_TMP] != st[D_REP_B] {
                        n[D_VIOL] = V_TORN;
                    } else if st[D_REP_B] < st[D_HTTP_LAST] {
                        n[D_VIOL] = V_MONOTONIC;
                    }
                    n[D_HTTP_LAST] = st[D_REP_B];
                    n[D_LOCK] = 0;
                    n[D_READS] += 1;
                    n[D_HTTP_PC] = 0;
                    out.push(n);
                }
                _ => {}
            },
            // Checkpoint step.
            2 => match st[D_CKPT_PC] {
                0 if st[D_WRITES] < self.writes && st[D_LOCK] == 0 => {
                    let mut n = st.to_vec();
                    n[D_LOCK] = 3;
                    n[D_CKPT_PC] = 1;
                    out.push(n);
                }
                1 => {
                    let mut n = st.to_vec();
                    n[D_CKPT] = st[D_EVENTS];
                    n[D_LOCK] = 0;
                    n[D_WRITES] += 1;
                    n[D_CKPT_PC] = 0;
                    out.push(n);
                }
                _ => {}
            },
            // SIGTERM.
            3 if st[D_SIG_PC] == 0 => {
                let mut n = st.to_vec();
                n[D_SHUTDOWN] = 1;
                n[D_SIG_PC] = 1;
                out.push(n);
            }
            _ => {}
        }
        out
    }

    fn violation(&self, st: &[u64]) -> Option<String> {
        match st[D_VIOL] {
            V_TORN => Some(
                "torn snapshot: HTTP read rep_a != rep_b — the report's two \
                 words were observed mid-publish; publishing must hold the \
                 report lock"
                    .into(),
            ),
            V_MONOTONIC => Some(
                "HTTP snapshot went backwards — a later read observed an \
                 older report"
                    .into(),
            ),
            _ => None,
        }
    }

    fn terminal_ok(&self, st: &[u64]) -> Result<(), String> {
        if st[D_DRAINED] != 1 {
            return Err("shutdown did not drain: a terminal state was reached with \
                 no final report published"
                .into());
        }
        if st[D_REP_A] != st[D_EVENTS] || st[D_REP_B] != st[D_EVENTS] {
            return Err(format!(
                "final report ({}, {}) != events processed ({}) — work was \
                 lost between the last batch and the drain",
                st[D_REP_A], st[D_REP_B], st[D_EVENTS],
            ));
        }
        if st[D_CKPT] > st[D_EVENTS] {
            return Err(format!(
                "checkpoint ({}) ran ahead of processing ({})",
                st[D_CKPT], st[D_EVENTS],
            ));
        }
        Ok(())
    }
}

/// State cap: far above the real models' sizes, so hitting it means a
/// model edit exploded the space rather than normal growth.
pub const MAX_STATES: u64 = 2_000_000;

/// Run every real model exhaustively; findings plus per-model stats.
pub(crate) fn check_with_stats() -> (Vec<Finding>, Vec<Stats>) {
    let mut findings = Vec::new();
    let mut stats = Vec::new();
    let registry = RegistryModel::real();
    let par = ParMergeModel::real();
    let daemon = DaemonModel::real();
    let models: [&dyn Model; 3] = [&registry, &par, &daemon];
    for m in models {
        let (f, s) = explore(m, MAX_STATES);
        findings.extend(f);
        stats.push(s);
    }
    (findings, stats)
}

/// Findings-only entry point, mirroring the other checkers.
pub fn check() -> Vec<Finding> {
    check_with_stats().0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_models_pass_exhaustively() {
        let (findings, stats) = check_with_stats();
        assert!(findings.is_empty(), "{findings:#?}");
        for s in &stats {
            assert!(!s.capped, "{} hit the state cap", s.model);
            assert!(s.terminals > 0, "{} never terminated", s.model);
        }
    }

    #[test]
    fn daemon_model_is_nontrivial() {
        let (_, stats) = explore(&DaemonModel::real(), MAX_STATES);
        assert!(
            stats.states > 10_000,
            "daemon model explored only {} states — the interleaving \
             coverage claim needs > 10^4",
            stats.states,
        );
    }

    #[test]
    fn torn_reader_is_caught() {
        let (findings, _) = explore(&RegistryModel::torn_reader(), MAX_STATES);
        assert!(
            findings
                .iter()
                .any(|f| f.message.contains("[registry-snapshot]")
                    && f.message.contains("torn snapshot")),
            "{findings:#?}"
        );
    }

    #[test]
    fn unlocked_pop_is_caught() {
        let (findings, _) = explore(&ParMergeModel::unlocked_pop(), MAX_STATES);
        assert!(
            findings
                .iter()
                .any(|f| f.message.contains("[par-merge-handoff]")
                    && f.message.contains("exactly-once")),
            "{findings:#?}"
        );
    }

    #[test]
    fn torn_publish_is_caught() {
        let (findings, _) = explore(&DaemonModel::torn_publish(), MAX_STATES);
        assert!(
            findings
                .iter()
                .any(|f| f.message.contains("[daemon-shutdown-drain]")
                    && f.message.contains("torn snapshot")),
            "{findings:#?}"
        );
    }
}
