//! SLO alerting over the live retirement stream: a declarative rule
//! table evaluated in **log time**.
//!
//! The daemon's aggregates tell you the tail moved; alerts tell you
//! *when it started mattering*. Four rule kinds cover the paper's
//! operational story:
//!
//! * [`RuleKind::ComponentQuantile`] — a windowed percentile of one
//!   delay component (exact, over the retirement samples in the window)
//!   crossing a threshold: "p99 total scheduling delay > SLO".
//! * [`RuleKind::BurnRate`] — multi-window error-budget burn: the
//!   fraction of retirements breaching the SLO must exceed
//!   `budget × factor` in **both** a short and a long window before the
//!   rule trips — fast to fire on a real regression, immune to one
//!   straggler (the classic two-window burn-rate pattern).
//! * [`RuleKind::AnomalousParse`] — any transition-shaped line with a
//!   corrupt id inside the window (first-party corruption watchdog).
//! * [`RuleKind::TailLag`] — the tailer's byte lag watchdog. This is
//!   the one **live-only** rule: it reads wall-clock tailing state, so
//!   it is excluded from the replay-determinism property.
//!
//! Rules follow the Prometheus lifecycle: a breach makes a rule
//! *pending*; held for `for_ms` of log time it *fires*; the breach
//! clearing *resolves* it. Evaluation happens at quantized log-time
//! ticks ([`AlertEngine::advance`] catches up every tick the watermark
//! passed), and samples carry their **logical retirement instant** —
//! together these make the transition sequence a pure function of the
//! corpus, byte-identical across poll cadence, chunking, and thread
//! count.

use std::collections::VecDeque;

use logmodel::TsMs;
use obs::json::{document, Layout, Name};
use obs::json_fields;

use crate::checkpoint::CkptError;
use crate::decompose::{AppDelays, APP_COMPONENTS};
use crate::stats::percentile;
use crate::wire::{corrupt, wire_struct, Dec, Decode, Enc, Encode};

/// Schema tag of the `/alerts` document.
pub(crate) const ALERTS_SCHEMA: &str = "sdcheckerd-alerts-v1";

/// Retirement samples kept for windowed evaluation (oldest dropped
/// first). 300 s of long-window history at well over 25 retirements/s —
/// far beyond the workloads the daemon targets — in ~1 MiB.
const MAX_SAMPLES: usize = 8_192;
/// Anomalous-line timestamps kept for the parse watchdog.
const MAX_ANOMALOUS: usize = 1_024;
/// Transition log length served at `/alerts` (newest kept).
const MAX_TRANSITIONS: usize = 512;

/// What one alert rule watches.
#[derive(Debug, Clone, Copy)]
pub enum RuleKind {
    /// Exact percentile `q` of `component` over the trailing
    /// `window_ms` of retirements exceeds `threshold_ms`. Needs at
    /// least `min_count` samples in the window to evaluate at all.
    ComponentQuantile {
        /// An [`APP_COMPONENTS`] name.
        component: &'static str,
        /// Percentile in `[0, 1]` (0.99 = p99).
        q: f64,
        /// Breach threshold, ms.
        threshold_ms: u64,
        /// Trailing window, log-time ms.
        window_ms: u64,
        /// Minimum samples in the window before evaluating.
        min_count: usize,
    },
    /// Two-window burn rate: the fraction of retirements with
    /// `component > threshold_ms` exceeds `budget × factor` in both the
    /// short and the long trailing window (each needing `min_count`
    /// samples).
    BurnRate {
        /// An [`APP_COMPONENTS`] name.
        component: &'static str,
        /// SLO threshold per retirement, ms.
        threshold_ms: u64,
        /// Error budget: tolerated breach fraction (0.1 = 10 %).
        budget: f64,
        /// Burn multiplier that trips the rule.
        factor: f64,
        /// Short window, log-time ms.
        short_ms: u64,
        /// Long window, log-time ms.
        long_ms: u64,
        /// Minimum samples per window before evaluating.
        min_count: usize,
    },
    /// Any anomalous (transition-shaped, corrupt-id) line in the
    /// trailing window.
    AnomalousParse {
        /// Trailing window, log-time ms.
        window_ms: u64,
    },
    /// Tailer byte lag above the watermark (live-only; wall-clock
    /// state).
    TailLag {
        /// Maximum tolerated lag, bytes.
        max_lag_bytes: u64,
    },
}

/// One declarative alert rule.
#[derive(Debug, Clone)]
pub struct AlertRule {
    /// Stable rule name (metric label, `/alerts` key).
    pub name: String,
    /// How long (log-time ms) the breach must hold before the rule
    /// fires. `0` fires on the first breaching tick.
    pub for_ms: u64,
    /// What the rule watches.
    pub kind: RuleKind,
}

/// Prometheus-style alert lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    /// No breach.
    Inactive,
    /// Breaching, but not yet for `for_ms`.
    Pending,
    /// Breaching for at least `for_ms`.
    Firing,
}

impl AlertState {
    /// Lower-case label used in JSON and logs.
    pub fn label(self) -> &'static str {
        match self {
            AlertState::Inactive => "inactive",
            AlertState::Pending => "pending",
            AlertState::Firing => "firing",
        }
    }
}

impl Encode for AlertState {
    fn encode(&self, e: &mut Enc) {
        e.u8(match self {
            AlertState::Inactive => 0,
            AlertState::Pending => 1,
            AlertState::Firing => 2,
        });
    }
}

impl Decode for AlertState {
    fn decode(d: &mut Dec<'_>) -> Result<AlertState, CkptError> {
        match d.u8()? {
            0 => Ok(AlertState::Inactive),
            1 => Ok(AlertState::Pending),
            2 => Ok(AlertState::Firing),
            v => Err(corrupt(format!("invalid alert-state discriminant {v}"))),
        }
    }
}

/// One state change of one rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Transition {
    /// Log-time instant of the evaluation tick.
    pub at: TsMs,
    /// The rule.
    pub rule: String,
    /// State before.
    pub from: AlertState,
    /// State after.
    pub to: AlertState,
    /// The evaluated value at the tick (percentile ms, burn fraction,
    /// anomalous count, or lag bytes, per rule kind).
    pub value: f64,
}

impl Transition {
    /// `resolved` when leaving `Firing`, else the target state label —
    /// the word operators expect in the transition log.
    pub fn verb(&self) -> &'static str {
        if self.from == AlertState::Firing && self.to == AlertState::Inactive {
            "resolved"
        } else {
            self.to.label()
        }
    }
}

wire_struct!(Transition {
    at,
    rule,
    from,
    to,
    value,
});

#[derive(Debug)]
struct RuleRuntime {
    state: AlertState,
    /// Tick instant the current breach streak started.
    pending_since: Option<TsMs>,
    /// Last evaluated value (for `/alerts`).
    last_value: Option<f64>,
}

wire_struct!(RuleRuntime {
    state,
    pending_since,
    last_value,
});

/// The rule evaluator. Feed it retirements and anomalous lines as they
/// happen, then [`AlertEngine::advance`] to the new watermark after
/// every drain; collect [`Transition`]s as they occur.
#[derive(Debug)]
pub struct AlertEngine {
    rules: Vec<AlertRule>,
    runtime: Vec<RuleRuntime>,
    eval_interval_ms: u64,
    /// Last evaluated tick index (`t × eval_interval_ms` instants).
    last_tick: Option<u64>,
    /// `(retire_ms, per-APP_COMPONENTS value)` samples, oldest first.
    samples: VecDeque<(TsMs, [Option<u64>; APP_COMPONENTS.len()])>,
    /// Anomalous-line record timestamps, oldest first.
    anomalous: VecDeque<TsMs>,
    /// Oldest data instant ever observed — where the first
    /// [`AlertEngine::advance`] starts its tick catch-up, so the
    /// evaluated tick sequence does not depend on when the caller first
    /// polled.
    earliest_data: Option<TsMs>,
    /// Live tailer lag in bytes (wall-clock state, TailLag only).
    live_lag_bytes: u64,
    transitions: VecDeque<Transition>,
    transitions_total: u64,
}

/// The default rule table, parameterized by the total-delay SLO.
///
/// * `total_p99_slo` — p99 total scheduling delay over 60 s > `slo_ms`,
///   held 2 s.
/// * `out_app_p95` — p95 cluster-side (out-app) delay over 60 s >
///   `slo_ms / 2`, held 2 s.
/// * `total_burn_rate` — > 20 % of retirements breaching `slo_ms` in
///   both the 30 s and 300 s windows (10 % budget × 2).
/// * `anomalous_parse` — any corrupt transition line in 60 s, held 1 s.
/// * `tail_lag` — tailer more than 1 MiB behind, held 5 s (live-only).
pub fn default_rules(slo_ms: u64) -> Vec<AlertRule> {
    vec![
        AlertRule {
            name: "total_p99_slo".into(),
            for_ms: 2_000,
            kind: RuleKind::ComponentQuantile {
                component: "total",
                q: 0.99,
                threshold_ms: slo_ms,
                window_ms: 60_000,
                min_count: 3,
            },
        },
        AlertRule {
            name: "out_app_p95".into(),
            for_ms: 2_000,
            kind: RuleKind::ComponentQuantile {
                component: "out_app",
                q: 0.95,
                threshold_ms: slo_ms / 2,
                window_ms: 60_000,
                min_count: 3,
            },
        },
        AlertRule {
            name: "total_burn_rate".into(),
            for_ms: 0,
            kind: RuleKind::BurnRate {
                component: "total",
                threshold_ms: slo_ms,
                budget: 0.1,
                factor: 2.0,
                short_ms: 30_000,
                long_ms: 300_000,
                min_count: 5,
            },
        },
        AlertRule {
            name: "anomalous_parse".into(),
            for_ms: 1_000,
            kind: RuleKind::AnomalousParse { window_ms: 60_000 },
        },
        AlertRule {
            name: "tail_lag".into(),
            for_ms: 5_000,
            kind: RuleKind::TailLag {
                max_lag_bytes: 1 << 20,
            },
        },
    ]
}

fn component_index(name: &str) -> Option<usize> {
    APP_COMPONENTS.iter().position(|(n, _)| *n == name)
}

impl AlertEngine {
    /// An engine over `rules`, evaluating every `eval_interval_ms` of
    /// log time (clamped to ≥ 1).
    pub fn new(rules: Vec<AlertRule>, eval_interval_ms: u64) -> AlertEngine {
        let runtime = rules
            .iter()
            .map(|_| RuleRuntime {
                state: AlertState::Inactive,
                pending_since: None,
                last_value: None,
            })
            .collect();
        AlertEngine {
            rules,
            runtime,
            eval_interval_ms: eval_interval_ms.max(1),
            last_tick: None,
            samples: VecDeque::new(),
            anomalous: VecDeque::new(),
            earliest_data: None,
            live_lag_bytes: 0,
            transitions: VecDeque::new(),
            transitions_total: 0,
        }
    }

    /// Record one retirement at its **logical** retirement instant.
    /// Call for every drained app *before* [`AlertEngine::advance`].
    pub fn observe_retirement(&mut self, retire_ms: TsMs, delays: &AppDelays) {
        let mut row = [None; APP_COMPONENTS.len()];
        for (i, (_, acc)) in APP_COMPONENTS.iter().enumerate() {
            row[i] = acc(delays);
        }
        self.samples.push_back((retire_ms, row));
        if self.samples.len() > MAX_SAMPLES {
            self.samples.pop_front();
        }
        self.note_data(retire_ms);
    }

    fn note_data(&mut self, ts: TsMs) {
        self.earliest_data = Some(self.earliest_data.map_or(ts, |e| e.min(ts)));
    }

    /// Record one anomalous (corrupt transition) line at its record
    /// timestamp.
    pub fn observe_anomalous(&mut self, ts: TsMs) {
        self.anomalous.push_back(ts);
        if self.anomalous.len() > MAX_ANOMALOUS {
            self.anomalous.pop_front();
        }
        self.note_data(ts);
    }

    /// Update the live tailer lag (wall-clock state; TailLag rules
    /// only).
    pub fn set_live_lag(&mut self, bytes: u64) {
        self.live_lag_bytes = bytes;
    }

    /// Evaluate every quantized tick the watermark has passed since the
    /// last call, in order. Returns the state transitions that
    /// occurred.
    ///
    /// The first call catches up from the tick of the oldest observed
    /// data (samples before it are unreachable, so skipping those ticks
    /// is exact) — which makes the evaluated tick sequence, and hence
    /// the transition log, independent of the caller's poll cadence.
    /// At shutdown, advance one interval **past** the final watermark
    /// before [`AlertEngine::close_out`], so retirements stamped at the
    /// watermark itself get one evaluation.
    pub fn advance(&mut self, watermark: TsMs) -> Vec<Transition> {
        let tick = watermark.0 / self.eval_interval_ms;
        let first = match self.last_tick {
            // Ticks at or before an already-evaluated instant are done.
            Some(last) if tick <= last => return Vec::new(),
            Some(last) => last + 1,
            // First sight of the clock: catch up from the oldest data.
            None => self
                .earliest_data
                .map_or(tick, |t| (t.0 / self.eval_interval_ms).min(tick)),
        };
        let mut out = Vec::new();
        for t in first..=tick {
            let now = TsMs(t * self.eval_interval_ms);
            self.eval_at(now, &mut out);
        }
        self.last_tick = Some(tick);
        self.prune(TsMs(tick * self.eval_interval_ms));
        out
    }

    /// Resolve everything still pending or firing — call at shutdown so
    /// the transition log (and `--alerts-out`) ends in a quiesced
    /// state.
    pub fn close_out(&mut self, at: TsMs) -> Vec<Transition> {
        let mut out = Vec::new();
        for (rule, rt) in self.rules.iter().zip(self.runtime.iter_mut()) {
            if rt.state != AlertState::Inactive {
                let tr = Transition {
                    at,
                    rule: rule.name.clone(),
                    from: rt.state,
                    to: AlertState::Inactive,
                    value: rt.last_value.unwrap_or(0.0),
                };
                rt.state = AlertState::Inactive;
                rt.pending_since = None;
                out.push(tr);
            }
        }
        for tr in &out {
            self.push_transition(tr.clone());
        }
        out
    }

    fn push_transition(&mut self, tr: Transition) {
        self.transitions.push_back(tr);
        self.transitions_total += 1;
        if self.transitions.len() > MAX_TRANSITIONS {
            self.transitions.pop_front();
        }
    }

    /// Drop samples no rule's window can reach from `now` (memory
    /// bound; windows only ever look back `max_window`).
    fn prune(&mut self, now: TsMs) {
        let mut max_window = 0u64;
        for r in &self.rules {
            let w = match r.kind {
                RuleKind::ComponentQuantile { window_ms, .. } => window_ms,
                RuleKind::BurnRate {
                    short_ms, long_ms, ..
                } => short_ms.max(long_ms),
                RuleKind::AnomalousParse { window_ms } => window_ms,
                RuleKind::TailLag { .. } => 0,
            };
            max_window = max_window.max(w);
        }
        let cutoff = now
            .0
            .saturating_sub(max_window.saturating_add(self.eval_interval_ms));
        while self.samples.front().is_some_and(|(ts, _)| ts.0 < cutoff) {
            self.samples.pop_front();
        }
        while self.anomalous.front().is_some_and(|ts| ts.0 < cutoff) {
            self.anomalous.pop_front();
        }
    }

    /// Samples of `component` with `retire_ms` in `(now - window, now]`.
    fn window_values(&self, component: usize, now: TsMs, window_ms: u64) -> Vec<f64> {
        let lo = now.0.saturating_sub(window_ms);
        self.samples
            .iter()
            .filter(|(ts, _)| ts.0 > lo && ts.0 <= now.0)
            .filter_map(|(_, row)| row[component].map(|v| v as f64))
            .collect()
    }

    /// Evaluate one rule at `now`: `Some((breach, value))`, or `None`
    /// when the rule cannot evaluate yet (below `min_count`).
    fn eval_rule(&self, kind: &RuleKind, now: TsMs) -> Option<(bool, f64)> {
        match *kind {
            RuleKind::ComponentQuantile {
                component,
                q,
                threshold_ms,
                window_ms,
                min_count,
            } => {
                let i = component_index(component)?;
                let values = self.window_values(i, now, window_ms);
                if values.len() < min_count.max(1) {
                    return None;
                }
                let v = percentile(&values, q)?;
                Some((v > threshold_ms as f64, v))
            }
            RuleKind::BurnRate {
                component,
                threshold_ms,
                budget,
                factor,
                short_ms,
                long_ms,
                min_count,
            } => {
                let i = component_index(component)?;
                let frac = |window: u64| -> Option<f64> {
                    let values = self.window_values(i, now, window);
                    if values.len() < min_count.max(1) {
                        return None;
                    }
                    let breaching = values.iter().filter(|&&v| v > threshold_ms as f64).count();
                    Some(breaching as f64 / values.len() as f64)
                };
                let (short, long) = (frac(short_ms)?, frac(long_ms)?);
                let trip = budget * factor;
                Some((short >= trip && long >= trip, short))
            }
            RuleKind::AnomalousParse { window_ms } => {
                let lo = now.0.saturating_sub(window_ms);
                let n = self
                    .anomalous
                    .iter()
                    .filter(|ts| ts.0 > lo && ts.0 <= now.0)
                    .count();
                Some((n > 0, n as f64))
            }
            RuleKind::TailLag { max_lag_bytes } => Some((
                self.live_lag_bytes > max_lag_bytes,
                self.live_lag_bytes as f64,
            )),
        }
    }

    fn eval_at(&mut self, now: TsMs, out: &mut Vec<Transition>) {
        for i in 0..self.rules.len() {
            let (breach, value) = match self.eval_rule(&self.rules[i].kind, now) {
                Some((b, v)) => (b, Some(v)),
                // Unevaluable (warming up) counts as no-breach.
                None => (false, None),
            };
            let for_ms = self.rules[i].for_ms;
            let rt = &mut self.runtime[i];
            rt.last_value = value;
            let from = rt.state;
            let to = if breach {
                let since = *rt.pending_since.get_or_insert(now);
                if from == AlertState::Firing || now.since(since) >= for_ms {
                    AlertState::Firing
                } else {
                    AlertState::Pending
                }
            } else {
                rt.pending_since = None;
                AlertState::Inactive
            };
            rt.state = to;
            if to != from {
                let tr = Transition {
                    at: now,
                    rule: self.rules[i].name.clone(),
                    from,
                    to,
                    value: value.unwrap_or(0.0),
                };
                out.push(tr.clone());
                self.push_transition(tr);
            }
        }
    }

    /// Restore checkpointed lifecycle state into this engine.
    /// All-or-nothing: the rest of the payload is decoded and checked
    /// (same cadence, same rule table, sample rows of the right width,
    /// nothing left over) before any field is touched, so a rejected
    /// checkpoint leaves the engine exactly as it was — which is what
    /// lets recovery fall back to an older generation. `live_lag_bytes`
    /// is untouched (wall-clock state).
    pub(crate) fn restore(&mut self, mut d: Dec<'_>) -> Result<(), CkptError> {
        let (eval_interval_ms, rule_names): (u64, Vec<String>) = d.get()?;
        if eval_interval_ms != self.eval_interval_ms {
            return Err(corrupt(format!(
                "checkpoint eval interval {eval_interval_ms} ms, engine {} ms",
                self.eval_interval_ms
            )));
        }
        if !rule_names.iter().eq(self.rules.iter().map(|r| &r.name)) {
            return Err(corrupt(format!(
                "checkpoint rules {rule_names:?} do not match the engine's"
            )));
        }
        let runtime: Vec<RuleRuntime> = d.get()?;
        if runtime.len() != self.rules.len() {
            return Err(corrupt(format!(
                "checkpoint has {} rule runtimes, engine {} rules",
                runtime.len(),
                self.rules.len()
            )));
        }
        let (last_tick, samples, anomalous) = d.get()?;
        let (earliest_data, transitions, transitions_total) = d.get()?;
        d.finish()?;
        self.runtime = runtime;
        self.last_tick = last_tick;
        self.samples = samples;
        self.anomalous = anomalous;
        self.earliest_data = earliest_data;
        self.transitions = transitions;
        self.transitions_total = transitions_total;
        Ok(())
    }

    /// `(rule name, firing?)` for every rule — the
    /// `sd_alert_firing{rule}` gauge feed.
    pub fn firing(&self) -> impl Iterator<Item = (&str, bool)> {
        self.rules
            .iter()
            .zip(self.runtime.iter())
            .map(|(r, rt)| (r.name.as_str(), rt.state == AlertState::Firing))
    }

    /// Rules currently firing.
    #[cfg(test)]
    pub(crate) fn firing_count(&self) -> usize {
        self.runtime
            .iter()
            .filter(|rt| rt.state == AlertState::Firing)
            .count()
    }

    /// All transitions ever (the log itself is bounded to the newest
    /// [`MAX_TRANSITIONS`]).
    pub fn transitions_total(&self) -> u64 {
        self.transitions_total
    }

    /// The `/alerts` document: every rule's current state and value,
    /// plus the transition log. Schema [`ALERTS_SCHEMA`].
    pub fn alerts_json(&self) -> String {
        let thousandths = |v: f64| (v * 1000.0).round() / 1000.0;
        document(0, Layout::Block, |doc| {
            let through = self.last_tick.map(|t| t * self.eval_interval_ms);
            json_fields!(doc, "schema" => ALERTS_SCHEMA,
                "eval_interval_ms" => self.eval_interval_ms, "evaluated_through_ms" => through);
            let mut rules = doc.obj("rules", Layout::Block);
            for (r, rt) in self.rules.iter().zip(self.runtime.iter()) {
                let mut obj = rules.obj(Name(&r.name), Layout::Inline);
                json_fields!(obj, "state" => rt.state.label(), "for_ms" => r.for_ms,
                    "since_ms" => rt.pending_since, "value" => rt.last_value.map(thousandths));
            }
            drop(rules);
            doc.field("transitions_total", self.transitions_total);
            let mut log = doc.arr("transitions", Layout::Block);
            for tr in &self.transitions {
                let mut obj = log.obj(Layout::Inline);
                json_fields!(obj, "at_ms" => tr.at, "rule" => &tr.rule, "from" => tr.from.label(),
                    "to" => tr.to.label(), "verb" => tr.verb(), "value" => thousandths(tr.value));
            }
        })
    }
}

/// The engine's checkpoint is its mutable state. The rule *table* is
/// daemon configuration and is not serialized; the names it was saved
/// over are, so [`AlertEngine::restore`] can refuse a different table.
impl Encode for AlertEngine {
    fn encode(&self, e: &mut Enc) {
        let AlertEngine {
            rules,
            runtime,
            eval_interval_ms,
            last_tick,
            samples,
            anomalous,
            earliest_data,
            live_lag_bytes: _, // wall-clock state, set again by the first poll
            transitions,
            transitions_total,
        } = self;
        eval_interval_ms.encode(e);
        e.seq(rules.iter().map(|r| &r.name));
        (runtime, last_tick, samples, anomalous).encode(e);
        (earliest_data, transitions, transitions_total).encode(e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logmodel::{ApplicationId, Epoch};

    fn delays_with_total(seq: u32, total: Option<u64>) -> AppDelays {
        let app = ApplicationId::new(Epoch::default_run().unix_ms, seq);
        let (_, mut d, _) = crate::analyze::analyze_app_events(app, &[]);
        d.total_ms = total;
        d
    }

    fn quantile_engine(for_ms: u64) -> AlertEngine {
        AlertEngine::new(
            vec![AlertRule {
                name: "total_p99_slo".into(),
                for_ms,
                kind: RuleKind::ComponentQuantile {
                    component: "total",
                    q: 0.99,
                    threshold_ms: 1_000,
                    window_ms: 60_000,
                    min_count: 3,
                },
            }],
            1_000,
        )
    }

    #[test]
    fn breach_walks_pending_then_firing_then_resolves() {
        let mut e = quantile_engine(2_000);
        for seq in 0..3 {
            e.observe_retirement(TsMs(900 + seq as u64), &delays_with_total(seq, Some(5_000)));
        }
        let trs = e.advance(TsMs(1_500));
        assert_eq!(trs.len(), 1);
        assert_eq!(trs[0].to, AlertState::Pending);
        // Held past for_ms: fires.
        let trs = e.advance(TsMs(3_500));
        assert_eq!(trs.len(), 1);
        assert_eq!(trs[0].from, AlertState::Pending);
        assert_eq!(trs[0].to, AlertState::Firing);
        assert_eq!(e.firing_count(), 1);
        assert!(e.firing().any(|(n, f)| n == "total_p99_slo" && f));
        // The breaching samples age out of the 60 s window: resolves.
        let trs = e.advance(TsMs(70_000));
        assert_eq!(trs.len(), 1);
        assert_eq!(trs[0].from, AlertState::Firing);
        assert_eq!(trs[0].to, AlertState::Inactive);
        assert_eq!(trs[0].verb(), "resolved");
        assert_eq!(e.firing_count(), 0);
    }

    #[test]
    fn short_blip_cancels_pending_without_firing() {
        // for_ms longer than the samples can stay in the window: the
        // rule must go pending, then cancel without ever firing.
        let mut e = quantile_engine(90_000);
        for seq in 0..3 {
            e.observe_retirement(TsMs(1_000), &delays_with_total(seq, Some(5_000)));
        }
        assert_eq!(e.advance(TsMs(2_000))[0].to, AlertState::Pending);
        // Window slides past the samples long before for_ms elapses.
        let trs = e.advance(TsMs(65_000));
        assert_eq!(trs.len(), 1);
        assert_eq!(trs[0].from, AlertState::Pending);
        assert_eq!(trs[0].to, AlertState::Inactive);
        assert_ne!(trs[0].verb(), "resolved", "pending cancel is not a resolve");
        assert_eq!(e.transitions_total(), 2);
    }

    #[test]
    fn clean_fleet_produces_zero_alerts() {
        let mut e = AlertEngine::new(default_rules(60_000), 1_000);
        for seq in 0..50u32 {
            let at = TsMs(1_000 * (seq as u64 + 1));
            e.observe_retirement(at, &delays_with_total(seq, Some(1_500)));
            assert!(e.advance(at).is_empty());
        }
        assert_eq!(e.transitions_total(), 0);
        assert_eq!(e.firing_count(), 0);
        assert!(e.close_out(TsMs(60_000)).is_empty());
    }

    #[test]
    fn burn_rate_needs_both_windows() {
        let rules = vec![AlertRule {
            name: "burn".into(),
            for_ms: 0,
            kind: RuleKind::BurnRate {
                component: "total",
                threshold_ms: 1_000,
                budget: 0.1,
                factor: 2.0,
                short_ms: 10_000,
                long_ms: 100_000,
                min_count: 3,
            },
        }];
        // Old good samples dominate the long window: short-window spike
        // alone must not trip.
        let mut e = AlertEngine::new(rules.clone(), 1_000);
        for seq in 0..30u32 {
            e.observe_retirement(TsMs(1_000 + seq as u64), &delays_with_total(seq, Some(10)));
        }
        for seq in 30..33u32 {
            e.observe_retirement(
                TsMs(95_000 + seq as u64),
                &delays_with_total(seq, Some(9_999)),
            );
        }
        assert!(
            e.advance(TsMs(96_000)).is_empty(),
            "long window still healthy"
        );
        // A sustained breach moves both windows.
        let mut e = AlertEngine::new(rules, 1_000);
        for seq in 0..10u32 {
            e.observe_retirement(
                TsMs(1_000 * (seq as u64 + 1)),
                &delays_with_total(seq, Some(9_999)),
            );
        }
        let trs = e.advance(TsMs(11_000));
        assert_eq!(trs.len(), 1);
        assert_eq!(
            trs[0].to,
            AlertState::Firing,
            "for_ms = 0 fires straight away"
        );
    }

    #[test]
    fn anomalous_parse_and_close_out() {
        let mut e = AlertEngine::new(default_rules(60_000), 1_000);
        e.observe_anomalous(TsMs(5_000));
        let trs = e.advance(TsMs(5_000));
        assert!(trs
            .iter()
            .any(|t| t.rule == "anomalous_parse" && t.to == AlertState::Pending));
        let trs = e.advance(TsMs(6_500));
        assert!(trs
            .iter()
            .any(|t| t.rule == "anomalous_parse" && t.to == AlertState::Firing));
        let trs = e.close_out(TsMs(7_000));
        assert_eq!(trs.len(), 1);
        assert_eq!(trs[0].verb(), "resolved");
        assert_eq!(e.firing_count(), 0);
    }

    #[test]
    fn advance_is_idempotent_per_tick_and_chunking_invariant() {
        // Feeding the same samples then advancing in one jump or many
        // small steps must produce the same transition sequence.
        let run = |steps: &[u64]| -> Vec<Transition> {
            let mut e = quantile_engine(2_000);
            for seq in 0..3 {
                e.observe_retirement(TsMs(500), &delays_with_total(seq, Some(5_000)));
            }
            let mut all = Vec::new();
            for &w in steps {
                all.extend(e.advance(TsMs(w)));
            }
            all
        };
        let coarse = run(&[70_000]);
        let fine = run(&[500, 1_000, 2_500, 2_500, 9_000, 40_000, 70_000, 70_000]);
        assert_eq!(coarse, fine);
    }

    #[test]
    fn alerts_json_parses() {
        let mut e = AlertEngine::new(default_rules(1_000), 1_000);
        for seq in 0..3 {
            e.observe_retirement(TsMs(1_000), &delays_with_total(seq, Some(5_000)));
        }
        e.advance(TsMs(4_000));
        let doc = obs::json::parse(&e.alerts_json()).expect("alerts json parses");
        assert_eq!(
            doc.get("schema").and_then(|s| s.as_str()),
            Some(ALERTS_SCHEMA)
        );
        let rules = doc.get("rules").unwrap();
        assert_eq!(
            rules
                .get("total_p99_slo")
                .and_then(|r| r.get("state"))
                .and_then(|s| s.as_str()),
            Some("firing")
        );
        assert!(doc.get("transitions").unwrap().as_arr().unwrap().len() >= 2);
    }
}
