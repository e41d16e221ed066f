//! Checker 2b: bounded model check of small simulated configurations.
//!
//! Enumerates tiny cluster configs (1–2 nodes, 1–2 apps, faults on/off),
//! runs the full simulator, and replays every logged transition through
//! the reified [`MachineSpec`]s: chains start at the initial state and
//! stay legal and connected, timestamps are monotone per entity and per
//! stream, transitions are exactly-once where the protocol promises it,
//! and SDchecker's decomposition tiles the critical path with no
//! negative or overlapping segments.

use std::collections::BTreeMap;

use logmodel::schema::MachineSpec;
use logmodel::{LogStore, TsMs};
use sdchecker::schema::MatchKind;
use sdchecker::Extractor;
use simkit::Millis;
use sparksim::profiles;
use yarnsim::{ClusterConfig, FaultConfig};

use crate::Finding;

const CHECKER: &str = "modelcheck";

/// One enumerated configuration.
struct Config {
    name: &'static str,
    nodes: u32,
    apps: u32,
    faults: FaultConfig,
}

fn configs() -> Vec<Config> {
    vec![
        Config {
            name: "1 node, 1 app, no faults",
            nodes: 1,
            apps: 1,
            faults: FaultConfig::default(),
        },
        Config {
            name: "2 nodes, 2 apps, no faults",
            nodes: 2,
            apps: 2,
            faults: FaultConfig::default(),
        },
        Config {
            name: "1 node, 1 app, AM retry",
            nodes: 1,
            apps: 1,
            faults: FaultConfig {
                scripted_am_failures: vec![(1, 1)],
                ..FaultConfig::default()
            },
        },
        Config {
            name: "2 nodes, 2 apps, launch+localization faults",
            nodes: 2,
            apps: 2,
            faults: FaultConfig {
                launch_failure_rate: 0.3,
                localization_failure_rate: 0.3,
                fault_seed: 7,
                ..FaultConfig::default()
            },
        },
    ]
}

/// One observed transition.
struct Obs {
    ts: TsMs,
    from: String,
    to: String,
}

/// Read every machine transition out of `store` through the extractor's
/// transition rows, keyed by `(machine class, entity id)`, in log order.
fn observed_transitions(store: &LogStore) -> BTreeMap<(&'static str, String), Vec<Obs>> {
    let ex = Extractor::new();
    let mut out: BTreeMap<(&'static str, String), Vec<Obs>> = BTreeMap::new();
    for src in store.sources() {
        for r in store.records(src).iter() {
            let read = ex.rules(src).iter().find_map(|row| match row.kind {
                MatchKind::Transition { .. } => Some((row.class?, row.read(r.class, r.message)?)),
                _ => None,
            });
            let Some((class, [entity, from, to, _])) = read else {
                continue;
            };
            out.entry((class, entity.to_string()))
                .or_default()
                .push(Obs {
                    ts: r.ts,
                    from: from.to_string(),
                    to: to.to_string(),
                });
        }
    }
    out
}

/// Replay one entity's transition chain through its machine spec.
fn check_chain(
    cfg_name: &str,
    machine: &MachineSpec,
    entity: &str,
    obs: &[Obs],
    apps_exactly_once: bool,
    findings: &mut Vec<Finding>,
) {
    let initial = machine.states[machine.initial];
    if let Some(first) = obs.first() {
        if first.from != initial {
            findings.push(Finding::new(
                CHECKER,
                format!(
                    "[{cfg_name}] {} {entity}: first transition starts at {} — \
                     expected initial state {initial}",
                    machine.name, first.from
                ),
            ));
        }
    }
    let mut seen: BTreeMap<(String, String), usize> = BTreeMap::new();
    for (i, o) in obs.iter().enumerate() {
        if !machine.legal(&o.from, &o.to) {
            findings.push(Finding::new(
                CHECKER,
                format!(
                    "[{cfg_name}] {} {entity}: logged illegal transition {} -> {}",
                    machine.name, o.from, o.to
                ),
            ));
        }
        if i > 0 {
            let prev = &obs[i - 1];
            if o.from != prev.to {
                findings.push(Finding::new(
                    CHECKER,
                    format!(
                        "[{cfg_name}] {} {entity}: broken chain — transition from {} \
                         after reaching {}",
                        machine.name, o.from, prev.to
                    ),
                ));
            }
            if o.ts < prev.ts {
                findings.push(Finding::new(
                    CHECKER,
                    format!(
                        "[{cfg_name}] {} {entity}: non-monotone timestamps \
                         ({} after {})",
                        machine.name, o.ts, prev.ts
                    ),
                ));
            }
        }
        *seen.entry((o.from.clone(), o.to.clone())).or_default() += 1;
    }
    // Containers are single-use entities: every transition fires at most
    // once. Application machines may legally revisit ACCEPTED/RUNNING
    // under AM retry, so the exactly-once claim only holds fault-free.
    let is_app = machine.name == "RMAppImpl";
    if !is_app || apps_exactly_once {
        for ((from, to), count) in seen {
            if count > 1 {
                findings.push(Finding::new(
                    CHECKER,
                    format!(
                        "[{cfg_name}] {} {entity}: transition {from} -> {to} \
                         logged {count} times (exactly-once violated)",
                        machine.name
                    ),
                ));
            }
        }
    }
}

/// Per-stream timestamp monotonicity: a log file is append-only; the
/// writer's clock can never run backwards within one stream.
fn check_stream_order(cfg_name: &str, store: &LogStore, findings: &mut Vec<Finding>) {
    for src in store.sources() {
        let stamps: Vec<TsMs> = store.records(src).iter().map(|r| r.ts).collect();
        for w in stamps.windows(2) {
            if w[1] < w[0] {
                findings.push(Finding::new(
                    CHECKER,
                    format!(
                        "[{cfg_name}] stream {}: record timestamps go backwards \
                         ({} after {})",
                        src.rel_path(),
                        w[1],
                        w[0]
                    ),
                ));
                break;
            }
        }
    }
}

/// SDchecker's critical path must tile `submitted -> first task`:
/// ordered, contiguous, non-negative segments summing to the total.
fn check_tiling(cfg_name: &str, store: &LogStore, findings: &mut Vec<Finding>) {
    let analysis = sdchecker::analyze_store(store);
    for g in analysis.graphs.values() {
        let Some(cp) = sdchecker::critical_path(g) else {
            continue;
        };
        if cp.segments.is_empty() {
            findings.push(Finding::new(
                CHECKER,
                format!("[{cfg_name}] app {}: critical path has no segments", cp.app),
            ));
            continue;
        }
        let mut sum = 0u64;
        for w in cp.segments.windows(2) {
            if w[1].from != w[0].to {
                findings.push(Finding::new(
                    CHECKER,
                    format!(
                        "[{cfg_name}] app {}: critical path not contiguous — \
                         `{}` ends at {} but `{}` starts at {}",
                        cp.app, w[0].component, w[0].to, w[1].component, w[1].from
                    ),
                ));
            }
        }
        for s in &cp.segments {
            if s.to < s.from {
                findings.push(Finding::new(
                    CHECKER,
                    format!(
                        "[{cfg_name}] app {}: negative segment `{}` ({} -> {})",
                        cp.app, s.component, s.from, s.to
                    ),
                ));
            }
            sum += s.dur_ms();
        }
        if sum != cp.total_ms {
            findings.push(Finding::new(
                CHECKER,
                format!(
                    "[{cfg_name}] app {}: segments sum to {sum} ms but total is {} ms \
                     — the decomposition does not tile the critical path",
                    cp.app, cp.total_ms
                ),
            ));
        }
    }
}

/// Run the bounded model check over all enumerated configurations.
pub fn check() -> Vec<Finding> {
    let mut findings = Vec::new();
    let machines: BTreeMap<&str, MachineSpec> = yarnsim::schema::machines()
        .into_iter()
        .map(|m| (m.name, m))
        .collect();
    for cfg in configs() {
        let faults_on = cfg.faults.any_enabled();
        let cluster = ClusterConfig {
            nodes: cfg.nodes,
            faults: cfg.faults,
            ..ClusterConfig::default()
        };
        let arrivals: Vec<(Millis, sparksim::JobSpec)> = (0..cfg.apps)
            .map(|i| {
                (
                    Millis(100 + 200 * u64::from(i)),
                    profiles::spark_sql_default(256.0, 1),
                )
            })
            .collect();
        let (store, summaries) = sparksim::simulate(cluster, 11, arrivals, Millis::from_mins(240));

        if summaries.len() != cfg.apps as usize {
            findings.push(Finding::new(
                CHECKER,
                format!(
                    "[{}] expected {} job summaries, got {} — the bounded run \
                     did not terminate every application",
                    cfg.name,
                    cfg.apps,
                    summaries.len()
                ),
            ));
        }

        check_stream_order(cfg.name, &store, &mut findings);

        let transitions = observed_transitions(&store);
        if transitions.is_empty() {
            findings.push(Finding::new(
                CHECKER,
                format!(
                    "[{}] no machine transitions observed — vacuous run",
                    cfg.name
                ),
            ));
        }
        for ((class, entity), obs) in &transitions {
            let Some(machine) = machines.get(class) else {
                findings.push(Finding::new(
                    CHECKER,
                    format!("[{}] no machine spec for logged class {class}", cfg.name),
                ));
                continue;
            };
            check_chain(cfg.name, machine, entity, obs, !faults_on, &mut findings);
        }

        check_tiling(cfg.name, &store, &mut findings);
    }
    findings
}

#[cfg(test)]
mod tests {
    #[test]
    fn bounded_model_check_passes() {
        let findings = super::check();
        assert!(findings.is_empty(), "{findings:#?}");
    }
}
