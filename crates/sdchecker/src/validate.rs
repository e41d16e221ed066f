//! Corpus validation: sanity-check a log corpus before trusting its
//! delay decomposition.
//!
//! Scheduling evidence spans multiple machines' logs (RM, NMs, drivers,
//! executors), so the analysis silently depends on cluster-wide clock
//! agreement — the paper's testbed dedicates a node as an NTP server for
//! exactly this reason (§IV-A). This module detects the failure modes a
//! real deployment hits:
//!
//! * **ordering violations** — a causally later state logged with an
//!   earlier timestamp (clock skew between daemons, or log truncation);
//! * **duplicate transitions** — the same state reached twice (log
//!   duplication; app-scoped repeats are expected and tolerated when the
//!   graph shows a retried AM attempt);
//! * **broken chains** — a state reached without its prerequisite ever
//!   appearing (lost log files).
//!
//! Anomalies are reported, not fixed: SDchecker's delays are only as good
//! as the timestamps, so the right reaction to a skewed corpus is to fix
//! the collection, not to analyze around it.

use logmodel::schema::Family;
use logmodel::{ApplicationId, ContainerId};

use crate::event::EventKind;
use crate::extract::ParseCoverage;
use crate::graph::{ContainerTrack, SchedulingGraph};
use crate::schema::{emitter, has_transitions};

/// What went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnomalyKind {
    /// `later` was logged before `earlier` despite being causally after.
    OrderingViolation {
        /// The prerequisite event.
        earlier: EventKind,
        /// The dependent event.
        later: EventKind,
        /// Negative gap in ms (how far "later" precedes "earlier").
        skew_ms: u64,
    },
    /// The same event kind appears more than once for one entity.
    DuplicateEvent {
        /// The repeated kind.
        kind: EventKind,
        /// Occurrence count.
        count: usize,
    },
    /// `dependent` appears but its prerequisite never does.
    MissingPrerequisite {
        /// The absent event.
        missing: EventKind,
        /// The event that requires it.
        dependent: EventKind,
    },
}

/// One detected anomaly, bound to its entity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Anomaly {
    /// Owning application.
    pub app: ApplicationId,
    /// Container, when container-scoped.
    pub container: Option<ContainerId>,
    /// What was detected.
    pub kind: AnomalyKind,
}

/// Causal orderings within one application's app-scoped events.
const APP_CHAIN: [(EventKind, EventKind); 6] = [
    (EventKind::AppSubmitted, EventKind::AppAccepted),
    (EventKind::AppAccepted, EventKind::AttemptRegistered),
    (EventKind::AttemptRegistered, EventKind::AppUnregistered),
    (EventKind::DriverFirstLog, EventKind::DriverRegistered),
    (EventKind::DriverRegistered, EventKind::StartAllo),
    (EventKind::StartAllo, EventKind::EndAllo),
];

/// Causal orderings within one container's events. RM-side and NM-side
/// pairs cross log files, so these are the clock-skew detectors.
const CONTAINER_CHAIN: [(EventKind, EventKind); 6] = [
    (EventKind::ContainerAllocated, EventKind::ContainerAcquired),
    (EventKind::ContainerAcquired, EventKind::ContainerLocalizing),
    (
        EventKind::ContainerLocalizing,
        EventKind::ContainerScheduled,
    ),
    (EventKind::ContainerScheduled, EventKind::ContainerNmRunning),
    (EventKind::ContainerNmRunning, EventKind::ExecutorFirstLog),
    (EventKind::ExecutorFirstLog, EventKind::TaskAssigned),
];

/// Event kinds that legitimately repeat.
fn may_repeat(kind: EventKind) -> bool {
    matches!(kind, EventKind::TaskAssigned)
}

/// App-scoped kinds that legitimately repeat when the AM was retried:
/// the RM bounces the app back to ACCEPTED and the whole
/// registration/allocation protocol replays under the new attempt.
fn may_repeat_on_retry(kind: EventKind) -> bool {
    matches!(
        kind,
        EventKind::AppAccepted
            | EventKind::AttemptRegistered
            | EventKind::DriverRegistered
            | EventKind::StartAllo
            | EventKind::EndAllo
    )
}

fn check_chain<'c>(
    app: ApplicationId,
    container: Option<ContainerId>,
    firsts: impl Fn(EventKind) -> Option<logmodel::TsMs>,
    chain: impl IntoIterator<Item = &'c (EventKind, EventKind)>,
    out: &mut Vec<Anomaly>,
) {
    for (earlier, later) in chain {
        match (firsts(*earlier), firsts(*later)) {
            (Some(te), Some(tl)) if tl < te => out.push(Anomaly {
                app,
                container,
                kind: AnomalyKind::OrderingViolation {
                    earlier: *earlier,
                    later: *later,
                    skew_ms: te.since(tl),
                },
            }),
            (None, Some(_)) => out.push(Anomaly {
                app,
                container,
                kind: AnomalyKind::MissingPrerequisite {
                    missing: *earlier,
                    dependent: *later,
                },
            }),
            _ => {}
        }
    }
}

fn check_duplicates(
    app: ApplicationId,
    container: Option<ContainerId>,
    events: &[(EventKind, logmodel::TsMs)],
    retried: bool,
    out: &mut Vec<Anomaly>,
) {
    // Counted into an array indexed by the kind's position in
    // `EventKind::ALL` (no map per entity: a clean corpus allocates
    // nothing here). Duplicates are emitted in Debug-name order —
    // `EventKind::name` is the Debug name — which is the order the
    // goldens were built against.
    let mut counts = [0usize; EventKind::ALL.len()];
    for (k, _) in events {
        counts[k.index()] += 1;
    }
    let mut dups: Vec<(EventKind, usize)> = EventKind::ALL
        .into_iter()
        .zip(counts)
        .filter(|(k, c)| *c > 1 && !may_repeat(*k) && !(retried && may_repeat_on_retry(*k)))
        .collect();
    dups.sort_by_key(|(k, _)| k.name());
    for (kind, count) in dups {
        out.push(Anomaly {
            app,
            container,
            kind: AnomalyKind::DuplicateEvent { kind, count },
        });
    }
}

fn container_firsts(track: &ContainerTrack) -> impl Fn(EventKind) -> Option<logmodel::TsMs> + '_ {
    move |k| track.first(k)
}

/// Validate one application's scheduling graph.
pub fn validate_graph(g: &SchedulingGraph) -> Vec<Anomaly> {
    let mut out = Vec::new();
    let retried = g.last_attempt() > 1;
    check_chain(g.app, None, |k| g.first(k), &APP_CHAIN, &mut out);
    check_duplicates(g.app, None, &g.app_events, retried, &mut out);
    for track in g.containers.values() {
        // The AM container has no executor log: skip the links to the
        // kinds that log writes.
        let am = track.is_am();
        let chain = CONTAINER_CHAIN.iter().filter(|&&(earlier, later)| {
            !am || ![earlier, later]
                .into_iter()
                .any(|k| emitter(k).is_some_and(|row| row.family == Family::Executor))
        });
        check_chain(
            g.app,
            Some(track.cid),
            container_firsts(track),
            chain,
            &mut out,
        );
        check_duplicates(g.app, Some(track.cid), &track.events, false, &mut out);
    }
    out
}

/// Validate every application in an analysis.
pub fn validate_all<'a>(graphs: impl IntoIterator<Item = &'a SchedulingGraph>) -> Vec<Anomaly> {
    graphs.into_iter().flat_map(validate_graph).collect()
}

/// Warnings for incomplete parse coverage of the families with transition
/// rows (the RM/NM state transitions every delay component is computed
/// from). Below-100% coverage there means the extraction rules no longer
/// understand the log format — new states, changed message shapes — and
/// delays may be computed from an incomplete event set.
pub(crate) fn coverage_warnings(cov: &ParseCoverage) -> Vec<String> {
    let mut out = Vec::new();
    for family in Family::ALL.into_iter().filter(|&f| has_transitions(f)) {
        let c = cov.get(family);
        if c.unmatched > 0 {
            let mut warning = format!(
                "coverage warning: {} understood {:.1}% of scheduling-relevant lines \
                 ({} unmatched of {}) — extraction rules may be out of date",
                family.name(),
                100.0 * c.coverage(),
                c.unmatched,
                c.matched + c.unmatched + c.anomalous,
            );
            // Name the known rule the drifted lines most resemble, so the
            // report says *which* message shape changed, not just that
            // something did.
            if let Some(example) = cov.unmatched_example(family) {
                match crate::schema::closest_pattern(crate::schema::patterns(), example) {
                    Some((rule, score)) if score >= 0.5 => {
                        warning.push_str(&format!(
                            "; e.g. {example:?} resembles rule `{}` ({})",
                            rule.name,
                            rule.kind_text(),
                        ));
                    }
                    _ => warning.push_str(&format!("; e.g. {example:?} resembles no known rule")),
                }
            }
            out.push(warning);
        }
        if c.anomalous > 0 {
            out.push(format!(
                "coverage warning: {} has {} transition-shaped lines with corrupt ids \
                 — log damage suspected; affected events are missing from the analysis",
                family.name(),
                c.anomalous,
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::tests::ev;
    use crate::event::SchedEvent;
    use crate::graph::build_graphs;
    use logmodel::{LogSource, TsMs};

    const CTS: u64 = 1_521_018_000_000;

    fn graph(evs: Vec<SchedEvent>) -> SchedulingGraph {
        let app = evs[0].app;
        build_graphs(&evs).remove(&app).unwrap()
    }

    #[test]
    fn clean_chain_is_clean() {
        let a = ApplicationId::new(CTS, 1);
        let c = a.attempt(1).container(2);
        use EventKind::*;
        let g = graph(vec![
            ev(1, AppSubmitted, a, None),
            ev(2, AppAccepted, a, None),
            ev(100, AttemptRegistered, a, None),
            ev(110, ContainerAllocated, a, Some(c)),
            ev(120, ContainerAcquired, a, Some(c)),
            ev(130, ContainerLocalizing, a, Some(c)),
            ev(600, ContainerScheduled, a, Some(c)),
            ev(610, ContainerNmRunning, a, Some(c)),
            ev(1300, ExecutorFirstLog, a, Some(c)),
            ev(5000, TaskAssigned, a, Some(c)),
            ev(5001, TaskAssigned, a, Some(c)), // tasks may repeat
        ]);
        assert_eq!(validate_graph(&g), vec![]);
    }

    #[test]
    fn detects_clock_skew_between_rm_and_nm() {
        let a = ApplicationId::new(CTS, 1);
        let c = a.attempt(1).container(2);
        use EventKind::*;
        // NM clock is 400 ms behind: LOCALIZING logged "before" ACQUIRED.
        // (Events arrive globally time-sorted, as extract_all_cov_with produces
        // them; the skew shows up as a causal-order violation.)
        let g = graph(vec![
            ev(1000, ContainerAllocated, a, Some(c)),
            ev(1100, ContainerLocalizing, a, Some(c)),
            ev(1500, ContainerAcquired, a, Some(c)),
        ]);
        let anomalies = validate_graph(&g);
        assert_eq!(anomalies.len(), 1);
        assert_eq!(
            anomalies[0].kind,
            AnomalyKind::OrderingViolation {
                earlier: ContainerAcquired,
                later: ContainerLocalizing,
                skew_ms: 400,
            }
        );
        assert_eq!(anomalies[0].container, Some(c));
    }

    #[test]
    fn detects_duplicates_and_missing_prerequisites() {
        let a = ApplicationId::new(CTS, 1);
        use EventKind::*;
        let g = graph(vec![
            ev(1, AppSubmitted, a, None),
            ev(2, AppSubmitted, a, None),      // duplicated SUBMITTED
            ev(3, AttemptRegistered, a, None), // ACCEPTED missing
        ]);
        let anomalies = validate_graph(&g);
        assert!(
            anomalies.iter().any(|x| matches!(
                x.kind,
                AnomalyKind::DuplicateEvent {
                    kind: AppSubmitted,
                    count: 2
                }
            )),
            "{anomalies:?}"
        );
        assert!(
            anomalies.iter().any(|x| matches!(
                x.kind,
                AnomalyKind::MissingPrerequisite {
                    missing: AppAccepted,
                    dependent: AttemptRegistered
                }
            )),
            "{anomalies:?}"
        );
    }

    #[test]
    fn duplicates_are_emitted_in_debug_name_order() {
        let a = ApplicationId::new(CTS, 1);
        let c = a.attempt(1).container(2);
        use EventKind::*;
        // Declaration (`ALL`) order would be Allocated, Acquired,
        // Localizing, Done; the goldens hold Debug-name order.
        let mut evs = Vec::new();
        for (ts, kind) in [
            (1, ContainerAllocated),
            (2, ContainerAcquired),
            (3, ContainerLocalizing),
            (4, ContainerDone),
        ] {
            evs.push(ev(ts, kind, a, Some(c)));
            evs.push(ev(ts, kind, a, Some(c)));
        }
        evs.push(ev(9, TaskAssigned, a, Some(c)));
        evs.push(ev(9, TaskAssigned, a, Some(c)));
        let kinds: Vec<EventKind> = validate_graph(&graph(evs))
            .into_iter()
            .filter_map(|x| match x.kind {
                AnomalyKind::DuplicateEvent { kind, count: 2 } => Some(kind),
                _ => None,
            })
            .collect();
        assert_eq!(
            kinds,
            [
                ContainerAcquired,
                ContainerAllocated,
                ContainerDone,
                ContainerLocalizing
            ]
        );
    }

    #[test]
    fn am_container_not_required_to_have_executor_log() {
        let a = ApplicationId::new(CTS, 1);
        let am = a.attempt(1).container(1);
        use EventKind::*;
        let g = graph(vec![
            ev(10, ContainerAllocated, a, Some(am)),
            ev(11, ContainerAcquired, a, Some(am)),
            ev(20, ContainerLocalizing, a, Some(am)),
            ev(600, ContainerScheduled, a, Some(am)),
            ev(605, ContainerNmRunning, a, Some(am)),
        ]);
        assert_eq!(validate_graph(&g), vec![]);
    }

    #[test]
    fn coverage_warnings_fire_only_on_relevant_unmatched() {
        use crate::extract::CoverageCounts;
        let mut cov = ParseCoverage::default();
        cov.record(
            Family::ResourceManager,
            CoverageCounts {
                matched: 3,
                unmatched: 1,
                anomalous: 0,
                ignored: 10,
            },
        );
        cov.record(
            Family::Driver,
            CoverageCounts {
                matched: 1,
                unmatched: 5, // not scheduling-relevant: no warning
                anomalous: 0,
                ignored: 0,
            },
        );
        let warnings = coverage_warnings(&cov);
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].contains("resourcemanager"), "{warnings:?}");
        assert!(warnings[0].contains("75.0%"), "{warnings:?}");
        // Full coverage: silence.
        let mut clean = ParseCoverage::default();
        clean.record(
            Family::NodeManager,
            CoverageCounts {
                matched: 7,
                unmatched: 0,
                anomalous: 0,
                ignored: 2,
            },
        );
        assert!(coverage_warnings(&clean).is_empty());
        assert!(coverage_warnings(&ParseCoverage::default()).is_empty());
    }

    #[test]
    fn drift_warning_names_the_nearest_rule() {
        use crate::extract::CoverageCounts;
        let mut cov = ParseCoverage::default();
        cov.record(
            Family::ResourceManager,
            CoverageCounts {
                matched: 9,
                unmatched: 1,
                anomalous: 0,
                ignored: 0,
            },
        );
        cov.offer_unmatched_example(
            LogSource::ResourceManager,
            "app_1 State change from ACCEPTED to WAITING on event = APP_PAUSED",
        );
        let warnings = coverage_warnings(&cov);
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(
            warnings[0].contains("resembles rule `rm_app_transition`"),
            "{warnings:?}"
        );
        assert!(warnings[0].contains("WAITING"), "{warnings:?}");

        // An example resembling nothing says so instead of guessing.
        let mut far = ParseCoverage::default();
        far.record(
            Family::NodeManager,
            CoverageCounts {
                matched: 1,
                unmatched: 1,
                anomalous: 0,
                ignored: 0,
            },
        );
        far.offer_unmatched_example(LogSource::NodeManager(logmodel::NodeId(1)), "gibberish");
        let warnings = coverage_warnings(&far);
        assert!(
            warnings[0].contains("resembles no known rule"),
            "{warnings:?}"
        );
    }

    #[test]
    fn anomalous_ids_raise_a_damage_warning() {
        use crate::extract::CoverageCounts;
        let mut cov = ParseCoverage::default();
        cov.record(
            Family::NodeManager,
            CoverageCounts {
                matched: 10,
                unmatched: 0,
                anomalous: 3,
                ignored: 0,
            },
        );
        let warnings = coverage_warnings(&cov);
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].contains("corrupt ids"), "{warnings:?}");
        assert!(warnings[0].contains("nodemanager"), "{warnings:?}");
    }

    #[test]
    fn retried_app_duplicates_are_tolerated() {
        let a = ApplicationId::new(CTS, 7);
        let am1 = a.attempt(1).container(1);
        let am2 = a.attempt(2).container(1);
        use EventKind::*;
        // AM retry: ACCEPTED and the registration replay appear twice at
        // the app scope; the attempt-2 container id marks the graph as
        // retried, so no duplicate anomaly may fire for them.
        let g = graph(vec![
            ev(1, AppSubmitted, a, None),
            ev(2, AppAccepted, a, None),
            ev(10, ContainerAllocated, a, Some(am1)),
            ev(100, AttemptRegistered, a, None),
            ev(200, AppAccepted, a, None), // bounced back on ATTEMPT_FAILED
            ev(210, ContainerAllocated, a, Some(am2)),
            ev(300, AttemptRegistered, a, None),
        ]);
        assert_eq!(validate_graph(&g), vec![]);

        // The same duplicates in a single-attempt graph are still flagged.
        let b = ApplicationId::new(CTS, 8);
        let bam = b.attempt(1).container(1);
        let g = graph(vec![
            ev(1, AppSubmitted, b, None),
            ev(2, AppAccepted, b, None),
            ev(10, ContainerAllocated, b, Some(bam)),
            ev(100, AttemptRegistered, b, None),
            ev(200, AppAccepted, b, None),
        ]);
        let anomalies = validate_graph(&g);
        assert!(
            anomalies.iter().any(|x| matches!(
                x.kind,
                AnomalyKind::DuplicateEvent {
                    kind: AppAccepted,
                    count: 2
                }
            )),
            "{anomalies:?}"
        );
    }

    #[test]
    fn simulated_corpora_are_always_clean() {
        // The simulator is causally consistent by construction; validation
        // over a full corpus must find nothing.
        let mut store = logmodel::LogStore::new(logmodel::Epoch::default_run());
        let a = ApplicationId::new(CTS, 3);
        store.info(
            LogSource::ResourceManager,
            TsMs(5),
            "RMAppImpl",
            format!("{a} State change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED"),
        );
        store.info(
            LogSource::ResourceManager,
            TsMs(9),
            "RMAppImpl",
            format!("{a} State change from SUBMITTED to ACCEPTED on event = APP_ACCEPTED"),
        );
        let an = crate::analyze_store(&store);
        assert!(validate_all(an.graphs.values()).is_empty());
    }
}
