//! The simulator stops when the cluster does, and stopping there is exact.
//!
//! `Engine::run_until` ends a `World` run once only idle NodeManager
//! heartbeats are queued and the scheduler backlog is empty. These tests
//! run fixed scenarios to that point, then keep stepping the same engine
//! by hand (`run_capped` ignores quiescence) and check that not one log
//! record or job summary appears. A counted bound on the events of a fixed
//! stream catches a simulator that idles to its horizon again or re-arms
//! stale resource ticks. Each scenario's bytes are pinned by a digest,
//! recorded while every emit site still wrote its text straight into the
//! log store, so the typed lines that replaced them are held to the same
//! bytes and no later change to how the simulator writes its logs can
//! alter them unnoticed.

use simkit::{Engine, Millis, SimRng};
use sparksim::{profiles, JobSpec, World};
use workloads::{merge, shifted, tpch_stream, TraceParams};
use yarnsim::{ClusterConfig, FaultConfig};

/// The safety net `simulate`'s callers pass.
const HORIZON: Millis = Millis(24 * 60 * 60 * 1000);

/// Events stepped past the stop.
const OVERRUN: u64 = 100_000;

fn tpch(n: usize, seed: u64) -> Vec<(Millis, JobSpec)> {
    tpch_stream(
        n,
        2048.0,
        4,
        &TraceParams::moderate(),
        &mut SimRng::new(seed),
    )
}

/// Everything a run leaves behind: every rendered log line, and per job
/// its app, label, kind, submit and finish times, and outcome.
fn snapshot(engine: &Engine<World>) -> (Vec<String>, Vec<String>) {
    let world = engine.model();
    let logs = &world.logs;
    let lines = logs.sources().flat_map(|src| logs.text(src).lines());
    let lines = lines.map(str::to_string).collect();
    let jobs = world
        .summaries
        .iter()
        .map(|s| {
            format!(
                "{} {} {} {} {} {}",
                s.app, s.label, s.kind, s.submitted_at, s.finished_at, s.failed
            )
        })
        .collect();
    (lines, jobs)
}

/// FNV-1a over a snapshot: every rendered line, then every job summary,
/// each ended by a newline.
fn digest((lines, jobs): &(Vec<String>, Vec<String>)) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in lines
        .iter()
        .chain(jobs)
        .flat_map(|s| s.bytes().chain([b'\n']))
    {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Run to the stop, check the run's bytes against `expected` (a
/// [`digest`]), then run `OVERRUN` events further and assert nothing was
/// added. Returns when the run stopped, and the world.
fn stop_is_exact(
    cfg: ClusterConfig,
    seed: u64,
    arrivals: Vec<(Millis, JobSpec)>,
    expected: u64,
) -> (Millis, World) {
    let jobs = arrivals.len();
    let mut engine = World::engine(cfg, seed, arrivals);
    engine.run_until(HORIZON);
    let stopped_at = engine.now();
    assert!(stopped_at < HORIZON, "the run idled to its horizon");
    assert_eq!(engine.model().jobs_submitted(), jobs as u64);
    let before = snapshot(&engine);
    assert!(!before.0.is_empty());
    let got = digest(&before);
    assert_eq!(got, expected, "the simulated bytes changed: {got:#018x}");

    assert_eq!(engine.run_capped(OVERRUN), OVERRUN, "heartbeats go on");
    assert!(engine.now() > stopped_at);
    let after = snapshot(&engine);
    assert_eq!(before.0.len(), after.0.len(), "a record after the stop");
    assert_eq!(before, after);
    (stopped_at, engine.into_model())
}

#[test]
fn tpch_stream_stops_exactly() {
    // A MapReduce job alone on the cluster after the stream: between its
    // stages it waits on nothing but its AM's heartbeat, which must count
    // as foreground work.
    let (_, world) = stop_is_exact(
        ClusterConfig::default(),
        3,
        merge(vec![
            tpch(12, 3),
            vec![(Millis(1_000_000), profiles::mr_wordcount(1024.0))],
        ]),
        0x2c02_d8ec_7a3c_8702,
    );
    assert_eq!(world.summaries.len(), 13);
}

#[test]
fn fault_injected_run_stops_exactly() {
    // Launch and localization failures, a node lost mid-run, another lost
    // after the last job (a queued fault is foreground work), and an AM
    // attempt scripted to fail so application 2 retries.
    let cfg = ClusterConfig {
        faults: FaultConfig {
            launch_failure_rate: 0.1,
            localization_failure_rate: 0.05,
            node_loss: vec![(Millis(60_000), 3), (Millis(2_000_000), 7)],
            scripted_am_failures: vec![(2, 1)],
            fault_seed: 7,
            ..FaultConfig::default()
        },
        ..ClusterConfig::default()
    };
    let (stopped_at, world) = stop_is_exact(cfg, 5, tpch(12, 5), 0x2171_a26e_daea_4374);
    assert_eq!(stopped_at, Millis(2_000_000), "the late node loss ran");
    assert_eq!(world.summaries.len(), 12);
    let faults = world.cluster.fault_counts();
    assert_eq!(faults.nodes_lost, 2);
    assert!(faults.am_retries >= 1, "{faults:?}");
    assert!(
        faults.launch_failures + faults.localization_failures > 0,
        "{faults:?}"
    );
}

#[test]
fn opportunistic_run_with_dfsio_writers_stops_exactly() {
    let arrivals = merge(vec![
        vec![(Millis::ZERO, profiles::dfsio(20, 2.0))],
        shifted(tpch(8, 9), Millis(20_000)),
    ]);
    let cfg = ClusterConfig::default().with_opportunistic();
    let (_, world) = stop_is_exact(cfg, 9, arrivals, 0x393c_c81c_8079_b07a);
    assert_eq!(world.summaries.len(), 9);
}

/// Engine events for the benchmark corpus's TPC-H stream at 50
/// applications, seed 1, counted when this bound was set: 11 722 of them
/// NM heartbeats, 6 809 resource ticks. Before the simulator stopped at
/// quiescence and dropped stale resource ticks, the same run took
/// 2 192 505 events, most of them NM heartbeats idling on to the 24 h
/// horizon and duplicate ticks re-armed from stale ones.
const EVENTS_50_APPS: u64 = 21_419;

#[test]
fn fifty_app_stream_stays_within_its_event_count() {
    let mut engine = World::engine(ClusterConfig::default(), 1, tpch(50, 1));
    engine.run_until(HORIZON);
    assert_eq!(engine.model().summaries.len(), 50);
    let events = engine.processed();
    assert!(
        events <= EVENTS_50_APPS,
        "{events} engine events for 50 apps, bound {EVENTS_50_APPS}: \
         is the run idling to its horizon, or re-arming stale ticks?"
    );
}
