//! Shared corpus builders for the robustness integration tests: a mixed
//! fleet with one clean app, one failed app (AM retried, then attempts
//! exhausted), and one app whose capture simply stops — plus the
//! out-of-band damage a real log collection accumulates (schema drift,
//! corrupt ids, node-loss notices).

use logmodel::{ApplicationId, Epoch, LogSource, LogStore, NodeId, TsMs};

/// Populate `s` with the mixed fleet. Returns the three application ids
/// in (clean, failed, truncated) order.
pub fn populate_faulty_fleet(s: &mut LogStore) -> (ApplicationId, ApplicationId, ApplicationId) {
    populate_faulty_fleet_at(s, 0)
}

/// The mixed fleet as replica `k` of a larger corpus: the same three
/// applications under sequence numbers `3k + 1 ..= 3k + 3`, their clocks
/// `k` × 200 s later, so replicas appended in order keep every stream in
/// time order.
pub fn populate_faulty_fleet_at(
    s: &mut LogStore,
    k: u32,
) -> (ApplicationId, ApplicationId, ApplicationId) {
    let epoch = Epoch::default_run();
    let cts = epoch.unix_ms;
    let rm = LogSource::ResourceManager;
    let t0 = u64::from(k) * 200_000;

    // App 1: a clean, complete run with known delays (total 10.9 s).
    let a1 = ApplicationId::new(cts, 3 * k + 1);
    {
        let a = a1;
        let am = a.attempt(1).container(1);
        let ex = a.attempt(1).container(2);
        let nm = LogSource::NodeManager(NodeId(1));
        s.info(
            rm,
            TsMs(t0 + 100),
            "RMAppImpl",
            format!("{a} State change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED"),
        );
        s.info(
            rm,
            TsMs(t0 + 120),
            "RMAppImpl",
            format!("{a} State change from SUBMITTED to ACCEPTED on event = APP_ACCEPTED"),
        );
        s.info(
            rm,
            TsMs(t0 + 150),
            "RMContainerImpl",
            format!("{am} Container Transitioned from NEW to ALLOCATED"),
        );
        s.info(
            rm,
            TsMs(t0 + 151),
            "RMContainerImpl",
            format!("{am} Container Transitioned from ALLOCATED to ACQUIRED"),
        );
        s.info(
            nm,
            TsMs(t0 + 160),
            "ContainerImpl",
            format!("Container {am} transitioned from NEW to LOCALIZING"),
        );
        s.info(
            nm,
            TsMs(t0 + 700),
            "ContainerImpl",
            format!("Container {am} transitioned from LOCALIZING to SCHEDULED"),
        );
        s.info(
            nm,
            TsMs(t0 + 705),
            "ContainerImpl",
            format!("Container {am} transitioned from SCHEDULED to RUNNING"),
        );
        let drv = LogSource::Driver(a);
        s.info(
            drv,
            TsMs(t0 + 1400),
            "ApplicationMaster",
            "Starting ApplicationMaster for tpch-q01",
        );
        s.info(
            drv,
            TsMs(t0 + 4400),
            "ApplicationMaster",
            "Registered with ResourceManager as attempt",
        );
        s.info(
            rm,
            TsMs(t0 + 4400),
            "RMAppImpl",
            format!("{a} State change from ACCEPTED to RUNNING on event = ATTEMPT_REGISTERED"),
        );
        s.info(
            drv,
            TsMs(t0 + 4401),
            "YarnAllocator",
            "START_ALLO Requesting 1 executor containers",
        );
        s.info(
            rm,
            TsMs(t0 + 4500),
            "RMContainerImpl",
            format!("{ex} Container Transitioned from NEW to ALLOCATED"),
        );
        s.info(
            rm,
            TsMs(t0 + 5400),
            "RMContainerImpl",
            format!("{ex} Container Transitioned from ALLOCATED to ACQUIRED"),
        );
        s.info(
            drv,
            TsMs(t0 + 5400),
            "YarnAllocator",
            "END_ALLO All 1 requested executor containers allocated",
        );
        s.info(
            nm,
            TsMs(t0 + 5420),
            "ContainerImpl",
            format!("Container {ex} transitioned from NEW to LOCALIZING"),
        );
        s.info(
            nm,
            TsMs(t0 + 5920),
            "ContainerImpl",
            format!("Container {ex} transitioned from LOCALIZING to SCHEDULED"),
        );
        s.info(
            nm,
            TsMs(t0 + 5925),
            "ContainerImpl",
            format!("Container {ex} transitioned from SCHEDULED to RUNNING"),
        );
        let exl = LogSource::Executor(ex);
        s.info(
            exl,
            TsMs(t0 + 6625),
            "CoarseGrainedExecutorBackend",
            "Started executor",
        );
        s.info(
            exl,
            TsMs(t0 + 11_000),
            "Executor",
            "Got assigned task 0 in stage 0.0 (TID 0)",
        );
        s.info(
            rm,
            TsMs(t0 + 40_100),
            "RMAppImpl",
            format!(
                "{a} State change from RUNNING to FINAL_SAVING on event = ATTEMPT_UNREGISTERED"
            ),
        );
    }

    // App 2: attempt 1 dies in localization, attempt 2's AM exits with a
    // failure, and with attempts exhausted the app lands in FAILED. The
    // dead attempt-1 container's observed span is the app's wasted delay.
    let a2 = ApplicationId::new(cts, 3 * k + 2);
    {
        let a = a2;
        let b = 60_000;
        let am1 = a.attempt(1).container(1);
        let am2 = a.attempt(2).container(1);
        let nm = LogSource::NodeManager(NodeId(2));
        s.info(
            rm,
            TsMs(t0 + b + 100),
            "RMAppImpl",
            format!("{a} State change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED"),
        );
        s.info(
            rm,
            TsMs(t0 + b + 120),
            "RMAppImpl",
            format!("{a} State change from SUBMITTED to ACCEPTED on event = APP_ACCEPTED"),
        );
        s.info(
            rm,
            TsMs(t0 + b + 150),
            "RMContainerImpl",
            format!("{am1} Container Transitioned from NEW to ALLOCATED"),
        );
        s.info(
            rm,
            TsMs(t0 + b + 151),
            "RMContainerImpl",
            format!("{am1} Container Transitioned from ALLOCATED to ACQUIRED"),
        );
        s.info(
            nm,
            TsMs(t0 + b + 160),
            "ContainerImpl",
            format!("Container {am1} transitioned from NEW to LOCALIZING"),
        );
        s.info(
            nm,
            TsMs(t0 + b + 400),
            "ContainerImpl",
            format!("Container {am1} transitioned from LOCALIZING to LOCALIZATION_FAILED"),
        );
        s.info(
            rm,
            TsMs(t0 + b + 420),
            "RMContainerImpl",
            format!("{am1} Container Transitioned from ACQUIRED to KILLED"),
        );
        s.info(
            rm,
            TsMs(t0 + b + 450),
            "RMAppAttemptImpl",
            format!(
                "{} State change from LAUNCHED to FAILED on event = CONTAINER_FINISHED",
                a.attempt(1)
            ),
        );
        s.info(
            rm,
            TsMs(t0 + b + 500),
            "RMContainerImpl",
            format!("{am2} Container Transitioned from NEW to ALLOCATED"),
        );
        s.info(
            rm,
            TsMs(t0 + b + 501),
            "RMContainerImpl",
            format!("{am2} Container Transitioned from ALLOCATED to ACQUIRED"),
        );
        s.info(
            nm,
            TsMs(t0 + b + 510),
            "ContainerImpl",
            format!("Container {am2} transitioned from NEW to LOCALIZING"),
        );
        s.info(
            nm,
            TsMs(t0 + b + 900),
            "ContainerImpl",
            format!("Container {am2} transitioned from LOCALIZING to SCHEDULED"),
        );
        s.info(
            nm,
            TsMs(t0 + b + 905),
            "ContainerImpl",
            format!("Container {am2} transitioned from SCHEDULED to RUNNING"),
        );
        s.info(
            LogSource::Driver(a),
            TsMs(t0 + b + 1500),
            "ApplicationMaster",
            "Starting ApplicationMaster for tpch-q05",
        );
        s.info(
            nm,
            TsMs(t0 + b + 2000),
            "ContainerImpl",
            format!("Container {am2} transitioned from RUNNING to EXITED_WITH_FAILURE"),
        );
        s.info(
            rm,
            TsMs(t0 + b + 2050),
            "RMAppAttemptImpl",
            format!(
                "{} State change from LAUNCHED to FAILED on event = CONTAINER_FINISHED",
                a.attempt(2)
            ),
        );
        s.info(
            rm,
            TsMs(t0 + b + 2060),
            "RMAppImpl",
            format!("{a} State change from ACCEPTED to FINAL_SAVING on event = ATTEMPT_FAILED"),
        );
        s.info(
            rm,
            TsMs(t0 + b + 2100),
            "RMAppImpl",
            format!("{a} State change from FINAL_SAVING to FAILED on event = APP_UPDATE_SAVED"),
        );
    }

    // App 3: in flight when the collection stops — no terminal evidence.
    let a3 = ApplicationId::new(cts, 3 * k + 3);
    {
        let a = a3;
        let b = 120_000;
        let am = a.attempt(1).container(1);
        let nm = LogSource::NodeManager(NodeId(3));
        s.info(
            rm,
            TsMs(t0 + b + 100),
            "RMAppImpl",
            format!("{a} State change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED"),
        );
        s.info(
            rm,
            TsMs(t0 + b + 120),
            "RMAppImpl",
            format!("{a} State change from SUBMITTED to ACCEPTED on event = APP_ACCEPTED"),
        );
        s.info(
            rm,
            TsMs(t0 + b + 150),
            "RMContainerImpl",
            format!("{am} Container Transitioned from NEW to ALLOCATED"),
        );
        s.info(
            rm,
            TsMs(t0 + b + 151),
            "RMContainerImpl",
            format!("{am} Container Transitioned from ALLOCATED to ACQUIRED"),
        );
        s.info(
            nm,
            TsMs(t0 + b + 160),
            "ContainerImpl",
            format!("Container {am} transitioned from NEW to LOCALIZING"),
        );
        s.info(
            nm,
            TsMs(t0 + b + 700),
            "ContainerImpl",
            format!("Container {am} transitioned from LOCALIZING to SCHEDULED"),
        );
        s.info(
            nm,
            TsMs(t0 + b + 705),
            "ContainerImpl",
            format!("Container {am} transitioned from SCHEDULED to RUNNING"),
        );
        s.info(
            LogSource::Driver(a),
            TsMs(t0 + b + 1400),
            "ApplicationMaster",
            "Starting ApplicationMaster for tpch-q09 and this trailing line will be cut mid-sentence",
        );
    }

    // Out-of-band cluster noise: a lost node (recognized, ignored), a
    // state outside the extraction alphabet (schema drift → unmatched),
    // and a transition-shaped line whose app id does not parse (log
    // damage → anomalous).
    s.info(
        rm,
        TsMs(t0 + 150_000),
        "RMNodeImpl",
        format!("Deactivating Node {} as it is now LOST", NodeId(3)),
    );
    s.info(
        rm,
        TsMs(t0 + 151_000),
        "RMAppImpl",
        format!("{a1} State change from ACCEPTED to ZOMBIE on event = KILL"),
    );
    s.info(
        rm,
        TsMs(t0 + 152_000),
        "RMAppImpl",
        format!(
            "application_{cts}_00xx State change from ACCEPTED to RUNNING on event = ATTEMPT_REGISTERED"
        ),
    );

    (a1, a2, a3)
}
