//! The application side of the emitter↔parser contract: every log
//! message shape the Spark and MapReduce application models can write.
//!
//! The emit sites in [`run`](crate::run) render through these templates;
//! together with `yarnsim::schema` this is the complete vocabulary of a
//! simulated corpus, and `sdlint` cross-checks it against `sdchecker`'s
//! pattern table.

use logmodel::schema::{Disposition, Family, MsgTemplate};

/// Spark driver banner (§III-B message 9; also carries the workload
/// label mined by `extract_app_names`). Capture: app label.
pub(crate) const SPARK_AM_START: MsgTemplate = MsgTemplate {
    name: "spark_am_start",
    class: "ApplicationMaster",
    family: Family::Driver,
    template: "Starting ApplicationMaster for {}",
    disposition: Disposition::Event,
    file: "crates/sparksim/src/run.rs",
};

/// Spark AM registration with the RM (message 10). Capture: attempt id.
pub(crate) const SPARK_AM_REGISTERED: MsgTemplate = MsgTemplate {
    name: "spark_am_registered",
    class: "ApplicationMaster",
    family: Family::Driver,
    template: "Registered with ResourceManager as {}",
    disposition: Disposition::Event,
    file: "crates/sparksim/src/run.rs",
};

/// Allocation-start marker patched into `YarnAllocator` by the paper's
/// authors (message 11). Capture: executor count.
pub(crate) const SPARK_START_ALLO: MsgTemplate = MsgTemplate {
    name: "spark_start_allo",
    class: "YarnAllocator",
    family: Family::Driver,
    template: "START_ALLO Requesting {} executor containers",
    disposition: Disposition::Event,
    file: "crates/sparksim/src/run.rs",
};

/// Allocation-end marker (message 12). Capture: executor count.
pub(crate) const SPARK_END_ALLO: MsgTemplate = MsgTemplate {
    name: "spark_end_allo",
    class: "YarnAllocator",
    family: Family::Driver,
    template: "END_ALLO All {} requested executor containers allocated",
    disposition: Disposition::Event,
    file: "crates/sparksim/src/run.rs",
};

/// Executor's first log line (message 13) — consumed positionally.
/// Captures: app id, node id.
pub(crate) const SPARK_EXECUTOR_STARTED: MsgTemplate = MsgTemplate {
    name: "spark_executor_started",
    class: "CoarseGrainedExecutorBackend",
    family: Family::Executor,
    template: "Started executor for {} on {}",
    disposition: Disposition::Positional,
    file: "crates/sparksim/src/run.rs",
};

/// Task assignment (message 14). Captures: task id, stage index, TID
/// (the task id again — Spark prints it twice).
pub(crate) const SPARK_TASK_ASSIGNED: MsgTemplate = MsgTemplate {
    name: "spark_task_assigned",
    class: "Executor",
    family: Family::Executor,
    template: "Got assigned task {} in stage {}.0 (TID {})",
    disposition: Disposition::Event,
    file: "crates/sparksim/src/run.rs",
};

/// Clean Spark application end. Capture: app label.
pub(crate) const SPARK_APP_SUCCEEDED: MsgTemplate = MsgTemplate {
    name: "spark_app_succeeded",
    class: "ApplicationMaster",
    family: Family::Driver,
    template: "Final app status: SUCCEEDED for {}",
    disposition: Disposition::Noise,
    file: "crates/sparksim/src/run.rs",
};

/// Failed Spark application end (AM retries exhausted). Capture: label.
pub(crate) const SPARK_APP_FAILED: MsgTemplate = MsgTemplate {
    name: "spark_app_failed",
    class: "ApplicationMaster",
    family: Family::Driver,
    template: "Final app status: FAILED for {}",
    disposition: Disposition::Noise,
    file: "crates/sparksim/src/run.rs",
};

/// MapReduce driver banner — consumed positionally. Capture: app id.
pub(crate) const MR_AM_START: MsgTemplate = MsgTemplate {
    name: "mr_am_start",
    class: "MRAppMaster",
    family: Family::Driver,
    template: "Created MRAppMaster for application {}",
    disposition: Disposition::Positional,
    file: "crates/sparksim/src/run.rs",
};

/// MapReduce AM registration (no attempt id — MR v2 logs the bare
/// phrase). Zero captures.
pub(crate) const MR_AM_REGISTERED: MsgTemplate = MsgTemplate {
    name: "mr_am_registered",
    class: "MRAppMaster",
    family: Family::Driver,
    template: "Registered with ResourceManager",
    disposition: Disposition::Event,
    file: "crates/sparksim/src/run.rs",
};

/// MR task container's first log line — consumed positionally.
/// Captures: app id, node id.
pub(crate) const MR_TASK_STARTED: MsgTemplate = MsgTemplate {
    name: "mr_task_started",
    class: "YarnChild",
    family: Family::Executor,
    template: "Starting task for {} on {}",
    disposition: Disposition::Positional,
    file: "crates/sparksim/src/run.rs",
};

/// Clean MapReduce job end. Capture: job label.
pub(crate) const MR_JOB_SUCCEEDED: MsgTemplate = MsgTemplate {
    name: "mr_job_succeeded",
    class: "MRAppMaster",
    family: Family::Driver,
    template: "Job {} completed successfully",
    disposition: Disposition::Noise,
    file: "crates/sparksim/src/run.rs",
};

/// Failed MapReduce job end. Capture: job label.
pub(crate) const MR_JOB_FAILED: MsgTemplate = MsgTemplate {
    name: "mr_job_failed",
    class: "MRAppMaster",
    family: Family::Driver,
    template: "Job {} failed with state FAILED",
    disposition: Disposition::Noise,
    file: "crates/sparksim/src/run.rs",
};

/// Every message shape the application models can write, in one table.
pub const EMITTED: [MsgTemplate; 13] = [
    SPARK_AM_START,
    SPARK_AM_REGISTERED,
    SPARK_START_ALLO,
    SPARK_END_ALLO,
    SPARK_EXECUTOR_STARTED,
    SPARK_TASK_ASSIGNED,
    SPARK_APP_SUCCEEDED,
    SPARK_APP_FAILED,
    MR_AM_START,
    MR_AM_REGISTERED,
    MR_TASK_STARTED,
    MR_JOB_SUCCEEDED,
    MR_JOB_FAILED,
];

/// The emitted-template table (the application half; `yarnsim::schema`
/// holds the cluster half).
pub fn emitted_templates() -> &'static [MsgTemplate] {
    &EMITTED
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_are_well_formed() {
        for t in emitted_templates() {
            assert!(!t.name.is_empty());
            assert!(!t.template.contains("{}{}"), "{}", t.name);
        }
        let mut names: Vec<&str> = EMITTED.iter().map(|t| t.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EMITTED.len());
    }

    #[test]
    fn templates_render_the_historical_phrasings() {
        assert_eq!(
            SPARK_START_ALLO.msg(&[&8]),
            "START_ALLO Requesting 8 executor containers"
        );
        assert_eq!(
            SPARK_TASK_ASSIGNED.msg(&[&3, &0, &3]),
            "Got assigned task 3 in stage 0.0 (TID 3)"
        );
        assert_eq!(MR_AM_REGISTERED.holes(), 0);
        assert_eq!(MR_AM_REGISTERED.msg(&[]), "Registered with ResourceManager");
    }
}
