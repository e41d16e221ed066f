//! # logmodel — YARN/Spark log syntax, global IDs, and log stores
//!
//! This crate owns everything about log *syntax* shared between the
//! simulator (which writes logs) and SDchecker (which mines them):
//!
//! * the global identifiers YARN stamps into every message —
//!   [`ApplicationId`], [`AppAttemptId`], [`ContainerId`], [`NodeId`] —
//!   with their exact on-the-wire string formats and parsers;
//! * the log4j line format (`timestamp LEVEL class: message`, ISO-8601
//!   timestamps with millisecond precision, the precision SDchecker works
//!   at per §III-A of the paper);
//! * [`LogStore`], each source's log text, flushed to / re-read from a
//!   directory tree shaped like a real cluster's log collection
//!   (`resourcemanager.log`, one NodeManager log per node, per-application
//!   driver/executor logs) and read through that tree's loop in memory.
//!
//! SDchecker itself never links against the simulator: it consumes log
//! *text* through this crate's parsers, exactly as the paper's tool
//! consumes collected log files.

mod corrupt;
pub mod format;
mod ids;
pub mod par;
mod read;
mod record;
pub mod schema;
mod store;

pub use corrupt::{corrupt_dir, CorruptConfig};
pub use format::{
    carry_lines, format_line, format_timestamp, parse_line, parse_line_ref, parse_timestamp, Epoch,
    READ_CHUNK,
};
pub use ids::{AppAttemptId, ApplicationId, ContainerId, NodeId};
pub use par::Parallelism;
pub use read::{list_dir, read_epoch, read_records, Entry, ReadCounts, MAX_HELD_LINE};
pub use record::{Level, LogRecord, LogSource, RecordRef};
pub use store::{scan_dir, LogStore, Records, SourceScan};

/// Millisecond time offset from the run's epoch. Mirrors `simkit::Millis`
/// but is redeclared here so sdchecker does not need to depend on the
/// simulation engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TsMs(pub u64);

impl TsMs {
    /// Zero offset.
    pub const ZERO: TsMs = TsMs(0);

    /// Difference `self - earlier`, saturating at zero.
    pub fn since(self, earlier: TsMs) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    /// As fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }
}

/// In a JSON document an instant is its milliseconds.
impl obs::json::Value for TsMs {
    fn push_json(&self, out: &mut String) {
        obs::json::push_u64(out, self.0);
    }
}

impl std::fmt::Display for TsMs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}ms", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tsms_since_saturates() {
        assert_eq!(TsMs(10).since(TsMs(3)), 7);
        assert_eq!(TsMs(3).since(TsMs(10)), 0);
    }

    #[test]
    fn tsms_secs() {
        assert_eq!(TsMs(2500).as_secs_f64(), 2.5);
    }
}
