//! Log records and log sources.

use crate::ids::{ApplicationId, ContainerId, NodeId};
use crate::schema::Family;
use crate::TsMs;
use std::fmt;

/// log4j severity level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Level {
    /// DEBUG
    Debug,
    /// INFO — the level all scheduling state transitions are logged at.
    Info,
    /// WARN
    Warn,
    /// ERROR
    Error,
}

impl Level {
    /// The fixed-width token used in log lines.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Debug => "DEBUG",
            Level::Info => "INFO",
            Level::Warn => "WARN",
            Level::Error => "ERROR",
        }
    }

    /// Parse a level token.
    pub fn parse(s: &str) -> Option<Level> {
        match s {
            "DEBUG" => Some(Level::Debug),
            "INFO" => Some(Level::Info),
            "WARN" => Some(Level::Warn),
            "ERROR" => Some(Level::Error),
            _ => None,
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // `pad` (not `write_str`) so `{:<5}` aligns the class column.
        f.pad(self.as_str())
    }
}

/// Which log file a record belongs to. Mirrors the log collection layout of
/// a real cluster: one ResourceManager log, one NodeManager log per node,
/// and per-application driver/executor logs (what `yarn logs -applicationId`
/// would aggregate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LogSource {
    /// The ResourceManager daemon log.
    ResourceManager,
    /// A NodeManager daemon log.
    NodeManager(NodeId),
    /// A Spark driver / MapReduce AppMaster container log.
    Driver(ApplicationId),
    /// A Spark executor / MapReduce task container log.
    Executor(ContainerId),
}

impl LogSource {
    /// The family of logs the source belongs to.
    pub fn family(&self) -> Family {
        match self {
            LogSource::ResourceManager => Family::ResourceManager,
            LogSource::NodeManager(_) => Family::NodeManager,
            LogSource::Driver(_) => Family::Driver,
            LogSource::Executor(_) => Family::Executor,
        }
    }

    /// Relative file path used when flushing a [`crate::LogStore`] to disk.
    pub fn rel_path(&self) -> String {
        match self {
            LogSource::ResourceManager => "resourcemanager.log".to_string(),
            LogSource::NodeManager(n) => format!("nodemanager-node{:02}.log", n.0),
            LogSource::Driver(app) => format!("apps/{app}/driver.log"),
            LogSource::Executor(cid) => {
                format!("apps/{}/executor_{cid}.log", cid.app())
            }
        }
    }

    /// Reconstruct the source from a relative path (inverse of
    /// [`LogSource::rel_path`]), `/` or `\\` separated. Rotated segments
    /// (`….log.1`, `….log.2`: a suffix of one or more digits) map to the
    /// same source as their base file, as log4j's rolling appender
    /// produces them. Allocation-free: it runs once per file a corpus
    /// holds.
    pub fn from_rel_path(path: &str) -> Option<LogSource> {
        let path = match path.rsplit_once('.') {
            Some((base, suffix))
                if base.ends_with(".log")
                    && !suffix.is_empty()
                    && suffix.bytes().all(|b| b.is_ascii_digit()) =>
            {
                base
            }
            _ => path,
        };
        if path == "resourcemanager.log" {
            return Some(LogSource::ResourceManager);
        }
        if let Some(rest) = path.strip_prefix("nodemanager-") {
            let host = rest.strip_suffix(".log")?;
            return host.parse().ok().map(LogSource::NodeManager);
        }
        let is_separator = |c: char| c == '/' || c == '\\';
        if let Some(rest) = path
            .strip_prefix("apps")
            .and_then(|p| p.strip_prefix(is_separator))
        {
            let (app_str, file) = rest.split_once(is_separator)?;
            let app: ApplicationId = app_str.parse().ok()?;
            if file == "driver.log" {
                return Some(LogSource::Driver(app));
            }
            if let Some(cid_str) = file.strip_prefix("executor_") {
                let cid: ContainerId = cid_str.strip_suffix(".log")?.parse().ok()?;
                return Some(LogSource::Executor(cid));
            }
        }
        None
    }
}

/// One log line: timestamp offset, level, emitting class, message text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// Milliseconds since the run's epoch.
    pub ts: TsMs,
    /// Severity.
    pub level: Level,
    /// The log4j logger name's final component (e.g. `RMAppImpl`).
    pub class: String,
    /// Free-form message text (IDs embedded).
    pub message: String,
}

impl LogRecord {
    /// Construct a record.
    pub fn new(
        ts: TsMs,
        level: Level,
        class: impl Into<String>,
        message: impl Into<String>,
    ) -> LogRecord {
        LogRecord {
            ts,
            level,
            class: class.into(),
            message: message.into(),
        }
    }

    /// This record, borrowed.
    pub fn as_ref(&self) -> RecordRef<'_> {
        RecordRef {
            ts: self.ts,
            level: self.level,
            class: &self.class,
            message: &self.message,
        }
    }
}

/// A [`LogRecord`] whose text borrows from the buffer the line was read
/// into (or from an owned record): what the parser produces and the
/// extraction rules consume, so a line that matches no rule costs no
/// allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordRef<'a> {
    /// Milliseconds since the run's epoch.
    pub ts: TsMs,
    /// Severity.
    pub level: Level,
    /// The log4j logger name's final component (e.g. `RMAppImpl`).
    pub class: &'a str,
    /// Free-form message text (IDs embedded).
    pub message: &'a str,
}

impl RecordRef<'_> {
    /// An owned copy.
    pub fn to_record(&self) -> LogRecord {
        LogRecord::new(self.ts, self.level, self.class, self.message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TS: u64 = 1_530_000_000_000;

    #[test]
    fn level_roundtrip() {
        for l in [Level::Debug, Level::Info, Level::Warn, Level::Error] {
            assert_eq!(Level::parse(l.as_str()), Some(l));
        }
        assert_eq!(Level::parse("TRACE"), None);
    }

    #[test]
    fn borrowed_record_round_trips() {
        let rec = LogRecord::new(TsMs(7), Level::Warn, "RMAppImpl", "a: b");
        let borrowed = rec.as_ref();
        assert_eq!((borrowed.class, borrowed.message), ("RMAppImpl", "a: b"));
        assert_eq!(borrowed.to_record(), rec);
    }

    #[test]
    fn source_paths_roundtrip() {
        let app = ApplicationId::new(TS, 12);
        let cid = app.attempt(1).container(3);
        for src in [
            LogSource::ResourceManager,
            LogSource::NodeManager(NodeId(4)),
            LogSource::Driver(app),
            LogSource::Executor(cid),
        ] {
            let p = src.rel_path();
            assert_eq!(LogSource::from_rel_path(&p), Some(src), "path {p}");
        }
    }

    #[test]
    fn source_path_shapes() {
        let app = ApplicationId::new(TS, 12);
        assert_eq!(
            LogSource::NodeManager(NodeId(4)).rel_path(),
            "nodemanager-node04.log"
        );
        assert_eq!(
            LogSource::Driver(app).rel_path(),
            "apps/application_1530000000000_0012/driver.log"
        );
        assert!(LogSource::Driver(app).rel_path().starts_with("apps/"));
    }

    #[test]
    fn rotated_segments_map_to_base_source() {
        assert_eq!(
            LogSource::from_rel_path("resourcemanager.log.1"),
            Some(LogSource::ResourceManager)
        );
        assert_eq!(
            LogSource::from_rel_path("nodemanager-node04.log.12"),
            Some(LogSource::NodeManager(NodeId(4)))
        );
        assert_eq!(LogSource::from_rel_path("resourcemanager.log.x1"), None);
        assert_eq!(
            LogSource::from_rel_path("resourcemanager.log.01"),
            Some(LogSource::ResourceManager)
        );
    }

    #[test]
    fn an_empty_rotation_suffix_is_not_a_segment() {
        assert_eq!(LogSource::from_rel_path("resourcemanager.log."), None);
        assert_eq!(LogSource::from_rel_path("nodemanager-node01.log."), None);
        let app = ApplicationId::new(TS, 12);
        let driver = format!("apps/{app}/driver.log.");
        assert_eq!(LogSource::from_rel_path(&driver), None);
    }

    #[test]
    fn backslash_paths_name_the_same_sources() {
        let app = ApplicationId::new(TS, 12);
        let cid = app.attempt(1).container(3);
        for src in [LogSource::Driver(app), LogSource::Executor(cid)] {
            let windows = src.rel_path().replace('/', "\\");
            assert_eq!(LogSource::from_rel_path(&windows), Some(src), "{windows}");
            let rotated = format!("{windows}.1");
            assert_eq!(LogSource::from_rel_path(&rotated), Some(src), "{rotated}");
        }
        let mixed = format!("apps\\{app}/driver.log");
        assert_eq!(
            LogSource::from_rel_path(&mixed),
            Some(LogSource::Driver(app))
        );
        // A separator anywhere else keeps the path from naming a source.
        for path in [
            format!("apps\\{app}\\sub\\driver.log"),
            format!("apps/{app}/sub\\driver.log"),
            "nodemanager-node\\01.log".to_string(),
            "\\resourcemanager.log".to_string(),
        ] {
            assert_eq!(LogSource::from_rel_path(&path), None, "{path}");
        }
    }

    #[test]
    fn bad_paths_rejected() {
        assert_eq!(LogSource::from_rel_path("foo.log"), None);
        assert_eq!(LogSource::from_rel_path("apps/bad/driver.log"), None);
        assert_eq!(
            LogSource::from_rel_path("apps/application_1_1/unknown.log"),
            None
        );
    }
}
