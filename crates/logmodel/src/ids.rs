//! Global identifiers, in YARN's exact string formats.
//!
//! SDchecker groups state-transition messages by the IDs embedded in them
//! (paper §III-C: "SDchecker binds each log event with its corresponding
//! global ID (application ID or container ID)"), so the formats here must
//! round-trip: the simulator prints them, the miner re-parses them out of
//! free-form message text.
//!
//! Formats (matching Hadoop):
//!
//! * `application_<clusterTs>_<appSeq:04>`
//! * `appattempt_<clusterTs>_<appSeq:04>_<attempt:06>`
//! * `container_<clusterTs>_<appSeq:04>_<attempt:02>_<containerSeq:06>`
//! * nodes: `<host>:<port>` with synthetic hosts `nodeNN.cluster.local`

use std::fmt;
use std::str::FromStr;

use obs::json::{Quoted, Value};

/// Error parsing an identifier from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdParseError {
    /// What was being parsed.
    pub kind: &'static str,
    /// The offending input.
    pub input: String,
}

impl fmt::Display for IdParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid {}: {:?}", self.kind, self.input)
    }
}

impl std::error::Error for IdParseError {}

fn err(kind: &'static str, input: &str) -> IdParseError {
    IdParseError {
        kind,
        input: input.to_string(),
    }
}

/// Write `v` in decimal, zero-padded to at least `width` digits: the
/// digit writer under every id's one spelling.
fn write_dec(w: &mut impl fmt::Write, v: u64, width: usize) -> fmt::Result {
    w.write_str(obs::json::decimal(&mut [0; 20], v, width))
}

/// In a JSON document an id is its text, quoted; no id needs escaping.
macro_rules! json_ids {
    ($($t:ty),*) => {$(
        impl Value for $t {
            fn push_json(&self, out: &mut String) {
                Quoted(|out: &mut String| self.write_to(out).unwrap_or_default()).push_json(out);
            }
        }
    )*};
}
json_ids!(ApplicationId, ContainerId, NodeId);

/// A YARN application id: `application_<clusterTs>_<seq>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ApplicationId {
    /// ResourceManager start timestamp (epoch ms) — constant per cluster run.
    pub cluster_ts: u64,
    /// 1-based application sequence number.
    pub seq: u32,
}

impl ApplicationId {
    /// Construct from the cluster timestamp and sequence number.
    pub fn new(cluster_ts: u64, seq: u32) -> ApplicationId {
        ApplicationId { cluster_ts, seq }
    }

    /// The first attempt of this application.
    pub fn attempt(self, attempt: u32) -> AppAttemptId {
        AppAttemptId { app: self, attempt }
    }

    /// Write the id's text (what `Display` prints) straight into `w` —
    /// a `String` being appended to, or a formatter.
    pub fn write_to(self, w: &mut impl fmt::Write) -> fmt::Result {
        w.write_str("application_")?;
        write_dec(w, self.cluster_ts, 1)?;
        w.write_str("_")?;
        write_dec(w, u64::from(self.seq), 4)
    }
}

impl fmt::Display for ApplicationId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

impl FromStr for ApplicationId {
    type Err = IdParseError;
    fn from_str(s: &str) -> Result<Self, IdParseError> {
        let rest = s
            .strip_prefix("application_")
            .ok_or_else(|| err("ApplicationId", s))?;
        let (ts, seq) = rest
            .split_once('_')
            .ok_or_else(|| err("ApplicationId", s))?;
        Ok(ApplicationId {
            cluster_ts: ts.parse().map_err(|_| err("ApplicationId", s))?,
            seq: seq.parse().map_err(|_| err("ApplicationId", s))?,
        })
    }
}

/// A YARN application attempt id: `appattempt_<clusterTs>_<seq>_<attempt>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AppAttemptId {
    /// The owning application.
    pub app: ApplicationId,
    /// 1-based attempt number (>1 when the AM was retried after failure).
    pub attempt: u32,
}

impl AppAttemptId {
    /// A container of this attempt.
    pub fn container(self, seq: u64) -> ContainerId {
        ContainerId { attempt: self, seq }
    }
}

impl fmt::Display for AppAttemptId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "appattempt_{}_{:04}_{:06}",
            self.app.cluster_ts, self.app.seq, self.attempt
        )
    }
}

impl FromStr for AppAttemptId {
    type Err = IdParseError;
    fn from_str(s: &str) -> Result<Self, IdParseError> {
        let rest = s
            .strip_prefix("appattempt_")
            .ok_or_else(|| err("AppAttemptId", s))?;
        let mut parts = rest.split('_');
        let ts = parts.next().ok_or_else(|| err("AppAttemptId", s))?;
        let seq = parts.next().ok_or_else(|| err("AppAttemptId", s))?;
        let attempt = parts.next().ok_or_else(|| err("AppAttemptId", s))?;
        if parts.next().is_some() {
            return Err(err("AppAttemptId", s));
        }
        Ok(AppAttemptId {
            app: ApplicationId {
                cluster_ts: ts.parse().map_err(|_| err("AppAttemptId", s))?,
                seq: seq.parse().map_err(|_| err("AppAttemptId", s))?,
            },
            attempt: attempt.parse().map_err(|_| err("AppAttemptId", s))?,
        })
    }
}

/// A YARN container id:
/// `container_<clusterTs>_<appSeq>_<attempt>_<containerSeq>`.
///
/// Container sequence 1 is, by YARN convention, the ApplicationMaster
/// (Spark driver) container.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ContainerId {
    /// The owning application attempt.
    pub attempt: AppAttemptId,
    /// 1-based container sequence within the attempt.
    pub seq: u64,
}

impl ContainerId {
    /// Whether this is the AM (driver) container.
    pub fn is_am(self) -> bool {
        self.seq == 1
    }

    /// The owning application.
    pub fn app(self) -> ApplicationId {
        self.attempt.app
    }

    /// Write the id's text (what `Display` prints) straight into `w`.
    pub fn write_to(self, w: &mut impl fmt::Write) -> fmt::Result {
        w.write_str("container_")?;
        write_dec(w, self.attempt.app.cluster_ts, 1)?;
        w.write_str("_")?;
        write_dec(w, u64::from(self.attempt.app.seq), 4)?;
        w.write_str("_")?;
        write_dec(w, u64::from(self.attempt.attempt), 2)?;
        w.write_str("_")?;
        write_dec(w, self.seq, 6)
    }
}

impl fmt::Display for ContainerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

impl FromStr for ContainerId {
    type Err = IdParseError;
    fn from_str(s: &str) -> Result<Self, IdParseError> {
        let rest = s
            .strip_prefix("container_")
            .ok_or_else(|| err("ContainerId", s))?;
        let mut parts = rest.split('_');
        let ts = parts.next().ok_or_else(|| err("ContainerId", s))?;
        let app_seq = parts.next().ok_or_else(|| err("ContainerId", s))?;
        let attempt = parts.next().ok_or_else(|| err("ContainerId", s))?;
        let seq = parts.next().ok_or_else(|| err("ContainerId", s))?;
        if parts.next().is_some() {
            return Err(err("ContainerId", s));
        }
        Ok(ContainerId {
            attempt: AppAttemptId {
                app: ApplicationId {
                    cluster_ts: ts.parse().map_err(|_| err("ContainerId", s))?,
                    seq: app_seq.parse().map_err(|_| err("ContainerId", s))?,
                },
                attempt: attempt.parse().map_err(|_| err("ContainerId", s))?,
            },
            seq: seq.parse().map_err(|_| err("ContainerId", s))?,
        })
    }
}

/// A cluster node, printed as `nodeNN.cluster.local:45454` (the NodeManager
/// RPC address format YARN uses in its logs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The NM RPC port used in the printed form.
    pub(crate) const PORT: u16 = 45454;

    /// The host part (`nodeNN.cluster.local`).
    pub fn host(self) -> String {
        format!("node{:02}.cluster.local", self.0)
    }

    /// Write the id's text (what `Display` prints) straight into `w`.
    pub fn write_to(self, w: &mut impl fmt::Write) -> fmt::Result {
        w.write_str("node")?;
        write_dec(w, u64::from(self.0), 2)?;
        w.write_str(".cluster.local:")?;
        write_dec(w, u64::from(Self::PORT), 1)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

impl FromStr for NodeId {
    type Err = IdParseError;
    fn from_str(s: &str) -> Result<Self, IdParseError> {
        let host = s.split(':').next().unwrap_or(s);
        let rest = host.strip_prefix("node").ok_or_else(|| err("NodeId", s))?;
        let num = rest.split('.').next().ok_or_else(|| err("NodeId", s))?;
        Ok(NodeId(num.parse().map_err(|_| err("NodeId", s))?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TS: u64 = 1_530_000_000_000;

    #[test]
    fn application_id_roundtrip() {
        let id = ApplicationId::new(TS, 17);
        let s = id.to_string();
        assert_eq!(s, "application_1530000000000_0017");
        assert_eq!(s.parse::<ApplicationId>().unwrap(), id);
    }

    #[test]
    fn application_id_large_seq() {
        let id = ApplicationId::new(TS, 123_456);
        let s = id.to_string();
        assert_eq!(s, "application_1530000000000_123456");
        assert_eq!(s.parse::<ApplicationId>().unwrap(), id);
    }

    #[test]
    fn attempt_id_roundtrip() {
        let id = ApplicationId::new(TS, 3).attempt(1);
        let s = id.to_string();
        assert_eq!(s, "appattempt_1530000000000_0003_000001");
        assert_eq!(s.parse::<AppAttemptId>().unwrap(), id);
    }

    #[test]
    fn container_id_roundtrip() {
        let id = ApplicationId::new(TS, 3).attempt(1).container(42);
        let s = id.to_string();
        assert_eq!(s, "container_1530000000000_0003_01_000042");
        assert_eq!(s.parse::<ContainerId>().unwrap(), id);
        assert!(!id.is_am());
        assert!(ApplicationId::new(TS, 3).attempt(1).container(1).is_am());
    }

    #[test]
    fn node_id_roundtrip() {
        let n = NodeId(7);
        assert_eq!(n.to_string(), "node07.cluster.local:45454");
        assert_eq!(n.to_string().parse::<NodeId>().unwrap(), n);
        assert_eq!(
            "node12.cluster.local".parse::<NodeId>().unwrap(),
            NodeId(12)
        );
    }

    /// The ids' `Display` bodies as they were before they delegated to
    /// `write_to`: the slow oracle for the digit writer.
    fn reference(app: ApplicationId, cid: ContainerId, node: NodeId) -> [String; 3] {
        [
            format!("application_{}_{:04}", app.cluster_ts, app.seq),
            format!(
                "container_{}_{:04}_{:02}_{:06}",
                cid.attempt.app.cluster_ts, cid.attempt.app.seq, cid.attempt.attempt, cid.seq
            ),
            format!("node{:02}.cluster.local:{}", node.0, NodeId::PORT),
        ]
    }

    #[test]
    fn write_to_matches_the_format_reference_at_every_width() {
        // Each field at its narrowest, at its padding width, one digit
        // past it, and at the type's maximum.
        let cluster = [0, 7, TS, u64::MAX];
        let seqs = [0, 1, 9_999, 10_000, u32::MAX];
        let attempts = [0, 9, 99, 100, u32::MAX];
        let containers = [0, 1, 999_999, 1_000_000, u64::MAX];
        for (i, &cluster_ts) in cluster.iter().enumerate() {
            for &seq in &seqs {
                for &attempt in &attempts {
                    for &cseq in &containers {
                        let app = ApplicationId::new(cluster_ts, seq);
                        let cid = app.attempt(attempt).container(cseq);
                        let node = NodeId(seqs[i] ^ attempt);
                        let want = reference(app, cid, node);
                        assert_eq!(app.to_string(), want[0]);
                        assert_eq!(cid.to_string(), want[1]);
                        assert_eq!(node.to_string(), want[2]);
                        // Appending, and inside a wider format string.
                        let mut out = String::from(">");
                        app.write_to(&mut out).unwrap();
                        cid.write_to(&mut out).unwrap();
                        node.write_to(&mut out).unwrap();
                        assert_eq!(out, format!(">{}{}{}", want[0], want[1], want[2]));
                        assert_eq!(
                            format!("[{app:>50}|{cid}|{node}]"),
                            format!("[{}|{}|{}]", want[0], want[1], want[2])
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("application_abc_1".parse::<ApplicationId>().is_err());
        assert!("app_1_1".parse::<ApplicationId>().is_err());
        assert!("container_1_2_3".parse::<ContainerId>().is_err());
        assert!("container_1_2_3_4_5".parse::<ContainerId>().is_err());
        assert!("host:123".parse::<NodeId>().is_err());
    }
}
