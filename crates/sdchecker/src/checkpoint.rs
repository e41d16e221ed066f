//! # Crash-only checkpointing for the streaming pipeline
//!
//! Serializes the **full** daemon state — tailer offsets and held-back
//! partial lines, in-flight per-app event buffers, fleet aggregates
//! (outcome tallies, per-component [`QuantileSketch`]s, critical-path
//! blame, late-event accounting), the tail-exemplar reservoir, alert
//! rule lifecycles, and the wide-events emission cursor — into a
//! versioned `checkpoint-v2` file, and restores it on the next start so
//! a killed daemon resumes exactly where it died instead of re-reading
//! the corpus from byte zero.
//!
//! ## File format
//!
//! ```text
//! magic            b"SDCKPT1\n"
//! section count    u32 LE
//! per section:
//!   name           u32 LE length + UTF-8 bytes
//!   payload length u64 LE
//!   payload CRC-32 u32 LE   (IEEE, over the payload bytes)
//!   payload
//! ```
//!
//! Sections: `meta` (schema string, configuration fingerprint, restart
//! lineage), `tail`, `analyzer`, `alerts`, `outputs`. This module owns
//! the container, the write protocol and the recovery ladder; what goes
//! *inside* a payload is decided next to each type, in its
//! `Encode`/`Decode` impl, by the five composition rules of the
//! crate-private `wire` module. Decoding is validating, and each
//! section must consume its payload exactly.
//!
//! ## Atomicity protocol
//!
//! A save writes `checkpoint-v2.tmp`, fsyncs it, renames the previous
//! `checkpoint-v2` (if any) to `checkpoint-v2.prev`, renames the tmp
//! file into place, then fsyncs the directory. A crash at any point
//! leaves at least one complete earlier generation on disk:
//!
//! * during the tmp write — current and previous untouched;
//! * between the two renames — only `.prev` exists, and it is the
//!   generation that was current a moment ago;
//! * after the final rename — the new current is complete (it was
//!   fsynced before becoming visible).
//!
//! Only a current generation known to be intact — this store wrote it,
//! or [`load`] restored from it — is demoted to `.prev`. Any other
//! (one recovery skipped as damaged, or one a cold start ignored) is
//! replaced in place by the final rename, so the `.prev` a recovery fell
//! back to stays the fallback until a new generation is complete.
//!
//! ## Recovery
//!
//! [`load`] tries `checkpoint-v2` then `checkpoint-v2.prev`. A missing
//! file is skipped silently; a torn, CRC-damaged, version-mismatched or
//! configuration-mismatched candidate produces a loud warning and falls
//! through to the next candidate; if none survives, the daemon
//! cold-starts from byte zero, which converges to the same outputs —
//! recovery never panics and never invents state.

use std::cell::Cell;
use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

use crate::alerts::AlertEngine;
use crate::incremental::{IncrementalAnalyzer, IncrementalConfig};
use crate::tail::DirTailer;
use crate::wire::{corrupt, wire_struct, Dec, Enc, Encode};

/// Schema identifier embedded in the `meta` section. Bumped whenever
/// the payload encoding changes shape; a mismatch degrades to
/// cold-start rather than misinterpreting bytes. The file names carry
/// it too, so a file of an older schema is not even looked for: a daemon
/// upgraded past it cold-starts.
pub const CHECKPOINT_SCHEMA: &str = "checkpoint-v2";

/// Leading magic of every checkpoint file: the container's version, which
/// the section layout below keeps (the schema versions what is inside).
const MAGIC: &[u8; 8] = b"SDCKPT1\n";

/// Current-generation file name (same as the schema, deliberately).
const CURRENT_NAME: &str = CHECKPOINT_SCHEMA;
/// Previous-generation fallback.
const PREV_NAME: &str = "checkpoint-v2.prev";
/// Scratch name for the write-then-rename protocol.
const TMP_NAME: &str = "checkpoint-v2.tmp";

/// Why a checkpoint operation failed.
#[derive(Debug)]
pub enum CkptError {
    /// The filesystem said no.
    Io(io::Error),
    /// The bytes on disk are not a valid checkpoint (torn write,
    /// bit rot, schema or configuration mismatch).
    Corrupt(String),
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            CkptError::Corrupt(msg) => write!(f, "checkpoint corrupt: {msg}"),
        }
    }
}

impl std::error::Error for CkptError {}

impl From<io::Error> for CkptError {
    fn from(e: io::Error) -> CkptError {
        CkptError::Io(e)
    }
}

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the same
/// checksum gzip and PNG use, computed bitwise to stay table-free.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

// ---------------------------------------------------------------------------
// Configuration fingerprint
// ---------------------------------------------------------------------------

/// The analysis-shaping knobs a checkpoint was taken under. A restored
/// state is only valid under the *same* knobs — retirement timing,
/// reservoir sizing and alert cadence are all baked into the serialized
/// state — so [`load`] rejects a fingerprint mismatch (the
/// "version-mismatch" row of the recovery matrix) and the daemon
/// cold-starts instead of resuming into the wrong semantics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CfgFingerprint {
    /// Settle window (ms) for retirement.
    pub settle_ms: u64,
    /// Idle-timeout (ms) for forced retirement.
    pub idle_timeout_ms: u64,
    /// Tail-exemplar reservoir slots.
    pub exemplar_slots: u64,
    /// Whether the alert engine is running.
    pub alerts: bool,
    /// SLO threshold (ms) the default alert rules were built from.
    pub slo_ms: u64,
    /// Alert evaluation cadence (ms).
    pub eval_interval_ms: u64,
}

wire_struct!(CfgFingerprint {
    settle_ms,
    idle_timeout_ms,
    exemplar_slots,
    alerts,
    slo_ms,
    eval_interval_ms,
});

// ---------------------------------------------------------------------------
// File container
// ---------------------------------------------------------------------------

fn decode_file(buf: &[u8]) -> Result<Vec<(String, &[u8])>, CkptError> {
    let mut d = Dec::new(buf);
    let magic = d.take(MAGIC.len())?;
    if magic != MAGIC {
        return Err(corrupt("bad magic (not a checkpoint file)"));
    }
    let count: u32 = d.get()?;
    let mut sections = Vec::new();
    for _ in 0..count {
        let name_len: u32 = d.get()?;
        let name_bytes = d.take(name_len as usize)?;
        let name = String::from_utf8(name_bytes.to_vec())
            .map_err(|_| corrupt("section name is not UTF-8"))?;
        let payload_len: usize = d.get()?;
        let want_crc: u32 = d.get()?;
        let payload = d.take(payload_len)?;
        let got_crc = crc32(payload);
        if got_crc != want_crc {
            return Err(corrupt(format!(
                "section {name:?} CRC mismatch (want {want_crc:08x}, got {got_crc:08x})"
            )));
        }
        sections.push((name, payload));
    }
    d.finish()?;
    Ok(sections)
}

/// A cursor over the payload of section `name`.
fn section<'a>(sections: &[(String, &'a [u8])], name: &str) -> Result<Dec<'a>, CkptError> {
    sections
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, payload)| Dec::new(payload))
        .ok_or_else(|| corrupt(format!("missing section {name:?}")))
}

/// Decode section `name` with `read`, which must consume its payload
/// exactly — trailing bytes mean writer and reader disagree on shape.
fn read_section<T>(
    sections: &[(String, &[u8])],
    name: &str,
    read: impl FnOnce(&mut Dec<'_>) -> Result<T, CkptError>,
) -> Result<T, CkptError> {
    let mut d = section(sections, name)?;
    let value = read(&mut d)?;
    d.finish()?;
    Ok(value)
}

// ---------------------------------------------------------------------------
// Store
// ---------------------------------------------------------------------------

/// The on-disk home of the checkpoint generations: `checkpoint-v2`
/// (current), `checkpoint-v2.prev` (fallback) and `checkpoint-v2.tmp`
/// (scratch, never valid to read).
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    /// The size of the last file saved, which the next one is reserved
    /// at.
    last_len: Cell<usize>,
    /// Whether the file at the current name is known intact: this store
    /// wrote it, or [`load`] restored from it.
    current_intact: Cell<bool>,
}

impl CheckpointStore {
    /// Open (creating if needed) the checkpoint directory.
    pub fn open(dir: &Path) -> Result<CheckpointStore, CkptError> {
        fs::create_dir_all(dir)?;
        Ok(CheckpointStore {
            dir: dir.to_path_buf(),
            last_len: Cell::new(0),
            current_intact: Cell::new(false),
        })
    }

    /// Path of the current generation.
    pub fn current_path(&self) -> PathBuf {
        self.dir.join(CURRENT_NAME)
    }

    /// Path of the previous (fallback) generation.
    pub(crate) fn prev_path(&self) -> PathBuf {
        self.dir.join(PREV_NAME)
    }

    fn tmp_path(&self) -> PathBuf {
        self.dir.join(TMP_NAME)
    }

    /// Atomically replace the current generation with `bytes`,
    /// demoting the old current to `.prev` if it is known intact.
    /// Returns the file size.
    fn write_atomic(&self, bytes: &[u8]) -> Result<u64, CkptError> {
        let tmp = self.tmp_path();
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
        }
        let current = self.current_path();
        if self.current_intact.get() && current.exists() {
            fs::rename(&current, self.prev_path())?;
        }
        fs::rename(&tmp, &current)?;
        self.current_intact.set(true);
        // Persist the renames themselves; without this a crash could
        // roll the directory back to a state where neither name exists.
        if let Ok(d) = fs::File::open(&self.dir) {
            let _ = d.sync_all();
        }
        Ok(bytes.len() as u64)
    }
}

// ---------------------------------------------------------------------------
// Save / load
// ---------------------------------------------------------------------------

/// Everything a save captures, borrowed from the daemon.
pub struct SaveInputs<'a> {
    /// The directory tailer (offsets, partial lines, epoch, stats).
    pub tailer: &'a DirTailer,
    /// The streaming pipeline (buffers, aggregates, exemplars).
    pub analyzer: &'a IncrementalAnalyzer,
    /// The alert engine, if alerting is enabled.
    pub engine: Option<&'a AlertEngine>,
    /// Configuration fingerprint to stamp into the file.
    pub fingerprint: &'a CfgFingerprint,
    /// Bytes of wide-event JSONL emitted so far (the emission cursor).
    pub wide_bytes: u64,
    /// Checkpoint writes so far this lineage (monotonic across restarts).
    pub writes_total: u64,
    /// Restarts this lineage has survived.
    pub recoveries: u64,
}

/// Serialize the full daemon state and atomically install it as the
/// current generation. Returns the checkpoint size in bytes.
pub fn save(store: &CheckpointStore, s: &SaveInputs<'_>) -> Result<u64, CkptError> {
    let meta = (
        CHECKPOINT_SCHEMA,
        s.fingerprint,
        s.recoveries,
        s.writes_total,
    );
    let sections: [(&str, &dyn Encode); 5] = [
        ("meta", &meta),
        ("tail", s.tailer),
        ("analyzer", s.analyzer),
        ("alerts", &s.engine),
        ("outputs", &s.wide_bytes),
    ];
    // One buffer, each section encoded straight into it and its length
    // and CRC patched in after, reserved at the last file's size and an
    // eighth: a buffer grown by doubling can leave its freed steps in the
    // allocator's heap (some 4 MB of peak RSS on a 2 000-app daemon).
    let mut e = Enc {
        buf: Vec::with_capacity(store.last_len.get() * 9 / 8),
    };
    e.buf.extend_from_slice(MAGIC);
    (sections.len() as u32).encode(&mut e);
    for (name, payload) in sections {
        (name.len() as u32).encode(&mut e);
        e.buf.extend_from_slice(name.as_bytes());
        let head = e.buf.len();
        e.buf.extend_from_slice(&[0; 12]);
        payload.encode(&mut e);
        let written = &e.buf[head + 12..];
        let (len, crc) = (written.len() as u64, crc32(written));
        e.buf[head..head + 8].copy_from_slice(&len.to_le_bytes());
        e.buf[head + 8..head + 12].copy_from_slice(&crc.to_le_bytes());
    }
    store.last_len.set(e.buf.len());
    store.write_atomic(&e.buf)
}

/// A successfully restored daemon state.
pub struct Restored {
    /// Tailer positioned past every checkpointed byte.
    pub tailer: DirTailer,
    /// The pipeline, mid-flight apps and aggregates intact.
    pub analyzer: IncrementalAnalyzer,
    /// Wide-event emission cursor (bytes already written).
    pub wide_bytes: u64,
    /// Checkpoint writes recorded by the restored generation.
    pub writes_total: u64,
    /// Restarts recorded by the restored generation (this restart not
    /// yet counted).
    pub recoveries: u64,
    /// Which generation was used: `"current"` or `"previous"`.
    pub generation: &'static str,
    /// Size of the checkpoint file that was restored.
    pub bytes: u64,
}

/// Decode one candidate file in full. The alert engine is restored
/// last, and that step is itself all-or-nothing, so an `Err` from here
/// means nothing outside this call was changed.
fn decode_candidate(
    buf: &[u8],
    generation: &'static str,
    watch_dir: &Path,
    fingerprint: &CfgFingerprint,
    engine: Option<&mut AlertEngine>,
) -> Result<Restored, CkptError> {
    let sections = decode_file(buf)?;

    let (fp, recoveries, writes_total) = read_section(&sections, "meta", |d| {
        // Checked first: another schema's meta need not have this shape.
        let schema: String = d.get()?;
        if schema != CHECKPOINT_SCHEMA {
            return Err(corrupt(format!(
                "schema {schema:?} does not match {CHECKPOINT_SCHEMA:?}"
            )));
        }
        d.get::<(CfgFingerprint, u64, u64)>()
    })?;
    if fp != *fingerprint {
        return Err(corrupt(format!(
            "configuration fingerprint mismatch (checkpoint {fp:?}, daemon {fingerprint:?})"
        )));
    }
    let cfg = IncrementalConfig {
        settle_ms: fp.settle_ms,
        idle_timeout_ms: fp.idle_timeout_ms,
        exemplar_slots: usize::try_from(fp.exemplar_slots)
            .map_err(|_| corrupt("exemplar slot count overflow"))?,
    };
    let tailer = read_section(&sections, "tail", |d| DirTailer::decode(d, watch_dir))?;
    let analyzer = read_section(&sections, "analyzer", |d| {
        IncrementalAnalyzer::decode(d, cfg)
    })?;
    let wide_bytes = read_section(&sections, "outputs", |d| d.get())?;

    let mut d = section(&sections, "alerts")?;
    let has_engine_state: bool = d.get()?;
    if has_engine_state != fp.alerts {
        return Err(corrupt("alerts section disagrees with fingerprint"));
    }
    match engine {
        Some(engine) if has_engine_state => engine.restore(d)?,
        None if has_engine_state => {
            return Err(corrupt("carries alert state but no engine is running"));
        }
        _ => d.finish()?,
    }

    Ok(Restored {
        tailer,
        analyzer,
        wide_bytes,
        writes_total,
        recoveries,
        generation,
        bytes: buf.len() as u64,
    })
}

/// Restore the newest intact generation, falling back from `current`
/// to `previous`. Returns the restored state (if any) plus warnings for
/// every candidate that had to be skipped — a damaged checkpoint
/// degrades to cold-start with a loud warning, never a panic.
///
/// When `engine` is supplied its checkpointed lifecycle state is
/// applied in place; application is all-or-nothing, so a rejected
/// candidate leaves the engine untouched for the next one.
pub fn load(
    store: &CheckpointStore,
    watch_dir: &Path,
    fingerprint: &CfgFingerprint,
    mut engine: Option<&mut AlertEngine>,
) -> (Option<Restored>, Vec<String>) {
    let mut warnings = Vec::new();
    store.current_intact.set(false);
    let candidates = [
        ("current", store.current_path()),
        ("previous", store.prev_path()),
    ];
    for (generation, path) in candidates {
        let buf = match fs::read(&path) {
            Ok(buf) => buf,
            Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
            Err(e) => {
                warnings.push(format!(
                    "checkpoint: cannot read {} generation {}: {e}",
                    generation,
                    path.display()
                ));
                continue;
            }
        };
        match decode_candidate(
            &buf,
            generation,
            watch_dir,
            fingerprint,
            engine.as_deref_mut(),
        ) {
            Ok(restored) => {
                store.current_intact.set(generation == "current");
                return (Some(restored), warnings);
            }
            Err(e) => warnings.push(format!(
                "checkpoint: {} generation {} unusable: {e}",
                generation,
                path.display()
            )),
        }
    }
    (None, warnings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alerts::default_rules;
    use logmodel::{ApplicationId, Epoch, LogSource, LogStore, TsMs};
    use std::fs;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sdckpt-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Small corpus with one finished app and one still in flight.
    fn corpus(dir: &Path) {
        let epoch = Epoch::default_run();
        let mut logs = LogStore::new(epoch);
        let done = ApplicationId::new(epoch.unix_ms, 1);
        let open = ApplicationId::new(epoch.unix_ms, 2);
        logs.info(
            LogSource::ResourceManager,
            TsMs(100),
            "RMAppImpl",
            format!("{done} State change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED"),
        );
        logs.info(
            LogSource::ResourceManager,
            TsMs(900),
            "RMAppImpl",
            format!("{done} State change from RUNNING to FINISHED on event = UNREGISTERED"),
        );
        logs.info(
            LogSource::ResourceManager,
            TsMs(950),
            "RMAppImpl",
            format!("{open} State change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED"),
        );
        logs.write_dir(dir).unwrap();
    }

    fn build_state(dir: &Path) -> (DirTailer, IncrementalAnalyzer) {
        let mut tailer = DirTailer::new(dir).unwrap();
        let mut analyzer = IncrementalAnalyzer::new(IncrementalConfig {
            settle_ms: 100,
            idle_timeout_ms: 0,
            exemplar_slots: 2,
        });
        for (src, rec) in tailer.poll().unwrap() {
            analyzer.ingest(src, &rec);
        }
        let _ = analyzer.drain_ready();
        (tailer, analyzer)
    }

    fn fingerprint() -> CfgFingerprint {
        CfgFingerprint {
            settle_ms: 100,
            idle_timeout_ms: 0,
            exemplar_slots: 2,
            alerts: false,
            slo_ms: 0,
            eval_interval_ms: 1_000,
        }
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn save_then_load_restores_identical_state() {
        let dir = tmp("roundtrip");
        let logs = dir.join("logs");
        fs::create_dir_all(&logs).unwrap();
        corpus(&logs);
        let (tailer, analyzer) = build_state(&logs);
        let store = CheckpointStore::open(&dir.join("ckpt")).unwrap();
        let fp = fingerprint();
        let bytes = save(
            &store,
            &SaveInputs {
                tailer: &tailer,
                analyzer: &analyzer,
                engine: None,
                fingerprint: &fp,
                wide_bytes: 123,
                writes_total: 1,
                recoveries: 0,
            },
        )
        .unwrap();
        assert!(bytes > 0);
        let (restored, warnings) = load(&store, &logs, &fp, None);
        assert!(warnings.is_empty(), "{warnings:?}");
        let r = restored.unwrap();
        assert_eq!(r.generation, "current");
        assert_eq!(r.wide_bytes, 123);
        assert_eq!(r.writes_total, 1);
        assert_eq!(r.recoveries, 0);
        assert_eq!(r.bytes, bytes);
        // Lossless: what was restored encodes to the bytes it came from.
        assert!(Enc::payload(&r.tailer) == Enc::payload(&tailer));
        assert!(Enc::payload(&r.analyzer) == Enc::payload(&analyzer));
        assert_eq!(r.tailer.stats(), tailer.stats());
        assert_eq!(
            r.analyzer.live_report_json(None),
            analyzer.live_report_json(None)
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn alert_engine_state_round_trips() {
        let dir = tmp("alerts");
        let logs = dir.join("logs");
        fs::create_dir_all(&logs).unwrap();
        corpus(&logs);
        let (tailer, analyzer) = build_state(&logs);
        let mut engine = AlertEngine::new(default_rules(1), 1_000);
        engine.observe_anomalous(TsMs(500));
        engine.observe_anomalous(TsMs(600));
        let _ = engine.advance(TsMs(5_000));
        let before = Enc::payload(&engine);
        let store = CheckpointStore::open(&dir.join("ckpt")).unwrap();
        let fp = CfgFingerprint {
            alerts: true,
            slo_ms: 1,
            ..fingerprint()
        };
        save(
            &store,
            &SaveInputs {
                tailer: &tailer,
                analyzer: &analyzer,
                engine: Some(&engine),
                fingerprint: &fp,
                wide_bytes: 0,
                writes_total: 1,
                recoveries: 0,
            },
        )
        .unwrap();
        let mut fresh = AlertEngine::new(default_rules(1), 1_000);
        let (restored, warnings) = load(&store, &logs, &fp, Some(&mut fresh));
        assert!(warnings.is_empty(), "{warnings:?}");
        assert!(restored.is_some());
        assert!(Enc::payload(&fresh) == before);
        assert_eq!(fresh.alerts_json(), engine.alerts_json());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn second_save_keeps_previous_generation_as_fallback() {
        let dir = tmp("fallback");
        let logs = dir.join("logs");
        fs::create_dir_all(&logs).unwrap();
        corpus(&logs);
        let (tailer, analyzer) = build_state(&logs);
        let store = CheckpointStore::open(&dir.join("ckpt")).unwrap();
        let fp = fingerprint();
        let inputs = |wide: u64, writes: u64| SaveInputs {
            tailer: &tailer,
            analyzer: &analyzer,
            engine: None,
            fingerprint: &fp,
            wide_bytes: wide,
            writes_total: writes,
            recoveries: 0,
        };
        save(&store, &inputs(10, 1)).unwrap();
        save(&store, &inputs(20, 2)).unwrap();
        assert!(store.prev_path().exists());

        // Torn write: truncate the current generation mid-file.
        let cur = fs::read(store.current_path()).unwrap();
        fs::write(store.current_path(), &cur[..cur.len() / 2]).unwrap();
        let (restored, warnings) = load(&store, &logs, &fp, None);
        let r = restored.unwrap();
        assert_eq!(r.generation, "previous");
        assert_eq!(r.wide_bytes, 10);
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("current generation"), "{warnings:?}");

        // Stale generation: current is garbage from a different tool.
        fs::write(store.current_path(), b"not a checkpoint at all").unwrap();
        let (restored, warnings) = load(&store, &logs, &fp, None);
        assert_eq!(restored.unwrap().generation, "previous");
        assert_eq!(warnings.len(), 1);

        // Both damaged: cold start, two loud warnings, no panic.
        fs::write(store.prev_path(), b"also garbage").unwrap();
        let (restored, warnings) = load(&store, &logs, &fp, None);
        assert!(restored.is_none());
        assert_eq!(warnings.len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_after_falling_back_keeps_the_restored_generation_as_previous() {
        let dir = tmp("fallback_save");
        let logs = dir.join("logs");
        fs::create_dir_all(&logs).unwrap();
        corpus(&logs);
        let (tailer, analyzer) = build_state(&logs);
        let store = CheckpointStore::open(&dir.join("ckpt")).unwrap();
        let fp = fingerprint();
        let inputs = |wide: u64, writes: u64| SaveInputs {
            tailer: &tailer,
            analyzer: &analyzer,
            engine: None,
            fingerprint: &fp,
            wide_bytes: wide,
            writes_total: writes,
            recoveries: 0,
        };
        save(&store, &inputs(10, 1)).unwrap();
        save(&store, &inputs(20, 2)).unwrap();
        let good = fs::read(store.prev_path()).unwrap();

        // A restart finds the current generation damaged and falls back.
        fs::write(store.current_path(), b"not a checkpoint at all").unwrap();
        let restarted = CheckpointStore::open(&dir.join("ckpt")).unwrap();
        let (restored, _) = load(&restarted, &logs, &fp, None);
        assert_eq!(restored.unwrap().generation, "previous");

        // Its first save must not demote the damaged file over the one
        // good generation: a crash between the two renames would leave
        // nothing to resume from.
        save(&restarted, &inputs(30, 3)).unwrap();
        assert!(
            fs::read(restarted.prev_path()).unwrap() == good,
            "the damaged current was demoted over the good generation"
        );
        let (r, warnings) = load(&restarted, &logs, &fp, None);
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(r.unwrap().wide_bytes, 30);
        fs::remove_file(restarted.current_path()).unwrap();
        assert_eq!(load(&restarted, &logs, &fp, None).0.unwrap().wide_bytes, 10);

        // A current this store wrote is demoted as usual.
        save(&restarted, &inputs(40, 4)).unwrap();
        save(&restarted, &inputs(50, 5)).unwrap();
        assert_eq!(load(&restarted, &logs, &fp, None).0.unwrap().wide_bytes, 50);
        fs::remove_file(restarted.current_path()).unwrap();
        assert_eq!(load(&restarted, &logs, &fp, None).0.unwrap().wide_bytes, 40);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_mismatch_degrades_to_cold_start() {
        let dir = tmp("fpmismatch");
        let logs = dir.join("logs");
        fs::create_dir_all(&logs).unwrap();
        corpus(&logs);
        let (tailer, analyzer) = build_state(&logs);
        let store = CheckpointStore::open(&dir.join("ckpt")).unwrap();
        let fp = fingerprint();
        save(
            &store,
            &SaveInputs {
                tailer: &tailer,
                analyzer: &analyzer,
                engine: None,
                fingerprint: &fp,
                wide_bytes: 0,
                writes_total: 1,
                recoveries: 0,
            },
        )
        .unwrap();
        let other = CfgFingerprint {
            settle_ms: 999,
            ..fp
        };
        let (restored, warnings) = load(&store, &logs, &other, None);
        assert!(restored.is_none());
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("fingerprint mismatch"), "{warnings:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn flipped_byte_is_caught_by_the_section_crc() {
        let dir = tmp("bitrot");
        let logs = dir.join("logs");
        fs::create_dir_all(&logs).unwrap();
        corpus(&logs);
        let (tailer, analyzer) = build_state(&logs);
        let store = CheckpointStore::open(&dir.join("ckpt")).unwrap();
        let fp = fingerprint();
        save(
            &store,
            &SaveInputs {
                tailer: &tailer,
                analyzer: &analyzer,
                engine: None,
                fingerprint: &fp,
                wide_bytes: 0,
                writes_total: 1,
                recoveries: 0,
            },
        )
        .unwrap();
        let mut cur = fs::read(store.current_path()).unwrap();
        let last = cur.len() - 1;
        cur[last] ^= 0x40; // flip a bit inside the final payload
        fs::write(store.current_path(), &cur).unwrap();
        let (restored, warnings) = load(&store, &logs, &fp, None);
        assert!(restored.is_none());
        assert!(
            warnings.iter().any(|w| w.contains("CRC mismatch")),
            "{warnings:?}"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
