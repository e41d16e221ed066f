//! [`LogStore`]: per-source log text with directory round-tripping.
//!
//! The simulator appends records as the run progresses, each rendered
//! once into its source's text — the bytes the source's file would hold.
//! The store can be flushed to a directory tree shaped like a real
//! cluster log collection, and SDchecker reads the files ([`scan_dir`])
//! or the text ([`LogStore::scan`]) through the same read loop.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Read};
use std::path::{Path, PathBuf};

use crate::format::{parse_line_ref, push_line, Epoch, READ_CHUNK};
use crate::par::{self, Parallelism};
use crate::read::{log_files, read_epoch, read_records};
use crate::record::{Level, LogRecord, LogSource, RecordRef};
use crate::TsMs;

/// Histogram bucket bounds for lines-per-log-file during ingest.
const LINES_PER_FILE_BOUNDS: &[u64] = &[10, 100, 1_000, 10_000, 100_000, 1_000_000];

/// An in-memory log collection: each [`LogSource`]'s text.
#[derive(Debug)]
pub struct LogStore {
    epoch: Epoch,
    sources: BTreeMap<LogSource, String>,
    total: usize,
}

impl LogStore {
    /// An empty store anchored at `epoch`.
    pub fn new(epoch: Epoch) -> LogStore {
        LogStore {
            epoch,
            sources: BTreeMap::new(),
            total: 0,
        }
    }

    /// The store's wall-clock anchor.
    pub fn epoch(&self) -> &Epoch {
        &self.epoch
    }

    /// Append a record's line to `source`'s text.
    pub fn push(&mut self, source: LogSource, rec: LogRecord) {
        self.append(source, rec.as_ref());
    }

    /// Convenience: append an INFO record.
    pub fn info(&mut self, source: LogSource, ts: TsMs, class: &str, message: impl AsRef<str>) {
        let rec = RecordRef {
            ts,
            level: Level::Info,
            class,
            message: message.as_ref(),
        };
        self.append(source, rec);
    }

    fn append(&mut self, source: LogSource, rec: RecordRef<'_>) {
        let text = self.sources.entry(source).or_default();
        push_line(text, &self.epoch, rec);
        text.push('\n');
        self.total += 1;
    }

    /// All sources present, in deterministic order.
    pub fn sources(&self) -> impl Iterator<Item = LogSource> + '_ {
        self.sources.keys().copied()
    }

    /// One source's text, exactly as its file holds it (empty if absent).
    pub fn text(&self, source: LogSource) -> &str {
        self.sources.get(&source).map_or("", String::as_str)
    }

    /// The records of one source, parsed from its text.
    pub fn records(&self, source: LogSource) -> Records<'_> {
        Records(&self.epoch, self.text(source))
    }

    /// Total records across all sources.
    pub fn total_records(&self) -> usize {
        self.total
    }

    /// Hand `source`'s records to `scan` the way [`scan_dir`] hands it a
    /// file's, through the same read loop; `None` if no line parsed.
    pub fn scan<S: SourceScan>(&self, source: LogSource, mut scan: S) -> Option<S::Output> {
        let text = self.text(source).as_bytes();
        let mut buf = vec![0; text.len().min(READ_CHUNK)];
        let mut rec = obs::Batch::default();
        let (counts, _) =
            read_records(&self.epoch, text, &mut buf, &mut Vec::new(), true, |recs| {
                scan.records(recs, &mut rec)
            });
        let out = (counts.records > 0).then(|| scan.finish(&mut rec));
        obs::flush(rec);
        out
    }

    /// Flush to a directory tree (`resourcemanager.log`,
    /// `nodemanager-nodeNN.log`, `apps/<appId>/driver.log`, ...). The
    /// epoch is written to `epoch.txt` so reads can reconstruct offsets.
    pub fn write_dir(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)?;
        fs::write(dir.join("epoch.txt"), format!("{}\n", self.epoch.unix_ms))?;
        for src in self.sources() {
            let path = dir.join(src.rel_path());
            if let Some(parent) = path.parent() {
                fs::create_dir_all(parent)?;
            }
            fs::write(&path, self.text(src))?;
        }
        Ok(())
    }

    /// Read a directory tree written by [`LogStore::write_dir`] (or
    /// hand-assembled in the same layout) over `par` worker threads: each
    /// source's records as [`scan_dir`] parses them, in its file order,
    /// rendered back into its text. Unparseable lines are skipped, as the
    /// real tool must tolerate stack traces and banners. The result is
    /// identical for every thread count.
    pub fn read_dir_with(dir: &Path, par: Parallelism) -> io::Result<LogStore> {
        let (epoch, sources) = scan_dir(dir, par, |&epoch, src| (src, LogStore::new(epoch)))?;
        let mut store = LogStore::new(epoch);
        for (_, one) in sources {
            store.total += one.total;
            store.sources.extend(one.sources);
        }
        Ok(store)
    }

    /// Every record of every source, globally ordered by timestamp (ties
    /// broken by source order, then append order). This is the order a
    /// live cluster would emit the lines in, so streamed log emission
    /// (`sdsim --stream-to`) replays it for a realistic tail workload.
    pub fn records_by_time(&self) -> Vec<(LogSource, RecordRef<'_>)> {
        let mut all: Vec<(LogSource, RecordRef<'_>)> = self
            .sources()
            .flat_map(|src| self.records(src).iter().map(move |r| (src, r)))
            .collect();
        // Stable sort: equal (ts, source) pairs keep append order.
        all.sort_by_key(|(src, r)| (r.ts, *src));
        all
    }
}

/// One source's records, parsed from its text as they are walked (a
/// line that does not parse is skipped): what [`LogStore::records`]
/// returns.
#[derive(Debug, Clone, Copy)]
pub struct Records<'a>(&'a Epoch, &'a str);

impl<'a> Records<'a> {
    /// The records, first to last.
    pub fn iter(self) -> impl DoubleEndedIterator<Item = RecordRef<'a>> {
        let Records(epoch, text) = self;
        text.lines()
            .filter_map(move |line| parse_line_ref(epoch, line))
    }

    /// The last record, parsed from the end of the text.
    pub fn last(self) -> Option<RecordRef<'a>> {
        self.iter().next_back()
    }
}

/// What a [`scan_dir`] caller makes of one source. It is opened before
/// the source's first file is read, handed the source's records a run at
/// a time — in file order, each run borrowed from the chunk it was read
/// from — and finished after the last run. File order is not time order
/// (log4j keeps the newest rotated segment in `x.log`, which is read
/// first; a damaged file swaps lines), so a scan whose result depends on
/// order must settle it itself. What a scan records for the registry it
/// gathers into `rec`, which the reader hands over with its own in one
/// acquisition per file ([`obs::Batch`]).
pub trait SourceScan: Send {
    /// What the source comes to.
    type Output: Send;

    /// Take the source's next records.
    fn records(&mut self, recs: &[RecordRef<'_>], rec: &mut obs::Batch);

    /// No record follows.
    fn finish(self, rec: &mut obs::Batch) -> Self::Output;
}

/// A store of one source, each record the scan hands it rendered back
/// into text: what [`LogStore::read_dir_with`] joins.
impl SourceScan for (LogSource, LogStore) {
    type Output = Self;

    fn records(&mut self, recs: &[RecordRef<'_>], _: &mut obs::Batch) {
        for &r in recs {
            self.1.append(self.0, r);
        }
    }

    fn finish(self, _: &mut obs::Batch) -> Self {
        self
    }
}

/// Read a corpus directory one source at a time, each a chunk at a time,
/// handing each chunk's records — borrowed from the bytes just read — to
/// the [`SourceScan`] `open` makes for its source under the corpus's
/// epoch.
///
/// It reads with the tailer's reader: [`read_epoch`], [`crate::list_dir`] (a
/// rotated `x.log.1` is `x.log`'s source) and [`read_records`], each file
/// up to the size it had when opened, [`READ_CHUNK`] bytes at a time.
/// Per source, the segments are read in relative-path order, each once.
/// Unparseable lines are skipped, as the real tool must tolerate stack
/// traces and banners; a source left with no record is not returned. The
/// records reach the scan in that file order, whatever their timestamps.
///
/// Sources are dispatched over `par` in [`LogSource`] order — the
/// ResourceManager log, usually the largest, first — and the scans come
/// back in that order, so the outcome is the same for every thread count.
/// At most `par.threads()` chunks and their records are in memory at a
/// time.
pub fn scan_dir<S, F>(dir: &Path, par: Parallelism, open: F) -> io::Result<(Epoch, Vec<S::Output>)>
where
    S: SourceScan,
    F: Fn(&Epoch, LogSource) -> S + Sync,
{
    let _span = obs::span("ingest").arg("dir", dir.display());
    let epoch = read_epoch(dir)?.unwrap_or_else(Epoch::default_run);
    // Enumerate the log files over the pool, then read them over it. The
    // walk is not cheap — a listing per application directory, a tenth
    // of a 2 000-application run on one thread — but a source's segments
    // may sit in two directories (a source is named by its path), so
    // its read waits for the whole table. One flat table, sorted by
    // source and then by path bytes — every path starts with `dir`, so
    // that is relative-path order — pins the order of a source's
    // segments, so nothing depends on directory iteration order or
    // worker scheduling (no two entries are equal: a path is listed
    // once).
    let walk = obs::span("walk");
    let mut files = log_files(dir, par)?;
    files.sort_unstable_by(|(a, a_path), (b, b_path)| {
        a.cmp(b)
            .then_with(|| a_path.as_os_str().cmp(b_path.as_os_str()))
    });
    drop(walk);
    obs::count("ingest_files_total", files.len() as u64);
    // The pool borrows one run of the table per source and drops none
    // of it (see `par`): the table is freed here, after the pool joins.
    let sources: Vec<&[(LogSource, PathBuf)]> = files.chunk_by(|a, b| a.0 == b.0).collect();
    let read = obs::span("read");
    let scanned = par::map(par, &sources, |segments| {
        scan_source(&epoch, dir, segments, &open)
    });
    drop(read);
    let mut out = Vec::with_capacity(scanned.len());
    for result in scanned {
        out.extend(result?);
    }
    Ok((epoch, out))
}

/// Scan one source's segments, in order, into the scan `open` makes; a
/// read error fails the scan. `None` if no line parsed.
fn scan_source<S: SourceScan>(
    epoch: &Epoch,
    dir: &Path,
    segments: &[(LogSource, PathBuf)],
    open: &impl Fn(&Epoch, LogSource) -> S,
) -> io::Result<Option<S::Output>> {
    let mut scan = open(epoch, segments[0].0);
    let mut held = Vec::new();
    let mut records = 0;
    // A file's spans and counts, and after the last file the stream's,
    // reach the registry in one acquisition.
    let mut rec = obs::Batch::default();
    for (i, (_, path)) in segments.iter().enumerate() {
        if i > 0 {
            obs::flush(std::mem::take(&mut rec));
        }
        let rel = path.strip_prefix(dir).unwrap_or(path);
        let span = obs::span("ingest_file").arg("file", rel.display());
        let file = fs::File::open(path)?;
        let len = file.metadata()?.len();
        // Sized to the file up to a chunk — a small file costs what
        // reading it whole costs: open, one size query, one read, close.
        let mut buf = vec![0; len.min(READ_CHUNK as u64) as usize];
        let (counts, read) =
            read_records(epoch, file.take(len), &mut buf, &mut held, true, |recs| {
                scan.records(recs, &mut rec)
            });
        read?;
        if span.is_active() {
            let (parsed, skipped) = (counts.records, counts.skipped());
            rec.count_labeled("ingest_lines_total", &[("status", "parsed")], parsed);
            rec.count_labeled("ingest_lines_total", &[("status", "skipped")], skipped);
            rec.observe("ingest_file_lines", LINES_PER_FILE_BOUNDS, counts.lines);
        }
        span.end_into(&mut rec);
        records += counts.records;
    }
    let out = (records > 0).then(|| scan.finish(&mut rec));
    obs::flush(rec);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ApplicationId, NodeId};

    fn sample_store() -> LogStore {
        let epoch = Epoch::default_run();
        let mut s = LogStore::new(epoch);
        let app = ApplicationId::new(epoch.unix_ms, 1);
        s.info(
            LogSource::ResourceManager,
            TsMs(10),
            "RMAppImpl",
            format!("{app} State change from NEW_SAVING to SUBMITTED on event = START"),
        );
        s.info(
            LogSource::NodeManager(NodeId(3)),
            TsMs(500),
            "ContainerImpl",
            format!(
                "Container {} transitioned from NEW to LOCALIZING",
                app.attempt(1).container(1)
            ),
        );
        s.info(
            LogSource::Driver(app),
            TsMs(1200),
            "ApplicationMaster",
            "Registered with ResourceManager",
        );
        s
    }

    #[test]
    fn push_and_query() {
        let s = sample_store();
        assert_eq!(s.total_records(), 3);
        assert_eq!(s.sources().count(), 3);
        assert_eq!(s.records(LogSource::ResourceManager).iter().count(), 1);
        let app = ApplicationId::new(s.epoch().unix_ms, 1);
        let driver = s.records(LogSource::Driver(app));
        assert_eq!(driver.iter().count(), 1);
        assert_eq!(
            driver.last().unwrap().message,
            "Registered with ResourceManager"
        );
        let absent = s.records(LogSource::Driver(ApplicationId::new(1, 9)));
        assert_eq!((absent.iter().count(), absent.last()), (0, None));
    }

    #[test]
    fn render_has_one_line_per_record() {
        let s = sample_store();
        let txt = s.text(LogSource::ResourceManager);
        assert_eq!(txt.lines().count(), 1);
        assert!(txt.contains("NEW_SAVING to SUBMITTED"));
        assert!(txt.ends_with('\n'));
        let lines: usize = s.sources().map(|src| s.text(src).lines().count()).sum();
        assert_eq!(lines, 3);
    }

    #[test]
    fn dir_roundtrip() {
        let s = sample_store();
        let dir = std::env::temp_dir().join(format!("logstore_test_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        s.write_dir(&dir).unwrap();
        let back = LogStore::read_dir_with(&dir, Parallelism::ONE).unwrap();
        assert_eq!(back.total_records(), s.total_records());
        assert_eq!(back.epoch(), s.epoch());
        assert!(back.sources().eq(s.sources()));
        for src in s.sources() {
            assert_eq!(back.text(src), s.text(src), "source {src:?}");
            assert_eq!(
                fs::read_to_string(dir.join(src.rel_path())).unwrap(),
                s.text(src)
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotated_segments_keep_file_order() {
        let dir = std::env::temp_dir().join(format!("logstore_rot_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        // Newer segment has later timestamps; rotation keeps the older
        // lines in the `.1` file.
        fs::write(
            dir.join("resourcemanager.log"),
            "2018-03-14 09:00:10,000 INFO  X: newer\n",
        )
        .unwrap();
        fs::write(
            dir.join("resourcemanager.log.1"),
            "2018-03-14 09:00:01,000 INFO  X: older\n",
        )
        .unwrap();
        // The store keeps the segments in path order, `x.log` first; the
        // analysis settles order by timestamp.
        let s = LogStore::read_dir_with(&dir, Parallelism::ONE).unwrap();
        let recs: Vec<_> = s.records(LogSource::ResourceManager).iter().collect();
        let messages: Vec<&str> = recs.iter().map(|r| r.message).collect();
        assert_eq!(messages, ["newer", "older"]);
        assert_eq!(s.records_by_time()[0].1.message, "older");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A scan that keeps each run it is handed, as `[(ts, message)]`.
    struct Runs(LogSource, Vec<Vec<(u64, String)>>);

    impl SourceScan for Runs {
        type Output = Self;

        fn records(&mut self, recs: &[RecordRef<'_>], _: &mut obs::Batch) {
            let seen = recs.iter().map(|r| (r.ts.0, r.message.to_string()));
            self.1.push(seen.collect());
        }

        fn finish(self, _: &mut obs::Batch) -> Self {
            self
        }
    }

    /// The runs `scan_dir` hands each source's scan.
    fn scanned_runs(dir: &Path, par: Parallelism) -> Vec<Runs> {
        scan_dir(dir, par, |_, src| Runs(src, Vec::new()))
            .unwrap()
            .1
    }

    /// What `scan_dir` visits, as `(source, [(ts, message)])`.
    fn scanned(dir: &Path, par: Parallelism) -> Vec<(LogSource, Vec<(u64, String)>)> {
        let runs = scanned_runs(dir, par).into_iter();
        runs.map(|Runs(src, runs)| (src, runs.concat())).collect()
    }

    /// What `LogStore::read_dir_with` keeps, as `(source, [(ts,
    /// message)])`, read back through `LogStore::scan` at every thread
    /// count.
    fn stored(dir: &Path) -> Vec<(LogSource, Vec<(u64, String)>)> {
        let store = LogStore::read_dir_with(dir, Parallelism::ONE).unwrap();
        let kept = |src| -> Vec<(u64, String)> {
            let recs = store.records(src).iter();
            recs.map(|r| (r.ts.0, r.message.to_string())).collect()
        };
        let stored: Vec<_> = store.sources().map(|src| (src, kept(src))).collect();
        for threads in [2, 4] {
            let again = LogStore::read_dir_with(dir, Parallelism::new(threads)).unwrap();
            assert!(store
                .sources()
                .all(|src| again.text(src) == store.text(src)));
        }
        let scanned = store
            .sources()
            .filter_map(|src| store.scan(src, Runs(src, Vec::new())));
        let scanned: Vec<_> = scanned
            .map(|Runs(src, runs)| (src, runs.concat()))
            .collect();
        assert_eq!(scanned, stored);
        stored
    }

    #[test]
    fn scan_visits_sources_in_order_each_in_file_order() {
        let dir = std::env::temp_dir().join(format!("logstore_scan_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let app = "apps/application_1521018000000_0001";
        fs::create_dir_all(dir.join(app)).unwrap();
        let line = |ms: u64, msg: &str| format!("2018-03-14 09:00:00,{ms:03} INFO  X: {msg}\n");
        // Out of order inside one file; ties keep file order.
        fs::write(
            dir.join("nodemanager-node01.log"),
            [line(30, "c"), line(10, "a"), line(30, "d"), line(20, "b")].concat(),
        )
        .unwrap();
        // Segment order on disk (`.log` before `.log.1`, `.log.10` before
        // `.log.2`) disagrees with time.
        fs::write(dir.join("resourcemanager.log"), line(400, "newest")).unwrap();
        fs::write(dir.join("resourcemanager.log.1"), line(300, "newer")).unwrap();
        fs::write(dir.join("resourcemanager.log.2"), line(200, "older")).unwrap();
        fs::write(dir.join("resourcemanager.log.10"), line(100, "oldest")).unwrap();
        // No line parses, nothing at all, no trailing newline.
        fs::write(dir.join("nodemanager-node02.log"), "junk\n\tat frame\n").unwrap();
        fs::write(dir.join("nodemanager-node03.log"), "").unwrap();
        fs::write(dir.join(app).join("driver.log"), line(5, "drv").trim_end()).unwrap();

        let msgs = |m: &[(u64, &str)]| -> Vec<(u64, String)> {
            m.iter().map(|(t, s)| (*t, s.to_string())).collect()
        };
        // The scans see each file's records as the file has them, the
        // segments in path order.
        let want = vec![
            (
                LogSource::ResourceManager,
                msgs(&[
                    (400, "newest"),
                    (300, "newer"),
                    (100, "oldest"),
                    (200, "older"),
                ]),
            ),
            (
                LogSource::NodeManager(NodeId(1)),
                msgs(&[(30, "c"), (10, "a"), (30, "d"), (20, "b")]),
            ),
            (
                LogSource::Driver(ApplicationId::new(1_521_018_000_000, 1)),
                msgs(&[(5, "drv")]),
            ),
        ];
        for threads in [1, 2, 4] {
            assert_eq!(scanned(&dir, Parallelism::new(threads)), want, "{threads}");
        }
        // The store keeps that visit, in file order; no source without a
        // record.
        assert_eq!(stored(&dir), want);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// What a source reads as when each of its files is read whole, split
    /// into lines and parsed, the files concatenated in path order: the
    /// reference the chunked scan must equal.
    fn read_whole(dir: &Path) -> Vec<(LogSource, Vec<(u64, String)>)> {
        let mut files: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        files.sort();
        let mut sources: BTreeMap<LogSource, Vec<(u64, String)>> = BTreeMap::new();
        let epoch = Epoch::default_run();
        for rel in files {
            let Some(src) = LogSource::from_rel_path(&rel) else {
                continue;
            };
            let bytes = fs::read(dir.join(&rel)).unwrap();
            let recs = sources.entry(src).or_default();
            for line in String::from_utf8_lossy(&bytes).lines() {
                if let Some(r) = parse_line_ref(&epoch, line) {
                    recs.push((r.ts.0, r.message.to_string()));
                }
            }
        }
        sources.retain(|_, recs| !recs.is_empty());
        sources.into_iter().collect()
    }

    /// Appends log lines to a file being built byte by byte, so that
    /// chunk boundaries can be put exactly where a test wants them.
    struct LogBytes {
        bytes: Vec<u8>,
        ms: u64,
    }

    impl LogBytes {
        fn new(ms: u64) -> LogBytes {
            LogBytes {
                bytes: Vec::new(),
                ms,
            }
        }

        /// The timestamp prefix of a line `ms` into the run.
        fn stamp(ms: u64) -> String {
            let (s, ms) = (ms / 1000, ms % 1000);
            format!(
                "2018-03-14 09:{:02}:{:02},{ms:03} INFO  X: ",
                s / 60,
                s % 60
            )
        }

        /// A line stamped a millisecond after the one before it.
        fn line(&mut self, msg: &[u8]) -> &mut Self {
            self.ms += 1;
            self.bytes.extend(Self::stamp(self.ms).bytes());
            self.bytes.extend(msg);
            self.bytes.push(b'\n');
            self
        }

        /// Lines up to byte `at`, the last one left open, so that the
        /// next bytes appended land exactly there.
        fn upto(&mut self, at: usize) -> &mut Self {
            let stamp = Self::stamp(0).len();
            while self.bytes.len() + 2 * (stamp + 1_000) < at {
                self.line(&[b'f'; 1_000]);
            }
            let fill = at - self.bytes.len() - stamp;
            self.line(&vec![b'f'; fill]);
            self.bytes.pop();
            self
        }

        fn push(&mut self, bytes: &[u8]) -> &mut Self {
            self.bytes.extend(bytes);
            self
        }
    }

    #[test]
    fn chunked_scan_visits_what_a_whole_file_read_visits() {
        const C: usize = READ_CHUNK;
        let dir = std::env::temp_dir().join(format!("logstore_chunks_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();

        // In time order, six chunks long. The first chunk ends right after
        // a `\n`, the second between `\r` and `\n`, the third inside `é`,
        // and the fourth and fifth inside one line longer than a chunk.
        let mut rm = LogBytes::new(0);
        rm.upto(C - 1).push(b"\n");
        rm.upto(2 * C - 1).push(b"\r\n");
        rm.upto(3 * C - 1).push("\u{e9}\n".as_bytes());
        rm.upto(4 * C - 100).push(&[b'g'; C + 200]).push(b"\n");
        rm.line(b"after the long line")
            .push(b"\n\tat a stack frame\n");
        rm.line(b"bad \xff byte").line(b"cut \xe2\x9c");
        rm.upto(6 * C).push(b"\n").line(b"no newline at the end");
        rm.bytes.pop();
        assert_eq!(rm.bytes[C - 1], b'\n');
        assert_eq!(&rm.bytes[2 * C - 1..2 * C + 1], b"\r\n");
        assert_eq!(&rm.bytes[3 * C - 1..3 * C + 1], "\u{e9}".as_bytes());
        assert!(!rm.bytes[4 * C - 100..5 * C + 100].contains(&b'\n'));
        fs::write(dir.join("resourcemanager.log"), &rm.bytes).unwrap();

        // In order for two chunks and more, then one line older than the
        // one before it.
        let mut nm = LogBytes::new(10_000);
        nm.upto(2 * C + 5_000).push(b"\n");
        nm.ms -= 5_000;
        nm.line(b"from the past").line(b"back in order");
        fs::write(dir.join("nodemanager-node01.log"), &nm.bytes).unwrap();

        // Segments on disk in reverse time order: `.log` is read first.
        for (rel, ms) in [("", 3_000), (".1", 2_000), (".10", 1_000)] {
            let mut seg = LogBytes::new(ms);
            seg.line(b"first").line(b"second");
            let name = format!("nodemanager-node02.log{rel}");
            fs::write(dir.join(name), &seg.bytes).unwrap();
        }

        let want = read_whole(&dir);
        assert_eq!(want.len(), 3);
        // Every line parses but the empty one and the stack frame.
        let lines = rm.bytes.split(|b| *b == b'\n').count();
        assert_eq!(want[0].1.len(), lines - 2);
        for threads in [1, 2, 4] {
            let opened = std::sync::Mutex::new(Vec::new());
            let (_, runs) = scan_dir(&dir, Parallelism::new(threads), |_, src| {
                opened.lock().unwrap().push(src);
                Runs(src, Vec::new())
            })
            .unwrap();
            // Each file once, in file order: a record read twice, or
            // handed over out of turn, would show here.
            let got: Vec<_> = runs.iter().map(|r| (r.0, r.1.concat())).collect();
            assert_eq!(got, want, "{threads} threads");
            // Every source arrives a chunk at a time — the file out of
            // time order too — and a rotated source a run per segment.
            let counts: Vec<usize> = runs.iter().map(|r| r.1.len()).collect();
            assert_eq!(counts, [7, 3, 3], "{threads} threads");
            // One scan per source.
            let mut opened = opened.into_inner().unwrap();
            opened.sort();
            let once_each: Vec<LogSource> = want.iter().map(|(src, _)| *src).collect();
            assert_eq!(opened, once_each, "{threads} threads");
        }
        // The store keeps what the scan visits, in file order.
        assert_eq!(stored(&dir), want);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn symlinked_directories_are_followed_and_dangling_links_ignored() {
        use std::os::unix::fs::symlink;
        let dir = std::env::temp_dir().join(format!("logstore_link_{}", std::process::id()));
        let elsewhere = std::env::temp_dir().join(format!("logstore_far_{}", std::process::id()));
        for d in [&dir, &elsewhere] {
            let _ = fs::remove_dir_all(d);
            fs::create_dir_all(d).unwrap();
        }
        let line = "2018-03-14 09:00:00,001 INFO  X: linked\n";
        fs::write(elsewhere.join("driver.log"), line).unwrap();
        fs::write(elsewhere.join("rm"), line).unwrap();
        fs::create_dir_all(dir.join("apps")).unwrap();
        // An app directory on another volume, a log that is itself a
        // link, and two links to nothing — one of them named like a log,
        // which a walk that took every non-directory for a file would
        // try, and fail, to read.
        symlink(&elsewhere, dir.join("apps/application_1521018000000_0001")).unwrap();
        symlink(elsewhere.join("rm"), dir.join("resourcemanager.log")).unwrap();
        symlink(
            dir.join("nowhere"),
            dir.join("apps/application_1521018000000_0002"),
        )
        .unwrap();
        symlink(dir.join("nowhere"), dir.join("nodemanager-node01.log")).unwrap();

        let seen = scanned(&dir, Parallelism::ONE);
        let sources: Vec<LogSource> = seen.iter().map(|(src, _)| *src).collect();
        let app = ApplicationId::new(1_521_018_000_000, 1);
        assert_eq!(
            sources,
            [LogSource::ResourceManager, LogSource::Driver(app)]
        );
        assert!(seen.iter().all(|(_, recs)| recs[0].1 == "linked"));
        fs::remove_dir_all(&dir).unwrap();
        fs::remove_dir_all(&elsewhere).unwrap();
    }

    #[test]
    fn records_by_time_is_globally_ordered() {
        let s = sample_store();
        let ordered = s.records_by_time();
        assert_eq!(ordered.len(), 3);
        assert!(ordered.windows(2).all(|w| w[0].1.ts <= w[1].1.ts));
        assert_eq!(ordered[0].0, LogSource::ResourceManager);
        assert_eq!(ordered[0].1.ts, TsMs(10));
        assert_eq!(ordered[2].1.ts, TsMs(1200));
        // Equal timestamps fall back to source order (RM before NM).
        let mut tied = LogStore::new(Epoch::default_run());
        tied.info(LogSource::NodeManager(NodeId(1)), TsMs(5), "X", "nm");
        tied.info(LogSource::ResourceManager, TsMs(5), "X", "rm");
        let ordered = tied.records_by_time();
        assert_eq!(ordered[0].1.message, "rm");
        assert_eq!(ordered[1].1.message, "nm");
    }

    #[test]
    fn read_dir_skips_junk_lines_and_files() {
        let dir = std::env::temp_dir().join(format!("logstore_junk_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join("resourcemanager.log"),
            "garbage line\n2018-03-14 09:00:00,001 INFO  X: ok\n\tat stack.frame\n",
        )
        .unwrap();
        fs::write(dir.join("README"), "not a log").unwrap();
        let s = LogStore::read_dir_with(&dir, Parallelism::ONE).unwrap();
        assert_eq!(s.total_records(), 1);
        assert_eq!(
            s.text(LogSource::ResourceManager),
            "2018-03-14 09:00:00,001 INFO  X: ok\n"
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}
