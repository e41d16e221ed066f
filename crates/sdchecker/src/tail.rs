//! Tailing log ingestion: offset-tracking readers over a growing corpus
//! directory.
//!
//! Batch ingestion ([`logmodel::scan_dir`]) reads a finished corpus
//! once. A live cluster never finishes: log files grow
//! while the analyzer watches, new application directories appear as
//! jobs are submitted, and a writer may be mid-line when a poll happens.
//! [`DirTailer`] handles all of that with three pieces of per-file
//! state:
//!
//! * a **byte offset** of how far the file has been read — each poll
//!   reads only appended bytes;
//! * a **partial-line buffer** — bytes after the last newline are held
//!   back until the line completes, so a poll landing mid-line (or
//!   mid-UTF-8-sequence — multi-byte encodings never contain a `\n`
//!   byte, so byte-level splitting is decode-safe) never produces a
//!   corrupt record;
//! * the **size its last look saw on disk** — lag is answered from it,
//!   so asking how far behind the tail is costs no I/O.
//!
//! New sources (new apps, new nodes) are found by **directory-table
//! discovery**: the tailer remembers every directory it knows with the
//! mtime its last listing saw, and re-lists only those that are new,
//! whose mtime moved, or whose mtime is too young to trust
//! (`MTIME_SETTLE`, 2 s).
//!
//! **What a poll reads, and in what order.** Files and directories are
//! grouped by the application that owns them (`apps/<id>/…`); whatever
//! no application owns — the ResourceManager and NodeManager logs, the
//! watch root, `apps/` — is the cluster group. A poll
//!
//! 1. lists the cluster's directories that need it, on the calling
//!    thread, and `stat`s every cluster log;
//! 2. reads the cluster logs that grew — one stream's files to one
//!    worker, the streams that grew most handed out first — together
//!    with the groups it looks at whatever the [`TailSink`] says: every
//!    group holding something no poll has looked at yet (just
//!    discovered, or restored from a checkpoint) or a directory whose
//!    mtime has not settled, and one `COLD_ROTATION`-th of the rest, an
//!    application's turn fixed by its sequence number, so nothing starves
//!    and no poll is a spike;
//! 3. then, decided once, after the cluster's scans were applied, every
//!    other application the sink calls live, the groups whole to a
//!    worker in runs of consecutive applications.
//!
//! A worker reads a grown file and scans each chunk's records as it reads
//! them, resumed from the stream's [`StreamCursor`] — records never leave
//! the worker that parsed them — and the sink gets the scans on the
//! calling thread, in sweep order: the cluster's streams in file order,
//! then applications in id order, each group's files in sorted
//! relative-path order, as one thread would have read them. Cluster logs
//! are `stat`ed first because they are what *names* an application: a
//! reader that passed an application's file and then meets the
//! ResourceManager line that retires it would let the watermark run
//! ahead of a straggler appended in between. Every application file is
//! `stat`ed after every cluster log, so an application line written
//! before a cluster line a poll reads is read by that poll, or an
//! earlier one. An application nobody has named yet (or that has
//! retired) costs nothing but its turn: a line in one of its files waits
//! at most `COLD_ROTATION` polls, and is never lost.
//! [`DirTailer::drain_with`] is the same sweep with every application
//! looked at together with the cluster's streams, then the held partial
//! lines as final — what a batch-parity drain at shutdown wants; and
//! [`DirTailer::poll`] that sweep again, an owned copy of every record
//! handed over in place of each chunk's scan.
//!
//! The cost model, counted by [`TailOps`]: a poll performs one `stat`
//! per file and per directory it looks at (cluster, live, unsettled,
//! and the rest ÷ `COLD_ROTATION`), one listing per new/changed/young
//! directory among them, and one open per file that grew, read a
//! worker's share of [`READ_CHUNK`] at a time; nothing else per file,
//! and nothing at all per file it does not look at. (An executor log
//! filed under another application's directory joins its own
//! application's group after the poll, and is read from the next.)
//!
//! Bytes become records through batch's own reader,
//! [`logmodel::read_records`], which borrows them in place from a reused
//! buffer, read up to the size the poll's `stat` saw; only an
//! unterminated remainder is copied, and never [`logmodel::MAX_HELD_LINE`]
//! of it. The workers' buffers split one [`READ_CHUNK`] between them, so
//! a backlog drain holds one chunk, a chunk's records per worker, the
//! scans waiting for their turn and each file's unterminated last line,
//! not one file. A read error is counted and retried at the next look;
//! an empty line is no line to [`TailStats`], nor to batch's ingest
//! counters. A file that shrinks (rotation, truncation) resets its
//! offset and is re-read. The net guarantee, pinned by the incremental
//! property test: replaying a tailed corpus in *any* append chunking, on
//! any number of workers, yields exactly the records batch ingest reads
//! from the finished directory.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime};

use logmodel::{
    list_dir, par, read_epoch, read_records, ApplicationId, Entry, Epoch, LogRecord, LogSource,
    Parallelism, ReadCounts, RecordRef, TsMs, READ_CHUNK,
};

use crate::checkpoint::CkptError;
use crate::extract::{Extractor, StreamCursor, StreamScanner, TailScan};
use crate::wire::{corrupt, wire_struct, Dec, Enc, Encode};

/// Cumulative tailing statistics across all polls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TailStats {
    /// Polls performed.
    pub polls: u64,
    /// Log files currently tracked.
    pub files: u64,
    /// Bytes read from disk.
    pub read_bytes: u64,
    /// Lines parsed into records.
    pub parsed_lines: u64,
    /// Complete lines that did not parse ([`ReadCounts::skipped`], as
    /// batch's `ingest_lines_total{status="skipped"}` counts them).
    pub skipped_lines: u64,
    /// Files that shrank and were reset to offset 0.
    pub resets: u64,
    /// Tracked files that vanished from disk and were dropped.
    pub removed_files: u64,
}

impl TailStats {
    /// Count one read: its bytes, and its parsed and skipped lines.
    fn add(&mut self, read: ReadCounts) {
        self.read_bytes += read.bytes;
        self.parsed_lines += read.records;
        self.skipped_lines += read.skipped();
    }

    /// Add what looks counted: everything but `polls` and `files`.
    fn absorb(&mut self, looked: TailStats) {
        self.read_bytes += looked.read_bytes;
        self.parsed_lines += looked.parsed_lines;
        self.skipped_lines += looked.skipped_lines;
        self.resets += looked.resets;
        self.removed_files += looked.removed_files;
    }
}

wire_struct!(TailStats {
    polls,
    files,
    read_bytes,
    parsed_lines,
    skipped_lines,
    resets,
    removed_files,
});

/// Filesystem calls a tailer has made since it was created, plus the
/// reads among them that failed. Process-local: never checkpointed, so a
/// resumed daemon counts from zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TailOps {
    /// `stat` calls: one per file and per directory a poll looks at,
    /// plus one per symlink met in a listing and per directory adopted.
    pub stats: u64,
    /// Directory listings (`read_dir`).
    pub listings: u64,
    /// File opens: one per file that grew, plus the `epoch.txt` probe
    /// until the epoch resolves.
    pub opens: u64,
    /// Opens or reads of a grown file that failed; the rest of the file
    /// was skipped, its offset after the last chunk read.
    pub read_errors: u64,
    /// Lines dropped for reaching [`logmodel::MAX_HELD_LINE`] without a
    /// newline ([`ReadCounts::oversize`]); each is a skipped line too.
    pub oversize_lines: u64,
}

impl TailOps {
    fn absorb(&mut self, looked: TailOps) {
        self.stats += looked.stats;
        self.listings += looked.listings;
        self.opens += looked.opens;
        self.read_errors += looked.read_errors;
        self.oversize_lines += looked.oversize_lines;
    }
}

/// Lag of the tail against the directory as of each file's last look:
/// the last poll for the cluster logs and the files of live
/// applications, at most [`COLD_ROTATION`] polls ago for any other.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TailLag {
    /// Tracked log files.
    pub sources: u64,
    /// Bytes each file's last look saw on disk but did not turn into
    /// records: held-back partial lines, short reads, and files that
    /// could not be read. Bytes appended since that look are not
    /// counted — the next look reads them.
    pub bytes: u64,
    /// Largest per-source log-time lag: how far the quietest source's
    /// last record trails the global watermark, in ms.
    pub max_ms: u64,
}

/// One tracked source's lag, for per-source health reporting.
#[cfg(test)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SourceLag {
    /// Relative path under the watch directory.
    pub rel: String,
    /// Bytes this file's last look saw on disk but did not turn into
    /// records (see [`TailLag::bytes`]).
    pub bytes: u64,
    /// Log-time lag behind the global watermark, in ms.
    pub ms: u64,
}

/// Per-file tail state.
#[derive(Debug)]
struct FileTail {
    source: LogSource,
    path: PathBuf,
    /// Bytes read from the file so far (next read starts here).
    offset: u64,
    /// Bytes read but not yet terminated by a newline.
    partial: Vec<u8>,
    /// Timestamp of the last record this file produced.
    last_ts: Option<TsMs>,
    /// File size the last look's `stat` saw (`offset` before any).
    disk_len: u64,
}

impl FileTail {
    /// A file not read yet (or, with `offset`/`partial`/`last_ts` set,
    /// restored from a checkpoint).
    fn new(source: LogSource, path: PathBuf) -> FileTail {
        FileTail {
            source,
            path,
            offset: 0,
            partial: Vec::new(),
            last_ts: None,
            disk_len: 0,
        }
    }

    /// Bytes the last look saw on disk that are not records yet.
    fn behind_bytes(&self) -> u64 {
        self.disk_len.saturating_sub(self.offset) + self.partial.len() as u64
    }

    /// How far this source's last record trails `watermark`, in ms.
    fn behind_ms(&self, watermark: u64) -> u64 {
        watermark.saturating_sub(self.last_ts.map_or(watermark, |t| t.0))
    }
}

/// A file's checkpoint is what the directory cannot tell a restarted
/// tailer: how far it was consumed, the partial line pending, and its
/// last timestamp. The relative path it is keyed by travels in front of
/// it; [`DirTailer::decode`] is the reader.
impl Encode for FileTail {
    fn encode(&self, e: &mut Enc) {
        let FileTail {
            source: _, // named by the relative path
            path: _,   // watch directory + relative path
            offset,
            partial,
            last_ts,
            disk_len: _, // relearned by the first look's stat
        } = self;
        offset.encode(e);
        e.bytes(partial);
        last_ts.encode(e);
    }
}

/// How old a directory's mtime must be before a listing taken under it
/// is trusted to be complete.
///
/// A listing is only known to hold every create that moved the mtime
/// *before* the `stat` preceding it. A create landing after the listing
/// but in the same timestamp granule leaves the mtime where it was and
/// would never be noticed, so a directory is re-listed every poll until
/// one listing has started at least this long after its mtime — by then
/// the granule that mtime names is over, and any later create moves it.
///
/// Failure modes. Age is the local wall clock minus the mtime, so a
/// file server whose clock runs more than this behind ours makes young
/// directories look old; one running ahead only costs extra listings
/// (an mtime in the future is young). A filesystem whose directory
/// timestamps are coarser than this (FAT's 2 s is the limit), or which
/// does not move a directory's mtime on create or rename-in at all, is
/// affected the same way. In each case a file created in the granule of
/// the last listing of an already-known directory stays hidden until
/// that directory's mtime next moves; files in new directories, and
/// appends to tracked files, are never affected. Attribute caching (NFS
/// `acdirmax`) only delays discovery.
const MTIME_SETTLE: Duration = Duration::from_secs(2);

/// What the tailer remembers about a known directory.
#[derive(Debug, Default)]
struct DirState {
    /// mtime from the `stat` preceding the last listing; `None` before
    /// the first listing, after a failed one, or without platform
    /// support — all of which mean "list again".
    mtime: Option<SystemTime>,
    /// Whether a listing has started [`MTIME_SETTLE`] after `mtime`.
    settled: bool,
}

impl DirState {
    /// Record the mtime this poll's `stat` saw; whether the directory
    /// must be listed this poll.
    fn needs_listing(&mut self, mtime: Option<SystemTime>, now: SystemTime) -> bool {
        if mtime != self.mtime {
            *self = DirState {
                mtime,
                settled: false,
            };
        }
        if self.settled {
            return false;
        }
        self.settled = mtime
            .and_then(|m| now.duration_since(m).ok())
            .is_some_and(|age| age >= MTIME_SETTLE);
        true
    }
}

/// How many polls share one look at everything that is neither cluster,
/// new, unsettled nor live: an application's files and directories are
/// looked at when its sequence number's remainder comes up. Larger
/// means cheaper polls and a longer wait — at most this many polls —
/// for a line of an application no cluster log has named yet, or that
/// has already retired.
pub const COLD_ROTATION: u64 = 8;

/// The application a directory under the watch root belongs to
/// (`apps/<id>` and everything below it); `None` for the root, `apps/`
/// itself and anything else.
fn dir_owner(root: &Path, dir: &Path) -> Option<ApplicationId> {
    let mut below = dir.strip_prefix(root).ok()?.components();
    if below.next()?.as_os_str() != "apps" {
        return None;
    }
    below.next()?.as_os_str().to_str()?.parse().ok()
}

/// The application whose events a source's lines carry; `None` for the
/// cluster logs.
fn source_owner(source: LogSource) -> Option<ApplicationId> {
    match source {
        LogSource::ResourceManager | LogSource::NodeManager(_) => None,
        LogSource::Driver(app) => Some(app),
        LogSource::Executor(container) => Some(container.app()),
    }
}

/// What a sweep feeds: each grown file's records, scanned by the worker
/// that read them, and what tells it where records are expected.
pub trait TailSink {
    /// Whether `app` may still get records that matter: a live
    /// application's files and directories are looked at on every poll,
    /// everything else's once per rotation. Asked once per application
    /// per poll, after the cluster logs' scans were applied.
    fn is_live(&self, app: ApplicationId) -> bool;

    /// The cursors of the streams whose files `owner` owns (the
    /// cluster's for `None`), which this poll's scans of them resume
    /// from; a stream without one starts from the default cursor.
    fn cursors(&self, owner: Option<ApplicationId>) -> Vec<(LogSource, StreamCursor)>;

    /// One stream's scan of what one look read, in sweep order. Never
    /// empty.
    fn apply(&mut self, scan: TailScan);

    /// The poll's last scan was applied.
    fn swept(&mut self) {}
}

/// What a sweep's workers make of each chunk's records, and what the
/// poll thread does with it: a [`TailSink`]'s scans, or owned records.
trait Sweep {
    /// What a worker makes of one chunk's records.
    type Made: Send;

    /// See [`TailSink::is_live`]; every application unless overridden.
    fn is_live(&self, _: ApplicationId) -> bool {
        true
    }

    /// See [`TailSink::cursors`]; none unless overridden.
    fn cursors(&self, _: Option<ApplicationId>) -> Vec<(LogSource, StreamCursor)> {
        Vec::new()
    }

    /// One chunk's records of `source`, scanned on from `cursor`.
    fn make(
        ex: &Extractor,
        source: LogSource,
        cursor: &mut StreamCursor,
        recs: &[RecordRef<'_>],
    ) -> Self::Made;

    /// The events or records `made` holds, which decide when a worker
    /// hands its results over.
    fn size(made: &Self::Made) -> usize;

    /// Take what a worker made, in sweep order.
    fn take(&mut self, made: Self::Made);

    /// See [`TailSink::swept`].
    fn swept(&mut self) {}
}

/// A sink's scans.
struct Scans<'s, S>(&'s mut S);

impl<S: TailSink> Sweep for Scans<'_, S> {
    type Made = TailScan;

    fn is_live(&self, app: ApplicationId) -> bool {
        self.0.is_live(app)
    }

    fn cursors(&self, owner: Option<ApplicationId>) -> Vec<(LogSource, StreamCursor)> {
        self.0.cursors(owner)
    }

    fn make(
        ex: &Extractor,
        source: LogSource,
        cursor: &mut StreamCursor,
        recs: &[RecordRef<'_>],
    ) -> TailScan {
        let mut scanner = StreamScanner::resume(ex, source, *cursor);
        scanner.step_all(recs);
        let scan = scanner.end();
        *cursor = scan.cursor;
        scan
    }

    fn size(scan: &TailScan) -> usize {
        scan.scan.events.len()
    }

    fn take(&mut self, scan: TailScan) {
        self.0.apply(scan);
    }

    fn swept(&mut self) {
        self.0.swept();
    }
}

/// An owned copy of every record.
struct Records<'a>(&'a mut Vec<(LogSource, LogRecord)>);

impl Sweep for Records<'_> {
    type Made = (LogSource, Vec<LogRecord>);

    fn make(
        _: &Extractor,
        source: LogSource,
        _: &mut StreamCursor,
        recs: &[RecordRef<'_>],
    ) -> Self::Made {
        (source, recs.iter().map(RecordRef::to_record).collect())
    }

    fn size((_, recs): &Self::Made) -> usize {
        recs.len()
    }

    fn take(&mut self, (source, recs): Self::Made) {
        self.0.extend(recs.into_iter().map(|r| (source, r)));
    }
}

/// The cursor of `source` among `cursors`, the default one added if it
/// has none.
fn cursor_of(cursors: &mut Vec<(LogSource, StreamCursor)>, source: LogSource) -> &mut StreamCursor {
    let at = match cursors.iter().position(|(s, _)| *s == source) {
        Some(at) => at,
        None => {
            cursors.push((source, StreamCursor::default()));
            cursors.len() - 1
        }
    };
    &mut cursors[at].1
}

/// The files and directories of one owner — an application, or `None`
/// for the cluster — which a poll looks at together or not at all.
#[derive(Debug, Default)]
struct Group {
    /// Tracked files with their relative paths, sorted by them. (A
    /// vector: an application has a handful, and two thousand maps of
    /// five are mostly empty nodes.)
    files: Vec<(String, FileTail)>,
    /// Known directories, sorted. Not checkpointed: a restored tailer
    /// starts with the root alone and its first poll is a full walk.
    dirs: Vec<(PathBuf, DirState)>,
    /// Whether the next poll must look here whatever the sink says:
    /// something was adopted (or restored) since the last look, or a
    /// directory's listing is not trusted yet.
    due: bool,
}

/// What every look of one poll shares.
#[derive(Clone, Copy)]
struct Cx<'a> {
    root: &'a Path,
    epoch: Epoch,
    now: SystemTime,
}

/// What looks did besides handing records over: counts, the newest
/// timestamp, and what their listings found that another group owns.
/// Made wherever the look ran, folded into the tailer on the poll thread.
#[derive(Debug, Default)]
struct Looked {
    stats: TailStats,
    ops: TailOps,
    watermark: Option<TsMs>,
    /// Directories the cluster's listings met under `apps/` that no
    /// group knows yet.
    dirs: Vec<PathBuf>,
    /// Log files filed under another application's directory.
    files: Vec<(String, FileTail)>,
}

impl Looked {
    /// Add `other`'s counts and findings to these.
    fn absorb(&mut self, other: Looked) {
        self.stats.absorb(other.stats);
        self.ops.absorb(other.ops);
        self.watermark = self.watermark.max(other.watermark);
        self.dirs.extend(other.dirs);
        self.files.extend(other.files);
    }
}

impl Group {
    /// Stat the group's directories, then list the ones whose listing
    /// cannot be trusted any more (see [`MTIME_SETTLE`]) and whatever new
    /// directories of the group those listings turn up. A directory
    /// another group owns goes to `did` unless `knows` it; a directory
    /// that vanished leaves the table. Only the watch root's own failure
    /// is an error.
    fn look_dirs(
        &mut self,
        owner: Option<ApplicationId>,
        cx: Cx<'_>,
        knows: &impl Fn(&Path) -> bool,
        did: &mut Looked,
    ) -> io::Result<()> {
        let mut to_list: Vec<PathBuf> = Vec::new();
        let mut root_error = None;
        self.dirs.retain_mut(|(path, state)| {
            did.ops.stats += 1;
            match fs::metadata(&*path) {
                Ok(meta) => {
                    if state.needs_listing(meta.modified().ok(), cx.now) {
                        to_list.push(path.clone());
                    }
                    true
                }
                Err(e) if *path == cx.root => {
                    root_error = Some(e);
                    true
                }
                Err(_) => false,
            }
        });
        if let Some(e) = root_error {
            return Err(e);
        }
        while let Some(d) = to_list.pop() {
            match self.list(owner, &d, cx, knows, did, &mut to_list) {
                Ok(()) => {}
                Err(e) if d == cx.root => return Err(e),
                // Removed since its parent's listing, or unreadable:
                // forget what was seen so the next poll tries again (and
                // drops it if it is gone).
                Err(_) => self.adopt_dir(d, DirState::default()),
            }
        }
        Ok(())
    }

    /// List one directory: adopt new log files, and queue the group's
    /// subdirectories not in the table yet onto `to_list`.
    fn list(
        &mut self,
        owner: Option<ApplicationId>,
        d: &Path,
        cx: Cx<'_>,
        knows: &impl Fn(&Path) -> bool,
        did: &mut Looked,
        to_list: &mut Vec<PathBuf>,
    ) -> io::Result<()> {
        did.ops.listings += 1;
        let mut links = 0;
        let listed = list_dir(cx.root, d, &mut links, |entry| match entry {
            Entry::Dir(path) => {
                if dir_owner(cx.root, path) != owner {
                    if !knows(path) {
                        did.dirs.push(path.to_path_buf());
                    }
                    return;
                }
                if self
                    .dirs
                    .binary_search_by(|(p, _)| p.as_path().cmp(path))
                    .is_ok()
                {
                    return;
                }
                // The mtime to remember is the one from before the
                // listing, so a create racing the listing moves it. (A
                // fresh state always needs listing; the call records
                // the mtime and whether this listing settles it.)
                did.ops.stats += 1;
                if let Ok(meta) = fs::metadata(path) {
                    let mut state = DirState::default();
                    state.needs_listing(meta.modified().ok(), cx.now);
                    self.adopt_dir(path.to_path_buf(), state);
                    to_list.push(path.to_path_buf());
                }
            }
            Entry::Log(source, rel, path) => {
                let tail = || FileTail::new(source, path.to_path_buf());
                if source_owner(source) == owner {
                    self.adopt_file(rel, tail);
                } else {
                    did.files.push((rel.to_owned(), tail()));
                }
            }
        });
        did.ops.stats += links;
        listed
    }

    /// Start tracking the file at `rel`, unless it is tracked already.
    fn adopt_file(&mut self, rel: &str, tail: impl FnOnce() -> FileTail) {
        if let Err(at) = self.files.binary_search_by(|(r, _)| r.as_str().cmp(rel)) {
            self.files.insert(at, (rel.to_owned(), tail()));
            self.due = true;
        }
    }

    /// Remember the directory `path` as `state`, whatever was known of it.
    fn adopt_dir(&mut self, path: PathBuf, state: DirState) {
        match self.dirs.binary_search_by(|(p, _)| p.cmp(&path)) {
            Ok(at) => self.dirs[at].1 = state,
            Err(at) => self.dirs.insert(at, (path, state)),
        }
        self.due = true;
    }

    /// One look at an application's group: its directories, then its
    /// files — the new ones included — each grown file's records to
    /// `visit`. A file that vanished stops being tracked.
    fn look(
        &mut self,
        app: ApplicationId,
        cx: Cx<'_>,
        chunk: &mut [u8],
        did: &mut Looked,
        visit: &mut impl FnMut(LogSource, &[RecordRef<'_>]),
    ) {
        // No application's group holds the watch root: nothing here is
        // an error.
        let _ = self.look_dirs(Some(app), cx, &|_| false, did);
        self.files
            .retain_mut(|(_, tail)| tail.look(&cx.epoch, chunk, did, visit));
        self.due = self.dirs.iter().any(|(_, d)| !d.settled);
    }
}

/// What a worker's look hands the poll thread, in order: what it made
/// of its chunks, a batch at a time, and with the last batch the look's
/// counts.
struct Seen<M> {
    made: Vec<M>,
    looked: Option<Looked>,
}

/// How many events (or records) a worker's batch may hold before it
/// hands it over ahead of the rest of its look: a backlogged log goes to
/// the poll thread a few chunks at a time, a run of applications' files
/// in one batch or a few.
const BATCH_EVENTS: usize = 1024;

/// How many applications' groups one [`Unit`] looks at, in id order. A
/// unit is a message to a worker and one back, and on two hardware
/// threads each wakes a parked thread: one group a unit cost the first
/// poll over 500 applications some 1 300 voluntary context switches.
const GROUP_RUN: usize = 16;

/// One look's worth of work for a pool worker, with the cursors of the
/// streams it reads, which its scans move on.
struct Unit<'g> {
    work: Work<'g>,
    cursors: Vec<(LogSource, StreamCursor)>,
}

/// What a [`Unit`] looks at.
enum Work<'g> {
    /// A run of applications' groups, whole, in id order.
    Groups(Vec<(ApplicationId, &'g mut Group)>),
    /// The grown files of one cluster stream, each with the length its
    /// `stat` saw.
    Stream(Vec<(&'g mut FileTail, u64)>),
}

impl<'g> Unit<'g> {
    /// `groups` in runs of [`GROUP_RUN`], their streams resumed where
    /// `sink` has them.
    fn runs(groups: Vec<(ApplicationId, &'g mut Group)>, sink: &impl Sweep) -> Vec<Unit<'g>> {
        let (mut units, mut groups) = (Vec::new(), groups.into_iter().peekable());
        while groups.peek().is_some() {
            let run: Vec<_> = groups.by_ref().take(GROUP_RUN).collect();
            let cursors = run.iter().flat_map(|(app, _)| sink.cursors(Some(*app)));
            units.push(Unit {
                cursors: cursors.collect(),
                work: Work::Groups(run),
            });
        }
        units
    }

    /// Bytes the unit is known to read: its files' growth, or nothing
    /// for groups, whose files are stat by their look.
    fn growth(&self) -> u64 {
        match &self.work {
            Work::Groups(..) => 0,
            Work::Stream(files) => files.iter().map(|(t, len)| len - t.offset).sum(),
        }
    }

    /// Look at the unit's directories and files, handing what `S`
    /// makes of each chunk to `emit` as it is made, then the look's
    /// counts.
    fn look<S: Sweep>(
        &mut self,
        cx: Cx<'_>,
        ex: &Extractor,
        chunk: &mut [u8],
        emit: &mut dyn FnMut(Seen<S::Made>),
    ) {
        let (mut did, mut batch, mut events) = (Looked::default(), Vec::new(), 0);
        let cursors = &mut self.cursors;
        let mut visit = |source, recs: &[RecordRef<'_>]| {
            let made = S::make(ex, source, cursor_of(cursors, source), recs);
            events += S::size(&made);
            batch.push(made);
            if events >= BATCH_EVENTS {
                let made = std::mem::take(&mut batch);
                emit(Seen { made, looked: None });
                events = 0;
            }
        };
        match &mut self.work {
            Work::Groups(groups) => {
                for (app, group) in groups {
                    group.look(*app, cx, chunk, &mut did, &mut visit);
                }
            }
            Work::Stream(files) => {
                for (tail, len) in files {
                    tail.read_to(*len, &cx.epoch, chunk, &mut did, &mut visit);
                }
            }
        }
        emit(Seen {
            made: batch,
            looked: Some(did),
        });
    }
}

/// An incremental reader over a corpus directory that is being appended
/// to. See the module docs for the model.
#[derive(Debug)]
pub struct DirTailer {
    dir: PathBuf,
    /// Resolved once: from `epoch.txt` when present at first need,
    /// [`Epoch::default_run`] otherwise — the same fallback as batch.
    epoch: Option<Epoch>,
    /// Everything tracked, by owner. `None`, the cluster group, sorts
    /// first and always holds the watch root.
    groups: BTreeMap<Option<ApplicationId>, Group>,
    stats: TailStats,
    ops: TailOps,
    watermark: Option<TsMs>,
    /// The workers [`DirTailer::poll_with`] looks over.
    par: Parallelism,
    /// One buffer per worker that every grown file it reads goes
    /// through, [`READ_CHUNK`] bytes between them once a poll ran.
    chunks: Vec<Vec<u8>>,
}

impl DirTailer {
    /// Start tailing `dir`. Errors immediately when the directory does
    /// not exist — a daemon pointed at a typo must fail loudly, not
    /// poll an empty void forever.
    pub fn new(dir: &Path) -> io::Result<DirTailer> {
        if !dir.is_dir() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("watch directory {} does not exist", dir.display()),
            ));
        }
        // Tracking nothing, and knowing no directory but the root yet.
        let mut tailer = DirTailer {
            dir: dir.to_path_buf(),
            epoch: None,
            groups: BTreeMap::new(),
            stats: TailStats::default(),
            ops: TailOps::default(),
            watermark: None,
            par: Parallelism::ONE,
            chunks: vec![Vec::new()],
        };
        tailer.adopt_dir(dir.to_path_buf(), DirState::default());
        Ok(tailer)
    }

    /// Look and scan over `par` workers in [`DirTailer::poll_with`]
    /// ([`Parallelism::ONE`] until set). What the sink is handed, and
    /// in what order, is the same for every width.
    pub fn set_parallelism(&mut self, par: Parallelism) {
        if par != self.par {
            self.par = par;
            self.chunks = vec![Vec::new(); par.threads()];
        }
    }

    /// The corpus epoch: read from `epoch.txt` once available, the
    /// default run epoch otherwise.
    pub fn epoch(&self) -> Epoch {
        self.epoch.unwrap_or_else(Epoch::default_run)
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> TailStats {
        self.stats
    }

    /// Filesystem calls made so far by this process's tailer.
    pub fn ops(&self) -> TailOps {
        self.ops
    }

    /// The newest record timestamp seen across all sources.
    pub fn watermark(&self) -> Option<TsMs> {
        self.watermark
    }

    /// Look for new sources and read what was appended — to the cluster
    /// logs, to whatever is new or unsettled, to the files of every
    /// application `sink` calls live, and to this poll's share of the
    /// rest (see the module docs for the order) — over this tailer's
    /// workers. A worker reads a grown file [`READ_CHUNK`] bytes at a
    /// time and scans each chunk's records as it reads them, resumed
    /// from the stream's cursor; `sink` is handed each stream's scan on
    /// the calling thread, in sweep order, while later files are still
    /// being read. Records never leave the worker that parsed them.
    ///
    /// Only a failure of the watch directory itself (or a malformed
    /// `epoch.txt`) is an error, and it is reported before any file is
    /// read. A file that cannot be opened or read is counted once in
    /// [`TailOps::read_errors`] and left where its last chunk read ended
    /// — at its old offset if none was — so the rest shows up as lag and
    /// is retried the next time it is looked at; the sweep goes on,
    /// because what was scanned cannot be taken back.
    pub fn poll_with(&mut self, sink: &mut impl TailSink) -> io::Result<()> {
        self.sweep(&mut Scans(sink), false)
    }

    /// The shutdown drain: [`DirTailer::poll_with`] with every
    /// application live, then the held-back partial lines as final (see
    /// [`DirTailer::flush_partial`]) — what batch would read from the
    /// directory as it stands. The partial lines are flushed even when
    /// the poll fails, whose error is returned.
    pub fn drain_with(&mut self, sink: &mut impl TailSink) -> io::Result<()> {
        let mut scans = Scans(sink);
        let polled = self.sweep(&mut scans, true);
        self.flush(&mut scans);
        polled
    }

    /// One sweep (see [`DirTailer::poll_with`]), what the workers make
    /// of each chunk taken by `sink` in sweep order; with `every`, every
    /// application is looked at, each group together with the cluster's
    /// streams.
    fn sweep<S: Sweep>(&mut self, sink: &mut S, every: bool) -> io::Result<()> {
        let now = self.begin()?;
        self.size_chunks();
        let cx = Cx {
            root: &self.dir,
            epoch: self.epoch.unwrap_or_else(Epoch::default_run),
            now,
        };
        let ex = Extractor::new();
        let mut did = Looked::default();
        let look =
            |chunk: &mut Vec<u8>, unit: &mut Unit<'_>, emit: &mut dyn FnMut(Seen<S::Made>)| {
                unit.look::<S>(cx, &ex, chunk, emit)
            };

        // First, on the workers at once: the cluster's grown files, a
        // stream to a worker, stat here so that every application file
        // is stat after them; and the applications looked at whatever
        // the sink says, groups whole to a worker in runs. Applied in that
        // order: the cluster's streams in file order, then applications
        // in id order.
        let mut cluster = self.groups.remove(&None).unwrap_or_default();
        // Each file still tracked, with how far it grew, if it did.
        let mut grown = Vec::new();
        cluster
            .files
            .retain_mut(|(_, tail)| match tail.stat(&mut did) {
                Grown::Gone => false,
                Grown::No => {
                    grown.push(None);
                    true
                }
                Grown::To(len) => {
                    grown.push(Some(len));
                    true
                }
            });
        let cursors = sink.cursors(None);
        let mut units: Vec<Unit<'_>> = Vec::new();
        for ((_, tail), len) in cluster.files.iter_mut().zip(grown) {
            let (Some(len), source) = (len, tail.source) else {
                continue;
            };
            let same = units.iter_mut().find_map(|u| match &mut u.work {
                Work::Stream(files) if files[0].0.source == source => Some(files),
                _ => None,
            });
            match same {
                Some(files) => files.push((tail, len)),
                None => units.push(Unit {
                    work: Work::Stream(vec![(tail, len)]),
                    cursors: cursors
                        .iter()
                        .filter(|(s, _)| *s == source)
                        .copied()
                        .collect(),
                }),
            }
        }
        let turn = self.stats.polls % COLD_ROTATION;
        let mut first = Vec::new();
        let mut looked = Vec::new();
        for (owner, group) in &mut self.groups {
            let Some(app) = *owner else { continue };
            if every || group.due || u64::from(app.seq) % COLD_ROTATION == turn {
                first.push(app);
                looked.push((app, group));
            }
        }
        units.extend(Unit::runs(looked, sink));
        // A group's size is not known before its look: the streams that
        // grew most go out first, then the groups.
        let growth = Unit::growth;
        par::stream(
            self.par,
            &mut units,
            growth,
            &mut self.chunks,
            look,
            applier(&mut did, sink),
        );
        drop(units);
        self.groups.insert(None, cluster);

        // Then every other application the sink calls live, now that
        // the cluster's scans were applied: which, decided once.
        let live = self.groups.iter_mut().filter_map(|(owner, group)| {
            let app = (*owner)?;
            let live = first.binary_search(&app).is_err() && sink.is_live(app);
            live.then_some((app, group))
        });
        let mut units = Unit::runs(live.collect(), sink);
        par::stream(
            self.par,
            &mut units,
            |_| 0,
            &mut self.chunks,
            look,
            applier(&mut did, sink),
        );
        drop(units);
        self.end(did);
        sink.swept();
        Ok(())
    }

    /// One look at every tracked file and known directory, every
    /// application live, collecting an owned copy of every new record in
    /// sweep order: the cluster's logs, then applications in id order.
    pub fn poll(&mut self) -> io::Result<Vec<(LogSource, LogRecord)>> {
        let mut out = Vec::new();
        self.sweep(&mut Records(&mut out), true)?;
        Ok(out)
    }

    /// Size the workers' read buffers, [`READ_CHUNK`] bytes between
    /// them: however many read, a poll holds one chunk's bytes. Sized on
    /// the calling thread, so the buffers a worker keeps between polls
    /// come from its heap.
    fn size_chunks(&mut self) {
        let len = READ_CHUNK / self.chunks.len();
        for chunk in &mut self.chunks {
            chunk.resize(len, 0);
        }
    }

    /// Start a poll: count it, resolve the epoch, and look at the
    /// cluster's directories, adopting every new directory the listings
    /// meet under `apps/` for its application's group to list. The
    /// poll's clock.
    fn begin(&mut self) -> io::Result<SystemTime> {
        self.stats.polls += 1;
        if self.epoch.is_none() {
            self.ops.opens += 1;
            self.epoch = read_epoch(&self.dir)?;
        }
        let now = SystemTime::now();
        let cx = Cx {
            root: &self.dir,
            epoch: self.epoch(),
            now,
        };
        let mut cluster = self.groups.remove(&None).unwrap_or_default();
        let mut did = Looked::default();
        let looked = cluster.look_dirs(None, cx, &|path| self.knows_dir(path), &mut did);
        cluster.due = cluster.dirs.iter().any(|(_, d)| !d.settled);
        self.groups.insert(None, cluster);
        self.fold(did);
        looked.map(|()| now)
    }

    /// End a poll: fold what its looks did in, and forget the groups
    /// left with nothing.
    fn end(&mut self, did: Looked) {
        self.fold(did);
        self.groups
            .retain(|_, g| !(g.files.is_empty() && g.dirs.is_empty()));
        self.stats.files = self.groups.values().map(|g| g.files.len() as u64).sum();
    }

    /// Add what looks did to the tailer: counts, the watermark, and the
    /// directories and files they found for other groups, which are due.
    fn fold(&mut self, did: Looked) {
        self.stats.absorb(did.stats);
        self.ops.absorb(did.ops);
        self.watermark = self.watermark.max(did.watermark);
        for path in did.dirs {
            if !self.knows_dir(&path) {
                self.adopt_dir(path, DirState::default());
            }
        }
        for (rel, tail) in did.files {
            self.adopt_file(rel, tail);
        }
    }

    /// Treat any held-back partial bytes as final lines (a finished
    /// stream's last line may lack a trailing newline, which batch
    /// ingest accepts), collecting an owned copy of each one that parses.
    /// Call once at shutdown, after the final poll.
    pub fn flush_partial(&mut self) -> Vec<(LogSource, LogRecord)> {
        let mut out = Vec::new();
        self.flush(&mut Records(&mut out));
        out
    }

    /// The held-back partial lines as final, on the calling thread, in
    /// sweep order, each stream scanned on from where `sink` has it.
    fn flush<S: Sweep>(&mut self, sink: &mut S) {
        let (epoch, ex) = (self.epoch(), Extractor::new());
        let watermark = &mut self.watermark;
        for (owner, group) in &mut self.groups {
            let mut cursors = sink.cursors(*owner);
            for (_, tail) in &mut group.files {
                let (counts, _) = tail.read(
                    &epoch,
                    io::empty(),
                    &mut [],
                    true,
                    watermark,
                    |source, recs| {
                        let cursor = cursor_of(&mut cursors, source);
                        sink.take(S::make(&ex, source, cursor, recs));
                    },
                );
                self.stats.add(counts);
                self.ops.oversize_lines += counts.oversize;
            }
        }
        sink.swept();
    }

    /// Every tracked file with its relative path, in sorted
    /// relative-path order — the enumeration order batch ingest pins.
    fn files(&self) -> Vec<&(String, FileTail)> {
        let mut files: Vec<_> = self.groups.values().flat_map(|g| &g.files).collect();
        files.sort_by_key(|(rel, _)| rel);
        files
    }

    /// Lag as of each file's last look, from the size that look's
    /// `stat` saw: no I/O, no allocation. The cluster logs and the files
    /// of live applications were looked at by the last poll; any other
    /// file within the last [`COLD_ROTATION`] polls, so bytes appended to
    /// it since are counted — once — from the poll that reaches it.
    pub fn lag(&self) -> TailLag {
        let watermark = self.watermark.map_or(0, |w| w.0);
        let mut lag = TailLag::default();
        for (_, tail) in self.groups.values().flat_map(|g| &g.files) {
            lag.sources += 1;
            lag.bytes += tail.behind_bytes();
            lag.max_ms = lag.max_ms.max(tail.behind_ms(watermark));
        }
        lag
    }

    /// Per-source lag as of each file's last look (see
    /// [`DirTailer::lag`]), in sorted relative-path order. No I/O.
    #[cfg(test)]
    pub(crate) fn source_lags(&self) -> Vec<SourceLag> {
        let watermark = self.watermark.map_or(0, |w| w.0);
        self.files()
            .into_iter()
            .map(|(rel, tail)| SourceLag {
                rel: rel.clone(),
                bytes: tail.behind_bytes(),
                ms: tail.behind_ms(watermark),
            })
            .collect()
    }

    /// Rebuild a tailer over `dir` from its checkpoint. The next poll
    /// looks at every restored file and reads only bytes past the
    /// restored offsets. A missing directory or a relative path no
    /// [`LogSource`] claims is `Corrupt`, so recovery falls back to an
    /// older generation or a cold start.
    pub(crate) fn decode(d: &mut Dec<'_>, dir: &Path) -> Result<DirTailer, CkptError> {
        let tailer = DirTailer::new(dir).map_err(|e| corrupt(e.to_string()))?;
        let epoch: Option<u64> = d.get()?;
        let watermark = d.get()?;
        let stats = d.get()?;
        let mut tailer = DirTailer {
            epoch: epoch.map(|unix_ms| Epoch { unix_ms }),
            stats,
            watermark,
            ..tailer
        };
        for _ in 0..d.get::<usize>()? {
            let rel: String = d.get()?;
            let source = LogSource::from_rel_path(&rel)
                .ok_or_else(|| corrupt(format!("checkpoint names unrecognized source {rel:?}")))?;
            let offset = d.get()?;
            let partial = d.bytes()?.to_vec();
            let last_ts = d.get()?;
            let tail = FileTail {
                offset,
                partial,
                last_ts,
                disk_len: offset,
                ..FileTail::new(source, dir.join(&rel))
            };
            tailer.adopt_file(rel, tail);
        }
        Ok(tailer)
    }

    /// Start tracking `tail` under `rel`, unless that path is tracked
    /// already; its owner's group is due.
    fn adopt_file(&mut self, rel: String, tail: FileTail) {
        let group = self.groups.entry(source_owner(tail.source)).or_default();
        group.adopt_file(&rel, || tail);
    }

    /// Remember the directory `path` as `state`, whatever was known of
    /// it; its owner's group is due.
    fn adopt_dir(&mut self, path: PathBuf, state: DirState) {
        let group = self.groups.entry(dir_owner(&self.dir, &path)).or_default();
        group.adopt_dir(path, state);
    }

    /// Whether the directory `path` is in the table.
    fn knows_dir(&self, path: &Path) -> bool {
        self.groups
            .get(&dir_owner(&self.dir, path))
            .is_some_and(|g| g.dirs.iter().any(|(p, _)| p == path))
    }
}

impl Encode for DirTailer {
    fn encode(&self, e: &mut Enc) {
        let DirTailer {
            dir: _, // configuration: the restarted daemon is told again
            epoch,
            groups: _, // its files go out below as the one map they are on disk
            stats,
            ops: _, // process-local by definition
            watermark,
            par: _,    // configuration
            chunks: _, // scratch
        } = self;
        let epoch_unix_ms = epoch.map(|Epoch { unix_ms }| unix_ms);
        (epoch_unix_ms, watermark, stats).encode(e);
        e.seq(self.files());
    }
}

/// Hand what the workers made to `sink` and fold each look's counts
/// into `did`, in the order [`par::stream`] takes them.
fn applier<'a, S: Sweep>(did: &'a mut Looked, sink: &'a mut S) -> impl FnMut(Seen<S::Made>) + 'a {
    |seen| {
        for made in seen.made {
            sink.take(made);
        }
        if let Some(looked) = seen.looked {
            did.absorb(looked);
        }
    }
}

/// What a `stat` of a tracked file found.
enum Grown {
    /// The file is gone: it stops being tracked.
    Gone,
    /// Nothing to read, or the `stat` failed (permissions flapping keep
    /// the state; partial evidence beats a hard stop).
    No,
    /// The file is this long, past the offset.
    To(u64),
}

impl FileTail {
    /// Stat the file and read what it grew by, each run of records to
    /// `visit`; `false` once the file is gone.
    fn look(
        &mut self,
        epoch: &Epoch,
        chunk: &mut [u8],
        did: &mut Looked,
        visit: &mut impl FnMut(LogSource, &[RecordRef<'_>]),
    ) -> bool {
        match self.stat(did) {
            Grown::Gone => false,
            Grown::No => true,
            Grown::To(len) => {
                self.read_to(len, epoch, chunk, did, visit);
                true
            }
        }
    }

    /// Stat the file: how far it can be read now. A file that shrank
    /// (truncated or replaced) is read again from the top.
    fn stat(&mut self, did: &mut Looked) -> Grown {
        did.ops.stats += 1;
        let meta = match fs::metadata(&self.path) {
            Ok(meta) => meta,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                // The file is gone. Holding its stale offset forever
                // would poison a future file at the same path (its fresh
                // bytes would read as a shrink-reset at best); drop the
                // entry — discovery re-adopts the path from offset 0 if
                // it ever reappears. Any held-back partial line vanished
                // with the file.
                did.stats.removed_files += 1;
                return Grown::Gone;
            }
            Err(_) => return Grown::No,
        };
        let len = meta.len();
        self.disk_len = len;
        if len < self.offset {
            self.offset = 0;
            self.partial.clear();
            did.stats.resets += 1;
        }
        if len == self.offset {
            Grown::No
        } else {
            Grown::To(len)
        }
    }

    /// Read the file from `offset` up to `len` through `chunk`, each run
    /// of records to `visit`.
    fn read_to(
        &mut self,
        len: u64,
        epoch: &Epoch,
        chunk: &mut [u8],
        did: &mut Looked,
        visit: &mut impl FnMut(LogSource, &[RecordRef<'_>]),
    ) {
        did.ops.opens += 1;
        let (counts, read) = match self.open_to(len) {
            Ok(file) => self.read(epoch, file, chunk, false, &mut did.watermark, visit),
            Err(e) => (ReadCounts::default(), Err(e)),
        };
        did.stats.add(counts);
        did.ops.oversize_lines += counts.oversize;
        if read.is_err() {
            did.ops.read_errors += 1;
        }
    }

    /// The file from `offset` up to `len`, or to its end if it shrank
    /// since the `stat` that saw `len`.
    fn open_to(&self, len: u64) -> io::Result<io::Take<fs::File>> {
        let mut file = fs::File::open(&self.path)?;
        file.seek(SeekFrom::Start(self.offset))?;
        Ok(file.take(len - self.offset))
    }

    /// Read `reader` (the file from `offset` on; nothing at shutdown,
    /// when `at_end` makes the held line final) through `chunk`, each run
    /// of records to `visit`: `offset` and `partial` follow the bytes,
    /// `last_ts` and `watermark` the records.
    fn read(
        &mut self,
        epoch: &Epoch,
        reader: impl Read,
        chunk: &mut [u8],
        at_end: bool,
        watermark: &mut Option<TsMs>,
        mut visit: impl FnMut(LogSource, &[RecordRef<'_>]),
    ) -> (ReadCounts, io::Result<()>) {
        let (counts, read) =
            read_records(epoch, reader, chunk, &mut self.partial, at_end, |recs| {
                self.last_ts = recs.last().map(|r| r.ts);
                *watermark = (*watermark).max(recs.iter().map(|r| r.ts).max());
                visit(self.source, recs);
            });
        self.offset += counts.bytes;
        (counts, read)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("sdtail_{name}_{}", std::process::id()))
    }

    /// The tail state of the file tracked under `rel`.
    fn tail<'t>(t: &'t DirTailer, rel: &str) -> Option<&'t FileTail> {
        let files = t.files();
        files.iter().find(|(r, _)| r == rel).map(|(_, tail)| tail)
    }

    /// Every directory in the table.
    fn dirs(t: &DirTailer) -> Vec<&DirState> {
        t.groups
            .values()
            .flat_map(|g| g.dirs.iter().map(|(_, d)| d))
            .collect()
    }

    fn write_epoch(dir: &Path) {
        fs::create_dir_all(dir).unwrap();
        fs::write(
            dir.join("epoch.txt"),
            format!("{}\n", Epoch::default_run().unix_ms),
        )
        .unwrap();
    }

    #[test]
    fn missing_directory_is_an_error() {
        let err = DirTailer::new(&tmp("missing/not/there")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        assert!(err.to_string().contains("does not exist"));
    }

    #[test]
    fn tails_appends_and_buffers_partial_lines() {
        let dir = tmp("appends");
        let _ = fs::remove_dir_all(&dir);
        write_epoch(&dir);
        let rm = dir.join("resourcemanager.log");
        fs::write(&rm, "2018-03-14 09:00:00,100 INFO  X: one\n").unwrap();

        let mut t = DirTailer::new(&dir).unwrap();
        let recs = t.poll().unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].0, LogSource::ResourceManager);
        assert_eq!(recs[0].1.message, "one");
        assert_eq!(t.watermark(), Some(TsMs(100)));

        // Append a line in two chunks: nothing emitted until the newline.
        let mut f = fs::OpenOptions::new().append(true).open(&rm).unwrap();
        f.write_all(b"2018-03-14 09:00:00,200 INFO  X: tw").unwrap();
        f.flush().unwrap();
        assert!(t.poll().unwrap().is_empty());
        assert!(t.lag().bytes > 0, "partial bytes count as lag");
        f.write_all(b"o\n").unwrap();
        f.flush().unwrap();
        let recs = t.poll().unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].1.message, "two");
        assert_eq!(t.lag().bytes, 0);
        assert_eq!(t.stats().parsed_lines, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn discovers_new_sources_on_rescan() {
        let dir = tmp("discover");
        let _ = fs::remove_dir_all(&dir);
        write_epoch(&dir);
        fs::write(
            dir.join("resourcemanager.log"),
            "2018-03-14 09:00:00,100 INFO  X: rm\n",
        )
        .unwrap();
        let mut t = DirTailer::new(&dir).unwrap();
        assert_eq!(t.poll().unwrap().len(), 1);

        // A new application directory appears mid-run.
        let app_dir = dir.join("apps/application_1521018000000_0001");
        fs::create_dir_all(&app_dir).unwrap();
        fs::write(
            app_dir.join("driver.log"),
            "2018-03-14 09:00:01,000 INFO  Y: drv\njunk line\n",
        )
        .unwrap();
        let recs = t.poll().unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].1.message, "drv");
        assert!(matches!(recs[0].0, LogSource::Driver(_)));
        assert_eq!(t.stats().skipped_lines, 1);
        assert_eq!(t.stats().files, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shrunk_file_resets_and_rereads() {
        let dir = tmp("shrink");
        let _ = fs::remove_dir_all(&dir);
        write_epoch(&dir);
        let rm = dir.join("resourcemanager.log");
        fs::write(&rm, "2018-03-14 09:00:00,100 INFO  X: aaaa aaaa\n").unwrap();
        let mut t = DirTailer::new(&dir).unwrap();
        assert_eq!(t.poll().unwrap().len(), 1);
        fs::write(&rm, "2018-03-14 09:00:00,300 INFO  X: b\n").unwrap();
        let recs = t.poll().unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].1.message, "b");
        assert_eq!(t.stats().resets, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_utf8_split_is_decode_safe() {
        let dir = tmp("utf8");
        let _ = fs::remove_dir_all(&dir);
        write_epoch(&dir);
        let rm = dir.join("resourcemanager.log");
        let line = "2018-03-14 09:00:00,100 INFO  X: r\u{00e9}sum\u{00e9} \u{2713}\n";
        let bytes = line.as_bytes();
        // Split in the middle of the two-byte 'é' sequence.
        let cut = line.find('\u{00e9}').unwrap() + 1;
        fs::write(&rm, &bytes[..cut]).unwrap();
        let mut t = DirTailer::new(&dir).unwrap();
        assert!(t.poll().unwrap().is_empty());
        let mut f = fs::OpenOptions::new().append(true).open(&rm).unwrap();
        f.write_all(&bytes[cut..]).unwrap();
        f.flush().unwrap();
        let recs = t.poll().unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].1.message, "r\u{00e9}sum\u{00e9} \u{2713}");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// One file appended in pieces that end inside a line, between the
    /// `\r` and `\n` of a CRLF, inside a multi-byte character, on a
    /// newline, and inside a blank line: the polls together give the
    /// records — and the line counts — of one poll over the whole file,
    /// each file's records arrive in one visit per poll, and after every
    /// poll `partial` holds exactly the bytes after the last newline.
    #[test]
    fn split_appends_give_the_whole_file_poll_and_buffer_only_the_remainder() {
        let text = "2018-03-14 09:00:00,100 INFO  X: one\r\n\
                    junk that does not parse\n\
                    2018-03-14 09:00:00,200 INFO  X: r\u{e9}sum\u{e9} \u{2713}\n\
                    \r\n\n\
                    2018-03-14 09:00:00,300 INFO  X: three\n\
                    2018-03-14 09:00:00,400 INFO  X: four\n\
                    2018-03-14 09:00:00,500 INFO  X: unterminated";
        let bytes = text.as_bytes();
        let cut = |needle: &str, off: usize| text.find(needle).unwrap() + off;
        let cuts = [
            cut("one", 2),        // inside a line
            cut("\r\n", 1),       // between CR and LF
            cut("\u{e9}", 1),     // inside a two-byte character
            cut("\u{2713}", 2),   // inside a three-byte character
            cut("\u{2713}\n", 4), // right after a newline
            cut("\r\n\n", 2),     // between two blank lines
            cut("three", 0),      // leaves two whole lines for one read
            bytes.len(),
        ];

        let whole_dir = tmp("split_whole");
        let _ = fs::remove_dir_all(&whole_dir);
        write_epoch(&whole_dir);
        fs::write(whole_dir.join("resourcemanager.log"), bytes).unwrap();
        let mut whole = DirTailer::new(&whole_dir).unwrap();
        let mut want = whole.poll().unwrap();
        assert_eq!(messages(&want).len(), 4);

        let dir = tmp("split");
        let _ = fs::remove_dir_all(&dir);
        write_epoch(&dir);
        let rm = dir.join("resourcemanager.log");
        fs::write(&rm, b"").unwrap();
        let mut t = DirTailer::new(&dir).unwrap();
        let mut got: Vec<(LogSource, LogRecord)> = Vec::new();
        let mut written = 0;
        for cut in cuts {
            let mut f = fs::OpenOptions::new().append(true).open(&rm).unwrap();
            f.write_all(&bytes[written..cut]).unwrap();
            drop(f);
            written = cut;
            let mut sink = Only {
                every: true,
                ..Only::default()
            };
            sink.poll(&mut t);
            assert!(sink.runs <= 1, "one visit per file that grew");
            got.extend(sink.got);
            let remainder = match bytes[..cut].iter().rposition(|b| *b == b'\n') {
                Some(nl) => &bytes[nl + 1..cut],
                None => &bytes[..cut],
            };
            assert_eq!(
                tail(&t, "resourcemanager.log").unwrap().partial,
                remainder,
                "after {cut}"
            );
            assert_eq!(t.lag().bytes, remainder.len() as u64);
        }
        assert_eq!(got, want);
        assert_eq!(t.stats().parsed_lines, whole.stats().parsed_lines);
        assert_eq!(t.stats().skipped_lines, whole.stats().skipped_lines);
        assert_eq!(t.stats().skipped_lines, 2, "the junk line and the lone CR");

        got.extend(t.flush_partial());
        want.extend(whole.flush_partial());
        assert_eq!(got, want);
        assert_eq!(messages(&got).last(), Some(&"unterminated"));
        assert!(tail(&t, "resourcemanager.log").unwrap().partial.is_empty());
        fs::remove_dir_all(&dir).unwrap();
        fs::remove_dir_all(&whole_dir).unwrap();
    }

    /// Pad `text` with parseable lines until it is `upto` bytes long.
    fn fill(text: &mut String, upto: usize) {
        while upto - text.len() > 200 {
            text.push_str(&line(100, &"p".repeat(100)));
        }
        let room = upto - text.len();
        text.push_str(&line(100, &"q".repeat(room - 34)));
        assert_eq!(text.len(), upto);
    }

    /// What batch ingest reads from `dir`, as owned records.
    fn batch(dir: &Path) -> Vec<(LogSource, LogRecord)> {
        let store = logmodel::LogStore::read_dir_with(dir, logmodel::Parallelism::ONE).unwrap();
        let records = store.sources().flat_map(|src| {
            let recs = store.records(src);
            recs.iter().map(move |r| (src, r.to_record()))
        });
        records.collect()
    }

    /// One file of six chunks whose boundaries fall right after a
    /// newline, between a CR and its LF, inside a three-byte character,
    /// twice inside one line longer than a chunk, and at the end of the
    /// file, which stops mid-line; between them, lines clipped to nothing
    /// (as `corrupt_dir` clips one to `keep = 0`), a lone CR, garbage bytes
    /// inside a record and in place of one, and CRLF endings. One poll
    /// opens it once, hands it over in several runs, and reads exactly
    /// what batch ingest reads — the records, and the parsed, skipped and
    /// empty lines — and both agree with the file decoded and split whole.
    /// So do a half line and its rest appended after it.
    #[test]
    fn a_file_read_in_chunks_gives_what_batch_reads() {
        const C: usize = READ_CHUNK;
        const GARBAGE: &[u8] = b"\xff\xfe\xc3(\xe2\x82\xff";
        let dir = tmp("chunks");
        let _ = fs::remove_dir_all(&dir);
        write_epoch(&dir);
        let rm = dir.join("resourcemanager.log");
        fs::write(&rm, b"").unwrap();
        let mut t = DirTailer::new(&dir).unwrap();
        assert!(t.poll().unwrap().is_empty());

        let mut text = String::new();
        fill(&mut text, C);
        let crlf = "2018-03-14 09:00:00,100 INFO  X: crlf\r\n";
        fill(&mut text, 2 * C + 1 - crlf.len());
        text.push_str(crlf);
        let check = "2018-03-14 09:00:00,100 INFO  X: check ";
        fill(&mut text, 3 * C - 1 - check.len());
        text.push_str(check);
        text.push_str("\u{2713} done\n");
        fill(&mut text, 4 * C - 100);
        text.push_str(&line(100, &"long ".repeat(C / 5 + 40)));
        // Placeholders as long as the garbage that replaces them below.
        let marker = "#".repeat(GARBAGE.len());
        text.push_str("\n\n\r\n");
        text.push_str(&line(100, &format!("garbled {marker} inside")));
        text.push_str(&format!("{marker} in place of a line\n"));
        text.push_str("2018-03-14 09:00:00,100 INFO  X: crlf again\r\n\n");
        let tail_text = "2018-03-14 09:00:00,100 INFO  X: unterminated";
        fill(&mut text, 6 * C - tail_text.len());
        text.push_str(tail_text);
        let mut bytes = text.clone().into_bytes();
        for _ in 0..2 {
            let at = text.find(&marker).unwrap();
            text.replace_range(at..at + marker.len(), &"_".repeat(marker.len()));
            bytes[at..at + GARBAGE.len()].copy_from_slice(GARBAGE);
        }
        assert_eq!(bytes.len(), 6 * C);
        assert_eq!(bytes[C - 1], b'\n');
        assert_eq!(&bytes[2 * C - 1..2 * C + 1], b"\r\n");
        assert!(!text.is_char_boundary(3 * C));
        assert!(!bytes[4 * C..5 * C].contains(&b'\n'));
        fs::write(&rm, &bytes).unwrap();

        // The file decoded and split whole: the records, and the lines
        // that parse, that are empty, and the rest.
        let epoch = Epoch::default_run();
        let whole = String::from_utf8_lossy(&bytes);
        let lines: Vec<&str> = whole.split_terminator('\n').collect();
        let want: Vec<(LogSource, LogRecord)> = lines
            .iter()
            .filter_map(|l| logmodel::parse_line(&epoch, l))
            .map(|r| (LogSource::ResourceManager, r))
            .collect();
        let empty = lines.iter().filter(|l| l.is_empty()).count() as u64;
        let parsed = want.len() as u64;
        let skipped = lines.len() as u64 - parsed - empty;
        assert_eq!((empty, skipped), (3, 2), "three empty; the CR, the garbage");
        assert!(messages(&want).iter().any(|m| m.contains('\u{fffd}')));

        // Batch: the records `scan_dir` hands over, and the counts of one
        // file read as it reads it.
        assert_eq!(batch(&dir), want);
        let file = fs::File::open(&rm).unwrap();
        let mut buf = vec![0; C];
        let (counts, read) = read_records(&epoch, file, &mut buf, &mut Vec::new(), true, |_| {});
        read.unwrap();
        assert_eq!(
            (counts.records, counts.skipped(), counts.empty),
            (parsed, skipped, empty)
        );

        let before = t.ops();
        let mut sink = Only {
            every: true,
            ..Only::default()
        };
        sink.poll(&mut t);
        let (mut got, runs) = (sink.got, sink.runs);
        assert!(runs >= 3, "{runs} runs");
        assert_eq!(t.ops().opens - before.opens, 1);
        let tail_state = tail(&t, "resourcemanager.log").unwrap();
        assert_eq!(tail_state.offset, bytes.len() as u64);
        assert_eq!(tail_state.partial, tail_text.as_bytes());
        got.extend(t.flush_partial());
        assert_eq!(got, want);
        let stats = t.stats();
        assert_eq!(
            (stats.parsed_lines, stats.skipped_lines),
            (parsed, skipped),
            "batch and the tailer skip the same lines"
        );

        // A half line, then its rest: exact again.
        let mut t = DirTailer::new(&dir).unwrap();
        let mut got = t.poll().unwrap();
        let next = line(200, "after the chunks");
        let (head, rest) = next.split_at(20);
        append(&rm, &format!("\n{head}"));
        got.extend(t.poll().unwrap());
        assert_eq!(
            tail(&t, "resourcemanager.log").unwrap().partial,
            head.as_bytes()
        );
        append(&rm, rest);
        got.extend(t.poll().unwrap());
        assert!(tail(&t, "resourcemanager.log").unwrap().partial.is_empty());
        assert_eq!(got, batch(&dir));
        assert_eq!(messages(&got).last(), Some(&"after the chunks"));
        assert_eq!(t.stats().parsed_lines, parsed + 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flush_partial_emits_unterminated_final_line() {
        let dir = tmp("flush");
        let _ = fs::remove_dir_all(&dir);
        write_epoch(&dir);
        fs::write(
            dir.join("resourcemanager.log"),
            "2018-03-14 09:00:00,100 INFO  X: done", // no trailing newline
        )
        .unwrap();
        let mut t = DirTailer::new(&dir).unwrap();
        assert!(t.poll().unwrap().is_empty());
        let recs = t.flush_partial();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].1.message, "done");
        assert!(t.flush_partial().is_empty(), "flush is idempotent");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn deleted_file_is_dropped_and_counted() {
        let dir = tmp("deleted");
        let _ = fs::remove_dir_all(&dir);
        write_epoch(&dir);
        let rm = dir.join("resourcemanager.log");
        let nm = dir.join("nodemanager-node01.log");
        fs::write(&rm, "2018-03-14 09:00:00,100 INFO  X: rm\n").unwrap();
        fs::write(&nm, "2018-03-14 09:00:00,200 INFO  Y: nm\n").unwrap();
        let mut t = DirTailer::new(&dir).unwrap();
        assert_eq!(t.poll().unwrap().len(), 2);
        assert_eq!(t.stats().files, 2);

        // Delete one file mid-stream: the entry goes away, the metric
        // counts it, and the survivor keeps streaming.
        fs::remove_file(&nm).unwrap();
        assert!(t.poll().unwrap().is_empty());
        assert_eq!(t.stats().removed_files, 1);
        assert_eq!(t.stats().files, 1);
        assert_eq!(t.source_lags().len(), 1);

        let mut f = fs::OpenOptions::new().append(true).open(&rm).unwrap();
        f.write_all(b"2018-03-14 09:00:00,300 INFO  X: more\n")
            .unwrap();
        f.flush().unwrap();
        let recs = t.poll().unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].1.message, "more");

        // A file reborn at the deleted path is re-adopted from zero.
        fs::write(&nm, "2018-03-14 09:00:00,400 INFO  Y: back\n").unwrap();
        let recs = t.poll().unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].1.message, "back");
        assert_eq!(t.stats().files, 2);
        assert_eq!(t.stats().resets, 0, "re-adoption is not a shrink reset");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_round_trip_resumes_mid_line() {
        let dir = tmp("snapshot");
        let _ = fs::remove_dir_all(&dir);
        write_epoch(&dir);
        let rm = dir.join("resourcemanager.log");
        fs::write(
            &rm,
            "2018-03-14 09:00:00,100 INFO  X: one\n2018-03-14 09:00:00,200 INFO  X: tw",
        )
        .unwrap();
        let mut t = DirTailer::new(&dir).unwrap();
        assert_eq!(t.poll().unwrap().len(), 1);

        let bytes = Enc::payload(&t);
        let mut d = Dec::new(&bytes);
        let mut restored = DirTailer::decode(&mut d, &dir).unwrap();
        d.finish().unwrap();
        assert!(Enc::payload(&restored) == bytes, "round-trip is lossless");
        assert_eq!(restored.source_lags().len(), 1);
        assert!(restored.lag().bytes > 0, "mid-line state captured");
        assert_eq!(restored.watermark(), t.watermark());
        assert_eq!(restored.stats(), t.stats());

        // The restored tailer completes the held-back line exactly once.
        let mut f = fs::OpenOptions::new().append(true).open(&rm).unwrap();
        f.write_all(b"o\n").unwrap();
        f.flush().unwrap();
        let recs = restored.poll().unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].1.message, "two");
        assert_eq!(restored.stats().parsed_lines, 2);

        // A checkpoint naming an unknown source degrades to an error,
        // and so does one for a directory that is not there.
        let stray = ("what/is/this.bin", 3u64, "", None::<TsMs>);
        let bad = Enc::payload(&(None::<u64>, None::<TsMs>, t.stats(), [stray]));
        assert!(DirTailer::decode(&mut Dec::new(&bad), &dir).is_err());
        assert!(DirTailer::decode(&mut Dec::new(&bytes), &tmp("snapshot/gone")).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn source_lag_tracks_quiet_streams_in_log_time() {
        let dir = tmp("lagms");
        let _ = fs::remove_dir_all(&dir);
        write_epoch(&dir);
        fs::write(
            dir.join("resourcemanager.log"),
            "2018-03-14 09:00:00,100 INFO  X: rm\n",
        )
        .unwrap();
        fs::write(
            dir.join("nodemanager-node01.log"),
            "2018-03-14 09:00:02,600 INFO  Y: nm\n",
        )
        .unwrap();
        let mut t = DirTailer::new(&dir).unwrap();
        t.poll().unwrap();
        let lags = t.source_lags();
        assert_eq!(lags.len(), 2);
        let rm = lags
            .iter()
            .find(|l| l.rel == "resourcemanager.log")
            .unwrap();
        let nm = lags
            .iter()
            .find(|l| l.rel == "nodemanager-node01.log")
            .unwrap();
        assert_eq!(rm.ms, 2_500, "rm trails the nm watermark");
        assert_eq!(nm.ms, 0);
        assert_eq!(t.lag().max_ms, 2_500);
        fs::remove_dir_all(&dir).unwrap();
    }

    const APP1: &str = "apps/application_1521018000000_0001";
    const APP2: &str = "apps/application_1521018000000_0002";
    const APP3: &str = "apps/application_1521018000000_0003";

    fn line(ms: u32, msg: &str) -> String {
        format!(
            "2018-03-14 09:00:{:02},{:03} INFO  X: {msg}\n",
            ms / 1000,
            ms % 1000
        )
    }

    fn append(path: &Path, text: &str) {
        let mut f = fs::OpenOptions::new().append(true).open(path).unwrap();
        f.write_all(text.as_bytes()).unwrap();
    }

    fn messages(recs: &[(LogSource, LogRecord)]) -> Vec<&str> {
        recs.iter().map(|(_, r)| r.message.as_str()).collect()
    }

    /// The watch directory with an RM log, an NM log and one driver log
    /// in each of `apps`: F = 2 + apps.len(), D = 2 + apps.len().
    fn small_cluster(name: &str, apps: &[&str]) -> PathBuf {
        let dir = tmp(name);
        let _ = fs::remove_dir_all(&dir);
        write_epoch(&dir);
        fs::write(dir.join("resourcemanager.log"), line(100, "rm")).unwrap();
        fs::write(dir.join("nodemanager-node01.log"), line(200, "nm")).unwrap();
        for app in apps {
            fs::create_dir_all(dir.join(app)).unwrap();
            fs::write(dir.join(app).join("driver.log"), line(300, "drv")).unwrap();
        }
        dir
    }

    /// Poll until every known directory's listing is trusted.
    fn settle(t: &mut DirTailer) {
        std::thread::sleep(MTIME_SETTLE + Duration::from_millis(100));
        t.poll().unwrap();
        assert!(dirs(t).iter().all(|d| d.settled));
    }

    /// One tracked log becomes a directory between two polls — it opens,
    /// but reading it fails — while the other grows. Whichever of the
    /// two is swept first, the healthy file's records arrive exactly
    /// once and the broken one's unread bytes stay visible as lag.
    #[test]
    fn unreadable_file_is_skipped_and_the_rest_arrive_exactly_once() {
        let logs = ["nodemanager-node01.log", "resourcemanager.log"];
        for (broken, healthy) in [(logs[1], logs[0]), (logs[0], logs[1])] {
            let dir = small_cluster("readerr", &[]);
            let mut t = DirTailer::new(&dir).unwrap();
            assert_eq!(t.poll().unwrap().len(), 2);

            fs::remove_file(dir.join(broken)).unwrap();
            fs::create_dir(dir.join(broken)).unwrap();
            for i in 0..8 {
                fs::write(dir.join(broken).join(format!("filler{i}")), b"").unwrap();
            }
            append(&dir.join(healthy), &line(400, "fresh"));
            let recs = t.poll().unwrap();
            assert_eq!(messages(&recs), ["fresh"], "{broken} broken");
            assert_eq!(t.ops().read_errors, 1);
            let lags = t.source_lags();
            let lag = lags.iter().find(|l| l.rel == broken).unwrap();
            assert!(lag.bytes > 0, "unread bytes stay visible as lag");
            assert_eq!(t.lag().bytes, lag.bytes);

            // Still unreadable: counted again, nothing delivered twice.
            assert!(t.poll().unwrap().is_empty());
            assert_eq!(t.ops().read_errors, 2);
            assert_eq!(t.stats().parsed_lines, 3);
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn removed_app_directory_is_dropped_and_readopted_from_zero() {
        let dir = small_cluster("rmdir", &[APP1, APP2]);
        let mut t = DirTailer::new(&dir).unwrap();
        assert_eq!(t.poll().unwrap().len(), 4);
        assert_eq!(dirs(&t).len(), 4);

        fs::remove_dir_all(dir.join(APP1)).unwrap();
        assert!(t.poll().unwrap().is_empty());
        assert_eq!(t.stats().removed_files, 1);
        assert_eq!(t.stats().files, 3);
        assert_eq!(dirs(&t).len(), 3, "the vanished directory left the table");

        fs::create_dir_all(dir.join(APP1)).unwrap();
        fs::write(dir.join(APP1).join("driver.log"), line(900, "reborn")).unwrap();
        assert_eq!(messages(&t.poll().unwrap()), ["reborn"]);
        assert_eq!(t.stats().files, 4);
        assert_eq!(t.stats().resets, 0, "re-adoption is not a shrink reset");

        // Losing the watch directory itself is the one discovery error.
        fs::remove_dir_all(&dir).unwrap();
        assert!(t.poll().is_err());
    }

    /// The race itself cannot be scheduled from outside, so provoke it:
    /// one thread creates and removes an app directory as fast as it
    /// can while this one polls. A directory that vanishes between its
    /// parent's listing and the descent must not fail the poll.
    #[test]
    fn poll_survives_directories_vanishing_under_it() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let dir = small_cluster("churn", &[APP1, APP2]);
        let victim = dir.join(APP3);
        let stop = AtomicBool::new(false);
        let mut t = DirTailer::new(&dir).unwrap();
        std::thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(Ordering::SeqCst) {
                    fs::create_dir_all(&victim).unwrap();
                    let _ = fs::write(victim.join("driver.log"), b"");
                    let _ = fs::remove_dir_all(&victim);
                }
            });
            let polled: Vec<io::Result<usize>> =
                (0..3_000).map(|_| t.poll().map(|r| r.len())).collect();
            stop.store(true, Ordering::SeqCst);
            for (i, p) in polled.iter().enumerate() {
                assert!(p.is_ok(), "poll {i} failed: {p:?}");
            }
        });
        let _ = fs::remove_dir_all(&victim);
        t.poll().unwrap();
        t.poll().unwrap();
        assert_eq!(t.stats().files, 4, "the survivors are still tracked");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// This module's cost contract, as counts.
    #[test]
    fn settled_directories_cost_one_stat_each_and_relist_only_on_change() {
        let dir = small_cluster("ops", &[APP1, APP2, APP3]);
        let (files, dir_count) = (5, 5);
        let mut t = DirTailer::new(&dir).unwrap();
        assert_eq!(t.poll().unwrap().len(), files);
        assert_eq!(dirs(&t).len(), dir_count);
        settle(&mut t);

        // Idle: one stat per file and per directory, nothing else.
        let before = t.ops();
        assert!(t.poll().unwrap().is_empty());
        let idle = t.ops();
        assert_eq!(idle.stats - before.stats, (files + dir_count) as u64);
        assert_eq!(idle.listings, before.listings);
        assert_eq!(idle.opens, before.opens);
        assert_eq!((t.lag().sources, t.lag().bytes), (files as u64, 0));
        assert_eq!(t.source_lags().len(), files);
        assert_eq!(t.ops(), idle, "lag is answered from memory");

        // One append: one open on top of the same sweep.
        append(&dir.join(APP2).join("driver.log"), &line(1_000, "more"));
        assert_eq!(messages(&t.poll().unwrap()), ["more"]);
        let grown = t.ops();
        assert_eq!(grown.stats - idle.stats, (files + dir_count) as u64);
        assert_eq!(grown.listings, idle.listings);
        assert_eq!(grown.opens - idle.opens, 1);

        // A new file in a long-settled directory: its mtime moved, so
        // the next poll lists that one directory and finds it.
        let cid = "container_1521018000000_0001_01_000002";
        let exec = dir.join(APP1).join(format!("executor_{cid}.log"));
        fs::write(&exec, line(1_100, "exec")).unwrap();
        assert_eq!(messages(&t.poll().unwrap()), ["exec"]);
        assert_eq!(t.ops().listings - grown.listings, 1);

        // A file renamed in from outside the watch directory.
        let outside = tmp("ops_outside");
        fs::write(&outside, line(1_200, "moved")).unwrap();
        let cid = "container_1521018000000_0002_01_000002";
        fs::rename(&outside, dir.join(APP2).join(format!("executor_{cid}.log"))).unwrap();
        assert_eq!(messages(&t.poll().unwrap()), ["moved"]);

        // A new nested directory under the settled `apps/`.
        let app4 = dir.join("apps/application_1521018000000_0004");
        fs::create_dir(&app4).unwrap();
        fs::write(app4.join("driver.log"), line(1_300, "late app")).unwrap();
        assert_eq!(messages(&t.poll().unwrap()), ["late app"]);
        assert_eq!(t.stats().files as usize, files + 3);
        assert_eq!(dirs(&t).len(), dir_count + 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A sweep that calls the applications in `live` live, or every
    /// application if `every`, and keeps an owned copy of every record
    /// its workers handed over and a count of the chunks' runs they came
    /// in.
    #[derive(Default)]
    struct Only {
        live: Vec<ApplicationId>,
        every: bool,
        got: Vec<(LogSource, LogRecord)>,
        runs: usize,
    }

    impl Sweep for Only {
        type Made = (LogSource, Vec<LogRecord>);

        fn is_live(&self, app: ApplicationId) -> bool {
            self.live.contains(&app)
        }

        fn make(
            ex: &Extractor,
            source: LogSource,
            cursor: &mut StreamCursor,
            recs: &[RecordRef<'_>],
        ) -> Self::Made {
            Records::make(ex, source, cursor, recs)
        }

        fn size(made: &Self::Made) -> usize {
            Records::size(made)
        }

        fn take(&mut self, (source, recs): Self::Made) {
            assert!(!recs.is_empty());
            self.runs += 1;
            self.got.extend(recs.into_iter().map(|r| (source, r)));
        }
    }

    impl Only {
        /// One poll of `t` into this sink; the messages it delivered.
        fn poll(&mut self, t: &mut DirTailer) -> Vec<String> {
            let before = self.got.len();
            let every = self.every;
            t.sweep(self, every).unwrap();
            let new = &self.got[before..];
            new.iter().map(|(_, r)| r.message.clone()).collect()
        }
    }

    fn app(n: u32) -> ApplicationId {
        ApplicationId::new(Epoch::default_run().unix_ms, n)
    }

    fn app_dir(n: u32) -> String {
        format!("apps/{}", app(n))
    }

    fn executor_log(n: u32, container: u64) -> String {
        LogSource::Executor(app(n).attempt(1).container(container)).rel_path()
    }

    /// The cost contract of the live-set sweep, as counts: with 40
    /// application directories of which 2 are live, an idle poll costs
    /// one `stat` per cluster file, per always-hot directory (the root,
    /// `apps/`), per file and directory of a live application, and per
    /// file and directory of the applications whose turn it is — and
    /// [`COLD_ROTATION`] consecutive polls between them look at
    /// everything, also while files come and go.
    #[test]
    fn idle_poll_costs_cluster_plus_live_plus_the_cold_share() {
        let apps: Vec<String> = (1..=40).map(app_dir).collect();
        let apps: Vec<&str> = apps.iter().map(String::as_str).collect();
        let dir = small_cluster("liveset", &apps);
        let mut t = DirTailer::new(&dir).unwrap();
        assert_eq!(t.poll().unwrap().len(), 42);
        settle(&mut t);
        let mut sink = Only {
            live: vec![app(7), app(26)],
            ..Only::default()
        };

        let (cluster_files, hot_dirs, live) = (2, 2, 2 * 2);
        let mut looked_at = 0;
        for _ in 0..COLD_ROTATION {
            let before = t.ops();
            assert!(sink.poll(&mut t).is_empty());
            let turn = (t.stats().polls % COLD_ROTATION) as u32;
            let cold = (1..=40)
                .filter(|n| n % COLD_ROTATION as u32 == turn && *n != 7 && *n != 26)
                .count() as u64;
            let idle = t.ops();
            assert_eq!(
                idle.stats - before.stats,
                cluster_files + hot_dirs + live + 2 * cold,
                "turn {turn}"
            );
            assert_eq!((idle.listings, idle.opens), (before.listings, before.opens));
            looked_at += 2 * cold;
        }
        assert_eq!(
            looked_at,
            2 * 38,
            "a rotation reaches every cold application"
        );
        assert_eq!((t.lag().sources, t.lag().bytes), (42, 0));

        // Every file grows, every application directory gets a new file,
        // one application loses its log: one rotation later all of it is
        // known, each line once. Meanwhile — between those polls — more
        // files come and go; they are settled one rotation after that.
        for n in 1..=40 {
            append(
                &dir.join(app_dir(n)).join("driver.log"),
                &line(1_000, "more"),
            );
            fs::write(dir.join(executor_log(n, 2)), line(1_100, "exec")).unwrap();
        }
        fs::remove_file(dir.join(app_dir(40)).join("driver.log")).unwrap();
        let mut seen: Vec<String> = Vec::new();
        for i in 0..COLD_ROTATION as u32 {
            fs::write(dir.join(executor_log(10 + i, 3)), line(1_200, "late exec")).unwrap();
            fs::remove_file(dir.join(executor_log(30 - i, 2))).ok();
            seen.extend(sink.poll(&mut t));
        }
        let count = |seen: &[String], msg: &str| seen.iter().filter(|m| *m == msg).count();
        assert_eq!(count(&seen, "more"), 39);
        assert!(t.stats().removed_files >= 1, "the lost log was noticed");
        for n in (1..=22).chain(31..=40) {
            assert!(tail(&t, &executor_log(n, 2)).is_some(), "application {n}");
        }
        for _ in 0..COLD_ROTATION {
            seen.extend(sink.poll(&mut t));
        }
        assert_eq!(count(&seen, "more"), 39);
        assert_eq!(count(&seen, "late exec"), COLD_ROTATION as usize);
        // An executor log removed before its application's turn was
        // never read; none was read twice.
        assert!((32..=40).contains(&count(&seen, "exec")), "{seen:?}");
        for n in 23..=30 {
            assert!(tail(&t, &executor_log(n, 2)).is_none(), "application {n}");
        }
        assert_eq!(t.stats().files, 2 + 39 + 32 + 8);
        assert_eq!(t.lag().bytes, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Lag is as old as each file's last look: bytes appended to a file
    /// of an application nobody calls live are lag within one rotation,
    /// stay that — counted once — however often the file is looked at
    /// again, and turn into one record when the line completes.
    #[test]
    fn bytes_appended_to_a_cold_file_are_lag_then_records_within_one_rotation() {
        let dir = small_cluster("coldlag", &[&app_dir(3), &app_dir(4)]);
        let mut t = DirTailer::new(&dir).unwrap();
        assert_eq!(t.poll().unwrap().len(), 4);
        settle(&mut t);
        let mut sink = Only::default();

        let cold = dir.join(app_dir(3)).join("driver.log");
        let pending = line(900, "cold");
        let (head, rest) = pending.split_at(30);
        append(&cold, head);
        let lags: Vec<u64> = (0..2 * COLD_ROTATION)
            .map(|_| {
                assert!(sink.poll(&mut t).is_empty());
                t.lag().bytes
            })
            .collect();
        let seen_at = lags.iter().position(|b| *b > 0).expect("lag shows");
        assert!(seen_at < COLD_ROTATION as usize);
        assert!(
            lags[seen_at..].iter().all(|b| *b == head.len() as u64),
            "{lags:?}"
        );
        let rel = format!("{}/driver.log", app_dir(3));
        let per_source = t.source_lags();
        let own = per_source.iter().find(|l| l.rel == rel).unwrap();
        assert_eq!(own.bytes, head.len() as u64);

        append(&cold, rest);
        let polled: Vec<Vec<String>> = (0..2 * COLD_ROTATION).map(|_| sink.poll(&mut t)).collect();
        let read_at = polled.iter().position(|p| !p.is_empty()).expect("read");
        assert!(read_at < COLD_ROTATION as usize);
        assert_eq!(polled.concat(), ["cold"], "once");
        assert_eq!(t.lag().bytes, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A restored tailer has looked at nothing: its first poll reads
    /// what was appended while it was down, cold files included, and
    /// the rotation takes over from the second.
    #[test]
    fn restored_tailer_first_poll_looks_at_every_file() {
        let dir = small_cluster("restored", &[&app_dir(3), &app_dir(4)]);
        let mut t = DirTailer::new(&dir).unwrap();
        assert_eq!(t.poll().unwrap().len(), 4);
        settle(&mut t);
        let bytes = Enc::payload(&t);
        for n in [3, 4] {
            append(
                &dir.join(app_dir(n)).join("driver.log"),
                &line(900, "while down"),
            );
        }
        let mut restored = DirTailer::decode(&mut Dec::new(&bytes), &dir).unwrap();
        let mut sink = Only::default();
        assert_eq!(sink.poll(&mut restored), ["while down", "while down"]);

        let idle = restored.ops();
        assert!(sink.poll(&mut restored).is_empty());
        let turn = restored.stats().polls % COLD_ROTATION;
        let cold = [3, 4]
            .iter()
            .filter(|n| **n % COLD_ROTATION == turn)
            .count();
        assert_eq!(restored.ops().stats - idle.stats, 2 + 2 + 2 * cold as u64);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A create in the same timestamp granule as the listing before it
    /// leaves the directory's mtime where it was; the young-mtime rule
    /// must still find the file.
    #[test]
    fn file_created_right_after_a_poll_is_found_within_two_polls() {
        let dir = small_cluster("tight", &[]);
        let mut t = DirTailer::new(&dir).unwrap();
        t.poll().unwrap();
        for i in 2..1_002u32 {
            let rel = LogSource::NodeManager(logmodel::NodeId(i)).rel_path();
            fs::write(dir.join(&rel), b"").unwrap();
            t.poll().unwrap();
            if tail(&t, &rel).is_none() {
                t.poll().unwrap();
            }
            assert!(tail(&t, &rel).is_some(), "{rel} missed after two polls");
        }
        assert_eq!(t.stats().files, 1_002);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn symlinked_app_directory_is_followed() {
        let dir = small_cluster("symlink", &[APP1]);
        let elsewhere = tmp("symlink_target");
        let _ = fs::remove_dir_all(&elsewhere);
        fs::create_dir_all(&elsewhere).unwrap();
        fs::write(elsewhere.join("driver.log"), line(400, "linked")).unwrap();
        let mut t = DirTailer::new(&dir).unwrap();
        assert_eq!(t.poll().unwrap().len(), 3);

        std::os::unix::fs::symlink(&elsewhere, dir.join(APP2)).unwrap();
        std::os::unix::fs::symlink(dir.join("nowhere"), dir.join(APP3)).unwrap();
        let recs = t.poll().unwrap();
        assert_eq!(messages(&recs), ["linked"]);
        assert!(matches!(recs[0].0, LogSource::Driver(_)));
        assert_eq!(dirs(&t).len(), 4, "the dangling link is not a directory");

        // Creates inside the link's target are seen through its mtime.
        settle(&mut t);
        let cid = "container_1521018000000_0002_01_000002";
        fs::write(
            elsewhere.join(format!("executor_{cid}.log")),
            line(500, "linked exec"),
        )
        .unwrap();
        assert_eq!(messages(&t.poll().unwrap()), ["linked exec"]);
        assert_eq!(t.stats().removed_files, 0);
        fs::remove_dir_all(&dir).unwrap();
        fs::remove_dir_all(&elsewhere).unwrap();
    }
}
