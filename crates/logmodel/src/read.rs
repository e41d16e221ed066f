//! The one log reader, batch's ([`crate::scan_dir`]) and the tailer's: a
//! corpus directory's epoch, its log files, and their bytes as records.
//! The caller keeps the policy: the buffer, how far a read goes, and what
//! a read error means.

use std::fs;
use std::io::{self, ErrorKind::InvalidData, Read};
use std::num::ParseIntError;
use std::path::{Path, PathBuf};

use crate::format::{carry_lines, parse_line_ref, Epoch, READ_CHUNK};
use crate::par::{self, Parallelism};
use crate::record::{LogSource, RecordRef};

/// Bytes per record assumed when a run's record vector is sized from the
/// bytes parsed into it (the corpora at hand average 110–135 a line).
const BYTES_PER_RECORD_HINT: usize = 128;

/// The length from which [`read_records`] takes a line for no log line
/// (a binary blob, a runaway writer), whatever chunks it is read in: a
/// line of this many bytes or more before its newline is dropped up to
/// that newline and counted skipped, in [`ReadCounts::oversize`] too,
/// and the reader resynchronises there. So no line this long is ever
/// held: the bytes before the cap is reached are all a reader keeps. While it is being dropped the held bytes are
/// one `\n` — which no held line can hold — so a tailer's checkpoint
/// carries the state as it carries any held line.
pub const MAX_HELD_LINE: usize = 4 * READ_CHUNK;

/// What `held` is while an oversize line is being dropped.
const DROPPING: &[u8] = b"\n";

/// The epoch `dir/epoch.txt` names; `None` while the file cannot be read,
/// which leaves a reader on [`Epoch::default_run`] — batch for good, the
/// tailer until the file appears. A file without a number is an error.
pub fn read_epoch(dir: &Path) -> io::Result<Option<Epoch>> {
    let Ok(text) = fs::read_to_string(dir.join("epoch.txt")) else {
        return Ok(None);
    };
    let bad = |e: ParseIntError| io::Error::new(InvalidData, format!("bad epoch.txt: {e}"));
    Ok(Some(Epoch {
        unix_ms: text.trim().parse().map_err(bad)?,
    }))
}

/// A directory entry a reader wants, as [`list_dir`] names it.
#[derive(Debug, Clone, Copy)]
pub enum Entry<'a> {
    /// A directory to descend into, a symlink to one included.
    Dir(&'a Path),
    /// A log file: its source, its path under the corpus root, its path.
    Log(LogSource, &'a str, &'a Path),
}

/// List `d`, a directory of the corpus rooted at `root`, handing `visit`
/// each directory and each file whose relative path names a [`LogSource`]
/// (a rotated `x.log.1` is `x.log`'s); `epoch.txt`, strays and dangling
/// symlinks are skipped. Only a symlink costs a `stat` (the listing
/// names every other entry's type); `links` counts them.
pub fn list_dir(
    root: &Path,
    d: &Path,
    links: &mut u64,
    mut visit: impl FnMut(Entry<'_>),
) -> io::Result<()> {
    for entry in fs::read_dir(d)? {
        let entry = entry?;
        let path = entry.path();
        let mut file_type = entry.file_type()?;
        if file_type.is_symlink() {
            *links += 1;
            match fs::metadata(&path) {
                Ok(meta) => file_type = meta.file_type(),
                Err(_) => continue, // dangling
            }
        }
        if file_type.is_dir() {
            visit(Entry::Dir(&path));
            continue;
        }
        let rel = path.strip_prefix(root).map_err(io::Error::other)?;
        let rel = rel.to_string_lossy();
        if let Some(source) = LogSource::from_rel_path(&rel) {
            visit(Entry::Log(source, &rel, &path));
        }
    }
    Ok(())
}

/// Directories one pool item of [`log_files`] lists. A corpus has one
/// directory per application, each a listing of a few entries, so a
/// directory alone is too little work to hand a worker.
const LIST_RUN: usize = 64;

/// Every log file under the corpus directory `dir` that [`list_dir`]
/// names, descending into every directory it names; in no given order.
/// The walk goes a level at a time, each level's directories listed over
/// `par` in runs of [`LIST_RUN`]: the root, then `apps/`, then the
/// application directories, which are nearly all of a corpus's listings.
pub(crate) fn log_files(dir: &Path, par: Parallelism) -> io::Result<Vec<(LogSource, PathBuf)>> {
    let (mut files, mut level) = (Vec::new(), vec![dir.to_path_buf()]);
    while !level.is_empty() {
        let runs: Vec<&[PathBuf]> = level.chunks(LIST_RUN).collect();
        let listed = par::map(par, &runs, |run| {
            let (mut files, mut dirs) = (Vec::new(), Vec::new());
            for d in *run {
                list_dir(dir, d, &mut 0, |entry| match entry {
                    Entry::Dir(path) => dirs.push(path.to_path_buf()),
                    Entry::Log(source, _, path) => files.push((source, path.to_path_buf())),
                })?;
            }
            io::Result::Ok((files, dirs))
        });
        let mut next = Vec::new();
        for run in listed {
            let (run_files, run_dirs) = run?;
            files.extend(run_files);
            next.extend(run_dirs);
        }
        level = next;
    }
    Ok(files)
}

/// What [`read_records`] counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadCounts {
    /// Bytes read.
    pub bytes: u64,
    /// Lines that ended (a held line counts where it ends).
    pub lines: u64,
    /// Of those, lines without a byte (a lone `\r` is not one).
    pub empty: u64,
    /// Of those, lines that parsed into a record.
    pub records: u64,
    /// Of those, lines dropped for reaching [`MAX_HELD_LINE`] unterminated.
    pub oversize: u64,
}

impl ReadCounts {
    /// Lines with bytes that did not parse (banners, junk, stack
    /// traces): an empty line is no line here, a lone `\r` is one.
    pub fn skipped(&self) -> u64 {
        self.lines - self.records - self.empty
    }
}

/// Read `reader` until a `read` returns 0, at most `buf.len()` bytes at
/// a time, and hand `visit` each chunk's records — split by
/// [`carry_lines`], parsed by [`parse_line_ref`], borrowed from the chunk
/// — before the next chunk is read. `held` carries the bytes after the
/// last newline from one call to the next; `at_end` makes them a line.
/// Bytes are decoded lossily, so a damaged collection's garbage makes a
/// line that does not parse — counted and skipped — rather than an error
/// that rejects the corpus over one bad sector. A caller that knows
/// a file's size bounds `reader` with [`Read::take`], so no extra `read`
/// is made. On an error the counts end with the last chunk handed over.
/// `held` never keeps [`MAX_HELD_LINE`] bytes between chunks, and a line
/// is dropped as oversize by its length alone, so `buf` must be no longer
/// than [`MAX_HELD_LINE`] (a line inside one chunk is shorter than it).
pub fn read_records(
    epoch: &Epoch,
    mut reader: impl Read,
    buf: &mut [u8],
    held: &mut Vec<u8>,
    at_end: bool,
    mut visit: impl FnMut(&[RecordRef<'_>]),
) -> (ReadCounts, io::Result<()>) {
    debug_assert!(buf.len() <= MAX_HELD_LINE, "a line inside a chunk is held");
    let mut counts = ReadCounts::default();
    loop {
        let n = match reader.read(buf) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return (counts, Err(e)),
        };
        counts.bytes += n as u64;
        let (mut fresh, at_eof) = (&buf[..n], n == 0 && at_end);
        let newline = || fresh.iter().position(|b| *b == b'\n');
        if held.as_slice() != DROPPING {
            // The held line's length once this chunk is in: to its
            // newline, or all of the chunk if it has none.
            let end = newline();
            if held.len() + end.unwrap_or(n) >= MAX_HELD_LINE {
                // The line reaches the cap, wherever its chunks split it:
                // drop it.
                *held = DROPPING.to_vec();
            } else if end.is_none() {
                // Grown a chunk at a time, not doubled past the cap.
                held.reserve_exact(n);
            }
        }
        if held.as_slice() == DROPPING {
            // Dropping an oversize line: up to its newline, or the end.
            match newline() {
                Some(nl) => fresh = &fresh[nl + 1..],
                None if at_eof => fresh = &[],
                None if n == 0 => return (counts, Ok(())),
                None => continue,
            }
            held.clear();
            counts.lines += 1;
            counts.oversize += 1;
        }
        carry_lines(held, fresh, at_eof, |run| {
            let mut recs = Vec::with_capacity(n / BYTES_PER_RECORD_HINT);
            for line in run {
                counts.lines += 1;
                counts.empty += u64::from(line.is_empty());
                recs.extend(parse_line_ref(epoch, line));
            }
            if !recs.is_empty() {
                counts.records += recs.len() as u64;
                visit(&recs);
            }
        });
        if n == 0 {
            return (counts, Ok(()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A log line of exactly `len` bytes before its newline.
    fn line_of(len: usize) -> String {
        let head = "2018-03-14 09:00:01,000 INFO  Filler: ";
        let mut line = head.to_string();
        line.push_str(&"m".repeat(len - head.len()));
        line
    }

    /// What reading `bytes` in `buf`-sized chunks, and in reads split at
    /// `splits` as a tailer's polls split them, yields: the counts and
    /// every record's message length.
    fn read_split(bytes: &[u8], buf: usize, splits: &[usize]) -> (ReadCounts, Vec<usize>) {
        let epoch = Epoch::default_run();
        let (mut buf, mut held) = (vec![0; buf], Vec::new());
        let (mut total, mut lens) = (ReadCounts::default(), Vec::new());
        let mut from = 0;
        for (i, &to) in splits.iter().chain([&bytes.len()]).enumerate() {
            let at_end = i == splits.len();
            let (counts, read) = read_records(
                &epoch,
                &bytes[from..to],
                &mut buf,
                &mut held,
                at_end,
                |recs| lens.extend(recs.iter().map(|r| r.message.len())),
            );
            read.unwrap();
            assert!(held.len() < MAX_HELD_LINE);
            total.bytes += counts.bytes;
            total.lines += counts.lines;
            total.empty += counts.empty;
            total.records += counts.records;
            total.oversize += counts.oversize;
            from = to;
        }
        (total, lens)
    }

    /// A line is dropped as oversize by its length alone: one a little
    /// past the cap is dropped and one just short of it kept, whatever
    /// the chunk size and wherever the reads split them, with or without
    /// a final newline.
    #[test]
    fn a_line_is_oversize_by_its_length_alone() {
        for (len, oversize) in [
            (MAX_HELD_LINE + READ_CHUNK / 2, true),
            (MAX_HELD_LINE, true),
            (MAX_HELD_LINE - 1, false),
        ] {
            for newline in [true, false] {
                let mut text = format!("{}\n{}", line_of(40), line_of(len));
                if newline {
                    text.push('\n');
                }
                let text = text.into_bytes();
                let want = (
                    ReadCounts {
                        bytes: text.len() as u64,
                        lines: 2,
                        empty: 0,
                        records: 2 - u64::from(oversize),
                        oversize: u64::from(oversize),
                    },
                    [40, len]
                        .iter()
                        .take(2 - usize::from(oversize))
                        .map(|l| l - 38)
                        .collect::<Vec<_>>(),
                );
                for buf in [READ_CHUNK, READ_CHUNK / 2, READ_CHUNK / 3 + 7, 4_096] {
                    for splits in [
                        &[][..],
                        &[41 + READ_CHUNK / 3],
                        &[41, 41 + MAX_HELD_LINE - 1],
                        &[100, 41 + MAX_HELD_LINE / 2, text.len() - 1],
                    ] {
                        assert_eq!(
                            read_split(&text, buf, splits),
                            want,
                            "a {len}-byte line, newline {newline}, {buf}-byte chunks, reads split at {splits:?}"
                        );
                    }
                }
            }
        }
    }
}
