//! The one log reader, batch's ([`crate::scan_dir`]) and the tailer's: a
//! corpus directory's epoch, its log files, and their bytes as records.
//! The caller keeps the policy: the buffer, how far a read goes, and what
//! a read error means.

use std::fs;
use std::io::{self, ErrorKind::InvalidData, Read};
use std::num::ParseIntError;
use std::path::{Path, PathBuf};

use crate::format::{carry_lines, parse_line_ref, Epoch};
use crate::record::{LogSource, RecordRef};

/// Bytes per record assumed when a run's record vector is sized from the
/// bytes parsed into it (the corpora at hand average 110–135 a line).
const BYTES_PER_RECORD_HINT: usize = 128;

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

/// Every log file under the corpus directory `dir` that [`list_dir`]
/// names, descending into every directory it names; in no given order.
pub(crate) fn log_files(dir: &Path) -> io::Result<Vec<(LogSource, PathBuf)>> {
    let (mut files, mut stack) = (Vec::new(), vec![dir.to_path_buf()]);
    while let Some(d) = stack.pop() {
        list_dir(dir, &d, &mut 0, |entry| match entry {
            Entry::Dir(path) => stack.push(path.to_path_buf()),
            Entry::Log(source, _, path) => files.push((source, path.to_path_buf())),
        })?;
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
pub fn read_records(
    epoch: &Epoch,
    mut reader: impl Read,
    buf: &mut [u8],
    held: &mut Vec<u8>,
    at_end: bool,
    mut visit: impl FnMut(&[RecordRef<'_>]),
) -> (ReadCounts, io::Result<()>) {
    let mut counts = ReadCounts::default();
    loop {
        let n = match reader.read(buf) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return (counts, Err(e)),
        };
        counts.bytes += n as u64;
        carry_lines(held, &buf[..n], n == 0 && at_end, |run| {
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
