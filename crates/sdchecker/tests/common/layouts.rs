//! Hostile on-disk layouts of a written corpus: the shapes a real log
//! collection takes that a generated one never does. Shared by the tests
//! that hold every pipeline to one answer over them (`par_equiv.rs`:
//! directory vs store analysis; `incremental.rs`: daemon vs batch).

use std::fs;
use std::path::Path;

use logmodel::{LogSource, LogStore};
use simkit::SimRng;

/// The length of a log line's timestamp, `2018-03-14 09:00:00,001`.
pub const STAMP: usize = 23;

/// `text`'s lines, each with its newline, shuffled, about half of them
/// restamped with another line's timestamp.
pub fn shuffled_with_ties(rng: &mut SimRng, text: &str) -> Vec<String> {
    let mut lines: Vec<String> = text.split_inclusive('\n').map(str::to_string).collect();
    for i in 0..lines.len() {
        if rng.chance(0.5) {
            let stamp = lines[rng.index(lines.len())][..STAMP].to_string();
            lines[i].replace_range(..STAMP, &stamp);
        }
    }
    rng.shuffle(&mut lines);
    lines
}

/// Rotate `dir`'s ResourceManager log into segments whose order on disk
/// disagrees with time: the newest third stays in `.log`, the oldest
/// goes to `.log.10` (sorted *before* `.log.2`), the middle to `.log.2`.
/// Returns the log's text as it was.
pub fn rotate_rm_log(dir: &Path) -> String {
    let rm = dir.join("resourcemanager.log");
    let text = fs::read_to_string(&rm).unwrap();
    let lines: Vec<&str> = text.split_inclusive('\n').collect();
    let third = lines.len() / 3;
    fs::write(dir.join("resourcemanager.log.10"), lines[..third].concat()).unwrap();
    fs::write(
        dir.join("resourcemanager.log.2"),
        lines[third..2 * third].concat(),
    )
    .unwrap();
    fs::write(&rm, lines[2 * third..].concat()).unwrap();
    text
}

/// Rewrite every driver and executor log of `store` (written to `dir`)
/// with more than one record so that its first line need not be its
/// first record by time: shuffled, with timestamps copied between lines
/// so that many tie. The first such executor log is split into two
/// segments as well, `.log` read before `.log.1`.
pub fn shuffle_app_logs(rng: &mut SimRng, store: &LogStore, dir: &Path) {
    let mut rotated = false;
    for src in store.sources().filter(|s| {
        matches!(s, LogSource::Driver(_) | LogSource::Executor(_))
            && store.records(*s).iter().count() > 1
    }) {
        let path = dir.join(src.rel_path());
        let lines = shuffled_with_ties(rng, &fs::read_to_string(&path).unwrap());
        fs::write(&path, lines.concat()).unwrap();
        if matches!(src, LogSource::Executor(_)) && !rotated {
            let half = lines.len() / 2;
            let older = format!("{}.1", path.display());
            fs::write(older, lines[..half].concat()).unwrap();
            fs::write(&path, lines[half..].concat()).unwrap();
            rotated = true;
        }
    }
}
