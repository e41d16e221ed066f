//! Deterministic log-corruption harness: damage an on-disk log corpus the
//! way real collections get damaged — truncated files (disk full, node
//! died mid-rotation), clipped lines, duplicated lines (double-flushed
//! appenders), reordered lines (interleaved rotation segments), and
//! garbage bytes (bit rot, partially-overwritten blocks).
//!
//! The harness is seeded: the same `(corpus, seed, config)` triple always
//! produces the same damage, so fuzz failures replay exactly. SDchecker's
//! robustness contract is checked against this module's output: for *any*
//! seed the analyzer must exit cleanly and account for every application
//! it can still see.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::read::log_files;

/// Small deterministic PRNG (xorshift64*). Not cryptographic — it only
/// needs to be fast, seedable, and stable across platforms, so corruption
/// runs replay bit-for-bit from a seed.
#[derive(Debug, Clone)]
pub(crate) struct Rng64 {
    state: u64,
}

impl Rng64 {
    /// Seeded generator. A zero seed is remapped (xorshift fixes on 0).
    pub fn new(seed: u64) -> Rng64 {
        Rng64 {
            state: if seed == 0 { 0x9E3779B97F4A7C15 } else { seed },
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Uniform value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Bernoulli draw with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 / ((1u64 << 53) as f64) < p
    }
}

/// Per-file damage probabilities. Each knob is the chance that the named
/// operation is applied to a given log file; several can hit one file.
#[derive(Debug, Clone)]
pub struct CorruptConfig {
    /// Drop the tail of the file at a random byte offset (mid-line cuts
    /// included — the classic "collection stopped here" artifact).
    pub truncate: f64,
    /// Clip a random suffix off individual lines.
    pub clip_line: f64,
    /// Duplicate individual lines in place.
    pub duplicate_line: f64,
    /// Swap adjacent lines (rotation-merge reordering).
    pub swap_lines: f64,
    /// Overwrite a short span of a line with garbage bytes.
    pub garbage: f64,
}

impl Default for CorruptConfig {
    fn default() -> CorruptConfig {
        CorruptConfig {
            truncate: 0.3,
            clip_line: 0.05,
            duplicate_line: 0.05,
            swap_lines: 0.05,
            garbage: 0.05,
        }
    }
}

impl CorruptConfig {
    /// A harsher profile: most files damaged, many lines hit.
    pub fn severe() -> CorruptConfig {
        CorruptConfig {
            truncate: 0.6,
            clip_line: 0.2,
            duplicate_line: 0.2,
            swap_lines: 0.2,
            garbage: 0.2,
        }
    }
}

/// Summary of the damage a [`corrupt_dir`] pass inflicted.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CorruptReport {
    /// Log files rewritten (at least one operation applied).
    pub files_damaged: usize,
    /// Files whose tail was truncated.
    pub truncated: usize,
    /// Individual lines clipped, duplicated, swapped, or garbled.
    pub lines_damaged: usize,
}

/// Walk every log file under `dir` — each file the readers read, rotated
/// segments included — in path order for determinism, and apply seeded
/// damage per `cfg`. `epoch.txt` is left intact — destroying it
/// models a different failure (no corpus at all) that callers test
/// separately. Returns what was damaged.
pub fn corrupt_dir(dir: &Path, seed: u64, cfg: &CorruptConfig) -> io::Result<CorruptReport> {
    let mut files: Vec<PathBuf> = log_files(dir, crate::Parallelism::ONE)?
        .into_iter()
        .map(|(_, p)| p)
        .collect();
    files.sort();
    let mut rng = Rng64::new(seed);
    let mut report = CorruptReport::default();
    for path in files {
        let bytes = fs::read(&path)?;
        let (damaged, file_report) = corrupt_bytes(&bytes, &mut rng, cfg);
        if file_report.files_damaged > 0 {
            fs::write(&path, damaged)?;
            report.files_damaged += 1;
            report.truncated += file_report.truncated;
            report.lines_damaged += file_report.lines_damaged;
        }
    }
    Ok(report)
}

/// Apply the configured operations to one file's bytes. Pure — the RNG is
/// the only state — so unit tests can pin exact outputs.
pub(crate) fn corrupt_bytes(
    bytes: &[u8],
    rng: &mut Rng64,
    cfg: &CorruptConfig,
) -> (Vec<u8>, CorruptReport) {
    let mut report = CorruptReport::default();
    let mut lines: Vec<Vec<u8>> = bytes.split(|&b| b == b'\n').map(|l| l.to_vec()).collect();
    // split leaves one empty trailing element for a newline-terminated
    // file; keep it so re-joining preserves the terminator.
    let n_real = lines.len().saturating_sub(1);

    let mut i = 0;
    while i < n_real {
        if cfg.duplicate_line > 0.0 && rng.chance(cfg.duplicate_line) {
            lines.insert(i + 1, lines[i].clone());
            report.lines_damaged += 1;
            i += 2;
            continue;
        }
        if cfg.swap_lines > 0.0 && i + 1 < n_real && rng.chance(cfg.swap_lines) {
            lines.swap(i, i + 1);
            report.lines_damaged += 1;
            i += 2;
            continue;
        }
        if cfg.clip_line > 0.0 && !lines[i].is_empty() && rng.chance(cfg.clip_line) {
            let keep = rng.below(lines[i].len());
            lines[i].truncate(keep);
            report.lines_damaged += 1;
        } else if cfg.garbage > 0.0 && lines[i].len() > 4 && rng.chance(cfg.garbage) {
            let start = rng.below(lines[i].len() - 2);
            let span = 1 + rng.below((lines[i].len() - start).min(8));
            for b in &mut lines[i][start..start + span] {
                *b = (rng.next_u64() % 256) as u8;
                // keep it one line: newline bytes would split it.
                if *b == b'\n' {
                    *b = b'?';
                }
            }
            report.lines_damaged += 1;
        }
        i += 1;
    }
    let mut out = lines.join(&b'\n');
    if cfg.truncate > 0.0 && !out.is_empty() && rng.chance(cfg.truncate) {
        let keep = rng.below(out.len());
        out.truncate(keep);
        report.truncated += 1;
    }
    if report.truncated > 0 || report.lines_damaged > 0 {
        report.files_damaged = 1;
    }
    (out, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_nonzero() {
        let mut a = Rng64::new(42);
        let mut b = Rng64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut z = Rng64::new(0);
        assert_ne!(z.next_u64(), 0);
    }

    #[test]
    fn corruption_replays_from_seed() {
        let text = (0..50)
            .map(|i| format!("2017-09-0{} 10:00:00,{:03} INFO  C: line {i}", i % 9 + 1, i))
            .collect::<Vec<_>>()
            .join("\n")
            + "\n";
        let cfg = CorruptConfig::severe();
        let (a, ra) = corrupt_bytes(text.as_bytes(), &mut Rng64::new(7), &cfg);
        let (b, rb) = corrupt_bytes(text.as_bytes(), &mut Rng64::new(7), &cfg);
        assert_eq!(a, b);
        assert_eq!(ra, rb);
        assert!(ra.files_damaged > 0, "severe config should damage 50 lines");
        // A different seed produces different damage.
        let (c, _) = corrupt_bytes(text.as_bytes(), &mut Rng64::new(8), &cfg);
        assert_ne!(a, c);
    }

    #[test]
    fn zero_config_is_identity() {
        let cfg = CorruptConfig {
            truncate: 0.0,
            clip_line: 0.0,
            duplicate_line: 0.0,
            swap_lines: 0.0,
            garbage: 0.0,
        };
        let text = b"one\ntwo\nthree\n";
        let (out, report) = corrupt_bytes(text, &mut Rng64::new(1), &cfg);
        assert_eq!(out, text);
        assert_eq!(report, CorruptReport::default());
    }

    #[test]
    fn corrupt_dir_rewrites_only_log_files() {
        let dir = std::env::temp_dir().join(format!("logmodel_cr_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(dir.join("apps/application_1504260000000_0001")).unwrap();
        let line = "2017-09-01 10:00:00,000 INFO  C: hello corruption harness\n";
        fs::write(dir.join("resourcemanager.log"), line.repeat(40)).unwrap();
        fs::write(
            dir.join("apps/application_1504260000000_0001/driver.log"),
            line.repeat(40),
        )
        .unwrap();
        fs::write(dir.join("epoch.txt"), "1504260000000\n").unwrap();
        // Named like a log, but no reader reads it.
        fs::write(dir.join("notes.log"), line.repeat(40)).unwrap();
        let report = corrupt_dir(&dir, 99, &CorruptConfig::severe()).unwrap();
        assert!(report.files_damaged >= 1);
        // epoch.txt and the stray are untouched.
        assert_eq!(
            fs::read_to_string(dir.join("epoch.txt")).unwrap(),
            "1504260000000\n"
        );
        assert_eq!(
            fs::read_to_string(dir.join("notes.log")).unwrap(),
            line.repeat(40)
        );
        // Deterministic: re-damaging a fresh copy gives the same report.
        let dir2 = std::env::temp_dir().join(format!("logmodel_cr2_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir2);
        fs::create_dir_all(dir2.join("apps/application_1504260000000_0001")).unwrap();
        fs::write(dir2.join("resourcemanager.log"), line.repeat(40)).unwrap();
        fs::write(
            dir2.join("apps/application_1504260000000_0001/driver.log"),
            line.repeat(40),
        )
        .unwrap();
        fs::write(dir2.join("epoch.txt"), "1504260000000\n").unwrap();
        let report2 = corrupt_dir(&dir2, 99, &CorruptConfig::severe()).unwrap();
        assert_eq!(report, report2);
        fs::remove_dir_all(&dir).unwrap();
        fs::remove_dir_all(&dir2).unwrap();
    }
}
