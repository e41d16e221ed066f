//! The log4j line format: rendering and parsing.
//!
//! Both YARN and Spark use log4j (paper §III-A); each message is
//!
//! ```text
//! 2018-03-14 09:00:17,123 INFO  RMAppImpl: application_... State change ...
//! ```
//!
//! i.e. an ISO-8601 timestamp with comma-separated milliseconds (log4j's
//! `ISO8601` date format), a level, the logger's class name, and the message.
//! Timestamps carry 1 ms precision — the precision bound of SDchecker.
//!
//! Calendar math is implemented directly (civil-from-days / days-from-civil,
//! Howard Hinnant's algorithms) rather than pulling in a chrono dependency:
//! we only need fixed-offset wall-clock rendering of an epoch plus a
//! millisecond offset.

use std::borrow::Cow;

use crate::record::{Level, LogRecord, RecordRef};
use crate::TsMs;

/// A wall-clock anchor for a run: log line timestamps are
/// `epoch + record.ts` rendered as civil date-time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Epoch {
    /// Milliseconds since the Unix epoch at simulation time zero.
    pub unix_ms: u64,
}

impl Epoch {
    /// The default anchor used across this repository: 2018-03-14 09:00:00
    /// (an arbitrary morning in the paper's submission year). Also the
    /// source of the `cluster_ts` in application IDs.
    pub fn default_run() -> Epoch {
        // 2018-03-14T09:00:00Z = 1521018000 s.
        Epoch {
            unix_ms: 1_521_018_000_000,
        }
    }

    /// The Unix-ms instant of a simulation offset.
    pub fn instant(&self, ts: TsMs) -> u64 {
        self.unix_ms + ts.0
    }

    /// Convert a Unix-ms instant back to a simulation offset. `None` if the
    /// instant predates the epoch.
    pub fn offset_of(&self, unix_ms: u64) -> Option<TsMs> {
        unix_ms.checked_sub(self.unix_ms).map(TsMs)
    }
}

/// days → (year, month, day) for days since 1970-01-01 (Hinnant's
/// `civil_from_days`).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = (z - era * 146_097) as u64; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// (year, month, day) → days since 1970-01-01 (Hinnant's `days_from_civil`).
fn days_from_civil(y: i64, m: u32, d: u32) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = (y - era * 400) as u64; // [0, 399]
    let mp = if m > 2 { m - 3 } else { m + 9 } as u64;
    let doy = (153 * mp + 2) / 5 + d as u64 - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe as i64 - 719_468
}

/// Bytes of a rendered timestamp (years 0 to 9999).
const TIMESTAMP_LEN: usize = 23;

/// Append a Unix-ms instant as `YYYY-MM-DD HH:MM:SS,mmm`, digit by digit:
/// the one writer under [`format_unix_ms`], [`format_timestamp`] and
/// [`push_line`]. A year past 9999 does not fit four digits and keeps
/// `format!`'s spelling.
fn push_unix_ms(out: &mut String, unix_ms: u64) {
    let days = (unix_ms / 86_400_000) as i64;
    let in_day = unix_ms % 86_400_000;
    let (y, mo, d) = civil_from_days(days);
    let ms = in_day % 1000;
    let s = (in_day / 1000) % 60;
    let mi = (in_day / 60_000) % 60;
    let h = in_day / 3_600_000;
    if !(0..=9999).contains(&y) {
        use std::fmt::Write as _;
        let _ = write!(out, "{y:04}-{mo:02}-{d:02} {h:02}:{mi:02}:{s:02},{ms:03}");
        return;
    }
    let mut text = *b"0000-00-00 00:00:00,000";
    put_digits(&mut text[0..4], y as u64);
    put_digits(&mut text[5..7], u64::from(mo));
    put_digits(&mut text[8..10], u64::from(d));
    put_digits(&mut text[11..13], h);
    put_digits(&mut text[14..16], mi);
    put_digits(&mut text[17..19], s);
    put_digits(&mut text[20..23], ms);
    // ASCII digits and separators only, so the conversion cannot fail.
    out.push_str(std::str::from_utf8(&text).unwrap_or_default());
}

/// Fill `field` with the low decimal digits of `v`, zero-padded.
fn put_digits(field: &mut [u8], mut v: u64) {
    for digit in field.iter_mut().rev() {
        *digit = b'0' + (v % 10) as u8;
        v /= 10;
    }
}

/// Render a Unix-ms instant as `YYYY-MM-DD HH:MM:SS,mmm`.
pub fn format_unix_ms(unix_ms: u64) -> String {
    let mut out = String::with_capacity(TIMESTAMP_LEN);
    push_unix_ms(&mut out, unix_ms);
    out
}

/// Render a record timestamp under `epoch`.
pub fn format_timestamp(epoch: &Epoch, ts: TsMs) -> String {
    format_unix_ms(epoch.instant(ts))
}

/// The value of an ASCII digit; `None` for any other byte (a sign, a
/// space, a non-ASCII byte).
fn digit(b: u8) -> Option<u64> {
    let d = b.wrapping_sub(b'0');
    (d < 10).then_some(u64::from(d))
}

/// The value of the two digits at `b[at..at + 2]`.
fn two_digits(b: &[u8; TIMESTAMP_LEN], at: usize) -> Option<u64> {
    Some(digit(b[at])? * 10 + digit(b[at + 1])?)
}

/// Parse `YYYY-MM-DD HH:MM:SS,mmm` to a Unix-ms instant, each field read
/// as pairs of ASCII digits at its fixed position.
pub fn parse_timestamp(s: &str) -> Option<u64> {
    let b: &[u8; TIMESTAMP_LEN] = s.as_bytes().try_into().ok()?;
    if b[4] != b'-'
        || b[7] != b'-'
        || b[10] != b' '
        || b[13] != b':'
        || b[16] != b':'
        || b[19] != b','
    {
        return None;
    }
    let y = (two_digits(b, 0)? * 100 + two_digits(b, 2)?) as i64;
    let mo = two_digits(b, 5)? as u32;
    let d = two_digits(b, 8)? as u32;
    let h = two_digits(b, 11)?;
    let mi = two_digits(b, 14)?;
    let sec = two_digits(b, 17)?;
    let ms = two_digits(b, 20)? * 10 + digit(b[22])?;
    if !(1..=12).contains(&mo) || !(1..=31).contains(&d) || h > 23 || mi > 59 || sec > 59 {
        return None;
    }
    let days = days_from_civil(y, mo, d);
    if days < 0 {
        return None;
    }
    Some(days as u64 * 86_400_000 + h * 3_600_000 + mi * 60_000 + sec * 1000 + ms)
}

/// Append a full log line, `<timestamp> <level padded to 5> <class>:
/// <message>`, without its `\n`: the one line writer, under
/// [`format_line`] and the [`crate::LogStore`]'s text.
pub(crate) fn push_line(out: &mut String, epoch: &Epoch, rec: RecordRef<'_>) {
    let level = rec.level.as_str();
    push_unix_ms(out, epoch.instant(rec.ts));
    out.push(' ');
    out.push_str(level);
    // Padded to five characters, then one space.
    out.push_str(&"      "[level.len()..]);
    out.push_str(rec.class);
    out.push_str(": ");
    out.push_str(rec.message);
}

/// Render a full log line ([`push_line`]) in one allocation of exactly
/// its length.
pub fn format_line(epoch: &Epoch, rec: RecordRef<'_>) -> String {
    // The timestamp, a space, the level padded to five, a space, `: `.
    let mut out = String::with_capacity(TIMESTAMP_LEN + 9 + rec.class.len() + rec.message.len());
    push_line(&mut out, epoch, rec);
    out
}

/// `bytes` as text, lossily: borrowed when they are valid UTF-8, else a
/// copy with each invalid sequence replaced by U+FFFD. The answer is
/// `String::from_utf8_lossy`'s, which is only asked once the bytes are
/// known to be damaged: it validates a byte at a time, `str::from_utf8`
/// a word of ASCII at a time.
pub(crate) fn decode_lossy(bytes: &[u8]) -> Cow<'_, str> {
    match std::str::from_utf8(bytes) {
        Ok(text) => Cow::Borrowed(text),
        Err(_) => String::from_utf8_lossy(bytes),
    }
}

/// The most of a log file read in one go, by batch ingest and by the
/// tailer alike: a reader holds one chunk and its records at a time, not
/// one file. Smaller chunks save little (DESIGN.md, "What a poll costs",
/// has the sweep), and a chunk's record vector (some 2 048 × 48 B) stays
/// below glibc's 128 KiB `mmap` threshold.
pub const READ_CHUNK: usize = 256 * 1024;

/// The lines [`carry_lines`] hands over: the held line completed first,
/// then the rest, each without its `\n` (a `\r` before it stays) — the
/// lines `str::split_terminator('\n')` yields.
pub struct Lines<'a> {
    held: Option<&'a str>,
    run: &'a str,
}

impl<'a> Iterator for Lines<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        if let Some(held) = self.held.take() {
            return Some(held);
        }
        if self.run.is_empty() {
            return None;
        }
        // A `\n` is one byte of its own in UTF-8, so both halves are text.
        let (line, rest) = match find_byte(self.run.as_bytes(), b'\n') {
            Some(at) => (&self.run[..at], &self.run[at + 1..]),
            None => (self.run, ""),
        };
        self.run = rest;
        Some(line)
    }
}

/// The index of the first `byte` in `bytes`, looked for a `u64` word at
/// a time, two words a step: a word XORed with eight copies of `byte`
/// has a zero byte where `byte` was, and `(x - 0x01…01) & !x & 0x80…80`
/// flags the lowest zero byte exactly (a borrow only flags bytes above
/// it).
fn find_byte(bytes: &[u8], byte: u8) -> Option<usize> {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_le_bytes([0x80; 8]);
    let copies = u64::from_le_bytes([byte; 8]);
    let found = |word: [u8; 8]| {
        let x = u64::from_le_bytes(word) ^ copies;
        x.wrapping_sub(ONES) & !x & HIGHS
    };
    let (words, _) = bytes.as_chunks::<8>();
    let (pairs, _) = words.as_chunks::<2>();
    for (i, &[lo, hi]) in pairs.iter().enumerate() {
        let (lo, hi) = (found(lo), found(hi));
        if lo | hi != 0 {
            let bit = if lo != 0 {
                lo.trailing_zeros()
            } else {
                64 + hi.trailing_zeros()
            };
            return Some(i * 16 + bit as usize / 8);
        }
    }
    let done = pairs.len() * 16;
    let at = bytes[done..].iter().position(|&b| b == byte)?;
    Some(done + at)
}

/// Hand `visit` the lines that `fresh`, the next bytes of a file, ends:
/// the line held in `carry` from earlier chunks, completed by `fresh`'s
/// first line, then `fresh`'s own up to its last `\n` — or, `at_eof`,
/// to its end, unterminated last line included. Whatever follows is
/// kept in `carry` for the next call. `None`, without calling `visit`,
/// when no line ended.
///
/// Each line is decoded as a whole file would be: lossy UTF-8, valid
/// bytes borrowed, not copied. The held line is completed and decoded in
/// `carry`; the line-aligned run after it is decoded at once, which is
/// decoding each of its lines, because a `\n` is never inside a
/// multi-byte sequence.
pub fn carry_lines<R>(
    carry: &mut Vec<u8>,
    fresh: &[u8],
    at_eof: bool,
    visit: impl FnOnce(Lines<'_>) -> R,
) -> Option<R> {
    let end = if at_eof {
        fresh.len()
    } else if let Some(last_nl) = fresh.iter().rposition(|b| *b == b'\n') {
        last_nl + 1
    } else {
        carry.extend_from_slice(fresh);
        return None;
    };
    let (mut run, rest) = fresh.split_at(end);
    if !carry.is_empty() {
        let first_end = run.iter().position(|b| *b == b'\n').unwrap_or(run.len());
        carry.extend_from_slice(&run[..first_end]);
        run = run.get(first_end + 1..).unwrap_or_default();
    } else if run.is_empty() {
        return None;
    }
    let out = {
        let held = (!carry.is_empty()).then(|| decode_lossy(carry));
        let run = decode_lossy(run);
        visit(Lines {
            held: held.as_deref(),
            run: &run,
        })
    };
    carry.clear();
    carry.extend_from_slice(rest);
    Some(out)
}

/// Parse a log line into a record borrowing its class and message from
/// `line`. Returns `None` for lines that do not match the format
/// (SDchecker skips them — real logs contain stack traces and banners
/// too).
///
/// The line is read as bytes at fixed places: the timestamp, one ASCII
/// character after it, a level followed by a space, then — past any
/// whitespace — the class up to the first `": "` and the message after
/// it. `str::trim_end` and `str::trim_start` decode, so they run only
/// where ASCII whitespace ends at a byte that could begin more.
pub fn parse_line_ref<'a>(epoch: &Epoch, line: &'a str) -> Option<RecordRef<'a>> {
    let line = trim_end(line);
    let b = line.as_bytes();
    if b.len() < 25 {
        return None;
    }
    let ts = epoch.offset_of(parse_timestamp(line.get(..TIMESTAMP_LEN)?)?)?;
    // Byte 23 is skipped unread: the level's ASCII letter at 24 cannot
    // continue a multi-byte character, so byte 23 is a character alone.
    let (level, after_level) = match &b[24..] {
        [b'I', b'N', b'F', b'O', b' ', ..] => (Level::Info, 29),
        [b'W', b'A', b'R', b'N', b' ', ..] => (Level::Warn, 29),
        [b'D', b'E', b'B', b'U', b'G', b' ', ..] => (Level::Debug, 30),
        [b'E', b'R', b'R', b'O', b'R', b' ', ..] => (Level::Error, 30),
        _ => return None,
    };
    let rest = trim_start(&line[after_level..]);
    let colon = class_end(rest.as_bytes())?;
    Some(RecordRef {
        ts,
        level,
        class: &rest[..colon],
        message: &rest[colon + 2..],
    })
}

/// Whether `b`, the byte an ASCII trim stopped at, may still be part of
/// Unicode whitespace: a non-ASCII byte, or the vertical tab, which
/// `u8::is_ascii_whitespace` leaves out.
fn may_be_whitespace(b: u8) -> bool {
    !b.is_ascii() || b == 0x0b
}

/// `s.trim_end()`, decoding only when the ASCII trim stops at a byte
/// that may be whitespace.
fn trim_end(s: &str) -> &str {
    let s = s.trim_ascii_end();
    match s.as_bytes().last() {
        Some(&b) if may_be_whitespace(b) => s.trim_end(),
        _ => s,
    }
}

/// `s.trim_start()`, decoding only when the ASCII trim stops at a byte
/// that may be whitespace.
fn trim_start(s: &str) -> &str {
    let s = s.trim_ascii_start();
    match s.as_bytes().first() {
        Some(&b) if may_be_whitespace(b) => s.trim_start(),
        _ => s,
    }
}

/// Where the first `": "` in `b` starts.
fn class_end(b: &[u8]) -> Option<usize> {
    let mut from = 0;
    loop {
        let colon = from + find_byte(&b[from..], b':')?;
        if b.get(colon + 1) == Some(&b' ') {
            return Some(colon);
        }
        from = colon + 1;
    }
}

/// [`parse_line_ref`], owned.
pub fn parse_line(epoch: &Epoch, line: &str) -> Option<LogRecord> {
    parse_line_ref(epoch, line).map(|r| r.to_record())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_rendering() {
        let e = Epoch::default_run();
        assert_eq!(format_timestamp(&e, TsMs(0)), "2018-03-14 09:00:00,000");
        assert_eq!(
            format_timestamp(&e, TsMs(17_123)),
            "2018-03-14 09:00:17,123"
        );
        // Crosses a minute and an hour.
        assert_eq!(
            format_timestamp(&e, TsMs(3_600_000 + 61_005)),
            "2018-03-14 10:01:01,005"
        );
    }

    #[test]
    fn rendering_crosses_midnight() {
        let e = Epoch::default_run();
        let day = 86_400_000;
        assert_eq!(format_timestamp(&e, TsMs(day)), "2018-03-15 09:00:00,000");
        // 2018-03-31 + 1 day = April 1st.
        assert_eq!(
            format_timestamp(&e, TsMs(18 * day)),
            "2018-04-01 09:00:00,000"
        );
    }

    #[test]
    fn timestamp_roundtrip() {
        let e = Epoch::default_run();
        for off in [0u64, 1, 999, 1000, 59_999, 86_400_000 * 3 + 12_345_678] {
            let s = format_timestamp(&e, TsMs(off));
            let parsed = parse_timestamp(&s).unwrap();
            assert_eq!(e.offset_of(parsed), Some(TsMs(off)), "offset {off} => {s}");
        }
    }

    #[test]
    fn parse_timestamp_rejects_malformed() {
        assert_eq!(parse_timestamp("2018-03-14 09:00:00.000"), None); // dot not comma
        assert_eq!(parse_timestamp("2018-03-14T09:00:00,000"), None);
        assert_eq!(parse_timestamp("18-03-14 09:00:00,000"), None);
        assert_eq!(parse_timestamp("2018-13-14 09:00:00,000"), None);
        assert_eq!(parse_timestamp(""), None);
        // A sign is not a digit (`str::parse::<u64>` takes a leading `+`).
        assert_eq!(parse_timestamp("2018-03-14 09:00:+9,000"), None);
        assert_eq!(parse_timestamp("+018-03-14 09:00:09,000"), None);
    }

    /// The parser as it was before the borrowed one: `str::parse` per
    /// timestamp field, owned fields. Kept as the oracle.
    fn reference_parse_timestamp(s: &str) -> Option<u64> {
        if s.len() != 23 {
            return None;
        }
        let b = s.as_bytes();
        if b[4] != b'-'
            || b[7] != b'-'
            || b[10] != b' '
            || b[13] != b':'
            || b[16] != b':'
            || b[19] != b','
        {
            return None;
        }
        let num = |lo: usize, hi: usize| -> Option<u64> { s.get(lo..hi)?.parse().ok() };
        let y = num(0, 4)? as i64;
        let mo = num(5, 7)? as u32;
        let d = num(8, 10)? as u32;
        let h = num(11, 13)?;
        let mi = num(14, 16)?;
        let sec = num(17, 19)?;
        let ms = num(20, 23)?;
        if !(1..=12).contains(&mo) || !(1..=31).contains(&d) || h > 23 || mi > 59 || sec > 59 {
            return None;
        }
        let days = days_from_civil(y, mo, d);
        if days < 0 {
            return None;
        }
        Some(days as u64 * 86_400_000 + h * 3_600_000 + mi * 60_000 + sec * 1000 + ms)
    }

    fn reference_parse_line(epoch: &Epoch, line: &str) -> Option<LogRecord> {
        let line = line.trim_end();
        if line.len() < 25 {
            return None;
        }
        let ts_str = line.get(0..23)?;
        let unix_ms = reference_parse_timestamp(ts_str)?;
        let ts = epoch.offset_of(unix_ms)?;
        let rest = line.get(24..)?;
        let mut parts = rest.splitn(2, ' ');
        let level = Level::parse(parts.next()?)?;
        let after_level = parts.next()?.trim_start();
        let (class, message) = after_level.split_once(": ")?;
        Some(LogRecord::new(ts, level, class, message))
    }

    /// `text` through [`carry_lines`] in chunks of seeded sizes, empty
    /// ones included, the end of file told with the last bytes or after
    /// them: every line, owned.
    fn lines_in_chunks(text: &[u8], rng: &mut crate::corrupt::Rng64) -> Vec<String> {
        let (mut carry, mut lines, mut rest) = (Vec::new(), Vec::new(), text);
        loop {
            let (chunk, after) = rest.split_at(rng.below(300).min(rest.len()));
            rest = after;
            let at_eof = rest.is_empty() && rng.chance(0.5);
            carry_lines(&mut carry, chunk, at_eof, |run| {
                lines.extend(run.map(str::to_string))
            });
            if at_eof {
                return lines;
            }
        }
    }

    /// Lines at the edges of the byte parser: whitespace of every kind
    /// where the trims stop, a multi-byte character on the bytes the
    /// timestamp's end and its separator take, the shortest lengths,
    /// near-miss levels and class separators, blank lines and `\r\n`.
    fn edge_lines() -> String {
        let ok = "2018-03-14 09:00:00,000 INFO  C: m";
        let mut text = String::new();
        let odd = [
            '\u{85}', '\u{a0}', '\u{1680}', '\u{2000}', '\u{2028}', '\u{3000}',
        ];
        for c in (0u8..0x80)
            .map(char::from)
            .chain(odd)
            .chain(['\u{feff}', '\u{e9}'])
        {
            for line in [
                format!("{ok}{c}"),
                format!("{ok} {c}"),
                format!("2018-03-14 09:00:00,000 INFO {c}C: m"),
                format!("2018-03-14 09:00:00,000 INFO  {c}: m"),
                format!("2018-03-14 09:00:00,000{c}INFO  C: m"),
                format!("{c}{ok}"),
            ] {
                text.push_str(&line);
                text.push('\n');
            }
        }
        for line in [
            "2018-03-14 09:00:00,0\u{e9}INFO  C: m",
            "2018-03-14 09:00:00,00\u{e9}INFO  C: m",
            "2018-03-14 09:00:00,00\u{2713}INFO  C: m",
            "2018-03-14 09:00:00,000\u{2713}INFO  C: m",
            "2018-03-14 09:00:00,000 ",
            "2018-03-14 09:00:00,000 I",
            "2018-03-14 09:00:00,000 INFO",
            "2018-03-14 09:00:00,000 INFO ",
            "2018-03-14 09:00:00,000 INFO C",
            "2018-03-14 09:00:00,000 INFO  C:m",
            "2018-03-14 09:00:00,000 INFO  C::m",
            "2018-03-14 09:00:00,000 INFO  C:: m",
            "2018-03-14 09:00:00,000 INFO  a:b: m",
            "2018-03-14 09:00:00,000 INFO  C:",
            "2018-03-14 09:00:00,000 INFO  C: ",
            "2018-03-14 09:00:00,000 INFO  : m",
            "2018-03-14 09:00:00,000 INF0  C: m",
            "2018-03-14 09:00:00,000 info  C: m",
            "2018-03-14 09:00:00,000 INFOO C: m",
            "2018-03-14 09:00:00,000 ERROR C: m\r",
            "2018-03-14 09:00:00,000 DEBUG\tC: m",
            "2018-03-14 09:00:00,000 WARN  C: m\r\n",
            "",
            "",
            "2018-03-14 09:00:00,000 INFO  C: no final newline",
        ] {
            text.push_str(line);
            text.push('\n');
        }
        text.pop();
        text
    }

    /// Seeded lines, their `corrupt` mutations (clipped, garbled,
    /// duplicated, swapped, truncated — decoded lossily, as ingest does),
    /// digit-for-sign swaps and [`edge_lines`], split by [`carry_lines`]
    /// across seeded chunk boundaries, so a `\r` before a `\n` stays on
    /// its line. The split is `split_terminator('\n')`'s over the whole
    /// text decoded at once, and the byte parser and the oracle agree on
    /// every line, except that a `+` inside the timestamp is no longer
    /// read as a digit.
    #[test]
    fn borrowed_parser_agrees_with_the_str_parse_oracle() {
        use crate::corrupt::{corrupt_bytes, CorruptConfig, Rng64};
        let e = Epoch::default_run();
        let mut rng = Rng64::new(0x5EED);
        let levels = [Level::Debug, Level::Info, Level::Warn, Level::Error];
        let classes = [
            "RMAppImpl",
            "ContainerImpl",
            "X",
            "a.b.C",
            "r\u{e9}sum\u{e9}",
        ];
        let messages = [
            "application_1521018000000_0001 State change from NEW to SUBMITTED on event = START",
            "m",
            "colons: inside: the message",
            "trailing whitespace \t ",
            "multi-byte \u{2713} text",
            "",
        ];
        let mut clean = String::new();
        for _ in 0..400 {
            let rec = LogRecord::new(
                TsMs(rng.next_u64() % (40 * 86_400_000)),
                levels[rng.below(levels.len())],
                classes[rng.below(classes.len())],
                messages[rng.below(messages.len())],
            );
            clean.push_str(&format_line(&e, rec.as_ref()));
            clean.push_str(if rng.chance(0.2) { "\r\n" } else { "\n" });
        }
        clean.push_str("    at java.lang.Thread.run(Thread.java:748)\n");
        clean.push_str("2018-03-14 08:59:59,999 INFO  C: before the epoch\n");
        clean.push_str("2018-03-14 09:00:00,000\u{e9}INFO  C: wide separator\n");
        clean.push_str("2018-03-14 09:00:00,000 TRACE C: unknown level\n");
        clean.push_str("2018-03-14 09:00:00,000 INFO  no separator\n");

        let mut text = clean.clone().into_bytes();
        for _ in 0..19 {
            let (damaged, _) = corrupt_bytes(clean.as_bytes(), &mut rng, &CorruptConfig::severe());
            text.extend(damaged);
        }
        // A sign where a digit was, in any timestamp field.
        let decoded = decode_lossy(&text).into_owned();
        for line in decoded
            .split_terminator('\n')
            .filter(|l| l.is_char_boundary(23) && l.len() > 23)
            .take(400)
        {
            let at = [0, 5, 8, 11, 14, 17, 20][rng.below(7)];
            text.extend(format!("{}+{}\n", &line[..at], &line[at + 1..]).bytes());
        }
        text.extend(edge_lines().bytes());

        let whole = decode_lossy(&text);
        let oracle: Vec<&str> = whole.split_terminator('\n').collect();
        let (mut parsed, mut signs, mut carriage) = (0, 0, 0);
        for _ in 0..4 {
            let lines = lines_in_chunks(&text, &mut rng);
            assert_eq!(lines, oracle);
            for line in &lines {
                let got = parse_line(&e, line);
                let want = reference_parse_line(&e, line);
                if got != want {
                    assert_eq!(got, None, "{line:?}");
                    assert!(line[..23].contains('+'), "{line:?}");
                    signs += 1;
                }
                parsed += usize::from(got.is_some());
                carriage += usize::from(line.ends_with('\r') && got.is_some());
            }
        }
        assert!(parsed > 8_000, "only {parsed} lines parse");
        assert!(signs > 400, "only {signs} signed timestamps were accepted");
        assert!(carriage > 200, "only {carriage} lines ending in \\r parse");
    }

    #[test]
    fn decode_lossy_borrows_valid_text_and_replaces_the_rest() {
        assert!(matches!(
            decode_lossy("r\u{e9}sum\u{e9}".as_bytes()),
            Cow::Borrowed(_)
        ));
        for damaged in [
            &b"ab\xffcd"[..],
            b"cut \xe2\x9c",
            b"\xe2\x9c\nnext",
            b"\xc3",
        ] {
            assert_eq!(decode_lossy(damaged), String::from_utf8_lossy(damaged));
            assert!(decode_lossy(damaged).contains('\u{fffd}'));
        }
    }

    #[test]
    fn line_roundtrip() {
        let e = Epoch::default_run();
        let rec = LogRecord::new(
            TsMs(5_123),
            Level::Info,
            "RMAppImpl",
            "application_1521018000000_0001 State change from SUBMITTED to ACCEPTED on event = APP_ACCEPTED",
        );
        let line = format_line(&e, rec.as_ref());
        assert_eq!(
            line,
            "2018-03-14 09:00:05,123 INFO  RMAppImpl: application_1521018000000_0001 State change from SUBMITTED to ACCEPTED on event = APP_ACCEPTED"
        );
        assert_eq!(parse_line(&e, &line), Some(rec));
    }

    #[test]
    fn line_levels_align() {
        let e = Epoch::default_run();
        let rec = LogRecord::new(TsMs(0), Level::Error, "C", "m");
        let line = format_line(&e, rec.as_ref());
        assert!(line.contains(" ERROR C: m"), "{line}");
        assert_eq!(parse_line(&e, &line), Some(rec));
    }

    #[test]
    fn parse_line_skips_non_log_lines() {
        let e = Epoch::default_run();
        assert_eq!(parse_line(&e, ""), None);
        assert_eq!(
            parse_line(&e, "    at java.lang.Thread.run(Thread.java:748)"),
            None
        );
        assert_eq!(
            parse_line(&e, "SLF4J: Class path contains multiple bindings"),
            None
        );
        // Pre-epoch timestamps are rejected (cannot be mapped to offsets).
        assert_eq!(parse_line(&e, "2018-03-14 08:59:59,999 INFO  C: m"), None);
    }

    #[test]
    fn parse_line_message_with_colons() {
        let e = Epoch::default_run();
        let line = "2018-03-14 09:00:00,000 INFO  ContainerImpl: Container container_1521018000000_0001_01_000002 transitioned from LOCALIZING to SCHEDULED: ok";
        let rec = parse_line(&e, line).unwrap();
        assert_eq!(rec.class, "ContainerImpl");
        assert!(rec.message.ends_with("SCHEDULED: ok"));
    }

    #[test]
    fn civil_calendar_spot_checks() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(days_from_civil(1970, 1, 1), 0);
        assert_eq!(civil_from_days(days_from_civil(2000, 2, 29)), (2000, 2, 29));
        assert_eq!(civil_from_days(days_from_civil(2018, 3, 14)), (2018, 3, 14));
        // Leap-year boundary.
        assert_eq!(
            civil_from_days(days_from_civil(2016, 2, 28) + 1),
            (2016, 2, 29)
        );
        assert_eq!(
            civil_from_days(days_from_civil(2017, 2, 28) + 1),
            (2017, 3, 1)
        );
    }
}
