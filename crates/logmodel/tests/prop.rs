//! Property-based tests: every identifier and timestamp format must
//! round-trip, and ID scanning must find whatever the simulator embeds —
//! the load-bearing contract between log writer and log miner.
//!
//! Properties run as seeded randomized loops over `simkit::SimRng` (the
//! workspace is dependency-free, so there is no proptest); each case is
//! deterministic per seed.

use std::fmt::{self, Write as _};

use logmodel::format::format_unix_ms;
use logmodel::schema::{Disposition, Family, MsgTemplate};
use logmodel::{
    format_line, format_timestamp, parse_line, parse_timestamp, ApplicationId, ContainerId, Epoch,
    Level, LogRecord, LogSource, NodeId, TsMs,
};
use simkit::SimRng;

const CASES: u64 = 256;

fn pick(rng: &mut SimRng, alphabet: &[u8], len_lo: u64, len_hi: u64) -> String {
    let len = rng.range(len_lo, len_hi);
    (0..len)
        .map(|_| alphabet[rng.index(alphabet.len())] as char)
        .collect()
}

#[test]
fn application_id_roundtrip() {
    for case in 0..CASES {
        let mut rng = SimRng::new(0x10 + case);
        let ts = rng.range(1, 10_000_000_000_000);
        let seq = rng.range(1, 1_000_000) as u32;
        let id = ApplicationId::new(ts, seq);
        assert_eq!(
            id.to_string().parse::<ApplicationId>().unwrap(),
            id,
            "case {case}"
        );
    }
}

#[test]
fn container_id_roundtrip() {
    for case in 0..CASES {
        let mut rng = SimRng::new(0x11 + case);
        let ts = rng.range(1, 10_000_000_000_000);
        let seq = rng.range(1, 100_000) as u32;
        let attempt = rng.range(1, 99) as u32;
        let c = rng.range(1, 10_000_000);
        let id = ApplicationId::new(ts, seq).attempt(attempt).container(c);
        assert_eq!(
            id.to_string().parse::<ContainerId>().unwrap(),
            id,
            "case {case}"
        );
    }
}

#[test]
fn node_id_roundtrip() {
    for case in 0..CASES {
        let mut rng = SimRng::new(0x12 + case);
        let id = NodeId(rng.below(10_000) as u32);
        assert_eq!(id.to_string().parse::<NodeId>().unwrap(), id, "case {case}");
    }
}

#[test]
fn timestamp_roundtrip() {
    for case in 0..CASES {
        let mut rng = SimRng::new(0x13 + case);
        let offset = rng.below(10_000_000_000);
        let epoch = Epoch::default_run();
        let s = format_timestamp(&epoch, TsMs(offset));
        assert_eq!(s.len(), 23, "case {case}");
        let parsed = parse_timestamp(&s).unwrap();
        assert_eq!(epoch.offset_of(parsed), Some(TsMs(offset)), "case {case}");
    }
}

/// A log line built from arbitrary (sane) message text parses back to
/// the identical record.
#[test]
fn log_line_roundtrip() {
    const MSG: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_ .:=()[]-";
    const CLASS_FIRST: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
    const CLASS_REST: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
    for case in 0..CASES {
        let mut rng = SimRng::new(0x14 + case);
        let offset = rng.below(100_000_000);
        // The format requires "class: message"; messages must not start or
        // end with whitespace (trim round-trip) and class must not contain
        // ": ".
        let msg = pick(&mut rng, MSG, 1, 121).trim().to_string();
        if msg.is_empty() {
            continue;
        }
        let class = format!(
            "{}{}",
            pick(&mut rng, CLASS_FIRST, 1, 2),
            pick(&mut rng, CLASS_REST, 0, 31)
        );
        let epoch = Epoch::default_run();
        let rec = LogRecord::new(TsMs(offset), Level::Info, &class, msg);
        let line = logmodel::format::format_line(&epoch, rec.as_ref());
        assert_eq!(
            parse_line(&epoch, &line),
            Some(rec),
            "case {case}: line {line:?}"
        );
    }
}

/// LogSource paths round-trip for arbitrary ids.
#[test]
fn source_path_roundtrip() {
    for case in 0..CASES {
        let mut rng = SimRng::new(0x16 + case);
        let seq = rng.range(1, 100_000) as u32;
        let c = rng.range(1, 1_000_000);
        let node = rng.below(500) as u32;
        let app = ApplicationId::new(1_521_018_000_000, seq);
        for src in [
            LogSource::ResourceManager,
            LogSource::NodeManager(NodeId(node)),
            LogSource::Driver(app),
            LogSource::Executor(app.attempt(1).container(c)),
        ] {
            assert_eq!(
                LogSource::from_rel_path(&src.rel_path()),
                Some(src),
                "case {case}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// The writers against the `format!` / `split` versions they replaced.
// ---------------------------------------------------------------------

/// Hinnant's `civil_from_days`, as the writers' reference uses it.
fn reference_civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = (z - era * 146_097) as u64;
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146_096) / 365;
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// `format_unix_ms` as it was: one `format!`.
fn reference_format_unix_ms(unix_ms: u64) -> String {
    let days = (unix_ms / 86_400_000) as i64;
    let in_day = unix_ms % 86_400_000;
    let (y, mo, d) = reference_civil_from_days(days);
    let ms = in_day % 1000;
    let s = (in_day / 1000) % 60;
    let mi = (in_day / 60_000) % 60;
    let h = in_day / 3_600_000;
    format!("{y:04}-{mo:02}-{d:02} {h:02}:{mi:02}:{s:02},{ms:03}")
}

/// `format_line` as it was: the timestamp's own `String`, then `format!`
/// padding the level through `Display`.
fn reference_format_line(epoch: &Epoch, rec: &LogRecord) -> String {
    format!(
        "{} {:<5} {}: {}",
        reference_format_unix_ms(epoch.instant(rec.ts)),
        rec.level,
        rec.class,
        rec.message
    )
}

/// Unix ms of a civil date-time (Hinnant's `days_from_civil`).
fn unix_ms(y: i64, m: u32, d: u32, h: u64, mi: u64, s: u64, ms: u64) -> u64 {
    let yy = if m <= 2 { y - 1 } else { y };
    let era = if yy >= 0 { yy } else { yy - 399 } / 400;
    let yoe = (yy - era * 400) as u64;
    let mp = if m > 2 { m - 3 } else { m + 9 } as u64;
    let doy = (153 * mp + 2) / 5 + d as u64 - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    let days = (era * 146_097 + doe as i64 - 719_468) as u64;
    days * 86_400_000 + h * 3_600_000 + mi * 60_000 + s * 1000 + ms
}

/// Instants where a digit writer could go wrong: leap days (and a
/// century that is not one), year and century roll-overs, the first and
/// last millisecond of a second, the widest four-digit year and the first
/// five-digit one, and the ends of the type; plus seeded ones across all
/// four-digit years.
fn instants() -> Vec<u64> {
    let mut v = vec![
        0,
        999,
        1_521_018_000_000, // the default epoch
        unix_ms(2000, 2, 29, 12, 0, 0, 0),
        unix_ms(2016, 2, 28, 23, 59, 59, 999),
        unix_ms(2016, 2, 29, 0, 0, 0, 0),
        unix_ms(2016, 3, 1, 0, 0, 0, 0),
        unix_ms(2024, 2, 29, 23, 59, 59, 999),
        unix_ms(2099, 12, 31, 23, 59, 59, 999),
        unix_ms(2100, 1, 1, 0, 0, 0, 0),
        unix_ms(2100, 2, 28, 23, 59, 59, 999),
        unix_ms(2100, 3, 1, 0, 0, 0, 0),
        unix_ms(9999, 12, 31, 23, 59, 59, 999),
        unix_ms(10000, 1, 1, 0, 0, 0, 0),
        unix_ms(10000, 2, 29, 7, 8, 9, 10),
        unix_ms(123_456, 7, 8, 9, 10, 11, 12),
        u64::MAX / 2,
        u64::MAX,
    ];
    let last_four_digit = unix_ms(10000, 1, 1, 0, 0, 0, 0);
    let mut rng = SimRng::new(0x17);
    for _ in 0..4 * CASES {
        let t = rng.below(last_four_digit);
        v.extend([t, t - t % 1000, t - t % 1000 + 999]);
    }
    v
}

#[test]
fn timestamps_match_the_format_reference() {
    for t in instants() {
        let want = reference_format_unix_ms(t);
        assert_eq!(format_unix_ms(t), want, "unix ms {t}");
        let off = t % 86_400_000;
        let epoch = Epoch { unix_ms: t - off };
        assert_eq!(format_timestamp(&epoch, TsMs(off)), want, "unix ms {t}");
        if want.len() == 23 {
            assert_eq!(parse_timestamp(&want), Some(t), "{want}");
        }
    }
}

#[test]
fn lines_match_the_format_reference() {
    let levels = [Level::Debug, Level::Info, Level::Warn, Level::Error];
    let classes = ["RMAppImpl", "", "C", "r\u{e9}sum\u{e9}", "a.b.C: x"];
    let messages = [
        "application_1521018000000_0001 State change from NEW to NEW_SAVING on event = START",
        "",
        " lead and trail ",
        "multi-byte \u{2713} {} text",
    ];
    let mut lines = 0;
    for (i, t) in instants().into_iter().enumerate() {
        let off = t % 3_600_000;
        let epoch = Epoch { unix_ms: t - off };
        let rec = LogRecord::new(
            TsMs(off),
            levels[i % levels.len()],
            classes[i % classes.len()],
            messages[i % messages.len()],
        );
        assert_eq!(
            format_line(&epoch, rec.as_ref()),
            reference_format_line(&epoch, &rec),
            "unix ms {t}"
        );
        lines += 1;
    }
    // Every level with every class and message, at the default epoch.
    let epoch = Epoch::default_run();
    for level in levels {
        for class in classes {
            for message in messages {
                let rec = LogRecord::new(TsMs(17_123), level, class, message);
                assert_eq!(
                    format_line(&epoch, rec.as_ref()),
                    reference_format_line(&epoch, &rec)
                );
                lines += 1;
            }
        }
    }
    assert!(lines > 3_000, "{lines}");
}

/// `MsgTemplate::msg` as it was: `split("{}")` over the template.
fn reference_msg(template: &str, args: &[&dyn fmt::Display]) -> String {
    let mut out = String::new();
    let mut args = args.iter();
    for (i, part) in template.split("{}").enumerate() {
        if i > 0 {
            if let Some(a) = args.next() {
                let _ = write!(out, "{a}");
            }
        }
        out.push_str(part);
    }
    out
}

#[test]
fn template_messages_match_the_split_reference() {
    // Holes adjacent, leading, trailing and absent; braces that are not
    // a hole; multi-byte text beside a hole; the empty template.
    const SYNTHETIC: [&str; 14] = [
        "",
        "no holes at all",
        "{}",
        "{}{}",
        "{}{}{}",
        "{} leading",
        "trailing {}",
        "a{}{}b",
        "{{}}",
        "{}}",
        "{{}",
        "{ } and } { are not holes",
        "\u{e9}{}\u{fc}{}\u{2713}",
        "{}: {} -> {} ({})",
    ];
    let synthetic = SYNTHETIC.iter().map(|&template| MsgTemplate {
        name: "synthetic",
        class: "C",
        family: Family::ResourceManager,
        template,
        disposition: Disposition::Noise,
        file: "prop.rs",
    });
    let emitted = yarnsim::schema::emitted_templates()
        .iter()
        .chain(sparksim::schema::emitted_templates())
        .copied();
    let cid = ApplicationId::new(1_521_018_000_000, 7)
        .attempt(1)
        .container(2);
    let values: [&dyn fmt::Display; 7] = [&cid, &"", &"{}", &"x", &42u32, &"\u{2713}", &NodeId(3)];
    let mut rng = SimRng::new(0x18);
    let mut checked = 0;
    for t in emitted.chain(synthetic) {
        let holes = t.template.split("{}").count() - 1;
        assert_eq!(t.holes(), holes, "{}", t.template);
        for _ in 0..8 {
            let args: Vec<&dyn fmt::Display> = (0..holes)
                .map(|_| values[rng.index(values.len())])
                .collect();
            assert_eq!(
                t.msg(&args),
                reference_msg(t.template, &args),
                "{}",
                t.template
            );
            checked += 1;
        }
    }
    assert!(checked >= 8 * (20 + SYNTHETIC.len()), "{checked}");
}
