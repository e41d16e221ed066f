//! Minimal JSON support: string escaping for the exporters and a small
//! recursive-descent parser so tests (and downstream tools) can validate
//! exporter output without external dependencies.

/// Append `s` escaped for embedding inside JSON double quotes. Runs of
/// bytes that need no escaping are copied whole, so a clean string is
/// one `push_str`.
pub fn push_escaped(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    // Every escaped byte is ASCII, so `clean` and `i` always fall on
    // character boundaries and multi-byte text passes through in runs.
    let mut clean = 0;
    for (i, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.push_str(&s[clean..i]);
        clean = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
    }
    out.push_str(&s[clean..]);
}

/// Escape a string for embedding inside JSON double quotes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_escaped(&mut out, s);
    out
}

/// The decimal digits of `v` in `buf`, zero-padded on the left to at
/// least `min_digits` (at most the buffer's 20). The one digit loop
/// under [`push_u64`] and the fixed-width fields of `logmodel`'s ids.
pub fn decimal(buf: &mut [u8; 20], mut v: u64, min_digits: usize) -> &str {
    buf.fill(b'0');
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    let start = i.min(buf.len().saturating_sub(min_digits));
    // ASCII digits only, so the conversion cannot fail.
    std::str::from_utf8(&buf[start..]).unwrap_or_default()
}

/// Append `v` in decimal.
pub fn push_u64(out: &mut String, v: u64) {
    out.push_str(decimal(&mut [0; 20], v, 1));
}

/// Append an `f64` deterministically: integers without a fraction render
/// as integers, everything else uses Rust's shortest-roundtrip `{:?}`.
pub fn push_f64(out: &mut String, v: f64) {
    use std::fmt::Write as _;
    if v.fract() == 0.0 && v.abs() < 9.0e15 {
        let int = v as i64;
        if int < 0 {
            out.push('-');
        }
        push_u64(out, int.unsigned_abs());
    } else {
        let _ = write!(out, "{v:?}");
    }
}

/// Render an `f64` deterministically (see [`push_f64`]).
pub fn fmt_f64(v: f64) -> String {
    let mut out = String::new();
    push_f64(&mut out, v);
    out
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true`/`false`
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keeping key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Parse a complete JSON document. Errors carry a byte offset.
pub fn parse(s: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected byte at {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err("unterminated string".to_string());
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(e) = self.peek() else {
                        return Err("unterminated escape".to_string());
                    };
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let n = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            self.pos += 4;
                            // Surrogate pairs are not needed for our own
                            // output; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(n).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                }
                _ => {
                    // Re-consume as UTF-8: back up and take the full char.
                    self.pos -= 1;
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|e| e.to_string())?;
                    let c = s.chars().next().ok_or("empty char")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9') | Some(b'.') | Some(b'e') | Some(b'E') | Some(b'+') | Some(b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number '{text}': {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn fmt_f64_is_stable() {
        assert_eq!(fmt_f64(3.0), "3");
        assert_eq!(fmt_f64(-2.0), "-2");
        assert_eq!(fmt_f64(0.5), "0.5");
        assert_eq!(fmt_f64(1.25), "1.25");
    }

    /// `escape` as it was before it became a wrapper over
    /// [`push_escaped`]: the slow oracle.
    fn escape_reference(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out
    }

    /// `fmt_f64` as it was before it became a wrapper over [`push_f64`].
    fn fmt_f64_reference(v: f64) -> String {
        if v.fract() == 0.0 && v.abs() < 9.0e15 {
            format!("{}", v as i64)
        } else {
            format!("{v:?}")
        }
    }

    /// SplitMix64: a seeded stream for the oracle comparisons.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn push_escaped_matches_the_reference_on_hostile_strings() {
        let alphabet = [
            "a", "Z", " ", "\"", "\\", "\n", "\r", "\t", "\u{0}", "\u{1}", "\u{8}", "\u{c}",
            "\u{1f}", "\u{7f}", "é", "ü", "→", "日本", "🦀", "/", "'", "{", "}",
        ];
        let mut state = 18;
        for case in 0..2_000 {
            let len = next(&mut state) % 24;
            let s: String = (0..len)
                .map(|_| alphabet[(next(&mut state) % alphabet.len() as u64) as usize])
                .collect();
            let want = escape_reference(&s);
            assert_eq!(escape(&s), want, "case {case}: {s:?}");
            // Appending leaves what was already there alone.
            let mut out = String::from("\"k\": \"");
            push_escaped(&mut out, &s);
            assert_eq!(out, format!("\"k\": \"{want}"), "case {case}: {s:?}");
            let doc = format!("\"{want}\"");
            assert_eq!(parse(&doc).unwrap().as_str(), Some(s.as_str()), "{doc}");
        }
    }

    #[test]
    fn push_f64_matches_the_reference() {
        let mut values = vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.1,
            -0.1,
            12.3,
            99.95,
            1e-7,
            8.999_999_999_999_999e15,
            9.0e15,
            -9.0e15,
            9.007_199_254_740_993e15,
            1e21,
            -1e300,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::EPSILON,
            i64::MAX as f64,
            i64::MIN as f64,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let mut state = 18;
        for _ in 0..2_000 {
            let r = next(&mut state);
            // Tenths (what blame percentages are), integers of every
            // width, and arbitrary bit patterns.
            values.push((r % 100_000) as f64 / 10.0);
            values.push((r >> (r % 64)) as f64);
            values.push(-((r >> (r % 64)) as f64));
            values.push(f64::from_bits(next(&mut state)));
        }
        for v in values {
            let want = fmt_f64_reference(v);
            assert_eq!(fmt_f64(v), want, "{v:?}");
            let mut out = String::from("x");
            push_f64(&mut out, v);
            assert_eq!(out, format!("x{want}"), "{v:?}");
        }
    }

    #[test]
    fn decimal_pads_without_ever_truncating() {
        let mut state = 18;
        let mut values = vec![0, 1, 9, 10, 99, 100, 9_999, 10_000, u64::MAX];
        values.extend((0..500).map(|_| next(&mut state) >> (next(&mut state) % 64)));
        for v in values {
            let mut out = String::new();
            push_u64(&mut out, v);
            assert_eq!(out, v.to_string());
            let mut buf = [0; 20];
            assert_eq!(decimal(&mut buf, v, 2), format!("{v:02}"));
            assert_eq!(decimal(&mut buf, v, 4), format!("{v:04}"));
            assert_eq!(decimal(&mut buf, v, 6), format!("{v:06}"));
            assert_eq!(decimal(&mut buf, v, 64), format!("{v:020}"));
        }
    }

    #[test]
    fn parses_nested_document() {
        let doc = r#"{"a": [1, 2.5, -3], "b": {"c": "x\ny", "d": true}, "e": null}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Json::Bool(true)));
        assert_eq!(v.get("e"), Some(&Json::Null));
    }

    #[test]
    fn roundtrips_escaped_strings() {
        let s = "quote \" slash \\ newline \n tab \t";
        let doc = format!("{{\"k\": \"{}\"}}", escape(s));
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some(s));
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("\"open").is_err());
    }

    #[test]
    fn parses_unicode_escape() {
        let v = parse("\"\\u0041\"").unwrap();
        assert_eq!(v.as_str(), Some("A"));
    }
}
