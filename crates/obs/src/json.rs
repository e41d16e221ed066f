//! JSON for the whole workspace: the one writer every emitted document
//! is spelled with ([`Obj`], [`Arr`], [`Value`]), which alone knows the
//! separators, quoting, escaping, `null` and the two [`Layout`]s; the
//! push primitives under it; and a strict parser so tests (and
//! downstream tools) can check output without external dependencies.

/// Whether `b` must be escaped inside a JSON string.
fn needs_escape(b: u8) -> bool {
    matches!(b, b'"' | b'\\' | 0..=0x1f)
}

/// Append `s` escaped for embedding inside JSON double quotes. Runs of
/// bytes that need no escaping are copied whole, so a clean string is
/// one `push_str`.
pub(crate) fn push_escaped(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    // A fold without an early exit tells a clean string (most of them)
    // a word at a time, not a branch per byte.
    if !s.bytes().fold(false, |any, b| any | needs_escape(b)) {
        out.push_str(s);
        return;
    }
    // Every escaped byte is ASCII, so `clean` and `i` always fall on
    // character boundaries and multi-byte text passes through in runs.
    let mut clean = 0;
    for (i, b) in s.bytes().enumerate() {
        if !needs_escape(b) {
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

/// `"00"` to `"99"`, back to back.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0; 200];
    let mut i = 0;
    while i < 200 {
        pairs[i] = b'0' + (i / 20) as u8;
        pairs[i + 1] = b'0' + (i / 2 % 10) as u8;
        i += 2;
    }
    pairs
};

/// The one digit loop: the decimal digits of `v` at the end of `buf`,
/// zero-padded on the left to at least `min_digits` (at most the
/// buffer's 20). Returns where they start. Two digits per division: the
/// divisions are a chain, and halving it halves what a number costs.
fn digits(buf: &mut [u8; 20], mut v: u64, min_digits: usize) -> usize {
    buf.fill(b'0');
    let mut i = buf.len();
    while v >= 10 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v > 0 || i == buf.len() {
        i -= 1;
        buf[i] = b'0' + v as u8;
    }
    i.min(buf.len().saturating_sub(min_digits))
}

/// The decimal digits of `v` in `buf`, zero-padded to at least
/// `min_digits`: the fixed-width fields of `logmodel`'s ids.
pub fn decimal(buf: &mut [u8; 20], v: u64, min_digits: usize) -> &str {
    let start = digits(buf, v, min_digits);
    // ASCII digits only, so the conversion cannot fail.
    std::str::from_utf8(&buf[start..]).unwrap_or_default()
}

/// Append `v` in decimal, a digit at a time: ASCII needs none of the
/// UTF-8 check a `&str` of the digits would cost.
#[inline]
pub fn push_u64(out: &mut String, v: u64) {
    let mut buf = [0; 20];
    let start = digits(&mut buf, v, 1);
    for &d in &buf[start..] {
        out.push(char::from(d));
    }
}

/// Append an `f64` deterministically: integers without a fraction render
/// as integers, everything else uses Rust's shortest-roundtrip `{:?}`.
pub(crate) fn push_f64(out: &mut String, v: f64) {
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
pub(crate) fn fmt_f64(v: f64) -> String {
    let mut out = String::new();
    push_f64(&mut out, v);
    out
}

/// A value an object member or an array element can hold.
pub trait Value {
    /// Append the value's JSON text.
    fn push_json(&self, out: &mut String);
}

/// `null`, for a member no `Option` gives a type to.
pub struct Null;

/// A string whose text the closure appends: an id or a fixed path,
/// written without a `String` of its own.
pub struct Quoted<F>(pub F);

/// What each type is as JSON: `[generics] type => |value, out| write`.
macro_rules! values {
    ($([$($g:tt)*] $t:ty => |$v:ident, $out:ident| $write:expr;)*) => {$(
        impl<$($g)*> Value for $t {
            fn push_json(&self, $out: &mut String) {
                let $v = self;
                $write;
            }
        }
    )*};
}

values! {
    [] u32 => |v, out| push_u64(out, u64::from(*v));
    [] u64 => |v, out| push_u64(out, *v);
    [] usize => |v, out| push_u64(out, *v as u64);
    [] f64 => |v, out| push_f64(out, *v);
    [] bool => |v, out| out.push_str(if *v { "true" } else { "false" });
    [] Null => |_v, out| out.push_str("null");
    [] str => |v, out| Quoted(|out: &mut String| push_escaped(out, v)).push_json(out);
    [] String => |v, out| v.as_str().push_json(out);
    [T: Value + ?Sized] &T => |v, out| (**v).push_json(out);
    [T: Value] Option<T> =>
        |v, out| match v { Some(v) => v.push_json(out), None => Null.push_json(out) };
    [T: Value] [T] => |v, out| v.iter().fold(Arr::new(out, Layout::Inline), |mut a, x| {
        a.item(x);
        a
    });
    [F: Fn(&mut String)] Quoted<F> => |v, out| { out.push('"'); (v.0)(out); out.push('"') };
}

/// An object member's name.
pub trait Key {
    /// Append the quoted name and the `: ` after it.
    fn push_key(self, out: &mut String);
}

/// A name and a suffix fixed in the source (`("total", "_ms")`), copied
/// verbatim: scanning every member's name for escapes would cost each
/// document a pass over all of its keys.
impl Key for (&'static str, &'static str) {
    #[inline(always)]
    fn push_key(self, out: &mut String) {
        debug_assert!(
            !self.0.bytes().chain(self.1.bytes()).any(needs_escape),
            "static key {self:?} needs escaping; write it as a json::Name"
        );
        out.push('"');
        out.push_str(self.0);
        out.push_str(self.1);
        out.push_str("\": ");
    }
}

/// A name fixed in the source, copied verbatim.
impl Key for &'static str {
    #[inline(always)]
    fn push_key(self, out: &mut String) {
        (self, "").push_key(out);
    }
}

/// A name known only at run time — a metric key, a rule name, a source
/// path, an application id — escaped.
pub struct Name<'a>(pub &'a str);

impl Key for Name<'_> {
    fn push_key(self, out: &mut String) {
        self.0.push_json(out);
        out.push_str(": ");
    }
}

/// How a container lays out its members.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// On the container's line, separated by `", "`.
    Inline,
    /// One per line, two spaces deeper than the enclosing block, and the
    /// closing bracket on a line of its own.
    Block,
}

/// A block member's separator: a comma, a line break and more
/// indentation than any document nests to.
const BREAK: &str = ",\n                                ";

/// Where an open container stands; all [`Obj::pause`] keeps of it. (A
/// member is the first when the document still ends in its bracket.)
#[derive(Debug, Clone, Copy)]
pub struct Paused {
    /// Block members' indentation; inline containers keep their block's.
    indent: usize,
    block: bool,
    obj: bool,
}

/// An open object or array.
struct Seq<'a> {
    out: &'a mut String,
    at: Paused,
}

impl<'a> Seq<'a> {
    #[inline]
    fn open(out: &'a mut String, obj: bool, layout: Layout, indent: usize) -> Seq<'a> {
        out.push(if obj { '{' } else { '[' });
        let block = layout == Layout::Block;
        let indent = if block { indent + 2 } else { indent }.min(BREAK.len() - 2);
        Seq {
            out,
            at: Paused { indent, block, obj },
        }
    }

    /// Write the separator before the next member; lend the document.
    #[inline(always)]
    fn next(&mut self) -> &mut String {
        let first = matches!(self.out.as_bytes().last(), Some(b'{' | b'['));
        self.out.push_str(match (self.at.block, first) {
            (true, _) => &BREAK[usize::from(first)..2 + self.at.indent],
            (false, true) => "",
            (false, false) => ", ",
        });
        self.out
    }

    fn pause(self) -> Paused {
        let at = self.at;
        std::mem::forget(self);
        at
    }
}

impl Drop for Seq<'_> {
    #[inline]
    fn drop(&mut self) {
        if self.at.block {
            self.out.push_str(&BREAK[1..self.at.indent]);
        }
        self.out.push(if self.at.obj { '}' } else { ']' });
    }
}

/// An object being written. It closes when dropped.
pub struct Obj<'a>(Seq<'a>);

impl<'a> Obj<'a> {
    /// Open an object at the end of `out`, outside any block.
    #[inline]
    pub fn new(out: &'a mut String, layout: Layout) -> Obj<'a> {
        Obj(Seq::open(out, true, layout, 0))
    }

    /// Add the member `key: v`.
    #[inline(always)]
    pub fn field(&mut self, key: impl Key, v: impl Value) -> &mut Obj<'a> {
        let out = self.0.next();
        key.push_key(out);
        v.push_json(out);
        self
    }

    /// Add a member holding an object, and write it.
    pub fn obj(&mut self, key: impl Key, layout: Layout) -> Obj<'_> {
        key.push_key(self.0.next());
        Obj(Seq::open(self.0.out, true, layout, self.0.at.indent))
    }

    /// Add a member holding an array, and write it.
    pub fn arr(&mut self, key: impl Key, layout: Layout) -> Arr<'_> {
        key.push_key(self.0.next());
        Arr(Seq::open(self.0.out, false, layout, self.0.at.indent))
    }

    /// Leave the object open, so a writer owning its document can go on
    /// in a later call — or hand what it has written so far to a file
    /// first: [`Obj::resume`] needs only the container's place, not the
    /// text before it, once the container holds a member (an emptied
    /// buffer reads as "a member came before").
    pub fn pause(self) -> Paused {
        self.0.pause()
    }

    /// Go on writing a paused object.
    pub fn resume(out: &'a mut String, at: Paused) -> Obj<'a> {
        Obj(Seq { out, at })
    }
}

/// A whole document: the object `write` fills, and a closing newline, in
/// a `String` that starts with room for `capacity` bytes.
pub fn document(capacity: usize, layout: Layout, write: impl FnOnce(&mut Obj<'_>)) -> String {
    let mut out = String::with_capacity(capacity);
    write(&mut Obj::new(&mut out, layout));
    out.push('\n');
    out
}

/// Add members to an object in order, written the way the document
/// reads: `json_fields!(obj, "app" => app, "events" => n)`. A key is
/// anything [`Key`] takes.
#[macro_export]
macro_rules! json_fields {
    ($obj:ident, $($key:expr => $value:expr),+ $(,)?) => {{
        $($obj.field($key, $value);)+
    }};
}

/// An array being written. It closes when dropped.
pub struct Arr<'a>(Seq<'a>);

impl<'a> Arr<'a> {
    /// Open an array at the end of `out`, outside any block.
    #[inline]
    pub fn new(out: &'a mut String, layout: Layout) -> Arr<'a> {
        Arr(Seq::open(out, false, layout, 0))
    }

    /// Add the element `v`.
    pub fn item(&mut self, v: impl Value) -> &mut Arr<'a> {
        v.push_json(self.0.next());
        self
    }

    /// Add an object element, and write it.
    #[inline]
    pub fn obj(&mut self, layout: Layout) -> Obj<'_> {
        self.0.next();
        Obj(Seq::open(self.0.out, true, layout, self.0.at.indent))
    }

    /// Leave the array open (see [`Obj::pause`]).
    pub fn pause(self) -> Paused {
        self.0.pause()
    }

    /// Go on writing a paused array.
    pub fn resume(out: &'a mut String, at: Paused) -> Arr<'a> {
        Arr(Seq { out, at })
    }
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

/// Parse a complete JSON document. Errors carry a byte offset. Strict
/// where an emitter could go wrong: a raw control character inside a
/// string (RFC 8259 §7) is an error, not text, so a "must parse" check
/// catches a missed escape.
pub fn parse(s: &str) -> Result<Json, String> {
    let mut p = Parser {
        src: s,
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
    src: &'a str,
    bytes: &'a [u8],
    /// Always on a character boundary: the parser steps over ASCII bytes
    /// and whole characters only.
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
                0..=0x1f => {
                    return Err(format!("raw control character at byte {}", self.pos - 1));
                }
                _ => {
                    // Re-consume as UTF-8: back up and take the full char.
                    self.pos -= 1;
                    let rest = self.src.get(self.pos..).unwrap_or_default();
                    let c = rest.chars().next().ok_or("empty char")?;
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

    /// The pieces hostile strings are made of.
    const HOSTILE: [&str; 23] = [
        "a", "Z", " ", "\"", "\\", "\n", "\r", "\t", "\u{0}", "\u{1}", "\u{8}", "\u{c}", "\u{1f}",
        "\u{7f}", "é", "ü", "→", "日本", "🦀", "/", "'", "{", "}",
    ];

    /// A string of up to `max_len - 1` hostile pieces.
    fn hostile(state: &mut u64, max_len: u64) -> String {
        let len = next(state) % max_len;
        (0..len)
            .map(|_| HOSTILE[(next(state) % HOSTILE.len() as u64) as usize])
            .collect()
    }

    #[test]
    fn push_escaped_matches_the_reference_on_hostile_strings() {
        let mut state = 18;
        for case in 0..2_000 {
            let s = hostile(&mut state, 24);
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

    #[test]
    fn parser_rejects_raw_control_characters_in_strings() {
        for raw in [
            "\"a\u{1}b\"",
            "\"tab\there\"",
            "\"line\nbreak\"",
            "{\"k\u{1f}\": 1}",
        ] {
            assert!(parse(raw).is_err(), "{raw:?} must not parse");
        }
        // Escaped, the same text is fine; DEL is not a control character.
        assert_eq!(
            parse("\"a\\u0001b\\t\u{7f}\"").unwrap().as_str(),
            Some("a\u{1}b\t\u{7f}")
        );
    }

    /// Write `build`'s document into a fresh string.
    fn written(build: impl FnOnce(&mut String)) -> String {
        let mut out = String::new();
        build(&mut out);
        out
    }

    #[test]
    fn empty_containers_in_each_layout() {
        let obj = |layout| written(|out| drop(Obj::new(out, layout)));
        let arr = |layout| written(|out| drop(Arr::new(out, layout)));
        assert_eq!(obj(Layout::Inline), "{}");
        assert_eq!(arr(Layout::Inline), "[]");
        assert_eq!(obj(Layout::Block), "{\n}");
        assert_eq!(arr(Layout::Block), "[\n]");
        let nested = written(|out| {
            let mut doc = Obj::new(out, Layout::Block);
            doc.obj("o", Layout::Block);
            doc.arr("a", Layout::Block);
            doc.obj("i", Layout::Inline);
        });
        assert_eq!(
            nested,
            "{\n  \"o\": {\n  },\n  \"a\": [\n  ],\n  \"i\": {}\n}"
        );
    }

    #[test]
    fn block_array_inside_an_inline_object() {
        let doc = written(|out| {
            let mut root = Obj::new(out, Layout::Block);
            root.field("n", 1u64);
            let mut path = root.obj("path", Layout::Inline);
            path.field("total_ms", 5u64);
            let mut segments = path.arr("segments", Layout::Block);
            segments
                .obj(Layout::Inline)
                .field("c", "x")
                .field("pct", 0.5);
            segments.obj(Layout::Inline).field("c", "y");
        });
        assert_eq!(
            doc,
            "{\n  \"n\": 1,\n  \"path\": {\"total_ms\": 5, \"segments\": [\n    \
             {\"c\": \"x\", \"pct\": 0.5},\n    {\"c\": \"y\"}\n  ]}\n}"
        );
    }

    #[test]
    fn inline_objects_inside_a_block_array() {
        let doc = written(|out| {
            let mut events = Arr::new(out, Layout::Block);
            events
                .obj(Layout::Inline)
                .field("a", 1u64)
                .field("b", None::<u64>);
            events.item(Null).item([2u64, 3].as_slice());
        });
        assert_eq!(doc, "[\n  {\"a\": 1, \"b\": null},\n  null,\n  [2, 3]\n]");
    }

    #[test]
    fn runtime_keys_are_escaped_and_static_keys_are_not() {
        let doc = written(|out| {
            Obj::new(out, Layout::Inline)
                .field("k", true)
                .field(Name("a\"b\\c\nd"), "v\u{1}")
                .field(("p95", "_ms"), 1.5);
        });
        assert_eq!(
            doc,
            "{\"k\": true, \"a\\\"b\\\\c\\nd\": \"v\\u0001\", \"p95_ms\": 1.5}"
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "needs escaping")]
    fn a_static_key_that_needs_escaping_trips_a_debug_assert() {
        let mut out = String::new();
        Obj::new(&mut out, Layout::Inline).field("say \"hi\"", 1u64);
    }

    #[test]
    fn a_paused_container_resumes_where_it_stood() {
        let mut out = String::new();
        let mut root = Obj::new(&mut out, Layout::Inline);
        root.field("unit", "ms");
        let events = root.arr("events", Layout::Block).pause();
        let root = root.pause();
        let mut resumed = Arr::resume(&mut out, events);
        resumed.item(1u64);
        let events = resumed.pause();
        Arr::resume(&mut out, events).item(2u64);
        drop(Obj::resume(&mut out, root));
        assert_eq!(out, "{\"unit\": \"ms\", \"events\": [\n  1,\n  2\n]}");
    }

    /// Keys the random trees draw from: static ones the writer copies
    /// verbatim; any other key is a hostile runtime one.
    const STATIC_KEYS: [&str; 4] = ["app", "total_ms", "segments", "p99"];

    /// A random tree at most `depth` containers deep. The writer has no
    /// array directly inside an array (no document needs one), so an
    /// array's elements are scalars and objects.
    fn tree(state: &mut u64, depth: u32, in_array: bool) -> Json {
        let pick = next(state) % if depth == 0 { 5 } else { 7 };
        match pick + u64::from(in_array && pick == 5) {
            0 => Json::Null,
            1 => Json::Bool(next(state).is_multiple_of(2)),
            2 => Json::Num((next(state) >> (next(state) % 53 + 11)) as f64),
            3 => Json::Num((next(state) % 100_000) as f64 / 10.0),
            4 => Json::Str(hostile(state, 12)),
            5 => Json::Arr(
                (0..next(state) % 5)
                    .map(|_| tree(state, depth - 1, true))
                    .collect(),
            ),
            _ => Json::Obj(
                (0..next(state) % 5)
                    .map(|_| {
                        let key = match next(state) % 3 {
                            0 => hostile(state, 8),
                            i => STATIC_KEYS[(i as usize + depth as usize) % 4].to_string(),
                        };
                        (key, tree(state, depth - 1, false))
                    })
                    .collect(),
            ),
        }
    }

    fn layout(state: &mut u64) -> Layout {
        [Layout::Inline, Layout::Block][(next(state) % 2) as usize]
    }

    fn scalar(v: &Json) -> Option<Box<dyn Value + '_>> {
        Some(match v {
            Json::Null => Box::new(Null),
            Json::Bool(b) => Box::new(*b),
            Json::Num(n) => Box::new(*n),
            Json::Str(s) => Box::new(s.as_str()),
            Json::Arr(_) | Json::Obj(_) => return None,
        })
    }

    impl Value for Box<dyn Value + '_> {
        fn push_json(&self, out: &mut String) {
            (**self).push_json(out);
        }
    }

    fn write_item(arr: &mut Arr<'_>, v: &Json, state: &mut u64) {
        match v {
            Json::Obj(members) => write_members(&mut arr.obj(layout(state)), members, state),
            _ => {
                arr.item(scalar(v));
            }
        }
    }

    fn write_items(arr: &mut Arr<'_>, items: &[Json], state: &mut u64) {
        for v in items {
            write_item(arr, v, state);
        }
    }

    fn write_members(obj: &mut Obj<'_>, members: &[(String, Json)], state: &mut u64) {
        for (k, v) in members {
            match STATIC_KEYS.iter().find(|s| *s == k) {
                Some(key) => write_member(obj, *key, v, state),
                None => write_member(obj, Name(k), v, state),
            }
        }
    }

    fn write_member(obj: &mut Obj<'_>, key: impl Key, v: &Json, state: &mut u64) {
        match v {
            Json::Arr(items) => write_items(&mut obj.arr(key, layout(state)), items, state),
            Json::Obj(members) => write_members(&mut obj.obj(key, layout(state)), members, state),
            _ => {
                obj.field(key, scalar(v));
            }
        }
    }

    #[test]
    fn random_trees_written_in_mixed_layouts_parse_back_to_themselves() {
        let mut state = 32;
        for case in 0..1_000 {
            let root = Json::Obj(vec![("doc".to_string(), tree(&mut state, 4, false))]);
            let Json::Obj(members) = &root else {
                unreachable!()
            };
            let mut out = String::new();
            write_members(
                &mut Obj::new(&mut out, layout(&mut state)),
                members,
                &mut state,
            );
            let back = parse(&out).unwrap_or_else(|e| panic!("case {case}: {e}\n{out}"));
            assert_eq!(back, root, "case {case}:\n{out}");
        }
    }
}
