//! A small log-message pattern matcher.
//!
//! The paper's tool extracts scheduling messages "using regular
//! expression" (§III-B). The message shapes involved are all
//! literal-text-with-holes (`Container {} transitioned from {} to {}`), so
//! this module implements exactly that: a pattern is literal segments
//! separated by `{}` captures; matching is non-greedy left-to-right. It is
//! faster than a general regex engine on this workload, has no
//! dependencies (the `regex` crate is not in the project's allowed set),
//! and failure modes are easy to reason about.
//!
//! A literal is searched for by its first byte, then confirmed by
//! comparing the rest of its bytes in place; the search goes on from
//! the byte after a failed candidate, so the answer is the leftmost
//! occurrence `str::find` gives, without the two-way searcher that
//! `str::find` builds on every call. A match of valid UTF-8 in valid
//! UTF-8 starts and ends on character boundaries, so the captures are
//! slices of the text.

/// A compiled pattern: literal segments with `{}` capture holes between
/// them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pat {
    /// Literal segments; captures sit between consecutive segments.
    segments: Vec<String>,
    /// Whether the pattern starts with a capture (`"{} rest"`).
    leading_capture: bool,
    /// Whether the pattern ends with a capture (`"rest {}"`).
    trailing_capture: bool,
}

/// Why a pattern failed to compile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatError {
    /// The pattern contains adjacent captures (`"{}{}"` anywhere,
    /// including at the very start or end), which cannot be delimited.
    AdjacentCaptures {
        /// The offending pattern text.
        pattern: String,
    },
}

impl std::fmt::Display for PatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PatError::AdjacentCaptures { pattern } => {
                write!(f, "adjacent captures in pattern {pattern:?}")
            }
        }
    }
}

impl std::error::Error for PatError {}

impl Pat {
    /// Compile a pattern. `{}` marks a capture; everything else is
    /// matched literally. Adjacent captures are rejected because they
    /// cannot be delimited; two captures are adjacent exactly when the
    /// pattern contains the substring `"{}{}"`, so the check is
    /// position-independent (start, interior, and end alike).
    pub fn new(pattern: &str) -> Result<Pat, PatError> {
        if pattern.contains("{}{}") {
            return Err(PatError::AdjacentCaptures {
                pattern: pattern.to_string(),
            });
        }
        let parts: Vec<&str> = pattern.split("{}").collect();
        let leading_capture = parts.first().is_some_and(|p| p.is_empty()) && parts.len() > 1;
        let trailing_capture = parts.last().is_some_and(|p| p.is_empty()) && parts.len() > 1;
        let segments = parts
            .into_iter()
            .filter(|p| !p.is_empty())
            .map(str::to_string)
            .collect();
        Ok(Pat {
            segments,
            leading_capture,
            trailing_capture,
        })
    }

    /// Compile a pattern known valid at authoring time (the declarative
    /// tables in [`crate::schema`]). Panics on an invalid pattern — the
    /// one deliberate panic site in this crate, covered by `sdlint`'s
    /// allowlist and exercised against every table entry in tests.
    pub fn new_static(pattern: &'static str) -> Pat {
        match Pat::new(pattern) {
            Ok(p) => p,
            Err(e) => panic!("static pattern table entry invalid: {e}"),
        }
    }

    /// Substitute `caps` into the pattern's holes, producing the exact
    /// text [`Pat::match_str`] would capture them back out of. Returns
    /// `None` on arity mismatch.
    pub fn render(&self, caps: &[&str]) -> Option<String> {
        if caps.len() != self.captures() {
            return None;
        }
        let mut caps = caps.iter();
        let mut out = String::new();
        if self.leading_capture || (self.segments.is_empty() && self.trailing_capture) {
            out.push_str(caps.next()?);
        }
        for (i, seg) in self.segments.iter().enumerate() {
            if i > 0 {
                out.push_str(caps.next()?);
            }
            out.push_str(seg);
        }
        if self.trailing_capture && !self.segments.is_empty() {
            out.push_str(caps.next()?);
        }
        Some(out)
    }

    /// Number of captures this pattern produces.
    pub fn captures(&self) -> usize {
        if self.segments.is_empty() {
            // Pure "{}" pattern: one capture spanning the whole text.
            return usize::from(self.leading_capture || self.trailing_capture);
        }
        let inner = self.segments.len() - 1;
        inner + usize::from(self.leading_capture) + usize::from(self.trailing_capture)
    }

    /// Match `text` against the pattern, writing the captured substrings
    /// (in order) into `caps`. Matching is anchored at both ends. `false`
    /// on a mismatch, and when `caps` is not [`Pat::captures`] long.
    fn match_into<'t>(&self, text: &'t str, caps: &mut [&'t str]) -> bool {
        if caps.len() != self.captures() {
            return false;
        }
        let Some((first, middle)) = self.segments.split_first() else {
            // Pattern was only "{}" (or empty).
            return match caps {
                [whole] => {
                    *whole = text;
                    true
                }
                _ => text.is_empty(),
            };
        };
        let mut rest = text;
        let mut n = 0;

        // First segment: anchored unless a leading capture exists.
        if self.leading_capture {
            let Some(pos) = find(rest, first) else {
                return false;
            };
            caps[n] = &rest[..pos];
            n += 1;
            rest = &rest[pos + first.len()..];
        } else {
            match rest.strip_prefix(first.as_str()) {
                Some(after) => rest = after,
                None => return false,
            }
        }

        // Middle segments: each consumes one capture (non-greedy).
        for seg in middle {
            let Some(pos) = find(rest, seg) else {
                return false;
            };
            caps[n] = &rest[..pos];
            n += 1;
            rest = &rest[pos + seg.len()..];
        }

        // Tail: either a trailing capture or exact end.
        if self.trailing_capture {
            caps[n] = rest;
            true
        } else {
            rest.is_empty()
        }
    }

    /// Match `text` without allocating: the captured substrings in
    /// order, then empty strings up to `N`; `None` on a mismatch, and for
    /// a pattern of more than `N` captures. Matching is anchored at both
    /// ends.
    pub fn match_padded<'t, const N: usize>(&self, text: &'t str) -> Option<[&'t str; N]> {
        let mut caps = [""; N];
        let holes = caps.get_mut(..self.captures())?;
        self.match_into(text, holes).then_some(caps)
    }

    /// Match `text` against a pattern of exactly `N` captures: the
    /// captured substrings in order, or `None` on a mismatch (a pattern
    /// with another number of captures never matches).
    #[cfg(test)]
    fn match_array<'t, const N: usize>(&self, text: &'t str) -> Option<[&'t str; N]> {
        let mut caps = [""; N];
        self.match_into(text, &mut caps).then_some(caps)
    }

    /// Match `text` against the pattern: the captured substrings in
    /// order, or `None`.
    #[cfg(test)]
    fn match_str<'t>(&self, text: &'t str) -> Option<Vec<&'t str>> {
        let mut caps = vec![""; self.captures()];
        self.match_into(text, &mut caps).then_some(caps)
    }
}

/// Where the leftmost `needle`, a non-empty segment, starts in `text`.
fn find(text: &str, needle: &str) -> Option<usize> {
    let (text, needle) = (text.as_bytes(), needle.as_bytes());
    let (&first, rest) = needle.split_first()?;
    let last_start = text.len().checked_sub(needle.len())?;
    let mut from = 0;
    while from <= last_start {
        let at = from + text[from..=last_start].iter().position(|&b| b == first)?;
        if text[at + 1..].starts_with(rest) {
            return Some(at);
        }
        from = at + 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_only() {
        let p = Pat::new("exact text").unwrap();
        assert_eq!(p.captures(), 0);
        assert_eq!(p.match_str("exact text"), Some(vec![]));
        assert_eq!(p.match_str("exact text!"), None);
        assert_eq!(p.match_str("exact"), None);
    }

    #[test]
    fn single_capture_middle() {
        let p = Pat::new("from {} to SCHEDULED").unwrap();
        assert_eq!(p.captures(), 1);
        assert_eq!(
            p.match_str("from LOCALIZING to SCHEDULED"),
            Some(vec!["LOCALIZING"])
        );
        assert_eq!(p.match_str("from LOCALIZING to RUNNING"), None);
    }

    #[test]
    fn multi_capture_container_transition() {
        let p = Pat::new("Container {} transitioned from {} to {}").unwrap();
        let caps = p
            .match_str("Container container_1_0001_01_000002 transitioned from NEW to LOCALIZING")
            .unwrap();
        assert_eq!(
            caps,
            vec!["container_1_0001_01_000002", "NEW", "LOCALIZING"]
        );
    }

    #[test]
    fn rm_app_state_change() {
        let p = Pat::new("{} State change from {} to {} on event = {}").unwrap();
        let caps = p
            .match_str("application_1_0001 State change from SUBMITTED to ACCEPTED on event = APP_ACCEPTED")
            .unwrap();
        assert_eq!(
            caps,
            vec![
                "application_1_0001",
                "SUBMITTED",
                "ACCEPTED",
                "APP_ACCEPTED"
            ]
        );
    }

    #[test]
    fn array_match_is_the_vec_match_at_the_pattern_arity_only() {
        for (pattern, text) in [
            (
                "{} State change from {} to {} on event = {}",
                "a State change from B to C on event = D",
            ),
            (
                "{} State change from {} to {} on event = {}",
                "a State change from B to C",
            ),
            (
                "Container {} transitioned from {} to {}",
                "Container c transitioned from NEW to DONE",
            ),
            (
                "Starting ApplicationMaster for {}",
                "Starting ApplicationMaster for q1",
            ),
            ("Starting ApplicationMaster for {}", "Started"),
            ("{}", "anything"),
            ("exact", "exact"),
            ("", ""),
        ] {
            let p = Pat::new(pattern).unwrap();
            let want = p.match_str(text);
            let arity = p.captures();
            let as_vec = |caps: Option<&[&'static str]>| caps.map(<[_]>::to_vec);
            let got = [
                as_vec(p.match_array::<0>(text).as_ref().map(|c| &c[..])),
                as_vec(p.match_array::<1>(text).as_ref().map(|c| &c[..])),
                as_vec(p.match_array::<2>(text).as_ref().map(|c| &c[..])),
                as_vec(p.match_array::<3>(text).as_ref().map(|c| &c[..])),
                as_vec(p.match_array::<4>(text).as_ref().map(|c| &c[..])),
            ];
            for (n, got) in got.into_iter().enumerate() {
                let want = if n == arity { want.clone() } else { None };
                assert_eq!(got, want, "{pattern:?} on {text:?} into {n}");
            }
        }
    }

    #[test]
    fn leading_and_trailing_captures() {
        let p = Pat::new("{} middle {}").unwrap();
        assert_eq!(p.captures(), 2);
        assert_eq!(p.match_str("a middle b"), Some(vec!["a", "b"]));
        assert_eq!(p.match_str(" middle "), Some(vec!["", ""]));
    }

    #[test]
    fn whole_capture() {
        let p = Pat::new("{}").unwrap();
        assert_eq!(
            p.match_str("anything at all"),
            Some(vec!["anything at all"])
        );
    }

    #[test]
    fn non_greedy_takes_first_delimiter() {
        let p = Pat::new("a {} b {}").unwrap();
        // The first capture stops at the first " b ".
        assert_eq!(p.match_str("a x b y b z"), Some(vec!["x", "y b z"]));
    }

    #[test]
    fn anchored_at_start() {
        let p = Pat::new("START_ALLO Requesting {} executor containers").unwrap();
        assert!(p
            .match_str("START_ALLO Requesting 4 executor containers")
            .is_some());
        assert!(p
            .match_str("xx START_ALLO Requesting 4 executor containers")
            .is_none());
    }

    #[test]
    fn adjacent_captures_rejected_everywhere() {
        // Interior, start, end, and bare — every placement is an error.
        for bad in ["a {}{} b", "{}{} b", "a {}{}", "{}{}", "a {}{}{} b"] {
            assert_eq!(
                Pat::new(bad),
                Err(PatError::AdjacentCaptures {
                    pattern: bad.to_string()
                }),
                "{bad:?} must be rejected"
            );
        }
        let err = Pat::new("{}{}").unwrap_err();
        assert!(err.to_string().contains("adjacent captures"));
    }

    #[test]
    #[should_panic(expected = "static pattern table entry invalid")]
    fn new_static_panics_on_bad_pattern() {
        Pat::new_static("{}{}");
    }

    #[test]
    fn render_round_trips() {
        let p = Pat::new("Container {} transitioned from {} to {}").unwrap();
        let text = p.render(&["c_1", "NEW", "LOCALIZING"]).unwrap();
        assert_eq!(text, "Container c_1 transitioned from NEW to LOCALIZING");
        assert_eq!(
            p.match_str(&text).unwrap(),
            vec!["c_1", "NEW", "LOCALIZING"]
        );
        // Arity mismatch refuses to render.
        assert_eq!(p.render(&["c_1"]), None);
        // Leading/trailing captures and the bare-capture pattern.
        let lt = Pat::new("{} mid {}").unwrap();
        assert_eq!(lt.render(&["a", "b"]).unwrap(), "a mid b");
        let whole = Pat::new("{}").unwrap();
        assert_eq!(whole.render(&["everything"]).unwrap(), "everything");
        let lit = Pat::new("no holes").unwrap();
        assert_eq!(lit.render(&[]).unwrap(), "no holes");
    }

    /// The matcher as it was before the byte search: `str::find` per
    /// literal. Kept as the oracle.
    fn reference_match<'t>(p: &Pat, text: &'t str) -> Option<Vec<&'t str>> {
        let Some((first, middle)) = p.segments.split_first() else {
            return if p.leading_capture || p.trailing_capture {
                Some(vec![text])
            } else {
                text.is_empty().then(Vec::new)
            };
        };
        let mut caps = Vec::new();
        let mut rest = text;
        if p.leading_capture {
            let pos = rest.find(first.as_str())?;
            caps.push(&rest[..pos]);
            rest = &rest[pos + first.len()..];
        } else {
            rest = rest.strip_prefix(first.as_str())?;
        }
        for seg in middle {
            let pos = rest.find(seg.as_str())?;
            caps.push(&rest[..pos]);
            rest = &rest[pos + seg.len()..];
        }
        if p.trailing_capture {
            caps.push(rest);
        } else if !rest.is_empty() {
            return None;
        }
        Some(caps)
    }

    /// Seeded texts from the four templates' segments — missing,
    /// duplicated and reordered, cut short, inside captures, next to
    /// empty captures and to multi-byte characters, at the very end —
    /// match as the `str::find` oracle matches them, through
    /// `match_str` and `match_array` at every arity.
    #[test]
    fn byte_search_agrees_with_the_str_find_oracle() {
        let templates: Vec<&str> = crate::schema::patterns()
            .iter()
            .filter_map(crate::schema::PatternSpec::template)
            .collect();
        assert_eq!(templates.len(), 4);
        let pats: Vec<Pat> = templates
            .iter()
            .chain(&["{}", "a {} b {}", "{} to {}", "exact", ""])
            .map(|t| Pat::new(t).unwrap())
            .collect();
        let segments: Vec<&str> = templates
            .iter()
            .flat_map(|t| t.split("{}"))
            .filter(|s| !s.is_empty())
            .collect();
        let fillers = [
            "",
            "x",
            "NEW",
            "RUNNING",
            "application_1_0001",
            "\u{e9}",
            "\u{2713}",
            "\u{1f600}",
            " ",
            "  ",
            "to",
            "from",
            "T",
            "C",
            "\u{e9} ",
        ];
        let mut rng = simkit::SimRng::new(0xF1ED);
        let piece = |rng: &mut simkit::SimRng| -> String {
            match rng.below(4) {
                0 => fillers[rng.index(fillers.len())].to_string(),
                1 => {
                    // A segment cut short, at a character boundary.
                    let seg = segments[rng.index(segments.len())];
                    let mut at = rng.index(seg.len() + 1);
                    while !seg.is_char_boundary(at) {
                        at -= 1;
                    }
                    seg[..at].to_string()
                }
                _ => segments[rng.index(segments.len())].to_string(),
            }
        };
        let mut matched = vec![0; pats.len()];
        for case in 0..20_000 {
            let p = &pats[case % pats.len()];
            let text = if rng.chance(0.5) {
                // The template rendered with captures that may be empty
                // or hold segments, then perhaps one piece more.
                let caps: Vec<String> = (0..p.captures())
                    .map(|_| (0..rng.below(3)).map(|_| piece(&mut rng)).collect())
                    .collect();
                let caps: Vec<&str> = caps.iter().map(String::as_str).collect();
                let mut text = p.render(&caps).unwrap();
                if rng.chance(0.3) {
                    text.push_str(&piece(&mut rng));
                }
                text
            } else {
                (0..rng.below(9)).map(|_| piece(&mut rng)).collect()
            };
            let want = reference_match(p, &text);
            assert_eq!(p.match_str(&text), want, "{:?} on {text:?}", p.segments);
            let got = [
                p.match_array::<0>(&text).map(|c| c.to_vec()),
                p.match_array::<1>(&text).map(|c| c.to_vec()),
                p.match_array::<2>(&text).map(|c| c.to_vec()),
                p.match_array::<3>(&text).map(|c| c.to_vec()),
                p.match_array::<4>(&text).map(|c| c.to_vec()),
            ];
            for (n, got) in got.into_iter().enumerate() {
                let want = want.clone().filter(|_| n == p.captures());
                assert_eq!(got, want, "{:?} on {text:?} into {n}", p.segments);
            }
            matched[case % pats.len()] += usize::from(want.is_some());
        }
        for (p, n) in pats.iter().zip(&matched) {
            assert!(*n > 200, "{:?} matched only {n} texts", p.segments);
        }
    }

    #[test]
    fn empty_pattern_matches_empty() {
        let p = Pat::new("").unwrap();
        assert_eq!(p.match_str(""), Some(vec![]));
        assert_eq!(p.match_str("x"), None);
    }
}
