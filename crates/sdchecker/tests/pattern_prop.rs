//! Seeded property tests for the declarative pattern table: for every
//! shape-based rule in [`sdchecker::schema`], rendering captures into
//! the template and matching the result back out recovers exactly the
//! same captures — including leading/trailing-capture and empty-capture
//! edges. Deterministic (in-repo RNG, fixed seeds), no external deps.

use sdchecker::pattern::Pat;
use sdchecker::schema::{patterns, MatchKind};
use simkit::SimRng;

const CASES: u64 = 200;

/// The pattern's captures of `text`, as many as it has.
fn captures<'t>(pat: &Pat, text: &'t str) -> Option<Vec<&'t str>> {
    let caps = pat.match_padded::<4>(text)?;
    Some(caps[..pat.captures()].to_vec())
}

/// Capture-safe alphabet: none of these characters can extend a literal
/// segment of any table template, so non-greedy matching cannot stop
/// early or late.
fn capture(rng: &mut SimRng, allow_empty: bool) -> String {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_";
    let lo = u64::from(!allow_empty);
    let len = rng.range(lo, 13);
    (0..len)
        .map(|_| ALPHABET[rng.index(ALPHABET.len())] as char)
        .collect()
}

/// Every template in the table round-trips `render ⇒ match ⇒ captures`
/// under random capture values.
#[test]
fn table_templates_round_trip() {
    for spec in patterns() {
        let Some(template) = spec.template() else {
            continue;
        };
        let pat = Pat::new(template).expect("table template must compile");
        for case in 0..CASES {
            let mut rng = SimRng::new(0xA11C_0000 + case).fork_named(spec.name);
            let caps: Vec<String> = (0..pat.captures())
                .map(|_| capture(&mut rng, false))
                .collect();
            let refs: Vec<&str> = caps.iter().map(String::as_str).collect();
            let text = pat.render(&refs).expect("arity matches by construction");
            let got = captures(&pat, &text);
            assert_eq!(
                got,
                Some(refs.clone()),
                "rule {} case {case}: {text:?}",
                spec.name
            );
        }
    }
}

/// Empty captures round-trip too: a hole filled with `""` still matches
/// and recovers the empty string (relevant to leading/trailing holes,
/// where the anchor is the text boundary itself).
#[test]
fn table_templates_round_trip_empty_captures() {
    for spec in patterns() {
        let Some(template) = spec.template() else {
            continue;
        };
        let pat = Pat::new(template).expect("table template must compile");
        for case in 0..CASES {
            let mut rng = SimRng::new(0xA11C_1000 + case).fork_named(spec.name);
            // Each capture is independently empty with probability 1/2.
            let caps: Vec<String> = (0..pat.captures())
                .map(|_| {
                    if rng.range(0, 2) == 0 {
                        String::new()
                    } else {
                        capture(&mut rng, false)
                    }
                })
                .collect();
            let refs: Vec<&str> = caps.iter().map(String::as_str).collect();
            let text = pat.render(&refs).expect("arity matches by construction");
            let got = captures(&pat, &text);
            assert_eq!(
                got,
                Some(refs.clone()),
                "rule {} case {case}: {text:?}",
                spec.name
            );
        }
    }
}

/// The leading/trailing edge in isolation: synthetic patterns with holes
/// hugging both ends behave identically to interior holes.
#[test]
fn leading_and_trailing_capture_round_trip() {
    let edge_patterns = ["{} tail", "head {}", "{} mid {}", "{}", "{} a {} b {}"];
    for (pi, pattern) in edge_patterns.iter().enumerate() {
        let pat = Pat::new(pattern).unwrap();
        for case in 0..CASES {
            let mut rng = SimRng::new(0xA11C_2000 + case + ((pi as u64) << 8));
            let caps: Vec<String> = (0..pat.captures())
                .map(|_| capture(&mut rng, true))
                .collect();
            let refs: Vec<&str> = caps.iter().map(String::as_str).collect();
            let text = pat.render(&refs).expect("arity matches by construction");
            assert_eq!(
                captures(&pat, &text),
                Some(refs.clone()),
                "pattern {pattern:?} case {case}: {text:?}"
            );
        }
    }
}

/// Sanity: the table's prefix rules fire on their own prefix text and
/// match what the emitters actually write.
#[test]
fn prefix_rules_fire_on_their_prefixes() {
    for spec in patterns() {
        let MatchKind::Prefix(prefix, _) = spec.kind else {
            continue;
        };
        assert!(
            spec.matches(spec.family, spec.class.unwrap_or("AnyClass"), prefix),
            "rule {} must match its own prefix",
            spec.name
        );
    }
}
