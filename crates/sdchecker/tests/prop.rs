//! Property-based tests for SDchecker's parsing and statistics layers.
//!
//! The properties run as seeded randomized loops over `simkit::SimRng`
//! (the workspace is dependency-free, so there is no proptest): every case
//! is deterministic per seed, and failures print the case number so a run
//! can be replayed by fixing the loop index.

use sdchecker::{Cdf, Pat, Summary};
use simkit::SimRng;

const CASES: u64 = 256;

fn alpha(rng: &mut SimRng, len_lo: u64, len_hi: u64) -> String {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ ";
    let len = rng.range(len_lo, len_hi);
    (0..len)
        .map(|_| ALPHABET[rng.index(ALPHABET.len())] as char)
        .collect()
}

fn digits(rng: &mut SimRng, len_lo: u64, len_hi: u64) -> String {
    const ALPHABET: &[u8] = b"0123456789_";
    let len = rng.range(len_lo, len_hi);
    (0..len)
        .map(|_| ALPHABET[rng.index(ALPHABET.len())] as char)
        .collect()
}

/// A pattern built as literal/hole/literal/hole/... always matches the
/// string assembled from the same pieces and recovers the captures.
#[test]
fn pattern_recovers_captures() {
    for case in 0..CASES {
        let mut rng = SimRng::new(0x5D00 + case);
        // Captures are digits/underscores and literals are letters/spaces,
        // so a capture can never swallow a literal boundary.
        let ncaps = rng.range(1, 4) as usize;
        let caps: Vec<String> = (0..ncaps).map(|_| digits(&mut rng, 1, 13)).collect();
        let lits: Vec<String> = (0..=ncaps).map(|_| alpha(&mut rng, 1, 11)).collect();
        let mut pattern = String::new();
        let mut text = String::new();
        for (i, lit) in lits.iter().enumerate() {
            pattern.push_str(lit);
            text.push_str(lit);
            if i < caps.len() {
                pattern.push_str("{}");
                text.push_str(&caps[i]);
            }
        }
        let pat = Pat::new(&pattern).unwrap();
        let mut want = [""; 3];
        for (slot, cap) in want.iter_mut().zip(&caps) {
            *slot = cap;
        }
        assert_eq!(
            pat.match_padded::<3>(&text),
            Some(want),
            "case {case}: pattern {pattern:?} text {text:?}"
        );
    }
}

/// Summary statistics are order-invariant and internally consistent.
#[test]
fn summary_is_consistent() {
    for case in 0..CASES {
        let mut rng = SimRng::new(0x5D01 + case);
        let n = rng.range(1, 200) as usize;
        let mut values: Vec<f64> = (0..n).map(|_| rng.range_f64(0.0, 1e7)).collect();
        let s1 = Summary::from(&values).unwrap();
        values.reverse();
        let s2 = Summary::from(&values).unwrap();
        assert_eq!(s1, s2, "case {case}");
        assert!(s1.min <= s1.p50 && s1.p50 <= s1.p90, "case {case}");
        assert!(
            s1.p90 <= s1.p95 && s1.p95 <= s1.p99 && s1.p99 <= s1.max,
            "case {case}"
        );
        assert!(s1.min <= s1.mean && s1.mean <= s1.max, "case {case}");
        assert!(s1.std_dev >= 0.0, "case {case}");
    }
}

/// CDF: `at` is a nondecreasing step function from 0 to 1, and
/// quantile/at are approximate inverses.
#[test]
fn cdf_monotone_and_bounded() {
    for case in 0..CASES {
        let mut rng = SimRng::new(0x5D02 + case);
        let n = rng.range(1, 100) as usize;
        let values: Vec<f64> = (0..n).map(|_| rng.range_f64(0.0, 1e6)).collect();
        let cdf = Cdf::from(&values);
        assert_eq!(cdf.at(-1.0), 0.0, "case {case}");
        assert_eq!(cdf.at(1e9), 1.0, "case {case}");
        let mut prev = 0.0;
        for x in [0.0, 1.0, 10.0, 100.0, 1e3, 1e5, 1e6] {
            let y = cdf.at(x);
            assert!(y >= prev, "case {case}: at({x}) regressed");
            prev = y;
        }
        // Quantiles are within the sample range and monotone.
        let q25 = cdf.quantile(0.25).unwrap();
        let q75 = cdf.quantile(0.75).unwrap();
        assert!(q25 <= q75, "case {case}");
        let (min, max) = values
            .iter()
            .fold((f64::MAX, f64::MIN), |(a, b), v| (a.min(*v), b.max(*v)));
        assert!(q25 >= min && q75 <= max, "case {case}");
    }
}
