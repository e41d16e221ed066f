//! Sample statistics: medians, the "tail" percentile chooser, and the
//! quartile spread the benchmark's acceptance rule is written in.

/// Sort a sample ascending (total order; the harness never produces NaN).
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

/// Median of a non-empty sample (mean of the two middle values when the
/// count is even).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let s = sorted(xs.to_vec());
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0..=1) of a non-empty sample.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty sample");
    let s = sorted(xs.to_vec());
    let rank = (p * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// 1-based rank, in the sorted sample, of the value reported as a
/// workload's "tail": the `cap` percentile, lowered until at least
/// [`TAIL_BEYOND`] samples lie beyond it, and never below the median (a
/// sample of 20 or fewer has no tail to speak of).
pub fn tail_rank(n: usize, cap: f64) -> usize {
    assert!(n > 0, "tail of an empty sample");
    let median_rank = n.div_ceil(2);
    if n <= 2 * TAIL_BEYOND {
        return median_rank;
    }
    let cap_rank = (cap * n as f64).ceil() as usize;
    cap_rank.min(n - TAIL_BEYOND).max(median_rank)
}

/// The tail value of a sample under [`tail_rank`].
pub fn tail(xs: &[f64], cap: f64) -> f64 {
    sorted(xs.to_vec())[tail_rank(xs.len(), cap) - 1]
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// (the default "exclusive" method) gives them — the acceptance rule
/// measures a metric's spread as `(q3 - q1) / median` over ten runs.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(xs.len() >= 2, "quartiles need two samples");
    let s = sorted(xs.to_vec());
    let n = s.len();
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median.
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    let m = median(xs);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.95), 95.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        // Too few samples: the tail degrades to the median.
        assert_eq!(tail_rank(5, 0.75), 3);
        assert_eq!(tail_rank(20, 0.75), 10);
        // 25 reps support p60, 40 reps reach the p75 cap, 2000 probes p95.
        assert_eq!(tail_rank(25, 0.75), 15);
        assert_eq!(tail_rank(40, 0.75), 30);
        assert_eq!(tail_rank(2000, 0.95), 1900);
        for n in 21..400 {
            for cap in [0.6, 0.75, 0.95] {
                let rank = tail_rank(n, cap);
                assert!(n - rank >= TAIL_BEYOND, "n={n} cap={cap} rank={rank}");
                assert!(rank >= n.div_ceil(2));
            }
        }
        let xs: Vec<f64> = (1..=30).rev().map(f64::from).collect();
        assert_eq!(tail(&xs, 0.75), 20.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        assert_eq!(spread(&xs), 1.0);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }
}
