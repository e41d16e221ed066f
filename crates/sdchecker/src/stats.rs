//! Summary statistics and CDFs for delay populations — the machinery
//! behind every figure's "median / 95th percentile / standard deviation"
//! and CDF panel.

/// Summary statistics of a sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation (the paper reports std-dev bars,
    /// Fig 4-(c)).
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Median (p50).
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 95th percentile (the paper's tail-latency headline).
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Compute a summary; returns `None` for an empty sample.
    pub fn from(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = values.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let n = sorted.len();
        let mean = sorted.iter().sum::<f64>() / n as f64;
        let var = sorted.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
        Some(Summary {
            n,
            mean,
            std_dev: var.sqrt(),
            min: sorted[0],
            p50: percentile_sorted(&sorted, 0.50),
            p90: percentile_sorted(&sorted, 0.90),
            p95: percentile_sorted(&sorted, 0.95),
            p99: percentile_sorted(&sorted, 0.99),
            max: sorted[n - 1],
        })
    }

    /// Summary of millisecond samples, expressed in seconds.
    pub fn from_ms(values_ms: &[u64]) -> Option<Summary> {
        let secs: Vec<f64> = values_ms.iter().map(|v| *v as f64 / 1000.0).collect();
        Summary::from(&secs)
    }
}

/// Percentile by linear interpolation on a pre-sorted sample
/// (`q` in `[0, 1]`).
pub(crate) fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty() && (0.0..=1.0).contains(&q));
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Percentile of an unsorted sample.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    Some(percentile_sorted(&sorted, q))
}

/// An empirical CDF.
#[derive(Debug, Clone)]
pub struct Cdf {
    /// Sorted sample values.
    pub values: Vec<f64>,
}

impl Cdf {
    /// Build from a sample.
    pub fn from(values: &[f64]) -> Cdf {
        let mut v = values.to_vec();
        v.sort_by(|a, b| a.total_cmp(b));
        Cdf { values: v }
    }

    /// Build from millisecond samples, stored in seconds.
    pub fn from_ms(values_ms: &[u64]) -> Cdf {
        Cdf::from(
            &values_ms
                .iter()
                .map(|v| *v as f64 / 1000.0)
                .collect::<Vec<_>>(),
        )
    }

    /// Sample size.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Empty?
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// P(X ≤ x).
    pub fn at(&self, x: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let idx = self.values.partition_point(|v| *v <= x);
        idx as f64 / self.values.len() as f64
    }

    /// Inverse CDF (quantile).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.values.is_empty() {
            None
        } else {
            Some(percentile_sorted(&self.values, q))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::from(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.n, 5);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.p50, 3.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert!((s.std_dev - std::f64::consts::SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn empty_sample_is_none() {
        assert!(Summary::from(&[]).is_none());
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_interpolates() {
        let sorted = [0.0, 10.0];
        assert_eq!(percentile_sorted(&sorted, 0.0), 0.0);
        assert_eq!(percentile_sorted(&sorted, 0.5), 5.0);
        assert_eq!(percentile_sorted(&sorted, 1.0), 10.0);
        assert_eq!(percentile_sorted(&[7.0], 0.3), 7.0);
    }

    #[test]
    fn p95_of_uniform_grid() {
        let v: Vec<f64> = (0..=100).map(|i| i as f64).collect();
        let s = Summary::from(&v).unwrap();
        assert_eq!(s.p95, 95.0);
        assert_eq!(s.p99, 99.0);
        assert_eq!(s.p90, 90.0);
    }

    #[test]
    fn from_ms_converts_to_seconds() {
        let s = Summary::from_ms(&[1000, 2000, 3000]).unwrap();
        assert_eq!(s.p50, 2.0);
        assert_eq!(s.mean, 2.0);
    }

    #[test]
    fn cdf_at_and_quantile_agree() {
        let c = Cdf::from(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(c.at(0.5), 0.0);
        assert_eq!(c.at(2.0), 0.5);
        assert_eq!(c.at(10.0), 1.0);
        assert_eq!(c.quantile(1.0), Some(4.0));
        assert_eq!(c.len(), 4);
        assert!(!c.is_empty());
    }

    #[test]
    fn cdf_empty() {
        let c = Cdf::from(&[]);
        assert!(c.is_empty());
        assert_eq!(c.at(1.0), 0.0);
        assert_eq!(c.quantile(0.5), None);
    }
}
