//! Metric identities and aggregated snapshots.
//!
//! A metric is identified by a static name plus an ordered list of
//! `(label, value)` pairs — the Prometheus data model, kept deliberately
//! tiny. All aggregation is order-independent (counters sum, max-gauges
//! max, set-gauges resolve by a global write stamp, histogram buckets
//! sum), which is what makes totals deterministic for any worker-thread
//! count even though which shard recorded what is not.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::sketch::QuantileSketch;

/// A metric identity: name plus ordered labels.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricKey {
    /// Metric name (Prometheus-style snake case).
    pub name: &'static str,
    /// Ordered `(label, value)` pairs. Call sites must use one label
    /// order per name for keys to aggregate.
    pub labels: Vec<(&'static str, String)>,
}

impl MetricKey {
    /// Key with no labels.
    pub fn plain(name: &'static str) -> MetricKey {
        MetricKey {
            name,
            labels: Vec::new(),
        }
    }

    /// Key with labels (values are copied).
    pub fn labeled(name: &'static str, labels: &[(&'static str, &str)]) -> MetricKey {
        MetricKey {
            name,
            labels: labels.iter().map(|(k, v)| (*k, v.to_string())).collect(),
        }
    }

    /// Render as `name` or `name{k="v",...}` (the Prometheus exposition
    /// identity, also used as the JSON object key).
    pub fn render(&self) -> String {
        if self.labels.is_empty() {
            return self.name.to_string();
        }
        let mut out = String::from(self.name);
        out.push('{');
        for (i, (k, v)) in self.labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{k}=\"{}\"", crate::json::escape(v));
        }
        out.push('}');
        out
    }
}

/// A fixed-bucket histogram: `counts[i]` counts observations `<=
/// bounds[i]`, with one overflow bucket at the end (`counts.len() ==
/// bounds.len() + 1`).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Upper bucket bounds, ascending.
    pub bounds: &'static [u64],
    /// Per-bucket observation counts (last = overflow).
    pub counts: Vec<u64>,
    /// Sum of all observed values.
    pub sum: u64,
    /// Number of observations.
    pub count: u64,
}

impl Histogram {
    pub(crate) fn new(bounds: &'static [u64]) -> Histogram {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds ascending");
        Histogram {
            bounds,
            counts: vec![0; bounds.len() + 1],
            sum: 0,
            count: 0,
        }
    }

    pub(crate) fn observe(&mut self, v: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|b| v <= *b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += v;
        self.count += 1;
    }

    pub(crate) fn merge(&mut self, other: &Histogram) {
        debug_assert_eq!(self.bounds, other.bounds, "histogram bounds must match");
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.sum += other.sum;
        self.count += other.count;
    }
}

/// One completed span, ready for trace export.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Static span name (dynamic detail goes in `args`).
    pub name: &'static str,
    /// Logical thread id (assigned in first-use order).
    pub tid: u64,
    /// Start offset from the recorder's enable-time anchor, microseconds.
    pub start_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
    /// Free-form `(key, value)` annotations.
    pub args: Vec<(&'static str, String)>,
}

/// An aggregated, immutable view of everything a recorder captured.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Monotonic counters (summed across shards).
    pub counters: BTreeMap<MetricKey, u64>,
    /// Gauges: max-gauges keep the maximum, set-gauges the latest write.
    pub gauges: BTreeMap<MetricKey, f64>,
    /// Fixed-bucket histograms (bucket-wise summed).
    pub histograms: BTreeMap<MetricKey, Histogram>,
    /// Quantile sketches (bucket-wise summed, order-independent).
    pub sketches: BTreeMap<MetricKey, QuantileSketch>,
    /// All completed spans, sorted by `(start_us, tid, name)`.
    pub spans: Vec<SpanRecord>,
    /// `(tid, thread name)` for every thread that recorded anything.
    pub threads: Vec<(u64, String)>,
}

impl Snapshot {
    /// Counter value, 0 when absent.
    pub fn counter(&self, name: &'static str) -> u64 {
        self.counters
            .get(&MetricKey::plain(name))
            .copied()
            .unwrap_or(0)
    }

    /// Labeled counter value, 0 when absent.
    pub fn counter_labeled(&self, name: &'static str, labels: &[(&'static str, &str)]) -> u64 {
        self.counters
            .get(&MetricKey::labeled(name, labels))
            .copied()
            .unwrap_or(0)
    }

    /// Gauge value, if present.
    pub fn gauge(&self, name: &'static str) -> Option<f64> {
        self.gauges.get(&MetricKey::plain(name)).copied()
    }

    /// Quantile sketch for a plain key, if present.
    pub fn sketch(&self, name: &'static str) -> Option<&QuantileSketch> {
        self.sketches.get(&MetricKey::plain(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_renders_prometheus_identity() {
        assert_eq!(MetricKey::plain("x_total").render(), "x_total");
        let k = MetricKey::labeled("ev", &[("kind", "A"), ("src", "rm")]);
        assert_eq!(k.render(), "ev{kind=\"A\",src=\"rm\"}");
    }

    #[test]
    fn histogram_buckets_and_merge() {
        const B: &[u64] = &[10, 100];
        let mut h = Histogram::new(B);
        for v in [1, 10, 11, 1000] {
            h.observe(v);
        }
        assert_eq!(h.counts, vec![2, 1, 1]);
        assert_eq!((h.sum, h.count), (1022, 4));
        let mut h2 = Histogram::new(B);
        h2.observe(5);
        h2.merge(&h);
        assert_eq!(h2.counts, vec![3, 1, 1]);
        assert_eq!(h2.count, 5);
    }
}
