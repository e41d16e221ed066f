//! A mergeable fixed-size quantile sketch for fleet-scale delay
//! populations.
//!
//! [`QuantileSketch`] is a DDSketch-style log-bucketed histogram over
//! `u64` samples (milliseconds, in this workspace): bucket `k` covers the
//! geometric interval `(γ^(k-1), γ^k]` with `γ = (1+α)/(1−α)` for the
//! relative accuracy `α = 0.5 %`. That gives three properties the raw
//! [`Histogram`](crate::Histogram) lacks:
//!
//! * **bounded relative error** — any quantile estimate is within `α` of
//!   an actual sample value near that rank, independent of the value
//!   range, so p50/p95/p99 of scheduling delays from 1 ms to days stay
//!   within 1 % of the exact order statistics;
//! * **fixed size** — the bucket array never grows past
//!   [`QuantileSketch::BUCKETS`] entries no matter how many samples
//!   stream in, so a fleet of millions of applications aggregates in a
//!   few tens of kilobytes without retaining raw samples;
//! * **deterministic, order-independent merge** — [`merge`] is a
//!   bucket-wise sum plus min/max/count/sum folds, exactly like the
//!   sharded counter registry: any merge tree over any shard partition of
//!   the same sample multiset produces the same sketch, which is what
//!   lets worker pools stream observations and still export identical
//!   bytes for every thread count.
//!
//! [`merge`]: QuantileSketch::merge

/// Relative accuracy target: quantile estimates are within this fraction
/// of a true sample value at the queried rank.
pub(crate) const SKETCH_ALPHA: f64 = 0.005;

/// Version tag of the [`QuantileSketch::to_bytes`] wire format.
const SKETCH_WIRE_VERSION: u8 = 1;

/// A malformed [`QuantileSketch`] byte image. Decoding never panics: a
/// truncated, oversized, or internally inconsistent buffer surfaces
/// here so callers (checkpoint restore, for one) can degrade instead of
/// crash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SketchCodecError(String);

impl std::fmt::Display for SketchCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sketch decode: {}", self.0)
    }
}

impl std::error::Error for SketchCodecError {}

/// Little cursor over a byte buffer for [`QuantileSketch::from_bytes`].
struct SketchReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SketchReader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SketchCodecError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| SketchCodecError("truncated buffer".into()))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, SketchCodecError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, SketchCodecError> {
        let b = self.take(4)?;
        let mut a = [0u8; 4];
        a.copy_from_slice(b);
        Ok(u32::from_le_bytes(a))
    }

    fn u64(&mut self) -> Result<u64, SketchCodecError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }
}

/// One exemplar: a concrete labeled sample retained alongside the
/// aggregate, so a tail quantile can be traced back to the instance that
/// produced it (the app id, in this workspace).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exemplar {
    /// The sample value.
    pub value: u64,
    /// Caller-supplied identity of the sample's origin.
    pub label: String,
}

/// A mergeable, fixed-size quantile sketch over `u64` samples.
///
/// ```
/// use obs::QuantileSketch;
/// let mut a = QuantileSketch::new();
/// let mut b = QuantileSketch::new();
/// for v in 1..=500u64 {
///     a.observe(v);
/// }
/// for v in 501..=1000u64 {
///     b.observe(v);
/// }
/// a.merge(&b);
/// let p50 = a.quantile(0.5).unwrap();
/// assert!((p50 - 500.5).abs() / 500.5 < 0.01);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    /// Bucket counts: `counts[0]` is the exact-zero bucket, `counts[k]`
    /// (k ≥ 1) counts samples in `(γ^(k-2), γ^(k-1)]`, with the last
    /// bucket absorbing overflow. Allocated lazily on first observation.
    counts: Vec<u64>,
    /// Number of samples.
    count: u64,
    /// Sum of samples (for the mean).
    sum: u64,
    /// Exact minimum sample.
    min: u64,
    /// Exact maximum sample.
    max: u64,
    /// Largest labeled samples seen, sorted by `(value desc, label asc)`
    /// and truncated to [`QuantileSketch::EXEMPLAR_SLOTS`]. Kept as a
    /// pure function of the offered multiset, so observation and merge
    /// order never change which exemplars survive.
    exemplars: Vec<Exemplar>,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new()
    }
}

impl QuantileSketch {
    /// Fixed bucket-array size: one zero bucket plus enough log-spaced
    /// buckets to cover the whole `u64` range at [`SKETCH_ALPHA`]
    /// accuracy (`ln(2^64)/ln γ ≈ 4436`), rounded up.
    pub(crate) const BUCKETS: usize = 4440;

    /// Number of exemplar slots a sketch retains: the top samples by
    /// `(value desc, label asc)`.
    pub(crate) const EXEMPLAR_SLOTS: usize = 4;

    /// An empty sketch.
    pub const fn new() -> QuantileSketch {
        QuantileSketch {
            counts: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            exemplars: Vec::new(),
        }
    }

    fn ln_gamma() -> f64 {
        ((1.0 + SKETCH_ALPHA) / (1.0 - SKETCH_ALPHA)).ln()
    }

    /// Bucket index of a sample.
    fn key(v: u64) -> usize {
        if v == 0 {
            return 0;
        }
        // ceil(log_γ v), clamped into the fixed array; v = 1 maps to
        // bucket 1.
        let k = ((v as f64).ln() / Self::ln_gamma()).ceil() as i64;
        (1 + k.max(0) as usize).min(Self::BUCKETS - 1)
    }

    /// Representative value of a bucket: the geometric midpoint of its
    /// interval, within `α` of every sample the bucket holds.
    fn representative(key: usize) -> f64 {
        if key == 0 {
            return 0.0;
        }
        ((key as f64 - 1.5) * Self::ln_gamma()).exp()
    }

    /// Record one sample.
    pub fn observe(&mut self, v: u64) {
        if self.counts.is_empty() {
            self.counts = vec![0; Self::BUCKETS];
        }
        self.counts[Self::key(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Record one sample and offer it as an exemplar under `label`. The
    /// sample lands in the aggregate exactly as [`observe`] would put it
    /// there; the `(value, label)` pair additionally competes for the
    /// fixed exemplar slots.
    ///
    /// [`observe`]: QuantileSketch::observe
    pub fn observe_exemplar(&mut self, v: u64, label: &str) {
        self.observe(v);
        self.offer_exemplar(Exemplar {
            value: v,
            label: label.to_string(),
        });
    }

    /// Slot an exemplar candidate in: keep the top
    /// [`EXEMPLAR_SLOTS`](QuantileSketch::EXEMPLAR_SLOTS) of the offered
    /// multiset under `(value desc, label asc)`. Greedy top-K over a
    /// total order is order-independent, which keeps merged exports
    /// byte-identical for every shard partition.
    fn offer_exemplar(&mut self, e: Exemplar) {
        let pos = self
            .exemplars
            .partition_point(|x| x.value > e.value || (x.value == e.value && x.label < e.label));
        if pos >= Self::EXEMPLAR_SLOTS {
            return;
        }
        self.exemplars.insert(pos, e);
        self.exemplars.truncate(Self::EXEMPLAR_SLOTS);
    }

    /// The retained exemplars, best (largest value) first.
    pub fn exemplars(&self) -> &[Exemplar] {
        &self.exemplars
    }

    /// Fold another sketch in. Order-independent: any merge order over
    /// the same sample multiset yields an identical sketch.
    pub fn merge(&mut self, other: &QuantileSketch) {
        if other.count == 0 {
            return;
        }
        if self.counts.is_empty() {
            self.counts = vec![0; Self::BUCKETS];
        }
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for e in &other.exemplars {
            self.offer_exemplar(e.clone());
        }
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact minimum, `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact maximum, `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Arithmetic mean, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Bucket representative at a zero-based integer rank.
    fn value_at_rank(&self, rank: u64) -> f64 {
        let mut cum = 0u64;
        for (k, c) in self.counts.iter().enumerate() {
            cum += c;
            if cum > rank {
                return Self::representative(k);
            }
        }
        self.max as f64
    }

    /// Quantile estimate (`q` in `[0, 1]`), `None` when empty. Mirrors
    /// the linear interpolation of `percentile_sorted` on bucket
    /// representatives, with the exact min/max pinning the extremes.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        if q == 0.0 {
            return Some(self.min as f64);
        }
        if q == 1.0 || self.count == 1 {
            return Some(self.max as f64);
        }
        let pos = q * (self.count - 1) as f64;
        let lo = pos.floor() as u64;
        let hi = pos.ceil() as u64;
        let frac = pos - lo as f64;
        let vlo = self.value_at_rank(lo);
        let vhi = if hi == lo {
            vlo
        } else {
            self.value_at_rank(hi)
        };
        let v = vlo + (vhi - vlo) * frac;
        Some(v.clamp(self.min as f64, self.max as f64))
    }

    /// Serialize to a self-contained byte image (std-only, no external
    /// codec). The bucket array is written sparsely as `(index, count)`
    /// pairs — most of the 4440 buckets are zero in practice — so a
    /// typical fleet sketch is a few hundred bytes. The image is
    /// versioned; [`from_bytes`](QuantileSketch::from_bytes) rejects
    /// anything it cannot reproduce exactly.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.push(SKETCH_WIRE_VERSION);
        out.extend_from_slice(&self.count.to_le_bytes());
        out.extend_from_slice(&self.sum.to_le_bytes());
        out.extend_from_slice(&self.min.to_le_bytes());
        out.extend_from_slice(&self.max.to_le_bytes());
        out.extend_from_slice(&(self.exemplars.len() as u32).to_le_bytes());
        for e in &self.exemplars {
            out.extend_from_slice(&e.value.to_le_bytes());
            out.extend_from_slice(&(e.label.len() as u32).to_le_bytes());
            out.extend_from_slice(e.label.as_bytes());
        }
        let nonzero: Vec<(usize, u64)> = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(k, c)| (k, *c))
            .collect();
        out.extend_from_slice(&(nonzero.len() as u32).to_le_bytes());
        for (k, c) in nonzero {
            out.extend_from_slice(&(k as u32).to_le_bytes());
            out.extend_from_slice(&c.to_le_bytes());
        }
        out
    }

    /// Reconstruct a sketch from [`to_bytes`](QuantileSketch::to_bytes)
    /// output. Round-trips exactly: `from_bytes(s.to_bytes()) == s` for
    /// every reachable sketch, including the lazily-unallocated empty
    /// one. A damaged buffer yields an error, never a panic and never a
    /// silently wrong sketch.
    pub fn from_bytes(bytes: &[u8]) -> Result<QuantileSketch, SketchCodecError> {
        let mut r = SketchReader { buf: bytes, pos: 0 };
        let version = r.u8()?;
        if version != SKETCH_WIRE_VERSION {
            return Err(SketchCodecError(format!(
                "unsupported wire version {version}"
            )));
        }
        let count = r.u64()?;
        let sum = r.u64()?;
        let min = r.u64()?;
        let max = r.u64()?;
        let n_ex = r.u32()? as usize;
        if n_ex > Self::EXEMPLAR_SLOTS {
            return Err(SketchCodecError(format!("{n_ex} exemplars exceeds slots")));
        }
        let mut exemplars = Vec::with_capacity(n_ex);
        for _ in 0..n_ex {
            let value = r.u64()?;
            let len = r.u32()? as usize;
            let label = std::str::from_utf8(r.take(len)?)
                .map_err(|_| SketchCodecError("exemplar label is not UTF-8".into()))?
                .to_string();
            exemplars.push(Exemplar { value, label });
        }
        for w in exemplars.windows(2) {
            let ordered =
                w[0].value > w[1].value || (w[0].value == w[1].value && w[0].label < w[1].label);
            if !ordered {
                return Err(SketchCodecError("exemplars out of order".into()));
            }
        }
        let n_buckets = r.u32()? as usize;
        if n_buckets > Self::BUCKETS {
            return Err(SketchCodecError(format!(
                "{n_buckets} bucket entries exceeds {}",
                Self::BUCKETS
            )));
        }
        let mut counts = Vec::new();
        let mut bucket_total = 0u64;
        let mut prev_key: Option<usize> = None;
        for _ in 0..n_buckets {
            let k = r.u32()? as usize;
            let c = r.u64()?;
            if k >= Self::BUCKETS {
                return Err(SketchCodecError(format!("bucket index {k} out of range")));
            }
            if prev_key.is_some_and(|p| k <= p) {
                return Err(SketchCodecError("bucket indices not increasing".into()));
            }
            if c == 0 {
                return Err(SketchCodecError("zero bucket count encoded".into()));
            }
            prev_key = Some(k);
            if counts.is_empty() {
                counts = vec![0; Self::BUCKETS];
            }
            counts[k] = c;
            bucket_total = bucket_total
                .checked_add(c)
                .ok_or_else(|| SketchCodecError("bucket counts overflow".into()))?;
        }
        if bucket_total != count {
            return Err(SketchCodecError(format!(
                "bucket total {bucket_total} disagrees with count {count}"
            )));
        }
        if count == 0 && (min != u64::MAX || max != 0 || !exemplars.is_empty()) {
            return Err(SketchCodecError("non-canonical empty sketch".into()));
        }
        if count > 0 && min > max {
            return Err(SketchCodecError("min exceeds max".into()));
        }
        if r.pos != bytes.len() {
            return Err(SketchCodecError("trailing bytes".into()));
        }
        Ok(QuantileSketch {
            counts,
            count,
            sum,
            min,
            max,
            exemplars,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sketch_has_no_quantiles() {
        let s = QuantileSketch::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.mean(), None);
    }

    #[test]
    fn extremes_are_exact() {
        let mut s = QuantileSketch::new();
        for v in [7, 123, 99_000, 3] {
            s.observe(v);
        }
        assert_eq!(s.min(), Some(3));
        assert_eq!(s.max(), Some(99_000));
        assert_eq!(s.quantile(0.0), Some(3.0));
        assert_eq!(s.quantile(1.0), Some(99_000.0));
        assert_eq!(s.count(), 4);
        assert_eq!(s.sum(), 99_133);
    }

    #[test]
    fn quantiles_track_order_statistics_within_alpha() {
        // A 1..=10_000 grid: every quantile is known exactly.
        let mut s = QuantileSketch::new();
        for v in 1..=10_000u64 {
            s.observe(v);
        }
        for (q, want) in [
            (0.5, 5000.5),
            (0.9, 9000.1),
            (0.95, 9500.05),
            (0.99, 9900.01),
        ] {
            let got = s.quantile(q).unwrap();
            let rel = (got - want).abs() / want;
            assert!(rel < 0.01, "q={q}: got {got}, want {want}, rel {rel}");
        }
    }

    #[test]
    fn zero_values_have_their_own_bucket() {
        let mut s = QuantileSketch::new();
        for _ in 0..10 {
            s.observe(0);
        }
        s.observe(1000);
        assert_eq!(s.quantile(0.5), Some(0.0));
        assert_eq!(s.max(), Some(1000));
    }

    #[test]
    fn merge_is_order_independent_and_exactly_equal() {
        let vals: Vec<u64> = (0..500u64).map(|i| (i * 37 + 11) % 10_000).collect();
        let mut whole = QuantileSketch::new();
        for v in &vals {
            whole.observe(*v);
        }
        // Partition into 7 shards, merge in two different orders.
        let mut shards: Vec<QuantileSketch> = (0..7).map(|_| QuantileSketch::new()).collect();
        for (i, v) in vals.iter().enumerate() {
            shards[i % 7].observe(*v);
        }
        let mut fwd = QuantileSketch::new();
        for s in &shards {
            fwd.merge(s);
        }
        let mut rev = QuantileSketch::new();
        for s in shards.iter().rev() {
            rev.merge(s);
        }
        assert_eq!(fwd, rev, "merge order must not matter");
        assert_eq!(fwd, whole, "sharded merge must equal single-stream");
    }

    #[test]
    fn merging_empty_is_identity() {
        let mut s = QuantileSketch::new();
        s.observe(42);
        let before = s.clone();
        s.merge(&QuantileSketch::new());
        assert_eq!(s, before);
        let mut e = QuantileSketch::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn exemplars_keep_the_top_slots_in_any_order() {
        let offers: Vec<(u64, String)> = (0..40u64)
            .map(|i| ((i * 31) % 100, format!("app_{i:02}")))
            .collect();
        let mut fwd = QuantileSketch::new();
        for (v, l) in &offers {
            fwd.observe_exemplar(*v, l);
        }
        let mut rev = QuantileSketch::new();
        for (v, l) in offers.iter().rev() {
            rev.observe_exemplar(*v, l);
        }
        assert_eq!(fwd, rev, "exemplar retention must be order-independent");
        assert_eq!(fwd.exemplars().len(), QuantileSketch::EXEMPLAR_SLOTS);
        // The retained set is exactly the top-K of the offered multiset.
        let mut sorted = offers.clone();
        sorted.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        for (slot, (v, l)) in fwd.exemplars().iter().zip(sorted.iter()) {
            assert_eq!((slot.value, slot.label.as_str()), (*v, l.as_str()));
        }
        // Values are non-increasing, ties broken by label.
        for w in fwd.exemplars().windows(2) {
            assert!(w[0].value >= w[1].value);
        }
    }

    #[test]
    fn exemplars_merge_like_observations() {
        let offers: Vec<(u64, String)> =
            (0..30u64).map(|i| (i * 7 % 50, format!("a{i}"))).collect();
        let mut whole = QuantileSketch::new();
        for (v, l) in &offers {
            whole.observe_exemplar(*v, l);
        }
        let mut shards: Vec<QuantileSketch> = (0..3).map(|_| QuantileSketch::new()).collect();
        for (i, (v, l)) in offers.iter().enumerate() {
            shards[i % 3].observe_exemplar(*v, l);
        }
        let mut merged = QuantileSketch::new();
        for s in shards.iter().rev() {
            merged.merge(s);
        }
        assert_eq!(merged, whole, "sharded exemplars must equal single-stream");
    }

    #[test]
    fn plain_observe_keeps_exemplars_empty() {
        let mut s = QuantileSketch::new();
        s.observe(5);
        s.observe(10);
        assert!(s.exemplars().is_empty());
    }

    #[test]
    fn byte_round_trip_is_exact() {
        let mut s = QuantileSketch::new();
        for v in [0, 1, 7, 123, 99_000, u64::MAX] {
            s.observe(v);
        }
        s.observe_exemplar(5_000, "application_1_0001");
        s.observe_exemplar(9_000, "application_1_0002");
        let back = QuantileSketch::from_bytes(&s.to_bytes()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn empty_sketch_round_trips_to_canonical_empty() {
        let s = QuantileSketch::new();
        let back = QuantileSketch::from_bytes(&s.to_bytes()).unwrap();
        assert_eq!(back, s);
        // The lazily-unallocated bucket array is preserved, so equality
        // with a fresh sketch (not just value equality) holds.
        assert_eq!(back, QuantileSketch::new());
    }

    #[test]
    fn damaged_buffers_error_instead_of_panicking() {
        let mut s = QuantileSketch::new();
        for v in [3, 9, 81, 6561] {
            s.observe_exemplar(v, "x");
        }
        let good = s.to_bytes();
        assert!(QuantileSketch::from_bytes(&[]).is_err(), "empty buffer");
        for cut in 1..good.len() {
            assert!(
                QuantileSketch::from_bytes(&good[..cut]).is_err(),
                "truncation at {cut} must not decode"
            );
        }
        let mut version = good.clone();
        version[0] = 99;
        assert!(QuantileSketch::from_bytes(&version).is_err(), "bad version");
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(
            QuantileSketch::from_bytes(&trailing).is_err(),
            "trailing bytes"
        );
        // Flip the stored count so it disagrees with the bucket totals.
        let mut skew = good.clone();
        skew[1] ^= 0xff;
        assert!(
            QuantileSketch::from_bytes(&skew).is_err(),
            "count/bucket disagreement"
        );
    }

    #[test]
    fn huge_values_clamp_into_overflow_bucket() {
        let mut s = QuantileSketch::new();
        s.observe(u64::MAX);
        s.observe(u64::MAX - 1);
        assert_eq!(s.count(), 2);
        assert_eq!(s.quantile(1.0), Some(u64::MAX as f64));
        // Estimates stay finite and clamped to the observed range.
        let q = s.quantile(0.5).unwrap();
        assert!(q.is_finite() && q <= u64::MAX as f64);
    }
}
