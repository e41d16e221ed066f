//! The recorder: spans, counters, gauges, histograms.
//!
//! Everything funnels through a [`Recorder`]. Disabled (the default) every
//! operation is a single relaxed atomic load and an early return — no
//! timestamps are taken, no strings formatted, no locks touched — so
//! instrumented hot paths cost nothing measurable when observability is
//! off. Enabled, every operation is one map update or push under the one
//! registry lock. No writer records per line: the pipeline flushes per
//! file, per stream, per poll or per retirement, so the lock is taken a
//! handful of times per file (DESIGN.md § Observability has the counts).
//!
//! [`Recorder::snapshot`] copies the registry under the same lock, so a
//! snapshot is a consistent cut, and counter and histogram totals are
//! identical for any thread count, which is what lets tests assert exact
//! metric values.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use crate::metrics::{Histogram, MetricKey, Snapshot, SpanRecord};
use crate::sketch::QuantileSketch;

/// Everything a recorder holds, under its one lock.
struct State {
    counters: BTreeMap<MetricKey, u64>,
    gauges_max: BTreeMap<MetricKey, f64>,
    gauges_set: BTreeMap<MetricKey, f64>,
    histograms: BTreeMap<MetricKey, Histogram>,
    sketches: BTreeMap<MetricKey, QuantileSketch>,
    spans: Vec<SpanRecord>,
    /// `(tid, name)` of every thread that started a span, in tid order.
    threads: Vec<(u64, String)>,
    /// The trace clock's zero, set by the first [`Recorder::enable`].
    anchor: Option<Instant>,
}

thread_local! {
    /// `(recorder identity, logical tid)` for the recorder this thread
    /// last started a span on. Worker threads are short-lived
    /// (`thread::scope`), so registration happens on first use per thread.
    static THREAD_TID: Cell<Option<(usize, u64)>> = const { Cell::new(None) };
}

/// A span/metric recorder. See the module docs for the design.
pub struct Recorder {
    enabled: AtomicBool,
    state: Mutex<State>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// A disabled, empty recorder (usable in `static` position).
    pub const fn new() -> Recorder {
        Recorder {
            enabled: AtomicBool::new(false),
            state: Mutex::new(State {
                counters: BTreeMap::new(),
                gauges_max: BTreeMap::new(),
                gauges_set: BTreeMap::new(),
                histograms: BTreeMap::new(),
                sketches: BTreeMap::new(),
                spans: Vec::new(),
                threads: Vec::new(),
                anchor: None,
            }),
        }
    }

    /// The registry. Every update under the lock is one insert, add or
    /// push, so a writer that panicked there left it consistent: poisoning
    /// is recovered from.
    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Turn recording on. The first enable anchors the trace clock; span
    /// timestamps are offsets from this instant.
    pub fn enable(&self) {
        self.state().anchor.get_or_insert_with(Instant::now);
        self.enabled.store(true, Ordering::SeqCst);
    }

    /// Whether recording is on. This is the only cost instrumentation
    /// pays when observability is disabled.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// The logical thread id of the calling thread, registering it (and
    /// its display name) on its first span.
    fn tid(&self) -> u64 {
        let me = self as *const Recorder as usize;
        if let Some((owner, tid)) = THREAD_TID.with(|c| c.get()) {
            if owner == me {
                return tid;
            }
        }
        let mut st = self.state();
        let tid = st.threads.len() as u64;
        let name = std::thread::current()
            .name()
            .map(str::to_string)
            .unwrap_or_else(|| format!("worker-{tid}"));
        st.threads.push((tid, name));
        THREAD_TID.with(|c| c.set(Some((me, tid))));
        tid
    }

    /// Start a wall-clock span. The returned guard records a trace event
    /// on drop; guards nest naturally (RAII), giving the hierarchical
    /// span tree per thread. A no-op when disabled.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.is_enabled() {
            return SpanGuard { inner: None };
        }
        SpanGuard {
            inner: Some(SpanInner {
                rec: self,
                name,
                tid: self.tid(),
                start: Instant::now(),
                args: Vec::new(),
            }),
        }
    }

    /// Add `n` to an unlabeled counter.
    #[inline]
    pub fn count(&self, name: &'static str, n: u64) {
        if !self.is_enabled() {
            return;
        }
        self.count_key(MetricKey::plain(name), n);
    }

    /// Add `n` to a labeled counter.
    #[inline]
    pub fn count_labeled(&self, name: &'static str, labels: &[(&'static str, &str)], n: u64) {
        if !self.is_enabled() {
            return;
        }
        self.count_key(MetricKey::labeled(name, labels), n);
    }

    fn count_key(&self, key: MetricKey, n: u64) {
        *self.state().counters.entry(key).or_insert(0) += n;
    }

    /// Raise a high-water-mark gauge to at least `v`.
    pub fn gauge_max(&self, name: &'static str, v: f64) {
        if !self.is_enabled() {
            return;
        }
        let mut st = self.state();
        let slot = st.gauges_max.entry(MetricKey::plain(name)).or_insert(v);
        if v > *slot {
            *slot = v;
        }
    }

    /// Set a gauge. Concurrent setters resolve by lock order: the last
    /// writer to take the registry lock wins.
    pub fn gauge_set(&self, name: &'static str, v: f64) {
        if !self.is_enabled() {
            return;
        }
        self.state().gauges_set.insert(MetricKey::plain(name), v);
    }

    /// Observe `v` into a fixed-bucket histogram. All observation sites
    /// of one metric must pass the same `bounds`.
    pub fn observe(&self, name: &'static str, bounds: &'static [u64], v: u64) {
        if !self.is_enabled() {
            return;
        }
        self.observe_key(MetricKey::plain(name), bounds, v);
    }

    /// Observe `v` into a labeled fixed-bucket histogram. Every label
    /// set of one metric must pass the same `bounds`.
    pub fn observe_labeled(
        &self,
        name: &'static str,
        labels: &[(&'static str, &str)],
        bounds: &'static [u64],
        v: u64,
    ) {
        if !self.is_enabled() {
            return;
        }
        self.observe_key(MetricKey::labeled(name, labels), bounds, v);
    }

    fn observe_key(&self, key: MetricKey, bounds: &'static [u64], v: u64) {
        self.state()
            .histograms
            .entry(key)
            .or_insert_with(|| Histogram::new(bounds))
            .observe(v);
    }

    /// Observe `v` into an unbounded-range quantile sketch. Unlike
    /// [`Recorder::observe`], no bucket bounds are needed: the sketch
    /// covers the whole `u64` range at a fixed relative accuracy.
    pub fn sketch_observe(&self, name: &'static str, v: u64) {
        if !self.is_enabled() {
            return;
        }
        self.sketch_key(MetricKey::plain(name), v);
    }

    /// Observe `v` into a labeled quantile sketch.
    pub fn sketch_observe_labeled(
        &self,
        name: &'static str,
        labels: &[(&'static str, &str)],
        v: u64,
    ) {
        if !self.is_enabled() {
            return;
        }
        self.sketch_key(MetricKey::labeled(name, labels), v);
    }

    fn sketch_key(&self, key: MetricKey, v: u64) {
        self.state().sketches.entry(key).or_default().observe(v);
    }

    /// Copy the registry into one immutable snapshot. Counter, histogram,
    /// and gauge values are independent of which thread recorded what;
    /// only span timings and thread ids vary run to run.
    pub fn snapshot(&self) -> Snapshot {
        let st = self.state();
        let mut gauges = st.gauges_max.clone();
        for (k, v) in &st.gauges_set {
            debug_assert!(
                !gauges.contains_key(k),
                "gauge {} used both as set and max",
                k.render()
            );
            gauges.insert(k.clone(), *v);
        }
        let mut snap = Snapshot {
            counters: st.counters.clone(),
            gauges,
            histograms: st.histograms.clone(),
            sketches: st.sketches.clone(),
            spans: st.spans.clone(),
            threads: st.threads.clone(),
        };
        drop(st);
        snap.spans
            .sort_by(|a, b| (a.start_us, a.tid, a.name).cmp(&(b.start_us, b.tid, b.name)));
        snap.threads.sort();
        snap
    }
}

struct SpanInner<'r> {
    rec: &'r Recorder,
    name: &'static str,
    tid: u64,
    start: Instant,
    args: Vec<(&'static str, String)>,
}

/// RAII guard for an in-flight span; records a trace event when dropped.
#[must_use = "a span measures the scope it lives in; dropping it immediately records nothing"]
pub struct SpanGuard<'r> {
    inner: Option<SpanInner<'r>>,
}

impl SpanGuard<'_> {
    /// Attach a `(key, value)` annotation. Formats only when the span is
    /// live (i.e. the recorder was enabled at span start).
    pub fn arg(mut self, key: &'static str, value: impl std::fmt::Display) -> Self {
        if let Some(inner) = self.inner.as_mut() {
            inner.args.push((key, value.to_string()));
        }
        self
    }

    /// Whether this span is actually recording.
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let end = Instant::now();
        let dur_us = end.saturating_duration_since(inner.start).as_micros() as u64;
        let mut st = inner.rec.state();
        let start_us = st.anchor.map_or(0, |a| {
            inner.start.saturating_duration_since(a).as_micros() as u64
        });
        st.spans.push(SpanRecord {
            name: inner.name,
            tid: inner.tid,
            start_us,
            dur_us,
            args: inner.args,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = Recorder::new();
        r.count("c_total", 5);
        r.gauge_set("g", 1.0);
        r.observe("h", &[10], 3);
        {
            let _s = r.span("s").arg("k", "v");
        }
        let snap = r.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
        assert!(snap.spans.is_empty());
    }

    #[test]
    fn counters_sum_across_threads_deterministically() {
        let r = Recorder::new();
        r.enable();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        r.count("n_total", 1);
                        r.count_labeled("k_total", &[("kind", "a")], 2);
                    }
                });
            }
        });
        let snap = r.snapshot();
        assert_eq!(snap.counter("n_total"), 8000);
        assert_eq!(snap.counter_labeled("k_total", &[("kind", "a")]), 16_000);
    }

    #[test]
    fn gauges_max_and_set_semantics() {
        let r = Recorder::new();
        r.enable();
        r.gauge_max("hwm", 3.0);
        r.gauge_max("hwm", 9.0);
        r.gauge_max("hwm", 5.0);
        r.gauge_set("last", 1.0);
        r.gauge_set("last", 2.5);
        let snap = r.snapshot();
        assert_eq!(snap.gauge("hwm"), Some(9.0));
        assert_eq!(snap.gauge("last"), Some(2.5));
    }

    #[test]
    fn histograms_merge_across_threads() {
        const B: &[u64] = &[10, 100];
        let r = Recorder::new();
        r.enable();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for v in [1, 50, 500] {
                        r.observe("h", B, v);
                    }
                });
            }
        });
        let h = r
            .snapshot()
            .histograms
            .get(&MetricKey::plain("h"))
            .cloned()
            .unwrap();
        assert_eq!(h.counts, vec![4, 4, 4]);
        assert_eq!(h.count, 12);
        assert_eq!(h.sum, 4 * 551);
    }

    #[test]
    fn sketches_merge_across_threads_deterministically() {
        let single = {
            let r = Recorder::new();
            r.enable();
            for v in 0..800u64 {
                r.sketch_observe_labeled("delay_ms", &[("component", "total")], (v * 13) % 5000);
            }
            r.snapshot()
                .sketches
                .get(&MetricKey::labeled("delay_ms", &[("component", "total")]))
                .cloned()
                .unwrap()
        };
        let threaded = {
            let r = Recorder::new();
            r.enable();
            let rr = &r;
            std::thread::scope(|s| {
                for t in 0..8u64 {
                    s.spawn(move || {
                        for i in 0..100u64 {
                            let v = ((t * 100 + i) * 13) % 5000;
                            rr.sketch_observe_labeled("delay_ms", &[("component", "total")], v);
                        }
                    });
                }
            });
            r.snapshot()
                .sketches
                .get(&MetricKey::labeled("delay_ms", &[("component", "total")]))
                .cloned()
                .unwrap()
        };
        assert_eq!(
            single, threaded,
            "sketch must not depend on the thread count"
        );
        assert_eq!(single.count(), 800);
    }

    #[test]
    fn spans_nest_and_carry_args() {
        let r = Recorder::new();
        r.enable();
        {
            let _outer = r.span("outer").arg("x", 1);
            {
                let _inner = r.span("inner");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        let snap = r.snapshot();
        assert_eq!(snap.spans.len(), 2);
        let outer = snap.spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = snap.spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(outer.args, vec![("x", "1".to_string())]);
        assert_eq!(outer.tid, inner.tid);
        // Proper containment: inner starts no earlier and ends no later.
        assert!(inner.start_us >= outer.start_us);
        assert!(inner.start_us + inner.dur_us <= outer.start_us + outer.dur_us);
    }

    #[test]
    fn threads_are_registered_with_names() {
        let r = Recorder::new();
        r.enable();
        r.count("c_total", 1);
        assert!(r.snapshot().threads.is_empty(), "a counter needs no tid");
        std::thread::scope(|s| {
            std::thread::Builder::new()
                .name("lane".into())
                .spawn_scoped(s, || drop(r.span("s")))
                .unwrap();
        });
        drop(r.span("s"));
        let snap = r.snapshot();
        assert_eq!(snap.threads.len(), 2);
        assert_eq!(snap.threads[0], (0, "lane".to_string()));
        let tids: Vec<u64> = snap.spans.iter().map(|s| s.tid).collect();
        assert!(tids.contains(&0) && tids.contains(&1), "{tids:?}");
    }
}
