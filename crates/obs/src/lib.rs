//! # obs — spans, counters, and trace/metrics export for the pipeline
//!
//! SDchecker's whole point is making an opaque scheduling stack
//! observable by mining its logs; this crate applies the same lesson to
//! our own code. It is a dependency-free observability substrate with
//! three pieces:
//!
//! * **hierarchical spans** ([`Recorder::span`]) — RAII wall-clock
//!   timers with thread attribution; nested guards produce the span
//!   tree Perfetto renders as a flame chart;
//! * **typed metrics** — monotonic counters, set/max gauges, and
//!   fixed-bucket histograms and quantile sketches behind one registry
//!   lock, taken per file, stream, poll or retirement, never per line;
//! * **exporters** — Chrome trace-event JSON ([`chrome_trace`],
//!   loadable in `chrome://tracing` or <https://ui.perfetto.dev>), a
//!   flat metrics JSON dump ([`metrics_json`]), and the Prometheus text
//!   exposition format ([`prometheus_text`]).
//!
//! ## Zero cost when disabled
//!
//! Instrumentation talks to the process-wide [`global`] recorder, which
//! starts **disabled**: every call short-circuits on one relaxed atomic
//! load before taking timestamps, formatting strings, or touching locks.
//! Benchmarks that do not opt in measure the uninstrumented hot path.
//! Binaries opt in with [`enable`] (the `--trace-out`/`--metrics-out`
//! flags) and export with [`global()`](global)`.snapshot()`.
//!
//! ## Determinism
//!
//! Aggregation is order-independent: counters and histogram buckets sum,
//! max-gauges max; a set-gauge keeps the last write. Metric
//! values in a [`Snapshot`] are therefore identical for every worker
//! count on the same input — only span timings and thread ids vary —
//! and [`metrics_json`] renders equal values to identical bytes, so
//! tests can golden-file an entire metrics dump.
//!
//! ```
//! let r = obs::Recorder::new();
//! r.enable();
//! {
//!     let _span = r.span("stage").arg("shard", 3);
//!     r.count_labeled("events_total", &[("kind", "AppSubmitted")], 2);
//! }
//! let snap = r.snapshot();
//! assert_eq!(snap.counter_labeled("events_total", &[("kind", "AppSubmitted")]), 2);
//! assert!(obs::chrome_trace(&snap).contains("\"stage\""));
//! ```

pub mod export;
mod http;
pub mod json;
mod metrics;
mod recorder;
mod sketch;

pub use export::{chrome_trace, describe, metrics_json, prometheus_text, TraceEvents};
pub use http::{HttpServer, Request, Response, PROMETHEUS_CONTENT_TYPE};
pub use metrics::{Histogram, MetricKey, Snapshot};
pub use recorder::{Batch, Recorder, SpanGuard};
pub use sketch::QuantileSketch;

/// The process-wide recorder all library instrumentation targets.
static GLOBAL: Recorder = Recorder::new();

/// The process-wide recorder (disabled until [`enable`] is called).
pub fn global() -> &'static Recorder {
    &GLOBAL
}

/// Enable the global recorder (idempotent).
pub fn enable() {
    GLOBAL.enable();
}

/// Whether the global recorder is recording. Instrumentation uses this
/// to gate any work beyond a plain call (e.g. batching local counts).
#[inline]
pub fn enabled() -> bool {
    GLOBAL.is_enabled()
}

/// Start a span on the global recorder (no-op guard when disabled).
pub fn span(name: &'static str) -> SpanGuard<'static> {
    GLOBAL.span(name)
}

/// Apply what `batch` gathered to the global recorder under one
/// acquisition of its lock.
pub fn flush(batch: Batch) {
    global().flush(batch)
}

/// Add to an unlabeled counter on the global recorder.
#[inline]
pub fn count(name: &'static str, n: u64) {
    GLOBAL.count(name, n);
}

/// Add to a labeled counter on the global recorder.
#[inline]
pub fn count_labeled(name: &'static str, labels: &[(&'static str, &str)], n: u64) {
    GLOBAL.count_labeled(name, labels, n);
}

/// Raise a high-water-mark gauge on the global recorder.
pub fn gauge_max(name: &'static str, v: f64) {
    GLOBAL.gauge_max(name, v);
}

/// Set a gauge on the global recorder.
pub fn gauge_set(name: &'static str, v: f64) {
    GLOBAL.gauge_set(name, v);
}

/// Observe into a histogram on the global recorder.
pub fn observe(name: &'static str, bounds: &'static [u64], v: u64) {
    GLOBAL.observe(name, bounds, v);
}

/// Observe into a labeled histogram on the global recorder.
pub fn observe_labeled(
    name: &'static str,
    labels: &[(&'static str, &str)],
    bounds: &'static [u64],
    v: u64,
) {
    GLOBAL.observe_labeled(name, labels, bounds, v);
}

/// Observe into a quantile sketch on the global recorder.
#[inline]
pub fn sketch_observe(name: &'static str, v: u64) {
    GLOBAL.sketch_observe(name, v);
}

/// Observe into a labeled quantile sketch on the global recorder.
#[inline]
pub fn sketch_observe_labeled(name: &'static str, labels: &[(&'static str, &str)], v: u64) {
    GLOBAL.sketch_observe_labeled(name, labels, v);
}

#[cfg(test)]
mod tests {
    #[test]
    fn global_starts_disabled_and_spans_are_inert() {
        // No test in this crate enables the global recorder, so it must
        // still be in its initial state here.
        assert!(!super::enabled());
        let g = super::span("noop").arg("k", "v");
        assert!(!g.is_active());
        super::count("nothing_total", 1);
        assert_eq!(super::global().snapshot().counter("nothing_total"), 0);
    }
}
