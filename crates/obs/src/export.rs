//! Exporters: Chrome trace-event JSON and flat metrics dumps.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

use crate::json::{document, fmt_f64, Arr, Layout, Name, Obj, Paused, Value};
use crate::json_fields;
use crate::metrics::{MetricKey, Snapshot};
use crate::sketch::QuantileSketch;

/// Registered `# HELP` strings, keyed by metric family name. Filled by
/// [`describe`]; families without an entry fall back to their own name
/// so every exposition family still carries a HELP line.
static HELP_REGISTRY: Mutex<BTreeMap<&'static str, &'static str>> = Mutex::new(BTreeMap::new());

/// Register the `# HELP` text for a metric family. Call once at startup
/// (idempotent — later calls overwrite). Unregistered families export
/// with their name as the help text.
pub fn describe(name: &'static str, help: &'static str) {
    let mut reg = HELP_REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    reg.insert(name, help);
}

/// Escape a label value for the Prometheus text exposition format:
/// backslash, double quote, and newline must be backslash-escaped.
pub(crate) fn prom_escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escape `# HELP` text (backslash and newline only; quotes are legal).
pub(crate) fn prom_escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Render a key's label set as `{k="v",...}` with Prometheus escaping
/// (empty string when there are no labels).
fn prom_labels(labels: &[(&'static str, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", prom_escape_label(v));
    }
    out.push('}');
    out
}

/// Render a full series identity (`name{labels}`) with Prometheus
/// escaping.
fn prom_series(k: &MetricKey) -> String {
    format!("{}{}", k.name, prom_labels(&k.labels))
}

/// Write the `# HELP` + `# TYPE` header for a family, once per name.
fn write_family_header(
    out: &mut String,
    last_name: &mut &'static str,
    name: &'static str,
    kind: &str,
) {
    if name == *last_name {
        return;
    }
    *last_name = name;
    let reg = HELP_REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let help = reg.get(name).copied().unwrap_or(name);
    let _ = writeln!(out, "# HELP {name} {}", prom_escape_help(help));
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Incremental writer for the Chrome trace-event JSON format (the format
/// `chrome://tracing` and <https://ui.perfetto.dev> load).
///
/// The writer is clock-agnostic: callers supply every timestamp as plain
/// microseconds, so the same format serves both wall-clock pipeline
/// traces ([`chrome_trace`], anchored at recorder enable time) and
/// *simulated-time* application traces (`sdchecker`'s app trace, anchored
/// at the log epoch). Events carry an explicit `pid` so one file can hold
/// many processes — Perfetto renders each as its own collapsible track
/// group.
#[derive(Debug)]
pub struct TraceEvents {
    out: String,
    /// The root object and its `traceEvents` array, open between calls.
    root: Paused,
    events: Paused,
}

impl Default for TraceEvents {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceEvents {
    /// An empty trace document.
    pub fn new() -> TraceEvents {
        let mut out = String::new();
        let mut root = Obj::new(&mut out, Layout::Inline);
        root.field("displayTimeUnit", "ms");
        let events = root.arr("traceEvents", Layout::Block).pause();
        let root = root.pause();
        TraceEvents { out, root, events }
    }

    /// Append one event: the inline object `write` fills.
    fn event(&mut self, write: impl FnOnce(&mut Obj<'_>)) {
        let mut events = Arr::resume(&mut self.out, self.events);
        write(&mut events.obj(Layout::Inline));
        self.events = events.pause();
    }

    /// Name a process lane (`ph:"M"` metadata).
    pub fn process_name(&mut self, pid: u64, name: &str) {
        self.event(|ev| {
            json_fields!(ev, "ph" => "M", "pid" => pid, "name" => "process_name");
            ev.obj("args", Layout::Inline).field("name", name);
        });
    }

    /// Name a thread lane within a process (`ph:"M"` metadata).
    pub fn thread_name(&mut self, pid: u64, tid: u64, name: &str) {
        self.event(|ev| {
            json_fields!(ev, "ph" => "M", "pid" => pid, "tid" => tid, "name" => "thread_name");
            ev.obj("args", Layout::Inline).field("name", name);
        });
    }

    /// A complete slice (`ph:"X"`): `ts`/`dur` in microseconds on
    /// whatever clock the caller uses throughout the document.
    pub fn complete(
        &mut self,
        pid: u64,
        tid: u64,
        name: &str,
        ts_us: u64,
        dur_us: u64,
        args: &[(&str, String)],
    ) {
        self.event(|ev| {
            json_fields!(ev, "ph" => "X", "pid" => pid, "tid" => tid, "name" => name,
                "ts" => ts_us, "dur" => dur_us);
            let mut obj = ev.obj("args", Layout::Inline);
            for (k, v) in args {
                obj.field(Name(k), v);
            }
        });
    }

    /// Start of a flow arrow (`ph:"s"`). `id` pairs it with the matching
    /// [`TraceEvents::flow_end`]; the point must lie inside a slice on
    /// `(pid, tid)` for renderers to anchor the arrow.
    pub fn flow_start(&mut self, pid: u64, tid: u64, id: u64, name: &str, ts_us: u64) {
        self.event(|ev| {
            json_fields!(ev, "ph" => "s", "pid" => pid, "tid" => tid, "cat" => "flow", "id" => id,
                "name" => name, "ts" => ts_us)
        });
    }

    /// End of a flow arrow (`ph:"f"`, binding to the enclosing slice).
    pub fn flow_end(&mut self, pid: u64, tid: u64, id: u64, name: &str, ts_us: u64) {
        self.event(|ev| {
            json_fields!(ev, "ph" => "f", "bp" => "e", "pid" => pid, "tid" => tid, "cat" => "flow",
                "id" => id, "name" => name, "ts" => ts_us)
        });
    }

    /// Close the document and return the JSON text.
    pub fn finish(mut self) -> String {
        drop(Arr::resume(&mut self.out, self.events));
        drop(Obj::resume(&mut self.out, self.root));
        self.out.push('\n');
        self.out
    }
}

/// Render the snapshot's spans as Chrome trace-event JSON. Spans become
/// complete (`"X"`) events with wall-clock microsecond timestamps
/// (offsets from recorder enable time); thread-name metadata events label
/// each worker lane.
pub fn chrome_trace(snap: &Snapshot) -> String {
    let mut t = TraceEvents::new();
    for (tid, name) in &snap.threads {
        t.thread_name(1, *tid, name);
    }
    for s in &snap.spans {
        t.complete(1, s.tid, s.name, s.start_us, s.dur_us, &s.args);
    }
    t.finish()
}

/// A sketch is its count, sum, min, max, mean and the standard
/// percentile ladder — `null` where an empty sketch has none. Sketches
/// holding exemplars add an `exemplars` array (worst labelled samples
/// first); exemplar-free ones write exactly the fields above. Equal
/// sketches write equal bytes.
impl Value for QuantileSketch {
    fn push_json(&self, out: &mut String) {
        let mut obj = Obj::new(out, Layout::Inline);
        json_fields!(obj, "count" => self.count(), "sum" => self.sum(), "min" => self.min(),
            "max" => self.max(), "mean" => self.mean(), "p50" => self.quantile(0.5),
            "p90" => self.quantile(0.9), "p95" => self.quantile(0.95), "p99" => self.quantile(0.99));
        if !self.exemplars().is_empty() {
            let mut exemplars = obj.arr("exemplars", Layout::Inline);
            for e in self.exemplars() {
                let mut ex = exemplars.obj(Layout::Inline);
                json_fields!(ex, "value" => e.value, "label" => &e.label);
            }
        }
    }
}

/// Render the snapshot's metrics (counters, gauges, histograms — no
/// spans) as a flat JSON object. Key order is the metric keys' sorted
/// order, so two snapshots with equal metric values render to identical
/// bytes — the property the golden-file tests pin down.
pub fn metrics_json(snap: &Snapshot) -> String {
    document(0, Layout::Block, |doc| {
        let mut counters = doc.obj("counters", Layout::Block);
        for (k, v) in &snap.counters {
            counters.field(Name(&k.render()), v);
        }
        drop(counters);
        let mut gauges = doc.obj("gauges", Layout::Block);
        for (k, v) in &snap.gauges {
            gauges.field(Name(&k.render()), v);
        }
        drop(gauges);
        let mut histograms = doc.obj("histograms", Layout::Block);
        for (k, h) in &snap.histograms {
            let mut obj = histograms.obj(Name(&k.render()), Layout::Inline);
            json_fields!(obj, "bounds" => h.bounds, "counts" => &h.counts[..], "sum" => h.sum,
                "count" => h.count);
        }
        drop(histograms);
        let mut sketches = doc.obj("sketches", Layout::Block);
        for (k, s) in &snap.sketches {
            sketches.field(Name(&k.render()), s);
        }
    })
}

/// Render the snapshot's metrics in the Prometheus text exposition
/// format (version 0.0.4): every family gets `# HELP`/`# TYPE` lines,
/// label values are escaped per the spec, histograms emit cumulative
/// `_bucket`/`_sum`/`_count` series that keep their key's labels, and
/// sketches export as summaries with `quantile` labels.
pub fn prometheus_text(snap: &Snapshot) -> String {
    let mut out = String::new();
    let mut last_name: &'static str = "";
    for (k, v) in &snap.counters {
        write_family_header(&mut out, &mut last_name, k.name, "counter");
        let _ = writeln!(out, "{} {v}", prom_series(k));
    }
    last_name = "";
    for (k, v) in &snap.gauges {
        write_family_header(&mut out, &mut last_name, k.name, "gauge");
        let _ = writeln!(out, "{} {}", prom_series(k), fmt_f64(*v));
    }
    last_name = "";
    for (k, h) in &snap.histograms {
        write_family_header(&mut out, &mut last_name, k.name, "histogram");
        let mut cumulative = 0u64;
        for (bound, count) in h.bounds.iter().zip(h.counts.iter()) {
            cumulative += count;
            let mut labeled = k.clone();
            labeled.labels.push(("le", bound.to_string()));
            let _ = writeln!(
                out,
                "{}_bucket{} {cumulative}",
                k.name,
                prom_labels(&labeled.labels)
            );
        }
        let mut labeled = k.clone();
        labeled.labels.push(("le", "+Inf".to_string()));
        let _ = writeln!(
            out,
            "{}_bucket{} {}",
            k.name,
            prom_labels(&labeled.labels),
            h.count
        );
        let labels = prom_labels(&k.labels);
        let _ = writeln!(out, "{}_sum{labels} {}", k.name, h.sum);
        let _ = writeln!(out, "{}_count{labels} {}", k.name, h.count);
    }
    last_name = "";
    for (k, s) in &snap.sketches {
        write_family_header(&mut out, &mut last_name, k.name, "summary");
        for (q, v) in [
            (0.5, s.quantile(0.5)),
            (0.95, s.quantile(0.95)),
            (0.99, s.quantile(0.99)),
        ] {
            let Some(v) = v else { continue };
            let mut labeled = k.clone();
            labeled.labels.push(("quantile", format!("{q}")));
            let _ = writeln!(out, "{} {}", prom_series(&labeled), fmt_f64(v));
        }
        // `_sum`/`_count` suffix the metric name, keeping the labels.
        let labels = prom_labels(&k.labels);
        let _ = writeln!(out, "{}_sum{labels} {}", k.name, s.sum());
        let _ = writeln!(out, "{}_count{labels} {}", k.name, s.count());
    }
    out
}

/// Snapshot `recorder` once and write the requested files: the Chrome
/// trace to `trace`, and metrics to `metrics` — Prometheus text when the
/// metrics extension is `.prom` or `.txt`, the JSON dump otherwise. The
/// shared back-end of every binary's `--trace-out`/`--metrics-out` flags.
pub fn write_files(
    recorder: &crate::Recorder,
    trace: Option<&std::path::Path>,
    metrics: Option<&std::path::Path>,
) -> std::io::Result<()> {
    if trace.is_none() && metrics.is_none() {
        return Ok(());
    }
    let snap = recorder.snapshot();
    if let Some(path) = trace {
        std::fs::write(path, chrome_trace(&snap))?;
    }
    if let Some(path) = metrics {
        let text = match path.extension().and_then(|e| e.to_str()) {
            Some("prom") | Some("txt") => prometheus_text(&snap),
            _ => metrics_json(&snap),
        };
        std::fs::write(path, text)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::recorder::Recorder;

    fn sample() -> Snapshot {
        let r = Recorder::new();
        r.enable();
        r.count_labeled("ev_total", &[("kind", "A")], 3);
        r.count("lines_total", 7);
        r.gauge_set("ratio", 2.5);
        r.gauge_max("hwm", 9.0);
        r.observe("sizes", &[10, 100], 5);
        r.observe("sizes", &[10, 100], 500);
        {
            let _outer = r.span("outer").arg("file", "a \"quoted\" name");
            let _inner = r.span("inner");
        }
        r.snapshot()
    }

    #[test]
    fn chrome_trace_is_valid_json_with_x_events() {
        let trace = chrome_trace(&sample());
        let doc = json::parse(&trace).expect("trace must parse");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let xs: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .collect();
        assert_eq!(xs.len(), 2);
        assert!(xs.iter().any(|e| {
            e.get("name").and_then(|n| n.as_str()) == Some("outer")
                && e.get("args")
                    .and_then(|a| a.get("file"))
                    .and_then(|f| f.as_str())
                    == Some("a \"quoted\" name")
        }));
        // One thread-name metadata event for the recording thread.
        assert!(events
            .iter()
            .any(|e| e.get("ph").and_then(|p| p.as_str()) == Some("M")));
    }

    #[test]
    fn metrics_json_is_valid_and_deterministic() {
        let a = metrics_json(&sample());
        let b = metrics_json(&sample());
        assert_eq!(a, b, "same metric values must render identically");
        let doc = json::parse(&a).expect("metrics must parse");
        assert_eq!(
            doc.get("counters")
                .unwrap()
                .get("ev_total{kind=\"A\"}")
                .unwrap()
                .as_f64(),
            Some(3.0)
        );
        assert_eq!(
            doc.get("gauges").unwrap().get("ratio").unwrap().as_f64(),
            Some(2.5)
        );
        let h = doc.get("histograms").unwrap().get("sizes").unwrap();
        assert_eq!(h.get("count").unwrap().as_f64(), Some(2.0));
        assert_eq!(h.get("counts").unwrap().as_arr().unwrap().len(), 3);
    }

    #[test]
    fn prometheus_text_has_type_lines_and_series() {
        let text = prometheus_text(&sample());
        assert!(text.contains("# TYPE ev_total counter"));
        assert!(text.contains("ev_total{kind=\"A\"} 3"));
        assert!(text.contains("# TYPE ratio gauge"));
        assert!(text.contains("ratio 2.5"));
        assert!(text.contains("sizes_bucket{le=\"10\"} 1"));
        assert!(text.contains("sizes_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("sizes_sum 505"));
        assert!(text.contains("sizes_count 2"));
    }

    #[test]
    fn prometheus_text_emits_help_for_every_family() {
        describe("ev_total", "extraction events by kind");
        let text = prometheus_text(&sample());
        // Registered family gets its description; the rest fall back to
        // the family name, but every family must carry a HELP line.
        assert!(text.contains("# HELP ev_total extraction events by kind"));
        for family in ["lines_total", "ratio", "hwm", "sizes"] {
            assert!(
                text.contains(&format!("# HELP {family} ")),
                "missing HELP for {family}:\n{text}"
            );
        }
        // HELP precedes TYPE for the same family.
        let help_at = text.find("# HELP ev_total").unwrap();
        let type_at = text.find("# TYPE ev_total").unwrap();
        assert!(help_at < type_at);
    }

    #[test]
    fn prometheus_text_escapes_label_values() {
        let r = Recorder::new();
        r.enable();
        r.count_labeled("esc_total", &[("path", "a\\b\"c\nd")], 1);
        let text = prometheus_text(&r.snapshot());
        assert!(
            text.contains("esc_total{path=\"a\\\\b\\\"c\\nd\"} 1"),
            "bad escaping:\n{text}"
        );
        assert_eq!(prom_escape_label("plain"), "plain");
        assert_eq!(prom_escape_label("a\\b"), "a\\\\b");
        assert_eq!(prom_escape_label("q\"q"), "q\\\"q");
        assert_eq!(prom_escape_label("n\nn"), "n\\nn");
        assert_eq!(prom_escape_help("h\\x\ny"), "h\\\\x\\ny");
    }

    #[test]
    fn prometheus_text_escapes_hostile_names_on_every_series_shape() {
        // App/node names mined from logs can carry backslashes, quotes,
        // and newlines, and they reach label values on counters, gauges,
        // histograms, and summaries alike. Every exposition shape must
        // escape them per the 0.0.4 text format.
        let hostile = "app \"q\\1\"\nrm";
        let mut snap = Snapshot::default();
        snap.counters
            .insert(MetricKey::labeled("apps_total", &[("name", hostile)]), 1);
        snap.gauges
            .insert(MetricKey::labeled("app_lag", &[("name", hostile)]), 2.0);
        let mut h = crate::metrics::Histogram::new(&[10]);
        h.observe(5);
        snap.histograms
            .insert(MetricKey::labeled("app_hist", &[("name", hostile)]), h);
        let mut s = QuantileSketch::new();
        s.observe(7);
        snap.sketches
            .insert(MetricKey::labeled("app_delay", &[("name", hostile)]), s);
        let text = prometheus_text(&snap);
        let escaped = "name=\"app \\\"q\\\\1\\\"\\nrm\"";
        for family in ["apps_total", "app_lag", "app_hist_bucket", "app_delay_sum"] {
            assert!(
                text.lines()
                    .any(|l| l.starts_with(family) && l.contains(escaped)),
                "{family} series not escaped:\n{text}"
            );
        }
        // The raw newline never leaks: every non-comment line is a
        // well-formed `series value` pair with an even quote count.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert!(!line.is_empty(), "blank line mid-exposition:\n{text}");
            assert_eq!(
                line.matches('"').count() % 2,
                0,
                "unbalanced quotes in {line:?}"
            );
            assert!(
                line.rsplit(' ')
                    .next()
                    .is_some_and(|v| v.parse::<f64>().is_ok()),
                "line does not end in a value: {line:?}"
            );
        }
    }

    #[test]
    fn sketch_json_renders_escaped_exemplars() {
        let mut s = QuantileSketch::new();
        s.observe_exemplar(1200, "application_1 \"résumé\"\\n");
        s.observe_exemplar(300, "application_2");
        let sketch_json = |s: &QuantileSketch| {
            let mut out = String::new();
            s.push_json(&mut out);
            out
        };
        let j = sketch_json(&s);
        let doc = json::parse(&j).expect("sketch JSON with exemplars must parse");
        let ex = doc.get("exemplars").unwrap().as_arr().unwrap();
        assert_eq!(ex.len(), 2);
        assert_eq!(ex[0].get("value").unwrap().as_f64(), Some(1200.0));
        assert_eq!(
            ex[0].get("label").unwrap().as_str(),
            Some("application_1 \"résumé\"\\n")
        );
        // Exemplar-free sketches keep the legacy shape byte-for-byte.
        let mut plain = QuantileSketch::new();
        plain.observe(5);
        assert!(!sketch_json(&plain).contains("exemplars"));
    }

    #[test]
    fn prometheus_histogram_buckets_keep_labels() {
        let mut snap = Snapshot::default();
        let mut h = crate::metrics::Histogram::new(&[10, 100]);
        h.observe(5);
        h.observe(50);
        snap.histograms
            .insert(MetricKey::labeled("lat_ms", &[("stage", "extract")]), h);
        let text = prometheus_text(&snap);
        assert!(text.contains("lat_ms_bucket{stage=\"extract\",le=\"10\"} 1"));
        assert!(text.contains("lat_ms_bucket{stage=\"extract\",le=\"+Inf\"} 2"));
        assert!(text.contains("lat_ms_sum{stage=\"extract\"} 55"));
        assert!(text.contains("lat_ms_count{stage=\"extract\"} 2"));
        // One header pair even though labeled keys could repeat the name.
        assert_eq!(text.matches("# TYPE lat_ms histogram").count(), 1);
    }

    #[test]
    fn write_files_picks_format_by_extension() {
        let r = Recorder::new();
        r.enable();
        r.count("n_total", 4);
        let dir = std::env::temp_dir().join(format!("obs_export_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("trace.json");
        let mjson = dir.join("metrics.json");
        let mprom = dir.join("metrics.prom");
        write_files(&r, Some(&trace), Some(&mjson)).unwrap();
        write_files(&r, None, Some(&mprom)).unwrap();
        let t = std::fs::read_to_string(&trace).unwrap();
        assert!(json::parse(&t).is_ok());
        let j = std::fs::read_to_string(&mjson).unwrap();
        assert!(json::parse(&j).unwrap().get("counters").is_some());
        let p = std::fs::read_to_string(&mprom).unwrap();
        assert!(p.contains("n_total 4"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_snapshot_exports_parse() {
        let snap = Snapshot::default();
        assert!(json::parse(&chrome_trace(&snap)).is_ok());
        assert!(json::parse(&metrics_json(&snap)).is_ok());
        assert_eq!(prometheus_text(&snap), "");
    }

    #[test]
    fn trace_events_writer_builds_valid_documents() {
        let mut t = TraceEvents::new();
        t.process_name(7, "application_42");
        t.thread_name(7, 0, "app");
        t.complete(7, 0, "total", 1_000, 5_000, &[("cid", "c1".to_string())]);
        t.flow_start(7, 0, 99, "critical", 2_000);
        t.flow_end(7, 1, 99, "critical", 3_000);
        let doc = json::parse(&t.finish()).expect("must parse");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 5);
        let x = events
            .iter()
            .find(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .unwrap();
        assert_eq!(x.get("ts").unwrap().as_f64(), Some(1000.0));
        assert_eq!(x.get("dur").unwrap().as_f64(), Some(5000.0));
        assert_eq!(
            x.get("args").unwrap().get("cid").unwrap().as_str(),
            Some("c1")
        );
        let f = events
            .iter()
            .find(|e| e.get("ph").and_then(|p| p.as_str()) == Some("f"))
            .unwrap();
        assert_eq!(f.get("bp").and_then(|b| b.as_str()), Some("e"));
        assert_eq!(f.get("id").unwrap().as_f64(), Some(99.0));
    }

    #[test]
    fn empty_trace_events_document_parses() {
        assert!(json::parse(&TraceEvents::new().finish()).is_ok());
    }

    #[test]
    fn sketches_export_in_json_and_prometheus() {
        let r = Recorder::new();
        r.enable();
        for v in 1..=100u64 {
            r.sketch_observe_labeled("delay_ms", &[("component", "total")], v * 10);
        }
        let snap = r.snapshot();
        let j = metrics_json(&snap);
        let doc = json::parse(&j).expect("metrics must parse");
        let s = doc
            .get("sketches")
            .unwrap()
            .get("delay_ms{component=\"total\"}")
            .unwrap();
        assert_eq!(s.get("count").unwrap().as_f64(), Some(100.0));
        assert_eq!(s.get("min").unwrap().as_f64(), Some(10.0));
        assert_eq!(s.get("max").unwrap().as_f64(), Some(1000.0));
        let p95 = s.get("p95").unwrap().as_f64().unwrap();
        assert!((p95 - 950.5).abs() / 950.5 < 0.01, "p95 {p95}");
        let p = prometheus_text(&snap);
        assert!(p.contains("# TYPE delay_ms summary"));
        assert!(p.contains("delay_ms{component=\"total\",quantile=\"0.5\"}"));
        assert!(p.contains("delay_ms_count{component=\"total\"} 100"));
    }
}
