//! Text/CSV rendering of analysis results: summary tables, CDF quantile
//! tables, the full per-corpus report the CLI prints, and the standard
//! output the binaries print it to.

use std::convert::Infallible;
use std::fmt::Write as _;
use std::io::{self, Write as _};

use logmodel::TsMs;
use obs::json::{Arr, Layout, Null, Obj};
use obs::json_fields;

use crate::analyze::Analysis;
use crate::critical::CriticalPath;
use crate::decompose::{AppDelays, AppOutcome};
use crate::fleet::{push_coverage, AppFacts, FleetAgg};
use crate::stats::{Cdf, Summary};
use crate::wide::{push_components, push_containers, push_segments, push_wide_event};

/// Write and flush `text` to standard output, which a closed pipe ends
/// quietly: after `sdchecker <dir> | head` has read enough, the rest of
/// the text is dropped, the requested files are still written and the
/// run still succeeds. Any other write error is the caller's to report.
pub fn write_stdout(text: &str) -> io::Result<()> {
    let mut out = io::stdout().lock();
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => Ok(()),
        other => other,
    }
}

/// A simple fixed-width text table builder.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header width).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Table {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Empty?
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render as aligned text.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..ncols {
                if i > 0 {
                    line.push_str("  ");
                }
                let _ = write!(line, "{:<width$}", cells[i], width = widths[i]);
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Render as CSV.
    pub fn to_csv(&self) -> String {
        let esc = |s: &str| -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .header
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// Format seconds with 3 decimals.
pub fn secs(v: f64) -> String {
    format!("{v:.3}")
}

/// One summary row: `label  n  mean  std  p50  p90  p95  p99  max`.
pub(crate) fn summary_row(label: &str, s: &Summary) -> Vec<String> {
    vec![
        label.to_string(),
        s.n.to_string(),
        secs(s.mean),
        secs(s.std_dev),
        secs(s.p50),
        secs(s.p90),
        secs(s.p95),
        secs(s.p99),
        secs(s.max),
    ]
}

/// The standard header matching [`summary_row`].
pub(crate) const SUMMARY_HEADER: [&str; 9] = [
    "metric", "n", "mean", "std", "p50", "p90", "p95", "p99", "max",
];

/// Build a summary table from labeled millisecond samples (printed in
/// seconds). Empty samples are skipped.
pub fn summary_table(samples: &[(&str, Vec<u64>)]) -> Table {
    let mut t = Table::new(&SUMMARY_HEADER);
    for (label, ms) in samples {
        if let Some(s) = Summary::from_ms(ms) {
            t.row(summary_row(label, &s));
        }
    }
    t
}

/// Build a summary table from labeled dimensionless samples (ratios,
/// fractions) printed with 3 decimals.
pub fn ratio_summary_table(samples: &[(&str, Vec<f64>)]) -> Table {
    let mut t = Table::new(&SUMMARY_HEADER);
    for (label, v) in samples {
        if let Some(s) = Summary::from(v) {
            t.row(summary_row(label, &s));
        }
    }
    t
}

/// CDF quantile table: one row per labeled sample, one column per
/// quantile.
pub fn cdf_table(samples: &[(&str, Vec<u64>)], quantiles: &[f64]) -> Table {
    let mut header: Vec<String> = vec!["metric".into()];
    header.extend(quantiles.iter().map(|q| format!("p{:02.0}", q * 100.0)));
    let hdr_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = Table::new(&hdr_refs);
    for (label, ms) in samples {
        let cdf = Cdf::from_ms(ms);
        if cdf.is_empty() {
            continue;
        }
        let mut row = vec![label.to_string()];
        for q in quantiles {
            match cdf.quantile(*q) {
                Some(v) => row.push(secs(v)),
                None => row.push("-".to_string()),
            }
        }
        t.row(row);
    }
    t
}

/// The buffer a streamed document is rendered in. It goes to the writer
/// at the end of the first application that leaves it more than half
/// full, so a write moves tens of kilobytes and a document of any size
/// holds one buffer — never the whole document.
const STREAM_BUFFER: usize = 64 * 1024;

/// Hand `buf` to `w` and empty it, once it holds at least `at` bytes.
fn spill(w: &mut impl io::Write, buf: &mut String, at: usize) -> io::Result<()> {
    if buf.len() >= at {
        w.write_all(buf.as_bytes())?;
        buf.clear();
    }
    Ok(())
}

/// What a renderer offers its buffer to after each application: a
/// writer's [`spill`], or nothing when the whole document is wanted.
type Spill<'a, E> = &'a mut dyn FnMut(&mut String) -> Result<(), E>;

/// Render a document into `w` through one [`STREAM_BUFFER`]. The writer
/// is flushed, so its error is returned rather than lost on drop.
fn stream<W: io::Write>(
    mut w: W,
    render: impl FnOnce(&mut String, Spill<'_, io::Error>) -> io::Result<()>,
) -> io::Result<()> {
    let mut buf = String::with_capacity(STREAM_BUFFER);
    render(&mut buf, &mut |buf| spill(&mut w, buf, STREAM_BUFFER / 2))?;
    spill(&mut w, &mut buf, 0)?;
    w.flush()
}

/// A rendering into a `String` that is never spilled: the whole
/// document, by the same code that streams it.
fn whole(
    render: impl FnOnce(&mut String, Spill<'_, Infallible>) -> Result<(), Infallible>,
) -> String {
    let mut out = String::new();
    let Ok(()) = render(&mut out, &mut |_| Ok(()));
    out
}

/// The per-application pass behind the text report, `report-v1` and the
/// batch `wide-events-v1` file: a borrowed view over an [`Analysis`] that
/// walks its applications once — each one's [`AppFacts`] (critical path,
/// display name, unused containers, event count), folded into one
/// [`FleetAgg`] as it goes — so that rendering two or three documents
/// costs one pass, not one per document. [`full_report`],
/// [`report_json`] and [`crate::wide_events_for_analysis`] each build one
/// and render from it; a caller that wants several documents builds it
/// itself. It lives only as long as the rendering does.
pub struct Report<'a> {
    an: &'a Analysis,
    /// In `Analysis::delays` (= ascending application-id) order.
    apps: Vec<AppFacts<'a>>,
    /// Every application of `apps`, added in that order.
    pub(crate) fleet: FleetAgg,
}

impl<'a> Report<'a> {
    /// Walk the analysis once.
    pub fn new(an: &'a Analysis) -> Report<'a> {
        debug_assert_eq!(an.graphs.len(), an.delays.len());
        let mut fleet = FleetAgg::new(false);
        let apps = an
            .graphs
            .values()
            .zip(&an.delays)
            .zip(an.unused_per_app())
            .map(|((g, d), unused)| {
                let facts = AppFacts::new(g, d, an.name_of(d.app), unused);
                fleet.add(&facts, false);
                facts
            })
            .collect();
        Report { an, apps, fleet }
    }

    /// Applications carrying hard failure evidence: a failed/killed
    /// terminal state, a retried AM, or wasted delay inside dead attempts.
    /// Truncated apps are excluded — an incomplete capture is not a
    /// failure.
    fn failing_apps(&self) -> impl Iterator<Item = &AppDelays> {
        self.apps.iter().map(|a| a.delays).filter(|d| {
            matches!(d.outcome, AppOutcome::Failed | AppOutcome::Killed)
                || d.attempts > 1
                || d.wasted_ms > 0
        })
    }

    /// Whether the corpus shows any hard failure evidence: a failing
    /// application or transition-shaped lines with corrupt ids. Truncated
    /// apps alone do not count — a log capture that simply stops early is
    /// not a cluster failure.
    fn has_failures(&self) -> bool {
        self.failing_apps().next().is_some() || self.an.coverage.total().anomalous > 0
    }

    /// The full text report the `sdchecker` CLI prints for a corpus.
    pub fn text(&self) -> String {
        let an = self.an;
        let mut out = String::new();
        let _ = writeln!(out, "SDchecker analysis");
        let _ = writeln!(out, "==================");
        let _ = writeln!(
            out,
            "applications: {} ({} with complete scheduling-delay evidence)",
            self.fleet.retired, self.fleet.complete
        );
        let _ = writeln!(out, "events extracted: {}", an.events.len());
        let _ = writeln!(out);

        let app_samples: Vec<(&str, Vec<u64>)> = vec![
            ("job runtime", an.component_ms(|d| d.job_runtime_ms)),
            ("total sched delay", an.component_ms(|d| d.total_ms)),
            ("am delay", an.component_ms(|d| d.am_ms)),
            ("in-application", an.component_ms(|d| d.in_app_ms)),
            ("out-application", an.component_ms(|d| d.out_app_ms)),
            ("driver delay", an.component_ms(|d| d.driver_ms)),
            ("executor delay", an.component_ms(|d| d.executor_ms)),
            ("alloc delay", an.component_ms(|d| d.alloc_ms)),
            ("Cf delay", an.component_ms(|d| d.cf_ms)),
            ("Cl delay", an.component_ms(|d| d.cl_ms)),
        ];
        let _ = writeln!(out, "Per-application delays (seconds)");
        out.push_str(&summary_table(&app_samples).render());
        let _ = writeln!(out);

        let cont_samples: Vec<(&str, Vec<u64>)> = vec![
            (
                "acquisition",
                an.container_component_ms(true, |c| c.acquisition_ms),
            ),
            (
                "localization",
                an.container_component_ms(false, |c| c.localization_ms),
            ),
            (
                "launching",
                an.container_component_ms(false, |c| c.launching_ms),
            ),
            (
                "nm queue",
                an.container_component_ms(false, |c| c.nm_queue_ms),
            ),
        ];
        let _ = writeln!(out, "Per-container delays (seconds)");
        out.push_str(&summary_table(&cont_samples).render());
        let _ = writeln!(out);

        // Critical-path blame: which component chain owns the
        // submitted→first-task interval, aggregated, then one exemplar path.
        let paths = self.apps.iter().filter_map(|a| a.critical.as_ref());
        let mut by_total: Vec<&CriticalPath> = paths.collect();
        if !by_total.is_empty() {
            let mut rows: Vec<_> = self.fleet.blame.iter().collect();
            rows.sort_by(|a, b| b.1 .1.cmp(&a.1 .1).then(a.0.cmp(b.0)));
            let mut t = Table::new(&["component", "apps", "mean_ms", "mean_blame"]);
            for (component, &(n, sum_ms, sum_pct)) in rows {
                t.row(vec![
                    component.to_string(),
                    n.to_string(),
                    format!("{:.0}", sum_ms as f64 / n as f64),
                    format!("{:.1}%", sum_pct / n as f64),
                ]);
            }
            let _ = writeln!(
                out,
                "Critical-path blame across {} applications (share of submitted→first-task)",
                by_total.len()
            );
            out.push_str(&t.render());
            let _ = writeln!(out);

            // The median-total application's full path, as the exemplar.
            by_total.sort_by_key(|p| (p.total_ms, p.app));
            let median = by_total[by_total.len() / 2];
            let _ = writeln!(
                out,
                "Critical path — {} (median total, {} s)",
                median.app,
                secs(median.total_ms as f64 / 1000.0)
            );
            out.push_str(&median.render());
            let _ = writeln!(out);
        }

        // Per-workload breakdown when driver banners carry names.
        let by_name = an.by_name();
        if by_name.len() > 1 {
            let mut t = Table::new(&[
                "workload",
                "n",
                "total p50",
                "total p95",
                "in p50",
                "out p50",
            ]);
            for (name, group) in &by_name {
                let totals: Vec<u64> = group.iter().filter_map(|d| d.total_ms).collect();
                let ins: Vec<u64> = group.iter().filter_map(|d| d.in_app_ms).collect();
                let outs: Vec<u64> = group.iter().filter_map(|d| d.out_app_ms).collect();
                let (Some(ts), Some(is_), Some(os)) = (
                    Summary::from_ms(&totals),
                    Summary::from_ms(&ins),
                    Summary::from_ms(&outs),
                ) else {
                    continue;
                };
                t.row(vec![
                    name.to_string(),
                    ts.n.to_string(),
                    secs(ts.p50),
                    secs(ts.p95),
                    secs(is_.p50),
                    secs(os.p50),
                ]);
            }
            let _ = writeln!(out, "Per-workload scheduling delays (seconds)");
            out.push_str(&t.render());
            let _ = writeln!(out);
        }

        let t = an.allocation_throughput(1000);
        let _ = writeln!(
            out,
            "Container allocation throughput: {} total, {:.0}/s mean, {:.0}/s peak (1s window)",
            t.total, t.mean_per_sec, t.peak_per_sec
        );

        let anomalies = crate::validate::validate_all(an.graphs.values());
        if anomalies.is_empty() {
            let _ = writeln!(
                out,
                "Corpus validation: clean (no ordering/duplicate/missing anomalies)."
            );
        } else {
            let _ = writeln!(
                out,
                "Corpus validation: {} anomalies — timestamps may be untrustworthy:",
                anomalies.len()
            );
            for a in anomalies.iter().take(20) {
                let _ = writeln!(out, "  {:?}", a);
            }
            if anomalies.len() > 20 {
                let _ = writeln!(out, "  ... and {} more", anomalies.len() - 20);
            }
        }
        // Failure summary, only when the corpus carries hard failure
        // evidence — a fault-free corpus renders byte-identically to builds
        // that predate fault awareness.
        if self.has_failures() {
            let f = &self.fleet;
            let _ = writeln!(
                out,
                "Failures: {} failed, {} killed, {} retried AMs, {} s wasted in dead attempts",
                f.outcome(AppOutcome::Failed),
                f.outcome(AppOutcome::Killed),
                f.retried_apps,
                secs(f.wasted_ms_total as f64 / 1000.0)
            );
            for d in self.failing_apps() {
                let _ = writeln!(
                    out,
                    "  {} outcome={} attempts={} wasted={} s",
                    d.app,
                    d.outcome.label(),
                    d.attempts,
                    secs(d.wasted_ms as f64 / 1000.0)
                );
            }
            let anomalous = an.coverage.total().anomalous;
            if anomalous > 0 {
                let _ = writeln!(
                    out,
                    "  {anomalous} transition-shaped lines with corrupt ids (events lost to log damage)"
                );
            }
        }
        if an.unused_containers.is_empty() {
            let _ = writeln!(out, "Bug check: no allocated-but-never-used containers.");
        } else {
            let _ = writeln!(
                out,
                "Bug check: {} allocated-but-never-used containers (SPARK-21562 signature):",
                an.unused_containers.len()
            );
            for u in &an.unused_containers {
                let _ = writeln!(
                    out,
                    "  {} (acquired: {}, reached NM: {})",
                    u.cid, u.acquired, u.reached_nm
                );
            }
        }
        let _ = writeln!(out, "{}", an.coverage.summary_line());
        for w in crate::validate::coverage_warnings(&an.coverage) {
            let _ = writeln!(out, "  {w}");
        }
        out
    }

    /// The machine-readable analysis report: per-application
    /// decomposition, critical path, and fleet-level component sketches,
    /// as one JSON document. Byte-stable for a given corpus — map keys
    /// follow fixed orders and floats render via `push_f64` — so the
    /// golden-file test can pin the exact bytes.
    pub fn json(&self) -> String {
        whole(|out, spill| self.render_json(out, spill))
    }

    /// [`Report::json`] streamed into `w` (see [`STREAM_BUFFER`]).
    pub fn write_json(&self, w: impl io::Write) -> io::Result<()> {
        stream(w, |buf, spill| self.render_json(buf, spill))
    }

    /// `report-v1` into `out`, offered to `spill` after each application.
    fn render_json<E>(&self, out: &mut String, spill: Spill<'_, E>) -> Result<(), E> {
        let f = &self.fleet;
        let mut doc = Obj::new(out, Layout::Block);
        doc.field("schema", "sdchecker-report-v1");
        // Both containers stay open across the spills: a spill leaves the
        // buffer right after an application, where `resume` goes on.
        let apps = doc.arr("applications", Layout::Block).pause();
        let doc = doc.pause();
        for a in &self.apps {
            let mut arr = Arr::resume(out, apps);
            push_application(arr.obj(Layout::Block), a);
            arr.pause();
            spill(out)?;
        }
        drop(Arr::resume(out, apps));
        let mut doc = Obj::resume(out, doc);
        let mut fleet = doc.obj("fleet", Layout::Block);
        json_fields!(fleet, "applications" => f.retired, "complete" => f.complete);
        f.push_sections(&mut fleet);
        drop(fleet);
        // The failures section exists only when the corpus carries
        // hard failure evidence (failed/killed apps, AM retries,
        // wasted delay, or corrupt-id lines); a fault-free corpus keeps
        // the exact pre-fault document bytes. Truncated apps alone do
        // not create the section.
        if self.has_failures() {
            let mut failures = doc.obj("failures", Layout::Block);
            json_fields!(failures, "failed" => f.outcome(AppOutcome::Failed),
                "killed" => f.outcome(AppOutcome::Killed), "retried_apps" => f.retried_apps,
                "wasted_ms_total" => f.wasted_ms_total,
                "anomalous_lines" => self.an.coverage.total().anomalous);
            let mut apps = failures.arr("apps", Layout::Block);
            for d in self.failing_apps() {
                let mut obj = apps.obj(Layout::Inline);
                json_fields!(obj, "app" => d.app, "outcome" => d.outcome.label(),
                    "attempts" => d.attempts, "wasted_ms" => d.wasted_ms);
            }
        }
        push_coverage(&mut doc, &self.an.coverage);
        drop(doc);
        out.push('\n');
        Ok(())
    }

    /// The whole corpus as `wide-events-v1` lines (newline-terminated,
    /// one per application, ascending application id), every app retired
    /// at the corpus watermark.
    pub fn wide_events(&self) -> String {
        whole(|out, spill| self.render_wide_events(out, spill))
    }

    /// [`Report::wide_events`] streamed into `w` (see [`STREAM_BUFFER`]).
    pub fn write_wide_events(&self, w: impl io::Write) -> io::Result<()> {
        stream(w, |buf, spill| self.render_wide_events(buf, spill))
    }

    /// The wide events into `out`, offered to `spill` after each line.
    fn render_wide_events<E>(&self, out: &mut String, spill: Spill<'_, E>) -> Result<(), E> {
        let retire_ms = self.an.watermark.unwrap_or(TsMs::ZERO);
        for a in &self.apps {
            push_wide_event(out, a, false, retire_ms);
            out.push('\n');
            spill(out)?;
        }
        Ok(())
    }
}

/// One application of `report-v1`: its delays, its containers and its
/// critical path.
fn push_application(mut app: Obj<'_>, a: &AppFacts<'_>) {
    let d = a.delays;
    json_fields!(app, "app" => d.app, "name" => a.name);
    push_components(app.obj("delays", Layout::Inline), d, "_ms");
    push_containers(app.arr("containers", Layout::Block), d);
    let Some(p) = &a.critical else {
        app.field("critical_path", Null);
        return;
    };
    let mut path = app.obj("critical_path", Layout::Inline);
    path.field("total_ms", p.total_ms);
    push_segments(path.arr("segments", Layout::Block), p, "blame_pct");
}

/// The full text report the `sdchecker` CLI prints for a corpus.
pub fn full_report(an: &Analysis) -> String {
    Report::new(an).text()
}

/// The machine-readable `report-v1` document (see [`Report::json`]).
/// The back-end of every binary's `--report-json`.
pub fn report_json(an: &Analysis) -> String {
    Report::new(an).json()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["a", "bbbb"]);
        t.row(vec!["xxxxx".into(), "1".into()]);
        t.row(vec!["y".into(), "22".into()]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a      bbbb"));
        assert!(lines[2].starts_with("xxxxx  1"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn csv_escapes() {
        let mut t = Table::new(&["x", "y"]);
        t.row(vec!["a,b".into(), "q\"q".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"q\"\"q\""));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        Table::new(&["a"]).row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn summary_table_skips_empty() {
        let t = summary_table(&[("full", vec![1000, 2000]), ("empty", vec![])]);
        assert_eq!(t.len(), 1);
        assert!(t.render().contains("full"));
    }

    #[test]
    fn failures_section_gates_on_hard_evidence() {
        use logmodel::{ApplicationId, Epoch, LogSource, LogStore, TsMs};
        let epoch = Epoch::default_run();
        let cts = epoch.unix_ms;
        let rm = LogSource::ResourceManager;

        // Clean app → no failures section anywhere.
        let mut clean = LogStore::new(epoch);
        let a = ApplicationId::new(cts, 1);
        clean.info(
            rm,
            TsMs(100),
            "RMAppImpl",
            format!("{a} State change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED"),
        );
        clean.info(
            rm,
            TsMs(900),
            "RMAppImpl",
            format!(
                "{a} State change from RUNNING to FINAL_SAVING on event = ATTEMPT_UNREGISTERED"
            ),
        );
        let an = crate::analyze_store(&clean);
        assert!(!Report::new(&an).has_failures());
        assert!(!report_json(&an).contains("\"failures\""));
        assert!(!full_report(&an).contains("Failures:"));

        // Failed app → failures section with the terminal outcome.
        let mut broken = LogStore::new(epoch);
        let b = ApplicationId::new(cts, 2);
        broken.info(
            rm,
            TsMs(100),
            "RMAppImpl",
            format!("{b} State change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED"),
        );
        broken.info(
            rm,
            TsMs(5_000),
            "RMAppImpl",
            format!("{b} State change from FINAL_SAVING to FAILED on event = APP_UPDATE_SAVED"),
        );
        let an = crate::analyze_store(&broken);
        assert!(Report::new(&an).has_failures());
        let json = report_json(&an);
        assert!(json.contains("\"failures\""), "{json}");
        assert!(json.contains("\"failed\": 1"), "{json}");
        assert!(json.contains("\"outcome\": \"failed\""), "{json}");
        let text = full_report(&an);
        assert!(text.contains("Failures: 1 failed, 0 killed"), "{text}");
    }

    #[test]
    fn truncated_apps_do_not_create_failures_section() {
        use logmodel::{ApplicationId, Epoch, LogSource, LogStore, TsMs};
        let epoch = Epoch::default_run();
        let mut s = LogStore::new(epoch);
        let a = ApplicationId::new(epoch.unix_ms, 1);
        s.info(
            LogSource::ResourceManager,
            TsMs(100),
            "RMAppImpl",
            format!("{a} State change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED"),
        );
        let an = crate::analyze_store(&s);
        assert_eq!(an.delays[0].outcome, AppOutcome::Truncated);
        assert!(!Report::new(&an).has_failures());
        assert!(!report_json(&an).contains("\"failures\""));
    }

    #[test]
    fn cdf_table_quantiles() {
        let ms: Vec<u64> = (1..=100).map(|i| i * 100).collect();
        let t = cdf_table(&[("metric", ms)], &[0.5, 0.95]);
        let r = t.render();
        assert!(r.contains("p50"));
        assert!(r.contains("p95"));
        // p50 of 0.1..10.0s grid ≈ 5.05 s.
        assert!(r.contains("5.05"), "{r}");
    }
}
