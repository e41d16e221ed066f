//! Text/CSV rendering of analysis results: summary tables, CDF quantile
//! tables, the full per-corpus report the CLI prints, and the standard
//! output the binaries print it to.

use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::ops::Range;

use logmodel::{par, Parallelism, TsMs};
use obs::json::{Arr, Layout, Null, Obj, Paused};
use obs::json_fields;

use crate::analyze::{Analysis, APP_RUN, RENDER_RUN};
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

/// What one item of [`Report::write_documents`] renders: the text
/// report, or a run of applications into the streamed documents.
enum Piece {
    Text,
    Apps(Range<usize>),
}

/// A rendered [`Piece`]: the text report, or a run's `report-v1`
/// objects and wide lines (each empty where not asked for).
enum Rendered {
    Text(String),
    Apps(String, String),
}

/// Write `text` to `w` unless an earlier write to it failed; the first
/// error is kept.
fn write_to(w: &mut Option<&mut dyn io::Write>, result: &mut io::Result<()>, text: &str) {
    if let (Some(w), Ok(())) = (w.as_mut(), &result) {
        *result = w.write_all(text.as_bytes());
    }
}

/// Flush `w` unless a write to it failed, so that its error is returned
/// rather than lost on drop.
fn flush(w: Option<&mut dyn io::Write>, result: &mut io::Result<()>) {
    if let (Some(w), Ok(())) = (w, &result) {
        *result = w.flush();
    }
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
        Report::pooled(an, Parallelism::ONE)
    }

    /// [`Report::new`] with the applications' facts — above all their
    /// critical paths — made over `par`, in runs of [`APP_RUN`]. The
    /// calling thread folds each run into the fleet as it comes, in
    /// application-id order, so the fleet's `f64` sums are the same
    /// additions whatever the thread count.
    pub fn pooled(an: &'a Analysis, par: Parallelism) -> Report<'a> {
        debug_assert_eq!(an.graphs.len(), an.delays.len());
        let _span = obs::span("facts");
        let mut rows = Vec::with_capacity(an.delays.len());
        rows.extend(an.graphs.values().zip(&an.delays).zip(an.unused_per_app()));
        // One thread has nothing to fold beside: one run.
        let run = if par.threads() < 2 {
            rows.len().max(1)
        } else {
            APP_RUN
        };
        let mut runs: Vec<&[_]> = rows.chunks(run).collect();
        let mut fleet = FleetAgg::new(false);
        let mut apps = Vec::with_capacity(rows.len());
        par::stream(
            par,
            &mut runs,
            |run| run.len() as u64,
            &mut vec![(); par.threads()],
            |_, run, emit| {
                let facts = run
                    .iter()
                    .map(|&((g, d), unused)| AppFacts::new(g, d, an.name_of(d.app), unused));
                emit(facts.collect::<Vec<_>>());
            },
            |facts| {
                for a in facts {
                    fleet.add(&a, false);
                    apps.push(a);
                }
            },
        );
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
        let mut out = String::new();
        let at = self.json_head(&mut out);
        push_applications(&mut out, at.1, &self.apps);
        self.json_tail(&mut out, at);
        out
    }

    /// `report-v1` up to its applications: the document and the
    /// `applications` array, both left open.
    fn json_head(&self, out: &mut String) -> (Paused, Paused) {
        let mut doc = Obj::new(out, Layout::Block);
        doc.field("schema", "sdchecker-report-v1");
        let apps = doc.arr("applications", Layout::Block).pause();
        (doc.pause(), apps)
    }

    /// `report-v1` after its applications. `out` need not hold the rest
    /// of the document (see [`Obj::pause`]).
    fn json_tail(&self, out: &mut String, (doc, apps): (Paused, Paused)) {
        let f = &self.fleet;
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
    }

    /// The whole corpus as `wide-events-v1` lines (newline-terminated,
    /// one per application, ascending application id), every app retired
    /// at the corpus watermark.
    pub fn wide_events(&self) -> String {
        let mut out = String::new();
        self.push_wide_lines(&mut out, &self.apps);
        out
    }

    /// The wide lines of `apps`.
    fn push_wide_lines(&self, out: &mut String, apps: &[AppFacts<'_>]) {
        let retire_ms = self.an.watermark.unwrap_or(TsMs::ZERO);
        for a in apps {
            push_wide_event(out, a, false, retire_ms);
            out.push('\n');
        }
    }

    /// Write the documents asked for — the text report, `report-v1` and
    /// the wide events — each into its writer, rendered over `par`: the
    /// other two a run of [`RENDER_RUN`] applications per pool item, the
    /// text one more item after them, and the calling thread writing
    /// each item's text as it comes, in that order. The text is the
    /// heaviest item, so a worker takes it as soon as the pool's window
    /// reaches it and renders it beside the last runs; placed first, the
    /// runs would wait for it. A document holds a run in memory at a
    /// time, never itself whole. A failed write stops that document and
    /// not the others; each document's result is returned, in the order
    /// of the arguments.
    pub fn write_documents(
        &self,
        par: Parallelism,
        mut text: Option<&mut dyn io::Write>,
        mut json: Option<&mut dyn io::Write>,
        mut wide: Option<&mut dyn io::Write>,
    ) -> [io::Result<()>; 3] {
        let _span = obs::span("documents");
        let mut results = [Ok(()), Ok(()), Ok(())];
        let mut pieces: Vec<Piece> = Vec::new();
        let (want_json, want_wide) = (json.is_some(), wide.is_some());
        let mut head = String::new();
        let at = want_json.then(|| self.json_head(&mut head));
        if want_json || want_wide {
            let n = self.apps.len();
            let runs = (0..n).step_by(RENDER_RUN);
            pieces.extend(runs.map(|i| Piece::Apps(i..n.min(i + RENDER_RUN))));
        }
        if text.is_some() {
            pieces.push(Piece::Text);
        }
        write_to(&mut json, &mut results[1], &head);
        par::stream(
            par,
            &mut pieces,
            |piece| match piece {
                Piece::Text => self.apps.len() as u64 + 1,
                Piece::Apps(run) => run.len() as u64,
            },
            // Each worker sizes a run's texts by its last run's.
            &mut vec![(0, 0); par.threads()],
            |sizes, piece, emit| match piece {
                Piece::Text => emit(Rendered::Text(self.text())),
                Piece::Apps(run) => {
                    let apps = &self.apps[run.clone()];
                    let mut objects = String::with_capacity(sizes.0);
                    if let Some((_, at)) = at {
                        // The array's first member goes after its bracket.
                        let first = run.start == 0;
                        if first {
                            objects.push('[');
                        }
                        push_applications(&mut objects, at, apps);
                        if first {
                            objects.remove(0);
                        }
                    }
                    let mut lines = String::with_capacity(sizes.1);
                    if want_wide {
                        self.push_wide_lines(&mut lines, apps);
                    }
                    *sizes = (objects.len(), lines.len());
                    emit(Rendered::Apps(objects, lines));
                }
            },
            |rendered| match rendered {
                Rendered::Text(t) => write_to(&mut text, &mut results[0], &t),
                Rendered::Apps(objects, lines) => {
                    write_to(&mut json, &mut results[1], &objects);
                    write_to(&mut wide, &mut results[2], &lines);
                }
            },
        );
        if let Some(at) = at {
            let mut tail = String::new();
            self.json_tail(&mut tail, at);
            write_to(&mut json, &mut results[1], &tail);
        }
        let [text_done, json_done, wide_done] = &mut results;
        flush(text, text_done);
        flush(json, json_done);
        flush(wide, wide_done);
        results
    }
}

/// `report-v1`'s objects of `apps`, as members of the array `at`.
fn push_applications(out: &mut String, at: Paused, apps: &[AppFacts<'_>]) {
    let mut arr = Arr::resume(out, at);
    for a in apps {
        push_application(arr.obj(Layout::Block), a);
    }
    arr.pause();
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
