//! Shared experiment machinery: run a scenario through the simulator,
//! feed the log corpus to SDchecker, and keep job-kind attribution so
//! measured populations can be separated from interference populations.

use logmodel::{ApplicationId, Parallelism};
use sdchecker::{analyze_store_with, Analysis, AppDelays};
use simkit::{Millis, SimRng};
use sparksim::{simulate, JobSpec, JobSummary};
use yarnsim::ClusterConfig;

/// Experiment scale: `Full` regenerates the paper's populations; `Quick`
/// shrinks them for CI tests and benches while keeping every code path
/// (same scenario structure, fewer jobs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper-sized populations (e.g. 2 000-query long trace).
    Full,
    /// Reduced populations for tests/benches.
    Quick,
}

impl Scale {
    /// Scale a population: full size, or a reduced size for `Quick`.
    pub fn n(self, full: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Quick => (full / 20).clamp(8, 60),
        }
    }
}

/// Result of one simulated scenario, post-analysis.
pub struct ScenarioResult {
    /// SDchecker's full analysis of the generated log corpus.
    pub analysis: Analysis,
    /// Completed-job summaries (simulator ground truth: label/kind tags).
    pub summaries: Vec<JobSummary>,
    /// Kind tags in submission order (`kind_of` resolves an app id).
    kinds: Vec<&'static str>,
}

impl ScenarioResult {
    /// The kind tag of an application, by submission order (application
    /// sequence numbers are assigned in submission order).
    pub(crate) fn kind_of(&self, app: ApplicationId) -> Option<&'static str> {
        self.kinds.get((app.seq as usize).checked_sub(1)?).copied()
    }

    /// Delay decompositions of the *measured* population only: complete
    /// Spark-SQL / Spark-wordcount jobs, excluding interference and load
    /// generators.
    pub fn measured(&self) -> Vec<&AppDelays> {
        self.analysis
            .delays
            .iter()
            .filter(|d| d.total_ms.is_some())
            .filter(|d| matches!(self.kind_of(d.app), Some("spark-sql") | Some("spark-wc")))
            .collect()
    }

    /// Collect one per-app component over the measured population, ms.
    pub fn ms(&self, f: impl Fn(&AppDelays) -> Option<u64>) -> Vec<u64> {
        self.measured().iter().filter_map(|d| f(d)).collect()
    }

    /// Collect one per-container component over the measured population's
    /// containers, ms. `workers_only` excludes AM containers.
    pub fn container_ms(
        &self,
        workers_only: bool,
        f: impl Fn(&sdchecker::ContainerDelays) -> Option<u64>,
    ) -> Vec<u64> {
        self.measured()
            .iter()
            .flat_map(|d| d.containers.iter())
            .filter(|c| !workers_only || !c.is_am)
            .filter_map(f)
            .collect()
    }
}

/// Run one scenario: simulate `arrivals` on `cfg`, then analyze the logs.
pub fn run_scenario(
    cfg: ClusterConfig,
    seed: u64,
    arrivals: Vec<(Millis, JobSpec)>,
    horizon: Millis,
) -> ScenarioResult {
    let kinds: Vec<&'static str> = arrivals.iter().map(|(_, s)| s.kind.tag()).collect();
    let (logs, summaries) = simulate(cfg, seed, arrivals, horizon);
    // The parallel pipeline is byte-identical to the sequential one (see
    // sdchecker's stream merge), so experiments can always use it.
    let analysis = analyze_store_with(&logs, Parallelism::auto());
    ScenarioResult {
        analysis,
        summaries,
        kinds,
    }
}

/// Deterministic RNG for scenario construction (arrival sampling etc.).
pub fn scenario_rng(seed: u64) -> SimRng {
    SimRng::new(seed ^ 0x5EED_5EED)
}

/// The default horizon: generous enough for every full-scale scenario.
pub fn default_horizon() -> Millis {
    Millis::from_mins(24 * 60)
}

/// A rendered figure/table reproduction.
pub struct Figure {
    /// Identifier matching the paper ("fig4", "table2", ...).
    pub id: &'static str,
    /// Human title.
    pub title: String,
    /// Captioned tables (series the paper plots).
    pub tables: Vec<(String, sdchecker::Table)>,
    /// Observations to compare against the paper's claims.
    pub notes: Vec<String>,
}

impl Figure {
    /// Render the whole figure as text.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "## {} — {}", self.id, self.title);
        for (caption, table) in &self.tables {
            let _ = writeln!(out, "\n### {caption}\n");
            out.push_str(&table.render());
        }
        if !self.notes.is_empty() {
            let _ = writeln!(out, "\nNotes:");
            for n in &self.notes {
                let _ = writeln!(out, "- {n}");
            }
        }
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{tpch_stream, TraceParams};

    #[test]
    fn scale_quick_shrinks() {
        assert_eq!(Scale::Full.n(2000), 2000);
        assert_eq!(Scale::Quick.n(2000), 60);
        assert_eq!(Scale::Quick.n(100), 8);
    }

    #[test]
    fn scenario_kind_attribution() {
        let mut rng = scenario_rng(1);
        let arrivals = tpch_stream(10, 2048.0, 4, &TraceParams::moderate(), &mut rng);
        let r = run_scenario(ClusterConfig::default(), 1, arrivals, default_horizon());
        assert_eq!(r.summaries.len(), 10);
        assert_eq!(r.measured().len(), 10);
        let app = r.summaries[0].app;
        assert_eq!(r.kind_of(app), Some("spark-sql"));
        // Unknown app sequence.
        assert_eq!(r.kind_of(ApplicationId::new(1, 999)), None);
    }

    #[test]
    fn ms_collectors() {
        let mut rng = scenario_rng(2);
        let arrivals = tpch_stream(6, 2048.0, 4, &TraceParams::moderate(), &mut rng);
        let r = run_scenario(ClusterConfig::default(), 2, arrivals, default_horizon());
        let totals = r.ms(|d| d.total_ms);
        assert_eq!(totals.len(), 6);
        assert!(totals.iter().all(|t| *t > 3_000 && *t < 120_000));
        let locs = r.container_ms(false, |c| c.localization_ms);
        // 6 apps × (1 AM + 4 executors) = 30 localizations.
        assert_eq!(locs.len(), 30);
    }

    #[test]
    fn figure_renders() {
        let mut t = sdchecker::Table::new(&["a"]);
        t.row(vec!["1".into()]);
        let f = Figure {
            id: "figX",
            title: "demo".into(),
            tables: vec![("caption".into(), t)],
            notes: vec!["note".into()],
        };
        let r = f.render();
        assert!(r.contains("## figX"));
        assert!(r.contains("### caption"));
        assert!(r.contains("- note"));
    }
}
