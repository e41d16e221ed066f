//! # experiments — regenerating every table and figure of the paper
//!
//! One module per evaluation artifact; each exposes its scenario
//! builder(s) and a `figN()`/`tableN()` function returning a rendered
//! [`harness::Figure`]. The `run_experiments` binary executes everything
//! at full scale and writes the results under `results/`.
//!
//! | module | paper artifact |
//! |---|---|
//! | [`fig4`] | Fig 4 (a–c) overall delays + Table III contributions |
//! | [`fig5`] | Fig 5 input-size sweep |
//! | [`fig6`] | Fig 6 executor-count sweep |
//! | [`fig7`] | Fig 7 scheduler comparison, queueing, acquisition |
//! | [`table2`] | Table II allocation throughput vs load |
//! | [`fig8`] | Fig 8 localization-size sweep |
//! | [`fig9`] | Fig 9 launching delay by instance type / runtime |
//! | [`fig11`] | Fig 11 in-application delay |
//! | [`fig12`] | Fig 12 IO interference |
//! | [`fig13`] | Fig 13 CPU interference |
//! | [`bug_finding`] | §V-A SPARK-21562 detection |
//! | [`ablations`] | beyond-paper ablations (heartbeat, cache, init width, queue cap) |
//! | [`optimizations`] | §V-B proposed optimizations, implemented & measured |

mod ablations;
pub mod bug_finding;
mod fig11;
pub mod fig12;
pub mod fig13;
mod fig4;
mod fig5;
mod fig6;
pub mod fig7;
mod fig8;
mod fig9;
pub mod harness;
mod optimizations;
mod table2;

pub use harness::{run_scenario, Figure, Scale, ScenarioResult};

/// A figure/table reproduction entry point.
pub(crate) type Runner = fn(Scale, u64) -> Figure;

/// Every reproduction, in paper order. Each entry is `(id, runner)`.
pub fn all_experiments() -> Vec<(&'static str, Runner)> {
    vec![
        ("fig4", fig4::fig4 as Runner),
        ("fig5", fig5::fig5),
        ("fig6", fig6::fig6),
        ("fig7", fig7::fig7),
        ("table2", table2::table2),
        ("fig8", fig8::fig8),
        ("fig9", fig9::fig9),
        ("fig11", fig11::fig11),
        ("fig12", fig12::fig12),
        ("fig13", fig13::fig13),
        ("table3", fig4::table3),
        ("bug", bug_finding::bug_finding),
        ("ablations", ablations::ablations),
        ("opts", optimizations::optimizations),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_covers_every_artifact() {
        let ids: Vec<&str> = all_experiments().iter().map(|(id, _)| *id).collect();
        for expected in [
            "fig4", "fig5", "fig6", "fig7", "table2", "fig8", "fig9", "fig11", "fig12", "fig13",
            "table3", "bug",
        ] {
            assert!(ids.contains(&expected), "missing {expected}");
        }
        assert!(ids.contains(&"ablations"));
        assert!(ids.contains(&"opts"));
        assert_eq!(ids.len(), 14);
    }
}
