//! `sdbench repeat`: earn the bounds. Runs the whole benchmark in several
//! sets of runs, each run on another seed, and applies the acceptance
//! rule to itself: per workload × metric, the spread of a set
//! (interquartile range over median) must stay under a third of the
//! metric's bound, and the medians of any two sets must agree within half
//! of it.

use obs::json::{self, Json};

use crate::e2e::{Config, END_TO_END, WORKLOADS};
use crate::stats::{median, spread};

/// The bound of every end-to-end metric, from `BENCHMARK.json` in the
/// current directory.
fn bounds() -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let doc = json::parse(&text)?;
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            name.zip(bound)
                .map(|(n, b)| (n.to_string(), b))
                .ok_or_else(|| "end_to_end entry without name or bound".to_string())
        })
        .collect()
}

/// Run `sets` sets of `runs` runs of every workload and print the table.
/// Returns whether every workload × metric passed.
pub fn run(cfg: &Config, sets: usize, runs: usize) -> Result<bool, String> {
    let bounds = bounds()?;
    // One sample per (set, workload, metric name) and run.
    let mut samples: Vec<(usize, usize, &str, f64)> = Vec::new();
    let mut all_correct = true;
    for set in 0..sets {
        for i in 0..runs {
            let seed = cfg.seed + (set * runs + i) as u64;
            for (w, workload) in WORKLOADS.iter().enumerate() {
                let outcome = workload.run(&Config { seed, ..*cfg })?;
                if !outcome.correct || outcome.failed > 0 {
                    all_correct = false;
                    eprintln!(
                        "set {set} {} seed {seed}: {} of {} failed: {:?}",
                        workload.name, outcome.failed, outcome.attempted, outcome.notes
                    );
                }
                samples.extend(outcome.metrics.iter().map(|(name, v)| (set, w, *name, *v)));
                eprintln!(
                    "set {} run {} of {runs}: {} seed {seed} done",
                    set + 1,
                    i + 1,
                    workload.name
                );
            }
        }
    }

    let mut pass = all_correct;
    println!("| workload | metric | unit | set medians | set spreads | max median diff | bound | verdict |");
    println!("|---|---|---|---|---|---|---|---|");
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for (name, unit) in END_TO_END.iter() {
            let bound = bounds
                .iter()
                .find(|(n, _)| n == name)
                .ok_or_else(|| format!("BENCHMARK.json has no bound for {name}"))?
                .1;
            let of_set = |set: usize| -> Vec<f64> {
                samples
                    .iter()
                    .filter(|s| (s.0, s.1, s.2) == (set, w, *name))
                    .map(|s| s.3)
                    .collect()
            };
            let medians: Vec<f64> = (0..sets).map(|set| median(&of_set(set))).collect();
            let spreads: Vec<f64> = (0..sets).map(|set| spread(&of_set(set))).collect();
            let mut diff = 0.0f64;
            for a in &medians {
                for b in &medians {
                    diff = diff.max((a - b).abs() / a.abs().min(b.abs()));
                }
            }
            // The set-up time's own spread is not judged, only its medians.
            let worst_spread = if *name == "setup_s" {
                0.0
            } else {
                spreads.iter().cloned().fold(0.0, f64::max)
            };
            let verdict = if worst_spread <= bound / 3.0 && diff <= bound / 2.0 {
                "ok"
            } else if worst_spread <= bound && diff <= bound {
                "within bound, no margin"
            } else {
                "OVER BOUND"
            };
            pass &= verdict == "ok";
            let list = |xs: &[f64], scale: f64, digits: usize| {
                xs.iter()
                    .map(|x| format!("{:.*}", digits, x * scale))
                    .collect::<Vec<_>>()
                    .join(" / ")
            };
            println!(
                "| {} | {name} | {unit} | {} | {} % | {:.1} % | {:.0} % | {} |",
                workload.name,
                list(&medians, 1.0, 3),
                list(&spreads, 100.0, 1),
                diff * 100.0,
                bound * 100.0,
                verdict,
            );
        }
    }
    println!(
        "\n{sets} sets of {runs} runs per workload, {} s each, seeds {}..{}: {}",
        cfg.seconds,
        cfg.seed,
        cfg.seed + (sets * runs) as u64 - 1,
        if pass {
            "every metric within a third (spread) and half (medians) of its bound"
        } else if all_correct {
            "some metric lacks the margin (or exceeds its bound)"
        } else {
            "some operation failed"
        }
    );
    Ok(pass)
}
