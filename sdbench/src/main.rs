//! `sdbench` — the repository's benchmark harness.
//!
//! ```text
//! sdbench --workload W --seed S --seconds N --trace 0|1 [--quick]
//! sdbench repeat [--sets N] [--runs R] [--seconds N]
//! ```
//!
//! The first form is the contract of `BENCHMARK.json`: it runs one
//! workload and prints, as the last line of standard output, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Without `--workload` it runs all four. Everything meant
//! for people goes to standard error. See `README.md` beside this crate.

mod alloc;
mod check;
mod corpus;
mod e2e;
mod proc;
mod repeat;
mod stats;
mod trace;

use std::process::ExitCode;

use e2e::{Config, Outcome, Workload, END_TO_END, WORKLOADS};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

const USAGE: &str =
    "usage: sdbench [--workload W] --seed S --seconds N --trace 0|1 [--quick]\n       \
                     sdbench repeat [--sets N] [--runs R] [--seconds N]";

/// Command-line options of both forms.
struct Opts {
    repeat: bool,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    sets: usize,
    runs: usize,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        repeat: false,
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: false,
        quick: false,
        sets: 3,
        runs: 10,
    };
    let mut it = args.iter().peekable();
    if it.peek().is_some_and(|a| *a == "repeat") {
        o.repeat = true;
        it.next();
    }
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            o.quick = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let bad = || format!("invalid {flag} value: {value}");
        match flag.as_str() {
            "--workload" => o.workload = Some(value.clone()),
            "--seed" => o.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                o.seconds = value.parse().map_err(|_| bad())?;
                if !(o.seconds > 0.0 && o.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--sets" => o.sets = value.parse().ok().filter(|n| *n >= 2).ok_or_else(bad)?,
            "--runs" => o.runs = value.parse().ok().filter(|n| *n >= 2).ok_or_else(bad)?,
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if let Some(w) = &o.workload {
        if Workload::named(w).is_none() {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload {w} (one of {})",
                names.join(", ")
            ));
        }
    }
    Ok(o)
}

/// Render a number with all its digits (shortest text that reads back to
/// the same `f64`).
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "a metric must be a finite number, got {v}");
    format!("{v}")
}

/// The result line of the contract: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
fn result_line(outcome: &Outcome, units: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value)| {
            let unit = units
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("metric {name} has no declared unit"))
                .1;
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                obs::json::escape(name),
                json_number(*value),
                obs::json::escape(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// Run one workload in the mode asked for and print its result.
fn run_one(workload: &Workload, cfg: &Config, trace: bool) -> Result<(), String> {
    eprintln!(
        "sdbench: {} seed {} for {} s{} ({} hardware threads)",
        workload.name,
        cfg.seed,
        cfg.seconds,
        if trace { ", traced" } else { "" },
        logmodel::Parallelism::hardware_threads(),
    );
    let (outcome, units): (Outcome, &[(&str, &str)]) = if trace {
        (trace::run(workload, cfg)?, &trace::PER_LAYER)
    } else {
        (workload.run(cfg)?, &END_TO_END)
    };
    for note in &outcome.notes {
        eprintln!("  {note}");
    }
    for (name, value) in &outcome.metrics {
        let unit = units.iter().find(|(n, _)| n == name).map_or("", |u| u.1);
        eprintln!("  {name:<44} {value:>14.4} {unit}");
    }
    eprintln!(
        "  correct {} attempted {} failed {} failed_ratio {}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
    );
    println!("{}", result_line(&outcome, units));
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cfg = Config {
        seed: opts.seed,
        seconds: opts.seconds,
        quick: opts.quick,
    };
    if opts.repeat {
        return match repeat::run(&cfg, opts.sets, opts.runs) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("sdbench repeat: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let chosen = opts.workload.as_deref();
    for workload in WORKLOADS
        .iter()
        .filter(|w| chosen.is_none_or(|name| name == w.name))
    {
        if let Err(e) = run_one(workload, &cfg, opts.trace) {
            eprintln!("sdbench: {}: {e}", workload.name);
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::json::{parse, Json};

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn contract_flags_parse() {
        let o = parse_args(&args(
            "--workload batch_noisy --seed 9 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(o.workload.as_deref(), Some("batch_noisy"));
        assert_eq!(
            (o.seed, o.seconds, o.trace, o.repeat),
            (9, 3.0, true, false)
        );
        let r = parse_args(&args("repeat --sets 2 --runs 4")).unwrap();
        assert!(r.repeat && r.sets == 2 && r.runs == 4);
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seconds 0",
            "--seed",
            "--bogus 1",
            "repeat --sets 1",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn result_line_is_the_contract_object() {
        let outcome = Outcome {
            correct: true,
            attempted: 31,
            failed: 0,
            metrics: vec![("setup_s", 1.0625), ("visible_ms_p25", 0.1 + 0.2)],
            notes: Vec::new(),
        };
        let line = result_line(&outcome, &END_TO_END);
        assert!(!line.contains('\n'));
        let doc = parse(&line).unwrap();
        let Json::Obj(members) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("attempted").unwrap().as_f64(), Some(31.0));
        let m = doc.get("metrics").unwrap();
        let p25 = m.get("visible_ms_p25").unwrap();
        // All digits survive: 0.1 + 0.2 is not 0.3.
        assert_eq!(p25.get("value").unwrap().as_f64(), Some(0.1 + 0.2));
        assert_eq!(p25.get("unit").unwrap().as_str(), Some("ms"));
        assert_eq!(
            m.get("setup_s").unwrap().get("unit").unwrap().as_str(),
            Some("s")
        );
    }

    /// `BENCHMARK.json` and the harness must name the same workloads and
    /// metrics, with the same units.
    #[test]
    fn benchmark_json_matches_the_harness() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str, field: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get(field).unwrap().as_str().unwrap().to_string())
                .collect()
        };
        let workloads: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names("workloads", "name"), workloads);
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &trace::PER_LAYER[..]),
        ] {
            let want: Vec<String> = table.iter().map(|(n, _)| n.to_string()).collect();
            assert_eq!(names(key, "name"), want, "{key} names");
            let units: Vec<String> = table.iter().map(|(_, u)| u.to_string()).collect();
            assert_eq!(names(key, "unit"), units, "{key} units");
        }
    }
}
