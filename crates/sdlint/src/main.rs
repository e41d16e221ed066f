//! CLI entry point: run every checker, print per-checker runtime, the
//! lock table's and the public surface's sizes and the interleaving
//! explorer's state counts (so CI logs show where lint time goes and
//! whether a model edit exploded the state space), and exit nonzero on
//! any finding.

fn main() {
    let root = sdlint::default_repo_root();
    let report = sdlint::run_all_with_stats(&root);
    for t in &report.timings {
        println!(
            "sdlint: {:<12} {:>5} ms  {} finding(s)",
            t.name, t.millis, t.findings
        );
    }
    println!(
        "sdlint: lock table {} lock(s), {} held edge(s)",
        sdlint::locks::LOCKS.len(),
        sdlint::locks::HELD_EDGES.len(),
    );
    println!(
        "sdlint: surface {} pub items, {} allowlisted",
        report.surface.items, report.surface.allowlisted,
    );
    for s in &report.interleave {
        println!(
            "sdlint: interleave model {:<22} {} states, {} transitions, \
             {} terminal(s){}",
            s.model,
            s.states,
            s.transitions,
            s.terminals,
            if s.capped {
                "  [CAPPED — not exhaustive]"
            } else {
                ""
            },
        );
    }
    if report.findings.is_empty() {
        let names: Vec<&str> = report.timings.iter().map(|t| t.name).collect();
        println!("sdlint: all checks passed ({})", names.join(", "));
        return;
    }
    eprintln!("sdlint: {} finding(s)", report.findings.len());
    for f in &report.findings {
        eprintln!("  {f}");
    }
    std::process::exit(1);
}
