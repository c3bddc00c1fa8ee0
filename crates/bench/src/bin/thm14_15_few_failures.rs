//! Experiment E-TH14/15 — bounded-failure impossibility on large complete and
//! complete bipartite graphs via the simulation argument: report the paper's
//! failure budget next to the size of the failure set actually constructed.
//!
//! Usage: `thm14_15_few_failures [--count N] [--deadline-secs S]
//! [--work-budget W]` — `N` limits how many rows of each table are produced
//! (default: all; CI bench-smoke runs `--count 1` to exercise the simulation
//! argument cheaply).  When the deadline expires, remaining rows print a
//! one-line `indeterminate` instead of running.  Topologies with more links
//! than `--links-limit` (default
//! [`frr_routing::resilience::BOUNDED_EDGE_LIMIT`]; the largest default row,
//! `K16`, has 120) are skipped with a one-line notice.  The simulation
//! argument itself has no link limit: it checks its failure set with one
//! simulated walk, so the limit only caps the size of the run, like the
//! other experiment bins' `--links-limit`.

use frr_core::impossibility::{
    bipartite_few_failures_with_budget, complete_few_failures_with_budget, FewFailuresVerdict,
};
use frr_graph::generators;
use frr_routing::compiled::CompilePattern;
use frr_routing::pattern::{RotorPattern, ShortestPathPattern};
use frr_routing::resilience::{EdgeLimitExceeded, BOUNDED_EDGE_LIMIT};

fn main() {
    let args = frr_bench::parse_experiment_args("thm14_15_few_failures", usize::MAX);
    let run = args.run_budget();
    let links_limit = args.links_limit.unwrap_or(BOUNDED_EDGE_LIMIT);
    println!("=== Theorem 14: K_n fails within O(n) failures (paper budget 6n-33) ===");
    println!(
        "{:<5} {:<10} {:<36} {:>10} {:>10}",
        "n", "|E|", "pattern", "paper", "measured"
    );
    for n in [8usize, 9, 10, 12, 14, 16].into_iter().take(args.count) {
        let g = generators::complete(n);
        let label = format!("{n}");
        if skip_oversized(&label, &g, links_limit) {
            continue;
        }
        for pattern in patterns(&g) {
            let verdict = complete_few_failures_with_budget(&g, pattern.as_ref(), &run);
            report_row(&label, &g, pattern.as_ref(), verdict, 5);
        }
    }

    println!();
    println!("=== Theorem 15: K_a,b fails within O(a+b) failures (paper budget 3a+4b-21) ===");
    println!(
        "{:<8} {:<10} {:<36} {:>10} {:>10}",
        "a,b", "|E|", "pattern", "paper", "measured"
    );
    for (a, b) in [(4usize, 4usize), (5, 4), (5, 5), (6, 5), (7, 6)]
        .into_iter()
        .take(args.count)
    {
        let g = generators::complete_bipartite(a, b);
        let label = format!("{a},{b}");
        if skip_oversized(&label, &g, links_limit) {
            continue;
        }
        for pattern in patterns(&g) {
            let verdict = bipartite_few_failures_with_budget(&g, a, b, pattern.as_ref(), &run);
            report_row(&label, &g, pattern.as_ref(), verdict, 8);
        }
    }
}

/// One-line graceful skip for a topology with more than `limit` links (the
/// run's `--links-limit` size cap, not a limit of the construction).
fn skip_oversized(label: &str, g: &frr_graph::Graph, limit: usize) -> bool {
    if g.edge_count() > limit {
        let e = EdgeLimitExceeded {
            links: g.edge_count(),
            limit,
        };
        println!("{label:<5} skipped: {e}");
        true
    } else {
        false
    }
}

fn report_row(
    label: &str,
    g: &frr_graph::Graph,
    pattern: &dyn CompilePattern,
    verdict: Result<FewFailuresVerdict, frr_routing::budget::WorkerPanicked>,
    label_width: usize,
) {
    let prefix = format!(
        "{:<w$} {:<10} {:<36}",
        label,
        g.edge_count(),
        pattern.name(),
        w = label_width
    );
    match verdict {
        Ok(FewFailuresVerdict::Defeated(res)) => println!(
            "{prefix} {:>10} {:>10}",
            res.paper_budget,
            res.counterexample.failures.len()
        ),
        Ok(FewFailuresVerdict::NotDefeated) => println!("{prefix} not defeated"),
        Ok(FewFailuresVerdict::Indeterminate(p)) => println!("{prefix} indeterminate: {p}"),
        Err(p) => println!("{prefix} worker panicked: {p}"),
    }
}

fn patterns(g: &frr_graph::Graph) -> Vec<Box<dyn CompilePattern>> {
    vec![
        Box::new(RotorPattern::clockwise_with_shortcut(g)),
        Box::new(ShortestPathPattern::new(g)),
    ]
}
