//! Experiment E-T1 — regenerates Table I: the feasibility landscape of
//! `r`-tolerance and of the bounded-failure model, with the positive cells
//! re-verified by the constructive patterns and the negative cells by the
//! adversaries.
//!
//! Usage: `table1_landscape [--count N] [--deadline-secs S] [--work-budget W]
//! [--metrics]` — `N` is the largest tolerance `r` to verify (default 3; CI
//! bench-smoke runs `--count 1` for a cheap end-to-end pass over every cell
//! kind).  An oversized cell (graph past the exhaustive edge limit) prints a
//! one-line skip and falls back to sampling one `(s, t)` pair instead of
//! panicking — its label names that pair and the draw count, never
//! "verified"; an expired budget marks cells `inconclusive` instead of
//! fabricating a verdict.
//! `--metrics` appends the process-wide telemetry table (sweep counters,
//! minor-engine memo statistics) after the landscape.

use frr_core::algorithms::{r_tolerant_bipartite_pattern, r_tolerant_complete_pattern};
use frr_core::impossibility::r_tolerance_counterexample;
use frr_core::landscape::table1_tolerance_rows;
use frr_graph::{generators, Graph, Node};
use frr_routing::adversary::RandomAdversary;
use frr_routing::budget::{Progress, RunBudget, Verdict};
use frr_routing::compiled::CompilePattern;
use frr_routing::pattern::ShortestPathPattern;
use frr_routing::resilience::{check, EdgeLimitExceeded, Property, EXHAUSTIVE_EDGE_LIMIT};

/// Outcome of one positive Table I cell.
enum CellVerdict {
    /// Every `(s, t)` pair passed the exhaustive sweep.
    Proven,
    /// Only `pair` was checked: `draws` random failure sets were drawn, those
    /// keeping the pair r-connected were routed, and none defeated the
    /// pattern — evidence, not a proof.
    Sampled {
        pair: (Node, Node),
        draws: u64,
    },
    Failed,
    /// The run budget stopped one pair's sweep; the payload is that sweep's
    /// progress (masks examined, fallback samples drawn, why it stopped).
    Inconclusive(Progress),
}

impl CellVerdict {
    fn text(&self) -> String {
        match self {
            CellVerdict::Proven => "verified r-tolerant".to_string(),
            CellVerdict::Sampled {
                pair: (s, t),
                draws,
            } => format!("sampled {s}->{t} only, {draws} draws"),
            CellVerdict::Failed => "VERIFICATION FAILED".to_string(),
            CellVerdict::Inconclusive(p) => format!("inconclusive: {p}"),
        }
    }
}

fn main() {
    let args = frr_bench::parse_experiment_args("table1_landscape", 3);
    let run = args.run_budget();
    let links_limit = args
        .links_limit
        .unwrap_or(EXHAUSTIVE_EDGE_LIMIT)
        .min(EXHAUSTIVE_EDGE_LIMIT);
    println!("=== Table I: r-tolerance landscape ===");
    println!(
        "{:<3} {:<28} {:<32} {:<30}",
        "r",
        "K_{2r+1} possible (Thm 3)",
        "K_{2r-1,2r-1} possible (Thm 5)",
        "K_{5r+3} impossible (Thm 1)"
    );
    for row in table1_tolerance_rows(args.count) {
        let r = row.r;
        // Positive: K_{2r+1} with the distance-2 pattern.
        let kc = generators::complete(row.complete_possible_nodes);
        let pc = r_tolerant_complete_pattern();
        let complete_cell = verify_cell(&kc, &pc, Node(0), Node(1), r, links_limit, &run);
        // Positive: K_{2r-1,2r-1} with the bipartite distance-3 pattern.
        let part = row.bipartite_possible_part;
        let kb = generators::complete_bipartite(part, part);
        let pb = r_tolerant_bipartite_pattern(&kb);
        let bipartite_cell = verify_cell(&kb, &pb, Node(0), Node(part), r, links_limit, &run);
        // Negative: K_{5r+3} defeated by the Theorem 1 adversary.
        let victim = ShortestPathPattern::new(&generators::complete(row.complete_impossible_nodes));
        let defeated = r_tolerance_counterexample(r, &victim).is_some();

        println!(
            "{:<3} K{:<3} {:<22} K{},{} {:<24} K{:<3} {:<24}",
            r,
            row.complete_possible_nodes,
            complete_cell.text(),
            part,
            part,
            bipartite_cell.text(),
            row.complete_impossible_nodes,
            if defeated {
                "adversary defeats portfolio"
            } else {
                "adversary inconclusive"
            },
        );
    }

    println!();
    println!("=== Table I: bounded-failure landscape ===");
    println!("K_n possible for f < n-1 [Chiesa et al.]; impossible for f >= 6n-33 (Thm 14)");
    println!(
        "K_a,b possible for f < min(a,b)-1 [Chiesa et al.]; impossible for f >= 3a+4b-21 (Thm 15)"
    );
    println!("(run `thm14_15_few_failures` for the constructed failure sets and measured sizes)");
    if args.metrics {
        println!();
        println!("=== telemetry (process-wide registry) ===");
        print!("{}", frr_obs::global().snapshot().to_table());
    }
}

/// Verifies one positive cell: exhaustively over all `(s, t)` pairs when the
/// graph is within the exhaustive edge limit (a one-line skip plus a sampled
/// check of the single pair `(sample_s, sample_t)` otherwise — never a
/// panic), each pair's sweep and the sampler under the run budget.
fn verify_cell<P: CompilePattern + ?Sized>(
    g: &Graph,
    pattern: &P,
    sample_s: Node,
    sample_t: Node,
    r: usize,
    links_limit: usize,
    run: &RunBudget,
) -> CellVerdict {
    if g.edge_count() > links_limit {
        let e = EdgeLimitExceeded {
            links: g.edge_count(),
            limit: links_limit,
        };
        println!("    [skip] exhaustive cell: {e}; sampling instead");
        let property = Property::Tolerance {
            source: sample_s,
            destination: sample_t,
            r,
        };
        let sampler = RandomAdversary::new(1950, 12, 1);
        return match sampler.search_with_budget(g, pattern, property, run) {
            Ok(Verdict::Indeterminate(progress)) => CellVerdict::Sampled {
                pair: (sample_s, sample_t),
                draws: progress.sampled_trials,
            },
            _ => CellVerdict::Failed,
        };
    }
    for s in g.nodes() {
        for t in g.nodes() {
            if s == t {
                continue;
            }
            let property = Property::Tolerance {
                source: s,
                destination: t,
                r,
            };
            match check(g, pattern, property, run) {
                Ok(Verdict::Proven) => {}
                Ok(Verdict::Refuted(_)) | Err(_) => return CellVerdict::Failed,
                Ok(Verdict::Indeterminate(progress)) => return CellVerdict::Inconclusive(progress),
            }
        }
    }
    CellVerdict::Proven
}
