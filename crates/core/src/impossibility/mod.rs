//! The paper's negative results, as adversaries that produce *verified*
//! counterexamples: concrete failure sets under which a given candidate
//! pattern loops or strands a packet even though the promise (connectivity or
//! `r`-connectivity) holds.
//!
//! | Module | Paper result |
//! |--------|--------------|
//! | [`small_graphs`] | Theorems 6/7 & Corollaries 3/4 (`K7`, `K7^{-1}`, `K4,4`, `K4,4^{-1}`, source–destination), Theorems 10/11 (`K5^{-1}`, `K3,3^{-1}`, destination-only), Lemmas 3/4 (`K4`, `K2,3`, touring) |
//! | [`locality_price`] | Theorem 1 & Corollary 1 (no `r`-tolerance on `K_{3+5r}`), Theorem 2 (minor non-preservation of `r`-tolerance) |
//! | [`few_failures`] | Theorems 14/15 (failure budgets `6n−33` on `K_n` and `3a+4b−21` on `K_{a,b}` via the simulation argument) |
//!
//! The theorems quantify over *all* patterns; the adversaries here demonstrate
//! them constructively against any pattern they are handed (the test-suite
//! portfolio includes rotor sweeps, shortest-path failover, the distance-based
//! patterns and the arborescence baseline), always returning a counterexample
//! that has been re-verified by the simulator.

pub mod few_failures;
pub mod locality_price;
pub mod small_graphs;

pub use few_failures::{
    bipartite_few_failures_counterexample, bipartite_few_failures_with_budget,
    complete_few_failures_counterexample, complete_few_failures_with_budget, FewFailuresResult,
    FewFailuresVerdict,
};
pub use locality_price::{r_tolerance_counterexample, theorem2_supergraph_pattern};
pub use small_graphs::{
    k23_touring_counterexample, k33_minus1_destination_counterexample, k44_counterexample,
    k4_touring_counterexample, k5_minus1_destination_counterexample, k7_counterexample,
};

use frr_graph::Graph;
use frr_routing::adversary::{Counterexample, RandomAdversary};
use frr_routing::budget::{RunBudget, Verdict};
use frr_routing::compiled::CompilePattern;
use frr_routing::resilience::{check, Property};

/// A generic adversary for the source–destination and destination-only
/// models (they differ only in what the pattern reads): random search first
/// (cheap), then, on graphs with at most 16 links, the exhaustive
/// [`check`] of failure sets of at most `max_failures` links.  The 16 is
/// this adversary's own cost choice, not [`check`]'s sweep bound (which
/// admits 20 links); frr-bench's `routing_adversary` test pins it.
///
/// `Refuted` comes from either stage and `Proven` only from the exhaustive
/// one; on a larger graph a fruitless search is `Indeterminate`, with the
/// random stage's trial count in `sampled_trials`.
///
/// # Panics
///
/// Re-raises a probe panic: the pattern itself is broken.
pub fn routing_adversary<P: CompilePattern + ?Sized>(
    g: &Graph,
    pattern: &P,
    max_failures: usize,
) -> Verdict {
    let property = Property::bounded(max_failures);
    let random = RandomAdversary::new(4_000, max_failures, 0xC0FFEE);
    let verdict = random
        .search_with_budget(g, pattern, property, &RunBudget::unlimited())
        .and_then(|sampled| match sampled {
            Verdict::Indeterminate(_) if g.edge_count() <= 16 => {
                check(g, pattern, property, &RunBudget::unlimited())
            }
            sampled => Ok(sampled),
        });
    verdict.unwrap_or_else(|e| panic!("{e}"))
}

/// A generic adversary for the touring model: exhaustive enumeration where
/// affordable, otherwise a bounded-failure search (the paper's touring
/// counterexamples embed `K4` / `K2,3` and need only a handful of failures —
/// Lemmas 3/4).  Graphs too large for even the bounded sweep fall back to
/// [`check`]'s reproducible sampler instead of aborting.
pub fn touring_adversary<P: CompilePattern + ?Sized>(
    g: &Graph,
    pattern: &P,
) -> Option<Counterexample> {
    let max_failures = (!Property::PERFECT_TOURING.fits_sweep(g)).then_some(4);
    crate::refute(g, pattern, Property::Touring { max_failures })
}
