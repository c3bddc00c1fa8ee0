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
use frr_routing::adversary::{Adversary, BruteForceAdversary, Counterexample, RandomAdversary};
use frr_routing::compiled::CompilePattern;
use frr_routing::resilience::{Property, EXHAUSTIVE_EDGE_LIMIT};

/// A generic adversary suitable for the source–destination model on a small
/// graph: random search first (cheap), exhaustive search as a fallback.
pub fn source_destination_adversary<P: CompilePattern + ?Sized>(
    g: &Graph,
    pattern: &P,
    max_failures: usize,
) -> Option<Counterexample> {
    let random = RandomAdversary::new(4_000, max_failures, 0xC0FFEE);
    if let Some(ce) = random.find_counterexample(g, pattern) {
        return Some(ce);
    }
    if g.edge_count() <= 16 {
        return BruteForceAdversary::with_max_failures(max_failures)
            .find_counterexample(g, pattern);
    }
    None
}

/// A generic adversary for the destination-only model (same search strategy —
/// the models only differ in what the pattern reads).
pub fn destination_only_adversary<P: CompilePattern + ?Sized>(
    g: &Graph,
    pattern: &P,
    max_failures: usize,
) -> Option<Counterexample> {
    source_destination_adversary(g, pattern, max_failures)
}

/// A generic adversary for the touring model: exhaustive enumeration where
/// affordable, otherwise a bounded-failure search (the paper's touring
/// counterexamples embed `K4` / `K2,3` and need only a handful of failures —
/// Lemmas 3/4).  Graphs too large for even the bounded sweep fall back to
/// [`check`](frr_routing::resilience::check)'s reproducible sampler instead
/// of aborting.
pub fn touring_adversary<P: CompilePattern + ?Sized>(
    g: &Graph,
    pattern: &P,
) -> Option<Counterexample> {
    let max_failures = (g.edge_count() > EXHAUSTIVE_EDGE_LIMIT).then_some(4);
    crate::refute(g, pattern, Property::Touring { max_failures })
}
