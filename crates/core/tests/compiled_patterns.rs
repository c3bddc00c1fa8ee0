//! Differential suite for the per-model pattern compilers: every constructive
//! pattern of the paper (priority tables, Hamiltonian/arborescence failover,
//! outerplanar right-hand rules, distance patterns, Algorithm 1) must behave
//! **byte-identically** compiled and interpreted — same outcomes, paths, tour
//! walks and checker counterexamples — over all Fig. 9 graphs, the builtin
//! real-world topologies, and seeded random graphs × failure sets.

use frr_core::algorithms::{
    ArborescenceFailoverPattern, BipartiteDistance3Pattern, Distance2Pattern,
    HamiltonianTouringPattern, K33Minus2DestPattern, K33SourcePattern, K5Minus2DestPattern,
    K5SourcePattern, OuterplanarDestinationPattern, OuterplanarTouringPattern,
};
use frr_core::landscape::figure9_entries;
use frr_graph::outerplanar::is_outerplanar;
use frr_graph::{generators, Graph};
use frr_routing::compiled::{CompilePattern, CompiledSim};
use frr_routing::failure::FailureSet;
use frr_routing::model::RoutingModel;
use frr_routing::simulator::{route, state_space_bound, tour};
use frr_topologies::builtin_topologies;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic sample of failure masks of `g`: every mask for tiny edge
/// counts, a seeded sample otherwise.
fn sample_masks(g: &Graph, seed: u64) -> Vec<u64> {
    let m = g.edge_count();
    if m <= 9 {
        return (0..1u64 << m).collect();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut masks = vec![0u64];
    if m <= 62 {
        masks.push((1u64 << m) - 1);
        masks.extend((0..120).map(|_| rng.gen_range(0..1u64 << m)));
    }
    masks
}

/// Asserts compiled ≡ interpreted for one pattern on one graph: full
/// `RouteResult` equality for every sampled mask × ordered pair, and full
/// `TourResult` equality for touring-model patterns.
fn assert_compiled_matches<P: CompilePattern>(g: &Graph, pattern: &P, seed: u64) {
    let Some(cp) = pattern.compile(g) else {
        panic!("{} must compile on {}", pattern.name(), g.summary());
    };
    assert_eq!(cp.model(), pattern.model());
    let max_hops = state_space_bound(g);
    let mut sim = CompiledSim::new(&cp);
    let edges = g.edges();
    for mask in sample_masks(g, seed) {
        let failures = FailureSet::from_mask(&edges, &[mask]);
        sim.load_failures(&cp, &failures);
        if pattern.model() == RoutingModel::Touring {
            for start in g.nodes() {
                assert_eq!(
                    tour(g, &failures, &cp, start, max_hops),
                    tour(g, &failures, pattern, start, max_hops),
                    "{} on {}, mask {mask:#b}, start {start}",
                    pattern.name(),
                    g.summary()
                );
            }
        }
        for s in g.nodes() {
            for t in g.nodes() {
                assert_eq!(
                    sim.route(&cp, s, t, max_hops),
                    route(g, &failures, pattern, s, t, max_hops),
                    "{} on {}, mask {mask:#b}, {s}->{t}",
                    pattern.name(),
                    g.summary()
                );
            }
        }
    }
}

/// Runs every construction whose domain admits `g`.
fn check_all_applicable(g: &Graph, seed: u64) {
    let n = g.node_count();
    let m = g.edge_count();
    assert_compiled_matches(g, &Distance2Pattern::new(), seed);
    assert_compiled_matches(g, &BipartiteDistance3Pattern::new(g), seed);
    assert_compiled_matches(g, &OuterplanarDestinationPattern::new(g), seed);
    assert_compiled_matches(g, &ArborescenceFailoverPattern::greedy(g, 2), seed);
    if is_outerplanar(g) {
        let p = OuterplanarTouringPattern::new(g).expect("outerplanar");
        assert_compiled_matches(g, &p, seed);
    }
    if let Some(p) = HamiltonianTouringPattern::best_effort(g, 2) {
        assert_compiled_matches(g, &p, seed);
    }
    if n <= 5 {
        assert_compiled_matches(g, &K5SourcePattern::new(g), seed);
    }
    if n <= 6 && m <= 9 {
        assert_compiled_matches(g, &K33SourcePattern::new(g), seed);
    }
    if n <= 5 && m <= 8 {
        assert_compiled_matches(g, &K5Minus2DestPattern::new(g), seed);
    }
    if n <= 6 && m <= 7 {
        assert_compiled_matches(g, &K33Minus2DestPattern::new(g), seed);
    }
}

#[test]
fn constructions_compile_exactly_on_fig9_graphs() {
    for entry in figure9_entries() {
        check_all_applicable(&entry.graph, 0xF19);
    }
}

#[test]
fn constructions_compile_exactly_on_named_dense_graphs() {
    // The headline graphs of the positive theorems.
    let k5 = generators::complete(5);
    assert_compiled_matches(&k5, &K5SourcePattern::new(&k5), 1);
    assert_compiled_matches(&k5, &ArborescenceFailoverPattern::for_complete(5), 1);
    assert_compiled_matches(&k5, &HamiltonianTouringPattern::for_complete(5), 1);
    let k33 = generators::complete_bipartite(3, 3);
    assert_compiled_matches(&k33, &K33SourcePattern::new(&k33), 2);
    let k44 = generators::complete_bipartite(4, 4);
    assert_compiled_matches(
        &k44,
        &HamiltonianTouringPattern::for_complete_bipartite(4),
        3,
    );
    let k7 = generators::complete(7);
    assert_compiled_matches(&k7, &HamiltonianTouringPattern::for_complete(7), 4);
    assert_compiled_matches(&k7, &ArborescenceFailoverPattern::for_complete(7), 4);
    let k5m2 = generators::complete_minus(5, 2);
    assert_compiled_matches(&k5m2, &K5Minus2DestPattern::new(&k5m2), 5);
    let k33m2 = generators::complete_bipartite_minus(3, 3, 2);
    assert_compiled_matches(&k33m2, &K33Minus2DestPattern::new(&k33m2), 6);
}

#[test]
fn constructions_compile_exactly_on_builtin_topologies() {
    for topology in builtin_topologies() {
        let g = &topology.graph;
        if g.node_count() > 24 || g.edge_count() > 40 {
            continue; // keep the mask sampling meaningful and the test fast
        }
        check_all_applicable(g, 0xB111);
    }
}

#[test]
fn constructions_compile_exactly_on_seeded_random_graphs() {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for _ in 0..6 {
        let n = rng.gen_range(4..9);
        let extra = rng.gen_range(0..6);
        let g = generators::random_connected(n, extra, &mut rng);
        check_all_applicable(&g, 0x5EED);
    }
}

#[test]
fn exhaustive_checkers_agree_on_the_paper_theorems() {
    // End-to-end: the (internally compiled) exhaustive checkers must still
    // certify the paper's positive results on their home graphs.
    use frr_routing::budget::RunBudget;
    use frr_routing::resilience::{check, Property};
    let proven = |g, p: &dyn CompilePattern, property| {
        check(g, p, property, &RunBudget::unlimited())
            .unwrap()
            .is_proven()
    };
    let k5 = generators::complete(5);
    assert!(proven(&k5, &K5SourcePattern::new(&k5), Property::PERFECT));
    let k33 = generators::complete_bipartite(3, 3);
    assert!(proven(
        &k33,
        &K33SourcePattern::new(&k33),
        Property::PERFECT
    ));
    let k5m2 = generators::complete_minus(5, 2);
    assert!(proven(
        &k5m2,
        &K5Minus2DestPattern::new(&k5m2),
        Property::PERFECT
    ));
    let mop = generators::maximal_outerplanar(7);
    let p = OuterplanarTouringPattern::new(&mop).expect("outerplanar");
    assert!(proven(&mop, &p, Property::PERFECT_TOURING));
}
