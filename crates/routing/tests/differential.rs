//! Differential tests: the bitmask-overlay sweep engine must agree with the
//! plain clone/`FailureSet`-based simulator on every observable — routing
//! outcome and tour coverage of the compiled walks the overlay drives, and
//! connectivity filtering — across seeded random graphs and failure sets.

use frr_graph::connectivity::same_component;
use frr_graph::{generators, Graph, Node};
use frr_routing::budget::{RunBudget, Verdict};
use frr_routing::compiled::CompilePattern;
use frr_routing::failure::{FailureSet, GrayMasks};
use frr_routing::pattern::{RotorPattern, ShortestPathPattern};
use frr_routing::resilience::{check, Property};
use frr_routing::simulator::{route, state_space_bound, tour};
use frr_routing::sweep::SweepEngine;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seeded random connected graphs whose masks fit one word, spanning sparse
/// trees-plus-chords to dense little meshes.
fn random_graphs(seed: u64, count: usize) -> Vec<Graph> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let n = rng.gen_range(4..9);
            let extra = rng.gen_range(0..6);
            generators::random_connected(n, extra, &mut rng)
        })
        .collect()
}

/// A deterministic sample of failure masks of `g`: every mask for tiny edge
/// counts, a seeded sample otherwise.
fn sample_masks(g: &Graph, rng: &mut StdRng) -> Vec<u64> {
    let m = g.edge_count();
    if m <= 10 {
        return (0..1u64 << m).collect();
    }
    let mut masks = vec![0u64, (1u64 << m) - 1];
    masks.extend((0..200).map(|_| rng.gen_range(0..1u64 << m)));
    masks
}

#[test]
fn mask_overlay_routing_matches_clone_based_routing() {
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    for g in random_graphs(7, 12) {
        let patterns: Vec<Box<dyn CompilePattern>> = vec![
            Box::new(ShortestPathPattern::new(&g)),
            Box::new(RotorPattern::clockwise_with_shortcut(&g)),
        ];
        let tables: Vec<_> = patterns.iter().map(|p| p.compile(&g).unwrap()).collect();
        let max_hops = state_space_bound(&g);
        let mut engine = SweepEngine::new(&g);
        for mask in sample_masks(&g, &mut rng) {
            engine.load_mask(&[mask]);
            let failures = FailureSet::from_mask(engine.edges(), &[mask]);
            for (pattern, cp) in patterns.iter().zip(&tables) {
                for s in g.nodes() {
                    for t in g.nodes() {
                        let reference = route(&g, &failures, pattern.as_ref(), s, t, max_hops);
                        // Identical outcome from the overlay...
                        assert_eq!(
                            engine.route_outcome_compiled(cp, s, t, max_hops),
                            reference.outcome,
                            "graph {g:?}, mask {mask:#b}, {s}->{t}, {}",
                            pattern.name()
                        );
                        // ...and the replayed path is a valid failing/delivering
                        // walk of the same simulator (exactly what the checkers
                        // attach to counterexamples).
                        assert_eq!(reference.path.first(), Some(&s));
                        assert_eq!(reference.hops, reference.path.len() - 1);
                    }
                }
            }
        }
    }
}

#[test]
fn mask_overlay_connectivity_matches_surviving_graph() {
    let mut rng = StdRng::seed_from_u64(0xC0);
    for g in random_graphs(21, 12) {
        let mut engine = SweepEngine::new(&g);
        for mask in sample_masks(&g, &mut rng) {
            engine.load_mask(&[mask]);
            let failures = FailureSet::from_mask(engine.edges(), &[mask]);
            let surviving = failures.surviving_graph(&g);
            for s in g.nodes() {
                for t in g.nodes() {
                    assert_eq!(
                        engine.same_component(s, t),
                        same_component(&surviving, s, t),
                        "graph {g:?}, mask {mask:#b}, pair {s}-{t}"
                    );
                    assert_eq!(
                        failures.keeps_connected(&g, s, t),
                        same_component(&surviving, s, t)
                    );
                }
            }
        }
    }
}

#[test]
fn mask_overlay_touring_matches_clone_based_touring() {
    let mut rng = StdRng::seed_from_u64(0x70);
    for g in random_graphs(42, 8) {
        let p = RotorPattern::clockwise(&g);
        let cp = p.compile(&g).unwrap();
        let max_hops = state_space_bound(&g);
        let mut engine = SweepEngine::new(&g);
        for mask in sample_masks(&g, &mut rng) {
            engine.load_mask(&[mask]);
            let failures = FailureSet::from_mask(engine.edges(), &[mask]);
            for start in g.nodes() {
                assert_eq!(
                    engine.tour_covers_compiled(&cp, start, max_hops),
                    tour(&g, &failures, &p, start, max_hops).covered_component,
                    "graph {g:?}, mask {mask:#b}, start {start}"
                );
            }
        }
    }
}

#[test]
fn bounded_mask_enumeration_equals_filtered_full_walk() {
    // On real graphs (not just synthetic widths): the direct ≤ k Gray
    // enumeration, sorted, must be exactly the masks a full 2^m walk keeps.
    for g in [
        generators::complete(5),
        generators::petersen(),
        generators::complete_bipartite(3, 4),
    ] {
        let m = g.edge_count();
        for k in [0usize, 1, 2, 3] {
            let mut gray = GrayMasks::with_max_failures(m, Some(k));
            let mut direct = Vec::new();
            while gray.advance() {
                direct.push(gray.current()[0]);
            }
            direct.sort_unstable();
            let walk: Vec<u64> = (0..1u64 << m)
                .filter(|mask| mask.count_ones() as usize <= k)
                .collect();
            assert_eq!(direct, walk, "m={m}, k={k}");
        }
    }
}

#[test]
fn failure_set_round_trips_through_masks() {
    for g in random_graphs(99, 6) {
        let engine = SweepEngine::new(&g);
        let edges = engine.edges();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let mask = rng.gen_range(0..1u64 << edges.len());
            let set = FailureSet::from_mask(edges, &[mask]);
            assert_eq!(set.len(), mask.count_ones() as usize);
            let back = edges
                .iter()
                .enumerate()
                .filter(|(_, e)| set.contains_edge(**e))
                .fold(0u64, |acc, (i, _)| acc | 1 << i);
            assert_eq!(back, mask);
        }
    }
}

#[test]
fn checkers_agree_with_historical_clone_based_sweep() {
    // Full end-to-end differential: the rewritten exhaustive checker vs a
    // faithful reimplementation of the historical clone-per-failure-set loop,
    // walked in the checker's canonical Gray enumeration order.
    for g in random_graphs(1234, 6) {
        let p = ShortestPathPattern::new(&g);
        let max_hops = state_space_bound(&g);
        let reference = frr_routing::failure::GrayFailureSets::new(&g).find_map(|failures| {
            let surviving = failures.surviving_graph(&g);
            for s in g.nodes() {
                for t in g.nodes() {
                    if s == t || !same_component(&surviving, s, t) {
                        continue;
                    }
                    let r = route(&g, &failures, &p, s, t, max_hops);
                    if !r.outcome.is_delivered() {
                        return Some((failures, s, t, r.outcome, r.path));
                    }
                }
            }
            None
        });
        let checked = check(&g, &p, Property::PERFECT, &RunBudget::unlimited()).unwrap();
        match (checked, reference) {
            (Verdict::Proven, None) => {}
            (Verdict::Refuted(ce), Some((failures, s, t, outcome, path))) => {
                assert_eq!(ce.failures, failures, "graph {g:?}");
                assert_eq!((ce.source, ce.destination), (s, t));
                assert_eq!(ce.outcome, outcome);
                assert_eq!(ce.path, path);
            }
            (checked, reference) => panic!(
                "divergence on {g:?}: checker={checked:?}, reference-found={}",
                reference.is_some()
            ),
        }
    }
}

#[test]
fn empty_failure_set_helpers_behave() {
    let f = FailureSet::new();
    let g = generators::cycle(4);
    assert!(f.keeps_connected(&g, Node(0), Node(2)));
    assert!(f.keeps_r_connected(&g, Node(0), Node(2), 2));
    assert!(!f.keeps_r_connected(&g, Node(0), Node(2), 3));
}
