//! Cross-crate integration tests: classification → pattern synthesis →
//! simulation on real topologies, and consistency between the theory layer
//! (classification / landscape) and the executable layer (patterns /
//! adversaries).

use fastreroute::prelude::*;
use frr_core::classify::ClassifyBudget;
use frr_routing::metrics::evaluate_random_workload;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// [`check`] under [`RunBudget::unlimited`].
fn unlimited<P: CompilePattern + ?Sized>(g: &Graph, pattern: &P, property: Property) -> Verdict {
    check(g, pattern, property, &RunBudget::unlimited()).expect("no probe panics")
}

#[test]
fn classification_matches_executable_reality_on_small_named_graphs() {
    // Positive cells of the landscape are backed by exhaustively verified
    // patterns; negative cells by verified counterexamples against a baseline.
    let k5 = generators::complete(5);
    let classes = classify(&k5);
    assert_eq!(classes.source_destination.label(), "Possible");
    assert!(unlimited(&k5, &K5SourcePattern::new(&k5), Property::PERFECT).is_proven());

    assert_eq!(classes.destination_only.label(), "Impossible");
    let baseline = ShortestPathPattern::new(&k5);
    assert!(unlimited(&k5, &baseline, Property::PERFECT).is_refuted());

    let k33 = generators::complete_bipartite(3, 3);
    assert_eq!(classify(&k33).source_destination.label(), "Possible");
    assert!(unlimited(&k33, &K33SourcePattern::new(&k33), Property::PERFECT).is_proven());
}

#[test]
fn outerplanar_topologies_get_working_touring_patterns() {
    for t in builtin_topologies() {
        let classes = classify(&t.graph);
        if classes.touring.label() != "Possible" {
            continue;
        }
        let pattern = OuterplanarTouringPattern::new(&t.graph)
            .unwrap_or_else(|| panic!("{} classified tourable but no embedding", t.name));
        if t.graph.edge_count() <= 18 {
            assert!(
                unlimited(&t.graph, &pattern, Property::PERFECT_TOURING).is_proven(),
                "touring failed on {}",
                t.name
            );
        }
    }
}

#[test]
fn sometimes_classified_topologies_serve_their_supported_destinations() {
    // The Netrail-like topology of the paper's Fig. 6: not outerplanar, but
    // destination-based routing works for some destinations.
    let netrail = builtin_topologies()
        .into_iter()
        .find(|t| t.name == "NetrailLike")
        .expect("bundled");
    let classes = classify(&netrail.graph);
    assert!(classes.planar);
    assert!(!classes.outerplanar);
    assert_eq!(classes.touring.label(), "Impossible");

    let pattern = OuterplanarDestinationPattern::new(&netrail.graph);
    let supported = pattern.supported_destinations();
    assert!(
        !supported.is_empty(),
        "Fig. 6 promises some destinations work"
    );
    for t in supported {
        assert!(
            unlimited(
                &netrail.graph,
                &pattern,
                Property::Routing {
                    max_failures: None,
                    destination: Some(t)
                }
            )
            .is_proven(),
            "supported destination {t} must be perfectly resilient"
        );
    }
}

#[test]
fn real_backbones_deliver_under_random_failures_with_paper_patterns() {
    let nsfnet = builtin_topologies()
        .into_iter()
        .find(|t| t.name == "Nsfnet")
        .expect("bundled");
    let g = &nsfnet.graph;
    let corollary5 = OuterplanarDestinationPattern::new(g);
    let baseline = ShortestPathPattern::new(g);
    let mut rng = StdRng::seed_from_u64(99);
    let stats_c5 = evaluate_random_workload(g, &corollary5, 500, 1, &mut rng);
    let mut rng = StdRng::seed_from_u64(99);
    let stats_base = evaluate_random_workload(g, &baseline, 500, 1, &mut rng);
    // Both must deliver most packets under single failures; the baseline must
    // not loop forever anywhere near always.
    assert!(stats_base.delivery_ratio() > 0.8);
    assert!(stats_c5.connected_scenarios == stats_base.connected_scenarios);
}

#[test]
fn zoo_classification_has_the_papers_qualitative_shape() {
    // A reduced zoo keeps the integration test fast while still exhibiting the
    // Fig. 7 shape: touring is the hardest model, source-destination the
    // easiest; a sizeable fraction is outerplanar (possible everywhere).
    let mut zoo = builtin_topologies();
    zoo.extend(synthetic_zoo(&ZooConfig {
        count: 40,
        ..Default::default()
    }));
    let budget = ClassifyBudget {
        minor_budget: 10_000,
        max_destination_probes: 40,
    };
    let mut touring_possible = 0usize;
    let mut dest_possible_or_sometimes = 0usize;
    let mut srcdest_impossible = 0usize;
    let mut touring_impossible = 0usize;
    for t in &zoo {
        let c = frr_core::classify::classify_with_budget(&t.graph, budget);
        if c.touring.label() == "Possible" {
            touring_possible += 1;
        } else {
            touring_impossible += 1;
        }
        if matches!(c.destination_only.label(), "Possible" | "Sometimes") {
            dest_possible_or_sometimes += 1;
        }
        if c.source_destination.label() == "Impossible" {
            srcdest_impossible += 1;
        }
    }
    let total = zoo.len();
    assert!(
        touring_possible * 100 / total >= 20,
        "roughly a third of the zoo should be outerplanar"
    );
    assert!(touring_impossible > 0);
    assert!(
        dest_possible_or_sometimes > touring_possible,
        "destination routing covers strictly more"
    );
    assert!(
        srcdest_impossible * 100 / total <= 15,
        "source-destination impossibility must be rare (paper: 2.7%)"
    );
}

#[test]
fn impossibility_and_possibility_frontier_is_one_link_apart_for_destination_routing() {
    // K5^-2 possible, K5^-1 impossible (Theorems 12 / 10) — executable proof.
    let k5m2 = generators::complete_minus(5, 2);
    assert!(unlimited(&k5m2, &K5Minus2DestPattern::new(&k5m2), Property::PERFECT).is_proven());
    let k5m1 = generators::complete_minus(5, 1);
    let victim = ShortestPathPattern::new(&k5m1);
    assert!(unlimited(&k5m1, &victim, Property::PERFECT).is_refuted());

    // K3,3^-2 possible, K3,3^-1 impossible (Theorems 13 / 11).
    let k33m2 = generators::complete_bipartite_minus(3, 3, 2);
    let p = K33Minus2DestPattern::new(&k33m2);
    assert!(unlimited(&k33m2, &p, Property::PERFECT).is_proven());
    let k33m1 = generators::complete_bipartite_minus(3, 3, 1);
    let victim = ShortestPathPattern::new(&k33m1);
    assert!(unlimited(&k33m1, &victim, Property::PERFECT).is_refuted());
}

#[test]
fn price_of_locality_end_to_end() {
    // Theorem 1 (r = 1) against the strongest shipped destination-based
    // pattern on K8, end to end through the facade crate.
    let g = generators::complete(8);
    let victim = ShortestPathPattern::new(&g);
    let ce = r_tolerance_counterexample(1, &victim).expect("K8 defeats the baseline");
    assert!(ce.failures.keeps_connected(&g, ce.source, ce.destination));
    let replay = route(&g, &ce.failures, &victim, ce.source, ce.destination, 10_000);
    assert!(!replay.outcome.is_delivered());

    // Theorem 14 scales it to larger complete graphs with O(n) failures.
    let g = generators::complete(10);
    let victim = ShortestPathPattern::new(&g);
    let res = complete_few_failures_counterexample(&g, &victim).expect("Theorem 14 construction");
    assert!(res.counterexample.failures.len() <= res.paper_budget + 6);
}
