//! The packed minor engine against the clone-based reference search on
//! named and multi-word hosts, and the reference's own subgraph-isomorphism
//! check.

#[path = "support/minor_reference.rs"]
mod reference;

use frr_graph::minors::{forbidden, has_minor_with_budget, DEFAULT_BUDGET};
use frr_graph::{generators, Graph, Node};
use reference::subgraph_isomorphic;

#[test]
fn packed_engine_agrees_with_reference_on_named_graphs() {
    let hosts = [
        generators::petersen(),
        generators::grid(3, 4),
        generators::wheel(6),
        generators::maximal_outerplanar(9),
        generators::complete_minus(7, 1),
        generators::complete_bipartite_minus(4, 4, 1),
        generators::hypercube(3),
    ];
    let patterns = [
        forbidden::k4(),
        forbidden::k2_3(),
        forbidden::k5_minus1(),
        forbidden::k33_minus1(),
    ];
    for g in &hosts {
        for h in &patterns {
            let new = has_minor_with_budget(g, h, DEFAULT_BUDGET);
            let old = reference::has_minor_with_budget(g, h, DEFAULT_BUDGET);
            assert_eq!(new, old, "engines disagree on {} vs pattern", g.summary());
        }
    }
}

/// `hubs` pairwise-adjacent hubs; access node `i` is homed to hubs
/// `i % hubs` and `(i + 1) % hubs`.
fn hub_and_spoke(hubs: usize, access: usize) -> Graph {
    let mut g = generators::complete(hubs);
    for i in 0..access {
        let a = g.add_node();
        g.add_edge(a, Node(i % hubs));
        g.add_edge(a, Node((i + 1) % hubs));
    }
    g
}

/// `g` with every edge replaced by a path through `k` new nodes.
fn subdivided(g: &Graph, k: usize) -> Graph {
    let mut out = Graph::new(g.node_count());
    for e in g.edges() {
        let (u, v) = e.endpoints();
        let mut prev = u;
        for _ in 0..k {
            let x = out.add_node();
            out.add_edge(prev, x);
            prev = x;
        }
        out.add_edge(prev, v);
    }
    out
}

#[test]
fn compacted_root_matches_reference_on_multi_word_hosts() {
    // Every host has more than 64 nodes (two words per row) and reduces
    // to a one-word root for patterns of minimum degree ≥ 3.
    let hosts = [
        ("hub-and-spoke(4, 96)", hub_and_spoke(4, 96)),
        ("subdivided K5", subdivided(&generators::complete(5), 6)),
        (
            "subdivided K3,3",
            subdivided(&generators::complete_bipartite(3, 3), 7),
        ),
    ];
    let patterns = [
        forbidden::k4(),
        forbidden::k5_minus1(),
        forbidden::k33_minus1(),
        generators::complete(5),
    ];
    for (name, g) in &hosts {
        assert!(g.node_count() > 64, "{name}");
        for h in &patterns {
            let new = has_minor_with_budget(g, h, 50_000);
            let old = reference::has_minor_with_budget(g, h, 50_000);
            assert!(!new.is_unknown(), "{name}");
            assert_eq!(new, old, "{name}");
        }
    }
}

#[test]
fn subgraph_isomorphism_positive_and_negative() {
    // (host, pattern, whether the pattern is a subgraph of the host)
    let cases = [
        (generators::complete(4), generators::complete(3), true),
        (generators::cycle(5), generators::path(4), true),
        (generators::cycle(5), generators::complete(3), false),
        // K3,3 is bipartite, so triangle-free.
        (
            generators::complete_bipartite(3, 3),
            generators::complete(3),
            false,
        ),
        (generators::petersen(), generators::cycle(5), true),
    ];
    for (i, (g, h, expected)) in cases.into_iter().enumerate() {
        let mut budget = 1_000_000;
        assert_eq!(
            subgraph_isomorphic(&g, &h, &mut budget),
            Some(expected),
            "case {i}"
        );
    }
}

#[test]
fn subgraph_isomorphism_budget_exhaustion() {
    let mut budget = 1;
    // With a tiny budget on a non-trivial instance we may get None; the
    // call must not panic and must leave the budget at 0 or unchanged.
    let res = subgraph_isomorphic(&generators::petersen(), &generators::cycle(9), &mut budget);
    assert!(res.is_none() || res == Some(true) || res == Some(false));
}
