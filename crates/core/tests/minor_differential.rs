//! Differential suite pinning the packed minor engine against the old
//! clone-based search (frr-graph's `tests/support/minor_reference.rs`): on
//! every graph pool the paper's classification touches — the Fig. 9
//! landscape, the bundled real topologies, the synthetic zoo, seeded random
//! graphs, hub-and-spoke hosts and edge-subdivided random graphs (the shapes
//! the cycle-rank and degree-dominance bounds cut) — a definite answer from
//! the old engine must be reproduced exactly, and `Unknown` is only allowed
//! to *shrink* (the packed engine may decide cases the old engine could not
//! afford, never the other way around).

#[path = "../../graph/tests/support/minor_reference.rs"]
mod reference;

use frr_core::landscape::figure9_entries;
use frr_graph::minors::{forbidden, has_minor_with_budget, MinorAnswer};
use frr_graph::{generators, Graph, Node};
use frr_topologies::{builtin_topologies, synthetic_zoo, ZooConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The six forbidden minors of the paper.
fn paper_patterns() -> Vec<(&'static str, Graph)> {
    vec![
        ("K4", forbidden::k4()),
        ("K2,3", forbidden::k2_3()),
        ("K5^-1", forbidden::k5_minus1()),
        ("K3,3^-1", forbidden::k33_minus1()),
        ("K7^-1", forbidden::k7_minus1()),
        ("K4,4^-1", forbidden::k44_minus1()),
    ]
}

/// Asserts the agreement contract for one (host, pattern, budget) triple.
fn check(host: &Graph, host_name: &str, pattern: &Graph, pattern_name: &str, budget: u64) {
    let old = reference::has_minor_with_budget(host, pattern, budget);
    let new = has_minor_with_budget(host, pattern, budget);
    match old {
        MinorAnswer::Yes | MinorAnswer::No => assert_eq!(
            new, old,
            "packed engine contradicts clone-based engine on {host_name} vs {pattern_name} \
             (budget {budget})"
        ),
        // The packed budget counts contractions (one per explored non-root
        // state) while the old budget also charged the root, so the packed
        // engine explores at least as much: it may decide what the old
        // engine could not, and any definite answer it adds is trusted
        // because both engines are exact when they answer.
        MinorAnswer::Unknown => {}
    }
}

#[test]
fn figure9_graphs_agree() {
    for entry in figure9_entries() {
        for (pname, pattern) in paper_patterns() {
            check(&entry.graph, entry.name, &pattern, pname, 200_000);
        }
    }
}

#[test]
fn builtin_topologies_agree() {
    for t in builtin_topologies() {
        for (pname, pattern) in paper_patterns() {
            check(&t.graph, &t.name, &pattern, pname, 5_000);
        }
    }
}

#[test]
fn synthetic_zoo_agrees() {
    // A zoo slice keeps the clone-based engine affordable in debug builds;
    // the budget matches what it can explore in reasonable time.
    let zoo = synthetic_zoo(&ZooConfig {
        count: 30,
        max_nodes: 60,
        ..ZooConfig::default()
    });
    let patterns = paper_patterns();
    for t in zoo {
        for (pname, pattern) in &patterns {
            check(&t.graph, &t.name, pattern, pname, 1_500);
        }
    }
}

#[test]
fn seeded_random_graphs_agree() {
    let mut rng = StdRng::seed_from_u64(0xD1FF_2026);
    let patterns = paper_patterns();
    for i in 0..40 {
        let n = 6 + (i % 9);
        let g = match i % 3 {
            0 => generators::gnp(n, 0.25, &mut rng),
            1 => generators::gnp(n, 0.5, &mut rng),
            _ => generators::random_connected(n, i % 4, &mut rng),
        };
        let name = format!("random-{i}");
        for (pname, pattern) in &patterns {
            check(&g, &name, pattern, pname, 100_000);
        }
    }
}

/// `hubs` pairwise-adjacent core hubs, every access node homed to two of
/// them, plus `lateral` random access–access links: the zoo's dual-homed
/// metro shape, where few nodes have degree ≥ 3.
fn hub_and_spoke(hubs: usize, access: usize, lateral: usize, rng: &mut StdRng) -> Graph {
    let mut g = generators::complete(hubs);
    for _ in 0..access {
        let a = g.add_node();
        let h1 = rng.gen_range(0..hubs);
        let h2 = (h1 + rng.gen_range(1..hubs)) % hubs;
        g.add_edge(a, Node(h1));
        g.add_edge(a, Node(h2));
    }
    for _ in 0..lateral {
        let u = rng.gen_range(hubs..hubs + access);
        let v = rng.gen_range(hubs..hubs + access);
        if u != v {
            g.add_edge(Node(u), Node(v));
        }
    }
    g
}

/// `g` with `k` randomly chosen edges each replaced by a two-edge path.
fn subdivide_edges(g: &Graph, k: usize, rng: &mut StdRng) -> Graph {
    let edges = g.edges();
    let mut split = vec![false; edges.len()];
    for _ in 0..k.min(edges.len()) {
        split[rng.gen_range(0..edges.len())] = true;
    }
    let mut out = Graph::new(g.node_count());
    for (e, split) in edges.iter().zip(split) {
        let (u, v) = e.endpoints();
        if split {
            let x = out.add_node();
            out.add_edge(u, x);
            out.add_edge(x, v);
        } else {
            out.add_edge(u, v);
        }
    }
    out
}

#[test]
fn hub_and_spoke_hosts_agree() {
    let mut rng = StdRng::seed_from_u64(0x4B_5350_4B45);
    let patterns = paper_patterns();
    for i in 0..60 {
        let hubs = 2 + i % 3;
        let access = 3 + i % 6;
        let g = hub_and_spoke(hubs, access, i % 3, &mut rng);
        let name = format!("hub-and-spoke-{i}");
        for (pname, pattern) in &patterns {
            check(&g, &name, pattern, pname, 100_000);
        }
    }
}

#[test]
fn subdivided_random_graphs_agree() {
    let mut rng = StdRng::seed_from_u64(0x5_0B01_71DE);
    let patterns = paper_patterns();
    for i in 0..60 {
        let n = 6 + i % 5;
        let g = match i % 2 {
            0 => generators::gnp(n, 0.5, &mut rng),
            _ => generators::random_connected(n, 2 + i % 4, &mut rng),
        };
        let g = subdivide_edges(&g, 1 + i % 3, &mut rng);
        let name = format!("subdivided-{i}");
        for (pname, pattern) in &patterns {
            check(&g, &name, pattern, pname, 100_000);
        }
    }
}

#[test]
fn tiny_budgets_never_flip_answers() {
    // At starvation budgets the packed engine must degrade to Unknown (or a
    // correct early answer), never to a wrong definite answer.
    let hosts = [
        generators::petersen(),
        generators::grid(4, 4),
        generators::complete(7),
        generators::hypercube(4),
    ];
    for g in &hosts {
        for (pname, pattern) in paper_patterns() {
            let exact = has_minor_with_budget(g, &pattern, 1_000_000);
            if exact.is_unknown() {
                // Some (host, pattern) pairs (e.g. K7^-1 in mid-size planar
                // hosts) are genuinely out of reach for the exact search;
                // there is no reference verdict to pin against.
                continue;
            }
            for budget in [0, 1, 2, 5, 20, 100] {
                let ans = has_minor_with_budget(g, &pattern, budget);
                assert!(
                    ans == exact || ans.is_unknown(),
                    "budget {budget} flipped {pname} on {} from {exact:?} to {ans:?}",
                    g.summary()
                );
            }
        }
    }
}
