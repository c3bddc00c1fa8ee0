//! Differential suites for the bitset planarity / outerplanarity stack:
//! the peel-based outerplanarity test against the apex+DMP baseline, the
//! vertex-deletion overlay against materialized deletion, planarity
//! against Wagner's theorem via both minor engines, and a digest pin of the
//! outerplanar embeddings the right-hand-rule patterns are built on.

#[path = "support/apex_outerplanar.rs"]
mod apex_outerplanar;
#[path = "support/minor_reference.rs"]
mod reference;

use apex_outerplanar::is_outerplanar_via_apex;
use frr_graph::minors::{self, forbidden};
use frr_graph::outerplanar::{
    is_outerplanar, is_outerplanar_without, outerplanar_embedding, OuterplanarScratch,
};
use frr_graph::planarity::is_planar;
use frr_graph::{generators, BitGraph, Graph, Node};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic, structurally varied pool of test graphs.
fn graph_pool() -> Vec<Graph> {
    // C5 beside the wheel W5, whose nodes follow the cycle's.
    let mut c5_w5 = Graph::from_edges(11, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
    for e in generators::wheel(5).edges() {
        c5_w5.add_edge(Node(e.u().index() + 5), Node(e.v().index() + 5));
    }
    let mut pool = vec![
        Graph::new(0),
        Graph::new(1),
        Graph::new(5),
        generators::path(9),
        generators::cycle(11),
        generators::star(7),
        generators::fan(8),
        generators::ladder(6),
        generators::maximal_outerplanar(12),
        generators::wheel(7),
        generators::grid(3, 5),
        generators::grid(4, 4),
        generators::petersen(),
        generators::hypercube(3),
        generators::hypercube(4),
        generators::complete(4),
        generators::complete(5),
        generators::complete(7),
        generators::complete_minus(5, 1),
        generators::complete_minus(7, 1),
        generators::complete_bipartite(2, 3),
        generators::complete_bipartite(3, 3),
        generators::complete_bipartite_minus(3, 3, 1),
        generators::complete_bipartite_minus(4, 4, 1),
        generators::cycle(70),
        c5_w5,
    ];
    // C4 + one chord: a theta graph with a direct strand (outerplanar, and a
    // known trap for naive peel rules).
    let mut c4_chord = generators::cycle(4);
    c4_chord.add_edge(Node(0), Node(2));
    pool.push(c4_chord);
    // C6 + crossing chords (contains K4): planar but not outerplanar.
    let mut crossed = generators::cycle(6);
    crossed.add_edge(Node(0), Node(3));
    crossed.add_edge(Node(1), Node(4));
    pool.push(crossed);

    let mut rng = StdRng::seed_from_u64(0x0F7E_2026);
    for i in 0..60 {
        let n = 4 + (i % 11);
        let p = match i % 4 {
            0 => 0.15,
            1 => 0.3,
            2 => 0.5,
            _ => 0.75,
        };
        pool.push(generators::gnp(n, p, &mut rng));
    }
    for i in 0..20 {
        let n = 6 + (i % 9);
        pool.push(generators::random_connected(n, i % 5, &mut rng));
    }
    for _ in 0..10 {
        let n = 8 + rng.gen_range(0..8usize);
        pool.push(generators::random_tree(n, &mut rng));
    }
    pool
}

#[test]
fn peel_outerplanarity_matches_apex_baseline() {
    for g in graph_pool() {
        assert_eq!(
            is_outerplanar(&g),
            is_outerplanar_via_apex(&g),
            "outerplanarity mismatch on {}",
            g.summary()
        );
    }
}

#[test]
fn overlay_probe_matches_materialized_deletion() {
    let mut scratch = OuterplanarScratch::default();
    for g in graph_pool() {
        let b = BitGraph::from_graph(&g);
        for t in g.nodes() {
            assert_eq!(
                is_outerplanar_without(&b, Some(t), &mut scratch),
                is_outerplanar_via_apex(&g.isolating(t)),
                "overlay probe mismatch on {} minus {t}",
                g.summary()
            );
        }
    }
}

#[test]
fn planarity_matches_wagner_forbidden_minors() {
    // Wagner: G is planar iff it has neither a K5 nor a K3,3 minor.  Checked
    // with both the packed engine and the clone-based reference engine.
    let k5 = generators::complete(5);
    let k33 = generators::complete_bipartite(3, 3);
    for g in graph_pool() {
        if g.node_count() > 16 {
            continue; // keep the exact minor searches instant
        }
        let planar = is_planar(&g);
        let wagner_packed =
            minors::has_minor(&g, &k5).is_no() && minors::has_minor(&g, &k33).is_no();
        assert_eq!(planar, wagner_packed, "Wagner mismatch on {}", g.summary());
        let wagner_ref = reference::has_minor_with_budget(&g, &k5, minors::DEFAULT_BUDGET).is_no()
            && reference::has_minor_with_budget(&g, &k33, minors::DEFAULT_BUDGET).is_no();
        assert_eq!(
            planar,
            wagner_ref,
            "reference Wagner mismatch on {}",
            g.summary()
        );
    }
}

#[test]
fn outerplanarity_matches_forbidden_minor_characterization() {
    // G is outerplanar iff it has neither a K4 nor a K2,3 minor.
    let k4 = forbidden::k4();
    let k23 = forbidden::k2_3();
    for g in graph_pool() {
        if g.node_count() > 16 {
            continue;
        }
        let outer = is_outerplanar(&g);
        let by_minors = minors::has_minor(&g, &k4).is_no() && minors::has_minor(&g, &k23).is_no();
        assert_eq!(outer, by_minors, "minor mismatch on {}", g.summary());
    }
}

/// `g`, every single-link deletion of `g` and every `g.isolating(t)`.
fn push_with_variants(g: Graph, out: &mut Vec<Graph>) {
    for e in g.edges() {
        out.push(g.without_edges([&e]));
    }
    for t in g.nodes() {
        out.push(g.isolating(t));
    }
    out.push(g);
}

/// The embedding pin's pool: [`graph_pool`] plus seeded random connected
/// graphs and trees, each with all its single-link deletions and
/// single-node isolations.
fn embedding_pool() -> Vec<Graph> {
    let mut bases = graph_pool();
    let mut rng = StdRng::seed_from_u64(0x0E4B_2026);
    for i in 0..360 {
        let n = 5 + i % 10;
        bases.push(if i % 3 == 0 {
            generators::random_tree(n, &mut rng)
        } else {
            generators::random_connected(n, i % 7, &mut rng)
        });
    }
    let mut pool = Vec::new();
    for g in bases {
        push_with_variants(g, &mut pool);
    }
    pool
}

/// FNV-1a over the little-endian bytes of `word`.
fn fnv_word(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
    }
}

#[test]
fn outerplanar_embeddings_are_pinned() {
    // Every rotation of every embedding, and every refusal, feeds one digest:
    // a change to the block order, the outer-cycle peel or the clockwise
    // neighbor order moves it.
    let pool = embedding_pool();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut outerplanar = 0usize;
    for g in &pool {
        let emb = outerplanar_embedding(g);
        assert_eq!(emb.is_some(), is_outerplanar(g), "{}", g.summary());
        match emb {
            None => fnv_word(&mut hash, u64::MAX),
            Some(emb) => {
                outerplanar += 1;
                for (v, rot) in emb.rotation.iter().enumerate() {
                    let mut sorted = rot.clone();
                    sorted.sort_unstable();
                    assert_eq!(sorted, g.neighbors_vec(Node(v)));
                    fnv_word(&mut hash, rot.len() as u64);
                    for u in rot {
                        fnv_word(&mut hash, u.index() as u64);
                    }
                }
            }
        }
    }
    assert_eq!(
        (pool.len(), outerplanar, hash),
        (10_498, 6_949, 0x6a60_a890_6a3d_c466)
    );
}
