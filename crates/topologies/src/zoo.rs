//! A deterministic synthetic Topology Zoo.
//!
//! The Internet Topology Zoo networks used in the paper's §VIII range from 3
//! to 754 nodes and 4 to 895 links, with most instances being small
//! (tens of nodes), sparse (density `|E|/|V|` around 1.0–1.5) and planar, a
//! large tree-like / ring-like fraction, and a thin tail of dense cores.  The
//! generator below reproduces that envelope from a seeded RNG by mixing five
//! network archetypes.

use crate::builtin::Topology;
use frr_graph::{generators, Graph, Node};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the synthetic zoo.
#[derive(Debug, Clone)]
pub struct ZooConfig {
    /// Number of synthetic networks to generate.
    pub count: usize,
    /// RNG seed — the zoo is fully reproducible from it.
    pub seed: u64,
    /// Cap on the number of nodes (the paper's largest instance has 754; the
    /// default cap keeps the full classification sweep fast).
    pub max_nodes: usize,
}

impl Default for ZooConfig {
    fn default() -> Self {
        ZooConfig {
            count: 250,
            seed: 0xD5_2022,
            max_nodes: 160,
        }
    }
}

/// Generates the synthetic zoo.
pub fn synthetic_zoo(config: &ZooConfig) -> Vec<Topology> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut out = Vec::with_capacity(config.count);
    for i in 0..config.count {
        let archetype = i % 10;
        let t = match archetype {
            // ~30%: tree-like access / national research networks.
            0..=2 => access_tree(&mut rng, config.max_nodes, i),
            // ~20%: ring backbones with a few chords.
            3 | 4 => ring_with_chords(&mut rng, config.max_nodes, i),
            // ~20%: sparse partial meshes (tree plus extra links).
            5 | 6 => sparse_mesh(&mut rng, config.max_nodes, i),
            // ~20%: dual-homed / hub-and-spoke metros.
            7 | 8 => dual_homed(&mut rng, config.max_nodes, i),
            // ~10%: dense cores with stub customers.
            _ => dense_core(&mut rng, i),
        };
        out.push(t);
    }
    out
}

/// The full case-study data set: bundled real topologies plus the synthetic
/// zoo (260 networks with the default configuration, matching the paper's
/// instance count).
pub fn full_zoo(config: &ZooConfig) -> Vec<Topology> {
    let mut all = crate::builtin::builtin_topologies();
    all.extend(synthetic_zoo(config));
    all
}

fn access_tree(rng: &mut StdRng, max_nodes: usize, i: usize) -> Topology {
    let n = rng.gen_range(4..=max_nodes.min(90));
    let graph = generators::random_tree(n, rng);
    Topology {
        name: format!("SynTree{i:03}"),
        graph,
        real: false,
    }
}

fn ring_with_chords(rng: &mut StdRng, max_nodes: usize, i: usize) -> Topology {
    let n = rng.gen_range(5..=max_nodes.min(60));
    let mut graph = generators::cycle(n);
    let chords = rng.gen_range(0..=(n / 6));
    for _ in 0..chords {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u != v {
            graph.add_edge(Node(u), Node(v));
        }
    }
    Topology {
        name: format!("SynRing{i:03}"),
        graph,
        real: false,
    }
}

fn sparse_mesh(rng: &mut StdRng, max_nodes: usize, i: usize) -> Topology {
    let n = rng.gen_range(8..=max_nodes.min(120));
    let extra = rng.gen_range(1..=(n / 3).max(2));
    let graph = generators::random_connected(n, extra, rng);
    Topology {
        name: format!("SynMesh{i:03}"),
        graph,
        real: false,
    }
}

fn dual_homed(rng: &mut StdRng, max_nodes: usize, i: usize) -> Topology {
    // Two (or three) core hubs, every access node homed to two of them, plus a
    // few lateral links: the classic metro aggregation shape that produces
    // K2,3 minors.
    let hubs = rng.gen_range(2..=3usize);
    let access = rng.gen_range(4..=max_nodes.min(40));
    let n = hubs + access;
    let mut graph = Graph::new(n);
    for h in 0..hubs {
        for h2 in (h + 1)..hubs {
            graph.add_edge(Node(h), Node(h2));
        }
    }
    for a in hubs..n {
        let h1 = rng.gen_range(0..hubs);
        let mut h2 = rng.gen_range(0..hubs);
        if hubs > 1 {
            while h2 == h1 {
                h2 = rng.gen_range(0..hubs);
            }
        }
        graph.add_edge(Node(a), Node(h1));
        if hubs > 1 {
            graph.add_edge(Node(a), Node(h2));
        }
    }
    Topology {
        name: format!("SynDual{i:03}"),
        graph,
        real: false,
    }
}

fn dense_core(rng: &mut StdRng, i: usize) -> Topology {
    // A small dense core (near-clique) with stub customers hanging off it.
    let core = rng.gen_range(5..=9usize);
    let stubs = rng.gen_range(2..=10usize);
    let n = core + stubs;
    let mut graph = Graph::new(n);
    for u in 0..core {
        for v in (u + 1)..core {
            if rng.gen_bool(0.8) {
                graph.add_edge(Node(u), Node(v));
            }
        }
    }
    for s in core..n {
        graph.add_edge(Node(s), Node(rng.gen_range(0..core)));
    }
    // Make sure the core itself is connected.
    for u in 1..core {
        graph.add_edge(Node(u - 1), Node(u));
    }
    Topology {
        name: format!("SynCore{i:03}"),
        graph,
        real: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frr_graph::connectivity::is_connected;
    use frr_graph::planarity::is_planar;

    #[test]
    fn zoo_is_reproducible() {
        let cfg = ZooConfig {
            count: 30,
            ..Default::default()
        };
        let a = synthetic_zoo(&cfg);
        let b = synthetic_zoo(&cfg);
        assert_eq!(a.len(), 30);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.graph, y.graph);
        }
    }

    #[test]
    fn zoo_matches_the_paper_envelope() {
        let cfg = ZooConfig {
            count: 120,
            ..Default::default()
        };
        let zoo = synthetic_zoo(&cfg);
        for t in &zoo {
            assert!(t.graph.node_count() >= 3);
            assert!(t.graph.node_count() <= cfg.max_nodes);
            assert!(!t.real);
        }
        // Mostly sparse: the median density must stay below 2.0 like the real
        // zoo's; a few denser outliers are expected.
        let mut densities: Vec<f64> = zoo.iter().map(|t| t.graph.density()).collect();
        densities.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(densities[densities.len() / 2] < 2.0);
        // Most (but not necessarily all) instances are connected.
        let connected = zoo.iter().filter(|t| is_connected(&t.graph)).count();
        assert!(connected * 10 >= zoo.len() * 9);
    }

    #[test]
    fn synthetic_zoo_is_mostly_planar_like_the_real_one() {
        let zoo = synthetic_zoo(&ZooConfig {
            count: 60,
            ..Default::default()
        });
        let planar = zoo.iter().filter(|t| is_planar(&t.graph)).count();
        assert!(planar * 2 > zoo.len(), "{planar} of {} planar", zoo.len());
    }

    #[test]
    fn full_zoo_has_260_networks_by_default() {
        let all = full_zoo(&ZooConfig::default());
        assert_eq!(all.len(), 260);
        assert!(all.iter().take(10).all(|t| t.real));
    }
}
