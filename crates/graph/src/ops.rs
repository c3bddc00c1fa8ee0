//! Structural graph operations: the induced subgraph that the simulation
//! constructions of §VI (Theorems 14 and 15) replay the small graph's
//! adversary on.

use crate::graph::{Graph, Node};
use std::collections::BTreeMap;

/// The induced subgraph on `keep`, together with the mapping from new node
/// indices back to the original node identifiers.
///
/// Nodes in `keep` are compacted to `0..keep.len()` preserving relative order;
/// duplicate entries are ignored.
pub fn induced_subgraph(g: &Graph, keep: &[Node]) -> (Graph, Vec<Node>) {
    let mut sorted: Vec<Node> = keep.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let index_of: BTreeMap<Node, usize> = sorted.iter().enumerate().map(|(i, &v)| (v, i)).collect();
    let mut h = Graph::new(sorted.len());
    for (i, &v) in sorted.iter().enumerate() {
        for u in g.neighbors(v) {
            if let Some(&j) = index_of.get(&u) {
                if i < j {
                    h.add_edge(Node(i), Node(j));
                }
            }
        }
    }
    (h, sorted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn induced_subgraph_of_cycle() {
        let g = generators::cycle(5);
        let (h, map) = induced_subgraph(&g, &[Node(0), Node(1), Node(2)]);
        assert_eq!(h.node_count(), 3);
        assert_eq!(h.edge_count(), 2);
        assert_eq!(map, vec![Node(0), Node(1), Node(2)]);
        // duplicates ignored
        let (h2, _) = induced_subgraph(&g, &[Node(0), Node(0), Node(1)]);
        assert_eq!(h2.node_count(), 2);
    }
}
