//! Structural graph operations: induced subgraphs, node deletion,
//! relabelling, disjoint union, and subgraph-isomorphism containment.
//!
//! These are the primitives behind the paper's minor arguments (§IV.A.1,
//! §V.A.1) and the simulation constructions of §VI.

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

/// The graph with node `v` (and its incident links) deleted; returns the new
/// graph and the mapping from new indices to original node identifiers.
pub fn delete_node(g: &Graph, v: Node) -> (Graph, Vec<Node>) {
    let keep: Vec<Node> = g.nodes().filter(|&u| u != v).collect();
    induced_subgraph(g, &keep)
}

/// Relabels the graph according to `perm`, where `perm[old] = new`.
///
/// # Panics
///
/// Panics if `perm` is not a permutation of `0..n`.
pub fn relabel(g: &Graph, perm: &[usize]) -> Graph {
    let n = g.node_count();
    assert_eq!(perm.len(), n, "permutation length mismatch");
    let mut seen = vec![false; n];
    for &p in perm {
        assert!(p < n && !seen[p], "not a permutation");
        seen[p] = true;
    }
    let mut h = Graph::new(n);
    for e in g.edges() {
        h.add_edge(Node(perm[e.u().index()]), Node(perm[e.v().index()]));
    }
    h
}

/// Disjoint union of two graphs; nodes of `b` are shifted by
/// `a.node_count()`.
pub fn disjoint_union(a: &Graph, b: &Graph) -> Graph {
    let offset = a.node_count();
    let mut g = Graph::new(offset + b.node_count());
    for e in a.edges() {
        g.add_edge(e.u(), e.v());
    }
    for e in b.edges() {
        g.add_edge(Node(e.u().index() + offset), Node(e.v().index() + offset));
    }
    g
}

/// Decides whether `h` is isomorphic to a subgraph of `g` (not necessarily
/// induced), via backtracking with degree pruning.
///
/// Intended for small pattern graphs `h` (≤ 10 nodes); the host graph `g` can
/// be larger.  `budget` bounds the number of recursive extension steps; when
/// it is exhausted the function returns `None` (undecided), otherwise
/// `Some(true)` / `Some(false)`.
pub fn subgraph_isomorphic(g: &Graph, h: &Graph, budget: &mut u64) -> Option<bool> {
    if h.node_count() > g.node_count() || h.edge_count() > g.edge_count() {
        return Some(false);
    }
    // Order pattern nodes by decreasing degree with a connectivity preference:
    // after the first node, prefer nodes adjacent to already-placed ones.
    let hn = h.node_count();
    let mut order: Vec<Node> = Vec::with_capacity(hn);
    let mut placed = vec![false; hn];
    while order.len() < hn {
        let next = h
            .nodes()
            .filter(|v| !placed[v.index()])
            .max_by_key(|&v| {
                let adj_placed = h.neighbors(v).filter(|u| placed[u.index()]).count();
                (adj_placed, h.degree(v))
            })
            .expect("an unplaced node exists");
        placed[next.index()] = true;
        order.push(next);
    }

    // Backtracking state bundled so the recursion carries one context instead
    // of eight loose arguments.
    struct Embedding<'a> {
        g: &'a Graph,
        h: &'a Graph,
        order: &'a [Node],
        g_nodes: Vec<Node>,
        assignment: Vec<Option<Node>>,
        used: Vec<bool>,
    }

    impl Embedding<'_> {
        fn extend(&mut self, depth: usize, budget: &mut u64) -> Option<bool> {
            if depth == self.order.len() {
                return Some(true);
            }
            if *budget == 0 {
                return None;
            }
            let hv = self.order[depth];
            let needed_degree = self.h.degree(hv);
            for i in 0..self.g_nodes.len() {
                let gv = self.g_nodes[i];
                if self.used[gv.index()] || self.g.degree(gv) < needed_degree {
                    continue;
                }
                // All already-assigned pattern neighbors must map to host neighbors.
                let ok = self
                    .h
                    .neighbors(hv)
                    .all(|hu| match self.assignment[hu.index()] {
                        Some(gu) => self.g.has_edge(gv, gu),
                        None => true,
                    });
                if !ok {
                    continue;
                }
                *budget = budget.saturating_sub(1);
                self.assignment[hv.index()] = Some(gv);
                self.used[gv.index()] = true;
                match self.extend(depth + 1, budget) {
                    Some(true) => return Some(true),
                    Some(false) => {}
                    None => {
                        self.assignment[hv.index()] = None;
                        self.used[gv.index()] = false;
                        return None;
                    }
                }
                self.assignment[hv.index()] = None;
                self.used[gv.index()] = false;
            }
            Some(false)
        }
    }

    let mut state = Embedding {
        g,
        h,
        order: &order,
        g_nodes: g.nodes().collect(),
        assignment: vec![None; hn],
        used: vec![false; g.node_count()],
    };
    state.extend(0, budget)
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

    #[test]
    fn delete_node_from_wheel() {
        let g = generators::wheel(4); // hub 0 + rim 1..4
        let (h, map) = delete_node(&g, Node(0));
        assert_eq!(h.node_count(), 4);
        assert_eq!(h.edge_count(), 4); // the rim cycle
        assert!(!map.contains(&Node(0)));
    }

    #[test]
    fn relabel_preserves_structure() {
        let g = generators::path(4);
        let h = relabel(&g, &[3, 2, 1, 0]);
        assert_eq!(h.edge_count(), 3);
        assert!(h.has_edge(Node(3), Node(2)));
        assert!(h.has_edge(Node(1), Node(0)));
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn relabel_rejects_non_permutation() {
        let g = generators::path(3);
        let _ = relabel(&g, &[0, 0, 1]);
    }

    #[test]
    fn disjoint_union_counts() {
        let a = generators::complete(3);
        let b = generators::path(4);
        let g = disjoint_union(&a, &b);
        assert_eq!(g.node_count(), 7);
        assert_eq!(g.edge_count(), 3 + 3);
        assert!(!crate::connectivity::is_connected(&g));
    }

    #[test]
    fn subgraph_isomorphism_positive_and_negative() {
        let mut budget = 1_000_000;
        // K3 is a subgraph of K4
        assert_eq!(
            subgraph_isomorphic(
                &generators::complete(4),
                &generators::complete(3),
                &mut budget
            ),
            Some(true)
        );
        // C5 contains P4
        let mut budget = 1_000_000;
        assert_eq!(
            subgraph_isomorphic(&generators::cycle(5), &generators::path(4), &mut budget),
            Some(true)
        );
        // C5 does not contain K3
        let mut budget = 1_000_000;
        assert_eq!(
            subgraph_isomorphic(&generators::cycle(5), &generators::complete(3), &mut budget),
            Some(false)
        );
        // K3,3 does not contain K3 (bipartite, triangle-free)
        let mut budget = 1_000_000;
        assert_eq!(
            subgraph_isomorphic(
                &generators::complete_bipartite(3, 3),
                &generators::complete(3),
                &mut budget
            ),
            Some(false)
        );
        // Petersen contains C5
        let mut budget = 1_000_000;
        assert_eq!(
            subgraph_isomorphic(&generators::petersen(), &generators::cycle(5), &mut budget),
            Some(true)
        );
    }

    #[test]
    fn subgraph_isomorphism_budget_exhaustion() {
        let mut budget = 1;
        // With a tiny budget on a non-trivial instance we may get None; the
        // call must not panic and must leave the budget at 0 or unchanged.
        let res = subgraph_isomorphic(&generators::petersen(), &generators::cycle(9), &mut budget);
        assert!(res.is_none() || res == Some(true) || res == Some(false));
    }
}
