//! Planarity testing via the Demoucron–Malgrange–Pertuiset (DMP) algorithm.
//!
//! The paper's §VIII classification needs planarity (and outerplanarity, see
//! [`crate::outerplanar`]) of every Topology-Zoo instance: non-planar networks
//! contain a `K5` or `K3,3` minor and therefore cannot be perfectly resilient
//! in the destination-based model, while outerplanar networks always are.
//!
//! The DMP algorithm embeds a biconnected graph face by face: starting from a
//! cycle, it repeatedly selects a *fragment* (bridge) of the not-yet-embedded
//! part, checks which faces can accommodate it (its attachment vertices must
//! all lie on the face boundary), and embeds one path of the fragment through
//! such a face, splitting it in two.  If a fragment ever has no admissible
//! face the graph is non-planar.  Running time is `O(n^2)`, amply fast for
//! the instance sizes in the case study (≤ 754 nodes).

use crate::bitgraph::BitGraph;
use crate::connectivity::bit_blocks;
use crate::graph::{Edge, Graph, Node};
use crate::traversal::find_cycle;
use std::collections::{BTreeSet, VecDeque};

/// Returns `true` if the graph admits a planar embedding.
pub fn is_planar(g: &Graph) -> bool {
    is_planar_bit(&BitGraph::from_graph(g))
}

/// [`is_planar`] on a [`BitGraph`].
pub fn is_planar_bit(g: &BitGraph) -> bool {
    let n = g.node_count();
    let m = g.edge_count();
    if n <= 4 {
        return true;
    }
    if m > 3 * n - 6 {
        return false;
    }
    // A graph is planar iff each of its biconnected components is planar.
    for block in bit_blocks(g, None) {
        if block.len() <= 4 {
            continue;
        }
        // The induced subgraph on a block's nodes is exactly the block, since
        // two blocks share at most one vertex.
        let mut index = vec![usize::MAX; n];
        for (i, &v) in block.iter().enumerate() {
            index[v.index()] = i;
        }
        let mut h = Graph::new(block.len());
        for &v in &block {
            for u in g.neighbors(v) {
                if u.index() > v.index() && index[u.index()] != usize::MAX {
                    h.add_edge(Node(index[v.index()]), Node(index[u.index()]));
                }
            }
        }
        if !dmp_biconnected_planar(&h) {
            return false;
        }
    }
    true
}

/// A fragment (bridge) of `g` relative to the embedded subgraph.
#[derive(Debug, Clone)]
struct Fragment {
    /// Embedded vertices the fragment attaches to.
    attachments: Vec<Node>,
    /// Non-embedded vertices of the fragment (empty for chord fragments).
    interior: Vec<Node>,
}

/// DMP planarity test for a biconnected graph with ≥ 5 nodes.
fn dmp_biconnected_planar(h: &Graph) -> bool {
    let n = h.node_count();
    let m = h.edge_count();
    if n <= 4 {
        return true;
    }
    if m > 3 * n - 6 {
        return false;
    }

    let initial_cycle = match find_cycle(h) {
        Some(c) => c,
        // A biconnected graph with ≥ 3 nodes always has a cycle; a forest is
        // trivially planar.
        None => return true,
    };

    let mut embedded_vertices: BTreeSet<Node> = initial_cycle.iter().copied().collect();
    let mut embedded_edges: BTreeSet<Edge> = BTreeSet::new();
    for i in 0..initial_cycle.len() {
        let e = Edge::new(
            initial_cycle[i],
            initial_cycle[(i + 1) % initial_cycle.len()],
        );
        embedded_edges.insert(e);
    }
    // Faces are stored as simple boundary cycles (vertex sequences).  The
    // partial embedding stays biconnected throughout, so boundaries are
    // simple cycles and vertices appear at most once per face.
    let mut faces: Vec<Vec<Node>> = vec![initial_cycle.clone(), initial_cycle];

    while embedded_edges.len() < m {
        let fragments = compute_fragments(h, &embedded_vertices, &embedded_edges);
        if fragments.is_empty() {
            // All remaining edges are already embedded (should not happen).
            break;
        }

        // For each fragment, collect its admissible faces.
        let mut best: Option<(usize, Vec<usize>)> = None; // (fragment idx, admissible face idxs)
        for (fi, frag) in fragments.iter().enumerate() {
            let admissible: Vec<usize> = faces
                .iter()
                .enumerate()
                .filter(|(_, face)| {
                    let face_set: BTreeSet<Node> = face.iter().copied().collect();
                    frag.attachments.iter().all(|a| face_set.contains(a))
                })
                .map(|(i, _)| i)
                .collect();
            if admissible.is_empty() {
                return false;
            }
            let better = match &best {
                None => true,
                Some((_, cur)) => admissible.len() < cur.len(),
            };
            if better {
                let single = admissible.len() == 1;
                best = Some((fi, admissible));
                if single {
                    break;
                }
            }
        }

        let (fi, admissible) = best.expect("at least one fragment exists");
        let frag = &fragments[fi];
        let face_idx = admissible[0];

        // Find a path through the fragment between two distinct attachments.
        let path = fragment_path(h, frag, &embedded_vertices);

        // Embed the path: mark its interior vertices and all its edges.
        for w in path.windows(2) {
            embedded_edges.insert(Edge::new(w[0], w[1]));
        }
        for &v in &path[1..path.len() - 1] {
            embedded_vertices.insert(v);
        }

        // Split the chosen face along the path.
        let face = faces.swap_remove(face_idx);
        let (f1, f2) = split_face(&face, &path);
        faces.push(f1);
        faces.push(f2);
    }
    true
}

/// Computes the fragments (bridges) of `h` relative to the embedded subgraph.
fn compute_fragments(
    h: &Graph,
    embedded_vertices: &BTreeSet<Node>,
    embedded_edges: &BTreeSet<Edge>,
) -> Vec<Fragment> {
    let mut fragments = Vec::new();

    // Chord fragments: a single non-embedded edge between two embedded vertices.
    for e in h.edges() {
        if !embedded_edges.contains(&e)
            && embedded_vertices.contains(&e.u())
            && embedded_vertices.contains(&e.v())
        {
            fragments.push(Fragment {
                attachments: vec![e.u(), e.v()],
                interior: vec![],
            });
        }
    }

    // Component fragments: connected components of the non-embedded vertices,
    // together with all their incident edges and embedded attachment vertices.
    let mut visited: BTreeSet<Node> = BTreeSet::new();
    for start in h.nodes() {
        if embedded_vertices.contains(&start) || visited.contains(&start) {
            continue;
        }
        let mut interior = Vec::new();
        let mut attachments = BTreeSet::new();
        let mut queue = VecDeque::new();
        visited.insert(start);
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            interior.push(v);
            for u in h.neighbors(v) {
                if embedded_vertices.contains(&u) {
                    attachments.insert(u);
                } else if !visited.contains(&u) {
                    visited.insert(u);
                    queue.push_back(u);
                }
            }
        }
        interior.sort_unstable();
        fragments.push(Fragment {
            attachments: attachments.into_iter().collect(),
            interior,
        });
    }

    fragments
}

/// Finds a simple path through the fragment between two distinct attachment
/// vertices whose interior vertices are fragment-interior vertices.
fn fragment_path(h: &Graph, frag: &Fragment, embedded: &BTreeSet<Node>) -> Vec<Node> {
    assert!(
        frag.attachments.len() >= 2,
        "a fragment of a biconnected graph has at least two attachments"
    );
    if frag.interior.is_empty() {
        // Chord fragment.
        return vec![frag.attachments[0], frag.attachments[1]];
    }
    let interior_set: BTreeSet<Node> = frag.interior.iter().copied().collect();
    let start = frag.attachments[0];
    // BFS from `start` through interior vertices, stopping at any other
    // embedded attachment vertex.
    let mut parent: std::collections::BTreeMap<Node, Node> = std::collections::BTreeMap::new();
    let mut queue = VecDeque::new();
    let mut seen: BTreeSet<Node> = BTreeSet::new();
    seen.insert(start);
    // Seed with interior neighbors of `start` that belong to this fragment.
    for u in h.neighbors(start) {
        if interior_set.contains(&u) && !seen.contains(&u) {
            seen.insert(u);
            parent.insert(u, start);
            queue.push_back(u);
        }
    }
    while let Some(v) = queue.pop_front() {
        for u in h.neighbors(v) {
            if u != start && embedded.contains(&u) && frag.attachments.contains(&u) {
                // Found the far endpoint; reconstruct the path.
                let mut path = vec![u, v];
                let mut cur = v;
                while cur != start {
                    cur = parent[&cur];
                    path.push(cur);
                }
                path.reverse();
                return path;
            }
            if interior_set.contains(&u) && !seen.contains(&u) {
                seen.insert(u);
                parent.insert(u, v);
                queue.push_back(u);
            }
        }
    }
    unreachable!("a fragment always connects two attachments through its interior")
}

/// Splits face `face` (a simple boundary cycle) along `path`, whose endpoints
/// lie on the face; returns the two new boundary cycles.
fn split_face(face: &[Node], path: &[Node]) -> (Vec<Node>, Vec<Node>) {
    let a = path[0];
    let b = *path.last().expect("path has at least two vertices");
    let len = face.len();
    let pos_a = face
        .iter()
        .position(|&v| v == a)
        .expect("a lies on the face");
    let pos_b = face
        .iter()
        .position(|&v| v == b)
        .expect("b lies on the face");
    let interior: Vec<Node> = path[1..path.len() - 1].to_vec();

    // Arc from a to b going forward (inclusive of both endpoints).
    let mut arc1 = Vec::new();
    let mut i = pos_a;
    loop {
        arc1.push(face[i]);
        if i == pos_b {
            break;
        }
        i = (i + 1) % len;
    }
    // Arc from b to a going forward (inclusive of both endpoints).
    let mut arc2 = Vec::new();
    let mut i = pos_b;
    loop {
        arc2.push(face[i]);
        if i == pos_a {
            break;
        }
        i = (i + 1) % len;
    }

    // New face 1: a → … → b along arc1, then back along the path interior.
    let mut f1 = arc1;
    f1.extend(interior.iter().rev().copied());
    // New face 2: b → … → a along arc2, then forward along the path interior.
    let mut f2 = arc2;
    f2.extend(interior.iter().copied());
    (f1, f2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn small_graphs_are_planar() {
        for n in 0..5 {
            assert!(is_planar(&generators::complete(n)), "K{n} must be planar");
        }
        assert!(is_planar(&generators::cycle(8)));
        assert!(is_planar(&generators::path(10)));
        assert!(is_planar(&generators::star(9)));
    }

    #[test]
    fn k5_and_k33_are_not_planar() {
        assert!(!is_planar(&generators::complete(5)));
        assert!(!is_planar(&generators::complete_bipartite(3, 3)));
    }

    #[test]
    fn k5_minus_edge_and_k33_minus_edge_are_planar() {
        assert!(is_planar(&generators::complete_minus(5, 1)));
        assert!(is_planar(&generators::complete_bipartite_minus(3, 3, 1)));
    }

    #[test]
    fn larger_complete_graphs_are_not_planar() {
        for n in 5..9 {
            assert!(
                !is_planar(&generators::complete(n)),
                "K{n} must be non-planar"
            );
        }
        assert!(!is_planar(&generators::complete_bipartite(4, 4)));
        assert!(!is_planar(&generators::complete_bipartite(3, 4)));
    }

    #[test]
    fn k7_minus_one_edge_is_not_planar() {
        assert!(!is_planar(&generators::complete_minus(7, 1)));
        assert!(!is_planar(&generators::complete_bipartite_minus(4, 4, 1)));
    }

    #[test]
    fn petersen_is_not_planar() {
        assert!(!is_planar(&generators::petersen()));
    }

    #[test]
    fn planar_families() {
        assert!(is_planar(&generators::grid(5, 6)));
        assert!(is_planar(&generators::wheel(8)));
        assert!(is_planar(&generators::maximal_outerplanar(10)));
        assert!(is_planar(&generators::fan(12)));
        assert!(is_planar(&generators::ladder(7)));
        assert!(is_planar(&generators::complete_bipartite(2, 7)));
        // Q3 (the cube) is planar, Q4 is not.
        assert!(is_planar(&generators::hypercube(3)));
        assert!(!is_planar(&generators::hypercube(4)));
    }

    #[test]
    fn disconnected_and_cut_vertex_graphs() {
        // Two K4 blocks sharing a cut vertex: planar.
        let mut g = generators::complete(4);
        for _ in 0..3 {
            g.add_node();
        }
        g.add_edge(Node(3), Node(4));
        g.add_edge(Node(3), Node(5));
        g.add_edge(Node(3), Node(6));
        g.add_edge(Node(4), Node(5));
        g.add_edge(Node(4), Node(6));
        g.add_edge(Node(5), Node(6));
        assert!(is_planar(&g));

        // K5 plus a separate path component: still non-planar.
        let mut g = generators::complete(5);
        let (a, b, c) = (g.add_node(), g.add_node(), g.add_node());
        g.add_edge(a, b);
        g.add_edge(b, c);
        assert!(!is_planar(&g));
    }

    #[test]
    fn subdivision_of_k5_is_not_planar() {
        // Subdivide every edge of K5 once: still non-planar (topological minor).
        let k5 = generators::complete(5);
        let mut g = Graph::new(5);
        for e in k5.edges() {
            let mid = g.add_node();
            g.add_edge(e.u(), mid);
            g.add_edge(mid, e.v());
        }
        assert!(!is_planar(&g));
    }

    #[test]
    fn dense_planar_triangulation() {
        // A maximal planar graph (octahedron): 6 nodes, 12 edges = 3n - 6.
        let octahedron = Graph::from_edges(
            6,
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (0, 4),
                (5, 1),
                (5, 2),
                (5, 3),
                (5, 4),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 1),
            ],
        );
        assert!(is_planar(&octahedron));
        // Adding any missing edge makes it K-something dense and non-planar
        // (octahedron + one of the two missing diagonals exceeds 3n-6? no:
        // 13 > 12 = 3*6-6, so the quick bound rejects it).
        let mut g = octahedron.clone();
        g.add_edge(Node(0), Node(5));
        assert!(!is_planar(&g));
    }
}
