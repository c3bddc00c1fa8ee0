//! Outerplanarity testing and outerplanar embeddings (rotation systems).
//!
//! Outerplanar graphs are the exactly-tourable graphs of the paper
//! (Corollary 6): a graph admits a perfectly resilient touring pattern iff it
//! is outerplanar, and the positive side is realized by the right-hand rule
//! on an outerplanar embedding ([2, §6.2]).  The embedding computed here
//! (a rotation system in which every node lies on the outer face) is what
//! `frr-core`'s outerplanar touring and destination-routing algorithms
//! consume.

use crate::bitgraph::{BitGraph, BitIter};
use crate::connectivity::bit_blocks;
use crate::graph::{Graph, Node};

/// Number of bits per adjacency word.
const WORD_BITS: usize = u64::BITS as usize;

/// Returns `true` if the graph is outerplanar (has a planar embedding with
/// every node on the outer face).
pub fn is_outerplanar(g: &Graph) -> bool {
    is_outerplanar_bit(&BitGraph::from_graph(g))
}

/// [`is_outerplanar`] on a [`BitGraph`].
pub fn is_outerplanar_bit(g: &BitGraph) -> bool {
    is_outerplanar_without(g, None, &mut OuterplanarScratch::default())
}

/// Reusable scratch for [`is_outerplanar_without`]: the per-block working
/// adjacency rows, the peel journal and the reconstruction cycle.  A caller
/// probing many destinations (the paper's "sometimes" sweep) reuses one
/// scratch across all probes, so the peel itself allocates nothing in the
/// steady state; the remaining per-probe allocations are the block
/// decomposition's small DFS arrays in [`bit_blocks`].
#[derive(Default)]
pub struct OuterplanarScratch {
    rows: Vec<u64>,
    block_mask: Vec<u64>,
    active: Vec<u64>,
    peeled: Vec<(u32, u32, u32)>,
    cycle: Vec<u32>,
}

/// Returns `true` if `g` minus the optionally `removed` vertex is outerplanar
/// — without materializing the deleted graph (a vertex-deletion overlay: the
/// removed vertex is masked out of the block decomposition and the per-block
/// peel).
///
/// The test runs per biconnected block: a block on ≥ 3 nodes is outerplanar
/// iff its unique Hamiltonian outer cycle can be recovered by repeatedly
/// peeling a degree-2 node `v` (re-inserting the chord between its neighbors)
/// and splicing the peeled nodes back onto the final triangle, on packed
/// `u64` rows.  [`outerplanar_embedding`] runs the same peel and reads the
/// recovered cycle.
pub fn is_outerplanar_without(
    g: &BitGraph,
    removed: Option<Node>,
    scratch: &mut OuterplanarScratch,
) -> bool {
    let skip = removed.map(|v| v.index());
    let n = g.node_count() - usize::from(skip.is_some());
    if n <= 1 {
        return true;
    }
    let m = g.edge_count() - skip.map_or(0, |v| g.degree(Node(v)));
    if m > 2 * n - 3 {
        return false;
    }
    let w = g.words_per_row();
    scratch.rows.clear();
    scratch.rows.resize(g.node_count() * w, 0);
    for block in bit_blocks(g, removed) {
        if block.len() >= 3 && !outerplanar_block(g, &block, scratch, w) {
            return false;
        }
    }
    true
}

/// Peel-based outerplanarity check of one biconnected block (≥ 3 nodes).
fn outerplanar_block(g: &BitGraph, block: &[Node], s: &mut OuterplanarScratch, w: usize) -> bool {
    s.block_mask.clear();
    s.block_mask.resize(w, 0);
    for &v in block {
        s.block_mask[v.index() / WORD_BITS] |= 1u64 << (v.index() % WORD_BITS);
    }
    // Copy the block-induced adjacency into the working rows.  Blocks share
    // at most a cut vertex, and its row is re-copied here, so earlier blocks
    // cannot leak into this one.
    for &v in block {
        let vi = v.index();
        for wi in 0..w {
            s.rows[vi * w + wi] = g.row(v)[wi] & s.block_mask[wi];
        }
    }
    s.active.clear();
    s.active.extend_from_slice(&s.block_mask);
    let mut count = block.len();
    s.peeled.clear();

    let deg = |rows: &[u64], v: usize| -> usize {
        rows[v * w..(v + 1) * w]
            .iter()
            .map(|x| x.count_ones() as usize)
            .sum()
    };
    while count > 3 {
        // Find a degree-2 node to peel (ascending id, like the embedding path).
        let mut peel = None;
        'scan: for (wi, &word) in s.active.iter().enumerate() {
            for b in BitIter::new(word) {
                let v = wi * WORD_BITS + b;
                if deg(&s.rows, v) == 2 {
                    peel = Some(v);
                    break 'scan;
                }
            }
        }
        let v = match peel {
            Some(v) => v,
            // A biconnected non-triangle block without degree-2 nodes has a
            // K4 minor: not outerplanar.
            None => return false,
        };
        let mut ns = s.rows[v * w..(v + 1) * w]
            .iter()
            .enumerate()
            .flat_map(|(wi, &word)| BitIter::new(word).map(move |b| wi * WORD_BITS + b));
        let a = ns.next().expect("degree-2 node has a neighbor");
        let b = ns.next().expect("degree-2 node has two neighbors");
        drop(ns);
        let (vw, vb) = (v / WORD_BITS, 1u64 << (v % WORD_BITS));
        s.rows[a * w + vw] &= !vb;
        s.rows[b * w + vw] &= !vb;
        s.rows[v * w..(v + 1) * w].fill(0);
        s.active[vw] &= !vb;
        // Re-insert the chord a–b (idempotent, like `Graph::add_edge`).
        s.rows[a * w + b / WORD_BITS] |= 1u64 << (b % WORD_BITS);
        s.rows[b * w + a / WORD_BITS] |= 1u64 << (a % WORD_BITS);
        s.peeled.push((v as u32, a as u32, b as u32));
        count -= 1;
    }

    // Base case: the three remaining nodes must form a triangle.
    let mut tri = [0usize; 3];
    let mut k = 0;
    for (wi, &word) in s.active.iter().enumerate() {
        for b in BitIter::new(word) {
            tri[k] = wi * WORD_BITS + b;
            k += 1;
        }
    }
    debug_assert_eq!(k, 3);
    for i in 0..3 {
        for j in (i + 1)..3 {
            let (u, v) = (tri[i], tri[j]);
            if s.rows[u * w + v / WORD_BITS] & (1u64 << (v % WORD_BITS)) == 0 {
                return false;
            }
        }
    }

    // Unwind: splice each peeled node back between its two neighbors, which
    // must be adjacent on the (unique) outer cycle.
    s.cycle.clear();
    s.cycle.extend(tri.map(|v| v as u32));
    for i in (0..s.peeled.len()).rev() {
        let (v, a, b) = s.peeled[i];
        let len = s.cycle.len();
        let pa = match s.cycle.iter().position(|&x| x == a) {
            Some(p) => p,
            None => return false,
        };
        let pb = match s.cycle.iter().position(|&x| x == b) {
            Some(p) => p,
            None => return false,
        };
        if (pa + 1) % len == pb {
            s.cycle.insert(pb, v);
        } else if (pb + 1) % len == pa {
            s.cycle.insert(pa, v);
        } else {
            // a and b are not adjacent on the outer cycle: not outerplanar.
            return false;
        }
    }
    true
}

/// An outerplanar embedding: for every node, the cyclic order of its
/// neighbors (rotation), consistent with a planar drawing in which every node
/// lies on the outer face.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OuterplanarEmbedding {
    /// `rotation[v]` lists the neighbors of `v` in cyclic (counterclockwise)
    /// order.
    pub rotation: Vec<Vec<Node>>,
}

impl OuterplanarEmbedding {
    /// The neighbor that follows `from` in the cyclic rotation at `v`,
    /// skipping any neighbor for which `alive` returns `false`.
    ///
    /// Returns `None` if `v` has no alive neighbor at all, and returns `from`
    /// itself if it is the only alive neighbor.
    pub fn next_after<F>(&self, v: Node, from: Node, alive: F) -> Option<Node>
    where
        F: Fn(Node) -> bool,
    {
        let rot = &self.rotation[v.index()];
        let pos = rot.iter().position(|&u| u == from)?;
        for step in 1..=rot.len() {
            let cand = rot[(pos + step) % rot.len()];
            if alive(cand) {
                return Some(cand);
            }
        }
        None
    }

    /// The first alive neighbor in rotation order (used when a packet starts
    /// at `v` with an empty in-port).
    pub fn first_alive<F>(&self, v: Node, alive: F) -> Option<Node>
    where
        F: Fn(Node) -> bool,
    {
        self.rotation[v.index()].iter().copied().find(|&u| alive(u))
    }
}

/// Computes an outerplanar embedding of `g`, or `None` if `g` is not
/// outerplanar.
///
/// The embedding is built per block of [`bit_blocks`]: the peel of
/// [`is_outerplanar_without`] recovers the unique Hamiltonian outer cycle of
/// each biconnected block, the block's nodes are placed on a circle in that
/// order, chords become straight lines inside, and the rotations of the blocks
/// sharing a cut vertex are concatenated in block order.
pub fn outerplanar_embedding(g: &Graph) -> Option<OuterplanarEmbedding> {
    let n = g.node_count();
    if n >= 2 && g.edge_count() > 2 * n - 3 {
        return None;
    }
    let b = BitGraph::from_graph(g);
    let w = b.words_per_row();
    let mut scratch = OuterplanarScratch::default();
    scratch.rows.resize(n * w, 0);
    let mut rotation: Vec<Vec<Node>> = vec![Vec::new(); n];
    let mut pos = vec![0usize; n];
    for block in bit_blocks(&b, None) {
        if let [a, c] = block[..] {
            // A bridge: each endpoint simply lists the other.
            rotation[a.index()].push(c);
            rotation[c.index()].push(a);
            continue;
        }
        if !outerplanar_block(&b, &block, &mut scratch, w) {
            return None;
        }
        let len = scratch.cycle.len();
        for (i, &v) in scratch.cycle.iter().enumerate() {
            pos[v as usize] = i;
        }
        for &v in &block {
            let pv = pos[v.index()];
            let mut ns: Vec<Node> = g
                .neighbors(v)
                .filter(|u| block.binary_search(u).is_ok())
                .collect();
            // Sort neighbors by their clockwise circular distance from v.
            ns.sort_by_key(|u| (pos[u.index()] + len - pv) % len);
            rotation[v.index()].extend(ns);
        }
    }
    Some(OuterplanarEmbedding { rotation })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn small_and_sparse_graphs_are_outerplanar() {
        assert!(is_outerplanar(&Graph::new(0)));
        assert!(is_outerplanar(&Graph::new(1)));
        assert!(is_outerplanar(&generators::path(10)));
        assert!(is_outerplanar(&generators::cycle(12)));
        assert!(is_outerplanar(&generators::star(8)));
        assert!(is_outerplanar(&generators::complete(3)));
        assert!(is_outerplanar(&generators::fan(9)));
        assert!(is_outerplanar(&generators::maximal_outerplanar(11)));
        assert!(is_outerplanar(&generators::complete_bipartite(2, 2)));
        assert!(is_outerplanar(&generators::complete_bipartite(1, 7)));
    }

    #[test]
    fn forbidden_minors_are_not_outerplanar() {
        assert!(!is_outerplanar(&generators::complete(4)));
        assert!(!is_outerplanar(&generators::complete_bipartite(2, 3)));
        assert!(!is_outerplanar(&generators::complete(5)));
        assert!(!is_outerplanar(&generators::wheel(5)));
        assert!(!is_outerplanar(&generators::grid(3, 3)));
        assert!(!is_outerplanar(&generators::petersen()));
    }

    #[test]
    fn k4_minus_edge_is_outerplanar() {
        let mut g = generators::complete(4);
        g.remove_edge(Node(0), Node(2));
        assert!(is_outerplanar(&g));
    }

    /// Follows each node's first rotation entry from node 0 and checks that
    /// the walk is the outer ring: it visits every node once, and each node's
    /// last rotation entry is the node the walk came from.
    fn assert_rotations_follow_ring(g: &Graph) {
        let emb = outerplanar_embedding(g).unwrap();
        let n = g.node_count();
        let mut seen = vec![false; n];
        let mut v = Node(0);
        for _ in 0..n {
            assert!(!seen[v.index()], "ring revisits {v} in {}", g.summary());
            seen[v.index()] = true;
            let next = emb.rotation[v.index()][0];
            assert_eq!(emb.rotation[next.index()].last(), Some(&v));
            v = next;
        }
        assert_eq!(v, Node(0), "ring does not close in {}", g.summary());
    }

    #[test]
    fn outer_cycle_of_cycle_and_fan() {
        assert_rotations_follow_ring(&generators::cycle(6));
        assert_rotations_follow_ring(&generators::fan(7));
        assert_rotations_follow_ring(&generators::maximal_outerplanar(7));
    }

    #[test]
    fn outer_cycle_rejects_k4() {
        assert!(outerplanar_embedding(&generators::complete(4)).is_none());
    }

    #[test]
    fn embedding_covers_all_neighbors() {
        let g = generators::maximal_outerplanar(8);
        let emb = outerplanar_embedding(&g).unwrap();
        for v in g.nodes() {
            let mut rot = emb.rotation[v.index()].clone();
            rot.sort_unstable();
            assert_eq!(
                rot,
                g.neighbors_vec(v),
                "rotation at {v} must list all neighbors"
            );
        }
    }

    #[test]
    fn embedding_of_graph_with_cut_vertices() {
        // Two triangles and a pendant path joined at cut vertices.
        let g = Graph::from_edges(
            7,
            &[
                (0, 1),
                (1, 2),
                (0, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (3, 5),
                (5, 6),
            ],
        );
        assert!(is_outerplanar(&g));
        let emb = outerplanar_embedding(&g).unwrap();
        for v in g.nodes() {
            let mut rot = emb.rotation[v.index()].clone();
            rot.sort_unstable();
            assert_eq!(rot, g.neighbors_vec(v));
        }
    }

    #[test]
    fn embedding_none_for_non_outerplanar() {
        assert!(outerplanar_embedding(&generators::complete(4)).is_none());
        assert!(outerplanar_embedding(&generators::complete_bipartite(2, 3)).is_none());
    }

    #[test]
    fn next_after_skips_dead_neighbors() {
        let g = generators::cycle(4);
        let emb = outerplanar_embedding(&g).unwrap();
        // At node 0 the neighbors are 1 and 3 in some rotation order.
        let next = emb.next_after(Node(0), Node(1), |_| true).unwrap();
        assert_eq!(next, Node(3));
        // If 3 is dead we bounce back to 1.
        let next = emb.next_after(Node(0), Node(1), |u| u != Node(3)).unwrap();
        assert_eq!(next, Node(1));
        // If everything is dead there is no next hop.
        assert_eq!(emb.next_after(Node(0), Node(1), |_| false), None);
        assert_eq!(emb.first_alive(Node(0), |_| true), Some(Node(1)));
        assert_eq!(emb.first_alive(Node(0), |_| false), None);
    }

    #[test]
    fn wheel_rim_is_sometimes_tourable() {
        // Removing the hub of a wheel leaves a cycle (outerplanar); removing a
        // rim node leaves a fan (outerplanar).  So every destination works.
        let mut scratch = OuterplanarScratch::default();
        let w = generators::wheel(5);
        assert!(!is_outerplanar(&w));
        let b = BitGraph::from_graph(&w);
        assert!(w
            .nodes()
            .all(|t| is_outerplanar_without(&b, Some(t), &mut scratch)));
        // For K5, removing any node leaves K4, which is not outerplanar.
        let k5 = generators::complete(5);
        let b = BitGraph::from_graph(&k5);
        assert!(k5
            .nodes()
            .all(|t| !is_outerplanar_without(&b, Some(t), &mut scratch)));
    }
}
