//! Connectivity primitives: components, Menger-style `s–t` edge connectivity,
//! global edge connectivity, and the blocks (biconnected components) of a
//! [`BitGraph`], the one block decomposition behind planarity,
//! outerplanarity and outerplanar embeddings.
//!
//! The paper's `r`-tolerance promise (Definition 1) is defined in terms of
//! *link* connectivity: `s` and `t` are `r`-connected if there are `r`
//! pairwise link-disjoint paths between them, which by Menger's theorem equals
//! the `s–t` minimum cut computed here via unit-capacity max-flow.

use crate::bitgraph::BitGraph;
use crate::graph::{Graph, Node};
use std::collections::VecDeque;

/// Returns `true` if the graph is connected.
///
/// The empty graph and the single-node graph are considered connected;
/// isolated nodes in larger graphs make it disconnected.
pub fn is_connected(g: &Graph) -> bool {
    let n = g.node_count();
    if n <= 1 {
        return true;
    }
    let order = crate::traversal::bfs_order(g, Node(0));
    order.len() == n
}

/// Connected components as sorted node lists, ordered by their smallest node.
pub fn connected_components(g: &Graph) -> Vec<Vec<Node>> {
    let n = g.node_count();
    let mut comp = vec![usize::MAX; n];
    let mut components = Vec::new();
    for start in 0..n {
        if comp[start] != usize::MAX {
            continue;
        }
        let id = components.len();
        let mut members = Vec::new();
        let mut queue = VecDeque::new();
        comp[start] = id;
        queue.push_back(Node(start));
        while let Some(v) = queue.pop_front() {
            members.push(v);
            for u in g.neighbors(v) {
                if comp[u.index()] == usize::MAX {
                    comp[u.index()] = id;
                    queue.push_back(u);
                }
            }
        }
        members.sort_unstable();
        components.push(members);
    }
    components
}

/// The (sorted) connected component containing `v`.
pub fn component_of(g: &Graph, v: Node) -> Vec<Node> {
    let mut order = crate::traversal::bfs_order(g, v);
    order.sort_unstable();
    order
}

/// Returns `true` if `s` and `t` are in the same connected component.
pub fn same_component(g: &Graph, s: Node, t: Node) -> bool {
    s == t || crate::traversal::distance(g, s, t).is_some()
}

/// Returns `true` if `s` and `t` are connected using only links for which
/// `alive` returns `true`.
///
/// This is `same_component(G \ F, s, t)` without materializing `G \ F` — the
/// failure-sweep machinery calls it once per enumerated failure set, where a
/// graph clone per query would dominate the whole sweep.
pub fn same_component_filtered<F>(g: &Graph, s: Node, t: Node, alive: F) -> bool
where
    F: Fn(Node, Node) -> bool,
{
    s == t || distance_filtered(g, s, t, alive).is_some()
}

/// The sorted connected component of `v` using only links for which `alive`
/// returns `true` — `component_of(G \ F, v)` without materializing `G \ F`.
pub fn component_of_filtered<F>(g: &Graph, v: Node, alive: F) -> Vec<Node>
where
    F: Fn(Node, Node) -> bool,
{
    let mut visited = vec![false; g.node_count()];
    let mut members = Vec::new();
    let mut queue = VecDeque::new();
    visited[v.index()] = true;
    queue.push_back(v);
    while let Some(x) = queue.pop_front() {
        members.push(x);
        for u in g.neighbors(x) {
            if !visited[u.index()] && alive(x, u) {
                visited[u.index()] = true;
                queue.push_back(u);
            }
        }
    }
    members.sort_unstable();
    members
}

/// Unweighted `s`–`t` distance using only links for which `alive` returns
/// `true` (`None` = disconnected in the filtered graph).
pub fn distance_filtered<F>(g: &Graph, s: Node, t: Node, alive: F) -> Option<usize>
where
    F: Fn(Node, Node) -> bool,
{
    if s == t {
        return Some(0);
    }
    if s.index() >= g.node_count() || t.index() >= g.node_count() {
        return None;
    }
    let mut dist = vec![usize::MAX; g.node_count()];
    let mut queue = VecDeque::new();
    dist[s.index()] = 0;
    queue.push_back(s);
    while let Some(v) = queue.pop_front() {
        let d = dist[v.index()];
        for u in g.neighbors(v) {
            if dist[u.index()] == usize::MAX && alive(v, u) {
                if u == t {
                    return Some(d + 1);
                }
                dist[u.index()] = d + 1;
                queue.push_back(u);
            }
        }
    }
    None
}

/// The `s–t` edge connectivity (size of a minimum `s–t` link cut), i.e. the
/// maximum number of pairwise link-disjoint `s–t` paths (Menger's theorem).
///
/// Computed via Edmonds–Karp max-flow on the bidirected unit-capacity graph.
///
/// # Panics
///
/// Panics if `s == t`.
pub fn st_edge_connectivity(g: &Graph, s: Node, t: Node) -> usize {
    st_edge_connectivity_filtered(g, s, t, |_, _| true)
}

/// [`st_edge_connectivity`] restricted to the links for which `alive` returns
/// `true` — the `r`-tolerance promise check on `G \ F` without cloning `G`.
///
/// # Panics
///
/// Panics if `s == t`.
pub fn st_edge_connectivity_filtered<F>(g: &Graph, s: Node, t: Node, alive: F) -> usize
where
    F: Fn(Node, Node) -> bool,
{
    assert_ne!(s, t, "s-t connectivity requires distinct endpoints");
    let n = g.node_count();
    // Arc list with residual capacities: each undirected edge becomes two
    // arcs of capacity 1 each (standard reduction for undirected max-flow).
    let mut arc_to: Vec<usize> = Vec::new();
    let mut arc_cap: Vec<i32> = Vec::new();
    let mut head: Vec<Vec<usize>> = vec![Vec::new(); n];
    let add_arc = |u: usize,
                   v: usize,
                   cap: i32,
                   arc_to: &mut Vec<usize>,
                   arc_cap: &mut Vec<i32>,
                   head: &mut Vec<Vec<usize>>| {
        head[u].push(arc_to.len());
        arc_to.push(v);
        arc_cap.push(cap);
    };
    for e in g.edges() {
        if !alive(e.u(), e.v()) {
            continue;
        }
        let (u, v) = (e.u().index(), e.v().index());
        // arcs are stored in pairs so that `idx ^ 1` is the reverse arc
        add_arc(u, v, 1, &mut arc_to, &mut arc_cap, &mut head);
        add_arc(v, u, 1, &mut arc_to, &mut arc_cap, &mut head);
    }
    let (s, t) = (s.index(), t.index());
    let mut flow = 0usize;
    loop {
        // BFS for an augmenting path.
        let mut prev_arc: Vec<Option<usize>> = vec![None; n];
        let mut visited = vec![false; n];
        let mut queue = VecDeque::new();
        visited[s] = true;
        queue.push_back(s);
        'bfs: while let Some(v) = queue.pop_front() {
            for &a in &head[v] {
                if arc_cap[a] > 0 && !visited[arc_to[a]] {
                    visited[arc_to[a]] = true;
                    prev_arc[arc_to[a]] = Some(a);
                    if arc_to[a] == t {
                        break 'bfs;
                    }
                    queue.push_back(arc_to[a]);
                }
            }
        }
        if !visited[t] {
            break;
        }
        // Augment by 1 along the path.
        let mut v = t;
        while v != s {
            let a = prev_arc[v].expect("augmenting path exists");
            arc_cap[a] -= 1;
            arc_cap[a ^ 1] += 1;
            // the arc a goes from `from` to v; recover `from` via reverse arc
            v = arc_to[a ^ 1];
        }
        flow += 1;
    }
    flow
}

/// Global edge connectivity: the minimum over all `s–t` pairs of the `s–t`
/// edge connectivity (0 for disconnected or single-node graphs).
pub fn edge_connectivity(g: &Graph) -> usize {
    let n = g.node_count();
    if n < 2 {
        return 0;
    }
    if !is_connected(g) {
        return 0;
    }
    // λ(G) = min over t != s0 of λ(s0, t) for any fixed s0.
    let s0 = Node(0);
    (1..n)
        .map(|t| st_edge_connectivity(g, s0, Node(t)))
        .min()
        .unwrap_or(0)
}

/// The node sets of the blocks (biconnected components, including single-edge
/// bridges) of a [`BitGraph`], with an optional vertex masked out.
///
/// This is the vertex-deletion-overlay primitive behind the clone-free
/// planarity and outerplanarity probes: classifying the paper's "sometimes"
/// destinations tests `G − t` for every destination `t`, and masking `t`
/// during the DFS avoids materializing the deleted graph.  Blocks come out
/// in the order the DFS closes them; node lists are sorted, cut vertices
/// appear in several blocks, and isolated (or masked) nodes yield no block.
pub fn bit_blocks(g: &BitGraph, removed: Option<Node>) -> Vec<Vec<Node>> {
    const WORD_BITS: usize = u64::BITS as usize;
    let n = g.node_count();
    let words = g.words_per_row();
    let skip = removed.map(|v| v.index());
    let masked_word = |v: usize, wi: usize| -> u64 {
        let mut w = g.row(Node(v))[wi];
        if let Some(s) = skip {
            if s / WORD_BITS == wi {
                w &= !(1u64 << (s % WORD_BITS));
            }
        }
        w
    };

    let mut disc = vec![u32::MAX; n];
    let mut low = vec![0u32; n];
    let mut mark = vec![u32::MAX; n];
    let mut timer: u32 = 0;
    let mut edge_stack: Vec<(u32, u32)> = Vec::new();
    let mut out: Vec<Vec<Node>> = Vec::new();
    // DFS frame: current node, its parent, and the row-word cursor.
    struct Frame {
        v: usize,
        parent: usize,
        wi: usize,
        word: u64,
    }
    let mut stack: Vec<Frame> = Vec::new();

    for start in 0..n {
        if Some(start) == skip || disc[start] != u32::MAX {
            continue;
        }
        disc[start] = timer;
        low[start] = timer;
        timer += 1;
        stack.push(Frame {
            v: start,
            parent: usize::MAX,
            wi: 0,
            word: masked_word(start, 0),
        });
        while !stack.is_empty() {
            let (v, parent, next_u) = {
                let f = stack.last_mut().expect("stack is non-empty");
                let mut next_u = None;
                loop {
                    if f.word != 0 {
                        let b = f.word.trailing_zeros() as usize;
                        f.word &= f.word - 1;
                        next_u = Some(f.wi * WORD_BITS + b);
                        break;
                    }
                    f.wi += 1;
                    if f.wi >= words {
                        break;
                    }
                    f.word = masked_word(f.v, f.wi);
                }
                (f.v, f.parent, next_u)
            };
            match next_u {
                // The parent edge is walked once in a simple graph: skip it.
                Some(u) if u == parent => {}
                Some(u) => {
                    if disc[u] == u32::MAX {
                        edge_stack.push((v as u32, u as u32));
                        disc[u] = timer;
                        low[u] = timer;
                        timer += 1;
                        stack.push(Frame {
                            v: u,
                            parent: v,
                            wi: 0,
                            word: masked_word(u, 0),
                        });
                    } else if disc[u] < disc[v] {
                        edge_stack.push((v as u32, u as u32));
                        low[v] = low[v].min(disc[u]);
                    }
                }
                None => {
                    stack.pop();
                    if parent != usize::MAX {
                        low[parent] = low[parent].min(low[v]);
                        if low[v] >= disc[parent] {
                            // `parent` is an articulation point (or the root):
                            // the edges above (parent, v) form one block.
                            let stamp = out.len() as u32;
                            let mut nodes = Vec::new();
                            while let Some(&(a, b)) = edge_stack.last() {
                                edge_stack.pop();
                                for x in [a as usize, b as usize] {
                                    if mark[x] != stamp {
                                        mark[x] = stamp;
                                        nodes.push(Node(x));
                                    }
                                }
                                if (a as usize, b as usize) == (parent, v) {
                                    break;
                                }
                            }
                            nodes.sort_unstable();
                            out.push(nodes);
                        }
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::graph::Edge;

    /// Component label of every node.
    fn component_labels(g: &Graph) -> Vec<usize> {
        let mut label = vec![0; g.node_count()];
        for (i, comp) in connected_components(g).iter().enumerate() {
            for v in comp {
                label[v.index()] = i;
            }
        }
        label
    }

    /// Brute-force blocks, sorted: two distinct nodes share a block iff they
    /// are adjacent, or connected and not separated by deleting any third
    /// node.  The block of an edge `uv` is `u`, `v` and every node sharing a
    /// block with both (the blocks containing a node form a subtree of the
    /// block–cut tree, and pairwise-meeting subtrees of a tree meet).
    fn brute_force_blocks(g: &Graph) -> Vec<Vec<Node>> {
        let n = g.node_count();
        let whole = component_labels(g);
        let deleted: Vec<Vec<usize>> = g
            .nodes()
            .map(|w| component_labels(&g.isolating(w)))
            .collect();
        let share = |u: usize, v: usize| {
            u != v
                && (g.has_edge(Node(u), Node(v))
                    || (whole[u] == whole[v]
                        && (0..n).all(|w| w == u || w == v || deleted[w][u] == deleted[w][v])))
        };
        let mut out: Vec<Vec<Node>> = g
            .edges()
            .iter()
            .map(|e| {
                let (u, v) = (e.u().index(), e.v().index());
                g.nodes()
                    .filter(|x| {
                        let x = x.index();
                        x == u || x == v || (share(u, x) && share(v, x))
                    })
                    .collect()
            })
            .collect();
        out.sort();
        out.dedup();
        out
    }

    #[test]
    fn connectivity_basic() {
        assert!(is_connected(&Graph::new(0)));
        assert!(is_connected(&Graph::new(1)));
        assert!(!is_connected(&Graph::new(2)));
        assert!(is_connected(&generators::cycle(5)));
        assert!(!is_connected(&Graph::from_edges(4, &[(0, 1), (2, 3)])));
    }

    #[test]
    fn components_of_disconnected_graph() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4)]);
        let comps = connected_components(&g);
        assert_eq!(comps.len(), 3);
        assert_eq!(comps[0], vec![Node(0), Node(1), Node(2)]);
        assert_eq!(comps[1], vec![Node(3), Node(4)]);
        assert_eq!(comps[2], vec![Node(5)]);
        assert_eq!(component_of(&g, Node(4)), vec![Node(3), Node(4)]);
        assert!(same_component(&g, Node(0), Node(2)));
        assert!(!same_component(&g, Node(0), Node(5)));
        assert!(same_component(&g, Node(5), Node(5)));
    }

    #[test]
    fn st_connectivity_on_known_graphs() {
        let k5 = generators::complete(5);
        assert_eq!(st_edge_connectivity(&k5, Node(0), Node(4)), 4);
        let c6 = generators::cycle(6);
        assert_eq!(st_edge_connectivity(&c6, Node(0), Node(3)), 2);
        let p4 = generators::path(4);
        assert_eq!(st_edge_connectivity(&p4, Node(0), Node(3)), 1);
        let k33 = generators::complete_bipartite(3, 3);
        assert_eq!(st_edge_connectivity(&k33, Node(0), Node(3)), 3);
        assert_eq!(st_edge_connectivity(&k33, Node(0), Node(1)), 3);
        // disconnected pair
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        assert_eq!(st_edge_connectivity(&g, Node(0), Node(3)), 0);
    }

    #[test]
    fn global_edge_connectivity() {
        assert_eq!(edge_connectivity(&generators::complete(5)), 4);
        assert_eq!(edge_connectivity(&generators::cycle(7)), 2);
        assert_eq!(edge_connectivity(&generators::path(4)), 1);
        assert_eq!(edge_connectivity(&generators::petersen()), 3);
        assert_eq!(
            edge_connectivity(&Graph::from_edges(4, &[(0, 1), (2, 3)])),
            0
        );
    }

    #[test]
    fn blocks_of_wheel_is_single_block() {
        let w = BitGraph::from_graph(&generators::wheel(5));
        assert_eq!(
            bit_blocks(&w, None),
            vec![(0..6).map(Node).collect::<Vec<_>>()]
        );
    }

    #[test]
    fn blocks_share_cut_vertices() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]);
        let b = bit_blocks(&BitGraph::from_graph(&g), None);
        assert_eq!(b.len(), 2);
        assert!(b.iter().all(|blk| blk.contains(&Node(2))));
    }

    #[test]
    fn filtered_queries_match_materialized_removal() {
        let g = generators::cycle(6);
        let failed = [Edge::new(Node(0), Node(1)), Edge::new(Node(3), Node(4))];
        let alive = |a: Node, b: Node| !failed.contains(&Edge::new(a, b));
        let removed = g.without_edges(failed.iter());
        for s in g.nodes() {
            for t in g.nodes() {
                if s != t {
                    assert_eq!(
                        same_component_filtered(&g, s, t, alive),
                        same_component(&removed, s, t)
                    );
                    assert_eq!(
                        distance_filtered(&g, s, t, alive),
                        crate::traversal::distance(&removed, s, t)
                    );
                    assert_eq!(
                        st_edge_connectivity_filtered(&g, s, t, alive),
                        st_edge_connectivity(&removed, s, t)
                    );
                }
            }
            assert_eq!(
                component_of_filtered(&g, s, alive),
                component_of(&removed, s)
            );
        }
        assert!(same_component_filtered(&g, Node(2), Node(2), alive));
        assert_eq!(distance_filtered(&g, Node(2), Node(2), alive), Some(0));
        // Out-of-range endpoints are simply disconnected.
        assert!(!same_component_filtered(&g, Node(0), Node(9), alive));
        assert_eq!(distance_filtered(&g, Node(9), Node(0), alive), None);
    }

    #[test]
    fn complete_graph_is_single_block_no_cut_vertices() {
        let k5 = BitGraph::from_graph(&generators::complete(5));
        assert_eq!(
            bit_blocks(&k5, None),
            vec![(0..5).map(Node).collect::<Vec<_>>()]
        );
        // No single deletion splits K5: every G − t is one block, too.
        for t in 0..5 {
            assert_eq!(bit_blocks(&k5, Some(Node(t))).len(), 1);
        }
    }

    #[test]
    fn bit_blocks_match_graph_blocks() {
        for g in [
            generators::complete(5),
            generators::cycle(8),
            generators::path(6),
            generators::petersen(),
            generators::grid(3, 4),
            Graph::from_edges(8, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]),
            generators::cycle(70),
            Graph::new(4),
        ] {
            let b = BitGraph::from_graph(&g);
            let expected = brute_force_blocks(&g);
            let mut got = bit_blocks(&b, None);
            got.sort();
            assert_eq!(got, expected, "blocks mismatch on {}", g.summary());
        }
    }

    #[test]
    fn bit_blocks_with_removed_vertex_match_deleted_graph() {
        let g = Graph::from_edges(
            8,
            &[
                (0, 1),
                (1, 2),
                (0, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (3, 5),
                (5, 6),
                (6, 7),
            ],
        );
        let b = BitGraph::from_graph(&g);
        for t in g.nodes() {
            let expected = brute_force_blocks(&g.isolating(t));
            let mut got = bit_blocks(&b, Some(t));
            got.sort();
            assert_eq!(got, expected, "blocks mismatch removing {t}");
        }
    }
}
