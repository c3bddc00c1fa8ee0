//! Breadth-first traversal, distances and cycle finding.

use crate::graph::{Graph, Node};
use std::collections::VecDeque;

/// Breadth-first search from `start`; returns the visit order.
pub fn bfs_order(g: &Graph, start: Node) -> Vec<Node> {
    let mut visited = vec![false; g.node_count()];
    let mut order = Vec::new();
    let mut queue = VecDeque::new();
    visited[start.index()] = true;
    queue.push_back(start);
    while let Some(v) = queue.pop_front() {
        order.push(v);
        for u in g.neighbors(v) {
            if !visited[u.index()] {
                visited[u.index()] = true;
                queue.push_back(u);
            }
        }
    }
    order
}

/// Unweighted single-source shortest-path distances (`None` = unreachable).
pub fn distances_from(g: &Graph, start: Node) -> Vec<Option<usize>> {
    let mut dist = vec![None; g.node_count()];
    let mut queue = VecDeque::new();
    dist[start.index()] = Some(0);
    queue.push_back(start);
    while let Some(v) = queue.pop_front() {
        let d = dist[v.index()].expect("queued nodes have a distance");
        for u in g.neighbors(v) {
            if dist[u.index()].is_none() {
                dist[u.index()] = Some(d + 1);
                queue.push_back(u);
            }
        }
    }
    dist
}

/// Unweighted distance between two nodes (`None` = disconnected).
pub fn distance(g: &Graph, s: Node, t: Node) -> Option<usize> {
    distances_from(g, s)[t.index()]
}

/// Finds any cycle in the graph, returned as a node sequence
/// `c_0, c_1, …, c_{k-1}` (with the closing edge `c_{k-1}–c_0` implied), or
/// `None` if the graph is a forest.
pub fn find_cycle(g: &Graph) -> Option<Vec<Node>> {
    let n = g.node_count();
    let mut state = vec![0u8; n]; // 0 = unvisited, 1 = on stack, 2 = done
    let mut parent: Vec<Option<Node>> = vec![None; n];
    for root in g.nodes() {
        if state[root.index()] != 0 {
            continue;
        }
        // Iterative DFS keeping the parent pointer to avoid the trivial
        // back-edge to the immediate parent.
        let mut stack = vec![(root, None::<Node>, g.neighbors_vec(root), 0usize)];
        state[root.index()] = 1;
        while let Some((v, par, ns, idx)) = stack.pop() {
            if idx < ns.len() {
                let u = ns[idx];
                stack.push((v, par, ns.clone(), idx + 1));
                if Some(u) == par {
                    continue;
                }
                match state[u.index()] {
                    0 => {
                        state[u.index()] = 1;
                        parent[u.index()] = Some(v);
                        stack.push((u, Some(v), g.neighbors_vec(u), 0));
                    }
                    1 => {
                        // Found a cycle: walk back from v to u.
                        let mut cyc = vec![v];
                        let mut cur = v;
                        while cur != u {
                            cur = parent[cur.index()].expect("path back to u exists");
                            cyc.push(cur);
                        }
                        cyc.reverse();
                        return Some(cyc);
                    }
                    _ => {}
                }
            } else {
                state[v.index()] = 2;
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn bfs_dfs_cover_component() {
        let g = generators::cycle(5);
        assert_eq!(bfs_order(&g, Node(0)).len(), 5);
        let g = generators::path(4);
        assert_eq!(
            bfs_order(&g, Node(0)),
            vec![Node(0), Node(1), Node(2), Node(3)]
        );
    }

    #[test]
    fn distances_on_path() {
        let g = generators::path(5);
        let d = distances_from(&g, Node(0));
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3), Some(4)]);
        assert_eq!(distance(&g, Node(0), Node(4)), Some(4));
    }

    #[test]
    fn distance_unreachable() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        assert_eq!(distance(&g, Node(0), Node(3)), None);
    }

    #[test]
    fn find_cycle_detects_and_rejects() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        assert!(find_cycle(&generators::random_tree(10, &mut rng)).is_none());
        assert!(find_cycle(&generators::path(6)).is_none());
        let cyc = find_cycle(&generators::cycle(5)).unwrap();
        assert_eq!(cyc.len(), 5);
        // consecutive nodes (cyclically) must be adjacent
        let g = generators::cycle(5);
        for i in 0..cyc.len() {
            assert!(g.has_edge(cyc[i], cyc[(i + 1) % cyc.len()]));
        }
        let cyc = find_cycle(&generators::complete(4)).unwrap();
        assert!(cyc.len() >= 3);
    }
}
