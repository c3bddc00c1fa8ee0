//! The undirected simple [`Graph`] type and its building blocks.
//!
//! Nodes are dense indices `0..n` wrapped in the [`Node`] newtype; links are
//! undirected [`Edge`]s stored in normalized form (`min ≤ max`).  All
//! iteration orders are deterministic (sorted), which keeps every experiment
//! in the workspace reproducible.

use std::collections::BTreeSet;
use std::fmt;

/// A node (router) identifier.
///
/// Nodes are dense indices into the graph; `Node(3)` is the fourth node.
///
/// ```
/// use frr_graph::Node;
/// let v = Node(2);
/// assert_eq!(v.index(), 2);
/// assert_eq!(format!("{v}"), "v2");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Node(pub usize);

impl Node {
    /// Returns the underlying dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Debug for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<usize> for Node {
    fn from(value: usize) -> Self {
        Node(value)
    }
}

impl From<Node> for usize {
    fn from(value: Node) -> Self {
        value.0
    }
}

/// An undirected link between two nodes, stored in normalized order.
///
/// ```
/// use frr_graph::{Edge, Node};
/// let e = Edge::new(Node(4), Node(1));
/// assert_eq!(e.endpoints(), (Node(1), Node(4)));
/// assert_eq!(e.other(Node(1)), Some(Node(4)));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Edge {
    u: Node,
    v: Node,
}

impl Edge {
    /// Creates a new undirected edge; endpoint order does not matter.
    ///
    /// # Panics
    ///
    /// Panics if `u == v` (self-loops are not representable).
    pub fn new(u: Node, v: Node) -> Self {
        assert_ne!(u, v, "self-loops are not supported");
        if u <= v {
            Edge { u, v }
        } else {
            Edge { u: v, v: u }
        }
    }

    /// The two endpoints in normalized (ascending) order.
    #[inline]
    pub fn endpoints(self) -> (Node, Node) {
        (self.u, self.v)
    }

    /// Smaller endpoint.
    #[inline]
    pub fn u(self) -> Node {
        self.u
    }

    /// Larger endpoint.
    #[inline]
    pub fn v(self) -> Node {
        self.v
    }

    /// Returns the endpoint different from `x`, or `None` if `x` is not an
    /// endpoint of this edge.
    #[inline]
    pub fn other(self, x: Node) -> Option<Node> {
        if x == self.u {
            Some(self.v)
        } else if x == self.v {
            Some(self.u)
        } else {
            None
        }
    }
}

impl fmt::Debug for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}-{})", self.u, self.v)
    }
}

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-{}", self.u, self.v)
    }
}

/// Typed failure of [`Graph::try_add_edge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddEdgeError {
    /// An endpoint is not a node of this graph.
    OutOfRange {
        /// The offending endpoint.
        node: Node,
        /// Number of nodes in the graph (valid ids are `0..node_count`).
        node_count: usize,
    },
    /// Both endpoints are the same node.
    SelfLoop(Node),
    /// The edge is already present.
    Duplicate(Edge),
}

impl fmt::Display for AddEdgeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AddEdgeError::OutOfRange { node, node_count } => {
                write!(f, "node {node} out of range (graph has {node_count} nodes)")
            }
            AddEdgeError::SelfLoop(node) => {
                write!(f, "self-loop at {node} (self-loops are not supported)")
            }
            AddEdgeError::Duplicate(edge) => write!(f, "duplicate edge {edge}"),
        }
    }
}

impl std::error::Error for AddEdgeError {}

impl From<(usize, usize)> for Edge {
    fn from((u, v): (usize, usize)) -> Self {
        Edge::new(Node(u), Node(v))
    }
}

impl From<(Node, Node)> for Edge {
    fn from((u, v): (Node, Node)) -> Self {
        Edge::new(u, v)
    }
}

/// An undirected simple graph over nodes `0..n`.
///
/// The structure is intentionally small and deterministic: adjacency is kept
/// in sorted sets, so every iterator in the crate returns nodes and edges in
/// ascending order.  This is what makes the routing tables and experiment
/// outputs of the workspace reproducible run-to-run.
///
/// ```
/// use frr_graph::{Graph, Node};
///
/// let mut g = Graph::new(4);
/// g.add_edge(Node(0), Node(1));
/// g.add_edge(Node(1), Node(2));
/// g.add_edge(Node(2), Node(3));
/// assert_eq!(g.node_count(), 4);
/// assert_eq!(g.edge_count(), 3);
/// assert_eq!(g.degree(Node(1)), 2);
/// assert!(g.has_edge(Node(2), Node(1)));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    adjacency: Vec<BTreeSet<usize>>,
    /// Cached number of edges, maintained by every mutation; keeps
    /// [`Graph::edge_count`] O(1) in the enumeration hot loops instead of
    /// summing all adjacency rows on every call.
    edge_count: usize,
}

impl Graph {
    /// Creates a graph with `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        Graph {
            adjacency: vec![BTreeSet::new(); n],
            edge_count: 0,
        }
    }

    /// Creates a graph with `n` nodes and the given edges.
    ///
    /// Duplicate edges are ignored.
    ///
    /// # Panics
    ///
    /// Panics if an edge references a node `>= n` or is a self-loop.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        let mut g = Graph::new(n);
        for &(u, v) in edges {
            g.add_edge(Node(u), Node(v));
        }
        g
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of edges (O(1): the count is cached and kept in sync by
    /// [`Graph::add_edge`] / [`Graph::remove_edge`]).
    #[inline]
    pub fn edge_count(&self) -> usize {
        debug_assert_eq!(
            self.edge_count,
            self.adjacency.iter().map(|a| a.len()).sum::<usize>() / 2,
            "cached edge count out of sync"
        );
        self.edge_count
    }

    /// Density `|E| / |V|` as used in the paper's Fig. 8 (0 for empty graphs).
    pub fn density(&self) -> f64 {
        if self.node_count() == 0 {
            0.0
        } else {
            self.edge_count() as f64 / self.node_count() as f64
        }
    }

    /// Adds a new isolated node and returns its identifier.
    pub fn add_node(&mut self) -> Node {
        self.adjacency.push(BTreeSet::new());
        Node(self.adjacency.len() - 1)
    }

    /// Adds an undirected edge. Returns `true` if the edge was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or if `u == v`.
    pub fn add_edge(&mut self, u: Node, v: Node) -> bool {
        assert!(u.0 < self.node_count(), "node {u} out of range");
        assert!(v.0 < self.node_count(), "node {v} out of range");
        assert_ne!(u, v, "self-loops are not supported");
        let inserted = self.adjacency[u.0].insert(v.0);
        self.adjacency[v.0].insert(u.0);
        self.edge_count += inserted as usize;
        inserted
    }

    /// Fallible [`Graph::add_edge`] for edges coming from *external input*
    /// (parsed files, user-supplied topologies): returns a typed
    /// [`AddEdgeError`] instead of panicking, and treats re-adding an
    /// existing edge as an error rather than a silent no-op — a duplicate in
    /// a topology document is almost always a transcription mistake the user
    /// wants pointed out.
    ///
    /// ```
    /// use frr_graph::{AddEdgeError, Graph, Node};
    /// let mut g = Graph::new(3);
    /// assert!(g.try_add_edge(Node(0), Node(1)).is_ok());
    /// assert!(matches!(
    ///     g.try_add_edge(Node(1), Node(0)),
    ///     Err(AddEdgeError::Duplicate(_))
    /// ));
    /// assert!(matches!(
    ///     g.try_add_edge(Node(1), Node(7)),
    ///     Err(AddEdgeError::OutOfRange { .. })
    /// ));
    /// ```
    pub fn try_add_edge(&mut self, u: Node, v: Node) -> Result<(), AddEdgeError> {
        for node in [u, v] {
            if node.0 >= self.node_count() {
                return Err(AddEdgeError::OutOfRange {
                    node,
                    node_count: self.node_count(),
                });
            }
        }
        if u == v {
            return Err(AddEdgeError::SelfLoop(u));
        }
        if self.add_edge(u, v) {
            Ok(())
        } else {
            Err(AddEdgeError::Duplicate(Edge::new(u, v)))
        }
    }

    /// Removes an undirected edge. Returns `true` if the edge existed.
    pub fn remove_edge(&mut self, u: Node, v: Node) -> bool {
        if u.0 >= self.node_count() || v.0 >= self.node_count() {
            return false;
        }
        let removed = self.adjacency[u.0].remove(&v.0);
        self.adjacency[v.0].remove(&u.0);
        self.edge_count -= removed as usize;
        removed
    }

    /// Returns `true` if `{u, v}` is an edge of the graph.
    #[inline]
    pub fn has_edge(&self, u: Node, v: Node) -> bool {
        u.0 < self.node_count() && self.adjacency[u.0].contains(&v.0)
    }

    /// Returns `true` if the (normalized) edge is present.
    #[inline]
    pub fn contains_edge(&self, e: Edge) -> bool {
        self.has_edge(e.u(), e.v())
    }

    /// Degree of node `v` (number of incident non-failed links).
    #[inline]
    pub fn degree(&self, v: Node) -> usize {
        self.adjacency[v.0].len()
    }

    /// Maximum degree over all nodes (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.adjacency.iter().map(|a| a.len()).max().unwrap_or(0)
    }

    /// Minimum degree over all nodes (0 for the empty graph).
    pub fn min_degree(&self) -> usize {
        self.adjacency.iter().map(|a| a.len()).min().unwrap_or(0)
    }

    /// Iterator over all nodes in ascending order.
    pub fn nodes(&self) -> impl Iterator<Item = Node> + '_ {
        (0..self.node_count()).map(Node)
    }

    /// Neighbors of `v` in ascending order.
    pub fn neighbors(&self, v: Node) -> impl Iterator<Item = Node> + '_ {
        self.adjacency[v.0].iter().map(|&u| Node(u))
    }

    /// Neighbors of `v` collected into a vector (ascending order).
    pub fn neighbors_vec(&self, v: Node) -> Vec<Node> {
        self.neighbors(v).collect()
    }

    /// All edges in ascending normalized order.
    pub fn edges(&self) -> Vec<Edge> {
        let mut out = Vec::with_capacity(self.edge_count());
        for u in 0..self.node_count() {
            for &v in &self.adjacency[u] {
                if u < v {
                    out.push(Edge::new(Node(u), Node(v)));
                }
            }
        }
        out
    }

    /// Returns a copy of the graph with the given links removed
    /// (the paper's `G \ F`).
    ///
    /// Links not present in the graph are silently ignored.
    pub fn without_edges<'a, I>(&self, failed: I) -> Graph
    where
        I: IntoIterator<Item = &'a Edge>,
    {
        let mut g = self.clone();
        for e in failed {
            g.remove_edge(e.u(), e.v());
        }
        g
    }

    /// Returns a copy of the graph where `v` is isolated (all incident links
    /// removed) but the node index space is unchanged.
    pub fn isolating(&self, v: Node) -> Graph {
        let mut g = self.clone();
        for u in self.neighbors_vec(v) {
            g.remove_edge(u, v);
        }
        g
    }

    /// A short human-readable summary such as `"Graph(n=5, m=10)"`.
    pub fn summary(&self) -> String {
        format!("Graph(n={}, m={})", self.node_count(), self.edge_count())
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Graph(n={}, m={}, edges=[",
            self.node_count(),
            self.edge_count()
        )?;
        for (i, e) in self.edges().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, "])")
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.summary())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_roundtrip_and_display() {
        let v = Node(7);
        assert_eq!(v.index(), 7);
        assert_eq!(usize::from(v), 7);
        assert_eq!(Node::from(7usize), v);
        assert_eq!(format!("{v}"), "v7");
        assert_eq!(format!("{v:?}"), "v7");
    }

    #[test]
    fn edge_normalization() {
        let e = Edge::new(Node(5), Node(2));
        assert_eq!(e.u(), Node(2));
        assert_eq!(e.v(), Node(5));
        assert_eq!(e, Edge::new(Node(2), Node(5)));
        assert_eq!(Edge::from((5usize, 2usize)), e);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn edge_rejects_self_loop() {
        let _ = Edge::new(Node(1), Node(1));
    }

    #[test]
    fn edge_incidence_helpers() {
        let e = Edge::new(Node(1), Node(4));
        assert_eq!(e.other(Node(1)), Some(Node(4)));
        assert_eq!(e.other(Node(4)), Some(Node(1)));
        assert_eq!(e.other(Node(3)), None);
    }

    #[test]
    fn graph_basic_mutation() {
        let mut g = Graph::new(3);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 0);
        assert!(g.add_edge(Node(0), Node(1)));
        assert!(
            !g.add_edge(Node(1), Node(0)),
            "duplicate edge must be ignored"
        );
        assert_eq!(g.edge_count(), 1);
        assert!(g.has_edge(Node(0), Node(1)));
        assert!(g.remove_edge(Node(0), Node(1)));
        assert!(!g.remove_edge(Node(0), Node(1)));
        assert_eq!(g.edge_count(), 0);
        let v = g.add_node();
        assert_eq!(v, Node(3));
        assert_eq!(g.node_count(), 4);
    }

    #[test]
    fn graph_from_edges_and_queries() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.degree(Node(0)), 2);
        assert_eq!(g.neighbors_vec(Node(0)), vec![Node(1), Node(3)]);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.min_degree(), 2);
        assert!((g.density() - 1.0).abs() < 1e-12);
        assert_eq!(
            g.edges(),
            vec![
                Edge::new(Node(0), Node(1)),
                Edge::new(Node(0), Node(3)),
                Edge::new(Node(1), Node(2)),
                Edge::new(Node(2), Node(3)),
            ]
        );
    }

    #[test]
    fn without_edges_models_failures() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let f = vec![Edge::new(Node(0), Node(1)), Edge::new(Node(2), Node(3))];
        let gf = g.without_edges(&f);
        assert_eq!(gf.edge_count(), 2);
        assert!(!gf.has_edge(Node(0), Node(1)));
        assert!(gf.has_edge(Node(1), Node(2)));
        // The original graph is untouched.
        assert_eq!(g.edge_count(), 4);
    }

    #[test]
    fn isolating_removes_all_incident_links() {
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2)]);
        let gi = g.isolating(Node(0));
        assert_eq!(gi.degree(Node(0)), 0);
        assert_eq!(gi.edge_count(), 1);
        assert_eq!(gi.node_count(), 4);
    }
}
