//! The apex outerplanarity test that the bitset peel replaced, kept as the
//! differential-testing and benchmarking baseline; test and bench targets
//! include it with `#[path = "…/support/apex_outerplanar.rs"] mod apex_outerplanar;`.

use frr_graph::planarity::is_planar;
use frr_graph::Graph;

/// `G` is outerplanar iff `G` plus a node adjacent to everything is planar.
pub fn is_outerplanar_via_apex(g: &Graph) -> bool {
    let n = g.node_count();
    if n <= 1 {
        return true;
    }
    if n >= 2 && g.edge_count() > 2 * n - 3 {
        return false;
    }
    let mut apex_graph = g.clone();
    let apex = apex_graph.add_node();
    for v in g.nodes() {
        apex_graph.add_edge(apex, v);
    }
    is_planar(&apex_graph)
}
