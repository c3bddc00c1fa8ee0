//! The routing models of the paper and the local information a node may use.
//!
//! A static fast-rerouting scheme pre-configures every node with a forwarding
//! function that, at packet time, may only look at *local* information: the
//! incident failed links, the in-port, and — depending on the model — the
//! packet's source and/or destination (§II of the paper).

use frr_graph::{Graph, Node};
use std::fmt;

/// The header information a forwarding rule is allowed to match on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RoutingModel {
    /// Rules may match the packet source *and* destination (`π^{s,t}_v`, §IV).
    SourceDestination,
    /// Rules may match only the packet destination (`π^t_v`, §V).
    DestinationOnly,
    /// Rules may match neither (`π^∀_v`); the packet must tour the whole
    /// connected component (§VII).
    Touring,
}

impl fmt::Display for RoutingModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RoutingModel::SourceDestination => "source-destination",
            RoutingModel::DestinationOnly => "destination-only",
            RoutingModel::Touring => "touring",
        };
        write!(f, "{s}")
    }
}

/// The information available to a node when it forwards a packet.
///
/// This is exactly the argument list of the paper's forwarding function
/// `π_v(in-port, F ∩ E(v))` (plus the source/destination fields that the
/// respective models may read, and the static pre-failure graph that the
/// pattern was configured for).
#[derive(Debug, Clone)]
pub struct LocalContext<'a> {
    /// The node currently holding the packet.
    pub node: Node,
    /// The neighbor the packet arrived from; `None` (`⊥`) when the packet
    /// originates at [`LocalContext::node`].
    pub inport: Option<Node>,
    /// The packet source (only meaningful in the source–destination model).
    pub source: Node,
    /// The packet destination (not meaningful in the touring model).
    pub destination: Node,
    /// Neighbors whose link to [`LocalContext::node`] has failed
    /// (`F ∩ E(v)` expressed as the far endpoints), **sorted ascending**.
    ///
    /// A sorted slice instead of an owned set keeps the simulator's hot loop
    /// allocation-free: the failure-sweep engine reuses per-node scratch
    /// buffers across the `2^m` enumerated failure sets.
    pub failed_neighbors: &'a [Node],
    /// The static pre-failure network the pattern was configured for.
    pub graph: &'a Graph,
}

impl<'a> LocalContext<'a> {
    /// Neighbors of the current node whose incident link is still alive,
    /// in ascending order.
    pub fn alive_neighbors(&self) -> Vec<Node> {
        self.graph
            .neighbors(self.node)
            .filter(|u| !self.link_failed(*u))
            .collect()
    }

    /// `true` if the link from the current node towards `u` is recorded as
    /// failed (binary search over the sorted failed-neighbor slice).
    #[inline]
    pub fn link_failed(&self, u: Node) -> bool {
        self.failed_neighbors.binary_search(&u).is_ok()
    }

    /// `true` if the link from the current node towards `u` is alive (exists
    /// in the configured graph and has not failed).
    #[inline]
    pub fn is_alive(&self, u: Node) -> bool {
        self.graph.has_edge(self.node, u) && !self.link_failed(u)
    }

    /// `true` if the destination is an alive neighbor of the current node.
    pub fn destination_is_alive_neighbor(&self) -> bool {
        self.is_alive(self.destination)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frr_graph::generators;

    #[test]
    fn model_metadata() {
        assert_eq!(format!("{}", RoutingModel::Touring), "touring");
    }

    #[test]
    fn local_context_alive_neighbors() {
        let g = generators::complete(4);
        let failed = [Node(2)];
        let ctx = LocalContext {
            node: Node(0),
            inport: None,
            source: Node(0),
            destination: Node(3),
            failed_neighbors: &failed,
            graph: &g,
        };
        assert_eq!(ctx.alive_neighbors(), vec![Node(1), Node(3)]);
        assert!(ctx.is_alive(Node(1)));
        assert!(!ctx.is_alive(Node(2)));
        assert!(!ctx.is_alive(Node(0)));
        assert!(ctx.destination_is_alive_neighbor());
    }
}
