//! Deterministic packet-forwarding simulator with exact loop detection.
//!
//! Because forwarding patterns are static and memory-less, the trajectory of a
//! packet is fully determined by its current `(node, in-port)` state (for a
//! fixed source, destination and failure set).  The simulator therefore
//! detects forwarding loops *exactly*: as soon as a state repeats the packet
//! is provably trapped forever.

use crate::failure::FailureSet;
use crate::model::LocalContext;
use crate::pattern::ForwardingPattern;
use frr_graph::connectivity::component_of_filtered;
use frr_graph::{Graph, Node};
use std::collections::BTreeSet;

const WORD_BITS: usize = u64::BITS as usize;

/// A packed bitset over the `n · (n + 1)` distinct `(node, in-port)` states —
/// the simulator's exact loop detector.  One flat `Vec<u64>` instead of a
/// `HashSet<(Node, Option<Node>)>`: insertion is a shift-and-or, and the
/// buffer is reusable across simulations.
struct StateSet {
    words: Vec<u64>,
    n: usize,
}

impl StateSet {
    fn new(n: usize) -> Self {
        StateSet {
            words: vec![0; (n * (n + 1)).div_ceil(WORD_BITS).max(1)],
            n,
        }
    }

    /// Inserts `(node, inport)`; `true` if the state was new.
    #[inline]
    fn insert(&mut self, node: Node, inport: Option<Node>) -> bool {
        let i = node.index() * (self.n + 1) + inport.map_or(0, |u| u.index() + 1);
        let (w, b) = (i / WORD_BITS, 1u64 << (i % WORD_BITS));
        let fresh = self.words[w] & b == 0;
        self.words[w] |= b;
        fresh
    }
}

/// A packed bitset over nodes (tour coverage tracking).
struct NodeSet {
    words: Vec<u64>,
}

impl NodeSet {
    fn new(n: usize) -> Self {
        NodeSet {
            words: vec![0; n.div_ceil(WORD_BITS).max(1)],
        }
    }

    /// Inserts `v`; `true` if newly inserted.
    #[inline]
    fn insert(&mut self, v: Node) -> bool {
        let (w, b) = (v.index() / WORD_BITS, 1u64 << (v.index() % WORD_BITS));
        let fresh = self.words[w] & b == 0;
        self.words[w] |= b;
        fresh
    }

    #[inline]
    fn contains(&self, v: Node) -> bool {
        self.words[v.index() / WORD_BITS] & (1u64 << (v.index() % WORD_BITS)) != 0
    }
}

/// Why a routing simulation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// The packet reached its destination.
    Delivered,
    /// The packet entered a forwarding loop (a `(node, in-port)` state
    /// repeated).
    Loop,
    /// A node had no out-port for the packet, or forwarded it onto a failed /
    /// non-existent link.
    Stuck,
    /// The hop limit was exceeded before any other outcome (only possible with
    /// a hop limit smaller than the state-space bound).
    HopLimit,
}

impl Outcome {
    /// `true` if the packet was delivered.
    pub fn is_delivered(self) -> bool {
        self == Outcome::Delivered
    }
}

/// The result of routing a single packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteResult {
    /// Why the simulation ended.
    pub outcome: Outcome,
    /// The node sequence the packet visited, starting at the source.
    pub path: Vec<Node>,
    /// Number of hops taken (links traversed).
    pub hops: usize,
}

/// The result of a touring simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TourResult {
    /// Nodes visited before the walk became periodic (or got stuck).
    pub visited: BTreeSet<Node>,
    /// `true` if every node of the start node's surviving component was
    /// visited.
    pub covered_component: bool,
    /// `true` if the walk additionally returned to the start node after
    /// visiting the entire component.
    pub returned_to_start: bool,
    /// The node sequence of the walk (truncated at the first repeated state).
    pub path: Vec<Node>,
}

/// Routes one packet from `source` to `destination` on `graph` under the
/// failure set `failures`, following `pattern`.
///
/// `max_hops` is a safety bound; `2 · n · (n + 1)` is always enough to hit
/// either delivery or a repeated state first, so passing `usize::MAX` is fine.
pub fn route<P: ForwardingPattern + ?Sized>(
    graph: &Graph,
    failures: &FailureSet,
    pattern: &P,
    source: Node,
    destination: Node,
    max_hops: usize,
) -> RouteResult {
    let mut path = vec![source];
    if source == destination {
        return RouteResult {
            outcome: Outcome::Delivered,
            path,
            hops: 0,
        };
    }
    let mut current = source;
    let mut inport: Option<Node> = None;
    let mut seen_states = StateSet::new(graph.node_count());
    seen_states.insert(current, inport);
    let mut hops = 0usize;
    // One buffer reused across hops; `failed_neighbors_into` clears it.
    let mut failed_neighbors: Vec<Node> = Vec::new();

    loop {
        if hops >= max_hops {
            return RouteResult {
                outcome: Outcome::HopLimit,
                path,
                hops,
            };
        }
        failures.failed_neighbors_into(current, &mut failed_neighbors);
        let ctx = LocalContext {
            node: current,
            inport,
            source,
            destination,
            failed_neighbors: &failed_neighbors,
            graph,
        };
        let next = match pattern.next_hop(&ctx) {
            Some(n) => n,
            None => {
                return RouteResult {
                    outcome: Outcome::Stuck,
                    path,
                    hops,
                }
            }
        };
        // Forwarding onto a failed or non-existent link is a fault.
        if !graph.has_edge(current, next) || failures.contains(current, next) {
            return RouteResult {
                outcome: Outcome::Stuck,
                path,
                hops,
            };
        }
        inport = Some(current);
        current = next;
        hops += 1;
        path.push(current);
        if current == destination {
            return RouteResult {
                outcome: Outcome::Delivered,
                path,
                hops,
            };
        }
        if !seen_states.insert(current, inport) {
            return RouteResult {
                outcome: Outcome::Loop,
                path,
                hops,
            };
        }
    }
}

/// Simulates the touring model: the packet starts at `start` and keeps being
/// forwarded; the walk is followed until a `(node, in-port)` state repeats or
/// the pattern drops the packet.
///
/// Success (`covered_component`) means every node of `start`'s component in
/// `G \ F` was visited — by determinism, once the state space is exhausted the
/// walk is periodic and will never visit anything new.
pub fn tour<P: ForwardingPattern + ?Sized>(
    graph: &Graph,
    failures: &FailureSet,
    pattern: &P,
    start: Node,
    max_hops: usize,
) -> TourResult {
    // Component of `start` in `G \ F`, computed on the original graph
    // skipping failed links — no surviving-graph clone.  Coverage is tracked
    // with packed node bitsets and a remaining-count: the historical
    // per-hop `BTreeSet::is_superset` probe was the tour loop's hot spot.
    let mut component = NodeSet::new(graph.node_count());
    let mut remaining = 0u32;
    for v in component_of_filtered(graph, start, |u, v| !failures.contains(u, v)) {
        component.insert(v);
        remaining += 1;
    }
    remaining -= 1; // `start` is visited from the outset.

    let mut visited = NodeSet::new(graph.node_count());
    visited.insert(start);
    let mut path = vec![start];
    let mut current = start;
    let mut inport: Option<Node> = None;
    let mut seen_states = StateSet::new(graph.node_count());
    seen_states.insert(current, inport);
    let mut returned_after_cover = false;
    let mut hops = 0usize;
    let mut failed_neighbors: Vec<Node> = Vec::new();

    loop {
        if hops >= max_hops {
            break;
        }
        failures.failed_neighbors_into(current, &mut failed_neighbors);
        let ctx = LocalContext {
            node: current,
            inport,
            // The touring model has no header at all; source and destination
            // are filled with the start node and must not be read by honest
            // touring patterns.
            source: start,
            destination: start,
            failed_neighbors: &failed_neighbors,
            graph,
        };
        let next = match pattern.next_hop(&ctx) {
            Some(n) => n,
            None => break,
        };
        if !graph.has_edge(current, next) || failures.contains(current, next) {
            break;
        }
        inport = Some(current);
        current = next;
        hops += 1;
        path.push(current);
        if visited.insert(current) && component.contains(current) {
            remaining -= 1;
        }
        if current == start && remaining == 0 {
            returned_after_cover = true;
        }
        if !seen_states.insert(current, inport) {
            break;
        }
    }

    TourResult {
        covered_component: remaining == 0,
        returned_to_start: returned_after_cover,
        visited: graph.nodes().filter(|&v| visited.contains(v)).collect(),
        path,
    }
}

/// A generous hop limit that always suffices for exact loop detection on `g`:
/// `2n(n+1) + 2`, twice the `n(n+1)` distinct `(node, in-port)` states plus
/// two (so also above the `2m + n` states of the compiled tables).
pub fn state_space_bound(g: &Graph) -> usize {
    2 * g.node_count() * (g.node_count() + 1) + 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::RoutingModel;
    use crate::pattern::{FnPattern, RotorPattern, ShortestPathPattern};
    use frr_graph::generators;

    #[test]
    fn trivial_delivery_to_self() {
        let g = generators::path(3);
        let p = RotorPattern::clockwise(&g);
        let r = route(&g, &FailureSet::new(), &p, Node(1), Node(1), 100);
        assert_eq!(r.outcome, Outcome::Delivered);
        assert_eq!(r.hops, 0);
        assert_eq!(r.path, vec![Node(1)]);
    }

    #[test]
    fn shortest_path_delivery_without_failures() {
        let g = generators::cycle(6);
        let p = ShortestPathPattern::new(&g);
        let r = route(&g, &FailureSet::new(), &p, Node(0), Node(3), 100);
        assert_eq!(r.outcome, Outcome::Delivered);
        assert_eq!(r.hops, 3);
    }

    #[test]
    fn delivery_with_failures_via_detour() {
        let g = generators::cycle(6);
        let p = ShortestPathPattern::new(&g);
        let failures = FailureSet::from_pairs(&[(0, 1)]);
        let r = route(&g, &failures, &p, Node(0), Node(2), 100);
        assert_eq!(r.outcome, Outcome::Delivered);
        assert_eq!(r.hops, 4, "the detour around the ring takes 4 hops");
        // Path must be a valid walk avoiding failed links.
        for w in r.path.windows(2) {
            assert!(g.has_edge(w[0], w[1]));
            assert!(!failures.contains(w[0], w[1]));
        }
    }

    #[test]
    fn stuck_when_no_alive_port() {
        let g = generators::path(3);
        let p = RotorPattern::clockwise_with_shortcut(&g);
        let failures = FailureSet::from_pairs(&[(0, 1)]);
        let r = route(&g, &failures, &p, Node(0), Node(2), 100);
        assert_eq!(r.outcome, Outcome::Stuck);
    }

    #[test]
    fn stuck_when_pattern_uses_failed_link() {
        let g = generators::complete(3);
        // A broken pattern that always forwards to node 2 regardless of failures.
        let p = FnPattern::new(RoutingModel::DestinationOnly, "broken", |_| Some(Node(2)));
        let failures = FailureSet::from_pairs(&[(0, 2)]);
        let r = route(&g, &failures, &p, Node(0), Node(1), 100);
        assert_eq!(r.outcome, Outcome::Stuck);
        // And a pattern forwarding to a non-neighbor.
        let p = FnPattern::new(RoutingModel::DestinationOnly, "teleport", |_| Some(Node(5)));
        let r = route(&g, &FailureSet::new(), &p, Node(0), Node(1), 100);
        assert_eq!(r.outcome, Outcome::Stuck);
    }

    #[test]
    fn loop_detection_is_exact() {
        // A pattern that ping-pongs between 0 and 1 forever.
        let g = generators::path(3);
        let p = FnPattern::new(RoutingModel::DestinationOnly, "ping-pong", |ctx| {
            if ctx.node == Node(0) {
                Some(Node(1))
            } else {
                Some(Node(0))
            }
        });
        let r = route(&g, &FailureSet::new(), &p, Node(0), Node(2), 1000);
        assert_eq!(r.outcome, Outcome::Loop);
        assert!(r.hops <= 4, "the loop must be detected within a few hops");
    }

    #[test]
    fn hop_limit_is_reported() {
        let g = generators::cycle(8);
        let p = RotorPattern::clockwise(&g);
        let r = route(&g, &FailureSet::new(), &p, Node(0), Node(4), 1);
        assert_eq!(r.outcome, Outcome::HopLimit);
    }

    #[test]
    fn rotor_tours_a_cycle() {
        let g = generators::cycle(5);
        let p = RotorPattern::clockwise(&g);
        let t = tour(&g, &FailureSet::new(), &p, Node(0), state_space_bound(&g));
        assert!(t.covered_component);
        assert_eq!(t.visited.len(), 5);
    }

    #[test]
    fn tour_respects_failures_and_components() {
        let g = generators::cycle(6);
        // Failing two links splits the ring into two paths.
        let failures = FailureSet::from_pairs(&[(0, 1), (3, 4)]);
        let p = RotorPattern::clockwise(&g);
        let t = tour(&g, &failures, &p, Node(1), state_space_bound(&g));
        // Component of node 1 is {1, 2, 3}.
        assert!(t.covered_component);
        assert!(t.visited.contains(&Node(2)));
        assert!(t.visited.contains(&Node(3)));
        assert!(!t.visited.contains(&Node(5)));
    }

    #[test]
    fn tour_detects_incomplete_coverage() {
        // A star toured by a pattern that always bounces between the hub and
        // leaf 1 never sees the other leaves.
        let g = generators::star(3);
        let p = FnPattern::new(RoutingModel::Touring, "stubborn", |ctx| {
            if ctx.node == Node(0) {
                Some(Node(1))
            } else {
                Some(Node(0))
            }
        });
        let t = tour(&g, &FailureSet::new(), &p, Node(0), 1000);
        assert!(!t.covered_component);
        assert_eq!(t.visited.len(), 2);
    }

    #[test]
    fn tour_returns_to_start_on_cycle() {
        let g = generators::cycle(4);
        let p = RotorPattern::clockwise(&g);
        let t = tour(&g, &FailureSet::new(), &p, Node(2), state_space_bound(&g));
        assert!(t.covered_component);
        assert!(t.returned_to_start);
    }

    #[test]
    fn state_space_bound_is_generous() {
        let g = generators::complete(5);
        assert!(state_space_bound(&g) >= 2 * 5 * 6);
    }
}
