//! Forwarding patterns: the static, purely local forwarding functions of the
//! paper, as a trait plus generic baseline implementations.
//!
//! A [`ForwardingPattern`] is pre-computed offline with full knowledge of the
//! network `G` but *without* knowledge of the failures; at packet time it may
//! only read the [`LocalContext`] (in-port, incident failed links and —
//! depending on the routing model — source and destination).

use crate::compiled::{
    compile_port_lists, compile_port_lists_destination, CompilePattern, CompiledPattern,
    NodeStates, PortGraph,
};
use crate::model::{LocalContext, RoutingModel};
use frr_graph::{Graph, Node};
use std::borrow::Cow;

/// A static local forwarding function (one rule set per node).
///
/// Implementations must be deterministic and must only depend on the
/// information in the [`LocalContext`] that their [`RoutingModel`] permits;
/// the simulator and the resilience checkers rely on determinism for exact
/// loop detection.
///
/// Patterns must be [`Sync`]: the exhaustive resilience checkers and
/// adversaries shard their failure-set ranges across the workers of
/// [`crate::budget::sharded_first_controlled`], which share the pattern by
/// reference.  Patterns are immutable rule
/// tables, so this costs nothing beyond using `Mutex` instead of `RefCell`
/// for any internal memoization.
pub trait ForwardingPattern: Sync {
    /// The routing model this pattern is designed for (metadata used by the
    /// classification and experiment harnesses).
    fn model(&self) -> RoutingModel;

    /// The out-port (neighbor) to forward the packet to, or `None` to drop it.
    ///
    /// Returning a neighbor whose link has failed counts as a forwarding
    /// fault; the simulator reports it as [`crate::simulator::Outcome::Stuck`].
    fn next_hop(&self, ctx: &LocalContext<'_>) -> Option<Node>;

    /// A short human-readable name used in experiment output.
    ///
    /// Returns a [`Cow`] so the overwhelmingly common static names cost
    /// nothing per call — the sweep harnesses label output rows inside their
    /// loops, and the historical `String` return allocated on every one.
    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("unnamed")
    }
}

impl<P: ForwardingPattern + ?Sized> ForwardingPattern for &P {
    fn model(&self) -> RoutingModel {
        (**self).model()
    }
    fn next_hop(&self, ctx: &LocalContext<'_>) -> Option<Node> {
        (**self).next_hop(ctx)
    }
    fn name(&self) -> Cow<'static, str> {
        (**self).name()
    }
}

impl<P: ForwardingPattern + ?Sized> ForwardingPattern for Box<P> {
    fn model(&self) -> RoutingModel {
        (**self).model()
    }
    fn next_hop(&self, ctx: &LocalContext<'_>) -> Option<Node> {
        (**self).next_hop(ctx)
    }
    fn name(&self) -> Cow<'static, str> {
        (**self).name()
    }
}

/// A forwarding pattern defined by a closure — handy for tests, for the
/// adversary experiments (which probe arbitrary candidate patterns), and for
/// one-off constructions.
pub struct FnPattern<F> {
    model: RoutingModel,
    name: Cow<'static, str>,
    func: F,
}

impl<F> FnPattern<F>
where
    F: Fn(&LocalContext<'_>) -> Option<Node> + Sync,
{
    /// Wraps `func` as a forwarding pattern for `model`.
    pub fn new(model: RoutingModel, name: impl Into<Cow<'static, str>>, func: F) -> Self {
        FnPattern {
            model,
            name: name.into(),
            func,
        }
    }
}

impl<F> ForwardingPattern for FnPattern<F>
where
    F: Fn(&LocalContext<'_>) -> Option<Node> + Sync,
{
    fn model(&self) -> RoutingModel {
        self.model
    }
    fn next_hop(&self, ctx: &LocalContext<'_>) -> Option<Node> {
        (self.func)(ctx)
    }
    fn name(&self) -> Cow<'static, str> {
        self.name.clone()
    }
}

/// Closures are opaque, so [`FnPattern`] compiles through the generic
/// exhaustive tabulator.
impl<F> CompilePattern for FnPattern<F> where F: Fn(&LocalContext<'_>) -> Option<Node> + Sync {}

/// The classic "rotor" / circular-port-sweep pattern: each node stores a fixed
/// cyclic order of its neighbors and forwards to the first alive neighbor
/// *after* the in-port in that order (starting packets go to the first alive
/// neighbor).  Optionally short-cuts directly to the destination when it is an
/// alive neighbor.
///
/// This is the natural memory-less baseline: on outerplanar graphs with the
/// rotation taken from an outerplanar embedding it is exactly the right-hand
/// rule, and on general graphs it is the pattern family the paper's
/// impossibility adversaries defeat.
#[derive(Debug, Clone)]
pub struct RotorPattern {
    rotation: Vec<Vec<Node>>,
    destination_shortcut: bool,
    model: RoutingModel,
    name: Cow<'static, str>,
}

impl RotorPattern {
    /// Builds a rotor pattern from an explicit rotation system.
    pub fn from_rotation(rotation: Vec<Vec<Node>>, destination_shortcut: bool) -> Self {
        RotorPattern {
            rotation,
            destination_shortcut,
            model: if destination_shortcut {
                RoutingModel::DestinationOnly
            } else {
                RoutingModel::Touring
            },
            name: if destination_shortcut {
                Cow::Borrowed("rotor+shortcut")
            } else {
                Cow::Borrowed("rotor")
            },
        }
    }

    /// The "clockwise" rotor: every node sweeps its neighbors in ascending
    /// identifier order, without a destination shortcut (a touring pattern).
    pub fn clockwise(g: &Graph) -> Self {
        let rotation = g.nodes().map(|v| g.neighbors_vec(v)).collect();
        Self::from_rotation(rotation, false)
    }

    /// The "clockwise" rotor with a destination shortcut (a destination-only
    /// pattern).
    pub fn clockwise_with_shortcut(g: &Graph) -> Self {
        let rotation = g.nodes().map(|v| g.neighbors_vec(v)).collect();
        Self::from_rotation(rotation, true)
    }

    /// The rotation (cyclic neighbor order) at every node.
    pub fn rotation(&self) -> &[Vec<Node>] {
        &self.rotation
    }

    /// The rotor's priority list for `(node, inport)`: the rotation entries
    /// starting after the in-port position (the compilers emit the same
    /// order in port space, see [`RotationPorts`]).
    fn sweep_order(&self, node: Node, inport: Option<Node>) -> impl Iterator<Item = Node> + '_ {
        let rot = &self.rotation[node.index()];
        let start = match inport {
            Some(inport) => rot
                .iter()
                .position(|&u| u == inport)
                .map(|p| p + 1)
                .unwrap_or(0),
            None => 0,
        };
        (0..rot.len()).map(move |step| rot[(start + step) % rot.len()])
    }

    /// Writes every state of `states.node()` for destination `t`: the
    /// destination's port when the shortcut is on, then the sweep.
    fn port_rules(&self, rotation: &RotationPorts, t: Node, states: &mut NodeStates<'_>) {
        let to_t = self
            .destination_shortcut
            .then(|| states.port_of(t))
            .flatten();
        for inport_idx in 0..=states.degree() {
            if let Some(p) = to_t {
                states.push(p);
            }
            rotation.sweep(states, inport_idx);
            states.end_state();
        }
    }
}

impl ForwardingPattern for RotorPattern {
    fn model(&self) -> RoutingModel {
        self.model
    }

    fn next_hop(&self, ctx: &LocalContext<'_>) -> Option<Node> {
        if self.destination_shortcut && ctx.destination_is_alive_neighbor() {
            return Some(ctx.destination);
        }
        self.sweep_order(ctx.node, ctx.inport)
            .find(|&cand| ctx.is_alive(cand))
    }

    fn name(&self) -> Cow<'static, str> {
        self.name.clone()
    }
}

impl CompilePattern for RotorPattern {
    fn compile(&self, g: &Graph) -> Option<CompiledPattern> {
        let csr = PortGraph::new(g);
        let rotation = RotationPorts::new(&csr, &self.rotation);
        compile_port_lists(csr, self.model, self.name.clone(), |_s, t, states| {
            self.port_rules(&rotation, t, states)
        })
    }

    fn compile_destination(&self, g: &Graph, t: Node) -> Option<CompiledPattern> {
        if self.model != RoutingModel::DestinationOnly {
            return None;
        }
        let csr = PortGraph::new(g);
        let rotation = RotationPorts::new(&csr, &self.rotation);
        compile_port_lists_destination(csr, self.name.clone(), t, |_s, t, states| {
            self.port_rules(&rotation, t, states)
        })
    }
}

/// A rotation system resolved to local ports once per compile.  The rotor's
/// sweep after in-port `i` is the rotation of `v`'s port order that starts
/// just past `i`'s first occurrence, `order[start..]` then `order[..start]`
/// (from the front when `i` is `⊥` or absent from the rotation): the same
/// list [`RotorPattern::sweep_order`] gives, less the entries that are not
/// neighbors.
struct RotationPorts {
    /// `n + 1` offsets into `order`.
    order_offset: Vec<u32>,
    /// Every node's rotation as local ports, non-neighbors dropped.
    order: Vec<u32>,
    /// Per state id: where that state's sweep starts in its node's order.
    start: Vec<u32>,
}

impl RotationPorts {
    fn new(csr: &PortGraph, rotation: &[Vec<Node>]) -> Self {
        let n = csr.node_count();
        let mut order_offset = Vec::with_capacity(n + 1);
        order_offset.push(0);
        let mut order = Vec::with_capacity(csr.port_count());
        let mut start = vec![0u32; csr.state_count()];
        for (v, rot) in rotation.iter().enumerate().take(n) {
            let from = order.len();
            order.extend(rot.iter().filter_map(|&u| csr.port_of(v, u.index())));
            let base = csr.state_base(v) as usize;
            // Backwards, so a repeated port keeps its first position.
            for (k, &p) in order[from..].iter().enumerate().rev() {
                start[base + p as usize] = k as u32 + 1;
            }
            order_offset.push(order.len() as u32);
        }
        RotationPorts {
            order_offset,
            order,
            start,
        }
    }

    /// Pushes the sweep of state `(states.node(), inport_idx)`.
    #[inline]
    fn sweep(&self, states: &mut NodeStates<'_>, inport_idx: u32) {
        let v = states.node();
        let order = &self.order[self.order_offset[v] as usize..self.order_offset[v + 1] as usize];
        let start = self.start[states.state_base() + inport_idx as usize] as usize;
        for &p in &order[start..] {
            states.push(p);
        }
        for &p in &order[..start] {
            states.push(p);
        }
    }
}

/// A [`ShortestPathPattern`] next-hop entry with no primary hop.
const NO_HOP: u32 = u32::MAX;

/// A destination-based shortest-path pattern with rotor fallback: every node
/// stores, per destination, the next hop on a shortest path of the *failure
/// free* network; if that primary port is down (or would bounce the packet
/// straight back), the node falls back to sweeping its remaining neighbors in
/// ascending order after the in-port.
///
/// This models a conventional statically-configured IP fast-reroute table and
/// serves as the "plausible but imperfect" baseline in the experiments.
#[derive(Debug, Clone)]
pub struct ShortestPathPattern {
    /// `primary[t * n + v]` = next hop from `v` towards destination `t`
    /// (failure free), [`NO_HOP`] if unreachable or `v == t`.
    primary: Vec<u32>,
    n: usize,
    rotor: RotorPattern,
}

impl ShortestPathPattern {
    /// Precomputes shortest-path next hops for every (node, destination) pair.
    pub fn new(g: &Graph) -> Self {
        let csr = PortGraph::new(g);
        let n = csr.node_count();
        let mut primary = vec![NO_HOP; n * n];
        // One BFS per destination over the CSR (`NO_HOP`: not reached).
        let mut dist = vec![NO_HOP; n];
        let mut queue: Vec<u32> = Vec::with_capacity(n);
        for t in 0..n {
            dist.fill(NO_HOP);
            dist[t] = 0;
            queue.clear();
            queue.push(t as u32);
            let mut head = 0;
            while let Some(&v) = queue.get(head) {
                head += 1;
                let dv = dist[v as usize];
                for &u in csr.ports_of(v as usize) {
                    if dist[u as usize] == NO_HOP {
                        dist[u as usize] = dv + 1;
                        queue.push(u);
                    }
                }
            }
            for v in (0..n).filter(|&v| v != t && dist[v] != NO_HOP) {
                // Choose the smallest neighbor strictly closer to t.
                let closer = csr
                    .ports_of(v)
                    .iter()
                    .find(|&&u| dist[u as usize] == dist[v] - 1);
                if let Some(&u) = closer {
                    primary[t * n + v] = u;
                }
            }
        }
        let rotation = (0..n)
            .map(|v| csr.ports_of(v).iter().map(|&u| Node(u as usize)).collect())
            .collect();
        ShortestPathPattern {
            primary,
            n,
            // The clockwise rotor with shortcut: ascending neighbor order.
            rotor: RotorPattern::from_rotation(rotation, true),
        }
    }

    /// The failure-free next hop from `v` towards `t`.
    fn primary_hop(&self, v: Node, t: Node) -> Option<Node> {
        let hop = self.primary[t.index() * self.n + v.index()];
        (hop != NO_HOP).then_some(Node(hop as usize))
    }

    /// Writes every state of `states.node()` for destination `t`: the
    /// destination's port, then the primary hop's port (left out at the
    /// state entered through it, where it would bounce straight back), then
    /// the rotor fallback.  Both ports are resolved once per node.
    fn port_rules(&self, rotation: &RotationPorts, t: Node, states: &mut NodeStates<'_>) {
        let to_t = states.port_of(t);
        let primary = self
            .primary_hop(Node(states.node()), t)
            .and_then(|u| states.port_of(u));
        for inport_idx in 0..=states.degree() {
            if let Some(p) = to_t {
                states.push(p);
            }
            if let Some(p) = primary.filter(|&p| p != inport_idx) {
                states.push(p);
            }
            // The rotor's own shortcut entry would repeat `to_t`.
            rotation.sweep(states, inport_idx);
            states.end_state();
        }
    }
}

impl ForwardingPattern for ShortestPathPattern {
    fn model(&self) -> RoutingModel {
        RoutingModel::DestinationOnly
    }

    fn next_hop(&self, ctx: &LocalContext<'_>) -> Option<Node> {
        if ctx.destination_is_alive_neighbor() {
            return Some(ctx.destination);
        }
        if let Some(primary) = self.primary_hop(ctx.node, ctx.destination) {
            if ctx.is_alive(primary) && ctx.inport != Some(primary) {
                return Some(primary);
            }
        }
        self.rotor.next_hop(ctx)
    }

    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("shortest-path+rotor-fallback")
    }
}

impl CompilePattern for ShortestPathPattern {
    fn compile(&self, g: &Graph) -> Option<CompiledPattern> {
        let csr = PortGraph::new(g);
        let rotation = RotationPorts::new(&csr, self.rotor.rotation());
        compile_port_lists(
            csr,
            RoutingModel::DestinationOnly,
            self.name(),
            |_s, t, states| self.port_rules(&rotation, t, states),
        )
    }

    fn compile_destination(&self, g: &Graph, t: Node) -> Option<CompiledPattern> {
        let csr = PortGraph::new(g);
        let rotation = RotationPorts::new(&csr, self.rotor.rotation());
        // Same priority lists as `compile`, restricted to one header.
        compile_port_lists_destination(csr, self.name(), t, |_s, t, states| {
            self.port_rules(&rotation, t, states)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::compile_lists;
    use crate::failure::FailureSet;
    use frr_graph::generators;

    fn ctx<'a>(
        g: &'a Graph,
        node: Node,
        inport: Option<Node>,
        s: Node,
        t: Node,
        failed: &'a [Node],
    ) -> LocalContext<'a> {
        LocalContext {
            node,
            inport,
            source: s,
            destination: t,
            failed_neighbors: failed,
            graph: g,
        }
    }

    #[test]
    fn fn_pattern_delegates() {
        let g = generators::path(3);
        let p = FnPattern::new(RoutingModel::DestinationOnly, "to-right", |ctx| {
            ctx.alive_neighbors().last().copied()
        });
        assert_eq!(p.model(), RoutingModel::DestinationOnly);
        assert_eq!(p.name(), "to-right");
        let empty: Vec<Node> = Vec::new();
        let c = ctx(&g, Node(0), None, Node(0), Node(2), &empty);
        assert_eq!(p.next_hop(&c), Some(Node(1)));
        // Trait impls for references and boxes.
        let by_ref = &p;
        assert_eq!(ForwardingPattern::next_hop(&by_ref, &c), Some(Node(1)));
        let boxed: Box<dyn ForwardingPattern> = Box::new(p);
        assert_eq!(boxed.next_hop(&c), Some(Node(1)));
        assert_eq!(boxed.name(), "to-right");
    }

    #[test]
    fn rotor_sweeps_after_inport() {
        let g = generators::complete(4);
        let p = RotorPattern::clockwise(&g);
        assert_eq!(p.model(), RoutingModel::Touring);
        let empty: Vec<Node> = Vec::new();
        // At node 0 with neighbors [1,2,3]: starting packet goes to 1.
        let c = ctx(&g, Node(0), None, Node(0), Node(3), &empty);
        assert_eq!(p.next_hop(&c), Some(Node(1)));
        // Arriving from 1 goes to 2; from 3 wraps to 1.
        let c = ctx(&g, Node(0), Some(Node(1)), Node(0), Node(3), &empty);
        assert_eq!(p.next_hop(&c), Some(Node(2)));
        let c = ctx(&g, Node(0), Some(Node(3)), Node(0), Node(3), &empty);
        assert_eq!(p.next_hop(&c), Some(Node(1)));
        // Failed link to 2 is skipped.
        let failures = FailureSet::from_pairs(&[(0, 2)]);
        let failed = failures.failed_neighbors_of(Node(0));
        let c = ctx(&g, Node(0), Some(Node(1)), Node(0), Node(3), &failed);
        assert_eq!(p.next_hop(&c), Some(Node(3)));
        // All links failed: no next hop.
        let failures = FailureSet::from_pairs(&[(0, 1), (0, 2), (0, 3)]);
        let failed = failures.failed_neighbors_of(Node(0));
        let c = ctx(&g, Node(0), Some(Node(1)), Node(0), Node(3), &failed);
        assert_eq!(p.next_hop(&c), None);
    }

    #[test]
    fn rotor_shortcut_prefers_destination() {
        let g = generators::complete(4);
        let p = RotorPattern::clockwise_with_shortcut(&g);
        assert_eq!(p.model(), RoutingModel::DestinationOnly);
        let empty: Vec<Node> = Vec::new();
        let c = ctx(&g, Node(0), Some(Node(1)), Node(1), Node(3), &empty);
        assert_eq!(p.next_hop(&c), Some(Node(3)));
        // If the destination link failed, fall back to the sweep.
        let failures = FailureSet::from_pairs(&[(0, 3)]);
        let failed = failures.failed_neighbors_of(Node(0));
        let c = ctx(&g, Node(0), Some(Node(1)), Node(1), Node(3), &failed);
        assert_eq!(p.next_hop(&c), Some(Node(2)));
    }

    #[test]
    fn rotor_on_isolated_node_returns_none() {
        let g = Graph::new(2);
        let p = RotorPattern::clockwise(&g);
        let empty: Vec<Node> = Vec::new();
        let c = ctx(&g, Node(0), None, Node(0), Node(1), &empty);
        assert_eq!(p.next_hop(&c), None);
    }

    #[test]
    fn shortest_path_pattern_uses_primary_then_falls_back() {
        let g = generators::cycle(5);
        let p = ShortestPathPattern::new(&g);
        assert_eq!(p.model(), RoutingModel::DestinationOnly);
        assert!(p.name().contains("shortest-path"));
        let empty: Vec<Node> = Vec::new();
        // From 0 to 2 the shortest path goes via 1.
        let c = ctx(&g, Node(0), None, Node(0), Node(2), &empty);
        assert_eq!(p.next_hop(&c), Some(Node(1)));
        // If the link 0-1 failed, fall back towards 4.
        let failures = FailureSet::from_pairs(&[(0, 1)]);
        let failed = failures.failed_neighbors_of(Node(0));
        let c = ctx(&g, Node(0), None, Node(0), Node(2), &failed);
        assert_eq!(p.next_hop(&c), Some(Node(4)));
        // Destination adjacent: deliver directly.
        let c = ctx(&g, Node(1), Some(Node(0)), Node(0), Node(2), &empty);
        assert_eq!(p.next_hop(&c), Some(Node(2)));
    }

    #[test]
    fn port_level_compilers_emit_the_node_level_lists() {
        // The rotor and shortest-path compilers write port lists directly;
        // the node-level lists they used to hand `compile_lists` must give
        // the same bytes, also for a rotation that is not ascending and
        // names a non-neighbor, an out-of-range id and a repeated neighbor.
        let g = generators::wheel(7);
        let n = g.node_count();
        let rotation: Vec<Vec<Node>> = g
            .nodes()
            .map(|v| {
                let mut rot = g.neighbors_vec(v);
                rot.reverse();
                let shift = v.index() % rot.len();
                rot.rotate_left(shift);
                let first = rot[0];
                rot.insert(1, Node(n + 5));
                rot.push(first);
                rot.push(Node((v.index() + 2) % n));
                rot
            })
            .collect();
        for shortcut in [false, true] {
            let rotor = RotorPattern::from_rotation(rotation.clone(), shortcut);
            let by_nodes =
                compile_lists(&g, rotor.model(), rotor.name(), |_, t, v, inport, out| {
                    if shortcut {
                        out.push(t);
                    }
                    out.extend(rotor.sweep_order(v, inport));
                })
                .expect("compiles");
            let by_ports = rotor.compile(&g).expect("compiles");
            assert_eq!(by_ports.digest(), by_nodes.digest());
        }
        let sp = ShortestPathPattern::new(&g);
        let by_nodes = compile_lists(&g, sp.model(), sp.name(), |_, t, v, inport, out| {
            out.push(t);
            if let Some(primary) = sp.primary_hop(v, t) {
                if inport != Some(primary) {
                    out.push(primary);
                }
            }
            out.push(t);
            out.extend(sp.rotor.sweep_order(v, inport));
        })
        .expect("compiles");
        let by_ports = sp.compile(&g).expect("compiles");
        assert_eq!(by_ports.digest(), by_nodes.digest());
    }
}
