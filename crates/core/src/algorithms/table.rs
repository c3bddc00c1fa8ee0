//! Priority-table forwarding patterns.
//!
//! Several of the paper's explicit constructions (the `K3,3` source pattern of
//! Theorem 9, the `K5^{-2}` table of Fig. 4, …) are stated as tables of the
//! form "at node *v*, with in-port *p*, try these out-ports in this order and
//! use the first alive one".  [`PriorityTablePattern`] is that representation,
//! parameterised by the packet's source/destination so that one object can
//! serve every `(s, t)` pair of a graph.
//!
//! Tables are generated **eagerly** for every header the pattern's routing
//! model distinguishes (all `n²` pairs in the source–destination model, all
//! `n` destinations otherwise) and stored in a flat `Vec` — the paper's named
//! graphs have at most six nodes, so this replaced the historical lazy
//! `RwLock`-guarded cache (a lock acquisition and `BTreeMap` probe on every
//! forwarded packet) with a plain indexed read and made the pattern trivially
//! `Sync`.

use frr_graph::{Graph, Node};
use frr_routing::compiled::{compile_lists, CompilePattern, CompiledPattern};
use frr_routing::model::{LocalContext, RoutingModel};
use frr_routing::pattern::ForwardingPattern;
use std::borrow::Cow;
use std::collections::BTreeMap;

/// A per-(node, in-port) priority list of out-ports.
///
/// The key `None` stands for the empty in-port `⊥` (the packet originates at
/// the node).  At forwarding time the first *alive* out-port of the list is
/// used; if the list is missing or fully dead the packet is dropped.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PriorityTable {
    rules: BTreeMap<(Node, Option<Node>), Vec<Node>>,
}

impl PriorityTable {
    /// An empty table.
    pub fn new() -> Self {
        PriorityTable::default()
    }

    /// Sets the priority list for `(node, inport)`; replaces any previous one.
    pub fn set(&mut self, node: Node, inport: Option<Node>, priorities: Vec<Node>) {
        self.rules.insert((node, inport), priorities);
    }

    /// The priority list for `(node, inport)`, if configured.
    pub fn get(&self, node: Node, inport: Option<Node>) -> Option<&[Node]> {
        self.rules.get(&(node, inport)).map(|v| v.as_slice())
    }

    /// Number of configured rules (the paper's routing-table size measure).
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// `true` if no rule is configured.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

/// A forwarding pattern backed by per-`(source, destination)` priority tables.
///
/// The table generator closure is evaluated once per header at construction
/// time and must be deterministic.  A destination-only pattern simply ignores
/// the source argument in its generator (it is invoked with `source =
/// destination`, matching what the touring simulation would present).
pub struct PriorityTablePattern {
    model: RoutingModel,
    name: Cow<'static, str>,
    deliver_to_adjacent_destination: bool,
    /// `tables[s * n + t]` in the source–destination model, `tables[t]` in
    /// the destination-only model, one shared table in the touring model
    /// (which has no header for rules to depend on).
    tables: Vec<PriorityTable>,
    model_tables: ModelTables,
    n: usize,
}

/// How [`PriorityTablePattern::tables`] is keyed by the packet header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ModelTables {
    PerPair,
    PerDestination,
    Shared,
}

impl PriorityTablePattern {
    /// Creates a priority-table pattern, generating every header's table up
    /// front.
    ///
    /// * `deliver_to_adjacent_destination` — if `true`, a node always forwards
    ///   straight to the destination when it is an alive neighbor, before
    ///   consulting the table (the "highest priority" rule used by all the
    ///   paper's constructions).
    /// * `generator` — builds the table for a concrete `(source, destination)`
    ///   pair; it must be deterministic.  A touring-model pattern has no
    ///   header at all, so exactly one table is generated (with `Node(0)`
    ///   placeholder arguments) and served for every walk — rules that tried
    ///   to vary per start node would violate the touring contract.
    pub fn new<F>(
        graph: &Graph,
        model: RoutingModel,
        name: impl Into<Cow<'static, str>>,
        deliver_to_adjacent_destination: bool,
        generator: F,
    ) -> Self
    where
        F: Fn(&Graph, Node, Node) -> PriorityTable,
    {
        let n = graph.node_count();
        let (model_tables, tables) = match model {
            RoutingModel::SourceDestination => (
                ModelTables::PerPair,
                (0..n)
                    .flat_map(|s| (0..n).map(move |t| (Node(s), Node(t))))
                    .map(|(s, t)| generator(graph, s, t))
                    .collect(),
            ),
            RoutingModel::DestinationOnly => (
                ModelTables::PerDestination,
                (0..n).map(|t| generator(graph, Node(t), Node(t))).collect(),
            ),
            RoutingModel::Touring => (
                ModelTables::Shared,
                vec![generator(graph, Node(0), Node(0))],
            ),
        };
        PriorityTablePattern {
            model,
            name: name.into(),
            deliver_to_adjacent_destination,
            tables,
            model_tables,
            n,
        }
    }

    /// The table used for a concrete `(source, destination)` pair.
    pub fn table_for(&self, source: Node, destination: Node) -> &PriorityTable {
        match self.model_tables {
            ModelTables::PerPair => &self.tables[source.index() * self.n + destination.index()],
            ModelTables::PerDestination => &self.tables[destination.index()],
            ModelTables::Shared => &self.tables[0],
        }
    }
}

impl ForwardingPattern for PriorityTablePattern {
    fn model(&self) -> RoutingModel {
        self.model
    }

    fn next_hop(&self, ctx: &LocalContext<'_>) -> Option<Node> {
        if self.deliver_to_adjacent_destination && ctx.destination_is_alive_neighbor() {
            return Some(ctx.destination);
        }
        let table = self.table_for(ctx.source, ctx.destination);
        let priorities = table.get(ctx.node, ctx.inport)?;
        priorities.iter().copied().find(|&u| ctx.is_alive(u))
    }

    fn name(&self) -> Cow<'static, str> {
        self.name.clone()
    }
}

impl CompilePattern for PriorityTablePattern {
    fn compile(&self, g: &Graph) -> Option<CompiledPattern> {
        compile_lists(g, self.model, self.name.clone(), |s, t, v, inport, out| {
            // The adjacent-destination rule folds into the list head: first-
            // alive picks the destination exactly when the interpreter's
            // guard would have fired.
            if self.deliver_to_adjacent_destination {
                out.push(t);
            }
            if let Some(priorities) = self.table_for(s, t).get(v, inport) {
                out.extend_from_slice(priorities);
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frr_graph::generators;
    use frr_routing::compiled::CompiledSim;
    use frr_routing::failure::FailureSet;
    use frr_routing::simulator::{route, state_space_bound, Outcome};

    #[test]
    fn priority_table_basic_ops() {
        let mut t = PriorityTable::new();
        assert!(t.is_empty());
        t.set(Node(0), None, vec![Node(1), Node(2)]);
        t.set(Node(0), Some(Node(1)), vec![Node(2)]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(Node(0), None), Some([Node(1), Node(2)].as_slice()));
        assert_eq!(t.get(Node(0), Some(Node(2))), None);
    }

    fn ascending_table_pattern(g: &Graph) -> PriorityTablePattern {
        PriorityTablePattern::new(
            g,
            RoutingModel::DestinationOnly,
            "ascending-table",
            true,
            |g, _s, _t| {
                let mut table = PriorityTable::new();
                for v in g.nodes() {
                    let prios = g.neighbors_vec(v);
                    table.set(v, None, prios.clone());
                    for u in g.neighbors_vec(v) {
                        table.set(v, Some(u), prios.clone());
                    }
                }
                table
            },
        )
    }

    #[test]
    fn table_pattern_routes_first_alive_priority() {
        let g = generators::complete(3);
        // A simple pattern: at every node, with any in-port, try neighbors in
        // ascending order (skipping the in-port logic entirely).
        let p = ascending_table_pattern(&g);
        assert_eq!(p.name(), "ascending-table");
        assert_eq!(p.model(), RoutingModel::DestinationOnly);
        // Direct delivery via the adjacent-destination rule.
        let r = route(&g, &FailureSet::new(), &p, Node(0), Node(2), 100);
        assert_eq!(r.outcome, Outcome::Delivered);
        assert_eq!(r.hops, 1);
        // With the direct link failed the table detours via node 1.
        let f = FailureSet::from_pairs(&[(0, 2)]);
        let r = route(&g, &f, &p, Node(0), Node(2), 100);
        assert_eq!(r.outcome, Outcome::Delivered);
        assert_eq!(r.path, vec![Node(0), Node(1), Node(2)]);
    }

    #[test]
    fn missing_rule_drops_packet() {
        let g = generators::path(3);
        let p = PriorityTablePattern::new(
            &g,
            RoutingModel::DestinationOnly,
            "empty-table",
            false,
            |_, _, _| PriorityTable::new(),
        );
        let r = route(&g, &FailureSet::new(), &p, Node(0), Node(2), 100);
        assert_eq!(r.outcome, Outcome::Stuck);
    }

    #[test]
    fn touring_table_pattern_uses_one_shared_table_compiled_and_interpreted() {
        use frr_routing::simulator::tour;
        // A generator whose output would differ per header: in the touring
        // model it is invoked exactly once (placeholder header), so the
        // interpreter and the compiled tables consult the same shared rules
        // for every walk — a per-start table would violate the touring
        // contract and silently diverge under compilation.
        let g = generators::cycle(4);
        let p = PriorityTablePattern::new(
            &g,
            RoutingModel::Touring,
            "touring-table",
            false,
            |g, _s, t| {
                let mut table = PriorityTable::new();
                for v in g.nodes() {
                    // Header-dependent rule: sweep up from `t` — collapses to
                    // the single `t = v0` instantiation in the touring model.
                    let mut prios = g.neighbors_vec(v);
                    let rot = t.index() % prios.len().max(1);
                    prios.rotate_left(rot);
                    table.set(v, None, prios.clone());
                    for u in g.neighbors_vec(v) {
                        table.set(v, Some(u), prios.clone());
                    }
                }
                table
            },
        );
        let cp = p.compile(&g).expect("small degrees");
        let max_hops = state_space_bound(&g);
        for mask in 0..(1u64 << g.edge_count()) {
            let failures = frr_routing::failure::FailureSet::from_mask(&g.edges(), &[mask]);
            for start in g.nodes() {
                assert_eq!(
                    tour(&g, &failures, &cp, start, max_hops),
                    tour(&g, &failures, &p, start, max_hops),
                    "mask {mask:#b}, start {start}"
                );
            }
        }
    }

    #[test]
    fn compiled_table_pattern_matches_interpreter() {
        let g = generators::complete(4);
        let p = ascending_table_pattern(&g);
        let cp = p.compile(&g).expect("small degrees");
        let max_hops = state_space_bound(&g);
        let mut sim = CompiledSim::new(&cp);
        for mask in 0..(1u64 << g.edge_count()) {
            let failures = frr_routing::failure::FailureSet::from_mask(&g.edges(), &[mask]);
            sim.load_failures(&cp, &failures);
            for s in g.nodes() {
                for t in g.nodes() {
                    assert_eq!(
                        sim.route(&cp, s, t, max_hops),
                        route(&g, &failures, &p, s, t, max_hops),
                        "mask {mask:#b}, {s}->{t}"
                    );
                }
            }
        }
    }
}
