//! Destination-only perfect resilience on the threshold graphs of §V-B:
//! `K5^{-2}` (Theorem 12, including the explicit Fig. 4 table) and `K3,3^{-2}`
//! (Theorem 13), plus all their minors.
//!
//! Together with the matching impossibility results for `K5^{-1}` and
//! `K3,3^{-1}` (Theorems 10/11) these patterns pin the destination-only
//! feasibility frontier exactly one link below the source–destination one.

use crate::algorithms::outerplanar::OuterplanarDestinationPattern;
use crate::algorithms::table::{PriorityTable, PriorityTablePattern};
use frr_graph::outerplanar::is_outerplanar;
use frr_graph::{Graph, Node};
use frr_routing::compiled::CompilePattern;
use frr_routing::model::{LocalContext, RoutingModel};
use frr_routing::pattern::ForwardingPattern;
use std::borrow::Cow;
use std::collections::BTreeMap;

/// Theorem 12: a perfectly resilient destination-only pattern for `K5^{-2}`
/// (the complete graph on five nodes minus two links) and its subgraphs.
///
/// Per destination `t`:
/// * if `G − t` is outerplanar (at most one of the two missing links is
///   incident to `t`), tour the remainder by the right-hand rule
///   (Corollary 5);
/// * otherwise both missing links are incident to `t`, the remainder is a
///   `K4`, and the explicit Fig. 4 table is installed: it guarantees that both
///   of `t`'s neighbors are visited, whichever of them still connects to `t`.
pub struct K5Minus2DestPattern {
    outerplanar: OuterplanarDestinationPattern,
    /// Destinations handled by the Fig. 4 table (remainder is a full `K4` and
    /// the destination has exactly two neighbors).
    table: PriorityTablePattern,
    table_destinations: BTreeMap<Node, ()>,
    /// Destinations with a single remaining neighbor whose remainder is not
    /// outerplanar (sparser minors of `K5^{-2}`): reach the unique relay by
    /// touring the rest, then hop to the destination.
    via_relay: BTreeMap<Node, (Node, frr_graph::outerplanar::OuterplanarEmbedding)>,
}

impl K5Minus2DestPattern {
    /// Builds the pattern for a graph on at most five nodes with at least two
    /// links missing from `K5` (i.e. a subgraph of some `K5^{-2}`).
    ///
    /// # Panics
    ///
    /// Panics if the graph has more than five nodes or more than eight links
    /// (Theorem 10 rules out `K5^{-1}` and denser graphs).
    pub fn new(graph: &Graph) -> Self {
        assert!(
            graph.node_count() <= 5 && graph.edge_count() <= 8,
            "the Theorem 12 pattern applies to K5 minus at least two links"
        );
        let outerplanar = OuterplanarDestinationPattern::new(graph);
        let mut table_destinations = BTreeMap::new();
        let mut via_relay = BTreeMap::new();
        for t in graph.nodes() {
            if is_outerplanar(&graph.isolating(t)) {
                continue;
            }
            let neighbors = graph.neighbors_vec(t);
            if neighbors.len() == 1 {
                let u = neighbors[0];
                let remainder = graph.isolating(t).isolating(u);
                if let Some(embedding) = frr_graph::outerplanar::outerplanar_embedding(&remainder) {
                    via_relay.insert(t, (u, embedding));
                    continue;
                }
            }
            table_destinations.insert(t, ());
        }
        let table = PriorityTablePattern::new(
            graph,
            RoutingModel::DestinationOnly,
            "K5^-2 Fig. 4 table",
            true,
            |g, _s, t| fig4_table(g, t),
        );
        K5Minus2DestPattern {
            outerplanar,
            table,
            table_destinations,
            via_relay,
        }
    }
}

impl ForwardingPattern for K5Minus2DestPattern {
    fn model(&self) -> RoutingModel {
        RoutingModel::DestinationOnly
    }

    fn next_hop(&self, ctx: &LocalContext<'_>) -> Option<Node> {
        if ctx.destination_is_alive_neighbor() {
            return Some(ctx.destination);
        }
        if let Some((relay, embedding)) = self.via_relay.get(&ctx.destination) {
            if ctx.is_alive(*relay) && ctx.node != *relay {
                return Some(*relay);
            }
            let alive = |u: Node| u != ctx.destination && u != *relay && ctx.is_alive(u);
            return match ctx.inport {
                Some(from) if embedding.rotation[ctx.node.index()].contains(&from) => {
                    embedding.next_after(ctx.node, from, alive)
                }
                _ => embedding.first_alive(ctx.node, alive),
            };
        }
        if self.table_destinations.contains_key(&ctx.destination) {
            self.table.next_hop(ctx)
        } else {
            self.outerplanar.next_hop(ctx)
        }
    }

    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("K5^-2 destination-only (Thm 12)")
    }
}

/// The Theorem 12 case split (embedding tour / Fig. 4 table / relay hop)
/// compiles through the generic exhaustive tabulator — at most five nodes,
/// trivially within budget, and exact by construction.
impl CompilePattern for K5Minus2DestPattern {}

/// The Fig. 4 routing table, generalized to the concrete labelling: `v1 < v2`
/// are the two neighbors of `t` and `v3 < v4` the two non-neighbors; the four
/// of them induce a `K4` that must be traversed so that both `v1` and `v2` are
/// visited from any start node.
fn fig4_table(g: &Graph, t: Node) -> PriorityTable {
    let mut table = PriorityTable::new();
    let mut neighbors: Vec<Node> = g.neighbors_vec(t);
    neighbors.sort_unstable();
    let mut others: Vec<Node> = g.nodes().filter(|&v| v != t && !g.has_edge(v, t)).collect();
    others.sort_unstable();
    if neighbors.len() != 2 || others.len() != 2 {
        // Not the "two missing links at t" shape: leave the table empty (the
        // outerplanar branch handles those destinations).
        return table;
    }
    let (v1, v2) = (neighbors[0], neighbors[1]);
    let (v3, v4) = (others[0], others[1]);

    // @v1  ⊥: v2,v3,v4 | from v3: v2,v4,v3 | from v4: v2,v3,v4
    table.set(v1, None, vec![v2, v3, v4]);
    table.set(v1, Some(v3), vec![v2, v4, v3]);
    table.set(v1, Some(v4), vec![v2, v3, v4]);
    // @v2: the mirror image of @v1 under the swap (v1 ↔ v2, v3 ↔ v4) — the
    // proof of Theorem 12 says "the case is analogous and symmetrical, with
    // v3, v4 switching places"; the table as printed in the paper misses the
    // v3/v4 swap, which the exhaustive checker (and the offline table search
    // documented in EXPERIMENTS.md) confirms is required.
    // ⊥: v1,v4,v3 | from v4: v1,v3,v4 | from v3: v1,v4,v3
    table.set(v2, None, vec![v1, v4, v3]);
    table.set(v2, Some(v4), vec![v1, v3, v4]);
    table.set(v2, Some(v3), vec![v1, v4, v3]);
    // @v3  ⊥: v2,v1,v4 | from v1: v2,v4,v1 | from v2: v1,v4,v2 | from v4: v1,v2,v4
    table.set(v3, None, vec![v2, v1, v4]);
    table.set(v3, Some(v1), vec![v2, v4, v1]);
    table.set(v3, Some(v2), vec![v1, v4, v2]);
    table.set(v3, Some(v4), vec![v1, v2, v4]);
    // @v4  ⊥: v1,v2,v4 | from v1: v2,v3,v1 | from v2: v1,v3,v2 | from v3: v2,v1,v3
    table.set(v4, None, vec![v1, v2, v3]);
    table.set(v4, Some(v1), vec![v2, v3, v1]);
    table.set(v4, Some(v2), vec![v1, v3, v2]);
    table.set(v4, Some(v3), vec![v2, v1, v3]);
    table
}

/// Theorem 13: a perfectly resilient destination-only pattern for `K3,3^{-2}`
/// (the balanced complete bipartite graph on six nodes minus two links) and
/// its subgraphs.
///
/// Per destination `t`:
/// * if `G − t` is outerplanar, tour it (Corollary 5);
/// * otherwise `t` has exactly one remaining neighbor `u` (both missing links
///   were incident to `t`): route to `u` by touring `G − t − u` (a `K2,2`,
///   outerplanar) and let `u` hand the packet to `t`.
pub struct K33Minus2DestPattern {
    graph: Graph,
    outerplanar: OuterplanarDestinationPattern,
    /// For destinations whose remainder is not outerplanar: the unique
    /// remaining neighbor `u` and the embedding of `G − t − u`.
    via_relay: BTreeMap<Node, (Node, frr_graph::outerplanar::OuterplanarEmbedding)>,
}

impl K33Minus2DestPattern {
    /// Builds the pattern for a graph on at most six nodes that is a subgraph
    /// of `K3,3` with at least two links missing.
    ///
    /// # Panics
    ///
    /// Panics if the graph has more than six nodes or more than seven links.
    pub fn new(graph: &Graph) -> Self {
        assert!(
            graph.node_count() <= 6 && graph.edge_count() <= 7,
            "the Theorem 13 pattern applies to K3,3 minus at least two links"
        );
        let outerplanar = OuterplanarDestinationPattern::new(graph);
        let mut via_relay = BTreeMap::new();
        for t in graph.nodes() {
            if is_outerplanar(&graph.isolating(t)) {
                continue;
            }
            // Both missing links are incident to t: exactly one neighbor left.
            let neighbors = graph.neighbors_vec(t);
            if neighbors.len() == 1 {
                let u = neighbors[0];
                let remainder = graph.isolating(t).isolating(u);
                if let Some(embedding) = frr_graph::outerplanar::outerplanar_embedding(&remainder) {
                    via_relay.insert(t, (u, embedding));
                }
            }
        }
        K33Minus2DestPattern {
            graph: graph.clone(),
            outerplanar,
            via_relay,
        }
    }
}

impl ForwardingPattern for K33Minus2DestPattern {
    fn model(&self) -> RoutingModel {
        RoutingModel::DestinationOnly
    }

    fn next_hop(&self, ctx: &LocalContext<'_>) -> Option<Node> {
        if ctx.destination_is_alive_neighbor() {
            return Some(ctx.destination);
        }
        if let Some((relay, embedding)) = self.via_relay.get(&ctx.destination) {
            // First reach the relay u (the destination's only neighbor): if it
            // is an alive neighbor, go there; otherwise tour G − t − u.
            if ctx.is_alive(*relay) && ctx.node != *relay {
                return Some(*relay);
            }
            if ctx.node == *relay {
                // At the relay but the link to t is dead: t is unreachable —
                // hand the packet back into the tour so it keeps circulating.
                let alive = |u: Node| {
                    u != ctx.destination && ctx.is_alive(u) && self.graph.has_edge(ctx.node, u)
                };
                return match ctx.inport {
                    Some(from) => ctx
                        .alive_neighbors()
                        .into_iter()
                        .find(|&x| x != ctx.destination && Some(x) != Some(from))
                        .or_else(|| ctx.inport.filter(|&p| alive(p))),
                    None => ctx
                        .alive_neighbors()
                        .into_iter()
                        .find(|&x| x != ctx.destination),
                };
            }
            let alive = |u: Node| u != ctx.destination && u != *relay && ctx.is_alive(u);
            return match ctx.inport {
                Some(from) if embedding.rotation[ctx.node.index()].contains(&from) => {
                    embedding.next_after(ctx.node, from, alive)
                }
                _ => embedding.first_alive(ctx.node, alive),
            };
        }
        self.outerplanar.next_hop(ctx)
    }

    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("K3,3^-2 destination-only (Thm 13)")
    }
}

/// See [`K5Minus2DestPattern`]: compiled via the generic tabulator.
impl CompilePattern for K33Minus2DestPattern {}

#[cfg(test)]
mod tests {
    use super::*;
    use frr_graph::generators;
    use frr_routing::resilience::Property;

    #[test]
    fn theorem12_k5_minus_two_is_perfectly_resilient() {
        let g = generators::complete_minus(5, 2);
        let p = K5Minus2DestPattern::new(&g);
        let verdict = crate::unlimited(&g, &p, Property::PERFECT);
        assert!(
            verdict.is_proven(),
            "Theorem 12 pattern failed on K5^-2: {verdict}"
        );
    }

    #[test]
    fn theorem12_on_the_fig5_variant() {
        // Fig. 5 / Fig. 11 of the paper: both removed links incident to the
        // same node (the destination-to-be), leaving a K4 plus a degree-2 node.
        let mut g = generators::complete(5);
        g.remove_edge(Node(4), Node(2));
        g.remove_edge(Node(4), Node(3));
        let p = K5Minus2DestPattern::new(&g);
        let verdict = crate::unlimited(&g, &p, Property::PERFECT);
        assert!(
            verdict.is_proven(),
            "Theorem 12 pattern failed on the Fig. 5 variant: {verdict}"
        );
    }

    #[test]
    fn theorem12_on_sparser_subgraphs() {
        for c in 3..=5usize {
            let g = generators::complete_minus(5, c);
            let p = K5Minus2DestPattern::new(&g);
            let verdict = crate::unlimited(&g, &p, Property::PERFECT);
            assert!(
                verdict.is_proven(),
                "Theorem 12 pattern failed on K5^-{c}: {verdict}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least two links")]
    fn theorem12_rejects_k5_minus_one() {
        let _ = K5Minus2DestPattern::new(&generators::complete_minus(5, 1));
    }

    #[test]
    fn theorem13_k33_minus_two_is_perfectly_resilient() {
        let g = generators::complete_bipartite_minus(3, 3, 2);
        let p = K33Minus2DestPattern::new(&g);
        let verdict = crate::unlimited(&g, &p, Property::PERFECT);
        assert!(
            verdict.is_proven(),
            "Theorem 13 pattern failed on K3,3^-2: {verdict}"
        );
    }

    #[test]
    fn theorem13_on_the_both_links_at_t_variant() {
        // Remove both links so that one node keeps a single neighbor: that
        // node is the hard destination of the Theorem 13 case distinction.
        let mut g = generators::complete_bipartite(3, 3);
        g.remove_edge(Node(2), Node(3));
        g.remove_edge(Node(2), Node(4));
        let p = K33Minus2DestPattern::new(&g);
        let verdict = crate::unlimited(&g, &p, Property::PERFECT);
        assert!(
            verdict.is_proven(),
            "Theorem 13 pattern failed on the degree-1 destination variant: {verdict}"
        );
    }

    #[test]
    fn theorem13_on_sparser_subgraphs() {
        for c in 3..=4usize {
            let g = generators::complete_bipartite_minus(3, 3, c);
            let p = K33Minus2DestPattern::new(&g);
            let verdict = crate::unlimited(&g, &p, Property::PERFECT);
            assert!(
                verdict.is_proven(),
                "Theorem 13 pattern failed on K3,3^-{c}: {verdict}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least two links")]
    fn theorem13_rejects_k33_minus_one() {
        let _ = K33Minus2DestPattern::new(&generators::complete_bipartite_minus(3, 3, 1));
    }

    #[test]
    fn pattern_metadata() {
        let p = K5Minus2DestPattern::new(&generators::complete_minus(5, 2));
        assert_eq!(p.model(), RoutingModel::DestinationOnly);
        assert!(p.name().contains("Thm 12"));
        let p = K33Minus2DestPattern::new(&generators::complete_bipartite_minus(3, 3, 2));
        assert_eq!(p.model(), RoutingModel::DestinationOnly);
        assert!(p.name().contains("Thm 13"));
    }
}
