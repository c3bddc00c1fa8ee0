//! Right-hand-rule patterns on outerplanar graphs.
//!
//! * [`OuterplanarTouringPattern`] — the positive side of the paper's touring
//!   characterization (Corollary 6, via [2, §6.2]): on an outerplanar graph,
//!   traversing the outer face of a fixed outerplanar embedding (skipping
//!   failed links) visits every node of the surviving component, under any
//!   failure set.
//! * [`OuterplanarDestinationPattern`] — Corollary 5: if `G` minus the
//!   destination is outerplanar, touring that remainder while delivering to
//!   the destination whenever it is an alive neighbor yields a perfectly
//!   resilient destination-only pattern.

use frr_graph::outerplanar::{outerplanar_embedding, OuterplanarEmbedding};
use frr_graph::{Graph, Node};
use frr_routing::compiled::{compile_lists, CompilePattern, CompiledPattern};
use frr_routing::model::{LocalContext, RoutingModel};
use frr_routing::pattern::ForwardingPattern;
use std::borrow::Cow;
use std::collections::BTreeMap;

/// The right-hand rule on a fixed outerplanar embedding: forward to the next
/// alive neighbor after the in-port in the rotation (starting packets follow
/// the first alive rotation entry, i.e. the outer-cycle successor).
#[derive(Debug, Clone)]
pub struct OuterplanarTouringPattern {
    embedding: OuterplanarEmbedding,
}

impl OuterplanarTouringPattern {
    /// Builds the pattern, or `None` if `graph` is not outerplanar.
    pub fn new(graph: &Graph) -> Option<Self> {
        Some(OuterplanarTouringPattern {
            embedding: outerplanar_embedding(graph)?,
        })
    }

    /// The underlying embedding.
    pub fn embedding(&self) -> &OuterplanarEmbedding {
        &self.embedding
    }
}

impl ForwardingPattern for OuterplanarTouringPattern {
    fn model(&self) -> RoutingModel {
        RoutingModel::Touring
    }

    fn next_hop(&self, ctx: &LocalContext<'_>) -> Option<Node> {
        match ctx.inport {
            Some(from) => self
                .embedding
                .next_after(ctx.node, from, |u| ctx.is_alive(u)),
            None => self.embedding.first_alive(ctx.node, |u| ctx.is_alive(u)),
        }
    }

    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("outerplanar right-hand rule (Cor. 6)")
    }
}

/// The right-hand-rule priority order on `embedding` at `(node, inport)`:
/// the rotation entries starting after the in-port position (from the start
/// for `⊥` or an in-port outside the rotation) — exactly the scan order of
/// [`OuterplanarEmbedding::next_after`] / [`OuterplanarEmbedding::first_alive`].
fn rotation_order(
    embedding: &OuterplanarEmbedding,
    node: Node,
    inport: Option<Node>,
) -> impl Iterator<Item = Node> + '_ {
    let rot = &embedding.rotation[node.index()];
    let (start, len) = match inport.and_then(|from| rot.iter().position(|&u| u == from)) {
        // `next_after` scans positions pos+1 ..= pos+len.
        Some(pos) => (pos + 1, rot.len()),
        // `first_alive` scans the whole rotation from the front; an in-port
        // outside the rotation drops the packet (`next_after` returns None).
        None if inport.is_none() => (0, rot.len()),
        None => (0, 0),
    };
    (0..len).map(move |step| rot[(start + step) % rot.len()])
}

impl CompilePattern for OuterplanarTouringPattern {
    fn compile(&self, g: &Graph) -> Option<CompiledPattern> {
        compile_lists(
            g,
            RoutingModel::Touring,
            self.name(),
            |_s, _t, v, inport, out| out.extend(rotation_order(&self.embedding, v, inport)),
        )
    }
}

/// Corollary 5: a destination-only pattern for graphs `G` such that `G` minus
/// the destination is outerplanar — tour the remainder by the right-hand rule
/// and deliver as soon as the destination is an alive neighbor.
///
/// Destinations whose removal does not leave an outerplanar graph are *not
/// supported*: packets addressed to them are dropped.  The supported set is
/// exactly the paper's "sometimes" measure for the Topology-Zoo study.
pub struct OuterplanarDestinationPattern {
    /// Per-destination embedding of `G` with the destination isolated.
    embeddings: BTreeMap<Node, OuterplanarEmbedding>,
}

impl OuterplanarDestinationPattern {
    /// Builds per-destination right-hand-rule tables for every destination `t`
    /// with `G − t` outerplanar.
    pub fn new(graph: &Graph) -> Self {
        let mut embeddings = BTreeMap::new();
        for t in graph.nodes() {
            let remainder = graph.isolating(t);
            if let Some(embedding) = outerplanar_embedding(&remainder) {
                embeddings.insert(t, embedding);
            }
        }
        OuterplanarDestinationPattern { embeddings }
    }

    /// The destinations this pattern can serve with perfect resilience.
    pub fn supported_destinations(&self) -> Vec<Node> {
        self.embeddings.keys().copied().collect()
    }

    /// `true` if packets to `t` are served.
    pub fn supports(&self, t: Node) -> bool {
        self.embeddings.contains_key(&t)
    }
}

impl ForwardingPattern for OuterplanarDestinationPattern {
    fn model(&self) -> RoutingModel {
        RoutingModel::DestinationOnly
    }

    fn next_hop(&self, ctx: &LocalContext<'_>) -> Option<Node> {
        if ctx.destination_is_alive_neighbor() {
            return Some(ctx.destination);
        }
        let embedding = self.embeddings.get(&ctx.destination)?;
        // Tour G − t: never forward towards the destination here (its links are
        // not part of the remainder's embedding), and never from it either
        // (the packet would already have been delivered).
        let alive = |u: Node| u != ctx.destination && ctx.is_alive(u);
        match ctx.inport {
            Some(from) => embedding.next_after(ctx.node, from, alive),
            None => embedding.first_alive(ctx.node, alive),
        }
    }

    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("outerplanar-remainder destination routing (Cor. 5)")
    }
}

impl CompilePattern for OuterplanarDestinationPattern {
    fn compile(&self, g: &Graph) -> Option<CompiledPattern> {
        compile_lists(
            g,
            RoutingModel::DestinationOnly,
            self.name(),
            |_s, t, v, inport, out| {
                out.push(t);
                if let Some(embedding) = self.embeddings.get(&t) {
                    // The destination is statically excluded from the tour of
                    // G − t (its links are not in the remainder's embedding).
                    out.extend(rotation_order(embedding, v, inport).filter(|&u| u != t));
                }
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frr_graph::generators;
    use frr_routing::failure::AllFailureSets;
    use frr_routing::resilience::Property;
    use frr_routing::simulator::{route, state_space_bound};

    #[test]
    fn corollary6_touring_on_outerplanar_graphs() {
        // Exhaustive: every failure set, every start node, the walk must cover
        // the start node's surviving component.
        for g in [
            generators::cycle(5),
            generators::path(5),
            generators::star(4),
            generators::fan(6),
            generators::maximal_outerplanar(6),
            generators::complete(3),
            generators::complete_bipartite(2, 2),
            // two triangles sharing a cut vertex plus a pendant edge
            Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (4, 5)]),
        ] {
            let p = OuterplanarTouringPattern::new(&g)
                .unwrap_or_else(|| panic!("{} must be outerplanar", g.summary()));
            let verdict = crate::unlimited(&g, &p, Property::PERFECT_TOURING);
            assert!(
                verdict.is_proven(),
                "right-hand rule failed to tour {}: {verdict}",
                g.summary()
            );
        }
    }

    #[test]
    fn touring_pattern_rejects_non_outerplanar_graphs() {
        assert!(OuterplanarTouringPattern::new(&generators::complete(4)).is_none());
        assert!(OuterplanarTouringPattern::new(&generators::complete_bipartite(2, 3)).is_none());
    }

    #[test]
    fn corollary5_destination_routing_on_wheel() {
        // The wheel is not outerplanar, but removing any node leaves an
        // outerplanar graph, so every destination is supported and perfectly
        // resilient.
        let g = generators::wheel(4);
        let p = OuterplanarDestinationPattern::new(&g);
        assert_eq!(p.supported_destinations().len(), g.node_count());
        for t in g.nodes() {
            let verdict = crate::unlimited(
                &g,
                &p,
                Property::Routing {
                    max_failures: None,
                    destination: Some(t),
                },
            );
            assert!(
                verdict.is_proven(),
                "Corollary 5 routing failed on the wheel for destination {t}: {verdict}"
            );
        }
    }

    #[test]
    fn corollary5_destination_routing_on_k4_and_k23() {
        // K4 and K2,3 are the forbidden touring minors, yet destination-based
        // routing is possible for every destination (removing a node leaves a
        // triangle / a small outerplanar graph).
        for g in [
            generators::complete(4),
            generators::complete_bipartite(2, 3),
        ] {
            let p = OuterplanarDestinationPattern::new(&g);
            for t in g.nodes() {
                assert!(p.supports(t));
                let verdict = crate::unlimited(
                    &g,
                    &p,
                    Property::Routing {
                        max_failures: None,
                        destination: Some(t),
                    },
                );
                assert!(
                    verdict.is_proven(),
                    "Corollary 5 routing failed on {} for {t}: {verdict}",
                    g.summary()
                );
            }
        }
    }

    #[test]
    fn unsupported_destinations_drop_packets() {
        // On K5 no destination removal leaves an outerplanar graph.
        let g = generators::complete(5);
        let p = OuterplanarDestinationPattern::new(&g);
        assert!(p.supported_destinations().is_empty());
        let f = AllFailureSets::new(&g).next().unwrap();
        let r = route(&g, &f, &p, Node(0), Node(4), state_space_bound(&g));
        // Either delivered directly (adjacent) or dropped; with no failures the
        // direct link exists, so it is delivered — fail one link to see a drop.
        assert!(r.outcome.is_delivered());
        let f = frr_routing::failure::FailureSet::from_pairs(&[(0, 4)]);
        let r = route(&g, &f, &p, Node(0), Node(4), state_space_bound(&g));
        assert!(!r.outcome.is_delivered());
    }

    #[test]
    fn netrail_like_topology_is_sometimes() {
        // Fig. 6 of the paper: a non-outerplanar topology where some
        // destinations still admit destination-based perfect resilience.
        // We model a similar small topology: a K2,3-minor-containing graph
        // where removing certain nodes leaves an outerplanar remainder.
        let g = generators::wheel(5);
        let p = OuterplanarDestinationPattern::new(&g);
        assert!(!frr_graph::outerplanar::is_outerplanar(&g));
        assert!(!p.supported_destinations().is_empty());
        for t in p.supported_destinations() {
            let verdict = crate::unlimited(
                &g,
                &p,
                Property::Routing {
                    max_failures: None,
                    destination: Some(t),
                },
            );
            assert!(
                verdict.is_proven(),
                "supported destination {t} must be perfectly resilient: {verdict}"
            );
        }
    }

    use frr_graph::Graph;
}
