//! Distance-promise patterns and the `r`-tolerance constructions of §III-C.
//!
//! * [`Distance2Pattern`] — the pattern of [2, Theorem 6.1]: guarantees
//!   delivery whenever source and destination are at distance ≤ 2 in `G \ F`.
//!   On `K_{2r+1}` the `r`-connectivity promise implies exactly that
//!   (Theorem 3), so this pattern is the paper's `r`-tolerant scheme for
//!   complete graphs.
//! * [`BipartiteDistance3Pattern`] — the pattern of Theorem 4: on bipartite
//!   graphs it guarantees delivery whenever source and destination are at
//!   distance ≤ 3 in `G \ F`; on `K_{2r-1,2r-1}` the `r`-connectivity promise
//!   implies that (Theorem 5).

use frr_graph::{Graph, Node};
use frr_routing::compiled::{compile_lists, CompilePattern, CompiledPattern};
use frr_routing::model::{LocalContext, RoutingModel};
use frr_routing::pattern::ForwardingPattern;
use std::borrow::Cow;

/// The ascending cyclic sweep order of `v`'s neighbors in `g`, starting after
/// `from` (`from = None` or not a neighbor starts at the smallest neighbor) —
/// shared by the interpreters and the compilers.
fn cyclic_order(g: &Graph, v: Node, from: Option<Node>) -> impl Iterator<Item = Node> {
    let neighbors = g.neighbors_vec(v);
    let start = match from {
        Some(u) => neighbors
            .iter()
            .position(|&x| x == u)
            .map(|p| p + 1)
            .unwrap_or(0),
        None => 0,
    };
    (0..neighbors.len()).map(move |step| neighbors[(start + step) % neighbors.len()])
}

/// Returns the next alive neighbor after `from` in the ascending cyclic order
/// of `ctx.node`'s neighbors (`from = None` starts at the smallest neighbor).
fn next_alive_cyclic(ctx: &LocalContext<'_>, from: Option<Node>) -> Option<Node> {
    cyclic_order(ctx.graph, ctx.node, from).find(|&cand| ctx.is_alive(cand))
}

/// The distance-2 pattern of [2, Theorem 6.1] (source–destination model).
///
/// * a node adjacent to the destination over an alive link delivers directly;
/// * the source sweeps its alive neighbors in cyclic (ascending) order,
///   advancing one position every time the packet comes back;
/// * every other node bounces the packet straight back to its in-port.
///
/// If `s` and `t` are at distance ≤ 2 in `G \ F` the sweep is guaranteed to
/// hit a common neighbor and the packet is delivered; under a weaker promise
/// the packet may cycle forever (which the paper's model permits — resilience
/// is only required under the promise).
#[derive(Debug, Clone, Default)]
pub struct Distance2Pattern;

impl Distance2Pattern {
    /// Creates the pattern (it is stateless: all it needs is the
    /// [`LocalContext`]).
    pub fn new() -> Self {
        Distance2Pattern
    }
}

impl ForwardingPattern for Distance2Pattern {
    fn model(&self) -> RoutingModel {
        RoutingModel::SourceDestination
    }

    fn next_hop(&self, ctx: &LocalContext<'_>) -> Option<Node> {
        if ctx.destination_is_alive_neighbor() {
            return Some(ctx.destination);
        }
        if ctx.node == ctx.source {
            return next_alive_cyclic(ctx, ctx.inport);
        }
        // Non-source node that cannot deliver: bounce back.
        ctx.inport.filter(|&p| ctx.is_alive(p))
    }

    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("distance-2 [2, Thm 6.1]")
    }
}

impl CompilePattern for Distance2Pattern {
    fn compile(&self, g: &Graph) -> Option<CompiledPattern> {
        compile_lists(
            g,
            RoutingModel::SourceDestination,
            self.name(),
            |s, t, v, inport, out| {
                out.push(t);
                if v == s {
                    out.extend(cyclic_order(g, v, inport));
                } else {
                    out.extend(inport);
                }
            },
        )
    }
}

/// The bipartite distance-3 pattern of Theorem 4 (source–destination model).
///
/// * a node adjacent to the destination over an alive link delivers directly;
/// * the source and every (static) neighbor of the source forward in a cyclic
///   permutation of their alive neighbors;
/// * every other node (distance 2 from the source) bounces the packet back.
///
/// On a bipartite graph this guarantees delivery whenever source and
/// destination are at distance ≤ 3 in `G \ F`.
#[derive(Debug, Clone)]
pub struct BipartiteDistance3Pattern {
    /// Static adjacency of the configured graph: `source_neighbors[s]` is the
    /// neighbor set of `s` in `G` (pre-failure knowledge).
    graph: Graph,
}

impl BipartiteDistance3Pattern {
    /// Creates the pattern for the given (bipartite) graph.
    pub fn new(graph: &Graph) -> Self {
        BipartiteDistance3Pattern {
            graph: graph.clone(),
        }
    }
}

impl ForwardingPattern for BipartiteDistance3Pattern {
    fn model(&self) -> RoutingModel {
        RoutingModel::SourceDestination
    }

    fn next_hop(&self, ctx: &LocalContext<'_>) -> Option<Node> {
        if ctx.destination_is_alive_neighbor() {
            return Some(ctx.destination);
        }
        let is_source = ctx.node == ctx.source;
        let is_source_neighbor = self.graph.has_edge(ctx.node, ctx.source);
        if is_source || is_source_neighbor {
            return next_alive_cyclic(ctx, ctx.inport);
        }
        ctx.inport.filter(|&p| ctx.is_alive(p))
    }

    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("bipartite distance-3 (Thm 4)")
    }
}

impl CompilePattern for BipartiteDistance3Pattern {
    fn compile(&self, g: &Graph) -> Option<CompiledPattern> {
        compile_lists(
            g,
            RoutingModel::SourceDestination,
            self.name(),
            |s, t, v, inport, out| {
                out.push(t);
                // "Neighbor of the source" is static pre-failure knowledge,
                // read from the pattern's configured graph.
                if v == s || self.graph.has_edge(v, s) {
                    out.extend(cyclic_order(g, v, inport));
                } else {
                    out.extend(inport);
                }
            },
        )
    }
}

/// The paper's `r`-tolerant pattern for the complete graph `K_{2r+1}`
/// (Theorem 3): the `r`-connectivity promise forces `s` and `t` to share a
/// neighbor, so the distance-2 pattern suffices.
pub fn r_tolerant_complete_pattern() -> Distance2Pattern {
    Distance2Pattern::new()
}

/// The paper's `r`-tolerant pattern for the balanced complete bipartite graph
/// `K_{2r-1,2r-1}` (Theorem 5): the promise forces a surviving path of length
/// ≤ 3, so the bipartite distance-3 pattern suffices.
pub fn r_tolerant_bipartite_pattern(g: &Graph) -> BipartiteDistance3Pattern {
    BipartiteDistance3Pattern::new(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use frr_graph::connectivity::same_component;
    use frr_graph::traversal::distance;
    use frr_graph::{generators, Node};
    use frr_routing::failure::AllFailureSets;
    use frr_routing::resilience::{is_r_tolerant_sampled, Property, SamplingBudget};
    use frr_routing::simulator::{route, state_space_bound};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Exhaustively checks that `pattern` delivers whenever `s` and `t` are at
    /// distance ≤ `promise` in `G \ F`.
    fn check_distance_promise<P: ForwardingPattern>(g: &Graph, pattern: &P, promise: usize) {
        let max_hops = state_space_bound(g);
        for failures in AllFailureSets::new(g) {
            let surviving = failures.surviving_graph(g);
            for s in g.nodes() {
                for t in g.nodes() {
                    if s == t || !same_component(&surviving, s, t) {
                        continue;
                    }
                    let d = distance(&surviving, s, t).expect("connected");
                    if d > promise {
                        continue;
                    }
                    let r = route(g, &failures, pattern, s, t, max_hops);
                    assert!(
                        r.outcome.is_delivered(),
                        "{} failed on {} -> {} (distance {d}) under F = {}",
                        pattern.name(),
                        s,
                        t,
                        failures
                    );
                }
            }
        }
    }

    #[test]
    fn distance2_pattern_delivers_within_distance_two_on_k5() {
        let g = generators::complete(5);
        check_distance_promise(&g, &Distance2Pattern::new(), 2);
    }

    #[test]
    fn distance2_pattern_delivers_within_distance_two_on_wheel_and_cycle() {
        check_distance_promise(&generators::wheel(4), &Distance2Pattern::new(), 2);
        check_distance_promise(&generators::cycle(5), &Distance2Pattern::new(), 2);
    }

    #[test]
    fn bipartite_distance3_delivers_within_distance_three_on_k33() {
        let g = generators::complete_bipartite(3, 3);
        let p = BipartiteDistance3Pattern::new(&g);
        check_distance_promise(&g, &p, 3);
    }

    #[test]
    fn bipartite_distance3_delivers_within_distance_three_on_k23_and_k24() {
        let g = generators::complete_bipartite(2, 3);
        check_distance_promise(&g, &BipartiteDistance3Pattern::new(&g), 3);
        let g = generators::complete_bipartite(2, 4);
        check_distance_promise(&g, &BipartiteDistance3Pattern::new(&g), 3);
    }

    #[test]
    fn theorem3_k5_is_2_tolerant() {
        // K_{2r+1} with r = 2: the distance-2 pattern is 2-tolerant.
        let g = generators::complete(5);
        let p = r_tolerant_complete_pattern();
        for s in g.nodes() {
            for t in g.nodes() {
                if s != t {
                    assert!(
                        crate::unlimited(
                            &g,
                            &p,
                            Property::Tolerance {
                                source: s,
                                destination: t,
                                r: 2
                            }
                        )
                        .is_proven(),
                        "failed for {s}->{t}"
                    );
                }
            }
        }
    }

    #[test]
    fn theorem3_k7_is_3_tolerant_sampled() {
        // K_{2r+1} with r = 3 has too many links for exhaustive enumeration;
        // use the reproducible sampled checker.
        let g = generators::complete(7);
        let p = r_tolerant_complete_pattern();
        let mut rng = StdRng::seed_from_u64(7);
        assert!(is_r_tolerant_sampled(
            &g,
            &p,
            Node(0),
            Node(6),
            3,
            SamplingBudget::new(12, 200),
            &mut rng
        )
        .is_ok());
    }

    #[test]
    fn theorem5_k33_is_2_tolerant() {
        // K_{2r-1,2r-1} with r = 2 is K_{3,3}.
        let g = generators::complete_bipartite(3, 3);
        let p = r_tolerant_bipartite_pattern(&g);
        for s in g.nodes() {
            for t in g.nodes() {
                if s != t {
                    assert!(
                        crate::unlimited(
                            &g,
                            &p,
                            Property::Tolerance {
                                source: s,
                                destination: t,
                                r: 2
                            }
                        )
                        .is_proven(),
                        "failed for {s}->{t}"
                    );
                }
            }
        }
    }

    #[test]
    fn theorem5_k55_is_3_tolerant_sampled() {
        let g = generators::complete_bipartite(5, 5);
        let p = r_tolerant_bipartite_pattern(&g);
        let mut rng = StdRng::seed_from_u64(11);
        assert!(is_r_tolerant_sampled(
            &g,
            &p,
            Node(0),
            Node(9),
            3,
            SamplingBudget::new(10, 150),
            &mut rng
        )
        .is_ok());
        assert!(is_r_tolerant_sampled(
            &g,
            &p,
            Node(0),
            Node(1),
            3,
            SamplingBudget::new(10, 150),
            &mut rng
        )
        .is_ok());
    }

    #[test]
    fn pattern_metadata() {
        let g = generators::complete_bipartite(2, 2);
        assert_eq!(
            Distance2Pattern::new().model(),
            RoutingModel::SourceDestination
        );
        assert!(Distance2Pattern::new().name().contains("distance-2"));
        let p = BipartiteDistance3Pattern::new(&g);
        assert_eq!(p.model(), RoutingModel::SourceDestination);
        assert!(p.name().contains("distance-3"));
    }
}
