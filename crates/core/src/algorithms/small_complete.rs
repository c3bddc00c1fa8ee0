//! Source–destination perfect resilience on small dense graphs:
//! Algorithm 1 for `K5` and its minors (Theorem 8) and the explicit `K3,3`
//! pattern of Theorem 9.
//!
//! Both constructions are verified *exhaustively* by the test suite: every
//! failure set and every connected source/destination pair of the respective
//! graph is simulated (Theorem 8 and Theorem 9 machine-checked).

use crate::algorithms::table::{PriorityTable, PriorityTablePattern};
use frr_graph::{Graph, Node};
use frr_routing::compiled::{CompilePattern, CompiledPattern};
use frr_routing::model::{LocalContext, RoutingModel};
use frr_routing::pattern::ForwardingPattern;
use std::borrow::Cow;

/// Algorithm 1 of the paper: a perfectly resilient source–destination pattern
/// for every graph with at most five nodes (i.e. `K5` and all its minors).
///
/// The rules, paraphrasing the paper (identifiers compared numerically):
///
/// 1. if the destination is an alive neighbor, deliver;
/// 2. at the source: sweep the alive neighbors — with one alive neighbor go
///    there; with two `u < v` go to `u` on `⊥` and to `v` otherwise; with
///    three `u < v < w` go to `u` on `⊥`, to `v` when coming from `w`, and to
///    `w` otherwise;
/// 3. at any other node: a packet arriving from the source goes to the
///    lowest-identifier alive neighbor other than the source (or back to the
///    source if there is none); a packet arriving from elsewhere goes to an
///    alive neighbor that is neither the source nor the in-port if one exists,
///    otherwise back to the source if possible, otherwise back to the in-port.
#[derive(Debug, Clone)]
pub struct K5SourcePattern {
    _graph: Graph,
}

impl K5SourcePattern {
    /// Creates the pattern for a graph with at most five nodes.
    ///
    /// # Panics
    ///
    /// Panics if the graph has more than five nodes (Theorem 6 shows perfect
    /// resilience is unattainable already on `K7^{-1}`; Algorithm 1 is only
    /// claimed — and verified — for at most five nodes).
    pub fn new(graph: &Graph) -> Self {
        assert!(
            graph.node_count() <= 5,
            "Algorithm 1 applies to graphs with at most five nodes"
        );
        K5SourcePattern {
            _graph: graph.clone(),
        }
    }
}

impl ForwardingPattern for K5SourcePattern {
    fn model(&self) -> RoutingModel {
        RoutingModel::SourceDestination
    }

    fn next_hop(&self, ctx: &LocalContext<'_>) -> Option<Node> {
        // Line 1-2: deliver to an adjacent destination.
        if ctx.destination_is_alive_neighbor() {
            return Some(ctx.destination);
        }
        let alive = ctx.alive_neighbors();
        if alive.is_empty() {
            return None;
        }
        if ctx.node == ctx.source {
            // Lines 3-12: the source sweeps its alive (non-destination)
            // neighbors; the destination link is dead here, so `alive` already
            // excludes it.
            return Some(match alive.len() {
                1 => alive[0],
                2 => {
                    let (u, v) = (alive[0], alive[1]);
                    match ctx.inport {
                        None => u,
                        Some(_) => v,
                    }
                }
                _ => {
                    // Three (or, off the claimed domain, more) alive neighbors
                    // u < v < w: ⊥ -> u, from w -> v, otherwise -> w.
                    let u = alive[0];
                    let v = alive[1];
                    let w = *alive.last().expect("non-empty");
                    match ctx.inport {
                        None => u,
                        Some(p) if p == w => v,
                        Some(_) => w,
                    }
                }
            });
        }
        // Lines 13-17: intermediate node.
        let source = ctx.source;
        if ctx.inport == Some(source) {
            // Lowest-identifier alive neighbor other than the source, or back
            // to the source if there is no other choice.
            return alive
                .iter()
                .copied()
                .find(|&x| x != source)
                .or(Some(source))
                .filter(|&x| ctx.is_alive(x));
        }
        let inport = ctx.inport;
        if let Some(x) = alive
            .iter()
            .copied()
            .find(|&x| x != source && Some(x) != inport)
        {
            return Some(x);
        }
        if ctx.is_alive(source) {
            return Some(source);
        }
        inport.filter(|&p| ctx.is_alive(p))
    }

    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("Algorithm 1 (K5, source-destination)")
    }
}

/// Algorithm 1's source rules depend on the *number* of alive neighbors, not
/// only their order, so they are not expressible as fixed priority lists —
/// the generic tabulator compiles them exactly via its dense per-failed-mask
/// fallback (the graphs have at most five nodes, far within budget).
impl CompilePattern for K5SourcePattern {}

/// The explicit `K3,3` source–destination pattern of Theorem 9, stated in the
/// paper as two priority tables (destination in the other part / in the same
/// part as the source) and generalized here to arbitrary `(s, t)` placements
/// by relabelling.
///
/// The first part of the bipartition is `{0, 1, 2}`, the second `{3, 4, 5}`
/// (the layout produced by [`frr_graph::generators::complete_bipartite`]).
pub struct K33SourcePattern {
    inner: PriorityTablePattern,
}

impl K33SourcePattern {
    /// Creates the pattern for (a subgraph of) `K_{3,3}` laid out with parts
    /// `{0, 1, 2}` and `{3, 4, 5}`.
    pub fn new(graph: &Graph) -> Self {
        assert!(
            graph.node_count() <= 6,
            "the Theorem 9 pattern applies to K3,3 and its subgraphs"
        );
        let inner = PriorityTablePattern::new(
            graph,
            RoutingModel::SourceDestination,
            "K3,3 source-destination (Thm 9)",
            true,
            k33_table,
        );
        K33SourcePattern { inner }
    }
}

impl ForwardingPattern for K33SourcePattern {
    fn model(&self) -> RoutingModel {
        RoutingModel::SourceDestination
    }
    fn next_hop(&self, ctx: &LocalContext<'_>) -> Option<Node> {
        self.inner.next_hop(ctx)
    }
    fn name(&self) -> Cow<'static, str> {
        self.inner.name()
    }
}

impl CompilePattern for K33SourcePattern {
    fn compile(&self, g: &Graph) -> Option<CompiledPattern> {
        self.inner.compile(g)
    }
}

/// Which part of the canonical `K_{3,3}` bipartition a node belongs to.
fn part_of(v: Node) -> usize {
    if v.index() < 3 {
        0
    } else {
        1
    }
}

/// Builds the Theorem 9 priority table for the concrete pair `(s, t)`.
fn k33_table(_g: &Graph, s: Node, t: Node) -> PriorityTable {
    let mut table = PriorityTable::new();
    if s == t {
        return table;
    }
    let part_s: Vec<Node> = (0..6)
        .map(Node)
        .filter(|&v| part_of(v) == part_of(s))
        .collect();
    let part_other: Vec<Node> = (0..6)
        .map(Node)
        .filter(|&v| part_of(v) != part_of(s))
        .collect();

    if part_of(s) != part_of(t) {
        // Canonical labels of the paper: s = a, destination t = v3 in the
        // other part; b, c are the other nodes of s's part; v1, v2 the other
        // nodes of t's part.
        let mut bc: Vec<Node> = part_s.iter().copied().filter(|&v| v != s).collect();
        bc.sort_unstable();
        let (b, c) = (bc[0], bc[1]);
        let mut v12: Vec<Node> = part_other.iter().copied().filter(|&v| v != t).collect();
        v12.sort_unstable();
        let (v1, v2) = (v12[0], v12[1]);

        // @s  ⊥: t, v1, v2 | from v1: v2 | from v2: v1
        table.set(s, None, vec![t, v1, v2]);
        table.set(s, Some(v1), vec![v2]);
        table.set(s, Some(v2), vec![v1]);
        // @b and @c  from v1: t, v2, v1 | from v2: t, v1, v2
        for &x in &[b, c] {
            table.set(x, Some(v1), vec![t, v2, v1]);
            table.set(x, Some(v2), vec![t, v1, v2]);
        }
        // @v1  from s: b, c, s | from b: c, s, b | from c: b, s, c
        table.set(v1, Some(s), vec![b, c, s]);
        table.set(v1, Some(b), vec![c, s, b]);
        table.set(v1, Some(c), vec![b, s, c]);
        // @v2  from s: b, c | from b: c, b | from c: b, c
        table.set(v2, Some(s), vec![b, c]);
        table.set(v2, Some(b), vec![c, b]);
        table.set(v2, Some(c), vec![b, c]);
    } else {
        // Canonical labels: s = a, destination t = c in the same part, b the
        // remaining node of that part; v1 < v2 < v3 the other part.
        let b = part_s
            .iter()
            .copied()
            .find(|&v| v != s && v != t)
            .expect("three nodes per part");
        let mut vs: Vec<Node> = part_other.clone();
        vs.sort_unstable();
        let (v1, v2, v3) = (vs[0], vs[1], vs[2]);

        // The paper states this case as a table too, but the printed rows do
        // not survive the exhaustive check (see EXPERIMENTS.md); the rows
        // below are an equivalent realization of Theorem 9 found by an offline
        // search and machine-verified over every failure set of K3,3.
        //
        // @s  ⊥: v1,v2,v3 | from v1: v2,v3,v1 | from v2: v3,v1,v2 | from v3: v1,v2,v3
        table.set(s, None, vec![v1, v2, v3]);
        table.set(s, Some(v1), vec![v2, v3, v1]);
        table.set(s, Some(v2), vec![v3, v1, v2]);
        table.set(s, Some(v3), vec![v1, v2, v3]);
        // @b  from v1: v3,v2,v1 | from v2: v1,v3,v2 | from v3: v2,v1,v3
        table.set(b, Some(v1), vec![v3, v2, v1]);
        table.set(b, Some(v2), vec![v1, v3, v2]);
        table.set(b, Some(v3), vec![v2, v1, v3]);
        // @v1, @v2  from s: t,b,s | from b: t,s,b  (return towards the source)
        table.set(v1, Some(s), vec![t, b, s]);
        table.set(v1, Some(b), vec![t, s, b]);
        table.set(v2, Some(s), vec![t, b, s]);
        table.set(v2, Some(b), vec![t, s, b]);
        // @v3  from s: t,b,s | from b: t,b,s  (bounce back to b so that b can
        // advance its cyclic sweep)
        table.set(v3, Some(s), vec![t, b, s]);
        table.set(v3, Some(b), vec![t, b, s]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use frr_graph::generators;
    use frr_routing::resilience::Property;

    #[test]
    fn theorem8_algorithm1_is_perfectly_resilient_on_k5() {
        let g = generators::complete(5);
        let p = K5SourcePattern::new(&g);
        let verdict = crate::unlimited(&g, &p, Property::PERFECT);
        assert!(verdict.is_proven(), "Algorithm 1 failed on K5: {verdict}");
    }

    #[test]
    fn algorithm1_is_perfectly_resilient_on_k5_subgraphs() {
        // Minor-closure is a theorem; here we also machine-check a few
        // representative subgraphs directly.
        for g in [
            generators::complete(4),
            generators::complete_minus(5, 1),
            generators::complete_minus(5, 2),
            generators::cycle(5),
            generators::path(5),
            generators::wheel(4),
            generators::star(4),
        ] {
            let p = K5SourcePattern::new(&g);
            let verdict = crate::unlimited(&g, &p, Property::PERFECT);
            assert!(
                verdict.is_proven(),
                "Algorithm 1 failed on {}: {verdict}",
                g.summary()
            );
        }
    }

    #[test]
    #[should_panic(expected = "at most five nodes")]
    fn algorithm1_rejects_large_graphs() {
        let _ = K5SourcePattern::new(&generators::complete(6));
    }

    #[test]
    fn theorem9_pattern_is_perfectly_resilient_on_k33() {
        let g = generators::complete_bipartite(3, 3);
        let p = K33SourcePattern::new(&g);
        let verdict = crate::unlimited(&g, &p, Property::PERFECT);
        assert!(
            verdict.is_proven(),
            "Theorem 9 pattern failed on K3,3: {verdict}"
        );
    }

    #[test]
    fn theorem9_pattern_on_k33_subgraphs() {
        for missing in 1..=3usize {
            let g = generators::complete_bipartite_minus(3, 3, missing);
            let p = K33SourcePattern::new(&g);
            let verdict = crate::unlimited(&g, &p, Property::PERFECT);
            assert!(
                verdict.is_proven(),
                "Theorem 9 pattern failed on K3,3 minus {missing} links: {verdict}"
            );
        }
    }

    #[test]
    fn pattern_metadata() {
        let g = generators::complete(5);
        let p = K5SourcePattern::new(&g);
        assert_eq!(p.model(), RoutingModel::SourceDestination);
        assert!(p.name().contains("Algorithm 1"));
        let g = generators::complete_bipartite(3, 3);
        let p = K33SourcePattern::new(&g);
        assert_eq!(p.model(), RoutingModel::SourceDestination);
        assert!(p.name().contains("Thm 9"));
    }
}
