//! Hamiltonian-cycle and arborescence failover patterns.
//!
//! * [`HamiltonianTouringPattern`] — Theorem 17: given `k` link-disjoint
//!   Hamiltonian cycles (Walecki / Laskar–Auerbach decompositions of
//!   `2k`-connected complete and complete bipartite graphs), route along the
//!   current cycle and switch to the next one whenever the next link has
//!   failed; after at most `k − 1` failures some cycle is intact and the
//!   packet tours every node.
//! * [`ArborescenceFailoverPattern`] — the Chiesa-style related-work baseline
//!   (§I-B.1): per destination, follow a spanning arborescence towards the
//!   root and switch arborescences on failures.

use frr_graph::arborescence::{
    arborescences_from_hamiltonian_cycles, edge_disjoint_spanning_arborescences, Arborescence,
};
use frr_graph::hamiltonian::{
    disjoint_hamiltonian_cycles, laskar_auerbach_decomposition, walecki_decomposition,
    HamiltonianCycle,
};
use frr_graph::{Graph, Node};
use frr_routing::compiled::{compile_lists, CompilePattern, CompiledPattern};
use frr_routing::model::{LocalContext, RoutingModel};
use frr_routing::pattern::ForwardingPattern;
use std::borrow::Cow;
use std::collections::BTreeMap;

/// Theorem 17's `k`-resilient touring pattern built on link-disjoint
/// Hamiltonian cycles.
#[derive(Debug, Clone)]
pub struct HamiltonianTouringPattern {
    /// `successor[i][v]` = the next node after `v` on cycle `i`.
    successor: Vec<Vec<Node>>,
    /// `cycle_of_arc[(u, v)]` = the index of the cycle containing link `{u,v}`.
    cycle_of_edge: BTreeMap<(Node, Node), usize>,
}

impl HamiltonianTouringPattern {
    /// Builds the pattern from explicit link-disjoint Hamiltonian cycles.
    ///
    /// # Panics
    ///
    /// Panics if a cycle does not span all `n` nodes.
    pub fn from_cycles(n: usize, cycles: &[HamiltonianCycle]) -> Self {
        let mut successor = Vec::with_capacity(cycles.len());
        let mut cycle_of_edge = BTreeMap::new();
        for (ci, cycle) in cycles.iter().enumerate() {
            assert_eq!(cycle.len(), n, "Hamiltonian cycle must span all nodes");
            let mut succ = vec![Node(0); n];
            for i in 0..n {
                let v = cycle[i];
                let w = cycle[(i + 1) % n];
                succ[v.index()] = w;
                cycle_of_edge.insert((v, w), ci);
                cycle_of_edge.insert((w, v), ci);
            }
            successor.push(succ);
        }
        HamiltonianTouringPattern {
            successor,
            cycle_of_edge,
        }
    }

    /// The Walecki-based pattern for the complete graph `K_n` (odd `n`),
    /// using all `(n−1)/2` cycles.
    pub fn for_complete(n: usize) -> Self {
        Self::from_cycles(n, &walecki_decomposition(n))
    }

    /// The Laskar–Auerbach-based pattern for `K_{n,n}` (even `n`), using all
    /// `n/2` cycles.
    pub fn for_complete_bipartite(n: usize) -> Self {
        Self::from_cycles(2 * n, &laskar_auerbach_decomposition(n))
    }

    /// Best-effort pattern for an arbitrary graph: greedily extracts up to `k`
    /// link-disjoint Hamiltonian cycles (returns `None` if none exists).
    pub fn best_effort(g: &Graph, k: usize) -> Option<Self> {
        let cycles = disjoint_hamiltonian_cycles(g, k);
        if cycles.is_empty() {
            None
        } else {
            Some(Self::from_cycles(g.node_count(), &cycles))
        }
    }

    /// Number of Hamiltonian cycles the pattern switches between.
    pub fn cycle_count(&self) -> usize {
        self.successor.len()
    }
}

impl ForwardingPattern for HamiltonianTouringPattern {
    fn model(&self) -> RoutingModel {
        RoutingModel::Touring
    }

    fn next_hop(&self, ctx: &LocalContext<'_>) -> Option<Node> {
        if self.successor.is_empty() {
            return None;
        }
        self.switch_order(ctx.node, ctx.inport)
            .find(|&next| ctx.is_alive(next))
    }

    fn name(&self) -> Cow<'static, str> {
        Cow::Owned(format!(
            "Hamiltonian touring (Thm 17, k={})",
            self.cycle_count()
        ))
    }
}

impl HamiltonianTouringPattern {
    /// The cycle-switching priority order at `(node, inport)`: the successor
    /// on the current cycle, then on the following cycles in circular order
    /// (shared by the interpreter and the compiler).
    fn switch_order(&self, node: Node, inport: Option<Node>) -> impl Iterator<Item = Node> + '_ {
        let k = self.successor.len();
        // Identify the current cycle from the in-port (link-disjointness makes
        // the containing cycle unique); starting packets begin on cycle 0.
        let current = match inport {
            Some(from) => *self.cycle_of_edge.get(&(from, node)).unwrap_or(&0),
            None => 0,
        };
        (0..k).map(move |offset| self.successor[(current + offset) % k][node.index()])
    }
}

impl CompilePattern for HamiltonianTouringPattern {
    fn compile(&self, g: &Graph) -> Option<CompiledPattern> {
        compile_lists(
            g,
            RoutingModel::Touring,
            self.name(),
            |_s, _t, v, inport, out| out.extend(self.switch_order(v, inport)),
        )
    }
}

/// The arborescence failover baseline: per destination, a list of spanning
/// arborescences rooted at it; packets follow the current arborescence towards
/// the root and switch to the next one when the out-link has failed.
pub struct ArborescenceFailoverPattern {
    /// `arborescences[t]` = the failover arborescences rooted at `t`.
    arborescences: BTreeMap<Node, Vec<Arborescence>>,
}

impl ArborescenceFailoverPattern {
    /// Builds the baseline for an arbitrary connected graph: per destination,
    /// greedily extracted edge-disjoint BFS spanning arborescences (at least
    /// one on a connected graph).
    pub fn greedy(g: &Graph, trees_per_destination: usize) -> Self {
        let mut arborescences = BTreeMap::new();
        for t in g.nodes() {
            let arbs = edge_disjoint_spanning_arborescences(g, t, trees_per_destination);
            arborescences.insert(t, arbs);
        }
        ArborescenceFailoverPattern { arborescences }
    }

    /// Builds the Chiesa-style decomposition for the complete graph `K_n`
    /// (odd `n`): per destination, the `n − 1` arc-disjoint directed
    /// Hamiltonian paths obtained from the Walecki decomposition.
    pub fn for_complete(n: usize) -> Self {
        let cycles = walecki_decomposition(n);
        let mut arborescences = BTreeMap::new();
        for t in (0..n).map(Node) {
            arborescences.insert(t, arborescences_from_hamiltonian_cycles(&cycles, n, t));
        }
        ArborescenceFailoverPattern { arborescences }
    }

    /// Number of arborescences configured for destination `t`.
    pub fn arborescence_count(&self, t: Node) -> usize {
        self.arborescences.get(&t).map_or(0, |a| a.len())
    }
}

impl ForwardingPattern for ArborescenceFailoverPattern {
    fn model(&self) -> RoutingModel {
        RoutingModel::DestinationOnly
    }

    fn next_hop(&self, ctx: &LocalContext<'_>) -> Option<Node> {
        if ctx.destination_is_alive_neighbor() {
            return Some(ctx.destination);
        }
        let arbs = self.arborescences.get(&ctx.destination)?;
        if arbs.is_empty() {
            return None;
        }
        // Identify the arborescence the packet is currently following: the one
        // whose arc (in-port -> node) carried it here (arc-disjointness makes
        // it unique); starting packets begin on arborescence 0.
        Self::failover_order(arbs, ctx.node, ctx.inport).find(|&next| ctx.is_alive(next))
    }

    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("arborescence failover (Chiesa-style baseline)")
    }
}

impl ArborescenceFailoverPattern {
    /// The failover priority order at `(node, inport)` for one destination's
    /// arborescence list (shared by the interpreter and the compiler).
    fn failover_order<'a>(
        arbs: &'a [Arborescence],
        node: Node,
        inport: Option<Node>,
    ) -> impl Iterator<Item = Node> + 'a {
        let current = match inport {
            Some(from) => arbs
                .iter()
                .position(|a| a.next_hop(from) == Some(node))
                .unwrap_or(0),
            None => 0,
        };
        (0..arbs.len())
            .filter_map(move |offset| arbs[(current + offset) % arbs.len()].next_hop(node))
    }
}

impl CompilePattern for ArborescenceFailoverPattern {
    fn compile(&self, g: &Graph) -> Option<CompiledPattern> {
        compile_lists(
            g,
            RoutingModel::DestinationOnly,
            self.name(),
            |_s, t, v, inport, out| {
                out.push(t);
                if let Some(arbs) = self.arborescences.get(&t) {
                    out.extend(Self::failover_order(arbs, v, inport));
                }
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frr_graph::generators;
    use frr_routing::resilience::Property;

    #[test]
    fn theorem17_k5_tours_under_one_failure() {
        // K5 is 4-connected = 2k-connected with k = 2: tolerate k - 1 = 1 failure.
        let g = generators::complete(5);
        let p = HamiltonianTouringPattern::for_complete(5);
        assert_eq!(p.cycle_count(), 2);
        let verdict = crate::unlimited(&g, &p, Property::bounded_touring(1));
        assert!(
            verdict.is_proven(),
            "Theorem 17 failed on K5 with one failure: {verdict}"
        );
    }

    #[test]
    fn theorem17_k7_tours_under_two_failures() {
        // K7 is 6-connected = 2k-connected with k = 3: tolerate 2 failures.
        let g = generators::complete(7);
        let p = HamiltonianTouringPattern::for_complete(7);
        assert_eq!(p.cycle_count(), 3);
        let verdict = crate::unlimited(&g, &p, Property::bounded_touring(2));
        assert!(
            verdict.is_proven(),
            "Theorem 17 failed on K7 with two failures: {verdict}"
        );
    }

    #[test]
    fn theorem17_k44_tours_under_one_failure() {
        // K_{4,4} is 4-connected = 2k-connected with k = 2: tolerate 1 failure.
        let g = generators::complete_bipartite(4, 4);
        let p = HamiltonianTouringPattern::for_complete_bipartite(4);
        assert_eq!(p.cycle_count(), 2);
        let verdict = crate::unlimited(&g, &p, Property::bounded_touring(1));
        assert!(
            verdict.is_proven(),
            "Theorem 17 failed on K4,4 with one failure: {verdict}"
        );
    }

    #[test]
    fn best_effort_on_a_ring_tours_without_failures() {
        let g = generators::cycle(6);
        let p = HamiltonianTouringPattern::best_effort(&g, 2).unwrap();
        assert_eq!(p.cycle_count(), 1);
        assert!(crate::unlimited(&g, &p, Property::bounded_touring(0)).is_proven());
        // A tree has no Hamiltonian cycle at all.
        assert!(HamiltonianTouringPattern::best_effort(&generators::path(5), 1).is_none());
    }

    #[test]
    fn arborescence_baseline_on_complete_graphs() {
        let g = generators::complete(5);
        let p = ArborescenceFailoverPattern::for_complete(5);
        assert_eq!(p.arborescence_count(Node(0)), 4);
        // The Hamiltonian-path arborescence scheme survives at least 2 failures
        // on K5 (it is built from 4 arc-disjoint trees).
        let verdict = crate::unlimited(&g, &p, Property::bounded(2));
        assert!(
            verdict.is_proven(),
            "arborescence failover failed on K5 with two failures: {verdict}"
        );
    }

    #[test]
    fn greedy_arborescence_baseline_delivers_without_failures() {
        // The greedy variant is a best-effort baseline: with a single spanning
        // tree per destination it delivers in the failure-free case but is not
        // resilient (that gap versus the paper's schemes is exactly what the
        // benchmark harness measures).
        let g = generators::cycle(6);
        let p = ArborescenceFailoverPattern::greedy(&g, 2);
        assert!(p.arborescence_count(Node(0)) >= 1);
        let verdict = crate::unlimited(&g, &p, Property::bounded(0));
        assert!(
            verdict.is_proven(),
            "greedy arborescence failover failed on C6 without failures: {verdict}"
        );
    }

    #[test]
    fn pattern_metadata() {
        let p = HamiltonianTouringPattern::for_complete(5);
        assert_eq!(p.model(), RoutingModel::Touring);
        assert!(p.name().contains("Thm 17"));
        let p = ArborescenceFailoverPattern::for_complete(5);
        assert_eq!(p.model(), RoutingModel::DestinationOnly);
        assert!(p.name().contains("arborescence"));
    }
}
