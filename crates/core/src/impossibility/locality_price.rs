//! The price of locality: no `r`-tolerant forwarding pattern exists on
//! `K_{3+5r}` (Theorem 1 / Corollary 1), and `r`-tolerance is not preserved
//! under taking minors for `r ≥ 2` (Theorem 2).
//!
//! The adversary below instantiates the failure-set family from the proof of
//! Theorem 1: the non-source/destination nodes are split into `r` disjoint
//! five-node gadgets plus one spare relay node; inside each gadget either a
//! single surviving path `s–a–b–c–t` is offered (which a local pattern may
//! fail to use) or the "trap" configuration of Fig. 10 is installed (which
//! catches patterns that commit to a cyclic sweep); the relay either provides
//! the extra `s–v–t` path or is cut from `t`, depending on which variant is
//! being probed.  Every candidate keeps `s` and `t` `r`-connected, so any
//! delivery failure is a genuine violation of `r`-tolerance.

use frr_graph::{generators, Edge, Graph, Node};
use frr_routing::adversary::Counterexample;
use frr_routing::compiled::CompilePattern;
use frr_routing::failure::FailureSet;
use frr_routing::model::{LocalContext, RoutingModel};
use frr_routing::pattern::FnPattern;
use frr_routing::simulator::{route, state_space_bound};

/// Which configuration a five-node gadget takes in a candidate failure set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GadgetKind {
    /// Keep only the path `s–g0–g1–g2–t` alive inside the gadget.
    Path,
    /// Install the Fig. 10 trap: alive links `s–g0`, `g0–g1`, `g1–g2`,
    /// `g1–g4`, `g2–g4`, `g1–g3`, `g3–t` (the packet is meant to circle
    /// `g1–g2–g4`, while the path via `g3` survives).
    Trap,
}

/// Alive links contributed by one gadget (5 nodes `g`) for the given kind.
fn gadget_alive(s: Node, t: Node, g: &[Node], kind: GadgetKind) -> Vec<(Node, Node)> {
    match kind {
        GadgetKind::Path => vec![(s, g[0]), (g[0], g[1]), (g[1], g[2]), (g[2], t)],
        GadgetKind::Trap => vec![
            (s, g[0]),
            (g[0], g[1]),
            (g[1], g[2]),
            (g[1], g[4]),
            (g[2], g[4]),
            (g[1], g[3]),
            (g[3], t),
        ],
    }
}

/// Searches for a verified violation of `r`-tolerance for the pair
/// `(s, t) = (0, 1)` on the complete graph `K_{3+5r}` — the Theorem 1 setting.
///
/// Returns a counterexample whose failure set keeps `s` and `t`
/// `r`-connected while the packet is not delivered, or `None` if the whole
/// candidate family fails to defeat the pattern (the theorem guarantees that a
/// defeating failure set exists for *every* pattern; the structured family
/// catches all the pattern shapes shipped with this workspace).
pub fn r_tolerance_counterexample<P: CompilePattern + ?Sized>(
    r: usize,
    pattern: &P,
) -> Option<Counterexample> {
    assert!(r >= 1, "r-tolerance is defined for r >= 1");
    let n = 3 + 5 * r;
    let g = generators::complete(n);
    let s = Node(0);
    let t = Node(1);
    let relay = Node(2);
    let gadget_nodes: Vec<Node> = (3..n).map(Node).collect();
    debug_assert_eq!(gadget_nodes.len(), 5 * r);
    let max_hops = state_space_bound(&g);

    // Role permutations inside the first gadget (the others keep a fixed
    // internal labelling — the first gadget is the one that must outwit the
    // pattern's local choices, the rest only have to supply surviving paths).
    let first: Vec<Node> = gadget_nodes[..5].to_vec();
    let first_perms = all_permutations(&first);

    let kinds = [GadgetKind::Path, GadgetKind::Trap];
    let try_candidate = |alive: &[(Node, Node)]| -> Option<Counterexample> {
        let alive_set: std::collections::BTreeSet<Edge> =
            alive.iter().map(|&(u, v)| Edge::new(u, v)).collect();
        let failures =
            FailureSet::from_edges(g.edges().into_iter().filter(|e| !alive_set.contains(e)));
        if !failures.keeps_r_connected(&g, s, t, r) {
            return None;
        }
        let result = route(&g, &failures, pattern, s, t, max_hops);
        if result.outcome.is_delivered() {
            return None;
        }
        Some(Counterexample {
            failures,
            source: s,
            destination: t,
            outcome: result.outcome,
            path: result.path,
        })
    };

    // Phase 1: vary roles and kind of the first gadget, keep the others as
    // plain path gadgets.
    for &first_kind in &kinds {
        for first_roles in &first_perms {
            for relay_to_t_alive in [false, true] {
                let mut alive: Vec<(Node, Node)> = Vec::new();
                alive.extend(gadget_alive(s, t, first_roles, first_kind));
                for gi in 1..r {
                    let block = &gadget_nodes[5 * gi..5 * (gi + 1)];
                    alive.extend(gadget_alive(s, t, block, GadgetKind::Path));
                }
                alive.push((s, relay));
                if relay_to_t_alive {
                    alive.push((relay, t));
                }
                if let Some(ce) = try_candidate(&alive) {
                    return Some(ce);
                }
            }
        }
    }

    // Phase 2: install the same (permuted) trap in every gadget.
    for roles in &first_perms {
        for relay_to_t_alive in [false, true] {
            let mut alive: Vec<(Node, Node)> = Vec::new();
            for gi in 0..r {
                let block = &gadget_nodes[5 * gi..5 * (gi + 1)];
                let permuted: Vec<Node> = roles
                    .iter()
                    .map(|v| {
                        let offset = v.index() - gadget_nodes[0].index();
                        block[offset]
                    })
                    .collect();
                alive.extend(gadget_alive(s, t, &permuted, GadgetKind::Trap));
            }
            alive.push((s, relay));
            if relay_to_t_alive {
                alive.push((relay, t));
            }
            if let Some(ce) = try_candidate(&alive) {
                return Some(ce);
            }
        }
    }

    // Phase 3: seeded random role/kind assignments across all gadgets.
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(0x70CA11);
    for _ in 0..4_000 {
        let mut alive: Vec<(Node, Node)> = Vec::new();
        for gi in 0..r {
            let mut block: Vec<Node> = gadget_nodes[5 * gi..5 * (gi + 1)].to_vec();
            block.shuffle(&mut rng);
            let kind = if rng.gen_bool(0.5) {
                GadgetKind::Path
            } else {
                GadgetKind::Trap
            };
            alive.extend(gadget_alive(s, t, &block, kind));
        }
        alive.push((s, relay));
        if rng.gen_bool(0.5) {
            alive.push((relay, t));
        }
        // Occasionally keep a few extra random links alive to diversify the
        // local views the pattern sees.
        if rng.gen_bool(0.3) {
            let edges = g.edges();
            for _ in 0..rng.gen_range(1..4) {
                let e = edges[rng.gen_range(0..edges.len())];
                alive.push((e.u(), e.v()));
            }
        }
        if let Some(ce) = try_candidate(&alive) {
            return Some(ce);
        }
    }
    None
}

fn all_permutations(items: &[Node]) -> Vec<Vec<Node>> {
    fn rec(rest: &mut Vec<Node>, current: &mut Vec<Node>, out: &mut Vec<Vec<Node>>) {
        if rest.is_empty() {
            out.push(current.clone());
            return;
        }
        for i in 0..rest.len() {
            let x = rest.remove(i);
            current.push(x);
            rec(rest, current, out);
            current.pop();
            rest.insert(i, x);
        }
    }
    let mut out = Vec::new();
    rec(&mut items.to_vec(), &mut Vec::new(), &mut out);
    out
}

/// Theorem 2's positive half: the supergraph built by
/// [`frr_graph::generators::theorem2_supergraph`] *does* admit an `r`-tolerant
/// pattern for the pair `(s', t)` — route over the direct `s'–t` link; if that
/// link is gone, `s'` and `t` cannot be `r`-connected any more (the super
/// source has degree `r`), so the promise is void.
///
/// Combined with [`r_tolerance_counterexample`] on the minor `K_{3+5r}` this
/// demonstrates that `r`-tolerance does not transfer to minors for `r ≥ 2`.
pub fn theorem2_supergraph_pattern(r: usize) -> (Graph, impl CompilePattern) {
    let g = generators::theorem2_supergraph(r);
    let base = 3 + 5 * r;
    let s_prime = Node(base);
    let t = Node(1);
    let pattern = FnPattern::new(
        RoutingModel::SourceDestination,
        "Theorem 2 supergraph pattern",
        move |ctx: &LocalContext<'_>| {
            if ctx.destination_is_alive_neighbor() {
                return Some(ctx.destination);
            }
            if ctx.node == s_prime && ctx.destination == t {
                // Only the direct link matters: without it the promise is void.
                return None;
            }
            // Any other traffic: fall back to a plain sweep (not part of the
            // theorem's claim, but keeps the pattern total).
            ctx.alive_neighbors()
                .into_iter()
                .find(|&u| Some(u) != ctx.inport)
        },
    );
    (g, pattern)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::Distance2Pattern;
    use frr_routing::adversary::{verify_counterexample, RandomAdversary};
    use frr_routing::pattern::{RotorPattern, ShortestPathPattern};
    use frr_routing::resilience::Property;

    fn portfolio(g: &Graph) -> Vec<Box<dyn CompilePattern>> {
        vec![
            Box::new(RotorPattern::clockwise_with_shortcut(g)),
            Box::new(ShortestPathPattern::new(g)),
            Box::new(Distance2Pattern::new()),
        ]
    }

    #[test]
    fn theorem1_no_1_tolerance_on_k8() {
        let g = generators::complete(8);
        for pattern in portfolio(&g) {
            let ce = r_tolerance_counterexample(1, pattern.as_ref())
                .unwrap_or_else(|| panic!("{} must be defeated on K8", pattern.name()));
            assert!(verify_counterexample(&g, pattern.as_ref(), &ce));
            assert!(ce
                .failures
                .keeps_r_connected(&g, ce.source, ce.destination, 1));
        }
    }

    #[test]
    fn theorem1_no_2_tolerance_on_k13() {
        let g = generators::complete(13);
        for pattern in portfolio(&g) {
            let ce = r_tolerance_counterexample(2, pattern.as_ref())
                .unwrap_or_else(|| panic!("{} must be defeated on K13", pattern.name()));
            assert!(verify_counterexample(&g, pattern.as_ref(), &ce));
            assert!(
                ce.failures
                    .keeps_r_connected(&g, ce.source, ce.destination, 2),
                "the counterexample must respect the 2-connectivity promise"
            );
        }
    }

    #[test]
    fn theorem2_supergraph_is_r_tolerant_while_its_minor_is_not() {
        let r = 2;
        let (g, pattern) = theorem2_supergraph_pattern(r);
        let s_prime = Node(3 + 5 * r);
        let t = Node(1);
        // Sampled r-tolerance check for the designated pair on the supergraph.
        let pair = Property::Tolerance {
            source: s_prime,
            destination: t,
            r,
        };
        assert!(
            RandomAdversary::new(2100, 6, 23)
                .find_counterexample(&g, &pattern, pair)
                .is_none(),
            "the supergraph pattern must be r-tolerant for (s', t)"
        );
        // ... while the K_{3+5r} minor admits no r-tolerant pattern: the
        // structured adversary defeats the portfolio (Theorem 1).
        let minor = generators::complete(3 + 5 * r);
        let p = ShortestPathPattern::new(&minor);
        assert!(r_tolerance_counterexample(r, &p).is_some());
    }
}
