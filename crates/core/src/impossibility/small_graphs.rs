//! Adversaries for the paper's small forbidden graphs.
//!
//! * `K7` / `K7^{-1}` and `K4,4` / `K4,4^{-1}` — no source–destination perfect
//!   resilience (Theorems 6/7); the counterexamples found here use at most 15
//!   respectively 11 failures (Corollaries 3/4).
//! * `K5^{-1}` and `K3,3^{-1}` — no destination-only perfect resilience
//!   (Theorems 10/11).
//! * `K4` and `K2,3` — no perfectly resilient touring (Lemmas 3/4).
//!
//! The `K7` and `K4,4` adversaries first try the structured failure-set family
//! extracted from the paper's proofs (the Fig. 10 template for `K7`, the final
//! trap walk of Lemma 6 for `K4,4`), instantiated over all role assignments;
//! if the candidate pattern dodges the whole family they fall back to a
//! randomized and finally an exhaustive bounded search.  Every returned
//! counterexample is re-verified by the simulator.

use frr_graph::{generators, Edge, Graph, Node};
use frr_routing::adversary::{verify_counterexample, Adversary, Counterexample, RandomAdversary};
use frr_routing::compiled::CompilePattern;
use frr_routing::failure::FailureSet;
use frr_routing::resilience::Property;
use frr_routing::simulator::{route, state_space_bound};

/// Builds the failure set that keeps exactly `alive` links of `g` alive.
fn failures_keeping(g: &Graph, alive: &[(Node, Node)]) -> FailureSet {
    let alive_set: std::collections::BTreeSet<Edge> =
        alive.iter().map(|&(u, v)| Edge::new(u, v)).collect();
    FailureSet::from_edges(g.edges().into_iter().filter(|e| !alive_set.contains(e)))
}

/// Checks one structured candidate and returns it if it genuinely defeats the
/// pattern (source and destination stay connected, packet not delivered).
fn try_candidate<P: CompilePattern + ?Sized>(
    g: &Graph,
    pattern: &P,
    failures: FailureSet,
    s: Node,
    t: Node,
) -> Option<Counterexample> {
    if !failures.keeps_connected(g, s, t) {
        return None;
    }
    let result = route(g, &failures, pattern, s, t, state_space_bound(g));
    if result.outcome.is_delivered() {
        return None;
    }
    let ce = Counterexample {
        failures,
        source: s,
        destination: t,
        outcome: result.outcome,
        path: result.path,
    };
    debug_assert!(verify_counterexample(g, pattern, &ce));
    Some(ce)
}

/// All ordered selections of `k` distinct elements from `items`.
fn permutations(items: &[Node], k: usize) -> Vec<Vec<Node>> {
    let mut out = Vec::new();
    let mut current = Vec::new();
    fn rec(items: &[Node], k: usize, current: &mut Vec<Node>, out: &mut Vec<Vec<Node>>) {
        if current.len() == k {
            out.push(current.clone());
            return;
        }
        for &x in items {
            if !current.contains(&x) {
                current.push(x);
                rec(items, k, current, out);
                current.pop();
            }
        }
    }
    rec(items, k, &mut current, &mut out);
    out
}

/// The Fig. 10 / Lemma 5 alive-link template on `K7`: the packet is meant to
/// be trapped in the cyclic triangle `v2–v3–v5` while the path
/// `s–v1–v2–v4–t` survives.
fn k7_alive_template(s: Node, v: &[Node], t: Node) -> Vec<(Node, Node)> {
    let (v1, v2, v3, v4, v5) = (v[0], v[1], v[2], v[3], v[4]);
    vec![
        (s, v1),
        (v1, v2),
        (v2, v3),
        (v2, v5),
        (v3, v5),
        (v2, v4),
        (v4, t),
    ]
}

/// Searches for a verified counterexample to source–destination perfect
/// resilience on `K7` (or a graph containing it on the same seven nodes, e.g.
/// `K7^{-1}`), using at most 15 link failures (Corollary 3).
pub fn k7_counterexample<P: CompilePattern + ?Sized>(
    g: &Graph,
    pattern: &P,
) -> Option<Counterexample> {
    k7_counterexample_for_destination(g, pattern, None)
}

/// Like [`k7_counterexample`], but only probes scenarios whose destination is
/// `destination` (used by the Theorem 14 simulation argument, which must keep
/// the embedded destination fixed).
pub fn k7_counterexample_for_destination<P: CompilePattern + ?Sized>(
    g: &Graph,
    pattern: &P,
    destination: Option<Node>,
) -> Option<Counterexample> {
    assert!(
        g.node_count() == 7,
        "the K7 adversary expects a 7-node graph"
    );
    let nodes: Vec<Node> = g.nodes().collect();
    // Structured family from the proof of Lemma 5, over all role assignments.
    for &s in &nodes {
        for &t in &nodes {
            if s == t || destination.is_some_and(|d| d != t) {
                continue;
            }
            let middle: Vec<Node> = nodes
                .iter()
                .copied()
                .filter(|&x| x != s && x != t)
                .collect();
            for roles in permutations(&middle, 5) {
                let failures = failures_keeping(g, &k7_alive_template(s, &roles, t));
                if failures.len() > 15 {
                    continue;
                }
                if let Some(ce) = try_candidate(g, pattern, failures, s, t) {
                    return Some(ce);
                }
            }
        }
    }
    // Fallback: randomized search bounded to 15 failures.
    RandomAdversary::new(20_000, 15, 0x5EED)
        .find_counterexample(g, pattern)
        .filter(|ce| verify_counterexample(g, pattern, ce))
        .filter(|ce| destination.is_none_or(|d| ce.destination == d))
}

/// The final trap walk of Lemma 6 on `K4,4`: the packet loops through
/// `a–v2–d–v1–a` while the path `s–b–v1–a–v3–t` survives.
fn k44_alive_template(s: Node, v: &[Node], abd: &[Node], t: Node) -> Vec<(Node, Node)> {
    let (v1, v2, v3) = (v[0], v[1], v[2]);
    let (a, b, d) = (abd[0], abd[1], abd[2]);
    vec![
        (s, b),
        (b, v1),
        (v1, a),
        (a, v2),
        (v2, d),
        (d, v1),
        (a, v3),
        (v3, t),
    ]
}

/// Searches for a verified counterexample to source–destination perfect
/// resilience on `K4,4` (parts `{0..4}` and `{4..8}`) or `K4,4^{-1}`, using at
/// most 11 failures (Corollary 4).
pub fn k44_counterexample<P: CompilePattern + ?Sized>(
    g: &Graph,
    pattern: &P,
) -> Option<Counterexample> {
    k44_counterexample_for_destination(g, pattern, None)
}

/// Like [`k44_counterexample`], but only probes scenarios whose destination is
/// `destination` (used by the Theorem 15 simulation argument).
pub fn k44_counterexample_for_destination<P: CompilePattern + ?Sized>(
    g: &Graph,
    pattern: &P,
    destination: Option<Node>,
) -> Option<Counterexample> {
    assert!(
        g.node_count() == 8,
        "the K4,4 adversary expects an 8-node graph"
    );
    let part_a: Vec<Node> = (0..4).map(Node).collect();
    let part_b: Vec<Node> = (4..8).map(Node).collect();
    for (s_part, t_part) in [(&part_a, &part_b), (&part_b, &part_a)] {
        for &s in s_part.iter() {
            for &t in t_part.iter() {
                if destination.is_some_and(|d| d != t) {
                    continue;
                }
                let vs: Vec<Node> = s_part.iter().copied().filter(|&x| x != s).collect();
                let abd_pool: Vec<Node> = t_part.iter().copied().filter(|&x| x != t).collect();
                for v_roles in permutations(&vs, 3) {
                    for abd_roles in permutations(&abd_pool, 3) {
                        let failures =
                            failures_keeping(g, &k44_alive_template(s, &v_roles, &abd_roles, t));
                        if failures.len() > 11 {
                            continue;
                        }
                        if let Some(ce) = try_candidate(g, pattern, failures, s, t) {
                            return Some(ce);
                        }
                    }
                }
            }
        }
    }
    RandomAdversary::new(20_000, 11, 0xBEEF)
        .find_counterexample(g, pattern)
        .filter(|ce| verify_counterexample(g, pattern, ce))
        .filter(|ce| destination.is_none_or(|d| ce.destination == d))
}

/// Searches (exhaustively) for a counterexample to destination-only perfect
/// resilience on `K5^{-1}` (Theorem 10).
pub fn k5_minus1_destination_counterexample<P: CompilePattern + ?Sized>(
    pattern: &P,
) -> Option<Counterexample> {
    let g = generators::complete_minus(5, 1);
    crate::refute(&g, pattern, Property::PERFECT)
}

/// Searches (exhaustively) for a counterexample to destination-only perfect
/// resilience on `K3,3^{-1}` (Theorem 11).
pub fn k33_minus1_destination_counterexample<P: CompilePattern + ?Sized>(
    pattern: &P,
) -> Option<Counterexample> {
    let g = generators::complete_bipartite_minus(3, 3, 1);
    crate::refute(&g, pattern, Property::PERFECT)
}

/// Searches (exhaustively) for a counterexample to perfectly resilient touring
/// on `K4` (Lemma 3).
pub fn k4_touring_counterexample<P: CompilePattern + ?Sized>(
    pattern: &P,
) -> Option<Counterexample> {
    let g = generators::complete(4);
    crate::refute(&g, pattern, Property::PERFECT_TOURING)
}

/// Searches (exhaustively) for a counterexample to perfectly resilient touring
/// on `K2,3` (Lemma 4).
pub fn k23_touring_counterexample<P: CompilePattern + ?Sized>(
    pattern: &P,
) -> Option<Counterexample> {
    let g = generators::complete_bipartite(2, 3);
    crate::refute(&g, pattern, Property::PERFECT_TOURING)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{Distance2Pattern, K5SourcePattern};
    use frr_routing::pattern::{RotorPattern, ShortestPathPattern};

    /// The candidate portfolio the adversaries must defeat (the theorems hold
    /// for *every* pattern; the library demonstrates them on this portfolio).
    fn source_dest_portfolio(g: &Graph) -> Vec<Box<dyn CompilePattern>> {
        vec![
            Box::new(RotorPattern::clockwise_with_shortcut(g)),
            Box::new(ShortestPathPattern::new(g)),
            Box::new(Distance2Pattern::new()),
        ]
    }

    #[test]
    fn corollary3_k7_defeated_with_at_most_15_failures() {
        let g = generators::complete(7);
        for pattern in source_dest_portfolio(&g) {
            let ce = k7_counterexample(&g, pattern.as_ref())
                .unwrap_or_else(|| panic!("{} must be defeated on K7", pattern.name()));
            assert!(ce.failures.len() <= 15, "Corollary 3 budget exceeded");
            assert!(verify_counterexample(&g, pattern.as_ref(), &ce));
        }
    }

    #[test]
    fn theorem6_k7_minus_one_also_defeated() {
        let g = generators::complete_minus(7, 1);
        for pattern in source_dest_portfolio(&g) {
            let ce = k7_counterexample(&g, pattern.as_ref())
                .unwrap_or_else(|| panic!("{} must be defeated on K7^-1", pattern.name()));
            assert!(verify_counterexample(&g, pattern.as_ref(), &ce));
        }
    }

    #[test]
    fn corollary4_k44_defeated_with_at_most_11_failures() {
        let g = generators::complete_bipartite(4, 4);
        for pattern in source_dest_portfolio(&g) {
            let ce = k44_counterexample(&g, pattern.as_ref())
                .unwrap_or_else(|| panic!("{} must be defeated on K4,4", pattern.name()));
            assert!(ce.failures.len() <= 11, "Corollary 4 budget exceeded");
            assert!(verify_counterexample(&g, pattern.as_ref(), &ce));
        }
    }

    #[test]
    fn theorem7_k44_minus_one_also_defeated() {
        let g = generators::complete_bipartite_minus(4, 4, 1);
        for pattern in source_dest_portfolio(&g) {
            let ce = k44_counterexample(&g, pattern.as_ref())
                .unwrap_or_else(|| panic!("{} must be defeated on K4,4^-1", pattern.name()));
            assert!(verify_counterexample(&g, pattern.as_ref(), &ce));
        }
    }

    #[test]
    fn theorems_10_and_11_destination_only_impossibility() {
        // Destination-only candidates on K5^-1 and K3,3^-1.
        let k5m1 = generators::complete_minus(5, 1);
        for pattern in [
            Box::new(RotorPattern::clockwise_with_shortcut(&k5m1)) as Box<dyn CompilePattern>,
            Box::new(ShortestPathPattern::new(&k5m1)),
        ] {
            let ce = k5_minus1_destination_counterexample(pattern.as_ref())
                .unwrap_or_else(|| panic!("{} must be defeated on K5^-1", pattern.name()));
            assert!(verify_counterexample(&k5m1, pattern.as_ref(), &ce));
        }
        let k33m1 = generators::complete_bipartite_minus(3, 3, 1);
        for pattern in [
            Box::new(RotorPattern::clockwise_with_shortcut(&k33m1)) as Box<dyn CompilePattern>,
            Box::new(ShortestPathPattern::new(&k33m1)),
        ] {
            let ce = k33_minus1_destination_counterexample(pattern.as_ref())
                .unwrap_or_else(|| panic!("{} must be defeated on K3,3^-1", pattern.name()));
            assert!(verify_counterexample(&k33m1, pattern.as_ref(), &ce));
        }
    }

    #[test]
    fn k5_source_pattern_survives_k5_but_the_theorems_kick_in_above() {
        // Sanity contrast: Algorithm 1 is perfectly resilient on K5 (Thm 8),
        // while no pattern survives K5^-1 in the destination-only model.
        let k5 = generators::complete(5);
        assert!(crate::refute(&k5, &K5SourcePattern::new(&k5), Property::PERFECT).is_none());
    }

    #[test]
    fn lemmas_3_and_4_touring_impossibility() {
        let k4 = generators::complete(4);
        let k23 = generators::complete_bipartite(2, 3);
        let p = RotorPattern::clockwise(&k4);
        assert!(
            k4_touring_counterexample(&p).is_some(),
            "K4 touring must fail"
        );
        let p = RotorPattern::clockwise(&k23);
        assert!(
            k23_touring_counterexample(&p).is_some(),
            "K2,3 touring must fail"
        );
    }
}
