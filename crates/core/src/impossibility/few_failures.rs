//! Bounded-failure impossibility via the simulation argument (§VI).
//!
//! Theorem 14: on `K_n` (`n ≥ 8`) every forwarding pattern fails under some
//! failure set of size `O(n)` (the paper counts `6n − 33`).  Theorem 15: on
//! `K_{a,b}` (`a, b ≥ 4`) every pattern fails under `O(a + b)` failures (the
//! paper counts `3a + 4b − 21`).
//!
//! Both proofs embed the small impossible graph (`K7` respectively `K4,4`)
//! into the big one, fail every link that would let the packet escape from the
//! non-destination core nodes into the "virtual" part, and then replay the
//! small graph's adversary against the induced behaviour.  The functions here
//! perform exactly that construction against a concrete pattern and return the
//! verified counterexample together with the paper's budget for comparison.

use crate::impossibility::small_graphs::{
    k44_counterexample_for_destination, k7_counterexample_for_destination,
};
use frr_graph::ops::induced_subgraph;
use frr_graph::{Edge, Graph, Node};
use frr_routing::adversary::Counterexample;
use frr_routing::budget::{Progress, RunBudget, StopCause, WorkerPanicked};
use frr_routing::compiled::CompilePattern;
use frr_routing::failure::FailureSet;
use frr_routing::model::{LocalContext, RoutingModel};
use frr_routing::pattern::ForwardingPattern;
use frr_routing::simulator::{route, state_space_bound};

/// Outcome of a bounded-failure construction.
#[derive(Debug, Clone)]
pub struct FewFailuresResult {
    /// The verified counterexample on the large graph.
    pub counterexample: Counterexample,
    /// The failure budget the paper claims for this instance.
    pub paper_budget: usize,
}

/// Typed outcome of a budgeted bounded-failure construction.
#[derive(Debug, Clone)]
pub enum FewFailuresVerdict {
    /// The construction produced and verified a defeating failure set.
    Defeated(FewFailuresResult),
    /// The inner small-graph adversary did not defeat the induced pattern
    /// (the theorems say this cannot happen for a genuinely local pattern;
    /// treat it as a finding about the pattern under test).
    NotDefeated,
    /// The run budget expired or was cancelled before the construction
    /// finished; no claim is made either way.  The payload records how far
    /// the run got and why it stopped, exactly like
    /// [`frr_routing::budget::Verdict::Indeterminate`] — the bins print it
    /// via its `Display`.
    Indeterminate(Progress),
}

/// [`complete_few_failures_counterexample`] under a [`RunBudget`]: refuses
/// with an honest [`FewFailuresVerdict::Indeterminate`] when the budget has
/// already expired or been cancelled (the embedded-core construction itself
/// is polynomial and runs to completion once started), and converts a
/// panicking pattern (or an out-of-domain input that trips the theorem's
/// precondition assertions) into a typed [`WorkerPanicked`] instead of
/// unwinding through the caller.
pub fn complete_few_failures_with_budget<P: CompilePattern + ?Sized>(
    g: &Graph,
    pattern: &P,
    run: &RunBudget,
) -> Result<FewFailuresVerdict, WorkerPanicked> {
    guarded_few_failures(run, || complete_few_failures_counterexample(g, pattern))
}

/// [`bipartite_few_failures_counterexample`] under a [`RunBudget`]; see
/// [`complete_few_failures_with_budget`].
pub fn bipartite_few_failures_with_budget<P: CompilePattern + ?Sized>(
    g: &Graph,
    a: usize,
    b: usize,
    pattern: &P,
    run: &RunBudget,
) -> Result<FewFailuresVerdict, WorkerPanicked> {
    guarded_few_failures(run, || {
        bipartite_few_failures_counterexample(g, a, b, pattern)
    })
}

fn guarded_few_failures(
    run: &RunBudget,
    construct: impl FnOnce() -> Option<FewFailuresResult>,
) -> Result<FewFailuresVerdict, WorkerPanicked> {
    if run.cancelled() || run.deadline_expired() {
        // The construction is all-or-nothing (a single polynomial build), so
        // a budgeted refusal reports zero masks examined — honest about the
        // fact that no adversary work happened at all.
        return Ok(FewFailuresVerdict::Indeterminate(Progress {
            masks_examined: 0,
            weight_reached: 0,
            elapsed: run.elapsed(),
            stopped_by: if run.cancelled() {
                StopCause::Cancelled
            } else {
                StopCause::Deadline
            },
            sampled_trials: 0,
        }));
    }
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(construct)) {
        Ok(Some(res)) => Ok(FewFailuresVerdict::Defeated(res)),
        Ok(None) => Ok(FewFailuresVerdict::NotDefeated),
        Err(payload) => Err(WorkerPanicked {
            position: 0,
            failures: None,
            message: frr_routing::budget::panic_message(&*payload),
        }),
    }
}

/// Builds the Theorem 14 failure set against `pattern` on the complete graph
/// `K_n` (`n ≥ 8`).
///
/// Returns `None` only if the inner `K7` adversary fails to defeat the induced
/// pattern (the theorem guarantees a defeating set exists for every pattern;
/// the shipped portfolio is always defeated).
pub fn complete_few_failures_counterexample<P: CompilePattern + ?Sized>(
    g: &Graph,
    pattern: &P,
) -> Option<FewFailuresResult> {
    let n = g.node_count();
    assert!(n >= 8, "Theorem 14 applies to complete graphs with n >= 8");
    // The embedded K7 lives on nodes 0..7; node 6 plays the destination role
    // and keeps its links to the virtual nodes (they are never used, because
    // every other core node has lost its way out).
    let core: Vec<Node> = (0..7).map(Node).collect();
    let destination_role = Node(6);
    run_simulation_argument(g, pattern, &core, destination_role, 6 * n - 33)
}

/// Builds the Theorem 15 failure set against `pattern` on the complete
/// bipartite graph `K_{a,b}` with parts `{0..a}` and `{a..a+b}` (`a, b ≥ 4`).
pub fn bipartite_few_failures_counterexample<P: CompilePattern + ?Sized>(
    g: &Graph,
    a: usize,
    b: usize,
    pattern: &P,
) -> Option<FewFailuresResult> {
    assert!(
        a >= 4 && b >= 4,
        "Theorem 15 applies to K_{{a,b}} with a, b >= 4"
    );
    assert_eq!(g.node_count(), a + b);
    // Embedded K4,4: the first four nodes of each part; the destination role is
    // the first node of the second part.
    let core: Vec<Node> = (0..4).map(Node).chain((a..a + 4).map(Node)).collect();
    let destination_role = Node(a);
    run_simulation_argument(g, pattern, &core, destination_role, 3 * a + 4 * b - 21)
}

/// Shared machinery for Theorems 14/15: isolate the non-destination core nodes
/// from the virtual part, replay the small-graph adversary against the induced
/// behaviour, and verify the combined failure set on the big graph.
fn run_simulation_argument<P: CompilePattern + ?Sized>(
    g: &Graph,
    pattern: &P,
    core: &[Node],
    destination_role: Node,
    paper_budget: usize,
) -> Option<FewFailuresResult> {
    let core_set: std::collections::BTreeSet<Node> = core.iter().copied().collect();
    let mut outer_failures: Vec<Edge> = Vec::new();
    for &v in core {
        if v == destination_role {
            continue;
        }
        for u in g.neighbors_vec(v) {
            if !core_set.contains(&u) {
                outer_failures.push(Edge::new(v, u));
            }
        }
    }

    // `induced_subgraph` sorts the kept nodes, so `map[i]` is the big-graph
    // node behind small node `i`.
    let (core_graph, map) = induced_subgraph(g, core);
    let small_destination = Node(
        map.iter()
            .position(|&v| v == destination_role)
            .expect("destination role is part of the core"),
    );
    let outer_set = FailureSet::from_edges(outer_failures.iter().copied());
    let restricted = RestrictedPattern {
        inner: pattern,
        big_graph: g,
        outer: &outer_set,
        map: &map,
    };

    let inner_ce = if core.len() == 7 {
        k7_counterexample_for_destination(&core_graph, &restricted, Some(small_destination))?
    } else {
        k44_counterexample_for_destination(&core_graph, &restricted, Some(small_destination))?
    };

    // Map the small-graph counterexample back to big-graph identifiers.
    let mapped_failures: Vec<Edge> = inner_ce
        .failures
        .iter()
        .map(|e| Edge::new(map[e.u().index()], map[e.v().index()]))
        .collect();
    let source = map[inner_ce.source.index()];
    let destination = map[inner_ce.destination.index()];

    let mut failures = outer_set;
    failures.extend(mapped_failures);
    let result = route(
        g,
        &failures,
        pattern,
        source,
        destination,
        state_space_bound(g),
    );
    if result.outcome.is_delivered() {
        return None;
    }
    Some(FewFailuresResult {
        counterexample: Counterexample {
            failures,
            source,
            destination,
            outcome: result.outcome,
            path: result.path,
        },
        paper_budget,
    })
}

/// Presents the big-graph pattern to the small-graph adversaries: local views
/// are evaluated on the big graph with the outer failures merged in, and the
/// answer is translated back to small-graph identifiers.
///
/// With the destination pinned to the core's destination role, every node the
/// packet can sit at has all its out-of-core links failed, so the inner
/// pattern's answer is always translatable.
struct RestrictedPattern<'a, P: ?Sized> {
    inner: &'a P,
    big_graph: &'a Graph,
    outer: &'a FailureSet,
    /// `map[small] = big` node translation (sorted core nodes).
    map: &'a [Node],
}

impl<P: ForwardingPattern + ?Sized> ForwardingPattern for RestrictedPattern<'_, P> {
    fn model(&self) -> RoutingModel {
        self.inner.model()
    }

    fn next_hop(&self, ctx: &LocalContext<'_>) -> Option<Node> {
        let translate = |v: Node| self.map[v.index()];
        let node = translate(ctx.node);
        let mut failed: Vec<Node> = ctx.failed_neighbors.iter().map(|&u| translate(u)).collect();
        failed.extend(self.outer.failed_neighbors_of(node));
        failed.sort_unstable();
        failed.dedup();
        let big_ctx = LocalContext {
            node,
            inport: ctx.inport.map(translate),
            source: translate(ctx.source),
            destination: translate(ctx.destination),
            failed_neighbors: &failed,
            graph: self.big_graph,
        };
        let hop = self.inner.next_hop(&big_ctx)?;
        // Translate back; a hop that leaves the core cannot be represented in
        // the small graph (and is impossible for non-destination nodes, whose
        // outer links are all failed) — treat it as a drop.
        self.map.iter().position(|&v| v == hop).map(Node)
    }

    fn name(&self) -> std::borrow::Cow<'static, str> {
        std::borrow::Cow::Owned(format!(
            "{} (restricted to embedded core)",
            self.inner.name()
        ))
    }
}

/// The restriction wrapper is opaque (it merges outer failures into every
/// local view), so it compiles through the generic tabulator — the embedded
/// cores have at most seven nodes.
impl<P: ForwardingPattern + ?Sized> CompilePattern for RestrictedPattern<'_, P> {}

#[cfg(test)]
mod tests {
    use super::*;
    use frr_graph::generators;
    use frr_routing::adversary::verify_counterexample;
    use frr_routing::pattern::{RotorPattern, ShortestPathPattern};

    #[test]
    fn theorem14_budget_on_k9_and_k11() {
        for n in [9usize, 11] {
            let g = generators::complete(n);
            for pattern in [
                Box::new(RotorPattern::clockwise_with_shortcut(&g)) as Box<dyn CompilePattern>,
                Box::new(ShortestPathPattern::new(&g)),
            ] {
                let res = complete_few_failures_counterexample(&g, pattern.as_ref())
                    .unwrap_or_else(|| panic!("{} must be defeated on K{n}", pattern.name()));
                assert!(verify_counterexample(
                    &g,
                    pattern.as_ref(),
                    &res.counterexample
                ));
                assert_eq!(res.paper_budget, 6 * n - 33);
                // Our construction isolates 6 core nodes from n − 7 virtual
                // nodes (the paper counts n − 8): Θ(n) failures either way,
                // within a constant 6 of the paper's budget.
                assert!(
                    res.counterexample.failures.len() <= res.paper_budget + 6,
                    "measured {} failures vs paper budget {}",
                    res.counterexample.failures.len(),
                    res.paper_budget
                );
            }
        }
    }

    #[test]
    fn theorem14_15_results_unchanged_by_sweep_rewrite() {
        // Regression pin for the `thm14_15_few_failures` experiment: the
        // counterexamples below were produced by the pre-bitmask,
        // clone-per-failure-set implementation.  The sweep rewrite (direct
        // ≤ k mask enumeration, overlay routing, parallel sharding) must
        // reproduce them byte-for-byte.
        use frr_routing::simulator::Outcome;
        let k9 = generators::complete(9);
        let rotor = RotorPattern::clockwise_with_shortcut(&k9);
        let res = complete_few_failures_counterexample(&k9, &rotor).unwrap();
        assert_eq!(res.counterexample.failures.len(), 26);
        assert_eq!(res.counterexample.source, Node(0));
        assert_eq!(res.counterexample.destination, Node(6));
        assert_eq!(res.counterexample.outcome, Outcome::Loop);
        assert_eq!(res.paper_budget, 21);
        assert_eq!(
            format!("{}", res.counterexample.failures),
            "{v0-v2, v0-v3, v0-v4, v0-v5, v0-v6, v0-v7, v0-v8, v1-v3, v1-v4, v1-v5, \
             v1-v6, v1-v7, v1-v8, v2-v6, v2-v7, v2-v8, v3-v4, v3-v6, v3-v7, v3-v8, \
             v4-v5, v4-v7, v4-v8, v5-v6, v5-v7, v5-v8}"
        );

        let k54 = generators::complete_bipartite(5, 4);
        let rotor = RotorPattern::clockwise_with_shortcut(&k54);
        let res = bipartite_few_failures_counterexample(&k54, 5, 4, &rotor).unwrap();
        assert_eq!(res.counterexample.failures.len(), 11);
        assert_eq!(res.counterexample.source, Node(0));
        assert_eq!(res.counterexample.destination, Node(5));
        assert_eq!(res.counterexample.outcome, Outcome::Loop);
        assert_eq!(res.paper_budget, 10);
        assert_eq!(
            format!("{}", res.counterexample.failures),
            "{v0-v5, v0-v6, v0-v7, v1-v5, v2-v5, v2-v8, v3-v7, v3-v8, v4-v6, v4-v7, v4-v8}"
        );
    }

    #[test]
    fn budgeted_few_failures_is_honest_and_typed() {
        use frr_routing::budget::{CancelToken, RunBudget};
        let k9 = generators::complete(9);
        let rotor = RotorPattern::clockwise_with_shortcut(&k9);
        // Unlimited: same defeat as the legacy entry point.
        match complete_few_failures_with_budget(&k9, &rotor, &RunBudget::unlimited()) {
            Ok(FewFailuresVerdict::Defeated(res)) => assert_eq!(res.paper_budget, 21),
            other => panic!("expected Defeated, got {other:?}"),
        }
        // Cancelled: honest Indeterminate, not a fabricated defeat.
        let token = CancelToken::new();
        token.cancel();
        let run = RunBudget::unlimited().with_cancel_token(token);
        match complete_few_failures_with_budget(&k9, &rotor, &run) {
            Ok(FewFailuresVerdict::Indeterminate(p)) => {
                use frr_routing::budget::StopCause;
                assert_eq!(p.stopped_by, StopCause::Cancelled);
                assert_eq!(p.masks_examined, 0);
            }
            other => panic!("expected Indeterminate, got {other:?}"),
        }
        // Out-of-domain input (K7 is below the theorem's n >= 8 floor): the
        // precondition assert surfaces as a typed WorkerPanicked.
        let k7 = generators::complete(7);
        let rotor7 = RotorPattern::clockwise_with_shortcut(&k7);
        let err = complete_few_failures_with_budget(&k7, &rotor7, &RunBudget::unlimited())
            .expect_err("n = 7 must be rejected");
        assert!(err.message.contains("n >= 8"), "got: {}", err.message);
    }

    #[test]
    fn theorem15_budget_on_k54_and_k55() {
        for (a, b) in [(5usize, 4usize), (5, 5)] {
            let g = generators::complete_bipartite(a, b);
            for pattern in [
                Box::new(RotorPattern::clockwise_with_shortcut(&g)) as Box<dyn CompilePattern>,
                Box::new(ShortestPathPattern::new(&g)),
            ] {
                let res = bipartite_few_failures_counterexample(&g, a, b, pattern.as_ref())
                    .unwrap_or_else(|| panic!("{} must be defeated on K{a},{b}", pattern.name()));
                assert!(verify_counterexample(
                    &g,
                    pattern.as_ref(),
                    &res.counterexample
                ));
                assert_eq!(res.paper_budget, 3 * a + 4 * b - 21);
                assert!(
                    res.counterexample.failures.len() <= res.paper_budget + 8,
                    "measured {} failures vs paper budget {}",
                    res.counterexample.failures.len(),
                    res.paper_budget
                );
            }
        }
    }
}
