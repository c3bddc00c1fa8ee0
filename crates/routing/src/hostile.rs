//! Deliberately misbehaving forwarding patterns for the chaos suite.
//!
//! The verification stack promises to *terminate with a typed answer* no
//! matter how a [`ForwardingPattern`] misbehaves: forwarding into failed
//! links or to non-neighbors is a forwarding fault the simulators report as
//! [`crate::simulator::Outcome::Stuck`], nondeterminism is bounded by the
//! hop limit, a refusal to compile falls back to the interpreted path, and a
//! panic inside a sharded sweep surfaces as a typed
//! [`crate::budget::WorkerPanicked`] instead of aborting the process.  The
//! builders here are the fault injectors `crates/routing/tests/chaos.rs`
//! (and any downstream robustness test) drives those promises with.
//!
//! The forwarding-time hostile patterns implement [`CompilePattern`] with
//! `compile` → `None`: the generic tabulator enumerates failure contexts
//! during compilation, which would hit the injected faults at compile time
//! instead of probe time.  Refusing keeps the fault on the code path under
//! test — and doubles as coverage for the compile-refusal fallback itself.
//! [`PanicOnCompile`] is the exception: its `compile` panics, which
//! [`crate::compiled::Forwarder`] treats like a refusal.  Wrap a
//! *well-behaved* pattern in [`NoCompile`] to test that fallback alone.

use crate::compiled::{CompilePattern, CompiledPattern};
use crate::model::{LocalContext, RoutingModel};
use crate::pattern::ForwardingPattern;
use frr_graph::{Graph, Node};
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};

/// Forwards straight into a failed link whenever one is incident, otherwise
/// to the first alive neighbor.
///
/// Any step taken under a non-empty incident failure set is a forwarding
/// fault; the simulators must report [`crate::simulator::Outcome::Stuck`],
/// never follow the dead link.
#[derive(Debug, Clone, Copy, Default)]
pub struct FailedLinkForwarder;

impl ForwardingPattern for FailedLinkForwarder {
    fn model(&self) -> RoutingModel {
        RoutingModel::DestinationOnly
    }

    fn next_hop(&self, ctx: &LocalContext<'_>) -> Option<Node> {
        if let Some(&dead) = ctx.failed_neighbors.first() {
            return Some(dead);
        }
        ctx.alive_neighbors().first().copied()
    }

    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("hostile:failed-link")
    }
}

impl CompilePattern for FailedLinkForwarder {
    fn compile(&self, _g: &Graph) -> Option<CompiledPattern> {
        None
    }

    fn compile_destination(&self, _g: &Graph, _t: Node) -> Option<CompiledPattern> {
        None
    }
}

/// Forwards to a node that is *not a neighbor* whenever one exists (the
/// smallest non-neighbor distinct from the current node), otherwise to the
/// first alive neighbor.
///
/// The returned node is always in range, so the fault is a pure protocol
/// violation: the simulators must refuse the hop
/// ([`crate::simulator::Outcome::Stuck`]), not follow a phantom link.  On
/// complete graphs every other node is a neighbor and this pattern degrades
/// to a benign first-neighbor forwarder — drive it on sparse topologies.
#[derive(Debug, Clone, Copy, Default)]
pub struct NonNeighborForwarder;

impl ForwardingPattern for NonNeighborForwarder {
    fn model(&self) -> RoutingModel {
        RoutingModel::DestinationOnly
    }

    fn next_hop(&self, ctx: &LocalContext<'_>) -> Option<Node> {
        let stranger = ctx
            .graph
            .nodes()
            .find(|&u| u != ctx.node && !ctx.graph.has_edge(ctx.node, u));
        stranger.or_else(|| ctx.alive_neighbors().first().copied())
    }

    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("hostile:non-neighbor")
    }
}

impl CompilePattern for NonNeighborForwarder {
    fn compile(&self, _g: &Graph) -> Option<CompiledPattern> {
        None
    }

    fn compile_destination(&self, _g: &Graph, _t: Node) -> Option<CompiledPattern> {
        None
    }
}

/// Violates the determinism contract: alternates between the first and last
/// alive neighbor on successive `next_hop` calls (a shared atomic call
/// counter, so the violation persists across threads and packets).
///
/// Exact loop detection assumes determinism, so this pattern can evade the
/// `(node, in-port)` state check — but every walk is still bounded by the
/// simulators' hop limit, which must report
/// [`crate::simulator::Outcome::HopLimit`] (or fail the tour) rather than
/// hang.
#[derive(Debug, Default)]
pub struct NondeterministicPattern {
    calls: AtomicU64,
}

impl NondeterministicPattern {
    /// A fresh pattern with its call counter at zero.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ForwardingPattern for NondeterministicPattern {
    fn model(&self) -> RoutingModel {
        RoutingModel::DestinationOnly
    }

    fn next_hop(&self, ctx: &LocalContext<'_>) -> Option<Node> {
        let flip = self.calls.fetch_add(1, Ordering::Relaxed).is_multiple_of(2);
        let alive = ctx.alive_neighbors();
        if flip {
            alive.first().copied()
        } else {
            alive.last().copied()
        }
    }

    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("hostile:nondeterministic")
    }
}

impl CompilePattern for NondeterministicPattern {
    fn compile(&self, _g: &Graph) -> Option<CompiledPattern> {
        None
    }

    fn compile_destination(&self, _g: &Graph, _t: Node) -> Option<CompiledPattern> {
        None
    }
}

/// Panics the moment it is asked to forward past an incident failed link;
/// behaves like a benign clockwise rotor (first neighbor after the in-port)
/// under the empty failure set, so cycle-shaped test graphs deliver cleanly
/// without failures.
///
/// The empty-mask probe (always enumeration position 0 of a sweep) passes,
/// so the panic fires *mid-sweep inside a sharded worker* — exactly the
/// scenario the `catch_unwind` isolation and the typed
/// [`crate::budget::WorkerPanicked`] error exist for.
#[derive(Debug, Clone, Copy, Default)]
pub struct PanicPattern;

impl ForwardingPattern for PanicPattern {
    fn model(&self) -> RoutingModel {
        RoutingModel::DestinationOnly
    }

    fn next_hop(&self, ctx: &LocalContext<'_>) -> Option<Node> {
        assert!(
            ctx.failed_neighbors.is_empty(),
            "hostile pattern panic: asked to route at {} past {} failed link(s)",
            ctx.node,
            ctx.failed_neighbors.len()
        );
        let alive = ctx.alive_neighbors();
        match ctx.inport {
            Some(p) => alive
                .iter()
                .copied()
                .find(|&u| u > p)
                .or_else(|| alive.first().copied()),
            None => alive.first().copied(),
        }
    }

    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("hostile:panic")
    }
}

impl CompilePattern for PanicPattern {
    fn compile(&self, _g: &Graph) -> Option<CompiledPattern> {
        None
    }

    fn compile_destination(&self, _g: &Graph, _t: Node) -> Option<CompiledPattern> {
        None
    }
}

/// Panics the moment anyone tries to *compile* it (whole-graph or
/// per-destination); behaves as a benign first-alive-neighbor forwarder when
/// interpreted.
///
/// This is the fault injector for the control plane's recompile workers: a
/// rebuild job calling [`CompilePattern::compile_destination`] must catch the
/// unwind, retry with backoff, and finally mark the destination degraded —
/// the panic must never escape a supervised worker.
#[derive(Debug, Clone, Copy, Default)]
pub struct PanicOnCompile;

impl ForwardingPattern for PanicOnCompile {
    fn model(&self) -> RoutingModel {
        RoutingModel::DestinationOnly
    }

    fn next_hop(&self, ctx: &LocalContext<'_>) -> Option<Node> {
        ctx.alive_neighbors().first().copied()
    }

    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("hostile:panic-on-compile")
    }
}

impl CompilePattern for PanicOnCompile {
    fn compile(&self, _g: &Graph) -> Option<CompiledPattern> {
        panic!("hostile pattern panic: compile invoked");
    }

    fn compile_destination(&self, _g: &Graph, t: Node) -> Option<CompiledPattern> {
        panic!("hostile pattern panic: compile_destination invoked for {t}");
    }
}

/// Wraps any forwarding pattern and refuses to compile it, forcing the
/// checkers onto the interpreted trait-object path.
///
/// With a well-behaved inner pattern this isolates the compile-refusal
/// fallback: results must be identical to the compiled run of the same
/// pattern.
#[derive(Debug, Clone, Copy)]
pub struct NoCompile<P>(pub P);

impl<P: ForwardingPattern> ForwardingPattern for NoCompile<P> {
    fn model(&self) -> RoutingModel {
        self.0.model()
    }

    fn next_hop(&self, ctx: &LocalContext<'_>) -> Option<Node> {
        self.0.next_hop(ctx)
    }

    fn name(&self) -> Cow<'static, str> {
        self.0.name()
    }
}

impl<P: ForwardingPattern> CompilePattern for NoCompile<P> {
    fn compile(&self, _g: &Graph) -> Option<CompiledPattern> {
        None
    }

    fn compile_destination(&self, _g: &Graph, _t: Node) -> Option<CompiledPattern> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::FailureSet;
    use crate::pattern::ShortestPathPattern;
    use crate::simulator::{route, state_space_bound, tour, Outcome};
    use frr_graph::generators;

    #[test]
    fn failed_link_forwarder_gets_stuck_not_followed() {
        let g = generators::cycle(4);
        let failures = FailureSet::from_pairs(&[(0, 1)]);
        let r = route(&g, &failures, &FailedLinkForwarder, Node(0), Node(2), 64);
        assert_eq!(r.outcome, Outcome::Stuck);
    }

    #[test]
    fn non_neighbor_forwarder_gets_stuck_immediately() {
        let g = generators::cycle(5);
        let r = route(
            &g,
            &FailureSet::new(),
            &NonNeighborForwarder,
            Node(0),
            Node(2),
            64,
        );
        assert_eq!(r.outcome, Outcome::Stuck);
    }

    #[test]
    fn nondeterministic_pattern_is_bounded_by_the_hop_limit() {
        let g = generators::complete(4);
        let p = NondeterministicPattern::new();
        let max_hops = state_space_bound(&g);
        // Route and tour terminate with *some* typed outcome under failures;
        // nondeterminism can evade loop detection but never the hop bound.
        let r = route(
            &g,
            &FailureSet::from_pairs(&[(0, 3)]),
            &p,
            Node(0),
            Node(3),
            max_hops,
        );
        assert!(matches!(
            r.outcome,
            Outcome::Delivered | Outcome::Stuck | Outcome::Loop | Outcome::HopLimit
        ));
        let t = tour(&g, &FailureSet::new(), &p, Node(0), max_hops);
        assert!(t.path.len() <= max_hops + 1);
    }

    #[test]
    fn panic_pattern_is_benign_without_failures() {
        let g = generators::cycle(4);
        let r = route(&g, &FailureSet::new(), &PanicPattern, Node(0), Node(1), 64);
        assert_eq!(r.outcome, Outcome::Delivered);
    }

    #[test]
    fn hostile_patterns_refuse_to_compile() {
        let g = generators::cycle(4);
        assert!(FailedLinkForwarder.compile(&g).is_none());
        assert!(NonNeighborForwarder.compile(&g).is_none());
        assert!(NondeterministicPattern::new().compile(&g).is_none());
        assert!(PanicPattern.compile(&g).is_none());
        assert!(NoCompile(ShortestPathPattern::new(&g))
            .compile(&g)
            .is_none());
        // The per-destination rebuild unit is refused identically, so the
        // faults stay on the interpreted probe path there too.
        assert!(FailedLinkForwarder
            .compile_destination(&g, Node(0))
            .is_none());
        assert!(NonNeighborForwarder
            .compile_destination(&g, Node(0))
            .is_none());
        assert!(NondeterministicPattern::new()
            .compile_destination(&g, Node(0))
            .is_none());
        assert!(PanicPattern.compile_destination(&g, Node(0)).is_none());
        assert!(NoCompile(ShortestPathPattern::new(&g))
            .compile_destination(&g, Node(0))
            .is_none());
    }

    #[test]
    fn panic_on_compile_panics_in_both_compile_entry_points() {
        let g = generators::cycle(4);
        // Interpreted forwarding is benign...
        let r = route(
            &g,
            &FailureSet::new(),
            &PanicOnCompile,
            Node(0),
            Node(1),
            64,
        );
        assert_eq!(r.outcome, Outcome::Delivered);
        // ...but both compile entry points unwind with the typed message.
        for f in [
            Box::new(|| {
                let _ = PanicOnCompile.compile(&generators::cycle(4));
            }) as Box<dyn FnOnce() + std::panic::UnwindSafe>,
            Box::new(|| {
                let _ = PanicOnCompile.compile_destination(&generators::cycle(4), Node(2));
            }),
        ] {
            let err = std::panic::catch_unwind(f).expect_err("must panic");
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            assert!(msg.contains("hostile pattern panic"), "got: {msg}");
        }
    }
}
