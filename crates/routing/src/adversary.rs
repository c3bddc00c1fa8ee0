//! Counterexamples and the randomized adversary that searches for them.
//!
//! The paper's impossibility proofs are adversary arguments: given *any*
//! candidate forwarding pattern, the adversary constructs a failure set under
//! which the pattern loops or strands the packet even though source and
//! destination remain connected.  `frr-core` implements the paper's
//! *constructive* adversaries (K7, K4,4, the `K_{3+5r}` price-of-locality
//! gadget, …).  The exhaustive search is [`crate::resilience::check`]; this
//! module adds the [`Counterexample`] every search returns, its independent
//! [`verify_counterexample`], and [`RandomAdversary`], the workspace's one
//! seeded sampler: it searches any [`Property`] on graphs too large to
//! sweep, and `check` falls back to it when a budget stops the sweep.

use crate::budget::{
    sharded_first_controlled, Progress, RunBudget, ShardEvent, StopCause, Verdict, WorkerPanicked,
};
use crate::compiled::{CompilePattern, CompiledSim, Forwarder};
use crate::failure::FailureSet;
use crate::pattern::ForwardingPattern;
use crate::resilience::Property;
use crate::simulator::{route, state_space_bound, tour, Outcome};
use frr_graph::{Edge, Graph, Node};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// A concrete failure scenario on which a pattern fails: the failure set keeps
/// `source` and `destination` connected, yet the packet is not delivered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// The failed links.
    pub failures: FailureSet,
    /// Packet source (or tour start node).
    pub source: Node,
    /// Packet destination (equal to the start node for touring scenarios).
    pub destination: Node,
    /// How the simulation ended.
    pub outcome: Outcome,
    /// The walk the packet took.
    pub path: Vec<Node>,
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} -> {} fails ({:?}) under F = {} after visiting {} nodes",
            self.source,
            self.destination,
            self.outcome,
            self.failures,
            self.path.len()
        )
    }
}

/// Randomized adversary: samples failure sets of random sizes and the
/// scenarios a [`Property`] asks about; reproducible via its seed.  It is
/// the workspace's one sampler: [`crate::resilience::check`] falls back to
/// it when a sweep stops early or the graph is too large to sweep.
///
/// Every trial derives its own RNG from `(seed, trial index)`, so trial `i`
/// probes the same scenario no matter how the trial range is sharded across
/// worker threads — the adversary returns the counterexample with the
/// smallest trial index, byte-identical at any thread count.
#[derive(Debug, Clone)]
pub struct RandomAdversary {
    /// Number of scenarios to sample.
    pub trials: usize,
    /// Maximum number of failed links per scenario (the property's own
    /// failure cap, if smaller, wins).
    pub max_failures: usize,
    /// RNG seed (the adversary is deterministic given its seed).
    pub seed: u64,
}

impl RandomAdversary {
    /// A randomized adversary with the given budget and seed.
    pub fn new(trials: usize, max_failures: usize, seed: u64) -> Self {
        RandomAdversary {
            trials,
            max_failures,
            seed,
        }
    }

    /// The per-trial RNG: `StdRng` seeded by a SplitMix-style mix of the
    /// adversary seed and the trial index.
    fn trial_rng(&self, trial: u64) -> StdRng {
        StdRng::seed_from_u64(
            self.seed ^ (trial.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        )
    }

    /// Draws trial `trial`'s scenario — the failure set and `(s, t)` pair —
    /// as a pure function of `(seed, trial)`: the failure count `k`, a
    /// partial Fisher–Yates shuffle for the `k` links, then the nodes the
    /// property leaves open (`s` and `t` for any-pair routing, `s` alone
    /// under a pinned destination, the start node for touring — returned as
    /// both ends — and none for tolerance).  `pool` is a reusable scratch
    /// buffer that is **re-initialized from `edges` every call**, so the
    /// scenario is independent of which trials a worker ran before (the
    /// deterministic sharded merge requires this); it is also how the
    /// budgeted search reconstructs the scenario of a panicking trial.
    fn sample_scenario(
        &self,
        property: Property,
        edges: &[Edge],
        nodes: &[Node],
        pool: &mut Vec<Edge>,
        trial: u64,
    ) -> (FailureSet, Node, Node) {
        let mut rng = self.trial_rng(trial);
        let cap = property.max_failures().unwrap_or(usize::MAX);
        let k = rng.gen_range(0..=self.max_failures.min(cap).min(edges.len()));
        pool.clear();
        pool.extend_from_slice(edges);
        // Partial Fisher–Yates: the first k entries become a uniform k-subset.
        for i in 0..k {
            let j = rng.gen_range(i..pool.len());
            pool.swap(i, j);
        }
        let failures = FailureSet::from_edges(pool[..k].iter().copied());
        let mut draw = || nodes[rng.gen_range(0..nodes.len())];
        match property {
            Property::Routing { destination, .. } => {
                let s = draw();
                (failures, s, destination.unwrap_or_else(draw))
            }
            Property::Tolerance {
                source,
                destination,
                ..
            } => (failures, source, destination),
            Property::Touring { .. } => {
                let start = draw();
                (failures, start, start)
            }
        }
    }

    /// Searches for a failure scenario violating `property` of `pattern` on
    /// `g`: the counterexample of the smallest trial index, if any trial
    /// hits.
    ///
    /// # Panics
    ///
    /// Re-raises a probe panic: the pattern itself is broken.
    pub fn find_counterexample<P: CompilePattern + ?Sized>(
        &self,
        g: &Graph,
        pattern: &P,
        property: Property,
    ) -> Option<Counterexample> {
        match self.search_with_budget(g, pattern, property, &RunBudget::unlimited()) {
            Ok(Verdict::Refuted(ce)) => Some(ce),
            Ok(_) => None,
            Err(WorkerPanicked {
                position, message, ..
            }) => panic!("sharded worker panicked at index {position}: {message}"),
        }
    }

    /// Budgeted search: [`RandomAdversary::find_counterexample`]'s trial
    /// sweep under a [`RunBudget`], returning a typed [`Verdict`].
    ///
    /// A randomized search can refute but never prove, so completing every
    /// trial without a hit is still [`Verdict::Indeterminate`] (with
    /// [`StopCause::WorkBudget`]: the trial budget was spent), and its
    /// `sampled_trials` counts the trials drawn.  A panicking trial surfaces
    /// as [`WorkerPanicked`] carrying the trial's failure set, reconstructed
    /// by replaying the trial's deterministic `(seed, trial)`-derived
    /// sampling.
    pub fn search_with_budget<P: CompilePattern + ?Sized>(
        &self,
        g: &Graph,
        pattern: &P,
        property: Property,
        budget: &RunBudget,
    ) -> Result<Verdict, WorkerPanicked> {
        let nodes: Vec<Node> = g.nodes().collect();
        let trials = (self.trials as u64).min(budget.work_limit().unwrap_or(u64::MAX));
        let indeterminate = |probes: u64, cause: StopCause| {
            Verdict::Indeterminate(Progress {
                masks_examined: probes,
                weight_reached: 0,
                elapsed: budget.elapsed(),
                stopped_by: cause,
                sampled_trials: probes,
            })
        };
        if nodes.len() < 2 {
            return Ok(indeterminate(0, StopCause::WorkBudget));
        }
        let edges = g.edges();
        // Touring trials tour on the interpreter and never read the tables.
        let fwd = match property {
            Property::Touring { .. } => Forwarder::interpreted(g, pattern),
            _ => Forwarder::new(g, pattern),
        };
        let stop = budget.stop_signal();
        // Shard the trial range with the same deterministic smallest-index
        // machinery the mask sweeps use; each worker's state is its scratch
        // pool buffer plus its forwarding scratch.
        let outcome = sharded_first_controlled(
            trials,
            64,
            64,
            0,
            &stop,
            || (Vec::with_capacity(edges.len()), fwd.scratch()),
            |(pool, scratch), trial| {
                let (failures, s, t) = self.sample_scenario(property, &edges, &nodes, pool, trial);
                violation(g, &fwd, scratch, property, failures, s, t)
            },
        );
        match outcome.event {
            Some((_, ShardEvent::Hit(ce))) => Ok(Verdict::Refuted(ce)),
            Some((trial, ShardEvent::Panic(message))) => {
                let mut pool = Vec::with_capacity(edges.len());
                let (failures, _, _) =
                    self.sample_scenario(property, &edges, &nodes, &mut pool, trial);
                Err(WorkerPanicked {
                    position: trial,
                    failures: Some(failures),
                    message,
                })
            }
            None if outcome.stopped => Ok(indeterminate(
                outcome.probes,
                if stop.cancelled() {
                    StopCause::Cancelled
                } else {
                    StopCause::Deadline
                },
            )),
            None => Ok(indeterminate(outcome.probes, StopCause::WorkBudget)),
        }
    }
}

/// The counterexample one sampled scenario gives, if any: a tour through
/// [`tour`] for [`Property::Touring`], otherwise a packet routed through
/// `fwd` for a pair that the property's promise keeps connected
/// (1-connected for [`Property::Routing`], `r`-connected for
/// [`Property::Tolerance`]).
fn violation<P: ForwardingPattern + ?Sized>(
    g: &Graph,
    fwd: &Forwarder<'_, P>,
    scratch: &mut Option<CompiledSim>,
    property: Property,
    failures: FailureSet,
    s: Node,
    t: Node,
) -> Option<Counterexample> {
    let promise = match property {
        Property::Touring { .. } => {
            let result = tour(g, &failures, fwd.pattern(), s, fwd.max_hops());
            return (!result.covered_component).then_some(Counterexample {
                failures,
                source: s,
                destination: s,
                outcome: Outcome::Loop,
                path: result.path,
            });
        }
        Property::Tolerance { r, .. } => r,
        Property::Routing { .. } => 1,
    };
    // Cheapest first, as in the exhaustive tolerance probe: a split pair,
    // then the packet, then the max-flow promise.
    if s == t || (promise >= 1 && !failures.keeps_connected(g, s, t)) {
        return None;
    }
    let result = fwd.route(scratch, &failures, s, t);
    if result.outcome.is_delivered() || !failures.keeps_r_connected(g, s, t, promise) {
        return None;
    }
    Some(Counterexample {
        failures,
        source: s,
        destination: t,
        outcome: result.outcome,
        path: result.path,
    })
}

/// Verifies that a counterexample is genuine: the failure set keeps source and
/// destination connected, yet routing with `pattern` does not deliver.
pub fn verify_counterexample<P: ForwardingPattern + ?Sized>(
    g: &Graph,
    pattern: &P,
    ce: &Counterexample,
) -> bool {
    if !ce.failures.keeps_connected(g, ce.source, ce.destination) {
        return false;
    }
    let result = route(
        g,
        &ce.failures,
        pattern,
        ce.source,
        ce.destination,
        state_space_bound(g),
    );
    !result.outcome.is_delivered()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::CompiledPattern;
    use crate::hostile::NoCompile;
    use crate::model::{LocalContext, RoutingModel};
    use crate::pattern::{FnPattern, RotorPattern, ShortestPathPattern};
    use frr_graph::generators;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn random_adversary_is_reproducible_and_effective() {
        let g = generators::cycle(6);
        let p = FnPattern::new(
            RoutingModel::DestinationOnly,
            "drop-unless-adjacent",
            |ctx| {
                if ctx.destination_is_alive_neighbor() {
                    Some(ctx.destination)
                } else {
                    None
                }
            },
        );
        let adv = RandomAdversary::new(500, 2, 42);
        let ce1 = adv
            .find_counterexample(&g, &p, Property::PERFECT)
            .expect("must find a violation");
        let ce2 = adv
            .find_counterexample(&g, &p, Property::PERFECT)
            .expect("must find a violation");
        assert_eq!(ce1, ce2, "same seed must give the same counterexample");
        assert!(verify_counterexample(&g, &p, &ce1));
    }

    /// The adversary's trials scanned one by one in ascending order, each
    /// drawn scenario judged on the interpreter.
    fn sequential_scan(
        adv: &RandomAdversary,
        g: &Graph,
        p: &dyn CompilePattern,
        property: Property,
    ) -> Option<Counterexample> {
        let interpreted = NoCompile(p);
        let fwd = Forwarder::new(g, &interpreted);
        let (nodes, edges): (Vec<Node>, _) = (g.nodes().collect(), g.edges());
        let (mut pool, mut scratch) = (Vec::new(), None);
        (0..adv.trials as u64).find_map(|trial| {
            let (failures, s, t) = adv.sample_scenario(property, &edges, &nodes, &mut pool, trial);
            violation(g, &fwd, &mut scratch, property, failures, s, t)
        })
    }

    #[test]
    fn sharded_search_equals_a_sequential_scan_for_every_property_kind() {
        // 640 trials shard over several workers; each case is compared
        // with the ascending scan of the same trials, hit or no hit.
        let k5 = generators::complete(5);
        let k4 = generators::complete(4);
        let ring = generators::cycle(9);
        let shortest = ShortestPathPattern::new(&k5);
        let resilient = RotorPattern::clockwise_with_shortcut(&ring);
        let touring = RotorPattern::clockwise(&k4);
        let ring_touring = RotorPattern::clockwise(&ring);
        let pinned = Property::Routing {
            max_failures: None,
            destination: Some(Node(4)),
        };
        let tolerance = |r| Property::Tolerance {
            source: Node(0),
            destination: Node(3),
            r,
        };
        let cases: [(&Graph, &dyn CompilePattern, Property); 8] = [
            (&k5, &shortest, Property::PERFECT),
            (&k5, &shortest, Property::bounded(2)),
            (&k5, &shortest, pinned),
            (&k5, &shortest, tolerance(1)),
            (&k5, &shortest, tolerance(4)),
            (&ring, &resilient, Property::PERFECT),
            (&k4, &touring, Property::PERFECT_TOURING),
            (&ring, &ring_touring, Property::bounded_touring(3)),
        ];
        let mut hits = 0;
        for (seed, (g, p, property)) in cases.into_iter().enumerate() {
            let adv = RandomAdversary::new(640, 6, seed as u64);
            let sharded = adv.find_counterexample(g, p, property);
            assert_eq!(
                sharded,
                sequential_scan(&adv, g, p, property),
                "{property:?}"
            );
            hits += usize::from(sharded.is_some());
        }
        assert_eq!(hits, 4, "both outcomes are compared");
    }

    /// Forwards like the wrapped pattern and counts its `compile` calls.
    struct CountingCompiles<'a>(&'a dyn CompilePattern, AtomicUsize);

    impl ForwardingPattern for CountingCompiles<'_> {
        fn model(&self) -> RoutingModel {
            self.0.model()
        }
        fn next_hop(&self, ctx: &LocalContext<'_>) -> Option<Node> {
            self.0.next_hop(ctx)
        }
    }

    impl CompilePattern for CountingCompiles<'_> {
        fn compile(&self, g: &Graph) -> Option<CompiledPattern> {
            self.1.fetch_add(1, Ordering::Relaxed);
            self.0.compile(g)
        }
    }

    #[test]
    fn touring_searches_compile_no_tables() {
        let k4 = generators::complete(4);
        let counting = CountingCompiles(&RotorPattern::clockwise(&k4), AtomicUsize::new(0));
        let adv = RandomAdversary::new(200, 3, 0);
        let touring = adv.find_counterexample(&k4, &counting, Property::bounded_touring(3));
        assert!(
            touring.is_some(),
            "the K4 rotor misses part of its component"
        );
        assert_eq!(counting.1.load(Ordering::Relaxed), 0);
        // A routing search still compiles the tables it routes on, once.
        adv.find_counterexample(&k4, &counting, Property::PERFECT);
        assert_eq!(counting.1.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn counterexample_display_is_informative() {
        let ce = Counterexample {
            failures: FailureSet::from_pairs(&[(0, 1)]),
            source: Node(0),
            destination: Node(2),
            outcome: Outcome::Loop,
            path: vec![Node(0), Node(1), Node(0)],
        };
        let text = format!("{ce}");
        assert!(text.contains("v0"));
        assert!(text.contains("Loop"));
    }

    #[test]
    fn verify_rejects_bogus_counterexamples() {
        let g = generators::cycle(4);
        let p = RotorPattern::clockwise_with_shortcut(&g);
        // Claimed failure disconnects s and t entirely: not a valid counterexample.
        let ce = Counterexample {
            failures: FailureSet::from_pairs(&[(0, 1), (0, 3)]),
            source: Node(0),
            destination: Node(2),
            outcome: Outcome::Stuck,
            path: vec![Node(0)],
        };
        assert!(!verify_counterexample(&g, &p, &ce));
        // Claimed scenario on which the pattern actually succeeds.
        let ce = Counterexample {
            failures: FailureSet::from_pairs(&[(0, 1)]),
            source: Node(0),
            destination: Node(2),
            outcome: Outcome::Loop,
            path: vec![Node(0)],
        };
        assert!(!verify_counterexample(&g, &p, &ce));
    }
}
