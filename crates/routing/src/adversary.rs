//! Generic adversaries that search for failure scenarios defeating a pattern.
//!
//! The paper's impossibility proofs are adversary arguments: given *any*
//! candidate forwarding pattern, the adversary constructs a failure set under
//! which the pattern loops or strands the packet even though source and
//! destination remain connected.  `frr-core` implements the paper's
//! *constructive* adversaries (K7, K4,4, the `K_{3+5r}` price-of-locality
//! gadget, …); this module provides the model-agnostic ones — exhaustive and
//! randomized search — used to cross-check them and to probe patterns on
//! arbitrary graphs.

use crate::budget::{Progress, RunBudget, StopCause, StopSignal, Verdict, WorkerPanicked};
use crate::compiled::{CompilePattern, CompiledPattern, CompiledSim};
use crate::failure::FailureSet;
use crate::pattern::ForwardingPattern;
use crate::resilience::{compile_guarded, replay_route};
use crate::simulator::{route, state_space_bound, Outcome};
use crate::sweep::{
    failure_set_at, sharded_first, sharded_first_controlled, sweep_find_first_budgeted, ShardEvent,
    SweepEnd, SweepEngine,
};
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

/// An adversary: a strategy for finding a [`Counterexample`] against a
/// forwarding pattern on a given network.
///
/// Adversaries take [`CompilePattern`] candidates: the searches compile the
/// pattern once up front and probe scenarios on the dense tables, keeping the
/// interpreted trait-object path only for patterns that refuse compilation.
pub trait Adversary {
    /// Searches for a failure scenario defeating `pattern` on `g`.
    fn find_counterexample<P: CompilePattern + ?Sized>(
        &self,
        g: &Graph,
        pattern: &P,
    ) -> Option<Counterexample>;

    /// Human-readable name for experiment output.
    fn name(&self) -> String;
}

/// Exhaustive adversary: enumerates failure sets (optionally bounded in size)
/// and all source/destination pairs.  Only suitable for small graphs.
#[derive(Debug, Clone)]
pub struct BruteForceAdversary {
    /// Maximum number of failed links to consider (`None` = unbounded).
    pub max_failures: Option<usize>,
    /// Maximum number of failure sets to try before giving up.
    pub max_sets: u64,
}

impl Default for BruteForceAdversary {
    fn default() -> Self {
        BruteForceAdversary {
            max_failures: None,
            max_sets: 2_000_000,
        }
    }
}

impl BruteForceAdversary {
    /// An exhaustive adversary bounded to failure sets of at most `max` links.
    pub fn with_max_failures(max: usize) -> Self {
        BruteForceAdversary {
            max_failures: Some(max),
            ..Default::default()
        }
    }
}

impl Adversary for BruteForceAdversary {
    fn find_counterexample<P: CompilePattern + ?Sized>(
        &self,
        g: &Graph,
        pattern: &P,
    ) -> Option<Counterexample> {
        let compiled = pattern.compile(g);
        let compiled = compiled.as_ref();
        let report = sweep_find_first_budgeted(
            g,
            self.max_failures,
            Some(self.max_sets),
            &StopSignal::none(),
            |engine: &mut SweepEngine<'_>| {
                let (s, t) = engine.first_undelivered(compiled, pattern, 0..g.node_count())?;
                Some(replay_route(g, pattern, engine.current_failure_set(), s, t))
            },
        );
        match report.end {
            SweepEnd::Found(ce) => Some(ce),
            SweepEnd::Exhausted | SweepEnd::Stopped(_) => None,
            SweepEnd::Panicked { position, message } => {
                panic!("sweep worker panicked at enumeration position {position}: {message}")
            }
        }
    }

    fn name(&self) -> String {
        match self.max_failures {
            Some(k) => format!("brute-force(|F| <= {k})"),
            None => "brute-force".to_string(),
        }
    }
}

impl BruteForceAdversary {
    /// Budgeted search: [`Adversary::find_counterexample`]'s enumeration
    /// under a [`RunBudget`], returning a typed [`Verdict`].
    ///
    /// `Proven` means *no counterexample exists in the configured search
    /// space* (failure sets within `max_failures`) — the full space was
    /// enumerated, neither `max_sets` nor the budget clipped it.  Any early
    /// stop (deadline, cancellation, `max_sets`, work budget) is an honest
    /// [`Verdict::Indeterminate`] with progress; a panicking probe is a
    /// typed [`WorkerPanicked`] with the offending failure set.
    pub fn search_with_budget<P: CompilePattern + ?Sized>(
        &self,
        g: &Graph,
        pattern: &P,
        budget: &RunBudget,
    ) -> Result<Verdict, WorkerPanicked> {
        let compiled = compile_guarded(g, pattern);
        let compiled = compiled.as_ref();
        let mask_budget = self.max_sets.min(budget.work_limit().unwrap_or(u64::MAX));
        let report = sweep_find_first_budgeted(
            g,
            self.max_failures,
            Some(mask_budget),
            &budget.stop_signal(),
            |engine: &mut SweepEngine<'_>| {
                let (s, t) = engine.first_undelivered(compiled, pattern, 0..g.node_count())?;
                Some(replay_route(g, pattern, engine.current_failure_set(), s, t))
            },
        );
        match report.end {
            SweepEnd::Found(ce) => Ok(Verdict::Refuted(ce)),
            SweepEnd::Exhausted => Ok(Verdict::Proven),
            SweepEnd::Panicked { position, message } => Err(WorkerPanicked {
                position,
                failures: failure_set_at(g, self.max_failures, position),
                message,
            }),
            SweepEnd::Stopped(cause) => Ok(Verdict::Indeterminate(Progress {
                masks_examined: report.masks_examined,
                weight_reached: report.max_weight,
                elapsed: budget.elapsed(),
                stopped_by: cause,
                sampled_trials: 0,
            })),
        }
    }
}

/// Randomized adversary: samples failure sets of random sizes and random
/// source/destination pairs; reproducible via its seed.
///
/// Every trial derives its own RNG from `(seed, trial index)`, so trial `i`
/// probes the same scenario no matter how the trial range is sharded across
/// worker threads — the adversary returns the counterexample with the
/// smallest trial index, byte-identical at any thread count.
#[derive(Debug, Clone)]
pub struct RandomAdversary {
    /// Number of scenarios to sample.
    pub trials: usize,
    /// Maximum number of failed links per scenario.
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
    /// as a pure function of `(seed, trial)`.  `pool` is a reusable scratch
    /// buffer that is **re-initialized from `edges` every call**, so the
    /// scenario is independent of which trials a worker ran before (the
    /// deterministic sharded merge requires this); it is also how the
    /// budgeted search reconstructs the scenario of a panicking trial.
    fn sample_scenario(
        &self,
        edges: &[Edge],
        nodes: &[Node],
        pool: &mut Vec<Edge>,
        trial: u64,
    ) -> (FailureSet, Node, Node) {
        let mut rng = self.trial_rng(trial);
        let k = rng.gen_range(0..=self.max_failures.min(edges.len()));
        pool.clear();
        pool.extend_from_slice(edges);
        // Partial Fisher–Yates: the first k entries become a uniform k-subset.
        for i in 0..k {
            let j = rng.gen_range(i..pool.len());
            pool.swap(i, j);
        }
        let failures = FailureSet::from_edges(pool[..k].iter().copied());
        let s = nodes[rng.gen_range(0..nodes.len())];
        let t = nodes[rng.gen_range(0..nodes.len())];
        (failures, s, t)
    }

    /// Probes one trial's scenario ([`RandomAdversary::sample_scenario`]).
    /// `sim` carries the worker's compiled-pattern scratch; scenarios are
    /// simulated on the dense tables when the pattern compiled.
    #[allow(clippy::too_many_arguments)]
    fn probe_trial<P: ForwardingPattern + ?Sized>(
        &self,
        g: &Graph,
        pattern: &P,
        compiled: Option<&CompiledPattern>,
        nodes: &[Node],
        edges: &[Edge],
        pool: &mut Vec<Edge>,
        sim: &mut Option<CompiledSim>,
        max_hops: usize,
        trial: u64,
    ) -> Option<Counterexample> {
        let (failures, s, t) = self.sample_scenario(edges, nodes, pool, trial);
        if s == t || !failures.keeps_connected(g, s, t) {
            return None;
        }
        let result = match (compiled, sim) {
            (Some(cp), Some(sim)) => {
                sim.load_failures(cp, &failures);
                sim.route(cp, s, t, max_hops)
            }
            _ => route(g, &failures, pattern, s, t, max_hops),
        };
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
    }
}

impl Adversary for RandomAdversary {
    fn find_counterexample<P: CompilePattern + ?Sized>(
        &self,
        g: &Graph,
        pattern: &P,
    ) -> Option<Counterexample> {
        let max_hops = state_space_bound(g);
        let nodes: Vec<Node> = g.nodes().collect();
        if nodes.len() < 2 {
            return None;
        }
        let edges = g.edges();
        let compiled = pattern.compile(g);
        let compiled = compiled.as_ref();
        // Shard the trial range with the same deterministic smallest-index
        // machinery the mask sweeps use; each worker's state is its scratch
        // pool buffer plus its compiled-simulation scratch.
        sharded_first(
            self.trials as u64,
            64,
            64,
            || {
                (
                    Vec::with_capacity(edges.len()),
                    compiled.map(CompiledSim::new),
                )
            },
            |(pool, sim), trial| {
                self.probe_trial(
                    g, pattern, compiled, &nodes, &edges, pool, sim, max_hops, trial,
                )
            },
        )
    }

    fn name(&self) -> String {
        format!(
            "random(trials={}, |F| <= {})",
            self.trials, self.max_failures
        )
    }
}

impl RandomAdversary {
    /// Budgeted search: [`Adversary::find_counterexample`]'s trial sweep
    /// under a [`RunBudget`], returning a typed [`Verdict`].
    ///
    /// A randomized search can refute but never prove, so completing every
    /// trial without a hit is still [`Verdict::Indeterminate`] (with
    /// [`StopCause::WorkBudget`]: the trial budget was spent).  A panicking
    /// trial surfaces as [`WorkerPanicked`] carrying the trial's failure set,
    /// reconstructed by replaying the trial's deterministic
    /// `(seed, trial)`-derived sampling.
    pub fn search_with_budget<P: CompilePattern + ?Sized>(
        &self,
        g: &Graph,
        pattern: &P,
        budget: &RunBudget,
    ) -> Result<Verdict, WorkerPanicked> {
        let max_hops = state_space_bound(g);
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
        let compiled = compile_guarded(g, pattern);
        let compiled = compiled.as_ref();
        let stop = budget.stop_signal();
        let outcome = sharded_first_controlled(
            trials,
            64,
            64,
            &stop,
            || {
                (
                    Vec::with_capacity(edges.len()),
                    compiled.map(CompiledSim::new),
                )
            },
            |(pool, sim), trial| {
                self.probe_trial(
                    g, pattern, compiled, &nodes, &edges, pool, sim, max_hops, trial,
                )
            },
        );
        match outcome.event {
            Some((_, ShardEvent::Hit(ce))) => Ok(Verdict::Refuted(ce)),
            Some((trial, ShardEvent::Panic(message))) => {
                let mut pool = Vec::with_capacity(edges.len());
                let (failures, _, _) = self.sample_scenario(&edges, &nodes, &mut pool, trial);
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
    use crate::model::RoutingModel;
    use crate::pattern::{FnPattern, RotorPattern, ShortestPathPattern};
    use frr_graph::generators;

    #[test]
    fn brute_force_finds_nothing_against_resilient_pattern() {
        let g = generators::cycle(5);
        let p = RotorPattern::clockwise_with_shortcut(&g);
        let adv = BruteForceAdversary::default();
        assert!(adv.find_counterexample(&g, &p).is_none());
        assert!(adv.name().contains("brute-force"));
    }

    #[test]
    fn brute_force_defeats_naive_pattern_on_k4() {
        // A pattern ignoring the in-port: always forwards to the smallest
        // alive neighbor that is not the packet's previous node cannot be
        // expressed without the in-port, so use a plainly broken one instead:
        // always forward to the smallest alive neighbor.
        let g = generators::complete(4);
        let p = FnPattern::new(RoutingModel::DestinationOnly, "smallest-alive", |ctx| {
            if ctx.destination_is_alive_neighbor() {
                return Some(ctx.destination);
            }
            ctx.alive_neighbors().first().copied()
        });
        let adv = BruteForceAdversary::default();
        let ce = adv
            .find_counterexample(&g, &p)
            .expect("the naive pattern must fail");
        assert!(verify_counterexample(&g, &p, &ce));
        assert_eq!(ce.outcome, Outcome::Loop);
    }

    #[test]
    fn brute_force_respects_failure_bound() {
        let g = generators::cycle(6);
        let p = ShortestPathPattern::new(&g);
        // With at most 1 failure a ring is survivable by this pattern.
        let adv = BruteForceAdversary::with_max_failures(1);
        assert!(adv.find_counterexample(&g, &p).is_none());
        assert!(adv.name().contains("<= 1"));
    }

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
            .find_counterexample(&g, &p)
            .expect("must find a violation");
        let ce2 = adv
            .find_counterexample(&g, &p)
            .expect("must find a violation");
        assert_eq!(ce1, ce2, "same seed must give the same counterexample");
        assert!(verify_counterexample(&g, &p, &ce1));
        assert!(adv.name().contains("random"));
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
