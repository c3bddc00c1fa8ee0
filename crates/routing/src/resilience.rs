//! Resilience checkers: perfect resilience, `r`-tolerance, bounded failures
//! and perfect touring — exhaustively for the paper's small named graphs and
//! by reproducible sampling for larger networks.
//!
//! One entry point, [`check`], asks every form of the question: the
//! [`Property`] names what to verify and the [`RunBudget`] bounds the run
//! ([`RunBudget::unlimited`] for the plain exhaustive answer).  The answer is
//! a typed [`Verdict`]: `Proven`, `Refuted` with a concrete counterexample
//! that can be replayed, or `Indeterminate` with the progress made.
//!
//! The exhaustive sweep runs on the [`crate::sweep`] engine: failure sets
//! are width-generic bitmask overlays (one `u64` word per 64 links) over a
//! [`frr_graph::BitGraph`], connectivity is one component decomposition per
//! failure set (instead of one BFS per source/destination pair on a cloned
//! surviving graph) maintained *incrementally* along the Gray-code mask
//! enumeration, and the enumeration positions are sharded across the
//! workers of [`crate::budget::sharded_first_controlled`] with a
//! deterministic earliest-position merge — the counterexample returned is byte-identical to a sequential scan of
//! the canonical Gray order, at any thread count.

use crate::adversary::{Counterexample, RandomAdversary};
use crate::budget::{Progress, RunBudget, StopCause, Verdict, WorkerPanicked};
use crate::compiled::{CompilePattern, Forwarder};
use crate::failure::FailureSet;
use crate::pattern::ForwardingPattern;
use crate::simulator::{route, state_space_bound, tour, Outcome};
use crate::sweep::{failure_set_at, sweep_find_first_budgeted, SweepEnd, SweepEngine};
use frr_graph::connectivity::st_edge_connectivity_filtered;
use frr_graph::{Graph, Node};

/// Largest number of links for which [`check`] enumerates the full
/// failure-set power set (unbounded [`Property::Routing`] and
/// [`Property::Touring`], and every [`Property::Tolerance`]).
pub const EXHAUSTIVE_EDGE_LIMIT: usize = 20;

/// Largest number of links for the checks that bound the number of
/// failures to some `k`: the Gray-code enumeration emits exactly the
/// `Σ_{i≤k} C(m,i)` small failure masks (no over-cap masks are ever
/// visited), masks are multi-word, and the per-mask overlay work is one or
/// two incremental edge toggles — so graphs far past the historical 64-link
/// single-word wall are affordable.  Mid-size topology-zoo and small
/// datacenter graphs fit under this limit.
pub const BOUNDED_EDGE_LIMIT: usize = 128;

/// A graph has more links than an exhaustive sweep allows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeLimitExceeded {
    /// Link count of the offending graph.
    pub links: usize,
    /// The limit in force.
    pub limit: usize,
}

impl std::fmt::Display for EdgeLimitExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "bounded exhaustive check limited to {} links, graph has {}",
            self.limit, self.links
        )
    }
}

impl std::error::Error for EdgeLimitExceeded {}

/// The property a [`check`] verifies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Property {
    /// Delivery for every ordered pair `(s, t)` that stays connected in
    /// `G \ F`: perfect resilience when `max_failures` is `None`,
    /// `r`-bounded resilience for `Some(r)` (only failure sets of at most
    /// `r` links count).  A pinned `destination` checks only pairs towards
    /// that node.
    Routing {
        /// Largest failure set swept (`None` = every failure set).
        max_failures: Option<usize>,
        /// The only destination checked (`None` = every destination).
        destination: Option<Node>,
    },
    /// `r`-tolerance (Definition 1) for one pair: delivery from `source` to
    /// `destination` under every failure set that leaves them `r`-connected
    /// (`r` link-disjoint surviving paths).
    Tolerance {
        /// Packet source.
        source: Node,
        /// Packet destination.
        destination: Node,
        /// Required surviving edge connectivity.
        r: usize,
    },
    /// Touring (§VII): from every start node, the walk visits the start
    /// node's whole surviving component, for every failure set of at most
    /// `max_failures` links (`None` = every failure set).
    Touring {
        /// Largest failure set swept (`None` = every failure set).
        max_failures: Option<usize>,
    },
}

impl Property {
    /// Perfect resilience: every failure set, every connected pair.
    pub const PERFECT: Property = Property::Routing {
        max_failures: None,
        destination: None,
    };

    /// Perfect touring: every failure set, every start node.
    pub const PERFECT_TOURING: Property = Property::Touring { max_failures: None };

    /// `r`-bounded resilience: failure sets of at most `r` links, every
    /// connected pair.
    pub const fn bounded(r: usize) -> Property {
        Property::Routing {
            max_failures: Some(r),
            destination: None,
        }
    }

    /// `k`-bounded touring: failure sets of at most `k` links, every start
    /// node.
    ///
    /// ```
    /// use frr_graph::generators;
    /// use frr_routing::budget::RunBudget;
    /// use frr_routing::pattern::RotorPattern;
    /// use frr_routing::resilience::{check, Property};
    ///
    /// let star = generators::star(4);
    /// let rotor = RotorPattern::clockwise(&star);
    /// let two_failures = check(&star, &rotor, Property::bounded_touring(2), &RunBudget::unlimited());
    /// assert!(two_failures.unwrap().is_proven());
    /// ```
    pub const fn bounded_touring(k: usize) -> Property {
        Property::Touring {
            max_failures: Some(k),
        }
    }

    /// The popcount cap of the swept failure sets.
    pub(crate) fn max_failures(self) -> Option<usize> {
        match self {
            Property::Routing { max_failures, .. } | Property::Touring { max_failures } => {
                max_failures
            }
            Property::Tolerance { .. } => None,
        }
    }

    /// The largest graph [`check`] sweeps exhaustively for this property:
    /// [`BOUNDED_EDGE_LIMIT`] under a failure cap, [`EXHAUSTIVE_EDGE_LIMIT`]
    /// otherwise.
    fn edge_limit(self) -> usize {
        match self.max_failures() {
            Some(_) => BOUNDED_EDGE_LIMIT,
            None => EXHAUSTIVE_EDGE_LIMIT,
        }
    }
}

/// Verifies `property` of `pattern` on `g` within `budget`.
///
/// * The sweep visits every failure mask in the canonical Gray enumeration
///   order (see [`crate::failure::GrayMasks`]: smaller failure sets first)
///   and returns the earliest counterexample in `(mask, source,
///   destination)` order — the same one at any thread count.  `Proven`
///   means the whole configured space was swept.
/// * The property sets the edge limit: [`BOUNDED_EDGE_LIMIT`] under a
///   failure cap, [`EXHAUSTIVE_EDGE_LIMIT`] otherwise.  Under
///   [`RunBudget::unlimited`] a graph within it always gets `Proven` or
///   `Refuted`.
/// * A deadline or work-budget stop degrades to the one sampler,
///   [`RandomAdversary`], searching the same `property` (a pinned
///   destination or tolerance pair stays pinned) over
///   [`FALLBACK_SAMPLING_TRIALS`] seeded trials sharded like the sweep.  A
///   sampled counterexample is `Refuted`; otherwise the verdict is
///   [`Verdict::Indeterminate`] with the sweep's progress and the trial
///   count.  A cancelled run skips the sampler.
/// * A graph beyond the edge limit is never swept: it goes
///   straight to the sampler with [`StopCause::EdgeLimit`].
/// * A probe panic (a misbehaving pattern, a tripped debug assertion), in
///   the sweep or in the sampler, surfaces as `Err(WorkerPanicked)` with
///   the offending failure set.
///
/// Failure sets flow through the sweep as bitmasks (`&[u64]`, one word per
/// 64 links; see [`crate::failure`]); a counterexample materializes the
/// violating set as a [`FailureSet`] and carries the replayed walk.
///
/// ```
/// use frr_graph::generators;
/// use frr_routing::budget::RunBudget;
/// use frr_routing::pattern::ShortestPathPattern;
/// use frr_routing::resilience::{check, Property};
///
/// let ring = generators::cycle(6);
/// let p = ShortestPathPattern::new(&ring);
/// let one_failure = check(&ring, &p, Property::bounded(1), &RunBudget::unlimited());
/// assert!(one_failure.unwrap().is_proven());
/// ```
pub fn check<P: CompilePattern + ?Sized>(
    g: &Graph,
    pattern: &P,
    property: Property,
    budget: &RunBudget,
) -> Result<Verdict, WorkerPanicked> {
    if g.edge_count() > property.edge_limit() {
        return stop_verdict(g, pattern, property, budget, 0, 0, StopCause::EdgeLimit);
    }
    // Compile once per sweep; the tables are shared by every worker thread.
    let fwd = Forwarder::new(g, pattern);
    let max_failures = property.max_failures();
    let report = sweep_find_first_budgeted(
        g,
        max_failures,
        budget.work_limit(),
        &budget.stop_signal(),
        |engine: &mut SweepEngine<'_>| probe(engine, &fwd, property),
    );
    match report.end {
        SweepEnd::Found(ce) => Ok(Verdict::Refuted(ce)),
        SweepEnd::Exhausted => Ok(Verdict::Proven),
        SweepEnd::Panicked { position, message } => Err(WorkerPanicked {
            position,
            failures: failure_set_at(g, max_failures, position),
            message,
        }),
        SweepEnd::Stopped(cause) => stop_verdict(
            g,
            pattern,
            property,
            budget,
            report.masks_examined,
            report.max_weight,
            cause,
        ),
    }
}

/// `r`-bounded resilience in its historical `Result` shape, kept for the
/// frozen benchmark (`perfbench/`): `Err(EdgeLimitExceeded)` above
/// [`BOUNDED_EDGE_LIMIT`] links — tested before [`check`] runs, so an
/// oversize graph never samples — and otherwise [`check`] under
/// [`RunBudget::unlimited`].
///
/// # Panics
///
/// Re-raises a probe panic as a [`WorkerPanicked`] message.
pub fn check_bounded_r_resilience<P: CompilePattern + ?Sized>(
    g: &Graph,
    pattern: &P,
    r: usize,
) -> Result<Result<(), Counterexample>, EdgeLimitExceeded> {
    if g.edge_count() > BOUNDED_EDGE_LIMIT {
        return Err(EdgeLimitExceeded {
            links: g.edge_count(),
            limit: BOUNDED_EDGE_LIMIT,
        });
    }
    let verdict = check(g, pattern, Property::bounded(r), &RunBudget::unlimited());
    match verdict.unwrap_or_else(|e| panic!("{e}")) {
        Verdict::Proven => Ok(Ok(())),
        Verdict::Refuted(ce) => Ok(Err(ce)),
        Verdict::Indeterminate(p) => unreachable!("unbudgeted sweep stopped: {p}"),
    }
}

/// [`check`] of `r`-bounded resilience, kept under this name for the
/// frozen benchmark (`perfbench/`).
pub fn check_bounded_r_resilience_with_budget<P: CompilePattern + ?Sized>(
    g: &Graph,
    pattern: &P,
    r: usize,
    budget: &RunBudget,
) -> Result<Verdict, WorkerPanicked> {
    check(g, pattern, Property::bounded(r), budget)
}

/// The probe of one failure mask: the counterexample to `property` under
/// the engine's overlay, if any.
fn probe<P: ForwardingPattern + ?Sized>(
    engine: &mut SweepEngine<'_>,
    fwd: &Forwarder<'_, P>,
    property: Property,
) -> Option<Counterexample> {
    let g = engine.graph();
    let pattern = fwd.pattern();
    match property {
        Property::Routing { destination, .. } => {
            let destinations = match destination {
                Some(t) => t.index()..t.index() + 1,
                None => 0..g.node_count(),
            };
            let (s, t) = engine.first_undelivered(fwd, destinations)?;
            Some(replay_route(g, pattern, engine.current_failure_set(), s, t))
        }
        Property::Tolerance {
            source,
            destination,
            r,
        } => tolerance_violation(engine, fwd, source, destination, r),
        Property::Touring { .. } => {
            let start = g.nodes().find(|&start| !engine.covers(fwd, start))?;
            Some(replay_tour(g, pattern, engine.current_failure_set(), start))
        }
    }
}

/// The `r`-tolerance probe of one failure mask: the counterexample if `s`
/// and `t` stay `r`-connected in `G \ F` (the promise) yet the packet is not
/// delivered.
///
/// The checks run cheapest first.  With `r ≥ 1` a pair split by `F` fails
/// the promise, which the component decomposition answers in O(1).  The
/// packet is routed next, and the max-flow promise is computed only for an
/// undelivered packet: the violation set is still promise ∧ ¬delivered.
fn tolerance_violation<P: ForwardingPattern + ?Sized>(
    engine: &mut SweepEngine<'_>,
    fwd: &Forwarder<'_, P>,
    s: Node,
    t: Node,
    r: usize,
) -> Option<Counterexample> {
    if s == t || (r >= 1 && !engine.same_component(s, t)) {
        return None;
    }
    let g = engine.graph();
    let outcome = engine.outcome(fwd, s, t);
    let promise =
        || r == 0 || st_edge_connectivity_filtered(g, s, t, |u, v| !engine.link_failed(u, v)) >= r;
    (!outcome.is_delivered() && promise())
        .then(|| replay_route(g, fwd.pattern(), engine.current_failure_set(), s, t))
}

/// Replays a failing routing scenario through the plain simulator to attach
/// the packet's path to the counterexample (the sweep hot loop itself never
/// builds paths).
fn replay_route<P: ForwardingPattern + ?Sized>(
    g: &Graph,
    pattern: &P,
    failures: FailureSet,
    source: Node,
    destination: Node,
) -> Counterexample {
    let result = route(
        g,
        &failures,
        pattern,
        source,
        destination,
        state_space_bound(g),
    );
    debug_assert!(!result.outcome.is_delivered());
    Counterexample {
        failures,
        source,
        destination,
        outcome: result.outcome,
        path: result.path,
    }
}

/// Replays a failing touring scenario for its walk.
fn replay_tour<P: ForwardingPattern + ?Sized>(
    g: &Graph,
    pattern: &P,
    failures: FailureSet,
    start: Node,
) -> Counterexample {
    let result = tour(g, &failures, pattern, start, state_space_bound(g));
    debug_assert!(!result.covered_component);
    Counterexample {
        failures,
        source: start,
        destination: start,
        outcome: Outcome::Loop,
        path: result.path,
    }
}

/// Trials the sampling fallback spends after a budgeted sweep stops early
/// (a [`StopCause::Deadline`] or [`StopCause::WorkBudget`] stop, and
/// [`StopCause::EdgeLimit`] for oversize graphs).
pub const FALLBACK_SAMPLING_TRIALS: usize = 256;

/// Seed of the fallback sampler — fixed, so budgeted runs that degrade to
/// sampling stay reproducible run to run.
const FALLBACK_SAMPLING_SEED: u64 = 0x5EED_FA11;

/// Assembles the [`Verdict`] for a sweep that stopped early (or, for an
/// oversize graph, never ran): degrade to the reproducible
/// [`RandomAdversary`] sampler, report honest `Indeterminate` when it finds
/// nothing, and skip sampling entirely on explicit cancellation — a
/// cancelled caller wants the run gone, not more work.  The sampler runs
/// all [`FALLBACK_SAMPLING_TRIALS`] trials whatever stopped the sweep: it
/// keeps only the caller's cancellation token.  A tolerance sample fails at
/// most `2r` links, since larger sets rarely keep the pair `r`-connected.
/// A sampler panic is a [`WorkerPanicked`] at the trial index, with the
/// trial's failure set.
fn stop_verdict<P: CompilePattern + ?Sized>(
    g: &Graph,
    pattern: &P,
    property: Property,
    budget: &RunBudget,
    masks_examined: u64,
    weight_reached: usize,
    cause: StopCause,
) -> Result<Verdict, WorkerPanicked> {
    let mut sampled_trials = 0u64;
    if cause != StopCause::Cancelled {
        let cap = match property {
            Property::Tolerance { r, .. } => 2 * r.max(1),
            _ => g.edge_count(),
        };
        let sampler = RandomAdversary::new(FALLBACK_SAMPLING_TRIALS, cap, FALLBACK_SAMPLING_SEED);
        match sampler.search_with_budget(g, pattern, property, &budget.cancel_only())? {
            Verdict::Indeterminate(p) => sampled_trials = p.sampled_trials,
            decided => return Ok(decided),
        }
    }
    Ok(Verdict::Indeterminate(Progress {
        masks_examined,
        weight_reached,
        elapsed: budget.elapsed(),
        stopped_by: cause,
        sampled_trials,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{RotorPattern, ShortestPathPattern};
    use frr_graph::generators;

    fn unlimited<P: CompilePattern + ?Sized>(g: &Graph, p: &P, property: Property) -> Verdict {
        check(g, p, property, &RunBudget::unlimited()).expect("no probe panics")
    }

    #[test]
    fn rotor_with_shortcut_is_perfectly_resilient_on_a_cycle() {
        // On a ring, sweeping around (right-hand rule) is perfectly resilient.
        let g = generators::cycle(5);
        let p = RotorPattern::clockwise_with_shortcut(&g);
        assert!(unlimited(&g, &p, Property::PERFECT).is_proven());
        let pinned = Property::Routing {
            max_failures: None,
            destination: Some(Node(2)),
        };
        assert!(unlimited(&g, &p, pinned).is_proven());
    }

    #[test]
    fn shortest_path_pattern_fails_perfect_resilience_on_k4() {
        // The naive shortest-path + sweep fallback is not perfectly resilient
        // on denser graphs; the checker must produce a concrete counterexample.
        let g = generators::complete(4);
        let p = ShortestPathPattern::new(&g);
        match unlimited(&g, &p, Property::PERFECT) {
            Verdict::Proven => { /* if it happens to survive K4 that is fine too */ }
            Verdict::Refuted(ce) => {
                // Replay the counterexample and confirm it really fails.
                let r = route(&g, &ce.failures, &p, ce.source, ce.destination, 1000);
                assert!(!r.outcome.is_delivered());
                assert!(ce.failures.keeps_connected(&g, ce.source, ce.destination));
            }
            v => panic!("an unlimited in-limit check decides: {v}"),
        }
    }

    #[test]
    fn check_defeats_naive_pattern_on_k4() {
        // Always forwarding to the smallest alive neighbor (after the
        // destination shortcut) ignores the in-port and loops on K4.  The
        // pattern is a tabulated closure, so the refutation is found on
        // the dense tables and replayed on the interpreter.
        use crate::adversary::verify_counterexample;
        use crate::model::RoutingModel;
        use crate::pattern::FnPattern;
        let g = generators::complete(4);
        let p = FnPattern::new(RoutingModel::DestinationOnly, "smallest-alive", |ctx| {
            if ctx.destination_is_alive_neighbor() {
                return Some(ctx.destination);
            }
            ctx.alive_neighbors().first().copied()
        });
        let verdict = unlimited(&g, &p, Property::PERFECT);
        let ce = verdict
            .counterexample()
            .expect("the naive pattern must fail");
        assert!(verify_counterexample(&g, &p, ce));
        assert_eq!(ce.outcome, Outcome::Loop);
    }

    #[test]
    fn counterexample_matches_sequential_reference_order() {
        // The sharded sweep must return exactly the counterexample a
        // sequential scan of the canonical Gray enumeration order returns:
        // first in (Gray-enumerated mask, source, destination) order.
        let g = generators::complete(4);
        let p = ShortestPathPattern::new(&g);
        let max_hops = state_space_bound(&g);
        let reference = crate::failure::GrayFailureSets::new(&g).find_map(|failures| {
            for s in g.nodes() {
                for t in g.nodes() {
                    if s == t || !failures.keeps_connected(&g, s, t) {
                        continue;
                    }
                    let result = route(&g, &failures, &p, s, t, max_hops);
                    if !result.outcome.is_delivered() {
                        return Some((failures, s, t, result.outcome, result.path));
                    }
                }
            }
            None
        });
        match (unlimited(&g, &p, Property::PERFECT), reference) {
            (Verdict::Refuted(ce), Some((failures, s, t, outcome, path))) => {
                assert_eq!(ce.failures, failures);
                assert_eq!(ce.source, s);
                assert_eq!(ce.destination, t);
                assert_eq!(ce.outcome, outcome);
                assert_eq!(ce.path, path);
            }
            (Verdict::Proven, None) => {}
            (checker, reference) => panic!(
                "checker and reference disagree: {checker:?} vs reference-found={}",
                reference.is_some()
            ),
        }
    }

    #[test]
    fn r_resilience_is_weaker_than_perfect_resilience() {
        let g = generators::cycle(6);
        let p = ShortestPathPattern::new(&g);
        // With at most one failure on a ring, shortest path + sweep delivers.
        assert_eq!(check_bounded_r_resilience(&g, &p, 1), Ok(Ok(())));
    }

    #[test]
    fn r_tolerance_on_k5() {
        let g = generators::complete(5);
        let p = ShortestPathPattern::new(&g);
        // 4-tolerance on K5: the only failure sets keeping s,t 4-connected
        // leave the graph (almost) intact, so the check passes.
        let property = Property::Tolerance {
            source: Node(0),
            destination: Node(4),
            r: 4,
        };
        assert!(unlimited(&g, &p, property).is_proven());
    }

    #[test]
    fn r_tolerance_sampled_matches_exhaustive_on_small_graph() {
        let g = generators::complete(5);
        let p = ShortestPathPattern::new(&g);
        let property = Property::Tolerance {
            source: Node(0),
            destination: Node(4),
            r: 4,
        };
        let sampled = RandomAdversary::new(350, 6, 5).find_counterexample(&g, &p, property);
        assert!(sampled.is_none());
        assert!(unlimited(&g, &p, property).is_proven());
    }

    #[test]
    fn touring_check_on_cycle_and_star() {
        let c = generators::cycle(5);
        let p = RotorPattern::clockwise(&c);
        assert!(unlimited(&c, &p, Property::PERFECT_TOURING).is_proven());
        let s = generators::star(4);
        let p = RotorPattern::clockwise(&s);
        assert!(unlimited(&s, &p, Property::PERFECT_TOURING).is_proven());
        let two = Property::bounded_touring(2);
        assert!(unlimited(&s, &p, two).is_proven());
    }

    #[test]
    fn touring_check_fails_on_k4_for_any_rotor() {
        // Lemma 3 of the paper: K4 cannot be toured under perfect resilience.
        // In particular the ascending rotor must fail, with a counterexample.
        let g = generators::complete(4);
        let p = RotorPattern::clockwise(&g);
        let verdict = unlimited(&g, &p, Property::PERFECT_TOURING);
        let err = verdict.counterexample().expect("K4 defeats the rotor");
        // Replay: the tour must indeed miss part of the component.
        let t = tour(&g, &err.failures, &p, err.source, 1000);
        assert!(!t.covered_component);
    }

    #[test]
    fn sampled_violation_search_finds_nothing_on_resilient_pattern() {
        let g = generators::cycle(7);
        let p = RotorPattern::clockwise_with_shortcut(&g);
        let sampler = RandomAdversary::new(200, 3, 3);
        assert!(sampler
            .find_counterexample(&g, &p, Property::PERFECT)
            .is_none());
    }

    #[test]
    fn sampled_violation_search_finds_failures_of_broken_pattern() {
        use crate::model::RoutingModel;
        use crate::pattern::FnPattern;
        // A pattern that always drops packets unless the destination is adjacent.
        let g = generators::cycle(6);
        let p = FnPattern::new(RoutingModel::DestinationOnly, "drop-all", |ctx| {
            if ctx.destination_is_alive_neighbor() {
                Some(ctx.destination)
            } else {
                None
            }
        });
        let ce = RandomAdversary::new(500, 2, 1)
            .find_counterexample(&g, &p, Property::PERFECT)
            .expect("the dropping pattern must be caught");
        assert!(ce.failures.keeps_connected(&g, ce.source, ce.destination));
    }
}
