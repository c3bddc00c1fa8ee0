//! Differential tests for the compiled-pattern substrate: the dense rule
//! tables must replicate the interpreted `ForwardingPattern` **exactly** —
//! same outcomes, same paths, same hop counts, same tour coverage — for every
//! pattern shape, including deliberately broken ones (non-neighbor forwards,
//! failed-link forwards, non-priority-list decision functions), across seeded
//! random graphs × failure masks, through every consumer layer (the generic
//! tabulator, `CompiledSim`, the sweep engine's compiled loops, and the
//! checkers/adversaries that compile internally).  The all-pairs delivery
//! check `SweepEngine::first_undelivered` is pinned against the per-pair
//! walks it replaces.

use frr_graph::{generators, Graph, Node};
use frr_routing::adversary::{Adversary, BruteForceAdversary, RandomAdversary};
use frr_routing::budget::{RunBudget, StopSignal, Verdict, WorkerPanicked};
use frr_routing::compiled::{tabulate, CompilePattern, CompiledPattern, CompiledSim, Forwarder};
use frr_routing::failure::{FailureSet, GrayMasks};
use frr_routing::hostile::{FailedLinkForwarder, NoCompile, NonNeighborForwarder};
use frr_routing::model::{LocalContext, RoutingModel};
use frr_routing::pattern::{FnPattern, ForwardingPattern, RotorPattern, ShortestPathPattern};
use frr_routing::resilience::{
    check, check_bounded_r_resilience, sampled_touring_violation, Property,
};
use frr_routing::simulator::{route, state_space_bound, tour};
use frr_routing::sweep::{sweep_find_first_budgeted, SweepEnd, SweepEngine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Seeded random connected graphs spanning sparse trees-plus-chords to dense
/// little meshes.
fn random_graphs(seed: u64, count: usize) -> Vec<Graph> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let n = rng.gen_range(4..9);
            let extra = rng.gen_range(0..6);
            generators::random_connected(n, extra, &mut rng)
        })
        .collect()
}

/// A deterministic sample of failure masks of `g`: every mask for tiny edge
/// counts, a seeded sample otherwise.
fn sample_masks(g: &Graph, rng: &mut StdRng) -> Vec<u64> {
    let m = g.edge_count();
    if m <= 10 {
        return (0..1u64 << m).collect();
    }
    let mut masks = vec![0u64, (1u64 << m) - 1];
    masks.extend((0..150).map(|_| rng.gen_range(0..1u64 << m)));
    masks
}

/// The generic pattern portfolio, including hostile shapes: a pattern that
/// teleports to a non-neighbor, one that forwards onto failed links, and one
/// whose decision function is not expressible as a priority list.
fn portfolio(g: &Graph) -> Vec<Box<dyn CompilePattern>> {
    let n = g.node_count();
    vec![
        Box::new(RotorPattern::clockwise(g)),
        Box::new(RotorPattern::clockwise_with_shortcut(g)),
        Box::new(ShortestPathPattern::new(g)),
        Box::new(FnPattern::new(RoutingModel::DestinationOnly, "teleport", {
            move |_: &frr_routing::model::LocalContext<'_>| Some(Node(n + 7))
        })),
        Box::new(FnPattern::new(
            RoutingModel::DestinationOnly,
            "ignore-failures",
            |ctx: &frr_routing::model::LocalContext<'_>| {
                // Forwards to its smallest static neighbor even when that
                // link failed — the simulator must fault identically.
                ctx.graph.neighbors(ctx.node).next()
            },
        )),
        Box::new(FnPattern::new(
            RoutingModel::SourceDestination,
            "largest-unless-lonely",
            |ctx: &frr_routing::model::LocalContext<'_>| {
                let alive = ctx.alive_neighbors();
                match alive.len() {
                    0 => None,
                    1 => Some(alive[0]),
                    _ => alive.last().copied(),
                }
            },
        )),
    ]
}

#[test]
fn compiled_routing_matches_interpreter_on_random_graphs() {
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    for g in random_graphs(11, 8) {
        let max_hops = state_space_bound(&g);
        let mut engine = SweepEngine::new(&g);
        for pattern in portfolio(&g) {
            let cp = pattern
                .compile(&g)
                .expect("small graphs compile within budget");
            let mut sim = CompiledSim::new(&cp);
            for mask in sample_masks(&g, &mut rng) {
                engine.load_mask(&[mask]);
                let failures = FailureSet::from_mask(engine.edges(), &[mask]);
                sim.load_failures(&cp, &failures);
                for s in g.nodes() {
                    for t in g.nodes() {
                        let reference = route(&g, &failures, &pattern, s, t, max_hops);
                        // Full result equality (outcome, path, hops) on the
                        // standalone compiled simulator...
                        assert_eq!(
                            sim.route(&cp, s, t, max_hops),
                            reference,
                            "graph {g:?}, mask {mask:#b}, {s}->{t}, {}",
                            pattern.name()
                        );
                        // ...and outcome equality on the sweep engine's
                        // compiled hot loop.
                        assert_eq!(
                            engine.route_outcome_compiled(&cp, s, t, max_hops),
                            reference.outcome,
                            "graph {g:?}, mask {mask:#b}, {s}->{t}, {}",
                            pattern.name()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn compiled_touring_matches_interpreter_on_random_graphs() {
    let mut rng = StdRng::seed_from_u64(0x7007);
    for g in random_graphs(23, 6) {
        let max_hops = state_space_bound(&g);
        let mut engine = SweepEngine::new(&g);
        let patterns: Vec<Box<dyn CompilePattern>> = vec![
            Box::new(RotorPattern::clockwise(&g)),
            Box::new(FnPattern::new(
                RoutingModel::Touring,
                "largest-unless-lonely",
                |ctx: &frr_routing::model::LocalContext<'_>| {
                    let alive = ctx.alive_neighbors();
                    match alive.len() {
                        0 => None,
                        1 => Some(alive[0]),
                        _ => alive.last().copied(),
                    }
                },
            )),
        ];
        for pattern in patterns {
            let cp = pattern.compile(&g).expect("compiles");
            let mut sim = CompiledSim::new(&cp);
            for mask in sample_masks(&g, &mut rng) {
                engine.load_mask(&[mask]);
                let failures = FailureSet::from_mask(engine.edges(), &[mask]);
                sim.load_failures(&cp, &failures);
                for start in g.nodes() {
                    let reference = tour(&g, &failures, &pattern, start, max_hops);
                    // Full TourResult equality: visited set, coverage,
                    // return-to-start, and the walk itself.
                    assert_eq!(
                        sim.tour(&cp, start, max_hops),
                        reference,
                        "graph {g:?}, mask {mask:#b}, start {start}, {}",
                        pattern.name()
                    );
                    assert_eq!(
                        engine.tour_covers_compiled(&cp, start, max_hops),
                        reference.covered_component,
                    );
                }
            }
        }
    }
}

#[test]
fn compiled_pattern_next_hop_agrees_as_forwarding_pattern() {
    // `CompiledPattern` is itself a `ForwardingPattern`; its `next_hop` must
    // agree with the source pattern on every reachable local context.
    for g in random_graphs(77, 6) {
        for pattern in portfolio(&g) {
            let cp: CompiledPattern = pattern.compile(&g).expect("compiles");
            let max_hops = state_space_bound(&g);
            let mut rng = StdRng::seed_from_u64(5);
            for mask in sample_masks(&g, &mut rng) {
                let failures = FailureSet::from_mask(&g.edges(), &[mask]);
                for s in g.nodes() {
                    for t in g.nodes() {
                        assert_eq!(
                            route(&g, &failures, &cp, s, t, max_hops),
                            route(&g, &failures, &pattern, s, t, max_hops),
                            "graph {g:?}, mask {mask:#b}, {s}->{t}, {}",
                            pattern.name()
                        );
                    }
                }
            }
        }
    }
}

/// `verdict` with its wall-clock reading zeroed, so two runs compare equal.
fn timeless(mut verdict: Result<Verdict, WorkerPanicked>) -> Result<Verdict, WorkerPanicked> {
    if let Ok(Verdict::Indeterminate(progress)) = &mut verdict {
        progress.elapsed = Duration::ZERO;
    }
    verdict
}

#[test]
fn checkers_produce_identical_counterexamples_with_and_without_compilation() {
    // The checkers compile internally; a wrapper that refuses compilation
    // forces the interpreted path, and the results must be byte-identical.
    // A one-mask work budget stops every sweep after the empty mask, so the
    // clipped checks run each property's sampler on both paths.
    let unlimited = RunBudget::unlimited();
    let clipped = RunBudget::unlimited().with_work_budget(1);
    for g in random_graphs(4242, 6) {
        let n = g.node_count();
        let p = ShortestPathPattern::new(&g);
        let uncompiled = NoCompile(ShortestPathPattern::new(&g));
        let mut routing = vec![Property::PERFECT];
        routing.extend(
            [(0, n - 1, 0), (0, n - 1, 1), (1, n / 2, 2)].map(|(s, t, r)| Property::Tolerance {
                source: Node(s),
                destination: Node(t),
                r,
            }),
        );
        for property in routing {
            assert_eq!(
                check(&g, &p, property, &unlimited),
                check(&g, &uncompiled, property, &unlimited),
                "graph {g:?}, {property:?}"
            );
            assert_eq!(
                timeless(check(&g, &p, property, &clipped)),
                timeless(check(&g, &uncompiled, property, &clipped)),
                "graph {g:?}, {property:?} clipped"
            );
        }
        let rotor = RotorPattern::clockwise(&g);
        for budget in [&unlimited, &clipped] {
            assert_eq!(
                timeless(check(&g, &rotor, Property::PERFECT_TOURING, budget)),
                timeless(check(
                    &g,
                    &NoCompile(&rotor),
                    Property::PERFECT_TOURING,
                    budget
                )),
                "graph {g:?}"
            );
        }
        let brute = BruteForceAdversary::with_max_failures(3);
        assert_eq!(
            brute.find_counterexample(&g, &p),
            brute.find_counterexample(&g, &uncompiled),
            "graph {g:?}"
        );
        let random = RandomAdversary::new(300, 3, 99);
        assert_eq!(
            random.find_counterexample(&g, &p),
            random.find_counterexample(&g, &uncompiled),
            "graph {g:?}"
        );
    }
}

#[test]
fn metrics_identical_with_and_without_compilation() {
    let g = generators::complete(6);
    let p = ShortestPathPattern::new(&g);
    let cp = tabulate(&g, &p).expect("compiles");
    let mut sim = CompiledSim::new(&cp);
    let mut rng = StdRng::seed_from_u64(31);
    let mut scenarios = Vec::new();
    for _ in 0..120 {
        let k = rng.gen_range(0..4);
        let failures = frr_routing::failure::random_failure_set(&g, k, &mut rng);
        let s = Node(rng.gen_range(0..6));
        let t = Node(rng.gen_range(0..6));
        scenarios.push((failures, s, t));
    }
    let stats = frr_routing::metrics::evaluate_scenarios(&g, &p, &scenarios);
    // Replay by hand on the compiled simulator and compare the tallies.
    let mut delivered = 0usize;
    for (failures, s, t) in &scenarios {
        if s == t || !FailureSet::keeps_connected(failures, &g, *s, *t) {
            continue;
        }
        sim.load_failures(&cp, failures);
        delivered += sim
            .route(&cp, *s, *t, state_space_bound(&g))
            .outcome
            .is_delivered() as usize;
    }
    assert_eq!(stats.delivered, delivered);
    assert!(stats.connected_scenarios >= stats.delivered);
}

/// The all-pairs loop `first_undelivered` replaces: one independent walk per
/// connected pair, source-major and destination-minor, on the compiled
/// tables when there are some.
fn first_undelivered_per_pair<P: ForwardingPattern + ?Sized>(
    engine: &mut SweepEngine<'_>,
    fwd: &Forwarder<'_, P>,
    destinations: std::ops::Range<usize>,
) -> Option<(Node, Node)> {
    for s in engine.graph().nodes() {
        for t in destinations.clone().map(Node) {
            if s == t || !engine.same_component(s, t) {
                continue;
            }
            if !engine.outcome(fwd, s, t).is_delivered() {
                return Some((s, t));
            }
        }
    }
    None
}

/// Asserts `first_undelivered` ≡ the per-pair loop on every mask of weight
/// at most `max_failures`, over all destinations and two sub-ranges of them.
/// Returns how many masks had an undelivered pair.
fn assert_first_undelivered_matches<P: ForwardingPattern + ?Sized>(
    g: &Graph,
    fwd: &Forwarder<'_, P>,
    max_failures: usize,
) -> usize {
    let n = g.node_count();
    let mut engine = SweepEngine::new(g);
    let mut gray = GrayMasks::with_max_failures(g.edge_count(), Some(max_failures));
    let mut failing = 0;
    while gray.advance() {
        engine.load_mask(gray.current());
        for destinations in [0..n, n / 2..n, 1..2] {
            let labelled = engine.first_undelivered(fwd, destinations.clone());
            let reference = first_undelivered_per_pair(&mut engine, fwd, destinations.clone());
            assert_eq!(
                labelled,
                reference,
                "{}, destinations {destinations:?}, F = {}, graph {g:?}",
                fwd.pattern().name(),
                engine.current_failure_set()
            );
            failing += usize::from(destinations.start == 0 && labelled.is_some());
        }
    }
    failing
}

/// A source–destination pattern with loops and drops: forward to the
/// largest alive neighbor, or towards the source when that is alive and the
/// destination is not adjacent.
fn source_destination_pattern() -> impl CompilePattern {
    FnPattern::new(
        RoutingModel::SourceDestination,
        "largest-or-home",
        |ctx: &LocalContext<'_>| {
            if ctx.destination_is_alive_neighbor() {
                return Some(ctx.destination);
            }
            if ctx.inport.is_some() && ctx.is_alive(ctx.source) {
                return Some(ctx.source);
            }
            ctx.alive_neighbors().last().copied()
        },
    )
}

#[test]
fn first_undelivered_matches_per_pair_walks_on_random_graphs() {
    let mut failing = 0;
    for g in &random_graphs(0x1ABE1, 6) {
        let sp = ShortestPathPattern::new(g);
        let rotor = RotorPattern::clockwise(g);
        let pair = source_destination_pattern();
        let patterns: [&dyn CompilePattern; 3] = [&sp, &rotor, &pair];
        for pattern in patterns {
            let fwd = Forwarder::new(g, pattern);
            assert!(fwd.tables().is_some(), "small graphs compile");
            failing += assert_first_undelivered_matches(g, &fwd, 2);
        }
    }
    // Past the single-word mask wall.  Per-pair tables of a graph this
    // dense exceed the tabulation budget, so only the direct compilers run.
    let wide = generators::random_connected(14, 53, &mut StdRng::seed_from_u64(64));
    assert!(wide.edge_count() > 64);
    assert!(tabulate(&wide, &source_destination_pattern()).is_none());
    let sp = ShortestPathPattern::new(&wide);
    let rotor = RotorPattern::clockwise(&wide);
    for pattern in [&sp as &dyn CompilePattern, &rotor] {
        let fwd = Forwarder::new(&wide, pattern);
        assert!(
            fwd.tables().is_some(),
            "direct compilers take any degree below 64"
        );
        failing += assert_first_undelivered_matches(&wide, &fwd, 2);
    }
    assert!(failing > 0, "the portfolio must exercise undelivered pairs");
}

#[test]
fn first_undelivered_matches_per_pair_walks_on_hostile_patterns() {
    // The hostile patterns refuse `compile`; tabulating them directly gives
    // tables that drop (forwarding faults) or loop, and refusing keeps the
    // interpreted path (`NoCompile` forces it for the rotor).
    let mut failing = 0;
    for g in random_graphs(0xBAD, 5) {
        let patterns: [&dyn CompilePattern; 3] = [
            &FailedLinkForwarder,
            &NonNeighborForwarder,
            &RotorPattern::clockwise(&g),
        ];
        for pattern in patterns {
            let cp = tabulate(&g, pattern).expect("small graphs tabulate");
            failing += assert_first_undelivered_matches(&g, &Forwarder::new(&g, &cp), 2);
            let interpreted = NoCompile(pattern);
            let fwd = Forwarder::new(&g, &interpreted);
            assert!(fwd.tables().is_none());
            failing += assert_first_undelivered_matches(&g, &fwd, 2);
        }
    }
    assert!(failing > 0);
}

#[test]
fn first_undelivered_keeps_the_interpreter_when_compile_is_refused() {
    // A wheel's hub has degree 64: compilation refuses, and the primitive
    // must answer exactly like the interpreted per-pair walks.
    let g = generators::wheel(64);
    let sp = ShortestPathPattern::new(&g);
    let sp = Forwarder::new(&g, &sp);
    assert!(sp.tables().is_none(), "degree 64 refuses compilation");
    let smallest_alive = FnPattern::new(
        RoutingModel::DestinationOnly,
        "smallest-alive",
        |ctx: &LocalContext<'_>| {
            if ctx.destination_is_alive_neighbor() {
                return Some(ctx.destination);
            }
            ctx.alive_neighbors().first().copied()
        },
    );
    let smallest_alive = Forwarder::new(&g, &smallest_alive);
    assert!(smallest_alive.tables().is_none());
    assert_first_undelivered_matches(&g, &sp, 1);
    let failing = assert_first_undelivered_matches(&g, &smallest_alive, 1);
    assert!(failing > 0);
}

#[test]
fn sharded_r1_sweep_finds_a_late_counterexample_like_a_sequential_scan() {
    // A 64-node ring with the perfectly resilient rotor-with-shortcut, except
    // that one endpoint of a chosen link drops every packet while that link
    // is down.  An r = 1 sweep has 65 masks of 64² pairs each, which the
    // work-sized shard rule splits across the cores; the chosen link sits at
    // Gray position 50, so the workers sweep 50 clean masks before it.
    let g = generators::cycle(64);
    let (n, m) = (g.node_count(), g.edge_count());
    let mut gray = GrayMasks::with_max_failures(m, Some(1));
    for _ in 0..=50 {
        assert!(gray.advance());
    }
    let [word] = *gray.current() else {
        panic!("64 links fit one word")
    };
    assert_eq!(word.count_ones(), 1, "a single failure");
    let e = g.edges()[word.trailing_zeros() as usize];
    let rotor = RotorPattern::clockwise_with_shortcut(&g);
    let pattern = FnPattern::new(
        RoutingModel::DestinationOnly,
        "ring-with-one-trap",
        move |ctx: &LocalContext<'_>| {
            if ctx.node == e.u() && ctx.failed_neighbors.contains(&e.v()) {
                return None;
            }
            rotor.next_hop(ctx)
        },
    );
    let fwd = Forwarder::new(&g, &pattern);
    assert!(fwd.tables().is_some(), "a ring tabulates");

    // The sequential reference: per-pair walks, mask by mask in Gray order.
    let mut engine = SweepEngine::new(&g);
    let mut gray = GrayMasks::with_max_failures(m, Some(1));
    let mut reference = None;
    let mut position = 0u64;
    while gray.advance() {
        engine.load_mask(gray.current());
        if let Some((s, t)) = first_undelivered_per_pair(&mut engine, &fwd, 0..n) {
            reference = Some((engine.current_failure_set(), s, t));
            break;
        }
        position += 1;
    }
    let (failures, s, t) = reference.expect("the trap fires");
    assert_eq!(position, 50);
    assert!(failures.contains_edge(e));

    let ce = check_bounded_r_resilience(&g, &pattern, 1)
        .expect("64 links fit the bounded sweep")
        .expect_err("the trap is found");
    assert_eq!((ce.failures, ce.source, ce.destination), (failures, s, t));
    // The interpreted sweep (sharded as well) agrees.
    let interpreted = check_bounded_r_resilience(&g, &NoCompile(&pattern), 1)
        .expect("fits")
        .expect_err("the trap is found");
    assert_eq!((interpreted.source, interpreted.destination), (s, t));
}

#[test]
fn sharded_r2_sweep_loads_every_mask_like_a_sequential_scan() {
    // An r = 2 sweep of a 91-link ring has 1 + 91 + 4095 masks, which the
    // workers claim in blocks, each reloading its engine after the blocks
    // others swept.  The probe hits only when the engine holds one chosen
    // pair of links, at Gray position 3000, so a stale overlay after a gap
    // would miss it or hit elsewhere.
    let g = generators::cycle(91);
    let m = g.edge_count();
    let mut gray = GrayMasks::with_max_failures(m, Some(2));
    for _ in 0..=3000 {
        assert!(gray.advance());
    }
    let target = FailureSet::from_mask(&g.edges(), gray.current());
    assert_eq!(target.len(), 2);

    let mut probes = 0usize;
    let sequential = {
        let mut engine = SweepEngine::new(&g);
        let mut gray = GrayMasks::with_max_failures(m, Some(2));
        let mut hit = None;
        while gray.advance() {
            engine.load_mask(gray.current());
            if engine.current_failure_set() == target {
                hit = Some((probes, engine.current_failure_set()));
                break;
            }
            probes += 1;
        }
        hit
    };
    assert_eq!(sequential.as_ref().map(|h| h.0), Some(3000));
    let sharded = sweep_find_first_budgeted(&g, Some(2), None, &StopSignal::none(), |engine| {
        let failures = engine.current_failure_set();
        (failures == target).then_some(failures)
    });
    let (_, expected) = sequential.expect("the target is enumerated");
    assert_eq!(sharded.end, SweepEnd::Found(expected));
}

#[test]
fn sampled_touring_violation_is_unchanged_by_compilation() {
    // The clockwise rotor cannot tour K4 (Lemma 3) or a random graph with
    // chords under failures; the compiled sampler must draw the same
    // scenarios and return the same counterexample as the interpreter.
    let mut graphs = vec![generators::complete(4), generators::petersen()];
    graphs.extend(random_graphs(0x70A5, 4));
    let mut found = 0;
    for g in &graphs {
        let rotor = RotorPattern::clockwise(g);
        for seed in 0..4 {
            let compiled =
                sampled_touring_violation(g, &rotor, 200, 3, &mut StdRng::seed_from_u64(seed));
            let interpreted = sampled_touring_violation(
                g,
                &NoCompile(RotorPattern::clockwise(g)),
                200,
                3,
                &mut StdRng::seed_from_u64(seed),
            );
            assert_eq!(compiled, interpreted, "graph {g:?}, seed {seed}");
            found += usize::from(compiled.is_some());
        }
    }
    assert!(found > 0, "the broken rotor must be caught");
}
