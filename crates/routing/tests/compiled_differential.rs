//! Differential tests for the compiled-pattern substrate: the dense rule
//! tables must replicate the interpreted `ForwardingPattern` **exactly** —
//! same outcomes, same paths, same hop counts, same tour coverage — for every
//! pattern shape, including deliberately broken ones (non-neighbor forwards,
//! failed-link forwards, non-priority-list decision functions), across seeded
//! random graphs × failure masks, through every consumer layer (the generic
//! tabulator, `CompiledSim`, the sweep engine's compiled loops, and the
//! checker and the randomized adversary, which compile internally).  The
//! all-pairs delivery check `SweepEngine::first_undelivered` is pinned
//! against the per-pair walks it replaces.

use frr_graph::{generators, Edge, Graph, Node};
use frr_routing::adversary::{Counterexample, RandomAdversary};
use frr_routing::budget::{
    sharded_first_controlled, RunBudget, ShardEvent, StopSignal, Verdict, WorkerPanicked,
};
use frr_routing::compiled::{tabulate, CompilePattern, CompiledPattern, CompiledSim, Forwarder};
use frr_routing::failure::{FailureSet, GrayMasks};
use frr_routing::hostile::{FailedLinkForwarder, NoCompile, NonNeighborForwarder};
use frr_routing::model::{LocalContext, RoutingModel};
use frr_routing::pattern::{FnPattern, ForwardingPattern, RotorPattern, ShortestPathPattern};
use frr_routing::resilience::{check, check_bounded_r_resilience, Property};
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
            for mask in sample_masks(&g, &mut rng) {
                engine.load_mask(&[mask]);
                let failures = FailureSet::from_mask(engine.edges(), &[mask]);
                for start in g.nodes() {
                    let reference = tour(&g, &failures, &pattern, start, max_hops);
                    // Full TourResult equality with the tables as a
                    // pattern: visited set, coverage, return-to-start, and
                    // the walk itself.
                    assert_eq!(
                        tour(&g, &failures, &cp, start, max_hops),
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

/// A seeded rotation system that is not ascending: each node's neighbors
/// shuffled, with a non-neighbor, an id past the last node and a repeated
/// neighbor mixed in (the rotor skips the first two and sweeps the repeat
/// at its first position).
fn scrambled_rotation(g: &Graph, rng: &mut StdRng) -> Vec<Vec<Node>> {
    let n = g.node_count();
    g.nodes()
        .map(|v| {
            let mut rot = g.neighbors_vec(v);
            for i in (1..rot.len()).rev() {
                rot.swap(i, rng.gen_range(0..=i));
            }
            let at = rng.gen_range(0..=rot.len());
            rot.insert(at, Node(n + 3));
            if let Some(stranger) = g.nodes().find(|&u| u != v && !g.has_edge(v, u)) {
                rot.insert(rng.gen_range(0..=rot.len()), stranger);
            }
            let repeat = rot[rng.gen_range(0..rot.len())];
            rot.insert(rng.gen_range(0..=rot.len()), repeat);
            rot
        })
        .collect()
}

/// The rotor and shortest-path compilers emit their lists in port space
/// without sharing the interpreter's sweep; routing on their tables must
/// still equal interpreting the pattern, on every pair and sampled mask.
#[test]
fn port_level_compilers_match_the_interpreter() {
    let mut rng = StdRng::seed_from_u64(0x9047);
    let mut graphs = vec![
        generators::wheel(5),
        generators::wheel(8),
        generators::complete(5),
        generators::complete(6),
    ];
    graphs.extend(random_graphs(0x5EED, 6));
    for g in &graphs {
        let max_hops = state_space_bound(g);
        let rotation = scrambled_rotation(g, &mut rng);
        let patterns: Vec<Box<dyn CompilePattern>> = vec![
            Box::new(ShortestPathPattern::new(g)),
            Box::new(RotorPattern::from_rotation(rotation.clone(), true)),
            Box::new(RotorPattern::from_rotation(rotation, false)),
        ];
        for pattern in &patterns {
            let cp = pattern.compile(g).expect("degrees below 64");
            let mut sim = CompiledSim::new(&cp);
            for mask in sample_masks(g, &mut rng) {
                let failures = FailureSet::from_mask(&g.edges(), &[mask]);
                sim.load_failures(&cp, &failures);
                for s in g.nodes() {
                    if pattern.model() == RoutingModel::Touring {
                        assert_eq!(
                            tour(g, &failures, &cp, s, max_hops),
                            tour(g, &failures, pattern, s, max_hops),
                            "graph {g:?}, mask {mask:#b}, start {s}"
                        );
                        continue;
                    }
                    for t in g.nodes() {
                        assert_eq!(
                            sim.route(&cp, s, t, max_hops),
                            route(g, &failures, pattern, s, t, max_hops),
                            "graph {g:?}, mask {mask:#b}, {s}->{t}, {}",
                            pattern.name()
                        );
                    }
                }
            }
            if pattern.model() == RoutingModel::DestinationOnly {
                for t in g.nodes() {
                    let single = pattern.compile_destination(g, t).expect("compiles");
                    let slice = cp.compile_destination(g, t).expect("slice");
                    assert_eq!(single.digest(), slice.digest(), "{} t={t}", pattern.name());
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
    // clipped checks run the fallback sampler on both paths.
    let unlimited = RunBudget::unlimited();
    let clipped = RunBudget::unlimited().with_work_budget(1);
    for g in random_graphs(4242, 6) {
        let n = g.node_count();
        let p = ShortestPathPattern::new(&g);
        let uncompiled = NoCompile(ShortestPathPattern::new(&g));
        let mut routing = vec![Property::PERFECT, Property::bounded(3)];
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
        let random = RandomAdversary::new(300, 3, 99);
        assert_eq!(
            random.find_counterexample(&g, &p, Property::bounded(3)),
            random.find_counterexample(&g, &uncompiled, Property::bounded(3)),
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
    let stats = frr_routing::metrics::evaluate_scenarios(&g, &p, scenarios.clone());
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
/// connected pair, source-major and destination-minor, on the materialized
/// failure set — on the compiled tables when there are some.
fn first_undelivered_per_pair<P: ForwardingPattern + ?Sized>(
    engine: &SweepEngine<'_>,
    fwd: &Forwarder<'_, P>,
    destinations: std::ops::Range<usize>,
) -> Option<(Node, Node)> {
    let failures = engine.current_failure_set();
    let mut scratch = fwd.scratch();
    for s in engine.graph().nodes() {
        for t in destinations.clone().map(Node) {
            if s == t || !engine.same_component(s, t) {
                continue;
            }
            if !fwd
                .route(&mut scratch, &failures, s, t)
                .outcome
                .is_delivered()
            {
                return Some((s, t));
            }
        }
    }
    None
}

/// What [`assert_first_undelivered_matches`] ran into, counted over the
/// all-destination calls.
#[derive(Debug, Default)]
struct Coverage {
    /// Masks with an undelivered pair.
    failing: usize,
    /// Per failure count: masks decided against the failure-free delivery
    /// forests (the `forest_probes` counter moved).
    forest: Vec<usize>,
    /// Per failure count: masks decided by the full labelled or
    /// interpreted pass.
    full: Vec<usize>,
}

impl Coverage {
    fn forest_masks(&self) -> usize {
        self.forest.iter().sum()
    }

    fn full_masks(&self) -> usize {
        self.full.iter().sum()
    }
}

/// Asserts `first_undelivered` ≡ the per-pair loop on every mask of weight
/// at most `max_failures`, over all destinations and two sub-ranges of them.
fn assert_first_undelivered_matches<P: ForwardingPattern + ?Sized>(
    g: &Graph,
    fwd: &Forwarder<'_, P>,
    max_failures: usize,
) -> Coverage {
    let n = g.node_count();
    let mut engine = SweepEngine::new(g);
    let mut gray = GrayMasks::with_max_failures(g.edge_count(), Some(max_failures));
    let mut coverage = Coverage {
        forest: vec![0; max_failures + 1],
        full: vec![0; max_failures + 1],
        ..Coverage::default()
    };
    while gray.advance() {
        engine.load_mask(gray.current());
        for destinations in [0..n, n / 2..n, 1..2] {
            let before = engine.stats().forest_probes;
            let labelled = engine.first_undelivered(fwd, destinations.clone());
            let forest = engine.stats().forest_probes > before;
            let reference = first_undelivered_per_pair(&engine, fwd, destinations.clone());
            assert_eq!(
                labelled,
                reference,
                "{}, destinations {destinations:?}, F = {}, graph {g:?}",
                fwd.pattern().name(),
                engine.current_failure_set()
            );
            if destinations.start == 0 {
                let weight = engine.current_failure_set().len();
                coverage.failing += usize::from(labelled.is_some());
                coverage.forest[weight] += usize::from(forest);
                coverage.full[weight] += usize::from(!forest);
            }
        }
    }
    coverage
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
            let coverage = assert_first_undelivered_matches(g, &fwd, 2);
            failing += coverage.failing;
            if pattern.model() == RoutingModel::DestinationOnly {
                // Shortest paths deliver without failures; one failure
                // stays within the cost rule, two exceed it here.
                assert!(coverage.forest_masks() > 0, "{coverage:?}");
                assert!(coverage.full_masks() > 0, "{coverage:?}");
            } else {
                // Touring and per-pair tables have no delivery forests.
                assert_eq!(coverage.forest_masks(), 0, "{}", pattern.name());
            }
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
        let coverage = assert_first_undelivered_matches(&wide, &fwd, 2);
        failing += coverage.failing;
        if pattern.model() == RoutingModel::DestinationOnly {
            assert!(
                coverage.forest[1] > 0 && coverage.full_masks() > 0,
                "{coverage:?}"
            );
        }
    }
    assert!(failing > 0, "the portfolio must exercise undelivered pairs");
}

/// A destination-only pattern that delivers every connected pair without
/// failures but is no priority list: shortest paths while no incident link
/// is down, the largest alive neighbor once one is.  Its tables keep
/// `DENSE` failed-mask maps wherever a node of degree ≥ 3 has a
/// shortest-path next hop below its largest neighbor.
fn shortest_or_largest(g: &Graph) -> impl CompilePattern {
    let sp = ShortestPathPattern::new(g);
    FnPattern::new(
        RoutingModel::DestinationOnly,
        "shortest-or-largest",
        move |ctx: &LocalContext<'_>| {
            if ctx.failed_neighbors.is_empty() {
                return sp.next_hop(ctx);
            }
            ctx.alive_neighbors().last().copied()
        },
    )
}

/// Whether some compiled decision is no first-alive priority list: at a
/// packet's first hop, no failure sends it out on `p`, yet failing another
/// link `a` moves it off `p`.  Such a state can only be a `DENSE`
/// failed-mask map.
fn breaks_a_priority_list(g: &Graph, cp: &CompiledPattern) -> bool {
    let decide = |v: Node, t: Node, failed: &[Node]| {
        cp.next_hop(&LocalContext {
            node: v,
            inport: None,
            source: t,
            destination: t,
            failed_neighbors: failed,
            graph: g,
        })
    };
    g.nodes().any(|v| {
        g.nodes().filter(|&t| t != v).any(|t| {
            decide(v, t, &[]).is_some_and(|p| {
                g.neighbors(v)
                    .any(|a| a != p && decide(v, t, &[a]) != Some(p))
            })
        })
    })
}

/// `a` and `b` side by side, plus one isolated node.
fn disjoint_union(a: &Graph, b: &Graph) -> Graph {
    let offset = a.node_count();
    let mut g = Graph::new(offset + b.node_count() + 1);
    for e in a.edges() {
        g.add_edge(e.u(), e.v());
    }
    for e in b.edges() {
        g.add_edge(Node(e.u().index() + offset), Node(e.v().index() + offset));
    }
    g
}

#[test]
fn delta_probes_match_per_pair_walks_on_dense_states_and_disconnected_hosts() {
    let mut failing = 0;
    let graphs = random_graphs(0xDE17A, 6);
    let split = disjoint_union(&graphs[0], &graphs[1]);
    for g in graphs.iter().chain([&split]) {
        let pattern = shortest_or_largest(g);
        let fwd = Forwarder::new(g, &pattern);
        let cp = fwd.tables().expect("small graphs tabulate");
        assert!(breaks_a_priority_list(g, cp), "some states are dense maps");
        let coverage = assert_first_undelivered_matches(g, &fwd, 2);
        assert!(coverage.forest_masks() > 0, "{coverage:?}");
        failing += coverage.failing;
        let sp = ShortestPathPattern::new(g);
        let coverage = assert_first_undelivered_matches(g, &Forwarder::new(g, &sp), 2);
        assert!(coverage.forest_masks() > 0, "{coverage:?}");
    }
    assert!(failing > 0, "the dense pattern must strand some pairs");
}

#[test]
fn delta_probes_need_failure_free_delivery() {
    // Smallest alive neighbor loops or dead-ends without any failure on
    // these graphs, so there are no forests: every mask takes the full pass.
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
    // Drops every packet at node 1 unless it is the destination's neighbor.
    let drop_at_one = FnPattern::new(
        RoutingModel::DestinationOnly,
        "drop-at-one",
        |ctx: &LocalContext<'_>| {
            if ctx.destination_is_alive_neighbor() {
                return Some(ctx.destination);
            }
            (ctx.node != Node(1)).then(|| ctx.alive_neighbors().last().copied())?
        },
    );
    let mut broken = 0;
    for g in random_graphs(0x100F, 6) {
        for pattern in [&smallest_alive as &dyn CompilePattern, &drop_at_one] {
            let fwd = Forwarder::new(&g, pattern);
            let mut engine = SweepEngine::new(&g);
            engine.load_mask(&[0]);
            let fails_unfailed = first_undelivered_per_pair(&engine, &fwd, 0..g.node_count());
            let coverage = assert_first_undelivered_matches(&g, &fwd, 2);
            if fails_unfailed.is_some() {
                broken += 1;
                assert_eq!(coverage.forest_masks(), 0, "{}", pattern.name());
            }
        }
    }
    assert!(broken > 0, "some pattern must fail without failures");
}

#[test]
fn delta_probes_cross_the_cost_rule_at_three_failures() {
    // A 16-node ring with a 5-spoke hub: 59 compiled states, so a mask runs
    // delta probes while its failed-link nodes hold at most 14 of them.
    // Three adjacent ring links touch 4 nodes (12–16 states); three spokes
    // touch the hub's 6 states plus three ring nodes (18).
    let mut g = generators::cycle(16);
    let hub = Graph::new(17);
    let mut wheel = hub;
    for e in g.edges() {
        wheel.add_edge(e.u(), e.v());
    }
    for spoke in [0, 3, 6, 9, 12] {
        wheel.add_edge(Node(16), Node(spoke));
    }
    g = wheel;
    let sp = ShortestPathPattern::new(&g);
    let dense = shortest_or_largest(&g);
    for pattern in [&sp as &dyn CompilePattern, &dense] {
        let coverage = assert_first_undelivered_matches(&g, &Forwarder::new(&g, pattern), 3);
        assert!(
            coverage.forest[3] > 0 && coverage.full[3] > 0,
            "{}: {coverage:?}",
            pattern.name()
        );
    }
}

/// `check`'s routing sweep rebuilt from public pieces on exactly `workers`
/// workers: every Gray position loaded fresh, the earliest
/// `first_undelivered` hit replayed into a counterexample.
fn sweep_verdict_on_workers<P: CompilePattern + ?Sized>(
    g: &Graph,
    pattern: &P,
    r: usize,
    workers: usize,
) -> Verdict {
    let fwd = Forwarder::new(g, pattern);
    let mut gray = GrayMasks::with_max_failures(g.edge_count(), Some(r));
    let mut masks = Vec::new();
    while gray.advance() {
        masks.push(gray.current().to_vec());
    }
    let outcome = sharded_first_controlled(
        masks.len() as u64,
        1,
        1,
        workers,
        &StopSignal::none(),
        || SweepEngine::new(g),
        |engine, i| {
            engine.load_mask(&masks[i as usize]);
            let (s, t) = engine.first_undelivered(&fwd, 0..g.node_count())?;
            Some((engine.current_failure_set(), s, t))
        },
    );
    match outcome.event {
        None => Verdict::Proven,
        Some((_, ShardEvent::Hit((failures, source, destination)))) => {
            let replay = route(
                g,
                &failures,
                pattern,
                source,
                destination,
                state_space_bound(g),
            );
            Verdict::Refuted(Counterexample {
                failures,
                source,
                destination,
                outcome: replay.outcome,
                path: replay.path,
            })
        }
        Some((position, ShardEvent::Panic(message))) => {
            panic!("probe panicked at position {position}: {message}")
        }
    }
}

#[test]
fn check_verdicts_are_identical_at_one_two_and_eight_workers() {
    let mut refuted = 0;
    for g in random_graphs(0x1287, 5) {
        let sp = ShortestPathPattern::new(&g);
        let dense = shortest_or_largest(&g);
        for pattern in [&sp as &dyn CompilePattern, &dense] {
            for r in 1..=3 {
                let verdict = check(&g, pattern, Property::bounded(r), &RunBudget::unlimited())
                    .expect("benign patterns");
                let expected = format!("{verdict:?}");
                for workers in [1, 2, 8] {
                    let found = sweep_verdict_on_workers(&g, pattern, r, workers);
                    assert_eq!(
                        format!("{found:?}"),
                        expected,
                        "{}, r = {r}, {workers} workers, graph {g:?}",
                        pattern.name()
                    );
                }
                refuted += usize::from(verdict.is_refuted());
            }
        }
    }
    assert!(refuted > 0, "some verdicts must carry a counterexample");
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
            failing += assert_first_undelivered_matches(&g, &Forwarder::new(&g, &cp), 2).failing;
            let interpreted = NoCompile(pattern);
            let fwd = Forwarder::new(&g, &interpreted);
            assert!(fwd.tables().is_none());
            failing += assert_first_undelivered_matches(&g, &fwd, 2).failing;
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
    let failing = assert_first_undelivered_matches(&g, &smallest_alive, 1).failing;
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
        if let Some((s, t)) = first_undelivered_per_pair(&engine, &fwd, 0..n) {
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
fn random_adversary_finds_the_k4_rotor_touring_counterexample() {
    // Lemma 3: no pattern tours K4 under every failure set, so the sampler
    // must catch the clockwise rotor.  Pinned for a fixed seed; the
    // counterexample must replay as a tour that misses part of its
    // component.
    let g = generators::complete(4);
    let rotor = RotorPattern::clockwise(&g);
    let ce = RandomAdversary::new(200, 3, 0)
        .find_counterexample(&g, &rotor, Property::bounded_touring(3))
        .expect("K4 defeats the rotor");
    let failed = Edge::new(Node(0), Node(2));
    assert_eq!(ce.failures, FailureSet::from_edges([failed]));
    assert_eq!((ce.source, ce.destination), (Node(2), Node(2)));
    assert_eq!(ce.path, [2, 1, 3, 2, 1].map(Node));
    let replay = tour(&g, &ce.failures, &rotor, ce.source, state_space_bound(&g));
    assert!(!replay.covered_component);
    assert_eq!(replay.path, ce.path);
}
