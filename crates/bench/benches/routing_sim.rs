//! Micro-benchmark: the simulator hot path on compiled rule tables versus the
//! inline trait-object interpreter, on the exhaustive K7 failure sweeps the
//! verification oracles actually run (plus the historical single-route
//! throughput probes on larger topologies).
//!
//! Two flavors drive the same mask enumeration on the same engine:
//!
//! * `compiled` — [`SweepEngine::route_outcome_compiled`]: dense rule tables,
//!   a state-id lookup plus a first-alive scan per hop,
//! * `trait_object` — the historical baseline, inlined: the plain
//!   [`route`] interpreter over a [`FailureSet`] materialized per mask, which
//!   is what every verification oracle ran before the sweep engine existed
//!   and what `simulator::route` still runs for one-off replays.
//!
//! The differential suites assert all paths byte-identical; the summed
//! outcome tallies below recheck it before sampling starts.

use criterion::{criterion_group, criterion_main, Criterion};
use frr_core::algorithms::{ArborescenceFailoverPattern, HamiltonianTouringPattern};
use frr_graph::{generators, Graph, Node};
use frr_routing::compiled::CompilePattern;
use frr_routing::failure::{FailureSet, GrayMasks};
use frr_routing::pattern::{ForwardingPattern, RotorPattern, ShortestPathPattern};
use frr_routing::simulator::{route, state_space_bound, tour};
use frr_routing::sweep::SweepEngine;
use std::hint::black_box;
use std::time::Duration;

/// Which simulator the sweep drives.
#[derive(Clone, Copy, PartialEq)]
enum Flavor {
    Compiled,
    TraitObject,
}

const FLAVORS: [(Flavor, &str); 2] = [
    (Flavor::Compiled, "compiled"),
    (Flavor::TraitObject, "trait_object"),
];

/// Exhaustive bounded-failure resilience sweep (every ≤ `max_failures` mask,
/// every ordered still-connected pair) on one engine; returns the delivered
/// count so the flavors can be asserted identical.
fn sweep_routing<P: ForwardingPattern + ?Sized>(
    engine: &mut SweepEngine<'_>,
    g: &Graph,
    pattern: &P,
    compiled: &frr_routing::compiled::CompiledPattern,
    flavor: Flavor,
    max_failures: usize,
) -> u64 {
    let max_hops = state_space_bound(g);
    let mut delivered = 0u64;
    let mut gray = GrayMasks::with_max_failures(g.edge_count(), Some(max_failures));
    while gray.advance() {
        let mask = gray.current();
        engine.load_mask(mask);
        let failures = (flavor == Flavor::TraitObject).then(|| engine.current_failure_set());
        for s in g.nodes() {
            for t in g.nodes() {
                if s == t || !engine.same_component(s, t) {
                    continue;
                }
                let outcome = match flavor {
                    Flavor::Compiled => engine.route_outcome_compiled(compiled, s, t, max_hops),
                    Flavor::TraitObject => {
                        route(g, failures.as_ref().unwrap(), pattern, s, t, max_hops).outcome
                    }
                };
                delivered += outcome.is_delivered() as u64;
            }
        }
    }
    delivered
}

/// Exhaustive bounded-failure touring sweep (every mask, every start node).
fn sweep_touring<P: ForwardingPattern + ?Sized>(
    engine: &mut SweepEngine<'_>,
    g: &Graph,
    pattern: &P,
    compiled: &frr_routing::compiled::CompiledPattern,
    flavor: Flavor,
    max_failures: usize,
) -> u64 {
    let max_hops = state_space_bound(g);
    let mut covered = 0u64;
    let mut gray = GrayMasks::with_max_failures(g.edge_count(), Some(max_failures));
    while gray.advance() {
        let mask = gray.current();
        engine.load_mask(mask);
        let failures = (flavor == Flavor::TraitObject).then(|| engine.current_failure_set());
        for start in g.nodes() {
            let ok = match flavor {
                Flavor::Compiled => engine.tour_covers_compiled(compiled, start, max_hops),
                Flavor::TraitObject => {
                    tour(g, failures.as_ref().unwrap(), pattern, start, max_hops).covered_component
                }
            };
            covered += ok as u64;
        }
    }
    covered
}

fn bench_k7_sweeps(c: &mut Criterion) {
    let mut group = c.benchmark_group("routing_sim");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));

    let k7 = generators::complete(7);

    // Destination-only routing sweep: the Chiesa-style arborescence baseline
    // (BTreeMap lookups + per-arborescence scans when interpreted) and the
    // rotor sweep, each ≤ 5 failures — 27 896 masks × 42 pairs, with enough
    // broken adjacent-destination links that real multi-hop reroutes dominate
    // (the ≤ 2/3-failure sweeps are all one-hop deliveries that measure only
    // the shared mask-loading overhead).
    let patterns: Vec<(&str, Box<dyn CompilePattern>)> = vec![
        (
            "arborescence",
            Box::new(ArborescenceFailoverPattern::for_complete(7)),
        ),
        (
            "rotor_shortcut",
            Box::new(RotorPattern::clockwise_with_shortcut(&k7)),
        ),
    ];
    for (label, pattern) in &patterns {
        let compiled = pattern.compile(&k7).expect("K7 compiles");
        let mut engine = SweepEngine::new(&k7);
        let expect = sweep_routing(&mut engine, &k7, pattern, &compiled, Flavor::TraitObject, 5);
        for (flavor, _) in FLAVORS {
            assert_eq!(
                sweep_routing(&mut engine, &k7, pattern, &compiled, flavor, 5),
                expect,
                "all sweep flavors must agree"
            );
        }
        for (flavor, flavor_label) in FLAVORS {
            group.bench_function(format!("k7_sweep5/{flavor_label}/{label}"), |b| {
                b.iter(|| {
                    black_box(sweep_routing(
                        &mut engine,
                        &k7,
                        pattern,
                        &compiled,
                        flavor,
                        5,
                    ))
                })
            });
        }
    }

    // Touring sweep: Theorem 17's Hamiltonian-cycle switcher, ≤ 3 failures.
    let touring = HamiltonianTouringPattern::for_complete(7);
    let compiled = touring.compile(&k7).expect("K7 compiles");
    let mut engine = SweepEngine::new(&k7);
    let expect = sweep_touring(
        &mut engine,
        &k7,
        &touring,
        &compiled,
        Flavor::TraitObject,
        3,
    );
    for (flavor, _) in FLAVORS {
        assert_eq!(
            sweep_touring(&mut engine, &k7, &touring, &compiled, flavor, 3),
            expect
        );
    }
    for (flavor, flavor_label) in FLAVORS {
        group.bench_function(format!("k7_tour3/{flavor_label}/hamiltonian"), |b| {
            b.iter(|| {
                black_box(sweep_touring(
                    &mut engine,
                    &k7,
                    &touring,
                    &compiled,
                    flavor,
                    3,
                ))
            })
        });
    }
    group.finish();
}

fn bench_single_routes(c: &mut Criterion) {
    let mut group = c.benchmark_group("routing_sim");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(1));

    for (name, g) in [
        ("cycle64", generators::cycle(64)),
        ("grid8x8", generators::grid(8, 8)),
        ("k16", generators::complete(16)),
    ] {
        let pattern = ShortestPathPattern::new(&g);
        let failures = FailureSet::from_edges(g.edges().into_iter().take(3));
        let t = Node(g.node_count() - 1);
        group.bench_function(format!("route/{name}"), |b| {
            b.iter(|| black_box(route(&g, &failures, &pattern, Node(0), t, 100_000)))
        });
        if let Some(cp) = pattern.compile(&g) {
            let mut sim = frr_routing::compiled::CompiledSim::new(&cp);
            sim.load_failures(&cp, &failures);
            assert_eq!(
                sim.route(&cp, Node(0), t, 100_000),
                route(&g, &failures, &pattern, Node(0), t, 100_000)
            );
            group.bench_function(format!("route_compiled/{name}"), |b| {
                b.iter(|| black_box(sim.route(&cp, Node(0), t, 100_000)))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_k7_sweeps, bench_single_routes);
criterion_main!(benches);
