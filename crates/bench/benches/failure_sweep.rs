//! Failure-sweep engine benchmarks: the bitmask-overlay checkers against a
//! faithful reimplementation of the historical clone-per-failure-set sweep.
//!
//! The `*_baseline` benchmarks preserve the pre-bitset implementation shape —
//! materialize a `FailureSet` per enumerated bitmask, clone the surviving
//! graph, BFS it once per source/destination pair, and (for the bounded
//! variants) walk all `2^m` masks filtering by popcount — so one bench run
//! reports the before/after of the sweep rewrite on the same machine.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use frr_bench::proven;
use frr_core::algorithms::{HamiltonianTouringPattern, K5SourcePattern};
use frr_core::impossibility::touring_adversary;
use frr_graph::connectivity::same_component;
use frr_graph::generators;
use frr_routing::failure::{failure_set_from_mask, FailureSet};
use frr_routing::pattern::{ForwardingPattern, RotorPattern};
use frr_routing::resilience::Property;
use frr_routing::simulator::{route, state_space_bound, tour};
use std::time::Duration;

/// The historical perfect-resilience sweep: clone `G \ F` per failure set,
/// BFS per pair.
fn clone_based_perfect_resilience<P: ForwardingPattern + ?Sized>(
    g: &frr_graph::Graph,
    pattern: &P,
) -> bool {
    let max_hops = state_space_bound(g);
    let edges = g.edges();
    for mask in 0..(1u64 << edges.len()) {
        let failures = failure_set_from_mask(&edges, &mask);
        let surviving = failures.surviving_graph(g);
        for s in g.nodes() {
            for t in g.nodes() {
                if s == t || !same_component(&surviving, s, t) {
                    continue;
                }
                if !route(g, &failures, pattern, s, t, max_hops)
                    .outcome
                    .is_delivered()
                {
                    return false;
                }
            }
        }
    }
    true
}

/// The historical bounded touring sweep: walk all `2^m` masks, filter by
/// popcount, clone the surviving graph per kept mask.
fn walk_based_k_resilient_touring<P: ForwardingPattern + ?Sized>(
    g: &frr_graph::Graph,
    pattern: &P,
    k: usize,
) -> bool {
    let max_hops = state_space_bound(g);
    let edges = g.edges();
    for mask in 0..(1u64 << edges.len()) {
        if mask.count_ones() as usize > k {
            continue;
        }
        let failures = failure_set_from_mask(&edges, &mask);
        for start in g.nodes() {
            if !tour(g, &failures, pattern, start, max_hops).covered_component {
                return false;
            }
        }
    }
    true
}

fn bench_k5_perfect_resilience(c: &mut Criterion) {
    let k5 = generators::complete(5);
    let pattern = K5SourcePattern::new(&k5);
    let mut group = c.benchmark_group("failure_sweep");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    group.bench_function("k5_perfect_resilience/engine", |b| {
        b.iter(|| black_box(proven(&k5, &pattern, Property::PERFECT)))
    });
    group.bench_function("k5_perfect_resilience/clone_baseline", |b| {
        b.iter(|| black_box(clone_based_perfect_resilience(&k5, &pattern)))
    });
    group.finish();
}

fn bench_k7_touring(c: &mut Criterion) {
    let k7 = generators::complete(7);
    let thm17 = HamiltonianTouringPattern::for_complete(7);
    let rotor = RotorPattern::clockwise(&k7);
    let mut group = c.benchmark_group("failure_sweep");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    // Full bounded sweep (passes ⇒ no early exit): Theorem 17's pattern
    // tours K7 under any 2 failures.
    group.bench_function("k7_touring_sweep/engine", |b| {
        b.iter(|| black_box(proven(&k7, &thm17, Property::bounded_touring(2))))
    });
    group.bench_function("k7_touring_sweep/walk_baseline", |b| {
        b.iter(|| black_box(walk_based_k_resilient_touring(&k7, &thm17, 2)))
    });
    // The touring adversary as the experiments use it (finds a rotor
    // counterexample; measures time-to-first-counterexample).
    group.bench_function("k7_touring_adversary/engine", |b| {
        b.iter(|| black_box(touring_adversary(&k7, &rotor).is_some()))
    });
    group.finish();
}

fn bench_mask_enumeration(c: &mut Criterion) {
    let mut group = c.benchmark_group("failure_sweep");
    group.sample_size(30);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    // Direct ≤ k enumeration over a width no 2^m walk could ever cover.
    group.bench_function("bounded_masks/m40_k3_direct", |b| {
        b.iter(|| {
            black_box(frr_routing::failure::FailureMasks::with_max_failures(40, Some(3)).count())
        })
    });
    // Materialization cost kept out of the hot loops: build the failure set
    // only for a single (counterexample) mask.
    let g = generators::complete(7);
    let edges = g.edges();
    group.bench_function("bounded_masks/materialize_one", |b| {
        b.iter(|| black_box::<FailureSet>(failure_set_from_mask(&edges, &0b1011u64)))
    });
    // Gray-code enumeration past the 64-link wall: every ≤ 2-failure mask of
    // a 100-link network, emitted with flip lists (5051 masks).
    group.bench_function("bounded_masks/m100_k2_gray", |b| {
        b.iter(|| {
            let mut gray = frr_routing::failure::GrayMasks::with_max_failures(100, Some(2));
            let mut count = 0u64;
            while gray.advance() {
                count += 1;
            }
            black_box(count)
        })
    });
    group.finish();
}

fn bench_beyond_64_links(c: &mut Criterion) {
    // The wall-break case: a 72-link ring (two mask words) under the plain
    // clockwise rotor, which tours rings perfectly — the bounded touring
    // sweep runs to completion (no early exit), all overlay updates via
    // incremental toggles.
    let ring = generators::cycle(72);
    let rotor = RotorPattern::clockwise(&ring);
    let mut group = c.benchmark_group("failure_sweep");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(5));
    group.bench_function("ring72_touring_sweep_k1/engine", |b| {
        b.iter(|| black_box(proven(&ring, &rotor, Property::bounded_touring(1))))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_k5_perfect_resilience,
    bench_k7_touring,
    bench_mask_enumeration,
    bench_beyond_64_links
);
criterion_main!(benches);
