//! Micro-benchmark: exhaustive perfect-resilience verification of the paper's
//! constructive patterns (experiments E-ALG / E-F9 positive cells).

use criterion::{criterion_group, criterion_main, Criterion};
use frr_bench::proven;
use frr_core::algorithms::{
    K33SourcePattern, K5Minus2DestPattern, K5SourcePattern, OuterplanarTouringPattern,
};
use frr_graph::generators;
use frr_routing::resilience::Property;
use std::hint::black_box;
use std::time::Duration;

fn bench_patterns(c: &mut Criterion) {
    let mut group = c.benchmark_group("patterns");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));

    let k5 = generators::complete(5);
    let alg1 = K5SourcePattern::new(&k5);
    group.bench_function("verify/algorithm1-on-K5", |b| {
        b.iter(|| black_box(proven(&k5, &alg1, Property::PERFECT)))
    });

    let k33 = generators::complete_bipartite(3, 3);
    let thm9 = K33SourcePattern::new(&k33);
    group.bench_function("verify/theorem9-on-K33", |b| {
        b.iter(|| black_box(proven(&k33, &thm9, Property::PERFECT)))
    });

    let k5m2 = generators::complete_minus(5, 2);
    let thm12 = K5Minus2DestPattern::new(&k5m2);
    group.bench_function("verify/theorem12-on-K5m2", |b| {
        b.iter(|| black_box(proven(&k5m2, &thm12, Property::PERFECT)))
    });

    let mop = generators::maximal_outerplanar(6);
    let touring = OuterplanarTouringPattern::new(&mop).expect("outerplanar");
    group.bench_function("verify/cor6-touring-mop6", |b| {
        b.iter(|| black_box(proven(&mop, &touring, Property::PERFECT_TOURING)))
    });
    group.finish();
}

criterion_group!(benches, bench_patterns);
criterion_main!(benches);
