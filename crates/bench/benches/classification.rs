//! Classification-pipeline benchmarks: the packed §VIII stack (bitset
//! planarity/outerplanarity, vertex-deletion overlay probes, the packed
//! [`frr_graph::minors::MinorEngine`], and the `classify::batch` driver)
//! against a faithful reimplementation of the historical clone-based
//! pipeline.
//!
//! The `*_baseline` benchmarks preserve the pre-packed implementation shape —
//! the `BTreeMap`-quotient minor search that clones every branch state and
//! apex-graph outerplanarity (both shared with frr-graph's tests, from
//! `crates/graph/tests/support/`), and one `g.isolating(t)` clone per
//! destination probe — so one bench run reports the before/after of the
//! classification rewrite on the same machine.
//! The headline pair is `zoo_sweep/{packed_batch, clone_baseline}`: the same
//! topology list through `classify::batch` and through the historical
//! sequential pipeline.

#[path = "../../graph/tests/support/apex_outerplanar.rs"]
mod apex_outerplanar;
#[path = "../../graph/tests/support/minor_reference.rs"]
mod reference;

use apex_outerplanar::is_outerplanar_via_apex;
use criterion::{criterion_group, criterion_main, Criterion};
use frr_core::classify::{
    self, classify_with_budget, fits_in_k33, Classification, ClassifyBudget, Feasibility,
};
use frr_graph::minors::forbidden;
use frr_graph::planarity::is_planar;
use frr_graph::{generators, Graph, Node};
use frr_topologies::{builtin_topologies, synthetic_zoo, Topology, ZooConfig};
use std::hint::black_box;
use std::time::Duration;

/// The historical "sometimes" sweep: one `g.isolating(t)` clone plus one
/// apex-graph outerplanarity test per probed destination.
fn clone_based_tourable_fraction(g: &Graph, max_probes: usize) -> f64 {
    let n = g.node_count();
    if n == 0 || max_probes == 0 {
        return 0.0;
    }
    let stride = n.div_ceil(max_probes).max(1);
    let probes: Vec<Node> = (0..n).step_by(stride).map(Node).collect();
    let good = probes
        .iter()
        .filter(|&&t| is_outerplanar_via_apex(&g.isolating(t)))
        .count();
    good as f64 / probes.len() as f64
}

/// The historical classification pipeline: apex outerplanarity, clone-based
/// minor searches, clone-per-probe destination sweep.
fn clone_based_classify(g: &Graph, budget: ClassifyBudget) -> Classification {
    let planar = is_planar(g);
    let outerplanar = planar && is_outerplanar_via_apex(g);
    let touring = if outerplanar {
        Feasibility::Possible
    } else {
        Feasibility::Impossible
    };
    let mut sometimes_fraction: Option<f64> = None;
    let mut sometimes = |g: &Graph| -> f64 {
        *sometimes_fraction
            .get_or_insert_with(|| clone_based_tourable_fraction(g, budget.max_destination_probes))
    };
    let destination_only = if outerplanar {
        Feasibility::Possible
    } else if !planar {
        Feasibility::Impossible
    } else {
        let k5m1 =
            reference::has_minor_with_budget(g, &forbidden::k5_minus1(), budget.minor_budget);
        let k33m1 =
            reference::has_minor_with_budget(g, &forbidden::k33_minus1(), budget.minor_budget);
        if k5m1.is_yes() || k33m1.is_yes() {
            Feasibility::Impossible
        } else {
            let frac = sometimes(g);
            if frac > 0.0 {
                Feasibility::Sometimes(frac)
            } else {
                Feasibility::Unknown
            }
        }
    };
    let source_destination = if outerplanar || g.node_count() <= 5 || fits_in_k33(g) {
        Feasibility::Possible
    } else {
        let forbidden_found = if planar {
            false
        } else {
            reference::has_minor_with_budget(g, &forbidden::k7_minus1(), budget.minor_budget)
                .is_yes()
                || reference::has_minor_with_budget(
                    g,
                    &forbidden::k44_minus1(),
                    budget.minor_budget,
                )
                .is_yes()
        };
        if forbidden_found {
            Feasibility::Impossible
        } else {
            let frac = sometimes(g);
            if frac > 0.0 {
                Feasibility::Sometimes(frac)
            } else {
                Feasibility::Unknown
            }
        }
    };
    Classification {
        nodes: g.node_count(),
        edges: g.edge_count(),
        density: g.density(),
        planar,
        outerplanar,
        touring,
        destination_only,
        source_destination,
    }
}

/// The benchmark topology list: every bundled real network plus a slice of
/// the synthetic zoo — the "zoo classification sweep".
fn sweep_topologies() -> Vec<Topology> {
    let mut zoo = builtin_topologies();
    zoo.extend(synthetic_zoo(&ZooConfig {
        count: 40,
        ..ZooConfig::default()
    }));
    zoo
}

fn bench_classification(c: &mut Criterion) {
    let budget = ClassifyBudget::default();

    // Individual topologies through the packed pipeline (as before).
    let mut group = c.benchmark_group("classification");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(1));
    for t in builtin_topologies().into_iter().take(3) {
        group.bench_function(format!("classify/{}", t.name), |b| {
            b.iter(|| black_box(classify_with_budget(&t.graph, budget)))
        });
    }
    let dense = generators::complete(8);
    group.bench_function("classify/K8", |b| {
        b.iter(|| black_box(classify_with_budget(&dense, budget)))
    });
    group.finish();

    // The zoo classification sweep: packed batch driver vs the historical
    // clone-based sequential pipeline, over the same topology list.
    let zoo = sweep_topologies();
    let graphs: Vec<&Graph> = zoo.iter().map(|t| &t.graph).collect();
    let mut group = c.benchmark_group("zoo_sweep");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(5));
    group.bench_function("packed_batch", |b| {
        b.iter(|| black_box(classify::batch(&graphs, budget)))
    });
    group.bench_function("packed_sequential", |b| {
        b.iter(|| {
            black_box(
                graphs
                    .iter()
                    .map(|g| classify_with_budget(g, budget))
                    .collect::<Vec<_>>(),
            )
        })
    });
    group.bench_function("clone_baseline", |b| {
        b.iter(|| {
            black_box(
                graphs
                    .iter()
                    .map(|g| clone_based_classify(g, budget))
                    .collect::<Vec<_>>(),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_classification);
criterion_main!(benches);
