//! Experiment E-F7 — regenerates Figure 7: the per-class percentage of
//! Topology-Zoo instances for each routing model.
//!
//! Usage: `fig7_zoo [--count N] [--threads T] [--metrics]` — `N` limits the
//! number of synthetic topologies (default 250; CI smoke runs use a small
//! `N` to catch classification regressions quickly); `T` pins the
//! classification worker pool (0 = one per core) without changing any result
//! byte; `--metrics` appends the process-wide telemetry table (classify
//! shard timings, cache hit rates, sweep and minor-engine counters).

use frr_bench::{format_percentages, parse_experiment_args, ZooClassification};
use frr_core::classify::ClassifyBudget;
use frr_topologies::{full_zoo, ZooConfig};

fn main() {
    let mut config = ZooConfig::default();
    let args = parse_experiment_args("fig7_zoo", config.count);
    config.count = args.count;
    let zoo = full_zoo(&config);
    println!(
        "classifying {} topologies ({} bundled + {} synthetic)...",
        zoo.len(),
        zoo.len() - config.count,
        config.count
    );
    let zc =
        ZooClassification::classify_all_with_threads(&zoo, ClassifyBudget::default(), args.threads);

    println!();
    println!("=== Figure 7: perfect-resilience classification of the zoo ===");
    print!(
        "{}",
        format_percentages("Touring", &zc.percentages(|c| c.touring))
    );
    print!(
        "{}",
        format_percentages("Destination only", &zc.percentages(|c| c.destination_only))
    );
    print!(
        "{}",
        format_percentages(
            "Source-Destination",
            &zc.percentages(|c| c.source_destination)
        )
    );
    println!();
    println!(
        "mean fraction of perfectly-resilient destinations over 'Sometimes' topologies \
         (destination-only): {:.1}%  (paper: 21.3%)",
        100.0 * zc.mean_sometimes_fraction(|c| c.destination_only)
    );
    let planar_not_outer = zc
        .per_topology
        .values()
        .filter(|c| c.planar && !c.outerplanar)
        .count() as f64
        / zc.per_topology.len() as f64;
    println!(
        "planar but not outerplanar: {:.1}%  (paper: 55.8%)",
        100.0 * planar_not_outer
    );
    let planar_impossible = zc
        .per_topology
        .values()
        .filter(|c| c.planar && c.destination_only.label() == "Impossible")
        .count() as f64
        / zc.per_topology.len() as f64;
    println!(
        "planar AND destination-only impossible (newly classifiable via K5^-1/K3,3^-1): {:.1}% \
         (paper: 31.3%)",
        100.0 * planar_impossible
    );
    if args.metrics {
        println!();
        println!("=== telemetry (process-wide registry) ===");
        print!("{}", frr_obs::global().snapshot().to_table());
    }
}
