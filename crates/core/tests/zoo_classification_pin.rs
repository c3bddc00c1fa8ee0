//! Regression pin of the full zoo classification: every topology's complete
//! `Classification` is folded into a stable digest, so any change to the
//! packed minor engine, the planarity/outerplanarity stack or the budget
//! semantics that flips a single cell fails loudly here.  The same run also
//! asserts the `classify::batch` acceptance contract: its output, and that
//! of the batch at 1, 2 and 8 pinned workers, must be identical to the
//! sequential path.  A second pin runs the default budget, the one
//! `fig7_zoo` and the benchmark use, against the benchmark's digest.

use frr_core::classify::{self, classify_with_budget, Classification, ClassifyBudget};
use frr_routing::budget::RunBudget;
use frr_topologies::{full_zoo, ZooConfig};

/// A reduced, pinned budget keeps the sweep fast in debug test runs; the
/// digest below is tied to exactly this budget.
const PIN_BUDGET: ClassifyBudget = ClassifyBudget {
    minor_budget: 4_000,
    max_destination_probes: 60,
};

fn render(name: &str, c: &Classification) -> String {
    format!(
        "{name}|n={}|m={}|planar={}|outer={}|tour={}|dest={}|srcdest={}",
        c.nodes,
        c.edges,
        c.planar,
        c.outerplanar,
        c.touring,
        c.destination_only,
        c.source_destination
    )
}

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3)
    })
}

/// FNV-1a over the lines, each terminated by `\n`.
fn fnv(lines: &[String]) -> u64 {
    fnv1a(lines.iter().flat_map(|l| l.bytes().chain([b'\n'])))
}

#[test]
fn zoo_classification_is_pinned_and_batch_matches_sequential() {
    let zoo = full_zoo(&ZooConfig::default());
    let graphs: Vec<&frr_graph::Graph> = zoo.iter().map(|t| &t.graph).collect();

    let batched = classify::batch(&graphs, PIN_BUDGET);
    let sequential: Vec<Classification> = graphs
        .iter()
        .map(|g| classify_with_budget(g, PIN_BUDGET))
        .collect();
    assert_eq!(
        batched, sequential,
        "classify::batch must be identical to the sequential path"
    );
    // Pinned worker counts, the one-worker run on the calling thread
    // included, must match too.
    for workers in [1, 2, 8] {
        let slots = classify::batch_with_budget_and_workers(
            &graphs,
            PIN_BUDGET,
            &RunBudget::unlimited(),
            workers,
        )
        .expect("no classification panics");
        let pinned: Vec<Classification> = slots
            .into_iter()
            .map(|c| c.expect("an unlimited batch classifies every graph"))
            .collect();
        assert_eq!(pinned, sequential, "workers = {workers}");
    }

    let lines: Vec<String> = zoo
        .iter()
        .zip(&batched)
        .map(|(t, c)| render(&t.name, c))
        .collect();

    // Class counts per model (coarse pin, readable when it breaks).
    let count = |f: fn(&Classification) -> &'static str, class: &str| {
        batched.iter().filter(|c| f(c) == class).count()
    };
    let tour = |c: &Classification| c.touring.label();
    let dest = |c: &Classification| c.destination_only.label();
    let srcdest = |c: &Classification| c.source_destination.label();

    assert_eq!(batched.len(), 260);
    assert_eq!(count(tour, "Possible"), 122);
    assert_eq!(count(tour, "Impossible"), 138);
    assert_eq!(count(dest, "Possible"), 122);
    assert_eq!(count(dest, "Sometimes"), 41);
    assert_eq!(count(dest, "Unknown"), 19);
    assert_eq!(count(dest, "Impossible"), 78);
    assert_eq!(count(srcdest, "Possible"), 122);
    assert_eq!(count(srcdest, "Sometimes"), 55);
    assert_eq!(count(srcdest, "Unknown"), 67);
    assert_eq!(count(srcdest, "Impossible"), 16);

    // Exact pin: the digest of every topology's full classification line.
    let digest = fnv(&lines);
    assert_eq!(
        digest,
        0x0531251E3C8DA4A03,
        "zoo classification digest changed; first lines:\n{}",
        lines[..8].join("\n")
    );
}

/// The default budget, as `fig7_zoo` and the benchmark run it.  The digest
/// is the benchmark's: FNV-1a over the sorted `{c:?}` lines, so it does not
/// depend on the zoo's order.
#[test]
fn default_budget_zoo_classification_is_pinned() {
    let zoo = full_zoo(&ZooConfig::default());
    let graphs: Vec<&frr_graph::Graph> = zoo.iter().map(|t| &t.graph).collect();
    let batched = classify::batch(&graphs, ClassifyBudget::default());
    let mut lines: Vec<String> = batched.iter().map(|c| format!("{c:?}\n")).collect();
    lines.sort();
    assert_eq!(
        fnv1a(lines.concat().into_bytes()),
        0xa93e_a461_7e9c_b595,
        "default-budget zoo classification digest changed"
    );
}
