//! `routing_adversary` against the exhaustive checker on every Figure 9 graph
//! small enough for its exhaustive fallback (≤ 16 links): it finds a
//! counterexample exactly when `check` refutes, and every counterexample it
//! returns is genuine and within its failure cap.  It proves exactly when
//! `check` proves, and never past its exhaustive stage.

use frr_bench::pattern_portfolio;
use frr_core::impossibility::routing_adversary;
use frr_core::landscape::figure9_entries;
use frr_routing::adversary::verify_counterexample;
use frr_routing::budget::{RunBudget, Verdict};
use frr_routing::resilience::{check, Property};

#[test]
fn routing_adversary_agrees_with_check_on_small_figure9_graphs() {
    let unlimited = RunBudget::unlimited();
    let mut graphs = 0;
    for entry in figure9_entries() {
        let g = &entry.graph;
        if g.edge_count() > 16 {
            continue;
        }
        graphs += 1;
        for p in pattern_portfolio(g) {
            let p = p.as_ref();
            let perfect = check(g, p, Property::PERFECT, &unlimited).expect("no probe panics");
            for m in [1, 2, g.edge_count()] {
                let verdict = routing_adversary(g, p, m);
                let bounded = check(g, p, Property::bounded(m), &unlimited).expect("no panics");
                let at = format!("{} / {} / m = {m}", entry.name, p.name());
                assert_eq!(verdict.is_refuted(), bounded.is_refuted(), "{at}");
                assert_eq!(verdict.is_proven(), bounded.is_proven(), "{at}");
                if m == g.edge_count() {
                    assert_eq!(verdict.is_refuted(), perfect.is_refuted(), "{at}");
                }
                if let Some(ce) = verdict.counterexample() {
                    assert!(verify_counterexample(g, p, ce), "{at}: {ce}");
                    assert!(ce.failures.len() <= m, "{at}: {ce}");
                }
            }
        }
    }
    assert_eq!(graphs, 13, "Figure 9 graphs with at most 16 links");
}

#[test]
fn routing_adversary_never_proves_past_its_exhaustive_stage() {
    // K7 (21 links) is past the exhaustive stage: a fruitless search is
    // Indeterminate with its trial count, never Proven.
    let g = figure9_entries()
        .into_iter()
        .map(|entry| entry.graph)
        .find(|g| g.edge_count() > 16)
        .expect("Figure 9 has graphs past 16 links");
    for p in pattern_portfolio(&g) {
        match routing_adversary(&g, p.as_ref(), 1) {
            Verdict::Refuted(ce) => assert!(verify_counterexample(&g, p.as_ref(), &ce)),
            Verdict::Indeterminate(progress) => assert_eq!(progress.sampled_trials, 4_000),
            Verdict::Proven => panic!("{}: sampling cannot prove", p.name()),
        }
    }
}
