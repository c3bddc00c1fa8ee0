//! Chaos suite: drives the verification stack with deliberately misbehaving
//! forwarding patterns and hostile run conditions, and pins the control
//! layer's fail-safe contract — every checker and adversary terminates with
//! a typed error or an honest `Indeterminate`, never a hang, a wrong
//! `Proven`, or a process abort.
//!
//! Wall-clock safety: every scenario here either runs on a tiny graph, or
//! carries its own deadline; CI additionally wraps the suite in a 60 s
//! per-test timeout.

use frr_graph::{generators, Node};
use frr_routing::adversary::RandomAdversary;
use frr_routing::budget::{CancelToken, RunBudget, StopCause, Verdict};
use frr_routing::compiled::CompilePattern;
use frr_routing::failure::FailureSet;
use frr_routing::hostile::{
    FailedLinkForwarder, NoCompile, NonNeighborForwarder, NondeterministicPattern, PanicOnCompile,
    PanicPattern,
};
use frr_routing::metrics::{evaluate_random_workload, evaluate_scenarios};
use frr_routing::model::RoutingModel;
use frr_routing::pattern::{FnPattern, ForwardingPattern, RotorPattern};
use frr_routing::resilience::{
    check, check_bounded_r_resilience, check_bounded_r_resilience_with_budget, Property,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Forwarding faults terminate with honest refutations, never a wrong Proven.
// ---------------------------------------------------------------------------

#[test]
fn failed_link_forwarder_is_refuted_not_proven() {
    let g = generators::cycle(6);
    let verdict = check(
        &g,
        &FailedLinkForwarder,
        Property::PERFECT,
        &RunBudget::unlimited(),
    )
    .expect("no panic involved");
    // The pattern misroutes into dead links the moment anything fails (and
    // bounces on its first neighbor even without them); the sweep must find
    // a failing scenario, not claim resilience.
    assert!(verdict.is_refuted(), "got {verdict:?}");
    assert!(verdict.counterexample().is_some());
}

#[test]
fn non_neighbor_forwarder_is_refuted_not_proven() {
    let g = generators::cycle(6);
    let verdict = check(
        &g,
        &NonNeighborForwarder,
        Property::PERFECT,
        &RunBudget::unlimited(),
    )
    .expect("no panic involved");
    assert!(verdict.is_refuted(), "got {verdict:?}");
}

#[test]
fn nondeterministic_pattern_terminates_with_a_typed_verdict() {
    // Nondeterminism can evade exact loop detection, but every probe is
    // bounded by the hop limit: the sweep terminates with SOME verdict and
    // never hangs or aborts.
    let g = generators::complete(4);
    let pattern = NondeterministicPattern::new();
    let started = Instant::now();
    let verdict =
        check(&g, &pattern, Property::PERFECT, &RunBudget::unlimited()).expect("no panic involved");
    assert!(
        verdict.is_proven() || verdict.is_refuted(),
        "unlimited run must settle: {verdict:?}"
    );
    assert!(started.elapsed() < Duration::from_secs(30));
}

#[test]
fn touring_checker_survives_hostile_patterns() {
    let g = generators::star(4);
    for (name, verdict) in [
        (
            "failed-link",
            check(
                &g,
                &FailedLinkForwarder,
                Property::PERFECT_TOURING,
                &RunBudget::unlimited(),
            ),
        ),
        (
            "non-neighbor",
            check(
                &g,
                &NonNeighborForwarder,
                Property::PERFECT_TOURING,
                &RunBudget::unlimited(),
            ),
        ),
    ] {
        let verdict = verdict.expect("no panic involved");
        assert!(
            !verdict.is_proven(),
            "{name} must not tour-cover: {verdict:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// Panicking probes surface as typed WorkerPanicked, siblings wind down.
// ---------------------------------------------------------------------------

#[test]
fn panicking_pattern_yields_typed_worker_panicked_with_the_mask() {
    let g = generators::cycle(6);
    let err = check(
        &g,
        &PanicPattern,
        Property::PERFECT,
        &RunBudget::unlimited(),
    )
    .expect_err("the pattern panics on any failure");
    // The empty mask (position 0) routes fine; the panic fires on a later
    // mask, and the error names the offending failure set.
    assert!(err.position > 0, "empty-mask probe must pass: {err}");
    let failures = err.failures.as_ref().expect("mask is reconstructible");
    assert!(!failures.is_empty());
    assert!(
        err.message.contains("hostile pattern panic"),
        "got: {}",
        err.message
    );
    let shown = format!("{err}");
    assert!(shown.contains("position"), "got: {shown}");
    assert!(shown.contains("examining F ="), "got: {shown}");
}

#[test]
fn random_adversary_reports_panics_with_the_reconstructed_trial() {
    let g = generators::cycle(8);
    let adversary = RandomAdversary::new(4096, 3, 0xC0FFEE);
    let err = adversary
        .search_with_budget(
            &g,
            &PanicPattern,
            Property::bounded(3),
            &RunBudget::unlimited(),
        )
        .expect_err("some trial draws a non-empty failure set");
    let failures = err.failures.as_ref().expect("trial is replayable");
    assert!(!failures.is_empty());
}

#[test]
fn fallback_sampler_panic_reports_the_trial_failure_set() {
    // cycle(200) at r = 3 is past the sweep bound, so `check` goes straight
    // to its sampler; the panicking trial is named with its failure set.
    let g = generators::cycle(200);
    assert!(!Property::bounded(3).fits_sweep(&g));
    let err = check(
        &g,
        &PanicPattern,
        Property::bounded(3),
        &RunBudget::unlimited(),
    )
    .expect_err("some sampled trial fails a link on the packet's way");
    let failures = err.failures.as_ref().expect("the trial is replayable");
    assert!(!failures.is_empty() && failures.len() <= 3, "{err}");
    assert!(
        err.message.contains("hostile pattern panic"),
        "got: {}",
        err.message
    );
}

#[test]
#[should_panic(expected = "sharded worker panicked at index")]
fn random_adversary_unbudgeted_search_reraises_a_probe_panic() {
    let g = generators::cycle(8);
    RandomAdversary::new(4096, 3, 0xC0FFEE).find_counterexample(
        &g,
        &PanicPattern,
        Property::bounded(3),
    );
}

#[test]
fn random_adversary_never_claims_proven() {
    let g = generators::cycle(5);
    // RotorPattern is perfectly resilient on a cycle, so no trial hits — a
    // randomized search must come back Indeterminate, not Proven.
    let adversary = RandomAdversary::new(64, 2, 7);
    let verdict = adversary
        .search_with_budget(
            &g,
            &RotorPattern::clockwise(&g),
            Property::bounded(2),
            &RunBudget::unlimited(),
        )
        .expect("benign pattern");
    match verdict {
        Verdict::Indeterminate(p) => assert_eq!(p.stopped_by, StopCause::WorkBudget),
        other => panic!("randomized search cannot prove: {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Deadlines and cancellation: prompt, honest Indeterminate with progress.
// ---------------------------------------------------------------------------

#[test]
fn short_deadline_on_a_big_sweep_returns_prompt_indeterminate_with_progress() {
    // 100-link topology: the r = 2 sweep has ~5000 masks plus compile work;
    // a ~10 ms deadline cannot finish it honestly at debug-build speeds, but
    // the poll points must surface the expiry promptly.
    let g = generators::cycle(100);
    let pattern = RotorPattern::clockwise_with_shortcut(&g);
    let budget = RunBudget::unlimited().with_deadline(Duration::from_millis(10));
    let started = Instant::now();
    let verdict = check_bounded_r_resilience_with_budget(&g, &pattern, 2, &budget)
        .expect("no panic involved");
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(20),
        "deadline must cut the sweep promptly, took {elapsed:?}"
    );
    match verdict {
        Verdict::Indeterminate(p) => {
            assert_eq!(p.stopped_by, StopCause::Deadline);
            assert!(
                p.masks_examined > 0 || p.sampled_trials > 0,
                "progress must be non-zero: {p:?}"
            );
        }
        // The graceful degrade runs the reproducible sampler after expiry; on
        // a fast machine it may genuinely refute the pattern instead.
        Verdict::Refuted(_) => {}
        Verdict::Proven => panic!("a clipped sweep can never prove"),
    }
}

#[test]
fn pre_cancelled_token_returns_indeterminate_without_sampling() {
    let g = generators::cycle(100);
    let pattern = RotorPattern::clockwise_with_shortcut(&g);
    let token = CancelToken::new();
    token.cancel();
    let budget = RunBudget::unlimited().with_cancel_token(token);
    let verdict = check_bounded_r_resilience_with_budget(&g, &pattern, 2, &budget)
        .expect("no panic involved");
    match verdict {
        Verdict::Indeterminate(p) => {
            assert_eq!(p.stopped_by, StopCause::Cancelled);
            // A cancelled caller wants the run gone: no sampling fallback.
            assert_eq!(p.sampled_trials, 0);
        }
        other => panic!("cancellation must be honest: {other:?}"),
    }
}

#[test]
fn oversize_graph_degrades_to_sampling_instead_of_erroring() {
    // cycle(200) at r = 3 has 1,333,501 failure masks, past the sweep bound:
    // the budgeted API samples and reports MaskLimit as the stop cause
    // instead of panicking or erroring.
    let g = generators::cycle(200);
    assert_eq!(Property::bounded(3).mask_count(&g), 1_333_501);
    assert!(!Property::bounded(3).fits_sweep(&g));
    let pattern = RotorPattern::clockwise_with_shortcut(&g);
    let verdict = check_bounded_r_resilience_with_budget(&g, &pattern, 3, &RunBudget::unlimited())
        .expect("no panic involved");
    match verdict {
        Verdict::Indeterminate(p) => {
            assert_eq!(p.stopped_by, StopCause::MaskLimit);
            assert!(p.sampled_trials > 0, "sampler must have run: {p:?}");
        }
        Verdict::Refuted(_) => {}
        Verdict::Proven => panic!("sampling can never prove"),
    }
}

#[test]
fn r_tolerance_with_budget_survives_a_panicking_pattern() {
    // K5 keeps the r = 1 connectivity promise under single failures, so the
    // probe actually routes (a cycle would fail the promise check first and
    // never wake the pattern).
    let g = generators::complete(5);
    let property = Property::Tolerance {
        source: Node(0),
        destination: Node(3),
        r: 1,
    };
    let err = check(&g, &PanicPattern, property, &RunBudget::unlimited())
        .expect_err("the pattern panics once a failure is incident to the route");
    assert!(
        err.message.contains("hostile pattern panic"),
        "got: {}",
        err.message
    );
}

#[test]
fn panicking_compile_keeps_the_interpreter_in_every_entry_point() {
    // `PanicOnCompile` panics in `compile` and forwards to its first alive
    // neighbor when interpreted.  Every entry point must answer exactly as
    // for the same pattern with compilation refused.
    let g = generators::cycle(6);
    let refused = NoCompile(PanicOnCompile);
    let unlimited = RunBudget::unlimited();
    let found = check(&g, &PanicOnCompile, Property::bounded(2), &unlimited)
        .expect("the interpreter does not panic");
    assert!(found.is_refuted(), "first-alive forwarding loops on a ring");
    assert_eq!(
        found,
        check(&g, &refused, Property::bounded(2), &unlimited).expect("no panic")
    );
    let random = RandomAdversary::new(256, 2, 5);
    assert_eq!(
        random.find_counterexample(&g, &PanicOnCompile, Property::bounded(2)),
        random.find_counterexample(&g, &refused, Property::bounded(2))
    );
    let scenarios = [
        (FailureSet::new(), Node(0), Node(3)),
        (FailureSet::from_pairs(&[(0, 1)]), Node(0), Node(2)),
        (FailureSet::from_pairs(&[(2, 3)]), Node(4), Node(1)),
    ];
    assert_eq!(
        evaluate_scenarios(&g, &PanicOnCompile, scenarios.clone()),
        evaluate_scenarios(&g, &refused, scenarios)
    );
    let workload = |pattern: &dyn CompilePattern| {
        evaluate_random_workload(&g, pattern, 200, 2, &mut StdRng::seed_from_u64(9))
    };
    assert_eq!(workload(&PanicOnCompile), workload(&refused));
}

// ---------------------------------------------------------------------------
// Differential pins: the benchmark's two wrappers agree byte for byte.
// ---------------------------------------------------------------------------

#[test]
fn unlimited_budget_matches_legacy_results_at_multiple_thread_counts() {
    // Small graph (sequential sweep path) and a bounded sweep large enough
    // to engage the parallel sharded path: the `Result`-shaped wrapper and
    // the budgeted one under no limits must agree byte for byte.
    for (g, r) in [
        (generators::cycle(6), 2usize),
        (generators::cycle(40), 2),
        (generators::complete(7), 2),
    ] {
        let pattern = RotorPattern::clockwise_with_shortcut(&g);
        let legacy =
            check_bounded_r_resilience(&g, &pattern, r).expect("within the bounded edge limit");
        let verdict =
            check_bounded_r_resilience_with_budget(&g, &pattern, r, &RunBudget::unlimited())
                .expect("no panic involved");
        match (&legacy, &verdict) {
            (Ok(()), Verdict::Proven) => {}
            (Err(expected), Verdict::Refuted(found)) => {
                assert_eq!(
                    expected.failures,
                    found.failures,
                    "on {} nodes",
                    g.node_count()
                );
                assert_eq!(expected.source, found.source);
                assert_eq!(expected.destination, found.destination);
                assert_eq!(expected.outcome, found.outcome);
                assert_eq!(expected.path, found.path);
            }
            other => panic!(
                "legacy/budgeted divergence on {} nodes: {other:?}",
                g.node_count()
            ),
        }
    }
}

#[test]
fn compile_refusal_falls_back_to_the_interpreted_path_with_identical_results() {
    let g = generators::cycle(6);
    let compiled_run = check(
        &g,
        &RotorPattern::clockwise(&g),
        Property::PERFECT,
        &RunBudget::unlimited(),
    )
    .expect("benign pattern");
    let interpreted_run = check(
        &g,
        &NoCompile(RotorPattern::clockwise(&g)),
        Property::PERFECT,
        &RunBudget::unlimited(),
    )
    .expect("benign pattern");
    match (compiled_run, interpreted_run) {
        (Verdict::Proven, Verdict::Proven) => {}
        (Verdict::Refuted(a), Verdict::Refuted(b)) => {
            assert_eq!(a.failures, b.failures);
            assert_eq!(a.source, b.source);
            assert_eq!(a.destination, b.destination);
        }
        other => panic!("compiled/interpreted divergence: {other:?}"),
    }
}

#[test]
fn work_budget_clips_the_sweep_honestly() {
    let g = generators::cycle(30);
    let pattern = RotorPattern::clockwise_with_shortcut(&g);
    let budget = RunBudget::unlimited().with_work_budget(5);
    let verdict = check_bounded_r_resilience_with_budget(&g, &pattern, 2, &budget)
        .expect("no panic involved");
    match verdict {
        Verdict::Indeterminate(p) => {
            assert_eq!(p.stopped_by, StopCause::WorkBudget);
            assert!(p.masks_examined <= 5 + 1, "clipped at the budget: {p:?}");
        }
        Verdict::Refuted(_) => {}
        Verdict::Proven => panic!("5 masks cannot prove a ~450-mask sweep"),
    }
}

#[test]
fn pinned_destination_stays_pinned_under_a_clipped_budget() {
    // The pattern fails only for packets to v3.  A pinned check towards v0
    // that the work budget clips must degrade to a sampler that also stays
    // pinned: it comes back Indeterminate, never with a v3 counterexample.
    let g = generators::cycle(30);
    let rotor = RotorPattern::clockwise_with_shortcut(&g);
    let pattern = FnPattern::new(RoutingModel::DestinationOnly, "drop-to-v3", |ctx| {
        (ctx.destination != Node(3))
            .then(|| rotor.next_hop(ctx))
            .flatten()
    });
    let budget = RunBudget::unlimited().with_work_budget(5);
    let pinned = Property::Routing {
        max_failures: Some(2),
        destination: Some(Node(0)),
    };
    match check(&g, &pattern, pinned, &budget).expect("no panic involved") {
        Verdict::Indeterminate(p) => {
            assert_eq!(p.stopped_by, StopCause::WorkBudget);
            assert!(p.sampled_trials > 0, "the sampler must have run: {p:?}");
        }
        other => panic!("a pinned check must not leave its destination: {other:?}"),
    }
    // Unpinned, the same budget does find the failing destination.
    let unpinned = Property::bounded(2);
    let verdict = check(&g, &pattern, unpinned, &budget).expect("no panic involved");
    assert_eq!(
        verdict.counterexample().map(|ce| ce.destination),
        Some(Node(3))
    );
}
