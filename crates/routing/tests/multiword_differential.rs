//! Differential tests for multi-word failure masks: zero-extended wide
//! masks against one-word loads, the Gray-code enumerator against the
//! definition of the ≤ k failure sets, and incremental toggles against full
//! reloads — including graphs beyond 64 links.

use frr_graph::{generators, Graph};
use frr_routing::budget::{RunBudget, StopCause, Verdict};
use frr_routing::compiled::CompilePattern;
use frr_routing::failure::{GrayFailureSets, GrayMasks};
use frr_routing::pattern::{RotorPattern, ShortestPathPattern};
use frr_routing::resilience::{
    check, check_bounded_r_resilience, EdgeLimitExceeded, Property, BOUNDED_EDGE_LIMIT,
};
use frr_routing::simulator::{state_space_bound, tour};
use frr_routing::sweep::SweepEngine;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Small builtin graphs whose masks still fit one word.
fn single_word_graphs() -> Vec<Graph> {
    let mut rng = StdRng::seed_from_u64(0xF19);
    let mut graphs = vec![
        generators::complete(5),
        generators::petersen(),
        generators::complete_bipartite(3, 4),
        generators::wheel(6),
        generators::grid(4, 4),
        generators::hypercube(4),
    ];
    graphs.extend((0..4).map(|_| generators::random_connected(9, 6, &mut rng)));
    graphs
}

/// Every mask over `m` links with at most `k` failures, sorted: the
/// definition the Gray order must match as a set.  A filter of all `2^m`
/// masks where that is small, otherwise nested loops over up to three
/// failed links.
fn masks_up_to(m: usize, k: usize) -> Vec<Vec<u64>> {
    let mut out: Vec<Vec<u64>> = if m <= 16 {
        (0..1u64 << m)
            .filter(|mask| mask.count_ones() as usize <= k)
            .map(|mask| vec![mask])
            .collect()
    } else {
        assert!(k <= 3, "the nested loops list at most three failures");
        let mask = |bits: &[usize]| {
            let mut words = vec![0u64; m.div_ceil(64)];
            for &b in bits {
                words[b / 64] |= 1 << (b % 64);
            }
            words
        };
        let mut out = vec![mask(&[])];
        for a in 0..m {
            if k >= 1 {
                out.push(mask(&[a]));
            }
            for b in a + 1..m {
                if k >= 2 {
                    out.push(mask(&[a, b]));
                }
                for c in b + 1..m {
                    if k >= 3 {
                        out.push(mask(&[a, b, c]));
                    }
                }
            }
        }
        out
    };
    out.sort_unstable();
    out
}

/// The Gray enumeration capped at `k`, in emission order.
fn gray_masks(m: usize, k: Option<usize>) -> Vec<Vec<u64>> {
    let mut gray = GrayMasks::with_max_failures(m, k);
    let mut out = Vec::new();
    while gray.advance() {
        out.push(gray.current().to_vec());
    }
    out
}

/// Graphs past 64 links (two mask words).
fn multi_word_graphs() -> Vec<Graph> {
    vec![
        generators::hypercube(5), // 80 links
        generators::random_connected(40, 30, &mut StdRng::seed_from_u64(0xBEEF)), // 69 links
    ]
}

#[test]
fn gray_enumeration_equals_ascending_as_sets_at_every_cap() {
    for g in single_word_graphs() {
        let m = g.edge_count();
        // Small caps everywhere; the uncapped walk only where 2^m is small.
        let caps: Vec<Option<usize>> = (0..=3)
            .map(Some)
            .chain((m <= 14).then_some(None))
            .chain((m <= 14).then_some(Some(m)))
            .collect();
        for k in caps {
            let mut gray = gray_masks(m, k);
            assert!(gray.iter().all(|mask| mask.len() == 1), "single word");
            let emitted = gray.len();
            gray.sort_unstable();
            gray.dedup();
            assert_eq!(gray, masks_up_to(m, k.unwrap_or(m)), "m={m}, k={k:?}");
            assert_eq!(gray.len(), emitted, "Gray emits no duplicates");
        }
    }
}

#[test]
fn gray_enumeration_equals_ascending_beyond_64_links() {
    // Same set equivalence on two-word masks.
    let m = 70;
    for k in [0usize, 1, 2] {
        let mut gray = gray_masks(m, Some(k));
        let ascending = masks_up_to(m, k);
        assert_eq!(gray.len(), ascending.len(), "k={k}");
        gray.sort_unstable();
        assert_eq!(gray, ascending, "k={k}");
    }
}

#[test]
fn wide_zero_extended_masks_match_single_word_loads() {
    // A zero-extended wide mask must load exactly like its one-word form.
    let mut rng = StdRng::seed_from_u64(0x51DE);
    for g in single_word_graphs() {
        let m = g.edge_count();
        let cp = ShortestPathPattern::new(&g).compile(&g).unwrap();
        let max_hops = state_space_bound(&g);
        let mut wide = SweepEngine::new(&g);
        let mut narrow = SweepEngine::new(&g);
        for _ in 0..40 {
            let mask = rand::Rng::gen_range(&mut rng, 0..1u64 << m);
            wide.load_mask(&[mask, 0, 0]);
            narrow.load_mask(&[mask]);
            assert_eq!(wide.current_mask(), narrow.current_mask());
            assert_eq!(wide.current_failure_set(), narrow.current_failure_set());
            for s in g.nodes() {
                assert_eq!(wide.component_size(s), narrow.component_size(s));
                for t in g.nodes() {
                    assert_eq!(wide.same_component(s, t), narrow.same_component(s, t));
                    assert_eq!(
                        wide.route_outcome_compiled(&cp, s, t, max_hops),
                        narrow.route_outcome_compiled(&cp, s, t, max_hops)
                    );
                }
            }
        }
    }
}

#[test]
fn incremental_toggle_equals_full_reload_beyond_64_links() {
    // Drive the capped Gray sequence on >64-link topologies by toggles and
    // compare the full observable engine state against fresh reloads.
    for g in multi_word_graphs() {
        let m = g.edge_count();
        assert!(m > 64, "test graphs need two mask words");
        let mut inc = SweepEngine::new(&g);
        let mut reference = SweepEngine::new(&g);
        assert!(inc.current_mask().len() >= 2);
        let mut gray = GrayMasks::with_max_failures(m, Some(2));
        let mut first = true;
        let mut checked = 0usize;
        while gray.advance() {
            if first {
                inc.load_mask(gray.current());
                first = false;
            } else {
                assert!(!gray.last_flips().is_empty());
                assert!(gray.last_flips().len() <= 2, "Gray steps flip at most 2");
                for &f in gray.last_flips() {
                    inc.toggle_edge(f as usize);
                }
            }
            reference.load_mask(gray.current());
            assert_eq!(inc.current_mask(), reference.current_mask());
            for e in g.edges() {
                assert_eq!(
                    inc.link_failed(e.u(), e.v()),
                    reference.link_failed(e.u(), e.v())
                );
            }
            for s in g.nodes() {
                assert_eq!(inc.component_size(s), reference.component_size(s));
            }
            // Pairwise connectivity on a sample of masks (quadratic in n).
            if checked.is_multiple_of(17) {
                for s in g.nodes() {
                    for t in g.nodes() {
                        assert_eq!(inc.same_component(s, t), reference.same_component(s, t));
                    }
                }
                assert_eq!(inc.current_failure_set(), reference.current_failure_set());
            }
            checked += 1;
        }
        assert!(checked > u64::BITS as usize, "swept past the wall");
    }
}

#[test]
fn bounded_touring_sweep_beyond_64_links_matches_simulator_reference() {
    // End-to-end: the bounded touring checker on an 80-link graph against a
    // clone-based simulator walk of the same canonical Gray order.
    let g = generators::hypercube(5);
    assert!(g.edge_count() > 64 && g.edge_count() <= BOUNDED_EDGE_LIMIT);
    let p = RotorPattern::clockwise(&g);
    let max_hops = state_space_bound(&g);
    let reference = GrayFailureSets::with_max_failures(&g, Some(1)).find_map(|failures| {
        g.nodes()
            .find(|&start| !tour(&g, &failures, &p, start, max_hops).covered_component)
            .map(|start| (failures, start))
    });
    let one_failure = Property::bounded_touring(1);
    match (
        check(&g, &p, one_failure, &RunBudget::unlimited()).unwrap(),
        reference,
    ) {
        (Verdict::Proven, None) => {}
        (Verdict::Refuted(ce), Some((failures, start))) => {
            assert_eq!(ce.failures, failures);
            assert_eq!(ce.source, start);
        }
        (checked, reference) => panic!(
            "checker and reference disagree: {checked:?} vs reference-found={}",
            reference.is_some()
        ),
    }
}

#[test]
fn bounded_checkers_reject_oversized_graphs_gracefully() {
    // complete(17) has 136 links — past BOUNDED_EDGE_LIMIT, and 2^136
    // failure masks for perfect touring, past the sweep bound.  The Result
    // API reports the link limit instead of panicking; `check` never sweeps
    // and names the mask limit as the stop cause.
    let g = generators::complete(17);
    assert!(g.edge_count() > BOUNDED_EDGE_LIMIT);
    assert!(!Property::PERFECT_TOURING.fits_sweep(&g));
    let p = ShortestPathPattern::new(&g);
    let expected = EdgeLimitExceeded {
        links: g.edge_count(),
        limit: BOUNDED_EDGE_LIMIT,
    };
    assert_eq!(check_bounded_r_resilience(&g, &p, 1).unwrap_err(), expected);
    assert!(expected.to_string().contains("136"));
    let rotor = RotorPattern::clockwise(&g);
    let touring = Property::PERFECT_TOURING;
    match check(&g, &rotor, touring, &RunBudget::unlimited()).unwrap() {
        Verdict::Indeterminate(p) => assert_eq!(p.stopped_by, StopCause::MaskLimit),
        Verdict::Refuted(_) => {}
        Verdict::Proven => panic!("an oversize graph is never swept"),
    }
}
