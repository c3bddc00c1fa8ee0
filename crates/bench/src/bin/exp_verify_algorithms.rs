//! Experiment E-ALG — machine-checks every positive result of the paper by
//! exhaustive enumeration of failure sets on the named graphs (the same checks
//! run in the test suite; this binary prints them as a report).

use frr_bench::proven;
use frr_core::algorithms::{
    HamiltonianTouringPattern, K33Minus2DestPattern, K33SourcePattern, K5Minus2DestPattern,
    K5SourcePattern, OuterplanarDestinationPattern, OuterplanarTouringPattern,
};
use frr_graph::generators;
use frr_routing::resilience::Property;

fn report(name: &str, ok: bool, detail: &str) {
    println!("  [{}] {name} — {detail}", if ok { "ok" } else { "FAIL" });
}

fn main() {
    println!("=== Positive results, exhaustively verified ===");

    println!("§IV-B source-destination:");
    let k5 = generators::complete(5);
    report(
        "Theorem 8 / Algorithm 1 on K5",
        proven(&k5, &K5SourcePattern::new(&k5), Property::PERFECT),
        "all 2^10 failure sets x 20 (s,t) pairs",
    );
    let k33 = generators::complete_bipartite(3, 3);
    report(
        "Theorem 9 on K3,3",
        proven(&k33, &K33SourcePattern::new(&k33), Property::PERFECT),
        "all 2^9 failure sets x 30 (s,t) pairs",
    );

    println!("§V-B destination-only:");
    let k5m2 = generators::complete_minus(5, 2);
    report(
        "Theorem 12 on K5^-2",
        proven(&k5m2, &K5Minus2DestPattern::new(&k5m2), Property::PERFECT),
        "all 2^8 failure sets",
    );
    let k33m2 = generators::complete_bipartite_minus(3, 3, 2);
    report(
        "Theorem 13 on K3,3^-2",
        proven(
            &k33m2,
            &K33Minus2DestPattern::new(&k33m2),
            Property::PERFECT,
        ),
        "all 2^7 failure sets",
    );
    let wheel = generators::wheel(4);
    report(
        "Corollary 5 on the wheel W4",
        proven(
            &wheel,
            &OuterplanarDestinationPattern::new(&wheel),
            Property::PERFECT,
        ),
        "remainder outerplanar for every destination",
    );

    println!("§VII touring:");
    let mop = generators::maximal_outerplanar(7);
    report(
        "Corollary 6 on a maximal outerplanar graph",
        OuterplanarTouringPattern::new(&mop)
            .map(|p| proven(&mop, &p, Property::PERFECT_TOURING))
            .unwrap_or(false),
        "right-hand rule, all failure sets, all start nodes",
    );
    let k5 = generators::complete(5);
    report(
        "Theorem 17 on K5 (k = 2, one failure)",
        proven(
            &k5,
            &HamiltonianTouringPattern::for_complete(5),
            Property::bounded_touring(1),
        ),
        "Walecki decomposition, all single failures",
    );
    let k44 = generators::complete_bipartite(4, 4);
    report(
        "Theorem 17 on K4,4 (k = 2, one failure)",
        proven(
            &k44,
            &HamiltonianTouringPattern::for_complete_bipartite(4),
            Property::bounded_touring(1),
        ),
        "Laskar-Auerbach decomposition, all single failures",
    );
}
