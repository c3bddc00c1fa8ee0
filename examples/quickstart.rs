//! Quickstart: configure a perfectly resilient failover pattern on a small
//! full-mesh network, fail some links, and watch packets still arrive.
//!
//! Run with `cargo run --example quickstart`.

use fastreroute::prelude::*;

fn main() {
    // A 5-router full mesh (K5).  With source-destination matching rules this
    // is the largest complete graph that supports perfect resilience
    // (Theorem 8); Algorithm 1 realizes it.
    let network = generators::complete(5);
    let pattern = K5SourcePattern::new(&network);

    println!("network: {}", network.summary());
    println!("pattern: {}", pattern.name());

    // Knock out three links around the destination.
    let failures = FailureSet::from_pairs(&[(0, 4), (1, 4), (2, 4)]);
    println!("failed links: {failures}");

    for source in network.nodes().filter(|&v| v != Node(4)) {
        let result = route(&network, &failures, &pattern, source, Node(4), 1_000);
        println!(
            "  {source} -> v4: {:?} after {} hops via {:?}",
            result.outcome, result.hops, result.path
        );
        assert!(result.outcome.is_delivered());
    }

    // The exhaustive checker proves it is not just these scenarios: every
    // failure set and every connected pair is delivered.
    match check(
        &network,
        &pattern,
        Property::PERFECT,
        &RunBudget::unlimited(),
    ) {
        Ok(Verdict::Proven) => println!("exhaustively verified: perfectly resilient on K5"),
        Ok(verdict) => println!("unexpected verdict: {verdict}"),
        Err(panicked) => println!("the pattern panicked: {panicked}"),
    }

    // Contrast: without source matching, K5 is impossible (Theorem 10 domain)
    // — the classification engine knows.
    let classes = classify(&network);
    println!(
        "classification: touring = {}, destination-only = {}, source-destination = {}",
        classes.touring, classes.destination_only, classes.source_destination
    );
}
