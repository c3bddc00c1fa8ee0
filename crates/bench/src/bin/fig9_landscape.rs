//! Experiment E-F9 — regenerates Figure 9: the feasibility landscape on the
//! named complete / complete-bipartite graphs.  A positive cell runs the
//! paper's algorithm and proves it exhaustively (`Possible (verified)`).  A
//! negative cell runs the adversaries against the three patterns of
//! [`pattern_portfolio`] and prints `portfolio defeated` when all three
//! fail: that is evidence for the paper's "no local pattern exists", not a
//! proof of it, so no cell claims more.

use frr_bench::{pattern_portfolio, proven};
use frr_core::algorithms::{
    K33Minus2DestPattern, K33SourcePattern, K5Minus2DestPattern, K5SourcePattern,
    OuterplanarDestinationPattern, OuterplanarTouringPattern,
};
use frr_core::impossibility::{routing_adversary, touring_adversary};
use frr_core::landscape::figure9_entries;
use frr_graph::Graph;
use frr_routing::compiled::CompilePattern;
use frr_routing::resilience::Property;

/// Whether `defeats` holds for every pattern of the portfolio on `g`.
fn portfolio_defeated(g: &Graph, defeats: impl Fn(&dyn CompilePattern) -> bool) -> bool {
    pattern_portfolio(g).iter().all(|p| defeats(p.as_ref()))
}

fn main() {
    println!("=== Figure 9: feasibility landscape (paper verdict vs. this repo) ===");
    println!(
        "{:<9} {:>22} {:>22} {:>22}",
        "graph", "touring", "destination-only", "source-destination"
    );
    for entry in figure9_entries() {
        let g = &entry.graph;
        // Touring cell.
        let touring = if let Some(p) = OuterplanarTouringPattern::new(g) {
            if proven(g, &p, Property::PERFECT_TOURING) {
                "Possible (verified)"
            } else {
                "Possible? (check failed)"
            }
        } else if portfolio_defeated(g, |p| touring_adversary(g, p).is_some()) {
            "portfolio defeated"
        } else {
            "undecided here"
        };

        // Destination-only cell: try the constructive patterns where they
        // apply (`proven` is false past the sweep bound), otherwise run the
        // adversaries.
        let verified = if g.node_count() <= 5 && g.edge_count() <= 8 {
            proven(g, &K5Minus2DestPattern::new(g), Property::PERFECT)
        } else if g.node_count() <= 6 && g.edge_count() <= 7 {
            proven(g, &K33Minus2DestPattern::new(g), Property::PERFECT)
        } else {
            let p = OuterplanarDestinationPattern::new(g);
            p.supported_destinations().len() == g.node_count() && proven(g, &p, Property::PERFECT)
        };
        let dest = if verified {
            "Possible (verified)"
        } else if portfolio_defeated(g, |p| routing_adversary(g, p, g.edge_count()).is_refuted()) {
            "portfolio defeated"
        } else {
            "undecided here"
        };

        // Source-destination cell.
        let srcdest = if g.node_count() <= 5 {
            if proven(g, &K5SourcePattern::new(g), Property::PERFECT) {
                "Possible (verified)"
            } else {
                "check failed"
            }
        } else if g.node_count() == 6 && g.edge_count() <= 9 {
            if proven(g, &K33SourcePattern::new(g), Property::PERFECT) {
                "Possible (verified)"
            } else {
                "check failed"
            }
        } else if portfolio_defeated(g, |p| routing_adversary(g, p, 15).is_refuted()) {
            "portfolio defeated"
        } else {
            "open (paper: see Table I)"
        };

        println!(
            "{:<9} {:>22} {:>22} {:>22}   [paper: {} / {} / {}]",
            entry.name,
            touring,
            dest,
            srcdest,
            entry.paper_touring.label(),
            entry.paper_destination_only.label(),
            entry.paper_source_destination.label()
        );
    }
}
