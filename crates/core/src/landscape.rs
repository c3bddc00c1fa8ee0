//! The feasibility landscape of Table I and Figure 9: the named graphs, the
//! verdict the paper assigns to each (model × graph) cell, and helpers to
//! re-derive those verdicts from this crate's algorithms and adversaries.

use crate::classify::{classify, Feasibility};
use frr_graph::{generators, Graph};

/// One row of the Figure 9 landscape: a named graph and the paper's verdict
/// per routing model.
#[derive(Debug, Clone, PartialEq)]
pub struct LandscapeEntry {
    /// Human-readable name (e.g. `"K5^-1"`).
    pub name: &'static str,
    /// The graph itself.
    pub graph: Graph,
    /// Paper verdict for the touring model (§VII).
    pub paper_touring: Feasibility,
    /// Paper verdict for the destination-only model (§V).
    pub paper_destination_only: Feasibility,
    /// Paper verdict for the source–destination model (§IV).
    pub paper_source_destination: Feasibility,
}

/// The graphs of Figure 9 with the verdicts stated in the paper.
///
/// "Sometimes" cells do not occur in Figure 9 (it only charts the named
/// complete / complete-bipartite family), so every cell is
/// [`Feasibility::Possible`] or [`Feasibility::Impossible`], except `K6`
/// source–destination, which the paper leaves [`Feasibility::Unknown`].
pub fn figure9_entries() -> Vec<LandscapeEntry> {
    use Feasibility::{Impossible, Possible};
    let e = |name, graph, tour, dest, srcdest| LandscapeEntry {
        name,
        graph,
        paper_touring: tour,
        paper_destination_only: dest,
        paper_source_destination: srcdest,
    };
    vec![
        e("K3", generators::complete(3), Possible, Possible, Possible),
        e("C5", generators::cycle(5), Possible, Possible, Possible),
        e(
            "K4",
            generators::complete(4),
            Impossible,
            Possible,
            Possible,
        ),
        e(
            "K2,3",
            generators::complete_bipartite(2, 3),
            Impossible,
            Possible,
            Possible,
        ),
        e(
            "K5^-2",
            generators::complete_minus(5, 2),
            Impossible,
            Possible,
            Possible,
        ),
        e(
            "K3,3^-2",
            generators::complete_bipartite_minus(3, 3, 2),
            Impossible,
            Possible,
            Possible,
        ),
        e(
            "K5^-1",
            generators::complete_minus(5, 1),
            Impossible,
            Impossible,
            Possible,
        ),
        e(
            "K3,3^-1",
            generators::complete_bipartite_minus(3, 3, 1),
            Impossible,
            Impossible,
            Possible,
        ),
        e(
            "K5",
            generators::complete(5),
            Impossible,
            Impossible,
            Possible,
        ),
        e(
            "K3,3",
            generators::complete_bipartite(3, 3),
            Impossible,
            Impossible,
            Possible,
        ),
        e(
            "K6",
            generators::complete(6),
            Impossible,
            Impossible,
            Feasibility::Unknown,
        ),
        e(
            "K7^-1",
            generators::complete_minus(7, 1),
            Impossible,
            Impossible,
            Impossible,
        ),
        e(
            "K4,4^-1",
            generators::complete_bipartite_minus(4, 4, 1),
            Impossible,
            Impossible,
            Impossible,
        ),
        e(
            "K7",
            generators::complete(7),
            Impossible,
            Impossible,
            Impossible,
        ),
        e(
            "K4,4",
            generators::complete_bipartite(4, 4),
            Impossible,
            Impossible,
            Impossible,
        ),
    ]
}

/// One row of Table I: the `r`-tolerance landscape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ToleranceEntry {
    /// The promise parameter `r`.
    pub r: usize,
    /// `K_{2r+1}` admits `r`-tolerance (Theorem 3).
    pub complete_possible_nodes: usize,
    /// `K_{2r-1,2r-1}` admits `r`-tolerance (Theorem 5).
    pub bipartite_possible_part: usize,
    /// `K_{5r+3}` admits no `r`-tolerant pattern (Theorem 1).
    pub complete_impossible_nodes: usize,
}

/// The Table I `r`-tolerance rows for `r = 1..=max_r`.
pub fn table1_tolerance_rows(max_r: usize) -> Vec<ToleranceEntry> {
    (1..=max_r)
        .map(|r| ToleranceEntry {
            r,
            complete_possible_nodes: 2 * r + 1,
            bipartite_possible_part: 2 * r - 1,
            complete_impossible_nodes: 5 * r + 3,
        })
        .collect()
}

/// Compares the paper's Figure 9 verdicts with the classification engine's
/// output; returns `(name, expected, got)` for every mismatching cell where
/// the classifier produced a *definite* wrong answer (an `Unknown` or
/// `Sometimes` from the classifier is not counted as a mismatch, matching the
/// paper's own methodology, which cannot decide those cells structurally
/// either).
pub fn verify_figure9_against_classifier() -> Vec<(String, Feasibility, Feasibility)> {
    let mut mismatches = Vec::new();
    for entry in figure9_entries() {
        let c = classify(&entry.graph);
        for (model, expected, got) in [
            ("touring", entry.paper_touring, c.touring),
            (
                "destination-only",
                entry.paper_destination_only,
                c.destination_only,
            ),
            (
                "source-destination",
                entry.paper_source_destination,
                c.source_destination,
            ),
        ] {
            let definite = matches!(got, Feasibility::Possible | Feasibility::Impossible);
            let expected_definite =
                matches!(expected, Feasibility::Possible | Feasibility::Impossible);
            if definite && expected_definite && got != expected {
                mismatches.push((format!("{} / {model}", entry.name), expected, got));
            }
        }
    }
    mismatches
}

#[cfg(test)]
mod tests_bitgraph {
    use super::*;

    #[test]
    fn figure9_graphs_round_trip_through_bitgraph() {
        for entry in figure9_entries() {
            let b = frr_graph::BitGraph::from_graph(&entry.graph);
            assert_eq!(b.to_graph(), entry.graph, "{}", entry.name);
            assert_eq!(b.edge_count(), entry.graph.edge_count(), "{}", entry.name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure9_has_the_fifteen_named_graphs() {
        let entries = figure9_entries();
        assert_eq!(entries.len(), 15);
        assert!(entries.iter().any(|e| e.name == "K7"));
        assert!(entries.iter().any(|e| e.name == "K3,3^-2"));
    }

    #[test]
    fn table1_rows_follow_the_formulas() {
        let rows = table1_tolerance_rows(4);
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].complete_possible_nodes, 3);
        assert_eq!(rows[1].complete_impossible_nodes, 13);
        assert_eq!(rows[2].bipartite_possible_part, 5);
        assert_eq!(rows[3].r, 4);
    }

    #[test]
    fn classifier_never_contradicts_figure9() {
        let mismatches = verify_figure9_against_classifier();
        assert!(
            mismatches.is_empty(),
            "classifier contradicts the paper on: {mismatches:?}"
        );
    }
}
