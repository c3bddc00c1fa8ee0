//! Delivery-rate and stretch statistics for the experiment harness.
//!
//! While the paper's results are feasibility results (delivered or not), the
//! benchmark harness also reports *how* patterns deliver: hop counts and
//! stretch relative to the shortest surviving path, and delivery ratios under
//! random failure workloads.

use crate::compiled::{CompilePattern, Forwarder};
use crate::failure::{random_failure_set, FailureSet};
use crate::simulator::Outcome;
use frr_graph::connectivity::distance_filtered;
use frr_graph::{Graph, Node};
use rand::Rng;

/// Aggregate statistics over a set of routed packets.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DeliveryStats {
    /// Number of scenarios where source and destination were connected.
    pub connected_scenarios: usize,
    /// Number of delivered packets.
    pub delivered: usize,
    /// Number of packets that entered a forwarding loop.
    pub looped: usize,
    /// Number of packets that were dropped / stranded.
    pub stuck: usize,
    /// Sum of hop counts over delivered packets.
    pub total_hops: usize,
    /// Sum of shortest-path distances (in `G \ F`) over delivered packets.
    pub total_optimal_hops: usize,
}

impl DeliveryStats {
    /// Fraction of connected scenarios whose packet was delivered.
    pub fn delivery_ratio(&self) -> f64 {
        if self.connected_scenarios == 0 {
            return 1.0;
        }
        self.delivered as f64 / self.connected_scenarios as f64
    }

    /// Mean multiplicative stretch (delivered hops / shortest surviving path)
    /// over delivered packets; 1.0 when nothing was delivered.
    pub fn mean_stretch(&self) -> f64 {
        if self.total_optimal_hops == 0 {
            return 1.0;
        }
        self.total_hops as f64 / self.total_optimal_hops as f64
    }

    /// Records one routed packet.
    pub fn record(&mut self, outcome: Outcome, hops: usize, optimal: usize) {
        self.connected_scenarios += 1;
        match outcome {
            Outcome::Delivered => {
                self.delivered += 1;
                self.total_hops += hops;
                self.total_optimal_hops += optimal;
            }
            Outcome::Loop | Outcome::HopLimit => self.looped += 1,
            Outcome::Stuck => self.stuck += 1,
        }
    }

    /// Merges another statistics block into this one.
    pub fn merge(&mut self, other: &DeliveryStats) {
        self.connected_scenarios += other.connected_scenarios;
        self.delivered += other.delivered;
        self.looped += other.looped;
        self.stuck += other.stuck;
        self.total_hops += other.total_hops;
        self.total_optimal_hops += other.total_optimal_hops;
    }
}

/// Evaluates a pattern on explicit scenarios (failure set + source +
/// destination); scenarios whose endpoints coincide or are disconnected are
/// skipped.
pub fn evaluate_scenarios<P: CompilePattern + ?Sized>(
    g: &Graph,
    pattern: &P,
    scenarios: impl IntoIterator<Item = (FailureSet, Node, Node)>,
) -> DeliveryStats {
    let fwd = Forwarder::new(g, pattern);
    let mut scratch = fwd.scratch();
    let mut stats = DeliveryStats::default();
    for (failures, s, t) in scenarios {
        if s == t {
            continue;
        }
        let optimal = match distance_filtered(g, s, t, |u, v| !failures.contains(u, v)) {
            Some(d) => d,
            None => continue,
        };
        let result = fwd.route(&mut scratch, &failures, s, t);
        stats.record(result.outcome, result.hops, optimal);
    }
    stats
}

/// Evaluates a pattern under a random failure workload: `trials` scenarios,
/// each failing exactly `failures_per_trial` random links and routing between
/// a random connected source/destination pair.
pub fn evaluate_random_workload<P: CompilePattern + ?Sized, R: Rng>(
    g: &Graph,
    pattern: &P,
    trials: usize,
    failures_per_trial: usize,
    rng: &mut R,
) -> DeliveryStats {
    let n = g.node_count();
    if n < 2 {
        return DeliveryStats::default();
    }
    let draws = (0..trials).map(|_| {
        let failures = random_failure_set(g, failures_per_trial, rng);
        let s = Node(rng.gen_range(0..n));
        let t = Node(rng.gen_range(0..n));
        (failures, s, t)
    });
    evaluate_scenarios(g, pattern, draws)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{RotorPattern, ShortestPathPattern};
    use frr_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn stats_accumulate_and_summarize() {
        let mut s = DeliveryStats::default();
        assert_eq!(s.delivery_ratio(), 1.0);
        assert_eq!(s.mean_stretch(), 1.0);
        s.record(Outcome::Delivered, 4, 2);
        s.record(Outcome::Loop, 7, 2);
        s.record(Outcome::Stuck, 0, 1);
        assert_eq!(s.connected_scenarios, 3);
        assert_eq!(s.delivered, 1);
        assert_eq!(s.looped, 1);
        assert_eq!(s.stuck, 1);
        assert!((s.delivery_ratio() - 1.0 / 3.0).abs() < 1e-12);
        assert!((s.mean_stretch() - 2.0).abs() < 1e-12);
        let mut t = DeliveryStats::default();
        t.merge(&s);
        t.merge(&s);
        assert_eq!(t.connected_scenarios, 6);
        assert_eq!(t.delivered, 2);
    }

    #[test]
    fn explicit_scenarios_skip_disconnected_pairs() {
        let g = generators::path(4);
        let p = ShortestPathPattern::new(&g);
        let scenarios = vec![
            (FailureSet::new(), Node(0), Node(3)),
            // Disconnecting failure: skipped, not counted as failure.
            (FailureSet::from_pairs(&[(1, 2)]), Node(0), Node(3)),
            (FailureSet::new(), Node(2), Node(2)),
        ];
        let stats = evaluate_scenarios(&g, &p, scenarios);
        assert_eq!(stats.connected_scenarios, 1);
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.total_hops, 3);
        assert_eq!(stats.total_optimal_hops, 3);
    }

    #[test]
    fn random_workload_on_resilient_ring_delivers_everything() {
        let g = generators::cycle(8);
        let p = RotorPattern::clockwise_with_shortcut(&g);
        let mut rng = StdRng::seed_from_u64(17);
        let stats = evaluate_random_workload(&g, &p, 300, 1, &mut rng);
        assert!(stats.connected_scenarios > 0);
        assert_eq!(stats.delivery_ratio(), 1.0);
        assert!(stats.mean_stretch() >= 1.0);
    }

    #[test]
    fn random_workload_reports_losses_for_weak_pattern() {
        use crate::model::RoutingModel;
        use crate::pattern::FnPattern;
        let g = generators::complete(5);
        let p = FnPattern::new(
            RoutingModel::DestinationOnly,
            "drop-unless-adjacent",
            |ctx| {
                if ctx.destination_is_alive_neighbor() {
                    Some(ctx.destination)
                } else {
                    None
                }
            },
        );
        let mut rng = StdRng::seed_from_u64(2);
        let stats = evaluate_random_workload(&g, &p, 400, 3, &mut rng);
        assert!(stats.stuck > 0, "the dropping pattern must lose packets");
        assert!(stats.delivery_ratio() < 1.0);
    }
}
