//! # frr-core
//!
//! The core of the `fastreroute` workspace: the algorithms and impossibility
//! constructions of *"On the Price of Locality in Static Fast Rerouting"*
//! (Foerster, Hirvonen, Pignolet, Schmid, Tredan — DSN 2022).
//!
//! The paper studies static fast rerouting: every router is pre-configured
//! with purely local failover rules (conditioned on incident link failures,
//! the in-port and — depending on the routing model — the packet source and
//! destination) and the question is when such rules can be *perfectly
//! resilient*, i.e. deliver whenever source and destination remain connected.
//!
//! This crate provides:
//!
//! * [`algorithms`] — the paper's positive results as ready-to-use
//!   [`frr_routing::pattern::ForwardingPattern`]s: Algorithm 1 for `K5` and
//!   its minors (§IV-B), the `K3,3` source–destination pattern (Thm 9), the
//!   `K5^{-2}` / `K3,3^{-2}` destination-only patterns (Thms 12/13), the
//!   distance-2 and bipartite distance-3 patterns behind the `r`-tolerance
//!   results (Thms 3–5), right-hand-rule touring and destination routing on
//!   outerplanar graphs (Cor. 5/6), Hamiltonian `k`-resilient touring
//!   (Thm 17) and the arborescence failover baseline,
//! * [`impossibility`] — the paper's negative results as verified adversaries:
//!   the `K_{3+5r}` price-of-locality construction (Thm 1/2), the `K7` and
//!   `K4,4` source–destination adversaries (Thms 6/7, Cor. 3/4), the
//!   destination-only `K5^{-1}` / `K3,3^{-1}` adversaries (Thms 10/11), the
//!   touring `K4` / `K2,3` adversaries (Lemmas 3/4) and the bounded-failure
//!   simulation constructions (Thms 14/15),
//! * [`classify`] — the §VIII classification engine (Possible / Sometimes /
//!   Impossible / Unknown per routing model) used by the Topology-Zoo case
//!   study,
//! * [`landscape`] — the graphs and verdicts behind Table I and Figure 9.
//!
//! # Example: perfectly resilient routing on a 5-node network
//!
//! ```
//! use frr_graph::{generators, Node};
//! use frr_routing::prelude::*;
//! use frr_core::algorithms::K5SourcePattern;
//!
//! let g = generators::complete(5);
//! let pattern = K5SourcePattern::new(&g);
//! // Exhaustively verified: every failure set, every connected (s, t) pair.
//! let verdict = check(&g, &pattern, Property::PERFECT, &RunBudget::unlimited());
//! assert!(verdict.unwrap().is_proven());
//! ```

// Library code must surface failures as typed errors or documented panics
// (`expect` with a message), never a bare `unwrap` — CI lints with
// `-D warnings`, so this gates. Tests keep `unwrap` for brevity.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
// Library code never prints to stdout — results flow through return values
// and the frr-obs registry; the bins own the terminal.  CI lints with
// `-D warnings`, so a stray println! in a library gates.
#![cfg_attr(not(test), warn(clippy::print_stdout))]

pub mod algorithms;
pub mod classify;
pub mod impossibility;
pub mod landscape;

use frr_graph::Graph;
use frr_routing::adversary::Counterexample;
use frr_routing::budget::{RunBudget, Verdict};
use frr_routing::compiled::CompilePattern;
use frr_routing::resilience::{check, Property};

/// The counterexample an unlimited [`check`] finds for `property`, if any.
/// A panicking probe is re-raised: the pattern itself is broken.
pub(crate) fn refute<P: CompilePattern + ?Sized>(
    g: &Graph,
    pattern: &P,
    property: Property,
) -> Option<Counterexample> {
    match check(g, pattern, property, &RunBudget::unlimited()).unwrap_or_else(|e| panic!("{e}")) {
        Verdict::Refuted(ce) => Some(ce),
        Verdict::Proven | Verdict::Indeterminate(_) => None,
    }
}

/// [`check`] under [`RunBudget::unlimited`], for the unit tests.
#[cfg(test)]
pub(crate) fn unlimited<P: CompilePattern + ?Sized>(
    g: &Graph,
    pattern: &P,
    property: Property,
) -> Verdict {
    check(g, pattern, property, &RunBudget::unlimited()).expect("no probe panics")
}

/// Convenience prelude bringing the most frequently used items into scope.
pub mod prelude {
    pub use crate::algorithms::{
        ArborescenceFailoverPattern, BipartiteDistance3Pattern, Distance2Pattern,
        HamiltonianTouringPattern, K33Minus2DestPattern, K33SourcePattern, K5Minus2DestPattern,
        K5SourcePattern, OuterplanarDestinationPattern, OuterplanarTouringPattern,
    };
    pub use crate::classify::{classify, Classification, ClassifyBudget, Feasibility};
    pub use crate::impossibility::{routing_adversary, touring_adversary};
}
