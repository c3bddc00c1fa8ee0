//! # frr-routing
//!
//! The routing substrate ("data plane") for the `fastreroute` workspace: the
//! machinery the DSN'22 paper reasons about, implemented as a deterministic
//! in-memory simulator.
//!
//! * [`model`] — the three routing models of the paper (source–destination,
//!   destination-only, touring) and the local information a node may use,
//! * [`failure`] — failure sets `F ⊆ E`, their bitmasks (plain `&[u64]`
//!   word slices, one word per 64 links), their enumeration in Gray-code
//!   order and sampling,
//! * [`pattern`] — the [`pattern::ForwardingPattern`] trait (a static,
//!   pre-configured, purely local forwarding function per node) plus generic
//!   table/rotor/shortest-path baselines,
//! * [`simulator`] — deterministic packet forwarding with exact loop
//!   detection over `(node, in-port)` states,
//! * [`compiled`] — forwarding patterns compiled once per
//!   `(graph, destination)` into dense CSR-indexed rule tables
//!   ([`compiled::CompiledPattern`]), the branch-free representation the
//!   sweep hot paths consume, and [`compiled::Forwarder`], which forwards
//!   on them or, when compilation is refused, through the interpreter,
//! * [`sweep`] — the allocation-free failure-sweep engine: bitmask failure
//!   overlays on a [`frr_graph::BitGraph`], reusable scratch, and
//!   deterministic multi-threaded mask-range sharding,
//! * [`resilience`] — the one resilience checker, [`resilience::check`]:
//!   perfect resilience, `r`-tolerance, bounded failures and touring,
//!   exhaustive, falling back to the one sampler when a budget stops the
//!   sweep or the graph is too large for it,
//! * [`adversary`] — the [`adversary::Counterexample`] every search returns,
//!   its independent verifier and the one sampler,
//!   [`adversary::RandomAdversary`]: seeded, sharded trials searching the
//!   same [`resilience::Property`] `check` takes,
//! * [`budget`] — the run-budget control layer: wall-clock deadlines,
//!   work-unit budgets, cooperative [`budget::CancelToken`] cancellation and
//!   the typed [`budget::Verdict`] every check returns,
//! * [`hostile`] — deliberately misbehaving forwarding patterns (forwarding
//!   into failed links, to non-neighbors, nondeterministically, panicking)
//!   used by the chaos suite to pin fail-safe termination,
//! * [`metrics`] — delivery-rate / stretch statistics for the benchmark
//!   harness.
//!
//! # Example
//!
//! ```
//! use frr_graph::{generators, Node};
//! use frr_routing::prelude::*;
//!
//! let g = generators::cycle(5);
//! let pattern = RotorPattern::clockwise(&g);
//! let failures = FailureSet::new();
//! let result = route(&g, &failures, &pattern, Node(0), Node(3), 100);
//! assert!(result.outcome.is_delivered());
//! ```

// Library code must surface failures as typed errors or documented panics
// (`expect` with a message), never a bare `unwrap` — CI lints with
// `-D warnings`, so this gates. Tests keep `unwrap` for brevity.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
// Library code never prints to stdout — results flow through return values
// and the frr-obs registry; the bins own the terminal.  CI lints with
// `-D warnings`, so a stray println! in a library gates.
#![cfg_attr(not(test), warn(clippy::print_stdout))]

pub mod adversary;
pub mod budget;
pub mod compiled;
pub mod failure;
pub mod hostile;
pub mod metrics;
pub mod model;
pub mod pattern;
pub mod resilience;
pub mod simulator;
pub mod sweep;

/// Convenience prelude bringing the most frequently used items into scope.
pub mod prelude {
    pub use crate::adversary::{Counterexample, RandomAdversary};
    pub use crate::budget::{
        CancelToken, Progress, RunBudget, StopCause, StopSignal, Verdict, WorkerPanicked,
    };
    pub use crate::compiled::{CompilePattern, CompiledPattern, CompiledSim};
    pub use crate::failure::{FailureSet, GrayMasks};
    pub use crate::metrics::DeliveryStats;
    pub use crate::model::{LocalContext, RoutingModel};
    pub use crate::pattern::{FnPattern, ForwardingPattern, RotorPattern, ShortestPathPattern};
    pub use crate::resilience::{check, Property};
    pub use crate::simulator::{route, tour, Outcome, RouteResult, TourResult};
}
