//! # frr-serve
//!
//! A crash-tolerant resilience control plane on top of the `fastreroute`
//! workspace: the long-running-daemon shape of the DSN'22 reproduction.
//!
//! The service ingests link up/down and topology-load events, keeps one
//! compiled rule table per destination (the `frr_routing::compiled`
//! representation), and answers `route(s, t, failed_set)` and `r`-bounded
//! resilience queries (is the pattern resilient to every set of at most `r`
//! failures?) from immutable epoch snapshots while
//! the tables rebuild underneath.  *Staying alive under faults* is the
//! headline property at every layer:
//!
//! * [`event`] — typed events; malformed or out-of-order input quarantines
//!   instead of crashing,
//! * [`queue`] — a bounded ingest queue with deterministic
//!   coalesce-on-overflow (last-writer-wins per link),
//! * [`epoch`] — `Arc`-swap snapshot publication: query threads never block
//!   on rebuilds and never observe a half-built table,
//! * [`service`] — the Fresh → Rebuilding → Degraded → Fresh state machine;
//!   every answer carries an explicit [`service::Staleness`] tag,
//! * [`supervisor`] — the supervised recompile pool: each
//!   `(graph, destination)` rebuild `catch_unwind`-isolated under an
//!   optional `RunBudget` deadline, retried with exponential backoff, then
//!   degraded — never aborted,
//! * [`replay`] — the seeded churn-replay driver: load benchmark (p50/p99
//!   latency, epochs/sec in CI-style JSON), chaos harness (hostile pattern
//!   injections) and determinism witness (byte-identical digest sequences at
//!   any worker-thread count) in one engine.

// Library code must surface failures as typed errors or documented panics
// (`expect` with a message), never a bare `unwrap` — CI lints with
// `-D warnings`, so this gates. Tests keep `unwrap` for brevity.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
// Library code never prints to stdout — results flow through return values
// and the frr-obs registry; the bins own the terminal.  CI lints with
// `-D warnings`, so a stray println! in a library gates.
#![cfg_attr(not(test), warn(clippy::print_stdout))]

pub mod epoch;
pub mod event;
pub mod queue;
pub mod replay;
pub mod service;
pub mod supervisor;

/// Convenience prelude bringing the most frequently used items into scope.
pub mod prelude {
    pub use crate::epoch::EpochCell;
    pub use crate::event::{Event, EventError, HostileKind};
    pub use crate::queue::{Admission, IngestQueue, QueueStats};
    pub use crate::replay::{replay, ReplayConfig, ReplayOutcome};
    pub use crate::service::{
        AnswerSource, BatchReport, PatternSpec, QueryError, ResilienceAnswer, RouteAnswer, Service,
        Snapshot, SnapshotReader, Staleness, TableState,
    };
    pub use crate::supervisor::{RebuildFailure, SupervisorConfig};
}
