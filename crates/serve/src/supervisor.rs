//! The supervised recompile pool.
//!
//! Every `(graph, destination)` table rebuild runs under `catch_unwind` with
//! an optional per-attempt [`RunBudget`] deadline.  A panicked or expired
//! rebuild is retried with exponential backoff up to a configured cap; after
//! that the destination is reported failed and the service degrades it
//! (keeps serving its last good table) instead of crashing or blocking.
//!
//! The pool is the workspace's one sharded runner,
//! [`frr_routing::budget::sharded_first_controlled`], which also drives the
//! failure sweeps and `frr_core::classify::batch`: workers claim one
//! destination at a time from a shared counter, each outcome is recorded at
//! its input position, and the merged result is therefore byte-identical at
//! any worker-thread count — the property the replay determinism suite pins.

use crate::service::PatternSpec;
use frr_graph::budget::StopSignal;
use frr_graph::{Graph, Node};
use frr_routing::budget::{panic_message, sharded_first_controlled, RunBudget};
use frr_routing::compiled::{CompilePattern, CompiledPattern};
use std::convert::Infallible;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Rebuild-pool tuning.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Worker threads (0 = one per available core).
    pub threads: usize,
    /// Per-attempt wall-clock deadline; `None` disables the clock (the
    /// replay driver's default, so digests don't depend on machine speed).
    pub deadline: Option<Duration>,
    /// Attempts per destination before giving up (minimum 1).
    pub max_attempts: u32,
    /// First retry backoff; doubles per attempt.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            threads: 0,
            deadline: None,
            max_attempts: 3,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(50),
        }
    }
}

impl SupervisorConfig {
    /// The backoff before retry number `attempt` (1-based attempt that just
    /// failed): `base << (attempt - 1)`, clamped to the cap.
    pub fn backoff_after(&self, attempt: u32) -> Duration {
        let factor = 1u32 << (attempt - 1).min(16);
        (self.backoff_base * factor).min(self.backoff_cap)
    }
}

/// Why one destination's rebuild did not produce a table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RebuildFailure {
    /// Every attempt panicked; the last panic message is kept.
    Panicked(String),
    /// The pattern refused to compile (deterministic — not retried).
    Refused,
    /// The per-attempt deadline expired on every attempt.
    DeadlineExpired,
    /// The stop signal fired before this destination was attempted.
    Cancelled,
}

/// The merged result for one destination, at its input position.
#[derive(Debug, Clone)]
pub struct RebuildOutcome {
    /// The destination node index.
    pub destination: usize,
    /// The freshly built table, when an attempt succeeded.
    pub table: Option<Arc<CompiledPattern>>,
    /// Attempts actually spent (0 only for [`RebuildFailure::Cancelled`]).
    pub attempts: u32,
    /// The terminal failure, when no attempt succeeded.
    pub failure: Option<RebuildFailure>,
}

/// Installs a process-wide panic hook that swallows the *expected* panics —
/// the hostile patterns' `"hostile pattern panic: ..."` payloads that the
/// supervised pool catches by design — and delegates everything else to the
/// previous hook.  Without this, a chaos replay prints one backtrace per
/// supervised attempt, drowning the actual report; with it, unexpected
/// panics still get the full default treatment.
pub fn silence_supervised_panics() {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if panic_message(info.payload()).contains("hostile pattern panic") {
            return;
        }
        previous(info);
    }));
}

/// Plain per-worker tallies for the supervised pool, flushed to the global
/// registry when the worker retires — individual attempts never touch an
/// atomic.
#[derive(Default)]
struct RebuildTally {
    attempts: u64,
    panics: u64,
    backoffs: u64,
    expiries: u64,
}

impl Drop for RebuildTally {
    fn drop(&mut self) {
        frr_obs::global().add_counts([
            ("serve.rebuild.attempts", self.attempts),
            ("serve.rebuild.attempt_panics", self.panics),
            ("serve.rebuild.backoffs", self.backoffs),
            ("serve.rebuild.attempt_expiries", self.expiries),
        ]);
    }
}

/// The pattern one [`rebuild_tables`] call compiles every destination from,
/// built by whichever attempt needs it first.
type SharedPattern = OnceLock<Box<dyn CompilePattern + Send>>;

/// One destination's supervised rebuild: `catch_unwind` around the compile,
/// deadline check per attempt, exponential backoff between retries.
///
/// The pattern is built inside the attempt's `catch_unwind`, so a panicking
/// construction is caught and retried like a panicking compile, and the cell
/// stays empty for the next attempt (on any worker).
///
/// Refusals (`compile_destination` returning `None`) are deterministic, so
/// they fail fast without retries; panics and deadline expiries are retried
/// because they may be transient (a hostile input mix, a loaded machine).
fn rebuild_one(
    survivor: &Graph,
    spec: &PatternSpec,
    pattern: &SharedPattern,
    destination: usize,
    cfg: &SupervisorConfig,
    tally: &mut RebuildTally,
) -> RebuildOutcome {
    let max_attempts = cfg.max_attempts.max(1);
    let mut last_failure = RebuildFailure::Refused;
    for attempt in 1..=max_attempts {
        tally.attempts += 1;
        let budget = match cfg.deadline {
            Some(d) => RunBudget::unlimited().with_deadline(d),
            None => RunBudget::unlimited(),
        };
        let built = catch_unwind(AssertUnwindSafe(|| {
            pattern
                .get_or_init(|| spec.pattern(survivor))
                .compile_destination(survivor, Node(destination))
        }));
        match built {
            Ok(Some(table)) if !budget.deadline_expired() => {
                return RebuildOutcome {
                    destination,
                    table: Some(Arc::new(table)),
                    attempts: attempt,
                    failure: None,
                };
            }
            Ok(Some(_)) => {
                tally.expiries += 1;
                last_failure = RebuildFailure::DeadlineExpired;
            }
            Ok(None) => {
                // Deterministic refusal: retrying cannot change the answer.
                return RebuildOutcome {
                    destination,
                    table: None,
                    attempts: attempt,
                    failure: Some(RebuildFailure::Refused),
                };
            }
            Err(payload) => {
                tally.panics += 1;
                last_failure = RebuildFailure::Panicked(panic_message(&*payload));
            }
        }
        if attempt < max_attempts {
            tally.backoffs += 1;
            std::thread::sleep(cfg.backoff_after(attempt));
        }
    }
    RebuildOutcome {
        destination,
        table: None,
        attempts: max_attempts,
        failure: Some(last_failure),
    }
}

/// Rebuilds the tables for `destinations` on `survivor` (the current base
/// graph minus its down links) under supervision.
///
/// Outcomes come back in input order regardless of worker count or
/// scheduling; destinations never reached because `stop` fired are reported
/// as [`RebuildFailure::Cancelled`] with zero attempts.
pub fn rebuild_tables(
    survivor: &Graph,
    spec: &PatternSpec,
    destinations: &[usize],
    cfg: &SupervisorConfig,
    stop: &StopSignal,
) -> Vec<RebuildOutcome> {
    let slots: Vec<OnceLock<RebuildOutcome>> =
        destinations.iter().map(|_| OnceLock::new()).collect();
    let pattern = SharedPattern::new();
    let duration_ns = frr_obs::global().histogram("serve.rebuild.duration_ns");
    // One destination per claim and per stop poll.  `rebuild_one` catches
    // every compile panic, so the runner only sees one if the harness itself
    // unwinds; that destination then stays `Cancelled` rather than taking
    // out the sibling workers or the service.
    sharded_first_controlled(
        destinations.len() as u64,
        1,
        1,
        cfg.threads,
        stop,
        RebuildTally::default,
        |tally, i| {
            let i = i as usize;
            let _span = frr_obs::Span::start(&duration_ns);
            let outcome = rebuild_one(survivor, spec, &pattern, destinations[i], cfg, tally);
            // Each index is claimed exactly once, so the slot is empty.
            let _ = slots[i].set(outcome);
            None::<Infallible>
        },
    );
    slots
        .into_iter()
        .zip(destinations)
        .map(|(slot, &destination)| {
            slot.into_inner().unwrap_or(RebuildOutcome {
                destination,
                table: None,
                attempts: 0,
                failure: Some(RebuildFailure::Cancelled),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::HostileKind;
    use frr_graph::generators;

    #[test]
    fn well_behaved_spec_builds_every_destination() {
        let g = generators::cycle(5);
        let cfg = SupervisorConfig::default();
        let dests: Vec<usize> = (0..5).collect();
        let out = rebuild_tables(
            &g,
            &PatternSpec::ShortestPath,
            &dests,
            &cfg,
            &StopSignal::none(),
        );
        assert_eq!(out.len(), 5);
        for (i, o) in out.iter().enumerate() {
            assert_eq!(o.destination, i);
            assert_eq!(o.attempts, 1);
            assert!(o.failure.is_none());
            let table = o.table.as_ref().expect("table built");
            assert_eq!(table.destination(), Some(Node(i)));
        }
    }

    #[test]
    fn panicking_spec_retries_then_degrades_without_aborting() {
        let g = generators::cycle(4);
        let cfg = SupervisorConfig {
            max_attempts: 3,
            backoff_base: Duration::ZERO,
            ..SupervisorConfig::default()
        };
        let out = rebuild_tables(
            &g,
            &PatternSpec::Hostile(HostileKind::PanicOnCompile),
            &[0, 1],
            &cfg,
            &StopSignal::none(),
        );
        for o in &out {
            assert_eq!(o.attempts, 3);
            assert!(o.table.is_none());
            assert!(matches!(o.failure, Some(RebuildFailure::Panicked(_))));
        }
    }

    #[test]
    fn refusing_spec_fails_fast_without_retries() {
        let g = generators::cycle(4);
        let out = rebuild_tables(
            &g,
            &PatternSpec::Hostile(HostileKind::RefuseCompile),
            &[2],
            &SupervisorConfig::default(),
            &StopSignal::none(),
        );
        assert_eq!(out[0].attempts, 1);
        assert_eq!(out[0].failure, Some(RebuildFailure::Refused));
    }

    #[test]
    fn outcome_order_is_identical_at_any_worker_count() {
        let g = generators::petersen();
        let dests: Vec<usize> = (0..10).collect();
        for spec in [
            PatternSpec::ShortestPath,
            PatternSpec::Hostile(HostileKind::PanicOnCompile),
            PatternSpec::Hostile(HostileKind::RefuseCompile),
        ] {
            let run = |threads| {
                let cfg = SupervisorConfig {
                    threads,
                    backoff_base: Duration::ZERO,
                    ..SupervisorConfig::default()
                };
                rebuild_tables(&g, &spec, &dests, &cfg, &StopSignal::none())
                    .into_iter()
                    .map(|o| {
                        let digest = o.table.as_ref().map(|t| t.digest());
                        (o.destination, digest, o.attempts, o.failure)
                    })
                    .collect::<Vec<_>>()
            };
            let reference = run(1);
            assert_eq!(reference.len(), dests.len());
            for threads in [2, 8] {
                assert_eq!(run(threads), reference, "{spec:?}, threads = {threads}");
            }
        }
    }

    #[test]
    fn shared_pattern_rebuild_matches_fresh_compiles() {
        let arpanet = frr_topologies::builtin_topologies()
            .into_iter()
            .find(|t| t.name == "Arpanet1972")
            .expect("catalog has Arpanet1972")
            .graph;
        let edges = arpanet.edges();
        let degraded = arpanet.without_edges([edges[0], edges[7], edges[19]].iter());
        let graphs = [generators::cycle(6), generators::wheel(7), degraded];
        for g in &graphs {
            let dests: Vec<usize> = (0..g.node_count()).collect();
            for threads in [1, 2, 8] {
                let cfg = SupervisorConfig {
                    threads,
                    backoff_base: Duration::ZERO,
                    ..SupervisorConfig::default()
                };
                for spec in [
                    PatternSpec::ShortestPath,
                    PatternSpec::Rotor,
                    PatternSpec::Hostile(HostileKind::WellBehaved),
                ] {
                    let out = rebuild_tables(g, &spec, &dests, &cfg, &StopSignal::none());
                    for o in &out {
                        let fresh = spec
                            .pattern(g)
                            .compile_destination(g, Node(o.destination))
                            .map(|t| t.digest());
                        assert!(fresh.is_some(), "{spec:?} compiles v{}", o.destination);
                        assert_eq!(o.table.as_ref().map(|t| t.digest()), fresh);
                        assert_eq!(o.attempts, 1);
                    }
                }
                let panicking = PatternSpec::Hostile(HostileKind::PanicOnCompile);
                for o in rebuild_tables(g, &panicking, &dests, &cfg, &StopSignal::none()) {
                    assert_eq!(o.attempts, cfg.max_attempts, "threads = {threads}");
                    assert!(matches!(o.failure, Some(RebuildFailure::Panicked(_))));
                }
            }
        }
    }

    #[test]
    fn a_fired_stop_signal_reports_cancelled_not_degraded_panics() {
        let g = generators::cycle(4);
        let token = frr_graph::budget::CancelToken::new();
        token.cancel();
        let stop = StopSignal::none().with_cancel(token);
        let out = rebuild_tables(
            &g,
            &PatternSpec::ShortestPath,
            &[0, 1, 2, 3],
            &SupervisorConfig::default(),
            &stop,
        );
        for o in &out {
            assert_eq!(o.failure, Some(RebuildFailure::Cancelled));
            assert_eq!(o.attempts, 0);
        }
    }

    #[test]
    fn supervised_rebuilds_flush_attempt_telemetry_globally() {
        let registry = frr_obs::global();
        let before = registry.snapshot();
        let (attempts0, panics0, backoffs0) = (
            before.counter("serve.rebuild.attempts").unwrap_or(0),
            before.counter("serve.rebuild.attempt_panics").unwrap_or(0),
            before.counter("serve.rebuild.backoffs").unwrap_or(0),
        );
        let g = generators::cycle(4);
        let cfg = SupervisorConfig {
            max_attempts: 3,
            backoff_base: Duration::ZERO,
            ..SupervisorConfig::default()
        };
        rebuild_tables(
            &g,
            &PatternSpec::Hostile(HostileKind::PanicOnCompile),
            &[0, 1],
            &cfg,
            &StopSignal::none(),
        );
        // Lower bounds only: sibling tests share the process-wide registry.
        let after = registry.snapshot();
        let attempts = after.counter("serve.rebuild.attempts").unwrap_or(0);
        let panics = after.counter("serve.rebuild.attempt_panics").unwrap_or(0);
        let backoffs = after.counter("serve.rebuild.backoffs").unwrap_or(0);
        assert!(attempts >= attempts0 + 6, "2 dests x 3 attempts");
        assert!(panics >= panics0 + 6, "every attempt panicked");
        assert!(backoffs >= backoffs0 + 4, "2 backoffs between 3 attempts");
        let durations = after
            .histogram("serve.rebuild.duration_ns")
            .expect("duration histogram registered");
        assert!(durations.count >= 2);
    }

    #[test]
    fn backoff_doubles_and_clamps() {
        let cfg = SupervisorConfig {
            backoff_base: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(5),
            ..SupervisorConfig::default()
        };
        assert_eq!(cfg.backoff_after(1), Duration::from_millis(2));
        assert_eq!(cfg.backoff_after(2), Duration::from_millis(4));
        assert_eq!(cfg.backoff_after(3), Duration::from_millis(5));
        assert_eq!(cfg.backoff_after(31), Duration::from_millis(5));
    }
}
