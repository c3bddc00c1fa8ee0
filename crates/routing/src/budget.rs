//! The run-budget control layer: wall-clock deadlines, work-unit budgets and
//! cooperative cancellation for every long-running verification call.
//!
//! Every checker in this workspace answers an exponential question (`2^m`
//! failure-mask sweeps, budgeted minor search).  The checks built on this
//! module ([`crate::resilience::check`], the randomized adversary's
//! budgeted search) are *interruptible* and *fail-safe*:
//!
//! * a [`RunBudget`] carries an optional deadline, an optional work-unit
//!   budget (masks for sweeps, trials for samplers — unifying the historical
//!   ad-hoc `u64` budgets) and an optional [`CancelToken`] polled
//!   cooperatively inside the sweep and minor-search hot loops;
//! * results come back as a typed [`Verdict`]: `Proven`, `Refuted` with a
//!   concrete counterexample, or an honest [`Verdict::Indeterminate`] whose
//!   [`Progress`] reports how far the search got (masks examined, failure-set
//!   weight reached, elapsed time) and why it stopped;
//! * a worker thread that panics mid-sweep surfaces as a typed
//!   [`WorkerPanicked`] error carrying the offending failure mask — sibling
//!   shards wind down cleanly instead of taking the process with them;
//! * [`sharded_first_controlled`] is the one worker pool behind all of it —
//!   the mask sweeps, the randomized adversary, the classification batch and
//!   the supervised table rebuilds — with a deterministic earliest-index
//!   merge, stop polling and per-probe panic capture.
//!
//! A [`RunBudget::unlimited`] run is the plain exhaustive answer: it sweeps
//! the whole space and returns `Proven` or `Refuted`, with the same
//! canonical first counterexample at any thread count.

use crate::adversary::Counterexample;
use crate::failure::FailureSet;
pub use frr_graph::budget::{CancelToken, StopSignal};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Deadline, work-unit budget and cancellation for one verification run.
///
/// The deadline clock starts when the budget is *constructed* (so one budget
/// threaded through several phases bounds their sum, matching how a caller
/// with an SLA thinks about it).
#[derive(Debug, Clone)]
pub struct RunBudget {
    started: Instant,
    deadline: Option<Instant>,
    work: Option<u64>,
    cancel: Option<CancelToken>,
}

impl Default for RunBudget {
    fn default() -> Self {
        Self::unlimited()
    }
}

impl RunBudget {
    /// A budget with no limits: a check under it sweeps its whole space.
    pub fn unlimited() -> Self {
        RunBudget {
            started: Instant::now(),
            deadline: None,
            work: None,
            cancel: None,
        }
    }

    /// Arms a wall-clock deadline `d` from the moment the budget was created.
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(self.started + d);
        self
    }

    /// Arms a work-unit budget: at most `units` failure masks (exhaustive
    /// sweeps) or trials (samplers, randomized adversaries) are examined.
    pub fn with_work_budget(mut self, units: u64) -> Self {
        self.work = Some(units);
        self
    }

    /// Attaches a cancellation token; cancel it from any thread to wind the
    /// run down at its next poll point.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Builds a budget from the experiment bins' optional
    /// `--deadline-secs` / `--work-budget` flag values.
    pub fn from_flags(deadline_secs: Option<f64>, work_budget: Option<u64>) -> Self {
        let mut b = Self::unlimited();
        if let Some(secs) = deadline_secs {
            b = b.with_deadline(Duration::from_secs_f64(secs.max(0.0)));
        }
        if let Some(units) = work_budget {
            b = b.with_work_budget(units);
        }
        b
    }

    /// A fresh budget that keeps only this one's cancellation token: no
    /// deadline, no work cap.
    pub(crate) fn cancel_only(&self) -> Self {
        RunBudget {
            cancel: self.cancel.clone(),
            ..Self::unlimited()
        }
    }

    /// `true` if no deadline, work budget or token is armed.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.work.is_none() && self.cancel.is_none()
    }

    /// The work-unit cap, if armed.
    pub fn work_limit(&self) -> Option<u64> {
        self.work
    }

    /// Time elapsed since the budget was created.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// `true` once the deadline has passed.
    pub fn deadline_expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// `true` once the attached token was cancelled.
    pub fn cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    /// The poll condition for the sweep/minor hot loops (deadline + token;
    /// the work cap is enforced by clamping enumeration ranges instead).
    pub fn stop_signal(&self) -> StopSignal {
        StopSignal::new(self.deadline, self.cancel.clone())
    }
}

/// Why a budgeted run stopped before completing its search space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopCause {
    /// The wall-clock deadline passed.
    Deadline,
    /// The work-unit budget was spent.
    WorkBudget,
    /// The [`CancelToken`] was cancelled.
    Cancelled,
    /// The sweep would visit more failure masks than
    /// [`crate::resilience::SWEEP_MASK_LIMIT`], so only the sampling
    /// fallback ran.
    MaskLimit,
}

impl fmt::Display for StopCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            StopCause::Deadline => "deadline expired",
            StopCause::WorkBudget => "work budget spent",
            StopCause::Cancelled => "cancelled",
            StopCause::MaskLimit => "mask limit (sampling fallback only)",
        })
    }
}

/// How far an interrupted search got before it stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Progress {
    /// Failure masks (or sampler/adversary trials) examined before the stop.
    pub masks_examined: u64,
    /// Largest failure-set size reached by the weight-ordered enumeration.
    pub weight_reached: usize,
    /// Wall-clock time spent in the run (including any sampling fallback).
    pub elapsed: Duration,
    /// Why the run stopped.
    pub stopped_by: StopCause,
    /// Trials spent by the graceful sampling fallback after the exhaustive
    /// sweep stopped (0 when no fallback ran).
    pub sampled_trials: u64,
}

impl fmt::Display for Progress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} after {} masks (weight {} reached, {:.1?} elapsed",
            self.stopped_by, self.masks_examined, self.weight_reached, self.elapsed
        )?;
        if self.sampled_trials > 0 {
            write!(f, ", {} fallback samples", self.sampled_trials)?;
        }
        f.write_str(")")
    }
}

/// The typed outcome of a budgeted verification call.
///
/// `Proven` is only ever returned when the *configured search space was fully
/// enumerated* — a deadline, work budget, cancellation or sampling fallback
/// can refute (a found counterexample is a found counterexample) but never
/// prove.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// The swept property holds: every mask in the configured search space
    /// was examined and none violated it.
    Proven,
    /// A concrete, replayable violation was found.
    Refuted(Counterexample),
    /// The search stopped before covering its space; no claim either way.
    Indeterminate(Progress),
}

impl Verdict {
    /// `true` for [`Verdict::Proven`].
    pub fn is_proven(&self) -> bool {
        matches!(self, Verdict::Proven)
    }

    /// `true` for [`Verdict::Refuted`].
    pub fn is_refuted(&self) -> bool {
        matches!(self, Verdict::Refuted(_))
    }

    /// `true` for [`Verdict::Indeterminate`].
    pub fn is_indeterminate(&self) -> bool {
        matches!(self, Verdict::Indeterminate(_))
    }

    /// The counterexample, for [`Verdict::Refuted`].
    pub fn counterexample(&self) -> Option<&Counterexample> {
        match self {
            Verdict::Refuted(ce) => Some(ce),
            _ => None,
        }
    }

    /// The progress report, for [`Verdict::Indeterminate`].
    pub fn progress(&self) -> Option<&Progress> {
        match self {
            Verdict::Indeterminate(p) => Some(p),
            _ => None,
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Proven => f.write_str("proven"),
            Verdict::Refuted(ce) => write!(f, "refuted: {ce}"),
            Verdict::Indeterminate(p) => write!(f, "indeterminate: {p}"),
        }
    }
}

/// A sharded worker panicked mid-search.
///
/// The budgeted drivers wrap every probe in `catch_unwind`: one misbehaving
/// probe (a panicking forwarding pattern, a debug assertion tripping on a
/// hostile input) surfaces here as a typed error with the offending
/// enumeration position — and, where the driver can reconstruct it, the
/// failure set being examined — while sibling shards wind down cleanly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanicked {
    /// Enumeration position (mask index or trial index) of the panicking
    /// probe — the earliest panicking position, deterministically merged the
    /// same way counterexamples are.
    pub position: u64,
    /// The failure set under examination when the probe panicked, when the
    /// driver can reconstruct it from the position.
    pub failures: Option<FailureSet>,
    /// The panic payload, when it was a string.
    pub message: String,
}

impl fmt::Display for WorkerPanicked {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "verification worker panicked at position {}: {}",
            self.position, self.message
        )?;
        if let Some(fs) = &self.failures {
            write!(f, " (examining F = {fs})")?;
        }
        Ok(())
    }
}

impl std::error::Error for WorkerPanicked {}

/// The terminal event of one sharded search: the earliest probe that hit
/// (`Hit`) or panicked (`Panic`).  Panics participate in the same
/// earliest-position merge as hits — a sequential scan would have reached
/// the earlier event first, whichever kind it is.
#[derive(Debug)]
pub enum ShardEvent<T> {
    /// The probe returned `Some`.
    Hit(T),
    /// The probe panicked; the payload message is preserved.
    Panic(String),
}

/// What a controlled sharded search observed.
#[derive(Debug)]
pub struct ShardOutcome<T> {
    /// The earliest-position event, if any probe hit or panicked.
    pub event: Option<(u64, ShardEvent<T>)>,
    /// Total probe invocations across all workers.
    pub probes: u64,
    /// Whether any worker wound down because the stop signal fired.
    pub stopped: bool,
}

/// Extracts a printable message from a panic payload: a `catch_unwind`
/// result (pass `&*payload`) or a panic hook's `info.payload()`.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The machine's core count, read once: `available_parallelism` reads the
/// cgroup quota files on every call, and a sweep of a small graph is short
/// enough for that I/O to show.
pub fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Deterministic sharded first-hit search over the index range `0..total`,
/// with cooperative stopping and panic isolation — the workspace's one
/// worker pool.
///
/// The workers — the calling thread plus `std::thread::scope` threads, each
/// with its own worker-local state from `init` (a sweep engine, a scratch
/// buffer, …) — claim blocks of `poll_interval` consecutive indices from a
/// shared counter until the range runs out, so a worker on a busier core
/// simply claims fewer blocks.  A worker's indices therefore ascend, with
/// gaps where others worked.  Each worker reports its first `Some` as
/// `(index, value)`; the merge keeps the smallest index, so the result is
/// byte-identical to a sequential ascending scan at any thread count —
/// **provided `probe` is a pure function of `(state-as-initialized,
/// index)`** up to observable results, i.e. any state the probe result
/// depends on is a deterministic function of the index (the sweep states
/// advance monotonically through enumeration positions and reload after a
/// gap, which satisfies this).  A shared atomic of the best index lets
/// workers skip blocks past it (checked at every claim); that is an
/// optimization, never a correctness input.  Callers that want every index
/// processed (the classification batch, the supervised rebuilds) write
/// per-index results from the probe and return `None`.
///
/// The pool runs `workers` workers (`0` = [`cores`]), but never more than
/// one per `min_chunk` indices and never fewer than one.  With one worker
/// the claim loop runs on the calling thread alone: it polls at the same
/// indices, counts the same probes and reports the same events.
///
/// Robustness properties layered on top of the deterministic merge:
///
/// * **Cooperative stopping** — `stop` is polled at every claim, i.e.
///   every `poll_interval` indices (same cadence as the best-index check).
///   When it fires, every worker winds down at its next claim and the
///   outcome records `stopped`; an idle signal is checked once up front and
///   costs the hot loop nothing, keeping unbudgeted runs byte- and
///   cycle-identical.
/// * **Panic isolation** — every probe runs under `catch_unwind`.  A
///   panicking probe becomes a [`ShardEvent::Panic`] at its index,
///   participates in the earliest-position merge exactly like a hit (so the
///   reported panic is the one a sequential scan would have tripped first),
///   and makes sibling workers stop early through the shared best index.
///   The worker's state is dropped without reuse after a panic — a
///   half-updated engine overlay is never probed again.  State dropped at
///   any exit is the place to flush per-worker telemetry.
pub fn sharded_first_controlled<S, T, I, F>(
    total: u64,
    min_chunk: u64,
    poll_interval: u64,
    workers: usize,
    stop: &StopSignal,
    init: I,
    probe: F,
) -> ShardOutcome<T>
where
    S: Send,
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, u64) -> Option<T> + Sync,
{
    let stop_active = !stop.is_idle();
    let requested = if workers == 0 { cores() } else { workers };
    let workers = (requested as u64).min(total / min_chunk.max(1)).max(1);
    let best = AtomicU64::new(u64::MAX);
    let total_probes = AtomicU64::new(0);
    let any_stopped = AtomicBool::new(false);
    let next = AtomicU64::new(0);
    let run = || {
        let mut state = init();
        let mut probes = 0u64;
        let mut event = None;
        'claims: loop {
            let lo = next.fetch_add(poll_interval, Ordering::Relaxed);
            // Past the range, or a strictly smaller index already has an
            // event: no index of this block can win the merge.
            if lo >= total || best.load(Ordering::Relaxed) < lo {
                break;
            }
            if stop_active && (any_stopped.load(Ordering::Relaxed) || stop.should_stop()) {
                any_stopped.store(true, Ordering::Relaxed);
                break;
            }
            for i in lo..lo.saturating_add(poll_interval).min(total) {
                probes += 1;
                match catch_unwind(AssertUnwindSafe(|| probe(&mut state, i))) {
                    Ok(None) => {}
                    Ok(Some(t)) => {
                        best.fetch_min(i, Ordering::Relaxed);
                        event = Some((i, ShardEvent::Hit(t)));
                        break 'claims;
                    }
                    Err(payload) => {
                        best.fetch_min(i, Ordering::Relaxed);
                        event = Some((i, ShardEvent::Panic(panic_message(&*payload))));
                        break 'claims;
                    }
                }
            }
        }
        total_probes.fetch_add(probes, Ordering::Relaxed);
        event
    };
    // The calling thread is one of the workers: one thread fewer to start
    // and wake per search, and none at all for a one-worker run.
    let events: Vec<Option<(u64, ShardEvent<T>)>> = std::thread::scope(|scope| {
        let run = &run;
        let handles: Vec<_> = (1..workers).map(|_| scope.spawn(run)).collect();
        let first = run();
        std::iter::once(first)
            .chain(handles.into_iter().map(|h| {
                h.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            }))
            .collect()
    });
    ShardOutcome {
        event: events.into_iter().flatten().min_by_key(|&(i, _)| i),
        probes: total_probes.load(Ordering::Relaxed),
        stopped: any_stopped.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_stops() {
        let b = RunBudget::unlimited();
        assert!(b.is_unlimited());
        assert!(!b.deadline_expired());
        assert!(!b.cancelled());
        assert!(b.work_limit().is_none());
        assert!(b.stop_signal().is_idle());
    }

    #[test]
    fn flags_round_trip() {
        let b = RunBudget::from_flags(Some(0.0), Some(42));
        assert!(b.deadline_expired());
        assert_eq!(b.work_limit(), Some(42));
        assert!(!b.stop_signal().is_idle());
        let b = RunBudget::from_flags(None, None);
        assert!(b.is_unlimited());
    }

    #[test]
    fn cancellation_is_observable_through_the_budget() {
        let token = CancelToken::new();
        let b = RunBudget::unlimited().with_cancel_token(token.clone());
        assert!(!b.cancelled());
        token.cancel();
        assert!(b.cancelled());
        assert!(b.stop_signal().should_stop());
    }

    #[test]
    fn verdict_accessors_and_display() {
        assert!(Verdict::Proven.is_proven());
        let p = Progress {
            masks_examined: 10,
            weight_reached: 2,
            elapsed: Duration::from_millis(5),
            stopped_by: StopCause::Deadline,
            sampled_trials: 3,
        };
        let v = Verdict::Indeterminate(p.clone());
        assert!(v.is_indeterminate());
        assert_eq!(v.progress(), Some(&p));
        assert!(v.counterexample().is_none());
        let text = format!("{v}");
        assert!(text.contains("deadline"));
        assert!(text.contains("10 masks"));
        assert!(text.contains("fallback samples"));
    }

    /// Runs a never-hitting probe over `0..total` and returns how often
    /// each index was probed, plus the outcome and the workers started.
    fn visit_counts(total: u64, workers: usize) -> (Vec<u32>, ShardOutcome<()>, usize) {
        use std::sync::atomic::{AtomicU32, AtomicUsize};
        let counts: Vec<AtomicU32> = (0..total).map(|_| AtomicU32::new(0)).collect();
        let started = AtomicUsize::new(0);
        let outcome = sharded_first_controlled(
            total,
            1,
            3,
            workers,
            &StopSignal::none(),
            || started.fetch_add(1, Ordering::Relaxed),
            |_, i| {
                counts[i as usize].fetch_add(1, Ordering::Relaxed);
                None::<()>
            },
        );
        let counts = counts.into_iter().map(AtomicU32::into_inner).collect();
        (counts, outcome, started.into_inner())
    }

    #[test]
    fn runner_reports_the_earliest_panic_at_any_worker_count() {
        let panicking = [37u64, 80, 81, 150];
        let run = |workers| {
            let outcome = sharded_first_controlled(
                200,
                1,
                4,
                workers,
                &StopSignal::none(),
                || (),
                |_, i| {
                    if panicking.contains(&i) {
                        panic!("probe {i} failed");
                    }
                    None::<()>
                },
            );
            match outcome.event {
                Some((i, ShardEvent::Panic(message))) => (i, message),
                other => panic!("expected a panic event, got {other:?}"),
            }
        };
        let reference = run(1);
        assert_eq!(reference, (37, "probe 37 failed".to_string()));
        for workers in [2, 8] {
            assert_eq!(run(workers), reference, "workers = {workers}");
        }
    }

    #[test]
    fn runner_visits_every_index_once_and_honours_the_worker_count() {
        for workers in [1, 2, 8] {
            let (counts, outcome, started) = visit_counts(500, workers);
            assert!(counts.iter().all(|&c| c == 1), "workers = {workers}");
            assert_eq!(outcome.probes, 500);
            assert!(outcome.event.is_none() && !outcome.stopped);
            // An explicit count is honoured even above the core count.
            assert_eq!(started, workers);
        }
        let (_, _, started) = visit_counts(500, 0);
        assert_eq!(started, cores().min(500));
        // Never more workers than `min_chunk`-sized pieces of the range.
        let (counts, _, started) = visit_counts(2, 8);
        assert_eq!((counts, started), (vec![1, 1], 2));
    }

    #[test]
    fn runner_under_a_cancelled_token_probes_nothing() {
        let token = CancelToken::new();
        token.cancel();
        let stop = RunBudget::unlimited()
            .with_cancel_token(token)
            .stop_signal();
        for workers in [1, 2, 8] {
            let outcome =
                sharded_first_controlled(100, 1, 1, workers, &stop, || (), |_, _| Some(()));
            assert!(outcome.stopped, "workers = {workers}");
            assert_eq!(outcome.probes, 0);
            assert!(outcome.event.is_none());
        }
    }

    #[test]
    fn worker_panicked_display_names_the_mask() {
        let e = WorkerPanicked {
            position: 7,
            failures: Some(FailureSet::from_pairs(&[(0, 1)])),
            message: "boom".to_string(),
        };
        let text = format!("{e}");
        assert!(text.contains("position 7"));
        assert!(text.contains("boom"));
        assert!(text.contains("v0-v1"));
    }
}
