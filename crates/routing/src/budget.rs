//! The run-budget control layer: wall-clock deadlines, work-unit budgets and
//! cooperative cancellation for every long-running verification call.
//!
//! Every checker in this workspace answers an exponential question (`2^m`
//! failure-mask sweeps, budgeted minor search).  The checks built on this
//! module ([`crate::resilience::check`], the brute-force adversary's
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
//!   shards wind down cleanly instead of taking the process with them.
//!
//! A [`RunBudget::unlimited`] run is the plain exhaustive answer: it sweeps
//! the whole space and returns `Proven` or `Refuted`, with the same
//! canonical first counterexample at any thread count.

use crate::adversary::Counterexample;
use crate::failure::FailureSet;
pub use frr_graph::budget::{CancelToken, StopSignal};
use std::fmt;
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
    /// The graph exceeds the exhaustive sweep's edge limit, so only the
    /// sampling fallback ran.
    EdgeLimit,
}

impl fmt::Display for StopCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            StopCause::Deadline => "deadline expired",
            StopCause::WorkBudget => "work budget spent",
            StopCause::Cancelled => "cancelled",
            StopCause::EdgeLimit => "edge limit (sampling fallback only)",
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
