//! Cooperative deadlines and cancellation for the search loop.
//!
//! A search has one wall-clock limit, [`OptimizerConfig::budget`], and
//! two evaluation caps, `max_evals` and [`SearchBudget`]'s candidate
//! limit. Together with a [`CancelToken`] they make the search
//! *anytime*: a search that runs out of wall clock, exhausts its
//! candidate allowance, or is cancelled from outside stops and returns
//! its best-so-far incumbent with a truthful
//! [`StopReason`](crate::optimizer::StopReason) (`Deadline` /
//! `EvalCapReached` / `Cancelled`) instead of being killed.
//!
//! All checks are cooperative: the search polls at expansion
//! boundaries and inside the parallel fan-out (a worker that observes
//! the deadline or the cancellation skips its candidate, and the merge
//! discards everything from the first skip on). Cancellation therefore
//! never interrupts a candidate mid-evaluation and never corrupts
//! search state — the incumbent, frontier, and counters remain
//! checkpointable.
//!
//! The token doubles as the search's **heartbeat**: the merge thread
//! bumps a monotonic beat counter once per merged evaluation and once
//! per expansion, so an external watchdog (`magis-serve`'s stall check) can
//! distinguish a slow-but-alive search from a stalled one without
//! instrumenting the search itself.
//!
//! [`OptimizerConfig::budget`]: crate::optimizer::OptimizerConfig::budget

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// The deterministic stopping contract of one search: a hard
/// candidate-evaluation cap. The default is unlimited (`max_evals`
/// still applies).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchBudget {
    /// Hard cap on candidate evaluations, checked **only at expansion
    /// boundaries**: every expansion merges its full candidate batch
    /// atomically, so the evaluated count may overshoot the limit by
    /// up to one batch (unlike the legacy `max_evals`, which truncates
    /// mid-expansion). Boundary-only semantics plus cumulative
    /// counters (checkpoints carry them) make this the deterministic
    /// stopping knob for bit-exact kill/resume: a run stopped at limit
    /// k and resumed to limit n passes through exactly the same
    /// expansion-boundary states as an uninterrupted run to n.
    pub candidate_limit: Option<usize>,
}

impl SearchBudget {
    /// No candidate cap.
    pub const UNLIMITED: SearchBudget = SearchBudget { candidate_limit: None };

    /// Sets the candidate-evaluation cap (0 is treated as "stop
    /// immediately after the seed evaluation").
    pub fn with_candidate_limit(mut self, limit: usize) -> Self {
        self.candidate_limit = Some(limit);
        self
    }
}

#[derive(Debug, Default)]
struct TokenInner {
    cancelled: AtomicBool,
    beats: AtomicU64,
}

/// Shared cooperative cancellation token with a progress heartbeat.
///
/// Clones share one flag: any holder may [`cancel`](Self::cancel), and
/// the search polls [`is_cancelled`](Self::is_cancelled) at expansion
/// boundaries and inside the evaluation fan-out. The search bumps
/// [`beat`](Self::beat) as it merges evaluations; watchdogs read
/// [`beats`](Self::beats) to detect stalls.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

impl CancelToken {
    /// A fresh, un-cancelled token with a zeroed heartbeat.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::SeqCst)
    }

    /// Bumps the heartbeat (called by the search's merge thread).
    pub fn beat(&self) {
        self.inner.beats.fetch_add(1, Ordering::Relaxed);
    }

    /// Monotonic heartbeat count (read by watchdogs).
    pub fn beats(&self) -> u64 {
        self.inner.beats.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_is_shared_across_clones() {
        let t = CancelToken::new();
        let u = t.clone();
        assert!(!u.is_cancelled());
        t.cancel();
        assert!(u.is_cancelled());
        t.cancel(); // idempotent
        assert!(t.is_cancelled());
    }

    #[test]
    fn heartbeat_is_monotonic_and_shared() {
        let t = CancelToken::new();
        let u = t.clone();
        assert_eq!(t.beats(), 0);
        t.beat();
        u.beat();
        assert_eq!(t.beats(), 2);
    }

    #[test]
    fn candidate_limit_builder_sets_the_cap() {
        assert_eq!(SearchBudget::default(), SearchBudget::UNLIMITED);
        assert_eq!(SearchBudget::UNLIMITED.with_candidate_limit(64).candidate_limit, Some(64));
    }
}
