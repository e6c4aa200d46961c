//! Cooperative termination of search engines.
//!
//! The paper's multi-walk scheme has "no communication between the
//! simultaneous computations *except for completion*".  [`StopControl`]
//! carries completion as a shared iteration bound: a walk that solves at
//! iteration `t` lowers the bound to `t`, and every sibling stops once it has
//! done `t` iterations, when it can no longer beat the solver.  A control
//! also carries an optional wall-clock deadline (a batch's timeout).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The workspace's single wall-clock read point.
///
/// Everything outside this module (and the measurement-only `cbls-bench`
/// crate) obtains monotonic timestamps here instead of calling
/// `Instant::now()` directly, so that every deadline comparison in a
/// multi-walk batch is anchored to the same clock discipline as
/// [`StopControl`] — `cbls-lint`'s `no-wallclock-outside-stop` rule enforces
/// the funnel.
#[must_use]
pub fn monotonic_now() -> Instant {
    Instant::now()
}

/// Shared, cheaply clonable stop signal: the engine reads its bound and
/// flag every iteration and its deadline every `stop_check_interval`
/// iterations.
///
/// The *shared* bound starts at `u64::MAX` and only falls:
/// [`stop_at(t)`](Self::stop_at) stops every sibling walk once it has done
/// `t` iterations, and `stop_at(0)` stops them all at their next iteration.
/// A control can also carry a *local* flag attached with
/// [`and_local_flag`](Self::and_local_flag): a kill switch for this one walk
/// that a supervisor raises to cancel a stalled search without disturbing
/// its siblings.  Both read as an externally requested stop.
#[derive(Debug, Clone)]
pub struct StopControl {
    bound: Arc<AtomicU64>,
    local: Option<Arc<AtomicBool>>,
    deadline: Option<Instant>,
}

impl Default for StopControl {
    fn default() -> Self {
        Self::new()
    }
}

impl StopControl {
    /// A stop control that never fires on its own.
    #[must_use]
    pub fn new() -> Self {
        Self {
            bound: Arc::new(AtomicU64::new(u64::MAX)),
            local: None,
            deadline: None,
        }
    }

    /// A stop control that fires after `timeout` of wall-clock time.
    #[must_use]
    pub fn with_timeout(timeout: Duration) -> Self {
        Self::with_deadline(monotonic_now() + timeout)
    }

    /// A stop control that fires at a fixed monotonic `deadline`.
    ///
    /// This is the form the multi-walk executor uses: the deadline is
    /// computed *once* when a batch starts, so every walk — whatever thread
    /// or scheduling back-end it runs on, and however late it is launched —
    /// self-cancels at the same instant.  A deadline already in the past
    /// stops the run at its first poll.
    #[must_use]
    pub fn with_deadline(deadline: Instant) -> Self {
        Self {
            deadline: Some(deadline),
            ..Self::new()
        }
    }

    /// Attach a walk-local kill flag to this control.
    ///
    /// The supervision layer gives each walk its own flag on top of the
    /// batch-shared one: raising it cancels exactly that walk (the engine
    /// reports [`ExternallyStopped`](crate::TerminationReason)) while its
    /// siblings keep running.  [`stop_at`](Self::stop_at) still lowers only
    /// the shared bound.
    #[must_use]
    pub fn and_local_flag(mut self, flag: Arc<AtomicBool>) -> Self {
        self.local = Some(flag);
        self
    }

    /// Whether the deadline (and only the deadline — the bound and the flag
    /// are ignored) has passed.
    #[must_use]
    pub fn deadline_passed(&self) -> bool {
        match self.deadline {
            Some(d) => monotonic_now() >= d,
            None => false,
        }
    }

    /// Stop every engine sharing this control once it has done `iterations`
    /// iterations.  The bound only falls: a later, larger `iterations`
    /// leaves it where it is.
    pub fn stop_at(&self, iterations: u64) {
        // Release: pairs with the Acquire load in `should_stop`, so a walk
        // that lowers the bound publishes its writes (its outcome) to every
        // walk that stops on it.
        self.bound.fetch_min(iterations, Ordering::Release);
    }

    /// Whether an engine that has done `iterations` iterations must stop:
    /// the shared bound is at or below `iterations`, or the local flag is
    /// raised.  The deadline is not considered.  Both read as an external
    /// request, so the engine reports `ExternallyStopped` rather than
    /// `TimedOut` for a supervisor-cancelled walk.
    #[must_use]
    pub fn should_stop(&self, iterations: u64) -> bool {
        // Acquire: pairs with the Release `fetch_min` in `stop_at`.
        iterations >= self.bound.load(Ordering::Acquire)
            // Acquire: pairs with the Release store of a supervisor raising
            // the local kill flag.
            || self.local.as_ref().is_some_and(|f| f.load(Ordering::Acquire))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn fresh_control_does_not_stop() {
        let c = StopControl::new();
        assert!(!c.should_stop(0));
        assert!(!c.should_stop(u64::MAX - 1));
        assert!(!c.deadline_passed());
    }

    #[test]
    fn a_bound_stops_at_its_count_and_only_falls() {
        let c = StopControl::new();
        c.stop_at(20);
        assert!(!c.should_stop(19));
        assert!(c.should_stop(20));
        assert!(c.should_stop(21));
        // A larger bound leaves the lower one in place.
        c.stop_at(50);
        assert!(c.should_stop(20));
        // Zero stops an engine at any count.
        c.stop_at(0);
        assert!(c.should_stop(0));
    }

    #[test]
    fn clones_share_the_bound() {
        let a = StopControl::new();
        let b = a.clone();
        let c = b.clone();
        b.stop_at(7);
        assert!(a.should_stop(7));
        assert!(c.should_stop(7));
        assert!(!c.should_stop(6));
    }

    #[test]
    fn timeout_eventually_fires() {
        let c = StopControl::with_timeout(Duration::from_millis(10));
        assert!(!c.deadline_passed());
        thread::sleep(Duration::from_millis(20));
        assert!(c.deadline_passed());
        // the bound itself is still untouched: only the deadline fired
        assert!(!c.should_stop(0));
    }

    #[test]
    fn zero_timeout_stops_immediately() {
        let c = StopControl::with_timeout(Duration::ZERO);
        assert!(c.deadline_passed());
    }

    #[test]
    fn deadline_passed_reads_only_the_deadline() {
        assert!(!StopControl::new().deadline_passed());
        let future = StopControl::with_deadline(monotonic_now() + Duration::from_secs(3600));
        assert!(!future.deadline_passed());

        let past = StopControl::with_deadline(monotonic_now() - Duration::from_millis(1));
        assert!(past.deadline_passed());
        // A deadline never lowers the bound, for the control or its clones.
        assert!(!past.should_stop(0));
        assert!(!past.clone().should_stop(0));
    }

    #[test]
    fn local_flag_stops_only_its_own_control() {
        let shared = StopControl::new();
        let kill = Arc::new(AtomicBool::new(false));
        let killed = shared.clone().and_local_flag(Arc::clone(&kill));
        assert!(!killed.should_stop(0));

        // Release: pairs with the Acquire loads in `should_stop`.
        kill.store(true, Ordering::Release);
        // A local kill reads as an externally requested stop...
        assert!(killed.should_stop(0));
        // ...but never leaks into the sibling-shared control.
        assert!(!shared.should_stop(0));

        // The shared bound still reaches the killed walk's control.
        let unkilled = shared
            .clone()
            .and_local_flag(Arc::new(AtomicBool::new(false)));
        shared.stop_at(3);
        assert!(unkilled.should_stop(3));
        assert!(!unkilled.should_stop(2));
    }

    #[test]
    fn stop_propagates_across_threads() {
        let c = StopControl::new();
        let c2 = c.clone();
        let handle = thread::spawn(move || {
            c2.stop_at(0);
        });
        handle.join().unwrap();
        assert!(c.should_stop(0));
    }
}
