//! Cooperative termination of search engines.
//!
//! The paper's multi-walk scheme has "no communication between the
//! simultaneous computations *except for completion*": the only signal a walk
//! ever receives is "someone else finished, stop now".  [`StopControl`]
//! carries exactly that signal (a shared atomic flag), plus an optional
//! wall-clock deadline (a batch's timeout).

use std::sync::atomic::{AtomicBool, Ordering};
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

/// Shared, cheaply clonable stop signal: the engine reads its flags every
/// iteration and its deadline every `stop_check_interval` iterations.
///
/// Besides the *shared* flag (raised by [`request_stop`](Self::request_stop)
/// for every sibling walk at once), a control can carry a *local* flag
/// attached with [`and_local_flag`](Self::and_local_flag): a kill switch for
/// this one walk that a supervisor raises to cancel a stalled search without
/// disturbing its siblings.  Both flags read as an externally requested stop.
#[derive(Debug, Clone)]
pub struct StopControl {
    flag: Arc<AtomicBool>,
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
            flag: Arc::new(AtomicBool::new(false)),
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
            flag: Arc::new(AtomicBool::new(false)),
            local: None,
            deadline: Some(deadline),
        }
    }

    /// Attach a walk-local kill flag to this control.
    ///
    /// The supervision layer gives each walk its own flag on top of the
    /// batch-shared one: raising it cancels exactly that walk (the engine
    /// reports [`ExternallyStopped`](crate::TerminationReason)) while its
    /// siblings keep running.  [`request_stop`](Self::request_stop) still
    /// raises only the shared flag.
    #[must_use]
    pub fn and_local_flag(mut self, flag: Arc<AtomicBool>) -> Self {
        self.local = Some(flag);
        self
    }

    /// Whether the deadline (and only the deadline — the flag is ignored)
    /// has passed.
    #[must_use]
    pub fn deadline_passed(&self) -> bool {
        match self.deadline {
            Some(d) => monotonic_now() >= d,
            None => false,
        }
    }

    /// Request that every engine sharing this control stop at its next
    /// iteration.
    pub fn request_stop(&self) {
        // Release: pairs with the Acquire loads below so a stopping walk's
        // writes (its outcome) happen-before any walk that observes the flag.
        self.flag.store(true, Ordering::Release);
    }

    /// Whether a stop has been requested (does not consider the deadline).
    /// Either flag counts: a batch-wide stop and a walk-local kill both read
    /// as an external request, so the engine reports `ExternallyStopped`
    /// rather than `TimedOut` for a supervisor-cancelled walk.
    #[must_use]
    pub fn stop_requested(&self) -> bool {
        // Acquire: pairs with the Release store in `request_stop` (and in a
        // supervisor raising the local kill flag).
        self.flag.load(Ordering::Acquire)
            // Acquire: same pairing as the shared flag above.
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
        assert!(!c.stop_requested());
        assert!(!c.deadline_passed());
    }

    #[test]
    fn request_stop_is_visible() {
        let c = StopControl::new();
        c.request_stop();
        assert!(c.stop_requested());
    }

    #[test]
    fn clones_share_the_flag() {
        let a = StopControl::new();
        let b = a.clone();
        let c = b.clone();
        b.request_stop();
        assert!(a.stop_requested());
        assert!(c.stop_requested());
    }

    #[test]
    fn timeout_eventually_fires() {
        let c = StopControl::with_timeout(Duration::from_millis(10));
        assert!(!c.deadline_passed());
        thread::sleep(Duration::from_millis(20));
        assert!(c.deadline_passed());
        // the flag itself is still untouched: only the deadline fired
        assert!(!c.stop_requested());
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
        // A deadline never raises the flag, for the control or its clones.
        assert!(!past.stop_requested());
        assert!(!past.clone().stop_requested());
    }

    #[test]
    fn local_flag_stops_only_its_own_control() {
        let shared = StopControl::new();
        let kill = Arc::new(AtomicBool::new(false));
        let killed = shared.clone().and_local_flag(Arc::clone(&kill));
        assert!(!killed.stop_requested());

        // Release: pairs with the Acquire loads in `stop_requested`.
        kill.store(true, Ordering::Release);
        // A local kill reads as an externally requested stop...
        assert!(killed.stop_requested());
        // ...but never leaks into the sibling-shared control.
        assert!(!shared.stop_requested());

        // The shared flag still reaches the killed walk's control.
        shared.request_stop();
        assert!(killed.stop_requested());
    }

    #[test]
    fn stop_propagates_across_threads() {
        let c = StopControl::new();
        let c2 = c.clone();
        let handle = thread::spawn(move || {
            c2.request_stop();
        });
        handle.join().unwrap();
        assert!(c.stop_requested());
    }
}
