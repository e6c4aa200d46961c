//! Batch supervision state: fault taxonomy, anytime incumbents, heartbeats,
//! per-walk kill switches and the stall rule.
//!
//! A [`Supervision`] table is the executor-side half of the resilience
//! contract (the policy half — retries — lives in `cbls-resilience`).  One
//! table is sized for one batch and carries, per walk:
//!
//! * a [`BestSoFar`] slot the engine publishes strict improvements into
//!   (anytime incumbents that survive panics and deadlines);
//! * an atomic heartbeat counter ticked at every engine stop-poll, whose
//!   reading a stalled walk's fault reports;
//! * a kill flag wired into the walk's [`StopControl`](cbls_core::StopControl)
//!   as its local flag, letting the executor cancel exactly one walk.
//!
//! The stall rule is the executor's: a supervised walk advances one
//! `stop_check_interval` of iterations per slice, and the worker that runs a
//! slice times it.  A slice that runs longer than [`STALL_WINDOW`] raises
//! the walk's kill flag, and the walk stops at its next iteration.  A walk
//! waiting for its next slice runs no slice, so it is never timed.
//!
//! Everything here is passive bookkeeping: attaching a table changes no
//! trajectory, no RNG stream and no winner (the throughput harness prices
//! the fault-free overhead and CI holds it under the same ≤5% budget as the
//! flight recorder).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cbls_core::BestSoFar;
use serde::{Deserialize, Serialize};

/// The longest a supervised walk's slice may run before the walk counts as
/// stalled.  A slice is one `stop_check_interval` of iterations, so the
/// window must comfortably exceed the slowest healthy interval; 200 ms is
/// orders of magnitude above the microseconds a typical one takes.
pub const STALL_WINDOW: Duration = Duration::from_millis(200);

/// A structured fault attached to a [`WalkRecord`](crate::WalkRecord).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum WalkFault {
    /// The walk's engine (usually its evaluator) panicked; the payload is
    /// the panic message, if it was a string.
    Panicked {
        /// The panic payload rendered as text (`"<non-string panic>"` when
        /// the payload was not a `&str` / `String`).
        message: String,
    },
    /// One slice of the walk ran longer than [`STALL_WINDOW`], and the
    /// executor cancelled the walk.
    Stalled {
        /// The heartbeat reading at which the walk was declared stalled.
        heartbeats: u64,
    },
}

impl WalkFault {
    /// The fault's payload-free classification (the form telemetry events
    /// carry).
    #[must_use]
    pub fn kind(&self) -> FaultKind {
        match self {
            WalkFault::Panicked { .. } => FaultKind::Panicked,
            WalkFault::Stalled { .. } => FaultKind::Stalled,
        }
    }
}

/// Payload-free fault classification, carried by
/// [`WalkEvent::Faulted`](crate::WalkEvent::Faulted).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// See [`WalkFault::Panicked`].
    Panicked,
    /// See [`WalkFault::Stalled`].
    Stalled,
}

/// Why a batch returned a partial (anytime) result instead of a winner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DegradationReason {
    /// The batch deadline passed before any walk solved.
    DeadlineExpired,
    /// One or more walks faulted (panicked or stalled).
    WalkFaults,
    /// Both: the deadline passed *and* walks faulted.
    DeadlineExpiredWithFaults,
}

/// Per-walk supervision state for one batch; see the module docs.
pub struct Supervision {
    best: BestSoFar,
    heartbeats: Vec<AtomicU64>,
    kills: Vec<Arc<AtomicBool>>,
}

impl Supervision {
    /// Fresh supervision state for `walks` walks.
    #[must_use]
    pub fn new(walks: usize) -> Self {
        Self {
            best: BestSoFar::new(walks),
            heartbeats: (0..walks).map(|_| AtomicU64::new(0)).collect(),
            kills: (0..walks)
                .map(|_| Arc::new(AtomicBool::new(false)))
                .collect(),
        }
    }

    /// Number of supervised walks.
    #[must_use]
    pub fn walks(&self) -> usize {
        self.heartbeats.len()
    }

    /// The anytime best-so-far table.
    #[must_use]
    pub fn best(&self) -> &BestSoFar {
        &self.best
    }

    /// Tick walk `walk_id`'s heartbeat (called from the engine's stop-poll
    /// site; out-of-range ids are ignored).
    pub fn beat(&self, walk_id: usize) {
        if let Some(counter) = self.heartbeats.get(walk_id) {
            // Relaxed: a monotonic liveness count that publishes no other
            // memory; a stall report reads it after the executor's joins.
            counter.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Walk `walk_id`'s heartbeat reading (0 for out-of-range ids).
    #[must_use]
    pub fn heartbeat_of(&self, walk_id: usize) -> u64 {
        self.heartbeats
            .get(walk_id)
            // Relaxed: see `beat`.
            .map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// The kill flag to wire into walk `walk_id`'s `StopControl` as its
    /// local flag.
    ///
    /// # Panics
    ///
    /// Panics if `walk_id` is out of range.
    #[must_use]
    pub fn kill_flag_of(&self, walk_id: usize) -> Arc<AtomicBool> {
        Arc::clone(&self.kills[walk_id])
    }

    /// Cancel walk `walk_id` (no-op for out-of-range ids): the executor's
    /// verdict on a slice that overran [`STALL_WINDOW`].
    pub(crate) fn kill(&self, walk_id: usize) {
        if let Some(flag) = self.kills.get(walk_id) {
            // Release: pairs with the Acquire poll in `StopControl` and the
            // Acquire load in `killed`.
            flag.store(true, Ordering::Release);
        }
    }

    /// Whether walk `walk_id` was cancelled through its kill flag.
    #[must_use]
    pub fn killed(&self, walk_id: usize) -> bool {
        self.kills
            .get(walk_id)
            // Acquire: pairs with the Release store in `kill`.
            .is_some_and(|f| f.load(Ordering::Acquire))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_kinds_classify() {
        let panic = WalkFault::Panicked {
            message: "boom".to_string(),
        };
        assert_eq!(panic.kind(), FaultKind::Panicked);
        let stall = WalkFault::Stalled { heartbeats: 17 };
        assert_eq!(stall.kind(), FaultKind::Stalled);
    }

    #[test]
    fn faults_and_degradation_round_trip_through_serde() {
        let faults = vec![
            WalkFault::Panicked {
                message: "injected".to_string(),
            },
            WalkFault::Stalled { heartbeats: 3 },
        ];
        let json = serde_json::to_string(&faults).unwrap();
        let back: Vec<WalkFault> = serde_json::from_str(&json).unwrap();
        assert_eq!(faults, back);

        let reasons = vec![
            DegradationReason::DeadlineExpired,
            DegradationReason::WalkFaults,
            DegradationReason::DeadlineExpiredWithFaults,
        ];
        let json = serde_json::to_string(&reasons).unwrap();
        let back: Vec<DegradationReason> = serde_json::from_str(&json).unwrap();
        assert_eq!(reasons, back);
    }

    #[test]
    fn heartbeats_tick_independently() {
        let sup = Supervision::new(2);
        assert_eq!(sup.walks(), 2);
        sup.beat(0);
        sup.beat(0);
        sup.beat(1);
        sup.beat(7); // out of range: ignored
        assert_eq!(sup.heartbeat_of(0), 2);
        assert_eq!(sup.heartbeat_of(1), 1);
        assert_eq!(sup.heartbeat_of(7), 0);
    }

    #[test]
    fn kill_flags_are_per_walk() {
        let sup = Supervision::new(2);
        assert!(!sup.killed(0));
        sup.kill(0);
        sup.kill(9); // out of range: ignored
        assert!(sup.killed(0));
        assert!(!sup.killed(1));
        // The exported flag is the same object the table reads.
        let flag = sup.kill_flag_of(1);
        // Release: pairs with the Acquire load in `killed`.
        flag.store(true, Ordering::Release);
        assert!(sup.killed(1));
    }

    #[test]
    fn incumbents_flow_through_the_best_table() {
        let sup = Supervision::new(2);
        assert_eq!(sup.best().best_of(1), None);
        sup.best().publish(1, 4, &[1, 0]);
        assert_eq!(sup.best().best_of(1), Some((4, vec![1, 0])));
        assert_eq!(sup.best().best_of(0), None);
    }
}
