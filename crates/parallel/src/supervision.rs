//! Batch supervision state: fault taxonomy, anytime incumbents, heartbeats
//! and per-walk kill switches.
//!
//! A [`Supervision`] table is the executor-side half of the resilience
//! contract (the policy half — retries, watchdog cadence — lives in
//! `cbls-resilience`).  One table is sized for one batch and carries, per
//! walk:
//!
//! * a [`BestSoFar`] slot the engine publishes strict improvements into
//!   (anytime incumbents that survive panics and deadlines);
//! * an atomic heartbeat counter ticked at every engine stop-poll, so a
//!   watchdog can distinguish "still searching" from "stuck inside the
//!   evaluator";
//! * a kill flag wired into the walk's [`StopControl`](cbls_core::StopControl)
//!   as its local flag, letting a supervisor cancel exactly one walk;
//! * a done flag the executor raises when the walk returns, so a watchdog
//!   never mistakes "finished" for "stalled".
//!
//! Everything here is passive bookkeeping: attaching a table changes no
//! trajectory, no RNG stream and no winner (the throughput harness prices
//! the fault-free overhead and CI holds it under the same ≤5% budget as the
//! flight recorder).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use cbls_core::{BestSoFar, Incumbent};
use serde::{Deserialize, Serialize};

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
    /// The walk's heartbeat stopped advancing and a supervisor cancelled it.
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
    started: Vec<AtomicBool>,
    done: Vec<AtomicBool>,
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
            started: (0..walks).map(|_| AtomicBool::new(false)).collect(),
            done: (0..walks).map(|_| AtomicBool::new(false)).collect(),
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

    /// The best published assignment across all walks, if any.
    #[must_use]
    pub fn incumbent(&self) -> Option<Incumbent> {
        self.best.incumbent()
    }

    /// Tick walk `walk_id`'s heartbeat (called from the engine's stop-poll
    /// site; out-of-range ids are ignored).
    pub fn beat(&self, walk_id: usize) {
        if let Some(counter) = self.heartbeats.get(walk_id) {
            // Relaxed: a monotonic liveness counter; the watchdog only
            // compares successive readings, no other memory is published.
            counter.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Walk `walk_id`'s heartbeat reading (0 for out-of-range ids).
    #[must_use]
    pub fn heartbeat_of(&self, walk_id: usize) -> u64 {
        self.heartbeats
            .get(walk_id)
            // Relaxed: see `beat` — successive readings only.
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

    /// Cancel walk `walk_id` (no-op for out-of-range ids).
    pub fn kill(&self, walk_id: usize) {
        if let Some(flag) = self.kills.get(walk_id) {
            // Release: pairs with the Acquire poll in `StopControl`, so the
            // killed walk observes whatever the supervisor wrote before
            // deciding to cancel it.
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

    /// Mark walk `walk_id` as running (raised by the executor as the walk
    /// begins; no-op for out-of-range ids).  A watchdog only monitors
    /// started walks, so batches queued behind a full pool — or behind a
    /// sequential back-end's earlier walks — are never declared stalled.
    pub fn mark_started(&self, walk_id: usize) {
        if let Some(flag) = self.started.get(walk_id) {
            // Release: pairs with the Acquire load in `is_started`.
            flag.store(true, Ordering::Release);
        }
    }

    /// Whether walk `walk_id` has begun running.
    #[must_use]
    pub fn is_started(&self, walk_id: usize) -> bool {
        self.started
            .get(walk_id)
            // Acquire: pairs with the Release store in `mark_started`.
            .is_some_and(|f| f.load(Ordering::Acquire))
    }

    /// Mark walk `walk_id` as returned (raised by the executor right after
    /// the walk's record exists; no-op for out-of-range ids).
    pub fn mark_done(&self, walk_id: usize) {
        if let Some(flag) = self.done.get(walk_id) {
            // Release: pairs with the Acquire load in `is_done`, so a
            // watchdog that sees `done` also sees the walk's final state.
            flag.store(true, Ordering::Release);
        }
    }

    /// Whether walk `walk_id` has returned.
    #[must_use]
    pub fn is_done(&self, walk_id: usize) -> bool {
        self.done
            .get(walk_id)
            // Acquire: pairs with the Release store in `mark_done`.
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
    fn kill_and_done_flags_are_per_walk() {
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

        assert!(!sup.is_done(0));
        sup.mark_done(0);
        assert!(sup.is_done(0));
        assert!(!sup.is_done(1));

        assert!(!sup.is_started(0));
        sup.mark_started(0);
        assert!(sup.is_started(0));
        assert!(!sup.is_started(1));
    }

    #[test]
    fn incumbents_flow_through_the_best_table() {
        let sup = Supervision::new(2);
        assert!(sup.incumbent().is_none());
        sup.best().publish(1, 4, &[1, 0]);
        let inc = sup.incumbent().unwrap();
        assert_eq!((inc.walk_id, inc.cost), (1, 4));
    }
}
