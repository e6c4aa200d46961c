//! Walk-level event telemetry.
//!
//! Every batch run through a [`WalkExecutor`](crate::WalkExecutor) can emit a
//! live stream of [`WalkEvent`]s — one `Started` and one `Finished` per walk,
//! plus `Restarted` / `ImprovedCost` events forwarded from the engine's
//! [`SearchObserver`](cbls_core::SearchObserver) hooks.  Consumers implement
//! [`EventSink`]; the crate ships [`EventLog`], which collects every event
//! (ordered per walk, interleaved across walks in arrival order).  A
//! batch's run-length distribution comes from its records, not from a sink:
//! [`SimulatedMultiWalk::iteration_distribution`](crate::SimulatedMultiWalk::iteration_distribution).
//!
//! The event contract (also documented in the README):
//!
//! | event          | fired                                             |
//! |----------------|---------------------------------------------------|
//! | `Started`      | once per walk, before its first iteration         |
//! | `Restarted`    | once per engine restart (1-based index)           |
//! | `ImprovedCost` | once per strict improvement of the walk's best    |
//! | `Finished`     | once per walk, after its outcome is known         |
//! | `Faulted`      | once per detected fault (panic or stall)          |
//! | `Retried`      | once per supervised retry of a faulted walk       |
//!
//! Telemetry is passive: a run with any sink attached is bit-identical (same
//! winner, same iteration counts, same RNG streams) to the same run without.

use std::sync::Mutex;

use cbls_core::SearchPhase;
use serde::{Deserialize, Serialize};

use crate::supervision::{FaultKind, Supervision};

/// One telemetry event of a multi-walk batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WalkEvent {
    /// A walk is about to perform its first iteration.
    Started {
        /// Walk index within the batch.
        walk_id: usize,
        /// The walk's derived 64-bit seed.
        seed: u64,
    },
    /// A walk's engine began restart `restart` (1-based; the initial try is
    /// covered by `Started`).
    Restarted {
        /// Walk index within the batch.
        walk_id: usize,
        /// 1-based restart index.
        restart: u64,
    },
    /// A walk strictly improved its best cost.
    ImprovedCost {
        /// Walk index within the batch.
        walk_id: usize,
        /// Engine iterations performed when the improvement was reached.
        iteration: u64,
        /// The new best cost.
        cost: i64,
    },
    /// A walk finished (solved, budget exhausted, stopped or timed out).
    Finished {
        /// Walk index within the batch.
        walk_id: usize,
        /// Whether the walk reached its target cost.
        solved: bool,
        /// Total engine iterations the walk performed.
        iterations: u64,
        /// The walk's final best cost.
        cost: i64,
    },
    /// A fault was detected on a walk (the payload-free classification; the
    /// full [`WalkFault`](crate::WalkFault) lives on the walk's record).
    Faulted {
        /// Walk index within the batch.
        walk_id: usize,
        /// Fault classification.
        kind: FaultKind,
        /// Which attempt faulted (0 = the original run).
        attempt: u32,
    },
    /// A supervisor rescheduled a faulted walk.
    Retried {
        /// Walk index within the batch.
        walk_id: usize,
        /// The retry's attempt index (≥ 1).
        attempt: u32,
        /// The deterministically rederived seed of the retry stream.
        seed: u64,
    },
}

impl WalkEvent {
    /// The walk this event belongs to.
    #[must_use]
    pub fn walk_id(&self) -> usize {
        match self {
            WalkEvent::Started { walk_id, .. }
            | WalkEvent::Restarted { walk_id, .. }
            | WalkEvent::ImprovedCost { walk_id, .. }
            | WalkEvent::Finished { walk_id, .. }
            | WalkEvent::Faulted { walk_id, .. }
            | WalkEvent::Retried { walk_id, .. } => *walk_id,
        }
    }
}

/// A consumer of [`WalkEvent`]s.
///
/// Sinks are shared by every walk of a batch, possibly across threads, so
/// recording takes `&self` and implementations must be `Sync` (interior
/// mutability where state is kept).  Events from one walk arrive in order;
/// events from different walks interleave in wall-clock arrival order.
pub trait EventSink: Sync {
    /// Consume one event.
    fn record(&self, event: &WalkEvent);

    /// Whether this sink wants per-iteration phase spans from the engines it
    /// observes.  Read once per walk before its first iteration (forwarded
    /// to [`SearchObserver::observes_phases`](cbls_core::SearchObserver::observes_phases)),
    /// so the answer must be constant for the lifetime of a batch; the
    /// default declines and keeps the engine hot loop span-free.
    fn observes_phases(&self) -> bool {
        false
    }

    /// Consume one phase span of walk `walk_id`: `elapsed_nanos` monotonic
    /// nanoseconds spent in `phase`.  Only called when
    /// [`observes_phases`](Self::observes_phases) returned `true`; unlike the
    /// cold-edge [`record`](Self::record) this fires on the hot path, so
    /// implementations must stay cheap and alloc-free.
    fn observe_phase(&self, walk_id: usize, phase: SearchPhase, elapsed_nanos: u64) {
        let _ = (walk_id, phase, elapsed_nanos);
    }
}

/// A sink that remembers every event it sees.
///
/// ```
/// use cbls_parallel::{EventLog, EventSink, WalkEvent};
///
/// let log = EventLog::new();
/// log.record(&WalkEvent::Started { walk_id: 0, seed: 42 });
/// log.record(&WalkEvent::Finished { walk_id: 0, solved: true, iterations: 7, cost: 0 });
/// assert_eq!(log.len(), 2);
/// assert_eq!(log.events_of(0).len(), 2);
/// ```
#[derive(Debug, Default)]
pub struct EventLog {
    events: Mutex<Vec<WalkEvent>>,
}

impl EventLog {
    /// An empty log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of events recorded so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.lock().expect("event log poisoned").len()
    }

    /// Whether no event has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of every recorded event, in arrival order.
    #[must_use]
    pub fn snapshot(&self) -> Vec<WalkEvent> {
        self.events.lock().expect("event log poisoned").clone()
    }

    /// The events of one walk, in the order the walk emitted them.
    #[must_use]
    pub fn events_of(&self, walk_id: usize) -> Vec<WalkEvent> {
        self.events
            .lock()
            .expect("event log poisoned")
            .iter()
            .filter(|e| e.walk_id() == walk_id)
            .copied()
            .collect()
    }
}

impl EventSink for EventLog {
    fn record(&self, event: &WalkEvent) {
        self.events.lock().expect("event log poisoned").push(*event);
    }
}

/// The engine-side observer of one walk: forwards
/// [`SearchObserver`](cbls_core::SearchObserver) hooks to the batch's sink as
/// [`WalkEvent`]s, and — when the batch is supervised — publishes anytime
/// incumbents and liveness heartbeats into the batch's [`Supervision`]
/// table.  With no sink and no supervision attached every hook is a skipped
/// branch, so unobserved batches pay nothing on the engine's cold edges.
pub(crate) struct WalkObserver<'a> {
    pub(crate) walk_id: usize,
    pub(crate) sink: Option<&'a dyn EventSink>,
    pub(crate) supervision: Option<&'a Supervision>,
}

impl cbls_core::SearchObserver for WalkObserver<'_> {
    fn on_restart(&mut self, restart: u64) {
        if let Some(sink) = self.sink {
            sink.record(&WalkEvent::Restarted {
                walk_id: self.walk_id,
                restart,
            });
        }
    }

    fn on_new_best(&mut self, iteration: u64, cost: i64, assignment: &[usize]) {
        if let Some(sink) = self.sink {
            sink.record(&WalkEvent::ImprovedCost {
                walk_id: self.walk_id,
                iteration,
                cost,
            });
        }
        if let Some(supervision) = self.supervision {
            supervision.best().publish(self.walk_id, cost, assignment);
        }
    }

    fn on_heartbeat(&mut self, _iterations: u64) {
        if let Some(supervision) = self.supervision {
            supervision.beat(self.walk_id);
        }
    }

    fn observes_phases(&self) -> bool {
        self.sink.is_some_and(|sink| sink.observes_phases())
    }

    fn on_phase(&mut self, phase: SearchPhase, elapsed_nanos: u64) {
        if let Some(sink) = self.sink {
            sink.observe_phase(self.walk_id, phase, elapsed_nanos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_log_orders_and_filters_by_walk() {
        let log = EventLog::new();
        log.record(&WalkEvent::Started {
            walk_id: 1,
            seed: 9,
        });
        log.record(&WalkEvent::Started {
            walk_id: 0,
            seed: 3,
        });
        log.record(&WalkEvent::ImprovedCost {
            walk_id: 1,
            iteration: 4,
            cost: 2,
        });
        log.record(&WalkEvent::Finished {
            walk_id: 1,
            solved: true,
            iterations: 10,
            cost: 0,
        });
        assert_eq!(log.len(), 4);
        assert!(!log.is_empty());
        let walk1 = log.events_of(1);
        assert_eq!(walk1.len(), 3);
        assert_eq!(
            walk1[0],
            WalkEvent::Started {
                walk_id: 1,
                seed: 9
            }
        );
        assert_eq!(walk1[0].walk_id(), 1);
        assert_eq!(log.events_of(2).len(), 0);
        assert_eq!(log.snapshot().len(), 4);
    }

    #[test]
    fn walk_observer_forwards_to_the_sink() {
        use cbls_core::SearchObserver;
        let log = EventLog::new();
        let mut obs = WalkObserver {
            walk_id: 3,
            sink: Some(&log),
            supervision: None,
        };
        obs.on_restart(1);
        obs.on_new_best(17, 4, &[1, 0]);
        let events = log.snapshot();
        assert_eq!(
            events,
            vec![
                WalkEvent::Restarted {
                    walk_id: 3,
                    restart: 1
                },
                WalkEvent::ImprovedCost {
                    walk_id: 3,
                    iteration: 17,
                    cost: 4
                },
            ]
        );

        // and with no sink attached the hooks are no-ops
        let mut silent = WalkObserver {
            walk_id: 0,
            sink: None,
            supervision: None,
        };
        silent.on_restart(1);
        silent.on_new_best(0, 0, &[]);
        assert!(!silent.observes_phases());
        silent.on_phase(SearchPhase::CandidateScan, 1);
    }

    #[test]
    fn walk_observer_forwards_phase_spans_when_the_sink_opts_in() {
        use cbls_core::SearchObserver;
        use std::sync::Mutex;

        #[derive(Default)]
        struct PhaseLog {
            spans: Mutex<Vec<(usize, SearchPhase, u64)>>,
        }
        impl EventSink for PhaseLog {
            fn record(&self, _event: &WalkEvent) {}
            fn observes_phases(&self) -> bool {
                true
            }
            fn observe_phase(&self, walk_id: usize, phase: SearchPhase, elapsed_nanos: u64) {
                self.spans
                    .lock()
                    .unwrap()
                    .push((walk_id, phase, elapsed_nanos));
            }
        }

        let log = PhaseLog::default();
        let mut obs = WalkObserver {
            walk_id: 5,
            sink: Some(&log),
            supervision: None,
        };
        assert!(obs.observes_phases());
        obs.on_phase(SearchPhase::SwapExecution, 250);
        assert_eq!(
            *log.spans.lock().unwrap(),
            vec![(5, SearchPhase::SwapExecution, 250)]
        );

        // a sink using the default opt-out keeps the engine span-free
        let plain = EventLog::new();
        let obs = WalkObserver {
            walk_id: 0,
            sink: Some(&plain),
            supervision: None,
        };
        assert!(!obs.observes_phases());
    }

    #[test]
    fn walk_event_serde_round_trip() {
        let events = vec![
            WalkEvent::Started {
                walk_id: 2,
                seed: 7,
            },
            WalkEvent::Restarted {
                walk_id: 2,
                restart: 3,
            },
            WalkEvent::ImprovedCost {
                walk_id: 2,
                iteration: 11,
                cost: -1,
            },
            WalkEvent::Finished {
                walk_id: 2,
                solved: false,
                iterations: 40,
                cost: 1,
            },
            WalkEvent::Faulted {
                walk_id: 2,
                kind: FaultKind::Panicked,
                attempt: 0,
            },
            WalkEvent::Retried {
                walk_id: 2,
                attempt: 1,
                seed: 99,
            },
        ];
        let json = serde_json::to_string(&events).unwrap();
        let back: Vec<WalkEvent> = serde_json::from_str(&json).unwrap();
        assert_eq!(events, back);
    }

    #[test]
    fn walk_observer_publishes_into_the_supervision_table() {
        use cbls_core::SearchObserver;
        let supervision = Supervision::new(2);
        let mut obs = WalkObserver {
            walk_id: 1,
            sink: None,
            supervision: Some(&supervision),
        };
        obs.on_heartbeat(5);
        obs.on_heartbeat(10);
        obs.on_new_best(3, 7, &[1, 0, 2]);
        obs.on_new_best(9, 2, &[2, 0, 1]);
        assert_eq!(supervision.heartbeat_of(1), 2);
        assert_eq!(supervision.heartbeat_of(0), 0);
        assert_eq!(supervision.best().best_of(1), Some((2, vec![2, 0, 1])));
        assert_eq!(supervision.best().best_of(0), None);
    }
}
