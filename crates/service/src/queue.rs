//! The bounded admission queue: capacity enforcement and arrival-order
//! dequeue.
//!
//! Admission is a two-gate pipeline.  The first gate is *validation* (an
//! unknown benchmark id can never run, so it is rejected before touching the
//! queue); the second is *capacity* — the alloc-free
//! [`AdmissionPolicy::admit`] decision guarded by `cbls-lint`'s
//! `no-alloc-hot-path` rule, so a burst of rejected requests costs nothing
//! but an atomic counter bump per request.
//!
//! A freed worker takes the oldest waiting job: the queue is FIFO.

use std::collections::VecDeque;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::service::QueuedJob;

/// Why a [`SolveRequest`](crate::SolveRequest) was rejected at admission.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdmissionError {
    /// The admission queue is at capacity; retry after a completion frees a
    /// slot.
    QueueFull {
        /// The configured queue capacity.
        capacity: usize,
    },
    /// The request names a benchmark id the catalog cannot parse.
    UnknownBenchmark {
        /// The offending id, echoed back.
        id: String,
    },
    /// The service is shutting down and admits nothing new.
    ServiceClosed,
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::QueueFull { capacity } => {
                write!(f, "admission queue full (capacity {capacity})")
            }
            AdmissionError::UnknownBenchmark { id } => {
                write!(f, "unknown benchmark id {id:?}")
            }
            AdmissionError::ServiceClosed => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// The capacity gate of the admission pipeline.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AdmissionPolicy {
    capacity: usize,
}

impl AdmissionPolicy {
    pub(crate) fn new(capacity: usize) -> Self {
        Self { capacity }
    }

    pub(crate) fn capacity(self) -> usize {
        self.capacity
    }

    /// The admission decision for a queue currently holding `depth` jobs.
    ///
    /// This is the per-request hot path (a rejected burst runs nothing
    /// else), so it must stay alloc-free — `cbls-lint` guards the body.
    pub(crate) fn admit(self, depth: usize) -> bool {
        depth < self.capacity
    }
}

/// The waiting line plus the closed flag, guarded by the service's mutex.
#[derive(Debug, Default)]
pub(crate) struct QueueState {
    pub(crate) jobs: VecDeque<QueuedJob>,
    pub(crate) closed: bool,
}
