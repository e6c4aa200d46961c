//! The service wire format: versioned serde-JSON types for requests,
//! streamed progress frames and job results.
//!
//! Everything a remote client exchanges with a [`SolveService`] lives here,
//! so the crate's concurrency machinery never leaks into the protocol.  The
//! schema is versioned by [`WIRE_SCHEMA`]: every [`ProgressFrame`] carries
//! the string, and a client that sees an unknown version must stop parsing
//! rather than guess.  Additive changes (new optional fields, new
//! [`JobEvent`] variants) bump the minor suffix; anything that changes the
//! meaning of an existing field bumps the major prefix.
//!
//! [`SolveService`]: crate::SolveService

use cbls_parallel::{DegradationReason, WalkEvent};
use cbls_perfmodel::RuntimeQuote;
use serde::{Deserialize, Serialize};

/// The wire-format version stamped on every [`ProgressFrame`].
pub const WIRE_SCHEMA: &str = "cbls-service/1";

/// A client's solve request: which benchmark to run, how wide, and under
/// what budget.
///
/// Requests are pure data — validation happens at admission, where an
/// unknown [`benchmark`](Self::benchmark) id is rejected with
/// [`AdmissionError::UnknownBenchmark`](crate::AdmissionError::UnknownBenchmark).
/// Degenerate shapes (zero walks, zero budget) are *admitted* and execute to
/// well-formed empty results, so a hostile client cannot distinguish a
/// validation path from the normal one by timing.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SolveRequest {
    /// Benchmark catalog id, e.g. `"queens-16"` (see
    /// [`Benchmark::from_id`](cbls_problems::Benchmark::from_id)).
    pub benchmark: String,
    /// Number of independent walks for the job's batch.
    pub walks: usize,
    /// Total iteration budget per walk, spread over the benchmark's tuned
    /// restart schedule.
    pub iteration_budget: u64,
    /// Optional wall-clock deadline in milliseconds; on expiry the job
    /// degrades to its anytime incumbent instead of failing.
    pub deadline_ms: Option<u64>,
    /// Master seed of the job's walk-seed family.  Two requests with equal
    /// shape and seed produce bit-identical winners.
    pub master_seed: u64,
}

impl SolveRequest {
    /// A request for `walks` walks of `benchmark` under `iteration_budget`
    /// iterations each, without a deadline, seeded from 0.
    #[must_use]
    pub fn new(benchmark: impl Into<String>, walks: usize, iteration_budget: u64) -> Self {
        Self {
            benchmark: benchmark.into(),
            walks,
            iteration_budget,
            deadline_ms: None,
            master_seed: 0,
        }
    }

    /// Attach a wall-clock deadline in milliseconds.
    #[must_use]
    pub fn with_deadline_ms(mut self, deadline_ms: u64) -> Self {
        self.deadline_ms = Some(deadline_ms);
        self
    }

    /// Replace the master seed.
    #[must_use]
    pub fn with_master_seed(mut self, master_seed: u64) -> Self {
        self.master_seed = master_seed;
        self
    }
}

/// One event in a job's progress stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JobEvent {
    /// The job passed admission.  Always the first frame of a stream.
    Admitted {
        /// Queue position at admission time (0 = next to run).
        position: usize,
        /// The service's runtime quote for the job, when a solved job of its
        /// shape `(benchmark, walks)` has completed before (see
        /// [`RuntimeQuote`](cbls_perfmodel::RuntimeQuote)).
        quote: Option<RuntimeQuote>,
    },
    /// A worker picked the job up after `queued_ms` milliseconds in the
    /// admission queue.
    Started {
        /// Time spent queued, in milliseconds.
        queued_ms: u64,
    },
    /// A telemetry event from one of the job's walks (including fault and
    /// retry events under supervision).
    Walk {
        /// The walk-level event, verbatim from the executor.
        event: WalkEvent,
    },
    /// The job completed; always the final frame of a stream.
    Completed {
        /// The job's result summary.
        result: JobResult,
    },
}

/// One frame of a job's progress stream: the envelope a streaming client
/// parses line by line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProgressFrame {
    /// The wire-format version ([`WIRE_SCHEMA`]).
    pub schema: String,
    /// The job this frame belongs to.
    pub job: u64,
    /// Strictly increasing per-job sequence number, starting at 0.
    pub seq: u64,
    /// The event payload.
    pub event: JobEvent,
}

impl ProgressFrame {
    /// Serialize the frame to one JSON line (no trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("progress frames serialize infallibly")
    }
}

/// The summary a job resolves to, streamed as the terminal
/// [`JobEvent::Completed`] frame and returned by
/// [`JobHandle::wait`](crate::JobHandle::wait).
///
/// This is the wire-side view; the full per-walk records stay on
/// [`CompletedJob::execution`](crate::CompletedJob) for in-process callers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobResult {
    /// The job id the service assigned at admission.
    pub job: u64,
    /// The request's benchmark id, echoed back.
    pub benchmark: String,
    /// Whether any walk solved the instance.
    pub solved: bool,
    /// The winning walk index under the service's bit-reproducible
    /// iterations-first rule, if any walk solved.
    pub winner: Option<usize>,
    /// The winning walk's derived seed.
    pub winner_seed: Option<u64>,
    /// The winning walk's engine iterations.
    pub winner_iterations: Option<u64>,
    /// The best cost any walk reached (the anytime incumbent's cost when
    /// the job degraded; `None` only for zero-walk jobs).
    pub best_cost: Option<i64>,
    /// Why the job degraded to a partial result, if it did.
    pub degradation: Option<DegradationReason>,
    /// Number of walks that needed supervised retries.
    pub retried_walks: usize,
    /// Wall-clock time of the batch execution, in milliseconds.
    pub wall_ms: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbls_parallel::WalkEvent;

    fn roundtrip<T>(value: &T) -> T
    where
        T: Serialize + Deserialize,
    {
        let json = serde_json::to_string(value).expect("wire type serializes");
        serde_json::from_str(&json).expect("wire type round-trips")
    }

    #[test]
    fn requests_round_trip_with_and_without_deadline() {
        let bare = SolveRequest::new("queens-16", 4, 10_000);
        assert_eq!(roundtrip(&bare), bare);
        let full = SolveRequest::new("costas-12", 8, 50_000)
            .with_deadline_ms(250)
            .with_master_seed(42);
        assert_eq!(roundtrip(&full), full);
        assert_eq!(full.deadline_ms, Some(250));
    }

    #[test]
    fn every_event_variant_round_trips() {
        let result = JobResult {
            job: 7,
            benchmark: "queens-16".to_string(),
            solved: true,
            winner: Some(2),
            winner_seed: Some(0xDEAD),
            winner_iterations: Some(1234),
            best_cost: Some(0),
            degradation: None,
            retried_walks: 1,
            wall_ms: 17,
        };
        let events = [
            JobEvent::Admitted {
                position: 3,
                quote: None,
            },
            JobEvent::Admitted {
                position: 0,
                quote: Some(RuntimeQuote {
                    samples: 3,
                    expected: 40_000.0 / 3.0,
                    p95: u64::MAX as f64,
                    cov: 0.125,
                }),
            },
            JobEvent::Started { queued_ms: 12 },
            JobEvent::Walk {
                event: WalkEvent::ImprovedCost {
                    walk_id: 1,
                    iteration: 55,
                    cost: 9,
                },
            },
            JobEvent::Completed { result },
        ];
        for event in &events {
            assert_eq!(&roundtrip(event), event);
        }
    }

    #[test]
    fn frames_carry_the_schema_version() {
        let frame = ProgressFrame {
            schema: WIRE_SCHEMA.to_string(),
            job: 1,
            seq: 0,
            event: JobEvent::Started { queued_ms: 0 },
        };
        let line = frame.to_json();
        assert!(line.contains("\"cbls-service/1\""), "line: {line}");
        assert_eq!(roundtrip(&frame), frame);
    }

    #[test]
    fn degraded_results_serialize_their_reason() {
        let result = JobResult {
            job: 9,
            benchmark: "magic-square-6".to_string(),
            solved: false,
            winner: None,
            winner_seed: None,
            winner_iterations: None,
            best_cost: Some(14),
            degradation: Some(DegradationReason::DeadlineExpired),
            retried_walks: 0,
            wall_ms: 250,
        };
        let json = serde_json::to_string(&result).expect("result serializes");
        assert!(json.contains("DeadlineExpired"), "json: {json}");
        assert_eq!(roundtrip(&result), result);
    }
}
