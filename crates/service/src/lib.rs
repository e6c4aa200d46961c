//! # cbls-service — solver as a service
//!
//! A concurrent solve-job layer over the walk executor: many tenants submit
//! [`SolveRequest`]s (a benchmark id, a walk count, an iteration budget and
//! an optional deadline), a shared pool of workers multiplexes them, and
//! each job streams progress frames in a versioned serde-JSON wire format
//! ([`WIRE_SCHEMA`]).
//!
//! The crate composes the rest of the workspace rather than re-implementing
//! it:
//!
//! * execution is `cbls-resilience`'s [`Supervisor`] over the sequential
//!   back-end, so panicking or stalling evaluators degrade a job to its
//!   anytime incumbent instead of failing it;
//! * batches come from `cbls-parallel`'s [`WalkBatch`] prototype cache,
//!   reseeded per request — equal shapes share construction, and results
//!   are bit-identical to a direct executor run
//!   ([`SolveService::batch_for`] is the audit path);
//! * admission quotes come from `cbls-perfmodel`'s runtime distributions,
//!   warmed by completed jobs; a quote informs the client and does not
//!   reorder the FIFO queue;
//! * service health is a `cbls-obs` instrument set
//!   ([`ServiceMetrics`](cbls_obs::ServiceMetrics)), exposed as a snapshot
//!   via [`SolveService::metrics`].
//!
//! Admission is bounded and non-blocking: a full queue rejects immediately
//! with [`AdmissionError::QueueFull`], an unknown benchmark with
//! [`AdmissionError::UnknownBenchmark`] — back-pressure is explicit, never
//! silent queueing.
//!
//! [`Supervisor`]: cbls_resilience::Supervisor
//! [`WalkBatch`]: cbls_parallel::WalkBatch

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod queue;
mod service;
mod wire;

pub use queue::AdmissionError;
pub use service::{CompletedJob, JobHandle, ServiceConfig, SolveService};
pub use wire::{JobEvent, JobResult, ProgressFrame, SolveRequest, WIRE_SCHEMA};
