//! # cbls-resilience — fault-isolated supervised execution
//!
//! The executor layer of `cbls-parallel` already makes every walk of a batch
//! *fault-isolated* (a panicking evaluator becomes a structured
//! [`WalkFault`](cbls_parallel::WalkFault) record instead of killing the
//! batch) and *anytime* (the engine publishes strict improvements into a
//! per-walk [`BestSoFar`](cbls_core::BestSoFar) slot, so a batch that times
//! out or faults still returns its best incumbent).  This crate supplies the
//! policy half of that contract:
//!
//! * [`Supervisor`] — wraps a [`WalkExecutor`](cbls_parallel::WalkExecutor),
//!   runs batches through its supervised path, reports a walk the executor
//!   cancelled for a stalled slice as stalled, and reschedules faulted
//!   walks under a [`RetryPolicy`] on deterministically rederived seed
//!   streams (attempt `a` of walk `w` draws
//!   [`WalkSeeds::seed_of_attempt(w, a)`](cbls_parallel::WalkSeeds::seed_of_attempt),
//!   bit-reproducible on every worker count);
//! * [`RetryPolicy`] — bounded attempts; a retry starts at once and runs
//!   within the batch's remaining deadline.
//!
//! The seeded fault-injection harness that the supervisor's tests and the
//! chaos matrix drive (`FaultPlan`, `ChaosFactory`) lives in the dev-only
//! `cbls-testkit` crate.
//!
//! The stall model is *cooperative*: a stalled walk is one whose evaluator
//! transiently hangs (a long blocking call, a pathological neighbourhood).
//! A supervised walk runs in slices of its `stop_check_interval`, and the
//! worker that runs a slice times it: once a slice that overran
//! [`STALL_WINDOW`](cbls_parallel::STALL_WINDOW) returns, the walk's kill
//! flag is raised and the walk stops at its next iteration.  Nothing
//! watches a walk from outside, so a walk that never returns is never
//! reclaimed; that would take unsafe thread cancellation, which this
//! workspace forbids.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod retry;
mod supervisor;

pub use retry::RetryPolicy;
pub use supervisor::{RetryOutcome, SupervisedExecution, Supervisor};
