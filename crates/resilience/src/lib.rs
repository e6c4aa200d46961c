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
//! * [`Supervisor`] — wraps any [`WalkExecutor`](cbls_parallel::WalkExecutor)
//!   back-end, runs batches under a heartbeat watchdog ([`WatchdogConfig`])
//!   that cancels walks whose heartbeat stops advancing, and reschedules
//!   faulted walks under a [`RetryPolicy`] on deterministically rederived
//!   seed streams (attempt `a` of walk `w` draws
//!   [`WalkSeeds::seed_of_attempt(w, a)`](cbls_parallel::WalkSeeds::seed_of_attempt),
//!   bit-reproducible on every back-end);
//! * [`RetryPolicy`] — bounded attempts, exponential backoff with
//!   deterministic seed-derived jitter, deadline budget carried over;
//! * [`FaultPlan`] / [`ChaosFactory`] — a seeded fault-injection harness
//!   that makes a wrapped evaluator panic or stall at the `k`-th cost probe
//!   of a chosen `(walk, attempt)`, deterministically across the
//!   sequential and threads back-ends — the chaos suite's foundation.
//!
//! The stall model is *cooperative*: a stalled walk is one whose evaluator
//! transiently hangs (a long blocking call, a pathological neighbourhood),
//! so the watchdog's per-walk kill flag takes effect at the walk's next
//! stop-poll once the hang releases the thread.  A walk that never returns
//! cannot be reclaimed without unsafe thread cancellation, which this
//! workspace forbids.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chaos;
mod retry;
mod supervisor;

pub use chaos::{ChaosEvaluator, ChaosFactory, FaultPlan, FaultSpec, FaultWindow};
pub use retry::RetryPolicy;
pub use supervisor::{RetryOutcome, SupervisedExecution, Supervisor, WatchdogConfig};
