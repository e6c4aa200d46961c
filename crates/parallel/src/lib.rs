//! # cbls-parallel — multiple independent-walk parallelism for Adaptive Search
//!
//! This crate implements the parallelisation scheme the paper evaluates:
//! launch `p` Adaptive Search engines from different random initial
//! configurations, let them run **without any communication**, and stop each
//! walk once a sibling has found a solution in no more iterations than it has
//! done ("no communication between the simultaneous computations except for
//! completion").
//!
//! All execution flows through one layer — the [`executor`] module: a
//! [`WalkJob`] describes one walk, a [`WalkBatch`] bundles jobs with their
//! [`WalkSeeds`] family, stop semantics and an optional deadline, and a
//! [`WalkExecutor`] back-end decides how many workers run the walks.  One
//! worker loop runs every batch: the calling thread plus `workers − 1`
//! scoped threads, each taking the next walk from a shared counter, with a
//! shared atomic iteration bound between the walks.
//!
//! * [`ThreadsExecutor`] — one worker per walk: the closest analogue of the
//!   paper's one-MPI-process-per-core setup;
//! * [`SequentialExecutor`] — one worker, the calling thread: the
//!   deterministic replay back-end, which goes round the walks of a
//!   first-finisher batch one slice at a time.
//!
//! Executing a batch yields a [`BatchExecution`]: one [`WalkRecord`] per
//! walk, the winner, the anytime incumbent and any degradation.  The paper's
//! flat scheme is [`WalkBatch::uniform`]; a heterogeneous batch
//! ([`WalkBatch::new`]) carries per-walk configurations, restart budgets and
//! labels.  [`SimulatedMultiWalk`] replays any batch to completion and
//! reports the *iteration count* a parallel run would have needed (the
//! minimum over walks — exact for independent walks, reproducible and
//! 256-core-free, which is why the `speedup` binary replays its batches on
//! [`SequentialExecutor`]), together with the pooled distribution of the
//! solved walks' iteration counts, which `cbls-perfmodel`'s order statistics
//! turn into predicted speedups.  Every batch can emit a [`WalkEvent`]
//! telemetry stream ([`telemetry`]) consumed online by an [`EventSink`].
//!
//! ```
//! use cbls_core::{Evaluator, SearchConfig};
//! use cbls_parallel::{SimulatedMultiWalk, ThreadsExecutor, WalkBatch, WalkExecutor};
//!
//! // Cost = number of misplaced values; solved when sorted.
//! #[derive(Clone)]
//! struct Sort(usize);
//! impl Evaluator for Sort {
//!     fn size(&self) -> usize { self.0 }
//!     fn init(&mut self, perm: &[usize]) -> i64 { self.cost(perm) }
//!     fn cost(&self, perm: &[usize]) -> i64 {
//!         perm.iter().enumerate().filter(|&(i, &v)| i != v).count() as i64
//!     }
//!     fn cost_on_variable(&self, perm: &[usize], i: usize) -> i64 {
//!         i64::from(perm[i] != i)
//!     }
//! }
//!
//! // Four walks; the walk that solves in the fewest iterations wins.
//! let batch = WalkBatch::uniform(42, &SearchConfig::default(), 4);
//! let run = ThreadsExecutor.execute(&|| Sort(16), &batch);
//! assert!(run.winning_iterations().is_some());
//!
//! // The same batch replayed to completion: what would p walks have cost?
//! let sim = SimulatedMultiWalk::replay(&|| Sort(16), &batch, &ThreadsExecutor);
//! assert!(sim.parallel_iterations(4) <= sim.parallel_iterations(1));
//! ```
//!
//! The walks share nothing but completion.  The paper leaves dependent
//! (communicating) walks to future work, and so does this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod executor;
mod seeds;
mod simulate;
pub mod supervision;
pub mod telemetry;

pub use executor::{
    select_winner, BatchExecution, SequentialExecutor, ThreadsExecutor, WalkBatch, WalkBudget,
    WalkExecutor, WalkJob, WalkRecord, WalkStream,
};
pub use seeds::WalkSeeds;
pub use simulate::SimulatedMultiWalk;
pub use supervision::{DegradationReason, FaultKind, Supervision, WalkFault};
pub use telemetry::{EventLog, EventSink, WalkEvent};
