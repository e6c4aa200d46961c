//! # cbls-core — the Adaptive Search engine
//!
//! Constraint-Based Local Search for permutation CSPs, re-implementing the
//! *Adaptive Search* method of Codognet & Diaz that the PPoPP 2012 paper
//! ["Performance Analysis of Parallel Constraint-Based Local Search"]
//! parallelizes.  This crate contains the sequential engine and the problem
//! interface; benchmark models live in `cbls-problems` and the parallel
//! multi-walk runners in `cbls-parallel`.
//!
//! ## Quick start
//!
//! ```
//! use as_rng::default_rng;
//! use cbls_core::{AdaptiveSearch, Evaluator, SearchConfig};
//!
//! /// A toy model: sort a permutation (cost = number of misplaced values).
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
//! let engine = AdaptiveSearch::new(SearchConfig::default());
//! let outcome = engine.solve(&mut Sort(12), &mut default_rng(1));
//! assert!(outcome.solved());
//! ```
//!
//! ## Crate layout
//!
//! * [`Evaluator`] / [`EvaluatorFactory`] — the problem interface (the Rust
//!   equivalent of the C framework's `Cost_Of_Solution` / `Cost_On_Variable` /
//!   `Cost_If_Swap` / `Executed_Swap` entry points).
//! * [`SearchConfig`] — engine parameters (freeze duration, reset policy,
//!   restart policy, plateau handling).
//! * [`AdaptiveSearch`] / [`Run`] — the solver itself, and what one run adds
//!   to a plain solve (stop signal, restart schedule, observer); [`Walk`] — a run advanced slice by slice, so that one thread
//!   can take several walks in turn.
//! * [`SearchOutcome`] / [`SearchStats`] / [`TerminationReason`] — per-run
//!   results and counters.
//! * [`StopControl`] — cooperative termination (a shared iteration bound
//!   plus a monotonic deadline), the only communication the paper's
//!   independent walks ever perform.
//! * [`SearchObserver`] / [`SearchPhase`] — passive restart / improvement
//!   hooks consumed by the multi-walk executor's telemetry stream, plus the
//!   opt-in per-iteration phase spans behind the observability layer.
//! * [`BestSoFar`] / [`Incumbent`] — per-walk anytime publication of the
//!   best assignment found so far, feeding the supervision layer's partial
//!   results for faulted or deadline-expired batches.
//!
//! The randomized checks of the incremental contract that every problem
//! crate's tests call live in the dev-only `cbls-testkit` crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod anytime;
mod config;
mod engine;
mod evaluator;
mod observer;
mod outcome;
mod stop;

pub use anytime::{BestSoFar, Incumbent};
pub use config::{SearchConfig, SearchConfigBuilder};
pub use engine::{AdaptiveSearch, Run, Walk};
pub use evaluator::{Evaluator, EvaluatorFactory, IncrementalProfile};
pub use observer::{NoObserver, SearchObserver, SearchPhase};
pub use outcome::{SearchOutcome, SearchStats, TerminationReason};
pub use stop::{monotonic_now, StopControl};
