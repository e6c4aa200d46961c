//! # cbls-portfolio — restart schedules, strategy portfolios and adaptive
//! walk allocation
//!
//! The paper's parallel scheme launches `p` *identical* independent walks
//! and keeps the first finisher; its own analysis shows that the resulting
//! speedup is governed by the left tail of the per-walk runtime
//! distribution.  This crate adds the three layers that reshape that tail:
//!
//! * [`schedule`] — [`RestartSchedule`]s ([`Schedule::fixed`],
//!   [`Schedule::geometric`], [`Schedule::luby`]) driving the engine's
//!   restart loop through
//!   [`AdaptiveSearch::solve_scheduled`](cbls_core::AdaptiveSearch::solve_scheduled);
//! * [`Portfolio`] — heterogeneous multi-walk runs (walk index →
//!   `(SearchConfig, Schedule)`).  A portfolio is a
//!   [`WalkBatch`](cbls_parallel::WalkBatch) ([`Portfolio::batch`]) whose
//!   jobs carry per-member configurations, schedules and labels, so it runs
//!   on any [`WalkExecutor`](cbls_parallel::WalkExecutor) back-end with the
//!   flat multi-walk's first-finisher semantics and seeds, replays through
//!   [`SimulatedMultiWalk`](cbls_parallel::SimulatedMultiWalk), and reads
//!   back per member through [`member_stats`];
//! * [`AdaptiveScheduler`] — a bandit-style allocator that shifts walk
//!   budget towards the strategies with the best observed tails across
//!   successive solve requests.
//!
//! A replay pools its solved walks' iteration counts into an empirical
//! distribution, so the order-statistics speedup predictor of
//! `cbls-perfmodel` runs against *empirical* distributions and
//! [`SimulatedMultiWalk::predicted_vs_observed`](cbls_parallel::SimulatedMultiWalk::predicted_vs_observed)
//! compares the model with the replayed reality in one pipeline.
//!
//! ## Quick start
//!
//! ```
//! use cbls_core::{Evaluator, SearchConfig};
//! use cbls_parallel::{SimulatedMultiWalk, ThreadsExecutor};
//! use cbls_portfolio::{Portfolio, PortfolioMember, Schedule};
//!
//! // A toy model: sort a permutation (cost = number of misplaced values).
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
//! let strategies = vec![
//!     PortfolioMember::new("fixed", SearchConfig::default(), Schedule::fixed(10_000, 3)),
//!     PortfolioMember::new("luby", SearchConfig::default(), Schedule::luby(1_000, 20)),
//! ];
//! let portfolio = Portfolio::cycled(&strategies, 4).with_master_seed(42);
//! let sim = SimulatedMultiWalk::replay(&|| Sort(16), &portfolio.batch(), &ThreadsExecutor);
//! assert!(sim.success_rate() > 0.0);
//! let table = sim.predicted_vs_observed(&[1, 2, 4]).unwrap();
//! assert_eq!(table.len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
mod portfolio;
mod runner;
pub mod schedule;

pub use adaptive::{AdaptiveScheduler, StrategyStats};
pub use portfolio::{Portfolio, PortfolioMember};
pub use runner::{member_stats, MemberStats};
pub use schedule::{luby, RestartSchedule, Schedule};
