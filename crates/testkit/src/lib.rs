//! # cbls-testkit — harnesses that only tests call
//!
//! Two harnesses that the workspace's test suites share, kept out of the
//! library crates so that no library ships code that only tests run:
//!
//! * the evaluator consistency checks ([`check_incremental_consistency`],
//!   [`check_projection_cache`], [`check_batched_probes`],
//!   [`check_error_projection`] and [`assert_no_default_hot_paths`]):
//!   randomized swap sequences on fixed seeds that hold an
//!   [`Evaluator`](cbls_core::Evaluator) to its incremental contract;
//! * the deterministic fault-injection harness ([`FaultPlan`],
//!   [`ChaosFactory`]): an evaluator wrapper that panics or stalls at the
//!   `k`-th cost probe of a chosen `(walk, attempt)`, which the supervisor's
//!   tests and the chaos matrix drive.
//!
//! The crate is never published, and the crates that use it take it only as
//! a dev-dependency.  The runtime half of the alloc-free contract, a
//! counting global allocator, lives in the one test binary that installs it
//! (`tests/alloc_free.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chaos;
mod consistency;

pub use chaos::{ChaosEvaluator, ChaosFactory, FaultPlan, FaultSpec, FaultWindow};
pub use consistency::{
    assert_no_default_hot_paths, check_batched_probes, check_error_projection,
    check_incremental_consistency, check_projection_cache,
};

/// The toy problem of the harnesses' own tests.
#[cfg(test)]
mod sort {
    use cbls_core::Evaluator;

    /// Sort a permutation: the cost is the number of positions `i` with
    /// `perm[i] != i`, probed incrementally.
    #[derive(Debug, Clone)]
    pub(crate) struct Sort(pub(crate) usize);

    impl Evaluator for Sort {
        fn size(&self) -> usize {
            self.0
        }
        fn init(&mut self, perm: &[usize]) -> i64 {
            self.cost(perm)
        }
        fn cost(&self, perm: &[usize]) -> i64 {
            perm.iter().enumerate().filter(|&(i, &v)| i != v).count() as i64
        }
        fn cost_on_variable(&self, perm: &[usize], i: usize) -> i64 {
            i64::from(perm[i] != i)
        }
        fn cost_if_swap(&self, perm: &[usize], current_cost: i64, i: usize, j: usize) -> i64 {
            let before = i64::from(perm[i] != i) + i64::from(perm[j] != j);
            let after = i64::from(perm[j] != i) + i64::from(perm[i] != j);
            current_cost - before + after
        }
    }
}
