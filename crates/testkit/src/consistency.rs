//! The evaluator consistency harness.
//!
//! Every [`Evaluator`] implementation promises the same contract — a
//! from-scratch [`cost`](Evaluator::cost) that agrees with
//! [`init`](Evaluator::init), a side-effect-free
//! [`cost_if_swap`](Evaluator::cost_if_swap), an
//! [`executed_swap`](Evaluator::executed_swap) that keeps incremental state
//! in sync, and an error-projection protocol
//! ([`touched_by_swap`](Evaluator::touched_by_swap) /
//! [`project_errors`](Evaluator::project_errors)) the engine relies on for
//! its cached error vector.  This module checks those promises with
//! randomized swap sequences on fixed seeds, so every problem crate (the
//! hand-coded `cbls-problems` models, the declarative `cbls-model` layer)
//! can assert them with one call instead of re-implementing the drive loop.
//!
//! The functions panic with a descriptive message on the first violation;
//! they are meant to be called from `#[test]` functions.

use as_rng::{default_rng, RandomSource};
use cbls_core::Evaluator;

/// Exhaustively check, over `samples` random permutations, that
/// `cost_if_swap` agrees with a from-scratch recomputation and that
/// `executed_swap` keeps the incremental state consistent with `init`.
///
/// # Panics
///
/// Panics when any probed swap disagrees with a recompute, or when
/// `executed_swap` leaves stale incremental state behind.
pub fn check_incremental_consistency<E: Evaluator>(mut problem: E, seed: u64, samples: usize) {
    let n = problem.size();
    let mut rng = default_rng(seed);
    for _ in 0..samples {
        let mut perm = rng.permutation(n);
        let cost = problem.init(&perm);
        assert_eq!(cost, problem.cost(&perm), "init disagrees with cost");
        assert!(cost >= 0, "costs must be non-negative");

        // probe a handful of swaps
        for _ in 0..8usize.min(n * (n - 1) / 2) {
            let i = rng.index(n);
            let j = rng.index(n);
            if i == j {
                continue;
            }
            let predicted = problem.cost_if_swap(&perm, cost, i, j);
            let mut probe = perm.clone();
            probe.swap(i, j);
            let actual = problem.cost(&probe);
            assert_eq!(
                predicted, actual,
                "cost_if_swap({i},{j}) disagrees with recompute"
            );
        }

        // execute one swap and verify incremental state stays in sync
        let i = rng.index(n);
        let j = rng.index(n);
        if i != j {
            let predicted = problem.cost_if_swap(&perm, cost, i, j);
            perm.swap(i, j);
            problem.executed_swap(&perm, i, j);
            assert_eq!(
                predicted,
                problem.cost(&perm),
                "executed_swap left stale incremental state"
            );
            // A second init must agree as well.
            assert_eq!(problem.init(&perm), predicted);
        }
    }
}

/// Drive a randomized swap sequence through the engine's incremental
/// error-projection protocol and assert, after every executed swap, that
/// the cached projection (`touched_by_swap` + `project_errors` /
/// `project_errors_full`) agrees with a fresh `cost_on_variable` for
/// *every* variable — the exact invariant `AdaptiveSearch` relies on to
/// keep its cached `err` vector bit-compatible with a full rescan.
///
/// # Panics
///
/// Panics when the cached projection goes stale at any point of the swap
/// sequence, or when `cost_if_swap` disagrees with a recompute.
pub fn check_projection_cache<E: Evaluator>(mut problem: E, seed: u64, swaps: usize) {
    let n = problem.size();
    assert!(
        n >= 2,
        "projection cache check needs at least two variables"
    );
    let mut rng = default_rng(seed);
    let mut perm = rng.permutation(n);
    let mut cost = problem.init(&perm);
    let mut cache = vec![0i64; n];
    problem.project_errors_full(&perm, &mut cache);
    let mut touched: Vec<usize> = Vec::new();
    for step in 0..swaps {
        for (k, &cached) in cache.iter().enumerate() {
            assert_eq!(
                cached,
                problem.cost_on_variable(&perm, k),
                "cached projection stale at variable {k} after {step} swaps"
            );
        }
        let i = rng.index(n);
        let j = rng.index(n);
        if i == j {
            continue;
        }
        let predicted = problem.cost_if_swap(&perm, cost, i, j);
        perm.swap(i, j);
        problem.executed_swap(&perm, i, j);
        assert_eq!(
            predicted,
            problem.cost(&perm),
            "cost_if_swap({i},{j}) disagrees with recompute at step {step}"
        );
        cost = predicted;
        touched.clear();
        if problem.touched_by_swap(&perm, i, j, &mut touched) {
            problem.project_errors(&perm, &touched, &mut cache);
        } else {
            problem.project_errors_full(&perm, &mut cache);
        }
    }
    for (k, &cached) in cache.iter().enumerate() {
        assert_eq!(
            cached,
            problem.cost_on_variable(&perm, k),
            "cached projection stale at variable {k} after the full swap sequence"
        );
    }
}

/// Check that batched probing agrees **exactly** with the scalar probes it
/// batches: `cost_if_swaps(perm, cost, i, js, out)` must write
/// `cost_if_swap(perm, cost, i, js[k])` into `out[k]` for every `k`.
///
/// The engine's candidate scans break ties over probe values with reservoir
/// sampling, so even a one-off approximation in a batched kernel would
/// silently change trajectories; this check drives full candidate rows (the
/// exact shape the worst-variable scan sends), random subsets with
/// duplicates and `i` itself, from both fresh and mid-walk configurations.
///
/// # Panics
///
/// Panics on the first batched entry that disagrees with its scalar probe.
pub fn check_batched_probes<E: Evaluator>(mut problem: E, seed: u64, rounds: usize) {
    let n = problem.size();
    assert!(n >= 2, "batched probe check needs at least two variables");
    let mut rng = default_rng(seed);
    let mut js: Vec<usize> = Vec::new();
    let mut out: Vec<i64> = Vec::new();
    for round in 0..rounds {
        let mut perm = rng.permutation(n);
        let mut cost = problem.init(&perm);
        // Walk a few executed swaps so later rounds probe mid-search
        // incremental state, not just freshly initialized state.
        for _ in 0..round % 4 {
            let i = rng.index(n);
            let j = rng.index(n);
            if i == j {
                continue;
            }
            cost = problem.cost_if_swap(&perm, cost, i, j);
            perm.swap(i, j);
            problem.executed_swap(&perm, i, j);
        }

        // A full candidate row, exactly what the engine's worst-variable
        // scan batches.
        let i = rng.index(n);
        js.clear();
        js.extend((0..n).filter(|&j| j != i));
        out.clear();
        out.resize(js.len(), 0);
        problem.cost_if_swaps(&perm, cost, i, &js, &mut out);
        for (k, &j) in js.iter().enumerate() {
            assert_eq!(
                out[k],
                problem.cost_if_swap(&perm, cost, i, j),
                "cost_if_swaps disagrees with cost_if_swap at i={i} j={j} (full row, round {round})"
            );
        }

        // A random subset: duplicates and the degenerate partner `i` itself
        // are allowed by the contract and must still match.
        js.clear();
        for _ in 0..=rng.index(n) {
            js.push(rng.index(n));
        }
        out.clear();
        out.resize(js.len(), 0);
        problem.cost_if_swaps(&perm, cost, i, &js, &mut out);
        for (k, &j) in js.iter().enumerate() {
            assert_eq!(
                out[k],
                problem.cost_if_swap(&perm, cost, i, j),
                "cost_if_swaps disagrees with cost_if_swap at i={i} j={j} (subset, round {round})"
            );
        }
    }
}

/// Assert that a problem's [`IncrementalProfile`](cbls_core::IncrementalProfile)
/// rules out every default probe path on the engine's hot loop:
/// scratch-buffer `cost`, incremental `cost_if_swap` and `executed_swap`,
/// and either a tracked dirty set or a batched full projection.
///
/// # Panics
///
/// Panics when any of the profile's hot-path claims is absent.
pub fn assert_no_default_hot_paths<E: Evaluator + ?Sized>(problem: &E) {
    let profile = problem.incremental_profile();
    let name = problem.name();
    assert!(
        profile.scratch_cost,
        "{name}: cost() still clones the evaluator to recompute"
    );
    assert!(
        profile.incremental_cost_if_swap,
        "{name}: cost_if_swap() inherits the allocate-probe-recompute default"
    );
    assert!(
        profile.incremental_executed_swap,
        "{name}: executed_swap() inherits the rebuild-from-scratch default"
    );
    assert!(
        profile.tracked_dirty_sets || profile.batched_projection,
        "{name}: error projection has neither dirty-set tracking nor a batched pass"
    );
}

/// Check that the per-variable error projection is consistent with the
/// global cost: zero cost implies zero errors, and a positive cost
/// implies at least one positive error.
///
/// # Panics
///
/// Panics when any sampled configuration breaks the projection/cost
/// consistency relation.
pub fn check_error_projection<E: Evaluator>(mut problem: E, seed: u64, samples: usize) {
    let n = problem.size();
    let mut rng = default_rng(seed);
    for _ in 0..samples {
        let perm = rng.permutation(n);
        let cost = problem.init(&perm);
        let errors: Vec<i64> = (0..n).map(|i| problem.cost_on_variable(&perm, i)).collect();
        assert!(errors.iter().all(|&e| e >= 0), "negative variable error");
        if cost == 0 {
            assert!(
                errors.iter().all(|&e| e == 0),
                "zero-cost configuration with positive variable error"
            );
        } else {
            assert!(
                errors.iter().any(|&e| e > 0),
                "positive cost but no variable carries any error (cost = {cost})"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort::Sort;

    #[test]
    fn sort_permutation_passes_the_harness() {
        check_incremental_consistency(Sort(12), 17, 10);
        check_projection_cache(Sort(12), 18, 30);
        check_error_projection(Sort(12), 19, 10);
    }

    #[test]
    #[should_panic(expected = "cost_if_swap")]
    fn a_lying_cost_if_swap_is_caught() {
        struct Lying;
        impl Evaluator for Lying {
            fn size(&self) -> usize {
                6
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
            fn cost_if_swap(&self, _p: &[usize], c: i64, _i: usize, _j: usize) -> i64 {
                c + 100 // wrong on purpose
            }
        }
        check_incremental_consistency(Lying, 23, 5);
    }

    #[test]
    fn default_batched_probes_pass_the_harness() {
        check_batched_probes(Sort(12), 29, 10);
    }

    #[test]
    #[should_panic(expected = "cost_if_swaps disagrees")]
    fn a_lying_batched_kernel_is_caught() {
        #[derive(Clone)]
        struct LyingBatch(Sort);
        impl Evaluator for LyingBatch {
            fn size(&self) -> usize {
                self.0.size()
            }
            fn init(&mut self, perm: &[usize]) -> i64 {
                self.0.init(perm)
            }
            fn cost(&self, perm: &[usize]) -> i64 {
                self.0.cost(perm)
            }
            fn cost_on_variable(&self, perm: &[usize], i: usize) -> i64 {
                self.0.cost_on_variable(perm, i)
            }
            fn cost_if_swap(&self, perm: &[usize], c: i64, i: usize, j: usize) -> i64 {
                self.0.cost_if_swap(perm, c, i, j)
            }
            fn cost_if_swaps(
                &self,
                perm: &[usize],
                c: i64,
                i: usize,
                js: &[usize],
                out: &mut [i64],
            ) {
                for (slot, &j) in out.iter_mut().zip(js) {
                    *slot = self.0.cost_if_swap(perm, c, i, j) + 1; // off by one
                }
            }
        }
        check_batched_probes(LyingBatch(Sort(8)), 31, 3);
    }

    #[test]
    #[should_panic(expected = "inherits the allocate-probe-recompute default")]
    fn default_profiles_fail_the_hot_path_assertion() {
        struct Plain;
        impl Evaluator for Plain {
            fn size(&self) -> usize {
                4
            }
            fn init(&mut self, perm: &[usize]) -> i64 {
                self.cost(perm)
            }
            fn cost(&self, _perm: &[usize]) -> i64 {
                0
            }
            fn cost_on_variable(&self, _perm: &[usize], _i: usize) -> i64 {
                0
            }
            fn incremental_profile(&self) -> cbls_core::IncrementalProfile {
                cbls_core::IncrementalProfile {
                    scratch_cost: true,
                    ..Default::default()
                }
            }
        }
        assert_no_default_hot_paths(&Plain);
    }
}
