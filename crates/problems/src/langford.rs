//! Langford pairs L(2, n) (CSPLib prob024).
//!
//! Arrange two copies of each number `1..n` in a row of `2n` slots so that
//! the two copies of `k` are exactly `k + 1` positions apart (i.e. there are
//! `k` numbers between them).  Solutions exist iff `n ≡ 0 or 3 (mod 4)`.
//!
//! Encoding: the decision variables are the `2n` *items* (item `2k` is the
//! first copy of number `k+1`, item `2k+1` the second copy); `perm[item]` is
//! the slot the item occupies.  The cost sums, over the numbers, the absolute
//! deviation of the two copies' slot distance from the required `k + 2`
//! separation (`|slot₂ − slot₁| = k + 2` in 1-based "k numbers between"
//! terms).

use cbls_core::{Evaluator, IncrementalProfile, SearchConfig};
use serde::{Deserialize, Serialize};

/// The Langford pairing problem L(2, n).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Langford {
    n: usize,
}

impl Langford {
    /// Create an instance for numbers `1..=n` (`n ≥ 1`).
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "Langford needs at least one number");
        Self { n }
    }

    /// Number of distinct values (`n` in L(2, n)).
    #[must_use]
    pub fn pairs(&self) -> usize {
        self.n
    }

    /// Whether L(2, n) is known to be satisfiable (`n ≡ 0, 3 (mod 4)`).
    #[must_use]
    // lint: allow(pub-item-has-caller) — the rule that tests/cross_validation.rs checks
    pub fn is_satisfiable(&self) -> bool {
        self.n % 4 == 0 || self.n % 4 == 3
    }

    /// Required slot distance between the two copies of number `k` (1-based).
    #[inline]
    fn required_gap(k: usize) -> i64 {
        k as i64 + 1
    }

    /// Deviation contributed by number `k` (0-based index) under `perm`.
    #[inline]
    fn deviation(&self, perm: &[usize], k: usize) -> i64 {
        let first = perm[2 * k] as i64;
        let second = perm[2 * k + 1] as i64;
        ((first - second).abs() - Self::required_gap(k + 1)).abs()
    }

    /// Render the slot contents as the usual Langford sequence.
    #[must_use]
    pub fn render(&self, perm: &[usize]) -> String {
        let mut slots = vec![0usize; 2 * self.n];
        for item in 0..2 * self.n {
            slots[perm[item]] = item / 2 + 1;
        }
        slots
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(" ")
    }
}

impl Evaluator for Langford {
    fn size(&self) -> usize {
        2 * self.n
    }

    fn name(&self) -> &str {
        "langford"
    }

    fn init(&mut self, perm: &[usize]) -> i64 {
        self.cost(perm)
    }

    fn cost(&self, perm: &[usize]) -> i64 {
        (0..self.n).map(|k| self.deviation(perm, k)).sum()
    }

    fn cost_on_variable(&self, perm: &[usize], i: usize) -> i64 {
        self.deviation(perm, i / 2)
    }

    fn cost_if_swap(&self, perm: &[usize], current_cost: i64, i: usize, j: usize) -> i64 {
        if i == j {
            return current_cost;
        }
        let ki = i / 2;
        let kj = j / 2;
        if ki == kj {
            // swapping the two copies of the same number leaves the distance
            // unchanged
            return current_cost;
        }
        let mut cost = current_cost - self.deviation(perm, ki) - self.deviation(perm, kj);
        // deviations after the hypothetical swap of slots
        let slot = |item: usize| -> i64 {
            if item == i {
                perm[j] as i64
            } else if item == j {
                perm[i] as i64
            } else {
                perm[item] as i64
            }
        };
        for k in [ki, kj] {
            let d = ((slot(2 * k) - slot(2 * k + 1)).abs() - Self::required_gap(k + 1)).abs();
            cost += d;
        }
        cost
    }

    fn executed_swap(&mut self, _perm: &[usize], _i: usize, _j: usize) {
        // Langford keeps no incremental state: deviations are O(1) reads off
        // the permutation, so there is nothing to rebuild (the trait default
        // would pointlessly recompute the full cost here).
    }

    fn touched_by_swap(&self, _perm: &[usize], i: usize, j: usize, out: &mut Vec<usize>) -> bool {
        // An item's error is the deviation of its own number, which depends
        // only on the slots of that number's two copies: exactly the numbers
        // of `i` and `j` are touched (none at all when `i` and `j` are the
        // two copies of the same number — the distance is symmetric).
        let (ki, kj) = (i / 2, j / 2);
        if ki != kj {
            out.extend([2 * ki, 2 * ki + 1, 2 * kj, 2 * kj + 1]);
        }
        true
    }

    fn incremental_profile(&self) -> IncrementalProfile {
        IncrementalProfile {
            scratch_cost: true,
            incremental_cost_if_swap: true,
            incremental_executed_swap: true,
            tracked_dirty_sets: true,
            batched_projection: false,
            batched_probes: false,
        }
    }

    fn tune(&self, config: &mut SearchConfig) {
        config.freeze_duration = 2;
        config.plateau_probability = 0.7;
        config.reset_fraction = 0.15;
        config.reset_limit = Some((self.n / 2).max(2));
        config.prob_select_local_min = 0.02;
        config.max_iterations_per_restart = (self.n as u64).pow(3).max(50_000);
        config.max_restarts = 500;
    }

    fn verify(&self, perm: &[usize]) -> bool {
        let m = 2 * self.n;
        if perm.len() != m {
            return false;
        }
        let mut seen = vec![false; m];
        for &v in perm {
            if v >= m || seen[v] {
                return false;
            }
            seen[v] = true;
        }
        (0..self.n).all(|k| self.deviation(perm, k) == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use as_rng::default_rng;
    use cbls_core::AdaptiveSearch;
    use cbls_testkit::{
        assert_no_default_hot_paths, check_error_projection, check_incremental_consistency,
        check_projection_cache,
    };

    #[test]
    fn projection_cache_stays_fresh_across_swaps() {
        for n in [1usize, 3, 5, 8] {
            check_projection_cache(Langford::new(n), 1050 + n as u64, 60);
        }
        assert_no_default_hot_paths(&Langford::new(4));
    }

    /// The classical L(2,3) solution "2 3 1 2 1 3" expressed in the item →
    /// slot encoding: number 1 at slots 2 and 4, number 2 at 0 and 3,
    /// number 3 at 1 and 5.
    fn l23_solution() -> Vec<usize> {
        vec![2, 4, 0, 3, 1, 5]
    }

    #[test]
    fn known_l23_solution_has_zero_cost() {
        let mut p = Langford::new(3);
        let perm = l23_solution();
        assert_eq!(p.init(&perm), 0);
        assert!(p.verify(&perm));
    }

    #[test]
    fn render_produces_the_classic_sequence() {
        let p = Langford::new(3);
        assert_eq!(p.render(&l23_solution()), "2 3 1 2 1 3");
    }

    #[test]
    fn satisfiability_rule() {
        assert!(Langford::new(3).is_satisfiable());
        assert!(Langford::new(4).is_satisfiable());
        assert!(!Langford::new(5).is_satisfiable());
        assert!(!Langford::new(6).is_satisfiable());
        assert!(Langford::new(7).is_satisfiable());
        assert!(Langford::new(8).is_satisfiable());
    }

    #[test]
    fn incremental_consistency() {
        for n in [3usize, 4, 7, 8] {
            check_incremental_consistency(Langford::new(n), 1000 + n as u64, 25);
        }
    }

    #[test]
    fn error_projection_consistency() {
        for n in [3usize, 4, 8] {
            check_error_projection(Langford::new(n), 1100 + n as u64, 25);
        }
    }

    #[test]
    fn adaptive_search_solves_satisfiable_instances() {
        for n in [3usize, 4, 7, 8] {
            let mut p = Langford::new(n);
            let engine = AdaptiveSearch::tuned_for(&p);
            let out = engine.solve(&mut p, &mut default_rng(120 + n as u64));
            assert!(out.solved(), "L(2,{n}) not solved: {out:?}");
            assert!(p.verify(&out.solution));
        }
    }

    #[test]
    fn swapping_copies_of_the_same_number_changes_nothing() {
        let mut p = Langford::new(4);
        let mut rng = default_rng(9);
        let perm = as_rng::RandomSource::permutation(&mut rng, 8);
        let c = p.init(&perm);
        assert_eq!(p.cost_if_swap(&perm, c, 0, 1), c);
        assert_eq!(p.cost_if_swap(&perm, c, 6, 7), c);
    }

    #[test]
    fn verify_rejects_wrong_gaps() {
        let p = Langford::new(3);
        // identity: number 1 at slots 0,1 → gap 1, required 2 → not a solution
        assert!(!p.verify(&[0, 1, 2, 3, 4, 5]));
    }
}
