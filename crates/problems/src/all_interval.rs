//! All-Interval Series (CSPLib prob007).
//!
//! Arrange the numbers `0..n−1` in a sequence such that the absolute
//! differences between adjacent elements are all distinct — i.e. form a
//! permutation of `1..n−1`.  This is the twelve-tone "all-interval row" of
//! serial music, one of the three CSPLib models in Figures 1 and 2 of the
//! paper.
//!
//! The candidate is the series itself (`perm[i]` = i-th element).  The cost
//! counts surplus occurrences of each difference value: `Σ_d max(0, occ(d)−1)`,
//! which is zero exactly when all `n−1` differences are distinct.  Occurrence
//! counters are maintained incrementally; a swap only touches the at most
//! four differences adjacent to the two swapped positions.

use std::cell::RefCell;

use cbls_core::{Evaluator, IncrementalProfile, SearchConfig};
use serde::{Deserialize, Serialize};

/// The All-Interval Series problem of size `n` (CSPLib prob007).
#[derive(Debug, Clone)]
pub struct AllInterval {
    n: usize,
    /// occ[d] = number of adjacent pairs with |difference| = d (index 0 unused).
    occ: Vec<u32>,
    /// Reusable occurrence-table copy for the batched probe kernel (the
    /// anchor's removals pre-applied once per row); interior mutability
    /// because the probe hooks take `&self`.
    scratch: RefCell<Vec<u32>>,
}

// Manual (de)serialization: the probe scratch is derived state, so only `n`
// and the occurrence table travel (the vendored serde derive has no `skip`).
impl Serialize for AllInterval {
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"n\":");
        self.n.write_json(out);
        out.push_str(",\"occ\":");
        self.occ.write_json(out);
        out.push('}');
    }
}

impl Deserialize for AllInterval {
    fn from_json_value(v: &serde::__private::Value) -> Result<Self, serde::__private::DeError> {
        Ok(Self {
            n: serde::__private::field(v, "n")?,
            occ: serde::__private::field(v, "occ")?,
            scratch: RefCell::new(Vec::new()),
        })
    }
}

impl AllInterval {
    /// Create an instance of size `n` (`n ≥ 2`).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` (a series needs at least one interval).
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "all-interval series needs at least two elements");
        Self {
            n,
            occ: vec![0; n],
            scratch: RefCell::new(Vec::with_capacity(n)),
        }
    }

    #[inline]
    fn diff(perm: &[usize], pair: usize) -> usize {
        perm[pair].abs_diff(perm[pair + 1])
    }

    fn recompute(&mut self, perm: &[usize]) {
        self.occ.iter_mut().for_each(|o| *o = 0);
        for pair in 0..self.n - 1 {
            self.occ[Self::diff(perm, pair)] += 1;
        }
    }

    fn cost_from_occ(&self) -> i64 {
        self.occ
            .iter()
            .map(|&o| i64::from(o.saturating_sub(1)))
            .sum()
    }

    /// The adjacent-pair indices whose difference involves position `i`.
    fn pairs_of(&self, i: usize) -> impl Iterator<Item = usize> {
        let lo = i.saturating_sub(1);
        let hi = i.min(self.n - 2);
        lo..=hi
    }

    /// Value at `pos` after hypothetically swapping positions `i` and `j`.
    #[inline]
    fn value_after_swap(perm: &[usize], i: usize, j: usize, pos: usize) -> usize {
        if pos == i {
            perm[j]
        } else if pos == j {
            perm[i]
        } else {
            perm[pos]
        }
    }

    /// The ≤ 4 deduplicated adjacent-pair indices involving `i` or `j`.
    #[inline]
    fn affected_pairs(&self, i: usize, j: usize) -> ([usize; 4], usize) {
        let mut pairs = [0usize; 4];
        let mut np = 0usize;
        for pair in self.pairs_of(i).chain(self.pairs_of(j)) {
            if !pairs[..np].contains(&pair) {
                pairs[np] = pair;
                np += 1;
            }
        }
        (pairs, np)
    }
}

impl Evaluator for AllInterval {
    fn size(&self) -> usize {
        self.n
    }

    fn name(&self) -> &str {
        "all-interval"
    }

    fn init(&mut self, perm: &[usize]) -> i64 {
        self.recompute(perm);
        self.cost_from_occ()
    }

    fn cost(&self, perm: &[usize]) -> i64 {
        // From-scratch recount into a local scratch table (no evaluator
        // clone): every occurrence of a difference beyond the first adds one.
        let mut seen = vec![0u32; self.n];
        let mut cost = 0;
        for pair in 0..self.n - 1 {
            let d = Self::diff(perm, pair);
            if seen[d] >= 1 {
                cost += 1;
            }
            seen[d] += 1;
        }
        cost
    }

    fn cost_on_variable(&self, perm: &[usize], i: usize) -> i64 {
        // Number of adjacent differences at `i` that are duplicated elsewhere.
        self.pairs_of(i)
            .map(|pair| i64::from(self.occ[Self::diff(perm, pair)] > 1))
            .sum()
    }

    fn cost_if_swap(&self, perm: &[usize], current_cost: i64, i: usize, j: usize) -> i64 {
        if i == j || perm[i] == perm[j] {
            return current_cost;
        }
        // Affected pairs: those adjacent to i or to j (deduplicated), and the
        // occurrence-count adjustments as (difference, delta) — both tiny and
        // stack-resident (this path runs n−1 times per engine iteration).
        let (pairs, np) = self.affected_pairs(i, j);
        let mut adjust = [(0usize, 0i64); 8];
        let mut na = 0usize;

        let mut cost = current_cost;
        // Remove the old differences of the affected pairs, then add the new
        // ones, updating the surplus count as we go.
        for &pair in &pairs[..np] {
            let d = Self::diff(perm, pair);
            let mut occ_now = i64::from(self.occ[d]);
            for &(ad, delta) in &adjust[..na] {
                if ad == d {
                    occ_now += delta;
                }
            }
            // removing one occurrence reduces the surplus iff occ > 1
            if occ_now > 1 {
                cost -= 1;
            }
            adjust[na] = (d, -1);
            na += 1;
        }
        for &pair in &pairs[..np] {
            let a = Self::value_after_swap(perm, i, j, pair);
            let b = Self::value_after_swap(perm, i, j, pair + 1);
            let d = a.abs_diff(b);
            let mut occ_now = i64::from(self.occ[d]);
            for &(ad, delta) in &adjust[..na] {
                if ad == d {
                    occ_now += delta;
                }
            }
            // adding an occurrence increases the surplus iff one already exists
            if occ_now >= 1 {
                cost += 1;
            }
            adjust[na] = (d, 1);
            na += 1;
        }
        cost
    }

    fn cost_if_swaps(
        &self,
        perm: &[usize],
        current_cost: i64,
        i: usize,
        js: &[usize],
        out: &mut [i64],
    ) {
        assert_eq!(js.len(), out.len(), "probe output length mismatch");
        // Batched kernel over a working copy of the occurrence table: position
        // `i`'s removals are pre-applied once, each candidate `j` then applies
        // its own removals and the union's additions directly on the copy
        // (exact running counts, no pending-adjustment scans) and reverts them
        // from a stack-resident undo list.  Removal and addition contributions
        // for a difference value depend only on how many pairs leave/enter it
        // within the phase, so the reordering relative to the scalar probe's
        // dedup-union walk cannot change the result.
        let mut tmp = self.scratch.borrow_mut();
        tmp.clear();
        tmp.extend_from_slice(&self.occ);
        let i_lo = i.saturating_sub(1);
        let i_hi = i.min(self.n - 2);
        let mut rm_i = 0i64;
        for pair in self.pairs_of(i) {
            let d = Self::diff(perm, pair);
            if tmp[d] > 1 {
                rm_i -= 1;
            }
            tmp[d] -= 1;
        }
        for (k, &j) in js.iter().enumerate() {
            if i == j || perm[i] == perm[j] {
                out[k] = current_cost;
                continue;
            }
            let mut undo = [(0usize, 0i32); 8];
            let mut nu = 0usize;
            let mut delta = rm_i;
            for pair in self.pairs_of(j) {
                if (i_lo..=i_hi).contains(&pair) {
                    continue; // already removed with `i`'s pairs
                }
                let d = Self::diff(perm, pair);
                if tmp[d] > 1 {
                    delta -= 1;
                }
                tmp[d] -= 1;
                undo[nu] = (d, 1);
                nu += 1;
            }
            let (pairs, np) = self.affected_pairs(i, j);
            for &pair in &pairs[..np] {
                let a = Self::value_after_swap(perm, i, j, pair);
                let b = Self::value_after_swap(perm, i, j, pair + 1);
                let d = a.abs_diff(b);
                if tmp[d] >= 1 {
                    delta += 1;
                }
                tmp[d] += 1;
                undo[nu] = (d, -1);
                nu += 1;
            }
            out[k] = current_cost + delta;
            for &(d, sign) in undo[..nu].iter().rev() {
                if sign > 0 {
                    tmp[d] += 1;
                } else {
                    tmp[d] -= 1;
                }
            }
        }
    }

    fn executed_swap(&mut self, perm: &[usize], i: usize, j: usize) {
        if i == j {
            return;
        }
        // `perm` is already swapped; the *old* values are recovered by
        // swapping back on the fly.
        let (pairs, np) = self.affected_pairs(i, j);
        for &pair in &pairs[..np] {
            // old difference: value_after_swap applied to the swapped perm
            // reverses the swap.
            let old_a = Self::value_after_swap(perm, i, j, pair);
            let old_b = Self::value_after_swap(perm, i, j, pair + 1);
            let old_d = old_a.abs_diff(old_b);
            self.occ[old_d] -= 1;
            let new_d = Self::diff(perm, pair);
            self.occ[new_d] += 1;
        }
    }

    fn touched_by_swap(&self, perm: &[usize], i: usize, j: usize, out: &mut Vec<usize>) -> bool {
        if i == j || perm[i] == perm[j] {
            return true;
        }
        // Positions adjacent to an affected pair always need re-projection.
        let (pairs, np) = self.affected_pairs(i, j);
        for &pair in &pairs[..np] {
            out.push(pair);
            out.push(pair + 1);
        }
        // A position elsewhere is touched only when one of its differences
        // crossed the duplicated/unique boundary.  Reconstruct the net
        // occurrence deltas of the ≤ 8 changed difference values (`self.occ`
        // is post-swap) and check which of them flipped `occ > 1`.
        let mut deltas = [(0usize, 0i64); 8];
        let mut nd = 0usize;
        let bump = |deltas: &mut [(usize, i64); 8], nd: &mut usize, d: usize, delta: i64| {
            for entry in deltas[..*nd].iter_mut() {
                if entry.0 == d {
                    entry.1 += delta;
                    return;
                }
            }
            deltas[*nd] = (d, delta);
            *nd += 1;
        };
        for &pair in &pairs[..np] {
            let old_a = Self::value_after_swap(perm, i, j, pair);
            let old_b = Self::value_after_swap(perm, i, j, pair + 1);
            bump(&mut deltas, &mut nd, old_a.abs_diff(old_b), -1);
            bump(&mut deltas, &mut nd, Self::diff(perm, pair), 1);
        }
        let mut flipped = [0usize; 8];
        let mut nf = 0usize;
        for &(d, delta) in &deltas[..nd] {
            let post = i64::from(self.occ[d]);
            let pre = post - delta;
            if (pre > 1) != (post > 1) {
                flipped[nf] = d;
                nf += 1;
            }
        }
        if nf > 0 {
            for pair in 0..self.n - 1 {
                if flipped[..nf].contains(&Self::diff(perm, pair)) {
                    out.push(pair);
                    out.push(pair + 1);
                }
            }
        }
        true
    }

    fn project_errors_full(&self, perm: &[usize], out: &mut [i64]) {
        out.iter_mut().for_each(|e| *e = 0);
        for pair in 0..self.n - 1 {
            if self.occ[Self::diff(perm, pair)] > 1 {
                out[pair] += 1;
                out[pair + 1] += 1;
            }
        }
    }

    fn incremental_profile(&self) -> IncrementalProfile {
        IncrementalProfile {
            scratch_cost: true,
            incremental_cost_if_swap: true,
            incremental_executed_swap: true,
            tracked_dirty_sets: true,
            batched_projection: true,
            batched_probes: true,
        }
    }

    fn tune(&self, config: &mut SearchConfig) {
        // Parameters calibrated with the `tune_scratch` sweep: moderate
        // sideways acceptance and an early reset after three local minima
        // keep the search off the huge plateaus of this model.
        config.freeze_duration = 1;
        config.plateau_probability = 0.3;
        config.reset_fraction = 0.1;
        config.reset_limit = Some(3);
        config.prob_select_local_min = 0.0;
        config.max_iterations_per_restart = (self.n as u64).pow(3).max(50_000);
    }

    fn verify(&self, perm: &[usize]) -> bool {
        if perm.len() != self.n {
            return false;
        }
        let mut seen_value = vec![false; self.n];
        for &v in perm {
            if v >= self.n || seen_value[v] {
                return false;
            }
            seen_value[v] = true;
        }
        let mut seen_diff = vec![false; self.n];
        for pair in 0..self.n - 1 {
            let d = Self::diff(perm, pair);
            if d == 0 || d >= self.n || seen_diff[d] {
                return false;
            }
            seen_diff[d] = true;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{
        assert_no_default_hot_paths, check_batched_probes, check_error_projection,
        check_incremental_consistency, check_projection_cache,
    };
    use as_rng::default_rng;
    use cbls_core::AdaptiveSearch;

    #[test]
    fn projection_cache_stays_fresh_across_swaps() {
        for n in [2usize, 5, 13, 50] {
            check_projection_cache(AllInterval::new(n), 450 + n as u64, 60);
        }
        assert_no_default_hot_paths(&AllInterval::new(10));
    }

    /// The canonical zig-zag construction 0, n-1, 1, n-2, ... is an
    /// all-interval series for every n.
    fn zigzag(n: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(n);
        let mut lo = 0usize;
        let mut hi = n - 1;
        for k in 0..n {
            if k % 2 == 0 {
                out.push(lo);
                lo += 1;
            } else {
                out.push(hi);
                hi -= 1;
            }
        }
        out
    }

    #[test]
    fn zigzag_is_a_solution() {
        for n in [2usize, 3, 5, 8, 12, 20] {
            let mut p = AllInterval::new(n);
            let perm = zigzag(n);
            assert_eq!(p.init(&perm), 0, "zigzag({n}) should have zero cost");
            assert!(p.verify(&perm));
        }
    }

    #[test]
    fn constant_differences_are_maximally_bad() {
        // The identity 0,1,2,...,n-1 has every difference equal to 1:
        // n-1 occurrences of the same value → surplus n-2.
        let mut p = AllInterval::new(10);
        let perm: Vec<usize> = (0..10).collect();
        assert_eq!(p.init(&perm), 8);
        assert!(!p.verify(&perm));
    }

    #[test]
    fn incremental_consistency() {
        for n in [4usize, 7, 12, 20] {
            check_incremental_consistency(AllInterval::new(n), 300 + n as u64, 25);
        }
    }

    #[test]
    fn error_projection_consistency() {
        for n in [4usize, 8, 15] {
            check_error_projection(AllInterval::new(n), 400 + n as u64, 25);
        }
    }

    #[test]
    fn verify_rejects_duplicate_differences() {
        let p = AllInterval::new(4);
        assert!(!p.verify(&[0, 1, 2, 3]));
        assert!(!p.verify(&[0, 0, 1, 2]));
        assert!(!p.verify(&[0, 1, 2]));
    }

    #[test]
    fn adaptive_search_solves_small_sizes() {
        for n in [6usize, 8, 10, 12] {
            let mut p = AllInterval::new(n);
            let engine = AdaptiveSearch::tuned_for(&p);
            let out = engine.solve(&mut p, &mut default_rng(50 + n as u64));
            assert!(out.solved(), "n = {n} not solved: {out:?}");
            assert!(p.verify(&out.solution));
        }
    }

    #[test]
    fn batched_probes_match_the_scalar_probe() {
        for n in [2usize, 3, 5, 12, 50] {
            check_batched_probes(AllInterval::new(n), 7300 + n as u64, 12);
        }
    }

    #[test]
    fn swap_of_equal_positions_is_identity() {
        let mut p = AllInterval::new(8);
        let perm = zigzag(8);
        let c = p.init(&perm);
        assert_eq!(p.cost_if_swap(&perm, c, 3, 3), c);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn too_small_series_is_rejected() {
        let _ = AllInterval::new(1);
    }
}
