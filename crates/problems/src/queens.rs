//! Permutation N-Queens.
//!
//! Place `n` queens on an `n×n` board, one per column, so that no two share a
//! row or a diagonal.  With the permutation encoding (`perm[c]` = row of the
//! queen in column `c`) rows and columns are satisfied by construction and
//! only the two diagonal families can conflict.  N-Queens is part of the
//! original Adaptive Search distribution and serves here as an easy,
//! well-understood model for tests, examples and the baseline comparison.

use cbls_core::{Evaluator, IncrementalProfile, SearchConfig};
use serde::{Deserialize, Serialize};

/// The N-Queens problem of order `n` in permutation encoding.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NQueens {
    n: usize,
    /// Queens per ascending diagonal (`c + perm[c]`), `2n − 1` of them.
    diag_up: Vec<u32>,
    /// Queens per descending diagonal (`c − perm[c] + n − 1`).
    diag_down: Vec<u32>,
}

impl NQueens {
    /// Create an instance with `n` queens (`n ≥ 1`).
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "there must be at least one queen");
        Self {
            n,
            diag_up: vec![0; 2 * n - 1],
            diag_down: vec![0; 2 * n - 1],
        }
    }

    /// Board order `n`.
    #[must_use]
    pub fn order(&self) -> usize {
        self.n
    }

    #[inline]
    fn up(&self, col: usize, row: usize) -> usize {
        col + row
    }

    #[inline]
    fn down(&self, col: usize, row: usize) -> usize {
        col + self.n - 1 - row
    }

    fn recompute(&mut self, perm: &[usize]) {
        self.diag_up.iter_mut().for_each(|d| *d = 0);
        self.diag_down.iter_mut().for_each(|d| *d = 0);
        for (col, &row) in perm.iter().enumerate() {
            let (u, d) = (self.up(col, row), self.down(col, row));
            self.diag_up[u] += 1;
            self.diag_down[d] += 1;
        }
    }

    fn cost_from_diags(&self) -> i64 {
        // Number of attacking pairs: C(k, 2) per diagonal.
        let pairs = |counts: &[u32]| -> i64 {
            counts
                .iter()
                .map(|&k| i64::from(k) * (i64::from(k) - 1) / 2)
                .sum()
        };
        pairs(&self.diag_up) + pairs(&self.diag_down)
    }

    /// C(k, 2) attacking pairs on a diagonal holding `k` queens.
    #[inline]
    fn pair(k: i64) -> i64 {
        k * (k - 1) / 2
    }

    /// Re-cost one diagonal family entry under a pending ±1 adjustment,
    /// tracking previous adjustments in a stack-resident list (at most four
    /// per family per swap).
    #[inline]
    fn apply_adjustment(
        cost: &mut i64,
        counts: &[u32],
        adjust: &mut [(usize, i64); 4],
        len: &mut usize,
        idx: usize,
        delta: i64,
    ) {
        let mut current = i64::from(counts[idx]);
        for &(d, v) in &adjust[..*len] {
            if d == idx {
                current += v;
            }
        }
        *cost -= Self::pair(current);
        *cost += Self::pair(current + delta);
        adjust[*len] = (idx, delta);
        *len += 1;
    }
}

impl Evaluator for NQueens {
    fn size(&self) -> usize {
        self.n
    }

    fn name(&self) -> &str {
        "n-queens"
    }

    fn init(&mut self, perm: &[usize]) -> i64 {
        self.recompute(perm);
        self.cost_from_diags()
    }

    fn cost(&self, perm: &[usize]) -> i64 {
        // From-scratch recount into local scratch tables (no evaluator clone).
        let mut up = vec![0u32; 2 * self.n - 1];
        let mut down = vec![0u32; 2 * self.n - 1];
        for (col, &row) in perm.iter().enumerate() {
            up[self.up(col, row)] += 1;
            down[self.down(col, row)] += 1;
        }
        up.iter()
            .chain(down.iter())
            .map(|&k| Self::pair(i64::from(k)))
            .sum()
    }

    fn cost_on_variable(&self, perm: &[usize], i: usize) -> i64 {
        let row = perm[i];
        let up = self.diag_up[self.up(i, row)];
        let down = self.diag_down[self.down(i, row)];
        // Conflicts this queen participates in.
        i64::from(up.saturating_sub(1)) + i64::from(down.saturating_sub(1))
    }

    fn cost_if_swap(&self, perm: &[usize], current_cost: i64, i: usize, j: usize) -> i64 {
        if i == j || perm[i] == perm[j] {
            return current_cost;
        }
        // Remove queens (i, perm[i]) and (j, perm[j]), add (i, perm[j]) and
        // (j, perm[i]); track the four affected diagonals per family with a
        // stack-resident adjustment list (no heap allocation on this path —
        // it runs n−1 times per engine iteration).
        let mut cost = current_cost;
        let mut adjust_up = [(0usize, 0i64); 4];
        let mut nu = 0usize;
        let mut adjust_down = [(0usize, 0i64); 4];
        let mut nd = 0usize;

        for (idx, delta) in [
            (self.up(i, perm[i]), -1),
            (self.up(j, perm[j]), -1),
            (self.up(i, perm[j]), 1),
            (self.up(j, perm[i]), 1),
        ] {
            Self::apply_adjustment(
                &mut cost,
                &self.diag_up,
                &mut adjust_up,
                &mut nu,
                idx,
                delta,
            );
        }
        for (idx, delta) in [
            (self.down(i, perm[i]), -1),
            (self.down(j, perm[j]), -1),
            (self.down(i, perm[j]), 1),
            (self.down(j, perm[i]), 1),
        ] {
            Self::apply_adjustment(
                &mut cost,
                &self.diag_down,
                &mut adjust_down,
                &mut nd,
                idx,
                delta,
            );
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
        assert_eq!(js.len(), out.len(), "cost_if_swaps: js/out length mismatch");
        // Replays the scalar probe's four adjustments per family with the
        // pending-list corrections resolved algebraically.  Removing queen
        // (i, perm[i]) is shared by every probe of the row; the only
        // diagonal collisions possible in a permutation are
        // `up(i,pi)==up(j,pj)` / `down(j,pi)==down(i,pj)` (both ⇔
        // `i+pi == j+pj`) and their mirror pair (⇔ `j+pi == i+pj`).
        let pi = perm[i];
        let rm_i = -(i64::from(self.diag_up[self.up(i, pi)]) - 1)
            - (i64::from(self.diag_down[self.down(i, pi)]) - 1);
        for (k, &j) in js.iter().enumerate() {
            if j == i || perm[j] == pi {
                out[k] = current_cost;
                continue;
            }
            let pj = perm[j];
            let e_plus = i64::from(j + pi == i + pj);
            let e_minus = i64::from(i + pi == j + pj);
            let d_up = -(i64::from(self.diag_up[self.up(j, pj)]) - e_minus - 1)
                + i64::from(self.diag_up[self.up(i, pj)])
                + i64::from(self.diag_up[self.up(j, pi)])
                + e_plus;
            let d_down = -(i64::from(self.diag_down[self.down(j, pj)]) - e_plus - 1)
                + i64::from(self.diag_down[self.down(i, pj)])
                + i64::from(self.diag_down[self.down(j, pi)])
                + e_minus;
            out[k] = current_cost + rm_i + d_up + d_down;
        }
    }

    fn executed_swap(&mut self, perm: &[usize], i: usize, j: usize) {
        if i == j {
            return;
        }
        // `perm` is after the swap: the old row of column i is perm[j].
        let (new_i, new_j) = (perm[i], perm[j]);
        let (old_i, old_j) = (new_j, new_i);
        let up_old_i = self.up(i, old_i);
        let up_old_j = self.up(j, old_j);
        let up_new_i = self.up(i, new_i);
        let up_new_j = self.up(j, new_j);
        let down_old_i = self.down(i, old_i);
        let down_old_j = self.down(j, old_j);
        let down_new_i = self.down(i, new_i);
        let down_new_j = self.down(j, new_j);
        self.diag_up[up_old_i] -= 1;
        self.diag_up[up_old_j] -= 1;
        self.diag_up[up_new_i] += 1;
        self.diag_up[up_new_j] += 1;
        self.diag_down[down_old_i] -= 1;
        self.diag_down[down_old_j] -= 1;
        self.diag_down[down_new_i] += 1;
        self.diag_down[down_new_j] += 1;
    }

    fn touched_by_swap(&self, perm: &[usize], i: usize, j: usize, out: &mut Vec<usize>) -> bool {
        if i == j {
            return true;
        }
        // A queen's error depends only on the counts of its own two
        // diagonals; the swap changed counts on at most eight diagonals
        // (old and new, per family).  `perm` is post-swap, so the old
        // diagonal of column `i` is the one through `(i, perm[j])`.
        let up_set = [
            self.up(i, perm[i]),
            self.up(j, perm[j]),
            self.up(i, perm[j]),
            self.up(j, perm[i]),
        ];
        let down_set = [
            self.down(i, perm[i]),
            self.down(j, perm[j]),
            self.down(i, perm[j]),
            self.down(j, perm[i]),
        ];
        for (k, &row) in perm.iter().enumerate() {
            if up_set.contains(&self.up(k, row)) || down_set.contains(&self.down(k, row)) {
                out.push(k);
            }
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
            batched_probes: true,
        }
    }

    fn tune(&self, config: &mut SearchConfig) {
        config.freeze_duration = 2;
        config.plateau_probability = 0.5;
        config.reset_fraction = 0.1;
        config.reset_limit = Some((self.n / 10).max(2));
        config.max_iterations_per_restart = (self.n as u64 * 1_000).max(50_000);
    }

    fn verify(&self, perm: &[usize]) -> bool {
        let n = self.n;
        if perm.len() != n {
            return false;
        }
        let mut seen = vec![false; n];
        for &v in perm {
            if v >= n || seen[v] {
                return false;
            }
            seen[v] = true;
        }
        for a in 0..n {
            for b in a + 1..n {
                if a + perm[b] == b + perm[a] || a + perm[a] == b + perm[b] {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use as_rng::default_rng;
    use cbls_core::AdaptiveSearch;
    use cbls_testkit::{
        assert_no_default_hot_paths, check_batched_probes, check_error_projection,
        check_incremental_consistency, check_projection_cache,
    };

    #[test]
    fn projection_cache_stays_fresh_across_swaps() {
        for n in [4usize, 9, 17, 32] {
            check_projection_cache(NQueens::new(n), 850 + n as u64, 60);
        }
        assert_no_default_hot_paths(&NQueens::new(8));
    }

    #[test]
    fn known_solution_for_six_queens() {
        // A classic solution to 6-queens: rows 1,3,5,0,2,4 per column.
        let mut p = NQueens::new(6);
        let perm = vec![1, 3, 5, 0, 2, 4];
        assert_eq!(p.init(&perm), 0);
        assert!(p.verify(&perm));
    }

    #[test]
    fn identity_is_maximally_conflicting() {
        // All queens on the main diagonal: C(n,2) attacking pairs.
        let mut p = NQueens::new(8);
        let perm: Vec<usize> = (0..8).collect();
        assert_eq!(p.init(&perm), 28);
        assert!(!p.verify(&perm));
    }

    #[test]
    fn incremental_consistency() {
        for n in [4usize, 6, 9, 16] {
            check_incremental_consistency(NQueens::new(n), 700 + n as u64, 25);
        }
    }

    #[test]
    fn batched_probes_match_the_scalar_probe() {
        for n in [4usize, 6, 9, 16, 33] {
            check_batched_probes(NQueens::new(n), 7100 + n as u64, 12);
        }
    }

    #[test]
    fn error_projection_consistency() {
        for n in [4usize, 8, 12] {
            check_error_projection(NQueens::new(n), 800 + n as u64, 25);
        }
    }

    #[test]
    fn adaptive_search_solves_a_range_of_sizes() {
        for n in [8usize, 12, 20, 32] {
            let mut p = NQueens::new(n);
            let engine = AdaptiveSearch::tuned_for(&p);
            let out = engine.solve(&mut p, &mut default_rng(90 + n as u64));
            assert!(out.solved(), "n = {n} not solved: {out:?}");
            assert!(p.verify(&out.solution));
        }
    }

    #[test]
    fn verify_rejects_row_and_diagonal_conflicts() {
        let p = NQueens::new(4);
        assert!(!p.verify(&[0, 0, 1, 2])); // repeated row
        assert!(!p.verify(&[0, 1, 2, 3])); // diagonal
        assert!(p.verify(&[1, 3, 0, 2])); // a real solution
    }

    #[test]
    fn swapping_equal_rows_is_a_no_op() {
        let mut p = NQueens::new(5);
        let perm = vec![1, 3, 0, 2, 4];
        let c = p.init(&perm);
        assert_eq!(p.cost_if_swap(&perm, c, 2, 2), c);
    }
}
