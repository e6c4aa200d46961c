//! Magic Square (CSPLib prob019).
//!
//! Place the numbers `1..n²` on an `n×n` grid so that every row, every column
//! and both main diagonals sum to the magic constant `M = n(n²+1)/2`.  The
//! decision variables are the `n²` cells; a candidate is a permutation `perm`
//! where cell `i = r·n + c` holds the value `perm[i] + 1`.
//!
//! The cost is the sum of `|line_sum − M|` over the `2n + 2` lines; the error
//! of a cell is the sum of the absolute deviations of the lines it belongs
//! to.  All sums are maintained incrementally, so evaluating a candidate swap
//! is `O(1)` and the engine's iteration is `O(n²)` — the same complexity as
//! the original C model used in the paper.

use cbls_core::{Evaluator, IncrementalProfile, SearchConfig};
use serde::{Deserialize, Serialize};

/// The Magic Square problem of order `n` (CSPLib prob019).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MagicSquare {
    n: usize,
    magic: i64,
    row_sums: Vec<i64>,
    col_sums: Vec<i64>,
    diag_sum: i64,
    anti_diag_sum: i64,
}

impl MagicSquare {
    /// Create an instance of order `n` (`n ≥ 1`).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` (an empty grid has no magic constant).
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "magic square order must be at least 1");
        let n_i = n as i64;
        Self {
            n,
            magic: n_i * (n_i * n_i + 1) / 2,
            row_sums: vec![0; n],
            col_sums: vec![0; n],
            diag_sum: 0,
            anti_diag_sum: 0,
        }
    }

    /// Grid order `n`.
    #[must_use]
    pub fn order(&self) -> usize {
        self.n
    }

    /// The magic constant `n(n²+1)/2`.
    #[must_use]
    pub fn magic_constant(&self) -> i64 {
        self.magic
    }

    /// Cell value for position `i` under `perm` (1-based value).
    #[inline]
    fn value(perm: &[usize], i: usize) -> i64 {
        perm[i] as i64 + 1
    }

    #[inline]
    fn row(&self, i: usize) -> usize {
        i / self.n
    }

    #[inline]
    fn col(&self, i: usize) -> usize {
        i % self.n
    }

    #[inline]
    fn on_diag(&self, i: usize) -> bool {
        self.row(i) == self.col(i)
    }

    #[inline]
    fn on_anti_diag(&self, i: usize) -> bool {
        self.row(i) + self.col(i) == self.n - 1
    }

    fn recompute_sums(&mut self, perm: &[usize]) {
        self.row_sums.iter_mut().for_each(|s| *s = 0);
        self.col_sums.iter_mut().for_each(|s| *s = 0);
        self.diag_sum = 0;
        self.anti_diag_sum = 0;
        for i in 0..self.n * self.n {
            let v = Self::value(perm, i);
            let (r, c) = (self.row(i), self.col(i));
            self.row_sums[r] += v;
            self.col_sums[c] += v;
            if self.on_diag(i) {
                self.diag_sum += v;
            }
            if self.on_anti_diag(i) {
                self.anti_diag_sum += v;
            }
        }
    }

    fn cost_from_sums(&self) -> i64 {
        let mut cost = 0;
        for r in 0..self.n {
            cost += (self.row_sums[r] - self.magic).abs();
        }
        for c in 0..self.n {
            cost += (self.col_sums[c] - self.magic).abs();
        }
        cost += (self.diag_sum - self.magic).abs();
        cost += (self.anti_diag_sum - self.magic).abs();
        cost
    }

    /// Pretty-print a candidate grid (used by the examples).
    #[must_use]
    pub fn render(&self, perm: &[usize]) -> String {
        let width = (self.n * self.n).to_string().len();
        let mut out = String::new();
        for r in 0..self.n {
            for c in 0..self.n {
                let v = Self::value(perm, r * self.n + c);
                out.push_str(&format!("{v:>width$} "));
            }
            out.push('\n');
        }
        out
    }

    /// Line identifiers affected by a change of cell `i`:
    /// `(row, col, on_diag, on_anti_diag)`.
    #[inline]
    fn lines_of(&self, i: usize) -> (usize, usize, bool, bool) {
        (
            self.row(i),
            self.col(i),
            self.on_diag(i),
            self.on_anti_diag(i),
        )
    }
}

impl Evaluator for MagicSquare {
    fn size(&self) -> usize {
        self.n * self.n
    }

    fn name(&self) -> &str {
        "magic-square"
    }

    fn init(&mut self, perm: &[usize]) -> i64 {
        self.recompute_sums(perm);
        self.cost_from_sums()
    }

    fn cost(&self, perm: &[usize]) -> i64 {
        // From-scratch recomputation with scalar accumulators per line (no
        // evaluator clone, no scratch tables needed).
        let n = self.n;
        let mut cost = 0;
        for r in 0..n {
            let sum: i64 = (0..n).map(|c| Self::value(perm, r * n + c)).sum();
            cost += (sum - self.magic).abs();
        }
        for c in 0..n {
            let sum: i64 = (0..n).map(|r| Self::value(perm, r * n + c)).sum();
            cost += (sum - self.magic).abs();
        }
        let diag: i64 = (0..n).map(|k| Self::value(perm, k * n + k)).sum();
        cost += (diag - self.magic).abs();
        let anti: i64 = (0..n).map(|k| Self::value(perm, k * n + n - 1 - k)).sum();
        cost += (anti - self.magic).abs();
        cost
    }

    fn cost_on_variable(&self, _perm: &[usize], i: usize) -> i64 {
        let (r, c, d, a) = self.lines_of(i);
        let mut err = (self.row_sums[r] - self.magic).abs() + (self.col_sums[c] - self.magic).abs();
        if d {
            err += (self.diag_sum - self.magic).abs();
        }
        if a {
            err += (self.anti_diag_sum - self.magic).abs();
        }
        err
    }

    fn cost_if_swap(&self, perm: &[usize], current_cost: i64, i: usize, j: usize) -> i64 {
        if i == j {
            return current_cost;
        }
        let vi = Self::value(perm, i);
        let vj = Self::value(perm, j);
        let delta_i = vj - vi; // change applied to cell i's lines
        let delta_j = vi - vj; // change applied to cell j's lines

        let (ri, ci, di, ai) = self.lines_of(i);
        let (rj, cj, dj, aj) = self.lines_of(j);

        let mut cost = current_cost;

        // Rows.
        if ri == rj {
            // same row: net change is zero, nothing to do
        } else {
            cost -= (self.row_sums[ri] - self.magic).abs();
            cost += (self.row_sums[ri] + delta_i - self.magic).abs();
            cost -= (self.row_sums[rj] - self.magic).abs();
            cost += (self.row_sums[rj] + delta_j - self.magic).abs();
        }

        // Columns.
        if ci == cj {
            // same column: net change is zero
        } else {
            cost -= (self.col_sums[ci] - self.magic).abs();
            cost += (self.col_sums[ci] + delta_i - self.magic).abs();
            cost -= (self.col_sums[cj] - self.magic).abs();
            cost += (self.col_sums[cj] + delta_j - self.magic).abs();
        }

        // Main diagonal.
        let diag_delta = match (di, dj) {
            (true, true) | (false, false) => 0,
            (true, false) => delta_i,
            (false, true) => delta_j,
        };
        if diag_delta != 0 {
            cost -= (self.diag_sum - self.magic).abs();
            cost += (self.diag_sum + diag_delta - self.magic).abs();
        }

        // Anti-diagonal.
        let anti_delta = match (ai, aj) {
            (true, true) | (false, false) => 0,
            (true, false) => delta_i,
            (false, true) => delta_j,
        };
        if anti_delta != 0 {
            cost -= (self.anti_diag_sum - self.magic).abs();
            cost += (self.anti_diag_sum + anti_delta - self.magic).abs();
        }

        cost
    }

    fn executed_swap(&mut self, perm: &[usize], i: usize, j: usize) {
        // `perm` is the permutation after the swap, so the value now at `i`
        // used to live at `j` and vice versa.
        let now_i = Self::value(perm, i);
        let now_j = Self::value(perm, j);
        let delta_i = now_i - now_j; // cell i gained (now_i - old_i) = now_i - now_j
        let delta_j = now_j - now_i;

        let (ri, ci, di, ai) = self.lines_of(i);
        let (rj, cj, dj, aj) = self.lines_of(j);
        self.row_sums[ri] += delta_i;
        self.row_sums[rj] += delta_j;
        self.col_sums[ci] += delta_i;
        self.col_sums[cj] += delta_j;
        if di {
            self.diag_sum += delta_i;
        }
        if dj {
            self.diag_sum += delta_j;
        }
        if ai {
            self.anti_diag_sum += delta_i;
        }
        if aj {
            self.anti_diag_sum += delta_j;
        }
    }

    fn touched_by_swap(&self, _perm: &[usize], i: usize, j: usize, out: &mut Vec<usize>) -> bool {
        if i == j {
            return true;
        }
        // A cell's error is the deviation of the lines through it, so only
        // cells on a line whose sum changed are touched.  A line containing
        // both `i` and `j` is unaffected (the swap is internal to it).
        let n = self.n;
        let (ri, ci, di, ai) = self.lines_of(i);
        let (rj, cj, dj, aj) = self.lines_of(j);
        if ri != rj {
            out.extend((0..n).map(|c| ri * n + c));
            out.extend((0..n).map(|c| rj * n + c));
        }
        if ci != cj {
            out.extend((0..n).map(|r| r * n + ci));
            out.extend((0..n).map(|r| r * n + cj));
        }
        if di != dj {
            out.extend((0..n).map(|k| k * n + k));
        }
        if ai != aj {
            out.extend((0..n).map(|k| k * n + n - 1 - k));
        }
        true
    }

    fn project_errors_full(&self, _perm: &[usize], out: &mut [i64]) {
        // Batched pass: pre-compute each line's deviation once, then sum the
        // deviations of the (2..4) lines through every cell.
        let n = self.n;
        let diag_dev = (self.diag_sum - self.magic).abs();
        let anti_dev = (self.anti_diag_sum - self.magic).abs();
        for (idx, slot) in out.iter_mut().enumerate() {
            let (r, c) = (idx / n, idx % n);
            let mut err =
                (self.row_sums[r] - self.magic).abs() + (self.col_sums[c] - self.magic).abs();
            if r == c {
                err += diag_dev;
            }
            if r + c == n - 1 {
                err += anti_dev;
            }
            *slot = err;
        }
    }

    fn incremental_profile(&self) -> IncrementalProfile {
        IncrementalProfile {
            scratch_cost: true,
            incremental_cost_if_swap: true,
            incremental_executed_swap: true,
            tracked_dirty_sets: true,
            batched_projection: true,
            batched_probes: false,
        }
    }

    fn tune(&self, config: &mut SearchConfig) {
        // Parameters calibrated with the `tune_scratch` sweep (see
        // examples/tune_scratch.rs): strict improvement only, a slightly
        // longer freeze and a pinch of forced moves, resetting a tenth of the
        // cells after n²/10 local minima.
        config.freeze_duration = 3;
        config.plateau_probability = 0.0;
        config.reset_fraction = 0.1;
        config.reset_limit = Some((self.n * self.n / 10).max(2));
        config.prob_select_local_min = 0.05;
        config.max_iterations_per_restart = (self.n as u64).pow(4).max(100_000);
    }

    fn verify(&self, perm: &[usize]) -> bool {
        let n = self.n;
        if perm.len() != n * n {
            return false;
        }
        // must be a permutation of 0..n²
        let mut seen = vec![false; n * n];
        for &v in perm {
            if v >= n * n || seen[v] {
                return false;
            }
            seen[v] = true;
        }
        let value = |r: usize, c: usize| perm[r * n + c] as i64 + 1;
        for r in 0..n {
            if (0..n).map(|c| value(r, c)).sum::<i64>() != self.magic {
                return false;
            }
        }
        for c in 0..n {
            if (0..n).map(|r| value(r, c)).sum::<i64>() != self.magic {
                return false;
            }
        }
        if (0..n).map(|k| value(k, k)).sum::<i64>() != self.magic {
            return false;
        }
        if (0..n).map(|k| value(k, n - 1 - k)).sum::<i64>() != self.magic {
            return false;
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
        assert_no_default_hot_paths, check_error_projection, check_incremental_consistency,
        check_projection_cache,
    };

    #[test]
    fn projection_cache_stays_fresh_across_swaps() {
        for n in [2usize, 3, 5, 7] {
            check_projection_cache(MagicSquare::new(n), 250 + n as u64, 60);
        }
        assert_no_default_hot_paths(&MagicSquare::new(4));
    }

    /// The classic Lo Shu square, as a permutation (values minus one):
    /// ```text
    /// 2 7 6
    /// 9 5 1
    /// 4 3 8
    /// ```
    fn lo_shu() -> Vec<usize> {
        vec![1, 6, 5, 8, 4, 0, 3, 2, 7]
    }

    #[test]
    fn magic_constant() {
        assert_eq!(MagicSquare::new(3).magic_constant(), 15);
        assert_eq!(MagicSquare::new(4).magic_constant(), 34);
        assert_eq!(MagicSquare::new(5).magic_constant(), 65);
    }

    #[test]
    fn known_solution_has_zero_cost_and_verifies() {
        let mut p = MagicSquare::new(3);
        let perm = lo_shu();
        assert_eq!(p.init(&perm), 0);
        assert_eq!(p.cost(&perm), 0);
        assert!(p.verify(&perm));
        for i in 0..9 {
            assert_eq!(p.cost_on_variable(&perm, i), 0);
        }
    }

    #[test]
    fn perturbed_solution_has_positive_cost() {
        let mut p = MagicSquare::new(3);
        let mut perm = lo_shu();
        perm.swap(0, 1);
        assert!(p.init(&perm) > 0);
        assert!(!p.verify(&perm));
    }

    #[test]
    fn identity_cost_matches_manual_computation() {
        // 3x3 grid filled 1..9 row-major: rows sum to 6, 15, 24; cols 12, 15, 18;
        // diag 15; anti-diag 15. Deviations: 9+0+9 + 3+0+3 + 0 + 0 = 24.
        let mut p = MagicSquare::new(3);
        let perm: Vec<usize> = (0..9).collect();
        assert_eq!(p.init(&perm), 24);
    }

    #[test]
    fn incremental_consistency() {
        for n in [3usize, 4, 5, 6] {
            check_incremental_consistency(MagicSquare::new(n), 100 + n as u64, 20);
        }
    }

    #[test]
    fn error_projection_consistency() {
        for n in [3usize, 4, 5] {
            check_error_projection(MagicSquare::new(n), 200 + n as u64, 20);
        }
    }

    #[test]
    fn verify_rejects_non_permutations() {
        let p = MagicSquare::new(3);
        assert!(!p.verify(&[0; 9]));
        assert!(!p.verify(&[0, 1, 2]));
        assert!(!p.verify(&(0..9).collect::<Vec<_>>()));
    }

    #[test]
    fn render_contains_all_values() {
        let p = MagicSquare::new(3);
        let s = p.render(&lo_shu());
        for v in 1..=9 {
            assert!(s.contains(&v.to_string()), "missing {v} in\n{s}");
        }
    }

    #[test]
    fn adaptive_search_solves_small_orders() {
        for n in [3usize, 4, 5] {
            let mut p = MagicSquare::new(n);
            let engine = AdaptiveSearch::tuned_for(&p);
            let out = engine.solve(&mut p, &mut default_rng(7 + n as u64));
            assert!(out.solved(), "order {n} not solved: {out:?}");
            assert!(p.verify(&out.solution), "order {n} solution fails verify");
        }
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_order_is_rejected() {
        let _ = MagicSquare::new(0);
    }

    #[test]
    fn tune_sets_problem_specific_parameters() {
        let p = MagicSquare::new(10);
        let mut cfg = SearchConfig::default();
        p.tune(&mut cfg);
        assert_eq!(cfg.freeze_duration, 3);
        assert_eq!(cfg.reset_limit, Some(10));
        assert!((cfg.plateau_probability - 0.0).abs() < 1e-12);
    }
}
