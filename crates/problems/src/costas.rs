//! The Costas Array Problem (CAP).
//!
//! A Costas array of order `n` is an `n×n` permutation matrix (one mark per
//! row and per column) such that the `n(n−1)/2` displacement vectors between
//! pairs of marks are all distinct.  Costas arrays were introduced for
//! sonar/radar frequency hopping; the paper uses the CAP as its hard,
//! real-life-derived benchmark and reports *linear* parallel speedups on it
//! (Figure 3, and the headline "n = 22 in about one minute on 256 cores").
//!
//! With the permutation encoding (`perm[i]` = row of the mark in column `i`),
//! the Costas condition is equivalent to: for every column distance
//! `d ∈ 1..n−1`, the differences `perm[i+d] − perm[i]` are pairwise distinct.
//! The cost counts surplus differences per distance, maintained in per-`d`
//! occurrence tables so that swap evaluation costs `O(n)` instead of the
//! `O(n²)` full recount.
//!
//! Candidate swaps are probed in place: `cost_if_swaps` applies each swap of
//! a row to the real occurrence table, sums the surplus changes of the counts
//! it moves, and takes the swap back before the next partner.  The anchor's
//! pairs come off once for the whole row and go back on at its end, and
//! `cost_if_swap` is a one-entry row, so both probes share this one kernel.
//! The value is exact: a count `c` has surplus `max(c − 1, 0)`, so taking a
//! pair off changes the cost by `−[c ≥ 2]` and putting one on by `+[c ≥ 1]`.
//! These steps telescope in any order, and no count goes below zero because
//! a pair is only taken off while it is still counted.

use std::cell::Cell;

use cbls_core::{Evaluator, IncrementalProfile, SearchConfig};
use serde::__private::{field, DeError, Value};
use serde::{Deserialize, Serialize};

/// The Costas Array Problem of order `n`.
#[derive(Debug, Clone)]
pub struct CostasArray {
    n: usize,
    /// Flat row-major occurrence table: `occ[base(d) + δ]` = number of
    /// column pairs at distance `d` whose row difference is `δ`
    /// (`|δ| ≤ n − 1`).  Kept flat so the inner loops of swap evaluation and
    /// error projection stay on one cache-friendly buffer instead of chasing
    /// a `Vec<Vec<_>>` indirection per distance.  Cells, because the probes
    /// take `&self` and apply each candidate swap to the table itself.
    occ: Box<[Cell<u32>]>,
}

/// Length of the occurrence table of order `n`, `2n(n − 1)`; `None` for
/// `n = 0` or on overflow.
fn table_len(n: usize) -> Option<usize> {
    n.checked_sub(1)?.checked_mul(n)?.checked_mul(2)
}

// Manual (de)serialization: the table travels as a plain array of counts,
// and only a table of the length `new` builds is accepted back.
impl Serialize for CostasArray {
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"n\":");
        self.n.write_json(out);
        out.push_str(",\"occ\":");
        let counts: Vec<u32> = self.occ.iter().map(Cell::get).collect();
        counts.write_json(out);
        out.push('}');
    }
}

impl Deserialize for CostasArray {
    fn from_json_value(v: &Value) -> Result<Self, DeError> {
        let n: usize = field(v, "n")?;
        let occ: Vec<u32> = field(v, "occ")?;
        if table_len(n) != Some(occ.len()) {
            return Err(DeError::new(format!(
                "costas-array: order {n} has no occurrence table of {} counts",
                occ.len()
            )));
        }
        Ok(Self {
            n,
            occ: occ.into_iter().map(Cell::new).collect(),
        })
    }
}

impl CostasArray {
    /// Create an instance of order `n` (`n ≥ 1`).
    #[must_use]
    pub fn new(n: usize) -> Self {
        let len = table_len(n).expect("Costas array order must be at least 1");
        Self {
            n,
            occ: (0..len).map(|_| Cell::new(0)).collect(),
        }
    }

    /// Order `n` of the array.
    #[must_use]
    pub fn order(&self) -> usize {
        self.n
    }

    /// Index of difference 0 in distance `d`'s row of the occurrence table:
    /// a pair `(lo, hi)` at distance `d` counts at
    /// `base(d) + perm[hi] − perm[lo]`.
    #[inline]
    fn base(&self, d: usize) -> usize {
        (d - 1) * 2 * self.n + self.n - 1
    }

    /// Take one pair off the count at `idx`; returns the change in cost.
    #[inline]
    fn take(&self, idx: usize) -> i64 {
        let count = &self.occ[idx];
        let c = count.get();
        count.set(c - 1);
        -i64::from(c >= 2)
    }

    /// Put one pair on the count at `idx`; returns the change in cost.
    #[inline]
    fn put(&self, idx: usize) -> i64 {
        let count = &self.occ[idx];
        let c = count.get();
        count.set(c + 1);
        i64::from(c >= 1)
    }

    /// Visit the table slot of every pair through column `i`.
    #[inline]
    fn slots_through(&self, perm: &[usize], i: usize, mut visit: impl FnMut(usize)) {
        for d in 1..self.n {
            let base = self.base(d);
            if let Some(lo) = i.checked_sub(d) {
                visit(base + perm[i] - perm[lo]);
            }
            if i + d < self.n {
                visit(base + perm[i + d] - perm[i]);
            }
        }
    }

    fn recompute(&mut self, perm: &[usize]) {
        self.occ.iter().for_each(|c| c.set(0));
        for d in 1..self.n {
            let base = self.base(d);
            for lo in 0..self.n - d {
                self.put(base + perm[lo + d] - perm[lo]);
            }
        }
    }

    fn cost_from_occ(&self) -> i64 {
        self.occ
            .iter()
            .map(|c| i64::from(c.get().saturating_sub(1)))
            .sum()
    }

    /// Render the permutation as an ASCII grid with one mark per column, the
    /// way the paper draws its size-5 example.
    #[must_use]
    pub fn render(&self, perm: &[usize]) -> String {
        let mut out = String::new();
        for r in (0..self.n).rev() {
            for &column in perm.iter().take(self.n) {
                out.push(if column == r { 'X' } else { '.' });
                out.push(' ');
            }
            out.push('\n');
        }
        out
    }
}

impl Evaluator for CostasArray {
    fn size(&self) -> usize {
        self.n
    }

    fn name(&self) -> &str {
        "costas-array"
    }

    fn init(&mut self, perm: &[usize]) -> i64 {
        self.recompute(perm);
        self.cost_from_occ()
    }

    fn cost(&self, perm: &[usize]) -> i64 {
        // From-scratch recount with one scratch row reused across distances
        // (no evaluator clone): an occurrence beyond the first at any
        // distance adds one to the surplus.
        let n = self.n;
        if n < 2 {
            return 0;
        }
        let mut seen = vec![0u32; 2 * n];
        let mut cost = 0;
        for d in 1..n {
            for lo in 0..n - d {
                let v = perm[lo + d] + n - 1 - perm[lo];
                if seen[v] >= 1 {
                    cost += 1;
                }
                seen[v] += 1;
            }
            // Zero only the entries this distance touched.
            for lo in 0..n - d {
                seen[perm[lo + d] + n - 1 - perm[lo]] = 0;
            }
        }
        cost
    }

    fn cost_on_variable(&self, perm: &[usize], i: usize) -> i64 {
        // Number of difference-vector conflicts the mark in column `i`
        // participates in.
        let mut err = 0;
        self.slots_through(perm, i, |idx| err += i64::from(self.occ[idx].get() > 1));
        err
    }

    fn cost_if_swap(&self, perm: &[usize], current_cost: i64, i: usize, j: usize) -> i64 {
        let mut out = [0];
        self.cost_if_swaps(perm, current_cost, i, &[j], &mut out);
        out[0]
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
        // Every move below is taken back before the row returns, so the
        // table is unchanged afterwards.  A panic mid-row leaves it modified,
        // which is harmless: executors build each walk attempt's evaluator
        // inside the walk's `catch_unwind`, so a panicked walk's evaluator is
        // dropped and a retry builds a fresh one.
        let n = self.n;
        let pi = perm[i];
        // The anchor's pairs come off once for the whole row.
        let mut anchor = 0;
        self.slots_through(perm, i, |idx| anchor += self.take(idx));
        for (slot, &j) in out.iter_mut().zip(js) {
            if j == i {
                *slot = current_cost;
                continue;
            }
            let pj = perm[j];
            let mut delta = anchor;
            // Distances live in disjoint rows, so each one is applied and
            // taken back on its own.
            for d in 1..n {
                let base = self.base(d);
                // The counts this distance moves: the anchor's new pairs go
                // on (column `i` holds `pj`, and column `j`, when it is the
                // other end, holds `pi`); the partner's old pairs that do not
                // involve the anchor come off, and its new ones go on.
                let (mut on, mut ons) = ([0; 4], 0);
                let (mut off, mut offs) = ([0; 2], 0);
                if let Some(lo) = i.checked_sub(d) {
                    on[ons] = base + pj - if lo == j { pi } else { perm[lo] };
                    ons += 1;
                }
                if i + d < n {
                    on[ons] = base + if i + d == j { pi } else { perm[i + d] } - pj;
                    ons += 1;
                }
                if let Some(lo) = j.checked_sub(d).filter(|&lo| lo != i) {
                    off[offs] = base + pj - perm[lo];
                    on[ons] = base + pi - perm[lo];
                    (offs, ons) = (offs + 1, ons + 1);
                }
                if j + d < n && j + d != i {
                    off[offs] = base + perm[j + d] - pj;
                    on[ons] = base + perm[j + d] - pi;
                    (offs, ons) = (offs + 1, ons + 1);
                }
                for &idx in &off[..offs] {
                    delta += self.take(idx);
                }
                for &idx in &on[..ons] {
                    delta += self.put(idx);
                }
                for &idx in &on[..ons] {
                    self.take(idx);
                }
                for &idx in &off[..offs] {
                    self.put(idx);
                }
            }
            *slot = current_cost + delta;
        }
        // The anchor's pairs go back on.
        self.slots_through(perm, i, |idx| {
            self.put(idx);
        });
    }

    fn executed_swap(&mut self, perm: &[usize], i: usize, j: usize) {
        if i == j {
            return;
        }
        let n = self.n;
        let (a, b) = (i.min(j), i.max(j));
        // `perm` is the permutation after the swap, so column `a` held `pb`
        // before it and column `b` held `pa`.  Each pair through `a` or `b`
        // comes off at its old difference and goes on at its new one;
        // `(a, a+d)` and `(b−d, b)` are the same pair exactly when
        // `d = b − a`.
        let (pa, pb) = (perm[a], perm[b]);
        for d in 1..n {
            let base = self.base(d);
            if let Some(lo) = a.checked_sub(d) {
                self.take(base + pb - perm[lo]);
                self.put(base + pa - perm[lo]);
            }
            if a + d == b {
                self.take(base + pa - pb);
                self.put(base + pb - pa);
            } else {
                if a + d < n {
                    self.take(base + perm[a + d] - pb);
                    self.put(base + perm[a + d] - pa);
                }
                if let Some(lo) = b.checked_sub(d) {
                    self.take(base + pa - perm[lo]);
                    self.put(base + pb - perm[lo]);
                }
            }
            if b + d < n {
                self.take(base + perm[b + d] - pa);
                self.put(base + perm[b + d] - pb);
            }
        }
    }

    // `touched_by_swap` keeps the default "everything dirty": a swap changes
    // the difference of *every* pair involving `i` or `j`, and every column
    // forms such a pair, so the precise dirty set genuinely is all columns.
    // The batched projection below makes the full refresh a single pass.

    fn project_errors_full(&self, perm: &[usize], out: &mut [i64]) {
        out.iter_mut().for_each(|e| *e = 0);
        for d in 1..self.n {
            let base = self.base(d);
            for lo in 0..self.n - d {
                let hi = lo + d;
                if self.occ[base + perm[hi] - perm[lo]].get() > 1 {
                    out[lo] += 1;
                    out[hi] += 1;
                }
            }
        }
    }

    fn incremental_profile(&self) -> IncrementalProfile {
        IncrementalProfile {
            scratch_cost: true,
            incremental_cost_if_swap: true,
            incremental_executed_swap: true,
            tracked_dirty_sets: false,
            batched_projection: true,
            // A whole row takes the anchor's pairs off and puts them back
            // once, where a loop of one-entry rows would do it per probe.
            batched_probes: true,
        }
    }

    fn tune(&self, config: &mut SearchConfig) {
        // CAP responds best to an aggressive escape strategy: tiny freeze,
        // immediate small resets, and a pinch of forced moves — in line with
        // the dedicated Costas study the paper cites (Diaz et al.).
        config.freeze_duration = 1;
        config.plateau_probability = 1.0;
        config.reset_fraction = 0.05;
        config.reset_limit = Some(2);
        config.prob_select_local_min = 0.0;
        config.max_iterations_per_restart = (self.n as u64).pow(3).max(10_000);
        config.max_restarts = 10_000;
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
        for d in 1..n {
            let mut seen_diff = vec![false; 2 * n];
            for i in 0..n - d {
                let v = perm[i + d] + n - 1 - perm[i];
                if seen_diff[v] {
                    return false;
                }
                seen_diff[v] = true;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use as_rng::{default_rng, RandomSource};
    use cbls_core::AdaptiveSearch;
    use cbls_testkit::{
        assert_no_default_hot_paths, check_batched_probes, check_error_projection,
        check_incremental_consistency, check_projection_cache,
    };

    /// The order-5 Costas array used as the example in the paper:
    /// `[3, 4, 2, 1, 5]` in 1-based notation.
    fn paper_example() -> Vec<usize> {
        vec![2, 3, 1, 0, 4]
    }

    #[test]
    fn paper_example_is_a_costas_array() {
        let mut p = CostasArray::new(5);
        let perm = paper_example();
        assert_eq!(p.init(&perm), 0);
        assert!(p.verify(&perm));
        for i in 0..5 {
            assert_eq!(p.cost_on_variable(&perm, i), 0);
        }
    }

    #[test]
    fn welch_construction_gives_solutions() {
        // Welch construction: for a prime p and a primitive root g, the
        // sequence perm[i] = g^(i+1) mod p − 1 for i in 0..p-1 is a Costas
        // array of order p−1.  With p = 11, g = 2: 2,4,8,5,10,9,7,3,6,1.
        let seq: Vec<usize> = [2u64, 4, 8, 5, 10, 9, 7, 3, 6, 1]
            .iter()
            .map(|&v| (v - 1) as usize)
            .collect();
        let mut p = CostasArray::new(10);
        assert_eq!(p.init(&seq), 0);
        assert!(p.verify(&seq));
    }

    #[test]
    fn non_costas_permutation_has_positive_cost() {
        // The identity has every distance-d difference equal: maximally bad.
        let mut p = CostasArray::new(6);
        let perm: Vec<usize> = (0..6).collect();
        let cost = p.init(&perm);
        assert!(cost > 0);
        assert!(!p.verify(&perm));
        // For the identity, at distance d there are n-d pairs all with the
        // same difference, so the surplus is (n-d-1); total = Σ_{d=1}^{n-1}(n-d-1).
        let expected: i64 = (1..6).map(|d| (6 - d - 1) as i64).sum();
        assert_eq!(cost, expected);
    }

    #[test]
    fn incremental_consistency() {
        for n in [3usize, 5, 8, 12] {
            check_incremental_consistency(CostasArray::new(n), 500 + n as u64, 20);
        }
    }

    #[test]
    fn batched_probes_match_the_scalar_probe() {
        for n in [2usize, 3, 5, 8, 12] {
            check_batched_probes(CostasArray::new(n), 7200 + n as u64, 12);
        }
    }

    fn counts(p: &CostasArray) -> Vec<u32> {
        p.occ.iter().map(Cell::get).collect()
    }

    /// Swap a few random column pairs through `executed_swap`, leaving the
    /// table mid-walk rather than freshly built.
    fn walk(p: &mut CostasArray, perm: &mut [usize], rng: &mut impl RandomSource, swaps: usize) {
        let n = perm.len();
        for _ in 0..swaps {
            let (a, b) = (rng.index(n), rng.index(n));
            if a != b {
                perm.swap(a, b);
                p.executed_swap(perm, a, b);
            }
        }
    }

    /// The in-place kernel against an oracle that is not the kernel: every
    /// entry of every row equals `cost` of the swapped permutation, which
    /// recounts from scratch without reading the table, and each row leaves
    /// the table bit for bit as it found it.
    #[test]
    fn probe_rows_match_a_recount_and_leave_the_table_unchanged() {
        for n in [2usize, 3, 5, 8, 12, 14] {
            let mut rng = default_rng(7300 + n as u64);
            let mut p = CostasArray::new(n);
            let mut perm = rng.permutation(n);
            p.init(&perm);
            for state in 0..4 {
                if state > 0 {
                    walk(&mut p, &mut perm, &mut rng, 3);
                }
                let cost = p.cost(&perm);
                assert_eq!(p.cost_from_occ(), cost, "order {n}, state {state}");
                for i in 0..n {
                    // Every partner, so one at every distance |i − j| (the
                    // pair the two swapped columns share among them), then
                    // `i` itself and duplicates.
                    let js: Vec<usize> = (0..n).chain([i, (i + 1) % n, i]).chain(0..n).collect();
                    let mut out = vec![0; js.len()];
                    let table = counts(&p);
                    p.cost_if_swaps(&perm, cost, i, &js, &mut out);
                    assert_eq!(
                        counts(&p),
                        table,
                        "order {n}, state {state}: row {i} moved the table"
                    );
                    for (&j, &got) in js.iter().zip(&out) {
                        let mut swapped = perm.clone();
                        swapped.swap(i, j);
                        assert_eq!(
                            got,
                            p.cost(&swapped),
                            "order {n}, state {state}, swap ({i}, {j})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_mid_walk_instance_survives_a_round_trip() {
        let mut rng = default_rng(7400);
        let mut p = CostasArray::new(12);
        let mut perm = rng.permutation(12);
        p.init(&perm);
        walk(&mut p, &mut perm, &mut rng, 5);
        let cost = p.cost(&perm);
        let json = serde_json::to_string(&p).expect("serializes");
        let back: CostasArray = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(back.order(), 12);
        assert_eq!(counts(&back), counts(&p));
        let js: Vec<usize> = (0..12).collect();
        let (mut want, mut got) = (vec![0; 12], vec![0; 12]);
        for i in 0..12 {
            p.cost_if_swaps(&perm, cost, i, &js, &mut want);
            back.cost_if_swaps(&perm, cost, i, &js, &mut got);
            assert_eq!(got, want, "row {i}");
        }
    }

    #[test]
    fn deserialization_rejects_tables_the_constructor_never_builds() {
        for bad in [
            r#"{"n":12,"occ":[]}"#,
            r#"{"n":0,"occ":[]}"#,
            r#"{"n":2,"occ":[0,1,0]}"#,
        ] {
            assert!(
                serde_json::from_str::<CostasArray>(bad).is_err(),
                "{bad} deserialized"
            );
        }
        let one: CostasArray = serde_json::from_str(r#"{"n":1,"occ":[]}"#).expect("order 1");
        assert_eq!(one.order(), 1);
    }

    #[test]
    fn error_projection_consistency() {
        for n in [4usize, 7, 10] {
            check_error_projection(CostasArray::new(n), 600 + n as u64, 20);
        }
    }

    #[test]
    fn projection_cache_stays_fresh_across_swaps() {
        for n in [3usize, 6, 11, 14] {
            check_projection_cache(CostasArray::new(n), 650 + n as u64, 60);
        }
        assert_no_default_hot_paths(&CostasArray::new(9));
    }

    #[test]
    fn adaptive_search_solves_small_orders() {
        for n in [5usize, 7, 9, 10] {
            let mut p = CostasArray::new(n);
            let engine = AdaptiveSearch::tuned_for(&p);
            let out = engine.solve(&mut p, &mut default_rng(70 + n as u64));
            assert!(out.solved(), "order {n} not solved: {out:?}");
            assert!(p.verify(&out.solution));
        }
    }

    #[test]
    fn render_draws_one_mark_per_column() {
        let p = CostasArray::new(5);
        let s = p.render(&paper_example());
        assert_eq!(s.matches('X').count(), 5);
        assert_eq!(s.lines().count(), 5);
    }

    #[test]
    fn trivial_orders() {
        let mut p1 = CostasArray::new(1);
        assert_eq!(p1.init(&[0]), 0);
        assert!(p1.verify(&[0]));
        let mut p2 = CostasArray::new(2);
        assert_eq!(p2.init(&[0, 1]), 0);
        assert!(p2.verify(&[0, 1]));
    }

    #[test]
    fn verify_rejects_bad_inputs() {
        let p = CostasArray::new(4);
        assert!(!p.verify(&[0, 1, 2]));
        assert!(!p.verify(&[0, 0, 1, 2]));
        assert!(!p.verify(&[0, 1, 2, 3])); // identity has repeated differences
    }
}
