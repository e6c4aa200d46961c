//! The model builder and the generic incremental evaluator.

use std::cell::RefCell;
use std::sync::Arc;

use cbls_core::{Evaluator, IncrementalProfile, SearchConfig};

use crate::term::{Dv, Term, TermState, TermStateMut};

/// Hook refining the engine configuration for a model (the declarative
/// equivalent of [`Evaluator::tune`]).
pub type TuneFn = dyn Fn(&mut SearchConfig) + Send + Sync;

/// Independent solution check over the decoded values (guards against a
/// cost function and its incremental updates agreeing on a wrong answer).
pub type VerifyFn = dyn Fn(&[i64]) -> bool + Send + Sync;

/// A declarative CBLS model: a value table, a weighted list of violation
/// terms, and optional tuning / verification hooks.
///
/// The decision variables are the slots `0..n`; a candidate assigns slot `s`
/// the decoded value `vals[perm[s]]` for a permutation `perm` of `0..n`, so
/// the *multiset* of values is fixed by the model and a move is a swap of
/// two slots — exactly the move structure of the Adaptive Search engine.
/// The cost is the weighted sum of the term violations; it is zero exactly
/// on solutions.
///
/// ```
/// use as_rng::default_rng;
/// use cbls_core::AdaptiveSearch;
/// use cbls_model::{Model, Term};
///
/// // All-interval series of length 8 in ~5 lines: the adjacent differences
/// // of a permutation of 0..8 must be pairwise distinct.
/// let mut problem = Model::permutation("all-interval-8", 8)
///     .term(Term::pairwise_distinct((0..7).map(|i| (i, i + 1))))
///     .build();
/// let out = AdaptiveSearch::default().solve(&mut problem, &mut default_rng(5));
/// assert!(out.solved());
/// ```
#[derive(Clone)]
pub struct Model {
    name: String,
    vals: Vec<i64>,
    terms: Vec<(i64, Term)>,
    tuner: Option<Arc<TuneFn>>,
    verifier: Option<Arc<VerifyFn>>,
}

impl Model {
    /// A model whose slots draw values from the multiset `vals` (slot `s`
    /// decodes to `vals[perm[s]]`); repeated entries are how non-permutation
    /// problems (colorings, counting sequences) fit the swap move structure.
    #[must_use]
    pub fn new(name: impl Into<String>, vals: Vec<i64>) -> Self {
        Self {
            name: name.into(),
            vals,
            terms: Vec::new(),
            tuner: None,
            verifier: None,
        }
    }

    /// A pure permutation model over the values `0..n` (slot `s` decodes to
    /// `perm[s]` itself).
    #[must_use]
    pub fn permutation(name: impl Into<String>, n: usize) -> Self {
        Self::new(name, (0..n as i64).collect())
    }

    /// Attach a term with weight 1.
    #[must_use]
    pub fn term(self, term: Term) -> Self {
        self.weighted_term(1, term)
    }

    /// Attach a term whose violation is scaled by `weight` in the total
    /// cost (and in the per-variable error projection).
    #[must_use]
    pub fn weighted_term(mut self, weight: i64, term: Term) -> Self {
        self.terms.push((weight, term));
        self
    }

    /// Attach an engine-tuning hook, forwarded through
    /// [`Evaluator::tune`].
    #[must_use]
    pub fn tuned_with(mut self, tune: impl Fn(&mut SearchConfig) + Send + Sync + 'static) -> Self {
        self.tuner = Some(Arc::new(tune));
        self
    }

    /// Attach an independent solution check over the decoded values,
    /// forwarded through [`Evaluator::verify`] (which additionally checks
    /// that the candidate is a permutation).
    #[must_use]
    pub fn verified_with(
        mut self,
        verify: impl Fn(&[i64]) -> bool + Send + Sync + 'static,
    ) -> Self {
        self.verifier = Some(Arc::new(verify));
        self
    }

    /// Validate the model and build the evaluator.
    ///
    /// # Panics
    ///
    /// Panics when the model is structurally invalid: an empty value table,
    /// no terms, a non-positive weight, or a term referencing a slot outside
    /// `0..n`.
    #[must_use]
    pub fn build(self) -> ModelEvaluator {
        let n = self.vals.len();
        assert!(n >= 1, "model `{}`: empty value table", self.name);
        assert!(!self.terms.is_empty(), "model `{}`: no terms", self.name);
        let mut weights = Vec::with_capacity(self.terms.len());
        let mut terms = Vec::with_capacity(self.terms.len());
        let mut terms_of_var: Vec<Vec<u32>> = vec![Vec::new(); n];
        // Prefix sums into the shared occurrence slab: term t's table is
        // occ[occ_off[t]..occ_off[t + 1]].
        let mut occ_off = Vec::with_capacity(self.terms.len() + 1);
        occ_off.push(0usize);
        for (t, (weight, mut term)) in self.terms.into_iter().enumerate() {
            assert!(
                weight > 0,
                "model `{}`: term {t} ({}) has non-positive weight {weight}",
                self.name,
                term.family()
            );
            assert!(
                term.max_var() < n,
                "model `{}`: term {t} ({}) references slot {} of a {n}-slot model",
                self.name,
                term.family(),
                term.max_var()
            );
            let occ_len = term.bind(&self.vals);
            occ_off.push(occ_off[t] + occ_len);
            // `for_each_var` visits in ascending order, and terms are pushed
            // in ascending index order, so each list is born sorted; only
            // the duplicates of a term visiting a slot twice need removing.
            term.for_each_var(|v| terms_of_var[v].push(t as u32));
            weights.push(weight);
            terms.push(term);
        }
        for list in &mut terms_of_var {
            list.dedup();
        }
        let m = terms.len();
        let slab = *occ_off.last().expect("non-empty offsets");
        ModelEvaluator {
            name: self.name,
            dvals: vec![0; n],
            vals: self.vals,
            weights,
            terms,
            terms_of_var,
            occ: vec![0; slab],
            occ_off,
            term_aux: vec![0; m],
            probe: ProbeScratch {
                acc: RefCell::new(vec![0; n]),
                stamps: RefCell::new(TermStamps {
                    stamp: vec![0; m],
                    epoch: 0,
                }),
            },
            total: 0,
            tuner: self.tuner,
            verifier: self.verifier,
        }
    }
}

/// Epoch-stamped membership set for `terms_of_var[i]`, so the batched probe
/// can test "does term t contain the anchor slot" in O(1) without clearing
/// a bitmap per row.
#[derive(Clone)]
struct TermStamps {
    stamp: Vec<u64>,
    epoch: u64,
}

/// Reusable scratch for the batched probe row, sized at build time so the
/// hot path never allocates; interior mutability because probes take
/// `&self`.
#[derive(Clone)]
struct ProbeScratch {
    /// Weighted-delta accumulator, one slot per probe partner.
    acc: RefCell<Vec<i64>>,
    stamps: RefCell<TermStamps>,
}

/// The generic incremental evaluator behind every [`Model`]: implements the
/// full [`cbls_core::Evaluator`] contract — scratch-buffer cost, in-place
/// `cost_if_swap`, batched `cost_if_swaps`, incremental `executed_swap`,
/// tracked dirty sets and a batched error projection — by dispatching each
/// hook to the terms whose variable set contains a swapped slot.
///
/// All mutable search state lives in flat structure-of-arrays slabs owned
/// here: the decoded value of every slot (`dvals`, maintained with two
/// writes per executed swap), one shared occurrence slab sliced per term,
/// and the per-term scalar state.
#[derive(Clone)]
pub struct ModelEvaluator {
    name: String,
    vals: Vec<i64>,
    weights: Vec<i64>,
    terms: Vec<Term>,
    /// `terms_of_var[v]` = ascending indices of the terms constraining `v`.
    terms_of_var: Vec<Vec<u32>>,
    /// Decoded value of every slot under the current configuration.
    dvals: Vec<i64>,
    /// Shared occurrence slab; term `t` owns `occ[occ_off[t]..occ_off[t+1]]`.
    occ: Vec<u32>,
    occ_off: Vec<usize>,
    /// Scalar term state (the running sum of a linear term).
    term_aux: Vec<i64>,
    probe: ProbeScratch,
    /// Cached weighted violation of the current configuration.
    total: i64,
    tuner: Option<Arc<TuneFn>>,
    verifier: Option<Arc<VerifyFn>>,
}

impl std::fmt::Debug for ModelEvaluator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelEvaluator")
            .field("name", &self.name)
            .field("slots", &self.vals.len())
            .field("terms", &self.terms.len())
            .field("total", &self.total)
            .finish_non_exhaustive()
    }
}

impl ModelEvaluator {
    /// The model's value table (slot `s` decodes to `values()[perm[s]]`).
    #[must_use]
    pub fn values(&self) -> &[i64] {
        &self.vals
    }

    /// Decode a permutation into per-slot values.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..size()`.
    #[must_use]
    pub fn decoded(&self, perm: &[usize]) -> Vec<i64> {
        assert_eq!(perm.len(), self.vals.len(), "wrong permutation arity");
        perm.iter().map(|&p| self.vals[p]).collect()
    }

    /// The current decoded-value view (valid between `init` and the next
    /// accepted swap's `executed_swap`).
    #[inline]
    fn dv(&self) -> Dv<'_> {
        Dv { dvals: &self.dvals }
    }

    /// Term `t`'s slice of the state slabs.
    #[inline]
    fn term_state(&self, t: usize) -> TermState<'_> {
        TermState {
            occ: &self.occ[self.occ_off[t]..self.occ_off[t + 1]],
            aux: self.term_aux[t],
        }
    }

    /// Every stateful hook requires the caller's permutation to be the one
    /// the internal slabs track (the engine guarantees this; `init`
    /// re-synchronizes after resets).
    #[inline]
    fn debug_assert_current(&self, perm: &[usize]) {
        debug_assert_eq!(perm.len(), self.dvals.len(), "wrong permutation arity");
        debug_assert!(
            perm.iter()
                .zip(&self.dvals)
                .all(|(&p, &d)| self.vals[p] == d),
            "hook called with a permutation that does not match the tracked configuration"
        );
    }

    /// Visit the union of the terms constraining `i` or `j`, in ascending
    /// term order (both per-variable lists are sorted).
    #[inline]
    fn for_each_affected_term(&self, i: usize, j: usize, mut f: impl FnMut(usize)) {
        crate::term::merge_sorted(&self.terms_of_var[i], &self.terms_of_var[j], |t| {
            f(t as usize);
        });
    }

    /// The batched probe row: run every anchored term's batch kernel over
    /// the whole partner row, then patch in the terms that touch only the
    /// partner with scalar probes (membership tested via the epoch stamps).
    fn probe_row_batched(&self, current_cost: i64, i: usize, js: &[usize], out: &mut [i64]) {
        let dv = self.dv();
        let vi = dv.get(i);
        let mut acc_ref = self.probe.acc.borrow_mut();
        if acc_ref.len() < js.len() {
            // Only reachable through direct trait calls with an oversized
            // row; the engine's rows are at most n - 1 partners.
            acc_ref.resize(js.len(), 0);
        }
        let acc = &mut acc_ref[..js.len()];
        acc.iter_mut().for_each(|a| *a = 0);
        let mut stamps_ref = self.probe.stamps.borrow_mut();
        let TermStamps { stamp, epoch } = &mut *stamps_ref;
        *epoch += 1;
        for &t in &self.terms_of_var[i] {
            stamp[t as usize] = *epoch;
        }
        for &t in &self.terms_of_var[i] {
            let t = t as usize;
            self.terms[t].delta_swaps_batch(dv, self.term_state(t), i, js, self.weights[t], acc);
        }
        for (k, &j) in js.iter().enumerate() {
            if j == i || dv.get(j) == vi {
                // Equal decoded values: every term state is a function of
                // the values alone, so the swap is a no-op.
                out[k] = current_cost;
                continue;
            }
            let mut extra = 0;
            for &t in &self.terms_of_var[j] {
                let t = t as usize;
                if stamp[t] != *epoch {
                    extra +=
                        self.weights[t] * self.terms[t].delta_swap(dv, self.term_state(t), i, j);
                }
            }
            out[k] = current_cost + acc[k] + extra;
        }
    }
}

impl Evaluator for ModelEvaluator {
    fn size(&self) -> usize {
        self.vals.len()
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn init(&mut self, perm: &[usize]) -> i64 {
        let Self {
            vals,
            dvals,
            weights,
            terms,
            occ,
            occ_off,
            term_aux,
            total,
            ..
        } = self;
        dvals.clear();
        dvals.extend(perm.iter().map(|&p| vals[p]));
        let dv = Dv {
            dvals: dvals.as_slice(),
        };
        let mut sum = 0;
        for (t, term) in terms.iter().enumerate() {
            let st = TermStateMut {
                occ: &mut occ[occ_off[t]..occ_off[t + 1]],
                aux: &mut term_aux[t],
            };
            sum += weights[t] * term.rebuild(dv, st);
        }
        *total = sum;
        sum
    }

    fn cost(&self, perm: &[usize]) -> i64 {
        // Scratch recomputation of an arbitrary candidate: decode locally
        // (this hook is not on the probe path, so the allocation is fine).
        let decoded = self.decoded(perm);
        let dv = Dv { dvals: &decoded };
        self.terms
            .iter()
            .zip(&self.weights)
            .map(|(term, &w)| w * term.violation_scratch(dv))
            .sum()
    }

    fn cost_on_variable(&self, perm: &[usize], i: usize) -> i64 {
        self.debug_assert_current(perm);
        let dv = self.dv();
        self.terms_of_var[i]
            .iter()
            .map(|&t| {
                let t = t as usize;
                self.weights[t] * self.terms[t].var_error(dv, self.term_state(t), i)
            })
            .sum()
    }

    fn cost_if_swap(&self, perm: &[usize], current_cost: i64, i: usize, j: usize) -> i64 {
        self.debug_assert_current(perm);
        let dv = self.dv();
        if i == j || dv.get(i) == dv.get(j) {
            // Equal decoded values: every term state is a function of the
            // values alone, so the swap is a no-op.
            return current_cost;
        }
        let mut delta = 0;
        self.for_each_affected_term(i, j, |t| {
            delta += self.weights[t] * self.terms[t].delta_swap(dv, self.term_state(t), i, j);
        });
        current_cost + delta
    }

    fn cost_if_swaps(
        &self,
        perm: &[usize],
        current_cost: i64,
        i: usize,
        js: &[usize],
        out: &mut [i64],
    ) {
        self.debug_assert_current(perm);
        // Always the batch kernels: with tabulated/O(1) per-term deltas,
        // certifying a zero delta costs more than computing it — a
        // move-filtering row tripled mid-search scan time on coloring-60x3
        // and was deleted (see the README's negative result).
        self.probe_row_batched(current_cost, i, js, out);
    }

    fn executed_swap(&mut self, perm: &[usize], i: usize, j: usize) {
        // Destructure so the merge walk can borrow `terms_of_var` while the
        // closure mutates the state slabs.
        let Self {
            vals,
            dvals,
            weights,
            terms,
            terms_of_var,
            occ,
            occ_off,
            term_aux,
            total,
            ..
        } = self;
        if i == j || dvals[i] == dvals[j] {
            return;
        }
        dvals.swap(i, j);
        debug_assert!(
            perm.iter().zip(dvals.iter()).all(|(&p, &d)| vals[p] == d),
            "executed_swap must receive the post-swap permutation"
        );
        let dv = Dv {
            dvals: dvals.as_slice(),
        };
        let mut delta = 0;
        crate::term::merge_sorted(&terms_of_var[i], &terms_of_var[j], |t| {
            let t = t as usize;
            let st = TermStateMut {
                occ: &mut occ[occ_off[t]..occ_off[t + 1]],
                aux: &mut term_aux[t],
            };
            delta += weights[t] * terms[t].apply_swap(dv, st, i, j);
        });
        *total += delta;
    }

    fn touched_by_swap(&self, perm: &[usize], i: usize, j: usize, out: &mut Vec<usize>) -> bool {
        if i == j || self.dvals[i] == self.dvals[j] {
            return true;
        }
        self.debug_assert_current(perm);
        let dv = self.dv();
        out.push(i);
        out.push(j);
        self.for_each_affected_term(i, j, |t| {
            self.terms[t].touched_vars(dv, self.term_state(t), i, j, out);
        });
        true
    }

    fn project_errors_full(&self, perm: &[usize], out: &mut [i64]) {
        self.debug_assert_current(perm);
        let dv = self.dv();
        out.iter_mut().for_each(|e| *e = 0);
        for (t, (term, &w)) in self.terms.iter().zip(&self.weights).enumerate() {
            term.accumulate_errors(dv, self.term_state(t), w, out);
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
        if let Some(tuner) = &self.tuner {
            tuner(config);
        }
    }

    fn verify(&self, perm: &[usize]) -> bool {
        let n = self.vals.len();
        if perm.len() != n {
            return false;
        }
        let mut seen = vec![false; n];
        for &p in perm {
            if p >= n || seen[p] {
                return false;
            }
            seen[p] = true;
        }
        match &self.verifier {
            Some(verify) => verify(&self.decoded(perm)),
            None => self.cost(perm) == 0,
        }
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

    /// A small mixed model exercising every term family at once: a
    /// permutation of 0..n whose first half is all-different by construction,
    /// with a linear anchor, a distinct-differences chain and a counting
    /// channel stacked on top.
    fn mixed_model(n: usize) -> ModelEvaluator {
        assert!(n >= 6);
        Model::permutation("mixed", n)
            .term(Term::all_different_offset((0..n).map(|i| (i, 1, i as i64))))
            .weighted_term(
                2,
                Term::linear_eq((0..n).map(|i| (i, 1 + (i % 3) as i64)), 3 * n as i64),
            )
            .term(Term::pairwise_distinct((0..n - 1).map(|i| (i, i + 1))))
            .term(Term::min_separation([(0, n - 1), (1, n - 2)], 2))
            .term(Term::count_matches(0..n, [(0, 0), (1, 1), (2, 2)]))
            .build()
    }

    #[test]
    fn mixed_model_passes_the_full_consistency_harness() {
        for n in [6usize, 9, 14] {
            check_incremental_consistency(mixed_model(n), 9100 + n as u64, 20);
            check_projection_cache(mixed_model(n), 9200 + n as u64, 60);
            check_error_projection(mixed_model(n), 9300 + n as u64, 20);
        }
        assert_no_default_hot_paths(&mixed_model(8));
    }

    #[test]
    fn batched_probes_pass_the_core_harness() {
        for n in [6usize, 9, 14] {
            check_batched_probes(mixed_model(n), 9400 + n as u64, 12);
        }
    }

    #[test]
    fn terms_of_var_lists_are_sorted_and_deduped() {
        let m = mixed_model(12);
        let mut nonempty = 0;
        for slot in 0..m.size() {
            // Every merge walk over two per-slot lists
            // (`for_each_affected_term`, the term-side pair merges) relies
            // on them being ascending and deduplicated.
            let list = &m.terms_of_var[slot];
            assert!(
                list.windows(2).all(|w| w[0] < w[1]),
                "terms_of_var[{slot}] is not strictly ascending: {list:?}"
            );
            assert!(
                list.iter().all(|&t| (t as usize) < m.terms.len()),
                "terms_of_var[{slot}] references a term out of range"
            );
            nonempty += usize::from(!list.is_empty());
        }
        assert_eq!(nonempty, 12, "every slot of the mixed model is constrained");
    }

    #[test]
    fn batched_and_scalar_probes_agree() {
        // Random walks over models with satisfied terms en route: at every
        // step the probe row (the batch kernels) and the scalar probes must
        // agree bit for bit.
        let repeats = || {
            Model::new("repeats", vec![0i64, 0, 0, 1, 1, 2])
                .term(Term::min_separation([(0, 1), (2, 3), (4, 5)], 1))
                .term(Term::linear_eq([(0, 1), (3, 2), (5, 1)], 3))
                .build()
        };
        for (mut m, seed) in [
            (mixed_model(9), 501u64),
            (repeats(), 502),
            (mixed_model(6), 503),
        ] {
            let n = m.size();
            let mut rng = default_rng(seed);
            let mut perm = rng.permutation(n);
            let mut cost = m.init(&perm);
            let js: Vec<usize> = (0..n).collect();
            let mut row = vec![0i64; n];
            for step in 0..60 {
                for i in 0..n {
                    m.cost_if_swaps(&perm, cost, i, &js, &mut row);
                    for (k, &j) in js.iter().enumerate() {
                        let scalar = m.cost_if_swap(&perm, cost, i, j);
                        assert_eq!(row[k], scalar, "batched row: step {step} i={i} j={j}");
                    }
                }
                let (i, j) = (rng.index(n), rng.index(n));
                cost = m.cost_if_swap(&perm, cost, i, j);
                perm.swap(i, j);
                m.executed_swap(&perm, i, j);
            }
        }
    }

    #[test]
    fn repeated_values_take_the_equal_value_fast_path() {
        // A value table with heavy repetition: swaps between equal values
        // must be exact no-ops at every layer of the protocol.
        let vals = vec![0i64, 0, 0, 1, 1, 2];
        let model = || {
            Model::new("repeats", vals.clone())
                .term(Term::min_separation([(0, 1), (2, 3), (4, 5)], 1))
                .term(Term::linear_eq([(0, 1), (3, 2), (5, 1)], 3))
                .build()
        };
        check_incremental_consistency(model(), 77, 25);
        check_projection_cache(model(), 78, 80);

        let mut m = model();
        let perm: Vec<usize> = (0..6).collect();
        let cost = m.init(&perm);
        // slots 0 and 1 decode to the same value: the probe must be free
        assert_eq!(m.cost_if_swap(&perm, cost, 0, 1), cost);
        let mut touched = Vec::new();
        assert!(m.touched_by_swap(&perm, 0, 1, &mut touched));
        assert!(touched.is_empty());
    }

    #[test]
    fn cached_total_stays_in_sync_over_random_walks() {
        let mut m = mixed_model(10);
        let mut rng = default_rng(42);
        let mut perm = rng.permutation(10);
        let mut cost = m.init(&perm);
        for _ in 0..200 {
            let (i, j) = (rng.index(10), rng.index(10));
            if i == j {
                continue;
            }
            cost = m.cost_if_swap(&perm, cost, i, j);
            perm.swap(i, j);
            m.executed_swap(&perm, i, j);
            assert_eq!(cost, m.cost(&perm));
            assert_eq!(cost, m.total, "cached total out of sync");
        }
    }

    #[test]
    fn the_engine_solves_a_declarative_model() {
        // all-interval 10 declared in two lines
        let mut m = Model::permutation("ai-10", 10)
            .term(Term::pairwise_distinct((0..9).map(|i| (i, i + 1))))
            .build();
        let out = AdaptiveSearch::tuned_for(&m).solve(&mut m, &mut default_rng(3));
        assert!(out.solved(), "{out:?}");
        assert!(m.verify(&out.solution));
    }

    #[test]
    fn tuner_is_forwarded_through_tune() {
        let m = Model::permutation("tuned", 6)
            .term(Term::all_different(0..6))
            .tuned_with(|cfg| cfg.freeze_duration = 17)
            .build();
        let mut cfg = SearchConfig::default();
        m.tune(&mut cfg);
        assert_eq!(cfg.freeze_duration, 17);
    }

    #[test]
    fn verifier_overrides_the_zero_cost_default() {
        // A verifier that rejects everything: even a zero-cost permutation
        // must fail verification.
        let m = Model::permutation("picky", 4)
            .term(Term::all_different(0..4))
            .verified_with(|_| false)
            .build();
        assert!(!m.verify(&[0, 1, 2, 3]));

        // And non-permutations are rejected before the verifier runs.
        let m = Model::permutation("perm-check", 4)
            .term(Term::all_different(0..4))
            .verified_with(|_| true)
            .build();
        assert!(m.verify(&[0, 1, 2, 3]));
        assert!(!m.verify(&[0, 0, 2, 3]));
        assert!(!m.verify(&[0, 1, 2]));
    }

    #[test]
    fn decoded_maps_through_the_value_table() {
        let m = Model::new("decode", vec![5, 7, 9])
            .term(Term::all_different(0..3))
            .build();
        assert_eq!(m.decoded(&[2, 0, 1]), vec![9, 5, 7]);
        assert_eq!(m.values(), &[5, 7, 9]);
        assert_eq!(m.terms.len(), 1);
    }

    #[test]
    #[should_panic(expected = "references slot")]
    fn build_rejects_out_of_range_slots() {
        let _ = Model::permutation("bad", 3)
            .term(Term::all_different(0..4))
            .build();
    }

    #[test]
    #[should_panic(expected = "non-positive weight")]
    fn build_rejects_non_positive_weights() {
        let _ = Model::permutation("bad", 3)
            .weighted_term(0, Term::all_different(0..3))
            .build();
    }

    #[test]
    #[should_panic(expected = "no terms")]
    fn build_rejects_term_free_models() {
        let _ = Model::permutation("empty", 3).build();
    }
}
