//! The violation-term catalog.
//!
//! A [`Term`] is one constraint family over the decoded values of a
//! permutation model (see [`crate::Model`] for the encoding).  Each term
//! knows how to
//!
//! * rebuild its occurrence state for a fresh configuration,
//! * report its total violation, from cached state or from scratch,
//! * evaluate the violation delta of a candidate swap *without* mutating
//!   state (the engine probes `n − 1` swaps per iteration), both one swap
//!   at a time and batched over a whole partner row,
//! * commit an executed swap incrementally, and
//! * project its violation onto the variables it constrains.
//!
//! [`ModelEvaluator`](crate::ModelEvaluator) aggregates weighted terms into
//! a full [`cbls_core::Evaluator`], dispatching each hook only to the terms
//! whose variable set contains a swapped position.
//!
//! # Structure-of-arrays state
//!
//! Terms do not own their mutable search state.  The occurrence tables of
//! all terms live in one contiguous `u32` slab owned by the evaluator
//! (sliced per term by a prefix-sum offset table), and scalar state (the
//! cached sum of a linear term) lives in a parallel `i64` slab.  Every hook
//! receives its slice through [`TermState`] / [`TermStateMut`], so the hot
//! probe loops walk flat, cache-resident arrays and the terms themselves
//! stay immutable after [`Term::bind`].  `bind` returns the occurrence-slab
//! length the term needs and precomputes dense per-slot lookup tables
//! (member index, coefficient, CSR pair incidence) so the probe hooks never
//! binary-search.
//!
//! The swap hooks (`delta_swap`, `delta_swaps_batch`, `apply_swap`,
//! `touched_vars`) are on the engine's hot path and must be allocation-free
//! in steady state (enforced by the alloc-free catalog sweep in
//! `tests/alloc_free.rs`).  Terms whose hooks need a variable-length
//! worklist keep it in a `RefCell` scratch buffer sized at `bind` time —
//! the probe hooks take `&self`, so interior mutability is the only way to
//! reuse the buffer across probes.

use std::cell::RefCell;

/// A read-only view of the decoded values of the current configuration:
/// slot `s` holds `dvals[s]`.  The evaluator maintains the decoded slice
/// incrementally (two writes per executed swap), so term hooks pay one
/// flat load per slot instead of the `vals[perm[s]]` double indirection.
#[derive(Clone, Copy)]
pub(crate) struct Dv<'a> {
    pub dvals: &'a [i64],
}

impl Dv<'_> {
    /// Decoded value of slot `s`.
    #[inline]
    pub fn get(&self, s: usize) -> i64 {
        self.dvals[s]
    }

    /// Decoded value of slot `s` with slots `i` and `j` exchanged.
    ///
    /// Applied to a pre-swap view this evaluates the candidate swap; applied
    /// to a post-swap view it recovers the pre-swap values.
    #[inline]
    pub fn get_swapped(&self, s: usize, i: usize, j: usize) -> i64 {
        if s == i {
            self.get(j)
        } else if s == j {
            self.get(i)
        } else {
            self.get(s)
        }
    }
}

/// Borrowed view of one term's slice of the evaluator-owned state slabs.
#[derive(Clone, Copy)]
pub(crate) struct TermState<'a> {
    /// The term's occurrence table (empty for stateless families).
    pub occ: &'a [u32],
    /// The term's scalar state (the cached sum of a linear term).
    pub aux: i64,
}

/// Mutable view of one term's slice of the evaluator-owned state slabs.
pub(crate) struct TermStateMut<'a> {
    pub occ: &'a mut [u32],
    pub aux: &'a mut i64,
}

/// Walk the deduplicated union of two ascending index lists, calling `f`
/// once per element in ascending order.  The merge behind every
/// "terms/pairs touching slot `i` or `j`" lookup of the model layer.
#[inline]
pub(crate) fn merge_sorted(a: &[u32], b: &[u32], mut f: impl FnMut(u32)) {
    let (mut x, mut y) = (0, 0);
    loop {
        match (a.get(x), b.get(y)) {
            (Some(&p), Some(&q)) if p == q => {
                f(p);
                x += 1;
                y += 1;
            }
            (Some(&p), Some(&q)) if p < q => {
                f(p);
                x += 1;
            }
            (Some(_), Some(&q)) => {
                f(q);
                y += 1;
            }
            (Some(&p), None) => {
                f(p);
                x += 1;
            }
            (None, Some(&q)) => {
                f(q);
                y += 1;
            }
            (None, None) => break,
        }
    }
}

/// `C(k, 2)`: conflicting pairs among `k` entries of one bucket.
#[inline]
fn pair(k: i64) -> i64 {
    k * (k - 1) / 2
}

/// Largest occurrence table a term may allocate; hit only by degenerate
/// models (e.g. an offset in the billions), where failing fast with a
/// message beats an abort on allocation.
const MAX_TABLE: i64 = 1 << 24;

fn table_len(lo: i64, hi: i64, what: &str) -> usize {
    let len = hi - lo + 1;
    assert!(
        (1..=MAX_TABLE).contains(&len),
        "{what}: occurrence table of {len} entries (range {lo}..={hi}) is unreasonable"
    );
    len as usize
}

// ---------------------------------------------------------------------------
// AllDifferentOffset
// ---------------------------------------------------------------------------

/// One member of an [`AllDifferentOffset`] term: the bucket of variable
/// `var` is `offset + coeff * value(var)`.
#[derive(Debug, Clone)]
struct AdMember {
    var: usize,
    coeff: i64,
    offset: i64,
}

/// All-different over affine images of the member values: the buckets
/// `offset_m + coeff_m * value(var_m)` (plus the constant `fixed` buckets)
/// must be pairwise distinct.  Violation: `Σ C(occ, 2)` over buckets — the
/// number of conflicting pairs, matching the hand-coded N-Queens diagonal
/// model.  Variable error: `occ(bucket(var)) − 1`.
#[derive(Debug, Clone)]
struct AllDiff {
    /// Members, sorted by variable (one member per variable).
    members: Vec<AdMember>,
    /// Constant buckets always present (pre-filled cells of a quasigroup
    /// row, for example).
    fixed: Vec<i64>,
    /// Smallest representable bucket; `occ` is indexed by `bucket - lo`.
    lo: i64,
    /// Occurrence-table length, fixed at `bind` time.
    occ_len: usize,
    /// Dense slot → member-index map (−1 for slots outside the term), so
    /// the probe hooks never binary-search.
    member_of: Vec<i32>,
}

impl AllDiff {
    #[inline]
    fn member(&self, var: usize) -> Option<&AdMember> {
        let m = self.member_of[var];
        if m < 0 {
            None
        } else {
            Some(&self.members[m as usize])
        }
    }

    #[inline]
    fn bucket(m: &AdMember, value: i64) -> i64 {
        m.offset + m.coeff * value
    }

    #[inline]
    fn idx(&self, bucket: i64) -> usize {
        (bucket - self.lo) as usize
    }

    fn bind(&mut self, vals: &[i64]) -> usize {
        let (min_v, max_v) = val_range(vals);
        let mut lo = i64::MAX;
        let mut hi = i64::MIN;
        for m in &self.members {
            let a = Self::bucket(m, min_v);
            let b = Self::bucket(m, max_v);
            lo = lo.min(a.min(b));
            hi = hi.max(a.max(b));
        }
        for &f in &self.fixed {
            lo = lo.min(f);
            hi = hi.max(f);
        }
        self.lo = lo;
        self.occ_len = table_len(lo, hi, "all-different");
        self.member_of = vec![-1; vals.len()];
        for (idx, m) in self.members.iter().enumerate() {
            self.member_of[m.var] = idx as i32;
        }
        self.occ_len
    }

    fn count_into(&self, dv: Dv, occ: &mut [u32]) {
        for &f in &self.fixed {
            occ[self.idx(f)] += 1;
        }
        for m in &self.members {
            occ[self.idx(Self::bucket(m, dv.get(m.var)))] += 1;
        }
    }

    fn rebuild(&self, dv: Dv, st: TermStateMut) -> i64 {
        st.occ.iter_mut().for_each(|o| *o = 0);
        self.count_into(dv, st.occ);
        st.occ.iter().map(|&k| pair(i64::from(k))).sum()
    }

    fn violation_scratch(&self, dv: Dv) -> i64 {
        let mut occ = vec![0u32; self.occ_len];
        self.count_into(dv, &mut occ);
        occ.iter().map(|&k| pair(i64::from(k))).sum()
    }

    fn var_error(&self, dv: Dv, st: TermState, k: usize) -> i64 {
        match self.member(k) {
            // The member itself is counted, so occ >= 1.
            Some(m) => i64::from(st.occ[self.idx(Self::bucket(m, dv.get(k)))]) - 1,
            None => 0,
        }
    }

    fn delta_swap(&self, dv: Dv, st: TermState, i: usize, j: usize) -> i64 {
        // At most two members move buckets; track the <= 4 adjusted buckets
        // in a stack-resident list so shared buckets are re-costed exactly.
        let mut adjust = [(0usize, 0i64); 4];
        let mut na = 0usize;
        let mut delta = 0i64;
        let mut apply = |occ: &[u32], bucket: usize, d: i64, delta: &mut i64| {
            let mut cur = i64::from(occ[bucket]);
            for &(b, v) in &adjust[..na] {
                if b == bucket {
                    cur += v;
                }
            }
            *delta -= pair(cur);
            *delta += pair(cur + d);
            adjust[na] = (bucket, d);
            na += 1;
        };
        for (s, other) in [(i, j), (j, i)] {
            if let Some(m) = self.member(s) {
                apply(st.occ, self.idx(Self::bucket(m, dv.get(s))), -1, &mut delta);
                apply(
                    st.occ,
                    self.idx(Self::bucket(m, dv.get(other))),
                    1,
                    &mut delta,
                );
            }
        }
        delta
    }

    /// Batched [`Self::delta_swap`] for a fixed `i` across a row of `j`s:
    /// the scalar probe's four adjustment steps (remove `i`'s bucket, add
    /// its new one, remove `j`'s, add its new one) replayed with the
    /// pending-shift corrections inlined as bucket-equality tests, and
    /// everything depending only on `i` hoisted out of the row loop.
    fn delta_swaps_batch(
        &self,
        dv: Dv,
        st: TermState,
        i: usize,
        js: &[usize],
        w: i64,
        acc: &mut [i64],
    ) {
        let occ = st.occ;
        let vi = dv.get(i);
        match self.member(i) {
            Some(mi) => {
                let bi_old = self.idx(Self::bucket(mi, vi));
                let c1 = i64::from(occ[bi_old]);
                for (k, &j) in js.iter().enumerate() {
                    let vj = dv.get(j);
                    if vj == vi {
                        continue;
                    }
                    let bi_new = self.idx(Self::bucket(mi, vj));
                    let mut delta = pair(c1 - 1) - pair(c1);
                    let c2 = i64::from(occ[bi_new]) - i64::from(bi_new == bi_old);
                    delta += pair(c2 + 1) - pair(c2);
                    if let Some(mj) = self.member(j) {
                        let bj_old = self.idx(Self::bucket(mj, vj));
                        let c3 = i64::from(occ[bj_old]) - i64::from(bj_old == bi_old)
                            + i64::from(bj_old == bi_new);
                        delta += pair(c3 - 1) - pair(c3);
                        let bj_new = self.idx(Self::bucket(mj, vi));
                        let c4 = i64::from(occ[bj_new]) - i64::from(bj_new == bi_old)
                            + i64::from(bj_new == bi_new)
                            - i64::from(bj_new == bj_old);
                        delta += pair(c4 + 1) - pair(c4);
                    }
                    acc[k] += w * delta;
                }
            }
            None => {
                for (k, &j) in js.iter().enumerate() {
                    let vj = dv.get(j);
                    if vj == vi {
                        continue;
                    }
                    if let Some(mj) = self.member(j) {
                        let bj_old = self.idx(Self::bucket(mj, vj));
                        let c3 = i64::from(occ[bj_old]);
                        let mut delta = pair(c3 - 1) - pair(c3);
                        let bj_new = self.idx(Self::bucket(mj, vi));
                        let c4 = i64::from(occ[bj_new]) - i64::from(bj_new == bj_old);
                        delta += pair(c4 + 1) - pair(c4);
                        acc[k] += w * delta;
                    }
                }
            }
        }
    }

    fn apply_swap(&self, dv_after: Dv, st: TermStateMut, i: usize, j: usize) -> i64 {
        // `dv_after` is the post-swap view; the pre-swap value of slot `s`
        // is recovered by swapping back on the fly.  Sequential mutation
        // keeps the pair count exact even when buckets coincide.
        let mut delta = 0i64;
        for s in [i, j] {
            if let Some(m) = self.member(s) {
                let b = self.idx(Self::bucket(m, dv_after.get_swapped(s, i, j)));
                delta -= i64::from(st.occ[b]) - 1;
                st.occ[b] -= 1;
            }
        }
        for s in [i, j] {
            if let Some(m) = self.member(s) {
                let b = self.idx(Self::bucket(m, dv_after.get(s)));
                delta += i64::from(st.occ[b]);
                st.occ[b] += 1;
            }
        }
        delta
    }

    fn touched_vars(&self, dv_after: Dv, i: usize, j: usize, out: &mut Vec<usize>) {
        // A member's error depends only on its own bucket count, and the
        // swap changed at most four buckets (old and new per moved member).
        let mut changed = [0usize; 4];
        let mut nc = 0usize;
        for s in [i, j] {
            if let Some(m) = self.member(s) {
                for b in [
                    self.idx(Self::bucket(m, dv_after.get_swapped(s, i, j))),
                    self.idx(Self::bucket(m, dv_after.get(s))),
                ] {
                    if !changed[..nc].contains(&b) {
                        changed[nc] = b;
                        nc += 1;
                    }
                }
            }
        }
        if nc == 0 {
            return;
        }
        for m in &self.members {
            if changed[..nc].contains(&self.idx(Self::bucket(m, dv_after.get(m.var)))) {
                out.push(m.var);
            }
        }
    }

    fn accumulate_errors(&self, dv: Dv, st: TermState, weight: i64, out: &mut [i64]) {
        for m in &self.members {
            out[m.var] +=
                weight * (i64::from(st.occ[self.idx(Self::bucket(m, dv.get(m.var)))]) - 1);
        }
    }
}

// ---------------------------------------------------------------------------
// LinearEq
// ---------------------------------------------------------------------------

/// A linear equation `Σ coeff_m * value(var_m) = target`.  Violation:
/// `|sum − target|`.  Variable error: every member carries the full line
/// violation, matching the hand-coded magic-square row/column convention.
/// The running sum lives in the evaluator's scalar slab (`TermState::aux`).
#[derive(Debug, Clone)]
struct Linear {
    /// `(var, coeff)`, sorted by variable (one member per variable).
    members: Vec<(usize, i64)>,
    target: i64,
    /// Dense slot → coefficient map (0 for slots outside the term).
    coeff_of: Vec<i64>,
}

impl Linear {
    #[inline]
    fn coeff(&self, var: usize) -> i64 {
        self.coeff_of[var]
    }

    fn bind(&mut self, vals: &[i64]) -> usize {
        self.coeff_of = vec![0; vals.len()];
        for &(v, c) in &self.members {
            self.coeff_of[v] = c;
        }
        0
    }

    fn sum_of(&self, dv: Dv) -> i64 {
        self.members.iter().map(|&(v, c)| c * dv.get(v)).sum()
    }

    fn rebuild(&self, dv: Dv, st: TermStateMut) -> i64 {
        *st.aux = self.sum_of(dv);
        (*st.aux - self.target).abs()
    }

    fn violation_scratch(&self, dv: Dv) -> i64 {
        (self.sum_of(dv) - self.target).abs()
    }

    #[inline]
    fn viol(&self, st: TermState) -> i64 {
        (st.aux - self.target).abs()
    }

    fn delta_swap(&self, dv: Dv, st: TermState, i: usize, j: usize) -> i64 {
        // Swapping i and j moves the sum by (c_i − c_j) · (v_j − v_i).
        let (vi, vj) = (dv.get(i), dv.get(j));
        let next = st.aux + (self.coeff(i) - self.coeff(j)) * (vj - vi);
        (next - self.target).abs() - self.viol(st)
    }

    fn delta_swaps_batch(
        &self,
        dv: Dv,
        st: TermState,
        i: usize,
        js: &[usize],
        w: i64,
        acc: &mut [i64],
    ) {
        // Branch-free row: one coefficient load, one value load, one abs
        // per probe (`v_j == v_i` yields an exact 0, no skip needed).
        let vi = dv.get(i);
        let ci = self.coeff(i);
        let viol_now = self.viol(st);
        for (k, &j) in js.iter().enumerate() {
            let next = st.aux + (ci - self.coeff_of[j]) * (dv.get(j) - vi);
            acc[k] += w * ((next - self.target).abs() - viol_now);
        }
    }

    fn apply_swap(&self, dv_after: Dv, st: TermStateMut, i: usize, j: usize) -> i64 {
        let before = (*st.aux - self.target).abs();
        let (vi, vj) = (dv_after.get(i), dv_after.get(j));
        // Pre-swap values are the post-swap view swapped back.
        *st.aux += (self.coeff(i) - self.coeff(j)) * (vi - vj);
        (*st.aux - self.target).abs() - before
    }

    fn touched_vars(&self, out: &mut Vec<usize>) {
        // Every member reports the full line violation, so a changed sum
        // dirties all of them.
        out.extend(self.members.iter().map(|&(v, _)| v));
    }

    fn accumulate_errors(&self, st: TermState, weight: i64, out: &mut [i64]) {
        let v = self.viol(st);
        if v != 0 {
            for &(var, _) in &self.members {
                out[var] += weight * v;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// PairwiseDistance
// ---------------------------------------------------------------------------

/// How a [`PairwiseDistance`] term scores the distances of its pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DistanceMode {
    /// All pair distances must be pairwise distinct.  Violation: the surplus
    /// `Σ max(0, occ(d) − 1)` over distance values, matching the hand-coded
    /// all-interval model.  Variable error: the number of incident pairs
    /// whose distance is duplicated.
    AllDistinct,
    /// Every pair distance must be at least the separation.  Violation: the
    /// total shortfall `Σ max(0, sep − dist)`.  Variable error: the summed
    /// shortfall of the incident pairs.  With separation 1 this is a
    /// binary not-equal constraint per pair (graph coloring).
    MinSeparation(i64),
}

/// Dimensions of the tabulated `MinSeparation` conflict table (see
/// [`Pairwise::table`]): row `s` of the occurrence slab holds, for every
/// candidate value `c` in `lo..lo + range`, the summed shortfall slot `s`
/// would carry if it held `c` — `Σ max(0, sep − |c − value(x)|)` over its
/// adjacent slots `x`.
#[derive(Debug, Clone, Copy)]
struct SepTable {
    lo: i64,
    range: usize,
}

/// Epoch-stamped neighbour-multiplicity map for the tabulated
/// `MinSeparation` batch kernel: `mult[x]` is valid iff `stamp[x]` equals
/// the current epoch, so a row scan marks `i`'s neighbours without clearing.
#[derive(Debug, Clone, Default)]
struct SepMark {
    stamp: Vec<u64>,
    epoch: u64,
    mult: Vec<u32>,
}

/// A constraint over the absolute value differences of a list of slot
/// pairs; see [`DistanceMode`] for the two scoring modes.
#[derive(Debug, Clone)]
struct Pairwise {
    pairs: Vec<(usize, usize)>,
    mode: DistanceMode,
    /// Sorted, deduplicated endpoints (the term's variable set).
    vars: Vec<usize>,
    /// CSR pair incidence: the pair indices touching slot `v` are
    /// `inc_dat[inc_off[v]..inc_off[v + 1]]`, ascending (empty for slots
    /// outside the term).  Flat so the batch kernels walk one array.
    inc_off: Vec<u32>,
    inc_dat: Vec<u32>,
    /// Occurrence-slab length: the distance histogram for `AllDistinct`,
    /// the `slots × range` conflict table for tabulated `MinSeparation`.
    occ_len: usize,
    /// `Some` when `MinSeparation` keeps the per-slot conflict table (value
    /// range and degrees small enough); `None` falls back to the stateless
    /// neighbour-walk hooks.
    table: Option<SepTable>,
    /// Reusable affected-pair worklist for the swap hooks; interior
    /// mutability because the probe hooks take `&self`.
    scratch_pairs: RefCell<Vec<u32>>,
    /// Reusable `(distance, shift)` worklist for the `AllDistinct` hooks.
    scratch_deltas: RefCell<Vec<(i64, i64)>>,
    /// Reusable `(partner, value)` list of `i`'s neighbours, hoisted out of
    /// the batch row loops.
    scratch_nbr: RefCell<Vec<(usize, i64)>>,
    /// Reusable copy of the distance histogram for the `AllDistinct` batch
    /// kernel (`i`'s removals pre-applied once per row).
    scratch_occ: RefCell<Vec<u32>>,
    /// Neighbour marks for the tabulated `MinSeparation` batch kernel.
    scratch_mark: RefCell<SepMark>,
}

impl Pairwise {
    #[inline]
    fn dist(dv: Dv, p: (usize, usize)) -> i64 {
        (dv.get(p.0) - dv.get(p.1)).abs()
    }

    #[inline]
    fn dist_swapped(dv: Dv, p: (usize, usize), i: usize, j: usize) -> i64 {
        (dv.get_swapped(p.0, i, j) - dv.get_swapped(p.1, i, j)).abs()
    }

    #[inline]
    fn shortfall(sep: i64, dist: i64) -> i64 {
        (sep - dist).max(0)
    }

    /// The pair indices incident to slot `v`.
    #[inline]
    fn incident(&self, v: usize) -> &[u32] {
        &self.inc_dat[self.inc_off[v] as usize..self.inc_off[v + 1] as usize]
    }

    /// The other endpoint of pair `p` relative to `v`.
    #[inline]
    fn partner(&self, p: u32, v: usize) -> usize {
        let (a, b) = self.pairs[p as usize];
        if a == v {
            b
        } else {
            a
        }
    }

    /// Conflict-table lookup: the summed shortfall slot `s` would carry if
    /// it held value `v` (which must lie in the table's value range — true
    /// of every decoded value by construction).
    #[inline]
    fn conf(occ: &[u32], tbl: SepTable, s: usize, v: i64) -> i64 {
        i64::from(occ[s * tbl.range + (v - tbl.lo) as usize])
    }

    /// Add (`sign > 0`) or remove (`sign < 0`) the shortfall contributions
    /// of one adjacent value `v` to slot `s`'s conflict row: `penalty(c, v)
    /// = sep − |c − v|` is non-zero only for candidates within `sep` of
    /// `v`, so the update walks that window.
    #[inline]
    fn table_adjust(occ: &mut [u32], tbl: SepTable, sep: i64, s: usize, v: i64, sign: i64) {
        let row = s * tbl.range;
        for off in -(sep - 1)..=(sep - 1) {
            let c = v + off;
            if c < tbl.lo || c - tbl.lo >= tbl.range as i64 {
                continue;
            }
            let idx = row + (c - tbl.lo) as usize;
            let p = (sep - off.abs()) as u32;
            if sign > 0 {
                occ[idx] += p;
            } else {
                occ[idx] -= p;
            }
        }
    }

    /// How many of `i`'s pairs join it to `j` (0 for non-adjacent slots).
    #[inline]
    fn multiplicity(&self, i: usize, j: usize) -> i64 {
        self.incident(i)
            .iter()
            .filter(|&&p| self.partner(p, i) == j)
            .count() as i64
    }

    fn bind(&mut self, vals: &[i64]) -> usize {
        // A swap may pair a term slot with any other slot of the model, so
        // the incidence table must cover all of them.
        let n = vals.len();
        let mut off = vec![0u32; n + 1];
        for &(a, b) in &self.pairs {
            off[a + 1] += 1;
            off[b + 1] += 1;
        }
        for v in 0..n {
            off[v + 1] += off[v];
        }
        let mut cursor = off.clone();
        let mut dat = vec![0u32; 2 * self.pairs.len()];
        // Filling in ascending pair order keeps each slot's list sorted,
        // which the merge walk in `affected_into` relies on.
        for (p, &(a, b)) in self.pairs.iter().enumerate() {
            dat[cursor[a] as usize] = p as u32;
            cursor[a] += 1;
            dat[cursor[b] as usize] = p as u32;
            cursor[b] += 1;
        }
        self.inc_off = off;
        self.inc_dat = dat;
        let max_deg = (0..n)
            .map(|v| (self.inc_off[v + 1] - self.inc_off[v]) as usize)
            .max()
            .unwrap_or(0);
        self.occ_len = match self.mode {
            DistanceMode::AllDistinct => {
                let (min_v, max_v) = val_range(vals);
                table_len(0, max_v - min_v, "pairwise-distance")
            }
            DistanceMode::MinSeparation(sep) => {
                // Tabulate the per-slot conflict rows when the table stays
                // small and every row sum provably fits `u32`; wide value
                // ranges or huge separations fall back to the stateless
                // neighbour-walk hooks.
                let (min_v, max_v) = val_range(vals);
                let range = (max_v - min_v + 1) as usize;
                let fits = (1..=4096).contains(&sep)
                    && (n as u64).saturating_mul(range as u64) <= MAX_TABLE as u64
                    && (max_deg as u64).saturating_mul(sep as u64) <= u64::from(u32::MAX);
                self.table = fits.then_some(SepTable { lo: min_v, range });
                if fits {
                    n * range
                } else {
                    0
                }
            }
        };
        // Size the scratch worklists for the worst swap up front so the
        // hooks never grow them.
        self.scratch_pairs.get_mut().reserve(2 * max_deg);
        self.scratch_deltas.get_mut().reserve(4 * max_deg);
        self.scratch_nbr.get_mut().reserve(max_deg);
        if self.mode == DistanceMode::AllDistinct {
            self.scratch_occ.get_mut().reserve(self.occ_len);
        }
        if self.table.is_some() {
            let mark = self.scratch_mark.get_mut();
            mark.stamp.resize(n, 0);
            mark.mult.resize(n, 0);
            mark.epoch = 0;
        }
        self.occ_len
    }

    /// Fill `out` with the deduplicated pair indices incident to `i` or `j`
    /// (both lists are sorted, so a merge walk suffices).
    fn affected_into(&self, i: usize, j: usize, out: &mut Vec<u32>) {
        out.clear();
        merge_sorted(self.incident(i), self.incident(j), |p| out.push(p));
    }

    fn rebuild(&self, dv: Dv, st: TermStateMut) -> i64 {
        match self.mode {
            DistanceMode::AllDistinct => {
                st.occ.iter_mut().for_each(|o| *o = 0);
                for &p in &self.pairs {
                    st.occ[Self::dist(dv, p) as usize] += 1;
                }
                st.occ.iter().map(|&o| i64::from(o.saturating_sub(1))).sum()
            }
            DistanceMode::MinSeparation(sep) => {
                if let Some(tbl) = self.table {
                    st.occ.iter_mut().for_each(|o| *o = 0);
                    let mut viol = 0;
                    for &(a, b) in &self.pairs {
                        let (va, vb) = (dv.get(a), dv.get(b));
                        viol += Self::shortfall(sep, (va - vb).abs());
                        Self::table_adjust(st.occ, tbl, sep, a, vb, 1);
                        Self::table_adjust(st.occ, tbl, sep, b, va, 1);
                    }
                    viol
                } else {
                    self.pairs
                        .iter()
                        .map(|&p| Self::shortfall(sep, Self::dist(dv, p)))
                        .sum()
                }
            }
        }
    }

    fn violation_scratch(&self, dv: Dv) -> i64 {
        match self.mode {
            DistanceMode::AllDistinct => {
                let mut occ = vec![0u32; self.occ_len];
                let mut viol = 0;
                for &p in &self.pairs {
                    let d = Self::dist(dv, p) as usize;
                    if occ[d] >= 1 {
                        viol += 1;
                    }
                    occ[d] += 1;
                }
                viol
            }
            DistanceMode::MinSeparation(sep) => self
                .pairs
                .iter()
                .map(|&p| Self::shortfall(sep, Self::dist(dv, p)))
                .sum(),
        }
    }

    fn var_error(&self, dv: Dv, st: TermState, k: usize) -> i64 {
        match self.mode {
            DistanceMode::AllDistinct => self
                .incident(k)
                .iter()
                .map(|&p| i64::from(st.occ[Self::dist(dv, self.pairs[p as usize]) as usize] > 1))
                .sum(),
            DistanceMode::MinSeparation(sep) => {
                if let Some(tbl) = self.table {
                    // The conflict row already sums the incident shortfalls.
                    Self::conf(st.occ, tbl, k, dv.get(k))
                } else {
                    self.incident(k)
                        .iter()
                        .map(|&p| Self::shortfall(sep, Self::dist(dv, self.pairs[p as usize])))
                        .sum()
                }
            }
        }
    }

    /// Exact swap delta from the conflict table in O(deg(i)): the affected
    /// sum decomposes into the four row lookups plus a correction for pairs
    /// joining `i` and `j` directly (each is counted in both rows with its
    /// partner's *old* value, and its own distance is swap-invariant):
    /// `Δ = conf_i(v_j) − conf_i(v_i) + conf_j(v_i) − conf_j(v_j)
    ///      + 2·m·(penalty(v_i, v_j) − sep)`
    /// with `m` the (i, j) pair multiplicity.  The swapped slots arrive as
    /// `(slot, value)` pairs.
    #[inline]
    fn delta_swap_tabulated(
        occ: &[u32],
        tbl: SepTable,
        sep: i64,
        (i, vi): (usize, i64),
        (j, vj): (usize, i64),
        mult: i64,
    ) -> i64 {
        let mut delta = Self::conf(occ, tbl, i, vj) - Self::conf(occ, tbl, i, vi)
            + Self::conf(occ, tbl, j, vi)
            - Self::conf(occ, tbl, j, vj);
        if mult != 0 {
            delta += 2 * mult * (Self::shortfall(sep, (vi - vj).abs()) - sep);
        }
        delta
    }

    fn delta_swap(&self, dv: Dv, st: TermState, i: usize, j: usize) -> i64 {
        if let (DistanceMode::MinSeparation(sep), Some(tbl)) = (self.mode, self.table) {
            let m = self.multiplicity(i, j);
            return Self::delta_swap_tabulated(st.occ, tbl, sep, (i, dv.get(i)), (j, dv.get(j)), m);
        }
        let mut affected = self.scratch_pairs.borrow_mut();
        self.affected_into(i, j, &mut affected);
        match self.mode {
            DistanceMode::AllDistinct => {
                // Remove the old distances, then add the new ones, tracking
                // pending occurrence adjustments exactly.
                let mut adjust = self.scratch_deltas.borrow_mut();
                adjust.clear();
                let occ_now = |adjust: &[(i64, i64)], occ: &[u32], d: i64| {
                    let mut cur = i64::from(occ[d as usize]);
                    for &(ad, v) in adjust {
                        if ad == d {
                            cur += v;
                        }
                    }
                    cur
                };
                let mut delta = 0i64;
                for &p in affected.iter() {
                    let d = Self::dist(dv, self.pairs[p as usize]);
                    if occ_now(&adjust, st.occ, d) > 1 {
                        delta -= 1;
                    }
                    adjust.push((d, -1));
                }
                for &p in affected.iter() {
                    let d = Self::dist_swapped(dv, self.pairs[p as usize], i, j);
                    if occ_now(&adjust, st.occ, d) >= 1 {
                        delta += 1;
                    }
                    adjust.push((d, 1));
                }
                delta
            }
            DistanceMode::MinSeparation(sep) => affected
                .iter()
                .map(|&p| {
                    let pp = self.pairs[p as usize];
                    Self::shortfall(sep, Self::dist_swapped(dv, pp, i, j))
                        - Self::shortfall(sep, Self::dist(dv, pp))
                })
                .sum(),
        }
    }

    /// Batched [`Self::delta_swap`]: `i`'s neighbour list (and, for
    /// `AllDistinct`, the removal pass over `i`'s own pairs) is computed
    /// once and replayed per `j`.  The affected-pair union is decomposed as
    /// "all pairs at `i`, plus pairs at `j` not involving `i`", which
    /// matches the scalar merge exactly; within each phase (removals, then
    /// additions) the per-distance contribution depends only on the
    /// occurrence multiset, so the phase-internal order is free.
    fn delta_swaps_batch(
        &self,
        dv: Dv,
        st: TermState,
        i: usize,
        js: &[usize],
        w: i64,
        acc: &mut [i64],
    ) {
        let vi = dv.get(i);
        if let (DistanceMode::MinSeparation(sep), Some(tbl)) = (self.mode, self.table) {
            // O(1) per partner: four conflict-row lookups plus an adjacency
            // correction.  `i`'s neighbour multiplicities are stamped once
            // per row (epochs, so no clearing).
            let occ = st.occ;
            let mut mark = self.scratch_mark.borrow_mut();
            mark.epoch += 1;
            let epoch = mark.epoch;
            let SepMark { stamp, mult, .. } = &mut *mark;
            for &p in self.incident(i) {
                let x = self.partner(p, i);
                if stamp[x] == epoch {
                    mult[x] += 1;
                } else {
                    stamp[x] = epoch;
                    mult[x] = 1;
                }
            }
            let base_i = Self::conf(occ, tbl, i, vi);
            for (k, &j) in js.iter().enumerate() {
                let vj = dv.get(j);
                if vj == vi {
                    continue;
                }
                let mut delta = Self::conf(occ, tbl, i, vj) - base_i + Self::conf(occ, tbl, j, vi)
                    - Self::conf(occ, tbl, j, vj);
                if stamp[j] == epoch {
                    delta += 2 * i64::from(mult[j]) * (Self::shortfall(sep, (vi - vj).abs()) - sep);
                }
                acc[k] += w * delta;
            }
            return;
        }
        let mut nbr = self.scratch_nbr.borrow_mut();
        nbr.clear();
        for &p in self.incident(i) {
            let x = self.partner(p, i);
            nbr.push((x, dv.get(x)));
        }
        match self.mode {
            DistanceMode::AllDistinct => {
                // Work on a copy of the histogram with `i`'s removals
                // pre-applied (once per row); each `j` then applies its
                // removals and the additions directly to the copy — exact
                // running counts, no pending-list scans — and undoes them
                // before the next partner.
                let mut tmp = self.scratch_occ.borrow_mut();
                tmp.clear();
                tmp.extend_from_slice(st.occ);
                let mut undo = self.scratch_deltas.borrow_mut();
                let mut delta_rm_i = 0i64;
                for &(_, vx) in nbr.iter() {
                    let d = (vi - vx).unsigned_abs() as usize;
                    let c = tmp[d];
                    if c > 1 {
                        delta_rm_i -= 1;
                    }
                    tmp[d] = c - 1;
                }
                for (k, &j) in js.iter().enumerate() {
                    let vj = dv.get(j);
                    if vj == vi {
                        continue;
                    }
                    undo.clear();
                    let mut delta = delta_rm_i;
                    for &p in self.incident(j) {
                        let x = self.partner(p, j);
                        if x == i {
                            continue;
                        }
                        let d = (vj - dv.get(x)).unsigned_abs() as usize;
                        let c = tmp[d];
                        if c > 1 {
                            delta -= 1;
                        }
                        tmp[d] = c - 1;
                        undo.push((d as i64, 1));
                    }
                    for &(x, vx) in nbr.iter() {
                        let other = if x == j { vi } else { vx };
                        let d = (vj - other).unsigned_abs() as usize;
                        let c = tmp[d];
                        if c >= 1 {
                            delta += 1;
                        }
                        tmp[d] = c + 1;
                        undo.push((d as i64, -1));
                    }
                    for &p in self.incident(j) {
                        let x = self.partner(p, j);
                        if x == i {
                            continue;
                        }
                        let d = (vi - dv.get(x)).unsigned_abs() as usize;
                        let c = tmp[d];
                        if c >= 1 {
                            delta += 1;
                        }
                        tmp[d] = c + 1;
                        undo.push((d as i64, -1));
                    }
                    acc[k] += w * delta;
                    for &(d, v) in undo.iter() {
                        let d = d as usize;
                        tmp[d] = (i64::from(tmp[d]) + v) as u32;
                    }
                }
            }
            DistanceMode::MinSeparation(sep) => {
                let mut base_old = 0i64;
                for &(_, vx) in nbr.iter() {
                    base_old += Self::shortfall(sep, (vi - vx).abs());
                }
                for (k, &j) in js.iter().enumerate() {
                    let vj = dv.get(j);
                    if vj == vi {
                        continue;
                    }
                    // i's pairs, re-scored with slot i holding v_j (a pair
                    // (i, j) keeps its distance: the partner value becomes
                    // v_i).
                    let mut s_new = 0i64;
                    for &(x, vx) in nbr.iter() {
                        let other = if x == j { vi } else { vx };
                        s_new += Self::shortfall(sep, (vj - other).abs());
                    }
                    let mut delta = s_new - base_old;
                    // j's pairs not involving i: slot j now holds v_i.
                    for &p in self.incident(j) {
                        let x = self.partner(p, j);
                        if x == i {
                            continue;
                        }
                        let vx = dv.get(x);
                        delta += Self::shortfall(sep, (vi - vx).abs())
                            - Self::shortfall(sep, (vj - vx).abs());
                    }
                    acc[k] += w * delta;
                }
            }
        }
    }

    fn apply_swap(&self, dv_after: Dv, st: TermStateMut, i: usize, j: usize) -> i64 {
        if let (DistanceMode::MinSeparation(sep), Some(tbl)) = (self.mode, self.table) {
            // `dv_after` is post-swap, so the pre-swap values are crossed.
            let (new_vi, new_vj) = (dv_after.get(i), dv_after.get(j));
            let (old_vi, old_vj) = (new_vj, new_vi);
            let m = self.multiplicity(i, j);
            let delta = Self::delta_swap_tabulated(st.occ, tbl, sep, (i, old_vi), (j, old_vj), m);
            for &p in self.incident(i) {
                let x = self.partner(p, i);
                Self::table_adjust(st.occ, tbl, sep, x, old_vi, -1);
                Self::table_adjust(st.occ, tbl, sep, x, new_vi, 1);
            }
            for &p in self.incident(j) {
                let x = self.partner(p, j);
                Self::table_adjust(st.occ, tbl, sep, x, old_vj, -1);
                Self::table_adjust(st.occ, tbl, sep, x, new_vj, 1);
            }
            return delta;
        }
        let mut affected = self.scratch_pairs.borrow_mut();
        self.affected_into(i, j, &mut affected);
        let mut delta = 0i64;
        match self.mode {
            DistanceMode::AllDistinct => {
                for &p in affected.iter() {
                    let pp = self.pairs[p as usize];
                    let old_d = Self::dist_swapped(dv_after, pp, i, j) as usize;
                    if st.occ[old_d] > 1 {
                        delta -= 1;
                    }
                    st.occ[old_d] -= 1;
                    let new_d = Self::dist(dv_after, pp) as usize;
                    if st.occ[new_d] >= 1 {
                        delta += 1;
                    }
                    st.occ[new_d] += 1;
                }
            }
            DistanceMode::MinSeparation(sep) => {
                for &p in affected.iter() {
                    let pp = self.pairs[p as usize];
                    delta += Self::shortfall(sep, Self::dist(dv_after, pp))
                        - Self::shortfall(sep, Self::dist_swapped(dv_after, pp, i, j));
                }
            }
        }
        delta
    }

    fn touched_vars(&self, dv_after: Dv, st: TermState, i: usize, j: usize, out: &mut Vec<usize>) {
        let mut affected = self.scratch_pairs.borrow_mut();
        self.affected_into(i, j, &mut affected);
        for &p in affected.iter() {
            let (a, b) = self.pairs[p as usize];
            out.push(a);
            out.push(b);
        }
        if self.mode == DistanceMode::AllDistinct {
            // A non-incident pair's error flips only when one of the changed
            // distance values crossed the duplicated/unique boundary; in that
            // case conservatively dirty the whole term.
            let mut deltas = self.scratch_deltas.borrow_mut();
            deltas.clear();
            let bump = |deltas: &mut Vec<(i64, i64)>, d: i64, v: i64| {
                for entry in deltas.iter_mut() {
                    if entry.0 == d {
                        entry.1 += v;
                        return;
                    }
                }
                deltas.push((d, v));
            };
            for &p in affected.iter() {
                let pp = self.pairs[p as usize];
                bump(&mut deltas, Self::dist_swapped(dv_after, pp, i, j), -1);
                bump(&mut deltas, Self::dist(dv_after, pp), 1);
            }
            let flipped = deltas.iter().any(|&(d, v)| {
                let post = i64::from(st.occ[d as usize]);
                (post - v > 1) != (post > 1)
            });
            if flipped {
                out.extend_from_slice(&self.vars);
            }
        }
    }

    fn accumulate_errors(&self, dv: Dv, st: TermState, weight: i64, out: &mut [i64]) {
        match self.mode {
            DistanceMode::AllDistinct => {
                for &p in &self.pairs {
                    if st.occ[Self::dist(dv, p) as usize] > 1 {
                        out[p.0] += weight;
                        out[p.1] += weight;
                    }
                }
            }
            DistanceMode::MinSeparation(sep) => {
                if let Some(tbl) = self.table {
                    // Each endpoint's summed shortfall is its conflict-row
                    // entry at its own value — O(slots) instead of O(pairs).
                    for &s in &self.vars {
                        let e = Self::conf(st.occ, tbl, s, dv.get(s));
                        if e != 0 {
                            out[s] += weight * e;
                        }
                    }
                } else {
                    for &p in &self.pairs {
                        let s = Self::shortfall(sep, Self::dist(dv, p));
                        if s != 0 {
                            out[p.0] += weight * s;
                            out[p.1] += weight * s;
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// TableCount
// ---------------------------------------------------------------------------

/// A channeling counting constraint: for each entry `(value, target)`, the
/// number of `counted` slots holding `value` must equal the decoded value of
/// slot `target`.  Violation: `Σ |occ(value) − value(target)|`.  Variable
/// error: a counted slot carries the mismatch of its own value's entry; a
/// target slot carries the mismatch of every entry it controls.
#[derive(Debug, Clone)]
struct Count {
    /// Sorted, deduplicated counted slots.
    counted: Vec<usize>,
    /// `(value, target_slot)`, unique values.
    entries: Vec<(i64, usize)>,
    /// Variable set: counted slots plus target slots, sorted, deduplicated.
    vars: Vec<usize>,
    lo: i64,
    /// Occurrence-table length, fixed at `bind` time.
    occ_len: usize,
    /// `entry_of[value - lo]` = index into `entries` tracking that value.
    entry_of: Vec<Option<u32>>,
    /// `targets_of[v]` = entries whose target slot is `v` (empty elsewhere).
    targets_of: Vec<Vec<u32>>,
    /// `is_counted[v]` for every slot.
    is_counted: Vec<bool>,
    /// Reusable affected-entry worklist for the swap hooks; interior
    /// mutability because the probe hooks take `&self`.
    scratch_entries: RefCell<Vec<u32>>,
}

impl Count {
    fn bind(&mut self, vals: &[i64]) -> usize {
        // A swap may pair a term slot with any other slot of the model, so
        // the per-slot lookup tables must cover all of them.
        if self.targets_of.len() < vals.len() {
            self.targets_of.resize(vals.len(), Vec::new());
        }
        if self.is_counted.len() < vals.len() {
            self.is_counted.resize(vals.len(), false);
        }
        let (min_v, max_v) = val_range(vals);
        let mut lo = min_v;
        let mut hi = max_v;
        for &(value, _) in &self.entries {
            lo = lo.min(value);
            hi = hi.max(value);
        }
        self.lo = lo;
        self.occ_len = table_len(lo, hi, "table-count");
        self.entry_of = vec![None; self.occ_len];
        for (e, &(value, _)) in self.entries.iter().enumerate() {
            let slot = &mut self.entry_of[(value - lo) as usize];
            assert!(
                slot.is_none(),
                "table-count: duplicate entry for value {value}"
            );
            *slot = Some(e as u32);
        }
        // The worklist never holds more than one index per entry.
        self.scratch_entries.get_mut().reserve(self.entries.len());
        self.occ_len
    }

    #[inline]
    fn idx(&self, value: i64) -> usize {
        (value - self.lo) as usize
    }

    #[inline]
    fn mismatch_with(&self, occ: &[u32], dv: Dv, e: usize) -> i64 {
        let (value, target) = self.entries[e];
        (i64::from(occ[self.idx(value)]) - dv.get(target)).abs()
    }

    fn rebuild(&self, dv: Dv, st: TermStateMut) -> i64 {
        st.occ.iter_mut().for_each(|o| *o = 0);
        for &s in &self.counted {
            st.occ[self.idx(dv.get(s))] += 1;
        }
        (0..self.entries.len())
            .map(|e| self.mismatch_with(st.occ, dv, e))
            .sum()
    }

    fn violation_scratch(&self, dv: Dv) -> i64 {
        let mut occ = vec![0u32; self.occ_len];
        for &s in &self.counted {
            occ[self.idx(dv.get(s))] += 1;
        }
        (0..self.entries.len())
            .map(|e| self.mismatch_with(&occ, dv, e))
            .sum()
    }

    fn var_error(&self, dv: Dv, st: TermState, k: usize) -> i64 {
        let mut err = 0;
        if self.is_counted[k] {
            if let Some(e) = self.entry_of[self.idx(dv.get(k))] {
                err += self.mismatch_with(st.occ, dv, e as usize);
            }
        }
        for &e in &self.targets_of[k] {
            err += self.mismatch_with(st.occ, dv, e as usize);
        }
        err
    }

    /// Fill `out` with the deduplicated entries whose mismatch a swap of
    /// `(i, j)` may change: entries tracking the two moving values (when
    /// exactly one endpoint is counted, so the occurrence table shifts) and
    /// entries targeted by either endpoint.
    fn affected_entries_into(&self, vi: i64, vj: i64, i: usize, j: usize, out: &mut Vec<u32>) {
        out.clear();
        let push = |out: &mut Vec<u32>, e: u32| {
            if !out.contains(&e) {
                out.push(e);
            }
        };
        if self.is_counted[i] != self.is_counted[j] {
            for v in [vi, vj] {
                if let Some(e) = self.entry_of[self.idx(v)] {
                    push(out, e);
                }
            }
        }
        for s in [i, j] {
            for &e in &self.targets_of[s] {
                push(out, e);
            }
        }
    }

    /// Net occurrence shift of the swap: `Some((removed, added))` when
    /// exactly one endpoint is counted, `None` when the table is unchanged.
    fn occ_shift(&self, vi: i64, vj: i64, i: usize, j: usize) -> Option<(i64, i64)> {
        match (self.is_counted[i], self.is_counted[j]) {
            (true, false) => Some((vi, vj)),
            (false, true) => Some((vj, vi)),
            _ => None,
        }
    }

    /// [`Self::delta_swap`] with a caller-provided worklist, so the batch
    /// kernel borrows the scratch buffer once per row instead of per probe.
    fn delta_swap_with(
        &self,
        dv: Dv,
        st: TermState,
        i: usize,
        j: usize,
        affected: &mut Vec<u32>,
    ) -> i64 {
        let (vi, vj) = (dv.get(i), dv.get(j));
        self.affected_entries_into(vi, vj, i, j, affected);
        if affected.is_empty() {
            return 0;
        }
        let shift = self.occ_shift(vi, vj, i, j);
        let mut delta = 0i64;
        for &e in affected.iter() {
            let (value, target) = self.entries[e as usize];
            let mut occ = i64::from(st.occ[self.idx(value)]);
            if let Some((removed, added)) = shift {
                if value == removed {
                    occ -= 1;
                }
                if value == added {
                    occ += 1;
                }
            }
            let new_target = dv.get_swapped(target, i, j);
            delta += (occ - new_target).abs() - self.mismatch_with(st.occ, dv, e as usize);
        }
        delta
    }

    fn delta_swap(&self, dv: Dv, st: TermState, i: usize, j: usize) -> i64 {
        let mut affected = self.scratch_entries.borrow_mut();
        self.delta_swap_with(dv, st, i, j, &mut affected)
    }

    fn delta_swaps_batch(
        &self,
        dv: Dv,
        st: TermState,
        i: usize,
        js: &[usize],
        w: i64,
        acc: &mut [i64],
    ) {
        let vi = dv.get(i);
        let mut affected = self.scratch_entries.borrow_mut();
        for (k, &j) in js.iter().enumerate() {
            if dv.get(j) == vi {
                continue;
            }
            acc[k] += w * self.delta_swap_with(dv, st, i, j, &mut affected);
        }
    }

    fn apply_swap(&self, dv_after: Dv, st: TermStateMut, i: usize, j: usize) -> i64 {
        // Pre-swap values are the post-swap view swapped back.
        let (vi, vj) = (dv_after.get(j), dv_after.get(i));
        let mut affected = self.scratch_entries.borrow_mut();
        self.affected_entries_into(vi, vj, i, j, &mut affected);
        if affected.is_empty() {
            return 0;
        }
        let mut delta = 0i64;
        for &e in affected.iter() {
            // Pre-swap mismatch, with the target read through the swapped view.
            let (value, target) = self.entries[e as usize];
            delta -=
                (i64::from(st.occ[self.idx(value)]) - dv_after.get_swapped(target, i, j)).abs();
        }
        if let Some((removed, added)) = self.occ_shift(vi, vj, i, j) {
            st.occ[self.idx(removed)] -= 1;
            st.occ[self.idx(added)] += 1;
        }
        for &e in affected.iter() {
            delta += self.mismatch_with(st.occ, dv_after, e as usize);
        }
        delta
    }

    fn touched_vars(&self, out: &mut Vec<usize>) {
        // Counted errors depend on the shared occurrence table and the
        // targets' decoded values; dirty the whole term.
        out.extend_from_slice(&self.vars);
    }

    fn accumulate_errors(&self, dv: Dv, st: TermState, weight: i64, out: &mut [i64]) {
        for (e, &(_, target)) in self.entries.iter().enumerate() {
            let m = self.mismatch_with(st.occ, dv, e);
            if m != 0 {
                out[target] += weight * m;
            }
        }
        for &s in &self.counted {
            if let Some(e) = self.entry_of[self.idx(dv.get(s))] {
                let m = self.mismatch_with(st.occ, dv, e as usize);
                if m != 0 {
                    out[s] += weight * m;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Term: the public wrapper
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Kind {
    AllDiff(AllDiff),
    Linear(Linear),
    Pairwise(Pairwise),
    Count(Count),
}

/// One violation term of a [`crate::Model`]; build values with the
/// constructors below and attach them with [`crate::Model::term`] /
/// [`crate::Model::weighted_term`].
///
/// See the module docs for the incremental obligations every term meets and
/// for the structure-of-arrays state protocol.
#[derive(Debug, Clone)]
pub struct Term {
    kind: Kind,
}

fn val_range(vals: &[i64]) -> (i64, i64) {
    let min_v = vals.iter().copied().min().expect("empty value table");
    let max_v = vals.iter().copied().max().expect("empty value table");
    (min_v, max_v)
}

fn sorted_unique(mut vars: Vec<usize>, what: &str) -> Vec<usize> {
    vars.sort_unstable();
    let before = vars.len();
    vars.dedup();
    assert_eq!(before, vars.len(), "{what}: duplicate variable");
    vars
}

impl Term {
    /// All-different over affine images: member `(var, coeff, offset)`
    /// occupies bucket `offset + coeff * value(var)`.  Two N-Queens diagonal
    /// families are `(c, 1, c)` and `(c, -1, c + n - 1)` over the columns.
    #[must_use]
    pub fn all_different_offset(members: impl IntoIterator<Item = (usize, i64, i64)>) -> Self {
        Self::all_different_with_fixed(members, Vec::new())
    }

    /// [`Term::all_different_offset`] with additional constant buckets that
    /// are always occupied — the pre-filled cells of a quasigroup row or
    /// column.
    ///
    /// # Panics
    ///
    /// Panics if two members share a variable, or if no member is given.
    #[must_use]
    pub fn all_different_with_fixed(
        members: impl IntoIterator<Item = (usize, i64, i64)>,
        fixed: Vec<i64>,
    ) -> Self {
        let mut members: Vec<AdMember> = members
            .into_iter()
            .map(|(var, coeff, offset)| AdMember { var, coeff, offset })
            .collect();
        assert!(!members.is_empty(), "all-different: no members");
        members.sort_unstable_by_key(|m| m.var);
        assert!(
            members.windows(2).all(|w| w[0].var != w[1].var),
            "all-different: duplicate variable"
        );
        Self {
            kind: Kind::AllDiff(AllDiff {
                members,
                fixed,
                lo: 0,
                occ_len: 0,
                member_of: Vec::new(),
            }),
        }
    }

    /// The linear equation `Σ coeff * value(var) = target` over the member
    /// list (violation: absolute deviation).  Zero-coefficient members are
    /// dropped — their value can never move the sum, so they are not part
    /// of the constraint.
    ///
    /// # Panics
    ///
    /// Panics if two members share a variable, or if no member with a
    /// non-zero coefficient is given.
    #[must_use]
    pub fn linear_eq(members: impl IntoIterator<Item = (usize, i64)>, target: i64) -> Self {
        let mut members: Vec<(usize, i64)> = members.into_iter().filter(|&(_, c)| c != 0).collect();
        assert!(!members.is_empty(), "linear-eq: no members");
        members.sort_unstable_by_key(|&(v, _)| v);
        assert!(
            members.windows(2).all(|w| w[0].0 != w[1].0),
            "linear-eq: duplicate variable"
        );
        Self {
            kind: Kind::Linear(Linear {
                members,
                target,
                coeff_of: Vec::new(),
            }),
        }
    }

    /// The absolute differences `|value(a) − value(b)|` of the listed pairs
    /// must be pairwise distinct (violation: surplus occurrences) — the
    /// all-interval / Golomb-ruler constraint shape.
    #[must_use]
    pub fn pairwise_distinct(pairs: impl IntoIterator<Item = (usize, usize)>) -> Self {
        Self::pairwise(pairs, DistanceMode::AllDistinct)
    }

    /// Every listed pair must satisfy `|value(a) − value(b)| >= separation`
    /// (violation: total shortfall).  With separation 1 this is a not-equal
    /// constraint per pair — the graph-coloring edge constraint.
    ///
    /// # Panics
    ///
    /// Panics if `separation < 1` (a zero separation never constrains).
    #[must_use]
    pub fn min_separation(
        pairs: impl IntoIterator<Item = (usize, usize)>,
        separation: i64,
    ) -> Self {
        assert!(separation >= 1, "min-separation: separation must be >= 1");
        Self::pairwise(pairs, DistanceMode::MinSeparation(separation))
    }

    fn pairwise(pairs: impl IntoIterator<Item = (usize, usize)>, mode: DistanceMode) -> Self {
        let pairs: Vec<(usize, usize)> = pairs.into_iter().collect();
        assert!(!pairs.is_empty(), "pairwise-distance: no pairs");
        assert!(
            pairs.iter().all(|&(a, b)| a != b),
            "pairwise-distance: a pair must join two distinct slots"
        );
        let vars = {
            let mut v: Vec<usize> = pairs.iter().flat_map(|&(a, b)| [a, b]).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        Self {
            kind: Kind::Pairwise(Pairwise {
                pairs,
                mode,
                vars,
                inc_off: Vec::new(),
                inc_dat: Vec::new(),
                occ_len: 0,
                table: None,
                scratch_pairs: RefCell::new(Vec::new()),
                scratch_deltas: RefCell::new(Vec::new()),
                scratch_nbr: RefCell::new(Vec::new()),
                scratch_occ: RefCell::new(Vec::new()),
                scratch_mark: RefCell::new(SepMark::default()),
            }),
        }
    }

    /// For each entry `(value, target)`, the number of `counted` slots whose
    /// decoded value equals `value` must equal the decoded value of slot
    /// `target` (violation: total absolute mismatch) — the magic-sequence
    /// channeling constraint.
    ///
    /// # Panics
    ///
    /// Panics on duplicate counted slots, duplicate entry values, or empty
    /// inputs.
    #[must_use]
    pub fn count_matches(
        counted: impl IntoIterator<Item = usize>,
        entries: impl IntoIterator<Item = (i64, usize)>,
    ) -> Self {
        let counted = sorted_unique(counted.into_iter().collect(), "table-count");
        let entries: Vec<(i64, usize)> = entries.into_iter().collect();
        assert!(!counted.is_empty(), "table-count: no counted slots");
        assert!(!entries.is_empty(), "table-count: no entries");
        let vars = {
            let mut v = counted.clone();
            v.extend(entries.iter().map(|&(_, t)| t));
            v.sort_unstable();
            v.dedup();
            v
        };
        let max_var = *vars.last().expect("vars are non-empty");
        let mut targets_of: Vec<Vec<u32>> = vec![Vec::new(); max_var + 1];
        for (e, &(_, target)) in entries.iter().enumerate() {
            targets_of[target].push(e as u32);
        }
        let mut is_counted = vec![false; max_var + 1];
        for &s in &counted {
            is_counted[s] = true;
        }
        Self {
            kind: Kind::Count(Count {
                counted,
                entries,
                vars,
                lo: 0,
                occ_len: 0,
                entry_of: Vec::new(),
                targets_of,
                is_counted,
                scratch_entries: RefCell::new(Vec::new()),
            }),
        }
    }

    /// Short, stable name of the term family (used in panic messages and
    /// debug output).
    #[must_use]
    pub fn family(&self) -> &'static str {
        match &self.kind {
            Kind::AllDiff(_) => "all-different",
            Kind::Linear(_) => "linear-eq",
            Kind::Pairwise(p) => match p.mode {
                DistanceMode::AllDistinct => "pairwise-distinct",
                DistanceMode::MinSeparation(_) => "min-separation",
            },
            Kind::Count(_) => "table-count",
        }
    }

    /// The largest slot index this term constrains (for model validation).
    pub(crate) fn max_var(&self) -> usize {
        match &self.kind {
            Kind::AllDiff(t) => t.members.iter().map(|m| m.var).max().unwrap_or(0),
            Kind::Linear(t) => t.members.iter().map(|&(v, _)| v).max().unwrap_or(0),
            Kind::Pairwise(t) => *t.vars.last().expect("non-empty"),
            Kind::Count(t) => *t.vars.last().expect("non-empty"),
        }
    }

    /// All slots this term constrains, in ascending order.
    pub(crate) fn for_each_var(&self, mut f: impl FnMut(usize)) {
        match &self.kind {
            Kind::AllDiff(t) => t.members.iter().for_each(|m| f(m.var)),
            Kind::Linear(t) => t.members.iter().for_each(|&(v, _)| f(v)),
            Kind::Pairwise(t) => t.vars.iter().for_each(|&v| f(v)),
            Kind::Count(t) => t.vars.iter().for_each(|&v| f(v)),
        }
    }

    /// Precompute the dense lookup tables for the model's value table and
    /// return the occurrence-slab length this term needs (0 for stateless
    /// families).  Must be called before any other hook.
    pub(crate) fn bind(&mut self, vals: &[i64]) -> usize {
        match &mut self.kind {
            Kind::AllDiff(t) => t.bind(vals),
            Kind::Linear(t) => t.bind(vals),
            Kind::Pairwise(t) => t.bind(vals),
            Kind::Count(t) => t.bind(vals),
        }
    }

    /// Recount the term's occurrence state for a fresh configuration and
    /// return its violation.
    pub(crate) fn rebuild(&self, dv: Dv, st: TermStateMut) -> i64 {
        match &self.kind {
            Kind::AllDiff(t) => t.rebuild(dv, st),
            Kind::Linear(t) => t.rebuild(dv, st),
            Kind::Pairwise(t) => t.rebuild(dv, st),
            Kind::Count(t) => t.rebuild(dv, st),
        }
    }

    pub(crate) fn violation_scratch(&self, dv: Dv) -> i64 {
        match &self.kind {
            Kind::AllDiff(t) => t.violation_scratch(dv),
            Kind::Linear(t) => t.violation_scratch(dv),
            Kind::Pairwise(t) => t.violation_scratch(dv),
            Kind::Count(t) => t.violation_scratch(dv),
        }
    }

    pub(crate) fn var_error(&self, dv: Dv, st: TermState, k: usize) -> i64 {
        match &self.kind {
            Kind::AllDiff(t) => t.var_error(dv, st, k),
            Kind::Linear(t) => {
                if t.coeff(k) != 0 {
                    t.viol(st)
                } else {
                    0
                }
            }
            Kind::Pairwise(t) => t.var_error(dv, st, k),
            Kind::Count(t) => t.var_error(dv, st, k),
        }
    }

    pub(crate) fn delta_swap(&self, dv: Dv, st: TermState, i: usize, j: usize) -> i64 {
        match &self.kind {
            Kind::AllDiff(t) => t.delta_swap(dv, st, i, j),
            Kind::Linear(t) => t.delta_swap(dv, st, i, j),
            Kind::Pairwise(t) => t.delta_swap(dv, st, i, j),
            Kind::Count(t) => t.delta_swap(dv, st, i, j),
        }
    }

    /// Batched [`Term::delta_swap`]: add `weight * delta_swap(dv, st, i, j)`
    /// to `acc[k]` for every `js[k]` in one pass over the term state.  Every
    /// kernel produces bit-identical deltas to the scalar hook; partners
    /// with `value(j) == value(i)` may be left untouched (their exact delta
    /// is 0 and the evaluator overrides those probes anyway).
    pub(crate) fn delta_swaps_batch(
        &self,
        dv: Dv,
        st: TermState,
        i: usize,
        js: &[usize],
        weight: i64,
        acc: &mut [i64],
    ) {
        match &self.kind {
            Kind::AllDiff(t) => t.delta_swaps_batch(dv, st, i, js, weight, acc),
            Kind::Linear(t) => t.delta_swaps_batch(dv, st, i, js, weight, acc),
            Kind::Pairwise(t) => t.delta_swaps_batch(dv, st, i, js, weight, acc),
            Kind::Count(t) => t.delta_swaps_batch(dv, st, i, js, weight, acc),
        }
    }

    pub(crate) fn apply_swap(&self, dv_after: Dv, st: TermStateMut, i: usize, j: usize) -> i64 {
        match &self.kind {
            Kind::AllDiff(t) => t.apply_swap(dv_after, st, i, j),
            Kind::Linear(t) => t.apply_swap(dv_after, st, i, j),
            Kind::Pairwise(t) => t.apply_swap(dv_after, st, i, j),
            Kind::Count(t) => t.apply_swap(dv_after, st, i, j),
        }
    }

    pub(crate) fn touched_vars(
        &self,
        dv_after: Dv,
        st: TermState,
        i: usize,
        j: usize,
        out: &mut Vec<usize>,
    ) {
        match &self.kind {
            Kind::AllDiff(t) => t.touched_vars(dv_after, i, j, out),
            Kind::Linear(t) => t.touched_vars(out),
            Kind::Pairwise(t) => t.touched_vars(dv_after, st, i, j, out),
            Kind::Count(t) => t.touched_vars(out),
        }
    }

    pub(crate) fn accumulate_errors(&self, dv: Dv, st: TermState, weight: i64, out: &mut [i64]) {
        match &self.kind {
            Kind::AllDiff(t) => t.accumulate_errors(dv, st, weight, out),
            Kind::Linear(t) => t.accumulate_errors(st, weight, out),
            Kind::Pairwise(t) => t.accumulate_errors(dv, st, weight, out),
            Kind::Count(t) => t.accumulate_errors(dv, st, weight, out),
        }
    }
}

/// The plain all-different of the layer's own tests: the decoded values of
/// `vars` pairwise distinct (violation: number of conflicting pairs).
#[cfg(test)]
impl Term {
    pub(crate) fn all_different(vars: impl IntoIterator<Item = usize>) -> Self {
        Self::all_different_with_fixed(vars.into_iter().map(|v| (v, 1, 0)), Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test stand-in for the evaluator-owned state slabs: one term's
    /// occurrence slice plus its scalar slot.
    struct Ctx {
        occ: Vec<u32>,
        aux: i64,
    }

    impl Ctx {
        fn bind(term: &mut Term, vals: &[i64]) -> Self {
            let occ_len = term.bind(vals);
            Self {
                occ: vec![0; occ_len],
                aux: 0,
            }
        }

        fn st(&self) -> TermState<'_> {
            TermState {
                occ: &self.occ,
                aux: self.aux,
            }
        }

        fn st_mut(&mut self) -> TermStateMut<'_> {
            TermStateMut {
                occ: &mut self.occ,
                aux: &mut self.aux,
            }
        }
    }

    fn decode(vals: &[i64], perm: &[usize]) -> Vec<i64> {
        perm.iter().map(|&p| vals[p]).collect()
    }

    #[test]
    fn dv_swapped_view_is_an_involution() {
        let vals = [10i64, 20, 30, 40];
        let perm = [2usize, 0, 3, 1];
        let dvals = decode(&vals, &perm);
        let d = Dv { dvals: &dvals };
        assert_eq!(d.get(0), 30);
        assert_eq!(d.get_swapped(0, 0, 2), 40);
        assert_eq!(d.get_swapped(2, 0, 2), 30);
        assert_eq!(d.get_swapped(1, 0, 2), 10);
    }

    #[test]
    fn all_different_counts_conflicting_pairs() {
        let vals: Vec<i64> = vec![0, 0, 0, 1];
        let mut t = Term::all_different(0..4);
        let mut ctx = Ctx::bind(&mut t, &vals);
        let dv = Dv { dvals: &vals };
        // three zeros -> C(3,2) = 3 conflicting pairs
        assert_eq!(t.rebuild(dv, ctx.st_mut()), 3);
        assert_eq!(t.violation_scratch(dv), 3);
        assert_eq!(t.var_error(dv, ctx.st(), 0), 2);
        assert_eq!(t.var_error(dv, ctx.st(), 3), 0);
    }

    #[test]
    fn all_different_fixed_buckets_conflict_with_members() {
        let vals: Vec<i64> = vec![5, 6];
        let mut t = Term::all_different_with_fixed([(0, 1, 0), (1, 1, 0)], vec![5, 7]);
        let mut ctx = Ctx::bind(&mut t, &vals);
        let dv = Dv { dvals: &vals };
        // value 5 appears as member 0 and as a fixed bucket -> one pair
        assert_eq!(t.rebuild(dv, ctx.st_mut()), 1);
        assert_eq!(t.var_error(dv, ctx.st(), 0), 1);
        assert_eq!(t.var_error(dv, ctx.st(), 1), 0);
    }

    #[test]
    fn linear_eq_tracks_absolute_deviation() {
        let vals: Vec<i64> = vec![1, 2, 3];
        let mut t = Term::linear_eq([(0, 1), (1, 2), (2, -1)], 1);
        let mut ctx = Ctx::bind(&mut t, &vals);
        let dv = Dv { dvals: &vals };
        // 1*1 + 2*2 - 3 = 2, target 1 -> violation 1
        assert_eq!(t.rebuild(dv, ctx.st_mut()), 1);
        assert_eq!(t.var_error(dv, ctx.st(), 0), 1);
        assert_eq!(t.var_error(dv, ctx.st(), 2), 1);
    }

    #[test]
    fn pairwise_distinct_counts_surplus() {
        // series 0,1,2,3: all adjacent differences are 1 -> surplus 2
        let vals: Vec<i64> = (0..4).collect();
        let mut t = Term::pairwise_distinct((0..3).map(|i| (i, i + 1)));
        let mut ctx = Ctx::bind(&mut t, &vals);
        let dv = Dv { dvals: &vals };
        assert_eq!(t.rebuild(dv, ctx.st_mut()), 2);
        // each position touches only duplicated differences
        assert_eq!(t.var_error(dv, ctx.st(), 0), 1);
        assert_eq!(t.var_error(dv, ctx.st(), 1), 2);
    }

    #[test]
    fn min_separation_scores_shortfalls() {
        let vals: Vec<i64> = vec![0, 0, 1, 5];
        let mut t = Term::min_separation([(0, 1), (1, 2), (2, 3)], 2);
        let mut ctx = Ctx::bind(&mut t, &vals);
        let dv = Dv { dvals: &vals };
        // |0-0| = 0 -> 2, |0-1| = 1 -> 1, |1-5| = 4 -> 0
        assert_eq!(t.rebuild(dv, ctx.st_mut()), 3);
        assert_eq!(t.var_error(dv, ctx.st(), 1), 3);
        assert_eq!(t.var_error(dv, ctx.st(), 3), 0);
    }

    #[test]
    fn count_matches_channels_counts_to_targets() {
        // values: slot s holds vals[perm[s]]; counted = all slots.
        // entries: value 0 must occur value(slot 0) times, value 1 must occur
        // value(slot 1) times.
        let vals: Vec<i64> = vec![2, 1, 0, 0];
        let mut t = Term::count_matches(0..4, [(0, 0), (1, 1)]);
        let mut ctx = Ctx::bind(&mut t, &vals);
        let dv = Dv { dvals: &vals };
        // occ(0) = 2, target value(0) = 2 -> ok; occ(1) = 1, target value(1) = 1 -> ok
        assert_eq!(t.rebuild(dv, ctx.st_mut()), 0);
        // swap slots 0 and 2: values become 0,1,2,0 -> occ(0)=2 vs target 0 -> 2;
        // occ(1)=1 vs target 1 -> 0
        let swapped = decode(&vals, &[2, 1, 0, 3]);
        assert_eq!(t.violation_scratch(Dv { dvals: &swapped }), 2);
    }

    /// The batch kernels must reproduce the scalar probe bit for bit, for
    /// every term family, every anchor `i` and every partner `j` — including
    /// equal-value partners (exact 0) and partners outside the term.
    #[test]
    fn batch_kernels_match_scalar_deltas() {
        let vals: Vec<i64> = vec![3, 1, 4, 1, 5, 0, 2, 1];
        let n = vals.len();
        let terms: Vec<Term> = vec![
            Term::all_different(0..6),
            Term::all_different_offset((0..n).map(|v| (v, 1, v as i64))),
            Term::linear_eq([(0, 2), (2, -1), (5, 3)], 4),
            Term::pairwise_distinct((0..5).map(|i| (i, i + 1))),
            Term::min_separation([(0, 3), (1, 4), (2, 5), (5, 6)], 2),
            Term::count_matches(0..4, [(1, 6), (4, 7)]),
        ];
        let perms: [Vec<usize>; 2] = [(0..n).collect(), vec![5, 2, 7, 0, 3, 6, 1, 4]];
        for mut t in terms {
            let mut ctx = Ctx::bind(&mut t, &vals);
            for perm in &perms {
                let dvals = decode(&vals, perm);
                let dv = Dv { dvals: &dvals };
                t.rebuild(dv, ctx.st_mut());
                let js: Vec<usize> = (0..n).collect();
                let mut acc = vec![0i64; n];
                for i in 0..n {
                    acc.iter_mut().for_each(|a| *a = 0);
                    t.delta_swaps_batch(dv, ctx.st(), i, &js, 3, &mut acc);
                    for (k, &j) in js.iter().enumerate() {
                        let scalar = 3 * t.delta_swap(dv, ctx.st(), i, j);
                        if dv.get(j) == dv.get(i) {
                            assert_eq!(scalar, 0, "{}: equal-value swap", t.family());
                            assert_eq!(acc[k], 0, "{}: equal-value batch slot", t.family());
                        } else {
                            assert_eq!(acc[k], scalar, "{}: i={i} j={j}", t.family());
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "duplicate variable")]
    fn all_different_rejects_duplicate_members() {
        let _ = Term::all_different([0, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "two distinct slots")]
    fn pairwise_rejects_self_pairs() {
        let _ = Term::pairwise_distinct([(1, 1)]);
    }

    #[test]
    #[should_panic(expected = "separation must be >= 1")]
    fn min_separation_rejects_zero() {
        let _ = Term::min_separation([(0, 1)], 0);
    }

    #[test]
    fn families_are_stable() {
        assert_eq!(Term::all_different([0, 1]).family(), "all-different");
        assert_eq!(Term::linear_eq([(0, 1)], 0).family(), "linear-eq");
        assert_eq!(
            Term::pairwise_distinct([(0, 1)]).family(),
            "pairwise-distinct"
        );
        assert_eq!(Term::min_separation([(0, 1)], 1).family(), "min-separation");
        assert_eq!(Term::count_matches([0], [(0, 0)]).family(), "table-count");
    }
}
