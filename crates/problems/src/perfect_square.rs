//! Perfect Square placement (CSPLib prob009).
//!
//! Pack a given multiset of squares into a master rectangle with no overlap
//! and no spill.  The CSPLib instance the paper benchmarks is the order-21
//! *perfect squared square*: 21 squares of distinct sizes tiling a 112×112
//! master square exactly.
//!
//! ## Encoding (documented substitution)
//!
//! The original C model uses interval variables per square; this crate uses a
//! *placement-order permutation* with a deterministic bottom-left-fill
//! decoder instead (a classical local-search encoding for packing problems):
//! the candidate `perm` is the order in which squares are handed to the
//! decoder, which places each square at the lowest, then left-most, position
//! where it fits inside the master width.  The cost is the total overflow
//! area above the master height.  For a perfect packing instance the order
//! that lists the squares by the (bottom-left) position they occupy in the
//! true packing decodes exactly to that packing, so the optimum cost 0 is
//! attainable and equivalent to solving CSPLib prob009.
//!
//! ## The placement scan
//!
//! Bottom-left fill places a square of side `s` at the smallest `x` among
//! those minimising `y(x) = max(skyline[x .. x + s])`.  Every probe
//! re-decodes a suffix of the order through this rule, so it is the hot
//! path.  Two exact facts let the decoder skip most positions and still
//! return the column scan's `(x, y)`:
//!
//! * *Only left walls can win.*  If `x > 0` and `skyline[x − 1] ≤
//!   skyline[x]`, window `x − 1` is window `x` with its last column traded
//!   for `skyline[x − 1]`, which is no higher than `skyline[x]` (a column
//!   both windows share when `s > 1`, the whole window when `s = 1`).  So
//!   `y(x − 1) ≤ y(x)`, and `x` is never the left-most minimum.  The
//!   candidates are `x = 0` and the columns where the skyline steps down.
//! * *A column that is too tall blocks every window over it.*  A
//!   candidate's window is scanned only up to its first column `c` at least
//!   as high as the best `y` so far: no window containing `c` is strictly
//!   lower, and every start in `x ..= c` contains `c`, so the scan resumes
//!   at `c + 1`.

use std::cell::RefCell;

use cbls_core::{Evaluator, IncrementalProfile, SearchConfig};
use serde::__private::{field, DeError, Value};
use serde::{Deserialize, Serialize};

thread_local! {
    /// Scratch skyline shared by every `cost_if_swap` probe on this thread,
    /// so the engine's hottest path (n − 1 probes per iteration) performs no
    /// heap allocation.  Thread-local rather than a struct field: the
    /// evaluator stays `Serialize`/`Clone` and probes take `&self`.
    static SKYLINE_SCRATCH: RefCell<Vec<i64>> = const { RefCell::new(Vec::new()) };
}

/// A square-packing instance: the master rectangle and the square sizes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SquarePackingInstance {
    /// Master rectangle width.
    pub width: u32,
    /// Master rectangle height.
    pub height: u32,
    /// Side lengths of the squares to pack.
    pub sizes: Vec<u32>,
}

impl SquarePackingInstance {
    /// The CSPLib prob009 order-21 perfect squared square (112×112).
    #[must_use]
    pub fn csplib_order21() -> Self {
        Self {
            width: 112,
            height: 112,
            sizes: vec![
                50, 42, 37, 35, 33, 29, 27, 25, 24, 19, 18, 17, 16, 15, 11, 9, 8, 7, 6, 4, 2,
            ],
        }
    }

    /// The smallest simple perfect squared rectangle (order 9, 33×32),
    /// convenient for tests and the scaled-down figure runs.
    #[must_use]
    pub fn squared_rectangle_order9() -> Self {
        Self {
            width: 33,
            height: 32,
            sizes: vec![18, 15, 14, 10, 9, 8, 7, 4, 1],
        }
    }
}

/// One placed square, as reported by [`PerfectSquare::decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Placement {
    /// Index of the square in the instance's `sizes` list.
    pub square: usize,
    /// X coordinate of the bottom-left corner.
    pub x: u32,
    /// Y coordinate of the bottom-left corner.
    pub y: u32,
    /// Side length.
    pub size: u32,
}

/// The Perfect Square placement problem in placement-order encoding.
///
/// The bottom-left-fill decoder is replayed incrementally: `init` records the
/// skyline *before each placement step* together with prefix overflow sums,
/// so probing a swap of slots `i < j` (and committing one in
/// `executed_swap`) re-decodes only the suffix starting at `i` instead of
/// the whole order.
#[derive(Debug, Clone, Serialize)]
pub struct PerfectSquare {
    instance: SquarePackingInstance,
    /// Per-slot overflow contribution of the last `init`/`executed_swap`.
    contributions: Vec<i64>,
    /// The permutation the incremental state below was built for.
    committed: Vec<usize>,
    /// Flat `(n + 1) × width` table: row `s` is the skyline before step `s`
    /// of the committed decode.
    prefix_skyline: Vec<i64>,
    /// `prefix_cost[s]` = total overflow of the first `s` committed
    /// placements.
    prefix_cost: Vec<i64>,
}

/// Accepts only states that [`PerfectSquare::new`] and `init` build: the
/// placement scan needs every square in `1..=width`, and the probes index the
/// tables by slot.
impl Deserialize for PerfectSquare {
    fn from_json_value(v: &Value) -> Result<Self, DeError> {
        let instance: SquarePackingInstance = field(v, "instance")?;
        let contributions: Vec<i64> = field(v, "contributions")?;
        let committed: Vec<usize> = field(v, "committed")?;
        let prefix_skyline: Vec<i64> = field(v, "prefix_skyline")?;
        let prefix_cost: Vec<i64> = field(v, "prefix_cost")?;
        let n = instance.sizes.len();
        let reject = |why: &str| Err(DeError::new(format!("perfect-square: {why}")));
        if n == 0 {
            return reject("the instance has no squares");
        }
        if !instance.sizes.iter().all(|&s| s > 0 && s <= instance.width) {
            return reject("a square is empty or wider than the master");
        }
        if contributions.len() != n || prefix_cost.len() != n + 1 {
            return reject("the overflow tables do not have one entry per slot");
        }
        let fresh = committed.is_empty() && prefix_skyline.is_empty();
        let built = committed.len() == n
            && (n + 1).checked_mul(instance.width as usize) == Some(prefix_skyline.len());
        if !(fresh || built) {
            return reject("the committed order and its prefix skylines do not match");
        }
        Ok(Self {
            instance,
            contributions,
            committed,
            prefix_skyline,
            prefix_cost,
        })
    }
}

impl PerfectSquare {
    /// Create a problem from an instance description.
    ///
    /// # Panics
    ///
    /// Panics if the instance has no squares or a square wider than the
    /// master rectangle.
    #[must_use]
    pub fn new(instance: SquarePackingInstance) -> Self {
        assert!(!instance.sizes.is_empty(), "instance must contain squares");
        assert!(
            instance.sizes.iter().all(|&s| s > 0 && s <= instance.width),
            "every square must be positive and no wider than the master"
        );
        let n = instance.sizes.len();
        Self {
            instance,
            contributions: vec![0; n],
            committed: Vec::new(),
            prefix_skyline: Vec::new(),
            prefix_cost: vec![0; n + 1],
        }
    }

    /// The CSPLib order-21 instance.
    #[must_use]
    pub fn csplib_order21() -> Self {
        Self::new(SquarePackingInstance::csplib_order21())
    }

    /// The order-9 squared rectangle (33×32).
    #[must_use]
    pub fn order9() -> Self {
        Self::new(SquarePackingInstance::squared_rectangle_order9())
    }

    /// The instance being solved.
    #[must_use]
    pub fn instance(&self) -> &SquarePackingInstance {
        &self.instance
    }

    /// Place one square of side `size` with the bottom-left-fill rule (the
    /// lowest, then left-most, position within the master width), mutate the
    /// skyline, and return `(x, y, overflow_area)` where the overflow is the
    /// area of the square above `target_height`.
    ///
    /// Only left walls are tried, and a window's scan stops at its first
    /// column at least as high as the best `y` so far, resuming past it (the
    /// module doc gives why both are exact).  Requires `1 ≤ size ≤ width`.
    fn place(skyline: &mut [i64], size: usize, target_height: i64) -> (usize, i64, i64) {
        let last = skyline.len() - size;
        let mut best_x = 0usize;
        let mut best_y = i64::MAX;
        let mut x = 0usize;
        while x <= last {
            // The window's height, or the offset of its first column that is
            // at least as high as the best so far.
            let window = &skyline[x..x + size];
            let scan = window.iter().enumerate().try_fold(i64::MIN, |y, (c, &h)| {
                if h < best_y {
                    Ok(y.max(h))
                } else {
                    Err(c)
                }
            });
            match scan {
                Ok(y) => {
                    best_x = x;
                    best_y = y;
                    x += 1;
                }
                // Every start in `x ..= x + c` contains the blocking column.
                Err(c) => x += c + 1,
            }
            // Skip to the next left wall.
            while x <= last && skyline[x - 1] <= skyline[x] {
                x += 1;
            }
        }
        let top = best_y + size as i64;
        for column in &mut skyline[best_x..best_x + size] {
            *column = top;
        }
        let spill_height = (top - target_height).clamp(0, size as i64);
        (best_x, best_y, spill_height * size as i64)
    }

    /// The square scheduled at `slot` once `i` and `j` are exchanged.
    #[inline]
    fn square_after_swap(perm: &[usize], i: usize, j: usize, slot: usize) -> usize {
        if slot == i {
            perm[j]
        } else if slot == j {
            perm[i]
        } else {
            perm[slot]
        }
    }

    /// Decode a placement order into concrete placements with the
    /// bottom-left-fill rule, also returning the per-square overflow above
    /// the master height.
    #[must_use]
    pub fn decode(&self, perm: &[usize]) -> (Vec<Placement>, Vec<i64>) {
        let width = self.instance.width as usize;
        let target_height = i64::from(self.instance.height);
        // Skyline: height of each unit column.
        let mut skyline = vec![0i64; width];
        let mut placements = Vec::with_capacity(perm.len());
        let mut overflow = vec![0i64; self.instance.sizes.len()];

        for &square in perm {
            let size = self.instance.sizes[square] as usize;
            let (x, y, spill) = Self::place(&mut skyline, size, target_height);
            overflow[square] = spill;
            placements.push(Placement {
                square,
                x: x as u32,
                y: u32::try_from(y.max(0)).unwrap_or(u32::MAX),
                size: size as u32,
            });
        }
        (placements, overflow)
    }

    /// Rebuild the committed incremental state (prefix skylines, prefix
    /// overflow sums, per-slot contributions) from step `start`, assuming
    /// rows `0..=start` of `prefix_skyline` and `prefix_cost[..=start]` are
    /// already valid for `perm`.
    fn recommit_from(&mut self, perm: &[usize], start: usize) {
        let width = self.instance.width as usize;
        let target_height = i64::from(self.instance.height);
        let n = self.instance.sizes.len();
        self.prefix_skyline.resize((n + 1) * width, 0);
        self.committed.clear();
        self.committed.extend_from_slice(perm);
        for s in start..n {
            let (head, tail) = self.prefix_skyline.split_at_mut((s + 1) * width);
            let row = &head[s * width..];
            let next = &mut tail[..width];
            next.copy_from_slice(row);
            let size = self.instance.sizes[perm[s]] as usize;
            let (_, _, spill) = Self::place(next, size, target_height);
            self.contributions[s] = spill;
            self.prefix_cost[s + 1] = self.prefix_cost[s] + spill;
        }
    }

    fn total_overflow(overflow: &[i64]) -> i64 {
        overflow.iter().sum()
    }
}

impl Evaluator for PerfectSquare {
    fn size(&self) -> usize {
        self.instance.sizes.len()
    }

    fn name(&self) -> &str {
        "perfect-square"
    }

    fn init(&mut self, perm: &[usize]) -> i64 {
        // Full decode, recording the skyline before every step so that swap
        // probes and commits can resume mid-order.  The overflow is
        // attributed to the slot that scheduled each square, so the engine's
        // per-variable errors point at the positions to repair.
        self.recommit_from(perm, 0);
        self.prefix_cost[self.instance.sizes.len()]
    }

    fn cost(&self, perm: &[usize]) -> i64 {
        // From-scratch replay with a single scratch skyline (no evaluator
        // clone, no placement/overflow vectors).
        let target_height = i64::from(self.instance.height);
        let mut skyline = vec![0i64; self.instance.width as usize];
        perm.iter()
            .map(|&square| {
                let size = self.instance.sizes[square] as usize;
                Self::place(&mut skyline, size, target_height).2
            })
            .sum()
    }

    fn cost_on_variable(&self, _perm: &[usize], i: usize) -> i64 {
        // The error of position i is the overflow contributed by the square
        // placed from that slot in the last committed decode.
        self.contributions.get(i).copied().unwrap_or(0)
    }

    fn cost_if_swap(&self, perm: &[usize], current_cost: i64, i: usize, j: usize) -> i64 {
        if i == j {
            return current_cost;
        }
        let width = self.instance.width as usize;
        let target_height = i64::from(self.instance.height);
        let n = self.instance.sizes.len();
        let s0 = i.min(j);
        SKYLINE_SCRATCH.with(|scratch| {
            let mut skyline = scratch.borrow_mut();
            skyline.clear();
            skyline.resize(width, 0);
            // Placements before the first swapped slot are unchanged, so when
            // probing from the committed permutation (the engine always does)
            // the decode resumes from the recorded prefix.
            let (mut total, start) = if perm == self.committed.as_slice() {
                skyline.copy_from_slice(&self.prefix_skyline[s0 * width..(s0 + 1) * width]);
                (self.prefix_cost[s0], s0)
            } else {
                (0, 0)
            };
            for s in start..n {
                let size = self.instance.sizes[Self::square_after_swap(perm, i, j, s)] as usize;
                total += Self::place(&mut skyline, size, target_height).2;
            }
            total
        })
    }

    fn executed_swap(&mut self, perm: &[usize], i: usize, j: usize) {
        if i == j {
            return;
        }
        let s0 = i.min(j);
        // The committed prefix up to the first swapped slot is still valid;
        // re-decode only the suffix.  (If the permutation diverged earlier —
        // it never does under the engine contract — fall back to a full
        // rebuild.)
        if self.committed.len() == perm.len() && self.committed[..s0] == perm[..s0] {
            self.recommit_from(perm, s0);
        } else {
            self.recommit_from(perm, 0);
        }
    }

    fn touched_by_swap(&self, _perm: &[usize], i: usize, j: usize, out: &mut Vec<usize>) -> bool {
        // Slots before the first swapped position keep their placements and
        // therefore their errors; everything from there on may move.
        let s0 = i.min(j);
        out.extend(s0..self.instance.sizes.len());
        true
    }

    fn project_errors_full(&self, _perm: &[usize], out: &mut [i64]) {
        out.copy_from_slice(&self.contributions);
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
        // Calibrated with the `tune_scratch` sweep on the order-9 rectangle.
        let n = self.instance.sizes.len() as u64;
        config.freeze_duration = 1;
        config.plateau_probability = 0.3;
        config.reset_fraction = 0.1;
        config.reset_limit = Some((n as usize / 10).max(2));
        config.prob_select_local_min = 0.0;
        config.max_iterations_per_restart = (n * n * 25).max(5_000);
        config.max_restarts = 1_000;
    }

    fn verify(&self, perm: &[usize]) -> bool {
        let n = self.instance.sizes.len();
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
        let (placements, overflow) = self.decode(perm);
        if Self::total_overflow(&overflow) != 0 {
            return false;
        }
        // Independent geometric check: no overlap, all inside the master.
        for (a_idx, a) in placements.iter().enumerate() {
            if a.x + a.size > self.instance.width || a.y + a.size > self.instance.height {
                return false;
            }
            for b in placements.iter().skip(a_idx + 1) {
                let disjoint_x = a.x + a.size <= b.x || b.x + b.size <= a.x;
                let disjoint_y = a.y + a.size <= b.y || b.y + b.size <= a.y;
                if !(disjoint_x || disjoint_y) {
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
    use as_rng::{default_rng, RandomSource};
    use cbls_core::AdaptiveSearch;
    use cbls_testkit::{
        assert_no_default_hot_paths, check_error_projection, check_incremental_consistency,
        check_projection_cache,
    };

    /// A trivially packable instance: `k×k` squares of side `s` in a
    /// `(k·s)×(k·s)` master square.
    fn uniform_grid(k: u32, s: u32) -> SquarePackingInstance {
        SquarePackingInstance {
            width: k * s,
            height: k * s,
            sizes: vec![s; (k * k) as usize],
        }
    }

    /// Whether the instance could be a perfect packing: the areas match and
    /// every square fits the master dimensions.
    fn is_area_consistent(inst: &SquarePackingInstance) -> bool {
        let squares: u64 = inst
            .sizes
            .iter()
            .map(|&s| u64::from(s) * u64::from(s))
            .sum();
        squares == u64::from(inst.width) * u64::from(inst.height)
            && inst
                .sizes
                .iter()
                .all(|&s| s <= inst.width && s <= inst.height)
    }

    #[test]
    fn projection_cache_stays_fresh_across_swaps() {
        check_projection_cache(PerfectSquare::order9(), 950, 60);
        check_projection_cache(PerfectSquare::csplib_order21(), 951, 30);
        check_projection_cache(PerfectSquare::new(uniform_grid(3, 4)), 952, 40);
        assert_no_default_hot_paths(&PerfectSquare::order9());
    }

    #[test]
    fn csplib_instance_is_area_consistent() {
        let inst = SquarePackingInstance::csplib_order21();
        assert_eq!(inst.sizes.len(), 21);
        assert!(
            is_area_consistent(&inst),
            "areas must match for a perfect square"
        );
    }

    #[test]
    fn order9_instance_is_area_consistent() {
        let inst = SquarePackingInstance::squared_rectangle_order9();
        assert_eq!(inst.sizes.len(), 9);
        assert!(is_area_consistent(&inst));
    }

    #[test]
    fn uniform_grid_decodes_to_zero_cost_for_any_order() {
        let mut p = PerfectSquare::new(uniform_grid(3, 4));
        // equal squares: every order packs perfectly
        let mut rng = default_rng(1);
        for _ in 0..10 {
            let perm = as_rng::RandomSource::permutation(&mut rng, 9);
            assert_eq!(p.init(&perm), 0);
            assert!(p.verify(&perm));
        }
    }

    #[test]
    fn overflow_is_positive_when_master_is_too_small() {
        // Two unit squares cannot fit in a 1x1 master.
        let inst = SquarePackingInstance {
            width: 1,
            height: 1,
            sizes: vec![1, 1],
        };
        let mut p = PerfectSquare::new(inst);
        assert!(p.init(&[0, 1]) > 0);
        assert!(!p.verify(&[0, 1]));
    }

    #[test]
    fn decoder_places_within_width() {
        let p = PerfectSquare::order9();
        let perm: Vec<usize> = (0..9).collect();
        let (placements, _) = p.decode(&perm);
        for pl in placements {
            assert!(pl.x + pl.size <= 33);
        }
    }

    #[test]
    fn incremental_consistency() {
        // `cost_if_swap` resumes the decode from the recorded prefix when
        // probing the committed permutation; the harness validates it against
        // a full recompute, together with init/cost/executed_swap agreement.
        check_incremental_consistency(PerfectSquare::order9(), 900, 10);
        check_incremental_consistency(PerfectSquare::new(uniform_grid(2, 3)), 901, 10);
    }

    #[test]
    fn error_projection_consistency() {
        check_error_projection(PerfectSquare::order9(), 902, 10);
    }

    #[test]
    fn cost_if_swap_from_uncommitted_permutation_matches_recompute() {
        // The prefix fast path only applies when probing the committed
        // permutation; probing any other order must fall back to a full
        // replay and still agree with a from-scratch recompute.
        let mut p = PerfectSquare::order9();
        let mut rng = default_rng(953);
        let committed = as_rng::RandomSource::permutation(&mut rng, 9);
        let other = as_rng::RandomSource::permutation(&mut rng, 9);
        let _ = p.init(&committed);
        let other_cost = p.cost(&other);
        for i in 0..9 {
            for j in 0..9 {
                if i == j {
                    continue;
                }
                let mut probe = other.clone();
                probe.swap(i, j);
                assert_eq!(p.cost_if_swap(&other, other_cost, i, j), p.cost(&probe));
            }
        }
    }

    #[test]
    fn adaptive_search_packs_the_order9_rectangle() {
        let mut p = PerfectSquare::order9();
        let engine = AdaptiveSearch::tuned_for(&p);
        let out = engine.solve(&mut p, &mut default_rng(903));
        assert!(
            out.solved(),
            "order-9 squared rectangle not packed: {out:?}"
        );
        assert!(p.verify(&out.solution));
    }

    #[test]
    fn a_known_good_order_packs_order9_perfectly() {
        // The order the engine finds at seed 903 (pinned in the engine's
        // golden trajectories) decodes to a perfect packing of the 33×32
        // rectangle; the placements are the decoder's as of the column scan.
        let mut p = PerfectSquare::order9();
        let order = [0usize, 1, 6, 2, 5, 7, 3, 8, 4];
        assert_eq!(p.cost(&order), 0);
        assert_eq!(p.init(&order), 0);
        assert!(p.verify(&order));
        let placed = |square, x, y, size| Placement { square, x, y, size };
        let (placements, overflow) = p.decode(&order);
        assert_eq!(
            placements,
            vec![
                placed(0, 0, 0, 18),
                placed(1, 18, 0, 15),
                placed(6, 18, 15, 7),
                placed(2, 0, 18, 14),
                placed(5, 25, 15, 8),
                placed(7, 14, 18, 4),
                placed(3, 14, 22, 10),
                placed(8, 24, 22, 1),
                placed(4, 24, 23, 9),
            ]
        );
        assert_eq!(overflow, vec![0; 9]);
    }

    /// The bottom-left-fill rule column by column: the window maximum at
    /// every start, keeping the first strictly lowest.
    fn place_by_columns(skyline: &mut [i64], size: usize, target_height: i64) -> (usize, i64, i64) {
        let width = skyline.len();
        let mut best_x = 0usize;
        let mut best_y = i64::MAX;
        for x in 0..=width - size {
            let y = skyline[x..x + size].iter().copied().max().unwrap_or(0);
            if y < best_y {
                best_y = y;
                best_x = x;
            }
        }
        let top = best_y + size as i64;
        for column in &mut skyline[best_x..best_x + size] {
            *column = top;
        }
        let spill_height = (top - target_height).clamp(0, size as i64);
        (best_x, best_y, spill_height * size as i64)
    }

    #[test]
    fn left_wall_scan_matches_the_column_scan() {
        let mut rng = default_rng(960);
        for width in [1usize, 2, 7, 33, 112] {
            let target = width as i64;
            let mut skylines: Vec<Vec<i64>> = vec![
                vec![0; width],
                vec![target; width],
                (0..width as i64).collect(),
                (0..width as i64).rev().collect(),
                (0..width as i64).map(|c| c / 3).collect(),
                (0..width as i64).rev().map(|c| c / 3).collect(),
                (0..width as i64).map(|c| (c / 2) % 2 * 5).collect(),
            ];
            for _ in 0..8 {
                // Wide-range heights, some above the target, and few distinct
                // heights for equal-height ties.
                skylines.push(
                    (0..width)
                        .map(|_| rng.range_i64(0, 2 * target + 2))
                        .collect(),
                );
                skylines.push((0..width).map(|_| rng.range_i64(0, 3)).collect());
            }
            for skyline in &skylines {
                for size in 1..=width {
                    let (mut fast, mut slow) = (skyline.clone(), skyline.clone());
                    assert_eq!(
                        PerfectSquare::place(&mut fast, size, target),
                        place_by_columns(&mut slow, size, target),
                        "width {width}, size {size}, skyline {skyline:?}"
                    );
                    assert_eq!(
                        fast, slow,
                        "width {width}, size {size}, skyline {skyline:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_mid_walk_instance_survives_a_round_trip() {
        let mut rng = default_rng(961);
        let mut p = PerfectSquare::csplib_order21();
        let mut perm = rng.permutation(21);
        let _ = p.init(&perm);
        for _ in 0..5 {
            let (a, b) = (rng.index(21), rng.index(21));
            if a != b {
                perm.swap(a, b);
                p.executed_swap(&perm, a, b);
            }
        }
        let cost = p.cost(&perm);
        let json = serde_json::to_string(&p).expect("serializes");
        let back: PerfectSquare = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(serde_json::to_string(&back).expect("serializes"), json);
        for i in 0..21 {
            assert_eq!(
                back.cost_on_variable(&perm, i),
                p.cost_on_variable(&perm, i)
            );
            for j in 0..21 {
                assert_eq!(
                    back.cost_if_swap(&perm, cost, i, j),
                    p.cost_if_swap(&perm, cost, i, j),
                    "swap ({i}, {j})"
                );
            }
        }
    }

    #[test]
    fn deserialization_rejects_states_the_constructor_never_builds() {
        fn state(
            instance: &str,
            contributions: &str,
            committed: &str,
            sky: &str,
            cost: &str,
        ) -> String {
            format!(
                r#"{{"instance":{instance},"contributions":{contributions},"committed":{committed},"prefix_skyline":{sky},"prefix_cost":{cost}}}"#
            )
        }
        let ten_wide = |sizes: &str| format!(r#"{{"width":10,"height":10,"sizes":{sizes}}}"#);
        let order9 = r#"{"width":33,"height":32,"sizes":[18,15,14,10,9,8,7,4,1]}"#;
        let (nine, ten) = ("[0,0,0,0,0,0,0,0,0]", "[0,0,0,0,0,0,0,0,0,0]");
        for bad in [
            state(&ten_wide("[11]"), "[0]", "[]", "[]", "[0,0]"),
            state(&ten_wide("[0]"), "[0]", "[]", "[]", "[0,0]"),
            state(&ten_wide("[]"), "[]", "[]", "[]", "[0]"),
            state(order9, "[]", "[]", "[]", "[]"),
            state(order9, nine, "[0,1,2,3,4,5,6,7,8]", "[]", ten),
            state(order9, nine, "[]", "[0]", ten),
        ] {
            assert!(
                serde_json::from_str::<PerfectSquare>(&bad).is_err(),
                "{bad} deserialized"
            );
        }
        let fresh = state(order9, nine, "[]", "[]", ten);
        let mut p: PerfectSquare = serde_json::from_str(&fresh).expect("a fresh order-9 state");
        assert_eq!(p.init(&[0, 1, 6, 2, 5, 7, 3, 8, 4]), 0);
    }

    #[test]
    #[should_panic(expected = "must contain squares")]
    fn empty_instance_is_rejected() {
        let _ = PerfectSquare::new(SquarePackingInstance {
            width: 10,
            height: 10,
            sizes: vec![],
        });
    }

    #[test]
    #[should_panic(expected = "no wider than the master")]
    fn oversized_square_is_rejected() {
        let _ = PerfectSquare::new(SquarePackingInstance {
            width: 10,
            height: 10,
            sizes: vec![11],
        });
    }
}
