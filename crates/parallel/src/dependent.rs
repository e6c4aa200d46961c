//! Dependent multi-walk: the paper's "future work" scheme.
//!
//! The paper closes by sketching a *dependent* multiple-walk method in which
//! processes exchange a little information — "re-using some common
//! computations and/or recording previous interesting crossroads in the
//! resolution, from which a restart can be operated" — while keeping data
//! transfers minimal.  This module implements that sketch:
//!
//! * walks run in synchronous *segments* of a bounded number of iterations;
//! * after each segment a walk publishes its best configuration to a shared
//!   elite pool (a single best-so-far entry, i.e. the minimal possible data
//!   transfer);
//! * a walk whose own best cost is far worse than the elite abandons its
//!   region and restarts the next segment from a *perturbed copy* of the
//!   elite (the "interesting crossroad"), otherwise it continues from its own
//!   best configuration;
//! * a run ends as soon as a segment produces a configuration at the target
//!   cost (walks finish the segment they are in, so the extra work is bounded
//!   by one segment per walk).
//!
//! Every walk reads the elite as it stood at the *start* of the segment and
//! publications are merged in walk order once the segment is over, so the
//! whole scheme is a deterministic function of `(master_seed, config)` — no
//! matter how the segment's walks are scheduled onto threads.
//!
//! The paper warns that beating independent walks is hard because "the global
//! cost of a configuration is not a reliable information".  Whether this
//! scheme beats independent walks is unmeasured: no bench or table compares
//! the two (ROADMAP item 9 asks for that comparison).

use as_rng::RandomSource;
use cbls_core::{
    AdaptiveSearch, EvaluatorFactory, Run, SearchConfig, SearchStats, TerminationReason,
};
use serde::{Deserialize, Serialize};

use crate::executor::{ThreadsExecutor, WalkExecutor};
use crate::seeds::WalkSeeds;

/// Parameters of a dependent multi-walk run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DependentWalkConfig {
    /// Number of cooperating walks.
    pub walks: usize,
    /// Master seed for the per-walk streams.
    pub master_seed: u64,
    /// Engine configuration used inside each segment (its restart settings
    /// are overridden by the segment budget).
    pub search: SearchConfig,
    /// Iteration budget of one segment of one walk.
    pub segment_iterations: u64,
    /// Maximum number of segments before giving up.
    pub max_segments: u32,
    /// A walk adopts the elite when its own best cost exceeds
    /// `elite_adoption_ratio × elite_cost` (a ratio of 1.0 adopts whenever
    /// strictly worse; large ratios make the walks nearly independent).
    pub elite_adoption_ratio: f64,
    /// Fraction of the variables that are randomly re-placed when adopting
    /// the elite, so that walks do not all collapse onto the same trajectory.
    pub perturbation_fraction: f64,
}

impl DependentWalkConfig {
    /// A reasonable default configuration for `walks` cooperating walks.
    #[must_use]
    pub fn new(walks: usize) -> Self {
        Self {
            walks,
            master_seed: 0xDEC0_DE00,
            search: SearchConfig::default(),
            segment_iterations: 2_000,
            max_segments: 200,
            elite_adoption_ratio: 1.5,
            perturbation_fraction: 0.2,
        }
    }

    /// Replace the engine configuration.
    #[must_use]
    pub fn with_search(mut self, search: SearchConfig) -> Self {
        self.search = search;
        self
    }

    /// Replace the master seed.
    #[must_use]
    pub fn with_master_seed(mut self, seed: u64) -> Self {
        self.master_seed = seed;
        self
    }

    /// Replace the per-segment iteration budget.
    #[must_use]
    pub fn with_segment_iterations(mut self, iterations: u64) -> Self {
        self.segment_iterations = iterations;
        self
    }

    /// Replace the maximum number of segments.
    #[must_use]
    pub fn with_max_segments(mut self, segments: u32) -> Self {
        self.max_segments = segments;
        self
    }
}

/// The shared elite: the best configuration any walk has published so far.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Elite {
    cost: i64,
    perm: Vec<usize>,
    found_by: usize,
}

/// Result of a dependent multi-walk run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DependentWalkResult {
    /// Whether the target cost was reached.
    pub solved: bool,
    /// The walk that produced the best configuration.
    pub best_walk: usize,
    /// Best cost reached across all walks.
    pub best_cost: i64,
    /// Best configuration reached across all walks.
    pub solution: Vec<usize>,
    /// Number of segments executed (synchronous rounds).
    pub segments: u32,
    /// Number of times a walk abandoned its region to adopt the elite.
    pub elite_adoptions: u64,
    /// Aggregate engine counters over every walk and segment.
    pub stats: SearchStats,
}

/// Per-walk state carried across segments.
struct WalkState {
    rng: as_rng::DefaultRng,
    best_cost: i64,
    best_perm: Option<Vec<usize>>,
}

/// Run the dependent multi-walk scheme on [`ThreadsExecutor`]: one thread
/// per walk, the calling thread running walk 0.
///
/// The result is a deterministic function of `(factory, config)`: walks read
/// the elite as of the segment start and publish through a sequential merge,
/// so thread scheduling cannot influence any trajectory.
///
/// # Panics
///
/// Panics if `config.walks == 0` or `config.segment_iterations == 0`.
pub fn run_dependent<F>(factory: &F, config: &DependentWalkConfig) -> DependentWalkResult
where
    F: EvaluatorFactory,
{
    run_dependent_on(factory, config, &ThreadsExecutor)
}

/// Run the dependent multi-walk scheme on any [`WalkExecutor`] back-end.
///
/// Each segment fans its walks out through
/// [`WalkExecutor::run_batch`] and merges publications sequentially in walk
/// order, so the result is identical on every back-end — determinism is a
/// property of the scheme, not of the scheduler.
///
/// # Panics
///
/// Panics if `config.walks == 0` or `config.segment_iterations == 0`.
pub fn run_dependent_on<X, F>(
    factory: &F,
    config: &DependentWalkConfig,
    executor: &X,
) -> DependentWalkResult
where
    X: WalkExecutor,
    F: EvaluatorFactory,
{
    assert!(config.walks > 0, "a dependent run needs at least one walk");
    assert!(
        config.segment_iterations > 0,
        "segments need a positive iteration budget"
    );

    let seeds = WalkSeeds::new(config.master_seed);
    let mut segment_search = config.search.clone();
    segment_search.max_iterations_per_restart = config.segment_iterations;
    segment_search.max_restarts = 0;
    let engine = AdaptiveSearch::new(segment_search);
    let target = config.search.target_cost;

    let mut elite: Option<Elite> = None;
    let mut elite_adoptions = 0u64;
    let mut total_stats = SearchStats::default();

    let mut states: Vec<WalkState> = (0..config.walks)
        .map(|w| WalkState {
            rng: seeds.rng_of(w),
            best_cost: i64::MAX,
            best_perm: None,
        })
        .collect();

    let mut segments_run = 0;
    for _segment in 0..config.max_segments {
        segments_run += 1;

        // The elite as every walk of this segment sees it: frozen at the
        // segment start, so adoption decisions do not depend on how fast
        // sibling walks happen to run.
        let snapshot = elite.clone();
        let segment_work = |_walk_id: usize, mut state: WalkState| {
            let mut evaluator = factory.build();

            // Decide the starting configuration for this segment: the shared
            // elite (perturbed) if our own best is clearly worse, otherwise
            // our own best configuration, otherwise random.
            let (initial, adopted): (Option<Vec<usize>>, bool) = match (&snapshot, &state.best_perm)
            {
                (Some(e), Some(own)) => {
                    if (state.best_cost as f64) > config.elite_adoption_ratio * e.cost as f64 {
                        let perturbed =
                            perturb(&e.perm, config.perturbation_fraction, &mut state.rng);
                        (Some(perturbed), true)
                    } else {
                        (Some(own.clone()), false)
                    }
                }
                (Some(e), None) => {
                    let perturbed = perturb(&e.perm, config.perturbation_fraction, &mut state.rng);
                    (Some(perturbed), true)
                }
                (None, Some(own)) => (Some(own.clone()), false),
                (None, None) => (None, false),
            };

            let run = Run {
                initial: initial.as_deref(),
                ..Run::default()
            };
            let outcome = engine.run(&mut evaluator, &mut state.rng, run);

            if outcome.best_cost < state.best_cost {
                state.best_cost = outcome.best_cost;
                state.best_perm = Some(outcome.solution.clone());
            }
            (state, outcome, adopted)
        };
        let segment_results = executor.run_batch(std::mem::take(&mut states), &segment_work);

        // Sequential merge in walk order (publication to the elite pool —
        // minimal data transfer: one configuration per walk per segment).
        let mut solved_this_segment = false;
        for (walk_id, (state, outcome, adopted)) in segment_results.into_iter().enumerate() {
            states.push(state);
            total_stats.merge(&outcome.stats);
            if adopted {
                elite_adoptions += 1;
            }
            if elite.as_ref().is_none_or(|e| outcome.best_cost < e.cost) {
                elite = Some(Elite {
                    cost: outcome.best_cost,
                    perm: outcome.solution,
                    found_by: walk_id,
                });
            }
            solved_this_segment |=
                outcome.reason == TerminationReason::Solved && outcome.best_cost <= target;
        }

        if solved_this_segment {
            break;
        }
    }

    let stats = total_stats;
    let best = elite;
    match best {
        Some(e) => DependentWalkResult {
            solved: e.cost <= target,
            best_walk: e.found_by,
            best_cost: e.cost,
            solution: e.perm,
            segments: segments_run,
            elite_adoptions,
            stats,
        },
        None => DependentWalkResult {
            solved: false,
            best_walk: 0,
            best_cost: i64::MAX,
            solution: Vec::new(),
            segments: segments_run,
            elite_adoptions,
            stats,
        },
    }
}

/// Randomly re-place a fraction of the positions of `perm` (by random swaps),
/// keeping it a permutation.
fn perturb<R: RandomSource + ?Sized>(perm: &[usize], fraction: f64, rng: &mut R) -> Vec<usize> {
    let mut out = perm.to_vec();
    let n = out.len();
    if n < 2 {
        return out;
    }
    let swaps = ((fraction.clamp(0.0, 1.0) * n as f64).ceil() as usize).max(1);
    for _ in 0..swaps {
        let a = rng.index(n);
        let b = rng.index(n);
        out.swap(a, b);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbls_core::Evaluator;

    #[derive(Clone)]
    struct Sort(usize);
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
    }

    #[derive(Clone)]
    struct Hopeless(usize);
    impl Evaluator for Hopeless {
        fn size(&self) -> usize {
            self.0
        }
        fn init(&mut self, _perm: &[usize]) -> i64 {
            1
        }
        fn cost(&self, _perm: &[usize]) -> i64 {
            1
        }
        fn cost_on_variable(&self, _perm: &[usize], _i: usize) -> i64 {
            1
        }
    }

    #[test]
    fn dependent_walks_solve_an_easy_problem() {
        let cfg = DependentWalkConfig::new(4)
            .with_master_seed(5)
            .with_segment_iterations(500)
            .with_max_segments(20);
        let result = run_dependent(&|| Sort(24), &cfg);
        assert!(result.solved);
        assert_eq!(result.best_cost, 0);
        assert_eq!(result.solution.len(), 24);
        assert!(result.segments >= 1);
        assert!(result.stats.iterations > 0);
    }

    #[test]
    fn dependent_walks_are_deterministic() {
        // Walks read the elite as of the segment start and publish through a
        // sequential merge, so two runs with identical seeds must agree on
        // *everything*, including the engine counters and the adoption count.
        let cfg = DependentWalkConfig::new(3)
            .with_master_seed(11)
            .with_segment_iterations(200)
            .with_max_segments(30);
        let a = run_dependent(&|| Sort(20), &cfg);
        let b = run_dependent(&|| Sort(20), &cfg);
        assert_eq!(a.solved, b.solved);
        assert_eq!(a.best_cost, b.best_cost);
        assert_eq!(a.best_walk, b.best_walk);
        assert_eq!(a.solution, b.solution);
        assert_eq!(a.segments, b.segments);
        assert_eq!(a.elite_adoptions, b.elite_adoptions);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn different_master_seeds_change_the_trajectory() {
        let base = DependentWalkConfig::new(3)
            .with_segment_iterations(200)
            .with_max_segments(30);
        let a = run_dependent(&|| Sort(20), &base.clone().with_master_seed(1));
        let b = run_dependent(&|| Sort(20), &base.with_master_seed(2));
        assert_ne!(
            (a.stats.iterations, a.stats.swaps),
            (b.stats.iterations, b.stats.swaps),
            "different seeds should not replay the identical run"
        );
    }

    #[test]
    fn zero_segments_do_not_panic() {
        // An exchange period of zero rounds means no walk ever runs: the run
        // reports "unsolved, nothing found" instead of panicking.
        let cfg = DependentWalkConfig::new(3).with_max_segments(0);
        let result = run_dependent(&|| Sort(12), &cfg);
        assert!(!result.solved);
        assert_eq!(result.segments, 0);
        assert_eq!(result.best_cost, i64::MAX);
        assert!(result.solution.is_empty());
        assert_eq!(result.stats.iterations, 0);
    }

    #[test]
    fn single_walk_runs_do_not_panic() {
        // With one walk there is never a sibling elite to adopt; the scheme
        // degenerates to a plain segmented search and must still solve.
        let cfg = DependentWalkConfig::new(1)
            .with_master_seed(7)
            .with_segment_iterations(500)
            .with_max_segments(40);
        let result = run_dependent(&|| Sort(16), &cfg);
        assert!(result.solved);
        assert_eq!(result.best_walk, 0);
        assert_eq!(result.elite_adoptions, 0, "nothing to adopt with one walk");
    }

    #[test]
    fn hopeless_problems_exhaust_their_segments() {
        let cfg = DependentWalkConfig::new(2)
            .with_segment_iterations(50)
            .with_max_segments(3);
        let result = run_dependent(&|| Hopeless(6), &cfg);
        assert!(!result.solved);
        assert_eq!(result.segments, 3);
        assert_eq!(result.best_cost, 1);
    }

    #[test]
    fn perturbation_preserves_the_permutation_property() {
        let mut rng = as_rng::default_rng(3);
        let perm: Vec<usize> = (0..50).collect();
        for fraction in [0.0, 0.1, 0.5, 1.0] {
            let p = perturb(&perm, fraction, &mut rng);
            let mut sorted = p.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, perm);
        }
    }

    #[test]
    #[should_panic(expected = "at least one walk")]
    fn zero_walks_is_rejected() {
        let _ = run_dependent(&|| Sort(4), &DependentWalkConfig::new(0));
    }

    #[test]
    #[should_panic(expected = "positive iteration budget")]
    fn zero_segment_budget_is_rejected() {
        let cfg = DependentWalkConfig::new(1).with_segment_iterations(0);
        let _ = run_dependent(&|| Sort(4), &cfg);
    }
}
