//! A bandit-style walk allocator over a set of strategy prototypes.
//!
//! The speedup of an independent multi-walk run is governed by the *left
//! tail* of the per-walk runtime distribution: the winner is the minimum of
//! `p` draws, so a strategy whose fast runs are faster is worth more walks
//! even if its mean is worse.  [`AdaptiveScheduler`] exploits that across
//! successive solve requests:
//!
//! * every strategy keeps one exploration walk per request (so a strategy
//!   can never starve and observations keep flowing);
//! * the remaining walks are split proportionally to each strategy's
//!   *observed tail score* — the reciprocal of its 25 %-quantile of
//!   iterations-to-solution (strategies with no observations yet borrow the
//!   best observed score, i.e. optimism under uncertainty);
//! * each request runs under a fresh master seed derived from
//!   `(scheduler seed, round)`, so repeated requests explore new streams
//!   deterministically.
//!
//! The scheduler is fully deterministic: the same sequence of recorded
//! results yields the same sequence of portfolios.

use as_rng::SeedSequence;
use cbls_parallel::WalkRecord;
use cbls_perfmodel::DistributionAccumulator;
use serde::{Deserialize, Serialize};

use crate::portfolio::{Portfolio, PortfolioMember};

/// The quantile of iterations-to-solution used as a strategy's tail
/// statistic (low = the strategy produces fast wins).
const TAIL_QUANTILE: f64 = 0.25;

/// Per-strategy observation record.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StrategyStats {
    /// Walks run under this strategy so far.
    pub attempts: u64,
    /// Walks that solved the problem.
    pub solves: u64,
    /// Iterations-to-solution of the solved walks.
    pub observations: DistributionAccumulator,
}

impl StrategyStats {
    /// The strategy's tail statistic: the low quantile of its observed
    /// iterations-to-solution (`None` until it has solved at least once).
    #[must_use]
    pub fn tail_iterations(&self) -> Option<f64> {
        self.observations
            .distribution()
            .map(|d| d.quantile(TAIL_QUANTILE))
    }
}

/// A deterministic bandit-style allocator of walks to strategies.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdaptiveScheduler {
    strategies: Vec<PortfolioMember>,
    records: Vec<StrategyStats>,
    master_seed: u64,
    round: u64,
}

impl AdaptiveScheduler {
    /// Create a scheduler over the given strategy prototypes.
    ///
    /// # Panics
    ///
    /// Panics if `strategies` is empty, contains duplicate labels, or any
    /// strategy fails validation (labels are how recorded results are mapped
    /// back to strategies, so they must be unique).
    #[must_use]
    pub fn new(strategies: Vec<PortfolioMember>, master_seed: u64) -> Self {
        assert!(
            !strategies.is_empty(),
            "a scheduler needs at least one strategy"
        );
        for (i, s) in strategies.iter().enumerate() {
            if let Err(e) = s.validate() {
                panic!("invalid strategy: {e}");
            }
            assert!(
                strategies[..i].iter().all(|t| t.label != s.label),
                "duplicate strategy label '{}'",
                s.label
            );
        }
        let records = vec![StrategyStats::default(); strategies.len()];
        Self {
            strategies,
            records,
            master_seed,
            round: 0,
        }
    }

    /// The strategy prototypes, in allocation order.
    #[must_use]
    pub fn strategies(&self) -> &[PortfolioMember] {
        &self.strategies
    }

    /// Per-strategy observation records (parallel to
    /// [`strategies`](Self::strategies)).
    #[must_use]
    pub fn records(&self) -> &[StrategyStats] {
        &self.records
    }

    /// Number of portfolios handed out so far.
    #[must_use]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// How many of `walks` walks each strategy would receive right now.
    ///
    /// Every strategy keeps at least one walk as long as `walks` covers the
    /// strategy count; the surplus goes to the strategies with the best
    /// observed tails.
    ///
    /// # Panics
    ///
    /// Panics if `walks` is zero.
    #[must_use]
    pub fn allocation(&self, walks: usize) -> Vec<usize> {
        assert!(walks > 0, "an allocation needs at least one walk");
        let n = self.strategies.len();
        let mut alloc = vec![0usize; n];

        // Exploration floor: one walk per strategy, in order, while supply
        // lasts.
        let floor = walks.min(n);
        for slot in alloc.iter_mut().take(floor) {
            *slot = 1;
        }
        let surplus = walks - floor;
        if surplus == 0 {
            return alloc;
        }

        // Exploitation: split the surplus proportionally to the tail scores.
        let tails: Vec<Option<f64>> = self
            .records
            .iter()
            .map(StrategyStats::tail_iterations)
            .collect();
        let best_score = tails
            .iter()
            .flatten()
            .map(|t| 1.0 / t.max(1.0))
            .fold(0.0f64, f64::max);
        let scores: Vec<f64> = tails
            .iter()
            .map(|t| match t {
                Some(tail) => 1.0 / tail.max(1.0),
                // optimism under uncertainty: an unobserved strategy is
                // treated as good as the best observed one
                None => {
                    if best_score > 0.0 {
                        best_score
                    } else {
                        1.0
                    }
                }
            })
            .collect();

        let total: f64 = scores.iter().sum();
        let exact: Vec<f64> = scores.iter().map(|s| surplus as f64 * s / total).collect();
        let mut assigned = 0usize;
        for (slot, e) in alloc.iter_mut().zip(exact.iter()) {
            let whole = e.floor() as usize;
            *slot += whole;
            assigned += whole;
        }
        // Largest-remainder rounding; ties broken towards lower indices so
        // the result is deterministic.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            let fa = exact[a] - exact[a].floor();
            let fb = exact[b] - exact[b].floor();
            fb.partial_cmp(&fa)
                .expect("finite fractions")
                .then(a.cmp(&b))
        });
        for &i in order.iter().take(surplus - assigned) {
            alloc[i] += 1;
        }
        alloc
    }

    /// Build the portfolio of the next solve request: allocate `walks` walks
    /// to strategies, interleave them round-robin (so every prefix of walks
    /// stays diverse), and derive a fresh master seed from
    /// `(scheduler seed, round)`.
    ///
    /// # Panics
    ///
    /// Panics if `walks` is zero.
    #[must_use]
    pub fn next_portfolio(&mut self, walks: usize) -> Portfolio {
        let mut remaining = self.allocation(walks);
        let mut members = Vec::with_capacity(walks);
        while members.len() < walks {
            for (i, strategy) in self.strategies.iter().enumerate() {
                if remaining[i] > 0 {
                    remaining[i] -= 1;
                    members.push(strategy.clone());
                }
            }
        }
        let seed = SeedSequence::u64_seed_for(self.master_seed, self.round);
        self.round += 1;
        Portfolio::new(members).with_master_seed(seed)
    }

    /// Fold the per-walk records of a finished run into the per-strategy
    /// records, matching walks to strategies by label (records whose label
    /// matches no strategy are ignored).
    ///
    /// The richest signal is a run-to-completion replay
    /// ([`SimulatedMultiWalk::records`](cbls_parallel::SimulatedMultiWalk::records)),
    /// one observation per solved walk.  In a first-finisher run a walk
    /// stops once it has done the best count solved so far, so mostly the
    /// winner contributes an observation.
    pub fn record(&mut self, records: &[WalkRecord]) {
        for walk in records {
            let Some(idx) = self.strategies.iter().position(|s| s.label == walk.label) else {
                continue;
            };
            let record = &mut self.records[idx];
            record.attempts += 1;
            if walk.outcome.solved() {
                record.solves += 1;
                record
                    .observations
                    .record_count(walk.outcome.stats.iterations);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Schedule;
    use cbls_core::{Evaluator, SearchConfig, SearchOutcome, SearchStats, TerminationReason};
    use cbls_parallel::{SequentialExecutor, SimulatedMultiWalk};
    use std::time::Duration;

    fn strategies(labels: &[&str]) -> Vec<PortfolioMember> {
        labels
            .iter()
            .map(|l| PortfolioMember::with_schedule(*l, Schedule::fixed(10_000, 3)))
            .collect()
    }

    fn solved_report(label: &str, iterations: u64) -> WalkRecord {
        WalkRecord {
            walk_id: 0,
            label: label.to_string(),
            seed: 0,
            outcome: SearchOutcome {
                reason: TerminationReason::Solved,
                best_cost: 0,
                solution: vec![0],
                stats: SearchStats {
                    iterations,
                    ..SearchStats::default()
                },
                elapsed: Duration::ZERO,
            },
            fault: None,
            attempt: 0,
        }
    }

    #[test]
    fn allocation_without_observations_is_balanced() {
        let s = AdaptiveScheduler::new(strategies(&["a", "b", "c"]), 1);
        assert_eq!(s.allocation(9), vec![3, 3, 3]);
        assert_eq!(s.allocation(3), vec![1, 1, 1]);
        // fewer walks than strategies: the leading strategies explore first
        assert_eq!(s.allocation(2), vec![1, 1, 0]);
    }

    #[test]
    fn allocation_shifts_towards_the_better_tail() {
        let mut s = AdaptiveScheduler::new(strategies(&["fast", "slow"]), 1);
        for _ in 0..8 {
            s.record(&[solved_report("fast", 100)]);
            s.record(&[solved_report("slow", 10_000)]);
        }
        let alloc = s.allocation(12);
        assert_eq!(alloc.iter().sum::<usize>(), 12);
        assert!(alloc[0] > alloc[1], "fast should dominate: {alloc:?}");
        assert!(
            alloc[1] >= 1,
            "the slow strategy keeps its exploration walk"
        );
        // the tail statistics drive the ratio: 1/100 vs 1/10_000 ≈ 99:1
        assert!(alloc[0] >= 10, "allocation {alloc:?}");
    }

    #[test]
    fn unobserved_strategies_borrow_the_best_score() {
        let mut s = AdaptiveScheduler::new(strategies(&["seen", "unseen"]), 1);
        s.record(&[solved_report("seen", 500)]);
        let alloc = s.allocation(10);
        // optimism: the unseen strategy is treated as good as the seen one
        assert_eq!(alloc, vec![5, 5]);
    }

    #[test]
    fn next_portfolio_interleaves_and_reseeds_each_round() {
        let mut s = AdaptiveScheduler::new(strategies(&["a", "b"]), 77);
        let p0 = s.next_portfolio(4);
        let p1 = s.next_portfolio(4);
        assert_eq!(p0.walks(), 4);
        let labels: Vec<&str> = (0..4).map(|w| p0.member_of(w).label.as_str()).collect();
        assert_eq!(labels, vec!["a", "b", "a", "b"]);
        assert_ne!(p0.master_seed(), p1.master_seed());
        assert_eq!(s.round(), 2);

        // determinism: a fresh scheduler with the same inputs hands out the
        // same portfolios
        let mut t = AdaptiveScheduler::new(strategies(&["a", "b"]), 77);
        let q0 = t.next_portfolio(4);
        assert_eq!(p0, q0);
    }

    #[test]
    fn records_ignore_unknown_labels_and_count_attempts() {
        let mut s = AdaptiveScheduler::new(strategies(&["a"]), 1);
        let mut unsolved = solved_report("a", 42);
        unsolved.outcome.reason = TerminationReason::IterationBudgetExhausted;
        s.record(&[
            solved_report("a", 42),
            unsolved,
            solved_report("not-a-strategy", 1),
        ]);
        let rec = &s.records()[0];
        assert_eq!(rec.attempts, 2);
        assert_eq!(rec.solves, 1);
        assert_eq!(rec.observations.len(), 1);
        assert_eq!(rec.tail_iterations(), Some(42.0));
    }

    #[test]
    fn end_to_end_rounds_refine_the_allocation() {
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

        let protos = vec![
            PortfolioMember::new(
                "defaults",
                SearchConfig::default(),
                Schedule::fixed(10_000, 2),
            ),
            PortfolioMember::new("luby", SearchConfig::default(), Schedule::luby(1_000, 20)),
        ];
        let mut scheduler = AdaptiveScheduler::new(protos, 5);
        for _ in 0..3 {
            let portfolio = scheduler.next_portfolio(6);
            let sim =
                SimulatedMultiWalk::replay(&|| Sort(20), &portfolio.batch(), &SequentialExecutor);
            scheduler.record(sim.records());
        }
        assert_eq!(scheduler.round(), 3);
        let alloc = scheduler.allocation(8);
        assert_eq!(alloc.iter().sum::<usize>(), 8);
        assert!(alloc.iter().all(|&a| a >= 1));
        // observations actually flowed into the records
        assert!(scheduler.records().iter().any(|r| r.solves > 0));
    }

    #[test]
    #[should_panic(expected = "duplicate strategy label")]
    fn duplicate_labels_are_rejected() {
        let _ = AdaptiveScheduler::new(strategies(&["x", "x"]), 1);
    }

    #[test]
    #[should_panic(expected = "at least one strategy")]
    fn empty_scheduler_is_rejected() {
        let _ = AdaptiveScheduler::new(Vec::new(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one walk")]
    fn zero_walk_allocation_is_rejected() {
        let s = AdaptiveScheduler::new(strategies(&["a"]), 1);
        let _ = s.allocation(0);
    }
}
