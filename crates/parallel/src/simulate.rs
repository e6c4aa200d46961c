//! Deterministic replay of a walk batch.
//!
//! Because the paper's walks are fully independent, a `p`-walk parallel run
//! is *exactly* "run the same `p` seeded walks and keep the one that solves
//! in the fewest iterations".  [`SimulatedMultiWalk`] therefore runs every
//! walk of a batch to completion and reports, for every requested walk count
//! `p`, the iteration count of the fastest of the first `p` walks — the
//! machine-independent cost the paper's parallel runs would have paid.  The `cbls-bench` speedup
//! tables read the solved walks' counts as one empirical distribution and
//! compute every speedup from its order statistics, in iterations.
//!
//! Every walk runs to completion (it is not interrupted by a sibling's
//! success), so a single replay can be reused for *every* walk count `p ≤
//! walks` — this is what makes sweeping 16..256 "cores" tractable on a
//! laptop.  Any batch replays the same way: a flat multi-walk
//! ([`WalkBatch::uniform`]) or a heterogeneous batch whose jobs carry
//! per-walk configurations and labels.  On top of the prefix minima, the
//! replay pools the solved walks' iteration counts into an
//! [`EmpiricalDistribution`], whose order statistics give `E[min of p]`.

use cbls_core::EvaluatorFactory;
use cbls_perfmodel::EmpiricalDistribution;

use crate::executor::{select_winner, WalkBatch, WalkExecutor, WalkRecord};

/// A deterministic run-to-completion replay of every walk of a batch.
#[derive(Debug, Clone)]
pub struct SimulatedMultiWalk {
    records: Vec<WalkRecord>,
}

impl SimulatedMultiWalk {
    /// Replay every walk of `batch` on `executor`.  The replay forces
    /// [run-to-completion](WalkBatch::run_to_completion) semantics and drops
    /// any timeout, so no walk is interrupted by a sibling's success or by
    /// the clock: the records are the same on every back-end, and only the
    /// wall-clock time of the replay itself differs.
    ///
    /// # Panics
    ///
    /// Panics if the batch has no walks.
    pub fn replay<X, F>(factory: &F, batch: &WalkBatch, executor: &X) -> Self
    where
        X: WalkExecutor,
        F: EvaluatorFactory,
    {
        assert!(batch.walks() > 0, "a replay needs at least one walk");
        let batch = batch.clone().run_to_completion().without_timeout();
        Self {
            records: executor.execute(factory, &batch).records,
        }
    }

    /// Number of replayed walks.
    #[must_use]
    pub fn walks(&self) -> usize {
        self.records.len()
    }

    /// Per-walk records, ordered by walk index.
    #[must_use]
    pub fn records(&self) -> &[WalkRecord] {
        &self.records
    }

    /// Fraction of walks that found a solution within their budget.
    #[must_use]
    pub fn success_rate(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.solved().count() as f64 / self.records.len() as f64
    }

    /// The iteration count a `p`-walk parallel run would have needed: the
    /// minimum iterations-to-solution among the first `p` walks (`None` if
    /// none of them solved the problem within its budget).
    ///
    /// # Panics
    ///
    /// Panics if `p` is zero.
    #[must_use]
    pub fn parallel_iterations(&self, p: usize) -> Option<u64> {
        assert!(p >= 1, "at least one walk is needed");
        self.winner(p)
            .map(|w| self.records[w].outcome.stats.iterations)
    }

    /// Index of the walk that wins a `p`-walk run, per [`select_winner`]:
    /// the first-finisher batch of the first `p` walks picks this walk, with
    /// this record, on every back-end.
    #[must_use]
    pub fn winner(&self, p: usize) -> Option<usize> {
        select_winner(&self.records[..p.min(self.records.len())])
    }

    /// The pooled empirical distribution of iterations-to-solution over the
    /// solved walks (`None` if no walk solved the problem).
    #[must_use]
    pub fn iteration_distribution(&self) -> Option<EmpiricalDistribution> {
        let counts: Vec<u64> = self.solved().map(|r| r.outcome.stats.iterations).collect();
        (!counts.is_empty()).then(|| EmpiricalDistribution::from_counts(&counts))
    }

    fn solved(&self) -> impl Iterator<Item = &WalkRecord> {
        self.records.iter().filter(|r| r.outcome.solved())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{SequentialExecutor, ThreadsExecutor, WalkJob};
    use crate::seeds::WalkSeeds;
    use cbls_core::{Evaluator, SearchConfig};
    use std::time::Duration;

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

    fn quick_search() -> SearchConfig {
        SearchConfig::builder()
            .max_iterations_per_restart(10_000)
            .max_restarts(2)
            .build()
    }

    fn replay(size: usize, master_seed: u64, walks: usize) -> SimulatedMultiWalk {
        let batch = WalkBatch::uniform(master_seed, &quick_search(), walks);
        SimulatedMultiWalk::replay(&|| Sort(size), &batch, &SequentialExecutor)
    }

    /// Walks alternating between two labelled restart schedules.
    fn mixed_batch(walks: usize, master_seed: u64) -> WalkBatch {
        let jobs = (0..walks)
            .map(|w| {
                let job = WalkJob::new(SearchConfig::default());
                if w % 2 == 0 {
                    job.with_label("fixed")
                        .with_budget(|r| (r < 3).then_some(10_000))
                } else {
                    job.with_label("short")
                        .with_budget(|r| (r < 20).then_some(1_000))
                }
            })
            .collect();
        WalkBatch::new(WalkSeeds::new(master_seed), jobs)
    }

    #[test]
    fn replay_is_deterministic() {
        let a = replay(20, 7, 6);
        let b = replay(20, 7, 6);
        assert_eq!(a.walks(), 6);
        for (ra, rb) in a.records().iter().zip(b.records().iter()) {
            assert_eq!(ra.outcome.stats, rb.outcome.stats);
            assert_eq!(ra.outcome.solution, rb.outcome.solution);
            assert_eq!(ra.seed, rb.seed);
        }
    }

    #[test]
    fn replay_agrees_across_backends_and_ignores_batch_stop_semantics() {
        // A first-finisher batch with a timeout replays exactly like the
        // plain batch: the replay forces run-to-completion and no deadline.
        let batch = mixed_batch(6, 11).with_timeout(Duration::from_nanos(1));
        let seq = SimulatedMultiWalk::replay(&|| Sort(18), &batch, &SequentialExecutor);
        let thr = SimulatedMultiWalk::replay(&|| Sort(18), &mixed_batch(6, 11), &ThreadsExecutor);
        for (a, b) in seq.records().iter().zip(thr.records().iter()) {
            assert_eq!(a.walk_id, b.walk_id);
            assert_eq!(a.label, b.label);
            assert_eq!(a.outcome.stats, b.outcome.stats);
            assert!(a.outcome.solved());
        }
    }

    #[test]
    fn parallel_iterations_is_monotone_in_walks() {
        let sim = replay(24, 3, 12);
        assert!((sim.success_rate() - 1.0).abs() < 1e-12);
        let mut last = u64::MAX;
        for p in 1..=12 {
            let it = sim.parallel_iterations(p).unwrap();
            assert!(it <= last, "min over more walks cannot increase");
            last = it;
        }
    }

    #[test]
    fn winner_is_the_fastest_of_the_prefix() {
        let sim = replay(24, 5, 6);
        for p in 1..=6 {
            let w = sim.winner(p).unwrap();
            assert!(w < p);
            let w_iters = sim.records()[w].outcome.stats.iterations;
            assert_eq!(w_iters, sim.parallel_iterations(p).unwrap());
        }
    }

    #[test]
    #[should_panic(expected = "at least one walk")]
    fn zero_walk_replay_is_rejected() {
        let _ = replay(4, 1, 0);
    }

    #[test]
    #[should_panic(expected = "at least one walk")]
    fn zero_prefix_is_rejected() {
        let _ = replay(8, 1, 2).parallel_iterations(0);
    }
}
