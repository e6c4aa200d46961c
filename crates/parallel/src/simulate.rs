//! Deterministic replay of a walk batch, plus the predicted-vs-observed
//! speedup pipeline.
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
//! ([`WalkBatch::uniform`]) or a heterogeneous portfolio whose jobs carry
//! per-walk configurations and labels.  On top of the prefix minima, the
//! replay pools the solved walks' iteration counts into an
//! [`EmpiricalDistribution`] and compares the order-statistics *prediction*
//! (`E[min of p draws]`) with the *observed* prefix minimum.

use cbls_core::EvaluatorFactory;
use cbls_perfmodel::{DistributionAccumulator, EmpiricalDistribution};
use serde::{Deserialize, Serialize};

use crate::executor::{select_winner, WalkBatch, WalkExecutor, WalkRecord};

/// A deterministic run-to-completion replay of every walk of a batch.
#[derive(Debug, Clone)]
pub struct SimulatedMultiWalk {
    records: Vec<WalkRecord>,
}

/// One point of a predicted-vs-observed speedup comparison.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpeedupComparison {
    /// Number of walks (the paper's core count).
    pub walks: usize,
    /// Expected iterations of the winning walk under the order-statistics
    /// model (`E[min of p draws]` from the pooled empirical distribution).
    pub predicted_iterations: f64,
    /// Iterations of the actual winning walk among the first `walks` walks
    /// (`None` if none of them solved the problem).
    pub observed_iterations: Option<u64>,
    /// Predicted speedup over the mean sequential run.
    pub predicted_speedup: f64,
    /// Observed speedup over the mean sequential run, if observed.
    pub observed_speedup: Option<f64>,
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

    /// Iterations-to-solution of every *solved* walk, in walk order.
    #[must_use]
    pub fn solved_iterations(&self) -> Vec<u64> {
        self.solved().map(|r| r.outcome.stats.iterations).collect()
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

    /// Mean sequential iterations-to-solution over the solved walks (the
    /// baseline of every speedup in the paper's figures).
    #[must_use]
    pub fn mean_sequential_iterations(&self) -> Option<f64> {
        let solved = self.solved_iterations();
        if solved.is_empty() {
            None
        } else {
            Some(solved.iter().sum::<u64>() as f64 / solved.len() as f64)
        }
    }

    /// Empirical speedup of a `p`-walk run over the mean sequential run,
    /// measured in iterations (the paper's machine-independent definition).
    #[must_use]
    pub fn speedup(&self, p: usize) -> Option<f64> {
        let seq = self.mean_sequential_iterations()?;
        let par = self.parallel_iterations(p)? as f64;
        if par > 0.0 {
            Some(seq / par)
        } else {
            // A zero-iteration win means the initial configuration was already
            // a solution; report the largest finite speedup we can justify.
            Some(seq.max(1.0))
        }
    }

    /// Record every solved walk's iterations into `acc` (online recording
    /// across successive replays).
    pub fn record_into(&self, acc: &mut DistributionAccumulator) {
        for record in self.solved() {
            acc.record_count(record.outcome.stats.iterations);
        }
    }

    /// The pooled empirical distribution of iterations-to-solution over the
    /// solved walks (`None` if no walk solved the problem).
    #[must_use]
    pub fn iteration_distribution(&self) -> Option<EmpiricalDistribution> {
        let mut acc = DistributionAccumulator::new();
        self.record_into(&mut acc);
        acc.distribution()
    }

    /// Compare the order-statistics *prediction* of the `p`-walk iteration
    /// count (from the pooled empirical distribution) with the *observed*
    /// prefix minimum, for each requested walk count.
    ///
    /// Returns `None` if no walk solved the problem (there is no
    /// distribution to predict from).
    #[must_use]
    pub fn predicted_vs_observed(&self, walk_counts: &[usize]) -> Option<Vec<SpeedupComparison>> {
        let dist = self.iteration_distribution()?;
        let mean = dist.mean();
        Some(
            walk_counts
                .iter()
                .map(|&p| {
                    let predicted_iterations = dist.expected_min_of(p.max(1));
                    let predicted_speedup = if predicted_iterations > 0.0 {
                        mean / predicted_iterations
                    } else {
                        1.0
                    };
                    SpeedupComparison {
                        walks: p,
                        predicted_iterations,
                        observed_iterations: self.parallel_iterations(p.max(1)),
                        predicted_speedup,
                        observed_speedup: self.speedup(p.max(1)),
                    }
                })
                .collect(),
        )
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

    /// Walks alternating between two restart schedules, labelled like a
    /// portfolio's members.
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
    fn speedup_grows_with_walks_on_average() {
        let sim = replay(30, 9, 16);
        let s1 = sim.speedup(1).unwrap();
        let s16 = sim.speedup(16).unwrap();
        assert!(s1 > 0.0);
        assert!(s16 >= s1, "more walks cannot be slower: {s1} vs {s16}");
    }

    #[test]
    fn predicted_and_observed_speedups_are_comparable() {
        let sim = SimulatedMultiWalk::replay(&|| Sort(28), &mixed_batch(16, 5), &ThreadsExecutor);
        let table = sim.predicted_vs_observed(&[1, 2, 4, 8, 16]).unwrap();
        assert_eq!(table.len(), 5);
        for row in &table {
            assert!(row.predicted_speedup >= 1.0 - 1e-9);
            assert!(row.observed_speedup.unwrap() > 0.0);
            assert!(row.predicted_iterations > 0.0);
        }
        // the prediction is monotone in the walk count
        for w in table.windows(2) {
            assert!(w[1].predicted_speedup >= w[0].predicted_speedup - 1e-9);
        }
        // at p = walks the observed minimum equals the distribution's minimum
        let dist = sim.iteration_distribution().unwrap();
        assert_eq!(
            table.last().unwrap().observed_iterations.unwrap() as f64,
            dist.min()
        );
    }

    #[test]
    fn record_into_accumulates_across_replays() {
        let mut acc = DistributionAccumulator::new();
        let a = replay(16, 1, 3);
        let b = replay(16, 2, 3);
        a.record_into(&mut acc);
        b.record_into(&mut acc);
        assert_eq!(
            acc.len(),
            a.solved_iterations().len() + b.solved_iterations().len()
        );
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
