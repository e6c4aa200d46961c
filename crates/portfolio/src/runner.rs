//! A portfolio is a walk batch.
//!
//! [`Portfolio::batch`] turns the portfolio into a
//! [`WalkBatch`] whose jobs carry per-member engine configurations, restart
//! schedules and labels; any [`WalkExecutor`](cbls_parallel::WalkExecutor)
//! back-end runs it with the flat multi-walk's first-finisher semantics, and
//! [`SimulatedMultiWalk`](cbls_parallel::SimulatedMultiWalk) replays it.
//! [`member_stats`] reads the resulting
//! [`BatchExecution`] back per member.

use cbls_parallel::{BatchExecution, WalkBatch, WalkJob};
use serde::{Deserialize, Serialize};

use crate::portfolio::Portfolio;
use crate::schedule::RestartSchedule;

impl Portfolio {
    /// The walk batch this portfolio describes: one job per member, carrying
    /// the member's engine configuration, restart schedule and label, under
    /// first-finisher stop semantics and the portfolio's timeout.  Seeds come
    /// from the portfolio's [`WalkSeeds`](cbls_parallel::WalkSeeds) family,
    /// so walk `i` draws exactly the stream a flat multi-walk run with the
    /// same master seed would draw.
    #[must_use]
    pub fn batch(&self) -> WalkBatch {
        let jobs = self
            .members()
            .iter()
            .map(|member| {
                let schedule = member.schedule;
                WalkJob::new(member.search.clone())
                    .with_label(member.label.clone())
                    .with_budget(move |restart| schedule.budget(restart))
            })
            .collect();
        let batch = WalkBatch::new(self.seeds(), jobs);
        match self.timeout() {
            Some(timeout) => batch.with_timeout(timeout),
            None => batch,
        }
    }
}

/// Aggregate statistics for all walks of one portfolio member (one label),
/// as computed by [`member_stats`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemberStats {
    /// The member's label.
    pub label: String,
    /// Walks that ran this member.
    pub walks: usize,
    /// How many of them solved the problem.
    pub solved: usize,
    /// How many of them faulted (panicked or stalled).
    pub faulted: usize,
    /// Whether the run's winning walk belonged to this member.
    pub won: bool,
    /// Total iterations across the member's walks.
    pub iterations: u64,
    /// Total restarts across the member's walks.
    pub restarts: u64,
    /// Best cost any of the member's walks reached.
    pub best_cost: i64,
}

/// Aggregate per-member statistics of an executed portfolio batch (walks
/// sharing a [`WalkRecord::label`](cbls_parallel::WalkRecord::label)),
/// ordered by first appearance.  This is the grouping the observability
/// layer's portfolio metrics render: it answers "which restart strategy did
/// the work / won?".
#[must_use]
pub fn member_stats(execution: &BatchExecution) -> Vec<MemberStats> {
    let mut stats: Vec<MemberStats> = Vec::new();
    for record in &execution.records {
        let entry = match stats.iter_mut().position(|s| s.label == record.label) {
            Some(i) => &mut stats[i],
            None => {
                stats.push(MemberStats {
                    label: record.label.clone(),
                    walks: 0,
                    solved: 0,
                    faulted: 0,
                    won: false,
                    iterations: 0,
                    restarts: 0,
                    best_cost: i64::MAX,
                });
                stats.last_mut().expect("just pushed")
            }
        };
        entry.walks += 1;
        entry.solved += usize::from(record.outcome.solved());
        entry.faulted += usize::from(record.fault.is_some());
        entry.won |= execution.winner == Some(record.walk_id);
        entry.iterations += record.outcome.stats.iterations;
        entry.restarts += record.outcome.stats.restarts;
        entry.best_cost = entry.best_cost.min(record.outcome.best_cost);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::portfolio::PortfolioMember;
    use crate::schedule::Schedule;
    use cbls_core::{monotonic_now, Evaluator, SearchConfig};
    use cbls_parallel::{DistributionSink, SequentialExecutor, ThreadsExecutor, WalkExecutor};
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

    fn mixed_portfolio(walks: usize) -> Portfolio {
        let search = SearchConfig::builder().stop_check_interval(4).build();
        let protos = vec![
            PortfolioMember::new("fixed", search.clone(), Schedule::fixed(10_000, 3)),
            PortfolioMember::new("luby", search.clone(), Schedule::luby(2_000, 15)),
            PortfolioMember::new("geom", search, Schedule::geometric(1_000, 2.0, 7)),
        ];
        Portfolio::cycled(&protos, walks).with_master_seed(42)
    }

    #[test]
    fn threads_backend_solves_and_labels_every_walk() {
        let portfolio = mixed_portfolio(4);
        let result = ThreadsExecutor.execute(&|| Sort(24), &portfolio.batch());
        let winner = result.winning_record().expect("sort is solvable");
        assert!(winner.outcome.solved());
        assert_eq!(result.records.len(), 4);
        for (i, r) in result.records.iter().enumerate() {
            assert_eq!(r.walk_id, i);
            assert_eq!(r.label, portfolio.member_of(i).label);
            assert_eq!(r.seed, portfolio.seeds().seed_of(i));
        }
        assert!(result.total_iterations() >= result.winning_iterations().unwrap());
        let stats = member_stats(&result);
        let labels: Vec<&str> = stats.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, vec!["fixed", "luby", "geom"]);
        assert_eq!(stats.iter().map(|s| s.walks).sum::<usize>(), 4);
        assert_eq!(stats.iter().filter(|s| s.won).count(), 1);
    }

    #[test]
    fn unsolvable_portfolio_reports_no_winner_and_respects_budgets() {
        let search = SearchConfig::default();
        let protos = vec![
            PortfolioMember::new("short", search.clone(), Schedule::fixed(100, 1)),
            PortfolioMember::new("luby", search, Schedule::luby(50, 5)),
        ];
        let portfolio = Portfolio::cycled(&protos, 2).with_master_seed(7);
        let result = ThreadsExecutor.execute(&|| Hopeless(8), &portfolio.batch());
        assert!(result.winning_record().is_none());
        // each walk consumed exactly its schedule's total budget
        assert_eq!(result.records[0].outcome.stats.iterations, 200);
        assert_eq!(
            result.records[1].outcome.stats.iterations,
            Schedule::luby(50, 5).total_budget()
        );
    }

    #[test]
    fn timeout_stops_hopeless_runs() {
        let search = SearchConfig::builder().stop_check_interval(1).build();
        let member = PortfolioMember::new("long", search, Schedule::fixed(u64::MAX / 8, 0));
        let portfolio = Portfolio::cycled(std::slice::from_ref(&member), 2)
            .with_timeout(Duration::from_millis(50));
        let started = monotonic_now();
        let result = ThreadsExecutor.execute(&|| Hopeless(8), &portfolio.batch());
        assert!(result.winner.is_none());
        assert!(started.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn telemetry_records_solved_walks_online() {
        let portfolio = mixed_portfolio(4);
        let sink = DistributionSink::new();
        let result =
            SequentialExecutor.execute_with_telemetry(&|| Sort(20), &portfolio.batch(), &sink);
        assert!(result.winner.is_some());
        // the online stream saw exactly the solved records' iteration counts
        let mut posthoc: Vec<f64> = result
            .records
            .iter()
            .filter(|r| r.outcome.solved())
            .map(|r| r.outcome.stats.iterations as f64)
            .collect();
        let mut online = sink.into_accumulator().observations().to_vec();
        posthoc.sort_by(f64::total_cmp);
        online.sort_by(f64::total_cmp);
        assert_eq!(online, posthoc);
    }
}
