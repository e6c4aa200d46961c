//! Metrics for portfolio runs: register a standard set of portfolio-level
//! instruments in a [`MetricsRegistry`] and feed them from each executed
//! portfolio batch ([`BatchExecution`]) as runs complete.
//!
//! The portfolio layer already aggregates per-member statistics
//! (`cbls_portfolio::member_stats`); this module lifts the
//! run-level totals into the same registry the flight recorder uses, so a
//! long-running experiment (many portfolio runs) accumulates one coherent
//! snapshot.

use cbls_parallel::BatchExecution;

use crate::metrics::{Counter, Gauge, Histogram, MetricsRegistry};

/// Portfolio-level instruments, registered once and fed per run.
///
/// ```
/// use cbls_obs::{MetricsRegistry, PortfolioMetrics};
/// use cbls_portfolio::{Portfolio, PortfolioMember, Schedule};
/// use cbls_parallel::{SequentialExecutor, WalkExecutor};
/// use cbls_core::SearchConfig;
/// use cbls_problems::Benchmark;
///
/// let bench = Benchmark::NQueens(10);
/// let member = PortfolioMember::new("luby", SearchConfig::default(), Schedule::luby(2_000, 15));
/// let portfolio = Portfolio::cycled(std::slice::from_ref(&member), 2).with_master_seed(42);
///
/// let mut registry = MetricsRegistry::new();
/// let metrics = PortfolioMetrics::register(&mut registry);
/// let result = SequentialExecutor.execute(&|| bench.build(), &portfolio.batch());
/// metrics.observe(&result);
///
/// let snapshot = registry.snapshot();
/// assert_eq!(snapshot.counter("portfolio.runs"), Some(1));
/// ```
#[derive(Debug)]
pub struct PortfolioMetrics {
    runs: Counter,
    solved_runs: Counter,
    walks: Counter,
    solved_walks: Counter,
    iterations: Counter,
    restarts: Counter,
    best_cost: Gauge,
    winner_iterations: Histogram,
}

impl PortfolioMetrics {
    /// Register the portfolio instrument set in `registry`.
    ///
    /// Instruments: counters `portfolio.runs`, `portfolio.solved_runs`,
    /// `portfolio.walks`, `portfolio.solved_walks`, `portfolio.iterations`,
    /// `portfolio.restarts`; gauge `portfolio.best_cost` (minimum across
    /// runs); histogram `portfolio.winner_iterations`.
    ///
    /// # Panics
    ///
    /// Panics if any of those names is already registered.
    #[must_use]
    pub fn register(registry: &mut MetricsRegistry) -> Self {
        Self {
            runs: registry.counter("portfolio.runs"),
            solved_runs: registry.counter("portfolio.solved_runs"),
            walks: registry.counter("portfolio.walks"),
            solved_walks: registry.counter("portfolio.solved_walks"),
            iterations: registry.counter("portfolio.iterations"),
            restarts: registry.counter("portfolio.restarts"),
            best_cost: registry.gauge("portfolio.best_cost"),
            winner_iterations: registry.histogram(
                "portfolio.winner_iterations",
                &[100, 1_000, 10_000, 100_000],
            ),
        }
    }

    /// Fold one completed portfolio run into the instruments.
    pub fn observe(&self, result: &BatchExecution) {
        self.runs.inc();
        if result.winner.is_some() {
            self.solved_runs.inc();
        }
        self.walks.add(result.records.len() as u64);
        self.iterations.add(result.total_iterations());
        for record in &result.records {
            if record.outcome.solved() {
                self.solved_walks.inc();
            }
            self.restarts.add(record.outcome.stats.restarts);
            self.best_cost.record_min(record.outcome.best_cost);
        }
        if let Some(iterations) = result.winning_iterations() {
            self.winner_iterations.record(iterations);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbls_core::SearchConfig;
    use cbls_parallel::{SequentialExecutor, WalkExecutor};
    use cbls_portfolio::{member_stats, Portfolio, PortfolioMember, Schedule};
    use cbls_problems::Benchmark;

    fn run_once(seed: u64) -> BatchExecution {
        let bench = Benchmark::NQueens(10);
        let protos = vec![
            PortfolioMember::new("fixed", SearchConfig::default(), Schedule::fixed(10_000, 3)),
            PortfolioMember::new("luby", SearchConfig::default(), Schedule::luby(2_000, 15)),
        ];
        let portfolio = Portfolio::cycled(&protos, 2).with_master_seed(seed);
        SequentialExecutor.execute(&|| bench.build(), &portfolio.batch())
    }

    #[test]
    fn observe_accumulates_across_runs() {
        let mut registry = MetricsRegistry::new();
        let metrics = PortfolioMetrics::register(&mut registry);
        let a = run_once(42);
        let b = run_once(43);
        metrics.observe(&a);
        metrics.observe(&b);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("portfolio.runs"), Some(2));
        assert_eq!(snapshot.counter("portfolio.walks"), Some(4));
        assert_eq!(
            snapshot.counter("portfolio.iterations"),
            Some(a.total_iterations() + b.total_iterations())
        );
        let solved = [&a, &b]
            .iter()
            .flat_map(|r| r.records.iter())
            .filter(|r| r.outcome.solved())
            .count() as u64;
        assert_eq!(snapshot.counter("portfolio.solved_walks"), Some(solved));
        // queens-10 is solvable: at least one run should have solved,
        // pinning the winner histogram and the best-cost gauge at 0.
        assert!(snapshot.counter("portfolio.solved_runs").unwrap() >= 1);
        assert_eq!(snapshot.gauge("portfolio.best_cost"), Some(0));
        let hist = snapshot.histogram("portfolio.winner_iterations").unwrap();
        assert!(hist.count >= 1);
    }

    #[test]
    fn member_stats_group_walks_by_label() {
        let result = run_once(42);
        let stats = member_stats(&result);
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].label, "fixed");
        assert_eq!(stats[1].label, "luby");
        assert_eq!(stats.iter().map(|s| s.walks).sum::<usize>(), 2);
        let total: u64 = stats.iter().map(|s| s.iterations).sum();
        assert_eq!(total, result.total_iterations());
        assert_eq!(
            stats.iter().filter(|s| s.won).count(),
            usize::from(result.winner.is_some())
        );
    }
}
