//! The heterogeneous restart-schedule portfolio on the Costas Array Problem:
//! its order-statistics prediction against the replayed prefix minima.

use cbls_parallel::{SimulatedMultiWalk, SpeedupComparison, ThreadsExecutor};
use cbls_perfmodel::report::{fmt_f64, Table};
use cbls_portfolio::{Portfolio, PortfolioMember, Schedule};
use cbls_problems::{Benchmark, CostasArray};

/// The default heterogeneous strategy portfolio for the Costas Array
/// Problem: the paper's fixed restart policy, a Luby schedule and a
/// geometric schedule, all over the CAP-tuned engine parameters, cycled over
/// `walks` walks.
#[must_use]
pub fn costas_portfolio(order: usize, walks: usize, master_seed: u64) -> Portfolio {
    let tuned = Benchmark::CostasArray(order).tuned_config();
    let slice = tuned.max_iterations_per_restart;
    let prototypes = vec![
        PortfolioMember::new("fixed", tuned.clone(), Schedule::of_config(&tuned)),
        PortfolioMember::new("luby", tuned.clone(), Schedule::luby(slice / 8, 10_000)),
        PortfolioMember::new("geometric", tuned, Schedule::geometric(slice / 8, 2.0, 40)),
    ];
    Portfolio::cycled(&prototypes, walks).with_master_seed(master_seed)
}

/// The result of one portfolio experiment on the Costas Array Problem.
#[derive(Debug, Clone)]
pub struct PortfolioExperiment {
    /// The portfolio that was replayed.
    pub portfolio: Portfolio,
    /// The deterministic replay of every walk.
    pub simulation: SimulatedMultiWalk,
    /// Predicted-vs-observed speedup, one row per walk count.
    pub comparisons: Vec<SpeedupComparison>,
}

/// Predicted-vs-empirical portfolio speedup on the Costas Array Problem: a
/// heterogeneous portfolio (fixed / Luby / geometric restarts over the
/// CAP-tuned parameters) is replayed deterministically, its solved walks are
/// pooled into an empirical distribution, and the order-statistics
/// prediction `E[min of p draws]` is tabled against the observed prefix
/// minimum for each walk count `p`.  Returns `None` when no walk solved the
/// instance.
#[must_use]
pub fn portfolio_figure(
    order: usize,
    walks: usize,
    master_seed: u64,
) -> Option<(Table, PortfolioExperiment)> {
    let portfolio = costas_portfolio(order, walks, master_seed);
    let simulation = SimulatedMultiWalk::replay(
        &|| CostasArray::new(order),
        &portfolio.batch(),
        &ThreadsExecutor,
    );
    let walk_counts: Vec<usize> = (0..)
        .map(|k| 1usize << k)
        .take_while(|&p| p <= walks)
        .collect();
    let comparisons = simulation.predicted_vs_observed(&walk_counts)?;

    let mut table = Table::new(
        format!(
            "CAP {order} portfolio (fixed/luby/geometric, {walks} walks): predicted vs empirical speedup"
        ),
        &[
            "walks",
            "predicted_iters",
            "observed_iters",
            "predicted_speedup",
            "observed_speedup",
        ],
    );
    for row in &comparisons {
        table.push_row(vec![
            row.walks.to_string(),
            fmt_f64(row.predicted_iterations),
            row.observed_iterations
                .map_or_else(|| "-".to_string(), |i| i.to_string()),
            fmt_f64(row.predicted_speedup),
            row.observed_speedup
                .map_or_else(|| "-".to_string(), fmt_f64),
        ]);
    }
    Some((
        table,
        PortfolioExperiment {
            portfolio,
            simulation,
            comparisons,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn portfolio_figure_compares_prediction_and_observation() {
        let (table, experiment) = portfolio_figure(8, 8, 13).expect("CAP 8 solves quickly");
        assert_eq!(table.len(), 4); // walks = 1, 2, 4, 8
        assert_eq!(experiment.portfolio.walks(), 8);
        assert_eq!(experiment.comparisons.len(), 4);
        // the replay pools at least one solved walk, so a distribution exists
        assert!(experiment.simulation.iteration_distribution().is_some());
        // three distinct strategies ran
        let labels: std::collections::HashSet<&str> = experiment
            .simulation
            .records()
            .iter()
            .map(|r| r.label.as_str())
            .collect();
        assert_eq!(labels.len(), 3);
    }
}
