//! The heterogeneous restart-schedule portfolio on the Costas Array Problem,
//! shared by the `portfolio` example and the pinned portfolio replay of
//! `tests/determinism.rs`.

use cbls_portfolio::{Portfolio, PortfolioMember, Schedule};
use cbls_problems::Benchmark;

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
