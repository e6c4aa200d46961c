//! Portfolio figure harness: predicted vs empirical multi-walk speedup for a
//! heterogeneous restart-schedule portfolio on the Costas Array Problem,
//! plus the adaptive scheduler's walk allocation over successive solve
//! requests.
//!
//! ```text
//! cargo run --release -p cbls-bench --bin portfolio_speedup
//! CBLS_CAP_ORDER=10 CBLS_WALKS=128 CBLS_SEED=7 cargo run --release -p cbls-bench --bin portfolio_speedup
//! ```

use cbls_bench::portfolio::{costas_portfolio, portfolio_figure};
use cbls_bench::speedup::Sampling;
use cbls_parallel::{SimulatedMultiWalk, ThreadsExecutor};
use cbls_perfmodel::report::{default_figure_dir, fmt_f64, Table};
use cbls_portfolio::AdaptiveScheduler;
use cbls_problems::CostasArray;

fn main() {
    let master_seed = Sampling::from_env().master_seed;
    let order = std::env::var("CBLS_CAP_ORDER")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(9);
    let walks = std::env::var("CBLS_WALKS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(64);
    eprintln!(
        "replaying a {walks}-walk fixed/luby/geometric portfolio on CAP {order} \
         (override with CBLS_CAP_ORDER / CBLS_WALKS) ..."
    );

    match portfolio_figure(order, walks, master_seed) {
        Some((table, experiment)) => {
            println!("{}", table.to_ascii());
            println!(
                "success rate: {:.2}; pooled CoV: {:.2} (≈1.0 ⇒ near-linear speedup regime)",
                experiment.simulation.success_rate(),
                experiment
                    .simulation
                    .iteration_distribution()
                    .expect("solved walks exist")
                    .coefficient_of_variation()
            );
            match table.write_csv(default_figure_dir(), "portfolio_speedup") {
                Ok(path) => eprintln!("wrote {}", path.display()),
                Err(e) => eprintln!("could not write CSV: {e}"),
            }
        }
        None => {
            eprintln!("CAP {order}: no walk solved the instance — lower the order");
            return;
        }
    }

    // Adaptive allocation across successive solve requests: start from the
    // same three prototypes and let the bandit shift walks towards the
    // strategies with the best observed left tail.
    let prototypes = costas_portfolio(order, 3, master_seed).members().to_vec();
    let mut scheduler = AdaptiveScheduler::new(prototypes, master_seed);
    let rounds = 4;
    let round_walks = walks.clamp(3, 24);
    let mut table = Table::new(
        format!("adaptive scheduler on CAP {order}: walks per strategy over {rounds} rounds"),
        &["round", "fixed", "luby", "geometric", "best_tail_iters"],
    );
    for round in 0..rounds {
        let allocation = scheduler.allocation(round_walks);
        let portfolio = scheduler.next_portfolio(round_walks);
        let sim = SimulatedMultiWalk::replay(
            &|| CostasArray::new(order),
            &portfolio.batch(),
            &ThreadsExecutor,
        );
        scheduler.record(sim.records());
        let best_tail = scheduler
            .records()
            .iter()
            .filter_map(|r| r.tail_iterations())
            .fold(f64::INFINITY, f64::min);
        table.push_row(vec![
            round.to_string(),
            allocation[0].to_string(),
            allocation[1].to_string(),
            allocation[2].to_string(),
            if best_tail.is_finite() {
                fmt_f64(best_tail)
            } else {
                "-".to_string()
            },
        ]);
    }
    println!("{}", table.to_ascii());
    match table.write_csv(default_figure_dir(), "portfolio_adaptive") {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write CSV: {e}"),
    }
}
