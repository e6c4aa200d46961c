//! Restart schedules, heterogeneous portfolios and adaptive walk
//! allocation on the Costas Array Problem.
//!
//! Three things happen here:
//!
//! 1. a heterogeneous portfolio (the paper's fixed restart policy next to a
//!    Luby and a geometric schedule) runs with true first-finisher
//!    parallelism;
//! 2. the same portfolio is replayed deterministically and the
//!    order-statistics *predicted* speedup is printed next to the *observed*
//!    prefix-minimum speedup — the paper's analysis against an empirical
//!    distribution;
//! 3. an adaptive scheduler reallocates walks towards the strategies with
//!    the best observed left tail over successive solve requests.
//!
//! ```text
//! cargo run --release --example portfolio           # CAP 11, 16 walks
//! cargo run --release --example portfolio 12 32     # CAP 12, 32 walks
//! ```

use cbls_bench::portfolio::costas_portfolio;
use parallel_cbls::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let order: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(11);
    let walks: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(16);

    // --- 1. a true parallel portfolio run, first finisher wins -------------
    // The run goes through the walk executor's threads back-end with a
    // DistributionSink attached: solved walks' iteration counts stream into
    // the order-statistics accumulator online, as the walks finish.
    let portfolio = costas_portfolio(order, walks, 2012);
    let sink = DistributionSink::new();
    let result = ThreadsExecutor.execute_with_telemetry(
        &|| CostasArray::new(order),
        &portfolio.batch(),
        &sink,
    );
    println!("Costas Array Problem, order {order} — {walks}-walk heterogeneous portfolio\n");
    match result.winning_record() {
        Some(record) => println!(
            "solved by walk {} ({}) after {} iterations in {:.2?} \
             ({} solved walks recorded online)\n",
            record.walk_id,
            record.label,
            record.outcome.stats.iterations,
            result.wall_time,
            sink.len(),
        ),
        None => println!("no walk solved the instance within its schedule\n"),
    }

    // --- 2. predicted vs observed speedup over the replayed portfolio ------
    let sim = SimulatedMultiWalk::replay(
        &|| CostasArray::new(order),
        &portfolio.batch(),
        &ThreadsExecutor,
    );
    let walk_counts: Vec<usize> = (0..)
        .map(|k| 1usize << k)
        .take_while(|&p| p <= walks)
        .collect();
    println!(
        "{:>6} {:>18} {:>18} {:>12} {:>12}",
        "walks", "predicted-iters", "observed-iters", "pred-spdup", "obs-spdup"
    );
    for row in sim
        .predicted_vs_observed(&walk_counts)
        .expect("some walk solved the instance")
    {
        println!(
            "{:>6} {:>18.0} {:>18} {:>12.2} {:>12}",
            row.walks,
            row.predicted_iterations,
            row.observed_iterations
                .map_or_else(|| "-".to_string(), |i| i.to_string()),
            row.predicted_speedup,
            row.observed_speedup
                .map_or_else(|| "-".to_string(), |s| format!("{s:.2}")),
        );
    }
    println!(
        "success rate: {:.2}; pooled CoV: {:.2} (≈1.0 ⇒ near-linear speedup regime)",
        sim.success_rate(),
        sim.iteration_distribution()
            .expect("some walk solved the instance")
            .coefficient_of_variation()
    );

    // --- 3. adaptive walk allocation across solve requests -----------------
    // One prototype per strategy, independent of how many walks ran above.
    let prototypes = costas_portfolio(order, 3, 2012).members().to_vec();
    let mut scheduler = AdaptiveScheduler::new(prototypes, 2012);
    let round_walks = walks.clamp(3, 12);
    println!("\nadaptive allocation over 3 rounds ({round_walks} walks each):");
    for round in 0..3 {
        let allocation = scheduler.allocation(round_walks);
        let labels: Vec<String> = scheduler
            .strategies()
            .iter()
            .zip(&allocation)
            .map(|(s, a)| format!("{}={a}", s.label))
            .collect();
        println!("  round {round}: {}", labels.join("  "));
        let next = scheduler.next_portfolio(round_walks);
        let round_sim = SimulatedMultiWalk::replay(
            &|| CostasArray::new(order),
            &next.batch(),
            &ThreadsExecutor,
        );
        scheduler.record(round_sim.records());
    }
}
