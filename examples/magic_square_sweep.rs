//! CSPLib benchmark sweep: run the three models of the paper's Figures 1-2
//! sequentially over a range of sizes and print the statistics the companion
//! study tabulates (mean / min / max iterations over repeated runs).
//!
//! ```text
//! cargo run --release --example magic_square_sweep
//! ```

use parallel_cbls::prelude::*;

fn sweep(label: &str, benchmarks: &[Benchmark], runs: u64) {
    println!("== {label} ({runs} runs each) ==");
    println!(
        "{:<28} {:>6} {:>12} {:>12} {:>12} {:>8}",
        "instance", "solved", "mean-iters", "min-iters", "max-iters", "CoV"
    );
    for benchmark in benchmarks {
        let engine = benchmark.engine();
        let mut iterations = Vec::new();
        let mut solved = 0u64;
        for seed in 0..runs {
            let mut problem = benchmark.build();
            let outcome = engine.solve(&mut problem, &mut default_rng(1000 + seed));
            if outcome.solved() {
                solved += 1;
                iterations.push(outcome.stats.iterations);
            }
        }
        let summary = Summary::of_counts(iterations.iter().copied());
        println!(
            "{:<28} {:>5}/{:<1} {:>12.0} {:>12.0} {:>12.0} {:>8.2}",
            benchmark.label(),
            solved,
            runs,
            summary.mean,
            summary.min,
            summary.max,
            summary.coefficient_of_variation()
        );
    }
    println!();
}

fn main() {
    sweep(
        "magic square (CSPLib prob019)",
        &[
            Benchmark::MagicSquare(4),
            Benchmark::MagicSquare(5),
            Benchmark::MagicSquare(6),
        ],
        10,
    );
    sweep(
        "all-interval series (CSPLib prob007)",
        &[
            Benchmark::AllInterval(12),
            Benchmark::AllInterval(14),
            Benchmark::AllInterval(16),
        ],
        10,
    );
    sweep(
        "perfect square placement (CSPLib prob009)",
        &[Benchmark::PerfectSquareOrder9],
        10,
    );
    println!(
        "The coefficient of variation (CoV) column is the paper's story in one number:\n\
         values near 1 behave like exponential runtimes and parallelize linearly,\n\
         values well below 1 saturate early."
    );
}
