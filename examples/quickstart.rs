//! Quickstart: solve one instance of each hand-coded catalog model (the
//! paper's four benchmarks plus queens, Langford pairs and the alpha
//! cryptarithm) sequentially and print what the engine did.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use parallel_cbls::prelude::*;

fn main() {
    println!("Adaptive Search quickstart — one sequential run per benchmark\n");

    let benchmarks = [
        Benchmark::MagicSquare(5),
        Benchmark::AllInterval(14),
        Benchmark::PerfectSquareOrder9,
        Benchmark::CostasArray(10),
        Benchmark::NQueens(50),
        Benchmark::Langford(8),
        Benchmark::Alpha,
    ];

    println!(
        "{:<28} {:>8} {:>12} {:>10} {:>8} {:>10}",
        "benchmark", "solved", "iterations", "swaps", "resets", "time"
    );
    for benchmark in benchmarks {
        let mut problem = benchmark.build();
        let engine = benchmark.engine();
        let outcome = engine.solve(&mut problem, &mut default_rng(2012));
        assert!(
            problem.verify(&outcome.solution) || !outcome.solved(),
            "engine reported an invalid solution"
        );
        println!(
            "{:<28} {:>8} {:>12} {:>10} {:>8} {:>10.2?}",
            benchmark.label(),
            outcome.solved(),
            outcome.stats.iterations,
            outcome.stats.swaps,
            outcome.stats.resets,
            outcome.elapsed
        );
    }

    // Show one concrete solution the way the paper draws its size-5 example.
    let mut costas = CostasArray::new(5);
    let engine = AdaptiveSearch::tuned_for(&costas);
    let outcome = engine.solve(&mut costas, &mut default_rng(7));
    println!("\nA Costas array of order 5 (cf. the paper's example figure):");
    println!("{}", costas.render(&outcome.solution));

    let mut magic = MagicSquare::new(4);
    let engine = AdaptiveSearch::tuned_for(&magic);
    let outcome = engine.solve(&mut magic, &mut default_rng(7));
    println!(
        "A 4x4 magic square (magic constant {}):",
        magic.magic_constant()
    );
    println!("{}", magic.render(&outcome.solution));
}
