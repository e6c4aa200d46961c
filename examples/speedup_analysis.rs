//! End-to-end reproduction of the paper's analysis pipeline on one benchmark:
//! measure the sequential runtime distribution and print the predicted
//! speedup of 16..256 independent walks, `mean / E[min of p]` in
//! iterations, next to the ideal line.
//!
//! The measurement is one replay of a batch of independent walks
//! ([`SimulatedMultiWalk::replay`]): every walk runs to completion, and the
//! solved walks' iterations-to-solution form the distribution.  Walk `i` of
//! the batch draws the stream `WalkSeeds::new(42).rng_of(i)`, so the
//! measured distribution is identical to what a hand-rolled solve loop
//! would record.
//!
//! ```text
//! cargo run --release --example speedup_analysis
//! ```

use parallel_cbls::prelude::*;

fn main() {
    let order = 11;
    let samples = 40;
    let benchmark = Benchmark::CostasArray(order);
    println!(
        "Measuring {} sequential runs of {} ...",
        samples,
        benchmark.label()
    );

    // One batch of independent walks, each run to completion: every walk
    // is a sample, with no first-finisher cutoff.
    let batch = WalkBatch::uniform(42, &benchmark.tuned_config(), samples);
    let replay = SimulatedMultiWalk::replay(&|| benchmark.build(), &batch, &SequentialExecutor);
    let distribution = replay
        .iteration_distribution()
        .expect("at least one walk must solve the instance");
    println!(
        "mean {:.0} iterations, CoV {:.2} (≈1 ⇒ exponential ⇒ linear speedup expected)\n",
        distribution.mean(),
        distribution.coefficient_of_variation()
    );

    // p independent walks cost the minimum of p draws from the sequential
    // distribution.
    println!(
        "{:>6} {:>14} {:>10} {:>8}",
        "walks", "iterations", "speedup", "ideal"
    );
    for p in [1usize, 16, 32, 64, 128, 256] {
        let parallel = distribution.expected_min_of(p);
        println!(
            "{:>6} {:>14.1} {:>10.1} {:>8}",
            p,
            parallel,
            distribution.mean() / parallel,
            p
        );
    }
}
