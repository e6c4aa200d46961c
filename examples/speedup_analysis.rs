//! End-to-end reproduction of the paper's analysis pipeline on one benchmark:
//! measure the sequential runtime distribution and print the predicted
//! speedup of 16..256 independent walks, `mean / E[min of p]` in
//! iterations, next to the ideal line.
//!
//! The measurement runs through the executor layer with a
//! [`DistributionSink`] attached: solved walks stream their
//! iterations-to-solution into the accumulator online, as they finish —
//! the same telemetry path every batch uses — instead of a hand-rolled
//! solve loop with post-hoc collection.  Walk `i` of the batch draws the
//! stream `WalkSeeds::new(42).rng_of(i)`, so the measured distribution is
//! identical to what the loop form would record.
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

    // One batch of independent walks, run to completion (every walk is a
    // sample — no first-finisher cutoff), with the distribution sink
    // consuming Finished events as telemetry.
    let factory = || benchmark.build();
    let batch = WalkBatch::uniform(42, &benchmark.tuned_config(), samples).run_to_completion();
    let sink = DistributionSink::new();
    let execution = SequentialExecutor.execute_with_telemetry(&factory, &batch, &sink);
    let solved = execution
        .records
        .iter()
        .filter(|r| r.outcome.solved())
        .count();

    let accumulator = sink.into_accumulator();
    assert_eq!(
        accumulator.len(),
        solved,
        "the online stream records exactly the solved walks"
    );
    let distribution = accumulator
        .distribution()
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
