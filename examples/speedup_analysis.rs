//! End-to-end reproduction of the paper's analysis pipeline on one benchmark:
//! measure the sequential runtime distribution, feed it to the platform
//! models of the HA8000 and Grid'5000 machines, and print the predicted
//! 16..256-core speedup curves next to the ideal line.
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

    // Map the distribution onto the paper's time scale: pretend the mean
    // sequential run takes one hour, as CAP instances of paper size do.
    let reference_throughput = distribution.mean() / 3600.0;
    let cores = [1usize, 16, 32, 64, 128, 256];

    for platform in [Platform::ha8000(), Platform::grid5000_suno()] {
        let model = SpeedupModel::new(
            benchmark.label(),
            distribution.clone(),
            reference_throughput,
            platform.clone(),
        );
        let prediction = model.predict(&cores, 1);
        println!("--- {} ---", platform.name);
        println!(
            "{:>6} {:>14} {:>10} {:>8}",
            "cores", "seconds", "speedup", "ideal"
        );
        for point in &prediction.points {
            println!(
                "{:>6} {:>14.1} {:>10.1} {:>8}",
                point.cores, point.expected_seconds, point.speedup, point.cores
            );
        }
        println!();
    }
}
