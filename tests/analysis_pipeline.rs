//! End-to-end test of the paper's analysis pipeline through the public API:
//! measure a sequential runtime distribution with the engine, predict
//! multi-walk speedups from its order statistics, and check that the
//! predicted curves have the properties the paper's figures rely on.

use parallel_cbls::prelude::*;

/// Collect iterations-to-solution for `samples` independent runs.
fn sequential_distribution(
    benchmark: &Benchmark,
    samples: usize,
    master: u64,
) -> EmpiricalDistribution {
    let engine = benchmark.engine();
    let seeds = WalkSeeds::new(master);
    let mut iterations = Vec::new();
    for run in 0..samples {
        let mut problem = benchmark.build();
        let outcome = engine.solve(&mut problem, &mut seeds.rng_of(run));
        assert!(outcome.solved(), "{} run {run} unsolved", benchmark.id());
        iterations.push(outcome.stats.iterations);
    }
    EmpiricalDistribution::from_counts(&iterations)
}

#[test]
fn predicted_speedups_are_monotone_and_bounded_by_ideal_structure() {
    let dist = sequential_distribution(&Benchmark::CostasArray(9), 40, 9);
    let speedups: Vec<f64> = [1usize, 2, 4, 8, 16, 32]
        .iter()
        .map(|&p| dist.mean() / dist.expected_min_of(p))
        .collect();
    // monotone non-decreasing in the number of walks
    assert!(
        speedups.windows(2).all(|w| w[1] >= w[0] * 0.999),
        "{speedups:?}"
    );
    // speedup at 1 walk is exactly 1 and everything is positive
    assert!((speedups[0] - 1.0).abs() < 1e-9);
    assert!(speedups.iter().all(|s| *s > 0.0));
}

#[test]
fn simulated_walks_and_order_statistics_tell_the_same_story() {
    // The expected minimum computed from the sequential distribution must be
    // consistent with actually replaying p independent walks: the replayed
    // p-walk iteration count is one draw of the minimum, so over a few
    // master seeds its average should be within a factor ~2 of the
    // order-statistic expectation.
    let benchmark = Benchmark::CostasArray(9);
    let search = benchmark.tuned_config();
    let dist = sequential_distribution(&benchmark, 60, 21);
    let p = 8;
    let expected = dist.expected_min_of(p);

    let mut observed = Vec::new();
    for master in 0..5u64 {
        let batch = WalkBatch::uniform(1000 + master, &search, p);
        let sim = SimulatedMultiWalk::replay(&|| CostasArray::new(9), &batch, &SequentialExecutor);
        if let Some(iters) = sim.parallel_iterations(p) {
            observed.push(iters as f64);
        }
    }
    assert!(!observed.is_empty());
    let mean_observed = observed.iter().sum::<f64>() / observed.len() as f64;
    let ratio = mean_observed / expected;
    assert!(
        (0.2..5.0).contains(&ratio),
        "order statistics ({expected:.0}) and replay ({mean_observed:.0}) diverge wildly"
    );
}

#[test]
fn coefficient_of_variation_separates_the_two_regimes() {
    // The paper's two regimes: CAP behaves like an exponential (CoV ≈ 1 or
    // above), while a nearly deterministic workload has CoV ≈ 0.  Check that
    // the measured CAP CoV is clearly in the stochastic regime.
    let cap = sequential_distribution(&Benchmark::CostasArray(10), 40, 31);
    assert!(
        cap.coefficient_of_variation() > 0.5,
        "CAP runtimes should be strongly stochastic, CoV = {}",
        cap.coefficient_of_variation()
    );
    // And the expected-minimum ratio reflects it: doubling the walks from 4
    // to 8 buys a non-trivial reduction.
    let at4 = cap.expected_min_of(4);
    let at8 = cap.expected_min_of(8);
    assert!(at8 < at4);
}
