//! End-to-end integration: every benchmark of the registry is solved through
//! the public facade API and the solutions pass the models' independent
//! verifiers.

use parallel_cbls::prelude::*;

fn solve(benchmark: &Benchmark, seed: u64) -> (Box<dyn Evaluator>, SearchOutcome) {
    let mut problem = benchmark.build();
    let engine = benchmark.engine();
    let outcome = engine.solve(&mut problem, &mut default_rng(seed));
    (problem, outcome)
}

#[test]
fn every_registry_benchmark_solves_and_verifies() {
    let benchmarks = [
        Benchmark::MagicSquare(4),
        Benchmark::MagicSquare(5),
        Benchmark::AllInterval(12),
        Benchmark::PerfectSquareOrder9,
        Benchmark::CostasArray(9),
        Benchmark::NQueens(16),
        Benchmark::Langford(7),
        Benchmark::Alpha,
    ];
    for benchmark in benchmarks {
        let (problem, outcome) = solve(&benchmark, 7);
        assert!(
            outcome.solved(),
            "{} did not solve: {:?}",
            benchmark.id(),
            outcome.reason
        );
        assert_eq!(outcome.best_cost, 0, "{}", benchmark.id());
        assert!(
            problem.verify(&outcome.solution),
            "{} produced a solution that fails independent verification",
            benchmark.id()
        );
        assert_eq!(outcome.solution.len(), benchmark.variables());
    }
}

#[test]
fn the_csplib_suite_matches_the_papers_three_benchmarks() {
    let suite = Benchmark::csplib_suite();
    assert_eq!(suite.len(), 3);
    for benchmark in suite {
        let (problem, outcome) = solve(&benchmark, 11);
        assert!(outcome.solved(), "{}", benchmark.id());
        assert!(problem.verify(&outcome.solution));
    }
}

#[test]
fn solutions_differ_across_seeds_but_all_verify() {
    let benchmark = Benchmark::CostasArray(10);
    let mut solutions = Vec::new();
    for seed in 0..5 {
        let (problem, outcome) = solve(&benchmark, seed);
        assert!(outcome.solved());
        assert!(problem.verify(&outcome.solution));
        solutions.push(outcome.solution);
    }
    solutions.sort();
    solutions.dedup();
    assert!(
        solutions.len() > 1,
        "five seeds should not all converge to the same Costas array"
    );
}

#[test]
fn engine_statistics_are_internally_consistent() {
    let benchmark = Benchmark::MagicSquare(5);
    let (_, outcome) = solve(&benchmark, 3);
    let stats = &outcome.stats;
    assert!(stats.swaps <= stats.iterations);
    assert!(stats.plateau_moves + stats.forced_moves <= stats.swaps);
    assert!(stats.swap_evaluations >= stats.swaps);
    assert!(stats.variables_marked <= stats.local_minima);
}

#[test]
fn unsatisfiable_instances_fail_gracefully() {
    // L(2, 5) has no solution; the engine must exhaust its budget, report the
    // best cost reached and never claim success.
    let mut problem = Langford::new(5);
    let config = SearchConfig::builder()
        .max_iterations_per_restart(5_000)
        .max_restarts(3)
        .build();
    let engine = AdaptiveSearch::new(config);
    let outcome = engine.solve(&mut problem, &mut default_rng(1));
    assert!(!outcome.solved());
    assert!(outcome.best_cost > 0);
    assert_eq!(outcome.reason, TerminationReason::IterationBudgetExhausted);
}
