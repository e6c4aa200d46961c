//! Integration of the parallel runners with the real benchmark models: the
//! paper's multi-walk scheme end-to-end through the facade crate.

use parallel_cbls::prelude::*;

#[test]
fn independent_multiwalk_solves_costas_with_every_backend() {
    let batch = WalkBatch::uniform(2012, &Benchmark::CostasArray(10).tuned_config(), 4);
    let checker = CostasArray::new(10);
    for execution in [
        ThreadsExecutor.execute(&|| CostasArray::new(10), &batch),
        SequentialExecutor.execute(&|| CostasArray::new(10), &batch),
    ] {
        let winner = execution.winning_record().expect("costas-10 solves");
        assert!(Evaluator::verify(&checker, &winner.outcome.solution));
    }
}

#[test]
fn simulated_multiwalk_speedup_is_monotone_on_costas() {
    let search = Benchmark::CostasArray(11).tuned_config();
    let sim = SimulatedMultiWalk::replay(
        &|| CostasArray::new(11),
        &WalkBatch::uniform(5, &search, 16),
        &SequentialExecutor,
    );
    assert!(sim.success_rate() > 0.9);
    let mut last = u64::MAX;
    for p in [1usize, 2, 4, 8, 16] {
        let iters = sim.parallel_iterations(p).expect("solved prefix");
        assert!(iters <= last);
        last = iters;
    }
    // more walks never hurt the speedup
    let s2 = sim.speedup(2).unwrap();
    let s16 = sim.speedup(16).unwrap();
    assert!(s16 >= s2 * 0.999);
}

#[test]
fn walk_trajectories_are_independent_of_the_walk_count() {
    // Walk #3 must behave identically whether it is part of a 4-walk or a
    // 16-walk replay — this is what makes the simulated sweep valid.
    let search = Benchmark::NQueens(20).tuned_config();
    let small = SimulatedMultiWalk::replay(
        &|| NQueens::new(20),
        &WalkBatch::uniform(77, &search, 4),
        &SequentialExecutor,
    );
    let large = SimulatedMultiWalk::replay(
        &|| NQueens::new(20),
        &WalkBatch::uniform(77, &search, 16),
        &SequentialExecutor,
    );
    for walk in 0..4 {
        assert_eq!(
            small.records()[walk].outcome.stats.iterations,
            large.records()[walk].outcome.stats.iterations
        );
        assert_eq!(small.records()[walk].seed, large.records()[walk].seed);
    }
}

#[test]
fn first_finisher_stops_the_other_walks() {
    // With many walks on an easy problem, the losers are interrupted: their
    // termination reason is ExternallyStopped (or they solved too).
    let search = SearchConfig::builder()
        .max_iterations_per_restart(200_000)
        .max_restarts(10)
        .stop_check_interval(1)
        .build();
    let batch = WalkBatch::uniform(4, &search, 6);
    let result = ThreadsExecutor.execute(&|| NQueens::new(40), &batch);
    assert!(result.winner.is_some());
    for report in &result.records {
        assert!(
            report.outcome.solved()
                || report.outcome.reason == TerminationReason::ExternallyStopped
                || report.outcome.reason == TerminationReason::IterationBudgetExhausted,
            "unexpected reason {:?}",
            report.outcome.reason
        );
    }
}

#[test]
fn dependent_walks_solve_the_cap_and_report_cooperation() {
    let search = Benchmark::CostasArray(10).tuned_config();
    let config = DependentWalkConfig::new(3)
        .with_master_seed(8)
        .with_search(search)
        .with_segment_iterations(2_000)
        .with_max_segments(100);
    let result = run_dependent(&|| CostasArray::new(10), &config);
    assert!(result.solved, "dependent walks failed: {result:?}");
    assert_eq!(result.best_cost, 0);
    let checker = CostasArray::new(10);
    assert!(Evaluator::verify(&checker, &result.solution));
    // Pinned: walk 0 solves inside the first segment.
    assert_eq!(
        (result.best_walk, result.segments, result.elite_adoptions),
        (0, 1, 0)
    );
    assert_eq!(
        result.stats,
        SearchStats {
            iterations: 250,
            swaps: 143,
            local_minima: 107,
            plateau_moves: 75,
            forced_moves: 0,
            variables_marked: 107,
            resets: 53,
            restarts: 0,
            swap_evaluations: 2250,
        }
    );
    assert_eq!(result.solution, vec![1, 8, 7, 4, 2, 3, 6, 0, 9, 5]);

    // 15-iteration segments: later segments restart every walk from an
    // initial configuration (the perturbed elite or its own best), the only
    // engine runs in the workspace that start from a given permutation.
    let short = config.with_segment_iterations(15);
    let result = run_dependent(&|| CostasArray::new(10), &short);
    assert!(result.solved);
    assert_eq!(
        (result.best_walk, result.segments, result.elite_adoptions),
        (1, 6, 3)
    );
    assert_eq!(
        result.stats,
        SearchStats {
            iterations: 266,
            swaps: 141,
            local_minima: 125,
            plateau_moves: 63,
            forced_moves: 0,
            variables_marked: 125,
            resets: 59,
            restarts: 0,
            swap_evaluations: 2394,
        }
    );
    assert_eq!(result.solution, vec![6, 9, 4, 1, 0, 5, 3, 7, 8, 2]);
}
