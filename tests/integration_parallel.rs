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
    assert!(result.stats.iterations > 0);
}

#[test]
fn speedup_curves_from_real_measurements_are_well_formed() {
    use parallel_cbls::parallel::speedup::SpeedupCurve;

    let search = Benchmark::CostasArray(10).tuned_config();
    let sim = SimulatedMultiWalk::replay(
        &|| CostasArray::new(10),
        &WalkBatch::uniform(31, &search, 32),
        &SequentialExecutor,
    );
    let measurements: Vec<(usize, f64)> = [1usize, 2, 4, 8, 16, 32]
        .iter()
        .map(|&p| (p, sim.parallel_iterations(p).unwrap() as f64 + 1.0))
        .collect();
    let curve = SpeedupCurve::from_measurements("costas-10", 1, &measurements);
    assert_eq!(curve.speedup_at(1), Some(1.0));
    assert!(curve.speedup_at(32).unwrap() >= 1.0);
    // rebasing to 8 cores keeps relative ordering
    let rebased = curve.rebased(8);
    assert!((rebased.speedup_at(8).unwrap() - 1.0).abs() < 1e-12);
}
