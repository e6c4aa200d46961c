//! Regression: both execution back-ends (`ThreadsExecutor` and
//! `SequentialExecutor` — running flat batches, portfolio batches,
//! `SimulatedMultiWalk` replays and the dependent-walk runner) must agree on
//! the winning walk's identity, seed and iteration count for a fixed
//! `(master_seed, walks)` pair.
//!
//! First-finisher runs resolve their winner by wall-clock arrival, which is
//! only comparable to the simulation's iteration-minimum when a unique walk
//! can finish at all.  Each flat multi-walk scenario therefore caps the
//! iteration budget *between* the fastest walk's iterations-to-solution and
//! the runner-up's (values established by a deterministic replay), so
//! exactly one walk can solve and scheduling noise cannot change the winner.
//! The heterogeneous portfolio scenarios calibrate that budget in-test from
//! a probe replay; the dependent-walk scheme is deterministic by design, so
//! its back-ends must agree on *everything*.

use parallel_cbls::prelude::*;

fn assert_backends_agree(bench: &Benchmark, master_seed: u64, walks: usize, budget: u64) {
    let mut search = bench.tuned_config();
    search.max_restarts = 0;
    search.max_iterations_per_restart = budget;
    let factory = || bench.build();

    let batch = WalkBatch::uniform(master_seed, &search, walks);
    let sim = SimulatedMultiWalk::replay(&factory, &batch, &SequentialExecutor);
    let solved = sim.solved_iterations().len();
    assert_eq!(
        solved,
        1,
        "{}: the scenario must isolate a unique winner, got {solved} solved walks",
        bench.id()
    );
    let expect_winner = sim.winner(walks).expect("one walk solved");
    let expect = &sim.records()[expect_winner];

    let backends = [
        ("threads", ThreadsExecutor.execute(&factory, &batch)),
        ("sequential", SequentialExecutor.execute(&factory, &batch)),
    ];
    for (label, result) in backends {
        let winner = result
            .winner
            .unwrap_or_else(|| panic!("{}: {label} backend found no winner", bench.id()));
        assert_eq!(
            winner,
            expect_winner,
            "{}: {label} winner disagrees with the replay",
            bench.id()
        );
        let report = &result.records[winner];
        assert_eq!(report.seed, expect.seed);
        assert_eq!(report.seed, WalkSeeds::new(master_seed).seed_of(winner));
        assert_eq!(
            report.outcome.stats.iterations,
            expect.outcome.stats.iterations,
            "{}: {label} winner iteration count disagrees with the replay",
            bench.id()
        );
        assert_eq!(report.outcome.solution, expect.outcome.solution);
        assert_eq!(result.records.len(), walks);
    }
}

#[test]
fn backends_agree_on_nqueens_32() {
    // Replay of (seed 4, 4 walks, unlimited budget): walk 0 solves after 9
    // iterations, the runner-up needs 14 — a budget of 11 isolates walk 0.
    assert_backends_agree(&Benchmark::NQueens(32), 4, 4, 11);
}

#[test]
fn backends_agree_on_costas_9() {
    // Replay of (seed 7, 4 walks, unlimited budget): walk 0 solves after 5
    // iterations, the runner-up needs 28 — a budget of 16 isolates walk 0.
    assert_backends_agree(&Benchmark::CostasArray(9), 7, 4, 16);
}

/// The winner-rule option: under run-to-completion semantics several walks
/// solve, so the historical `WallClockFirst` rule resolves the winner by a
/// wall-clock measurement that can differ back-end to back-end.  Pinning
/// `WinnerRule::IterationsFirst` on the batch makes the winner a pure
/// function of `(master_seed, walks)` — the same walk on every executor,
/// equal to the iteration-minimum over the solved records.
#[test]
fn iterations_first_winner_rule_is_deterministic_across_backends() {
    let bench = Benchmark::CostasArray(9);
    let factory = || bench.build();
    let jobs: Vec<WalkJob> = (0..4).map(|_| WalkJob::new(bench.tuned_config())).collect();
    let batch = WalkBatch::new(WalkSeeds::new(7), jobs)
        .run_to_completion()
        .with_winner_rule(WinnerRule::IterationsFirst);
    // the rule is opt-in: a fresh batch keeps the historical default
    assert_eq!(
        WalkBatch::new(WalkSeeds::new(7), vec![WalkJob::new(bench.tuned_config())]).winner_rule(),
        WinnerRule::WallClockFirst
    );

    let runs = [
        ("sequential", SequentialExecutor.execute(&factory, &batch)),
        ("threads", ThreadsExecutor.execute(&factory, &batch)),
    ];
    let expect = &runs[0].1;
    let solved = expect.records.iter().filter(|r| r.outcome.solved()).count();
    assert!(
        solved >= 2,
        "the scenario needs winner contention, got {solved} solved walks"
    );
    let by_iterations = expect
        .records
        .iter()
        .filter(|r| r.outcome.solved())
        .min_by_key(|r| (r.outcome.stats.iterations, r.walk_id))
        .map(|r| r.walk_id);
    for (label, run) in &runs {
        assert_eq!(
            run.winner, by_iterations,
            "{label}: IterationsFirst must pick the iteration-minimum walk"
        );
        assert_eq!(
            select_winner_by(&run.records, WinnerRule::IterationsFirst),
            run.winner,
            "{label}: the batch winner matches the standalone selector"
        );
        for (a, b) in expect.records.iter().zip(run.records.iter()) {
            assert_eq!(
                a.outcome.stats, b.outcome.stats,
                "{label}: walk {}",
                a.walk_id
            );
            assert_eq!(a.outcome.solution, b.outcome.solution, "{label}");
        }
    }
}

/// Three strategy variants of a benchmark's tuned configuration, each under
/// a one-slice fixed schedule of `budget` iterations — a genuinely
/// heterogeneous portfolio (greedy first-improvement and a halved plateau
/// acceptance next to the tuned baseline).
fn heterogeneous_portfolio(
    bench: &Benchmark,
    master_seed: u64,
    walks: usize,
    budget: u64,
) -> Portfolio {
    let tuned = bench.tuned_config();
    let mut eager = tuned.clone();
    eager.first_best = true;
    let mut sticky = tuned.clone();
    sticky.plateau_probability = (tuned.plateau_probability * 0.5).clamp(0.0, 1.0);
    let protos = vec![
        PortfolioMember::new("tuned", tuned, Schedule::fixed(budget, 0)),
        PortfolioMember::new("first-best", eager, Schedule::fixed(budget, 0)),
        PortfolioMember::new("sticky", sticky, Schedule::fixed(budget, 0)),
    ];
    Portfolio::cycled(&protos, walks).with_master_seed(master_seed)
}

/// Check that both executors agree on a heterogeneous portfolio: the replay
/// is bit-identical on every back-end, and first-finisher runs pick the
/// replay's winner (same walk, seed and iteration count).
///
/// The isolating budget is calibrated in-test: a probe replay with a huge
/// budget establishes each walk's iterations-to-solution, and the scenario
/// then caps every schedule strictly between the fastest walk and the
/// runner-up, so exactly one walk can solve.
fn assert_portfolio_backends_agree(bench: &Benchmark, master_seed: u64, walks: usize) {
    let factory = || bench.build();

    // --- probe: every walk to completion, find the unique fastest walk ---
    let probe = heterogeneous_portfolio(bench, master_seed, walks, 2_000_000);
    let sim = SimulatedMultiWalk::replay(&factory, &probe.batch(), &ThreadsExecutor);
    assert!(
        (sim.success_rate() - 1.0).abs() < 1e-12,
        "{}: the probe portfolio must solve on every walk",
        bench.id()
    );
    let mut iters: Vec<u64> = sim.solved_iterations();
    let expect_winner = sim.winner(walks).expect("all walks solved");
    let expect = &sim.records()[expect_winner];
    iters.sort_unstable();
    assert!(
        iters[0] < iters[1],
        "{}: the scenario needs a unique fastest walk, got {iters:?}",
        bench.id()
    );
    let budget = (iters[0] + iters[1]) / 2;

    // --- capped portfolio: the replays agree bit for bit ---
    let capped = heterogeneous_portfolio(bench, master_seed, walks, budget).batch();
    let replays = [
        (
            "threads",
            SimulatedMultiWalk::replay(&factory, &capped, &ThreadsExecutor),
        ),
        (
            "sequential",
            SimulatedMultiWalk::replay(&factory, &capped, &SequentialExecutor),
        ),
    ];
    for (label, replay) in &replays {
        assert_eq!(
            replay.winner(walks),
            Some(expect_winner),
            "{}: {label} replay winner disagrees with the probe",
            bench.id()
        );
        assert_eq!(
            replay.solved_iterations().len(),
            1,
            "{}: {label}",
            bench.id()
        );
        for (r, p) in replay.records().iter().zip(sim.records().iter()) {
            assert_eq!(r.seed, p.seed);
            assert_eq!(r.label, p.label);
            if r.outcome.solved() {
                assert_eq!(r.outcome.stats.iterations, p.outcome.stats.iterations);
                assert_eq!(r.outcome.solution, p.outcome.solution);
            }
        }
    }

    // --- first-finisher runs: the winner is the replay's winner ---
    let backends = [
        ("threads", ThreadsExecutor.execute(&factory, &capped)),
        ("sequential", SequentialExecutor.execute(&factory, &capped)),
    ];
    for (label, result) in backends {
        let winner = result
            .winner
            .unwrap_or_else(|| panic!("{}: {label} backend found no winner", bench.id()));
        assert_eq!(
            winner,
            expect_winner,
            "{}: {label} winner disagrees with the replay",
            bench.id()
        );
        let report = &result.records[winner];
        assert_eq!(report.seed, expect.seed);
        assert_eq!(report.seed, capped.seeds().seed_of(winner));
        assert_eq!(report.label, expect.label);
        assert_eq!(
            report.outcome.stats.iterations,
            expect.outcome.stats.iterations,
            "{}: {label} winner iteration count disagrees with the replay",
            bench.id()
        );
        assert_eq!(report.outcome.solution, expect.outcome.solution);
        assert_eq!(result.records.len(), walks);
    }
}

#[test]
fn portfolio_backends_agree_on_nqueens_32() {
    assert_portfolio_backends_agree(&Benchmark::NQueens(32), 4, 4);
}

#[test]
fn portfolio_backends_agree_on_costas_9() {
    assert_portfolio_backends_agree(&Benchmark::CostasArray(9), 7, 4);
}

#[test]
fn portfolio_backends_agree_on_langford_2_12() {
    assert_portfolio_backends_agree(&Benchmark::Langford(12), 11, 4);
}

/// The dependent-walk scheme is a deterministic function of
/// `(factory, config)` whatever the scheduler, so its result must be equal
/// in *every field* across the executors.
fn assert_dependent_backends_agree(bench: &Benchmark, master_seed: u64) {
    let factory = || bench.build();
    let config = DependentWalkConfig::new(4)
        .with_master_seed(master_seed)
        .with_search(bench.tuned_config())
        .with_segment_iterations(400)
        .with_max_segments(60);
    let threads = run_dependent_on(&factory, &config, &ThreadsExecutor);
    let sequential = run_dependent_on(&factory, &config, &SequentialExecutor);
    let default_backend = run_dependent(&factory, &config);
    for (label, other) in [("sequential", &sequential), ("default", &default_backend)] {
        assert_eq!(threads.solved, other.solved, "{}: {label}", bench.id());
        assert_eq!(
            threads.best_walk,
            other.best_walk,
            "{}: {label}",
            bench.id()
        );
        assert_eq!(
            threads.best_cost,
            other.best_cost,
            "{}: {label}",
            bench.id()
        );
        assert_eq!(threads.solution, other.solution, "{}: {label}", bench.id());
        assert_eq!(threads.segments, other.segments, "{}: {label}", bench.id());
        assert_eq!(
            threads.elite_adoptions,
            other.elite_adoptions,
            "{}: {label}",
            bench.id()
        );
        assert_eq!(threads.stats, other.stats, "{}: {label}", bench.id());
    }
    assert!(
        threads.solved,
        "{}: dependent walks should solve",
        bench.id()
    );
}

#[test]
fn dependent_backends_agree_on_nqueens_32() {
    assert_dependent_backends_agree(&Benchmark::NQueens(32), 4);
}

#[test]
fn dependent_backends_agree_on_costas_9() {
    assert_dependent_backends_agree(&Benchmark::CostasArray(9), 7);
}

#[test]
fn dependent_backends_agree_on_langford_2_12() {
    assert_dependent_backends_agree(&Benchmark::Langford(12), 11);
}
