//! Regression: both execution back-ends (`ThreadsExecutor` and
//! `SequentialExecutor` — running flat batches, portfolio batches,
//! `SimulatedMultiWalk` replays and the dependent-walk runner) must agree on
//! the winning walk's identity, seed, statistics and solution for a fixed
//! `(master_seed, walks)` pair.
//!
//! A first-finisher batch stops each losing walk once it has done the
//! winner's iteration count, and a walk checks for a solution before it
//! checks that bound.  So the winner is the fewest-iteration walk on every
//! back-end, the one a run-to-completion replay picks, and the batches below
//! run uncapped.  Which losing walks solved, and where they stopped, may
//! differ between back-ends and are not compared.  The dependent-walk scheme
//! is deterministic by design, so its back-ends must agree on *everything*.

use parallel_cbls::parallel::WalkRecord;
use parallel_cbls::prelude::*;

/// The largest batch of the flat scenarios; every smaller one is a prefix.
const MAX_WALKS: usize = 8;

/// The batch sizes also run on threads.
const THREADED_WALKS: [usize; 3] = [2, 4, 8];

/// Every deterministic field of a winning record: all but the elapsed time.
fn assert_same_winner(context: &str, execution: &BatchExecution, expect: Option<&WalkRecord>) {
    assert_eq!(
        execution.winner,
        expect.map(|r| r.walk_id),
        "{context}: winner"
    );
    let (Some(got), Some(expect)) = (execution.winning_record(), expect) else {
        return;
    };
    assert_eq!(got.seed, expect.seed, "{context}: seed");
    assert_eq!(got.label, expect.label, "{context}: label");
    assert_eq!(got.attempt, expect.attempt, "{context}: attempt");
    assert_eq!(got.outcome.reason, expect.outcome.reason, "{context}");
    assert_eq!(got.outcome.best_cost, expect.outcome.best_cost, "{context}");
    assert_eq!(got.outcome.stats, expect.outcome.stats, "{context}: stats");
    assert_eq!(
        got.outcome.solution, expect.outcome.solution,
        "{context}: solution"
    );
}

/// Uncapped first-finisher batches of `bench`'s tuned configuration over ten
/// master seeds.  Every `p`-walk batch with `p ≤ 8` on `SequentialExecutor`,
/// and the 2-, 4- and 8-walk batches on `ThreadsExecutor`, must return the
/// winner, and the winning record, of one run-to-completion replay of 8
/// walks: walk `i` draws the same stream whatever the batch size, so
/// `replay.winner(p)` is the `p`-walk minimum.
fn assert_backends_agree(bench: &Benchmark) {
    let factory = || bench.build();
    let search = bench.tuned_config();
    let mut solved = 0;
    for master_seed in 0..10 {
        let sim = SimulatedMultiWalk::replay(
            &factory,
            &WalkBatch::uniform(master_seed, &search, MAX_WALKS),
            &SequentialExecutor,
        );
        for walks in 1..=MAX_WALKS {
            let batch = WalkBatch::uniform(master_seed, &search, walks);
            let expect = sim.winner(walks).map(|w| &sim.records()[w]);
            let sequential = SequentialExecutor.execute(&factory, &batch);
            let context = format!("{} seed {master_seed}, {walks} walks", bench.id());
            assert_eq!(
                sequential.winning_iterations(),
                sim.parallel_iterations(walks),
                "{context}: sequential prefix minimum"
            );
            assert_same_winner(&format!("{context}, sequential"), &sequential, expect);
            if THREADED_WALKS.contains(&walks) {
                let threads = ThreadsExecutor.execute(&factory, &batch);
                assert_same_winner(&format!("{context}, threads"), &threads, expect);
                assert_eq!(threads.records.len(), walks);
                assert_eq!(threads.incumbent, sequential.incumbent, "{context}");
            }
            solved += usize::from(expect.is_some());
        }
    }
    assert!(solved > 0, "{}: no batch solved", bench.id());
}

#[test]
fn backends_agree_on_nqueens_32() {
    assert_backends_agree(&Benchmark::NQueens(32));
}

#[test]
fn backends_agree_on_costas_9() {
    assert_backends_agree(&Benchmark::CostasArray(9));
}

#[test]
fn backends_agree_on_langford_2_12() {
    assert_backends_agree(&Benchmark::Langford(12));
}

#[test]
fn backends_agree_on_all_interval_12() {
    assert_backends_agree(&Benchmark::AllInterval(12));
}

#[test]
fn backends_agree_on_magic_square_4() {
    assert_backends_agree(&Benchmark::MagicSquare(4));
}

#[test]
fn backends_agree_on_perfect_square_order9() {
    assert_backends_agree(&Benchmark::PerfectSquareOrder9);
}

#[test]
fn backends_agree_on_golomb_6() {
    assert_backends_agree(&Benchmark::GolombRuler(6));
}

#[test]
fn backends_agree_on_magic_sequence_8() {
    assert_backends_agree(&Benchmark::MagicSequence(8));
}

/// Under run-to-completion semantics several walks solve, and the winner is
/// still the iteration minimum over the solved records: the same walk on
/// every executor, with every record bit-identical.
#[test]
fn iterations_first_winner_rule_is_deterministic_across_backends() {
    let bench = Benchmark::CostasArray(9);
    let factory = || bench.build();
    let jobs: Vec<WalkJob> = (0..4).map(|_| WalkJob::new(bench.tuned_config())).collect();
    let batch = WalkBatch::new(WalkSeeds::new(7), jobs).run_to_completion();

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
            "{label}: the winner is the iteration-minimum walk"
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

/// A solved batch's incumbent is its winning record, plain or supervised, on
/// every back-end.  In this scenario both walks solve and walk 1 wins, so a
/// lowest-walk-id rule at the best cost would name walk 0 instead.
#[test]
fn incumbent_follows_the_winner_on_every_backend() {
    let bench = Benchmark::NQueens(32);
    let factory = || bench.build();
    let batch = WalkBatch::uniform(0, &bench.tuned_config(), 2).run_to_completion();
    fn check(label: &str, execution: &BatchExecution) {
        assert_eq!(execution.winner, Some(1), "{label}: walk 1 wins");
        assert!(execution.records[0].outcome.solved(), "{label}");
        let winning = execution.winning_record().expect("a winner");
        let incumbent = execution.incumbent.as_ref().expect("an incumbent");
        assert_eq!(incumbent.walk_id, winning.walk_id, "{label}");
        assert_eq!(incumbent.cost, winning.outcome.best_cost, "{label}");
        assert_eq!(incumbent.assignment, winning.outcome.solution, "{label}");
    }
    check("sequential", &SequentialExecutor.execute(&factory, &batch));
    check("threads", &ThreadsExecutor.execute(&factory, &batch));
    check(
        "supervised sequential",
        &Supervisor::new(SequentialExecutor)
            .run(&factory, &batch)
            .execution,
    );
    check(
        "supervised threads",
        &Supervisor::new(ThreadsExecutor)
            .run(&factory, &batch)
            .execution,
    );
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

/// Check that both executors agree on a heterogeneous portfolio: its replay
/// is bit-identical on every back-end, and first-finisher runs return the
/// replay's winner with its record.
fn assert_portfolio_backends_agree(bench: &Benchmark, master_seed: u64, walks: usize) {
    let factory = || bench.build();
    let batch = heterogeneous_portfolio(bench, master_seed, walks, 2_000_000).batch();
    let sim = SimulatedMultiWalk::replay(&factory, &batch, &SequentialExecutor);
    assert!(
        (sim.success_rate() - 1.0).abs() < 1e-12,
        "{}: every walk of the portfolio must solve",
        bench.id()
    );
    let threaded_replay = SimulatedMultiWalk::replay(&factory, &batch, &ThreadsExecutor);
    for (r, p) in threaded_replay.records().iter().zip(sim.records().iter()) {
        assert_eq!(r.seed, p.seed, "{}", bench.id());
        assert_eq!(r.label, p.label, "{}", bench.id());
        assert_eq!(r.outcome.stats, p.outcome.stats, "{}", bench.id());
        assert_eq!(r.outcome.solution, p.outcome.solution, "{}", bench.id());
    }

    let expect = sim.winner(walks).map(|w| &sim.records()[w]);
    for (label, result) in [
        ("threads", ThreadsExecutor.execute(&factory, &batch)),
        ("sequential", SequentialExecutor.execute(&factory, &batch)),
    ] {
        assert_same_winner(&format!("{} {label}", bench.id()), &result, expect);
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
