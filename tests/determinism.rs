//! Reproducibility guarantees: every table the bench binaries print depends
//! on fixed seeds producing identical runs, across engines, back-ends and
//! processes.

use cbls_bench::speedup::sequential_runs;
use parallel_cbls::prelude::*;

#[test]
fn sequential_runs_are_bit_reproducible() {
    for benchmark in [
        Benchmark::CostasArray(10),
        Benchmark::MagicSquare(5),
        Benchmark::AllInterval(12),
    ] {
        let run = |seed: u64| {
            let mut problem = benchmark.build();
            let engine = benchmark.engine();
            engine.solve(&mut problem, &mut default_rng(seed))
        };
        let a = run(123);
        let b = run(123);
        assert_eq!(a.stats, b.stats, "{}", benchmark.id());
        assert_eq!(a.solution, b.solution, "{}", benchmark.id());
        assert_eq!(a.best_cost, b.best_cost, "{}", benchmark.id());
    }
}

#[test]
fn simulated_multiwalk_is_reproducible_across_backends() {
    let batch = WalkBatch::uniform(55, &Benchmark::CostasArray(9).tuned_config(), 8);
    let seq = SimulatedMultiWalk::replay(&|| CostasArray::new(9), &batch, &SequentialExecutor);
    let par = SimulatedMultiWalk::replay(&|| CostasArray::new(9), &batch, &ThreadsExecutor);
    for (a, b) in seq.records().iter().zip(par.records().iter()) {
        assert_eq!(a.walk_id, b.walk_id);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.outcome.stats.iterations, b.outcome.stats.iterations);
        assert_eq!(a.outcome.solution, b.outcome.solution);
    }
}

#[test]
fn per_walk_seeds_are_stable_contract() {
    // These derived seeds are part of the reproducibility contract: changing
    // the derivation would silently change every recorded experiment, so the
    // first few values are pinned here.
    let seeds = WalkSeeds::new(0);
    let family: Vec<u64> = (0..4).map(|w| seeds.seed_of(w)).collect();
    let again: Vec<u64> = (0..4).map(|w| WalkSeeds::new(0).seed_of(w)).collect();
    assert_eq!(family, again);
    // distinct across walks and across masters
    assert_ne!(family[0], family[1]);
    assert_ne!(WalkSeeds::new(1).seed_of(0), family[0]);
}

#[test]
fn identical_seed_sequence_seeds_give_identical_outcomes() {
    // The contract behind every recorded experiment: a walk seeded from the
    // same (master, index) pair replays the exact same search, and walks at
    // different indices draw different random streams.
    let run = |seed: u64| {
        let mut problem = CostasArray::new(9);
        let engine = AdaptiveSearch::tuned_for(&problem);
        engine.solve(&mut problem, &mut default_rng(seed))
    };
    let seed_a = SeedSequence::u64_seed_for(42, 3);
    let a1 = run(seed_a);
    let a2 = run(seed_a);
    assert_eq!(a1.stats, a2.stats);
    assert_eq!(a1.solution, a2.solution);
    assert_eq!(a1.best_cost, a2.best_cost);

    let seed_b = SeedSequence::u64_seed_for(42, 4);
    assert_ne!(seed_a, seed_b);
    let draws = |seed: u64| -> Vec<u64> {
        let mut rng = default_rng(seed);
        (0..8).map(|_| rng.next_u64()).collect()
    };
    assert_ne!(draws(seed_a), draws(seed_b));
}

#[test]
fn default_rng_streams_are_stable_within_a_session() {
    let mut a = default_rng(987);
    let mut b = default_rng(987);
    let xs: Vec<u64> = (0..256).map(|_| a.next_u64()).collect();
    let ys: Vec<u64> = (0..256).map(|_| b.next_u64()).collect();
    assert_eq!(xs, ys);
}

#[test]
fn engine_determinism_holds_with_external_stop_present() {
    // A stop control that never fires must not perturb the trajectory.
    let mut p1 = CostasArray::new(9);
    let mut p2 = CostasArray::new(9);
    let engine = AdaptiveSearch::tuned_for(&p1);
    let plain = engine.solve(&mut p1, &mut default_rng(5));
    let stop = StopControl::new();
    let run = Run {
        stop: Some(&stop),
        ..Run::default()
    };
    let with_stop = engine.run(&mut p2, &mut default_rng(5), run);
    assert_eq!(plain.stats, with_stop.stats);
    assert_eq!(plain.solution, with_stop.solution);
}

#[test]
fn sample_collection_is_pinned() {
    // Per-walk outcomes recorded from the sample collector as it stood
    // before it moved onto the walk executor (it was a parallel map over
    // single-walk solves sharing a stop flag).  Any drift here changes every
    // figure.  Sample `i` is walk `i` of the collector's seed family, so its
    // run index stands for its seed.
    let bench = Benchmark::CostasArray(9);
    let samples: Vec<(usize, bool, u64)> = sequential_runs(&bench, 6, 1)
        .records()
        .iter()
        .map(|r| (r.walk_id, r.outcome.solved(), r.outcome.stats.iterations))
        .collect();
    assert_eq!(
        samples,
        vec![
            (0, true, 11),
            (1, true, 18),
            (2, true, 10011),
            (3, true, 54),
            (4, true, 76),
            (5, true, 54),
        ]
    );
}

#[test]
fn wide_perfect_square_fixed_budget_trajectory_is_pinned() {
    // The CSPLib order-21 square decodes onto a 112-column skyline, where
    // the order-9 golden run has 33 columns and stops at a solve.  A fixed
    // budget with the target disabled, sliced per restart as the throughput
    // harness does, pins the placement scan on wide skylines free of search
    // luck.  Values captured from the column-by-column scan.
    let bench = Benchmark::PerfectSquareCsplib;
    let mut config = bench.tuned_config();
    config.target_cost = -1;
    let budget = config.sliced_budget(2_000);
    let engine = AdaptiveSearch::new(config);
    let mut problem = bench.build();
    let run = Run {
        budget: Some(&budget),
        ..Run::default()
    };
    let out = engine.run(&mut problem, &mut default_rng(2012), run);
    assert_eq!(out.reason, TerminationReason::IterationBudgetExhausted);
    assert_eq!(
        out.stats,
        SearchStats {
            iterations: 2000,
            swaps: 1395,
            local_minima: 605,
            plateau_moves: 219,
            forced_moves: 0,
            variables_marked: 605,
            resets: 302,
            restarts: 0,
            swap_evaluations: 40000,
        }
    );
    assert_eq!(out.best_cost, 282);
    assert_eq!(
        out.solution,
        vec![0, 6, 3, 8, 12, 4, 10, 1, 2, 5, 7, 9, 11, 15, 13, 20, 14, 16, 17, 19, 18]
    );
}
