//! Pinned engine trajectories ("golden runs").
//!
//! The incremental error-projection engine must be *behavior-preserving*:
//! selection order, RNG draw sequence and `SearchStats` on fixed seeds stay
//! bit-identical to the pre-projection engine.  These values were captured
//! from the engine as of PR 2 (full `cost_on_variable` rescan every
//! iteration) and pin that contract: any future change that perturbs the
//! search trajectory — however well-intentioned — must update these numbers
//! *consciously*, because it silently invalidates every recorded experiment.
//!
//! Each catalog model keeps one golden solve, and each solve must come from
//! the search: a run that only solves on a restart's fresh random
//! configuration pins the restart draw, not the engine.

use parallel_cbls::prelude::*;

fn golden(benchmark: Benchmark, seed: u64) -> SearchOutcome {
    let mut problem = benchmark.build();
    let engine = benchmark.engine();
    let out = engine.solve(&mut problem, &mut default_rng(seed));
    // Under the fixed restart schedule every failed restart runs exactly its
    // cap, so the rest is how far into its last restart the run solved.
    let into_last_restart =
        out.stats.iterations - out.stats.restarts * engine.config().max_iterations_per_restart;
    assert!(
        into_last_restart > 1,
        "{}: solved {into_last_restart} iterations into its last restart",
        benchmark.id()
    );
    out
}

fn assert_stats(out: &SearchOutcome, expected: SearchStats, label: &str) {
    assert_eq!(out.stats, expected, "{label}: trajectory changed");
    assert_eq!(out.best_cost, 0, "{label}: golden runs all solve");
    assert_eq!(out.reason, TerminationReason::Solved, "{label}");
}

#[test]
fn costas_10_seed_123_trajectory_is_pinned() {
    let out = golden(Benchmark::CostasArray(10), 123);
    assert_stats(
        &out,
        SearchStats {
            iterations: 10022,
            swaps: 10000,
            local_minima: 22,
            plateau_moves: 9980,
            forced_moves: 0,
            variables_marked: 22,
            resets: 11,
            restarts: 1,
            swap_evaluations: 90198,
        },
        "costas-10",
    );
    assert_eq!(out.solution, vec![8, 1, 7, 3, 2, 0, 5, 6, 9, 4]);
}

#[test]
fn magic_square_5_seed_123_trajectory_is_pinned() {
    let out = golden(Benchmark::MagicSquare(5), 123);
    assert_stats(
        &out,
        SearchStats {
            iterations: 15586,
            swaps: 11646,
            local_minima: 4039,
            plateau_moves: 0,
            forced_moves: 99,
            variables_marked: 3940,
            resets: 1970,
            restarts: 0,
            swap_evaluations: 374064,
        },
        "magic-square-5",
    );
}

#[test]
fn all_interval_12_seed_123_trajectory_is_pinned() {
    let out = golden(Benchmark::AllInterval(12), 123);
    assert_stats(
        &out,
        SearchStats {
            iterations: 10,
            swaps: 6,
            local_minima: 4,
            plateau_moves: 1,
            forced_moves: 0,
            variables_marked: 4,
            resets: 1,
            restarts: 0,
            swap_evaluations: 110,
        },
        "all-interval-12",
    );
    assert_eq!(out.solution, vec![1, 9, 2, 11, 0, 10, 4, 6, 5, 8, 3, 7]);
}

#[test]
fn queens_32_seed_7_trajectory_is_pinned() {
    let out = golden(Benchmark::NQueens(32), 7);
    assert_stats(
        &out,
        SearchStats {
            iterations: 11,
            swaps: 11,
            local_minima: 0,
            plateau_moves: 1,
            forced_moves: 0,
            variables_marked: 0,
            resets: 0,
            restarts: 0,
            swap_evaluations: 341,
        },
        "queens-32",
    );
}

#[test]
fn langford_7_seed_9_trajectory_is_pinned() {
    let out = golden(Benchmark::Langford(7), 9);
    assert_stats(
        &out,
        SearchStats {
            iterations: 111,
            swaps: 85,
            local_minima: 26,
            plateau_moves: 53,
            forced_moves: 0,
            variables_marked: 26,
            resets: 8,
            restarts: 0,
            swap_evaluations: 1443,
        },
        "langford-7",
    );
}

#[test]
fn perfect_square_order9_seed_903_trajectory_is_pinned() {
    let out = golden(Benchmark::PerfectSquareOrder9, 903);
    assert_stats(
        &out,
        SearchStats {
            iterations: 1144,
            swaps: 524,
            local_minima: 620,
            plateau_moves: 150,
            forced_moves: 0,
            variables_marked: 620,
            resets: 310,
            restarts: 0,
            swap_evaluations: 9152,
        },
        "perfect-square-order9",
    );
    assert_eq!(out.solution, vec![0, 1, 6, 2, 5, 7, 3, 8, 4]);
}

#[test]
fn alpha_seed_1600_trajectory_is_pinned() {
    // Alpha runs in exhaustive mode: it pins the pair-scan path, which
    // bypasses the error-projection cache entirely.
    let out = golden(Benchmark::Alpha, 1600);
    assert_stats(
        &out,
        SearchStats {
            iterations: 22926,
            swaps: 11075,
            local_minima: 11851,
            plateau_moves: 8263,
            forced_moves: 0,
            variables_marked: 0,
            resets: 237,
            restarts: 0,
            swap_evaluations: 7450950,
        },
        "alpha",
    );
}

#[test]
fn magic_sequence_12_seed_123_trajectory_is_pinned() {
    // First of the four model-layer benchmarks: pins the generic
    // `ModelEvaluator` (table-count + linear-eq terms) under the engine's
    // incremental projection protocol.
    let out = golden(Benchmark::MagicSequence(12), 123);
    assert_stats(
        &out,
        SearchStats {
            iterations: 11,
            swaps: 5,
            local_minima: 6,
            plateau_moves: 0,
            forced_moves: 0,
            variables_marked: 6,
            resets: 2,
            restarts: 0,
            swap_evaluations: 121,
        },
        "magic-sequence-12",
    );
    assert_eq!(out.solution, vec![0, 1, 2, 10, 5, 4, 8, 11, 3, 7, 9, 6]);
}

#[test]
fn golomb_6_seed_123_trajectory_is_pinned() {
    // Model-layer benchmark: a pairwise-distinct term over a mark prefix
    // with a reservoir of unused positions.
    let out = golden(Benchmark::GolombRuler(6), 123);
    assert_stats(
        &out,
        SearchStats {
            iterations: 37,
            swaps: 20,
            local_minima: 17,
            plateau_moves: 9,
            forced_moves: 0,
            variables_marked: 17,
            resets: 8,
            restarts: 0,
            swap_evaluations: 629,
        },
        "golomb-6",
    );
    assert_eq!(
        out.solution,
        vec![7, 2, 17, 16, 0, 13, 5, 10, 3, 11, 8, 6, 15, 9, 12, 1, 4, 14]
    );
}

#[test]
fn coloring_15x3_seed_123_trajectory_is_pinned() {
    // Model-layer benchmark: a min-separation edge term over a generated
    // planted instance (the edge set is fixed by GRAPH_COLORING_SEED).
    let out = golden(
        Benchmark::GraphColoring {
            nodes: 15,
            colors: 3,
        },
        123,
    );
    assert_stats(
        &out,
        SearchStats {
            iterations: 13,
            swaps: 9,
            local_minima: 4,
            plateau_moves: 3,
            forced_moves: 0,
            variables_marked: 4,
            resets: 1,
            restarts: 0,
            swap_evaluations: 182,
        },
        "coloring-15x3",
    );
    assert_eq!(
        out.solution,
        vec![13, 5, 0, 6, 2, 3, 9, 14, 7, 10, 8, 4, 1, 11, 12]
    );
}

#[test]
fn qcp_7_seed_123_trajectory_is_pinned() {
    // Model-layer benchmark: per-row/column all-different terms with fixed
    // buckets from the surviving cells of the punched Latin square.
    let out = golden(Benchmark::QuasigroupCompletion(7), 123);
    assert_stats(
        &out,
        SearchStats {
            iterations: 33,
            swaps: 25,
            local_minima: 8,
            plateau_moves: 9,
            forced_moves: 0,
            variables_marked: 8,
            resets: 2,
            restarts: 0,
            swap_evaluations: 594,
        },
        "qcp-7",
    );
    assert_eq!(
        out.solution,
        vec![16, 5, 3, 2, 4, 1, 7, 6, 14, 15, 12, 8, 0, 13, 11, 9, 10, 17, 18]
    );
}
