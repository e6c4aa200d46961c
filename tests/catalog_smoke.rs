//! Manifest-wiring smoke test: every [`Benchmark`] variant in
//! `cbls_problems::catalog` must be constructible through the facade crate
//! and runnable for a short Adaptive Search burst.
//!
//! The point is to catch workspace-level regressions — a future crate split
//! that drops a model from the registry, a prelude re-export that goes stale
//! — rather than solver quality, so the engine budget is tiny and the
//! assertions are structural.

use parallel_cbls::prelude::*;

/// Maps any benchmark to a small instance of the same variant.
///
/// Deliberately written as a wildcard-free `match`: adding a `Benchmark`
/// variant without extending this test is a compile error, which is exactly
/// the "silently dropped model" failure this smoke test exists to prevent.
fn small_instance(template: &Benchmark) -> Benchmark {
    match template {
        Benchmark::MagicSquare(_) => Benchmark::MagicSquare(4),
        Benchmark::AllInterval(_) => Benchmark::AllInterval(8),
        Benchmark::PerfectSquareCsplib => Benchmark::PerfectSquareCsplib,
        Benchmark::PerfectSquareOrder9 => Benchmark::PerfectSquareOrder9,
        Benchmark::CostasArray(_) => Benchmark::CostasArray(7),
        Benchmark::NQueens(_) => Benchmark::NQueens(8),
        Benchmark::Langford(_) => Benchmark::Langford(4),
        Benchmark::Alpha => Benchmark::Alpha,
        Benchmark::MagicSequence(_) => Benchmark::MagicSequence(8),
        Benchmark::GolombRuler(_) => Benchmark::GolombRuler(4),
        Benchmark::GraphColoring { .. } => Benchmark::GraphColoring {
            nodes: 8,
            colors: 3,
        },
        Benchmark::QuasigroupCompletion(_) => Benchmark::QuasigroupCompletion(5),
    }
}

/// One representative per variant; `small_instance` keeps this list honest.
fn every_variant() -> Vec<Benchmark> {
    [
        Benchmark::MagicSquare(1),
        Benchmark::AllInterval(1),
        Benchmark::PerfectSquareCsplib,
        Benchmark::PerfectSquareOrder9,
        Benchmark::CostasArray(1),
        Benchmark::NQueens(1),
        Benchmark::Langford(1),
        Benchmark::Alpha,
        Benchmark::MagicSequence(7),
        Benchmark::GolombRuler(2),
        Benchmark::GraphColoring {
            nodes: 1,
            colors: 1,
        },
        Benchmark::QuasigroupCompletion(3),
    ]
    .iter()
    .map(small_instance)
    .collect()
}

#[test]
fn every_benchmark_variant_runs_one_short_search() {
    let variants = every_variant();
    // One entry per enum variant; duplicate ids would mean a stale mapping.
    let ids: std::collections::HashSet<String> = variants.iter().map(Benchmark::id).collect();
    assert_eq!(ids.len(), variants.len(), "duplicate benchmark ids");

    for benchmark in variants {
        let mut evaluator = benchmark.build();
        assert_eq!(
            evaluator.size(),
            benchmark.variables(),
            "{}: registry size disagrees with the evaluator",
            benchmark.id()
        );

        let config = SearchConfig::builder()
            .max_iterations_per_restart(50)
            .max_restarts(1)
            .build();
        let engine = AdaptiveSearch::new(config);
        let outcome = engine.solve(&mut evaluator, &mut default_rng(7));

        assert_eq!(
            outcome.solution.len(),
            evaluator.size(),
            "{}: solution has the wrong arity",
            benchmark.id()
        );
        assert_eq!(
            outcome.best_cost,
            evaluator.cost(&outcome.solution),
            "{}: reported cost does not recompute",
            benchmark.id()
        );
        if outcome.solved() {
            assert!(evaluator.verify(&outcome.solution), "{}", benchmark.id());
        }
    }
}

#[test]
fn every_benchmark_variant_survives_a_serde_round_trip() {
    for benchmark in every_variant() {
        let json = serde_json::to_string(&benchmark).unwrap();
        let back: Benchmark = serde_json::from_str(&json).unwrap();
        assert_eq!(benchmark, back, "round-trip changed {}", benchmark.id());
    }
}
