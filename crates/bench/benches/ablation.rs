//! Ablation of the engine's design choices: how the freeze duration, the
//! reset policy, sideways moves and the exhaustive neighbourhood affect the
//! time-to-solution of a representative benchmark.
//! These are the knobs the original C framework exposes per benchmark; the
//! ablation quantifies why the shipped `tune()` defaults look the way they do.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use as_rng::default_rng;
use cbls_core::{AdaptiveSearch, Evaluator, SearchConfig};
use cbls_problems::{CostasArray, MagicSquare};

fn solve_with(config: &SearchConfig, seed: u64) -> u64 {
    let mut p = CostasArray::new(10);
    let engine = AdaptiveSearch::new(config.clone());
    engine
        .solve(&mut p, &mut default_rng(seed))
        .stats
        .iterations
}

fn tuned_base() -> SearchConfig {
    let p = CostasArray::new(10);
    let mut config = SearchConfig::default();
    p.tune(&mut config);
    config
}

fn bench_freeze_duration(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_freeze_duration");
    group.sample_size(10);
    for freeze in [1u64, 4, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(freeze), &freeze, |b, &f| {
            let mut config = tuned_base();
            config.freeze_duration = f;
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                black_box(solve_with(&config, seed))
            })
        });
    }
    group.finish();
}

fn bench_reset_policy(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_reset_fraction");
    group.sample_size(10);
    for percent in [5u64, 25, 80] {
        group.bench_with_input(BenchmarkId::from_parameter(percent), &percent, |b, &p| {
            let mut config = tuned_base();
            config.reset_fraction = p as f64 / 100.0;
            let mut seed = 1000;
            b.iter(|| {
                seed += 1;
                black_box(solve_with(&config, seed))
            })
        });
    }
    group.finish();
}

fn bench_plateau_policy(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_plateau_probability");
    group.sample_size(10);
    for percent in [0u64, 50, 100] {
        group.bench_with_input(BenchmarkId::from_parameter(percent), &percent, |b, &p| {
            let mut config = tuned_base();
            config.plateau_probability = p as f64 / 100.0;
            let mut seed = 2000;
            b.iter(|| {
                seed += 1;
                black_box(solve_with(&config, seed))
            })
        });
    }
    group.finish();
}

fn bench_neighbourhood(c: &mut Criterion) {
    // Worst-variable neighbourhood vs exhaustive all-pairs scan on the magic
    // square (where the worst-variable heuristic is the clear winner).
    let mut group = c.benchmark_group("ablation_neighbourhood_magic5");
    group.sample_size(10);
    for exhaustive in [false, true] {
        let label = if exhaustive {
            "exhaustive"
        } else {
            "worst-variable"
        };
        group.bench_function(label, |b| {
            let problem = MagicSquare::new(5);
            let mut config = SearchConfig::default();
            problem.tune(&mut config);
            config.exhaustive = exhaustive;
            let mut seed = 3000;
            b.iter(|| {
                seed += 1;
                let mut p = MagicSquare::new(5);
                let engine = AdaptiveSearch::new(config.clone());
                black_box(
                    engine
                        .solve(&mut p, &mut default_rng(seed))
                        .stats
                        .iterations,
                )
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_freeze_duration,
    bench_reset_policy,
    bench_plateau_policy,
    bench_neighbourhood
);
criterion_main!(benches);
