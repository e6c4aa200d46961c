//! Criterion benchmark backing the introduction's claim: Adaptive Search vs
//! the propagation-based backtracking baseline on the Costas Array Problem.
//! The `speedup` binary's CAP hardness table compares the two over orders
//! 8–13.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use as_rng::default_rng;
use cbls_core::AdaptiveSearch;
use cbls_problems::CostasArray;
use cbls_propagation::{BacktrackingSolver, CostasConstraint};

fn bench_adaptive_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("costas_adaptive_search");
    group.sample_size(10);
    for n in [9usize, 11] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut p = CostasArray::new(n);
                let engine = AdaptiveSearch::tuned_for(&p);
                black_box(engine.solve(&mut p, &mut default_rng(seed)).solved())
            })
        });
    }
    group.finish();
}

fn bench_backtracking(c: &mut Criterion) {
    let mut group = c.benchmark_group("costas_backtracking");
    group.sample_size(10);
    for n in [9usize, 11] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let solver = BacktrackingSolver::default();
                black_box(solver.solve(&CostasConstraint::new(n)).satisfiable())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_adaptive_search, bench_backtracking);
criterion_main!(benches);
