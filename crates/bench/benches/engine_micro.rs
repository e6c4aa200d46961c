//! Criterion micro-benchmarks of the Adaptive Search engine's hot path:
//! incremental swap evaluation, error projection and full sequential solves
//! of the paper's benchmark models at small sizes.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use as_rng::{default_rng, RandomSource};
use cbls_core::{AdaptiveSearch, Evaluator};
use cbls_problems::{AllInterval, Benchmark, CostasArray, MagicSquare, NQueens, PerfectSquare};

/// One full swap-scan's worth of `cost_if_swap` probes for the worst case of
/// the engine's selection phase: variable 0 against every other position.
fn swap_scan<E: Evaluator>(problem: &E, perm: &[usize], cost: i64) -> i64 {
    let mut acc = 0i64;
    for j in 1..perm.len() {
        acc += problem.cost_if_swap(perm, cost, 0, j);
    }
    acc
}

fn bench_cost_if_swap(c: &mut Criterion) {
    let mut group = c.benchmark_group("cost_if_swap");
    let mut rng = default_rng(1);

    let mut magic = MagicSquare::new(10);
    let perm = rng.permutation(100);
    let cost = magic.init(&perm);
    group.bench_function("magic-square-10", |b| {
        b.iter(|| black_box(magic.cost_if_swap(&perm, cost, 3, 97)))
    });
    group.bench_function("magic-square-10-scan", |b| {
        b.iter(|| black_box(swap_scan(&magic, &perm, cost)))
    });

    // A Costas `cost_if_swap` is a one-entry row of its in-place kernel, so
    // these time a row of one (the anchor's pairs come off and go back on
    // for a single partner) and a loop of such rows; the row the engine
    // actually runs is timed in the `batched_probes` group.
    let mut costas = CostasArray::new(14);
    let perm = rng.permutation(14);
    let cost = costas.init(&perm);
    group.bench_function("costas-14", |b| {
        b.iter(|| black_box(costas.cost_if_swap(&perm, cost, 2, 11)))
    });
    group.bench_function("costas-14-scan", |b| {
        b.iter(|| black_box(swap_scan(&costas, &perm, cost)))
    });

    let mut costas = CostasArray::new(18);
    let perm = rng.permutation(18);
    let cost = costas.init(&perm);
    group.bench_function("costas-18", |b| {
        b.iter(|| black_box(costas.cost_if_swap(&perm, cost, 2, 15)))
    });

    let mut interval = AllInterval::new(50);
    let perm = rng.permutation(50);
    let cost = interval.init(&perm);
    group.bench_function("all-interval-50-scan", |b| {
        b.iter(|| black_box(swap_scan(&interval, &perm, cost)))
    });

    let mut interval = AllInterval::new(100);
    let perm = rng.permutation(100);
    let cost = interval.init(&perm);
    group.bench_function("all-interval-100", |b| {
        b.iter(|| black_box(interval.cost_if_swap(&perm, cost, 10, 90)))
    });

    // Anchored at slot 0, every Perfect Square probe re-decodes the whole
    // order through the placement scan: 33 skyline columns for order 9,
    // 112 for the CSPLib order-21 square.
    for (id, mut square) in [
        ("perfect-square-order9", PerfectSquare::order9()),
        ("perfect-square-csplib21", PerfectSquare::csplib_order21()),
    ] {
        let perm = rng.permutation(square.size());
        let cost = square.init(&perm);
        group.bench_function(format!("{id}-scan"), |b| {
            b.iter(|| black_box(swap_scan(&square, &perm, cost)))
        });
    }
    group.finish();
}

fn bench_batched_probes(c: &mut Criterion) {
    // The batching tentpole's headline comparison: one `cost_if_swaps` row
    // against the looped scalar probes it replaces — the exact two shapes
    // the engine's candidate scan picks between on the `batched_probes`
    // claim.  Two declarative models where the shared-state walk dominated
    // (graph coloring, Golomb ruler), one mixed-constraint model (QCP), one
    // closed-form hand-coded kernel (queens) and the in-place Costas kernel,
    // whose looped side pays the anchor's removal once per probe.
    let mut group = c.benchmark_group("batched_probes");
    let mut rng = default_rng(3);

    for bench in [
        Benchmark::GraphColoring {
            nodes: 60,
            colors: 3,
        },
        Benchmark::GolombRuler(8),
        Benchmark::QuasigroupCompletion(10),
        Benchmark::NQueens(64),
        Benchmark::CostasArray(14),
    ] {
        let mut evaluator = bench.build();
        let n = evaluator.size();
        let perm = rng.permutation(n);
        let cost = evaluator.init(&perm);
        let js: Vec<usize> = (0..n).collect();
        let mut out = vec![0i64; n];
        let id = bench.id();
        group.bench_function(format!("{id}-looped"), |b| {
            b.iter(|| {
                let mut acc = 0i64;
                for &j in &js {
                    acc += evaluator.cost_if_swap(&perm, cost, 0, j);
                }
                black_box(acc)
            })
        });
        group.bench_function(format!("{id}-batched"), |b| {
            b.iter(|| {
                evaluator.cost_if_swaps(&perm, cost, 0, &js, &mut out);
                black_box(out[n - 1])
            })
        });
    }
    group.finish();
}

fn bench_error_projection(c: &mut Criterion) {
    // Per-variable rescans (what the engine did before the cached
    // projection) next to the batched `project_errors_full` pass that now
    // refreshes the cache, for the three instances the tentpole targets.
    let mut group = c.benchmark_group("error_projection");
    let mut rng = default_rng(2);

    let mut costas = CostasArray::new(14);
    let perm = rng.permutation(14);
    let _ = costas.init(&perm);
    let mut out = vec![0i64; 14];
    group.bench_function("costas-14-per-variable", |b| {
        b.iter(|| {
            let mut acc = 0i64;
            for i in 0..14 {
                acc += costas.cost_on_variable(&perm, i);
            }
            black_box(acc)
        })
    });
    group.bench_function("costas-14-batched", |b| {
        b.iter(|| {
            costas.project_errors_full(&perm, &mut out);
            black_box(out[0])
        })
    });

    let mut magic = MagicSquare::new(10);
    let perm = rng.permutation(100);
    let _ = magic.init(&perm);
    let mut out = vec![0i64; 100];
    group.bench_function("magic-square-10-per-variable", |b| {
        b.iter(|| {
            let mut acc = 0i64;
            for i in 0..100 {
                acc += magic.cost_on_variable(&perm, i);
            }
            black_box(acc)
        })
    });
    group.bench_function("magic-square-10-batched", |b| {
        b.iter(|| {
            magic.project_errors_full(&perm, &mut out);
            black_box(out[0])
        })
    });

    let mut interval = AllInterval::new(50);
    let perm = rng.permutation(50);
    let _ = interval.init(&perm);
    let mut out = vec![0i64; 50];
    group.bench_function("all-interval-50-per-variable", |b| {
        b.iter(|| {
            let mut acc = 0i64;
            for i in 0..50 {
                acc += interval.cost_on_variable(&perm, i);
            }
            black_box(acc)
        })
    });
    group.bench_function("all-interval-50-batched", |b| {
        b.iter(|| {
            interval.project_errors_full(&perm, &mut out);
            black_box(out[0])
        })
    });

    let mut costas = CostasArray::new(18);
    let perm = rng.permutation(18);
    let _ = costas.init(&perm);
    group.bench_function("costas-18-per-variable", |b| {
        b.iter(|| {
            let mut acc = 0i64;
            for i in 0..18 {
                acc += costas.cost_on_variable(&perm, i);
            }
            black_box(acc)
        })
    });
    group.finish();
}

fn bench_full_solve(c: &mut Criterion) {
    let mut group = c.benchmark_group("sequential_solve");
    group.sample_size(10);

    for n in [8usize, 10] {
        group.bench_with_input(BenchmarkId::new("costas", n), &n, |b, &n| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut p = CostasArray::new(n);
                let engine = AdaptiveSearch::tuned_for(&p);
                black_box(
                    engine
                        .solve(&mut p, &mut default_rng(seed))
                        .stats
                        .iterations,
                )
            })
        });
    }

    group.bench_function("queens-64", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut p = NQueens::new(64);
            let engine = AdaptiveSearch::tuned_for(&p);
            black_box(
                engine
                    .solve(&mut p, &mut default_rng(seed))
                    .stats
                    .iterations,
            )
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_cost_if_swap,
    bench_batched_probes,
    bench_error_projection,
    bench_full_solve
);
criterion_main!(benches);
