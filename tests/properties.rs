//! Cross-crate property tests on the public API.
//!
//! The build environment has no crates.io access, so instead of proptest
//! these properties are exercised over a deterministic sweep of cases: every
//! benchmark in a small strategy space crossed with a family of seeds derived
//! through the workspace's own [`SeedSequence`]. The sweep is reproducible by
//! construction, which also makes failures directly re-runnable.

use parallel_cbls::prelude::*;

const MASTER: u64 = 0x5EED_CA5E_0000_0001;

/// The same strategy space the original proptest generator drew from.
fn benchmark_space() -> Vec<Benchmark> {
    let mut space = Vec::new();
    for n in 4..=6 {
        space.push(Benchmark::MagicSquare(n));
    }
    for n in 6..=14 {
        space.push(Benchmark::AllInterval(n));
    }
    for n in 4..=12 {
        space.push(Benchmark::CostasArray(n));
    }
    for n in 4..=20 {
        space.push(Benchmark::NQueens(n));
    }
    for n in 3..=8 {
        space.push(Benchmark::Langford(n));
    }
    space.push(Benchmark::PerfectSquareOrder9);
    space
}

/// For every model and every random permutation, `cost_if_swap` agrees with a
/// from-scratch recomputation — the central correctness contract of the
/// incremental evaluators, exercised through the public boxed-evaluator API.
#[test]
fn incremental_swap_costs_match_recomputation() {
    for (case, benchmark) in benchmark_space().into_iter().enumerate() {
        for round in 0..3u64 {
            let seed = SeedSequence::u64_seed_for(MASTER, case as u64 * 8 + round);
            let mut evaluator = benchmark.build();
            let n = evaluator.size();
            if n < 2 {
                continue;
            }
            let mut rng = default_rng(seed);
            let perm = rng.permutation(n);
            let cost = evaluator.init(&perm);
            assert!(cost >= 0, "{}: negative cost", benchmark.id());
            assert_eq!(cost, evaluator.cost(&perm), "{}", benchmark.id());

            for _ in 0..4 {
                let i = rng.index(n);
                let j = rng.index(n);
                if i == j {
                    continue;
                }
                let predicted = evaluator.cost_if_swap(&perm, cost, i, j);
                let mut probe = perm.clone();
                probe.swap(i, j);
                assert_eq!(
                    predicted,
                    evaluator.cost(&probe),
                    "{} swap {},{}",
                    benchmark.id(),
                    i,
                    j
                );
            }
        }
    }
}

/// Zero cost and the independent verifier agree on every model.
#[test]
fn zero_cost_iff_verified() {
    for (case, benchmark) in benchmark_space().into_iter().enumerate() {
        for round in 0..3u64 {
            let seed = SeedSequence::u64_seed_for(MASTER ^ 0xA5A5, case as u64 * 8 + round);
            let mut evaluator = benchmark.build();
            let n = evaluator.size();
            if n < 2 {
                continue;
            }
            let mut rng = default_rng(seed);
            let perm = rng.permutation(n);
            let cost = evaluator.init(&perm);
            assert_eq!(cost == 0, evaluator.verify(&perm), "{}", benchmark.id());
        }
    }
}

/// The engine never reports success with a cost above the target, and its
/// reported best cost always matches a recomputation of the returned
/// solution.
#[test]
fn reported_outcomes_are_honest() {
    for (case, benchmark) in benchmark_space().into_iter().enumerate() {
        let seed = SeedSequence::u64_seed_for(MASTER ^ 0x1234, case as u64);
        let mut evaluator = benchmark.build();
        // Small budget: the point is honesty of the report, not solving.
        let config = SearchConfig::builder()
            .max_iterations_per_restart(2_000)
            .max_restarts(1)
            .build();
        let engine = AdaptiveSearch::new(config);
        let outcome = engine.solve(&mut evaluator, &mut default_rng(seed));
        let recomputed = evaluator.cost(&outcome.solution);
        assert_eq!(outcome.best_cost, recomputed, "{}", benchmark.id());
        if outcome.solved() {
            assert!(outcome.best_cost <= 0);
            assert!(evaluator.verify(&outcome.solution));
        }
    }
}

/// Expected minimum of `p` draws from any empirical distribution is monotone
/// non-increasing in `p` and bounded by the sample min/mean.
#[test]
fn expected_min_is_monotone() {
    for case in 0..48u64 {
        let mut rng = default_rng(SeedSequence::u64_seed_for(MASTER ^ 0xD157, case));
        let len = 2 + rng.index(78);
        let samples: Vec<f64> = (0..len).map(|_| 1.0 + rng.f64() * (1e6 - 1.0)).collect();
        let dist = EmpiricalDistribution::new(&samples);
        for p in [1usize, 2, 3, 7, 32, 199] {
            let at_p = dist.expected_min_of(p);
            let at_p_plus = dist.expected_min_of(p + 1);
            assert!(at_p_plus <= at_p + 1e-9, "case {case}, p {p}");
            assert!(at_p <= dist.mean() + 1e-9, "case {case}, p {p}");
            assert!(at_p >= dist.min() - 1e-9, "case {case}, p {p}");
        }
    }
}

/// Multi-walk seed derivation is collision-free over small families and
/// independent of the number of walks requested.
#[test]
fn walk_seed_families_are_consistent() {
    for case in 0..64u64 {
        let master = SeedSequence::u64_seed_for(MASTER ^ 0xFA71, case);
        let walks = 2 + (case as usize % 62);
        let seeds = WalkSeeds::new(master);
        let family: Vec<u64> = (0..walks).map(|w| seeds.seed_of(w)).collect();
        let mut unique = family.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), family.len(), "master {master:#x}");
    }
}
