//! Batched-probe agreement, catalog-wide.
//!
//! The engine's candidate scan now routes through `cost_if_swaps` whenever an
//! evaluator claims `batched_probes`; the determinism guarantee therefore
//! rests on every batched kernel returning *bit-identical* values to the
//! scalar `cost_if_swap` in the same candidate order.  The per-crate unit
//! tests pin that for the hand-written kernels; this suite closes the loop at
//! the registry boundary by running [`check_batched_probes`] — full rows plus
//! randomized subsets with duplicates — against every catalog [`Benchmark`],
//! through the same trait-object forwarding layer the engine sees.  Problems
//! still on the default row-of-scalar-probes fallback pass trivially, so the
//! suite also stays correct as more kernels go batched.

use cbls_problems::Benchmark;
use cbls_testkit::check_batched_probes;

fn checked(benchmark: &Benchmark, seed: u64) {
    check_batched_probes(benchmark.build(), seed, 12);
}

macro_rules! batched_probe_agreement {
    ($($test:ident => $bench:expr;)+) => {
        $(
            #[test]
            fn $test() {
                let bench = $bench;
                let seed = 0xBA7C_0000 + bench.variables() as u64;
                checked(&bench, seed);
            }
        )+
    };
}

// The full catalog: all seven hand-coded evaluators and all four modeled
// ones, at sizes large enough to exercise every kernel branch (the graph
// coloring instance is big enough to take the tabulated min-separation path).
batched_probe_agreement! {
    magic_square_batched_probes_agree => Benchmark::MagicSquare(6);
    all_interval_batched_probes_agree => Benchmark::AllInterval(14);
    perfect_square_batched_probes_agree => Benchmark::PerfectSquareOrder9;
    costas_batched_probes_agree => Benchmark::CostasArray(9);
    queens_batched_probes_agree => Benchmark::NQueens(16);
    langford_batched_probes_agree => Benchmark::Langford(8);
    alpha_batched_probes_agree => Benchmark::Alpha;
    magic_sequence_batched_probes_agree => Benchmark::MagicSequence(10);
    golomb_batched_probes_agree => Benchmark::GolombRuler(6);
    coloring_batched_probes_agree => Benchmark::GraphColoring { nodes: 30, colors: 3 };
    quasigroup_batched_probes_agree => Benchmark::QuasigroupCompletion(6);
}
