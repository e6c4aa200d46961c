//! The four model-layer benchmarks (magic sequence, Golomb ruler, graph
//! coloring, quasigroup completion) must run unchanged through the whole
//! stack: every `WalkExecutor` back-end solves them at small sizes with
//! identical per-walk outcomes, and a heterogeneous batch of labelled
//! strategies drives them like any hand-coded benchmark.

use parallel_cbls::prelude::*;

fn small_model_suite() -> Vec<Benchmark> {
    vec![
        Benchmark::MagicSequence(9),
        Benchmark::GolombRuler(4),
        Benchmark::GraphColoring {
            nodes: 9,
            colors: 3,
        },
        Benchmark::QuasigroupCompletion(5),
    ]
}

/// Run a 3-walk batch to completion on every executor back-end.  With no
/// first-success stop the per-walk trajectories are deterministic, so the
/// two back-ends must agree on every walk, not just the winner.
#[test]
fn every_executor_solves_every_model_benchmark() {
    for bench in small_model_suite() {
        let factory = || bench.build();
        let batch = WalkBatch::uniform(2026, &bench.tuned_config(), 3).run_to_completion();

        let sequential = SequentialExecutor.execute(&factory, &batch);
        let threads = ThreadsExecutor.execute(&factory, &batch);

        for (label, result) in [("sequential", &sequential), ("threads", &threads)] {
            assert!(
                result.winner.is_some(),
                "{}: {label} backend found no winner",
                bench.id()
            );
            for record in &result.records {
                assert!(
                    record.outcome.solved(),
                    "{}: {label} walk {} unsolved: {:?}",
                    bench.id(),
                    record.walk_id,
                    record.outcome
                );
                let evaluator = bench.build();
                assert!(
                    evaluator.verify(&record.outcome.solution),
                    "{}: {label} walk {} produced a bogus solution",
                    bench.id(),
                    record.walk_id
                );
            }
        }
        // The winner is resolved by measured elapsed time, which is
        // scheduler-dependent when several walks solve — but the per-walk
        // trajectories themselves must be bit-identical across back-ends.
        for (a, b) in sequential.records.iter().zip(&threads.records) {
            assert_eq!(a.seed, b.seed, "{}", bench.id());
            assert_eq!(
                a.outcome.stats,
                b.outcome.stats,
                "{}: threads walk {} trajectory diverged",
                bench.id(),
                a.walk_id
            );
            assert_eq!(a.outcome.solution, b.outcome.solution);
        }
    }
}

/// A heterogeneous batch treats a model benchmark like any other: a batch
/// of three labelled strategies replays deterministically and every
/// strategy solves its instance.
#[test]
fn a_heterogeneous_labelled_batch_drives_model_benchmarks() {
    for bench in small_model_suite() {
        let factory = || bench.build();
        let mut tuned = bench.tuned_config();
        tuned.max_iterations_per_restart = 2_000_000;
        tuned.max_restarts = 0;
        let mut eager = tuned.clone();
        eager.first_best = true;
        let mut sticky = tuned.clone();
        sticky.plateau_probability = (tuned.plateau_probability * 0.5).clamp(0.0, 1.0);
        let jobs = vec![
            WalkJob::new(tuned).with_label("tuned"),
            WalkJob::new(eager).with_label("first-best"),
            WalkJob::new(sticky).with_label("sticky"),
        ];
        let batch = WalkBatch::new(WalkSeeds::new(77), jobs);
        let sim = SimulatedMultiWalk::replay(&factory, &batch, &ThreadsExecutor);
        assert!(
            (sim.success_rate() - 1.0).abs() < 1e-12,
            "{}: a labelled strategy failed to solve",
            bench.id()
        );
        let again = SimulatedMultiWalk::replay(&factory, &batch, &ThreadsExecutor);
        for (a, b) in sim.records().iter().zip(again.records().iter()) {
            assert_eq!(a.outcome.stats, b.outcome.stats, "{}", bench.id());
        }
    }
}
