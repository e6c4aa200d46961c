//! Engine iteration-throughput measurements (`BENCH_engine.json`).
//!
//! The paper's headline results rest on how fast the *sequential* inner loop
//! of Adaptive Search runs — every multi-walk, portfolio and platform-model
//! figure multiplies through it.  This module measures steady-state
//! iterations per second on fixed seeds and a fixed iteration budget (the
//! target cost is set below zero so the run never terminates early), and
//! emits a JSON report that records the engine's performance trajectory
//! across PRs.
//!
//! Run `cargo run --release -p cbls-bench --bin throughput` for the full
//! measurement, or pass `--quick` for the reduced CI mode.

use std::time::Instant;

use as_rng::default_rng;
use cbls_core::{AdaptiveSearch, Evaluator, IncrementalProfile, Run, SearchConfig};
use cbls_obs::{FlightRecorder, RecorderConfig, TraceMeta};
use cbls_parallel::{
    BatchExecution, CountingSink, SequentialExecutor, Supervision, WalkBatch, WalkExecutor,
    WalkJob, WalkSeeds,
};
use cbls_problems::Benchmark;
use serde::{Deserialize, Serialize};

use crate::service_load::{measure_service_throughput, ServiceThroughputResult};

/// Seed shared by all throughput runs (arbitrary but fixed: the measurement
/// must be reproducible run-to-run).
pub const THROUGHPUT_SEED: u64 = 2012;

/// Measurement parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ThroughputConfig {
    /// Iterations each measured run performs.
    pub budget: u64,
    /// Independent repetitions; the best (highest iterations/sec) is kept to
    /// suppress scheduler noise.
    pub repetitions: u32,
}

impl ThroughputConfig {
    /// The full measurement used to record `BENCH_engine.json` in the repo.
    #[must_use]
    pub fn full() -> Self {
        Self {
            budget: 200_000,
            repetitions: 5,
        }
    }

    /// The reduced mode CI runs on every PR (small budget, fewer reps).
    #[must_use]
    pub fn quick() -> Self {
        Self {
            budget: 20_000,
            repetitions: 3,
        }
    }
}

/// Iterations/sec of one benchmark under the measurement protocol.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThroughputResult {
    /// Benchmark id (see [`Benchmark::id`]).
    pub id: String,
    /// Number of decision variables.
    pub variables: usize,
    /// Iterations performed per repetition.
    pub iterations: u64,
    /// Wall-clock seconds of the best repetition.
    pub best_elapsed_secs: f64,
    /// Iterations per second of the best repetition.
    pub iters_per_sec: f64,
}

/// A reference measurement recorded from an earlier engine revision, used to
/// report speedups alongside fresh numbers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReferenceEntry {
    /// Benchmark id the entry refers to.
    pub id: String,
    /// Iterations per second of the reference engine.
    pub iters_per_sec: f64,
}

/// Cost of the executor layer's telemetry stream on one benchmark: the same
/// fixed-budget run, through the walk executor, with the event stream
/// attached and detached.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutorOverheadResult {
    /// Benchmark id (see [`Benchmark::id`]).
    pub id: String,
    /// Iterations performed per repetition.
    pub iterations: u64,
    /// Iterations per second with no event sink attached (best repetition).
    pub iters_per_sec_events_off: f64,
    /// Iterations per second with a counting sink consuming every event
    /// (best repetition).
    pub iters_per_sec_events_on: f64,
    /// `1 − on/off`: the throughput fraction lost to the event stream.
    /// Values near zero (or slightly negative — scheduler noise) mean the
    /// telemetry is effectively free on the engine's hot path.
    pub overhead_fraction: f64,
    /// Number of events the sink consumed in one events-on repetition.
    pub events: u64,
}

/// The full report serialized to `BENCH_engine.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineThroughputReport {
    /// Report format marker.
    pub schema: String,
    /// `"full"` or `"quick"`.
    pub mode: String,
    /// Master seed of every measured run.
    pub seed: u64,
    /// Measurement parameters.
    pub config: ThroughputConfig,
    /// Fresh measurements, one per benchmark.
    pub results: Vec<ThroughputResult>,
    /// Reference numbers from the pre-incremental-projection engine
    /// (captured on the same machine class the repo numbers come from).
    pub reference: Vec<ReferenceEntry>,
    /// `iters_per_sec / reference` per benchmark id, where a reference
    /// exists.
    pub speedup_vs_reference: Vec<ReferenceEntry>,
    /// Batched-vs-scalar candidate-scan ratio per suite benchmark: the same
    /// run with the evaluator's `cost_if_swaps` kernels and behind
    /// [`ScalarProbes`] (claim hidden, scalar fallback scan).
    pub batch_speedup: Vec<BatchSpeedupResult>,
    /// Telemetry cost of the walk-executor layer (events on vs. off) on the
    /// paper's CAP headline instance.
    pub executor_overhead: ExecutorOverheadResult,
    /// Cost of attaching a [`FlightRecorder`] (default configuration, phase
    /// profiling off), one entry per suite benchmark.  The observability
    /// budget is [`RECORDER_OVERHEAD_BUDGET`] of throughput per benchmark.
    pub recorder_overhead: Vec<ExecutorOverheadResult>,
    /// Cost of supervised execution (heartbeat publication at every
    /// stop-poll plus lock-free best-so-far slots), one entry per suite
    /// benchmark.  The resilience budget is [`SUPERVISION_OVERHEAD_BUDGET`]
    /// of throughput per benchmark; the `events` field holds the heartbeats
    /// the supervised run published.
    pub supervision_overhead: Vec<ExecutorOverheadResult>,
    /// Multi-tenant service throughput: requests/sec of a concurrent burst
    /// through `cbls-service`, with every winner audited against a direct
    /// sequential replay (`winners_match_direct` must hold everywhere).
    pub service_throughput: ServiceThroughputResult,
}

/// The acceptance bar for the flight recorder: attaching it may cost at most
/// this fraction of iterations/sec on any suite benchmark (asserted by the
/// throughput binary in full mode).
pub const RECORDER_OVERHEAD_BUDGET: f64 = 0.05;

/// The acceptance bar for the supervision layer: running a batch through
/// `execute_supervised` (heartbeats + best-so-far publication, no faults
/// injected) may cost at most this fraction of iterations/sec on any suite
/// benchmark (asserted by the throughput binary in full mode).
pub const SUPERVISION_OVERHEAD_BUDGET: f64 = 0.05;

/// The benchmark set every throughput report measures: the paper's CAP
/// headline instance, a spread of the other hand-coded catalog models, and
/// the four `cbls-model` declarative benchmarks (which track the generic
/// `ModelEvaluator`'s hot-path cost over PRs).
#[must_use]
pub fn throughput_suite() -> Vec<Benchmark> {
    vec![
        Benchmark::CostasArray(14),
        Benchmark::MagicSquare(10),
        Benchmark::AllInterval(50),
        Benchmark::NQueens(64),
        Benchmark::PerfectSquareOrder9,
        Benchmark::MagicSequence(30),
        Benchmark::GolombRuler(8),
        Benchmark::GraphColoring {
            nodes: 60,
            colors: 3,
        },
        Benchmark::QuasigroupCompletion(10),
    ]
}

/// Iterations/sec of the engine that shipped before the incremental
/// error-projection PR, measured with [`ThroughputConfig::full`] on the
/// machine that recorded the repo's `BENCH_engine.json`.  Kept as data so
/// every later report shows the trajectory against the same fixed point.
/// The model-layer benchmarks post-date that engine, so they have no
/// reference entry and appear in the report without a speedup ratio.
#[must_use]
pub fn pre_projection_reference() -> Vec<ReferenceEntry> {
    [
        ("costas-14", 94_096.0),
        ("magic-square-10", 545_942.0),
        ("all-interval-50", 161_616.0),
        ("queens-64", 181_506.0),
        ("perfect-square-order9", 50_771.0),
    ]
    .into_iter()
    .map(|(id, iters_per_sec)| ReferenceEntry {
        id: id.to_string(),
        iters_per_sec,
    })
    .collect()
}

/// Iterations/sec of the engine that shipped before the batched-probe PR
/// (scalar `cost_if_swap` candidate scans everywhere), measured with
/// [`ThroughputConfig::full`] on the machine that recorded the repo's
/// `BENCH_engine.json`.  The throughput binary asserts the batched engine
/// clears [`BATCH_SPEEDUP_FLOOR`] over these numbers on the two suites the
/// batching PR targeted, in quick mode too, so a regression that quietly
/// re-routes the scan through the scalar fallback fails CI instead of only
/// drifting the recorded trajectory.
#[must_use]
pub fn pre_batching_reference() -> Vec<ReferenceEntry> {
    [
        ("costas-14", 238_400.0),
        ("magic-square-10", 535_531.0),
        ("all-interval-50", 324_912.0),
        ("queens-64", 612_373.0),
        ("perfect-square-order9", 75_923.0),
        ("magic-sequence-30", 598_825.0),
        ("golomb-8", 94_078.0),
        ("coloring-60x3", 44_097.0),
        ("qcp-10", 282_828.0),
    ]
    .into_iter()
    .map(|(id, iters_per_sec)| ReferenceEntry {
        id: id.to_string(),
        iters_per_sec,
    })
    .collect()
}

/// The acceptance floor the throughput binary asserts (quick and full mode)
/// on the batching PR's two target suites, `coloring-60x3` and `golomb-8`:
/// fresh iterations/sec divided by the [`pre_batching_reference`] entry.
pub const BATCH_SPEEDUP_FLOOR: f64 = 1.5;

/// The suites [`BATCH_SPEEDUP_FLOOR`] is enforced on.
pub const BATCH_SPEEDUP_GUARDED: [&str; 2] = ["coloring-60x3", "golomb-8"];

/// An adapter that hides an evaluator's `batched_probes` claim, forcing the
/// engine's candidate scan back onto the scalar row-of-`cost_if_swap`
/// fallback.  Every other hook forwards unchanged, so a run through the
/// wrapper isolates exactly the batched-kernel contribution: same model,
/// same incremental state machine, same trajectory (the batched contract is
/// bit-for-bit agreement), different probe loop.
#[derive(Debug)]
pub struct ScalarProbes<E>(pub E);

impl<E: Evaluator> Evaluator for ScalarProbes<E> {
    fn size(&self) -> usize {
        self.0.size()
    }

    fn name(&self) -> &str {
        self.0.name()
    }

    fn init(&mut self, perm: &[usize]) -> i64 {
        self.0.init(perm)
    }

    fn cost(&self, perm: &[usize]) -> i64 {
        self.0.cost(perm)
    }

    fn cost_on_variable(&self, perm: &[usize], i: usize) -> i64 {
        self.0.cost_on_variable(perm, i)
    }

    fn cost_if_swap(&self, perm: &[usize], current_cost: i64, i: usize, j: usize) -> i64 {
        self.0.cost_if_swap(perm, current_cost, i, j)
    }

    fn executed_swap(&mut self, perm: &[usize], i: usize, j: usize) {
        self.0.executed_swap(perm, i, j);
    }

    fn touched_by_swap(&self, perm: &[usize], i: usize, j: usize, out: &mut Vec<usize>) -> bool {
        self.0.touched_by_swap(perm, i, j, out)
    }

    fn project_errors(&self, perm: &[usize], indices: &[usize], out: &mut [i64]) {
        self.0.project_errors(perm, indices, out);
    }

    fn project_errors_full(&self, perm: &[usize], out: &mut [i64]) {
        self.0.project_errors_full(perm, out);
    }

    fn incremental_profile(&self) -> IncrementalProfile {
        IncrementalProfile {
            batched_probes: false,
            ..self.0.incremental_profile()
        }
    }

    fn tune(&self, config: &mut SearchConfig) {
        self.0.tune(config);
    }

    fn verify(&self, perm: &[usize]) -> bool {
        self.0.verify(perm)
    }
}

/// Batched-vs-scalar candidate-scan throughput of one benchmark.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchSpeedupResult {
    /// Benchmark id (see [`Benchmark::id`]).
    pub id: String,
    /// Iterations per second with the evaluator's batched `cost_if_swaps`
    /// row (the engine's normal path when `batched_probes` is claimed).
    pub iters_per_sec_batched: f64,
    /// Iterations per second through [`ScalarProbes`] — the same evaluator
    /// with the claim hidden, scanning via scalar `cost_if_swap` calls.
    pub iters_per_sec_scalar: f64,
    /// `batched / scalar`: > 1 means the batched kernel pays for itself.
    pub speedup: f64,
}

/// Measure the batched-vs-scalar candidate-scan ratio of one benchmark: the
/// identical fixed-budget run twice, once on the evaluator as shipped and
/// once through [`ScalarProbes`].  Both runs follow bit-for-bit the same
/// trajectory (the batched-probe contract), so the ratio isolates the scan
/// kernel's cost and nothing else.
#[must_use]
pub fn measure_batch_speedup(
    benchmark: &Benchmark,
    config: &ThroughputConfig,
) -> BatchSpeedupResult {
    let batched = measure_with(benchmark, config, |b| b.build());
    let scalar = measure_with(benchmark, config, |b| Box::new(ScalarProbes(b.build())));
    BatchSpeedupResult {
        id: benchmark.id(),
        iters_per_sec_batched: batched.iters_per_sec,
        iters_per_sec_scalar: scalar.iters_per_sec,
        speedup: if scalar.iters_per_sec > 0.0 {
            batched.iters_per_sec / scalar.iters_per_sec
        } else {
            0.0
        },
    }
}

/// Measure one benchmark: run exactly `config.budget` iterations
/// (`target_cost` below zero disables early termination) and keep the best
/// repetition.
#[must_use]
pub fn measure(benchmark: &Benchmark, config: &ThroughputConfig) -> ThroughputResult {
    measure_with(benchmark, config, |b| b.build())
}

/// [`measure`] with a custom evaluator factory — the batch-speedup section
/// routes through here to measure the same benchmark behind [`ScalarProbes`].
fn measure_with(
    benchmark: &Benchmark,
    config: &ThroughputConfig,
    build: impl Fn(&Benchmark) -> Box<dyn Evaluator>,
) -> ThroughputResult {
    let mut tuned = benchmark.tuned_config();
    tuned.target_cost = -1;
    let budget = tuned.sliced_budget(config.budget);
    let engine = AdaptiveSearch::new(tuned);
    // The best (iterations, elapsed) pair is kept together: every repetition
    // is a deterministic replay today, but selecting the pair (rather than
    // the minimum elapsed and the last iteration count separately) stays
    // correct if repetitions ever stop being identical.
    let mut best_elapsed = f64::INFINITY;
    let mut iterations = 0;
    for _ in 0..config.repetitions.max(1) {
        let mut evaluator = build(benchmark);
        let mut rng = default_rng(THROUGHPUT_SEED);
        let run = Run {
            budget: Some(&budget),
            ..Run::default()
        };
        let started = Instant::now();
        let outcome = engine.run(&mut evaluator, &mut rng, run);
        let elapsed = started.elapsed().as_secs_f64();
        if outcome.stats.iterations as f64 / elapsed.max(f64::MIN_POSITIVE)
            > iterations as f64 / best_elapsed.max(f64::MIN_POSITIVE)
            || best_elapsed.is_infinite()
        {
            best_elapsed = elapsed;
            iterations = outcome.stats.iterations;
        }
    }
    let iters_per_sec = if best_elapsed > 0.0 {
        iterations as f64 / best_elapsed
    } else {
        0.0
    };
    ThroughputResult {
        id: benchmark.id(),
        variables: benchmark.variables(),
        iterations,
        best_elapsed_secs: best_elapsed,
        iters_per_sec,
    }
}

/// The protocol shared by the three overhead measurements: the same
/// fixed-budget single-walk batch through [`SequentialExecutor`], plain and
/// through `instrumented` (which returns its execution and the number of
/// events its instrumentation saw), in paired off/on repetitions that keep
/// the best rate of each side.  Both sides must produce the same trajectory:
/// every instrumentation is passive by contract.
///
/// `settle_within` selects the repetition policy.  `None` runs exactly the
/// configured repetitions.  With `Some(budget)`: scheduler noise is one-sided
/// — a run can only ever be slowed down, never sped up — so the best rate
/// over repetitions converges to the true throughput from below on both
/// sides of the comparison.  A short fixed budget of reps occasionally
/// leaves one side unlucky (spurious ±5-8% "overhead" readings on a loaded
/// machine, in either direction), so after the configured repetitions this
/// keeps adding paired reps, up to four times as many, until the overhead
/// estimate settles inside 80% of `budget`; the full-mode assertion then
/// fails only on a reproducible slowdown.
fn measure_overhead(
    benchmark: &Benchmark,
    config: &ThroughputConfig,
    settle_within: Option<f64>,
    instrumented: impl Fn(&WalkBatch) -> (BatchExecution, u64),
) -> ExecutorOverheadResult {
    let mut tuned = benchmark.tuned_config();
    tuned.target_cost = -1;
    let budget = tuned.sliced_budget(config.budget);
    let job = WalkJob::new(tuned)
        .with_label(benchmark.id())
        .with_budget(budget);
    let batch = WalkBatch::new(WalkSeeds::new(THROUGHPUT_SEED), vec![job]).run_to_completion();
    let rate = |execution: &BatchExecution| {
        execution.total_iterations() as f64
            / execution.wall_time.as_secs_f64().max(f64::MIN_POSITIVE)
    };

    let base_reps = config.repetitions.max(1);
    let max_reps = if settle_within.is_some() {
        base_reps * 4
    } else {
        base_reps
    };
    let (mut best_off, mut best_on) = (0.0f64, 0.0f64);
    let (mut iterations, mut events) = (0, 0);
    for rep in 1..=max_reps {
        let off = SequentialExecutor.execute(&|| benchmark.build(), &batch);
        if rate(&off) > best_off {
            best_off = rate(&off);
            iterations = off.total_iterations();
        }
        let (on, on_events) = instrumented(&batch);
        assert_eq!(
            off.total_iterations(),
            on.total_iterations(),
            "instrumentation must not perturb the trajectory"
        );
        if rate(&on) > best_on {
            best_on = rate(&on);
            events = on_events;
        }
        // Converged well inside the budget: stop burning wall-clock.  Keep
        // the 20% margin so a borderline pass is backed by extra reps.
        let settled = settle_within.is_some_and(|budget| {
            rep >= base_reps && best_off > 0.0 && 1.0 - best_on / best_off <= budget * 0.8
        });
        if settled {
            break;
        }
    }

    ExecutorOverheadResult {
        id: benchmark.id(),
        iterations,
        iters_per_sec_events_off: best_off,
        iters_per_sec_events_on: best_on,
        overhead_fraction: if best_off > 0.0 {
            1.0 - best_on / best_off
        } else {
            0.0
        },
        events,
    }
}

/// Measure the telemetry cost of the walk-executor layer on one benchmark:
/// the fixed-budget run with and without a [`CountingSink`] attached, over
/// the configured repetitions.
///
/// The acceptance bar for the executor refactor is that the events-on run
/// loses at most a few percent of iterations/sec — the stream only touches
/// the engine's cold edges (restarts, strict best-cost improvements), never
/// the per-iteration hot path.
#[must_use]
pub fn measure_executor_overhead(
    benchmark: &Benchmark,
    config: &ThroughputConfig,
) -> ExecutorOverheadResult {
    measure_overhead(benchmark, config, None, |batch| {
        let sink = CountingSink::new();
        let on = SequentialExecutor.execute_with_telemetry(&|| benchmark.build(), batch, &sink);
        (on, sink.count())
    })
}

/// Measure the cost of attaching a [`FlightRecorder`] (default
/// configuration: lifecycle + downsampled trajectory, phase profiling off)
/// to one benchmark; `events` reports the recorder's own `recorder.events`
/// counter.  Repetitions continue until the estimate settles inside
/// [`RECORDER_OVERHEAD_BUDGET`] (see `measure_overhead`).
#[must_use]
pub fn measure_recorder_overhead(
    benchmark: &Benchmark,
    config: &ThroughputConfig,
) -> ExecutorOverheadResult {
    measure_overhead(benchmark, config, Some(RECORDER_OVERHEAD_BUDGET), |batch| {
        let recorder = FlightRecorder::new(
            TraceMeta {
                benchmark: benchmark.id(),
                backend: "sequential".to_string(),
                master_seed: THROUGHPUT_SEED,
                walks: 1,
            },
            RecorderConfig::default(),
        );
        let on = SequentialExecutor.execute_with_telemetry(&|| benchmark.build(), batch, &recorder);
        let events = recorder
            .registry()
            .snapshot()
            .counter("recorder.events")
            .unwrap_or(0);
        (on, events)
    })
}

/// Measure the cost of the supervision layer on one benchmark: the plain run
/// against `execute_supervised` with a fresh [`Supervision`] table
/// (heartbeat publication at every stop-poll, best-so-far slots, kill-flag
/// polling) — the fault-free steady state a long campaign pays for all the
/// time.  `events` reports the heartbeats the supervised run published, and
/// repetitions continue until the estimate settles inside
/// [`SUPERVISION_OVERHEAD_BUDGET`] (see `measure_overhead`).
#[must_use]
pub fn measure_supervision_overhead(
    benchmark: &Benchmark,
    config: &ThroughputConfig,
) -> ExecutorOverheadResult {
    measure_overhead(
        benchmark,
        config,
        Some(SUPERVISION_OVERHEAD_BUDGET),
        |batch| {
            let supervision = Supervision::new(batch.walks());
            let on = SequentialExecutor.execute_supervised(
                &|| benchmark.build(),
                batch,
                None,
                &supervision,
            );
            (on, supervision.heartbeat_of(0))
        },
    )
}

/// Measure the whole suite and assemble the report.
#[must_use]
pub fn run_report(config: &ThroughputConfig, mode: &str) -> EngineThroughputReport {
    let results: Vec<ThroughputResult> = throughput_suite()
        .iter()
        .map(|b| measure(b, config))
        .collect();
    let reference = pre_projection_reference();
    let speedup_vs_reference = results
        .iter()
        .filter_map(|r| {
            reference
                .iter()
                .find(|e| e.id == r.id)
                .filter(|e| e.iters_per_sec > 0.0)
                .map(|e| ReferenceEntry {
                    id: r.id.clone(),
                    iters_per_sec: r.iters_per_sec / e.iters_per_sec,
                })
        })
        .collect();
    EngineThroughputReport {
        schema: "cbls-bench-engine/1".to_string(),
        mode: mode.to_string(),
        seed: THROUGHPUT_SEED,
        config: *config,
        results,
        reference,
        speedup_vs_reference,
        batch_speedup: throughput_suite()
            .iter()
            .map(|b| measure_batch_speedup(b, config))
            .collect(),
        executor_overhead: measure_executor_overhead(&Benchmark::CostasArray(14), config),
        recorder_overhead: throughput_suite()
            .iter()
            .map(|b| measure_recorder_overhead(b, config))
            .collect(),
        supervision_overhead: throughput_suite()
            .iter()
            .map(|b| measure_supervision_overhead(b, config))
            .collect(),
        service_throughput: measure_service_throughput(config),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_ids_are_unique_and_reference_entries_all_resolve() {
        let suite = throughput_suite();
        let ids: std::collections::HashSet<String> = suite.iter().map(Benchmark::id).collect();
        assert_eq!(ids.len(), suite.len());
        // Every reference entry must name a measured benchmark (the reverse
        // does not hold: the model-layer benchmarks post-date the reference
        // engine).
        let reference = pre_projection_reference();
        for e in &reference {
            assert!(
                ids.contains(&e.id),
                "reference entry {} is not in the suite",
                e.id
            );
        }
        // The pre-batching snapshot covers the *whole* suite (it was taken
        // after the model-layer benchmarks joined), and the guarded ids are
        // in it.
        let batching = pre_batching_reference();
        assert_eq!(batching.len(), suite.len());
        for e in &batching {
            assert!(
                ids.contains(&e.id),
                "pre-batching entry {} is not in the suite",
                e.id
            );
        }
        for id in BATCH_SPEEDUP_GUARDED {
            assert!(
                batching.iter().any(|e| e.id == id),
                "guarded suite {id} has no pre-batching reference"
            );
        }
        // ... and the model-layer entries are really in the suite.
        for id in ["magic-sequence-30", "golomb-8", "coloring-60x3", "qcp-10"] {
            assert!(ids.contains(id), "model benchmark {id} missing from suite");
        }
    }

    #[test]
    fn measurement_runs_the_exact_budget() {
        let config = ThroughputConfig {
            budget: 500,
            repetitions: 1,
        };
        let result = measure(&Benchmark::NQueens(16), &config);
        assert_eq!(result.iterations, 500);
        assert!(result.iters_per_sec > 0.0);
        assert_eq!(result.id, "queens-16");
    }

    #[test]
    fn report_serializes_and_round_trips() {
        let config = ThroughputConfig {
            budget: 200,
            repetitions: 1,
        };
        let report = run_report(&config, "quick");
        assert_eq!(report.results.len(), throughput_suite().len());
        assert_eq!(
            report.speedup_vs_reference.len(),
            report.reference.len(),
            "every reference entry yields a speedup ratio"
        );
        assert_eq!(report.executor_overhead.id, "costas-14");
        assert_eq!(report.batch_speedup.len(), throughput_suite().len());
        assert_eq!(report.recorder_overhead.len(), throughput_suite().len());
        assert_eq!(report.supervision_overhead.len(), throughput_suite().len());
        assert_eq!(
            report.service_throughput.completed,
            report.service_throughput.requests
        );
        assert!(report.service_throughput.winners_match_direct);
        let json = serde_json::to_string(&report).unwrap();
        let back: EngineThroughputReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }

    #[test]
    fn scalar_probe_adapter_changes_the_scan_not_the_trajectory() {
        // Through the wrapper, the profile claim is gone but the search is
        // bit-for-bit the same run (same solution, same stats) — that is the
        // batched-probe contract the speedup ratio rests on.
        let bench = Benchmark::GraphColoring {
            nodes: 20,
            colors: 3,
        };
        let mut tuned = bench.tuned_config();
        tuned.target_cost = -1;
        let engine = AdaptiveSearch::new(tuned);
        let run = |scalar: bool| {
            let mut evaluator = if scalar {
                Box::new(ScalarProbes(bench.build())) as Box<dyn Evaluator>
            } else {
                bench.build()
            };
            let run = Run {
                budget: Some(&|restart| (restart == 0).then_some(2_000)),
                ..Run::default()
            };
            engine.run(&mut evaluator, &mut default_rng(THROUGHPUT_SEED), run)
        };
        let batched = run(false);
        let scalar = run(true);
        assert!(
            !ScalarProbes(bench.build())
                .incremental_profile()
                .batched_probes
        );
        assert_eq!(batched.solution, scalar.solution);
        assert_eq!(batched.stats, scalar.stats);

        let speedup = measure_batch_speedup(
            &bench,
            &ThroughputConfig {
                budget: 400,
                repetitions: 1,
            },
        );
        assert_eq!(speedup.id, "coloring-20x3");
        assert!(speedup.iters_per_sec_batched > 0.0);
        assert!(speedup.iters_per_sec_scalar > 0.0);
        assert!(speedup.speedup > 0.0);
    }

    #[test]
    fn recorder_overhead_is_passive_and_counts_recorder_events() {
        let config = ThroughputConfig {
            budget: 600,
            repetitions: 1,
        };
        let overhead = measure_recorder_overhead(&Benchmark::NQueens(16), &config);
        assert_eq!(overhead.id, "queens-16");
        assert_eq!(overhead.iterations, 600);
        assert!(overhead.iters_per_sec_events_off > 0.0);
        assert!(overhead.iters_per_sec_events_on > 0.0);
        // Started + Finished at minimum, plus restarts and improvements.
        assert!(overhead.events >= 2);
        assert!(overhead.overhead_fraction < 1.0);
    }

    #[test]
    fn supervision_overhead_is_passive_and_counts_heartbeats() {
        let config = ThroughputConfig {
            budget: 600,
            repetitions: 1,
        };
        let overhead = measure_supervision_overhead(&Benchmark::NQueens(16), &config);
        assert_eq!(overhead.id, "queens-16");
        assert_eq!(overhead.iterations, 600);
        assert!(overhead.iters_per_sec_events_off > 0.0);
        assert!(overhead.iters_per_sec_events_on > 0.0);
        // heartbeats are published at every stop-poll of the supervised run
        assert!(overhead.events >= 1);
        assert!(overhead.overhead_fraction < 1.0);
    }

    #[test]
    fn executor_overhead_runs_the_budget_and_counts_events() {
        let config = ThroughputConfig {
            budget: 600,
            repetitions: 1,
        };
        let overhead = measure_executor_overhead(&Benchmark::NQueens(16), &config);
        assert_eq!(overhead.id, "queens-16");
        assert_eq!(overhead.iterations, 600);
        assert!(overhead.iters_per_sec_events_off > 0.0);
        assert!(overhead.iters_per_sec_events_on > 0.0);
        // at least Started + Finished, plus any restart/improvement events
        assert!(overhead.events >= 2);
        assert!(overhead.overhead_fraction < 1.0);
    }
}
