//! The chaos matrix: seeded fault injection (`FaultPlan`) exercised on every
//! executor back-end, asserting that the supervision layer's behaviour —
//! fault reports, retry histories, rederived seeds and winners — is a pure
//! function of `(master_seed, plan, policy)`, identical across the
//! sequential and threads back-ends.
//!
//! Scenarios: panic-at-probe recovered by a retry, a stall caught by the
//! executor's per-slice stall check, deadline expiry with and without
//! faults, retry exhaustion, mixed panic+stall plans, and the telemetry
//! integration (fault events and `faults.*` counters in a validated flight
//! recording).  An ignored helper runs the scenarios again and again beside
//! spinning threads, to show how host load bears on them.
//!
//! Every batch here runs to completion.  Under first-finisher semantics a
//! losing walk stops wherever the winner's bound finds it, which depends on
//! the back-end, and so does whether that walk reaches its injected fault.

use std::panic::catch_unwind;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::Duration;

use cbls_testkit::{ChaosFactory, FaultPlan, FaultSpec, FaultWindow};
use parallel_cbls::prelude::*;

/// A solvable configuration polling stop every iteration: a supervised walk
/// runs one iteration per slice, so a stall kill is observed at the next
/// iteration and stall heartbeat counts are deterministic.
fn chaos_search(bench: &Benchmark) -> SearchConfig {
    let mut search = bench.tuned_config();
    search.stop_check_interval = 1;
    search
}

/// A configuration that can only stop via the batch deadline.
fn endless_search(bench: &Benchmark) -> SearchConfig {
    let mut search = chaos_search(bench);
    search.max_iterations_per_restart = u64::MAX / 8;
    search.max_restarts = 0;
    search.target_cost = -1; // unreachable
    search
}

/// Run `batch` through a supervisor over `executor` with `plan` injected.
fn run_chaos(
    executor: WalkExecutor,
    bench: &Benchmark,
    plan: FaultPlan,
    batch: &WalkBatch,
    policy: RetryPolicy,
) -> SupervisedExecution {
    let factory = ChaosFactory::new(|| bench.build(), plan);
    Supervisor::new(executor)
        .with_policy(policy)
        .run(&factory, batch)
}

/// Every deterministic field of two supervised runs must agree: retry
/// histories, and per-walk seeds, attempts, faults, iteration counts and
/// solutions.  (Wall-clock fields are exempt by construction.)
fn assert_runs_agree(label: &str, a: &SupervisedExecution, b: &SupervisedExecution) {
    assert_eq!(a.retries, b.retries, "{label}: retry histories diverged");
    assert_eq!(
        a.execution.winner, b.execution.winner,
        "{label}: winners diverged"
    );
    assert_eq!(
        a.execution.degradation, b.execution.degradation,
        "{label}: degradation reasons diverged"
    );
    for (x, y) in a.execution.records.iter().zip(b.execution.records.iter()) {
        assert_eq!(x.seed, y.seed, "{label}: walk {} seed", x.walk_id);
        assert_eq!(x.attempt, y.attempt, "{label}: walk {} attempt", x.walk_id);
        assert_eq!(x.fault, y.fault, "{label}: walk {} fault report", x.walk_id);
        assert_eq!(
            x.outcome.stats.iterations, y.outcome.stats.iterations,
            "{label}: walk {} iterations",
            x.walk_id
        );
        assert_eq!(
            x.outcome.solution, y.outcome.solution,
            "{label}: walk {} solution",
            x.walk_id
        );
    }
}

/// Run the scenario on both back-ends and assert they agree with the
/// sequential reference, returning the reference run.
fn matrix(
    bench: &Benchmark,
    plan: &FaultPlan,
    batch: &WalkBatch,
    policy: RetryPolicy,
) -> SupervisedExecution {
    let reference = run_chaos(SequentialExecutor, bench, plan.clone(), batch, policy);
    let threads = run_chaos(ThreadsExecutor, bench, plan.clone(), batch, policy);
    assert_runs_agree("threads", &reference, &threads);
    reference
}

/// Panic at a probe on the original attempt only: the retry reruns the walk
/// on the rederived `(walk, 1)` stream and recovers it completely — the
/// batch is not even partial afterwards.
#[test]
fn injected_panic_is_retried_and_recovered_on_every_backend() {
    let bench = Benchmark::CostasArray(9);
    let batch = WalkBatch::uniform(7, &chaos_search(&bench), 3).run_to_completion();
    let plan = FaultPlan::new().panic_once(1, 10);
    let run = matrix(&bench, &plan, &batch, RetryPolicy::retries(2));

    assert!(run.solved());
    assert!(!run.is_partial(), "a recovered batch is a full result");
    assert_eq!(run.execution.degradation, None);
    assert_eq!(run.retries.len(), 1);
    assert_eq!(run.retries[0].walk_id, 1);
    assert_eq!(run.retries[0].attempts, 1);
    assert!(run.retries[0].recovered);
    let record = &run.execution.records[1];
    assert!(record.fault.is_none());
    assert_eq!(record.attempt, 1);
    assert_eq!(record.seed, WalkSeeds::new(7).seed_of_attempt(1, 1));
}

/// A stalled evaluator holds its walk's slice past the stall window; the
/// executor kills the walk and the supervisor classifies it as `Stalled`
/// with a deterministic heartbeat count (stop polls run every iteration).
/// Without retries the fault stays in the record and the batch degrades to
/// `WalkFaults`.
#[test]
fn a_stall_is_classified_identically_on_every_backend() {
    let bench = Benchmark::CostasArray(10);
    let batch = WalkBatch::uniform(2012, &chaos_search(&bench), 2).run_to_completion();
    let plan = FaultPlan::new().stall_once(0, 4, Duration::from_millis(400));
    let run = matrix(&bench, &plan, &batch, RetryPolicy::retries(0));

    // one history entry per faulted walk, but the policy allowed no attempts
    assert_eq!(
        run.retries,
        vec![RetryOutcome {
            walk_id: 0,
            attempts: 0,
            recovered: false,
        }]
    );
    let stalled = &run.execution.records[0];
    assert_eq!(stalled.outcome.reason, TerminationReason::Faulted);
    assert!(
        matches!(stalled.fault, Some(WalkFault::Stalled { .. })),
        "expected a stall fault, got {:?}",
        stalled.fault
    );
    // the healthy sibling still decides the batch
    assert_eq!(run.execution.winner, Some(1));
    assert_eq!(
        run.execution.degradation,
        Some(DegradationReason::WalkFaults)
    );
    assert!(run.is_partial());
    assert!(run.incumbent().is_some());
}

/// The same stall under a retry policy: the killed walk's retry runs clean
/// (the plan covers attempt 0 only) and the batch recovers fully.
#[test]
fn stalled_walk_recovers_through_a_retry_on_every_backend() {
    let bench = Benchmark::CostasArray(10);
    let batch = WalkBatch::uniform(2012, &chaos_search(&bench), 2).run_to_completion();
    let plan = FaultPlan::new().stall_once(0, 4, Duration::from_millis(400));
    let run = matrix(&bench, &plan, &batch, RetryPolicy::retries(1));

    assert_eq!(run.retries.len(), 1);
    assert_eq!(run.retries[0].walk_id, 0);
    assert!(run.retries[0].recovered);
    assert!(run.solved());
    assert!(!run.is_partial());
    assert_eq!(
        run.execution.records[0].seed,
        WalkSeeds::new(2012).seed_of_attempt(0, 1)
    );
}

/// Deadline expiry without faults is an anytime partial result: no winner,
/// every walk `TimedOut`, a `DeadlineExpired` degradation and an incumbent.
#[test]
fn deadline_expiry_degrades_to_a_partial_result() {
    let bench = Benchmark::CostasArray(10);
    let batch = WalkBatch::uniform(5, &endless_search(&bench), 2)
        .run_to_completion()
        .with_timeout(Duration::from_millis(30));
    for (label, run) in [
        (
            "sequential",
            run_chaos(
                SequentialExecutor,
                &bench,
                FaultPlan::new(),
                &batch,
                RetryPolicy::retries(1),
            ),
        ),
        (
            "threads",
            run_chaos(
                ThreadsExecutor,
                &bench,
                FaultPlan::new(),
                &batch,
                RetryPolicy::retries(1),
            ),
        ),
    ] {
        assert!(!run.solved(), "{label}");
        assert!(run.retries.is_empty(), "{label}: a timeout is not a fault");
        assert_eq!(
            run.execution.degradation,
            Some(DegradationReason::DeadlineExpired),
            "{label}"
        );
        let incumbent = run.incumbent().unwrap_or_else(|| {
            panic!("{label}: the expired batch still carries its best assignment")
        });
        assert!(!incumbent.assignment.is_empty(), "{label}");
        assert!(
            run.execution
                .records
                .iter()
                .all(|r| r.outcome.reason == TerminationReason::TimedOut),
            "{label}"
        );
    }
}

/// A fault under deadline pressure: the panicked walk cannot be retried
/// because the deadline is already spent, so the batch reports
/// `DeadlineExpiredWithFaults` — both things went wrong, both are visible.
#[test]
fn faults_under_deadline_pressure_report_both_degradations() {
    let bench = Benchmark::CostasArray(10);
    let batch = WalkBatch::uniform(5, &endless_search(&bench), 3)
        .run_to_completion()
        .with_timeout(Duration::from_millis(30));
    let plan = FaultPlan::new().panic_always(0, 5);
    for (label, run) in [
        (
            "sequential",
            run_chaos(
                SequentialExecutor,
                &bench,
                plan.clone(),
                &batch,
                RetryPolicy::retries(2),
            ),
        ),
        (
            "threads",
            run_chaos(
                ThreadsExecutor,
                &bench,
                plan.clone(),
                &batch,
                RetryPolicy::retries(2),
            ),
        ),
    ] {
        assert!(!run.solved(), "{label}");
        assert_eq!(
            run.execution.degradation,
            Some(DegradationReason::DeadlineExpiredWithFaults),
            "{label}"
        );
        assert!(
            matches!(
                run.execution.records[0].fault,
                Some(WalkFault::Panicked { .. })
            ),
            "{label}"
        );
        // the retry loop gave up without an attempt: no deadline budget left
        assert_eq!(run.retries.len(), 1, "{label}");
        assert_eq!(run.retries[0].attempts, 0, "{label}");
        assert!(!run.retries[0].recovered, "{label}");
        assert!(run.incumbent().is_some(), "{label}");
    }
}

/// A fault covering every attempt exhausts the retry budget: the final
/// record keeps the fault, the attempt index and the rederived seed of the
/// last attempt, and the healthy walks still decide the batch.
#[test]
fn retry_exhaustion_is_reported_identically_on_every_backend() {
    let bench = Benchmark::CostasArray(9);
    let batch = WalkBatch::uniform(7, &chaos_search(&bench), 3).run_to_completion();
    let plan = FaultPlan::new().panic_always(1, 10);
    let run = matrix(&bench, &plan, &batch, RetryPolicy::retries(2));

    assert_eq!(run.retries.len(), 1);
    assert_eq!(
        run.retries[0],
        RetryOutcome {
            walk_id: 1,
            attempts: 2,
            recovered: false,
        }
    );
    let record = &run.execution.records[1];
    assert_eq!(record.attempt, 2);
    assert_eq!(record.seed, WalkSeeds::new(7).seed_of_attempt(1, 2));
    assert!(matches!(record.fault, Some(WalkFault::Panicked { .. })));
    assert!(run.solved(), "healthy walks still decide the batch");
    assert!(run.is_partial());
    assert_eq!(
        run.execution.degradation,
        Some(DegradationReason::WalkFaults)
    );
}

/// A mixed plan — a panic on one walk, a stall on another — recovers both
/// through retries, with identical retry histories on every back-end.
#[test]
fn mixed_faults_recover_identically_on_every_backend() {
    let bench = Benchmark::CostasArray(10);
    let batch = WalkBatch::uniform(2012, &chaos_search(&bench), 3).run_to_completion();
    let plan = FaultPlan::new()
        .with_fault(0, FaultWindow::Attempt(0), FaultSpec::Panic { probe: 7 })
        .stall_once(2, 4, Duration::from_millis(300));
    let run = matrix(&bench, &plan, &batch, RetryPolicy::retries(2));

    assert_eq!(run.retries.len(), 2);
    assert!(run.retries.iter().all(|r| r.attempts == 1 && r.recovered));
    let mut retried: Vec<usize> = run.retries.iter().map(|r| r.walk_id).collect();
    retried.sort_unstable();
    assert_eq!(retried, vec![0, 2]);
    assert!(run.solved());
    assert!(!run.is_partial());
    for walk in [0, 2] {
        let record = &run.execution.records[walk];
        assert_eq!(record.attempt, 1);
        assert_eq!(record.seed, WalkSeeds::new(2012).seed_of_attempt(walk, 1));
        assert!(record.fault.is_none());
    }
}

/// Fault and retry events flow into the flight recorder: the recording
/// still validates (one lifecycle pair per walk — retries re-emit under the
/// original walk id) and the `faults.*` counters account for the plan.
#[test]
fn fault_and_retry_events_land_in_the_flight_recorder() {
    let bench = Benchmark::CostasArray(9);
    let walks = 3;
    let batch = WalkBatch::uniform(7, &chaos_search(&bench), walks).run_to_completion();
    let factory = ChaosFactory::new(|| bench.build(), FaultPlan::new().panic_once(1, 10));
    let recorder = FlightRecorder::new(
        TraceMeta {
            benchmark: bench.id(),
            backend: "threads".to_string(),
            master_seed: 7,
            walks,
        },
        RecorderConfig {
            capacity: 1 << 16,
            ..RecorderConfig::default()
        },
    );
    let supervisor = Supervisor::new(ThreadsExecutor).with_policy(RetryPolicy::retries(2));
    let run = supervisor.run_with_telemetry(&factory, &batch, &recorder);
    assert!(run.solved());
    assert_eq!(run.retries.len(), 1);

    let recording = recorder.finish(&run.execution);
    recording
        .validate()
        .expect("a supervised recording still validates");
    assert_eq!(recording.metrics.counter("faults.panicked"), Some(1));
    assert_eq!(recording.metrics.counter("faults.stalled"), Some(0));
    assert_eq!(recording.metrics.counter("faults.retried"), Some(1));
}

/// Every scenario above, run 40 times beside `available_parallelism() + 1`
/// spinning threads (never more than 8).  A stall verdict that host load
/// can fake shows here as a failed round.  It takes minutes, so it runs
/// only on request: `cargo test --release --test chaos -- --ignored`.
#[test]
#[ignore = "minutes of host load; run with --ignored"]
fn chaos_scenarios_hold_beside_spinning_threads() {
    const ROUNDS: usize = 40;
    macro_rules! named {
        ($($scenario:ident),* $(,)?) => {
            [$((stringify!($scenario), $scenario as fn())),*]
        };
    }
    let scenarios = named![
        injected_panic_is_retried_and_recovered_on_every_backend,
        a_stall_is_classified_identically_on_every_backend,
        stalled_walk_recovers_through_a_retry_on_every_backend,
        deadline_expiry_degrades_to_a_partial_result,
        faults_under_deadline_pressure_report_both_degradations,
        retry_exhaustion_is_reported_identically_on_every_backend,
        mixed_faults_recover_identically_on_every_backend,
        fault_and_retry_events_land_in_the_flight_recorder,
    ];
    let spinners = thread::available_parallelism().map_or(1, |n| n.get()) + 1;
    let spinners = spinners.min(8);
    let done = AtomicBool::new(false);
    let failed_rounds = thread::scope(|scope| {
        for _ in 0..spinners {
            // Relaxed: the flag only ends the spin; it publishes nothing.
            scope.spawn(|| {
                while !done.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            });
        }
        let mut failed_rounds = 0;
        for round in 0..ROUNDS {
            let failed: Vec<&str> = scenarios
                .iter()
                .filter(|(_, scenario)| catch_unwind(*scenario).is_err())
                .map(|(name, _)| *name)
                .collect();
            if !failed.is_empty() {
                failed_rounds += 1;
                eprintln!("round {round}: failed {failed:?}");
            }
        }
        // Relaxed: see the spinners.
        done.store(true, Ordering::Relaxed);
        failed_rounds
    });
    eprintln!("{failed_rounds} of {ROUNDS} rounds failed beside {spinners} spinning threads");
    assert_eq!(failed_rounds, 0, "host load changed a scenario's outcome");
}
