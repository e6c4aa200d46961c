//! Integration tests of the walk-executor layer: deadline-aware
//! cancellation on every back-end, and the telemetry event contract.

use std::time::{Duration, Instant};

use parallel_cbls::prelude::*;

/// A search configuration that can never finish on its own within a test's
/// lifetime (the evaluators below are satisfiable, so give the engine an
/// absurd budget and rely on the deadline to stop it).
fn endless_search() -> SearchConfig {
    SearchConfig::builder()
        .max_iterations_per_restart(u64::MAX / 8)
        .max_restarts(0)
        .stop_check_interval(1)
        .target_cost(-1) // unreachable: walks can only stop via the deadline
        .build()
}

/// Anytime semantics at the deadline: a timed-out multi-walk run has no
/// winner, but it is a *partial result*, not a dead loss — every back-end
/// reports `TimedOut` on every walk, a `DeadlineExpired` degradation, and
/// the best incumbent any walk reached before the deadline.
#[test]
fn timed_out_multiwalk_returns_partial_results_on_every_backend() {
    let batch =
        WalkBatch::uniform(2012, &endless_search(), 3).with_timeout(Duration::from_millis(30));
    let factory = || CostasArray::new(10);
    let started = Instant::now();
    let backends = [
        ("threads", ThreadsExecutor.execute(&factory, &batch)),
        ("sequential", SequentialExecutor.execute(&factory, &batch)),
    ];
    for (label, result) in backends {
        assert_eq!(result.winner, None, "{label}: timed-out run has no winner");
        assert_eq!(result.records.len(), 3);
        for report in &result.records {
            assert_eq!(
                report.outcome.reason,
                TerminationReason::TimedOut,
                "{label}: every walk self-cancels at the shared deadline"
            );
            assert!(report.fault.is_none(), "{label}: a timeout is not a fault");
        }
        // the degraded batch still carries its best-so-far assignment
        assert_eq!(
            result.degradation,
            Some(DegradationReason::DeadlineExpired),
            "{label}: deadline expiry is reported as a structured degradation"
        );
        let incumbent = result
            .incumbent
            .as_ref()
            .unwrap_or_else(|| panic!("{label}: partial result carries an incumbent"));
        let best_walk = &result.records[incumbent.walk_id];
        assert_eq!(incumbent.cost, best_walk.outcome.best_cost);
        assert_eq!(incumbent.assignment, best_walk.outcome.solution);
        assert_eq!(
            incumbent.cost,
            result
                .records
                .iter()
                .map(|r| r.outcome.best_cost)
                .min()
                .unwrap(),
            "{label}: the incumbent is the best cost across all walks"
        );
    }
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "deadlines must actually cancel the walks"
    );
}

/// A sequential batch with a deadline cancels walks that are *scheduled
/// after* the deadline passes, not only walks already running — the deadline
/// is absolute, not per-walk.
#[test]
fn deadline_is_shared_by_late_starting_walks() {
    let batch = WalkBatch::uniform(WalkSeeds::DEFAULT_MASTER_SEED, &endless_search(), 4)
        .with_timeout(Duration::from_millis(25));
    let result = SequentialExecutor.execute(&|| CostasArray::new(10), &batch);
    // the first walk consumed the whole budget; later walks must stop at
    // their first poll instead of burning 25ms each
    assert_eq!(result.winner, None);
    assert_eq!(result.degradation, Some(DegradationReason::DeadlineExpired));
    assert!(
        result.incumbent.is_some(),
        "even an expired batch surfaces its best-so-far assignment"
    );
    let later_iterations: u64 = result.records[1..]
        .iter()
        .map(|r| r.outcome.stats.iterations)
        .sum();
    let first_iterations = result.records[0].outcome.stats.iterations;
    assert!(
        later_iterations <= first_iterations / 2,
        "late walks should cancel almost immediately \
         (first: {first_iterations}, later: {later_iterations})"
    );
}

/// The telemetry contract on a real benchmark: one `Started` and one
/// `Finished` per walk bracketing its `Restarted` / `ImprovedCost` events,
/// and attaching the sink does not perturb the run.
#[test]
fn telemetry_stream_is_complete_and_passive() {
    let batch = WalkBatch::uniform(7, &Benchmark::CostasArray(9).tuned_config(), 4);
    let factory = || CostasArray::new(9);

    let plain = SequentialExecutor.execute(&factory, &batch);
    let log = EventLog::new();
    let observed = SequentialExecutor.execute_with_telemetry(&factory, &batch, &log);

    assert_eq!(plain.winner, observed.winner);
    for (a, b) in plain.records.iter().zip(observed.records.iter()) {
        assert_eq!(a.outcome.stats, b.outcome.stats);
        assert_eq!(a.outcome.solution, b.outcome.solution);
    }

    for report in &observed.records {
        let events = log.events_of(report.walk_id);
        assert!(
            matches!(events.first(), Some(WalkEvent::Started { seed, .. }) if *seed == report.seed),
            "walk {} must start with Started",
            report.walk_id
        );
        match events.last() {
            Some(WalkEvent::Finished {
                solved,
                iterations,
                cost,
                ..
            }) => {
                assert_eq!(*solved, report.outcome.solved());
                assert_eq!(*iterations, report.outcome.stats.iterations);
                assert_eq!(*cost, report.outcome.best_cost);
            }
            other => panic!(
                "walk {} must end with Finished, got {other:?}",
                report.walk_id
            ),
        }
        // improvements are strictly decreasing and reach the final best cost
        let improvements: Vec<i64> = events
            .iter()
            .filter_map(|e| match e {
                WalkEvent::ImprovedCost { cost, .. } => Some(*cost),
                _ => None,
            })
            .collect();
        assert!(improvements.windows(2).all(|w| w[1] < w[0]));
        assert_eq!(*improvements.last().unwrap(), report.outcome.best_cost);
        // restart events match the walk's restart counter
        let restarts = events
            .iter()
            .filter(|e| matches!(e, WalkEvent::Restarted { .. }))
            .count() as u64;
        assert_eq!(restarts, report.outcome.stats.restarts);
    }
}

/// Online recording through a `DistributionSink` sees exactly the solved
/// walks' iteration counts — the same observations a post-hoc pass over
/// the records would collect, available the moment each walk finishes.
#[test]
fn distribution_sink_matches_posthoc_recording() {
    let batch = WalkBatch::uniform(5, &Benchmark::NQueens(20).tuned_config(), 6);
    let sink = DistributionSink::new();
    let result = ThreadsExecutor.execute_with_telemetry(&|| NQueens::new(20), &batch, &sink);

    let mut online: Vec<f64> = sink.into_accumulator().observations().to_vec();
    let mut posthoc: Vec<f64> = result
        .records
        .iter()
        .filter(|r| r.outcome.solved())
        .map(|r| r.outcome.stats.iterations as f64)
        .collect();
    online.sort_by(f64::total_cmp);
    posthoc.sort_by(f64::total_cmp);
    assert_eq!(online, posthoc);
    assert!(!online.is_empty(), "at least the winner solved");
}

/// `select_winner` is the winner rule of an executed batch: the records a
/// batch returns plug into it and give back the batch's winner.
#[test]
fn select_winner_is_shared_across_report_types() {
    let search = Benchmark::CostasArray(9).tuned_config();
    let multi =
        ThreadsExecutor.execute(&|| CostasArray::new(9), &WalkBatch::uniform(7, &search, 3));
    assert_eq!(select_winner(&multi.records), multi.winner);
}

/// The three degenerate batch shapes a hostile solve request can describe —
/// zero walks, a zero iteration budget, an already-expired deadline — must
/// execute to a well-formed `BatchExecution` on every back-end instead of
/// panicking the worker that runs them.  This is the contract the service
/// layer's admission path relies on: validate nothing it does not have to,
/// because the executor is total.
#[test]
fn degenerate_batches_are_well_formed_on_every_backend() {
    fn run_all(batch: &WalkBatch) -> [(&'static str, BatchExecution); 2] {
        let factory = || NQueens::new(12);
        [
            ("threads", ThreadsExecutor.execute(&factory, batch)),
            ("sequential", SequentialExecutor.execute(&factory, batch)),
        ]
    }

    // Zero walks: an empty but well-formed execution, with no degradation —
    // nothing was cut short, there was simply nothing to run.
    let empty = WalkBatch::new(WalkSeeds::new(1), Vec::new());
    for (label, execution) in run_all(&empty) {
        assert!(execution.records.is_empty(), "{label}");
        assert_eq!(execution.winner, None, "{label}");
        assert!(execution.winning_record().is_none(), "{label}");
        assert!(execution.incumbent.is_none(), "{label}");
        assert_eq!(execution.degradation, None, "{label}");
        assert!(!execution.is_partial(), "{label}");
    }

    // Zero iteration budget: every walk ends before its first iteration,
    // reporting budget exhaustion over the initial assignment — not a
    // timeout, not a fault, no degradation.
    let jobs = (0..2)
        .map(|_| WalkJob::new(endless_search()).with_budget(|_| None))
        .collect();
    let zero_budget = WalkBatch::new(WalkSeeds::new(2), jobs);
    for (label, execution) in run_all(&zero_budget) {
        assert_eq!(execution.records.len(), 2, "{label}");
        for record in &execution.records {
            assert_eq!(
                record.outcome.reason,
                TerminationReason::IterationBudgetExhausted,
                "{label}"
            );
            assert_eq!(record.outcome.stats.iterations, 0, "{label}");
            assert!(record.fault.is_none(), "{label}");
        }
        assert_eq!(execution.winner, None, "{label}");
        assert_eq!(execution.degradation, None, "{label}");
        // even a zero-budget walk evaluates its initial assignment, so the
        // batch still surfaces an incumbent
        assert!(execution.incumbent.is_some(), "{label}");
    }

    // Already-expired deadline: every walk self-cancels at its first stop
    // poll and the batch degrades to `DeadlineExpired`.
    let expired = WalkBatch::uniform(3, &endless_search(), 2).with_timeout(Duration::ZERO);
    for (label, execution) in run_all(&expired) {
        assert_eq!(execution.records.len(), 2, "{label}");
        for record in &execution.records {
            assert_eq!(
                record.outcome.reason,
                TerminationReason::TimedOut,
                "{label}: an expired deadline is a timeout, not a fault"
            );
            assert!(record.fault.is_none(), "{label}");
        }
        assert_eq!(execution.winner, None, "{label}");
        assert_eq!(
            execution.degradation,
            Some(DegradationReason::DeadlineExpired),
            "{label}"
        );
        assert!(execution.is_partial(), "{label}");
    }
}

/// The degenerate shapes stay well-formed under supervision too — the
/// service layer always runs jobs through `execute_supervised`.
#[test]
fn degenerate_batches_survive_supervised_execution() {
    let empty = WalkBatch::new(WalkSeeds::new(4), Vec::new());
    let supervision = Supervision::new(0);
    let execution =
        SequentialExecutor.execute_supervised(&|| NQueens::new(12), &empty, None, &supervision);
    assert!(execution.records.is_empty());
    assert_eq!(execution.degradation, None);

    let expired = WalkBatch::uniform(5, &endless_search(), 2).with_timeout(Duration::ZERO);
    let supervision = Supervision::new(2);
    let execution =
        ThreadsExecutor.execute_supervised(&|| NQueens::new(12), &expired, None, &supervision);
    assert_eq!(
        execution.degradation,
        Some(DegradationReason::DeadlineExpired)
    );
    assert!(execution.incumbent.is_some() || execution.records.is_empty());
}
