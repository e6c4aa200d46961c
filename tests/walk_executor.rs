//! Integration tests of the walk-executor layer: deadline-aware
//! cancellation on one worker and on one per core, the telemetry event
//! contract, and the cap of one worker per core.

use std::collections::HashSet;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

use parallel_cbls::core::EvaluatorFactory;
use parallel_cbls::parallel::EventSink;
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
/// is absolute, not per-walk.  One worker runs a replay's walks one after
/// another, so its later walks start late; it goes round the walks of a
/// first-finisher batch, so they reach the deadline together.
#[test]
fn deadline_is_shared_by_late_starting_walks() {
    let batch = WalkBatch::uniform(0xC0DE_CAFE, &endless_search(), 4)
        .with_timeout(Duration::from_millis(25));
    let result =
        SequentialExecutor.execute(&|| CostasArray::new(10), &batch.clone().run_to_completion());
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

    // Round-robin in slices of one iteration, every walk sees the deadline
    // in the same round.
    let result = SequentialExecutor.execute(&|| CostasArray::new(10), &batch);
    assert!(result
        .records
        .iter()
        .all(|r| r.outcome.reason == TerminationReason::TimedOut));
    let counts: Vec<u64> = result
        .records
        .iter()
        .map(|r| r.outcome.stats.iterations)
        .collect();
    let (least, most) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
    assert!(
        most - least <= 1,
        "walks reached the deadline apart: {counts:?}"
    );
}

/// One worker ends each walk's slice one heartbeat interval past its count,
/// saturated at `u64::MAX`: at the largest intervals, with iteration budgets
/// at and near `u64::MAX`, it returns the threaded batch's winner.
/// Release builds wrap on overflow where debug builds panic, and CI runs
/// this suite in both.
#[test]
fn slice_ends_saturate_at_extreme_intervals_and_budgets() {
    let factory = || CostasArray::new(9);
    for interval in [u64::MAX, u64::MAX - 1, u64::MAX / 2 + 1] {
        for budget in [u64::MAX, u64::MAX - 1] {
            let search = SearchConfig::builder()
                .max_iterations_per_restart(budget)
                .max_restarts(0)
                .stop_check_interval(interval)
                .build();
            let jobs = (0..4)
                .map(|_| WalkJob::new(search.clone()).with_budget(search.sliced_budget(budget)))
                .collect();
            let batch = WalkBatch::new(WalkSeeds::new(9), jobs);
            let case = format!("interval {interval}, budget {budget}");
            let one_worker = SequentialExecutor.execute(&factory, &batch);
            let threads = ThreadsExecutor.execute(&factory, &batch);
            assert!(one_worker.winner.is_some(), "{case}");
            assert_eq!(one_worker.winner, threads.winner, "{case}");
            let (a, b) = (
                one_worker.winning_record().unwrap(),
                threads.winning_record().unwrap(),
            );
            assert_eq!(a.outcome.stats, b.outcome.stats, "{case}");
            assert_eq!(a.outcome.solution, b.outcome.solution, "{case}");
        }
    }
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

/// A replay's run-length distribution holds exactly the solved walks'
/// iteration counts: walks that run out of budget add nothing to it.
#[test]
fn iteration_distribution_holds_exactly_the_solved_walks_counts() {
    let search = SearchConfig::builder()
        .max_iterations_per_restart(60)
        .max_restarts(0)
        .build();
    // 7 of the 12 walks solve within 60 iterations; 5 run out of budget.
    let batch = WalkBatch::uniform(5, &search, 12);
    let replay = SimulatedMultiWalk::replay(&|| CostasArray::new(10), &batch, &ThreadsExecutor);
    let (solved, unsolved): (Vec<_>, Vec<_>) =
        replay.records().iter().partition(|r| r.outcome.solved());
    assert!(!solved.is_empty(), "some walks solve");
    assert!(
        unsolved
            .iter()
            .all(|r| r.outcome.reason == TerminationReason::IterationBudgetExhausted),
        "the others run out of budget"
    );
    assert!(!unsolved.is_empty(), "some walks run out of budget");
    let mut counts: Vec<f64> = solved
        .iter()
        .map(|r| r.outcome.stats.iterations as f64)
        .collect();
    counts.sort_by(f64::total_cmp);
    let distribution = replay.iteration_distribution().expect("some walks solve");
    assert_eq!(distribution.samples(), counts.as_slice());
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

/// The cores the standard library reports, as the executor reads them.
fn cores() -> usize {
    thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// Solves after exactly `length` iterations: the cost starts there and
/// every swap offers one less, so a walk's length is fixed and only its
/// solution follows its random stream.  Counts its drop on its gauge.
struct Countdown {
    length: i64,
    gauge: Arc<Gauge>,
}

impl Evaluator for Countdown {
    fn size(&self) -> usize {
        6
    }
    fn init(&mut self, _perm: &[usize]) -> i64 {
        self.length
    }
    fn cost(&self, _perm: &[usize]) -> i64 {
        self.length
    }
    fn cost_on_variable(&self, _perm: &[usize], _i: usize) -> i64 {
        1
    }
    fn cost_if_swap(&self, _perm: &[usize], cost: i64, _i: usize, _j: usize) -> i64 {
        cost - 1
    }
}

impl Drop for Countdown {
    fn drop(&mut self) {
        // Relaxed (every gauge count): each update is one read-modify-write
        // of one counter, and the counts are read after the batch joined.
        self.gauge.alive.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Evaluators built, alive, and the most alive at once.
#[derive(Default)]
struct Gauge {
    built: AtomicUsize,
    alive: AtomicUsize,
    peak: AtomicUsize,
}

/// Builds walk `w` a [`Countdown`] of 1 000 to 3 040 iterations, the
/// shortest on walk 175 alone, and counts builds on its gauge.
#[derive(Default)]
struct Countdowns {
    gauge: Arc<Gauge>,
}

impl EvaluatorFactory for Countdowns {
    type Output = Countdown;
    fn build(&self) -> Countdown {
        self.build_walk(0, 0)
    }
    fn build_walk(&self, walk_id: usize, _attempt: u32) -> Countdown {
        let gauge = &self.gauge;
        // Relaxed: see `Countdown::drop`.
        gauge.built.fetch_add(1, Ordering::Relaxed);
        // Relaxed: see `Countdown::drop`.
        let alive = gauge.alive.fetch_add(1, Ordering::Relaxed) + 1;
        // Relaxed: see `Countdown::drop`.
        gauge.peak.fetch_max(alive, Ordering::Relaxed);
        let step = (walk_id * 89 + 41) % 256;
        Countdown {
            length: 1_000 + 8 * step as i64,
            gauge: Arc::clone(gauge),
        }
    }
}

/// One restart, long enough for every countdown.
fn countdown_search() -> SearchConfig {
    SearchConfig::builder()
        .max_iterations_per_restart(10_000)
        .max_restarts(0)
        .build()
}

/// Records the thread each walk starts on.
#[derive(Default)]
struct StartThreads(Mutex<HashSet<ThreadId>>);

impl EventSink for StartThreads {
    fn record(&self, event: &WalkEvent) {
        if matches!(event, WalkEvent::Started { .. }) {
            self.0.lock().unwrap().insert(thread::current().id());
        }
    }
}

/// A 256-walk first-finisher batch on threads starts its walks on at most
/// one thread per core, and returns the winner, with its record, of the
/// replay on one worker.
#[test]
fn a_threaded_batch_runs_on_at_most_one_thread_per_core() {
    let batch = WalkBatch::uniform(29, &countdown_search(), 256);
    let sink = StartThreads::default();
    let run = ThreadsExecutor.execute_with_telemetry(&Countdowns::default(), &batch, &sink);
    let (threads, cores) = (sink.0.into_inner().unwrap().len(), cores());
    assert!(threads <= cores, "{threads} threads on {cores} cores");

    let replay = SimulatedMultiWalk::replay(&Countdowns::default(), &batch, &SequentialExecutor);
    let expect = &replay.records()[replay.winner(256).expect("every countdown solves")];
    assert_eq!(expect.walk_id, 175);
    assert_eq!(run.winner, Some(expect.walk_id));
    let got = run.winning_record().unwrap();
    assert_eq!(got.seed, expect.seed);
    assert_eq!(got.outcome.stats, expect.outcome.stats);
    assert_eq!(got.outcome.solution, expect.outcome.solution);
}

/// A 256-walk replay on threads runs walk after walk on each worker: no
/// more evaluators are alive at once than the host has cores.
#[test]
fn a_threaded_replay_keeps_at_most_one_evaluator_per_core_alive() {
    let factory = Countdowns::default();
    let batch = WalkBatch::uniform(29, &countdown_search(), 256);
    let replay = SimulatedMultiWalk::replay(&factory, &batch, &ThreadsExecutor);
    assert!((replay.success_rate() - 1.0).abs() < 1e-12);
    let gauge = &factory.gauge;
    // Relaxed (the three loads): the replay joined every worker.
    assert_eq!(gauge.built.load(Ordering::Relaxed), 256);
    // Relaxed: see above.
    assert_eq!(gauge.alive.load(Ordering::Relaxed), 0, "each was dropped");
    // Relaxed: see above.
    let (peak, cores) = (gauge.peak.load(Ordering::Relaxed), cores());
    assert!(peak <= cores, "{peak} evaluators alive on {cores} cores");
}
