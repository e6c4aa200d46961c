//! The supervisor: supervised batch execution with deterministic retries.
//!
//! [`Supervisor::run`] executes a batch through its [`WalkExecutor`]'s
//! `execute_supervised` path, with three layers of protection on top of the
//! executor's built-in panic isolation:
//!
//! 1. **stall classification**: the executor times every slice a
//!    supervised walk runs and kills a walk whose slice overruns
//!    [`STALL_WINDOW`]; a killed walk that did not solve anyway comes back
//!    as a [`WalkFault::Stalled`] record.  A pass starts no thread of its
//!    own;
//! 2. a **retry loop** reschedules faulted walks as single-walk batches
//!    pinned to the deterministically rederived stream of `(walk, attempt)`
//!    ([`WalkSeeds::seed_of_attempt`]), under the [`RetryPolicy`]'s attempt
//!    bound, with the original batch deadline carried over;
//! 3. **anytime degradation**: after merging retries, the winner, incumbent
//!    and degradation reason are resolved again over the final records
//!    ([`BatchExecution::from_records`]), so a partially-faulted or
//!    deadline-expired batch still reports its best incumbent and a
//!    structured account of what went wrong.
//!
//! Retry events ([`WalkEvent::Retried`]) and post-hoc fault classifications
//! ([`WalkEvent::Faulted`]) are emitted to the run's sink under the walk's
//! *original* id; retry passes themselves run without a sink so the
//! lifecycle stream stays one `Started`/`Finished` pair per walk.
//!
//! [`STALL_WINDOW`]: cbls_parallel::STALL_WINDOW

use cbls_core::{monotonic_now, EvaluatorFactory, Incumbent, TerminationReason};
use cbls_parallel::{
    BatchExecution, EventSink, FaultKind, Supervision, WalkBatch, WalkEvent, WalkExecutor,
    WalkFault,
};

use crate::retry::RetryPolicy;

/// The retry history of one faulted walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryOutcome {
    /// The walk that faulted on its original run.
    pub walk_id: usize,
    /// The final attempt index reached (1-based; the original run is 0).
    pub attempts: u32,
    /// Whether the final attempt ran fault-free.
    pub recovered: bool,
}

/// A supervised batch run: the merged execution plus the retry history.
#[derive(Debug, Clone)]
pub struct SupervisedExecution {
    /// The batch's execution with retried walks' final records merged in,
    /// and winner / incumbent / degradation resolved again over them.
    pub execution: BatchExecution,
    /// Per-walk retry history (empty when no walk faulted).
    pub retries: Vec<RetryOutcome>,
}

impl SupervisedExecution {
    /// Whether any walk solved the problem.
    #[must_use]
    pub fn solved(&self) -> bool {
        self.execution.winner.is_some()
    }

    /// The best assignment the run holds, winner or not.
    #[must_use]
    pub fn incumbent(&self) -> Option<&Incumbent> {
        self.execution.incumbent.as_ref()
    }

    /// Whether the run degraded to a partial (anytime) result.
    #[must_use]
    pub fn is_partial(&self) -> bool {
        self.execution.is_partial()
    }
}

/// Fault-isolated supervised execution over a [`WalkExecutor`]; see the
/// module docs.
#[derive(Debug, Clone)]
pub struct Supervisor {
    executor: WalkExecutor,
    policy: RetryPolicy,
}

impl Supervisor {
    /// Supervise `executor` with the default retry policy.
    pub fn new(executor: WalkExecutor) -> Self {
        Self {
            executor,
            policy: RetryPolicy::default(),
        }
    }

    /// Replace the retry policy.
    #[must_use]
    pub fn with_policy(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Run `batch` under supervision without telemetry.
    pub fn run<F>(&self, factory: &F, batch: &WalkBatch) -> SupervisedExecution
    where
        F: EvaluatorFactory,
    {
        self.run_inner(factory, batch, None)
    }

    /// Run `batch` under supervision, emitting walk, fault and retry events
    /// to `sink`.
    pub fn run_with_telemetry<F>(
        &self,
        factory: &F,
        batch: &WalkBatch,
        sink: &dyn EventSink,
    ) -> SupervisedExecution
    where
        F: EvaluatorFactory,
    {
        self.run_inner(factory, batch, Some(sink))
    }

    fn run_inner<F>(
        &self,
        factory: &F,
        batch: &WalkBatch,
        sink: Option<&dyn EventSink>,
    ) -> SupervisedExecution
    where
        F: EvaluatorFactory,
    {
        let started = monotonic_now();
        let deadline = batch.timeout().map(|t| started + t);
        let mut execution = self.guarded_pass(factory, batch, sink);

        let faulted: Vec<usize> = execution
            .records
            .iter()
            .filter(|r| r.fault.is_some())
            .map(|r| r.walk_id)
            .collect();
        let mut retries = Vec::new();
        for walk_id in faulted {
            let outcome = self.retry_walk(factory, batch, walk_id, deadline, sink, &mut execution);
            retries.push(outcome);
        }

        let execution = BatchExecution::from_records(execution.records, started.elapsed());
        SupervisedExecution { execution, retries }
    }

    /// Rerun faulted walk `walk_id` on its rederived retry streams until it
    /// recovers, the policy's attempt bound is hit, or the batch deadline
    /// passes.  The walk's record in `execution` is replaced by the final
    /// attempt's record.
    fn retry_walk<F>(
        &self,
        factory: &F,
        batch: &WalkBatch,
        walk_id: usize,
        deadline: Option<std::time::Instant>,
        sink: Option<&dyn EventSink>,
        execution: &mut BatchExecution,
    ) -> RetryOutcome
    where
        F: EvaluatorFactory,
    {
        let seeds = batch.seeds();
        let mut attempt = execution.records[walk_id].attempt;
        while attempt + 1 < self.policy.max_attempts {
            let left = deadline.map(|d| d.saturating_duration_since(monotonic_now()));
            if left.is_some_and(|left| left.is_zero()) {
                break; // deadline exhausted: give up on this walk
            }
            attempt += 1;
            let seed = seeds.seed_of_attempt(walk_id, attempt);
            if let Some(sink) = sink {
                sink.record(&WalkEvent::Retried {
                    walk_id,
                    attempt,
                    seed,
                });
            }

            let job = batch.jobs()[walk_id].clone().with_stream(walk_id, attempt);
            let mut retry_batch = WalkBatch::new(seeds, vec![job]);
            if let Some(left) = left {
                retry_batch = retry_batch.with_timeout(left);
            }
            // Retry passes run without the outer sink: the walk's lifecycle
            // pair was already recorded, and the supervisor re-emits any
            // fresh fault below under the original walk id.
            let retry = self.guarded_pass(factory, &retry_batch, None);
            let mut record = retry.records.into_iter().next().expect("one-walk batch");
            record.walk_id = walk_id;
            if let (Some(sink), Some(fault)) = (sink, record.fault.as_ref()) {
                sink.record(&WalkEvent::Faulted {
                    walk_id,
                    kind: fault.kind(),
                    attempt,
                });
            }
            let recovered = record.fault.is_none();
            execution.records[walk_id] = record;
            if recovered {
                return RetryOutcome {
                    walk_id,
                    attempts: attempt,
                    recovered: true,
                };
            }
        }
        RetryOutcome {
            walk_id,
            attempts: attempt,
            recovered: execution.records[walk_id].fault.is_none(),
        }
    }

    /// One supervised executor pass, with killed-and-unsolved walks
    /// classified as stalled.
    fn guarded_pass<F>(
        &self,
        factory: &F,
        batch: &WalkBatch,
        sink: Option<&dyn EventSink>,
    ) -> BatchExecution
    where
        F: EvaluatorFactory,
    {
        let supervision = Supervision::new(batch.walks());
        let mut execution = self
            .executor
            .execute_supervised(factory, batch, sink, &supervision);
        classify_stalls(&mut execution, &supervision, sink);
        execution
    }
}

/// Attach [`WalkFault::Stalled`] to every record whose walk the executor
/// killed for a stalled slice and that did not solve anyway, emitting the
/// classification to `sink`.
fn classify_stalls(
    execution: &mut BatchExecution,
    supervision: &Supervision,
    sink: Option<&dyn EventSink>,
) {
    for record in &mut execution.records {
        if supervision.killed(record.walk_id) && record.fault.is_none() && !record.outcome.solved()
        {
            let heartbeats = supervision.heartbeat_of(record.walk_id);
            record.outcome.reason = TerminationReason::Faulted;
            record.fault = Some(WalkFault::Stalled { heartbeats });
            if let Some(sink) = sink {
                sink.record(&WalkEvent::Faulted {
                    walk_id: record.walk_id,
                    kind: FaultKind::Stalled,
                    attempt: record.attempt,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{ChaosFactory, FaultPlan};
    use cbls_core::{Evaluator, SearchConfig};
    use cbls_parallel::{
        DegradationReason, SequentialExecutor, ThreadsExecutor, WalkSeeds, STALL_WINDOW,
    };
    use cbls_problems::NQueens;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::mpsc;
    use std::thread;
    use std::time::Duration;

    #[derive(Clone)]
    struct Sort(usize);
    impl Evaluator for Sort {
        fn size(&self) -> usize {
            self.0
        }
        fn init(&mut self, perm: &[usize]) -> i64 {
            self.cost(perm)
        }
        fn cost(&self, perm: &[usize]) -> i64 {
            perm.iter().enumerate().filter(|&(i, &v)| i != v).count() as i64
        }
        fn cost_on_variable(&self, perm: &[usize], i: usize) -> i64 {
            i64::from(perm[i] != i)
        }
        fn cost_if_swap(&self, perm: &[usize], current_cost: i64, i: usize, j: usize) -> i64 {
            let mut delta = 0;
            delta -= i64::from(perm[i] != i) + i64::from(perm[j] != j);
            delta += i64::from(perm[j] != i) + i64::from(perm[i] != j);
            current_cost + delta
        }
    }

    fn quick_search() -> SearchConfig {
        SearchConfig::builder()
            .max_iterations_per_restart(10_000)
            .max_restarts(3)
            .stop_check_interval(1)
            .build()
    }

    fn batch(walks: usize) -> WalkBatch {
        WalkBatch::uniform(2012, &quick_search(), walks).run_to_completion()
    }

    /// Run `f` on a helper thread and wait at most ten seconds for it to
    /// return or panic, so a supervisor that hangs fails the test instead of
    /// hanging the suite.
    fn within_ten_seconds<T: Send + 'static>(
        f: impl FnOnce() -> T + Send + 'static,
    ) -> thread::Result<T> {
        let (done, outcome) = mpsc::channel();
        let helper = thread::spawn(move || {
            let _ = done.send(catch_unwind(AssertUnwindSafe(f)));
        });
        match outcome.recv_timeout(Duration::from_secs(10)) {
            Ok(result) => {
                assert!(helper.join().is_ok(), "the helper catches the call's panic");
                result
            }
            Err(_) => panic!("no return or panic within 10 s"),
        }
    }

    #[test]
    fn fault_free_batches_run_clean() {
        let supervisor = Supervisor::new(SequentialExecutor);
        let run = supervisor.run(&|| Sort(16), &batch(3));
        assert!(run.solved());
        assert!(!run.is_partial());
        assert!(run.retries.is_empty());
        assert_eq!(run.incumbent().map(|i| i.cost), Some(0));
    }

    #[test]
    fn a_panicking_walk_is_retried_and_recovers() {
        let factory = ChaosFactory::new(|| Sort(16), FaultPlan::new().panic_once(1, 3));
        let supervisor = Supervisor::new(SequentialExecutor).with_policy(RetryPolicy::retries(2));
        let run = supervisor.run(&factory, &batch(3));
        assert!(run.solved());
        assert!(!run.is_partial());
        assert_eq!(run.retries.len(), 1);
        assert_eq!(run.retries[0].walk_id, 1);
        assert_eq!(run.retries[0].attempts, 1);
        assert!(run.retries[0].recovered);
        let record = &run.execution.records[1];
        assert!(record.fault.is_none());
        assert_eq!(record.attempt, 1);
        assert_eq!(record.seed, WalkSeeds::new(2012).seed_of_attempt(1, 1));
    }

    #[test]
    fn retry_exhaustion_leaves_the_fault_in_place() {
        let factory = ChaosFactory::new(|| Sort(16), FaultPlan::new().panic_always(0, 2));
        let supervisor = Supervisor::new(SequentialExecutor).with_policy(RetryPolicy::retries(2));
        let run = supervisor.run(&factory, &batch(2));
        assert_eq!(run.retries.len(), 1);
        assert_eq!(run.retries[0].attempts, 2);
        assert!(!run.retries[0].recovered);
        assert!(run.is_partial());
        assert!(matches!(
            run.execution.records[0].fault,
            Some(WalkFault::Panicked { .. })
        ));
        // the healthy sibling still decides the batch
        assert!(run.solved());
        assert_eq!(run.execution.winner, Some(1));
        assert_eq!(
            run.execution.degradation,
            Some(DegradationReason::WalkFaults)
        );
    }

    #[test]
    fn retries_reproduce_bit_identically_across_backends() {
        let plan = || FaultPlan::new().panic_once(1, 5);
        let policy = RetryPolicy::retries(1);
        let batch = batch(3);
        let seq = Supervisor::new(SequentialExecutor)
            .with_policy(policy)
            .run(&ChaosFactory::new(|| Sort(16), plan()), &batch);
        let thr = Supervisor::new(ThreadsExecutor)
            .with_policy(policy)
            .run(&ChaosFactory::new(|| Sort(16), plan()), &batch);
        for (a, b) in seq
            .execution
            .records
            .iter()
            .zip(thr.execution.records.iter())
        {
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.attempt, b.attempt);
            assert_eq!(a.fault, b.fault);
            assert_eq!(a.outcome.stats.iterations, b.outcome.stats.iterations);
            assert_eq!(a.outcome.solution, b.outcome.solution);
        }
        assert_eq!(seq.execution.winner, thr.execution.winner);
    }

    #[test]
    fn only_holds_past_the_stall_window_are_killed() {
        // (hold, killed): a slice of one iteration takes microseconds
        // besides its hold, so the holds fall on both sides of the window.
        let cases = [
            (Duration::from_millis(400), true),
            (Duration::from_millis(10), false),
        ];
        for (hold, killed) in cases {
            let factory = ChaosFactory::new(|| Sort(16), FaultPlan::new().stall_once(0, 4, hold));
            let supervisor = Supervisor::new(ThreadsExecutor).with_policy(RetryPolicy::retries(1));
            let run = supervisor.run(&factory, &batch(2));
            assert!(run.solved(), "hold {hold:?}");
            assert!(!run.is_partial(), "hold {hold:?}");
            if killed {
                // the stall was caught, the retry ran clean
                assert_eq!(run.retries.len(), 1);
                assert_eq!(run.retries[0].walk_id, 0);
                assert!(run.retries[0].recovered);
            } else {
                assert!(run.retries.is_empty(), "hold {hold:?} was retried");
                assert!(
                    run.execution.records.iter().all(|r| r.fault.is_none()),
                    "hold {hold:?} was classified as a fault"
                );
            }
        }
    }

    #[test]
    fn a_stall_on_one_worker_kills_only_the_walk_that_holds_it() {
        // One worker goes round three first-finisher walks one iteration at
        // a time.  Walk 2 holds its first slice for 400 ms, twice the stall
        // window, while walks 0 and 1 wait for their next slices.
        let factory = ChaosFactory::new(
            || Sort(16),
            FaultPlan::new().stall_once(2, 4, Duration::from_millis(400)),
        );
        let batch = WalkBatch::uniform(2012, &quick_search(), 3);
        let log = cbls_parallel::EventLog::new();
        let run = Supervisor::new(SequentialExecutor)
            .with_policy(RetryPolicy::retries(1))
            .run_with_telemetry(&factory, &batch, &log);
        // Every walk had begun before any ended: the siblings were parked
        // in the middle of their runs while walk 2 stalled.
        let events = log.snapshot();
        let first_finish = events
            .iter()
            .position(|e| matches!(e, WalkEvent::Finished { .. }))
            .expect("walks finish");
        let started = events[..first_finish]
            .iter()
            .filter(|e| matches!(e, WalkEvent::Started { .. }))
            .count();
        assert_eq!(started, 3);
        assert!(run.solved());
        assert_eq!(
            run.retries,
            vec![RetryOutcome {
                walk_id: 2,
                attempts: 1,
                recovered: true
            }]
        );
        assert!(run.execution.records.iter().all(|r| r.fault.is_none()));
    }

    #[test]
    fn a_healthy_walk_alone_on_its_worker_outlives_the_stall_window() {
        // One walk that cannot solve runs until its deadline, two and a half
        // stall windows away, one short slice at a time: only a timer of
        // whole walks, or of a walk left unsliced, would call it stalled.
        let search = SearchConfig::builder()
            .max_iterations_per_restart(u64::MAX / 8)
            .max_restarts(0)
            .target_cost(-1)
            .stop_check_interval(1)
            .build();
        let deadline = STALL_WINDOW * 5 / 2;
        let batch = WalkBatch::uniform(2012, &search, 1).with_timeout(deadline);
        for executor in [SequentialExecutor, ThreadsExecutor] {
            let run = Supervisor::new(executor)
                .with_policy(RetryPolicy::none())
                .run(&|| Sort(16), &batch);
            assert!(run.execution.wall_time >= deadline, "{executor:?}");
            assert!(run.retries.is_empty(), "{executor:?}");
            let record = &run.execution.records[0];
            assert_eq!(record.fault, None, "{executor:?}");
            assert_eq!(
                record.outcome.reason,
                TerminationReason::TimedOut,
                "{executor:?}"
            );
            assert_eq!(
                run.execution.degradation,
                Some(DegradationReason::DeadlineExpired),
                "{executor:?}"
            );
        }
    }

    #[test]
    fn a_panic_escaping_the_pass_propagates_instead_of_hanging() {
        struct PanicsOnFault;
        impl EventSink for PanicsOnFault {
            fn record(&self, event: &WalkEvent) {
                if matches!(event, WalkEvent::Faulted { .. }) {
                    panic!("sink: refusing a fault event");
                }
            }
        }
        let outcome = within_ten_seconds(|| {
            let factory = ChaosFactory::new(|| NQueens::new(16), FaultPlan::new().panic_once(0, 3));
            Supervisor::new(SequentialExecutor).run_with_telemetry(
                &factory,
                &batch(2),
                &PanicsOnFault,
            )
        });
        assert!(outcome.is_err(), "the sink's panic reaches the caller");
    }
}
