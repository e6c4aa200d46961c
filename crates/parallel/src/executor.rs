//! The walk-execution layer: one place that knows how to run a batch of
//! independent walks.
//!
//! The paper's parallel scheme is a single mechanism — `p` seeded walks
//! sharing nothing but a termination signal — and this module is its single
//! implementation.  A [`WalkJob`] describes one walk (engine configuration,
//! optional restart-budget schedule, label); a [`WalkBatch`] bundles the jobs
//! with their [`WalkSeeds`] family, an optional wall-clock timeout and the
//! stop semantics; a [`WalkExecutor`] back-end decides how many workers run
//! the walks.  One worker loop runs every batch: the calling thread plus
//! `workers − 1` scoped threads, each taking the next walk from a shared
//! counter.  A worker that holds several walks of a first-finisher batch
//! goes round them, one `stop_check_interval` of iterations per walk and
//! turn, so they reach the winner's count together; a run-to-completion
//! batch runs walk after walk.
//!
//! * [`ThreadsExecutor`] — one worker per walk (the paper's
//!   one-engine-per-core deployment);
//! * [`SequentialExecutor`] — one worker, the calling thread: round-robin
//!   over a first-finisher batch's walks, so a `p`-walk batch costs about
//!   `p · E[min of p]` iterations, and walk after walk over a replay (the
//!   deterministic replay behind the `speedup` binary's tables).
//!
//! Whatever the back-end, the semantics are identical: every walk draws the
//! stream `WalkSeeds::rng_of(walk_id)`; a walk that reaches its target cost
//! at iteration `t` lowers the shared [`StopControl`] bound to `t` (unless
//! the batch [runs to completion](WalkBatch::run_to_completion)), and every
//! other walk stops once it has done `t` iterations; a timeout becomes a
//! *monotonic deadline* computed once per batch so every walk self-cancels at
//! the same instant; and [`select_winner`] picks the solved walk with the
//! fewest iterations, ties broken by walk id.  No walk stops before the
//! fewest-iteration solve, and a walk checks for a solution before it checks
//! the bound, so the winner and its record are a function of the seeds on
//! every back-end.  Which losing walks solved, and where they stopped, still
//! depend on the scheduler.  Flat multi-walk runs, heterogeneous batches
//! ([`WalkJob`]s with per-walk configurations, budgets and labels) and
//! replays ([`SimulatedMultiWalk`](crate::SimulatedMultiWalk)) are all
//! batches executed here.

use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use as_rng::DefaultRng;
use cbls_core::{
    monotonic_now, AdaptiveSearch, Evaluator, EvaluatorFactory, Incumbent, SearchConfig,
    SearchOutcome, SearchStats, StopControl, TerminationReason, Walk,
};
use serde::{Deserialize, Serialize};

use crate::seeds::WalkSeeds;
use crate::supervision::{DegradationReason, FaultKind, Supervision, WalkFault};
use crate::telemetry::{EventSink, WalkEvent, WalkObserver};

/// A restart-budget schedule shared across threads: maps the 0-based restart
/// index to that restart's iteration budget, `None` to end the walk.
pub type WalkBudget = Arc<dyn Fn(u64) -> Option<u64> + Send + Sync>;

/// The description of one walk of a batch: engine configuration, an optional
/// external restart schedule, and a label carried into reports and events.
///
/// The walk's random stream is *not* part of the job — streams are derived
/// from the batch's [`WalkSeeds`] and the job's position, so walk `i` of any
/// batch with master seed `s` draws exactly the stream walk `i` of every
/// other entry point with master seed `s` draws.
#[derive(Clone)]
pub struct WalkJob {
    /// Label carried into [`WalkRecord`]s (a heterogeneous batch names each
    /// walk's strategy here; flat multi-walk runs leave it empty).
    pub label: String,
    /// Engine parameters of the walk.
    pub search: SearchConfig,
    /// External restart schedule; `None` runs the configuration's own fixed
    /// `max_iterations_per_restart` / `max_restarts` schedule.
    pub budget: Option<WalkBudget>,
    /// Seed-stream override; `None` draws the stream of the job's position
    /// in the batch (attempt 0).  A supervisor retrying walk `w` as a fresh
    /// batch sets this to keep the retry on walk `w`'s deterministically
    /// rederived attempt stream.
    pub stream: Option<WalkStream>,
}

/// The seed-stream identity of one walk attempt: which original walk the job
/// replays, and which retry attempt it is (0 = the original run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WalkStream {
    /// The original walk id whose seed family the job draws from.
    pub walk: usize,
    /// Retry attempt (0 reproduces the original stream exactly).
    pub attempt: u32,
}

impl WalkJob {
    /// A job running `search` under its own restart policy, with no label.
    #[must_use]
    pub fn new(search: SearchConfig) -> Self {
        Self {
            label: String::new(),
            search,
            budget: None,
            stream: None,
        }
    }

    /// Attach a label (reported back in [`WalkRecord::label`]).
    #[must_use]
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Drive the restart loop with an external budget schedule instead of
    /// the configuration's fixed one (see [`Run::budget`](cbls_core::Run::budget)).
    #[must_use]
    pub fn with_budget(
        mut self,
        budget: impl Fn(u64) -> Option<u64> + Send + Sync + 'static,
    ) -> Self {
        self.budget = Some(Arc::new(budget));
        self
    }

    /// Pin the job to the seed stream of retry `attempt` of original walk
    /// `walk`, regardless of the job's position in its batch.
    #[must_use]
    pub fn with_stream(mut self, walk: usize, attempt: u32) -> Self {
        self.stream = Some(WalkStream { walk, attempt });
        self
    }

    /// The stream this job draws when placed at position `walk_id` of a
    /// batch: the override if one is pinned, otherwise `(walk_id, 0)`.
    #[must_use]
    pub fn stream_at(&self, walk_id: usize) -> WalkStream {
        self.stream.unwrap_or(WalkStream {
            walk: walk_id,
            attempt: 0,
        })
    }
}

impl fmt::Debug for WalkJob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WalkJob")
            .field("label", &self.label)
            .field("search", &self.search)
            .field("budget", &self.budget.as_ref().map(|_| "<schedule>"))
            .field("stream", &self.stream)
            .finish()
    }
}

/// A batch of walks plus everything shared between them: the seed family,
/// the optional wall-clock timeout and the stop semantics.
#[derive(Debug, Clone)]
pub struct WalkBatch {
    seeds: WalkSeeds,
    jobs: Vec<WalkJob>,
    timeout: Option<Duration>,
    stop_on_first_success: bool,
}

impl WalkBatch {
    /// A batch running `jobs[i]` as walk `i`, with first-finisher stop
    /// semantics and no timeout.
    ///
    /// An *empty* batch is legal: executing it returns a well-formed
    /// [`BatchExecution`] with no records, no winner and no incumbent.  The
    /// service layer builds batches straight from client requests, so the
    /// degenerate shapes a hostile request can describe (zero walks, a zero
    /// iteration budget, an already-expired deadline) must all execute
    /// cleanly instead of panicking a worker.
    #[must_use]
    pub fn new(seeds: WalkSeeds, jobs: Vec<WalkJob>) -> Self {
        Self {
            seeds,
            jobs,
            timeout: None,
            stop_on_first_success: true,
        }
    }

    /// A batch of `walks` identical jobs (the paper's homogeneous scheme).
    /// Like [`new`](Self::new), `walks == 0` yields a legal empty batch.
    #[must_use]
    pub fn uniform(master_seed: u64, search: &SearchConfig, walks: usize) -> Self {
        let jobs = (0..walks).map(|_| WalkJob::new(search.clone())).collect();
        Self::new(WalkSeeds::new(master_seed), jobs)
    }

    /// This batch's jobs, timeout and stop semantics under a fresh seed
    /// family: one batch shape run under many master seeds.  Two batches
    /// reseeded from the same one share nothing mutable.
    #[must_use]
    pub fn reseeded(&self, master_seed: u64) -> Self {
        Self {
            seeds: WalkSeeds::new(master_seed),
            ..self.clone()
        }
    }

    /// Attach a wall-clock timeout.  The executor converts it into a single
    /// monotonic deadline on [`StopControl`] when the batch starts, so every
    /// walk — on every back-end — self-cancels at the same instant.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Let every walk run to completion instead of stopping a walk once a
    /// sibling has solved in no more iterations than it has done (the replay
    /// semantics: every walk's full run length is a sample).
    #[must_use]
    pub fn run_to_completion(mut self) -> Self {
        self.stop_on_first_success = false;
        self
    }

    /// Remove any wall-clock timeout (replays drop the timeout so that a
    /// walk's recorded cost never depends on when the replay started).
    #[must_use]
    pub fn without_timeout(mut self) -> Self {
        self.timeout = None;
        self
    }

    /// The batch's seed family.
    #[must_use]
    pub fn seeds(&self) -> WalkSeeds {
        self.seeds
    }

    /// The jobs, ordered by walk index.
    #[must_use]
    pub fn jobs(&self) -> &[WalkJob] {
        &self.jobs
    }

    /// Number of walks in the batch.
    #[must_use]
    pub fn walks(&self) -> usize {
        self.jobs.len()
    }

    /// The optional wall-clock timeout.
    #[must_use]
    pub fn timeout(&self) -> Option<Duration> {
        self.timeout
    }
}

/// The outcome of one walk of an executed batch.
#[derive(Debug, Clone)]
pub struct WalkRecord {
    /// Walk index within the batch.
    pub walk_id: usize,
    /// The job's label.
    pub label: String,
    /// The walk's derived 64-bit seed.
    pub seed: u64,
    /// The walk's search outcome (synthesized from the walk's published
    /// best-so-far when [`fault`](Self::fault) is set).
    pub outcome: SearchOutcome,
    /// The structured fault that ended the walk, if it did not finish
    /// normally.
    pub fault: Option<WalkFault>,
    /// Which seed-stream attempt produced this record (0 = the original
    /// run; a supervised retry reports its attempt index).
    pub attempt: u32,
}

/// The aggregate result of executing a [`WalkBatch`].
#[derive(Debug, Clone)]
pub struct BatchExecution {
    /// The winning walk per [`select_winner`], if any walk solved.
    pub winner: Option<usize>,
    /// Per-walk records, ordered by walk index.
    pub records: Vec<WalkRecord>,
    /// The best assignment the batch holds — the anytime result that
    /// survives deadlines and faults: the winning record's when a walk
    /// solved, else the best any record holds.  `None` only when no walk got
    /// far enough to hold a configuration (degenerate batches).
    pub incumbent: Option<Incumbent>,
    /// Why the batch degraded to a partial result, if it did.
    pub degradation: Option<DegradationReason>,
    /// Wall-clock time of the whole batch.
    pub wall_time: Duration,
}

impl BatchExecution {
    /// Resolve a batch from its per-walk records, ordered by walk index:
    ///
    /// * the winner, per [`select_winner`];
    /// * the incumbent: the winning record when a walk solved, otherwise
    ///   the lowest `(best cost, walk id)` record that holds a
    ///   configuration (a panicked walk's record holds what it published);
    /// * the degradation: faults always degrade, and a blown deadline
    ///   degrades only when it cost the batch its winner.
    ///
    /// The executor resolves every batch here, and the supervisor resolves
    /// again after merging its retries.
    #[must_use]
    pub fn from_records(records: Vec<WalkRecord>, wall_time: Duration) -> Self {
        let winner = select_winner(&records);
        let incumbent = match winner {
            Some(w) => Some(&records[w]),
            None => records
                .iter()
                .filter(|r| !r.outcome.solution.is_empty())
                .min_by_key(|r| (r.outcome.best_cost, r.walk_id)),
        }
        .map(|r| Incumbent {
            walk_id: r.walk_id,
            cost: r.outcome.best_cost,
            assignment: r.outcome.solution.clone(),
        });
        let degradation = degradation_of(winner, &records);
        Self {
            winner,
            records,
            incumbent,
            degradation,
            wall_time,
        }
    }

    /// The winning walk's record, if any walk solved.
    #[must_use]
    pub fn winning_record(&self) -> Option<&WalkRecord> {
        self.winner.map(|w| &self.records[w])
    }

    /// Iterations performed by the winning walk (the parallel scheme's
    /// machine-independent cost), if any walk solved.
    #[must_use]
    pub fn winning_iterations(&self) -> Option<u64> {
        self.winning_record().map(|r| r.outcome.stats.iterations)
    }

    /// Total iterations across all walks (the batch's total work).
    #[must_use]
    pub fn total_iterations(&self) -> u64 {
        self.records
            .iter()
            .map(|r| r.outcome.stats.iterations)
            .sum()
    }

    /// Whether this is a partial (anytime) result: the batch degraded
    /// because its deadline expired without a winner and/or walks faulted.
    /// The best incumbent is still available in
    /// [`incumbent`](Self::incumbent).
    #[must_use]
    pub fn is_partial(&self) -> bool {
        self.degradation.is_some()
    }
}

/// Resolve the winner of a batch: the solved walk with the fewest
/// iterations, ties broken towards the lower walk id; `None` when no walk
/// solved.
///
/// Iteration counts are a function of each walk's seed and configuration,
/// so the choice is the same on every back-end.  Under first-finisher
/// semantics no walk is stopped before it has done the winner's count, so
/// the winner is the one a run to completion picks.
pub fn select_winner(records: &[WalkRecord]) -> Option<usize> {
    records
        .iter()
        .filter(|r| r.outcome.solved())
        .min_by_key(|r| (r.outcome.stats.iterations, r.walk_id))
        .map(|r| r.walk_id)
}

/// An execution back-end for walk batches: how many workers run a batch.
///
/// Every back-end runs the same worker loop: the calling thread plus
/// `workers − 1` scoped threads, each taking the next walk index from one
/// shared counter, and going round the walks it holds when it holds several
/// walks of a first-finisher batch.  [`execute`](WalkExecutor::execute) /
/// [`execute_with_telemetry`](WalkExecutor::execute_with_telemetry) layer
/// the multi-walk semantics (seed derivation, shared stop bound, deadline,
/// events, winner selection) on top, so every back-end produces
/// bit-identical per-walk trajectories; only scheduling differs.
///
/// ```
/// use cbls_core::{Evaluator, SearchConfig};
/// use cbls_parallel::{SequentialExecutor, ThreadsExecutor, WalkBatch, WalkExecutor};
///
/// // Cost = number of misplaced values; solved when sorted.
/// #[derive(Clone)]
/// struct Sort(usize);
/// impl Evaluator for Sort {
///     fn size(&self) -> usize { self.0 }
///     fn init(&mut self, perm: &[usize]) -> i64 { self.cost(perm) }
///     fn cost(&self, perm: &[usize]) -> i64 {
///         perm.iter().enumerate().filter(|&(i, &v)| i != v).count() as i64
///     }
///     fn cost_on_variable(&self, perm: &[usize], i: usize) -> i64 {
///         i64::from(perm[i] != i)
///     }
/// }
///
/// let batch = WalkBatch::uniform(42, &SearchConfig::default(), 4).run_to_completion();
/// let sequential = SequentialExecutor.execute(&|| Sort(16), &batch);
/// let threaded = ThreadsExecutor.execute(&|| Sort(16), &batch);
///
/// // back-ends agree walk for walk, bit for bit
/// for (s, t) in sequential.records.iter().zip(threaded.records.iter()) {
///     assert_eq!(s.seed, t.seed);
///     assert_eq!(s.outcome.stats.iterations, t.outcome.stats.iterations);
///     assert!(s.outcome.solved() && t.outcome.solved());
/// }
/// ```
pub trait WalkExecutor: Sync {
    /// How many workers run a batch of `walks` walks.  The calling thread
    /// is always one of them, so a value below 1 counts as 1.
    fn workers(&self, walks: usize) -> usize;

    /// Execute a batch without telemetry.
    fn execute<F>(&self, factory: &F, batch: &WalkBatch) -> BatchExecution
    where
        F: EvaluatorFactory,
        Self: Sized,
    {
        execute_inner(self.workers(batch.walks()), factory, batch, None, None)
    }

    /// Execute a batch, emitting [`WalkEvent`]s to `sink` as walks start,
    /// restart, improve and finish.  Telemetry is passive: the records are
    /// bit-identical to [`execute`](WalkExecutor::execute).
    fn execute_with_telemetry<F>(
        &self,
        factory: &F,
        batch: &WalkBatch,
        sink: &dyn EventSink,
    ) -> BatchExecution
    where
        F: EvaluatorFactory,
        Self: Sized,
    {
        let workers = self.workers(batch.walks());
        execute_inner(workers, factory, batch, Some(sink), None)
    }

    /// Execute a batch under a [`Supervision`] table: engines publish
    /// anytime incumbents and liveness heartbeats into it, each walk's
    /// [`StopControl`] carries the table's per-walk kill flag, and a
    /// panicking walk recovers its published best into a
    /// [`WalkFault::Panicked`] record instead of aborting the batch.
    /// Supervision is passive on the fault-free path: records are
    /// bit-identical to [`execute`](WalkExecutor::execute).
    ///
    /// # Panics
    ///
    /// Panics if `supervision` is not sized for the batch's walk count.
    fn execute_supervised<F>(
        &self,
        factory: &F,
        batch: &WalkBatch,
        sink: Option<&dyn EventSink>,
        supervision: &Supervision,
    ) -> BatchExecution
    where
        F: EvaluatorFactory,
        Self: Sized,
    {
        assert_eq!(
            supervision.walks(),
            batch.walks(),
            "supervision table does not match the batch"
        );
        let workers = self.workers(batch.walks());
        execute_inner(workers, factory, batch, sink, Some(supervision))
    }
}

/// One worker per walk — the closest analogue of the paper's
/// one-MPI-process-per-core deployment.  A `p`-walk batch starts `p − 1`
/// scoped threads beside the calling thread; a 1-walk batch starts none.
/// Each walk runs to its end in one slice.
///
/// The worker count is not capped at the machine's cores: bounding what a
/// request may start is left to admission limits.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadsExecutor;

impl WalkExecutor for ThreadsExecutor {
    fn workers(&self, walks: usize) -> usize {
        walks
    }
}

/// One worker: the calling thread runs every walk — the deterministic
/// replay.
///
/// With [`WalkBatch::run_to_completion`] it runs the walks one after
/// another, with one evaluator alive at a time: the replay back-end of the
/// `speedup` binary's tables.  With first-finisher semantics it goes round
/// the walks, advancing each by its `stop_check_interval` of iterations per
/// turn, so every losing walk stops within one such slice of the winner's
/// count: a `p`-walk batch returns the exact minimum `min` of the `p` walks'
/// run lengths for at most `p · (min + slice)` iterations in all.
#[derive(Debug, Clone, Copy, Default)]
pub struct SequentialExecutor;

impl WalkExecutor for SequentialExecutor {
    fn workers(&self, _walks: usize) -> usize {
        1
    }
}

/// Run every walk index `i < walks` on `workers` workers — the calling
/// thread plus `workers − 1` scoped threads, never more than one per walk —
/// and return the results in walk order.
///
/// `start(i)` begins walk `i` on the worker that takes it and returns its
/// stepper: each call runs one slice of the walk, and returns the walk's
/// result once it has ended.  A worker holds at most `hold` walks at once:
/// it takes the next index from one shared counter whenever it holds fewer,
/// then steps every walk it holds once, in walk order, and lets go of those
/// that ended.
///
/// A helper thread the OS refuses to start takes no walk: its share goes to
/// the workers that did start, and no further helper is asked for.  A panic
/// that escapes a stepper on a helper is re-raised on the calling thread.
fn run_walks<B, S, T>(walks: usize, workers: usize, hold: usize, start: &B) -> Vec<T>
where
    B: Fn(usize) -> S + Sync,
    S: FnMut() -> Option<T>,
    T: Send,
{
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut done = Vec::new();
        let mut held: Vec<(usize, S)> = Vec::new();
        loop {
            while held.len() < hold {
                // Relaxed: the counter only hands out distinct indices; the
                // results reach the caller through the scope's joins.
                let walk = next.fetch_add(1, Ordering::Relaxed);
                if walk >= walks {
                    break;
                }
                held.push((walk, start(walk)));
            }
            if held.is_empty() {
                return done;
            }
            held.retain_mut(|(walk, step)| match step() {
                Some(result) => {
                    done.push((*walk, result));
                    false
                }
                None => true,
            });
        }
    };
    let mut results = thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers.min(walks))
            .map_while(|_| thread::Builder::new().spawn_scoped(scope, worker).ok())
            .collect();
        let mut results = worker();
        for helper in helpers {
            match helper.join() {
                Ok(done) => results.extend(done),
                // Walk-level `catch_unwind` isolation means a panic can only
                // reach this join if it escaped the isolation wrapper (a panic
                // from a sink, say); re-raise it on the caller thread instead
                // of discarding the payload.
                Err(payload) => resume_unwind(payload),
            }
        }
        results
    });
    results.sort_unstable_by_key(|&(walk, _)| walk);
    results.into_iter().map(|(_, result)| result).collect()
}

/// The shared execution path behind every back-end's `execute*` methods.
fn execute_inner<F>(
    workers: usize,
    factory: &F,
    batch: &WalkBatch,
    sink: Option<&dyn EventSink>,
    supervision: Option<&Supervision>,
) -> BatchExecution
where
    F: EvaluatorFactory,
{
    let started = monotonic_now();
    // One deadline for the whole batch, computed once: every walk self-cancels
    // at the same monotonic instant, whatever thread it runs on and however
    // late the scheduler launches it.
    let stop = match batch.timeout {
        Some(t) => StopControl::with_deadline(started + t),
        None => StopControl::new(),
    };
    // Engines are built (and their configurations validated) on the calling
    // thread, so an invalid configuration panics before any thread starts.
    let engines: Vec<AdaptiveSearch> = batch
        .jobs
        .iter()
        .map(|job| AdaptiveSearch::new(job.search.clone()))
        .collect();
    // A supervised walk's stop control additionally carries its personal
    // kill flag, so the watchdog can cancel it without touching siblings.
    let stops: Vec<StopControl> = (0..batch.walks())
        .map(|walk_id| match supervision {
            Some(supervision) => stop
                .clone()
                .and_local_flag(supervision.kill_flag_of(walk_id)),
            None => stop.clone(),
        })
        .collect();
    // A worker that holds several walks of a first-finisher batch advances
    // them in turn, one heartbeat interval of iterations each, so that they
    // reach the winner's count together.  A replay runs each walk to its end
    // before the next, with one evaluator alive at a time.
    let workers = workers.max(1);
    let hold = if batch.stop_on_first_success {
        batch.walks().div_ceil(workers).max(1)
    } else {
        1
    };

    let (stop, engines, stops) = (&stop, &engines, &stops);
    let records = run_walks(batch.walks(), workers, hold, &|walk_id| {
        let mut slot = None;
        move || {
            // A panic that escapes the isolation below (one from a sink)
            // drops the batch's bound to 0 on its way out: the sibling walks
            // stop at their next iteration, and the worker loop hands the
            // panic to the caller instead of waiting out their budgets.
            let _stop_siblings = StopOnUnwind(stop);
            if let Some(supervision) = supervision {
                supervision.mark_running(walk_id);
            }
            // Walk-level fault isolation: a panicking evaluator (or engine)
            // becomes a structured `WalkFault::Panicked` record instead of
            // unwinding through the worker loop and killing the whole batch.
            // `AssertUnwindSafe` is sound here: the closure's captures are
            // only shared state designed for concurrent access (the stop
            // bound, sinks, supervision atomics), the batch and engines it
            // only reads, and the walk's own slot, which is discarded on the
            // panic path.
            let record = catch_unwind(AssertUnwindSafe(|| {
                let running = slot.get_or_insert_with(|| {
                    let observer = WalkObserver {
                        walk_id,
                        sink,
                        supervision,
                    };
                    let (engine, stop) = (&engines[walk_id], &stops[walk_id]);
                    WalkSlot::start(factory, batch, engine, stop, observer, hold)
                });
                if !running.advance() {
                    return None;
                }
                slot.take().map(|ended| ended.finish(batch))
            }))
            .unwrap_or_else(|payload| {
                Some(panicked_record(batch, walk_id, &payload, sink, supervision))
            });
            if let Some(supervision) = supervision {
                supervision.mark_parked(walk_id);
            }
            record
        }
    });
    BatchExecution::from_records(records, started.elapsed())
}

/// Stops every walk of a batch when dropped by an unwinding panic.
struct StopOnUnwind<'a>(&'a StopControl);

impl Drop for StopOnUnwind<'_> {
    fn drop(&mut self) {
        if thread::panicking() {
            self.0.stop_at(0);
        }
    }
}

/// Classify why a batch degraded, if it did: faults always degrade; a blown
/// deadline degrades only when it cost the batch its winner.
fn degradation_of(winner: Option<usize>, records: &[WalkRecord]) -> Option<DegradationReason> {
    let faulted = records.iter().any(|r| r.fault.is_some());
    let deadline_expired = winner.is_none()
        && records
            .iter()
            .any(|r| r.outcome.reason == TerminationReason::TimedOut);
    match (deadline_expired, faulted) {
        (true, true) => Some(DegradationReason::DeadlineExpiredWithFaults),
        (true, false) => Some(DegradationReason::DeadlineExpired),
        (false, true) => Some(DegradationReason::WalkFaults),
        (false, false) => None,
    }
}

/// Render a panic payload as text for a [`WalkFault::Panicked`] record.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic>".to_string()
    }
}

/// Synthesize the record of a panicked walk: the structured fault plus an
/// outcome recovered from whatever the walk published into its best-so-far
/// slot before dying.
fn panicked_record(
    batch: &WalkBatch,
    walk_id: usize,
    payload: &(dyn std::any::Any + Send),
    sink: Option<&dyn EventSink>,
    supervision: Option<&Supervision>,
) -> WalkRecord {
    let job = &batch.jobs[walk_id];
    let stream = job.stream_at(walk_id);
    let seed = batch.seeds.seed_of_attempt(stream.walk, stream.attempt);
    let (best_cost, solution) = supervision
        .and_then(|s| s.best().best_of(walk_id))
        .unwrap_or((i64::MAX, Vec::new()));
    if let Some(sink) = sink {
        sink.record(&WalkEvent::Faulted {
            walk_id,
            kind: FaultKind::Panicked,
            attempt: stream.attempt,
        });
        // Close the walk's lifecycle (its `Started` was emitted before the
        // panic): recordings of faulted batches still validate.
        sink.record(&WalkEvent::Finished {
            walk_id,
            solved: false,
            iterations: 0,
            cost: best_cost,
        });
    }
    WalkRecord {
        walk_id,
        label: job.label.clone(),
        seed,
        outcome: SearchOutcome {
            reason: TerminationReason::Faulted,
            best_cost,
            solution,
            stats: SearchStats::default(),
            elapsed: Duration::ZERO,
        },
        fault: Some(WalkFault::Panicked {
            message: panic_message(payload),
        }),
        attempt: stream.attempt,
    }
}

/// One walk of a batch between its slices, on the worker that holds it:
/// its evaluator, random stream, observer and engine state.
struct WalkSlot<'a, E> {
    seed: u64,
    attempt: u32,
    /// Iterations per slice: the walk's heartbeat interval when its worker
    /// holds other walks, all of them otherwise.
    slice: u64,
    stop: &'a StopControl,
    evaluator: E,
    rng: DefaultRng,
    observer: WalkObserver<'a>,
    walk: Walk<'a>,
}

impl<'a, E: Evaluator> WalkSlot<'a, E> {
    /// Begin the walk `observer` reports for: derive its stream, emit its
    /// `Started` event, build its evaluator and start its engine.  `hold` is
    /// how many walks its worker holds at once.
    fn start<F: EvaluatorFactory<Output = E>>(
        factory: &F,
        batch: &'a WalkBatch,
        engine: &'a AdaptiveSearch,
        stop: &'a StopControl,
        mut observer: WalkObserver<'a>,
        hold: usize,
    ) -> Self {
        let walk_id = observer.walk_id;
        let (job, seeds) = (&batch.jobs[walk_id], batch.seeds);
        let stream = job.stream_at(walk_id);
        let seed = seeds.seed_of_attempt(stream.walk, stream.attempt);
        if let Some(sink) = observer.sink {
            sink.record(&WalkEvent::Started { walk_id, seed });
        }
        let mut evaluator = factory.build_walk(stream.walk, stream.attempt);
        let budget = job.budget.as_deref().map(|budget| budget as _);
        let walk = engine.start(&mut evaluator, &mut observer, Some(stop), budget);
        Self {
            seed,
            attempt: stream.attempt,
            slice: if hold > 1 {
                job.search.stop_check_interval
            } else {
                u64::MAX
            },
            stop,
            evaluator,
            rng: seeds.rng_of_attempt(stream.walk, stream.attempt),
            observer,
            walk,
        }
    }

    /// Run one slice; whether the walk has ended.
    fn advance(&mut self) -> bool {
        let until = self.walk.iterations().saturating_add(self.slice);
        self.walk.advance(
            &mut self.evaluator,
            &mut self.rng,
            &mut self.observer,
            until,
        )
    }

    /// The record of the ended walk: lower the shared bound to its count on
    /// success (under first-finisher semantics) and emit its `Finished`
    /// event.
    fn finish(mut self, batch: &WalkBatch) -> WalkRecord {
        let walk_id = self.observer.walk_id;
        let outcome = self.walk.finish(&mut self.evaluator);
        if batch.stop_on_first_success && outcome.solved() {
            // Completion is the only message the walks ever exchange: no sibling
            // can beat this walk once it has done as many iterations.
            self.stop.stop_at(outcome.stats.iterations);
        }
        if let Some(sink) = self.observer.sink {
            sink.record(&WalkEvent::Finished {
                walk_id,
                solved: outcome.solved(),
                iterations: outcome.stats.iterations,
                cost: outcome.best_cost,
            });
        }
        WalkRecord {
            walk_id,
            label: batch.jobs[walk_id].label.clone(),
            seed: self.seed,
            outcome,
            fault: None,
            attempt: self.attempt,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::EventLog;
    use cbls_core::{Evaluator, TerminationReason};
    use std::collections::HashSet;
    use std::sync::mpsc;
    use std::thread::{self, ThreadId};

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
    }

    #[derive(Clone)]
    struct Hopeless(usize);
    impl Evaluator for Hopeless {
        fn size(&self) -> usize {
            self.0
        }
        fn init(&mut self, _perm: &[usize]) -> i64 {
            1
        }
        fn cost(&self, _perm: &[usize]) -> i64 {
            1
        }
        fn cost_on_variable(&self, _perm: &[usize], _i: usize) -> i64 {
            1
        }
    }

    /// Solves after exactly `.0` iterations: the cost starts there and every
    /// probe offers one less.
    #[derive(Clone)]
    struct Countdown(i64);
    impl Evaluator for Countdown {
        fn size(&self) -> usize {
            4
        }
        fn init(&mut self, _perm: &[usize]) -> i64 {
            self.0
        }
        fn cost(&self, _perm: &[usize]) -> i64 {
            self.0
        }
        fn cost_on_variable(&self, _perm: &[usize], _i: usize) -> i64 {
            1
        }
        fn cost_if_swap(&self, _perm: &[usize], cost: i64, _i: usize, _j: usize) -> i64 {
            cost - 1
        }
    }

    /// Builds walk `w` a [`Countdown`] of `self.0[w]` iterations.
    struct Countdowns(Vec<i64>);
    impl EvaluatorFactory for Countdowns {
        type Output = Countdown;
        fn build(&self) -> Countdown {
            Countdown(self.0[0])
        }
        fn build_walk(&self, walk_id: usize, _attempt: u32) -> Countdown {
            Countdown(self.0[walk_id])
        }
    }

    fn quick_search() -> SearchConfig {
        SearchConfig::builder()
            .max_iterations_per_restart(10_000)
            .max_restarts(3)
            .stop_check_interval(4)
            .build()
    }

    fn outcome_with(walk_id: usize, solved: bool, iterations: u64) -> WalkRecord {
        WalkRecord {
            walk_id,
            label: String::new(),
            seed: walk_id as u64,
            outcome: SearchOutcome {
                reason: if solved {
                    TerminationReason::Solved
                } else {
                    TerminationReason::IterationBudgetExhausted
                },
                best_cost: i64::from(!solved),
                solution: Vec::new(),
                stats: SearchStats {
                    iterations,
                    ..SearchStats::default()
                },
                // The reverse of the iteration order: elapsed time is ignored.
                elapsed: Duration::from_millis(1_000 - iterations),
            },
            fault: None,
            attempt: 0,
        }
    }

    #[test]
    fn select_winner_prefers_fewest_iterations() {
        let reports = vec![
            outcome_with(0, true, 30),
            outcome_with(1, true, 10),
            outcome_with(2, false, 1),
        ];
        assert_eq!(select_winner(&reports), Some(1));
    }

    #[test]
    fn select_winner_breaks_ties_by_walk_id() {
        // identical iteration counts: the smaller walk id wins, whatever the
        // report order
        let reports = vec![
            outcome_with(2, true, 10),
            outcome_with(0, false, 10),
            outcome_with(1, true, 10),
            outcome_with(3, true, 10),
        ];
        assert_eq!(select_winner(&reports), Some(1));
    }

    #[test]
    fn select_winner_of_no_solved_walk_is_none() {
        let reports = vec![outcome_with(0, false, 5), outcome_with(1, false, 6)];
        assert_eq!(select_winner(&reports), None);
        assert_eq!(select_winner(&[]), None);
    }

    /// Run `walks` walks of `slices` slices each on `workers` workers that
    /// hold `hold` walks each.  Every slice bumps a gauge of slices in
    /// flight, a second gauge counts walks begun and not yet ended, and each
    /// walk reports its index and the threads its slices ran on.  Returns
    /// the results and both gauges' peaks.
    fn gauged(
        walks: usize,
        workers: usize,
        hold: usize,
        slices: usize,
    ) -> (Vec<(usize, HashSet<ThreadId>)>, usize, usize) {
        let (in_flight, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let (held, held_peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let results = run_walks(walks, workers, hold, &|walk| {
            // Relaxed (all four gauges): every update is a read-modify-write
            // of one counter, whose modification order keeps each worker's
            // +1 and −1 in program order, and the peaks are statistics read
            // after the joins.
            let now = held.fetch_add(1, Ordering::Relaxed) + 1;
            // Relaxed: see the gauges above.
            held_peak.fetch_max(now, Ordering::Relaxed);
            let (mut done, mut threads) = (0, HashSet::new());
            let (in_flight, peak, held) = (&in_flight, &peak, &held);
            move || {
                // Relaxed: see the gauges above.
                let now = in_flight.fetch_add(1, Ordering::Relaxed) + 1;
                // Relaxed: see the gauges above.
                peak.fetch_max(now, Ordering::Relaxed);
                threads.insert(thread::current().id());
                thread::yield_now();
                // Relaxed: see the gauges above.
                in_flight.fetch_sub(1, Ordering::Relaxed);
                done += 1;
                if done < slices {
                    return None;
                }
                // Relaxed: see the gauges above.
                held.fetch_sub(1, Ordering::Relaxed);
                Some((walk, std::mem::take(&mut threads)))
            }
        });
        // Relaxed (both peaks): read after the scope joined every worker.
        let peak = peak.load(Ordering::Relaxed);
        // Relaxed: see above.
        let held_peak = held_peak.load(Ordering::Relaxed);
        (results, peak, held_peak)
    }

    #[test]
    fn the_worker_loop_runs_each_walk_once_in_walk_order_on_at_most_its_workers() {
        let caller = thread::current().id();
        for workers in [1, 2, 3, 8] {
            for walks in [0_usize, 1, 7, 37] {
                for hold in [1, walks.div_ceil(workers).max(1)] {
                    let case = format!("{walks} walks on {workers} workers holding {hold}");
                    let (results, peak, held) = gauged(walks, workers, hold, 3);
                    let order: Vec<usize> = results.iter().map(|(walk, _)| *walk).collect();
                    assert_eq!(order, (0..walks).collect::<Vec<_>>(), "{case}");
                    // A walk stays on the worker that began it.
                    assert!(results.iter().all(|(_, ids)| ids.len() == 1), "{case}");
                    let threads: HashSet<ThreadId> = results
                        .iter()
                        .flat_map(|(_, ids)| ids.iter().copied())
                        .collect();
                    assert!(threads.len() <= workers.min(walks), "{case}");
                    assert!(peak <= workers, "{case}: {peak} slices in flight");
                    assert!(held <= workers * hold, "{case}: {held} walks held");
                    if workers == 1 || walks == 1 {
                        // One worker, or one walk: no thread starts.
                        assert!(threads.iter().all(|&id| id == caller), "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn ten_thousand_walks_on_two_workers_never_run_more_than_two_at_once() {
        let (results, peak, held) = gauged(10_000, 2, 1, 1);
        assert_eq!(results.len(), 10_000);
        assert!(peak <= 2, "{peak} walks in flight");
        assert!(held <= 2, "{held} walks held");
    }

    #[test]
    fn a_worker_steps_the_walks_it_holds_in_turn() {
        // Walks 0, 1 and 2 take 2, 1 and 3 slices; one worker logs each step.
        let steps = |hold: usize| {
            let log = std::sync::Mutex::new(Vec::new());
            run_walks(3, 1, hold, &|walk| {
                let (log, mut slice) = (&log, 0);
                move || {
                    log.lock().unwrap().push((walk, slice));
                    slice += 1;
                    (slice == [2, 1, 3][walk]).then_some(walk)
                }
            });
            log.into_inner().unwrap()
        };
        // Holding every walk, the worker goes round them one slice at a time.
        assert_eq!(
            steps(3),
            vec![(0, 0), (1, 0), (2, 0), (0, 1), (2, 1), (2, 2)]
        );
        // Holding two, it takes walk 2 in the round after walk 1 ended.
        assert_eq!(
            steps(2),
            vec![(0, 0), (1, 0), (0, 1), (2, 0), (2, 1), (2, 2)]
        );
        // Holding one, it runs each walk to its end before the next.
        assert_eq!(
            steps(1),
            vec![(0, 0), (0, 1), (1, 0), (2, 0), (2, 1), (2, 2)]
        );
    }

    /// Run `f` on a helper thread and wait at most ten seconds for it to
    /// return or panic, so a batch that hangs fails the test instead of
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
    fn a_panic_escaping_a_walk_stops_its_siblings() {
        /// Hopeless walks, except that walk `.0`'s evaluator panics.
        struct PanicsOnWalk(usize);
        impl EvaluatorFactory for PanicsOnWalk {
            type Output = Hopeless;
            fn build(&self) -> Hopeless {
                Hopeless(8)
            }
            fn build_walk(&self, walk_id: usize, _attempt: u32) -> Hopeless {
                assert_ne!(walk_id, self.0, "evaluator: injected panic");
                Hopeless(8)
            }
        }
        /// Panics on the fault event, outside the walk's isolation.
        struct PanicsOnFault;
        impl EventSink for PanicsOnFault {
            fn record(&self, event: &WalkEvent) {
                if matches!(event, WalkEvent::Faulted { .. }) {
                    panic!("sink: refusing a fault event");
                }
            }
        }
        let search = SearchConfig::builder()
            .max_iterations_per_restart(u64::MAX / 8)
            .max_restarts(0)
            .build();
        // Which thread runs which walk is not fixed: the caller or the
        // helper may run the panicking walk, and the panic must reach the
        // caller either way.
        for panicking in [0, 1] {
            let batch = WalkBatch::uniform(11, &search, 2);
            let outcome = within_ten_seconds(move || {
                ThreadsExecutor.execute_with_telemetry(
                    &PanicsOnWalk(panicking),
                    &batch,
                    &PanicsOnFault,
                )
            });
            assert!(
                outcome.is_err(),
                "walk {panicking}: the sink's panic reaches the caller"
            );
        }
    }

    #[test]
    fn the_fewest_iteration_walk_wins_and_bounds_the_others() {
        let factory = Countdowns(vec![50, 20, 20, 90]);
        let search = SearchConfig::builder()
            .max_iterations_per_restart(1_000)
            .max_restarts(0)
            .build();
        let batch = WalkBatch::uniform(1, &search, 4);
        let seq = SequentialExecutor.execute(&factory, &batch);
        let mut runs = vec![
            (
                "threads".to_string(),
                ThreadsExecutor.execute(&factory, &batch),
            ),
            ("sequential".to_string(), seq.clone()),
        ];
        for workers in [1, 2, 3, 8] {
            let run = execute_inner(workers, &factory, &batch, None, None);
            runs.push((format!("{workers} workers"), run));
        }
        for (name, exec) in &runs {
            assert_eq!(exec.winner, Some(1), "{name}");
            assert_eq!(exec.winning_iterations(), Some(20), "{name}");
            assert_eq!(exec.incumbent.as_ref().map(|i| i.walk_id), Some(1));
            // No bound falls below 20, and a walk checks for a solution
            // before it checks the bound: walk 2 ties at 20 and solves too.
            let tied = &exec.records[2].outcome;
            assert!(tied.solved(), "{name}");
            assert_eq!(tied.stats.iterations, 20, "{name}");
        }
        // One worker goes round the walks 32 iterations at a time: walk 0
        // has done 32 when walk 1 solves at 20, walk 3 stops at exactly 20,
        // and walk 0 stops at its next turn, where it left off.
        let counts: Vec<(TerminationReason, u64)> = seq
            .records
            .iter()
            .map(|r| (r.outcome.reason, r.outcome.stats.iterations))
            .collect();
        assert_eq!(
            counts,
            vec![
                (TerminationReason::ExternallyStopped, 32),
                (TerminationReason::Solved, 20),
                (TerminationReason::Solved, 20),
                (TerminationReason::ExternallyStopped, 20),
            ]
        );
    }

    #[test]
    fn one_worker_pays_p_times_the_minimum_plus_a_slice_per_walk() {
        // Walks solving at 500, 20, 20 and 900 iterations, in slices of 4.
        let factory = Countdowns(vec![500, 20, 20, 900]);
        let search = SearchConfig::builder()
            .max_iterations_per_restart(1_000)
            .max_restarts(0)
            .stop_check_interval(4)
            .build();
        let batch = WalkBatch::uniform(1, &search, 4);
        let seq = SequentialExecutor.execute(&factory, &batch);
        let threads = ThreadsExecutor.execute(&factory, &batch);
        assert_eq!(seq.winner, Some(1));
        assert_eq!(seq.winner, threads.winner);
        assert_eq!(seq.winning_iterations(), threads.winning_iterations());
        // Walk after walk, the batch would cost 500 + 3 · 20 = 560.
        let (p, min, slice) = (4, 20, 4);
        assert!(
            seq.total_iterations() <= p * (min + slice),
            "{} iterations",
            seq.total_iterations()
        );
    }

    #[test]
    fn all_backends_agree_on_a_run_to_completion_batch() {
        let batch = WalkBatch::uniform(42, &quick_search(), 8).run_to_completion();
        let factory = || Sort(20);
        let seq = SequentialExecutor.execute(&factory, &batch);
        let mut others = vec![ThreadsExecutor.execute(&factory, &batch)];
        for workers in [1, 2, 3, 8] {
            others.push(execute_inner(workers, &factory, &batch, None, None));
        }
        // Per-walk trajectories, and with them the winner and the
        // incumbent, are bit-identical whatever the worker count.
        for other in &others {
            assert_eq!(seq.winner, other.winner);
            assert_eq!(seq.incumbent, other.incumbent);
            assert_eq!(seq.records.len(), other.records.len());
            for (a, b) in seq.records.iter().zip(other.records.iter()) {
                assert_eq!(a.walk_id, b.walk_id);
                assert_eq!(a.seed, b.seed);
                assert_eq!(a.outcome.stats, b.outcome.stats);
                assert_eq!(a.outcome.solution, b.outcome.solution);
            }
        }
        assert!(seq.winning_record().unwrap().outcome.solved());
        assert!(seq.total_iterations() >= seq.winning_iterations().unwrap());
    }

    #[test]
    fn telemetry_is_passive_and_complete() {
        let batch = WalkBatch::uniform(7, &quick_search(), 3).run_to_completion();
        let factory = || Sort(16);
        let plain = SequentialExecutor.execute(&factory, &batch);
        let log = EventLog::new();
        let observed = SequentialExecutor.execute_with_telemetry(&factory, &batch, &log);

        // bit-identical records with and without the sink
        for (a, b) in plain.records.iter().zip(observed.records.iter()) {
            assert_eq!(a.outcome.stats, b.outcome.stats);
            assert_eq!(a.outcome.solution, b.outcome.solution);
        }

        // every walk contributes exactly one Started and one Finished event,
        // bracketing its Restarted/ImprovedCost events
        for record in &observed.records {
            let events = log.events_of(record.walk_id);
            assert!(
                matches!(events.first(), Some(WalkEvent::Started { seed, .. }) if *seed == record.seed)
            );
            match events.last() {
                Some(WalkEvent::Finished {
                    solved,
                    iterations,
                    cost,
                    ..
                }) => {
                    assert_eq!(*solved, record.outcome.solved());
                    assert_eq!(*iterations, record.outcome.stats.iterations);
                    assert_eq!(*cost, record.outcome.best_cost);
                }
                other => panic!("last event must be Finished, got {other:?}"),
            }
            let improvements: Vec<i64> = events
                .iter()
                .filter_map(|e| match e {
                    WalkEvent::ImprovedCost { cost, .. } => Some(*cost),
                    _ => None,
                })
                .collect();
            assert!(improvements.windows(2).all(|w| w[1] < w[0]));
            assert_eq!(*improvements.last().unwrap(), record.outcome.best_cost);
        }
    }

    #[test]
    fn deadline_cancels_every_backend() {
        let search = SearchConfig::builder()
            .max_iterations_per_restart(u64::MAX / 8)
            .max_restarts(0)
            .stop_check_interval(1)
            .build();
        let batch = WalkBatch::uniform(3, &search, 2).with_timeout(Duration::from_millis(20));
        let factory = || Hopeless(8);
        for (name, exec) in [
            ("threads", ThreadsExecutor.execute(&factory, &batch)),
            ("sequential", SequentialExecutor.execute(&factory, &batch)),
        ] {
            assert_eq!(exec.winner, None, "{name}: timed-out run has no winner");
            assert!(exec
                .records
                .iter()
                .all(|r| r.outcome.reason == TerminationReason::TimedOut));
        }
    }

    #[test]
    fn scheduled_jobs_drive_the_restart_loop() {
        // A hopeless job with an explicit budget schedule consumes exactly
        // the scheduled slices (same contract as `Run::budget`).
        let search = SearchConfig::default();
        let job = WalkJob::new(search)
            .with_label("sliced")
            .with_budget(|r| [7u64, 11, 13].get(r as usize).copied());
        let batch = WalkBatch::new(WalkSeeds::new(17), vec![job]);
        let exec = SequentialExecutor.execute(&|| Hopeless(8), &batch);
        assert_eq!(exec.winner, None);
        assert_eq!(exec.records[0].label, "sliced");
        assert_eq!(exec.records[0].outcome.stats.iterations, 7 + 11 + 13);
        assert_eq!(exec.records[0].outcome.stats.restarts, 2);
    }

    #[test]
    fn batch_accessors_report_the_configuration() {
        let batch =
            WalkBatch::uniform(5, &SearchConfig::default(), 3).with_timeout(Duration::from_secs(1));
        assert_eq!(batch.walks(), 3);
        assert_eq!(batch.jobs().len(), 3);
        assert_eq!(batch.seeds(), WalkSeeds::new(5));
        assert_eq!(batch.timeout(), Some(Duration::from_secs(1)));
        assert!(batch.stop_on_first_success);
        assert!(!batch.clone().run_to_completion().stop_on_first_success);
        let debug = format!("{:?}", batch.jobs()[0]);
        assert!(debug.contains("WalkJob"));
    }

    #[test]
    fn empty_batch_executes_to_an_empty_result() {
        let batch = WalkBatch::new(WalkSeeds::new(1), Vec::new());
        assert_eq!(batch.walks(), 0);
        let execution = SequentialExecutor.execute(&|| Sort(8), &batch);
        assert!(execution.records.is_empty());
        assert_eq!(execution.winner, None);
        assert!(execution.incumbent.is_none());
        assert_eq!(execution.degradation, None);
        assert!(!execution.is_partial());
    }

    #[test]
    fn reseeded_batches_share_shape_but_not_seeds() {
        let proto = WalkBatch::uniform(5, &SearchConfig::default(), 3)
            .with_timeout(Duration::from_secs(1))
            .run_to_completion();
        let derived = proto.reseeded(99);
        assert_eq!(derived.walks(), proto.walks());
        assert_eq!(derived.timeout(), proto.timeout());
        assert_eq!(derived.stop_on_first_success, proto.stop_on_first_success);
        assert_eq!(derived.seeds(), WalkSeeds::new(99));
        assert_ne!(derived.seeds(), proto.seeds());
        // same seed in, bit-identical seed family out
        assert_eq!(proto.reseeded(5).seeds(), proto.seeds());
    }
}
