//! The solve service proper: a shared worker pool multiplexing many
//! concurrent solve jobs, each run under supervised execution.
//!
//! ## Execution model
//!
//! Each admitted job runs on **one** worker thread as a *sequential* batch
//! ([`SequentialExecutor`]) under a [`Supervisor`]: concurrency comes from
//! running many jobs side by side, not from parallelizing a single job's
//! walks.  That choice is what makes service results *bit-identical* to a
//! direct executor run: a sequential batch under the iterations-first
//! winner rule is a pure function of `(request shape, master seed)`, so two
//! tenants submitting the same request get the same winner regardless of
//! how loaded the service is — and a client can audit any result by
//! replaying the batch locally (see [`SolveService::batch_for`]).
//!
//! ## Lifecycle of a request
//!
//! 1. **Validate** — an unknown benchmark id is rejected without queueing.
//! 2. **Quote** — completed jobs feed per-benchmark runtime distributions
//!    (`cbls-perfmodel`); a request whose benchmark has history gets a
//!    [`RuntimeQuote`] in its `Admitted` frame.  The quote is informational:
//!    the queue stays in arrival order.
//! 3. **Admit or reject** — the bounded queue either takes the job or the
//!    call returns [`AdmissionError::QueueFull`] immediately (no blocking
//!    admission: back-pressure is the client's problem to see).
//! 4. **Execute** — a worker dequeues the oldest job, replays its shape
//!    from the prototype cache reseeded with the request's master seed, and
//!    runs it under the default supervision (3 attempts per walk, stall
//!    watchdog): panics and stalls degrade to anytime incumbents instead of
//!    failing the job.
//! 5. **Stream** — every walk event is forwarded as a [`ProgressFrame`];
//!    the terminal frame carries the [`JobResult`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use cbls_core::monotonic_now;
use cbls_obs::{MetricsRegistry, MetricsSnapshot, ServiceMetrics};
use cbls_parallel::{
    EventSink, SequentialExecutor, WalkBatch, WalkEvent, WalkJob, WalkSeeds, WinnerRule,
};
use cbls_perfmodel::DistributionAccumulator;
use cbls_problems::Benchmark;
use cbls_resilience::{SupervisedExecution, Supervisor};

use crate::queue::{AdmissionError, AdmissionPolicy, QueueState};
use crate::wire::{JobEvent, JobResult, ProgressFrame, SolveRequest, WIRE_SCHEMA};

/// Tuning knobs of a [`SolveService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads in the pool (each runs one job at a time).
    pub workers: usize,
    /// Admission-queue capacity: jobs *waiting* for a worker beyond this
    /// bound are rejected with [`AdmissionError::QueueFull`].
    pub queue_capacity: usize,
}

impl Default for ServiceConfig {
    /// Two-to-four workers (bounded by the machine) and a 64-deep queue.
    fn default() -> Self {
        let workers = thread::available_parallelism().map_or(2, |n| n.get().min(4));
        Self {
            workers,
            queue_capacity: 64,
        }
    }
}

impl ServiceConfig {
    /// Replace the worker count.  Zero is accepted here, but
    /// [`SolveService::new`] panics on it.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Replace the admission-queue capacity.  Zero is accepted here, but
    /// [`SolveService::new`] panics on it.
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }
}

/// One admitted job waiting in (or moving through) the queue.
#[derive(Debug)]
pub(crate) struct QueuedJob {
    pub(crate) job_id: u64,
    pub(crate) request: SolveRequest,
    pub(crate) enqueued: Instant,
    pub(crate) events: mpsc::Sender<JobEvent>,
    pub(crate) done: mpsc::SyncSender<CompletedJob>,
}

/// A finished job: the wire-side summary plus the full in-process records.
#[derive(Debug)]
pub struct CompletedJob {
    /// The summary streamed to the client as the terminal frame.
    pub result: JobResult,
    /// The full supervised execution (per-walk records, retry history,
    /// anytime incumbent).
    pub execution: SupervisedExecution,
}

/// The client's handle to one admitted job: a progress stream plus a
/// blocking wait for the result.
#[derive(Debug)]
pub struct JobHandle {
    job_id: u64,
    seq: u64,
    events: mpsc::Receiver<JobEvent>,
    done: mpsc::Receiver<CompletedJob>,
}

impl JobHandle {
    /// The service-assigned job id.
    #[must_use]
    pub fn job_id(&self) -> u64 {
        self.job_id
    }

    /// Block for the next progress frame; `None` once the stream is closed
    /// (the frame after [`JobEvent::Completed`] is always `None`).
    pub fn next_frame(&mut self) -> Option<ProgressFrame> {
        let event = self.events.recv().ok()?;
        Some(self.envelope(event))
    }

    /// Block until the job completes and return its result.
    ///
    /// Returns `None` only if the service was torn down so forcefully that
    /// the job's worker vanished (a worker panic outside supervised code);
    /// orderly [`SolveService::shutdown`] drains the queue first, so every
    /// admitted job completes.
    #[must_use]
    pub fn wait(self) -> Option<CompletedJob> {
        self.done.recv().ok()
    }

    fn envelope(&mut self, event: JobEvent) -> ProgressFrame {
        let seq = self.seq;
        self.seq += 1;
        ProgressFrame {
            schema: WIRE_SCHEMA.to_string(),
            job: self.job_id,
            seq,
            event,
        }
    }
}

/// Per-event bridge from the executor's telemetry to the job's progress
/// stream.
struct JobSink {
    events: mpsc::Sender<JobEvent>,
}

impl EventSink for JobSink {
    fn record(&self, event: &WalkEvent) {
        // A send can only fail when the client dropped its handle; progress
        // for an abandoned job is discarded, the job itself still runs to
        // completion (its result feeds the quote history).
        let _ = self.events.send(JobEvent::Walk { event: *event });
    }
}

/// State shared between the service handle and its workers.
struct Shared {
    policy: AdmissionPolicy,
    queue: Mutex<QueueState>,
    /// Signalled on every enqueue and on shutdown.
    idle: Condvar,
    registry: MetricsRegistry,
    metrics: ServiceMetrics,
    /// Per-benchmark iterations-to-solution history, fed by completed jobs,
    /// read by the quoting path.
    history: Mutex<HashMap<String, DistributionAccumulator>>,
    /// Prototype batches keyed by `(benchmark, walks, budget)` — request
    /// shapes repeat under load, and a cached prototype turns per-request
    /// batch construction into a reseed of an existing one.
    prototypes: Mutex<HashMap<(String, usize, u64), WalkBatch>>,
    next_job: AtomicU64,
}

/// A concurrent solve service over a shared worker pool; see the module
/// docs for the execution model.
///
/// ```
/// use cbls_service::{ServiceConfig, SolveRequest, SolveService};
///
/// let service = SolveService::new(ServiceConfig::default().with_workers(2));
/// let handle = service
///     .submit(SolveRequest::new("queens-12", 2, 100_000))
///     .expect("admitted");
/// let completed = handle.wait().expect("job ran");
/// assert!(completed.result.solved);
/// service.shutdown();
/// ```
pub struct SolveService {
    shared: Arc<Shared>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl SolveService {
    /// Start a service with `config.workers` worker threads.
    ///
    /// # Panics
    ///
    /// Panics if `config.workers` or `config.queue_capacity` is zero, or if
    /// the OS refuses to spawn a thread.
    #[must_use]
    pub fn new(config: ServiceConfig) -> Self {
        assert!(config.workers > 0, "a service needs at least one worker");
        assert!(
            config.queue_capacity > 0,
            "a service needs a positive queue capacity"
        );
        let mut registry = MetricsRegistry::new();
        let metrics = ServiceMetrics::register(&mut registry);
        let shared = Arc::new(Shared {
            policy: AdmissionPolicy::new(config.queue_capacity),
            queue: Mutex::new(QueueState::default()),
            idle: Condvar::new(),
            registry,
            metrics,
            history: Mutex::new(HashMap::new()),
            prototypes: Mutex::new(HashMap::new()),
            next_job: AtomicU64::new(0),
        });
        let workers = (0..config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("cbls-service-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn service worker")
            })
            .collect();
        Self { shared, workers }
    }

    /// Submit a request; returns the job's handle, or the reason it was
    /// rejected.  Never blocks on a full queue — rejection is immediate.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::UnknownBenchmark`] when the catalog cannot parse
    /// the request's benchmark id; [`AdmissionError::QueueFull`] when the
    /// admission queue is at capacity; [`AdmissionError::ServiceClosed`]
    /// after [`shutdown`](Self::shutdown) began.
    pub fn submit(&self, request: SolveRequest) -> Result<JobHandle, AdmissionError> {
        if Benchmark::from_id(&request.benchmark).is_none() {
            self.shared.metrics.job_rejected();
            return Err(AdmissionError::UnknownBenchmark {
                id: request.benchmark,
            });
        }
        let quote = {
            let history = self.shared.history.lock().expect("history mutex poisoned");
            history
                .get(&request.benchmark)
                .and_then(|acc| acc.quote(request.walks))
        };
        // Relaxed: job ids only need uniqueness, no ordering with other
        // memory — the queue mutex orders everything that matters.
        let job_id = self.shared.next_job.fetch_add(1, Ordering::Relaxed);
        let (events_tx, events_rx) = mpsc::channel();
        let (done_tx, done_rx) = mpsc::sync_channel(1);

        let depth = {
            let mut state = self.shared.queue.lock().expect("queue mutex poisoned");
            if state.closed {
                drop(state);
                self.shared.metrics.job_rejected();
                return Err(AdmissionError::ServiceClosed);
            }
            if !self.shared.policy.admit(state.jobs.len()) {
                drop(state);
                self.shared.metrics.job_rejected();
                return Err(AdmissionError::QueueFull {
                    capacity: self.shared.policy.capacity(),
                });
            }
            // Frame 0 goes out before the job is visible to workers, so
            // `Admitted` always precedes `Started` in the stream.
            let _ = events_tx.send(JobEvent::Admitted {
                position: state.jobs.len(),
                quote,
            });
            state.jobs.push_back(QueuedJob {
                job_id,
                request,
                enqueued: monotonic_now(),
                events: events_tx,
                done: done_tx,
            });
            state.jobs.len()
        };
        self.shared.metrics.job_admitted(depth);
        self.shared.idle.notify_one();
        Ok(JobHandle {
            job_id,
            seq: 0,
            events: events_rx,
            done: done_rx,
        })
    }

    /// The exact batch a request executes as — reseeded with the request's
    /// master seed, winner resolved iterations-first.  `None` for an
    /// unknown benchmark id.
    ///
    /// Running this batch on any back-end yields the same winner the
    /// service reports for the request: the audit path for bit-identical
    /// results.
    #[must_use]
    pub fn batch_for(&self, request: &SolveRequest) -> Option<WalkBatch> {
        let bench = Benchmark::from_id(&request.benchmark)?;
        Some(self.shared.job_batch(request, &bench))
    }

    /// A point-in-time snapshot of the service's metrics (queue depth,
    /// admission and completion counters, latency histogram).
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.registry.snapshot()
    }

    /// Stop admitting, drain every queued job, and join the workers.
    ///
    /// Admitted jobs are never abandoned: shutdown returns only after each
    /// of them has streamed its terminal frame.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        {
            let mut state = self.shared.queue.lock().expect("queue mutex poisoned");
            state.closed = true;
        }
        self.shared.idle.notify_all();
        for worker in self.workers.drain(..) {
            // A worker that panicked already unwound past its job; there is
            // nothing left to salvage from its handle.
            let _ = worker.join();
        }
    }
}

impl Drop for SolveService {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

impl Shared {
    /// The executable batch of `request`: prototype cache hit or build,
    /// then reseed + deadline.
    fn job_batch(&self, request: &SolveRequest, bench: &Benchmark) -> WalkBatch {
        let key = (
            request.benchmark.clone(),
            request.walks,
            request.iteration_budget,
        );
        let prototype = {
            let mut cache = self.prototypes.lock().expect("prototype mutex poisoned");
            cache
                .entry(key)
                .or_insert_with(|| build_prototype(bench, request.walks, request.iteration_budget))
                .clone()
        };
        let batch = prototype.reseeded(request.master_seed);
        match request.deadline_ms {
            Some(ms) => batch.with_timeout(Duration::from_millis(ms)),
            None => batch.without_timeout(),
        }
    }

    /// Feed a completed execution into the per-benchmark runtime history.
    fn add_to_history(&self, benchmark: &str, execution: &SupervisedExecution) {
        let mut history = self.history.lock().expect("history mutex poisoned");
        let acc = history.entry(benchmark.to_string()).or_default();
        for record in &execution.execution.records {
            if record.outcome.solved() {
                acc.record(record.outcome.stats.iterations as f64);
            }
        }
    }
}

/// A fresh prototype batch: the benchmark's tuned configuration, the total
/// per-walk budget sliced over its restart schedule, winner resolution
/// pinned to the bit-reproducible iterations-first rule.
fn build_prototype(bench: &Benchmark, walks: usize, iteration_budget: u64) -> WalkBatch {
    let config = bench.tuned_config();
    let jobs = (0..walks)
        .map(|_| WalkJob::new(config.clone()).with_budget(config.sliced_budget(iteration_budget)))
        .collect();
    WalkBatch::new(WalkSeeds::new(0), jobs).with_winner_rule(WinnerRule::IterationsFirst)
}

fn worker_loop(shared: &Shared) {
    loop {
        let (job, depth) = {
            let mut state = shared.queue.lock().expect("queue mutex poisoned");
            loop {
                if let Some(job) = state.jobs.pop_front() {
                    break (job, state.jobs.len());
                }
                if state.closed {
                    return;
                }
                state = shared.idle.wait(state).expect("queue mutex poisoned");
            }
        };
        shared.metrics.job_dequeued(depth);
        run_job(shared, job);
    }
}

fn run_job(shared: &Shared, job: QueuedJob) {
    let QueuedJob {
        job_id,
        request,
        enqueued,
        events,
        done,
        ..
    } = job;
    let queued_ms = millis(monotonic_now().saturating_duration_since(enqueued));
    let _ = events.send(JobEvent::Started { queued_ms });

    let bench = Benchmark::from_id(&request.benchmark).expect("benchmark validated at admission");
    let batch = shared.job_batch(&request, &bench);
    let supervisor = Supervisor::new(SequentialExecutor);
    let sink = JobSink {
        events: events.clone(),
    };
    let supervised = supervisor.run_with_telemetry(&|| bench.build(), &batch, &sink);

    shared.add_to_history(&request.benchmark, &supervised);
    let result = summarize(job_id, &request, &supervised);
    let latency_ms = millis(monotonic_now().saturating_duration_since(enqueued));
    shared
        .metrics
        .job_completed(latency_ms, result.solved, result.degradation.is_some());
    let _ = events.send(JobEvent::Completed {
        result: result.clone(),
    });
    let _ = done.send(CompletedJob {
        result,
        execution: supervised,
    });
    // Dropping `events` here closes the stream right after the terminal
    // frame.
}

/// Condense a supervised execution into its wire summary.
fn summarize(job_id: u64, request: &SolveRequest, supervised: &SupervisedExecution) -> JobResult {
    let execution = &supervised.execution;
    let winning = execution.winning_record();
    JobResult {
        job: job_id,
        benchmark: request.benchmark.clone(),
        solved: execution.winner.is_some(),
        winner: execution.winner,
        winner_seed: winning.map(|r| r.seed),
        winner_iterations: winning.map(|r| r.outcome.stats.iterations),
        best_cost: execution.incumbent.as_ref().map(|i| i.cost),
        degradation: execution.degradation,
        retried_walks: supervised.retries.len(),
        wall_ms: millis(execution.wall_time),
    }
}

fn millis(duration: Duration) -> u64 {
    u64::try_from(duration.as_millis()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::WIRE_SCHEMA;
    use cbls_parallel::WalkExecutor;

    fn quick_service(workers: usize) -> SolveService {
        SolveService::new(
            ServiceConfig::default()
                .with_workers(workers)
                .with_queue_capacity(16),
        )
    }

    #[test]
    fn a_job_streams_admission_start_walks_and_completion_in_order() {
        let service = quick_service(1);
        let mut handle = service
            .submit(SolveRequest::new("queens-12", 2, 100_000).with_master_seed(7))
            .expect("admitted");
        let mut frames = Vec::new();
        while let Some(frame) = handle.next_frame() {
            frames.push(frame);
        }
        assert!(frames.len() >= 4, "frames: {frames:#?}");
        for (i, frame) in frames.iter().enumerate() {
            assert_eq!(frame.schema, WIRE_SCHEMA);
            assert_eq!(frame.seq, i as u64);
        }
        assert!(matches!(frames[0].event, JobEvent::Admitted { .. }));
        assert!(matches!(frames[1].event, JobEvent::Started { .. }));
        let last = frames.last().expect("nonempty");
        match &last.event {
            JobEvent::Completed { result } => {
                assert!(result.solved);
                assert_eq!(result.benchmark, "queens-12");
            }
            other => panic!("terminal frame is {other:?}"),
        }
        service.shutdown();
    }

    #[test]
    fn results_are_bit_identical_to_a_direct_executor_run() {
        let service = quick_service(2);
        let request = SolveRequest::new("queens-12", 3, 100_000).with_master_seed(99);
        let direct_batch = service.batch_for(&request).expect("known benchmark");
        let handle = service.submit(request).expect("admitted");
        let completed = handle.wait().expect("job ran");
        let direct = SequentialExecutor.execute(&|| Benchmark::NQueens(12).build(), &direct_batch);
        assert_eq!(completed.result.winner, direct.winner);
        let service_record = completed.execution.execution.winning_record().unwrap();
        let direct_record = direct.winning_record().unwrap();
        assert_eq!(service_record.seed, direct_record.seed);
        assert_eq!(
            service_record.outcome.stats.iterations,
            direct_record.outcome.stats.iterations
        );
        assert_eq!(
            service_record.outcome.solution,
            direct_record.outcome.solution
        );
        service.shutdown();
    }

    #[test]
    fn unknown_benchmarks_are_rejected_before_queueing() {
        let service = quick_service(1);
        let err = service
            .submit(SolveRequest::new("no-such-bench-9", 1, 1_000))
            .expect_err("must reject");
        assert_eq!(
            err,
            AdmissionError::UnknownBenchmark {
                id: "no-such-bench-9".to_string()
            }
        );
        let snapshot = service.metrics();
        assert_eq!(snapshot.counter("service.jobs_rejected"), Some(1));
        assert_eq!(snapshot.counter("service.jobs_admitted"), Some(0));
        service.shutdown();
    }

    #[test]
    fn degenerate_requests_complete_with_well_formed_empty_results() {
        let service = quick_service(1);
        let zero_walks = service
            .submit(SolveRequest::new("queens-12", 0, 1_000))
            .expect("admitted")
            .wait()
            .expect("ran");
        assert!(!zero_walks.result.solved);
        assert_eq!(zero_walks.result.winner, None);
        assert_eq!(zero_walks.result.best_cost, None);
        assert_eq!(zero_walks.result.degradation, None);

        let zero_budget = service
            .submit(SolveRequest::new("queens-12", 2, 0))
            .expect("admitted")
            .wait()
            .expect("ran");
        assert!(!zero_budget.result.solved);
        // Zero budget still evaluates the initial configuration: the
        // anytime incumbent exists.
        assert!(zero_budget.result.best_cost.is_some());
        service.shutdown();
    }

    #[test]
    fn a_full_queue_rejects_with_the_capacity_in_the_reason() {
        let service = SolveService::new(
            ServiceConfig::default()
                .with_workers(1)
                .with_queue_capacity(2),
        );
        // Occupy the single worker long enough to fill the queue behind it:
        // a hard instance under a generous budget, bounded by a deadline so
        // the test always terminates.
        let mut occupier = service
            .submit(
                SolveRequest::new("costas-16", 1, u64::MAX / 4)
                    .with_deadline_ms(400)
                    .with_master_seed(1),
            )
            .expect("admitted");
        // Wait for the worker to pick it up, so the queue is empty.
        loop {
            let frame = occupier.next_frame().expect("stream open");
            if matches!(frame.event, JobEvent::Started { .. }) {
                break;
            }
        }
        let quick = || SolveRequest::new("queens-12", 1, 1_000).with_deadline_ms(50);
        let _a = service.submit(quick()).expect("first queued");
        let _b = service.submit(quick()).expect("second queued");
        let err = service.submit(quick()).expect_err("queue is full");
        assert_eq!(err, AdmissionError::QueueFull { capacity: 2 });
        service.shutdown();
    }

    #[test]
    fn shutdown_drains_admitted_jobs_and_then_rejects() {
        let service = quick_service(1);
        let handles: Vec<JobHandle> = (0..3)
            .map(|seed| {
                service
                    .submit(SolveRequest::new("queens-12", 1, 50_000).with_master_seed(seed))
                    .expect("admitted")
            })
            .collect();
        service.shutdown();
        for handle in handles {
            let completed = handle.wait().expect("drained before join");
            assert!(completed.result.solved);
        }
    }

    #[test]
    fn one_worker_starts_jobs_in_admission_order() {
        let service = quick_service(1);
        // Each job holds the worker until its 30 ms deadline, so in FIFO
        // order every job waits about one deadline longer than the job
        // admitted before it.
        let handles: Vec<JobHandle> = (0..3)
            .map(|seed| {
                service
                    .submit(
                        SolveRequest::new("costas-16", 1, u64::MAX / 4)
                            .with_deadline_ms(30)
                            .with_master_seed(seed),
                    )
                    .expect("admitted")
            })
            .collect();
        let queued: Vec<u64> = handles
            .into_iter()
            .map(|mut handle| loop {
                let frame = handle.next_frame().expect("stream open");
                if let JobEvent::Started { queued_ms } = frame.event {
                    break queued_ms;
                }
            })
            .collect();
        assert!(
            queued.windows(2).all(|w| w[0] < w[1]),
            "queued_ms in admission order: {queued:?}"
        );
        service.shutdown();
    }

    #[test]
    fn completed_jobs_warm_the_quote_for_their_benchmark() {
        let service = quick_service(1);
        let request = SolveRequest::new("queens-12", 2, 100_000);
        let first = service.submit(request.clone()).expect("admitted");
        assert!(first.wait().expect("ran").result.solved);
        // The first job had no history; the second is quoted from it.
        let mut second = service.submit(request).expect("admitted");
        let admitted = second.next_frame().expect("stream open");
        match admitted.event {
            JobEvent::Admitted { quote, .. } => {
                let quote = quote.expect("history exists after a solved job");
                assert!(quote.expected > 0.0);
                assert!(quote.samples >= 1);
            }
            other => panic!("first frame is {other:?}"),
        }
        service.shutdown();
    }

    #[test]
    fn metrics_reflect_admissions_and_completions() {
        let service = quick_service(2);
        let handles: Vec<JobHandle> = (0..4)
            .map(|seed| {
                service
                    .submit(SolveRequest::new("queens-12", 1, 100_000).with_master_seed(seed))
                    .expect("admitted")
            })
            .collect();
        for handle in handles {
            assert!(handle.wait().expect("ran").result.solved);
        }
        let snapshot = service.metrics();
        assert_eq!(snapshot.counter("service.jobs_admitted"), Some(4));
        assert_eq!(snapshot.counter("service.jobs_completed"), Some(4));
        assert_eq!(snapshot.counter("service.jobs_solved"), Some(4));
        assert_eq!(snapshot.gauge("service.queue_depth"), Some(0));
        assert_eq!(
            snapshot
                .histogram("service.job_latency_ms")
                .map(|h| h.count),
            Some(4)
        );
        service.shutdown();
    }
}
