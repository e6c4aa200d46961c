//! The solve service proper: a shared worker pool multiplexing many
//! concurrent solve jobs, each run under supervised execution.
//!
//! ## Execution model
//!
//! Each admitted job runs on **one** worker thread as a *sequential* batch
//! ([`SequentialExecutor`]) under a [`Supervisor`]: concurrency comes from
//! running many jobs side by side, not from parallelizing a single job's
//! walks.  The worker goes round the job's walks, one heartbeat interval of
//! iterations per walk and turn, so a `p`-walk job costs about
//! `p · E[min of p]` iterations.  A job returns its fewest-iteration walk,
//! the `p`-walk minimum its [`RuntimeQuote`](cbls_perfmodel::RuntimeQuote)
//! prices.  That winner is a pure function of `(request shape, master
//! seed)` on every back-end, so two tenants submitting the same request get
//! the same winner regardless of how loaded the service is — and a client
//! can audit any result by replaying the batch locally (see
//! [`SolveService::batch_for`]).
//!
//! ## Lifecycle of a request
//!
//! 1. **Validate** — an unknown benchmark id is rejected without queueing.
//! 2. **Quote** — each completed job adds one draw of the `p`-walk minimum
//!    to a fixed-size summary of its shape `(benchmark, walks)`, keyed by
//!    the parsed benchmark's canonical id: a count, a running mean and
//!    variance, and log-spaced bins.  A request whose shape has history gets
//!    a [`RuntimeQuote`] in its `Admitted` frame, read from that summary in
//!    constant time.  The quote is informational: the queue stays in
//!    arrival order.
//! 3. **Admit or reject** — the bounded queue either takes the job or the
//!    call returns [`AdmissionError::QueueFull`] immediately (no blocking
//!    admission: back-pressure is the client's problem to see).
//! 4. **Execute** — a worker dequeues the oldest job, builds its batch from
//!    the benchmark's tuned configuration and the request's master seed, and
//!    runs it under the default supervision (3 attempts per walk; a walk
//!    whose slice overruns the executor's stall window is stopped and
//!    retried): panics and stalls degrade to anytime incumbents instead of
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
use cbls_parallel::{EventSink, SequentialExecutor, WalkBatch, WalkEvent, WalkJob, WalkSeeds};
use cbls_perfmodel::RuntimeQuote;
use cbls_problems::Benchmark;
use cbls_resilience::{SupervisedExecution, Supervisor};

use crate::queue::{AdmissionError, AdmissionPolicy, QueueState};
use crate::wire::{JobEvent, JobResult, ProgressFrame, SolveRequest, WIRE_SCHEMA};

/// How many job shapes `(benchmark, walks)` keep a quote history: a
/// request of any other shape is served but leaves no draw, so the history
/// stays bounded however many shapes clients send.
const HISTORY_SHAPES: usize = 1_024;

/// Bins of a [`ShapeHistory`]: one for each draw below 4, then four per
/// octave `[2^k, 2^(k+1))` of `u64` for `k` in `2..=63`.
const BINS: usize = 4 + 4 * 62;

/// The bin of `draw`: below 4 the draw itself, above it the draw's octave
/// and the two bits after its leading one.
fn bin_of(draw: u64) -> usize {
    if draw < 4 {
        return draw as usize;
    }
    let octave = 63 - draw.leading_zeros();
    4 * (octave as usize - 1) + ((draw >> (octave - 2)) & 3) as usize
}

/// The largest draw that falls in `bin`.
fn bin_top(bin: usize) -> u64 {
    if bin < 4 {
        return bin as u64;
    }
    let shift = bin / 4 - 1;
    // Written as a sum so that the top of the last bin, `u64::MAX`, does not
    // overflow.
    ((4 + bin as u64 % 4) << shift) + ((1 << shift) - 1)
}

/// The quote history of one job shape in constant space: one draw per
/// completed job, summarized by its count, Welford's running mean and sum
/// of squared deviations, the exact extremes and saturating log bins.
#[derive(Debug, Clone, Copy)]
struct ShapeHistory {
    count: usize,
    mean: f64,
    m2: f64,
    min: u64,
    max: u64,
    bins: [u32; BINS],
}

impl ShapeHistory {
    fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: u64::MAX,
            max: 0,
            bins: [0; BINS],
        }
    }

    fn record(&mut self, draw: u64) {
        self.count += 1;
        let x = draw as f64;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(draw);
        self.max = self.max.max(draw);
        let bin = &mut self.bins[bin_of(draw)];
        *bin = bin.saturating_add(1);
    }

    /// The quote of a shape with at least one draw.  Each draw is already a
    /// `walks`-walk minimum, so the expected runtime is their mean.  The p95
    /// is the top of the bin that holds the nearest-rank 95th percentile,
    /// clamped to the extremes: it errs high by less than one bin, and one
    /// draw, or many equal ones, quote exactly.
    fn quote(&self) -> RuntimeQuote {
        let rank = self.count - self.count / 20;
        let mut seen = 0;
        let bin = self
            .bins
            .iter()
            .position(|&n| {
                seen += n as usize;
                seen >= rank
            })
            // Only a saturated bin can leave the rank unreached: quote the
            // largest draw.
            .unwrap_or(BINS - 1);
        let cov = if self.count < 2 || self.mean == 0.0 {
            0.0
        } else {
            (self.m2 / (self.count - 1) as f64).sqrt() / self.mean
        };
        RuntimeQuote {
            samples: self.count,
            expected: self.mean,
            p95: bin_top(bin).clamp(self.min, self.max) as f64,
            cov,
        }
    }
}

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
    /// One worker per core, at most four (two if the core count cannot be
    /// read), and a 64-deep queue.
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
    /// Summaries of the winning iteration counts of completed jobs, one draw
    /// per job, keyed by `(Benchmark::id, walks)` and read by the quoting
    /// path; at most [`HISTORY_SHAPES`] keys.
    history: Mutex<HashMap<(String, usize), ShapeHistory>>,
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
        let Some(bench) = Benchmark::from_id(&request.benchmark) else {
            self.shared.metrics.job_rejected();
            return Err(AdmissionError::UnknownBenchmark {
                id: request.benchmark,
            });
        };
        let shape = (bench.id(), request.walks);
        let quote = {
            let history = self.shared.history.lock().expect("history mutex poisoned");
            history.get(&shape).map(ShapeHistory::quote)
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

    /// The exact batch a request executes as.  `None` for an unknown
    /// benchmark id.
    ///
    /// Running this batch on any back-end yields the same winner the
    /// service reports for the request: the audit path for bit-identical
    /// results.
    #[must_use]
    pub fn batch_for(&self, request: &SolveRequest) -> Option<WalkBatch> {
        let bench = Benchmark::from_id(&request.benchmark)?;
        Some(job_batch(request, &bench))
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
    /// Feed a completed job into the runtime history of its shape
    /// `(benchmark, walks)`: one draw per job, its winning iteration count.
    /// The job's walks run round-robin on one worker, so every walk stops
    /// within a slice of the winner's count and no walk's own run length is
    /// observed, only their minimum: each draw is one of the `walks`-walk
    /// minimum, and the shape's quote is the mean of its draws.  An unsolved
    /// job adds nothing.  Once [`HISTORY_SHAPES`] shapes have a history, a
    /// job of any other shape is not recorded.
    fn add_to_history(&self, bench: &Benchmark, walks: usize, winning_iterations: Option<u64>) {
        let Some(iterations) = winning_iterations else {
            return;
        };
        let mut history = self.history.lock().expect("history mutex poisoned");
        let shape = (bench.id(), walks);
        if let Some(summary) = history.get_mut(&shape) {
            summary.record(iterations);
        } else if history.len() < HISTORY_SHAPES {
            history
                .entry(shape)
                .or_insert_with(ShapeHistory::new)
                .record(iterations);
        }
    }
}

/// The executable batch of `request`: the benchmark's tuned configuration,
/// the total per-walk budget sliced over its restart schedule, the request's
/// master seed and its deadline.
fn job_batch(request: &SolveRequest, bench: &Benchmark) -> WalkBatch {
    let config = bench.tuned_config();
    let jobs = (0..request.walks)
        .map(|_| {
            WalkJob::new(config.clone()).with_budget(config.sliced_budget(request.iteration_budget))
        })
        .collect();
    let batch = WalkBatch::new(WalkSeeds::new(request.master_seed), jobs);
    match request.deadline_ms {
        Some(ms) => batch.with_timeout(Duration::from_millis(ms)),
        None => batch,
    }
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
    let batch = job_batch(&request, &bench);
    let supervisor = Supervisor::new(SequentialExecutor);
    let sink = JobSink {
        events: events.clone(),
    };
    let supervised = supervisor.run_with_telemetry(&|| bench.build(), &batch, &sink);

    let winning_iterations = supervised.execution.winning_iterations();
    shared.add_to_history(&bench, request.walks, winning_iterations);
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
    use as_rng::{default_rng, exponential};
    use cbls_core::TerminationReason;
    use cbls_perfmodel::EmpiricalDistribution;

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
    fn completed_jobs_warm_the_quote_for_their_shape() {
        let service = quick_service(1);
        // Master seed 13: walk 1 solves in 11 iterations, inside the first
        // 32-iteration slice of each walk; walk 0, which would solve at 51,
        // stops where its first slice left it.
        let request = SolveRequest::new("queens-12", 2, 100_000).with_master_seed(13);
        let first = service.submit(request.clone()).expect("admitted");
        let first = first.wait().expect("ran");
        assert_eq!(first.result.winner, Some(1));
        assert_eq!(first.result.winner_iterations, Some(11));
        let records = &first.execution.execution.records;
        assert_eq!(
            records[0].outcome.reason,
            TerminationReason::ExternallyStopped
        );
        assert_eq!(records[0].outcome.stats.iterations, 32);
        // The first job had no history; the second is quoted from it, with
        // one draw per job: its winning count, a draw of the 2-walk minimum.
        let mut second = service.submit(request).expect("admitted");
        let admitted = second.next_frame().expect("stream open");
        match admitted.event {
            JobEvent::Admitted { quote, .. } => {
                let quote = quote.expect("history exists after a solved job");
                assert_eq!(quote.samples, 1);
                assert_eq!(quote.expected, 11.0);
            }
            other => panic!("first frame is {other:?}"),
        }
        // Another walk count is another shape, with no history yet.
        let mut other = service
            .submit(SolveRequest::new("queens-12", 3, 100_000))
            .expect("admitted");
        match other.next_frame().expect("stream open").event {
            JobEvent::Admitted { quote, .. } => assert_eq!(quote, None),
            other => panic!("first frame is {other:?}"),
        }
        service.shutdown();
    }

    #[test]
    fn every_spelling_of_an_instance_shares_one_quote_history() {
        let service = quick_service(1);
        let solved = service
            .submit(SolveRequest::new("queens-12", 2, 100_000).with_master_seed(13))
            .expect("admitted")
            .wait()
            .expect("ran");
        assert_eq!(solved.result.winner_iterations, Some(11));
        // `from_id` reads all three as `queens-12`.  A zero-budget job
        // solves nothing, so none of these adds a draw of its own.
        for spelling in ["queens-12", "queens-012", "queens-+12"] {
            let mut handle = service
                .submit(SolveRequest::new(spelling, 2, 0))
                .expect("admitted");
            match handle.next_frame().expect("stream open").event {
                JobEvent::Admitted { quote, .. } => {
                    let quote = quote.expect("the instance has history");
                    assert_eq!((quote.samples, quote.expected), (1, 11.0), "{spelling}");
                }
                other => panic!("first frame is {other:?}"),
            }
            let completed = handle.wait().expect("ran");
            assert_eq!(completed.result.benchmark, spelling);
        }
        service.shutdown();
    }

    #[test]
    fn the_quote_history_keeps_at_most_its_shapes() {
        let service = quick_service(1);
        let shared = &service.shared;
        for i in 0..10_000 {
            shared.add_to_history(&Benchmark::NQueens(i), 2, Some(i as u64));
        }
        let history = || shared.history.lock().expect("history mutex poisoned");
        assert_eq!(history().len(), HISTORY_SHAPES);
        // A full history still records the shapes it holds, and no other.
        let queens_0 = Benchmark::NQueens(0);
        shared.add_to_history(&queens_0, 2, Some(7));
        shared.add_to_history(&queens_0, 3, Some(7));
        shared.add_to_history(&queens_0, 2, None);
        assert_eq!(history().len(), HISTORY_SHAPES);
        let quote = history()[&(queens_0.id(), 2)].quote();
        assert_eq!((quote.samples, quote.expected), (2, 3.5));
        service.shutdown();
    }

    #[test]
    fn the_bins_tile_u64_in_order() {
        for bin in 0..BINS {
            let top = bin_top(bin);
            assert_eq!(bin_of(top), bin, "top {top} of bin {bin}");
            if bin + 1 < BINS {
                assert_eq!(bin_of(top + 1), bin + 1, "past the top of bin {bin}");
            }
        }
        assert_eq!(bin_top(BINS - 1), u64::MAX);
    }

    #[test]
    fn extreme_draws_quote_finitely_and_full_bins_saturate() {
        let mut summary = ShapeHistory::new();
        summary.record(7);
        let one = summary.quote();
        assert_eq!(
            (one.samples, one.expected, one.p95, one.cov),
            (1, 7.0, 7.0, 0.0)
        );
        for _ in 0..99 {
            summary.record(7);
        }
        let equal = summary.quote();
        assert_eq!((equal.expected, equal.p95, equal.cov), (7.0, 7.0, 0.0));

        let mut summary = ShapeHistory::new();
        for draw in [0, 1, u64::MAX] {
            summary.record(draw);
        }
        let quote = summary.quote();
        assert!(
            quote.expected.is_finite() && quote.cov.is_finite(),
            "{quote:?}"
        );
        assert_eq!(quote.p95, u64::MAX as f64);

        summary.bins[bin_of(5)] = u32::MAX - 1;
        summary.record(5);
        summary.record(5);
        assert_eq!(summary.bins[bin_of(5)], u32::MAX);
    }

    #[test]
    fn a_shape_history_quotes_100_000_draws_in_fixed_space() {
        fn holds_no_heap<T: Copy>() {}
        holds_no_heap::<ShapeHistory>();
        assert_eq!(std::mem::size_of::<ShapeHistory>(), 40 + 4 * BINS);

        let mut rng = default_rng(2024);
        let draws: Vec<u64> = (0..100_000)
            .map(|_| exponential(&mut rng, 20_000.0) as u64)
            .collect();
        let mut summary = ShapeHistory::new();
        for &draw in &draws {
            summary.record(draw);
        }
        let quote = summary.quote();
        let sorted = EmpiricalDistribution::from_counts(&draws);
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * b.abs();
        assert_eq!(quote.samples, draws.len());
        assert!(close(quote.expected, sorted.mean()), "{quote:?}");
        assert!(
            close(quote.cov, sorted.coefficient_of_variation()),
            "{quote:?}"
        );
        let p95 = sorted.quantile(0.95);
        assert_eq!(bin_of(quote.p95 as u64), bin_of(p95 as u64));
        assert!(quote.p95 >= p95, "{} below {p95}", quote.p95);
    }

    #[test]
    fn a_two_walk_costas_12_job_costs_about_twice_its_minimum() {
        // Walk after walk, walk 0 of this job ran 60 024 iterations before
        // walk 1 solved at 72.  Round-robin in slices of 32, the job stops
        // walk 0 one slice past the winner.
        let service = quick_service(1);
        let completed = service
            .submit(SolveRequest::new("costas-12", 2, 10_000_000))
            .expect("admitted")
            .wait()
            .expect("ran");
        assert_eq!(completed.result.winner, Some(1));
        assert_eq!(completed.result.winner_iterations, Some(72));
        let total = completed.execution.execution.total_iterations();
        assert!(total <= 2 * (72 + 32), "{total} iterations");
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
