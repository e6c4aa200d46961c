//! Request shapes and the executor-level request: one timed call of
//! `WalkExecutor::execute` on a reseeded batch, checked afterwards.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use cbls_core::{Evaluator, SearchConfig};
use cbls_parallel::{
    BatchExecution, EventSink, SequentialExecutor, ThreadsExecutor, WalkBatch, WalkEvent,
    WalkExecutor, WalkJob, WalkSeeds,
};
use cbls_problems::Benchmark;

/// Where a request's walks run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// One walk after another on the calling thread.
    Sequential,
    /// One OS thread per walk.
    Threads,
}

/// The most walks any shape of the benchmark uses (sizes the stamp table).
pub const MAX_WALKS: usize = 2;

/// One kind of request: an instance, a walk count, a per-walk iteration
/// budget, and whether the walks stop at the first solution (`solve`) or
/// run exactly their budget with the target cost disabled.
pub struct Shape {
    /// Catalog id of the instance.
    pub id: String,
    /// Walks per request.
    pub walks: usize,
    /// Iteration budget of each walk, sliced over the tuned restart length.
    pub budget: u64,
    /// Stop at the first solution; otherwise run the budget exactly.
    pub solve: bool,
    /// Back-end the workload drives this shape through.
    pub backend: Backend,
    bench: Benchmark,
    verifier: Box<dyn Evaluator>,
    prototype: WalkBatch,
}

impl Shape {
    /// Build a shape (instance, tuned configuration, prototype batch).
    ///
    /// # Panics
    ///
    /// Panics on an id the catalog does not know or more than
    /// [`MAX_WALKS`] walks: both are benchmark-definition bugs.
    #[must_use]
    pub fn new(id: &str, walks: usize, budget: u64, solve: bool, backend: Backend) -> Self {
        assert!(walks <= MAX_WALKS, "{id}: {walks} walks");
        let bench = Benchmark::from_id(id).unwrap_or_else(|| panic!("unknown benchmark {id}"));
        let mut config = bench.tuned_config();
        if !solve {
            config.target_cost = -1;
        }
        let prototype = uniform_batch(&config, walks, budget);
        Self {
            id: id.to_string(),
            walks,
            budget,
            solve,
            backend,
            verifier: bench.build(),
            bench,
            prototype,
        }
    }

    /// The catalog entry.
    #[must_use]
    pub fn bench(&self) -> &Benchmark {
        &self.bench
    }

    /// The request batch under `seed`.
    #[must_use]
    pub fn batch(&self, seed: u64) -> WalkBatch {
        self.prototype.reseeded(seed)
    }

    /// Judge an execution of this shape's batch.
    #[must_use]
    pub fn check(&self, execution: &BatchExecution) -> Verdict {
        if execution.records.len() != self.walks
            || execution.records.iter().any(|r| r.fault.is_some())
        {
            return Verdict::Incorrect;
        }
        if !self.solve {
            let exact = execution
                .records
                .iter()
                .all(|r| r.outcome.stats.iterations == self.budget && !r.outcome.solved());
            return if exact {
                Verdict::Ok
            } else {
                Verdict::Incorrect
            };
        }
        match execution.winning_record() {
            None => Verdict::Failed,
            Some(w) if self.verifier.verify(&w.outcome.solution) => Verdict::Ok,
            Some(_) => Verdict::Incorrect,
        }
    }
}

/// `walks` identical jobs of `config`, each sliced into restarts of the
/// tuned length until `budget` iterations are spent.
fn uniform_batch(config: &SearchConfig, walks: usize, budget: u64) -> WalkBatch {
    let per_restart = config.max_iterations_per_restart.max(1);
    let jobs = (0..walks)
        .map(|_| {
            WalkJob::new(config.clone()).with_budget(move |restart| {
                let used = restart.saturating_mul(per_restart);
                (used < budget).then(|| per_restart.min(budget - used))
            })
        })
        .collect();
    WalkBatch::new(WalkSeeds::new(0), jobs)
}

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Solved and verified, or ran exactly its budget.
    Ok,
    /// A solve request that found no solution within its budget.
    Failed,
    /// A wrong answer: verification failed, a budget was not run exactly,
    /// a walk faulted, or a replay disagreed.
    Incorrect,
}

/// Monotonic timestamps of each walk's `Started` / `Finished` event, the
/// traced pass's only observer inside an executor call.
pub struct Stamps {
    origin: Instant,
    started: [AtomicU64; MAX_WALKS],
    finished: [AtomicU64; MAX_WALKS],
}

impl Stamps {
    /// An empty table counting from `origin`.
    #[must_use]
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            started: Default::default(),
            finished: Default::default(),
        }
    }

    fn now_ns(&self) -> u64 {
        // +1 keeps 0 free as "not seen".
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX - 1) + 1
    }

    fn at(&self, ns: u64) -> Option<Instant> {
        (ns > 0).then(|| self.origin + Duration::from_nanos(ns - 1))
    }

    /// Clear every stamp (before a request).
    pub fn reset(&self) {
        for slot in self.started.iter().chain(&self.finished) {
            slot.store(0, Ordering::Relaxed);
        }
    }

    /// `(started, finished)` of each of the first `walks` walks.
    pub fn take(&self, walks: usize) -> Vec<(Option<Instant>, Option<Instant>)> {
        (0..walks)
            .map(|w| {
                (
                    self.at(self.started[w].load(Ordering::Relaxed)),
                    self.at(self.finished[w].load(Ordering::Relaxed)),
                )
            })
            .collect()
    }
}

impl EventSink for Stamps {
    fn record(&self, event: &WalkEvent) {
        // Relaxed: each slot is a standalone timestamp read after the
        // executor call has joined every walk.
        match *event {
            WalkEvent::Started { walk_id, .. } if walk_id < MAX_WALKS => {
                self.started[walk_id].store(self.now_ns(), Ordering::Relaxed);
            }
            WalkEvent::Finished { walk_id, .. } if walk_id < MAX_WALKS => {
                self.finished[walk_id].store(self.now_ns(), Ordering::Relaxed);
            }
            _ => {}
        }
    }
}

/// What rides along with a request's executor call.
#[derive(Clone, Copy)]
pub enum Attach<'a> {
    /// A plain `execute`.
    Nothing,
    /// `execute_with_telemetry` into this sink.
    Events(&'a dyn EventSink),
}

/// One executed request.
pub struct Executed {
    /// Wall time of the executor call.
    pub wall: Duration,
    /// Engine iterations over every walk.
    pub iterations: u64,
    /// Engine time over every walk, as each walk's outcome reports it.
    pub engine: Duration,
    /// Iterations and engine time on the call's critical path: every walk
    /// of a sequential batch, the winner (or else the longest walk) of
    /// concurrent walks.
    pub critical: (u64, Duration),
    /// The check's verdict.
    pub verdict: Verdict,
    /// The call's start and return.
    pub call: (Instant, Instant),
    /// The execution itself.
    pub execution: BatchExecution,
}

/// Execute `shape` under `seed` with `attach`, timing only the executor
/// call.
pub fn execute(shape: &Shape, seed: u64, attach: Attach<'_>) -> Executed {
    let batch = shape.batch(seed);
    let bench = shape.bench();
    let factory = || bench.build();
    let started = Instant::now();
    let execution = match (shape.backend, attach) {
        (Backend::Sequential, Attach::Events(sink)) => {
            SequentialExecutor.execute_with_telemetry(&factory, &batch, sink)
        }
        (Backend::Threads, Attach::Events(sink)) => {
            ThreadsExecutor.execute_with_telemetry(&factory, &batch, sink)
        }
        (Backend::Sequential, Attach::Nothing) => SequentialExecutor.execute(&factory, &batch),
        (Backend::Threads, Attach::Nothing) => ThreadsExecutor.execute(&factory, &batch),
    };
    let returned = Instant::now();
    let records = &execution.records;
    let iterations = records.iter().map(|r| r.outcome.stats.iterations).sum();
    let engine = records.iter().map(|r| r.outcome.elapsed).sum();
    let critical = match shape.backend {
        Backend::Sequential => (iterations, engine),
        Backend::Threads => execution
            .winning_record()
            .or_else(|| records.iter().max_by_key(|r| r.outcome.elapsed))
            .map_or((0, Duration::ZERO), |r| {
                (r.outcome.stats.iterations, r.outcome.elapsed)
            }),
    };
    Executed {
        wall: returned - started,
        iterations,
        engine,
        critical,
        verdict: shape.check(&execution),
        call: (started, returned),
        execution,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_budget_shapes_run_their_budget_exactly_on_every_walk() {
        let shape = Shape::new("queens-16", 2, 1_234, false, Backend::Threads);
        let run = execute(&shape, 5, Attach::Nothing);
        assert_eq!(run.verdict, Verdict::Ok);
        assert_eq!(run.iterations, 2 * 1_234);
    }

    #[test]
    fn solve_shapes_verify_the_winner_and_stamp_every_walk() {
        let origin = Instant::now();
        let stamps = Stamps::new(origin);
        let shape = Shape::new("queens-16", 2, 1_000_000, true, Backend::Threads);
        stamps.reset();
        let run = execute(&shape, 9, Attach::Events(&stamps));
        assert_eq!(run.verdict, Verdict::Ok);
        let walks = stamps.take(2);
        for (started, finished) in &walks {
            let (s, f) = (started.expect("started"), finished.expect("finished"));
            assert!(run.call.0 <= s && s <= f && f <= run.call.1);
        }
    }

    #[test]
    fn an_exhausted_solve_budget_is_a_failure_not_a_wrong_answer() {
        let shape = Shape::new("costas-12", 1, 1, true, Backend::Sequential);
        assert_eq!(execute(&shape, 1, Attach::Nothing).verdict, Verdict::Failed);
    }
}
