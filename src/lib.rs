//! # parallel-cbls — parallel constraint-based local search
//!
//! Facade crate of the workspace reproducing *"Performance Analysis of
//! Parallel Constraint-Based Local Search"* (Abreu, Caniou, Codognet, Diaz,
//! Richoux — PPoPP 2012): the Adaptive Search engine, the CSPLib / Costas
//! Array benchmark models, the independent multi-walk parallel runners, the
//! propagation-based baseline and the runtime distributions that predict
//! multi-walk speedups, re-exported under one roof so that applications can
//! depend on a single crate.
//!
//! ```
//! use parallel_cbls::prelude::*;
//!
//! // Solve the 8-queens problem with the Adaptive Search engine.
//! let mut problem = NQueens::new(8);
//! let engine = AdaptiveSearch::tuned_for(&problem);
//! let outcome = engine.solve(&mut problem, &mut default_rng(42));
//! assert!(outcome.solved());
//!
//! // Run 4 independent walks on the Costas Array Problem and keep the winner.
//! let search = Benchmark::CostasArray(9).tuned_config();
//! let batch = WalkBatch::uniform(WalkSeeds::DEFAULT_MASTER_SEED, &search, 4);
//! let result = ThreadsExecutor.execute(&|| CostasArray::new(9), &batch);
//! assert!(result.winning_record().is_some());
//! ```
//!
//! See the individual crates for the full APIs:
//!
//! * [`core`] (`cbls-core`) — engine, configuration, statistics;
//! * [`model`] (`cbls-model`) — the declarative modeling layer (violation
//!   terms, the model builder and the generic incremental evaluator);
//! * [`problems`] (`cbls-problems`) — benchmark models and the registry;
//! * [`obs`] (`cbls-obs`) — metrics, flight-recorder tracing and phase
//!   profiling, with Chrome-trace export and the `cbls-trace` CLI;
//! * [`parallel`] (`cbls-parallel`) — walk batches, the threads and
//!   sequential executors, and their deterministic replay;
//! * [`resilience`] (`cbls-resilience`) — supervised execution: stall
//!   reports, deterministic retries and the chaos fault-injection harness;
//! * [`service`] (`cbls-service`) — the concurrent solve-job service:
//!   bounded FIFO admission, runtime quotes and the versioned progress wire
//!   format;
//! * [`propagation`] (`cbls-propagation`) — the backtracking baseline;
//! * [`perfmodel`] (`cbls-perfmodel`) — empirical runtime distributions
//!   and the expected minimum of `p` draws;
//! * [`rng`] (`as-rng`) — deterministic random streams.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use as_rng as rng;
pub use cbls_core as core;
pub use cbls_model as model;
pub use cbls_obs as obs;
pub use cbls_parallel as parallel;
pub use cbls_perfmodel as perfmodel;
pub use cbls_problems as problems;
pub use cbls_propagation as propagation;
pub use cbls_resilience as resilience;
pub use cbls_service as service;

/// The most commonly used items, importable with a single `use`.
pub mod prelude {
    pub use as_rng::{default_rng, RandomSource, SeedSequence};
    pub use cbls_core::{
        AdaptiveSearch, Evaluator, Run, SearchConfig, SearchOutcome, SearchStats, StopControl,
        TerminationReason,
    };
    pub use cbls_model::{Model, ModelEvaluator, Term};
    pub use cbls_obs::{FlightRecorder, RecorderConfig, TraceMeta, TraceRecording};
    pub use cbls_parallel::{
        select_winner, BatchExecution, DegradationReason, EventLog, SequentialExecutor,
        SimulatedMultiWalk, Supervision, ThreadsExecutor, WalkBatch, WalkEvent, WalkExecutor,
        WalkFault, WalkJob, WalkSeeds,
    };
    pub use cbls_perfmodel::EmpiricalDistribution;
    pub use cbls_problems::{AllInterval, Benchmark, CostasArray, Langford, MagicSquare, NQueens};
    pub use cbls_propagation::{
        AllIntervalConstraint, BacktrackingSolver, CostasConstraint, LangfordConstraint,
        QueensConstraint,
    };
    pub use cbls_resilience::{
        ChaosFactory, FaultPlan, FaultSpec, FaultWindow, RetryOutcome, RetryPolicy,
        SupervisedExecution, Supervisor,
    };
    pub use cbls_service::{
        AdmissionError, JobEvent, ProgressFrame, ServiceConfig, SolveRequest, SolveService,
        WIRE_SCHEMA,
    };
}
