//! `cbls-obs` — observability for Adaptive Search runs.
//!
//! This crate is the workspace's metrics/tracing/profiling layer.  It plugs
//! into the existing telemetry seams (`SearchObserver` in `cbls-core`,
//! [`EventSink`](cbls_parallel::EventSink) in `cbls-parallel`) without
//! changing them: attaching any of its instruments leaves a run
//! **bit-identical** — same RNG streams, same trajectories, same solutions.
//!
//! Three layers:
//!
//! * [`MetricsRegistry`] / [`Counter`] / [`Gauge`] / [`Histogram`] — named
//!   instruments that are alloc-free after registration and snapshot to
//!   serde-able JSON ([`MetricsSnapshot`]).
//! * [`FlightRecorder`] — a bounded [`EventSink`](cbls_parallel::EventSink)
//!   that captures per-walk lifecycle, an adaptively downsampled cost
//!   trajectory / restart / phase-span stream, exact per-walk phase totals
//!   (when [`SearchPhase`](cbls_core::SearchPhase) profiling is enabled) and
//!   a metrics snapshot into a versioned [`TraceRecording`]
//!   ([`TRACE_SCHEMA`]).
//! * Exporters — [`TraceRecording::to_jsonl`] for line-oriented dumps,
//!   [`chrome_trace_json`] for `chrome://tracing` / Perfetto (walks as
//!   tracks, phases as slices), [`render_summary`] / [`render_diff`] for
//!   humans — all driven by the `cbls-trace` binary this crate ships.
//!
//! Phase profiling is opt-in per recorder ([`RecorderConfig::phases`]);
//! a disabled recorder costs the engine exactly one branch per potential
//! span, because the executor reads
//! [`observes_phases`](cbls_parallel::EventSink::observes_phases) once per
//! walk.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chrome;
mod metrics;
mod recorder;
mod service;
mod summary;
mod trace;

pub use chrome::{
    chrome_trace_json, validate_chrome_trace, ChromeEvent, ChromeTrace, ChromeTraceStats,
};
pub use metrics::{
    Counter, CounterSnapshot, Gauge, GaugeSnapshot, Histogram, HistogramSnapshot, MetricsRegistry,
    MetricsSnapshot,
};
pub use recorder::{FlightRecorder, RecorderConfig};
pub use service::ServiceMetrics;
pub use summary::{render_diff, render_summary};
pub use trace::{
    summarize, PhaseTotals, TraceEvent, TraceEventKind, TraceMeta, TraceRecording, TraceSummary,
    WalkPhaseProfile, WalkSummary, TRACE_SCHEMA,
};
