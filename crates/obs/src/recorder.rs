//! The flight recorder: a bounded, alloc-free-after-construction
//! [`EventSink`] that turns a batch run into a [`TraceRecording`].
//!
//! The recorder extends the existing telemetry contract rather than
//! replacing it — it is just another sink, so attaching it leaves every run
//! bit-identical (same trajectories, same RNG streams, same solutions).  Two
//! retention tiers keep long runs bounded:
//!
//! * **lifecycle** events (`Started` / `Finished`) are always kept — two per
//!   walk, sized at construction;
//! * **sampled** events (cost trajectory, restart markers, phase spans) go
//!   through an adaptive downsampler: events are admitted every `stride`
//!   offers, and when the buffer hits capacity every second retained sample
//!   is dropped in place and the stride doubles.  Memory stays `O(capacity)`
//!   and the retained points remain spread over the whole run, however long
//!   it gets — the classic flight-recorder trade.
//!
//! Phase spans additionally feed exact per-walk × per-phase atomic totals
//! (never sampled), so profile shares in the summary are precise even though
//! the slice stream is sparse.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use cbls_core::{monotonic_now, SearchPhase};
use cbls_parallel::{BatchExecution, EventSink, FaultKind, WalkEvent};

use crate::metrics::{Counter, Gauge, Histogram, MetricsRegistry};
use crate::trace::{
    summarize, PhaseTotals, TraceEvent, TraceEventKind, TraceMeta, TraceRecording,
    WalkPhaseProfile, TRACE_SCHEMA,
};

/// Knobs of a [`FlightRecorder`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecorderConfig {
    /// Maximum retained sampled events (the ring's capacity).
    pub capacity: usize,
    /// Opt into engine phase profiling (exact totals + sampled spans).
    /// Costs clock reads on the hot path; off by default.
    pub phases: bool,
    /// Admit one of every `span_sample_every` phase spans into the sampled
    /// slice stream (exact totals count every span regardless).
    pub span_sample_every: u64,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        Self {
            capacity: 4096,
            phases: false,
            span_sample_every: 64,
        }
    }
}

/// Counters and gauges the recorder maintains; names are the public metrics
/// catalog documented in the README's Observability section.
struct StandardMetrics {
    events: Counter,
    walks_started: Counter,
    walks_finished: Counter,
    walks_solved: Counter,
    restarts: Counter,
    improvements: Counter,
    iterations: Counter,
    faults_panicked: Counter,
    faults_stalled: Counter,
    faults_retried: Counter,
    best_cost: Gauge,
    walk_iterations: Histogram,
}

impl StandardMetrics {
    fn register(registry: &mut MetricsRegistry) -> Self {
        Self {
            events: registry.counter("recorder.events"),
            walks_started: registry.counter("walks.started"),
            walks_finished: registry.counter("walks.finished"),
            walks_solved: registry.counter("walks.solved"),
            restarts: registry.counter("engine.restarts"),
            improvements: registry.counter("engine.improvements"),
            iterations: registry.counter("engine.iterations"),
            faults_panicked: registry.counter("faults.panicked"),
            faults_stalled: registry.counter("faults.stalled"),
            faults_retried: registry.counter("faults.retried"),
            best_cost: registry.gauge("cost.best"),
            walk_iterations: registry.histogram(
                "walk.iterations",
                &[1_000, 10_000, 100_000, 1_000_000, 10_000_000],
            ),
        }
    }
}

/// The mutex-guarded event streams (everything the downsampler mutates).
struct RecorderState {
    lifecycle: Vec<TraceEvent>,
    samples: Vec<TraceEvent>,
    stride: u64,
    offered: u64,
    kept: u64,
}

impl RecorderState {
    /// Offer one event to the sampled stream under the adaptive stride.
    fn offer(&mut self, capacity: usize, event: TraceEvent) {
        let index = self.offered;
        self.offered += 1;
        if index % self.stride != 0 {
            return;
        }
        if self.samples.len() == capacity {
            // Compact in place: keep every second retained sample (no
            // allocation), double the admission stride.
            let mut position = 0u64;
            self.samples.retain(|_| {
                let keep = position % 2 == 0;
                position += 1;
                keep
            });
            self.kept = self.samples.len() as u64;
            self.stride = self.stride.saturating_mul(2);
            // Re-admit the current event only if it aligns with the new
            // stride, keeping the retained set a pure stride filter.
            if index % self.stride != 0 {
                return;
            }
        }
        self.samples.push(event);
        self.kept += 1;
    }
}

/// A bounded flight recorder for one batch run; see the module docs.
///
/// The recorder is constructed for a known walk count, armed on
/// construction (timestamps are nanoseconds since then), attached to an
/// executor as its [`EventSink`], and finally consumed by
/// [`finish`](FlightRecorder::finish) into a [`TraceRecording`].
///
/// ```
/// use cbls_obs::{FlightRecorder, RecorderConfig, TraceMeta};
/// use cbls_parallel::{SequentialExecutor, WalkBatch};
/// use cbls_problems::Benchmark;
///
/// let bench = Benchmark::NQueens(12);
/// let factory = || bench.build();
/// let batch = WalkBatch::uniform(42, &bench.tuned_config(), 2).run_to_completion();
/// let recorder = FlightRecorder::new(
///     TraceMeta {
///         benchmark: bench.id(),
///         backend: "sequential".to_string(),
///         master_seed: 42,
///         walks: batch.walks(),
///     },
///     RecorderConfig {
///         phases: true,
///         ..RecorderConfig::default()
///     },
/// );
/// let execution = SequentialExecutor.execute_with_telemetry(&factory, &batch, &recorder);
/// let recording = recorder.finish(&execution);
/// assert!(recording.validate().is_ok());
/// assert_eq!(recording.summary.walks, 2);
/// ```
pub struct FlightRecorder {
    meta: TraceMeta,
    config: RecorderConfig,
    started: Instant,
    registry: MetricsRegistry,
    metrics: StandardMetrics,
    /// Exact per-walk event counters, indexed `walk_id` (improvements /
    /// restarts) — the summary's deterministic inputs.
    walk_improvements: Vec<AtomicU64>,
    walk_restarts: Vec<AtomicU64>,
    /// Exact per-walk × per-phase totals, indexed `walk_id * 3 + phase`.
    phase_nanos: Vec<AtomicU64>,
    phase_spans: Vec<AtomicU64>,
    span_seen: AtomicU64,
    state: Mutex<RecorderState>,
}

impl FlightRecorder {
    /// A recorder armed now, sized for `meta.walks` walks.
    ///
    /// # Panics
    ///
    /// Panics if `meta.walks` is zero or `config.capacity` /
    /// `config.span_sample_every` is zero.
    #[must_use]
    pub fn new(meta: TraceMeta, config: RecorderConfig) -> Self {
        assert!(meta.walks > 0, "a recorder needs at least one walk");
        assert!(config.capacity > 0, "recorder capacity must be positive");
        assert!(
            config.span_sample_every > 0,
            "span_sample_every must be positive"
        );
        let mut registry = MetricsRegistry::new();
        let metrics = StandardMetrics::register(&mut registry);
        let walks = meta.walks;
        let make = |n: usize| -> Vec<AtomicU64> { (0..n).map(|_| AtomicU64::new(0)).collect() };
        Self {
            meta,
            started: monotonic_now(),
            registry,
            metrics,
            walk_improvements: make(walks),
            walk_restarts: make(walks),
            phase_nanos: make(walks * SearchPhase::ALL.len()),
            phase_spans: make(walks * SearchPhase::ALL.len()),
            span_seen: AtomicU64::new(0),
            state: Mutex::new(RecorderState {
                lifecycle: Vec::with_capacity(2 * walks),
                samples: Vec::with_capacity(config.capacity),
                stride: 1,
                offered: 0,
                kept: 0,
            }),
            config,
        }
    }

    /// Nanoseconds since the recorder was armed.
    fn elapsed_nanos(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// The recorder's metrics registry (snapshot-able at any time).
    #[must_use]
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Consume the recorder and the batch's execution into a recording.
    ///
    /// The summary is derived from `execution`'s records plus the exact
    /// per-walk counters, so it is deterministic for a fixed seed on a
    /// deterministic back-end, independent of sampling.
    ///
    /// # Panics
    ///
    /// Panics if `execution` has a different number of records than the
    /// recorder was constructed for.
    #[must_use]
    pub fn finish(self, execution: &BatchExecution) -> TraceRecording {
        assert_eq!(
            execution.records.len(),
            self.meta.walks,
            "execution does not match the recorded batch"
        );
        let wall_nanos = u64::try_from(execution.wall_time.as_nanos()).unwrap_or(u64::MAX);
        // Relaxed everywhere below: the batch has joined, writers are done;
        // the join is the synchronization point for all recorder atomics.
        let improvements: Vec<u64> = self
            .walk_improvements
            .iter()
            // Relaxed: post-join read, see above.
            .map(|a| a.load(Ordering::Relaxed))
            .collect();
        let phase_profiles = if self.config.phases {
            (0..self.meta.walks)
                .map(|walk_id| WalkPhaseProfile {
                    walk_id,
                    phases: SearchPhase::ALL
                        .iter()
                        .map(|&phase| {
                            let slot = walk_id * SearchPhase::ALL.len() + phase.index();
                            PhaseTotals {
                                phase,
                                // Relaxed: post-join read, see above.
                                spans: self.phase_spans[slot].load(Ordering::Relaxed),
                                // Relaxed: post-join read, see above.
                                nanos: self.phase_nanos[slot].load(Ordering::Relaxed),
                            }
                        })
                        .collect(),
                })
                .collect()
        } else {
            Vec::new()
        };
        let summary = summarize(execution, &improvements);
        let state = self.state.into_inner().expect("recorder state poisoned");
        TraceRecording {
            schema: TRACE_SCHEMA.to_string(),
            meta: self.meta,
            wall_nanos,
            lifecycle: state.lifecycle,
            samples: state.samples,
            dropped_samples: state.offered.saturating_sub(state.kept),
            sample_stride: state.stride,
            phase_profiles,
            metrics: self.registry.snapshot(),
            summary,
        }
    }
}

impl EventSink for FlightRecorder {
    fn record(&self, event: &WalkEvent) {
        let t_nanos = self.elapsed_nanos();
        self.metrics.events.inc();
        match *event {
            WalkEvent::Started { walk_id, seed } => {
                self.metrics.walks_started.inc();
                let mut state = self.state.lock().expect("recorder state poisoned");
                if state.lifecycle.len() < state.lifecycle.capacity() {
                    state.lifecycle.push(TraceEvent {
                        t_nanos,
                        walk_id,
                        kind: TraceEventKind::Started { seed },
                    });
                }
            }
            WalkEvent::Restarted { walk_id, restart } => {
                self.metrics.restarts.inc();
                if let Some(slot) = self.walk_restarts.get(walk_id) {
                    // Relaxed: independent per-walk accumulator, read only
                    // after the batch joins.
                    slot.fetch_add(1, Ordering::Relaxed);
                }
                let mut state = self.state.lock().expect("recorder state poisoned");
                state.offer(
                    self.config.capacity,
                    TraceEvent {
                        t_nanos,
                        walk_id,
                        kind: TraceEventKind::Restarted { restart },
                    },
                );
            }
            WalkEvent::ImprovedCost {
                walk_id,
                iteration,
                cost,
            } => {
                self.metrics.improvements.inc();
                self.metrics.best_cost.record_min(cost);
                if let Some(slot) = self.walk_improvements.get(walk_id) {
                    // Relaxed: independent per-walk accumulator, read only
                    // after the batch joins.
                    slot.fetch_add(1, Ordering::Relaxed);
                }
                let mut state = self.state.lock().expect("recorder state poisoned");
                state.offer(
                    self.config.capacity,
                    TraceEvent {
                        t_nanos,
                        walk_id,
                        kind: TraceEventKind::Cost { iteration, cost },
                    },
                );
            }
            WalkEvent::Finished {
                walk_id,
                solved,
                iterations,
                cost,
            } => {
                self.metrics.walks_finished.inc();
                if solved {
                    self.metrics.walks_solved.inc();
                }
                self.metrics.best_cost.record_min(cost);
                self.metrics.iterations.add(iterations);
                self.metrics.walk_iterations.record(iterations);
                let mut state = self.state.lock().expect("recorder state poisoned");
                if state.lifecycle.len() < state.lifecycle.capacity() {
                    state.lifecycle.push(TraceEvent {
                        t_nanos,
                        walk_id,
                        kind: TraceEventKind::Finished {
                            solved,
                            iterations,
                            cost,
                        },
                    });
                }
            }
            WalkEvent::Faulted {
                walk_id,
                kind,
                attempt,
            } => {
                match kind {
                    FaultKind::Panicked => self.metrics.faults_panicked.inc(),
                    FaultKind::Stalled => self.metrics.faults_stalled.inc(),
                }
                let mut state = self.state.lock().expect("recorder state poisoned");
                state.offer(
                    self.config.capacity,
                    TraceEvent {
                        t_nanos,
                        walk_id,
                        kind: TraceEventKind::Faulted {
                            fault: kind,
                            attempt,
                        },
                    },
                );
            }
            WalkEvent::Retried {
                walk_id,
                attempt,
                seed,
            } => {
                self.metrics.faults_retried.inc();
                let mut state = self.state.lock().expect("recorder state poisoned");
                state.offer(
                    self.config.capacity,
                    TraceEvent {
                        t_nanos,
                        walk_id,
                        kind: TraceEventKind::Retried { attempt, seed },
                    },
                );
            }
        }
    }

    fn observes_phases(&self) -> bool {
        self.config.phases
    }

    fn observe_phase(&self, walk_id: usize, phase: SearchPhase, elapsed_nanos: u64) {
        let slot = walk_id * SearchPhase::ALL.len() + phase.index();
        if let (Some(nanos), Some(spans)) = (self.phase_nanos.get(slot), self.phase_spans.get(slot))
        {
            // Relaxed: independent per-slot accumulators on the engine hot
            // path, read only after the batch joins.
            nanos.fetch_add(elapsed_nanos, Ordering::Relaxed);
            // Relaxed: same accumulator contract as the line above.
            spans.fetch_add(1, Ordering::Relaxed);
        }
        // Relaxed: a shared admission ticket; exactness of the modulo filter
        // across threads is not required, only boundedness.
        let seen = self.span_seen.fetch_add(1, Ordering::Relaxed);
        if seen % self.config.span_sample_every == 0 {
            let now = self.elapsed_nanos();
            let mut state = self.state.lock().expect("recorder state poisoned");
            state.offer(
                self.config.capacity,
                TraceEvent {
                    t_nanos: now.saturating_sub(elapsed_nanos),
                    walk_id,
                    kind: TraceEventKind::PhaseSpan {
                        phase,
                        dur_nanos: elapsed_nanos,
                    },
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(walks: usize) -> TraceMeta {
        TraceMeta {
            benchmark: "test".to_string(),
            backend: "none".to_string(),
            master_seed: 1,
            walks,
        }
    }

    #[test]
    fn downsampler_is_bounded_and_spreads_retained_points() {
        let mut state = RecorderState {
            lifecycle: Vec::new(),
            samples: Vec::with_capacity(64),
            stride: 1,
            offered: 0,
            kept: 0,
        };
        for i in 0..100_000u64 {
            state.offer(
                64,
                TraceEvent {
                    t_nanos: i,
                    walk_id: 0,
                    kind: TraceEventKind::Restarted { restart: i },
                },
            );
        }
        assert!(state.samples.len() <= 64, "ring overflowed");
        assert!(state.stride > 1, "stride never adapted");
        assert_eq!(state.offered, 100_000);
        // Retained points are a pure stride filter: timestamps are exactly
        // the multiples of the final stride that survived compaction.
        for event in &state.samples {
            assert_eq!(event.t_nanos % state.stride, 0);
        }
        // And they span the run, not just its start.
        assert!(state.samples.last().unwrap().t_nanos > 50_000);
    }

    #[test]
    fn recorder_counts_events_and_keeps_lifecycle() {
        let recorder = FlightRecorder::new(meta(2), RecorderConfig::default());
        recorder.record(&WalkEvent::Started {
            walk_id: 0,
            seed: 5,
        });
        recorder.record(&WalkEvent::Started {
            walk_id: 1,
            seed: 6,
        });
        recorder.record(&WalkEvent::Restarted {
            walk_id: 0,
            restart: 1,
        });
        recorder.record(&WalkEvent::ImprovedCost {
            walk_id: 1,
            iteration: 3,
            cost: 4,
        });
        recorder.record(&WalkEvent::ImprovedCost {
            walk_id: 1,
            iteration: 9,
            cost: 2,
        });
        recorder.record(&WalkEvent::Finished {
            walk_id: 0,
            solved: false,
            iterations: 100,
            cost: 3,
        });
        recorder.record(&WalkEvent::Finished {
            walk_id: 1,
            solved: true,
            iterations: 50,
            cost: 0,
        });
        let snap = recorder.registry().snapshot();
        assert_eq!(snap.counter("recorder.events"), Some(7));
        assert_eq!(snap.counter("walks.started"), Some(2));
        assert_eq!(snap.counter("walks.solved"), Some(1));
        assert_eq!(snap.counter("engine.restarts"), Some(1));
        assert_eq!(snap.counter("engine.improvements"), Some(2));
        assert_eq!(snap.counter("engine.iterations"), Some(150));
        assert_eq!(snap.gauge("cost.best"), Some(0));
        let hist = snap.histogram("walk.iterations").unwrap();
        assert_eq!(hist.count, 2);
        assert_eq!(hist.sum, 150);

        let state = recorder.state.lock().unwrap();
        assert_eq!(state.lifecycle.len(), 4);
        assert_eq!(state.samples.len(), 3);
    }

    #[test]
    fn phase_totals_are_exact_even_when_spans_are_sampled() {
        let config = RecorderConfig {
            phases: true,
            span_sample_every: 10,
            ..RecorderConfig::default()
        };
        let recorder = FlightRecorder::new(meta(1), config);
        assert!(recorder.observes_phases());
        for _ in 0..25 {
            recorder.observe_phase(0, SearchPhase::CandidateScan, 100);
        }
        recorder.observe_phase(0, SearchPhase::Projection, 7);
        let slot = SearchPhase::CandidateScan.index();
        assert_eq!(
            // Relaxed: single-threaded test, writers already returned.
            recorder.phase_spans[slot].load(Ordering::Relaxed),
            25,
            "every span must be counted"
        );
        // Relaxed: single-threaded test, writers already returned.
        assert_eq!(recorder.phase_nanos[slot].load(Ordering::Relaxed), 2_500);
        let sampled = recorder.state.lock().unwrap().samples.len();
        assert!(sampled < 26, "spans must be sampled, got {sampled}");
        assert!(sampled >= 1, "some spans must be admitted");
    }

    #[test]
    fn disabled_phases_produce_no_profiles() {
        let recorder = FlightRecorder::new(meta(1), RecorderConfig::default());
        assert!(!recorder.observes_phases());
    }

    #[test]
    #[should_panic(expected = "at least one walk")]
    fn zero_walks_rejected() {
        let _ = FlightRecorder::new(meta(0), RecorderConfig::default());
    }
}
