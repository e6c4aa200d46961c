//! The versioned trace schema: what a [`FlightRecorder`](crate::FlightRecorder)
//! run serializes to and what the `cbls-trace` CLI loads back.
//!
//! A [`TraceRecording`] is a self-describing JSON document tagged with
//! [`TRACE_SCHEMA`].  It carries two event streams — the always-kept
//! per-walk lifecycle (one `Started`, one `Finished` per walk) and the
//! adaptively downsampled `samples` stream (cost trajectory, restart
//! markers, sampled phase spans) — plus exact per-walk phase totals, a
//! metrics snapshot and a deterministic [`TraceSummary`] derived from the
//! batch's records rather than from the (sampling-dependent) streams.
//!
//! All timestamps are monotonic nanoseconds since the recorder was armed
//! (`t_nanos`), so a recording is relocatable and diffable; wall-clock
//! timing never enters the schema.

use cbls_core::SearchPhase;
use cbls_parallel::{BatchExecution, FaultKind};
use serde::{Deserialize, Serialize};

use crate::metrics::MetricsSnapshot;

/// The trace schema tag; bump the suffix on breaking changes.
pub const TRACE_SCHEMA: &str = "cbls-trace/1";

/// One recorded event, stamped with nanoseconds since the recorder started.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Monotonic nanoseconds since the recorder was armed.  For
    /// [`TraceEventKind::PhaseSpan`] this is the span's *start*.
    pub t_nanos: u64,
    /// Walk the event belongs to.
    pub walk_id: usize,
    /// What happened.
    pub kind: TraceEventKind,
}

/// The payload of a [`TraceEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceEventKind {
    /// The walk is about to perform its first iteration.
    Started {
        /// The walk's derived 64-bit seed.
        seed: u64,
    },
    /// The walk's engine began a restart (1-based index).
    Restarted {
        /// 1-based restart index.
        restart: u64,
    },
    /// The walk strictly improved its best cost (a cost-trajectory point).
    Cost {
        /// Engine iterations when the improvement was reached.
        iteration: u64,
        /// The new best cost.
        cost: i64,
    },
    /// The walk finished.
    Finished {
        /// Whether the walk reached its target cost.
        solved: bool,
        /// Total engine iterations performed.
        iterations: u64,
        /// Final best cost.
        cost: i64,
    },
    /// A sampled engine phase span of `dur_nanos`, starting at `t_nanos`.
    PhaseSpan {
        /// Which engine phase the span covers.
        phase: SearchPhase,
        /// Span length in monotonic nanoseconds.
        dur_nanos: u64,
    },
    /// The walk faulted (panicked or was declared stalled).
    Faulted {
        /// Payload-free fault classification.
        fault: FaultKind,
        /// Which attempt of the walk faulted (0 = the original).
        attempt: u32,
    },
    /// A supervisor rescheduled the walk under a fresh retry stream.
    Retried {
        /// The retry's attempt index (1-based; attempt 0 is the original).
        attempt: u32,
        /// The retry stream's derived 64-bit seed.
        seed: u64,
    },
}

/// Identity of a recording: what ran, where, and under which seed family.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceMeta {
    /// Benchmark id (a [`Benchmark::id`](cbls_problems::Benchmark::id)
    /// string) or a free-form label for non-catalog runs.
    pub benchmark: String,
    /// Executor back-end name (`threads` / `sequential`).
    pub backend: String,
    /// Master seed of the batch's walk-seed family.
    pub master_seed: u64,
    /// Number of walks in the batch.
    pub walks: usize,
}

/// Exact accumulated time of one engine phase on one walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseTotals {
    /// The phase.
    pub phase: SearchPhase,
    /// Number of spans observed (every span counts, sampled or not).
    pub spans: u64,
    /// Total monotonic nanoseconds across all spans.
    pub nanos: u64,
}

/// The per-phase totals of one walk.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WalkPhaseProfile {
    /// The walk.
    pub walk_id: usize,
    /// One entry per [`SearchPhase`], in [`SearchPhase::ALL`] order.
    pub phases: Vec<PhaseTotals>,
}

impl WalkPhaseProfile {
    /// The totals of one phase.
    #[must_use]
    pub fn of(&self, phase: SearchPhase) -> Option<&PhaseTotals> {
        self.phases.iter().find(|p| p.phase == phase)
    }
}

/// Deterministic per-walk summary line, derived from the batch's
/// [`WalkRecord`](cbls_parallel::WalkRecord) and the recorder's exact
/// per-walk event counters — never from the downsampled streams.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WalkSummary {
    /// The walk.
    pub walk_id: usize,
    /// The walk's job label (empty for flat batches).
    pub label: String,
    /// The walk's derived seed.
    pub seed: u64,
    /// Whether the walk solved.
    pub solved: bool,
    /// Engine iterations performed.
    pub iterations: u64,
    /// Engine restarts performed.
    pub restarts: u64,
    /// Strict best-cost improvements observed.
    pub improvements: u64,
    /// The walk's final best cost.
    pub best_cost: i64,
}

/// Deterministic whole-run summary (the part a golden test can pin).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceSummary {
    /// Number of walks.
    pub walks: usize,
    /// Number of walks that solved.
    pub solved_walks: usize,
    /// The batch's winner per `select_winner`, if any.
    pub winner: Option<usize>,
    /// Iterations summed over all walks.
    pub total_iterations: u64,
    /// Restarts summed over all walks.
    pub total_restarts: u64,
    /// Improvements summed over all walks.
    pub total_improvements: u64,
    /// One line per walk, ordered by walk id.
    pub per_walk: Vec<WalkSummary>,
}

/// A complete recorded run: the document `cbls-trace` saves and loads.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceRecording {
    /// Always [`TRACE_SCHEMA`].
    pub schema: String,
    /// What ran.
    pub meta: TraceMeta,
    /// Wall-clock of the whole batch, in nanoseconds.
    pub wall_nanos: u64,
    /// Per-walk lifecycle events (`Started` / `Finished`), always kept.
    pub lifecycle: Vec<TraceEvent>,
    /// Downsampled event stream (restarts, cost trajectory, phase spans),
    /// in arrival order, at most the recorder's capacity.
    pub samples: Vec<TraceEvent>,
    /// Events offered to the sampled stream but not retained (admission
    /// stride plus in-place compaction).
    pub dropped_samples: u64,
    /// Final admission stride of the sampled stream (doubles on every
    /// compaction; 1 means nothing was ever dropped by striding).
    pub sample_stride: u64,
    /// Exact per-walk phase totals (empty when phase profiling was off).
    pub phase_profiles: Vec<WalkPhaseProfile>,
    /// Snapshot of the recorder's metrics registry.
    pub metrics: MetricsSnapshot,
    /// Deterministic run summary.
    pub summary: TraceSummary,
}

impl TraceRecording {
    /// Structural validation: schema tag, walk-id ranges, lifecycle pairing
    /// and summary consistency.  Returns the first problem found.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural inconsistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema != TRACE_SCHEMA {
            return Err(format!(
                "schema mismatch: expected {TRACE_SCHEMA:?}, found {:?}",
                self.schema
            ));
        }
        let walks = self.meta.walks;
        if walks == 0 {
            return Err("meta.walks is zero".to_string());
        }
        for event in self.lifecycle.iter().chain(&self.samples) {
            if event.walk_id >= walks {
                return Err(format!(
                    "event walk_id {} out of range (walks = {walks})",
                    event.walk_id
                ));
            }
        }
        for walk in 0..walks {
            let started = self
                .lifecycle
                .iter()
                .filter(|e| e.walk_id == walk && matches!(e.kind, TraceEventKind::Started { .. }));
            let finished = self
                .lifecycle
                .iter()
                .filter(|e| e.walk_id == walk && matches!(e.kind, TraceEventKind::Finished { .. }));
            if started.count() != 1 || finished.count() != 1 {
                return Err(format!(
                    "walk {walk} lifecycle is not exactly one Started + one Finished"
                ));
            }
        }
        if self.summary.walks != walks || self.summary.per_walk.len() != walks {
            return Err("summary walk count disagrees with meta.walks".to_string());
        }
        let solved = self.summary.per_walk.iter().filter(|w| w.solved).count();
        if solved != self.summary.solved_walks {
            return Err("summary.solved_walks disagrees with per-walk lines".to_string());
        }
        if let Some(winner) = self.summary.winner {
            if winner >= walks {
                return Err(format!("summary.winner {winner} out of range"));
            }
        }
        for profile in &self.phase_profiles {
            if profile.walk_id >= walks {
                return Err(format!(
                    "phase profile walk_id {} out of range",
                    profile.walk_id
                ));
            }
        }
        Ok(())
    }

    /// Every event — lifecycle and samples — merged and sorted by timestamp
    /// (ties keep lifecycle first, then sample arrival order).
    #[must_use]
    pub fn merged_events(&self) -> Vec<TraceEvent> {
        let mut all: Vec<TraceEvent> = self
            .lifecycle
            .iter()
            .chain(&self.samples)
            .copied()
            .collect();
        all.sort_by_key(|e| e.t_nanos);
        all
    }

    /// The sampled + lifecycle events of one walk, in timestamp order.
    #[must_use]
    pub fn events_of(&self, walk_id: usize) -> Vec<TraceEvent> {
        let mut events: Vec<TraceEvent> = self
            .lifecycle
            .iter()
            .chain(&self.samples)
            .filter(|e| e.walk_id == walk_id)
            .copied()
            .collect();
        events.sort_by_key(|e| e.t_nanos);
        events
    }

    /// The JSONL event dump: one JSON object per line, every event in
    /// timestamp order.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for event in self.merged_events() {
            out.push_str(&serde_json::to_string(&event).expect("trace events serialize"));
            out.push('\n');
        }
        out
    }
}

/// Build the deterministic summary from a batch's records plus the
/// recorder's exact per-walk improvement counters (indexed by walk id).
#[must_use]
pub fn summarize(execution: &BatchExecution, improvements: &[u64]) -> TraceSummary {
    let per_walk: Vec<WalkSummary> = execution
        .records
        .iter()
        .map(|record| WalkSummary {
            walk_id: record.walk_id,
            label: record.label.clone(),
            seed: record.seed,
            solved: record.outcome.solved(),
            iterations: record.outcome.stats.iterations,
            restarts: record.outcome.stats.restarts,
            improvements: improvements.get(record.walk_id).copied().unwrap_or(0),
            best_cost: record.outcome.best_cost,
        })
        .collect();
    TraceSummary {
        walks: per_walk.len(),
        solved_walks: per_walk.iter().filter(|w| w.solved).count(),
        winner: execution.winner,
        total_iterations: per_walk.iter().map(|w| w.iterations).sum(),
        total_restarts: per_walk.iter().map(|w| w.restarts).sum(),
        total_improvements: per_walk.iter().map(|w| w.improvements).sum(),
        per_walk,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_recording() -> TraceRecording {
        TraceRecording {
            schema: TRACE_SCHEMA.to_string(),
            meta: TraceMeta {
                benchmark: "queens-8".to_string(),
                backend: "sequential".to_string(),
                master_seed: 42,
                walks: 1,
            },
            wall_nanos: 1_000,
            lifecycle: vec![
                TraceEvent {
                    t_nanos: 0,
                    walk_id: 0,
                    kind: TraceEventKind::Started { seed: 7 },
                },
                TraceEvent {
                    t_nanos: 900,
                    walk_id: 0,
                    kind: TraceEventKind::Finished {
                        solved: true,
                        iterations: 12,
                        cost: 0,
                    },
                },
            ],
            samples: vec![TraceEvent {
                t_nanos: 450,
                walk_id: 0,
                kind: TraceEventKind::Cost {
                    iteration: 6,
                    cost: 1,
                },
            }],
            dropped_samples: 0,
            sample_stride: 1,
            phase_profiles: vec![],
            metrics: MetricsSnapshot {
                counters: vec![],
                gauges: vec![],
                histograms: vec![],
            },
            summary: TraceSummary {
                walks: 1,
                solved_walks: 1,
                winner: Some(0),
                total_iterations: 12,
                total_restarts: 0,
                total_improvements: 2,
                per_walk: vec![WalkSummary {
                    walk_id: 0,
                    label: String::new(),
                    seed: 7,
                    solved: true,
                    iterations: 12,
                    restarts: 0,
                    improvements: 2,
                    best_cost: 0,
                }],
            },
        }
    }

    #[test]
    fn recording_serde_round_trip() {
        let rec = tiny_recording();
        let json = serde_json::to_string_pretty(&rec).unwrap();
        let back: TraceRecording = serde_json::from_str(&json).unwrap();
        assert_eq!(rec, back);
        assert!(back.validate().is_ok());
    }

    #[test]
    fn validate_rejects_broken_documents() {
        let mut bad_schema = tiny_recording();
        bad_schema.schema = "cbls-trace/0".to_string();
        assert!(bad_schema.validate().unwrap_err().contains("schema"));

        let mut bad_walk = tiny_recording();
        bad_walk.samples[0].walk_id = 9;
        assert!(bad_walk.validate().unwrap_err().contains("out of range"));

        let mut missing_finish = tiny_recording();
        missing_finish.lifecycle.pop();
        assert!(missing_finish.validate().unwrap_err().contains("lifecycle"));

        let mut bad_summary = tiny_recording();
        bad_summary.summary.solved_walks = 0;
        assert!(bad_summary.validate().unwrap_err().contains("solved_walks"));
    }

    #[test]
    fn merged_events_sort_by_time_and_jsonl_has_one_line_each() {
        let rec = tiny_recording();
        let merged = rec.merged_events();
        assert_eq!(merged.len(), 3);
        assert!(merged.windows(2).all(|w| w[0].t_nanos <= w[1].t_nanos));
        let jsonl = rec.to_jsonl();
        assert_eq!(jsonl.lines().count(), 3);
        for line in jsonl.lines() {
            let event: TraceEvent = serde_json::from_str(line).unwrap();
            assert!(event.t_nanos <= 900);
        }
        assert_eq!(rec.events_of(0).len(), 3);
        assert!(rec.events_of(1).is_empty());
    }
}
