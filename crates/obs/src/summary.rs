//! Human-readable rendering of recordings: a per-run summary and a
//! side-by-side diff of two recordings (same benchmark, different
//! backend/seed/configuration), as printed by `cbls-trace summary` and
//! `cbls-trace diff`.

use cbls_core::SearchPhase;

use crate::trace::TraceRecording;

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

fn millis(nanos: u64) -> f64 {
    nanos as f64 / 1_000_000.0
}

/// Render a multi-line human-readable summary of `recording`: run header,
/// aggregate counts, per-walk table, phase-time breakdown (when profiled)
/// and the metrics snapshot.
#[must_use]
pub fn render_summary(recording: &TraceRecording) -> String {
    let mut out = String::new();
    let meta = &recording.meta;
    let summary = &recording.summary;
    out.push_str(&format!(
        "{} — {} on {} backend, master seed {}, {} walks\n",
        recording.schema, meta.benchmark, meta.backend, meta.master_seed, meta.walks
    ));
    out.push_str(&format!(
        "wall time {:.3} ms; solved {}/{} walks",
        millis(recording.wall_nanos),
        summary.solved_walks,
        summary.walks
    ));
    match summary.winner {
        Some(winner) => out.push_str(&format!("; winner: walk {winner}\n")),
        None => out.push_str("; no winner\n"),
    }
    out.push_str(&format!(
        "totals: {} iterations, {} restarts, {} improvements\n",
        summary.total_iterations, summary.total_restarts, summary.total_improvements
    ));
    out.push_str(&format!(
        "samples: {} kept, {} dropped by downsampling (final stride {})\n",
        recording.samples.len(),
        recording.dropped_samples,
        recording.sample_stride
    ));

    out.push_str("\nper-walk:\n");
    out.push_str(
        "  walk  seed                  label         solved  iterations  restarts  best\n",
    );
    for walk in &summary.per_walk {
        let label = if walk.label.is_empty() {
            "-"
        } else {
            &walk.label
        };
        out.push_str(&format!(
            "  {:>4}  {:<20}  {:<12}  {:<6}  {:>10}  {:>8}  {:>4}\n",
            walk.walk_id,
            walk.seed,
            label,
            walk.solved,
            walk.iterations,
            walk.restarts,
            walk.best_cost
        ));
    }

    if !recording.phase_profiles.is_empty() {
        let mut totals = [(0u64, 0u64); 3]; // (spans, nanos) per phase index
        for profile in &recording.phase_profiles {
            for phase in SearchPhase::ALL {
                if let Some(t) = profile.of(phase) {
                    totals[phase.index()].0 += t.spans;
                    totals[phase.index()].1 += t.nanos;
                }
            }
        }
        let grand: u64 = totals.iter().map(|&(_, n)| n).sum();
        out.push_str("\nphase profile (all walks):\n");
        for phase in SearchPhase::ALL {
            let (spans, nanos) = totals[phase.index()];
            out.push_str(&format!(
                "  {:<14}  {:>10} spans  {:>12.3} ms  {:>5.1}%\n",
                phase.name(),
                spans,
                millis(nanos),
                pct(nanos, grand)
            ));
        }
    }

    let metrics = &recording.metrics;
    if !metrics.counters.is_empty() || !metrics.gauges.is_empty() {
        out.push_str("\nmetrics:\n");
        for c in &metrics.counters {
            out.push_str(&format!("  {:<24}  {}\n", c.name, c.value));
        }
        for g in &metrics.gauges {
            if g.value == i64::MAX {
                out.push_str(&format!("  {:<24}  (unset)\n", g.name));
            } else {
                out.push_str(&format!("  {:<24}  {}\n", g.name, g.value));
            }
        }
        for h in &metrics.histograms {
            out.push_str(&format!(
                "  {:<24}  count {}  sum {}\n",
                h.name, h.count, h.sum
            ));
        }
    }
    out
}

fn diff_line(name: &str, a: impl std::fmt::Display, b: impl std::fmt::Display) -> String {
    format!("  {name:<20}  {a:>16}  {b:>16}\n")
}

/// Render a side-by-side comparison of two recordings (labelled `A` / `B`),
/// covering solve status, work totals and wall time.  Intended for comparing
/// backends or seeds on the same benchmark.
#[must_use]
pub fn render_diff(a: &TraceRecording, b: &TraceRecording) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "A: {} / {} / seed {} / {} walks\n",
        a.meta.benchmark, a.meta.backend, a.meta.master_seed, a.meta.walks
    ));
    out.push_str(&format!(
        "B: {} / {} / seed {} / {} walks\n\n",
        b.meta.benchmark, b.meta.backend, b.meta.master_seed, b.meta.walks
    ));
    out.push_str(&diff_line("", "A", "B"));
    out.push_str(&diff_line(
        "solved walks",
        format!("{}/{}", a.summary.solved_walks, a.summary.walks),
        format!("{}/{}", b.summary.solved_walks, b.summary.walks),
    ));
    out.push_str(&diff_line(
        "winner",
        a.summary
            .winner
            .map_or_else(|| "-".to_string(), |w| w.to_string()),
        b.summary
            .winner
            .map_or_else(|| "-".to_string(), |w| w.to_string()),
    ));
    out.push_str(&diff_line(
        "iterations",
        a.summary.total_iterations,
        b.summary.total_iterations,
    ));
    out.push_str(&diff_line(
        "restarts",
        a.summary.total_restarts,
        b.summary.total_restarts,
    ));
    out.push_str(&diff_line(
        "improvements",
        a.summary.total_improvements,
        b.summary.total_improvements,
    ));
    out.push_str(&diff_line(
        "wall ms",
        format!("{:.3}", millis(a.wall_nanos)),
        format!("{:.3}", millis(b.wall_nanos)),
    ));
    let (wa, wb) = (a.wall_nanos.max(1) as f64, b.wall_nanos.max(1) as f64);
    out.push_str(&format!("\nwall-time ratio A/B: {:.3}\n", wa / wb));
    if a.meta.benchmark != b.meta.benchmark {
        out.push_str("note: recordings are of different benchmarks\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{FlightRecorder, RecorderConfig};
    use crate::trace::TraceMeta;
    use cbls_parallel::{SequentialExecutor, WalkBatch};

    fn record(seed: u64, phases: bool) -> TraceRecording {
        let bench = cbls_problems::Benchmark::NQueens(10);
        let factory = || bench.build();
        let batch = WalkBatch::uniform(seed, &bench.tuned_config(), 2).run_to_completion();
        let config = if phases {
            RecorderConfig::with_phases()
        } else {
            RecorderConfig::default()
        };
        let recorder = FlightRecorder::new(
            TraceMeta {
                benchmark: bench.id(),
                backend: "sequential".to_string(),
                master_seed: seed,
                walks: 2,
            },
            config,
        );
        let execution = SequentialExecutor.execute_with_telemetry(&factory, &batch, &recorder);
        recorder.finish(&execution)
    }

    #[test]
    fn summary_mentions_run_identity_and_walks() {
        let rec = record(42, true);
        let text = render_summary(&rec);
        assert!(text.contains("queens-10"));
        assert!(text.contains("sequential"));
        assert!(text.contains("per-walk:"));
        assert!(text.contains("phase profile"));
        assert!(text.contains("candidate-scan"));
        assert!(text.contains("engine.iterations"));
    }

    #[test]
    fn summary_omits_phase_section_when_not_profiled() {
        let rec = record(42, false);
        let text = render_summary(&rec);
        assert!(!text.contains("phase profile"));
    }

    #[test]
    fn diff_reports_both_sides() {
        let a = record(42, false);
        let b = record(43, false);
        let text = render_diff(&a, &b);
        assert!(text.contains("seed 42"));
        assert!(text.contains("seed 43"));
        assert!(text.contains("wall-time ratio"));
    }
}
