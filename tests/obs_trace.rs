//! End-to-end contracts of the observability layer: the flight recorder is
//! passive (bit-identical runs), per-walk event sequences agree across both
//! executor back-ends, the trace schema round-trips through JSON, the
//! Chrome exporter emits structurally valid documents, and a fixed-seed
//! golden summary pins the recorder's deterministic outputs.

use parallel_cbls::obs::{
    chrome_trace_json, validate_chrome_trace, TraceEventKind, TraceRecording,
};
use parallel_cbls::prelude::*;

fn recorder_for(bench: &Benchmark, backend: &str, seed: u64, walks: usize) -> FlightRecorder {
    FlightRecorder::new(
        TraceMeta {
            benchmark: bench.id(),
            backend: backend.to_string(),
            master_seed: seed,
            walks,
        },
        // Capacity large enough that nothing is ever downsampled: the
        // cross-backend comparisons below need the full event streams.
        RecorderConfig {
            capacity: 1 << 16,
            ..RecorderConfig::default()
        },
    )
}

#[test]
fn recorder_is_passive_the_run_is_bit_identical() {
    let bench = Benchmark::CostasArray(8);
    let factory = || bench.build();
    let batch = WalkBatch::uniform(7, &bench.tuned_config(), 3).run_to_completion();

    let plain = SequentialExecutor.execute(&factory, &batch);
    let recorder = recorder_for(&bench, "sequential", 7, 3);
    let observed = SequentialExecutor.execute_with_telemetry(&factory, &batch, &recorder);
    let recording = recorder.finish(&observed);

    // Everything deterministic must match, the winner included.
    assert_eq!(plain.winner, observed.winner);
    for (a, b) in plain.records.iter().zip(observed.records.iter()) {
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.outcome.stats, b.outcome.stats);
        assert_eq!(a.outcome.best_cost, b.outcome.best_cost);
        assert_eq!(a.outcome.solution, b.outcome.solution);
    }
    recording.validate().expect("recording validates");
    assert_eq!(recording.summary.winner, observed.winner);
}

/// The per-walk event *sequence* (kinds + payloads, timestamps ignored) is a
/// function of (benchmark, seed, walk) alone — the back-end only changes the
/// interleaving, never what each walk reports.
#[test]
fn per_walk_event_sequences_agree_across_backends() {
    let bench = Benchmark::NQueens(14);
    let factory = || bench.build();
    let walks = 3;
    let batch = WalkBatch::uniform(11, &bench.tuned_config(), walks).run_to_completion();

    let sequences = |backend: &str| -> Vec<Vec<TraceEventKind>> {
        let recorder = recorder_for(&bench, backend, 11, walks);
        let execution = match backend {
            "sequential" => SequentialExecutor.execute_with_telemetry(&factory, &batch, &recorder),
            "threads" => ThreadsExecutor.execute_with_telemetry(&factory, &batch, &recorder),
            other => unreachable!("unknown backend {other}"),
        };
        let recording = recorder.finish(&execution);
        recording.validate().expect("recording validates");
        assert_eq!(
            recording.dropped_samples, 0,
            "capacity must be large enough for a lossless stream"
        );
        (0..walks)
            .map(|walk| {
                recording
                    .events_of(walk)
                    .iter()
                    .map(|e| e.kind)
                    .collect::<Vec<_>>()
            })
            .collect()
    };

    let sequential = sequences("sequential");
    let threads = sequences("threads");
    for walk in 0..walks {
        assert_eq!(
            sequential[walk], threads[walk],
            "walk {walk}: threads diverged from sequential"
        );
        // Sanity: a lifecycle pair brackets each walk's sequence.
        assert!(matches!(
            sequential[walk].first(),
            Some(TraceEventKind::Started { .. })
        ));
        assert!(matches!(
            sequential[walk].last(),
            Some(TraceEventKind::Finished { .. })
        ));
    }
}

#[test]
fn recording_round_trips_through_json_and_jsonl() {
    let bench = Benchmark::Langford(8);
    let factory = || bench.build();
    let batch = WalkBatch::uniform(5, &bench.tuned_config(), 2).run_to_completion();
    let recorder = recorder_for(&bench, "sequential", 5, 2);
    let execution = SequentialExecutor.execute_with_telemetry(&factory, &batch, &recorder);
    let recording = recorder.finish(&execution);

    let json = serde_json::to_string_pretty(&recording).unwrap();
    let back: TraceRecording = serde_json::from_str(&json).unwrap();
    assert_eq!(recording, back);
    back.validate().expect("deserialized recording validates");

    let jsonl = recording.to_jsonl();
    assert_eq!(
        jsonl.lines().count(),
        recording.lifecycle.len() + recording.samples.len()
    );
}

#[test]
fn chrome_export_has_walk_tracks_and_phase_slices() {
    let bench = Benchmark::CostasArray(9);
    let factory = || bench.build();
    let walks = 2;
    let batch = WalkBatch::uniform(3, &bench.tuned_config(), walks).run_to_completion();
    let recorder = FlightRecorder::new(
        TraceMeta {
            benchmark: bench.id(),
            backend: "sequential".to_string(),
            master_seed: 3,
            walks,
        },
        RecorderConfig {
            phases: true,
            ..RecorderConfig::default()
        },
    );
    let execution = SequentialExecutor.execute_with_telemetry(&factory, &batch, &recorder);
    let recording = recorder.finish(&execution);
    assert_eq!(recording.phase_profiles.len(), walks);
    for profile in &recording.phase_profiles {
        assert!(
            profile.phases.iter().map(|p| p.nanos).sum::<u64>() > 0,
            "walk {} has no attributed phase time",
            profile.walk_id
        );
    }

    let json = chrome_trace_json(&recording);
    let stats = validate_chrome_trace(&json).expect("chrome trace validates");
    assert_eq!(stats.walk_tracks, walks);
    assert_eq!(stats.lifetime_slices, walks);
    assert!(stats.phase_slices >= 1, "no phase slices were sampled");
    assert!(stats.cost_samples >= 1, "no cost trajectory was exported");
}

/// One worker goes round the walks of a first-finisher batch, so their
/// lifecycles interleave on one thread: every walk starts before the first
/// one finishes.  The recording still validates, with one lifecycle per walk
/// in its summary, and so does its Chrome export.
#[test]
fn interleaved_lifecycles_on_one_thread_validate() {
    let bench = Benchmark::CostasArray(10);
    let walks = 4;
    // Master seed 13: walk 3 wins in the third round of 32-iteration slices.
    let batch = WalkBatch::uniform(13, &bench.tuned_config(), walks);
    let recorder = recorder_for(&bench, "sequential", 13, walks);
    let execution = SequentialExecutor.execute_with_telemetry(&|| bench.build(), &batch, &recorder);
    let recording = recorder.finish(&execution);
    recording.validate().expect("recording validates");

    let first_finish = recording
        .lifecycle
        .iter()
        .position(|e| matches!(e.kind, TraceEventKind::Finished { .. }))
        .expect("walks finish");
    assert_eq!(first_finish, walks, "every walk starts before one finishes");
    assert_eq!(recording.lifecycle.len(), 2 * walks);
    let summary = &recording.summary;
    assert_eq!(summary.walks, walks);
    let ids: Vec<usize> = summary.per_walk.iter().map(|w| w.walk_id).collect();
    assert_eq!(ids, (0..walks).collect::<Vec<_>>());
    assert_eq!(summary.winner, Some(3));

    let stats = validate_chrome_trace(&chrome_trace_json(&recording)).expect("chrome validates");
    assert_eq!(stats.walk_tracks, walks);
    assert_eq!(stats.lifetime_slices, walks);
}

/// Fixed-seed golden pin: queens-12, master seed 2012, 3 walks, sequential,
/// run-to-completion.  These numbers are a deterministic function of the
/// engine and seed derivation; a change here means search semantics changed
/// and must be deliberate (see `tests/engine_golden.rs` for the engine-level
/// equivalents).
#[test]
fn golden_summary_for_fixed_seed() {
    let bench = Benchmark::NQueens(12);
    let factory = || bench.build();
    let walks = 3;
    let batch = WalkBatch::uniform(2012, &bench.tuned_config(), walks).run_to_completion();
    let recorder = recorder_for(&bench, "sequential", 2012, walks);
    let execution = SequentialExecutor.execute_with_telemetry(&factory, &batch, &recorder);
    let recording = recorder.finish(&execution);
    recording.validate().expect("recording validates");

    let summary = &recording.summary;
    assert_eq!(summary.walks, 3);
    assert_eq!(summary.solved_walks, 3);
    // All three walks solve; walk 0 wins with the fewest iterations (13).
    assert_eq!(summary.winner, Some(0));
    assert_eq!(summary.total_iterations, 104);
    assert_eq!(summary.total_restarts, 0);
    assert_eq!(summary.total_improvements, 16);
    let per_walk: Vec<(u64, u64, i64)> = summary
        .per_walk
        .iter()
        .map(|w| (w.seed, w.iterations, w.best_cost))
        .collect();
    assert_eq!(
        per_walk,
        vec![
            (6_652_113_347_198_706_492, 13, 0),
            (9_059_029_508_912_894_509, 56, 0),
            (4_860_988_566_006_321_980, 35, 0),
        ]
    );
    // The lossless sampled stream holds exactly the improvement trajectory,
    // and the metrics snapshot agrees with the summary.
    assert_eq!(recording.samples.len(), 16);
    assert_eq!(recording.sample_stride, 1);
    let metrics = &recording.metrics;
    assert_eq!(metrics.counter("engine.iterations"), Some(104));
    assert_eq!(metrics.counter("engine.improvements"), Some(16));
    assert_eq!(metrics.counter("recorder.events"), Some(22));
    assert_eq!(metrics.counter("walks.solved"), Some(3));
    assert_eq!(metrics.gauge("cost.best"), Some(0));
}
