//! Engine iteration-throughput harness: measures iterations/sec of the
//! sequential Adaptive Search inner loop on fixed seeds and writes
//! `BENCH_engine.json`, recording the engine's performance trajectory.
//!
//! ```text
//! cargo run --release -p cbls-bench --bin throughput            # full mode
//! cargo run --release -p cbls-bench --bin throughput -- --quick # CI mode
//! cargo run --release -p cbls-bench --bin throughput -- --out path.json
//! cargo run --release -p cbls-bench --bin throughput -- --only coloring-60x3
//! ```
//!
//! `--only <suite-id>` (repeatable) restricts the run to the named suite
//! benchmarks — a tight loop for perf work on one model: it measures plain
//! throughput plus the batched-vs-scalar probe ratio for the selected ids and
//! skips the executor/recorder/supervision overhead sweeps, the acceptance
//! assertions and the report file.  Ids are the [`Benchmark::id`] strings the
//! full run prints (`costas-14`, `golomb-8`, ...); naming an id outside the
//! throughput suite is an error listing the valid ids.
//!
//! [`Benchmark::id`]: cbls_problems::Benchmark::id

use cbls_bench::throughput::{
    measure, measure_batch_speedup, pre_batching_reference, run_report, throughput_suite,
    ThroughputConfig, BATCH_SPEEDUP_FLOOR, BATCH_SPEEDUP_GUARDED, RECORDER_OVERHEAD_BUDGET,
    SUPERVISION_OVERHEAD_BUDGET,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|p| args.get(p + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_engine.json".to_string());
    let only: Vec<String> = args
        .iter()
        .enumerate()
        .filter(|(_, a)| *a == "--only")
        .filter_map(|(p, _)| args.get(p + 1).cloned())
        .collect();

    let (config, mode) = if quick {
        (ThroughputConfig::quick(), "quick")
    } else {
        (ThroughputConfig::full(), "full")
    };

    if !only.is_empty() {
        run_only(&only, &config);
        return;
    }

    let report = run_report(&config, mode);
    for result in &report.results {
        let speedup = report
            .speedup_vs_reference
            .iter()
            .find(|e| e.id == result.id)
            .map_or_else(String::new, |e| {
                format!("  ({:.2}x vs reference)", e.iters_per_sec)
            });
        println!(
            "{:<24} {:>12.0} iters/sec{}",
            result.id, result.iters_per_sec, speedup
        );
    }

    for entry in &report.batch_speedup {
        println!(
            "{:<24} {:>12.0} iters/sec batched,    {:>12.0} scalar   ({:.2}x)",
            format!("batch:{}", entry.id),
            entry.iters_per_sec_batched,
            entry.iters_per_sec_scalar,
            entry.speedup,
        );
    }

    let overhead = &report.executor_overhead;
    println!(
        "{:<24} {:>12.0} iters/sec with telemetry, {:>12.0} without  ({:+.2}% overhead, {} events)",
        format!("executor:{}", overhead.id),
        overhead.iters_per_sec_events_on,
        overhead.iters_per_sec_events_off,
        100.0 * overhead.overhead_fraction,
        overhead.events,
    );

    for overhead in &report.recorder_overhead {
        println!(
            "{:<24} {:>12.0} iters/sec with recorder,  {:>12.0} without  ({:+.2}% overhead, {} events)",
            format!("recorder:{}", overhead.id),
            overhead.iters_per_sec_events_on,
            overhead.iters_per_sec_events_off,
            100.0 * overhead.overhead_fraction,
            overhead.events,
        );
    }
    for overhead in &report.supervision_overhead {
        println!(
            "{:<24} {:>12.0} iters/sec supervised,    {:>12.0} without  ({:+.2}% overhead, {} heartbeats)",
            format!("supervised:{}", overhead.id),
            overhead.iters_per_sec_events_on,
            overhead.iters_per_sec_events_off,
            100.0 * overhead.overhead_fraction,
            overhead.events,
        );
    }

    let service = &report.service_throughput;
    println!(
        "{:<24} {:>12.2} requests/sec  ({} requests, {} workers, {} solved, direct-match: {})",
        "service:burst",
        service.requests_per_sec,
        service.requests,
        service.workers,
        service.solved,
        service.winners_match_direct,
    );

    // The service acceptance bar, enforced in quick mode too: a concurrent
    // burst of at least 4 requests must all complete, and every winner must
    // be bit-identical to a direct sequential replay of the job's batch —
    // multiplexing may never change results, on any machine.
    assert!(
        service.requests >= 4 && service.completed == service.requests,
        "service burst lost jobs: {} of {} completed",
        service.completed,
        service.requests,
    );
    assert!(
        service.winners_match_direct,
        "service results diverged from direct executor runs"
    );

    // The batched-probe acceptance bar, enforced in quick mode too (the CI
    // throughput step runs --quick on every PR): the two suites the batching
    // work targeted must hold a reproducible speedup over the pre-batching
    // engine.  The floor is far below the recorded full-mode gains, so only a
    // real regression — not scheduler noise on a short run — trips it.
    let pre = pre_batching_reference();
    for id in BATCH_SPEEDUP_GUARDED {
        let fresh = report
            .results
            .iter()
            .find(|r| r.id == id)
            .expect("guarded suite is measured");
        let baseline = pre
            .iter()
            .find(|e| e.id == id)
            .expect("guarded suite has a pre-batching reference");
        let ratio = fresh.iters_per_sec / baseline.iters_per_sec;
        assert!(
            ratio >= BATCH_SPEEDUP_FLOOR,
            "{id}: {:.0} iters/sec is only {ratio:.2}x the pre-batching {:.0} \
             (floor {BATCH_SPEEDUP_FLOOR}x)",
            fresh.iters_per_sec,
            baseline.iters_per_sec,
        );
    }

    if !quick {
        // No suite may fall behind the engine it replaced: every benchmark
        // with a pre-batching reference must hold at least 70% of it.  This
        // is the guard that caught costas-14 regressing 33% when its probe
        // rows were first dispatched through a copy-the-table batch kernel
        // that lost to the scalar probes of the time; the margin absorbs
        // machine-to-machine noise without letting a real dispatch mistake
        // through.
        for baseline in &pre {
            let fresh = report
                .results
                .iter()
                .find(|r| r.id == baseline.id)
                .expect("referenced suite is measured");
            let ratio = fresh.iters_per_sec / baseline.iters_per_sec;
            assert!(
                ratio >= 0.70,
                "{}: {:.0} iters/sec is {ratio:.2}x the pre-batching {:.0} — regression",
                baseline.id,
                fresh.iters_per_sec,
                baseline.iters_per_sec,
            );
        }
        // The observability acceptance bar: attaching the flight recorder may
        // cost at most 5% of throughput on any suite benchmark.  Quick mode
        // skips the assertion — its short runs are dominated by noise.
        for overhead in &report.recorder_overhead {
            assert!(
                overhead.overhead_fraction <= RECORDER_OVERHEAD_BUDGET,
                "flight recorder costs {:.2}% on {} (budget {:.0}%)",
                100.0 * overhead.overhead_fraction,
                overhead.id,
                100.0 * RECORDER_OVERHEAD_BUDGET,
            );
        }
        // The resilience acceptance bar, same shape: fault-free supervised
        // execution may cost at most 5% of throughput on any suite benchmark.
        for overhead in &report.supervision_overhead {
            assert!(
                overhead.overhead_fraction <= SUPERVISION_OVERHEAD_BUDGET,
                "supervision costs {:.2}% on {} (budget {:.0}%)",
                100.0 * overhead.overhead_fraction,
                overhead.id,
                100.0 * SUPERVISION_OVERHEAD_BUDGET,
            );
        }
    }

    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    match std::fs::write(&out, json + "\n") {
        Ok(()) => eprintln!("wrote {out}"),
        Err(e) => {
            eprintln!("could not write {out}: {e}");
            std::process::exit(1);
        }
    }
}

/// The `--only` path: measure just the selected suite benchmarks (throughput
/// plus batched-vs-scalar ratio), print, write nothing.
fn run_only(only: &[String], config: &ThroughputConfig) {
    let suite = throughput_suite();
    for id in only {
        let Some(benchmark) = suite.iter().find(|b| &b.id() == id) else {
            let valid: Vec<String> = suite.iter().map(|b| b.id()).collect();
            eprintln!("--only {id}: not a throughput suite id; valid: {valid:?}");
            std::process::exit(2);
        };
        let result = measure(benchmark, config);
        let batch = measure_batch_speedup(benchmark, config);
        println!(
            "{:<24} {:>12.0} iters/sec  (batched {:.0}, scalar {:.0}, {:.2}x)",
            result.id,
            result.iters_per_sec,
            batch.iters_per_sec_batched,
            batch.iters_per_sec_scalar,
            batch.speedup,
        );
    }
    eprintln!("--only run: no report written");
}
