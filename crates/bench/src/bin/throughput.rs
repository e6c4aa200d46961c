//! Engine iteration-throughput gates: measures iterations/sec of the
//! sequential Adaptive Search inner loop on fixed seeds, with the cost of
//! the flight recorder and of supervision, checks the floors below and
//! writes `BENCH_engine.json`.
//!
//! ```text
//! cargo run --release -p cbls-bench --bin throughput            # full mode
//! cargo run --release -p cbls-bench --bin throughput -- --quick # CI mode
//! cargo run --release -p cbls-bench --bin throughput -- --out path.json
//! ```
//!
//! Any other argument, or `--out` without a path, prints the usage and
//! exits with status 2 before anything is measured.

use cbls_bench::throughput::{
    run_report, ThroughputConfig, BATCH_SPEEDUP_FLOOR, BATCH_SPEEDUP_GUARDED,
    PRE_BATCHING_REFERENCE, RECORDER_OVERHEAD_BUDGET, REGRESSION_FLOOR,
    SUPERVISION_OVERHEAD_BUDGET,
};

const USAGE: &str = "usage: throughput [--quick] [--out <path>]";

/// `(quick, out)` from the arguments after the program name, or `None`
/// unless they are exactly an optional `--quick` and an optional
/// `--out <path>`, each at most once.
fn parse_args(args: impl IntoIterator<Item = String>) -> Option<(bool, String)> {
    let (mut quick, mut out) = (false, None);
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" if !quick => quick = true,
            "--out" if out.is_none() => out = Some(args.next().filter(|p| !p.starts_with('-'))?),
            _ => return None,
        }
    }
    Some((
        quick,
        out.unwrap_or_else(|| "BENCH_engine.json".to_string()),
    ))
}

fn main() {
    let Some((quick, out)) = parse_args(std::env::args().skip(1)) else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let (config, mode) = if quick {
        (ThroughputConfig::quick(), "quick")
    } else {
        (ThroughputConfig::full(), "full")
    };

    let report = run_report(&config, mode);
    for result in &report.results {
        println!("{:<24} {:>12.0} iters/sec", result.id, result.iters_per_sec);
    }
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

    // Fresh iterations/sec over the pre-batching engine's, per suite id.
    let ratio = |id: &str| {
        let fresh = report
            .results
            .iter()
            .find(|r| r.id == id)
            .expect("every reference suite is measured");
        let (_, reference) = PRE_BATCHING_REFERENCE
            .iter()
            .find(|(r, _)| *r == id)
            .expect("every suite has a pre-batching reference");
        (
            fresh.iters_per_sec / reference,
            fresh.iters_per_sec,
            *reference,
        )
    };

    // The batched-probe acceptance bar, enforced in quick mode too (the CI
    // throughput step runs --quick on every PR): the two suites the batching
    // work targeted must hold a reproducible speedup over the pre-batching
    // engine.  The floor is far below the recorded full-mode gains, so only a
    // real regression — not scheduler noise on a short run — trips it.
    for id in BATCH_SPEEDUP_GUARDED {
        let (ratio, fresh, reference) = ratio(id);
        assert!(
            ratio >= BATCH_SPEEDUP_FLOOR,
            "{id}: {fresh:.0} iters/sec is only {ratio:.2}x the pre-batching {reference:.0} \
             (floor {BATCH_SPEEDUP_FLOOR}x)",
        );
    }

    if !quick {
        // No suite may fall behind the engine it replaced.  This is the
        // guard that caught costas-14 regressing 33% when its probe rows
        // were first dispatched through a copy-the-table batch kernel that
        // lost to the scalar probes of the time; the margin absorbs
        // machine-to-machine noise without letting a real dispatch mistake
        // through.
        for (id, _) in PRE_BATCHING_REFERENCE {
            let (ratio, fresh, reference) = ratio(id);
            assert!(
                ratio >= REGRESSION_FLOOR,
                "{id}: {fresh:.0} iters/sec is {ratio:.2}x the pre-batching {reference:.0} \
                 (floor {REGRESSION_FLOOR}x) — regression",
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
