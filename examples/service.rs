//! Solver as a service: submit a burst of concurrent solve requests to a
//! shared worker pool and stream every job's progress as JSON lines in the
//! versioned `cbls-service/1` wire format.
//!
//! ```text
//! cargo run --release --example service              # 6 requests, 4 workers
//! cargo run --release --example service 10 2        # 10 requests, 2 workers
//! ```
//!
//! Each request runs under supervised execution (panics and stalls degrade
//! to anytime incumbents), results are bit-identical to a direct executor
//! run of the same batch, and completed jobs warm the runtime quotes that
//! later admissions of the same benchmark and walk count report.

use parallel_cbls::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let requests: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(6);
    let workers: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(4);

    let service = SolveService::new(
        ServiceConfig::default()
            .with_workers(workers)
            .with_queue_capacity(requests.max(1)),
    );
    println!("solve service: {workers} workers, {requests} concurrent requests\n");

    // A mixed tenant workload: several benchmarks, several shapes, distinct
    // seeds — all admitted before the first completes.
    let catalog = [
        ("queens-16", 4, 200_000),
        ("costas-10", 4, 200_000),
        ("all-interval-12", 2, 200_000),
        ("magic-square-5", 2, 500_000),
    ];
    let mut handles = Vec::new();
    for i in 0..requests {
        let (benchmark, walks, budget) = catalog[i % catalog.len()];
        let request = SolveRequest::new(benchmark, walks, budget)
            .with_master_seed(2012 + i as u64)
            .with_deadline_ms(30_000);
        match service.submit(request) {
            Ok(handle) => handles.push(handle),
            Err(reason) => println!("request {i} rejected: {reason}"),
        }
    }

    // Stream every frame of every job, as a line-oriented client would see
    // them (one JSON object per line; improvements elided for brevity).
    for mut handle in handles {
        let job = handle.job_id();
        println!("--- job {job} ---");
        let mut improvements = 0usize;
        while let Some(frame) = handle.next_frame() {
            match &frame.event {
                JobEvent::Walk {
                    event: WalkEvent::ImprovedCost { .. },
                } => improvements += 1,
                JobEvent::Walk { .. } => {}
                _ => println!("{}", frame.to_json()),
            }
        }
        println!("({improvements} cost-improvement frames elided)");
    }

    let snapshot = service.metrics();
    println!("\nservice counters:");
    for name in [
        "service.jobs_admitted",
        "service.jobs_completed",
        "service.jobs_solved",
        "service.jobs_degraded",
        "service.jobs_rejected",
    ] {
        println!("  {name:<26} {}", snapshot.counter(name).unwrap_or(0));
    }
    service.shutdown();
}
