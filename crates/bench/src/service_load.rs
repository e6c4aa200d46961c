//! Service-level throughput: how many concurrent solve requests the
//! `cbls-service` layer completes per second, and whether multiplexing
//! preserved the executor's bit-reproducibility contract.
//!
//! The measurement drives a [`SolveService`] the way a multi-tenant client
//! would: a burst of requests across several benchmarks is admitted before
//! any completes, the pool drains them, and every result is then audited
//! against a direct [`SequentialExecutor`] run of the same batch
//! ([`SolveService::batch_for`] is the replay path).  `winners_match_direct`
//! must hold on every machine — it is a determinism check, not a
//! performance number — while `requests_per_sec` records the multiplexing
//! throughput into `BENCH_engine.json`.

use cbls_parallel::{SequentialExecutor, WalkExecutor};
use cbls_problems::Benchmark;
use cbls_service::{CompletedJob, JobHandle, ServiceConfig, SolveRequest, SolveService};
use serde::{Deserialize, Serialize};
use std::time::Instant;

use crate::throughput::ThroughputConfig;

/// The request mix of the measurement: fast-solving instances from three
/// benchmark families, so the burst exercises prototype-cache sharing and
/// cross-benchmark quoting rather than one hot shape.
const SERVICE_MIX: [(&str, usize); 4] = [
    ("queens-16", 4),
    ("costas-10", 4),
    ("all-interval-12", 2),
    ("queens-12", 3),
];

/// Throughput and determinism of one service burst.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceThroughputResult {
    /// Worker threads the service ran.
    pub workers: usize,
    /// Requests submitted (all admitted before the first completion).
    pub requests: usize,
    /// Requests that completed (must equal `requests`).
    pub completed: usize,
    /// Completed requests that solved their instance.
    pub solved: usize,
    /// Completions per second over the burst.
    pub requests_per_sec: f64,
    /// Whether every job's winner (index, seed, iteration count) matched a
    /// direct sequential replay of its batch — the bit-reproducibility
    /// audit.
    pub winners_match_direct: bool,
    /// Wall-clock time of the whole burst, in milliseconds.
    pub wall_ms: u64,
}

/// Drive a burst of twice the request mix (8 concurrent requests over four
/// benchmark shapes) through a 4-worker service and audit every result
/// against a direct executor run.
#[must_use]
pub fn measure_service_throughput(config: &ThroughputConfig) -> ServiceThroughputResult {
    let workers = 4;
    let service = SolveService::new(
        ServiceConfig::default()
            .with_workers(workers)
            .with_queue_capacity(2 * SERVICE_MIX.len() + 1),
    );

    let requests: Vec<SolveRequest> = (0..2 * SERVICE_MIX.len())
        .map(|i| {
            let (bench, walks) = SERVICE_MIX[i % SERVICE_MIX.len()];
            SolveRequest::new(bench, walks, config.budget).with_master_seed(2012 + i as u64)
        })
        .collect();

    let started = Instant::now();
    let handles: Vec<_> = requests
        .iter()
        .map(|request| {
            service
                .submit(request.clone())
                .expect("burst fits the queue")
        })
        .collect();
    // One entry per request, `None` where the handle returned nothing: the
    // pairing is fixed by submission order, never by which jobs completed.
    let completions: Vec<Option<CompletedJob>> = handles.into_iter().map(JobHandle::wait).collect();
    let elapsed = started.elapsed();

    let winners_match_direct = audit(requests.iter().zip(&completions), |request, completed| {
        let batch = service.batch_for(request).expect("known benchmark");
        let bench = Benchmark::from_id(&request.benchmark).expect("known benchmark");
        let direct = SequentialExecutor.execute(&|| bench.build(), &batch);
        match (
            completed.execution.execution.winning_record(),
            direct.winning_record(),
        ) {
            (Some(s), Some(d)) => {
                s.walk_id == d.walk_id
                    && s.seed == d.seed
                    && s.outcome.stats.iterations == d.outcome.stats.iterations
            }
            (None, None) => completed.result.winner == direct.winner,
            _ => false,
        }
    });

    let completions: Vec<CompletedJob> = completions.into_iter().flatten().collect();
    let completed = completions.len();
    let solved = completions.iter().filter(|c| c.result.solved).count();
    service.shutdown();
    ServiceThroughputResult {
        workers,
        requests: requests.len(),
        completed,
        solved,
        requests_per_sec: completed as f64 / elapsed.as_secs_f64().max(f64::MIN_POSITIVE),
        winners_match_direct,
        wall_ms: u64::try_from(elapsed.as_millis()).unwrap_or(u64::MAX),
    }
}

/// Whether every request matched its own completion: a request whose handle
/// returned no completion (`None`) is a mismatch, never skipped.
fn audit<'a, R: 'a, C: 'a>(
    pairs: impl IntoIterator<Item = (R, &'a Option<C>)>,
    mut matches: impl FnMut(R, &C) -> bool,
) -> bool {
    pairs
        .into_iter()
        .all(|(request, completion)| completion.as_ref().is_some_and(|c| matches(request, c)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_missing_completion_fails_the_audit() {
        // The last job's handle returned nothing.  Dropping the missing
        // completion and zipping requests with the rest would audit only the
        // first two pairs and report a match.
        let requests = [0, 1, 2];
        let completions = [Some(0), Some(1), None];
        assert!(!audit(requests.into_iter().zip(&completions), |r, &c| r == c));
        // A gap in the middle must not shift later requests onto the wrong
        // completion either.
        let completions = [Some(0), None, Some(2)];
        assert!(!audit(requests.into_iter().zip(&completions), |r, &c| r == c));
        let completions = [Some(0), Some(1), Some(2)];
        assert!(audit(requests.into_iter().zip(&completions), |r, &c| r == c));
    }

    #[test]
    fn a_quick_burst_completes_everything_and_matches_direct_runs() {
        let result = measure_service_throughput(&ThroughputConfig::quick());
        assert_eq!(result.requests, 8);
        assert_eq!(result.completed, 8);
        assert!(result.requests >= 4, "the burst must be concurrent");
        assert!(result.winners_match_direct);
        assert!(result.requests_per_sec > 0.0);
        let json = serde_json::to_string(&result).unwrap();
        let back: ServiceThroughputResult = serde_json::from_str(&json).unwrap();
        assert_eq!(back, result);
    }
}
