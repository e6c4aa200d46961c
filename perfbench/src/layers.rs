//! The layer ladder behind the per-layer metrics.
//!
//! A traced run drives the workload's own instances through each layer's
//! public entry point in turn — kernel probe, engine, executor, supervisor,
//! service, runtime model — so every layer is measured on every workload,
//! on that workload's inputs.  Each rung is time-boxed.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use as_rng::{default_rng, DefaultRng, RandomSource};
use cbls_bench::throughput::{
    measure_recorder_overhead, measure_supervision_overhead, ExecutorOverheadResult,
    ThroughputConfig,
};
use cbls_core::{AdaptiveSearch, Evaluator, SearchPhase};
use cbls_parallel::{EventSink, SequentialExecutor, WalkEvent};
use cbls_perfmodel::DistributionAccumulator;
use cbls_problems::Benchmark;
use cbls_resilience::Supervisor;
use cbls_service::{ServiceConfig, SolveRequest, SolveService};

use crate::exec::{execute, Attach, Backend, Shape, Stamps};
use crate::report::{metric, Metric};
use crate::service_mix::{finish, pending};
use crate::stats::{geomean, median, percentile};
use crate::workloads::Size;

/// One instance of a workload and the walk count its requests use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instance {
    /// Catalog id.
    pub id: String,
    /// Walks per request in the workload (1 or 2).
    pub walks: usize,
}

/// Ladder sizes.
struct Plan {
    /// Seconds each time-boxed rung runs for (at least one round).
    rung_seconds: f64,
    /// Iterations of the engine rung's fixed-budget runs.
    core_budget: u64,
    /// Per-walk cap of the executor and service rungs' solve requests.
    solve_cap: u64,
}

impl Plan {
    fn of(size: Size) -> Self {
        match size {
            Size::Full => Self {
                rung_seconds: 2.5,
                core_budget: 5_000,
                solve_cap: 20_000,
            },
            Size::Smoke => Self {
                rung_seconds: 0.05,
                core_budget: 300,
                solve_cap: 2_000,
            },
        }
    }
}

/// Run every rung on `instances` and return the per-layer metrics.
#[must_use]
pub fn ladder(instances: &[Instance], seed: u64, size: Size) -> Vec<Metric> {
    let plan = Plan::of(size);
    let mut rng = default_rng(seed ^ 0x6c61_6464_6572);
    let mut metrics = kernels(instances, &mut rng);
    metrics.extend(engine(instances, &plan, &mut rng));
    metrics.extend(executor(instances, &plan, &mut rng));
    metrics.extend(service(instances, &plan, &mut rng));
    metrics
}

/// Repeat `round` until `seconds` have passed (at least once).
fn time_boxed(seconds: f64, mut round: impl FnMut()) {
    let started = Instant::now();
    loop {
        round();
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `problems`: evaluator build + `init`, and one candidate row — the
/// engine's probe of the worst variable against every other position —
/// on an evaluator warmed 10 000 iterations into the search.
fn kernels(instances: &[Instance], rng: &mut DefaultRng) -> Vec<Metric> {
    let mut build_us = Vec::new();
    let mut row_ns = Vec::new();
    for inst in instances {
        let bench = Benchmark::from_id(&inst.id).expect("catalog id");
        let builds: Vec<f64> = (0..5)
            .map(|_| {
                let perm = rng.permutation(bench.variables());
                let started = Instant::now();
                let mut e = bench.build();
                black_box(e.init(&perm));
                us(started.elapsed())
            })
            .collect();
        build_us.push(median(&builds));
        row_ns.push(row_probe_ns(&bench, rng.next_u64()));
    }
    vec![
        metric("problems.build_us", geomean(&build_us), "us"),
        metric("problems.row_ns", geomean(&row_ns), "ns"),
    ]
}

/// Nanoseconds of one candidate row, median of five timed batches.
fn row_probe_ns(bench: &Benchmark, seed: u64) -> f64 {
    let mut config = bench.tuned_config();
    config.max_iterations_per_restart = 10_000;
    config.max_restarts = 0;
    config.target_cost = -1;
    let mut eval = bench.build();
    let outcome = AdaptiveSearch::new(config).solve(&mut *eval, &mut default_rng(seed));
    let perm = outcome.solution;
    let cost = eval.init(&perm);
    let n = perm.len();
    let mut errors = vec![0i64; n];
    eval.project_errors_full(&perm, &mut errors);
    let worst = (0..n).max_by_key(|&i| errors[i]).unwrap_or(0);
    let js: Vec<usize> = (0..n).filter(|&j| j != worst).collect();
    let mut out = vec![0i64; js.len()];
    let batched = eval.incremental_profile().batched_probes;
    let mut row = |eval: &dyn Evaluator| {
        if batched {
            eval.cost_if_swaps(&perm, cost, worst, &js, &mut out);
        } else {
            for (slot, &j) in out.iter_mut().zip(&js) {
                *slot = eval.cost_if_swap(&perm, cost, worst, j);
            }
        }
        black_box(&out);
    };
    // Rows per timed batch: enough for a millisecond of work.
    let mut rows = 16u32;
    loop {
        let started = Instant::now();
        for _ in 0..rows {
            row(&*eval);
        }
        if started.elapsed() >= Duration::from_millis(1) || rows >= 1 << 20 {
            break;
        }
        rows *= 2;
    }
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..rows {
                row(&*eval);
            }
            started.elapsed().as_secs_f64() * 1e9 / f64::from(rows)
        })
        .collect();
    median(&batches)
}

/// Per-phase engine time, summed over a batch's walks.
#[derive(Default)]
struct PhaseSink {
    nanos: [AtomicU64; 3],
}

impl EventSink for PhaseSink {
    fn record(&self, _event: &WalkEvent) {}

    fn observes_phases(&self) -> bool {
        true
    }

    fn observe_phase(&self, _walk_id: usize, phase: SearchPhase, elapsed_nanos: u64) {
        // Relaxed: a statistic read after the executor call returned.
        self.nanos[phase.index()].fetch_add(elapsed_nanos, Ordering::Relaxed);
    }
}

/// `core`, `resilience.*` and `obs.recorder_overhead_frac`: the same
/// fixed-budget single-walk run plain, with phase profiling, and under the
/// full `Supervisor` (watchdog included); then the repository's own
/// recorder and supervision overhead harnesses on the same instances and
/// budget.
fn engine(instances: &[Instance], plan: &Plan, rng: &mut DefaultRng) -> Vec<Metric> {
    let shapes: Vec<Shape> = instances
        .iter()
        .map(|i| Shape::new(&i.id, 1, plan.core_budget, false, Backend::Sequential))
        .collect();
    let k = shapes.len();
    let mut rate = vec![Vec::new(); k];
    let mut phase_ns = vec![[const { Vec::new() }; 3]; k];
    let mut evals = vec![Vec::new(); k];
    let mut tail_ms = Vec::new();
    time_boxed(plan.rung_seconds, || {
        for (i, shape) in shapes.iter().enumerate() {
            let seed = rng.next_u64();
            // The first run after switching instances pays for cold
            // caches; it is not compared.
            execute(shape, seed, Attach::Nothing);
            let plain = execute(shape, seed, Attach::Nothing);
            let iterations = plain.iterations as f64;
            rate[i].push(iterations / plain.engine.as_secs_f64());
            let stats = &plain.execution.records[0].outcome.stats;
            evals[i].push(stats.swap_evaluations as f64 / iterations);
            let (batch, bench) = (shape.batch(seed), shape.bench());
            let started = Instant::now();
            let supervised = Supervisor::new(SequentialExecutor).run(&|| bench.build(), &batch);
            tail_ms.push(ms(started.elapsed().saturating_sub(plain.wall)));
            assert!(
                supervised.execution.degradation.is_none(),
                "supervised run degraded"
            );
            let sink = PhaseSink::default();
            execute(shape, seed, Attach::Events(&sink));
            for (p, slot) in sink.nanos.iter().enumerate() {
                phase_ns[i][p].push(slot.load(Ordering::Relaxed) as f64 / iterations);
            }
        }
    });
    let per_instance = |v: &[Vec<f64>]| geomean(&v.iter().map(|x| median(x)).collect::<Vec<_>>());
    // Wall time with the attachment over wall time without, less one.
    let config = ThroughputConfig {
        budget: plan.core_budget,
        repetitions: 5,
    };
    let overhead = |measure: fn(&Benchmark, &ThroughputConfig) -> ExecutorOverheadResult| {
        let ratios: Vec<f64> = shapes
            .iter()
            .map(|shape| {
                let r = measure(shape.bench(), &config);
                r.iters_per_sec_events_off / r.iters_per_sec_events_on
            })
            .collect();
        geomean(&ratios) - 1.0
    };
    let phase = |p: usize| {
        geomean(
            &phase_ns
                .iter()
                .map(|ph| median(&ph[p]).max(f64::MIN_POSITIVE))
                .collect::<Vec<_>>(),
        )
    };
    vec![
        metric("core.iters_per_s", per_instance(&rate), "1/s"),
        metric(
            "core.scan_ns_per_iter",
            phase(SearchPhase::CandidateScan.index()),
            "ns",
        ),
        metric(
            "core.swap_ns_per_iter",
            phase(SearchPhase::SwapExecution.index()),
            "ns",
        ),
        metric(
            "core.projection_ns_per_iter",
            phase(SearchPhase::Projection.index()),
            "ns",
        ),
        metric("core.evals_per_iter", per_instance(&evals), "count"),
        metric(
            "resilience.overhead_frac",
            overhead(measure_supervision_overhead),
            "frac",
        ),
        metric("resilience.tail_ms", median(&tail_ms), "ms"),
        metric(
            "obs.recorder_overhead_frac",
            overhead(measure_recorder_overhead),
            "frac",
        ),
    ]
}

/// `parallel` and `perfmodel`: each seed solved at p=1 (sequential) and at
/// p=2 (threads, first-finisher stop) under a per-walk iteration cap; the
/// p=2 call is split by its walks' lifecycle stamps, and the p=1 iteration
/// counts feed the order-statistics prediction of the p=2 speedup.
fn executor(instances: &[Instance], plan: &Plan, rng: &mut DefaultRng) -> Vec<Metric> {
    let stamps = Stamps::new(Instant::now());
    let pairs: Vec<(Shape, Shape)> = instances
        .iter()
        .map(|i| {
            (
                Shape::new(&i.id, 1, plan.solve_cap, true, Backend::Sequential),
                Shape::new(&i.id, 2, plan.solve_cap, true, Backend::Threads),
            )
        })
        .collect();
    let k = pairs.len();
    let (mut spawn, mut stop, mut join) = (Vec::new(), Vec::new(), Vec::new());
    let mut walls = vec![(0.0, 0.0); k];
    let mut samples = vec![DistributionAccumulator::new(); k];
    time_boxed(plan.rung_seconds, || {
        for (i, (p1, p2)) in pairs.iter().enumerate() {
            let seed = rng.next_u64();
            let one = execute(p1, seed, Attach::Nothing);
            samples[i].record_count(one.iterations);
            stamps.reset();
            let two = execute(p2, seed, Attach::Events(&stamps));
            walls[i].0 += one.wall.as_secs_f64();
            walls[i].1 += two.wall.as_secs_f64();
            let walks = stamps.take(2);
            let (Some(s0), Some(s1), Some(f0), Some(f1)) =
                (walks[0].0, walks[1].0, walks[0].1, walks[1].1)
            else {
                continue;
            };
            spawn.push(us(s0.min(s1).saturating_duration_since(two.call.0)));
            join.push(us(two.call.1.saturating_duration_since(f0.max(f1))));
            if let Some(w) = two.execution.winner {
                let (won, other) = if w == 0 { (f0, f1) } else { (f1, f0) };
                stop.push(us(other.saturating_duration_since(won)));
            }
        }
    });
    let observed: Vec<f64> = walls.iter().map(|(one, two)| one / two).collect();
    let predicted: Vec<f64> = samples
        .iter()
        .map(|acc| {
            let dist = acc.distribution().expect("at least one round");
            dist.mean() / dist.expected_min_of(2).max(1.0)
        })
        .collect();
    let pooled: Vec<u64> = samples
        .iter()
        .flat_map(|acc| acc.observations().iter().map(|&x| x as u64))
        .collect();
    vec![
        metric("parallel.spawn_us.p50", percentile(&spawn, 0.5), "us"),
        metric("parallel.spawn_us.p90", percentile(&spawn, 0.9), "us"),
        metric("parallel.stop_us.p50", percentile(&stop, 0.5), "us"),
        metric("parallel.stop_us.p90", percentile(&stop, 0.9), "us"),
        metric("parallel.join_us.p50", percentile(&join, 0.5), "us"),
        metric("parallel.join_us.p90", percentile(&join, 0.9), "us"),
        metric("parallel.speedup_p2", geomean(&observed), "ratio"),
        metric("perfmodel.pred_speedup_p2", geomean(&predicted), "ratio"),
        metric(
            "perfmodel.pred_err_p2",
            geomean(&observed) / geomean(&predicted) - 1.0,
            "frac",
        ),
        metric("perfmodel.quote_us.n100", quote_us(&pooled, 100, rng), "us"),
        metric(
            "perfmodel.quote_us.n1000",
            quote_us(&pooled, 1_000, rng),
            "us",
        ),
    ]
}

/// Microseconds of one `quote` on an accumulator of `n` observations
/// resampled from `pool` — what every service admission pays.
fn quote_us(pool: &[u64], n: usize, rng: &mut DefaultRng) -> f64 {
    let mut acc = DistributionAccumulator::new();
    for _ in 0..n {
        acc.record_count(pool[rng.index(pool.len())]);
    }
    let times: Vec<f64> = (0..21)
        .map(|_| {
            let started = Instant::now();
            black_box(acc.quote(2));
            us(started.elapsed())
        })
        .collect();
    median(&times)
}

/// `service`: a one-worker service with the default supervision, one job
/// outstanding at a time; each job's frames are stamped as they arrive.
fn service(instances: &[Instance], plan: &Plan, rng: &mut DefaultRng) -> Vec<Metric> {
    let service = SolveService::new(
        ServiceConfig::default()
            .with_workers(1)
            .with_queue_capacity(16),
    );
    let mut admit = Vec::new();
    let (mut queue, mut run, mut tail, mut job_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut frames = Vec::new();
    let (mut hit, mut miss) = (Vec::new(), Vec::new());
    let mut unique = 0;
    time_boxed(plan.rung_seconds, || {
        for inst in instances {
            let request = SolveRequest::new(inst.id.as_str(), inst.walks, plan.solve_cap)
                .with_master_seed(rng.next_u64());
            let submitted = Instant::now();
            let handle = service
                .submit(request.clone())
                .expect("one job outstanding");
            let mut job = pending(request.clone(), submitted, submitted);
            job.traced = true;
            let job = finish(handle, job);
            assert!(job.completion.is_some(), "{} completed", inst.id);
            let f = job.frames.expect("a traced job reads its frames");
            admit.push(us(job.admitted - job.submitted));
            queue.push(ms(f.started.saturating_duration_since(job.admitted)));
            run.push(ms(f.last_walk.saturating_duration_since(f.started)));
            tail.push(ms(f.completed.saturating_duration_since(f.last_walk)));
            job_ms.push(ms(job.done - job.submitted));
            frames.push(f64::from(f.count));
            let started = Instant::now();
            black_box(service.batch_for(&request));
            hit.push(us(started.elapsed()));
            unique += 1;
            let fresh = SolveRequest::new(inst.id.as_str(), inst.walks, plan.solve_cap + unique);
            let started = Instant::now();
            black_box(service.batch_for(&fresh));
            miss.push(us(started.elapsed()));
        }
    });
    service.shutdown();
    vec![
        metric("service.admit_us", median(&admit), "us"),
        metric("service.queue_ms", median(&queue), "ms"),
        metric("service.run_ms", median(&run), "ms"),
        metric("service.tail_ms", median(&tail), "ms"),
        metric("service.job_ms", median(&job_ms), "ms"),
        metric("service.frames_per_job", median(&frames), "count"),
        metric("service.batch_for_us.hit", median(&hit), "us"),
        metric("service.batch_for_us.miss", median(&miss), "us"),
    ]
}
