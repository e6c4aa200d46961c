//! The executor-driven workloads and the bookkeeping every workload shares.
//!
//! A workload is a stream of requests.  Each request is one timed call
//! into the stack; the untraced pass times only that call, the traced pass
//! also timestamps the walks inside it.

use std::collections::BTreeMap;
use std::time::Instant;

use as_rng::{default_rng, DefaultRng, RandomSource};
use cbls_bench::throughput::throughput_suite;
use cbls_parallel::BatchExecution;

use crate::calib::Calibration;
use crate::exec::{execute, Attach, Backend, Executed, Shape, Stamps, Verdict};
use crate::spans::SpanLog;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "cap-multiwalk",
    "suite-steady",
    "tiny-batches",
    "service-mix",
];

/// Per-walk iteration budget of solve requests: far above the longest
/// solve any instance of the benchmark needs, so an unsolved request is a
/// failure rather than bad luck.
pub const SOLVE_BUDGET: u64 = 10_000_000;

/// Iterations of the untimed fixed-budget warm-up run per instance.
const WARMUP_ITERATIONS: u64 = 10_000;

/// Benchmark size: the real one, or a seconds-long smoke version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` describes.
    Full,
    /// Small instances and budgets, for the test suite.
    Smoke,
}

/// Engine work done by a set of requests.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Work {
    /// Engine iterations over every walk.
    pub iterations: u64,
    /// Requests completed.
    pub requests: u64,
    /// Seconds the requests took (sum of timed calls, or a closed loop's
    /// wall time).
    pub seconds: f64,
}

impl Work {
    /// One executor request's work over its call's wall time.
    #[must_use]
    pub fn of(run: &Executed) -> Self {
        Self {
            iterations: run.iterations,
            requests: 1,
            seconds: run.wall.as_secs_f64(),
        }
    }

    /// Add another request's (or phase's) work.
    pub fn add(&mut self, other: Work) {
        self.iterations += other.iterations;
        self.requests += other.requests;
        self.seconds += other.seconds;
    }

    /// Iterations per second.
    #[must_use]
    pub fn rate(&self) -> f64 {
        self.iterations as f64 / self.seconds
    }
}

/// The work of one request shape (instance and walk count).
#[derive(Debug, Default)]
pub struct ShapeWork {
    /// Walks of one request that run at once (threads back-end) or 1.
    pub threads: usize,
    /// Iterations on the critical path of a typical request of the shape
    /// (see [`nominal_iterations`]).
    pub nominal: f64,
    /// `(iterations, engine seconds)` per request or walk, in order.
    pub engine: Vec<(u64, f64)>,
    /// Per completed request, in order: `(iterations, engine seconds)` on
    /// its critical path.
    pub critical: Vec<(u64, f64)>,
    /// Per completed request, in order: its wall seconds outside the
    /// search on its critical path.
    pub outside_s: Vec<f64>,
}

impl ShapeWork {
    /// Add one completed request: its wall time, and the iterations and
    /// engine time on its critical path.
    pub fn request(&mut self, wall_s: f64, iterations: u64, engine_s: f64) {
        self.critical.push((iterations, engine_s));
        self.outside_s.push((wall_s - engine_s).max(0.0));
    }

    /// Engine iterations per second on the critical path and seconds
    /// outside the search per request, each the median over
    /// [`RATE_CHUNKS`] consecutive chunks of the shape's requests; `None`
    /// before the first iteration.
    #[must_use]
    pub fn request_costs(&self) -> Option<(f64, f64)> {
        let rate = chunked_rate(&self.critical, RATE_CHUNKS);
        (rate > 0.0).then(|| (rate, chunked_mean(&self.outside_s, RATE_CHUNKS)))
    }
}

/// Everything a workload's measured pass produced.
#[derive(Debug, Default)]
pub struct Tally {
    /// Requests issued.
    pub attempted: u64,
    /// Requests that failed: unsolved within budget, or refused.
    pub failed: u64,
    /// Requests with a wrong answer (verification, exact budget, replay).
    pub incorrect: u64,
    /// Latencies of the requests the latency metrics describe, in ms.
    pub latency_ms: Vec<f64>,
    /// Work of the closed-loop requests (the throughput metrics).
    pub closed: Work,
    /// Work per request shape, keyed `"<instance> x<walks>"`.
    pub shapes: BTreeMap<String, ShapeWork>,
    /// Work of a traced pass's traced requests (the trace overhead's
    /// numerator).
    pub traced: Work,
    /// Work of a traced pass's untraced requests.
    pub untraced: Work,
    /// Traced requests' blocking path: `[start, run, tail]` in ms.
    pub paths: Vec<[f64; 3]>,
    /// Lines printed with the result (not metrics).
    pub notes: Vec<String>,
}

impl Tally {
    /// The work of the shape of `walks` walks on `instance`, `threads` of
    /// them at once, whose typical request does `nominal` iterations on
    /// its critical path.  Shapes are kept apart because two walks sharing
    /// the machine run each other slower than one alone.
    pub fn shape(
        &mut self,
        instance: &str,
        walks: usize,
        threads: usize,
        nominal: f64,
    ) -> &mut ShapeWork {
        self.shapes
            .entry(format!("{instance} x{walks}"))
            .or_insert_with(|| ShapeWork {
                threads,
                nominal,
                ..ShapeWork::default()
            })
    }

    /// Engine iterations per second on each request shape, with the number
    /// of walks that ran at once: the median over [`RATE_CHUNKS`]
    /// consecutive chunks of equal engine time, so a few seconds of
    /// interference from outside the process move it little.
    #[must_use]
    pub fn engine_rates(&self) -> BTreeMap<String, (usize, f64)> {
        self.shapes
            .iter()
            .map(|(id, work)| {
                (
                    id.clone(),
                    (work.threads, chunked_rate(&work.engine, RATE_CHUNKS)),
                )
            })
            .collect()
    }

    /// Count one executor request: its verdict, engine work, latency and
    /// closed-loop work.
    pub fn record(&mut self, shape: &Shape, run: &Executed) {
        self.count(run.verdict);
        let (threads, nominal) = match shape.backend {
            Backend::Threads => (shape.walks, shape.budget),
            Backend::Sequential => (1, shape.budget * shape.walks as u64),
        };
        let nominal = if shape.solve {
            nominal_iterations(&shape.id, shape.walks, threads)
        } else {
            nominal as f64
        };
        let work = Work::of(run);
        let slot = self.shape(&shape.id, shape.walks, threads, nominal);
        slot.engine.push((run.iterations, run.engine.as_secs_f64()));
        slot.request(work.seconds, run.critical.0, run.critical.1.as_secs_f64());
        self.latency_ms.push(work.seconds * 1e3);
        self.closed.add(work);
    }

    /// Count one request's verdict.
    pub fn count(&mut self, verdict: Verdict) {
        self.attempted += 1;
        match verdict {
            Verdict::Ok => {}
            Verdict::Failed => self.failed += 1,
            Verdict::Incorrect => self.incorrect += 1,
        }
    }
}

/// The request shapes of an executor-driven workload plus its seed stream.
pub struct ExecWorkload {
    name: &'static str,
    shapes: Vec<Shape>,
    rng: DefaultRng,
}

impl ExecWorkload {
    /// Build `name`'s shapes, warm every instance up and seed its request
    /// stream; `None` for the service workload or an unknown name.
    #[must_use]
    pub fn setup(name: &str, seed: u64, size: Size) -> Option<Self> {
        let smoke = size == Size::Smoke;
        let (name, shapes) = match name {
            "cap-multiwalk" => {
                let id = if smoke { "costas-8" } else { CAP_INSTANCE };
                (
                    "cap-multiwalk",
                    vec![
                        Shape::new(id, 1, SOLVE_BUDGET, true, Backend::Sequential),
                        Shape::new(id, 2, SOLVE_BUDGET, true, Backend::Threads),
                    ],
                )
            }
            "suite-steady" => {
                let budget = if smoke { 500 } else { SUITE_BUDGET };
                (
                    "suite-steady",
                    throughput_suite()
                        .iter()
                        .map(|b| Shape::new(&b.id(), 1, budget, false, Backend::Sequential))
                        .collect(),
                )
            }
            "tiny-batches" => (
                "tiny-batches",
                TINY.iter()
                    .map(|id| Shape::new(id, 2, SOLVE_BUDGET, true, Backend::Threads))
                    .collect(),
            ),
            _ => return None,
        };
        let warmup = if smoke { 200 } else { WARMUP_ITERATIONS };
        warm_up(&shapes, warmup);
        Some(Self {
            name,
            shapes,
            rng: default_rng(seed),
        })
    }

    /// The workload's request shapes.
    #[must_use]
    pub fn shapes(&self) -> &[Shape] {
        &self.shapes
    }

    /// The requests of step `step`: `(shape index, master seed)` pairs.
    fn step(&mut self, step: u64) -> Vec<(usize, u64)> {
        match self.name {
            // One seed, solved at p=1 and at p=2 with the same master seed
            // (walk 0 of the p=2 batch replays the p=1 walk); which goes
            // first alternates so neither always runs on a warm cache.
            "cap-multiwalk" => {
                let seed = self.rng.next_u64();
                if step % 2 == 0 {
                    vec![(0, seed), (1, seed)]
                } else {
                    vec![(1, seed), (0, seed)]
                }
            }
            // One sweep over the suite in a seeded order.
            "suite-steady" => {
                let mut order: Vec<usize> = (0..self.shapes.len()).collect();
                self.rng.shuffle(&mut order);
                order
                    .into_iter()
                    .map(|k| (k, self.rng.next_u64()))
                    .collect()
            }
            // The next instance of the cycle.
            _ => {
                let k = usize::try_from(step % self.shapes.len() as u64).unwrap_or(0);
                vec![(k, self.rng.next_u64())]
            }
        }
    }

    /// Issue requests for `seconds`, one at a time.  With `trace`, every
    /// request runs twice, untraced and traced in alternating order: the
    /// traced copy's walks are timestamped and its spans logged, and since
    /// tracing is passive the pair differs only by what tracing costs.
    pub fn run(
        &mut self,
        seconds: f64,
        trace: bool,
        spans: &mut SpanLog,
        calib: &mut Calibration,
    ) -> Tally {
        let mut tally = Tally::default();
        let stamps = Stamps::new(spans.origin());
        let started = Instant::now();
        let mut step = 0u64;
        while step == 0 || started.elapsed().as_secs_f64() < seconds {
            for (k, seed) in self.step(step) {
                let shape = &self.shapes[k];
                if !trace {
                    let run = execute(shape, seed, Attach::Nothing);
                    tally.record(shape, &run);
                    calib.tick();
                    continue;
                }
                let traced_first = step % 2 == 1;
                let (mut plain, mut traced) = (None, None);
                for with_trace in [traced_first, !traced_first] {
                    if with_trace {
                        stamps.reset();
                        traced = Some(execute(shape, seed, Attach::Events(&stamps)));
                    } else {
                        plain = Some(execute(shape, seed, Attach::Nothing));
                    }
                }
                let (plain, traced) = (plain.expect("ran"), traced.expect("ran"));
                calib.tick();
                tally.count(plain.verdict);
                tally.untraced.add(Work::of(&plain));
                tally.traced.add(Work::of(&traced));
                tally.record(shape, &traced);
                // A sequential batch is a deterministic trajectory: the
                // traced copy must match the untraced one record for record.
                if shape.backend == Backend::Sequential
                    && !same_trajectories(&plain.execution, &traced.execution)
                {
                    tally.incorrect += 1;
                }
                let walks = stamps.take(shape.walks);
                let request = tally.attempted;
                let root = spans.push("request", request, None, traced.call.0, traced.call.1);
                for &(s, f) in &walks {
                    if let (Some(s), Some(f)) = (s, f) {
                        spans.push("walk", request, Some(root), s, f);
                    }
                }
                if let Some(path) = request_path(traced.call, &walks) {
                    tally.paths.push(path);
                }
            }
            step += 1;
        }
        tally
    }
}

/// Whether two executions' walks followed the same trajectories.
fn same_trajectories(a: &BatchExecution, b: &BatchExecution) -> bool {
    a.records.len() == b.records.len()
        && a.records.iter().zip(&b.records).all(|(x, y)| {
            x.seed == y.seed
                && x.outcome.stats == y.outcome.stats
                && x.outcome.solution == y.outcome.solution
                && x.outcome.best_cost == y.outcome.best_cost
        })
}

/// Chunks per instance behind [`Tally::engine_rates`].
pub const RATE_CHUNKS: usize = 8;

/// Median over `chunks` consecutive, equally long (by seconds) chunks of
/// `(iterations, seconds)` samples of each chunk's iterations per second;
/// chunks without iterations (walks stopped before their first) are
/// skipped.
#[must_use]
pub fn chunked_rate(work: &[(u64, f64)], chunks: usize) -> f64 {
    let total: f64 = work.iter().map(|w| w.1).sum();
    let mut rates = Vec::with_capacity(chunks + 1);
    let (mut iterations, mut seconds) = (0u64, 0.0);
    for (k, &(i, s)) in work.iter().enumerate() {
        iterations += i;
        seconds += s;
        if (seconds >= total / chunks as f64 || k + 1 == work.len()) && iterations > 0 {
            rates.push(iterations as f64 / seconds);
            (iterations, seconds) = (0, 0.0);
        }
    }
    if rates.is_empty() {
        0.0
    } else {
        crate::stats::median(&rates)
    }
}

/// Median over `chunks` consecutive chunks of (nearly) equally many
/// `values` of each chunk's mean; 0 for no values.
#[must_use]
pub fn chunked_mean(values: &[f64], chunks: usize) -> f64 {
    let means: Vec<f64> = values
        .chunks(values.len().div_ceil(chunks).max(1))
        .map(|c| c.iter().sum::<f64>() / c.len() as f64)
        .collect();
    if means.is_empty() {
        0.0
    } else {
        crate::stats::median(&means)
    }
}

/// Split a request into `[start, run, tail]` (ms): call → first walk
/// start, first start → last walk finish, last finish → return.
fn request_path(
    call: (Instant, Instant),
    walks: &[(Option<Instant>, Option<Instant>)],
) -> Option<[f64; 3]> {
    let first = walks.iter().map(|w| w.0).collect::<Option<Vec<_>>>()?;
    let last = walks.iter().map(|w| w.1).collect::<Option<Vec<_>>>()?;
    let first = *first.iter().min()?;
    let last = *last.iter().max()?;
    let ms = |a: Instant, b: Instant| b.saturating_duration_since(a).as_secs_f64() * 1e3;
    Some([ms(call.0, first), ms(first, last), ms(last, call.1)])
}

/// One untimed fixed-budget run per distinct instance, so lazy set-up and
/// caches are warm before anything is timed.  The seed is fixed: set-up
/// does the same work whatever the workload seed.
fn warm_up(shapes: &[Shape], iterations: u64) {
    let mut seen: Vec<&str> = Vec::new();
    for shape in shapes {
        if seen.contains(&shape.id.as_str()) {
            continue;
        }
        seen.push(&shape.id);
        let warm = Shape::new(&shape.id, 1, iterations, false, Backend::Sequential);
        let run = execute(&warm, 0, Attach::Nothing);
        assert_eq!(run.verdict, Verdict::Ok, "warm-up of {}", shape.id);
    }
}

/// Mean iterations on the critical path of a solve request, per solve
/// shape `(instance, walks, walks at once)`: the winner's iterations when
/// the walks run at once, every walk's when they run one after another.
/// Measured over thousands of requests of each shape (hundreds of
/// `costas-12` solves), rounded; the smoke shapes (`costas-8`) over a few
/// hundred.  `req_per_s` prices every request at its shape's count, so
/// how many iterations one seed happens to need does not move it; the
/// counts are fixed so that every run weighs the shapes alike.
const NOMINAL_ITERATIONS: [(&str, usize, usize, f64); 16] = [
    ("costas-12", 1, 1, 18_300.0),
    ("costas-12", 2, 2, 7_200.0),
    ("costas-12", 2, 1, 17_800.0),
    ("qcp-10", 2, 2, 230.0),
    ("qcp-10", 2, 1, 370.0),
    ("perfect-square-order9", 2, 2, 260.0),
    ("perfect-square-order9", 1, 1, 510.0),
    ("golomb-6", 2, 2, 26.0),
    ("golomb-7", 2, 1, 176.0),
    ("langford-12", 2, 2, 300.0),
    ("queens-64", 2, 2, 21.0),
    ("queens-32", 2, 1, 19.0),
    ("all-interval-12", 2, 1, 635.0),
    ("costas-8", 1, 1, 140.0),
    ("costas-8", 2, 2, 12.0),
    ("costas-8", 2, 1, 10.0),
];

/// The nominal iterations of a solve shape (see [`NOMINAL_ITERATIONS`]).
///
/// # Panics
///
/// Panics on a shape the table lacks: a benchmark-definition bug.
#[must_use]
pub fn nominal_iterations(id: &str, walks: usize, threads: usize) -> f64 {
    NOMINAL_ITERATIONS
        .iter()
        .find(|n| n.0 == id && n.1 == walks && n.2 == threads)
        .unwrap_or_else(|| panic!("no nominal iterations for {id} x{walks} on {threads} threads"))
        .3
}

/// The paper's headline problem.
pub const CAP_INSTANCE: &str = "costas-12";

/// Per-request budget of `suite-steady`.
pub const SUITE_BUDGET: u64 = 20_000;

/// Instances whose p=2 solves take a fraction of a millisecond.
pub const TINY: [&str; 5] = [
    "qcp-10",
    "perfect-square-order9",
    "golomb-6",
    "langford-12",
    "queens-64",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_requests_and_another_seed_does_not() {
        for name in ["cap-multiwalk", "suite-steady", "tiny-batches"] {
            let mut a = ExecWorkload::setup(name, 11, Size::Smoke).expect("executor workload");
            let mut b = ExecWorkload::setup(name, 11, Size::Smoke).expect("executor workload");
            let mut c = ExecWorkload::setup(name, 12, Size::Smoke).expect("executor workload");
            let steps = |w: &mut ExecWorkload| (0..5).flat_map(|s| w.step(s)).collect::<Vec<_>>();
            let (sa, sb, sc) = (steps(&mut a), steps(&mut b), steps(&mut c));
            assert_eq!(sa, sb, "{name}");
            assert_ne!(sa, sc, "{name}");
        }
    }

    #[test]
    fn chunked_rate_is_the_median_chunk() {
        // four chunks of one second: 10, 20, 1000 (a burst), 30 iterations
        let work = [(10, 1.0), (20, 1.0), (1000, 1.0), (30, 1.0)];
        assert_eq!(chunked_rate(&work, 4), 20.0);
        // a single sample is its own rate
        assert_eq!(chunked_rate(&[(50, 2.0)], 8), 25.0);
        // a chunk without iterations joins the next one instead of
        // reading as a rate of zero
        assert_eq!(chunked_rate(&[(40, 1.0), (0, 1.0), (60, 1.0)], 3), 30.0);
    }

    #[test]
    fn chunked_mean_is_the_median_chunk_mean() {
        // chunk means 2, 4, 90 (a burst), 6
        let values = [1.0, 3.0, 4.0, 4.0, 80.0, 100.0, 5.0, 7.0];
        assert_eq!(chunked_mean(&values, 4), 4.0);
        // fewer values than chunks: each value is a chunk
        assert_eq!(chunked_mean(&[3.0, 1.0, 2.0], 8), 2.0);
        assert_eq!(chunked_mean(&[], 8), 0.0);
    }

    #[test]
    fn request_path_partitions_the_call() {
        let t0 = Instant::now();
        let at = |us| t0 + std::time::Duration::from_micros(us);
        let walks = [(Some(at(10)), Some(at(70))), (Some(at(20)), Some(at(90)))];
        let [start, run, tail] = request_path((at(0), at(100)), &walks).expect("stamped");
        assert!((start - 0.010).abs() < 1e-9);
        assert!((run - 0.080).abs() < 1e-9);
        assert!((tail - 0.010).abs() < 1e-9);
        assert!(request_path((at(0), at(100)), &[(Some(at(1)), None)]).is_none());
    }
}
