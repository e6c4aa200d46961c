//! `service-mix`: a one-worker `SolveService` under an open-loop phase
//! (seeded Poisson arrivals, each job timed from its due time) and a
//! closed-loop phase (a fixed number of jobs outstanding).

use std::collections::VecDeque;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use as_rng::{default_rng, DefaultRng, RandomSource};
use cbls_parallel::{SequentialExecutor, WalkExecutor};
use cbls_problems::Benchmark;
use cbls_service::{CompletedJob, JobEvent, JobHandle, ServiceConfig, SolveRequest, SolveService};

use crate::audit::{audit, WinnerKey};
use crate::calib::Calibration;
use crate::spans::SpanLog;
use crate::stats::quantile;
use crate::workloads::{nominal_iterations, Size, Tally, Work, SOLVE_BUDGET};

/// Light jobs and their walk counts (five in six jobs).
pub const LIGHT: [(&str, usize); 5] = [
    ("queens-32", 2),
    ("qcp-10", 2),
    ("golomb-7", 2),
    ("all-interval-12", 2),
    ("perfect-square-order9", 1),
];

/// The heavy job (one in six).
pub const HEAVY: (&str, usize) = ("costas-12", 2);

/// Open-loop arrival rate, jobs per second.
pub const ARRIVAL_RATE: f64 = 15.0;

/// Jobs kept outstanding in the closed-loop phase.
pub const OUTSTANDING: usize = 4;

/// Share of the run given to the open loop: at 15 jobs/s over a 20 s run
/// it collects about 210 latencies, enough for ten beyond the 95th
/// percentile.
const OPEN_SHARE: f64 = 0.7;

/// Request generator: the job mix in blocks of six — the heavy job and
/// each light job once, in a seeded order, so every run has the same
/// proportions — with one light request in three carrying a budget no
/// other request has (a prototype-cache miss).
struct Mix {
    rng: DefaultRng,
    heavy: &'static str,
    unique: u64,
    block: Vec<usize>,
}

impl Mix {
    fn next(&mut self) -> SolveRequest {
        if self.block.is_empty() {
            // Indices into LIGHT; LIGHT.len() is the heavy job.
            self.block = (0..=LIGHT.len()).collect();
            self.rng.shuffle(&mut self.block);
        }
        let k = self.block.pop().unwrap_or(LIGHT.len());
        let seed = self.rng.next_u64();
        let (id, walks, budget) = if k == LIGHT.len() {
            (self.heavy, HEAVY.1, SOLVE_BUDGET)
        } else {
            let (id, walks) = LIGHT[k];
            let budget = if self.rng.below(3) == 0 {
                self.unique += 1;
                SOLVE_BUDGET + self.unique
            } else {
                SOLVE_BUDGET
            };
            (id, walks, budget)
        };
        SolveRequest::new(id, walks, budget).with_master_seed(seed)
    }
}

/// Client-side receive times of a traced job's frames.
#[derive(Debug, Clone, Copy)]
pub struct Frames {
    /// The `Started` frame.
    pub started: Instant,
    /// The last `Walk` frame (`started` if there was none).
    pub last_walk: Instant,
    /// The `Completed` frame.
    pub completed: Instant,
    /// Frames in the stream.
    pub count: u32,
}

/// What a completed job returned, kept for the checks after the run.
pub struct Done {
    /// The winning walk, `None` when no walk solved.
    pub winner: Option<WinnerKey>,
    /// `(iterations, engine seconds)` of every walk.
    walks: Vec<(u64, f64)>,
}

/// One job as the client saw it.
pub struct Job {
    request: SolveRequest,
    /// When the job was due (open loop) or submitted (closed loop).
    due: Instant,
    /// When `submit` was called.
    pub submitted: Instant,
    /// When `submit` returned.
    pub admitted: Instant,
    /// When `wait` returned.
    pub done: Instant,
    /// Read the frame stream, stamping each frame.
    pub traced: bool,
    /// The frames' receive times, for a traced job.
    pub frames: Option<Frames>,
    /// `None` when the handle returned no completion.
    pub completion: Option<Done>,
}

/// The service, the phase-A schedule and the request generator.
pub struct ServiceMix {
    service: SolveService,
    arrivals: Vec<(Duration, SolveRequest)>,
    mix: Mix,
    closed_seconds: f64,
}

impl ServiceMix {
    /// Start the service, generate the open-loop schedule and warm every
    /// job shape up with one untimed job.
    #[must_use]
    pub fn setup(seed: u64, seconds: f64, size: Size) -> Self {
        let heavy = if size == Size::Smoke {
            "costas-8"
        } else {
            HEAVY.0
        };
        let service = SolveService::new(
            ServiceConfig::default()
                .with_workers(1)
                .with_queue_capacity(64),
        );
        let mut mix = Mix {
            rng: default_rng(seed),
            heavy,
            unique: 0,
            block: Vec::new(),
        };
        let open_seconds = seconds * OPEN_SHARE;
        let mut arrivals = Vec::new();
        let mut at = 0.0;
        // Two arrivals at least, so even a short run has latency samples.
        loop {
            at += -(1.0 - mix.rng.f64()).ln() / ARRIVAL_RATE;
            if at >= open_seconds && arrivals.len() >= 2 {
                break;
            }
            arrivals.push((Duration::from_secs_f64(at), mix.next()));
        }
        let warm = LIGHT
            .iter()
            .copied()
            .chain([(heavy, HEAVY.1)])
            .map(|(id, walks)| SolveRequest::new(id, walks, SOLVE_BUDGET));
        for request in warm {
            let handle = service.submit(request).expect("warm-up job admitted");
            let done = handle.wait().expect("warm-up job completed");
            assert!(done.result.solved, "warm-up job unsolved");
        }
        Self {
            service,
            arrivals,
            mix,
            closed_seconds: seconds - open_seconds,
        }
    }

    /// Every job shape of the mix: `(instance, walks)`.
    #[must_use]
    pub fn shapes(&self) -> Vec<(String, usize)> {
        LIGHT
            .iter()
            .copied()
            .chain([(self.mix.heavy, HEAVY.1)])
            .map(|(id, walks)| (id.to_string(), walks))
            .collect()
    }

    /// Run phase A (open loop) then phase B (closed loop), then audit every
    /// job against a direct replay outside the timed region.
    pub fn run(mut self, trace: bool, spans: &mut SpanLog, calib: &mut Calibration) -> Tally {
        let mut tally = Tally::default();
        let open = self.open_loop(&mut tally, calib);
        let (closed, work) = self.closed_loop(trace, &mut tally, calib);
        tally.closed = work;

        let mut late_ms: Vec<f64> = open.iter().map(|j| ms(j.due, j.submitted)).collect();
        late_ms.sort_by(f64::total_cmp);
        if !late_ms.is_empty() {
            tally.notes.push(format!(
                "open loop: {} jobs at {ARRIVAL_RATE}/s, generator late p50 {:.3} ms, max {:.3} ms",
                open.len(),
                quantile(&late_ms, 0.5),
                late_ms[late_ms.len() - 1],
            ));
        }
        for job in &open {
            tally.latency_ms.push(ms(job.due, job.done));
        }
        // The one FIFO worker serves jobs in submission order: a job holds
        // it from its submission or the previous job's completion,
        // whichever is later, to its own completion.
        let mut free_at: Option<Instant> = None;
        for job in open.iter().chain(&closed) {
            let begin = free_at.map_or(job.submitted, |f| f.max(job.submitted));
            free_at = Some(job.done);
            let Some(done) = &job.completion else {
                continue;
            };
            // The worker runs a job's walks one after another: all of them
            // are on the job's critical path.
            let (id, walks) = (&job.request.benchmark, job.request.walks);
            let slot = tally.shape(id, walks, 1, nominal_iterations(id, walks, 1));
            slot.engine.extend(&done.walks);
            let engine_s = done.walks.iter().map(|w| w.1).sum();
            slot.request(ms(begin, job.done) / 1e3, iterations_of(done), engine_s);
        }
        for (i, job) in open.iter().chain(&closed).enumerate() {
            if let Some(f) = job.frames {
                let request = i as u64;
                let root = spans.push("job", request, None, job.due, job.done);
                spans.push("admit", request, Some(root), job.submitted, job.admitted);
                spans.push("queue", request, Some(root), job.admitted, f.started);
                spans.push("run", request, Some(root), f.started, f.last_walk);
                spans.push("tail", request, Some(root), f.last_walk, f.completed);
            }
        }
        for job in &closed {
            if let Some(f) = job.frames {
                tally.paths.push([
                    ms(job.due, f.started),
                    ms(f.started, f.last_walk),
                    ms(f.last_walk, job.done),
                ]);
            }
        }

        let jobs: Vec<Job> = open.into_iter().chain(closed).collect();
        self.check(&jobs, &mut tally);
        self.service.shutdown();
        tally
    }

    /// Poisson arrivals, submitted on time by this thread; a second thread
    /// collects completions in submission order (one FIFO worker finishes
    /// jobs in that order).  No job is traced: a client reading the
    /// progress stream slows its job down, and these jobs give the latency
    /// percentiles.
    fn open_loop(&mut self, tally: &mut Tally, calib: &mut Calibration) -> Vec<Job> {
        let arrivals = std::mem::take(&mut self.arrivals);
        let service = &self.service;
        let origin = Instant::now();
        let (jobs, refused) = thread::scope(|scope| {
            let (tx, rx) = mpsc::channel::<(JobHandle, Job)>();
            let collector = scope.spawn(move || {
                let mut done = Vec::new();
                for (handle, job) in rx {
                    done.push(finish(handle, job));
                }
                done
            });
            let mut refused = 0;
            for (offset, request) in arrivals {
                let due = origin + offset;
                if due.saturating_duration_since(Instant::now()) > Duration::from_millis(1) {
                    calib.tick();
                }
                thread::sleep(due.saturating_duration_since(Instant::now()));
                let submitted = Instant::now();
                match service.submit(request.clone()) {
                    Ok(handle) => {
                        let job = pending(request, due, submitted);
                        tx.send((handle, job)).expect("collector alive");
                    }
                    Err(_) => refused += 1,
                }
            }
            drop(tx);
            (collector.join().expect("collector thread"), refused)
        });
        tally.attempted += refused;
        tally.failed += refused;
        jobs
    }

    /// Keep `OUTSTANDING` jobs in the service for the rest of the run; the
    /// phase's work counts jobs that completed inside it.  With `trace`,
    /// every request is submitted twice and one copy of each pair (first
    /// or second, alternating) is traced: the copies do identical work, so
    /// their service times differ only by what tracing costs.
    fn closed_loop(
        &mut self,
        trace: bool,
        tally: &mut Tally,
        calib: &mut Calibration,
    ) -> (Vec<Job>, Work) {
        let mut queue: VecDeque<(JobHandle, Job)> = VecDeque::new();
        let mut jobs = Vec::new();
        let mut work = Work::default();
        let started = Instant::now();
        let deadline = started + Duration::from_secs_f64(self.closed_seconds);
        let mut last_done = started;
        let mut issued = 0u64;
        let mut copy: Option<SolveRequest> = None;
        loop {
            // Two jobs at least, so a traced pass always traces one.
            while queue.len() < OUTSTANDING
                && (issued < 2 || copy.is_some() || Instant::now() < deadline)
            {
                let traced = trace && issued % 2 == (issued / 2) % 2;
                issued += 1;
                let request = copy.take().unwrap_or_else(|| {
                    let fresh = self.mix.next();
                    copy = trace.then(|| fresh.clone());
                    fresh
                });
                let at = Instant::now();
                match self.service.submit(request.clone()) {
                    Ok(handle) => {
                        let mut job = pending(request, at, at);
                        job.traced = traced;
                        queue.push_back((handle, job));
                    }
                    Err(_) => {
                        tally.attempted += 1;
                        tally.failed += 1;
                    }
                }
            }
            let Some((handle, job)) = queue.pop_front() else {
                break;
            };
            calib.tick();
            let job = finish(handle, job);
            let one = Work {
                iterations: job.completion.as_ref().map_or(0, iterations_of),
                requests: 1,
                seconds: job.done.duration_since(last_done).as_secs_f64(),
            };
            last_done = job.done;
            if job.done <= deadline || work.requests < 2 {
                work.add(one);
            }
            if job.traced {
                tally.traced.add(one);
            } else if trace {
                tally.untraced.add(one);
            }
            jobs.push(job);
        }
        (jobs, work)
    }

    /// Count every job, verify every solution and audit every winner
    /// against a direct replay of its batch.
    fn check(&self, jobs: &[Job], tally: &mut Tally) {
        let mut pairs = Vec::with_capacity(jobs.len());
        for job in jobs {
            tally.attempted += 1;
            let winner = job.completion.as_ref().map(|c| c.winner.clone());
            match &winner {
                Some(Some(w)) => {
                    let bench = Benchmark::from_id(&job.request.benchmark).expect("catalog id");
                    if !bench.build().verify(&w.solution) {
                        tally.incorrect += 1;
                    }
                }
                _ => tally.failed += 1,
            }
            pairs.push((job.request.clone(), winner));
        }
        let totals = audit(&pairs, |request| {
            let batch = self.service.batch_for(request)?;
            let bench = Benchmark::from_id(&request.benchmark)?;
            WinnerKey::of(&SequentialExecutor.execute(&|| bench.build(), &batch))
        });
        tally.incorrect += totals.mismatched;
        tally.notes.push(format!(
            "audit: {} jobs matched their direct replay, {} mismatched, {} missing",
            totals.matched, totals.mismatched, totals.missing
        ));
        let metrics = self.service.metrics();
        let completed = metrics.counter("service.jobs_completed").unwrap_or(0);
        let warmups = LIGHT.len() as u64 + 1;
        if completed != jobs.len() as u64 + warmups {
            tally.incorrect += 1;
        }
    }
}

/// A job whose `submit` (called at `submitted`, due at `due`) just
/// returned.
pub fn pending(request: SolveRequest, due: Instant, submitted: Instant) -> Job {
    Job {
        request,
        due,
        submitted,
        admitted: Instant::now(),
        done: submitted,
        traced: false,
        frames: None,
        completion: None,
    }
}

/// Wait for a job; a traced job first reads its whole frame stream,
/// stamping each frame as it arrives.
pub fn finish(mut handle: JobHandle, mut job: Job) -> Job {
    if job.traced {
        let (mut started, mut last_walk, mut completed) = (None, None, None);
        let mut count = 0;
        while let Some(frame) = handle.next_frame() {
            let at = Some(Instant::now());
            count += 1;
            match frame.event {
                JobEvent::Started { .. } => started = at,
                JobEvent::Walk { .. } => last_walk = at,
                JobEvent::Completed { .. } => completed = at,
                JobEvent::Admitted { .. } => {}
            }
        }
        if let (Some(started), Some(completed)) = (started, completed) {
            job.frames = Some(Frames {
                started,
                last_walk: last_walk.unwrap_or(started),
                completed,
                count,
            });
        }
    }
    let completion = handle.wait();
    job.done = Instant::now();
    job.completion = completion.map(|c: CompletedJob| {
        let execution = &c.execution.execution;
        Done {
            winner: WinnerKey::of(execution),
            walks: execution
                .records
                .iter()
                .map(|r| (r.outcome.stats.iterations, r.outcome.elapsed.as_secs_f64()))
                .collect(),
        }
    });
    job
}

fn iterations_of(done: &Done) -> u64 {
    done.walks.iter().map(|w| w.0).sum()
}

fn ms(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule(seed: u64) -> Vec<(Duration, SolveRequest)> {
        ServiceMix::setup(seed, 2.0, Size::Smoke).arrivals
    }

    #[test]
    fn the_same_seed_gives_the_same_schedule_and_another_seed_does_not() {
        let (a, b, c) = (schedule(11), schedule(11), schedule(12));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn every_block_of_six_requests_holds_each_job_shape_once() {
        let mut mix = Mix {
            rng: default_rng(3),
            heavy: HEAVY.0,
            unique: 0,
            block: Vec::new(),
        };
        for _ in 0..20 {
            let block: Vec<SolveRequest> = (0..6).map(|_| mix.next()).collect();
            for (id, walks) in LIGHT.into_iter().chain([HEAVY]) {
                let n = block
                    .iter()
                    .filter(|r| r.benchmark == id && r.walks == walks)
                    .count();
                assert_eq!(n, 1, "{id} x{walks} in {block:?}");
            }
        }
    }
}
