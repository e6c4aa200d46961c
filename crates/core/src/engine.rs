//! The Adaptive Search engine.
//!
//! Adaptive Search (Codognet & Diaz, SAGA'01 / MIC'03) is a generic,
//! domain-independent local-search metaheuristic for CSPs.  Its defining
//! feature is the *error projection*: constraint errors are projected onto
//! variables, the variable with the highest error is repaired by the best
//! available swap, and variables that cannot be improved are temporarily
//! frozen (marked tabu).  When too many variables are frozen the engine
//! performs a partial reset, and when an iteration budget is exhausted it
//! restarts from a fresh random configuration.
//!
//! The loop below follows the structure of `Ad_Solve` in the original C
//! framework the paper benchmarks; every divergence is a documented,
//! configurable knob in [`SearchConfig`].

use std::time::Duration;

use as_rng::RandomSource;

use crate::config::SearchConfig;
use crate::evaluator::Evaluator;
use crate::observer::{NoObserver, SearchObserver, SearchPhase};
use crate::outcome::{SearchOutcome, SearchStats, TerminationReason};
use crate::stop::{monotonic_now, StopControl};

/// The Adaptive Search solver.
///
/// An `AdaptiveSearch` value is just a configuration; it can be reused to
/// solve many evaluators, sequentially or from several threads (each call to
/// [`solve`](AdaptiveSearch::solve), [`run`](AdaptiveSearch::run) or
/// [`start`](AdaptiveSearch::start) only borrows it immutably).
///
/// ```
/// use as_rng::default_rng;
/// use cbls_core::{AdaptiveSearch, Evaluator, SearchConfig};
///
/// // Cost = number of positions whose value differs from its index.
/// struct Sort(usize);
/// impl Evaluator for Sort {
///     fn size(&self) -> usize { self.0 }
///     fn init(&mut self, perm: &[usize]) -> i64 { self.cost(perm) }
///     fn cost(&self, perm: &[usize]) -> i64 {
///         perm.iter().enumerate().filter(|&(i, &v)| i != v).count() as i64
///     }
///     fn cost_on_variable(&self, perm: &[usize], i: usize) -> i64 {
///         i64::from(perm[i] != i)
///     }
/// }
///
/// let engine = AdaptiveSearch::new(SearchConfig::default());
/// let outcome = engine.solve(&mut Sort(16), &mut default_rng(7));
/// assert!(outcome.solved());
/// assert_eq!(outcome.solution, (0..16).collect::<Vec<_>>());
/// ```
#[derive(Debug, Clone)]
pub struct AdaptiveSearch {
    config: SearchConfig,
}

impl Default for AdaptiveSearch {
    fn default() -> Self {
        Self::new(SearchConfig::default())
    }
}

/// What one [`AdaptiveSearch::run`] adds to a plain solve.
///
/// Every field is optional, and `Run::default()` is exactly
/// [`AdaptiveSearch::solve`]: no stop signal, the configuration's own
/// restart schedule and no observer.
///
/// ```
/// use as_rng::default_rng;
/// use cbls_core::{AdaptiveSearch, Evaluator, Run, StopControl};
///
/// // Cost = number of misplaced values; solved when sorted.
/// struct Sort(usize);
/// impl Evaluator for Sort {
///     fn size(&self) -> usize { self.0 }
///     fn init(&mut self, perm: &[usize]) -> i64 { self.cost(perm) }
///     fn cost(&self, perm: &[usize]) -> i64 {
///         perm.iter().enumerate().filter(|&(i, &v)| i != v).count() as i64
///     }
///     fn cost_on_variable(&self, perm: &[usize], i: usize) -> i64 {
///         i64::from(perm[i] != i)
///     }
/// }
///
/// let engine = AdaptiveSearch::default();
/// // A sibling walk solved at iteration 50: this run stops there.
/// let stop = StopControl::new();
/// stop.stop_at(50);
/// let outcome = engine.run(
///     &mut Sort(8),
///     &mut default_rng(7),
///     Run {
///         stop: Some(&stop),
///         budget: Some(&|restart| (restart < 3).then_some(100)),
///         ..Run::default()
///     },
/// );
/// assert!(outcome.stats.iterations <= 50);
/// ```
#[derive(Default)]
pub struct Run<'a> {
    /// Lets a sibling walk, a supervisor or a deadline interrupt the run;
    /// `None` never stops it.  Its iteration bound and kill flag are read
    /// every iteration, after the solved check, so a run that solves at the
    /// bound still reports its solve.  Its deadline is read every
    /// `stop_check_interval` iterations.
    pub stop: Option<&'a StopControl>,
    /// An external restart schedule in place of the configuration's fixed
    /// `max_iterations_per_restart` / `max_restarts` pair
    /// ([`SearchConfig::restart_budget`]).  `budget(restart)` is called once
    /// per restart (0-based) and returns that restart's iteration budget,
    /// or `None` to end the run.  The random stream is not re-seeded
    /// between restarts, so a schedule changes only how the work is sliced.
    /// This is where a walk job's budget, such as
    /// [`SearchConfig::sliced_budget`], plugs in.
    pub budget: Option<&'a dyn Fn(u64) -> Option<u64>>,
    /// Passive restart, best-cost, heartbeat and phase hooks (the
    /// multi-walk executor's telemetry plugs in here); `None` runs with
    /// [`NoObserver`].  Observation cannot perturb the trajectory.
    pub observer: Option<&'a mut dyn SearchObserver>,
}

impl AdaptiveSearch {
    /// Create an engine with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`SearchConfig::validate`].
    #[must_use]
    pub fn new(config: SearchConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid SearchConfig: {e}");
        }
        Self { config }
    }

    /// Create an engine with the default configuration refined by the
    /// problem's own [`Evaluator::tune`] hints — the equivalent of running a
    /// benchmark of the original C distribution with its shipped parameters.
    #[must_use]
    pub fn tuned_for<E: Evaluator + ?Sized>(problem: &E) -> Self {
        let mut config = SearchConfig::default();
        problem.tune(&mut config);
        Self::new(config)
    }

    /// The engine's configuration.
    #[must_use]
    pub fn config(&self) -> &SearchConfig {
        &self.config
    }

    /// Solve `eval` with a plain run: [`run`](Self::run) with
    /// [`Run::default()`].
    pub fn solve<E, R>(&self, eval: &mut E, rng: &mut R) -> SearchOutcome
    where
        E: Evaluator + ?Sized,
        R: RandomSource + ?Sized,
    {
        self.run(eval, rng, Run::default())
    }

    /// Solve `eval` under the stop signal, restart schedule and observer
    /// that `run` names (see [`Run`]): [`start`](Self::start) a [`Walk`],
    /// then advance it to its end in one slice.
    pub fn run<E, R>(&self, eval: &mut E, rng: &mut R, run: Run<'_>) -> SearchOutcome
    where
        E: Evaluator + ?Sized,
        R: RandomSource + ?Sized,
    {
        let Run {
            stop,
            budget,
            observer,
        } = run;
        let mut no_observer = NoObserver;
        let observer = match observer {
            Some(observer) => observer,
            None => &mut no_observer,
        };
        let mut walk = self.start(eval, observer, stop, budget);
        walk.advance(eval, rng, observer, u64::MAX);
        walk.finish(eval)
    }

    /// Begin a run of `eval` that [`Walk::advance`] carries out slice by
    /// slice, under the stop control and restart schedule of a [`Run`].
    /// `observer` is asked [`observes_phases`](SearchObserver::observes_phases)
    /// once, here; no iteration runs yet, and the first restart draws its
    /// configuration in the first slice.  Problems of fewer than two
    /// variables are evaluated once, here, and the walk has ended.
    pub fn start<'a, E>(
        &'a self,
        eval: &mut E,
        observer: &mut dyn SearchObserver,
        stop: Option<&'a StopControl>,
        budget: Option<&'a dyn Fn(u64) -> Option<u64>>,
    ) -> Walk<'a>
    where
        E: Evaluator + ?Sized,
    {
        let started = monotonic_now();
        let cfg = &self.config;
        let n = eval.size();
        let mut walk = Walk {
            cfg,
            stop,
            budget,
            n,
            reset_limit: cfg.effective_reset_limit(n),
            // A walk of fewer than two variables never resets; `n.max(1)`
            // only keeps the clamp's bounds in order.
            reset_count: ((cfg.reset_fraction * n as f64).ceil() as usize).clamp(1, n.max(1)),
            // Phase-profiling opt-in, read once per run: when the observer
            // declines, every instrumented site is a single predictable
            // branch — no clock reads, no observer calls — and the RNG
            // stream is untouched either way, so profiled runs stay
            // bit-identical.
            profile: observer.observes_phases(),
            ended: None,
            elapsed: Duration::ZERO,
            state: SliceState {
                best_cost: i64::MAX,
                // Scratch buffers reused across iterations to avoid
                // per-iteration allocations (the engine's inner loop is the
                // hot path of every benchmark in the paper).
                ties: Vec::with_capacity(n),
                // Cached per-variable error projection, kept in sync with the
                // current permutation: variables are re-projected only when a
                // swap (or a reset) touches them, instead of calling
                // `cost_on_variable` for every free variable on every
                // iteration.  Iterations that end by marking a variable leave
                // the permutation — and therefore the whole cache —
                // untouched.  (Exhaustive mode never projects errors.)
                err_cache: vec![0; n],
                touched: Vec::with_capacity(n),
                // Batched-probe dispatch, read once per run: evaluators with
                // a native `cost_if_swaps` kernel get whole candidate rows in
                // one call; everyone else keeps the scalar probe loop
                // (avoiding the pointless buffer traffic a batched call would
                // add on top of O(1) probes).
                scan: SwapScan {
                    batched: eval.incremental_profile().batched_probes,
                    js: Vec::with_capacity(n),
                    out: vec![0; n],
                },
                ..SliceState::default()
            },
        };

        // Degenerate sizes: nothing to swap, just evaluate once.
        if n < 2 {
            let perm: Vec<usize> = (0..n).collect();
            let cost = eval.init(&perm);
            observer.on_new_best(0, cost, &perm);
            walk.ended = Some(if cost <= cfg.target_cost {
                TerminationReason::Solved
            } else {
                TerminationReason::IterationBudgetExhausted
            });
            walk.state.best_cost = cost;
            walk.state.best_perm = perm;
        }
        walk.elapsed = started.elapsed();
        walk
    }

    /// Refresh the cached error projection after an executed swap of
    /// `(i, j)`: re-project only the positions the evaluator reports touched,
    /// or everything when it declines to track a dirty set.
    fn refresh_projection<E: Evaluator + ?Sized>(
        eval: &E,
        perm: &[usize],
        i: usize,
        j: usize,
        touched: &mut Vec<usize>,
        err_cache: &mut [i64],
    ) {
        touched.clear();
        if eval.touched_by_swap(perm, i, j, touched) {
            eval.project_errors(perm, touched, err_cache);
        } else {
            eval.project_errors_full(perm, err_cache);
        }
    }

    /// Re-place `count` randomly chosen positions by random swaps (the
    /// "partial reset" of Adaptive Search).
    fn partial_reset<R: RandomSource + ?Sized>(perm: &mut [usize], count: usize, rng: &mut R) {
        let n = perm.len();
        for _ in 0..count {
            let a = rng.index(n);
            let b = rng.index(n);
            perm.swap(a, b);
        }
    }
}

/// One run of the engine that can stop after any iteration and resume
/// later, begun by [`AdaptiveSearch::start`].
///
/// [`advance`](Self::advance) runs the search up to an iteration count and
/// keeps its whole state — configuration, restart, tabu marks, best so far,
/// counters — until the next call.  The evaluator, the random stream and
/// the observer stay with the caller and are passed to every call; they
/// must be the same ones every time.  Where the slices end changes nothing
/// else: a run advanced in any number of slices takes the trajectory, draws
/// the random stream and reaches the outcome of [`AdaptiveSearch::run`],
/// which is one slice to the end.  This is what lets one thread advance
/// several walks of a batch in turn.
///
/// ```
/// use as_rng::default_rng;
/// use cbls_core::{AdaptiveSearch, Evaluator, NoObserver, SearchConfig};
///
/// // Cost = number of misplaced values; solved when sorted.
/// struct Sort(usize);
/// impl Evaluator for Sort {
///     fn size(&self) -> usize { self.0 }
///     fn init(&mut self, perm: &[usize]) -> i64 { self.cost(perm) }
///     fn cost(&self, perm: &[usize]) -> i64 {
///         perm.iter().enumerate().filter(|&(i, &v)| i != v).count() as i64
///     }
///     fn cost_on_variable(&self, perm: &[usize], i: usize) -> i64 {
///         i64::from(perm[i] != i)
///     }
/// }
///
/// let engine = AdaptiveSearch::new(SearchConfig::default());
/// let whole = engine.solve(&mut Sort(16), &mut default_rng(7));
///
/// // The same run, three iterations at a time.
/// let (mut eval, mut rng) = (Sort(16), default_rng(7));
/// let mut walk = engine.start(&mut eval, &mut NoObserver, None, None);
/// while !walk.advance(&mut eval, &mut rng, &mut NoObserver, walk.iterations() + 3) {}
/// let sliced = walk.finish(&mut eval);
/// assert_eq!(sliced.stats, whole.stats);
/// assert_eq!(sliced.solution, whole.solution);
/// ```
pub struct Walk<'a> {
    cfg: &'a SearchConfig,
    stop: Option<&'a StopControl>,
    budget: Option<&'a dyn Fn(u64) -> Option<u64>>,
    n: usize,
    reset_limit: usize,
    reset_count: usize,
    profile: bool,
    /// Why the walk ended; `None` while it can go on.
    ended: Option<TerminationReason>,
    /// Time spent inside `start` and `advance` calls, and nowhere else.
    elapsed: Duration,
    state: SliceState,
}

/// What the search loop carries from one slice to the next.  `advance`
/// moves it into locals for the slice and back at its end, so the loop
/// works on locals as a single uninterrupted run does.
#[derive(Default)]
struct SliceState {
    stats: SearchStats,
    best_cost: i64,
    best_perm: Vec<usize>,
    /// Countdown to the next heartbeat and deadline poll: one subtraction
    /// per iteration instead of a modulo on the hot path.  Starts at zero,
    /// so polls fall on the multiples of `stop_check_interval`.
    until_stop_check: u64,
    /// Restarts begun so far: the restart schedule's next index.
    restart: u64,
    /// The iteration budget of the restart under way; `None` between
    /// restarts.
    restart_budget: Option<u64>,
    iter_in_restart: u64,
    perm: Vec<usize>,
    cost: i64,
    /// `marks[i]` holds the first iteration index at which variable `i` is
    /// free again; 0 means "never marked".
    marks: Vec<u64>,
    /// Number of variables marked since the last partial reset; when it
    /// reaches the reset limit the configuration is partially re-randomised
    /// (this is what keeps Adaptive Search from orbiting a deep local
    /// minimum).
    marked_since_reset: usize,
    ties: Vec<usize>,
    err_cache: Vec<i64>,
    touched: Vec<usize>,
    scan: SwapScan,
}

impl Walk<'_> {
    /// Iterations done so far, over every restart.
    #[must_use]
    pub fn iterations(&self) -> u64 {
        self.state.stats.iterations
    }

    /// Run the search on until it ends or has done `until` iterations in
    /// all, whichever comes first, and return whether it has ended.  A
    /// walk that has ended stays ended, and a call whose `until` the walk
    /// has already reached runs no iteration.
    ///
    /// The search reads the stop control's bound and kill flag every
    /// iteration and polls its deadline and the observer's heartbeat every
    /// `stop_check_interval` iterations, counted over the whole run, so
    /// slices of exactly that length each begin with a poll.
    pub fn advance<E, R>(
        &mut self,
        eval: &mut E,
        rng: &mut R,
        observer: &mut dyn SearchObserver,
        until: u64,
    ) -> bool
    where
        E: Evaluator + ?Sized,
        R: RandomSource + ?Sized,
    {
        if self.ended.is_some() {
            return true;
        }
        let started = monotonic_now();
        let cfg = self.cfg;
        let (n, reset_limit, reset_count, profile) =
            (self.n, self.reset_limit, self.reset_count, self.profile);
        let (stop, budget) = (self.stop, self.budget);
        let budget_of = |restart| match budget {
            Some(budget) => budget(restart),
            None => cfg.restart_budget(restart),
        };
        let SliceState {
            mut stats,
            mut best_cost,
            mut best_perm,
            mut until_stop_check,
            mut restart,
            mut restart_budget,
            mut iter_in_restart,
            mut perm,
            mut cost,
            mut marks,
            mut marked_since_reset,
            mut ties,
            mut err_cache,
            mut touched,
            mut scan,
        } = std::mem::take(&mut self.state);

        let mut ended = None;
        'restarts: loop {
            let budget = match restart_budget {
                Some(budget) => budget,
                None => {
                    // Restart (or give up if the schedule is exhausted).
                    let Some(budget) = budget_of(restart) else {
                        ended = Some(TerminationReason::IterationBudgetExhausted);
                        break 'restarts;
                    };
                    if restart > 0 {
                        stats.restarts += 1;
                        observer.on_restart(restart);
                    }
                    perm = rng.permutation(n);
                    restart += 1;
                    cost = eval.init(&perm);
                    if !cfg.exhaustive {
                        eval.project_errors_full(&perm, &mut err_cache);
                    }
                    marks.clear();
                    marks.resize(n, 0);
                    marked_since_reset = 0;
                    iter_in_restart = 0;
                    restart_budget = Some(budget);
                    budget
                }
            };
            loop {
                if cost < best_cost {
                    best_cost = cost;
                    best_perm = perm.clone();
                    observer.on_new_best(stats.iterations, cost, &best_perm);
                }
                if cost <= cfg.target_cost {
                    ended = Some(TerminationReason::Solved);
                    break 'restarts;
                }
                if iter_in_restart >= budget {
                    restart_budget = None;
                    break;
                }
                if stats.iterations >= until {
                    // The slice ends.  The next one resumes here: the checks
                    // above find nothing new to do.
                    break 'restarts;
                }
                let poll = until_stop_check == 0;
                if poll {
                    until_stop_check = cfg.stop_check_interval;
                    observer.on_heartbeat(stats.iterations);
                }
                if let Some(stop) = stop {
                    // The bound and the kill flag are one Acquire load each,
                    // so they are read every iteration: a losing walk stops
                    // as soon as it has done the winner's count.  The
                    // deadline reads the clock, so it keeps the poll's
                    // cadence.
                    if stop.should_stop(stats.iterations) {
                        ended = Some(TerminationReason::ExternallyStopped);
                        break 'restarts;
                    }
                    if poll && stop.deadline_passed() {
                        ended = Some(TerminationReason::TimedOut);
                        break 'restarts;
                    }
                }
                until_stop_check -= 1;
                iter_in_restart += 1;
                stats.iterations += 1;

                let now = stats.iterations;
                let scan_started = profile.then(monotonic_now);
                let (picked, scanned) = if cfg.exhaustive {
                    // --- exhaustive mode: best swap over all variable pairs ---
                    scan.best_swap(eval, &perm, cost, (0..n - 1).map(|a| (a, a + 1)), rng)
                } else {
                    // --- select the worst (highest error) non-frozen variable ---
                    // Errors are read from the incrementally maintained cache;
                    // the values are identical to fresh `cost_on_variable`
                    // calls (the projection contract), so selection, tie
                    // breaking and the RNG stream are unchanged.
                    let mut max_err = i64::MIN;
                    ties.clear();
                    for (i, &mark) in marks.iter().enumerate().take(n) {
                        if mark > now {
                            continue;
                        }
                        let err = err_cache[i];
                        if err > max_err {
                            max_err = err;
                            ties.clear();
                            ties.push(i);
                        } else if err == max_err {
                            ties.push(i);
                        }
                    }

                    // Ties (including the degenerate "all errors are zero"
                    // case, where every free variable ties at error 0) are
                    // broken uniformly at random.  No tie at all means every
                    // variable is frozen: there is no candidate to scan.
                    match rng.choose(&ties) {
                        // --- find the best swap for the selected variable ---
                        Some(&worst) => {
                            scan.best_swap(eval, &perm, cost, std::iter::once((worst, 0)), rng)
                        }
                        None => (None, 0),
                    }
                };
                stats.swap_evaluations += scanned;
                // An aborted selection still counts as scan time; a reset
                // below is projection maintenance.
                if let Some(t0) = scan_started {
                    observer.on_phase(SearchPhase::CandidateScan, nanos_since(t0));
                }

                let reset = match picked {
                    // Every variable is frozen: unblock the search with a
                    // partial reset, as the C framework does.
                    None => true,
                    Some((move_i, move_j, best_swap_cost)) => {
                        let delta = best_swap_cost - cost;
                        let accept = if delta < 0 {
                            true
                        } else if delta == 0 {
                            let take = rng.bool_with_probability(cfg.plateau_probability);
                            if take {
                                stats.plateau_moves += 1;
                            }
                            take
                        } else {
                            false
                        };
                        // --- local minimum handling: a worsening move may
                        // still be forced through to escape the minimum ---
                        let forced = !accept && {
                            stats.local_minima += 1;
                            delta > 0 && rng.bool_with_probability(cfg.prob_select_local_min)
                        };

                        if accept || forced {
                            let swap_started = profile.then(monotonic_now);
                            perm.swap(move_i, move_j);
                            eval.executed_swap(&perm, move_i, move_j);
                            if let Some(t0) = swap_started {
                                observer.on_phase(SearchPhase::SwapExecution, nanos_since(t0));
                            }
                            if !cfg.exhaustive {
                                let proj_started = profile.then(monotonic_now);
                                AdaptiveSearch::refresh_projection(
                                    eval,
                                    &perm,
                                    move_i,
                                    move_j,
                                    &mut touched,
                                    &mut err_cache,
                                );
                                if let Some(t0) = proj_started {
                                    observer.on_phase(SearchPhase::Projection, nanos_since(t0));
                                }
                            }
                            cost = best_swap_cost;
                            stats.swaps += 1;
                            stats.forced_moves += u64::from(forced);
                            continue;
                        }

                        // Freeze the selected variable (in exhaustive mode
                        // there is no selected variable, so the local minimum
                        // only counts towards the reset trigger).
                        if !cfg.exhaustive {
                            marks[move_i] = now + cfg.freeze_duration + 1;
                            stats.variables_marked += 1;
                        }
                        marked_since_reset += 1;
                        marked_since_reset >= reset_limit
                    }
                };
                if reset {
                    stats.resets += 1;
                    let reset_started = profile.then(monotonic_now);
                    AdaptiveSearch::partial_reset(&mut perm, reset_count, rng);
                    cost = eval.init(&perm);
                    if !cfg.exhaustive {
                        eval.project_errors_full(&perm, &mut err_cache);
                    }
                    marks.iter_mut().for_each(|m| *m = 0);
                    marked_since_reset = 0;
                    if let Some(t0) = reset_started {
                        observer.on_phase(SearchPhase::Projection, nanos_since(t0));
                    }
                }
            }
        }

        self.state = SliceState {
            stats,
            best_cost,
            best_perm,
            until_stop_check,
            restart,
            restart_budget,
            iter_in_restart,
            perm,
            cost,
            marks,
            marked_since_reset,
            ties,
            err_cache,
            touched,
            scan,
        };
        self.ended = ended;
        self.elapsed += started.elapsed();
        ended.is_some()
    }

    /// The walk's outcome.  Its `elapsed` is the time spent inside
    /// [`AdaptiveSearch::start`] and [`advance`](Self::advance) calls, not
    /// the time between them.  A walk that has not ended reports
    /// [`ExternallyStopped`](TerminationReason::ExternallyStopped): its
    /// caller stopped it between slices.
    pub fn finish<E: Evaluator + ?Sized>(self, eval: &mut E) -> SearchOutcome {
        let SliceState {
            stats,
            mut best_cost,
            mut best_perm,
            ..
        } = self.state;
        if best_perm.len() != self.n {
            // No iteration ever ran (an external schedule with no restart at
            // all): report the identity permutation.
            best_perm = (0..self.n).collect();
            best_cost = eval.init(&best_perm);
        }
        SearchOutcome {
            reason: self.ended.unwrap_or(TerminationReason::ExternallyStopped),
            best_cost,
            solution: best_perm,
            stats,
            elapsed: self.elapsed,
        }
    }
}

/// The candidate scan of one run: the switch it reads once, plus the
/// scratch rows of the batched probe.
#[derive(Default)]
struct SwapScan {
    /// Whole rows go through one [`Evaluator::cost_if_swaps`] call (the
    /// evaluator claims `batched_probes`) instead of probe by probe.
    batched: bool,
    js: Vec<usize>,
    out: Vec<i64>,
}

impl SwapScan {
    /// The best swap over the candidate rows `(a, from)`, each pairing the
    /// anchor `a` with every other `b` in `from..n`, in order (`from` is `0`
    /// or `a + 1`).
    ///
    /// A strictly better candidate replaces the pick; an equal one is
    /// reservoir-sampled, so ties do not favour small indices.  Batched and
    /// scalar rows consume the same probe values in the same order with the
    /// same draws, so both are bit-identical.  Returns the pick with its
    /// probe value, and how many candidates the selection scanned.
    #[inline]
    fn best_swap<E, R>(
        &mut self,
        eval: &E,
        perm: &[usize],
        cost: i64,
        rows: impl Iterator<Item = (usize, usize)>,
        rng: &mut R,
    ) -> (Option<(usize, usize, i64)>, u64)
    where
        E: Evaluator + ?Sized,
        R: RandomSource + ?Sized,
    {
        let n = perm.len();
        let mut best_cost = i64::MAX;
        let mut pick = None;
        let mut ties: u32 = 0;
        let mut scanned: u64 = 0;
        let mut offer = |a: usize, b: usize, new_cost: i64| {
            scanned += 1;
            if new_cost < best_cost {
                best_cost = new_cost;
                pick = Some((a, b));
                ties = 1;
            } else if new_cost == best_cost {
                ties += 1;
                if rng.below(u64::from(ties)) == 0 {
                    pick = Some((a, b));
                }
            }
        };
        for (a, from) in rows {
            // Two ranges rather than a filter, so that the batched fill is
            // one exact-size extend.
            let partners = (from..a).chain(a + 1..n);
            if self.batched {
                self.js.clear();
                self.js.extend(partners);
                let row = &mut self.out[..self.js.len()];
                eval.cost_if_swaps(perm, cost, a, &self.js, row);
                for (&b, &new_cost) in self.js.iter().zip(row.iter()) {
                    offer(a, b, new_cost);
                }
            } else {
                for b in partners {
                    offer(a, b, eval.cost_if_swap(perm, cost, a, b));
                }
            }
        }
        (pick.map(|(a, b)| (a, b, best_cost)), scanned)
    }
}

/// Monotonic nanoseconds elapsed since `start`, saturated into `u64` (which
/// holds ~584 years of nanoseconds, so the cast cannot truncate in practice).
fn nanos_since(start: std::time::Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::test_problems::{SortPermutation, Unsatisfiable};

    fn rng(seed: u64) -> as_rng::DefaultRng {
        as_rng::default_rng(seed)
    }

    #[test]
    fn solves_sort_permutation() {
        let engine = AdaptiveSearch::default();
        for seed in 0..10 {
            let mut problem = SortPermutation::new(20);
            let out = engine.solve(&mut problem, &mut rng(seed));
            assert!(out.solved(), "seed {seed} did not solve: {out:?}");
            assert_eq!(out.best_cost, 0);
            assert_eq!(out.solution, (0..20).collect::<Vec<_>>());
            assert!(out.stats.iterations > 0);
            assert!(out.stats.swaps > 0);
        }
    }

    #[test]
    fn is_deterministic_for_a_fixed_seed() {
        let engine = AdaptiveSearch::default();
        let run = |seed: u64| {
            let mut p = SortPermutation::new(24);
            engine.solve(&mut p, &mut rng(seed))
        };
        let a = run(12345);
        let b = run(12345);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.solution, b.solution);
        assert_eq!(a.best_cost, b.best_cost);
    }

    #[test]
    fn different_seeds_take_different_trajectories() {
        let engine = AdaptiveSearch::default();
        let iters: Vec<u64> = (0..8)
            .map(|seed| {
                let mut p = SortPermutation::new(32);
                engine.solve(&mut p, &mut rng(seed)).stats.iterations
            })
            .collect();
        let distinct: std::collections::HashSet<_> = iters.iter().collect();
        assert!(
            distinct.len() > 1,
            "all seeds took identical iteration counts: {iters:?}"
        );
    }

    #[test]
    fn unsatisfiable_problem_exhausts_budget() {
        let config = SearchConfig::builder()
            .max_iterations_per_restart(50)
            .max_restarts(2)
            .build();
        let engine = AdaptiveSearch::new(config);
        let mut p = Unsatisfiable { n: 8 };
        let out = engine.solve(&mut p, &mut rng(1));
        assert!(!out.solved());
        assert_eq!(out.reason, TerminationReason::IterationBudgetExhausted);
        assert_eq!(out.stats.restarts, 2);
        assert_eq!(out.best_cost, 1);
        // budget respected: at most (restarts + 1) * per-restart iterations
        assert!(out.stats.iterations <= 150);
    }

    #[test]
    fn external_stop_is_honoured() {
        let config = SearchConfig::builder()
            .max_iterations_per_restart(1_000_000)
            .max_restarts(0)
            .stop_check_interval(1)
            .build();
        let engine = AdaptiveSearch::new(config);
        // A bound stops the run once it has done that many iterations.
        for bound in [0, 30] {
            let stop = StopControl::new();
            stop.stop_at(bound);
            let mut p = Unsatisfiable { n: 8 };
            let run = Run {
                stop: Some(&stop),
                ..Run::default()
            };
            let out = engine.run(&mut p, &mut rng(2), run);
            assert_eq!(out.reason, TerminationReason::ExternallyStopped);
            assert_eq!(out.stats.iterations, bound);
        }

        // Lowered to 0 mid-run, the bound stops the walk at the next
        // iteration, while heartbeats keep the `stop_check_interval` cadence.
        /// Constant cost; stops `stop` during iteration `at`.  An exhaustive
        /// scan of `n` variables probes `n(n-1)/2` swaps per iteration.
        struct RaiseAt {
            n: usize,
            at: u64,
            stop: StopControl,
            probes: std::cell::Cell<u64>,
        }
        impl Evaluator for RaiseAt {
            fn size(&self) -> usize {
                self.n
            }
            fn init(&mut self, _perm: &[usize]) -> i64 {
                1
            }
            fn cost(&self, _perm: &[usize]) -> i64 {
                1
            }
            fn cost_on_variable(&self, _perm: &[usize], _i: usize) -> i64 {
                1
            }
            fn cost_if_swap(&self, _perm: &[usize], _cost: i64, _i: usize, _j: usize) -> i64 {
                let per_iteration = (self.n * (self.n - 1) / 2) as u64;
                if self.probes.get() / per_iteration + 1 == self.at {
                    self.stop.stop_at(0);
                }
                self.probes.set(self.probes.get() + 1);
                1
            }
        }
        #[derive(Default)]
        struct Heartbeats(Vec<u64>);
        impl SearchObserver for Heartbeats {
            fn on_heartbeat(&mut self, iterations: u64) {
                self.0.push(iterations);
            }
        }
        let engine = AdaptiveSearch::new(
            SearchConfig::builder()
                .max_iterations_per_restart(2_500)
                .max_restarts(0)
                .exhaustive(true)
                .stop_check_interval(1_000)
                .build(),
        );
        let solve = |at: u64| {
            let stop = StopControl::new();
            let mut eval = RaiseAt {
                n: 5,
                at,
                stop: stop.clone(),
                probes: std::cell::Cell::new(0),
            };
            let mut heartbeats = Heartbeats::default();
            let run = Run {
                stop: Some(&stop),
                observer: Some(&mut heartbeats),
                ..Run::default()
            };
            let out = engine.run(&mut eval, &mut rng(2), run);
            (out, heartbeats.0)
        };
        for at in [1, 7] {
            let (out, heartbeats) = solve(at);
            assert_eq!(out.reason, TerminationReason::ExternallyStopped);
            assert_eq!(out.stats.iterations, at);
            assert_eq!(heartbeats, vec![0]);
        }
        // Never lowered: the whole budget, a heartbeat every 1 000.
        let (out, heartbeats) = solve(u64::MAX);
        assert_eq!(out.reason, TerminationReason::IterationBudgetExhausted);
        assert_eq!(out.stats.iterations, 2_500);
        assert_eq!(heartbeats, vec![0, 1_000, 2_000]);
    }

    #[test]
    fn timeout_reports_timed_out() {
        let config = SearchConfig::builder()
            .max_iterations_per_restart(u64::MAX / 4)
            .max_restarts(0)
            .stop_check_interval(1)
            .build();
        let engine = AdaptiveSearch::new(config);
        let stop = StopControl::with_timeout(std::time::Duration::ZERO);
        let mut p = Unsatisfiable { n: 8 };
        let run = Run {
            stop: Some(&stop),
            ..Run::default()
        };
        let out = engine.run(&mut p, &mut rng(3), run);
        assert_eq!(out.reason, TerminationReason::TimedOut);
    }

    #[test]
    fn trivial_sizes_are_handled() {
        let engine = AdaptiveSearch::default();
        let mut p0 = SortPermutation::new(0);
        let out0 = engine.solve(&mut p0, &mut rng(4));
        assert!(out0.solved());
        assert!(out0.solution.is_empty());

        let mut p1 = SortPermutation::new(1);
        let out1 = engine.solve(&mut p1, &mut rng(5));
        assert!(out1.solved());
        assert_eq!(out1.solution, vec![0]);

        let mut u1 = Unsatisfiable { n: 1 };
        let outu = engine.solve(&mut u1, &mut rng(6));
        assert!(!outu.solved());
    }

    #[test]
    fn trivial_sizes_report_their_only_configuration_to_the_observer() {
        #[derive(Default)]
        struct Bests(Vec<(u64, i64, Vec<usize>)>);
        impl SearchObserver for Bests {
            fn on_new_best(&mut self, iteration: u64, cost: i64, assignment: &[usize]) {
                self.0.push((iteration, cost, assignment.to_vec()));
            }
        }
        let engine = AdaptiveSearch::default();
        for n in [0, 1] {
            let mut bests = Bests::default();
            let run = Run {
                observer: Some(&mut bests),
                ..Run::default()
            };
            let out = engine.run(&mut Unsatisfiable { n }, &mut rng(8), run);
            assert_eq!(
                bests.0,
                vec![(0, out.best_cost, out.solution)],
                "n = {n}: the initial cost at iteration 0 is the run's one best"
            );
        }
    }

    #[test]
    fn already_solved_initial_configuration_costs_zero_iterations() {
        // With n = 2 the random initial permutation is the identity half the
        // time; force it by searching seeds until the first configuration is
        // already sorted, and check no swap was needed.
        let engine = AdaptiveSearch::default();
        let mut found = false;
        for seed in 0..64 {
            let mut p = SortPermutation::new(2);
            let out = engine.solve(&mut p, &mut rng(seed));
            assert!(out.solved());
            if out.stats.swaps == 0 {
                assert_eq!(out.stats.iterations, 0);
                found = true;
                break;
            }
        }
        assert!(found, "no seed produced an already-sorted initial state");
    }

    #[test]
    fn tuned_for_applies_problem_hints() {
        struct Hinted;
        impl Evaluator for Hinted {
            fn size(&self) -> usize {
                4
            }
            fn init(&mut self, perm: &[usize]) -> i64 {
                self.cost(perm)
            }
            fn cost(&self, _perm: &[usize]) -> i64 {
                0
            }
            fn cost_on_variable(&self, _perm: &[usize], _i: usize) -> i64 {
                0
            }
            fn tune(&self, config: &mut SearchConfig) {
                config.freeze_duration = 9;
                config.reset_fraction = 0.4;
            }
        }
        let engine = AdaptiveSearch::tuned_for(&Hinted);
        assert_eq!(engine.config().freeze_duration, 9);
        assert!((engine.config().reset_fraction - 0.4).abs() < 1e-12);
    }

    #[test]
    fn exhaustive_mode_solves_and_counts_pair_scans() {
        let config = SearchConfig::builder().exhaustive(true).build();
        let engine = AdaptiveSearch::new(config);
        let mut p = SortPermutation::new(16);
        let out = engine.solve(&mut p, &mut rng(21));
        assert!(out.solved());
        // every iteration scans at most n(n-1)/2 pairs and never marks variables
        assert!(out.stats.swap_evaluations <= out.stats.iterations * 120);
        assert_eq!(out.stats.variables_marked, 0);
    }

    #[test]
    fn exhaustive_and_worst_variable_modes_take_different_paths() {
        let base = SearchConfig::builder().build();
        let ex = SearchConfig::builder().exhaustive(true).build();
        let mut p1 = SortPermutation::new(20);
        let mut p2 = SortPermutation::new(20);
        let a = AdaptiveSearch::new(base).solve(&mut p1, &mut rng(22));
        let b = AdaptiveSearch::new(ex).solve(&mut p2, &mut rng(22));
        assert!(a.solved() && b.solved());
        assert_ne!(a.stats.swap_evaluations, b.stats.swap_evaluations);
    }

    #[test]
    fn batched_and_scalar_scans_take_the_same_trajectory_in_every_mode() {
        use crate::evaluator::IncrementalProfile;
        use std::cell::Cell;

        // The same evaluator with and without the `batched_probes` claim:
        // its row forwards probe by probe, so the claim alone picks the scan
        // loop, and `rows` counts the batched calls.
        struct Claim {
            inner: SortPermutation,
            batched: bool,
            rows: Cell<u64>,
        }
        impl Evaluator for Claim {
            fn size(&self) -> usize {
                self.inner.size()
            }
            fn init(&mut self, perm: &[usize]) -> i64 {
                self.inner.init(perm)
            }
            fn cost(&self, perm: &[usize]) -> i64 {
                self.inner.cost(perm)
            }
            fn cost_on_variable(&self, perm: &[usize], i: usize) -> i64 {
                self.inner.cost_on_variable(perm, i)
            }
            fn cost_if_swap(&self, perm: &[usize], current_cost: i64, i: usize, j: usize) -> i64 {
                self.inner.cost_if_swap(perm, current_cost, i, j)
            }
            fn cost_if_swaps(
                &self,
                perm: &[usize],
                current_cost: i64,
                i: usize,
                js: &[usize],
                out: &mut [i64],
            ) {
                self.rows.set(self.rows.get() + 1);
                for (slot, &j) in out.iter_mut().zip(js) {
                    *slot = self.inner.cost_if_swap(perm, current_cost, i, j);
                }
            }
            fn executed_swap(&mut self, perm: &[usize], i: usize, j: usize) {
                self.inner.executed_swap(perm, i, j);
            }
            fn incremental_profile(&self) -> IncrementalProfile {
                IncrementalProfile {
                    batched_probes: self.batched,
                    ..IncrementalProfile::default()
                }
            }
        }

        for exhaustive in [false, true] {
            // A target below zero keeps every run going for its whole budget,
            // through plateaus, local minima and resets.
            let engine = AdaptiveSearch::new(
                SearchConfig::builder()
                    .exhaustive(exhaustive)
                    .max_iterations_per_restart(300)
                    .max_restarts(2)
                    .target_cost(-1)
                    .build(),
            );
            for seed in 0..4 {
                let run = |batched: bool| {
                    let mut eval = Claim {
                        inner: SortPermutation::new(16),
                        batched,
                        rows: Cell::new(0),
                    };
                    let out = engine.solve(&mut eval, &mut rng(seed));
                    (out, eval.rows.get())
                };
                let ((batched, rows), (scalar, no_rows)) = (run(true), run(false));
                let mode = (exhaustive, seed);
                assert_eq!(batched.stats.iterations, 900, "{mode:?}");
                assert!(rows > 0, "{mode:?}: the claim routes through rows");
                assert_eq!(no_rows, 0, "{mode:?}: no claim, no rows");
                assert_eq!(batched.stats, scalar.stats, "{mode:?}");
                assert_eq!(batched.solution, scalar.solution, "{mode:?}");
                assert_eq!(batched.best_cost, scalar.best_cost, "{mode:?}");
            }
        }
    }

    #[test]
    fn forced_local_min_moves_are_counted() {
        // An unsatisfiable flat landscape forces local minima every iteration;
        // with prob_select_local_min = 1 every one of them becomes a forced move.
        #[derive(Clone)]
        struct Flat(usize);
        impl Evaluator for Flat {
            fn size(&self) -> usize {
                self.0
            }
            fn init(&mut self, perm: &[usize]) -> i64 {
                self.cost(perm)
            }
            fn cost(&self, _perm: &[usize]) -> i64 {
                5
            }
            fn cost_on_variable(&self, _perm: &[usize], _i: usize) -> i64 {
                1
            }
            fn cost_if_swap(&self, _p: &[usize], c: i64, _i: usize, _j: usize) -> i64 {
                c + 1 // every move is worsening
            }
        }
        let config = SearchConfig::builder()
            .max_iterations_per_restart(100)
            .max_restarts(0)
            .prob_select_local_min(1.0)
            .build();
        let engine = AdaptiveSearch::new(config);
        let out = engine.solve(&mut Flat(10), &mut rng(11));
        assert!(!out.solved());
        assert_eq!(out.stats.local_minima, out.stats.forced_moves);
        assert!(out.stats.forced_moves > 0);
        assert_eq!(out.stats.resets, 0);

        // With prob_select_local_min = 0 the same landscape marks variables
        // and eventually triggers partial resets instead.
        let config = SearchConfig::builder()
            .max_iterations_per_restart(100)
            .max_restarts(0)
            .prob_select_local_min(0.0)
            .reset_limit(3)
            .build();
        let engine = AdaptiveSearch::new(config);
        let out = engine.solve(&mut Flat(10), &mut rng(11));
        assert!(out.stats.resets > 0);
        assert!(out.stats.variables_marked > 0);
        assert_eq!(out.stats.forced_moves, 0);
    }

    #[test]
    fn stats_swap_evaluations_dominate_iterations() {
        let engine = AdaptiveSearch::default();
        let mut p = SortPermutation::new(16);
        let out = engine.solve(&mut p, &mut rng(13));
        // each iteration evaluates at most n-1 swaps
        assert!(out.stats.swap_evaluations <= out.stats.iterations * 15);
        assert!(out.stats.swap_evaluations >= out.stats.swaps);
    }

    #[test]
    fn scheduled_solve_with_the_default_schedule_matches_solve() {
        // Driving the restart loop with the configuration's own budget
        // schedule must reproduce solve() bit for bit (same random stream,
        // same budget slicing).
        let config = SearchConfig::builder()
            .max_iterations_per_restart(40)
            .max_restarts(5)
            .build();
        let engine = AdaptiveSearch::new(config.clone());
        let mut p1 = SortPermutation::new(24);
        let a = engine.solve(&mut p1, &mut rng(31));
        let mut p2 = SortPermutation::new(24);
        let run = Run {
            budget: Some(&|r| config.restart_budget(r)),
            ..Run::default()
        };
        let b = engine.run(&mut p2, &mut rng(31), run);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.solution, b.solution);
        assert_eq!(a.best_cost, b.best_cost);
        assert_eq!(a.reason, b.reason);
    }

    #[test]
    fn scheduled_solve_honours_every_budget_slice() {
        // An unsolvable landscape consumes each slice fully, so the total
        // iteration count is exactly the sum of the schedule and the restart
        // counter reflects the number of slices.
        let engine = AdaptiveSearch::default();
        let budgets = [7u64, 11, 13];
        let mut p = Unsatisfiable { n: 8 };
        let run = Run {
            budget: Some(&|r| budgets.get(r as usize).copied()),
            ..Run::default()
        };
        let out = engine.run(&mut p, &mut rng(17), run);
        assert!(!out.solved());
        assert_eq!(out.reason, TerminationReason::IterationBudgetExhausted);
        assert_eq!(out.stats.iterations, 7 + 11 + 13);
        assert_eq!(out.stats.restarts, 2);
    }

    #[test]
    fn scheduled_solve_with_an_empty_schedule_runs_nothing() {
        let engine = AdaptiveSearch::default();
        let mut p = Unsatisfiable { n: 6 };
        let run = Run {
            budget: Some(&|_| None),
            ..Run::default()
        };
        let out = engine.run(&mut p, &mut rng(19), run);
        assert!(!out.solved());
        assert_eq!(out.stats.iterations, 0);
        assert_eq!(out.stats.restarts, 0);
    }

    #[test]
    fn scheduled_solve_does_not_reseed_between_restarts() {
        // Two schedules that slice the same total budget differently must
        // consume the same random stream: after an unsolved run, continuing
        // the stream yields identical values.  (The permutation draws at each
        // restart boundary differ in *when* they happen, so the trajectories
        // differ — but each run is a pure function of the seed, which is what
        // "no re-seeding" guarantees.)
        use as_rng::RandomSource;
        let engine = AdaptiveSearch::default();
        let run = |budgets: &'static [u64], seed: u64| {
            let mut r = rng(seed);
            let mut p = Unsatisfiable { n: 8 };
            let run = Run {
                budget: Some(&|i| budgets.get(i as usize).copied()),
                ..Run::default()
            };
            let out = engine.run(&mut p, &mut r, run);
            (out, r.next_u64())
        };
        let (a, next_a) = run(&[10, 10], 23);
        let (b, next_b) = run(&[10, 10], 23);
        assert_eq!(a.stats, b.stats);
        assert_eq!(
            next_a, next_b,
            "identical runs leave the stream in the same state"
        );
    }

    #[test]
    fn observed_runs_are_bit_identical_and_report_cold_edges() {
        use crate::observer::SearchObserver;

        #[derive(Default)]
        struct Trace {
            improvements: Vec<(u64, i64)>,
            restarts: Vec<u64>,
        }
        impl SearchObserver for Trace {
            fn on_restart(&mut self, restart: u64) {
                self.restarts.push(restart);
            }
            fn on_new_best(&mut self, iteration: u64, cost: i64, _assignment: &[usize]) {
                self.improvements.push((iteration, cost));
            }
        }

        let config = SearchConfig::builder()
            .max_iterations_per_restart(40)
            .max_restarts(5)
            .build();
        let engine = AdaptiveSearch::new(config.clone());

        let mut p1 = SortPermutation::new(24);
        let plain = engine.solve(&mut p1, &mut rng(31));

        let mut trace = Trace::default();
        let mut p2 = SortPermutation::new(24);
        let run = Run {
            budget: Some(&|r| config.restart_budget(r)),
            observer: Some(&mut trace),
            ..Run::default()
        };
        let observed = engine.run(&mut p2, &mut rng(31), run);

        // observation is passive: identical trajectory and statistics
        assert_eq!(plain.stats, observed.stats);
        assert_eq!(plain.solution, observed.solution);
        assert_eq!(plain.best_cost, observed.best_cost);

        // restarts are reported 1-based, in order, one per counted restart
        assert_eq!(trace.restarts.len() as u64, observed.stats.restarts);
        assert_eq!(
            trace.restarts,
            (1..=observed.stats.restarts).collect::<Vec<u64>>()
        );
        // improvements are strictly decreasing in cost, non-decreasing in
        // iteration, and end at the winning cost
        assert!(trace.improvements.windows(2).all(|w| w[1].1 < w[0].1));
        assert!(trace.improvements.windows(2).all(|w| w[1].0 >= w[0].0));
        assert_eq!(trace.improvements.last().unwrap().1, observed.best_cost);
    }

    #[test]
    fn phase_profiling_is_passive_and_covers_all_phases() {
        use crate::observer::{SearchObserver, SearchPhase};

        #[derive(Default)]
        struct Profiler {
            samples: [u64; 3],
            nanos: [u64; 3],
        }
        impl SearchObserver for Profiler {
            fn observes_phases(&self) -> bool {
                true
            }
            fn on_phase(&mut self, phase: SearchPhase, elapsed_nanos: u64) {
                self.samples[phase.index()] += 1;
                self.nanos[phase.index()] += elapsed_nanos;
            }
        }

        let config = SearchConfig::builder()
            .max_iterations_per_restart(200)
            .max_restarts(5)
            .build();
        let engine = AdaptiveSearch::new(config.clone());

        let mut p1 = SortPermutation::new(24);
        let plain = engine.solve(&mut p1, &mut rng(31));

        let mut profiler = Profiler::default();
        let mut p2 = SortPermutation::new(24);
        let run = Run {
            budget: Some(&|r| config.restart_budget(r)),
            observer: Some(&mut profiler),
            ..Run::default()
        };
        let profiled = engine.run(&mut p2, &mut rng(31), run);

        // Profiling is passive: bit-identical trajectory and statistics.
        assert_eq!(plain.stats, profiled.stats);
        assert_eq!(plain.solution, profiled.solution);
        assert_eq!(plain.best_cost, profiled.best_cost);

        // Every iteration produced exactly one candidate-scan span (the run
        // never breaks out of a scan), and every swap one execution span.
        let scans = profiler.samples[SearchPhase::CandidateScan.index()];
        let swaps = profiler.samples[SearchPhase::SwapExecution.index()];
        let projections = profiler.samples[SearchPhase::Projection.index()];
        assert_eq!(scans, profiled.stats.iterations);
        assert_eq!(swaps, profiled.stats.swaps);
        // Each executed swap refreshes the projection, each reset re-projects.
        assert_eq!(projections, profiled.stats.swaps + profiled.stats.resets);
        assert!(profiler.nanos.iter().sum::<u64>() > 0);
    }

    /// Every hook call of a run, in order.
    #[derive(Default, PartialEq, Debug)]
    struct HookLog {
        restarts: Vec<u64>,
        bests: Vec<(u64, i64)>,
        heartbeats: Vec<u64>,
    }
    impl SearchObserver for HookLog {
        fn on_restart(&mut self, restart: u64) {
            self.restarts.push(restart);
        }
        fn on_new_best(&mut self, iteration: u64, cost: i64, _assignment: &[usize]) {
            self.bests.push((iteration, cost));
        }
        fn on_heartbeat(&mut self, iterations: u64) {
            self.heartbeats.push(iterations);
        }
    }

    #[test]
    fn a_run_advanced_in_slices_is_the_same_run() {
        use as_rng::RandomSource;
        let configs = [
            // Restarts every 40 iterations, six of them.
            SearchConfig::builder()
                .max_iterations_per_restart(40)
                .max_restarts(5)
                .stop_check_interval(8)
                .build(),
            SearchConfig::builder()
                .exhaustive(true)
                .stop_check_interval(5)
                .build(),
        ];
        for config in configs {
            let engine = AdaptiveSearch::new(config);
            for seed in 0..4 {
                // A stop bound and an external schedule ride along.
                let stop = StopControl::new();
                stop.stop_at(150);
                let budget = |restart: u64| (restart < 4).then_some(30 + restart);
                let run = |slice: u64| {
                    let (mut eval, mut r) = (SortPermutation::new(24), rng(seed));
                    let mut log = HookLog::default();
                    let mut walk = engine.start(&mut eval, &mut log, Some(&stop), Some(&budget));
                    let mut slices = 0;
                    loop {
                        slices += 1;
                        let until = walk.iterations().saturating_add(slice);
                        if walk.advance(&mut eval, &mut r, &mut log, until) {
                            break;
                        }
                        assert_eq!(walk.iterations(), until, "a slice ends at its end");
                    }
                    let out = walk.finish(&mut eval);
                    (out, log, r.next_u64(), slices)
                };
                let (whole, whole_log, whole_next, one) = run(u64::MAX);
                assert_eq!(one, 1);
                for slice in [1, 3, 8, 1_000] {
                    let (sliced, log, next, _) = run(slice);
                    let case = format!("seed {seed}, slices of {slice}");
                    assert_eq!(sliced.reason, whole.reason, "{case}");
                    assert_eq!(sliced.stats, whole.stats, "{case}");
                    assert_eq!(sliced.solution, whole.solution, "{case}");
                    assert_eq!(sliced.best_cost, whole.best_cost, "{case}");
                    assert_eq!(log, whole_log, "{case}: hooks");
                    assert_eq!(next, whole_next, "{case}: random stream");
                }
            }
        }
    }

    #[test]
    fn a_walk_runs_nothing_past_its_slice_end_and_stays_ended() {
        let engine = AdaptiveSearch::new(
            SearchConfig::builder()
                .max_iterations_per_restart(50)
                .max_restarts(0)
                .build(),
        );
        let (mut eval, mut r, mut obs) = (Unsatisfiable { n: 8 }, rng(3), NoObserver);
        let mut walk = engine.start(&mut eval, &mut obs, None, None);
        // A slice that ends where the walk stands runs no iteration.
        assert!(!walk.advance(&mut eval, &mut r, &mut obs, 0));
        assert_eq!(walk.iterations(), 0);
        assert!(!walk.advance(&mut eval, &mut r, &mut obs, 20));
        assert!(!walk.advance(&mut eval, &mut r, &mut obs, 10));
        assert_eq!(walk.iterations(), 20);
        // Ended by its budget, it stays ended.
        assert!(walk.advance(&mut eval, &mut r, &mut obs, u64::MAX));
        assert!(walk.advance(&mut eval, &mut r, &mut obs, u64::MAX));
        let out = walk.finish(&mut eval);
        assert_eq!(out.reason, TerminationReason::IterationBudgetExhausted);
        assert_eq!(out.stats.iterations, 50);

        // A walk its caller leaves between slices was stopped from outside.
        let mut walk = engine.start(&mut eval, &mut obs, None, None);
        assert!(!walk.advance(&mut eval, &mut r, &mut obs, 7));
        let out = walk.finish(&mut eval);
        assert_eq!(out.reason, TerminationReason::ExternallyStopped);
        assert_eq!(out.stats.iterations, 7);
        assert_eq!(out.solution.len(), 8);
    }

    #[test]
    #[should_panic(expected = "invalid SearchConfig")]
    fn engine_rejects_invalid_config() {
        let bad = SearchConfig {
            reset_fraction: 0.0,
            ..SearchConfig::default()
        };
        let _ = AdaptiveSearch::new(bad);
    }
}
