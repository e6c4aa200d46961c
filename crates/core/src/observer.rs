//! Observation hooks into a running search.
//!
//! The multi-walk executor layer wants a live event stream (walk started,
//! restarted, improved its best cost, finished) without the engine knowing
//! anything about walks, channels or sinks.  [`SearchObserver`] is the
//! engine-side half of that contract: a callback object handed to
//! [`AdaptiveSearch::run`](crate::AdaptiveSearch::run) through
//! [`Run::observer`](crate::Run::observer), whose hooks fire on the *cold*
//! edges of the search loop only — restart boundaries and strict best-cost
//! improvements — never once per iteration.
//!
//! Observation is strictly passive: an observer cannot influence the
//! trajectory, the RNG stream or the statistics, so a run with any observer
//! is bit-identical to the same run with [`NoObserver`].
//!
//! Besides the cold-edge hooks, an observer can opt into **phase profiling**
//! by returning `true` from [`SearchObserver::observes_phases`]: the engine
//! then wraps the three components of every iteration — candidate scan, swap
//! execution, error projection (including partial resets) — in monotonic
//! spans and reports each one through [`SearchObserver::on_phase`].  The
//! opt-in is read once per run, so a declining observer costs the
//! hot loop a single branch per instrumented site and zero clock reads.

use serde::{Deserialize, Serialize};

/// One component of an engine iteration, as attributed by phase profiling.
///
/// The three phases partition where `AdaptiveSearch::run` spends its time on the
/// hot path; restart-boundary work (fresh permutations, initial projection)
/// is deliberately unattributed — it is already observable through
/// [`SearchObserver::on_restart`] and is not part of the per-iteration cost
/// the paper's speedup model cares about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SearchPhase {
    /// Selecting the move: worst-variable selection plus the best-swap scan
    /// (or the full pair scan in exhaustive mode).  This is where
    /// `cost_if_swap` probes happen.
    CandidateScan,
    /// Executing an accepted or forced move: `perm.swap` plus
    /// `executed_swap` bookkeeping.
    SwapExecution,
    /// Maintaining the error projection: `project_errors` /
    /// `project_errors_full` after an executed swap, and the partial-reset
    /// path (reset + re-init + full re-projection).
    Projection,
}

impl SearchPhase {
    /// Every phase, in reporting order.
    pub const ALL: [SearchPhase; 3] = [
        SearchPhase::CandidateScan,
        SearchPhase::SwapExecution,
        SearchPhase::Projection,
    ];

    /// A dense index (0..3), stable across the trace schema.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            SearchPhase::CandidateScan => 0,
            SearchPhase::SwapExecution => 1,
            SearchPhase::Projection => 2,
        }
    }

    /// The phase's kebab-case name, as used by the trace exporters.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SearchPhase::CandidateScan => "candidate-scan",
            SearchPhase::SwapExecution => "swap-execution",
            SearchPhase::Projection => "projection",
        }
    }
}

/// Passive callbacks fired by the engine at restart boundaries and on strict
/// improvements of the run's best cost.
///
/// All hooks have empty default bodies, so an implementation only overrides
/// what it consumes.  The engine calls the hooks synchronously from the
/// search loop; implementations should therefore stay cheap (the multi-walk
/// telemetry layer forwards them to a sink and returns immediately).
///
/// ```
/// use as_rng::default_rng;
/// use cbls_core::{AdaptiveSearch, Evaluator, Run, SearchConfig, SearchObserver};
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
/// #[derive(Default)]
/// struct Trace {
///     improvements: Vec<i64>,
///     restarts: u64,
/// }
/// impl SearchObserver for Trace {
///     fn on_new_best(&mut self, _iteration: u64, cost: i64, _assignment: &[usize]) {
///         self.improvements.push(cost);
///     }
///     fn on_restart(&mut self, _restart: u64) {
///         self.restarts += 1;
///     }
/// }
///
/// let engine = AdaptiveSearch::new(SearchConfig::default());
/// let mut trace = Trace::default();
/// let run = Run {
///     observer: Some(&mut trace),
///     ..Run::default()
/// };
/// let outcome = engine.run(&mut Sort(16), &mut default_rng(7), run);
/// assert!(outcome.solved());
/// // every recorded improvement is strictly better than the previous one
/// assert!(trace.improvements.windows(2).all(|w| w[1] < w[0]));
/// assert_eq!(*trace.improvements.last().unwrap(), 0);
/// ```
pub trait SearchObserver {
    /// A new restart is about to begin.  `restart` is the 1-based index of
    /// the restart (the initial try is not reported: the run itself starting
    /// is observable by the caller).
    fn on_restart(&mut self, restart: u64) {
        let _ = restart;
    }

    /// The run's best cost strictly improved to `cost` (reached after
    /// `iteration` engine iterations), and `assignment` is the engine's new
    /// best permutation realizing it.  Fired at most once per distinct best
    /// cost, including for the initial configuration's cost at iteration 0
    /// (problems of fewer than two variables report their only
    /// configuration).  The telemetry stream turns it into an improvement
    /// event and the supervision layer publishes it as an anytime incumbent
    /// into a [`BestSoFar`](crate::BestSoFar) slot; like every hook it is
    /// passive and must not retain the borrow.
    fn on_new_best(&mut self, iteration: u64, cost: i64, assignment: &[usize]) {
        let _ = (iteration, cost, assignment);
    }

    /// Liveness heartbeat: fired every `stop_check_interval` iterations at
    /// the engine's stop-poll site, with the iteration count so far.  The
    /// supervision layer counts the beats, and a stall report carries the
    /// count a walk reached; the stall rule itself times the walk's slices
    /// of `stop_check_interval` iterations, each of which begins with a
    /// beat.
    fn on_heartbeat(&mut self, iterations: u64) {
        let _ = iterations;
    }

    /// Whether this observer wants per-iteration phase spans.
    ///
    /// The engine reads this **once** per run, before the first
    /// iteration; returning `false` (the default) reduces every instrumented
    /// site to a single predictable branch with no clock read.  The answer
    /// must therefore be constant for the lifetime of one run.
    fn observes_phases(&self) -> bool {
        false
    }

    /// One phase span: the engine spent `elapsed_nanos` monotonic nanoseconds
    /// in `phase`.  Only fired when [`observes_phases`](Self::observes_phases)
    /// returned `true` at the start of the run.  Like every hook this
    /// is passive and synchronous — implementations must stay cheap and
    /// alloc-free (the flight recorder funnels these into atomics).
    fn on_phase(&mut self, phase: SearchPhase, elapsed_nanos: u64) {
        let _ = (phase, elapsed_nanos);
    }
}

/// The no-op observer: every hook is empty.
///
/// [`AdaptiveSearch::solve`](crate::AdaptiveSearch::solve), and every run
/// whose [`Run::observer`](crate::Run::observer) is `None`, observes with
/// `NoObserver`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoObserver;

impl SearchObserver for NoObserver {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_hooks_are_no_ops() {
        // NoObserver (and any observer relying on the default bodies) accepts
        // every hook without effect.
        let mut obs = NoObserver;
        obs.on_restart(3);
        obs.on_new_best(10, 42, &[1, 0]);
        obs.on_heartbeat(100);
        assert!(!obs.observes_phases());
        obs.on_phase(SearchPhase::CandidateScan, 100);

        struct Empty;
        impl SearchObserver for Empty {}
        let mut empty = Empty;
        empty.on_restart(0);
        empty.on_new_best(0, 0, &[]);
        empty.on_heartbeat(0);
        assert!(!empty.observes_phases());
        empty.on_phase(SearchPhase::Projection, 0);
    }

    #[test]
    fn phase_index_and_name_are_stable() {
        for (i, phase) in SearchPhase::ALL.into_iter().enumerate() {
            assert_eq!(phase.index(), i);
        }
        assert_eq!(SearchPhase::CandidateScan.name(), "candidate-scan");
        assert_eq!(SearchPhase::SwapExecution.name(), "swap-execution");
        assert_eq!(SearchPhase::Projection.name(), "projection");
    }
}
