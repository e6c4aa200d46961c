//! The deterministic fault-injection harness.
//!
//! A [`FaultPlan`] names faults by `(walk, attempt)` and a *probe index*: the
//! running count of [`cost_if_swap`](cbls_core::Evaluator::cost_if_swap)
//! calls the walk's evaluator has answered.  The probe count is a pure
//! function of the walk's seed and configuration — the engine's neighbourhood
//! exploration is deterministic — so "panic at probe 40 of walk 1" fires at
//! the same search state on the sequential and threads back-ends, and
//! a retry of the same `(walk, attempt)` reproduces the same fault.
//!
//! [`ChaosFactory`] wraps any [`EvaluatorFactory`] and arms the fault (if
//! any) for the `(walk, attempt)` the executor asks it to build; every other
//! walk gets a transparent pass-through evaluator, so fault-free walks stay
//! bit-identical to an unwrapped run.

use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;

use cbls_core::{monotonic_now, Evaluator, EvaluatorFactory, IncrementalProfile, SearchConfig};

/// What an injected fault does when its probe comes up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSpec {
    /// Panic at the `probe`-th cost probe (1-based).
    Panic {
        /// The 1-based `cost_if_swap` call count at which to panic.
        probe: u64,
    },
    /// Hold the evaluator — and with it the walk's thread — for `hold` at
    /// the `probe`-th cost probe, simulating a transient hang: a hold longer
    /// than [`STALL_WINDOW`](cbls_parallel::STALL_WINDOW) overruns its
    /// slice, and the walk is reported stalled.
    Stall {
        /// The 1-based `cost_if_swap` call count at which to stall.
        probe: u64,
        /// How long the evaluator blocks before returning.
        hold: Duration,
    },
}

/// Which attempts of a walk a fault applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultWindow {
    /// Exactly one attempt (0 = the original run) — retries run clean, so a
    /// supervisor recovers the walk.
    Attempt(u32),
    /// Every attempt — retries keep faulting, driving retry exhaustion.
    EveryAttempt,
}

impl FaultWindow {
    fn covers(self, attempt: u32) -> bool {
        match self {
            FaultWindow::Attempt(a) => a == attempt,
            FaultWindow::EveryAttempt => true,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct InjectedFault {
    walk: usize,
    window: FaultWindow,
    spec: FaultSpec,
}

/// A seeded script of faults, keyed by `(walk, attempt)`; see the module
/// docs for the determinism contract.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    faults: Vec<InjectedFault>,
}

impl FaultPlan {
    /// An empty plan (every walk runs clean).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a fault for `walk`, covering `window`.
    #[must_use]
    pub fn with_fault(mut self, walk: usize, window: FaultWindow, spec: FaultSpec) -> Self {
        self.faults.push(InjectedFault { walk, window, spec });
        self
    }

    /// Shorthand: panic at `probe` on attempt 0 of `walk` only.
    #[must_use]
    pub fn panic_once(self, walk: usize, probe: u64) -> Self {
        self.with_fault(walk, FaultWindow::Attempt(0), FaultSpec::Panic { probe })
    }

    /// Shorthand: panic at `probe` on *every* attempt of `walk`.
    #[must_use]
    pub fn panic_always(self, walk: usize, probe: u64) -> Self {
        self.with_fault(walk, FaultWindow::EveryAttempt, FaultSpec::Panic { probe })
    }

    /// Shorthand: stall for `hold` at `probe` on attempt 0 of `walk` only.
    #[must_use]
    pub fn stall_once(self, walk: usize, probe: u64, hold: Duration) -> Self {
        self.with_fault(
            walk,
            FaultWindow::Attempt(0),
            FaultSpec::Stall { probe, hold },
        )
    }

    /// The fault armed for `(walk, attempt)`, if any (first match wins).
    #[must_use]
    pub fn fault_for(&self, walk: usize, attempt: u32) -> Option<FaultSpec> {
        self.faults
            .iter()
            .find(|f| f.walk == walk && f.window.covers(attempt))
            .map(|f| f.spec)
    }
}

/// An [`EvaluatorFactory`] adapter that arms the plan's faults on the walks
/// they target and passes every other walk through untouched.
pub struct ChaosFactory<F> {
    inner: F,
    plan: Arc<FaultPlan>,
}

impl<F> ChaosFactory<F> {
    /// Wrap `inner`, injecting the faults of `plan`.
    pub fn new(inner: F, plan: FaultPlan) -> Self {
        Self {
            inner,
            plan: Arc::new(plan),
        }
    }
}

impl<F: EvaluatorFactory> EvaluatorFactory for ChaosFactory<F> {
    type Output = ChaosEvaluator<F::Output>;

    fn build(&self) -> Self::Output {
        // No walk identity: nothing is armed (the executor always uses
        // `build_walk`, so this path only serves direct single-engine use).
        ChaosEvaluator::new(self.inner.build(), None)
    }

    fn build_walk(&self, walk_id: usize, attempt: u32) -> Self::Output {
        ChaosEvaluator::new(
            self.inner.build_walk(walk_id, attempt),
            self.plan.fault_for(walk_id, attempt),
        )
    }
}

/// The wrapper [`ChaosFactory`] builds: forwards every [`Evaluator`] method
/// to the inner evaluator, counting [`cost_if_swap`](Evaluator::cost_if_swap)
/// probes and firing the armed fault when its probe comes up.
pub struct ChaosEvaluator<E> {
    inner: E,
    fault: Option<FaultSpec>,
    probes: Cell<u64>,
}

impl<E> ChaosEvaluator<E> {
    fn new(inner: E, fault: Option<FaultSpec>) -> Self {
        Self {
            inner,
            fault,
            probes: Cell::new(0),
        }
    }

    /// Count one probe and fire the armed fault if this is its probe index.
    fn tick(&self) {
        let n = self.probes.get() + 1;
        self.probes.set(n);
        match self.fault {
            Some(FaultSpec::Panic { probe }) if n == probe => {
                panic!("chaos: injected panic");
            }
            Some(FaultSpec::Stall { probe, hold }) if n == probe => {
                // Bounded spin standing in for a transiently hung evaluator:
                // the thread is busy and the walk's slice overruns; once the
                // spin releases, the worker sees the overrun and kills the
                // walk, and the engine observes the kill at its next
                // iteration.
                let released = monotonic_now() + hold;
                while monotonic_now() < released {
                    std::hint::spin_loop();
                }
            }
            _ => {}
        }
    }
}

impl<E: Evaluator> Evaluator for ChaosEvaluator<E> {
    fn size(&self) -> usize {
        self.inner.size()
    }
    fn name(&self) -> &str {
        self.inner.name()
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
        self.tick();
        self.inner.cost_if_swap(perm, current_cost, i, j)
    }
    fn executed_swap(&mut self, perm: &[usize], i: usize, j: usize) {
        self.inner.executed_swap(perm, i, j);
    }
    fn touched_by_swap(&self, perm: &[usize], i: usize, j: usize, out: &mut Vec<usize>) -> bool {
        self.inner.touched_by_swap(perm, i, j, out)
    }
    fn project_errors(&self, perm: &[usize], indices: &[usize], out: &mut [i64]) {
        self.inner.project_errors(perm, indices, out);
    }
    fn project_errors_full(&self, perm: &[usize], out: &mut [i64]) {
        self.inner.project_errors_full(perm, out);
    }
    fn incremental_profile(&self) -> IncrementalProfile {
        self.inner.incremental_profile()
    }
    fn tune(&self, config: &mut SearchConfig) {
        self.inner.tune(config);
    }
    fn verify(&self, perm: &[usize]) -> bool {
        self.inner.verify(perm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone)]
    struct Sort(usize);
    impl Evaluator for Sort {
        fn size(&self) -> usize {
            self.0
        }
        fn init(&mut self, perm: &[usize]) -> i64 {
            self.cost(perm)
        }
        fn cost(&self, perm: &[usize]) -> i64 {
            perm.iter().enumerate().filter(|&(i, &v)| i != v).count() as i64
        }
        fn cost_on_variable(&self, perm: &[usize], i: usize) -> i64 {
            i64::from(perm[i] != i)
        }
    }

    #[test]
    fn plan_targets_walk_and_attempt() {
        let plan = FaultPlan::new()
            .panic_once(1, 5)
            .panic_always(2, 7)
            .stall_once(3, 9, Duration::from_millis(1));
        assert_eq!(plan.fault_for(0, 0), None);
        assert_eq!(plan.fault_for(1, 0), Some(FaultSpec::Panic { probe: 5 }));
        assert_eq!(plan.fault_for(1, 1), None);
        assert_eq!(plan.fault_for(2, 3), Some(FaultSpec::Panic { probe: 7 }));
        assert!(matches!(
            plan.fault_for(3, 0),
            Some(FaultSpec::Stall { probe: 9, .. })
        ));
        assert_eq!(plan.fault_for(3, 1), None);
    }

    #[test]
    fn unfaulted_walks_pass_through() {
        let factory = ChaosFactory::new(|| Sort(6), FaultPlan::new().panic_once(1, 1));
        let clean = factory.build_walk(0, 0);
        let perm: Vec<usize> = (0..6).rev().collect();
        assert_eq!(clean.cost(&perm), Sort(6).cost(&perm));
        // probes tick without firing on the clean walk
        let _ = clean.cost_if_swap(&perm, 6, 0, 1);
        assert_eq!(clean.probes.get(), 1);
    }

    #[test]
    fn armed_panic_fires_at_its_probe() {
        let factory = ChaosFactory::new(|| Sort(6), FaultPlan::new().panic_once(1, 2));
        let faulty = factory.build_walk(1, 0);
        let perm: Vec<usize> = (0..6).collect();
        let _ = faulty.cost_if_swap(&perm, 0, 0, 1);
        let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = faulty.cost_if_swap(&perm, 0, 0, 1);
        }));
        assert!(boom.is_err());
    }

    #[test]
    fn stall_holds_then_returns() {
        let factory = ChaosFactory::new(
            || Sort(6),
            FaultPlan::new().stall_once(0, 1, Duration::from_millis(5)),
        );
        let faulty = factory.build_walk(0, 0);
        let perm: Vec<usize> = (0..6).collect();
        let started = monotonic_now();
        let cost = faulty.cost_if_swap(&perm, 0, 0, 1);
        assert!(started.elapsed() >= Duration::from_millis(5));
        assert_eq!(cost, Sort(6).cost_if_swap(&perm, 0, 0, 1));
    }
}
