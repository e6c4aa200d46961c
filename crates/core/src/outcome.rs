//! Results and statistics of a search run.
//!
//! The paper's analysis is entirely statistical — mean run times, speedups,
//! distribution shapes — so the engine records enough counters per run for
//! the performance model to work from iteration counts rather than wall
//! clocks (which keeps every figure machine-independent and reproducible).

use std::time::Duration;

use serde::{Deserialize, Serialize};

/// Why a search run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TerminationReason {
    /// The target cost was reached: a solution was found.
    Solved,
    /// Every restart exhausted its iteration budget.
    IterationBudgetExhausted,
    /// The stop control's iteration bound was reached (another walk solved
    /// in at most as many iterations) or its kill flag was raised.
    ExternallyStopped,
    /// The wall-clock deadline attached to the stop control passed.
    TimedOut,
    /// The run died mid-search (panicking evaluator, stalled walk) and its
    /// outcome was synthesized by the supervision layer from whatever the
    /// walk had published before the fault.
    Faulted,
}

impl TerminationReason {
    /// Whether the run ended with a solution.
    #[must_use]
    pub fn is_solved(self) -> bool {
        matches!(self, TerminationReason::Solved)
    }
}

/// Counters accumulated by the engine over one call to
/// [`AdaptiveSearch::solve`](crate::AdaptiveSearch::solve) (all restarts
/// included).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchStats {
    /// Total engine iterations (variable selections) across all restarts.
    pub iterations: u64,
    /// Swaps actually performed (improving, sideways and forced).
    pub swaps: u64,
    /// Iterations that ended on a local minimum of the selected variable.
    pub local_minima: u64,
    /// Sideways (equal-cost) moves accepted.
    pub plateau_moves: u64,
    /// Worsening moves forced through `prob_select_local_min`.
    pub forced_moves: u64,
    /// Variables marked tabu.
    pub variables_marked: u64,
    /// Partial resets performed.
    pub resets: u64,
    /// Full restarts performed (0 = solved within the first try).
    pub restarts: u64,
    /// Calls to `cost_if_swap` (the dominant cost of an iteration).
    pub swap_evaluations: u64,
}

/// The complete outcome of one search run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SearchOutcome {
    /// Why the run ended.
    pub reason: TerminationReason,
    /// Best cost reached.
    pub best_cost: i64,
    /// The best permutation found (a solution iff `reason.is_solved()` and
    /// the target cost is 0).
    pub solution: Vec<usize>,
    /// Counters accumulated during the run.
    pub stats: SearchStats,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
}

impl SearchOutcome {
    /// Whether a solution (cost ≤ target) was found.
    #[must_use]
    pub fn solved(&self) -> bool {
        self.reason.is_solved()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reason_solved_predicate() {
        assert!(TerminationReason::Solved.is_solved());
        assert!(!TerminationReason::IterationBudgetExhausted.is_solved());
        assert!(!TerminationReason::ExternallyStopped.is_solved());
        assert!(!TerminationReason::TimedOut.is_solved());
        assert!(!TerminationReason::Faulted.is_solved());
    }

    #[test]
    fn outcome_serde_round_trip() {
        let o = SearchOutcome {
            reason: TerminationReason::ExternallyStopped,
            best_cost: 4,
            solution: vec![2, 0, 1],
            stats: SearchStats::default(),
            elapsed: Duration::from_millis(12),
        };
        let json = serde_json::to_string(&o).unwrap();
        let back: SearchOutcome = serde_json::from_str(&json).unwrap();
        assert_eq!(back.reason, TerminationReason::ExternallyStopped);
        assert_eq!(back.best_cost, 4);
        assert_eq!(back.solution, vec![2, 0, 1]);
    }
}
