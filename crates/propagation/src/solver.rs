//! Chronological backtracking over permutations with forward checks.

use serde::{Deserialize, Serialize};

/// A permutation CSP described by an incremental consistency check.
///
/// The solver assigns variables in index order; a candidate value for
/// variable `depth` is accepted iff it has not been used by an earlier
/// variable (all-different, enforced by the solver) and
/// [`consistent`](PermutationConstraint::consistent) accepts it given the
/// already-assigned prefix.
pub trait PermutationConstraint: Send + Sync {
    /// Number of variables (and values) of the permutation.
    fn size(&self) -> usize;

    /// Whether assigning `value` to variable `prefix.len()` is consistent
    /// with the assigned prefix.
    fn consistent(&self, prefix: &[usize], value: usize) -> bool;

    /// Problem name for reports.
    fn name(&self) -> &str {
        "permutation-csp"
    }
}

/// Why the solver stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SolveStatus {
    /// A solution was found.
    Satisfiable,
    /// The full tree was exhausted without finding a solution.
    Unsatisfiable,
    /// The node budget ran out before the search finished.
    BudgetExhausted,
}

/// Result of a backtracking run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SolveOutcome {
    /// Final status.
    pub status: SolveStatus,
    /// The first solution found, if any.
    pub solution: Option<Vec<usize>>,
    /// Number of solutions found (only > 1 when counting).
    pub solutions_found: u64,
    /// Search-tree nodes visited (value assignments attempted).
    pub nodes: u64,
    /// Backtracks performed.
    pub backtracks: u64,
}

/// A chronological backtracking solver with a node budget.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BacktrackingSolver {
    /// Maximum number of nodes (assignment attempts) before giving up.
    pub max_nodes: u64,
}

impl Default for BacktrackingSolver {
    fn default() -> Self {
        Self {
            max_nodes: 50_000_000,
        }
    }
}

impl BacktrackingSolver {
    /// Create a solver with the given node budget.
    #[must_use]
    pub fn with_budget(max_nodes: u64) -> Self {
        assert!(max_nodes > 0, "the node budget must be positive");
        Self { max_nodes }
    }

    /// Find the first solution of `problem`.
    #[must_use]
    pub fn solve<C: PermutationConstraint + ?Sized>(&self, problem: &C) -> SolveOutcome {
        self.search(problem, 1)
    }

    /// Count up to `limit` solutions of `problem`.
    #[must_use]
    // lint: allow(pub-item-has-caller) — the exact counts of tests/cross_validation.rs
    pub fn count_solutions<C: PermutationConstraint + ?Sized>(
        &self,
        problem: &C,
        limit: u64,
    ) -> SolveOutcome {
        assert!(limit > 0, "the solution limit must be positive");
        self.search(problem, limit)
    }

    fn search<C: PermutationConstraint + ?Sized>(
        &self,
        problem: &C,
        solution_limit: u64,
    ) -> SolveOutcome {
        let n = problem.size();
        let mut outcome = SolveOutcome {
            status: SolveStatus::Unsatisfiable,
            solution: None,
            solutions_found: 0,
            nodes: 0,
            backtracks: 0,
        };
        if n == 0 {
            // the empty permutation is the unique (vacuous) solution
            outcome.status = SolveStatus::Satisfiable;
            outcome.solution = Some(Vec::new());
            outcome.solutions_found = 1;
            return outcome;
        }

        let mut prefix: Vec<usize> = Vec::with_capacity(n);
        let mut used = vec![false; n];
        // next value to try at each depth
        let mut cursor = vec![0usize; n + 1];

        loop {
            let depth = prefix.len();
            if depth == n {
                // full assignment: record the solution
                outcome.solutions_found += 1;
                if outcome.solution.is_none() {
                    outcome.solution = Some(prefix.clone());
                }
                outcome.status = SolveStatus::Satisfiable;
                if outcome.solutions_found >= solution_limit {
                    return outcome;
                }
                // backtrack to look for more
                let last = prefix.pop().expect("depth == n >= 1");
                used[last] = false;
                outcome.backtracks += 1;
                continue;
            }

            // try the next untested value at this depth
            let mut advanced = false;
            while cursor[depth] < n {
                let value = cursor[depth];
                cursor[depth] += 1;
                if used[value] {
                    continue;
                }
                outcome.nodes += 1;
                if outcome.nodes > self.max_nodes {
                    outcome.status = if outcome.solutions_found > 0 {
                        SolveStatus::Satisfiable
                    } else {
                        SolveStatus::BudgetExhausted
                    };
                    return outcome;
                }
                if problem.consistent(&prefix, value) {
                    prefix.push(value);
                    used[value] = true;
                    cursor[depth + 1] = 0;
                    advanced = true;
                    break;
                }
            }
            if advanced {
                continue;
            }

            // exhausted this depth: backtrack
            if depth == 0 {
                return outcome;
            }
            let last = prefix.pop().expect("depth > 0");
            used[last] = false;
            outcome.backtracks += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Accepts every permutation (only all-different applies).
    struct AnyPermutation(usize);
    impl PermutationConstraint for AnyPermutation {
        fn size(&self) -> usize {
            self.0
        }
        fn consistent(&self, _prefix: &[usize], _value: usize) -> bool {
            true
        }
    }

    /// Accepts nothing as soon as one variable is assigned.
    struct Impossible(usize);
    impl PermutationConstraint for Impossible {
        fn size(&self) -> usize {
            self.0
        }
        fn consistent(&self, _prefix: &[usize], _value: usize) -> bool {
            false
        }
    }

    #[test]
    fn counts_all_permutations() {
        let solver = BacktrackingSolver::default();
        let outcome = solver.count_solutions(&AnyPermutation(5), u64::MAX / 2);
        assert_eq!(outcome.solutions_found, 120);
        assert_eq!(outcome.status, SolveStatus::Satisfiable);
        assert_eq!(outcome.status, SolveStatus::Satisfiable);
    }

    #[test]
    fn finds_first_solution_quickly() {
        let solver = BacktrackingSolver::default();
        let outcome = solver.solve(&AnyPermutation(6));
        assert_eq!(outcome.status, SolveStatus::Satisfiable);
        assert_eq!(outcome.solution, Some(vec![0, 1, 2, 3, 4, 5]));
        assert_eq!(outcome.solutions_found, 1);
    }

    #[test]
    fn unsatisfiable_problems_are_reported() {
        let solver = BacktrackingSolver::default();
        let outcome = solver.solve(&Impossible(4));
        assert_ne!(outcome.status, SolveStatus::Satisfiable);
        assert_eq!(outcome.status, SolveStatus::Unsatisfiable);
        assert_eq!(outcome.solution, None);
        assert!(outcome.nodes > 0);
    }

    #[test]
    fn node_budget_is_respected() {
        // A budget smaller than the depth of the tree: no solution can be
        // completed before the budget runs out.
        let solver = BacktrackingSolver::with_budget(5);
        let outcome = solver.count_solutions(&AnyPermutation(8), u64::MAX / 2);
        assert_eq!(outcome.status, SolveStatus::BudgetExhausted);
        assert!(outcome.nodes <= 6);
        assert_eq!(outcome.solutions_found, 0);

        // With a budget that allows some solutions but not the full tree, the
        // run is cut short but still reports satisfiability.
        let solver = BacktrackingSolver::with_budget(100);
        let outcome = solver.count_solutions(&AnyPermutation(8), u64::MAX / 2);
        assert_eq!(outcome.status, SolveStatus::Satisfiable);
        assert!(outcome.solutions_found >= 1);
    }

    #[test]
    fn empty_problem_is_vacuously_satisfiable() {
        let solver = BacktrackingSolver::default();
        let outcome = solver.solve(&AnyPermutation(0));
        assert_eq!(outcome.status, SolveStatus::Satisfiable);
        assert_eq!(outcome.solution, Some(vec![]));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_budget_is_rejected() {
        let _ = BacktrackingSolver::with_budget(0);
    }
}
