//! Forward-checking constraints for the benchmark models.

use crate::solver::PermutationConstraint;

/// N-Queens: no two queens on the same diagonal (rows/columns are handled by
/// the permutation structure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueensConstraint {
    n: usize,
}

impl QueensConstraint {
    /// Create an `n`-queens constraint.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self { n }
    }
}

impl PermutationConstraint for QueensConstraint {
    fn size(&self) -> usize {
        self.n
    }

    fn consistent(&self, prefix: &[usize], value: usize) -> bool {
        let col = prefix.len();
        prefix.iter().enumerate().all(|(c, &row)| {
            let dc = col - c;
            row.abs_diff(value) != dc
        })
    }

    fn name(&self) -> &str {
        "n-queens"
    }
}

/// Costas arrays: all difference vectors distinct — incrementally, for every
/// distance `d`, the new difference `value − prefix[col−d]` must not already
/// occur at distance `d`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostasConstraint {
    n: usize,
}

impl CostasConstraint {
    /// Create a Costas constraint of order `n`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self { n }
    }
}

impl PermutationConstraint for CostasConstraint {
    fn size(&self) -> usize {
        self.n
    }

    fn consistent(&self, prefix: &[usize], value: usize) -> bool {
        let col = prefix.len();
        // For each distance d ending at the new column, the difference must
        // be new among the differences at that distance.
        for d in 1..=col {
            let new_diff = value as i64 - prefix[col - d] as i64;
            // compare against every earlier pair at distance d
            for hi in d..col {
                let old_diff = prefix[hi] as i64 - prefix[hi - d] as i64;
                if old_diff == new_diff {
                    return false;
                }
            }
        }
        true
    }

    fn name(&self) -> &str {
        "costas-array"
    }
}

/// All-interval series: adjacent differences must all be distinct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllIntervalConstraint {
    n: usize,
}

impl AllIntervalConstraint {
    /// Create an all-interval constraint of size `n`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self { n }
    }
}

impl PermutationConstraint for AllIntervalConstraint {
    fn size(&self) -> usize {
        self.n
    }

    fn consistent(&self, prefix: &[usize], value: usize) -> bool {
        let col = prefix.len();
        if col == 0 {
            return true;
        }
        let new_diff = prefix[col - 1].abs_diff(value);
        if new_diff == 0 {
            return false;
        }
        // the new adjacent difference must not repeat an earlier one
        (1..col).all(|i| prefix[i - 1].abs_diff(prefix[i]) != new_diff)
    }

    fn name(&self) -> &str {
        "all-interval"
    }
}

/// Langford pairs L(2, n) in the slot-content encoding: the permutation maps
/// items (two per number) to slots; here we use the direct CSP formulation
/// where variable `2k`/`2k+1` are the slots of the two copies of number
/// `k+1`, and the copies must sit `k + 2` slots apart with the first copy
/// before the second.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LangfordConstraint {
    n: usize,
}

impl LangfordConstraint {
    /// Create an L(2, n) constraint.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self { n }
    }
}

impl PermutationConstraint for LangfordConstraint {
    fn size(&self) -> usize {
        2 * self.n
    }

    fn consistent(&self, prefix: &[usize], value: usize) -> bool {
        let item = prefix.len();
        let number = item / 2; // 0-based number index
        if item % 2 == 0 {
            // first copy: always locally consistent (the gap is checked when
            // the second copy is placed), but prune symmetric duplicates by
            // requiring room for the second copy
            value + number + 2 < 2 * self.n || {
                // the partner slot would overflow: check the other direction
                value >= number + 2
            }
        } else {
            // second copy: must be exactly number + 2 slots away from the
            // first copy
            let first = prefix[item - 1];
            first.abs_diff(value) == number + 2
        }
    }

    fn name(&self) -> &str {
        "langford"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{BacktrackingSolver, SolveStatus};

    #[test]
    fn queens_solution_counts_match_the_literature() {
        let solver = BacktrackingSolver::default();
        // (n, number of solutions)
        for (n, count) in [(4usize, 2u64), (5, 10), (6, 4), (7, 40), (8, 92)] {
            let outcome = solver.count_solutions(&QueensConstraint::new(n), u64::MAX / 2);
            assert_eq!(outcome.solutions_found, count, "n = {n}");
        }
    }

    #[test]
    fn costas_counts_match_the_literature() {
        let solver = BacktrackingSolver::default();
        // Known counts of Costas arrays (including symmetries).
        for (n, count) in [(1usize, 1u64), (2, 2), (3, 4), (4, 12), (5, 40), (6, 116)] {
            let outcome = solver.count_solutions(&CostasConstraint::new(n), u64::MAX / 2);
            assert_eq!(outcome.solutions_found, count, "n = {n}");
        }
    }

    #[test]
    fn costas_solutions_satisfy_the_definition() {
        let solver = BacktrackingSolver::default();
        let outcome = solver.solve(&CostasConstraint::new(7));
        let perm = outcome.solution.expect("costas 7 exists");
        // check all difference vectors distinct per distance
        let n = perm.len();
        for d in 1..n {
            let mut seen = std::collections::HashSet::new();
            for i in 0..n - d {
                let diff = perm[i + d] as i64 - perm[i] as i64;
                assert!(seen.insert(diff), "duplicate difference at distance {d}");
            }
        }
    }

    #[test]
    fn all_interval_solutions_have_distinct_intervals() {
        let solver = BacktrackingSolver::default();
        for n in [3usize, 5, 8, 10] {
            let outcome = solver.solve(&AllIntervalConstraint::new(n));
            let perm = outcome
                .solution
                .unwrap_or_else(|| panic!("AIS({n}) exists"));
            let mut seen = std::collections::HashSet::new();
            for w in perm.windows(2) {
                assert!(seen.insert(w[0].abs_diff(w[1])));
            }
        }
    }

    #[test]
    fn langford_satisfiability_follows_the_rule() {
        let solver = BacktrackingSolver::default();
        for (n, satisfiable) in [(3usize, true), (4, true), (5, false), (6, false), (7, true)] {
            let outcome = solver.solve(&LangfordConstraint::new(n));
            assert_eq!(
                outcome.status == SolveStatus::Satisfiable,
                satisfiable,
                "L(2,{n})"
            );
        }
    }

    #[test]
    fn langford_solutions_have_correct_gaps() {
        let solver = BacktrackingSolver::default();
        let outcome = solver.solve(&LangfordConstraint::new(4));
        let perm = outcome.solution.expect("L(2,4) exists");
        for k in 0..4 {
            assert_eq!(
                perm[2 * k].abs_diff(perm[2 * k + 1]),
                k + 2,
                "number {}",
                k + 1
            );
        }
    }

    #[test]
    fn queens_first_solution_is_valid() {
        let solver = BacktrackingSolver::default();
        let outcome = solver.solve(&QueensConstraint::new(10));
        let perm = outcome.solution.expect("10-queens exists");
        for a in 0..10 {
            for b in a + 1..10 {
                assert_ne!(perm[a].abs_diff(perm[b]), b - a);
            }
        }
    }

    #[test]
    fn exponential_growth_is_observable() {
        // The baseline's node counts grow sharply with n — the quantitative
        // form of the paper's "beyond the reach of propagation-based solvers".
        let solver = BacktrackingSolver::default();
        let nodes_10 = solver.solve(&CostasConstraint::new(10)).nodes;
        let nodes_12 = solver.solve(&CostasConstraint::new(12)).nodes;
        assert!(nodes_12 > nodes_10);
    }
}
