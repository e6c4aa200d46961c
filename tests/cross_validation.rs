//! Cross-validation between the two solver families: the local-search models
//! (`cbls-problems` + the Adaptive Search engine) and the propagation-based
//! baseline (`cbls-propagation`) must agree on what a solution is and on
//! which instances are satisfiable.

use parallel_cbls::prelude::*;
use parallel_cbls::propagation::SolveStatus;

#[test]
fn backtracking_solutions_have_zero_local_search_cost() {
    let solver = BacktrackingSolver::default();

    for n in [5usize, 7, 9] {
        let outcome = solver.solve(&CostasConstraint::new(n));
        let solution = outcome.solution.expect("costas instances are satisfiable");
        let mut evaluator = CostasArray::new(n);
        assert_eq!(evaluator.init(&solution), 0, "costas {n}");
        assert!(evaluator.verify(&solution));
    }

    for n in [6usize, 8, 10] {
        let outcome = solver.solve(&QueensConstraint::new(n));
        let solution = outcome.solution.expect("queens instances are satisfiable");
        let mut evaluator = NQueens::new(n);
        assert_eq!(evaluator.init(&solution), 0, "queens {n}");
        assert!(evaluator.verify(&solution));
    }

    for n in [5usize, 8, 11] {
        let outcome = solver.solve(&AllIntervalConstraint::new(n));
        let solution = outcome
            .solution
            .expect("all-interval instances are satisfiable");
        let mut evaluator = AllInterval::new(n);
        assert_eq!(evaluator.init(&solution), 0, "all-interval {n}");
        assert!(evaluator.verify(&solution));
    }

    for n in [3usize, 4, 7] {
        let outcome = solver.solve(&LangfordConstraint::new(n));
        let solution = outcome.solution.expect("satisfiable Langford order");
        let mut evaluator = Langford::new(n);
        assert_eq!(evaluator.init(&solution), 0, "langford {n}");
        assert!(evaluator.verify(&solution));
    }
}

#[test]
fn local_search_solutions_satisfy_the_propagation_constraints() {
    // The dual direction: a solution found by Adaptive Search must be
    // accepted, prefix by prefix, by the corresponding forward-checking
    // constraint.
    fn accepted_by<C: parallel_cbls::propagation::PermutationConstraint>(
        constraint: &C,
        solution: &[usize],
    ) -> bool {
        let mut prefix = Vec::new();
        for &value in solution {
            if !constraint.consistent(&prefix, value) {
                return false;
            }
            prefix.push(value);
        }
        true
    }

    let mut costas = CostasArray::new(11);
    let engine = AdaptiveSearch::tuned_for(&costas);
    let outcome = engine.solve(&mut costas, &mut default_rng(17));
    assert!(outcome.solved());
    assert!(accepted_by(&CostasConstraint::new(11), &outcome.solution));

    let mut queens = NQueens::new(24);
    let engine = AdaptiveSearch::tuned_for(&queens);
    let outcome = engine.solve(&mut queens, &mut default_rng(18));
    assert!(outcome.solved());
    assert!(accepted_by(&QueensConstraint::new(24), &outcome.solution));

    let mut interval = AllInterval::new(14);
    let engine = AdaptiveSearch::tuned_for(&interval);
    let outcome = engine.solve(&mut interval, &mut default_rng(19));
    assert!(outcome.solved());
    assert!(accepted_by(
        &AllIntervalConstraint::new(14),
        &outcome.solution
    ));
}

#[test]
fn both_solvers_agree_on_langford_satisfiability() {
    let solver = BacktrackingSolver::default();
    for n in 3usize..=8 {
        let exact = solver.solve(&LangfordConstraint::new(n)).status == SolveStatus::Satisfiable;
        let rule = Langford::new(n).is_satisfiable();
        assert_eq!(exact, rule, "L(2,{n})");

        // Local search can only confirm the positive direction (it is
        // incomplete), but it must never "solve" an unsatisfiable instance.
        let mut problem = Langford::new(n);
        let config = SearchConfig::builder()
            .max_iterations_per_restart(20_000)
            .max_restarts(5)
            .build();
        let outcome = AdaptiveSearch::new(config).solve(&mut problem, &mut default_rng(n as u64));
        if outcome.solved() {
            assert!(rule, "local search claimed to solve unsatisfiable L(2,{n})");
            assert!(problem.verify(&outcome.solution));
        }
    }
}

#[test]
fn costas_solution_counts_bound_local_search_diversity() {
    // The exact solver counts all Costas arrays of order 6; every solution
    // local search finds over several seeds must be one of them.
    let solver = BacktrackingSolver::default();
    let all = solver.count_solutions(&CostasConstraint::new(6), u64::MAX / 2);
    assert_eq!(all.solutions_found, 116);

    for seed in 0..6 {
        let mut problem = CostasArray::new(6);
        let engine = AdaptiveSearch::tuned_for(&problem);
        let outcome = engine.solve(&mut problem, &mut default_rng(seed));
        assert!(outcome.solved());
        assert!(problem.verify(&outcome.solution));
    }
}
