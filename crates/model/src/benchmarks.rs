//! Ready-made declarative models.
//!
//! Four benchmarks new to the workspace — [`magic_sequence`],
//! [`golomb_ruler`], [`graph_coloring`] and [`quasigroup_completion`] — plus
//! declarative remodels of N-Queens and All-Interval ([`n_queens`],
//! [`all_interval`]) that the differential tests pin bit-identical to the
//! hand-coded `cbls-problems` evaluators.
//!
//! Every constructor returns a plain [`ModelEvaluator`]; instance generation
//! (graphs, hole patterns) is a deterministic function of the declared
//! parameters, so two calls with the same arguments build the same problem
//! on every machine.

use as_rng::{default_rng, RandomSource};

use crate::{Model, ModelEvaluator, Term};

/// Magic sequence of order `n` (CSPLib prob005, permutation form): arrange
/// the fixed multiset `{n-4, 2, 1, 1, 0, …, 0}` so that slot `i` holds the
/// number of occurrences of value `i`.
///
/// The permutation encoding fixes the value multiset, so the occurrence
/// side of each counting constraint is decided by *where* the values sit —
/// the [`Term::count_matches`] channel plus the first-moment identity
/// `Σ i·x_i = n` drive the search.
///
/// # Panics
///
/// Panics if `n < 7` (the closed-form magic multiset needs `n ≥ 7`).
#[must_use]
pub fn magic_sequence(n: usize) -> ModelEvaluator {
    assert!(n >= 7, "magic sequence needs order >= 7");
    let mut vals: Vec<i64> = vec![0; n];
    vals[0] = n as i64 - 4;
    vals[1] = 2;
    vals[2] = 1;
    vals[3] = 1;
    Model::new(format!("magic-sequence-{n}"), vals)
        .term(Term::count_matches(0..n, (0..n).map(|v| (v as i64, v))))
        .term(Term::linear_eq((0..n).map(|i| (i, i as i64)), n as i64))
        .tuned_with(|cfg| {
            cfg.freeze_duration = 1;
            cfg.plateau_probability = 0.3;
            cfg.reset_fraction = 0.15;
            cfg.reset_limit = Some(3);
        })
        .verified_with(move |dv| {
            (0..n).all(|v| dv.iter().filter(|&&x| x == v as i64).count() as i64 == dv[v])
        })
        .build()
}

/// Shortest known length of an optimal Golomb ruler with `2..=8` marks.
const GOLOMB_OPTIMAL_LENGTH: [usize; 9] = [0, 0, 1, 3, 6, 11, 17, 25, 34];

/// Length of the optimal Golomb ruler with `marks` marks — the ruler length
/// [`golomb_ruler`] models (the instance has `length + 1` candidate
/// positions, i.e. decision variables).
///
/// # Panics
///
/// Panics unless `2 <= marks <= 8`.
#[must_use]
pub fn golomb_optimal_length(marks: usize) -> usize {
    assert!(
        (2..=8).contains(&marks),
        "golomb ruler supports 2..=8 marks, got {marks}"
    );
    GOLOMB_OPTIMAL_LENGTH[marks]
}

/// Golomb ruler with `marks` marks at the optimal length (CSPLib prob006):
/// choose `marks` of the positions `0..=length` so that all pairwise
/// distances are distinct.
///
/// The model is a permutation of the candidate positions whose first
/// `marks` slots are the chosen marks; the remaining slots are a reservoir
/// the engine swaps candidates in and out of.  One
/// [`Term::pairwise_distinct`] over the `C(marks, 2)` mark pairs is the
/// whole constraint system.
///
/// # Panics
///
/// Panics unless `2 <= marks <= 8` (the optimal lengths table).
#[must_use]
pub fn golomb_ruler(marks: usize) -> ModelEvaluator {
    assert!(
        (2..=8).contains(&marks),
        "golomb ruler supports 2..=8 marks, got {marks}"
    );
    golomb_ruler_with_length(marks, GOLOMB_OPTIMAL_LENGTH[marks])
}

/// [`golomb_ruler`] with an explicit ruler length (longer rulers are easier;
/// lengths below the optimum are unsatisfiable).
///
/// # Panics
///
/// Panics if fewer than two marks are requested or the ruler is shorter
/// than `marks - 1` (not enough distinct positions).
#[must_use]
pub fn golomb_ruler_with_length(marks: usize, length: usize) -> ModelEvaluator {
    assert!(marks >= 2, "a ruler needs at least two marks");
    // `length + 1` candidate positions must hold all the marks.
    assert!(
        length + 1 >= marks,
        "length {length} cannot hold {marks} marks"
    );
    let pairs = (0..marks).flat_map(|a| (a + 1..marks).map(move |b| (a, b)));
    Model::permutation(format!("golomb-{marks}-{length}"), length + 1)
        .term(Term::pairwise_distinct(pairs))
        .tuned_with(|cfg| {
            cfg.freeze_duration = 1;
            cfg.plateau_probability = 0.3;
            cfg.reset_fraction = 0.2;
            cfg.reset_limit = Some(2);
        })
        .verified_with(move |dv| {
            let mut seen = std::collections::HashSet::new();
            (0..marks).all(|a| (a + 1..marks).all(|b| seen.insert((dv[a] - dv[b]).abs())))
        })
        .build()
}

/// The deterministic planted-coloring instance behind [`graph_coloring`]:
/// nodes `0..nodes` in `colors` balanced groups (`node % colors`), and each
/// inter-group edge kept with probability ½ under a fixed seed.  Exposed so
/// tests and reports can inspect the exact edge set.
///
/// # Panics
///
/// Panics if `colors < 2` or `nodes < 2 * colors`.
#[must_use]
pub fn planted_graph(nodes: usize, colors: usize, seed: u64) -> Vec<(usize, usize)> {
    assert!(colors >= 2, "coloring needs at least two colors");
    assert!(
        nodes >= 2 * colors,
        "planted instances need at least two nodes per color"
    );
    let mut rng = default_rng(seed);
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for a in 0..nodes {
        for b in a + 1..nodes {
            if a % colors != b % colors && rng.bool_with_probability(0.5) {
                edges.push((a, b));
            }
        }
    }
    if edges.is_empty() {
        // Degenerate draw on tiny instances: keep the model well-formed with
        // one guaranteed inter-group edge.
        edges.push((0, 1));
    }
    edges
}

/// Graph coloring on a generated instance: color the [`planted_graph`] of
/// `(nodes, colors, seed)` with a balanced color multiset so that no edge is
/// monochromatic.
///
/// The planted groups guarantee a solution with exactly the modeled color
/// counts, so the instance is satisfiable by construction.  One
/// [`Term::min_separation`] (separation 1) over the edge list is the whole
/// constraint system.
///
/// # Panics
///
/// Panics if `colors < 2` or `nodes < 2 * colors`.
#[must_use]
pub fn graph_coloring(nodes: usize, colors: usize, seed: u64) -> ModelEvaluator {
    let edges = planted_graph(nodes, colors, seed);
    let vals: Vec<i64> = (0..nodes).map(|v| (v % colors) as i64).collect();
    let check_edges = edges.clone();
    Model::new(format!("graph-coloring-{nodes}-{colors}"), vals)
        .term(Term::min_separation(edges, 1))
        .tuned_with(|cfg| {
            cfg.freeze_duration = 2;
            cfg.plateau_probability = 0.5;
            cfg.reset_fraction = 0.1;
            cfg.reset_limit = Some(4);
        })
        .verified_with(move |dv| check_edges.iter().all(|&(a, b)| dv[a] != dv[b]))
        .build()
}

/// Quasigroup (Latin square) completion of the given order (CSPLib prob067
/// shape): a cyclic Latin square with `holes` cells punched out must be
/// refilled from the multiset of removed symbols so that every row and
/// column is again a permutation of the symbols.
///
/// The decision variables are the holes (row-major order); each row and
/// column with at least one hole contributes one
/// [`Term::all_different_with_fixed`] whose constant buckets are the
/// surviving pre-filled symbols.  Solvable by construction (the punched
/// solution refills it).
///
/// # Panics
///
/// Panics if `order < 3` or `holes` is not in `2..=order²`.
#[must_use]
pub fn quasigroup_completion(order: usize, holes: usize, seed: u64) -> ModelEvaluator {
    assert!(order >= 3, "quasigroup completion needs order >= 3");
    assert!(
        (2..=order * order).contains(&holes),
        "holes must be in 2..={} (got {holes})",
        order * order
    );
    let symbol = move |cell: usize| ((cell / order + cell % order) % order) as i64;
    let mut cells = default_rng(seed).sample_indices(order * order, holes);
    cells.sort_unstable();

    let vals: Vec<i64> = cells.iter().map(|&c| symbol(c)).collect();
    let hole_of = |cell: usize| cells.binary_search(&cell).ok();

    let mut model = Model::new(format!("qcp-{order}-{holes}"), vals);
    // One all-different per row and per column that lost at least one cell;
    // the surviving cells become constant buckets.
    for line in 0..2 * order {
        let cell_at = |k: usize| {
            if line < order {
                line * order + k // row `line`
            } else {
                k * order + (line - order) // column `line - order`
            }
        };
        let mut members = Vec::new();
        let mut fixed = Vec::new();
        for k in 0..order {
            let cell = cell_at(k);
            match hole_of(cell) {
                Some(var) => members.push((var, 1, 0)),
                None => fixed.push(symbol(cell)),
            }
        }
        if !members.is_empty() {
            model = model.term(Term::all_different_with_fixed(members, fixed));
        }
    }
    let check_cells = cells.clone();
    model
        .tuned_with(|cfg| {
            cfg.freeze_duration = 2;
            cfg.plateau_probability = 0.5;
            cfg.reset_fraction = 0.15;
            cfg.reset_limit = Some(3);
        })
        .verified_with(move |dv| {
            // Reconstruct the square and check both line families.
            let square: Vec<i64> = (0..order * order)
                .map(|cell| match check_cells.binary_search(&cell) {
                    Ok(var) => dv[var],
                    Err(_) => symbol(cell),
                })
                .collect();
            let latin = move |of: &dyn Fn(usize, usize) -> i64| {
                (0..order).all(|line| {
                    let mut seen = vec![false; order];
                    (0..order).all(|k| {
                        let v = of(line, k);
                        (0..order as i64).contains(&v)
                            && !std::mem::replace(&mut seen[v as usize], true)
                    })
                })
            };
            latin(&|r, c| square[r * order + c]) && latin(&|c, r| square[r * order + c])
        })
        .build()
}

/// Declarative N-Queens: a row permutation with the two diagonal families
/// as [`Term::all_different_offset`] terms.  Bit-identical — cost,
/// `cost_if_swap`, error projection, engine trajectory — to the hand-coded
/// `cbls_problems::NQueens`, including its tuned engine parameters; the
/// differential tests pin that equivalence.
///
/// # Panics
///
/// Panics if `n < 1`.
#[must_use]
// lint: allow(pub-item-has-caller) — the modelled side of tests/model_differential.rs
pub fn n_queens(n: usize) -> ModelEvaluator {
    assert!(n >= 1, "there must be at least one queen");
    Model::permutation("n-queens", n)
        .term(Term::all_different_offset((0..n).map(|c| (c, 1, c as i64))))
        .term(Term::all_different_offset(
            (0..n).map(|c| (c, -1, (c + n - 1) as i64)),
        ))
        .tuned_with(move |cfg| {
            cfg.freeze_duration = 2;
            cfg.plateau_probability = 0.5;
            cfg.reset_fraction = 0.1;
            cfg.reset_limit = Some((n / 10).max(2));
            cfg.max_iterations_per_restart = (n as u64 * 1_000).max(50_000);
        })
        .verified_with(move |dv| {
            (0..n).all(|a| {
                (a + 1..n).all(|b| {
                    let (a_i, b_i) = (a as i64, b as i64);
                    a_i + dv[b] != b_i + dv[a] && a_i + dv[a] != b_i + dv[b]
                })
            })
        })
        .build()
}

/// Declarative All-Interval Series: the adjacent differences of the series
/// as one [`Term::pairwise_distinct`] chain.  Bit-identical to the
/// hand-coded `cbls_problems::AllInterval` (see [`n_queens`] for what that
/// pins), including its tuned engine parameters.
///
/// # Panics
///
/// Panics if `n < 2`.
#[must_use]
pub fn all_interval(n: usize) -> ModelEvaluator {
    assert!(n >= 2, "all-interval series needs at least two elements");
    Model::permutation("all-interval", n)
        .term(Term::pairwise_distinct((0..n - 1).map(|i| (i, i + 1))))
        .tuned_with(move |cfg| {
            cfg.freeze_duration = 1;
            cfg.plateau_probability = 0.3;
            cfg.reset_fraction = 0.1;
            cfg.reset_limit = Some(3);
            cfg.prob_select_local_min = 0.0;
            cfg.max_iterations_per_restart = (n as u64).pow(3).max(50_000);
        })
        .verified_with(move |dv| {
            let mut seen = vec![false; n];
            (0..n - 1).all(|i| {
                let d = (dv[i] - dv[i + 1]).unsigned_abs() as usize;
                d >= 1 && d < n && !std::mem::replace(&mut seen[d], true)
            })
        })
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbls_core::{AdaptiveSearch, Evaluator};
    use cbls_testkit::{
        assert_no_default_hot_paths, check_error_projection, check_incremental_consistency,
        check_projection_cache,
    };

    fn solve_one(mut m: ModelEvaluator, seed: u64) {
        let engine = AdaptiveSearch::tuned_for(&m);
        let out = engine.solve(&mut m, &mut default_rng(seed));
        assert!(out.solved(), "{} not solved: {out:?}", m.name());
        assert!(m.verify(&out.solution), "{}: bogus solution", m.name());
    }

    #[test]
    fn all_benchmarks_pass_the_consistency_harness() {
        type Builder = Box<dyn Fn() -> ModelEvaluator>;
        let builders: Vec<Builder> = vec![
            Box::new(|| magic_sequence(9)),
            Box::new(|| golomb_ruler(4)),
            Box::new(|| graph_coloring(9, 3, 7)),
            Box::new(|| quasigroup_completion(5, 8, 3)),
            Box::new(|| n_queens(9)),
            Box::new(|| all_interval(9)),
        ];
        for (idx, build) in builders.iter().enumerate() {
            let seed = 8800 + idx as u64;
            check_incremental_consistency(build(), seed, 15);
            check_projection_cache(build(), seed + 50, 50);
            check_error_projection(build(), seed + 100, 15);
            assert_no_default_hot_paths(&build());
        }
    }

    #[test]
    fn magic_sequence_multiset_is_the_magic_one() {
        for n in [7usize, 10, 14] {
            let m = magic_sequence(n);
            assert_eq!(m.values().iter().sum::<i64>(), n as i64, "sum must be n");
            // The closed-form solution x = (n-4, 2, 1, 0, …, 0, 1, 0, 0, 0)
            // places table entries 0..=2 at slots 0..=2 and entry 3 (the
            // second `1`) at slot n-4; the zeros fill the rest.
            let mut perm = vec![usize::MAX; n];
            perm[0] = 0;
            perm[1] = 1;
            perm[2] = 2;
            perm[n - 4] = 3;
            for (next, slot) in (4..).zip(perm.iter_mut().filter(|s| **s == usize::MAX)) {
                *slot = next;
            }
            assert_eq!(m.cost(&perm), 0, "closed-form decode must be magic");
            assert!(m.verify(&perm));
        }
    }

    #[test]
    fn magic_sequence_solves() {
        for (n, seed) in [(7usize, 1u64), (10, 2), (12, 3)] {
            solve_one(magic_sequence(n), seed);
        }
    }

    #[test]
    fn golomb_known_ruler_is_a_solution() {
        // {0, 1, 4, 6} is a perfect 4-mark ruler of length 6.
        let m = golomb_ruler(4);
        assert_eq!(m.size(), 7);
        let perm: Vec<usize> = vec![0, 1, 4, 6, 2, 3, 5];
        assert_eq!(m.cost(&perm), 0);
        assert!(m.verify(&perm));
    }

    #[test]
    fn golomb_solves_at_small_orders() {
        for (marks, seed) in [(4usize, 11u64), (5, 12)] {
            solve_one(golomb_ruler(marks), seed);
        }
        solve_one(golomb_ruler_with_length(6, 20), 13);
    }

    #[test]
    fn golomb_supports_the_whole_documented_mark_range() {
        // Every documented order must at least build; the degenerate 2-mark
        // ruler ({0, 1}, no reservoir) regressed once on an off-by-one in
        // the capacity check.
        for marks in 2..=8 {
            let m = golomb_ruler(marks);
            assert_eq!(m.size(), golomb_optimal_length(marks) + 1);
        }
        // Two marks on a length-1 ruler: the single distance is trivially
        // distinct, so any arrangement solves.
        solve_one(golomb_ruler(2), 14);
        solve_one(golomb_ruler(3), 15);
    }

    #[test]
    fn planted_graph_is_deterministic_and_plantable() {
        let a = planted_graph(12, 3, 5);
        let b = planted_graph(12, 3, 5);
        assert_eq!(a, b, "same seed, same instance");
        assert_ne!(a, planted_graph(12, 3, 6), "seed changes the instance");
        // the planted coloring (node % colors) colors every edge properly
        assert!(a.iter().all(|&(x, y)| x % 3 != y % 3));
    }

    #[test]
    fn graph_coloring_solves() {
        for (nodes, colors, seed) in [(9usize, 3usize, 1u64), (12, 3, 2), (12, 4, 3)] {
            solve_one(graph_coloring(nodes, colors, seed), seed + 40);
        }
    }

    #[test]
    fn qcp_punched_solution_refills() {
        let order = 5;
        let m = quasigroup_completion(order, 8, 3);
        assert_eq!(m.size(), 8);
        // the identity permutation restores every punched symbol in place
        let identity: Vec<usize> = (0..8).collect();
        assert_eq!(m.cost(&identity), 0);
        assert!(m.verify(&identity));
    }

    #[test]
    fn qcp_solves() {
        for (order, holes, seed) in [(4usize, 6usize, 1u64), (5, 10, 2), (6, 12, 3)] {
            solve_one(quasigroup_completion(order, holes, seed), seed + 90);
        }
    }

    #[test]
    fn modeled_queens_and_all_interval_solve() {
        solve_one(n_queens(16), 5);
        solve_one(all_interval(10), 6);
    }

    #[test]
    #[should_panic(expected = "order >= 7")]
    fn magic_sequence_rejects_tiny_orders() {
        let _ = magic_sequence(6);
    }

    #[test]
    #[should_panic(expected = "2..=8 marks")]
    fn golomb_rejects_unknown_orders() {
        let _ = golomb_ruler(9);
    }

    #[test]
    #[should_panic(expected = "two nodes per color")]
    fn coloring_rejects_undersized_instances() {
        let _ = graph_coloring(5, 3, 1);
    }

    #[test]
    #[should_panic(expected = "holes must be in")]
    fn qcp_rejects_too_many_holes() {
        let _ = quasigroup_completion(3, 10, 1);
    }
}
