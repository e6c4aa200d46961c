//! A registry of ready-made benchmark instances.
//!
//! The `speedup` and `throughput` binaries, the `cbls-trace` CLI, the solve
//! service, the examples and the integration tests all need to refer to "the
//! benchmarks of the paper" by name and size; [`Benchmark`] centralizes that
//! mapping so that an experiment description (e.g. `magic-square-20`)
//! resolves to the same instance everywhere.

use cbls_core::{AdaptiveSearch, Evaluator, SearchConfig};
use cbls_model::benchmarks as model_benchmarks;
use serde::{Deserialize, Serialize};

use crate::{
    AllInterval, AlphaCipher, CostasArray, Langford, MagicSquare, NQueens, PerfectSquare,
    SquarePackingInstance,
};

/// Seed of the generated [`Benchmark::GraphColoring`] instances: together
/// with `(nodes, colors)` it fully determines the planted edge set, so the
/// same catalog entry names the same graph everywhere.
pub const GRAPH_COLORING_SEED: u64 = 0xC01;

/// Seed of the [`Benchmark::QuasigroupCompletion`] hole pattern.
pub const QUASIGROUP_SEED: u64 = 0x9C9;

/// Number of punched cells of the [`Benchmark::QuasigroupCompletion`]
/// instance of a given order: 40% of the square, the classically hard
/// completion density, floored at two so a swap always exists.
#[must_use]
pub fn quasigroup_holes(order: usize) -> usize {
    (order * order * 2 / 5).max(2)
}

/// A named benchmark instance from the paper's evaluation (or from the wider
/// Adaptive Search distribution).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Benchmark {
    /// Magic Square of the given order (CSPLib prob019).
    MagicSquare(usize),
    /// All-Interval Series of the given length (CSPLib prob007).
    AllInterval(usize),
    /// Perfect Square placement, CSPLib prob009 order-21 instance.
    PerfectSquareCsplib,
    /// Perfect square placement, the small order-9 squared rectangle.
    PerfectSquareOrder9,
    /// Costas Array Problem of the given order.
    CostasArray(usize),
    /// N-Queens of the given order.
    NQueens(usize),
    /// Langford pairs L(2, n).
    Langford(usize),
    /// The standard alpha cryptarithm.
    Alpha,
    /// Magic sequence of the given order, declared in the `cbls-model`
    /// layer (CSPLib prob005, permutation form; order >= 7).
    MagicSequence(usize),
    /// Golomb ruler with the given number of marks (2..=8) at the optimal
    /// length, declared in the `cbls-model` layer (CSPLib prob006).
    GolombRuler(usize),
    /// Graph coloring on a generated planted instance with the given node
    /// and color counts, declared in the `cbls-model` layer (the edge set is
    /// fixed by [`GRAPH_COLORING_SEED`]).
    GraphColoring {
        /// Number of nodes (at least `2 * colors`).
        nodes: usize,
        /// Number of colors (at least 2).
        colors: usize,
    },
    /// Quasigroup completion of the given order with the
    /// [`quasigroup_holes`] hole pattern, declared in the `cbls-model`
    /// layer (CSPLib prob067 shape).
    QuasigroupCompletion(usize),
}

impl Benchmark {
    /// The three CSPLib benchmarks of Figures 1 and 2, at the scaled-down
    /// sizes used by the reproduction harness.
    #[must_use]
    pub fn csplib_suite() -> Vec<Benchmark> {
        vec![
            Benchmark::AllInterval(16),
            Benchmark::PerfectSquareOrder9,
            Benchmark::MagicSquare(6),
        ]
    }

    /// Stable, file-system-friendly identifier (used in CSV output).
    #[must_use]
    pub fn id(&self) -> String {
        match self {
            Benchmark::MagicSquare(n) => format!("magic-square-{n}"),
            Benchmark::AllInterval(n) => format!("all-interval-{n}"),
            Benchmark::PerfectSquareCsplib => "perfect-square-csplib21".to_string(),
            Benchmark::PerfectSquareOrder9 => "perfect-square-order9".to_string(),
            Benchmark::CostasArray(n) => format!("costas-{n}"),
            Benchmark::NQueens(n) => format!("queens-{n}"),
            Benchmark::Langford(n) => format!("langford-{n}"),
            Benchmark::Alpha => "alpha".to_string(),
            Benchmark::MagicSequence(n) => format!("magic-sequence-{n}"),
            Benchmark::GolombRuler(m) => format!("golomb-{m}"),
            Benchmark::GraphColoring { nodes, colors } => format!("coloring-{nodes}x{colors}"),
            Benchmark::QuasigroupCompletion(q) => format!("qcp-{q}"),
        }
    }

    /// Parse a [`Benchmark::id`] string back into a benchmark — the inverse
    /// of `id()` for every variant that [`build`](Self::build) accepts, used
    /// by the CLI tools to accept `--bench costas-14`-style selectors and by
    /// the solve service to admit requests.
    ///
    /// Returns `None` for unknown families, malformed size suffixes and sizes
    /// outside the range that the family's constructor asserts, so a parsed
    /// id never panics in `build` on its size.  A size inside that range can
    /// still be too large to allocate.
    #[must_use]
    pub fn from_id(id: &str) -> Option<Self> {
        Self::parse_id(id).filter(Self::accepts_size)
    }

    /// The shape half of [`from_id`](Self::from_id): the family and its size
    /// suffix, unchecked against the constructors' ranges.
    fn parse_id(id: &str) -> Option<Self> {
        let fixed = match id {
            "perfect-square-csplib21" => Some(Benchmark::PerfectSquareCsplib),
            "perfect-square-order9" => Some(Benchmark::PerfectSquareOrder9),
            "alpha" => Some(Benchmark::Alpha),
            _ => None,
        };
        if fixed.is_some() {
            return fixed;
        }
        if let Some(size) = id.strip_prefix("coloring-") {
            let (nodes, colors) = size.split_once('x')?;
            return Some(Benchmark::GraphColoring {
                nodes: nodes.parse().ok()?,
                colors: colors.parse().ok()?,
            });
        }
        type SizedCtor = fn(usize) -> Benchmark;
        let sized: &[(&str, SizedCtor)] = &[
            ("magic-square-", Benchmark::MagicSquare),
            ("all-interval-", Benchmark::AllInterval),
            ("costas-", Benchmark::CostasArray),
            ("queens-", Benchmark::NQueens),
            ("langford-", Benchmark::Langford),
            ("magic-sequence-", Benchmark::MagicSequence),
            ("golomb-", Benchmark::GolombRuler),
            ("qcp-", Benchmark::QuasigroupCompletion),
        ];
        for (prefix, make) in sized {
            if let Some(rest) = id.strip_prefix(prefix) {
                return Some(make(rest.parse().ok()?));
            }
        }
        None
    }

    /// Human-readable label matching the names used in the paper's figures.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            Benchmark::MagicSquare(n) => format!("magic-square {n}x{n}"),
            Benchmark::AllInterval(n) => format!("all-interval {n}"),
            Benchmark::PerfectSquareCsplib => "perfect-square (CSPLib 21)".to_string(),
            Benchmark::PerfectSquareOrder9 => "perfect-square (order 9)".to_string(),
            Benchmark::CostasArray(n) => format!("costas array {n}"),
            Benchmark::NQueens(n) => format!("{n}-queens"),
            Benchmark::Langford(n) => format!("langford L(2,{n})"),
            Benchmark::Alpha => "alpha cipher".to_string(),
            Benchmark::MagicSequence(n) => format!("magic sequence {n}"),
            Benchmark::GolombRuler(m) => format!("golomb ruler {m} marks"),
            Benchmark::GraphColoring { nodes, colors } => {
                format!("graph coloring {nodes} nodes / {colors} colors")
            }
            Benchmark::QuasigroupCompletion(q) => format!("quasigroup completion {q}x{q}"),
        }
    }

    /// Number of decision variables of the instance.
    #[must_use]
    pub fn variables(&self) -> usize {
        match self {
            Benchmark::MagicSquare(n) => n * n,
            Benchmark::AllInterval(n) | Benchmark::CostasArray(n) | Benchmark::NQueens(n) => *n,
            Benchmark::PerfectSquareCsplib => 21,
            Benchmark::PerfectSquareOrder9 => 9,
            Benchmark::Langford(n) => 2 * n,
            Benchmark::Alpha => crate::alpha::ALPHABET,
            Benchmark::MagicSequence(n) => *n,
            Benchmark::GolombRuler(m) => model_benchmarks::golomb_optimal_length(*m) + 1,
            Benchmark::GraphColoring { nodes, .. } => *nodes,
            Benchmark::QuasigroupCompletion(q) => quasigroup_holes(*q),
        }
    }

    /// Build a fresh evaluator for this benchmark.
    #[must_use]
    pub fn build(&self) -> Box<dyn Evaluator> {
        match self {
            Benchmark::MagicSquare(n) => Box::new(MagicSquare::new(*n)),
            Benchmark::AllInterval(n) => Box::new(AllInterval::new(*n)),
            Benchmark::PerfectSquareCsplib => {
                Box::new(PerfectSquare::new(SquarePackingInstance::csplib_order21()))
            }
            Benchmark::PerfectSquareOrder9 => Box::new(PerfectSquare::order9()),
            Benchmark::CostasArray(n) => Box::new(CostasArray::new(*n)),
            Benchmark::NQueens(n) => Box::new(NQueens::new(*n)),
            Benchmark::Langford(n) => Box::new(Langford::new(*n)),
            Benchmark::Alpha => Box::new(AlphaCipher::standard()),
            Benchmark::MagicSequence(n) => Box::new(model_benchmarks::magic_sequence(*n)),
            Benchmark::GolombRuler(m) => Box::new(model_benchmarks::golomb_ruler(*m)),
            Benchmark::GraphColoring { nodes, colors } => Box::new(
                model_benchmarks::graph_coloring(*nodes, *colors, GRAPH_COLORING_SEED),
            ),
            Benchmark::QuasigroupCompletion(q) => Box::new(
                model_benchmarks::quasigroup_completion(*q, quasigroup_holes(*q), QUASIGROUP_SEED),
            ),
        }
    }

    /// Whether this benchmark's constructor accepts its size.  One arm per
    /// family, each the range that the constructor's `assert!` (or
    /// `expect`) checks, so that [`from_id`](Self::from_id) refuses an id
    /// that [`build`](Self::build) would panic on.
    fn accepts_size(&self) -> bool {
        match *self {
            // `MagicSquare::new`, `CostasArray::new`, `NQueens::new` and
            // `Langford::new`.
            Benchmark::MagicSquare(n)
            | Benchmark::CostasArray(n)
            | Benchmark::NQueens(n)
            | Benchmark::Langford(n) => n >= 1,
            // `AllInterval::new`.
            Benchmark::AllInterval(n) => n >= 2,
            // `cbls_model::benchmarks::magic_sequence`.
            Benchmark::MagicSequence(n) => n >= 7,
            // `golomb_ruler`: the optimal lengths it knows.
            Benchmark::GolombRuler(marks) => (2..=8).contains(&marks),
            // `planted_graph`: `colors >= 2` and `nodes >= 2 * colors`,
            // written so that the product cannot overflow.
            Benchmark::GraphColoring { nodes, colors } => colors >= 2 && nodes / 2 >= colors,
            // `quasigroup_completion`.
            Benchmark::QuasigroupCompletion(order) => order >= 3,
            Benchmark::PerfectSquareCsplib | Benchmark::PerfectSquareOrder9 | Benchmark::Alpha => {
                true
            }
        }
    }

    /// The problem-tuned search configuration for this benchmark.
    #[must_use]
    pub fn tuned_config(&self) -> SearchConfig {
        let evaluator = self.build();
        let mut config = SearchConfig::default();
        evaluator.tune(&mut config);
        config
    }

    /// A ready-to-run engine with the benchmark's tuned configuration.
    #[must_use]
    pub fn engine(&self) -> AdaptiveSearch {
        AdaptiveSearch::new(self.tuned_config())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use as_rng::default_rng;

    #[test]
    fn from_id_round_trips_every_variant() {
        let all = [
            Benchmark::MagicSquare(10),
            Benchmark::AllInterval(50),
            Benchmark::PerfectSquareCsplib,
            Benchmark::PerfectSquareOrder9,
            Benchmark::CostasArray(14),
            Benchmark::NQueens(64),
            Benchmark::Langford(12),
            Benchmark::Alpha,
            Benchmark::MagicSequence(30),
            Benchmark::GolombRuler(8),
            Benchmark::GraphColoring {
                nodes: 60,
                colors: 3,
            },
            Benchmark::QuasigroupCompletion(10),
        ];
        for bench in all {
            let id = bench.id();
            assert_eq!(
                Benchmark::from_id(&id),
                Some(bench),
                "id {id} does not round-trip"
            );
        }
    }

    #[test]
    fn from_id_rejects_malformed_selectors() {
        for bad in [
            "",
            "costas",
            "costas-",
            "costas-x",
            "costas-14-2",
            "unknown-9",
            "coloring-60",
            "coloring-x3",
            "coloring-60x",
            "perfect-square-order10",
            "partition-8",
            // Sizes outside the constructors' ranges.
            "queens-0",
            "magic-square-0",
            "costas-0",
            "all-interval-0",
            "all-interval-1",
            "golomb-1",
            "golomb-9",
            "coloring-3x2",
            "coloring-4x1",
            "qcp-0",
            "qcp-1",
            "qcp-2",
            "magic-sequence-3",
            "magic-sequence-6",
        ] {
            assert_eq!(Benchmark::from_id(bad), None, "{bad:?} must not parse");
        }
    }

    #[test]
    fn the_smallest_accepted_size_of_each_family_parses_and_builds() {
        for id in [
            "magic-square-1",
            "costas-1",
            "queens-1",
            "langford-1",
            "all-interval-2",
            "magic-sequence-7",
            "golomb-2",
            "golomb-8",
            "coloring-4x2",
            "qcp-3",
        ] {
            let bench = Benchmark::from_id(id).unwrap_or_else(|| panic!("{id} must parse"));
            assert_eq!(bench.id(), id);
            assert_eq!(bench.build().size(), bench.variables(), "{id}");
        }
    }

    fn all_small_benchmarks() -> Vec<Benchmark> {
        vec![
            Benchmark::MagicSquare(4),
            Benchmark::AllInterval(10),
            Benchmark::PerfectSquareOrder9,
            Benchmark::CostasArray(8),
            Benchmark::NQueens(10),
            Benchmark::Langford(4),
            Benchmark::Alpha,
            Benchmark::MagicSequence(9),
            Benchmark::GolombRuler(4),
            Benchmark::GraphColoring {
                nodes: 9,
                colors: 3,
            },
            Benchmark::QuasigroupCompletion(5),
        ]
    }

    #[test]
    fn no_catalog_problem_falls_back_to_default_probe_paths() {
        // Every catalog problem must provide scratch-buffer `cost`,
        // incremental `cost_if_swap`/`executed_swap`, and either dirty-set
        // tracking or a batched projection — and the claims must hold up
        // under a randomized swap sequence, checked through the trait-object
        // forwarding layer the registry hands out.
        for (idx, b) in all_small_benchmarks().into_iter().enumerate() {
            let evaluator = b.build();
            cbls_testkit::assert_no_default_hot_paths(evaluator.as_ref());
            cbls_testkit::check_projection_cache(evaluator, 3100 + idx as u64, 40);
        }
    }

    #[test]
    fn ids_and_labels_are_unique() {
        let benches = all_small_benchmarks();
        let ids: std::collections::HashSet<_> = benches.iter().map(Benchmark::id).collect();
        let labels: std::collections::HashSet<_> = benches.iter().map(Benchmark::label).collect();
        assert_eq!(ids.len(), benches.len());
        assert_eq!(labels.len(), benches.len());
    }

    #[test]
    fn variables_match_built_evaluators() {
        for b in all_small_benchmarks() {
            let e = b.build();
            assert_eq!(e.size(), b.variables(), "benchmark {}", b.id());
        }
    }

    #[test]
    fn csplib_suite_matches_the_papers_benchmarks() {
        let suite = Benchmark::csplib_suite();
        assert_eq!(suite.len(), 3);
        let labels: Vec<String> = suite.iter().map(Benchmark::label).collect();
        assert!(labels.iter().any(|l| l.contains("all-interval")));
        assert!(labels.iter().any(|l| l.contains("perfect-square")));
        assert!(labels.iter().any(|l| l.contains("magic-square")));
    }

    #[test]
    fn boxed_evaluators_solve_through_the_engine() {
        // The registry must produce evaluators usable as trait objects.
        for b in [
            Benchmark::NQueens(10),
            Benchmark::CostasArray(7),
            Benchmark::Langford(4),
            Benchmark::MagicSequence(8),
            Benchmark::GolombRuler(4),
        ] {
            let mut evaluator = b.build();
            let engine = b.engine();
            let out = engine.solve(&mut evaluator, &mut default_rng(42));
            assert!(out.solved(), "{} not solved", b.id());
            assert!(evaluator.verify(&out.solution));
        }
    }

    #[test]
    fn serde_round_trip() {
        for b in all_small_benchmarks() {
            let json = serde_json::to_string(&b).unwrap();
            let back: Benchmark = serde_json::from_str(&json).unwrap();
            assert_eq!(b, back);
        }
    }

    #[test]
    fn tuned_config_is_valid() {
        for b in all_small_benchmarks() {
            assert!(b.tuned_config().validate().is_ok(), "{}", b.id());
        }
    }
}
