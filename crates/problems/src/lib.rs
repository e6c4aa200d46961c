//! # cbls-problems — benchmark models for Adaptive Search
//!
//! The CSP models used by the PPoPP 2012 evaluation, implemented against the
//! [`cbls_core::Evaluator`] interface with incremental cost maintenance:
//!
//! * [`MagicSquare`] — CSPLib prob019 (Figures 1 and 2),
//! * [`AllInterval`] — CSPLib prob007 (Figures 1 and 2),
//! * [`PerfectSquare`] — CSPLib prob009 (Figures 1 and 2), encoded as a
//!   placement-order permutation with a bottom-left-fill decoder,
//! * [`CostasArray`] — the Costas Array Problem (Figure 3 and the headline
//!   "linear speedup" result),
//!
//! plus the other classical models shipped with the original Adaptive Search
//! C distribution, used for wider testing and the extension studies:
//!
//! * [`NQueens`] — permutation N-queens,
//! * [`Langford`] — Langford pairs L(2, n),
//! * [`AlphaCipher`] — the "alpha" cryptarithm (26 letters, 20 word sums).
//!
//! [`Benchmark`] is a small registry enumerating ready-made instances so the
//! harness, the examples and the figures can refer to problems by name.  It
//! also registers four benchmarks declared in the `cbls-model` layer rather
//! than hand-coded here — magic sequence, Golomb ruler, graph coloring on
//! generated instances, and quasigroup completion — which run unchanged
//! through the engine, every executor back-end and heterogeneous batches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod all_interval;
mod alpha;
mod catalog;
mod costas;
mod langford;
mod magic_square;
mod perfect_square;
mod queens;

pub use all_interval::AllInterval;
pub use alpha::AlphaCipher;
pub use catalog::{quasigroup_holes, Benchmark, GRAPH_COLORING_SEED, QUASIGROUP_SEED};
pub use costas::CostasArray;
pub use langford::Langford;
pub use magic_square::MagicSquare;
pub use perfect_square::{PerfectSquare, SquarePackingInstance};
pub use queens::NQueens;
