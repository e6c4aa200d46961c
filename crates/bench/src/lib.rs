//! # cbls-bench — the experiment harness
//!
//! Shared machinery of the binaries (`src/bin/*`) and the `cargo bench`
//! targets: the paper's speedup tables from one sample of sequential runs
//! per benchmark, printed as ASCII and written as CSV by [`report::Table`],
//! and the engine throughput gates.
//!
//! | paper artefact | binary | bench target |
//! |----------------|--------|--------------|
//! | Figures 1–3, headline claim, size trend, CAP hardness vs backtracking | `speedup` | — |
//! | engine iteration throughput and its floors | `throughput` | — |
//! | engine micro-costs                       | —                 | `engine_micro` |
//! | design-choice ablations                  | —                 | `ablation` |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;
pub mod speedup;
pub mod throughput;
