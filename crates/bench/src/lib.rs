//! # cbls-bench — the experiment harness
//!
//! Shared machinery of the binaries (`src/bin/*`) and the `cargo bench`
//! targets: the paper's speedup tables from one sample of sequential runs
//! per benchmark, the portfolio experiment, engine throughput and service
//! load measurements.
//!
//! | paper artefact | binary | bench target |
//! |----------------|--------|--------------|
//! | Figures 1–3, headline claim, size trend, CAP hardness vs backtracking | `speedup` | `baseline` (hardness micro-timings) |
//! | restart-schedule portfolio, predicted vs observed | `portfolio_speedup` | — |
//! | engine iteration throughput trajectory   | `throughput`      | — |
//! | engine micro-costs                       | —                 | `engine_micro` |
//! | design-choice ablations                  | —                 | `ablation` |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod portfolio;
pub mod service_load;
pub mod speedup;
pub mod throughput;

pub use service_load::{measure_service_throughput, ServiceThroughputResult};
pub use throughput::{EngineThroughputReport, ThroughputConfig};
