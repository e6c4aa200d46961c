//! # cbls-perfmodel — runtime distributions and order statistics
//!
//! The paper measures independent multi-walk speedups on up to 256 cores.
//! Because the walks never communicate, the cost of a `p`-walk run is fully
//! determined by the *distribution* of the sequential cost: it is the
//! minimum of `p` independent draws.  This crate turns locally measured
//! sequential runs into the paper's speedups:
//!
//! * [`EmpiricalDistribution`] — the measured distribution of
//!   iterations-to-solution (or seconds), with exact order-statistics for the
//!   expected minimum of `p` draws;
//! * [`DistributionAccumulator`] — its online front half, which also quotes
//!   a batch's expected runtime ([`RuntimeQuote`]);
//! * [`orderstats`] — closed forms for the exponential and shifted
//!   exponential reference cases (linear vs. saturating speedup — the two
//!   regimes the paper observes);
//! * [`report`] — ASCII-table / CSV emission used by the bench binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod distribution;
pub mod orderstats;
pub mod report;

pub use distribution::{DistributionAccumulator, EmpiricalDistribution, RuntimeQuote};
