//! # cbls-perfmodel — empirical runtime distributions
//!
//! The paper measures independent multi-walk speedups on up to 256 cores.
//! Because the walks never communicate, the cost of a `p`-walk run is fully
//! determined by the *distribution* of the sequential cost: it is the
//! minimum of `p` independent draws.  This crate holds that distribution:
//!
//! * [`EmpiricalDistribution`] — the measured distribution of
//!   iterations-to-solution (or seconds), with the exact expected minimum
//!   of `p` draws;
//! * [`DistributionAccumulator`] — its online front half, which also quotes
//!   a batch's expected runtime as a [`RuntimeQuote`], the type of
//!   `cbls-service`'s admission quote.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod distribution;

pub use distribution::{DistributionAccumulator, EmpiricalDistribution, RuntimeQuote};
