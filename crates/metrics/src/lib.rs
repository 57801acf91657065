//! # digs-metrics — statistics toolkit for the DiGS reproduction
//!
//! Small, dependency-light statistics used by the experiment harness and
//! `digs-cli figures`: summary statistics ([`Summary`]), empirical CDFs
//! ([`Cdf`]) for the order statistics the paper's figures quote, and the
//! normal-approximation interval around a mean
//! ([`stats::mean_confidence_interval`]).
//!
//! The telemetry layer builds on the same crate: a named-metric
//! [`Registry`] of monotonic [`Counter`]s and [`Gauge`]s, deterministic
//! log-bucketed [`LogHistogram`]s, and the one-pass [`StreamingSummary`]
//! used where buffering full sample vectors would defeat the point of
//! epoch sampling.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod histogram;
pub mod registry;
pub mod stats;

pub use histogram::LogHistogram;
pub use registry::{Counter, Gauge, Registry};
pub use stats::{Cdf, ConfidenceInterval, StreamingSummary, Summary};
