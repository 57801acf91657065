//! # digs-conformance — golden-run conformance harness
//!
//! Turns the DiGS reproduction's paper-figure scenarios into an enforced
//! regression suite:
//!
//! - [`matrix`] is the scenario catalogue — the one definition of every
//!   paper scenario (Figs. 4/5, 9–13, the three-way comparison, the chaos
//!   soak, the adversarial family, the ablations) — and the two gated
//!   matrices as ordered name lists over it, with shared immutable
//!   topology setup hoisted out of the per-seed loop;
//! - [`pool`] (the shared [`digs_pool`] crate, re-exported) fans the
//!   deterministic simulations out over the available cores (one run per
//!   worker, results in input order, panics labeled with scenario/seed);
//! - [`metrics`] reduces every run to a canonical [`metrics::RunMetrics`]
//!   JSON record — byte-identical for identical seed + config;
//! - [`golden`] aggregates per-scenario distributions (median, p90, min,
//!   max) and derives explicit per-metric tolerance bands for the
//!   checked-in `goldens/*.json` baselines;
//! - [`report`] compares fresh aggregates against a golden and renders
//!   the human-readable diff table;
//! - [`gate`] orchestrates the whole thing behind `digs-cli gate`.
//!
//! The [`json`] module (the shared [`digs_json`] crate, re-exported) is
//! the deterministic JSON writer/reader the records, goldens, and fleet
//! reports share (ordered fields, shortest round-trip float formatting,
//! `null` for absent metrics).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gate;
pub mod golden;
pub mod matrix;
pub mod metrics;
pub mod report;

/// The shared worker pool (promoted to its own crate so the gate, the
/// benchmarks, and the fleet runner share one executor); re-exported
/// under the historical `digs_conformance::pool` path.
pub use digs_pool as pool;

/// The deterministic JSON writer/reader (promoted to its own crate so
/// the fleet report shares it without a dependency cycle); re-exported
/// under the historical `digs_conformance::json` path.
pub use digs_json as json;

pub use gate::{run_gate, GateOptions, GateOutcome};
pub use matrix::{MatrixKind, ScenarioSpec};
pub use metrics::{MetricContext, RunMetrics};
