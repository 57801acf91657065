//! # digs-fleet — plant-campus fleet simulation
//!
//! The paper simulates one network at a time; an operator runs a *fleet*:
//! dozens of plants, each with many independent DiGS networks, plus the
//! occasional site too large for a single 16-channel TSCH domain. This
//! crate simulates a whole campus in one invocation:
//!
//! - [`spec`] describes the fleet: groups of independent networks stamped
//!   out from scenario templates ([`spec::Template`]) with per-network
//!   seeds, plus spatially sharded single large networks
//!   ([`spec::ShardedSpec`]);
//! - [`runner`] fans the independent networks over the shared
//!   [`digs_pool`] executor (one simulation per worker, labeled panics,
//!   results in input order) and reduces each run to a
//!   [`runner::NetworkSummary`];
//! - [`shard`] runs one large network as strip-partitioned shards that
//!   each own their slot loop and exchange *boundary interference* state
//!   at slotframe-window edges: each shard's observed per-channel
//!   occupancy becomes an ambient-load jammer
//!   ([`digs_sim::interference::JammerKind::Ambient`]) installed in its
//!   neighbors, hash-gated so the exchange is deterministic and never
//!   perturbs any shard's random stream;
//! - [`aggregate`](mod@aggregate) merges the per-network summaries (latency histograms
//!   via [`digs_metrics::histogram::LogHistogram::merge`]) into a fleet
//!   SLO report — fleet-wide p50/p99 end-to-end latency, pooled PDR,
//!   health-alert and audit-violation network rates, worst-k networks —
//!   declared by `message!` rows that write it as canonical JSON
//!   (byte-identical for identical spec + seed; wall-clock timings are
//!   deliberately excluded) and read a saved one back.
//!
//! Surfaced as `digs-cli fleet run|report`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod runner;
pub mod shard;
pub mod spec;

pub use aggregate::{aggregate_partial, degrade_matching, render, FleetReport};
pub use runner::{
    fleet_tuned, run_fleet, run_network, summarize, DegradedRun, FleetObserver, FleetOutcome,
    NetworkSummary, RunPolicy,
};
pub use shard::ShardedOutcome;
pub use spec::{FleetGroup, FleetSpec, ShardedSpec, Template};
