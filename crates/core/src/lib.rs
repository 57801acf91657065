//! # digs — Distributed Graph routing and autonomous Scheduling
//!
//! A from-scratch reproduction of **DiGS** (Shi, Sha, Yang — ICDCS 2018):
//! the first distributed graph-routing and autonomous-scheduling solution
//! for industrial wireless sensor-actuator networks, which lets every field
//! device compute its own WirelessHART-style graph routes (a primary and a
//! backup parent) and its own TSCH transmission schedule with no central
//! Network Manager.
//!
//! This crate wires the building blocks together and adds the experiment
//! harness used to regenerate every figure in the paper's evaluation:
//!
//! - [`stack`] — full per-node protocol stacks (DiGS and the Orchestra
//!   baseline) driving the [`digs_sim`] engine;
//! - [`flows`] — end-to-end data flows and flow-set generation;
//! - [`network`] — builds a network (topology + stacks + engine) from a
//!   [`config::NetworkConfig`] and runs it;
//! - [`results`] — per-flow and network-level metrics (PDR, latency, power
//!   per received packet, duty cycle, join time, repair time);
//! - [`scenarios`] — the paper's canonical setups (Testbed A/B,
//!   interference, node failure, 150-node large-scale), each a whole
//!   [`config::NetworkConfig`];
//! - [`experiment`] — the centralized baseline's recovery run and the
//!   windowed-PDR measurement.
//!
//! # Quickstart
//!
//! ```
//! use digs::config::{NetworkConfig, Protocol};
//! use digs::network::Network;
//!
//! // A small DiGS network on the Testbed A half-floor layout, one flow.
//! let config = NetworkConfig::builder(digs_sim::topology::Topology::testbed_a_half())
//!     .protocol(Protocol::Digs)
//!     .seed(7)
//!     .flows_from_sources(&[digs_sim::ids::NodeId(12)], 500)
//!     .build();
//! let mut network = Network::new(config);
//! network.run_secs(60);
//! let results = network.results();
//! assert!(results.network_pdr() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod config;
pub mod experiment;
pub mod flows;
pub mod network;
pub mod payload;
pub mod queue;
pub mod results;
pub mod scenarios;
pub mod stack;
pub mod telemetry;
pub mod timeline;
pub mod watchdog;

pub use config::{NetworkConfig, Protocol};
pub use network::{Network, RunObserver};
pub use results::RunResults;
