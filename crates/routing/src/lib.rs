//! # digs-routing — distributed graph routing for industrial WSANs
//!
//! This crate implements the routing layer of the DiGS (ICDCS 2018)
//! reproduction:
//!
//! - [`etx`] — per-link expected-transmission-count estimation, initialised
//!   from received signal strength exactly as the paper specifies (-60 dBm →
//!   ETX 1, -90 dBm → ETX 3, linear in between) and penalised on missed
//!   acknowledgements;
//! - [`trickle`] — the Trickle timer (RFC 6206) governing join-in / DIO
//!   emission;
//! - [`messages`] — the join-in and DIO wire messages;
//! - [`neighbor`] — the neighbor table shared by both protocols;
//! - [`digs`] — **the paper's contribution**: the distributed graph routing
//!   state machine of Algorithm 1, in which every field device selects a
//!   best and a second-best parent toward the access points, computes its
//!   weighted ETX (Eq. 1–3), and announces itself via Trickle-paced join-in
//!   broadcasts;
//! - [`rpl`] — the RPL baseline (single preferred parent) that the Orchestra
//!   comparison runs on;
//! - [`graph`] — routing-graph snapshots and DAG/reachability validation
//!   used by tests, the centralized baseline, and the experiment harness.
//!
//! All protocol state machines here are sans-I/O: they consume events
//! (received messages, transmission outcomes, slot ticks) and emit
//! [`messages::RoutingEvent`]s; the `digs` crate maps those
//! onto simulator frames.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod digs;
pub mod etx;
pub mod graph;
pub mod messages;
pub mod neighbor;
pub mod rpl;
pub mod trickle;

pub use digs::{DigsRouting, RoutingConfig};
pub use graph::RoutingGraph;
pub use messages::{JoinIn, Rank, RoutingEvent};
pub use rpl::RplRouting;
