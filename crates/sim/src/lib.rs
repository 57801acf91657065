//! # digs-sim — WSAN simulation substrate
//!
//! A slot-synchronous discrete-event simulator for IEEE 802.15.4 / TSCH
//! wireless sensor-actuator networks, built as the evaluation substrate for
//! the DiGS (ICDCS 2018) reproduction. It stands in for the paper's two
//! TelosB testbeds and the Cooja simulator.
//!
//! The simulator models:
//!
//! - **Time** as 10 ms TSCH slots identified by an absolute slot number
//!   ([`Asn`]); see [`time`].
//! - **Radio propagation** with a log-distance path-loss model, per-channel
//!   frequency-selective fading, and additive white Gaussian noise; see
//!   [`rf`] and [`link`].
//! - **Channel hopping** over the 16 IEEE 802.15.4 channels; see [`channel`].
//! - **Interference** from jammers emulating WiFi streaming (the paper's
//!   JamLab setup) and Cooja-style disturber nodes; see [`interference`].
//! - **Energy** with a CC2420 radio state model; see [`energy`].
//! - **Faults** as scripted node failures and recoveries; see [`fault`].
//!
//! Protocol stacks plug into the [`engine::Engine`] through the
//! [`engine::NodeStack`] trait: each slot, every alive node that is awake
//! (see the trait's wake contract) declares a [`engine::SlotIntent`] (sleep,
//! listen, or transmit on a channel offset) and the engine resolves
//! propagation, contention, collisions, and acknowledgements, then reports
//! outcomes back to the stacks.
//!
//! # Example
//!
//! ```
//! use digs_sim::topology::Topology;
//! use digs_sim::rf::RfConfig;
//!
//! // A 50-node topology mimicking the paper's Testbed A.
//! let topo = Topology::testbed_a();
//! assert_eq!(topo.len(), 50);
//!
//! // Links within a few meters are strong, cross-building ones are weak.
//! let rf = RfConfig::indoor();
//! let near = rf.mean_rss(5.0);
//! let far = rf.mean_rss(topo.distance(0.into(), 1.into()));
//! assert!(near.dbm() > -75.0);
//! assert!(far.dbm() < near.dbm());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod channel;
pub mod energy;
pub mod engine;
pub mod fault;
pub mod ids;
pub mod interference;
pub mod link;
pub mod packet;
pub mod position;
pub mod rf;
pub mod rng;
pub mod seeds;
pub mod time;
pub mod topology;
pub mod trace;

pub use channel::{ChannelOffset, PhysChannel};
pub use engine::{Engine, NodeStack, SlotIntent, TxOutcome};
pub use ids::{FlowId, NodeId};
pub use packet::{Frame, FrameKind};
pub use time::Asn;
