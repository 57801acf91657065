//! # digs-whart — the centralized WirelessHART baseline
//!
//! DiGS's point of comparison (paper Sections III–IV): a WirelessHART
//! network is run by a central **Network Manager** that collects topology
//! information from every device, computes reliable graph routes and a TDMA
//! schedule centrally, and disseminates them to all devices. The management
//! loop is what makes the standard slow to react to dynamics — Fig. 3 shows
//! 203–506 s per update on the paper's testbeds.
//!
//! - [`linkdb`] — the manager's link-state database (built from device
//!   health reports; in simulation, from the link-model oracle);
//! - [`graph`] — centralized reliable-graph construction in the style of
//!   Han et al. (RTAS 2011): every device gets at least two parents closer
//!   to the access points, ordered to keep the graph acyclic;
//! - [`schedule`] — centralized convergecast TDMA schedule construction
//!   with dedicated, conflict-free cells along every route;
//! - [`manager`] — the Network Manager tying the pieces together, plus the
//!   update-cycle cost model that reproduces Fig. 3.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod graph;
pub mod linkdb;
pub mod manager;
pub mod schedule;

pub use graph::build_uplink_graph;
pub use linkdb::LinkDb;
pub use manager::{NetworkManager, UpdateReport};
pub use schedule::CentralSchedule;
