//! # digs-trace — flight-recorder event tracing
//!
//! A bounded, always-available observability layer for the DiGS
//! reproduction: the simulation engine and every protocol stack record
//! typed [`Event`]s through a shared [`TraceHandle`], which keeps the last
//! N events per node in ring buffers ([`RingRecorder`]). Tracing is off by
//! default and costs one branch per instrumentation site; it is switched on
//! by whoever builds the handle ([`TraceHandle::bounded`]; a network takes
//! its capacity from `NetworkConfig::trace_cap`). Nothing here reads the
//! environment.
//!
//! On top of the raw stream:
//!
//! - [`analysis::journeys`] reconstructs per-packet hop-by-hop journeys
//!   with queueing delay and retransmission counts (the Fig. 7/8 latency
//!   decomposition);
//! - [`analysis::churn_timeline`] and [`analysis::repair_episodes`] extract
//!   the routing-repair story around injected faults (Fig. 4/5);
//! - [`analysis::window`] slices the bounded event window preceding an
//!   instant, used to triage invariant violations in chaos soaks;
//! - [`jsonl`] exports and re-imports the stream as deterministic JSONL.
//!
//! This crate is a leaf: it deliberately uses raw `u16`/`u64` identifiers
//! so `digs-sim` can depend on it without a cycle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod event;
pub mod jsonl;
pub mod recorder;
pub mod ring;

pub use analysis::{
    churn_timeline, journeys, latency_breakdown, repair_episodes, window, Hop, Journey,
    LatencyBreakdown, RepairEpisode,
};
pub use event::{DropReason, Event, EventKind, FaultKind, PacketId, TrafficClass, NETWORK_NODE};
pub use jsonl::{from_jsonl, to_jsonl, to_jsonl_line, ParseError};
pub use recorder::{RingRecorder, TraceHandle, DEFAULT_CAPACITY};
pub use ring::RingBuffer;
