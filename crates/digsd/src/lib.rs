//! `digs-digsd` — a long-running simulation daemon with a streaming
//! trace/telemetry/health event API.
//!
//! The daemon launches, lists, and kills named simulation runs (single
//! networks, fleets, and embedder-registered kinds such as the CLI's
//! conformance scenarios) and streams their flight-recorder events,
//! telemetry epoch samples, and health alerts to any number of
//! subscribers over a versioned line-oriented wire protocol (DESIGN
//! §4.12).
//!
//! Two invariants anchor the design:
//!
//! 1. **Observation-only streaming.** Runs publish through the
//!    [`digs::network::RunObserver`] hook, which is read-only and chunk-
//!    insensitive: a daemon-streamed run produces byte-identical
//!    trace/telemetry JSONL to a plain `digs-cli run` of the same spec
//!    and seed. Frame payloads *are* the deterministic JSONL lines of
//!    `digs-trace` and `digs::telemetry`, spliced into frames verbatim.
//! 2. **The engine never blocks on a subscriber.** Every subscriber owns
//!    a bounded queue ([`DaemonConfig::queue_cap`], default 4096 frames); a full
//!    queue counts a drop (reported in that subscriber's heartbeats) and
//!    the simulation moves on.

mod chaos;
mod client;
mod hub;
mod journal;
mod message;
mod run;
mod server;
mod session;
mod spec;
mod wire;

pub use chaos::{ChaosConfig, ChaosState};
pub use client::{error_code, Client, ResumableStream, StreamEnd, StreamItem};
pub use digs_fleet::FleetParams;
pub use digs_json::message::{FieldDef, Kind, MessageDef};
pub use digs_json::Value;
pub use hub::{BackoffPolicy, Hub, Recv, Subscription, Supervisor, Verdict};
pub use journal::{Journal, Record, RecoveredRun, Recovery};
pub use run::{Job, RunCtx, RunHandle, Runner};
pub use server::{Daemon, DaemonConfig, DEFAULT_ADDR, HEARTBEAT};
pub use spec::{topology_from, SingleSpec};
pub use wire::{
    valid_run_name, ClientMsg, ErrorCode, EventFrame, Filter, FrameKind, RunInfo, RunState,
    ServerMsg, WIRE_VERSION,
};
