//! # digs-scheduling — autonomous TSCH scheduling
//!
//! The scheduling layer of the DiGS (ICDCS 2018) reproduction:
//!
//! - [`slotframe`] — slotframe lengths, traffic classes, cells, and the
//!   priority-based schedule combination rule (sync > routing > application);
//! - [`digs_sched`] — **the paper's autonomous scheduler** (Section VI):
//!   every node derives its transmission and reception cells purely from its
//!   node id, the number of access points, and its routing state — no
//!   schedule negotiation with neighbors;
//! - [`orchestra`] — the Orchestra baseline (SenSys 2015): sender-based
//!   unicast cells over RPL;
//! - [`analysis`] — the paper's Eq. 5 (shared-slot contention probability)
//!   and Eq. 6 (slotframe skip probability).
//!
//! Schedulers are pure functions of `(state, ASN) → cell`; the `digs` crate
//! turns cells into simulator slot intents.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod digs_sched;
pub mod orchestra;
pub mod slotframe;

pub use digs_sched::{DigsScheduler, EpochPerms};
pub use orchestra::OrchestraScheduler;
pub use slotframe::{Cell, CellAction, SlotframeLengths, TrafficClass};
