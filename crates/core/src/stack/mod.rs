//! Per-node protocol stacks driving the simulation engine.
//!
//! A stack owns everything one mote runs: time-sync state (EB scanning
//! before joining), the routing state machine, the autonomous scheduler,
//! the packet queues, and the bookkeeping the experiment harness reads
//! back (deliveries, parent changes, join times). What the three stacks
//! have in common — the application-packet life cycle, and for DiGS and
//! Orchestra the TSCH slot skeleton — lives once in `stack_core`; each
//! protocol file keeps only its routing and scheduling decisions.

mod digs_stack;
mod orchestra_stack;
mod stack_core;
#[cfg(test)]
mod tests_stacks;
mod whart_stack;

pub use digs_stack::{DigsProvision, DigsStack};
pub use orchestra_stack::{OrchestraProvision, OrchestraStack};
pub use whart_stack::WhartStack;

use crate::payload::{DataPacket, Payload};
use digs_sim::channel::{ChannelOffset, NUM_CHANNELS};
use digs_sim::engine::{NodeStack, SlotIntent, StandingListens, TxOutcome};
use digs_sim::ids::NodeId;
use digs_sim::packet::Frame;
use digs_sim::rf::Dbm;
use digs_sim::time::Asn;

/// A packet delivered to an access point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeliveryRecord {
    /// The delivered packet.
    pub packet: DataPacket,
    /// When it arrived at the access point.
    pub delivered_at: Asn,
}

/// An application-queue entry: the packet plus how many transmissions of
/// it have gone unacknowledged at this hop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct QueuedPacket {
    pub packet: DataPacket,
    pub failed_attempts: u8,
}

/// The flight-recorder identity of an application packet.
pub(crate) fn trace_pid(packet: &DataPacket) -> digs_trace::PacketId {
    digs_trace::PacketId { flow: packet.flow.0, seq: packet.seq, origin: packet.origin.0 }
}

/// Channel offset that makes the hopping sequence land on a fixed physical
/// scan channel: an unsynchronised node parks its radio on one channel and
/// waits for an EB (rotating the channel slowly so a jammed channel cannot
/// starve it).
pub(crate) fn scan_offset(asn: Asn) -> ChannelOffset {
    let scan_channel = (asn.0 / 128) % u64::from(NUM_CHANNELS);
    let off = (scan_channel + u64::from(NUM_CHANNELS) - asn.0 % u64::from(NUM_CHANNELS))
        % u64::from(NUM_CHANNELS);
    ChannelOffset::new(off as u8)
}

/// Instrumentation every stack exposes to the harness.
#[derive(Debug, Clone, Default)]
pub struct StackTelemetry {
    /// Packets this node generated as a flow source, per flow.
    pub generated: std::collections::BTreeMap<digs_sim::ids::FlowId, u32>,
    /// Packets delivered here (non-empty only on access points).
    pub deliveries: Vec<DeliveryRecord>,
    /// Every slot at which the parent set changed.
    pub parent_changes: Vec<Asn>,
    /// When the node synchronized (heard its first EB).
    pub synced_at: Option<Asn>,
    /// When the node joined the routing graph (selected its parents).
    pub joined_at: Option<Asn>,
    /// Packets dropped after exhausting retries.
    pub retry_drops: u64,
    /// Packets dropped on queue overflow.
    pub queue_drops: u64,
    /// Data frames this node forwarded onward (relay traffic).
    pub forwarded: u64,
}

/// The uniform view of the three protocol stacks the network runner uses.
#[derive(Debug)]
pub enum ProtocolStack {
    /// The paper's stack.
    Digs(DigsStack),
    /// The Orchestra baseline stack.
    Orchestra(OrchestraStack),
    /// The centralized WirelessHART baseline stack.
    WirelessHart(WhartStack),
}

impl ProtocolStack {
    /// Telemetry for the harness.
    pub fn telemetry(&self) -> &StackTelemetry {
        match self {
            ProtocolStack::Digs(s) => s.telemetry(),
            ProtocolStack::Orchestra(s) => s.telemetry(),
            ProtocolStack::WirelessHart(s) => s.telemetry(),
        }
    }

    /// The node's current parents `(best, second)` (second is always `None`
    /// for Orchestra).
    pub fn parents(&self) -> (Option<NodeId>, Option<NodeId>) {
        match self {
            ProtocolStack::Digs(s) => s.parents(),
            ProtocolStack::Orchestra(s) => (s.parent(), None),
            // Centralized devices hold manager-provisioned source routes,
            // not distributed parent state.
            ProtocolStack::WirelessHart(_) => (None, None),
        }
    }

    /// The node's routing rank.
    pub fn rank(&self) -> digs_routing::Rank {
        match self {
            ProtocolStack::Digs(s) => s.rank(),
            ProtocolStack::Orchestra(s) => s.rank(),
            ProtocolStack::WirelessHart(_) => digs_routing::Rank::INFINITE,
        }
    }

    /// Whether the node has joined (synced + parents selected).
    pub fn is_joined(&self) -> bool {
        match self {
            ProtocolStack::Digs(s) => s.is_joined(),
            ProtocolStack::Orchestra(s) => s.is_joined(),
            // Provisioned by the manager before the data phase.
            ProtocolStack::WirelessHart(_) => true,
        }
    }

    /// Packets currently queued in the node's application queue(s).
    pub fn app_queue_len(&self) -> usize {
        match self {
            ProtocolStack::Digs(s) => s.app_queue_len(),
            ProtocolStack::Orchestra(s) => s.app_queue_len(),
            ProtocolStack::WirelessHart(s) => s.app_queue_len(),
        }
    }

    /// Installs the flight-recorder handle (shared with the engine). A
    /// default-constructed stack records nothing.
    pub fn set_trace(&mut self, trace: digs_trace::TraceHandle) {
        match self {
            ProtocolStack::Digs(s) => s.set_trace(trace),
            ProtocolStack::Orchestra(s) => s.set_trace(trace),
            ProtocolStack::WirelessHart(s) => s.set_trace(trace),
        }
    }
}

impl NodeStack for ProtocolStack {
    type Payload = Payload;

    fn slot_intent(&mut self, asn: Asn) -> SlotIntent<Payload> {
        match self {
            ProtocolStack::Digs(s) => s.slot_intent(asn),
            ProtocolStack::Orchestra(s) => s.slot_intent(asn),
            ProtocolStack::WirelessHart(s) => s.slot_intent(asn),
        }
    }

    fn next_wake(&self, from: Asn) -> Asn {
        match self {
            ProtocolStack::Digs(s) => s.next_wake(from),
            ProtocolStack::Orchestra(s) => s.next_wake(from),
            ProtocolStack::WirelessHart(s) => s.next_wake(from),
        }
    }

    fn standing_listens(&self) -> StandingListens<'_> {
        match self {
            ProtocolStack::Digs(s) => s.standing_listens(),
            ProtocolStack::Orchestra(s) => s.standing_listens(),
            ProtocolStack::WirelessHart(s) => s.standing_listens(),
        }
    }

    fn standing_version(&self) -> u64 {
        match self {
            ProtocolStack::Digs(s) => s.standing_version(),
            ProtocolStack::Orchestra(s) => s.standing_version(),
            ProtocolStack::WirelessHart(s) => s.standing_version(),
        }
    }

    fn on_frame(&mut self, asn: Asn, frame: &Frame<Payload>, rss: Dbm) {
        match self {
            ProtocolStack::Digs(s) => s.on_frame(asn, frame, rss),
            ProtocolStack::Orchestra(s) => s.on_frame(asn, frame, rss),
            ProtocolStack::WirelessHart(s) => s.on_frame(asn, frame, rss),
        }
    }

    fn on_tx_outcome(&mut self, asn: Asn, outcome: TxOutcome) {
        match self {
            ProtocolStack::Digs(s) => s.on_tx_outcome(asn, outcome),
            ProtocolStack::Orchestra(s) => s.on_tx_outcome(asn, outcome),
            ProtocolStack::WirelessHart(s) => s.on_tx_outcome(asn, outcome),
        }
    }

    fn reset(&mut self, asn: Asn) {
        match self {
            ProtocolStack::Digs(s) => s.reset(asn),
            ProtocolStack::Orchestra(s) => s.reset(asn),
            ProtocolStack::WirelessHart(s) => s.reset(asn),
        }
    }

    fn desync(&mut self, asn: Asn) {
        match self {
            ProtocolStack::Digs(s) => s.desync(asn),
            ProtocolStack::Orchestra(s) => s.desync(asn),
            ProtocolStack::WirelessHart(s) => s.desync(asn),
        }
    }
}

/// A stack driven the way the engine drove every stack before it had
/// wake slots: everything is the wrapped stack's, except that `next_wake`
/// and `standing_listens` keep the trait's defaults, and so `slot_intent`
/// is asked for in every slot and the radio does only what it answers.
/// The reference of the wake-driven path's differential test.
#[cfg(test)]
pub(crate) struct AskEverySlot<'a>(pub &'a mut ProtocolStack);

#[cfg(test)]
impl NodeStack for AskEverySlot<'_> {
    type Payload = Payload;

    fn slot_intent(&mut self, asn: Asn) -> SlotIntent<Payload> {
        self.0.slot_intent(asn)
    }

    fn on_frame(&mut self, asn: Asn, frame: &Frame<Payload>, rss: Dbm) {
        self.0.on_frame(asn, frame, rss);
    }

    fn on_tx_outcome(&mut self, asn: Asn, outcome: TxOutcome) {
        self.0.on_tx_outcome(asn, outcome);
    }

    fn reset(&mut self, asn: Asn) {
        self.0.reset(asn);
    }

    fn desync(&mut self, asn: Asn) {
        self.0.desync(asn);
    }
}

/// A stack driven as production drives it, counting into `.1` how often
/// the engine asks it for its intent.
#[cfg(test)]
pub(crate) struct CountAsks<'a>(pub &'a mut ProtocolStack, pub &'a std::cell::Cell<u64>);

#[cfg(test)]
impl NodeStack for CountAsks<'_> {
    type Payload = Payload;

    fn slot_intent(&mut self, asn: Asn) -> SlotIntent<Payload> {
        self.1.set(self.1.get() + 1);
        self.0.slot_intent(asn)
    }

    fn next_wake(&self, from: Asn) -> Asn {
        self.0.next_wake(from)
    }

    fn standing_listens(&self) -> StandingListens<'_> {
        self.0.standing_listens()
    }

    fn standing_version(&self) -> u64 {
        self.0.standing_version()
    }

    fn on_frame(&mut self, asn: Asn, frame: &Frame<Payload>, rss: Dbm) {
        self.0.on_frame(asn, frame, rss);
    }

    fn on_tx_outcome(&mut self, asn: Asn, outcome: TxOutcome) {
        self.0.on_tx_outcome(asn, outcome);
    }

    fn reset(&mut self, asn: Asn) {
        self.0.reset(asn);
    }

    fn desync(&mut self, asn: Asn) {
        self.0.desync(asn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_offset_lands_on_fixed_channel() {
        // Within one 128-slot scan window, the physical channel is constant.
        let base = scan_offset(Asn(0)).hop(Asn(0));
        for asn in 0..128u64 {
            assert_eq!(scan_offset(Asn(asn)).hop(Asn(asn)), base);
        }
    }

    #[test]
    fn scan_channel_rotates_between_windows() {
        let a = scan_offset(Asn(0)).hop(Asn(0));
        let b = scan_offset(Asn(128)).hop(Asn(128));
        assert_ne!(a, b);
    }
}
