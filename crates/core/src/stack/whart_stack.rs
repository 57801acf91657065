//! The centralized WirelessHART data-plane stack: a node that executes a
//! schedule computed by the central Network Manager.
//!
//! Unlike the DiGS and Orchestra stacks, this node makes **no decisions**:
//! the manager has provisioned its routes and its superframe cells (and,
//! implicitly, its time synchronization — WirelessHART devices are
//! configured during joining). Each slot the node looks up its cell table:
//! transmit the head packet of the referenced flow to the designated
//! receiver, or listen. This is exactly why the centralized design is
//! predictable — and why it cannot adapt until the manager completes a
//! full update cycle (the Fig. 3 cost).

use super::stack_core::StackCore;
use super::{QueuedPacket, StackTelemetry};
use crate::flows::FlowSpec;
use crate::payload::Payload;
use crate::queue::BoundedQueue;
use digs_scheduling::slotframe::next_at;
use digs_sim::engine::{NodeStack, SlotIntent, TxOutcome};
use digs_sim::ids::{FlowId, NodeId};
use digs_sim::packet::Frame;
use digs_sim::rf::Dbm;
use digs_sim::time::Asn;
use digs_trace::TraceHandle;
use digs_whart::schedule::CentralSchedule;
use std::collections::BTreeMap;

/// Attempts a packet gets at one hop before it is dropped: the superframe
/// schedules several per hop, and the packet stays queued for the next
/// scheduled cell until one full superframe's worth has failed.
const MAX_DATA_ATTEMPTS: u16 = 6;

/// A node's role in one superframe slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CellRole {
    /// Transmit the head packet of `flow` to `to`.
    Tx {
        /// Next hop.
        to: NodeId,
        /// The flow this cell serves.
        flow: FlowId,
        /// TSCH channel offset.
        offset: digs_sim::channel::ChannelOffset,
    },
    /// Listen on the given offset.
    Rx {
        /// TSCH channel offset.
        offset: digs_sim::channel::ChannelOffset,
    },
}

/// The WirelessHART field-device/access-point stack.
#[derive(Debug)]
pub struct WhartStack {
    core: StackCore,
    superframe_len: u32,
    /// Slot-in-superframe → role.
    cells: BTreeMap<u32, CellRole>,
    /// Per-flow forwarding queues (a relay may serve several flows).
    queues: BTreeMap<FlowId, BoundedQueue<QueuedPacket>>,
    last_tx: Option<FlowId>,
}

impl WhartStack {
    /// Builds the stack for node `id` from the manager's schedule.
    pub fn new(
        id: NodeId,
        is_ap: bool,
        schedule: &CentralSchedule,
        flows: Vec<FlowSpec>,
        queue_capacity: usize,
    ) -> WhartStack {
        let queues = flows
            .iter()
            .map(|f| (f.id, BoundedQueue::new(queue_capacity)))
            .collect::<BTreeMap<_, _>>();
        let mut core = StackCore::new(id, is_ap, flows);
        // WirelessHART devices are provisioned (synced + routed) by the
        // manager before the data phase begins.
        core.telemetry.synced_at = Some(Asn::ZERO);
        core.telemetry.joined_at = Some(Asn::ZERO);
        let mut stack =
            WhartStack { core, superframe_len: 0, cells: BTreeMap::new(), queues, last_tx: None };
        stack.install_schedule(schedule, queue_capacity);
        stack
    }

    /// Harness telemetry.
    pub fn telemetry(&self) -> &StackTelemetry {
        &self.core.telemetry
    }

    /// Installs the flight-recorder handle (shared with the engine).
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.core.trace = trace;
    }

    /// Installs a freshly disseminated schedule (the end of a manager
    /// update cycle): cell table and superframe length are replaced;
    /// queues for newly assigned flows are created; telemetry and sequence
    /// numbers survive, as they would on the device.
    pub fn install_schedule(&mut self, schedule: &CentralSchedule, queue_capacity: usize) {
        let id = self.core.id;
        self.superframe_len = schedule.length();
        self.cells.clear();
        for cell in schedule.cells_of(id) {
            let role = if cell.tx == id {
                CellRole::Tx { to: cell.rx, flow: cell.flow, offset: cell.offset }
            } else {
                CellRole::Rx { offset: cell.offset }
            };
            self.cells.insert(cell.slot, role);
            self.queues.entry(cell.flow).or_insert_with(|| BoundedQueue::new(queue_capacity));
        }
    }

    /// Number of cells the manager provisioned on this node.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Packets currently queued across this node's per-flow queues.
    pub fn app_queue_len(&self) -> usize {
        self.queues.values().map(|q| q.len()).sum()
    }

    /// The installed superframe length in slots.
    pub fn superframe_len(&self) -> u32 {
        self.superframe_len
    }
}

impl NodeStack for WhartStack {
    type Payload = Payload;

    fn slot_intent(&mut self, asn: Asn) -> SlotIntent<Payload> {
        self.last_tx = None;
        self.core.generate(asn, &mut self.queues, |queues, flow| {
            queues.get_mut(&flow).expect("own flow has a queue")
        });
        let slot = asn.slotframe_offset(self.superframe_len);
        match self.cells.get(&slot) {
            None => SlotIntent::Sleep,
            Some(CellRole::Rx { offset }) => SlotIntent::Listen { offset: *offset },
            Some(CellRole::Tx { to, flow, offset }) => {
                let Some(head) = self.queues.get(flow).and_then(|queue| queue.front()) else {
                    return SlotIntent::Sleep;
                };
                self.last_tx = Some(*flow);
                SlotIntent::Transmit {
                    offset: *offset,
                    frame: self.core.data_frame(head, *to),
                    contention: false,
                }
            }
        }
    }

    fn next_wake(&self, from: Asn) -> Asn {
        // The next provisioned cell, wrapping into the next superframe; a
        // node with no cell and no flow never wakes.
        let slot = from.slotframe_offset(self.superframe_len);
        let cell = self.cells.range(slot..).next().or_else(|| self.cells.first_key_value());
        let cell = cell.map(|(slot, _)| next_at(from, self.superframe_len, *slot));
        cell.into_iter().chain(self.core.next_generation(from)).min().unwrap_or(Asn(u64::MAX))
    }

    fn on_frame(&mut self, asn: Asn, frame: &Frame<Payload>, _rss: Dbm) {
        if let Payload::Data(packet) = &frame.payload {
            if self.core.is_unicast_to_me(frame) {
                self.core.accept(self.queues.get_mut(&packet.flow), packet, asn);
            }
        }
    }

    fn reset(&mut self, _asn: Asn) {
        // Cold reboot of a provisioned device: everything queued in RAM is
        // lost. The cell table and superframe come back as provisioned —
        // WirelessHART devices are configured by the manager during
        // (re)joining, which the centralized plane handles out of band — so
        // the node resumes its schedule immediately but with empty queues.
        for queue in self.queues.values_mut() {
            queue.clear();
        }
        self.last_tx = None;
    }

    fn desync(&mut self, _asn: Asn) {
        // WirelessHART time sync is maintained by the manager's provisioned
        // keepalives; a drifted device is re-synchronized out of band. The
        // in-flight slot's transmission, if any, is abandoned.
        self.last_tx = None;
    }

    fn on_tx_outcome(&mut self, asn: Asn, outcome: TxOutcome) {
        if let Some(queue) = self.last_tx.take().and_then(|flow| self.queues.get_mut(&flow)) {
            self.core.settle_data(queue, outcome, MAX_DATA_ATTEMPTS, asn);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use digs_routing::graph::{GraphEntry, RoutingGraph};
    use digs_routing::Rank;

    /// Devices 2 → 3 → AP 0, with AP 1 as device 2's backup: over one
    /// superframe, device 2 holds three cells, AP 1 one and device 4 none.
    fn schedule(length: u32) -> CentralSchedule {
        let mut graph = RoutingGraph::new([NodeId(0), NodeId(1)]);
        let entry = |best, second, rank| GraphEntry { best: Some(best), second, rank: Rank(rank) };
        graph.insert(NodeId(2), entry(NodeId(3), Some(NodeId(1)), 3));
        graph.insert(NodeId(3), entry(NodeId(0), None, 2));
        CentralSchedule::build(&graph, &[NodeId(2)], length).expect("one flow fits")
    }

    #[test]
    fn closed_form_next_wake_wraps_the_superframe() {
        for length in [7u32, 100, 811] {
            let schedule = schedule(length);
            for (id, cells, period) in
                [(4u16, 0, None), (1, 1, None), (2, 3, Some(37)), (3, 4, None)]
            {
                let id = NodeId(id);
                let flow =
                    period.map(|p| FlowSpec { id: FlowId(0), source: id, period: p, phase: 5 });
                let stack = WhartStack::new(id, id.0 < 2, &schedule, Vec::from_iter(flow), 4);
                assert_eq!(stack.cell_count(), cells, "node {id:?}");
                let due = |a: u64| {
                    stack.cells.contains_key(&Asn(a).slotframe_offset(length))
                        || flow.is_some_and(|f| f.generates_at(Asn(a)))
                };
                for from in 0..3 * u64::from(length) + 2 {
                    // A node with no cell and no flow never wakes.
                    let brute = (from..from + 2 * u64::from(length)).find(|a| due(*a));
                    let expected = brute.map_or(Asn(u64::MAX), Asn);
                    assert_eq!(stack.next_wake(Asn(from)), expected, "node {id:?} from {from}");
                }
            }
        }
    }
}
