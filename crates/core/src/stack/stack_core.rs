//! What the protocol stacks share, written once.
//!
//! [`StackCore`] is the application-packet life cycle every stack runs —
//! generate → enqueue or count the overflow → deliver at an access point →
//! dequeue on ACK → on NoAck keep head-of-line or drop at the retry budget —
//! with the telemetry and flight-recorder events each step leaves behind.
//! [`TschMac`] adds the half DiGS and Orchestra have in common: EB
//! association, the pending routing broadcast, the child last-heard table, and
//! the mapping from a scheduler cell to a slot intent and back from its
//! outcome.
//!
//! Neither is a trait or generic over a protocol. A stack owns one and
//! passes in what differs (its queue, its retry budget, its resolved next
//! hop), so nothing here branches on which stack is calling.

use super::{scan_offset, trace_pid, DeliveryRecord, QueuedPacket, StackTelemetry};
use crate::flows::FlowSpec;
use crate::payload::{DataPacket, Payload};
use crate::queue::BoundedQueue;
use digs_routing::Rank;
use digs_scheduling::slotframe::{Cell, CellAction};
use digs_sim::engine::{SlotIntent, StandingListens, TxOutcome};
use digs_sim::ids::{FlowId, NodeId};
use digs_sim::packet::{Dest, Frame};
use digs_sim::time::Asn;
use digs_trace::{EventKind, TraceHandle};
use std::collections::BTreeMap;

/// The state every stack owns, and the application-packet life cycle over
/// whichever queue the stack hands in.
#[derive(Debug)]
pub(crate) struct StackCore {
    pub id: NodeId,
    pub is_ap: bool,
    /// The flows this node sources (usually zero or one).
    flows: Vec<FlowSpec>,
    seq_next: u32,
    /// Harness accounting, not mote RAM: it and `seq_next` survive reboots
    /// so flow bookkeeping stays cumulative.
    pub telemetry: StackTelemetry,
    /// Flight recorder (no-op until a live handle is installed).
    pub trace: TraceHandle,
}

impl StackCore {
    pub fn new(id: NodeId, is_ap: bool, flows: Vec<FlowSpec>) -> StackCore {
        StackCore {
            id,
            is_ap,
            flows,
            seq_next: 0,
            telemetry: StackTelemetry::default(),
            trace: TraceHandle::off(),
        }
    }

    /// Records a flight-recorder event on this node.
    #[inline]
    pub fn record(&self, asn: Asn, kind: EventKind) {
        self.trace.record(asn.0, self.id.0, kind);
    }

    /// Records the installation or release of the receive cell
    /// `(slot, offset)` this node keeps for `child`.
    pub fn record_cell(&self, asn: Asn, child: NodeId, (slot, offset): (u32, u8), release: bool) {
        let child = child.0;
        self.record(
            asn,
            if release {
                EventKind::CellRelease { slot, offset, child }
            } else {
                EventKind::CellAlloc { slot, offset, child }
            },
        );
    }

    /// Whether `frame` is a unicast addressed to this node.
    pub fn is_unicast_to_me(&self, frame: &Frame<Payload>) -> bool {
        frame.dst == Dest::Unicast(self.id)
    }

    fn frame(&self, dst: Dest, payload: Payload) -> Frame<Payload> {
        Frame::new(self.id, dst, payload.frame_kind(), payload.frame_size(), payload)
    }

    /// The frame carrying a queue's head packet to `to`, tagged with the
    /// packet's flight-recorder identity.
    pub fn data_frame(&self, head: &QueuedPacket, to: NodeId) -> Frame<Payload> {
        self.frame(Dest::Unicast(to), Payload::Data(head.packet))
            .with_trace_id(trace_pid(&head.packet))
    }

    /// Generates the packet of every sourced flow due at `asn` into the
    /// queue `queue_of` picks for it. Sources generate regardless of join
    /// state (undeliverable packets count against PDR, as on the testbeds).
    #[inline]
    pub fn generate<Q>(
        &mut self,
        asn: Asn,
        queues: &mut Q,
        queue_of: impl Fn(&mut Q, FlowId) -> &mut BoundedQueue<QueuedPacket>,
    ) {
        for i in 0..self.flows.len() {
            let flow = self.flows[i];
            if flow.generates_at(asn) {
                let packet = self.next_packet(flow.id, asn);
                self.enqueue(queue_of(queues, flow.id), packet, asn);
            }
        }
    }

    /// The first slot at or after `from` in which [`Self::generate`]
    /// generates a packet (`None`: the node sources no flow).
    pub fn next_generation(&self, from: Asn) -> Option<Asn> {
        self.flows.iter().map(|flow| flow.next_generation(from)).min()
    }

    fn next_packet(&mut self, flow: FlowId, asn: Asn) -> DataPacket {
        let packet = DataPacket { flow, seq: self.seq_next, origin: self.id, generated_at: asn };
        self.seq_next += 1;
        *self.telemetry.generated.entry(flow).or_insert(0) += 1;
        self.record(asn, EventKind::Generated { packet: trace_pid(&packet) });
        packet
    }

    /// Queues `packet` for its next hop, or counts the overflow.
    fn enqueue(&mut self, queue: &mut BoundedQueue<QueuedPacket>, packet: DataPacket, asn: Asn) {
        let pid = trace_pid(&packet);
        if queue.push(QueuedPacket { packet, failed_attempts: 0 }) {
            self.record(asn, EventKind::QueueEnq { packet: pid, depth: queue.len() as u32 });
        } else {
            self.telemetry.queue_drops += 1;
            self.record(asn, EventKind::QueueOverflow { packet: pid });
        }
    }

    /// Takes in a data packet addressed to this node: an access point
    /// delivers it, any other node queues it for its next hop (`None`: the
    /// node holds no queue for the packet's flow, and the packet is lost).
    pub fn accept(
        &mut self,
        queue: Option<&mut BoundedQueue<QueuedPacket>>,
        packet: &DataPacket,
        asn: Asn,
    ) {
        if self.is_ap {
            self.record(
                asn,
                EventKind::Delivered {
                    packet: trace_pid(packet),
                    latency: asn.0.saturating_sub(packet.generated_at.0),
                },
            );
            self.telemetry.deliveries.push(DeliveryRecord { packet: *packet, delivered_at: asn });
        } else if let Some(queue) = queue {
            self.enqueue(queue, *packet, asn);
        }
    }

    /// Settles the transmission of `queue`'s head packet: an ACK dequeues
    /// it; a missing ACK costs it one of its `budget` attempts at this hop,
    /// and it keeps its head-of-line position until they are spent.
    pub fn settle_data(
        &mut self,
        queue: &mut BoundedQueue<QueuedPacket>,
        outcome: TxOutcome,
        budget: u16,
        asn: Asn,
    ) {
        match outcome {
            TxOutcome::Acked => {
                if let Some(item) = queue.pop() {
                    let depth = queue.len() as u32;
                    self.record(
                        asn,
                        EventKind::QueueDeq { packet: trace_pid(&item.packet), depth },
                    );
                }
                self.telemetry.forwarded += 1;
            }
            TxOutcome::NoAck => {
                let Some(head) = queue.front_mut() else {
                    return;
                };
                head.failed_attempts = head.failed_attempts.saturating_add(1);
                if u16::from(head.failed_attempts) >= budget {
                    let packet = trace_pid(&head.packet);
                    queue.pop();
                    self.telemetry.retry_drops += 1;
                    self.record(asn, EventKind::RetryDrop { packet });
                }
            }
            // A CCA deferral keeps the packet for its next cell without
            // consuming an attempt.
            TxOutcome::DeferredCca | TxOutcome::SentBroadcast => {}
        }
    }
}

/// What the node transmitted in the current slot (to interpret the
/// engine's `on_tx_outcome`).
#[derive(Debug, Clone, Copy, PartialEq)]
enum LastTx {
    Beacon,
    RoutingBroadcast,
    Data { to: NodeId },
}

/// A child not heard from in three Trickle maximum intervals (192 s) is
/// unregistered — long enough that a child whose routing broadcasts are
/// paced at Imax is never evicted while alive.
const CHILD_SILENCE_SLOTS: u64 = 19_200;

/// How often the child table is swept for silent children, in slots.
const CHILD_SWEEP_PERIOD: u64 = 64;

/// The TSCH node DiGS and Orchestra both are underneath their routing and
/// scheduling: one application queue, one pending routing broadcast,
/// EB-acquired synchronization, and receive cells kept per child heard.
#[derive(Debug)]
pub(crate) struct TschMac {
    pub core: StackCore,
    pub app_queue: BoundedQueue<QueuedPacket>,
    /// The routing broadcast waiting for a shared cell. Each stack sends one
    /// kind (DiGS join-ins, RPL DIOs), and only the freshest is worth
    /// sending, so a new one replaces it.
    routing_broadcast: Option<Payload>,
    /// When each registered child was last heard from. A child is only
    /// unregistered after an extended silence (or, under DiGS, when its
    /// join-in names other parents): over-listening costs idle-listen
    /// energy (the overhead the paper acknowledges) but never loses packets.
    child_last_seen: BTreeMap<NodeId, Asn>,
    /// The first slot in which a sweep finds a silent child (`None`: no
    /// child is registered), kept so that it is named without a walk over
    /// the table.
    first_silent_at: Option<Asn>,
    /// When the node last acquired synchronization (`None`: it is scanning
    /// for EBs and its housekeeping is dormant).
    synced_at: Option<Asn>,
    /// How many times `synced_at` was set or cleared.
    sync_changes: u32,
    last_tx: Option<LastTx>,
    /// Rank as last reported to the flight recorder.
    traced_rank: Rank,
    /// Parents `(best, second)` as last reported to the flight recorder, so
    /// a `ParentSwitch` event can carry the pre-change view (the routing
    /// layer has already updated itself by the time its event is seen).
    traced_parents: (Option<NodeId>, Option<NodeId>),
}

impl TschMac {
    pub fn new(
        id: NodeId,
        is_ap: bool,
        flows: Vec<FlowSpec>,
        queue_capacity: usize,
        rank: Rank,
    ) -> TschMac {
        let mut core = StackCore::new(id, is_ap, flows);
        if is_ap {
            // Access points are synchronized roots from the start.
            core.telemetry.synced_at = Some(Asn::ZERO);
            core.telemetry.joined_at = Some(Asn::ZERO);
        }
        TschMac {
            core,
            app_queue: BoundedQueue::new(queue_capacity),
            routing_broadcast: None,
            child_last_seen: BTreeMap::new(),
            first_silent_at: None,
            synced_at: is_ap.then_some(Asn::ZERO),
            sync_changes: 0,
            last_tx: None,
            traced_rank: rank,
            traced_parents: (None, None),
        }
    }

    /// Cold reboot: queues, children and sync are factory-fresh, and the
    /// node must re-associate via EBs (`rank` is the rebuilt routing
    /// layer's).
    pub fn reboot(&mut self, asn: Asn, rank: Rank) {
        self.app_queue.clear();
        self.routing_broadcast = None;
        self.child_last_seen.clear();
        self.first_silent_at = None;
        self.set_synced_at(self.core.is_ap.then_some(asn));
        self.last_tx = None;
        self.traced_rank = rank;
        self.traced_parents = (None, None);
    }

    /// Clock slip: routing state and queues survive, but the radio must
    /// re-acquire slot alignment from an EB before any cell lines up again.
    /// Access points are wired time roots and cannot lose sync.
    pub fn desync(&mut self) {
        if !self.core.is_ap {
            self.set_synced_at(None);
            self.last_tx = None;
        }
    }

    /// When the node last acquired synchronization (`None`: it is scanning
    /// for EBs and its housekeeping is dormant).
    pub fn synced_at(&self) -> Option<Asn> {
        self.synced_at
    }

    fn set_synced_at(&mut self, synced_at: Option<Asn>) {
        self.synced_at = synced_at;
        self.sync_changes += 1;
    }

    /// Installs the flight-recorder handle (shared with the engine), with
    /// the routing layer's current rank and `(best, second)` parents.
    pub fn set_trace(
        &mut self,
        trace: TraceHandle,
        rank: Rank,
        parents: (Option<NodeId>, Option<NodeId>),
    ) {
        self.core.trace = trace;
        self.traced_rank = rank;
        self.traced_parents = parents;
    }

    /// Accounts for a parent change the routing layer reported: the
    /// flight-recorder event, the churn log, and the first join.
    pub fn parents_changed(&mut self, asn: Asn, best: Option<NodeId>, second: Option<NodeId>) {
        let (old_best, old_second) = std::mem::replace(&mut self.traced_parents, (best, second));
        self.core.record(
            asn,
            EventKind::ParentSwitch {
                old_best: old_best.map(|n| n.0),
                new_best: best.map(|n| n.0),
                old_second: old_second.map(|n| n.0),
                new_second: second.map(|n| n.0),
            },
        );
        let telemetry = &mut self.core.telemetry;
        telemetry.parent_changes.push(asn);
        if telemetry.joined_at.is_none() && best.is_some() {
            telemetry.joined_at = Some(asn);
        }
    }

    /// Records a rank change since the last recorded value (call after
    /// every routing-event batch, the only place rank moves).
    pub fn trace_rank(&mut self, asn: Asn, rank: Rank) {
        if rank != self.traced_rank {
            let old = Some(self.traced_rank.0);
            self.core.record(asn, EventKind::RankChange { old, new: rank.0 });
            self.traced_rank = rank;
        }
    }

    /// An EB was heard. A scanning radio must acquire slot timing from it;
    /// in real TSCH association this fails more often than not (the mote
    /// wakes mid-beacon, or the timing offset exceeds the guard). Model a
    /// 25 percent association success per EB.
    pub fn on_beacon(&mut self, asn: Asn) {
        if self.synced_at.is_none()
            && digs_sim::rng::uniform01(u64::from(self.core.id.0) ^ 0xeb, asn.0, 3, 1) < 0.25
        {
            self.set_synced_at(Some(asn));
            self.core.telemetry.synced_at = Some(asn);
        }
    }

    /// Opens a slot: generates due application packets, and answers for an
    /// unsynchronised node, which parks on a scan channel waiting for an EB.
    #[inline]
    pub fn begin_slot(&mut self, asn: Asn) -> Option<SlotIntent<Payload>> {
        self.last_tx = None;
        self.core.generate(asn, &mut self.app_queue, |queue, _| queue);
        match self.synced_at {
            Some(_) => None,
            None => Some(SlotIntent::Listen { offset: scan_offset(asn) }),
        }
    }

    /// The earliest slot at or after `from` at which the stack above must
    /// be asked for its intent, given the earliest slot its routing layer
    /// and its scheduler need (`protocol`, evaluated only when it counts).
    /// An unsynchronised node is due only when a flow generates — its
    /// scanning is a standing listen; a synchronised one also at the first
    /// child sweep that finds a silent child.
    #[inline]
    pub fn next_wake(&self, from: Asn, protocol: impl FnOnce() -> Asn) -> Asn {
        let mut wake = Asn(u64::MAX);
        if self.synced_at.is_some() {
            wake = protocol();
            if let Some(silent) = self.first_silent_at {
                wake = wake.min(Asn(from.max(silent).0.next_multiple_of(CHILD_SWEEP_PERIOD)));
            }
        }
        if let Some(generation) = self.core.next_generation(from) {
            wake = wake.min(generation);
        }
        wake
    }

    /// What the radio does in the slots [`Self::next_wake`] does not name:
    /// it scans while unsynchronised, and receives in the scheduler's
    /// receive cells (`scheduled`) after.
    pub fn standing_listens<'a>(&self, scheduled: StandingListens<'a>) -> StandingListens<'a> {
        match self.synced_at {
            None => StandingListens::EverySlot(scan_offset),
            Some(_) => scheduled,
        }
    }

    /// Moves whenever [`Self::standing_listens`] may: with the
    /// synchronization state and with the scheduler's `cells_version`.
    pub fn standing_version(&self, cells_version: u32) -> u64 {
        u64::from(self.sync_changes) << 32 | u64::from(cells_version)
    }

    /// Queues a routing broadcast, replacing any pending one: only the
    /// freshest is worth sending.
    pub fn queue_broadcast(&mut self, payload: Payload) {
        self.routing_broadcast = Some(payload);
    }

    /// Notes that `child` was heard at `asn`; `true` when it is newly
    /// registered (its receive cell was just installed).
    pub fn child_heard(&mut self, child: NodeId, asn: Asn) -> bool {
        let new = self.child_last_seen.insert(child, asn).is_none();
        self.find_first_silent();
        new
    }

    /// A sweep at `asn` forgets the children with
    /// `seen < asn - CHILD_SILENCE_SLOTS`: the first is the one heard
    /// longest ago, from the slot after its silence is complete.
    fn find_first_silent(&mut self) {
        let oldest = self.child_last_seen.values().min();
        self.first_silent_at = oldest.map(|seen| *seen + (CHILD_SILENCE_SLOTS + 1));
    }

    /// When `child` was last heard from.
    pub fn child_last_heard(&self, child: NodeId) -> Option<Asn> {
        self.child_last_seen.get(&child).copied()
    }

    /// Every [`CHILD_SWEEP_PERIOD`] slots, forgets and returns the children
    /// silent for longer than [`CHILD_SILENCE_SLOTS`]; the caller releases
    /// their cells.
    #[inline]
    pub fn sweep_children(&mut self, asn: Asn) -> Vec<NodeId> {
        if asn.0.is_multiple_of(CHILD_SWEEP_PERIOD) && !self.child_last_seen.is_empty() {
            self.sweep_children_now(asn)
        } else {
            Vec::new()
        }
    }

    fn sweep_children_now(&mut self, asn: Asn) -> Vec<NodeId> {
        let horizon = asn.0.saturating_sub(CHILD_SILENCE_SLOTS);
        let mut stale = Vec::new();
        self.child_last_seen.retain(|id, seen| {
            let keep = seen.0 >= horizon;
            if !keep {
                stale.push(*id);
            }
            keep
        });
        self.find_first_silent();
        stale
    }

    /// Turns the scheduler's cell for this slot into the radio's intent
    /// (a data cell's next hop is as the caller resolved it).
    pub fn cell_intent(&mut self, cell: Cell) -> SlotIntent<Payload> {
        let (tx, frame, contention) = match cell.action {
            CellAction::RxBeacon { .. } | CellAction::RxData => {
                return SlotIntent::Listen { offset: cell.offset };
            }
            CellAction::TxBeacon => {
                (LastTx::Beacon, self.core.frame(Dest::Broadcast, Payload::Eb), cell.contention)
            }
            CellAction::Shared => match self.routing_broadcast {
                Some(payload) => {
                    (LastTx::RoutingBroadcast, self.core.frame(Dest::Broadcast, payload), true)
                }
                None => return SlotIntent::Listen { offset: cell.offset },
            },
            CellAction::TxData { to, .. } => match self.app_queue.front() {
                Some(head) => {
                    (LastTx::Data { to }, self.core.data_frame(head, to), cell.contention)
                }
                // A TX cell with an empty queue sleeps (TSCH semantics).
                None => return SlotIntent::Sleep,
            },
        };
        self.last_tx = Some(tx);
        SlotIntent::Transmit { offset: cell.offset, frame, contention }
    }

    /// Takes in a data packet addressed to this node.
    pub fn accept(&mut self, packet: &DataPacket, asn: Asn) {
        self.core.accept(Some(&mut self.app_queue), packet, asn);
    }

    /// Settles this slot's transmission against the engine's `outcome`
    /// (`data_budget`: attempts a data packet gets at this hop). Returns
    /// `(peer, acked)` for a data frame that was put on the air, which the
    /// caller feeds to its routing layer's link estimator.
    pub fn settle(
        &mut self,
        outcome: TxOutcome,
        data_budget: u16,
        asn: Asn,
    ) -> Option<(NodeId, bool)> {
        match (self.last_tx.take()?, outcome) {
            (LastTx::RoutingBroadcast, TxOutcome::SentBroadcast) => {
                self.routing_broadcast = None;
                None
            }
            (LastTx::Data { to }, TxOutcome::Acked | TxOutcome::NoAck) => {
                self.core.settle_data(&mut self.app_queue, outcome, data_budget, asn);
                Some((to, outcome == TxOutcome::Acked))
            }
            // A beacon needs no settlement, and a CCA deferral leaves
            // whatever it held back queued for its next cell.
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_sweep_wake_matches_sweeping_every_slot() {
        let mut swept_children = 0;
        digs_cases::cases(12, |d| {
            // Synchronised from birth, no flow: only a sweep can be due.
            let mac = || TschMac::new(NodeId(0), true, Vec::new(), 4, Rank::ROOT);
            let (mut every, mut skipping) = (mac(), mac());
            let nothing_else = || Asn(u64::MAX);
            // Children heard now and then, each until it falls silent for good.
            let children = d.vec(1..6, |d| (NodeId(d.int(1u16..30)), d.int(1u64..30_000)));
            for now in (0..30_000 + CHILD_SILENCE_SLOTS + 2 * CHILD_SWEEP_PERIOD).map(Asn) {
                let swept = every.sweep_children(now);
                if skipping.next_wake(now, nothing_else) == now {
                    assert_eq!(skipping.sweep_children(now), swept, "at {now}");
                    assert!(!swept.is_empty(), "named {now}, a sweep that finds nobody");
                } else {
                    assert!(swept.is_empty(), "skipped {now}, which sweeps {swept:?}");
                }
                swept_children += swept.len();
                for (child, silent_from) in &children {
                    if now.0 < *silent_from && d.int(0..2_000) == 0 {
                        assert_eq!(
                            every.child_heard(*child, now),
                            skipping.child_heard(*child, now)
                        );
                    }
                }
            }
            assert_eq!(skipping.next_wake(Asn(0), nothing_else), Asn(u64::MAX), "children left");
        });
        assert!(swept_children >= 12, "only {swept_children} children swept");
    }
}
