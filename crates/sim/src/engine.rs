//! The slot-synchronous simulation engine.
//!
//! Each TSCH slot, every alive node whose stack is awake declares a
//! [`SlotIntent`] (a node the engine does not ask is asleep: radio off,
//! nothing to do — see the wake contract on [`NodeStack`]); the engine then:
//!
//! 1. commits dedicated-cell transmissions unconditionally,
//! 2. runs slotted CSMA/CA for shared-cell (contention) transmissions —
//!    a contender defers if a committed transmitter or a jammer is audible
//!    above the CCA threshold at its own position,
//! 3. for every listener, picks the strongest committed frame on its
//!    physical channel and decodes it with probability given by the
//!    PRR-vs-SINR curve, where the interference term sums every other
//!    concurrent transmission and all active jammers,
//! 4. generates link-layer acknowledgements for unicast frames (the ACK
//!    itself traverses the reverse link and can be lost),
//! 5. charges the CC2420 energy model for every radio activity,
//! 6. reports a [`TxOutcome`] to each transmitter.
//!
//! The engine is deterministic under its seed: nodes are visited in id
//! order and all randomness flows from one [`rng::SmallRng`] plus the
//! frozen hash-derived link/fading values.
//!
//! ## Wake-driven stepping
//!
//! A TSCH radio is off in almost every slot, and when a stack next has
//! anything to do is a pure function of its state (its cells, its timers,
//! its flows' periods). [`Engine::run`] therefore keeps, per node, the slot
//! [`NodeStack::next_wake`] last named, and skips `slot_intent` for a node
//! until that slot arrives. The wake slots are filled when `run` is entered
//! and refreshed at the end of each slot for exactly the nodes that were
//! asked in it (only they can have received a frame or a transmission
//! outcome, so only their state can have moved); they live no longer than
//! the `run` call's borrow of the stacks, so whatever the caller does to a
//! stack between calls needs no invalidation. Fault handling, `reset` and
//! `desync` (each forces the node awake in its slot), slot accounting on
//! the energy meters, the visiting order, the random stream and every trace
//! event are where they would be if every node were asked in every slot.

use crate::channel::ChannelOffset;
use crate::energy::{EnergyMeter, ACK_WAIT_US, IDLE_LISTEN_US};
use crate::fault::FaultPlan;
use crate::ids::NodeId;
use crate::interference::{total_interference_mw, Jammer};
use crate::link::LinkModel;
use crate::packet::{Frame, ACK_AIRTIME_US};
use crate::rf::{prr_from_sinr_db, Dbm, RfConfig};
use crate::rng::{self, SmallRng};
use crate::time::Asn;
use crate::topology::Topology;
use crate::trace::EngineStats;
use digs_trace::{DropReason, EventKind, TraceHandle};

/// CCA threshold: a contender defers if it senses energy above this level.
pub const CCA_THRESHOLD: Dbm = Dbm(-85.0);

/// Receive sensitivity: frames arriving below this level are never decoded
/// and do not contribute interference worth modelling.
pub const SENSITIVITY: Dbm = Dbm(-94.0);

/// What a node does with its radio during one slot.
#[derive(Debug, Clone)]
pub enum SlotIntent<P> {
    /// Radio off.
    Sleep,
    /// Listen on a channel offset (receive cell).
    Listen {
        /// TSCH channel offset to listen on.
        offset: ChannelOffset,
    },
    /// Transmit a frame on a channel offset.
    Transmit {
        /// TSCH channel offset to transmit on.
        offset: ChannelOffset,
        /// The frame to send.
        frame: Frame<P>,
        /// `true` in shared cells: run CSMA/CA and defer on busy channel.
        contention: bool,
    },
}

/// Result of a transmission attempt, reported back to the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxOutcome {
    /// Unicast frame delivered and acknowledged.
    Acked,
    /// Unicast frame sent but no acknowledgement arrived (frame lost,
    /// destination not listening, or ACK lost).
    NoAck,
    /// Broadcast frame put on the air (no feedback).
    SentBroadcast,
    /// CSMA found the channel busy; the frame was not transmitted.
    DeferredCca,
}

/// A protocol stack driven by the engine, one instance per node.
///
/// Implementations live in the `digs` crate (DiGS, Orchestra, and
/// WirelessHART stacks). All callbacks receive the current ASN. In a slot
/// in which the node is alive and awake the engine calls `slot_intent`
/// once, then delivers zero or more `on_frame`s, then at most one
/// `on_tx_outcome`; a node that is not asked gets no callback at all.
///
/// ## Wake contract
///
/// [`next_wake`](NodeStack::next_wake) lets a stack tell the engine when
/// it next needs to be asked. The engine calls it on entering
/// [`Engine::run`] and again after every slot in which the node was asked
/// (after that slot's callbacks), and does not call `slot_intent` before
/// the slot it returned — except in a slot where it calls `reset` or
/// `desync`, in which the node is always asked. A stack that names a slot
/// later than `from` promises that in every slot before it `slot_intent`
/// would have answered [`SlotIntent::Sleep`] and changed nothing
/// observable: no trace event, no telemetry or counter the harness reads,
/// no queue, routing, schedule or timer state that a later answer, a
/// snapshot or an auditor could tell apart. Naming a slot earlier than
/// necessary is always safe; it only costs the call.
pub trait NodeStack {
    /// Protocol-defined frame payload.
    type Payload: Clone;

    /// Declares the node's radio activity for this slot.
    fn slot_intent(&mut self, asn: Asn) -> SlotIntent<Self::Payload>;

    /// Delivers a successfully decoded frame (promiscuous: the stack must
    /// filter on `frame.dst` if it only wants frames addressed to it;
    /// overhearing broadcasts such as EBs is how joining works).
    fn on_frame(&mut self, asn: Asn, frame: &Frame<Self::Payload>, rss: Dbm);

    /// Reports the outcome of this slot's transmission, if one was declared.
    fn on_tx_outcome(&mut self, asn: Asn, outcome: TxOutcome);

    /// Cold-restarts the stack: the node just finished a
    /// [`Reboot`](crate::fault::Reboot) and comes back with factory state —
    /// no routes, no schedule, no time sync. Invoked by the engine at the
    /// first slot the node is alive again. The default is a no-op so simple
    /// test stacks need not care.
    fn reset(&mut self, _asn: Asn) {}

    /// Notifies the stack that its TSCH clock slipped past the guard time
    /// (a [`ClockDesync`](crate::fault::ClockDesync) event): the node keeps
    /// its routing state but must re-acquire slot alignment from enhanced
    /// beacons. Default no-op.
    fn desync(&mut self, _asn: Asn) {}

    /// The earliest slot at or after `from` at which `slot_intent` must be
    /// called (see the wake contract above). Slots in which the node is
    /// dead do not count: the stack is not called in them either way, and
    /// a wake slot that passes during an outage is honoured at the first
    /// slot the node is alive again. The default, `from`, asks in every
    /// slot, which is right for any stack whose `slot_intent` has effects
    /// it cannot predict (a scripted test stack, say).
    fn next_wake(&self, from: Asn) -> Asn {
        from
    }
}

struct CommittedTx<P> {
    node: NodeId,
    frame: Frame<P>,
}

/// The simulation engine. See the [module documentation](self) for the slot
/// resolution algorithm.
#[derive(Debug)]
pub struct Engine {
    topology: Topology,
    link: LinkModel,
    jammers: Vec<Jammer>,
    /// Ambient (cross-network) interference sources: boundary load
    /// installed by the fleet's shard exchange. Kept apart from
    /// `jammers` so scenario-owned adversaries and fleet-owned boundary
    /// state can be replaced independently between slotframe windows.
    ambient: Vec<Jammer>,
    faults: FaultPlan,
    rng: SmallRng,
    asn: Asn,
    energy: Vec<EnergyMeter>,
    stats: EngineStats,
    /// Nodes whose reboot downtime has elapsed but whose cold reset has not
    /// fired yet (an overlapping outage can keep a node down past the end of
    /// its reboot window; the reset fires at the first slot it is alive).
    pending_reset: Vec<bool>,
    /// Flight recorder; off by default (one branch per potential event).
    trace: TraceHandle,
}

impl Engine {
    /// Creates an engine over a topology with the given RF environment and
    /// seed. The seed controls the frozen link realisation *and* all
    /// per-slot randomness.
    pub fn new(topology: Topology, rf: RfConfig, seed: u64) -> Engine {
        let link = LinkModel::new(&topology, rf, seed);
        let n = topology.len();
        Engine {
            topology,
            link,
            jammers: Vec::new(),
            ambient: Vec::new(),
            faults: FaultPlan::none(),
            rng: rng::engine_rng(seed),
            asn: Asn::ZERO,
            energy: vec![EnergyMeter::new(); n],
            stats: EngineStats::default(),
            pending_reset: vec![false; n],
            trace: TraceHandle::off(),
        }
    }

    /// Installs a flight-recorder handle (pass [`TraceHandle::off`] to
    /// disable tracing again).
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// The flight-recorder handle (clone it to share with stacks).
    pub fn trace(&self) -> &TraceHandle {
        &self.trace
    }

    /// The simulated topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The link model (useful for oracle computations in tests and for the
    /// centralized manager's link-state database).
    pub fn link_model(&self) -> &LinkModel {
        &self.link
    }

    /// Current absolute slot number (the next slot to be simulated).
    pub fn asn(&self) -> Asn {
        self.asn
    }

    /// Adds an interference source.
    pub fn add_jammer(&mut self, jammer: Jammer) {
        self.jammers.push(jammer);
    }

    /// The configured interference sources.
    pub fn jammers(&self) -> &[Jammer] {
        &self.jammers
    }

    /// Replaces the ambient (cross-network) interference set wholesale.
    /// The fleet's shard exchange calls this at slotframe-window edges
    /// with fresh boundary-load estimates; emission is hash-gated on
    /// `(salt, asn, channel)`, so swapping the set never perturbs the
    /// engine's random stream.
    pub fn set_ambient_jammers(&mut self, ambient: Vec<Jammer>) {
        self.ambient = ambient;
    }

    /// The currently installed ambient interference sources.
    pub fn ambient_jammers(&self) -> &[Jammer] {
        &self.ambient
    }

    /// Installs the failure schedule.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// The currently installed failure schedule.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// Whether a node is alive in the current slot.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.faults.is_alive(node, self.asn)
    }

    /// Per-node energy meter.
    pub fn energy(&self, node: NodeId) -> &EnergyMeter {
        &self.energy[node.index()]
    }

    /// All energy meters, indexed by node.
    pub fn energy_meters(&self) -> &[EnergyMeter] {
        &self.energy
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// The value the engine's random stream yields next, without drawing
    /// it: two engines that agree on it have consumed the same randomness
    /// (differential tests compare it).
    pub fn peek_rng(&self) -> u64 {
        self.rng.clone().next_u64()
    }

    /// Runs `slots` slots, asking each node for its intent only in the
    /// slots its stack's [`NodeStack::next_wake`] names.
    ///
    /// # Panics
    ///
    /// Panics if `stacks.len()` differs from the topology size.
    pub fn run<S: NodeStack>(&mut self, stacks: &mut [S], slots: u64) {
        assert_eq!(stacks.len(), self.topology.len(), "one stack per topology node required");
        let mut wake: Vec<Asn> = stacks.iter().map(|s| s.next_wake(self.asn)).collect();
        // The nodes asked in the current slot (reused across slots).
        let mut asked: Vec<usize> = Vec::new();
        for _ in 0..slots {
            self.slot(stacks, &mut wake, &mut asked);
        }
    }

    /// Simulates one slot (`run(stacks, 1)`).
    ///
    /// # Panics
    ///
    /// Panics if `stacks.len()` differs from the topology size.
    pub fn step<S: NodeStack>(&mut self, stacks: &mut [S]) {
        self.run(stacks, 1);
    }

    /// One slot of [`Engine::run`]: `wake[i]` is the slot node `i` must
    /// next be asked in.
    fn slot<S: NodeStack>(&mut self, stacks: &mut [S], wake: &mut [Asn], asked: &mut Vec<usize>) {
        let asn = self.asn;
        let rf = self.link.rf();
        let tracing = self.trace.is_on();
        if tracing {
            self.trace.record_network(asn.0, EventKind::SlotStart);
            for (node, fault, peer, injected) in self.faults.transitions_at(asn) {
                let kind = if injected {
                    EventKind::FaultInject { fault, peer: peer.map(|p| p.0) }
                } else {
                    EventKind::FaultClear { fault, peer: peer.map(|p| p.0) }
                };
                self.trace.record(asn.0, node.0, kind);
            }
        }

        // Phase 1: collect intents from alive nodes.
        let mut listeners: Vec<(NodeId, ChannelOffset)> = Vec::new();
        let mut dedicated: Vec<(NodeId, ChannelOffset, Frame<S::Payload>)> = Vec::new();
        let mut contenders: Vec<(NodeId, ChannelOffset, Frame<S::Payload>)> = Vec::new();
        for (i, stack) in stacks.iter_mut().enumerate() {
            let id = NodeId(i as u16);
            if self.faults.has_reboots() && self.faults.reboot_completing_at(id, asn) {
                self.pending_reset[i] = true;
            }
            if !self.faults.is_alive(id, asn) {
                continue;
            }
            // A reset or desync changes the stack under the wake slot it
            // named, so either one wakes the node now.
            let mut awake = wake[i] <= asn;
            if self.pending_reset[i] {
                self.pending_reset[i] = false;
                if tracing {
                    self.trace.record(asn.0, id.0, EventKind::NodeReset);
                }
                stack.reset(asn);
                awake = true;
            }
            if self.faults.has_desyncs() && self.faults.desync_at(id, asn) {
                if tracing {
                    self.trace.record(asn.0, id.0, EventKind::ClockDesync);
                }
                stack.desync(asn);
                awake = true;
            }
            self.energy[i].tick_slot();
            if !awake {
                continue;
            }
            asked.push(i);
            match stack.slot_intent(asn) {
                SlotIntent::Sleep => {}
                SlotIntent::Listen { offset } => listeners.push((id, offset)),
                SlotIntent::Transmit { offset, frame, contention } => {
                    debug_assert_eq!(frame.src, id, "frame src must be the transmitting node");
                    if contention {
                        contenders.push((id, offset, frame));
                    } else {
                        dedicated.push((id, offset, frame));
                    }
                }
            }
        }

        // Phase 2: commit transmissions. Dedicated cells transmit
        // unconditionally; shared cells run CSMA/CA in a random order.
        let mut committed: Vec<CommittedTx<S::Payload>> = Vec::new();
        let mut committed_channels = Vec::new();
        let mut committed_contention = Vec::new();
        let mut deferred: Vec<NodeId> = Vec::new();
        for (id, offset, frame) in dedicated {
            committed_channels.push(offset.hop(asn));
            committed_contention.push(false);
            committed.push(CommittedTx { node: id, frame });
        }
        // Random backoff order, deterministic under the engine seed.
        for i in (1..contenders.len()).rev() {
            let j = self.rng.up_to(i);
            contenders.swap(i, j);
        }
        for (id, offset, frame) in contenders {
            let ch = offset.hop(asn);
            // CCA: busy if any committed 802.15.4 transmitter on this
            // channel is audible. Jammers do NOT trip CCA: the emulated
            // WiFi/Bluetooth bursts are microseconds long and use a foreign
            // modulation, which 802.15.4 carrier sense does not reliably
            // detect — nodes transmit into the jam and lose frames, as on
            // the paper's testbeds.
            let busy = committed.iter().zip(&committed_channels).any(|(tx, tx_ch)| {
                *tx_ch == ch
                    && tx.node != id
                    && self.link.static_rss(tx.node, id).dbm() > CCA_THRESHOLD.dbm()
            });
            if busy {
                deferred.push(id);
                self.stats.cca_deferrals += 1;
                if tracing {
                    self.trace.record(asn.0, id.0, EventKind::CcaDefer);
                }
                // A deferring node keeps its radio in RX for the rest of
                // the slot — it hears the winning frame like any listener.
                listeners.push((id, offset));
            } else {
                committed_channels.push(ch);
                committed_contention.push(true);
                committed.push(CommittedTx { node: id, frame });
            }
        }

        // Phase 3: reception. For each listener, decode the strongest
        // committed frame on its physical channel against the sum of all
        // other signals, jammers, and thermal noise.
        // deliveries: (listener, committed_idx, rss); ack_map: committed_idx -> acked
        let mut deliveries: Vec<(NodeId, usize, Dbm)> = Vec::new();
        let mut acked = vec![false; committed.len()];
        for (rx_id, offset) in &listeners {
            let ch = offset.hop(asn);
            let rx_pos = self.topology.position(*rx_id);
            // Candidate signals on this channel audible at the listener.
            let mut cands: Vec<(usize, Dbm)> = committed
                .iter()
                .enumerate()
                .filter(|(k, tx)| {
                    tx.node != *rx_id
                        && committed_channels[*k] == ch
                        && (!self.faults.has_link_outages()
                            || self.faults.is_link_up(tx.node, *rx_id, asn))
                })
                .map(|(k, tx)| (k, self.link.rss(tx.node, *rx_id, ch, asn)))
                .filter(|(_, rss)| rss.dbm() > SENSITIVITY.dbm())
                .collect();
            if cands.is_empty() {
                self.energy[rx_id.index()].charge_rx(IDLE_LISTEN_US);
                continue;
            }
            cands.sort_by(|a, b| b.1.dbm().total_cmp(&a.1.dbm()));
            let (best_idx, best_rss) = cands[0];
            let mut interference_mw = total_interference_mw(&self.jammers, &rx_pos, ch, asn, rf)
                + total_interference_mw(&self.ambient, &rx_pos, ch, asn, rf)
                + rf.noise_floor.to_milliwatts();
            for (_, rss) in &cands[1..] {
                interference_mw += rss.to_milliwatts();
            }
            let sinr_db = best_rss.dbm() - 10.0 * interference_mw.log10();
            let frame = &committed[best_idx].frame;
            // The radio stays in RX for the frame airtime whether or not the
            // CRC ultimately passes.
            self.energy[rx_id.index()].charge_rx(frame.airtime_us());
            if self.rng.next_f64() < prr_from_sinr_db(sinr_db) {
                deliveries.push((*rx_id, best_idx, best_rss));
                if frame.dst.expects_ack() && frame.dst.addressed_to(*rx_id) {
                    // The receiver transmits an ACK on the reverse link.
                    self.energy[rx_id.index()].charge_tx(ACK_AIRTIME_US);
                    let tx_id = frame.src;
                    let tx_pos = self.topology.position(tx_id);
                    let link_up = !self.faults.has_link_outages()
                        || self.faults.is_link_up(*rx_id, tx_id, asn);
                    let ack_rss = self.link.rss(*rx_id, tx_id, ch, asn);
                    let ack_inter = total_interference_mw(&self.jammers, &tx_pos, ch, asn, rf)
                        + total_interference_mw(&self.ambient, &tx_pos, ch, asn, rf)
                        + rf.noise_floor.to_milliwatts();
                    let ack_sinr = ack_rss.dbm() - 10.0 * ack_inter.log10();
                    if link_up && self.rng.next_f64() < prr_from_sinr_db(ack_sinr) {
                        acked[best_idx] = true;
                    }
                }
            } else if cands.len() > 1 {
                self.stats.collision_drops += 1;
            } else {
                self.stats.noise_drops += 1;
            }
        }

        // Phase 4: stats + energy for transmitters.
        for (k, tx) in committed.iter().enumerate() {
            self.stats.channel_tx[committed_channels[k].0 as usize] += 1;
            let meter = &mut self.energy[tx.node.index()];
            meter.charge_tx(tx.frame.airtime_us());
            if tx.frame.dst.expects_ack() {
                meter.charge_rx(ACK_WAIT_US);
            }
            let counters = self.stats.kind_mut(tx.frame.kind);
            counters.transmitted += 1;
            if tx.frame.dst.expects_ack() {
                if acked[k] {
                    counters.acked += 1;
                } else {
                    counters.unacked += 1;
                    if let crate::packet::Dest::Unicast(dst) = tx.frame.dst {
                        let ch = committed_channels[k];
                        let dst_listening =
                            listeners.iter().any(|(id, off)| *id == dst && off.hop(asn) == ch);
                        if !dst_listening && tx.frame.kind == crate::packet::FrameKind::Data {
                            self.stats.unacked_no_listener += 1;
                        }
                    }
                }
            }
        }
        for (_, k, _) in &deliveries {
            self.stats.kind_mut(committed[*k].frame.kind).received += 1;
        }
        self.stats.slots += 1;

        // Adaptive jammers passively observe this slot's committed physical
        // channels and advance their learn/jam state machines. The sniffer
        // consumes no engine randomness, so determinism is untouched; the
        // engine-level counters are cumulative sums over all jammers.
        let mut any_adaptive = false;
        for jammer in &mut self.jammers {
            if let Some(t) = jammer.observe_slot(asn, &committed_channels) {
                if tracing {
                    self.trace.record_network(
                        asn.0,
                        EventKind::AttackPhase {
                            jamming: t.jamming,
                            targets: t.targets,
                            hit_rate_bp: t.hit_rate_bp,
                        },
                    );
                }
            }
            any_adaptive |= jammer.adaptive_counters().is_some();
        }
        if any_adaptive {
            let mut sum = crate::interference::AdaptiveCounters::default();
            for c in self.jammers.iter().filter_map(Jammer::adaptive_counters) {
                sum.jam_slots += c.jam_slots;
                sum.hits += c.hits;
                sum.opportunities += c.opportunities;
                sum.retargets += c.retargets;
                sum.relearns += c.relearns;
            }
            self.stats.adaptive_jam_slots = sum.jam_slots;
            self.stats.adaptive_jam_hits = sum.hits;
            self.stats.adaptive_jam_opportunities = sum.opportunities;
            self.stats.adaptive_retargets = sum.retargets;
            self.stats.adaptive_relearns = sum.relearns;
        }

        // Phase 5: callbacks — deliveries first, then outcomes, in id order.
        deliveries.sort_by_key(|(rx, _, _)| *rx);
        for (rx_id, k, rss) in &deliveries {
            if tracing {
                let frame = &committed[*k].frame;
                self.trace.record(
                    asn.0,
                    rx_id.0,
                    EventKind::Rx {
                        src: frame.src.0,
                        class: frame.kind.traffic_class(),
                        packet: frame.trace_id,
                    },
                );
            }
            stacks[rx_id.index()].on_frame(asn, &committed[*k].frame, *rss);
        }
        for (k, tx) in committed.iter().enumerate() {
            let outcome = if !tx.frame.dst.expects_ack() {
                TxOutcome::SentBroadcast
            } else if acked[k] {
                TxOutcome::Acked
            } else {
                TxOutcome::NoAck
            };
            if tracing {
                let dst = match tx.frame.dst {
                    crate::packet::Dest::Unicast(d) => Some(d.0),
                    crate::packet::Dest::Broadcast => None,
                };
                self.trace.record(
                    asn.0,
                    tx.node.0,
                    EventKind::Tx {
                        dst,
                        class: tx.frame.kind.traffic_class(),
                        channel: committed_channels[k].0,
                        contention: committed_contention[k],
                        packet: tx.frame.trace_id,
                    },
                );
                match (outcome, dst) {
                    (TxOutcome::Acked, Some(d)) => {
                        self.trace.record(
                            asn.0,
                            tx.node.0,
                            EventKind::Ack { dst: d, packet: tx.frame.trace_id },
                        );
                    }
                    (TxOutcome::NoAck, Some(d)) => {
                        // Diagnose the loss: the frame was decoded by the
                        // addressee but the ACK died on the way back; the
                        // destination never had its radio on this channel;
                        // or the frame itself was lost on the air.
                        let decoded_by_dst =
                            deliveries.iter().any(|(rx, kk, _)| *kk == k && rx.0 == d);
                        let reason = if decoded_by_dst {
                            DropReason::AckLost
                        } else {
                            let ch = committed_channels[k];
                            let dst_listening =
                                listeners.iter().any(|(id, off)| id.0 == d && off.hop(asn) == ch);
                            if dst_listening {
                                DropReason::FrameLost
                            } else {
                                DropReason::NoListener
                            }
                        };
                        self.trace.record(
                            asn.0,
                            tx.node.0,
                            EventKind::Nack { dst: d, reason, packet: tx.frame.trace_id },
                        );
                    }
                    _ => {}
                }
            }
            stacks[tx.node.index()].on_tx_outcome(asn, outcome);
        }
        for id in deferred {
            stacks[id.index()].on_tx_outcome(asn, TxOutcome::DeferredCca);
        }

        self.asn = asn.next();
        // Only a node that was asked can have been called back, so only
        // its wake slot can have moved.
        for i in asked.drain(..) {
            wake[i] = stacks[i].next_wake(self.asn);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Dest, FrameKind};
    use crate::position::Position;
    use crate::topology::{Role, Topology};

    /// A scriptable test stack.
    #[derive(Default)]
    struct TestStack {
        plan: std::collections::HashMap<u64, SlotIntent<u32>>,
        received: Vec<(u64, u32, f64)>,
        outcomes: Vec<(u64, TxOutcome)>,
        resets: Vec<u64>,
        desyncs: Vec<u64>,
    }

    impl NodeStack for TestStack {
        type Payload = u32;

        fn slot_intent(&mut self, asn: Asn) -> SlotIntent<u32> {
            self.plan.remove(&asn.0).unwrap_or(SlotIntent::Sleep)
        }

        fn on_frame(&mut self, asn: Asn, frame: &Frame<u32>, rss: Dbm) {
            self.received.push((asn.0, frame.payload, rss.dbm()));
        }

        fn on_tx_outcome(&mut self, asn: Asn, outcome: TxOutcome) {
            self.outcomes.push((asn.0, outcome));
        }

        fn reset(&mut self, asn: Asn) {
            self.resets.push(asn.0);
        }

        fn desync(&mut self, asn: Asn) {
            self.desyncs.push(asn.0);
        }
    }

    fn two_node_topology(gap_m: f64) -> Topology {
        Topology::new(
            "pair",
            vec![Position::new(0.0, 0.0), Position::new(gap_m, 0.0)],
            vec![Role::AccessPoint, Role::FieldDevice],
        )
    }

    fn tx_intent(src: u16, dst: Option<u16>, payload: u32, contention: bool) -> SlotIntent<u32> {
        let dest = match dst {
            Some(d) => Dest::Unicast(NodeId(d)),
            None => Dest::Broadcast,
        };
        SlotIntent::Transmit {
            offset: ChannelOffset::new(0),
            frame: Frame::new(NodeId(src), dest, FrameKind::Data, 60, payload),
            contention,
        }
    }

    #[test]
    fn unicast_over_short_link_is_acked() {
        let topo = two_node_topology(5.0);
        let mut engine = Engine::new(topo, RfConfig::deterministic(), 7);
        let mut stacks = vec![TestStack::default(), TestStack::default()];
        stacks[1].plan.insert(0, tx_intent(1, Some(0), 42, false));
        stacks[0].plan.insert(0, SlotIntent::Listen { offset: ChannelOffset::new(0) });
        engine.step(&mut stacks);
        assert_eq!(stacks[0].received.len(), 1);
        assert_eq!(stacks[0].received[0].1, 42);
        assert_eq!(stacks[1].outcomes, vec![(0, TxOutcome::Acked)]);
        assert_eq!(engine.stats().data.acked, 1);
    }

    #[test]
    fn nobody_listening_means_no_ack() {
        let topo = two_node_topology(5.0);
        let mut engine = Engine::new(topo, RfConfig::deterministic(), 7);
        let mut stacks = vec![TestStack::default(), TestStack::default()];
        stacks[1].plan.insert(0, tx_intent(1, Some(0), 42, false));
        engine.step(&mut stacks);
        assert!(stacks[0].received.is_empty());
        assert_eq!(stacks[1].outcomes, vec![(0, TxOutcome::NoAck)]);
    }

    #[test]
    fn broadcast_is_not_acked() {
        let topo = two_node_topology(5.0);
        let mut engine = Engine::new(topo, RfConfig::deterministic(), 7);
        let mut stacks = vec![TestStack::default(), TestStack::default()];
        stacks[1].plan.insert(0, tx_intent(1, None, 9, false));
        stacks[0].plan.insert(0, SlotIntent::Listen { offset: ChannelOffset::new(0) });
        engine.step(&mut stacks);
        assert_eq!(stacks[0].received.len(), 1);
        assert_eq!(stacks[1].outcomes, vec![(0, TxOutcome::SentBroadcast)]);
    }

    #[test]
    fn out_of_range_link_fails() {
        let topo = two_node_topology(500.0);
        let mut engine = Engine::new(topo, RfConfig::deterministic(), 7);
        let mut stacks = vec![TestStack::default(), TestStack::default()];
        stacks[1].plan.insert(0, tx_intent(1, Some(0), 42, false));
        stacks[0].plan.insert(0, SlotIntent::Listen { offset: ChannelOffset::new(0) });
        engine.step(&mut stacks);
        assert!(stacks[0].received.is_empty());
        assert_eq!(stacks[1].outcomes, vec![(0, TxOutcome::NoAck)]);
    }

    #[test]
    fn mismatched_channels_do_not_deliver() {
        let topo = two_node_topology(5.0);
        let mut engine = Engine::new(topo, RfConfig::deterministic(), 7);
        let mut stacks = vec![TestStack::default(), TestStack::default()];
        stacks[1].plan.insert(0, tx_intent(1, Some(0), 42, false));
        stacks[0].plan.insert(0, SlotIntent::Listen { offset: ChannelOffset::new(3) });
        engine.step(&mut stacks);
        assert!(stacks[0].received.is_empty());
    }

    #[test]
    fn dead_node_does_not_participate() {
        let topo = two_node_topology(5.0);
        let mut engine = Engine::new(topo, RfConfig::deterministic(), 7);
        engine.set_fault_plan(
            FaultPlan::none().with(crate::fault::Outage::permanent(NodeId(1), Asn(0))),
        );
        let mut stacks = vec![TestStack::default(), TestStack::default()];
        stacks[1].plan.insert(0, tx_intent(1, Some(0), 42, false));
        stacks[0].plan.insert(0, SlotIntent::Listen { offset: ChannelOffset::new(0) });
        engine.step(&mut stacks);
        assert!(stacks[0].received.is_empty());
        assert!(stacks[1].outcomes.is_empty());
        // The intent was never consumed.
        assert!(stacks[1].plan.contains_key(&0));
    }

    #[test]
    fn collision_of_equal_signals_destroys_both() {
        // Two transmitters equidistant from one listener, dedicated cells
        // (simulating a schedule bug): the SINR is ~0 dB, so reception is
        // very unlikely.
        let topo = Topology::new(
            "triple",
            vec![Position::new(0.0, 0.0), Position::new(-6.0, 0.0), Position::new(6.0, 0.0)],
            vec![Role::AccessPoint, Role::FieldDevice, Role::FieldDevice],
        );
        let mut delivered = 0;
        for seed in 0..30 {
            let mut engine = Engine::new(topo.clone(), RfConfig::deterministic(), seed);
            let mut stacks = vec![TestStack::default(), TestStack::default(), TestStack::default()];
            stacks[1].plan.insert(0, tx_intent(1, Some(0), 1, false));
            stacks[2].plan.insert(0, tx_intent(2, Some(0), 2, false));
            stacks[0].plan.insert(0, SlotIntent::Listen { offset: ChannelOffset::new(0) });
            engine.step(&mut stacks);
            delivered += stacks[0].received.len();
        }
        assert!(delivered <= 3, "equal-power collision mostly destroys frames: {delivered}");
    }

    #[test]
    fn csma_defers_second_contender() {
        // Two contenders in carrier-sense range: exactly one transmits.
        let topo = Topology::new(
            "triple",
            vec![Position::new(0.0, 0.0), Position::new(5.0, 0.0), Position::new(7.0, 0.0)],
            vec![Role::AccessPoint, Role::FieldDevice, Role::FieldDevice],
        );
        let mut engine = Engine::new(topo, RfConfig::deterministic(), 3);
        let mut stacks = vec![TestStack::default(), TestStack::default(), TestStack::default()];
        stacks[1].plan.insert(0, tx_intent(1, Some(0), 1, true));
        stacks[2].plan.insert(0, tx_intent(2, Some(0), 2, true));
        stacks[0].plan.insert(0, SlotIntent::Listen { offset: ChannelOffset::new(0) });
        engine.step(&mut stacks);
        let deferrals = [&stacks[1], &stacks[2]]
            .iter()
            .flat_map(|s| &s.outcomes)
            .filter(|(_, o)| *o == TxOutcome::DeferredCca)
            .count();
        assert_eq!(deferrals, 1, "exactly one contender defers");
        assert_eq!(engine.stats().cca_deferrals, 1);
        assert_eq!(stacks[0].received.len(), 1);
    }

    #[test]
    fn jammer_blocks_nearby_link() {
        use crate::interference::Jammer;
        let topo = two_node_topology(12.0);
        // Jammer sits right next to the receiver, continuously on, and we
        // pick a slot where the hop lands on a covered channel.
        let mut delivered = 0;
        let mut attempts = 0;
        for seed in 0..20 {
            let mut engine = Engine::new(topo.clone(), RfConfig::deterministic(), seed);
            let mut j = Jammer::wifi(Position::new(0.5, 0.0), 1, Asn(0));
            j.tx_power = Dbm(20.0);
            engine.add_jammer(j);
            let mut stacks = vec![TestStack::default(), TestStack::default()];
            // Offset 0 at ASN 0 → physical channel 0 (IEEE 11), jammed by WiFi ch.1.
            stacks[1].plan.insert(0, tx_intent(1, Some(0), 42, false));
            stacks[0].plan.insert(0, SlotIntent::Listen { offset: ChannelOffset::new(0) });
            engine.step(&mut stacks);
            attempts += 1;
            delivered += stacks[0].received.len();
        }
        assert!(
            delivered < attempts / 2,
            "strong co-channel jammer should destroy most frames ({delivered}/{attempts})"
        );
    }

    #[test]
    fn energy_accrues_for_all_activities() {
        let topo = two_node_topology(5.0);
        let mut engine = Engine::new(topo, RfConfig::deterministic(), 7);
        let mut stacks = vec![TestStack::default(), TestStack::default()];
        stacks[1].plan.insert(0, tx_intent(1, Some(0), 42, false));
        stacks[0].plan.insert(0, SlotIntent::Listen { offset: ChannelOffset::new(0) });
        engine.step(&mut stacks);
        let tx_meter = engine.energy(NodeId(1));
        let rx_meter = engine.energy(NodeId(0));
        assert!(tx_meter.tx_us > 0, "transmitter charged TX");
        assert!(tx_meter.rx_us > 0, "transmitter charged ACK wait");
        assert!(rx_meter.rx_us > 0, "receiver charged RX");
        assert!(rx_meter.tx_us > 0, "receiver charged ACK TX");
    }

    #[test]
    fn idle_listen_cheaper_than_reception() {
        let topo = two_node_topology(5.0);
        let mut engine = Engine::new(topo, RfConfig::deterministic(), 7);
        let mut stacks = vec![TestStack::default(), TestStack::default()];
        stacks[0].plan.insert(0, SlotIntent::Listen { offset: ChannelOffset::new(0) });
        engine.step(&mut stacks);
        let idle_rx = engine.energy(NodeId(0)).rx_us;
        assert_eq!(idle_rx, u64::from(IDLE_LISTEN_US));
    }

    #[test]
    fn link_outage_blocks_frames_but_not_other_links() {
        use crate::fault::LinkOutage;
        let topo = Topology::new(
            "triple",
            vec![Position::new(0.0, 0.0), Position::new(5.0, 0.0), Position::new(-5.0, 0.0)],
            vec![Role::AccessPoint, Role::FieldDevice, Role::FieldDevice],
        );
        let mut engine = Engine::new(topo, RfConfig::deterministic(), 7);
        engine.set_fault_plan(FaultPlan::none().with_link(LinkOutage::permanent(
            NodeId(1),
            NodeId(0),
            Asn(0),
        )));
        let mut stacks = vec![TestStack::default(), TestStack::default(), TestStack::default()];
        // Node 1 → AP over the broken link fails; node 2 → AP still works.
        stacks[1].plan.insert(0, tx_intent(1, Some(0), 11, false));
        stacks[2].plan.insert(1, tx_intent(2, Some(0), 22, false));
        stacks[0].plan.insert(0, SlotIntent::Listen { offset: ChannelOffset::new(0) });
        stacks[0].plan.insert(1, SlotIntent::Listen { offset: ChannelOffset::new(0) });
        engine.step(&mut stacks);
        engine.step(&mut stacks);
        assert_eq!(stacks[1].outcomes, vec![(0, TxOutcome::NoAck)]);
        assert_eq!(stacks[2].outcomes, vec![(1, TxOutcome::Acked)]);
        assert_eq!(stacks[0].received.len(), 1);
        assert_eq!(stacks[0].received[0].1, 22);
    }

    #[test]
    fn reboot_is_dead_during_window_and_resets_on_return() {
        use crate::fault::Reboot;
        let topo = two_node_topology(5.0);
        let mut engine = Engine::new(topo, RfConfig::deterministic(), 7);
        engine.set_fault_plan(FaultPlan::none().with_reboot(Reboot::new(
            NodeId(1),
            Asn(1),
            Asn(3),
        )));
        let mut stacks = vec![TestStack::default(), TestStack::default()];
        for asn in [1u64, 2] {
            stacks[1].plan.insert(asn, tx_intent(1, Some(0), 42, false));
        }
        engine.run(&mut stacks, 5);
        // Intents during the downtime were never consumed, and the reset
        // fired exactly once, at the first slot back up.
        assert!(stacks[1].plan.contains_key(&1));
        assert!(stacks[1].plan.contains_key(&2));
        assert_eq!(stacks[1].resets, vec![3]);
        assert!(stacks[0].resets.is_empty());
    }

    #[test]
    fn reset_waits_for_overlapping_outage_to_clear() {
        use crate::fault::{Outage, Reboot};
        let topo = two_node_topology(5.0);
        let mut engine = Engine::new(topo, RfConfig::deterministic(), 7);
        // The reboot ends at slot 3, but a longer outage keeps the node
        // down until slot 6: the cold reset must fire at 6, not 3.
        engine.set_fault_plan(
            FaultPlan::none()
                .with_reboot(Reboot::new(NodeId(1), Asn(1), Asn(3)))
                .with(Outage::transient(NodeId(1), Asn(2), Asn(6))),
        );
        let mut stacks = vec![TestStack::default(), TestStack::default()];
        engine.run(&mut stacks, 8);
        assert_eq!(stacks[1].resets, vec![6]);
    }

    #[test]
    fn desync_hook_fires_at_the_scheduled_slot() {
        use crate::fault::ClockDesync;
        let topo = two_node_topology(5.0);
        let mut engine = Engine::new(topo, RfConfig::deterministic(), 7);
        engine.set_fault_plan(FaultPlan::none().with_desync(ClockDesync::new(NodeId(0), Asn(4))));
        let mut stacks = vec![TestStack::default(), TestStack::default()];
        engine.run(&mut stacks, 6);
        assert_eq!(stacks[0].desyncs, vec![4]);
        assert!(stacks[1].desyncs.is_empty());
        assert!(stacks[0].resets.is_empty());
    }

    /// A stack that needs asking only in every fifth slot.
    #[derive(Default)]
    struct Napping {
        asked: Vec<u64>,
    }

    impl NodeStack for Napping {
        type Payload = u32;

        fn slot_intent(&mut self, asn: Asn) -> SlotIntent<u32> {
            self.asked.push(asn.0);
            SlotIntent::Sleep
        }

        fn next_wake(&self, from: Asn) -> Asn {
            Asn(from.0.next_multiple_of(5))
        }

        fn on_frame(&mut self, _asn: Asn, _frame: &Frame<u32>, _rss: Dbm) {}

        fn on_tx_outcome(&mut self, _asn: Asn, _outcome: TxOutcome) {}
    }

    #[test]
    fn a_node_is_asked_only_at_its_wake_slots_but_every_slot_is_counted() {
        let mut engine = Engine::new(two_node_topology(5.0), RfConfig::deterministic(), 7);
        let mut stacks = vec![Napping::default(), Napping::default()];
        engine.run(&mut stacks, 7);
        // A second call starts from the stacks, not from a remembered slot.
        engine.run(&mut stacks, 6);
        assert_eq!(stacks[0].asked, vec![0, 5, 10]);
        assert_eq!(stacks[1].asked, vec![0, 5, 10]);
        assert_eq!(engine.stats().slots, 13);
        assert_eq!(engine.energy(NodeId(1)).slots, 13);
    }

    #[test]
    fn reset_desync_and_a_wake_slot_missed_while_dead_all_wake_the_node() {
        use crate::fault::{ClockDesync, Outage, Reboot};
        let mut engine = Engine::new(two_node_topology(5.0), RfConfig::deterministic(), 7);
        engine.set_fault_plan(
            FaultPlan::none()
                .with_reboot(Reboot::new(NodeId(0), Asn(1), Asn(3)))
                .with_desync(ClockDesync::new(NodeId(0), Asn(7)))
                .with(Outage::transient(NodeId(1), Asn(4), Asn(8))),
        );
        let mut stacks = vec![Napping::default(), Napping::default()];
        engine.run(&mut stacks, 12);
        assert_eq!(stacks[0].asked, vec![0, 3, 5, 7, 10], "reset at 3, desync at 7");
        assert_eq!(stacks[1].asked, vec![0, 8, 10], "slot 5 fell in the outage");
        assert_eq!(engine.energy(NodeId(1)).slots, 8, "dead slots are not counted");
    }

    #[test]
    fn traced_slot_records_tx_rx_ack() {
        let topo = two_node_topology(5.0);
        let mut engine = Engine::new(topo, RfConfig::deterministic(), 7);
        let trace = TraceHandle::bounded(64);
        engine.set_trace(trace.clone());
        let mut stacks = vec![TestStack::default(), TestStack::default()];
        stacks[1].plan.insert(0, tx_intent(1, Some(0), 42, false));
        stacks[0].plan.insert(0, SlotIntent::Listen { offset: ChannelOffset::new(0) });
        engine.step(&mut stacks);
        let events = trace.events();
        let names: Vec<&str> = events.iter().map(|e| e.kind.name()).collect();
        assert!(names.contains(&"slot"), "{names:?}");
        assert!(names.contains(&"tx"), "{names:?}");
        assert!(names.contains(&"rx"), "{names:?}");
        assert!(names.contains(&"ack"), "{names:?}");
    }

    #[test]
    fn traced_fault_boundaries_and_reset_are_recorded() {
        use crate::fault::Reboot;
        let topo = two_node_topology(5.0);
        let mut engine = Engine::new(topo, RfConfig::deterministic(), 7);
        engine.set_fault_plan(FaultPlan::none().with_reboot(Reboot::new(
            NodeId(1),
            Asn(1),
            Asn(3),
        )));
        let trace = TraceHandle::bounded(64);
        engine.set_trace(trace.clone());
        let mut stacks = vec![TestStack::default(), TestStack::default()];
        engine.run(&mut stacks, 5);
        let node1: Vec<&str> =
            trace.node_events(1).iter().map(|e| e.kind.name()).collect::<Vec<_>>();
        assert_eq!(node1, vec!["fault-inject", "fault-clear", "node-reset"], "{node1:?}");
    }

    #[test]
    fn untraced_engine_matches_traced_engine_results() {
        let run = |traced: bool| {
            let topo = two_node_topology(5.0);
            let mut engine = Engine::new(topo, RfConfig::deterministic(), 7);
            if traced {
                engine.set_trace(TraceHandle::bounded(16));
            }
            let mut stacks = vec![TestStack::default(), TestStack::default()];
            for asn in 0..20u64 {
                stacks[1].plan.insert(asn, tx_intent(1, Some(0), asn as u32, false));
                stacks[0].plan.insert(asn, SlotIntent::Listen { offset: ChannelOffset::new(0) });
            }
            engine.run(&mut stacks, 20);
            (stacks[0].received.len(), engine.stats().total_transmitted())
        };
        assert_eq!(run(false), run(true), "tracing must not perturb the simulation");
    }

    #[test]
    fn engine_is_deterministic() {
        let run = |seed| {
            let topo = Topology::testbed_a();
            let n = topo.len();
            let mut engine = Engine::new(topo, RfConfig::indoor(), seed);
            let mut stacks: Vec<TestStack> = (0..n).map(|_| TestStack::default()).collect();
            // Every node broadcasts in its own slot mod n, listens otherwise.
            for (i, s) in stacks.iter_mut().enumerate() {
                for asn in 0..200u64 {
                    if asn as usize % n == i {
                        s.plan.insert(asn, tx_intent(i as u16, None, asn as u32, true));
                    } else {
                        s.plan.insert(asn, SlotIntent::Listen { offset: ChannelOffset::new(0) });
                    }
                }
            }
            engine.run(&mut stacks, 200);
            let received: usize = stacks.iter().map(|s| s.received.len()).sum();
            (received, engine.stats().total_transmitted())
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5).0, 0);
    }
}
