//! The slot-synchronous simulation engine.
//!
//! Each TSCH slot, every alive node whose stack is due declares a
//! [`SlotIntent`], and every alive node that is not does what its
//! [`StandingListens`] says: radio off, or receiving on a stated channel
//! offset (see the wake contract on [`NodeStack`]). The engine then:
//!
//! 1. commits dedicated-cell transmissions unconditionally,
//! 2. if anything transmits or contends, looks up the standing listeners
//!    on the physical channels in use and enters them beside the listeners
//!    that were asked, in id order,
//! 3. runs slotted CSMA/CA for shared-cell (contention) transmissions —
//!    a contender defers if a committed transmitter is audible above the
//!    CCA threshold at its own position, and listens out the slot,
//! 4. for every listener, picks the strongest committed frame on its
//!    physical channel and decodes it with probability given by the
//!    PRR-vs-SINR curve, where the interference term sums every other
//!    concurrent transmission and all active jammers,
//! 5. generates link-layer acknowledgements for unicast frames (the ACK
//!    itself traverses the reverse link and can be lost),
//! 6. charges the CC2420 energy model for every radio activity,
//! 7. reports a [`TxOutcome`] to each transmitter.
//!
//! The engine is deterministic under its seed: nodes are visited in id
//! order and all randomness flows from one [`rng::SmallRng`] plus the
//! frozen hash-derived link/fading values.
//!
//! ## Wake-driven stepping
//!
//! A TSCH radio is off or hears nothing in almost every slot, and when a
//! stack next transmits or changes its own state is a pure function of that
//! state (its cells, its queue, its timers, its flows' periods).
//! [`Engine::run`] therefore keeps, per node, the slot
//! [`NodeStack::next_wake`] last named, and an index of the standing
//! listens by slot, and skips `slot_intent` for a node until that slot
//! arrives. Both are filled when `run` is entered and refreshed at the end
//! of each slot for exactly the nodes that were called in it — asked, or
//! entered as a standing listener (only they can have received a frame or a
//! transmission outcome, so only their state can have moved; a node's index
//! entries only if its [`NodeStack::standing_version`] did); they live no
//! longer than the `run` call's borrow of the stacks, so whatever the
//! caller does to a stack between calls needs no invalidation.
//!
//! **A listen to silence is settled, not simulated.** A standing listen in
//! a slot in which nothing is on the air on its channel is
//! `IDLE_LISTEN_US` of receive on the node's meter and nothing else, so the
//! engine keeps, per node, how far its standing listens are on its meter
//! and adds `count(from..to) × IDLE_LISTEN_US` — integers, exact — when it
//! has to know. *A node's standing description changes only inside a call
//! the engine makes, and the engine settles before that call*: node `i` is
//! settled up to the current slot before it is asked (the asked slot itself
//! is its answer's, not the description's) and before it is entered as a
//! listener, every alive node is settled before liveness moves at a fault
//! edge and when `run` returns, and every other call into a stack
//! (`on_frame`, `on_tx_outcome`; `reset` and `desync` at an edge) is to a
//! node settled earlier in the same slot. So the meters are exact wherever
//! a caller can read them. The standing listeners of a slot are found
//! through an index the run owns (per slotframe length, slot in frame →
//! `(node, offset)`; every-slot listeners asked for their offset), and only
//! in a slot in which something is committed or contending: those alive,
//! not asked, and on a physical channel in use are settled, entered as
//! listeners and take part in reception exactly as an asked listener does.
//!
//! Nor does the engine do per slot what cannot have changed since the last
//! one. Liveness moves only at the [`FaultPlan::edges`]: the plan is
//! consulted node by node in the slot `run` is entered in and in each edge
//! slot after it (that is where a completed reboot is noted and `reset` and
//! `desync` are delivered, each of which forces the node awake in its
//! slot), and between edges a slot is one scan over `alive[i]` and
//! `wake[i] <= asn` for the due nodes. The energy meters' slot counts are
//! settled at each edge and on leaving `run` — alive slots only, as if
//! ticked one by one. And when the scan finds nobody due, the engine moves
//! straight to the earliest of the next wake slot of an alive node, the next
//! edge, the end of the run and the next quiet edge of an adaptive jammer
//! ([`Jammer::next_quiet_edge`]), adding the gap to `stats.slots`: a slot in
//! which no node is asked has nothing on the air, so it draws no randomness
//! and calls no stack, and what its standing listeners are charged is
//! settled later. The only thing that reads such a slot is an adaptive
//! jammer's sniffer, which observes it as empty: the jumped slots are counted
//! into it in closed form ([`Jammer::observe_quiet`]), and the slot in which
//! its window starts, stops or ends — where it may change phase and report
//! it — is stepped. The recorder reads no gap either: a fault transition is
//! recorded at the top of its edge slot, where every jump lands, a phase
//! change inside its stepped slot, and every other event inside a call the
//! engine makes into a stack, so a traced run jumps like an untraced one.
//! The visiting order, the random stream, every meter, every trace event
//! and every callback are therefore where they would be if every node were
//! visited in every slot and answered `Listen` where its description says
//! so — which is what the test module's `reference_slot`, the kernel as it
//! was before any of this, is kept to check, case by case and chunk by
//! chunk; the stacks' side of the contract is checked one level up by
//! `AskEverySlot` in `digs`'s wake oracle.
//!
//! A slot's working storage (who listens on which channel, the committed
//! transmissions bucketed by physical channel, the candidates at the
//! listener being resolved) belongs to the `run` call and is cleared, not
//! freed, between slots. Each jammer's path loss to each node is computed
//! when the jammer is installed, and whether it emits on a channel is asked
//! once per slot and channel, not once per listener.

use crate::channel::{ChannelOffset, PhysChannel, NUM_CHANNELS};
use crate::energy::{EnergyMeter, ACK_WAIT_US, IDLE_LISTEN_US};
use crate::fault::{FaultPlan, Kind};
use crate::ids::NodeId;
use crate::interference::{Jammer, JammerField};
use crate::link::LinkModel;
use crate::packet::{Dest, Frame, FrameKind, ACK_AIRTIME_US};
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

/// Gives the channel offset an every-slot listener receives on in a slot.
pub type OffsetRule = fn(Asn) -> ChannelOffset;

/// What a node's radio does in the slots the engine does not ask its stack
/// in: a pure description, from which the engine works out membership at a
/// slot ([`offset_at`](Self::offset_at)) and the count over a range
/// ([`count`](Self::count)) itself.
#[derive(Debug, Clone, Copy)]
pub enum StandingListens<'a> {
    /// Radio off.
    Off,
    /// Receiving in every slot, on the channel offset the rule gives for the
    /// slot (an unsynchronised node scanning for beacons).
    EverySlot(OffsetRule),
    /// Receiving in the cells `(slot, offset)` of a slotframe of `period`
    /// slots (a schedule's receive cells): `slot < period`, ascending, one
    /// cell per slot.
    Cells {
        /// Slotframe length, in slots.
        period: u32,
        /// The receive cells of one slotframe.
        cells: &'a [(u32, ChannelOffset)],
    },
}

impl StandingListens<'_> {
    /// The channel offset the radio receives on in slot `asn`, if it does.
    pub fn offset_at(&self, asn: Asn) -> Option<ChannelOffset> {
        match *self {
            StandingListens::Off => None,
            StandingListens::EverySlot(rule) => Some(rule(asn)),
            StandingListens::Cells { cells: [], .. } => None,
            StandingListens::Cells { period, cells } => {
                let slot = asn.slotframe_offset(period);
                let at = cells.binary_search_by_key(&slot, |(slot, _)| *slot).ok()?;
                Some(cells[at].1)
            }
        }
    }

    /// In how many of the slots `from..to` the radio receives.
    pub fn count(&self, from: Asn, to: Asn) -> u64 {
        self.count_before(to) - self.count_before(from)
    }

    /// In how many of the slots before `asn` the radio receives.
    fn count_before(&self, asn: Asn) -> u64 {
        match *self {
            StandingListens::Off | StandingListens::Cells { cells: [], .. } => 0,
            StandingListens::EverySlot(_) => asn.0,
            StandingListens::Cells { period, cells } => {
                let slot = asn.slotframe_offset(period);
                let in_frame = cells.partition_point(|(cell, _)| *cell < slot);
                asn.0 / u64::from(period) * cells.len() as u64 + in_frame as u64
            }
        }
    }
}

/// A protocol stack driven by the engine, one instance per node.
///
/// Implementations live in the `digs` crate (DiGS, Orchestra, and
/// WirelessHART stacks). All callbacks receive the current ASN. In a slot
/// in which the node is alive and due the engine calls `slot_intent` once,
/// then delivers zero or more `on_frame`s, then at most one
/// `on_tx_outcome`; a node that is neither asked nor receiving as its
/// standing description says gets no callback at all.
///
/// ## Wake contract
///
/// [`next_wake`](NodeStack::next_wake) names the first slot in which the
/// node may *transmit or change its own state*; what its radio does in
/// every other slot is what [`standing_listens`](NodeStack::standing_listens)
/// describes. The engine calls `next_wake` on entering [`Engine::run`] and
/// again after every slot in which it called the stack (after that slot's
/// callbacks), and does not call `slot_intent` before the slot it returned
/// — except in a slot where it calls `reset` or `desync`, in which the node
/// is always asked. A stack that names a slot later than `from` promises
/// that in every slot before it `slot_intent` would have answered
/// [`SlotIntent::Sleep`], or [`SlotIntent::Listen`] on the offset its
/// standing description gives for that slot and [`SlotIntent::Sleep`]
/// where it gives none, and changed nothing observable: no trace event, no
/// telemetry or counter the harness reads, no queue, routing, schedule or
/// timer state that a later answer, a snapshot or an auditor could tell
/// apart. Naming a slot earlier than necessary is always safe; it only
/// costs the call, and in a slot in which the node is asked its answer
/// alone counts, whatever the description says.
///
/// **A node's standing description changes only inside a call the engine
/// makes (`slot_intent`, `on_frame`, `on_tx_outcome`, `reset`, `desync`),
/// and the engine settles the node's listens so far before that call.**
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
    /// [reboot](crate::fault::Kind::Reboot) and comes back with factory
    /// state — no routes, no schedule, no time sync. Invoked by the engine at
    /// the first slot the node is alive again. The default is a no-op so simple
    /// test stacks need not care.
    fn reset(&mut self, _asn: Asn) {}

    /// Notifies the stack that its TSCH clock slipped past the guard time
    /// (a [desync](crate::fault::Kind::Desync)): the node keeps its routing
    /// state but must re-acquire slot alignment from enhanced beacons.
    /// Default no-op.
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

    /// What the radio does in the slots the stack is not asked in (see the
    /// wake contract above). A standing listen is one `IDLE_LISTEN_US` of
    /// receive on the node's meter, or the reception of whatever is on the
    /// air on its channel, exactly as if `slot_intent` had answered
    /// [`SlotIntent::Listen`] there. The default is a radio that is off
    /// unless the stack is asked.
    fn standing_listens(&self) -> StandingListens<'_> {
        StandingListens::Off
    }

    /// Differs from its last value whenever
    /// [`standing_listens`](NodeStack::standing_listens) may: the engine
    /// reads the description again only when this moved.
    fn standing_version(&self) -> u64 {
        0
    }
}

struct CommittedTx<P> {
    node: NodeId,
    frame: Frame<P>,
}

/// How far a committed unicast frame got.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ack {
    /// Its addressee did not decode it.
    Undecoded,
    /// Its addressee decoded it, but the acknowledgement died on the way back.
    Lost,
    /// Its addressee decoded it and the acknowledgement arrived.
    Arrived,
}

/// `Run::listening_on` of a node whose radio is not in receive.
const NOT_LISTENING: u8 = u8::MAX;

/// A signal audible at the listener being resolved: the transmission's index
/// into `Run::committed` and an interval of dBm its RSS lies in — its
/// [`Signal::bounds`](crate::link::Signal::bounds), or the RSS itself at both
/// ends where it had to be drawn to tell whether it is audible.
#[derive(Debug, Clone, Copy)]
struct Heard {
    k: usize,
    lo: f64,
    hi: f64,
}

/// How [`decide`] settled a listener.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Settled {
    /// The frame is lost to the strongest of the other signals alone.
    LostToOne,
    /// The frame is lost to everything else on the channel together.
    LostToAll,
    /// The frame is decoded.
    Decoded,
}

/// What becomes of the strongest frame a listener hears, from the intervals
/// alone: `Some((index into heard, answer))` where every RSS inside them
/// gives that frame and that answer, `None` where the exact resolution —
/// draw every signal, sort, sum the rest with `ambient_mw` (jammers, ambient
/// and thermal noise, in milliwatts), compare the listener's uniform `u` with
/// the PRR at that SINR — has to say: a listener that hears one signal, two
/// candidates for the strongest whose intervals overlap, or a `u` between the
/// PRRs at the SINR's two bounds.
///
/// Each test is one-sided, with `1e-6` dB for the rounding of whichever sum
/// the exact resolution goes on to make:
///
/// - the interference is at least the strongest other signal at its weakest,
///   so the SINR is at most the distance to it: a `u` at or above the PRR
///   there has lost the frame, and no power or logarithm was taken;
/// - it is at least `level`, ambient and every other signal at its weakest:
///   the same test, one logarithm later;
/// - it is at most `level` plus the widest other interval — every term grown
///   by that factor is at least the term at its strongest — so a `u` below
///   the PRR that far down has decoded the frame.
fn decide(heard: &[Heard], ambient_mw: f64, u: f64) -> Option<(usize, Settled)> {
    if heard.len() < 2 {
        return None;
    }
    let mut best = 0;
    for (i, signal) in heard.iter().enumerate().skip(1) {
        if signal.lo > heard[best].lo {
            best = i;
        }
    }
    let others = || heard.iter().enumerate().filter(|(i, _)| *i != best).map(|(_, signal)| signal);
    let Heard { lo, hi, .. } = heard[best];
    // Equal ends overlap too: the exact order of equal signals is the commit
    // order, which the intervals do not see.
    if others().any(|other| other.hi >= lo) {
        return None;
    }
    let rival_lo = others().fold(f64::NEG_INFINITY, |max, other| max.max(other.lo));
    if u >= prr_from_sinr_db(hi - rival_lo + 1e-6) {
        return Some((best, Settled::LostToOne));
    }
    let weakest_mw = others().fold(ambient_mw, |sum, other| sum + Dbm(other.lo).to_milliwatts());
    let width = others().fold(0.0, |max: f64, other| max.max(other.hi - other.lo));
    let level = 10.0 * weakest_mw.log10();
    if u >= prr_from_sinr_db(hi - level + 1e-6) {
        Some((best, Settled::LostToAll))
    } else if u < prr_from_sinr_db(lo - level - width - 1e-6) {
        Some((best, Settled::Decoded))
    } else {
        None
    }
}

/// Puts a node's standing listens in the slots `*settled_to..asn` on its
/// meter. What its stack describes now is what held over all of them: the
/// description changes only inside a call the engine makes, and this comes
/// before every one.
fn settle<S: NodeStack>(settled_to: &mut Asn, stack: &S, meter: &mut EnergyMeter, asn: Asn) {
    meter.charge_idle_listens(stack.standing_listens().count(*settled_to, asn));
    *settled_to = asn;
}

/// The state of one [`Engine::run`] call: the wake slots and the index of
/// the standing listens, how far the fault plan and the energy meters have
/// been followed, and the working storage every slot clears and refills, so
/// that the steady state allocates nothing.
struct Run<P> {
    /// The first slot this call does not simulate.
    end: Asn,
    /// `wake[i]` is the slot node `i` must next be asked in.
    wake: Vec<Asn>,
    /// What the radios do until then, by slot — who receives in a slot
    /// without being asked: the receive cells, per slotframe length in use,
    /// and the nodes receiving in every slot, each with its offset rule.
    /// `standing_version[i]` is node `i`'s when its entries were made, and
    /// `entered[i]` where in `cell_listeners` they are and on which offset,
    /// `(frame, slot, offset)` ascending by slot (`patched` is the spare
    /// list a patch writes node `i`'s next entries into).
    cell_listeners: Vec<FrameListeners>,
    every_slot_listeners: Vec<(usize, OffsetRule)>,
    standing_version: Vec<u64>,
    entered: Vec<Vec<(usize, u32, ChannelOffset)>>,
    patched: Vec<(usize, u32, ChannelOffset)>,
    /// Test builds: how many refreshes patched the index.
    #[cfg(test)]
    patches: u64,
    /// Node `i`'s standing listens in the slots before `settled_to[i]` are
    /// on its meter, or were not its to make: it was dead, it was asked and
    /// its answer counted instead, or it took part in reception.
    settled_to: Vec<Asn>,
    /// The next slot in which the fault plan is consulted node by node:
    /// the slot `run` was entered in, then each later one of
    /// [`FaultPlan::edges`]. `Engine::alive` holds in between.
    next_edge: Asn,
    /// Every alive node's meter has counted the slots before this one.
    ticked_to: Asn,
    /// The nodes the current slot can call back: those asked, then the
    /// standing listeners it found on a channel in use.
    awake: Vec<usize>,
    /// Radios in receive and the physical channel each is on: asked and
    /// standing listeners in id order, then the contenders that deferred.
    listeners: Vec<(NodeId, PhysChannel)>,
    /// Per node, the physical channel its radio is receiving on, or
    /// [`NOT_LISTENING`].
    listening_on: Vec<u8>,
    /// Shared-cell transmissions waiting for CSMA/CA, in id order.
    contenders: Vec<(NodeId, PhysChannel, Frame<P>)>,
    /// This slot's transmissions, dedicated cells first, and in step with
    /// them their physical channels, whether CSMA/CA let them through, and
    /// how far each got.
    committed: Vec<CommittedTx<P>>,
    committed_channels: Vec<PhysChannel>,
    committed_contention: Vec<bool>,
    acks: Vec<Ack>,
    /// Per physical channel, the indices into `committed` of the
    /// transmissions on it, in commit order.
    on_channel: [Vec<usize>; NUM_CHANNELS as usize],
    deferred: Vec<NodeId>,
    /// `(listener, index into committed, rss)` of every decoded frame.
    deliveries: Vec<(NodeId, usize, Dbm)>,
    /// The signals audible at the listener being resolved, in commit order,
    /// and — only where their intervals do not decide it — the same signals
    /// drawn, strongest first.
    heard: Vec<Heard>,
    cands: Vec<(usize, Dbm)>,
}

impl<P> Run<P> {
    fn new<S: NodeStack<Payload = P>>(stacks: &[S], from: Asn, slots: u64) -> Run<P> {
        let mut run = Run {
            end: Asn(from.0 + slots),
            wake: stacks.iter().map(|s| s.next_wake(from)).collect(),
            cell_listeners: Vec::new(),
            every_slot_listeners: Vec::new(),
            standing_version: stacks.iter().map(NodeStack::standing_version).collect(),
            entered: vec![Vec::new(); stacks.len()],
            patched: Vec::new(),
            #[cfg(test)]
            patches: 0,
            settled_to: vec![from; stacks.len()],
            next_edge: from,
            ticked_to: from,
            awake: Vec::new(),
            listeners: Vec::new(),
            listening_on: vec![NOT_LISTENING; stacks.len()],
            contenders: Vec::new(),
            committed: Vec::new(),
            committed_channels: Vec::new(),
            committed_contention: Vec::new(),
            acks: Vec::new(),
            on_channel: Default::default(),
            deferred: Vec::new(),
            deliveries: Vec::new(),
            heard: Vec::new(),
            cands: Vec::new(),
        };
        for (i, stack) in stacks.iter().enumerate() {
            run.index_standing(i, stack);
        }
        run
    }

    /// Enters node `i`'s standing listens in the index.
    fn index_standing<S: NodeStack<Payload = P>>(&mut self, i: usize, stack: &S) {
        match stack.standing_listens() {
            StandingListens::Off => {}
            StandingListens::EverySlot(rule) => self.every_slot_listeners.push((i, rule)),
            StandingListens::Cells { period, cells } => {
                let at = match self.cell_listeners.iter().position(|f| f.period == period) {
                    Some(at) => at,
                    None if cells.is_empty() => return,
                    None => {
                        let by_slot = vec![Vec::new(); period as usize];
                        self.cell_listeners.push(FrameListeners { period, by_slot });
                        self.cell_listeners.len() - 1
                    }
                };
                for &(slot, offset) in cells {
                    self.cell_listeners[at].by_slot[slot as usize].push((i, offset));
                    self.entered[i].push((at, slot, offset));
                }
            }
        }
    }

    /// Node `i`'s stack was called in the slot before `next`: names its
    /// wake slot afresh and, if its standing description moved, patches its
    /// entries where it still receives in cells of the slotframe its
    /// entries are in, and otherwise takes them all out of the index and
    /// enters it again.
    fn refresh<S: NodeStack<Payload = P>>(&mut self, i: usize, stack: &S, next: Asn) {
        self.wake[i] = stack.next_wake(next);
        let version = stack.standing_version();
        if version == self.standing_version[i] {
            return;
        }
        self.standing_version[i] = version;
        let listens = stack.standing_listens();
        if let (StandingListens::Cells { period, cells }, Some(&(frame, ..))) =
            (listens, self.entered[i].first())
        {
            if self.cell_listeners[frame].period == period {
                self.patch_cells(i, frame, cells);
                return;
            }
        }
        self.every_slot_listeners.retain(|(n, _)| *n != i);
        for (frame, slot, _) in self.entered[i].drain(..) {
            self.cell_listeners[frame].by_slot[slot as usize].retain(|(n, _)| *n != i);
        }
        self.index_standing(i, stack);
    }

    /// Moves node `i`'s entries in slotframe `frame` to `cells`, one merge
    /// of the two slot-ordered lists: an entry whose slot and offset held
    /// stays where it is, one whose offset moved is rewritten in place, and
    /// only a slot that came or went is entered or left.
    fn patch_cells(&mut self, i: usize, frame: usize, cells: &[(u32, ChannelOffset)]) {
        let by_slot = &mut self.cell_listeners[frame].by_slot;
        let leave = |listeners: &mut Vec<(usize, ChannelOffset)>| {
            let at = listeners.iter().position(|(n, _)| *n == i).expect("entered");
            listeners.swap_remove(at);
        };
        let mut patched = std::mem::take(&mut self.patched);
        let mut old = self.entered[i].iter().peekable();
        for &(slot, offset) in cells {
            while let Some((_, gone, _)) = old.next_if(|(_, old_slot, _)| *old_slot < slot) {
                leave(&mut by_slot[*gone as usize]);
            }
            let listeners = &mut by_slot[slot as usize];
            match old.next_if(|(_, old_slot, _)| *old_slot == slot) {
                Some((.., held)) if *held == offset => {}
                Some(_) => {
                    let entry = listeners.iter_mut().find(|(n, _)| *n == i).expect("entered");
                    entry.1 = offset;
                }
                None => listeners.push((i, offset)),
            }
            patched.push((frame, slot, offset));
        }
        for (_, gone, _) in old {
            leave(&mut by_slot[*gone as usize]);
        }
        self.patched = std::mem::replace(&mut self.entered[i], patched);
        self.patched.clear();
        #[cfg(test)]
        {
            self.patches += 1;
        }
    }

    /// Test builds: panics unless the index holds, slot by slot as sets,
    /// what one built anew over `stacks` would, and `entered` says
    /// where every entry is.
    #[cfg(test)]
    fn assert_index_is_rebuilt<S: NodeStack<Payload = P>>(&self, stacks: &[S]) {
        use std::collections::BTreeSet;
        let (mut cells, mut every_slot) = (BTreeSet::new(), BTreeSet::new());
        for (i, stack) in stacks.iter().enumerate() {
            match stack.standing_listens() {
                StandingListens::Off => {}
                StandingListens::EverySlot(rule) => {
                    every_slot.insert((i, rule as usize));
                }
                StandingListens::Cells { period, cells: described } => {
                    cells.extend(described.iter().map(|&(slot, off)| (period, slot, i, off.0)));
                }
            }
        }
        let indexed: Vec<_> = (self.cell_listeners.iter())
            .flat_map(|frame| {
                let by_slot = frame.by_slot.iter().enumerate();
                by_slot.flat_map(move |(slot, listeners)| {
                    listeners.iter().map(move |&(i, off)| (frame.period, slot as u32, i, off.0))
                })
            })
            .collect();
        assert_eq!(indexed.len(), cells.len(), "an entry twice");
        assert_eq!(indexed.into_iter().collect::<BTreeSet<_>>(), cells, "the cells index");
        let entered: BTreeSet<_> = (self.entered.iter().enumerate())
            .flat_map(|(i, entries)| {
                entries.iter().map(move |&(frame, slot, off)| {
                    (self.cell_listeners[frame].period, slot, i, off.0)
                })
            })
            .collect();
        assert_eq!(entered, cells, "where the entries are");
        let indexed: BTreeSet<_> =
            self.every_slot_listeners.iter().map(|&(i, rule)| (i, rule as usize)).collect();
        assert_eq!(self.every_slot_listeners.len(), every_slot.len(), "an every-slot entry twice");
        assert_eq!(indexed, every_slot, "the every-slot index");
    }

    /// Asks node `i` for its intent and files the answer.
    fn ask<S: NodeStack<Payload = P>>(&mut self, i: usize, stack: &mut S, asn: Asn) {
        let id = NodeId(i as u16);
        self.awake.push(i);
        match stack.slot_intent(asn) {
            SlotIntent::Sleep => {}
            SlotIntent::Listen { offset } => self.listen(id, offset.hop(asn)),
            SlotIntent::Transmit { offset, frame, contention } => {
                debug_assert_eq!(frame.src, id, "frame src must be the transmitting node");
                if contention {
                    self.contenders.push((id, offset.hop(asn), frame));
                } else {
                    self.commit(id, offset.hop(asn), frame, false);
                }
            }
        }
    }

    fn listen(&mut self, id: NodeId, channel: PhysChannel) {
        self.listeners.push((id, channel));
        self.listening_on[id.index()] = channel.0;
    }

    fn commit(&mut self, node: NodeId, channel: PhysChannel, frame: Frame<P>, contention: bool) {
        self.on_channel[usize::from(channel.0)].push(self.committed.len());
        self.committed.push(CommittedTx { node, frame });
        self.committed_channels.push(channel);
        self.committed_contention.push(contention);
        self.acks.push(Ack::Undecoded);
    }

    /// Whether `node`'s radio is receiving on `channel` in this slot.
    fn is_listening(&self, node: NodeId, channel: PhysChannel) -> bool {
        self.listening_on.get(node.index()) == Some(&channel.0)
    }

    /// Empties the slot's working storage, keeping its capacity.
    fn clear_slot(&mut self) {
        for (id, _) in self.listeners.drain(..) {
            self.listening_on[id.index()] = NOT_LISTENING;
        }
        for channel in self.committed_channels.drain(..) {
            self.on_channel[usize::from(channel.0)].clear();
        }
        self.committed.clear();
        self.committed_contention.clear();
        self.acks.clear();
        self.deferred.clear();
        self.deliveries.clear();
    }
}

/// The receive cells `(node, offset)` of every node whose standing listens
/// repeat every `period` slots, by slot in that frame.
struct FrameListeners {
    period: u32,
    by_slot: Vec<Vec<(usize, ChannelOffset)>>,
}

/// The simulation engine. See the [module documentation](self) for the slot
/// resolution algorithm.
#[derive(Debug)]
pub struct Engine {
    topology: Topology,
    link: LinkModel,
    /// Thermal noise floor in milliwatts (the last term of every
    /// interference sum).
    noise_floor_mw: f64,
    jammers: Vec<Jammer>,
    jammer_field: JammerField,
    /// Whether any of `jammers` is adaptive: its sniffer's counters are
    /// mirrored into `stats` after every slot and every jump.
    any_adaptive: bool,
    /// Ambient (cross-network) interference sources: boundary load
    /// installed by the fleet's shard exchange. Kept apart from
    /// `jammers` so scenario-owned adversaries and fleet-owned boundary
    /// state can be replaced independently between slotframe windows.
    ambient: Vec<Jammer>,
    ambient_field: JammerField,
    faults: FaultPlan,
    /// [`FaultPlan::edges`] of `faults`.
    edges: Vec<Asn>,
    /// Whether `faults` breaks any link: without one, a reception skips the
    /// plan.
    any_link_fault: bool,
    /// Whether each node is alive; inside [`Engine::run`] only, where it is
    /// brought up to date at every fault edge.
    alive: Vec<bool>,
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
    /// How phase 3 came by its answers ([`ROUTES`]), so that the differential
    /// test can say that it went every way often.
    #[cfg(test)]
    routes: [u64; ROUTES.len()],
    /// How many times a run's index of standing listens was patched rather
    /// than rebuilt for a node, for the same test.
    #[cfg(test)]
    patches: u64,
}

/// What [`Engine::routes`] counts, in its order: signals drawn because their
/// interval straddled the sensitivity floor, then listeners hearing two
/// signals or more by what [`decide`] said of them.
#[cfg(test)]
const ROUTES: [&str; 5] =
    ["drawn for audibility", "lost to one", "lost to all", "decoded", "declined"];

impl Engine {
    /// Creates an engine over a topology with the given RF environment and
    /// seed. The seed controls the frozen link realisation *and* all
    /// per-slot randomness.
    pub fn new(topology: Topology, rf: RfConfig, seed: u64) -> Engine {
        let link = LinkModel::new(&topology, rf, seed);
        let n = topology.len();
        Engine {
            noise_floor_mw: link.rf().noise_floor.to_milliwatts(),
            jammers: Vec::new(),
            jammer_field: JammerField::default(),
            any_adaptive: false,
            ambient: Vec::new(),
            ambient_field: JammerField::default(),
            topology,
            link,
            faults: FaultPlan::none(),
            edges: Vec::new(),
            any_link_fault: false,
            alive: vec![true; n],
            rng: rng::engine_rng(seed),
            asn: Asn::ZERO,
            energy: vec![EnergyMeter::new(); n],
            stats: EngineStats::default(),
            pending_reset: vec![false; n],
            trace: TraceHandle::off(),
            #[cfg(test)]
            routes: [0; ROUTES.len()],
            #[cfg(test)]
            patches: 0,
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
        self.jammer_field.push(&jammer, &self.topology, self.link.rf());
        self.any_adaptive |= jammer.adaptive_counters().is_some();
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
        self.ambient_field = JammerField::new(&ambient, &self.topology, self.link.rf());
        self.ambient = ambient;
    }

    /// Installs the failure schedule.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.edges = plan.edges().collect();
        self.any_link_fault = plan.iter().any(|f| f.kind == Kind::Link);
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
        let mut run = Run::new(stacks, self.asn, slots);
        while self.asn < run.end {
            self.slot(stacks, &mut run);
        }
        self.settle_alive_to(stacks, &mut run, self.asn);
        #[cfg(test)]
        {
            self.patches += run.patches;
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

    /// Brings the meters up to `asn`, across which liveness may move (it
    /// has not since `run.ticked_to`): every alive node's counts the slots
    /// `run.ticked_to..asn` and its standing listens before `asn`; a dead
    /// node has none.
    fn settle_alive_to<S: NodeStack>(&mut self, stacks: &[S], run: &mut Run<S::Payload>, asn: Asn) {
        let slots = asn - run.ticked_to;
        for (i, meter) in self.energy.iter_mut().enumerate() {
            if self.alive[i] {
                meter.tick_slots(slots);
                settle(&mut run.settled_to[i], &stacks[i], meter, asn);
            }
            run.settled_to[i] = asn;
        }
        run.ticked_to = asn;
    }

    /// Follows the fault plan across an edge at `asn` for node `i`: notes a
    /// completed reboot, brings `alive[i]` up to date and, if the node is
    /// alive, delivers a due cold reset and a clock desync. Returns whether
    /// the stack was called — either call changes it under the wake slot it
    /// named, so the node is asked now.
    fn cross_fault_edge<S: NodeStack>(&mut self, i: usize, stack: &mut S, asn: Asn) -> bool {
        let id = NodeId(i as u16);
        if self.faults.reboot_completing_at(id, asn) {
            self.pending_reset[i] = true;
        }
        self.alive[i] = self.faults.is_alive(id, asn);
        if !self.alive[i] {
            return false;
        }
        let mut called = false;
        if self.pending_reset[i] {
            self.pending_reset[i] = false;
            if self.trace.is_on() {
                self.trace.record(asn.0, id.0, EventKind::NodeReset);
            }
            stack.reset(asn);
            called = true;
        }
        if self.faults.desync_at(id, asn) {
            if self.trace.is_on() {
                self.trace.record(asn.0, id.0, EventKind::ClockDesync);
            }
            stack.desync(asn);
            called = true;
        }
        called
    }

    /// One step of [`Engine::run`]: the slot `self.asn`, or — when no alive
    /// node is due before a later slot and nothing reads the slots in
    /// between — the whole gap up to it.
    fn slot<S: NodeStack>(&mut self, stacks: &mut [S], run: &mut Run<S::Payload>) {
        let asn = self.asn;
        let tracing = self.trace.is_on();
        let at_edge = asn == run.next_edge;
        if tracing && at_edge {
            for (node, fault, peer, injected) in self.faults.transitions_at(asn) {
                let kind = if injected {
                    EventKind::FaultInject { fault, peer: peer.map(|p| p.0) }
                } else {
                    EventKind::FaultClear { fault, peer: peer.map(|p| p.0) }
                };
                self.trace.record(asn.0, node.0, kind);
            }
        }

        // Phase 1: collect intents from the alive nodes that are due,
        // bringing liveness up to date first if this is a fault edge.
        if at_edge {
            self.settle_alive_to(stacks, run, asn);
            let later = self.edges.partition_point(|edge| *edge <= asn);
            run.next_edge = self.edges.get(later).copied().unwrap_or(Asn(u64::MAX));
        }
        // The next slot anything can happen in, if nobody is due in this one.
        let mut next = run.next_edge.min(run.end);
        for (i, stack) in stacks.iter_mut().enumerate() {
            let called = at_edge && self.cross_fault_edge(i, stack, asn);
            if !self.alive[i] {
                continue;
            }
            if called || run.wake[i] <= asn {
                // Its standing listens so far; this slot is its answer's.
                settle(&mut run.settled_to[i], stack, &mut self.energy[i], asn);
                run.settled_to[i] = asn.next();
                run.ask(i, stack, asn);
            } else {
                next = next.min(run.wake[i]);
            }
        }
        // A slot in which nobody is asked draws no randomness, records no
        // event and changes nothing but the slot counts and what an adaptive
        // jammer's sniffer has observed — nothing, which it counts in closed
        // form up to the slot in which it may change phase. So the whole gap
        // up to that slot is taken in this step, and that slot is stepped.
        if run.awake.is_empty() {
            next = self.jammers.iter().fold(next, |next, j| next.min(j.next_quiet_edge(asn)));
            if next > asn {
                self.jammers.iter_mut().for_each(|jammer| jammer.observe_quiet(asn, next));
                if self.any_adaptive {
                    self.sum_adaptive_counters();
                }
                self.stats.slots += next - asn;
                self.asn = next;
                return;
            }
        }
        self.enter_standing_listeners(stacks, run, asn);

        // Phase 2: commit transmissions. Dedicated cells were committed
        // unconditionally as they were declared; shared cells run CSMA/CA
        // in a random order, deterministic under the engine seed.
        let mut contenders = std::mem::take(&mut run.contenders);
        for i in (1..contenders.len()).rev() {
            let j = self.rng.up_to(i);
            contenders.swap(i, j);
        }
        for (id, ch, frame) in contenders.drain(..) {
            // CCA: busy if any committed 802.15.4 transmitter on this
            // channel is audible. Jammers do NOT trip CCA: the emulated
            // WiFi bursts are microseconds long and use a foreign
            // modulation, which 802.15.4 carrier sense does not reliably
            // detect — nodes transmit into the jam and lose frames, as on
            // the paper's testbeds.
            let busy = run.on_channel[usize::from(ch.0)].iter().any(|&k| {
                let tx = run.committed[k].node;
                tx != id && self.link.static_rss(tx, id).dbm() > CCA_THRESHOLD.dbm()
            });
            if busy {
                run.deferred.push(id);
                self.stats.cca_deferrals += 1;
                if tracing {
                    self.trace.record(asn.0, id.0, EventKind::CcaDefer);
                }
                // A deferring node keeps its radio in RX for the rest of
                // the slot — it hears the winning frame like any listener.
                run.listen(id, ch);
            } else {
                run.commit(id, ch, frame, true);
            }
        }
        run.contenders = contenders;

        // Phase 3: reception. For each listener, decode the strongest
        // committed frame on its physical channel against the sum of all
        // other signals, jammers, and thermal noise — reading each signal as
        // an interval and drawing its fades only where the intervals leave
        // the answer open, or the answer is a frame to hand over.
        let floor = SENSITIVITY.dbm();
        for &(rx_id, ch) in &run.listeners {
            let rx = rx_id.index();
            // The signals on this channel audible at the listener, in commit
            // order.
            run.heard.clear();
            for &k in &run.on_channel[usize::from(ch.0)] {
                let tx = run.committed[k].node;
                if tx == rx_id || (self.any_link_fault && !self.faults.is_link_up(tx, rx_id, asn)) {
                    continue;
                }
                let signal = self.link.signal(tx, rx_id, ch, asn);
                let (lo, hi) = signal.bounds();
                if hi <= floor {
                    continue;
                }
                if lo > floor {
                    run.heard.push(Heard { k, lo, hi });
                } else {
                    // Audible or not is the RSS's to say; it is its own
                    // interval from here on.
                    #[cfg(test)]
                    {
                        self.routes[0] += 1;
                    }
                    let rss = signal.rss().dbm();
                    if rss > floor {
                        run.heard.push(Heard { k, lo: rss, hi: rss });
                    }
                }
            }
            if run.heard.is_empty() {
                self.energy[rx].charge_rx(IDLE_LISTEN_US);
                continue;
            }
            let ambient_mw = self.jammer_field.total_mw(&self.jammers, rx, ch, asn)
                + self.ambient_field.total_mw(&self.ambient, rx, ch, asn)
                + self.noise_floor_mw;
            let u = self.rng.next_f64();
            let settled = decide(&run.heard, ambient_mw, u);
            #[cfg(test)]
            match settled {
                Some((_, settled)) => self.routes[1 + settled as usize] += 1,
                None => self.routes[4] += u64::from(run.heard.len() > 1),
            }
            let (best_idx, decoded) = match settled {
                Some((best, settled)) => {
                    let k = run.heard[best].k;
                    let rss = (settled == Settled::Decoded)
                        .then(|| self.link.signal(run.committed[k].node, rx_id, ch, asn).rss());
                    (k, rss)
                }
                None => {
                    // The definition: every audible signal drawn, strongest
                    // first, ties in commit order (the order the
                    // interference sum below adds them in).
                    run.cands.clear();
                    for heard in &run.heard {
                        let tx = run.committed[heard.k].node;
                        run.cands.push((heard.k, self.link.rss(tx, rx_id, ch, asn)));
                    }
                    run.cands.sort_by(|a, b| b.1.dbm().total_cmp(&a.1.dbm()));
                    let (best_idx, best_rss) = run.cands[0];
                    let mut interference_mw = ambient_mw;
                    for (_, rss) in &run.cands[1..] {
                        interference_mw += rss.to_milliwatts();
                    }
                    let sinr_db = best_rss.dbm() - 10.0 * interference_mw.log10();
                    (best_idx, (u < prr_from_sinr_db(sinr_db)).then_some(best_rss))
                }
            };
            let frame = &run.committed[best_idx].frame;
            // The radio stays in RX for the frame airtime whether or not the
            // CRC ultimately passes.
            self.energy[rx].charge_rx(frame.airtime_us());
            if let Some(best_rss) = decoded {
                run.deliveries.push((rx_id, best_idx, best_rss));
                if frame.dst.expects_ack() && frame.dst.addressed_to(rx_id) {
                    // The receiver transmits an ACK on the reverse link.
                    self.energy[rx].charge_tx(ACK_AIRTIME_US);
                    let tx_id = frame.src;
                    let link_up = !self.any_link_fault || self.faults.is_link_up(rx_id, tx_id, asn);
                    // Every term of the RSS is keyed on the unordered pair,
                    // so the reverse link reads what the frame arrived at.
                    debug_assert_eq!(tx_id, run.committed[best_idx].node);
                    let ack_rss = best_rss;
                    let ack_inter =
                        self.jammer_field.total_mw(&self.jammers, tx_id.index(), ch, asn)
                            + self.ambient_field.total_mw(&self.ambient, tx_id.index(), ch, asn)
                            + self.noise_floor_mw;
                    let ack_sinr = ack_rss.dbm() - 10.0 * ack_inter.log10();
                    run.acks[best_idx] =
                        if link_up && self.rng.next_f64() < prr_from_sinr_db(ack_sinr) {
                            Ack::Arrived
                        } else {
                            Ack::Lost
                        };
                }
            } else if run.heard.len() > 1 {
                self.stats.collision_drops += 1;
            } else {
                self.stats.noise_drops += 1;
            }
        }

        // Phase 4: stats + energy for transmitters.
        for (k, tx) in run.committed.iter().enumerate() {
            let ch = run.committed_channels[k];
            self.stats.channel_tx[ch.0 as usize] += 1;
            let meter = &mut self.energy[tx.node.index()];
            meter.charge_tx(tx.frame.airtime_us());
            if tx.frame.dst.expects_ack() {
                meter.charge_rx(ACK_WAIT_US);
            }
            let counters = self.stats.kind_mut(tx.frame.kind);
            counters.transmitted += 1;
            if let Dest::Unicast(dst) = tx.frame.dst {
                if run.acks[k] == Ack::Arrived {
                    counters.acked += 1;
                } else {
                    counters.unacked += 1;
                    if !run.is_listening(dst, ch) && tx.frame.kind == FrameKind::Data {
                        self.stats.unacked_no_listener += 1;
                    }
                }
            }
        }
        for (_, k, _) in &run.deliveries {
            self.stats.kind_mut(run.committed[*k].frame.kind).received += 1;
        }
        self.stats.slots += 1;

        // Adaptive jammers passively observe this slot's committed physical
        // channels and advance their learn/jam state machines. The sniffer
        // consumes no engine randomness, so determinism is untouched; the
        // engine-level counters are cumulative sums over all jammers.
        if self.any_adaptive {
            for jammer in &mut self.jammers {
                if let Some(t) = jammer.observe_slot(asn, &run.committed_channels) {
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
            }
            self.sum_adaptive_counters();
        }

        // Phase 5: callbacks — deliveries first, then outcomes, in id order.
        run.deliveries.sort_by_key(|(rx, _, _)| *rx);
        for (rx_id, k, rss) in &run.deliveries {
            let frame = &run.committed[*k].frame;
            if tracing {
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
            stacks[rx_id.index()].on_frame(asn, frame, *rss);
        }
        for (k, tx) in run.committed.iter().enumerate() {
            let outcome = match (tx.frame.dst, run.acks[k]) {
                (Dest::Broadcast, _) => TxOutcome::SentBroadcast,
                (Dest::Unicast(_), Ack::Arrived) => TxOutcome::Acked,
                (Dest::Unicast(_), _) => TxOutcome::NoAck,
            };
            if tracing {
                let dst = match tx.frame.dst {
                    Dest::Unicast(d) => Some(d),
                    Dest::Broadcast => None,
                };
                let ch = run.committed_channels[k];
                self.trace.record(
                    asn.0,
                    tx.node.0,
                    EventKind::Tx {
                        dst: dst.map(|d| d.0),
                        class: tx.frame.kind.traffic_class(),
                        channel: ch.0,
                        contention: run.committed_contention[k],
                        packet: tx.frame.trace_id,
                    },
                );
                match (outcome, dst) {
                    (TxOutcome::Acked, Some(d)) => {
                        self.trace.record(
                            asn.0,
                            tx.node.0,
                            EventKind::Ack { dst: d.0, packet: tx.frame.trace_id },
                        );
                    }
                    (TxOutcome::NoAck, Some(d)) => {
                        // Diagnose the loss: the frame was decoded by the
                        // addressee but the ACK died on the way back; the
                        // destination never had its radio on this channel;
                        // or the frame itself was lost on the air.
                        let reason = if run.acks[k] == Ack::Lost {
                            DropReason::AckLost
                        } else if run.is_listening(d, ch) {
                            DropReason::FrameLost
                        } else {
                            DropReason::NoListener
                        };
                        self.trace.record(
                            asn.0,
                            tx.node.0,
                            EventKind::Nack { dst: d.0, reason, packet: tx.frame.trace_id },
                        );
                    }
                    _ => {}
                }
            }
            stacks[tx.node.index()].on_tx_outcome(asn, outcome);
        }
        for id in &run.deferred {
            stacks[id.index()].on_tx_outcome(asn, TxOutcome::DeferredCca);
        }

        self.asn = asn.next();
        // Only a node that was asked or entered as a standing listener can
        // have been called, so only its wake slot and its standing
        // description can have moved.
        let mut awake = std::mem::take(&mut run.awake);
        for i in awake.drain(..) {
            run.refresh(i, &stacks[i], self.asn);
        }
        run.awake = awake;
        #[cfg(test)]
        run.assert_index_is_rebuilt(stacks);
        run.clear_slot();
    }

    /// Mirrors the adaptive jammers' counters, summed, into the stats.
    fn sum_adaptive_counters(&mut self) {
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

    /// Finds the standing listeners of slot `asn` that can hear anything —
    /// alive, not asked, on a physical channel a transmission is committed
    /// to or contending for — settles them and enters them as listeners, in
    /// id order with those that were asked because that is the order
    /// reception draws in. The others hear nothing, which is what
    /// settlement charges them.
    fn enter_standing_listeners<S: NodeStack>(
        &mut self,
        stacks: &[S],
        run: &mut Run<S::Payload>,
        asn: Asn,
    ) {
        let in_use = run.committed_channels.iter().chain(run.contenders.iter().map(|c| &c.1));
        let in_use = in_use.fold(0u16, |mask, channel| mask | 1 << channel.0);
        if in_use == 0 {
            return;
        }
        let asked = run.listeners.len();
        let in_cells = run.cell_listeners.iter().flat_map(|frame| {
            frame.by_slot[asn.slotframe_offset(frame.period) as usize].iter().copied()
        });
        let in_every_slot = run.every_slot_listeners.iter().map(|&(i, rule)| (i, rule(asn)));
        for (i, offset) in in_cells.chain(in_every_slot) {
            let channel = offset.hop(asn);
            if in_use & 1 << channel.0 != 0 && self.alive[i] && run.settled_to[i] <= asn {
                settle(&mut run.settled_to[i], &stacks[i], &mut self.energy[i], asn);
                run.settled_to[i] = asn.next();
                run.awake.push(i);
                run.listeners.push((NodeId(i as u16), channel));
                run.listening_on[i] = channel.0;
            }
        }
        if run.listeners.len() > asked {
            run.listeners.sort_unstable_by_key(|(id, _)| *id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::Fault;
    use crate::interference::{total_interference_mw, AdaptiveSniffer, JammerKind};
    use crate::position::Position;
    use crate::topology::{Role, Topology};
    use digs_cases::{cases, Draw};
    use std::collections::BTreeMap;

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
        engine.set_fault_plan(FaultPlan::from_iter([Fault::outage(NodeId(1), Asn(0), None)]));
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
        let topo = Topology::new(
            "triple",
            vec![Position::new(0.0, 0.0), Position::new(5.0, 0.0), Position::new(-5.0, 0.0)],
            vec![Role::AccessPoint, Role::FieldDevice, Role::FieldDevice],
        );
        let mut engine = Engine::new(topo, RfConfig::deterministic(), 7);
        engine.set_fault_plan(FaultPlan::from_iter([Fault::link(
            NodeId(1),
            NodeId(0),
            Asn(0),
            None,
        )]));
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
        let topo = two_node_topology(5.0);
        let mut engine = Engine::new(topo, RfConfig::deterministic(), 7);
        engine.set_fault_plan(FaultPlan::from_iter([Fault::reboot(NodeId(1), Asn(1), Asn(3))]));
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
        let topo = two_node_topology(5.0);
        let mut engine = Engine::new(topo, RfConfig::deterministic(), 7);
        // The reboot ends at slot 3, but a longer outage keeps the node
        // down until slot 6: the cold reset must fire at 6, not 3.
        engine.set_fault_plan(FaultPlan::from_iter([
            Fault::reboot(NodeId(1), Asn(1), Asn(3)),
            Fault::outage(NodeId(1), Asn(2), Some(Asn(6))),
        ]));
        let mut stacks = vec![TestStack::default(), TestStack::default()];
        engine.run(&mut stacks, 8);
        assert_eq!(stacks[1].resets, vec![6]);
    }

    #[test]
    fn desync_hook_fires_at_the_scheduled_slot() {
        let topo = two_node_topology(5.0);
        let mut engine = Engine::new(topo, RfConfig::deterministic(), 7);
        engine.set_fault_plan(FaultPlan::from_iter([Fault::desync(NodeId(0), Asn(4))]));
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
        let mut engine = Engine::new(two_node_topology(5.0), RfConfig::deterministic(), 7);
        engine.set_fault_plan(FaultPlan::from_iter([
            Fault::reboot(NodeId(0), Asn(1), Asn(3)),
            Fault::desync(NodeId(0), Asn(7)),
            Fault::outage(NodeId(1), Asn(4), Some(Asn(8))),
        ]));
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
        // Nothing marks the slot itself: the frame is decoded, then its
        // transmission and its acknowledgement are reported.
        assert_eq!(names, vec!["rx", "tx", "ack"]);
    }

    #[test]
    fn traced_fault_boundaries_and_reset_are_recorded() {
        let topo = two_node_topology(5.0);
        let mut engine = Engine::new(topo, RfConfig::deterministic(), 7);
        engine.set_fault_plan(FaultPlan::from_iter([Fault::reboot(NodeId(1), Asn(1), Asn(3))]));
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

    // ----- The oracle: the slot kernel as it was before it learnt to skip
    // work, kept verbatim, and the differential test that holds the
    // production kernel to it.

    impl Engine {
        /// `Engine::run` as it was when it visited every node in every
        /// slot: the loop around [`Engine::reference_slot`].
        fn reference_run<S: NodeStack>(&mut self, stacks: &mut [S], slots: u64) {
            assert_eq!(stacks.len(), self.topology.len(), "one stack per topology node required");
            let mut wake: Vec<Asn> = stacks.iter().map(|s| s.next_wake(self.asn)).collect();
            let mut asked: Vec<usize> = Vec::new();
            for _ in 0..slots {
                self.reference_slot(stacks, &mut wake, &mut asked);
            }
        }

        /// `Engine::slot` as it was at that commit, unchanged but for its
        /// name: every node visited in every slot, every signal drawn in full,
        /// every path loss recomputed, nine fresh `Vec`s a slot.
        fn reference_slot<S: NodeStack>(
            &mut self,
            stacks: &mut [S],
            wake: &mut [Asn],
            asked: &mut Vec<usize>,
        ) {
            let asn = self.asn;
            let rf = self.link.rf();
            let tracing = self.trace.is_on();
            if tracing {
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
                if self.faults.reboot_completing_at(id, asn) {
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
                if self.faults.desync_at(id, asn) {
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
                // WiFi bursts are microseconds long and use a foreign
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
                            && (!self.any_link_fault
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
                let mut interference_mw =
                    total_interference_mw(&self.jammers, &rx_pos, ch, asn, rf)
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
                        let link_up =
                            !self.any_link_fault || self.faults.is_link_up(*rx_id, tx_id, asn);
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
                                let dst_listening = listeners
                                    .iter()
                                    .any(|(id, off)| id.0 == d && off.hop(asn) == ch);
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

    /// One thing the engine did to a stack.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Call {
        Intent,
        Frame { payload: u32, rss_bits: u64 },
        Outcome(TxOutcome),
        Reset,
        Desync,
    }

    /// A standing description as a case draws it.
    #[derive(Debug, Clone, Default)]
    enum Drawn {
        #[default]
        Off,
        EverySlot(OffsetRule),
        Cells {
            period: u32,
            cells: Vec<(u32, ChannelOffset)>,
        },
    }

    impl Drawn {
        fn listens(&self) -> StandingListens<'_> {
            match self {
                Drawn::Off => StandingListens::Off,
                Drawn::EverySlot(rule) => StandingListens::EverySlot(*rule),
                Drawn::Cells { period, cells } => StandingListens::Cells { period: *period, cells },
            }
        }
    }

    fn parked(_: Asn) -> ChannelOffset {
        ChannelOffset::new(1)
    }

    fn rotating(asn: Asn) -> ChannelOffset {
        ChannelOffset::new((asn.0 / 8 % 3) as u8)
    }

    /// A scripted stack that records every call made to it but the asks it
    /// has nothing planned for (those depend on who drives it). One that
    /// `naps` names its next planned slot as its wake slot; the others ask
    /// to be asked in every slot. Where it has nothing planned its radio
    /// does what `standing` says, which the `k`-th recorded call replaces
    /// by `changes[k]`. On the reference side (`every_slot`) it withholds
    /// the description, is asked in every slot, and answers `Listen` where
    /// the description says so.
    struct Recording {
        plan: BTreeMap<u64, SlotIntent<u32>>,
        naps: bool,
        standing: Drawn,
        changes: BTreeMap<usize, Drawn>,
        version: u64,
        every_slot: bool,
        calls: Vec<(u64, Call)>,
    }

    impl Recording {
        fn record(&mut self, asn: Asn, call: Call) {
            self.calls.push((asn.0, call));
            if let Some(next) = self.changes.remove(&self.calls.len()) {
                self.standing = next;
                self.version += 1;
            }
        }
    }

    impl NodeStack for Recording {
        type Payload = u32;

        fn slot_intent(&mut self, asn: Asn) -> SlotIntent<u32> {
            match self.plan.get(&asn.0).cloned() {
                Some(planned) => {
                    self.record(asn, Call::Intent);
                    planned
                }
                None => match self.standing.listens().offset_at(asn) {
                    Some(offset) => SlotIntent::Listen { offset },
                    None => SlotIntent::Sleep,
                },
            }
        }

        fn on_frame(&mut self, asn: Asn, frame: &Frame<u32>, rss: Dbm) {
            let call = Call::Frame { payload: frame.payload, rss_bits: rss.dbm().to_bits() };
            self.record(asn, call);
        }

        fn on_tx_outcome(&mut self, asn: Asn, outcome: TxOutcome) {
            self.record(asn, Call::Outcome(outcome));
        }

        fn reset(&mut self, asn: Asn) {
            self.record(asn, Call::Reset);
        }

        fn desync(&mut self, asn: Asn) {
            self.record(asn, Call::Desync);
        }

        fn next_wake(&self, from: Asn) -> Asn {
            if self.every_slot || !self.naps {
                return from;
            }
            Asn(self.plan.range(from.0..).next().map_or(u64::MAX, |(asn, _)| *asn))
        }

        fn standing_listens(&self) -> StandingListens<'_> {
            if self.every_slot {
                return StandingListens::Off;
            }
            self.standing.listens()
        }

        fn standing_version(&self) -> u64 {
            self.version
        }
    }

    /// What a differential case does to both engines between two chunks.
    #[derive(Debug, Clone)]
    enum Between {
        Nothing,
        AddJammer(Box<Jammer>),
        SwapAmbient(Vec<Jammer>),
        SwapFaults(FaultPlan),
    }

    /// One drawn scenario: everything needed to build it twice.
    struct Case {
        topology: Topology,
        rf: RfConfig,
        seed: u64,
        plans: Vec<(BTreeMap<u64, SlotIntent<u32>>, bool)>,
        /// Per node, its standing description and the changes to it (none
        /// drawn: off).
        standing: Vec<(Drawn, BTreeMap<usize, Drawn>)>,
        faults: FaultPlan,
        jammers: Vec<Jammer>,
        ambient: Vec<Jammer>,
        traced: bool,
        chunks: Vec<(u64, Between)>,
    }

    fn draw_position(d: &mut Draw, side: f64) -> Position {
        let floor = f64::from(d.int(0u8..3)) * 4.0;
        Position::with_height(d.f64(0.0..side), d.f64(0.0..side), floor)
    }

    fn draw_jammer(d: &mut Draw, side: f64, horizon: u64) -> Jammer {
        let at = draw_position(d, side);
        let start = Asn(d.int(0..horizon));
        let jammer = match d.int(0u8..5) {
            0 => Jammer::wifi(at, d.int(1u8..=13), start),
            1 => Jammer::wifi(at, d.int(1u8..=13), start).until(Asn(start.0 + d.int(1..horizon))),
            2 => Jammer::disturber(at, 1, d.u64()).with_period(d.int(1u64..40)),
            3 => Jammer {
                kind: JammerKind::Adaptive(AdaptiveSniffer::new(
                    d.int(3u32..20),
                    d.int(5u64..60),
                    d.int(5u64..40),
                    d.int(1usize..6),
                    d.f64(0.0..0.5),
                )),
                ..Jammer::adaptive(at, 1, start, d.u64())
            },
            _ => draw_ambient(d, side),
        };
        if d.bool() {
            jammer
        } else {
            let stop = Asn(jammer.start.0 + d.int(1..horizon));
            jammer.until(stop)
        }
    }

    fn draw_ambient(d: &mut Draw, side: f64) -> Jammer {
        let mut duty_pm = [0u16; 16];
        for duty in &mut duty_pm {
            *duty = *d.pick(&[0, 0, 300, 1000]);
        }
        Jammer::ambient(draw_position(d, side), duty_pm, Dbm(d.f64(-10.0..10.0)), d.u64())
    }

    fn draw_faults(d: &mut Draw, n: u16, horizon: u64) -> FaultPlan {
        let mut plan = FaultPlan::none();
        for _ in 0..d.int(0u8..4) {
            let node = NodeId(d.int(0..n));
            let from = d.int(0..horizon);
            let until = if d.bool() { None } else { Some(Asn(from + d.int(1..horizon))) };
            plan.push(Fault::outage(node, Asn(from), until));
            if d.bool() {
                // A reboot whose window straddles the outage's start.
                let down = from.saturating_sub(d.int(0u64..5));
                plan.push(Fault::reboot(node, Asn(down), Asn(down + d.int(1u64..30))));
            }
        }
        for _ in 0..d.int(0u8..3) {
            let from = d.int(0..horizon);
            let node = NodeId(d.int(0..n));
            plan.push(Fault::reboot(node, Asn(from), Asn(from + d.int(1u64..40))));
        }
        for _ in 0..d.int(0u8..3) {
            plan.push(Fault::desync(NodeId(d.int(0..n)), Asn(d.int(0..horizon))));
        }
        for _ in 0..d.int(0u8..4) {
            let a = d.int(0..n);
            let b = (a + d.int(1..n)) % n;
            let from = d.int(0..horizon);
            let until = if d.bool() { None } else { Some(Asn(from + d.int(1..horizon))) };
            plan.push(Fault::link(NodeId(a), NodeId(b), Asn(from), until));
        }
        plan
    }

    fn draw_standing(d: &mut Draw, offsets: u8) -> Drawn {
        match d.int(0u8..5) {
            0 | 1 => Drawn::Off,
            2 => Drawn::EverySlot(*d.pick(&[parked as OffsetRule, rotating])),
            _ => {
                let period = *d.pick(&[3, 7, 16, 47]);
                let slots: std::collections::BTreeSet<u32> =
                    (0..d.int(1u8..=6)).map(|_| d.int(0..period)).collect();
                let cells = slots.into_iter().map(|s| (s, ChannelOffset::new(d.int(0..offsets))));
                Drawn::Cells { period, cells: cells.collect() }
            }
        }
    }

    /// What a standing description becomes: mostly the same receive cells
    /// with one to three added, dropped or moved to another offset, else a
    /// fresh draw (another slotframe, every slot, off).
    fn draw_change(d: &mut Draw, from: &Drawn, offsets: u8) -> Drawn {
        let Drawn::Cells { period, cells } = from else {
            return draw_standing(d, offsets);
        };
        if d.int(0u8..4) == 0 {
            return draw_standing(d, offsets);
        }
        let mut cells = cells.clone();
        for _ in 0..d.int(1u8..=3) {
            let offset = ChannelOffset::new(d.int(0..offsets));
            match d.int(0u8..3) {
                0 => {
                    let slot = d.int(0..*period);
                    if let Err(at) = cells.binary_search_by_key(&slot, |(slot, _)| *slot) {
                        cells.insert(at, (slot, offset));
                    }
                }
                1 if !cells.is_empty() => {
                    cells.remove(d.int(0..cells.len()));
                }
                _ if !cells.is_empty() => {
                    let at = d.int(0..cells.len());
                    cells[at].1 = offset;
                }
                _ => {}
            }
        }
        Drawn::Cells { period: *period, cells }
    }

    fn draw_case(d: &mut Draw) -> Case {
        let n = d.int(2u16..=60);
        let horizon = d.int(40u64..300);
        let rf =
            d.pick(&[RfConfig::indoor(), RfConfig::open_area(), RfConfig::deterministic()]).clone();
        // Sides around the radio range, so that links of every quality occur.
        let side = d.f64(10.0..90.0) * if rf == RfConfig::open_area() { 4.0 } else { 1.0 };
        // On a coarse grid nodes share positions, and without fading equal
        // distances are equal signals: the ties the candidate order breaks.
        let cell = if d.bool() { side / 3.0 } else { 0.0 };
        let positions = (0..n)
            .map(|_| {
                let at = draw_position(d, side);
                if cell > 0.0 {
                    Position {
                        x: (at.x / cell).floor() * cell,
                        y: (at.y / cell).floor() * cell,
                        ..at
                    }
                } else {
                    at
                }
            })
            .collect();
        let mut roles = vec![Role::FieldDevice; usize::from(n)];
        roles[0] = Role::AccessPoint;

        // How often a node has anything planned; the sparse plans of nodes
        // that all nap are what lets the engine jump.
        let busy = *d.pick(&[0.004, 0.03, 0.2, 0.7]);
        let all_nap = d.bool();
        let offsets = d.int(1u8..4);
        let mut plans = vec![BTreeMap::new(); usize::from(n)];
        let mut payload = 0;
        for asn in 0..horizon {
            for id in 0..n {
                if d.f64(0.0..1.0) >= busy || plans[usize::from(id)].contains_key(&asn) {
                    continue;
                }
                let offset = ChannelOffset::new(d.int(0..offsets));
                let intent = if d.bool() {
                    SlotIntent::Listen { offset }
                } else {
                    let dst = match d.int(0u8..3) {
                        0 => Dest::Broadcast,
                        _ => Dest::Unicast(NodeId((id + d.int(1..n)) % n)),
                    };
                    // Mostly the addressee is listening, as a schedule
                    // would arrange.
                    if let (Dest::Unicast(dst), true) = (dst, d.int(0u8..4) > 0) {
                        plans[dst.index()].entry(asn).or_insert(SlotIntent::Listen { offset });
                    }
                    let kind = *d.pick(&[
                        FrameKind::Beacon,
                        FrameKind::Routing,
                        FrameKind::Data,
                        FrameKind::Management,
                    ]);
                    payload += 1;
                    let frame = Frame::new(NodeId(id), dst, kind, d.int(20u16..120), payload);
                    SlotIntent::Transmit { offset, frame, contention: d.bool() }
                };
                plans[usize::from(id)].insert(asn, intent);
            }
        }
        let plans = plans.into_iter().map(|plan| (plan, all_nap || d.bool())).collect();

        let jammers = d.vec(0..4, |d| draw_jammer(d, side, horizon));
        let mut chunks = Vec::new();
        let mut left = horizon;
        while left > 0 {
            let most = left.min(*d.pick(&[1, 3, 20, 150]));
            let slots = d.int(1..=most);
            left -= slots;
            let between = match d.int(0u8..8) {
                0 => Between::AddJammer(Box::new(draw_jammer(d, side, horizon))),
                1 => Between::SwapAmbient(d.vec(0..3, |d| draw_ambient(d, side))),
                2 => Between::SwapFaults(draw_faults(d, n, horizon)),
                _ => Between::Nothing,
            };
            chunks.push((slots, between));
        }
        let mut case = Case {
            topology: Topology::new("drawn", positions, roles),
            rf,
            seed: d.u64(),
            plans,
            standing: Vec::new(),
            faults: draw_faults(d, n, horizon),
            jammers,
            ambient: d.vec(0..3, |d| draw_ambient(d, side)),
            traced: d.bool(),
            chunks,
        };
        // Drawn last, so that the rest of the case is what it was before
        // there were standing listens.
        case.standing = (0..n)
            .map(|_| {
                let first = draw_standing(d, offsets);
                let (mut call, mut last) = (0, first.clone());
                let changes = (0..d.int(0..4))
                    .map(|_| {
                        call += d.int(1usize..6);
                        last = draw_change(d, &last, offsets);
                        (call, last.clone())
                    })
                    .collect();
                (first, changes)
            })
            .collect();
        case
    }

    impl Case {
        /// The case with its stacks as the reference kernel is to see them.
        fn build_reference(&self) -> (Engine, Vec<Recording>) {
            let (engine, mut stacks) = self.build();
            stacks.iter_mut().for_each(|stack| stack.every_slot = true);
            (engine, stacks)
        }

        fn build(&self) -> (Engine, Vec<Recording>) {
            let mut engine = Engine::new(self.topology.clone(), self.rf.clone(), self.seed);
            for jammer in &self.jammers {
                engine.add_jammer(jammer.clone());
            }
            engine.set_ambient_jammers(self.ambient.clone());
            engine.set_fault_plan(self.faults.clone());
            if self.traced {
                engine.set_trace(TraceHandle::bounded(1 << 14));
            }
            let stacks = self
                .plans
                .iter()
                .enumerate()
                .map(|(i, (plan, naps))| {
                    let (standing, changes) = self.standing.get(i).cloned().unwrap_or_default();
                    Recording {
                        plan: plan.clone(),
                        naps: *naps,
                        standing,
                        changes,
                        version: 0,
                        every_slot: false,
                        calls: Vec::new(),
                    }
                })
                .collect();
            (engine, stacks)
        }
    }

    impl Between {
        fn apply(&self, engine: &mut Engine) {
            match self.clone() {
                Between::Nothing => {}
                Between::AddJammer(jammer) => engine.add_jammer(*jammer),
                Between::SwapAmbient(ambient) => engine.set_ambient_jammers(ambient),
                Between::SwapFaults(plan) => engine.set_fault_plan(plan),
            }
        }
    }

    /// Panics unless the two engines and their stacks are in the same state.
    fn assert_same(
        at: &str,
        (engine, stacks): &(Engine, Vec<Recording>),
        (oracle, oracle_stacks): &(Engine, Vec<Recording>),
    ) {
        assert_eq!(engine.asn(), oracle.asn(), "asn {at}");
        assert_eq!(engine.stats(), oracle.stats(), "stats {at}");
        assert_eq!(engine.energy_meters(), oracle.energy_meters(), "energy {at}");
        assert_eq!(engine.peek_rng(), oracle.peek_rng(), "random stream {at}");
        assert_eq!(engine.trace().events(), oracle.trace().events(), "trace {at}");
        assert_eq!(engine.jammers(), oracle.jammers(), "sniffer state {at}");
        for (id, (stack, twin)) in stacks.iter().zip(oracle_stacks).enumerate() {
            assert_eq!(stack.calls, twin.calls, "calls to node {id} {at}");
        }
    }

    /// Runs a case on the production kernel and on the reference kernel,
    /// comparing after every chunk. Returns how many frames were heard
    /// through a standing listen (by a node with nothing planned), the
    /// production kernel's [`ROUTES`] and how often it patched its index.
    fn run_against_reference(case: &Case) -> (usize, [u64; ROUTES.len()], u64) {
        let mut ours = case.build();
        let mut reference = case.build_reference();
        for (chunk, (slots, between)) in case.chunks.iter().enumerate() {
            ours.0.run(&mut ours.1, *slots);
            reference.0.reference_run(&mut reference.1, *slots);
            assert_same(&format!("after chunk {chunk} of {slots} slots"), &ours, &reference);
            between.apply(&mut ours.0);
            between.apply(&mut reference.0);
        }
        let heard_standing = |stack: &Recording| {
            let unplanned = |(asn, call): &&(u64, Call)| {
                matches!(call, Call::Frame { .. }) && !stack.plan.contains_key(asn)
            };
            stack.calls.iter().filter(unplanned).count()
        };
        (ours.1.iter().map(heard_standing).sum(), ours.0.routes, ours.0.patches)
    }

    #[test]
    fn the_slot_kernel_matches_the_reference_kernel() {
        let mut jumped = 0;
        let mut heard_standing = 0;
        let mut routes = [0; ROUTES.len()];
        let mut patches = 0;
        cases(320, |d| {
            let case = draw_case(d);
            let (heard, case_routes, case_patches) = run_against_reference(&case);
            heard_standing += heard;
            patches += case_patches;
            routes.iter_mut().zip(case_routes).for_each(|(sum, n)| *sum += n);
            let (mut engine, mut stacks) = case.build();
            for (slots, between) in &case.chunks {
                let steps = run_noting_steps(&mut engine, &mut stacks, *slots);
                jumped += u32::from((steps.len() as u64) < *slots);
                between.apply(&mut engine);
            }
        });
        assert!(jumped >= 50, "only {jumped} chunks jumped a gap");
        assert!(
            heard_standing >= 10_000,
            "only {heard_standing} frames heard by standing listeners"
        );
        // Every slot's index is held to one rebuilt anew, so the
        // patches are checked as often as this says they were made.
        assert!(patches >= 2_000, "only {patches} indexes patched");
        let floors = [50, 200, 200, 200, 200];
        for ((route, n), floor) in ROUTES.iter().zip(routes).zip(floors) {
            assert!(n >= floor, "only {n} {route}: {routes:?}");
        }
    }

    /// Phase 3's exact resolution, on signals already drawn: the strongest
    /// (ties in commit order) against the rest summed in sorted order on top
    /// of `ambient_mw`. Returns its index and the PRR a listener's uniform is
    /// held against.
    fn resolve_exactly(rss: &[f64], ambient_mw: f64) -> (usize, f64) {
        let mut cands: Vec<(usize, Dbm)> = rss.iter().map(|r| Dbm(*r)).enumerate().collect();
        cands.sort_by(|a, b| b.1.dbm().total_cmp(&a.1.dbm()));
        let (best_idx, best_rss) = cands[0];
        let mut interference_mw = ambient_mw;
        for (_, rss) in &cands[1..] {
            interference_mw += rss.to_milliwatts();
        }
        (best_idx, prr_from_sinr_db(best_rss.dbm() - 10.0 * interference_mw.log10()))
    }

    /// Whenever `decide` answers, the answer is the exact resolution's, for
    /// every RSS the intervals allow — here the one they were drawn around —
    /// and it answers each way, and declines, often.
    #[test]
    fn decide_answers_what_drawing_every_signal_answers() {
        let mut routes = [0usize; 4];
        cases(256, |d| {
            for _ in 0..100 {
                // The strongest two apart by nothing, by a hair, or by dBs;
                // the rest anywhere below the first.
                let top = d.f64(-90.0..-20.0);
                let gap = match d.int(0u8..6) {
                    0 => 0.0,
                    1 => *d.pick(&[1e-12, 1e-9, 1e-7, 2e-6, 1e-4]),
                    2 | 3 => d.f64(0.0..10.0),
                    _ => d.f64(0.0..40.0),
                };
                let mut rss = vec![top, top - gap];
                for _ in 2..d.int(2usize..=8) {
                    rss.push(top - if d.bool() { d.f64(0.0..12.0) } else { d.f64(0.0..60.0) });
                }
                // Commit order is not order of strength.
                for i in (1..rss.len()).rev() {
                    rss.swap(i, d.int(0..=i));
                }
                // Intervals of any width around them, none included, and
                // either end may be the signal itself: two equal signals can
                // meet where their intervals only touch.
                let width = *d.pick(&[0.0, 1e-6, 0.03, 0.03, 0.5]);
                let reach = |d: &mut Draw| match d.int(0u8..3) {
                    0 => 0.0,
                    1 => width,
                    _ => d.f64(0.0..1.0) * width,
                };
                let heard: Vec<Heard> = rss
                    .iter()
                    .enumerate()
                    .map(|(k, r)| Heard { k, lo: r - reach(d), hi: r + reach(d) })
                    .collect();
                // Thermal noise with or without a jammer on top — or next to
                // none, where the other signals are all the interference is.
                let ambient_mw = match d.int(0u8..5) {
                    0 => 1e-30,
                    1 | 2 => Dbm(-98.0).to_milliwatts(),
                    _ => Dbm(-98.0).to_milliwatts() + Dbm(d.f64(-110.0..-40.0)).to_milliwatts(),
                };

                // `u` where the exact answer turns, and at both ends.
                let (best, prr) = resolve_exactly(&rss, ambient_mw);
                let u = match d.int(0u8..12) {
                    0 => prr,
                    1 => f64::from_bits(prr.to_bits() - 1),
                    2 => prr + 1e-12,
                    3 => (prr - 1e-12).max(0.0),
                    4 => 0.0,
                    5 => 0.999,
                    _ => d.f64(0.0..1.0),
                };
                match decide(&heard, ambient_mw, u) {
                    Some((i, settled)) => {
                        assert_eq!(heard[i].k, best, "{settled:?} {heard:?} around {rss:?}");
                        let decoded = settled == Settled::Decoded;
                        assert_eq!(decoded, u < prr, "{settled:?} at {u} {heard:?} around {rss:?}");
                        routes[settled as usize] += 1;
                    }
                    None => routes[3] += 1,
                }
            }
        });
        assert!(routes.iter().all(|&n| n >= 1_000), "{:?}: {routes:?}", &ROUTES[1..]);
    }

    #[test]
    fn closed_form_count_of_standing_listens_matches_membership_slot_by_slot() {
        cases(400, |d| {
            let standing = draw_standing(d, 3);
            let listens = standing.listens();
            // Ranges that start and end inside a frame, empty ones included.
            let from = d.int(0u64..1 << 20);
            let to = from + d.int(0u64..200);
            let brute = (from..to).filter(|asn| listens.offset_at(Asn(*asn)).is_some()).count();
            assert_eq!(
                listens.count(Asn(from), Asn(to)),
                brute as u64,
                "{standing:?} {from}..{to}"
            );
        });
    }

    /// [`Engine::run`], noting the slot each step of the kernel started in
    /// (a slot missing from the list was jumped over).
    fn run_noting_steps(engine: &mut Engine, stacks: &mut [Recording], slots: u64) -> Vec<u64> {
        let mut run = Run::new(stacks, engine.asn, slots);
        let mut steps = Vec::new();
        while engine.asn < run.end {
            steps.push(engine.asn.0);
            engine.slot(stacks, &mut run);
        }
        let asn = engine.asn;
        engine.settle_alive_to(stacks, &mut run, asn);
        steps
    }

    /// A pair 12 m apart, node 1 sending node 0 a unicast in every one of
    /// the first `slots` slots: a link a strong jammer at the receiver
    /// destroys.
    fn jammable_pair(slots: u64) -> Case {
        let offset = ChannelOffset::new(0);
        let sender = (0..slots).map(|asn| (asn, tx_intent(1, Some(0), asn as u32, false)));
        let listener = (0..slots).map(|asn| (asn, SlotIntent::Listen { offset }));
        Case {
            topology: two_node_topology(12.0),
            rf: RfConfig::deterministic(),
            seed: 7,
            plans: vec![(listener.collect(), false), (sender.collect(), false)],
            standing: Vec::new(),
            faults: FaultPlan::none(),
            jammers: Vec::new(),
            ambient: Vec::new(),
            traced: true,
            chunks: Vec::new(),
        }
    }

    fn frames_received(stack: &Recording) -> usize {
        stack.calls.iter().filter(|(_, call)| matches!(call, Call::Frame { .. })).count()
    }

    #[test]
    fn a_jammer_added_between_two_runs_is_heard_in_the_second() {
        let mut case = jammable_pair(200);
        let mut jammer = Jammer::disturber(Position::new(0.5, 0.0), 1, 3).with_period(1_000);
        jammer.tx_power = Dbm(20.0);
        case.chunks = vec![(100, Between::AddJammer(Box::new(jammer))), (100, Between::Nothing)];
        run_against_reference(&case);

        let (mut engine, mut stacks) = case.build();
        engine.run(&mut stacks, 100);
        let before = frames_received(&stacks[0]);
        case.chunks[0].1.apply(&mut engine);
        engine.run(&mut stacks, 100);
        let after = frames_received(&stacks[0]) - before;
        assert!(before > 90 && after < 20, "{before} frames before the jammer, {after} after");
    }

    #[test]
    fn an_ambient_set_swapped_between_chunks_replaces_the_old_one() {
        let loud = |salt| Jammer::ambient(Position::new(0.5, 0.0), [1000; 16], Dbm(20.0), salt);
        let far = Jammer::ambient(Position::new(900.0, 0.0), [1000; 16], Dbm(0.0), 5);
        let mut case = jammable_pair(300);
        case.ambient = vec![loud(1)];
        case.chunks = vec![
            (100, Between::SwapAmbient(vec![far.clone()])),
            (100, Between::SwapAmbient(vec![far, loud(2)])),
            (100, Between::Nothing),
        ];
        run_against_reference(&case);

        let (mut engine, mut stacks) = case.build();
        let mut received = Vec::new();
        for (slots, between) in &case.chunks {
            engine.run(&mut stacks, *slots);
            received.push(frames_received(&stacks[0]) - received.iter().sum::<usize>());
            between.apply(&mut engine);
        }
        assert!(
            received[0] < 20 && received[1] > 90 && received[2] < 20,
            "frames per chunk under loud, distant, loud ambient load: {received:?}"
        );
    }

    /// Three nodes that nap: node 0 has nothing planned, node 1 is down
    /// over slots 40..70, node 2 listens in slot 100 only.
    fn nappers() -> Case {
        let listen = SlotIntent::Listen { offset: ChannelOffset::new(0) };
        Case {
            topology: Topology::new(
                "triple",
                vec![Position::new(0.0, 0.0), Position::new(5.0, 0.0), Position::new(-5.0, 0.0)],
                vec![Role::AccessPoint, Role::FieldDevice, Role::FieldDevice],
            ),
            rf: RfConfig::deterministic(),
            seed: 7,
            plans: vec![
                (BTreeMap::new(), true),
                (BTreeMap::new(), true),
                (BTreeMap::from([(100, listen)]), true),
            ],
            standing: Vec::new(),
            faults: FaultPlan::from_iter([Fault::outage(NodeId(1), Asn(40), Some(Asn(70)))]),
            jammers: Vec::new(),
            ambient: Vec::new(),
            traced: false,
            chunks: vec![(100, Between::Nothing), (1, Between::Nothing)],
        }
    }

    #[test]
    fn a_jump_lands_on_each_fault_edge_on_the_end_and_not_past_a_wake_slot() {
        let case = nappers();
        run_against_reference(&case);

        let (mut engine, mut stacks) = case.build();
        // One step per stretch between fault edges: nobody is ever due.
        assert_eq!(run_noting_steps(&mut engine, &mut stacks, 100), vec![0, 40, 70]);
        assert_eq!(engine.asn(), Asn(100), "the last jump stops at the end of the run");
        assert_eq!(engine.stats().slots, 100);
        assert_eq!(stacks[2].calls, vec![], "slot 100 is the next run's");
        let slots: Vec<u64> = engine.energy_meters().iter().map(|m| m.slots).collect();
        assert_eq!(slots, vec![100, 70, 100], "node 1 was down for 30 of the jumped slots");

        assert_eq!(run_noting_steps(&mut engine, &mut stacks, 1), vec![100]);
        assert_eq!(stacks[2].calls, vec![(100, Call::Intent)]);
        assert_eq!(engine.energy(NodeId(2)).rx_us, u64::from(IDLE_LISTEN_US));
    }

    #[test]
    fn a_traced_run_takes_the_untraced_steps_and_a_sniffer_is_stepped_only_where_its_window_moves()
    {
        let untraced = nappers();
        let mut traced = nappers();
        traced.traced = true;
        run_against_reference(&untraced);
        run_against_reference(&traced);
        let (mut engine, mut stacks) = untraced.build();
        let (mut traced_engine, mut traced_stacks) = traced.build();
        assert_eq!(
            run_noting_steps(&mut traced_engine, &mut traced_stacks, 100),
            run_noting_steps(&mut engine, &mut stacks, 100),
            "the recorder holds a line per event, not per slot, so it reads no gap"
        );
        let names: Vec<&str> =
            traced_engine.trace().events().iter().map(|e| e.kind.name()).collect();
        assert_eq!(names, vec!["fault-inject", "fault-clear"], "the two edges landed on");

        // A sniffer on the air over 5..90 that learns in windows of 30 slots
        // and hears nothing: a jump also stops where its window starts (5)
        // and stops (90), and at the slots whose observation ends a learning
        // window (34, 64), which are stepped, a jump going on from the next.
        // The jumped slots are observed in bulk, and it ends where the
        // reference kernel, stepping all 100, leaves it.
        let mut sniffed = nappers();
        sniffed.traced = true;
        let sniffer = AdaptiveSniffer::new(7, 30, 20, 2, 0.1);
        let jammer = Jammer::adaptive(Position::new(1.0, 1.0), 7, Asn(5), 9).until(Asn(90));
        sniffed.jammers = vec![Jammer { kind: JammerKind::Adaptive(sniffer), ..jammer }];
        run_against_reference(&sniffed);
        let (mut engine, mut stacks) = sniffed.build();
        let steps = run_noting_steps(&mut engine, &mut stacks, 100);
        assert_eq!(steps, vec![0, 5, 34, 35, 40, 64, 65, 70, 90]);
    }
}
