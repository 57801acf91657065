//! The full DiGS node stack: EB scanning → distributed graph routing →
//! autonomous scheduling → data forwarding over primary and backup routes.

use super::stack_core::TschMac;
use super::StackTelemetry;
use crate::flows::FlowSpec;
use crate::payload::Payload;
use digs_routing::messages::{ParentSlot, RoutingEvent};
use digs_routing::{DigsRouting, Rank, RoutingConfig};
use digs_scheduling::slotframe::CellAction;
use digs_scheduling::{DigsScheduler, EpochPerms, SlotframeLengths};
use digs_sim::engine::{NodeStack, SlotIntent, StandingListens, TxOutcome};
use digs_sim::ids::NodeId;
use digs_sim::packet::Frame;
use digs_sim::rf::Dbm;
use digs_sim::time::Asn;
use digs_trace::TraceHandle;
use std::sync::Arc;

/// The DiGS protocol stack for one node.
#[derive(Debug)]
pub struct DigsStack {
    /// The TSCH node underneath: queues, sync, children, telemetry, trace.
    mac: TschMac,
    routing: DigsRouting,
    scheduler: DigsScheduler,
    /// Whether the current second-best parent has confirmed, by ACKing a
    /// data frame, that it holds our registration. Until then, attempt-3
    /// traffic is redirected to the primary parent — a backup that has not
    /// yet heard our join-in would silently eat every third attempt — and
    /// the backup is probed on every fourth application cycle.
    second_confirmed: bool,
    /// Retained so a cold reboot (engine `reset`) can reprovision the
    /// stack from factory state.
    provision: DigsProvision,
}

/// The immutable provisioning a DiGS mote ships with: everything needed to
/// build its routing and scheduling from scratch, at first boot and again
/// on every cold reboot.
#[derive(Debug, Clone)]
pub struct DigsProvision {
    /// Number of access points in the network (Eq. 4's slot stride).
    pub num_aps: u16,
    /// Slotframe lengths of the three traffic classes.
    pub slotframes: SlotframeLengths,
    /// Transmission attempts per packet per application slotframe cycle.
    pub attempts: u8,
    /// Routing-layer parameters.
    pub routing_config: RoutingConfig,
    /// Capacity of the application queue.
    pub queue_capacity: usize,
    /// Application cycles a packet is retried at one hop before it is
    /// dropped (its attempt budget is `attempts × max_cycles`).
    pub max_cycles: u8,
    /// Per-node seed of the routing layer's randomness.
    pub seed: u64,
    /// Shared schedule-randomization nonce (`None` = static Eq. 4). Like
    /// the slotframe lengths, this is factory provisioning: it survives
    /// reboots, so a rebooted mote rejoins the randomized schedule its
    /// neighbors are still following.
    pub randomize: Option<u64>,
    /// The memo of the randomization epochs' slot permutations, one per
    /// network: every node of the network is handed the same, so each
    /// epoch's permutation is built once for all of them.
    pub perms: Arc<EpochPerms>,
}

impl DigsProvision {
    /// Factory-fresh routing and scheduling for node `id` booting at `asn`.
    fn boot(&self, id: NodeId, is_ap: bool, seed: u64, asn: Asn) -> (DigsRouting, DigsScheduler) {
        let routing = DigsRouting::new(id, is_ap, self.routing_config, seed, asn);
        let mut scheduler = DigsScheduler::new(id, self.num_aps, self.slotframes, self.attempts)
            .with_perms(Arc::clone(&self.perms));
        scheduler.set_randomize(self.randomize);
        (routing, scheduler)
    }
}

impl DigsStack {
    /// Builds the stack for node `id`. `flows` lists the flows this node
    /// sources (usually zero or one).
    pub fn new(
        id: NodeId,
        is_ap: bool,
        flows: Vec<FlowSpec>,
        provision: DigsProvision,
    ) -> DigsStack {
        let (routing, scheduler) = provision.boot(id, is_ap, provision.seed, Asn::ZERO);
        DigsStack {
            mac: TschMac::new(id, is_ap, flows, provision.queue_capacity, routing.rank()),
            routing,
            scheduler,
            second_confirmed: false,
            provision,
        }
    }

    /// Harness telemetry.
    pub fn telemetry(&self) -> &StackTelemetry {
        &self.mac.core.telemetry
    }

    /// Installs the flight-recorder handle (shared with the engine).
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.mac.set_trace(trace, self.rank(), self.parents());
    }

    /// Records the installation or release of the dedicated receive cell
    /// (Eq. 4, attempt 1) this node keeps for `child`.
    fn trace_cell(&self, asn: Asn, child: NodeId, release: bool) {
        if self.mac.core.trace.is_on() {
            let cell =
                (self.scheduler.tx_slot(child, 1), DigsScheduler::attempt_offset(child, 1).0);
            self.mac.core.record_cell(asn, child, cell, release);
        }
    }

    /// Registers `child` (or refreshes its registration) in the role it
    /// gave us. Only prolonged silence releases the child's cells: a
    /// later join-in naming other parents leaves them in place, and the
    /// old parent over-listens until the sweep finds the child silent.
    fn register_child(&mut self, child: NodeId, role: ParentSlot, asn: Asn) {
        self.scheduler.add_child(child, role);
        if self.mac.child_heard(child, asn) {
            self.trace_cell(asn, child, false);
        }
    }

    /// Current `(best, second)` parents.
    pub fn parents(&self) -> (Option<NodeId>, Option<NodeId>) {
        (self.routing.best_parent(), self.routing.second_best_parent())
    }

    /// Current rank.
    pub fn rank(&self) -> Rank {
        self.routing.rank()
    }

    /// Whether the node is synchronized and attached to the graph.
    pub fn is_joined(&self) -> bool {
        self.is_synced() && self.routing.is_joined()
    }

    /// Whether the node holds TSCH synchronization (a desynced node is
    /// scanning for EBs and its housekeeping is dormant).
    pub fn is_synced(&self) -> bool {
        self.mac.synced_at().is_some()
    }

    /// When the node last (re-)acquired synchronization, if it has any.
    pub fn synced_at(&self) -> Option<Asn> {
        self.mac.synced_at()
    }

    /// Read access to the routing state machine (snapshots, assertions).
    pub fn routing(&self) -> &DigsRouting {
        &self.routing
    }

    /// Read access to the autonomous scheduler (schedule inspection).
    pub fn scheduler(&self) -> &DigsScheduler {
        &self.scheduler
    }

    /// Application queue length (congestion diagnostics).
    pub fn app_queue_len(&self) -> usize {
        self.mac.app_queue.len()
    }

    /// Registered children with each one's last-heard time, for the
    /// auditor's child-table invariant.
    pub fn children_last_seen(&self) -> Vec<(NodeId, Asn)> {
        self.scheduler
            .children()
            .map(|(c, _)| (c, self.mac.child_last_heard(c).unwrap_or(Asn::ZERO)))
            .collect()
    }

    /// The dedicated `(application slot, channel offset)` cells this node
    /// transmits in under Eq. 4 — empty for access points (they own no TX
    /// cells) and for unjoined nodes (they never fire a data cell).
    pub fn cell_claims(&self) -> Vec<(u32, digs_sim::channel::ChannelOffset)> {
        let id = self.mac.core.id;
        if self.mac.core.is_ap || !self.is_joined() {
            return Vec::new();
        }
        (1..=self.scheduler.attempts())
            .map(|p| (self.scheduler.tx_slot(id, p), DigsScheduler::attempt_offset(id, p)))
            .collect()
    }

    fn process_routing_events(&mut self, events: Vec<RoutingEvent>, asn: Asn) {
        for event in events {
            match event {
                RoutingEvent::BroadcastJoinIn(msg) => {
                    self.mac.queue_broadcast(Payload::JoinIn(msg));
                }
                RoutingEvent::BroadcastDio(_) => {
                    debug_assert!(false, "DiGS routing never emits DIOs");
                }
                RoutingEvent::ParentsChanged { best, second } => {
                    self.mac.parents_changed(asn, best, second);
                    self.second_confirmed = false;
                    self.scheduler.set_parents(best, second);
                    // Announce the new parent set at the next shared slot
                    // without waiting for the Trickle firing point: until
                    // the new parents hear it, their schedules lack our
                    // receive cells.
                    if best.is_some() {
                        self.mac.queue_broadcast(Payload::JoinIn(self.routing.join_in()));
                    }
                }
            }
        }
        if self.mac.core.trace.is_on() {
            self.mac.trace_rank(asn, self.routing.rank());
        }
    }

    /// Picks the actual next hop for a data cell: the backup route is only
    /// used once the backup has ACKed one of our data frames; before that,
    /// attempt-A cells go to the primary, with that probe toward the backup
    /// every fourth application cycle (the primary listens in all of our
    /// attempt cells, so the redirect always has a receiver).
    fn resolve_data_target(&self, scheduled: NodeId, attempt: u8, asn: Asn) -> NodeId {
        if attempt < self.scheduler.attempts() {
            return scheduled;
        }
        let second = self.routing.second_best_parent();
        if Some(scheduled) != second || self.second_confirmed {
            return scheduled;
        }
        let cycle = asn.0 / u64::from(self.scheduler.lengths().app);
        let probing = cycle.is_multiple_of(4);
        if probing {
            scheduled
        } else {
            self.routing.best_parent().unwrap_or(scheduled)
        }
    }
}

impl NodeStack for DigsStack {
    type Payload = Payload;

    fn slot_intent(&mut self, asn: Asn) -> SlotIntent<Payload> {
        if let Some(scan) = self.mac.begin_slot(asn) {
            return scan;
        }

        // A randomized schedule's cells move each epoch; the first slot of
        // one is a wake slot, and this is where it is laid out.
        self.scheduler.place(asn);

        // Routing housekeeping (Trickle, eviction).
        let events = self.routing.tick(asn);
        self.process_routing_events(events, asn);

        for child in self.mac.sweep_children(asn) {
            self.scheduler.remove_child(child);
            self.trace_cell(asn, child, true);
        }

        let Some(mut cell) = self.scheduler.cell(asn) else {
            return SlotIntent::Sleep;
        };
        if let CellAction::TxData { to, attempt } = &mut cell.action {
            *to = self.resolve_data_target(*to, *attempt, asn);
        }
        self.mac.cell_intent(cell)
    }

    fn next_wake(&self, from: Asn) -> Asn {
        let has_data = !self.mac.app_queue.is_empty();
        self.mac.next_wake(from, || {
            self.routing.next_tick(from).min(self.scheduler.next_wake_cell(from, has_data))
        })
    }

    fn standing_listens(&self) -> StandingListens<'_> {
        self.mac.standing_listens(self.scheduler.standing_listens())
    }

    fn standing_version(&self) -> u64 {
        self.mac.standing_version(self.scheduler.standing_version())
    }

    fn on_frame(&mut self, asn: Asn, frame: &Frame<Payload>, rss: Dbm) {
        let me = self.mac.core.id;
        match &frame.payload {
            Payload::Eb => self.mac.on_beacon(asn),
            Payload::JoinIn(msg) => {
                if self.is_synced() {
                    let events = self.routing.on_join_in(frame.src, msg, rss, asn);
                    self.process_routing_events(events, asn);
                    // Refresh the scheduler's child table from the parent
                    // ids piggybacked on the join-in.
                    if msg.best_parent == Some(me) {
                        self.register_child(frame.src, ParentSlot::Best, asn);
                    } else if msg.second_parent == Some(me) {
                        self.register_child(frame.src, ParentSlot::SecondBest, asn);
                    }
                }
            }
            Payload::Dio(_) => {} // not ours; Orchestra traffic in mixed tests
            Payload::Data(packet) => {
                if !self.mac.core.is_unicast_to_me(frame) {
                    return;
                }
                // The frame's slot identifies the sender's attempt number
                // (Eq. 4 is invertible, also under randomization — the
                // epoch permutation derandomizes first), which tells us
                // whether the sender uses us as its primary or backup
                // parent — refresh the child table from actual traffic so a
                // lost join-in cannot leave the schedule permanently
                // asymmetric.
                if let Some(p) = self.scheduler.infer_attempt_at(frame.src, asn) {
                    let role = if p < self.scheduler.attempts() {
                        ParentSlot::Best
                    } else {
                        ParentSlot::SecondBest
                    };
                    self.register_child(frame.src, role, asn);
                }
                self.mac.accept(packet, asn);
            }
        }
    }

    fn reset(&mut self, asn: Asn) {
        // Cold reboot: routing, schedule, queues, children, and sync are
        // factory-fresh; the node must re-associate via EBs and rejoin the
        // graph from scratch.
        let p = &self.provision;
        let seed = digs_sim::rng::mix(p.seed, asn.0, 0x001e_b007, 0);
        (self.routing, self.scheduler) = p.boot(self.mac.core.id, self.mac.core.is_ap, seed, asn);
        self.mac.reboot(asn, self.routing.rank());
        self.second_confirmed = false;
    }

    fn desync(&mut self, _asn: Asn) {
        self.mac.desync();
    }

    fn on_tx_outcome(&mut self, asn: Asn, outcome: TxOutcome) {
        let budget = u16::from(self.scheduler.attempts()) * u16::from(self.provision.max_cycles);
        if let Some((to, acked)) = self.mac.settle(outcome, budget, asn) {
            if acked && self.routing.second_best_parent() == Some(to) {
                self.second_confirmed = true;
            }
            let events = self.routing.on_tx_result(to, acked, asn);
            self.process_routing_events(events, asn);
        }
    }
}
