//! The Orchestra baseline stack: EB scanning → RPL (single preferred
//! parent) → Orchestra sender-based scheduling.

use super::stack_core::TschMac;
use super::StackTelemetry;
use crate::flows::FlowSpec;
use crate::payload::Payload;
use digs_routing::messages::RoutingEvent;
use digs_routing::{Rank, RoutingConfig, RplRouting};
use digs_scheduling::{OrchestraScheduler, SlotframeLengths};
use digs_sim::engine::{NodeStack, SlotIntent, StandingListens, TxOutcome};
use digs_sim::ids::NodeId;
use digs_sim::packet::Frame;
use digs_sim::rf::Dbm;
use digs_sim::time::Asn;
use digs_trace::TraceHandle;

/// Maximum link-layer transmissions of a data packet before Orchestra
/// drops it (TSCH's default MAC retry budget).
pub const MAX_DATA_RETRIES: u8 = 8;

/// The Orchestra protocol stack for one node.
#[derive(Debug)]
pub struct OrchestraStack {
    /// The TSCH node underneath: queues, sync, children, telemetry, trace.
    /// The children here are every neighbor heard (sender-based schedule:
    /// the node's receive cells derive from this set).
    mac: TschMac,
    routing: RplRouting,
    scheduler: OrchestraScheduler,
    /// Retained so a cold reboot (engine `reset`) can reprovision the
    /// stack from factory state.
    provision: OrchestraProvision,
}

/// The immutable provisioning an Orchestra mote ships with: everything
/// needed to build its routing and scheduling from scratch, at first boot
/// and again on every cold reboot.
#[derive(Debug, Clone, Copy)]
pub struct OrchestraProvision {
    /// Slotframe lengths of the three traffic classes.
    pub slotframes: SlotframeLengths,
    /// Routing-layer parameters.
    pub routing_config: RoutingConfig,
    /// Capacity of the application queue.
    pub queue_capacity: usize,
    /// Per-node seed of the routing layer's randomness.
    pub seed: u64,
}

impl OrchestraProvision {
    /// Factory-fresh routing and scheduling for node `id` booting at `asn`.
    fn boot(
        &self,
        id: NodeId,
        is_ap: bool,
        seed: u64,
        asn: Asn,
    ) -> (RplRouting, OrchestraScheduler) {
        (
            RplRouting::new(id, is_ap, self.routing_config, seed, asn),
            OrchestraScheduler::new(id, self.slotframes),
        )
    }
}

impl OrchestraStack {
    /// Builds the stack for node `id`. `flows` lists the flows this node
    /// sources (usually zero or one).
    pub fn new(
        id: NodeId,
        is_ap: bool,
        flows: Vec<FlowSpec>,
        provision: OrchestraProvision,
    ) -> OrchestraStack {
        let (routing, scheduler) = provision.boot(id, is_ap, provision.seed, Asn::ZERO);
        OrchestraStack {
            mac: TschMac::new(id, is_ap, flows, provision.queue_capacity, routing.rank()),
            routing,
            scheduler,
            provision,
        }
    }

    /// Harness telemetry.
    pub fn telemetry(&self) -> &StackTelemetry {
        &self.mac.core.telemetry
    }

    /// Installs the flight-recorder handle (shared with the engine).
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.mac.set_trace(trace, self.rank(), (self.parent(), None));
    }

    /// Records the installation or release of the sender-based receive
    /// cell this node keeps for `child`.
    fn trace_cell(&self, asn: Asn, child: NodeId, release: bool) {
        if self.mac.core.trace.is_on() {
            let offset = digs_scheduling::slotframe::node_offset(child).0;
            self.mac.core.record_cell(
                asn,
                child,
                (self.scheduler.sbs_tx_slot(child), offset),
                release,
            );
        }
    }

    /// Orchestra's sender-based mode: RPL gives no reliable child
    /// knowledge, so a node installs a receive cell for *every* neighbor it
    /// hears — the listening overhead that made receiver-based cells
    /// Orchestra's default (SenSys'15, Section 4.3).
    fn register_child(&mut self, child: NodeId, asn: Asn) {
        self.scheduler.add_child(child);
        if self.mac.child_heard(child, asn) {
            self.trace_cell(asn, child, false);
        }
    }

    /// Current preferred parent.
    pub fn parent(&self) -> Option<NodeId> {
        self.routing.preferred_parent()
    }

    /// Current rank.
    pub fn rank(&self) -> Rank {
        self.routing.rank()
    }

    /// Whether the node is synchronized and attached to the DODAG.
    pub fn is_joined(&self) -> bool {
        self.mac.synced_at().is_some() && self.routing.is_joined()
    }

    /// Read access to the RPL state machine.
    pub fn routing(&self) -> &RplRouting {
        &self.routing
    }

    /// Application queue length (congestion diagnostics).
    pub fn app_queue_len(&self) -> usize {
        self.mac.app_queue.len()
    }

    fn process_routing_events(&mut self, events: Vec<RoutingEvent>, asn: Asn) {
        for event in events {
            match event {
                RoutingEvent::BroadcastDio(dio) => self.mac.queue_broadcast(Payload::Dio(dio)),
                RoutingEvent::ParentsChanged { best, .. } => {
                    self.mac.parents_changed(asn, best, None);
                    self.scheduler.set_parent(best);
                }
                RoutingEvent::BroadcastJoinIn(_) => {
                    debug_assert!(false, "RPL never emits DiGS messages");
                }
            }
        }
        if self.mac.core.trace.is_on() {
            self.mac.trace_rank(asn, self.routing.rank());
        }
    }
}

impl NodeStack for OrchestraStack {
    type Payload = Payload;

    fn slot_intent(&mut self, asn: Asn) -> SlotIntent<Payload> {
        if let Some(scan) = self.mac.begin_slot(asn) {
            return scan;
        }

        let events = self.routing.tick(asn);
        self.process_routing_events(events, asn);

        for child in self.mac.sweep_children(asn) {
            self.scheduler.remove_child(child);
            self.trace_cell(asn, child, true);
        }

        // Orchestra's RBS: a data cell with nothing to send sleeps — the
        // node owns no rx duty there (its own rx cell is elsewhere).
        match self.scheduler.cell(asn) {
            Some(cell) => self.mac.cell_intent(cell),
            None => SlotIntent::Sleep,
        }
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
        match &frame.payload {
            Payload::Eb => self.mac.on_beacon(asn),
            Payload::Dio(dio) => {
                if self.mac.synced_at().is_some() {
                    let events = self.routing.on_dio(frame.src, dio, rss, asn);
                    self.process_routing_events(events, asn);
                    self.register_child(frame.src, asn);
                }
            }
            Payload::JoinIn(_) => {}
            Payload::Data(packet) => {
                if !self.mac.core.is_unicast_to_me(frame) {
                    return;
                }
                // Observed traffic keeps the child registration fresh.
                self.register_child(frame.src, asn);
                self.mac.accept(packet, asn);
            }
        }
    }

    fn reset(&mut self, asn: Asn) {
        // Cold reboot: RPL state, Orchestra cells, queues, children, and
        // sync are factory-fresh.
        let p = self.provision;
        let seed = digs_sim::rng::mix(p.seed, asn.0, 0x001e_b007, 1);
        (self.routing, self.scheduler) = p.boot(self.mac.core.id, self.mac.core.is_ap, seed, asn);
        self.mac.reboot(asn, self.routing.rank());
    }

    fn desync(&mut self, _asn: Asn) {
        self.mac.desync();
    }

    fn on_tx_outcome(&mut self, asn: Asn, outcome: TxOutcome) {
        if let Some((to, acked)) = self.mac.settle(outcome, u16::from(MAX_DATA_RETRIES), asn) {
            let events = self.routing.on_tx_result(to, acked, asn);
            self.process_routing_events(events, asn);
        }
    }
}
