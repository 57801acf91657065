//! Direct unit tests for the protocol stacks, driving them through the
//! [`NodeStack`] interface without an engine.

use super::*;
use crate::flows::FlowSpec;
use crate::payload::DataPacket;
use digs_routing::messages::{Dio, JoinIn, Rank};
use digs_routing::RoutingConfig;
use digs_scheduling::SlotframeLengths;
use digs_sim::ids::FlowId;
use digs_sim::packet::{Dest, FrameKind};

const STRONG: Dbm = Dbm(-55.0);

fn digs_provision(queue_capacity: usize) -> DigsProvision {
    DigsProvision {
        num_aps: 2,
        slotframes: SlotframeLengths::paper(),
        attempts: 3,
        routing_config: RoutingConfig::fast(),
        queue_capacity,
        max_cycles: 3,
        seed: 7,
        randomize: None,
        perms: Default::default(),
    }
}

fn digs_stack(id: u16, is_ap: bool) -> DigsStack {
    DigsStack::new(NodeId(id), is_ap, Vec::new(), digs_provision(8))
}

fn flow_from(id: u16, period: u64) -> Vec<FlowSpec> {
    vec![FlowSpec { id: FlowId(0), source: NodeId(id), period, phase: 0 }]
}

fn digs_source(id: u16, flow_period: u64) -> DigsStack {
    DigsStack::new(NodeId(id), false, flow_from(id, flow_period), digs_provision(8))
}

fn orchestra_provision(queue_capacity: usize) -> OrchestraProvision {
    OrchestraProvision {
        slotframes: SlotframeLengths::paper(),
        routing_config: RoutingConfig::fast(),
        queue_capacity,
        seed: 7,
    }
}

fn eb_frame(from: u16) -> Frame<Payload> {
    Frame::new(NodeId(from), Dest::Broadcast, FrameKind::Beacon, 50, Payload::Eb)
}

fn join_in_frame(from: u16, rank: u16, etx_w: f64) -> Frame<Payload> {
    Frame::new(
        NodeId(from),
        Dest::Broadcast,
        FrameKind::Routing,
        64,
        Payload::JoinIn(JoinIn { rank: Rank(rank), etx_w, best_parent: None, second_parent: None }),
    )
}

/// Feeds EBs until the stack associates (the 25 % gate is deterministic
/// under the node's seed).
fn sync(stack: &mut DigsStack, mut asn: u64) -> u64 {
    for _ in 0..400 {
        stack.on_frame(Asn(asn), &eb_frame(0), STRONG);
        if stack.telemetry().synced_at.is_some() {
            return asn;
        }
        asn += 1;
    }
    panic!("stack never associated");
}

#[test]
fn unsynced_stack_only_listens() {
    let mut s = digs_stack(5, false);
    for asn in 0..200u64 {
        match s.slot_intent(Asn(asn)) {
            SlotIntent::Listen { .. } => {}
            other => panic!("unsynced node must scan, got {other:?}"),
        }
    }
}

#[test]
fn eb_association_is_gated_but_eventually_succeeds() {
    let mut s = digs_stack(5, false);
    s.on_frame(Asn(0), &eb_frame(0), STRONG);
    // One beacon rarely suffices (25 % gate); many always do.
    let synced_at = sync(&mut s, 1);
    assert!(synced_at < 400);
}

#[test]
fn ap_stack_is_synced_and_joined_from_birth() {
    let s = digs_stack(0, true);
    assert!(s.is_joined());
    assert_eq!(s.telemetry().synced_at, Some(Asn::ZERO));
    assert_eq!(s.telemetry().joined_at, Some(Asn::ZERO));
}

#[test]
fn join_in_after_sync_selects_parents() {
    let mut s = digs_stack(5, false);
    let asn = sync(&mut s, 0);
    s.on_frame(Asn(asn + 1), &join_in_frame(0, 1, 0.0), STRONG);
    assert!(s.is_joined());
    assert_eq!(s.parents().0, Some(NodeId(0)));
    assert!(s.telemetry().joined_at.is_some());
}

#[test]
fn join_in_before_sync_is_ignored() {
    let mut s = digs_stack(5, false);
    s.on_frame(Asn(0), &join_in_frame(0, 1, 0.0), STRONG);
    assert!(!s.is_joined(), "routing must wait for time sync");
}

#[test]
fn source_generates_on_schedule() {
    let mut s = digs_source(5, 100);
    for asn in 0..1000u64 {
        let _ = s.slot_intent(Asn(asn));
    }
    assert_eq!(s.telemetry().generated.get(&FlowId(0)), Some(&10));
}

#[test]
fn joined_source_eventually_transmits_data() {
    let mut s = digs_source(5, 100);
    let asn = sync(&mut s, 0);
    s.on_frame(Asn(asn + 1), &join_in_frame(0, 1, 0.0), STRONG);
    let mut data_tx = 0;
    for t in (asn + 2)..(asn + 2 + 2000) {
        // Keep the parent alive in the neighbor table (the fast test
        // profile evicts after ~1 s of silence; on air, Trickle-paced
        // join-ins provide this refresh).
        if t % 50 == 0 {
            s.on_frame(Asn(t), &join_in_frame(0, 1, 0.0), STRONG);
        }
        if let SlotIntent::Transmit { frame, .. } = s.slot_intent(Asn(t)) {
            if matches!(frame.payload, Payload::Data(_)) {
                assert_eq!(frame.dst, Dest::Unicast(NodeId(0)));
                data_tx += 1;
                // Engine contract: every transmit gets an outcome.
                s.on_tx_outcome(Asn(t), TxOutcome::Acked);
            } else {
                s.on_tx_outcome(
                    Asn(t),
                    match frame.dst {
                        Dest::Broadcast => TxOutcome::SentBroadcast,
                        Dest::Unicast(_) => TxOutcome::Acked,
                    },
                );
            }
        }
    }
    assert!(data_tx > 0, "a joined source must ship its packets");
}

#[test]
fn ap_records_deliveries() {
    let mut ap = digs_stack(0, true);
    let packet = crate::payload::DataPacket {
        flow: FlowId(3),
        seq: 9,
        origin: NodeId(5),
        generated_at: Asn(10),
    };
    let frame =
        Frame::new(NodeId(5), Dest::Unicast(NodeId(0)), FrameKind::Data, 90, Payload::Data(packet));
    ap.on_frame(Asn(100), &frame, STRONG);
    assert_eq!(ap.telemetry().deliveries.len(), 1);
    assert_eq!(ap.telemetry().deliveries[0].packet.seq, 9);
    assert_eq!(ap.telemetry().deliveries[0].delivered_at, Asn(100));
}

#[test]
fn relay_forwards_instead_of_delivering() {
    let mut relay = digs_stack(5, false);
    let packet = crate::payload::DataPacket {
        flow: FlowId(3),
        seq: 9,
        origin: NodeId(9),
        generated_at: Asn(10),
    };
    let frame =
        Frame::new(NodeId(9), Dest::Unicast(NodeId(5)), FrameKind::Data, 90, Payload::Data(packet));
    relay.on_frame(Asn(100), &frame, STRONG);
    assert!(relay.telemetry().deliveries.is_empty());
    assert_eq!(relay.app_queue_len(), 1);
}

#[test]
fn data_not_addressed_to_us_is_dropped() {
    let mut s = digs_stack(5, false);
    let packet = crate::payload::DataPacket {
        flow: FlowId(3),
        seq: 9,
        origin: NodeId(9),
        generated_at: Asn(10),
    };
    let frame =
        Frame::new(NodeId(9), Dest::Unicast(NodeId(7)), FrameKind::Data, 90, Payload::Data(packet));
    s.on_frame(Asn(100), &frame, STRONG);
    assert_eq!(s.app_queue_len(), 0);
}

#[test]
fn parent_change_broadcasts_fresh_join_in_quickly() {
    let mut s = digs_stack(5, false);
    let asn = sync(&mut s, 0);
    s.on_frame(Asn(asn + 1), &join_in_frame(0, 1, 0.0), STRONG);
    // A near shared routing slot must carry our announcement.
    let mut announced = false;
    for t in (asn + 2)..(asn + 2 + 200) {
        if t % 50 == 0 {
            s.on_frame(Asn(t), &join_in_frame(0, 1, 0.0), STRONG);
        }
        if let SlotIntent::Transmit { frame, .. } = s.slot_intent(Asn(t)) {
            if let Payload::JoinIn(ji) = &frame.payload {
                assert_eq!(ji.best_parent, Some(NodeId(0)), "piggybacked parent id");
                announced = true;
                break;
            }
            s.on_tx_outcome(Asn(t), clean(&frame));
        }
    }
    assert!(announced, "parent selection must be announced promptly");
}

#[test]
fn orchestra_stack_mirrors_digs_lifecycle() {
    let mut s = OrchestraStack::new(NodeId(5), false, Vec::new(), orchestra_provision(8));
    assert!(!s.is_joined());
    // Associate.
    let mut asn = 0;
    for _ in 0..400 {
        s.on_frame(Asn(asn), &eb_frame(0), STRONG);
        if s.telemetry().synced_at.is_some() {
            break;
        }
        asn += 1;
    }
    assert!(s.telemetry().synced_at.is_some());
    // A root DIO attaches us.
    let dio = Frame::new(
        NodeId(0),
        Dest::Broadcast,
        FrameKind::Routing,
        64,
        Payload::Dio(Dio { rank: Rank::ROOT, path_etx: 0.0, parent: None }),
    );
    s.on_frame(Asn(asn + 1), &dio, STRONG);
    assert!(s.is_joined());
    assert_eq!(s.parent(), Some(NodeId(0)));
}

// --- The shared packet life cycle, driven through each of the three stacks ---

/// When the life-cycle sources generate their one packet (sequence 0):
/// late enough that every stack has associated and joined by then.
const GEN_AT: u64 = 2000;

fn dio_frame(from: u16, rank: u16) -> Frame<Payload> {
    let dio = Dio { rank: Rank(rank), path_etx: 0.0, parent: None };
    Frame::new(NodeId(from), Dest::Broadcast, FrameKind::Routing, 64, Payload::Dio(dio))
}

/// A packet of flow 0 from node 9 relayed through node 5.
fn relayed(seq: u32) -> Frame<Payload> {
    let packet = DataPacket { flow: FlowId(0), seq, origin: NodeId(9), generated_at: Asn(0) };
    Frame::new(NodeId(9), Dest::Unicast(NodeId(5)), FrameKind::Data, 90, Payload::Data(packet))
}

/// Node 5 under each protocol with `queue_capacity`-deep queues, sourcing
/// one packet of flow 0 at [`GEN_AT`], next to the attempts the protocol
/// grants a data packet at one hop. The routing layers run the standard
/// (slow) profile, so nothing ages out inside a test.
fn three_sources(queue_capacity: usize) -> [(ProtocolStack, usize); 3] {
    let me = NodeId(5);
    let flows = || vec![FlowSpec { id: FlowId(0), source: me, period: 1 << 40, phase: GEN_AT }];
    let routing_config = RoutingConfig::default();
    let digs = DigsProvision { routing_config, ..digs_provision(queue_capacity) };
    let orchestra = OrchestraProvision { routing_config, ..orchestra_provision(queue_capacity) };
    let mut graph = digs_routing::graph::RoutingGraph::new([NodeId(0), NodeId(1)]);
    let entry = digs_routing::graph::GraphEntry {
        best: Some(NodeId(0)),
        second: Some(NodeId(1)),
        rank: Rank(2),
    };
    graph.insert(me, entry);
    let schedule = digs_whart::CentralSchedule::build(&graph, &[me], 100).expect("one flow fits");
    let whart = WhartStack::new(me, false, &schedule, flows(), queue_capacity);
    [
        (ProtocolStack::Digs(DigsStack::new(me, false, flows(), digs)), 3 * 3),
        (ProtocolStack::Orchestra(OrchestraStack::new(me, false, flows(), orchestra)), 8),
        (ProtocolStack::WirelessHart(whart), 6),
    ]
}

/// What a clean channel answers to `frame`.
fn clean(frame: &Frame<Payload>) -> TxOutcome {
    match frame.dst {
        Dest::Broadcast => TxOutcome::SentBroadcast,
        Dest::Unicast(_) => TxOutcome::Acked,
    }
}

/// Steps `stack` through `slots` under node 0: it hears an EB every slot
/// (harmless once associated) and, every 50, a join-in and a DIO
/// advertising `parent_rank`; `outcome_of` answers each transmission it
/// makes.
fn drive(
    stack: &mut ProtocolStack,
    slots: std::ops::Range<u64>,
    parent_rank: u16,
    mut outcome_of: impl FnMut(&Frame<Payload>) -> TxOutcome,
) {
    for t in slots {
        let asn = Asn(t);
        let intent = stack.slot_intent(asn);
        stack.on_frame(asn, &eb_frame(0), STRONG);
        if t % 50 == 0 {
            stack.on_frame(asn, &join_in_frame(0, parent_rank, 0.0), STRONG);
            stack.on_frame(asn, &dio_frame(0, parent_rank), STRONG);
        }
        if let SlotIntent::Transmit { frame, .. } = intent {
            stack.on_tx_outcome(asn, outcome_of(&frame));
        }
    }
}

/// Brings `stack` to [`GEN_AT`] joined under access point 0 and idle.
fn join(stack: &mut ProtocolStack) {
    drive(stack, 0..GEN_AT, 1, |frame| {
        assert!(!matches!(frame.payload, Payload::Data(_)), "no data before GEN_AT");
        clean(frame)
    });
    assert!(stack.is_joined());
}

#[test]
fn unacknowledged_head_keeps_its_place_until_its_budget_is_spent() {
    // CCA deferrals ahead of the losses must not count against the budget.
    for deferrals in [0, 5] {
        for (mut stack, budget) in three_sources(8) {
            join(&mut stack);
            // Relayed packet 77 arrives first; the packet generated at
            // GEN_AT (sequence 0) queues behind it.
            stack.on_frame(Asn(GEN_AT - 1), &relayed(77), STRONG);
            let mut sent = Vec::new();
            drive(&mut stack, GEN_AT..GEN_AT + 20_000, 1, |frame| match &frame.payload {
                Payload::Data(packet) => {
                    sent.push(packet.seq);
                    match packet.seq {
                        77 if sent.len() <= deferrals => TxOutcome::DeferredCca,
                        77 => TxOutcome::NoAck,
                        _ => TxOutcome::Acked,
                    }
                }
                _ => clean(frame),
            });
            let mut want = vec![77; deferrals + budget];
            want.push(0);
            assert_eq!(sent, want, "budget {budget}, {deferrals} deferrals");
            assert_eq!(stack.telemetry().retry_drops, 1);
            assert_eq!(stack.telemetry().forwarded, 1);
            assert_eq!(stack.app_queue_len(), 0);
        }
    }
}

#[test]
fn full_queue_counts_the_overflow_and_keeps_what_it_holds() {
    for (mut stack, _) in three_sources(2) {
        join(&mut stack);
        for seq in [77, 78] {
            stack.on_frame(Asn(GEN_AT - 1), &relayed(seq), STRONG);
        }
        assert_eq!(stack.telemetry().queue_drops, 0);
        // The packet generated at GEN_AT finds the queue full.
        let mut sent = Vec::new();
        drive(&mut stack, GEN_AT..GEN_AT + 5_000, 1, |frame| {
            if let Payload::Data(packet) = &frame.payload {
                sent.push(packet.seq);
            }
            clean(frame)
        });
        assert_eq!(stack.telemetry().generated.get(&FlowId(0)), Some(&1));
        assert_eq!(stack.telemetry().queue_drops, 1);
        assert_eq!(sent, [77, 78], "the queued packets leave intact and in order");
        assert_eq!(stack.telemetry().forwarded, 2);
    }
}

#[test]
fn every_frame_offered_in_a_shared_cell_is_a_broadcast() {
    // Only data travels as a unicast: the parents a node picks learn of it
    // from its routing broadcasts, also when a parent is lost. A second
    // root shows up (DiGS gains a backup parent), then no data frame is
    // acknowledged, so parents fail.
    let [(digs, _), (orchestra, _), _] = three_sources(8);
    for mut stack in [digs, orchestra] {
        let mut shared = 0;
        let mut lossy = |frame: &Frame<Payload>| match frame.kind {
            FrameKind::Data => TxOutcome::NoAck,
            kind => {
                assert_eq!(frame.dst, Dest::Broadcast, "{:?}", frame.payload);
                shared += u32::from(kind == FrameKind::Routing);
                TxOutcome::SentBroadcast
            }
        };
        drive(&mut stack, 0..GEN_AT, 1, &mut lossy);
        stack.on_frame(Asn(GEN_AT), &join_in_frame(1, 1, 0.0), STRONG);
        stack.on_frame(Asn(GEN_AT), &dio_frame(1, 1), STRONG);
        drive(&mut stack, GEN_AT..GEN_AT + 3_000, 1, &mut lossy);
        let changes = stack.telemetry().parent_changes.len();
        assert!(shared >= 8 && changes >= 2, "{shared} routing frames, {changes} parent changes");
    }
}

#[test]
fn fresh_routing_broadcast_replaces_the_queued_one() {
    let [(digs, _), (orchestra, _), _] = three_sources(8);
    for mut stack in [digs, orchestra] {
        join(&mut stack);
        // A channel that defers every routing broadcast leaves the queue's
        // head in place, so what is on offer only changes by replacement.
        let mut offered = Vec::new();
        let mut defer = |frame: &Frame<Payload>| match frame.payload {
            Payload::JoinIn(_) | Payload::Dio(_) => {
                offered.push(frame.payload);
                TxOutcome::DeferredCca
            }
            _ => clean(frame),
        };
        // Node 1 shows up as a second root (DiGS gains a backup parent)
        // while node 0's advertised rank worsens, then recovers.
        stack.on_frame(Asn(GEN_AT), &join_in_frame(1, 1, 0.0), STRONG);
        drive(&mut stack, GEN_AT..GEN_AT + 500, 3, &mut defer);
        drive(&mut stack, GEN_AT + 500..GEN_AT + 1000, 1, &mut defer);
        offered.dedup();
        assert!(offered.len() >= 2, "the offer must follow the routing state: {offered:?}");
    }
}

/// What the wake contract says about a stack's answers, checked against a
/// stack that is asked in every slot: `next_wake` never names a slot later
/// than one in which `slot_intent` answers `Transmit`, and in a slot it
/// does not name the answer is `Listen` on the offset the standing
/// description gives, or `Sleep` where it gives none.
#[test]
fn next_wake_names_every_transmit_and_standing_listens_say_the_rest() {
    let routing_config = RoutingConfig::default();
    let me = NodeId(5);
    let flows = || vec![FlowSpec { id: FlowId(0), source: me, period: 900, phase: 40 }];
    let digs = DigsProvision { routing_config, ..digs_provision(8) };
    let orchestra = OrchestraProvision { routing_config, ..orchestra_provision(8) };
    digs_cases::cases(6, |d| {
        let randomize = d.bool().then(|| d.u64());
        for mut stack in [
            ProtocolStack::Digs(DigsStack::new(
                me,
                false,
                flows(),
                DigsProvision { randomize, ..digs.clone() },
            )),
            ProtocolStack::Orchestra(OrchestraStack::new(me, false, flows(), orchestra)),
        ] {
            let (mut data_sent, mut unasked_listens, mut unasked_sleeps) = (0, 0, 0);
            let mut relayed_seq = 0;
            for asn in (0..40_000).map(Asn) {
                // Now and then the clock slips or the node reboots, and has
                // to scan its way back in.
                match d.int(0..15_000) {
                    0 => stack.desync(asn),
                    1 => stack.reset(asn),
                    _ => {}
                }
                let wake = stack.next_wake(asn);
                let standing = stack.standing_listens().offset_at(asn);
                assert!(wake >= asn);
                let intent = stack.slot_intent(asn);
                match &intent {
                    SlotIntent::Transmit { frame, .. } => {
                        assert_eq!(wake, asn, "a {:?} frame in a slot not named", frame.kind);
                        data_sent += u32::from(frame.kind == FrameKind::Data);
                    }
                    SlotIntent::Listen { offset } if wake > asn => {
                        assert_eq!(standing, Some(*offset), "at {asn}, next wake {wake}");
                        unasked_listens += 1;
                    }
                    SlotIntent::Sleep if wake > asn => {
                        assert_eq!(standing, None, "at {asn}, next wake {wake}");
                        unasked_sleeps += 1;
                    }
                    _ => {}
                }
                // Node 0 is in range as in `drive`; node 9 relays through us
                // now and then, which makes it our child.
                if d.int(0..4) == 0 {
                    stack.on_frame(asn, &eb_frame(0), STRONG);
                }
                if asn.0 % 50 == 0 {
                    stack.on_frame(asn, &join_in_frame(0, 1, 0.0), STRONG);
                    stack.on_frame(asn, &dio_frame(0, 1), STRONG);
                }
                if asn.0 % 1_000 == 7 {
                    let mut child = join_in_frame(9, 3, 2.0);
                    if let Payload::JoinIn(join_in) = &mut child.payload {
                        join_in.best_parent = Some(me);
                    }
                    stack.on_frame(asn, &child, STRONG);
                    stack.on_frame(asn, &dio_frame(9, 3), STRONG);
                }
                if d.int(0..700) == 0 {
                    relayed_seq += 1;
                    stack.on_frame(asn, &relayed(relayed_seq), STRONG);
                }
                if let SlotIntent::Transmit { frame, .. } = intent {
                    let outcome = match d.int(0..4) {
                        0 if frame.dst != Dest::Broadcast => TxOutcome::NoAck,
                        _ => clean(&frame),
                    };
                    stack.on_tx_outcome(asn, outcome);
                }
            }
            let what = (data_sent, unasked_listens, unasked_sleeps);
            // A randomized DiGS schedule's receive cells stand for an epoch,
            // as a static one's do for the run.
            assert!(what.0 > 100 && what.1 > 500 && what.2 > 30_000, "{what:?}");
        }
    });
}
