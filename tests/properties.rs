//! Property-based integration tests: invariants that must hold for
//! arbitrary topologies, schedules, and protocol event orders.

use digs_cases::cases;
use digs_routing::messages::{JoinIn, ParentSlot, Rank};
use digs_routing::{DigsRouting, RoutingConfig, RoutingGraph};
use digs_scheduling::slotframe::frame_offset;
use digs_scheduling::slotframe::CellAction;
use digs_scheduling::{DigsScheduler, SlotframeLengths};
use digs_sim::ids::NodeId;
use digs_sim::rf::{initial_etx_from_rss, Dbm, RSS_MAX, RSS_MIN};
use digs_sim::time::Asn;
use digs_sim::topology::Topology;

fn join_in(rank: u16, etx_w: f64) -> JoinIn {
    JoinIn { rank: Rank(rank), etx_w, best_parent: None, second_parent: None }
}

/// Algorithm 1 never selects the node itself, never selects the same
/// node for both roles, and the second parent always has a strictly
/// lower rank than the node.
#[test]
fn parent_selection_invariants() {
    cases(256, |d| {
        let events = d.vec(1..60, |d| {
            (d.int(0u16..30), d.int(1u16..6), d.f64(0.0..8.0), d.f64(-95.0..-55.0))
        });
        let mut node = DigsRouting::new(NodeId(100), false, RoutingConfig::fast(), 1, Asn::ZERO);
        for (i, (from, rank, etx_w, rss)) in events.iter().enumerate() {
            node.on_join_in(NodeId(*from), &join_in(*rank, *etx_w), Dbm(*rss), Asn(i as u64));
            assert_ne!(node.best_parent(), Some(NodeId(100)));
            if let (Some(b), Some(s)) = (node.best_parent(), node.second_best_parent()) {
                assert_ne!(b, s, "best and second must differ");
            }
            if node.second_best_parent().is_some() {
                assert!(node.rank().is_finite());
            }
            if node.is_joined() {
                assert!(node.rank() > Rank::ROOT);
                assert!(node.etx_w().is_finite());
            }
        }
    });
}

/// Eq. 4 transmission slots never collide between distinct
/// (device, attempt) pairs as long as they fit in the slotframe.
#[test]
fn eq4_slots_are_unique() {
    cases(256, |d| {
        let num_aps = d.int(1u16..4);
        let devices = d.int(1u16..40);
        let lengths = SlotframeLengths::paper();
        let attempts = 3u8;
        if u32::from(devices) * u32::from(attempts) >= lengths.app {
            return;
        }
        let s = DigsScheduler::new(NodeId(0), num_aps, lengths, attempts);
        let mut seen = std::collections::HashSet::new();
        for device in 0..devices {
            for p in 1..=attempts {
                let slot = s.tx_slot(NodeId(num_aps + device), p);
                assert!(seen.insert(slot), "collision at slot {}", slot);
            }
        }
    });
}

/// The Eq. 4 inverse recovers the attempt from any (node, slot) pair.
#[test]
fn eq4_inverse_roundtrips() {
    cases(256, |d| {
        let device = d.int(0u16..48);
        let p = d.int(1u8..=3);
        let s = DigsScheduler::new(NodeId(2), 2, SlotframeLengths::paper(), 3);
        let node = NodeId(2 + device);
        let slot = s.tx_slot(node, p);
        assert_eq!(s.infer_attempt(node, slot), Some(p));
    });
}

/// A scheduler never asks an access point to transmit data upstream,
/// for any slot.
#[test]
fn access_points_never_send_data() {
    cases(256, |d| {
        let asn = d.int(0u64..100_000);
        let mut ap = DigsScheduler::new(NodeId(0), 2, SlotframeLengths::paper(), 3);
        ap.add_child(NodeId(5), ParentSlot::Best);
        if let Some(cell) = ap.cell(Asn(asn)) {
            let is_tx_data = matches!(cell.action, CellAction::TxData { .. });
            assert!(!is_tx_data);
        }
    });
}

/// Random parent assignments in which every parent has a strictly
/// lower rank always form a DAG.
#[test]
fn rank_ordered_graphs_are_acyclic() {
    cases(256, |d| {
        let parents = d.vec(1..40, |d| (d.int(0u16..20), d.int(0u16..20)));
        let mut graph = RoutingGraph::new([NodeId(0), NodeId(1)]);
        for (i, (b, s)) in parents.iter().enumerate() {
            let node = 2 + i as u16;
            // Force rank ordering: parent ids must be smaller than ours
            // (id order is a valid topological order here).
            let best = NodeId(b % node);
            let second = NodeId(s % node);
            graph.insert(
                NodeId(node),
                digs_routing::graph::GraphEntry {
                    best: Some(best),
                    second: (second != best).then_some(second),
                    rank: Rank(node),
                },
            );
        }
        assert!(graph.is_dag());
    });
}

/// Topology generators place the requested number of nodes and always
/// include the access points first.
#[test]
fn random_topology_wellformed() {
    cases(256, |d| {
        let n = d.int(1usize..60);
        let side = d.f64(50.0..500.0);
        let seed = d.int(0u64..50);
        let topo = Topology::random_area(n, side, seed);
        assert_eq!(topo.len(), n + 2);
        assert_eq!(topo.num_access_points(), 2);
        assert!(topo.is_access_point(NodeId(0)));
        assert!(topo.is_access_point(NodeId(1)));
        for id in topo.node_ids() {
            let p = topo.position(id);
            assert!(p.x >= 0.0 && p.x <= side);
            assert!(p.y >= 0.0 && p.y <= side);
        }
    });
}

/// The combined schedule is deterministic: equal state gives equal
/// cells at every slot (the autonomy property of Section VI).
#[test]
fn schedules_need_no_negotiation() {
    cases(256, |d| {
        let id = d.int(2u16..50);
        let asn = d.int(0u64..1_000_000);
        let mk = || {
            let mut s = DigsScheduler::new(NodeId(id), 2, SlotframeLengths::paper(), 3);
            s.set_parents(Some(NodeId(0)), Some(NodeId(1)));
            s.add_child(NodeId(id + 1), ParentSlot::Best);
            s
        };
        assert_eq!(mk().cell(Asn(asn)), mk().cell(Asn(asn)));
    });
}

/// Section V's RSS→initial-ETX mapping stays inside [1, 3] for any
/// RSS and never rewards a weaker signal with a lower ETX.
#[test]
fn rss_etx_clamped_and_monotone() {
    cases(256, |d| {
        let a = d.f64(-120.0..-30.0);
        let b = d.f64(-120.0..-30.0);
        let (ea, eb) = (initial_etx_from_rss(Dbm(a)), initial_etx_from_rss(Dbm(b)));
        assert!((1.0..=3.0).contains(&ea), "ETX {} outside [1, 3]", ea);
        if a <= b {
            assert!(ea >= eb, "weaker RSS {} got lower ETX than {}", a, b);
        }
        // The knees sit exactly at the paper's −60/−90 dBm thresholds.
        if a >= RSS_MAX.0 {
            assert_eq!(ea, 1.0);
        }
        if a <= RSS_MIN.0 {
            assert_eq!(ea, 3.0);
        }
    });
}

/// Eq. 4 cell ownership: no two children of the same parent ever own
/// the same application cell, so every receive slot resolves to
/// exactly one (child, attempt) pair.
#[test]
fn eq4_children_own_disjoint_cells() {
    cases(256, |d| {
        let children = d.vec(1..12, |d| d.int(2u16..48));
        let asn = d.int(0u64..100_000);
        let lengths = SlotframeLengths::paper();
        let mut parent = DigsScheduler::new(NodeId(0), 2, lengths, 3);
        let distinct: std::collections::HashSet<u16> = children.iter().copied().collect();
        for c in &distinct {
            parent.add_child(NodeId(*c), ParentSlot::Best);
        }
        // Every application offset is claimed by at most one child.
        let off = frame_offset(Asn(asn), lengths.app);
        let owners: Vec<(u16, u8)> = distinct
            .iter()
            .flat_map(|c| (1..=3u8).map(move |p| (*c, p)))
            .filter(|(c, p)| parent.tx_slot(NodeId(*c), *p) == off)
            .collect();
        assert!(owners.len() <= 1, "cell {} owned by {:?}", off, owners);
        // And the resolved cell agrees: an RxData cell exists iff some
        // unique (child, attempt) pair claims the slot.
        if let Some(cell) = parent.cell(Asn(asn)) {
            if matches!(cell.action, CellAction::RxData) {
                assert_eq!(owners.len(), 1);
                let (c, p) = owners[0];
                assert_eq!(cell.offset, DigsScheduler::attempt_offset(NodeId(c), p));
            }
        }
    });
}

/// Slotframe wraparound: offsets stay in range, advance one slot per
/// ASN, repeat with the slotframe period, and the combined schedule
/// repeats with the hyper-period (product of coprime lengths).
#[test]
fn slotframe_wraparound() {
    cases(256, |d| {
        let asn = d.int(0u64..10_000_000);
        let len = d.int(1u32..600);
        let off = frame_offset(Asn(asn), len);
        assert!(off < len, "offset {} out of slotframe of {}", off, len);
        assert_eq!(frame_offset(Asn(asn + u64::from(len)), len), off);
        assert_eq!(frame_offset(Asn(asn + 1), len), (off + 1) % len);

        let lengths = SlotframeLengths::paper();
        let mut s = DigsScheduler::new(NodeId(7), 2, lengths, 3);
        s.set_parents(Some(NodeId(0)), Some(NodeId(1)));
        s.add_child(NodeId(9), ParentSlot::Best);
        assert_eq!(s.cell(Asn(asn)), s.cell(Asn(asn + lengths.hyper_period())));
    });
}
