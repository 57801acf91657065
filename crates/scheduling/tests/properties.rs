//! Property-based tests for the scheduling crate.

use digs_cases::cases;
use digs_routing::messages::ParentSlot;
use digs_scheduling::analysis::{contention_probability, skip_probability, SlotframeOccupancy};
use digs_scheduling::slotframe::{combine, Cell, CellAction, TrafficClass};
use digs_scheduling::{DigsScheduler, OrchestraScheduler, SlotframeLengths};
use digs_sim::channel::ChannelOffset;
use digs_sim::ids::NodeId;
use digs_sim::time::Asn;

fn any_cell(class: TrafficClass) -> Cell {
    Cell { class, action: CellAction::TxBeacon, offset: ChannelOffset::new(0), contention: false }
}

/// Schedule combination always returns the highest-priority non-idle
/// class, and `None` only when every class is idle.
#[test]
fn combination_priority_total() {
    cases(256, |d| {
        let s = d.bool();
        let r = d.bool();
        let a = d.bool();
        let sync = s.then(|| any_cell(TrafficClass::Sync));
        let routing = r.then(|| any_cell(TrafficClass::Routing));
        let app = a.then(|| any_cell(TrafficClass::App));
        let combined = combine(sync, routing, app);
        match combined {
            None => assert!(!s && !r && !a),
            Some(cell) => {
                let expected = if s {
                    TrafficClass::Sync
                } else if r {
                    TrafficClass::Routing
                } else {
                    TrafficClass::App
                };
                assert_eq!(cell.class, expected);
            }
        }
    });
}

/// Over one full application slotframe, a joined DiGS node is offered
/// exactly `A` transmission cells (minus any masked by higher-priority
/// slotframes), and they target only its two parents.
#[test]
fn digs_tx_cells_per_frame() {
    cases(256, |d| {
        let id = d.int(2u16..50);
        let frame = d.int(0u64..20);
        let lengths = SlotframeLengths::paper();
        let mut s = DigsScheduler::new(NodeId(id), 2, lengths, 3);
        s.set_parents(Some(NodeId(0)), Some(NodeId(1)));
        let start = frame * u64::from(lengths.app);
        let mut tx = 0;
        for asn in start..start + u64::from(lengths.app) {
            if let Some(cell) = s.cell(Asn(asn)) {
                if let CellAction::TxData { to, .. } = cell.action {
                    tx += 1;
                    assert!(to == NodeId(0) || to == NodeId(1));
                }
            }
        }
        assert!(tx <= 3);
        assert!(tx >= 1, "higher-priority frames can mask at most 2 of 3 cells");
    });
}

/// Attempt channel offsets are valid and distinct across a packet's
/// attempts (the jam-resilience property).
#[test]
fn attempt_offsets_distinct() {
    cases(256, |d| {
        let id = d.int(0u16..1000);
        let offs: Vec<u8> =
            (1..=3u8).map(|p| DigsScheduler::attempt_offset(NodeId(id), p).0).collect();
        assert!(offs.iter().all(|o| *o < 16));
        assert_ne!(offs[0], offs[1]);
        assert_ne!(offs[1], offs[2]);
        assert_ne!(offs[0], offs[2]);
    });
}

/// An Orchestra node's schedule contains at most one data transmission
/// cell per application slotframe.
#[test]
fn orchestra_single_attempt_per_frame() {
    cases(256, |d| {
        let id = d.int(2u16..50);
        let parent = d.int(0u16..2);
        let frame = d.int(0u64..20);
        let lengths = SlotframeLengths::paper();
        let mut s = OrchestraScheduler::new(NodeId(id), lengths);
        s.set_parent(Some(NodeId(parent)));
        let start = frame * u64::from(lengths.app);
        let tx = (start..start + u64::from(lengths.app))
            .filter(|asn| {
                matches!(s.cell(Asn(*asn)).map(|c| c.action), Some(CellAction::TxData { .. }))
            })
            .count();
        assert!(tx <= 1);
    });
}

/// Eq. 5's contention probability is a valid probability, increasing
/// in the offered load.
#[test]
fn eq5_is_probability() {
    cases(256, |d| {
        let t1 = d.f64(0.0..5.0);
        let t2 = d.f64(0.0..5.0);
        let n = d.int(1u32..300);
        let l = d.int(1u32..600);
        let p1 = contention_probability(t1.min(t2), n, l);
        let p2 = contention_probability(t1.max(t2), n, l);
        assert!((0.0..=1.0).contains(&p1));
        assert!((0.0..=1.0).contains(&p2));
        assert!(p1 <= p2 + 1e-12);
    });
}

/// Eq. 6's skip probability grows monotonically as higher-priority
/// slotframes are added, and stays a probability.
#[test]
fn eq6_monotone_in_interferers() {
    cases(256, |d| {
        let frames = d.vec(0..6, |d| (d.int(1u32..600), d.int(0u32..20)));
        let occ: Vec<SlotframeOccupancy> = frames
            .iter()
            .map(|(len, occ)| SlotframeOccupancy { length: *len, occupied: (*occ).min(*len) })
            .collect();
        let mut prev = 0.0;
        for k in 0..=occ.len() {
            let p = skip_probability(&occ[..k]);
            assert!((0.0..=1.0).contains(&p));
            assert!(p >= prev - 1e-12);
            prev = p;
        }
    });
}

/// Per-epoch schedule randomization preserves the Eq. 4 invariant:
/// for any nonce and epoch, distinct `(node, attempt)` pairs still
/// occupy distinct physical application slots (the permutation is a
/// bijection, so it cannot introduce collisions).
#[test]
fn randomization_keeps_slots_collision_free() {
    cases(256, |d| {
        let nonce = d.u64();
        let epoch = d.int(0u64..1000);
        let lengths = SlotframeLengths::paper();
        let mut s = DigsScheduler::new(NodeId(2), 2, lengths, 3);
        s.set_randomize(Some(nonce));
        let asn = Asn(epoch * u64::from(lengths.app));
        let mut seen = std::collections::BTreeSet::new();
        for id in 2u16..52 {
            for p in 1..=3u8 {
                let slot = s.scheduled_slot(NodeId(id), p, asn);
                assert!(slot < lengths.app);
                assert!(seen.insert(slot), "physical-slot collision at node {} attempt {}", id, p);
            }
        }
    });
}

/// A transmitting child and a listening parent — independent scheduler
/// instances sharing only the network-wide nonce — agree on the
/// physical slot and shifted channel offset of every attempt, and the
/// parent's epoch-aware inversion recovers the attempt number.
#[test]
fn randomization_keeps_child_and_parent_aligned() {
    cases(256, |d| {
        let nonce = d.u64();
        let epoch = d.int(0u64..1000);
        let child = d.int(2u16..50);
        let p = d.int(1u8..=3);
        let lengths = SlotframeLengths::paper();
        let mut tx = DigsScheduler::new(NodeId(child), 2, lengths, 3);
        let mut rx = DigsScheduler::new(NodeId(0), 2, lengths, 3);
        tx.set_randomize(Some(nonce));
        rx.set_randomize(Some(nonce));
        let frame_start = epoch * u64::from(lengths.app);
        let slot = tx.scheduled_slot(NodeId(child), p, Asn(frame_start));
        let asn = Asn(frame_start + u64::from(slot));
        assert_eq!(rx.scheduled_slot(NodeId(child), p, asn), slot);
        let off = tx.scheduled_offset(NodeId(child), p, asn);
        assert!(off.0 < 16);
        assert_eq!(rx.scheduled_offset(NodeId(child), p, asn), off);
        assert_eq!(rx.infer_attempt_at(NodeId(child), asn), Some(p));
    });
}

/// With randomization off, the physical schedule is exactly Eq. 4 with
/// the static per-attempt channel offsets, at every epoch.
#[test]
fn randomization_off_is_identity_everywhere() {
    cases(256, |d| {
        let epoch = d.int(0u64..1000);
        let node = d.int(2u16..50);
        let p = d.int(1u8..=3);
        let lengths = SlotframeLengths::paper();
        let s = DigsScheduler::new(NodeId(2), 2, lengths, 3);
        let asn = Asn(epoch * u64::from(lengths.app));
        assert_eq!(s.scheduled_slot(NodeId(node), p, asn), s.tx_slot(NodeId(node), p));
        assert_eq!(
            s.scheduled_offset(NodeId(node), p, asn),
            DigsScheduler::attempt_offset(NodeId(node), p)
        );
    });
}

/// Consecutive epochs actually reshuffle: the mapping a sniffer could
/// learn in one epoch is stale in the next. (The chance two
/// independent 151-slot permutations agree on all 150 tracked cells is
/// negligible.)
#[test]
fn randomization_reshuffles_across_epochs() {
    cases(256, |d| {
        let nonce = d.u64();
        let epoch = d.int(0u64..1000);
        let lengths = SlotframeLengths::paper();
        let mut s = DigsScheduler::new(NodeId(2), 2, lengths, 3);
        s.set_randomize(Some(nonce));
        let a = Asn(epoch * u64::from(lengths.app));
        let b = Asn((epoch + 1) * u64::from(lengths.app));
        let moved = (2u16..52)
            .flat_map(|id| (1..=3u8).map(move |p| (id, p)))
            .filter(|(id, p)| {
                s.scheduled_slot(NodeId(*id), *p, a) != s.scheduled_slot(NodeId(*id), *p, b)
            })
            .count();
        assert!(moved > 0, "two consecutive epochs produced identical schedules");
    });
}

/// The scheduler's receive cells always sit exactly on registered
/// children's attempt slots.
#[test]
fn rx_cells_match_child_slots() {
    cases(256, |d| {
        let child = d.int(2u16..50);
        let asn = d.int(0u64..100_000);
        let lengths = SlotframeLengths::paper();
        let mut parent = DigsScheduler::new(NodeId(0), 2, lengths, 3);
        parent.add_child(NodeId(child), ParentSlot::Best);
        if let Some(cell) = parent.cell(Asn(asn)) {
            if cell.action == CellAction::RxData {
                let off = Asn(asn).slotframe_offset(lengths.app);
                let matches_child = (1..=3u8).any(|p| parent.tx_slot(NodeId(child), p) == off);
                assert!(matches_child, "rx cell at offset {} matches no attempt", off);
            }
        }
    });
}
