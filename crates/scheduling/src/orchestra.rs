//! The Orchestra baseline scheduler (Duquennoy et al., SenSys 2015),
//! configured as in the paper's comparison.
//!
//! Orchestra schedules autonomously over RPL with a **single preferred
//! parent**. Its unicast cells are **sender-based**: every node owns one
//! transmission cell per application slotframe at `id mod L_app`, directed
//! to its preferred parent; the parent derives matching receive cells from
//! its child set (learned from RPL's DAO signalling). Only sender-based
//! cells give the sink the capacity the paper's configuration needs — a
//! receiver-based cell at the paper's 151-slot application slotframe would
//! cap each access point at 0.66 packets/s, below the offered load of the
//! Testbed A workload — and it is the layout DiGS's Eq. 4 structurally
//! extends (with multiple attempts and a backup parent).
//!
//! EBs and routing traffic use the same sync and shared-slot layout as
//! DiGS (the paper runs both protocols with identical slotframe lengths
//! 557/47/151).

use crate::slotframe::{
    combine, frame_offset, next_sync_or_routing_cell, node_offset, Cell, CellAction, CellTable,
    SlotframeLengths, TrafficClass, ROUTING_OFFSET, ROUTING_SLOT,
};
use digs_sim::engine::StandingListens;
use digs_sim::ids::NodeId;
use digs_sim::time::Asn;
use std::collections::BTreeSet;

/// Who keeps a slot of the application slotframe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Claimant {
    /// The node's own transmit cell.
    Own,
    /// A child's receive cell.
    Child(NodeId),
}

/// The Orchestra scheduler state for one node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrchestraScheduler {
    id: NodeId,
    lengths: SlotframeLengths,
    preferred_parent: Option<NodeId>,
    /// Children: nodes whose preferred parent is us, learned from RPL
    /// signalling and observed traffic.
    children: BTreeSet<NodeId>,
    /// The unicast cells of one application slotframe; rebuilt by
    /// [`Self::compile_app_cells`] when the parent changes, and patched in
    /// the one slot a child claims when a child comes or goes.
    app_cells: CellTable,
}

impl OrchestraScheduler {
    /// Creates a sender-based scheduler for `id` (the paper's
    /// configuration).
    ///
    /// # Panics
    ///
    /// Panics if the slotframe lengths are invalid.
    pub fn new(id: NodeId, lengths: SlotframeLengths) -> OrchestraScheduler {
        lengths.validate().expect("valid slotframe lengths");
        let mut scheduler = OrchestraScheduler {
            id,
            lengths,
            preferred_parent: None,
            children: BTreeSet::new(),
            app_cells: CellTable::default(),
        };
        scheduler.compile_app_cells();
        scheduler
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Updates the preferred parent (on RPL parent change).
    pub fn set_parent(&mut self, parent: Option<NodeId>) {
        if self.preferred_parent != parent {
            self.preferred_parent = parent;
            self.compile_app_cells();
        }
    }

    /// Current preferred parent.
    pub fn parent(&self) -> Option<NodeId> {
        self.preferred_parent
    }

    /// Registers a child: its receive cell takes the child's slot unless
    /// the own transmit cell or a lower child holds it.
    pub fn add_child(&mut self, child: NodeId) {
        let slot = self.sbs_tx_slot(child);
        if self.children.insert(child) && self.holder(slot) == Some(Claimant::Child(child)) {
            self.app_cells.put(slot, Self::unicast_cell(CellAction::RxData, child));
        }
    }

    /// Unregisters a child: if its receive cell held the child's slot, the
    /// next child with that slot takes it, and otherwise it is released.
    pub fn remove_child(&mut self, child: NodeId) {
        if !self.children.remove(&child) {
            return;
        }
        let slot = self.sbs_tx_slot(child);
        match self.holder(slot) {
            None => self.app_cells.release(slot),
            Some(Claimant::Child(next)) if next > child => {
                self.app_cells.put(slot, Self::unicast_cell(CellAction::RxData, next));
            }
            // The own transmit cell, or a lower child, held it and holds it.
            Some(_) => {}
        }
    }

    /// Who keeps `slot` of the application slotframe by the first-claimant
    /// rule: the node itself (its transmit cell, while it has a parent),
    /// else the lowest child whose transmit slot it is.
    fn holder(&self, slot: u32) -> Option<Claimant> {
        if self.preferred_parent.is_some() && self.sbs_tx_slot(self.id) == slot {
            return Some(Claimant::Own);
        }
        let child = self.children.iter().find(|child| self.sbs_tx_slot(**child) == slot);
        child.map(|child| Claimant::Child(*child))
    }

    /// A dedicated application cell on the channel offset of the node
    /// whose transmit slot it is.
    fn unicast_cell(action: CellAction, sender: NodeId) -> Cell {
        Cell { class: TrafficClass::App, action, offset: node_offset(sender), contention: false }
    }

    /// Rebuilds the unicast-cell table, claimants in priority order (the
    /// first claimant of a slot keeps it).
    fn compile_app_cells(&mut self) {
        let mut cells = std::mem::take(&mut self.app_cells);
        cells.clear();
        if let Some(to) = self.preferred_parent {
            let action = CellAction::TxData { to, attempt: 1 };
            cells.claim(self.sbs_tx_slot(self.id), Self::unicast_cell(action, self.id));
        }
        for child in &self.children {
            cells.claim(self.sbs_tx_slot(*child), Self::unicast_cell(CellAction::RxData, *child));
        }
        self.app_cells = cells;
    }

    /// Registered children.
    pub fn children(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.children.iter().copied()
    }

    /// The sender-based transmission slot of `node` in the application
    /// slotframe.
    pub fn sbs_tx_slot(&self, node: NodeId) -> u32 {
        u32::from(node.0) % self.lengths.app
    }

    /// The sync-slotframe slot in which `node` broadcasts its EB.
    pub fn eb_slot(&self, node: NodeId) -> u32 {
        u32::from(node.0) % self.lengths.sync
    }

    /// Resolves the combined cell for a slot (`None` = sleep).
    pub fn cell(&self, asn: Asn) -> Option<Cell> {
        combine(self.sync_cell(asn), self.routing_cell(asn), self.app_cell(asn))
    }

    /// The first slot at or after `from` whose [`Self::cell`] the node must
    /// be asked in: a sync cell, the shared routing cell, and — only while
    /// it has application data queued (`has_data`) — its transmit cell. Its
    /// receive cells are [`Self::standing_listens`], and an empty-queue
    /// transmit cell sleeps.
    pub fn next_wake_cell(&self, from: Asn, has_data: bool) -> Asn {
        let next = next_sync_or_routing_cell(from, self.lengths, self.id, self.preferred_parent);
        let own =
            if has_data { self.app_cells.next_transmit(from, self.lengths.app) } else { None };
        own.map_or(next, |own| next.min(own))
    }

    /// The receive cells of the application slotframe, which
    /// [`Self::next_wake_cell`] does not name: where they are not masked by
    /// a sync or routing cell — slots the node is asked in — [`Self::cell`]
    /// is a `RxData` cell on that offset.
    pub fn standing_listens(&self) -> StandingListens<'_> {
        StandingListens::Cells { period: self.lengths.app, cells: self.app_cells.listens() }
    }

    /// Differs from its last value whenever [`Self::standing_listens`] may.
    pub fn standing_version(&self) -> u32 {
        self.app_cells.version()
    }

    fn sync_cell(&self, asn: Asn) -> Option<Cell> {
        let off = frame_offset(asn, self.lengths.sync);
        if off == self.eb_slot(self.id) {
            return Some(Cell {
                class: TrafficClass::Sync,
                action: CellAction::TxBeacon,
                offset: node_offset(self.id),
                contention: false,
            });
        }
        if let Some(p) = self.preferred_parent {
            if off == self.eb_slot(p) {
                return Some(Cell {
                    class: TrafficClass::Sync,
                    action: CellAction::RxBeacon { from: p },
                    offset: node_offset(p),
                    contention: false,
                });
            }
        }
        None
    }

    fn routing_cell(&self, asn: Asn) -> Option<Cell> {
        if frame_offset(asn, self.lengths.routing) == ROUTING_SLOT {
            Some(Cell {
                class: TrafficClass::Routing,
                action: CellAction::Shared,
                offset: ROUTING_OFFSET,
                contention: true,
            })
        } else {
            None
        }
    }

    fn app_cell(&self, asn: Asn) -> Option<Cell> {
        self.app_cells.get(frame_offset(asn, self.lengths.app))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use digs_cases::Draw;

    fn sbs(id: u16) -> OrchestraScheduler {
        OrchestraScheduler::new(NodeId(id), SlotframeLengths::example())
    }

    #[test]
    fn sbs_transmits_in_own_cell() {
        let mut s = sbs(3);
        s.set_parent(Some(NodeId(5)));
        // ASN 10: app offset 3 (own SBS cell); sync offset 10 and routing
        // offset 10 are idle.
        let cell = s.cell(Asn(10)).expect("tx cell");
        assert_eq!(cell.action, CellAction::TxData { to: NodeId(5), attempt: 1 });
        assert!(!cell.contention, "SBS cells are dedicated");
        assert_eq!(cell.offset, node_offset(NodeId(3)));
    }

    #[test]
    fn sbs_parent_listens_in_childs_cell() {
        let mut p = sbs(5);
        p.add_child(NodeId(3));
        let cell = p.cell(Asn(10)).expect("rx cell");
        assert_eq!(cell.action, CellAction::RxData);
        assert_eq!(cell.offset, node_offset(NodeId(3)));
    }

    #[test]
    fn sbs_without_children_has_no_rx_cells() {
        let s = sbs(5);
        for asn in 0..4697u64 {
            if let Some(cell) = s.cell(Asn(asn)) {
                assert_ne!(cell.action, CellAction::RxData, "no children registered");
            }
        }
    }

    #[test]
    fn sbs_removed_child_frees_cell() {
        let mut p = sbs(5);
        p.add_child(NodeId(3));
        p.remove_child(NodeId(3));
        for asn in 0..700u64 {
            if let Some(cell) = p.cell(Asn(asn)) {
                assert_ne!(cell.action, CellAction::RxData);
            }
        }
    }

    #[test]
    fn sync_beats_app() {
        let mut s = sbs(0);
        s.set_parent(Some(NodeId(1)));
        // ASN 0 is node 0's EB slot and also its SBS cell: sync wins.
        let cell = s.cell(Asn(0)).expect("cell");
        assert_eq!(cell.class, TrafficClass::Sync);
        assert_eq!(cell.action, CellAction::TxBeacon);
    }

    #[test]
    fn orphan_has_no_tx_cell() {
        let s = sbs(3);
        for asn in 0..4697u64 {
            if let Some(cell) = s.cell(Asn(asn)) {
                assert!(!matches!(cell.action, CellAction::TxData { .. }));
            }
        }
    }

    #[test]
    fn schedule_deterministic() {
        let mut a = sbs(7);
        let mut b = sbs(7);
        a.set_parent(Some(NodeId(2)));
        b.set_parent(Some(NodeId(2)));
        for asn in 0..1000u64 {
            assert_eq!(a.cell(Asn(asn)), b.cell(Asn(asn)));
        }
    }

    #[test]
    fn patched_cells_match_a_fresh_compile() {
        let (mut own_clashes, mut child_clashes, mut handed_on) = (0, 0, 0);
        digs_cases::cases(200, |d| {
            let lengths = *d.pick(&[
                SlotframeLengths::example(),
                SlotframeLengths::paper(),
                SlotframeLengths { sync: 101, routing: 9, app: 20 },
            ]);
            // Ids over three application slotframes, so that the own transmit
            // slot and the children's slots clash.
            let node = |d: &mut Draw| NodeId(d.int(0..3 * lengths.app as u16));
            let mut s = OrchestraScheduler::new(node(d), lengths);
            for _ in 0..300 {
                let before = s.clone();
                let child = node(d);
                let slot = s.sbs_tx_slot(child);
                match d.int(0u8..10) {
                    0 => s.set_parent(None),
                    1 => s.set_parent(Some(node(d))),
                    2..=5 => {
                        s.remove_child(child);
                        let held = before.holder(slot) == Some(Claimant::Child(child));
                        handed_on += usize::from(held && s.holder(slot).is_some());
                    }
                    _ => {
                        s.add_child(child);
                        match before.holder(slot) {
                            Some(Claimant::Own) => own_clashes += 1,
                            Some(Claimant::Child(other)) if other != child => child_clashes += 1,
                            _ => {}
                        }
                    }
                }
                let mut fresh = s.clone();
                fresh.compile_app_cells();
                assert!(s.app_cells.same_cells(&fresh.app_cells), "{before:?} to {s:?}");
                if s.app_cells.listens() != before.app_cells.listens() {
                    assert_ne!(s.standing_version(), before.standing_version(), "{s:?}");
                }
            }
        });
        assert!(
            own_clashes > 400 && child_clashes > 4_000 && handed_on > 1_000,
            "{own_clashes} own/child, {child_clashes} child/child clashes, {handed_on} handed on"
        );
    }

    /// The per-slot scan the compiled table replaced, kept as the table's
    /// reference.
    fn scanned_app_cell(s: &OrchestraScheduler, asn: Asn) -> Option<Cell> {
        let cell = |action, offset| {
            Some(Cell { class: TrafficClass::App, action, offset, contention: false })
        };
        let off = frame_offset(asn, s.lengths.app);
        if let Some(p) = s.preferred_parent {
            if off == s.sbs_tx_slot(s.id) {
                let action = CellAction::TxData { to: p, attempt: 1 };
                return cell(action, node_offset(s.id));
            }
        }
        for child in &s.children {
            if off == s.sbs_tx_slot(*child) {
                return cell(CellAction::RxData, node_offset(*child));
            }
        }
        None
    }

    #[test]
    fn closed_form_table_matches_the_scan_and_next_cell_matches_brute_force() {
        let lengths = [
            SlotframeLengths::example(),
            SlotframeLengths::paper(),
            SlotframeLengths { sync: 101, routing: 9, app: 20 },
        ];
        digs_cases::cases(200, |d| {
            let node = |d: &mut Draw| NodeId(d.int(0u16..60));
            let mut s = OrchestraScheduler::new(node(d), *d.pick(&lengths));
            for _ in 0..6 {
                for _ in 0..d.int(1..=6) {
                    match d.int(0..3) {
                        0 => s.remove_child(node(d)),
                        _ => s.add_child(node(d)),
                    }
                }
                match d.int(0..3) {
                    0 => s.set_parent(None),
                    1 => s.set_parent(Some(node(d))),
                    _ => {}
                }
                let start = d.int(0u64..1 << 30);
                for from in (start..start + 2 * u64::from(s.lengths.app) + 3).map(Asn) {
                    assert_eq!(s.app_cell(from), scanned_app_cell(&s, from), "{s:?} at {from}");
                    // Asked in: sync and routing cells, and the own transmit
                    // cell while data is queued.
                    for has_data in [false, true] {
                        let ahead = |a: &u64| {
                            s.cell(Asn(*a)).is_some_and(|cell| match cell.action {
                                CellAction::RxData => false,
                                CellAction::TxData { .. } => has_data,
                                _ => true,
                            })
                        };
                        let brute = (from.0..).find(ahead).map(Asn);
                        assert_eq!(Some(s.next_wake_cell(from, has_data)), brute, "{s:?} {from}");
                    }
                    // Not asked in, the radio does what the cell says.
                    if s.next_wake_cell(from, false) != from {
                        let listen = s.cell(from).and_then(|cell| {
                            (cell.action == CellAction::RxData).then_some(cell.offset)
                        });
                        assert_eq!(s.standing_listens().offset_at(from), listen, "{s:?} at {from}");
                    }
                }
            }
        });
    }
}
