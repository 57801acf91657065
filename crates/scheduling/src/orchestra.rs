//! The Orchestra baseline scheduler (Duquennoy et al., SenSys 2015),
//! configured as in the paper's comparison.
//!
//! Orchestra schedules autonomously over RPL with a **single preferred
//! parent**. Its unicast cells come in two flavors:
//!
//! - **Sender-based (default here)**: every node owns one transmission
//!   cell per application slotframe at `id mod L_app`, directed to its
//!   preferred parent; the parent derives matching receive cells from its
//!   child set (learned from RPL's DAO signalling). This is the only mode
//!   whose sink capacity scales with the paper's configuration — a
//!   receiver-based cell at the paper's 151-slot application slotframe
//!   would cap each access point at 0.66 packets/s, below the offered
//!   load of the Testbed A workload — and it is the mode DiGS's Eq. 4
//!   structurally extends (with multiple attempts and a backup parent).
//! - **Receiver-based** (kept as an ablation): every node listens on one
//!   cell per unicast slotframe at `id mod L_unicast`; children of the
//!   same parent contend for the parent's cell.
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

/// Unicast slotframe length for the receiver-based ablation mode.
pub const DEFAULT_UNICAST_LEN: u32 = 53;

/// Which Orchestra unicast-cell flavor to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrchestraMode {
    /// Sender-owned dedicated cells; receive cells derived from children.
    SenderBased,
    /// Receiver-owned shared cells; siblings contend.
    ReceiverBased {
        /// Length of the unicast slotframe.
        unicast_len: u32,
    },
}

/// The Orchestra scheduler state for one node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrchestraScheduler {
    id: NodeId,
    lengths: SlotframeLengths,
    mode: OrchestraMode,
    preferred_parent: Option<NodeId>,
    /// Children (sender-based mode only): nodes whose preferred parent is
    /// us, learned from RPL signalling and observed traffic.
    children: BTreeSet<NodeId>,
    /// The unicast cells of one [`Self::unicast_len`] slotframe; rebuilt by
    /// [`Self::compile_app_cells`] whenever the parent or the set of
    /// children changes.
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
        Self::with_mode(id, lengths, OrchestraMode::SenderBased)
    }

    /// Creates a scheduler with an explicit unicast-cell mode.
    ///
    /// # Panics
    ///
    /// Panics if the slotframe lengths are invalid or a receiver-based
    /// unicast slotframe length is 0.
    pub fn with_mode(
        id: NodeId,
        lengths: SlotframeLengths,
        mode: OrchestraMode,
    ) -> OrchestraScheduler {
        lengths.validate().expect("valid slotframe lengths");
        if let OrchestraMode::ReceiverBased { unicast_len } = mode {
            assert!(unicast_len > 0, "unicast slotframe length must be positive");
        }
        let mut scheduler = OrchestraScheduler {
            id,
            lengths,
            mode,
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

    /// The configured unicast mode.
    pub fn mode(&self) -> OrchestraMode {
        self.mode
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

    /// Registers a child (sender-based mode; no-op semantics for
    /// receiver-based, which always listens in its own cell).
    pub fn add_child(&mut self, child: NodeId) {
        if self.children.insert(child) {
            self.compile_app_cells();
        }
    }

    /// Unregisters a child.
    pub fn remove_child(&mut self, child: NodeId) {
        if self.children.remove(&child) {
            self.compile_app_cells();
        }
    }

    /// Length of the slotframe the unicast cells repeat in.
    fn unicast_len(&self) -> u32 {
        match self.mode {
            OrchestraMode::SenderBased => self.lengths.app,
            OrchestraMode::ReceiverBased { unicast_len } => unicast_len,
        }
    }

    /// Rebuilds the unicast-cell table, claimants in priority order (the
    /// first claimant of a slot keeps it).
    fn compile_app_cells(&mut self) {
        let mut cells = std::mem::take(&mut self.app_cells);
        cells.clear();
        let app_cell = |action, offset, contention| Cell {
            class: TrafficClass::App,
            action,
            offset,
            contention,
        };
        match self.mode {
            OrchestraMode::SenderBased => {
                if let Some(to) = self.preferred_parent {
                    let action = CellAction::TxData { to, attempt: 1 };
                    let own = app_cell(action, node_offset(self.id), false);
                    cells.claim(self.sbs_tx_slot(self.id), own);
                }
                for child in &self.children {
                    let listen = app_cell(CellAction::RxData, node_offset(*child), false);
                    cells.claim(self.sbs_tx_slot(*child), listen);
                }
            }
            // Siblings share the parent's cell, so both cells contend.
            OrchestraMode::ReceiverBased { unicast_len } => {
                if let Some(to) = self.preferred_parent {
                    let action = CellAction::TxData { to, attempt: 1 };
                    cells.claim(
                        self.rbs_rx_slot(to, unicast_len),
                        app_cell(action, node_offset(to), true),
                    );
                }
                cells.claim(
                    self.rbs_rx_slot(self.id, unicast_len),
                    app_cell(CellAction::RxData, node_offset(self.id), true),
                );
            }
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

    /// The receiver-based cell slot owned by `node` (ablation mode).
    pub fn rbs_rx_slot(&self, node: NodeId, unicast_len: u32) -> u32 {
        u32::from(node.0) % unicast_len
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
            if has_data { self.app_cells.next_transmit(from, self.unicast_len()) } else { None };
        own.map_or(next, |own| next.min(own))
    }

    /// The receive cells of the unicast slotframe, which
    /// [`Self::next_wake_cell`] does not name: where they are not masked by
    /// a sync or routing cell — slots the node is asked in — [`Self::cell`]
    /// is a `RxData` cell on that offset.
    pub fn standing_listens(&self) -> StandingListens<'_> {
        StandingListens::Cells { period: self.unicast_len(), cells: self.app_cells.listens() }
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
        self.app_cells.get(frame_offset(asn, self.unicast_len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use digs_cases::Draw;

    fn sbs(id: u16) -> OrchestraScheduler {
        OrchestraScheduler::new(NodeId(id), SlotframeLengths::example())
    }

    fn rbs(id: u16) -> OrchestraScheduler {
        OrchestraScheduler::with_mode(
            NodeId(id),
            SlotframeLengths::example(),
            OrchestraMode::ReceiverBased { unicast_len: 7 },
        )
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
    fn rbs_owns_one_rx_cell_per_slotframe() {
        let s = rbs(3);
        let rx_cells: Vec<u64> = (0..77u64)
            .filter(|asn| matches!(s.cell(Asn(*asn)).map(|c| c.action), Some(CellAction::RxData)))
            .collect();
        assert!(!rx_cells.is_empty());
        assert!(rx_cells.iter().all(|asn| asn % 7 == 3));
    }

    #[test]
    fn rbs_transmits_in_parents_cell_with_contention() {
        let mut s = rbs(3);
        s.set_parent(Some(NodeId(5)));
        // ASN 12: unicast offset 12 % 7 = 5 (the parent's cell).
        let cell = s.cell(Asn(12)).expect("tx cell");
        assert_eq!(cell.action, CellAction::TxData { to: NodeId(5), attempt: 1 });
        assert!(cell.contention, "RBS cells are contention cells");
    }

    #[test]
    fn rbs_siblings_share_the_parents_cell() {
        let mut a = rbs(3);
        let mut b = rbs(4);
        a.set_parent(Some(NodeId(5)));
        b.set_parent(Some(NodeId(5)));
        let ca = a.cell(Asn(12)).expect("cell");
        let cb = b.cell(Asn(12)).expect("cell");
        assert_eq!(ca.action, cb.action);
        assert_eq!(ca.offset, cb.offset);
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

    /// The per-slot scan the compiled table replaced, kept as the table's
    /// reference.
    fn scanned_app_cell(s: &OrchestraScheduler, asn: Asn) -> Option<Cell> {
        let cell = |action, offset, contention| {
            Some(Cell { class: TrafficClass::App, action, offset, contention })
        };
        match s.mode {
            OrchestraMode::SenderBased => {
                let off = frame_offset(asn, s.lengths.app);
                if let Some(p) = s.preferred_parent {
                    if off == s.sbs_tx_slot(s.id) {
                        let action = CellAction::TxData { to: p, attempt: 1 };
                        return cell(action, node_offset(s.id), false);
                    }
                }
                for child in &s.children {
                    if off == s.sbs_tx_slot(*child) {
                        return cell(CellAction::RxData, node_offset(*child), false);
                    }
                }
                None
            }
            OrchestraMode::ReceiverBased { unicast_len } => {
                let off = frame_offset(asn, unicast_len);
                if let Some(p) = s.preferred_parent {
                    if off == s.rbs_rx_slot(p, unicast_len) {
                        let action = CellAction::TxData { to: p, attempt: 1 };
                        return cell(action, node_offset(p), true);
                    }
                }
                if off == s.rbs_rx_slot(s.id, unicast_len) {
                    return cell(CellAction::RxData, node_offset(s.id), true);
                }
                None
            }
        }
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
            let mode = match d.int(0..3) {
                0 => OrchestraMode::ReceiverBased { unicast_len: d.int(1u32..=60) },
                _ => OrchestraMode::SenderBased,
            };
            let mut s = OrchestraScheduler::with_mode(node(d), *d.pick(&lengths), mode);
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
                for from in (start..start + 2 * u64::from(s.unicast_len()) + 3).map(Asn) {
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
