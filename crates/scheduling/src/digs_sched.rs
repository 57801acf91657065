//! The DiGS autonomous scheduler (paper Section VI).
//!
//! Each node derives its entire TSCH schedule from local information only:
//! its node id, the number of access points, the slotframe lengths, and its
//! routing state (parents from [`digs_routing::DigsRouting`], children from
//! the join-ins that name this node as a parent, and from their data
//! frames). No schedule negotiation or sharing occurs.
//!
//! - **Synchronization slotframe**: node *i* broadcasts its EB in slot
//!   `i mod L_sync` and listens in its best parent's slot.
//! - **Routing slotframe**: one fixed shared (CSMA) cell for the join-in
//!   broadcasts, identical on all nodes.
//! - **Application slotframe**: Eq. 4 —
//!   `s = A·(NodeID − N_AP) − A + p` for attempt `p` (with the paper's
//!   1-based device numbering; equivalently `A·(id − N_AP) + p` for our
//!   0-based ids) — giving every field device `A` dedicated transmission
//!   cells per slotframe: attempts 1 to A−1 on the primary route and
//!   attempt A on the backup route. Parents derive the matching receive
//!   cells from their child tables.
//!
//! ## Schedule randomization (anti-jamming defense)
//!
//! Eq. 4 is static: a jammer that passively learns which `(slot, channel
//! offset)` cells carry traffic can concentrate its energy on exactly
//! those cells forever. The optional randomization pass defeats that by
//! re-drawing the *physical* placement of every application cell each
//! epoch (one application slotframe) from a network-wide shared nonce:
//!
//! - a Fisher–Yates permutation keyed on `(nonce, epoch)` maps each
//!   logical Eq. 4 slot to a physical slot — a bijection, so Eq. 4's
//!   exclusive-ownership property transfers verbatim to the physical
//!   schedule;
//! - a per-physical-slot channel-offset shift keyed on the same stream
//!   re-draws the cell's channel offset, so learned channel positions
//!   also go stale.
//!
//! Every node derives the identical permutation from the shared nonce
//! (provisioned like the slotframe lengths — no negotiation, preserving
//! the paper's autonomy property), so a child's transmit cell and its
//! parents' receive cells stay aligned. Logical coordinates remain the
//! stable identity of a cell: claims, child tables, and Eq. 4 inversion all
//! operate in logical space and translate at the radio boundary.
//!
//! Since every node derives the same permutation, the schedulers of one
//! network share one memo of it ([`EpochPerms`], handed down with the
//! provisioning): whichever asks first in an epoch builds that epoch's
//! permutation, once for the network. And since a node's cells stand still
//! for a whole epoch, each scheduler lays its application cells out in
//! physical slots once per epoch ([`DigsScheduler::place`]): its receive
//! cells are then standing listens for the epoch, as they are for the
//! whole run without randomization, and only its sync, routing and (with
//! data queued) transmit cells and the epoch's end are wake slots.

use crate::slotframe::{
    combine, frame_offset, next_sync_or_routing_cell, node_offset, Cell, CellAction, CellTable,
    SlotframeLengths, TrafficClass, ROUTING_OFFSET, ROUTING_SLOT,
};
use digs_routing::messages::ParentSlot;
use digs_sim::channel::ChannelOffset;
use digs_sim::engine::StandingListens;
use digs_sim::ids::NodeId;
use digs_sim::rng;
use digs_sim::time::Asn;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Salt separating the slot-permutation stream from other mix users.
const PERM_SALT: u64 = 0x51a7_0b1e;

/// Salt separating the channel-offset-shift stream.
const SHIFT_SALT: u64 = 0x0ff5_e7ed;

/// The slot permutation for one randomization epoch.
#[derive(Debug, Clone)]
struct EpochPerm {
    /// What the permutation was drawn for: `(nonce, epoch, app_len)`.
    key: (u64, u64, u32),
    /// `forward[logical] = physical` application slot.
    forward: Vec<u32>,
    /// `inverse[physical] = logical` application slot.
    inverse: Vec<u32>,
}

/// The slot permutations of the two most recently resolved epochs, one of
/// each parity, shared by every DiGS scheduler of a network (a lookup in the
/// current epoch and a look ahead into the next do not evict each other).
/// Whichever scheduler asks first for an epoch builds its permutation; the
/// others read it. An entry is keyed on everything it was drawn from, so
/// schedulers that share a memo but not a nonce or a slotframe length only
/// rebuild, never misread. A network's memo is part of what its
/// configuration builds, not process state: a run stays a function of its
/// configuration.
#[derive(Debug, Default)]
pub struct EpochPerms(Mutex<[Option<EpochPerm>; 2]>);

impl EpochPerms {
    /// Runs `f` against the permutation for `(nonce, epoch)` of an
    /// `app_len`-slot frame, building it if the memo does not hold it.
    fn with<R>(&self, nonce: u64, epoch: u64, app_len: u32, f: impl FnOnce(&EpochPerm) -> R) -> R {
        let mut memo = self.0.lock().expect("no scheduler panics holding the memo");
        let cached = &mut memo[(epoch % 2) as usize];
        let key = (nonce, epoch, app_len);
        if cached.as_ref().is_none_or(|p| p.key != key) {
            *cached = Some(build_perm(key));
        }
        f(cached.as_ref().expect("permutation just built"))
    }
}

impl PartialEq for EpochPerms {
    /// The memo is derived data: schedulers with equal configuration are
    /// equal whichever epochs it last resolved and whoever shares it.
    fn eq(&self, _other: &EpochPerms) -> bool {
        true
    }
}

/// Fisher–Yates keyed on `(nonce, epoch)`. The `% (i + 1)` modulo bias is
/// irrelevant here: the shuffle defeats schedule learning, it is not
/// cryptography.
fn build_perm(key: (u64, u64, u32)) -> EpochPerm {
    let (nonce, epoch, app_len) = key;
    let mut forward: Vec<u32> = (0..app_len).collect();
    for i in (1..app_len as usize).rev() {
        let j = (rng::mix(nonce, epoch, i as u64, PERM_SALT) % (i as u64 + 1)) as usize;
        forward.swap(i, j);
    }
    let mut inverse = vec![0u32; app_len as usize];
    for (logical, &physical) in forward.iter().enumerate() {
        inverse[physical as usize] = logical as u32;
    }
    EpochPerm { key, forward, inverse }
}

/// The autonomous scheduler state for one node.
#[derive(Debug, Clone, PartialEq)]
pub struct DigsScheduler {
    id: NodeId,
    num_aps: u16,
    lengths: SlotframeLengths,
    attempts: u8,
    best_parent: Option<NodeId>,
    second_parent: Option<NodeId>,
    /// Children and the role they assigned us.
    children: BTreeMap<NodeId, ParentSlot>,
    /// Network-wide schedule-randomization nonce (`None` = the paper's
    /// static Eq. 4 placement).
    randomize: Option<u64>,
    /// The network's memo of the epoch permutations.
    perms: Arc<EpochPerms>,
    /// The application cells, keyed by logical (Eq. 4) slot and holding
    /// each cell's unshifted channel offset; rebuilt by
    /// [`Self::compile_app_cells`] whenever the parents or the set of
    /// children change.
    app_cells: CellTable,
    /// Under randomization, the epoch the application cells were last laid
    /// out for, and the cells of `app_cells` in that epoch's physical slots
    /// with its shifted channel offsets ([`Self::place`]).
    placed_epoch: Option<u64>,
    placed: CellTable,
}

impl DigsScheduler {
    /// Creates a scheduler for `id` in a network with `num_aps` access
    /// points.
    ///
    /// # Panics
    ///
    /// Panics if `attempts` is zero or the slotframe lengths are invalid.
    pub fn new(id: NodeId, num_aps: u16, lengths: SlotframeLengths, attempts: u8) -> DigsScheduler {
        assert!(
            (1..=8).contains(&attempts),
            "attempts must be in 1..=8 (WirelessHART schedules at most a handful)"
        );
        lengths.validate().expect("valid slotframe lengths");
        DigsScheduler {
            id,
            num_aps,
            lengths,
            attempts,
            best_parent: None,
            second_parent: None,
            children: BTreeMap::new(),
            randomize: None,
            perms: Arc::default(),
            app_cells: CellTable::default(),
            placed_epoch: None,
            placed: CellTable::default(),
        }
    }

    /// Reads the epoch permutations through `perms`, the memo every DiGS
    /// scheduler of the network shares, instead of a memo of its own.
    pub fn with_perms(mut self, perms: Arc<EpochPerms>) -> DigsScheduler {
        self.perms = perms;
        self
    }

    /// Enables (`Some`) or disables (`None`) per-epoch schedule
    /// randomization. The nonce must be identical network-wide: every node
    /// independently re-derives the same permutation from it, keeping a
    /// child's transmit cells aligned with its parents' receive cells
    /// without any negotiation.
    pub fn set_randomize(&mut self, nonce: Option<u64>) {
        self.randomize = nonce;
        // Any layout was drawn under the old nonce.
        self.placed_epoch = None;
        self.placed.clear();
        self.compile_app_cells();
    }

    /// The active schedule-randomization nonce, if any.
    pub fn randomize(&self) -> Option<u64> {
        self.randomize
    }

    /// The randomization epoch an ASN falls in (one application slotframe
    /// per epoch).
    pub fn epoch_of(&self, asn: Asn) -> u64 {
        asn.0 / u64::from(self.lengths.app)
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Number of scheduled attempts per packet (the paper's `A`).
    pub fn attempts(&self) -> u8 {
        self.attempts
    }

    /// The slotframe lengths the scheduler was built with.
    pub fn lengths(&self) -> SlotframeLengths {
        self.lengths
    }

    /// Whether this node is an access point.
    pub fn is_access_point(&self) -> bool {
        self.id.0 < self.num_aps
    }

    /// Updates the parent set (called on routing `ParentsChanged` events).
    /// The schedule updates instantly — this is the paper's headline
    /// property: "the transmission schedule is automatically determined and
    /// updated once the network topology changes".
    pub fn set_parents(&mut self, best: Option<NodeId>, second: Option<NodeId>) {
        if (self.best_parent, self.second_parent) != (best, second) {
            self.best_parent = best;
            self.second_parent = second;
            self.compile_app_cells();
        }
    }

    /// Registers a child (from a join-in or a data frame that gives this
    /// node a parent role).
    ///
    /// # Panics
    ///
    /// Panics if `child` is an access point (they own no Eq. 4 cells).
    pub fn add_child(&mut self, child: NodeId, slot: ParentSlot) {
        // A role change moves no cell: a parent listens in all of a
        // child's attempt cells whatever its role.
        if self.children.insert(child, slot).is_none() {
            self.compile_app_cells();
        }
    }

    /// Removes a child (silent past the child-silence horizon, or dead).
    pub fn remove_child(&mut self, child: NodeId) {
        if self.children.remove(&child).is_some() {
            self.compile_app_cells();
        }
    }

    /// Rebuilds the application-cell table, claimants in priority order
    /// (the first claimant of a logical slot keeps it).
    fn compile_app_cells(&mut self) {
        let mut cells = std::mem::take(&mut self.app_cells);
        cells.clear();
        let app_cell =
            |action, offset| Cell { class: TrafficClass::App, action, offset, contention: false };
        // Own transmission cells (field devices with a route only).
        if !self.is_access_point() {
            for p in 1..=self.attempts {
                if let Some(to) = self.attempt_target(p) {
                    let action = CellAction::TxData { to, attempt: p };
                    let offset = Self::attempt_offset(self.id, p);
                    cells.claim(self.tx_slot(self.id, p), app_cell(action, offset));
                }
            }
        }
        // Receive cells derived from the child table. A parent listens in
        // *all* of a child's attempt cells regardless of its nominal role:
        // nominally, primary parents are reached on attempts 1..A and the
        // backup on attempt A, but listening to every attempt makes the
        // schedule immune to role-swap races (a Best↔SecondBest promotion
        // at the child re-maps its attempts instantly, while the parents
        // learn of it asynchronously). The cost is idle listening — the
        // energy overhead the paper attributes to DiGS.
        for child in self.children.keys() {
            for p in 1..=self.attempts {
                let offset = Self::attempt_offset(*child, p);
                cells.claim(self.tx_slot(*child, p), app_cell(CellAction::RxData, offset));
            }
        }
        self.app_cells = cells;
        if let Some(epoch) = self.placed_epoch {
            self.lay_out(epoch);
        }
    }

    /// Lays the application cells out for `asn`'s epoch, unless they are
    /// laid out for it already: the receive cells become the epoch's
    /// [`Self::standing_listens`] and the transmit cells the ones
    /// [`Self::next_wake_cell`] names. A no-op without randomization, where
    /// the logical cells are the physical ones. The stack calls this
    /// whenever it is asked, so a node is laid out at the first slot of
    /// each epoch it is asked in — and [`Self::next_wake_cell`] names that
    /// slot.
    pub fn place(&mut self, asn: Asn) {
        let epoch = self.epoch_of(asn);
        if self.randomize.is_some() && self.placed_epoch != Some(epoch) {
            self.lay_out(epoch);
        }
    }

    /// Lays out `epoch`: each application cell at its physical slot, with
    /// the shifted channel offset [`Self::cell`] gives it there.
    fn lay_out(&mut self, epoch: u64) {
        let Some(nonce) = self.randomize else { return };
        let mut placed = std::mem::take(&mut self.placed);
        placed.clear();
        let epoch_asn = Asn(epoch * u64::from(self.lengths.app));
        self.with_perm(nonce, epoch, |perm| {
            for &(logical, mut cell) in self.app_cells.entries() {
                let physical = perm.forward[logical as usize];
                cell.offset = self.cell_offset(cell.offset, physical, epoch_asn);
                placed.claim(physical, cell);
            }
        });
        self.placed = placed;
        self.placed_epoch = Some(epoch);
    }

    /// Currently registered children.
    pub fn children(&self) -> impl Iterator<Item = (NodeId, ParentSlot)> + '_ {
        self.children.iter().map(|(id, s)| (*id, *s))
    }

    /// Eq. 4: the application-slotframe slot of `node`'s attempt `p`
    /// (1-based).
    ///
    /// # Panics
    ///
    /// Panics if `node` is an access point (they originate no upstream
    /// data) or `p` is out of `1..=attempts`.
    pub fn tx_slot(&self, node: NodeId, p: u8) -> u32 {
        assert!(node.0 >= self.num_aps, "access points have no application transmission cells");
        assert!((1..=self.attempts).contains(&p), "attempt out of range");
        let device_index = u32::from(node.0 - self.num_aps);
        (u32::from(self.attempts) * device_index + u32::from(p)) % self.lengths.app
    }

    /// The parent targeted by attempt `p`: attempts `1..A` use the primary
    /// route; attempt `A` uses the backup route (falling back to the
    /// primary when no backup exists).
    pub fn attempt_target(&self, p: u8) -> Option<NodeId> {
        if p < self.attempts {
            self.best_parent
        } else {
            self.second_parent.or(self.best_parent)
        }
    }

    /// The sync-slotframe slot in which `node` broadcasts its EB.
    pub fn eb_slot(&self, node: NodeId) -> u32 {
        u32::from(node.0) % self.lengths.sync
    }

    /// Channel offset of `node`'s attempt-`p` application cell. Attempts
    /// are spread five offsets apart so a WiFi-wide jammer (four adjacent
    /// 802.15.4 channels) can cover at most one of a packet's scheduled
    /// attempts — the WirelessHART practice of retrying on a different
    /// channel. Both the transmitting child and the listening parent derive
    /// the same offset from `(node, p)` alone.
    pub fn attempt_offset(node: NodeId, p: u8) -> digs_sim::channel::ChannelOffset {
        digs_sim::channel::ChannelOffset::new(((node.0 % 16) as u8).wrapping_add(5 * (p - 1)) % 16)
    }

    /// Inverts Eq. 4: which attempt number would have `node` transmitting
    /// in application-slotframe offset `off`? Used by a parent to infer its
    /// role (primary vs backup) from an actually received data frame, which
    /// keeps the child table correct even when a join-in was lost.
    pub fn infer_attempt(&self, node: NodeId, off: u32) -> Option<u8> {
        if node.0 < self.num_aps {
            return None;
        }
        (1..=self.attempts).find(|p| self.tx_slot(node, *p) == off)
    }

    /// Runs `f` against the permutation for `epoch`, through the shared
    /// memo.
    fn with_perm<R>(&self, nonce: u64, epoch: u64, f: impl FnOnce(&EpochPerm) -> R) -> R {
        self.perms.with(nonce, epoch, self.lengths.app, f)
    }

    /// Maps a logical (Eq. 4) application slot to its physical slot in
    /// `asn`'s epoch — the identity without randomization.
    fn physical_slot(&self, logical: u32, asn: Asn) -> u32 {
        match self.randomize {
            None => logical,
            Some(nonce) => {
                self.with_perm(nonce, self.epoch_of(asn), |p| p.forward[logical as usize])
            }
        }
    }

    /// Inverse of [`Self::physical_slot`].
    fn logical_slot(&self, physical: u32, asn: Asn) -> u32 {
        match self.randomize {
            None => physical,
            Some(nonce) => {
                self.with_perm(nonce, self.epoch_of(asn), |p| p.inverse[physical as usize])
            }
        }
    }

    /// The channel-offset shift applied to a physical slot's application
    /// cell in `asn`'s epoch. Keyed on the *physical* slot, so the
    /// transmitting child and every listening parent — who agree on the
    /// physical slot by construction — derive the same shift.
    fn offset_shift(&self, physical: u32, asn: Asn) -> u8 {
        match self.randomize {
            None => 0,
            Some(nonce) => {
                (rng::mix(nonce, self.epoch_of(asn), u64::from(physical), SHIFT_SALT) % 16) as u8
            }
        }
    }

    fn cell_offset(&self, base: ChannelOffset, physical: u32, asn: Asn) -> ChannelOffset {
        ChannelOffset::new((base.0 + self.offset_shift(physical, asn)) % 16)
    }

    /// The physical application slot in which `node`'s attempt `p`
    /// transmits during `asn`'s epoch: [`Self::tx_slot`] for a static
    /// schedule, its epoch permutation under randomization.
    ///
    /// # Panics
    ///
    /// As [`Self::tx_slot`].
    pub fn scheduled_slot(&self, node: NodeId, p: u8, asn: Asn) -> u32 {
        self.physical_slot(self.tx_slot(node, p), asn)
    }

    /// The channel offset `node`'s attempt-`p` cell actually uses during
    /// `asn`'s epoch ([`Self::attempt_offset`] plus the epoch shift).
    ///
    /// # Panics
    ///
    /// As [`Self::tx_slot`].
    pub fn scheduled_offset(&self, node: NodeId, p: u8, asn: Asn) -> ChannelOffset {
        let physical = self.scheduled_slot(node, p, asn);
        self.cell_offset(Self::attempt_offset(node, p), physical, asn)
    }

    /// Epoch-aware variant of [`Self::infer_attempt`]: which attempt has
    /// `node` transmitting in `asn`'s slot? Receivers must use this (not
    /// the raw slotframe offset) when randomization may be active, since
    /// the physical slot de-randomizes to a different logical slot.
    pub fn infer_attempt_at(&self, node: NodeId, asn: Asn) -> Option<u8> {
        let off = frame_offset(asn, self.lengths.app);
        self.infer_attempt(node, self.logical_slot(off, asn))
    }

    /// Resolves the combined cell for a slot (`None` = sleep).
    pub fn cell(&self, asn: Asn) -> Option<Cell> {
        combine(self.sync_cell(asn), self.routing_cell(asn), self.app_cell(asn))
    }

    /// The first slot at or after `from` whose [`Self::cell`] the node must
    /// be asked in: a sync cell, the shared routing cell, and — only while
    /// it has application data queued (`has_data`) — one of its own transmit
    /// cells. Its receive cells are [`Self::standing_listens`], and an
    /// empty-queue transmit cell sleeps. Under randomization the cells are
    /// those laid out for `from`'s epoch, and the epoch's end is named too,
    /// where the next layout is due; if the layout is not `from`'s epoch,
    /// `from` itself is named, so that the node is asked and laid out.
    pub fn next_wake_cell(&self, from: Asn, has_data: bool) -> Asn {
        let next = next_sync_or_routing_cell(from, self.lengths, self.id, self.best_parent);
        let app = self.lengths.app;
        if self.randomize.is_none() {
            let transmit = has_data.then(|| self.app_cells.next_transmit(from, app)).flatten();
            return transmit.map_or(next, |transmit| next.min(transmit));
        }
        let epoch = self.epoch_of(from);
        if self.placed_epoch != Some(epoch) {
            return from;
        }
        let end = Asn((epoch + 1) * u64::from(app));
        let transmit = has_data.then(|| self.placed.next_transmit(from, app)).flatten();
        next.min(transmit.map_or(end, |transmit| transmit.min(end)))
    }

    /// The receive cells of the application slotframe, which
    /// [`Self::next_wake_cell`] does not name — under randomization, those
    /// laid out for the epoch [`Self::next_wake_cell`] answers in: where
    /// they are not masked by a sync or routing cell — slots the node is
    /// asked in — [`Self::cell`] is a `RxData` cell on that offset.
    pub fn standing_listens(&self) -> StandingListens<'_> {
        let cells =
            if self.randomize.is_none() { self.app_cells.listens() } else { self.placed.listens() };
        StandingListens::Cells { period: self.lengths.app, cells }
    }

    /// Differs from its last value whenever [`Self::standing_listens`] may:
    /// both tables only ever count their rebuilds up.
    pub fn standing_version(&self) -> u32 {
        self.app_cells.version().wrapping_add(self.placed.version())
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
        if let Some(bp) = self.best_parent {
            if off == self.eb_slot(bp) {
                return Some(Cell {
                    class: TrafficClass::Sync,
                    action: CellAction::RxBeacon { from: bp },
                    offset: node_offset(bp),
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
        let off = frame_offset(asn, self.lengths.app);
        // Cell identity lives in logical (Eq. 4) space; under randomization
        // this slot physically hosts a *different* logical slot's cell.
        let mut cell = self.app_cells.get(self.logical_slot(off, asn))?;
        cell.offset = self.cell_offset(cell.offset, off, asn);
        Some(cell)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use digs_cases::Draw;

    /// The Fig. 7 configuration: slotframes 61/11/7, two APs (#1, #2 in the
    /// paper, ids 0 and 1 here) and two field devices (#3, #4 → ids 2, 3).
    fn example_scheduler(id: u16) -> DigsScheduler {
        DigsScheduler::new(NodeId(id), 2, SlotframeLengths::example(), 3)
    }

    #[test]
    fn eq4_matches_figure7() {
        // Paper: #3's three attempts land in app slots 1, 2, 3 and #4's in
        // slots 4, 5, 6 of the 7-slot application slotframe.
        let s = example_scheduler(2);
        assert_eq!(s.tx_slot(NodeId(2), 1), 1);
        assert_eq!(s.tx_slot(NodeId(2), 2), 2);
        assert_eq!(s.tx_slot(NodeId(2), 3), 3);
        assert_eq!(s.tx_slot(NodeId(3), 1), 4);
        assert_eq!(s.tx_slot(NodeId(3), 2), 5);
        assert_eq!(s.tx_slot(NodeId(3), 3), 6);
    }

    #[test]
    fn tx_slots_wrap_modulo_slotframe() {
        let s = example_scheduler(2);
        // Device index 2 (id 4): slots 3*2+p = 7, 8, 9 → wrap to 0, 1, 2.
        assert_eq!(s.tx_slot(NodeId(4), 1), 0);
        assert_eq!(s.tx_slot(NodeId(4), 2), 1);
        assert_eq!(s.tx_slot(NodeId(4), 3), 2);
    }

    #[test]
    #[should_panic(expected = "access points have no application transmission cells")]
    fn ap_tx_slot_panics() {
        let s = example_scheduler(2);
        let _ = s.tx_slot(NodeId(0), 1);
    }

    #[test]
    #[should_panic(expected = "attempt out of range")]
    fn attempt_zero_panics() {
        let s = example_scheduler(2);
        let _ = s.tx_slot(NodeId(2), 0);
    }

    #[test]
    fn attempts_route_primary_then_backup() {
        let mut s = example_scheduler(2);
        s.set_parents(Some(NodeId(0)), Some(NodeId(1)));
        assert_eq!(s.attempt_target(1), Some(NodeId(0)));
        assert_eq!(s.attempt_target(2), Some(NodeId(0)));
        assert_eq!(s.attempt_target(3), Some(NodeId(1)));
    }

    #[test]
    fn backup_attempt_falls_back_to_primary() {
        let mut s = example_scheduler(2);
        s.set_parents(Some(NodeId(0)), None);
        assert_eq!(s.attempt_target(3), Some(NodeId(0)));
    }

    #[test]
    fn eb_cell_in_own_slot() {
        let s = example_scheduler(2);
        // Node id 2 → EB slot 2 of the 61-slot sync slotframe.
        let cell = s.cell(Asn(2)).expect("EB cell");
        assert_eq!(cell.class, TrafficClass::Sync);
        assert_eq!(cell.action, CellAction::TxBeacon);
        assert!(!cell.contention);
    }

    #[test]
    fn listens_for_parent_beacon() {
        let mut s = example_scheduler(2);
        s.set_parents(Some(NodeId(0)), Some(NodeId(1)));
        // Parent id 0 → EB slot 0; but slot 0 is also the shared routing
        // slot — sync must win the combination (paper's Fig. 7 narrative:
        // nodes with sync traffic in the first slot use it for sync).
        let cell = s.cell(Asn(0)).expect("cell");
        assert_eq!(cell.class, TrafficClass::Sync);
        assert_eq!(cell.action, CellAction::RxBeacon { from: NodeId(0) });
    }

    #[test]
    fn routing_shared_slot_when_no_sync() {
        let s = example_scheduler(2);
        // ASN 11 → routing offset 0 (shared slot), sync offset 11 (no EB for
        // id 2 or parents), app offset 4 (no cells for a parent-less node).
        let cell = s.cell(Asn(11)).expect("cell");
        assert_eq!(cell.class, TrafficClass::Routing);
        assert_eq!(cell.action, CellAction::Shared);
        assert!(cell.contention);
    }

    #[test]
    fn app_tx_cell_after_joining() {
        let mut s = example_scheduler(2);
        s.set_parents(Some(NodeId(0)), Some(NodeId(1)));
        // ASN 8: sync off 8 (idle), routing off 8 (idle), app off 1 →
        // attempt 1 toward the primary parent.
        let cell = s.cell(Asn(8)).expect("cell");
        assert_eq!(cell.class, TrafficClass::App);
        assert_eq!(cell.action, CellAction::TxData { to: NodeId(0), attempt: 1 });
        assert!(!cell.contention);
    }

    #[test]
    fn unjoined_node_has_no_app_tx() {
        let s = example_scheduler(2);
        for asn in 0..4697u64 {
            if let Some(cell) = s.cell(Asn(asn)) {
                assert!(
                    !matches!(cell.action, CellAction::TxData { .. }),
                    "unjoined node scheduled a data tx at {asn}"
                );
            }
        }
    }

    #[test]
    fn parent_listens_in_primary_childs_slots() {
        let mut ap = example_scheduler(0);
        ap.add_child(NodeId(2), ParentSlot::Best);
        // Child 2's attempt cells are app slots 1, 2, 3; the parent listens
        // in all of them (role-agnostic over-listening).
        let mut rx_slots = Vec::new();
        for asn in 0..7u64 {
            if let Some(cell) = ap.cell(Asn(asn)) {
                if cell.action == CellAction::RxData {
                    rx_slots.push(asn);
                }
            }
        }
        assert_eq!(rx_slots, vec![1, 2, 3]);
    }

    #[test]
    fn backup_parent_listens_in_childs_attempt_slots() {
        let mut ap = example_scheduler(1);
        ap.add_child(NodeId(2), ParentSlot::SecondBest);
        let mut rx_slots = Vec::new();
        for asn in 0..7u64 {
            if let Some(cell) = ap.cell(Asn(asn)) {
                if cell.action == CellAction::RxData {
                    rx_slots.push(asn);
                }
            }
        }
        // Slot 1 is masked by this AP's own EB slot (sync priority); the
        // remaining attempt cells of the child are listened on.
        assert_eq!(rx_slots, vec![2, 3]);
    }

    #[test]
    fn removed_child_frees_rx_cells() {
        let mut ap = example_scheduler(0);
        ap.add_child(NodeId(2), ParentSlot::Best);
        ap.remove_child(NodeId(2));
        for asn in 0..7u64 {
            if let Some(cell) = ap.cell(Asn(asn)) {
                assert_ne!(cell.action, CellAction::RxData);
            }
        }
    }

    #[test]
    fn no_negotiation_identical_schedules_from_identical_state() {
        let mut a = example_scheduler(2);
        let mut b = example_scheduler(2);
        a.set_parents(Some(NodeId(0)), Some(NodeId(1)));
        b.set_parents(Some(NodeId(0)), Some(NodeId(1)));
        for asn in 0..4697u64 {
            assert_eq!(a.cell(Asn(asn)), b.cell(Asn(asn)));
        }
    }

    #[test]
    fn schedule_repeats_with_hyper_period() {
        let mut s = example_scheduler(2);
        s.set_parents(Some(NodeId(0)), Some(NodeId(1)));
        let hp = SlotframeLengths::example().hyper_period();
        for asn in 0..200u64 {
            assert_eq!(s.cell(Asn(asn)), s.cell(Asn(asn + hp)));
        }
    }

    #[test]
    fn paper_lengths_give_collision_free_cells_for_testbed_a() {
        // 48 field devices × 3 attempts = 144 distinct slots < 151: no two
        // devices share an application slot.
        let lengths = SlotframeLengths::paper();
        let s = DigsScheduler::new(NodeId(2), 2, lengths, 3);
        let mut used = std::collections::HashSet::new();
        for id in 2..50u16 {
            for p in 1..=3u8 {
                assert!(
                    used.insert(s.tx_slot(NodeId(id), p)),
                    "slot collision for node {id} attempt {p}"
                );
            }
        }
    }

    #[test]
    fn randomization_off_is_the_identity() {
        let s = example_scheduler(2);
        for asn in 0..50u64 {
            assert_eq!(s.scheduled_slot(NodeId(2), 1, Asn(asn)), s.tx_slot(NodeId(2), 1));
            assert_eq!(
                s.scheduled_offset(NodeId(2), 1, Asn(asn)),
                DigsScheduler::attempt_offset(NodeId(2), 1)
            );
        }
    }

    #[test]
    fn randomized_slots_stay_a_bijection_each_epoch() {
        let mut s = example_scheduler(2);
        s.set_randomize(Some(0xdead_beef));
        for epoch in 0..20u64 {
            let asn = Asn(epoch * 7);
            let mut seen = std::collections::HashSet::new();
            for logical in 0..7u32 {
                let phys = s.physical_slot(logical, asn);
                assert!(phys < 7);
                assert!(seen.insert(phys), "epoch {epoch}: physical slot {phys} reused");
                assert_eq!(s.logical_slot(phys, asn), logical, "inverse mismatch");
            }
        }
    }

    #[test]
    fn randomized_schedule_changes_across_epochs() {
        let mut s = DigsScheduler::new(NodeId(2), 2, SlotframeLengths::paper(), 3);
        s.set_randomize(Some(7));
        let placements: std::collections::HashSet<(u32, u8)> = (0..24u64)
            .map(|epoch| {
                let asn = Asn(epoch * 151);
                (s.scheduled_slot(NodeId(2), 1, asn), s.scheduled_offset(NodeId(2), 1, asn).0)
            })
            .collect();
        // 24 epochs over a 151 × 16 cell space: re-draws must not be stuck.
        assert!(placements.len() > 12, "only {} distinct placements", placements.len());
    }

    #[test]
    fn child_tx_and_parent_rx_cells_stay_aligned_under_randomization() {
        let nonce = Some(0x5eed);
        let mut child = example_scheduler(2);
        child.set_parents(Some(NodeId(0)), Some(NodeId(1)));
        child.set_randomize(nonce);
        let mut parent = example_scheduler(0);
        parent.add_child(NodeId(2), ParentSlot::Best);
        parent.set_randomize(nonce);
        let mut paired = 0;
        for asn in 0..4697u64 {
            let asn = Asn(asn);
            if let Some(tx) = child.cell(asn) {
                if let CellAction::TxData { .. } = tx.action {
                    // Whenever the child fires, the parent must be listening
                    // on the same channel offset (unless sync masked the
                    // parent's cell — its EB slot has priority).
                    if let Some(rx) = parent.cell(asn) {
                        if rx.action == CellAction::RxData {
                            assert_eq!(rx.offset, tx.offset, "offset mismatch at {asn:?}");
                            paired += 1;
                        }
                    }
                }
            }
        }
        assert!(paired > 1000, "only {paired} paired cells in a hyper-period");
    }

    #[test]
    fn infer_attempt_at_inverts_randomized_placement() {
        let mut s = example_scheduler(0);
        s.set_randomize(Some(42));
        for epoch in 0..10u64 {
            for p in 1..=3u8 {
                let slot = s.scheduled_slot(NodeId(2), p, Asn(epoch * 7));
                let asn = Asn(epoch * 7 + u64::from(slot));
                assert_eq!(s.infer_attempt_at(NodeId(2), asn), Some(p));
            }
        }
    }

    #[test]
    fn identical_nonces_give_identical_schedules() {
        let mk = || {
            let mut s = example_scheduler(2);
            s.set_parents(Some(NodeId(0)), Some(NodeId(1)));
            s.set_randomize(Some(99));
            s
        };
        let (a, b) = (mk(), mk());
        for asn in 0..4697u64 {
            assert_eq!(a.cell(Asn(asn)), b.cell(Asn(asn)));
        }
        // And the cache state never leaks into equality.
        assert_eq!(a, b);
    }

    /// The per-slot scan over own attempts and children that the compiled
    /// table replaced, kept as the table's reference.
    fn scanned_app_cell(s: &DigsScheduler, asn: Asn) -> Option<Cell> {
        let off = frame_offset(asn, s.lengths.app);
        let logical = s.logical_slot(off, asn);
        let cell = |action, base| Cell {
            class: TrafficClass::App,
            action,
            offset: s.cell_offset(base, off, asn),
            contention: false,
        };
        if !s.is_access_point() {
            for p in 1..=s.attempts {
                if logical == s.tx_slot(s.id, p) {
                    if let Some(to) = s.attempt_target(p) {
                        let action = CellAction::TxData { to, attempt: p };
                        return Some(cell(action, DigsScheduler::attempt_offset(s.id, p)));
                    }
                }
            }
        }
        for child in s.children.keys() {
            for p in 1..=s.attempts {
                if logical == s.tx_slot(*child, p) {
                    let base = DigsScheduler::attempt_offset(*child, p);
                    return Some(cell(CellAction::RxData, base));
                }
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
            SlotframeLengths { sync: 13, routing: 7, app: 5 },
        ];
        digs_cases::cases(200, |d| {
            let node = |d: &mut Draw| NodeId(d.int(0u16..40));
            let lengths = *d.pick(&lengths);
            let num_aps = d.int(1u16..=3);
            let attempts = d.int(1u8..=4);
            let mut s = DigsScheduler::new(node(d), num_aps, lengths, attempts);
            s.set_randomize(d.bool().then(|| d.u64()));
            for _ in 0..6 {
                // Grow, shrink and re-parent, so slots change hands between
                // claimants (small slotframes make children collide).
                for _ in 0..d.int(1..=4) {
                    let child = NodeId(num_aps + d.int(0u16..40));
                    match d.int(0..4) {
                        0 => s.remove_child(child),
                        1 => s.add_child(child, ParentSlot::SecondBest),
                        _ => s.add_child(child, ParentSlot::Best),
                    }
                }
                match d.int(0..4) {
                    0 => s.set_parents(None, None),
                    1 => s.set_parents(Some(node(d)), None),
                    2 => s.set_parents(Some(node(d)), Some(node(d))),
                    _ => {}
                }
                // A window that starts near the end of an epoch.
                let app = u64::from(lengths.app);
                let start = d.int(0u64..1 << 20) * app + app - 1 - d.int(0..app.min(4));
                for from in (start..start + 2 * app + 3).map(Asn) {
                    assert_eq!(s.app_cell(from), scanned_app_cell(&s, from), "{s:?} at {from}");
                    if s.randomize.is_some() {
                        randomized_wakes_and_listens(&mut s, from, d);
                        continue;
                    }
                    // Asked in: sync and routing cells, and own transmit
                    // cells while data is queued.
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

    /// A randomized scheduler at `from`, as a stack asking it there sees it:
    /// a layout of another epoch answers `from` itself; once laid out, the
    /// wake slots are the sync and routing cells, the own transmit cells
    /// while data is queued and the epoch's end, and the standing listens
    /// are exactly the receive cells [`DigsScheduler::cell`]'s definition
    /// puts in the epoch's slots. Now and then a child comes or goes
    /// mid-epoch, which re-lays the held epoch.
    fn randomized_wakes_and_listens(s: &mut DigsScheduler, from: Asn, d: &mut Draw) {
        let app = u64::from(s.lengths.app);
        let epoch = s.epoch_of(from);
        if s.placed_epoch != Some(epoch) {
            for has_data in [false, true] {
                assert_eq!(s.next_wake_cell(from, has_data), from, "stale layout {s:?} {from}");
            }
            s.place(from);
        }
        if d.int(0..8) == 0 {
            let child = NodeId(s.num_aps + d.int(0u16..40));
            if d.bool() {
                s.add_child(child, ParentSlot::Best);
            } else {
                s.remove_child(child);
            }
        }
        let (first, end) = (epoch * app, (epoch + 1) * app);
        for has_data in [false, true] {
            let named = |a: &u64| {
                *a == end
                    || s.cell(Asn(*a)).is_some_and(|cell| match cell.action {
                        CellAction::RxData => false,
                        CellAction::TxData { .. } => has_data,
                        _ => true,
                    })
            };
            let brute = (from.0..=end).find(named).map(Asn);
            assert_eq!(Some(s.next_wake_cell(from, has_data)), brute, "{s:?} {from}");
        }
        let listens = s.standing_listens();
        for a in (first..end).map(Asn) {
            let listen = s
                .app_cell(a)
                .and_then(|cell| (cell.action == CellAction::RxData).then_some(cell.offset));
            assert_eq!(listens.offset_at(a), listen, "placed cells of {s:?} at {a}");
        }
    }
}
