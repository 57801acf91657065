//! Slotframes, traffic classes, cells, and schedule combination.
//!
//! Following Orchestra's design (adopted by DiGS), the network traffic is
//! separated into three classes, each with its own slotframe whose lengths
//! are chosen **mutually coprime** so that every pairwise slot alignment
//! recurs and no class is starved after priority combination.

use core::fmt;
use digs_sim::channel::ChannelOffset;
use digs_sim::ids::NodeId;
use digs_sim::time::Asn;

/// The three traffic classes, in descending combination priority
/// (paper Section VI: "The most critical synchronization traffic has the
/// highest priority, while the application traffic has the lowest").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TrafficClass {
    /// Time synchronization (Enhanced Beacons). Highest priority.
    Sync,
    /// Routing signalling (join-in / DIO).
    Routing,
    /// Application data. Lowest priority.
    App,
}

impl fmt::Display for TrafficClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TrafficClass::Sync => "sync",
            TrafficClass::Routing => "routing",
            TrafficClass::App => "app",
        };
        f.write_str(s)
    }
}

/// The three slotframe lengths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotframeLengths {
    /// Synchronization slotframe length, in slots.
    pub sync: u32,
    /// Routing slotframe length, in slots.
    pub routing: u32,
    /// Application slotframe length, in slots.
    pub app: u32,
}

impl SlotframeLengths {
    /// The paper's experimental configuration: 557 / 47 / 151.
    pub fn paper() -> SlotframeLengths {
        SlotframeLengths { sync: 557, routing: 47, app: 151 }
    }

    /// The paper's worked example (Fig. 7): 61 / 11 / 7.
    pub fn example() -> SlotframeLengths {
        SlotframeLengths { sync: 61, routing: 11, app: 7 }
    }

    /// Validates that the lengths are positive and pairwise coprime.
    pub fn validate(&self) -> Result<(), SlotframeError> {
        for (name, len) in [("sync", self.sync), ("routing", self.routing), ("app", self.app)] {
            if len == 0 {
                return Err(SlotframeError::ZeroLength { which: name });
            }
        }
        for (a, b, names) in [
            (self.sync, self.routing, ("sync", "routing")),
            (self.sync, self.app, ("sync", "app")),
            (self.routing, self.app, ("routing", "app")),
        ] {
            if gcd(a, b) != 1 {
                return Err(SlotframeError::NotCoprime { a: names.0, b: names.1 });
            }
        }
        Ok(())
    }

    /// The hyper-period after which the combined schedule repeats
    /// (product of the three lengths when coprime).
    pub fn hyper_period(&self) -> u64 {
        u64::from(self.sync) * u64::from(self.routing) * u64::from(self.app)
    }
}

/// Errors from [`SlotframeLengths::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotframeError {
    /// A slotframe length was zero.
    ZeroLength {
        /// Which slotframe.
        which: &'static str,
    },
    /// Two slotframe lengths share a common factor.
    NotCoprime {
        /// First slotframe.
        a: &'static str,
        /// Second slotframe.
        b: &'static str,
    },
}

impl fmt::Display for SlotframeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SlotframeError::ZeroLength { which } => {
                write!(f, "{which} slotframe length must be positive")
            }
            SlotframeError::NotCoprime { a, b } => {
                write!(f, "{a} and {b} slotframe lengths must be coprime")
            }
        }
    }
}

impl std::error::Error for SlotframeError {}

fn gcd(mut a: u32, mut b: u32) -> u32 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// What a cell asks the node to do with its radio.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellAction {
    /// Broadcast an Enhanced Beacon.
    TxBeacon,
    /// Listen for the best parent's (time source's) Enhanced Beacon.
    RxBeacon {
        /// The time source whose beacon we expect.
        from: NodeId,
    },
    /// The shared routing cell: transmit pending routing traffic with
    /// CSMA/CA, otherwise listen.
    Shared,
    /// Transmit application data to a parent (dedicated or
    /// receiver-arbitrated, see [`Cell::contention`]).
    TxData {
        /// Next-hop parent.
        to: NodeId,
        /// Which transmission attempt this cell carries (1-based;
        /// WirelessHART sends attempts 1–2 on the primary route and
        /// attempt 3 on the backup route).
        attempt: u8,
    },
    /// Listen for application data from children.
    RxData,
}

/// A fully resolved cell for one slot, after schedule combination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// Which traffic class won this slot.
    pub class: TrafficClass,
    /// The action to perform.
    pub action: CellAction,
    /// TSCH channel offset for the cell.
    pub offset: ChannelOffset,
    /// Whether transmissions in this cell contend (CSMA/CA).
    pub contention: bool,
}

/// Combines per-class candidate cells by priority: sync > routing > app
/// (paper Section VI, "Schedule Combination"). Returns `None` when every
/// class is idle this slot (the node sleeps).
pub fn combine(sync: Option<Cell>, routing: Option<Cell>, app: Option<Cell>) -> Option<Cell> {
    sync.or(routing).or(app)
}

/// Derives the channel offset used by a node's sender-owned cells
/// (beacons, DiGS data cells): a per-node offset spreads concurrent cells
/// across the 16 channels.
pub fn node_offset(id: NodeId) -> ChannelOffset {
    ChannelOffset::new((id.0 % 16) as u8)
}

/// The channel offset of the common shared routing cell.
pub const ROUTING_OFFSET: ChannelOffset = ChannelOffset(1);

/// The slot index (within the routing slotframe) of the common shared
/// routing cell.
pub const ROUTING_SLOT: u32 = 0;

/// Slot offset of a slotframe at an ASN.
pub fn frame_offset(asn: Asn, len: u32) -> u32 {
    asn.slotframe_offset(len)
}

/// The first slot at or after `from` whose offset in a slotframe of `len`
/// slots is `slot` (`slot < len`).
pub fn next_at(from: Asn, len: u32, slot: u32) -> Asn {
    from + u64::from((slot + len - frame_offset(from, len)) % len)
}

/// The first slot at or after `from` that holds node `id`'s own EB cell, the
/// EB cell of its time source, or the shared routing cell — the cells both
/// schedulers lay out alike. The own EB slot recurs every sync slotframe,
/// so there always is one.
pub(crate) fn next_sync_or_routing_cell(
    from: Asn,
    lengths: SlotframeLengths,
    id: NodeId,
    time_source: Option<NodeId>,
) -> Asn {
    let sync = lengths.sync;
    let off = frame_offset(from, sync);
    let until = |node: NodeId| (u32::from(node.0) % sync + sync - off) % sync;
    let eb = time_source.map_or(until(id), |source| until(id).min(until(source)));
    (from + u64::from(eb)).min(next_at(from, lengths.routing, ROUTING_SLOT))
}

/// A node's application cells for one slotframe, compiled from its parent
/// and child set so that a slot is resolved by one binary search and the
/// next occupied slot by another, with no walk over the children.
///
/// Claimants are entered in priority order and the **first claimant of a
/// slot keeps it** (a node's own transmit cells before its children's
/// receive cells, children in id order) — the order the schedulers'
/// per-slot scans used to resolve a clash in. The table is rebuilt when
/// the set of claimants changes and never per slot.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct CellTable {
    /// `(slot, cell)`, sorted by slot, one entry per slot.
    cells: Vec<(u32, Cell)>,
    /// The slots of the cells that transmit, ascending: the only ones a
    /// node with data queued has to be asked in.
    transmits: Vec<u32>,
    /// `(slot, offset)` of the cells that receive, ascending by slot: what
    /// the radio does unasked (the engine's `StandingListens::Cells`).
    listens: Vec<(u32, ChannelOffset)>,
    /// How many times the table was rebuilt.
    version: u32,
}

impl CellTable {
    /// Empties the table for a rebuild.
    pub fn clear(&mut self) {
        self.cells.clear();
        self.transmits.clear();
        self.listens.clear();
        self.version = self.version.wrapping_add(1);
    }

    /// Enters `cell` at `slot` unless an earlier claimant holds the slot.
    pub fn claim(&mut self, slot: u32, cell: Cell) {
        let Err(at) = self.cells.binary_search_by_key(&slot, |(s, _)| *s) else {
            return;
        };
        self.cells.insert(at, (slot, cell));
        match cell.action {
            CellAction::TxData { .. } => {
                let at = self.transmits.partition_point(|s| *s < slot);
                self.transmits.insert(at, slot);
            }
            CellAction::RxData => {
                let at = self.listens.partition_point(|(s, _)| *s < slot);
                self.listens.insert(at, (slot, cell.offset));
            }
            _ => unreachable!("application cells transmit or receive data"),
        }
    }

    /// The cell at `slot`.
    pub fn get(&self, slot: u32) -> Option<Cell> {
        let at = self.cells.binary_search_by_key(&slot, |(s, _)| *s).ok()?;
        Some(self.cells[at].1)
    }

    /// The `(slot, cell)` entries, ascending by slot.
    pub fn entries(&self) -> &[(u32, Cell)] {
        &self.cells
    }

    /// The receive cells, ascending by slot.
    pub fn listens(&self) -> &[(u32, ChannelOffset)] {
        &self.listens
    }

    /// Differs between two tables whose [`Self::listens`] differ.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The first slot at or after `from` that holds a transmit cell, in a
    /// slotframe of `len` slots (`None`: the table has none).
    pub fn next_transmit(&self, from: Asn, len: u32) -> Option<Asn> {
        let off = frame_offset(from, len);
        let at = self.transmits.partition_point(|s| *s < off);
        // Past the last one of this frame the first of the next is due.
        let slot = self.transmits.get(at).or(self.transmits.first())?;
        Some(next_at(from, len, *slot))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_lengths_are_coprime() {
        assert_eq!(SlotframeLengths::paper().validate(), Ok(()));
        assert_eq!(SlotframeLengths::example().validate(), Ok(()));
    }

    #[test]
    fn example_hyper_period_matches_paper() {
        // The paper: 61 × 11 × 7 = 4697 slots.
        assert_eq!(SlotframeLengths::example().hyper_period(), 4697);
    }

    #[test]
    fn non_coprime_rejected() {
        let l = SlotframeLengths { sync: 10, routing: 4, app: 7 };
        assert_eq!(l.validate(), Err(SlotframeError::NotCoprime { a: "sync", b: "routing" }));
    }

    #[test]
    fn zero_length_rejected() {
        let l = SlotframeLengths { sync: 0, routing: 4, app: 7 };
        assert_eq!(l.validate(), Err(SlotframeError::ZeroLength { which: "sync" }));
    }

    #[test]
    fn combination_priority_order() {
        let mk = |class| Cell {
            class,
            action: CellAction::TxBeacon,
            offset: ChannelOffset::new(0),
            contention: false,
        };
        let sync = Some(mk(TrafficClass::Sync));
        let routing = Some(mk(TrafficClass::Routing));
        let app = Some(mk(TrafficClass::App));
        assert_eq!(combine(sync, routing, app).map(|c| c.class), Some(TrafficClass::Sync));
        assert_eq!(combine(None, routing, app).map(|c| c.class), Some(TrafficClass::Routing));
        assert_eq!(combine(None, None, app).map(|c| c.class), Some(TrafficClass::App));
        assert_eq!(combine(None, None, None), None);
    }

    #[test]
    fn traffic_class_priority_matches_ord() {
        assert!(TrafficClass::Sync < TrafficClass::Routing);
        assert!(TrafficClass::Routing < TrafficClass::App);
    }

    #[test]
    fn node_offsets_spread() {
        assert_eq!(node_offset(NodeId(0)), ChannelOffset(0));
        assert_eq!(node_offset(NodeId(5)), ChannelOffset(5));
        assert_eq!(node_offset(NodeId(21)), ChannelOffset(5));
    }

    #[test]
    fn gcd_works() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(7, 13), 1);
        assert_eq!(gcd(0, 5), 5);
    }

    #[test]
    fn display_strings() {
        assert_eq!(TrafficClass::Sync.to_string(), "sync");
        assert_eq!(
            SlotframeError::ZeroLength { which: "app" }.to_string(),
            "app slotframe length must be positive"
        );
    }
}
