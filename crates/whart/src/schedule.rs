//! Centralized convergecast TDMA schedule construction.
//!
//! The Network Manager allocates dedicated `(slot, channel-offset)` cells
//! along every data flow's route: two attempts per hop on the primary path
//! plus one attempt toward the backup parent, each hop strictly after the
//! previous one so a packet generated at the start of the superframe
//! reaches an access point within it. Cells are conflict-free: a node is
//! never scheduled twice in a slot and a `(slot, offset)` pair is never
//! reused.

use core::fmt;
use digs_routing::graph::RoutingGraph;
use digs_sim::channel::{ChannelOffset, NUM_CHANNELS};
use digs_sim::ids::{FlowId, NodeId};
use std::collections::{BTreeMap, BTreeSet};

/// One dedicated cell in the central schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CentralCell {
    /// Slot within the superframe.
    pub slot: u32,
    /// TSCH channel offset.
    pub offset: ChannelOffset,
    /// Transmitting node.
    pub tx: NodeId,
    /// Receiving node.
    pub rx: NodeId,
    /// Flow the cell serves.
    pub flow: FlowId,
    /// Attempt number (1–2 primary, 3 backup).
    pub attempt: u8,
}

/// Errors from central schedule construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// A flow's source has no route in the graph.
    UnroutedSource {
        /// The offending source.
        source: NodeId,
    },
    /// The superframe is too short to fit every flow.
    SuperframeFull {
        /// The flow that did not fit.
        flow: FlowId,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::UnroutedSource { source } => {
                write!(f, "flow source {source} has no route to an access point")
            }
            ScheduleError::SuperframeFull { flow } => {
                write!(f, "superframe too short to schedule {flow}")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// A centrally computed superframe schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct CentralSchedule {
    length: u32,
    cells: Vec<CentralCell>,
}

impl CentralSchedule {
    /// Builds the schedule for the given flows over the routing graph.
    ///
    /// `sources` lists each flow's source device; flow *i* gets
    /// [`FlowId`]`(i)`. Each hop gets two primary attempts and, where a
    /// backup parent exists, one backup attempt; the packet then continues
    /// from the primary parent.
    ///
    /// # Errors
    ///
    /// Returns an error if a source is unrouted or the superframe is full.
    ///
    /// # Panics
    ///
    /// Panics if `length` is zero.
    pub fn build(
        graph: &RoutingGraph,
        sources: &[NodeId],
        length: u32,
    ) -> Result<CentralSchedule, ScheduleError> {
        assert!(length > 0, "superframe length must be positive");
        let roots: BTreeSet<NodeId> = graph.roots().collect();
        let mut cells = Vec::new();
        // busy[slot] = nodes occupied in that slot; used (slot, offset) pairs.
        let mut busy: BTreeMap<u32, BTreeSet<NodeId>> = BTreeMap::new();
        let mut used: BTreeSet<(u32, u8)> = BTreeSet::new();

        for (i, src) in sources.iter().enumerate() {
            let flow = FlowId(i as u16);
            let mut node = *src;
            let mut prev_slot: Option<u32> = None;
            while !roots.contains(&node) {
                let entry = graph
                    .entry(node)
                    .filter(|e| e.best.is_some())
                    .ok_or(ScheduleError::UnroutedSource { source: *src })?;
                let best = entry.best.expect("filtered");
                // Two primary attempts, then one backup attempt if present.
                let mut hop_targets = vec![(best, 1u8), (best, 2)];
                if let Some(second) = entry.second {
                    hop_targets.push((second, 3));
                }
                for (target, attempt) in hop_targets {
                    let slot =
                        Self::allocate(length, prev_slot, node, target, &mut busy, &mut used)
                            .ok_or(ScheduleError::SuperframeFull { flow })?;
                    let offset = Self::free_offset(slot, &used).expect("checked in allocate");
                    used.insert((slot, offset.0));
                    busy.entry(slot).or_default().extend([node, target]);
                    cells.push(CentralCell { slot, offset, tx: node, rx: target, flow, attempt });
                    // The packet progresses from the *primary* attempts.
                    if attempt <= 2 {
                        prev_slot = Some(slot);
                    }
                }
                node = best;
            }
        }
        cells.sort_by_key(|c| (c.slot, c.offset.0));
        Ok(CentralSchedule { length, cells })
    }

    /// First slot strictly after `prev_slot` where both nodes are free and
    /// a channel offset remains.
    fn allocate(
        length: u32,
        prev_slot: Option<u32>,
        a: NodeId,
        b: NodeId,
        busy: &mut BTreeMap<u32, BTreeSet<NodeId>>,
        used: &mut BTreeSet<(u32, u8)>,
    ) -> Option<u32> {
        let start = prev_slot.map_or(0, |s| s + 1);
        (start..length).find(|slot| {
            let nodes_free =
                busy.get(slot).is_none_or(|set| !set.contains(&a) && !set.contains(&b));
            nodes_free && Self::free_offset(*slot, used).is_some()
        })
    }

    fn free_offset(slot: u32, used: &BTreeSet<(u32, u8)>) -> Option<ChannelOffset> {
        (0..NUM_CHANNELS).find(|off| !used.contains(&(slot, *off))).map(ChannelOffset)
    }

    /// Superframe length in slots.
    pub fn length(&self) -> u32 {
        self.length
    }

    /// All cells, ordered by slot then offset.
    pub fn cells(&self) -> &[CentralCell] {
        &self.cells
    }

    /// Cells involving a node (as transmitter or receiver) — the portion of
    /// the schedule the manager must disseminate to that device.
    pub fn cells_of(&self, node: NodeId) -> Vec<&CentralCell> {
        self.cells.iter().filter(|c| c.tx == node || c.rx == node).collect()
    }

    /// Validates conflict-freedom (used in tests and debug assertions).
    pub fn is_conflict_free(&self) -> bool {
        let mut node_busy = BTreeSet::new();
        let mut ch_busy = BTreeSet::new();
        for c in &self.cells {
            if !node_busy.insert((c.slot, c.tx)) || !node_busy.insert((c.slot, c.rx)) {
                return false;
            }
            if !ch_busy.insert((c.slot, c.offset.0)) {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use digs_routing::graph::GraphEntry;
    use digs_routing::messages::Rank;

    /// AP 0, AP 1; chain 2→0, 3→2 (backup 0), 4→3 (backup 2).
    fn graph() -> RoutingGraph {
        let mut g = RoutingGraph::new([NodeId(0), NodeId(1)]);
        g.insert(
            NodeId(2),
            GraphEntry { best: Some(NodeId(0)), second: Some(NodeId(1)), rank: Rank(2) },
        );
        g.insert(
            NodeId(3),
            GraphEntry { best: Some(NodeId(2)), second: Some(NodeId(0)), rank: Rank(3) },
        );
        g.insert(
            NodeId(4),
            GraphEntry { best: Some(NodeId(3)), second: Some(NodeId(2)), rank: Rank(4) },
        );
        g
    }

    #[test]
    fn single_flow_schedules_along_path() {
        let s = CentralSchedule::build(&graph(), &[NodeId(4)], 100).expect("fits");
        assert!(s.is_conflict_free());
        // 3 hops × 3 attempts = 9 cells.
        assert_eq!(s.cells().len(), 9);
        // Slots strictly increase along the primary path.
        let primary: Vec<u32> =
            s.cells().iter().filter(|c| c.attempt == 1).map(|c| c.slot).collect();
        assert!(primary.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn multiple_flows_do_not_conflict() {
        let s = CentralSchedule::build(&graph(), &[NodeId(4), NodeId(3), NodeId(2)], 200)
            .expect("fits");
        assert!(s.is_conflict_free());
    }

    #[test]
    fn backup_attempt_targets_second_parent() {
        let s = CentralSchedule::build(&graph(), &[NodeId(2)], 100).expect("fits");
        let backup = s.cells().iter().find(|c| c.attempt == 3).expect("backup cell");
        assert_eq!(backup.rx, NodeId(1));
    }

    #[test]
    fn superframe_too_small_errors() {
        let err = CentralSchedule::build(&graph(), &[NodeId(4)], 3).expect_err("cannot fit");
        assert!(matches!(err, ScheduleError::SuperframeFull { .. }));
    }

    #[test]
    fn unrouted_source_errors() {
        let mut g = graph();
        g.insert(NodeId(9), GraphEntry { best: None, second: None, rank: Rank::INFINITE });
        let err = CentralSchedule::build(&g, &[NodeId(9)], 100).expect_err("no route");
        assert_eq!(err, ScheduleError::UnroutedSource { source: NodeId(9) });
    }

    #[test]
    fn cells_of_node_cover_tx_and_rx() {
        let s = CentralSchedule::build(&graph(), &[NodeId(4)], 100).expect("fits");
        let of3 = s.cells_of(NodeId(3));
        assert!(of3.iter().any(|c| c.tx == NodeId(3)));
        assert!(of3.iter().any(|c| c.rx == NodeId(3)));
    }
}
