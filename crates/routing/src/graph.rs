//! Routing-graph snapshots and structural validation.
//!
//! A [`RoutingGraph`] captures, at one instant, every node's parent set.
//! The experiment harness snapshots the distributed state to measure repair
//! convergence; tests use the validators to check the WirelessHART
//! structural requirements (DAG-ness, ≥ 2 outgoing paths, reachability).

use crate::messages::Rank;
use digs_sim::ids::NodeId;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// One node's entry in a routing-graph snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GraphEntry {
    /// Primary (best) parent.
    pub best: Option<NodeId>,
    /// Backup (second-best) parent.
    pub second: Option<NodeId>,
    /// The node's rank at snapshot time.
    pub rank: Rank,
}

/// A snapshot of the whole network's routing state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoutingGraph {
    roots: BTreeSet<NodeId>,
    entries: BTreeMap<NodeId, GraphEntry>,
}

impl RoutingGraph {
    /// Creates an empty snapshot with the given roots (access points).
    pub fn new(roots: impl IntoIterator<Item = NodeId>) -> RoutingGraph {
        RoutingGraph { roots: roots.into_iter().collect(), entries: BTreeMap::new() }
    }

    /// Records one node's parents.
    pub fn insert(&mut self, node: NodeId, entry: GraphEntry) {
        self.entries.insert(node, entry);
    }

    /// The access points.
    pub fn roots(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.roots.iter().copied()
    }

    /// Looks up one node's entry.
    pub fn entry(&self, node: NodeId) -> Option<&GraphEntry> {
        self.entries.get(&node)
    }

    /// All recorded field devices.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.entries.keys().copied()
    }

    /// Number of recorded field devices.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the snapshot records no devices.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Outgoing parents of a node (0, 1, or 2).
    pub fn parents(&self, node: NodeId) -> Vec<NodeId> {
        match self.entries.get(&node) {
            None => Vec::new(),
            Some(e) => e.best.into_iter().chain(e.second).collect(),
        }
    }

    /// Whether every joined node can reach a root by following parent
    /// links (primary or backup).
    pub fn all_reachable(&self) -> bool {
        self.unreachable_nodes().is_empty()
    }

    /// Joined nodes that cannot reach any root.
    pub fn unreachable_nodes(&self) -> Vec<NodeId> {
        // BFS backwards from the roots over the reversed parent relation.
        let mut reach: BTreeSet<NodeId> = self.roots.clone();
        let mut queue: VecDeque<NodeId> = self.roots.iter().copied().collect();
        // children[p] = nodes with p as a parent
        let mut children: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
        for (node, e) in &self.entries {
            for p in e.best.into_iter().chain(e.second) {
                children.entry(p).or_default().push(*node);
            }
        }
        while let Some(p) = queue.pop_front() {
            if let Some(kids) = children.get(&p) {
                for k in kids {
                    if reach.insert(*k) {
                        queue.push_back(*k);
                    }
                }
            }
        }
        self.entries
            .iter()
            .filter(|(node, e)| e.best.is_some() && !reach.contains(node))
            .map(|(node, _)| *node)
            .collect()
    }

    /// Whether the graph is acyclic over the union of primary and backup
    /// edges.
    pub fn is_dag(&self) -> bool {
        // Kahn's algorithm over parent edges node→parent.
        let mut out_degree: BTreeMap<NodeId, usize> = BTreeMap::new();
        let mut incoming: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
        let mut all: BTreeSet<NodeId> = self.roots.clone();
        for (node, e) in &self.entries {
            all.insert(*node);
            let parents: Vec<NodeId> = e.best.into_iter().chain(e.second).collect();
            out_degree.insert(*node, parents.len());
            for p in parents {
                all.insert(p);
                incoming.entry(p).or_default().push(*node);
            }
        }
        let mut queue: VecDeque<NodeId> =
            all.iter().filter(|n| out_degree.get(n).copied().unwrap_or(0) == 0).copied().collect();
        let mut removed = 0usize;
        while let Some(n) = queue.pop_front() {
            removed += 1;
            if let Some(deps) = incoming.get(&n) {
                for d in deps.clone() {
                    let deg = out_degree.get_mut(&d).expect("known node");
                    *deg -= 1;
                    if *deg == 0 {
                        queue.push_back(d);
                    }
                }
            }
        }
        removed == all.len()
    }

    /// Whether every joined node satisfies WirelessHART's requirement of at
    /// least two outgoing paths (where it has an eligible second parent —
    /// rank-2 nodes adjacent only to the APs may legitimately have just
    /// one in sparse corners, so callers decide how strict to be).
    pub fn fraction_with_backup(&self) -> f64 {
        let joined: Vec<&GraphEntry> = self.entries.values().filter(|e| e.best.is_some()).collect();
        if joined.is_empty() {
            return 0.0;
        }
        joined.iter().filter(|e| e.second.is_some()).count() as f64 / joined.len() as f64
    }

    /// Fraction of recorded nodes that are joined (have a best parent).
    pub fn fraction_joined(&self) -> f64 {
        if self.entries.is_empty() {
            return 0.0;
        }
        self.entries.values().filter(|e| e.best.is_some()).count() as f64
            / self.entries.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(best: Option<u16>, second: Option<u16>, rank: u16) -> GraphEntry {
        GraphEntry { best: best.map(NodeId), second: second.map(NodeId), rank: Rank(rank) }
    }

    /// The paper's Fig. 6 example: APs 0, 1 (standing in for AP1/AP2);
    /// devices 3–6 with primary #3→#4→#6→AP2, #5→AP1 and backups
    /// #3→#5, #4→#5, #5→AP2, #6→AP1.
    fn figure6() -> RoutingGraph {
        let mut g = RoutingGraph::new([NodeId(0), NodeId(1)]);
        g.insert(NodeId(5), entry(Some(0), Some(1), 2));
        g.insert(NodeId(6), entry(Some(1), Some(0), 2));
        g.insert(NodeId(4), entry(Some(6), Some(5), 3));
        g.insert(NodeId(3), entry(Some(4), Some(5), 4));
        g
    }

    #[test]
    fn figure6_is_valid() {
        let g = figure6();
        assert!(g.is_dag());
        assert!(g.all_reachable());
        assert_eq!(g.fraction_with_backup(), 1.0);
        assert_eq!(g.fraction_joined(), 1.0);
        assert_eq!(g.parents(NodeId(3)), vec![NodeId(4), NodeId(5)]);
    }

    #[test]
    fn cycle_is_detected() {
        let mut g = RoutingGraph::new([NodeId(0)]);
        g.insert(NodeId(2), entry(Some(3), None, 2));
        g.insert(NodeId(3), entry(Some(2), None, 3));
        assert!(!g.is_dag());
    }

    #[test]
    fn two_cycle_through_backup_detected() {
        let mut g = RoutingGraph::new([NodeId(0)]);
        g.insert(NodeId(2), entry(Some(0), Some(3), 2));
        g.insert(NodeId(3), entry(Some(0), Some(2), 2));
        assert!(!g.is_dag());
    }

    #[test]
    fn orphan_is_unreachable() {
        let mut g = RoutingGraph::new([NodeId(0)]);
        g.insert(NodeId(2), entry(Some(0), None, 2));
        g.insert(NodeId(3), entry(Some(9), None, 3)); // parent 9 is not attached
        assert!(!g.all_reachable());
        assert_eq!(g.unreachable_nodes(), vec![NodeId(3)]);
    }

    #[test]
    fn detached_node_not_counted_unreachable() {
        let mut g = RoutingGraph::new([NodeId(0)]);
        g.insert(NodeId(2), entry(None, None, u16::MAX));
        // Detached (no best parent) is "not joined", not "unreachable".
        assert!(g.all_reachable());
        assert_eq!(g.fraction_joined(), 0.0);
    }

    #[test]
    fn empty_graph() {
        let g = RoutingGraph::new([NodeId(0)]);
        assert!(g.is_empty());
        assert!(g.is_dag());
        assert!(g.all_reachable());
        assert_eq!(g.fraction_with_backup(), 0.0);
    }

    #[test]
    fn backup_fraction_counts_only_joined() {
        let mut g = RoutingGraph::new([NodeId(0)]);
        g.insert(NodeId(2), entry(Some(0), Some(1), 2));
        g.insert(NodeId(3), entry(Some(0), None, 2));
        g.insert(NodeId(4), entry(None, None, u16::MAX));
        assert!((g.fraction_with_backup() - 0.5).abs() < 1e-12);
    }
}
