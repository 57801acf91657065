//! Topology analysis: connectivity structure of a deployment before any
//! protocol runs.
//!
//! Used by the harness to sanity-check generated layouts (is the network
//! connected at the configured power? how deep is it?) and to find
//! structurally critical relays (articulation points — the nodes whose
//! failure partitions the network, the hardest victims for Fig. 11-style
//! experiments).

use crate::ids::NodeId;
use crate::rf::{RfConfig, RSS_MIN};
use crate::topology::Topology;
use std::collections::VecDeque;

/// Static connectivity analysis of a topology under an RF configuration.
///
/// A link is considered usable when its mean RSS is at least the paper's
/// `RSSmin` (−90 dBm) — the same eligibility bar the routing layer applies.
#[derive(Debug, Clone)]
pub struct TopologyAnalysis {
    n: usize,
    adjacency: Vec<Vec<NodeId>>,
    hops_from_ap: Vec<Option<u32>>,
}

impl TopologyAnalysis {
    /// Analyses a topology under the given RF configuration.
    pub fn new(topology: &Topology, rf: &RfConfig) -> TopologyAnalysis {
        let n = topology.len();
        let mut adjacency = vec![Vec::new(); n];
        for a in topology.node_ids() {
            for b in topology.node_ids() {
                if a < b {
                    let mut loss = rf.path_loss_db(topology.distance(a, b));
                    loss += f64::from(
                        topology
                            .position(a)
                            .floors_between(&topology.position(b), rf.floor_height_m),
                    ) * rf.floor_attenuation_db;
                    if rf.tx_power.dbm() - loss >= RSS_MIN.dbm() {
                        adjacency[a.index()].push(b);
                        adjacency[b.index()].push(a);
                    }
                }
            }
        }
        // BFS hop counts from the access points.
        let mut hops_from_ap = vec![None; n];
        let mut queue = VecDeque::new();
        for ap in topology.access_points() {
            hops_from_ap[ap.index()] = Some(0);
            queue.push_back(ap);
        }
        while let Some(u) = queue.pop_front() {
            let d = hops_from_ap[u.index()].expect("enqueued with distance");
            for v in &adjacency[u.index()] {
                if hops_from_ap[v.index()].is_none() {
                    hops_from_ap[v.index()] = Some(d + 1);
                    queue.push_back(*v);
                }
            }
        }
        TopologyAnalysis { n, adjacency, hops_from_ap }
    }

    /// Usable-link neighbors of a node.
    pub fn neighbors(&self, node: NodeId) -> &[NodeId] {
        &self.adjacency[node.index()]
    }

    /// Degree (usable-link neighbor count) of a node.
    pub fn degree(&self, node: NodeId) -> usize {
        self.adjacency[node.index()].len()
    }

    /// Mean degree over all nodes.
    pub fn mean_degree(&self) -> f64 {
        let total: usize = self.adjacency.iter().map(Vec::len).sum();
        total as f64 / self.n as f64
    }

    /// Minimum hop distance from a node to any access point (`None` if the
    /// node is disconnected from the APs).
    pub fn hops_to_ap(&self, node: NodeId) -> Option<u32> {
        self.hops_from_ap[node.index()]
    }

    /// Whether every node can reach an access point over usable links.
    pub fn is_connected(&self) -> bool {
        self.hops_from_ap.iter().all(Option::is_some)
    }

    /// The deepest hop count in the network (`None` if disconnected).
    pub fn depth(&self) -> Option<u32> {
        if !self.is_connected() {
            return None;
        }
        self.hops_from_ap.iter().map(|h| h.expect("connected")).max()
    }

    /// Histogram of hop distances: `histogram[d]` = number of nodes at
    /// depth `d` (disconnected nodes are not counted).
    pub fn hop_histogram(&self) -> Vec<usize> {
        let mut hist = Vec::new();
        for h in self.hops_from_ap.iter().flatten() {
            let idx = *h as usize;
            if hist.len() <= idx {
                hist.resize(idx + 1, 0);
            }
            hist[idx] += 1;
        }
        hist
    }

    /// Articulation points: nodes whose removal disconnects some currently
    /// connected pair (classic Tarjan low-link computation, iterative).
    /// These are the structurally critical relays.
    pub fn articulation_points(&self) -> Vec<NodeId> {
        let n = self.n;
        let mut disc = vec![0usize; n];
        let mut low = vec![0usize; n];
        let mut visited = vec![false; n];
        let mut is_ap = vec![false; n];
        let mut timer = 1usize;

        for start in 0..n {
            if visited[start] {
                continue;
            }
            // Iterative DFS: stack of (node, parent, next-neighbor-index).
            let mut stack: Vec<(usize, usize, usize)> = vec![(start, usize::MAX, 0)];
            visited[start] = true;
            disc[start] = timer;
            low[start] = timer;
            timer += 1;
            let mut root_children = 0usize;
            while let Some(&mut (u, parent, ref mut next)) = stack.last_mut() {
                if *next < self.adjacency[u].len() {
                    let v = self.adjacency[u][*next].index();
                    *next += 1;
                    if !visited[v] {
                        visited[v] = true;
                        disc[v] = timer;
                        low[v] = timer;
                        timer += 1;
                        if u == start {
                            root_children += 1;
                        }
                        stack.push((v, u, 0));
                    } else if v != parent {
                        low[u] = low[u].min(disc[v]);
                    }
                } else {
                    stack.pop();
                    if let Some(&mut (p, _, _)) = stack.last_mut() {
                        low[p] = low[p].min(low[u]);
                        if p != start && low[u] >= disc[p] {
                            is_ap[p] = true;
                        }
                    }
                }
            }
            if root_children > 1 {
                is_ap[start] = true;
            }
        }
        (0..n).filter(|i| is_ap[*i]).map(|i| NodeId(i as u16)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::position::Position;
    use crate::topology::Role;

    /// AP — a — b — c chain with 12 m spacing (usable at indoor defaults).
    fn chain() -> Topology {
        Topology::new(
            "chain",
            (0..4).map(|i| Position::new(12.0 * f64::from(i), 0.0)).collect(),
            vec![Role::AccessPoint, Role::FieldDevice, Role::FieldDevice, Role::FieldDevice],
        )
    }

    #[test]
    fn chain_hops_and_depth() {
        let a = TopologyAnalysis::new(&chain(), &RfConfig::deterministic());
        assert!(a.is_connected());
        assert_eq!(a.hops_to_ap(NodeId(0)), Some(0));
        assert_eq!(a.hops_to_ap(NodeId(1)), Some(1));
        assert_eq!(a.hops_to_ap(NodeId(3)), Some(3));
        assert_eq!(a.depth(), Some(3));
        assert_eq!(a.hop_histogram(), vec![1, 1, 1, 1]);
    }

    #[test]
    fn chain_interior_nodes_are_articulation_points() {
        let a = TopologyAnalysis::new(&chain(), &RfConfig::deterministic());
        let aps = a.articulation_points();
        assert!(aps.contains(&NodeId(1)));
        assert!(aps.contains(&NodeId(2)));
        assert!(!aps.contains(&NodeId(0)), "chain end is not an articulation point");
        assert!(!aps.contains(&NodeId(3)));
    }

    #[test]
    fn disconnected_node_detected() {
        let topo = Topology::new(
            "island",
            vec![Position::new(0.0, 0.0), Position::new(12.0, 0.0), Position::new(500.0, 500.0)],
            vec![Role::AccessPoint, Role::FieldDevice, Role::FieldDevice],
        );
        let a = TopologyAnalysis::new(&topo, &RfConfig::deterministic());
        assert!(!a.is_connected());
        assert_eq!(a.depth(), None);
        assert_eq!(a.hops_to_ap(NodeId(2)), None);
    }

    #[test]
    fn testbed_a_is_connected_and_shallow() {
        let a = TopologyAnalysis::new(&Topology::testbed_a(), &RfConfig::deterministic());
        assert!(a.is_connected());
        let depth = a.depth().expect("connected");
        assert!((1..=6).contains(&depth), "depth {depth}");
        assert!(a.mean_degree() > 4.0);
    }

    #[test]
    fn dense_testbed_has_no_articulation_points_in_core() {
        // A 50-node office floor is redundant enough that few (often no)
        // field devices are single points of failure.
        let a = TopologyAnalysis::new(&Topology::testbed_a(), &RfConfig::deterministic());
        assert!(a.articulation_points().len() <= 5);
    }

    #[test]
    fn two_floor_building_crosses_floors() {
        let a = TopologyAnalysis::new(&Topology::testbed_b(), &RfConfig::deterministic());
        assert!(a.is_connected(), "floor penetration must not partition Testbed B");
        assert!(a.depth().expect("connected") >= 2);
    }
}
