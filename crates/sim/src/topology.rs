//! Network topologies: node placements and deterministic testbed layouts.
//!
//! The paper evaluates on two physical testbeds and one Cooja-scale layout:
//!
//! - **Testbed A**: 50 TelosB motes on the second floor of a building at
//!   SUNY Binghamton.
//! - **Testbed B**: 44 TelosB motes spanning two floors at Washington
//!   University in St. Louis.
//! - **Cooja layout**: 150 nodes + 2 access points in a 300 m × 300 m area.
//!
//! We do not have the buildings' floor plans, so the layouts here are
//! deterministic synthetic equivalents: office-corridor grids with the same
//! node counts, two wired access points, and enough density that every node
//! has several plausible parents — the property the evaluation actually
//! depends on.

use crate::ids::NodeId;
use crate::position::Position;
use crate::rng;

/// The role a device plays in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// Wired access point (WirelessHART gateway attachment); roots the
    /// routing graph. The paper uses two per network.
    AccessPoint,
    /// Battery-powered field device (sensor or actuator).
    FieldDevice,
}

/// An immutable network topology: device roles and physical placement.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    name: String,
    positions: Vec<Position>,
    roles: Vec<Role>,
}

impl Topology {
    /// Builds a topology from explicit placements.
    ///
    /// # Panics
    ///
    /// Panics if `positions` and `roles` have different lengths, if there are
    /// no access points, or if there are more than `u16::MAX` nodes.
    pub fn new(name: impl Into<String>, positions: Vec<Position>, roles: Vec<Role>) -> Topology {
        assert_eq!(positions.len(), roles.len(), "positions/roles length mismatch");
        assert!(positions.len() <= usize::from(u16::MAX), "too many nodes");
        assert!(roles.contains(&Role::AccessPoint), "topology needs at least one access point");
        Topology { name: name.into(), positions, roles }
    }

    /// Human-readable layout name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total number of devices (access points + field devices).
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Returns `true` if the topology has no devices (never true for
    /// constructed topologies, which require an access point).
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Position of a node.
    pub fn position(&self, id: NodeId) -> Position {
        self.positions[id.index()]
    }

    /// Role of a node.
    pub fn role(&self, id: NodeId) -> Role {
        self.roles[id.index()]
    }

    /// Whether `id` is an access point.
    pub fn is_access_point(&self, id: NodeId) -> bool {
        self.roles[id.index()] == Role::AccessPoint
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.positions.len() as u16).map(NodeId)
    }

    /// Ids of the access points.
    pub fn access_points(&self) -> Vec<NodeId> {
        self.node_ids().filter(|id| self.is_access_point(*id)).collect()
    }

    /// Ids of the field devices.
    pub fn field_devices(&self) -> Vec<NodeId> {
        self.node_ids().filter(|id| !self.is_access_point(*id)).collect()
    }

    /// Number of access points.
    pub fn num_access_points(&self) -> usize {
        self.roles.iter().filter(|r| **r == Role::AccessPoint).count()
    }

    /// Euclidean distance between two nodes, in meters.
    pub fn distance(&self, a: NodeId, b: NodeId) -> f64 {
        self.positions[a.index()].distance(&self.positions[b.index()])
    }

    /// The paper's Testbed A stand-in: 50 motes (2 access points + 48 field
    /// devices) on one floor of a 60 m × 30 m office building.
    pub fn testbed_a() -> Topology {
        Self::office_floor("testbed-a", 50, 60.0, 30.0, 0xA)
    }

    /// The first-floor half of Testbed A used in the empirical study
    /// (20 nodes).
    pub fn testbed_a_half() -> Topology {
        Self::office_floor("testbed-a-half", 20, 30.0, 30.0, 0xA)
    }

    /// The paper's Testbed B stand-in: 44 motes spanning two floors of a
    /// 45 m × 25 m building (2 access points on the lower floor).
    pub fn testbed_b() -> Topology {
        Self::two_floor_building("testbed-b", 44, 45.0, 25.0, 0xB)
    }

    /// The one-floor half of Testbed B used in the empirical study (19 nodes).
    pub fn testbed_b_half() -> Topology {
        Self::office_floor("testbed-b-half", 19, 30.0, 25.0, 0xB)
    }

    /// The Cooja-scale layout: `n` nodes + 2 access points placed uniformly
    /// at random (deterministically from `seed`) in a `side` × `side` meter
    /// area, with the access points near the center-west and center-east.
    pub fn random_area(n: usize, side: f64, seed: u64) -> Topology {
        assert!(n >= 1, "need at least one field device");
        let mut positions =
            vec![Position::new(side * 0.25, side * 0.5), Position::new(side * 0.75, side * 0.5)];
        let mut roles = vec![Role::AccessPoint, Role::AccessPoint];
        for i in 0..n {
            let x = rng::uniform01(seed, i as u64, 1, 0) * side;
            let y = rng::uniform01(seed, i as u64, 2, 0) * side;
            positions.push(Position::new(x, y));
            roles.push(Role::FieldDevice);
        }
        Topology::new(format!("random-{}x{:.0}m", n, side), positions, roles)
    }

    /// The paper's 150-node Cooja simulation layout (300 m × 300 m).
    pub fn cooja_150(seed: u64) -> Topology {
        Self::random_area(150, 300.0, seed)
    }

    /// Deterministic single-floor office layout: nodes along corridor rows
    /// with mild per-node jitter; access points at the two ends of the main
    /// corridor (maximising the radio diversity the two APs provide).
    fn office_floor(name: &str, total: usize, width: f64, depth: f64, salt: u64) -> Topology {
        assert!(total >= 3, "need 2 APs + at least one device");
        let mut positions = vec![
            Position::new(width * 0.08, depth * 0.5),
            Position::new(width * 0.92, depth * 0.5),
        ];
        let mut roles = vec![Role::AccessPoint, Role::AccessPoint];
        let devices = total - 2;
        // Rows of offices along corridors.
        let rows = ((devices as f64).sqrt() * (depth / width).sqrt()).round().max(1.0) as usize;
        let cols = devices.div_ceil(rows);
        let mut placed = 0;
        'outer: for r in 0..rows {
            for c in 0..cols {
                if placed == devices {
                    break 'outer;
                }
                let jitter_x = (rng::uniform01(salt, r as u64, c as u64, 1) - 0.5) * 2.0;
                let jitter_y = (rng::uniform01(salt, r as u64, c as u64, 2) - 0.5) * 2.0;
                let x = width * (0.5 + c as f64) / cols as f64 + jitter_x;
                let y = depth * (0.5 + r as f64) / rows as f64 + jitter_y;
                positions.push(Position::new(x.clamp(0.0, width), y.clamp(0.0, depth)));
                roles.push(Role::FieldDevice);
                placed += 1;
            }
        }
        Topology::new(name, positions, roles)
    }

    /// Deterministic two-floor layout (Testbed B spans two floors); both
    /// access points sit near the stairwell on the lower floor so upper-floor
    /// traffic must cross the floor boundary.
    fn two_floor_building(name: &str, total: usize, width: f64, depth: f64, salt: u64) -> Topology {
        assert!(total >= 4, "need 2 APs + devices on both floors");
        let mut positions =
            vec![Position::new(width * 0.1, depth * 0.5), Position::new(width * 0.9, depth * 0.5)];
        let mut roles = vec![Role::AccessPoint, Role::AccessPoint];
        let devices = total - 2;
        let lower = devices / 2;
        for i in 0..devices {
            let (floor_z, k) = if i < lower { (0.0, i) } else { (4.0, i - lower) };
            let per_floor = if i < lower { lower } else { devices - lower };
            let cols = per_floor.div_ceil(3).max(1);
            let r = k / cols;
            let c = k % cols;
            let jitter_x = (rng::uniform01(salt, i as u64, 3, 1) - 0.5) * 2.0;
            let jitter_y = (rng::uniform01(salt, i as u64, 4, 2) - 0.5) * 2.0;
            let x = width * (0.5 + c as f64) / cols as f64 + jitter_x;
            let y = depth * (0.5 + r as f64) / 3.0 + jitter_y;
            positions.push(Position::with_height(
                x.clamp(0.0, width),
                y.clamp(0.0, depth),
                floor_z,
            ));
            roles.push(Role::FieldDevice);
        }
        Topology::new(name, positions, roles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_a_has_fifty_nodes_two_aps() {
        let t = Topology::testbed_a();
        assert_eq!(t.len(), 50);
        assert_eq!(t.num_access_points(), 2);
        assert_eq!(t.field_devices().len(), 48);
        assert_eq!(t.access_points(), vec![NodeId(0), NodeId(1)]);
    }

    #[test]
    fn testbed_b_spans_two_floors() {
        let t = Topology::testbed_b();
        assert_eq!(t.len(), 44);
        let upper = t.node_ids().filter(|id| t.position(*id).z > 1.0).count();
        let lower = t.len() - upper;
        assert!(upper >= 15, "expected a populated upper floor, got {upper}");
        assert!(lower >= 15, "expected a populated lower floor, got {lower}");
        // Both APs on the lower floor.
        for ap in t.access_points() {
            assert_eq!(t.position(ap).z, 0.0);
        }
    }

    #[test]
    fn half_testbeds_match_paper_sizes() {
        assert_eq!(Topology::testbed_a_half().len(), 20);
        assert_eq!(Topology::testbed_b_half().len(), 19);
    }

    #[test]
    fn cooja_layout_is_deterministic() {
        let a = Topology::cooja_150(1);
        let b = Topology::cooja_150(1);
        let c = Topology::cooja_150(2);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 152);
        assert_eq!(a.num_access_points(), 2);
    }

    #[test]
    fn cooja_positions_inside_area() {
        let t = Topology::cooja_150(99);
        for id in t.node_ids() {
            let p = t.position(id);
            assert!((0.0..=300.0).contains(&p.x));
            assert!((0.0..=300.0).contains(&p.y));
        }
    }

    #[test]
    fn distance_symmetry() {
        let t = Topology::testbed_a();
        assert_eq!(t.distance(NodeId(3), NodeId(7)), t.distance(NodeId(7), NodeId(3)));
    }

    #[test]
    #[should_panic(expected = "at least one access point")]
    fn topology_requires_access_point() {
        let _ = Topology::new("bad", vec![Position::new(0.0, 0.0)], vec![Role::FieldDevice]);
    }

    #[test]
    fn nodes_are_spread_out() {
        // No two Testbed A nodes should be at the exact same spot.
        let t = Topology::testbed_a();
        for a in t.node_ids() {
            for b in t.node_ids() {
                if a != b {
                    assert!(t.distance(a, b) > 0.01, "{a} and {b} overlap");
                }
            }
        }
    }
}
