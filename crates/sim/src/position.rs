//! Physical device placement in meters.

use core::fmt;

/// A device position in meters. `z` encodes the floor height for multi-floor
/// deployments such as the paper's Testbed B.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Position {
    /// East-west coordinate in meters.
    pub x: f64,
    /// North-south coordinate in meters.
    pub y: f64,
    /// Height in meters (floors are typically 4 m apart).
    pub z: f64,
}

impl Position {
    /// Creates a position on the ground floor.
    pub const fn new(x: f64, y: f64) -> Position {
        Position { x, y, z: 0.0 }
    }

    /// Creates a position with an explicit height.
    pub const fn with_height(x: f64, y: f64, z: f64) -> Position {
        Position { x, y, z }
    }

    /// Euclidean distance to another position, in meters.
    pub fn distance(&self, other: &Position) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        let dz = self.z - other.z;
        (dx * dx + dy * dy + dz * dz).sqrt()
    }

    /// Number of floor boundaries between two positions, assuming `floor_height`
    /// meters per floor. Used by the indoor propagation model to charge
    /// per-floor attenuation.
    pub fn floors_between(&self, other: &Position, floor_height: f64) -> u32 {
        assert!(floor_height > 0.0, "floor height must be positive");
        let fa = (self.z / floor_height).floor() as i64;
        let fb = (other.z / floor_height).floor() as i64;
        (fa - fb).unsigned_abs() as u32
    }
}

impl fmt::Display for Position {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.1}, {:.1}, {:.1})m", self.x, self.y, self.z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_euclidean() {
        let a = Position::new(0.0, 0.0);
        let b = Position::new(3.0, 4.0);
        assert!((a.distance(&b) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = Position::with_height(1.0, 2.0, 3.0);
        let b = Position::with_height(-4.0, 0.5, 7.0);
        assert!((a.distance(&b) - b.distance(&a)).abs() < 1e-12);
    }

    #[test]
    fn floors_between_counts_boundaries() {
        let ground = Position::new(0.0, 0.0);
        let second = Position::with_height(0.0, 0.0, 4.0);
        assert_eq!(ground.floors_between(&second, 4.0), 1);
        assert_eq!(ground.floors_between(&ground, 4.0), 0);
        assert_eq!(second.floors_between(&ground, 4.0), 1);
    }

    #[test]
    fn zero_distance() {
        let a = Position::new(2.0, 2.0);
        assert_eq!(a.distance(&a), 0.0);
    }
}
