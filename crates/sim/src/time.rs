//! TSCH time: 10 ms slots addressed by absolute slot number.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// Duration of one TSCH time slot in milliseconds (WirelessHART / 802.15.4e).
pub const SLOT_MS: u64 = 10;

/// Number of TSCH slots per second.
pub const SLOTS_PER_SECOND: u64 = 1000 / SLOT_MS;

/// Absolute slot number: the global TSCH time base.
///
/// All devices in a TSCH network share the ASN once synchronized; the
/// channel-hopping function and every slotframe offset are derived from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Asn(pub u64);

impl Asn {
    /// The first slot of the simulation.
    pub const ZERO: Asn = Asn(0);

    /// Converts a wall-clock duration in seconds to the equivalent ASN.
    pub const fn from_secs(secs: u64) -> Asn {
        Asn(secs * SLOTS_PER_SECOND)
    }

    /// Converts a wall-clock duration in milliseconds (rounded down to slots).
    pub const fn from_millis(ms: u64) -> Asn {
        Asn(ms / SLOT_MS)
    }

    /// Elapsed milliseconds since ASN 0.
    pub const fn as_millis(self) -> u64 {
        self.0 * SLOT_MS
    }

    /// Elapsed seconds since ASN 0 (fractional).
    pub fn as_secs_f64(self) -> f64 {
        self.as_millis() as f64 / 1000.0
    }

    /// Offset of this slot within a slotframe of `len` slots.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn slotframe_offset(self, len: u32) -> u32 {
        assert!(len > 0, "slotframe length must be positive");
        (self.0 % u64::from(len)) as u32
    }

    /// The next slot.
    pub const fn next(self) -> Asn {
        Asn(self.0 + 1)
    }
}

impl Add<u64> for Asn {
    type Output = Asn;

    fn add(self, rhs: u64) -> Asn {
        Asn(self.0 + rhs)
    }
}

impl AddAssign<u64> for Asn {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<Asn> for Asn {
    type Output = u64;

    /// Number of slots between two ASNs.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`.
    fn sub(self, rhs: Asn) -> u64 {
        self.0 - rhs.0
    }
}

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "asn:{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_conversion_roundtrips() {
        let asn = Asn::from_secs(5);
        assert_eq!(asn, Asn(500));
        assert_eq!(asn.as_millis(), 5000);
        assert!((asn.as_secs_f64() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn millis_round_down_to_slots() {
        assert_eq!(Asn::from_millis(95), Asn(9));
        assert_eq!(Asn::from_millis(100), Asn(10));
    }

    #[test]
    fn slotframe_offset_wraps() {
        assert_eq!(Asn(0).slotframe_offset(7), 0);
        assert_eq!(Asn(6).slotframe_offset(7), 6);
        assert_eq!(Asn(7).slotframe_offset(7), 0);
        assert_eq!(Asn(61 * 11 * 7).slotframe_offset(61), 0);
    }

    #[test]
    #[should_panic(expected = "slotframe length must be positive")]
    fn zero_slotframe_panics() {
        let _ = Asn(1).slotframe_offset(0);
    }

    #[test]
    fn arithmetic() {
        let a = Asn(10);
        assert_eq!(a + 5, Asn(15));
        assert_eq!(Asn(15) - a, 5);
        assert_eq!(a.next(), Asn(11));
        let mut b = a;
        b += 2;
        assert_eq!(b, Asn(12));
    }
}
