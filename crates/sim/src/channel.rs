//! IEEE 802.15.4 channels and TSCH channel hopping.

use crate::time::Asn;
use core::fmt;

/// Number of channels in the 2.4 GHz IEEE 802.15.4 band.
pub const NUM_CHANNELS: u8 = 16;

/// Lowest 802.15.4 channel number in the 2.4 GHz band.
pub const FIRST_CHANNEL: u8 = 11;

/// A logical TSCH channel offset (0–15); the physical channel it maps to
/// changes every slot via the hopping function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ChannelOffset(pub u8);

impl ChannelOffset {
    /// Creates a channel offset, wrapping into `0..NUM_CHANNELS`.
    pub const fn new(offset: u8) -> ChannelOffset {
        ChannelOffset(offset % NUM_CHANNELS)
    }

    /// The TSCH hopping function: maps this offset to a physical channel at
    /// the given ASN, `phys = (ASN + offset) mod 16`.
    pub fn hop(self, asn: Asn) -> PhysChannel {
        PhysChannel(((asn.0 + u64::from(self.0)) % u64::from(NUM_CHANNELS)) as u8)
    }
}

impl fmt::Display for ChannelOffset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "chOff:{}", self.0)
    }
}

/// A physical 802.15.4 channel, stored as an index 0–15 (channel 11–26).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PhysChannel(pub u8);

impl PhysChannel {
    /// The IEEE channel number (11–26).
    pub const fn ieee_number(self) -> u8 {
        FIRST_CHANNEL + self.0
    }

    /// Center frequency in MHz: 2405 + 5 × (channel − 11).
    pub const fn center_freq_mhz(self) -> u32 {
        2405 + 5 * self.0 as u32
    }

    /// All sixteen physical channels.
    pub fn all() -> impl Iterator<Item = PhysChannel> {
        (0..NUM_CHANNELS).map(PhysChannel)
    }
}

impl fmt::Display for PhysChannel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ch{}", self.ieee_number())
    }
}

/// The set of 802.15.4 channels overlapped by a 20 MHz-wide WiFi carrier at
/// the given WiFi channel number (1–13). Each WiFi channel blankets four
/// consecutive 802.15.4 channels — this is how the JamLab WiFi emulation is
/// mapped onto the simulator.
pub fn wifi_overlap(wifi_channel: u8) -> Vec<PhysChannel> {
    assert!((1..=13).contains(&wifi_channel), "WiFi channel must be 1–13, got {wifi_channel}");
    // WiFi channel c is centered at 2412 + 5(c-1) MHz; its occupied OFDM
    // bandwidth meaningfully overlaps 802.15.4 channels whose 2 MHz carriers
    // fall within ±9 MHz of the WiFi center — exactly four of them.
    let center = i64::from(2412 + 5 * (u32::from(wifi_channel) - 1));
    PhysChannel::all().filter(|ch| (i64::from(ch.center_freq_mhz()) - center).abs() <= 9).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hopping_cycles_all_channels() {
        let off = ChannelOffset::new(0);
        let mut seen = std::collections::HashSet::new();
        for s in 0..16u64 {
            seen.insert(off.hop(Asn(s)));
        }
        assert_eq!(seen.len(), 16);
    }

    #[test]
    fn hop_is_offset_plus_asn() {
        assert_eq!(ChannelOffset::new(3).hop(Asn(5)), PhysChannel(8));
        assert_eq!(ChannelOffset::new(15).hop(Asn(1)), PhysChannel(0));
    }

    #[test]
    fn offset_wraps() {
        assert_eq!(ChannelOffset::new(16), ChannelOffset(0));
        assert_eq!(ChannelOffset::new(17), ChannelOffset(1));
    }

    #[test]
    fn ieee_numbers() {
        assert_eq!(PhysChannel(0).ieee_number(), 11);
        assert_eq!(PhysChannel(15).ieee_number(), 26);
        assert_eq!(PhysChannel(0).center_freq_mhz(), 2405);
        assert_eq!(PhysChannel(15).center_freq_mhz(), 2480);
    }

    #[test]
    fn wifi_channel_one_overlaps_low_band() {
        let chans = wifi_overlap(1);
        // WiFi ch.1 (2401–2423 MHz) covers 802.15.4 channels 11–14.
        let nums: Vec<u8> = chans.iter().map(|c| c.ieee_number()).collect();
        assert_eq!(nums, vec![11, 12, 13, 14]);
    }

    #[test]
    fn wifi_channel_six_overlaps_mid_band() {
        let nums: Vec<u8> = wifi_overlap(6).iter().map(|c| c.ieee_number()).collect();
        assert_eq!(nums, vec![16, 17, 18, 19]);
    }

    #[test]
    #[should_panic(expected = "WiFi channel must be 1–13")]
    fn invalid_wifi_channel_panics() {
        let _ = wifi_overlap(14);
    }
}
