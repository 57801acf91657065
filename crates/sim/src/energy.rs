//! CC2420 radio energy model.
//!
//! The paper estimates power from radio-activity timestamps and the CC2420
//! data sheet; we do the same. Currents at 3 V supply:
//!
//! | State | Current | Power |
//! |-------|---------|-------|
//! | TX (0 dBm) | 17.4 mA | 52.2 mW |
//! | RX / listen | 18.8 mA | 56.4 mW |
//! | Idle (radio off, MCU sleeping) | ~0.426 mA | 1.28 mW |
//!
//! The meter accumulates microseconds per state and converts to millijoules.

use core::fmt;

/// CC2420 transmit power draw at 0 dBm, in milliwatts (17.4 mA × 3 V).
pub const TX_POWER_MW: f64 = 52.2;
/// CC2420 receive/listen power draw, in milliwatts (18.8 mA × 3 V).
pub const RX_POWER_MW: f64 = 56.4;
/// Sleep power draw, in milliwatts.
pub const SLEEP_POWER_MW: f64 = 0.0013;

/// Time the radio stays in RX waiting for a frame in a listen slot when
/// nothing (or nothing decodable) arrives, in microseconds. TSCH guard time
/// plus the maximum frame wait.
pub const IDLE_LISTEN_US: u32 = 2200;

/// Turnaround + ACK-wait time charged to a unicast transmitter, in
/// microseconds (RX state).
pub const ACK_WAIT_US: u32 = 1000;

/// Per-node accumulator of radio-on time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyMeter {
    /// Microseconds spent transmitting.
    pub tx_us: u64,
    /// Microseconds spent in receive/listen.
    pub rx_us: u64,
    /// Total slots observed (for duty-cycle denominators).
    pub slots: u64,
}

impl EnergyMeter {
    /// Creates an empty meter.
    pub fn new() -> EnergyMeter {
        EnergyMeter::default()
    }

    /// Charges transmit airtime.
    pub fn charge_tx(&mut self, us: u32) {
        self.tx_us += u64::from(us);
    }

    /// Charges receive/listen airtime.
    pub fn charge_rx(&mut self, us: u32) {
        self.rx_us += u64::from(us);
    }

    /// Charges `k` listen slots in which nothing arrived (`k` times
    /// [`charge_rx`](Self::charge_rx) of [`IDLE_LISTEN_US`]).
    pub fn charge_idle_listens(&mut self, k: u64) {
        self.rx_us += k * u64::from(IDLE_LISTEN_US);
    }

    /// Notes that one slot elapsed (alive, whether or not the radio was on).
    pub fn tick_slot(&mut self) {
        self.tick_slots(1);
    }

    /// Notes that `k` slots elapsed (`k` times [`tick_slot`](Self::tick_slot)).
    pub fn tick_slots(&mut self, k: u64) {
        self.slots += k;
    }

    /// Total radio energy consumed, in millijoules. Sleep energy for the
    /// radio-off remainder is included.
    pub fn energy_mj(&self) -> f64 {
        let tx_s = self.tx_us as f64 / 1e6;
        let rx_s = self.rx_us as f64 / 1e6;
        let total_s = self.slots as f64 * crate::time::SLOT_MS as f64 / 1e3;
        let sleep_s = (total_s - tx_s - rx_s).max(0.0);
        (tx_s * TX_POWER_MW + rx_s * RX_POWER_MW + sleep_s * SLEEP_POWER_MW) * 1e3 / 1e3
    }

    /// Mean radio power over the observed interval, in milliwatts.
    pub fn mean_power_mw(&self) -> f64 {
        let total_s = self.slots as f64 * crate::time::SLOT_MS as f64 / 1e3;
        if total_s == 0.0 {
            0.0
        } else {
            self.energy_mj() / total_s
        }
    }

    /// Fraction of time the radio was on (TX or RX), in `[0, 1]`.
    pub fn duty_cycle(&self) -> f64 {
        let total_us = self.slots as f64 * crate::time::SLOT_MS as f64 * 1e3;
        if total_us == 0.0 {
            0.0
        } else {
            ((self.tx_us + self.rx_us) as f64 / total_us).min(1.0)
        }
    }

    /// Merges another meter into this one.
    pub fn merge(&mut self, other: &EnergyMeter) {
        self.tx_us += other.tx_us;
        self.rx_us += other.rx_us;
        self.slots += other.slots;
    }
}

impl fmt::Display for EnergyMeter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.2} mJ (tx {:.1} ms, rx {:.1} ms, duty {:.3}%)",
            self.energy_mj(),
            self.tx_us as f64 / 1e3,
            self.rx_us as f64 / 1e3,
            self.duty_cycle() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_meter_is_zero() {
        let m = EnergyMeter::new();
        assert_eq!(m.energy_mj(), 0.0);
        assert_eq!(m.duty_cycle(), 0.0);
        assert_eq!(m.mean_power_mw(), 0.0);
    }

    #[test]
    fn one_second_of_rx() {
        let mut m = EnergyMeter::new();
        m.charge_rx(1_000_000);
        m.slots = 100; // 1 s of slots
                       // All time in RX: energy = 56.4 mW × 1 s = 56.4 mJ.
        assert!((m.energy_mj() - RX_POWER_MW).abs() < 1e-9);
        assert!((m.duty_cycle() - 1.0).abs() < 1e-9);
        assert!((m.mean_power_mw() - RX_POWER_MW).abs() < 1e-9);
    }

    #[test]
    fn tx_cheaper_than_rx_per_unit_time() {
        let mut tx = EnergyMeter::new();
        tx.charge_tx(500_000);
        tx.slots = 100;
        let mut rx = EnergyMeter::new();
        rx.charge_rx(500_000);
        rx.slots = 100;
        assert!(tx.energy_mj() < rx.energy_mj());
    }

    #[test]
    fn duty_cycle_counts_both_states() {
        let mut m = EnergyMeter::new();
        m.charge_tx(5_000);
        m.charge_rx(5_000);
        m.slots = 100; // 1 s
        assert!((m.duty_cycle() - 0.01).abs() < 1e-9);
    }

    #[test]
    fn merge_adds() {
        let mut a = EnergyMeter::new();
        a.charge_tx(10);
        a.tick_slot();
        let mut b = EnergyMeter::new();
        b.charge_rx(20);
        b.tick_slot();
        a.merge(&b);
        assert_eq!(a.tx_us, 10);
        assert_eq!(a.rx_us, 20);
        assert_eq!(a.slots, 2);
    }

    #[test]
    fn sleeping_node_consumes_little() {
        let mut m = EnergyMeter::new();
        m.slots = 360_000; // one hour
        assert!(m.energy_mj() < 10.0, "sleep energy should be tiny: {}", m.energy_mj());
    }
}
