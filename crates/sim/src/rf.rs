//! Radio-frequency propagation: path loss, received signal strength, and
//! packet reception probability.
//!
//! The model is a standard indoor log-distance path-loss model with
//! per-floor attenuation, combined with a logistic PRR-vs-SINR curve fitted
//! to the CC2420's published sensitivity (-94 dBm, ~85% PRR at -91 dBm).
//! The paper's empirical RSS→ETX initialisation (-90 dBm → ETX 3,
//! -60 dBm → ETX 1) is also implemented here so the routing crate and the
//! simulator agree on link-quality semantics.

use core::fmt;
use core::ops::{Add, Sub};

/// A signal power in dBm.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Dbm(pub f64);

impl Dbm {
    /// Returns the raw dBm value.
    pub const fn dbm(self) -> f64 {
        self.0
    }

    /// Converts to linear milliwatts.
    pub fn to_milliwatts(self) -> f64 {
        10f64.powf(self.0 / 10.0)
    }

    /// Creates from linear milliwatts.
    ///
    /// # Panics
    ///
    /// Panics if `mw` is not positive.
    pub fn from_milliwatts(mw: f64) -> Dbm {
        assert!(mw > 0.0, "power in milliwatts must be positive");
        Dbm(10.0 * mw.log10())
    }
}

impl Add<f64> for Dbm {
    type Output = Dbm;

    fn add(self, rhs: f64) -> Dbm {
        Dbm(self.0 + rhs)
    }
}

impl Sub<Dbm> for Dbm {
    type Output = f64;

    /// Difference in dB.
    fn sub(self, rhs: Dbm) -> f64 {
        self.0 - rhs.0
    }
}

impl fmt::Display for Dbm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} dBm", self.0)
    }
}

/// RSS above which the paper initialises a link's ETX to 1.
pub const RSS_MAX: Dbm = Dbm(-60.0);
/// RSS below which the paper initialises a link's ETX to 3.
pub const RSS_MIN: Dbm = Dbm(-90.0);

/// Initial ETX for a link with the given mean RSS, per the paper
/// (Section V): 1 above -60 dBm, 3 below -90 dBm, linear in between.
pub fn initial_etx_from_rss(rss: Dbm) -> f64 {
    if rss >= RSS_MAX {
        1.0
    } else if rss <= RSS_MIN {
        3.0
    } else {
        // Scale proportionally between 1 and 3 over the [-90, -60] range.
        1.0 + 2.0 * (RSS_MAX - rss) / (RSS_MAX - RSS_MIN)
    }
}

/// Static propagation parameters for a deployment site.
#[derive(Debug, Clone, PartialEq)]
pub struct RfConfig {
    /// Transmit power (TelosB/CC2420 at 0 dBm by default).
    pub tx_power: Dbm,
    /// Path loss at the 1 m reference distance, in dB.
    pub path_loss_ref_db: f64,
    /// Path-loss exponent (≈3.0 indoors with obstructions).
    pub path_loss_exponent: f64,
    /// Log-normal shadowing standard deviation, in dB (frozen per link).
    pub shadowing_sigma_db: f64,
    /// Per-channel frequency-selective fading standard deviation, in dB.
    /// Finite and not negative, which `LinkModel::new` checks:
    /// `Signal::bounds` scales a lower and an upper bound by it.
    pub fading_sigma_db: f64,
    /// Fast (per-transmission) fading standard deviation, in dB. Finite and
    /// not negative, checked by `LinkModel::new` for the same reason.
    pub fast_fading_sigma_db: f64,
    /// Thermal noise floor.
    pub noise_floor: Dbm,
    /// Attenuation per floor boundary, in dB.
    pub floor_attenuation_db: f64,
    /// Height of one building floor, in meters.
    pub floor_height_m: f64,
}

impl RfConfig {
    /// Indoor office parameters matching the paper's testbed buildings.
    /// Motes run at reduced transmit power (-10 dBm), the usual testbed
    /// configuration that turns one building floor into a multi-hop
    /// network — and the reason the paper's 0 dBm JamLab jammers count as
    /// "higher transmission power".
    pub fn indoor() -> RfConfig {
        RfConfig {
            tx_power: Dbm(-10.0),
            path_loss_ref_db: 40.0,
            path_loss_exponent: 3.0,
            shadowing_sigma_db: 4.0,
            fading_sigma_db: 3.0,
            fast_fading_sigma_db: 1.0,
            noise_floor: Dbm(-98.0),
            floor_attenuation_db: 18.0,
            floor_height_m: 4.0,
        }
    }

    /// Open-area parameters for the 300 m × 300 m Cooja-scale simulation
    /// (lower exponent, no floors). Motes run at full CC2420 power
    /// (0 dBm), as Cooja's default radio mediums assume — covering 300 m
    /// in a handful of hops.
    pub fn open_area() -> RfConfig {
        RfConfig {
            tx_power: Dbm(0.0),
            path_loss_ref_db: 40.0,
            path_loss_exponent: 2.6,
            shadowing_sigma_db: 3.0,
            fading_sigma_db: 2.5,
            fast_fading_sigma_db: 1.0,
            noise_floor: Dbm(-98.0),
            floor_attenuation_db: 0.0,
            floor_height_m: 4.0,
        }
    }

    /// Deterministic (no shadowing/fading) variant, useful in tests.
    pub fn deterministic() -> RfConfig {
        RfConfig {
            shadowing_sigma_db: 0.0,
            fading_sigma_db: 0.0,
            fast_fading_sigma_db: 0.0,
            ..RfConfig::indoor()
        }
    }

    /// Mean path loss in dB at `distance_m` meters (log-distance model).
    pub fn path_loss_db(&self, distance_m: f64) -> f64 {
        let d = distance_m.max(0.1);
        self.path_loss_ref_db + 10.0 * self.path_loss_exponent * d.log10()
    }

    /// Mean received signal strength at `distance_m` meters, before
    /// shadowing, fading, and floor penetration.
    pub fn mean_rss(&self, distance_m: f64) -> Dbm {
        Dbm(self.tx_power.0 - self.path_loss_db(distance_m))
    }
}

/// Packet reception ratio for a given signal-to-interference-plus-noise
/// ratio, in dB.
///
/// Logistic curve calibrated so that PRR ≈ 0.5 at 4 dB SINR and ≈ 0.99 at
/// 8 dB, approximating the CC2420's PRR waterfall for full-size frames.
pub fn prr_from_sinr_db(sinr_db: f64) -> f64 {
    let p = 1.0 / (1.0 + (-(sinr_db - 4.0) * 1.6).exp());
    // Clamp away the upper tail only: even excellent links occasionally lose
    // a frame (CRC, preamble miss). The lower bound is the logistic's own.
    p.clamp(0.0, 0.999)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dbm_milliwatt_roundtrip() {
        let p = Dbm(-30.0);
        assert!((p.to_milliwatts() - 0.001).abs() < 1e-9);
        let q = Dbm::from_milliwatts(0.001);
        assert!((q.0 - -30.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn from_negative_milliwatts_panics() {
        let _ = Dbm::from_milliwatts(-1.0);
    }

    #[test]
    fn etx_initialisation_matches_paper() {
        assert_eq!(initial_etx_from_rss(Dbm(-50.0)), 1.0);
        assert_eq!(initial_etx_from_rss(Dbm(-60.0)), 1.0);
        assert_eq!(initial_etx_from_rss(Dbm(-90.0)), 3.0);
        assert_eq!(initial_etx_from_rss(Dbm(-100.0)), 3.0);
        // Midpoint scales linearly.
        let mid = initial_etx_from_rss(Dbm(-75.0));
        assert!((mid - 2.0).abs() < 1e-12, "got {mid}");
    }

    #[test]
    fn path_loss_grows_with_distance() {
        let rf = RfConfig::indoor();
        assert!(rf.path_loss_db(10.0) > rf.path_loss_db(5.0));
        assert!(rf.mean_rss(5.0).0 > rf.mean_rss(50.0).0);
    }

    #[test]
    fn path_loss_clamps_tiny_distances() {
        let rf = RfConfig::indoor();
        // Distances below 10 cm don't produce unbounded signal strength.
        assert_eq!(rf.path_loss_db(0.0), rf.path_loss_db(0.1));
    }

    #[test]
    fn prr_waterfall_shape() {
        assert!(prr_from_sinr_db(-10.0) < 0.01);
        let mid = prr_from_sinr_db(4.0);
        assert!((mid - 0.5).abs() < 0.01, "got {mid}");
        assert!(prr_from_sinr_db(12.0) > 0.99 - 1e-9);
        // Monotone non-decreasing.
        let mut prev = 0.0;
        for i in -20..30 {
            let p = prr_from_sinr_db(f64::from(i));
            assert!(p >= prev);
            prev = p;
        }
    }

    /// Reception decides from bounds on the SINR and on each interferer's
    /// power, a millionth of a dB apart at the least: across that step
    /// neither curve may come back down, rounding included.
    #[test]
    fn prr_and_milliwatts_do_not_fall_across_a_millionth_of_a_db() {
        let check = |x: f64| {
            assert!(prr_from_sinr_db(x) <= prr_from_sinr_db(x + 1e-6), "PRR falls after {x} dB");
            assert!(
                Dbm(x).to_milliwatts() <= Dbm(x + 1e-6).to_milliwatts(),
                "milliwatts fall after {x} dBm"
            );
        };
        for step in 0..=80_000 {
            check(-40.0 + f64::from(step) * 1e-3);
        }
        digs_cases::cases(100, |d| (0..100).for_each(|_| check(d.f64(-40.0..40.0))));
    }

    #[test]
    fn good_indoor_link_is_reliable() {
        let rf = RfConfig::indoor();
        let rss = rf.mean_rss(8.0);
        let sinr = rss - rf.noise_floor;
        assert!(prr_from_sinr_db(sinr) > 0.95, "8 m link should be strong");
    }
}
