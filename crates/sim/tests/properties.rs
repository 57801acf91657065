//! Property-based tests for the simulation substrate.

use digs_cases::cases;
use digs_sim::channel::{wifi_overlap, ChannelOffset, PhysChannel, NUM_CHANNELS};
use digs_sim::energy::EnergyMeter;
use digs_sim::fault::{FaultPlan, Outage};
use digs_sim::ids::NodeId;
use digs_sim::interference::Jammer;
use digs_sim::link::LinkModel;
use digs_sim::position::Position;
use digs_sim::rf::{initial_etx_from_rss, prr_from_sinr_db, Dbm, RfConfig};
use digs_sim::rng;
use digs_sim::time::Asn;
use digs_sim::topology::Topology;

/// The TSCH hop function is a bijection per slot: 16 offsets map to 16
/// distinct physical channels.
#[test]
fn hopping_is_a_per_slot_bijection() {
    cases(256, |d| {
        let asn = d.int(0u64..1_000_000);
        let mut seen = std::collections::HashSet::new();
        for off in 0..NUM_CHANNELS {
            seen.insert(ChannelOffset::new(off).hop(Asn(asn)));
        }
        assert_eq!(seen.len(), usize::from(NUM_CHANNELS));
    });
}

/// Every WiFi channel overlaps exactly four 802.15.4 channels, and the
/// overlapped set shifts monotonically with the WiFi channel number.
#[test]
fn wifi_overlap_is_four_contiguous_channels() {
    cases(256, |d| {
        let ch = d.int(1u8..=13);
        let set = wifi_overlap(ch);
        assert_eq!(set.len(), 4);
        for pair in set.windows(2) {
            assert_eq!(pair[1].0, pair[0].0 + 1, "contiguous");
        }
    });
}

/// The paper's RSS→ETX mapping is monotone (weaker signal never maps
/// to a better ETX) and bounded in [1, 3].
#[test]
fn etx_mapping_is_monotone_and_bounded() {
    cases(256, |d| {
        let a = d.f64(-120.0..-20.0);
        let b = d.f64(-120.0..-20.0);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let etx_weak = initial_etx_from_rss(Dbm(lo));
        let etx_strong = initial_etx_from_rss(Dbm(hi));
        assert!(etx_weak >= etx_strong);
        assert!((1.0..=3.0).contains(&etx_weak));
        assert!((1.0..=3.0).contains(&etx_strong));
    });
}

/// The PRR waterfall is monotone in SINR and a valid probability.
#[test]
fn prr_is_monotone_probability() {
    cases(256, |d| {
        let a = d.f64(-40.0..40.0);
        let b = d.f64(-40.0..40.0);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let p_lo = prr_from_sinr_db(lo);
        let p_hi = prr_from_sinr_db(hi);
        assert!(p_lo <= p_hi);
        assert!((0.0..=1.0).contains(&p_lo));
        assert!((0.0..=1.0).contains(&p_hi));
    });
}

/// dBm ↔ milliwatt conversion round-trips.
#[test]
fn dbm_mw_roundtrip() {
    cases(256, |d| {
        let dbm = d.f64(-120.0..30.0);
        let p = Dbm(dbm);
        let back = Dbm::from_milliwatts(p.to_milliwatts());
        assert!((back.dbm() - dbm).abs() < 1e-9);
    });
}

/// Static link RSS is symmetric and deterministic for any pair.
#[test]
fn link_rss_symmetric() {
    cases(256, |d| {
        let a = d.int(0u16..20);
        let b = d.int(0u16..20);
        let seed = d.int(0u64..20);
        if a == b {
            return;
        }
        let topo = Topology::testbed_a_half();
        let model = LinkModel::new(&topo, RfConfig::indoor(), seed);
        let ab = model.static_rss(NodeId(a), NodeId(b)).dbm();
        let ba = model.static_rss(NodeId(b), NodeId(a)).dbm();
        assert!((ab - ba).abs() < 1e-9);
    });
}

/// Instantaneous RSS never exceeds a generous physical bound and is
/// reproducible.
#[test]
fn rss_reproducible() {
    cases(256, |d| {
        let a = d.int(0u16..20);
        let b = d.int(0u16..20);
        let ch = d.int(0u8..16);
        let asn = d.int(0u64..100_000);
        if a == b {
            return;
        }
        let topo = Topology::testbed_a_half();
        let m1 = LinkModel::new(&topo, RfConfig::indoor(), 5);
        let m2 = LinkModel::new(&topo, RfConfig::indoor(), 5);
        let r1 = m1.rss(NodeId(a), NodeId(b), PhysChannel(ch), Asn(asn));
        let r2 = m2.rss(NodeId(a), NodeId(b), PhysChannel(ch), Asn(asn));
        assert_eq!(r1.dbm(), r2.dbm());
        assert!(r1.dbm() < 10.0, "RSS above TX power + margin: {}", r1.dbm());
    });
}

/// Energy accounting: the meter's energy is nonnegative, grows
/// monotonically with charged airtime, and duty cycle stays in [0, 1].
#[test]
fn energy_meter_invariants() {
    cases(256, |d| {
        let charges = d.vec(0..100, |d| (d.int(0u32..10_000), d.bool()));
        let mut meter = EnergyMeter::new();
        let mut prev = 0.0;
        for (us, is_tx) in charges {
            meter.tick_slot();
            if is_tx {
                meter.charge_tx(us);
            } else {
                meter.charge_rx(us);
            }
            let e = meter.energy_mj();
            assert!(e >= prev - 1e-9);
            prev = e;
            assert!((0.0..=1.0).contains(&meter.duty_cycle()));
        }
    });
}

/// Fault plans: a node is dead exactly within its outage windows.
#[test]
fn outage_windows_are_exact() {
    cases(256, |d| {
        let from = d.int(0u64..10_000);
        let len = d.int(1u64..10_000);
        let probe = d.int(0u64..30_000);
        let plan = FaultPlan::none().with(Outage::transient(NodeId(3), Asn(from), Asn(from + len)));
        let alive = plan.is_alive(NodeId(3), Asn(probe));
        let inside = probe >= from && probe < from + len;
        assert_eq!(alive, !inside);
        // Other nodes are never affected.
        assert!(plan.is_alive(NodeId(4), Asn(probe)));
    });
}

/// Overlapping outages compose: the node is dead on the *union* of the
/// windows, regardless of how they interleave, and `alive_throughout`
/// agrees with slot-by-slot `is_alive` over any probe range.
#[test]
fn overlapping_outages_compose() {
    cases(256, |d| {
        let from1 = d.int(0u64..2_000);
        let len1 = d.int(1u64..2_000);
        let from2 = d.int(0u64..2_000);
        let len2 = d.int(1u64..2_000);
        let probe = d.int(0u64..5_000);
        let span = d.int(0u64..200);
        let plan = FaultPlan::none()
            .with(Outage::transient(NodeId(3), Asn(from1), Asn(from1 + len1)))
            .with(Outage::transient(NodeId(3), Asn(from2), Asn(from2 + len2)));
        let in_union =
            (probe >= from1 && probe < from1 + len1) || (probe >= from2 && probe < from2 + len2);
        assert_eq!(plan.is_alive(NodeId(3), Asn(probe)), !in_union);

        let all_alive = (probe..=probe + span).all(|t| plan.is_alive(NodeId(3), Asn(t)));
        assert_eq!(plan.alive_throughout(NodeId(3), Asn(probe), Asn(probe + span)), all_alive);
    });
}

/// `covers` boundary semantics are half-open for outages and reboots
/// alike: the first dead slot is `from`, the first live slot back is
/// `until`.
#[test]
fn covers_boundaries_are_half_open() {
    cases(256, |d| {
        let from = d.int(1u64..10_000);
        let len = d.int(1u64..10_000);
        let outage = Outage::transient(NodeId(1), Asn(from), Asn(from + len));
        assert!(!outage.covers(Asn(from - 1)));
        assert!(outage.covers(Asn(from)));
        assert!(outage.covers(Asn(from + len - 1)));
        assert!(!outage.covers(Asn(from + len)));

        let reboot = digs_sim::fault::Reboot::new(NodeId(1), Asn(from), Asn(from + len));
        assert!(!reboot.covers(Asn(from - 1)));
        assert!(reboot.covers(Asn(from)));
        assert!(reboot.covers(Asn(from + len - 1)));
        assert!(!reboot.covers(Asn(from + len)));

        let permanent = Outage::permanent(NodeId(1), Asn(from));
        assert!(!permanent.covers(Asn(from - 1)));
        assert!(permanent.covers(Asn(from + 1_000_000)));
    });
}

/// Chaos plans are a pure function of (config, topology, seed): the
/// same seed reproduces the identical plan, and every generated event
/// starts inside the configured chaos window.
#[test]
fn chaos_generation_is_seed_deterministic() {
    cases(256, |d| {
        let seed = d.u64();
        let start = d.int(0u64..50_000);
        let dur = d.int(60u64..600);
        use digs_sim::fault::{ChaosConfig, ChaosPlan};
        let topo = Topology::testbed_a_half();
        let config = ChaosConfig::moderate(Asn(start), dur);
        let a = ChaosPlan::generate(&config, &topo, seed);
        let b = ChaosPlan::generate(&config, &topo, seed);
        assert_eq!(&a, &b);
        let window_end = start + dur * 100;
        for event in a.events() {
            assert!(
                event.from.0 >= start && event.from.0 < window_end,
                "event start {} outside chaos window [{start}, {window_end})",
                event.from.0
            );
        }
    });
}

/// Jammer interference is deterministic and decays with distance.
#[test]
fn jammer_interference_decays() {
    cases(256, |d| {
        let d1 = d.f64(1.0..50.0);
        let d2 = d.f64(1.0..50.0);
        let asn = d.int(0u64..10_000);
        if (d1 - d2).abs() <= 0.5 {
            return;
        }
        let jammer = Jammer::wifi(Position::new(0.0, 0.0), 6, Asn::ZERO);
        let rf = RfConfig::indoor();
        // Pick a covered channel: WiFi 6 covers indices 5..=8.
        let ch = PhysChannel(6);
        let at = |x: f64| {
            jammer.interference_at(&Position::new(x, 0.0), ch, Asn(asn), &rf).map(|p| p.dbm())
        };
        match (at(d1), at(d2)) {
            (Some(p1), Some(p2)) => {
                if d1 < d2 {
                    assert!(p1 >= p2);
                } else {
                    assert!(p2 >= p1);
                }
            }
            (a, b) => {
                assert_eq!(a.is_some(), b.is_some(), "emission is per-slot, not per-position")
            }
        }
    });
}

/// The deterministic hash-derived uniform samples stay in [0, 1) and
/// don't collide trivially.
#[test]
fn uniform01_bounds() {
    cases(256, |d| {
        let seed = d.u64();
        let a = d.u64();
        let b = d.u64();
        let c = d.u64();
        let u = rng::uniform01(seed, a, b, c);
        assert!((0.0..1.0).contains(&u));
    });
}

/// Slotframe offsets always stay below the slotframe length.
#[test]
fn slotframe_offset_in_range() {
    cases(256, |d| {
        let asn = d.u64();
        let len = d.int(1u32..10_000);
        assert!(Asn(asn).slotframe_offset(len) < len);
    });
}
