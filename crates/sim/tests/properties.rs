//! Property-based tests for the simulation substrate.

use digs_cases::cases;
use digs_sim::channel::{wifi_overlap, ChannelOffset, PhysChannel, NUM_CHANNELS};
use digs_sim::energy::EnergyMeter;
use digs_sim::fault::{FaultPlan, Outage};
use digs_sim::ids::NodeId;
use digs_sim::interference::{AdaptiveSniffer, Jammer, JammerKind};
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

/// The first `c` at or after `from` whose hash lands `standard_normal`'s
/// first uniform in `bucket` (of 4096): bucket 0 holds the `1e-12` clamp,
/// bucket 4095 the smallest radii.
fn c_in_bucket(seed: u64, a: u64, b: u64, from: u64, bucket: u64) -> u64 {
    (from..).find(|c| rng::mix(seed, a, b, *c) >> 52 == bucket).expect("one in 4096 hashes")
}

/// The bound `rss_if_above` rejects on really bounds the sample, at both
/// ends of the table too.
#[test]
fn normal_abs_bound_bounds_the_sample() {
    cases(256, |d| {
        let (seed, a, b) = (d.u64(), d.u64(), d.u64());
        let mut inputs = d.vec(200..201, |d| d.u64());
        let from = d.int(0u64..1 << 40);
        inputs.extend([0, 4095].map(|bucket| c_in_bucket(seed, a, b, from, bucket)));
        for c in inputs {
            let sample = rng::standard_normal(seed, a, b, c);
            let bound = rng::normal_abs_bound(seed, a, b, c);
            assert!(bound >= sample.abs(), "|{sample}| > {bound} at c = {c}");
            assert!(bound <= 7.5, "{bound}");
        }
    });
}

/// `rss_if_above` is `rss` behind the floor, whatever the floor — far
/// below, far above, or a hair either side of the signal — under every RF
/// model, and where the fast fade sits in the first or the last bucket of
/// the bound's table.
#[test]
fn rss_if_above_is_rss_behind_the_floor() {
    cases(256, |d| {
        let rf =
            d.pick(&[RfConfig::indoor(), RfConfig::open_area(), RfConfig::deterministic()]).clone();
        let n = d.int(2usize..40);
        let topo = Topology::random_area(n, d.f64(10.0..400.0), d.u64());
        let n = topo.len() as u16;
        let seed = d.u64();
        let model = LinkModel::new(&topo, rf, seed);
        for _ in 0..150 {
            let tx = d.int(0..n);
            let rx = (tx + d.int(1..n)) % n;
            let ch = d.int(0u8..16);
            // The fast fade is `standard_normal(seed ^ 0xfa57, pair, channel, asn + 2)`.
            let pair = u64::from(tx.min(rx)) * u64::from(n) + u64::from(tx.max(rx));
            let asn = match d.int(0u8..8) {
                0 => c_in_bucket(seed ^ 0xfa57, pair, u64::from(ch), 2, 0) - 2,
                1 => c_in_bucket(seed ^ 0xfa57, pair, u64::from(ch), 2, 4095) - 2,
                _ => d.int(0u64..1 << 40),
            };
            let (tx, rx, ch, asn) = (NodeId(tx), NodeId(rx), PhysChannel(ch), Asn(asn));
            let rss = model.rss(tx, rx, ch, asn);
            let floor = match d.int(0u8..4) {
                0 => d.f64(-140.0..0.0),
                1 => rss.dbm() + d.f64(-1e-5..1e-5),
                2 => rss.dbm(),
                _ => rss.dbm() + d.f64(-12.0..12.0),
            };
            assert_eq!(
                model.rss_if_above(tx, rx, ch, asn, floor),
                Some(rss).filter(|rss| rss.dbm() > floor),
                "{tx}→{rx} on {ch:?} at {asn}, floor {floor}"
            );
        }
    });
}

/// Counting `k` slots at once is counting one slot `k` times.
#[test]
fn tick_slots_is_repeated_tick_slot() {
    cases(256, |d| {
        let mut at_once = EnergyMeter::new();
        let mut one_by_one = EnergyMeter::new();
        for k in d.vec(0..20, |d| d.int(0u64..500)) {
            at_once.tick_slots(k);
            at_once.charge_rx(7);
            for _ in 0..k {
                one_by_one.tick_slot();
            }
            one_by_one.charge_rx(7);
            assert_eq!(at_once, one_by_one);
        }
    });
}

/// For every kind of jammer, the interference at a position is the
/// carrier power there whenever the jammer emits on the channel, and
/// nothing otherwise: slot and channel decide only *whether*.
#[test]
fn interference_is_the_carrier_gated_by_emission() {
    cases(256, |d| {
        let at = Position::with_height(d.f64(0.0..100.0), d.f64(0.0..100.0), d.f64(0.0..9.0));
        let start = Asn(d.int(0u64..200));
        let mut learnt = Jammer {
            kind: JammerKind::Adaptive(AdaptiveSniffer::new(d.int(2u32..12), 20, 20, 3, 0.0)),
            ..Jammer::adaptive(at, 1, start, d.u64())
        };
        // Teach the sniffer a victim, so that it has cells to jam.
        for asn in start.0..start.0 + 60 {
            learnt.observe_slot(Asn(asn), &[ChannelOffset::new(3).hop(Asn(asn))]);
        }
        let mut duty_pm = [0u16; 16];
        for duty in &mut duty_pm {
            *duty = *d.pick(&[0, 500, 1000]);
        }
        let jammers = [
            Jammer::wifi(at, d.int(1u8..=13), start),
            Jammer::bluetooth(at, start).until(Asn(start.0 + 300)),
            Jammer::disturber(at, 1, d.u64()).with_period(d.int(1u64..50)),
            learnt,
            Jammer::ambient(at, duty_pm, Dbm(d.f64(-10.0..10.0)), d.u64()),
        ];
        let rf =
            d.pick(&[RfConfig::indoor(), RfConfig::open_area(), RfConfig::deterministic()]).clone();
        let mut emitted = 0;
        for _ in 0..100 {
            let rx = Position::with_height(d.f64(0.0..100.0), d.f64(0.0..100.0), d.f64(0.0..9.0));
            let (ch, asn) = (PhysChannel(d.int(0u8..16)), Asn(d.int(0u64..600)));
            for jammer in &jammers {
                let gated = (jammer.emits(asn) && jammer.covers(ch, asn))
                    .then(|| jammer.carrier_at(&rx, &rf));
                assert_eq!(jammer.interference_at(&rx, ch, asn, &rf), gated, "{:?}", jammer.kind);
                emitted += usize::from(gated.is_some());
            }
        }
        assert!(emitted > 0, "no jammer ever emitted");
    });
}
