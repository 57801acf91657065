//! Property-based tests for the simulation substrate.

use digs_cases::cases;
use digs_sim::channel::{wifi_overlap, ChannelOffset, PhysChannel, NUM_CHANNELS};
use digs_sim::energy::EnergyMeter;
use digs_sim::fault::{ChaosPlan, Fault, FaultPlan, Kind};
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
        let plan =
            FaultPlan::from_iter([Fault::outage(NodeId(3), Asn(from), Some(Asn(from + len)))]);
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
        let plan = FaultPlan::from_iter([
            Fault::outage(NodeId(3), Asn(from1), Some(Asn(from1 + len1))),
            Fault::outage(NodeId(3), Asn(from2), Some(Asn(from2 + len2))),
        ]);
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
        let outage = Fault::outage(NodeId(1), Asn(from), Some(Asn(from + len)));
        let reboot = Fault::reboot(NodeId(1), Asn(from), Asn(from + len));
        for fault in [outage, reboot] {
            assert!(!fault.covers(Asn(from - 1)));
            assert!(fault.covers(Asn(from)));
            assert!(fault.covers(Asn(from + len - 1)));
            assert!(!fault.covers(Asn(from + len)));
        }

        let permanent = Fault::outage(NodeId(1), Asn(from), None);
        assert!(!permanent.covers(Asn(from - 1)));
        assert!(permanent.covers(Asn(from + 1_000_000)));
    });
}

/// The engine consults a plan only at its edges, so every slot at which one
/// of its answers moves must be one: drawn plans mix all four kinds on four
/// nodes, overlapping, permanent, and sharing slots.
#[test]
fn every_change_falls_on_an_edge() {
    const NODES: u16 = 4;
    const HORIZON: u64 = 60;
    cases(256, |d| {
        let mut plan = FaultPlan::none();
        for _ in 0..d.int(1u8..10) {
            let node = NodeId(d.int(0..NODES));
            // Few distinct slots, so boundaries of different faults coincide.
            let from = Asn(d.int(0..HORIZON / 4) * 4);
            let until = (d.int(0u8..4) > 0).then(|| Asn(from.0 + d.int(1u64..6) * 4));
            plan.push(match d.int(0u8..4) {
                0 => Fault::outage(node, from, until),
                1 => Fault::reboot(node, from, until.unwrap_or(Asn(from.0 + 4))),
                2 => Fault::link(node, NodeId((node.0 + d.int(1..NODES)) % NODES), from, until),
                _ => Fault::desync(node, from),
            });
        }
        let edges: Vec<Asn> = plan.edges().collect();
        let nodes = || (0..NODES).map(NodeId);
        for asn in (1..HORIZON + 30).map(Asn) {
            let before = Asn(asn.0 - 1);
            let moved = nodes().any(|n| {
                plan.is_alive(n, asn) != plan.is_alive(n, before)
                    || plan.reboot_completing_at(n, asn)
                    || plan.desync_at(n, asn)
                    || nodes().any(|m| {
                        m != n && plan.is_link_up(n, m, asn) != plan.is_link_up(n, m, before)
                    })
            });
            let traced = plan.transitions_at(asn).next().is_some();
            assert!(!(moved || traced) || edges.contains(&asn), "{asn} is no edge of {plan:?}");
        }
        // `alive_throughout` is `is_alive` at every slot of the range.
        let (a, len) = (d.int(0..HORIZON + 30), d.int(0u64..20));
        for n in nodes() {
            let slot_by_slot = (a..=a + len).all(|t| plan.is_alive(n, Asn(t)));
            assert_eq!(
                plan.alive_throughout(n, Asn(a), Asn(a + len)),
                slot_by_slot,
                "{n:?} {plan:?}"
            );
        }
    });
}

/// Chaos plans are a pure function of (start, length, topology, seed): the
/// same seed reproduces the identical plan, and every generated fault and
/// jammer burst starts inside the chaos window.
#[test]
fn chaos_generation_is_seed_deterministic() {
    cases(256, |d| {
        let seed = d.u64();
        let start = d.int(0u64..50_000);
        let dur = d.int(60u64..600);
        let topo = Topology::testbed_a_half();
        let a = ChaosPlan::generate(Asn(start), dur, &topo, seed);
        let b = ChaosPlan::generate(Asn(start), dur, &topo, seed);
        assert_eq!(&a, &b);
        let window = start..start + dur * 100;
        let onsets = a.faults.iter().map(|f| f.from).chain(a.jammers.iter().map(|j| j.start));
        for from in onsets {
            assert!(window.contains(&from.0), "onset {from} outside chaos window {window:?}");
        }
    });
}

/// The chaos plans drawn at seeds 1–16, fault for fault and burst for burst,
/// pinned by an FNV-1a digest of each plan's faults in order as `(kind, node,
/// peer, from, until)` and of its jammers as `(start, stop, salt)`; a missing
/// value hashes as `u64::MAX`. Any moved draw changes a digest.
#[test]
fn drawn_chaos_plans_are_pinned() {
    let fnv = |h: u64, w: u64| (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    let or_max = |asn: Option<Asn>| asn.map_or(u64::MAX, |a| a.0);
    let pinned = [
        (Topology::testbed_a(), 0x6fb1_5849_40f8_ddb3, 0x8010_39a2_a69d_8a2c),
        (Topology::cooja_150(7), 0x7464_40bb_0ab2_4bc2, 0x8010_39a2_a69d_8a2c),
    ];
    for (topology, faults_digest, jammers_digest) in pinned {
        let (mut faults, mut jammers) = (0xcbf2_9ce4_8422_2325, 0xcbf2_9ce4_8422_2325);
        for seed in 1..=16 {
            let plan = ChaosPlan::generate(Asn::from_secs(120), 360, &topology, seed);
            faults = fnv(faults, seed);
            for f in plan.faults.iter() {
                let kind = match f.kind {
                    Kind::Outage => 0,
                    Kind::Reboot => 1,
                    Kind::Link => 2,
                    Kind::Desync => 3,
                };
                let peer = f.peer.map_or(u64::MAX, |p| u64::from(p.0));
                faults = [kind, u64::from(f.node.0), peer, f.from.0, or_max(f.until)]
                    .into_iter()
                    .fold(faults, fnv);
            }
            jammers = fnv(jammers, seed);
            for j in &plan.jammers {
                jammers = [j.start.0, or_max(j.stop), j.salt].into_iter().fold(jammers, fnv);
            }
        }
        assert_eq!((faults, jammers), (faults_digest, jammers_digest), "{}", topology.name());
    }
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

/// `rng::mix`'s three multipliers, and the salt of `standard_normal`'s second
/// hash.
const MIX: [u64; 3] = [0x9e37_79b9_7f4a_7c15, 0xbf58_476d_1ce4_e5b9, 0x94d0_49bb_1331_11eb];
const SECOND: u64 = 0x5851_f42d_4c95_7f2d;

/// The inverse of an odd number modulo 2⁶⁴: each round of Newton's iteration
/// doubles the correct low bits, starting from three.
fn inverse(m: u64) -> u64 {
    (0..5).fold(m, |x, _| x.wrapping_mul(2u64.wrapping_sub(m.wrapping_mul(x))))
}

/// The sum `rng::mix` finalizes into `hash`. The finalizer is SplitMix64's, a
/// bijection of `u64`, and the sum is linear in the seed and in `c`, so a test
/// can ask for any hash: an exact bucket edge, or the one-in-10¹² `u1` that
/// `standard_normal` clamps.
fn sum_hashing_to(hash: u64) -> u64 {
    // `x ^ (x >> k)` keeps its top `k` bits; each round recovers `k` more.
    let unshift = |y: u64, k: u32| (0..64 / k).fold(y, |x, _| y ^ (x >> k));
    let z = unshift(hash, 31).wrapping_mul(inverse(MIX[2]));
    let z = unshift(z, 27).wrapping_mul(inverse(MIX[1]));
    unshift(z, 30)
}

/// The `c` at which `rng::mix(seed, a, b, c)` is `hash`.
fn c_hashing_to(hash: u64, seed: u64, a: u64, b: u64) -> u64 {
    let rest = seed.wrapping_add(a.wrapping_mul(MIX[0])).wrapping_add(b.wrapping_mul(MIX[1]));
    let c = sum_hashing_to(hash).wrapping_sub(rest).wrapping_mul(inverse(MIX[2]));
    assert_eq!(rng::mix(seed, a, b, c), hash);
    c
}

/// The seed at which `rng::mix(seed, a, b, c)` is `hash`.
fn seed_hashing_to(hash: u64, a: u64, b: u64, c: u64) -> u64 {
    let rest = a
        .wrapping_mul(MIX[0])
        .wrapping_add(b.wrapping_mul(MIX[1]))
        .wrapping_add(c.wrapping_mul(MIX[2]));
    let seed = sum_hashing_to(hash).wrapping_sub(rest);
    assert_eq!(rng::mix(seed, a, b, c), hash);
    seed
}

/// Hashes at which a bound is most likely to give way. For `u1`: zero (the
/// clamp) and the ends of the first, of the last and of a drawn bucket of
/// 1024. For `u2`: the ends of the buckets either side of 0, ¼, ½, ¾ and 1 —
/// the cosine's extremes and its changes of sign — and of a drawn one.
fn edge_hashes(d: &mut digs_cases::Draw) -> (Vec<u64>, Vec<u64>) {
    let ends = |bucket: u64| [0, 1 << 11, (1 << 54) - 1].map(|low| (bucket << 54) | low);
    let first = [0, 1023, d.int(1u64..1023)].into_iter().flat_map(ends).collect();
    let second = [0, 255, 256, 511, 512, 767, 768, 1023, d.int(0u64..1024)];
    (first, second.into_iter().flat_map(ends).collect())
}

/// The interval reception reads a fade as really holds the sample it goes on
/// to draw where it has to, that sample is `standard_normal` to the bit, and
/// at the edges of the tables' buckets neither end is reached.
#[test]
fn bounds_contain_the_sample() {
    let check = |seed: u64, a: u64, b: u64, c: u64| {
        let hashes = rng::NormalHashes::new(seed, a, b, c);
        let sample = rng::standard_normal(seed, a, b, c);
        assert_eq!(hashes.sample().to_bits(), sample.to_bits(), "at c = {c}");
        let (lo, hi) = hashes.bounds();
        assert!(lo <= sample && sample <= hi, "{sample} outside {lo}..{hi} at c = {c}");
        assert!((-7.5..=7.5).contains(&lo) && (-7.5..=7.5).contains(&hi), "{lo}..{hi} at c = {c}");
        (lo, sample, hi)
    };
    cases(256, |d| {
        let (seed, a, b) = (d.u64(), d.u64(), d.u64());
        for _ in 0..200 {
            check(seed, a, b, d.u64());
        }
        // Where a hash sits on an edge the bound is that edge's own value,
        // which only the tables' slack keeps off the sample.
        let (first, second) = edge_hashes(d);
        let on_first = first.into_iter().map(|hash| c_hashing_to(hash, seed, a, b));
        let on_second = second.into_iter().map(|hash| c_hashing_to(hash, seed ^ SECOND, a, b));
        for c in on_first.chain(on_second) {
            let (lo, sample, hi) = check(seed, a, b, c);
            assert!(lo < sample && sample < hi, "no slack: {sample} in {lo}..{hi} at c = {c}");
        }
    });
}

/// `Signal::bounds` holds `rss`, and `Signal::rss` is `rss` to the bit,
/// under every RF model and where either fade sits on an edge of the bounds'
/// tables; against a floor far below, far above, or a hair either side of the
/// signal, the interval says audible, says silent and leaves it open a
/// thousand times each.
#[test]
fn signal_bounds_contain_rss() {
    let mut said = [0usize; 3];
    cases(256, |d| {
        let rf =
            d.pick(&[RfConfig::indoor(), RfConfig::open_area(), RfConfig::deterministic()]).clone();
        let n = d.int(2usize..40);
        let topo = Topology::random_area(n, d.f64(10.0..400.0), d.u64());
        let n = topo.len() as u16;
        let link = |d: &mut digs_cases::Draw| {
            let tx = d.int(0..n);
            let rx = (tx + d.int(1..n)) % n;
            let pair = u64::from(tx.min(rx)) * u64::from(n) + u64::from(tx.max(rx));
            (tx, rx, d.int(0u8..16), pair)
        };
        let (first, second) = edge_hashes(d);
        // The frozen fade is `standard_normal(seed ^ 0xfade, pair, channel, 1)`:
        // two models in three are seeded to put one link's on an edge.
        let edge_link = link(d);
        let seed = match d.int(0u8..3) {
            0 => d.u64(),
            1 => seed_hashing_to(*d.pick(&first), edge_link.3, u64::from(edge_link.2), 1) ^ 0xfade,
            _ => {
                seed_hashing_to(*d.pick(&second), edge_link.3, u64::from(edge_link.2), 1)
                    ^ SECOND
                    ^ 0xfade
            }
        };
        let flat = rf == RfConfig::deterministic();
        let model = LinkModel::new(&topo, rf, seed);
        for _ in 0..150 {
            let (tx, rx, ch, pair) = if d.bool() { edge_link } else { link(d) };
            // The fast fade is `standard_normal(seed ^ 0xfa57, pair, channel, asn + 2)`.
            let fast_seed = seed ^ 0xfa57;
            let asn = match d.int(0u8..4) {
                0 => c_hashing_to(*d.pick(&first), fast_seed, pair, u64::from(ch)) - 2,
                1 => c_hashing_to(*d.pick(&second), fast_seed ^ SECOND, pair, u64::from(ch)) - 2,
                _ => d.int(0u64..1 << 40),
            };
            let (tx, rx, ch, asn) = (NodeId(tx), NodeId(rx), PhysChannel(ch), Asn(asn));
            let rss = model.rss(tx, rx, ch, asn).dbm();
            let signal = model.signal(tx, rx, ch, asn);
            assert_eq!(signal.rss().dbm().to_bits(), rss.to_bits(), "{tx}→{rx} on {ch:?} at {asn}");
            let (lo, hi) = signal.bounds();
            assert!(
                lo <= rss && rss <= hi,
                "{rss} outside {lo}..{hi}: {tx}→{rx} on {ch:?} at {asn}"
            );
            assert!(!flat || hi - lo <= 2.1e-6, "{lo}..{hi} without fading");

            let floor = match d.int(0u8..4) {
                0 => d.f64(-140.0..0.0),
                1 => rss + d.f64(-1e-5..1e-5),
                2 => rss,
                _ => rss + d.f64(-12.0..12.0),
            };
            // The engine's three-way reading of the interval.
            said[if lo > floor {
                0
            } else if hi <= floor {
                1
            } else {
                2
            }] += 1;
        }
    });
    assert_eq!(said.iter().sum::<usize>(), 38_400);
    assert!(said.iter().all(|&calls| calls >= 1_000), "audible, silent, open: {said:?}");
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
            Jammer::wifi(at, d.int(1u8..=13), start).until(Asn(start.0 + 300)),
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
