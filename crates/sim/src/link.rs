//! The link model: per-link received signal strength with frozen shadowing,
//! per-channel frequency-selective fading, and per-slot fast fading.
//!
//! [`LinkModel::rss`] is the definition. The engine's reception loop asks
//! [`LinkModel::signal`] for the hashes behind it: [`Signal::bounds`] brackets
//! the RSS without a logarithm, root or cosine, which is all most signals are
//! ever asked, and [`Signal::rss`] draws it to the bit for the few that are
//! read.

use crate::channel::PhysChannel;
use crate::ids::NodeId;
use crate::rf::{Dbm, RfConfig};
use crate::rng;
use crate::time::Asn;
use crate::topology::Topology;

/// Computes received signal strength for any (transmitter, receiver,
/// channel, slot) tuple, deterministically under a seed.
///
/// The RSS decomposes as
///
/// ```text
/// RSS = TXpower − PL(d) − floors·att + shadow(link) + fade(link, ch) + fast(link, ch, asn)
/// ```
///
/// where `shadow` is frozen log-normal shadowing (symmetric per link),
/// `fade` is frozen per-channel frequency-selective fading — the reason TSCH
/// hops channels — and `fast` is small per-slot variation.
#[derive(Debug, Clone)]
pub struct LinkModel {
    rf: RfConfig,
    seed: u64,
    /// Cached per-pair static component (path loss + floors + shadowing),
    /// indexed `tx * n + rx`.
    static_rss: Vec<f64>,
    n: usize,
}

impl LinkModel {
    /// Builds the model for a topology.
    ///
    /// # Panics
    ///
    /// Panics if either fading sigma of `rf` is negative or not finite:
    /// [`Signal::bounds`] scales a lower and an upper bound by them, and a
    /// negative factor would swap the two.
    pub fn new(topology: &Topology, rf: RfConfig, seed: u64) -> LinkModel {
        for sigma in [rf.fading_sigma_db, rf.fast_fading_sigma_db] {
            assert!(
                sigma.is_finite() && sigma >= 0.0,
                "a fading sigma must be finite and not negative"
            );
        }
        let n = topology.len();
        let mut static_rss = vec![f64::NEG_INFINITY; n * n];
        // Distance, floors and shadowing are those of the unordered pair, so
        // each pair is computed once and stored in both directions.
        for lo in 0..n {
            let pa = topology.position(NodeId(lo as u16));
            for hi in lo + 1..n {
                let pb = topology.position(NodeId(hi as u16));
                let d = pa.distance(&pb);
                let floors = pa.floors_between(&pb, rf.floor_height_m);
                let shadow =
                    rng::standard_normal(seed, lo as u64, hi as u64, 0) * rf.shadowing_sigma_db;
                let rss = rf.tx_power.dbm()
                    - rf.path_loss_db(d)
                    - f64::from(floors) * rf.floor_attenuation_db
                    + shadow;
                static_rss[lo * n + hi] = rss;
                static_rss[hi * n + lo] = rss;
            }
        }
        LinkModel { rf, seed, static_rss, n }
    }

    /// The RF configuration the model was built with.
    pub fn rf(&self) -> &RfConfig {
        &self.rf
    }

    /// Static (time- and channel-independent) RSS component of a link.
    ///
    /// # Panics
    ///
    /// Panics if `tx == rx` or either id is out of range.
    pub fn static_rss(&self, tx: NodeId, rx: NodeId) -> Dbm {
        assert_ne!(tx, rx, "a node cannot transmit to itself");
        Dbm(self.static_rss[tx.index() * self.n + rx.index()])
    }

    /// Full instantaneous RSS on a physical channel at a slot.
    pub fn rss(&self, tx: NodeId, rx: NodeId, channel: PhysChannel, asn: Asn) -> Dbm {
        let base = self.static_rss(tx, rx).dbm();
        let (lo, hi) = (tx.index().min(rx.index()), tx.index().max(rx.index()));
        let key = (lo * self.n + hi) as u64;
        let fade = rng::standard_normal(self.seed ^ 0xfade, key, u64::from(channel.0), 1)
            * self.rf.fading_sigma_db;
        let fast = rng::standard_normal(self.seed ^ 0xfa57, key, u64::from(channel.0), asn.0 + 2)
            * self.rf.fast_fading_sigma_db;
        Dbm(base + fade + fast)
    }

    /// The static part and the four hashes behind
    /// [`rss(tx, rx, channel, asn)`](LinkModel::rss), always all four and
    /// nothing else: no logarithm, root or cosine, and no branch on what the
    /// hashes turn out to be.
    pub fn signal(&self, tx: NodeId, rx: NodeId, channel: PhysChannel, asn: Asn) -> Signal {
        let base = self.static_rss(tx, rx).dbm();
        let (lo, hi) = (tx.index().min(rx.index()), tx.index().max(rx.index()));
        let key = (lo * self.n + hi) as u64;
        let ch = u64::from(channel.0);
        Signal {
            base,
            fade: rng::NormalHashes::new(self.seed ^ 0xfade, key, ch, 1),
            fast: rng::NormalHashes::new(self.seed ^ 0xfa57, key, ch, asn.0 + 2),
            fade_sigma: self.rf.fading_sigma_db,
            fast_sigma: self.rf.fast_fading_sigma_db,
        }
    }

    /// Expected RSS averaged over channels (used for ETX initialisation and
    /// by the centralized manager's link-state database).
    pub fn mean_rss(&self, tx: NodeId, rx: NodeId) -> Dbm {
        self.static_rss(tx, rx)
    }

    /// Number of nodes the model covers.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the model is empty (no nodes).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }
}

/// One transmission as one receiver's radio sees it, from
/// [`LinkModel::signal`]: the link's static RSS and the hashes of its two
/// fades, not yet drawn.
#[derive(Debug, Clone, Copy)]
pub struct Signal {
    base: f64,
    fade: rng::NormalHashes,
    fast: rng::NormalHashes,
    fade_sigma: f64,
    fast_sigma: f64,
}

impl Signal {
    /// `(lo, hi)` in dBm with `lo <= rss() <= hi`, from table look-ups
    /// ([`rng::NormalHashes::bounds`]) and without a branch. The `1e-6` either
    /// way covers the rounding of the two sums; the sigmas are not negative
    /// ([`LinkModel::new`] checks), so each bound scales to a bound.
    pub fn bounds(&self) -> (f64, f64) {
        let (fade_lo, fade_hi) = self.fade.bounds();
        let (fast_lo, fast_hi) = self.fast.bounds();
        (
            self.base + self.fade_sigma * fade_lo + self.fast_sigma * fast_lo - 1e-6,
            self.base + self.fade_sigma * fade_hi + self.fast_sigma * fast_hi + 1e-6,
        )
    }

    /// [`LinkModel::rss`] to the bit — its own sum, term by term — from the
    /// hashes in hand.
    pub fn rss(&self) -> Dbm {
        Dbm(self.base + self.fade.sample() * self.fade_sigma + self.fast.sample() * self.fast_sigma)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;

    fn model() -> LinkModel {
        LinkModel::new(&Topology::testbed_a(), RfConfig::indoor(), 42)
    }

    /// To the bit, over every pair of both testbeds: the engine reads the
    /// acknowledgement's RSS off the frame's.
    #[test]
    fn static_rss_is_symmetric() {
        for topo in [Topology::testbed_a(), Topology::testbed_b()] {
            let m = LinkModel::new(&topo, RfConfig::indoor(), 42);
            for a in topo.node_ids() {
                for b in topo.node_ids().filter(|b| *b != a) {
                    let (ab, ba) = (m.static_rss(a, b).dbm(), m.static_rss(b, a).dbm());
                    assert!(ab.is_finite());
                    assert_eq!(ab.to_bits(), ba.to_bits(), "{a}↔{b}");
                    let there = m.rss(a, b, PhysChannel(3), Asn(77)).dbm();
                    assert_eq!(
                        there.to_bits(),
                        m.rss(b, a, PhysChannel(3), Asn(77)).dbm().to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn rss_deterministic_per_seed() {
        let m1 = model();
        let m2 = model();
        let r1 = m1.rss(NodeId(2), NodeId(9), PhysChannel(4), Asn(100));
        let r2 = m2.rss(NodeId(2), NodeId(9), PhysChannel(4), Asn(100));
        assert_eq!(r1.dbm(), r2.dbm());
    }

    #[test]
    fn rss_varies_across_channels() {
        let m = model();
        let r1 = m.rss(NodeId(2), NodeId(9), PhysChannel(0), Asn(0));
        let r2 = m.rss(NodeId(2), NodeId(9), PhysChannel(8), Asn(0));
        assert_ne!(r1.dbm(), r2.dbm(), "frequency-selective fading expected");
    }

    #[test]
    fn rss_varies_over_time_slightly() {
        let m = model();
        let r1 = m.rss(NodeId(2), NodeId(9), PhysChannel(0), Asn(0));
        let r2 = m.rss(NodeId(2), NodeId(9), PhysChannel(0), Asn(1));
        assert_ne!(r1.dbm(), r2.dbm());
        // Fast fading is small.
        assert!((r1.dbm() - r2.dbm()).abs() < 10.0);
    }

    #[test]
    fn nearby_link_stronger_than_far_link() {
        let topo = Topology::testbed_a();
        let m = LinkModel::new(&topo, RfConfig::deterministic(), 1);
        // Find nearest and farthest neighbors of node 5.
        let me = NodeId(5);
        let mut best = (NodeId(0), f64::MAX);
        let mut worst = (NodeId(0), 0.0f64);
        for other in topo.node_ids() {
            if other == me {
                continue;
            }
            let d = topo.distance(me, other);
            if d < best.1 {
                best = (other, d);
            }
            if d > worst.1 {
                worst = (other, d);
            }
        }
        assert!(m.static_rss(me, best.0).dbm() > m.static_rss(me, worst.0).dbm());
    }

    #[test]
    fn floor_penetration_attenuates() {
        let topo = Topology::testbed_b();
        let m = LinkModel::new(&topo, RfConfig::deterministic(), 1);
        // Pick an upper-floor node and compare same-distance-ish links.
        let upper = topo
            .node_ids()
            .find(|id| topo.position(*id).z > 1.0)
            .expect("testbed B has an upper floor");
        let ap = NodeId(0);
        let d = topo.distance(upper, ap);
        let rss_through_floor = m.static_rss(upper, ap).dbm();
        let expected_same_floor = m.rf().tx_power.dbm() - m.rf().path_loss_db(d);
        assert!(
            rss_through_floor < expected_same_floor - 10.0,
            "floor attenuation should cost ≥ 10 dB"
        );
    }

    /// A real `assert!`: a negative sigma would swap `Signal::bounds`' two
    /// ends in release builds too, where a `debug_assert!` is compiled out.
    #[test]
    #[should_panic(expected = "fading sigma must be finite and not negative")]
    fn a_negative_fading_sigma_is_refused() {
        let rf = RfConfig { fast_fading_sigma_db: -1.0, ..RfConfig::indoor() };
        let _ = LinkModel::new(&Topology::testbed_a(), rf, 42);
    }

    #[test]
    #[should_panic(expected = "fading sigma must be finite and not negative")]
    fn an_infinite_fading_sigma_is_refused() {
        let rf = RfConfig { fading_sigma_db: f64::INFINITY, ..RfConfig::indoor() };
        let _ = LinkModel::new(&Topology::testbed_a(), rf, 42);
    }

    #[test]
    #[should_panic(expected = "cannot transmit to itself")]
    fn self_link_panics() {
        let m = model();
        let _ = m.static_rss(NodeId(1), NodeId(1));
    }
}
