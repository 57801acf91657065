//! Property-based tests for the routing crate.

use digs_cases::cases;
use digs_routing::etx::{EtxEstimator, ETX_CAP};
use digs_routing::messages::{JoinIn, Rank};
use digs_routing::neighbor::NeighborTable;
use digs_routing::trickle::{Trickle, TrickleConfig};
use digs_routing::{DigsRouting, RoutingConfig, RplRouting};
use digs_sim::ids::NodeId;
use digs_sim::rf::Dbm;
use digs_sim::time::Asn;

/// The ETX estimate is always within [1, cap], whatever outcome
/// sequence the link observes.
#[test]
fn etx_estimate_bounded() {
    cases(256, |d| {
        let init_rss = d.f64(-110.0..-40.0);
        let outcomes = d.vec(0..300, |d| d.bool());
        let mut e = EtxEstimator::from_rss(Dbm(init_rss));
        for acked in outcomes {
            e.record(acked);
            assert!(e.etx() >= 1.0 - 1e-9);
            assert!(e.etx() <= ETX_CAP + 1e-9);
        }
    });
}

/// A success streak can only lower (or keep) the ETX; a failure streak
/// can only raise (or keep) it.
#[test]
fn etx_moves_in_the_right_direction() {
    cases(256, |d| {
        let init_rss = d.f64(-95.0..-50.0);
        let n = d.int(1usize..50);
        let mut up = EtxEstimator::from_rss(Dbm(init_rss));
        let before_up = up.etx();
        for _ in 0..n {
            up.record(false);
        }
        assert!(up.etx() >= before_up - 1e-9);

        let mut down = EtxEstimator::from_rss(Dbm(init_rss));
        let before_down = down.etx();
        for _ in 0..n {
            down.record(true);
        }
        assert!(down.etx() <= before_down + 1e-9);
    });
}

/// Trickle fires at least once and at most twice per interval-worth of
/// slots, never fires when suppressed, and the interval never exceeds
/// Imax.
#[test]
fn trickle_rate_bounds() {
    cases(256, |d| {
        let seed = d.int(0u64..1000);
        let imin = d.int(2u64..50);
        let imax = imin * 8;
        let cfg = TrickleConfig { imin, imax, k: 0 };
        let mut t = Trickle::new(cfg, seed, Asn(0));
        let horizon = imax * 20;
        let fires = (0..horizon).filter(|s| t.tick(Asn(*s))).count() as u64;
        // At steady state (Imax) the timer fires once per Imax; during
        // doubling it fires faster. Bounds: at least horizon/imax − small
        // slack, at most horizon/imin + doubling phase.
        assert!(fires >= horizon / imax - 2, "fires {}", fires);
        assert!(fires <= horizon / imin + 8, "fires {}", fires);
        assert!(t.interval() <= imax);
    });
}

/// Trickle reset always shrinks the interval back to Imin.
#[test]
fn trickle_reset_restores_imin() {
    cases(256, |d| {
        let seed = d.int(0u64..1000);
        let warm = d.int(0u64..2000);
        let cfg = TrickleConfig::fast();
        let mut t = Trickle::new(cfg, seed, Asn(0));
        for s in 0..warm {
            t.tick(Asn(s));
        }
        t.reset(Asn(warm));
        assert_eq!(t.interval(), cfg.imin);
    });
}

/// The neighbor table's accumulated cost is always at least the
/// advertised cost plus 1 (one transmission minimum).
#[test]
fn accumulated_cost_lower_bound() {
    cases(256, |d| {
        let cost = d.f64(0.0..20.0);
        let rss = d.f64(-110.0..-40.0);
        let rank = d.int(1u16..10);
        let mut t = NeighborTable::new();
        t.record_advertisement(NodeId(1), Rank(rank), cost, Dbm(rss), Asn(0));
        let e = t.get(NodeId(1)).expect("present");
        assert!(e.accumulated_cost() >= cost + 1.0 - 1e-9);
    });
}

/// DiGS parent selection never produces a best parent whose advertised
/// rank is not strictly below the node's own rank, regardless of the
/// join-in order.
#[test]
fn digs_rank_monotonicity() {
    cases(256, |d| {
        let events = d.vec(1..80, |d| {
            (d.int(0u16..15), d.int(1u16..6), d.f64(0.0..6.0), d.f64(-88.0..-50.0))
        });
        let mut node = DigsRouting::new(NodeId(99), false, RoutingConfig::fast(), 3, Asn::ZERO);
        for (i, (from, rank, cost, rss)) in events.iter().enumerate() {
            let msg =
                JoinIn { rank: Rank(*rank), etx_w: *cost, best_parent: None, second_parent: None };
            node.on_join_in(NodeId(*from), &msg, Dbm(*rss), Asn(i as u64));
            if let Some(best) = node.best_parent() {
                let parent_rank = node.neighbors().get(best).expect("known").rank;
                assert!(parent_rank < node.rank());
            }
            if let Some(second) = node.second_best_parent() {
                let second_rank = node.neighbors().get(second).expect("known").rank;
                assert!(second_rank < node.rank(), "paper's same-rank rule");
            }
        }
    });
}

/// RPL parent selection keeps the same invariant with one parent.
#[test]
fn rpl_rank_monotonicity() {
    cases(256, |d| {
        let events = d.vec(1..80, |d| {
            (d.int(0u16..15), d.int(1u16..6), d.f64(0.0..6.0), d.f64(-88.0..-50.0))
        });
        let mut node = RplRouting::new(NodeId(99), false, RoutingConfig::fast(), 3, Asn::ZERO);
        for (i, (from, rank, cost, rss)) in events.iter().enumerate() {
            let dio =
                digs_routing::messages::Dio { rank: Rank(*rank), path_etx: *cost, parent: None };
            node.on_dio(NodeId(*from), &dio, Dbm(*rss), Asn(i as u64));
            if let Some(p) = node.preferred_parent() {
                let parent_rank = node.neighbors().get(p).expect("known").rank;
                assert!(parent_rank < node.rank());
            }
        }
    });
}

/// Weighted ETX (Eq. 1–3) always lies between the primary-path cost
/// and the backup-path cost.
#[test]
fn weighted_etx_is_a_convex_mix() {
    cases(256, |d| {
        let rss_a = d.f64(-85.0..-50.0);
        let rss_b = d.f64(-85.0..-50.0);
        let cost_b = d.f64(0.0..5.0);
        let mut node = DigsRouting::new(NodeId(99), false, RoutingConfig::fast(), 3, Asn::ZERO);
        node.on_join_in(
            NodeId(0),
            &JoinIn { rank: Rank::ROOT, etx_w: 0.0, best_parent: None, second_parent: None },
            Dbm(rss_a),
            Asn(0),
        );
        node.on_join_in(
            NodeId(1),
            &JoinIn { rank: Rank::ROOT, etx_w: cost_b, best_parent: None, second_parent: None },
            Dbm(rss_b),
            Asn(1),
        );
        if node.second_best_parent().is_none() {
            return;
        }
        let best = node.best_parent().expect("joined");
        let second = node.second_best_parent().expect("assumed");
        let c_best = node.accumulated_etx(best).expect("known");
        let c_second = node.accumulated_etx(second).expect("known");
        let w = node.etx_w();
        let (lo, hi) = if c_best <= c_second { (c_best, c_second) } else { (c_second, c_best) };
        assert!(w >= lo - 1e-9 && w <= hi + 1e-9, "{lo} ≤ {w} ≤ {hi}");
    });
}
