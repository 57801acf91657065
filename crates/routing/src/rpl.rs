//! The RPL baseline (RFC 6550, simplified): the distance-vector routing
//! protocol with a **single preferred parent** that Orchestra schedules on
//! top of.
//!
//! Differences from [`crate::digs::DigsRouting`], mirroring the paper's
//! comparison:
//!
//! - one preferred parent only — no backup route;
//! - DIO advertisements carry the plain accumulated path ETX;
//! - on parent loss the node *detaches* (infinite rank), poisons its
//!   sub-DODAG with an infinite-rank DIO, and must wait for fresh DIOs to
//!   rejoin — the source of RPL's long repair times under interference and
//!   node failure.
//!
//! As in DiGS, a DIO from a neighbor that is not the preferred parent
//! re-runs the full selection only if the node is not settled
//! (`settled_until`) or that neighbor, with its new entry, is eligible and
//! undercuts the parent by more than the hysteresis.

use crate::digs::RoutingConfig;
use crate::messages::{Dio, Rank, RoutingEvent};
use crate::neighbor::{
    is_housekeeping_turn, next_due_housekeeping_turn, NeighborEntry, NeighborTable,
};
use crate::trickle::Trickle;
use digs_sim::ids::NodeId;
use digs_sim::rf::Dbm;
use digs_sim::time::Asn;

/// The per-node RPL state machine.
#[derive(Debug, Clone, PartialEq)]
pub struct RplRouting {
    id: NodeId,
    is_root: bool,
    config: RoutingConfig,
    trickle: Trickle,
    neighbors: NeighborTable,
    preferred: Option<NodeId>,
    rank: Rank,
    /// Pending poison: broadcast one infinite-rank DIO after detaching.
    poison_pending: bool,
    joined_at: Option<Asn>,
    lockout_until: Asn,
    /// Before this slot a full selection ([`Self::reevaluate`]) over
    /// `neighbors` as it stands changes neither the parent nor the rank.
    /// Only a selection that changed neither sets it — the rank too,
    /// because eligibility reads the node's own rank — to the slot the
    /// lockout runs out, the one test that flips with time alone.
    /// Everything else that moves the selection's inputs clears it —
    /// `record_tx` (and `degrade`) in `on_tx_result`, an eviction in `tick`
    /// (more than exactness needs: a neighbor leaving only reveals dearer
    /// challengers), any selection that changed something — except
    /// `on_dio`'s `record_advertisement`, which touches the sender alone and
    /// is what [`Self::could_take_over`] tests. Those are all the mutators
    /// of `neighbors` there are.
    settled_until: Asn,
    /// Test builds only: full selections run the pre-PR-22 body, the
    /// oracle of the differential twin.
    #[cfg(test)]
    oracle: bool,
}

impl RplRouting {
    /// Creates the state machine; the root (border router / access point)
    /// starts at rank 1 with path ETX 0.
    pub fn new(
        id: NodeId,
        is_root: bool,
        config: RoutingConfig,
        seed: u64,
        now: Asn,
    ) -> RplRouting {
        RplRouting {
            id,
            is_root,
            config,
            trickle: Trickle::new(config.trickle, seed ^ u64::from(id.0) << 21, now),
            neighbors: NeighborTable::new(),
            preferred: None,
            rank: if is_root { Rank::ROOT } else { Rank::INFINITE },
            poison_pending: false,
            lockout_until: Asn::ZERO,
            joined_at: if is_root { Some(now) } else { None },
            settled_until: Asn::ZERO,
            #[cfg(test)]
            oracle: false,
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Whether this node is the DODAG root.
    pub fn is_root(&self) -> bool {
        self.is_root
    }

    /// Current rank.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Current preferred parent.
    pub fn preferred_parent(&self) -> Option<NodeId> {
        self.preferred
    }

    /// Whether the node has joined the DODAG.
    pub fn is_joined(&self) -> bool {
        self.is_root || self.preferred.is_some()
    }

    /// When the node first joined, if it has.
    pub fn joined_at(&self) -> Option<Asn> {
        self.joined_at
    }

    /// Read access to the neighbor table.
    pub fn neighbors(&self) -> &NeighborTable {
        &self.neighbors
    }

    /// Accumulated path ETX advertised in our DIOs.
    pub fn path_etx(&self) -> f64 {
        if self.is_root {
            return 0.0;
        }
        self.preferred
            .and_then(|p| self.neighbors.get(p))
            .map_or(f64::INFINITY, |e| e.accumulated_cost())
    }

    /// The DIO the node would broadcast right now.
    pub fn dio(&self) -> Dio {
        Dio { rank: self.rank, path_etx: self.path_etx(), parent: self.preferred }
    }

    /// Handles a received DIO.
    pub fn on_dio(&mut self, from: NodeId, dio: &Dio, rss: Dbm, now: Asn) -> Vec<RoutingEvent> {
        self.trickle.hear_consistent();
        if from == self.id {
            return Vec::new();
        }
        self.neighbors.record_advertisement(from, dio.rank, dio.path_etx, rss, now);
        if self.is_root {
            return Vec::new();
        }
        // The parent's DIO moves what everybody is compared with, and our
        // rank; anyone else's matters only through the sender while the
        // node is settled.
        let is_parent = self.preferred == Some(from);
        if now < self.settled_until && !is_parent && !self.could_take_over(from) {
            return Vec::new();
        }
        self.reevaluate(now)
    }

    /// Whether a full selection could prefer `from` — not the current
    /// parent, its entry already updated from the DIO just heard: it is
    /// eligible, and it undercuts the parent by more than the hysteresis
    /// (or there is no parent). These are the selection's own float
    /// expressions; the lockout is left out, which only makes this say yes
    /// more often than the selection would.
    ///
    /// While the node is settled, a no here means the selection is still a
    /// fixed point. Every other neighbor has already lost to the parent, and
    /// costs enter only through `challenger + hysteresis >= incumbent`,
    /// which is monotone in the challenger's cost: the sender getting
    /// dearer or ineligible only reveals a dearer challenger (and the
    /// parent, one rank above us, stays an eligible one). The parent's
    /// entry and our rank move only with the parent's DIO or a call that
    /// clears `settled_until`.
    fn could_take_over(&self, from: NodeId) -> bool {
        let Some(entry) = self.neighbors.get(from).filter(|e| self.is_eligible(e)) else {
            return false;
        };
        self.preferred.and_then(|p| self.neighbors.get(p)).is_none_or(|p| {
            entry.accumulated_cost() + self.config.hysteresis < p.accumulated_cost()
        })
    }

    /// Rank rule: once joined, never select a parent whose rank is not
    /// strictly below our own (loop avoidance); a detached node may pick
    /// any usable neighbor.
    fn is_eligible(&self, entry: &NeighborEntry) -> bool {
        entry.is_usable() && (!self.rank.is_finite() || entry.rank < self.rank)
    }

    /// Handles the outcome of a unicast transmission to `to`.
    pub fn on_tx_result(&mut self, to: NodeId, acked: bool, now: Asn) -> Vec<RoutingEvent> {
        let Some(failures) = self.neighbors.record_tx(to, acked) else {
            return Vec::new();
        };
        self.settled_until = Asn::ZERO;
        if self.preferred == Some(to) && failures >= self.config.parent_failure_threshold {
            self.neighbors.degrade(to);
            self.lockout_until = Asn::ZERO; // failure overrides the lockout
            return self.reevaluate(now);
        }
        Vec::new()
    }

    /// Per-slot housekeeping: eviction, poison emission, Trickle-paced DIOs.
    pub fn tick(&mut self, now: Asn) -> Vec<RoutingEvent> {
        let mut events = Vec::new();
        if is_housekeeping_turn(self.id, now) && now.0 >= self.config.neighbor_timeout {
            let horizon = Asn(now.0 - self.config.neighbor_timeout);
            let evicted = self.neighbors.evict_stale(horizon);
            if !evicted.is_empty() {
                self.settled_until = Asn::ZERO;
            }
            if evicted.iter().any(|id| self.preferred == Some(*id)) {
                self.lockout_until = Asn::ZERO;
                events.extend(self.reevaluate(now));
            }
        }
        if self.poison_pending {
            self.poison_pending = false;
            events.push(RoutingEvent::BroadcastDio(Dio {
                rank: Rank::INFINITE,
                path_etx: f64::INFINITY,
                parent: None,
            }));
        }
        if self.trickle.tick(now) && self.is_joined() {
            events.push(RoutingEvent::BroadcastDio(self.dio()));
        }
        events
    }

    /// The earliest slot at or after `from` at which [`Self::tick`] does
    /// anything: at once while a poison DIO is pending, else the Trickle
    /// timer's next event or the node's first turn in the staggered
    /// eviction cadence that finds a neighbor silent for longer than
    /// `neighbor_timeout` (a turn before that evicts nothing, by the very
    /// condition `tick` tests).
    pub fn next_tick(&self, from: Asn) -> Asn {
        if self.poison_pending {
            return from;
        }
        let timeout = self.config.neighbor_timeout;
        let evicts = self.neighbors.oldest_heard().map(|heard| heard + (timeout + 1));
        next_due_housekeeping_turn(self.id, from, evicts).min(self.trickle.next_event().max(from))
    }

    /// Standard RPL parent selection: cheapest neighbor whose rank is
    /// strictly below ours-to-be, with hysteresis — the full selection, in
    /// one walk and no allocation. Settles the node (see `settled_until`)
    /// when it changes nothing.
    fn reevaluate(&mut self, now: Asn) -> Vec<RoutingEvent> {
        debug_assert!(!self.is_root);
        #[cfg(test)]
        if self.oracle {
            return self.reference_reevaluate(now);
        }
        let old = self.preferred;

        let new = match self.neighbors.cheapest(&[], |_, e| self.is_eligible(e)) {
            None => None,
            Some((challenger, ccost)) => {
                // Incumbents must pass the same usability bar as
                // challengers (finite rank/cost, usable RSS).
                let incumbent = old.and_then(|p| {
                    let entry = self.neighbors.get(p).filter(|e| e.is_usable());
                    entry.map(|e| (p, e.accumulated_cost()))
                });
                match incumbent {
                    Some((p, cost))
                        if challenger != p
                            && (ccost + self.config.hysteresis >= cost
                                || now < self.lockout_until) =>
                    {
                        Some(p)
                    }
                    _ => Some(challenger),
                }
            }
        };

        let new_rank = match new.and_then(|p| self.neighbors.get(p)) {
            Some(e) => e.rank.deeper(),
            None => Rank::INFINITE,
        };
        let detaching = self.rank.is_finite() && !new_rank.is_finite();
        let rank_held = self.rank == new_rank;
        self.rank = new_rank;
        if new == old {
            // Nothing changed — unless the rank did, which eligibility
            // reads — so nothing changes before the lockout runs out.
            self.settled_until = if !rank_held {
                Asn::ZERO
            } else if now < self.lockout_until {
                self.lockout_until
            } else {
                Asn(u64::MAX)
            };
            return Vec::new();
        }
        self.settled_until = Asn::ZERO;
        self.preferred = new;
        self.lockout_until = Asn(now.0 + self.config.switch_lockout);
        if self.joined_at.is_none() && new.is_some() {
            self.joined_at = Some(now);
        }
        self.trickle.reset(now);
        if detaching {
            self.poison_pending = true;
        }
        vec![RoutingEvent::ParentsChanged { best: new, second: None }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::neighbor::drawn::Neighbor;

    impl RplRouting {
        /// `reevaluate` as it stood before PR 22 — every candidate collected
        /// into a `Vec` and sorted, on every call — kept verbatim (name and
        /// indentation aside) as the oracle of the differential twin below. It
        /// knows nothing of `settled_until`.
        pub(super) fn reference_reevaluate(&mut self, now: Asn) -> Vec<RoutingEvent> {
            debug_assert!(!self.is_root);
            let old = self.preferred;

            let mut candidates: Vec<(NodeId, f64, Rank)> = self
                .neighbors
                .iter()
                .filter(|(_, e)| {
                    e.rank.is_finite()
                        && e.advertised_cost.is_finite()
                        && e.last_rss.dbm() >= digs_sim::rf::RSS_MIN.dbm()
                })
                .map(|(id, e)| (id, e.accumulated_cost(), e.rank))
                .collect();
            candidates.sort_by(|a, b| {
                a.1.partial_cmp(&b.1).expect("finite").then(a.2.cmp(&b.2)).then(a.0.cmp(&b.0))
            });

            // Rank rule: once joined, never select a parent whose rank is not
            // strictly below our own (loop avoidance); a detached node may pick
            // anyone.
            let eligible = |rank: Rank| -> bool {
                if self.rank.is_finite() {
                    rank < self.rank
                } else {
                    true
                }
            };
            let new = match candidates.iter().find(|(_, _, r)| eligible(*r)) {
                None => None,
                Some(&(challenger, ccost, _)) => {
                    // Incumbents must pass the same eligibility bar as
                    // challengers (finite rank/cost, usable RSS).
                    let incumbent = old.and_then(|p| {
                        candidates.iter().find(|(id, _, _)| *id == p).map(|(_, cost, _)| (p, *cost))
                    });
                    match incumbent {
                        Some((p, cost))
                            if challenger != p
                                && (ccost + self.config.hysteresis >= cost
                                    || now < self.lockout_until) =>
                        {
                            Some(p)
                        }
                        _ => Some(challenger),
                    }
                }
            };

            let new_rank = match new.and_then(|p| self.neighbors.get(p)) {
                Some(e) => e.rank.deeper(),
                None => Rank::INFINITE,
            };
            let detaching = self.rank.is_finite() && !new_rank.is_finite();
            self.rank = new_rank;
            if new == old {
                return Vec::new();
            }
            self.preferred = new;
            self.lockout_until = Asn(now.0 + self.config.switch_lockout);
            if self.joined_at.is_none() && new.is_some() {
                self.joined_at = Some(now);
            }
            self.trickle.reset(now);
            if detaching {
                self.poison_pending = true;
            }
            vec![RoutingEvent::ParentsChanged { best: new, second: None }]
        }
    }

    const STRONG: Dbm = Dbm(-55.0);

    fn device(id: u16) -> RplRouting {
        RplRouting::new(NodeId(id), false, RoutingConfig::fast(), 1, Asn(0))
    }

    fn root_dio() -> Dio {
        Dio { rank: Rank::ROOT, path_etx: 0.0, parent: None }
    }

    #[test]
    fn joins_on_first_dio() {
        let mut d = device(5);
        d.on_dio(NodeId(0), &root_dio(), STRONG, Asn(1));
        assert_eq!(d.preferred_parent(), Some(NodeId(0)));
        assert_eq!(d.rank(), Rank(2));
        assert!(d.is_joined());
    }

    #[test]
    fn single_parent_only() {
        let mut d = device(5);
        d.on_dio(NodeId(0), &root_dio(), STRONG, Asn(1));
        d.on_dio(NodeId(1), &root_dio(), STRONG, Asn(2));
        // Still exactly one preferred parent.
        assert!(d.preferred_parent().is_some());
    }

    #[test]
    fn rank_rule_blocks_deeper_parents() {
        let mut d = device(5);
        d.on_dio(NodeId(0), &root_dio(), Dbm(-88.0), Asn(1));
        assert_eq!(d.rank(), Rank(2));
        // A rank-5 node advertises an attractive cost; rank rule forbids it.
        d.on_dio(NodeId(9), &Dio { rank: Rank(5), path_etx: 0.1, parent: None }, STRONG, Asn(2));
        assert_eq!(d.preferred_parent(), Some(NodeId(0)));
    }

    /// Drives the node to eviction-based detachment (the parent went
    /// silent long enough to be evicted from the neighbor table).
    fn detach_by_silence(d: &mut RplRouting) -> (u64, Vec<RoutingEvent>) {
        let timeout = RoutingConfig::fast().neighbor_timeout;
        let mut now = timeout + 64;
        while now % 64 != u64::from(d.id().0) % 64 {
            now += 1;
        }
        let events = d.tick(Asn(now));
        (now, events)
    }

    #[test]
    fn parent_loss_detaches_and_poisons_when_no_alternative() {
        let mut d = device(5);
        d.on_dio(NodeId(0), &root_dio(), STRONG, Asn(1));
        let (_, events) = detach_by_silence(&mut d);
        assert!(!d.is_joined());
        assert_eq!(d.rank(), Rank::INFINITE);
        // The eviction tick emits the poison DIO along with the detach.
        assert!(
            events
                .iter()
                .any(|e| matches!(e, RoutingEvent::BroadcastDio(dio) if !dio.rank.is_finite())),
            "expected poison DIO, got {events:?}"
        );
    }

    #[test]
    fn degraded_sole_parent_is_kept() {
        let mut d = device(5);
        d.on_dio(NodeId(0), &root_dio(), STRONG, Asn(1));
        let threshold = RoutingConfig::fast().parent_failure_threshold;
        for i in 0..u64::from(threshold) {
            d.on_tx_result(NodeId(0), false, Asn(10 + i));
        }
        assert!(d.is_joined(), "no alternative: keep the degraded parent");
    }

    #[test]
    fn rejoins_after_detach_on_fresh_dio() {
        let mut d = device(5);
        d.on_dio(NodeId(0), &root_dio(), STRONG, Asn(1));
        let (now, _) = detach_by_silence(&mut d);
        assert!(!d.is_joined());
        d.on_dio(NodeId(1), &root_dio(), STRONG, Asn(now + 10));
        assert_eq!(d.preferred_parent(), Some(NodeId(1)));
        assert!(d.is_joined());
    }

    #[test]
    fn switches_to_clearly_better_parent() {
        let mut d = device(5);
        // Expensive incumbent: weak link to a deep node (acc ≈ 5.9).
        d.on_dio(
            NodeId(7),
            &Dio { rank: Rank(2), path_etx: 3.0, parent: None },
            Dbm(-88.0),
            Asn(1),
        );
        assert_eq!(d.preferred_parent(), Some(NodeId(7)));
        // A strong direct root link (acc ≈ 1.0) clears the hysteresis bar
        // once the voluntary-switch lockout has expired.
        let after_lockout = Asn(2 + RoutingConfig::fast().switch_lockout);
        d.on_dio(NodeId(1), &root_dio(), STRONG, after_lockout);
        assert_eq!(d.preferred_parent(), Some(NodeId(1)));
    }

    #[test]
    fn path_etx_accumulates() {
        let mut d = device(5);
        d.on_dio(NodeId(7), &Dio { rank: Rank(2), path_etx: 2.0, parent: None }, STRONG, Asn(1));
        // Link ETX ≈ 1 → path ≈ 3.
        assert!((d.path_etx() - 3.0).abs() < 0.05);
    }

    #[test]
    fn root_advertises_zero() {
        let r = RplRouting::new(NodeId(0), true, RoutingConfig::fast(), 1, Asn(0));
        assert_eq!(r.path_etx(), 0.0);
        assert_eq!(r.rank(), Rank::ROOT);
        assert!(r.is_joined());
    }

    #[test]
    fn trickle_paces_dios() {
        let mut d = device(5);
        d.on_dio(NodeId(0), &root_dio(), STRONG, Asn(1));
        let mut emitted = 0;
        for s in 2..200u64 {
            emitted += d
                .tick(Asn(s))
                .iter()
                .filter(|e| matches!(e, RoutingEvent::BroadcastDio(_)))
                .count();
        }
        assert!(emitted > 0);
    }
    #[test]
    fn settled_skip_and_sort_free_selection_match_the_reference_selection() {
        let (mut heard, mut skipped, mut changes) = (0u64, 0u64, 0u64);
        digs_cases::cases(400, |d| {
            let mut config = RoutingConfig::fast();
            if d.bool() {
                (config.neighbor_timeout, config.backup_staleness) = (300, 150);
            }
            config.switch_lockout = d.int(0u64..=200);
            config.hysteresis = *d.pick(&[0.0, 0.25, 0.5, 1.0]);
            let id = NodeId(d.int(20u16..300));
            let mut ours = RplRouting::new(id, false, config, d.u64(), Asn(0));
            // The twin never settles: every full selection it runs is the
            // reference body, which does not know the field.
            let mut twin = RplRouting { oracle: true, ..ours.clone() };
            let mut neighbors = d.vec(2..13, Neighbor::draw);
            for now in (0..2000).map(Asn) {
                assert_eq!(ours.tick(now), twin.tick(now), "{id} ticks at {now}");
                let at = d.int(0..neighbors.len());
                let from = neighbors[at].id;
                match d.int(0..12) {
                    0 => {
                        let to =
                            if d.bool() { ours.preferred_parent().unwrap_or(from) } else { from };
                        let acked = d.int(0..3) > 0;
                        let events = ours.on_tx_result(to, acked, now);
                        assert_eq!(events, twin.on_tx_result(to, acked, now), "{id} at {now}");
                    }
                    2..=5 => {
                        let Some((rank, path_etx, rss)) = neighbors[at].advertise(d, now) else {
                            continue;
                        };
                        let dio = Dio { rank, path_etx, parent: None };
                        let may_skip =
                            now < ours.settled_until && ours.preferred_parent() != Some(from);
                        let events = ours.on_dio(from, &dio, rss, now);
                        assert_eq!(events, twin.on_dio(from, &dio, rss, now), "{id} at {now}");
                        heard += 1;
                        // A skip leaves the state `could_take_over` saw; a
                        // full selection that found nothing does too, and a
                        // full selection runs only after a yes.
                        let quiet_call = events.is_empty() && !ours.could_take_over(from);
                        skipped += u64::from(may_skip && quiet_call);
                        changes += events
                            .iter()
                            .filter(|e| matches!(e, RoutingEvent::ParentsChanged { .. }))
                            .count() as u64;
                    }
                    _ => {}
                }
                // Whole state equal, the new field (and the twin's mark) aside.
                let seen =
                    RplRouting { settled_until: ours.settled_until, oracle: false, ..twin.clone() };
                assert_eq!(ours, seen, "{id} at {now}");
            }
        });
        assert!(
            heard > 200_000 && skipped > 100_000 && changes > 10_000,
            "{heard} DIOs heard, {skipped} skipped, {changes} parent changes"
        );
    }
    #[test]
    fn closed_form_skipping_to_next_tick_matches_ticking_every_slot() {
        let mut evictions = 0;
        digs_cases::cases(120, |d| {
            let mut config = RoutingConfig::fast();
            if d.bool() {
                config.neighbor_timeout = 300;
            }
            let id = NodeId(d.int(1u16..300));
            let mut every = RplRouting::new(id, d.int(0u8..8) == 0, config, d.u64(), Asn(0));
            let mut skipping = every.clone();
            // Neighbors of ranks 1 to 3 that advertise now and then, each
            // until it falls silent for good.
            let neighbors = d.vec(1..8, |d| {
                let dio =
                    Dio { rank: Rank(d.int(1u16..4)), path_etx: d.f64(0.0..4.0), parent: None };
                (NodeId(d.int(0u16..40)), dio, Dbm(d.f64(-85.0..-50.0)), d.int(1u64..400))
            });
            let mut wake = skipping.next_tick(Asn(0));
            for now in (0..3 * config.neighbor_timeout + 400).map(Asn) {
                let known = every.neighbors().len();
                let events = every.tick(now);
                if now >= wake {
                    let before = skipping.clone();
                    assert_eq!(skipping.tick(now), events, "{id} at {now}");
                    assert_ne!(skipping, before, "{id} named {now}, a turn that does nothing");
                    wake = skipping.next_tick(now.next());
                } else {
                    assert!(events.is_empty(), "{id} skipped {now} for {wake}: {events:?}");
                }
                evictions += usize::from(every.neighbors().len() < known);
                // What reaches the node from outside: a DIO, or the outcome
                // of a transmission. Either is a call into the stack, after
                // which the engine asks for the wake slot again.
                for (from, dio, rss, silent_from) in &neighbors {
                    if now.0 < *silent_from && d.int(0..30) == 0 {
                        every.on_dio(*from, dio, *rss, now);
                        skipping.on_dio(*from, dio, *rss, now);
                        wake = skipping.next_tick(now.next());
                    }
                }
                if let (Some(parent), 0) = (every.preferred_parent(), d.int(0..25)) {
                    let acked = d.int(0..3) > 0;
                    every.on_tx_result(parent, acked, now);
                    skipping.on_tx_result(parent, acked, now);
                    wake = skipping.next_tick(now.next());
                }
                assert_eq!(skipping, every, "{id} at {now}");
            }
            assert!(every.neighbors().is_empty(), "{id} still knows {:?}", every.neighbors());
        });
        assert!(evictions > 100, "{evictions} evictions");
    }
}
