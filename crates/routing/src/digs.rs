//! The DiGS distributed graph routing protocol (paper Section V,
//! Algorithm 1).
//!
//! Every field device selects a **best parent** (primary route) and a
//! **second-best parent** (backup route) toward the access points, ranked
//! by accumulated ETX `ETXa(node, i) = ETX(node, i) + ETXw(i)`. The node's
//! own advertised cost is the weighted ETX of Eq. 1–3:
//!
//! ```text
//! ETXw = ω1·ETXabp + ω2·ETXasbp
//! ω1 = 1 − (1 − 1/ETXbp)²      (both scheduled attempts via the primary)
//! ω2 = (1 − 1/ETXbp)²          (fall back to the backup route)
//! ```
//!
//! Join-in broadcasts are paced by Trickle and carry `(rank, ETXw)` and the
//! sender's two parent ids, from which each parent maintains its child table
//! (the paper's joined-callback unicast is not sent; see DESIGN deviation
//! 4). Children are excluded from parent candidacy and the
//! second-best parent must have strictly lower rank — the paper's
//! loop-avoidance rules (same-rank links are never used for routing).
//!
//! Parent *loss* (consecutive missed ACKs or prolonged silence), which the
//! pseudo-code leaves implicit, runs a full selection over the neighbor
//! table. A join-in is Algorithm 1's per-sender comparison: while a full
//! selection is known to be a fixed point (`settled_until`), one from a
//! neighbor that is not a parent re-runs it only if that neighbor, with its
//! new entry, could beat the best or the second-best parent under
//! hysteresis — nobody else's standing can have moved.

use crate::messages::{JoinIn, Rank, RoutingEvent};
use crate::neighbor::{
    is_housekeeping_turn, next_due_housekeeping_turn, NeighborEntry, NeighborTable,
};
use crate::trickle::{Trickle, TrickleConfig};
use digs_sim::ids::NodeId;
use digs_sim::rf::Dbm;
use digs_sim::time::Asn;

/// Tuning knobs for [`DigsRouting`] (and, where shared, [`crate::rpl::RplRouting`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoutingConfig {
    /// Trickle timer parameters for join-in emission.
    pub trickle: TrickleConfig,
    /// Consecutive unacknowledged transmissions after which a parent is
    /// presumed unreachable and dropped.
    pub parent_failure_threshold: u32,
    /// Silence horizon (in slots) after which a neighbor is evicted.
    pub neighbor_timeout: u64,
    /// Minimum accumulated-ETX improvement required to switch best parent
    /// (hysteresis against churn).
    pub hysteresis: f64,
    /// Use the paper's weighted ETX (Eq. 1–3) as the advertised cost. When
    /// `false` (ablation), advertise the plain accumulated ETX through the
    /// best parent.
    pub use_weighted_etx: bool,
    /// Maintain a second-best parent. When `false` (ablation), the protocol
    /// degenerates to single-path routing à la RPL.
    pub use_second_parent: bool,
    /// Minimum slots between *voluntary* parent switches (cost-driven, as
    /// opposed to failure-driven, which always proceeds). Neighbor link
    /// estimates start from the optimistic RSS mapping, so an unproven
    /// challenger often looks better than a measured parent; rate-limiting
    /// voluntary switches keeps that optimism from churning the graph.
    pub switch_lockout: u64,
    /// Silence horizon (in slots) after which a neighbor's *advertised
    /// rank* is no longer trusted for backup-parent selection. A backup
    /// carries no data traffic, so the failure-threshold path never probes
    /// it; without a freshness bar a neighbor whose last join-in predates
    /// a rank change can stay pinned as `second` until the much longer
    /// [`RoutingConfig::neighbor_timeout`] eviction fires — long enough to
    /// freeze a routing loop past the auditor's debounce. Must exceed the
    /// Trickle `imax` (a quiet but live neighbor beacons at least that
    /// often) and stay well under `neighbor_timeout` to be useful.
    pub backup_staleness: u64,
}

fn default_backup_staleness() -> u64 {
    // Two full quiet intervals plus firing-phase slack (2 × imax + imin,
    // i.e. 129 s): a live steady-state neighbor beacons every imax, so
    // this tolerates one lost beacon at the worst phase before the edge
    // is distrusted. A genuinely stale edge still clears the auditor's
    // 120 s frozen-loop debounce because its silence predates the loop
    // freezing (the loop froze *because* the advertisement was already
    // old).
    let t = TrickleConfig::standard();
    2 * t.imax + t.imin
}

impl Default for RoutingConfig {
    fn default() -> RoutingConfig {
        RoutingConfig {
            trickle: TrickleConfig::standard(),
            parent_failure_threshold: 8,
            neighbor_timeout: 3 * TrickleConfig::standard().imax,
            hysteresis: 2.5,
            use_weighted_etx: true,
            use_second_parent: true,
            switch_lockout: 3000, // 30 s
            backup_staleness: default_backup_staleness(),
        }
    }
}

impl RoutingConfig {
    /// A fast-converging profile for unit tests.
    pub fn fast() -> RoutingConfig {
        RoutingConfig {
            trickle: TrickleConfig::fast(),
            neighbor_timeout: 3 * TrickleConfig::fast().imax,
            backup_staleness: 2 * TrickleConfig::fast().imax + TrickleConfig::fast().imin,
            ..RoutingConfig::default()
        }
    }
}

/// The per-node DiGS routing state machine. See the [module docs](self).
#[derive(Debug, Clone, PartialEq)]
pub struct DigsRouting {
    id: NodeId,
    is_root: bool,
    config: RoutingConfig,
    trickle: Trickle,
    neighbors: NeighborTable,
    best: Option<NodeId>,
    second: Option<NodeId>,
    rank: Rank,
    /// The neighbors whose join-in names us as a parent, ascending.
    children: Vec<NodeId>,
    joined_at: Option<Asn>,
    /// Voluntary switches are suppressed until this slot.
    lockout_until: Asn,
    /// Before this slot a full selection ([`Self::reevaluate`]) over
    /// `neighbors` and `children` as they stand changes neither a parent
    /// nor the rank. Only a selection that changed nothing sets it, to the
    /// earliest slot at which one of its tests flips with time alone: the
    /// lockout's expiry, or the backup parent's advertisement passing
    /// `backup_staleness`. Everything else that moves the selection's
    /// inputs clears it — `record_tx` (and `degrade`) in `on_tx_result`, an
    /// eviction in `tick`, and any selection that changed something —
    /// except the two mutations `on_join_in` makes (`record_advertisement`
    /// and the sender's own child-set membership), which touch the sender
    /// alone and are what [`Self::could_take_a_slot`] tests. Those are all
    /// the mutators of `neighbors` and `children` there are. (Clearing on
    /// an eviction, and requiring the rank to have held, are more than
    /// exactness needs — a neighbor leaving only reveals dearer challengers,
    /// and this selection does not read the node's own rank — but keep the
    /// rule the same as RPL's, where the rank is read.)
    settled_until: Asn,
    /// Test builds only: full selections run the pre-PR-22 body, the
    /// oracle of the differential twin.
    #[cfg(test)]
    oracle: bool,
}

impl DigsRouting {
    /// Creates the state machine. Access points (`is_root`) start at rank 1
    /// with `ETXw = 0` and immediately begin advertising; field devices
    /// start detached at infinite rank.
    pub fn new(
        id: NodeId,
        is_root: bool,
        config: RoutingConfig,
        seed: u64,
        now: Asn,
    ) -> DigsRouting {
        DigsRouting {
            id,
            is_root,
            config,
            trickle: Trickle::new(config.trickle, seed ^ u64::from(id.0) << 17, now),
            neighbors: NeighborTable::new(),
            best: None,
            second: None,
            rank: if is_root { Rank::ROOT } else { Rank::INFINITE },
            children: Vec::new(),
            joined_at: if is_root { Some(now) } else { None },
            lockout_until: Asn::ZERO,
            settled_until: Asn::ZERO,
            #[cfg(test)]
            oracle: false,
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Whether this node is an access point.
    pub fn is_root(&self) -> bool {
        self.is_root
    }

    /// Current rank.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Current best (primary) parent.
    pub fn best_parent(&self) -> Option<NodeId> {
        self.best
    }

    /// Current second-best (backup) parent.
    pub fn second_best_parent(&self) -> Option<NodeId> {
        self.second
    }

    /// Nodes that selected us as one of their parents.
    pub fn children(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.children.iter().copied()
    }

    /// Whether the node has joined the routing graph (roots always have).
    pub fn is_joined(&self) -> bool {
        self.is_root || self.best.is_some()
    }

    /// When the node first joined, if it has.
    pub fn joined_at(&self) -> Option<Asn> {
        self.joined_at
    }

    /// Read access to the neighbor table.
    pub fn neighbors(&self) -> &NeighborTable {
        &self.neighbors
    }

    /// Current Trickle interval in slots (doubles while the DODAG is
    /// quiet, resets on inconsistency) — a cheap convergence-state gauge
    /// for the telemetry layer.
    pub fn trickle_interval(&self) -> u64 {
        self.trickle.interval()
    }

    /// Accumulated ETX to the access points through `via` (Algorithm 1's
    /// `ETXa`), or `None` if `via` is unknown.
    pub fn accumulated_etx(&self, via: NodeId) -> Option<f64> {
        self.neighbors.get(via).map(|e| e.accumulated_cost())
    }

    /// The node's advertised cost: the weighted ETX of Eq. 1–3 (or, for the
    /// ablation, the plain accumulated ETX through the best parent).
    /// Roots advertise 0; detached nodes advertise infinity.
    pub fn etx_w(&self) -> f64 {
        if self.is_root {
            return 0.0;
        }
        let Some(best) = self.best else {
            return f64::INFINITY;
        };
        let Some(best_entry) = self.neighbors.get(best) else {
            return f64::INFINITY;
        };
        let etx_abp = best_entry.accumulated_cost();
        if !self.config.use_weighted_etx {
            return etx_abp;
        }
        let etx_bp = best_entry.etx.etx();
        let w2 = (1.0 - 1.0 / etx_bp).powi(2);
        let w1 = 1.0 - w2;
        let etx_asbp = self
            .second
            .and_then(|s| self.neighbors.get(s))
            .map_or(etx_abp, |e| e.accumulated_cost());
        w1 * etx_abp + w2 * etx_asbp
    }

    /// The join-in message the node would broadcast right now.
    pub fn join_in(&self) -> JoinIn {
        JoinIn {
            rank: self.rank,
            etx_w: self.etx_w(),
            best_parent: self.best,
            second_parent: self.second,
        }
    }

    /// Handles a received join-in broadcast. Besides evaluating the sender
    /// as a parent, this refreshes our child table from the parent ids the
    /// sender advertises: a sender naming us is a child, and one that does
    /// not is not (and a parent that names us is dropped by the selection,
    /// which breaks mutual parenthood).
    pub fn on_join_in(
        &mut self,
        from: NodeId,
        msg: &JoinIn,
        rss: Dbm,
        now: Asn,
    ) -> Vec<RoutingEvent> {
        self.trickle.hear_consistent();
        if from == self.id {
            return Vec::new();
        }
        // A neighbor advertising infinite cost has detached; keep the entry
        // (link quality is still real) but it won't qualify as a parent.
        self.neighbors.record_advertisement(from, msg.rank, msg.etx_w, rss, now);
        let advertises_us = msg.best_parent == Some(self.id) || msg.second_parent == Some(self.id);
        match (self.children.binary_search(&from), advertises_us) {
            (Err(at), true) => self.children.insert(at, from),
            (Ok(at), false) => {
                self.children.remove(at);
            }
            _ => {}
        }
        if self.is_root {
            return Vec::new();
        }
        // A parent's advertisement moves what everybody is compared with
        // (and mutual parenthood, detected here, has to be resolved); anyone
        // else's matters only through the sender while the node is settled.
        let is_parent = self.best == Some(from) || self.second == Some(from);
        if now < self.settled_until && !is_parent && !self.could_take_a_slot(from) {
            return Vec::new();
        }
        self.reevaluate(now)
    }

    /// Whether a full selection could hand `from` — not a current parent,
    /// its entry and child-set membership already updated from the join-in
    /// just heard — a parent slot: it is a candidate, and it undercuts the
    /// best parent or, from a lower rank, the backup by more than the
    /// hysteresis (or the slot is empty). These are the selection's own
    /// float expressions; the lockout is left out, which only makes this
    /// say yes more often than the selection would.
    ///
    /// While the node is settled, a no here means the selection is still a
    /// fixed point. Every other neighbor has already lost to the incumbents,
    /// and costs enter only through `challenger + hysteresis >= incumbent`,
    /// which is monotone in the challenger's cost: the sender getting
    /// dearer, ineligible or becoming a child, like a challenger going
    /// stale, only reveals a dearer challenger. The incumbents' entries
    /// and our rank move only with a parent's join-in or a call that
    /// clears `settled_until`.
    fn could_take_a_slot(&self, from: NodeId) -> bool {
        let Some(entry) = self.neighbors.get(from).filter(|e| self.is_candidate(from, e)) else {
            return false;
        };
        let cost = entry.accumulated_cost();
        let undercuts = |holder: Option<NodeId>| {
            holder
                .and_then(|h| self.neighbors.get(h))
                .is_none_or(|h| cost + self.config.hysteresis < h.accumulated_cost())
        };
        undercuts(self.best)
            || (self.config.use_second_parent && entry.rank < self.rank && undercuts(self.second))
    }

    /// Candidate parents: usable neighbors that are not our children.
    fn is_candidate(&self, id: NodeId, entry: &NeighborEntry) -> bool {
        entry.is_usable() && !self.is_child(id)
    }

    fn is_child(&self, id: NodeId) -> bool {
        self.children.binary_search(&id).is_ok()
    }

    /// Handles the outcome of a data transmission to `to`: updates the
    /// link ETX and drops the parent after `parent_failure_threshold`
    /// consecutive failures.
    pub fn on_tx_result(&mut self, to: NodeId, acked: bool, now: Asn) -> Vec<RoutingEvent> {
        let Some(failures) = self.neighbors.record_tx(to, acked) else {
            return Vec::new();
        };
        self.settled_until = Asn::ZERO;
        let is_parent = self.best == Some(to) || self.second == Some(to);
        if is_parent && failures >= self.config.parent_failure_threshold {
            // Degrade rather than forget: the scheduler's backup route
            // already covers the short term, and wholesale removal under
            // bursty interference causes needless detach/rejoin churn.
            self.neighbors.degrade(to);
            self.lockout_until = Asn::ZERO; // failure overrides the lockout
            return self.reevaluate(now);
        }
        Vec::new()
    }

    /// Per-slot housekeeping: neighbor eviction and Trickle-paced join-in
    /// emission.
    pub fn tick(&mut self, now: Asn) -> Vec<RoutingEvent> {
        let mut events = Vec::new();
        if is_housekeeping_turn(self.id, now) && now.0 >= self.config.neighbor_timeout {
            let horizon = Asn(now.0 - self.config.neighbor_timeout);
            let evicted = self.neighbors.evict_stale(horizon);
            let lost_parent =
                evicted.iter().any(|id| self.best == Some(*id) || self.second == Some(*id));
            if !evicted.is_empty() {
                self.settled_until = Asn::ZERO;
                self.children.retain(|id| evicted.binary_search(id).is_err());
            }
            if lost_parent {
                self.lockout_until = Asn::ZERO;
                events.extend(self.reevaluate(now));
            }
        }
        // Backup-parent staleness re-validation, on the same staggered
        // cadence as eviction: a backup carries no data traffic, so the
        // failure-threshold path never probes it. If the backup's rank
        // advertisement has gone quiet past `backup_staleness`, stop
        // trusting it — `reevaluate` refuses stale incumbents and picks a
        // fresh (or no) backup, clearing frozen loops long before the
        // `neighbor_timeout` eviction would.
        if !self.is_root && is_housekeeping_turn(self.id, now) {
            let stale_second = self.second.is_some_and(|s| {
                self.neighbors.get(s).is_none_or(|e| {
                    now.0.saturating_sub(e.last_heard.0) > self.config.backup_staleness
                })
            });
            if stale_second {
                events.extend(self.reevaluate(now));
            }
        }
        if self.trickle.tick(now) && self.is_joined() {
            events.push(RoutingEvent::BroadcastJoinIn(self.join_in()));
        }
        events
    }

    /// The earliest slot at or after `from` at which [`Self::tick`] does
    /// anything: the Trickle timer's next event, or the node's first turn
    /// in the staggered housekeeping cadence that finds something — a
    /// neighbor silent for longer than `neighbor_timeout`, or a backup
    /// parent silent for longer than `backup_staleness` (at once, if it has
    /// no neighbor entry). A turn before that evicts nothing and
    /// re-evaluates nothing, by the very conditions `tick` tests.
    pub fn next_tick(&self, from: Asn) -> Asn {
        let config = &self.config;
        let evicts =
            self.neighbors.oldest_heard().map(|heard| heard + (config.neighbor_timeout + 1));
        let distrusts = self.second.map(|second| {
            let entry = self.neighbors.get(second);
            entry.map_or(Asn::ZERO, |e| e.last_heard + (config.backup_staleness + 1))
        });
        let due = evicts.into_iter().chain(distrusts).min();
        next_due_housekeeping_turn(self.id, from, due).min(self.trickle.next_event().max(from))
    }

    /// Re-runs parent selection over the neighbor table — the full
    /// selection, one walk per slot and no allocation. Emits telemetry, and
    /// resets Trickle, when the parent set changes; settles the node (see
    /// `settled_until`) when nothing does.
    fn reevaluate(&mut self, now: Asn) -> Vec<RoutingEvent> {
        debug_assert!(!self.is_root, "roots never select parents");
        #[cfg(test)]
        if self.oracle {
            return self.reference_reevaluate(now);
        }
        let old_best = self.best;
        let old_second = self.second;

        // Best parent: minimum accumulated ETX, with hysteresis in favor of
        // the incumbent.
        // Candidates are usable neighbors that are not children; the
        // children are passed over as the walk meets them.
        let new_best = match self.neighbors.cheapest(&self.children, |_, e| e.is_usable()) {
            None => None,
            Some((challenger, challenger_cost)) => {
                // The incumbent only survives if it still passes the same
                // eligibility bar as the challengers (finite rank/cost,
                // usable RSS, not a child).
                let incumbent = old_best.and_then(|b| {
                    let entry = self.neighbors.get(b).filter(|e| self.is_candidate(b, e));
                    entry.map(|e| (b, e.accumulated_cost()))
                });
                match incumbent {
                    Some((b, cost))
                        if challenger != b
                            && (challenger_cost + self.config.hysteresis >= cost
                                || now < self.lockout_until) =>
                    {
                        Some(b)
                    }
                    _ => Some(challenger),
                }
            }
        };

        // Rank derives from the best parent.
        let new_rank = match new_best.and_then(|b| self.neighbors.get(b)) {
            Some(e) => e.rank.deeper(),
            None => Rank::INFINITE,
        };

        // Second-best parent: next-cheapest candidate with *strictly lower
        // rank than us* (paper's loop rule: same-rank links are not used).
        // The incumbent also enjoys hysteresis — backup flapping moves the
        // child's backup cells between parents on every flip.
        let new_second = if self.config.use_second_parent {
            // Freshness bar for backup edges only: the primary parent's
            // liveness is continuously probed by data traffic (failure
            // threshold), but a backup's advertised rank is only as old as
            // its last join-in.
            let fresh = |last_heard: Asn| {
                now.0.saturating_sub(last_heard.0) <= self.config.backup_staleness
            };
            let challenger = self.neighbors.cheapest(&self.children, |id, e| {
                e.is_usable() && Some(id) != new_best && e.rank < new_rank && fresh(e.last_heard)
            });
            let incumbent =
                old_second.filter(|s| Some(*s) != new_best && !self.is_child(*s)).and_then(|s| {
                    self.neighbors
                        .get(s)
                        .filter(|e| {
                            e.rank < new_rank
                                && e.advertised_cost.is_finite()
                                && fresh(e.last_heard)
                        })
                        .map(|e| (s, e.accumulated_cost()))
                });
            match (challenger, incumbent) {
                (Some((c, c_cost)), Some((i, i_cost))) => {
                    if c != i
                        && c_cost + self.config.hysteresis < i_cost
                        && now >= self.lockout_until
                    {
                        Some(c)
                    } else {
                        Some(i)
                    }
                }
                (Some((c, _)), None) => Some(c),
                (None, Some((i, _))) => Some(i),
                (None, None) => None,
            }
        } else {
            None
        };

        let rank_held = self.rank == new_rank;
        self.rank = new_rank;
        if new_best == old_best && new_second == old_second {
            // Nothing changed, so nothing changes until a test above flips
            // with time alone: the lockout runs out, or the backup's
            // advertisement goes stale. (A *challenger* going stale only
            // leaves a dearer one.)
            self.settled_until = if rank_held {
                let lockout_ends = Some(self.lockout_until).filter(|until| now < *until);
                let backup_stale = new_second
                    .and_then(|s| self.neighbors.get(s))
                    .map(|e| e.last_heard + (self.config.backup_staleness + 1));
                lockout_ends.into_iter().chain(backup_stale).min().unwrap_or(Asn(u64::MAX))
            } else {
                Asn::ZERO
            };
            return Vec::new();
        }
        self.settled_until = Asn::ZERO;
        self.best = new_best;
        self.second = new_second;
        self.lockout_until = Asn(now.0 + self.config.switch_lockout);
        if self.joined_at.is_none() && new_best.is_some() {
            self.joined_at = Some(now);
        }
        self.trickle.reset(now);
        vec![RoutingEvent::ParentsChanged { best: new_best, second: new_second }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::neighbor::drawn::Neighbor;

    impl DigsRouting {
        /// `reevaluate` as it stood before PR 22 — every candidate collected
        /// into a `Vec` and sorted, on every call — kept verbatim (name,
        /// indentation and the retired joined-callbacks aside) as the oracle of
        /// the differential twin below. It knows nothing of `settled_until`.
        pub(super) fn reference_reevaluate(&mut self, now: Asn) -> Vec<RoutingEvent> {
            debug_assert!(!self.is_root, "roots never select parents");
            let old_best = self.best;
            let old_second = self.second;

            // Candidate parents: joined neighbors that are not our children and
            // whose signal is above the paper's RSSmin — links weaker than
            // -90 dBm are below the usable floor, and picking one as a parent
            // only buys a string of failed transmissions.
            let mut candidates: Vec<(NodeId, f64, Rank)> = self
                .neighbors
                .iter()
                .filter(|(id, e)| {
                    !self.children.contains(id)
                        && e.rank.is_finite()
                        && e.advertised_cost.is_finite()
                        && e.last_rss.dbm() >= digs_sim::rf::RSS_MIN.dbm()
                })
                .map(|(id, e)| (id, e.accumulated_cost(), e.rank))
                .collect();
            candidates.sort_by(|a, b| {
                a.1.partial_cmp(&b.1).expect("finite costs").then(a.2.cmp(&b.2)).then(a.0.cmp(&b.0))
            });

            // Best parent: minimum accumulated ETX, with hysteresis in favor of
            // the incumbent.
            let new_best = match candidates.first() {
                None => None,
                Some(&(challenger, challenger_cost, _)) => {
                    // The incumbent only survives if it still passes the same
                    // eligibility bar as the challengers (finite rank/cost,
                    // usable RSS, not a child).
                    let incumbent = old_best.and_then(|b| {
                        candidates.iter().find(|(id, _, _)| *id == b).map(|(_, cost, _)| (b, *cost))
                    });
                    match incumbent {
                        Some((b, cost))
                            if challenger != b
                                && (challenger_cost + self.config.hysteresis >= cost
                                    || now < self.lockout_until) =>
                        {
                            Some(b)
                        }
                        _ => Some(challenger),
                    }
                }
            };

            // Rank derives from the best parent.
            let new_rank = match new_best.and_then(|b| self.neighbors.get(b)) {
                Some(e) => e.rank.deeper(),
                None => Rank::INFINITE,
            };

            // Second-best parent: next-cheapest candidate with *strictly lower
            // rank than us* (paper's loop rule: same-rank links are not used).
            // The incumbent also enjoys hysteresis — backup flapping costs a
            // joined-callback exchange per flip.
            let new_second = if self.config.use_second_parent {
                // Freshness bar for backup edges only: the primary parent's
                // liveness is continuously probed by data traffic (failure
                // threshold), but a backup's advertised rank is only as old as
                // its last join-in.
                let fresh = |last_heard: Asn| {
                    now.0.saturating_sub(last_heard.0) <= self.config.backup_staleness
                };
                let challenger = candidates
                    .iter()
                    .filter(|(id, _, rank)| Some(*id) != new_best && *rank < new_rank)
                    .find(|(id, _, _)| self.neighbors.get(*id).is_some_and(|e| fresh(e.last_heard)))
                    .map(|(id, cost, _)| (*id, *cost));
                let incumbent = old_second
                    .filter(|s| Some(*s) != new_best && !self.children.contains(s))
                    .and_then(|s| {
                        self.neighbors
                            .get(s)
                            .filter(|e| {
                                e.rank < new_rank
                                    && e.advertised_cost.is_finite()
                                    && fresh(e.last_heard)
                            })
                            .map(|e| (s, e.accumulated_cost()))
                    });
                match (challenger, incumbent) {
                    (Some((c, c_cost)), Some((i, i_cost))) => {
                        if c != i
                            && c_cost + self.config.hysteresis < i_cost
                            && now >= self.lockout_until
                        {
                            Some(c)
                        } else {
                            Some(i)
                        }
                    }
                    (Some((c, _)), None) => Some(c),
                    (None, Some((i, _))) => Some(i),
                    (None, None) => None,
                }
            } else {
                None
            };

            self.rank = new_rank;
            if new_best == old_best && new_second == old_second {
                return Vec::new();
            }
            self.best = new_best;
            self.second = new_second;
            self.lockout_until = Asn(now.0 + self.config.switch_lockout);
            if self.joined_at.is_none() && new_best.is_some() {
                self.joined_at = Some(now);
            }
            self.trickle.reset(now);
            vec![RoutingEvent::ParentsChanged { best: new_best, second: new_second }]
        }
    }

    const STRONG: Dbm = Dbm(-55.0);

    fn device(id: u16) -> DigsRouting {
        DigsRouting::new(NodeId(id), false, RoutingConfig::fast(), 42, Asn(0))
    }

    fn root(id: u16) -> DigsRouting {
        DigsRouting::new(NodeId(id), true, RoutingConfig::fast(), 42, Asn(0))
    }

    fn join_in_from(node: &DigsRouting) -> JoinIn {
        node.join_in()
    }

    #[test]
    fn root_starts_joined_with_zero_cost() {
        let r = root(0);
        assert!(r.is_joined());
        assert_eq!(r.rank(), Rank::ROOT);
        assert_eq!(r.etx_w(), 0.0);
    }

    #[test]
    fn device_starts_detached() {
        let d = device(5);
        assert!(!d.is_joined());
        assert_eq!(d.rank(), Rank::INFINITE);
        assert!(d.etx_w().is_infinite());
    }

    #[test]
    fn first_join_in_selects_best_parent() {
        let r = root(0);
        let mut d = device(5);
        let events = d.on_join_in(NodeId(0), &join_in_from(&r), STRONG, Asn(1));
        assert_eq!(d.best_parent(), Some(NodeId(0)));
        assert_eq!(d.second_best_parent(), None);
        assert_eq!(d.rank(), Rank(2));
        assert!(d.is_joined());
        assert_eq!(d.joined_at(), Some(Asn(1)));
        assert_eq!(
            events,
            [RoutingEvent::ParentsChanged { best: Some(NodeId(0)), second: None }],
            "the parent learns of its child from the join-in this announces"
        );
    }

    #[test]
    fn second_root_becomes_backup_parent() {
        let r0 = root(0);
        let r1 = root(1);
        let mut d = device(5);
        d.on_join_in(NodeId(0), &join_in_from(&r0), STRONG, Asn(1));
        let events = d.on_join_in(NodeId(1), &join_in_from(&r1), Dbm(-70.0), Asn(2));
        assert_eq!(d.best_parent(), Some(NodeId(0)));
        assert_eq!(d.second_best_parent(), Some(NodeId(1)));
        assert_eq!(
            events,
            [RoutingEvent::ParentsChanged { best: Some(NodeId(0)), second: Some(NodeId(1)) }]
        );
    }

    #[test]
    fn cheaper_parent_takes_over_best() {
        let mut d = device(5);
        // Expensive first route: weak link to a rank-2 node with a costly
        // path (accumulated ETX ≈ 2.9 + 3.0 ≈ 5.9)…
        d.on_join_in(
            NodeId(9),
            &JoinIn { rank: Rank(2), etx_w: 3.0, best_parent: None, second_parent: None },
            Dbm(-88.0),
            Asn(1),
        );
        assert_eq!(d.best_parent(), Some(NodeId(9)));
        assert_eq!(d.rank(), Rank(3));
        // …then, once the voluntary-switch lockout has expired, a strong
        // direct link to a root (accumulated ≈ 1.0) beats the incumbent by
        // far more than the hysteresis margin.
        let after_lockout = Asn(2 + RoutingConfig::fast().switch_lockout);
        d.on_join_in(
            NodeId(0),
            &JoinIn { rank: Rank::ROOT, etx_w: 0.0, best_parent: None, second_parent: None },
            STRONG,
            after_lockout,
        );
        assert_eq!(d.best_parent(), Some(NodeId(0)));
        assert_eq!(d.rank(), Rank(2));
        // No eligible backup remains: node 9's rank 2 is not strictly
        // below our new rank 2.
        assert_eq!(d.second_best_parent(), None);
    }

    #[test]
    fn hysteresis_keeps_incumbent_on_marginal_improvement() {
        let mut d = device(5);
        d.on_join_in(
            NodeId(0),
            &JoinIn { rank: Rank::ROOT, etx_w: 0.0, best_parent: None, second_parent: None },
            Dbm(-75.0),
            Asn(1),
        );
        let incumbent_cost = d.accumulated_etx(NodeId(0)).expect("known");
        // A challenger 0.1 cheaper: inside the hysteresis band.
        d.on_join_in(
            NodeId(9),
            &JoinIn {
                rank: Rank::ROOT,
                etx_w: incumbent_cost - 1.0 - 0.1,
                best_parent: None,
                second_parent: None,
            },
            STRONG,
            Asn(2),
        );
        assert_eq!(d.best_parent(), Some(NodeId(0)), "marginal challenger must not win");
    }

    #[test]
    fn same_rank_neighbor_never_becomes_backup() {
        // Paper example: #5 and #6 both rank 2; their mutual link is unused.
        let mut d = device(5);
        d.on_join_in(
            NodeId(0),
            &JoinIn { rank: Rank::ROOT, etx_w: 0.0, best_parent: None, second_parent: None },
            STRONG,
            Asn(1),
        );
        assert_eq!(d.rank(), Rank(2));
        d.on_join_in(
            NodeId(6),
            &JoinIn { rank: Rank(2), etx_w: 1.0, best_parent: None, second_parent: None },
            STRONG,
            Asn(2),
        );
        assert_eq!(d.second_best_parent(), None, "same-rank node is not eligible");
    }

    #[test]
    fn child_is_excluded_from_parent_candidacy() {
        // Node 8 advertises a route far cheaper than parent 9's: we take it
        // once the switch lockout is over — unless node 8's join-in names us
        // as its parent, which makes it our child.
        let after_lockout = Asn(2 + RoutingConfig::fast().switch_lockout);
        for names_us in [false, true] {
            let mut d = device(5);
            d.on_join_in(
                NodeId(9),
                &JoinIn { rank: Rank(2), etx_w: 3.0, best_parent: None, second_parent: None },
                Dbm(-88.0),
                Asn(1),
            );
            let best_parent = Some(NodeId(5)).filter(|_| names_us);
            d.on_join_in(
                NodeId(8),
                &JoinIn { rank: Rank(3), etx_w: 0.1, best_parent, second_parent: None },
                STRONG,
                after_lockout,
            );
            let parent = if names_us { NodeId(9) } else { NodeId(8) };
            assert_eq!(d.best_parent(), Some(parent), "node 8 names us: {names_us}");
            assert_eq!(d.children().any(|c| c == NodeId(8)), names_us);
            assert_ne!(d.second_best_parent(), Some(NodeId(8)));
        }
    }

    #[test]
    fn parent_loss_promotes_backup() {
        let r0 = root(0);
        let r1 = root(1);
        let mut d = device(5);
        d.on_join_in(NodeId(0), &join_in_from(&r0), STRONG, Asn(1));
        d.on_join_in(NodeId(1), &join_in_from(&r1), Dbm(-70.0), Asn(2));
        assert_eq!(d.best_parent(), Some(NodeId(0)));
        // Consecutive failures up to the threshold degrade the primary;
        // the backup takes over.
        let threshold = RoutingConfig::fast().parent_failure_threshold;
        let mut promoted = false;
        for i in 0..u64::from(threshold) {
            let events = d.on_tx_result(NodeId(0), false, Asn(10 + i));
            promoted |= events
                .iter()
                .any(|e| matches!(e, RoutingEvent::ParentsChanged { best: Some(b), .. } if *b == NodeId(1)));
        }
        assert!(promoted, "backup must take over after threshold failures");
        assert_eq!(d.best_parent(), Some(NodeId(1)));
    }

    #[test]
    fn degraded_sole_parent_is_kept_not_dropped() {
        // With no alternative route, threshold failures degrade the link
        // estimate but the node stays attached — detachment would only
        // make things worse, and the neighbor-timeout eviction handles
        // genuinely dead parents.
        let r0 = root(0);
        let mut d = device(5);
        d.on_join_in(NodeId(0), &join_in_from(&r0), STRONG, Asn(1));
        let etx_before = d.neighbors().get(NodeId(0)).expect("entry").etx.etx();
        let threshold = RoutingConfig::fast().parent_failure_threshold;
        for i in 0..u64::from(threshold) {
            d.on_tx_result(NodeId(0), false, Asn(10 + i));
        }
        assert!(d.is_joined(), "sole parent is kept");
        assert_eq!(d.best_parent(), Some(NodeId(0)));
        let etx_after = d.neighbors().get(NodeId(0)).expect("entry").etx.etx();
        assert!(etx_after > etx_before + 5.0, "link estimate degraded to cap");
    }

    #[test]
    fn detaches_when_parent_goes_silent() {
        // A dead parent stops advertising; the neighbor timeout evicts it
        // and the node detaches.
        let r0 = root(0);
        let mut d = device(5);
        d.on_join_in(NodeId(0), &join_in_from(&r0), STRONG, Asn(1));
        assert!(d.is_joined());
        let timeout = RoutingConfig::fast().neighbor_timeout;
        // Tick far past the eviction horizon (eviction runs when
        // now % 64 == id % 64).
        let mut now = timeout + 64;
        while now % 64 != 5 {
            now += 1;
        }
        d.tick(Asn(now));
        assert!(!d.is_joined());
        assert_eq!(d.rank(), Rank::INFINITE);
        assert!(d.etx_w().is_infinite());
    }

    #[test]
    fn stale_backup_is_dropped_on_revalidation() {
        let r0 = root(0);
        let r1 = root(1);
        let mut d = device(5);
        d.on_join_in(NodeId(0), &join_in_from(&r0), STRONG, Asn(1));
        d.on_join_in(NodeId(1), &join_in_from(&r1), Dbm(-70.0), Asn(40));
        assert_eq!(d.second_best_parent(), Some(NodeId(1)));
        // The primary keeps beaconing (still inside the horizon at this
        // reevaluation, so the backup survives it); the backup then goes
        // silent past the staleness horizon (fast profile: 68 slots) while
        // staying inside the eviction horizon.
        d.on_join_in(NodeId(0), &join_in_from(&r0), STRONG, Asn(100));
        assert_eq!(d.second_best_parent(), Some(NodeId(1)));
        let staleness = RoutingConfig::fast().backup_staleness;
        let now = 133; // now % 64 == 5 = id % 64, the revalidation cadence
        assert!(now - 40 > staleness, "backup must be past the staleness horizon");
        assert!(
            now - RoutingConfig::fast().neighbor_timeout < 40,
            "but still inside the eviction horizon"
        );
        let events = d.tick(Asn(now));
        assert_eq!(d.best_parent(), Some(NodeId(0)), "fresh primary is untouched");
        assert_eq!(d.second_best_parent(), None, "stale backup must be dropped");
        assert!(
            events.iter().any(|e| matches!(e, RoutingEvent::ParentsChanged { second: None, .. })),
            "the drop must be announced so the scheduler tears down backup cells"
        );
        // A fresh advertisement re-qualifies the neighbor immediately.
        d.on_join_in(NodeId(1), &join_in_from(&r1), Dbm(-70.0), Asn(134));
        assert_eq!(d.second_best_parent(), Some(NodeId(1)));
    }

    #[test]
    fn quiet_but_live_backup_survives_revalidation() {
        let r0 = root(0);
        let r1 = root(1);
        let mut d = device(5);
        d.on_join_in(NodeId(0), &join_in_from(&r0), STRONG, Asn(40));
        d.on_join_in(NodeId(1), &join_in_from(&r1), Dbm(-70.0), Asn(40));
        assert_eq!(d.second_best_parent(), Some(NodeId(1)));
        // 29 silent slots is inside the staleness horizon: no change, and
        // no spurious parent-change event.
        let events = d.tick(Asn(69));
        assert_eq!(d.second_best_parent(), Some(NodeId(1)));
        assert!(!events.iter().any(|e| matches!(e, RoutingEvent::ParentsChanged { .. })));
    }

    #[test]
    fn stale_neighbor_is_not_repicked_as_backup() {
        let r0 = root(0);
        let r1 = root(1);
        let mut d = device(5);
        d.on_join_in(NodeId(0), &join_in_from(&r0), STRONG, Asn(1));
        d.on_join_in(NodeId(1), &join_in_from(&r1), Dbm(-70.0), Asn(40));
        d.on_join_in(NodeId(0), &join_in_from(&r0), STRONG, Asn(100));
        d.tick(Asn(133)); // drops the stale backup
        assert_eq!(d.second_best_parent(), None);
        // A later primary beacon reevaluates again: node 1's entry is
        // still in the table (eviction hasn't fired), but the challenger
        // filter must keep refusing the stale advertisement.
        d.on_join_in(NodeId(0), &join_in_from(&r0), STRONG, Asn(140));
        assert_eq!(d.best_parent(), Some(NodeId(0)));
        assert_eq!(d.second_best_parent(), None, "stale advertisement must not re-qualify");
    }

    #[test]
    fn weighted_etx_matches_equations() {
        let mut d = device(5);
        d.on_join_in(
            NodeId(0),
            &JoinIn { rank: Rank::ROOT, etx_w: 0.0, best_parent: None, second_parent: None },
            Dbm(-75.0),
            Asn(1),
        );
        d.on_join_in(
            NodeId(1),
            &JoinIn { rank: Rank::ROOT, etx_w: 0.0, best_parent: None, second_parent: None },
            Dbm(-80.0),
            Asn(2),
        );
        let etx_bp = d.neighbors().get(NodeId(0)).expect("entry").etx.etx();
        let etx_abp = d.accumulated_etx(NodeId(0)).expect("known");
        let etx_asbp = d.accumulated_etx(NodeId(1)).expect("known");
        let w2 = (1.0 - 1.0 / etx_bp).powi(2);
        let w1 = 1.0 - w2;
        let expected = w1 * etx_abp + w2 * etx_asbp;
        assert!((d.etx_w() - expected).abs() < 1e-9);
        // Sanity: weighted cost lies between the two path costs.
        assert!(d.etx_w() >= etx_abp - 1e-9);
        assert!(d.etx_w() <= etx_asbp + 1e-9);
    }

    #[test]
    fn weighted_etx_without_backup_equals_primary_cost() {
        let mut d = device(5);
        d.on_join_in(
            NodeId(0),
            &JoinIn { rank: Rank::ROOT, etx_w: 0.0, best_parent: None, second_parent: None },
            Dbm(-75.0),
            Asn(1),
        );
        let etx_abp = d.accumulated_etx(NodeId(0)).expect("known");
        assert!((d.etx_w() - etx_abp).abs() < 1e-9);
    }

    #[test]
    fn ablation_single_path_has_no_backup() {
        let mut config = RoutingConfig::fast();
        config.use_second_parent = false;
        let mut d = DigsRouting::new(NodeId(5), false, config, 42, Asn(0));
        d.on_join_in(
            NodeId(0),
            &JoinIn { rank: Rank::ROOT, etx_w: 0.0, best_parent: None, second_parent: None },
            STRONG,
            Asn(1),
        );
        d.on_join_in(
            NodeId(1),
            &JoinIn { rank: Rank::ROOT, etx_w: 0.0, best_parent: None, second_parent: None },
            STRONG,
            Asn(2),
        );
        assert!(d.best_parent().is_some());
        assert_eq!(d.second_best_parent(), None);
    }

    #[test]
    fn trickle_emits_join_ins_once_joined() {
        let r0 = root(0);
        let mut d = device(5);
        let mut emitted = 0;
        for s in 0..100u64 {
            if s == 1 {
                d.on_join_in(NodeId(0), &join_in_from(&r0), STRONG, Asn(s));
            }
            emitted += d
                .tick(Asn(s))
                .iter()
                .filter(|e| matches!(e, RoutingEvent::BroadcastJoinIn(_)))
                .count();
        }
        assert!(emitted > 0, "joined node must advertise");
    }

    #[test]
    fn detached_node_does_not_advertise() {
        let mut d = device(5);
        for s in 0..200u64 {
            let events = d.tick(Asn(s));
            assert!(
                !events.iter().any(|e| matches!(e, RoutingEvent::BroadcastJoinIn(_))),
                "detached node advertised at slot {s}"
            );
        }
    }

    #[test]
    fn join_in_from_parent_naming_us_breaks_mutual_parenthood() {
        let mut d = device(5);
        d.on_join_in(
            NodeId(7),
            &JoinIn { rank: Rank(2), etx_w: 1.0, best_parent: None, second_parent: None },
            STRONG,
            Asn(1),
        );
        assert_eq!(d.best_parent(), Some(NodeId(7)));
        // Node 7 (erroneously, e.g. after its own parent loss) picks us.
        d.on_join_in(
            NodeId(7),
            &JoinIn {
                rank: Rank(3),
                etx_w: 1.0,
                best_parent: Some(NodeId(5)),
                second_parent: None,
            },
            STRONG,
            Asn(2),
        );
        assert!(d.children().any(|c| c == NodeId(7)));
        assert_ne!(d.best_parent(), Some(NodeId(7)), "mutual parenthood must break");
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
            config.use_second_parent = d.int(0..4) > 0;
            let id = NodeId(d.int(20u16..300));
            let mut ours = DigsRouting::new(id, false, config, d.u64(), Asn(0));
            // The twin never settles: every full selection it runs is the
            // reference body, which does not know the field.
            let mut twin = DigsRouting { oracle: true, ..ours.clone() };
            let mut neighbors = d.vec(2..13, Neighbor::draw);
            for now in (0..2000).map(Asn) {
                assert_eq!(ours.tick(now), twin.tick(now), "{id} ticks at {now}");
                let at = d.int(0..neighbors.len());
                let from = neighbors[at].id;
                match d.int(0..11) {
                    0 => {
                        let to = if d.bool() { ours.best_parent().unwrap_or(from) } else { from };
                        let acked = d.int(0..3) > 0;
                        let events = ours.on_tx_result(to, acked, now);
                        assert_eq!(events, twin.on_tx_result(to, acked, now), "{id} at {now}");
                    }
                    1..=4 => {
                        let Some((rank, etx_w, rss)) = neighbors[at].advertise(d, now) else {
                            continue;
                        };
                        // One in ten names us as its parent.
                        let best_parent = Some(id).filter(|_| d.int(0..10) == 0);
                        let join_in = JoinIn { rank, etx_w, best_parent, second_parent: None };
                        let was_parent = [ours.best, ours.second].contains(&Some(from));
                        let may_skip = now < ours.settled_until && !was_parent;
                        let events = ours.on_join_in(from, &join_in, rss, now);
                        assert_eq!(
                            events,
                            twin.on_join_in(from, &join_in, rss, now),
                            "{id} at {now}"
                        );
                        heard += 1;
                        // A skip leaves the state `could_take_a_slot` saw; a
                        // full selection that found nothing does too, and a
                        // full selection runs only after a yes.
                        let quiet_call = events.is_empty() && !ours.could_take_a_slot(from);
                        skipped += u64::from(may_skip && quiet_call);
                        changes += events
                            .iter()
                            .filter(|e| matches!(e, RoutingEvent::ParentsChanged { .. }))
                            .count() as u64;
                    }
                    _ => {}
                }
                // Whole state equal, the new field (and the twin's mark) aside.
                let seen = DigsRouting {
                    settled_until: ours.settled_until,
                    oracle: false,
                    ..twin.clone()
                };
                assert_eq!(ours, seen, "{id} at {now}");
            }
        });
        assert!(
            heard > 200_000 && skipped > 60_000 && changes > 20_000,
            "{heard} join-ins heard, {skipped} skipped, {changes} parent changes"
        );
    }
    #[test]
    fn closed_form_skipping_to_next_tick_matches_ticking_every_slot() {
        let (mut evictions, mut distrusted) = (0, 0);
        digs_cases::cases(120, |d| {
            let mut config = RoutingConfig::fast();
            if d.bool() {
                (config.neighbor_timeout, config.backup_staleness) = (300, 150);
            }
            let id = NodeId(d.int(2u16..300));
            let mut every = DigsRouting::new(id, d.int(0u8..8) == 0, config, d.u64(), Asn(0));
            let mut skipping = every.clone();
            // Neighbors of ranks 1 to 3 that advertise now and then, each
            // until it falls silent for good.
            let neighbors = d.vec(1..8, |d| {
                let join_in = JoinIn {
                    rank: Rank(d.int(1u16..4)),
                    etx_w: d.f64(0.0..4.0),
                    best_parent: None,
                    second_parent: None,
                };
                (NodeId(d.int(0u16..40)), join_in, Dbm(d.f64(-85.0..-50.0)), d.int(1u64..400))
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
                let lost_parent =
                    events.iter().any(|e| matches!(e, RoutingEvent::ParentsChanged { .. }));
                evictions += usize::from(every.neighbors().len() < known);
                distrusted += usize::from(lost_parent && every.neighbors().len() == known);
                // What reaches the node from outside: an advertisement, or
                // the outcome of a transmission. Either is a call into the
                // stack, after which the engine asks for the wake slot again.
                for (from, join_in, rss, silent_from) in &neighbors {
                    if now.0 < *silent_from && d.int(0..30) == 0 {
                        every.on_join_in(*from, join_in, *rss, now);
                        skipping.on_join_in(*from, join_in, *rss, now);
                        wake = skipping.next_tick(now.next());
                    }
                }
                if let (Some(parent), 0) = (every.best_parent(), d.int(0..25)) {
                    let acked = d.int(0..3) > 0;
                    every.on_tx_result(parent, acked, now);
                    skipping.on_tx_result(parent, acked, now);
                    wake = skipping.next_tick(now.next());
                }
                assert_eq!(skipping, every, "{id} at {now}");
            }
            assert!(every.neighbors().is_empty(), "{id} still knows {:?}", every.neighbors());
        });
        assert!(evictions > 100 && distrusted > 20, "{evictions} evictions, {distrusted} backups");
    }
}
