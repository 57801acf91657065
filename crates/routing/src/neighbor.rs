//! The neighbor table: per-neighbor link quality and advertised route cost.

use crate::etx::EtxEstimator;
use crate::messages::Rank;
use digs_sim::ids::NodeId;
use digs_sim::rf::Dbm;
use digs_sim::time::Asn;
use std::collections::BTreeMap;

/// Neighbor-table housekeeping (eviction, backup re-validation) runs once
/// every this many slots, each node on its own turn `id mod 64` so the
/// network's sweeps do not coincide.
const HOUSEKEEPING_PERIOD: u64 = 64;

/// Whether `now` is node `id`'s housekeeping turn.
pub(crate) fn is_housekeeping_turn(id: NodeId, now: Asn) -> bool {
    now.0 % HOUSEKEEPING_PERIOD == u64::from(id.0) % HOUSEKEEPING_PERIOD
}

/// Node `id`'s first housekeeping turn at or after `from`.
pub(crate) fn next_housekeeping_turn(id: NodeId, from: Asn) -> Asn {
    let p = HOUSEKEEPING_PERIOD;
    from + (u64::from(id.0) % p + p - from.0 % p) % p
}

/// Node `id`'s first housekeeping turn at or after `from` that finds
/// anything to do, given the first slot in which something is `due`
/// (`None`: nothing ever is, and no turn is named).
pub(crate) fn next_due_housekeeping_turn(id: NodeId, from: Asn, due: Option<Asn>) -> Asn {
    due.map_or(Asn(u64::MAX), |due| next_housekeeping_turn(id, from.max(due)))
}

/// State kept about one neighbor.
#[derive(Debug, Clone, PartialEq)]
pub struct NeighborEntry {
    /// Link ETX estimate toward this neighbor.
    pub etx: EtxEstimator,
    /// RSS of the most recent advertisement heard from this neighbor.
    pub last_rss: Dbm,
    /// Neighbor's advertised rank.
    pub rank: Rank,
    /// Neighbor's advertised route cost (weighted ETX for DiGS, path ETX
    /// for RPL).
    pub advertised_cost: f64,
    /// When we last heard anything from this neighbor.
    pub last_heard: Asn,
    /// Consecutive unacknowledged unicast transmissions to this neighbor.
    pub consecutive_failures: u32,
}

impl NeighborEntry {
    /// Accumulated cost of routing through this neighbor: link ETX plus the
    /// neighbor's advertised cost (Algorithm 1's
    /// `ETXa(node, i) = ETX(node, i) + ETXw(i)`).
    pub fn accumulated_cost(&self) -> f64 {
        self.etx.etx() + self.advertised_cost
    }

    /// Whether a route through this neighbor exists and its link carries
    /// it: it advertises a finite rank and cost, and its smoothed signal is
    /// at or above the paper's RSSmin — links weaker than -90 dBm are below
    /// the usable floor, and picking one as a parent only buys a string of
    /// failed transmissions.
    pub(crate) fn is_usable(&self) -> bool {
        self.rank.is_finite()
            && self.advertised_cost.is_finite()
            && self.last_rss.dbm() >= digs_sim::rf::RSS_MIN.dbm()
    }
}

/// The neighbor table, ordered by id for determinism.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NeighborTable {
    entries: BTreeMap<NodeId, NeighborEntry>,
    /// The earliest `last_heard` of any entry, kept so that the next
    /// eviction is named without a walk over the table.
    oldest_heard: Option<Asn>,
}

impl NeighborTable {
    /// Creates an empty table.
    pub fn new() -> NeighborTable {
        NeighborTable::default()
    }

    /// Records an advertisement (join-in or DIO) from a neighbor, creating
    /// the entry on first contact with the paper's RSS-based ETX
    /// initialisation.
    pub fn record_advertisement(
        &mut self,
        from: NodeId,
        rank: Rank,
        advertised_cost: f64,
        rss: Dbm,
        now: Asn,
    ) {
        let entry = self.entries.entry(from).or_insert_with(|| NeighborEntry {
            etx: EtxEstimator::from_rss(rss),
            last_rss: rss,
            rank,
            advertised_cost,
            last_heard: now,
            consecutive_failures: 0,
        });
        // Smooth the per-advertisement RSS (channel fading makes single
        // readings noisy) so eligibility doesn't flap around RSSmin.
        entry.last_rss = Dbm(0.7 * entry.last_rss.dbm() + 0.3 * rss.dbm());
        entry.rank = rank;
        entry.advertised_cost = advertised_cost;
        let heard_before = std::mem::replace(&mut entry.last_heard, now);
        // The minimum moves only if this entry held it (or is below it).
        if self.oldest_heard.is_none_or(|oldest| oldest == heard_before || now < oldest) {
            self.find_oldest_heard();
        }
        // Link ETX is initialised from RSS on first contact (paper
        // Section V) but thereafter updated from transmission outcomes
        // only, as Contiki's link-stats do.
    }

    /// Records the outcome of a unicast transmission to a neighbor; returns
    /// the updated consecutive-failure count (0 after a success), or `None`
    /// if the neighbor is unknown.
    pub fn record_tx(&mut self, to: NodeId, acked: bool) -> Option<u32> {
        let entry = self.entries.get_mut(&to)?;
        entry.etx.record(acked);
        if acked {
            entry.consecutive_failures = 0;
        } else {
            entry.consecutive_failures += 1;
        }
        Some(entry.consecutive_failures)
    }

    /// Looks up a neighbor.
    pub fn get(&self, id: NodeId) -> Option<&NeighborEntry> {
        self.entries.get(&id)
    }

    /// When the neighbor silent for longest was last heard (`None`: the
    /// table is empty).
    pub fn oldest_heard(&self) -> Option<Asn> {
        self.oldest_heard
    }

    fn find_oldest_heard(&mut self) {
        self.oldest_heard = self.entries.values().map(|e| e.last_heard).min();
    }

    /// Degrades a neighbor's link estimate to the worst value without
    /// forgetting it: alternatives will now win parent selection, but the
    /// neighbor can rehabilitate itself through future ACKs and
    /// advertisements (gentler than forgetting it, which forces a full
    /// re-discovery).
    pub fn degrade(&mut self, id: NodeId) -> bool {
        match self.entries.get_mut(&id) {
            Some(e) => {
                e.etx = crate::etx::EtxEstimator::from_etx(crate::etx::ETX_CAP);
                true
            }
            None => false,
        }
    }

    /// Iterates over neighbors in id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &NeighborEntry)> {
        self.entries.iter().map(|(id, e)| (*id, e))
    }

    /// The neighbor `admits` lets through with the least accumulated cost,
    /// and that cost; among equals the lowest rank, then the lowest id —
    /// the first element of a `(cost, rank, id)` sort, found in one walk:
    /// the table is in id order, so only a strictly smaller `(cost, rank)`
    /// displaces the holder. `admits` must refuse non-finite costs.
    pub(crate) fn cheapest(
        &self,
        admits: impl Fn(NodeId, &NeighborEntry) -> bool,
    ) -> Option<(NodeId, f64)> {
        let mut holder: Option<(NodeId, f64, Rank)> = None;
        for (id, e) in self.iter().filter(|(id, e)| admits(*id, e)) {
            let cost = e.accumulated_cost();
            if holder.is_none_or(|(_, c, r)| cost < c || (cost == c && e.rank < r)) {
                holder = Some((id, cost, e.rank));
            }
        }
        holder.map(|(id, cost, _)| (id, cost))
    }

    /// Number of known neighbors.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops neighbors not heard from since `horizon`; returns the ids
    /// evicted.
    pub fn evict_stale(&mut self, horizon: Asn) -> Vec<NodeId> {
        let stale: Vec<NodeId> = self
            .entries
            .iter()
            .filter(|(_, e)| e.last_heard < horizon)
            .map(|(id, _)| *id)
            .collect();
        for id in &stale {
            self.entries.remove(id);
        }
        self.find_oldest_heard();
        stale
    }
}

/// Drawn neighbors for the two routings' differential twins.
#[cfg(test)]
pub(crate) mod drawn {
    use super::*;
    use digs_cases::Draw;

    /// A neighbor whose signal sits somewhere around RSSmin, that is silent
    /// for one stretch of a 2 000-slot case (long enough, for some, to go
    /// stale as a backup or be evicted) and that repeats its last
    /// advertisement more often than not.
    pub(crate) struct Neighbor {
        pub(crate) id: NodeId,
        base_rss: f64,
        quiet: std::ops::Range<u64>,
        says: Option<(Rank, f64)>,
    }

    impl Neighbor {
        pub(crate) fn draw(d: &mut Draw) -> Neighbor {
            let quiet_from = d.int(0u64..2000);
            Neighbor {
                id: NodeId(d.int(0u16..20)),
                base_rss: d.f64(-95.0..-55.0),
                quiet: quiet_from..quiet_from + d.int(0u64..500),
                says: None,
            }
        }

        /// The rank and cost (either may be infinite) the neighbor
        /// advertises at `now` and the RSS it is heard at, unless it is
        /// silent.
        pub(crate) fn advertise(&mut self, d: &mut Draw, now: Asn) -> Option<(Rank, f64, Dbm)> {
            if self.quiet.contains(&now.0) {
                return None;
            }
            if self.says.is_none() || d.int(0..6) == 0 {
                let rank = d.int(1u16..=6);
                let rank = if rank == 6 { Rank::INFINITE } else { Rank(rank) };
                let cost = if d.int(0..8) == 0 { f64::INFINITY } else { d.f64(0.0..6.0) };
                self.says = Some((rank, cost));
            }
            let (rank, cost) = self.says.expect("just drawn");
            Some((rank, cost, Dbm(self.base_rss + d.f64(-6.0..6.0))))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_with(from: u16, rank: Rank, cost: f64) -> NeighborTable {
        let mut t = NeighborTable::new();
        t.record_advertisement(NodeId(from), rank, cost, Dbm(-55.0), Asn(0));
        t
    }

    #[test]
    fn first_contact_creates_entry() {
        let t = table_with(4, Rank(2), 1.5);
        let e = t.get(NodeId(4)).expect("entry exists");
        assert_eq!(e.rank, Rank(2));
        assert_eq!(e.advertised_cost, 1.5);
        // Strong RSS → link ETX ≈ 1 → accumulated ≈ 2.5.
        assert!((e.accumulated_cost() - 2.5).abs() < 0.05);
    }

    #[test]
    fn advertisement_updates_cost_and_rank() {
        let mut t = table_with(4, Rank(2), 1.5);
        t.record_advertisement(NodeId(4), Rank(3), 4.0, Dbm(-55.0), Asn(10));
        let e = t.get(NodeId(4)).expect("entry exists");
        assert_eq!(e.rank, Rank(3));
        assert_eq!(e.advertised_cost, 4.0);
        assert_eq!(e.last_heard, Asn(10));
    }

    #[test]
    fn tx_failures_count_consecutively() {
        let mut t = table_with(4, Rank(2), 1.0);
        assert_eq!(t.record_tx(NodeId(4), false), Some(1));
        assert_eq!(t.record_tx(NodeId(4), false), Some(2));
        assert_eq!(t.record_tx(NodeId(4), true), Some(0));
        assert_eq!(t.record_tx(NodeId(9), true), None);
    }

    #[test]
    fn eviction_drops_silent_neighbors() {
        let mut t = NeighborTable::new();
        t.record_advertisement(NodeId(1), Rank(2), 1.0, Dbm(-60.0), Asn(0));
        t.record_advertisement(NodeId(2), Rank(2), 1.0, Dbm(-60.0), Asn(500));
        let evicted = t.evict_stale(Asn(100));
        assert_eq!(evicted, vec![NodeId(1)]);
        assert!(t.get(NodeId(1)).is_none());
        assert!(t.get(NodeId(2)).is_some());
    }

    #[test]
    fn iteration_is_id_ordered() {
        let mut t = NeighborTable::new();
        for id in [5u16, 1, 3] {
            t.record_advertisement(NodeId(id), Rank(2), 1.0, Dbm(-60.0), Asn(0));
        }
        let ids: Vec<u16> = t.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![1, 3, 5]);
    }
}
