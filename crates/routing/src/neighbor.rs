//! The neighbor table: per-neighbor link quality and advertised route cost.

use crate::etx::EtxEstimator;
use crate::messages::Rank;
use digs_sim::ids::NodeId;
use digs_sim::rf::Dbm;
use digs_sim::time::Asn;

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

/// The neighbor table, ordered by id for determinism: the ids ascending
/// and, in step with them, their entries, so that a lookup is one binary
/// search and a selection one walk over contiguous memory.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NeighborTable {
    ids: Vec<NodeId>,
    entries: Vec<NeighborEntry>,
    /// The earliest `last_heard` of any entry, kept so that the next
    /// eviction is named without a walk over the table.
    oldest_heard: Option<Asn>,
}

impl NeighborTable {
    /// Creates an empty table.
    pub fn new() -> NeighborTable {
        NeighborTable::default()
    }

    fn position(&self, id: NodeId) -> Result<usize, usize> {
        self.ids.binary_search(&id)
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
        let at = self.position(from).unwrap_or_else(|at| {
            self.ids.insert(at, from);
            let entry = NeighborEntry {
                etx: EtxEstimator::from_rss(rss),
                last_rss: rss,
                rank,
                advertised_cost,
                last_heard: now,
                consecutive_failures: 0,
            };
            self.entries.insert(at, entry);
            at
        });
        let entry = &mut self.entries[at];
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
        let at = self.position(to).ok()?;
        let entry = &mut self.entries[at];
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
        self.position(id).ok().map(|at| &self.entries[at])
    }

    /// When the neighbor silent for longest was last heard (`None`: the
    /// table is empty).
    pub fn oldest_heard(&self) -> Option<Asn> {
        self.oldest_heard
    }

    fn find_oldest_heard(&mut self) {
        self.oldest_heard = self.entries.iter().map(|e| e.last_heard).min();
    }

    /// Degrades a neighbor's link estimate to the worst value without
    /// forgetting it: alternatives will now win parent selection, but the
    /// neighbor can rehabilitate itself through future ACKs and
    /// advertisements (gentler than forgetting it, which forces a full
    /// re-discovery).
    pub fn degrade(&mut self, id: NodeId) -> bool {
        match self.position(id) {
            Ok(at) => {
                self.entries[at].etx = crate::etx::EtxEstimator::from_etx(crate::etx::ETX_CAP);
                true
            }
            Err(_) => false,
        }
    }

    /// Iterates over neighbors in id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &NeighborEntry)> {
        self.ids.iter().copied().zip(&self.entries)
    }

    /// The neighbor `admits` lets through with the least accumulated cost,
    /// and that cost, passing over the ids in `excluded` (ascending); among
    /// equals the lowest rank, then the lowest id — the first element of a
    /// `(cost, rank, id)` sort, found in one walk: the table is in id
    /// order, so only a strictly smaller `(cost, rank)` displaces the
    /// holder, and `excluded` is merged alongside it. `admits` must refuse
    /// non-finite costs.
    pub(crate) fn cheapest(
        &self,
        excluded: &[NodeId],
        admits: impl Fn(NodeId, &NeighborEntry) -> bool,
    ) -> Option<(NodeId, f64)> {
        let mut holder: Option<(NodeId, f64, Rank)> = None;
        let mut excluded = excluded.iter().peekable();
        for (id, e) in self.iter() {
            while excluded.next_if(|x| **x < id).is_some() {}
            if excluded.next_if_eq(&&id).is_some() || !admits(id, e) {
                continue;
            }
            let cost = e.accumulated_cost();
            if holder.is_none_or(|(_, c, r)| cost < c || (cost == c && e.rank < r)) {
                holder = Some((id, cost, e.rank));
            }
        }
        holder.map(|(id, cost, _)| (id, cost))
    }

    /// Number of known neighbors.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Drops neighbors not heard from since `horizon`; returns the ids
    /// evicted.
    pub fn evict_stale(&mut self, horizon: Asn) -> Vec<NodeId> {
        if self.oldest_heard.is_none_or(|oldest| oldest >= horizon) {
            return Vec::new();
        }
        let mut stale = Vec::new();
        let mut kept = 0;
        for at in 0..self.ids.len() {
            if self.entries[at].last_heard < horizon {
                stale.push(self.ids[at]);
            } else {
                self.ids.swap(kept, at);
                self.entries.swap(kept, at);
                kept += 1;
            }
        }
        self.ids.truncate(kept);
        self.entries.truncate(kept);
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

    /// The table as it was before it was flattened: a `BTreeMap` by id,
    /// the minimum and the selection found by walking it afresh, and the
    /// selection by sorting every admitted neighbor on `(cost, rank, id)`.
    #[derive(Default)]
    struct MapTable(std::collections::BTreeMap<NodeId, NeighborEntry>);

    impl MapTable {
        fn record_advertisement(
            &mut self,
            from: NodeId,
            rank: Rank,
            cost: f64,
            rss: Dbm,
            now: Asn,
        ) {
            let entry = self.0.entry(from).or_insert_with(|| NeighborEntry {
                etx: EtxEstimator::from_rss(rss),
                last_rss: rss,
                rank,
                advertised_cost: cost,
                last_heard: now,
                consecutive_failures: 0,
            });
            entry.last_rss = Dbm(0.7 * entry.last_rss.dbm() + 0.3 * rss.dbm());
            entry.rank = rank;
            entry.advertised_cost = cost;
            entry.last_heard = now;
        }

        fn record_tx(&mut self, to: NodeId, acked: bool) -> Option<u32> {
            let entry = self.0.get_mut(&to)?;
            entry.etx.record(acked);
            entry.consecutive_failures = if acked { 0 } else { entry.consecutive_failures + 1 };
            Some(entry.consecutive_failures)
        }

        fn degrade(&mut self, id: NodeId) -> bool {
            let entry = self.0.get_mut(&id);
            entry.map(|e| e.etx = EtxEstimator::from_etx(crate::etx::ETX_CAP)).is_some()
        }

        fn evict_stale(&mut self, horizon: Asn) -> Vec<NodeId> {
            let stale: Vec<NodeId> =
                self.0.iter().filter(|(_, e)| e.last_heard < horizon).map(|(id, _)| *id).collect();
            self.0.retain(|_, e| e.last_heard >= horizon);
            stale
        }

        fn cheapest(
            &self,
            admits: impl Fn(NodeId, &NeighborEntry) -> bool,
        ) -> Option<(NodeId, f64)> {
            let mut admitted: Vec<(f64, Rank, NodeId)> = (self.0.iter())
                .filter(|(id, e)| admits(**id, e))
                .map(|(id, e)| (e.accumulated_cost(), e.rank, *id))
                .collect();
            admitted.sort_by(|a, b| a.partial_cmp(b).expect("finite costs"));
            admitted.first().map(|(cost, _, id)| (*id, *cost))
        }
    }

    #[test]
    fn the_flat_table_matches_the_map_it_replaced() {
        let mut counts = [0u32; 6];
        digs_cases::cases(300, |d| {
            let (mut flat, mut map) = (NeighborTable::new(), MapTable::default());
            let mut neighbors = d.vec(2..13, drawn::Neighbor::draw);
            for now in (0..2000).map(Asn) {
                let at = d.int(0..neighbors.len());
                let id = neighbors[at].id;
                match d.int(0u8..10) {
                    0..=4 => {
                        if let Some((rank, cost, rss)) = neighbors[at].advertise(d, now) {
                            counts[usize::from(flat.get(id).is_some())] += 1;
                            flat.record_advertisement(id, rank, cost, rss, now);
                            map.record_advertisement(id, rank, cost, rss, now);
                        }
                    }
                    5 | 6 => {
                        let acked = d.bool();
                        let failures = flat.record_tx(id, acked);
                        assert_eq!(failures, map.record_tx(id, acked), "{id} at {now}");
                        counts[2] += u32::from(failures.is_some());
                    }
                    7 => {
                        let known = flat.degrade(id);
                        assert_eq!(known, map.degrade(id), "{id} at {now}");
                        counts[3] += u32::from(known);
                    }
                    _ => {
                        let horizon = Asn(now.0.saturating_sub(d.int(0u64..600)));
                        let evicted = flat.evict_stale(horizon);
                        assert_eq!(evicted, map.evict_stale(horizon), "at {now}");
                        counts[4] += evicted.len() as u32;
                    }
                }
                let entries: Vec<_> = map.0.iter().map(|(id, e)| (*id, e)).collect();
                assert!(flat.iter().eq(entries.iter().copied()), "at {now}");
                assert_eq!(flat.len(), map.0.len());
                assert_eq!(flat.is_empty(), map.0.is_empty());
                for id in (0..20).map(NodeId) {
                    assert_eq!(flat.get(id), map.0.get(&id), "{id} at {now}");
                }
                let oldest = map.0.values().map(|e| e.last_heard).min();
                assert_eq!(flat.oldest_heard(), oldest, "at {now}");
                // A selection as the routings make one: usable, below a
                // drawn rank, and not one of a drawn set of children, which
                // the walk passes over as it meets them.
                let below = Rank(d.int(2u16..=6));
                let admits = |_: NodeId, e: &NeighborEntry| e.is_usable() && e.rank < below;
                let children: Vec<NodeId> =
                    (0..20).map(NodeId).filter(|_| d.int(0..4) == 0).collect();
                let not_child =
                    |id: NodeId, e: &NeighborEntry| !children.contains(&id) && admits(id, e);
                let merged = flat.cheapest(&children, admits);
                assert_eq!(merged, flat.cheapest(&[], not_child), "{children:?} at {now}");
                assert_eq!(merged, map.cheapest(not_child), "{children:?} at {now}");
                counts[5] += u32::from(merged.is_some());
            }
        });
        let [first, repeat, tx, degraded, evicted, selected] = counts;
        assert!(
            first > 10_000 && repeat > 100_000 && tx > 50_000 && degraded > 20_000,
            "{first} first contacts, {repeat} repeats, {tx} outcomes, {degraded} degraded"
        );
        assert!(evicted > 10_000 && selected > 100_000, "{evicted} evicted, {selected} selected");
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
