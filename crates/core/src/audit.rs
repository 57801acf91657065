//! Runtime invariant auditor: structural safety checks over a live network.
//!
//! DiGS's correctness argument rests on a handful of distributed
//! invariants — parents are only ever selected at strictly lower rank (the
//! loop-avoidance rule for both the primary and the backup), Eq. 4 gives
//! every field device exclusive ownership of its dedicated cells, parents'
//! child tables track their actual children, and bounded queues stay
//! bounded. Under chaos (reboots, churn, desyncs, jamming) these are
//! exactly the properties that break first when an implementation is
//! wrong, so the auditor re-derives them from a state snapshot every N
//! slots and records every violation with the ASN and enough context to
//! debug it.
//!
//! ## Local views vs. global state
//!
//! The rank checks deliberately audit each node's **local view** — its own
//! rank against the rank it *believes* its parents hold (the neighbor-table
//! value its selection was based on) — not the parents' globally-current
//! ranks. In a distributed protocol the two legitimately disagree for up
//! to a Trickle interval after a parent's rank rises; comparing against
//! global ranks would flag that skew as a bug. A node whose own state is
//! internally inconsistent (a parent believed to be at its own rank or
//! deeper) has genuinely broken the selection rule, skew or no skew.
//!
//! Global loop-freedom is the complementary *eventual* property: belief
//! skew can close a transient cycle through no fault of any single node,
//! so [`check_loop_freedom`] reports what it sees and the caller (see
//! `Network::run_audited`) only records a loop that persists well past the
//! worst-case belief-refresh latency.
//!
//! The checks are pure functions over an [`AuditSnapshot`], so tests can
//! audit hand-corrupted snapshots without running a simulation (the
//! "deliberately broken scheduler" tests below do exactly that).

use digs_routing::graph::RoutingGraph;
use digs_routing::Rank;
use digs_sim::channel::ChannelOffset;
use digs_sim::ids::NodeId;
use digs_sim::time::Asn;
use std::collections::BTreeMap;

/// How long a child-table registration may outlive the child's last sign of
/// life before the auditor flags it: the stacks garbage-collect children
/// after 19 200 slots (192 s, three Trickle maximum intervals) of silence,
/// so anything older that is still registered means the GC is broken.
pub const CHILD_GRACE_SLOTS: u64 = 19_200;

/// The child-table GC sweep cadence. The auditor grants one extra sweep
/// period of slack past [`CHILD_GRACE_SLOTS`]: a registration crossing the
/// horizon is only evicted at the *next* sweep, and an audit sampled at a
/// slot boundary runs before that slot's sweep executes.
pub const GC_SWEEP_SLOTS: u64 = 64;

/// One dedicated transmission cell a node claims under Eq. 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellClaim {
    /// Application-slotframe slot of the claim.
    pub slot: u32,
    /// TSCH channel offset of the claim.
    pub offset: ChannelOffset,
}

/// A node's local view of one of its parents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParentView {
    /// The selected parent.
    pub node: NodeId,
    /// The rank the child believes the parent holds (its neighbor-table
    /// entry) — the value the selection was based on.
    pub believed_rank: Rank,
}

/// Per-node state captured for auditing.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeAudit {
    /// The node.
    pub node: NodeId,
    /// Whether the node is an access point.
    pub is_ap: bool,
    /// Whether the node's housekeeping is live: it holds TSCH
    /// synchronization and has held it long enough for at least one GC
    /// sweep. A desynced node is dormant (scanning for EBs): its
    /// child-table GC legitimately pauses until it re-associates, and a
    /// freshly-resynced node may still carry pre-desync registrations
    /// until its first sweep.
    pub synced: bool,
    /// The node's own routing rank.
    pub rank: Rank,
    /// Local view of the primary parent, if one is selected.
    pub best_parent: Option<ParentView>,
    /// Local view of the backup parent, if one is selected.
    pub second_parent: Option<ParentView>,
    /// Dedicated transmission cells the node currently claims (empty for
    /// unjoined nodes and access points).
    pub claims: Vec<CellClaim>,
    /// The node's scheduler child table with each child's last-heard time.
    pub children: Vec<(NodeId, Asn)>,
    /// Application queue length.
    pub queue_len: usize,
    /// Application queue capacity.
    pub queue_capacity: usize,
}

/// A consistent snapshot of the distributed state at one instant.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditSnapshot {
    /// Snapshot time.
    pub asn: Asn,
    /// Everyone's parents and (globally-current) ranks.
    pub graph: RoutingGraph,
    /// Per-node scheduler, queue, and local-view routing state.
    pub nodes: Vec<NodeAudit>,
}

/// Which invariant a violation breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvariantKind {
    /// The union of primary and backup edges contains a cycle.
    RoutingLoop,
    /// A node holds a primary parent it believes to be at its own rank or
    /// deeper (the selection rule forbids same-rank links).
    RankInversion,
    /// A node holds a backup parent it believes to be at its own rank or
    /// deeper (the paper's second-parent loop-avoidance rule).
    SecondParentRank,
    /// Two nodes claim the same dedicated (slot, channel offset) cell.
    CellOwnership,
    /// A child-table registration outlived the garbage-collection horizon
    /// without the child actually using this node as a parent.
    ChildTable,
    /// A bounded queue holds more items than its capacity.
    QueueBound,
}

/// One recorded invariant violation.
#[derive(Debug, Clone, PartialEq)]
pub struct InvariantViolation {
    /// The broken invariant.
    pub kind: InvariantKind,
    /// When the auditor observed it.
    pub asn: Asn,
    /// The node the violation is attributed to.
    pub node: NodeId,
    /// Human-readable context (the other party, ranks, slots involved).
    pub detail: String,
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[asn {}] {:?} at node {}: {}", self.asn.0, self.kind, self.node.0, self.detail)
    }
}

/// Runs every check over a snapshot and collects all violations.
///
/// [`check_loop_freedom`] is included raw: callers sampling a *live*
/// network should debounce `RoutingLoop` findings across consecutive
/// audits (transient cycles from belief skew are legitimate);
/// `Network::run_audited` does exactly that.
pub fn audit(snapshot: &AuditSnapshot) -> Vec<InvariantViolation> {
    let mut violations = check_loop_freedom(snapshot);
    violations.extend(check_rank_monotonicity(snapshot));
    violations.extend(check_cell_ownership(snapshot));
    violations.extend(check_child_tables(snapshot));
    violations.extend(check_queue_bounds(snapshot));
    violations
}

/// The routing state must be acyclic over primary ∪ backup edges.
pub fn check_loop_freedom(snapshot: &AuditSnapshot) -> Vec<InvariantViolation> {
    let members = cycle_members(&snapshot.graph);
    // Attribute the cycle to the lowest-id node on a parent chain that
    // revisits itself (enough context to start debugging).
    let Some(culprit) = members.first().copied() else {
        return Vec::new();
    };
    vec![InvariantViolation {
        kind: InvariantKind::RoutingLoop,
        asn: snapshot.asn,
        node: culprit,
        detail: format!(
            "primary/backup parent edges contain a cycle through nodes {:?}",
            members.iter().map(|n| n.0).collect::<Vec<_>>()
        ),
    }]
}

/// Every node that sits on some parent-edge cycle, in id order — the
/// *identity* of the current loop state. `Network::run_audited` compares
/// these (with their parent edges) across consecutive audits: a genuinely
/// frozen loop keeps the same members and edges, while churn-induced
/// transient cycles keep changing shape.
pub fn cycle_members(graph: &RoutingGraph) -> Vec<NodeId> {
    if graph.is_dag() {
        return Vec::new();
    }
    graph.nodes().filter(|n| on_parent_cycle(graph, *n)).collect()
}

fn on_parent_cycle(graph: &RoutingGraph, start: NodeId) -> bool {
    // DFS over parent edges looking for a path back to `start`.
    let mut stack = graph.parents(start);
    let mut seen = std::collections::BTreeSet::new();
    while let Some(n) = stack.pop() {
        if n == start {
            return true;
        }
        if seen.insert(n) {
            stack.extend(graph.parents(n));
        }
    }
    false
}

/// Every node's local view must respect the selection rule: both parents
/// strictly below the node's own rank, as the node believes them to be.
pub fn check_rank_monotonicity(snapshot: &AuditSnapshot) -> Vec<InvariantViolation> {
    let mut violations = Vec::new();
    for node in &snapshot.nodes {
        if node.is_ap {
            continue;
        }
        if let Some(best) = node.best_parent {
            if best.believed_rank >= node.rank {
                violations.push(InvariantViolation {
                    kind: InvariantKind::RankInversion,
                    asn: snapshot.asn,
                    node: node.node,
                    detail: format!(
                        "primary parent {} believed at rank {} >= own rank {}",
                        best.node.0, best.believed_rank.0, node.rank.0
                    ),
                });
            }
        }
        if let Some(second) = node.second_parent {
            if second.believed_rank >= node.rank {
                violations.push(InvariantViolation {
                    kind: InvariantKind::SecondParentRank,
                    asn: snapshot.asn,
                    node: node.node,
                    detail: format!(
                        "backup parent {} believed at rank {} >= own rank {}",
                        second.node.0, second.believed_rank.0, node.rank.0
                    ),
                });
            }
        }
    }
    violations
}

/// Every dedicated (slot, channel offset) cell must have exactly one owner
/// — Eq. 4 partitions the application slotframe among the field devices, so
/// two claimants mean a scheduler bug (or an id collision).
pub fn check_cell_ownership(snapshot: &AuditSnapshot) -> Vec<InvariantViolation> {
    let mut owners: BTreeMap<(u32, ChannelOffset), NodeId> = BTreeMap::new();
    let mut violations = Vec::new();
    for node in &snapshot.nodes {
        for claim in &node.claims {
            match owners.insert((claim.slot, claim.offset), node.node) {
                None => {}
                Some(holder) if holder == node.node => {}
                Some(holder) => violations.push(InvariantViolation {
                    kind: InvariantKind::CellOwnership,
                    asn: snapshot.asn,
                    node: node.node,
                    detail: format!(
                        "claims app slot {} offset {} already owned by node {}",
                        claim.slot, claim.offset.0, holder.0
                    ),
                }),
            }
        }
    }
    violations
}

/// A registered child that has been silent past the GC horizon must have
/// been evicted; one still registered whose routing state does not name
/// this node as a parent is a leak (broken GC or a phantom registration).
/// Fresh registrations of departed children are deliberately tolerated —
/// over-listening until GC is how DiGS avoids losing packets during parent
/// swaps — and desynced nodes are skipped entirely: their housekeeping is
/// dormant until they re-associate.
pub fn check_child_tables(snapshot: &AuditSnapshot) -> Vec<InvariantViolation> {
    let mut violations = Vec::new();
    for node in &snapshot.nodes {
        if !node.synced {
            continue;
        }
        for (child, last_seen) in &node.children {
            let silent_for = snapshot.asn.0.saturating_sub(last_seen.0);
            if silent_for <= CHILD_GRACE_SLOTS + GC_SWEEP_SLOTS {
                continue;
            }
            let is_actual_child = snapshot
                .graph
                .entry(*child)
                .is_some_and(|e| e.best == Some(node.node) || e.second == Some(node.node));
            if !is_actual_child {
                violations.push(InvariantViolation {
                    kind: InvariantKind::ChildTable,
                    asn: snapshot.asn,
                    node: node.node,
                    detail: format!(
                        "child {} silent for {} slots (GC horizon {}) and no longer \
                         routes through this node",
                        child.0, silent_for, CHILD_GRACE_SLOTS
                    ),
                });
            }
        }
    }
    violations
}

/// Bounded queues must respect their bound.
pub fn check_queue_bounds(snapshot: &AuditSnapshot) -> Vec<InvariantViolation> {
    snapshot
        .nodes
        .iter()
        .filter(|n| n.queue_len > n.queue_capacity)
        .map(|n| InvariantViolation {
            kind: InvariantKind::QueueBound,
            asn: snapshot.asn,
            node: n.node,
            detail: format!("queue holds {} items, capacity {}", n.queue_len, n.queue_capacity),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use digs_routing::graph::GraphEntry;

    fn entry(best: Option<u16>, second: Option<u16>, rank: u16) -> GraphEntry {
        GraphEntry { best: best.map(NodeId), second: second.map(NodeId), rank: Rank(rank) }
    }

    fn node_audit(node: u16, rank: u16) -> NodeAudit {
        NodeAudit {
            node: NodeId(node),
            is_ap: false,
            synced: true,
            rank: Rank(rank),
            best_parent: None,
            second_parent: None,
            claims: Vec::new(),
            children: Vec::new(),
            queue_len: 0,
            queue_capacity: 8,
        }
    }

    fn view(node: u16, believed_rank: u16) -> Option<ParentView> {
        Some(ParentView { node: NodeId(node), believed_rank: Rank(believed_rank) })
    }

    /// A healthy snapshot modeled on the paper's Fig. 6 shape: APs 0 and 1,
    /// node 2 at rank 2 under both, node 3 at rank 3 relaying through 2.
    fn healthy() -> AuditSnapshot {
        let mut graph = RoutingGraph::new([NodeId(0), NodeId(1)]);
        graph.insert(NodeId(2), entry(Some(0), Some(1), 2));
        graph.insert(NodeId(3), entry(Some(2), Some(0), 3));
        let mut n2 = node_audit(2, 2);
        n2.best_parent = view(0, 1);
        n2.second_parent = view(1, 1);
        n2.claims = vec![
            CellClaim { slot: 1, offset: ChannelOffset::new(2) },
            CellClaim { slot: 2, offset: ChannelOffset::new(7) },
        ];
        n2.children = vec![(NodeId(3), Asn(990))];
        let mut n3 = node_audit(3, 3);
        n3.best_parent = view(2, 2);
        n3.second_parent = view(0, 1);
        n3.claims = vec![CellClaim { slot: 4, offset: ChannelOffset::new(3) }];
        AuditSnapshot { asn: Asn(1000), graph, nodes: vec![n2, n3] }
    }

    #[test]
    fn healthy_snapshot_is_clean() {
        assert!(audit(&healthy()).is_empty());
    }

    #[test]
    fn routing_loop_is_caught() {
        let mut snap = healthy();
        // 2 → 3 (backup) while 3 → 2 (primary): a two-node cycle.
        snap.graph.insert(NodeId(2), entry(Some(0), Some(3), 2));
        let violations = check_loop_freedom(&snap);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].kind, InvariantKind::RoutingLoop);
        assert_eq!(violations[0].asn, Asn(1000));
        assert!(audit(&snap).iter().any(|v| v.kind == InvariantKind::RoutingLoop));
    }

    #[test]
    fn rank_inversion_is_caught() {
        // Node 3 selected a primary parent it *believes* to be at its own
        // rank — the selection rule forbids same-rank links outright, so
        // this is a routing bug, not skew.
        let mut snap = healthy();
        snap.nodes[1].best_parent = view(2, 3);
        let violations = check_rank_monotonicity(&snap);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].kind, InvariantKind::RankInversion);
        assert_eq!(violations[0].node, NodeId(3));
        assert!(violations[0].detail.contains("rank 3"));
    }

    #[test]
    fn second_parent_rank_rule_is_caught() {
        // Node 2 (rank 2) believes its backup sits at rank 2: forbidden.
        let mut snap = healthy();
        snap.nodes[0].second_parent = view(1, 2);
        let violations = check_rank_monotonicity(&snap);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].kind, InvariantKind::SecondParentRank);
        assert_eq!(violations[0].node, NodeId(2));
    }

    #[test]
    fn stale_global_rank_is_not_flagged() {
        // Node 2's globally-current rank rose to 4 (its graph entry), but
        // node 3 still *believes* it at rank 2 — legitimate skew until the
        // next join-in reaches node 3, not a selection-rule violation.
        let mut snap = healthy();
        snap.graph.insert(NodeId(2), entry(Some(0), Some(1), 4));
        assert!(check_rank_monotonicity(&snap).is_empty());
    }

    #[test]
    fn detached_nodes_are_not_rank_checked() {
        let mut snap = healthy();
        let mut loner = node_audit(4, u16::MAX);
        loner.synced = false;
        snap.nodes.push(loner);
        assert!(check_rank_monotonicity(&snap).is_empty());
    }

    #[test]
    fn duplicate_cell_claim_is_caught() {
        // The "deliberately broken scheduler": two nodes derive the same
        // dedicated cell (as a buggy Eq. 4 with the wrong modulus would).
        let mut snap = healthy();
        snap.nodes[1].claims = vec![CellClaim { slot: 1, offset: ChannelOffset::new(2) }];
        let violations = check_cell_ownership(&snap);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].kind, InvariantKind::CellOwnership);
        assert!(violations[0].detail.contains("slot 1"));
        assert!(violations[0].detail.contains("node 2"));
    }

    #[test]
    fn same_node_may_reclaim_its_own_cell() {
        let mut snap = healthy();
        // Duplicate entries for one owner are not a conflict.
        let claim = snap.nodes[0].claims[0];
        snap.nodes[0].claims.push(claim);
        assert!(check_cell_ownership(&snap).is_empty());
    }

    #[test]
    fn leaked_child_registration_is_caught() {
        let mut snap = healthy();
        // Node 2 still holds a registration for node 4, which was last
        // heard 30 000 slots ago (past the 19 200-slot GC horizon) and does
        // not route through node 2.
        snap.asn = Asn(40_000);
        snap.graph.insert(NodeId(4), entry(Some(0), None, 2));
        snap.nodes[0].children.push((NodeId(4), Asn(10_000)));
        // Refresh node 3's registration so only the leak fires.
        snap.nodes[0].children[0].1 = Asn(39_000);
        let violations = check_child_tables(&snap);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].kind, InvariantKind::ChildTable);
        assert_eq!(violations[0].node, NodeId(2));
        assert!(violations[0].detail.contains("child 4"));
    }

    #[test]
    fn stale_child_still_routing_through_us_is_tolerated() {
        let mut snap = healthy();
        // Node 3 has been silent past the horizon but still lists node 2 as
        // its primary parent — GC would evict it, but it is a real child,
        // so the subset invariant holds.
        snap.asn = Asn(40_000);
        snap.nodes[0].children[0].1 = Asn(1_000);
        assert!(check_child_tables(&snap).is_empty());
    }

    #[test]
    fn fresh_registration_of_departed_child_is_tolerated() {
        let mut snap = healthy();
        // Node 3 switched both parents away from node 2 moments ago; the
        // still-fresh registration is legitimate over-listening.
        snap.graph.insert(NodeId(3), entry(Some(0), Some(1), 2));
        assert!(check_child_tables(&snap).is_empty());
    }

    #[test]
    fn desynced_nodes_child_table_is_dormant() {
        // Same leak as `leaked_child_registration_is_caught`, but the
        // holder lost sync: its GC is paused while it scans for EBs, so the
        // auditor must wait for it to re-associate.
        let mut snap = healthy();
        snap.asn = Asn(40_000);
        snap.graph.insert(NodeId(4), entry(Some(0), None, 2));
        snap.nodes[0].children = vec![(NodeId(4), Asn(10_000))];
        snap.nodes[0].synced = false;
        assert!(check_child_tables(&snap).is_empty());
    }

    #[test]
    fn queue_overflow_is_caught() {
        let mut snap = healthy();
        snap.nodes[1].queue_len = 9;
        let violations = check_queue_bounds(&snap);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].kind, InvariantKind::QueueBound);
        assert!(violations[0].detail.contains("9 items"));
    }

    #[test]
    fn violations_render_with_context() {
        let mut snap = healthy();
        snap.nodes[1].queue_len = 9;
        let v = &audit(&snap)[0];
        let rendered = v.to_string();
        assert!(rendered.contains("asn 1000"));
        assert!(rendered.contains("QueueBound"));
    }
}
