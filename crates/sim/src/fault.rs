//! Scripted faults.
//!
//! The paper's failure experiment turns off four nodes on the routing graph
//! in turn (Section VII-B); the chaos soak adds cold reboots, link flaps and
//! clock desyncs. A [`FaultPlan`] is the run's list of [`Fault`]s; the engine
//! consults it at each of its [edges](FaultPlan::edges) and simply stops
//! invoking a dead node's stack (the radio falls silent, exactly like pulling
//! a mote's battery).

use crate::ids::NodeId;
use crate::interference::{Jammer, JammerKind};
use crate::position::Position;
use crate::rf::Dbm;
use crate::rng;
use crate::time::Asn;
use crate::topology::Topology;

/// What a [`Fault`] does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The node is dead over the window and resumes with its RAM state (a
    /// battery pulled and re-inserted).
    Outage,
    /// The node is dead over the window and comes back with **cold** stack
    /// state — no routes, no schedule, no sync (a watchdog reset or a
    /// firmware crash): the engine invokes the stack's reset hook at the
    /// first slot it is alive after `until`.
    Reboot,
    /// The radio path between `node` and `peer` is obstructed in both
    /// directions over the window (a vehicle parked in front of an antenna,
    /// a door closing on a corridor path).
    Link,
    /// At `from` the node's TSCH clock drifts past the guard time: routing
    /// state and queues survive, but it must re-acquire slot alignment from
    /// enhanced beacons. Instantaneous: it has no `until`.
    Desync,
}

/// One injected fault: `kind` hits `node` (and, for a link, `peer`) over
/// `[from, until)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// What the fault does.
    pub kind: Kind,
    /// The node it hits; one endpoint of a link.
    pub node: NodeId,
    /// The other endpoint of a link (`None` for every other kind).
    pub peer: Option<NodeId>,
    /// First slot of the fault.
    pub from: Asn,
    /// First slot in which it has cleared (`None` = never, or a desync).
    pub until: Option<Asn>,
}

impl Fault {
    /// A node outage over `[from, until)`; `until: None` never recovers.
    ///
    /// # Panics
    ///
    /// Panics if `until <= from`.
    pub fn outage(node: NodeId, from: Asn, until: Option<Asn>) -> Fault {
        Fault { kind: Kind::Outage, node, peer: None, from, until }.checked()
    }

    /// A reboot with downtime `[from, until)`.
    ///
    /// # Panics
    ///
    /// Panics if `until <= from`.
    pub fn reboot(node: NodeId, from: Asn, until: Asn) -> Fault {
        Fault { kind: Kind::Reboot, node, peer: None, from, until: Some(until) }.checked()
    }

    /// A break of the link between `a` and `b` over `[from, until)`;
    /// `until: None` never heals.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or `until <= from`.
    pub fn link(a: NodeId, b: NodeId, from: Asn, until: Option<Asn>) -> Fault {
        assert_ne!(a, b, "a link needs two distinct endpoints");
        Fault { kind: Kind::Link, node: a, peer: Some(b), from, until }.checked()
    }

    /// A clock desync of `node` at `at`.
    pub fn desync(node: NodeId, at: Asn) -> Fault {
        Fault { kind: Kind::Desync, node, peer: None, from: at, until: None }
    }

    fn checked(self) -> Fault {
        assert!(self.until.is_none_or(|u| u > self.from), "a fault must end after it starts");
        self
    }

    /// Whether `asn` falls in the fault's window `[from, until)`.
    pub fn covers(&self, asn: Asn) -> bool {
        asn >= self.from && self.until.is_none_or(|u| asn < u)
    }

    /// Whether the fault keeps `node` dead over its window.
    fn downs(&self, node: NodeId) -> bool {
        self.node == node && matches!(self.kind, Kind::Outage | Kind::Reboot)
    }
}

/// The full fault schedule for a simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan: every node is alive for the whole run.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Adds a fault to the plan.
    pub fn push(&mut self, fault: Fault) {
        self.faults.push(fault);
    }

    /// The faults, in the order they were added.
    pub fn iter(&self) -> std::slice::Iter<'_, Fault> {
        self.faults.iter()
    }

    /// Whether `node` is alive at `asn` (neither in an outage nor mid-reboot).
    pub fn is_alive(&self, node: NodeId, asn: Asn) -> bool {
        !self.faults.iter().any(|f| f.downs(node) && f.covers(asn))
    }

    /// Whether `node` is alive at *every* slot of `[from, to]` — i.e. no
    /// outage or reboot window overlaps the range. Used by the runtime
    /// auditor to tell whether a node's housekeeping has actually had a
    /// chance to run recently (a powered-off node executes nothing).
    pub fn alive_throughout(&self, node: NodeId, from: Asn, to: Asn) -> bool {
        !self
            .faults
            .iter()
            .any(|f| f.downs(node) && f.from <= to && f.until.is_none_or(|u| u > from))
    }

    /// Whether a reboot of `node` completes exactly at `asn` (its first
    /// scheduled slot back up). The engine cold-resets the stack at this
    /// instant, provided no other fault still keeps the node down (it
    /// additionally checks [`FaultPlan::is_alive`]).
    pub fn reboot_completing_at(&self, node: NodeId, asn: Asn) -> bool {
        self.faults.iter().any(|f| f.kind == Kind::Reboot && f.node == node && f.until == Some(asn))
    }

    /// Whether `node` loses TSCH time synchronization exactly at `asn`.
    pub fn desync_at(&self, node: NodeId, asn: Asn) -> bool {
        self.faults.iter().any(|f| f.kind == Kind::Desync && f.node == node && f.from == asn)
    }

    /// Whether the radio path between `a` and `b` is usable at `asn`.
    pub fn is_link_up(&self, a: NodeId, b: NodeId, asn: Asn) -> bool {
        !self.faults.iter().any(|f| {
            f.kind == Kind::Link
                && ((f.node == a && f.peer == Some(b)) || (f.node == b && f.peer == Some(a)))
                && f.covers(asn)
        })
    }

    /// Fault boundaries crossing exactly `asn`, for the flight recorder:
    /// each entry is `(node, kind, peer, injected)` where `injected` is
    /// `true` at fault onset and `false` at clearance. Outages come first,
    /// then reboots, then link outages, each in plan order. Link outages
    /// report one entry per endpoint with the other endpoint as `peer`.
    /// Desyncs are not reported here — the engine records them at the stack
    /// callback. Permanent faults never produce a clearance entry. Every
    /// slot that yields an entry is one of [`FaultPlan::edges`].
    pub fn transitions_at(
        &self,
        asn: Asn,
    ) -> impl Iterator<Item = (NodeId, digs_trace::FaultKind, Option<NodeId>, bool)> + '_ {
        use digs_trace::FaultKind as Traced;
        let kinds = [
            (Kind::Outage, Traced::Outage),
            (Kind::Reboot, Traced::Reboot),
            (Kind::Link, Traced::LinkOutage),
        ];
        kinds.into_iter().flat_map(move |(kind, traced)| {
            self.faults.iter().filter(move |f| f.kind == kind).flat_map(move |f| {
                [(f.from == asn, true), (f.until == Some(asn), false)]
                    .into_iter()
                    .filter(|&(crossed, _)| crossed)
                    .flat_map(move |(_, injected)| {
                        let far_end = f.peer.map(|peer| (peer, traced, Some(f.node), injected));
                        std::iter::once((f.node, traced, f.peer, injected)).chain(far_end)
                    })
            })
        })
    }

    /// Every slot at which the plan changes something: each fault's `from`
    /// and `until`, ascending and without repeats. Between two consecutive
    /// edges no node's liveness and no link's state moves, so the engine
    /// consults the plan per node only at these slots.
    pub fn edges(&self) -> impl Iterator<Item = Asn> {
        let mut edges: Vec<Asn> =
            self.faults.iter().flat_map(|f| [Some(f.from), f.until]).flatten().collect();
        edges.sort_unstable();
        edges.dedup();
        edges.into_iter()
    }

    /// The paper's Fig. 11 scenario: turn off the given nodes *in turn*,
    /// each for `each_secs` seconds, starting at `start`, one after another.
    pub fn in_turn(nodes: &[NodeId], start: Asn, each_secs: u64) -> FaultPlan {
        let each = Asn::from_secs(each_secs).0;
        (nodes.iter().zip(0..))
            .map(|(node, i)| {
                let from = start + i * each;
                Fault::outage(*node, from, Some(from + each))
            })
            .collect()
    }
}

impl FromIterator<Fault> for FaultPlan {
    fn from_iter<I: IntoIterator<Item = Fault>>(faults: I) -> FaultPlan {
        FaultPlan { faults: faults.into_iter().collect() }
    }
}

/// One hash stream of the chaos profile.
struct Stream {
    salt: u64,
    /// Expected events per minute of chaos window.
    per_min: f64,
    /// Bounds of an event's length, seconds (a desync has none).
    secs: (f64, f64),
}

/// The chaos profile: roughly one event of some kind every ~20 s.
const CHURN: Stream = Stream { salt: 1, per_min: 1.0, secs: (10.0, 40.0) };
const REBOOT: Stream = Stream { salt: 2, per_min: 0.5, secs: (5.0, 15.0) };
const LINK_FLAP: Stream = Stream { salt: 3, per_min: 1.0, secs: (5.0, 30.0) };
const DESYNC: Stream = Stream { salt: 4, per_min: 0.5, secs: (0.0, 0.0) };
const JAMMER_BURST: Stream = Stream { salt: 5, per_min: 0.5, secs: (10.0, 60.0) };

/// A drawn chaos schedule: the faults to install into the engine and the
/// jammer bursts to add.
///
/// Generation is a pure function of `(start, secs, topology, seed)` — the
/// same inputs always produce the same plan, so chaos soaks are
/// reproducible.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosPlan {
    /// Node churn (transient outages), cold reboots, link flaps and clock
    /// desyncs, kind by kind in that order.
    pub faults: FaultPlan,
    /// One disturber per jammer burst, switched on near a drawn node.
    pub jammers: Vec<Jammer>,
}

impl ChaosPlan {
    /// Draws a chaos schedule for `topology` under `seed` whose events start
    /// in the `secs` seconds from `start` (their effects may outlast it).
    ///
    /// Access points are never churned, rebooted, or desynced (the paper's
    /// APs are wired infrastructure); they can still be an endpoint of a
    /// link flap or sit near a jammer burst. Event counts per stream are
    /// `floor(rate × minutes)` plus a Bernoulli trial on the fraction, so
    /// fractional expected counts are honoured on average while staying
    /// deterministic under the seed.
    ///
    /// # Panics
    ///
    /// Panics if the topology has no field devices, or fewer than two nodes
    /// (nothing to flap), or `secs` is zero.
    pub fn generate(start: Asn, secs: u64, topology: &Topology, seed: u64) -> ChaosPlan {
        assert!(secs > 0, "chaos window must be non-empty");
        assert!(topology.len() >= 2, "chaos needs at least two nodes");
        let field: Vec<NodeId> =
            topology.node_ids().filter(|id| !topology.is_access_point(*id)).collect();
        assert!(!field.is_empty(), "chaos needs at least one field device");
        let all: Vec<NodeId> = topology.node_ids().collect();

        let window = Asn::from_secs(secs).0;
        let minutes = secs as f64 / 60.0;
        let chaos_seed = rng::mix(seed, 0x000c_4a05, 0, 0);
        let count = |s: &Stream| -> u64 {
            let expected = s.per_min * minutes;
            let frac = expected - expected.floor();
            expected.floor() as u64
                + u64::from(rng::uniform01(chaos_seed, s.salt, u64::MAX, 0) < frac)
        };
        let at = |s: &Stream, i: u64| -> Asn {
            let offset = (rng::uniform01(chaos_seed, s.salt, i, 1) * window as f64) as u64;
            start + offset.min(window - 1)
        };
        let pick = |nodes: &[NodeId], s: &Stream, i: u64, field_id: u64| -> NodeId {
            nodes[(rng::mix(chaos_seed, s.salt, i, field_id) % nodes.len() as u64) as usize]
        };
        let until = |s: &Stream, i: u64, from: Asn| -> Asn {
            let u = rng::uniform01(chaos_seed, s.salt, i, 2);
            let len = s.secs.0 + u * (s.secs.1 - s.secs.0);
            from + Asn::from_secs(len.max(1.0).round() as u64).0
        };

        let mut faults = FaultPlan::none();
        let streams = [
            (CHURN, Kind::Outage),
            (REBOOT, Kind::Reboot),
            (LINK_FLAP, Kind::Link),
            (DESYNC, Kind::Desync),
        ];
        for (s, kind) in streams {
            for i in 0..count(&s) {
                let node = pick(if kind == Kind::Link { &all } else { &field }, &s, i, 3);
                // The peer is drawn from the other nodes, so it is not `node`.
                let peer = (kind == Kind::Link).then(|| {
                    let other =
                        all[(rng::mix(chaos_seed, s.salt, i, 4) % (all.len() as u64 - 1)) as usize];
                    if other == node {
                        all[all.len() - 1]
                    } else {
                        other
                    }
                });
                let from = at(&s, i);
                let until = (kind != Kind::Desync).then(|| until(&s, i, from));
                faults.push(Fault { kind, node, peer, from, until });
            }
        }
        let s = &JAMMER_BURST;
        let jammers = (0..count(s))
            .map(|i| {
                let near = topology.position(pick(&all, s, i, 3));
                let from = at(s, i);
                Jammer {
                    position: Position::with_height(near.x + 2.0, near.y + 2.0, near.z),
                    tx_power: Dbm(0.0),
                    kind: JammerKind::Disturber,
                    start: from,
                    stop: Some(until(s, i, from)),
                    toggle_half_period: None,
                    salt: rng::mix(chaos_seed, s.salt, i, 5),
                }
            })
            .collect();
        ChaosPlan { faults, jammers }
    }

    /// The most events — faults and jammer bursts — [`ChaosPlan::generate`]
    /// draws over `secs` seconds: `ceil(rate × minutes)` of each kind.
    pub fn max_events(secs: u64) -> u64 {
        let minutes = secs as f64 / 60.0;
        [CHURN, REBOOT, LINK_FLAP, DESYNC, JAMMER_BURST]
            .iter()
            .map(|s| (s.per_min * minutes).ceil() as u64)
            .fold(0, u64::saturating_add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_everyone_alive() {
        let p = FaultPlan::none();
        assert!(p.is_alive(NodeId(3), Asn(12345)));
    }

    #[test]
    fn empty_plan_has_no_link_outages() {
        assert!(FaultPlan::none().is_link_up(NodeId(0), NodeId(1), Asn(5)));
    }

    #[test]
    fn permanent_outage() {
        let p = FaultPlan::from_iter([Fault::outage(NodeId(2), Asn(100), None)]);
        assert!(p.is_alive(NodeId(2), Asn(99)));
        assert!(!p.is_alive(NodeId(2), Asn(100)));
        assert!(!p.is_alive(NodeId(2), Asn(1_000_000)));
        assert!(p.is_alive(NodeId(3), Asn(100)));
    }

    #[test]
    fn transient_outage_ends() {
        let p = FaultPlan::from_iter([Fault::outage(NodeId(1), Asn(10), Some(Asn(20)))]);
        assert!(p.is_alive(NodeId(1), Asn(9)));
        assert!(!p.is_alive(NodeId(1), Asn(10)));
        assert!(!p.is_alive(NodeId(1), Asn(19)));
        assert!(p.is_alive(NodeId(1), Asn(20)));
    }

    #[test]
    #[should_panic(expected = "must end after it starts")]
    fn inverted_outage_panics() {
        let _ = Fault::outage(NodeId(0), Asn(20), Some(Asn(10)));
    }

    #[test]
    fn in_turn_staggers_failures() {
        let nodes = [NodeId(5), NodeId(6)];
        let p = FaultPlan::in_turn(&nodes, Asn::from_secs(10), 30);
        // Node 5 dead during [10 s, 40 s), node 6 during [40 s, 70 s).
        assert!(!p.is_alive(NodeId(5), Asn::from_secs(15)));
        assert!(p.is_alive(NodeId(6), Asn::from_secs(15)));
        assert!(p.is_alive(NodeId(5), Asn::from_secs(45)));
        assert!(!p.is_alive(NodeId(6), Asn::from_secs(45)));
        assert!(p.is_alive(NodeId(5), Asn::from_secs(75)));
        assert!(p.is_alive(NodeId(6), Asn::from_secs(75)));
    }

    #[test]
    fn overlapping_outages_union() {
        let p = FaultPlan::from_iter([
            Fault::outage(NodeId(1), Asn(0), Some(Asn(10))),
            Fault::outage(NodeId(1), Asn(5), Some(Asn(15))),
        ]);
        assert!(!p.is_alive(NodeId(1), Asn(12)));
        assert!(p.is_alive(NodeId(1), Asn(15)));
    }

    #[test]
    fn link_outage_symmetric_window() {
        let p = FaultPlan::from_iter([Fault::link(NodeId(1), NodeId(2), Asn(10), Some(Asn(20)))]);
        assert!(p.is_link_up(NodeId(1), NodeId(2), Asn(9)));
        assert!(!p.is_link_up(NodeId(1), NodeId(2), Asn(10)));
        assert!(!p.is_link_up(NodeId(2), NodeId(1), Asn(15)), "both directions break");
        assert!(p.is_link_up(NodeId(1), NodeId(2), Asn(20)));
        // Unrelated pairs are untouched, and both ends stay alive.
        assert!(p.is_link_up(NodeId(1), NodeId(3), Asn(15)));
        assert!(p.is_alive(NodeId(1), Asn(15)) && p.is_alive(NodeId(2), Asn(15)));
    }

    #[test]
    fn permanent_link_break_never_recovers() {
        let p = FaultPlan::from_iter([Fault::link(NodeId(4), NodeId(5), Asn(0), None)]);
        assert!(!p.is_link_up(NodeId(5), NodeId(4), Asn(1_000_000)));
    }

    #[test]
    #[should_panic(expected = "two distinct endpoints")]
    fn self_link_outage_panics() {
        let _ = Fault::link(NodeId(3), NodeId(3), Asn(0), None);
    }

    #[test]
    fn reboot_window_kills_node() {
        let p = FaultPlan::from_iter([Fault::reboot(NodeId(7), Asn(100), Asn(200))]);
        assert!(p.is_alive(NodeId(7), Asn(99)));
        assert!(!p.is_alive(NodeId(7), Asn(100)));
        assert!(!p.is_alive(NodeId(7), Asn(199)));
        assert!(p.is_alive(NodeId(7), Asn(200)));
    }

    #[test]
    fn reboot_completion_fires_once_at_until() {
        let p = FaultPlan::from_iter([Fault::reboot(NodeId(7), Asn(100), Asn(200))]);
        assert!(!p.reboot_completing_at(NodeId(7), Asn(199)));
        assert!(p.reboot_completing_at(NodeId(7), Asn(200)));
        assert!(!p.reboot_completing_at(NodeId(7), Asn(201)));
        assert!(!p.reboot_completing_at(NodeId(8), Asn(200)));
    }

    #[test]
    #[should_panic(expected = "must end after it starts")]
    fn inverted_reboot_panics() {
        let _ = Fault::reboot(NodeId(0), Asn(20), Asn(20));
    }

    #[test]
    fn edges_are_every_boundary_once_in_order() {
        let plan = FaultPlan::from_iter([
            Fault::outage(NodeId(1), Asn(30), Some(Asn(50))),
            Fault::outage(NodeId(2), Asn(10), None),
            Fault::reboot(NodeId(3), Asn(10), Asn(30)),
            Fault::link(NodeId(1), NodeId(2), Asn(5), Some(Asn(70))),
            Fault::link(NodeId(3), NodeId(4), Asn(60), None),
            Fault::desync(NodeId(4), Asn(40)),
        ]);
        let edges: Vec<u64> = plan.edges().map(|asn| asn.0).collect();
        assert_eq!(edges, vec![5, 10, 30, 40, 50, 60, 70]);
        assert_eq!(FaultPlan::none().edges().count(), 0);
        // Liveness and link state move at edges only, and every transition
        // the recorder is told of falls on one.
        for asn in (1..80).map(Asn).filter(|asn| !edges.contains(&asn.0)) {
            assert_eq!(plan.transitions_at(asn).count(), 0, "{asn}");
            for node in (0..5).map(NodeId) {
                assert_eq!(plan.is_alive(node, asn), plan.is_alive(node, Asn(asn.0 - 1)));
                assert!(!plan.desync_at(node, asn) && !plan.reboot_completing_at(node, asn));
            }
        }
    }

    #[test]
    fn transitions_come_kind_by_kind_in_plan_order() {
        use digs_trace::FaultKind::{LinkOutage as Link, Outage as Out, Reboot as Boot};
        let plan = FaultPlan::from_iter([
            Fault::link(NodeId(1), NodeId(2), Asn(5), Some(Asn(9))),
            Fault::reboot(NodeId(3), Asn(5), Asn(9)),
            Fault::outage(NodeId(4), Asn(2), Some(Asn(5))),
            Fault::outage(NodeId(4), Asn(5), Some(Asn(9))),
        ]);
        let at = |asn| plan.transitions_at(Asn(asn)).collect::<Vec<_>>();
        assert_eq!(
            at(5),
            vec![
                (NodeId(4), Out, None, false),
                (NodeId(4), Out, None, true),
                (NodeId(3), Boot, None, true),
                (NodeId(1), Link, Some(NodeId(2)), true),
                (NodeId(2), Link, Some(NodeId(1)), true),
            ]
        );
        assert_eq!(at(9).len(), 4);
        assert_eq!(at(9)[3], (NodeId(2), Link, Some(NodeId(1)), false));
        assert!(at(6).is_empty());
    }

    #[test]
    fn desync_is_instantaneous() {
        let p = FaultPlan::from_iter([Fault::desync(NodeId(3), Asn(500))]);
        assert!(p.is_alive(NodeId(3), Asn(500)), "desync does not kill the node");
        assert!(p.desync_at(NodeId(3), Asn(500)));
        assert!(!p.desync_at(NodeId(3), Asn(501)));
        assert!(!p.desync_at(NodeId(4), Asn(500)));
        assert!(!p.reboot_completing_at(NodeId(3), Asn(500)));
    }
}

#[cfg(test)]
mod chaos_tests {
    use super::*;
    use crate::topology::Topology;

    fn generate(topology: &Topology, seed: u64) -> ChaosPlan {
        ChaosPlan::generate(Asn::from_secs(60), 600, topology, seed)
    }

    #[test]
    fn generation_is_deterministic_under_seed() {
        let topo = Topology::testbed_a();
        let a = generate(&topo, 42);
        assert_eq!(a, generate(&topo, 42));
        assert_ne!(a, generate(&topo, 43), "different seeds should differ");
    }

    #[test]
    fn moderate_profile_emits_every_stream() {
        let topo = Topology::testbed_a();
        let plan = generate(&topo, 7);
        // 10 chaos minutes: expect ~10 churns, ~5 reboots, ~10 flaps,
        // ~5 desyncs, ~5 jammer bursts.
        for kind in [Kind::Outage, Kind::Reboot, Kind::Link, Kind::Desync] {
            assert!(plan.faults.iter().any(|f| f.kind == kind), "no {kind:?}");
        }
        assert!(!plan.jammers.is_empty());
        let events = plan.faults.iter().count() + plan.jammers.len();
        assert!(events as u64 <= ChaosPlan::max_events(600));
    }

    #[test]
    fn events_start_inside_window_and_are_ordered() {
        let topo = Topology::testbed_a();
        let plan = generate(&topo, 99);
        let window = Asn::from_secs(60)..Asn::from_secs(660);
        for fault in plan.faults.iter() {
            assert!(window.contains(&fault.from), "fault outside the window: {fault:?}");
            assert!(fault.until.is_none_or(|until| until > fault.from));
        }
        for jammer in &plan.jammers {
            assert!(window.contains(&jammer.start), "burst outside the window: {jammer:?}");
        }
        // Kind by kind: churn, reboots, flaps, desyncs.
        let kinds: Vec<Kind> = plan.faults.iter().map(|f| f.kind).collect();
        let rank = |k: &Kind| {
            [Kind::Outage, Kind::Reboot, Kind::Link, Kind::Desync].iter().position(|x| x == k)
        };
        assert!(kinds.windows(2).all(|pair| rank(&pair[0]) <= rank(&pair[1])), "{kinds:?}");
    }

    #[test]
    fn access_points_are_never_churned_rebooted_or_desynced() {
        let topo = Topology::testbed_a();
        for seed in 0..20 {
            for fault in generate(&topo, seed).faults.iter().filter(|f| f.kind != Kind::Link) {
                assert!(!topo.is_access_point(fault.node), "{fault:?}");
            }
        }
    }

    #[test]
    fn link_flaps_have_distinct_endpoints() {
        let topo = Topology::testbed_a();
        for seed in 0..50 {
            for flap in generate(&topo, seed).faults.iter().filter(|f| f.kind == Kind::Link) {
                assert!(flap.peer.is_some_and(|peer| peer != flap.node), "{flap:?}");
            }
        }
    }
}
