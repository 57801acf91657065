//! Scripted node failures.
//!
//! The paper's failure experiment turns off four nodes on the routing graph
//! in turn (Section VII-B). A [`FaultPlan`] holds the schedule of outages;
//! the engine consults it at each of its [edges](FaultPlan::edges) and
//! simply stops invoking a dead node's stack (the radio falls silent,
//! exactly like pulling a mote's battery).

use crate::ids::NodeId;
use crate::interference::{Jammer, JammerKind};
use crate::position::Position;
use crate::rf::Dbm;
use crate::rng;
use crate::time::Asn;
use crate::topology::Topology;

/// One scheduled outage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outage {
    /// Node that fails.
    pub node: NodeId,
    /// First slot in which the node is dead.
    pub from: Asn,
    /// First slot in which the node is alive again (`None` = never recovers).
    pub until: Option<Asn>,
}

impl Outage {
    /// A permanent failure starting at `from`.
    pub fn permanent(node: NodeId, from: Asn) -> Outage {
        Outage { node, from, until: None }
    }

    /// A transient failure over `[from, until)`.
    ///
    /// # Panics
    ///
    /// Panics if `until <= from`.
    pub fn transient(node: NodeId, from: Asn, until: Asn) -> Outage {
        assert!(until > from, "outage must end after it starts");
        Outage { node, from, until: Some(until) }
    }

    /// Whether this outage covers `asn`.
    pub fn covers(&self, asn: Asn) -> bool {
        asn >= self.from && self.until.is_none_or(|u| asn < u)
    }
}

/// One scheduled *link* outage: the radio path between two nodes is
/// obstructed (in both directions) for a window — e.g. a vehicle parked in
/// front of an antenna, or a door closing on a corridor path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkOutage {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// First slot in which the link is down.
    pub from: Asn,
    /// First slot in which the link works again (`None` = never).
    pub until: Option<Asn>,
}

impl LinkOutage {
    /// A permanent link break starting at `from`.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`.
    pub fn permanent(a: NodeId, b: NodeId, from: Asn) -> LinkOutage {
        assert_ne!(a, b, "a link needs two distinct endpoints");
        LinkOutage { a, b, from, until: None }
    }

    /// A transient link break over `[from, until)`.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or `until <= from`.
    pub fn transient(a: NodeId, b: NodeId, from: Asn, until: Asn) -> LinkOutage {
        assert_ne!(a, b, "a link needs two distinct endpoints");
        assert!(until > from, "outage must end after it starts");
        LinkOutage { a, b, from, until: Some(until) }
    }

    /// Whether this outage affects the (unordered) pair at `asn`.
    pub fn covers(&self, x: NodeId, y: NodeId, asn: Asn) -> bool {
        let same_pair = (self.a == x && self.b == y) || (self.a == y && self.b == x);
        same_pair && asn >= self.from && self.until.is_none_or(|u| asn < u)
    }
}

/// One scheduled *reboot*: the node is dead over `[from, until)` and comes
/// back with **cold** stack state — no routes, no schedule, no sync. Unlike a
/// plain transient [`Outage`] (battery pulled and re-inserted fast enough
/// that RAM state survives, which is how the engine models recovery from an
/// `Outage`), a reboot models a watchdog reset or firmware crash: the engine
/// invokes the stack's reset hook at `until` and the node must rejoin from
/// scratch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reboot {
    /// Node that reboots.
    pub node: NodeId,
    /// First slot in which the node is down.
    pub from: Asn,
    /// First slot in which the node is back up (with cold state).
    pub until: Asn,
}

impl Reboot {
    /// A reboot with downtime `[from, until)`.
    ///
    /// # Panics
    ///
    /// Panics if `until <= from`.
    pub fn new(node: NodeId, from: Asn, until: Asn) -> Reboot {
        assert!(until > from, "reboot must end after it starts");
        Reboot { node, from, until }
    }

    /// Whether the node is down because of this reboot at `asn`.
    pub fn covers(&self, asn: Asn) -> bool {
        asn >= self.from && asn < self.until
    }
}

/// One scheduled *clock desynchronization*: at `at`, the node's TSCH clock
/// drifts past the guard time and it loses slot alignment. Routing state and
/// queues survive, but the node must re-associate time-wise via enhanced
/// beacons before it can communicate again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClockDesync {
    /// Node whose clock slips.
    pub node: NodeId,
    /// Slot at which sync is lost.
    pub at: Asn,
}

impl ClockDesync {
    /// A desync event for `node` at `at`.
    pub fn new(node: NodeId, at: Asn) -> ClockDesync {
        ClockDesync { node, at }
    }
}

/// The full failure schedule for a simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    outages: Vec<Outage>,
    link_outages: Vec<LinkOutage>,
    reboots: Vec<Reboot>,
    desyncs: Vec<ClockDesync>,
}

impl FaultPlan {
    /// An empty plan: every node is alive for the whole run.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Adds an outage to the plan.
    pub fn with(mut self, outage: Outage) -> FaultPlan {
        self.outages.push(outage);
        self
    }

    /// Adds an outage in place.
    pub fn push(&mut self, outage: Outage) {
        self.outages.push(outage);
    }

    /// Adds a link outage to the plan.
    pub fn with_link(mut self, outage: LinkOutage) -> FaultPlan {
        self.link_outages.push(outage);
        self
    }

    /// Adds a link outage in place.
    pub fn push_link(&mut self, outage: LinkOutage) {
        self.link_outages.push(outage);
    }

    /// Adds a reboot to the plan.
    pub fn with_reboot(mut self, reboot: Reboot) -> FaultPlan {
        self.reboots.push(reboot);
        self
    }

    /// Adds a reboot in place.
    pub fn push_reboot(&mut self, reboot: Reboot) {
        self.reboots.push(reboot);
    }

    /// Adds a clock-desync event to the plan.
    pub fn with_desync(mut self, desync: ClockDesync) -> FaultPlan {
        self.desyncs.push(desync);
        self
    }

    /// Adds a clock-desync event in place.
    pub fn push_desync(&mut self, desync: ClockDesync) {
        self.desyncs.push(desync);
    }

    /// Whether `node` is alive at `asn` (neither in an outage nor mid-reboot).
    pub fn is_alive(&self, node: NodeId, asn: Asn) -> bool {
        !self.outages.iter().any(|o| o.node == node && o.covers(asn))
            && !self.reboots.iter().any(|r| r.node == node && r.covers(asn))
    }

    /// Whether `node` is alive at *every* slot of `[from, to]` — i.e. no
    /// outage or reboot window overlaps the range. Used by the runtime
    /// auditor to tell whether a node's housekeeping has actually had a
    /// chance to run recently (a powered-off node executes nothing).
    pub fn alive_throughout(&self, node: NodeId, from: Asn, to: Asn) -> bool {
        let overlaps =
            |start: Asn, until: Option<Asn>| start <= to && until.is_none_or(|u| u > from);
        !self.outages.iter().any(|o| o.node == node && overlaps(o.from, o.until))
            && !self.reboots.iter().any(|r| r.node == node && overlaps(r.from, Some(r.until)))
    }

    /// Whether a reboot of `node` completes exactly at `asn` (its first
    /// scheduled slot back up). The engine cold-resets the stack at this
    /// instant, provided no other fault still keeps the node down (it
    /// additionally checks [`FaultPlan::is_alive`]).
    pub fn reboot_completing_at(&self, node: NodeId, asn: Asn) -> bool {
        self.reboots.iter().any(|r| r.node == node && r.until == asn)
    }

    /// Whether `node` loses TSCH time synchronization exactly at `asn`.
    pub fn desync_at(&self, node: NodeId, asn: Asn) -> bool {
        self.desyncs.iter().any(|d| d.node == node && d.at == asn)
    }

    /// Whether the plan contains any reboots.
    pub fn has_reboots(&self) -> bool {
        !self.reboots.is_empty()
    }

    /// Whether the plan contains any desync events.
    pub fn has_desyncs(&self) -> bool {
        !self.desyncs.is_empty()
    }

    /// Whether the radio path between `a` and `b` is usable at `asn`.
    pub fn is_link_up(&self, a: NodeId, b: NodeId, asn: Asn) -> bool {
        !self.link_outages.iter().any(|o| o.covers(a, b, asn))
    }

    /// Whether the plan contains any link outages (fast path for the
    /// engine's per-candidate check).
    pub fn has_link_outages(&self) -> bool {
        !self.link_outages.is_empty()
    }

    /// All outages in the plan.
    pub fn outages(&self) -> &[Outage] {
        &self.outages
    }

    /// All link outages in the plan.
    pub fn link_outages(&self) -> &[LinkOutage] {
        &self.link_outages
    }

    /// All reboots in the plan.
    pub fn reboots(&self) -> &[Reboot] {
        &self.reboots
    }

    /// All clock-desync events in the plan.
    pub fn desyncs(&self) -> &[ClockDesync] {
        &self.desyncs
    }

    /// Fault boundaries crossing exactly `asn`, for the flight recorder:
    /// each entry is `(node, kind, peer, injected)` where `injected` is
    /// `true` at fault onset and `false` at clearance. Link outages report
    /// one entry per endpoint with the other endpoint as `peer`. Desyncs
    /// are not reported here — the engine records them at the stack
    /// callback. Permanent faults never produce a clearance entry. Every
    /// slot that yields an entry is one of [`FaultPlan::edges`].
    pub fn transitions_at(
        &self,
        asn: Asn,
    ) -> impl Iterator<Item = (NodeId, digs_trace::FaultKind, Option<NodeId>, bool)> + '_ {
        use digs_trace::FaultKind;
        let outages = self.outages.iter().flat_map(move |o| {
            [
                (o.from == asn).then_some((o.node, FaultKind::Outage, None, true)),
                (o.until == Some(asn)).then_some((o.node, FaultKind::Outage, None, false)),
            ]
        });
        let reboots = self.reboots.iter().flat_map(move |r| {
            [
                (r.from == asn).then_some((r.node, FaultKind::Reboot, None, true)),
                (r.until == asn).then_some((r.node, FaultKind::Reboot, None, false)),
            ]
        });
        let links = self.link_outages.iter().flat_map(move |l| {
            let ends = |injected| {
                [(l.a, l.b), (l.b, l.a)]
                    .map(|(node, peer)| Some((node, FaultKind::LinkOutage, Some(peer), injected)))
            };
            let onset = if l.from == asn { ends(true) } else { [None; 2] };
            let clearance = if l.until == Some(asn) { ends(false) } else { [None; 2] };
            onset.into_iter().chain(clearance)
        });
        outages.chain(reboots).chain(links).flatten()
    }

    /// Every slot at which the plan changes something: the `from` and
    /// `until` of each outage, reboot and link outage and the `at` of each
    /// desync, ascending and without repeats. Between two consecutive edges
    /// no node's liveness and no link's state moves, so the engine consults
    /// the plan per node only at these slots.
    pub fn edges(&self) -> impl Iterator<Item = Asn> {
        let mut edges: Vec<Asn> = (self.outages.iter().flat_map(|o| [Some(o.from), o.until]))
            .chain(self.reboots.iter().flat_map(|r| [Some(r.from), Some(r.until)]))
            .chain(self.link_outages.iter().flat_map(|l| [Some(l.from), l.until]))
            .chain(self.desyncs.iter().map(|d| Some(d.at)))
            .flatten()
            .collect();
        edges.sort_unstable();
        edges.dedup();
        edges.into_iter()
    }

    /// The paper's Fig. 11 scenario: turn off the given nodes *in turn*,
    /// each for `each_secs` seconds, starting at `start`, one after another.
    pub fn in_turn(nodes: &[NodeId], start: Asn, each_secs: u64) -> FaultPlan {
        let mut plan = FaultPlan::none();
        let each = Asn::from_secs(each_secs).0;
        for (i, node) in nodes.iter().enumerate() {
            let from = Asn(start.0 + i as u64 * each);
            plan.push(Outage::transient(*node, from, Asn(from.0 + each)));
        }
        plan
    }
}

/// Event rates and severity for randomized chaos generation.
///
/// Rates are expected events per minute of chaos window; each stream is an
/// independent Poisson-like process realized deterministically from the run
/// seed. `intensity` scales every event's *duration* (outage length, reboot
/// downtime, link-flap length, jammer-burst length) without changing how
/// often events fire.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// First slot of the chaos window.
    pub start: Asn,
    /// Length of the chaos window in seconds; events start inside it (their
    /// effects may outlast it).
    pub duration_secs: u64,
    /// Transient node outages (warm state survives) per minute.
    pub churn_per_min: f64,
    /// Cold reboots per minute.
    pub reboot_per_min: f64,
    /// Link flaps (transient link outages) per minute.
    pub link_flap_per_min: f64,
    /// Clock-desync events per minute.
    pub desync_per_min: f64,
    /// Jammer bursts (a disturber switching on near a random node) per
    /// minute.
    pub jammer_burst_per_min: f64,
    /// Duration multiplier applied to every event (1.0 = nominal).
    pub intensity: f64,
}

impl ChaosConfig {
    /// A moderate default: roughly one fault of some kind every ~20 s of
    /// chaos at nominal intensity.
    pub fn moderate(start: Asn, duration_secs: u64) -> ChaosConfig {
        ChaosConfig {
            start,
            duration_secs,
            churn_per_min: 1.0,
            reboot_per_min: 0.5,
            link_flap_per_min: 1.0,
            desync_per_min: 0.5,
            jammer_burst_per_min: 0.5,
            intensity: 1.0,
        }
    }

    /// The most events [`ChaosPlan::generate`] schedules under this config:
    /// `ceil(rate × minutes)` of each kind.
    pub fn max_events(&self) -> u64 {
        let minutes = self.duration_secs as f64 / 60.0;
        [
            self.churn_per_min,
            self.reboot_per_min,
            self.link_flap_per_min,
            self.desync_per_min,
            self.jammer_burst_per_min,
        ]
        .iter()
        .map(|rate| (rate * minutes).ceil() as u64)
        .fold(0, u64::saturating_add)
    }

    /// A harsher profile: double the moderate rates at 1.5× intensity.
    pub fn harsh(start: Asn, duration_secs: u64) -> ChaosConfig {
        ChaosConfig {
            churn_per_min: 2.0,
            reboot_per_min: 1.0,
            link_flap_per_min: 2.0,
            desync_per_min: 1.0,
            jammer_burst_per_min: 1.0,
            intensity: 1.5,
            ..ChaosConfig::moderate(start, duration_secs)
        }
    }
}

/// What kind of chaos event was injected (for the convergence watchdog).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosEventKind {
    /// Transient node outage; RAM state survives.
    Churn,
    /// Cold reboot; the node rejoins from scratch.
    Reboot,
    /// Transient bidirectional link outage.
    LinkFlap,
    /// Loss of TSCH time synchronization.
    Desync,
    /// A disturber jammer switching on near a node.
    JammerBurst,
}

/// One injected chaos event, in the order faults hit the network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosEvent {
    /// Event kind.
    pub kind: ChaosEventKind,
    /// Affected node (link flaps name one endpoint here, the other in
    /// `peer`; jammer bursts name the node the jammer is placed next to).
    pub node: NodeId,
    /// Second endpoint for link flaps.
    pub peer: Option<NodeId>,
    /// Slot at which the fault hits.
    pub from: Asn,
    /// Slot at which the fault clears (`None` for instantaneous desyncs).
    pub until: Option<Asn>,
}

/// A generated chaos schedule: the [`FaultPlan`] to install into the engine,
/// the extra jammers to add, and the ordered event list for the watchdog.
///
/// Generation is a pure function of `(config, topology, seed)` — the same
/// inputs always produce the same plan, so chaos soaks are reproducible.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosPlan {
    faults: FaultPlan,
    jammers: Vec<Jammer>,
    events: Vec<ChaosEvent>,
}

/// Nominal duration bounds in seconds per event kind (scaled by intensity).
const CHURN_SECS: (f64, f64) = (10.0, 40.0);
const REBOOT_SECS: (f64, f64) = (5.0, 15.0);
const LINK_FLAP_SECS: (f64, f64) = (5.0, 30.0);
const JAMMER_SECS: (f64, f64) = (10.0, 60.0);

/// Hash-stream salts, one per event kind.
const STREAM_CHURN: u64 = 1;
const STREAM_REBOOT: u64 = 2;
const STREAM_LINK: u64 = 3;
const STREAM_DESYNC: u64 = 4;
const STREAM_JAMMER: u64 = 5;

impl ChaosPlan {
    /// Generates a chaos schedule for `topology` under `seed`.
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
    /// (nothing to flap), or `config.duration_secs` is zero.
    pub fn generate(config: &ChaosConfig, topology: &Topology, seed: u64) -> ChaosPlan {
        assert!(config.duration_secs > 0, "chaos window must be non-empty");
        assert!(topology.len() >= 2, "chaos needs at least two nodes");
        let field: Vec<NodeId> =
            topology.node_ids().filter(|id| !topology.is_access_point(*id)).collect();
        assert!(!field.is_empty(), "chaos needs at least one field device");
        let all: Vec<NodeId> = topology.node_ids().collect();

        let window = Asn::from_secs(config.duration_secs).0;
        let minutes = config.duration_secs as f64 / 60.0;
        let chaos_seed = rng::mix(seed, 0x000c_4a05, 0, 0);
        let count = |stream: u64, rate: f64| -> u64 {
            let expected = rate * minutes;
            let whole = expected.floor() as u64;
            let frac = expected - expected.floor();
            whole + u64::from(rng::uniform01(chaos_seed, stream, u64::MAX, 0) < frac)
        };
        let at = |stream: u64, i: u64| -> Asn {
            let offset = (rng::uniform01(chaos_seed, stream, i, 1) * window as f64) as u64;
            Asn(config.start.0 + offset.min(window - 1))
        };
        let pick = |nodes: &[NodeId], stream: u64, i: u64, field_id: u64| -> NodeId {
            nodes[(rng::mix(chaos_seed, stream, i, field_id) % nodes.len() as u64) as usize]
        };
        let span = |bounds: (f64, f64), stream: u64, i: u64| -> u64 {
            let u = rng::uniform01(chaos_seed, stream, i, 2);
            let secs = (bounds.0 + u * (bounds.1 - bounds.0)) * config.intensity;
            Asn::from_secs(secs.max(1.0).round() as u64).0
        };

        let mut plan = FaultPlan::none();
        let mut jammers = Vec::new();
        let mut events = Vec::new();

        for i in 0..count(STREAM_CHURN, config.churn_per_min) {
            let node = pick(&field, STREAM_CHURN, i, 3);
            let from = at(STREAM_CHURN, i);
            let until = Asn(from.0 + span(CHURN_SECS, STREAM_CHURN, i));
            plan.push(Outage::transient(node, from, until));
            events.push(ChaosEvent {
                kind: ChaosEventKind::Churn,
                node,
                peer: None,
                from,
                until: Some(until),
            });
        }
        for i in 0..count(STREAM_REBOOT, config.reboot_per_min) {
            let node = pick(&field, STREAM_REBOOT, i, 3);
            let from = at(STREAM_REBOOT, i);
            let until = Asn(from.0 + span(REBOOT_SECS, STREAM_REBOOT, i));
            plan.push_reboot(Reboot::new(node, from, until));
            events.push(ChaosEvent {
                kind: ChaosEventKind::Reboot,
                node,
                peer: None,
                from,
                until: Some(until),
            });
        }
        for i in 0..count(STREAM_LINK, config.link_flap_per_min) {
            let a = pick(&all, STREAM_LINK, i, 3);
            // Pick the peer from the remaining nodes so a != b.
            let b = {
                let idx =
                    (rng::mix(chaos_seed, STREAM_LINK, i, 4) % (all.len() as u64 - 1)) as usize;
                let candidate = all[idx];
                if candidate == a {
                    all[all.len() - 1]
                } else {
                    candidate
                }
            };
            let from = at(STREAM_LINK, i);
            let until = Asn(from.0 + span(LINK_FLAP_SECS, STREAM_LINK, i));
            plan.push_link(LinkOutage::transient(a, b, from, until));
            events.push(ChaosEvent {
                kind: ChaosEventKind::LinkFlap,
                node: a,
                peer: Some(b),
                from,
                until: Some(until),
            });
        }
        for i in 0..count(STREAM_DESYNC, config.desync_per_min) {
            let node = pick(&field, STREAM_DESYNC, i, 3);
            let from = at(STREAM_DESYNC, i);
            plan.push_desync(ClockDesync::new(node, from));
            events.push(ChaosEvent {
                kind: ChaosEventKind::Desync,
                node,
                peer: None,
                from,
                until: None,
            });
        }
        for i in 0..count(STREAM_JAMMER, config.jammer_burst_per_min) {
            let node = pick(&all, STREAM_JAMMER, i, 3);
            let from = at(STREAM_JAMMER, i);
            let until = Asn(from.0 + span(JAMMER_SECS, STREAM_JAMMER, i));
            let near = topology.position(node);
            jammers.push(Jammer {
                position: Position::with_height(near.x + 2.0, near.y + 2.0, near.z),
                tx_power: Dbm(0.0),
                kind: JammerKind::Disturber,
                start: from,
                stop: Some(until),
                toggle_half_period: None,
                salt: rng::mix(chaos_seed, STREAM_JAMMER, i, 5),
            });
            events.push(ChaosEvent {
                kind: ChaosEventKind::JammerBurst,
                node,
                peer: None,
                from,
                until: Some(until),
            });
        }

        events.sort_by_key(|e| (e.from, e.kind as u8, e.node));
        ChaosPlan { faults: plan, jammers, events }
    }

    /// The fault schedule to install into the engine.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Extra jammers to add to the engine.
    pub fn jammers(&self) -> &[Jammer] {
        &self.jammers
    }

    /// All injected events, ordered by onset time.
    pub fn events(&self) -> &[ChaosEvent] {
        &self.events
    }

    /// Consumes the plan into its parts `(faults, jammers, events)`.
    pub fn into_parts(self) -> (FaultPlan, Vec<Jammer>, Vec<ChaosEvent>) {
        (self.faults, self.jammers, self.events)
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
    fn permanent_outage() {
        let p = FaultPlan::none().with(Outage::permanent(NodeId(2), Asn(100)));
        assert!(p.is_alive(NodeId(2), Asn(99)));
        assert!(!p.is_alive(NodeId(2), Asn(100)));
        assert!(!p.is_alive(NodeId(2), Asn(1_000_000)));
        assert!(p.is_alive(NodeId(3), Asn(100)));
    }

    #[test]
    fn transient_outage_ends() {
        let p = FaultPlan::none().with(Outage::transient(NodeId(1), Asn(10), Asn(20)));
        assert!(p.is_alive(NodeId(1), Asn(9)));
        assert!(!p.is_alive(NodeId(1), Asn(10)));
        assert!(!p.is_alive(NodeId(1), Asn(19)));
        assert!(p.is_alive(NodeId(1), Asn(20)));
    }

    #[test]
    #[should_panic(expected = "must end after it starts")]
    fn inverted_outage_panics() {
        let _ = Outage::transient(NodeId(0), Asn(20), Asn(10));
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
        let p = FaultPlan::none()
            .with(Outage::transient(NodeId(1), Asn(0), Asn(10)))
            .with(Outage::transient(NodeId(1), Asn(5), Asn(15)));
        assert!(!p.is_alive(NodeId(1), Asn(12)));
        assert!(p.is_alive(NodeId(1), Asn(15)));
    }
}

#[cfg(test)]
mod link_tests {
    use super::*;

    #[test]
    fn link_outage_symmetric_window() {
        let p = FaultPlan::none().with_link(LinkOutage::transient(
            NodeId(1),
            NodeId(2),
            Asn(10),
            Asn(20),
        ));
        assert!(p.is_link_up(NodeId(1), NodeId(2), Asn(9)));
        assert!(!p.is_link_up(NodeId(1), NodeId(2), Asn(10)));
        assert!(!p.is_link_up(NodeId(2), NodeId(1), Asn(15)), "both directions break");
        assert!(p.is_link_up(NodeId(1), NodeId(2), Asn(20)));
        // Unrelated pairs are untouched.
        assert!(p.is_link_up(NodeId(1), NodeId(3), Asn(15)));
        assert!(p.has_link_outages());
    }

    #[test]
    fn permanent_link_break_never_recovers() {
        let p = FaultPlan::none().with_link(LinkOutage::permanent(NodeId(4), NodeId(5), Asn(0)));
        assert!(!p.is_link_up(NodeId(5), NodeId(4), Asn(1_000_000)));
    }

    #[test]
    #[should_panic(expected = "two distinct endpoints")]
    fn self_link_outage_panics() {
        let _ = LinkOutage::permanent(NodeId(3), NodeId(3), Asn(0));
    }

    #[test]
    fn empty_plan_has_no_link_outages() {
        assert!(!FaultPlan::none().has_link_outages());
        assert!(FaultPlan::none().is_link_up(NodeId(0), NodeId(1), Asn(5)));
    }
}

#[cfg(test)]
mod reboot_tests {
    use super::*;

    #[test]
    fn reboot_window_kills_node() {
        let p = FaultPlan::none().with_reboot(Reboot::new(NodeId(7), Asn(100), Asn(200)));
        assert!(p.is_alive(NodeId(7), Asn(99)));
        assert!(!p.is_alive(NodeId(7), Asn(100)));
        assert!(!p.is_alive(NodeId(7), Asn(199)));
        assert!(p.is_alive(NodeId(7), Asn(200)));
        assert!(p.has_reboots());
    }

    #[test]
    fn reboot_completion_fires_once_at_until() {
        let p = FaultPlan::none().with_reboot(Reboot::new(NodeId(7), Asn(100), Asn(200)));
        assert!(!p.reboot_completing_at(NodeId(7), Asn(199)));
        assert!(p.reboot_completing_at(NodeId(7), Asn(200)));
        assert!(!p.reboot_completing_at(NodeId(7), Asn(201)));
        assert!(!p.reboot_completing_at(NodeId(8), Asn(200)));
    }

    #[test]
    #[should_panic(expected = "must end after it starts")]
    fn inverted_reboot_panics() {
        let _ = Reboot::new(NodeId(0), Asn(20), Asn(20));
    }

    #[test]
    fn edges_are_every_boundary_once_in_order() {
        let plan = FaultPlan::none()
            .with(Outage::transient(NodeId(1), Asn(30), Asn(50)))
            .with(Outage::permanent(NodeId(2), Asn(10)))
            .with_reboot(Reboot::new(NodeId(3), Asn(10), Asn(30)))
            .with_link(LinkOutage::transient(NodeId(1), NodeId(2), Asn(5), Asn(70)))
            .with_link(LinkOutage::permanent(NodeId(3), NodeId(4), Asn(60)))
            .with_desync(ClockDesync::new(NodeId(4), Asn(40)));
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
        let plan = FaultPlan::none()
            .with_link(LinkOutage::transient(NodeId(1), NodeId(2), Asn(5), Asn(9)))
            .with_reboot(Reboot::new(NodeId(3), Asn(5), Asn(9)))
            .with(Outage::transient(NodeId(4), Asn(2), Asn(5)))
            .with(Outage::transient(NodeId(4), Asn(5), Asn(9)));
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
        let p = FaultPlan::none().with_desync(ClockDesync::new(NodeId(3), Asn(500)));
        assert!(p.is_alive(NodeId(3), Asn(500)), "desync does not kill the node");
        assert!(p.desync_at(NodeId(3), Asn(500)));
        assert!(!p.desync_at(NodeId(3), Asn(501)));
        assert!(!p.desync_at(NodeId(4), Asn(500)));
        assert!(p.has_desyncs());
        assert!(!p.has_reboots());
    }
}

#[cfg(test)]
mod chaos_tests {
    use super::*;
    use crate::topology::Topology;

    fn config() -> ChaosConfig {
        ChaosConfig::moderate(Asn::from_secs(60), 600)
    }

    #[test]
    fn generation_is_deterministic_under_seed() {
        let topo = Topology::testbed_a();
        let a = ChaosPlan::generate(&config(), &topo, 42);
        let b = ChaosPlan::generate(&config(), &topo, 42);
        assert_eq!(a, b);
        let c = ChaosPlan::generate(&config(), &topo, 43);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn moderate_profile_emits_every_stream() {
        let topo = Topology::testbed_a();
        let plan = ChaosPlan::generate(&config(), &topo, 7);
        // 10 chaos minutes at the moderate rates: expect ~10 churns,
        // ~5 reboots, ~10 flaps, ~5 desyncs, ~5 jammer bursts.
        assert!(!plan.faults().outages().is_empty());
        assert!(!plan.faults().reboots().is_empty());
        assert!(!plan.faults().link_outages().is_empty());
        assert!(!plan.faults().desyncs().is_empty());
        assert!(!plan.jammers().is_empty());
        let total = plan.faults().outages().len()
            + plan.faults().reboots().len()
            + plan.faults().link_outages().len()
            + plan.faults().desyncs().len()
            + plan.jammers().len();
        assert_eq!(plan.events().len(), total, "one event per injected fault");
    }

    #[test]
    fn events_start_inside_window_and_are_ordered() {
        let topo = Topology::testbed_a();
        let cfg = config();
        let plan = ChaosPlan::generate(&cfg, &topo, 99);
        let window_end = Asn(cfg.start.0 + Asn::from_secs(cfg.duration_secs).0);
        for event in plan.events() {
            assert!(event.from >= cfg.start, "event before window: {event:?}");
            assert!(event.from < window_end, "event after window: {event:?}");
            if let Some(until) = event.until {
                assert!(until > event.from);
            }
        }
        for pair in plan.events().windows(2) {
            assert!(pair[0].from <= pair[1].from, "events must be onset-ordered");
        }
    }

    #[test]
    fn access_points_are_never_churned_rebooted_or_desynced() {
        let topo = Topology::testbed_a();
        for seed in 0..20 {
            let plan = ChaosPlan::generate(&config(), &topo, seed);
            for outage in plan.faults().outages() {
                assert!(!topo.is_access_point(outage.node));
            }
            for reboot in plan.faults().reboots() {
                assert!(!topo.is_access_point(reboot.node));
            }
            for desync in plan.faults().desyncs() {
                assert!(!topo.is_access_point(desync.node));
            }
        }
    }

    #[test]
    fn link_flaps_have_distinct_endpoints() {
        let topo = Topology::testbed_a();
        for seed in 0..50 {
            let plan = ChaosPlan::generate(&config(), &topo, seed);
            for flap in plan.faults().link_outages() {
                assert_ne!(flap.a, flap.b);
            }
        }
    }

    #[test]
    fn intensity_stretches_event_durations() {
        let topo = Topology::testbed_a();
        let mild = ChaosPlan::generate(&ChaosConfig { intensity: 0.5, ..config() }, &topo, 5);
        let harsh = ChaosPlan::generate(&ChaosConfig { intensity: 2.0, ..config() }, &topo, 5);
        let mean_len = |plan: &ChaosPlan| {
            let lens: Vec<u64> = plan
                .faults()
                .outages()
                .iter()
                .map(|o| o.until.expect("chaos churn is transient").0 - o.from.0)
                .collect();
            lens.iter().sum::<u64>() as f64 / lens.len() as f64
        };
        assert!(mean_len(&harsh) > mean_len(&mild), "harsher intensity should mean longer outages");
    }
}
