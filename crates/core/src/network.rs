//! Builds and runs a complete simulated network.

use crate::audit::{
    AuditSnapshot, CellClaim, InvariantKind, InvariantViolation, NodeAudit, ParentView,
};
use crate::config::{NetworkConfig, Protocol, ATTEMPTS, MAX_CYCLES, QUEUE_CAPACITY};
use crate::results::{FlowResult, NodeResult, RunResults};
use crate::stack::{DigsProvision, DigsStack, OrchestraProvision, OrchestraStack, ProtocolStack};
use crate::telemetry::{TelemetrySampler, TelemetrySettings};
use digs_routing::graph::{GraphEntry, RoutingGraph};
use digs_sim::engine::Engine;
use digs_sim::ids::NodeId;
use digs_sim::time::{Asn, SLOTS_PER_SECOND};
use digs_trace::{Event, EventKind, TraceHandle};
use std::collections::BTreeMap;

/// Observation hook threaded through [`Network::run`]: a streaming sink
/// for flight-recorder events, telemetry epochs, and health alerts, with
/// a cooperative cancellation channel.
///
/// Observation is strictly read-only with respect to the simulation — the
/// engine's slot loop, random streams, and protocol state are identical
/// with or without an observer installed, so a streamed run is
/// byte-identical to a file-exported run of the same seed. Callbacks run
/// on the simulation thread: a slow observer slows the wall clock but can
/// never reorder or drop simulation work. Implementations that fan out to
/// subscribers must therefore never block (bounded queues, counted
/// drops).
pub trait RunObserver: Send {
    /// New flight-recorder events since the previous flush, in emission
    /// (`seq`) order. Only called when tracing is enabled and at least one
    /// new event was recorded.
    fn on_events(&mut self, events: &[Event]) {
        let _ = events;
    }

    /// A telemetry epoch was sampled, together with the health alerts it
    /// raised (often empty). Only called when telemetry is enabled.
    fn on_epoch(&mut self, snapshot: &crate::telemetry::EpochSnapshot, alerts: &[HealthAlert]) {
        let _ = (snapshot, alerts);
    }

    /// Progress heartbeat: once per stop of the run (see [`Network::run`]
    /// for the stop list; the end of each call is a stop, so how often it
    /// fires — unlike everything else here — depends on how the caller cut
    /// the run). Return `false` to stop cooperatively: the current
    /// [`Network::run`] or [`Network::run_audited`] returns with the
    /// simulation in a consistent state at that stop, and later calls do
    /// nothing until a new observer is installed.
    fn on_progress(&mut self, asn: u64) -> bool {
        let _ = asn;
        true
    }

    /// A [`Network::resume_to`] replay reached its target cursor: from
    /// here on the run is live, not a reconstruction of past work. The
    /// replay itself flows through the ordinary callbacks (byte-identical
    /// streams *require* replaying every frame); this hook only marks the
    /// transition, e.g. for logging or to journal the catch-up point.
    fn on_resume_complete(&mut self, asn: u64) {
        let _ = asn;
    }
}

use crate::telemetry::HealthAlert;

/// Wrapper keeping `#[derive(Debug)]` on [`Network`] while holding a
/// non-`Debug` trait object.
#[derive(Default)]
struct ObserverSlot(Option<Box<dyn RunObserver>>);

impl std::fmt::Debug for ObserverSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.is_some() { "RunObserver(installed)" } else { "RunObserver(none)" })
    }
}

/// A fully wired network: engine + one protocol stack per node.
#[derive(Debug)]
pub struct Network {
    config: NetworkConfig,
    engine: Engine,
    stacks: Vec<ProtocolStack>,
    /// Violations collected by [`Network::run_audited`].
    violations: Vec<InvariantViolation>,
    /// The cycle signature (cycle members with their parent edges) seen at
    /// the previous audit, for the frozen-loop debounce. Empty when the
    /// last audit saw no loop.
    loop_signature: Vec<(NodeId, Option<NodeId>, Option<NodeId>)>,
    /// Consecutive audits (in `run_audited`) that observed the *same*
    /// cycle signature.
    loop_streak: u64,
    /// The flight-recorder event window captured around the first invariant
    /// violation `run_audited` recorded (empty until then, or when tracing
    /// is off).
    violation_window: Vec<Event>,
    /// Epoch telemetry sampler + health monitor. `None` when telemetry is
    /// disabled — the disabled path allocates nothing and [`Network::run`]
    /// is the plain engine loop.
    telemetry: Option<Box<TelemetrySampler>>,
    /// The derived schedule-randomization nonce every DiGS stack was
    /// provisioned with (`None` = defense off; see
    /// [`NetworkConfig::resolve_randomize`]).
    randomize_nonce: Option<u64>,
    /// Streaming observation hook (`None` = plain run, zero overhead).
    observer: ObserverSlot,
    /// Trace-seq cursor: events below this have been flushed to the
    /// observer.
    observer_cursor: u64,
    /// Set when the observer's `on_progress` asked the run to stop.
    observer_stopped: bool,
    /// Drives the stacks through [`crate::stack::AskEverySlot`]: the
    /// reference the wake-driven path is differentially tested against.
    #[cfg(test)]
    ask_every_slot: bool,
    /// When `Some`, how many times the engine has called `slot_intent`
    /// since it was set (counted through [`crate::stack::CountAsks`]).
    #[cfg(test)]
    asks: Option<u64>,
}

impl Network {
    /// Builds the network from a configuration.
    pub fn new(config: NetworkConfig) -> Network {
        let mut engine = Engine::new(config.topology.clone(), config.rf.clone(), config.seed);
        for jammer in &config.jammers {
            engine.add_jammer(jammer.clone());
        }
        engine.set_fault_plan(config.faults.clone());
        let trace = TraceHandle::bounded(config.trace_cap.unwrap_or(0));
        engine.set_trace(trace.clone());

        // The centralized baseline needs the manager's schedule computed
        // up front from the link-state oracle (which is what the manager's
        // collection phase would have gathered).
        let central_schedule = if config.protocol == Protocol::WirelessHart {
            let db = digs_whart::LinkDb::from_link_model(engine.link_model());
            let graph = digs_whart::build_uplink_graph(&db, &config.topology.access_points());
            let sources: Vec<_> = config.flows.iter().map(|f| f.source).collect();
            let superframe =
                config.flows.iter().map(|f| f.period).max().unwrap_or(500).min(u64::from(u32::MAX))
                    as u32;
            Some(
                digs_whart::CentralSchedule::build(&graph, &sources, superframe)
                    .expect("the manager must be able to schedule the flows"),
            )
        } else {
            None
        };

        // Mix the shared randomization secret with the run seed so two
        // seeds never share a permutation sequence (an attacker replaying
        // one run's observations against another learns nothing), while
        // every node within the run derives the identical nonce.
        let randomize_nonce = config
            .resolve_randomize()
            .map(|secret| digs_sim::rng::mix(config.seed, secret, 0x0510_75a9, 0));

        // Every DiGS node draws the same permutation each epoch: the first
        // to ask builds it for the network.
        let perms = std::sync::Arc::new(digs_scheduling::EpochPerms::default());
        let num_aps = config.topology.num_access_points() as u16;
        let mut stacks: Vec<ProtocolStack> = config
            .topology
            .node_ids()
            .map(|id| {
                let is_ap = config.topology.is_access_point(id);
                let my_flows: Vec<_> =
                    config.flows.iter().copied().filter(|f| f.source == id).collect();
                let seed = config.seed ^ (u64::from(id.0) << 32);
                match config.protocol {
                    Protocol::Digs => ProtocolStack::Digs(DigsStack::new(
                        id,
                        is_ap,
                        my_flows,
                        DigsProvision {
                            num_aps,
                            slotframes: config.slotframes,
                            attempts: ATTEMPTS,
                            routing_config: config.routing,
                            queue_capacity: QUEUE_CAPACITY,
                            max_cycles: MAX_CYCLES,
                            seed,
                            randomize: randomize_nonce,
                            perms: std::sync::Arc::clone(&perms),
                        },
                    )),
                    Protocol::Orchestra => ProtocolStack::Orchestra(OrchestraStack::new(
                        id,
                        is_ap,
                        my_flows,
                        OrchestraProvision {
                            slotframes: config.slotframes,
                            routing_config: config.routing,
                            queue_capacity: QUEUE_CAPACITY,
                            seed,
                        },
                    )),
                    Protocol::WirelessHart => {
                        ProtocolStack::WirelessHart(crate::stack::WhartStack::new(
                            id,
                            is_ap,
                            central_schedule.as_ref().expect("computed above"),
                            my_flows,
                            QUEUE_CAPACITY,
                        ))
                    }
                }
            })
            .collect();
        if trace.is_on() {
            for stack in &mut stacks {
                stack.set_trace(trace.clone());
            }
        }
        let telemetry = TelemetrySettings::resolve(&config)
            .map(|settings| Box::new(TelemetrySampler::new(settings, config.topology.len())));
        Network {
            config,
            engine,
            stacks,
            violations: Vec::new(),
            loop_signature: Vec::new(),
            loop_streak: 0,
            violation_window: Vec::new(),
            telemetry,
            randomize_nonce,
            observer: ObserverSlot(None),
            observer_cursor: 0,
            observer_stopped: false,
            #[cfg(test)]
            ask_every_slot: false,
            #[cfg(test)]
            asks: None,
        }
    }

    /// Installs a streaming [`RunObserver`]. Subsequent [`Network::run`]
    /// calls flush new trace events and telemetry epochs to it at every
    /// stop, at least every [`Network::OBSERVER_FLUSH_SLOTS`].
    pub fn set_observer(&mut self, observer: Box<dyn RunObserver>) {
        self.observer = ObserverSlot(Some(observer));
        self.observer_stopped = false;
    }

    /// Whether the observer's `on_progress` stopped the run early.
    pub fn observer_stopped(&self) -> bool {
        self.observer_stopped
    }

    /// The derived schedule-randomization nonce, if the defense is active.
    pub fn randomize_nonce(&self) -> Option<u64> {
        self.randomize_nonce
    }

    /// The configuration the network was built from.
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// The underlying engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Current slot.
    pub fn asn(&self) -> Asn {
        self.engine.asn()
    }

    /// The per-node stacks.
    pub fn stacks(&self) -> &[ProtocolStack] {
        &self.stacks
    }

    /// The flight recorder shared by the engine and every stack (off by
    /// default; see [`crate::config::NetworkConfig::trace_cap`]).
    pub fn trace(&self) -> &TraceHandle {
        self.engine.trace()
    }

    /// Slots between observer flushes (10 s of simulated time). Small
    /// enough that per-node trace rings at practical capacities do not
    /// wrap between flushes.
    pub const OBSERVER_FLUSH_SLOTS: u64 = 1_000;

    /// Runs for `slots` slots.
    ///
    /// The run pauses at *stops*: every multiple, on the global slot
    /// clock, of each period the configuration switched on — the
    /// telemetry epoch (sampler on), [`Network::OBSERVER_FLUSH_SLOTS`]
    /// (observer installed), the audit cadence ([`Network::run_audited`]
    /// only) and the application slotframe (schedule randomization *and*
    /// tracing on) — plus the end of the call. Whatever is due at a stop
    /// happens in one fixed order (epoch sample, audit, defense-epoch
    /// mark, one observer flush) and carries the stop's ASN, so which
    /// events and epochs exist, and in what order, depends on the
    /// configuration and the slots covered, never on how the caller cut
    /// the run into calls. All of it only observes: the engine is
    /// insensitive to how its slot loop is chunked, so outcomes equal
    /// those of a run with everything off — which has no stops and is a
    /// single engine call.
    pub fn run(&mut self, slots: u64) {
        self.drive(slots, None);
    }

    /// Crash-recovery entry point: deterministically replays the run up
    /// to the journaled `cursor` (an absolute ASN), then notifies the
    /// observer via [`RunObserver::on_resume_complete`]. Determinism per
    /// seed means the replay regenerates the *identical* event and
    /// telemetry stream the lost process produced — the observer (and
    /// per-subscriber sequence cursors above it) decide what of it is
    /// silently skipped. The replay is a plain [`Network::run`], so
    /// `resume_to(c)` + `run(total - c)` is byte-identical to an
    /// uninterrupted `run(total)` for every configuration
    /// (`any_cut_of_a_run_is_the_same_run` in `network/chunking.rs` holds
    /// it). A cursor at or behind the current ASN only fires the hook.
    pub fn resume_to(&mut self, cursor: u64) {
        let now = self.engine.asn().0;
        if cursor > now {
            self.run(cursor - now);
        }
        if let Some(obs) = &mut self.observer.0 {
            obs.on_resume_complete(self.engine.asn().0);
        }
    }

    /// Advances the engine by `slots` slots.
    fn advance(&mut self, slots: u64) {
        #[cfg(test)]
        if self.ask_every_slot {
            let mut asked: Vec<_> =
                self.stacks.iter_mut().map(crate::stack::AskEverySlot).collect();
            return self.engine.run(&mut asked, slots);
        }
        #[cfg(test)]
        if let Some(asks) = &mut self.asks {
            let counter = std::cell::Cell::new(*asks);
            let mut counted: Vec<_> =
                self.stacks.iter_mut().map(|s| crate::stack::CountAsks(s, &counter)).collect();
            self.engine.run(&mut counted, slots);
            *asks = counter.get();
            return;
        }
        self.engine.run(&mut self.stacks, slots);
    }

    /// The one driver loop under [`Network::run`], [`Network::run_audited`]
    /// and [`Network::resume_to`]: advance to the next stop, do what is due
    /// there, flush once. A new periodic concern is one more period here
    /// and one more arm below.
    fn drive(&mut self, slots: u64, audit: Option<u64>) {
        let epoch = self.telemetry.as_ref().map(|s| s.settings().epoch_slots);
        let flush = self.observer.0.is_some().then_some(Self::OBSERVER_FLUSH_SLOTS);
        // The schedule is *born* randomized; events mark the re-draws, so
        // ASN 0 is not one (a stop is always past the current slot).
        let defense = (self.randomize_nonce.is_some() && self.engine.trace().is_on())
            .then(|| u64::from(self.config.slotframes.app));
        let end = self.engine.asn().0 + slots;
        while self.engine.asn().0 < end && !self.observer_stopped {
            let now = self.engine.asn().0;
            let next = [epoch, flush, audit, defense]
                .into_iter()
                .flatten()
                .fold(end, |next, period| next.min((now / period + 1) * period));
            self.advance(next - now);
            let due = |period: Option<u64>| period.filter(|p| next.is_multiple_of(*p));
            if due(epoch).is_some() {
                self.sample_epoch();
            }
            if let Some(every) = due(audit) {
                self.audit_now(every);
            }
            if let Some(app) = due(defense) {
                self.engine
                    .trace()
                    .record_network(next, EventKind::DefenseEpoch { epoch: next / app });
            }
            self.flush_observer();
        }
    }

    /// Samples one telemetry epoch, mirrors the health alerts it raised
    /// into the flight recorder and hands both to the observer.
    fn sample_epoch(&mut self) {
        let sampler = self.telemetry.as_mut().expect("an epoch is due only with a sampler");
        let alerts = sampler.sample(&self.engine, &self.stacks, &self.config);
        if self.engine.trace().is_on() {
            for a in &alerts {
                self.engine.trace().record_network(
                    a.asn_end,
                    EventKind::HealthAlert {
                        rule: a.rule.as_str().to_owned(),
                        detail: a.detail.clone(),
                    },
                );
            }
        }
        if let (Some(obs), Some(snap)) = (&mut self.observer.0, sampler.epochs().last()) {
            obs.on_epoch(snap, &alerts);
        }
    }

    /// Flushes trace events recorded since the last flush to the observer
    /// and delivers the progress heartbeat. No-op without an observer.
    fn flush_observer(&mut self) {
        let Some(obs) = &mut self.observer.0 else {
            return;
        };
        let events = self.engine.trace().events_since(self.observer_cursor);
        if let Some(last) = events.last() {
            self.observer_cursor = last.seq + 1;
            obs.on_events(&events);
        }
        if !obs.on_progress(self.engine.asn().0) {
            self.observer_stopped = true;
        }
    }

    /// The telemetry sampler, if enabled (see
    /// [`crate::config::NetworkConfig::telemetry_epoch`]).
    pub fn telemetry(&self) -> Option<&TelemetrySampler> {
        self.telemetry.as_deref()
    }

    /// Replaces the failure schedule mid-run. A scenario declares its
    /// failures in [`NetworkConfig::faults`]; this serves only tests whose
    /// victim is read off the live state of a formed network (a parent on
    /// a source's current route, say).
    pub fn set_fault_plan(&mut self, plan: digs_sim::fault::FaultPlan) {
        self.engine.set_fault_plan(plan);
    }

    /// Replaces the engine's ambient (cross-network) interference set.
    /// The fleet's shard-boundary exchange calls this at slotframe-window
    /// edges with fresh boundary-load estimates; emission is hash-gated,
    /// so swapping the set never perturbs the run's random stream.
    pub fn set_ambient_jammers(&mut self, ambient: Vec<digs_sim::interference::Jammer>) {
        self.engine.set_ambient_jammers(ambient);
    }

    /// Runs for `secs` simulated seconds.
    pub fn run_secs(&mut self, secs: u64) {
        self.run(secs * SLOTS_PER_SECOND);
    }

    /// How long one *identical* routing loop must persist before
    /// `run_audited` records it. Global loop-freedom is an *eventual*
    /// property: belief skew (neighbor-table entries up to a Trickle
    /// maximum interval stale, or a rebooted node re-selecting its former
    /// child) can close a transient cycle with every node individually
    /// obeying the selection rule, and a region under active churn keeps
    /// forming *different* short-lived cycles. A frozen loop — the bug this
    /// check exists for — keeps the exact same members and parent edges.
    /// 120 s comfortably exceeds both the Trickle Imax (~64 s) and the
    /// longest jammer burst the chaos generator injects, so an unchanged
    /// cycle that outlives it is a genuine bug, not skew.
    pub const LOOP_PERSISTENCE_SLOTS: u64 = 12_000;

    /// [`Network::run`] with one more period in the stop list: the
    /// invariant auditor runs at every multiple of `every` on the global
    /// slot clock. Violations accumulate on the network and are reported
    /// through [`RunResults::invariant_violations`].
    ///
    /// Per-node invariants are recorded immediately; `RoutingLoop`
    /// findings are debounced — only recorded once the *same* cycle
    /// (identical members and parent edges) has been observed for
    /// [`Network::LOOP_PERSISTENCE_SLOTS`] of consecutive audits (see the
    /// module docs of [`crate::audit`]).
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn run_audited(&mut self, slots: u64, every: u64) {
        assert!(every > 0, "audit period must be positive");
        self.drive(slots, Some(every));
    }

    /// One audit at the current slot, for a run audited every `every`
    /// slots.
    fn audit_now(&mut self, every: u64) {
        let persistence_audits = Self::LOOP_PERSISTENCE_SLOTS.div_ceil(every);
        let recorded_before = self.violations.len();
        let snapshot = self.audit_snapshot();
        let (loops, immediate): (Vec<_>, Vec<_>) = crate::audit::audit(&snapshot)
            .into_iter()
            .partition(|v| v.kind == InvariantKind::RoutingLoop);
        self.violations.extend(immediate);

        // Frozen-loop debounce: the streak only grows while the
        // cycle keeps the exact same shape.
        let signature: Vec<_> = crate::audit::cycle_members(&snapshot.graph)
            .into_iter()
            .map(|n| {
                let e = snapshot.graph.entry(n);
                (n, e.and_then(|e| e.best), e.and_then(|e| e.second))
            })
            .collect();
        if signature.is_empty() {
            self.loop_streak = 0;
        } else if signature == self.loop_signature {
            self.loop_streak += 1;
            if self.loop_streak >= persistence_audits {
                self.violations.extend(loops);
            }
        } else {
            self.loop_streak = 1;
        }
        self.loop_signature = signature;
        self.trace_new_violations(recorded_before);
    }

    /// Violations collected so far by [`Network::run_audited`].
    pub fn violations(&self) -> &[InvariantViolation] {
        &self.violations
    }

    /// Slots of flight-recorder history preserved around the first
    /// invariant violation (20 s of simulated time).
    pub const VIOLATION_WINDOW_SLOTS: u64 = 2_000;

    /// Mirrors violations recorded since index `from` into the flight
    /// recorder and, on the *first* violation of the run, snapshots the
    /// trailing event window for post-mortem triage.
    fn trace_new_violations(&mut self, from: usize) {
        if self.violations.len() == from || !self.engine.trace().is_on() {
            return;
        }
        for v in &self.violations[from..] {
            self.engine.trace().record(
                v.asn.0,
                v.node.0,
                EventKind::AuditViolation {
                    kind: v.kind.as_str().to_string(),
                    detail: v.detail.clone(),
                },
            );
        }
        if self.violation_window.is_empty() {
            self.violation_window = digs_trace::window(
                &self.engine.trace().events(),
                self.engine.asn().0,
                Self::VIOLATION_WINDOW_SLOTS,
            );
        }
    }

    /// The flight-recorder events captured around the first invariant
    /// violation [`Network::run_audited`] recorded — the crash-dump the
    /// chaos harness prints. Empty when no violation occurred or tracing
    /// is off.
    pub fn violation_window(&self) -> &[Event] {
        &self.violation_window
    }

    /// Captures the distributed state the runtime auditor checks: the
    /// routing graph plus every node's local parent views, claimed cells,
    /// child table, and queue occupancy.
    pub fn audit_snapshot(&self) -> AuditSnapshot {
        let graph = self.routing_graph();
        let nodes = self
            .stacks
            .iter()
            .enumerate()
            .map(|(i, stack)| {
                let id = NodeId(i as u16);
                let is_ap = self.config.topology.is_access_point(id);
                match stack {
                    ProtocolStack::Digs(s) => {
                        // The rank checks audit the node's *belief*: the
                        // neighbor-table rank its selection was based on. A
                        // held parent with no neighbor entry is itself a
                        // bug, so surface it as an INFINITE believed rank.
                        let believed = |parent: Option<NodeId>| {
                            parent.map(|p| ParentView {
                                node: p,
                                believed_rank: s
                                    .routing()
                                    .neighbors()
                                    .get(p)
                                    .map_or(digs_routing::Rank::INFINITE, |e| e.rank),
                            })
                        };
                        let (best, second) = s.parents();
                        // Housekeeping counts as live only once the node
                        // has been synced — and powered — for a full GC
                        // sweep: a fresh resync may still carry pre-desync
                        // registrations, and a node in an outage window
                        // executes no slots at all.
                        let asn = self.engine.asn();
                        let sweep_ago = Asn(asn.0.saturating_sub(crate::audit::GC_SWEEP_SLOTS));
                        let housekeeping_live = s
                            .synced_at()
                            .is_some_and(|t| asn.0 - t.0 >= crate::audit::GC_SWEEP_SLOTS)
                            && self.engine.fault_plan().alive_throughout(id, sweep_ago, asn);
                        NodeAudit {
                            node: id,
                            is_ap,
                            synced: housekeeping_live,
                            rank: s.rank(),
                            best_parent: believed(best),
                            second_parent: believed(second),
                            claims: s
                                .cell_claims()
                                .into_iter()
                                .map(|(slot, offset)| CellClaim { slot, offset })
                                .collect(),
                            children: s.children_last_seen(),
                            queue_len: s.app_queue_len(),
                            queue_capacity: QUEUE_CAPACITY,
                        }
                    }
                    // Orchestra's autonomous cells are shared (contention),
                    // not owned, its child table is sender-maintained, and
                    // its RPL ranks are hysteresis-smoothed rather than
                    // strictly monotone — only the graph and queue
                    // invariants apply.
                    ProtocolStack::Orchestra(s) => NodeAudit {
                        node: id,
                        is_ap,
                        synced: s.is_joined(),
                        rank: s.rank(),
                        best_parent: None,
                        second_parent: None,
                        claims: Vec::new(),
                        children: Vec::new(),
                        queue_len: s.app_queue_len(),
                        queue_capacity: QUEUE_CAPACITY,
                    },
                    // Centralized: the manager owns the schedule; there is
                    // no distributed state to audit.
                    ProtocolStack::WirelessHart(_) => NodeAudit {
                        node: id,
                        is_ap,
                        synced: true,
                        rank: digs_routing::Rank::INFINITE,
                        best_parent: None,
                        second_parent: None,
                        claims: Vec::new(),
                        children: Vec::new(),
                        queue_len: 0,
                        queue_capacity: QUEUE_CAPACITY,
                    },
                }
            })
            .collect();
        AuditSnapshot { asn: self.engine.asn(), graph, nodes }
    }

    /// Re-provisions every WirelessHART stack with a new central schedule
    /// (the dissemination step at the end of a manager update cycle).
    ///
    /// # Panics
    ///
    /// Panics if the network is not running [`Protocol::WirelessHart`].
    pub fn reprovision_wirelesshart(&mut self, schedule: &digs_whart::CentralSchedule) {
        assert_eq!(
            self.config.protocol,
            Protocol::WirelessHart,
            "reprovisioning only applies to the centralized baseline"
        );
        for stack in &mut self.stacks {
            if let ProtocolStack::WirelessHart(s) = stack {
                s.install_schedule(schedule, QUEUE_CAPACITY);
            }
        }
    }

    /// Snapshots the distributed routing state as a [`RoutingGraph`].
    pub fn routing_graph(&self) -> RoutingGraph {
        let mut graph = RoutingGraph::new(self.config.topology.access_points());
        for (i, stack) in self.stacks.iter().enumerate() {
            let id = NodeId(i as u16);
            if self.config.topology.is_access_point(id) {
                continue;
            }
            let (best, second) = stack.parents();
            graph.insert(id, GraphEntry { best, second, rank: stack.rank() });
        }
        graph
    }

    /// Computes the run's metrics from stack telemetry and engine meters.
    pub fn results(&self) -> RunResults {
        let duration = self.engine.asn();
        let duration_nonzero = duration.0.max(1);

        // Collect deliveries from every access point, deduplicated by
        // (flow, seq), keeping the earliest arrival.
        let mut first_delivery: BTreeMap<(u16, u32), Asn> = BTreeMap::new();
        for stack in &self.stacks {
            for d in &stack.telemetry().deliveries {
                first_delivery
                    .entry((d.packet.flow.0, d.packet.seq))
                    .and_modify(|at| *at = (*at).min(d.delivered_at))
                    .or_insert(d.delivered_at);
            }
        }
        // Generation timestamps are derivable from the flow specs, but the
        // latency needs the packet's own generated_at; recover it from the
        // delivery records (they carry the packet).
        let mut gen_at: BTreeMap<(u16, u32), Asn> = BTreeMap::new();
        for stack in &self.stacks {
            for d in &stack.telemetry().deliveries {
                gen_at.insert((d.packet.flow.0, d.packet.seq), d.packet.generated_at);
            }
        }

        let flows = self
            .config
            .flows
            .iter()
            .map(|spec| {
                let source_stack = &self.stacks[spec.source.index()];
                let generated =
                    source_stack.telemetry().generated.get(&spec.id).copied().unwrap_or(0);
                let mut delivered_seqs = std::collections::BTreeSet::new();
                let mut latencies = Vec::new();
                for ((flow, seq), at) in &first_delivery {
                    if *flow == spec.id.0 {
                        delivered_seqs.insert(*seq);
                        let g = gen_at[&(*flow, *seq)];
                        latencies.push(
                            (at.0.saturating_sub(g.0)) as f64 * digs_sim::time::SLOT_MS as f64,
                        );
                    }
                }
                FlowResult {
                    flow: spec.id,
                    source: spec.source,
                    generated,
                    delivered: delivered_seqs.len() as u32,
                    delivered_seqs,
                    latencies_ms: latencies,
                }
            })
            .collect();

        let nodes = self
            .stacks
            .iter()
            .enumerate()
            .map(|(i, stack)| {
                let id = NodeId(i as u16);
                let meter = self.engine.energy(id);
                let t = stack.telemetry();
                NodeResult {
                    node: id,
                    energy_mj: meter.energy_mj(),
                    mean_power_mw: meter.mean_power_mw(),
                    duty_cycle: meter.duty_cycle(),
                    tx_us: meter.tx_us,
                    rx_us: meter.rx_us,
                    joined_at: t.joined_at,
                    parent_changes: t.parent_changes.len(),
                }
            })
            .collect();

        let mut parent_change_times: Vec<Asn> =
            self.stacks.iter().flat_map(|s| s.telemetry().parent_changes.iter().copied()).collect();
        parent_change_times.sort_unstable();

        let retry_drops = self.stacks.iter().map(|s| s.telemetry().retry_drops).sum();
        let queue_drops = self.stacks.iter().map(|s| s.telemetry().queue_drops).sum();

        RunResults {
            duration: Asn(duration_nonzero),
            flows,
            nodes,
            parent_change_times,
            retry_drops,
            queue_drops,
            invariant_violations: self.violations.clone(),
        }
    }
}

#[cfg(test)]
mod chunking;
#[cfg(test)]
mod wake_oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetworkConfig;
    use digs_sim::topology::Topology;

    fn tiny_config(protocol: Protocol) -> NetworkConfig {
        NetworkConfig::builder(Topology::testbed_a_half())
            .protocol(protocol)
            .seed(11)
            .random_flows(2, 300, 5)
            .build()
    }

    #[test]
    fn digs_network_forms_and_delivers() {
        let mut net = Network::new(tiny_config(Protocol::Digs));
        net.run_secs(120);
        let results = net.results();
        assert!(
            results.fraction_joined() > 0.9,
            "most nodes should join: {}",
            results.fraction_joined()
        );
        assert!(results.network_pdr() > 0.5, "PDR should be reasonable: {}", results.network_pdr());
        let graph = net.routing_graph();
        assert!(graph.is_dag(), "routing state must be a DAG");
    }

    #[test]
    fn orchestra_network_forms_and_delivers() {
        let mut net = Network::new(tiny_config(Protocol::Orchestra));
        net.run_secs(120);
        let results = net.results();
        assert!(
            results.fraction_joined() > 0.9,
            "most nodes should join: {}",
            results.fraction_joined()
        );
        assert!(results.network_pdr() > 0.5, "PDR should be reasonable: {}", results.network_pdr());
    }

    #[test]
    fn digs_nodes_acquire_backup_parents() {
        let mut net = Network::new(tiny_config(Protocol::Digs));
        // Backup acquisition needs the join-in gossip to propagate a second
        // rank-feasible neighbor to everyone; 120 s is within the noise of
        // the Trickle Imax, so give it three minutes.
        net.run_secs(180);
        let graph = net.routing_graph();
        assert!(
            graph.fraction_with_backup() > 0.5,
            "graph routing should give most nodes a backup: {}",
            graph.fraction_with_backup()
        );
    }

    #[test]
    fn audited_digs_run_is_violation_free() {
        let mut net = Network::new(tiny_config(Protocol::Digs));
        net.run_audited(120 * digs_sim::time::SLOTS_PER_SECOND, 1000);
        let results = net.results();
        assert!(
            results.invariant_violations.is_empty(),
            "healthy run must satisfy every invariant: {:?}",
            results.invariant_violations
        );
    }

    #[test]
    fn audit_snapshot_captures_claims_and_children() {
        let mut net = Network::new(tiny_config(Protocol::Digs));
        net.run_secs(120);
        let snap = net.audit_snapshot();
        let claimed: usize = snap.nodes.iter().map(|n| n.claims.len()).sum();
        let children: usize = snap.nodes.iter().map(|n| n.children.len()).sum();
        assert!(claimed > 0, "joined field devices must claim dedicated cells");
        assert!(children > 0, "parents must register children");
        assert!(snap.nodes.iter().all(|n| !n.is_ap || n.claims.is_empty()));
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let mut net = Network::new(tiny_config(Protocol::Digs));
            net.run_secs(60);
            let r = net.results();
            (r.total_delivered(), r.total_generated(), r.parent_change_times.len())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn traced_run_reconstructs_complete_journeys() {
        let config = NetworkConfig::builder(Topology::testbed_a_half())
            .protocol(Protocol::Digs)
            .seed(11)
            .random_flows(2, 300, 5)
            .trace_cap(200_000)
            .build();
        let mut net = Network::new(config);
        net.run_secs(120);
        assert!(net.trace().is_on());
        let events = net.trace().events();
        assert!(!events.is_empty(), "a traced run must record events");
        let journeys = digs_trace::journeys(&events);
        assert!(
            journeys.iter().any(digs_trace::Journey::is_complete),
            "at least one packet journey must reconstruct end to end \
             ({} journeys, {} events)",
            journeys.len(),
            events.len()
        );
        // Hop-by-hop accounting: a complete journey's latency covers its
        // per-hop queueing.
        for j in journeys.iter().filter(|j| j.is_complete()) {
            let queueing: u64 = j.hops.iter().filter_map(digs_trace::Hop::queueing_slots).sum();
            assert!(j.latency_slots.unwrap_or(0) >= queueing);
        }
    }

    #[test]
    fn forced_violation_captures_bounded_event_window() {
        // A healthy DiGS run never violates an invariant, so force one:
        // inject a fabricated violation exactly the way `run_audited`
        // records real ones, and check the crash-dump machinery — the
        // violation is mirrored into the trace and a bounded trailing
        // window is snapshotted for the chaos harness to print.
        let config = NetworkConfig::builder(Topology::testbed_a_half())
            .protocol(Protocol::Digs)
            .seed(11)
            .random_flows(2, 300, 5)
            .trace_cap(50_000)
            .build();
        let mut net = Network::new(config);
        net.run_secs(60);
        net.violations.push(crate::audit::InvariantViolation {
            kind: crate::audit::InvariantKind::RoutingLoop,
            asn: net.asn(),
            node: NodeId(3),
            detail: "fabricated for the crash-dump test".into(),
        });
        net.trace_new_violations(0);

        let window = net.violation_window();
        assert!(!window.is_empty(), "a violation must snapshot an event window");
        let end = net.asn().0;
        let cutoff = end.saturating_sub(Network::VIOLATION_WINDOW_SLOTS);
        assert!(
            window.iter().all(|e| e.asn > cutoff && e.asn <= end),
            "the window must be bounded to the last {} slots",
            Network::VIOLATION_WINDOW_SLOTS
        );
        assert!(
            window.iter().any(|e| matches!(e.kind, digs_trace::EventKind::AuditViolation { .. })),
            "the violation itself must appear in the window"
        );
        // A second violation must not re-snapshot (the window belongs to
        // the *first* violation of the run).
        let first = net.violation_window().to_vec();
        net.violations.push(crate::audit::InvariantViolation {
            kind: crate::audit::InvariantKind::QueueBound,
            asn: net.asn(),
            node: NodeId(4),
            detail: "second fabricated violation".into(),
        });
        net.trace_new_violations(1);
        assert_eq!(net.violation_window(), &first[..]);
    }

    #[test]
    fn tracing_does_not_change_outcomes() {
        let run = |cap: usize| {
            let config = NetworkConfig::builder(Topology::testbed_a_half())
                .protocol(Protocol::Digs)
                .seed(11)
                .random_flows(2, 300, 5)
                .trace_cap(cap)
                .build();
            let mut net = Network::new(config);
            net.run_secs(60);
            let r = net.results();
            (r.total_delivered(), r.total_generated(), r.parent_change_times.len())
        };
        assert_eq!(run(0), run(100_000), "tracing must be observation-only");
    }

    /// What an observer was handed (shared with `chunking.rs`).
    #[derive(Default)]
    pub(super) struct ObserverLog {
        pub(super) events: Vec<digs_trace::Event>,
        pub(super) epochs: usize,
        last_asn: u64,
    }

    pub(super) struct SharedObserver {
        pub(super) log: std::sync::Arc<std::sync::Mutex<ObserverLog>>,
        pub(super) stop_at: Option<u64>,
    }

    impl RunObserver for SharedObserver {
        fn on_events(&mut self, events: &[digs_trace::Event]) {
            self.log.lock().unwrap().events.extend_from_slice(events);
        }
        fn on_epoch(
            &mut self,
            _snapshot: &crate::telemetry::EpochSnapshot,
            _alerts: &[HealthAlert],
        ) {
            self.log.lock().unwrap().epochs += 1;
        }
        fn on_progress(&mut self, asn: u64) -> bool {
            self.log.lock().unwrap().last_asn = asn;
            self.stop_at.is_none_or(|at| asn < at)
        }
    }

    #[test]
    fn observer_streams_the_full_trace_without_changing_outcomes() {
        let build = || {
            NetworkConfig::builder(Topology::testbed_a_half())
                .protocol(Protocol::Digs)
                .seed(11)
                .random_flows(2, 300, 5)
                .trace_cap(200_000)
                .telemetry_epoch(500)
                .telemetry_cap(64)
                .build()
        };
        let log = std::sync::Arc::new(std::sync::Mutex::new(ObserverLog::default()));
        let mut observed = Network::new(build());
        observed.set_observer(Box::new(SharedObserver { log: log.clone(), stop_at: None }));
        observed.run_secs(60);

        let mut plain = Network::new(build());
        plain.run_secs(60);

        // Streaming is observation-only: same outcomes, and the streamed
        // events are exactly the flight-recorder contents.
        let (or, pr) = (observed.results(), plain.results());
        assert_eq!(or.total_delivered(), pr.total_delivered());
        assert_eq!(or.parent_change_times, pr.parent_change_times);
        let log = log.lock().unwrap();
        assert_eq!(log.events, observed.trace().events(), "stream must equal the recorded trace");
        assert_eq!(log.epochs, observed.telemetry().unwrap().epochs().count());
        assert_eq!(log.last_asn, observed.asn().0);
    }

    #[test]
    fn observer_can_stop_a_run_early() {
        let log = std::sync::Arc::new(std::sync::Mutex::new(ObserverLog::default()));
        let mut net = Network::new(tiny_config(Protocol::Digs));
        net.set_observer(Box::new(SharedObserver { log: log.clone(), stop_at: Some(2_000) }));
        net.run_audited(60 * digs_sim::time::SLOTS_PER_SECOND, 1000);
        assert!(net.observer_stopped());
        let stopped_at = net.asn().0;
        assert!(
            (2_000..6_000).contains(&stopped_at),
            "run must halt near the observer's stop point, got {stopped_at}"
        );
        // Further runs stay halted until a new observer is installed.
        net.run_secs(10);
        assert_eq!(net.asn().0, stopped_at);
    }

    #[test]
    fn energy_is_consumed() {
        let mut net = Network::new(tiny_config(Protocol::Digs));
        net.run_secs(30);
        let results = net.results();
        assert!(results.total_mean_power_mw() > 0.0);
        assert!(results.nodes.iter().all(|n| n.duty_cycle <= 1.0));
        // The breakdown must be consistent with the duty cycle: radio-on
        // time is exactly tx + rx.
        let slot_us = digs_sim::time::SLOT_MS * 1000;
        for n in &results.nodes {
            let on_us = n.tx_us + n.rx_us;
            let total_us = results.duration.0 * slot_us;
            assert!((n.duty_cycle - on_us as f64 / total_us as f64).abs() < 1e-9);
        }
        assert!(results.nodes.iter().any(|n| n.tx_us > 0 && n.rx_us > 0));
    }
}

#[cfg(test)]
mod whart_tests {
    use super::*;
    use crate::config::NetworkConfig;
    use digs_sim::topology::Topology;

    #[test]
    fn wirelesshart_network_delivers_on_static_schedule() {
        let mut flows = crate::flows::flow_set_from_sources(&[NodeId(12), NodeId(17)], 500);
        for f in &mut flows {
            f.phase += 100; // one superframe of slack
        }
        let config = NetworkConfig::builder(Topology::testbed_a_half())
            .protocol(Protocol::WirelessHart)
            .seed(4)
            .flows(flows)
            .build();
        let mut net = Network::new(config);
        net.run_secs(120);
        let results = net.results();
        assert!(
            results.network_pdr() > 0.9,
            "centrally scheduled network should deliver: {:.3}",
            results.network_pdr()
        );
        // No distributed control plane: zero parent changes.
        assert!(results.parent_change_times.is_empty());
    }

    #[test]
    fn wirelesshart_cannot_adapt_to_failure() {
        // The static schedule has no routing plane: failing a scheduled
        // relay blacks out the flows that pass through it until the (not
        // simulated) manager update completes — the paper's Fig. 3 point.
        let mut flows = crate::flows::flow_set_from_sources(&[NodeId(19)], 500);
        for f in &mut flows {
            f.phase += 100;
        }
        let config = NetworkConfig::builder(Topology::testbed_a_half())
            .protocol(Protocol::WirelessHart)
            .seed(4)
            .flows(flows)
            .build();
        let mut baseline = Network::new(config.clone());
        baseline.run_secs(120);
        let base_pdr = baseline.results().network_pdr();

        // Find the first relay on the scheduled path and fail it mid-run.
        let db = digs_whart::LinkDb::from_link_model(baseline.engine().link_model());
        let graph = digs_whart::build_uplink_graph(&db, &config.topology.access_points());
        let relay = graph
            .entry(NodeId(19))
            .and_then(|e| e.best)
            .filter(|p| !config.topology.is_access_point(*p));
        let Some(relay) = relay else {
            return; // direct-to-AP path: nothing to fail
        };
        let mut net = Network::new(config);
        net.run_secs(60);
        let outage = digs_sim::fault::Fault::outage(relay, net.asn(), None);
        net.set_fault_plan(digs_sim::fault::FaultPlan::from_iter([outage]));
        net.run_secs(60);
        let failed_pdr = net.results().network_pdr();
        assert!(
            failed_pdr < base_pdr,
            "losing the scheduled relay must hurt a static schedule \
             (baseline {base_pdr:.2}, failed {failed_pdr:.2})"
        );
    }
}
