//! Network run configuration.

use crate::flows::{self, FlowSpec};
use digs_routing::RoutingConfig;
use digs_scheduling::SlotframeLengths;
use digs_sim::fault::FaultPlan;
use digs_sim::ids::NodeId;
use digs_sim::interference::Jammer;
use digs_sim::rf::RfConfig;
use digs_sim::topology::Topology;

digs_json::named! {
    /// Which protocol suite the network runs.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum Protocol: "protocol" {
        /// The paper's contribution: distributed graph routing + autonomous
        /// scheduling.
        Digs = "digs",
        /// The baseline: Orchestra scheduling over RPL.
        Orchestra = "orchestra",
        /// The centralized baseline: devices execute a schedule computed by
        /// the WirelessHART Network Manager (static during the run; the
        /// manager's reaction-time cost is modelled by `digs-whart`).
        WirelessHart = "wirelesshart",
    }
}

impl Protocol {
    /// Short lowercase name for table labels: [`Protocol::as_str`].
    pub fn name(self) -> &'static str {
        self.as_str()
    }
}

/// Complete configuration of one simulated network run.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Device placement.
    pub topology: Topology,
    /// Propagation environment: the topology's ([`Topology::rf`]).
    pub rf: RfConfig,
    /// Master seed (drives the channel realisation and every stack).
    pub seed: u64,
    /// Protocol suite under test.
    pub protocol: Protocol,
    /// Slotframe lengths (the paper uses 557/47/151 everywhere).
    pub slotframes: SlotframeLengths,
    /// Routing-layer tuning.
    pub routing: RoutingConfig,
    /// Scheduled transmission attempts per packet per slotframe (DiGS `A`).
    pub attempts: u8,
    /// The data flows to run.
    pub flows: Vec<FlowSpec>,
    /// Interference sources.
    pub jammers: Vec<Jammer>,
    /// Node-failure schedule.
    pub faults: FaultPlan,
    /// Per-node application queue capacity.
    pub queue_capacity: usize,
    /// Application slotframe cycles a packet may spend at one hop before
    /// being dropped (total link-layer persistence).
    pub max_cycles: u8,
    /// Flight-recorder ring capacity per node (events). `None` and
    /// `Some(0)` both mean tracing is off.
    pub trace_cap: Option<usize>,
    /// Telemetry sampling cadence in slots. `None` and `Some(0)` both mean
    /// telemetry is off.
    pub telemetry_epoch: Option<u64>,
    /// Maximum retained epoch snapshots (oldest dropped first). `None`
    /// means [`crate::telemetry::DEFAULT_CAP`]; `Some(0)` switches
    /// telemetry off.
    pub telemetry_cap: Option<usize>,
    /// Seconds after convergence before the health monitor's steady-state
    /// rules arm (`None` = the watchdog default). Large dense deployments
    /// need this sized up: link quality is only discovered by data
    /// traffic, so the first minutes after the flows start legitimately
    /// lose packets while ETX estimates correct themselves.
    pub health_settle_secs: Option<u64>,
    /// Parent changes per telemetry epoch the health monitor tolerates
    /// before raising a churn-storm alert (`None` = the watchdog default,
    /// sized for ~30-node testbeds). Scale this with device count:
    /// discovery-phase parent selection legitimately swaps more parents
    /// per epoch in larger deployments.
    pub health_churn_storm: Option<u32>,
    /// Schedule-randomization defense (DiGS only): a shared secret from
    /// which every node re-derives its application-cell placement each
    /// slotframe epoch, defeating schedule-learning jammers. `None` and
    /// `Some(0)` both mean the defense is off; any other value enables it.
    pub sched_randomize: Option<u64>,
}

impl NetworkConfig {
    /// Starts a builder with the paper's defaults.
    pub fn builder(topology: Topology) -> NetworkConfigBuilder {
        NetworkConfigBuilder {
            config: NetworkConfig {
                rf: topology.rf().clone(),
                topology,
                seed: 1,
                protocol: Protocol::Digs,
                slotframes: SlotframeLengths::paper(),
                routing: RoutingConfig::default(),
                attempts: 3,
                flows: Vec::new(),
                jammers: Vec::new(),
                faults: FaultPlan::none(),
                // Contiki's queuebuf default: 8 packets per node.
                queue_capacity: 8,
                max_cycles: 3,
                trace_cap: None,
                telemetry_epoch: None,
                telemetry_cap: None,
                health_settle_secs: None,
                health_churn_storm: None,
                sched_randomize: None,
            },
        }
    }

    /// The schedule-randomization shared secret, if the defense is on
    /// (unset and `0` are both off). The network derives the per-run nonce
    /// by mixing it with the seed.
    pub fn resolve_randomize(&self) -> Option<u64> {
        self.sched_randomize.filter(|&secret| secret != 0)
    }
}

/// Builder for [`NetworkConfig`].
#[derive(Debug, Clone)]
pub struct NetworkConfigBuilder {
    config: NetworkConfig,
}

impl NetworkConfigBuilder {
    /// Sets the protocol suite.
    ///
    /// For [`Protocol::Orchestra`] this also calibrates the RPL parent
    /// failure threshold upward (16 consecutive losses): Contiki's RPL
    /// accumulates link statistics over many transmissions before reacting,
    /// which is what gives Orchestra its measured 20–95 s repair times in
    /// the paper's Fig. 4. Call [`NetworkConfigBuilder::routing`] *after*
    /// this to override.
    pub fn protocol(mut self, protocol: Protocol) -> Self {
        self.config.protocol = protocol;
        if protocol == Protocol::Orchestra {
            self.config.routing.parent_failure_threshold = 16;
        }
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the slotframe lengths.
    pub fn slotframes(mut self, lengths: SlotframeLengths) -> Self {
        self.config.slotframes = lengths;
        self
    }

    /// Sets routing-layer tuning.
    pub fn routing(mut self, routing: RoutingConfig) -> Self {
        self.config.routing = routing;
        self
    }

    /// Sets the scheduled attempts per packet (DiGS `A`).
    pub fn attempts(mut self, attempts: u8) -> Self {
        self.config.attempts = attempts;
        self
    }

    /// Installs an explicit flow set.
    pub fn flows(mut self, flows: Vec<FlowSpec>) -> Self {
        self.config.flows = flows;
        self
    }

    /// Installs a flow set with the given sources and period (slots).
    pub fn flows_from_sources(mut self, sources: &[NodeId], period: u64) -> Self {
        self.config.flows = flows::flow_set_from_sources(sources, period);
        self
    }

    /// Installs a deterministic random flow set.
    pub fn random_flows(mut self, n: usize, period: u64, seed: u64) -> Self {
        self.config.flows = flows::random_flow_set(&self.config.topology, n, period, seed);
        self
    }

    /// Adds an interference source.
    pub fn jammer(mut self, jammer: Jammer) -> Self {
        self.config.jammers.push(jammer);
        self
    }

    /// Installs the failure schedule.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.config.faults = faults;
        self
    }

    /// Sets the per-node queue capacity.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.config.queue_capacity = capacity;
        self
    }

    /// Sets per-hop persistence in application slotframe cycles.
    pub fn max_cycles(mut self, cycles: u8) -> Self {
        self.config.max_cycles = cycles;
        self
    }

    /// Enables the flight recorder with the given per-node ring capacity
    /// (0, the default, is off).
    pub fn trace_cap(mut self, cap: usize) -> Self {
        self.config.trace_cap = Some(cap);
        self
    }

    /// Enables epoch telemetry sampling every `slots` slots (0, the
    /// default, is off).
    pub fn telemetry_epoch(mut self, slots: u64) -> Self {
        self.config.telemetry_epoch = Some(slots);
        self
    }

    /// Caps the retained telemetry epochs (0 switches telemetry off;
    /// the default is [`crate::telemetry::DEFAULT_CAP`]).
    pub fn telemetry_cap(mut self, cap: usize) -> Self {
        self.config.telemetry_cap = Some(cap);
        self
    }

    /// Sizes the health monitor's settle window (seconds after
    /// convergence before the steady-state alert rules arm). Without this
    /// call the watchdog default (10 s) applies — too short for large
    /// deployments whose link discovery takes minutes of data traffic.
    pub fn health_settle_secs(mut self, secs: u64) -> Self {
        self.config.health_settle_secs = Some(secs);
        self
    }

    /// Sets the churn-storm alert threshold (parent changes per telemetry
    /// epoch). Without this call the watchdog default (8) applies — sized
    /// for ~30-node testbeds, too twitchy for larger deployments.
    pub fn health_churn_storm(mut self, changes: u32) -> Self {
        self.config.health_churn_storm = Some(changes);
        self
    }

    /// Enables the schedule-randomization defense with the given shared
    /// secret (0, the default, is off).
    pub fn randomize(mut self, secret: u64) -> Self {
        self.config.sched_randomize = Some(secret);
        self
    }

    /// Finalises the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the slotframe lengths are invalid.
    pub fn build(self) -> NetworkConfig {
        self.config.slotframes.validate().expect("valid slotframes");
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use digs_sim::rf::Dbm;

    #[test]
    fn builder_defaults_match_paper() {
        let c = NetworkConfig::builder(Topology::testbed_a()).build();
        assert_eq!(c.protocol, Protocol::Digs);
        assert_eq!(c.slotframes, SlotframeLengths::paper());
        assert_eq!(c.attempts, 3);
        assert!(c.flows.is_empty());
    }

    #[test]
    fn builder_sets_fields() {
        let c = NetworkConfig::builder(Topology::testbed_a())
            .protocol(Protocol::Orchestra)
            .seed(9)
            .random_flows(8, 500, 3)
            .queue_capacity(8)
            .build();
        assert_eq!(c.protocol, Protocol::Orchestra);
        assert_eq!(c.seed, 9);
        assert_eq!(c.flows.len(), 8);
        assert_eq!(c.queue_capacity, 8);
    }

    #[test]
    fn randomize_knob_resolves_explicit_values() {
        let on = NetworkConfig::builder(Topology::testbed_a()).randomize(7).build();
        assert_eq!(on.resolve_randomize(), Some(7));
        let off = NetworkConfig::builder(Topology::testbed_a()).randomize(0).build();
        assert_eq!(off.resolve_randomize(), None);
    }

    #[test]
    fn a_layout_keeps_its_radio_under_any_name() {
        let rf = |topology: Topology| NetworkConfig::builder(topology).build().rf;
        // The same placements under another name.
        let renamed = |topology: &Topology, name: &str| {
            let positions = topology.node_ids().map(|n| topology.position(n)).collect();
            let roles = topology.node_ids().map(|n| topology.role(n)).collect();
            Topology::new(name, positions, roles)
        };
        let cooja = Topology::cooja_150(7);
        assert_eq!(rf(cooja.clone()), RfConfig::open_area());
        let campus = renamed(&cooja, "plant-7").with_rf(cooja.rf().clone());
        assert_eq!(rf(campus), RfConfig::open_area());
        let testbed = Topology::testbed_a();
        assert_eq!(rf(testbed.clone()), RfConfig::indoor());
        assert_eq!(rf(renamed(&testbed, "random-150x300m")), RfConfig::indoor());
        assert_eq!(rf(renamed(&testbed, "cooja")), RfConfig::indoor());
        assert_eq!(crate::scenarios::oil_field_topology().rf(), &RfConfig::open_area());
        let factory = crate::scenarios::factory_floor_topology();
        assert_eq!(factory.rf(), &RfConfig { tx_power: Dbm(0.0), ..RfConfig::indoor() });
    }

    #[test]
    fn protocol_names() {
        assert_eq!(Protocol::Digs.name(), "digs");
        assert_eq!(Protocol::Orchestra.name(), "orchestra");
        assert_eq!(Protocol::parse("wirelesshart"), Ok(Protocol::WirelessHart));
        assert_eq!(
            Protocol::parse("rpl"),
            Err("unknown protocol `rpl` (digs|orchestra|wirelesshart)".to_string())
        );
    }
}
