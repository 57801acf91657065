//! The paper's canonical experiment scenarios.
//!
//! Each function builds the whole [`NetworkConfig`] of one of the
//! evaluation setups in Section VII — flows, jammers and failures are all
//! declared up front, so a run of the config is the scenario. The testbed
//! scenarios take the topology pre-built, so a seed sweep builds it once
//! and hands each run a cheap clone:
//!
//! - **Testbed A under interference**: 50 nodes, 8 flows @ 5 s, three
//!   jammers emulating WiFi data streaming at elevated power (Fig. 9);
//! - **Testbed B under interference**: 44 nodes over two floors, 6 flows
//!   (Fig. 10);
//! - **Testbed A with node failure**: the four central relays switched
//!   off in turn, the same four for every protocol (Fig. 11);
//! - **Large scale**: 150 nodes + 2 APs in 300 m × 300 m, 20 flows @ 10 s,
//!   five disturbers toggling every 5 minutes (Fig. 12);
//! - **Initialization**: a cold-start network for join-time CDFs (Fig. 13);
//! - **Far flows**: six flows from Testbed A's far devices, the network of
//!   the three-way comparison and the chaos soak.

use crate::config::{NetworkConfig, Protocol};
use crate::flows::{random_flow_set, FlowSpec};
use digs_sim::fault::FaultPlan;
use digs_sim::ids::NodeId;
use digs_sim::interference::Jammer;
use digs_sim::position::Position;
use digs_sim::rf::RfConfig;
use digs_sim::time::Asn;
use digs_sim::topology::{Role, Topology};

/// Seconds of warm-up before flows start generating (network formation
/// takes ~15–25 s; the paper measures steady-state flows).
pub const WARMUP_SECS: u64 = 60;

/// When jammers switch on, seconds into the run.
pub const JAM_START_SECS: u64 = 120;

/// Shifts every flow's phase by `secs`, past the warm-up window.
pub fn delay_flows(mut flows: Vec<FlowSpec>, secs: u64) -> Vec<FlowSpec> {
    for f in &mut flows {
        f.phase += secs * 100;
    }
    flows
}

/// Jammer placements inside Testbed A's 60 m × 30 m floor — three spots
/// spread across the building, mirroring Fig. 8(a).
fn testbed_a_jammers(count: usize) -> Vec<Jammer> {
    let spots = [
        Position::new(18.0, 10.0),
        Position::new(36.0, 20.0),
        Position::new(48.0, 8.0),
        Position::new(10.0, 22.0),
    ];
    let wifi_channels = [1u8, 6, 11, 6];
    (0..count.min(spots.len()))
        .map(|i| {
            let mut j = Jammer::wifi(spots[i], wifi_channels[i], Asn::from_secs(JAM_START_SECS));
            // "we configure the nodes running JamLab to transmit at higher
            // transmission powers": JamLab runs on TelosB motes, whose
            // CC2420 caps at 0 dBm — "higher" is relative to the reduced
            // power typically used in dense testbeds.
            j.tx_power = digs_sim::rf::Dbm(0.0);
            j
        })
        .collect()
}

/// Testbed B jammer placements (nodes 124, 141, 138 in Fig. 8(b) — one
/// per floor plus one near the stairwell).
fn testbed_b_jammers() -> Vec<Jammer> {
    let spots = [
        Position::with_height(15.0, 12.0, 0.0),
        Position::with_height(30.0, 8.0, 4.0),
        Position::with_height(38.0, 18.0, 0.0),
    ];
    let wifi_channels = [1u8, 6, 11];
    spots
        .iter()
        .zip(wifi_channels)
        .map(|(p, ch)| {
            let mut j = Jammer::wifi(*p, ch, Asn::from_secs(JAM_START_SECS));
            j.tx_power = digs_sim::rf::Dbm(0.0);
            j
        })
        .collect()
}

/// Fig. 9 scenario: Testbed A, 8 flows @ 5 s, 3 WiFi jammers.
/// `flow_seed` selects the flow set (the paper samples 300 of them).
pub fn testbed_a_interference(
    topology: Topology,
    protocol: Protocol,
    flow_seed: u64,
) -> NetworkConfig {
    let flows = delay_flows(random_flow_set(&topology, 8, 500, flow_seed), WARMUP_SECS);
    let mut builder = NetworkConfig::builder(topology)
        .protocol(protocol)
        .seed(flow_seed.wrapping_mul(0x9e37) ^ 0xA)
        .flows(flows);
    for j in testbed_a_jammers(3) {
        builder = builder.jammer(j);
    }
    builder.build()
}

/// Fig. 4/5 scenario: Testbed A with a configurable number of jammers
/// (the empirical study sweeps 1–4).
pub fn testbed_a_jammer_sweep(
    topology: Topology,
    protocol: Protocol,
    num_jammers: usize,
    flow_seed: u64,
) -> NetworkConfig {
    let flows = delay_flows(random_flow_set(&topology, 8, 500, flow_seed), WARMUP_SECS);
    let mut builder = NetworkConfig::builder(topology)
        .protocol(protocol)
        .seed(flow_seed.wrapping_mul(0x517c) ^ num_jammers as u64)
        .flows(flows);
    for j in testbed_a_jammers(num_jammers) {
        builder = builder.jammer(j);
    }
    builder.build()
}

/// Fig. 10 scenario: Testbed B, 6 flows @ 5 s, 3 jammers over two floors.
pub fn testbed_b_interference(
    topology: Topology,
    protocol: Protocol,
    flow_seed: u64,
) -> NetworkConfig {
    let flows = delay_flows(random_flow_set(&topology, 6, 500, flow_seed), WARMUP_SECS);
    let mut builder = NetworkConfig::builder(topology)
        .protocol(protocol)
        .seed(flow_seed.wrapping_mul(0x9e37) ^ 0xB)
        .flows(flows);
    for j in testbed_b_jammers() {
        builder = builder.jammer(j);
    }
    builder.build()
}

/// Shared secret for the schedule-randomization defense scenarios. Any
/// non-zero value works; nodes mix it with the run seed to derive the
/// per-epoch permutation nonce.
pub const DEFENSE_SECRET: u64 = 0x5afe_c0de;

/// One adaptive schedule-learning jammer parked a couple of meters from
/// each access point — the worst case for DiGS, since every flow's last
/// hop converges there and the sniffer sees (and can selectively kill)
/// the busiest cells of the whole network.
fn adaptive_jammers_near_aps(topology: &Topology, app_len: u32) -> Vec<Jammer> {
    topology
        .access_points()
        .iter()
        .enumerate()
        .map(|(i, ap)| {
            let p = topology.position(*ap);
            Jammer::adaptive(
                Position::new(p.x + 2.0, p.y + 2.0),
                app_len,
                Asn::from_secs(JAM_START_SECS),
                0xada9 ^ ((i as u64) << 8),
            )
        })
        .collect()
}

/// Adversarial attack scenario: Testbed A, 8 flows @ 5 s, one adaptive
/// schedule-learning jammer per access point, **no defense**. The jammer
/// sniffs during its learning window, then selectively jams the top-K
/// busiest cells — against a static Eq. 4 schedule this collapses the
/// victim flows' PDR. The defense legs run the same network with schedule
/// randomization on ([`NetworkConfig::sched_randomize`] =
/// [`DEFENSE_SECRET`]): with the jammers cleared it shows what the
/// defense alone costs, with them it is the attack-vs-defense duel.
pub fn testbed_a_adaptive_jam(
    topology: Topology,
    protocol: Protocol,
    flow_seed: u64,
) -> NetworkConfig {
    let flows = delay_flows(random_flow_set(&topology, 8, 500, flow_seed), WARMUP_SECS);
    let app_len = digs_scheduling::SlotframeLengths::paper().app;
    let jammers = adaptive_jammers_near_aps(&topology, app_len);
    let mut builder = NetworkConfig::builder(topology)
        .protocol(protocol)
        .seed(flow_seed.wrapping_mul(0x9e37) ^ 0xAD)
        .flows(flows);
    for j in jammers {
        builder = builder.jammer(j);
    }
    builder.build()
}

/// Picks `count` likely relay nodes: central field devices (closest to the
/// building centroid), excluding the flow sources so turning them off
/// tests *routing* resilience, as in Fig. 11.
pub fn central_relays(topology: &Topology, exclude: &[NodeId], count: usize) -> Vec<NodeId> {
    let (mut cx, mut cy, mut n) = (0.0, 0.0, 0.0);
    for id in topology.node_ids() {
        let p = topology.position(id);
        cx += p.x;
        cy += p.y;
        n += 1.0;
    }
    let center = Position::new(cx / n, cy / n);
    let mut devices: Vec<NodeId> =
        topology.field_devices().into_iter().filter(|d| !exclude.contains(d)).collect();
    devices.sort_by(|a, b| {
        let da = topology.position(*a).distance(&center);
        let db = topology.position(*b).distance(&center);
        da.partial_cmp(&db).expect("finite").then(a.cmp(b))
    });
    devices.truncate(count);
    devices
}

/// Builds a flow set whose sources are chosen (seed-shuffled) from the
/// third of field devices farthest from any access point.
pub fn far_flow_set(topology: &Topology, n: usize, period: u64, seed: u64) -> Vec<FlowSpec> {
    let aps = topology.access_points();
    let mut devices = topology.field_devices();
    devices.sort_by(|a, b| {
        let da = aps.iter().map(|ap| topology.distance(*a, *ap)).fold(f64::MAX, f64::min);
        let db = aps.iter().map(|ap| topology.distance(*b, *ap)).fold(f64::MAX, f64::min);
        db.partial_cmp(&da).expect("finite").then(a.cmp(b))
    });
    let pool_size = (devices.len() / 3).max(n);
    let mut pool: Vec<NodeId> = devices.into_iter().take(pool_size).collect();
    assert!(pool.len() >= n, "not enough far devices for {n} flows");
    for i in (1..pool.len()).rev() {
        let j = (digs_sim::rng::mix(seed, i as u64, 0xfa5, 9) % (i as u64 + 1)) as usize;
        pool.swap(i, j);
    }
    crate::flows::flow_set_from_sources(&pool[..n], period)
}

/// When the first failure strikes, seconds into the run.
pub const FAILURE_START_SECS: u64 = 120;

/// How long each failed node stays down, seconds.
pub const FAILURE_EACH_SECS: u64 = 60;

/// Fig. 11 scenario: Testbed A, no jammers. Flow sources are drawn from
/// the field devices *farthest from any access point*, so every flow is
/// genuinely multi-hop and depends on relays — the paper fails "nodes on
/// the routing graph", which requires flows that actually route through
/// field devices. The victims are the four [`central_relays`] — picked
/// from the layout and the flow set alone, so every protocol loses the
/// same four nodes, as the paper's does — switched off in turn from
/// [`FAILURE_START_SECS`], [`FAILURE_EACH_SECS`] apiece.
pub fn testbed_a_node_failure(
    topology: Topology,
    protocol: Protocol,
    flow_seed: u64,
) -> NetworkConfig {
    let flows = delay_flows(far_flow_set(&topology, 8, 500, flow_seed), WARMUP_SECS);
    let sources: Vec<NodeId> = flows.iter().map(|f| f.source).collect();
    let victims = central_relays(&topology, &sources, 4);
    let faults =
        FaultPlan::in_turn(&victims, Asn::from_secs(FAILURE_START_SECS), FAILURE_EACH_SECS);
    NetworkConfig::builder(topology)
        .protocol(protocol)
        .seed(flow_seed.wrapping_mul(0xfa11) ^ 0xA)
        .flows(flows)
        .faults(faults)
        .build()
}

/// Fig. 12 scenario: 150 nodes + 2 APs in 300 m × 300 m, 20 flows @ 10 s,
/// five disturbers toggling every 5 minutes.
pub fn large_scale(protocol: Protocol, flow_seed: u64) -> NetworkConfig {
    large_scale_on(Topology::cooja_150(7), protocol, flow_seed)
}

/// [`large_scale`] on a pre-built `cooja_150` topology.
pub fn large_scale_on(topology: Topology, protocol: Protocol, flow_seed: u64) -> NetworkConfig {
    let flows = delay_flows(random_flow_set(&topology, 20, 1000, flow_seed), WARMUP_SECS);
    // Eq. 4 needs A x devices = 450 distinct application cells; the
    // testbeds' 151-slot frame would wrap three devices onto every slot
    // and put parents' own cells on top of their children's. Size the
    // application slotframe to the network (457 is prime, hence coprime
    // with 557 and 47), exactly as Eq. 4's id-indexed design intends.
    let slotframes = digs_scheduling::SlotframeLengths {
        app: 457,
        ..digs_scheduling::SlotframeLengths::paper()
    };
    let mut builder = NetworkConfig::builder(topology)
        .protocol(protocol)
        .slotframes(slotframes)
        .seed(flow_seed.wrapping_mul(0xc001) ^ 0x150)
        .flows(flows);
    for i in 0..5u64 {
        let pos = Position::new(50.0 + 50.0 * i as f64, 60.0 + 45.0 * i as f64);
        builder = builder.jammer(Jammer::disturber(pos, 300, i));
    }
    builder.build()
}

/// Fig. 13 scenario: a cold-start network with no flows, used to measure
/// per-node joining time.
pub fn initialization(topology: Topology, protocol: Protocol, seed: u64) -> NetworkConfig {
    NetworkConfig::builder(topology).protocol(protocol).seed(seed).build()
}

/// Six far-source flows on Testbed A, phased past the warm-up: the
/// three-way comparison's network, and the chaos soak's before its faults.
pub fn far_flows(topology: Topology, protocol: Protocol, seed: u64) -> NetworkConfig {
    let flows = delay_flows(far_flow_set(&topology, 6, 500, seed), WARMUP_SECS);
    NetworkConfig::builder(topology).protocol(protocol).seed(seed).flows(flows).build()
}

/// The oil-field deployment from the paper's introduction ("hundreds of
/// devices over an oil field"), promoted from the `oil_field` example so
/// the fleet runner can instantiate it by the thousand: five wellhead
/// clusters of six devices each spaced along a pipeline, a pressure
/// sensor every 12 m between clusters, and two access points at pump
/// stations a third of the way along the pipeline each — the placement
/// keeps every wellhead within a few hops of an AP, which the 5 s
/// monitor period needs (an AP-less far end turns into a 7-hop queue
/// that no slotframe can drain). 47 nodes.
pub fn oil_field_topology() -> Topology {
    let mut positions = vec![Position::new(60.0, 4.0), Position::new(120.0, -4.0)];
    let mut roles = vec![Role::AccessPoint, Role::AccessPoint];
    // Pipeline pressure sensors: every 12 m for 180 m.
    for i in 1..=15 {
        positions.push(Position::new(12.0 * f64::from(i), 0.0));
        roles.push(Role::FieldDevice);
    }
    // Wellhead clusters hanging off the pipeline, alternating sides.
    for cluster in 0..5u32 {
        let base_x = 30.0 + 36.0 * f64::from(cluster);
        for k in 0..6u32 {
            let dx = f64::from(k % 3) * 5.0;
            let dy = 8.0 + f64::from(k / 3) * 6.0;
            let side = if cluster % 2 == 0 { 1.0 } else { -1.0 };
            positions.push(Position::new(base_x + dx, side * dy));
            roles.push(Role::FieldDevice);
        }
    }
    Topology::new("oil-field", positions, roles).with_rf(RfConfig::open_area())
}

/// Oil-field scenario: 6 monitor flows @ 5 s from the wellhead clusters
/// farthest from the pump stations, at full CC2420 power (the open-area
/// model still yields 2–4 hop routes, and the link margin keeps epoch
/// PDR clear of the health monitor's floor). The deepest clusters need
/// A·devices distinct Eq. 4 cells, so the application slotframe is
/// sized to the deployment (149 is prime: 45 devices × 3 attempts = 135
/// cells fit).
pub fn oil_field(protocol: Protocol, flow_seed: u64) -> NetworkConfig {
    let topology = oil_field_topology();
    let flows = delay_flows(far_flow_set(&topology, 6, 500, flow_seed), WARMUP_SECS);
    let slotframes = digs_scheduling::SlotframeLengths {
        app: 149,
        ..digs_scheduling::SlotframeLengths::paper()
    };
    NetworkConfig::builder(topology)
        .protocol(protocol)
        .slotframes(slotframes)
        .seed(flow_seed.wrapping_mul(0x011f) ^ 0x01)
        .flows(flows)
        // Link quality over the pipeline takes ~2 min of data traffic to
        // discover (shadowed links start with optimistic RSS-based ETX).
        .health_settle_secs(150)
        // 45 devices swap more parents per epoch during discovery than
        // the testbed-sized watchdog default tolerates.
        .health_churn_storm(16)
        .build()
}

/// The factory-floor deployment the fleet runner's second template uses:
/// 80 field devices on a 10 × 8 machine-row grid (9 m pitch, with a
/// deterministic sub-meter stagger so rows are not perfectly collinear)
/// and two access points on the central aisle. 82 nodes — sized so the
/// Eq. 4 application slotframe stays short enough (241 slots) that
/// multi-hop latency clears the 10 s monitor period with margin; the
/// fleet's *sharded* campus networks are where node counts scale.
pub fn factory_floor_topology() -> Topology {
    const COLS: u32 = 10;
    const ROWS: u32 = 8;
    const PITCH: f64 = 9.0;
    let width = f64::from(COLS - 1) * PITCH;
    let height = f64::from(ROWS - 1) * PITCH;
    // Two access points on the central aisle at the third points: every
    // machine row is then within a few hops of an AP (end-of-hall
    // placement leaves 120 m diagonals that multi-hop latency cannot
    // cover at the monitor period).
    let mut positions = vec![
        Position::new(width / 3.0, height * 0.5),
        Position::new(2.0 * width / 3.0, height * 0.5),
    ];
    let mut roles = vec![Role::AccessPoint, Role::AccessPoint];
    for r in 0..ROWS {
        for c in 0..COLS {
            let dx = (digs_sim::rng::uniform01(0xFAC7, u64::from(r), u64::from(c), 0) - 0.5) * 2.0;
            let dy = (digs_sim::rng::uniform01(0xFAC7, u64::from(r), u64::from(c), 1) - 0.5) * 2.0;
            positions.push(Position::new(f64::from(c) * PITCH + dx, f64::from(r) * PITCH + dy));
            roles.push(Role::FieldDevice);
        }
    }
    // Full CC2420 power: the 9 m machine-row pitch under the indoor model
    // needs the margin to keep per-hop PRR high.
    let rf = RfConfig { tx_power: digs_sim::rf::Dbm(0.0), ..RfConfig::indoor() };
    Topology::new("factory-floor", positions, roles).with_rf(rf)
}

/// Factory-floor scenario: 8 monitor flows @ 10 s sourced away from
/// the access points. 80 devices × 3 attempts = 240 Eq. 4 cells, so
/// the application slotframe is the 241-slot prime — at 2.41 s per
/// frame each device forwards at most ~1.2 pkt/s, which keeps the
/// DAG's shared relays below saturation and the 2–3 hop latency well
/// inside the monitor period (the earlier 14 × 9 hall at 457 slots sat
/// at the stability edge: median latency ≈ the period, and whole flows
/// starved whenever relays backlogged).
pub fn factory_floor(protocol: Protocol, flow_seed: u64) -> NetworkConfig {
    let topology = factory_floor_topology();
    let flows = delay_flows(far_flow_set(&topology, 8, 1000, flow_seed), WARMUP_SECS);
    let slotframes = digs_scheduling::SlotframeLengths {
        app: 241,
        ..digs_scheduling::SlotframeLengths::paper()
    };
    NetworkConfig::builder(topology)
        .protocol(protocol)
        .slotframes(slotframes)
        .seed(flow_seed.wrapping_mul(0xfac7) ^ 0x0F)
        .flows(flows)
        // 80 indoor devices churn through shadowed links for minutes
        // before ETX estimates settle; don't alert on the discovery
        // phase, and scale the churn-storm threshold to the device count
        // (discovery swaps 10–15 parents per epoch at this size).
        .health_settle_secs(300)
        .health_churn_storm(24)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interference_scenarios_have_jammers_and_flows() {
        let c = testbed_a_interference(Topology::testbed_a(), Protocol::Digs, 1);
        assert_eq!(c.flows.len(), 8);
        assert_eq!(c.jammers.len(), 3);
        assert!(c.flows.iter().all(|f| f.phase >= WARMUP_SECS * 100));
        let b = testbed_b_interference(Topology::testbed_b(), Protocol::Orchestra, 1);
        assert_eq!(b.flows.len(), 6);
        assert_eq!(b.jammers.len(), 3);
    }

    #[test]
    fn jammer_sweep_counts() {
        for n in 1..=4 {
            let c = testbed_a_jammer_sweep(Topology::testbed_a(), Protocol::Orchestra, n, 1);
            assert_eq!(c.jammers.len(), n);
        }
    }

    #[test]
    fn failure_scenario_spares_sources() {
        let c = testbed_a_node_failure(Topology::testbed_a(), Protocol::Digs, 3);
        let sources: Vec<NodeId> = c.flows.iter().map(|f| f.source).collect();
        for outage in c.faults.outages() {
            assert!(!sources.contains(&outage.node), "sources must not be failed");
        }
        assert_eq!(c.faults.outages().len(), 4);
    }

    #[test]
    fn central_relays_are_central() {
        let topo = Topology::testbed_a();
        let relays = central_relays(&topo, &[], 4);
        assert_eq!(relays.len(), 4);
        // All relays are closer to the centroid than the APs at the ends.
        for r in &relays {
            let p = topo.position(*r);
            assert!(p.x > 10.0 && p.x < 50.0, "relay {r} at {p}");
        }
    }

    #[test]
    fn fleet_templates_have_expected_shape() {
        let oil = oil_field(Protocol::Digs, 1);
        assert_eq!(oil.topology.len(), 47);
        assert_eq!(oil.topology.num_access_points(), 2);
        assert_eq!(oil.flows.len(), 6);
        assert_eq!(oil.slotframes.app, 149);
        assert!(oil.flows.iter().all(|f| f.phase >= WARMUP_SECS * 100));

        let factory = factory_floor(Protocol::Digs, 1);
        assert_eq!(factory.topology.len(), 82);
        assert_eq!(factory.topology.num_access_points(), 2);
        assert_eq!(factory.flows.len(), 8);
        // Eq. 4 needs A x devices = 240 distinct cells.
        assert_eq!(factory.slotframes.app, 241);
    }

    #[test]
    fn fleet_template_seeds_differ() {
        let a = oil_field(Protocol::Digs, 1);
        let b = oil_field(Protocol::Digs, 2);
        assert_ne!(a.seed, b.seed);
        let sources_a: Vec<NodeId> = a.flows.iter().map(|f| f.source).collect();
        let sources_b: Vec<NodeId> = b.flows.iter().map(|f| f.source).collect();
        assert_ne!(sources_a, sources_b, "flow seeds must select different source sets");
    }

    #[test]
    fn large_scale_matches_paper_numbers() {
        let c = large_scale(Protocol::Digs, 1);
        assert_eq!(c.topology.len(), 152);
        assert_eq!(c.flows.len(), 20);
        assert_eq!(c.jammers.len(), 5);
        assert!(c.flows.iter().all(|f| f.period == 1000));
    }

    #[test]
    fn the_attack_parks_one_adaptive_jammer_at_each_access_point() {
        let attack = testbed_a_adaptive_jam(Topology::testbed_a(), Protocol::Digs, 1);
        assert_eq!(attack.jammers.len(), 2);
        for j in &attack.jammers {
            assert!(
                matches!(j.kind, digs_sim::interference::JammerKind::Adaptive(_)),
                "attack jammers must be adaptive"
            );
            assert_eq!(j.start, Asn::from_secs(JAM_START_SECS));
        }
        assert_eq!(attack.resolve_randomize(), None);
    }

    #[test]
    fn flow_seeds_vary_flow_sets() {
        let a = testbed_a_interference(Topology::testbed_a(), Protocol::Digs, 1);
        let b = testbed_a_interference(Topology::testbed_a(), Protocol::Digs, 2);
        assert_ne!(
            a.flows.iter().map(|f| f.source).collect::<Vec<_>>(),
            b.flows.iter().map(|f| f.source).collect::<Vec<_>>()
        );
    }
}
