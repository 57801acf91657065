//! Cross-crate integration: the centralized WirelessHART baseline against
//! the distributed protocols and the paper's Fig. 3 claim.

use digs_sim::link::LinkModel;
use digs_sim::rf::RfConfig;
use digs_sim::topology::Topology;
use digs_whart::{build_uplink_graph, LinkDb, NetworkManager};

fn manager(topology: &Topology) -> NetworkManager {
    let model = LinkModel::new(topology, RfConfig::indoor(), 3);
    let db = LinkDb::from_link_model(&model);
    NetworkManager::new(db, topology.access_points())
}

fn sources(topology: &Topology, n: usize) -> Vec<digs_sim::ids::NodeId> {
    let mut devices = topology.field_devices();
    devices.reverse();
    devices.truncate(n);
    devices
}

#[test]
fn central_update_is_minutes_distributed_repair_is_seconds() {
    // Fig. 3's point: the centralized cycle takes minutes...
    let topology = Topology::testbed_a();
    let mut mgr = manager(&topology);
    let report = mgr.full_update(&sources(&topology, 8), 1000).expect("schedulable");
    assert!(report.total_secs() > 100.0, "centralized update {:.0}s", report.total_secs());

    // ...while the distributed protocol reacts to a failure within seconds
    // (here: the backup takes over without any global cycle at all), on
    // Fig. 11's network, whose four central relays fail in turn from 120 s.
    use digs::config::Protocol;
    use digs::scenarios::{testbed_a_node_failure, FAILURE_START_SECS};
    let config = testbed_a_node_failure(topology, Protocol::Digs, 3);
    let mut network = digs::network::Network::new(config);
    network.run_secs(300);
    let failure_start = digs_sim::time::Asn::from_secs(FAILURE_START_SECS);
    if let Some(repair) = network.results().repair_time_secs(failure_start, 1000) {
        assert!(
            repair < report.total_secs(),
            "distributed repair ({repair:.0}s) must beat the centralized cycle"
        );
    }
}

#[test]
fn update_cost_scales_with_network_size() {
    let half = Topology::testbed_a_half();
    let full = Topology::testbed_a();
    let t_half = manager(&half).full_update(&sources(&half, 8), 1000).expect("ok").total_secs();
    let t_full = manager(&full).full_update(&sources(&full, 8), 1000).expect("ok").total_secs();
    assert!(t_full > t_half, "{t_full} vs {t_half}");
}

#[test]
fn central_and_distributed_graphs_agree_on_structure() {
    let topology = Topology::testbed_a();
    let model = LinkModel::new(&topology, RfConfig::indoor(), 3);
    let db = LinkDb::from_link_model(&model);
    let central = build_uplink_graph(&db, &topology.access_points());
    assert!(central.is_dag());
    assert!(central.all_reachable());
    assert_eq!(central.len(), topology.field_devices().len());

    // The distributed protocol, run on the same channel realisation,
    // should attach the same node set.
    use digs::config::{NetworkConfig, Protocol};
    let config = NetworkConfig::builder(topology).protocol(Protocol::Digs).seed(3).build();
    let mut network = digs::network::Network::new(config);
    network.run_secs(150);
    let distributed = network.routing_graph();
    assert!(distributed.fraction_joined() > 0.95);
}

#[test]
fn failure_forces_full_central_recompute() {
    let topology = Topology::testbed_a();
    let mut mgr = manager(&topology);
    let srcs = sources(&topology, 8);
    let first = mgr.full_update(&srcs, 1000).expect("ok");
    let victim = mgr.graph().nodes().find(|n| !srcs.contains(n)).expect("relay exists");
    let second = mgr.on_node_failure(victim, &srcs, 1000).expect("ok");
    // The whole network must be re-collected and re-disseminated again.
    assert!(second.total_secs() > first.total_secs() * 0.5);
    assert_eq!(mgr.updates_performed(), 2);
}

#[test]
fn manager_recovery_restores_the_centralized_network() {
    use digs::config::{NetworkConfig, Protocol};
    use digs::experiment::run_whart_with_recovery;

    // Pick a source whose scheduled route genuinely relays through a
    // field device, and that relay as the victim.
    let topology = Topology::testbed_a();
    let rf = digs_sim::rf::RfConfig::indoor();
    let engine = digs_sim::engine::Engine::new(topology.clone(), rf, 6);
    let db = LinkDb::from_link_model(engine.link_model());
    let graph = build_uplink_graph(&db, &topology.access_points());
    let (source, relay) = topology
        .field_devices()
        .into_iter()
        .rev()
        .find_map(|candidate| {
            let relay = graph
                .entry(candidate)
                .and_then(|e| e.best)
                .filter(|p| !topology.is_access_point(*p))?;
            Some((candidate, relay))
        })
        .expect("some flow must be multi-hop on Testbed A");

    let mut flows = digs::flows::flow_set_from_sources(&[source], 500);
    flows[0].phase += 100;
    let config = NetworkConfig::builder(topology)
        .protocol(Protocol::WirelessHart)
        .seed(6)
        .flows(flows)
        .build();

    // Long run: the ~500 s manager cycle must fit inside it with margin.
    let (results, delay) = run_whart_with_recovery(config, relay, 120, 1500)
        .expect("losing one relay on Testbed A must not partition the flow");
    assert!(delay > 60.0, "manager cycles take minutes (got {delay:.0}s)");
    let flow = &results.flows[0];
    // Packets die during the outage window but flow again after recovery:
    // overall PDR sits strictly between "unaffected" and "dead after 120s".
    let dead_fraction = delay / (1500.0 - 1.0);
    assert!(flow.pdr() < 0.99, "the outage must cost something: {:.3}", flow.pdr());
    assert!(
        flow.pdr() > 1.0 - dead_fraction - 0.25,
        "recovery must restore delivery: pdr {:.3}, outage fraction {:.3}",
        flow.pdr(),
        dead_fraction
    );
    // Concretely: the last packets (post-recovery) are delivered again.
    let late_delivered = (flow.generated.saturating_sub(10)..flow.generated)
        .filter(|seq| flow.seq_delivered(*seq))
        .count();
    assert!(
        late_delivered >= 7,
        "post-recovery delivery should resume: {late_delivered}/10 of the last packets"
    );
}
