//! Set-ups more than one integration test runs.

use digs::config::{NetworkConfig, Protocol};
use digs::flows::flow_set_from_sources;
use digs::network::Network;
use digs_sim::ids::NodeId;
use digs_sim::topology::Topology;

/// Seed 21 on Testbed A with one flow (a packet every 5 s from 60 s) from
/// the first field device, counting from node 40, whose route after 90 s
/// of formation runs through a relay and has a backup parent: the network,
/// the source and its `(best, second)` parents. Which devices form such a
/// route depends on the order the network formed in, so the scenario looks
/// for one rather than naming it.
pub fn formed_relay_with_a_backup(trace_cap: Option<usize>) -> (Network, NodeId, NodeId, NodeId) {
    let topology = Topology::testbed_a();
    (40..topology.len() as u16)
        .chain(0..40)
        .map(NodeId)
        .filter(|id| !topology.is_access_point(*id))
        .find_map(|source| {
            let mut flows = flow_set_from_sources(&[source], 500);
            flows[0].phase += 6000;
            let mut config =
                NetworkConfig::builder(topology.clone()).protocol(Protocol::Digs).seed(21);
            if let Some(cap) = trace_cap {
                config = config.trace_cap(cap);
            }
            let mut network = Network::new(config.flows(flows).build());
            network.run_secs(90);
            let (best, second) = network.stacks()[source.index()].parents();
            let best = best.filter(|best| !topology.is_access_point(*best))?;
            Some((network, source, best, second?))
        })
        .expect("some field device routes through a relay with a backup parent")
}
