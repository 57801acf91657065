//! Cross-crate integration: behaviour under network dynamics — the
//! paper's central claims, checked end to end at reduced scale.

mod common;

use digs::config::{NetworkConfig, Protocol};
use digs::network::Network;
use digs::results::RunResults;
use digs::scenarios;
use digs_sim::time::Asn;
use digs_sim::topology::Topology;

/// Runs a config for `secs` simulated seconds.
fn run(config: NetworkConfig, secs: u64) -> RunResults {
    let mut network = Network::new(config);
    network.run_secs(secs);
    network.results()
}

#[test]
fn digs_survives_interference_better_than_orchestra() {
    // One flow set of the Fig. 9 scenario; shortened run. Single seeds are
    // noisy, so assert on the sum over two seeds.
    let mut digs_pdr = 0.0;
    let mut orch_pdr = 0.0;
    let testbed = Topology::testbed_a();
    for seed in [3u64, 4] {
        let digs = scenarios::testbed_a_interference(testbed.clone(), Protocol::Digs, seed);
        digs_pdr += run(digs, 330).network_pdr();
        let orch = scenarios::testbed_a_interference(testbed.clone(), Protocol::Orchestra, seed);
        orch_pdr += run(orch, 330).network_pdr();
    }
    assert!(
        digs_pdr > orch_pdr - 0.15,
        "DiGS ({digs_pdr:.3}) should not trail Orchestra ({orch_pdr:.3}) under interference"
    );
    assert!(digs_pdr / 2.0 > 0.6, "DiGS jammed PDR collapsed: {:.3}", digs_pdr / 2.0);
}

/// Fig. 11's network: the four central relays fail in turn from 120 s,
/// 60 s apiece, the same four for every protocol.
fn node_failure(protocol: Protocol, seed: u64, secs: u64) -> RunResults {
    run(scenarios::testbed_a_node_failure(Topology::testbed_a(), protocol, seed), secs)
}

#[test]
fn digs_tolerates_node_failure() {
    let results = node_failure(Protocol::Digs, 2, 360);
    assert!(results.network_pdr() > 0.85, "DiGS PDR under failure {:.3}", results.network_pdr());
}

#[test]
fn same_victims_leave_digs_worst_flow_within_a_tenth_of_orchestra() {
    let digs = node_failure(Protocol::Digs, 1, 400);
    let orch = node_failure(Protocol::Orchestra, 1, 400);
    assert!(
        digs.worst_flow_pdr() >= orch.worst_flow_pdr() - 0.1,
        "DiGS worst flow {:.3} vs Orchestra {:.3}",
        digs.worst_flow_pdr(),
        orch.worst_flow_pdr()
    );
}

#[test]
fn repair_telemetry_fires_under_jamming() {
    let sweep = scenarios::testbed_a_jammer_sweep(Topology::testbed_a(), Protocol::Orchestra, 3, 1);
    let results = run(sweep, 300);
    let after_jam = results
        .parent_change_times
        .iter()
        .filter(|t| **t >= Asn::from_secs(scenarios::JAM_START_SECS))
        .count();
    // Jamming at some point disturbs somebody's parent selection.
    assert!(after_jam > 0, "expected routing reaction to jamming");
    let repair = results.repair_time_secs(Asn::from_secs(scenarios::JAM_START_SECS), 1000);
    assert!(repair.is_some());
    assert!(repair.expect("checked") >= 0.0);
}

#[test]
fn jammed_network_still_has_a_valid_graph() {
    let config = scenarios::testbed_a_interference(Topology::testbed_a(), Protocol::Digs, 6);
    let mut network = Network::new(config);
    network.run_secs(300);
    let graph = network.routing_graph();
    assert!(graph.is_dag(), "interference must never create routing loops");
}

#[test]
fn disturbers_toggle_in_large_scale_scenario() {
    let config = scenarios::large_scale(Protocol::Digs, 1);
    assert_eq!(config.jammers.len(), 5);
    let j = &config.jammers[0];
    // 5-minute half period from the paper.
    assert_eq!(j.toggle_half_period, Some(300 * 100));
}

#[test]
fn rebooted_digs_relay_cold_starts_and_rejoins() {
    use digs::stack::ProtocolStack;
    use digs_sim::fault::{Fault, FaultPlan};

    // Form first, then cold-reboot a genuine relay on the flow's live
    // forwarding path: the node must come back with factory-fresh state,
    // re-execute the join (EB scan → rank → parents), re-register with a
    // parent, and the flow must deliver again once it has.
    let topology = Topology::testbed_a();
    let (mut network, source, _, _) = common::formed_relay_with_a_backup(None);
    network.run_secs(30);

    // Walk the source's primary-parent chain for a field-device relay.
    let mut relay = None;
    let mut node = source;
    for _hop in 0..10 {
        let (best, _) = network.stacks()[node.index()].parents();
        let Some(next) = best else { break };
        if topology.is_access_point(next) {
            break;
        }
        relay = Some(next);
        node = next;
    }
    let relay = relay.expect("the source routes through a relay");
    {
        let ProtocolStack::Digs(s) = &network.stacks()[relay.index()] else {
            unreachable!("the run is configured for DiGS");
        };
        assert!(s.is_joined(), "the relay must be part of the formed network");
    }

    network.set_fault_plan(FaultPlan::from_iter([Fault::reboot(
        relay,
        Asn::from_secs(125),
        Asn::from_secs(135),
    )]));
    // Just past the reboot's completion, the cold reset has fired: no
    // sync, no rank, no parents, no children — the join starts over.
    network.run_secs(16);
    {
        let ProtocolStack::Digs(s) = &network.stacks()[relay.index()] else {
            unreachable!();
        };
        assert!(!s.is_joined(), "a rebooted node must come back cold");
        assert_eq!(s.parents(), (None, None), "parents are factory-fresh");
        assert!(s.children_last_seen().is_empty(), "child table is factory-fresh");
    }

    // Given time, the reboot's join re-executes end to end.
    network.run_secs(224);
    let new_parent = {
        let ProtocolStack::Digs(s) = &network.stacks()[relay.index()] else {
            unreachable!();
        };
        assert!(s.is_joined(), "the rebooted relay must rejoin");
        let rejoined_at = s.routing().joined_at().expect("joined");
        assert!(
            rejoined_at >= Asn::from_secs(135),
            "the join must have been re-executed after the reboot, not inherited"
        );
        let (best, _) = s.parents();
        best.expect("parents re-selected")
    };

    // The relay re-registered with its (possibly new) parent: the
    // parent's child table lists it again, heard after the reboot.
    {
        let ProtocolStack::Digs(p) = &network.stacks()[new_parent.index()] else {
            unreachable!();
        };
        let children = p.children_last_seen();
        let heard = children.iter().find(|(c, _)| *c == relay);
        let (_, last_seen) = heard.expect("the parent's child table must list the rebooted relay");
        assert!(*last_seen >= Asn::from_secs(135), "registration must be post-reboot");
    }

    // And the flow delivers again: the last packets of the run arrive.
    let results = network.results();
    let flow = &results.flows[0];
    let late_delivered = (flow.generated.saturating_sub(10)..flow.generated)
        .filter(|seq| flow.seq_delivered(*seq))
        .count();
    assert!(
        late_delivered >= 7,
        "post-reboot delivery should resume: {late_delivered}/10 of the last packets"
    );
}

#[test]
fn digs_rides_through_a_primary_link_outage() {
    use digs_sim::fault::{Fault, FaultPlan};

    // Form first to find a real primary link, then break exactly that link
    // for a minute — the backup route should keep the flow alive.
    let (mut network, source, best, _) = common::formed_relay_with_a_backup(None);
    network.set_fault_plan(FaultPlan::from_iter([Fault::link(
        source,
        best,
        Asn::from_secs(120),
        Some(Asn::from_secs(180)),
    )]));
    network.run_secs(210);
    let results = network.results();
    assert!(
        results.network_pdr() > 0.8,
        "backup route should carry the flow through the link outage: {:.3}",
        results.network_pdr()
    );
}
