//! `run`, `topology`, `graph`, `manager`: one network, run in-process.

use crate::flags::Args;
use digs_digsd::{topology_from, SingleSpec};
use digs_json::message::Rows;
use digs_sim::analysis::TopologyAnalysis;
use digs_sim::link::LinkModel;
use digs_sim::topology::Topology;
use digs_whart::{LinkDb, NetworkManager, UpdateReport};

/// The run flags as a [`SingleSpec`] — the one "options → network" code
/// path shared with the daemon, so a local run and a `digsd launch` of
/// the same flags are the same network. `default_secs` is the calling
/// command's run length when `--secs` is absent.
pub(crate) fn single_spec(args: &Args, default_secs: u64) -> Result<SingleSpec, String> {
    let d = SingleSpec::default();
    Ok(SingleSpec {
        topology: args.get("topology")?.unwrap_or(d.topology),
        protocol: args.get("protocol")?.unwrap_or(d.protocol),
        seed: args.get("seed")?.unwrap_or(d.seed),
        flows: args.get("flows")?.unwrap_or(d.flows),
        period_ms: args.get("period-ms")?.unwrap_or(d.period_ms),
        secs: args.get("secs")?.unwrap_or(default_secs),
        jammers: args.get("jammers")?.unwrap_or(d.jammers),
        adaptive_jam: args.get("adaptive-jam")?,
        randomize: args.get("randomize")?,
        ..d
    })
}

pub fn run(args: &Args) -> Result<(), String> {
    let spec = single_spec(args, SingleSpec::default().secs)?;
    let mut network = spec.build()?;
    network.run_secs(spec.secs);
    let results = network.results();
    if args.switch("json") {
        print!("{}", results.to_value().to_pretty());
        return Ok(());
    }
    println!("protocol        : {}", network.config().protocol.name());
    println!("topology        : {}", network.config().topology.name());
    println!("simulated       : {} s", spec.secs);
    println!("joined fraction : {:.3}", results.fraction_joined());
    println!("network PDR     : {:.3}", results.network_pdr());
    println!("worst flow PDR  : {:.3}", results.worst_flow_pdr());
    if let Some(lat) = results.median_latency_ms() {
        println!("median latency  : {lat:.0} ms");
    }
    println!("power/packet    : {:.4} mW", results.power_per_received_packet_mw());
    println!("parent changes  : {}", results.parent_change_times.len());
    println!("drops           : {} retry, {} queue", results.retry_drops, results.queue_drops);
    for flow in &results.flows {
        println!(
            "  {} src {}: {}/{} (PDR {:.2})",
            flow.flow,
            flow.source,
            flow.delivered,
            flow.generated,
            flow.pdr()
        );
    }
    Ok(())
}

pub fn topology(args: &Args) -> Result<(), String> {
    let name: Option<String> = args.get("topology")?;
    let topology = topology_from(name.as_deref().unwrap_or("testbed-a"))?;
    println!("name          : {}", topology.name());
    println!("nodes         : {}", topology.len());
    println!(
        "access points : {:?}",
        topology.access_points().iter().map(|a| a.0).collect::<Vec<_>>()
    );
    // Link census from the mean-RSS oracle, under the radio model the
    // topology's runs use.
    let analysis = TopologyAnalysis::new(&topology, topology.rf());
    let usable: usize = topology.node_ids().map(|n| analysis.degree(n)).sum::<usize>() / 2;
    let n = topology.len();
    println!("usable links  : {usable} of {} pairs (mean-RSS ≥ RSSmin)", n * (n - 1) / 2);
    println!("mean degree   : {:.1}", analysis.mean_degree());
    println!("connected     : {}", if analysis.is_connected() { "yes" } else { "no" });
    Ok(())
}

pub fn graph(args: &Args) -> Result<(), String> {
    let spec = single_spec(args, 150)?;
    let mut network = spec.build()?;
    network.run_secs(spec.secs);
    let graph = network.routing_graph();
    println!(
        "after {} s: joined {:.0}%, backup coverage {:.0}%, DAG: {}, reachable: {}",
        spec.secs,
        graph.fraction_joined() * 100.0,
        graph.fraction_with_backup() * 100.0,
        graph.is_dag(),
        graph.all_reachable()
    );
    for node in graph.nodes() {
        let e = graph.entry(node).expect("recorded");
        println!(
            "  {node}: {} best={} second={}",
            e.rank,
            e.best.map_or("-".to_string(), |p| p.to_string()),
            e.second.map_or("-".to_string(), |p| p.to_string()),
        );
    }
    Ok(())
}

/// One full update cycle of the centralized manager — Fig. 3's cost model —
/// with flows from the `flows` farthest field devices (multi-hop flows, as
/// in the paper's workloads).
pub(crate) fn manager_update(
    topology: &Topology,
    flows: usize,
) -> Result<(NetworkManager, UpdateReport), String> {
    let model = LinkModel::new(topology, topology.rf().clone(), 1);
    let db = LinkDb::from_link_model(&model);
    let mut manager = NetworkManager::new(db, topology.access_points());
    let mut sources = topology.field_devices();
    sources.reverse();
    sources.truncate(flows);
    let report =
        manager.full_update(&sources, 1000).map_err(|e| format!("scheduling failed: {e}"))?;
    Ok((manager, report))
}

pub fn manager(args: &Args) -> Result<(), String> {
    let name: Option<String> = args.get("topology")?;
    let topology = topology_from(name.as_deref().unwrap_or("testbed-a"))?;
    let (manager, report) = manager_update(&topology, args.get("flows")?.unwrap_or(8))?;
    println!("centralized WirelessHART update cycle for {}:", topology.name());
    println!("  {report}");
    let schedule = manager.schedule().expect("just computed");
    println!("  schedule cells: {}", schedule.cells().len());
    println!("  conflict-free : {}", schedule.is_conflict_free());
    Ok(())
}

#[cfg(test)]
mod tests {
    use digs::audit::{InvariantKind, InvariantViolation};
    use digs::results::{FlowResult, NodeResult, RunResults};
    use digs_json::message::Rows;
    use digs_json::{parse, Value};
    use digs_sim::ids::{FlowId, NodeId};
    use digs_sim::time::Asn;

    /// A run that reaches every row: a delivered and a lost packet, a node
    /// that never joined, a non-finite power, an invariant violation.
    fn synthetic() -> RunResults {
        RunResults {
            duration: Asn(100),
            flows: vec![FlowResult {
                flow: FlowId(0),
                source: NodeId(3),
                generated: 2,
                delivered: 1,
                delivered_seqs: [1].into(),
                latencies_ms: vec![120.0],
            }],
            nodes: vec![NodeResult {
                node: NodeId(3),
                energy_mj: 1.5,
                mean_power_mw: f64::INFINITY,
                duty_cycle: 0.25,
                tx_us: 10,
                rx_us: 20,
                joined_at: None,
                parent_changes: 1,
            }],
            parent_change_times: vec![Asn(7)],
            retry_drops: 1,
            queue_drops: 0,
            invariant_violations: vec![InvariantViolation {
                kind: InvariantKind::QueueBound,
                asn: Asn(9),
                node: NodeId(3),
                detail: "9 > 8".into(),
            }],
        }
    }

    #[test]
    fn run_json_round_trips_and_nulls_non_finite_floats() {
        let results = synthetic();
        let value = results.to_value();
        assert_eq!(parse(&value.to_pretty()).expect("output parses"), value);
        let node = &value.field("nodes").and_then(Value::as_arr).expect("nodes")[0];
        assert_eq!(node.field("mean_power_mw"), Some(&Value::Null));
        assert_eq!(node.field("joined_at"), Some(&Value::Null));
        let violation = &value.field("invariant_violations").and_then(Value::as_arr).expect("v")[0];
        assert_eq!(violation.field("kind").and_then(Value::as_str), Some("QueueBound"));
        let flow = &value.field("flows").and_then(Value::as_arr).expect("flows")[0];
        assert_eq!(flow.field("delivered_seqs"), Some(&Value::Arr(vec![Value::Num(1.0)])));
    }

    fn pretty(results: &RunResults) -> String {
        results.to_value().to_pretty()
    }

    /// What `run --json` prints for [`synthetic`].
    const SYNTHETIC_PRETTY: &str = r#"{
  "duration": 100,
  "flows": [
    {
      "flow": 0,
      "source": 3,
      "generated": 2,
      "delivered": 1,
      "delivered_seqs": [
        1
      ],
      "latencies_ms": [
        120
      ]
    }
  ],
  "nodes": [
    {
      "node": 3,
      "energy_mj": 1.5,
      "mean_power_mw": null,
      "duty_cycle": 0.25,
      "tx_us": 10,
      "rx_us": 20,
      "joined_at": null,
      "parent_changes": 1
    }
  ],
  "parent_change_times": [
    7
  ],
  "retry_drops": 1,
  "queue_drops": 0,
  "invariant_violations": [
    {
      "kind": "QueueBound",
      "asn": 9,
      "node": 3,
      "detail": "9 > 8"
    }
  ]
}
"#;

    #[test]
    fn run_json_writes_its_pinned_bytes() {
        assert_eq!(pretty(&synthetic()), SYNTHETIC_PRETTY);
    }

    #[test]
    fn run_json_decodes_to_the_results_that_printed_it() {
        let mut results = synthetic();
        results.nodes[0].mean_power_mw = 2.5;
        results.nodes[0].joined_at = Some(Asn(42));
        results.flows[0].latencies_ms.push(0.1 + 0.2);
        let back = digs_json::message::decode_line(&pretty(&results), RunResults::take_fields);
        assert_eq!(back, Ok(results));
    }
}
