//! `run`, `topology`, `graph`, `manager`: one network, run in-process.

use crate::flags::Args;
use digs_digsd::{rf_for, topology_from, SingleSpec};
use digs_json::Value;
use digs_sim::analysis::TopologyAnalysis;
use digs_sim::link::LinkModel;
use digs_sim::topology::Topology;
use digs_whart::{LinkDb, NetworkManager, UpdateCostConfig, UpdateReport};

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

/// `run --json`: the results as one object, fields in declaration order,
/// ids and ASNs as plain numbers, non-finite floats as `null`.
fn results_json(results: &digs::results::RunResults) -> Value {
    let int = Value::Int;
    let flows = results.flows.iter().map(|f| {
        Value::Obj(vec![
            ("flow".into(), int(f.flow.0.into())),
            ("source".into(), int(f.source.0.into())),
            ("generated".into(), int(f.generated.into())),
            ("delivered".into(), int(f.delivered.into())),
            (
                "delivered_seqs".into(),
                Value::Arr(f.delivered_seqs.iter().map(|s| int((*s).into())).collect()),
            ),
            (
                "latencies_ms".into(),
                Value::Arr(f.latencies_ms.iter().map(|l| Value::num(*l)).collect()),
            ),
        ])
    });
    let nodes = results.nodes.iter().map(|n| {
        Value::Obj(vec![
            ("node".into(), int(n.node.0.into())),
            ("energy_mj".into(), Value::num(n.energy_mj)),
            ("mean_power_mw".into(), Value::num(n.mean_power_mw)),
            ("duty_cycle".into(), Value::num(n.duty_cycle)),
            ("tx_us".into(), int(n.tx_us)),
            ("rx_us".into(), int(n.rx_us)),
            ("joined_at".into(), n.joined_at.map_or(Value::Null, |t| int(t.0))),
            ("parent_changes".into(), int(n.parent_changes as u64)),
        ])
    });
    let violations = results.invariant_violations.iter().map(|v| {
        Value::Obj(vec![
            ("kind".into(), Value::Str(format!("{:?}", v.kind))),
            ("asn".into(), int(v.asn.0)),
            ("node".into(), int(v.node.0.into())),
            ("detail".into(), Value::Str(v.detail.clone())),
        ])
    });
    Value::Obj(vec![
        ("duration".into(), int(results.duration.0)),
        ("flows".into(), Value::Arr(flows.collect())),
        ("nodes".into(), Value::Arr(nodes.collect())),
        (
            "parent_change_times".into(),
            Value::Arr(results.parent_change_times.iter().map(|t| int(t.0)).collect()),
        ),
        ("retry_drops".into(), int(results.retry_drops)),
        ("queue_drops".into(), int(results.queue_drops)),
        ("invariant_violations".into(), Value::Arr(violations.collect())),
    ])
}

pub fn run(args: &Args) -> Result<(), String> {
    let spec = single_spec(args, SingleSpec::default().secs)?;
    let mut network = spec.build()?;
    network.run_secs(spec.secs);
    let results = network.results();
    if args.switch("json") {
        print!("{}", results_json(&results).to_pretty());
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
    let analysis = TopologyAnalysis::new(&topology, &rf_for(&topology));
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
    let model = LinkModel::new(topology, rf_for(topology), 1);
    let db = LinkDb::from_link_model(&model);
    let mut manager =
        NetworkManager::new(db, topology.access_points(), UpdateCostConfig::default());
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
    use super::results_json;
    use digs::audit::{InvariantKind, InvariantViolation};
    use digs::results::{FlowResult, NodeResult, RunResults};
    use digs_json::{parse, Value};
    use digs_sim::ids::{FlowId, NodeId};
    use digs_sim::time::Asn;

    #[test]
    fn run_json_round_trips_and_nulls_non_finite_floats() {
        let results = RunResults {
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
        };
        let value = results_json(&results);
        assert_eq!(parse(&value.to_pretty()).expect("output parses"), value);
        let node = &value.field("nodes").and_then(Value::as_arr).expect("nodes")[0];
        assert_eq!(node.field("mean_power_mw"), Some(&Value::Null));
        assert_eq!(node.field("joined_at"), Some(&Value::Null));
        let violation = &value.field("invariant_violations").and_then(Value::as_arr).expect("v")[0];
        assert_eq!(violation.field("kind").and_then(Value::as_str), Some("QueueBound"));
        let flow = &value.field("flows").and_then(Value::as_arr).expect("flows")[0];
        assert_eq!(flow.field("delivered_seqs"), Some(&Value::Arr(vec![Value::Num(1.0)])));
    }
}
