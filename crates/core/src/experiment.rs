//! Experiment runners — one run, the live-relay failure runs, the
//! centralized baseline's recovery — and the measurements the scenario
//! catalogue derives from a run.

use crate::config::NetworkConfig;
use crate::network::Network;
use crate::results::RunResults;
use digs_sim::time::Asn;

/// Runs one configuration for `secs` simulated seconds and returns the
/// results.
pub fn run_for(config: NetworkConfig, secs: u64) -> RunResults {
    let mut network = Network::new(config);
    network.run_secs(secs);
    network.results()
}

/// Variant of [`run_node_failure`] with a pre-determined victim list: the
/// paper turns off the *same* four routing-graph nodes for both protocols,
/// so a comparison derives victims once (from a DiGS pilot run) and
/// applies them to both.
pub fn run_node_failure_with_victims(
    config: NetworkConfig,
    victims: &[digs_sim::ids::NodeId],
    failure_start_secs: u64,
    each_secs: u64,
    total_secs: u64,
) -> RunResults {
    assert!(failure_start_secs < total_secs, "failures must start before the run ends");
    let mut network = Network::new(config);
    network.run_secs(failure_start_secs);
    let plan =
        digs_sim::fault::FaultPlan::in_turn(victims, Asn::from_secs(failure_start_secs), each_secs);
    network.set_fault_plan(plan);
    network.run_secs(total_secs - failure_start_secs);
    network.results()
}

/// Outcome of a node-failure run: results plus the nodes that were failed.
#[derive(Debug, Clone)]
pub struct FailureRunOutcome {
    /// The run's metrics.
    pub results: RunResults,
    /// The relays that were switched off, in order.
    pub victims: Vec<digs_sim::ids::NodeId>,
    /// How many victims the caller asked for. When the live routing graph
    /// offered fewer distinct relays than requested (short paths, sources
    /// adjacent to access points), `victims.len() < victims_wanted` and the
    /// run exercised a milder failure scenario than intended.
    pub victims_wanted: usize,
}

/// Runs the paper's Fig. 11 node-failure experiment: the network forms and
/// carries traffic normally until `failure_start_secs`, then the current
/// best parents of the flow sources — genuine relays *on the live routing
/// graph* — are switched off in turn, `each_secs` apiece, and the run
/// continues to `total_secs`.
pub fn run_node_failure(
    config: NetworkConfig,
    failure_start_secs: u64,
    each_secs: u64,
    total_secs: u64,
    victims_wanted: usize,
) -> FailureRunOutcome {
    assert!(failure_start_secs < total_secs, "failures must start before the run ends");
    let mut network = Network::new(config);
    network.run_secs(failure_start_secs);

    // Victims: field devices on the flows' live forwarding paths (walk
    // each source's primary-parent chain toward the access points).
    let sources: Vec<digs_sim::ids::NodeId> =
        network.config().flows.iter().map(|f| f.source).collect();
    let topology = network.config().topology.clone();
    let mut victims = Vec::new();
    for src in &sources {
        let mut node = *src;
        for _hop in 0..10 {
            let (best, second) = network.stacks()[node.index()].parents();
            let Some(next) = best else { break };
            for candidate in [Some(next), second].into_iter().flatten() {
                if !topology.is_access_point(candidate)
                    && !sources.contains(&candidate)
                    && !victims.contains(&candidate)
                {
                    victims.push(candidate);
                }
            }
            if topology.is_access_point(next) {
                break;
            }
            node = next;
        }
    }
    victims.truncate(victims_wanted);
    if victims.len() < victims_wanted {
        eprintln!(
            "run_node_failure: only {} of {} requested victims found on the \
             live routing graph (short paths to the access points); the \
             failure scenario is milder than requested",
            victims.len(),
            victims_wanted
        );
    }

    let plan = digs_sim::fault::FaultPlan::in_turn(
        &victims,
        Asn::from_secs(failure_start_secs),
        each_secs,
    );
    network.set_fault_plan(plan);
    network.run_secs(total_secs - failure_start_secs);
    FailureRunOutcome { results: network.results(), victims, victims_wanted }
}

/// Runs the centralized baseline through a relay failure *including* the
/// manager's recovery: the relay dies at `failure_start_secs`, the manager
/// detects it, runs a full update cycle (whose duration comes from the
/// Fig. 3 cost model), and re-provisions the network with a schedule that
/// routes around the dead relay. Returns the results and the modelled
/// update delay in seconds.
///
/// # Errors
///
/// Returns the [`digs_whart::schedule::ScheduleError`] when the flows
/// cannot be scheduled initially, or when the victim's removal leaves a
/// flow with no route to an access point (a partitioning failure the
/// manager cannot recover from).
///
/// # Panics
///
/// Panics if the config is not [`crate::config::Protocol::WirelessHart`].
pub fn run_whart_with_recovery(
    config: NetworkConfig,
    victim: digs_sim::ids::NodeId,
    failure_start_secs: u64,
    total_secs: u64,
) -> Result<(RunResults, f64), digs_whart::schedule::ScheduleError> {
    assert_eq!(config.protocol, crate::config::Protocol::WirelessHart);
    let sources: Vec<_> = config.flows.iter().map(|f| f.source).collect();
    let superframe = config.flows.iter().map(|f| f.period).max().unwrap_or(500) as u32;

    let mut network = Network::new(config);
    // Model the manager's reaction with the Fig. 3 cost model.
    let db = digs_whart::LinkDb::from_link_model(network.engine().link_model());
    let mut manager = digs_whart::NetworkManager::new(
        db,
        network.config().topology.access_points(),
        digs_whart::UpdateCostConfig::default(),
    );
    manager.full_update(&sources, superframe)?;

    network.run_secs(failure_start_secs);
    network.set_fault_plan(
        digs_sim::fault::FaultPlan::none()
            .with(digs_sim::fault::Outage::permanent(victim, Asn::from_secs(failure_start_secs))),
    );
    let report = manager.on_node_failure(victim, &sources, superframe)?;
    let delay_secs = report.total_secs().ceil() as u64;

    // The network limps on the stale schedule until the update lands.
    let recovery_at = failure_start_secs + delay_secs;
    if recovery_at < total_secs {
        network.run_secs(recovery_at - failure_start_secs);
        // A successful update always stores the recomputed schedule.
        if let Some(schedule) = manager.schedule() {
            network.reprovision_wirelesshart(schedule);
        }
        network.run_secs(total_secs - recovery_at);
    } else {
        network.run_secs(total_secs - failure_start_secs);
    }
    Ok((network.results(), report.total_secs()))
}

/// PDR of one flow restricted to the packets generated at or after
/// `window_start_slot` — the Fig. 5 "PDR during repair" metric, where the
/// window starts when the jammers switch on. `None` when the flow
/// generated nothing inside the window.
pub fn windowed_flow_pdr(
    flow: &crate::results::FlowResult,
    spec: &crate::flows::FlowSpec,
    window_start_slot: u64,
) -> Option<f64> {
    let first_seq = window_start_slot.saturating_sub(spec.phase).div_ceil(spec.period) as u32;
    if flow.generated <= first_seq {
        return None;
    }
    let in_window = first_seq..flow.generated;
    let total = in_window.len() as f64;
    let delivered = in_window.filter(|seq| flow.seq_delivered(*seq)).count() as f64;
    Some(delivered / total)
}

/// Picks a relay on the centralized schedule's uplink paths: the first
/// flow source's best parent that is neither an access point nor itself a
/// source. Derived from the link *model* (not a live run), so all three
/// protocol stacks can be failed at the same node — the shared victim of
/// the three-way comparison. `None` when every flow is single-hop.
pub fn shared_relay_victim(cfg: &NetworkConfig) -> Option<digs_sim::ids::NodeId> {
    let engine = digs_sim::engine::Engine::new(cfg.topology.clone(), cfg.rf.clone(), cfg.seed);
    let db = digs_whart::LinkDb::from_link_model(engine.link_model());
    let graph = digs_whart::build_uplink_graph(&db, &cfg.topology.access_points());
    let sources: Vec<digs_sim::ids::NodeId> = cfg.flows.iter().map(|f| f.source).collect();
    sources.iter().find_map(|s| {
        graph
            .entry(*s)
            .and_then(|e| e.best)
            .filter(|p| !cfg.topology.is_access_point(*p) && !sources.contains(p))
    })
}
