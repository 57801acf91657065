//! Experiment runners — the centralized baseline's recovery — and the
//! measurements the scenario catalogue derives from a run.

use crate::config::NetworkConfig;
use crate::network::Network;
use crate::results::RunResults;
use digs_sim::fault::Fault;
use digs_sim::time::Asn;

/// Runs the centralized baseline through a relay failure *including* the
/// manager's recovery: the relay dies at `failure_start_secs` (a permanent
/// outage added to the config's fault plan), the manager detects it, runs
/// a full update cycle (whose duration comes from the Fig. 3 cost model),
/// and re-provisions the network with a schedule that routes around the
/// dead relay. Returns the results and the modelled
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
    mut config: NetworkConfig,
    victim: digs_sim::ids::NodeId,
    failure_start_secs: u64,
    total_secs: u64,
) -> Result<(RunResults, f64), digs_whart::schedule::ScheduleError> {
    assert_eq!(config.protocol, crate::config::Protocol::WirelessHart);
    let sources: Vec<_> = config.flows.iter().map(|f| f.source).collect();
    let superframe = config.flows.iter().map(|f| f.period).max().unwrap_or(500) as u32;
    config.faults.push(Fault::outage(victim, Asn::from_secs(failure_start_secs), None));

    let mut network = Network::new(config);
    // Model the manager's reaction with the Fig. 3 cost model.
    let db = digs_whart::LinkDb::from_link_model(network.engine().link_model());
    let mut manager =
        digs_whart::NetworkManager::new(db, network.config().topology.access_points());
    manager.full_update(&sources, superframe)?;
    let report = manager.on_node_failure(victim, &sources, superframe)?;
    let delay_secs = report.total_secs().ceil() as u64;

    // The network limps on the stale schedule until the update lands.
    let recovery_at = failure_start_secs + delay_secs;
    if recovery_at < total_secs {
        network.run_secs(recovery_at);
        // A successful update always stores the recomputed schedule.
        if let Some(schedule) = manager.schedule() {
            network.reprovision_wirelesshart(schedule);
        }
        network.run_secs(total_secs - recovery_at);
    } else {
        network.run_secs(total_secs);
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
