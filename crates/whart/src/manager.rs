//! The centralized Network Manager and its update-cycle cost model.
//!
//! When the network experiences dynamics (node/link failure, topology
//! change) the manager must run a full cycle:
//!
//! 1. **collect** fresh health reports from every device (frames travel
//!    over the mesh, one management frame per hop),
//! 2. **recompute** the routing graph and the TDMA schedule,
//! 3. **disseminate** each device's routes and schedule slice back over
//!    the mesh.
//!
//! Management traffic in WirelessHART is confined to sparse management
//! slots (the advertisement/join superframe), so the collection and
//! dissemination phases dominate: at roughly one management frame per
//! second of mesh progress, updating a 50-node testbed takes minutes —
//! Fig. 3 reports 203 s / 506 s / 191 s / 443 s for the four topologies.
//! The cost model below reproduces that shape from the realized topology
//! depths and table sizes.

use crate::graph::build_uplink_graph;
use crate::linkdb::LinkDb;
use crate::schedule::{CentralSchedule, ScheduleError};
use core::fmt;
use digs_routing::graph::RoutingGraph;
use digs_sim::ids::NodeId;

// Cost-model parameters for a manager update cycle, calibrated once
// against Fig. 3.

/// Health-report frames each device sends per collection round.
const REPORT_FRAMES: u32 = 2;
/// Base frames to carry one device's route table downstream.
const ROUTE_TABLE_FRAMES: u32 = 2;
/// Schedule cells that fit in one dissemination frame.
const CELLS_PER_FRAME: u32 = 4;
/// Frames of fixed network-wide overhead per update cycle (superframe
/// reconfiguration broadcast and scheduled activation), independent of
/// network size.
const FIXED_OVERHEAD_FRAMES: u64 = 42;
/// Management frames the network can move per second (management slots
/// are sparse: WirelessHART dedicates roughly one advertisement/
/// management slot per second-long superframe).
const MGMT_FRAMES_PER_SECOND: f64 = 0.61;
/// Manager computation throughput, in graph-construction operations
/// per second (a fast host; compute is not the bottleneck).
const COMPUTE_OPS_PER_SECOND: f64 = 5e6;

/// Breakdown of one full manager update cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateReport {
    /// Mesh frames spent collecting health reports.
    pub collection_frames: u64,
    /// Mesh frames spent disseminating routes and schedules.
    pub dissemination_frames: u64,
    /// Abstract compute operations for graph + schedule construction.
    pub compute_ops: u64,
    /// Collection phase duration, seconds.
    pub collection_secs: f64,
    /// Compute phase duration, seconds.
    pub compute_secs: f64,
    /// Dissemination phase duration, seconds.
    pub dissemination_secs: f64,
}

impl UpdateReport {
    /// Total update-cycle duration, seconds — the quantity Fig. 3 plots.
    pub fn total_secs(&self) -> f64 {
        self.collection_secs + self.compute_secs + self.dissemination_secs
    }
}

impl fmt::Display for UpdateReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "update: {:.1}s (collect {:.1}s, compute {:.3}s, disseminate {:.1}s)",
            self.total_secs(),
            self.collection_secs,
            self.compute_secs,
            self.dissemination_secs
        )
    }
}

/// The centralized WirelessHART Network Manager.
#[derive(Debug, Clone)]
pub struct NetworkManager {
    db: LinkDb,
    roots: Vec<NodeId>,
    graph: RoutingGraph,
    schedule: Option<CentralSchedule>,
    updates: u64,
}

impl NetworkManager {
    /// Creates a manager over an initial link database.
    pub fn new(db: LinkDb, roots: Vec<NodeId>) -> NetworkManager {
        let graph = build_uplink_graph(&db, &roots);
        NetworkManager { db, roots, graph, schedule: None, updates: 0 }
    }

    /// The manager's current routing graph.
    pub fn graph(&self) -> &RoutingGraph {
        &self.graph
    }

    /// The manager's current schedule, if one has been computed.
    pub fn schedule(&self) -> Option<&CentralSchedule> {
        self.schedule.as_ref()
    }

    /// Number of full update cycles performed.
    pub fn updates_performed(&self) -> u64 {
        self.updates
    }

    /// Runs a full update cycle: collect → recompute → disseminate.
    ///
    /// `sources` are the data-flow sources to schedule and
    /// `superframe_len` the superframe length in slots.
    ///
    /// # Errors
    ///
    /// Propagates schedule-construction failures.
    pub fn full_update(
        &mut self,
        sources: &[NodeId],
        superframe_len: u32,
    ) -> Result<UpdateReport, ScheduleError> {
        // Recompute.
        self.graph = build_uplink_graph(&self.db, &self.roots);
        let schedule = CentralSchedule::build(&self.graph, sources, superframe_len)?;

        // Collection: every attached device sends `report_frames`, each
        // travelling depth hops to reach an access point.
        let collection_frames: u64 =
            self.graph.nodes().map(|n| u64::from(self.depth(n)) * u64::from(REPORT_FRAMES)).sum();

        // Dissemination: each device receives its route table plus its
        // slice of the schedule, again over depth hops.
        let dissemination_frames: u64 = self
            .graph
            .nodes()
            .map(|n| {
                let cells = schedule.cells_of(n).len() as u32;
                let frames = ROUTE_TABLE_FRAMES + cells.div_ceil(CELLS_PER_FRAME);
                u64::from(self.depth(n)) * u64::from(frames)
            })
            .sum();

        // Compute: graph construction is ~E log V; schedule ~cells × length
        // probes. Orders of magnitude only — it is minutes of mesh traffic
        // vs milliseconds of laptop compute, as in the paper.
        let e = self.db.num_links() as u64;
        let v = self.db.num_nodes().max(2) as u64;
        let compute_ops = e * v.ilog2() as u64 + schedule.cells().len() as u64 * 64;

        let dissemination_total = dissemination_frames + FIXED_OVERHEAD_FRAMES;
        let report = UpdateReport {
            collection_frames,
            dissemination_frames: dissemination_total,
            compute_ops,
            collection_secs: collection_frames as f64 / MGMT_FRAMES_PER_SECOND,
            compute_secs: compute_ops as f64 / COMPUTE_OPS_PER_SECOND,
            dissemination_secs: dissemination_total as f64 / MGMT_FRAMES_PER_SECOND,
        };
        self.schedule = Some(schedule);
        self.updates += 1;
        Ok(report)
    }

    /// Reacts to a reported node failure: scrubs the node from the link
    /// database and runs a full update (this is precisely what makes the
    /// centralized design slow).
    ///
    /// # Errors
    ///
    /// Propagates schedule-construction failures.
    pub fn on_node_failure(
        &mut self,
        failed: NodeId,
        sources: &[NodeId],
        superframe_len: u32,
    ) -> Result<UpdateReport, ScheduleError> {
        self.db.remove_node(failed);
        self.full_update(sources, superframe_len)
    }

    /// Hop depth of a device in the current graph (rank − 1; roots are 0).
    fn depth(&self, node: NodeId) -> u32 {
        self.graph.entry(node).map_or(0, |e| u32::from(e.rank.0.saturating_sub(1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use digs_sim::link::LinkModel;
    use digs_sim::rf::RfConfig;
    use digs_sim::topology::Topology;

    fn manager_for(topo: &Topology) -> NetworkManager {
        let model = LinkModel::new(topo, RfConfig::deterministic(), 1);
        let db = LinkDb::from_link_model(&model);
        NetworkManager::new(db, topo.access_points())
    }

    fn default_sources(topo: &Topology, k: usize) -> Vec<NodeId> {
        topo.field_devices().into_iter().rev().take(k).collect()
    }

    #[test]
    fn update_takes_minutes_at_testbed_scale() {
        let topo = Topology::testbed_a();
        let mut m = manager_for(&topo);
        let report = m.full_update(&default_sources(&topo, 8), 500).expect("schedulable");
        let t = report.total_secs();
        assert!((100.0..1200.0).contains(&t), "expected minutes-scale update, got {t:.1}s");
        assert!(report.compute_secs < 1.0, "compute is not the bottleneck");
        assert_eq!(m.updates_performed(), 1);
    }

    #[test]
    fn bigger_network_takes_longer() {
        let half = Topology::testbed_a_half();
        let full = Topology::testbed_a();
        let mut mh = manager_for(&half);
        let mut mf = manager_for(&full);
        let th = mh.full_update(&default_sources(&half, 8), 500).expect("ok").total_secs();
        let tf = mf.full_update(&default_sources(&full, 8), 500).expect("ok").total_secs();
        assert!(tf > th * 1.5, "full ({tf:.0}s) should dwarf half ({th:.0}s)");
    }

    #[test]
    fn node_failure_triggers_full_recompute() {
        let topo = Topology::testbed_a();
        let mut m = manager_for(&topo);
        let sources = default_sources(&topo, 8);
        m.full_update(&sources, 500).expect("ok");
        // Fail a relay that is not one of the sources.
        let victim = m.graph().nodes().find(|n| !sources.contains(n)).expect("some relay");
        let report = m.on_node_failure(victim, &sources, 500).expect("ok");
        assert!(report.total_secs() > 60.0);
        assert_eq!(m.updates_performed(), 2);
        assert!(m.graph().entry(victim).is_none(), "victim scrubbed");
    }

    #[test]
    fn schedule_is_stored_and_conflict_free() {
        let topo = Topology::testbed_a_half();
        let mut m = manager_for(&topo);
        m.full_update(&default_sources(&topo, 4), 500).expect("ok");
        let s = m.schedule().expect("present");
        assert!(s.is_conflict_free());
        assert!(!s.cells().is_empty());
    }

    #[test]
    fn report_display_mentions_phases() {
        let topo = Topology::testbed_a_half();
        let mut m = manager_for(&topo);
        let r = m.full_update(&default_sources(&topo, 4), 500).expect("ok");
        let s = r.to_string();
        assert!(s.contains("collect"));
        assert!(s.contains("disseminate"));
    }
}
