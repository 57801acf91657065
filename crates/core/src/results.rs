//! Run results: the paper's metrics computed from stack telemetry and the
//! engine's energy meters.

use digs_json::message;
use digs_json::message::{Kind, WireField};
use digs_json::Value;
use digs_sim::ids::{FlowId, NodeId};
use digs_sim::time::Asn;
use std::collections::BTreeSet;

macro_rules! number_fields {
    ($($(#[$meta:meta])* $marker:ident: $id:ident($inner:ty),)*) => {$(
        $(#[$meta])*
        pub(crate) struct $marker;

        impl WireField<$id> for $marker {
            const KIND: Kind = <$inner as WireField>::KIND;

            fn write(id: &$id, out: &mut String) {
                <$inner as WireField>::write(&id.0, out);
            }

            fn decode(key: &str, value: &Value) -> Result<$id, String> {
                <$inner as WireField>::decode(key, value).map($id)
            }
        }
    )*};
}

number_fields! {
    /// An [`Asn`] written as its slot number.
    AsnNumber: Asn(u64),
    /// A [`NodeId`] written as its number.
    NodeNumber: NodeId(u16),
    /// A [`FlowId`] written as its number.
    FlowNumber: FlowId(u16),
}

message! {
    /// Per-flow outcome of a run.
    #[derive(Debug, Clone, PartialEq)]
    pub struct FlowResult {
        /// The flow.
        flow: FlowId as FlowNumber,
        /// Its source device.
        source: NodeId as NodeNumber,
        /// Packets the source generated.
        generated: u32,
        /// Distinct packets that reached an access point.
        delivered: u32,
        /// Sequence numbers delivered (for the Fig. 9f / 11b micro-benchmarks).
        delivered_seqs: BTreeSet<u32>,
        /// End-to-end latency of each delivered packet (first copy), in ms.
        latencies_ms: Vec<f64>,
    }
}

impl FlowResult {
    /// End-to-end packet delivery ratio of the flow.
    pub fn pdr(&self) -> f64 {
        if self.generated == 0 {
            // A flow that generated nothing delivered everything it had.
            1.0
        } else {
            f64::from(self.delivered) / f64::from(self.generated)
        }
    }

    /// Whether the packet with sequence number `seq` was delivered.
    pub fn seq_delivered(&self, seq: u32) -> bool {
        self.delivered_seqs.contains(&seq)
    }
}

message! {
    /// Per-node outcome of a run.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct NodeResult {
        /// The node.
        node: NodeId as NodeNumber,
        /// Radio energy consumed, mJ.
        energy_mj: f64,
        /// Mean radio power, mW.
        mean_power_mw: f64,
        /// Radio duty cycle in `[0, 1]`.
        duty_cycle: f64,
        /// Microseconds the radio spent transmitting (energy breakdown).
        tx_us: u64,
        /// Microseconds the radio spent in receive/listen (energy breakdown).
        rx_us: u64,
        /// When the node joined the network (synced + parents), if it did.
        joined_at: Option<Asn> as Option<AsnNumber>,
        /// Number of parent-set changes.
        parent_changes: usize,
    }
}

message! {
    /// The complete outcome of one network run: what `run --json` prints,
    /// ids and ASNs as plain numbers, non-finite floats as `null`.
    #[derive(Debug, Clone, PartialEq)]
    pub struct RunResults {
        /// Run duration.
        duration: Asn as AsnNumber,
        /// Per-flow results, ordered by flow id.
        flows: Vec<FlowResult>,
        /// Per-node results, ordered by node id.
        nodes: Vec<NodeResult>,
        /// Every parent-change timestamp across all nodes (repair analysis).
        parent_change_times: Vec<Asn> as Vec<AsnNumber>,
        /// Packets dropped after exhausting retries, network-wide.
        retry_drops: u64,
        /// Packets dropped on queue overflow, network-wide.
        queue_drops: u64,
        /// Invariant violations recorded by the runtime auditor (empty when
        /// the run was not audited — see
        /// [`crate::network::Network::run_audited`]).
        invariant_violations: Vec<crate::audit::InvariantViolation>,
    }
}

impl RunResults {
    /// Mean PDR across flows — the flow-set PDR the paper's CDFs sample.
    pub fn network_pdr(&self) -> f64 {
        if self.flows.is_empty() {
            return 1.0;
        }
        self.flows.iter().map(FlowResult::pdr).sum::<f64>() / self.flows.len() as f64
    }

    /// The worst per-flow PDR.
    pub fn worst_flow_pdr(&self) -> f64 {
        self.flows.iter().map(FlowResult::pdr).fold(1.0, f64::min)
    }

    /// All delivered-packet latencies, ms.
    pub fn all_latencies_ms(&self) -> Vec<f64> {
        self.flows.iter().flat_map(|f| f.latencies_ms.iter().copied()).collect()
    }

    /// Median end-to-end latency, ms.
    pub fn median_latency_ms(&self) -> Option<f64> {
        let mut l = self.all_latencies_ms();
        if l.is_empty() {
            return None;
        }
        l.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        Some(digs_metrics::stats::percentile_sorted(&l, 50.0))
    }

    /// Total packets delivered.
    pub fn total_delivered(&self) -> u32 {
        self.flows.iter().map(|f| f.delivered).sum()
    }

    /// Total packets generated.
    pub fn total_generated(&self) -> u32 {
        self.flows.iter().map(|f| f.generated).sum()
    }

    /// Total network radio power (sum of per-node mean power), mW.
    pub fn total_mean_power_mw(&self) -> f64 {
        self.nodes.iter().map(|n| n.mean_power_mw).sum()
    }

    /// The paper's energy metric: network radio power divided by packets
    /// received, mW per packet (Figs. 9e, 10c, 11c). Infinite if nothing
    /// was delivered — exactly the regime where Orchestra's node-failure
    /// number explodes in Fig. 11c.
    pub fn power_per_received_packet_mw(&self) -> f64 {
        let delivered = self.total_delivered();
        if delivered == 0 {
            f64::INFINITY
        } else {
            self.total_mean_power_mw() / f64::from(delivered)
        }
    }

    /// Mean per-node radio duty cycle, percent.
    pub fn mean_duty_cycle_percent(&self) -> f64 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        self.nodes.iter().map(|n| n.duty_cycle).sum::<f64>() / self.nodes.len() as f64 * 100.0
    }

    /// The paper's Fig. 12c metric: mean radio duty cycle (percent) divided
    /// by packets received.
    pub fn duty_cycle_per_received_packet(&self) -> f64 {
        let delivered = self.total_delivered();
        if delivered == 0 {
            f64::INFINITY
        } else {
            self.mean_duty_cycle_percent() / f64::from(delivered)
        }
    }

    /// Join times of all nodes that joined, in seconds (Fig. 13).
    pub fn join_times_secs(&self) -> Vec<f64> {
        self.nodes.iter().filter_map(|n| n.joined_at).map(|asn| asn.as_secs_f64()).collect()
    }

    /// Fraction of nodes that joined.
    pub fn fraction_joined(&self) -> f64 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        self.nodes.iter().filter(|n| n.joined_at.is_some()).count() as f64 / self.nodes.len() as f64
    }

    /// Network repair time after an event at `event`: the time until the
    /// last parent change that is followed by at least `settle` quiet slots,
    /// in seconds. `None` if no repair activity followed the event (either
    /// nothing was disturbed, or the protocol routed around it without any
    /// parent change — instantaneous repair).
    pub fn repair_time_secs(&self, event: Asn, settle: u64) -> Option<f64> {
        let mut changes: Vec<u64> =
            self.parent_change_times.iter().filter(|t| **t >= event).map(|t| t.0).collect();
        changes.sort_unstable();
        changes.dedup();
        if changes.is_empty() {
            return None;
        }
        // Walk forward to the first change followed by at least `settle`
        // quiet slots (the end of the run counts as quiet): that marks the
        // end of the post-event reconfiguration burst.
        for i in 0..changes.len() {
            let quiet_until = changes.get(i + 1).copied().unwrap_or(self.duration.0);
            if quiet_until.saturating_sub(changes[i]) >= settle {
                let slots = changes[i].saturating_sub(event.0);
                return Some(slots as f64 * digs_sim::time::SLOT_MS as f64 / 1000.0);
            }
        }
        // Still churning at the end of the run: report the last change.
        let slots = changes.last().expect("non-empty").saturating_sub(event.0);
        Some(slots as f64 * digs_sim::time::SLOT_MS as f64 / 1000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(generated: u32, delivered_seqs: &[u32], latency: f64) -> FlowResult {
        FlowResult {
            flow: FlowId(0),
            source: NodeId(5),
            generated,
            delivered: delivered_seqs.len() as u32,
            delivered_seqs: delivered_seqs.iter().copied().collect(),
            latencies_ms: vec![latency; delivered_seqs.len()],
        }
    }

    fn node(power: f64, duty: f64, joined: Option<u64>) -> NodeResult {
        NodeResult {
            node: NodeId(0),
            energy_mj: power * 10.0,
            mean_power_mw: power,
            duty_cycle: duty,
            tx_us: 0,
            rx_us: 0,
            joined_at: joined.map(Asn),
            parent_changes: 0,
        }
    }

    fn results(flows: Vec<FlowResult>, nodes: Vec<NodeResult>) -> RunResults {
        RunResults {
            duration: Asn::from_secs(100),
            flows,
            nodes,
            parent_change_times: Vec::new(),
            retry_drops: 0,
            queue_drops: 0,
            invariant_violations: Vec::new(),
        }
    }

    #[test]
    fn pdr_arithmetic() {
        let r = results(
            vec![flow(10, &[0, 1, 2, 3, 4], 100.0), flow(10, &(0..10).collect::<Vec<_>>(), 50.0)],
            vec![],
        );
        assert!((r.network_pdr() - 0.75).abs() < 1e-12);
        assert!((r.worst_flow_pdr() - 0.5).abs() < 1e-12);
        assert_eq!(r.total_delivered(), 15);
        assert_eq!(r.total_generated(), 20);
    }

    #[test]
    fn empty_flow_counts_as_perfect() {
        let f = flow(0, &[], 0.0);
        assert_eq!(f.pdr(), 1.0);
    }

    #[test]
    fn power_per_packet() {
        let r = results(
            vec![flow(10, &[0, 1, 2, 3, 4], 100.0)],
            vec![node(2.0, 0.01, Some(100)), node(3.0, 0.02, Some(200))],
        );
        assert!((r.total_mean_power_mw() - 5.0).abs() < 1e-12);
        assert!((r.power_per_received_packet_mw() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn power_per_packet_infinite_when_disconnected() {
        let r = results(vec![flow(10, &[], 0.0)], vec![node(2.0, 0.01, None)]);
        assert!(r.power_per_received_packet_mw().is_infinite());
        assert!(r.duty_cycle_per_received_packet().is_infinite());
    }

    #[test]
    fn join_times() {
        let r = results(vec![], vec![node(1.0, 0.0, Some(1500)), node(1.0, 0.0, None)]);
        assert_eq!(r.join_times_secs(), vec![15.0]);
        assert!((r.fraction_joined() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn latency_median() {
        let mut r = results(vec![flow(4, &[0, 1], 100.0)], vec![]);
        r.flows[0].latencies_ms = vec![100.0, 300.0];
        assert_eq!(r.median_latency_ms(), Some(200.0));
        let empty = results(vec![flow(4, &[], 0.0)], vec![]);
        assert_eq!(empty.median_latency_ms(), None);
    }

    #[test]
    fn repair_time_finds_settled_change() {
        let mut r = results(vec![], vec![]);
        // Event at 1000; changes at 1100, 1150, 1200; quiet afterwards.
        r.parent_change_times = vec![Asn(1100), Asn(1150), Asn(1200)];
        r.duration = Asn(10_000);
        let t = r.repair_time_secs(Asn(1000), 500).expect("repaired");
        assert!((t - 2.0).abs() < 1e-9, "repair at 1200 − event 1000 = 200 slots = 2 s, got {t}");
    }

    #[test]
    fn repair_time_none_without_changes() {
        let r = results(vec![], vec![]);
        assert_eq!(r.repair_time_secs(Asn(1000), 500), None);
    }

    #[test]
    fn seq_delivered_queries() {
        let f = flow(5, &[0, 2, 4], 10.0);
        assert!(f.seq_delivered(0));
        assert!(!f.seq_delivered(1));
        assert!(f.seq_delivered(4));
    }
}
