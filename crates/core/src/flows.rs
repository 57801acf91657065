//! End-to-end data flows.
//!
//! A flow is a periodic packet stream from a source field device to the
//! access points (the paper's uplink evaluation: sources generate one
//! packet every 5 s on the testbeds, 10 s in the large-scale simulation).
//! A *flow set* is the collection of concurrently running flows the paper
//! samples 300 (Testbed A), 220 (Testbed B), or 300 (Cooja) times.

use digs_sim::ids::{FlowId, NodeId};
use digs_sim::rng;
use digs_sim::time::Asn;
use digs_sim::topology::Topology;

/// One periodic data flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowSpec {
    /// Flow identifier (dense, 0-based within a run).
    pub id: FlowId,
    /// Source field device.
    pub source: NodeId,
    /// Packet generation period, in slots (500 = 5 s).
    pub period: u64,
    /// Generation phase offset, in slots (staggers sources).
    pub phase: u64,
}

impl FlowSpec {
    /// Whether the source generates a packet in this slot.
    pub fn generates_at(&self, asn: Asn) -> bool {
        asn.0 >= self.phase && (asn.0 - self.phase).is_multiple_of(self.period)
    }

    /// The first slot at or after `from` in which the source generates a
    /// packet.
    pub fn next_generation(&self, from: Asn) -> Asn {
        let since_phase = from.0.saturating_sub(self.phase);
        Asn(self.phase + since_phase.div_ceil(self.period) * self.period)
    }

    /// How many packets the flow generates in `[0, end)`.
    pub fn packets_by(&self, end: Asn) -> u32 {
        if end.0 <= self.phase {
            0
        } else {
            ((end.0 - self.phase - 1) / self.period + 1) as u32
        }
    }
}

/// Builds a flow set with `n` distinct sources drawn deterministically from
/// the topology's field devices, all with the given period and staggered
/// phases.
///
/// # Panics
///
/// Panics if the topology has fewer than `n` field devices or `period` is 0.
pub fn random_flow_set(topology: &Topology, n: usize, period: u64, seed: u64) -> Vec<FlowSpec> {
    assert!(period > 0, "flow period must be positive");
    let mut devices = topology.field_devices();
    assert!(devices.len() >= n, "not enough field devices for {n} flows");
    // Deterministic Fisher–Yates shuffle driven by the seed.
    for i in (1..devices.len()).rev() {
        let j = (rng::mix(seed, i as u64, 0xf10e, 3) % (i as u64 + 1)) as usize;
        devices.swap(i, j);
    }
    devices
        .into_iter()
        .take(n)
        .enumerate()
        .map(|(i, source)| FlowSpec {
            id: FlowId(i as u16),
            source,
            period,
            // Stagger phases evenly across the period.
            phase: (i as u64 * period) / n as u64,
        })
        .collect()
}

/// Builds a flow set from explicit sources (used by the worked examples
/// and micro-benchmarks that need fixed flows).
pub fn flow_set_from_sources(sources: &[NodeId], period: u64) -> Vec<FlowSpec> {
    assert!(period > 0, "flow period must be positive");
    sources
        .iter()
        .enumerate()
        .map(|(i, source)| FlowSpec {
            id: FlowId(i as u16),
            source: *source,
            period,
            phase: (i as u64 * period) / sources.len().max(1) as u64,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_schedule() {
        let f = FlowSpec { id: FlowId(0), source: NodeId(5), period: 500, phase: 100 };
        assert!(!f.generates_at(Asn(0)));
        assert!(f.generates_at(Asn(100)));
        assert!(!f.generates_at(Asn(101)));
        assert!(f.generates_at(Asn(600)));
    }

    #[test]
    fn closed_form_next_generation_agrees_with_generates_at() {
        digs_cases::cases(500, |d| {
            let (period, phase) = (d.int(1u64..=400), d.int(0u64..900));
            let f = FlowSpec { id: FlowId(0), source: NodeId(5), period, phase };
            let from = d.int(0u64..2_000);
            let brute = (from..).find(|a| f.generates_at(Asn(*a))).map(Asn);
            assert_eq!(Some(f.next_generation(Asn(from))), brute, "{f:?} from {from}");
        });
        // At, just before and just after a generation slot.
        let f = FlowSpec { id: FlowId(0), source: NodeId(5), period: 500, phase: 100 };
        assert_eq!(f.next_generation(Asn(0)), Asn(100));
        assert_eq!(f.next_generation(Asn(100)), Asn(100));
        assert_eq!(f.next_generation(Asn(101)), Asn(600));
        assert_eq!(f.next_generation(Asn(600)), Asn(600));
    }

    #[test]
    fn packets_by_counts_generations() {
        let f = FlowSpec { id: FlowId(0), source: NodeId(5), period: 500, phase: 100 };
        assert_eq!(f.packets_by(Asn(100)), 0);
        assert_eq!(f.packets_by(Asn(101)), 1);
        assert_eq!(f.packets_by(Asn(600)), 1);
        assert_eq!(f.packets_by(Asn(601)), 2);
        assert_eq!(f.packets_by(Asn(5101)), 11);
    }

    #[test]
    fn random_flow_sets_are_deterministic_and_distinct() {
        let topo = Topology::testbed_a();
        let a = random_flow_set(&topo, 8, 500, 1);
        let b = random_flow_set(&topo, 8, 500, 1);
        let c = random_flow_set(&topo, 8, 500, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let sources: std::collections::HashSet<NodeId> = a.iter().map(|f| f.source).collect();
        assert_eq!(sources.len(), 8, "sources must be distinct");
        for f in &a {
            assert!(!topo.is_access_point(f.source));
        }
    }

    #[test]
    fn phases_are_staggered() {
        let topo = Topology::testbed_a();
        let set = random_flow_set(&topo, 8, 500, 1);
        let phases: std::collections::HashSet<u64> = set.iter().map(|f| f.phase).collect();
        assert!(phases.len() > 4, "phases should spread");
        assert!(set.iter().all(|f| f.phase < 500));
    }

    #[test]
    fn explicit_sources_preserved_in_order() {
        let set = flow_set_from_sources(&[NodeId(9), NodeId(4)], 100);
        assert_eq!(set[0].source, NodeId(9));
        assert_eq!(set[1].source, NodeId(4));
        assert_eq!(set[0].id, FlowId(0));
        assert_eq!(set[1].id, FlowId(1));
    }

    #[test]
    #[should_panic(expected = "not enough field devices")]
    fn too_many_flows_panics() {
        let topo = Topology::testbed_a_half();
        let _ = random_flow_set(&topo, 100, 500, 1);
    }
}
