//! Property-based tests for the core crate's data structures.

use digs::flows::{flow_set_from_sources, random_flow_set, FlowSpec};
use digs::queue::BoundedQueue;
use digs::results::{FlowResult, RunResults};
use digs::timeline::delivery_timeline;
use digs_cases::cases;
use digs_sim::ids::{FlowId, NodeId};
use digs_sim::time::Asn;
use digs_sim::topology::Topology;

/// A flow's generation count over any horizon equals the number of
/// slots where `generates_at` fires.
#[test]
fn flow_counting_is_consistent() {
    cases(256, |d| {
        let period = d.int(1u64..500);
        let phase = d.int(0u64..500);
        let horizon = d.int(0u64..5000);
        let flow = FlowSpec { id: FlowId(0), source: NodeId(5), period, phase };
        let by_formula = flow.packets_by(Asn(horizon));
        let by_scan = (0..horizon).filter(|s| flow.generates_at(Asn(*s))).count() as u32;
        assert_eq!(by_formula, by_scan);
    });
}

/// Random flow sets always have distinct field-device sources and
/// in-period phases.
#[test]
fn random_flow_sets_wellformed() {
    cases(256, |d| {
        let n = d.int(1usize..16);
        let period = d.int(10u64..2000);
        let seed = d.int(0u64..50);
        let topo = Topology::testbed_a();
        let set = random_flow_set(&topo, n, period, seed);
        assert_eq!(set.len(), n);
        let mut sources = std::collections::HashSet::new();
        for (i, f) in set.iter().enumerate() {
            assert_eq!(f.id, FlowId(i as u16));
            assert!(sources.insert(f.source), "duplicate source");
            assert!(!topo.is_access_point(f.source));
            assert!(f.phase < period);
            assert_eq!(f.period, period);
        }
    });
}

/// The bounded queue never exceeds its capacity, holds exactly what
/// was accepted and not yet popped, and stays FIFO.
#[test]
fn queue_conservation() {
    cases(256, |d| {
        let capacity = d.int(1usize..32);
        let ops = d.vec(0..200, |d| d.bool());
        let mut q = BoundedQueue::new(capacity);
        let mut pushed = 0u64;
        let mut popped = 0u64;
        for is_push in ops {
            if is_push {
                if q.push(pushed) {
                    pushed += 1;
                }
            } else if q.pop().is_some() {
                popped += 1;
            }
            assert!(q.len() <= capacity);
        }
        assert_eq!(pushed - popped, q.len() as u64);
        // FIFO: drain and check monotone.
        let mut last = None;
        while let Some(v) = q.pop() {
            if let Some(prev) = last {
                assert!(v > prev);
            }
            last = Some(v);
        }
    });
}

/// The delivery timeline conserves packets: window sums equal the
/// flow totals, and window PDRs are valid ratios.
#[test]
fn timeline_conserves_packets() {
    cases(256, |d| {
        let generated = d.int(0u32..100);
        let loss_mask = d.u64();
        let window = d.int(1u64..60);
        let spec = FlowSpec { id: FlowId(0), source: NodeId(5), period: 700, phase: 3 };
        let delivered: std::collections::BTreeSet<u32> =
            (0..generated).filter(|seq| loss_mask & (1 << (seq % 64)) != 0).collect();
        let duration = Asn(spec.phase + u64::from(generated) * spec.period + 1);
        let results = RunResults {
            duration,
            flows: vec![FlowResult {
                flow: FlowId(0),
                source: NodeId(5),
                generated,
                delivered: delivered.len() as u32,
                delivered_seqs: delivered.clone(),
                latencies_ms: vec![50.0; delivered.len()],
            }],
            nodes: Vec::new(),
            parent_change_times: Vec::new(),
            retry_drops: 0,
            queue_drops: 0,
            invariant_violations: Vec::new(),
        };
        let timeline = delivery_timeline(&results, &[spec], window);
        let gen_sum: u32 = timeline.iter().map(|p| p.generated).sum();
        let del_sum: u32 = timeline.iter().map(|p| p.delivered).sum();
        assert_eq!(gen_sum, generated);
        assert_eq!(del_sum, delivered.len() as u32);
        for p in &timeline {
            assert!(p.delivered <= p.generated);
            if let Some(r) = p.pdr() {
                assert!((0.0..=1.0).contains(&r));
            }
        }
    });
}

/// Explicit flow sets preserve source order and stagger phases inside
/// the period.
#[test]
fn explicit_flow_sets_ordered() {
    cases(256, |d| {
        let k = d.int(1usize..10);
        let period = d.int(10u64..1000);
        let sources: Vec<NodeId> = (10..10 + k as u16).map(NodeId).collect();
        let set = flow_set_from_sources(&sources, period);
        for (i, f) in set.iter().enumerate() {
            assert_eq!(f.source, sources[i]);
            assert!(f.phase < period);
        }
    });
}
