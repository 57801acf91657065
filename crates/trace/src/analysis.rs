//! Analysis passes over a recorded event stream.
//!
//! Three consumers, matching the paper's evaluation style:
//!
//! - **Packet journeys** (Fig. 7/8 class): follow one data packet hop by
//!   hop, attributing per-hop queueing delay and retransmission counts, and
//!   summarize into a latency breakdown.
//! - **Churn timeline** (Fig. 4/5 class): the routing-repair story around
//!   each injected fault — parent switches, rank changes, cell churn.
//! - **Windows**: the bounded slice of events preceding an instant, used to
//!   triage the first invariant violation of a chaos soak.

use crate::event::{Event, EventKind, PacketId};
use std::collections::BTreeMap;

/// One hop of a packet's journey through the network.
#[derive(Debug, Clone, PartialEq)]
pub struct Hop {
    /// Node holding the packet on this hop.
    pub node: u16,
    /// Slot the packet entered this node's queue (origin: generation slot).
    pub enqueued_at: Option<u64>,
    /// Slot of the first transmission attempt from this node.
    pub first_tx_at: Option<u64>,
    /// Slot the hop's transmission was finally acknowledged.
    pub acked_at: Option<u64>,
    /// Number of transmission attempts made from this node.
    pub tx_attempts: u32,
    /// Number of unacknowledged attempts.
    pub nacks: u32,
    /// Distinct link-layer targets tried, in first-use order (more than one
    /// means the graph route diverted to a backup parent).
    pub targets: Vec<u16>,
}

impl Hop {
    fn new(node: u16) -> Hop {
        Hop {
            node,
            enqueued_at: None,
            first_tx_at: None,
            acked_at: None,
            tx_attempts: 0,
            nacks: 0,
            targets: Vec::new(),
        }
    }

    /// Slots spent queued before the first transmission attempt.
    pub fn queueing_slots(&self) -> Option<u64> {
        match (self.enqueued_at, self.first_tx_at) {
            (Some(e), Some(t)) => Some(t.saturating_sub(e)),
            _ => None,
        }
    }

    /// Slots spent retransmitting (first attempt to final ACK).
    pub fn retx_slots(&self) -> Option<u64> {
        match (self.first_tx_at, self.acked_at) {
            (Some(t), Some(a)) => Some(a.saturating_sub(t)),
            _ => None,
        }
    }
}

/// The reconstructed journey of one application packet.
#[derive(Debug, Clone, PartialEq)]
pub struct Journey {
    /// The packet.
    pub packet: PacketId,
    /// Slot the packet was generated (if the event is still in the ring).
    pub generated_at: Option<u64>,
    /// Slot the packet reached an access point.
    pub delivered_at: Option<u64>,
    /// End-to-end latency in slots, from the `Delivered` event.
    pub latency_slots: Option<u64>,
    /// Hops in traversal order.
    pub hops: Vec<Hop>,
}

impl Journey {
    /// Whether the journey is complete: generation and delivery both seen.
    pub fn is_complete(&self) -> bool {
        self.generated_at.is_some() && self.delivered_at.is_some()
    }

    /// Total transmission attempts across all hops.
    pub fn total_attempts(&self) -> u32 {
        self.hops.iter().map(|h| h.tx_attempts).sum()
    }

    /// Whether any hop tried more than one link-layer target (graph-route
    /// diversion to a backup parent).
    pub fn used_backup(&self) -> bool {
        self.hops.iter().any(|h| h.targets.len() > 1)
    }
}

/// Reconstructs per-packet journeys from an event stream.
///
/// Events must be in emission (`seq`) order, as returned by
/// `RingRecorder::events`. Ring eviction can amputate old hops; such
/// journeys come back incomplete rather than being dropped.
pub fn journeys(events: &[Event]) -> Vec<Journey> {
    let mut map: BTreeMap<PacketId, Journey> = BTreeMap::new();
    for event in events {
        let Some(packet) = event.kind.packet() else {
            continue;
        };
        let journey = map.entry(packet).or_insert_with(|| Journey {
            packet,
            generated_at: None,
            delivered_at: None,
            latency_slots: None,
            hops: Vec::new(),
        });
        let hop = |journey: &mut Journey, node: u16| -> usize {
            match journey.hops.iter().position(|h| h.node == node) {
                Some(i) => i,
                None => {
                    journey.hops.push(Hop::new(node));
                    journey.hops.len() - 1
                }
            }
        };
        match &event.kind {
            EventKind::Generated { .. } => {
                journey.generated_at = Some(event.asn);
                let i = hop(journey, event.node);
                journey.hops[i].enqueued_at.get_or_insert(event.asn);
            }
            EventKind::QueueEnq { .. } => {
                let i = hop(journey, event.node);
                journey.hops[i].enqueued_at.get_or_insert(event.asn);
            }
            EventKind::Tx { dst, .. } => {
                let i = hop(journey, event.node);
                let h = &mut journey.hops[i];
                h.tx_attempts += 1;
                h.first_tx_at.get_or_insert(event.asn);
                if let Some(d) = dst {
                    if !h.targets.contains(d) {
                        h.targets.push(*d);
                    }
                }
            }
            EventKind::Ack { .. } => {
                let i = hop(journey, event.node);
                journey.hops[i].acked_at = Some(event.asn);
            }
            EventKind::Nack { .. } => {
                let i = hop(journey, event.node);
                journey.hops[i].nacks += 1;
            }
            EventKind::Delivered { latency, .. } => {
                journey.delivered_at = Some(event.asn);
                journey.latency_slots = Some(*latency);
            }
            _ => {}
        }
    }
    map.into_values().collect()
}

/// Aggregate latency decomposition over a set of journeys (the Fig. 7/8
/// breakdown table).
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyBreakdown {
    /// Journeys considered.
    pub journeys: usize,
    /// Journeys with both generation and delivery observed.
    pub complete: usize,
    /// Mean end-to-end latency over complete journeys, in slots.
    pub mean_latency_slots: f64,
    /// Mean hop count over complete journeys.
    pub mean_hops: f64,
    /// Mean per-journey slots spent waiting in queues.
    pub mean_queue_slots: f64,
    /// Mean per-journey slots spent retransmitting.
    pub mean_retx_slots: f64,
    /// Mean transmission attempts per complete journey.
    pub mean_attempts: f64,
    /// Complete journeys that diverted to a backup parent on some hop.
    pub used_backup: usize,
}

/// Computes the latency breakdown over `journeys`.
pub fn latency_breakdown(journeys: &[Journey]) -> LatencyBreakdown {
    let complete: Vec<&Journey> = journeys.iter().filter(|j| j.is_complete()).collect();
    let n = complete.len() as f64;
    let mean = |f: &dyn Fn(&Journey) -> f64| -> f64 {
        if complete.is_empty() {
            0.0
        } else {
            complete.iter().map(|j| f(j)).sum::<f64>() / n
        }
    };
    LatencyBreakdown {
        journeys: journeys.len(),
        complete: complete.len(),
        mean_latency_slots: mean(&|j| j.latency_slots.unwrap_or(0) as f64),
        mean_hops: mean(&|j| j.hops.len() as f64),
        mean_queue_slots: mean(&|j| {
            j.hops.iter().filter_map(Hop::queueing_slots).sum::<u64>() as f64
        }),
        mean_retx_slots: mean(&|j| j.hops.iter().filter_map(Hop::retx_slots).sum::<u64>() as f64),
        mean_attempts: mean(&|j| j.total_attempts() as f64),
        used_backup: complete.iter().filter(|j| j.used_backup()).count(),
    }
}

/// Filters the routing-churn narrative out of an event stream: fault
/// injections/clears, resets, desyncs, parent switches, rank changes, and
/// dedicated-cell churn, in emission order.
pub fn churn_timeline(events: &[Event]) -> Vec<Event> {
    events
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                EventKind::FaultInject { .. }
                    | EventKind::FaultClear { .. }
                    | EventKind::NodeReset
                    | EventKind::ClockDesync
                    | EventKind::ParentSwitch { .. }
                    | EventKind::RankChange { .. }
                    | EventKind::CellAlloc { .. }
                    | EventKind::CellRelease { .. }
            )
        })
        .cloned()
        .collect()
}

/// One fault and the routing response observed after it (Fig. 4/5 class).
#[derive(Debug, Clone, PartialEq)]
pub struct RepairEpisode {
    /// The injection event.
    pub fault: Event,
    /// Slot the fault cleared, if a matching clear was seen.
    pub cleared_at: Option<u64>,
    /// Parent switches observed between this fault and the next injection.
    pub switches: Vec<Event>,
    /// Slots from injection to the first parent switch (the repair time
    /// proxy), if any switch happened.
    pub first_switch_after: Option<u64>,
}

/// Brackets each injected fault with the parent switches that follow it
/// (up to the next injection).
pub fn repair_episodes(events: &[Event]) -> Vec<RepairEpisode> {
    let mut episodes: Vec<RepairEpisode> = Vec::new();
    for event in events {
        match &event.kind {
            EventKind::FaultInject { .. } => episodes.push(RepairEpisode {
                fault: event.clone(),
                cleared_at: None,
                switches: Vec::new(),
                first_switch_after: None,
            }),
            EventKind::FaultClear { fault, peer } => {
                if let Some(ep) = episodes.iter_mut().rev().find(|ep| {
                    matches!(&ep.fault.kind, EventKind::FaultInject { fault: f, peer: p }
                        if f == fault && p == peer && ep.fault.node == event.node)
                }) {
                    ep.cleared_at.get_or_insert(event.asn);
                }
            }
            EventKind::ParentSwitch { .. } => {
                if let Some(ep) = episodes.last_mut() {
                    if ep.first_switch_after.is_none() {
                        ep.first_switch_after = Some(event.asn.saturating_sub(ep.fault.asn));
                    }
                    ep.switches.push(event.clone());
                }
            }
            _ => {}
        }
    }
    episodes
}

/// The events in the half-open ASN window `(end_asn - slots, end_asn]`, in
/// emission order — the flight-recorder dump taken around an invariant
/// violation.
pub fn window(events: &[Event], end_asn: u64, slots: u64) -> Vec<Event> {
    let cutoff = end_asn.checked_sub(slots);
    events
        .iter()
        .filter(|e| cutoff.is_none_or(|c| e.asn > c) && e.asn <= end_asn)
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{DropReason, FaultKind, TrafficClass};

    fn ev(seq: u64, asn: u64, node: u16, kind: EventKind) -> Event {
        Event { seq, asn, node, kind }
    }

    fn tx(dst: u16, packet: PacketId) -> EventKind {
        EventKind::Tx {
            dst: Some(dst),
            class: TrafficClass::Data,
            channel: 0,
            contention: false,
            packet: Some(packet),
        }
    }

    #[test]
    fn two_hop_journey_reconstructs() {
        let p = PacketId { flow: 0, seq: 5, origin: 8 };
        let events = vec![
            ev(0, 100, 8, EventKind::Generated { packet: p }),
            ev(1, 100, 8, EventKind::QueueEnq { packet: p, depth: 1 }),
            ev(2, 108, 8, tx(4, p)),
            ev(
                3,
                108,
                8,
                EventKind::Nack { dst: 4, reason: DropReason::FrameLost, packet: Some(p) },
            ),
            ev(4, 118, 8, tx(4, p)),
            ev(5, 118, 4, EventKind::Rx { src: 8, class: TrafficClass::Data, packet: Some(p) }),
            ev(6, 118, 8, EventKind::Ack { dst: 4, packet: Some(p) }),
            ev(7, 118, 8, EventKind::QueueDeq { packet: p, depth: 0 }),
            ev(8, 118, 4, EventKind::QueueEnq { packet: p, depth: 1 }),
            ev(9, 125, 4, tx(0, p)),
            ev(10, 125, 4, EventKind::Ack { dst: 0, packet: Some(p) }),
            ev(11, 125, 0, EventKind::Delivered { packet: p, latency: 25 }),
        ];
        let js = journeys(&events);
        assert_eq!(js.len(), 1);
        let j = &js[0];
        assert!(j.is_complete());
        assert_eq!(j.generated_at, Some(100));
        assert_eq!(j.delivered_at, Some(125));
        assert_eq!(j.latency_slots, Some(25));
        // Hops: origin 8 and relay 4 (the AP only logs the delivery).
        assert_eq!(j.hops.len(), 2);
        let h8 = &j.hops[0];
        assert_eq!(h8.node, 8);
        assert_eq!(h8.tx_attempts, 2);
        assert_eq!(h8.nacks, 1);
        assert_eq!(h8.queueing_slots(), Some(8));
        assert_eq!(h8.retx_slots(), Some(10));
        assert_eq!(h8.targets, vec![4]);
        let h4 = &j.hops[1];
        assert_eq!(h4.node, 4);
        assert_eq!(h4.tx_attempts, 1);
        assert_eq!(h4.queueing_slots(), Some(7));
        assert!(!j.used_backup());
        assert_eq!(j.total_attempts(), 3);
    }

    #[test]
    fn backup_parent_diversion_is_visible() {
        let p = PacketId { flow: 1, seq: 0, origin: 6 };
        let events = vec![
            ev(0, 10, 6, EventKind::Generated { packet: p }),
            ev(1, 12, 6, tx(3, p)),
            ev(
                2,
                12,
                6,
                EventKind::Nack { dst: 3, reason: DropReason::NoListener, packet: Some(p) },
            ),
            ev(3, 22, 6, tx(5, p)),
            ev(4, 22, 6, EventKind::Ack { dst: 5, packet: Some(p) }),
        ];
        let js = journeys(&events);
        assert_eq!(js[0].hops[0].targets, vec![3, 5]);
        assert!(js[0].used_backup());
        assert!(!js[0].is_complete(), "no delivery seen");
    }

    #[test]
    fn breakdown_averages_complete_journeys_only() {
        let p1 = PacketId { flow: 0, seq: 0, origin: 2 };
        let p2 = PacketId { flow: 0, seq: 1, origin: 2 };
        let events = vec![
            ev(0, 0, 2, EventKind::Generated { packet: p1 }),
            ev(1, 4, 2, tx(0, p1)),
            ev(2, 4, 2, EventKind::Ack { dst: 0, packet: Some(p1) }),
            ev(3, 4, 0, EventKind::Delivered { packet: p1, latency: 4 }),
            // p2 never delivered.
            ev(4, 10, 2, EventKind::Generated { packet: p2 }),
            ev(5, 14, 2, tx(0, p2)),
        ];
        let b = latency_breakdown(&journeys(&events));
        assert_eq!(b.journeys, 2);
        assert_eq!(b.complete, 1);
        assert!((b.mean_latency_slots - 4.0).abs() < 1e-9);
        assert!((b.mean_queue_slots - 4.0).abs() < 1e-9);
        assert_eq!(b.used_backup, 0);
    }

    #[test]
    fn empty_stream_yields_empty_breakdown() {
        let b = latency_breakdown(&journeys(&[]));
        assert_eq!(b.journeys, 0);
        assert_eq!(b.complete, 0);
        assert_eq!(b.mean_latency_slots, 0.0);
    }

    #[test]
    fn churn_timeline_filters_and_keeps_order() {
        let events = vec![
            ev(0, 1, 3, EventKind::CcaDefer),
            ev(1, 2, 3, EventKind::FaultInject { fault: FaultKind::Outage, peer: None }),
            ev(
                2,
                3,
                4,
                EventKind::ParentSwitch {
                    old_best: Some(3),
                    new_best: Some(5),
                    old_second: None,
                    new_second: None,
                },
            ),
            ev(3, 4, 4, EventKind::CcaDefer),
            ev(4, 5, 3, EventKind::FaultClear { fault: FaultKind::Outage, peer: None }),
        ];
        let churn = churn_timeline(&events);
        assert_eq!(churn.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![1, 2, 4]);
    }

    #[test]
    fn repair_episode_brackets_fault() {
        let events = vec![
            ev(0, 100, 3, EventKind::FaultInject { fault: FaultKind::Outage, peer: None }),
            ev(
                1,
                160,
                4,
                EventKind::ParentSwitch {
                    old_best: Some(3),
                    new_best: Some(5),
                    old_second: Some(5),
                    new_second: None,
                },
            ),
            ev(2, 200, 3, EventKind::FaultClear { fault: FaultKind::Outage, peer: None }),
            ev(3, 300, 7, EventKind::FaultInject { fault: FaultKind::Reboot, peer: None }),
        ];
        let eps = repair_episodes(&events);
        assert_eq!(eps.len(), 2);
        assert_eq!(eps[0].switches.len(), 1);
        assert_eq!(eps[0].first_switch_after, Some(60));
        assert_eq!(eps[0].cleared_at, Some(200));
        assert!(eps[1].switches.is_empty());
        assert_eq!(eps[1].cleared_at, None);
    }

    #[test]
    fn window_is_bounded_and_inclusive_of_end() {
        let events: Vec<Event> = (0..100).map(|i| ev(i, i, 0, EventKind::CcaDefer)).collect();
        let w = window(&events, 50, 10);
        assert_eq!(w.len(), 10);
        assert_eq!(w.first().unwrap().asn, 41);
        assert_eq!(w.last().unwrap().asn, 50);
        // Window larger than history: everything up to the end.
        let all = window(&events, 50, 1000);
        assert_eq!(all.len(), 51);
    }
}
