//! Recorders and the cloneable [`TraceHandle`] threaded through the engine
//! and protocol stacks.
//!
//! Tracing is off by default: a disabled handle is `None` inside, so every
//! instrumentation site pays exactly one null check (`is_on`) per potential
//! event. When enabled, events go into bounded per-node ring buffers
//! ([`RingRecorder`]) with a recorder-global sequence number that fixes the
//! total emission order.

use crate::event::{Event, EventKind, NETWORK_NODE};
use crate::ring::RingBuffer;
use std::sync::{Arc, Mutex};

/// Default per-node ring capacity when tracing is enabled programmatically
/// without an explicit capacity.
pub const DEFAULT_CAPACITY: usize = 4096;

/// Bounded per-node flight recorder.
///
/// Each node (plus the [`NETWORK_NODE`] sentinel) gets its own ring of
/// `cap` events, so one chatty node cannot evict another node's history.
/// The recorder assigns a global monotone `seq` to every event; merging all
/// rings and sorting by `seq` reconstructs the exact emission order.
#[derive(Debug)]
pub struct RingRecorder {
    cap: usize,
    next_seq: u64,
    /// Node `n`'s ring at `ring_index(n)`, grown on a node's first event.
    rings: Vec<RingBuffer<Event>>,
}

/// Where a node's ring sits: [`NETWORK_NODE`] (`u16::MAX`) at 0 and node `n`
/// at `n + 1`, so the sentinel does not stretch the table to 65 536 rings.
fn ring_index(node: u16) -> usize {
    usize::from(node.wrapping_add(1))
}

impl RingRecorder {
    /// Creates a recorder with the given per-node ring capacity.
    pub fn new(cap: usize) -> RingRecorder {
        RingRecorder { cap, next_seq: 0, rings: Vec::new() }
    }

    /// Per-node ring capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Total events currently retained across all rings.
    pub fn len(&self) -> usize {
        self.rings.iter().map(RingBuffer::len).sum()
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.rings.iter().all(RingBuffer::is_empty)
    }

    /// Events retained for one node, oldest-first.
    pub fn node_events(&self, node: u16) -> Vec<Event> {
        self.rings.get(ring_index(node)).map(RingBuffer::to_vec).unwrap_or_default()
    }

    /// All retained events merged across rings, in emission (`seq`) order.
    pub fn events(&self) -> Vec<Event> {
        self.events_since(0)
    }

    /// Retained events with `seq >= since`, in emission order. This is the
    /// incremental read a streaming subscriber uses: keep a cursor one past
    /// the last seq seen and call again. Events evicted from a ring before
    /// the cursor advanced past them are gone — the caller's flush cadence
    /// must outpace ring turnover for a gapless stream.
    ///
    /// Each ring is in `seq` order, so its new tail is found by bisection
    /// and only the tails are merged — by reference, each event cloned once
    /// in its final place: a call costs what it returns, not what the
    /// recorder retains.
    pub fn events_since(&self, since: u64) -> Vec<Event> {
        let mut tails: Vec<&Event> = Vec::new();
        for ring in &self.rings {
            let (older, newer) = ring.as_slices();
            for part in [older, newer] {
                tails.extend(&part[part.partition_point(|e| e.seq < since)..]);
            }
        }
        // Every seq is recorded once, so no two events tie.
        tails.sort_unstable_by_key(|e| e.seq);
        tails.into_iter().cloned().collect()
    }

    /// Drops all retained events (sequence numbering continues).
    pub fn clear(&mut self) {
        for ring in &mut self.rings {
            ring.clear();
        }
    }

    /// Stores one event under the next sequence number.
    pub fn record(&mut self, mut event: Event) {
        event.seq = self.next_seq;
        self.next_seq += 1;
        let at = ring_index(event.node);
        if at >= self.rings.len() {
            let cap = self.cap;
            self.rings.resize_with(at + 1, || RingBuffer::new(cap));
        }
        self.rings[at].push(event);
    }
}

/// Cheaply cloneable on/off switch around a shared [`RingRecorder`].
///
/// The engine and every protocol stack hold a clone; the harness keeps one
/// to export or analyse the trace afterwards. A disabled handle is a `None`
/// and costs one branch per instrumentation site.
#[derive(Debug, Clone, Default)]
pub struct TraceHandle(Option<Arc<Mutex<RingRecorder>>>);

impl TraceHandle {
    /// The disabled handle (the default).
    pub fn off() -> TraceHandle {
        TraceHandle(None)
    }

    /// An enabled handle with `cap` events retained per node. A capacity of
    /// zero yields a disabled handle.
    pub fn bounded(cap: usize) -> TraceHandle {
        if cap == 0 {
            TraceHandle(None)
        } else {
            TraceHandle(Some(Arc::new(Mutex::new(RingRecorder::new(cap)))))
        }
    }

    /// An enabled handle with the [`DEFAULT_CAPACITY`].
    pub fn on() -> TraceHandle {
        TraceHandle::bounded(DEFAULT_CAPACITY)
    }

    /// Whether events are being retained.
    #[inline]
    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Records one event (seq is assigned by the recorder; pass 0).
    #[inline]
    pub fn record(&self, asn: u64, node: u16, kind: EventKind) {
        if let Some(rec) = &self.0 {
            rec.lock().expect("trace recorder poisoned").record(Event { seq: 0, asn, node, kind });
        }
    }

    /// Records a run-scoped event on the [`NETWORK_NODE`] sentinel ring.
    #[inline]
    pub fn record_network(&self, asn: u64, kind: EventKind) {
        self.record(asn, NETWORK_NODE, kind);
    }

    /// All retained events in emission order (empty when off).
    pub fn events(&self) -> Vec<Event> {
        match &self.0 {
            Some(rec) => rec.lock().expect("trace recorder poisoned").events(),
            None => Vec::new(),
        }
    }

    /// Events retained for one node (empty when off).
    pub fn node_events(&self, node: u16) -> Vec<Event> {
        match &self.0 {
            Some(rec) => rec.lock().expect("trace recorder poisoned").node_events(node),
            None => Vec::new(),
        }
    }

    /// Retained events with `seq >= since`, in emission order (empty when
    /// off). See [`RingRecorder::events_since`].
    pub fn events_since(&self, since: u64) -> Vec<Event> {
        match &self.0 {
            Some(rec) => rec.lock().expect("trace recorder poisoned").events_since(since),
            None => Vec::new(),
        }
    }

    /// Drops all retained events.
    pub fn clear(&self) {
        if let Some(rec) = &self.0 {
            rec.lock().expect("trace recorder poisoned").clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::PacketId;
    use std::collections::BTreeMap;

    fn ev(kind: EventKind) -> EventKind {
        kind
    }

    #[test]
    fn off_handle_records_nothing() {
        let h = TraceHandle::off();
        assert!(!h.is_on());
        h.record(5, 1, EventKind::CcaDefer);
        assert!(h.events().is_empty());
    }

    #[test]
    fn bounded_zero_is_off() {
        assert!(!TraceHandle::bounded(0).is_on());
        assert!(TraceHandle::bounded(1).is_on());
    }

    #[test]
    fn seq_fixes_global_order_across_nodes() {
        let h = TraceHandle::bounded(8);
        h.record(0, 2, ev(EventKind::CcaDefer));
        h.record(0, 1, ev(EventKind::CcaDefer));
        h.record(1, 2, ev(EventKind::NodeReset));
        let all = h.events();
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].node, 2);
        assert_eq!(all[1].node, 1);
        assert_eq!(all[2].node, 2);
        assert_eq!(all.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn per_node_rings_isolate_eviction() {
        let h = TraceHandle::bounded(2);
        // Node 1 is chatty; node 2 logs once, early.
        h.record(0, 2, ev(EventKind::NodeReset));
        for asn in 0..10 {
            h.record(asn, 1, ev(EventKind::CcaDefer));
        }
        assert_eq!(h.node_events(2).len(), 1, "quiet node's history survives");
        assert_eq!(h.node_events(1).len(), 2, "chatty node capped at ring size");
    }

    #[test]
    fn clone_shares_the_recorder() {
        let h = TraceHandle::bounded(4);
        let h2 = h.clone();
        h2.record(
            3,
            0,
            ev(EventKind::Generated { packet: PacketId { flow: 0, seq: 1, origin: 0 } }),
        );
        assert_eq!(h.events().len(), 1);
        h.clear();
        assert!(h2.events().is_empty());
    }

    #[test]
    fn zero_capacity_ring_recorder_is_a_no_op() {
        let mut r = RingRecorder::new(0);
        for asn in 0..10 {
            r.record(Event { seq: 0, asn, node: 3, kind: EventKind::CcaDefer });
        }
        assert_eq!(r.capacity(), 0);
        assert_eq!(r.len(), 0);
        assert!(r.is_empty());
        assert!(r.events().is_empty());
        assert!(r.node_events(3).is_empty());
    }

    #[test]
    fn wrap_at_exact_capacity_keeps_newest_with_contiguous_seq() {
        let mut r = RingRecorder::new(4);
        // Fill exactly to capacity: nothing evicted, seqs start at 0.
        for asn in 0..4 {
            r.record(Event { seq: 0, asn, node: 1, kind: EventKind::CcaDefer });
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.events().iter().map(|e| e.seq).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        // One past capacity: the oldest is evicted, the retained window is
        // the newest four with still-contiguous sequence numbers.
        r.record(Event { seq: 0, asn: 4, node: 1, kind: EventKind::CcaDefer });
        let events = r.events();
        assert_eq!(events.len(), 4);
        assert_eq!(events.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![1, 2, 3, 4]);
        assert_eq!(events.iter().map(|e| e.asn).collect::<Vec<_>>(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn events_since_cursors_through_the_stream() {
        let h = TraceHandle::bounded(8);
        for asn in 0..5 {
            h.record(asn, (asn % 2) as u16, ev(EventKind::CcaDefer));
        }
        let first = h.events_since(0);
        assert_eq!(first.len(), 5);
        let cursor = first.last().unwrap().seq + 1;
        assert!(h.events_since(cursor).is_empty(), "cursor past the end yields nothing");
        h.record(9, 3, ev(EventKind::NodeReset));
        let next = h.events_since(cursor);
        assert_eq!(next.len(), 1);
        assert_eq!(next[0].node, 3);
        // Incremental reads concatenate to the full merged stream.
        let mut all = first;
        all.extend(next);
        assert_eq!(all, h.events());
    }

    #[test]
    fn events_since_equals_filtering_everything_retained() {
        digs_cases::cases(200, |d| {
            // Caps from 1 up, so some rings wrap many times and some never.
            let cap = d.int(1..=9);
            let mut r = RingRecorder::new(cap);
            let nodes = d.int(1u16..=5);
            let recorded = d.int(0u64..200);
            // Node `nodes`, when drawn quiet, logs `seq 0` and nothing after.
            let quiet = d.bool();
            let mut sent: BTreeMap<u16, Vec<Event>> = BTreeMap::new();
            for asn in 0..recorded {
                let node = if quiet && asn == 0 {
                    nodes
                } else if d.int(0..4) == 0 {
                    NETWORK_NODE
                } else {
                    d.int(0..nodes)
                };
                r.record(Event { seq: 0, asn, node, kind: EventKind::CcaDefer });
                let event = Event { seq: asn, asn, node, kind: EventKind::CcaDefer };
                sent.entry(node).or_default().push(event);
            }
            // Each ring keeps its node's newest `cap` events.
            let mut retained = Vec::new();
            for (node, events) in &sent {
                let kept = &events[events.len().saturating_sub(cap)..];
                assert_eq!(r.node_events(*node), kept, "node {node}");
                retained.extend_from_slice(kept);
            }
            assert!(r.node_events(1000).is_empty());
            assert_eq!(r.len(), retained.len());
            assert_eq!(r.is_empty(), retained.is_empty());
            if quiet && recorded > 0 {
                assert_eq!(r.node_events(nodes)[0].seq, 0, "the quiet ring keeps seq 0");
            }
            for since in (0..=recorded + 2).chain([u64::MAX]) {
                let mut old: Vec<Event> =
                    retained.iter().filter(|e| e.seq >= since).cloned().collect();
                old.sort_by_key(|e| e.seq);
                assert_eq!(r.events_since(since), old, "since {since}");
            }
        });
    }

    #[test]
    fn the_sentinel_ring_does_not_stretch_the_table() {
        let mut r = RingRecorder::new(4);
        r.record(Event { seq: 0, asn: 0, node: 0, kind: EventKind::CcaDefer });
        r.record(Event { seq: 0, asn: 1, node: NETWORK_NODE, kind: EventKind::CcaDefer });
        assert_eq!(r.rings.len(), 2, "node 0 and the network ring, nothing between");
        assert_eq!(r.node_events(NETWORK_NODE).len(), 1);
        assert_eq!(r.node_events(0).len(), 1);
    }
}
