//! Per-run event fan-out with bounded subscriber queues, stream sequence
//! numbers, and the run supervisor's restart policy.
//!
//! The simulation thread publishes frames; each subscriber owns a bounded
//! queue drained by its connection thread. The backpressure policy is the
//! daemon's one load-bearing promise: **publishing never blocks**. A full
//! queue counts a drop and moves on — a stalled TCP reader can lose
//! frames (visible in its heartbeats) but can never stall the engine or
//! other subscribers.
//!
//! Since wire v2 every payload frame carries a per-run `seq`, assigned
//! under the hub lock **whether or not anyone is subscribed** — the
//! stream position is a deterministic function of the run, not of
//! subscriber timing. Each subscription keeps a cursor (`next_seq`) of
//! the first sequence it still wants; a supervised restart or a journal
//! resume replays the run from sequence 0 and the cursor silently skips
//! the already-delivered prefix, which is how a subscription survives a
//! restart without duplicates (DESIGN §4.13).
//!
//! Frames move in batches. A run hands over its events one observer flush
//! at a time, and [`Hub::publish_batch`] keeps the flush together: one hub
//! lock, one lock per subscriber, one queue entry and one wake-up per
//! subscriber per batch. Inside the locks the rule is still applied frame
//! by frame, in order — filter, cursor skip, cursor advance, drop-newest at
//! the cap — so a batch leaves every subscriber exactly where the same
//! frames published one at a time would ([`Hub::publish`] *is* a batch of
//! one). A queue entry is a chunk: the newline-terminated wire lines one
//! batch left for that subscriber, ready to be written to its socket as
//! they stand. The cap counts lines, not chunks.

use crate::wire::{EventFrame, Filter, FrameKind, RunState};
use digs_json::message::Rows;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// What a subscriber's queue drain produced.
#[derive(Debug, PartialEq, Eq)]
pub enum Recv {
    /// Everything queued, in publish order.
    Lines {
        /// Newline-terminated wire lines, one chunk per published batch or
        /// control line.
        chunks: Vec<String>,
        /// Lines in `chunks`.
        lines: usize,
    },
    /// Nothing arrived within the timeout (send a heartbeat).
    Idle,
    /// The stream is complete and fully drained.
    Closed,
}

struct SubState {
    queue: VecDeque<String>,
    /// Lines in `queue` — what the cap bounds.
    queued: usize,
    sent: u64,
    dropped: u64,
    /// First frame sequence this subscriber still wants. Frames below it
    /// are silently skipped (replayed prefix); an overflow drop advances
    /// it so a dropped frame is never retro-delivered by a later replay.
    next_seq: u64,
    closed: bool,
    /// The reader went away; publishing skips this subscription until the
    /// hub garbage-collects it.
    detached: bool,
}

/// One subscriber's end of the stream.
pub struct Subscription {
    filter: Filter,
    cap: usize,
    state: Mutex<SubState>,
    ready: Condvar,
}

impl Subscription {
    fn new(filter: Filter, cap: usize, from_seq: u64) -> Subscription {
        Subscription {
            filter,
            cap: cap.max(1),
            state: Mutex::new(SubState {
                queue: VecDeque::new(),
                queued: 0,
                sent: 0,
                dropped: 0,
                next_seq: from_seq,
                closed: false,
                detached: false,
            }),
            ready: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, SubState> {
        self.state.lock().expect("subscriber lock")
    }

    /// Drains everything queued, or waits up to `timeout` for the first
    /// frame. [`Recv::Closed`] only after the final frame is delivered.
    pub fn recv_timeout(&self, timeout: Duration) -> Recv {
        let mut state = self.lock();
        if state.queue.is_empty() && !state.closed {
            let (next, _) = self
                .ready
                .wait_timeout_while(state, timeout, |s| s.queue.is_empty() && !s.closed)
                .expect("subscriber lock");
            state = next;
        }
        if state.queue.is_empty() {
            if state.closed {
                Recv::Closed
            } else {
                Recv::Idle
            }
        } else {
            let lines = std::mem::take(&mut state.queued);
            Recv::Lines { chunks: state.queue.drain(..).collect(), lines }
        }
    }

    /// `(sent, dropped)` so far — the heartbeat's flow-control report.
    pub fn stats(&self) -> (u64, u64) {
        let state = self.lock();
        (state.sent, state.dropped)
    }

    /// The first frame sequence this subscriber still wants — its resume
    /// cursor, journaled so a restarted daemon can hold replay until the
    /// subscriber is back.
    pub fn cursor(&self) -> u64 {
        self.lock().next_seq
    }

    /// Marks the reader gone; the hub prunes detached subscriptions on
    /// the next publish.
    pub fn detach(&self) {
        self.lock().detached = true;
    }

    /// Queues a control line unless the reader is gone or the stream is
    /// over, and with `close` ends the stream after it. The line goes past
    /// the cap and is not counted as sent: restart notices and terminal
    /// frames must reach even a stalled reader.
    fn control(&self, line: Option<&str>, close: bool) {
        let mut state = self.lock();
        if state.detached || state.closed {
            return;
        }
        if let Some(line) = line {
            state.queue.push_back(format!("{line}\n"));
            state.queued += 1;
        }
        state.closed = close;
        drop(state);
        self.ready.notify_one();
    }
}

/// One subscriber's share of a batch being published: its state, held
/// locked for the whole batch, and the chunk the batch is leaving it.
struct Offer<'a> {
    sub: &'a Subscription,
    state: MutexGuard<'a, SubState>,
    chunk: String,
}

struct HubInner {
    subs: Vec<Arc<Subscription>>,
    /// Sequence the next published frame will get. Reset to 0 when the
    /// supervisor replays the run.
    next_seq: u64,
    /// Set by [`Hub::close`], which also leaves its terminal line here: a
    /// subscriber that arrives afterwards still gets its stream end.
    closed: bool,
    final_line: Option<String>,
}

/// The fan-out point of one run's stream.
pub struct Hub {
    inner: Mutex<HubInner>,
    cap: usize,
}

impl Hub {
    /// A hub whose subscribers each buffer up to `cap` frames.
    pub fn new(cap: usize) -> Hub {
        let inner = HubInner { subs: Vec::new(), next_seq: 0, closed: false, final_line: None };
        Hub { inner: Mutex::new(inner), cap }
    }

    fn lock(&self) -> MutexGuard<'_, HubInner> {
        self.inner.lock().expect("hub lock")
    }

    /// Registers a subscriber at the live point: frames published after
    /// this call are guaranteed to be offered to it (subject to its queue
    /// bound). The cursor snapshot happens under the hub lock, so no
    /// frame can slip between the snapshot and the registration.
    pub fn subscribe(&self, filter: Filter) -> Arc<Subscription> {
        let mut inner = self.lock();
        let from_seq = inner.next_seq;
        self.attach(&mut inner, filter, from_seq)
    }

    /// Registers a subscriber with an explicit resume cursor: it wants
    /// frames from `from_seq` on. Sequences the run has already passed
    /// only reach it if the run is replayed (crash recovery).
    pub fn subscribe_from(&self, filter: Filter, from_seq: u64) -> Arc<Subscription> {
        self.attach(&mut self.lock(), filter, from_seq)
    }

    /// On a closed hub the subscription is born finished: it holds the
    /// terminal line and is closed, exactly as if it had been registered
    /// when [`Hub::close`] walked the list. Without that, a subscriber that
    /// lost the race against the run's end would wait on heartbeats forever.
    fn attach(&self, inner: &mut HubInner, filter: Filter, from_seq: u64) -> Arc<Subscription> {
        let sub = Arc::new(Subscription::new(filter, self.cap, from_seq));
        if inner.closed {
            sub.control(inner.final_line.as_deref(), true);
        } else {
            inner.subs.push(Arc::clone(&sub));
        }
        sub
    }

    /// Live (non-detached) subscriber count.
    pub fn subscriber_count(&self) -> usize {
        self.lock().subs.iter().filter(|s| !s.lock().detached).count()
    }

    /// Frames dropped across live subscribers (bounded-queue overflow).
    pub fn drops_total(&self) -> u64 {
        self.lock().subs.iter().map(|s| s.lock().dropped).sum()
    }

    /// The sequence the next published frame will carry — the run's
    /// current stream position, journaled as the progress cursor.
    pub fn seq(&self) -> u64 {
        self.lock().next_seq
    }

    /// Rewinds the stream position to 0 for a deterministic replay
    /// (supervised restart or journal resume). Subscriptions keep their
    /// cursors, so the replayed prefix is skipped per subscriber.
    pub fn reset_for_replay(&self) {
        self.lock().next_seq = 0;
    }

    /// Publishes one frame to every matching subscriber and returns its
    /// sequence: a [`Hub::publish_batch`] of one.
    pub fn publish(
        &self,
        run: &str,
        kind: FrameKind,
        node: Option<u16>,
        payload: impl FnOnce() -> String,
    ) -> u64 {
        self.publish_batch(run, [(kind, node, |out: &mut String| out.push_str(&payload()))]).start
    }

    /// Publishes frames, in order, to every matching subscriber and returns
    /// the consecutive sequences they were given. A frame is `(kind, node,
    /// payload)`; `payload` appends the payload line to its argument and only
    /// runs if some subscriber takes the frame, which is then encoded once.
    /// Sequences are consumed even when nobody is listening (stream position
    /// must not depend on subscriber timing). Never blocks; full queues count
    /// drops instead.
    pub fn publish_batch<W: FnOnce(&mut String)>(
        &self,
        run: &str,
        frames: impl IntoIterator<Item = (FrameKind, Option<u16>, W)>,
    ) -> Range<u64> {
        let mut inner = self.lock();
        let HubInner { subs, next_seq, .. } = &mut *inner;
        let first = *next_seq;
        let mut detached = false;
        let mut offers = Vec::with_capacity(subs.len());
        for sub in subs.iter() {
            let state = sub.lock();
            if state.detached {
                detached = true;
            } else if !state.closed {
                offers.push(Offer { sub, state, chunk: String::new() });
            }
        }
        // The frame being offered, encoded when its first taker turns up. Its
        // rows are written with the payload row — the last, which writes its
        // text as it stands — left empty, so the payload is written into
        // the line in its place.
        let mut frame = EventFrame {
            run: String::new(),
            kind: FrameKind::Meta,
            node: None,
            seq: 0,
            payload: String::new(),
        };
        let mut line = String::new();
        for (kind, node, payload) in frames {
            let seq = *next_seq;
            *next_seq += 1;
            let mut payload = Some(payload);
            for offer in &mut offers {
                // Frames below the cursor were already delivered (or
                // dropped) and are skipped silently — that is the replay
                // path of crash recovery, not an error.
                if !offer.sub.filter.accepts(kind, node) || seq < offer.state.next_seq {
                    continue;
                }
                offer.state.next_seq = seq + 1;
                if offer.state.queued >= offer.sub.cap {
                    offer.state.dropped += 1;
                    continue;
                }
                if let Some(payload) = payload.take() {
                    if frame.run.is_empty() {
                        frame.run.push_str(run);
                    }
                    (frame.kind, frame.node, frame.seq) = (kind, node, seq);
                    line.clear();
                    line.push('{');
                    frame.write_rows(&mut line, true);
                    payload(&mut line);
                    line.push_str("}\n");
                }
                offer.chunk.push_str(&line);
                offer.state.queued += 1;
                offer.state.sent += 1;
            }
        }
        for Offer { sub, mut state, chunk } in offers {
            if !chunk.is_empty() {
                state.queue.push_back(chunk);
                drop(state);
                sub.ready.notify_one();
            }
        }
        if detached {
            subs.retain(|s| !s.lock().detached);
        }
        first..*next_seq
    }

    /// Publishes a control line (e.g. a `run-restart` notice) to every
    /// live subscriber. Control lines carry no sequence, bypass the queue
    /// cap, do not count as sent, and do not close the stream.
    pub fn publish_control(&self, line: &str) {
        let mut inner = self.lock();
        inner.subs.retain(|s| !s.lock().detached);
        for sub in inner.subs.iter() {
            sub.control(Some(line), false);
        }
    }

    /// Publishes a terminal line to every subscriber — filters do not
    /// apply, because every stream must observe its end — then closes the
    /// hub. The line reaches even subscribers whose queue is full (it is
    /// the one frame allowed to exceed the cap; a stream that cannot say
    /// "ended" leaves its reader hanging forever), and, kept in the hub,
    /// subscribers that arrive after this call. A control frame, not a
    /// payload frame: it does not count toward a subscriber's `sent` total.
    pub fn close(&self, final_line: Option<&str>) {
        let mut inner = self.lock();
        for sub in inner.subs.iter() {
            sub.control(final_line, true);
        }
        inner.closed = true;
        inner.final_line = final_line.map(str::to_string);
    }
}

/// The supervisor's first backoff; doubles per attempt.
const BACKOFF_BASE: Duration = Duration::from_millis(250);
/// The supervisor's backoff ceiling.
const BACKOFF_CEILING: Duration = Duration::from_secs(4);

/// The supervisor's restart policy: how many failures to tolerate before
/// giving up (between attempts it backs off from 250 ms, doubling to 4 s).
/// Deterministic runs fail the same way on every replay, so the poison
/// threshold is what separates a transient host-level fault (worth
/// retrying) from a poisoned spec (quarantined, not crash-looped).
#[derive(Debug, Clone)]
pub struct BackoffPolicy {
    /// Restart attempts before giving up (`digsd serve --max-restarts`).
    /// Zero disables supervision: the first failure is terminal.
    pub max_restarts: u64,
}

impl BackoffPolicy {
    /// A policy that tolerates `max_restarts` failures.
    pub fn new(max_restarts: u64) -> BackoffPolicy {
        BackoffPolicy { max_restarts }
    }
}

/// What the supervisor decided after a failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Restart after the given backoff; `restarts` counts this attempt.
    Restart {
        /// Jittered exponential backoff to sleep before the attempt.
        backoff: Duration,
        /// Total restarts including this one.
        restarts: u64,
    },
    /// Stop retrying; the run ends in this terminal state
    /// ([`RunState::Quarantined`] past the threshold,
    /// [`RunState::Failed`] when supervision is disabled).
    GiveUp(RunState),
}

/// Per-run supervisor state: counts failures and applies the policy.
#[derive(Debug, Clone)]
pub struct Supervisor {
    policy: BackoffPolicy,
    salt: u64,
    restarts: u64,
}

impl Supervisor {
    /// A supervisor for one run; `salt` (the run name) decorrelates the
    /// jitter of runs failing in lockstep.
    pub fn new(policy: BackoffPolicy, salt: &str) -> Supervisor {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in salt.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        Supervisor { policy, salt: h, restarts: 0 }
    }

    /// Restarts recorded so far. Recovery seeds this from the journal so
    /// the poison threshold spans daemon restarts.
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    /// Seeds the restart count (journal recovery).
    pub fn set_restarts(&mut self, restarts: u64) {
        self.restarts = restarts;
    }

    /// Records a failure and decides what happens next.
    pub fn on_failure(&mut self) -> Verdict {
        self.restarts += 1;
        if self.restarts > self.policy.max_restarts {
            return Verdict::GiveUp(if self.policy.max_restarts == 0 {
                RunState::Failed
            } else {
                RunState::Quarantined
            });
        }
        let exp = u32::try_from(self.restarts - 1).unwrap_or(31).min(31);
        let full = BACKOFF_BASE
            .saturating_mul(1u32 << exp.min(16))
            .min(BACKOFF_CEILING)
            .max(Duration::from_millis(1));
        // Deterministic decorrelated jitter in [full/2, full): splitmix64
        // over (run salt, attempt) — no RNG dependency, reproducible in
        // tests, still spreads simultaneous failures apart.
        let mut z = self.salt ^ self.restarts.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let half = full.as_millis() as u64 / 2;
        let backoff = Duration::from_millis(half + z % half.max(1));
        Verdict::Restart { backoff, restarts: self.restarts }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn publish(hub: &Hub, kind: FrameKind, node: Option<u16>, payload: &str) -> u64 {
        let p = payload.to_string();
        hub.publish("t", kind, node, move || p)
    }

    /// Drains `sub` and splits what it got back into lines.
    fn drain(sub: &Subscription) -> Vec<String> {
        match sub.recv_timeout(Duration::from_millis(10)) {
            Recv::Lines { chunks, lines } => {
                assert!(chunks.iter().all(|c| c.ends_with('\n')), "{chunks:?}");
                let text = chunks.concat();
                assert_eq!(text.lines().count(), lines);
                text.lines().map(str::to_string).collect()
            }
            other => panic!("expected lines, got {other:?}"),
        }
    }

    #[test]
    fn publish_is_ordered_and_filtered() {
        let hub = Hub::new(16);
        let all = hub.subscribe(Filter::default());
        let mut kinds = std::collections::BTreeSet::new();
        kinds.insert(FrameKind::Alert);
        let alerts_only = hub.subscribe(Filter { kinds: Some(kinds), nodes: None });
        publish(&hub, FrameKind::Trace, Some(1), r#"{"n":1}"#);
        publish(&hub, FrameKind::Alert, None, r#"{"rule":"x"}"#);
        let lines = drain(&all);
        assert_eq!(lines.len(), 2);
        let lines = drain(&alerts_only);
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains(r#""kind":"alert""#));
    }

    #[test]
    fn sequences_advance_without_subscribers() {
        let hub = Hub::new(4);
        assert_eq!(publish(&hub, FrameKind::Trace, None, "{}"), 0);
        assert_eq!(publish(&hub, FrameKind::Trace, None, "{}"), 1);
        assert_eq!(hub.seq(), 2);
        // A late subscriber attaches at the live point, not at 0.
        let sub = hub.subscribe(Filter::default());
        assert_eq!(sub.cursor(), 2);
        publish(&hub, FrameKind::Trace, None, "{}");
        assert_eq!(sub.stats().0, 1);
    }

    #[test]
    fn replay_skips_the_delivered_prefix() {
        let hub = Hub::new(16);
        let sub = hub.subscribe(Filter::default());
        for i in 0..3 {
            publish(&hub, FrameKind::Trace, None, &format!(r#"{{"n":{i}}}"#));
        }
        assert_eq!(sub.cursor(), 3);
        // Supervised restart: replay regenerates sequences 0..,
        // the subscription resumes at its cursor without duplicates.
        hub.reset_for_replay();
        for i in 0..5 {
            publish(&hub, FrameKind::Trace, None, &format!(r#"{{"n":{i}}}"#));
        }
        let lines = drain(&sub);
        assert_eq!(lines.len(), 5, "3 originals + 2 new, no replayed duplicates");
        let (sent, dropped) = sub.stats();
        assert_eq!((sent, dropped), (5, 0));
        assert_eq!(sub.cursor(), 5);
    }

    #[test]
    fn resume_cursor_subscription_sees_replay_from_cursor() {
        let hub = Hub::new(16);
        for _ in 0..4 {
            publish(&hub, FrameKind::Trace, None, "{}");
        }
        // Reconnecting client: wants 2.. even though the run is past 4.
        let sub = hub.subscribe_from(Filter::default(), 2);
        hub.reset_for_replay();
        for i in 0..6 {
            publish(&hub, FrameKind::Trace, None, &format!(r#"{{"n":{i}}}"#));
        }
        let lines = drain(&sub);
        assert_eq!(lines.len(), 4, "sequences 2..6");
        assert!(lines[0].contains(r#""seq":2"#));
    }

    #[test]
    fn full_queue_counts_drops_and_never_blocks() {
        let hub = Hub::new(2);
        let sub = hub.subscribe(Filter::default());
        for i in 0..5 {
            publish(&hub, FrameKind::Trace, None, &format!(r#"{{"n":{i}}}"#));
        }
        let (sent, dropped) = sub.stats();
        assert_eq!(sent, 2);
        assert_eq!(dropped, 3);
        assert_eq!(hub.drops_total(), 3);
        // The queued frames are the *first* two — drop-newest keeps the
        // stream prefix contiguous — and the cursor is past the drops,
        // so a replay cannot deliver dropped frames out of order.
        assert_eq!(sub.cursor(), 5);
        let lines = drain(&sub);
        assert!(lines[0].contains(r#""n":0"#));
        assert!(lines[1].contains(r#""n":1"#));
    }

    #[test]
    fn control_lines_bypass_the_cap_and_keep_the_stream_open() {
        let hub = Hub::new(1);
        let sub = hub.subscribe(Filter::default());
        publish(&hub, FrameKind::Trace, None, r#"{"n":0}"#);
        hub.publish_control(r#"{"type":"run-restart"}"#);
        let lines = drain(&sub);
        assert_eq!(lines.len(), 2, "control line exceeds the cap");
        assert_eq!(sub.stats().0, 1, "control lines are not counted as sent");
        assert_eq!(sub.recv_timeout(Duration::from_millis(5)), Recv::Idle, "hub stays open");
    }

    #[test]
    fn close_delivers_final_line_past_a_full_queue() {
        let hub = Hub::new(1);
        let sub = hub.subscribe(Filter::default());
        publish(&hub, FrameKind::Trace, None, r#"{"n":0}"#);
        publish(&hub, FrameKind::Trace, None, r#"{"n":1}"#); // dropped
        hub.close(Some(r#"{"type":"run-state"}"#));
        let lines = drain(&sub);
        assert_eq!(lines.len(), 2, "final line bypasses the cap");
        assert_eq!(sub.recv_timeout(Duration::from_millis(10)), Recv::Closed);
    }

    #[test]
    fn subscribing_to_a_closed_hub_yields_the_final_line_then_closed() {
        // The race `serve_connection` can lose: the run ends between its
        // liveness check and its subscribe. The late subscription used to
        // be registered after `close` had walked the list and idled forever.
        let hub = Hub::new(4);
        publish(&hub, FrameKind::Trace, None, "{}");
        hub.close(Some(r#"{"type":"run-state"}"#));
        for sub in [hub.subscribe(Filter::default()), hub.subscribe_from(Filter::default(), 0)] {
            assert_eq!(drain(&sub), [r#"{"type":"run-state"}"#]);
            assert_eq!(sub.recv_timeout(Duration::from_millis(5)), Recv::Closed);
            assert_eq!(sub.stats(), (0, 0), "the final line is not a payload frame");
        }
        let bare = Hub::new(4);
        bare.close(None);
        let sub = bare.subscribe(Filter::default());
        assert_eq!(sub.recv_timeout(Duration::from_millis(5)), Recv::Closed);
    }

    #[test]
    fn a_batch_is_one_chunk_and_counts_its_frames_one_by_one() {
        let hub = Hub::new(3);
        let sub = hub.subscribe(Filter::default());
        let mut nodes = std::collections::BTreeSet::new();
        nodes.insert(1u16);
        let node_1 = hub.subscribe(Filter { kinds: None, nodes: Some(nodes) });
        let seqs = hub.publish_batch(
            "t",
            (0..5u16).map(|n| {
                (FrameKind::Trace, Some(n % 2), move |out: &mut String| {
                    out.push_str(&format!(r#"{{"n":{n}}}"#));
                })
            }),
        );
        assert_eq!(seqs, 0..5);
        assert_eq!(hub.publish_batch("t", Vec::<(_, _, fn(&mut String))>::new()), 5..5);
        // The cap is counted in frames inside the batch: three fit, two drop.
        assert_eq!(sub.stats(), (3, 2));
        assert_eq!(sub.cursor(), 5);
        let Recv::Lines { chunks, lines } = sub.recv_timeout(Duration::from_millis(10)) else {
            panic!("expected lines");
        };
        assert_eq!((chunks.len(), lines), (1, 3), "one queue entry for the whole batch");
        assert_eq!(
            chunks[0].lines().next(),
            Some(r#"{"type":"event","run":"t","kind":"trace","node":0,"seq":0,"payload":{"n":0}}"#)
        );
        // The filtered subscriber saw sequences 1 and 3 only.
        let lines = drain(&node_1);
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains(r#""seq":1"#) && lines[1].contains(r#""seq":3"#), "{lines:?}");
    }

    #[test]
    fn idle_then_closed() {
        let hub = Hub::new(4);
        let sub = hub.subscribe(Filter::default());
        assert_eq!(sub.recv_timeout(Duration::from_millis(5)), Recv::Idle);
        hub.close(None);
        assert_eq!(sub.recv_timeout(Duration::from_millis(5)), Recv::Closed);
    }

    #[test]
    fn detached_subscribers_are_pruned() {
        let hub = Hub::new(4);
        let sub = hub.subscribe(Filter::default());
        assert_eq!(hub.subscriber_count(), 1);
        sub.detach();
        assert_eq!(hub.subscriber_count(), 0);
        publish(&hub, FrameKind::Trace, None, "{}");
        assert_eq!(sub.stats().0, 0, "no delivery after detach");
    }

    #[test]
    fn supervisor_backs_off_then_quarantines() {
        let mut sup = Supervisor::new(BackoffPolicy::new(2), "run-a");
        let Verdict::Restart { backoff: b1, restarts: 1 } = sup.on_failure() else {
            panic!("first failure restarts");
        };
        let Verdict::Restart { backoff: b2, restarts: 2 } = sup.on_failure() else {
            panic!("second failure restarts");
        };
        assert_eq!(sup.on_failure(), Verdict::GiveUp(RunState::Quarantined));
        assert!(b1 >= BACKOFF_BASE / 2 && b1 < BACKOFF_BASE, "jitter stays in [base/2, base)");
        assert!(b2 >= BACKOFF_BASE, "backoff grows");
        assert!(b2 < BACKOFF_BASE * 2);
        // Deterministic: same salt and policy replay the same delays.
        let mut again = Supervisor::new(BackoffPolicy::new(2), "run-a");
        assert_eq!(again.on_failure(), Verdict::Restart { backoff: b1, restarts: 1 });
        // Different runs jitter differently (decorrelated lockstep).
        let mut other = Supervisor::new(BackoffPolicy::new(2), "run-b");
        assert_ne!(other.on_failure(), Verdict::Restart { backoff: b1, restarts: 1 });
    }

    #[test]
    fn unsupervised_failure_is_terminal_failed() {
        let mut sup = Supervisor::new(BackoffPolicy::new(0), "run-a");
        assert_eq!(sup.on_failure(), Verdict::GiveUp(RunState::Failed));
    }
}
