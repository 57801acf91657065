//! The hub against a reference model (ROADMAP 4c), deterministic per seed.
//!
//! Random interleavings of everything a hub can be asked — single publishes,
//! batches sized around the cap, live and cursor subscriptions under random
//! filters, drains, detaches, replays from sequence 0, control lines, close,
//! late subscriptions — run against a model that applies the backpressure
//! rule one frame at a time, the way the hub did before it moved batches.
//! After every step each subscriber's counters and cursor equal the model's,
//! and every drain returns the model's lines. Each scenario runs twice, once
//! with its batches published whole and once frame by frame, and the two
//! transcripts must be the same bytes.

use digs_cases::{cases, Draw};
use digs_digsd::{EventFrame, Filter, FrameKind, Hub, Recv, Subscription};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

const RUN: &str = "model";
const KINDS: [FrameKind; 3] = [FrameKind::Trace, FrameKind::Epoch, FrameKind::Alert];

/// The frame a run publishes at `seq`. A function of the position alone, as
/// in a deterministic run: a replay regenerates the same frames.
fn frame_at(seq: u64) -> EventFrame {
    let kind = KINDS[(seq % 5 % 3) as usize];
    let node = (kind == FrameKind::Trace).then_some((seq % 4) as u16);
    EventFrame { run: RUN.into(), kind, node, seq, payload: format!("{{\"n\":{seq}}}") }
}

fn random_filter(d: &mut Draw) -> Filter {
    let mut subset = |n: usize| -> Option<BTreeSet<usize>> {
        d.bool().then(|| (0..n).filter(|_| d.bool()).collect())
    };
    let kinds = subset(KINDS.len()).map(|ks| ks.into_iter().map(|k| KINDS[k]).collect());
    let nodes = subset(4).map(|ns| ns.into_iter().map(|n| n as u16).collect());
    Filter { kinds, nodes }
}

/// One subscriber as the per-frame hub kept it: a queue of lines.
struct ModelSub {
    filter: Filter,
    queue: Vec<String>,
    sent: u64,
    dropped: u64,
    next_seq: u64,
    closed: bool,
    detached: bool,
    /// In the hub's list (a subscription made after `close` never is).
    registered: bool,
}

impl ModelSub {
    fn offer(&mut self, cap: usize, frame: &EventFrame) {
        if !self.filter.accepts(frame.kind, frame.node) {
            return;
        }
        if self.detached || self.closed || frame.seq < self.next_seq {
            return;
        }
        self.next_seq = frame.seq + 1;
        if self.queue.len() >= cap {
            self.dropped += 1;
            return;
        }
        self.queue.push(frame.encode());
        self.sent += 1;
    }

    fn control(&mut self, line: Option<&str>, close: bool) {
        if self.detached || self.closed {
            return;
        }
        self.queue.extend(line.map(str::to_string));
        self.closed = close;
    }
}

struct Model {
    cap: usize,
    next_seq: u64,
    subs: Vec<ModelSub>,
    /// `Some(final line)` once closed.
    closed: Option<Option<String>>,
}

impl Model {
    fn publish(&mut self) -> u64 {
        let frame = frame_at(self.next_seq);
        self.next_seq += 1;
        for sub in &mut self.subs {
            sub.offer(self.cap, &frame);
        }
        frame.seq
    }

    fn subscribe(&mut self, filter: Filter, from_seq: u64) {
        let mut sub = ModelSub {
            filter,
            queue: Vec::new(),
            sent: 0,
            dropped: 0,
            next_seq: from_seq,
            closed: false,
            detached: false,
            registered: self.closed.is_none(),
        };
        if let Some(final_line) = &self.closed {
            sub.control(final_line.as_deref(), true);
        }
        self.subs.push(sub);
    }
}

/// The hub under test beside the model, and everything drained so far.
struct Scenario {
    hub: Hub,
    subs: Vec<Arc<Subscription>>,
    model: Model,
    batched: bool,
    /// Per subscriber: every line it was handed, in order.
    transcript: Vec<Vec<String>>,
}

impl Scenario {
    /// Publishes the next `n` frames of the run: as one batch, or — the
    /// twin — one at a time.
    fn publish(&mut self, n: u64) {
        let first = self.model.next_seq;
        if self.batched {
            let frames = (first..first + n).map(|seq| {
                let f = frame_at(seq);
                (f.kind, f.node, move |out: &mut String| out.push_str(&f.payload))
            });
            assert_eq!(self.hub.publish_batch(RUN, frames), first..first + n);
        }
        for seq in first..first + n {
            if !self.batched {
                let f = frame_at(seq);
                assert_eq!(self.hub.publish(RUN, f.kind, f.node, || f.payload), seq);
            }
            assert_eq!(self.model.publish(), seq);
        }
    }

    fn subscribe(&mut self, filter: Filter, from_seq: Option<u64>) {
        self.subs.push(match from_seq {
            Some(seq) => self.hub.subscribe_from(filter.clone(), seq),
            None => self.hub.subscribe(filter.clone()),
        });
        self.model.subscribe(filter, from_seq.unwrap_or(self.model.next_seq));
        self.transcript.push(Vec::new());
    }

    /// Drains subscriber `i` and holds what came against the model's queue.
    fn drain(&mut self, i: usize) {
        let want = std::mem::take(&mut self.model.subs[i].queue);
        match self.subs[i].recv_timeout(Duration::ZERO) {
            Recv::Lines { chunks, lines } => {
                assert!(chunks.iter().all(|c| c.ends_with('\n')), "{chunks:?}");
                let text = chunks.concat();
                let got: Vec<&str> = text.lines().collect();
                assert_eq!(got.len(), lines, "the chunks' line count");
                assert_eq!(got, want, "subscriber {i}");
                self.transcript[i].extend(got.into_iter().map(str::to_string));
            }
            Recv::Idle => assert!(want.is_empty() && !self.model.subs[i].closed, "idle {i}"),
            Recv::Closed => assert!(want.is_empty() && self.model.subs[i].closed, "closed {i}"),
        }
    }

    /// What must hold after every step, drained or not.
    fn check(&self) {
        assert_eq!(self.hub.seq(), self.model.next_seq);
        let live = self.model.subs.iter().filter(|s| s.registered && !s.detached).count();
        assert_eq!(self.hub.subscriber_count(), live);
        for (i, (sub, model)) in self.subs.iter().zip(&self.model.subs).enumerate() {
            assert_eq!(sub.stats(), (model.sent, model.dropped), "sent/dropped of {i}");
            assert_eq!(sub.cursor(), model.next_seq, "cursor of {i}");
        }
    }

    /// What must hold of a finished transcript whatever the model says: a
    /// subscriber's frames pass its filter and climb strictly in sequence
    /// (no duplicate, nothing out of order, across every replay), each is
    /// the run's frame at that sequence, and `sent` counted exactly them.
    fn check_transcripts(&self) {
        for (i, lines) in self.transcript.iter().enumerate() {
            let mut last = None;
            let mut frames = 0;
            for line in lines.iter().filter(|l| l.contains("\"type\":\"event\"")) {
                let frame = EventFrame::decode(line).expect("a queued frame decodes");
                assert_eq!(frame, frame_at(frame.seq), "subscriber {i}");
                assert!(self.model.subs[i].filter.accepts(frame.kind, frame.node));
                assert!(last < Some(frame.seq), "subscriber {i}: {last:?} then {}", frame.seq);
                last = Some(frame.seq);
                frames += 1;
            }
            assert_eq!(self.subs[i].stats().0, frames, "subscriber {i}: sent");
        }
    }
}

/// One random scenario; returns every subscriber's transcript and how many
/// frames the full queues dropped.
fn scenario(seed: u64, batched: bool) -> (Vec<Vec<String>>, u64) {
    let mut d = Draw::from_seed(seed);
    let cap = d.int(1..=6);
    let mut s = Scenario {
        hub: Hub::new(cap),
        subs: Vec::new(),
        model: Model { cap, next_seq: 0, subs: Vec::new(), closed: None },
        batched,
        transcript: Vec::new(),
    };
    let steps = d.int(40..80);
    for step in 0..steps {
        // Close somewhere in the last quarter, then keep going: a closed
        // hub still counts sequences and still answers subscribers.
        if step == steps * 3 / 4 {
            let final_line = (d.int(0..4) > 0).then(|| "{\"type\":\"run-state\"}".to_string());
            s.hub.close(final_line.as_deref());
            for sub in &mut s.model.subs {
                sub.control(final_line.as_deref(), true);
            }
            s.model.closed = Some(final_line);
        }
        match d.int(0..12) {
            0 | 1 => s.publish(1),
            2..=4 => {
                let sizes = [0, 1, cap.saturating_sub(1), cap, cap + 3];
                s.publish(*d.pick(&sizes) as u64);
            }
            5 => s.subscribe(random_filter(&mut d), None),
            6 => {
                let from = d.int(0..s.model.next_seq + 4);
                s.subscribe(random_filter(&mut d), Some(from));
            }
            7 | 8 if !s.subs.is_empty() => s.drain(d.int(0..s.subs.len())),
            9 if !s.subs.is_empty() => {
                let i = d.int(0..s.subs.len());
                s.subs[i].detach();
                s.model.subs[i].detached = true;
            }
            10 => {
                // A supervised restart: the run starts over at sequence 0
                // and regenerates its frames, usually past where it was.
                let reached = s.model.next_seq;
                s.hub.reset_for_replay();
                s.model.next_seq = 0;
                let replay = reached / 2 + d.int(0..reached / 2 + 4);
                s.publish(replay / 2);
                s.publish(replay - replay / 2);
            }
            _ => {
                s.hub.publish_control("{\"type\":\"run-restart\"}");
                for sub in s.model.subs.iter_mut().filter(|sub| sub.registered) {
                    sub.control(Some("{\"type\":\"run-restart\"}"), false);
                }
            }
        }
        s.check();
    }
    // Every stream that still has a reader ends: its queue, then `Closed`.
    for i in 0..s.subs.len() {
        s.drain(i);
        if !s.model.subs[i].detached {
            assert_eq!(s.subs[i].recv_timeout(Duration::ZERO), Recv::Closed, "subscriber {i}");
        }
    }
    s.check();
    s.check_transcripts();
    let dropped = s.subs.iter().map(|sub| sub.stats().1).sum();
    (s.transcript, dropped)
}

#[test]
fn the_hub_is_its_per_frame_model_and_a_batch_is_its_frames_one_by_one() {
    let (mut lines, mut drops) = (0, 0);
    cases(400, |d| {
        let seed = d.seed();
        let (batched, dropped) = scenario(seed, true);
        assert_eq!((&batched, dropped), (&scenario(seed, false).0, dropped), "seed {seed:#x}");
        lines += batched.iter().map(Vec::len).sum::<usize>();
        drops += dropped;
    });
    // The scenarios must reach both the delivery and the overflow path.
    assert!(lines > 10_000 && drops > 1_000, "{lines} lines delivered, {drops} frames dropped");
}

/// The same contract with a reader that races the writer: one thread
/// publishes a run in drawn batches, starts it over once (`reset_for_replay`,
/// then every frame again from 0) and closes; another drains as fast as it
/// can. Whatever the interleaving, the reader sees strictly climbing
/// sequences — nothing twice across the replay — every frame its filter
/// accepts is counted once as sent or dropped, and the stream ends.
#[test]
fn a_draining_thread_races_a_publishing_thread_through_a_replay() {
    const FINAL: &str = "{\"type\":\"run-state\"}";
    let (mut delivered, mut drops) = (0, 0);
    cases(48, |d| {
        let total = d.int(50..400u64);
        let replay_at = d.int(1..total);
        let sizes: Vec<u64> = (0..2 * total).map(|_| d.int(0..10u64)).collect();
        let filter = random_filter(d);
        let accepted = (0..total).map(frame_at).filter(|f| filter.accepts(f.kind, f.node)).count();
        for cap in [1 << 20, 4] {
            let hub = Hub::new(cap);
            // Subscribed before the first publish: the whole run is offered.
            let sub = hub.subscribe(filter.clone());
            let mut sizes = sizes.iter().copied().cycle();
            let mut publish_to = |from: u64, to: u64| {
                let mut seq = from;
                while seq < to {
                    let end = to.min(seq + sizes.next().expect("cycled"));
                    let frames = (seq..end).map(|seq| {
                        let f = frame_at(seq);
                        (f.kind, f.node, move |out: &mut String| out.push_str(&f.payload))
                    });
                    assert_eq!(hub.publish_batch(RUN, frames), seq..end);
                    seq = end;
                }
            };
            let lines = std::thread::scope(|scope| {
                let reader = scope.spawn(|| {
                    let mut lines = Vec::new();
                    loop {
                        match sub.recv_timeout(Duration::from_millis(200)) {
                            Recv::Lines { chunks, .. } => {
                                lines.extend(chunks.concat().lines().map(str::to_string));
                            }
                            Recv::Idle => {}
                            Recv::Closed => return lines,
                        }
                    }
                });
                publish_to(0, replay_at);
                hub.reset_for_replay();
                publish_to(0, total);
                hub.close(Some(FINAL));
                reader.join().expect("the reader ends with the stream")
            });
            assert_eq!(lines.last().map(String::as_str), Some(FINAL), "cap {cap}");
            let seqs: Vec<u64> = lines[..lines.len() - 1]
                .iter()
                .map(|line| EventFrame::decode(line).expect("a queued frame decodes").seq)
                .collect();
            assert!(seqs.windows(2).all(|w| w[0] < w[1]), "cap {cap}: {seqs:?}");
            let (sent, dropped) = sub.stats();
            assert_eq!(sent, seqs.len() as u64, "cap {cap}: sent counts what was drained");
            assert_eq!(sent + dropped, accepted as u64, "cap {cap}: each accepted frame once");
            assert_eq!(hub.seq(), total, "cap {cap}: the replay ran to the end");
            if cap > 4 {
                assert_eq!(dropped, 0, "a queue of {cap} never fills");
            }
            delivered += sent;
            drops += dropped;
        }
    });
    // Both the delivery and the overflow path must have been raced.
    assert!(delivered > 2_000 && drops > 500, "{delivered} delivered, {drops} dropped");
}

#[test]
fn control_and_final_lines_pass_a_full_queue_that_drops_a_batch() {
    let hub = Hub::new(2);
    let sub = hub.subscribe(Filter::default());
    let batch = |n: u64| {
        (0..n)
            .map(|i| (FrameKind::Trace, None, move |out: &mut String| out.push_str(&i.to_string())))
    };
    assert_eq!(hub.publish_batch(RUN, batch(5)), 0..5);
    assert_eq!(sub.stats(), (2, 3));
    hub.publish_control("restart");
    assert_eq!(hub.publish_batch(RUN, batch(2)), 5..7);
    hub.close(Some("end"));
    assert_eq!((sub.stats(), sub.cursor()), ((2, 5), 7));
    let Recv::Lines { chunks, lines } = sub.recv_timeout(Duration::ZERO) else {
        panic!("expected lines");
    };
    assert_eq!(lines, 4);
    let text = chunks.concat();
    let got: Vec<&str> = text.lines().collect();
    assert!(got[0].ends_with("\"seq\":0,\"payload\":0}") && got[1].contains("\"seq\":1,"));
    assert_eq!(got[2..], ["restart", "end"]);
    assert_eq!(sub.recv_timeout(Duration::ZERO), Recv::Closed);
}
