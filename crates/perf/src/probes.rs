//! Per-layer probes that are not part of a workload's own repeats: direct
//! calls into one layer's public functions, and differential legs for costs
//! that no direct call isolates. Every traced run makes all of them.

use crate::spans::Tracer;
use crate::stats::median;
use crate::workloads::sim::{idle_config, state_digest};
use crate::workloads::{scratch_dir, stream, Size, Verdict};
use digs::config::{NetworkConfig, Protocol};
use digs::network::{Network, RunObserver};
use digs_digsd::{EventFrame, Filter, FrameKind, Hub, Journal, Record, ServerMsg};
use digs_metrics::LogHistogram;
use digs_routing::messages::ParentSlot;
use digs_routing::{DigsRouting, JoinIn, Rank, RoutingConfig};
use digs_scheduling::{DigsScheduler, OrchestraScheduler, SlotframeLengths};
use digs_sim::engine::{Engine, NodeStack, SlotIntent, TxOutcome};
use digs_sim::ids::NodeId;
use digs_sim::packet::{Dest, Frame, FrameKind as AirKind};
use digs_sim::rf::Dbm;
use digs_sim::time::Asn;
use digs_sim::topology::Topology;
use digs_sim::ChannelOffset;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Times `iterations` calls of `f` and returns host seconds per call.
fn per_call(iterations: usize, mut f: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    for i in 0..iterations {
        f(i);
    }
    start.elapsed().as_secs_f64() / iterations as f64
}

/// The one trait of the program the benchmark implements: a node that does
/// the same thing in every slot.
#[derive(Debug, Clone, Copy)]
enum Scripted {
    Sleep,
    Listen(ChannelOffset),
    Broadcast(NodeId, ChannelOffset),
}

impl NodeStack for Scripted {
    type Payload = ();

    fn slot_intent(&mut self, _asn: Asn) -> SlotIntent<()> {
        match *self {
            Scripted::Sleep => SlotIntent::Sleep,
            Scripted::Listen(offset) => SlotIntent::Listen { offset },
            Scripted::Broadcast(id, offset) => SlotIntent::Transmit {
                offset,
                frame: Frame::new(id, Dest::Broadcast, AirKind::Beacon, 50, ()),
                contention: false,
            },
        }
    }

    fn on_frame(&mut self, _asn: Asn, _frame: &Frame<()>, _rss: Dbm) {}

    fn on_tx_outcome(&mut self, _asn: Asn, _outcome: TxOutcome) {}
}

/// `digs-sim`: `Engine::new` and `Engine::step` on their own. The idle
/// pattern (every node asleep) runs on `idle-3stack`'s topology; the busy
/// one (eight broadcasters on four offsets, everyone else listening) on
/// `large-150`'s topology with its five disturbers.
fn engine(seed: u64, size: Size, t: &mut Tracer) {
    let steps = |full: usize| if size == Size::Smoke { 50 } else { full };
    let large = digs::scenarios::large_scale(Protocol::Digs, seed);
    let news: Vec<f64> = (0..5)
        .map(|_| {
            let (engine, secs) = t.span("sim.engine.new", |_| {
                Engine::new(large.topology.clone(), large.rf.clone(), large.seed)
            });
            black_box(engine);
            secs * 1e3
        })
        .collect();
    t.sample("sim.engine.new_ms", median(&news));

    let idle_topology = Topology::testbed_a();
    let mut idle = vec![Scripted::Sleep; idle_topology.len()];
    let mut engine = Engine::new(idle_topology, digs_sim::rf::RfConfig::indoor(), seed);
    let n = steps(200_000);
    let ((), secs) = t.span("sim.engine.idle-steps", |_| engine.run(&mut idle, n as u64));
    t.sample("sim.engine.idle_step_ns", secs * 1e9 / n as f64);

    let mut busy: Vec<Scripted> = (0..large.topology.len())
        .map(|i| {
            let offset = ChannelOffset((i % 4) as u8);
            // Every 19th node transmits: eight of the 152.
            if i % 19 == 0 {
                Scripted::Broadcast(NodeId(i as u16), offset)
            } else {
                Scripted::Listen(offset)
            }
        })
        .collect();
    let mut engine = Engine::new(large.topology.clone(), large.rf.clone(), large.seed);
    for jammer in &large.jammers {
        engine.add_jammer(jammer.clone());
    }
    let n = steps(4_000);
    let ((), secs) = t.span("sim.engine.busy-steps", |_| engine.run(&mut busy, n as u64));
    t.sample("sim.engine.busy_step_ns", secs * 1e9 / n as f64);
}

/// `digs-routing`, `digs-scheduling`, `digs-whart`: the probes the criterion
/// stubs in `crates/bench` define, plus the manager's planning.
fn protocols(seed: u64, size: Size, t: &mut Tracer) {
    let calls = if size == Size::Smoke { 100 } else { 20_000 };
    let join_in = |rank: u16, etx_w: f64| JoinIn {
        rank: Rank(rank),
        etx_w,
        best_parent: None,
        second_parent: None,
    };
    let mut device = DigsRouting::new(NodeId(100), false, RoutingConfig::default(), 1, Asn::ZERO);
    for i in 0..30u16 {
        let rank = 2 + i % 4;
        device.on_join_in(
            NodeId(i),
            &join_in(rank, f64::from(rank) * 1.3),
            Dbm(-60.0 - f64::from(i % 30)),
            Asn(u64::from(i)),
        );
    }
    let mut devices = vec![device; calls];
    let msg = join_in(2, 1.0);
    let secs = per_call(calls, |i| {
        black_box(devices[i].on_join_in(NodeId(31), &msg, Dbm(-62.0), Asn(1000)));
    });
    t.sample("routing.digs.join_in_ns", secs * 1e9);

    let mut digs = DigsScheduler::new(NodeId(25), 2, SlotframeLengths::paper(), 3);
    digs.set_parents(Some(NodeId(3)), Some(NodeId(7)));
    let mut orchestra = OrchestraScheduler::new(NodeId(25), SlotframeLengths::paper());
    orchestra.set_parent(Some(NodeId(3)));
    for child in 30..42u16 {
        digs.add_child(NodeId(child), ParentSlot::Best);
        orchestra.add_child(NodeId(child));
    }
    let calls = calls * 50;
    let secs = per_call(calls, |i| {
        black_box(digs.cell(Asn(i as u64)));
    });
    t.sample("scheduling.digs.cell_ns", secs * 1e9);
    let secs = per_call(calls, |i| {
        black_box(orchestra.cell(Asn(i as u64)));
    });
    t.sample("scheduling.orchestra.cell_ns", secs * 1e9);

    let config = idle_config(Protocol::WirelessHart, seed);
    let engine = Engine::new(config.topology.clone(), config.rf.clone(), config.seed);
    let sources: Vec<NodeId> = config.flows.iter().map(|f| f.source).collect();
    let plans: Vec<f64> = (0..5)
        .map(|_| {
            let ((), secs) = t.span("whart.manager.plan", |_| {
                let db = digs_whart::LinkDb::from_link_model(engine.link_model());
                let graph = digs_whart::build_uplink_graph(&db, &config.topology.access_points());
                black_box(digs_whart::CentralSchedule::build(&graph, &sources, 3000))
                    .expect("the manager schedules two flows");
            });
            secs * 1e3
        })
        .collect();
    t.sample("whart.manager.plan_ms", median(&plans));
}

/// An observer that discards what it is handed and counts the flushes.
struct Counting(Arc<AtomicU64>);

impl RunObserver for Counting {
    fn on_progress(&mut self, _asn: u64) -> bool {
        self.0.fetch_add(1, Ordering::Relaxed);
        true
    }
}

/// What a differential leg switches on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Feature {
    Plain,
    Trace,
    TraceAndObserver,
    Telemetry,
    Audit,
}

/// Ten times `stream-50`'s cadence of 500, so that sampling is a few per
/// cent of a segment and not a few per mille, which the host's noise would
/// swallow.
const EPOCH_SLOTS: u64 = 50;
const AUDIT_EVERY: u64 = 100;
/// A multiple of the observer's flush interval and of both cadences above.
const SEGMENT_SLOTS: u64 = 1_000;

/// `digs` (core) and `digs-trace`: what telemetry sampling, trace
/// recording, observer flushing and auditing add to the DiGS leg of
/// `idle-3stack`. No direct call isolates these, so each is the difference
/// between two otherwise identical networks, advanced in turn one short
/// segment at a time so that a slow spell of the host slows both: the
/// median over the segments of the paired difference, divided by how often
/// the feature ran in a segment. Each feature only observes, so all five
/// networks must end in the same state: one checked operation each.
fn differentials(seed: u64, size: Size, t: &mut Tracer, verdict: &mut Verdict) {
    let (formation, segments) = if size == Size::Smoke { (200, 2) } else { (6_000, 60) };
    let flushes = Arc::new(AtomicU64::new(0));
    let features = [
        Feature::Plain,
        Feature::Trace,
        Feature::TraceAndObserver,
        Feature::Telemetry,
        Feature::Audit,
    ];
    let mut legs = features.map(|feature| {
        let mut config: NetworkConfig = idle_config(Protocol::Digs, seed);
        match feature {
            Feature::Telemetry => {
                config.telemetry_epoch = Some(EPOCH_SLOTS);
                config.telemetry_cap = Some(4096);
            }
            Feature::Trace | Feature::TraceAndObserver => config.trace_cap = Some(200_000),
            Feature::Plain | Feature::Audit => {}
        }
        let mut network = Network::new(config);
        if feature == Feature::TraceAndObserver {
            network.set_observer(Box::new(Counting(Arc::clone(&flushes))));
        }
        network.run(formation);
        (feature, network, Vec::new())
    });
    let recorded = |n: &Network| n.trace().events().last().map_or(0, |e| e.seq + 1);
    let recorded_before = recorded(&legs[1].1);
    flushes.store(0, Ordering::Relaxed);
    for _ in 0..segments {
        for (feature, network, secs) in &mut legs {
            let start = Instant::now();
            match feature {
                Feature::Audit => network.run_audited(SEGMENT_SLOTS, AUDIT_EVERY),
                _ => network.run(SEGMENT_SLOTS),
            }
            secs.push(start.elapsed().as_secs_f64());
        }
    }
    let events_per_segment = (recorded(&legs[1].1) - recorded_before) as f64 / segments as f64;
    let flushes_per_segment = flushes.load(Ordering::Relaxed) as f64 / segments as f64;

    let plain_digest = state_digest("differential", &legs[0].1).0;
    for (feature, network, _) in &legs {
        verdict.attempted += 1;
        if state_digest("differential", network).0 != plain_digest {
            verdict.failed += 1;
            verdict.notes.push(format!("{feature:?} changed the simulation's outcome"));
        }
    }
    // Host seconds per segment that leg `with` spends beyond leg `without`.
    let extra = |with: usize, without: usize| {
        let paired: Vec<f64> =
            legs[with].2.iter().zip(&legs[without].2).map(|(a, b)| a - b).collect();
        median(&paired)
    };
    t.sample("trace.record.ns_per_event", extra(1, 0) / events_per_segment * 1e9);
    t.sample("core.observer.flush_us", extra(2, 1) / flushes_per_segment * 1e6);
    t.sample("core.telemetry.sample_us", extra(3, 0) / (SEGMENT_SLOTS / EPOCH_SLOTS) as f64 * 1e6);
    t.sample("core.audit.us_per_audit", extra(4, 0) / (SEGMENT_SLOTS / AUDIT_EVERY) as f64 * 1e6);
}

/// `digs-trace`, `digs-json`, `digs-metrics`, the wire, hub and journal of
/// `digs-digsd`, `digs-pool`, and replay: direct calls over the events and
/// wire lines of an in-process run of the `stream-50` spec.
fn serialisation(seed: u64, size: Size, t: &mut Tracer) {
    let spec = stream::spec(seed, size);
    let mut network = spec.build().expect("the stream spec is valid");
    network.run_secs(spec.secs);
    let events = network.trace().events();
    let n = events.len() as f64;
    t.sample("trace.events_per_slot", n / spec.total_slots() as f64);

    let (since, secs) = t.span("trace.events-since", |_| network.trace().events_since(0));
    black_box(since);
    t.sample("trace.events_since.ns_per_event", secs * 1e9 / n);
    let (jsonl, secs) = t.span("trace.to-jsonl", |_| digs_trace::to_jsonl(&events));
    t.sample("trace.to_jsonl.ns_per_event", secs * 1e9 / n);
    let (parsed, secs) = t.span("trace.from-jsonl", |_| digs_trace::from_jsonl(&jsonl));
    assert_eq!(parsed.expect("the trace's own JSONL parses").len(), events.len());
    t.sample("trace.from_jsonl.ns_per_event", secs * 1e9 / n);

    let sampler = network.telemetry().expect("telemetry is on");
    let (text, secs) = t.span("core.telemetry.to-jsonl", |_| digs::telemetry::to_jsonl(sampler));
    black_box(text);
    t.sample("core.telemetry.to_jsonl_us_per_epoch", secs * 1e6 / sampler.epochs().count() as f64);

    let half = spec.total_slots() / 2;
    let mut replay = spec.build().expect("the stream spec is valid");
    replay.set_observer(Box::new(Counting(Arc::default())));
    let ((), secs) = t.span("core.network.resume-to", |_| replay.resume_to(half));
    t.sample("core.resume_to.slot_ns", secs * 1e9 / half as f64);

    // The wire lines a subscriber of this run would be sent.
    let frames: Vec<EventFrame> = jsonl
        .lines()
        .zip(&events)
        .map(|(line, e)| EventFrame {
            run: "perf".into(),
            kind: FrameKind::Trace,
            node: Some(e.node),
            seq: e.seq,
            payload: line.into(),
        })
        .collect();
    let (lines, secs) =
        t.span("digsd.wire.encode", |_| frames.iter().map(EventFrame::encode).collect::<Vec<_>>());
    t.sample("digsd.wire.encode_ns_per_frame", secs * 1e9 / n);
    let bytes: usize = lines.iter().map(String::len).sum();
    t.sample("digsd.wire.bytes_per_frame", bytes as f64 / n);
    let ((), secs) = t.span("digsd.wire.decode", |_| {
        for line in &lines {
            black_box(ServerMsg::decode(line).expect("an encoded frame decodes"));
        }
    });
    t.sample("digsd.wire.decode_ns_per_frame", secs * 1e9 / n);

    let (values, secs) = t.span("json.parse", |_| {
        lines.iter().map(|l| digs_json::parse(l).expect("a wire line is JSON")).collect::<Vec<_>>()
    });
    t.sample("json.parse.ns_per_byte", secs * 1e9 / bytes as f64);
    let (written, secs) =
        t.span("json.write", |_| values.iter().map(|v| v.to_compact().len()).sum::<usize>());
    t.sample("json.write.ns_per_byte", secs * 1e9 / written as f64);

    hub(&frames, t);
}

/// `Hub::publish` with nobody listening (the skip-encode path), one and
/// sixteen subscribers that never fill, and one that is already full (the
/// drop path). No threads: the subscriptions are only queued into, so the
/// frames are few enough for sixteen queues to hold them all.
fn hub(frames: &[EventFrame], t: &mut Tracer) {
    let frames = &frames[..frames.len().min(5_000)];
    let publish_all = |hub: &Hub| {
        per_call(frames.len(), |i| {
            let f = &frames[i];
            hub.publish(&f.run, f.kind, f.node, || f.payload.clone());
        })
    };
    for (name, subscribers, cap) in [
        ("digsd.hub.publish_ns_nosub", 0, frames.len()),
        ("digsd.hub.publish_ns_sub1", 1, frames.len()),
        ("digsd.hub.publish_ns_sub16", 16, frames.len()),
        ("digsd.hub.publish_ns_full", 1, 1),
    ] {
        let hub = Hub::new(cap);
        let held: Vec<_> = (0..subscribers).map(|_| hub.subscribe(Filter::default())).collect();
        if cap == 1 {
            hub.publish("perf", FrameKind::Meta, None, String::new);
        }
        t.sample(name, publish_all(&hub) * 1e9);
        drop(held);
    }
}

/// `Journal::append` (which flushes) and `Journal::recover`.
fn journal(size: Size, t: &mut Tracer) {
    let dir = scratch_dir("journal");
    let path = dir.join("journal.jsonl");
    let records = if size == Size::Smoke { 100 } else { 10_000 };
    let mut journal = Journal::open(&path).expect("open a journal in the scratch directory");
    journal
        .append(&Record::Launch {
            run: "perf".into(),
            kind: "single".into(),
            spec: digs_json::Value::Null,
        })
        .expect("append");
    let secs = per_call(records, |i| {
        journal
            .append(&Record::Progress { run: "perf".into(), asn: i as u64 * 1000, seq: i as u64 })
            .expect("append");
    });
    journal.flush().expect("flush");
    t.sample("digsd.journal.append_us", secs * 1e6);
    let (recovery, secs) = t.span("digsd.journal.recover", |_| Journal::recover(&path));
    assert_eq!(recovery.expect("recover").runs.len(), 1);
    t.sample("digsd.journal.recover_ms", secs * 1e3);
    let _ = std::fs::remove_dir_all(dir);
}

/// `LogHistogram::record`/`merge` and the pool's cost per task.
fn small_layers(size: Size, t: &mut Tracer) {
    let calls = if size == Size::Smoke { 1_000 } else { 2_000_000 };
    let mut histogram = LogHistogram::new();
    let secs = per_call(calls, |i| histogram.record((i as u64).wrapping_mul(2_654_435_761) >> 20));
    t.sample("metrics.histogram.record_ns", secs * 1e9);
    let mut merged = LogHistogram::new();
    let secs = per_call(calls / 1_000, |_| merged.merge(black_box(&histogram)));
    black_box(merged.count());
    t.sample("metrics.histogram.merge_us", secs * 1e6);

    let tasks = if size == Size::Smoke { 100 } else { 10_000 };
    let jobs = crate::workloads::gate::jobs();
    let (done, secs) = t.span("pool.dispatch", |_| {
        digs_pool::par_map((0..tasks).collect(), jobs, black_box::<u64>)
    });
    assert_eq!(done.len() as u64, tasks);
    t.sample("pool.dispatch_us_per_task", secs * 1e6 / tasks as f64);
}

/// Every probe; the differential legs' checks are added to `verdict`.
pub fn run_all(seed: u64, size: Size, t: &mut Tracer, verdict: &mut Verdict) {
    engine(seed, size, t);
    protocols(seed, size, t);
    differentials(seed, size, t, verdict);
    serialisation(seed, size, t);
    journal(size, t);
    small_layers(size, t);
}
