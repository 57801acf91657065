//! `stream-50`: launches tailed over loopback TCP from an in-process
//! `digsd`, each drained to its stream end by one client.

use super::{scratch_dir, Size, Verdict, Workload};
use crate::spans::Tracer;
use crate::stats::{fnv1a64_extend, FNV_OFFSET};
use digs_digsd::{
    BackoffPolicy, ChaosConfig, Client, Daemon, DaemonConfig, EventFrame, Filter, FrameKind,
    RunState, SingleSpec, StreamEnd, StreamItem,
};
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Frames a subscriber may have queued. One launch publishes far fewer, so
/// a draining client never drops (a drop fails the launch).
const QUEUE_CAP: usize = 1 << 20;

/// The daemon, its one client, and the reference the streams must match.
pub struct Stream {
    spec: SingleSpec,
    nodes: usize,
    client: Client,
    daemon: Option<JoinHandle<()>>,
    dir: PathBuf,
    seed: u64,
    launches: u64,
    /// Digest of the trace and telemetry JSONL of an in-process run.
    reference_digest: u64,
    /// Host seconds that in-process run took.
    reference_secs: f64,
    verdict: Verdict,
}

/// The spec every launch uses: Testbed A under DiGS, eight flows at 5 s,
/// trace and telemetry on, nothing left to the environment.
pub(crate) fn spec(seed: u64, size: Size) -> SingleSpec {
    SingleSpec {
        topology: "testbed-a".into(),
        protocol: "digs".into(),
        seed,
        flows: 8,
        period_ms: 5000,
        secs: if size == Size::Smoke { 10 } else { 120 },
        jammers: 0,
        adaptive_jam: None,
        randomize: None,
        trace_cap: Some(200_000),
        telemetry: Some((500, 512)),
        jam: None,
        audit_every: None,
    }
}

/// Digest of a run's payloads in file order: the trace lines, then the
/// telemetry meta line, epochs and alerts.
fn payload_digest<'a>(lines: impl Iterator<Item = &'a str>) -> u64 {
    lines.fold(FNV_OFFSET, |h, line| fnv1a64_extend(fnv1a64_extend(h, line.as_bytes()), b"\n"))
}

impl Stream {
    /// Binds the daemon, connects, runs the reference in-process and makes
    /// one warm-up launch.
    ///
    /// # Panics
    ///
    /// Panics when loopback TCP or the scratch directory is unusable: the
    /// workload cannot run at all then.
    pub fn set_up(seed: u64, size: Size, t: &mut Tracer) -> Stream {
        let dir = scratch_dir("stream");
        let config = DaemonConfig {
            queue_cap: QUEUE_CAP,
            journal: Some(dir.join("journal.jsonl")),
            backoff: BackoffPolicy::new(0),
            resume_grace: Duration::from_millis(1500),
            chaos: ChaosConfig::default(),
        };
        let daemon = Daemon::bind("127.0.0.1:0", config).expect("bind digsd on loopback");
        let addr = daemon.local_addr().expect("bound address").to_string();
        let daemon = std::thread::spawn(move || {
            daemon.serve_forever().expect("digsd accept loop");
        });
        let (client, connect_secs) =
            t.span("digsd.client.connect", |_| Client::connect(&addr, "digs-perf"));
        t.sample("digsd.client.connect_ms", connect_secs * 1e3);
        let client = client.expect("connect to digsd");

        let spec = spec(seed, size);
        let (network, build_secs) = t.span("digsd.spec.build", |_| spec.build());
        t.sample("digsd.spec.build_ms", build_secs * 1e3);
        let mut network = network.expect("the stream spec is valid");
        let nodes = network.config().topology.len();
        let ((), reference_secs) = t.span("stream.reference-run", |_| network.run_secs(spec.secs));
        let trace = digs_trace::to_jsonl(&network.trace().events());
        let telemetry = digs::telemetry::to_jsonl(network.telemetry().expect("telemetry is on"));
        let reference_digest = payload_digest(trace.lines().chain(telemetry.lines()));

        let mut stream = Stream {
            spec,
            nodes,
            client,
            daemon: Some(daemon),
            dir,
            seed,
            launches: 0,
            reference_digest,
            reference_secs,
            verdict: Verdict::default(),
        };
        let mut off = Tracer::new(false);
        stream.repeat(&mut off);
        stream.verdict = Verdict { digest: reference_digest, ..Verdict::default() };
        stream
    }

    /// One operation per launch: it ends `Done`, drops nothing, numbers its
    /// frames `0..n`, and reassembles to the reference run's bytes.
    fn check(&mut self, name: &str, frames: &[EventFrame], end: StreamEnd) {
        self.verdict.attempted += 1;
        let in_order = frames.iter().enumerate().all(|(i, f)| f.seq == i as u64);
        let of = |kind: FrameKind| {
            frames.iter().filter(move |f| f.kind == kind).map(|f| f.payload.as_str())
        };
        let digest = payload_digest(
            of(FrameKind::Trace)
                .chain(of(FrameKind::Meta))
                .chain(of(FrameKind::Epoch))
                .chain(of(FrameKind::Alert)),
        );
        let done = end.state == RunState::Done && end.dropped == 0;
        if !(done && in_order && digest == self.reference_digest) {
            self.verdict.failed += 1;
            self.verdict.notes.push(format!(
                "{name}: state {:?}, dropped {}, frames {} (in order: {in_order}), \
                 payload digest {digest:016x} vs reference {:016x}",
                end.state,
                end.dropped,
                frames.len(),
                self.reference_digest
            ));
        }
    }
}

impl Workload for Stream {
    /// Simulated node-seconds one launch covers.
    fn node_secs_per_repeat(&self) -> f64 {
        (self.nodes as u64 * self.spec.secs) as f64
    }

    /// One launch, tailed and drained; returns launch → stream end in host
    /// seconds. The launch is checked once that clock has stopped.
    fn repeat(&mut self, t: &mut Tracer) -> Vec<f64> {
        t.next_repeat();
        let name = format!("perf-{}-{}", self.seed, self.launches);
        self.launches += 1;
        let spec = self.spec.to_json();
        let timed = t.is_on();
        let mut frames = Vec::new();
        let mut recv = Duration::ZERO;
        let mut first_frame = None;
        let launched = Instant::now();
        let ((end, ended), launch_secs) = t.span("stream.launch", |t| {
            let (ack, ack_secs) = t.span("digsd.launch-ack", |_| {
                self.client.launch(&name, spec, true, Filter::default())
            });
            ack.expect("launch acknowledged");
            t.sample("digsd.launch_ack_ms", ack_secs * 1e3);
            loop {
                let asked = timed.then(Instant::now);
                let item = self.client.next_stream_item().expect("stream item");
                if let Some(asked) = asked {
                    recv += asked.elapsed();
                }
                match item {
                    StreamItem::Event(frame) => {
                        first_frame.get_or_insert_with(Instant::now);
                        frames.push(frame);
                    }
                    StreamItem::Heartbeat { .. } | StreamItem::Restart { .. } => {}
                    StreamItem::End(end) => {
                        let ended = Instant::now();
                        if let Some(first) = first_frame {
                            t.record("stream.first-frame-wait", launched, first);
                            t.record("stream.drain", first, ended);
                        }
                        return (end, ended);
                    }
                }
            }
        });
        if let Some(first) = first_frame {
            let n = frames.len() as f64;
            t.sample("digsd.first_frame_ms", (first - launched).as_secs_f64() * 1e3);
            t.sample("digsd.frames_per_s", n / (ended - first).as_secs_f64());
            t.sample("digsd.client.recv_ns_per_frame", recv.as_secs_f64() * 1e9 / n);
            t.sample("digsd.stream.frames", n);
            t.sample("digsd.stream.dropped", end.dropped as f64);
            t.sample("digsd.transport_share", 1.0 - self.reference_secs / launch_secs);
        }
        self.check(&name, &frames, end);
        vec![launch_secs]
    }

    /// The launches checked so far; the digest is the reference run's.
    fn verify(&self) -> Verdict {
        self.verdict.clone()
    }
}

impl Drop for Stream {
    /// Stops the daemon and waits for its accept loop; removes the journal.
    fn drop(&mut self) {
        let _ = self.client.shutdown();
        if let Some(daemon) = self.daemon.take() {
            if daemon.join().is_err() {
                eprintln!("digs-perf: the digsd accept loop panicked");
            }
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
