//! Crash-recovery integration tests over real TCP: supervised restart
//! with deterministic replay (byte-identical reassembled streams),
//! poison-run quarantine, client auto-reconnect across injected
//! connection drops, and graceful shutdown + journal resume across two
//! daemon processes (modeled in-process as two daemons sharing one
//! journal file).

use digs_digsd::{
    BackoffPolicy, ChaosConfig, Client, Daemon, DaemonConfig, Filter, FrameKind, ResumableStream,
    RunState, SingleSpec, StreamEnd, StreamItem,
};
use std::path::PathBuf;
use std::time::Duration;

fn start_daemon(config: DaemonConfig) -> String {
    let daemon = Daemon::bind("127.0.0.1:0", config).expect("bind");
    let addr = daemon.local_addr().expect("bound").to_string();
    std::thread::spawn(move || {
        let _ = daemon.serve_forever();
    });
    addr
}

/// The canonical spec for byte-identity checks: caps sized so neither
/// the trace ring nor the telemetry sampler evicts (same shape as the
/// daemon_stream byte-identity test).
fn identity_spec(seed: u64) -> SingleSpec {
    SingleSpec {
        topology: "testbed-a-half".into(),
        seed,
        flows: 2,
        period_ms: 3000,
        secs: 45,
        randomize: Some(7),
        trace_cap: Some(200_000),
        telemetry: Some((500, 256)),
        ..SingleSpec::default()
    }
}

/// The reference exports for a spec run in-process without a daemon.
fn reference_exports(spec: &SingleSpec) -> (String, String) {
    let mut network = spec.build().expect("build");
    network.run_secs(spec.secs);
    let trace = digs_trace::to_jsonl(&network.trace().events());
    let telemetry = digs::telemetry::to_jsonl(network.telemetry().expect("telemetry on"));
    (trace, telemetry)
}

#[derive(Default)]
struct Collected {
    trace: Vec<String>,
    epochs: Vec<String>,
    alerts: Vec<String>,
    meta: Vec<String>,
    restarts_seen: u64,
}

impl Collected {
    fn push(&mut self, kind: FrameKind, payload: String) {
        match kind {
            FrameKind::Trace => self.trace.push(payload),
            FrameKind::Epoch => self.epochs.push(payload),
            FrameKind::Alert => self.alerts.push(payload),
            FrameKind::Meta => self.meta.push(payload),
            FrameKind::Fleet => {}
        }
    }

    fn trace_jsonl(&self) -> String {
        self.trace.iter().fold(String::new(), |mut s, l| {
            s.push_str(l);
            s.push('\n');
            s
        })
    }

    /// Telemetry file layout: meta first, then epochs, then alerts.
    fn telemetry_jsonl(&self) -> String {
        let mut s = String::new();
        for line in self.meta.iter().chain(&self.epochs).chain(&self.alerts) {
            s.push_str(line);
            s.push('\n');
        }
        s
    }
}

fn drain_client(client: &mut Client) -> (Collected, StreamEnd) {
    let mut got = Collected::default();
    loop {
        match client.next_stream_item().expect("stream item") {
            StreamItem::Event(frame) => got.push(frame.kind, frame.payload),
            StreamItem::Heartbeat { .. } => {}
            StreamItem::Restart { .. } => got.restarts_seen += 1,
            StreamItem::End(end) => return (got, end),
        }
    }
}

fn drain_resumable(stream: &mut ResumableStream) -> (Collected, StreamEnd) {
    let mut got = Collected::default();
    loop {
        match stream.next_item().expect("stream item") {
            StreamItem::Event(frame) => got.push(frame.kind, frame.payload),
            StreamItem::Heartbeat { .. } => {}
            StreamItem::Restart { .. } => got.restarts_seen += 1,
            StreamItem::End(end) => return (got, end),
        }
    }
}

fn unique_temp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("digsd-{tag}-{}.jsonl", std::process::id()))
}

#[test]
fn supervised_restart_replays_byte_identically() {
    let spec = identity_spec(11);
    let (expected_trace, expected_telemetry) = reference_exports(&spec);

    // Panic once at asn 1500; the supervisor must restart the run and
    // the replay must regenerate the stream so the tailing subscriber
    // cannot tell a crash happened (beyond the restart notice).
    let addr = start_daemon(DaemonConfig {
        queue_cap: 1 << 20,
        backoff: BackoffPolicy::new(3),
        chaos: ChaosConfig { panic_at_asn: Some(1500), ..ChaosConfig::default() },
        ..DaemonConfig::default()
    });
    let mut tail = Client::connect(&addr, "crash-tail").expect("connect");
    tail.launch("phoenix", spec.to_json(), true, Filter::default()).expect("launch");
    let (got, end) = drain_client(&mut tail);

    assert!(got.restarts_seen >= 1, "the supervisor must announce the restart on the stream");
    assert_eq!(end.state, RunState::Done, "the restarted run must complete");
    assert_eq!(end.dropped, 0, "a draining subscriber must not drop across a restart");
    assert_eq!(
        got.trace_jsonl(),
        expected_trace,
        "trace reassembled across the crash must be byte-identical"
    );
    assert_eq!(
        got.telemetry_jsonl(),
        expected_telemetry,
        "telemetry reassembled across the crash must be byte-identical"
    );

    // The run's listing records the supervision history.
    let mut client = Client::connect(&addr, "lister").expect("connect");
    let runs = client.list().expect("list");
    let info = runs.iter().find(|r| r.name == "phoenix").expect("registered");
    assert_eq!(info.state, RunState::Done);
    assert!(info.restarts >= 1, "restart count must be visible in the listing");
}

#[test]
fn late_subscriber_joins_a_restarted_run() {
    let spec = identity_spec(13);
    let (expected_trace, _) = reference_exports(&spec);

    let addr = start_daemon(DaemonConfig {
        queue_cap: 1 << 20,
        backoff: BackoffPolicy::new(3),
        chaos: ChaosConfig { panic_at_asn: Some(1500), ..ChaosConfig::default() },
        ..DaemonConfig::default()
    });
    let mut tail = Client::connect(&addr, "crash-tail").expect("connect");
    tail.launch("phoenix2", spec.to_json(), true, Filter::default()).expect("launch");

    // Wait for the restart notice on the tail, then attach a second
    // subscriber while the run is restarting (or just restarted): the
    // subscription must succeed regardless of lifecycle state and
    // deliver a clean contiguous suffix of the stream.
    loop {
        match tail.next_stream_item().expect("stream item") {
            StreamItem::Restart { .. } => break,
            StreamItem::End(end) => panic!("run ended {:?} before restarting", end.state),
            _ => {}
        }
    }
    let mut late = Client::connect(&addr, "late-sub").expect("connect");
    late.subscribe("phoenix2", Filter::default(), None).expect("mid-restart subscribe");
    let (got, end) = drain_client(&mut late);
    assert_eq!(end.state, RunState::Done);
    assert_eq!(end.dropped, 0);

    // Whatever prefix the late subscriber missed, what it did receive is
    // a contiguous suffix of the reference trace.
    let received = got.trace_jsonl();
    assert!(!received.is_empty(), "the late subscriber must see replayed frames");
    assert!(
        expected_trace.ends_with(&received),
        "late subscriber's trace must be a contiguous suffix of the reference"
    );
    let (_, tail_end) = drain_client(&mut tail);
    assert_eq!(tail_end.state, RunState::Done);
}

#[test]
fn poison_run_is_quarantined_after_exhausting_restarts() {
    let spec = SingleSpec {
        topology: "testbed-a-half".into(),
        seed: 7,
        flows: 1,
        secs: 30,
        trace_cap: Some(100_000),
        telemetry: Some((1000, 64)),
        ..SingleSpec::default()
    };
    // Panic at every attempt: two restarts, then quarantine.
    let addr = start_daemon(DaemonConfig {
        backoff: BackoffPolicy::new(2),
        chaos: ChaosConfig {
            panic_at_asn: Some(1000),
            panic_repeat: true,
            ..ChaosConfig::default()
        },
        ..DaemonConfig::default()
    });
    let mut tail = Client::connect(&addr, "poison-tail").expect("connect");
    tail.launch("poison", spec.to_json(), true, Filter::default()).expect("launch");
    let (got, end) = drain_client(&mut tail);
    assert_eq!(end.state, RunState::Quarantined, "a poison run must quarantine, not spin");
    assert_eq!(got.restarts_seen, 2, "exactly max_restarts restart notices");

    let mut client = Client::connect(&addr, "lister").expect("connect");
    let runs = client.list().expect("list");
    let info = runs.iter().find(|r| r.name == "poison").expect("registered");
    assert_eq!(info.state, RunState::Quarantined);
    assert_eq!(info.restarts, 2);

    // A quarantined name stays reserved.
    let err = client
        .launch("poison", spec.to_json(), false, Filter::default())
        .expect_err("name stays taken");
    assert_eq!(digs_digsd::error_code(&err), Some(digs_digsd::ErrorCode::NameTaken));
}

#[test]
fn resumable_stream_reconnects_across_injected_drops() {
    let spec = identity_spec(17);
    let (expected_trace, _) = reference_exports(&spec);
    let published_frames = {
        // Total frames the run publishes: trace + epochs + alerts + meta.
        let mut network = spec.build().expect("build");
        network.run_secs(spec.secs);
        let sampler = network.telemetry().expect("telemetry on");
        network.trace().events().len() as u64
            + digs::telemetry::to_jsonl(sampler).lines().count() as u64
    };

    // Sever the subscriber's connection twice, 200 delivered lines in;
    // the resumable stream must reattach with its cursor both times and
    // account every frame as delivered or lost — no silent holes. The run
    // is paced (20 ms at each of its 38 stops: nine epochs, 29 defense
    // epochs) so that it
    // outlasts both reconnects however fast the simulation itself is: a
    // run that ends while the subscriber is away has a tail nobody counts.
    let addr = start_daemon(DaemonConfig {
        queue_cap: 1 << 20,
        chaos: ChaosConfig {
            drop_subscriber_after: Some(200),
            drop_count: 2,
            slow_run_ms: Some(20),
            ..ChaosConfig::default()
        },
        ..DaemonConfig::default()
    });
    let mut stream =
        ResumableStream::launch(&addr, "droppy", "dropped", spec.to_json(), Filter::default())
            .expect("launch");
    let (got, end) = drain_resumable(&mut stream);

    assert_eq!(end.state, RunState::Done);
    assert_eq!(stream.reconnects(), 2, "both injected drops must be healed by reconnects");
    assert_eq!(end.sent, stream.delivered());
    assert_eq!(
        end.sent + end.dropped,
        published_frames,
        "every published frame is either delivered or counted as a gap"
    );

    // Delivered trace lines are an ordered subsequence of the reference:
    // duplicates were filtered, order preserved, losses only at the
    // drop points.
    let mut reference = expected_trace.lines();
    for line in &got.trace {
        assert!(
            reference.any(|r| r == line),
            "delivered trace lines must appear in reference order"
        );
    }
}

#[test]
fn graceful_shutdown_then_journal_resume_is_byte_identical() {
    let spec = identity_spec(19);
    let (expected_trace, expected_telemetry) = reference_exports(&spec);
    let journal = unique_temp("shutdown-resume");
    let _ = std::fs::remove_file(&journal);

    // Daemon A: journaled, paced (300 ms per flush boundary) so the
    // shutdown lands mid-run.
    let addr_a = start_daemon(DaemonConfig {
        queue_cap: 1 << 20,
        journal: Some(journal.clone()),
        chaos: ChaosConfig { slow_run_ms: Some(300), ..ChaosConfig::default() },
        ..DaemonConfig::default()
    });
    let mut stream = ResumableStream::launch(
        &addr_a,
        "resume-test",
        "journaled",
        spec.to_json(),
        Filter::default(),
    )
    .expect("launch");

    // Read a prefix, then ask the daemon to shut down gracefully.
    let mut first = Collected::default();
    while first.trace.len() < 20 {
        match stream.next_item().expect("stream item") {
            StreamItem::Event(frame) => first.push(frame.kind, frame.payload),
            StreamItem::Heartbeat { .. } | StreamItem::Restart { .. } => {}
            StreamItem::End(end) => panic!("run ended {:?} before shutdown", end.state),
        }
    }
    let mut admin = Client::connect(&addr_a, "admin").expect("connect");
    admin.shutdown().expect("shutdown");
    let cursor = loop {
        match stream.next_item().expect("stream item") {
            StreamItem::Event(frame) => first.push(frame.kind, frame.payload),
            StreamItem::Heartbeat { .. } | StreamItem::Restart { .. } => {}
            StreamItem::End(end) => {
                assert_eq!(
                    end.state,
                    RunState::Restarting,
                    "a suspended run ends its stream with `restarting`, not a terminal state"
                );
                break stream.cursor().expect("cursor pinned");
            }
        }
    };
    assert_eq!(stream.lost(), 0, "suspension must not lose frames");
    assert!(first.meta.is_empty(), "a suspended run must not publish a partial meta line");

    // Daemon B: same journal, full speed. It must re-prepare the run,
    // replay it deterministically, and serve the re-attached cursor the
    // exact frames the first daemon never sent.
    let addr_b = start_daemon(DaemonConfig {
        queue_cap: 1 << 20,
        journal: Some(journal.clone()),
        resume_grace: Duration::from_secs(10),
        ..DaemonConfig::default()
    });
    let mut resumed = ResumableStream::attach(
        &addr_b,
        "resume-test",
        "journaled",
        Filter::default(),
        Some(cursor),
    )
    .expect("re-attach with cursor");
    let (second, end) = drain_resumable(&mut resumed);
    assert_eq!(end.state, RunState::Done);
    assert_eq!(end.dropped, 0, "the resumed stream must not drop");

    // Concatenating both segments reassembles the uninterrupted run.
    let full_trace = format!("{}{}", first.trace_jsonl(), second.trace_jsonl());
    assert_eq!(
        full_trace, expected_trace,
        "trace across shutdown + resume must be byte-identical to an uninterrupted run"
    );
    let mut full = Collected::default();
    for (kind, lines) in [
        (FrameKind::Meta, [&first.meta, &second.meta]),
        (FrameKind::Epoch, [&first.epochs, &second.epochs]),
        (FrameKind::Alert, [&first.alerts, &second.alerts]),
    ] {
        for seg in lines {
            for l in seg.iter() {
                full.push(kind, l.clone());
            }
        }
    }
    assert_eq!(
        full.telemetry_jsonl(),
        expected_telemetry,
        "telemetry across shutdown + resume must reassemble byte-identically"
    );

    let _ = std::fs::remove_file(&journal);
}
