//! External crash recovery: SIGKILL a real `digs-cli digsd serve`
//! process mid-run and verify a journaled restart resumes the run
//! deterministically — the re-attached client's cursor picks up exactly
//! where the dead daemon's stream stopped, with no gaps, no duplicate
//! sequences, and a byte-identical reassembled export.

#![cfg(unix)] // Child::kill is SIGKILL on unix — the point of the test

use digs_digsd::{Client, Filter, FrameKind, ResumableStream, RunState, SingleSpec, StreamItem};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const CLI: &str = env!("CARGO_BIN_EXE_digs-cli");

fn free_port() -> u16 {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("probe bind");
    listener.local_addr().expect("probe addr").port()
}

fn spawn_serve(addr: &str, journal: &std::path::Path, slow_ms: Option<u64>) -> Child {
    let mut cmd = Command::new(CLI);
    cmd.args(["digsd", "serve", "--addr", addr, "--queue", "1048576"])
        .arg("--journal")
        .arg(journal)
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    if let Some(ms) = slow_ms {
        cmd.args(["--chaos-slow-ms", &ms.to_string()]);
    }
    cmd.spawn().expect("spawn digs-cli digsd serve")
}

fn wait_ready(addr: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match Client::connect(addr, "readiness-probe") {
            Ok(_) => return,
            Err(e) => {
                assert!(Instant::now() < deadline, "daemon on {addr} never came up: {e}");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

#[derive(Default)]
struct Segment {
    trace: Vec<String>,
    epochs: Vec<String>,
    alerts: Vec<String>,
    meta: Vec<String>,
    seqs: Vec<u64>,
}

impl Segment {
    fn push(&mut self, kind: FrameKind, seq: u64, payload: String) {
        self.seqs.push(seq);
        match kind {
            FrameKind::Trace => self.trace.push(payload),
            FrameKind::Epoch => self.epochs.push(payload),
            FrameKind::Alert => self.alerts.push(payload),
            FrameKind::Meta => self.meta.push(payload),
            FrameKind::Fleet => {}
        }
    }
}

#[test]
fn sigkilled_daemon_resumes_from_its_journal_byte_identically() {
    let spec = SingleSpec {
        topology: "testbed-a-half".into(),
        seed: 23,
        flows: 2,
        period_ms: 3000,
        secs: 45,
        trace_cap: Some(200_000),
        telemetry: Some((500, 256)),
        ..SingleSpec::default()
    };

    // Reference: the uninterrupted in-process run's exports.
    let (expected_trace, expected_telemetry) = {
        let mut network = spec.build().expect("build");
        network.run_secs(spec.secs);
        (
            digs_trace::to_jsonl(&network.trace().events()),
            digs::telemetry::to_jsonl(network.telemetry().expect("telemetry on")),
        )
    };

    let journal = std::env::temp_dir().join(format!("digsd-kill9-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&journal);

    // Daemon 1: real process, journaled, paced (300 ms per flush
    // boundary) so SIGKILL lands mid-run.
    let addr_a = format!("127.0.0.1:{}", free_port());
    let mut daemon_a = spawn_serve(&addr_a, &journal, Some(300));
    wait_ready(&addr_a);

    let mut stream =
        ResumableStream::launch(&addr_a, "kill9-test", "hardy", spec.to_json(), Filter::default())
            .expect("launch");

    // Read a prefix of the stream, then SIGKILL the daemon — no
    // graceful suspension, no final journal flush beyond whatever the
    // progress cadence already wrote.
    let mut first = Segment::default();
    while first.trace.len() < 20 {
        match stream.next_item().expect("stream item") {
            StreamItem::Event(f) => first.push(f.kind, f.seq, f.payload),
            StreamItem::Heartbeat { .. } | StreamItem::Restart { .. } => {}
            StreamItem::End(end) => panic!("run ended {:?} before the kill", end.state),
        }
    }
    let cursor = stream.cursor().expect("cursor pinned");
    daemon_a.kill().expect("SIGKILL the daemon");
    daemon_a.wait().expect("reap");

    // Daemon 2: a fresh process on a fresh port, same journal. It must
    // re-prepare the run from the journaled spec and replay it
    // deterministically; our cursor dedupes the prefix we already have.
    let addr_b = format!("127.0.0.1:{}", free_port());
    let mut daemon_b = spawn_serve(&addr_b, &journal, None);
    wait_ready(&addr_b);

    let mut resumed =
        ResumableStream::attach(&addr_b, "kill9-test", "hardy", Filter::default(), Some(cursor))
            .expect("re-attach with cursor");
    let mut second = Segment::default();
    let end = loop {
        match resumed.next_item().expect("stream item") {
            StreamItem::Event(f) => second.push(f.kind, f.seq, f.payload),
            StreamItem::Heartbeat { .. } | StreamItem::Restart { .. } => {}
            StreamItem::End(end) => break end,
        }
    };
    assert_eq!(end.state, RunState::Done, "the resumed run must complete");
    assert_eq!(end.dropped, 0, "the resumed stream must not drop");
    assert_eq!(resumed.lost(), 0, "no sequence gaps across the kill");

    // Sequences across both segments are exactly 0..n — zero gaps, zero
    // duplicates, even though the daemon died between them.
    let all_seqs: Vec<u64> = first.seqs.iter().chain(&second.seqs).copied().collect();
    for (i, seq) in all_seqs.iter().enumerate() {
        assert_eq!(*seq, i as u64, "sequence {seq} at position {i}: gap or duplicate");
    }

    // Byte identity: the reassembled exports equal the uninterrupted
    // run's.
    let mut full_trace = String::new();
    for line in first.trace.iter().chain(&second.trace) {
        full_trace.push_str(line);
        full_trace.push('\n');
    }
    assert_eq!(full_trace, expected_trace, "trace across kill -9 + resume must be byte-identical");
    let mut full_telemetry = String::new();
    for line in first
        .meta
        .iter()
        .chain(&second.meta)
        .chain(first.epochs.iter())
        .chain(&second.epochs)
        .chain(first.alerts.iter())
        .chain(&second.alerts)
    {
        full_telemetry.push_str(line);
        full_telemetry.push('\n');
    }
    assert_eq!(
        full_telemetry, expected_telemetry,
        "telemetry across kill -9 + resume must reassemble byte-identically"
    );

    // A hard daemon crash must not bill the run's restart budget.
    let mut client = Client::connect(&addr_b, "lister").expect("connect");
    let runs = client.list().expect("list");
    let info = runs.iter().find(|r| r.name == "hardy").expect("resumed run listed");
    assert_eq!(info.state, RunState::Done);
    assert_eq!(info.restarts, 0, "a daemon crash is not the run's fault");

    let mut admin = Client::connect(&addr_b, "admin").expect("connect");
    admin.shutdown().expect("shutdown");
    let _ = daemon_b.wait();
    let _ = std::fs::remove_file(&journal);
}
