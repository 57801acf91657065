//! End-to-end daemon tests over real TCP: version negotiation, the
//! byte-identity guarantee (streamed JSONL == file export for the same
//! spec and seed), the never-block backpressure policy, and cooperative
//! kill.

use digs_digsd::{
    Client, Daemon, DaemonConfig, Filter, FleetParams, FrameKind, RunState, SingleSpec, StreamEnd,
    StreamItem,
};
use std::time::Duration;

/// Binds a daemon on an OS-assigned port and serves it from a background
/// thread. Returns the address to connect to.
fn start_daemon(config: DaemonConfig) -> String {
    let daemon = Daemon::bind("127.0.0.1:0", config).expect("bind");
    let addr = daemon.local_addr().expect("bound").to_string();
    std::thread::spawn(move || {
        let _ = daemon.serve_forever();
    });
    addr
}

/// Drains a tailed stream to completion, returning the payloads by kind
/// and the stream end summary.
struct Drained {
    trace: Vec<String>,
    epochs: Vec<String>,
    alerts: Vec<String>,
    meta: Vec<String>,
    end: StreamEnd,
}

fn drain(client: &mut Client) -> Drained {
    let (mut trace, mut epochs, mut alerts, mut meta) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    loop {
        match client.next_stream_item().expect("stream item") {
            StreamItem::Event(frame) => match frame.kind {
                FrameKind::Trace => trace.push(frame.payload),
                FrameKind::Epoch => epochs.push(frame.payload),
                FrameKind::Alert => alerts.push(frame.payload),
                FrameKind::Meta => meta.push(frame.payload),
                FrameKind::Fleet => {}
            },
            StreamItem::Heartbeat { .. } | StreamItem::Restart { .. } => {}
            StreamItem::End(end) => return Drained { trace, epochs, alerts, meta, end },
        }
    }
}

#[test]
fn version_mismatch_is_rejected_before_anything_else() {
    let addr = start_daemon(DaemonConfig::default());
    let err = match Client::connect_with_version(&addr, "test", 999) {
        Err(e) => e,
        Ok(_) => panic!("wrong version must be rejected"),
    };
    assert!(err.starts_with("version-mismatch"), "got: {err}");
    assert_eq!(digs_digsd::error_code(&err), Some(digs_digsd::ErrorCode::VersionMismatch));
    // The same address still accepts a correct-version client.
    let mut ok = Client::connect(&addr, "test").expect("correct version connects");
    ok.ping().expect("ping");
}

/// Sends raw bytes on a fresh connection and returns everything the daemon
/// answers until it closes.
fn raw_exchange(addr: &str, bytes: &[u8]) -> String {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    stream.write_all(bytes).expect("send");
    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("the daemon answers, then closes");
    reply
}

#[test]
fn hostile_first_lines_get_one_error_frame_and_the_daemon_lives() {
    let addr = start_daemon(DaemonConfig::default());
    // Before the hello: a nesting bomb (used to overflow the connection
    // thread's stack and abort the process), and 2 MiB with no newline
    // (used to grow the line buffer without limit).
    let bomb = "[".repeat(100_000) + "\n";
    for hostile in [bomb.into_bytes(), vec![b'x'; 2 << 20]] {
        let reply = raw_exchange(&addr, &hostile);
        assert_eq!(reply.lines().count(), 1, "exactly one frame: {reply}");
        assert!(reply.contains("\"code\":\"bad-request\""), "{reply}");
    }
    // After the hello an over-long line also ends the connection.
    let hello =
        digs_digsd::ClientMsg::Hello { version: digs_digsd::WIRE_VERSION, client: "t".into() }
            .encode();
    let mut session = (hello + "\n").into_bytes();
    session.resize(session.len() + (1 << 20) + 1, b'y');
    let reply = raw_exchange(&addr, &session);
    assert_eq!(reply.lines().count(), 2, "hello-ack, then one error: {reply}");
    assert!(reply.lines().nth(1).expect("error").contains("\"code\":\"bad-request\""));
    // The same daemon still serves a fresh client.
    let mut client = Client::connect(&addr, "after").expect("connect");
    assert!(client.list().expect("list").is_empty());
}

#[test]
fn streamed_jsonl_is_byte_identical_to_file_export() {
    // Caps sized so neither the trace ring nor the telemetry sampler
    // evicts: eviction would make *both* sides lossy in the same way,
    // hiding real streaming bugs.
    let spec = SingleSpec {
        topology: "testbed-a-half".into(),
        seed: 11,
        flows: 2,
        period_ms: 3000,
        secs: 45,
        trace_cap: Some(200_000),
        telemetry: Some((500, 256)),
        ..SingleSpec::default()
    };

    // Reference: the plain in-process run and its file exports.
    let mut reference = spec.build().expect("build");
    reference.run_secs(spec.secs);
    let expected_trace = digs_trace::to_jsonl(&reference.trace().events());
    let expected_telemetry =
        digs::telemetry::to_jsonl(reference.telemetry().expect("telemetry on"));

    // Streamed: the same spec through the daemon, tailed from launch.
    let addr = start_daemon(DaemonConfig { queue_cap: 1 << 20, ..DaemonConfig::default() });
    let mut client = Client::connect(&addr, "byte-identity-test").expect("connect");
    client.launch("ref-run", spec.to_json(), true, Filter::default()).expect("launch");
    let got = drain(&mut client);
    assert_eq!(got.end.state, RunState::Done);
    assert_eq!(got.end.dropped, 0, "a draining subscriber must not drop");

    // Trace file = trace payloads in stream order.
    let streamed_trace = got.trace.iter().fold(String::new(), |mut s, l| {
        s.push_str(l);
        s.push('\n');
        s
    });
    assert_eq!(streamed_trace, expected_trace, "trace stream must be byte-identical");

    // Telemetry file = meta line first, then epochs, then alerts. The
    // stream delivers meta last (its counts exist only at end of run), so
    // reassembly reorders.
    assert_eq!(got.meta.len(), 1, "exactly one meta frame");
    let mut streamed_telemetry = String::new();
    for line in got.meta.iter().chain(&got.epochs).chain(&got.alerts) {
        streamed_telemetry.push_str(line);
        streamed_telemetry.push('\n');
    }
    assert_eq!(
        streamed_telemetry, expected_telemetry,
        "telemetry stream must reassemble byte-identically"
    );
}

#[test]
fn stalled_subscriber_drops_frames_but_the_run_completes() {
    // A tiny queue and a subscriber that reads nothing until the run is
    // over: the engine must finish anyway, with the loss visible in the
    // stream's flow-control footer.
    let spec = SingleSpec {
        topology: "testbed-a-half".into(),
        seed: 7,
        flows: 2,
        period_ms: 2000,
        secs: 40,
        trace_cap: Some(200_000),
        telemetry: Some((1000, 64)),
        ..SingleSpec::default()
    };
    let addr = start_daemon(DaemonConfig { queue_cap: 4, ..DaemonConfig::default() });
    let mut tail = Client::connect(&addr, "stalled-tail").expect("connect");
    tail.launch("stalled", spec.to_json(), true, Filter::default()).expect("launch");

    // A second connection watches the run finish while the tail stalls.
    let mut watcher = Client::connect(&addr, "watcher").expect("connect");
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    loop {
        let runs = watcher.list().expect("list");
        let run = runs.iter().find(|r| r.name == "stalled").expect("registered");
        if run.state != RunState::Running {
            assert_eq!(run.state, RunState::Done, "run must complete despite the stalled reader");
            break;
        }
        assert!(std::time::Instant::now() < deadline, "run did not finish in time");
        std::thread::sleep(Duration::from_millis(100));
    }

    // Now drain the stalled stream: bounded loss, terminal frame intact.
    let got = drain(&mut tail);
    assert_eq!(got.end.state, RunState::Done);
    assert!(got.end.dropped > 0, "a stalled subscriber's overflow must be counted");
    let received = got.trace.len() + got.epochs.len() + got.alerts.len() + got.meta.len();
    assert_eq!(got.end.sent, received as u64, "footer sent count matches delivery");

    // The reference run shows how much was published; the stalled
    // subscriber must have seen strictly less.
    let mut reference = spec.build().expect("build");
    reference.run_secs(spec.secs);
    let published = reference.trace().events().len();
    assert!(
        received < published,
        "expected loss: received {received} of {published}+ published frames"
    );
}

#[test]
fn kill_stops_a_run_and_the_stream_reports_it() {
    let spec = SingleSpec {
        topology: "testbed-a-half".into(),
        seed: 3,
        flows: 1,
        secs: 3600, // far longer than the test will allow it to run
        trace_cap: Some(4096),
        telemetry: Some((1000, 64)),
        ..SingleSpec::default()
    };
    let addr = start_daemon(DaemonConfig::default());
    let mut tail = Client::connect(&addr, "kill-tail").expect("connect");
    tail.launch("doomed", spec.to_json(), true, Filter::default()).expect("launch");

    let mut killer = Client::connect(&addr, "killer").expect("connect");
    killer.kill("doomed").expect("kill");

    let got = drain(&mut tail);
    assert_eq!(got.end.state, RunState::Killed);
    assert!(got.end.asn < 3600 * 100, "killed long before the nominal end");

    // Killing an unknown run is a clean protocol error.
    let err = killer.kill("never-existed").expect_err("unknown run");
    assert_eq!(digs_digsd::error_code(&err), Some(digs_digsd::ErrorCode::UnknownRun));

    // The name stays registered with its terminal state; relaunching
    // under the same name is a name-taken error.
    let err =
        killer.launch("doomed", spec.to_json(), false, Filter::default()).expect_err("name taken");
    assert_eq!(digs_digsd::error_code(&err), Some(digs_digsd::ErrorCode::NameTaken));

    // A late subscriber to the finished run gets the terminal state
    // immediately.
    killer.subscribe("doomed", Filter::default(), None).expect("subscribe");
    match killer.next_stream_item().expect("terminal item") {
        StreamItem::End(end) => assert_eq!(end.state, RunState::Killed),
        other => panic!("expected immediate end, got {other:?}"),
    }
}

#[test]
fn a_spec_whose_kind_is_not_a_string_is_bad_spec() {
    // Refused before it is registered: it is not run, nor journaled, as `single`.
    let addr = start_daemon(DaemonConfig::default());
    let mut client = Client::connect(&addr, "typed").expect("connect");
    let spec = digs_digsd::Value::obj([("kind", digs_digsd::Value::Int(7))]);
    let err = client.launch("typed", spec, false, Filter::default()).expect_err("bad spec");
    assert_eq!(digs_digsd::error_code(&err), Some(digs_digsd::ErrorCode::BadSpec));
    assert!(err.contains("`kind` is not a string"), "{err}");
    assert!(client.list().expect("list").is_empty(), "nothing was registered");
}

#[test]
fn a_spec_that_cannot_be_built_is_bad_spec_and_the_daemon_serves_on() {
    // Each of these used to panic the connection thread while building the
    // network: the client saw the connection close, not an error.
    let addr = start_daemon(DaemonConfig::default());
    let mut client = Client::connect(&addr, "unbuildable").expect("connect");
    let refused = [
        (SingleSpec { period_ms: 5, ..SingleSpec::default() }, "period_ms"),
        (SingleSpec { audit_every: Some(0), ..SingleSpec::default() }, "audit_every"),
        (SingleSpec { flows: 500, ..SingleSpec::default() }, "flows"),
        (SingleSpec { jammers: usize::MAX, ..SingleSpec::default() }, "jammers"),
        (SingleSpec { topology: "random:0:100".into(), ..SingleSpec::default() }, "one device"),
        (
            SingleSpec { topology: "random:70000:100".into(), ..SingleSpec::default() },
            "device count",
        ),
        (
            SingleSpec {
                protocol: "wirelesshart".into(),
                topology: "random:5:100000".into(),
                ..SingleSpec::default()
            },
            "protocol",
        ),
    ];
    // A kind the daemon does not run is refused by name too.
    let scenario = r#"{"kind":"scenario","matrix":"small","scenario":"fig09-digs","seed":1}"#;
    let refused = refused
        .into_iter()
        .map(|(spec, field)| (spec.to_json(), field))
        .chain([(digs_json::parse(scenario).expect("parses"), "`scenario`")]);
    for (spec, field) in refused {
        let err = client.launch("unbuildable", spec, false, Filter::default());
        let err = err.expect_err("bad spec");
        assert_eq!(digs_digsd::error_code(&err), Some(digs_digsd::ErrorCode::BadSpec), "{err}");
        assert!(err.contains(field), "{err}");
    }
    assert!(client.list().expect("list").is_empty(), "nothing was registered");
    // The same connection and daemon then run a valid spec to its end.
    let spec = SingleSpec {
        topology: "testbed-a-half".into(),
        flows: 1,
        secs: 5,
        ..SingleSpec::default()
    };
    client.launch("buildable", spec.to_json(), true, Filter::default()).expect("launch");
    assert_eq!(drain(&mut client).end.state, RunState::Done);
}

#[test]
fn a_fleet_whose_shard_the_slotframe_ladder_cannot_frame_is_bad_spec() {
    // It used to pass validation, panic on the run thread, and end
    // `quarantined` after the supervisor had replayed it.
    let addr = start_daemon(DaemonConfig::default());
    let mut client = Client::connect(&addr, "oversized").expect("connect");
    let oversized = FleetParams {
        networks: 0,
        sharded_devices: 2000,
        shard_size: 2000,
        secs: 1,
        ..FleetParams::default()
    };
    let err = client.launch("oversized", oversized.to_json(), false, Filter::default());
    let err = err.expect_err("bad spec");
    assert_eq!(digs_digsd::error_code(&err), Some(digs_digsd::ErrorCode::BadSpec), "{err}");
    assert!(err.contains("shard_size"), "{err}");
    assert!(client.list().expect("list").is_empty(), "nothing was registered");
    // The same connection then runs a valid fleet to its end.
    let framed = FleetParams {
        template: "oil".into(),
        networks: 1,
        secs: 5,
        jobs: Some(1),
        ..FleetParams::default()
    };
    client.launch("framed", framed.to_json(), true, Filter::default()).expect("launch");
    let got = drain(&mut client);
    assert_eq!(got.end.state, RunState::Done);
    assert_eq!(got.meta.len(), 1, "the fleet report");
}

#[test]
fn filters_narrow_the_stream() {
    let spec = SingleSpec {
        topology: "testbed-a-half".into(),
        seed: 5,
        flows: 2,
        secs: 30,
        trace_cap: Some(100_000),
        telemetry: Some((500, 128)),
        ..SingleSpec::default()
    };
    let addr = start_daemon(DaemonConfig { queue_cap: 1 << 18, ..DaemonConfig::default() });
    let mut client = Client::connect(&addr, "filter-test").expect("connect");
    let mut kinds = std::collections::BTreeSet::new();
    kinds.insert(FrameKind::Epoch);
    kinds.insert(FrameKind::Meta);
    client
        .launch("filtered", spec.to_json(), true, Filter { kinds: Some(kinds), nodes: None })
        .expect("launch");
    let got = drain(&mut client);
    assert_eq!(got.end.state, RunState::Done);
    assert!(got.trace.is_empty(), "trace frames filtered out");
    assert!(got.alerts.is_empty(), "alert frames filtered out");
    assert!(!got.epochs.is_empty(), "epoch frames pass");
    assert_eq!(got.meta.len(), 1, "meta frame passes");
    // 30 s at 500-slot epochs = 6 epochs.
    assert_eq!(got.epochs.len(), 6);
}

#[test]
fn the_raw_bytes_of_a_tailed_launch_are_pinned() {
    // "Same wire bytes" as a test: everything the daemon writes to the
    // socket of a short tailed launch after its hello-ack (which names the
    // package version) — launch ack, every event line, the `run-state` line
    // and the footer heartbeat — read raw, never through the client's
    // decoder. Idle heartbeats are the only lines that depend on the host's
    // speed; they are left out of the digest.
    use std::io::{BufRead, BufReader, Write};
    let spec = SingleSpec {
        topology: "testbed-a-half".into(),
        seed: 11,
        flows: 2,
        period_ms: 3000,
        secs: 20,
        trace_cap: Some(200_000),
        telemetry: Some((500, 256)),
        ..SingleSpec::default()
    };
    let hello =
        digs_digsd::ClientMsg::Hello { version: digs_digsd::WIRE_VERSION, client: "raw".into() };
    let launch = digs_digsd::ClientMsg::Launch {
        name: "pinned".into(),
        tail: true,
        filter: Filter::default(),
        spec: spec.to_json(),
    };
    let addr = start_daemon(DaemonConfig { queue_cap: 1 << 20, ..DaemonConfig::default() });
    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(120))).expect("timeout");
    stream
        .write_all(format!("{}\n{}\n", hello.encode(), launch.encode()).as_bytes())
        .expect("send");

    let (mut digest, mut lines, mut bytes) = (0xcbf2_9ce4_8422_2325_u64, 0_u64, 0_u64);
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let mut ended = false;
    reader.read_line(&mut line).expect("read");
    assert!(line.starts_with("{\"type\":\"hello-ack\",\"version\":2,"), "{line}");
    loop {
        line.clear();
        assert!(reader.read_line(&mut line).expect("read") > 0, "closed before the stream end");
        let heartbeat = line.starts_with("{\"type\":\"heartbeat\"");
        if heartbeat && !ended {
            continue;
        }
        for b in line.bytes() {
            digest = (digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        lines += 1;
        bytes += line.len() as u64;
        if heartbeat {
            let footer = r#"{"type":"heartbeat","run":"pinned","asn":2000,"sent":964,"dropped":0}"#;
            assert_eq!(line.trim_end(), footer);
            break;
        }
        ended |= line.starts_with("{\"type\":\"run-state\"");
    }
    // Computed at the commit before the hub moved batches (d79e3bd), less the
    // 2 000 per-slot `"ev":"slot"` frames that left the stream since, with
    // the frame and trace `seq` closed up (PR 21; the comparison is in
    // CHANGES.md). Re-pinned once when the joined-callback was retired,
    // which moved the run's simulated bytes (was 1085 lines, 168 095 bytes,
    // 0x75c2_aa2b_8dd5_fac4).
    assert_eq!(
        (lines, bytes, digest),
        (967, 153_992, 0xda16_81f4_e80c_5007),
        "got ({lines}, {bytes}, {digest:#018x})"
    );
}
