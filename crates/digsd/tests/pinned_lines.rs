//! Every message shape the daemon writes — client and server wire
//! messages, journal records, launch specs — held to one literal line each.
//! The lines were written by the hand encoders the field tables replaced.
//! They cover the extremes (`u64::MAX`, every escape) and both sides of
//! every `Option`. Each line decodes back to its message, and the journal
//! lines fold to the same recovery they always did, so a journal written
//! before the tables still recovers.

use digs_digsd::{
    ClientMsg, ErrorCode, EventFrame, Filter, FleetParams, FrameKind, Journal, Record,
    RecoveredRun, RunInfo, RunState, ServerMsg, SingleSpec, Value,
};
use std::collections::BTreeMap;
use std::fmt::Debug;

/// Every character class the escaper treats differently.
const ESCAPES: &str = "q\"b\\s/\u{0}\u{1f}\n\r\t\u{7f} é → \u{10ffff}";

/// The JSON text of [`ESCAPES`], as the writer escapes it.
macro_rules! escaped {
    () => {
        "\"q\\\"b\\\\s/\\u0000\\u001f\\n\\r\\t\u{7f} é → \u{10ffff}\""
    };
}

/// The largest count of seconds whose slots fit the slot counter.
const MAX_SECS: u64 = u64::MAX / 100;

const STATES: [RunState; 6] = [
    RunState::Running,
    RunState::Restarting,
    RunState::Done,
    RunState::Killed,
    RunState::Failed,
    RunState::Quarantined,
];

fn every_filter() -> Filter {
    Filter {
        kinds: Some(
            [
                FrameKind::Trace,
                FrameKind::Epoch,
                FrameKind::Alert,
                FrameKind::Meta,
                FrameKind::Fleet,
            ]
            .into(),
        ),
        nodes: Some([0, 7, u16::MAX].into()),
    }
}

fn odd_spec() -> Value {
    Value::obj([
        ("kind", Value::Str(ESCAPES.into())),
        ("seed", Value::Int(u64::MAX)),
        ("x", Value::Arr(vec![Value::Null, Value::Bool(true), Value::Num(1.5)])),
    ])
}

fn client_messages() -> Vec<ClientMsg> {
    vec![
        ClientMsg::Hello { version: 2, client: "digs-cli".into() },
        ClientMsg::Hello { version: u64::MAX, client: ESCAPES.into() },
        ClientMsg::Launch {
            name: "r-1".into(),
            tail: true,
            filter: every_filter(),
            spec: SingleSpec::default().to_json(),
        },
        ClientMsg::Launch {
            name: "r_2".into(),
            tail: false,
            filter: Filter::default(),
            spec: FleetParams::default().to_json(),
        },
        ClientMsg::Launch {
            name: "r".into(),
            tail: false,
            filter: Filter { kinds: Some([].into()), nodes: Some([].into()) },
            spec: odd_spec(),
        },
        ClientMsg::Subscribe { run: "r-1".into(), filter: Filter::default(), from_seq: None },
        ClientMsg::Subscribe {
            run: "r-1".into(),
            filter: Filter { kinds: Some([FrameKind::Epoch].into()), nodes: None },
            from_seq: Some(u64::MAX),
        },
        ClientMsg::Subscribe {
            run: "r-1".into(),
            filter: Filter { kinds: None, nodes: Some([u16::MAX].into()) },
            from_seq: Some(0),
        },
        ClientMsg::List,
        ClientMsg::Kill { run: "r-1".into() },
        ClientMsg::Shutdown,
        ClientMsg::Ping,
    ]
}

const CLIENT: &[&str] = &[
    r#"{"type":"hello","version":2,"client":"digs-cli"}"#,
    concat!(r#"{"type":"hello","version":18446744073709551615,"client":"#, escaped!(), r#"}"#),
    r#"{"type":"launch","name":"r-1","tail":true,"kinds":["trace","epoch","alert","meta","fleet"],"nodes":[0,7,65535],"spec":{"kind":"single","topology":"testbed-a","protocol":"digs","seed":1,"flows":4,"period_ms":5000,"secs":300,"jammers":0,"adaptive_jam":null,"randomize":null,"trace_cap":null,"telemetry":null,"jam":null,"audit_every":null}}"#,
    r#"{"type":"launch","name":"r_2","tail":false,"kinds":null,"nodes":null,"spec":{"kind":"fleet","template":"mixed","networks":4,"seed_base":1,"secs":600,"sharded_devices":0,"shard_size":100,"sharded_seed":null,"jobs":null}}"#,
    concat!(
        r#"{"type":"launch","name":"r","tail":false,"kinds":[],"nodes":[],"spec":{"kind":"#,
        escaped!(),
        r#","seed":18446744073709551615,"x":[null,true,1.5]}}"#
    ),
    // Re-blessed when the tables came: `None` is written `null` (the hand
    // encoder left the key out, which every decoder reads alike).
    r#"{"type":"subscribe","run":"r-1","kinds":null,"nodes":null,"from_seq":null}"#,
    r#"{"type":"subscribe","run":"r-1","kinds":["epoch"],"nodes":null,"from_seq":18446744073709551615}"#,
    r#"{"type":"subscribe","run":"r-1","kinds":null,"nodes":[65535],"from_seq":0}"#,
    r#"{"type":"list"}"#,
    r#"{"type":"kill","run":"r-1"}"#,
    r#"{"type":"shutdown"}"#,
    r#"{"type":"ping"}"#,
];

fn server_messages() -> Vec<ServerMsg> {
    let runs = STATES
        .iter()
        .enumerate()
        .map(|(i, &state)| {
            let n = if i % 2 == 0 { u64::MAX } else { 0 };
            RunInfo {
                name: format!("run-{i}"),
                kind: if i == 0 { ESCAPES.into() } else { "single".into() },
                state,
                asn: n,
                subscribers: n,
                restarts: n,
                uptime_secs: n,
                drops: n,
            }
        })
        .collect();
    let frame = |kind, node, seq, payload: &str| {
        ServerMsg::Event(EventFrame { run: "r-1".into(), kind, node, seq, payload: payload.into() })
    };
    let codes = [
        ErrorCode::VersionMismatch,
        ErrorCode::UnknownRun,
        ErrorCode::NameTaken,
        ErrorCode::BadRequest,
        ErrorCode::BadSpec,
    ];
    let mut msgs = vec![
        ServerMsg::HelloAck { version: 2, server: "digsd/0.1.0".into() },
        ServerMsg::HelloAck { version: u64::MAX, server: ESCAPES.into() },
        ServerMsg::Ok,
    ];
    msgs.extend(codes.iter().map(|&code| ServerMsg::Error { code, message: "why".into() }));
    msgs.push(ServerMsg::Error { code: ErrorCode::BadSpec, message: ESCAPES.into() });
    msgs.extend([
        ServerMsg::Runs { runs: Vec::new() },
        ServerMsg::Runs { runs },
        frame(FrameKind::Trace, Some(u16::MAX), u64::MAX, r#"{"seq":1,"ev":"tx"}"#),
        frame(FrameKind::Epoch, None, 0, r#"{"epoch":0}"#),
        frame(FrameKind::Alert, Some(0), 1, r#"{"rule":"q\"p"}"#),
        frame(FrameKind::Meta, None, 2, "{}"),
        frame(FrameKind::Fleet, None, 3, r#"[1, 2]"#),
        ServerMsg::Heartbeat {
            run: "r-1".into(),
            asn: u64::MAX,
            sent: u64::MAX,
            dropped: u64::MAX,
        },
        ServerMsg::Heartbeat { run: "r-1".into(), asn: 0, sent: 0, dropped: 0 },
    ]);
    msgs.extend(STATES.iter().map(|&state| ServerMsg::RunEnded {
        run: "r-1".into(),
        state,
        asn: u64::MAX,
    }));
    msgs.extend([
        ServerMsg::RunRestarting { run: "r-1".into(), restarts: u64::MAX, backoff_ms: u64::MAX },
        ServerMsg::RunRestarting { run: "r-1".into(), restarts: 0, backoff_ms: 0 },
        ServerMsg::Pong,
    ]);
    msgs
}

const SERVER: &[&str] = &[
    r#"{"type":"hello-ack","version":2,"server":"digsd/0.1.0"}"#,
    concat!(r#"{"type":"hello-ack","version":18446744073709551615,"server":"#, escaped!(), r#"}"#),
    r#"{"type":"ok"}"#,
    r#"{"type":"error","code":"version-mismatch","message":"why"}"#,
    r#"{"type":"error","code":"unknown-run","message":"why"}"#,
    r#"{"type":"error","code":"name-taken","message":"why"}"#,
    r#"{"type":"error","code":"bad-request","message":"why"}"#,
    r#"{"type":"error","code":"bad-spec","message":"why"}"#,
    concat!(r#"{"type":"error","code":"bad-spec","message":"#, escaped!(), r#"}"#),
    r#"{"type":"runs","runs":[]}"#,
    concat!(
        r#"{"type":"runs","runs":[{"name":"run-0","kind":"#,
        escaped!(),
        r#","state":"running","asn":18446744073709551615,"subscribers":18446744073709551615,"restarts":18446744073709551615,"uptime_secs":18446744073709551615,"drops":18446744073709551615},{"name":"run-1","kind":"single","state":"restarting","asn":0,"subscribers":0,"restarts":0,"uptime_secs":0,"drops":0},{"name":"run-2","kind":"single","state":"done","asn":18446744073709551615,"subscribers":18446744073709551615,"restarts":18446744073709551615,"uptime_secs":18446744073709551615,"drops":18446744073709551615},{"name":"run-3","kind":"single","state":"killed","asn":0,"subscribers":0,"restarts":0,"uptime_secs":0,"drops":0},{"name":"run-4","kind":"single","state":"failed","asn":18446744073709551615,"subscribers":18446744073709551615,"restarts":18446744073709551615,"uptime_secs":18446744073709551615,"drops":18446744073709551615},{"name":"run-5","kind":"single","state":"quarantined","asn":0,"subscribers":0,"restarts":0,"uptime_secs":0,"drops":0}]}"#
    ),
    r#"{"type":"event","run":"r-1","kind":"trace","node":65535,"seq":18446744073709551615,"payload":{"seq":1,"ev":"tx"}}"#,
    r#"{"type":"event","run":"r-1","kind":"epoch","seq":0,"payload":{"epoch":0}}"#,
    r#"{"type":"event","run":"r-1","kind":"alert","node":0,"seq":1,"payload":{"rule":"q\"p"}}"#,
    r#"{"type":"event","run":"r-1","kind":"meta","seq":2,"payload":{}}"#,
    r#"{"type":"event","run":"r-1","kind":"fleet","seq":3,"payload":[1, 2]}"#,
    r#"{"type":"heartbeat","run":"r-1","asn":18446744073709551615,"sent":18446744073709551615,"dropped":18446744073709551615}"#,
    r#"{"type":"heartbeat","run":"r-1","asn":0,"sent":0,"dropped":0}"#,
    r#"{"type":"run-state","run":"r-1","state":"running","asn":18446744073709551615}"#,
    r#"{"type":"run-state","run":"r-1","state":"restarting","asn":18446744073709551615}"#,
    r#"{"type":"run-state","run":"r-1","state":"done","asn":18446744073709551615}"#,
    r#"{"type":"run-state","run":"r-1","state":"killed","asn":18446744073709551615}"#,
    r#"{"type":"run-state","run":"r-1","state":"failed","asn":18446744073709551615}"#,
    r#"{"type":"run-state","run":"r-1","state":"quarantined","asn":18446744073709551615}"#,
    r#"{"type":"run-restart","run":"r-1","restarts":18446744073709551615,"backoff_ms":18446744073709551615}"#,
    r#"{"type":"run-restart","run":"r-1","restarts":0,"backoff_ms":0}"#,
    r#"{"type":"pong"}"#,
];

fn records() -> Vec<Record> {
    let mut records = vec![
        Record::Launch {
            run: "a".into(),
            kind: "single".into(),
            spec: SingleSpec::default().to_json(),
        },
        Record::Progress { run: "a".into(), asn: 1_000, seq: 40 },
        Record::Subscriber { run: "a".into(), client: ESCAPES.into(), seq: 25 },
        Record::Restart { run: "a".into(), restarts: 2 },
        Record::Progress { run: "a".into(), asn: u64::MAX, seq: u64::MAX },
        Record::Progress { run: "a".into(), asn: 5, seq: 5 },
        Record::Resume { run: "a".into(), restarts: 1 },
        Record::Launch { run: "b".into(), kind: "fleet".into(), spec: Value::Null },
        Record::End { run: "b".into(), state: RunState::Done, asn: 0 },
        Record::Launch { run: "c".into(), kind: ESCAPES.into(), spec: odd_spec() },
        Record::Subscriber { run: "c".into(), client: "tail".into(), seq: 0 },
        Record::Restart { run: "c".into(), restarts: u64::MAX },
        Record::End { run: "c".into(), state: RunState::Quarantined, asn: u64::MAX },
        Record::Resume { run: "c".into(), restarts: 0 },
    ];
    // Records of a run never launched: recovery ignores them.
    records.extend(STATES.iter().map(|&state| Record::End { run: "zz".into(), state, asn: 7 }));
    records
}

const JOURNAL: &[&str] = &[
    r#"{"type":"launch","run":"a","kind":"single","spec":{"kind":"single","topology":"testbed-a","protocol":"digs","seed":1,"flows":4,"period_ms":5000,"secs":300,"jammers":0,"adaptive_jam":null,"randomize":null,"trace_cap":null,"telemetry":null,"jam":null,"audit_every":null}}"#,
    r#"{"type":"progress","run":"a","asn":1000,"seq":40}"#,
    concat!(r#"{"type":"subscriber","run":"a","client":"#, escaped!(), r#","seq":25}"#),
    r#"{"type":"restart","run":"a","restarts":2}"#,
    r#"{"type":"progress","run":"a","asn":18446744073709551615,"seq":18446744073709551615}"#,
    r#"{"type":"progress","run":"a","asn":5,"seq":5}"#,
    r#"{"type":"resume","run":"a","restarts":1}"#,
    r#"{"type":"launch","run":"b","kind":"fleet","spec":null}"#,
    r#"{"type":"end","run":"b","state":"done","asn":0}"#,
    concat!(
        r#"{"type":"launch","run":"c","kind":"#,
        escaped!(),
        r#","spec":{"kind":"#,
        escaped!(),
        r#","seed":18446744073709551615,"x":[null,true,1.5]}}"#
    ),
    r#"{"type":"subscriber","run":"c","client":"tail","seq":0}"#,
    r#"{"type":"restart","run":"c","restarts":18446744073709551615}"#,
    r#"{"type":"end","run":"c","state":"quarantined","asn":18446744073709551615}"#,
    r#"{"type":"resume","run":"c","restarts":0}"#,
    r#"{"type":"end","run":"zz","state":"running","asn":7}"#,
    r#"{"type":"end","run":"zz","state":"restarting","asn":7}"#,
    r#"{"type":"end","run":"zz","state":"done","asn":7}"#,
    r#"{"type":"end","run":"zz","state":"killed","asn":7}"#,
    r#"{"type":"end","run":"zz","state":"failed","asn":7}"#,
    r#"{"type":"end","run":"zz","state":"quarantined","asn":7}"#,
];

fn single_specs() -> Vec<SingleSpec> {
    vec![
        SingleSpec::default(),
        SingleSpec {
            topology: ESCAPES.into(),
            protocol: "wirelesshart".into(),
            seed: u64::MAX,
            flows: usize::MAX,
            period_ms: u64::MAX,
            secs: MAX_SECS,
            jammers: usize::MAX,
            adaptive_jam: Some(MAX_SECS),
            randomize: Some(u64::MAX),
            trace_cap: Some(usize::MAX),
            telemetry: Some((u64::MAX, usize::MAX)),
            jam: Some((0, MAX_SECS)),
            audit_every: Some(u64::MAX),
        },
    ]
}

const SINGLE_SPECS: &[&str] = &[
    r#"{"kind":"single","topology":"testbed-a","protocol":"digs","seed":1,"flows":4,"period_ms":5000,"secs":300,"jammers":0,"adaptive_jam":null,"randomize":null,"trace_cap":null,"telemetry":null,"jam":null,"audit_every":null}"#,
    concat!(
        r#"{"kind":"single","topology":"#,
        escaped!(),
        r#","protocol":"wirelesshart","seed":18446744073709551615,"flows":18446744073709551615,"period_ms":18446744073709551615,"secs":184467440737095516,"jammers":18446744073709551615,"adaptive_jam":184467440737095516,"randomize":18446744073709551615,"trace_cap":18446744073709551615,"telemetry":[18446744073709551615,18446744073709551615],"jam":[0,184467440737095516],"audit_every":18446744073709551615}"#
    ),
];

fn fleet_specs() -> Vec<FleetParams> {
    vec![
        FleetParams::default(),
        FleetParams {
            template: ESCAPES.into(),
            networks: u32::MAX,
            seed_base: u64::MAX,
            secs: MAX_SECS,
            sharded_devices: u32::MAX,
            shard_size: 0,
            sharded_seed: Some(u64::MAX),
            jobs: Some(usize::MAX),
        },
    ]
}

const FLEET_SPECS: &[&str] = &[
    r#"{"kind":"fleet","template":"mixed","networks":4,"seed_base":1,"secs":600,"sharded_devices":0,"shard_size":100,"sharded_seed":null,"jobs":null}"#,
    concat!(
        r#"{"kind":"fleet","template":"#,
        escaped!(),
        r#","networks":4294967295,"seed_base":18446744073709551615,"secs":184467440737095516,"sharded_devices":4294967295,"shard_size":0,"sharded_seed":18446744073709551615,"jobs":18446744073709551615}"#
    ),
];

fn parsed(line: &str) -> Result<Value, String> {
    digs_json::parse(line).map_err(|e| e.to_string())
}

/// Each value writes its pinned line, and each line decodes back to it.
fn pinned<T: PartialEq + Debug>(
    values: Vec<T>,
    pinned: &[&str],
    encode: impl Fn(&T) -> String,
    decode: impl Fn(&str) -> Result<T, String>,
) {
    let lines: Vec<String> = values.iter().map(encode).collect();
    assert_eq!(lines, pinned);
    for (value, line) in values.iter().zip(pinned) {
        assert_eq!(decode(line).as_ref(), Ok(value), "{line}");
    }
}

#[test]
fn every_client_message_writes_its_pinned_line() {
    pinned(client_messages(), CLIENT, ClientMsg::encode, ClientMsg::decode);
    // The line as the hand encoder wrote it still reads as the same message.
    let cursorless = r#"{"type":"subscribe","run":"r-1","kinds":null,"nodes":null}"#;
    assert_eq!(ClientMsg::decode(cursorless).as_ref(), Ok(&client_messages()[5]));
}

#[test]
fn every_server_message_writes_its_pinned_line() {
    pinned(server_messages(), SERVER, ServerMsg::encode, ServerMsg::decode);
}

#[test]
fn every_journal_record_writes_its_pinned_line() {
    pinned(records(), JOURNAL, Record::encode, Record::decode);
}

#[test]
fn every_spec_writes_its_pinned_line() {
    pinned(
        single_specs(),
        SINGLE_SPECS,
        |spec| spec.to_json().to_compact(),
        |line| SingleSpec::from_json(&parsed(line)?),
    );
    pinned(
        fleet_specs(),
        FLEET_SPECS,
        |params| params.to_json().to_compact(),
        |line| FleetParams::from_json(&parsed(line)?),
    );
}

#[test]
fn a_journal_of_the_pinned_lines_recovers_as_it_always_did() {
    let path =
        std::env::temp_dir().join(format!("digsd-pinned-journal-{}.jsonl", std::process::id()));
    std::fs::write(&path, JOURNAL.join("\n") + "\n").expect("write the journal");
    let recovery = Journal::recover(&path).expect("recover");
    std::fs::remove_file(&path).expect("remove the journal");
    let run = |name: &str, kind: &str, spec: Value| RecoveredRun {
        name: name.into(),
        kind: kind.into(),
        spec,
        asn: 0,
        seq: 0,
        restarts: 0,
        subscribers: BTreeMap::new(),
        ended: None,
    };
    let a = RecoveredRun {
        asn: u64::MAX,
        seq: u64::MAX,
        restarts: 2,
        subscribers: [(ESCAPES.to_string(), 25)].into(),
        ..run("a", "single", SingleSpec::default().to_json())
    };
    let b = RecoveredRun { ended: Some((RunState::Done, 0)), ..run("b", "fleet", Value::Null) };
    let c = RecoveredRun {
        asn: u64::MAX,
        restarts: u64::MAX,
        subscribers: [("tail".to_string(), 0)].into(),
        ended: Some((RunState::Quarantined, u64::MAX)),
        ..run("c", ESCAPES, odd_spec())
    };
    assert_eq!(recovery.corrupt_lines, 0);
    assert_eq!(recovery.runs, [a, b, c]);
}
