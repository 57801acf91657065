//! Property tests: every wire message survives encode → decode intact,
//! and event-frame payloads survive *byte-exactly* (the protocol's
//! byte-identity guarantee rests on that splice).

use digs_cases::cases;
use digs_digsd::{
    valid_run_name, ClientMsg, ErrorCode, EventFrame, Filter, FrameKind, RunInfo, RunState,
    ServerMsg,
};
use digs_json::Value;
use std::collections::BTreeSet;

const NAME_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-_";

/// Builds a valid run name from numeric draws.
fn name_from(seed: Vec<u8>) -> String {
    let mut name: String =
        seed.iter().take(64).map(|b| NAME_CHARS[*b as usize % NAME_CHARS.len()] as char).collect();
    if name.is_empty() {
        name.push('r');
    }
    name
}

/// Builds free-form text (quotes, backslashes, controls included) from
/// numeric draws — exercised through JSON string escaping.
fn text_from(seed: &[u8]) -> String {
    seed.iter()
        .map(|b| match b % 8 {
            0 => '"',
            1 => '\\',
            2 => '\n',
            3 => '\t',
            4 => ' ',
            _ => (b'a' + b % 26) as char,
        })
        .collect()
}

/// A syntactically valid JSONL payload carrying adversarial text.
fn payload_from(seed: &[u8], n: u64) -> String {
    Value::Obj(vec![
        ("seq".into(), Value::Int(n)),
        ("detail".into(), Value::Str(text_from(seed))),
        // The decoder finds the frame's own payload field even when the
        // payload *contains* the marker text.
        ("trap".into(), Value::Str(",\"payload\":".into())),
    ])
    .to_compact()
}

fn kind_from(k: u8) -> FrameKind {
    [FrameKind::Trace, FrameKind::Epoch, FrameKind::Alert, FrameKind::Meta, FrameKind::Fleet]
        [k as usize % 5]
}

fn filter_from(kinds: &[u8], nodes: &[u16], none_kinds: bool, none_nodes: bool) -> Filter {
    Filter {
        kinds: (!none_kinds).then(|| kinds.iter().map(|k| kind_from(*k)).collect::<BTreeSet<_>>()),
        nodes: (!none_nodes).then(|| nodes.iter().copied().collect::<BTreeSet<_>>()),
    }
}

#[test]
fn client_messages_round_trip() {
    cases(256, |d| {
        let version = d.int(0u64..10);
        let seed = d.u64();
        let name_seed = d.vec(0..40, |d| d.int(0..=u8::MAX));
        let kinds = d.vec(0..5, |d| d.int(0..=u8::MAX));
        let nodes = d.vec(0..5, |d| d.int(0..=u16::MAX));
        let flags = d.vec(3..4, |d| d.bool());
        let text_seed = d.vec(0..30, |d| d.int(0..=u8::MAX));
        let name = name_from(name_seed);
        assert!(valid_run_name(&name), "generator must produce valid names: {name}");
        let filter = filter_from(&kinds, &nodes, flags[0], flags[1]);
        let spec = Value::Obj(vec![
            ("kind".into(), Value::Str("single".into())),
            ("seed".into(), Value::Int(seed)),
            ("note".into(), Value::Str(text_from(&text_seed))),
        ]);
        let msgs = vec![
            ClientMsg::Hello { version, client: text_from(&text_seed) },
            ClientMsg::Launch { name: name.clone(), tail: flags[2], filter: filter.clone(), spec },
            ClientMsg::Subscribe { run: name.clone(), filter, from_seq: flags[0].then_some(seed) },
            ClientMsg::List,
            ClientMsg::Kill { run: name },
            ClientMsg::Shutdown,
            ClientMsg::Ping,
        ];
        for msg in msgs {
            let line = msg.encode();
            assert!(!line.contains('\n'), "one message, one line: {line}");
            let back =
                ClientMsg::decode(&line).unwrap_or_else(|e| panic!("decode failed: {e} on {line}"));
            assert_eq!(back, msg);
        }
    });
}

#[test]
fn server_messages_round_trip() {
    cases(256, |d| {
        // Wire integers are exact over the whole u64 range.
        let nums = d.vec(4..5, |d| d.u64());
        let name_seed = d.vec(1..20, |d| d.int(0..=u8::MAX));
        let text_seed = d.vec(0..30, |d| d.int(0..=u8::MAX));
        let states = d.vec(2..3, |d| d.int(0..=u8::MAX));
        let run_count = d.int(0usize..4);
        let name = name_from(name_seed);
        let state = [
            RunState::Running,
            RunState::Restarting,
            RunState::Done,
            RunState::Killed,
            RunState::Failed,
            RunState::Quarantined,
        ][states[0] as usize % 6];
        let code = [
            ErrorCode::VersionMismatch,
            ErrorCode::UnknownRun,
            ErrorCode::NameTaken,
            ErrorCode::BadRequest,
            ErrorCode::BadSpec,
        ][states[1] as usize % 5];
        let runs = (0..run_count)
            .map(|i| RunInfo {
                name: format!("{name}-{i}"),
                kind: "single".into(),
                state,
                asn: nums[0].wrapping_add(i as u64),
                subscribers: nums[1] % 100,
                restarts: nums[2] % 10,
                uptime_secs: nums[3] % 100_000,
                drops: nums[1] % 977,
            })
            .collect();
        let msgs = vec![
            ServerMsg::HelloAck { version: nums[0], server: text_from(&text_seed) },
            ServerMsg::Ok,
            ServerMsg::Error { code, message: text_from(&text_seed) },
            ServerMsg::Runs { runs },
            ServerMsg::Heartbeat {
                run: name.clone(),
                asn: nums[0],
                sent: nums[1],
                dropped: nums[2],
            },
            ServerMsg::RunEnded { run: name.clone(), state, asn: nums[3] },
            ServerMsg::RunRestarting { run: name, restarts: nums[2] % 100, backoff_ms: nums[1] },
            ServerMsg::Pong,
        ];
        for msg in msgs {
            let line = msg.encode();
            assert!(!line.contains('\n'), "one message, one line: {line}");
            let back =
                ServerMsg::decode(&line).unwrap_or_else(|e| panic!("decode failed: {e} on {line}"));
            assert_eq!(back, msg);
        }
    });
}

#[test]
fn event_frames_round_trip_payloads_byte_exact() {
    cases(256, |d| {
        let name_seed = d.vec(1..20, |d| d.int(0..=u8::MAX));
        let payload_seed = d.vec(0..60, |d| d.int(0..=u8::MAX));
        let n = d.u64();
        let seq = d.u64();
        let kind = d.int(0..=u8::MAX);
        let node = d.int(0..=u16::MAX);
        let has_node = d.bool();
        let payload = payload_from(&payload_seed, n);
        let frame = EventFrame {
            run: name_from(name_seed),
            kind: kind_from(kind),
            node: has_node.then_some(node),
            seq,
            payload: payload.clone(),
        };
        let line = frame.encode();
        let back =
            EventFrame::decode(&line).unwrap_or_else(|e| panic!("decode failed: {e} on {line}"));
        assert_eq!(&back.payload, &payload, "payload bytes must survive untouched");
        assert_eq!(back, frame);
        // And through the ServerMsg dispatcher too.
        let ServerMsg::Event(via_dispatch) =
            ServerMsg::decode(&line).unwrap_or_else(|e| panic!("dispatch decode failed: {e}"))
        else {
            panic!("event line must dispatch to Event");
        };
        assert_eq!(via_dispatch.payload, payload);
    });
}
