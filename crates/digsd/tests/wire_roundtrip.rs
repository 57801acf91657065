//! Property tests: every wire message survives encode → decode intact,
//! and event-frame payloads survive *byte-exactly* (the protocol's
//! byte-identity guarantee rests on that splice).

use digs_digsd::{
    valid_run_name, ClientMsg, ErrorCode, EventFrame, Filter, FrameKind, RunInfo, RunState,
    ServerMsg,
};
use digs_json::Value;
use proptest::prelude::*;
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

proptest! {
    #[test]
    fn client_messages_round_trip(
        version in 0u64..10,
        seed in any::<u64>(),
        name_seed in prop::collection::vec(any::<u8>(), 0..40),
        kinds in prop::collection::vec(any::<u8>(), 0..5),
        nodes in prop::collection::vec(any::<u16>(), 0..5),
        flags in prop::collection::vec(any::<bool>(), 3..4),
        text_seed in prop::collection::vec(any::<u8>(), 0..30),
    ) {
        let name = name_from(name_seed);
        prop_assert!(valid_run_name(&name), "generator must produce valid names: {name}");
        let filter = filter_from(&kinds, &nodes, flags[0], flags[1]);
        let spec = Value::Obj(vec![
            ("kind".into(), Value::Str("single".into())),
            ("seed".into(), Value::Int(seed)),
            ("note".into(), Value::Str(text_from(&text_seed))),
        ]);
        let msgs = vec![
            ClientMsg::Hello { version, client: text_from(&text_seed) },
            ClientMsg::Launch { name: name.clone(), tail: flags[2], filter: filter.clone(), spec },
            ClientMsg::Subscribe {
                run: name.clone(),
                filter,
                from_seq: flags[0].then_some(seed),
            },
            ClientMsg::List,
            ClientMsg::Kill { run: name },
            ClientMsg::Shutdown,
            ClientMsg::Ping,
        ];
        for msg in msgs {
            let line = msg.encode();
            prop_assert!(!line.contains('\n'), "one message, one line: {line}");
            let back = ClientMsg::decode(&line)
                .map_err(|e| format!("decode failed: {e} on {line}"))?;
            prop_assert_eq!(back, msg);
        }
    }

    #[test]
    fn server_messages_round_trip(
        // Wire integers are exact over the whole u64 range.
        nums in prop::collection::vec(any::<u64>(), 4..5),
        name_seed in prop::collection::vec(any::<u8>(), 1..20),
        text_seed in prop::collection::vec(any::<u8>(), 0..30),
        states in prop::collection::vec(any::<u8>(), 2..3),
        run_count in 0usize..4,
    ) {
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
            prop_assert!(!line.contains('\n'), "one message, one line: {line}");
            let back = ServerMsg::decode(&line)
                .map_err(|e| format!("decode failed: {e} on {line}"))?;
            prop_assert_eq!(back, msg);
        }
    }

    #[test]
    fn event_frames_round_trip_payloads_byte_exact(
        name_seed in prop::collection::vec(any::<u8>(), 1..20),
        payload_seed in prop::collection::vec(any::<u8>(), 0..60),
        n in any::<u64>(),
        seq in any::<u64>(),
        kind in any::<u8>(),
        node in any::<u16>(),
        has_node in any::<bool>(),
    ) {
        let payload = payload_from(&payload_seed, n);
        let frame = EventFrame {
            run: name_from(name_seed),
            kind: kind_from(kind),
            node: has_node.then_some(node),
            seq,
            payload: payload.clone(),
        };
        let line = frame.encode();
        let back = EventFrame::decode(&line)
            .map_err(|e| format!("decode failed: {e} on {line}"))?;
        prop_assert_eq!(&back.payload, &payload, "payload bytes must survive untouched");
        prop_assert_eq!(back, frame);
        // And through the ServerMsg dispatcher too.
        let ServerMsg::Event(via_dispatch) =
            ServerMsg::decode(&line).map_err(|e| format!("dispatch decode failed: {e}"))?
        else {
            return Err("event line must dispatch to Event".into());
        };
        prop_assert_eq!(via_dispatch.payload, payload);
    }
}
