//! Property tests: every message the tables declare survives decode →
//! encode byte for byte, and event-frame payloads survive *byte-exactly*
//! (the protocol's byte-identity guarantee rests on that splice).

use digs_cases::cases;
use digs_digsd::{valid_run_name, EventFrame, FrameKind, ServerMsg};
use digs_json::Value;

mod drawn;

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

/// Every line drawn from the seven tables — one per message type — comes
/// back byte for byte through its decoder and encoder; one that leaves out
/// optional fields decodes too.
#[test]
fn every_drawn_canonical_line_round_trips_byte_for_byte() {
    cases(256, |d| {
        for protocol in drawn::PROTOCOLS {
            for def in protocol.table {
                let line = drawn::line(d, protocol, def);
                assert!(!line.contains('\n'), "one message, one line: {line}");
                let back = (protocol.codec)(&line);
                assert_eq!(back.as_ref(), Ok(&line), "{} `{}`", protocol.name, def.name);
                // Leaving out what may be left out reads as the defaults,
                // which then write a canonical line.
                let sparse = drawn::sparse_line(d, protocol, def);
                let canonical = (protocol.codec)(&sparse)
                    .unwrap_or_else(|e| panic!("{} {sparse}: {e}", protocol.name));
                assert_eq!((protocol.codec)(&canonical), Ok(canonical.clone()), "{sparse}");
            }
        }
    });
}

#[test]
fn event_frames_round_trip_payloads_byte_exact() {
    cases(256, |d| {
        let name_seed = d.vec(0..40, |d| d.int(0..=u8::MAX));
        let payload_seed = d.vec(0..60, |d| d.int(0..=u8::MAX));
        let n = d.u64();
        let seq = d.u64();
        let kind = d.int(0..=u8::MAX);
        let node = d.int(0..=u16::MAX);
        let has_node = d.bool();
        let payload = payload_from(&payload_seed, n);
        let run = name_from(name_seed);
        assert!(valid_run_name(&run), "generator must produce valid names: {run}");
        let frame = EventFrame {
            run,
            kind: FrameKind::ALL[kind as usize % FrameKind::ALL.len()],
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
