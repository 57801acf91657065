//! Lines drawn from the message tables. A canonical line writes every row,
//! in order, with a value its decoder accepts: decoding it and encoding the
//! result must give it back byte for byte. The lines reach the extremes —
//! `0` and the largest integer of each row, strings with every escape —
//! and both sides of every `Option`. Shared by `wire_roundtrip.rs` and
//! `decoder_fuzz.rs`, each of which uses part of it.

#![allow(dead_code)]

use digs::telemetry::{Buckets, TelemetryLine};
use digs_cases::Draw;
use digs_digsd::{
    ClientMsg, FieldDef, FleetParams, Kind, MessageDef, Record, ServerMsg, SingleSpec,
};
use digs_json::Value;
use digs_trace::{Event, EventKind};
use std::collections::BTreeSet;

/// Encodes what a line decodes to, or says why it did not decode.
pub type Codec = fn(&str) -> Result<String, String>;

/// One protocol: its table, the key its tag goes under, the rows written
/// before the tag (a trace event's head), and its codec.
pub struct Protocol {
    pub name: &'static str,
    pub table: &'static [MessageDef],
    pub tag: &'static str,
    pub head: &'static [FieldDef],
    pub codec: Codec,
}

/// A trace event's rows before its kind: `seq`, `asn`, `node`.
const EVENT_HEAD: &[FieldDef] = match Event::FIELDS {
    [head @ .., _kind] => head,
    [] => &[],
};

fn spec_value(line: &str) -> Result<Value, String> {
    digs_json::parse(line).map_err(|e| e.to_string())
}

/// The seven tables: client, server, journal, single spec, fleet spec,
/// trace event and telemetry line.
pub const PROTOCOLS: &[Protocol] = &[
    Protocol {
        name: "client",
        table: ClientMsg::MESSAGES,
        tag: "type",
        head: &[],
        codec: |line| ClientMsg::decode(line).map(|m| m.encode()),
    },
    Protocol {
        name: "server",
        table: ServerMsg::MESSAGES,
        tag: "type",
        head: &[],
        codec: |line| ServerMsg::decode(line).map(|m| m.encode()),
    },
    Protocol {
        name: "journal",
        table: Record::MESSAGES,
        tag: "type",
        head: &[],
        codec: |line| Record::decode(line).map(|r| r.encode()),
    },
    Protocol {
        name: "single spec",
        table: SingleSpec::MESSAGES,
        tag: "kind",
        head: &[],
        codec: |line| SingleSpec::from_json(&spec_value(line)?).map(|s| s.to_json().to_compact()),
    },
    Protocol {
        name: "fleet spec",
        table: FleetParams::MESSAGES,
        tag: "kind",
        head: &[],
        codec: |line| FleetParams::from_json(&spec_value(line)?).map(|p| p.to_json().to_compact()),
    },
    Protocol {
        name: "trace",
        table: EventKind::MESSAGES,
        tag: "ev",
        head: EVENT_HEAD,
        codec: |line| match digs_trace::from_jsonl(line).map_err(|e| e.to_string())?[..] {
            [ref event] => Ok(digs_trace::to_jsonl_line(event)),
            ref events => Err(format!("{} events on one line", events.len())),
        },
    },
    Protocol {
        name: "telemetry",
        table: TelemetryLine::MESSAGES,
        tag: "type",
        head: &[],
        codec: |line| TelemetryLine::decode(line).map(|l| l.encode()),
    },
];

/// A canonical line of message type `def` of `protocol`.
pub fn line(d: &mut Draw, protocol: &Protocol, def: &MessageDef) -> String {
    draw(d, protocol, def, false)
}

/// A line of message type `def` that leaves out some fields it need not
/// have: it decodes, but is not canonical.
pub fn sparse_line(d: &mut Draw, protocol: &Protocol, def: &MessageDef) -> String {
    draw(d, protocol, def, true)
}

fn draw(d: &mut Draw, protocol: &Protocol, def: &MessageDef, sparse: bool) -> String {
    let mut fields = Vec::new();
    rows(d, protocol.head, sparse, &mut fields);
    fields.push((protocol.tag.to_string(), Value::Str(def.name.into())));
    rows(d, def.fields, sparse, &mut fields);
    Value::Obj(fields).to_compact()
}

fn rows(d: &mut Draw, rows: &[FieldDef], sparse: bool, out: &mut Vec<(String, Value)>) {
    for row in rows {
        match row.kind {
            Kind::Flat(inner) => self::rows(d, inner, sparse, out),
            Kind::OneOf { tag, messages } => {
                let def = d.pick(messages);
                out.push((tag.into(), Value::Str(def.name.into())));
                self::rows(d, def.fields, sparse, out);
            }
            Kind::Omitted(inner) => {
                if d.bool() {
                    out.push((row.key.into(), value(d, inner)));
                }
            }
            _ if sparse && !row.required && d.bool() => {}
            kind => out.push((row.key.into(), value(d, &kind))),
        }
    }
}

/// `0`, `max`, or anything in between.
fn int(d: &mut Draw, max: u64) -> u64 {
    match d.int(0..4) {
        0 => 0,
        1 => max,
        _ => d.int(0..=max),
    }
}

/// Text with quotes, backslashes, controls and multi-byte characters.
fn text(d: &mut Draw) -> String {
    const CHARS: &[char] =
        &['"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{7f}', 'é', '→', '\u{10ffff}'];
    (0..d.int(0..12))
        .map(|_| if d.bool() { *d.pick(CHARS) } else { char::from(d.int(b'a'..=b'z')) })
        .collect()
}

/// An `i64`: its extremes, `0`, `-1`, or anything within the ±2^53 a
/// negative JSON integer is read exactly to.
fn signed(d: &mut Draw) -> Value {
    let n = match d.int(0..5) {
        0 => *d.pick(&[0, -1, i64::MIN, i64::MAX]),
        _ => {
            let magnitude = d.int(0..=1i64 << 53);
            if d.bool() {
                -magnitude
            } else {
                magnitude
            }
        }
    };
    if n < 0 {
        Value::Num(n as f64)
    } else {
        Value::Int(n as u64)
    }
}

/// A latency histogram's rows: the table cannot say that `count` is the
/// buckets' sum, that `min` is at most `max`, or that the buckets are
/// ascending, distinct and non-empty, so these are drawn that way.
fn buckets(d: &mut Draw) -> Value {
    let indices: BTreeSet<u64> = (0..d.int(0..4)).map(|_| d.int(0..=495)).collect();
    if indices.is_empty() {
        return Value::obj([("count", Value::Int(0))]);
    }
    let pairs: Vec<(u64, u64)> = indices.into_iter().map(|i| (i, d.int(1..=1 << 40))).collect();
    let (lo, hi) = (d.u64(), d.u64());
    Value::obj([
        ("count", Value::Int(pairs.iter().map(|(_, count)| count).sum())),
        ("min", Value::Int(lo.min(hi))),
        ("max", Value::Int(lo.max(hi))),
        (
            "buckets",
            Value::Arr(
                pairs
                    .into_iter()
                    .map(|(i, count)| Value::Arr(vec![Value::Int(i), Value::Int(count)]))
                    .collect(),
            ),
        ),
    ])
}

/// A drawn value of `kind`.
pub fn value(d: &mut Draw, kind: &Kind) -> Value {
    match *kind {
        Kind::Str => Value::Str(text(d)),
        Kind::Int { max } => Value::Int(int(d, max)),
        Kind::Signed => signed(d),
        Kind::Num => Value::Num(*d.pick(&[0.0, 1e-7, 0.5, 1320.0])),
        Kind::Bool => Value::Bool(d.bool()),
        Kind::Raw => Value::obj([
            ("kind", Value::Str(text(d))),
            ("n", Value::Int(d.u64())),
            ("x", Value::Arr(vec![Value::Null, Value::Bool(d.bool()), Value::Num(0.5)])),
        ]),
        Kind::Named(names) => Value::Str(d.pick(names).to_string()),
        Kind::Secs => Value::Int(int(d, u64::MAX / digs_sim::time::SLOTS_PER_SECOND)),
        Kind::Opt(inner) | Kind::Omitted(inner) => {
            if d.bool() {
                Value::Null
            } else {
                value(d, inner)
            }
        }
        Kind::Pair(a, b) => Value::Arr(vec![value(d, a), value(d, b)]),
        Kind::List(inner) => Value::Arr((0..d.int(0..3)).map(|_| value(d, inner)).collect()),
        // A set is written in ascending order, without repeats.
        Kind::Set(&Kind::Named(names)) => Value::Arr(
            names.iter().filter(|_| d.bool()).map(|n| Value::Str(n.to_string())).collect(),
        ),
        Kind::Set(&Kind::Int { max }) => {
            let set: BTreeSet<u64> = (0..d.int(0..4)).map(|_| int(d, max)).collect();
            Value::Arr(set.into_iter().map(Value::Int).collect())
        }
        Kind::Set(other) => panic!("no drawn set of {other:?}"),
        Kind::Map(inner) => {
            Value::Obj((0..d.int(0..4)).map(|_| (text(d), value(d, inner))).collect())
        }
        Kind::Obj(inner) if inner == Buckets::FIELDS => buckets(d),
        Kind::Obj(inner) | Kind::Flat(inner) => {
            let mut out = Vec::new();
            rows(d, inner, false, &mut out);
            Value::Obj(out)
        }
        Kind::OneOf { .. } => {
            let mut out = Vec::new();
            rows(d, &[FieldDef { key: "", kind: *kind, required: true }], false, &mut out);
            Value::Obj(out)
        }
    }
}
