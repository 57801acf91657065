//! Lines drawn from the message tables. A canonical line writes every row,
//! in order, with a value its decoder accepts: decoding it and encoding the
//! result must give it back byte for byte. The lines reach the extremes —
//! `0` and the largest integer of each row, strings with every escape —
//! and both sides of every `Option`. Shared by `wire_roundtrip.rs` and
//! `decoder_fuzz.rs`, each of which uses part of it.

#![allow(dead_code)]

use digs_cases::Draw;
use digs_digsd::{
    ClientMsg, FieldDef, FleetParams, Kind, MessageDef, Record, ServerMsg, SingleSpec,
};
use digs_json::Value;
use std::collections::BTreeSet;

/// Encodes what a line decodes to, or says why it did not decode.
pub type Codec = fn(&str) -> Result<String, String>;

/// One protocol: its table, the key its tag goes under, and its codec.
pub struct Protocol {
    pub name: &'static str,
    pub table: &'static [MessageDef],
    pub tag: &'static str,
    pub codec: Codec,
}

fn spec_value(line: &str) -> Result<Value, String> {
    digs_json::parse(line).map_err(|e| e.to_string())
}

/// The five tables: client, server, journal, single spec and fleet spec.
pub const PROTOCOLS: &[Protocol] = &[
    Protocol {
        name: "client",
        table: ClientMsg::MESSAGES,
        tag: "type",
        codec: |line| ClientMsg::decode(line).map(|m| m.encode()),
    },
    Protocol {
        name: "server",
        table: ServerMsg::MESSAGES,
        tag: "type",
        codec: |line| ServerMsg::decode(line).map(|m| m.encode()),
    },
    Protocol {
        name: "journal",
        table: Record::MESSAGES,
        tag: "type",
        codec: |line| Record::decode(line).map(|r| r.encode()),
    },
    Protocol {
        name: "single spec",
        table: SingleSpec::MESSAGES,
        tag: "kind",
        codec: |line| SingleSpec::from_json(&spec_value(line)?).map(|s| s.to_json().to_compact()),
    },
    Protocol {
        name: "fleet spec",
        table: FleetParams::MESSAGES,
        tag: "kind",
        codec: |line| FleetParams::from_json(&spec_value(line)?).map(|p| p.to_json().to_compact()),
    },
];

/// A canonical line of message type `def`, its name under `tag`.
pub fn line(d: &mut Draw, tag: &str, def: &MessageDef) -> String {
    let mut fields = vec![(tag.to_string(), Value::Str(def.name.into()))];
    rows(d, def.fields, false, &mut fields);
    Value::Obj(fields).to_compact()
}

/// A line of message type `def` that leaves out some fields it need not
/// have: it decodes, but is not canonical.
pub fn sparse_line(d: &mut Draw, tag: &str, def: &MessageDef) -> String {
    let mut fields = vec![(tag.to_string(), Value::Str(def.name.into()))];
    rows(d, def.fields, true, &mut fields);
    Value::Obj(fields).to_compact()
}

fn rows(d: &mut Draw, rows: &[FieldDef], sparse: bool, out: &mut Vec<(String, Value)>) {
    for row in rows {
        match row.kind {
            Kind::Flat(inner) => self::rows(d, inner, sparse, out),
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

/// A drawn value of `kind`.
pub fn value(d: &mut Draw, kind: &Kind) -> Value {
    match *kind {
        Kind::Str => Value::Str(text(d)),
        Kind::Int { max } => Value::Int(int(d, max)),
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
        Kind::Obj(inner) | Kind::Flat(inner) => {
            let mut out = Vec::new();
            rows(d, inner, false, &mut out);
            Value::Obj(out)
        }
    }
}
