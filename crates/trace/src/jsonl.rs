//! Deterministic JSONL (one JSON object per line) export and import.
//!
//! The encoder formats each event straight into the output `String` with a
//! fixed field order (no value tree per event), so the same event stream
//! always serializes to the same bytes — the property the determinism
//! acceptance test pins down. It knows the events' field layout, not JSON
//! syntax: strings go through [`digs_json::write_string`], and the decoder
//! reads each line with [`digs_json::parse`] and its range-checked
//! accessors (`seq`/`asn` are exact over the whole `u64` range).

use crate::event::{DropReason, Event, EventKind, FaultKind, PacketId, TrafficClass};
use core::fmt;
use digs_json::{write_string, Value};

/// Error from [`from_jsonl`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line the error occurred on.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Serializes events to JSONL, one event per line in input order.
pub fn to_jsonl(events: &[Event]) -> String {
    let mut out = String::with_capacity(events.len() * 80);
    for event in events {
        write_jsonl_line(&mut out, event);
        out.push('\n');
    }
    out
}

/// Serializes one event as a single JSONL line (no trailing newline).
/// Streaming exporters use this so that line-at-a-time emission is
/// byte-identical to a [`to_jsonl`] dump of the same events.
pub fn to_jsonl_line(event: &Event) -> String {
    let mut out = String::with_capacity(80);
    write_jsonl_line(&mut out, event);
    out
}

/// Parses a JSONL document produced by [`to_jsonl`]. Blank lines are
/// ignored.
pub fn from_jsonl(text: &str) -> Result<Vec<Event>, ParseError> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let event = digs_json::parse(line)
            .map_err(|e| e.to_string())
            .and_then(|value| decode_event(&value))
            .map_err(|message| ParseError { line: i + 1, message })?;
        events.push(event);
    }
    Ok(events)
}

// ---------------------------------------------------------------- encoding

/// Appends what [`to_jsonl_line`] returns to `out`, for a caller that is
/// assembling a larger buffer (a digsd frame around the line).
pub fn write_jsonl_line(out: &mut String, event: &Event) {
    use std::fmt::Write;
    let _ = write!(
        out,
        "{{\"seq\":{},\"asn\":{},\"node\":{},\"ev\":\"{}\"",
        event.seq,
        event.asn,
        event.node,
        event.kind.name()
    );
    match &event.kind {
        EventKind::CcaDefer | EventKind::NodeReset | EventKind::ClockDesync => {}
        EventKind::Tx { dst, class, channel, contention, packet } => {
            if let Some(d) = dst {
                let _ = write!(out, ",\"dst\":{d}");
            }
            let _ = write!(out, ",\"class\":\"{}\",\"channel\":{channel}", class.as_str());
            let _ = write!(out, ",\"contention\":{contention}");
            write_opt_packet(out, packet);
        }
        EventKind::Rx { src, class, packet } => {
            let _ = write!(out, ",\"src\":{src},\"class\":\"{}\"", class.as_str());
            write_opt_packet(out, packet);
        }
        EventKind::Ack { dst, packet } => {
            let _ = write!(out, ",\"dst\":{dst}");
            write_opt_packet(out, packet);
        }
        EventKind::Nack { dst, reason, packet } => {
            let _ = write!(out, ",\"dst\":{dst},\"reason\":\"{}\"", reason.as_str());
            write_opt_packet(out, packet);
        }
        EventKind::QueueEnq { packet, depth } | EventKind::QueueDeq { packet, depth } => {
            write_packet(out, packet);
            let _ = write!(out, ",\"depth\":{depth}");
        }
        EventKind::QueueOverflow { packet }
        | EventKind::RetryDrop { packet }
        | EventKind::Generated { packet } => write_packet(out, packet),
        EventKind::Delivered { packet, latency_slots } => {
            write_packet(out, packet);
            let _ = write!(out, ",\"latency\":{latency_slots}");
        }
        EventKind::ParentSwitch { old_best, new_best, old_second, new_second } => {
            write_opt_u16(out, "old_best", old_best);
            write_opt_u16(out, "new_best", new_best);
            write_opt_u16(out, "old_second", old_second);
            write_opt_u16(out, "new_second", new_second);
        }
        EventKind::RankChange { old, new } => {
            write_opt_u16(out, "old", old);
            let _ = write!(out, ",\"new\":{new}");
        }
        EventKind::CellAlloc { slot, offset, child }
        | EventKind::CellRelease { slot, offset, child } => {
            let _ = write!(out, ",\"slot\":{slot},\"offset\":{offset},\"child\":{child}");
        }
        EventKind::FaultInject { fault, peer } | EventKind::FaultClear { fault, peer } => {
            let _ = write!(out, ",\"fault\":\"{}\"", fault.as_str());
            write_opt_u16(out, "peer", peer);
        }
        EventKind::AuditViolation { kind, detail } => {
            out.push_str(",\"kind\":");
            write_string(out, kind);
            out.push_str(",\"detail\":");
            write_string(out, detail);
        }
        EventKind::HealthAlert { rule, detail } => {
            out.push_str(",\"rule\":");
            write_string(out, rule);
            out.push_str(",\"detail\":");
            write_string(out, detail);
        }
        EventKind::AttackPhase { jamming, targets, hit_rate_bp } => {
            let _ = write!(
                out,
                ",\"jamming\":{jamming},\"targets\":{targets},\"hit_rate_bp\":{hit_rate_bp}"
            );
        }
        EventKind::DefenseEpoch { epoch } => {
            let _ = write!(out, ",\"epoch\":{epoch}");
        }
    }
    out.push('}');
}

fn write_opt_u16(out: &mut String, key: &str, value: &Option<u16>) {
    use std::fmt::Write;
    if let Some(v) = value {
        let _ = write!(out, ",\"{key}\":{v}");
    }
}

fn write_packet(out: &mut String, p: &PacketId) {
    use std::fmt::Write;
    let _ = write!(
        out,
        ",\"packet\":{{\"flow\":{},\"seq\":{},\"origin\":{}}}",
        p.flow, p.seq, p.origin
    );
}

fn write_opt_packet(out: &mut String, p: &Option<PacketId>) {
    if let Some(p) = p {
        write_packet(out, p);
    }
}

// ---------------------------------------------------------------- decoding

fn packet_field(value: &Value) -> Result<PacketId, String> {
    let p = value.req("packet")?;
    Ok(PacketId { flow: p.uint("flow")?, seq: p.uint("seq")?, origin: p.uint("origin")? })
}

fn opt_packet_field(value: &Value) -> Result<Option<PacketId>, String> {
    value.present("packet").map(|_| packet_field(value)).transpose()
}

fn class_field(value: &Value) -> Result<TrafficClass, String> {
    let s = value.str("class")?;
    TrafficClass::parse(s).ok_or_else(|| format!("unknown traffic class \"{s}\""))
}

fn decode_event(value: &Value) -> Result<Event, String> {
    let seq = value.uint("seq")?;
    let asn = value.uint("asn")?;
    let node = value.uint("node")?;
    let ev = value.str("ev")?;
    let kind = match ev {
        "cca-defer" => EventKind::CcaDefer,
        "node-reset" => EventKind::NodeReset,
        "clock-desync" => EventKind::ClockDesync,
        "tx" => EventKind::Tx {
            dst: value.opt_uint("dst")?,
            class: class_field(value)?,
            channel: value.uint("channel")?,
            contention: value.bool("contention")?,
            packet: opt_packet_field(value)?,
        },
        "rx" => EventKind::Rx {
            src: value.uint("src")?,
            class: class_field(value)?,
            packet: opt_packet_field(value)?,
        },
        "ack" => EventKind::Ack { dst: value.uint("dst")?, packet: opt_packet_field(value)? },
        "nack" => {
            let s = value.str("reason")?;
            EventKind::Nack {
                dst: value.uint("dst")?,
                reason: DropReason::parse(s).ok_or_else(|| format!("unknown reason \"{s}\""))?,
                packet: opt_packet_field(value)?,
            }
        }
        "q-enq" => {
            EventKind::QueueEnq { packet: packet_field(value)?, depth: value.uint("depth")? }
        }
        "q-deq" => {
            EventKind::QueueDeq { packet: packet_field(value)?, depth: value.uint("depth")? }
        }
        "q-overflow" => EventKind::QueueOverflow { packet: packet_field(value)? },
        "retry-drop" => EventKind::RetryDrop { packet: packet_field(value)? },
        "generated" => EventKind::Generated { packet: packet_field(value)? },
        "delivered" => EventKind::Delivered {
            packet: packet_field(value)?,
            latency_slots: value.uint("latency")?,
        },
        "parent-switch" => EventKind::ParentSwitch {
            old_best: value.opt_uint("old_best")?,
            new_best: value.opt_uint("new_best")?,
            old_second: value.opt_uint("old_second")?,
            new_second: value.opt_uint("new_second")?,
        },
        "rank-change" => {
            EventKind::RankChange { old: value.opt_uint("old")?, new: value.uint("new")? }
        }
        "cell-alloc" | "cell-release" => {
            let slot = value.uint("slot")?;
            let offset = value.uint("offset")?;
            let child = value.uint("child")?;
            if ev == "cell-alloc" {
                EventKind::CellAlloc { slot, offset, child }
            } else {
                EventKind::CellRelease { slot, offset, child }
            }
        }
        "fault-inject" | "fault-clear" => {
            let s = value.str("fault")?;
            let fault = FaultKind::parse(s).ok_or_else(|| format!("unknown fault kind \"{s}\""))?;
            let peer = value.opt_uint("peer")?;
            if ev == "fault-inject" {
                EventKind::FaultInject { fault, peer }
            } else {
                EventKind::FaultClear { fault, peer }
            }
        }
        "audit-violation" => EventKind::AuditViolation {
            kind: value.str("kind")?.to_owned(),
            detail: value.str("detail")?.to_owned(),
        },
        "health-alert" => EventKind::HealthAlert {
            rule: value.str("rule")?.to_owned(),
            detail: value.str("detail")?.to_owned(),
        },
        "attack-phase" => EventKind::AttackPhase {
            jamming: value.bool("jamming")?,
            targets: value.uint("targets")?,
            hit_rate_bp: value.uint("hit_rate_bp")?,
        },
        "defense-epoch" => EventKind::DefenseEpoch { epoch: value.uint("epoch")? },
        other => return Err(format!("unknown event name \"{other}\"")),
    };
    Ok(Event { seq, asn, node, kind })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        let p = PacketId { flow: 2, seq: 17, origin: 9 };
        vec![
            Event { seq: 1, asn: 100, node: 9, kind: EventKind::Generated { packet: p } },
            Event { seq: 2, asn: 100, node: 9, kind: EventKind::QueueEnq { packet: p, depth: 1 } },
            Event {
                seq: 3,
                asn: 104,
                node: 9,
                kind: EventKind::Tx {
                    dst: Some(4),
                    class: TrafficClass::Data,
                    channel: 11,
                    contention: false,
                    packet: Some(p),
                },
            },
            Event {
                seq: 4,
                asn: 104,
                node: 9,
                kind: EventKind::Nack { dst: 4, reason: DropReason::FrameLost, packet: Some(p) },
            },
            Event { seq: 5, asn: 105, node: 9, kind: EventKind::CcaDefer },
            Event {
                seq: 6,
                asn: 110,
                node: 4,
                kind: EventKind::Rx { src: 9, class: TrafficClass::Data, packet: Some(p) },
            },
            Event { seq: 7, asn: 110, node: 9, kind: EventKind::Ack { dst: 4, packet: Some(p) } },
            Event { seq: 8, asn: 110, node: 9, kind: EventKind::QueueDeq { packet: p, depth: 0 } },
            Event {
                seq: 9,
                asn: 111,
                node: 7,
                kind: EventKind::ParentSwitch {
                    old_best: Some(4),
                    new_best: Some(5),
                    old_second: None,
                    new_second: Some(4),
                },
            },
            Event { seq: 10, asn: 111, node: 7, kind: EventKind::RankChange { old: None, new: 3 } },
            Event {
                seq: 11,
                asn: 112,
                node: 5,
                kind: EventKind::CellAlloc { slot: 31, offset: 2, child: 7 },
            },
            Event {
                seq: 12,
                asn: 113,
                node: 5,
                kind: EventKind::CellRelease { slot: 31, offset: 2, child: 7 },
            },
            Event {
                seq: 13,
                asn: 120,
                node: 6,
                kind: EventKind::FaultInject { fault: FaultKind::LinkOutage, peer: Some(2) },
            },
            Event {
                seq: 14,
                asn: 140,
                node: 6,
                kind: EventKind::FaultClear { fault: FaultKind::LinkOutage, peer: Some(2) },
            },
            Event { seq: 15, asn: 141, node: 6, kind: EventKind::NodeReset },
            Event { seq: 16, asn: 142, node: 6, kind: EventKind::ClockDesync },
            Event {
                seq: 17,
                asn: 150,
                node: 0,
                kind: EventKind::Delivered { packet: p, latency_slots: 50 },
            },
            Event { seq: 18, asn: 151, node: 9, kind: EventKind::QueueOverflow { packet: p } },
            Event { seq: 19, asn: 152, node: 9, kind: EventKind::RetryDrop { packet: p } },
            Event {
                seq: 20,
                asn: 160,
                node: crate::event::NETWORK_NODE,
                kind: EventKind::AuditViolation {
                    kind: "routing-loop".into(),
                    detail: "cycle #1 → #2 → \"#1\"\nwith newline\ttab".into(),
                },
            },
            Event {
                seq: 21,
                asn: 170,
                node: crate::event::NETWORK_NODE,
                kind: EventKind::HealthAlert {
                    rule: "pdr-collapse".into(),
                    detail: "flow 0 epoch PDR 0.42 < 0.70".into(),
                },
            },
            Event {
                seq: 22,
                asn: 180,
                node: crate::event::NETWORK_NODE,
                kind: EventKind::AttackPhase { jamming: true, targets: 12, hit_rate_bp: 0 },
            },
            Event {
                seq: 23,
                asn: 185,
                node: crate::event::NETWORK_NODE,
                kind: EventKind::AttackPhase { jamming: false, targets: 0, hit_rate_bp: 450 },
            },
            Event {
                seq: 24,
                asn: 190,
                node: crate::event::NETWORK_NODE,
                kind: EventKind::DefenseEpoch { epoch: 3 },
            },
        ]
    }

    #[test]
    fn round_trip_preserves_every_variant() {
        let events = sample_events();
        let text = to_jsonl(&events);
        let back = from_jsonl(&text).expect("parse back");
        assert_eq!(back, events);
    }

    #[test]
    fn serialization_is_deterministic() {
        let events = sample_events();
        assert_eq!(to_jsonl(&events), to_jsonl(&events));
    }

    #[test]
    fn line_writer_agrees_with_the_bulk_dump() {
        let events = sample_events();
        let joined: String = events.iter().map(|e| to_jsonl_line(e) + "\n").collect();
        assert_eq!(joined, to_jsonl(&events), "per-line emission must match the bulk dump");
    }

    #[test]
    fn one_line_per_event() {
        let events = sample_events();
        let text = to_jsonl(&events);
        assert_eq!(text.lines().count(), events.len());
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "bad line: {line}");
        }
    }

    #[test]
    fn blank_lines_are_ignored() {
        let events = sample_events();
        let mut text = to_jsonl(&events);
        text.push('\n');
        text.insert(0, '\n');
        assert_eq!(from_jsonl(&text).unwrap().len(), events.len());
    }

    #[test]
    fn garbage_reports_line_number() {
        let err = from_jsonl("{\"seq\":0,\"asn\":0,\"node\":1,\"ev\":\"cca-defer\"}\nnot json")
            .unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn unknown_event_name_is_an_error() {
        let err = from_jsonl("{\"seq\":0,\"asn\":0,\"node\":1,\"ev\":\"warp\"}").unwrap_err();
        assert!(err.message.contains("warp"), "{err}");
        // The per-slot marker older traces carried is no event any more.
        let err = from_jsonl("{\"seq\":0,\"asn\":0,\"node\":65535,\"ev\":\"slot\"}").unwrap_err();
        assert!(err.message.contains("unknown event name \"slot\""), "{err}");
    }

    #[test]
    fn extreme_values_round_trip() {
        let p = PacketId { flow: u16::MAX, seq: u32::MAX, origin: u16::MAX };
        let events = vec![
            Event {
                seq: u64::MAX,
                asn: u64::MAX,
                node: u16::MAX,
                kind: EventKind::Delivered { packet: p, latency_slots: u64::MAX },
            },
            Event {
                seq: 0,
                asn: 0,
                node: 0,
                kind: EventKind::Tx {
                    dst: Some(u16::MAX),
                    class: TrafficClass::Data,
                    channel: u8::MAX,
                    contention: true,
                    packet: Some(p),
                },
            },
            Event {
                seq: 1,
                asn: 1,
                node: 1,
                kind: EventKind::QueueEnq { packet: p, depth: u32::MAX },
            },
        ];
        let back = from_jsonl(&to_jsonl(&events)).expect("parse back");
        assert_eq!(back, events);
    }

    #[test]
    fn string_escapes_round_trip() {
        let events = vec![Event {
            seq: 0,
            asn: 1,
            node: 2,
            kind: EventKind::AuditViolation {
                kind: "x".into(),
                detail: "quote \" backslash \\ control \u{1} unicode é".into(),
            },
        }];
        let back = from_jsonl(&to_jsonl(&events)).unwrap();
        assert_eq!(back, events);
    }
}
