//! Deterministic JSONL (one JSON object per line) export and import.
//!
//! An [`Event`] is declared by its rows (`digs_json::message`): its head
//! `seq`, `asn` and `node`, then its kind's name under `ev` and that kind's
//! fields, each written straight into the output `String` in row order (no
//! value tree per event), so the same event stream always serializes to the
//! same bytes — the property the determinism acceptance test pins down. The
//! decoder reads each line with [`digs_json::parse`] and the same rows
//! (`seq`/`asn` are exact over the whole `u64` range).

use crate::event::Event;
use core::fmt;
use digs_json::message::{decode_line, Rows};

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
        event.write_json(&mut out);
        out.push('\n');
    }
    out
}

/// Serializes one event as a single JSONL line (no trailing newline).
/// Streaming exporters use this so that line-at-a-time emission is
/// byte-identical to a [`to_jsonl`] dump of the same events.
pub fn to_jsonl_line(event: &Event) -> String {
    let mut out = String::with_capacity(80);
    event.write_json(&mut out);
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
        let event = decode_line(line, Event::take_fields)
            .map_err(|message| ParseError { line: i + 1, message })?;
        events.push(event);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{DropReason, EventKind, FaultKind, PacketId, TrafficClass};

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
                kind: EventKind::Delivered { packet: p, latency: 50 },
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
                kind: EventKind::Delivered { packet: p, latency: u64::MAX },
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

    /// One event per variant at the edges of every field: integers at their
    /// type's maximum, then at zero, and every `Option` both ways.
    fn edge_events() -> Vec<Event> {
        let p = PacketId { flow: u16::MAX, seq: u32::MAX, origin: u16::MAX };
        let z = PacketId { flow: 0, seq: 0, origin: 0 };
        let max = |kind| Event { seq: u64::MAX, asn: u64::MAX, node: u16::MAX, kind };
        let zero = |kind| Event { seq: 0, asn: 0, node: 0, kind };
        vec![
            max(EventKind::Tx {
                dst: Some(u16::MAX),
                class: TrafficClass::Data,
                channel: u8::MAX,
                contention: true,
                packet: Some(p),
            }),
            zero(EventKind::Tx {
                dst: None,
                class: TrafficClass::Beacon,
                channel: 0,
                contention: false,
                packet: None,
            }),
            max(EventKind::Rx { src: u16::MAX, class: TrafficClass::Routing, packet: Some(p) }),
            zero(EventKind::Rx { src: 0, class: TrafficClass::Management, packet: None }),
            max(EventKind::Ack { dst: u16::MAX, packet: Some(p) }),
            zero(EventKind::Ack { dst: 0, packet: None }),
            max(EventKind::Nack { dst: u16::MAX, reason: DropReason::AckLost, packet: Some(p) }),
            zero(EventKind::Nack { dst: 0, reason: DropReason::NoListener, packet: None }),
            max(EventKind::CcaDefer),
            max(EventKind::QueueEnq { packet: p, depth: u32::MAX }),
            zero(EventKind::QueueDeq { packet: z, depth: 0 }),
            max(EventKind::QueueOverflow { packet: p }),
            zero(EventKind::RetryDrop { packet: z }),
            max(EventKind::Generated { packet: p }),
            max(EventKind::Delivered { packet: p, latency: u64::MAX }),
            zero(EventKind::Delivered { packet: z, latency: 0 }),
            max(EventKind::ParentSwitch {
                old_best: Some(u16::MAX),
                new_best: Some(u16::MAX),
                old_second: Some(u16::MAX),
                new_second: Some(u16::MAX),
            }),
            zero(EventKind::ParentSwitch {
                old_best: None,
                new_best: None,
                old_second: None,
                new_second: None,
            }),
            max(EventKind::RankChange { old: Some(u16::MAX), new: u16::MAX }),
            zero(EventKind::RankChange { old: None, new: 0 }),
            max(EventKind::CellAlloc { slot: u32::MAX, offset: u8::MAX, child: u16::MAX }),
            zero(EventKind::CellRelease { slot: 0, offset: 0, child: 0 }),
            max(EventKind::FaultInject { fault: FaultKind::LinkOutage, peer: Some(u16::MAX) }),
            zero(EventKind::FaultClear { fault: FaultKind::Reboot, peer: None }),
            zero(EventKind::NodeReset),
            max(EventKind::ClockDesync),
            max(EventKind::AuditViolation {
                kind: "q\"b\\s/".into(),
                detail: "\u{0}\u{1f}\n\r\t\u{7f} é → \u{10ffff}".into(),
            }),
            zero(EventKind::HealthAlert { rule: String::new(), detail: "plain".into() }),
            max(EventKind::AttackPhase { jamming: true, targets: u32::MAX, hit_rate_bp: u32::MAX }),
            zero(EventKind::AttackPhase { jamming: false, targets: 0, hit_rate_bp: 0 }),
            max(EventKind::DefenseEpoch { epoch: u64::MAX }),
            zero(EventKind::DefenseEpoch { epoch: 0 }),
        ]
    }

    #[test]
    fn every_variant_writes_its_pinned_line() {
        // Written by the `write!`-based encoder this one replaced; the pinned
        // workload digests only reach the variants those workloads emit.
        const PINNED: &[&str] = &[
            r#"{"seq":18446744073709551615,"asn":18446744073709551615,"node":65535,"ev":"tx","dst":65535,"class":"data","channel":255,"contention":true,"packet":{"flow":65535,"seq":4294967295,"origin":65535}}"#,
            r#"{"seq":0,"asn":0,"node":0,"ev":"tx","class":"beacon","channel":0,"contention":false}"#,
            r#"{"seq":18446744073709551615,"asn":18446744073709551615,"node":65535,"ev":"rx","src":65535,"class":"routing","packet":{"flow":65535,"seq":4294967295,"origin":65535}}"#,
            r#"{"seq":0,"asn":0,"node":0,"ev":"rx","src":0,"class":"mgmt"}"#,
            r#"{"seq":18446744073709551615,"asn":18446744073709551615,"node":65535,"ev":"ack","dst":65535,"packet":{"flow":65535,"seq":4294967295,"origin":65535}}"#,
            r#"{"seq":0,"asn":0,"node":0,"ev":"ack","dst":0}"#,
            r#"{"seq":18446744073709551615,"asn":18446744073709551615,"node":65535,"ev":"nack","dst":65535,"reason":"ack-lost","packet":{"flow":65535,"seq":4294967295,"origin":65535}}"#,
            r#"{"seq":0,"asn":0,"node":0,"ev":"nack","dst":0,"reason":"no-listener"}"#,
            r#"{"seq":18446744073709551615,"asn":18446744073709551615,"node":65535,"ev":"cca-defer"}"#,
            r#"{"seq":18446744073709551615,"asn":18446744073709551615,"node":65535,"ev":"q-enq","packet":{"flow":65535,"seq":4294967295,"origin":65535},"depth":4294967295}"#,
            r#"{"seq":0,"asn":0,"node":0,"ev":"q-deq","packet":{"flow":0,"seq":0,"origin":0},"depth":0}"#,
            r#"{"seq":18446744073709551615,"asn":18446744073709551615,"node":65535,"ev":"q-overflow","packet":{"flow":65535,"seq":4294967295,"origin":65535}}"#,
            r#"{"seq":0,"asn":0,"node":0,"ev":"retry-drop","packet":{"flow":0,"seq":0,"origin":0}}"#,
            r#"{"seq":18446744073709551615,"asn":18446744073709551615,"node":65535,"ev":"generated","packet":{"flow":65535,"seq":4294967295,"origin":65535}}"#,
            r#"{"seq":18446744073709551615,"asn":18446744073709551615,"node":65535,"ev":"delivered","packet":{"flow":65535,"seq":4294967295,"origin":65535},"latency":18446744073709551615}"#,
            r#"{"seq":0,"asn":0,"node":0,"ev":"delivered","packet":{"flow":0,"seq":0,"origin":0},"latency":0}"#,
            r#"{"seq":18446744073709551615,"asn":18446744073709551615,"node":65535,"ev":"parent-switch","old_best":65535,"new_best":65535,"old_second":65535,"new_second":65535}"#,
            r#"{"seq":0,"asn":0,"node":0,"ev":"parent-switch"}"#,
            r#"{"seq":18446744073709551615,"asn":18446744073709551615,"node":65535,"ev":"rank-change","old":65535,"new":65535}"#,
            r#"{"seq":0,"asn":0,"node":0,"ev":"rank-change","new":0}"#,
            r#"{"seq":18446744073709551615,"asn":18446744073709551615,"node":65535,"ev":"cell-alloc","slot":4294967295,"offset":255,"child":65535}"#,
            r#"{"seq":0,"asn":0,"node":0,"ev":"cell-release","slot":0,"offset":0,"child":0}"#,
            r#"{"seq":18446744073709551615,"asn":18446744073709551615,"node":65535,"ev":"fault-inject","fault":"link-outage","peer":65535}"#,
            r#"{"seq":0,"asn":0,"node":0,"ev":"fault-clear","fault":"reboot"}"#,
            r#"{"seq":0,"asn":0,"node":0,"ev":"node-reset"}"#,
            r#"{"seq":18446744073709551615,"asn":18446744073709551615,"node":65535,"ev":"clock-desync"}"#,
            concat!(
                r#"{"seq":18446744073709551615,"asn":18446744073709551615,"node":65535,"ev":"audit-violation","kind":"q\"b\\s/","detail":"\u0000\u001f\n\r\t"#,
                "\u{7f} é → \u{10ffff}\"}"
            ),
            r#"{"seq":0,"asn":0,"node":0,"ev":"health-alert","rule":"","detail":"plain"}"#,
            r#"{"seq":18446744073709551615,"asn":18446744073709551615,"node":65535,"ev":"attack-phase","jamming":true,"targets":4294967295,"hit_rate_bp":4294967295}"#,
            r#"{"seq":0,"asn":0,"node":0,"ev":"attack-phase","jamming":false,"targets":0,"hit_rate_bp":0}"#,
            r#"{"seq":18446744073709551615,"asn":18446744073709551615,"node":65535,"ev":"defense-epoch","epoch":18446744073709551615}"#,
            r#"{"seq":0,"asn":0,"node":0,"ev":"defense-epoch","epoch":0}"#,
        ];
        let events = edge_events();
        let lines: Vec<String> = events.iter().map(to_jsonl_line).collect();
        assert_eq!(lines, PINNED);
        assert_eq!(from_jsonl(&to_jsonl(&events)).expect("parse back"), events);
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
