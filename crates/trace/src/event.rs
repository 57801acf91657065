//! The typed flight-recorder event model.
//!
//! Events use raw integer identifiers (`u16` nodes, `u64` ASNs) rather than
//! the simulator's newtypes so this crate stays a leaf: `digs-sim` depends
//! on `digs-trace`, not the other way around. Call sites convert with
//! `NodeId::0` / `Asn::0` at the recording boundary.

use core::fmt;
use digs_json::message::{Flat, Omitted};

/// Sentinel node id for network-scoped events (audit violations, health
/// alerts, attack phases and defense epochs: attributed to the run rather
/// than a device).
pub const NETWORK_NODE: u16 = u16::MAX;

digs_json::message! {
    /// End-to-end identity of one application data packet, stable across hops.
    ///
    /// Mirrors the `DataPacket` key used by the harness for delivery dedup:
    /// `(flow, seq, origin)` uniquely names a generated packet.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
    pub struct PacketId {
        /// Flow the packet belongs to.
        flow: u16,
        /// Per-origin sequence number.
        seq: u32,
        /// Originating node.
        origin: u16,
    }
}

impl fmt::Display for PacketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flow{}/{}@#{}", self.flow, self.seq, self.origin)
    }
}

digs_json::named! {
    /// Coarse traffic class of a frame, mirroring `digs_sim::packet::FrameKind`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum TrafficClass: "traffic class" {
        /// Enhanced Beacon (time synchronization).
        Beacon = "beacon",
        /// Routing signalling.
        Routing = "routing",
        /// Application data.
        Data = "data",
        /// Centralized manager dissemination.
        Management = "mgmt",
    }
}

digs_json::named! {
    /// Why a unicast transmission went unacknowledged or a packet was dropped.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum DropReason: "reason" {
        /// The bounded queue was full on enqueue.
        QueueOverflow = "queue-overflow",
        /// The per-hop retransmission budget was exhausted.
        RetryBudget = "retry-budget",
        /// The destination was not listening on the frame's channel.
        NoListener = "no-listener",
        /// The frame itself was lost on the air (CRC failure / collision / jam).
        FrameLost = "frame-lost",
        /// The frame was decoded but the acknowledgement was lost on the way
        /// back.
        AckLost = "ack-lost",
    }
}

digs_json::named! {
    /// Which scripted fault hit or cleared (for [`EventKind::FaultInject`] /
    /// [`EventKind::FaultClear`]).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum FaultKind: "fault kind" {
        /// Node outage (warm RAM state survives).
        Outage = "outage",
        /// Cold reboot (stack resets when the node returns).
        Reboot = "reboot",
        /// Bidirectional link obstruction; `peer` names the other endpoint.
        LinkOutage = "link-outage",
    }
}

digs_json::message! {
    /// One recorded flight-recorder event: one JSONL line, its head and then
    /// its kind's name under `ev` and that kind's fields.
    ///
    /// `seq` is a recorder-global monotone counter: sorting any merged event set
    /// by `seq` restores the exact order in which the (deterministic) simulation
    /// emitted them, which is what makes same-seed traces byte-identical.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Event {
        /// Global emission order.
        seq: u64,
        /// Absolute slot number the event occurred in.
        asn: u64,
        /// Node the event is attributed to ([`NETWORK_NODE`] for run-scoped
        /// events).
        node: u16,
        /// What happened.
        kind: EventKind as Flat<EventKind>,
    }
}

digs_json::message! {
    /// Everything the flight recorder can log, one row table per kind (DESIGN
    /// §4.8 prints them): an `Option` field is left out of the line when none.
    #[derive(Debug, Clone, PartialEq)]
    pub enum EventKind: "event name" by "ev" {
        /// A frame was committed to the air by this node.
        Tx = "tx" {
            /// Unicast destination (`None` = broadcast).
            dst: Option<u16> as Omitted<u16>,
            /// Traffic class.
            class: TrafficClass,
            /// Physical 802.15.4 channel index (0–15).
            channel: u8,
            /// Whether the slot was a shared (CSMA/CA) cell.
            contention: bool,
            /// Data-packet identity, when the frame carries application data.
            packet: Option<PacketId> as Omitted<PacketId>,
        },
        /// A frame from `src` was decoded by this node.
        Rx = "rx" {
            /// Transmitting node.
            src: u16,
            /// Traffic class.
            class: TrafficClass,
            /// Data-packet identity, when the frame carries application data.
            packet: Option<PacketId> as Omitted<PacketId>,
        },
        /// This node's unicast to `dst` was acknowledged.
        Ack = "ack" {
            /// Destination that acknowledged.
            dst: u16,
            /// Data-packet identity, if any.
            packet: Option<PacketId> as Omitted<PacketId>,
        },
        /// This node's unicast to `dst` went unacknowledged.
        Nack = "nack" {
            /// Intended destination.
            dst: u16,
            /// Diagnosed cause.
            reason: DropReason,
            /// Data-packet identity, if any.
            packet: Option<PacketId> as Omitted<PacketId>,
        },
        /// CSMA/CA found the channel busy; the node deferred.
        CcaDefer = "cca-defer",
        /// A packet entered this node's transmit queue.
        QueueEnq = "q-enq" {
            /// The packet.
            packet: PacketId,
            /// Queue depth after the enqueue.
            depth: u32,
        },
        /// A packet left this node's transmit queue (forwarded successfully).
        QueueDeq = "q-deq" {
            /// The packet.
            packet: PacketId,
            /// Queue depth after the dequeue.
            depth: u32,
        },
        /// The bounded queue rejected a packet.
        QueueOverflow = "q-overflow" {
            /// The rejected packet.
            packet: PacketId,
        },
        /// A packet was dropped after exhausting its retransmission budget.
        RetryDrop = "retry-drop" {
            /// The dropped packet.
            packet: PacketId,
        },
        /// An application packet was generated at its origin.
        Generated = "generated" {
            /// The new packet.
            packet: PacketId,
        },
        /// A packet reached an access point.
        Delivered = "delivered" {
            /// The delivered packet.
            packet: PacketId,
            /// End-to-end latency in slots.
            latency: u64,
        },
        /// The routing layer changed this node's parent set.
        ParentSwitch = "parent-switch" {
            /// Previous primary parent.
            old_best: Option<u16> as Omitted<u16>,
            /// New primary parent.
            new_best: Option<u16> as Omitted<u16>,
            /// Previous backup parent.
            old_second: Option<u16> as Omitted<u16>,
            /// New backup parent.
            new_second: Option<u16> as Omitted<u16>,
        },
        /// This node's routing rank changed.
        RankChange = "rank-change" {
            /// Previous rank (`None` before first join).
            old: Option<u16> as Omitted<u16>,
            /// New rank.
            new: u16,
        },
        /// A dedicated receive cell was provisioned for `child`.
        CellAlloc = "cell-alloc" {
            /// Slot-in-slotframe of the cell.
            slot: u32,
            /// Channel offset of the cell.
            offset: u8,
            /// The transmitting child.
            child: u16,
        },
        /// A dedicated receive cell for `child` was released.
        CellRelease = "cell-release" {
            /// Slot-in-slotframe of the cell.
            slot: u32,
            /// Channel offset of the cell.
            offset: u8,
            /// The departing child.
            child: u16,
        },
        /// A scripted fault hit this node (or link endpoint).
        FaultInject = "fault-inject" {
            /// Fault category.
            fault: FaultKind,
            /// Other endpoint for link outages.
            peer: Option<u16> as Omitted<u16>,
        },
        /// A scripted fault cleared.
        FaultClear = "fault-clear" {
            /// Fault category.
            fault: FaultKind,
            /// Other endpoint for link outages.
            peer: Option<u16> as Omitted<u16>,
        },
        /// The node cold-rebooted and its stack was factory-reset.
        NodeReset = "node-reset",
        /// The node's TSCH clock slipped past the guard time.
        ClockDesync = "clock-desync",
        /// The runtime invariant auditor flagged a violation.
        AuditViolation = "audit-violation" {
            /// Invariant kind (display name of `digs::audit::InvariantKind`).
            kind: String,
            /// Human-readable detail.
            detail: String,
        },
        /// The telemetry health monitor raised an alert at an epoch boundary.
        HealthAlert = "health-alert" {
            /// Rule wire name (e.g. `pdr-collapse`, `churn-storm`).
            rule: String,
            /// Human-readable detail.
            detail: String,
        },
        /// An adaptive jammer changed phase (run-scoped, on [`NETWORK_NODE`]):
        /// it either finished a learning window and started jamming its chosen
        /// target cells, or abandoned a stale target set and went back to
        /// learning.
        AttackPhase = "attack-phase" {
            /// `true` when entering the jamming phase, `false` when the
            /// attacker falls back to passive learning.
            jamming: bool,
            /// Number of (slot, channel-offset) target cells now jammed
            /// (0 while learning).
            targets: u32,
            /// Hit-rate of the evaluation window that triggered the
            /// transition, in basis points (0–10000).
            hit_rate_bp: u32,
        },
        /// The schedule-randomization defense rolled over to a new epoch
        /// permutation (run-scoped, on [`NETWORK_NODE`]).
        DefenseEpoch = "defense-epoch" {
            /// Randomization epoch index (ASN / application slotframe length).
            epoch: u64,
        },
    }
}

impl EventKind {
    /// The data-packet identity this event refers to, if any.
    pub fn packet(&self) -> Option<PacketId> {
        match self {
            EventKind::Tx { packet, .. }
            | EventKind::Rx { packet, .. }
            | EventKind::Ack { packet, .. }
            | EventKind::Nack { packet, .. } => *packet,
            EventKind::QueueEnq { packet, .. }
            | EventKind::QueueDeq { packet, .. }
            | EventKind::QueueOverflow { packet }
            | EventKind::RetryDrop { packet }
            | EventKind::Generated { packet }
            | EventKind::Delivered { packet, .. } => Some(*packet),
            _ => None,
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.node == NETWORK_NODE {
            write!(f, "[{:>8}] net {}", self.asn, self.kind.name())?;
        } else {
            write!(f, "[{:>8}] #{} {}", self.asn, self.node, self.kind.name())?;
        }
        match &self.kind {
            EventKind::Tx { dst, class, channel, contention, packet } => {
                match dst {
                    Some(d) => write!(f, " →#{d}")?,
                    None => write!(f, " →*")?,
                }
                write!(f, " {} ch{}", class.as_str(), channel)?;
                if *contention {
                    write!(f, " shared")?;
                }
                if let Some(p) = packet {
                    write!(f, " {p}")?;
                }
            }
            EventKind::Rx { src, class, packet } => {
                write!(f, " ←#{src} {}", class.as_str())?;
                if let Some(p) = packet {
                    write!(f, " {p}")?;
                }
            }
            EventKind::Ack { dst, packet } => {
                write!(f, " by #{dst}")?;
                if let Some(p) = packet {
                    write!(f, " {p}")?;
                }
            }
            EventKind::Nack { dst, reason, packet } => {
                write!(f, " by #{dst} ({})", reason.as_str())?;
                if let Some(p) = packet {
                    write!(f, " {p}")?;
                }
            }
            EventKind::QueueEnq { packet, depth } | EventKind::QueueDeq { packet, depth } => {
                write!(f, " {packet} depth={depth}")?;
            }
            EventKind::QueueOverflow { packet }
            | EventKind::RetryDrop { packet }
            | EventKind::Generated { packet } => write!(f, " {packet}")?,
            EventKind::Delivered { packet, latency } => {
                write!(f, " {packet} after {latency} slots")?;
            }
            EventKind::ParentSwitch { old_best, new_best, old_second, new_second } => {
                let opt = |v: &Option<u16>| match v {
                    Some(n) => format!("#{n}"),
                    None => "-".into(),
                };
                write!(
                    f,
                    " best {}→{} second {}→{}",
                    opt(old_best),
                    opt(new_best),
                    opt(old_second),
                    opt(new_second)
                )?;
            }
            EventKind::RankChange { old, new } => match old {
                Some(o) => write!(f, " {o}→{new}")?,
                None => write!(f, " -→{new}")?,
            },
            EventKind::CellAlloc { slot, offset, child }
            | EventKind::CellRelease { slot, offset, child } => {
                write!(f, " slot={slot} off={offset} child=#{child}")?;
            }
            EventKind::FaultInject { fault, peer } | EventKind::FaultClear { fault, peer } => {
                write!(f, " {}", fault.as_str())?;
                if let Some(p) = peer {
                    write!(f, " peer=#{p}")?;
                }
            }
            EventKind::AuditViolation { kind, detail } => write!(f, " {kind}: {detail}")?,
            EventKind::HealthAlert { rule, detail } => write!(f, " {rule}: {detail}")?,
            EventKind::AttackPhase { jamming, targets, hit_rate_bp } => {
                let phase = if *jamming { "jamming" } else { "learning" };
                write!(f, " {phase} targets={targets} hit_rate={hit_rate_bp}bp")?;
            }
            EventKind::DefenseEpoch { epoch } => write!(f, " epoch={epoch}")?,
            _ => {}
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_names_round_trip() {
        for &c in TrafficClass::ALL {
            assert_eq!(TrafficClass::parse(c.as_str()), Ok(c));
        }
        for &r in DropReason::ALL {
            assert_eq!(DropReason::parse(r.as_str()), Ok(r));
        }
        for &k in FaultKind::ALL {
            assert_eq!(FaultKind::parse(k.as_str()), Ok(k));
        }
        assert_eq!(
            TrafficClass::parse("bogus"),
            Err("unknown traffic class `bogus` (beacon|routing|data|mgmt)".to_string())
        );
    }

    #[test]
    fn packet_accessor_covers_data_events() {
        let p = PacketId { flow: 1, seq: 2, origin: 3 };
        assert_eq!(EventKind::Generated { packet: p }.packet(), Some(p));
        assert_eq!(EventKind::CcaDefer.packet(), None);
        assert_eq!(
            EventKind::Tx {
                dst: Some(4),
                class: TrafficClass::Data,
                channel: 0,
                contention: false,
                packet: Some(p),
            }
            .packet(),
            Some(p)
        );
    }

    #[test]
    fn display_is_compact() {
        let e = Event {
            seq: 0,
            asn: 120,
            node: 7,
            kind: EventKind::Nack {
                dst: 3,
                reason: DropReason::FrameLost,
                packet: Some(PacketId { flow: 0, seq: 9, origin: 7 }),
            },
        };
        let s = e.to_string();
        assert!(s.contains("#7"), "{s}");
        assert!(s.contains("frame-lost"), "{s}");
        assert!(s.contains("flow0/9@#7"), "{s}");
    }
}
