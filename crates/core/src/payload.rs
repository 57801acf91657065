//! The frame payload carried over the simulated network.

use digs_routing::messages::{Dio, JoinIn};
use digs_sim::ids::{FlowId, NodeId};
use digs_sim::time::Asn;

/// An application data packet travelling from a source field device to the
/// access points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataPacket {
    /// The flow this packet belongs to.
    pub flow: FlowId,
    /// Per-flow sequence number (0-based).
    pub seq: u32,
    /// Originating field device.
    pub origin: NodeId,
    /// When the packet was generated at the source.
    pub generated_at: Asn,
}

/// Every payload a frame can carry in this reproduction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Payload {
    /// Enhanced Beacon (time synchronization). Carries nothing the
    /// simulator needs beyond its presence.
    Eb,
    /// DiGS join-in broadcast.
    JoinIn(JoinIn),
    /// RPL DIO broadcast (Orchestra baseline).
    Dio(Dio),
    /// Application data.
    Data(DataPacket),
}

impl Payload {
    /// On-air size of a frame carrying this payload, in bytes (MAC header
    /// and CRC included; values match typical Contiki frame sizes).
    pub fn frame_size(&self) -> u16 {
        match self {
            Payload::Eb => 50,
            Payload::JoinIn(_) | Payload::Dio(_) => 64,
            Payload::Data(_) => 90,
        }
    }

    /// The simulator traffic class for this payload.
    pub fn frame_kind(&self) -> digs_sim::packet::FrameKind {
        match self {
            Payload::Eb => digs_sim::packet::FrameKind::Beacon,
            Payload::JoinIn(_) | Payload::Dio(_) => digs_sim::packet::FrameKind::Routing,
            Payload::Data(_) => digs_sim::packet::FrameKind::Data,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use digs_sim::packet::FrameKind;

    #[test]
    fn frame_kinds_map_to_traffic_classes() {
        assert_eq!(Payload::Eb.frame_kind(), FrameKind::Beacon);
        assert_eq!(
            Payload::JoinIn(JoinIn {
                rank: digs_routing::Rank(2),
                etx_w: 1.0,
                best_parent: None,
                second_parent: None
            })
            .frame_kind(),
            FrameKind::Routing
        );
        let data = Payload::Data(DataPacket {
            flow: FlowId(0),
            seq: 1,
            origin: NodeId(3),
            generated_at: Asn(0),
        });
        assert_eq!(data.frame_kind(), FrameKind::Data);
    }

    #[test]
    fn frame_sizes_fit_802154() {
        for p in [
            Payload::Eb,
            Payload::JoinIn(JoinIn {
                rank: digs_routing::Rank(2),
                etx_w: 1.0,
                best_parent: None,
                second_parent: None,
            }),
            Payload::Data(DataPacket {
                flow: FlowId(0),
                seq: 0,
                origin: NodeId(0),
                generated_at: Asn(0),
            }),
        ] {
            assert!(p.frame_size() <= 127);
            assert!(p.frame_size() >= 23);
        }
    }
}
