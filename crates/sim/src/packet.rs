//! Frames exchanged over the air.
//!
//! The simulator is protocol-agnostic: the payload type `P` is supplied by
//! the protocol stack crate. The engine only needs addressing, a coarse
//! frame kind (for acknowledgement policy and statistics), and the on-air
//! size (for airtime and energy accounting).

use crate::ids::NodeId;
use core::fmt;

/// Destination of a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dest {
    /// Link-layer unicast to one neighbor; acknowledged.
    Unicast(NodeId),
    /// Link-layer broadcast; never acknowledged.
    Broadcast,
}

impl Dest {
    /// Whether this destination expects a link-layer acknowledgement.
    pub fn expects_ack(self) -> bool {
        matches!(self, Dest::Unicast(_))
    }

    /// Whether a frame with this destination is addressed to `node`.
    pub fn addressed_to(self, node: NodeId) -> bool {
        match self {
            Dest::Unicast(d) => d == node,
            Dest::Broadcast => true,
        }
    }
}

impl fmt::Display for Dest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dest::Unicast(d) => write!(f, "→{d}"),
            Dest::Broadcast => write!(f, "→*"),
        }
    }
}

/// Coarse traffic class of a frame, mirroring the paper's three traffic
/// types plus network-layer signalling used by the centralized baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameKind {
    /// Enhanced Beacon: time-synchronization traffic.
    Beacon,
    /// Routing signalling (join-in, DIO, health reports).
    Routing,
    /// Application data.
    Data,
    /// Centralized manager dissemination (routes/schedule updates).
    Management,
}

impl FrameKind {
    /// The flight-recorder traffic class of this frame kind.
    pub fn traffic_class(self) -> digs_trace::TrafficClass {
        match self {
            FrameKind::Beacon => digs_trace::TrafficClass::Beacon,
            FrameKind::Routing => digs_trace::TrafficClass::Routing,
            FrameKind::Data => digs_trace::TrafficClass::Data,
            FrameKind::Management => digs_trace::TrafficClass::Management,
        }
    }
}

impl fmt::Display for FrameKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FrameKind::Beacon => "beacon",
            FrameKind::Routing => "routing",
            FrameKind::Data => "data",
            FrameKind::Management => "mgmt",
        };
        f.write_str(s)
    }
}

/// A link-layer frame carrying a protocol-defined payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame<P> {
    /// Transmitting node.
    pub src: NodeId,
    /// Link-layer destination.
    pub dst: Dest,
    /// Traffic class.
    pub kind: FrameKind,
    /// On-air size in bytes, including MAC header and CRC (max 127 for
    /// 802.15.4).
    pub size_bytes: u16,
    /// Protocol payload.
    pub payload: P,
    /// Flight-recorder identity of the application packet this frame
    /// carries, if any. The engine is payload-agnostic; stacks set this on
    /// data frames so TX/RX/ACK trace events can be attributed to an
    /// end-to-end packet journey. `None` costs nothing when tracing is off.
    pub trace_id: Option<digs_trace::PacketId>,
}

impl<P> Frame<P> {
    /// Creates a frame, clamping the size to the 802.15.4 maximum of 127
    /// bytes and a minimum of the 23-byte MAC overhead.
    pub fn new(src: NodeId, dst: Dest, kind: FrameKind, size_bytes: u16, payload: P) -> Frame<P> {
        Frame { src, dst, kind, size_bytes: size_bytes.clamp(23, 127), payload, trace_id: None }
    }

    /// Attaches a flight-recorder packet identity (builder style).
    pub fn with_trace_id(mut self, id: digs_trace::PacketId) -> Frame<P> {
        self.trace_id = Some(id);
        self
    }

    /// Airtime of the frame in microseconds at the 802.15.4 rate of
    /// 250 kbit/s, including the 6-byte synchronization header.
    pub fn airtime_us(&self) -> u32 {
        // (size + preamble/SFD/len = 6 bytes) * 8 bits / 250 kbps = 32 µs/byte
        (u32::from(self.size_bytes) + 6) * 32
    }
}

/// Airtime of an 802.15.4 acknowledgement frame in microseconds.
pub const ACK_AIRTIME_US: u32 = (11 + 6) * 32;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dest_ack_policy() {
        assert!(Dest::Unicast(NodeId(1)).expects_ack());
        assert!(!Dest::Broadcast.expects_ack());
    }

    #[test]
    fn dest_addressing() {
        assert!(Dest::Unicast(NodeId(1)).addressed_to(NodeId(1)));
        assert!(!Dest::Unicast(NodeId(1)).addressed_to(NodeId(2)));
        assert!(Dest::Broadcast.addressed_to(NodeId(7)));
    }

    #[test]
    fn frame_size_clamped() {
        let f = Frame::new(NodeId(0), Dest::Broadcast, FrameKind::Beacon, 500, ());
        assert_eq!(f.size_bytes, 127);
        let g = Frame::new(NodeId(0), Dest::Broadcast, FrameKind::Beacon, 1, ());
        assert_eq!(g.size_bytes, 23);
    }

    #[test]
    fn airtime_of_full_frame() {
        let f = Frame::new(NodeId(0), Dest::Broadcast, FrameKind::Data, 127, ());
        // 133 bytes * 32 µs = 4256 µs, the canonical 802.15.4 max airtime.
        assert_eq!(f.airtime_us(), 4256);
    }

    #[test]
    fn ack_airtime() {
        assert_eq!(ACK_AIRTIME_US, 544);
    }
}
