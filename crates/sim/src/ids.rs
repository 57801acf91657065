//! Identifier newtypes shared across the workspace.

use core::fmt;

/// Identifier of a network device (access point or field device).
///
/// Node ids are dense `u16` indices assigned by the [`crate::topology::Topology`];
/// access points occupy the lowest ids. The DiGS autonomous scheduler derives
/// transmission slots directly from this id (paper Eq. 4), mirroring how the
/// real system derives them from the MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u16);

impl NodeId {
    /// Returns the raw index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u16> for NodeId {
    fn from(v: u16) -> Self {
        NodeId(v)
    }
}

impl From<NodeId> for u16 {
    fn from(v: NodeId) -> Self {
        v.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Identifier of an end-to-end data flow (source field device → access points).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u16);

impl FlowId {
    /// Returns the raw index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u16> for FlowId {
    fn from(v: u16) -> Self {
        FlowId(v)
    }
}

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flow{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let id = NodeId::from(7u16);
        assert_eq!(u16::from(id), 7);
        assert_eq!(id.index(), 7);
        assert_eq!(id.to_string(), "#7");
    }

    #[test]
    fn flow_id_display() {
        assert_eq!(FlowId(3).to_string(), "flow3");
        assert_eq!(FlowId::from(3u16).index(), 3);
    }

    #[test]
    fn ids_are_ordered() {
        assert!(NodeId(1) < NodeId(2));
        assert!(FlowId(0) < FlowId(10));
    }
}
