//! Routing-plane wire messages and state-machine outputs.

use core::fmt;
use digs_sim::ids::NodeId;

/// A node's rank: its hop-distance-derived position in the DAG. Access
/// points have rank 1; a field device's rank is its best parent's rank + 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Rank(pub u16);

impl Rank {
    /// Rank of the access points.
    pub const ROOT: Rank = Rank(1);
    /// Rank of a node that has not joined the network.
    pub const INFINITE: Rank = Rank(u16::MAX);

    /// Whether the node holding this rank has joined.
    pub fn is_finite(self) -> bool {
        self != Rank::INFINITE
    }

    /// One deeper than `self`.
    ///
    /// # Panics
    ///
    /// Panics if called on [`Rank::INFINITE`].
    pub fn deeper(self) -> Rank {
        assert!(self.is_finite(), "cannot deepen an infinite rank");
        Rank(self.0.saturating_add(1))
    }
}

impl Default for Rank {
    /// The default rank is [`Rank::INFINITE`] (not yet joined).
    fn default() -> Rank {
        Rank::INFINITE
    }
}

impl fmt::Display for Rank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_finite() {
            write!(f, "rank {}", self.0)
        } else {
            f.write_str("rank ∞")
        }
    }
}

/// The join-in broadcast (DiGS): advertises the sender's rank and weighted
/// ETX so neighbors can evaluate it as a parent (paper Section V).
///
/// In addition to the paper's `(rank, ETXw)` pair, our join-in carries the
/// sender's current parent selections, and it is the one way a parent
/// learns its children: hearing it registers the sender with each parent it
/// names and unregisters it from any other. This replaces the paper's
/// joined-callback unicast, which contends for the shared routing cell and
/// must be retried; the broadcast goes out at once on every parent change
/// and again with each Trickle firing (two node ids of extra payload).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JoinIn {
    /// Sender's rank.
    pub rank: Rank,
    /// Sender's weighted ETX to the access points (Eq. 1).
    pub etx_w: f64,
    /// Sender's current best parent.
    pub best_parent: Option<NodeId>,
    /// Sender's current second-best parent.
    pub second_parent: Option<NodeId>,
}

/// Which parent slot a child gave a node: the role the child's join-in or
/// data traffic names it in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParentSlot {
    /// The primary (best) parent.
    Best,
    /// The backup (second-best) parent.
    SecondBest,
}

/// The DIO broadcast (RPL baseline): advertises rank and accumulated path
/// ETX through the single preferred parent. The preferred parent id stands
/// in for RPL's DAO child registration (storing mode), which Orchestra's
/// sender-based schedule needs to derive its receive cells.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dio {
    /// Sender's rank.
    pub rank: Rank,
    /// Sender's accumulated path ETX to the root.
    pub path_etx: f64,
    /// Sender's current preferred parent.
    pub parent: Option<NodeId>,
}

/// Output of a routing state machine, to be mapped onto frames by the node
/// stack.
#[derive(Debug, Clone, PartialEq)]
pub enum RoutingEvent {
    /// Broadcast a join-in message (DiGS).
    BroadcastJoinIn(JoinIn),
    /// Broadcast a DIO (RPL).
    BroadcastDio(Dio),
    /// The node's parent set changed (telemetry for repair-time metrics).
    ParentsChanged {
        /// New best parent, if any.
        best: Option<NodeId>,
        /// New second-best parent, if any.
        second: Option<NodeId>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_ordering() {
        assert!(Rank::ROOT < Rank(2));
        assert!(Rank(5) < Rank::INFINITE);
        assert!(!Rank::INFINITE.is_finite());
        assert!(Rank::ROOT.is_finite());
    }

    #[test]
    fn deeper_increments() {
        assert_eq!(Rank::ROOT.deeper(), Rank(2));
    }

    #[test]
    #[should_panic(expected = "cannot deepen an infinite rank")]
    fn deeper_on_infinite_panics() {
        let _ = Rank::INFINITE.deeper();
    }

    #[test]
    fn rank_display() {
        assert_eq!(Rank(3).to_string(), "rank 3");
        assert_eq!(Rank::INFINITE.to_string(), "rank ∞");
    }
}
