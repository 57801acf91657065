//! Aggregate simulation statistics collected by the engine.

use crate::packet::FrameKind;
use core::fmt;

/// Counters the engine maintains while running, broken down by traffic class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindCounters {
    /// Frames put on the air.
    pub transmitted: u64,
    /// Frame receptions delivered to a stack (one per successful listener).
    pub received: u64,
    /// Unicast transmissions that were acknowledged.
    pub acked: u64,
    /// Unicast transmissions that were not acknowledged.
    pub unacked: u64,
}

/// Engine-level statistics across all nodes and traffic classes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Beacon traffic counters.
    pub beacon: KindCounters,
    /// Routing traffic counters.
    pub routing: KindCounters,
    /// Application data counters.
    pub data: KindCounters,
    /// Management (centralized dissemination) counters.
    pub management: KindCounters,
    /// Transmissions deferred by a busy CCA in shared slots.
    pub cca_deferrals: u64,
    /// Unicast DATA transmissions that failed because the addressee was not
    /// listening on the transmit channel at all (schedule mismatch), as
    /// opposed to frame/ACK loss.
    pub unacked_no_listener: u64,
    /// Slots simulated.
    pub slots: u64,
    /// Committed transmissions per physical channel (index = channel
    /// number, 0..NUM_CHANNELS) — the occupancy signal behind the
    /// telemetry per-channel time series.
    pub channel_tx: [u64; 16],
    /// Receptions lost to the PRR roll with no co-channel contender
    /// (noise / weak signal).
    pub noise_drops: u64,
    /// Receptions lost to the PRR roll while at least one other frame
    /// contended on the same channel (interference-degraded SINR).
    pub collision_drops: u64,
    /// Slots in which an adaptive jammer emitted on at least one of its
    /// learned target cells (selective jamming activity).
    pub adaptive_jam_slots: u64,
    /// Adaptive-jammer target cells that saw a victim transmission while
    /// being jammed (the attacker's successful predictions).
    pub adaptive_jam_hits: u64,
    /// Adaptive-jammer target-cell activations (jammed cells, hit or not) —
    /// the denominator of the attacker hit-rate.
    pub adaptive_jam_opportunities: u64,
    /// Times an adaptive jammer finished a learning window and (re)selected
    /// its top-K victim cells.
    pub adaptive_retargets: u64,
    /// Times an adaptive jammer abandoned a stale target set because its
    /// hit-rate decayed below threshold and went back to learning.
    pub adaptive_relearns: u64,
}

impl EngineStats {
    /// Mutable counters for a traffic class.
    pub fn kind_mut(&mut self, kind: FrameKind) -> &mut KindCounters {
        match kind {
            FrameKind::Beacon => &mut self.beacon,
            FrameKind::Routing => &mut self.routing,
            FrameKind::Data => &mut self.data,
            FrameKind::Management => &mut self.management,
        }
    }

    /// Counters for a traffic class.
    pub fn kind(&self, kind: FrameKind) -> &KindCounters {
        match kind {
            FrameKind::Beacon => &self.beacon,
            FrameKind::Routing => &self.routing,
            FrameKind::Data => &self.data,
            FrameKind::Management => &self.management,
        }
    }

    /// Total frames transmitted across classes.
    pub fn total_transmitted(&self) -> u64 {
        self.beacon.transmitted
            + self.routing.transmitted
            + self.data.transmitted
            + self.management.transmitted
    }
}

impl fmt::Display for EngineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "slots {}: tx {} (beacon {}, routing {}, data {}, mgmt {}), cca-deferrals {}",
            self.slots,
            self.total_transmitted(),
            self.beacon.transmitted,
            self.routing.transmitted,
            self.data.transmitted,
            self.management.transmitted,
            self.cca_deferrals
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_mut_routes_to_right_counter() {
        let mut s = EngineStats::default();
        s.kind_mut(FrameKind::Data).transmitted += 2;
        s.kind_mut(FrameKind::Beacon).transmitted += 1;
        assert_eq!(s.data.transmitted, 2);
        assert_eq!(s.beacon.transmitted, 1);
        assert_eq!(s.total_transmitted(), 3);
        assert_eq!(s.kind(FrameKind::Data).transmitted, 2);
    }
}
